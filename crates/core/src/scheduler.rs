//! The online co-allocation scheduler (Section 4.2).
//!
//! [`CoAllocScheduler`] is the scheduler `S` of the paper: it maintains the
//! slotted 2-dimensional trees over every server's idle periods, and handles
//! each request `r = (q_r, s_r, l_r, n_r)` immediately on arrival:
//!
//! 1. try to find `n_r` feasible idle periods for `[s_r, s_r + l_r)` via the
//!    two-phase tree search;
//! 2. on failure, retry with the start shifted by `Delta_t`, up to `R_max`
//!    attempts;
//! 3. on success, commit: reserve the window on the chosen servers and
//!    mirror the idle-period fragments into the slot trees.
//!
//! The servers are stored as contiguous ranges, one [`ServerIndex`] each:
//! [`CoAllocScheduler::new`] builds one range, [`CoAllocScheduler::with_ranges`]
//! `K`. The partition is a storage detail, not a second scheduler — there
//! is one driver: each attempt runs Phase 1 on every range and sums the
//! candidate counts, takes the early exit, runs Phase 2 on every range and
//! concatenates the hits (global server ids), filters them by tags, selects
//! and commits on the ranges owning the chosen servers. Candidate counts
//! only ever over-count, the hits of disjoint server ranges concatenate,
//! and every selection key is total, so the decisions are the same for
//! every `K` (DESIGN.md §9); at `K = 1` the driver is the one index's
//! search, step for step.

use crate::attrs::AttrSet;
use crate::batch::{BatchGrants, CommitBuf};
use crate::error::ScheduleError;
use crate::idle::IdlePeriod;
use crate::ids::{JobId, ServerId};
use crate::index::ServerIndex;
use crate::ladder::{Ladder, Placement};
use crate::policy::SelectionPolicy;
use crate::profile::FreeProfile;
use crate::request::Request;
use crate::ring::SlotRing;
use crate::snapshot::StateImage;
use crate::stats::OpStats;
use crate::time::{Dur, SlotConfig, Time};
use crate::timeline::{Reservation, Timeline};
use obs::{obs_span, obs_span_detail, LazyCounter, LazyHistogram};

/// Slot advances between history prunes (amortizes the O(N) prune scan).
/// Public because prune timing is observable through
/// [`CoAllocScheduler::release`] (pruned jobs report `UnknownJob`): the
/// naive oracle and every server range must forget jobs on exactly the
/// same cadence to stay decision-identical.
pub const PRUNE_EVERY_SLOTS: i64 = 32;

/// The prune cadence itself, shared by the naive oracle and every server
/// range: whether a live window starting at `window_start` has moved
/// [`PRUNE_EVERY_SLOTS`] slots of width `tau` past the last prune.
pub(crate) fn prune_due(last_prune: Time, window_start: Time, tau: Dur) -> bool {
    (window_start - last_prune).secs() >= PRUNE_EVERY_SLOTS * tau.secs()
}

// Scheduler metrics. Counters and histograms are process-global (they
// aggregate over every scheduler instance); per-instance
// numbers remain available via [`CoAllocScheduler::stats`]. Tree-op
// counters are bulk-added from an OpStats delta, never per node visit,
// keeping the hot-path cost to a handful of relaxed atomic adds per request.
static REQUESTS: LazyCounter = LazyCounter::new("sched_requests_total");
static GRANTS: LazyCounter = LazyCounter::new("sched_grants_total");
static REJECTS: LazyCounter = LazyCounter::new("sched_rejects_total");
static ATTEMPTS_HIST: LazyHistogram = LazyHistogram::new("sched_attempts");
static RETRIES_SKIPPED: LazyCounter = LazyCounter::new("sched_retries_skipped_total");
static ATTEMPTS_JUMPED: LazyCounter = LazyCounter::new("sched_attempts_jumped_total");
static PHASE1_TOTAL: LazyCounter = LazyCounter::new("sched_phase1_total");
static PHASE2_TOTAL: LazyCounter = LazyCounter::new("sched_phase2_total");
static PRIMARY_VISITS: LazyCounter = LazyCounter::new("tree_primary_visits_total");
static SECONDARY_VISITS: LazyCounter = LazyCounter::new("tree_secondary_visits_total");
static UPDATE_VISITS: LazyCounter = LazyCounter::new("tree_update_visits_total");
static REBUILDS: LazyCounter = LazyCounter::new("tree_rebuilds_total");
static PHASE1_CANDIDATES: LazyHistogram = LazyHistogram::new("sched_phase1_candidates");
static PHASE2_DEPTH: LazyHistogram = LazyHistogram::new("sched_phase2_depth");

/// Publish the metrics of requests that reached the retry ladder (a request
/// failing validation never does): `probed[i]` is the number of starts
/// request `i` searched, `grants` how many of them were granted, and
/// `delta` the [`OpStats`] they accrued together. Reported once per
/// `submit`, and once per batch (pooled or not) for a whole batch.
pub(crate) fn record_requests(probed: &[u64], grants: u64, delta: &OpStats) {
    let add = |counter: &LazyCounter, n: u64| {
        if n > 0 {
            counter.add(n);
        }
    };
    let requests = probed.len() as u64;
    add(&REQUESTS, requests);
    add(&GRANTS, grants);
    add(&REJECTS, requests - grants);
    for &p in probed {
        ATTEMPTS_HIST.observe(p);
    }
    add(&RETRIES_SKIPPED, delta.attempts_skipped);
    add(&ATTEMPTS_JUMPED, delta.attempts_jumped);
    add(&PRIMARY_VISITS, delta.primary_visits);
    add(&SECONDARY_VISITS, delta.secondary_visits);
    add(&UPDATE_VISITS, delta.update_visits);
    add(&REBUILDS, delta.rebuilds);
    add(&PHASE1_TOTAL, delta.phase1_searches);
    add(&PHASE2_TOTAL, delta.phase2_searches);
}

/// Open the `sched.submit` span of one request about to climb `ladder`.
fn submit_span(req: &Request, ladder: &Ladder) -> obs::trace::SpanGuard {
    obs_span!(
        "sched.submit",
        "servers" => req.servers,
        "duration_s" => req.duration.secs().max(0) as u64,
        "earliest_s" => ladder.earliest().secs()
    )
}

/// Record a request's outcome on its `sched.submit` span and close it.
fn close_submit_span(
    mut span: obs::trace::SpanGuard,
    result: &Result<Grant, ScheduleError>,
    probed: u64,
) {
    if span.active() {
        match result {
            Ok(grant) => {
                span.record("outcome", "granted");
                span.record("attempts", grant.attempts);
                span.record("start_s", grant.start.secs());
            }
            Err(e) => {
                span.record("outcome", "rejected");
                span.record("attempts", probed);
                span.record("error", format!("{e:?}"));
            }
        }
    }
}

/// Hostile-input bounds ([`SchedulerConfig::check_limits`]): protocol lines
/// and snapshots are operator- or network-supplied data, so sizes that would
/// make a constructor allocate unboundedly or the clock loop for minutes are
/// rejected up front rather than trusted.
const MAX_SERVERS: u64 = 1 << 20;
/// Upper bound on the derived slot count `ceil(horizon / tau)`.
const MAX_SLOTS: i64 = 1 << 22;
/// Magnitude bound on every timestamp (≈ 139,000 years in seconds): keeps
/// all downstream slot arithmetic far from `i64` overflow.
pub(crate) const MAX_ABS_TIME: i64 = 1 << 42;
/// Bound on the slots one clock move spans: `advance_to` rotates the ring
/// slot by slot, so the span must not encode a multi-minute spin. (A
/// snapshot's `origin → now` is not a move: a restore builds the scheduler
/// at `now` and replays nothing.)
const MAX_ADVANCE_SLOTS: i64 = 1 << 21;
/// Most ranges a scheduler is split into (a pooled stage runs a thread per
/// range).
const MAX_RANGES: u32 = 64;

/// Work in a batch — members × servers in the system — from which
/// [`CoAllocScheduler::submit_batch_into`] pools it by default instead of
/// running it inline: 16 members at 8,192 servers, 64 at 2,048. A pooled
/// batch pays for spawning its stage threads whatever its size, so small
/// batches and small systems are better off inline. In a sweep of the
/// commit-only pool against the inline path on a 2-vCPU host
/// (EXPERIMENTS.md, "Is the commit-only pool worth waking?") the pool took
/// less wall time at every size measured from 2^17 on, was mixed between
/// 2^14 and 2^16, and lost nine of ten sizes at 2^13 and below; it always
/// took more CPU ("The pool as a scoped stage" re-times 2^16 and 2^17 with
/// scoped stages). Only reached with more than one range on a host with
/// more than one CPU — on a single CPU the stage threads can only add
/// context switches — and overridable per instance with
/// [`CoAllocScheduler::set_pool_min_batch`].
const POOL_MIN_WORK: u64 = 1 << 17;

/// How work reaches the ranges: the size of every batch on a scheduler with
/// more than one range.
static BATCH_SIZE: LazyHistogram = LazyHistogram::new("shard_batch_size");

/// Configuration of a [`CoAllocScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Slot width `tau` (also the recommended minimum request duration).
    pub tau: Dur,
    /// Scheduling horizon `H`; the ring keeps `Q = ceil(H / tau)` trees.
    pub horizon: Dur,
    /// Start-time increment between scheduling attempts (`Delta_t`).
    pub delta_t: Dur,
    /// Maximum number of scheduling attempts (`R_max`). `None` uses the
    /// paper's evaluation default `Q / 2`.
    pub r_max: Option<u32>,
    /// Which feasible periods to allocate.
    pub policy: SelectionPolicy,
    /// RNG seed for deterministic tree shapes.
    pub seed: u64,
}

impl Default for SchedulerConfig {
    /// The paper's evaluation settings: 15-minute `Delta_t`, `R_max = Q/2`,
    /// paper-order selection; one-week horizon with `tau = Delta_t`.
    fn default() -> Self {
        SchedulerConfig {
            tau: Dur::from_mins(15),
            horizon: Dur::from_hours(24 * 7),
            delta_t: Dur::from_mins(15),
            r_max: None,
            policy: SelectionPolicy::PaperOrder,
            seed: 0x5EED,
        }
    }
}

impl SchedulerConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> SchedulerConfigBuilder {
        SchedulerConfigBuilder(SchedulerConfig::default())
    }

    /// The derived slot geometry.
    pub fn slot_config(&self) -> SlotConfig {
        SlotConfig::new(self.tau, self.horizon)
    }

    /// Effective `R_max`: the configured value or the paper default `Q / 2`.
    pub fn effective_r_max(&self) -> u32 {
        self.r_max
            .unwrap_or_else(|| (self.slot_config().num_slots / 2) as u32)
    }

    /// Check a geometry and a clock move that came from outside the program
    /// (an `init` or `advance` line; a snapshot, whose clocks are no move
    /// and are passed backwards) against the bounds above:
    /// this configuration's `tau`, `horizon` and `delta_t` over `servers`
    /// servers, and the clock going `from → to`. Must pass before a
    /// constructor (they `assert!` their invariants and allocate per server
    /// and per slot) or [`CoAllocScheduler::advance_to`] (it rotates the
    /// ring slot by slot) sees the values; `Err` names the violated bound.
    /// A move backwards passes: `advance_to` ignores it.
    pub fn check_limits(&self, servers: u64, from: Time, to: Time) -> Result<(), &'static str> {
        let (tau, horizon, delta_t) = (self.tau.secs(), self.horizon.secs(), self.delta_t.secs());
        if !(1..=MAX_ABS_TIME).contains(&tau) {
            return Err("slot width out of range");
        }
        if !(tau..=MAX_ABS_TIME).contains(&horizon) {
            return Err("horizon out of range");
        }
        if (horizon + tau - 1) / tau > MAX_SLOTS {
            return Err("horizon/tau implies too many slots");
        }
        if !(1..=MAX_ABS_TIME).contains(&delta_t) {
            return Err("delta_t out of range");
        }
        if !(1..=MAX_SERVERS).contains(&servers) {
            return Err("server count out of range");
        }
        let in_range = |t: Time| t.secs().unsigned_abs() <= MAX_ABS_TIME as u64;
        if !in_range(from) || !in_range(to) {
            return Err("clock out of range");
        }
        if (to - from).secs() / tau > MAX_ADVANCE_SLOTS {
            return Err("clock span implies too many slot advances");
        }
        Ok(())
    }
}

/// Builder for [`SchedulerConfig`].
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfigBuilder(SchedulerConfig);

impl SchedulerConfigBuilder {
    /// Set the slot width `tau`.
    pub fn tau(mut self, tau: Dur) -> Self {
        self.0.tau = tau;
        self
    }
    /// Set the horizon `H`.
    pub fn horizon(mut self, horizon: Dur) -> Self {
        self.0.horizon = horizon;
        self
    }
    /// Set the retry increment `Delta_t`.
    pub fn delta_t(mut self, delta_t: Dur) -> Self {
        self.0.delta_t = delta_t;
        self
    }
    /// Set `R_max` explicitly.
    pub fn r_max(mut self, r_max: u32) -> Self {
        self.0.r_max = Some(r_max);
        self
    }
    /// Set the selection policy.
    pub fn policy(mut self, policy: SelectionPolicy) -> Self {
        self.0.policy = policy;
        self
    }
    /// Set the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }
    /// Finish building.
    pub fn build(self) -> SchedulerConfig {
        assert!(self.0.delta_t.secs() > 0, "Delta_t must be positive");
        self.0
    }
}

/// A successful co-allocation: `n_r` servers reserved for `[start, end)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Identifier of the committed job.
    pub job: JobId,
    /// Actual start time (may exceed `s_r` by a multiple of `Delta_t`).
    pub start: Time,
    /// End of the reservation.
    pub end: Time,
    /// The servers allocated, in allocation order.
    pub servers: Vec<ServerId>,
    /// Scheduling attempts used (1 = succeeded at `s_r`).
    pub attempts: u32,
    /// Waiting time `W_r = start - s_r` introduced by the scheduler.
    pub waiting: Dur,
}

/// The online co-allocation scheduler.
#[derive(Clone, Debug)]
pub struct CoAllocScheduler {
    cfg: SchedulerConfig,
    now: Time,
    origin: Time,
    attrs: Vec<AttrSet>,
    next_job: u64,
    /// Aggregate busy-count index driving the retry-jump fast reject;
    /// maintained from the same commit/release flow as the ranges.
    pub(crate) profile: FreeProfile,
    /// Timeline, slot trees and job map of each contiguous server range,
    /// in server order.
    parts: Vec<ServerIndex>,
    /// Cumulative operation counters of every range.
    stats: OpStats,
    /// The current attempt's feasible set (global server ids), reduced in
    /// place by the selection policy.
    feasible: Vec<IdlePeriod>,
    /// Probe every `Delta_t` start (see [`Self::set_linear_walk`]).
    linear_walk: bool,
    /// The open batch's grants, if one is open (see [`Self::open_batch`]).
    batch: BatchGrants,
    /// Batch size from which `submit_batch_into` pools a batch.
    pool_min_batch: usize,
    /// Whether the most recent batch was pooled. `advance_to` follows it:
    /// while batches are pooled the ranges advance in a pooled stage too.
    pooled: bool,
    /// Starts searched by each member of the current batch, reused across
    /// batches.
    probed: Vec<u64>,
}

impl CoAllocScheduler {
    /// Create a scheduler for `num_servers` servers, with the clock at the
    /// epoch.
    pub fn new(num_servers: u32, cfg: SchedulerConfig) -> CoAllocScheduler {
        CoAllocScheduler::build(num_servers, 1, Time::ZERO, cfg)
    }

    /// [`Self::new`] with the servers stored as `k` contiguous ranges
    /// (clamped to `[1, min(64, num_servers)]`; the first `num_servers % k`
    /// ranges own one server more). Range `i` seeds its trees with
    /// `cfg.seed ^ i·0xA24BAED4963EE407`, so range 0 is [`Self::new`]'s
    /// index. Decisions do not depend on `k`.
    pub fn with_ranges(num_servers: u32, k: u32, cfg: SchedulerConfig) -> CoAllocScheduler {
        CoAllocScheduler::build(num_servers, k, Time::ZERO, cfg)
    }

    fn build(num_servers: u32, k: u32, origin: Time, cfg: SchedulerConfig) -> CoAllocScheduler {
        assert!(num_servers > 0, "a system needs at least one server");
        let k = k.clamp(1, num_servers.min(MAX_RANGES));
        let slot_cfg = cfg.slot_config();
        let mut stats = OpStats::new();
        let (per, rem) = (num_servers / k, num_servers % k);
        let mut base = 0u32;
        let parts = (0..k)
            .map(|i| {
                let count = per + u32::from(i < rem);
                let seed = cfg.seed ^ u64::from(i).wrapping_mul(0xA24BAED4963EE407);
                let part = ServerIndex::new(slot_cfg, base, count, origin, seed, &mut stats);
                base += count;
                part
            })
            .collect();
        let parallel = k > 1 && std::thread::available_parallelism().is_ok_and(|p| p.get() > 1);
        let pool_min_batch = if parallel {
            (POOL_MIN_WORK / u64::from(num_servers)).max(1) as usize
        } else {
            usize::MAX
        };
        CoAllocScheduler {
            cfg,
            now: origin,
            origin,
            attrs: vec![AttrSet::NONE; num_servers as usize],
            next_job: 0,
            profile: FreeProfile::new(slot_cfg, num_servers, origin),
            parts,
            stats,
            feasible: Vec::new(),
            linear_walk: false,
            batch: BatchGrants::default(),
            pool_min_batch,
            pooled: false,
            probed: Vec::new(),
        }
    }

    /// Probe every `Delta_t` start of a ladder instead of jumping past the
    /// ones the capacity profile refutes (DESIGN.md §14): the exhaustive
    /// walk the tests hold the jumping ladder to. Decisions — grants,
    /// `attempts`, error replies — are identical either way; only the
    /// `attempts` / `attempts_jumped` split and the `sched_attempts`
    /// histogram see which starts were probed. Not persisted.
    #[doc(hidden)]
    pub fn set_linear_walk(&mut self, linear: bool) {
        self.linear_walk = linear;
    }

    /// Which range owns a global server id: the inverse of the layout
    /// [`Self::with_ranges`] builds.
    fn range_of(&self, server: ServerId) -> usize {
        let k = self.parts.len() as u32;
        let (per, rem) = (self.num_servers() / k, self.num_servers() % k);
        let s = server.0;
        if s < rem * (per + 1) {
            (s / (per + 1)) as usize
        } else {
            (rem + (s - rem * (per + 1)) / per) as usize
        }
    }

    /// The scheduler's current clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of servers `N`.
    pub fn num_servers(&self) -> u32 {
        self.attrs.len() as u32
    }

    /// Number of server ranges `K`.
    pub fn num_ranges(&self) -> usize {
        self.parts.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// End of the current scheduling horizon.
    pub fn horizon_end(&self) -> Time {
        self.parts[0].ring().horizon_end()
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Read-only access to the authoritative timeline of the first range
    /// (local server ids): the whole system's at `K = 1`.
    pub fn timeline(&self) -> &Timeline {
        self.parts[0].timeline()
    }

    /// Read-only access to the slot ring of the first range (for
    /// diagnostics and tests): the whole system's at `K = 1`.
    pub fn ring(&self) -> &SlotRing {
        self.parts[0].ring()
    }

    /// What the index holds, summed over the ranges' rings: slot-tree
    /// entries and the bytes of the stores they live in. `O(K)`.
    pub fn index_size(&self) -> (usize, usize) {
        self.parts.iter().fold((0, 0), |(entries, bytes), part| {
            let store = part.ring().store();
            (entries + store.entries(), bytes + store.bytes())
        })
    }

    /// The ranges and the counters their work is charged to, for a caller
    /// that drives the per-range steps itself (a range search).
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<ServerIndex>, &mut OpStats) {
        (&mut self.parts, &mut self.stats)
    }

    /// Committed reservations of a job in the first range that holds part
    /// of it (server ids local to that range: at `K = 1`, all of them).
    pub fn job(&self, job: JobId) -> Option<&[Reservation]> {
        self.parts.iter().find_map(|part| part.job(job))
    }

    /// System utilization over `[origin, until)`.
    pub fn utilization(&self, until: Time) -> f64 {
        let span = (until - self.origin).secs();
        if span <= 0 {
            return 0.0;
        }
        let busy: i64 = self
            .parts
            .iter()
            .map(|p| p.timeline().busy_secs_before(until))
            .sum();
        busy as f64 / (span as f64 * self.num_servers() as f64)
    }

    /// Advance the clock: discard expired slot trees, seed new edge trees,
    /// and prune dead history. Time never moves backwards. After a pooled
    /// batch the ranges advance in a pooled stage, and only when the live
    /// slot window moves (ring rotation and the prune cadence depend on the
    /// slot index alone).
    pub fn advance_to(&mut self, now: Time) {
        if now <= self.now {
            return;
        }
        self.now = now;
        self.profile.advance_to(now);
        if !self.pooled {
            for part in &mut self.parts {
                part.advance_to(now, &mut self.stats);
            }
        } else if self.cfg.slot_config().slot_of(now) > self.ring().first_slot() {
            self.stage(std::iter::repeat(Some(now)), |part, now, stats| {
                part.advance_to(now, stats)
            });
        }
    }

    /// The scheduler's persistent state as plain data (see
    /// [`crate::snapshot`]); every range appends its own servers' share.
    pub fn export(&self) -> StateImage {
        let mut image = StateImage {
            cfg: self.cfg,
            origin: self.origin,
            now: self.now,
            // Every range prunes on the same slot boundary.
            last_prune: self.parts[0].last_prune(),
            attrs: self.attrs.clone(),
            idle: Vec::new(),
            busy: Vec::new(),
            next_job: self.next_job,
        };
        for part in &self.parts {
            part.export(&mut image);
        }
        image
    }

    /// A scheduler over `k` ranges (as in [`Self::with_ranges`]) in the
    /// state `image` describes, whatever `K` wrote it: every range installs
    /// its own servers' idle periods and reservations verbatim, the
    /// capacity profile is rebuilt from the reservations.
    pub fn from_image(image: StateImage, k: u32) -> CoAllocScheduler {
        let servers = image.attrs.len() as u32;
        let mut sched = CoAllocScheduler::build(servers, k, image.now, image.cfg);
        sched.origin = image.origin;
        sched.next_job = image.next_job;
        for r in &image.busy {
            sched.profile.add(r.start, r.end, 1);
        }
        for part in &mut sched.parts {
            part.install(&image, &mut sched.stats);
        }
        sched.attrs = image.attrs;
        sched
    }

    /// Handle a request: the full online algorithm of Section 4.2, including
    /// the `Delta_t` / `R_max` retry loop. On success the reservation is
    /// committed and a [`Grant`] returned.
    ///
    /// ```
    /// use coalloc_core::prelude::*;
    ///
    /// let mut sched = CoAllocScheduler::new(4, SchedulerConfig::default());
    /// let grant = sched
    ///     .submit(&Request::on_demand(Time::ZERO, Dur::from_hours(1), 2))
    ///     .unwrap();
    /// assert_eq!(grant.servers.len(), 2);
    /// assert_eq!(grant.start, Time::ZERO); // idle system: no waiting
    /// ```
    pub fn submit(&mut self, req: &Request) -> Result<Grant, ScheduleError> {
        let ladder = self.ladder(req, self.num_servers(), None)?;
        self.climb(req, ladder, AttrSet::NONE)
    }

    /// Validate `req` and lay out its retry ladder against the current
    /// clock and horizon, for `capacity` usable servers.
    fn ladder(
        &self,
        req: &Request,
        capacity: u32,
        deadline: Option<Time>,
    ) -> Result<Ladder, ScheduleError> {
        let jump = !self.linear_walk;
        Ladder::new(
            &self.cfg,
            req,
            capacity,
            self.now,
            self.horizon_end(),
            deadline,
            jump,
        )
    }

    /// [`Self::search`] plus the request's metrics and `sched.submit` span.
    fn climb(
        &mut self,
        req: &Request,
        ladder: Ladder,
        required: AttrSet,
    ) -> Result<Grant, ScheduleError> {
        let before = self.stats;
        let span = submit_span(req, &ladder);
        let (result, probed) = self.search(req, ladder, required);
        record_requests(&[probed], result.is_ok() as u64, &self.stats.since(&before));
        close_submit_span(span, &result, probed);
        result
    }

    /// The one driver: feed `ladder` one start at a time into
    /// [`Self::find`] over the servers carrying every tag in `required`,
    /// select and commit at the first start with room, and settle the
    /// ladder. Also returns the number of starts searched; publishes
    /// nothing.
    fn search(
        &mut self,
        req: &Request,
        mut ladder: Ladder,
        required: AttrSet,
    ) -> (Result<Grant, ScheduleError>, u64) {
        let n = req.servers as usize;
        let mut probed = 0u64;
        let mut winner = None;
        while let Some((k, start)) = ladder.next(&self.profile) {
            probed += 1;
            if self.find(start, start + req.duration, n, required) {
                winner = Some(k);
                break;
            }
        }
        let result = ladder.settle(winner, probed, &mut self.stats).map(|at| {
            self.cfg
                .policy
                .select_in_place(&mut self.feasible, n, at.end);
            let servers = self.feasible.iter().map(|p| p.server).collect();
            self.commit(at, servers)
        });
        (result, probed)
    }

    /// One scheduling attempt at `[start, end)` across every range: Phase 1
    /// on each range (candidate counts summed, each range keeping its marks
    /// in its own scratch), the early exit, Phase 2 on each range, their
    /// hits in `self.feasible` with global server ids, the tag filter and
    /// the repair against an open batch's grants. Returns whether `n` were
    /// found. The window must lie inside the live horizon. All working
    /// storage is reused, so a steady-state attempt performs no heap
    /// allocation.
    ///
    /// Under [`SelectionPolicy::PaperOrder`] with no tag required, Phase 2
    /// stops at `n`, as the paper's does: each range's open-ended walk
    /// stops after `n` periods plus the tie group at the last one's start
    /// ([`ServerIndex::phase2`]); the slot trees' hits, and every other
    /// policy's or a tagged search's whole feasible set, are collected
    /// whole. The selection is that of the whole set: paper order ranks by
    /// start first, and every open-ended period a range left out starts
    /// earlier than `n` periods that range collected. A range that stops
    /// holds `n` already, so the early exit below is the whole set's too.
    ///
    /// While a batch is open the ranges are the pre-batch ones, and the
    /// stop stays exact on the repaired set. A period counts towards a
    /// range's `n` only if no grant of the batch is logged on its server,
    /// so the `n` counted ones keep their keys, and an untouched period
    /// the walk left out still ranks below them. A period on a touched
    /// server that the walk left out falls into one of three cases:
    /// - a grant overlaps the window: it is not in the live set;
    /// - only its end moved: its start still ranks it below the `n`;
    /// - a grant on its left moved its start up, which can rank it
    ///   anywhere. These are exactly the periods [`Self::add_moved_up`]
    ///   looks up again.
    fn find(&mut self, start: Time, end: Time, n: usize, required: AttrSet) -> bool {
        let stats = &mut self.stats;
        // Phase 1: count candidates via subtree sizes along the stabbing
        // paths. The count ignores tags and may include benign aliases (see
        // DESIGN.md §12); neither survives Phase 2, so the early exit below
        // reaches the same decision as exact counting.
        let p1_visits = stats.primary_visits;
        let mut p1_span = obs_span_detail!("sched.phase1", "start_s" => start.secs(), "need" => n);
        let (mut trailing, mut marked) = (0, 0);
        for part in &mut self.parts {
            let (t, m) = part.phase1(start, stats);
            trailing += t;
            marked += m;
        }
        PHASE1_CANDIDATES.observe((trailing + marked) as u64);
        if p1_span.active() {
            p1_span.record("trailing", trailing);
            p1_span.record("marked", marked);
            p1_span.record("visits", stats.primary_visits - p1_visits);
        }
        drop(p1_span);
        if trailing + marked < n {
            return false;
        }
        // Phase 2: retrieve the feasible periods. Every policy then sorts
        // by a total key, so the selection is deterministic regardless of the
        // tree shape and of the partition into ranges.
        let p2_visits = stats.secondary_visits;
        let mut p2_span = obs_span_detail!("sched.phase2", "end_s" => end.secs(), "need" => n);
        let bounded = self.cfg.policy == SelectionPolicy::PaperOrder && required.is_empty();
        let need = if bounded { n } else { usize::MAX };
        let batch = &self.batch;
        let touched = batch.open.then_some(|s: ServerId| batch.touched(s));
        let (mut retrieved, mut cuts) = (0, [None; MAX_RANGES as usize]);
        for (part, cut) in self.parts.iter_mut().zip(&mut cuts) {
            let (found, stop) = part.phase2(start, end, need, touched, stats);
            retrieved += found;
            *cut = stop;
        }
        let depth = stats.secondary_visits - p2_visits;
        PHASE2_DEPTH.observe(depth);
        if p2_span.active() {
            p2_span.record("retrieved", retrieved);
            p2_span.record("visits", depth);
        }
        drop(p2_span);
        if retrieved < n {
            return false;
        }
        self.feasible.clear();
        for part in &self.parts {
            part.hits(&mut self.feasible);
        }
        if !required.is_empty() {
            let attrs = &self.attrs;
            self.feasible
                .retain(|p| attrs[p.server.0 as usize].satisfies(required));
        }
        if self.batch.open {
            // The ranges are the pre-batch ones: bring the hits up to date.
            self.batch.repair_set(&mut self.feasible, start, end);
            if bounded {
                self.add_moved_up(start, end, &cuts);
            }
        }
        self.feasible.len() >= n
    }

    /// Add to `self.feasible` every period that an open batch's grants
    /// moved up past the stop of [`Self::find`]'s Phase 2 at `[start,
    /// end)`, where range `i`'s walk stopped at `cuts[i]`: on each server
    /// with a grant ending at or before `start`, the pre-batch period
    /// covering the window, if the range's walk left it out and no grant
    /// took the window from it, repaired.
    fn add_moved_up(&mut self, start: Time, end: Time, cuts: &[Option<Time>]) {
        for server in self.batch.moved_up(start) {
            let range = self.range_of(server);
            let Some(cut) = cuts[range] else { continue };
            if let Some(mut p) = self.parts[range].left_out(server, start, end, cut) {
                if self.batch.repair(&mut p, start, end) {
                    self.feasible.push(p);
                }
            }
        }
    }

    /// Handle a batch of requests in submission order.
    ///
    /// A batch is nothing more than its members submitted sequentially
    /// against the current clock — member `i` observes the commits of
    /// members `0..i` and the replies come back in order. From 2^17
    /// members × servers on, with more than one range, the batch is pooled:
    /// every member is decided on the calling thread, and one stage applies
    /// the commits, the ranges in parallel. Replies are bit-identical either
    /// way (see DESIGN.md §9). Each member gets its `sched.submit` span; the
    /// request metrics are published once for the whole batch.
    ///
    /// ```
    /// use coalloc_core::prelude::*;
    ///
    /// let reqs: Vec<Request> = (0..6)
    ///     .map(|i| Request::on_demand(Time::ZERO, Dur::from_mins(30 + i * 10), 2))
    ///     .collect();
    /// let mut pooled = CoAllocScheduler::with_ranges(8, 4, SchedulerConfig::default());
    /// pooled.set_pool_min_batch(0);
    /// let mut sequential = CoAllocScheduler::new(8, SchedulerConfig::default());
    /// let a = pooled.submit_batch(&reqs);
    /// let b: Vec<_> = reqs.iter().map(|r| sequential.submit(r)).collect();
    /// assert_eq!(a, b);
    /// ```
    pub fn submit_batch(&mut self, reqs: &[Request]) -> Vec<Result<Grant, ScheduleError>> {
        let mut out = Vec::new();
        self.submit_batch_into(reqs, &mut out);
        out
    }

    /// [`Self::submit_batch`] writing into a caller-owned buffer (cleared
    /// first), so a steady-state stream of all-reject batches performs no
    /// heap allocation once the buffer's capacity has warmed up.
    pub fn submit_batch_into(
        &mut self,
        reqs: &[Request],
        out: &mut Vec<Result<Grant, ScheduleError>>,
    ) {
        out.clear();
        out.reserve(reqs.len());
        if self.parts.len() > 1 {
            BATCH_SIZE.observe(reqs.len() as u64);
        }
        self.pooled = self.parts.len() > 1 && reqs.len() >= self.pool_min_batch;
        let before = self.stats;
        // Decide in submission order, each member seeing every earlier
        // grant — committed at once inline, through the batch overlay when
        // pooled.
        if self.pooled {
            self.open_batch();
        }
        let mut probed = std::mem::take(&mut self.probed);
        probed.clear();
        let mut grants = 0;
        for req in reqs {
            let (reply, searched) = self.decide(req);
            probed.extend(searched);
            grants += u64::from(reply.is_ok());
            out.push(reply);
        }
        if self.pooled {
            // The commit stage: every grant lands before control returns.
            let commits = self.close_batch().into_iter();
            self.stage(
                commits.map(|c| (!c.is_empty()).then_some(c)),
                |part, commits, stats| commits.apply_to(part, stats),
            );
        }
        record_requests(&probed, grants, &self.stats.since(&before));
        self.probed = probed;
    }

    /// Override the batch size from which [`Self::submit_batch_into`] pools
    /// a batch (default: `131072 / num_servers` with more than one range on
    /// a multi-CPU host, never otherwise). `0` pools every batch of a
    /// scheduler with more than one range; `usize::MAX` none. Decisions are
    /// identical either way; only the execution strategy changes.
    #[doc(hidden)]
    pub fn set_pool_min_batch(&mut self, n: usize) {
        self.pool_min_batch = n;
    }

    /// One stage of a pooled batch: `work` on every range `jobs` gives a
    /// job, the ranges in parallel, inside one [`std::thread::scope`]. The
    /// first range with a job runs on the calling thread; every other one
    /// gets a scoped thread (`coalloc-shard-{i}`) that borrows the range
    /// and charges its own [`OpStats`], added up after the join. Ranges
    /// without a job are not touched, nothing outlives the stage, and a
    /// panic on any of its threads resumes on the caller.
    fn stage<J: Send>(
        &mut self,
        jobs: impl IntoIterator<Item = Option<J>>,
        work: impl Fn(&mut ServerIndex, J, &mut OpStats) + Sync,
    ) {
        let work = &work;
        let ranges = self.parts.iter_mut().zip(jobs).enumerate();
        let mut ranges = ranges.filter_map(|(i, (part, job))| Some((i, part, job?)));
        let own = ranges.next();
        std::thread::scope(|scope| {
            let others: Vec<_> = ranges
                .map(|(i, part, job)| {
                    std::thread::Builder::new()
                        .name(format!("coalloc-shard-{i}"))
                        .spawn_scoped(scope, move || {
                            let mut stats = OpStats::new();
                            work(part, job, &mut stats);
                            stats
                        })
                        .expect("spawn a stage thread")
                })
                .collect();
            if let Some((_, part, job)) = own {
                work(part, job, &mut self.stats);
            }
            for thread in others {
                let stats = thread
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                self.stats.accumulate(&stats);
            }
        });
    }

    /// Open a batch (module [`crate::batch`]): until [`Self::close_batch`],
    /// members are decided with [`Self::decide`] over the ranges as they
    /// stand now, and their commits are queued.
    pub(crate) fn open_batch(&mut self) {
        self.batch.open(self.num_servers(), self.parts.len());
    }

    /// Decide the next member of a batch, in submission order — over the
    /// open batch when one is open: [`Self::submit`]'s decision and span,
    /// without its metrics. Returns the reply and the number of starts
    /// searched (`None` if the request failed validation and never reached
    /// its ladder).
    pub(crate) fn decide(&mut self, req: &Request) -> (Result<Grant, ScheduleError>, Option<u64>) {
        match self.ladder(req, self.num_servers(), None) {
            Ok(ladder) => {
                let span = submit_span(req, &ladder);
                let (reply, probed) = self.search(req, ladder, AttrSet::NONE);
                close_submit_span(span, &reply, probed);
                (reply, Some(probed))
            }
            Err(e) => (Err(e), None),
        }
    }

    /// Close the open batch and hand over its commits: one queue per
    /// range, in submission order, which the caller must apply
    /// ([`CommitBuf::apply_to`]) before the scheduler serves again.
    pub(crate) fn close_batch(&mut self) -> Vec<CommitBuf> {
        self.batch.close()
    }

    /// Force every range's slot ring down its one-update-at-a-time path
    /// (see [`SlotRing::force_eager`]): the reference for differential
    /// tests of the batched write path.
    #[doc(hidden)]
    pub fn force_eager_ring_updates(&mut self) {
        for part in &mut self.parts {
            part.force_eager_ring_updates();
        }
    }

    /// The one commit epilogue: mint the job id, charge the capacity
    /// profile, and reserve `at`'s window on `servers` in the ranges owning
    /// them — or, while a batch is open, log the grant and queue it for
    /// those ranges.
    pub(crate) fn commit(&mut self, at: Placement, servers: Vec<ServerId>) -> Grant {
        let job = JobId(self.next_job);
        self.next_job += 1;
        self.profile.add(at.start, at.end, servers.len() as u32);
        if self.batch.open {
            for &server in &servers {
                let range = self.range_of(server);
                self.batch.queue(job, at.start, at.end, server, range);
            }
        } else {
            for part in &mut self.parts {
                part.commit(job, at.start, at.end, &servers, &mut self.stats);
            }
        }
        Grant {
            job,
            start: at.start,
            end: at.end,
            servers,
            attempts: at.attempts,
            waiting: at.waiting,
        }
    }

    /// Whether `server` exists and one of its idle periods covers all of
    /// `[start, end)`.
    pub(crate) fn is_idle(&self, server: ServerId, start: Time, end: Time) -> bool {
        server.0 < self.num_servers()
            && self.parts[self.range_of(server)].covers(server, start, end)
    }

    /// Handle a request that must **complete by `deadline`** — the paper's
    /// Section 5.2 extension: "the algorithm can be easily extended to
    /// support user's deadline by setting the starting time to the earliest
    /// time a given job needs to start to meet the deadline imposed by the
    /// user".
    ///
    /// The retry ladder is bounded so that no candidate start later than
    /// `deadline - l_r` is tried; if none works the request fails with
    /// [`ScheduleError::Exhausted`] (a deadline miss) rather than being
    /// scheduled late.
    ///
    /// ```
    /// use coalloc_core::prelude::*;
    ///
    /// let mut sched = CoAllocScheduler::new(1, SchedulerConfig::default());
    /// // The single server is busy for the first hour...
    /// sched.submit(&Request::on_demand(Time::ZERO, Dur::from_hours(1), 1)).unwrap();
    /// // ...so a job that must finish within that hour misses its deadline,
    /// let miss = sched.submit_with_deadline(
    ///     &Request::on_demand(Time::ZERO, Dur::from_mins(30), 1),
    ///     Time::from_hours(1),
    /// );
    /// assert!(miss.is_err());
    /// // while a laxer deadline lets the retry loop shift past the hour.
    /// let grant = sched.submit_with_deadline(
    ///     &Request::on_demand(Time::ZERO, Dur::from_mins(30), 1),
    ///     Time::from_hours(2),
    /// ).unwrap();
    /// assert!(grant.end <= Time::from_hours(2));
    /// ```
    pub fn submit_with_deadline(
        &mut self,
        req: &Request,
        deadline: Time,
    ) -> Result<Grant, ScheduleError> {
        let ladder = self.ladder(req, self.num_servers(), Some(deadline))?;
        self.climb(req, ladder, AttrSet::NONE)
    }

    /// Assign capability tags to a server (see [`crate::attrs`]).
    pub fn set_server_attrs(&mut self, server: ServerId, attrs: AttrSet) {
        self.attrs[server.0 as usize] = attrs;
    }

    /// The capability tags of a server.
    pub fn server_attrs(&self, server: ServerId) -> AttrSet {
        self.attrs[server.0 as usize]
    }

    /// Handle a request that may only use servers satisfying `required`
    /// (every tag in `required` present on the server).
    ///
    /// Semantics match [`Self::submit`] — the same ladder, the same search
    /// — restricted to the qualifying subset of servers: Phase-1 counts
    /// over-approximate (they ignore tags) and the retrieval step filters,
    /// the paper's post-processing. With `required == AttrSet::NONE` this
    /// is exactly `submit`.
    pub fn submit_constrained(
        &mut self,
        req: &Request,
        required: AttrSet,
    ) -> Result<Grant, ScheduleError> {
        let qualifying = self.attrs.iter().filter(|a| a.satisfies(required)).count() as u32;
        let ladder = self.ladder(req, qualifying, None)?;
        self.climb(req, ladder, required)
    }

    /// Cancel a committed job on every range holding part of it, returning
    /// its windows to the idle pool (used by users cancelling reservations
    /// and by the multi-site abort path). Reservations that already ran to
    /// completion are retired (their busy seconds stay in the utilization
    /// accounting); jobs whose history was pruned by [`Self::advance_to`]
    /// were forgotten at prune time and report [`ScheduleError::UnknownJob`]
    /// — identically on the original and on any snapshot-restored twin.
    ///
    /// ```
    /// use coalloc_core::prelude::*;
    ///
    /// let mut sched = CoAllocScheduler::new(2, SchedulerConfig::default());
    /// let grant = sched
    ///     .submit(&Request::on_demand(Time::ZERO, Dur::from_hours(1), 2))
    ///     .unwrap();
    /// sched.release(grant.job).unwrap();
    /// // Releasing twice is an error, not a silent no-op.
    /// assert!(matches!(
    ///     sched.release(grant.job),
    ///     Err(ScheduleError::UnknownJob(_))
    /// ));
    /// ```
    pub fn release(&mut self, job: JobId) -> Result<(), ScheduleError> {
        let mut known = false;
        for part in &mut self.parts {
            let Some(released) = part.release(job, &mut self.stats) else {
                continue;
            };
            known = true;
            // Withdraw from the capacity profile unconditionally: expired
            // portions clamp away (their leaves were zeroed by rotation), so
            // this is exact for retired and pruned history too.
            for r in &released {
                self.profile.remove(r.start, r.end, 1);
            }
        }
        known.then_some(()).ok_or(ScheduleError::UnknownJob(job))
    }

    /// Cross-checks every range's slot-tree mirror against its timeline,
    /// and the capacity profile against every range's reservations (test
    /// helper; expensive).
    #[doc(hidden)]
    pub fn check_consistency(&self) {
        assert!(!self.batch.open, "a batch is open");
        for part in &self.parts {
            part.check();
        }
        // The capacity profile's live slots recount exactly from the job
        // maps: completed-but-unreleased and pruned history covers no live
        // slot, so it cancels on both sides.
        self.profile
            .check_against(self.parts.iter().flat_map(ServerIndex::reservation_windows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SchedulerConfig {
        SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(100))
            .delta_t(Dur(10))
            .build()
    }

    /// A pooled and an inline scheduler over `n` servers in `k` ranges.
    fn pooled_and_inline(n: u32, k: u32) -> (CoAllocScheduler, CoAllocScheduler) {
        let mut pooled = CoAllocScheduler::with_ranges(n, k, small_cfg());
        pooled.set_pool_min_batch(0);
        let mut inline = CoAllocScheduler::with_ranges(n, k, small_cfg());
        inline.set_pool_min_batch(usize::MAX);
        (pooled, inline)
    }

    /// Submit `batch` to both: the replies must agree, and every range of
    /// `pooled` that no grant landed on must keep its timeline. Returns the
    /// replies and how many ranges got no commit.
    fn pooled_batch(
        pooled: &mut CoAllocScheduler,
        inline: &mut CoAllocScheduler,
        batch: &[Request],
    ) -> (Vec<Result<Grant, ScheduleError>>, usize) {
        let state = |s: &CoAllocScheduler, i: usize| format!("{:?}", s.parts[i].timeline());
        let before: Vec<_> = (0..pooled.num_ranges()).map(|i| state(pooled, i)).collect();
        let replies = pooled.submit_batch(batch);
        assert_eq!(replies, inline.submit_batch(batch));
        assert!(pooled.pooled && !inline.pooled);
        let granted: Vec<_> = replies.iter().flatten().flat_map(|g| &g.servers).collect();
        let untouched: Vec<_> = (0..pooled.num_ranges())
            .filter(|&i| granted.iter().all(|&&srv| pooled.range_of(srv) != i))
            .collect();
        for &i in &untouched {
            assert_eq!(state(pooled, i), before[i], "range {i} got no commit");
        }
        (replies, untouched.len())
    }

    #[test]
    fn empty_system_grants_immediately() {
        for k in [1, 2, 4] {
            let mut s = CoAllocScheduler::with_ranges(4, k, small_cfg());
            let grant = s
                .submit(&Request::on_demand(Time::ZERO, Dur(30), 3))
                .unwrap();
            assert_eq!(grant.start, Time::ZERO, "k={k}");
            assert_eq!(grant.end, Time(30));
            assert_eq!(grant.servers.len(), 3);
            assert_eq!(grant.attempts, 1);
            assert_eq!(grant.waiting, Dur::ZERO);
            s.check_consistency();
        }
    }

    #[test]
    fn distinct_servers_are_allocated() {
        let mut s = CoAllocScheduler::new(4, small_cfg());
        let grant = s
            .submit(&Request::on_demand(Time::ZERO, Dur(30), 4))
            .unwrap();
        let mut servers = grant.servers.clone();
        servers.sort();
        servers.dedup();
        assert_eq!(servers.len(), 4, "servers must be distinct");
    }

    #[test]
    fn saturated_system_delays_via_delta_t() {
        for k in [1, 2] {
            let mut s = CoAllocScheduler::with_ranges(2, k, small_cfg());
            // Fill both servers for [0, 30).
            s.submit(&Request::on_demand(Time::ZERO, Dur(30), 2))
                .unwrap();
            // Next job must wait until t = 30 (three Delta_t shifts).
            let grant = s
                .submit(&Request::on_demand(Time::ZERO, Dur(20), 1))
                .unwrap();
            assert_eq!(grant.start, Time(30), "k={k}");
            assert_eq!(grant.attempts, 4);
            assert_eq!(grant.waiting, Dur(30));
            s.check_consistency();
        }
    }

    #[test]
    fn too_many_servers_rejected_up_front() {
        let mut s = CoAllocScheduler::new(2, small_cfg());
        let err = s
            .submit(&Request::on_demand(Time::ZERO, Dur(10), 3))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::TooManyServers { .. }));
    }

    #[test]
    fn horizon_bounds_the_search() {
        let mut s = CoAllocScheduler::new(1, small_cfg());
        // Duration exceeding the horizon can never fit.
        let err = s
            .submit(&Request::on_demand(Time::ZERO, Dur(200), 1))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::HorizonExceeded { .. }));
    }

    #[test]
    fn r_max_exhaustion() {
        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(100))
            .delta_t(Dur(10))
            .r_max(2)
            .build();
        let mut s = CoAllocScheduler::new(1, cfg);
        s.submit(&Request::on_demand(Time::ZERO, Dur(90), 1))
            .unwrap();
        let err = s
            .submit(&Request::on_demand(Time::ZERO, Dur(10), 1))
            .unwrap_err();
        // Attempts at t = 0, 10, 20 all collide with the running job and
        // R_max = 2 retries are then exhausted.
        assert_eq!(
            err,
            ScheduleError::Exhausted {
                attempts: 3,
                last_tried: Time(20)
            }
        );
    }

    #[test]
    fn advance_reservation_books_the_future() {
        let mut s = CoAllocScheduler::new(2, small_cfg());
        let grant = s
            .submit(&Request::advance(Time::ZERO, Time(20), Dur(20), 2))
            .unwrap();
        assert_eq!(grant.start, Time(20));
        assert_eq!(grant.waiting, Dur::ZERO);
        // An on-demand job needing both servers for 30s cannot fit before it.
        let g2 = s
            .submit(&Request::on_demand(Time::ZERO, Dur(30), 2))
            .unwrap();
        assert_eq!(g2.start, Time(40));
        assert_eq!(g2.attempts, 5);
        s.check_consistency();
    }

    #[test]
    fn release_restores_capacity() {
        for (n, k) in [(1, 1), (4, 2)] {
            let mut s = CoAllocScheduler::with_ranges(n, k, small_cfg());
            let g = s
                .submit(&Request::on_demand(Time::ZERO, Dur(100), n))
                .unwrap();
            let err = s
                .submit(&Request::advance(Time::ZERO, Time(10), Dur(20), 1))
                .unwrap_err();
            assert!(matches!(
                err,
                ScheduleError::Exhausted { .. } | ScheduleError::HorizonExceeded { .. }
            ));
            s.release(g.job).unwrap();
            let g2 = s
                .submit(&Request::advance(Time::ZERO, Time(10), Dur(20), n))
                .unwrap();
            assert_eq!(g2.start, Time(10), "k={k}");
            assert_eq!(
                s.release(JobId(999)),
                Err(ScheduleError::UnknownJob(JobId(999)))
            );
            s.check_consistency();
        }
    }

    #[test]
    fn clock_advance_enables_new_horizon() {
        let mut s = CoAllocScheduler::new(1, small_cfg());
        assert_eq!(s.horizon_end(), Time(100));
        s.advance_to(Time(40));
        assert_eq!(s.horizon_end(), Time(140));
        // A job ending at 130 now fits.
        let g = s
            .submit(&Request::advance(Time(40), Time(60), Dur(70), 1))
            .unwrap();
        assert_eq!(g.start, Time(60));
        s.check_consistency();
    }

    #[test]
    fn on_demand_after_clock_advance_starts_now() {
        let mut s = CoAllocScheduler::new(1, small_cfg());
        s.advance_to(Time(25));
        // Request stamped earlier than the clock is clamped to "now".
        let g = s.submit(&Request::on_demand(Time(20), Dur(10), 1)).unwrap();
        assert_eq!(g.start, Time(25));
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let mut s = CoAllocScheduler::new(2, small_cfg());
        assert!(matches!(
            s.submit(&Request::on_demand(Time::ZERO, Dur(10), 0)),
            Err(ScheduleError::InvalidRequest(_))
        ));
        assert!(matches!(
            s.submit(&Request::on_demand(Time::ZERO, Dur(0), 1)),
            Err(ScheduleError::InvalidRequest(_))
        ));
    }

    #[test]
    fn deadline_support_meets_or_fails() {
        let mut s = CoAllocScheduler::new(1, small_cfg());
        // Busy [0, 30).
        s.submit(&Request::on_demand(Time::ZERO, Dur(30), 1))
            .unwrap();
        // A 20s job must finish by t=60: only start 30 or 40 works.
        let g = s
            .submit_with_deadline(&Request::on_demand(Time::ZERO, Dur(20), 1), Time(60))
            .unwrap();
        assert_eq!(g.start, Time(30));
        assert!(g.end <= Time(60));
        // A 20s job due by t=45 can now only start at 30..=25 — impossible
        // (t=30..50 is taken by the job above); deadline miss.
        let err = s
            .submit_with_deadline(&Request::on_demand(Time::ZERO, Dur(20), 1), Time(45))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Exhausted { .. }));
        // Impossible deadline (already too late at submission).
        let err = s
            .submit_with_deadline(&Request::on_demand(Time::ZERO, Dur(50), 1), Time(40))
            .unwrap_err();
        assert_eq!(
            err,
            ScheduleError::Exhausted {
                attempts: 0,
                last_tried: Time::ZERO
            }
        );
        s.check_consistency();
    }

    #[test]
    fn deadline_never_schedules_late() {
        let mut s = CoAllocScheduler::new(2, small_cfg());
        s.submit(&Request::on_demand(Time::ZERO, Dur(40), 2))
            .unwrap();
        for deadline in [50i64, 60, 70, 80] {
            if let Ok(g) =
                s.submit_with_deadline(&Request::on_demand(Time::ZERO, Dur(10), 1), Time(deadline))
            {
                assert!(g.end <= Time(deadline), "grant {g:?} misses {deadline}");
            }
        }
        s.check_consistency();
    }

    #[test]
    fn range_of_is_the_inverse_of_the_layout() {
        for (n, k) in [(7u32, 3u32), (8, 4), (64, 8), (5, 5), (9, 2), (3, 9)] {
            let s = CoAllocScheduler::with_ranges(n, k, small_cfg());
            assert_eq!(s.num_ranges() as u32, k.min(n));
            for (i, part) in s.parts.iter().enumerate() {
                for srv in (0..n).map(ServerId).filter(|&srv| part.owns(srv)) {
                    assert_eq!(s.range_of(srv), i, "n={n} k={k} srv={srv:?}");
                }
            }
            let owned: u32 = s.parts.iter().map(ServerIndex::num_servers).sum();
            assert_eq!(owned, n, "n={n} k={k}");
        }
    }

    /// The one driver walks the same ladder at every `K`: after one stream
    /// of grants, retries, profile jumps, rejects and releases, the attempt
    /// accounting is the same whatever the number of ranges.
    #[test]
    fn attempt_accounting_is_the_same_at_every_k() {
        let accounting = |k: u32| {
            let mut s = CoAllocScheduler::with_ranges(6, k, small_cfg());
            let mut jobs = Vec::new();
            for i in 0..60i64 {
                s.advance_to(Time(i * 3));
                let (now, n) = (Time(i * 3), 1 + (i % 6) as u32);
                let req = Request::advance(now, now + Dur((i % 4) * 10), Dur(10 + (i % 5) * 10), n);
                let result = if i % 7 == 3 {
                    s.submit_constrained(&req, AttrSet(1))
                } else {
                    s.submit(&req)
                };
                if let Ok(g) = result {
                    jobs.push(g.job);
                }
                if i % 3 == 2 {
                    s.set_server_attrs(ServerId((i % 6) as u32), AttrSet(1));
                    if let Some(job) = jobs.pop() {
                        let _ = s.release(job);
                    }
                }
            }
            s.check_consistency();
            let o = s.stats;
            (
                o.attempts,
                o.attempts_skipped,
                o.attempts_jumped,
                o.phase1_searches / k as u64,
            )
        };
        let one = accounting(1);
        assert!(
            one.0 > 60 && one.2 > 0,
            "the stream must retry and jump: {one:?}"
        );
        for k in [2, 4] {
            assert_eq!(accounting(k), one, "k={k}");
        }
    }

    /// Jobs that are never released leave every range's job map when their
    /// history is pruned (`check_consistency` asserts no resident job has
    /// lost all its reservations to the prune).
    #[test]
    fn unreleased_jobs_are_forgotten_at_the_prune() {
        for k in [1, 3] {
            let mut s = CoAllocScheduler::with_ranges(6, k, small_cfg());
            for boundary in 1..=2 {
                for i in 0..4 {
                    s.submit(&Request::on_demand(s.now(), Dur(20 + 10 * i), 1 + i as u32))
                        .unwrap();
                }
                s.advance_to(Time(boundary * (PRUNE_EVERY_SLOTS * 10 + 10)));
                s.check_consistency();
            }
            for job in (0..8).map(JobId) {
                assert_eq!(s.release(job), Err(ScheduleError::UnknownJob(job)), "k={k}");
            }
        }
    }

    /// Pooled and inline `advance_to` must leave the ranges in the same
    /// state. One-member batches keep even the visit counters equal (the
    /// pre-batch ranges *are* the live ones), so the whole `stats()` can be
    /// compared. Advance reservations leave finite idle gaps in front of
    /// them; the clock then crosses slots in strides that evict those gaps,
    /// and runs long enough to reach the history prune.
    #[test]
    fn pooled_and_inline_advance_leave_identical_state() {
        for k in [2, 3, 4] {
            let (mut pooled, mut inline) = pooled_and_inline(6, k);
            let (mut now, mut untouched) = (10i64, 0);
            for round in 0..60i64 {
                let req = Request::advance(
                    Time(now),
                    Time(now + 15 + (round % 4) * 10),
                    Dur(10 + (round % 3) * 15),
                    1 + (round % 5) as u32,
                );
                untouched += pooled_batch(&mut pooled, &mut inline, &[req]).1;
                now += 7 + (round % 3) * 11;
                pooled.advance_to(Time(now));
                inline.advance_to(Time(now));
                assert_eq!(pooled.stats, inline.stats, "k={k} round {round}");
                pooled.check_consistency();
                inline.check_consistency();
            }
            assert!(untouched > 0, "k={k}: some range must get no commit");
            assert!(
                now > PRUNE_EVERY_SLOTS * 10,
                "the run must reach a history prune"
            );
            assert!(pooled.stats.periods_removed > 0);
        }
    }

    /// The pool path must agree with the inline path decision-for-decision,
    /// including members that earlier grants leave too few servers for at
    /// their first start; a one-server member then commits on one range
    /// and leaves every other one as it was.
    #[test]
    fn pool_path_matches_inline_path_under_contention() {
        let contended: Vec<Request> = (0..8)
            .map(|i| Request::on_demand(Time::ZERO, Dur(10 + (i % 3) * 10), 2 + (i as u32) % 3))
            .collect();
        let single = [Request::on_demand(Time::ZERO, Dur(10), 1)];
        for k in [2, 3, 4] {
            let (mut pooled, mut inline) = pooled_and_inline(4, k);
            let (a, b) = (pooled.stats, inline.stats);
            let (replies, _) = pooled_batch(&mut pooled, &mut inline, &contended);
            assert!(replies
                .iter()
                .any(|r| r.as_ref().is_ok_and(|g| g.attempts > 1)));
            let (a, b) = (pooled.stats.since(&a), inline.stats.since(&b));
            assert_eq!(a.attempts, b.attempts, "k={k}");
            assert_eq!(a.attempts_skipped, b.attempts_skipped, "k={k}");
            let (a, b) = (pooled.stats, inline.stats);
            let (_, untouched) = pooled_batch(&mut pooled, &mut inline, &single);
            assert_eq!(untouched, k as usize - 1, "k={k}");
            assert_eq!(pooled.stats.since(&a), inline.stats.since(&b), "k={k}");
            pooled.check_consistency();
            inline.check_consistency();
        }
    }

    #[test]
    fn paper_example_reconstructed_end_to_end() {
        // Reconstruct Figure 1/2: a 4-server system with reservations that
        // leave idle periods X=(4,25) on srv0, Y=(16,33) on srv1, Z=(7,33)
        // on srv2, V=(1,18) on srv3 (within a tau=10 slotting), then submit
        // r = (q_r=17, s_r=17, l_r=12, n_r=2) and observe it is granted at
        // t=17 on the two servers whose idle periods are Y and Z.
        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(50))
            .delta_t(Dur(10))
            .seed(7)
            .build();
        let mut s = CoAllocScheduler::new(4, cfg);
        // Job A on srv-like periods: carve busy windows so that the idle
        // structure matches the figure. Each reserve targets one server via
        // ByServerId-like manual commits: use advance reservations with 1
        // server each and check which server got them.
        // Simpler: reserve via the timeline-level API is private, so shape
        // the system with 1-server requests and verify feasibility behaviour
        // rather than exact server identity.
        // Busy prefixes: srv gets [0, st) busy, and [et, horizon) busy via
        // one more reservation where et is finite.
        // We exercise the public API only: allocate 4 one-server jobs with
        // distinct windows. The scheduler picks servers deterministically;
        // we then query feasibility for the paper's request.
        let windows = [(0, 4, 25), (0, 16, 33), (0, 7, 33), (0, 1, 18)];
        for &(_, st, _) in &windows {
            if st > 0 {
                s.submit(&Request::advance(Time::ZERO, Time::ZERO, Dur(st), 1))
                    .unwrap();
            }
        }
        // Now each server is busy [0, st) for st in {4, 16, 7, 1}; trailing
        // idle periods start at exactly {4, 16, 7, 1}.
        let g = s
            .submit(&Request::advance(Time::ZERO, Time(17), Dur(12), 2))
            .unwrap();
        assert_eq!(g.start, Time(17), "paper example grants at s_r");
        assert_eq!(g.servers.len(), 2);
        s.check_consistency();
    }
}
