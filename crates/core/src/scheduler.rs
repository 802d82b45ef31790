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

use crate::attrs::AttrSet;
use crate::error::ScheduleError;
use crate::idhash::IdMap;
use crate::idle::IdlePeriod;
use crate::ids::{JobId, ServerId};
use crate::policy::SelectionPolicy;
use crate::profile::FreeProfile;
use crate::request::Request;
use crate::ring::{route_delta, SlotRing};
use crate::scratch::Scratch;
use crate::stats::OpStats;
use crate::time::{Dur, SlotConfig, Time};
use crate::timeline::{PeriodDelta, Reservation, Timeline};
use crate::trailing::TrailingSet;
use obs::{obs_span, obs_span_detail, LazyCounter, LazyHistogram};

/// Slot advances between history prunes (amortizes the O(N) prune scan).
/// Public because prune timing is observable through
/// [`CoAllocScheduler::release`] (pruned jobs report `UnknownJob`): the
/// naive oracle and the sharded front-end must forget jobs on exactly the
/// same cadence to stay decision-identical.
pub const PRUNE_EVERY_SLOTS: i64 = 32;

// Scheduler metrics. Counters and histograms are process-global (the
// scheduler itself is Clone, so they aggregate over every instance);
// per-instance numbers remain available via [`CoAllocScheduler::stats`].
// Tree-op counters are bulk-added once per request from the OpStats delta,
// never per node visit, keeping the hot-path cost to a handful of relaxed
// atomic adds per request.
static REQUESTS: LazyCounter = LazyCounter::new("sched_requests_total");
static GRANTS: LazyCounter = LazyCounter::new("sched_grants_total");
static REJECTS: LazyCounter = LazyCounter::new("sched_rejects_total");
static ATTEMPTS_HIST: LazyHistogram = LazyHistogram::new("sched_attempts");
static RETRIES_SKIPPED: LazyCounter = LazyCounter::new("sched_retries_skipped_total");
static ATTEMPTS_JUMPED: LazyCounter = LazyCounter::new("sched_attempts_jumped_total");
static PHASE1_TOTAL: LazyCounter = LazyCounter::new("sched_phase1_total");
static PHASE2_TOTAL: LazyCounter = LazyCounter::new("sched_phase2_total");
static PHASE1_CANDIDATES: LazyHistogram = LazyHistogram::new("sched_phase1_candidates");
static PHASE2_DEPTH: LazyHistogram = LazyHistogram::new("sched_phase2_depth");
static PRIMARY_VISITS: LazyCounter = LazyCounter::new("tree_primary_visits_total");
static SECONDARY_VISITS: LazyCounter = LazyCounter::new("tree_secondary_visits_total");
static UPDATE_VISITS: LazyCounter = LazyCounter::new("tree_update_visits_total");
static REBUILDS: LazyCounter = LazyCounter::new("tree_rebuilds_total");

/// Fold the per-request [`OpStats`] delta into the global metric counters
/// (one atomic add per non-zero counter).
fn record_op_delta(delta: &OpStats) {
    if delta.primary_visits > 0 {
        PRIMARY_VISITS.add(delta.primary_visits);
    }
    if delta.secondary_visits > 0 {
        SECONDARY_VISITS.add(delta.secondary_visits);
    }
    if delta.update_visits > 0 {
        UPDATE_VISITS.add(delta.update_visits);
    }
    if delta.rebuilds > 0 {
        REBUILDS.add(delta.rebuilds);
    }
    PHASE1_TOTAL.add(delta.phase1_searches);
    PHASE2_TOTAL.add(delta.phase2_searches);
}

/// Charge `n` profile-jumped attempts to the global
/// `sched_attempts_jumped_total` counter. Exposed for front-ends (the
/// sharded coordinator) that run their own jump accounting but share the
/// process-global metrics.
pub fn record_attempts_jumped(n: u64) {
    if n > 0 {
        ATTEMPTS_JUMPED.add(n);
    }
}

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
    /// Jump the retry loop past attempts the free-capacity profile proves
    /// infeasible (see [`crate::profile`] and DESIGN.md §14). Decisions —
    /// grants, `attempts` counts, error replies — are identical either
    /// way; only the `attempts` / `attempts_skipped` accounting split and
    /// the `sched_attempts` histogram observe which starts were actually
    /// probed. Disable to force the linear `Delta_t` walk (the bench
    /// baseline and the lockstep-equivalence test oracle).
    pub jump_retries: bool,
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
            jump_retries: true,
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
    /// Enable or disable profile-driven retry jumping (see
    /// [`SchedulerConfig::jump_retries`]).
    pub fn jump_retries(mut self, jump: bool) -> Self {
        self.0.jump_retries = jump;
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
    slot_cfg: SlotConfig,
    now: Time,
    origin: Time,
    timeline: Timeline,
    ring: SlotRing,
    trailing: TrailingSet,
    attrs: Vec<AttrSet>,
    jobs: IdMap<JobId, Vec<Reservation>>,
    next_job: u64,
    /// Aggregate busy-count index driving the retry-jump fast reject;
    /// maintained from the same commit/release flow as the ring.
    profile: FreeProfile,
    stats: OpStats,
    /// Reusable buffers for the per-request hot path.
    scratch: Scratch,
    /// Window start at the last history prune.
    last_prune: Time,
}

impl CoAllocScheduler {
    /// Create a scheduler for `num_servers` servers, with the clock at the
    /// epoch.
    pub fn new(num_servers: u32, cfg: SchedulerConfig) -> CoAllocScheduler {
        CoAllocScheduler::starting_at(num_servers, Time::ZERO, cfg)
    }

    /// Create a scheduler with the clock at `origin`.
    pub fn starting_at(num_servers: u32, origin: Time, cfg: SchedulerConfig) -> CoAllocScheduler {
        assert!(num_servers > 0, "a system needs at least one server");
        let slot_cfg = cfg.slot_config();
        let timeline = Timeline::new(num_servers, origin);
        let mut stats = OpStats::new();
        let ring = SlotRing::new(slot_cfg, origin, cfg.seed);
        let mut trailing = TrailingSet::new(cfg.seed);
        for srv in 0..num_servers {
            let p = timeline.trailing_period(ServerId(srv));
            trailing.insert(&p, &mut stats);
        }
        CoAllocScheduler {
            cfg,
            slot_cfg,
            now: origin,
            origin,
            timeline,
            ring,
            trailing,
            attrs: vec![AttrSet::NONE; num_servers as usize],
            jobs: IdMap::default(),
            next_job: 0,
            profile: FreeProfile::new(slot_cfg, num_servers, origin),
            stats,
            scratch: Scratch::new(),
            last_prune: origin,
        }
    }

    /// The scheduler's current clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of servers `N`.
    pub fn num_servers(&self) -> u32 {
        self.timeline.num_servers()
    }

    /// The configuration in force.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// End of the current scheduling horizon.
    pub fn horizon_end(&self) -> Time {
        self.ring.horizon_end()
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Read-only access to the authoritative timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Read-only access to the slot ring (for diagnostics and tests).
    pub fn ring(&self) -> &SlotRing {
        &self.ring
    }

    /// Read-only access to the free-capacity profile (for diagnostics,
    /// tests, and the fast rejects in [`crate::range_search`]).
    pub fn capacity_profile(&self) -> &FreeProfile {
        &self.profile
    }

    /// Committed reservations of a job, if it exists.
    pub fn job(&self, job: JobId) -> Option<&[Reservation]> {
        self.jobs.get(&job).map(|v| v.as_slice())
    }

    /// System utilization over `[origin, until)`.
    pub fn utilization(&self, until: Time) -> f64 {
        self.timeline.utilization(self.origin, until)
    }

    /// Advance the clock: discard expired slot trees, seed new edge trees,
    /// and prune dead history. Time never moves backwards.
    pub fn advance_to(&mut self, now: Time) {
        if now <= self.now {
            return;
        }
        self.now = now;
        self.ring
            .advance_to_with(now, &mut self.scratch, &mut self.stats);
        self.profile.advance_to(now);
        // History pruning scans every server, so amortize it over many slot
        // advances; the ring's own discard/create stays O(1) per slot as
        // the paper claims. Correctness does not depend on prune timing —
        // stale history is merely unreferenced memory.
        let window_start = self.ring.window_start();
        if (window_start - self.last_prune).secs()
            >= PRUNE_EVERY_SLOTS * self.slot_cfg.tau.secs()
        {
            self.timeline.prune_before(window_start);
            // Jobs whose reservations all fell to the prune are forgotten
            // too: after this, `release` answers `UnknownJob` for them on
            // the original and on any snapshot-restored twin alike —
            // snapshots carry exactly the timeline's (unpruned) busy set,
            // so the jobs map must not outlive it.
            self.jobs.retain(|_, rs| rs.iter().any(|r| r.end > window_start));
            self.last_prune = window_start;
        }
    }

    /// History boundary of the last amortized prune (snapshot state: prune
    /// timing is observable through [`Self::release`], so a restored
    /// scheduler must resume the same prune cadence).
    pub(crate) fn last_prune(&self) -> Time {
        self.last_prune
    }

    pub(crate) fn set_last_prune(&mut self, t: Time) {
        self.last_prune = t;
    }

    /// Replace the timeline and rebuild both search indexes from explicit,
    /// caller-validated parts (the id-faithful restore path): period ids
    /// and the id counter are installed verbatim, so Phase-2 retrieval
    /// order under a result limit — and therefore every future decision —
    /// is bit-identical to the scheduler that wrote the snapshot.
    pub(crate) fn install_state(
        &mut self,
        idle: Vec<IdlePeriod>,
        busy: Vec<Reservation>,
        next_period: u64,
    ) {
        self.timeline = Timeline::from_parts(self.num_servers(), &idle, &busy, next_period);
        self.ring = SlotRing::new(self.slot_cfg, self.origin, self.cfg.seed);
        self.ring.advance_to(self.now, &mut self.stats);
        self.trailing = TrailingSet::new(self.cfg.seed);
        // One batch over the whole idle set: every canonical tree is built
        // from its periods in snapshot order, as a one-by-one insert would.
        let all = PeriodDelta {
            removed: Vec::new(),
            added: idle,
        };
        route_delta(&all, &mut self.trailing, &mut self.scratch, &mut self.stats);
        self.ring.apply_queued(&mut self.scratch, &mut self.stats);
        self.jobs.clear();
        self.profile.reset(self.now);
        for r in busy {
            self.profile.add(r.start, r.end, 1);
            self.jobs.entry(r.job).or_default().push(r);
        }
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
        req.validate()?;
        if req.servers > self.num_servers() {
            return Err(ScheduleError::TooManyServers {
                requested: req.servers,
                available: self.num_servers(),
            });
        }
        // Jobs cannot start in the past; on-demand requests start "now".
        let earliest = req.earliest_start.max(self.now);
        let r_max = self.cfg.effective_r_max();
        REQUESTS.inc();
        let before = self.stats;
        let mut span = obs_span!(
            "sched.submit",
            "servers" => req.servers,
            "duration_s" => req.duration.secs().max(0) as u64,
            "earliest_s" => earliest.secs()
        );
        let (result, probed) = self.search_loop(req, earliest, r_max as u64 + 1);
        ATTEMPTS_HIST.observe(probed as u64);
        record_op_delta(&self.stats.since(&before));
        match &result {
            Ok(grant) => {
                GRANTS.inc();
                if span.active() {
                    span.record("outcome", "granted");
                    span.record("attempts", grant.attempts);
                    span.record("start_s", grant.start.secs());
                }
            }
            Err(e) => {
                REJECTS.inc();
                if span.active() {
                    span.record("outcome", "rejected");
                    span.record("attempts", probed);
                    span.record("error", format!("{e:?}"));
                }
            }
        }
        result
    }

    /// The `Delta_t` / `R_max` retry loop shared by [`Self::submit`] and
    /// [`Self::submit_with_deadline`], with two layered short-circuits:
    ///
    /// * the horizon cap (PR 3): starts whose shifted end falls past the
    ///   horizon can never succeed, so at most `tries` of the `budget`
    ///   attempts are considered at all;
    /// * profile jumping (when [`SchedulerConfig::jump_retries`] is on):
    ///   within those `tries`, attempt indexes whose window the capacity
    ///   profile proves infeasible are skipped without a tree search.
    ///
    /// Both kinds of skipped attempt flow into `attempts_skipped` /
    /// `sched_retries_skipped_total`; profile jumps are additionally broken
    /// out in `attempts_jumped` / `sched_attempts_jumped_total`. Decision
    /// outputs — the grant (including its `attempts` field, which reports
    /// the 1-based index of the successful start), the error variant, and
    /// both `Exhausted` fields — are computed from attempt *indexes*, so
    /// they are identical whether or not jumping is enabled.
    ///
    /// Returns the result plus the number of starts actually probed (what
    /// the `sched_attempts` histogram observes).
    fn search_loop(
        &mut self,
        req: &Request,
        earliest: Time,
        budget: u64,
    ) -> (Result<Grant, ScheduleError>, u32) {
        let horizon_end = self.ring.horizon_end();
        let horizon_attempts = if earliest + req.duration > horizon_end {
            0
        } else {
            ((horizon_end - req.duration - earliest).secs() / self.cfg.delta_t.secs()) as u64 + 1
        };
        let tries = budget.min(horizon_attempts);
        let jump = self.cfg.jump_retries;
        let mut probed = 0u64; // starts actually searched
        let mut jumped = 0u64; // starts the profile disproved
        let mut k = 0u64; // next attempt index to consider
        let result = loop {
            let next = if k >= tries {
                None
            } else if jump {
                self.profile.next_allowed(
                    earliest,
                    self.cfg.delta_t,
                    req.duration,
                    req.servers,
                    k,
                    tries,
                )
            } else {
                Some(k)
            };
            let Some(kk) = next else {
                jumped += tries - k;
                let skipped = (budget - tries) + jumped;
                if skipped > 0 {
                    self.stats.attempts_skipped += skipped;
                    RETRIES_SKIPPED.add(skipped);
                }
                if jumped > 0 {
                    self.stats.attempts_jumped += jumped;
                    ATTEMPTS_JUMPED.add(jumped);
                }
                break if horizon_attempts < budget {
                    Err(ScheduleError::HorizonExceeded { horizon_end })
                } else {
                    Err(ScheduleError::Exhausted {
                        attempts: tries as u32,
                        last_tried: earliest + self.cfg.delta_t * (tries as i64 - 1),
                    })
                };
            };
            jumped += kk - k;
            k = kk;
            let start = earliest + self.cfg.delta_t * (k as i64);
            let end = start + req.duration;
            probed += 1;
            self.stats.attempts += 1;
            if self.try_once(start, end, req.servers) {
                let chosen = std::mem::take(&mut self.scratch.feasible);
                let grant = self.commit(&chosen, start, end, (k + 1) as u32, earliest);
                self.scratch.feasible = chosen;
                if jumped > 0 {
                    self.stats.attempts_skipped += jumped;
                    RETRIES_SKIPPED.add(jumped);
                    self.stats.attempts_jumped += jumped;
                    ATTEMPTS_JUMPED.add(jumped);
                }
                break Ok(grant);
            }
            k += 1;
        };
        (result, probed as u32)
    }

    /// Handle a batch of requests in submission order.
    ///
    /// This is the *reference semantics* for every batch API in the
    /// workspace: a batch is nothing more than its members submitted
    /// sequentially against the current clock — member `i` observes the
    /// commits of members `0..i` and the replies come back in order. The
    /// sharded scheduler's `submit_batch` amortizes coordination over the
    /// batch but is bit-identical to this loop (see DESIGN.md §9).
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
        for req in reqs {
            out.push(self.submit(req));
        }
    }

    /// One scheduling attempt at a fixed start time: Phase 1 + Phase 2 +
    /// policy selection. On success returns `true` with the chosen periods
    /// (exactly `n` of them) left in `self.scratch.feasible`.
    ///
    /// Candidates come from two places: the canonical slot trees on the
    /// stabbing path of the slot containing `start` (finite periods) and
    /// the global trailing index (open-ended periods, which are candidates
    /// iff `st <= start` and then feasible for any end). All working
    /// storage lives in [`Scratch`], so a steady-state attempt performs no
    /// heap allocation.
    fn try_once(&mut self, start: Time, end: Time, n: u32) -> bool {
        let n = n as usize;
        let q = self.slot_cfg.slot_of(start);
        // Phase 1: count candidates via subtree sizes along the stabbing
        // path. The count may include benign aliases (see DESIGN.md §12);
        // they never survive Phase 2, so the early exit below reaches the
        // same decision as exact per-slot counting.
        let p1_visits = self.stats.primary_visits;
        let mut p1_span = obs_span_detail!("sched.phase1", "start_s" => start.secs(), "need" => n);
        let trailing_count = self.trailing.count_candidates(start, &mut self.stats);
        let finite_count =
            self.ring
                .phase1_candidates_into(q, start, &mut self.scratch.stab, &mut self.stats);
        PHASE1_CANDIDATES.observe((trailing_count + finite_count) as u64);
        if p1_span.active() {
            p1_span.record("trailing", trailing_count);
            p1_span.record("marked", finite_count);
            p1_span.record("visits", self.stats.primary_visits - p1_visits);
        }
        drop(p1_span);
        if trailing_count + finite_count < n {
            return false;
        }
        // Phase 2: enumerate the full feasible set. Every policy then sorts
        // by a total key, so the selection is deterministic regardless of the
        // tree shape (and identical under any sharded partition of the
        // servers). Trailing candidates (feasible for any end) come first.
        let p2_visits = self.stats.secondary_visits;
        let mut p2_span = obs_span_detail!("sched.phase2", "end_s" => end.secs(), "need" => n);
        self.scratch.ids.clear();
        self.trailing
            .collect_candidates(start, usize::MAX, &mut self.scratch.ids, &mut self.stats);
        self.ring.phase2_feasible_into(
            end,
            &self.scratch.stab,
            usize::MAX,
            &mut self.scratch.ids,
            &mut self.stats,
        );
        let depth = self.stats.secondary_visits - p2_visits;
        PHASE2_DEPTH.observe(depth);
        if p2_span.active() {
            p2_span.record("retrieved", self.scratch.ids.len());
            p2_span.record("visits", depth);
        }
        drop(p2_span);
        if self.scratch.ids.len() < n {
            return false;
        }
        self.scratch.feasible.clear();
        for id in &self.scratch.ids {
            self.scratch.feasible.push(
                *self
                    .timeline
                    .period(*id)
                    .expect("slot tree refers to live period"),
            );
        }
        self.cfg
            .policy
            .select_in_place(&mut self.scratch.feasible, n, end);
        debug_assert_eq!(self.scratch.feasible.len(), n);
        true
    }

    /// Force the slot ring down its one-update-at-a-time path (see
    /// [`SlotRing::force_eager`]): the reference for differential tests of
    /// the batched write path.
    #[doc(hidden)]
    pub fn force_eager_ring_updates(&mut self) {
        self.ring.force_eager();
    }

    /// Commit the reservation on the chosen periods; the idle-period
    /// changes of all of them reach the slot trees as one batch.
    fn commit(
        &mut self,
        chosen: &[IdlePeriod],
        start: Time,
        end: Time,
        attempts: u32,
        earliest: Time,
    ) -> Grant {
        let job = JobId(self.next_job);
        self.next_job += 1;
        let mut servers = Vec::with_capacity(chosen.len());
        let mut reservations = Vec::with_capacity(chosen.len());
        let mut delta = std::mem::take(&mut self.scratch.delta);
        for p in chosen {
            self.timeline.reserve_into(p.id, job, start, end, &mut delta);
            route_delta(&delta, &mut self.trailing, &mut self.scratch, &mut self.stats);
            servers.push(p.server);
            reservations.push(Reservation {
                job,
                server: p.server,
                start,
                end,
            });
        }
        self.scratch.delta = delta;
        self.ring.apply_queued(&mut self.scratch, &mut self.stats);
        self.profile.add(start, end, chosen.len() as u32);
        self.jobs.insert(job, reservations);
        Grant {
            job,
            start,
            end,
            servers,
            attempts,
            waiting: start.saturating_since(earliest),
        }
    }

    /// Handle a request that must **complete by `deadline`** — the paper's
    /// Section 5.2 extension: "the algorithm can be easily extended to
    /// support user's deadline by setting the starting time to the earliest
    /// time a given job needs to start to meet the deadline imposed by the
    /// user".
    ///
    /// The retry loop is bounded so that no candidate start later than
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
        req.validate()?;
        if req.servers > self.num_servers() {
            return Err(ScheduleError::TooManyServers {
                requested: req.servers,
                available: self.num_servers(),
            });
        }
        let earliest = req.earliest_start.max(self.now);
        let latest_start = deadline - req.duration;
        if latest_start < earliest {
            return Err(ScheduleError::Exhausted {
                attempts: 0,
                last_tried: earliest,
            });
        }
        let r_max = self.cfg.effective_r_max();
        REQUESTS.inc();
        let before = self.stats;
        let mut span = obs_span!(
            "sched.submit",
            "servers" => req.servers,
            "duration_s" => req.duration.secs().max(0) as u64,
            "deadline_s" => deadline.secs()
        );
        // Same retry loop as `submit`, with the deadline as an extra budget
        // cap: no start later than `deadline - l_r` is ever considered.
        let budget = (r_max as u64 + 1)
            .min(((latest_start - earliest).secs() / self.cfg.delta_t.secs()) as u64 + 1);
        let (result, probed) = self.search_loop(req, earliest, budget);
        ATTEMPTS_HIST.observe(probed as u64);
        record_op_delta(&self.stats.since(&before));
        match &result {
            Ok(_) => GRANTS.inc(),
            Err(_) => REJECTS.inc(),
        }
        if span.active() {
            span.record("outcome", if result.is_ok() { "granted" } else { "rejected" });
            span.record("attempts", probed);
        }
        result
    }

    /// Assign capability tags to a server (see [`crate::attrs`]).
    pub fn set_server_attrs(&mut self, server: ServerId, attrs: AttrSet) {
        self.attrs[server.0 as usize] = attrs;
    }

    /// The capability tags of a server.
    pub fn server_attrs(&self, server: ServerId) -> AttrSet {
        self.attrs[server.0 as usize]
    }

    /// Enumerate **all** feasible idle periods for a job occupying
    /// `[start, end)` (trailing candidates first, then the slot tree's
    /// Phase-2 hits). Used by the constrained submission path and available
    /// to applications needing the complete set.
    pub fn enumerate_feasible(&mut self, start: Time, end: Time) -> Vec<IdlePeriod> {
        let q = self.slot_cfg.slot_of(start);
        if !self.ring.is_live(q) {
            return Vec::new();
        }
        let mut ids = Vec::new();
        self.trailing
            .collect_candidates(start, usize::MAX, &mut ids, &mut self.stats);
        self.ring.find_feasible_into(
            q,
            start,
            end,
            usize::MAX,
            &mut self.scratch.stab,
            &mut ids,
            &mut self.stats,
        );
        ids.iter()
            .map(|id| {
                *self
                    .timeline
                    .period(*id)
                    .expect("index refers to live period")
            })
            .collect()
    }

    /// Count one scheduling attempt (constrained path).
    pub(crate) fn bump_attempts(&mut self) {
        self.stats.attempts += 1;
    }

    /// Commit helper for the constrained path.
    pub(crate) fn commit_with_attempts(
        &mut self,
        chosen: &[IdlePeriod],
        start: Time,
        end: Time,
        attempts: u32,
        earliest: Time,
    ) -> Grant {
        self.commit(chosen, start, end, attempts, earliest)
    }

    /// The clock value the scheduler started at.
    pub fn origin(&self) -> Time {
        self.origin
    }

    /// The id the next committed job will receive (snapshot support).
    pub fn next_job_id(&self) -> u64 {
        self.next_job
    }

    /// Overwrite the job-id sequence (snapshot restore only).
    pub(crate) fn set_next_job_id(&mut self, next: u64) {
        self.next_job = next;
    }

    /// Re-commit one reservation verbatim (snapshot restore): the window
    /// must be fully idle on the server. Errors if it is not.
    pub(crate) fn restore_reservation(
        &mut self,
        job: JobId,
        server: ServerId,
        start: Time,
        end: Time,
    ) -> Result<(), ()> {
        let Some(p) = self.timeline.covering_idle(server, start, end) else {
            return Err(());
        };
        let mut delta = std::mem::take(&mut self.scratch.delta);
        self.timeline.reserve_into(p.id, job, start, end, &mut delta);
        route_delta(&delta, &mut self.trailing, &mut self.scratch, &mut self.stats);
        self.scratch.delta = delta;
        self.ring.apply_queued(&mut self.scratch, &mut self.stats);
        self.profile.add(start, end, 1);
        self.jobs.entry(job).or_default().push(Reservation {
            job,
            server,
            start,
            end,
        });
        Ok(())
    }

    /// Split borrow helper for the read-only searches in
    /// [`crate::range_search`].
    pub(crate) fn search_parts(
        &mut self,
    ) -> (
        &SlotRing,
        &TrailingSet,
        &mut crate::ring::StabMarks,
        &mut OpStats,
    ) {
        (
            &self.ring,
            &self.trailing,
            &mut self.scratch.stab,
            &mut self.stats,
        )
    }

    /// Commit an externally validated selection (query-then-commit flow).
    pub(crate) fn commit_chosen(
        &mut self,
        chosen: &[IdlePeriod],
        start: Time,
        end: Time,
    ) -> Grant {
        self.commit(chosen, start, end, 1, start)
    }

    /// Cancel a committed job, returning its windows to the idle pool (used
    /// by users cancelling reservations and by the multi-site abort path).
    /// Reservations that already ran to completion are retired (their busy
    /// seconds stay in the utilization accounting); jobs whose history was
    /// pruned by [`Self::advance_to`] were forgotten at prune time and
    /// report [`ScheduleError::UnknownJob`] — identically on the original
    /// and on any snapshot-restored twin.
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
        let mut reservations =
            self.jobs.remove(&job).ok_or(ScheduleError::UnknownJob(job))?;
        // Canonical processing order. The stored order is the selection
        // order on a live scheduler but snapshot order on a restored one;
        // since releasing mints fresh period ids per server, processing in
        // stored order would assign ids differently on the two — and period
        // ids are decision-relevant (Phase-2 retrieval is keyed by
        // `(end, id)`). Sorting makes release provenance-independent.
        reservations.sort_unstable_by_key(|r| (r.server, r.start));
        let mut delta = std::mem::take(&mut self.scratch.delta);
        for r in reservations {
            // Withdraw from the capacity profile unconditionally: expired
            // portions clamp away (their leaves were zeroed by rotation),
            // so this is exact for retired and pruned history too.
            self.profile.remove(r.start, r.end, 1);
            if r.end <= self.last_prune {
                continue; // actually pruned from history
            }
            if r.end <= self.ring.window_start() {
                // Ran to completion but is still in unpruned history:
                // retire it (count the busy seconds, drop the entry) so
                // the timeline — and therefore every future snapshot — no
                // longer carries it. Leaving it would make a
                // snapshot-restored scheduler resurrect the job and answer
                // a second `release` differently from the original.
                self.timeline.retire(r.server, r.job, r.start, r.end);
                continue;
            }
            self.timeline
                .release_into(r.server, r.job, r.start, r.end, &mut delta);
            route_delta(&delta, &mut self.trailing, &mut self.scratch, &mut self.stats);
        }
        self.scratch.delta = delta;
        self.ring.apply_queued(&mut self.scratch, &mut self.stats);
        Ok(())
    }

    /// Cross-checks the slot-tree mirror against the timeline (test helper;
    /// expensive).
    #[doc(hidden)]
    pub fn check_consistency(&self) {
        assert!(self.scratch.ring_ops.is_empty(), "ring updates left queued");
        self.timeline.check_invariants();
        self.ring.check_mirror(&self.timeline);
        self.trailing.check_invariants();
        // The trailing set holds exactly the timeline's open-ended periods.
        let mut expect: Vec<u64> = (0..self.num_servers())
            .map(|s| self.timeline.trailing_period(ServerId(s)).id.0)
            .collect();
        expect.sort_unstable();
        let mut got: Vec<u64> = self.trailing.ids_in_order().iter().map(|p| p.0).collect();
        got.sort_unstable();
        assert_eq!(got, expect, "trailing set out of sync with timeline");
        // The capacity profile's live slots recount exactly from the jobs
        // map: completed-but-unreleased and pruned history covers no live
        // slot, so it cancels on both sides.
        self.profile
            .check_against(self.jobs.values().flatten().map(|r| (r.start, r.end)));
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

    #[test]
    fn empty_system_grants_immediately() {
        let mut s = CoAllocScheduler::new(4, small_cfg());
        let grant = s
            .submit(&Request::on_demand(Time::ZERO, Dur(30), 3))
            .unwrap();
        assert_eq!(grant.start, Time::ZERO);
        assert_eq!(grant.end, Time(30));
        assert_eq!(grant.servers.len(), 3);
        assert_eq!(grant.attempts, 1);
        assert_eq!(grant.waiting, Dur::ZERO);
        s.check_consistency();
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
        let mut s = CoAllocScheduler::new(2, small_cfg());
        // Fill both servers for [0, 30).
        s.submit(&Request::on_demand(Time::ZERO, Dur(30), 2)).unwrap();
        // Next job must wait until t = 30 (three Delta_t shifts).
        let grant = s.submit(&Request::on_demand(Time::ZERO, Dur(20), 1)).unwrap();
        assert_eq!(grant.start, Time(30));
        assert_eq!(grant.attempts, 4);
        assert_eq!(grant.waiting, Dur(30));
        s.check_consistency();
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
        s.submit(&Request::on_demand(Time::ZERO, Dur(90), 1)).unwrap();
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
        let g2 = s.submit(&Request::on_demand(Time::ZERO, Dur(30), 2)).unwrap();
        assert_eq!(g2.start, Time(40));
        assert_eq!(g2.attempts, 5);
        s.check_consistency();
    }

    #[test]
    fn release_restores_capacity() {
        let mut s = CoAllocScheduler::new(1, small_cfg());
        let g = s.submit(&Request::on_demand(Time::ZERO, Dur(100), 1)).unwrap();
        let err = s
            .submit(&Request::advance(Time::ZERO, Time(10), Dur(20), 1))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Exhausted { .. } | ScheduleError::HorizonExceeded { .. }));
        s.release(g.job).unwrap();
        let g2 = s
            .submit(&Request::advance(Time::ZERO, Time(10), Dur(20), 1))
            .unwrap();
        assert_eq!(g2.start, Time(10));
        assert_eq!(s.release(JobId(999)), Err(ScheduleError::UnknownJob(JobId(999))));
        s.check_consistency();
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
        s.submit(&Request::on_demand(Time::ZERO, Dur(30), 1)).unwrap();
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
        s.submit(&Request::on_demand(Time::ZERO, Dur(40), 2)).unwrap();
        for deadline in [50i64, 60, 70, 80] {
            if let Ok(g) = s.submit_with_deadline(
                &Request::on_demand(Time::ZERO, Dur(10), 1),
                Time(deadline),
            ) {
                assert!(g.end <= Time(deadline), "grant {g:?} misses {deadline}");
            }
        }
        s.check_consistency();
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
