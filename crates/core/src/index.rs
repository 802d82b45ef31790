//! The idle-period index over a contiguous server range.
//!
//! [`ServerIndex`] owns everything the two-phase search reads and the commit
//! step writes for the servers `[base, base + count)`: the authoritative
//! [`Timeline`], its two search mirrors ([`SlotRing`] for finite periods,
//! [`TrailingSet`] for open-ended ones), the per-job reservation map, the
//! operation counters and the hot-path [`Scratch`]. Internally everything is
//! indexed by *local* server ids `0..count`; ids are global at the API
//! boundary, so a caller never sees the offset.
//!
//! Every scheduler step has exactly one implementation here: `find` (one
//! attempt of Section 4.2: Phase 1, Phase 2, selection), `count` /
//! `enumerate` (the read-only halves, which partition-sum and concatenate
//! across ranges because a server's idle periods are disjoint), `commit`,
//! `release`, `advance_to`. [`crate::scheduler::CoAllocScheduler`] is one
//! index over all servers; a shard of the sharded front-end is one index
//! over its slice. The engines differ only in how they drive these steps
//! (DESIGN.md §6, §9).

use crate::idhash::IdMap;
use crate::idle::IdlePeriod;
use crate::ids::{JobId, PeriodId, ServerId};
use crate::policy::SelectionPolicy;
use crate::ring::{route_delta, SlotRing};
use crate::scheduler::PRUNE_EVERY_SLOTS;
use crate::scratch::Scratch;
use crate::snapshot::StateImage;
use crate::stats::OpStats;
use crate::time::{SlotConfig, Time};
use crate::timeline::{PeriodDelta, Reservation, Timeline};
use crate::trailing::TrailingSet;
use obs::{obs_span_detail, LazyHistogram};

static PHASE1_CANDIDATES: LazyHistogram = LazyHistogram::new("sched_phase1_candidates");
static PHASE2_DEPTH: LazyHistogram = LazyHistogram::new("sched_phase2_depth");

/// Timeline, search indexes and job map of one contiguous server range.
#[derive(Clone, Debug)]
pub struct ServerIndex {
    slot_cfg: SlotConfig,
    seed: u64,
    /// First global server id of the range.
    base: u32,
    timeline: Timeline,
    ring: SlotRing,
    trailing: TrailingSet,
    jobs: IdMap<JobId, Vec<Reservation>>,
    stats: OpStats,
    /// Reusable buffers for the per-request hot path.
    scratch: Scratch,
    /// Window start at the last history prune.
    last_prune: Time,
}

impl ServerIndex {
    /// An all-idle index over the global servers `[base, base + count)`
    /// with the live window starting at `origin`. The work of seeding the
    /// trailing index is on [`Self::stats`] from the start.
    pub fn new(slot_cfg: SlotConfig, base: u32, count: u32, origin: Time, seed: u64) -> ServerIndex {
        assert!(count > 0, "an index needs at least one server");
        let timeline = Timeline::new(count, origin);
        let mut stats = OpStats::new();
        let mut trailing = TrailingSet::new(seed);
        for srv in 0..count {
            trailing.insert(&timeline.trailing_period(ServerId(srv)), &mut stats);
        }
        ServerIndex {
            slot_cfg,
            seed,
            base,
            timeline,
            ring: SlotRing::new(slot_cfg, origin, seed),
            trailing,
            jobs: IdMap::default(),
            stats,
            scratch: Scratch::new(),
            last_prune: origin,
        }
    }

    /// Number of servers in the range.
    pub fn num_servers(&self) -> u32 {
        self.timeline.num_servers()
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// The counters, for the engine's attempt accounting
    /// ([`crate::ladder::Ladder::settle`]).
    pub fn stats_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }

    /// The authoritative timeline (local server ids).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The slot ring (diagnostics, tests, and the window bounds).
    pub fn ring(&self) -> &SlotRing {
        &self.ring
    }

    /// Committed reservations of a job in this range (local server ids).
    pub fn job(&self, job: JobId) -> Option<&[Reservation]> {
        self.jobs.get(&job).map(|v| v.as_slice())
    }

    /// The `[start, end)` window of every resident reservation.
    pub fn reservation_windows(&self) -> impl Iterator<Item = (Time, Time)> + Clone + '_ {
        self.jobs.values().flatten().map(|r| (r.start, r.end))
    }

    /// History boundary of the last amortized prune (snapshot state: prune
    /// timing is observable through [`Self::release`], so a restored index
    /// must resume the same cadence).
    pub fn last_prune(&self) -> Time {
        self.last_prune
    }

    /// See [`SlotRing::force_eager`].
    #[doc(hidden)]
    pub fn force_eager_ring_updates(&mut self) {
        self.ring.force_eager();
    }

    fn local(&self, server: ServerId) -> ServerId {
        ServerId(server.0 - self.base)
    }

    /// Resolve `scratch.ids` into `out` (global server ids), keeping the
    /// periods whose server passes `keep`.
    fn resolve_ids(&self, keep: impl Fn(ServerId) -> bool, out: &mut Vec<IdlePeriod>) {
        for id in &self.scratch.ids {
            let p = *self
                .timeline
                .period(*id)
                .expect("index refers to live period");
            let server = ServerId(self.base + p.server.0);
            if keep(server) {
                out.push(IdlePeriod { server, ..p });
            }
        }
    }

    /// One scheduling attempt at a fixed start: Phase 1, early exit on the
    /// candidate count, Phase 2, policy selection among the servers that
    /// pass `keep`. Returns the chosen periods (exactly `n`, selection
    /// order) or `None`.
    ///
    /// Candidates come from two places: the canonical slot trees on the
    /// stabbing path of the slot containing `start` (finite periods) and
    /// the trailing index (open-ended periods, candidates iff `st <= start`
    /// and then feasible for any end). The window must lie inside the live
    /// horizon. All working storage lives in [`Scratch`], so a steady-state
    /// attempt performs no heap allocation.
    pub fn find(
        &mut self,
        start: Time,
        end: Time,
        n: u32,
        policy: SelectionPolicy,
        keep: impl Fn(ServerId) -> bool,
    ) -> Option<&[IdlePeriod]> {
        let n = n as usize;
        let q = self.slot_cfg.slot_of(start);
        // Phase 1: count candidates via subtree sizes along the stabbing
        // path. The count ignores `keep` and may include benign aliases
        // (see DESIGN.md §12); neither survives Phase 2, so the early exit
        // below reaches the same decision as exact counting.
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
            return None;
        }
        // Phase 2: enumerate the full feasible set. Every policy then sorts
        // by a total key, so the selection is deterministic regardless of the
        // tree shape (and identical under any partition of the servers).
        // Trailing candidates (feasible for any end) come first.
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
            return None;
        }
        let mut feasible = std::mem::take(&mut self.scratch.feasible);
        feasible.clear();
        self.resolve_ids(keep, &mut feasible);
        let found = feasible.len() >= n;
        if found {
            policy.select_in_place(&mut feasible, n, end);
        }
        self.scratch.feasible = feasible;
        found.then_some(self.scratch.feasible.as_slice())
    }

    /// Number of idle periods in the range that could host a job over
    /// `[start, end)`: open-ended periods with `st <= start` plus finite
    /// candidates whose end covers the window (subtree-size counting only).
    /// `start` must lie inside the live window.
    pub fn count(&mut self, start: Time, end: Time) -> usize {
        let mut stats = self.stats;
        let count = self.count_with(start, end, &mut stats);
        self.stats = stats;
        count
    }

    /// [`Self::count`] charging an explicit counter set instead of the
    /// index's own. The batched coordinator keeps speculative probe work in
    /// a per-request delta this way and charges only the deltas of requests
    /// whose speculation is accepted, so aggregate accounting does not
    /// depend on how submissions were grouped into batches.
    pub fn count_with(&mut self, start: Time, end: Time, stats: &mut OpStats) -> usize {
        let q = self.slot_cfg.slot_of(start);
        let trailing = self.trailing.count_candidates(start, stats);
        let finite = self
            .ring
            .phase1_candidates_into(q, start, &mut self.scratch.stab, stats);
        if finite == 0 {
            return trailing;
        }
        trailing + self.ring.count_feasible(end, &self.scratch.stab, stats)
    }

    /// Append the range's full feasible set for a job over `[start, end)`
    /// to `out` (trailing candidates first, then the slot trees' Phase-2
    /// hits) — callers concatenate several ranges' or several windows' sets
    /// in one buffer. Appends nothing if `start` is outside the live window.
    pub fn enumerate(&mut self, start: Time, end: Time, out: &mut Vec<IdlePeriod>) {
        let mut stats = self.stats;
        self.enumerate_with(start, end, out, &mut stats);
        self.stats = stats;
    }

    /// [`Self::enumerate`] charging an explicit counter set (see
    /// [`Self::count_with`]).
    pub fn enumerate_with(
        &mut self,
        start: Time,
        end: Time,
        out: &mut Vec<IdlePeriod>,
        stats: &mut OpStats,
    ) {
        let q = self.slot_cfg.slot_of(start);
        if !self.ring.is_live(q) {
            return;
        }
        self.scratch.ids.clear();
        self.trailing
            .collect_candidates(start, usize::MAX, &mut self.scratch.ids, stats);
        self.ring.find_feasible_into(
            q,
            start,
            end,
            usize::MAX,
            &mut self.scratch.stab,
            &mut self.scratch.ids,
            stats,
        );
        self.resolve_ids(|_| true, out);
    }

    /// Reserve `[start, end)` for `job` on the given servers of the range,
    /// each addressed by server and window: the idle period covering the
    /// window is looked up afresh, so the caller's view of period ids may
    /// be stale (a pre-batch snapshot) as long as the window is still idle.
    /// The idle-period changes of all servers reach the slot trees as one
    /// batch.
    pub fn commit(&mut self, job: JobId, start: Time, end: Time, servers: &[ServerId]) {
        let mut delta = std::mem::take(&mut self.scratch.delta);
        let reservations = self.jobs.entry(job).or_default();
        reservations.reserve(servers.len());
        for &s in servers {
            let server = ServerId(s.0 - self.base);
            let p = self
                .timeline
                .covering_idle(server, start, end)
                .expect("commit: window is idle on every chosen server");
            self.timeline.reserve_into(p.id, job, start, end, &mut delta);
            route_delta(&delta, &mut self.trailing, &mut self.scratch, &mut self.stats);
            reservations.push(Reservation {
                job,
                server,
                start,
                end,
            });
        }
        self.scratch.delta = delta;
        self.ring.apply_queued(&mut self.scratch, &mut self.stats);
    }

    /// Return the range's reservations of `job` to the idle pool and hand
    /// them back (local server ids); `None` if it holds none. Reservations
    /// that already ran to completion are retired (their busy seconds stay
    /// in the utilization accounting); those inside pruned history are
    /// already gone.
    pub fn release(&mut self, job: JobId) -> Option<Vec<Reservation>> {
        let mut reservations = self.jobs.remove(&job)?;
        // Canonical processing order. The stored order is the selection
        // order on a live index but snapshot order on a restored one;
        // since releasing mints fresh period ids per server, processing in
        // stored order would assign ids differently on the two — and with
        // them the snapshot text and the tie order of `query` hits, which a
        // restored twin must reproduce. Sorting makes release
        // provenance-independent.
        reservations.sort_unstable_by_key(|r| (r.server, r.start));
        let mut delta = std::mem::take(&mut self.scratch.delta);
        for r in &reservations {
            if r.end <= self.last_prune {
                continue; // actually pruned from history
            }
            if r.end <= self.ring.window_start() {
                // Ran to completion but is still in unpruned history:
                // retire it (count the busy seconds, drop the entry) so
                // the timeline — and therefore every future snapshot — no
                // longer carries it. Leaving it would make a
                // snapshot-restored index resurrect the job and answer a
                // second `release` differently from the original.
                self.timeline.retire(r.server, r.job, r.start, r.end);
                continue;
            }
            self.timeline
                .release_into(r.server, r.job, r.start, r.end, &mut delta);
            route_delta(&delta, &mut self.trailing, &mut self.scratch, &mut self.stats);
        }
        self.scratch.delta = delta;
        self.ring.apply_queued(&mut self.scratch, &mut self.stats);
        Some(reservations)
    }

    /// Move the live window so that `now` lies in its first slot: discard
    /// expired slot trees and, every [`PRUNE_EVERY_SLOTS`] slots, prune dead
    /// history from the timeline and the job map alike.
    pub fn advance_to(&mut self, now: Time) {
        self.ring
            .advance_to_with(now, &mut self.scratch, &mut self.stats);
        // History pruning scans every server, so amortize it over many slot
        // advances; the ring's own discard/create stays O(1) per slot as
        // the paper claims. Correctness does not depend on prune timing —
        // stale history is merely unreferenced memory.
        let window_start = self.ring.window_start();
        if (window_start - self.last_prune).secs() >= PRUNE_EVERY_SLOTS * self.slot_cfg.tau.secs()
        {
            self.timeline.prune_before(window_start);
            // Jobs whose reservations all fell to the prune are forgotten
            // too: after this, `release` finds nothing for them on the
            // original and on any snapshot-restored twin alike — snapshots
            // carry exactly the timeline's (unpruned) busy set, so the job
            // map must not outlive it.
            self.jobs.retain(|_, rs| rs.iter().any(|r| r.end > window_start));
            self.last_prune = window_start;
        }
    }

    /// Append the range's idle periods and reservations to `image`, server
    /// by server (global ids), each server's in start order.
    pub fn export(&self, image: &mut StateImage) {
        for s in 0..self.num_servers() {
            let server = ServerId(self.base + s);
            let idle = self.timeline.idle_periods(ServerId(s));
            image.idle.extend(idle.iter().map(|p| (server, p.start, p.end)));
            let busy = self.timeline.reservations(ServerId(s));
            image.busy.extend(busy.iter().map(|r| Reservation { server, ..*r }));
        }
    }

    /// Replace the range's state with its share of a validated `image` and
    /// rebuild both search indexes around the image's clock: the idle
    /// periods are installed as written, not re-derived from the
    /// reservations — released history leaves periods un-merged, and
    /// selection ranks by period start — so every future decision is
    /// bit-identical to the index that wrote the image. Period ids are
    /// minted afresh, in image order.
    pub fn install(&mut self, image: &StateImage) {
        let (lo, hi) = (self.base, self.base + self.num_servers());
        let idle: Vec<IdlePeriod> = image
            .idle
            .iter()
            .filter(|(server, ..)| (lo..hi).contains(&server.0))
            .enumerate()
            .map(|(i, &(server, start, end))| IdlePeriod {
                id: PeriodId(i as u64),
                server: self.local(server),
                start,
                end,
            })
            .collect();
        let busy: Vec<Reservation> = image
            .busy
            .iter()
            .filter(|r| (lo..hi).contains(&r.server.0))
            .map(|r| Reservation {
                server: self.local(r.server),
                ..*r
            })
            .collect();
        self.timeline = Timeline::from_parts(self.num_servers(), &idle, &busy);
        self.ring = SlotRing::new(self.slot_cfg, image.now, self.seed);
        self.trailing = TrailingSet::new(self.seed);
        self.last_prune = image.last_prune;
        // One batch over the whole idle set: every canonical tree is built
        // from its periods in image order, as a one-by-one insert would.
        let all = PeriodDelta {
            removed: Vec::new(),
            added: idle,
        };
        route_delta(&all, &mut self.trailing, &mut self.scratch, &mut self.stats);
        self.ring.apply_queued(&mut self.scratch, &mut self.stats);
        self.jobs.clear();
        for r in busy {
            self.jobs.entry(r.job).or_default().push(r);
        }
    }

    /// Cross-check the search mirrors and the job map against the timeline
    /// (test helper; expensive).
    #[doc(hidden)]
    pub fn check(&self) {
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
        // The job map is pruned with the timeline: a resident job still has
        // a reservation in the busy set (so none has every reservation
        // ending at or before `last_prune`).
        for (job, rs) in &self.jobs {
            assert!(
                rs.iter().any(|r| self.timeline.reservations(r.server).contains(r)),
                "{job:?} outlived the history prune at {}",
                self.last_prune
            );
        }
    }
}
