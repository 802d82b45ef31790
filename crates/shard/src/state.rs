//! Per-shard scheduler state: a self-contained slice of the system.
//!
//! A shard owns a contiguous range of servers `[base, base + count)` and
//! maintains its own [`Timeline`], [`SlotRing`] and [`TrailingSet`] over
//! exactly those servers. Internally everything is indexed by *local* server
//! ids `0..count`; the shard translates to global ids at its API boundary so
//! the coordinator never sees the offset.
//!
//! Because a server's idle periods are disjoint, the union of per-shard
//! feasible sets equals the whole system's feasible set, and feasible counts
//! sum across shards — the foundation of the decision-equivalence argument
//! (see DESIGN.md §9).

use coalloc_core::idhash::IdMap;
use coalloc_core::prelude::*;
use coalloc_core::ring::{route_delta, SlotRing};
use coalloc_core::scheduler::PRUNE_EVERY_SLOTS;
use coalloc_core::trailing::TrailingSet;

/// The scheduler state owned by one shard worker.
#[derive(Debug)]
pub struct ShardState {
    slot_cfg: SlotConfig,
    /// First global server id owned by this shard.
    base: u32,
    timeline: Timeline,
    ring: SlotRing,
    trailing: TrailingSet,
    jobs: IdMap<JobId, Vec<Reservation>>,
    stats: OpStats,
    scratch: Scratch,
    last_prune: Time,
}

impl ShardState {
    /// Create the state for a shard owning global servers
    /// `[base, base + count)`, with the clock at `origin`.
    pub fn new(cfg: &SchedulerConfig, base: u32, count: u32, origin: Time, seed: u64) -> ShardState {
        assert!(count > 0, "empty shards are not allowed");
        let slot_cfg = cfg.slot_config();
        let timeline = Timeline::new(count, origin);
        let ring = SlotRing::new(slot_cfg, origin, seed);
        let mut stats = OpStats::new();
        let mut trailing = TrailingSet::new(seed);
        for srv in 0..count {
            let p = timeline.trailing_period(ServerId(srv));
            trailing.insert(&p, &mut stats);
        }
        ShardState {
            slot_cfg,
            base,
            timeline,
            ring,
            trailing,
            jobs: IdMap::default(),
            stats,
            scratch: Scratch::new(),
            last_prune: origin,
        }
    }

    /// Number of servers owned by this shard.
    pub fn num_servers(&self) -> u32 {
        self.timeline.num_servers()
    }

    /// The shard's cumulative operation counters.
    pub fn stats(&self) -> OpStats {
        self.stats
    }

    /// Feasible-period counts for a batch of attempt windows: window `i` is
    /// `[starts[i], starts[i] + duration)`. Counts are written to
    /// `out[..starts.len()]`. Every start must lie within the horizon.
    /// Starts are explicit (not an arithmetic ladder) because the
    /// coordinator's profile-jumping prunes provably-failing attempts
    /// before fan-out, leaving an irregular sequence.
    ///
    /// A window's count is the number of this shard's idle periods that
    /// could host the job: open-ended periods with `st <= start` (always
    /// feasible) plus finite candidates whose end covers the window.
    pub fn count_starts(&mut self, starts: &[Time], duration: Dur, out: &mut [u32]) {
        let mut stats = self.stats;
        self.count_starts_into(starts, duration, out, &mut stats);
        self.stats = stats;
    }

    /// [`Self::count_starts`] charging an explicit counter set instead of
    /// the shard's cumulative stats. The batched coordinator uses this to
    /// keep speculative probe work in a per-request delta: only the deltas
    /// of requests whose speculation is *accepted* are ever charged, so the
    /// aggregate accounting is independent of how submissions were grouped
    /// into batches.
    pub fn count_starts_into(
        &mut self,
        starts: &[Time],
        duration: Dur,
        out: &mut [u32],
        stats: &mut OpStats,
    ) {
        for (slot, &start) in out.iter_mut().zip(starts) {
            let end = start + duration;
            let q = self.slot_cfg.slot_of(start);
            let trailing = self.trailing.count_candidates(start, stats);
            let finite = self
                .ring
                .phase1_candidates_into(q, start, &mut self.scratch.stab, stats);
            let feasible = if finite == 0 {
                0
            } else {
                self.ring.count_feasible(end, &self.scratch.stab, stats)
            };
            *slot = (trailing + feasible) as u32;
        }
    }

    /// Enumerate the shard's full feasible set for a job over
    /// `[start, end)`, appending its periods (with **global** server ids)
    /// to `out` — callers concatenate several shards' or several windows'
    /// sets in one buffer.
    pub fn enumerate(&mut self, start: Time, end: Time, out: &mut Vec<IdlePeriod>) {
        let mut stats = self.stats;
        self.enumerate_into(start, end, out, &mut stats);
        self.stats = stats;
    }

    /// [`Self::enumerate`] charging an explicit counter set — the Phase-2
    /// analogue of [`Self::count_starts_into`] for speculative batch probes.
    pub fn enumerate_into(
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
        let finite = self
            .ring
            .phase1_candidates_into(q, start, &mut self.scratch.stab, stats);
        if finite > 0 {
            self.ring.phase2_feasible_into(
                end,
                &self.scratch.stab,
                usize::MAX,
                &mut self.scratch.ids,
                stats,
            );
        }
        for id in &self.scratch.ids {
            let p = *self
                .timeline
                .period(*id)
                .expect("shard index refers to live period");
            out.push(IdlePeriod {
                server: ServerId(self.base + p.server.0),
                ..p
            });
        }
    }

    /// Commit `job` over `[start, end)` on the given **global** servers
    /// (all owned by this shard). The coordinator only commits servers whose
    /// feasibility this shard just reported, so the covering idle period
    /// must exist.
    pub fn commit(&mut self, job: JobId, start: Time, end: Time, servers: &[ServerId]) {
        let mut delta = std::mem::take(&mut self.scratch.delta);
        for s in servers {
            let local = ServerId(s.0 - self.base);
            let p = self
                .timeline
                .covering_idle(local, start, end)
                .expect("coordinator commits only servers it found feasible");
            self.timeline.reserve_into(p.id, job, start, end, &mut delta);
            route_delta(&delta, &mut self.trailing, &mut self.scratch, &mut self.stats);
            self.jobs.entry(job).or_default().push(Reservation {
                job,
                server: local,
                start,
                end,
            });
        }
        self.scratch.delta = delta;
        self.ring.apply_queued(&mut self.scratch, &mut self.stats);
    }

    /// Release this shard's reservations of `job` (no-op if the shard holds
    /// none). Windows fully inside pruned history are dropped, matching the
    /// core scheduler.
    pub fn release(&mut self, job: JobId) {
        let Some(reservations) = self.jobs.remove(&job) else {
            return;
        };
        let mut delta = std::mem::take(&mut self.scratch.delta);
        for r in reservations {
            if r.end <= self.ring.window_start() {
                continue;
            }
            self.timeline
                .release_into(r.server, r.job, r.start, r.end, &mut delta);
            route_delta(&delta, &mut self.trailing, &mut self.scratch, &mut self.stats);
        }
        self.scratch.delta = delta;
        self.ring.apply_queued(&mut self.scratch, &mut self.stats);
    }

    /// Advance the shard clock: rotate the slot ring and prune dead history
    /// on the same cadence as the core scheduler.
    pub fn advance_to(&mut self, now: Time) {
        self.ring
            .advance_to_with(now, &mut self.scratch, &mut self.stats);
        let window_start = self.ring.window_start();
        if (window_start - self.last_prune).secs() >= PRUNE_EVERY_SLOTS * self.slot_cfg.tau.secs()
        {
            self.timeline.prune_before(window_start);
            self.last_prune = window_start;
        }
    }

    /// Committed busy server-seconds before `until` on this shard's servers.
    pub fn busy_secs_before(&self, until: Time) -> i64 {
        self.timeline.busy_secs_before(until)
    }

    /// Append this shard's live reservation windows to `out` (coordinator
    /// consistency-check helper; server identity is irrelevant to the
    /// capacity profile, so only `(start, end)` pairs are reported).
    #[doc(hidden)]
    pub fn collect_reservations(&self, out: &mut Vec<(Time, Time)>) {
        for reservations in self.jobs.values() {
            for r in reservations {
                out.push((r.start, r.end));
            }
        }
    }

    /// Cross-check the shard's indexes against its timeline (test helper;
    /// expensive).
    #[doc(hidden)]
    pub fn check(&self) {
        self.timeline.check_invariants();
        self.ring.check_mirror(&self.timeline);
        self.trailing.check_invariants();
        let mut expect: Vec<u64> = (0..self.num_servers())
            .map(|s| self.timeline.trailing_period(ServerId(s)).id.0)
            .collect();
        expect.sort_unstable();
        let mut got: Vec<u64> = self.trailing.ids_in_order().iter().map(|p| p.0).collect();
        got.sort_unstable();
        assert_eq!(got, expect, "shard trailing set out of sync with timeline");
    }
}
