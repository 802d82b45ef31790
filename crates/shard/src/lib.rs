//! # coalloc-shard
//!
//! The worker pool of the co-allocation scheduler.
//!
//! A [`ShardedScheduler`] is a [`CoAllocScheduler`] whose `M` servers are
//! stored as `K` contiguous ranges ([`CoAllocScheduler::with_ranges`]) plus
//! one worker thread per range. It dereferences to that scheduler: every
//! command — submits, releases, range searches, snapshots — runs on the
//! scheduler's one driver, and only three things are added here.
//!
//! * **Batched pool** ([`ShardedScheduler::submit_batch`] above the pool
//!   threshold): each worker is woken **once per batch**, with its range
//!   lent to it for the stage and handed back in the reply. The batch is
//!   opened on the scheduler ([`coalloc_core::batch`]), which decides
//!   every member in submission order with its one driver over the
//!   pre-batch ranges, each member's feasible set *repaired* against the
//!   grants of earlier members: within a batch capacity only shrinks, so
//!   the repaired set is the live one and selection over it *is* the
//!   sequential decision. One *commit* stage then applies every grant, the
//!   ranges in parallel. Decisions are bit-identical to sequential
//!   submission. See DESIGN.md §9 for the full argument.
//! * **Pooled `advance_to`**: after a pooled batch the ranges advance on
//!   their workers, in parallel.
//! * **By-value [`ShardedScheduler::stats`]**.
//!
//! **Decision equivalence.** Candidate counts are partition sums and every
//! feasible set holds at most one period per server, so every policy's
//! selection key is total before its id tie-break: the scheduler makes the
//! same grant/reject decisions, start times, attempt counts *and server
//! choices* for every policy and every `K` — batched or not. The capacity
//! profile that lets the ladder jump past provably infeasible starts is
//! partition-independent too (DESIGN.md §14).
//!
//! With `K = 1` there is no pool: the type is the single scheduler.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod pool;

use crate::pool::{Pool, Stage};
use coalloc_core::prelude::*;
use coalloc_core::scheduler::record_requests;
use coalloc_core::snapshot::{SnapshotError, StateImage};
use coalloc_sim::runner::OnlineScheduler;
use obs::LazyHistogram;
use std::ops::{Deref, DerefMut};

/// Work in a batch — members × servers in the system — from which
/// `submit_batch` hands it to the worker pool by default instead of running
/// it inline: 16 members at 8,192 servers, 64 at 2,048. A pooled batch
/// pays one cross-thread rendezvous whatever its size, so small batches
/// and small systems are better off inline. In a sweep of the commit-only
/// pool against the inline path on a 2-vCPU host (EXPERIMENTS.md, "Is the
/// commit-only pool worth waking?") the pool took less wall time at every
/// size measured from 2^17 on, was mixed between 2^14 and 2^16, and lost
/// nine of ten sizes at 2^13 and below; it always took more CPU. Only
/// reached when the host has more than one CPU — on a single CPU the pool
/// can only add context switches, so the bypass threshold defaults to
/// "never". Overridable per instance with
/// [`ShardedScheduler::set_pool_min_batch`].
const POOL_MIN_WORK: u64 = 1 << 17;

/// How work reaches the workers: the size of every batch on a scheduler
/// with a pool.
static BATCH_SIZE: LazyHistogram = LazyHistogram::new("shard_batch_size");

/// The co-allocation scheduler over `K` server ranges with a worker pool
/// for large batches.
///
/// Dereferences to the [`CoAllocScheduler`] it runs on; see the crate docs
/// for what the pool adds and the equivalence guarantees.
#[derive(Debug)]
pub struct ShardedScheduler {
    sched: CoAllocScheduler,
    /// One worker per range, spawned only for `K > 1`.
    pool: Option<Pool>,
    /// Batch size below which `submit_batch` bypasses the pool.
    pool_min_batch: usize,
    /// Whether the most recent batch ran on the pool. `advance_to` follows
    /// it: while batches are pooled the ranges advance on their workers,
    /// and a scheduler that never pools never wakes one.
    pooled: bool,
}

impl Deref for ShardedScheduler {
    type Target = CoAllocScheduler;
    fn deref(&self) -> &CoAllocScheduler {
        &self.sched
    }
}

impl DerefMut for ShardedScheduler {
    fn deref_mut(&mut self) -> &mut CoAllocScheduler {
        &mut self.sched
    }
}

impl ShardedScheduler {
    /// Create a scheduler over `num_servers` servers split into `k` ranges
    /// ([`CoAllocScheduler::with_ranges`]: `k` is clamped to `[1, min(64,
    /// num_servers)]`), clock at the epoch, with a worker per range if
    /// `k > 1`.
    ///
    /// Decisions are bit-identical to a single-range [`CoAllocScheduler`]
    /// over the same servers, for every `k`:
    ///
    /// ```
    /// use coalloc_core::prelude::*;
    /// use coalloc_shard::ShardedScheduler;
    ///
    /// let req = Request::advance(Time::ZERO, Time::from_hours(2), Dur::from_hours(1), 3);
    /// let mut single = CoAllocScheduler::new(8, SchedulerConfig::default());
    /// let mut sharded = ShardedScheduler::new(8, 4, SchedulerConfig::default());
    /// let (a, b) = (single.submit(&req).unwrap(), sharded.submit(&req).unwrap());
    /// assert_eq!((a.job, a.start, a.end, a.servers), (b.job, b.start, b.end, b.servers));
    /// ```
    pub fn new(num_servers: u32, k: u32, cfg: SchedulerConfig) -> ShardedScheduler {
        ShardedScheduler::over(CoAllocScheduler::with_ranges(num_servers, k, cfg))
    }

    /// A `k`-range scheduler in the state `image` describes, whatever `K`
    /// wrote it ([`CoAllocScheduler::from_image`]).
    pub fn from_image(image: StateImage, k: u32) -> ShardedScheduler {
        ShardedScheduler::over(CoAllocScheduler::from_image(image, k))
    }

    /// Rebuild a `k`-range scheduler from snapshot text.
    pub fn restore(snapshot: &str, k: u32) -> Result<ShardedScheduler, SnapshotError> {
        StateImage::parse(snapshot).map(|image| ShardedScheduler::from_image(image, k))
    }

    fn over(sched: CoAllocScheduler) -> ShardedScheduler {
        let k = sched.num_ranges();
        let pool = (k > 1).then(|| Pool::spawn(k));
        // Load-adaptive default: the pool only pays off when batch stages
        // can actually run in parallel, so a single-CPU host keeps every
        // batch on the inline path.
        let pool_min_batch = match std::thread::available_parallelism() {
            Ok(p) if p.get() > 1 && pool.is_some() => {
                (POOL_MIN_WORK / u64::from(sched.num_servers())).max(1) as usize
            }
            _ => usize::MAX,
        };
        ShardedScheduler {
            sched,
            pool,
            pool_min_batch,
            pooled: false,
        }
    }

    /// Override the batch size at which [`Self::submit_batch`] hands work
    /// to the worker pool (default: adaptive — `131072 / num_servers` on
    /// multi-CPU hosts with `K > 1`, never otherwise). `0` forces every
    /// batch through the pool; `usize::MAX` forces the inline path.
    /// Decisions are identical either way; only the execution strategy
    /// changes.
    pub fn set_pool_min_batch(&mut self, n: usize) {
        self.pool_min_batch = n;
    }

    /// The scheduler's operation counters, by value. Independent of how
    /// submissions were grouped into batches, except that a pooled batch
    /// searches the pre-batch ranges, so the state-dependent search
    /// counters (`primary_visits`, `secondary_visits`, `phase2_searches`)
    /// can drift; attempts, skips (including `attempts_jumped`), phase-1
    /// searches and all structural-update counters are grouping-invariant
    /// exactly.
    pub fn stats(&self) -> OpStats {
        *self.sched.stats()
    }

    /// Advance the clock ([`CoAllocScheduler::advance_to`]). After a pooled
    /// batch the ranges advance on their workers, in parallel, and only
    /// when the live slot window moves (ring rotation and the prune
    /// cadence depend on the slot index alone).
    pub fn advance_to(&mut self, now: Time) {
        if !self.pooled {
            return self.sched.advance_to(now);
        }
        let pool = self.pool.as_ref().expect("pooled implies a pool");
        let moved = self.sched.config().slot_config().slot_of(now) > self.sched.ring().first_slot();
        if self.sched.advance_clock(now) && moved {
            pool.run(&mut self.sched, |_| Some(Stage::Advance(now)));
        }
    }

    /// Handle a batch of requests in submission order, returning one reply
    /// per member in order. Semantically identical to submitting each
    /// member with [`CoAllocScheduler::submit`] against the current clock —
    /// member `i` observes the commits of members `0..i` — but above the
    /// pool threshold the commits are applied on the workers, each woken
    /// once per batch.
    ///
    /// ```
    /// use coalloc_core::prelude::*;
    /// use coalloc_shard::ShardedScheduler;
    ///
    /// let reqs: Vec<Request> = (0..6)
    ///     .map(|i| Request::on_demand(Time::ZERO, Dur::from_mins(30 + i * 10), 2))
    ///     .collect();
    /// let mut batched = ShardedScheduler::new(8, 4, SchedulerConfig::default());
    /// let mut sequential = ShardedScheduler::new(8, 4, SchedulerConfig::default());
    /// let a = batched.submit_batch(&reqs);
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
    /// heap allocation once capacities have warmed up.
    ///
    /// The pool path opens a batch on the scheduler, decides the members in
    /// submission order, and commits on the workers; its decisions are
    /// bit-identical to the inline path's.
    pub fn submit_batch_into(
        &mut self,
        reqs: &[Request],
        out: &mut Vec<Result<Grant, ScheduleError>>,
    ) {
        if self.pool.is_some() {
            BATCH_SIZE.observe(reqs.len() as u64);
        }
        self.pooled = self.pool.is_some() && reqs.len() >= self.pool_min_batch;
        let (Some(pool), true) = (&self.pool, self.pooled) else {
            // Load-adaptive bypass: below the threshold the rendezvous
            // cost of the pool exceeds its parallelism, so run the exact
            // sequential algorithm inline.
            return self.sched.submit_batch_into(reqs, out);
        };
        out.clear();
        out.reserve(reqs.len());
        let before = *self.sched.stats();
        // Decide in submission order, each member seeing every earlier
        // grant through the batch overlay.
        self.sched.open_batch();
        let (mut grants, mut probed) = (0, Vec::with_capacity(reqs.len()));
        for req in reqs {
            let (reply, searched) = self.sched.decide(req);
            probed.extend(searched);
            grants += u64::from(reply.is_ok());
            out.push(reply);
        }

        // The commit stage: every grant lands before control returns.
        let mut commits = self.sched.close_batch();
        pool.run(&mut self.sched, |i| {
            (!commits[i].is_empty()).then(|| Stage::Commit(std::mem::take(&mut commits[i])))
        });
        record_requests(&probed, grants, &self.sched.stats().since(&before));
    }
}

impl OnlineScheduler for ShardedScheduler {
    fn advance_to(&mut self, now: Time) {
        ShardedScheduler::advance_to(self, now);
    }
    fn submit(&mut self, req: &Request) -> Result<Grant, ScheduleError> {
        self.sched.submit(req)
    }
    fn stats(&self) -> OpStats {
        ShardedScheduler::stats(self)
    }
    fn utilization(&self, until: Time) -> f64 {
        self.sched.utilization(until)
    }
    fn now(&self) -> Time {
        self.sched.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clock span after which the shards prune their history (tau = 10).
    const PRUNE_SLOTS_SPAN: i64 = coalloc_core::scheduler::PRUNE_EVERY_SLOTS * 10;

    fn small_cfg() -> SchedulerConfig {
        SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(100))
            .delta_t(Dur(10))
            .build()
    }

    #[test]
    fn sharded_matches_basic_grant() {
        for k in [1, 2, 4] {
            let mut s = ShardedScheduler::new(4, k, small_cfg());
            let g = s
                .submit(&Request::on_demand(Time::ZERO, Dur(30), 3))
                .unwrap();
            assert_eq!(g.start, Time::ZERO, "k={k}");
            assert_eq!(g.servers.len(), 3);
            assert_eq!(g.attempts, 1);
            s.check_consistency();
        }
    }

    #[test]
    fn sharded_delays_like_plain() {
        for k in [1, 2] {
            let mut s = ShardedScheduler::new(2, k, small_cfg());
            s.submit(&Request::on_demand(Time::ZERO, Dur(30), 2))
                .unwrap();
            let g = s
                .submit(&Request::on_demand(Time::ZERO, Dur(20), 1))
                .unwrap();
            assert_eq!(g.start, Time(30), "k={k}");
            assert_eq!(g.attempts, 4);
            assert_eq!(g.waiting, Dur(30));
        }
    }

    #[test]
    fn sharded_horizon_and_exhaustion_errors_match() {
        let mut s = ShardedScheduler::new(1, 1, small_cfg());
        let err = s
            .submit(&Request::on_demand(Time::ZERO, Dur(200), 1))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::HorizonExceeded { .. }));

        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(100))
            .delta_t(Dur(10))
            .r_max(2)
            .build();
        let mut s = ShardedScheduler::new(1, 1, cfg);
        s.submit(&Request::on_demand(Time::ZERO, Dur(90), 1))
            .unwrap();
        let err = s
            .submit(&Request::on_demand(Time::ZERO, Dur(10), 1))
            .unwrap_err();
        assert_eq!(
            err,
            ScheduleError::Exhausted {
                attempts: 3,
                last_tried: Time(20)
            }
        );
    }

    #[test]
    fn release_restores_capacity_across_shards() {
        let mut s = ShardedScheduler::new(4, 2, small_cfg());
        let g = s
            .submit(&Request::on_demand(Time::ZERO, Dur(100), 4))
            .unwrap();
        assert!(s
            .submit(&Request::on_demand(Time::ZERO, Dur(20), 1))
            .is_err());
        s.release(g.job).unwrap();
        let g2 = s
            .submit(&Request::on_demand(Time::ZERO, Dur(20), 4))
            .unwrap();
        assert_eq!(g2.start, Time::ZERO);
        assert_eq!(
            s.release(JobId(999)),
            Err(ScheduleError::UnknownJob(JobId(999)))
        );
        s.check_consistency();
    }

    #[test]
    fn deadline_path_matches_plain_semantics() {
        let mut s = ShardedScheduler::new(1, 1, small_cfg());
        s.submit(&Request::on_demand(Time::ZERO, Dur(30), 1))
            .unwrap();
        let g = s
            .submit_with_deadline(&Request::on_demand(Time::ZERO, Dur(20), 1), Time(60))
            .unwrap();
        assert_eq!(g.start, Time(30));
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
    }

    /// Pooled and inline `advance_to` must leave the shards in the same
    /// state. One-member batches keep even the snapshot-visit counters
    /// equal (the pre-batch snapshot *is* the live state), so the whole
    /// `stats()` can be compared. Advance reservations leave finite idle
    /// gaps in front of them; the clock then crosses slots in strides that
    /// evict those gaps, and runs long enough to reach the history prune.
    #[test]
    fn pooled_and_inline_advance_leave_identical_state() {
        let mut pooled = ShardedScheduler::new(6, 3, small_cfg());
        pooled.set_pool_min_batch(0);
        let mut inline = ShardedScheduler::new(6, 3, small_cfg());
        inline.set_pool_min_batch(usize::MAX);
        let mut now = 10i64;
        for round in 0..60i64 {
            let req = Request::advance(
                Time(now),
                Time(now + 15 + (round % 4) * 10),
                Dur(10 + (round % 3) * 15),
                1 + (round % 5) as u32,
            );
            let a = pooled.submit_batch(std::slice::from_ref(&req));
            let b = inline.submit_batch(std::slice::from_ref(&req));
            assert_eq!(a, b, "round {round}");
            assert!(pooled.pooled && !inline.pooled);
            now += 7 + (round % 3) * 11;
            pooled.advance_to(Time(now));
            inline.advance_to(Time(now));
            assert_eq!(pooled.stats(), inline.stats(), "round {round}");
            pooled.check_consistency();
            inline.check_consistency();
        }
        assert!(now > PRUNE_SLOTS_SPAN, "the run must reach a history prune");
        assert!(pooled.stats().periods_removed > 0);
    }

    /// A fresh scheduler already reports its shards' set-up work (seeding
    /// the trailing indexes), exactly as the single scheduler does.
    #[test]
    fn stats_are_complete_from_construction() {
        let single = *CoAllocScheduler::new(7, small_cfg()).stats();
        assert!(single.update_visits > 0);
        assert_eq!(ShardedScheduler::new(7, 1, small_cfg()).stats(), single);
    }

    /// `stats()` sums every counter the shards keep, the ring's included:
    /// one shard reports what the single scheduler reports after the same
    /// grants, releases and slot expiries.
    #[test]
    fn ring_counters_reach_the_aggregate() {
        let mut plain = CoAllocScheduler::new(6, small_cfg());
        let mut sharded = ShardedScheduler::new(6, 1, small_cfg());
        let mut now = 10i64;
        for round in 0..40i64 {
            let req = Request::advance(
                Time(now),
                Time(now + 15 + (round % 4) * 10),
                Dur(10 + (round % 3) * 15),
                1 + (round % 5) as u32,
            );
            let (a, b) = (plain.submit(&req), sharded.submit(&req));
            assert_eq!(a, b, "round {round}");
            if let (Ok(g), 0) = (a, round % 3) {
                assert_eq!(plain.release(g.job), sharded.release(g.job));
            }
            now += 7 + (round % 3) * 11;
            plain.advance_to(Time(now));
            sharded.advance_to(Time(now));
        }
        let (p, s) = (*plain.stats(), sharded.stats());
        let ring = |o: &OpStats| {
            (
                o.ring_period_inserts,
                o.ring_period_removes,
                o.ring_evictions,
            )
        };
        assert_eq!(ring(&p), ring(&s));
        assert!(p.ring_period_inserts > 0 && p.ring_period_removes > 0 && p.ring_evictions > 0);
    }

    /// Jobs that are never released leave every shard's job map when their
    /// history is pruned (`check_consistency` asserts no resident job has
    /// lost all its reservations to the prune).
    #[test]
    fn unreleased_jobs_are_forgotten_at_the_prune() {
        for k in [1, 3] {
            let mut s = ShardedScheduler::new(6, k, small_cfg());
            for boundary in 1..=2 {
                for i in 0..4 {
                    s.submit(&Request::on_demand(s.now(), Dur(20 + 10 * i), 1 + i as u32))
                        .unwrap();
                }
                s.advance_to(Time(boundary * (PRUNE_SLOTS_SPAN + 10)));
                s.check_consistency();
            }
            for job in (0..8).map(JobId) {
                assert_eq!(s.release(job), Err(ScheduleError::UnknownJob(job)), "k={k}");
            }
        }
    }

    /// The pool path must agree with the inline path decision-for-decision,
    /// including members that earlier grants leave too few servers for at
    /// their first start.
    #[test]
    fn pool_path_matches_inline_path_under_contention() {
        // 2 servers, members asking for both: every later member's
        // feasible set is emptied by the earlier commits.
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request::on_demand(Time::ZERO, Dur(10 + (i % 3) * 10), 1 + (i as u32) % 2))
            .collect();
        let mut pooled = ShardedScheduler::new(2, 2, small_cfg());
        pooled.set_pool_min_batch(0); // force every batch through the pool
        let mut inline = ShardedScheduler::new(2, 2, small_cfg());
        inline.set_pool_min_batch(usize::MAX);
        let a = pooled.submit_batch(&reqs);
        let b = inline.submit_batch(&reqs);
        assert_eq!(a, b);
        assert_eq!(pooled.stats().attempts, inline.stats().attempts);
        assert_eq!(
            pooled.stats().attempts_skipped,
            inline.stats().attempts_skipped
        );
        pooled.check_consistency();
        inline.check_consistency();
    }
}
