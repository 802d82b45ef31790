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
//!   threshold): each worker is woken **once per batch per stage**, with its
//!   range lent to it for the stage and handed back in the reply. Phase-1
//!   count ladders for every batch member are probed speculatively against
//!   the pre-batch state in staged-doubling rounds (one message per range per
//!   round), Phase-2 feasible sets for every speculative winner go out in
//!   one more message, and the commits of all accepted members reach each
//!   range in one last message. A speculative decision is *repaired* in
//!   submission order: within a batch capacity only shrinks, so the live
//!   feasible set at the speculative winner's window is the speculative set
//!   minus the periods that an earlier member's grant overlaps, the rest
//!   trimmed to what those grants left of them. If at least `n_r` periods
//!   survive, selection over the survivors *is* the sequential decision;
//!   only otherwise is the member re-probed by the driver against live
//!   state. The accounting of an accepted or rejected member is the
//!   driver's walk of the ladder replayed against the live profile with no
//!   probe. Decisions are bit-identical to sequential submission either
//!   way. See DESIGN.md §9 for the full argument.
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

use crate::pool::{CommitBuf, Done, EnumBuf, Pool, Probe, ProbeJob, Round, Stage};
use coalloc_core::ladder::Placement;
use coalloc_core::prelude::*;
use coalloc_core::scheduler::record_requests;
use coalloc_core::snapshot::{SnapshotError, StateImage};
use coalloc_sim::runner::OnlineScheduler;
use obs::{LazyCounter, LazyHistogram};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Work in a batch — members × servers in the system — from which
/// `submit_batch` hands it to the worker pool by default instead of running
/// it inline: 16 members at 8,192 servers, 64 at 2,048. A pooled batch pays
/// four cross-thread rendezvous whatever its size, while what the workers
/// save grows with the feasible sets they enumerate and the commits they
/// apply, so small systems are better off inline (break-even measured in
/// EXPERIMENTS.md, "Repairing speculative batch decisions"). Only reached
/// when the host has more than one CPU — on a single CPU the pool can only
/// add context switches, so the bypass threshold defaults to "never".
/// Overridable per instance with [`ShardedScheduler::set_pool_min_batch`].
const POOL_MIN_WORK: u64 = 1 << 17;

// Batched-execution metrics: how work reaches the workers (batch sizes), how
// often a speculative decision had to be repaired against earlier in-batch
// grants and how much of it that cost, and how often repair was not enough
// and the member was re-probed sequentially.
static BATCH_SIZE: LazyHistogram = LazyHistogram::new("shard_batch_size");
static BATCH_REPAIRED: LazyCounter = LazyCounter::new("shard_batch_repaired_total");
static BATCH_REPAIR_DROPPED: LazyHistogram = LazyHistogram::new("shard_batch_repair_dropped");
static BATCH_REPROBES: LazyCounter = LazyCounter::new("shard_batch_repro_probes_total");

/// Reusable buffers of the pooled batch path.
#[derive(Debug, Default)]
struct PoolScratch {
    /// Repaired feasible set of the current member.
    feasible: Vec<IdlePeriod>,
    /// Per range: the commits queued for it, chosen servers grouped by
    /// owner; they collect over a batch and travel to the worker and back.
    commits: Vec<CommitBuf>,
    /// Per range: the enumerate-stage buffer (travels likewise).
    enums: Vec<EnumBuf>,
    /// The windows of the enumerate stage (see [`EnumBuf::windows`]).
    windows: Vec<(Time, Time, bool)>,
    /// Starts searched by each member of the batch that reached its ladder.
    probed: Vec<u64>,
    /// Every window granted earlier in the current batch, per server.
    granted: BatchGrants,
}


/// The windows granted so far in the current pooled batch, per server —
/// what a later member's speculative feasible set is repaired against.
/// Fallback grants are logged too: a later member must see every in-batch
/// commit, however it was decided.
#[derive(Debug, Default)]
struct BatchGrants {
    /// Per global server id: index in `log` of its latest grant, or
    /// [`BatchGrants::NONE`].
    head: Vec<u32>,
    /// One entry per (grant, server), chained per server through `prev`.
    log: Vec<LoggedGrant>,
}

#[derive(Clone, Copy, Debug)]
struct LoggedGrant {
    server: u32,
    start: Time,
    end: Time,
    /// The same server's previous entry in the log.
    prev: u32,
}

/// What in-batch grants did to one speculative feasible period.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Repair {
    /// No in-batch grant touches the period.
    Intact,
    /// Grants beside the window shortened the period; it still covers it.
    Trimmed,
    /// A grant overlaps the window: the server is no longer feasible.
    Dropped,
}

impl BatchGrants {
    const NONE: u32 = u32::MAX;

    /// Forget the previous batch (touching only the servers it touched).
    fn reset(&mut self, num_servers: u32) {
        for g in self.log.drain(..) {
            self.head[g.server as usize] = Self::NONE;
        }
        self.head.resize(num_servers as usize, Self::NONE);
    }

    fn push(&mut self, server: ServerId, start: Time, end: Time) {
        let head = &mut self.head[server.0 as usize];
        self.log.push(LoggedGrant {
            server: server.0,
            start,
            end,
            prev: *head,
        });
        *head = (self.log.len() - 1) as u32;
    }

    /// Bring `p` — an idle period of the pre-batch snapshot that covers
    /// `[start, end)` — up to date with the grants logged on its server.
    ///
    /// Within a batch the clock stands still and members only commit, so
    /// the server's live idle periods are the snapshot's minus the logged
    /// windows. If one of those overlaps `[start, end)`, nothing on the
    /// server covers the window any more. Otherwise every logged window
    /// lies wholly left or wholly right of it, and the live period around
    /// the window starts at the latest logged end on the left and ends at
    /// the earliest logged start on the right (a trailing period becomes
    /// finite). Windows logged outside `p` — in another idle period of the
    /// same server — fall outside `[p.start, p.end)` and change nothing.
    fn repair(&self, p: &mut IdlePeriod, start: Time, end: Time) -> Repair {
        let mut outcome = Repair::Intact;
        let mut at = self.head[p.server.0 as usize];
        while at != Self::NONE {
            let g = &self.log[at as usize];
            if g.start < end && g.end > start {
                return Repair::Dropped;
            }
            if g.end <= start {
                if g.end > p.start {
                    p.start = g.end;
                    outcome = Repair::Trimmed;
                }
            } else if g.start < p.end {
                p.end = g.start;
                outcome = Repair::Trimmed;
            }
            at = g.prev;
        }
        outcome
    }
}

/// Per-request bookkeeping for the speculative batch path.
#[derive(Debug)]
struct ReqSlot {
    /// The request's ladder (stage 1 climbs it; stage 3 replays a restarted
    /// copy), or the validation error that answers it unprobed.
    ladder: Result<Ladder, ScheduleError>,
    /// Current staged-doubling round size.
    want: usize,
    /// Every start probed against the pre-batch state, in ladder order,
    /// summed over the ranges; the driver's work there is charged only if
    /// the speculative decision is accepted.
    probes: Vec<Probe>,
    /// Speculative winner: its index in `probes`.
    winner: Option<usize>,
    /// Speculative reject: the ladder exhausted every permitted start.
    rejected: bool,
    /// Index of this request's window in the enumerate stage.
    enum_k: usize,
}

impl ReqSlot {
    fn probing(&self) -> bool {
        self.ladder.is_ok() && self.winner.is_none() && !self.rejected
    }
}

/// Replay the scheduler's driver on `ladder` against the live `profile`
/// with no probe: every start it searches up to and including `winner`
/// (all of them without one) was probed against the pre-batch state too —
/// in-batch grants only remove capacity, so the live profile refutes at
/// least what the pre-batch one did — and `spent` is charged that start's
/// work from `probes`. Returns the number of starts searched.
fn replay(
    mut ladder: Ladder,
    profile: &FreeProfile,
    winner: Option<u64>,
    probes: &[Probe],
    spent: &mut OpStats,
) -> u64 {
    let mut probes = probes.iter();
    let mut searched = 0;
    while let Some((k, _)) = ladder.next(profile) {
        searched += 1;
        let probe = probes.find(|p| p.k == k).expect("a live start was probed");
        spent.accumulate(&probe.stats);
        if Some(k) == winner {
            return searched;
        }
    }
    debug_assert_eq!(winner, None, "an accepted winner's start is live-reachable");
    searched
}

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
    scratch: PoolScratch,
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
            scratch: PoolScratch {
                commits: (0..k).map(|_| CommitBuf::default()).collect(),
                enums: (0..k).map(|_| EnumBuf::default()).collect(),
                ..PoolScratch::default()
            },
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
    /// submissions were grouped into batches, except that speculative
    /// probes measure their work against the pre-batch state, so the
    /// state-dependent probe counters (`primary_visits`,
    /// `secondary_visits`, `phase2_searches`) can drift; attempts, skips
    /// (including `attempts_jumped`), phase-1 searches and all
    /// structural-update counters are grouping-invariant exactly.
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
    /// pool threshold the coordination is amortized: each worker is woken
    /// once per batch per stage instead of once per request.
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
    pub fn submit_batch_into(
        &mut self,
        reqs: &[Request],
        out: &mut Vec<Result<Grant, ScheduleError>>,
    ) {
        if self.pool.is_some() {
            BATCH_SIZE.observe(reqs.len() as u64);
        }
        self.pooled = self.pool.is_some() && reqs.len() >= self.pool_min_batch;
        if !self.pooled {
            // Load-adaptive bypass: below the threshold the rendezvous
            // cost of the pool exceeds its parallelism, so run the exact
            // sequential algorithm inline.
            return self.sched.submit_batch_into(reqs, out);
        }
        out.clear();
        self.submit_batch_pool(reqs, out);
    }

    /// The speculative pool path of [`Self::submit_batch`]. Requires the
    /// pool to exist; decisions are bit-identical to the inline path.
    fn submit_batch_pool(
        &mut self,
        reqs: &[Request],
        out: &mut Vec<Result<Grant, ScheduleError>>,
    ) {
        let pool = self.pool.as_ref().expect("pool path");
        let before = *self.sched.stats();

        // Per-request setup: validation and ladder bounds, exactly as the
        // sequential path derives them (the clock is constant across the
        // batch, so `earliest` and the horizon are batch-invariant).
        let mut slots: Vec<ReqSlot> = reqs
            .iter()
            .map(|req| ReqSlot {
                ladder: self.sched.ladder(req, self.sched.num_servers(), None),
                want: 1,
                probes: Vec::new(),
                winner: None,
                rejected: false,
                enum_k: usize::MAX,
            })
            .collect();

        // Stage 1 — speculative ladders against the pre-batch state, in
        // staged-doubling rounds: every round wakes each worker once with
        // the windows of every still-unresolved member, and each answers
        // Phase 1 and the feasible count per window. Gathering consults the
        // pre-batch capacity profile: a start it refutes has even less
        // capacity live (in-batch commits only remove capacity), so pruning
        // it cannot change any decision.
        let mut idx_map: Vec<usize> = Vec::new();
        loop {
            idx_map.clear();
            let mut jobs = Vec::new();
            for (i, slot) in slots.iter_mut().enumerate() {
                if !slot.probing() {
                    continue;
                }
                let ladder = slot.ladder.as_mut().expect("probing implies a ladder");
                let round = Round::gather(ladder, self.sched.profile(), slot.want);
                if round.m == 0 {
                    slot.rejected = true;
                    continue;
                }
                jobs.push(ProbeJob {
                    round,
                    duration: reqs[i].duration,
                });
                idx_map.push(i);
            }
            if jobs.is_empty() {
                break;
            }
            let jobs = Arc::new(jobs);
            let done = pool.run(&mut self.sched, |_| Some(Stage::Probe(Arc::clone(&jobs))));
            let mut answers = done.into_iter().map(|(shard, done)| match done {
                Done::Probed(probes) => probes,
                other => panic!("unexpected reply of shard {shard}: {other:?}"),
            });
            let mut sums = answers.next().expect("every range answers");
            for answer in answers {
                for (sum, p) in sums.iter_mut().zip(&answer) {
                    sum.add(p);
                }
            }
            let mut sums = sums.into_iter();
            for (job, &i) in jobs.iter().zip(&idx_map) {
                slots[i].probes.extend(sums.by_ref().take(job.round.m));
            }
            // Resolve this round per request: the winner is the first
            // gathered window with enough capacity.
            for (job, &i) in jobs.iter().zip(&idx_map) {
                let slot = &mut slots[i];
                let from = slot.probes.len() - job.round.m;
                let n = u64::from(reqs[i].servers);
                match slot.probes[from..].iter().position(|p| p.feasible >= n) {
                    Some(w) => slot.winner = Some(from + w),
                    None => slot.want = Round::doubled(slot.want),
                }
            }
        }

        // Stage 2 — Phase 2 wherever the driver would run it: at every
        // probed start up to the winner (all of them without one) whose
        // candidates reach `n_r`, the winner's feasible set kept. One
        // message per range; each range fills its own flat buffer.
        self.scratch.windows.clear();
        let mut enum_at: Vec<(usize, usize)> = Vec::new();
        for (i, slot) in slots.iter_mut().enumerate() {
            let n = u64::from(reqs[i].servers);
            let walked = slot.winner.map_or(slot.probes.len(), |w| w + 1);
            for (p, probe) in slot.probes[..walked].iter().enumerate() {
                if probe.candidates >= n {
                    let wanted = slot.winner == Some(p);
                    if wanted {
                        slot.enum_k = enum_at.len();
                    }
                    let end = probe.start + reqs[i].duration;
                    self.scratch.windows.push((probe.start, end, wanted));
                    enum_at.push((i, p));
                }
            }
        }
        if !enum_at.is_empty() {
            let (windows, enums) = (&self.scratch.windows, &mut self.scratch.enums);
            let done = pool.run(&mut self.sched, |i| {
                let mut buf = std::mem::take(&mut enums[i]);
                buf.windows.clone_from(windows);
                Some(Stage::Enumerate(buf))
            });
            for (shard, done) in done {
                let Done::Enumerated(buf) = done else {
                    panic!("unexpected reply of shard {shard}: {done:?}");
                };
                for (&(i, p), d) in enum_at.iter().zip(&buf.deltas) {
                    slots[i].probes[p].stats.accumulate(d);
                }
                self.scratch.enums[shard as usize] = buf;
            }
        }

        let enums = std::mem::take(&mut self.scratch.enums);
        let mut granted = std::mem::take(&mut self.scratch.granted);
        let mut feasible = std::mem::take(&mut self.scratch.feasible);
        let mut probed = std::mem::take(&mut self.scratch.probed);
        granted.reset(self.sched.num_servers());
        probed.clear();
        let (mut grants, mut repaired, mut reprobed) = (0u64, 0u64, 0u64);
        out.reserve(reqs.len());
        for (req, slot) in reqs.iter().zip(&slots) {
            let ladder = match slot.ladder {
                Ok(ladder) => ladder.restarted(),
                Err(e) => {
                    out.push(Err(e));
                    continue;
                }
            };
            let n = req.servers as usize;
            if let Some(w) = slot.winner {
                let start = slot.probes[w].start;
                let end = start + req.duration;
                feasible.clear();
                let (mut dropped, mut trimmed) = (0u64, false);
                for range in &enums {
                    for p in range.set(slot.enum_k) {
                        let mut p = *p;
                        match granted.repair(&mut p, start, end) {
                            Repair::Intact => feasible.push(p),
                            Repair::Trimmed => {
                                trimmed = true;
                                feasible.push(p);
                            }
                            Repair::Dropped => dropped += 1,
                        }
                    }
                }
                if feasible.len() < n {
                    // Earlier grants took the window: land the queued commits
                    // (per-range order is submission order) and re-run the
                    // driver against live state.
                    reprobed += 1;
                    self.flush_commits();
                    let (res, searched) = self.sched.search(req, ladder, AttrSet::NONE);
                    probed.push(searched);
                    if let Ok(g) = &res {
                        grants += 1;
                        for &s in &g.servers {
                            granted.push(s, g.start, g.end);
                        }
                    }
                    out.push(res);
                    continue;
                }
                if dropped > 0 || trimmed {
                    repaired += 1;
                    BATCH_REPAIR_DROPPED.observe(dropped);
                }
            }
            // The speculative outcome stands: a reject is exact (capacity
            // only shrank in-batch), a repaired winner is where the live
            // search would stop. The accounting is the driver's walk
            // replayed against the *live* profile with no probe — the live
            // ladder may jump more starts than the pre-batch one did
            // (identical when jumping is off) — charging the work the
            // driver would have done at each start it reaches, so attempts,
            // skips and Phase-1 searches equal sequential submission's. The
            // replay must precede this member's own profile update.
            let winner = slot.winner.map(|w| slot.probes[w].k);
            let mut spent = OpStats::new();
            let attempts = replay(ladder, self.sched.profile(), winner, &slot.probes, &mut spent);
            let (_, stats) = self.sched.parts_mut();
            stats.accumulate(&spent);
            probed.push(attempts);
            let settled = ladder.settle(winner, attempts, stats);
            out.push(settled.map(|at| {
                self.sched.config().policy.select_in_place(&mut feasible, n, at.end);
                for p in &feasible {
                    granted.push(p.server, at.start, at.end);
                }
                grants += 1;
                self.accept(at, &feasible)
            }));
        }
        self.scratch.enums = enums;
        self.scratch.granted = granted;
        self.scratch.feasible = feasible;
        // Every accepted member's commit lands before control returns.
        self.flush_commits();
        record_requests(&probed, grants, &self.sched.stats().since(&before));
        self.scratch.probed = probed;
        if repaired > 0 {
            BATCH_REPAIRED.add(repaired);
        }
        if reprobed > 0 {
            BATCH_REPROBES.add(reprobed);
        }
    }

    /// The pooled grant epilogue: [`CoAllocScheduler::grant`], with the
    /// commit queued for the ranges owning the chosen servers.
    fn accept(&mut self, at: Placement, chosen: &[IdlePeriod]) -> Grant {
        let grant = self.sched.grant(at, chosen.iter().map(|p| p.server).collect());
        let mut begun = 0u64; // one bit per range
        for &server in &grant.servers {
            let r = self.sched.range_of(server);
            if begun & (1 << r) == 0 {
                begun |= 1 << r;
                self.scratch.commits[r].begin(grant.job, at.start, at.end);
            }
            self.scratch.commits[r].add_server(server);
        }
        grant
    }

    /// Hand every range its queued commits in one message and wait until
    /// all of them have been applied. Ranges apply their queue in order,
    /// so queueing in submission order keeps every range's period-id
    /// minting identical to sequential submission.
    fn flush_commits(&mut self) {
        let pool = self.pool.as_ref().expect("pool path");
        let commits = &mut self.scratch.commits;
        let done = pool.run(&mut self.sched, |i| {
            (!commits[i].is_empty()).then(|| Stage::Commit(std::mem::take(&mut commits[i])))
        });
        for (shard, done) in done {
            let Done::Committed(buf) = done else {
                panic!("unexpected shard reply {done:?}");
            };
            self.scratch.commits[shard as usize] = buf;
        }
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
    use coalloc_core::ids::PeriodId;

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
            let g = s.submit(&Request::on_demand(Time::ZERO, Dur(30), 3)).unwrap();
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
            s.submit(&Request::on_demand(Time::ZERO, Dur(30), 2)).unwrap();
            let g = s.submit(&Request::on_demand(Time::ZERO, Dur(20), 1)).unwrap();
            assert_eq!(g.start, Time(30), "k={k}");
            assert_eq!(g.attempts, 4);
            assert_eq!(g.waiting, Dur(30));
        }
    }

    #[test]
    fn sharded_horizon_and_exhaustion_errors_match() {
        let mut s = ShardedScheduler::new(1, 1, small_cfg());
        let err = s.submit(&Request::on_demand(Time::ZERO, Dur(200), 1)).unwrap_err();
        assert!(matches!(err, ScheduleError::HorizonExceeded { .. }));

        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(100))
            .delta_t(Dur(10))
            .r_max(2)
            .build();
        let mut s = ShardedScheduler::new(1, 1, cfg);
        s.submit(&Request::on_demand(Time::ZERO, Dur(90), 1)).unwrap();
        let err = s.submit(&Request::on_demand(Time::ZERO, Dur(10), 1)).unwrap_err();
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
        let g = s.submit(&Request::on_demand(Time::ZERO, Dur(100), 4)).unwrap();
        assert!(s.submit(&Request::on_demand(Time::ZERO, Dur(20), 1)).is_err());
        s.release(g.job).unwrap();
        let g2 = s.submit(&Request::on_demand(Time::ZERO, Dur(20), 4)).unwrap();
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
        s.submit(&Request::on_demand(Time::ZERO, Dur(30), 1)).unwrap();
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

    fn idle(server: u32, start: i64, end: Time) -> IdlePeriod {
        IdlePeriod {
            id: PeriodId(u64::from(server)),
            server: ServerId(server),
            start: Time(start),
            end,
        }
    }

    /// The repair rule, case by case, for a member whose window is
    /// `[40, 60)` and whose speculative set holds `[10, 90)` on server 0
    /// and the trailing `[10, inf)` on server 1.
    #[test]
    fn repair_rule_on_hand_built_cases() {
        let (s, e) = (Time(40), Time(60));
        let finite = idle(0, 10, Time(90));
        let trailing = idle(1, 10, Time::INF);
        let repaired = |grants: &[(u32, i64, i64)], mut p: IdlePeriod| {
            let mut g = BatchGrants::default();
            g.reset(3);
            for &(srv, a, b) in grants {
                g.push(ServerId(srv), Time(a), Time(b));
            }
            let outcome = g.repair(&mut p, s, e);
            (outcome, p.start, p.end)
        };
        // Nothing granted on the server; grants on other servers only.
        assert_eq!(repaired(&[], finite), (Repair::Intact, Time(10), Time(90)));
        assert_eq!(
            repaired(&[(2, 40, 60), (1, 0, 100)], finite),
            (Repair::Intact, Time(10), Time(90))
        );
        // Left of the window, inside the period: the start moves up — also
        // when the grant ends exactly where the window starts.
        assert_eq!(repaired(&[(0, 20, 30)], finite), (Repair::Trimmed, Time(30), Time(90)));
        assert_eq!(repaired(&[(0, 10, 40)], finite), (Repair::Trimmed, Time(40), Time(90)));
        // Right of it: the end moves down; a trailing period becomes finite.
        assert_eq!(repaired(&[(0, 60, 70)], finite), (Repair::Trimmed, Time(10), Time(60)));
        assert_eq!(repaired(&[(1, 75, 500)], trailing), (Repair::Trimmed, Time(10), Time(75)));
        // Overlapping the window by any amount: the server is gone.
        for grant in [(0, 30, 41), (0, 59, 70), (0, 45, 50), (0, 40, 60), (0, 10, 90)] {
            assert_eq!(repaired(&[grant], finite).0, Repair::Dropped, "{grant:?}");
        }
        // On the same server but in another idle period (before 10, or
        // from 90 on): the period is not the one that was carved.
        assert_eq!(
            repaired(&[(0, 0, 10), (0, 90, 120), (0, 200, 300)], finite),
            (Repair::Intact, Time(10), Time(90))
        );
        // Several grants on one server: the nearest on each side decide,
        // in whatever order they were logged; one overlap drops the lot.
        let several = [(0, 12, 20), (0, 70, 80), (0, 25, 35), (0, 62, 66), (0, 0, 5)];
        assert_eq!(repaired(&several, finite), (Repair::Trimmed, Time(35), Time(62)));
        let mut reversed = several;
        reversed.reverse();
        assert_eq!(repaired(&reversed, finite), (Repair::Trimmed, Time(35), Time(62)));
        let mut with_overlap = several.to_vec();
        with_overlap.push((0, 55, 58));
        assert_eq!(repaired(&with_overlap, finite).0, Repair::Dropped);
    }

    /// `reset` forgets exactly the previous batch.
    #[test]
    fn batch_grants_reset_clears_only_what_was_touched() {
        let mut g = BatchGrants::default();
        g.reset(4);
        g.push(ServerId(2), Time(0), Time(50));
        let mut p = idle(2, 0, Time::INF);
        assert_eq!(g.repair(&mut p, Time(10), Time(20)), Repair::Dropped);
        g.reset(4);
        assert!(g.log.is_empty() && g.head.iter().all(|&h| h == BatchGrants::NONE));
        assert_eq!(g.repair(&mut p, Time(10), Time(20)), Repair::Intact);
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
        let ring = |o: &OpStats| (o.ring_period_inserts, o.ring_period_removes, o.ring_evictions);
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
    /// including members that earlier grants leave too few servers for
    /// (the fallback to a sequential search).
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
