//! # coalloc-shard
//!
//! A sharded, parallel front-end for the co-allocation scheduler.
//!
//! The `M` servers are partitioned into `K` contiguous shards, each a
//! [`ServerIndex`] — the same timeline + slot-ring + trailing index +
//! job map the single scheduler runs on — over its servers. A coordinator
//! ([`ShardedScheduler`]) drives the paper's online algorithm: every
//! request gets the one retry [`Ladder`] of `coalloc-core`, and the
//! coordinator only decides how its starts reach the shards. It executes
//! in one of two modes:
//!
//! * **Inline** (per-request `submit`, and batches below the pool
//!   threshold): the coordinator locks each shard directly and probes the
//!   ladder in staged-doubling rounds, summing per-shard counts — no
//!   threads are woken, so the low-load path costs the same as the single
//!   scheduler plus a handful of uncontended mutex acquisitions.
//! * **Batched pool** ([`ShardedScheduler::submit_batch`] above the
//!   threshold): each shard worker is woken **once per batch per stage**.
//!   Phase-1 count ladders for every batch member are probed speculatively
//!   against the pre-batch snapshot in staged-doubling rounds (one mailbox
//!   message per shard per round), Phase-2 feasible sets for every
//!   speculative winner go out in one more message, and the commits of all
//!   accepted members reach each shard in one last message. A speculative
//!   decision is *repaired* in submission order: within a batch capacity
//!   only shrinks, so the live feasible set at the speculative winner's
//!   window is the speculative set minus the periods that an earlier
//!   member's grant overlaps, the rest trimmed to what those grants left
//!   of them. If at least `n_r` periods survive, selection over the
//!   survivors *is* the sequential decision; only otherwise is the member
//!   re-probed sequentially against live state. The accounting of an
//!   accepted or rejected member is the same rounds replayed against the
//!   live profile with no probe. Decisions are bit-identical to sequential
//!   submission either way. See DESIGN.md §9 for the full argument.
//!
//! **Decision equivalence.** Feasible counts are partition sums and every
//! feasible set holds at most one period per server, so every policy's
//! selection key is total before its id tie-break: a sharded run makes the
//! same grant/reject decisions, start times, attempt counts, *and server
//! choices* as [`CoAllocScheduler`] for every policy and every `K` —
//! batched or not.
//!
//! **Attempt jumping.** The coordinator maintains the same free-capacity
//! profile as the core scheduler (DESIGN.md §14) and hands it to
//! [`Ladder::next`], which skips retry starts that are provably infeasible
//! *before* any shard is locked or woken — in the inline rounds and when
//! assembling the pool's speculative probe rounds alike. The profile bound
//! is partition-independent (it counts servers busy throughout a slot,
//! regardless of which shard owns them), so jumping never changes a
//! decision here either.
//!
//! **One command surface.** Server attributes live on the coordinator;
//! a constrained submit is the inline driver with the retrieval step
//! filtered by the tags, a range search is the shards' feasible sets
//! concatenated in server order, and the persistent state is the same
//! [`StateImage`] the single scheduler writes — the shards only export and
//! install their own servers' share, so the text does not depend on `K`
//! (DESIGN.md §9, §13).
//!
//! With `K = 1` the coordinator always runs the shard inline — no threads,
//! no channels — so that configuration measures pure coordinator overhead
//! against [`CoAllocScheduler`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod pool;

use crate::pool::{Cmd, CommitBuf, EnumBuf, ProbeJob, ProbeStage, Reply, Round, MAX_BATCH};
use coalloc_core::ladder::Placement;
use coalloc_core::prelude::*;
use coalloc_core::range_search::range_search_with;
use coalloc_core::scheduler::record_requests;
use coalloc_core::snapshot::{SnapshotError, StateImage};
use coalloc_sim::runner::OnlineScheduler;
use obs::{LazyCounter, LazyHistogram};
use std::sync::{Arc, Mutex};

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

// Batched-execution metrics: how work reaches the shards (batch sizes), how
// often a speculative decision had to be repaired against earlier in-batch
// grants and how much of it that cost, and how often repair was not enough
// and the member was re-probed sequentially.
static BATCH_SIZE: LazyHistogram = LazyHistogram::new("shard_batch_size");
static BATCH_REPAIRED: LazyCounter = LazyCounter::new("shard_batch_repaired_total");
static BATCH_REPAIR_DROPPED: LazyHistogram = LazyHistogram::new("shard_batch_repair_dropped");
static BATCH_REPROBES: LazyCounter = LazyCounter::new("shard_batch_repro_probes_total");

/// How the coordinator talks to its shards.
#[derive(Debug)]
struct Backend {
    /// The shards. The coordinator locks them directly for all
    /// sequential work (the load-adaptive bypass); pool workers lock them
    /// for batch stages. The two never contend: the coordinator collects
    /// every reply of a stage before it touches a shard inline.
    states: Vec<Arc<Mutex<ServerIndex>>>,
    /// Worker pool, spawned only for `K > 1`.
    pool: Option<Pool>,
}

/// The worker-pool half of the backend.
#[derive(Debug)]
struct Pool {
    cmd: Vec<crossbeam::channel::Sender<Cmd>>,
    reply: crossbeam::channel::Receiver<Reply>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Coordinator-side reusable buffers, so steady-state submission (inline
/// or batched) performs no per-request heap allocation beyond the returned
/// `Grant`.
#[derive(Debug, Default)]
struct CoordScratch {
    /// Merged feasible set of the winning attempt.
    feasible: Vec<IdlePeriod>,
    /// Per shard: the commits queued for it, chosen servers grouped by
    /// owner. Applied inline at once on the sequential path; on the pool
    /// path they collect over a batch and travel to the worker and back.
    commits: Vec<CommitBuf>,
    /// Per shard: the enumerate-stage buffer (travels likewise).
    enums: Vec<EnumBuf>,
    /// The winners' windows of the enumerate stage.
    windows: Vec<(Time, Time)>,
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
    /// Phase-1 windows actually probed against the pre-batch snapshot
    /// (for the live-ladder accounting adjustment in stage 3).
    windows: u64,
    /// Probe/enumerate tree-op work, charged only if the speculative
    /// decision is accepted.
    delta: OpStats,
    /// Speculative winner: `(logical attempt index, start)`.
    winner: Option<(u64, Time)>,
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

/// Climb `ladder` in staged-doubling rounds (1, 2, 4 … [`MAX_BATCH`] starts)
/// until `hit` names the winning position within a round or the ladder runs
/// out. Returns the winner's attempt index, the attempts charged — a round
/// is gathered whole but charged only through the winner's position — and
/// the windows gathered.
fn climb(
    mut ladder: Ladder,
    profile: &FreeProfile,
    mut hit: impl FnMut(&Round) -> Option<usize>,
) -> (Option<u64>, u64, u64) {
    let (mut attempts, mut windows, mut want) = (0u64, 0u64, 1usize);
    loop {
        let round = Round::gather(&mut ladder, profile, want);
        if round.m == 0 {
            return (None, attempts, windows);
        }
        windows += round.m as u64;
        if let Some(i) = hit(&round) {
            return (Some(round.ks[i]), attempts + i as u64 + 1, windows);
        }
        attempts += round.m as u64;
        want = Round::doubled(want);
    }
}

/// The sharded parallel co-allocation scheduler.
///
/// Drop-in equivalent of [`CoAllocScheduler`]; see the crate docs for the
/// equivalence guarantees.
#[derive(Debug)]
pub struct ShardedScheduler {
    cfg: SchedulerConfig,
    slot_cfg: SlotConfig,
    num_servers: u32,
    origin: Time,
    now: Time,
    /// Capability tags per server (see [`Self::submit_constrained`]).
    attrs: Vec<AttrSet>,
    /// First live slot — mirrors every shard ring's base.
    base_slot: SlotIdx,
    /// `(base, count)` of each shard's server range.
    layout: Vec<(u32, u32)>,
    backend: Backend,
    /// Latest cumulative [`OpStats`] seen from each shard.
    shard_stats: Vec<OpStats>,
    /// Coordinator-side counters: attempt accounting plus the probe work
    /// of accepted speculative batch decisions.
    local: OpStats,
    /// Aggregate free-capacity upper bound over the live slot window,
    /// maintained from the same commit/release deltas the shards see. The
    /// retry loop uses it to jump over provably-infeasible starts before
    /// any shard is probed (inline) or woken (pool stage 1).
    profile: FreeProfile,
    next_job: u64,
    /// Batch size below which `submit_batch` bypasses the pool.
    pool_min_batch: usize,
    /// Whether the most recent batch ran on the pool. `advance_to` follows
    /// it: while batches are pooled the shard states stay on their
    /// workers' cores, and a scheduler that never pools never wakes one.
    pooled: bool,
    scratch: CoordScratch,
}

impl ShardedScheduler {
    /// Create a sharded scheduler over `num_servers` servers split into `k`
    /// shards, clock at the epoch. `k` is clamped to `[1, min(64,
    /// num_servers)]` so every shard owns at least one server and a
    /// commit's shard mask fits a word.
    ///
    /// Decisions are bit-identical to a single [`CoAllocScheduler`] over
    /// the same servers, for every `k`:
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
        ShardedScheduler::starting_at(num_servers, k, Time::ZERO, cfg)
    }

    /// Create a sharded scheduler with the clock at `origin`.
    pub fn starting_at(
        num_servers: u32,
        k: u32,
        origin: Time,
        cfg: SchedulerConfig,
    ) -> ShardedScheduler {
        assert!(num_servers > 0, "a system needs at least one server");
        let k = k.clamp(1, num_servers.min(64));
        let slot_cfg = cfg.slot_config();
        // Contiguous partition: the first `rem` shards get one extra server.
        let per = num_servers / k;
        let rem = num_servers % k;
        let mut layout = Vec::with_capacity(k as usize);
        let mut base = 0u32;
        for i in 0..k {
            let count = per + u32::from(i < rem);
            layout.push((base, count));
            base += count;
        }
        let indexes: Vec<ServerIndex> = layout
            .iter()
            .enumerate()
            .map(|(i, &(base, count))| {
                let seed = cfg.seed ^ (i as u64).wrapping_mul(0xA24BAED4963EE407);
                ServerIndex::new(slot_cfg, base, count, origin, seed)
            })
            .collect();
        let shard_stats = indexes.iter().map(|ix| *ix.stats()).collect();
        let states: Vec<_> = indexes.into_iter().map(|ix| Arc::new(Mutex::new(ix))).collect();
        let pool = if k == 1 {
            None
        } else {
            let (cmd, reply, handles) = pool::spawn_workers(&states);
            Some(Pool {
                cmd,
                reply,
                handles,
            })
        };
        // Load-adaptive default: the pool only pays off when batch stages
        // can actually run in parallel, so a single-CPU host keeps every
        // batch on the inline path.
        let pool_min_batch = match std::thread::available_parallelism() {
            Ok(p) if p.get() > 1 && pool.is_some() => {
                (POOL_MIN_WORK / u64::from(num_servers)).max(1) as usize
            }
            _ => usize::MAX,
        };
        ShardedScheduler {
            cfg,
            slot_cfg,
            num_servers,
            origin,
            now: origin,
            attrs: vec![AttrSet::NONE; num_servers as usize],
            base_slot: slot_cfg.slot_of(origin),
            layout,
            backend: Backend { states, pool },
            shard_stats,
            local: OpStats::new(),
            profile: FreeProfile::new(slot_cfg, num_servers, origin),
            next_job: 0,
            pool_min_batch,
            pooled: false,
            scratch: CoordScratch {
                commits: (0..k).map(|_| CommitBuf::default()).collect(),
                enums: (0..k).map(|_| EnumBuf::default()).collect(),
                ..CoordScratch::default()
            },
        }
    }

    /// The number of shards.
    pub fn num_shards(&self) -> u32 {
        self.layout.len() as u32
    }

    /// Number of servers `N`.
    pub fn num_servers(&self) -> u32 {
        self.num_servers
    }

    /// The configuration in force.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// The scheduler's current clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The clock value the scheduler started at.
    pub fn origin(&self) -> Time {
        self.origin
    }

    /// First instant covered by the live slot window.
    pub fn window_start(&self) -> Time {
        self.slot_cfg.slot_start(self.base_slot)
    }

    /// End of the current scheduling horizon.
    pub fn horizon_end(&self) -> Time {
        self.slot_cfg
            .slot_start(SlotIdx(self.base_slot.0 + self.slot_cfg.num_slots as i64))
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

    /// Aggregated operation counters: the sum of every shard's tree work
    /// plus the coordinator's attempt accounting and accepted speculative
    /// probe work. Independent of how submissions were grouped into
    /// batches, except that speculative probes measure their work against
    /// the pre-batch snapshot, so the snapshot-dependent probe counters
    /// (`primary_visits`, `secondary_visits`, `phase2_searches`) can
    /// drift; attempts, skips (including `attempts_jumped`), phase-1
    /// searches and all structural-update counters are grouping-invariant
    /// exactly.
    pub fn stats(&self) -> OpStats {
        let mut total = self.local;
        for s in &self.shard_stats {
            total.accumulate(s);
        }
        total
    }

    /// Advance the clock. Shards only hear about it when the live slot
    /// window actually moves (ring rotation and prune cadence depend only on
    /// the slot index, so intra-slot advances are a coordinator-local no-op).
    /// They advance where the last batch ran: on their workers, in
    /// parallel, after a pooled batch; inline otherwise.
    pub fn advance_to(&mut self, now: Time) {
        if now <= self.now {
            return;
        }
        self.now = now;
        let target = self.slot_cfg.slot_of(now);
        if target <= self.base_slot {
            return;
        }
        self.base_slot = target;
        self.profile.advance_to(now);
        if self.pooled {
            let pool = self.backend.pool.as_ref().expect("pooled implies a pool");
            for tx in &pool.cmd {
                tx.send(Cmd::Advance { now }).expect("shard worker alive");
            }
            for _ in 0..self.backend.states.len() {
                match self.recv_reply() {
                    Reply::Advanced { shard, stats } => self.shard_stats[shard as usize] = stats,
                    other => panic!("unexpected shard reply {other:?}"),
                }
            }
        } else {
            for i in 0..self.backend.states.len() {
                self.on_shard(i, |st| st.advance_to(now));
            }
        }
    }

    /// Handle a request — the same online algorithm as
    /// [`CoAllocScheduler::submit`], with each attempt's feasibility decided
    /// by summing per-shard counts. Attempts are probed in staged doubling
    /// batches (1, 2, 4, … capped at a small constant). Always runs inline:
    /// a single request is below any pool threshold by definition.
    pub fn submit(&mut self, req: &Request) -> Result<Grant, ScheduleError> {
        let ladder = self.ladder(req, self.num_servers, None)?;
        self.run(req, ladder, AttrSet::NONE)
    }

    /// Lay out the retry ladder of `req` against the current clock and
    /// horizon, for `capacity` usable servers.
    fn ladder(
        &self,
        req: &Request,
        capacity: u32,
        deadline: Option<Time>,
    ) -> Result<Ladder, ScheduleError> {
        Ladder::new(&self.cfg, req, capacity, self.now, self.horizon_end(), deadline)
    }

    /// Handle a batch of requests in submission order, returning one reply
    /// per member in order. Semantically identical to submitting each
    /// member with [`Self::submit`] against the current clock — member `i`
    /// observes the commits of members `0..i` — but above the pool
    /// threshold the coordination is amortized: each shard worker is woken
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
        out.clear();
        BATCH_SIZE.observe(reqs.len() as u64);
        self.pooled = self.backend.pool.is_some() && reqs.len() >= self.pool_min_batch;
        if !self.pooled {
            // Load-adaptive bypass: below the threshold the rendezvous
            // cost of the pool exceeds its parallelism, so run the exact
            // sequential algorithm inline.
            out.reserve(reqs.len());
            for req in reqs {
                out.push(self.submit(req));
            }
            return;
        }
        self.submit_batch_pool(reqs, out);
    }

    /// Deadline-bounded submission — the sharded analogue of
    /// [`CoAllocScheduler::submit_with_deadline`]: no start later than
    /// `deadline - l_r` is ever probed.
    pub fn submit_with_deadline(
        &mut self,
        req: &Request,
        deadline: Time,
    ) -> Result<Grant, ScheduleError> {
        let ladder = self.ladder(req, self.num_servers, Some(deadline))?;
        self.run(req, ladder, AttrSet::NONE)
    }

    /// Assign capability tags to a server (see [`coalloc_core::attrs`]).
    pub fn set_server_attrs(&mut self, server: ServerId, attrs: AttrSet) {
        self.attrs[server.0 as usize] = attrs;
    }

    /// Handle a request that may only use servers carrying every tag in
    /// `required` — [`CoAllocScheduler::submit_constrained`] on the inline
    /// driver: the ladder is laid out for the qualifying servers, the
    /// per-shard counts ignore tags (they over-approximate) and the
    /// retrieval step filters, so the first start whose *filtered* feasible
    /// set holds `n_r` servers wins, exactly as there.
    pub fn submit_constrained(
        &mut self,
        req: &Request,
        required: AttrSet,
    ) -> Result<Grant, ScheduleError> {
        let qualifying = self.attrs.iter().filter(|a| a.satisfies(required)).count() as u32;
        let ladder = self.ladder(req, qualifying, None)?;
        self.run(req, ladder, required)
    }

    /// Find all resources available for the whole window `[start, end)`
    /// without modifying any state: [`CoAllocScheduler::range_search`] with
    /// the shards' feasible sets concatenated in server order. The hit
    /// *set* is the single scheduler's; the order within it depends on the
    /// shard count (each shard discovers its own servers' periods).
    pub fn range_search(&mut self, start: Time, end: Time) -> Vec<Availability> {
        let horizon = self.horizon_end();
        let (states, shard_stats) = (&self.backend.states, &mut self.shard_stats);
        range_search_with(self.now, horizon, &self.profile, start, end, |a, b, hits| {
            Self::sync_enumerate(states, shard_stats, a, b, hits)
        })
    }

    /// [`Self::search`] plus the request's metrics.
    fn run(
        &mut self,
        req: &Request,
        ladder: Ladder,
        required: AttrSet,
    ) -> Result<Grant, ScheduleError> {
        let before = self.stats();
        let (result, probed) = self.search(req, ladder, required);
        record_requests(&[probed], result.is_ok() as u64, &self.stats().since(&before));
        result
    }

    /// The inline driver: climb `ladder` in staged-doubling rounds, each
    /// round's feasibility decided by summing per-shard counts and — where
    /// the sum reaches `n_r` — enumerating the feasible set, which must
    /// still hold `n_r` servers carrying every tag in `required` (it always
    /// does for [`AttrSet::NONE`]); then select and commit at the winning
    /// start. Also returns the number of starts charged as searched.
    ///
    /// Locks the shards directly: on the pool path, queued commits must
    /// have been flushed first.
    fn search(
        &mut self,
        req: &Request,
        ladder: Ladder,
        required: AttrSet,
    ) -> (Result<Grant, ScheduleError>, u64) {
        let n = req.servers as usize;
        let mut feasible = std::mem::take(&mut self.scratch.feasible);
        let (states, shard_stats) = (&self.backend.states, &mut self.shard_stats);
        let attrs = &self.attrs;
        let (winner, probed, _) = climb(ladder, &self.profile, |round| {
            let totals = Self::sync_counts(states, shard_stats, round.starts(), req.duration);
            (0..round.m).find(|&i| {
                if totals[i] < n as u64 {
                    return false;
                }
                let (start, end) = (round.starts[i], round.starts[i] + req.duration);
                feasible.clear();
                Self::sync_enumerate(states, shard_stats, start, end, &mut feasible);
                if !required.is_empty() {
                    feasible.retain(|p| attrs[p.server.0 as usize].satisfies(required));
                }
                feasible.len() >= n
            })
        });
        let result = ladder.settle(winner, probed, &mut self.local).map(|at| {
            // At most one period per server is feasible for a given start, so
            // every policy key is total before its id tie-break and the merged
            // selection is independent of shard count and merge order — and
            // identical to the single scheduler's, server for server.
            self.cfg.policy.select_in_place(&mut feasible, n, at.end);
            let grant = self.accept(at, &feasible);
            self.apply_commits_inline();
            grant
        });
        self.scratch.feasible = feasible;
        (result, probed)
    }

    /// The one grant epilogue: mint the job id, queue the commit with the
    /// owning shards (whose job maps are the only record of the job),
    /// charge the capacity profile, build the [`Grant`]. The caller lands
    /// the queued commits.
    fn accept(&mut self, at: Placement, chosen: &[IdlePeriod]) -> Grant {
        let job = JobId(self.next_job);
        self.next_job += 1;
        self.queue_commit(job, at.start, at.end, chosen);
        self.profile.add(at.start, at.end, chosen.len() as u32);
        Grant {
            job,
            start: at.start,
            end: at.end,
            servers: chosen.iter().map(|p| p.server).collect(),
            attempts: at.attempts,
            waiting: at.waiting,
        }
    }

    /// The speculative pool path of [`Self::submit_batch`]. Requires the
    /// pool to exist; decisions are bit-identical to the inline path.
    fn submit_batch_pool(
        &mut self,
        reqs: &[Request],
        out: &mut Vec<Result<Grant, ScheduleError>>,
    ) {
        let k = self.backend.states.len();
        let before = self.stats();

        // Per-request setup: validation and ladder bounds, exactly as the
        // sequential path derives them (the clock is constant across the
        // batch, so `earliest` and the horizon are batch-invariant).
        let mut slots: Vec<ReqSlot> = reqs
            .iter()
            .map(|req| ReqSlot {
                ladder: self.ladder(req, self.num_servers, None),
                want: 1,
                windows: 0,
                delta: OpStats::new(),
                winner: None,
                rejected: false,
                enum_k: usize::MAX,
            })
            .collect();

        // Stage 1 — speculative Phase-1 ladders against the pre-batch
        // snapshot, in staged-doubling rounds. Every round wakes each
        // shard once with the windows of every still-unresolved member.
        // Gathering consults the pre-batch capacity profile: a start it
        // refutes has even less capacity live (in-batch commits only
        // remove capacity), so pruning it cannot change any decision.
        let mut idx_map: Vec<usize> = Vec::new();
        let mut totals: Vec<u64> = Vec::new();
        loop {
            idx_map.clear();
            let mut jobs = Vec::new();
            for (i, slot) in slots.iter_mut().enumerate() {
                if !slot.probing() {
                    continue;
                }
                let ladder = slot.ladder.as_mut().expect("probing implies a ladder");
                let round = Round::gather(ladder, &self.profile, slot.want);
                if round.m == 0 {
                    slot.rejected = true;
                    continue;
                }
                slot.windows += round.m as u64;
                jobs.push(ProbeJob {
                    round,
                    duration: reqs[i].duration,
                });
                idx_map.push(i);
            }
            if jobs.is_empty() {
                break;
            }
            let stage = Arc::new(ProbeStage { jobs });
            {
                let pool = self.backend.pool.as_ref().expect("pool path");
                for tx in &pool.cmd {
                    tx.send(Cmd::Probe {
                        stage: Arc::clone(&stage),
                    })
                    .expect("shard worker alive");
                }
            }
            let total_attempts: usize = stage.jobs.iter().map(|j| j.round.m).sum();
            totals.clear();
            totals.resize(total_attempts, 0);
            let mut got = 0;
            while got < k {
                match self.recv_reply() {
                    Reply::Probed { counts, deltas } => {
                        for (t, c) in totals.iter_mut().zip(&counts) {
                            *t += *c as u64;
                        }
                        for (j, d) in deltas.iter().enumerate() {
                            slots[idx_map[j]].delta.accumulate(d);
                        }
                        got += 1;
                    }
                    other => panic!("unexpected shard reply {other:?}"),
                }
            }
            // Resolve this round per request: the winner is the first
            // gathered window with enough capacity; its logical attempt
            // index comes from the gathering record.
            let mut off = 0usize;
            for (j, job) in stage.jobs.iter().enumerate() {
                let slot = &mut slots[idx_map[j]];
                let counts = &totals[off..off + job.round.m];
                off += job.round.m;
                let n = reqs[idx_map[j]].servers as u64;
                if let Some(a) = counts.iter().position(|&c| c >= n) {
                    slot.winner = Some((job.round.ks[a], job.round.starts[a]));
                } else {
                    slot.want = Round::doubled(slot.want);
                }
            }
        }

        // Stage 2 — Phase-2 feasible sets for every speculative winner,
        // one message per shard; each shard fills its own flat buffer.
        self.scratch.windows.clear();
        let mut enum_idx: Vec<usize> = Vec::new();
        for (i, slot) in slots.iter_mut().enumerate() {
            if let Some((_, start)) = slot.winner {
                slot.enum_k = enum_idx.len();
                self.scratch.windows.push((start, start + reqs[i].duration));
                enum_idx.push(i);
            }
        }
        if !enum_idx.is_empty() {
            {
                let pool = self.backend.pool.as_ref().expect("pool path");
                for (tx, buf) in pool.cmd.iter().zip(&mut self.scratch.enums) {
                    let mut buf = std::mem::take(buf);
                    buf.windows.clone_from(&self.scratch.windows);
                    tx.send(Cmd::Enumerate { buf }).expect("shard worker alive");
                }
            }
            for _ in 0..k {
                match self.recv_reply() {
                    Reply::Enumerated { shard, buf } => {
                        for (j, d) in buf.deltas.iter().enumerate() {
                            slots[enum_idx[j]].delta.accumulate(d);
                        }
                        self.scratch.enums[shard as usize] = buf;
                    }
                    other => panic!("unexpected shard reply {other:?}"),
                }
            }
        }

        // Stage 3 — repair and commit in submission order. In-batch
        // commits only ever *remove* capacity, so (a) speculative rejects
        // are always exact, (b) every start before a speculative winner
        // still fails live, and (c) at the winner's window the live
        // feasible set is the speculative one repaired against the grants
        // logged so far (`BatchGrants::repair`). With `n_r` survivors the
        // live search would stop at the same start and select from exactly
        // these periods — their ids are the snapshot's, but every policy
        // key is decided by `server` before it reaches the id, and commits
        // address periods by server and window. With fewer, the live
        // winner lies further along the ladder and the member is re-probed
        // sequentially.
        let enums = std::mem::take(&mut self.scratch.enums);
        let mut granted = std::mem::take(&mut self.scratch.granted);
        let mut feasible = std::mem::take(&mut self.scratch.feasible);
        let mut probed = std::mem::take(&mut self.scratch.probed);
        granted.reset(self.num_servers);
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
            if let Some((_, start)) = slot.winner {
                let end = start + req.duration;
                feasible.clear();
                let (mut dropped, mut trimmed) = (0u64, false);
                for shard in &enums {
                    for p in shard.set(slot.enum_k) {
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
                    // (per-shard order is submission order) and re-run the
                    // full sequential search against live state.
                    reprobed += 1;
                    self.flush_commits();
                    self.scratch.feasible = feasible;
                    let (res, searched) = self.search(req, ladder, AttrSet::NONE);
                    feasible = std::mem::take(&mut self.scratch.feasible);
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
            // search would stop. The accounting is the inline driver's
            // rounds replayed against the *live* profile with no probe —
            // the live gathering may jump more windows than the pre-batch
            // one did (identical when jumping is off) — so attempts, skips
            // and the Phase-1 window charge, re-based from the speculative
            // ladder to the live one, equal sequential submission's. The
            // replay must precede this member's own profile update.
            let winner = slot.winner.map(|(kw, _)| kw);
            let (replayed, attempts, windows) = climb(ladder, &self.profile, |round| {
                round.ks[..round.m].iter().position(|&k| Some(k) == winner)
            });
            debug_assert_eq!(replayed, winner, "an accepted winner's start is live-reachable");
            self.local.accumulate(&slot.delta);
            self.local.phase1_searches -= k as u64 * slot.windows;
            self.local.phase1_searches += k as u64 * windows;
            probed.push(attempts);
            out.push(ladder.settle(winner, attempts, &mut self.local).map(|at| {
                self.cfg.policy.select_in_place(&mut feasible, n, at.end);
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
        record_requests(&probed, grants, &self.stats().since(&before));
        self.scratch.probed = probed;
        if repaired > 0 {
            BATCH_REPAIRED.add(repaired);
        }
        if reprobed > 0 {
            BATCH_REPROBES.add(reprobed);
        }
    }

    /// Cancel a committed job on every shard holding part of it. The
    /// shards' job maps decide whether the job is known — they forget it at
    /// the history prune exactly when the single scheduler does.
    pub fn release(&mut self, job: JobId) -> Result<(), ScheduleError> {
        let mut known = false;
        for i in 0..self.backend.states.len() {
            if let Some(released) = self.on_shard(i, |st| st.release(job)) {
                known = true;
                // Unconditional: the profile clamps to the live window, so
                // windows already partly (or fully) rotated out withdraw
                // exactly what the commit's surviving contribution was.
                for r in &released {
                    self.profile.remove(r.start, r.end, 1);
                }
            }
        }
        known.then_some(()).ok_or(ScheduleError::UnknownJob(job))
    }

    /// System utilization over `[origin, until)` — the partition sum of
    /// per-shard busy time over total capacity, identical to
    /// [`CoAllocScheduler::utilization`].
    pub fn utilization(&mut self, until: Time) -> f64 {
        let span = (until - self.origin).secs();
        if span <= 0 {
            return 0.0;
        }
        let mut busy = 0i64;
        for st in &self.backend.states {
            let st = st.lock().expect("shard state lock");
            busy += st.timeline().busy_secs_before(until);
        }
        busy as f64 / (span as f64 * self.num_servers as f64)
    }

    /// Cross-check every shard's indexes against its timeline, and the
    /// coordinator's capacity profile against the union of live shard
    /// reservations (test helper; expensive).
    #[doc(hidden)]
    pub fn check_consistency(&mut self) {
        let mut windows: Vec<(Time, Time)> = Vec::new();
        for st in &self.backend.states {
            let st = st.lock().expect("shard state lock");
            st.check();
            windows.extend(st.reservation_windows());
        }
        self.profile.check_against(windows.iter().copied());
    }

    /// The scheduler's persistent state as plain data: what
    /// [`CoAllocScheduler::export`] returns for the same history, whatever
    /// the shard count — every shard appends its own servers' periods.
    pub fn export(&self) -> StateImage {
        // Every shard prunes on the same slot boundary.
        let last_prune = self.backend.states[0].lock().expect("shard state lock").last_prune();
        let mut image = StateImage {
            cfg: self.cfg,
            origin: self.origin,
            now: self.now,
            last_prune,
            attrs: self.attrs.clone(),
            idle: Vec::new(),
            busy: Vec::new(),
            next_job: self.next_job,
        };
        for st in &self.backend.states {
            st.lock().expect("shard state lock").export(&mut image);
        }
        image
    }

    /// A `k`-shard scheduler in the state `image` describes, whatever
    /// engine wrote it: every shard installs its own servers' share.
    pub fn from_image(image: StateImage, k: u32) -> ShardedScheduler {
        let mut sched =
            ShardedScheduler::starting_at(image.attrs.len() as u32, k, image.now, image.cfg);
        sched.origin = image.origin;
        sched.next_job = image.next_job;
        for r in &image.busy {
            sched.profile.add(r.start, r.end, 1);
        }
        for i in 0..sched.backend.states.len() {
            sched.on_shard(i, |st| st.install(&image));
        }
        sched.attrs = image.attrs;
        sched
    }

    /// Serialize the scheduler's state to a text snapshot — byte for byte
    /// [`CoAllocScheduler::snapshot`]'s for the same history.
    pub fn snapshot(&self) -> String {
        self.export().render()
    }

    /// Rebuild a `k`-shard scheduler from snapshot text.
    pub fn restore(snapshot: &str, k: u32) -> Result<ShardedScheduler, SnapshotError> {
        StateImage::parse(snapshot).map(|image| ShardedScheduler::from_image(image, k))
    }

    /// Which shard owns a global server id.
    fn shard_of(&self, server: ServerId) -> usize {
        let k = self.layout.len() as u32;
        let per = self.num_servers / k;
        let rem = self.num_servers % k;
        let s = server.0;
        if s < rem * (per + 1) {
            (s / (per + 1)) as usize
        } else {
            (rem + (s - rem * (per + 1)) / per) as usize
        }
    }

    /// Lock shard `i` for `f` and refresh the coordinator's copy of its
    /// counters afterwards.
    fn on_shard<R>(&mut self, i: usize, f: impl FnOnce(&mut ServerIndex) -> R) -> R {
        let mut st = self.backend.states[i].lock().expect("shard state lock");
        let out = f(&mut st);
        self.shard_stats[i] = *st.stats();
        out
    }

    /// Receive one pool reply; a dead worker is fatal.
    fn recv_reply(&self) -> Reply {
        let pool = self.backend.pool.as_ref().expect("pool path");
        match pool.reply.recv().expect("shard worker alive") {
            Reply::Died { shard } => panic!("shard worker {shard} died"),
            other => other,
        }
    }

    /// Inline count fan-out: lock each shard in turn and sum the
    /// per-attempt totals for the explicit start list.
    fn sync_counts(
        states: &[Arc<Mutex<ServerIndex>>],
        shard_stats: &mut [OpStats],
        starts: &[Time],
        duration: Dur,
    ) -> [u64; MAX_BATCH] {
        let mut totals = [0u64; MAX_BATCH];
        for (state, cached) in states.iter().zip(shard_stats) {
            let mut st = state.lock().expect("shard state lock");
            for (t, &start) in totals.iter_mut().zip(starts) {
                *t += st.count(start, start + duration) as u64;
            }
            *cached = *st.stats();
        }
        totals
    }

    /// Inline enumerate fan-out: append every shard's feasible set for
    /// `[start, end)` to `out`, in server order.
    fn sync_enumerate(
        states: &[Arc<Mutex<ServerIndex>>],
        shard_stats: &mut [OpStats],
        start: Time,
        end: Time,
        out: &mut Vec<IdlePeriod>,
    ) {
        for (state, cached) in states.iter().zip(shard_stats) {
            let mut st = state.lock().expect("shard state lock");
            st.enumerate(start, end, out);
            *cached = *st.stats();
        }
    }

    /// Queue a job's commit with the shards owning the chosen servers.
    /// Shards apply their queue in
    /// order, so queueing in submission order keeps every shard's
    /// period-id minting identical to sequential submission.
    fn queue_commit(&mut self, job: JobId, start: Time, end: Time, chosen: &[IdlePeriod]) {
        let mut begun = 0u64; // one bit per shard
        for p in chosen {
            let s = self.shard_of(p.server);
            if begun & (1 << s) == 0 {
                begun |= 1 << s;
                self.scratch.commits[s].begin(job, start, end);
            }
            self.scratch.commits[s].add_server(p.server);
        }
    }

    /// Apply the queued commits here and now, locking each shard in turn.
    fn apply_commits_inline(&mut self) {
        for (i, buf) in self.scratch.commits.iter_mut().enumerate() {
            if !buf.is_empty() {
                let mut st = self.backend.states[i].lock().expect("shard state lock");
                buf.apply_to(&mut st);
                self.shard_stats[i] = *st.stats();
            }
        }
    }

    /// Hand every shard its queued commits in one message and wait until
    /// all of them have been applied.
    fn flush_commits(&mut self) {
        let pool = self.backend.pool.as_ref().expect("pool path");
        let mut sent = 0;
        for (tx, buf) in pool.cmd.iter().zip(&mut self.scratch.commits) {
            if !buf.is_empty() {
                let buf = std::mem::take(buf);
                tx.send(Cmd::Commit { buf }).expect("shard worker alive");
                sent += 1;
            }
        }
        for _ in 0..sent {
            match self.recv_reply() {
                Reply::Committed { shard, stats, buf } => {
                    self.shard_stats[shard as usize] = stats;
                    self.scratch.commits[shard as usize] = buf;
                }
                other => panic!("unexpected shard reply {other:?}"),
            }
        }
    }
}

impl Drop for ShardedScheduler {
    fn drop(&mut self) {
        if let Some(pool) = &mut self.backend.pool {
            pool.cmd.clear(); // disconnects the workers' command receivers
            for h in pool.handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

impl OnlineScheduler for ShardedScheduler {
    fn advance_to(&mut self, now: Time) {
        ShardedScheduler::advance_to(self, now);
    }
    fn submit(&mut self, req: &Request) -> Result<Grant, ScheduleError> {
        ShardedScheduler::submit(self, req)
    }
    fn total_ops(&mut self) -> u64 {
        self.stats().total_ops()
    }
    fn utilization(&mut self, until: Time) -> f64 {
        ShardedScheduler::utilization(self, until)
    }
    fn now(&self) -> Time {
        self.now
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

    #[test]
    fn shard_of_is_the_inverse_of_the_layout() {
        for (n, k) in [(7u32, 3u32), (8, 4), (64, 8), (5, 5), (9, 2)] {
            let s = ShardedScheduler::new(n, k, small_cfg());
            for (i, &(base, count)) in s.layout.iter().enumerate() {
                for srv in base..base + count {
                    assert_eq!(s.shard_of(ServerId(srv)), i, "n={n} k={k} srv={srv}");
                }
            }
        }
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
