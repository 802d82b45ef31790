//! The persistent worker pool: one thread per server range, fed over
//! channels.
//!
//! The pool is a *batch-stage engine*, not a per-request RPC endpoint:
//! between calls the scheduler owns its ranges and runs all sequential work
//! (per-request submits, releases, fallback searches — the load-adaptive
//! bypass) on them itself. A stage *lends* a range to its worker inside the
//! command and gets it back inside the reply, the way the enumerate and
//! commit buffers travel, so no range is ever shared. Workers are woken
//! only for whole-batch stages, each a single mailbox message per range:
//!
//! * [`Stage::Probe`] — Phase 1 and the feasible count at every start of
//!   every unresolved batch member's next staged-doubling round;
//! * [`Stage::Enumerate`] — Phase 2 at every start where the scheduler's
//!   driver would run it, and the feasible sets of the speculative winners,
//!   written into one flat buffer;
//! * [`Stage::Commit`] — the reservations of **every** member accepted since
//!   the last flush that touch this range, applied in submission order;
//! * [`Stage::Advance`] — a slot-window advance, so a scheduler that is
//!   running pooled batches keeps each range's work on its worker's core.
//!
//! Every command is answered by exactly one reply. Probe and enumerate
//! stages charge the driver's work into *per-start deltas* (the counting
//! that decides the speculation is not the driver's and is charged to
//! nobody): the coordinator charges the deltas of the starts the driver
//! would have searched, and only for requests whose speculation is
//! accepted, which keeps the aggregate accounting that of sequential
//! submission. Commit and advance stages charge the range's work into the
//! reply's `stats`, which the coordinator adds to the scheduler's counters.

use coalloc_core::prelude::*;
use crossbeam::channel::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Upper bound on attempts counted per probe round per request (the
/// staged-doubling batch cap). Chosen so a round's counts stay a small
/// flat array per request.
pub(crate) const MAX_BATCH: usize = 32;

/// One staged-doubling round of one request's ladder: the starts gathered
/// from [`Ladder::next`] and their attempt indexes (`..m` are valid). Starts
/// are explicit rather than an arithmetic ladder because the capacity
/// profile prunes provably-failing attempts as they are gathered, leaving
/// an irregular sequence.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Round {
    pub ks: [u64; MAX_BATCH],
    pub starts: [Time; MAX_BATCH],
    pub m: usize,
}

impl Round {
    /// Gather the next `want` profile-allowed starts of `ladder`.
    pub fn gather(ladder: &mut Ladder, profile: &FreeProfile, want: usize) -> Round {
        let mut round = Round {
            ks: [0; MAX_BATCH],
            starts: [Time::ZERO; MAX_BATCH],
            m: 0,
        };
        while round.m < want {
            let Some((k, start)) = ladder.next(profile) else {
                break;
            };
            round.ks[round.m] = k;
            round.starts[round.m] = start;
            round.m += 1;
        }
        round
    }

    /// The gathered starts.
    pub fn starts(&self) -> &[Time] {
        &self.starts[..self.m]
    }

    /// The size of the round after one of `want`: 1, 2, 4 … [`MAX_BATCH`].
    pub fn doubled(want: usize) -> usize {
        (want * 2).min(MAX_BATCH)
    }
}

/// One request's slice of a probe round: probe the windows
/// `[start, start + duration)` of `round`'s starts.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProbeJob {
    pub round: Round,
    pub duration: Dur,
}

/// What the pre-batch state answered at one start of a request's ladder —
/// from one range, or summed over all of them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Probe {
    /// The attempt index and start.
    pub k: u64,
    pub start: Time,
    /// Phase-1 candidates.
    pub candidates: u64,
    /// Feasible periods among them.
    pub feasible: u64,
    /// The driver's work at this start: Phase 1, and Phase 2 once the
    /// enumerate stage added it.
    pub stats: OpStats,
}

impl Probe {
    /// Add another range's answer at the same start.
    pub fn add(&mut self, other: &Probe) {
        self.candidates += other.candidates;
        self.feasible += other.feasible;
        self.stats.accumulate(&other.stats);
    }
}

/// One range's half of an enumerate stage. The coordinator fills
/// `windows`; the worker fills the rest.
#[derive(Debug, Default)]
pub(crate) struct EnumBuf {
    /// The `[start, end)` window of every start where the driver runs
    /// Phase 2, and whether its feasible set is wanted (a speculative
    /// winner's).
    pub windows: Vec<(Time, Time, bool)>,
    /// The range's wanted feasible sets (global server ids), window after
    /// window.
    pub periods: Vec<IdlePeriod>,
    /// `ends[j]` is where window `j`'s set ends in `periods`.
    pub ends: Vec<usize>,
    /// Per-window Phase-2 deltas.
    pub deltas: Vec<OpStats>,
}

impl EnumBuf {
    /// This range's feasible set for window `j`.
    pub fn set(&self, j: usize) -> &[IdlePeriod] {
        let from = if j == 0 { 0 } else { self.ends[j - 1] };
        &self.periods[from..self.ends[j]]
    }
}

/// The commits one range owes to the members accepted since the last
/// flush, in submission order.
#[derive(Debug, Default)]
pub(crate) struct CommitBuf {
    /// `(job, start, end, number of servers)` per member.
    pub jobs: Vec<(JobId, Time, Time, u32)>,
    /// The members' (range-owned) servers, concatenated.
    pub servers: Vec<ServerId>,
}

impl CommitBuf {
    /// Start a new member; its servers follow through [`Self::add_server`].
    pub fn begin(&mut self, job: JobId, start: Time, end: Time) {
        self.jobs.push((job, start, end, 0));
    }

    /// Add a server to the member opened by the last [`Self::begin`].
    pub fn add_server(&mut self, server: ServerId) {
        self.servers.push(server);
        self.jobs.last_mut().expect("begin precedes add_server").3 += 1;
    }

    /// Whether no member is queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Apply the queued reservations to their range, in order, and empty
    /// the queue.
    fn apply_to(&mut self, part: &mut ServerIndex, stats: &mut OpStats) {
        let mut from = 0usize;
        for &(job, start, end, n) in &self.jobs {
            let to = from + n as usize;
            part.commit(job, start, end, &self.servers[from..to], stats);
            from = to;
        }
        self.jobs.clear();
        self.servers.clear();
    }
}

/// A batch stage for one range.
#[derive(Debug)]
pub(crate) enum Stage {
    /// Run one probe round: a [`Probe`] per window of every job. Shared
    /// read-only by every worker.
    Probe(Arc<Vec<ProbeJob>>),
    /// Run Phase 2 at each window of `windows`, keeping the wanted sets.
    Enumerate(EnumBuf),
    /// Apply every queued reservation, in order.
    Commit(CommitBuf),
    /// Advance the range's clock (ring rotation and history prune).
    Advance(Time),
}

/// What a stage handed back besides the range.
#[derive(Debug)]
pub(crate) enum Done {
    /// One probe round's answers, concatenated in stage-job order.
    Probed(Vec<Probe>),
    /// The filled enumerate buffer.
    Enumerated(EnumBuf),
    /// The commit buffer, emptied.
    Committed(CommitBuf),
    /// The range's clock has advanced.
    Advanced,
}

/// A stage and the range it runs on, lent to the range's worker.
#[derive(Debug)]
pub(crate) struct Cmd {
    pub part: ServerIndex,
    pub stage: Stage,
}

/// A range coming back from its worker. `stats` is what the stage charged
/// to the scheduler's counters (commit and advance stages only).
#[derive(Debug)]
pub(crate) struct Reply {
    pub shard: u32,
    pub part: ServerIndex,
    pub stats: OpStats,
    pub done: Done,
}

/// The worker threads: one command channel each, one shared reply channel.
/// A worker that panics answers `Err(shard)` (its range is lost, so the
/// coordinator fails loudly instead of hanging on a missing reply).
#[derive(Debug)]
pub(crate) struct Pool {
    cmd: Vec<Sender<Cmd>>,
    reply: Receiver<Result<Reply, u32>>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn one worker thread per range.
    pub fn spawn(ranges: usize) -> Pool {
        let (reply_tx, reply) = crossbeam::channel::unbounded();
        let mut cmd = Vec::with_capacity(ranges);
        let mut handles = Vec::with_capacity(ranges);
        for i in 0..ranges {
            let (tx, rx) = crossbeam::channel::unbounded();
            cmd.push(tx);
            let reply_tx = reply_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("coalloc-shard-{i}"))
                    .spawn(move || worker(i as u32, rx, reply_tx))
                    .expect("spawn shard worker"),
            );
        }
        Pool {
            cmd,
            reply,
            handles,
        }
    }

    /// Run one stage: lend every range `stage` gives work to its worker,
    /// take each one back into `sched` as its reply arrives (charging the
    /// reply's `stats`), and return what the stages handed back, in arrival
    /// order. Ranges given no work stay home.
    pub fn run(
        &self,
        sched: &mut CoAllocScheduler,
        mut stage: impl FnMut(usize) -> Option<Stage>,
    ) -> Vec<(u32, Done)> {
        let (parts, _) = sched.parts_mut();
        let mut home: Vec<Option<ServerIndex>> = Vec::with_capacity(parts.len());
        for (i, part) in parts.drain(..).enumerate() {
            match stage(i) {
                Some(stage) => {
                    self.cmd[i].send(Cmd { part, stage }).expect("shard worker alive");
                    home.push(None);
                }
                None => home.push(Some(part)),
            }
        }
        let lent = home.iter().filter(|p| p.is_none()).count();
        let mut done = Vec::with_capacity(lent);
        for _ in 0..lent {
            let reply = self.reply.recv().expect("shard worker alive");
            let reply = reply.unwrap_or_else(|shard| panic!("shard worker {shard} died"));
            home[reply.shard as usize] = Some(reply.part);
            sched.parts_mut().1.accumulate(&reply.stats);
            done.push((reply.shard, reply.done));
        }
        let (parts, _) = sched.parts_mut();
        parts.extend(home.into_iter().map(|p| p.expect("every range came back")));
        done
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.cmd.clear(); // disconnects the workers' command receivers
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Notifies the coordinator if the worker thread unwinds.
struct Canary {
    shard: u32,
    tx: Sender<Result<Reply, u32>>,
}

impl Drop for Canary {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.tx.send(Err(self.shard));
        }
    }
}

fn worker(shard: u32, rx: Receiver<Cmd>, tx: Sender<Result<Reply, u32>>) {
    let _canary = Canary {
        shard,
        tx: tx.clone(),
    };
    // Exits when the coordinator drops the command sender.
    for Cmd { mut part, stage } in rx.iter() {
        let mut stats = OpStats::new();
        let done = match stage {
            Stage::Probe(jobs) => {
                let mut probes = Vec::with_capacity(jobs.iter().map(|j| j.round.m).sum());
                for job in jobs.iter() {
                    for (&k, &start) in job.round.ks.iter().zip(job.round.starts()) {
                        let mut phase1 = OpStats::new();
                        let candidates = part.phase1(start, &mut phase1);
                        let feasible =
                            part.count_feasible(candidates, start + job.duration, &mut OpStats::new());
                        probes.push(Probe {
                            k,
                            start,
                            candidates: (candidates.0 + candidates.1) as u64,
                            feasible: feasible as u64,
                            stats: phase1,
                        });
                    }
                }
                Done::Probed(probes)
            }
            Stage::Enumerate(mut buf) => {
                buf.periods.clear();
                buf.ends.clear();
                buf.deltas.clear();
                for &(start, end, wanted) in &buf.windows {
                    // Phase 1 again for its marks: the probe stage charged it.
                    part.phase1(start, &mut OpStats::new());
                    let mut delta = OpStats::new();
                    part.phase2(start, end, &mut delta);
                    if wanted {
                        part.hits(&mut buf.periods);
                    }
                    buf.ends.push(buf.periods.len());
                    buf.deltas.push(delta);
                }
                Done::Enumerated(buf)
            }
            Stage::Commit(mut buf) => {
                buf.apply_to(&mut part, &mut stats);
                Done::Committed(buf)
            }
            Stage::Advance(now) => {
                part.advance_to(now, &mut stats);
                Done::Advanced
            }
        };
        let reply = Reply {
            shard,
            part,
            stats,
            done,
        };
        if tx.send(Ok(reply)).is_err() {
            break; // coordinator gone
        }
    }
}
