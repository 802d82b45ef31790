//! The persistent worker pool: one thread per shard, fed over channels.
//!
//! The pool is a *batch-stage engine*, not a per-request RPC endpoint:
//! the shards' [`ServerIndex`]es live in `Arc<Mutex<_>>` shared with the
//! coordinator, which locks them directly for all sequential work
//! (per-request submits, releases, fallback searches — the load-adaptive
//! bypass). Workers are woken only for whole-batch stages, each a single
//! mailbox message per shard:
//!
//! * [`Cmd::Probe`] — the Phase-1 count ladders of every unresolved batch
//!   member for one staged-doubling round;
//! * [`Cmd::Enumerate`] — the Phase-2 feasible sets of every speculative
//!   winner, written into one flat buffer;
//! * [`Cmd::Commit`] — the reservations of **every** member accepted since
//!   the last flush that touch this shard, applied in submission order (a
//!   shard mints its period ids in the order it applies commits, so that
//!   order is part of the decision state);
//! * [`Cmd::Advance`] — a slot-window advance, so a scheduler that is
//!   running pooled batches keeps each shard's state on its worker's core.
//!
//! Every command is answered by exactly one reply, and the coordinator
//! collects a stage's replies before it does anything else with the shard
//! states, so workers and coordinator never contend for a state lock. The
//! enumerate and commit buffers belong to the coordinator's scratch: they
//! travel to the worker inside the command and come back inside the reply,
//! keeping their capacity. Probe and enumerate stages charge their tree-op
//! work into *per-request deltas* (not the shard's cumulative stats): the
//! coordinator charges only the deltas of requests whose speculation is
//! accepted, which keeps the aggregate accounting identical to sequential
//! submission.

use coalloc_core::prelude::*;
use crossbeam::channel::{Receiver, Sender};
use std::sync::{Arc, Mutex};
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

/// One request's slice of a probe round: count the windows
/// `[start, start + duration)` of `round`'s starts.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProbeJob {
    pub round: Round,
    pub duration: Dur,
}

/// One staged-doubling round of Phase-1 probes for every still-unresolved
/// batch member. Shared read-only across all shard workers.
#[derive(Debug)]
pub(crate) struct ProbeStage {
    pub jobs: Vec<ProbeJob>,
}

/// One shard's half of an enumerate stage. The coordinator fills
/// `windows`; the worker fills the rest.
#[derive(Debug, Default)]
pub(crate) struct EnumBuf {
    /// The `[start, end)` window of every speculative winner.
    pub windows: Vec<(Time, Time)>,
    /// The shard's feasible sets (global server ids), window after window.
    pub periods: Vec<IdlePeriod>,
    /// `ends[j]` is where window `j`'s set ends in `periods`.
    pub ends: Vec<usize>,
    /// Per-window stat deltas.
    pub deltas: Vec<OpStats>,
}

impl EnumBuf {
    /// This shard's feasible set for window `j`.
    pub fn set(&self, j: usize) -> &[IdlePeriod] {
        let from = if j == 0 { 0 } else { self.ends[j - 1] };
        &self.periods[from..self.ends[j]]
    }
}

/// The commits one shard owes to the members accepted since the last
/// flush, in submission order.
#[derive(Debug, Default)]
pub(crate) struct CommitBuf {
    /// `(job, start, end, number of servers)` per member.
    pub jobs: Vec<(JobId, Time, Time, u32)>,
    /// The members' (shard-owned) servers, concatenated.
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

    /// Apply the queued reservations to their shard, in order, and empty
    /// the queue.
    pub fn apply_to(&mut self, st: &mut ServerIndex) {
        let mut from = 0usize;
        for &(job, start, end, n) in &self.jobs {
            let to = from + n as usize;
            st.commit(job, start, end, &self.servers[from..to]);
            from = to;
        }
        self.jobs.clear();
        self.servers.clear();
    }
}

/// A command from the coordinator to one shard worker.
#[derive(Debug)]
pub(crate) enum Cmd {
    /// Run one probe round: per-window feasible counts for every job in
    /// the stage, plus a per-job [`OpStats`] delta.
    Probe { stage: Arc<ProbeStage> },
    /// Enumerate the full feasible set of each window in `buf.windows`.
    Enumerate { buf: EnumBuf },
    /// Apply every queued reservation, in order.
    Commit { buf: CommitBuf },
    /// Advance the shard clock (ring rotation and history prune).
    Advance { now: Time },
}

/// A reply from a shard worker.
#[derive(Debug)]
pub(crate) enum Reply {
    /// Per-window counts (concatenated in stage-job order) and per-job
    /// stat deltas for one probe round. Carries no shard id: counts are
    /// summed and deltas accumulated, so arrival order is irrelevant.
    Probed {
        counts: Vec<u32>,
        deltas: Vec<OpStats>,
    },
    /// The filled enumerate buffer of `shard`.
    Enumerated { shard: u32, buf: EnumBuf },
    /// The queued commits have been applied. Carries the shard's full
    /// cumulative [`OpStats`] so the coordinator's cache stays current, and
    /// hands the buffer back, emptied.
    Committed {
        shard: u32,
        stats: OpStats,
        buf: CommitBuf,
    },
    /// The shard clock has advanced; cumulative stats as above.
    Advanced { shard: u32, stats: OpStats },
    /// Sent by the panic canary when a worker dies mid-command, so the
    /// coordinator fails loudly instead of hanging on a missing reply.
    Died { shard: u32 },
}

/// Notifies the coordinator if the worker thread unwinds.
struct Canary {
    shard: u32,
    tx: Sender<Reply>,
}

impl Drop for Canary {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.tx.send(Reply::Died { shard: self.shard });
        }
    }
}

/// Spawn one worker thread per shard state. Returns the per-shard command
/// senders, the shared reply receiver, and the join handles.
pub(crate) fn spawn_workers(
    states: &[Arc<Mutex<ServerIndex>>],
) -> (Vec<Sender<Cmd>>, Receiver<Reply>, Vec<JoinHandle<()>>) {
    let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
    let mut cmd_txs = Vec::with_capacity(states.len());
    let mut handles = Vec::with_capacity(states.len());
    for (i, state) in states.iter().enumerate() {
        let (tx, rx) = crossbeam::channel::unbounded();
        cmd_txs.push(tx);
        let reply_tx = reply_tx.clone();
        let state = Arc::clone(state);
        handles.push(
            std::thread::Builder::new()
                .name(format!("coalloc-shard-{i}"))
                .spawn(move || worker(i as u32, state, rx, reply_tx))
                .expect("spawn shard worker"),
        );
    }
    (cmd_txs, reply_rx, handles)
}

fn worker(shard: u32, state: Arc<Mutex<ServerIndex>>, rx: Receiver<Cmd>, tx: Sender<Reply>) {
    let _canary = Canary {
        shard,
        tx: tx.clone(),
    };
    // Exits when the coordinator drops the command sender.
    for cmd in rx.iter() {
        let mut st = state.lock().expect("shard state lock");
        let reply = match cmd {
            Cmd::Probe { stage } => {
                let total: usize = stage.jobs.iter().map(|j| j.round.m).sum();
                let mut counts = Vec::with_capacity(total);
                let mut deltas = Vec::with_capacity(stage.jobs.len());
                for job in &stage.jobs {
                    let mut delta = OpStats::new();
                    for &start in job.round.starts() {
                        let count = st.count_with(start, start + job.duration, &mut delta);
                        counts.push(count as u32);
                    }
                    deltas.push(delta);
                }
                Reply::Probed { counts, deltas }
            }
            Cmd::Enumerate { mut buf } => {
                buf.periods.clear();
                buf.ends.clear();
                buf.deltas.clear();
                for &(start, end) in &buf.windows {
                    let mut delta = OpStats::new();
                    st.enumerate_with(start, end, &mut buf.periods, &mut delta);
                    buf.ends.push(buf.periods.len());
                    buf.deltas.push(delta);
                }
                Reply::Enumerated { shard, buf }
            }
            Cmd::Commit { mut buf } => {
                buf.apply_to(&mut st);
                Reply::Committed {
                    shard,
                    stats: *st.stats(),
                    buf,
                }
            }
            Cmd::Advance { now } => {
                st.advance_to(now);
                Reply::Advanced {
                    shard,
                    stats: *st.stats(),
                }
            }
        };
        drop(st);
        if tx.send(reply).is_err() {
            break; // coordinator gone
        }
    }
}
