//! The persistent worker pool: one thread per server range, fed over
//! channels.
//!
//! The pool is a *batch-stage engine*, not a per-request RPC endpoint:
//! between calls the scheduler owns its ranges and runs all sequential work
//! (per-request submits, releases, every decision of a pooled batch — and
//! everything below the load-adaptive bypass) on them itself. A stage
//! *lends* a range to its worker inside the command and gets it back
//! inside the reply, so no range is ever shared. Workers are
//! woken only for whole-batch stages, each a single mailbox message per
//! range:
//!
//! * [`Stage::Commit`] — the reservations of **every** member granted in
//!   the batch that touch this range, applied in submission order;
//! * [`Stage::Advance`] — a slot-window advance, so a scheduler that is
//!   running pooled batches keeps each range's work on its worker's core.
//!
//! Every command is answered by exactly one reply, whose `stats` carry the
//! range's work, which the coordinator adds to the scheduler's counters.

use coalloc_core::batch::CommitBuf;
use coalloc_core::prelude::*;
use crossbeam::channel::{Receiver, Sender};
use std::thread::JoinHandle;

/// A batch stage for one range.
#[derive(Debug)]
pub(crate) enum Stage {
    /// Apply every queued reservation, in order.
    Commit(CommitBuf),
    /// Advance the range's clock (ring rotation and history prune).
    Advance(Time),
}

/// A stage and the range it runs on, lent to the range's worker.
#[derive(Debug)]
pub(crate) struct Cmd {
    pub part: ServerIndex,
    pub stage: Stage,
}

/// A range coming back from its worker with its stage done. `stats` is
/// what the stage charged to the scheduler's counters.
#[derive(Debug)]
pub(crate) struct Reply {
    pub shard: u32,
    pub part: ServerIndex,
    pub stats: OpStats,
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

    /// Run one stage: lend every range `stage` gives work to its worker and
    /// take each one back into `sched` as its reply arrives, charging the
    /// reply's `stats`. Ranges given no work stay home.
    pub fn run(&self, sched: &mut CoAllocScheduler, mut stage: impl FnMut(usize) -> Option<Stage>) {
        let (parts, _) = sched.parts_mut();
        let mut home: Vec<Option<ServerIndex>> = Vec::with_capacity(parts.len());
        for (i, part) in parts.drain(..).enumerate() {
            match stage(i) {
                Some(stage) => {
                    self.cmd[i]
                        .send(Cmd { part, stage })
                        .expect("shard worker alive");
                    home.push(None);
                }
                None => home.push(Some(part)),
            }
        }
        let lent = home.iter().filter(|p| p.is_none()).count();
        for _ in 0..lent {
            let reply = self.reply.recv().expect("shard worker alive");
            let reply = reply.unwrap_or_else(|shard| panic!("shard worker {shard} died"));
            home[reply.shard as usize] = Some(reply.part);
            sched.parts_mut().1.accumulate(&reply.stats);
        }
        let (parts, _) = sched.parts_mut();
        parts.extend(home.into_iter().map(|p| p.expect("every range came back")));
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
        match stage {
            Stage::Commit(mut buf) => buf.apply_to(&mut part, &mut stats),
            Stage::Advance(now) => part.advance_to(now, &mut stats),
        }
        let reply = Reply { shard, part, stats };
        if tx.send(Ok(reply)).is_err() {
            break; // coordinator gone
        }
    }
}
