//! End-to-end latency attribution: monotonic stage stamps for one command.
//!
//! Every command travelling through the server carries a [`Stamps`] value
//! that is stamped at the pipeline's hand-off points (DESIGN.md §8):
//!
//! ```text
//! accept ─► enqueue ─► dequeue ─► decision ─► fsync release ─► reply write
//!        parse     │ queue_wait │   sched   │   wal_stall    │  writeback
//! ```
//!
//! Each inter-stamp interval is exported as a per-stage histogram
//! (`req_stage_queue_wait`, `req_stage_sched`, `req_stage_wal_stall`,
//! `req_stage_writeback`, all in microseconds), so a p99 regression can be
//! localized to the queue, the scheduler compute, the WAL fsync, or the
//! socket write without any per-request logging. The stage identity
//!
//! ```text
//! queue_wait + sched + wal_stall ≈ net_request_us   (enqueue → release)
//! ```
//!
//! is what `netload` checks before it prints the stage breakdown.
//!
//! [`Stamps`] is `Copy`, holds only `Instant`s, and every `mark_*` /
//! [`Stamps::finish_writeback`] call is a clock read plus one relaxed-atomic
//! histogram update: the steady-state path performs **zero heap
//! allocations** (enforced by `crates/net/tests/stage_alloc.rs`), keeping
//! attribution inside the obs overhead budget.

use obs::LazyHistogram;
use std::time::Instant;

/// Time a command spent waiting in the bounded command queue between a
/// worker's enqueue and the scheduler thread's dequeue (µs).
pub static STAGE_QUEUE_WAIT: LazyHistogram = LazyHistogram::new("req_stage_queue_wait");
/// Time the scheduler thread spent deciding the command — parse, phase-1 /
/// phase-2 search, retries (µs).
pub static STAGE_SCHED: LazyHistogram = LazyHistogram::new("req_stage_sched");
/// Time a decided reply was withheld for WAL durability — append plus the
/// group-commit fsync it rode on. Volatile servers and non-mutating
/// commands observe 0, so every request contributes to every stage (µs).
pub static STAGE_WAL_STALL: LazyHistogram = LazyHistogram::new("req_stage_wal_stall");
/// Time from reply release to the socket write completing (µs).
pub static STAGE_WRITEBACK: LazyHistogram = LazyHistogram::new("req_stage_writeback");

#[inline]
fn us_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_micros() as u64
}

/// Monotonic stage timestamps for one in-flight command. Created by the
/// worker when the line is framed, carried through the scheduler thread and
/// back, finished by the worker after the reply write.
#[derive(Clone, Copy, Debug)]
pub struct Stamps {
    /// Line fully framed from the socket (stage zero).
    pub accepted: Instant,
    /// Enqueued into the bounded command queue.
    pub enqueued: Instant,
    /// Dequeued by the scheduler thread, if it got there.
    pub dequeued: Option<Instant>,
    /// Decision computed (reply text exists), if it got there.
    pub decided: Option<Instant>,
    /// Reply released to the worker (after the WAL fsync covering it, when
    /// durable), if it got there.
    pub released: Option<Instant>,
}

impl Stamps {
    /// Stamp stage zero: the command line just came off the socket.
    #[inline]
    pub fn new() -> Stamps {
        let now = Instant::now();
        Stamps {
            accepted: now,
            enqueued: now,
            dequeued: None,
            decided: None,
            released: None,
        }
    }

    /// Stamp the enqueue into the command queue (immediately before the
    /// `try_send`; a shed command keeps this stamp but never the later ones).
    #[inline]
    pub fn mark_enqueued(&mut self) {
        self.enqueued = Instant::now();
    }

    /// Stamp the scheduler thread's dequeue and record the queue-wait stage.
    #[inline]
    pub fn mark_dequeued(&mut self) {
        let now = Instant::now();
        STAGE_QUEUE_WAIT.observe(us_between(self.enqueued, now));
        self.dequeued = Some(now);
    }

    /// Stamp the computed decision and record the sched stage.
    #[inline]
    pub fn mark_decided(&mut self) {
        let now = Instant::now();
        STAGE_SCHED.observe(us_between(self.dequeued.unwrap_or(now), now));
        self.decided = Some(now);
    }

    /// Stamp the reply release and record the WAL-stall stage (0 when the
    /// reply was never withheld: volatile mode, non-mutating commands).
    #[inline]
    pub fn mark_released(&mut self) {
        let now = Instant::now();
        STAGE_WAL_STALL.observe(us_between(self.decided.unwrap_or(now), now));
        self.released = Some(now);
    }

    /// Record the writeback stage (release → socket write done) and return
    /// the end-to-end total (accept → now) in µs. Commands that never
    /// reached the scheduler (shed at the queue) skip the stage histograms
    /// so stage counts stay aligned with `net_request_us`.
    #[inline]
    pub fn finish_writeback(&self) -> u64 {
        let now = Instant::now();
        if let Some(released) = self.released {
            STAGE_WRITEBACK.observe(us_between(released, now));
        }
        us_between(self.accepted, now)
    }

    /// Microseconds from accept to each later stamp, `None` where the
    /// command never reached that stage. Used by the slow-request capture
    /// to render a timeline without keeping `Instant`s alive.
    pub fn offsets_us(&self) -> [(&'static str, Option<u64>); 4] {
        let rel = |t: Option<Instant>| t.map(|t| us_between(self.accepted, t));
        [
            ("enqueue", Some(us_between(self.accepted, self.enqueued))),
            ("dequeue", rel(self.dequeued)),
            ("decision", rel(self.decided)),
            ("fsync_release", rel(self.released)),
        ]
    }
}

impl Default for Stamps {
    fn default() -> Stamps {
        Stamps::new()
    }
}

/// Force registration of the four stage histograms (so the first request
/// does not pay the registry lock + allocation, and `/metrics` shows the
/// families from the start).
pub fn register() {
    STAGE_QUEUE_WAIT.get();
    STAGE_SCHED.get();
    STAGE_WAL_STALL.get();
    STAGE_WRITEBACK.get();
}
