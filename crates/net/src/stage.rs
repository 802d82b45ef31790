//! End-to-end latency attribution: monotonic stage stamps, taken once per
//! burst and shared by its lines.
//!
//! Every command travelling through the server carries a [`Stamps`] value
//! with the pipeline's hand-off points (DESIGN.md §8):
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
//! queue_wait + sched + wal_stall = net_request_us   (enqueue → release)
//! ```
//!
//! holds per line up to the truncation of each stage to whole µs, because
//! both sides are computed from the same four instants; `netload` checks it
//! over the histograms' sums.
//!
//! A line's stamps are its burst's. The lines of a burst are framed in one
//! read round and cross the queue together, are dequeued together, decided
//! in one pass and released at one pass end or one fsync, and written in
//! one sweep. So each hand-off takes **one clock reading** per burst, pass,
//! fsync or sweep and hands that reading to every line it covers. The
//! recorders [`Released`] and [`Written`] then record a run of lines with
//! equal stamps with one [`obs::Histogram::observe_n`] per histogram.
//!
//! [`Stamps`] is `Copy` and holds only `Instant`s, and recording is a few
//! relaxed atomic adds per run: the steady-state path performs **zero heap
//! allocations** (enforced by `crates/net/tests/stage_alloc.rs`), keeping
//! attribution inside the obs overhead budget.

use obs::LazyHistogram;
use std::time::Instant;

/// Time a command spent waiting in the bounded command queue between the
/// I/O loop's enqueue and the scheduler thread's dequeue (µs).
pub static STAGE_QUEUE_WAIT: LazyHistogram = LazyHistogram::new("req_stage_queue_wait");
/// Time the scheduler thread spent on the pass that decided the command —
/// parse, phase-1 / phase-2 search, retries of every line in it (µs).
pub static STAGE_SCHED: LazyHistogram = LazyHistogram::new("req_stage_sched");
/// Time a decided reply was withheld for WAL durability — append plus the
/// group-commit fsync it rode on. Volatile servers and non-mutating
/// commands observe 0, so every request contributes to every stage (µs).
pub static STAGE_WAL_STALL: LazyHistogram = LazyHistogram::new("req_stage_wal_stall");
/// Time from reply release to the socket write completing (µs).
pub static STAGE_WRITEBACK: LazyHistogram = LazyHistogram::new("req_stage_writeback");
/// Enqueue → release of every command the scheduler answered (µs): the sum
/// of the first three stages.
pub static REQUEST_US: LazyHistogram = LazyHistogram::new("net_request_us");

#[inline]
fn us_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_micros() as u64
}

/// Monotonic stage timestamps of one in-flight burst, copied to each of
/// its lines. Created by the I/O loop when the burst is framed, completed
/// by the scheduler thread, and read back by the I/O loop after the reply
/// write. A stage the line never reached stays `None`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamps {
    /// The burst's framing began (stage zero).
    pub accepted: Instant,
    /// Enqueued into the bounded command queue (taken immediately before
    /// the `try_send`; a shed burst keeps this stamp but never the later
    /// ones).
    pub enqueued: Instant,
    /// Dequeued by the scheduler thread.
    pub dequeued: Option<Instant>,
    /// The pass that decided the line ended.
    pub decided: Option<Instant>,
    /// Reply released to the I/O loop: the decision itself, or the fsync
    /// that covered the line's WAL record.
    pub released: Option<Instant>,
}

impl Stamps {
    /// A burst framed from `accepted` on and enqueued at `enqueued`.
    #[inline]
    pub fn new(accepted: Instant, enqueued: Instant) -> Stamps {
        Stamps {
            accepted,
            enqueued,
            dequeued: None,
            decided: None,
            released: None,
        }
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

/// Records the lines the scheduler thread releases: queue wait, sched,
/// WAL stall and `net_request_us`, one `observe_n` per histogram for each
/// run of consecutive lines with equal stamps. [`Released::flush`] records
/// the open run; call it before the counts are read (at every wake of the
/// I/O loop).
#[derive(Debug, Default)]
pub struct Released {
    run: Option<(Stamps, u64)>,
}

impl Released {
    /// Count one released line (`stamps.released` set).
    #[inline]
    pub fn push(&mut self, stamps: &Stamps) {
        match &mut self.run {
            Some((key, n)) if key == stamps => *n += 1,
            _ => {
                self.flush();
                self.run = Some((*stamps, 1));
            }
        }
    }

    /// Record the open run, if any.
    pub fn flush(&mut self) {
        let Some((s, n)) = self.run.take() else {
            return;
        };
        let (Some(dequeued), Some(decided), Some(released)) = (s.dequeued, s.decided, s.released)
        else {
            return; // only lines the scheduler answered are pushed
        };
        STAGE_QUEUE_WAIT.observe_n(us_between(s.enqueued, dequeued), n);
        STAGE_SCHED.observe_n(us_between(dequeued, decided), n);
        STAGE_WAL_STALL.observe_n(us_between(decided, released), n);
        REQUEST_US.observe_n(us_between(s.enqueued, released), n);
    }
}

/// Records the writeback stage (release → socket write done) of the lines
/// one connection's flush put on the wire, one `observe_n` per run of
/// equal release stamps. Lines that never reached the scheduler (shed at
/// the queue) skip it, so stage counts stay aligned with `net_request_us`.
#[derive(Debug)]
pub struct Written {
    at: Instant,
    run: Option<(Instant, u64)>,
}

impl Written {
    /// Lines whose write completed at `at`.
    #[inline]
    pub fn at(at: Instant) -> Written {
        Written { at, run: None }
    }

    /// Count one written line and return its end-to-end total (accept →
    /// write) in µs.
    #[inline]
    pub fn push(&mut self, stamps: &Stamps) -> u64 {
        if let Some(released) = stamps.released {
            match &mut self.run {
                Some((key, n)) if *key == released => *n += 1,
                _ => {
                    self.flush();
                    self.run = Some((released, 1));
                }
            }
        }
        us_between(stamps.accepted, self.at)
    }

    /// Record the open run, if any.
    pub fn flush(&mut self) {
        if let Some((released, n)) = self.run.take() {
            STAGE_WRITEBACK.observe_n(us_between(released, self.at), n);
        }
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
