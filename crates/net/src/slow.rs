//! Tail-based request capture: keep the full stage timeline only for the
//! requests worth explaining.
//!
//! Always-on JSONL tracing is too expensive for the serving path, and
//! metrics alone cannot explain *one* bad request after the fact. This
//! module keeps a fixed-size ring of [`SlowRecord`]s for exactly the
//! requests an operator will ask about — slower than a configurable
//! threshold, shed by admission control, or answered with an error — and
//! nothing for the fast path beyond one relaxed atomic load per request.
//!
//! The ring is dumpable two ways: `GET /debug/slow` on the admin plane and
//! the `slow` protocol command (docs/PROTOCOL.md §3), both rendering the
//! same JSON. Capture itself allocates (it copies the offending line), but
//! only on the tail: the steady-state fast path stays allocation-free.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::stage::Stamps;

static THRESHOLD_US: AtomicU64 = AtomicU64::new(DEFAULT_THRESHOLD_US);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static CAPTURED: AtomicU64 = AtomicU64::new(0);
static RING: Mutex<VecDeque<SlowRecord>> = Mutex::new(VecDeque::new());

/// Default slowness threshold: 100 ms end-to-end.
pub const DEFAULT_THRESHOLD_US: u64 = 100_000;
/// Default ring capacity (records kept before the oldest is dropped).
pub const DEFAULT_CAPACITY: usize = 256;
/// Captured line/reply text is truncated to this many bytes: the ring
/// explains latency, it is not a payload archive.
const TEXT_CAP: usize = 256;

/// Why a request was captured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// End-to-end latency exceeded the threshold.
    Slow,
    /// Shed by admission control (command queue full).
    Shed,
    /// The reply was an error line.
    Error,
}

impl Outcome {
    /// Wire name used in the JSON dump.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Slow => "slow",
            Outcome::Shed => "shed",
            Outcome::Error => "error",
        }
    }
}

/// One captured request: identity, outcome, and the stage timeline as
/// microsecond offsets from the accept stamp.
#[derive(Clone, Debug)]
pub struct SlowRecord {
    /// Monotonic capture sequence number (process-wide).
    pub seq: u64,
    /// Connection id the request arrived on.
    pub conn: u64,
    /// The command line (truncated to 256 bytes).
    pub line: String,
    /// The reply line (truncated to 256 bytes).
    pub reply: String,
    /// Why it was captured.
    pub outcome: Outcome,
    /// End-to-end latency, accept → reply written (µs).
    pub total_us: u64,
    /// `(stage name, offset µs from accept)` for each stage the request
    /// reached, in pipeline order, ending with the reply write.
    pub timeline: Vec<(&'static str, u64)>,
}

/// Set the capture policy. Called once at server bind; tests lower the
/// threshold to force captures.
pub fn configure(threshold_us: u64, capacity: usize) {
    THRESHOLD_US.store(threshold_us, Ordering::Relaxed);
    CAPACITY.store(capacity, Ordering::Relaxed);
}

/// The current slowness threshold in µs (one relaxed load: this is the
/// fast path's entire interaction with this module).
#[inline]
pub fn threshold_us() -> u64 {
    THRESHOLD_US.load(Ordering::Relaxed)
}

/// Total requests captured since process start (ring drops do not decrement).
pub fn captured_total() -> u64 {
    CAPTURED.load(Ordering::Relaxed)
}

/// Capture one request into the ring. Only called on the tail (slow, shed
/// or errored requests), never on the fast path.
pub fn capture(
    conn: u64,
    line: &str,
    reply: &str,
    outcome: Outcome,
    stamps: &Stamps,
    total_us: u64,
) {
    let mut timeline = Vec::with_capacity(6);
    timeline.push(("accept", 0u64));
    for (name, off) in stamps.offsets_us() {
        if let Some(off) = off {
            timeline.push((name, off));
        }
    }
    timeline.push(("reply_write", total_us));
    let record = SlowRecord {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        conn,
        line: truncate(line),
        reply: truncate(reply),
        outcome,
        total_us,
        timeline,
    };
    CAPTURED.fetch_add(1, Ordering::Relaxed);
    let cap = CAPACITY.load(Ordering::Relaxed).max(1);
    let mut ring = RING.lock().unwrap_or_else(|p| p.into_inner());
    while ring.len() >= cap {
        ring.pop_front();
    }
    ring.push_back(record);
}

fn truncate(s: &str) -> String {
    if s.len() <= TEXT_CAP {
        return s.to_string();
    }
    let mut end = TEXT_CAP;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// Snapshot of the ring, oldest first.
pub fn snapshot() -> Vec<SlowRecord> {
    RING.lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .cloned()
        .collect()
}

/// Drop every captured record (test isolation helper).
pub fn clear() {
    RING.lock().unwrap_or_else(|p| p.into_inner()).clear();
}

/// Render one record as a single JSON object line.
pub fn to_json(r: &SlowRecord) -> String {
    let mut out = format!(
        "{{\"seq\":{},\"conn\":{},\"outcome\":\"{}\",\"total_us\":{},\"line\":\"{}\",\"reply\":\"{}\",\"timeline\":[",
        r.seq,
        r.conn,
        r.outcome.as_str(),
        r.total_us,
        obs::json::escape(&r.line),
        obs::json::escape(&r.reply),
    );
    for (i, (name, off)) in r.timeline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"stage\":\"{name}\",\"at_us\":{off}}}"));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring keeps the newest records, oldest first, and each record's
    /// timeline is its burst's stamps: every stage it reached, in pipeline
    /// order, between accept and the reply write.
    #[test]
    fn ring_caps_and_orders() {
        use std::time::{Duration, Instant};
        clear();
        configure(1_000, 4);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let stamps = Stamps {
            dequeued: Some(at(30)),
            decided: Some(at(70)),
            released: Some(at(100)),
            ..Stamps::new(t0, at(10))
        };
        for i in 0..10u64 {
            capture(
                i,
                &format!("submit {i}"),
                "granted",
                Outcome::Slow,
                &stamps,
                5_000,
            );
        }
        let snap = snapshot();
        assert_eq!(snap.len(), 4, "ring caps at the configured capacity");
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq), "oldest first");
        assert_eq!(snap.last().unwrap().conn, 9, "newest retained");
        assert_eq!(
            snap.last().unwrap().timeline,
            [
                ("accept", 0),
                ("enqueue", 10),
                ("dequeue", 30),
                ("decision", 70),
                ("fsync_release", 100),
                ("reply_write", 5_000)
            ]
        );
        assert!(captured_total() >= 10);
        clear();
        configure(DEFAULT_THRESHOLD_US, DEFAULT_CAPACITY);
    }

    #[test]
    fn json_shape_parses_and_escapes() {
        let mut r = SlowRecord {
            seq: 7,
            conn: 3,
            line: "submit \"x\"\n".into(),
            reply: "granted".into(),
            outcome: Outcome::Error,
            total_us: 1234,
            timeline: vec![("accept", 0), ("reply_write", 1234)],
        };
        r.line = truncate(&r.line);
        let json = to_json(&r);
        let v = obs::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("error"));
        assert_eq!(v.get("total_us").unwrap().as_num(), Some(1234.0));
        assert_eq!(v.get("line").unwrap().as_str(), Some("submit \"x\"\n"));
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        let long = "é".repeat(300);
        let t = truncate(&long);
        assert!(t.ends_with('…') && t.len() <= TEXT_CAP + '…'.len_utf8());
    }
}
