//! Span/event tracing core.
//!
//! A **span** is a named interval of work; spans nest via a thread-local
//! stack, so every event knows its enclosing span and every span knows its
//! parent. A **point event** is an instant observation (a message dropped, a
//! hold granted) with key=value fields. Both are recorded as [`Event`]s:
//! into the global in-memory **ring buffer** (for post-mortem dumps, e.g.
//! reconstructing a per-transaction Hold/Commit/Abort timeline after a chaos
//! invariant fails) and into the installed [`Sink`], if any.
//!
//! Timestamps are nanoseconds on a process-wide monotonic clock (anchored at
//! first use), so events from different threads order consistently.
//!
//! The enabled flag is a relaxed atomic: the *disabled* cost of the
//! [`obs_span!`](crate::obs_span)/[`obs_event!`](crate::obs_event) macros is one load and a
//! branch, and field expressions are not evaluated.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Default ring-buffer capacity installed by `COALLOC_OBS=on` and the
/// `--trace-out` binaries (events; the buffer drops the oldest beyond this).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DETAIL: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
// Lock-free mirror of `RING.cap` so the dispatch hot path can skip the ring
// mutex entirely when no ring is configured (the null-sink benchmark case).
static RING_CAP: AtomicUsize = AtomicUsize::new(0);
static RING: Mutex<Ring> = Mutex::new(Ring {
    cap: 0,
    buf: VecDeque::new(),
});

struct Ring {
    cap: usize,
    buf: VecDeque<Event>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Small dense id of the calling thread (1-based, assigned on first use).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Whether tracing is currently enabled. Check this before building fields
/// (the [`obs_span!`](crate::obs_span)/[`obs_event!`](crate::obs_event) macros do).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable tracing.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether *detail-level* tracing is enabled: per-attempt phase spans inside
/// the scheduler's `Delta_t`/`R_max` retry loop and similarly fine-grained
/// instrumentation. These can emit hundreds of events per request under
/// retry churn, so they sit behind a second gate (off by default even when
/// tracing is on) to keep the default-level overhead within the <5% budget.
#[inline]
pub fn detail_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && DETAIL.load(Ordering::Relaxed)
}

/// Enable or disable detail-level tracing (effective only while tracing
/// itself is enabled).
pub fn set_detail(on: bool) {
    DETAIL.store(on, Ordering::Relaxed);
}

/// Install (or remove) the event sink. Events always also go to the ring
/// buffer when one is configured.
pub fn set_sink(sink: Option<Arc<dyn Sink>>) {
    *SINK.write().expect("sink lock") = sink;
}

/// Flush the installed sink, if any (JSONL sinks buffer internally).
pub fn flush_sink() {
    if let Some(s) = SINK.read().expect("sink lock").as_ref() {
        s.flush();
    }
}

/// Resize the in-memory ring buffer (0 disables it; the default is 0 so the
/// null-sink hot path does not take the ring lock).
pub fn set_ring_capacity(cap: usize) {
    let mut ring = RING.lock().expect("ring lock");
    ring.cap = cap;
    while ring.buf.len() > cap {
        ring.buf.pop_front();
    }
    RING_CAP.store(cap, Ordering::Relaxed);
}

/// Snapshot the ring buffer, oldest first.
pub fn ring_events() -> Vec<Event> {
    RING.lock()
        .expect("ring lock")
        .buf
        .iter()
        .cloned()
        .collect()
}

/// Drop everything buffered in the ring.
pub fn clear_ring() {
    RING.lock().expect("ring lock").buf.clear();
}

/// A structured field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// What kind of record an [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart,
    /// A span closed (`dur_ns` field carries the duration).
    SpanEnd,
    /// An instant observation.
    Point,
}

impl EventKind {
    /// Stable lowercase name used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
        }
    }
}

/// One structured trace record.
#[derive(Clone, Debug)]
pub struct Event {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Dense id of the emitting thread.
    pub thread: u64,
    /// The span this record belongs to (the span itself for start/end, the
    /// enclosing span for points; 0 = none).
    pub span: u64,
    /// The enclosing span's id (0 = top level).
    pub parent: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Span or event name (static, dot-separated taxonomy).
    pub name: &'static str,
    /// Structured key=value payload.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Serialize as one JSON object (one JSONL line, without the newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"ts_ns\":{},\"thread\":{},\"kind\":\"{}\",\"name\":\"{}\",\"span\":{},\"parent\":{}",
            self.ts_ns,
            self.thread,
            self.kind.as_str(),
            crate::json::escape(self.name),
            self.span,
            self.parent
        ));
        for (k, v) in &self.fields {
            out.push_str(&format!(",\"{}\":", crate::json::escape(k)));
            match v {
                Value::U64(x) => out.push_str(&x.to_string()),
                Value::I64(x) => out.push_str(&x.to_string()),
                Value::F64(x) => {
                    if x.is_finite() {
                        out.push_str(&x.to_string())
                    } else {
                        out.push_str("null")
                    }
                }
                Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
                Value::Str(s) => out.push_str(&format!("\"{}\"", crate::json::escape(s))),
            }
        }
        out.push('}');
        out
    }

    /// One-line human rendering (what [`StderrSink`] prints).
    pub fn pretty(&self) -> String {
        let mut out = format!(
            "[{:>12.3}ms] t{:02} {:<10} {}",
            self.ts_ns as f64 / 1e6,
            self.thread,
            self.kind.as_str(),
            self.name
        );
        for (k, v) in &self.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out
    }
}

/// Where recorded events go (besides the ring buffer).
pub trait Sink: Send + Sync {
    /// Record one event.
    fn record(&self, event: &Event);
    /// Flush any buffering (default: no-op).
    fn flush(&self) {}
}

/// Discards every event — for measuring instrumentation overhead and as a
/// stand-in where a sink is required.
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Pretty-prints every event to stderr (debugging aid; slow).
pub struct StderrSink;

impl Sink for StderrSink {
    fn record(&self, event: &Event) {
        eprintln!("{}", event.pretty());
    }
}

/// Appends one JSON object per event to a file — the post-mortem trace
/// format (`--trace-out`). Lines are buffered; call
/// [`flush_sink`] (or drop the sink) before reading the file.
pub struct JsonlSink {
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Create (truncate) the trace file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(std::io::BufWriter::new(file)),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut w = self.writer.lock().expect("jsonl writer");
        let _ = writeln!(w, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl writer").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Collects events into a shared vector — test helper sink.
#[derive(Clone, Default)]
pub struct CaptureSink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl CaptureSink {
    /// An empty capture.
    pub fn new() -> CaptureSink {
        CaptureSink::default()
    }

    /// Snapshot everything captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("capture lock").clone()
    }
}

impl Sink for CaptureSink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("capture lock")
            .push(event.clone());
    }
}

fn dispatch(event: Event) {
    if RING_CAP.load(Ordering::Relaxed) > 0 {
        let mut ring = RING.lock().expect("ring lock");
        if ring.cap > 0 {
            if ring.buf.len() == ring.cap {
                ring.buf.pop_front();
            }
            ring.buf.push_back(event.clone());
        }
    }
    if let Some(sink) = SINK.read().expect("sink lock").as_ref() {
        sink.record(&event);
    }
}

/// Emit a point event (callers normally use
/// [`obs_event!`](crate::obs_event), which checks [`enabled`] first).
pub fn point(name: &'static str, fields: Vec<(&'static str, Value)>) {
    if !enabled() {
        return;
    }
    let (span, parent) = SPAN_STACK.with(|s| {
        let s = s.borrow();
        let n = s.len();
        (
            if n > 0 { s[n - 1] } else { 0 },
            if n > 1 { s[n - 2] } else { 0 },
        )
    });
    dispatch(Event {
        ts_ns: now_ns(),
        thread: thread_id(),
        span,
        parent,
        kind: EventKind::Point,
        name,
        fields,
    });
}

/// Open a span with no initial fields. Equivalent to `obs_span!(name)`.
pub fn span(name: &'static str) -> SpanGuard {
    span_fields(name, Vec::new())
}

/// An inert guard that records nothing — what the span macros return on
/// their disabled path.
pub fn inert_span(name: &'static str) -> SpanGuard {
    SpanGuard {
        id: 0,
        parent: 0,
        start_ns: 0,
        name,
        closing: Vec::new(),
    }
}

/// Open a span with initial fields (recorded on the start event). Returns an
/// inert no-op guard when tracing is disabled.
pub fn span_fields(name: &'static str, fields: Vec<(&'static str, Value)>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            parent: 0,
            start_ns: 0,
            name,
            closing: Vec::new(),
        };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    dispatch(Event {
        ts_ns: start_ns,
        thread: thread_id(),
        span: id,
        parent,
        kind: EventKind::SpanStart,
        name,
        fields,
    });
    SpanGuard {
        id,
        parent,
        start_ns,
        name,
        closing: Vec::new(),
    }
}

/// RAII guard for an open span: dropping it emits the `span_end` event with
/// a `dur_ns` field plus everything attached via [`SpanGuard::record`].
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    id: u64,
    parent: u64,
    start_ns: u64,
    name: &'static str,
    closing: Vec<(&'static str, Value)>,
}

impl SpanGuard {
    /// Whether this guard refers to a live span (tracing was enabled when it
    /// was opened).
    pub fn active(&self) -> bool {
        self.id != 0
    }

    /// The span id (0 when inert).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a field to be emitted on the span's end event. No-op on an
    /// inert guard (note the value is still evaluated; keep them cheap or
    /// check [`SpanGuard::active`] first).
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.id != 0 {
            self.closing.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(s.last().copied(), Some(self.id), "span drop order");
            s.pop();
        });
        let end_ns = now_ns();
        let mut fields = std::mem::take(&mut self.closing);
        fields.push(("dur_ns", Value::U64(end_ns - self.start_ns)));
        dispatch(Event {
            ts_ns: end_ns,
            thread: thread_id(),
            span: self.id,
            parent: self.parent,
            kind: EventKind::SpanEnd,
            name: self.name,
            fields,
        });
    }
}

/// Emit a point event with key=value fields, evaluating the field
/// expressions only when tracing is enabled:
///
/// ```
/// obs::obs_event!("link.drop", "txn" => 7u64, "kind" => "hold");
/// ```
#[macro_export]
macro_rules! obs_event {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::point($name, vec![$(($k, $crate::trace::Value::from($v))),*]);
        }
    };
}

/// Open a span with optional initial fields; returns a [`SpanGuard`]
/// (inert when tracing is disabled — fields are then not evaluated):
///
/// ```
/// let mut span = obs::obs_span!("sched.submit", "servers" => 4u32);
/// span.record("outcome", "granted");
/// ```
#[macro_export]
macro_rules! obs_span {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::span_fields($name, vec![$(($k, $crate::trace::Value::from($v))),*])
        } else {
            $crate::trace::inert_span($name)
        }
    };
}

/// Like [`obs_event!`](crate::obs_event) but gated on
/// [`detail_enabled`]: for fine-grained events inside
/// retry loops that would blow the default-level overhead budget.
#[macro_export]
macro_rules! obs_event_detail {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::trace::detail_enabled() {
            $crate::trace::point($name, vec![$(($k, $crate::trace::Value::from($v))),*]);
        }
    };
}

/// Like [`obs_span!`](crate::obs_span) but gated on
/// [`detail_enabled`]: per-attempt phase spans and other
/// per-iteration instrumentation. Returns an inert guard unless both the
/// global enable and the detail level are on.
#[macro_export]
macro_rules! obs_span_detail {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::trace::detail_enabled() {
            $crate::trace::span_fields($name, vec![$(($k, $crate::trace::Value::from($v))),*])
        } else {
            $crate::trace::inert_span($name)
        }
    };
}

/// Reconstruct per-key timelines from `events`: all events whose `key` field
/// equals one of the observed values, grouped by value, each group in
/// timestamp order. Used to dump per-transaction Hold/Commit/Abort
/// interleavings after a chaos failure.
pub fn timelines_by(events: &[Event], key: &str) -> Vec<(Value, Vec<Event>)> {
    let mut groups: Vec<(Value, Vec<Event>)> = Vec::new();
    for e in events {
        if let Some(v) = e.field(key) {
            match groups.iter_mut().find(|(g, _)| g == v) {
                Some((_, list)) => list.push(e.clone()),
                None => groups.push((v.clone(), vec![e.clone()])),
            }
        }
    }
    for (_, list) in &mut groups {
        list.sort_by_key(|e| e.ts_ns);
    }
    groups
}
