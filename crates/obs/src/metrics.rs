//! Process-global metrics registry: counters, gauges, log-linear histograms.
//!
//! Metrics are **always live** (no enabled flag): every update is a single
//! relaxed atomic RMW, cheap enough for the scheduler hot path. Handles are
//! `Clone` + cheap (an `Arc` around the atomics), so call sites either fetch
//! once via [`counter`]/[`gauge`]/[`histogram`] or use the `static`-friendly
//! [`LazyCounter`]/[`LazyGauge`]/[`LazyHistogram`] wrappers that resolve the
//! registry entry on first touch.
//!
//! [`exposition`] renders every registered metric in Prometheus text format
//! (histograms as cumulative `_bucket{le=...}` series plus `_sum`/`_count`),
//! which is what `coallocd --metrics-dump` and the chaos binaries print.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-buckets per power-of-two octave (see [`bucket_index`]).
const SUB: u64 = 4;
const SUB_BITS: u32 = 2; // log2(SUB)
/// Number of histogram buckets (covers all of u64 at ~19% resolution).
pub const BUCKETS: usize = ((64 - SUB_BITS as usize - 1) * SUB as usize) + SUB as usize + 1;

/// Map a value to its log-linear bucket: values below `SUB` (= 4) get
/// exact buckets, and each octave `[2^k, 2^(k+1))` above that is split
/// into `SUB` equal sub-buckets, giving a constant ~1/SUB relative error
/// with pure integer math (no floats on the hot path).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) - SUB;
    let idx = ((msb - SUB_BITS) as u64 * SUB + SUB + sub) as usize;
    idx.min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `idx` (the Prometheus `le` label).
pub fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let rel = (idx - SUB as usize) as u64;
    let octave = rel / SUB; // 0 => values in [4,8)
    let sub = rel % SUB;
    let base = SUB << octave; // 2^(octave+2)
    let width = 1u64 << octave; // base / SUB
                                // Upper bound is the next bucket's lower bound minus one.
    (base + (sub + 1) * width).saturating_sub(1)
}

/// A log-linear histogram of u64 observations (latencies in ns, depths,
/// counts). Concurrent [`Histogram::observe`] calls are lock-free.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Arc<[AtomicU64]>,
    sum: Arc<AtomicU64>,
    count: Arc<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: Arc::new(AtomicU64::new(0)),
            count: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` observations of the same value `v`: the buckets, sum and
    /// count [`Histogram::observe`] called `n` times would leave (the sum
    /// wrapping as `n` separate adds would), in three relaxed adds whatever
    /// `n` is. `n = 0` records nothing.
    #[inline]
    pub fn observe_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((bucket_upper(i), c))
            })
            .collect()
    }

    /// Approximate quantile `q` in `[0,1]` (upper bound of the bucket where
    /// the cumulative count crosses `q`), or `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            if acc >= target {
                return Some(bucket_upper(i));
            }
        }
        Some(bucket_upper(BUCKETS - 1))
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Fetch (registering on first use) the counter named `name`.
pub fn counter(name: &'static str) -> Counter {
    let mut reg = registry().lock().expect("metrics registry");
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Counter(Counter::default()))
    {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric '{name}' already registered with a different type"),
    }
}

/// Fetch (registering on first use) the gauge named `name`.
pub fn gauge(name: &'static str) -> Gauge {
    let mut reg = registry().lock().expect("metrics registry");
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Gauge::default()))
    {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric '{name}' already registered with a different type"),
    }
}

/// Fetch (registering on first use) the histogram named `name`.
pub fn histogram(name: &'static str) -> Histogram {
    let mut reg = registry().lock().expect("metrics registry");
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Histogram(Histogram::default()))
    {
        Metric::Histogram(h) => h.clone(),
        _ => panic!("metric '{name}' already registered with a different type"),
    }
}

/// Remove every registered metric (test isolation helper).
pub fn reset() {
    registry().lock().expect("metrics registry").clear();
}

/// Render all registered metrics as Prometheus-style text exposition.
/// Histograms emit cumulative `_bucket{le="..."}` lines for their non-empty
/// buckets plus `{le="+Inf"}`, `_sum`, and `_count`.
pub fn exposition() -> String {
    let reg = registry().lock().expect("metrics registry");
    let mut out = String::new();
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
            }
            Metric::Gauge(g) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
            }
            Metric::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                // Snapshot buckets first, then take the larger of the bucket
                // total and the count register: `observe` bumps the bucket
                // before the count, so a concurrent observer could otherwise
                // leave `+Inf` (from `count`) behind the cumulative buckets,
                // which strict exposition parsers reject.
                let buckets = h.nonzero_buckets();
                let mut cum = 0;
                for (upper, count) in buckets {
                    cum += count;
                    out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cum}\n"));
                }
                let total = h.count().max(cum);
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {total}\n"));
                out.push_str(&format!("{name}_sum {}\n", h.sum()));
                out.push_str(&format!("{name}_count {total}\n"));
            }
        }
    }
    out
}

/// Strictly validate Prometheus text-exposition output (format 0.0.4).
///
/// Std-only parser used by tests and `trace_check --expo` against real
/// server output. Checks, per metric family:
///
/// - every sample is preceded by a `# TYPE <name> <counter|gauge|histogram>`
///   line for its family, with no duplicate or interleaved families;
/// - metric and label names are well-formed (`[a-zA-Z_:][a-zA-Z0-9_:]*`);
/// - sample values parse as finite numbers (counters non-negative);
/// - histograms expose `_bucket{le="..."}` series with strictly increasing
///   `le` bounds and non-decreasing cumulative counts, a terminal
///   `{le="+Inf"}` bucket, and `_sum`/`_count` series where `_count`
///   equals the `+Inf` bucket and is `>=` the last finite bucket.
///
/// Returns `Ok(families)` (number of `# TYPE` families seen) or a
/// `line N: ...` error message.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    struct Family {
        name: String,
        kind: String,
        // histogram bookkeeping
        last_le: Option<f64>,
        last_cum: u64,
        inf_bucket: Option<u64>,
        sum_seen: bool,
        count_val: Option<u64>,
        samples: usize,
    }

    impl Family {
        fn finish(&self, line_no: usize) -> Result<(), String> {
            if self.samples == 0 {
                return Err(format!(
                    "line {line_no}: family '{}' has a TYPE line but no samples",
                    self.name
                ));
            }
            if self.kind == "histogram" {
                let inf = self.inf_bucket.ok_or_else(|| {
                    format!(
                        "line {line_no}: histogram '{}' missing le=\"+Inf\" bucket",
                        self.name
                    )
                })?;
                if !self.sum_seen {
                    return Err(format!(
                        "line {line_no}: histogram '{}' missing _sum",
                        self.name
                    ));
                }
                let count = self.count_val.ok_or_else(|| {
                    format!("line {line_no}: histogram '{}' missing _count", self.name)
                })?;
                if count != inf {
                    return Err(format!(
                        "line {line_no}: histogram '{}': _count {count} != +Inf bucket {inf}",
                        self.name
                    ));
                }
                if inf < self.last_cum {
                    return Err(format!(
                        "line {line_no}: histogram '{}': +Inf bucket {inf} < last finite bucket {}",
                        self.name, self.last_cum
                    ));
                }
            }
            Ok(())
        }
    }

    let mut family: Option<Family> = None;
    let mut done: Vec<String> = Vec::new();
    let mut families = 0usize;

    for (i, line) in text.lines().enumerate() {
        let no = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = match (parts.next(), parts.next(), parts.next()) {
                (Some(n), Some(k), None) => (n, k),
                _ => return Err(format!("line {no}: malformed TYPE line")),
            };
            if !valid_name(name) {
                return Err(format!("line {no}: invalid metric name '{name}'"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {no}: unknown metric type '{kind}'"));
            }
            if let Some(f) = family.take() {
                f.finish(no)?;
                done.push(f.name);
            }
            if done.iter().any(|d| d == name) {
                return Err(format!("line {no}: duplicate/interleaved family '{name}'"));
            }
            families += 1;
            family = Some(Family {
                name: name.to_string(),
                kind: kind.to_string(),
                last_le: None,
                last_cum: 0,
                inf_bucket: None,
                sum_seen: false,
                count_val: None,
                samples: 0,
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // comments / HELP lines
        }
        // Sample line: name[{labels}] value
        let (series, value_str) = match line.rsplit_once(' ') {
            Some((s, v)) if !s.is_empty() && !v.is_empty() => (s.trim_end(), v),
            _ => return Err(format!("line {no}: malformed sample line")),
        };
        let (series_name, labels) = match series.find('{') {
            Some(b) => {
                let Some(stripped) = series[b..]
                    .strip_prefix('{')
                    .and_then(|r| r.strip_suffix('}'))
                else {
                    return Err(format!("line {no}: unbalanced label braces"));
                };
                (&series[..b], Some(stripped))
            }
            None => (series, None),
        };
        if !valid_name(series_name) {
            return Err(format!("line {no}: invalid series name '{series_name}'"));
        }
        let mut le: Option<&str> = None;
        if let Some(labels) = labels {
            for pair in labels.split(',') {
                let Some((lname, lval)) = pair.split_once('=') else {
                    return Err(format!("line {no}: malformed label '{pair}'"));
                };
                if !valid_name(lname) || lname.contains(':') {
                    return Err(format!("line {no}: invalid label name '{lname}'"));
                }
                let Some(unq) = lval.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                    return Err(format!("line {no}: unquoted label value '{lval}'"));
                };
                if lname == "le" {
                    le = Some(unq);
                }
            }
        }
        let fam = family
            .as_mut()
            .ok_or_else(|| format!("line {no}: sample '{series_name}' before any TYPE line"))?;
        let base = series_name
            .strip_suffix("_bucket")
            .or_else(|| series_name.strip_suffix("_sum"))
            .or_else(|| series_name.strip_suffix("_count"))
            .filter(|b| fam.kind == "histogram" && *b == fam.name)
            .unwrap_or(series_name);
        if base != fam.name {
            return Err(format!(
                "line {no}: sample '{series_name}' does not belong to family '{}'",
                fam.name
            ));
        }
        let value: f64 = value_str
            .parse()
            .map_err(|_| format!("line {no}: unparseable value '{value_str}'"))?;
        if !value.is_finite() {
            return Err(format!("line {no}: non-finite sample value '{value_str}'"));
        }
        if fam.kind == "counter" && value < 0.0 {
            return Err(format!("line {no}: counter '{series_name}' is negative"));
        }
        fam.samples += 1;
        if fam.kind == "histogram" {
            if series_name.ends_with("_bucket") && series_name.len() > fam.name.len() {
                let le = le.ok_or_else(|| format!("line {no}: _bucket sample without le label"))?;
                let cum = value as u64;
                if le == "+Inf" {
                    if fam.inf_bucket.is_some() {
                        return Err(format!("line {no}: duplicate +Inf bucket"));
                    }
                    fam.inf_bucket = Some(cum);
                } else {
                    if fam.inf_bucket.is_some() {
                        return Err(format!("line {no}: finite bucket after +Inf"));
                    }
                    let bound: f64 = le
                        .parse()
                        .map_err(|_| format!("line {no}: unparseable le bound '{le}'"))?;
                    if !bound.is_finite() {
                        return Err(format!(
                            "line {no}: non-finite le bound '{le}' (only \"+Inf\" is allowed)"
                        ));
                    }
                    if let Some(prev) = fam.last_le {
                        if bound <= prev {
                            return Err(format!(
                                "line {no}: le bounds not strictly increasing ({prev} then {bound})"
                            ));
                        }
                    }
                    if cum < fam.last_cum {
                        return Err(format!(
                            "line {no}: cumulative bucket count decreased ({} then {cum})",
                            fam.last_cum
                        ));
                    }
                    fam.last_le = Some(bound);
                    fam.last_cum = cum;
                }
            } else if series_name.ends_with("_sum") && series_name.len() > fam.name.len() {
                fam.sum_seen = true;
            } else if series_name.ends_with("_count") && series_name.len() > fam.name.len() {
                fam.count_val = Some(value as u64);
            } else {
                return Err(format!(
                    "line {no}: bare sample '{series_name}' in histogram family"
                ));
            }
        }
    }
    let last_line = text.lines().count();
    if let Some(f) = family.take() {
        f.finish(last_line)?;
    }
    Ok(families)
}

/// A counter handle resolvable from a `static` context:
///
/// ```
/// static REQS: obs::LazyCounter = obs::LazyCounter::new("myapp_requests_total");
/// REQS.inc();
/// ```
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// Declare a counter bound to `name` (registered on first use).
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying registered counter.
    #[inline]
    pub fn get(&self) -> &Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.get().inc();
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }
}

/// A gauge handle resolvable from a `static` context (see [`LazyCounter`]).
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Gauge>,
}

impl LazyGauge {
    /// Declare a gauge bound to `name` (registered on first use).
    pub const fn new(name: &'static str) -> LazyGauge {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying registered gauge.
    #[inline]
    pub fn get(&self) -> &Gauge {
        self.cell.get_or_init(|| gauge(self.name))
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.get().set(v);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.get().add(d);
    }
}

/// A histogram handle resolvable from a `static` context (see
/// [`LazyCounter`]).
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Histogram>,
}

impl LazyHistogram {
    /// Declare a histogram bound to `name` (registered on first use).
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The underlying registered histogram.
    #[inline]
    pub fn get(&self) -> &Histogram {
        self.cell.get_or_init(|| histogram(self.name))
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.get().observe(v);
    }

    /// Record `n` observations of `v` ([`Histogram::observe_n`]).
    #[inline]
    pub fn observe_n(&self, v: u64, n: u64) {
        self.get().observe_n(v, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(h: &Histogram) -> (Vec<(u64, u64)>, u64, u64) {
        (h.nonzero_buckets(), h.sum(), h.count())
    }

    /// `observe_n(v, n)` leaves exactly what `n` calls to `observe(v)`
    /// leave, for values at and around every kind of bucket edge.
    #[test]
    fn observe_n_equals_n_observes() {
        let mut values = vec![0, 1, 2, 3, 4, 5, 7, 8, 9, 1000, u64::MAX - 1, u64::MAX];
        for k in 2..64 {
            let edge = 1u64 << k;
            values.extend([edge - 1, edge, edge + 1]);
        }
        for idx in 0..BUCKETS - 1 {
            let upper = bucket_upper(idx);
            values.extend([upper, upper.saturating_add(1)]);
        }
        for &v in &values {
            for n in [1u64, 2, 3, 17, 64, 1000] {
                let (batched, single) = (Histogram::default(), Histogram::default());
                batched.observe(12);
                single.observe(12);
                batched.observe_n(v, n);
                for _ in 0..n {
                    single.observe(v);
                }
                assert_eq!(state(&batched), state(&single), "v={v} n={n}");
            }
        }
    }

    #[test]
    fn observe_n_of_zero_changes_nothing() {
        let h = Histogram::default();
        h.observe(40);
        let before = state(&h);
        for v in [0, 1, 40, u64::MAX] {
            h.observe_n(v, 0);
        }
        assert_eq!(state(&h), before);
    }

    /// The sum wraps modulo 2^64, exactly as `n` separate adds would.
    #[test]
    fn observe_n_sum_wraps_like_separate_adds() {
        for (v, n) in [(u64::MAX, 2), (u64::MAX, 3), (1 << 63, 2), (1 << 62, 5)] {
            let h = Histogram::default();
            h.observe_n(v, n);
            let mut expect = 0u64;
            for _ in 0..n {
                expect = expect.wrapping_add(v);
            }
            assert_eq!(h.sum(), expect, "v={v} n={n}");
            assert_eq!(h.count(), n);
        }
    }
}
