//! Integration tests for the obs crate: histogram bucket boundaries,
//! concurrent counter increments, span nesting/timeline ordering, and JSONL
//! sink round-trip parsing.
//!
//! Tracing state (enabled flag, ring, sink) is process-global, so every test
//! that touches it serializes on [`GUARD`] and restores a clean state.

use std::sync::{Arc, Mutex, MutexGuard};

use obs::trace::{self, EventKind};
use obs::{obs_event, obs_span};

static GUARD: Mutex<()> = Mutex::new(());

/// Take the serialization lock and reset tracing to a known-clean state.
fn trace_lock() -> MutexGuard<'static, ()> {
    let guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    trace::set_enabled(false);
    trace::set_detail(false);
    trace::set_sink(None);
    trace::set_ring_capacity(0);
    trace::clear_ring();
    guard
}

#[test]
fn detail_level_gates_fine_grained_spans() {
    let _g = trace_lock();
    trace::set_enabled(true);
    trace::set_ring_capacity(64);

    // Detail off: detail-level macros are inert, normal level still records.
    {
        let s = obs::obs_span_detail!("test.detail_span", "k" => 1u64);
        assert!(!s.active(), "detail span inert while detail is off");
        obs::obs_event_detail!("test.detail_point");
        obs_event!("test.normal_point");
    }
    assert_eq!(trace::ring_events().len(), 1, "only the normal-level event");

    // Detail on: both levels record, and detail spans nest normally.
    trace::set_detail(true);
    trace::clear_ring();
    {
        let outer = obs_span!("test.outer");
        let inner = obs::obs_span_detail!("test.detail_span");
        assert!(inner.active());
        assert_eq!(
            trace::ring_events().last().unwrap().parent,
            outer.id(),
            "detail span nests under the normal-level span"
        );
    }
    assert_eq!(trace::ring_events().len(), 4);
    trace::set_detail(false);
    trace::set_enabled(false);
}

#[test]
fn histogram_bucket_boundaries() {
    // Small values get exact buckets.
    for v in 0..4u64 {
        assert_eq!(
            obs::metrics::bucket_index(v),
            v as usize,
            "exact bucket for {v}"
        );
        assert_eq!(obs::metrics::bucket_upper(v as usize), v);
    }
    // Each octave [2^k, 2^(k+1)) splits into 4 sub-buckets: [4,5) [5,6) [6,7) [7,8),
    // then [8,10) [10,12) [12,14) [14,16), etc.
    assert_eq!(obs::metrics::bucket_index(4), 4);
    assert_eq!(obs::metrics::bucket_index(5), 5);
    assert_eq!(obs::metrics::bucket_index(7), 7);
    assert_eq!(obs::metrics::bucket_index(8), 8);
    assert_eq!(obs::metrics::bucket_index(9), 8); // same sub-bucket as 8
    assert_eq!(obs::metrics::bucket_index(10), 9);
    assert_eq!(obs::metrics::bucket_index(15), 11);
    assert_eq!(obs::metrics::bucket_index(16), 12);

    // Index is monotone non-decreasing and the upper bound is an inverse:
    // every value lands in a bucket whose reported range contains it.
    let mut probes: Vec<u64> = (0..63)
        .flat_map(|exp| {
            [
                1u64 << exp,
                (1u64 << exp) + 1,
                (1u64 << exp).saturating_mul(2) - 1,
            ]
        })
        .collect();
    probes.sort_unstable();
    probes.dedup();
    let mut prev = 0;
    for v in probes {
        let idx = obs::metrics::bucket_index(v);
        assert!(idx >= prev, "monotone at {v}");
        prev = idx;
        assert!(obs::metrics::bucket_upper(idx) >= v, "upper({idx}) >= {v}");
        if idx > 0 {
            assert!(
                obs::metrics::bucket_upper(idx - 1) < v,
                "lower bound excludes {v}"
            );
        }
    }

    // Relative bucket width stays ~25% (log-linear guarantee).
    for v in [100u64, 1_000, 65_537, 1_000_000_007] {
        let idx = obs::metrics::bucket_index(v);
        let hi = obs::metrics::bucket_upper(idx);
        let lo = if idx == 0 {
            0
        } else {
            obs::metrics::bucket_upper(idx - 1) + 1
        };
        assert!(hi >= v && lo <= v);
        assert!(
            (hi - lo) as f64 <= 0.26 * lo as f64,
            "bucket [{lo},{hi}] too wide for {v}"
        );
    }
}

#[test]
fn histogram_observe_and_quantiles() {
    let h = obs::metrics::histogram("test_obs_hist_quantiles");
    for v in 1..=1000u64 {
        h.observe(v);
    }
    assert_eq!(h.count(), 1000);
    assert_eq!(h.sum(), 500_500);
    let median = h.quantile(0.5).unwrap();
    // Log-linear buckets: the answer is within one bucket (~25%) of 500.
    assert!((380..=640).contains(&median), "median ~500, got {median}");
    assert!(h.quantile(1.0).unwrap() >= 1000);
    assert_eq!(
        obs::metrics::histogram("test_obs_hist_empty").quantile(0.5),
        None
    );
}

#[test]
fn concurrent_counter_increments() {
    let c = obs::metrics::counter("test_obs_concurrent_total");
    let h = obs::metrics::histogram("test_obs_concurrent_hist");
    std::thread::scope(|s| {
        for t in 0..8 {
            let c = c.clone();
            let h = h.clone();
            s.spawn(move || {
                for i in 0..10_000u64 {
                    c.inc();
                    if i % 100 == 0 {
                        h.observe(t * 1000 + i);
                    }
                }
            });
        }
    });
    assert_eq!(c.get(), 80_000);
    assert_eq!(h.count(), 800);
    // Registry handle resolves to the same underlying atomics.
    assert_eq!(
        obs::metrics::counter("test_obs_concurrent_total").get(),
        80_000
    );
}

#[test]
fn exposition_renders_all_metric_kinds() {
    obs::metrics::counter("test_obs_expo_total").add(3);
    obs::metrics::gauge("test_obs_expo_gauge").set(-7);
    let h = obs::metrics::histogram("test_obs_expo_hist");
    h.observe(5);
    h.observe(5);
    h.observe(100);
    let text = obs::metrics::exposition();
    assert!(text.contains("# TYPE test_obs_expo_total counter"));
    assert!(text.contains("test_obs_expo_total 3"));
    assert!(text.contains("test_obs_expo_gauge -7"));
    assert!(text.contains("test_obs_expo_hist_bucket{le=\"5\"} 2"));
    assert!(text.contains("test_obs_expo_hist_bucket{le=\"+Inf\"} 3"));
    assert!(text.contains("test_obs_expo_hist_sum 110"));
    assert!(text.contains("test_obs_expo_hist_count 3"));
    // Cumulative counts are non-decreasing in bucket order.
    let mut last = 0u64;
    for line in text
        .lines()
        .filter(|l| l.starts_with("test_obs_expo_hist_bucket"))
    {
        let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(n >= last, "cumulative buckets must be monotone: {line}");
        last = n;
    }
}

#[test]
fn span_nesting_and_timeline_ordering() {
    let _g = trace_lock();
    trace::set_enabled(true);
    trace::set_ring_capacity(256);

    {
        let mut outer = obs_span!("test.outer", "n" => 2u64);
        obs_event!("test.point_in_outer");
        {
            let _inner = obs_span!("test.inner");
            obs_event!("test.point_in_inner", "k" => "v");
        }
        outer.record("done", true);
    }
    trace::set_enabled(false);

    let events = trace::ring_events();
    assert_eq!(
        events.len(),
        6,
        "outer start, point, inner start, point, inner end, outer end"
    );

    // Timestamps are non-decreasing (monotonic clock, single thread).
    for w in events.windows(2) {
        assert!(w[0].ts_ns <= w[1].ts_ns);
    }

    let outer_start = &events[0];
    assert_eq!(outer_start.kind, EventKind::SpanStart);
    assert_eq!(outer_start.name, "test.outer");
    assert_eq!(outer_start.parent, 0);
    let outer_id = outer_start.span;

    // The free point inherits the enclosing span.
    assert_eq!(events[1].kind, EventKind::Point);
    assert_eq!(events[1].span, outer_id);

    let inner_start = &events[2];
    assert_eq!(inner_start.parent, outer_id, "inner span nests under outer");
    let inner_id = inner_start.span;
    assert_ne!(inner_id, outer_id);
    assert_eq!(events[3].span, inner_id);
    assert_eq!(events[3].parent, outer_id);

    let inner_end = &events[4];
    assert_eq!(inner_end.kind, EventKind::SpanEnd);
    assert_eq!(inner_end.span, inner_id);
    assert!(inner_end.field("dur_ns").is_some());

    let outer_end = &events[5];
    assert_eq!(outer_end.span, outer_id);
    assert_eq!(outer_end.field("done"), Some(&trace::Value::Bool(true)));
    // Inner span is fully contained in outer.
    assert!(inner_start.ts_ns >= outer_start.ts_ns && inner_end.ts_ns <= outer_end.ts_ns);
}

#[test]
fn disabled_tracing_is_inert_and_skips_fields() {
    let _g = trace_lock();
    trace::set_ring_capacity(64);
    // Field expressions must not run while disabled.
    let mut evaluated = false;
    {
        let _s = obs_span!("test.disabled", "x" => { evaluated = true; 1u64 });
        obs_event!("test.disabled_point", "y" => { evaluated = true; 2u64 });
    }
    assert!(!evaluated, "disabled macros must not evaluate fields");
    assert!(trace::ring_events().is_empty());
}

#[test]
fn ring_buffer_caps_and_drops_oldest() {
    let _g = trace_lock();
    trace::set_enabled(true);
    trace::set_ring_capacity(8);
    for i in 0..20u64 {
        obs_event!("test.ring", "i" => i);
    }
    trace::set_enabled(false);
    let events = trace::ring_events();
    assert_eq!(events.len(), 8);
    // Oldest dropped: survivors are 12..=19.
    assert_eq!(events[0].field("i"), Some(&trace::Value::U64(12)));
    assert_eq!(events[7].field("i"), Some(&trace::Value::U64(19)));
}

#[test]
fn jsonl_sink_round_trip() {
    let _g = trace_lock();
    let dir = std::env::temp_dir().join(format!("obs_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("round_trip.jsonl");

    let sink = trace::JsonlSink::create(&path).unwrap();
    trace::set_sink(Some(Arc::new(sink)));
    trace::set_enabled(true);
    {
        let mut s = obs_span!("test.rt", "count" => 42u64, "label" => "a \"quoted\"\nline");
        obs_event!("test.rt_point", "neg" => -5i64, "pi" => 3.5f64, "flag" => true);
        s.record("outcome", "ok");
    }
    trace::set_enabled(false);
    trace::flush_sink();
    trace::set_sink(None);

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "start, point, end");

    let start = obs::json::parse(lines[0]).unwrap();
    assert_eq!(start.get("kind").unwrap().as_str(), Some("span_start"));
    assert_eq!(start.get("name").unwrap().as_str(), Some("test.rt"));
    assert_eq!(start.get("count").unwrap().as_num(), Some(42.0));
    assert_eq!(
        start.get("label").unwrap().as_str(),
        Some("a \"quoted\"\nline"),
        "escapes survive the round trip"
    );

    let point = obs::json::parse(lines[1]).unwrap();
    assert_eq!(point.get("neg").unwrap().as_num(), Some(-5.0));
    assert_eq!(point.get("pi").unwrap().as_num(), Some(3.5));
    assert_eq!(point.get("flag"), Some(&obs::json::Json::Bool(true)));
    // The point nests inside the span.
    assert_eq!(point.get("span"), start.get("span"));

    let end = obs::json::parse(lines[2]).unwrap();
    assert_eq!(end.get("kind").unwrap().as_str(), Some("span_end"));
    assert_eq!(end.get("outcome").unwrap().as_str(), Some("ok"));
    assert!(end.get("dur_ns").unwrap().as_num().unwrap() >= 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timelines_by_groups_and_orders() {
    let _g = trace_lock();
    trace::set_enabled(true);
    trace::set_ring_capacity(64);
    obs_event!("site.hold_granted", "txn" => 1u64, "site" => 0u64);
    obs_event!("site.hold_granted", "txn" => 2u64, "site" => 0u64);
    obs_event!("site.commit", "txn" => 1u64, "site" => 0u64);
    obs_event!("site.abort", "txn" => 2u64, "site" => 0u64);
    obs_event!("link.drop", "kind" => "hold"); // no txn field: excluded
    trace::set_enabled(false);

    let groups = trace::timelines_by(&trace::ring_events(), "txn");
    assert_eq!(groups.len(), 2);
    let txn1 = &groups
        .iter()
        .find(|(v, _)| *v == trace::Value::U64(1))
        .unwrap()
        .1;
    assert_eq!(txn1.len(), 2);
    assert_eq!(txn1[0].name, "site.hold_granted");
    assert_eq!(txn1[1].name, "site.commit");
    assert!(txn1[0].ts_ns <= txn1[1].ts_ns);
}

#[test]
fn json_parser_rejects_malformed() {
    assert!(obs::json::parse("{\"a\":1").is_err());
    assert!(obs::json::parse("{\"a\" 1}").is_err());
    assert!(obs::json::parse("{} trailing").is_err());
    assert!(obs::json::parse("\"unterminated").is_err());
    assert!(obs::json::parse("[1,2,]").is_err());
    assert!(obs::json::parse("nul").is_err());
    assert_eq!(
        obs::json::parse("{\"a\":[1,true,null,\"x\"]}")
            .unwrap()
            .get("a"),
        Some(&obs::json::Json::Arr(vec![
            obs::json::Json::Num(1.0),
            obs::json::Json::Bool(true),
            obs::json::Json::Null,
            obs::json::Json::Str("x".to_string()),
        ]))
    );
}

/// Trace lines may repeat an envelope key as a span attribute (an rpc span
/// carries `"kind":"hold"` after the envelope's `"kind":"span_start"`);
/// readers must see the first occurrence, not the shadowing attribute.
#[test]
fn json_parser_keeps_first_duplicate_key() {
    let v = obs::json::parse("{\"kind\":\"span_start\",\"txn\":1,\"kind\":\"hold\"}").unwrap();
    assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("span_start"));
    assert_eq!(v.get("txn").and_then(|t| t.as_num()), Some(1.0));
}
