//! Integration test: the scheduler emits phase-1/phase-2 spans and metrics
//! for a known request mix (ISSUE 2 satellite).

use coalloc_core::request::Request;
use coalloc_core::scheduler::{CoAllocScheduler, SchedulerConfig};
use coalloc_core::time::{Dur, Time};
use obs::trace::{self, EventKind};

#[test]
fn scheduler_emits_phase_spans_for_known_mix() {
    // This test owns the process-global tracing state; it is the only
    // tracing test in this binary, so no cross-test lock is needed.
    trace::set_enabled(true);
    trace::set_detail(true); // phase spans are detail-level
    trace::set_ring_capacity(4096);
    trace::clear_ring();

    // Linear retry walk: this test counts one phase-1 span per attempted
    // start, and profile jumping exists precisely to skip the probes the
    // middle attempts would have run.
    let mut s = CoAllocScheduler::new(
        4,
        SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(200))
            .delta_t(Dur(10))
            .build(),
    );
    s.set_linear_walk(true);
    // Known mix: two grants, then an infeasible request (5 > 4 servers is
    // rejected up front; instead overload the window to force retries).
    s.submit(&Request::advance(Time::ZERO, Time(10), Dur(30), 4))
        .expect("first grant");
    s.submit(&Request::advance(Time::ZERO, Time(10), Dur(30), 2))
        .expect("second grant retries past the full window");

    trace::set_enabled(false);
    trace::set_detail(false);
    let events = trace::ring_events();

    let submits: Vec<_> = events
        .iter()
        .filter(|e| e.name == "sched.submit" && e.kind == EventKind::SpanEnd)
        .collect();
    assert_eq!(submits.len(), 2, "one submit span per request");
    for end in &submits {
        assert_eq!(
            end.field("outcome"),
            Some(&trace::Value::Str("granted".into()))
        );
        assert!(end.field("dur_ns").is_some());
    }
    // The second request found slot [10,40) full and retried at least once.
    let attempts = match submits[1].field("attempts") {
        Some(trace::Value::U64(n)) => *n,
        other => panic!("attempts field missing or wrong type: {other:?}"),
    };
    assert!(attempts >= 2, "second request must retry, got {attempts}");

    // Phase spans nest under their submit span and carry the search fields.
    let p1_starts: Vec<_> = events
        .iter()
        .filter(|e| e.name == "sched.phase1" && e.kind == EventKind::SpanStart)
        .collect();
    let p1_ends: Vec<_> = events
        .iter()
        .filter(|e| e.name == "sched.phase1" && e.kind == EventKind::SpanEnd)
        .collect();
    assert!(p1_ends.len() >= 3, "at least one phase-1 per attempt");
    let submit_ids: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "sched.submit" && e.kind == EventKind::SpanStart)
        .map(|e| e.span)
        .collect();
    for p1 in &p1_starts {
        assert!(
            submit_ids.contains(&p1.parent),
            "phase-1 span nests under a submit span"
        );
    }
    for p1 in &p1_ends {
        assert!(p1.field("marked").is_some() || p1.field("trailing").is_some());
    }

    // Phase 2 only runs when phase 1 found enough candidates; with grants
    // happening, it must have run and reported what it retrieved.
    let p2_ends: Vec<_> = events
        .iter()
        .filter(|e| e.name == "sched.phase2" && e.kind == EventKind::SpanEnd)
        .collect();
    assert!(!p2_ends.is_empty(), "phase-2 spans present");
    for p2 in &p2_ends {
        assert!(p2.field("retrieved").is_some());
        assert!(p2.field("visits").is_some());
    }

    // Metrics side: phase counters and the attempts histogram moved.
    let text = obs::metrics::exposition();
    assert!(text.contains("sched_phase1_total"));
    assert!(text.contains("sched_phase2_total"));
    let grants = obs::metrics::counter("sched_grants_total").get();
    assert!(grants >= 2, "grant counter moved: {grants}");
    assert!(obs::metrics::histogram("sched_attempts").count() >= 2);
    trace::clear_ring();
    trace::set_ring_capacity(0);
}
