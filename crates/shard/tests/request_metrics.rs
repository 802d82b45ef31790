//! The request metrics (`sched_requests_total`, `sched_grants_total`,
//! `sched_rejects_total`, the `sched_attempts` histogram) move by the same
//! amounts whichever engine serves a stream — the single scheduler, or the
//! sharded one at any `K`, inline or pooled.
//!
//! The metric registry is process-global, so this file holds exactly one
//! test: nothing else in its process touches the counters between the
//! before and after readings.

use coalloc_core::prelude::*;

fn readings() -> [u64; 4] {
    [
        obs::metrics::counter("sched_requests_total").get(),
        obs::metrics::counter("sched_grants_total").get(),
        obs::metrics::counter("sched_rejects_total").get(),
        obs::metrics::histogram("sched_attempts").count(),
    ]
}

type Replies = Vec<Result<Grant, ScheduleError>>;

/// Run `stream` and return its replies with the metric deltas it caused.
fn measured(stream: impl FnOnce() -> Replies) -> (Replies, [u64; 4]) {
    let before = readings();
    let replies = stream();
    let after = readings();
    (replies, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn every_engine_reports_the_same_request_metrics() {
    let cfg = SchedulerConfig::builder()
        .tau(Dur(10))
        .horizon(Dur(200))
        .delta_t(Dur(10))
        .r_max(6)
        .build();
    // Grants that contend for the same servers (so a pooled batch repairs
    // and moves members to later starts), two requests that never reach the ladder, and
    // rejects by exhaustion and by the horizon.
    let mut batch: Vec<Request> = (0..10)
        .map(|i| Request::on_demand(Time::ZERO, Dur(20 + (i % 3) * 10), 2 + (i as u32) % 4))
        .collect();
    batch.push(Request::on_demand(Time::ZERO, Dur(10), 0)); // invalid
    batch.push(Request::on_demand(Time::ZERO, Dur(10), 9)); // too many servers
    batch.push(Request::on_demand(Time::ZERO, Dur(500), 1)); // past the horizon
    batch.push(Request::advance(Time::ZERO, Time(150), Dur(50), 8)); // needs every server
    batch.push(Request::advance(Time::ZERO, Time(150), Dur(50), 1)); // exhausts R_max
    let late = Request::on_demand(Time::ZERO, Dur(30), 8);
    let hopeless = Request::on_demand(Time::ZERO, Dur(30), 1);

    let (expected, plain) = measured(|| {
        let mut s = CoAllocScheduler::new(8, cfg);
        let mut replies = s.submit_batch(&batch);
        replies.push(s.submit_with_deadline(&late, Time(190)));
        replies.push(s.submit_with_deadline(&hopeless, Time(20))); // too late: no ladder
        replies
    });
    let laddered = expected
        .iter()
        .filter(|r| {
            !matches!(
                r,
                Err(ScheduleError::InvalidRequest(_))
                    | Err(ScheduleError::TooManyServers { .. })
                    | Err(ScheduleError::Exhausted { attempts: 0, .. })
            )
        })
        .count() as u64;
    let grants = expected.iter().filter(|r| r.is_ok()).count() as u64;
    assert!(grants >= 8 && laddered - grants >= 2, "{expected:?}");
    assert_eq!(plain, [laddered, grants, laddered - grants, laddered]);

    for k in [1, 2, 4] {
        for pool_min_batch in [usize::MAX, 0] {
            let (replies, sharded) = measured(|| {
                let mut s = CoAllocScheduler::with_ranges(8, k, cfg);
                s.set_pool_min_batch(pool_min_batch);
                let mut replies = s.submit_batch(&batch);
                replies.push(s.submit_with_deadline(&late, Time(190)));
                replies.push(s.submit_with_deadline(&hopeless, Time(20)));
                replies
            });
            assert_eq!(replies, expected, "k={k} pool_min_batch={pool_min_batch}");
            assert_eq!(sharded, plain, "k={k} pool_min_batch={pool_min_batch}");
        }
    }
}
