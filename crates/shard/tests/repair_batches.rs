//! Two hand-built pooled batches around the repair rule of the batch
//! overlay (DESIGN.md §9): one whose members all overlap earlier grants
//! and are nevertheless granted at their first start, one where a member
//! loses too many servers to earlier grants and moves to a later start.
//! Checked for every selection policy — best and worst fit read the
//! *trimmed* end of a repaired period, paper order its trimmed start —
//! against one-by-one submission.

use coalloc_core::prelude::*;

const POLICIES: [SelectionPolicy; 4] = [
    SelectionPolicy::PaperOrder,
    SelectionPolicy::BestFit,
    SelectionPolicy::WorstFit,
    SelectionPolicy::ByServerId,
];

fn cfg(policy: SelectionPolicy) -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur(10))
        .horizon(Dur(400))
        .delta_t(Dur(10))
        .policy(policy)
        .build()
}

/// Submit `reqs` as one pooled batch and one by one; the replies, the
/// grouping-invariant counters and the final shard state must agree.
/// Returns the replies.
fn pooled_vs_sequential(
    servers: u32,
    policy: SelectionPolicy,
    reqs: &[Request],
) -> Vec<Result<Grant, ScheduleError>> {
    let mut pooled = CoAllocScheduler::with_ranges(servers, 2, cfg(policy));
    pooled.set_pool_min_batch(0);
    let mut seq = CoAllocScheduler::with_ranges(servers, 2, cfg(policy));
    let got = pooled.submit_batch(reqs);
    let want: Vec<_> = reqs.iter().map(|r| seq.submit(r)).collect();
    assert_eq!(got, want, "{policy:?}");
    let (a, b) = (pooled.stats(), seq.stats());
    assert_eq!(
        (
            a.attempts,
            a.attempts_skipped,
            a.phase1_searches,
            a.update_visits
        ),
        (
            b.attempts,
            b.attempts_skipped,
            b.phase1_searches,
            b.update_visits
        ),
        "{policy:?}"
    );
    assert_eq!(
        (a.periods_inserted, a.periods_removed, a.rebuilds),
        (b.periods_inserted, b.periods_removed, b.rebuilds),
        "{policy:?}"
    );
    pooled.check_consistency();
    // The next batch searches ranges built from the queued commits.
    let probe = Request::on_demand(Time::ZERO, Dur(100), 1);
    assert_eq!(
        pooled.submit_batch(&[probe]),
        vec![seq.submit(&probe)],
        "{policy:?}"
    );
    got
}

#[test]
fn repaired_members_are_granted_and_starved_ones_move_on() {
    for policy in POLICIES {
        // Eight idle servers: every member's pre-batch set is all eight
        // trailing periods, so each later one meets the earlier grants.
        // What a policy picks depends on the repaired values: for
        // [40, 60) the latest start is on the servers busy until 40, not on
        // those busy until 20 or the untouched ones; for [60, 80) the
        // tightest (and for worst fit the loosest) fit is decided by which
        // servers [80, 110) turned finite.
        let kept = [
            Request::on_demand(Time::ZERO, Dur(20), 2),
            // Overlaps the first grant on its two servers: dropped, six left.
            Request::on_demand(Time::ZERO, Dur(40), 2),
            Request::advance(Time::ZERO, Time(40), Dur(20), 2),
            Request::advance(Time::ZERO, Time(80), Dur(30), 3),
            Request::advance(Time::ZERO, Time(60), Dur(20), 3),
            // Overlaps [80, 110) on three servers: dropped, five left.
            Request::advance(Time::ZERO, Time(85), Dur(10), 5),
        ];
        let replies = pooled_vs_sequential(8, policy, &kept);
        assert!(
            replies
                .iter()
                .all(|r| matches!(r, Ok(g) if g.attempts == 1)),
            "{policy:?}"
        );

        // Four servers. The second member finds one of its four pre-batch
        // periods left at 0 and is granted at 30, its fourth attempt. The
        // third is granted at 0: of its four periods three are dropped,
        // and the last one stands — trimmed, if the second member's grant
        // took that server, which the third member can only know because
        // every grant is logged.
        let starved = [
            Request::on_demand(Time::ZERO, Dur(30), 3),
            Request::on_demand(Time::ZERO, Dur(30), 2),
            Request::on_demand(Time::ZERO, Dur(10), 1),
        ];
        let replies = pooled_vs_sequential(4, policy, &starved);
        let starts: Vec<Time> = replies.iter().map(|r| r.as_ref().unwrap().start).collect();
        assert_eq!(starts, [Time(0), Time(30), Time(0)], "{policy:?}");
        assert_eq!(replies[1].as_ref().unwrap().attempts, 4, "{policy:?}");
    }
}
