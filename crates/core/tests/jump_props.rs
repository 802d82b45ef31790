//! Property tests for capacity-profile attempt jumping (DESIGN.md §14).
//!
//! The contract under test: jumping (the default), the scheduler makes
//! **bit-identical decisions** to the exhaustive linear retry walk — same
//! grants (start, end, servers, `attempts`), same errors (variant and
//! fields) — for every selection policy and any interleaving of submits,
//! advances and releases. Only the split of a search's budget between
//! `attempts` (probed) and `attempts_skipped`/`attempts_jumped` (proved
//! infeasible without probing) may differ, and it must differ *exactly*
//! by the jumped count.

use coalloc_core::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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
        .seed(0x7E57)
        .build()
}

/// A scheduler over `n` servers that jumps, or walks every start.
fn sched(n: u32, cfg: SchedulerConfig, jump: bool) -> CoAllocScheduler {
    let mut s = CoAllocScheduler::new(n, cfg);
    s.set_linear_walk(!jump);
    s
}

/// A churn stream: requests with clustered arrivals plus a release mask.
fn churn_stream(n_servers: u32, len: usize) -> impl Strategy<Value = (Vec<Request>, Vec<u8>)> {
    (
        prop::collection::vec(
            (
                0i64..40,  // submit offset from previous
                0i64..200, // advance offset (s_r - q_r)
                1i64..120, // duration
                1u32..=n_servers,
            ),
            1..len,
        ),
        prop::collection::vec(0u8..3, len),
    )
        .prop_map(|(raw, mask)| {
            let mut t = 0i64;
            let reqs = raw
                .into_iter()
                .map(|(dt, adv, dur, n)| {
                    t += dt;
                    Request::advance(Time(t), Time(t + adv), Dur(dur), n)
                })
                .collect();
            (reqs, mask)
        })
}

fn assert_same_reply(
    a: &Result<Grant, ScheduleError>,
    b: &Result<Grant, ScheduleError>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            prop_assert_eq!(x.start, y.start);
            prop_assert_eq!(x.end, y.end);
            prop_assert_eq!(x.attempts, y.attempts);
            prop_assert_eq!(x.waiting, y.waiting);
            prop_assert_eq!(&x.servers, &y.servers);
        }
        (Err(x), Err(y)) => prop_assert_eq!(x, y),
        (x, y) => prop_assert!(false, "jump/linear divergence: jump={x:?} linear={y:?}"),
    }
    Ok(())
}

/// Accounting identity between the two modes: every attempt the linear
/// walk probes is either probed or jumped under jumping, and jumped
/// attempts are the only new source of skips.
fn assert_stats_identity(jump: &OpStats, linear: &OpStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        jump.attempts + jump.attempts_jumped,
        linear.attempts,
        "probed + jumped must equal the linear probe count"
    );
    prop_assert_eq!(
        jump.attempts_skipped - jump.attempts_jumped,
        linear.attempts_skipped,
        "non-jump skips (horizon/deadline short-circuit) must match"
    );
    prop_assert_eq!(linear.attempts_jumped, 0, "linear mode never jumps");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lockstep jump-vs-linear over random churn, all four policies.
    #[test]
    fn jumping_preserves_decisions_under_churn(
        (reqs, mask) in churn_stream(6, 40),
        policy_idx in 0usize..4,
    ) {
        let policy = POLICIES[policy_idx];
        let mut jump = sched(6, cfg(policy), true);
        let mut lin = sched(6, cfg(policy), false);
        // The constrained path with no constraint drives the same ladder.
        let mut free = sched(6, cfg(policy), true);
        let mut jobs = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            jump.advance_to(r.submit);
            lin.advance_to(r.submit);
            free.advance_to(r.submit);
            let a = jump.submit(r);
            let b = lin.submit(r);
            let c = free.submit_constrained(r, AttrSet::NONE);
            assert_same_reply(&a, &b)?;
            assert_same_reply(&c, &b)?;
            if let Ok(g) = &a {
                jobs.push(g.job);
            }
            // Interleave releases so the profile sees removals too.
            if mask[i] == 1 {
                if let Some(j) = jobs.pop() {
                    let released = jump.release(j);
                    prop_assert_eq!(released, lin.release(j));
                    prop_assert_eq!(released, free.release(j));
                }
            }
        }
        jump.check_consistency();
        lin.check_consistency();
        free.check_consistency();
        assert_stats_identity(jump.stats(), lin.stats())?;
        assert_stats_identity(free.stats(), lin.stats())?;
    }

    /// Same lockstep for the deadline-capped path, which uses a smaller
    /// attempt budget than the plain submit.
    #[test]
    fn jumping_preserves_deadline_decisions(
        (reqs, _mask) in churn_stream(4, 25),
        slack in 0i64..300,
    ) {
        let mut jump = sched(4, cfg(SelectionPolicy::PaperOrder), true);
        let mut lin = sched(4, cfg(SelectionPolicy::PaperOrder), false);
        for r in &reqs {
            jump.advance_to(r.submit);
            lin.advance_to(r.submit);
            let deadline = r.earliest_start + r.duration + Dur(slack);
            let a = jump.submit_with_deadline(r, deadline);
            let b = lin.submit_with_deadline(r, deadline);
            assert_same_reply(&a, &b)?;
        }
        jump.check_consistency();
        assert_stats_identity(jump.stats(), lin.stats())?;
    }

    /// Snapshot → restore → resubmit determinism: the profile is rebuilt
    /// from the snapshot's reservations, so a restored scheduler jumps —
    /// and therefore decides and accounts — exactly like the original.
    #[test]
    fn restored_profile_jumps_identically(
        (reqs, mask) in churn_stream(5, 25),
        (probes, _m2) in churn_stream(5, 15),
    ) {
        let mut s = sched(5, cfg(SelectionPolicy::ByServerId), true);
        let mut jobs = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            s.advance_to(r.submit);
            if let Ok(g) = s.submit(r) {
                jobs.push(g.job);
            }
            if mask[i] == 1 {
                if let Some(j) = jobs.pop() {
                    s.release(j).unwrap();
                }
            }
        }
        let snap = s.snapshot();
        let mut restored = CoAllocScheduler::restore(&snap).unwrap();
        restored.check_consistency(); // cross-checks the rebuilt profile
        let base_s = *s.stats();
        let base_r = *restored.stats();
        for p in &probes {
            let t = p.submit.max(s.now());
            s.advance_to(t);
            restored.advance_to(t);
            let a = s.submit(p);
            let b = restored.submit(p);
            assert_same_reply(&a, &b)?;
        }
        // Identical attempt accounting, jumped counts included. (Physical
        // visit counters may drift: restoring rebuilds trees from scratch,
        // so their shapes — not their contents — can differ.)
        let (ds, dr) = (s.stats().since(&base_s), restored.stats().since(&base_r));
        prop_assert_eq!(ds.attempts, dr.attempts);
        prop_assert_eq!(ds.attempts_skipped, dr.attempts_skipped);
        prop_assert_eq!(ds.attempts_jumped, dr.attempts_jumped);
        prop_assert_eq!(ds.phase1_searches, dr.phase1_searches);
        restored.check_consistency();
    }
}

/// The exact `Exhausted` rendering is part of the wire-visible contract
/// (servers echo it to clients), and jumping must not change its fields:
/// `attempts` is the full permitted try count and `last_tried` the final
/// permitted start, whether or not the walk actually probed them.
#[test]
fn exhausted_error_is_identical_and_pinned_under_jumping() {
    for jump in [false, true] {
        let mut s = sched(
            1,
            SchedulerConfig::builder()
                .tau(Dur(10))
                .horizon(Dur(100))
                .delta_t(Dur(10))
                .r_max(2)
                .build(),
            jump,
        );
        s.submit(&Request::on_demand(Time::ZERO, Dur(90), 1))
            .unwrap();
        let err = s
            .submit(&Request::on_demand(Time::ZERO, Dur(10), 1))
            .unwrap_err();
        assert_eq!(
            err,
            ScheduleError::Exhausted {
                attempts: 3,
                last_tried: Time(20)
            },
            "jump={jump}"
        );
        assert_eq!(
            err.to_string(),
            "no feasible start found after 3 attempts (last tried t=20)",
            "jump={jump}"
        );
    }
}

#[test]
fn horizon_error_is_identical_and_pinned_under_jumping() {
    for jump in [false, true] {
        let mut s = sched(
            2,
            SchedulerConfig::builder()
                .tau(Dur(10))
                .horizon(Dur(100))
                .delta_t(Dur(10))
                .build(),
            jump,
        );
        // Fill everything so no early grant can mask the horizon check.
        s.submit(&Request::on_demand(Time::ZERO, Dur(100), 2))
            .unwrap();
        let err = s
            .submit(&Request::on_demand(Time::ZERO, Dur(60), 1))
            .unwrap_err();
        assert_eq!(
            err,
            ScheduleError::HorizonExceeded {
                horizon_end: Time(100)
            },
            "jump={jump}"
        );
        assert_eq!(
            err.to_string(),
            "request does not fit before the horizon (t=100)",
            "jump={jump}"
        );
    }
}
