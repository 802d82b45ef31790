//! The two error replies of capacity-profile attempt jumping (DESIGN.md
//! §14), pinned: jumping must not change a single field of either. That
//! jumping decides like the exhaustive linear walk, and accounts for each
//! start it skips, is checked over generated protocol streams by
//! `crates/net/tests/spine.rs`.

use coalloc_core::prelude::*;

/// A scheduler over `n` servers that jumps, or walks every start.
fn sched(n: u32, cfg: SchedulerConfig, jump: bool) -> CoAllocScheduler {
    let mut s = CoAllocScheduler::new(n, cfg);
    s.set_linear_walk(!jump);
    s
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
