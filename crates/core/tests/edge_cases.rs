//! Edge cases around slot geometry, horizons and fragmentation.

use coalloc_core::prelude::*;

fn cfg(tau: i64, horizon: i64, dt: i64) -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur(tau))
        .horizon(Dur(horizon))
        .delta_t(Dur(dt))
        .build()
}

#[test]
fn job_exactly_filling_the_horizon() {
    let mut s = CoAllocScheduler::new(2, cfg(10, 100, 10));
    let g = s
        .submit(&Request::on_demand(Time::ZERO, Dur(100), 2))
        .expect("end == horizon_end is allowed");
    assert_eq!(g.end, s.horizon_end());
    // One second more cannot fit.
    let mut s2 = CoAllocScheduler::new(2, cfg(10, 100, 10));
    assert!(matches!(
        s2.submit(&Request::on_demand(Time::ZERO, Dur(101), 1)),
        Err(ScheduleError::HorizonExceeded { .. })
    ));
}

#[test]
fn delta_t_smaller_than_tau_probes_within_slots() {
    // Delta_t = 3, tau = 10: retries probe sub-slot offsets.
    let mut s = CoAllocScheduler::new(1, cfg(10, 200, 3));
    s.submit(&Request::on_demand(Time::ZERO, Dur(7), 1))
        .unwrap();
    let g = s
        .submit(&Request::on_demand(Time::ZERO, Dur(5), 1))
        .unwrap();
    // First fit is at t = 9 (attempts at 0, 3, 6 collide with [0, 7)).
    assert_eq!(g.start, Time(9));
    assert_eq!(g.attempts, 4);
    s.check_consistency();
}

#[test]
fn delta_t_larger_than_tau_skips_slots() {
    let mut s = CoAllocScheduler::new(1, cfg(10, 400, 35));
    s.submit(&Request::on_demand(Time::ZERO, Dur(30), 1))
        .unwrap();
    let g = s
        .submit(&Request::on_demand(Time::ZERO, Dur(10), 1))
        .unwrap();
    // Attempts at 0 (busy), 35 (free).
    assert_eq!(g.start, Time(35));
    assert_eq!(g.attempts, 2);
}

#[test]
fn sub_slot_jobs_fragment_a_single_slot() {
    // Jobs shorter than tau: several periods of one server may coexist
    // within one slot (the paper's bound of N periods per tree assumes
    // l_r >= tau; the implementation handles the general case).
    let mut s = CoAllocScheduler::new(1, cfg(100, 1000, 10));
    let a = s
        .submit(&Request::advance(Time::ZERO, Time(10), Dur(20), 1))
        .unwrap();
    let b = s
        .submit(&Request::advance(Time::ZERO, Time(50), Dur(20), 1))
        .unwrap();
    assert_eq!(a.start, Time(10));
    assert_eq!(b.start, Time(50));
    s.check_consistency();
    // The hole [30, 50) is findable.
    let hits = s.range_search(Time(30), Time(50));
    assert_eq!(hits.len(), 1);
    // And committable.
    let g = s.reserve(&[hits[0].server], Time(30), Time(50)).unwrap();
    assert_eq!(g.start, Time(30));
    s.check_consistency();
}

#[test]
fn start_exactly_on_slot_boundary() {
    let mut s = CoAllocScheduler::new(2, cfg(10, 100, 10));
    let g = s
        .submit(&Request::advance(Time::ZERO, Time(30), Dur(10), 2))
        .unwrap();
    assert_eq!(g.start, Time(30));
    assert_eq!(g.end, Time(40));
    // Adjacent booking ending exactly at 30 fits back-to-back.
    let g2 = s
        .submit(&Request::advance(Time::ZERO, Time(20), Dur(10), 2))
        .unwrap();
    assert_eq!(g2.start, Time(20));
    s.check_consistency();
}

#[test]
fn clock_advance_beyond_entire_horizon() {
    let mut s = CoAllocScheduler::new(3, cfg(10, 100, 10));
    s.submit(&Request::on_demand(Time::ZERO, Dur(50), 3))
        .unwrap();
    // Jump far past everything ever scheduled: the whole ring recycles.
    s.advance_to(Time(10_000));
    s.check_consistency();
    let g = s
        .submit(&Request::on_demand(Time(10_000), Dur(40), 3))
        .unwrap();
    assert_eq!(g.start, Time(10_000));
}

#[test]
fn release_after_clock_advance_past_history() {
    let mut s = CoAllocScheduler::new(1, cfg(10, 100, 10));
    let g = s
        .submit(&Request::on_demand(Time::ZERO, Dur(20), 1))
        .unwrap();
    // Advance far enough that the reservation is pruned history. Pruning
    // forgets the job entirely (so a snapshot-restored twin agrees), hence
    // releasing the ancient job reports it unknown — and corrupts nothing.
    s.advance_to(Time(500));
    assert!(matches!(
        s.release(g.job),
        Err(ScheduleError::UnknownJob(_))
    ));
    s.check_consistency();
}

#[test]
fn release_of_finished_but_unpruned_job_retires_it() {
    let mut s = CoAllocScheduler::new(1, cfg(10, 100, 10));
    let g = s
        .submit(&Request::on_demand(Time::ZERO, Dur(20), 1))
        .unwrap();
    // Finished (end=20 < now=100) but before the amortized prune threshold:
    // the job is still known and releasable exactly once.
    s.advance_to(Time(100));
    s.release(g.job).unwrap();
    assert!(matches!(
        s.release(g.job),
        Err(ScheduleError::UnknownJob(_))
    ));
    // Its busy seconds still count as completed work.
    assert!(s.utilization(Time(100)) > 0.0);
    s.check_consistency();
}

#[test]
fn many_fragments_stress_one_slot() {
    // 64 tiny alternating reservations inside a single 10_000-second slot.
    let mut s = CoAllocScheduler::new(4, cfg(10_000, 100_000, 10));
    for i in 0..64i64 {
        s.submit(&Request::advance(Time::ZERO, Time(i * 100), Dur(50), 2))
            .unwrap();
    }
    s.check_consistency();
    // Every inter-reservation gap is findable.
    for i in 0..64i64 {
        let gap_start = Time(i * 100 + 50);
        let hits = s.range_search(gap_start, gap_start + Dur(50));
        assert!(hits.len() >= 2, "gap {i} lost");
    }
}

#[test]
fn all_servers_requested_repeatedly() {
    let mut s = CoAllocScheduler::new(8, cfg(10, 1000, 10));
    let mut expected_start = 0i64;
    for _ in 0..10 {
        let g = s
            .submit(&Request::on_demand(Time::ZERO, Dur(50), 8))
            .unwrap();
        assert_eq!(g.start, Time(expected_start));
        expected_start += 50;
    }
    s.check_consistency();
    assert!((s.utilization(Time(500)) - 1.0).abs() < 1e-9);
}

#[test]
fn interleaved_release_and_resubmit_churn() {
    let mut s = CoAllocScheduler::new(4, cfg(10, 500, 10));
    let mut jobs = std::collections::VecDeque::new();
    for round in 0..50i64 {
        if let Ok(g) = s.submit(&Request::advance(
            Time::ZERO,
            Time((round * 37) % 400),
            Dur(30 + (round % 5) * 10),
            1 + (round % 3) as u32,
        )) {
            jobs.push_back(g.job);
        }
        if jobs.len() > 5 {
            let j = jobs.pop_front().unwrap();
            s.release(j).unwrap();
        }
        if round % 10 == 9 {
            s.check_consistency();
        }
    }
    s.check_consistency();
}

#[test]
fn range_count_equals_range_search_len_everywhere() {
    let mut s = CoAllocScheduler::new(5, cfg(10, 300, 10));
    for i in 0..12i64 {
        let _ = s.submit(&Request::advance(
            Time::ZERO,
            Time(i * 20),
            Dur(25),
            1 + (i % 3) as u32,
        ));
    }
    for a in (0..280).step_by(7) {
        for len in [1i64, 10, 40] {
            let (lo, hi) = (Time(a), Time(a + len));
            assert_eq!(
                s.range_count(lo, hi),
                s.range_search(lo, hi).len(),
                "window [{a}, {})",
                a + len
            );
        }
    }
}

#[test]
fn beyond_horizon_request_succeeds_after_clock_advance() {
    let mut s = CoAllocScheduler::new(2, cfg(10, 100, 10));
    // Wants [150, 170): outside today's horizon [0, 100).
    let req = Request::advance(Time::ZERO, Time(150), Dur(20), 2);
    assert!(matches!(
        s.submit(&req),
        Err(ScheduleError::HorizonExceeded { .. })
    ));
    // The user resubmits once the horizon has rolled forward.
    s.advance_to(Time(80));
    let g = s
        .submit(&Request::advance(Time(80), Time(150), Dur(20), 2))
        .unwrap();
    assert_eq!(g.start, Time(150));
    s.check_consistency();
}

#[test]
fn grant_ending_exactly_at_horizon_edge_survives_advance() {
    let mut s = CoAllocScheduler::new(1, cfg(10, 100, 10));
    let g = s
        .submit(&Request::advance(Time::ZERO, Time(90), Dur(10), 1))
        .unwrap();
    assert_eq!(g.end, Time(100));
    // Advancing far keeps the commitment until it expires, then prunes it.
    s.advance_to(Time(95));
    assert!(s.job(g.job).is_some());
    s.check_consistency();
    s.advance_to(Time(500));
    s.check_consistency();
    // History was pruned, and pruning forgets the job: releasing is still
    // safe but reports it unknown (identically on any restored twin).
    assert!(matches!(
        s.release(g.job),
        Err(ScheduleError::UnknownJob(_))
    ));
    s.check_consistency();
}

#[test]
fn range_search_never_returns_unusable_past_windows() {
    let mut s = CoAllocScheduler::new(2, cfg(10, 100, 10));
    s.advance_to(Time(50));
    // A window entirely in the past yields nothing.
    assert!(s.range_search(Time(10), Time(30)).is_empty());
    // A window straddling `now` is clamped: the hit must cover [50, 60).
    let hits = s.range_search(Time(40), Time(60));
    assert_eq!(hits.len(), 2);
    for h in hits {
        assert!(h.idle_start <= Time(50) && h.idle_end >= Time(60));
    }
}

#[test]
fn single_server_system() {
    let mut s = CoAllocScheduler::new(1, cfg(10, 100, 10));
    let g = s
        .submit(&Request::on_demand(Time::ZERO, Dur(10), 1))
        .unwrap();
    assert_eq!(g.servers, vec![ServerId(0)]);
    assert!(matches!(
        s.submit(&Request::on_demand(Time::ZERO, Dur(10), 2)),
        Err(ScheduleError::TooManyServers { .. })
    ));
}
