//! Property-based tests for the core co-allocation invariants. That the
//! scheduler decides like the naive one at every K, and that its range
//! search finds what inspecting every server finds, is checked over
//! generated protocol streams by `crates/net/tests/spine.rs`.

use coalloc_core::ids::PeriodId;
use coalloc_core::prelude::*;
use proptest::prelude::*;

/// Strategy: a stream of requests with small parameters, fitting a system of
/// `n_servers` servers with tau=10 / horizon=400 slotting.
fn request_stream(n_servers: u32, len: usize) -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(
        (
            0i64..200, // submit offset from previous
            0i64..120, // advance offset (s_r - q_r)
            1i64..80,  // duration
            1u32..=n_servers,
        ),
        1..len,
    )
    .prop_map(|raw| {
        let mut t = 0i64;
        raw.into_iter()
            .map(|(dt, adv, dur, n)| {
                t += dt % 20; // mostly clustered arrivals
                Request::advance(Time(t), Time(t + adv), Dur(dur), n)
            })
            .collect()
    })
}

/// Paper-order selection on a tau=10 / horizon=400 slotting.
fn small_cfg() -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur(10))
        .horizon(Dur(400))
        .delta_t(Dur(10))
        .seed(0xABCD)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every grant satisfies the contract: `start >= max(s_r, now)`, the
    /// delay is a multiple of `Delta_t` bounded by `R_max * Delta_t`, the
    /// right number of distinct servers is returned, and the reservation is
    /// recorded on each of them.
    #[test]
    fn grant_contract(reqs in request_stream(4, 30)) {
        let cfg = small_cfg();
        let r_max = cfg.effective_r_max() as i64;
        let mut s = CoAllocScheduler::new(4, cfg);
        for r in &reqs {
            s.advance_to(r.submit);
            let earliest = r.earliest_start.max(s.now());
            if let Ok(g) = s.submit(r) {
                prop_assert!(g.start >= earliest);
                let delay = (g.start - earliest).secs();
                prop_assert_eq!(delay % cfg.delta_t.secs(), 0);
                prop_assert!(delay <= r_max * cfg.delta_t.secs());
                prop_assert_eq!(g.end, g.start + r.duration);
                let mut servers = g.servers.clone();
                servers.sort();
                servers.dedup();
                prop_assert_eq!(servers.len(), r.servers as usize);
                for srv in &g.servers {
                    let reserved = s
                        .timeline()
                        .reservations(*srv)
                        .iter()
                        .any(|res| res.job == g.job && res.start == g.start && res.end == g.end);
                    prop_assert!(reserved, "missing reservation on {srv:?}");
                }
            }
        }
    }

    /// Releasing every granted job returns the system to a fully idle state:
    /// one open-ended idle period per server and zero utilization ahead.
    #[test]
    fn release_everything_restores_idle_state(reqs in request_stream(4, 25)) {
        let mut s = CoAllocScheduler::new(4, small_cfg());
        let mut jobs = Vec::new();
        // Submit everything at t=0 (no clock advance, so nothing is pruned).
        for r in &reqs {
            let r0 = Request::advance(Time::ZERO, r.earliest_start.max(Time::ZERO), r.duration, r.servers);
            if let Ok(g) = s.submit(&r0) {
                jobs.push(g.job);
            }
        }
        for j in jobs {
            s.release(j).unwrap();
        }
        s.check_consistency();
        for srv in 0..4 {
            let idle = s.timeline().idle_periods(ServerId(srv));
            prop_assert_eq!(idle.len(), 1);
            prop_assert_eq!(idle[0].start, Time::ZERO);
            prop_assert!(idle[0].end.is_inf());
        }
    }

    /// Advancing the clock in arbitrary increments keeps the ring mirror
    /// consistent and never loses committed future reservations.
    #[test]
    fn clock_advance_preserves_commitments(
        advances in prop::collection::vec(1i64..60, 1..12),
    ) {
        let mut s = CoAllocScheduler::new(3, small_cfg());
        // Book a far-future reservation.
        let g = s
            .submit(&Request::advance(Time::ZERO, Time(350), Dur(40), 2))
            .unwrap();
        let mut now = 0i64;
        for a in advances {
            now += a;
            if now >= 350 {
                break;
            }
            s.advance_to(Time(now));
            s.check_consistency();
            // The reservation must still be on the books.
            prop_assert!(s.job(g.job).is_some());
            let mut found = 0;
            for srv in 0..3 {
                found += s
                    .timeline()
                    .reservations(ServerId(srv))
                    .iter()
                    .filter(|r| r.job == g.job)
                    .count();
            }
            prop_assert_eq!(found, 2);
        }
    }

    /// The segment-tree stabbing-path query returns exactly the feasible
    /// finite periods that a brute-force per-slot enumeration of the
    /// timeline finds, for every live slot and a spread of window shapes —
    /// the external correctness contract of the canonical decomposition
    /// (DESIGN.md §12).
    #[test]
    fn stabbing_path_matches_per_slot_enumeration(
        reqs in request_stream(5, 30),
        release_mask in prop::collection::vec(0u8..2, 30),
    ) {
        let mut s = CoAllocScheduler::new(5, small_cfg());
        let mut jobs = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            s.advance_to(r.submit);
            if let Ok(g) = s.submit(r) {
                jobs.push(g.job);
            }
            if release_mask[i] == 1 {
                if let Some(j) = jobs.pop() {
                    s.release(j).unwrap();
                }
            }
        }
        s.check_consistency();
        let cfg = s.ring().config();
        let mut stats = OpStats::new();
        let mut stab = coalloc_core::ring::StabMarks::default();
        let mut ids: Vec<PeriodId> = Vec::new();
        for qi in s.ring().first_slot().0..s.ring().end_slot().0 {
            let q = SlotIdx(qi);
            let slot_start = cfg.slot_start(q);
            // Windows starting inside slot q: intra-slot, slot-spanning,
            // and long enough to reach the horizon's tail.
            for (off, len) in [(0i64, 5i64), (3, 40), (7, 170)] {
                let start = slot_start + Dur(off);
                let end = start + Dur(len);
                ids.clear();
                s.ring()
                    .find_feasible_into(q, start, end, &mut stab, &mut ids, &mut stats);
                let mut got: Vec<u64> = ids.iter().map(|id| id.0).collect();
                got.sort_unstable();
                // Brute force: scan every server's finite idle periods.
                let mut want = Vec::new();
                for srv in 0..5 {
                    for p in s.timeline().idle_periods(ServerId(srv)) {
                        if !p.end.is_inf() && p.is_feasible(start, end) {
                            want.push(p.id.0);
                        }
                    }
                }
                want.sort_unstable();
                prop_assert_eq!(&got, &want, "slot {} window [{:?}, {:?})", qi, start, end);
                // The counting path agrees with the enumeration.
                let finite = s.ring().phase1_candidates_into(q, start, &mut stab, &mut stats);
                let count = if finite == 0 {
                    0
                } else {
                    s.ring().count_feasible(end, &stab, &mut stats)
                };
                prop_assert_eq!(count, want.len());
            }
        }
    }
}
