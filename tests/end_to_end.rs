//! Cross-crate integration tests: the full paper pipeline (workload twin →
//! online scheduler vs batch baseline → metrics) plus the application
//! substrates, exercised through the umbrella crate's public API only.

use coalloc::batch::{run_batch, BatchPolicy};
use coalloc::prelude::*;

fn paper_cfg() -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur::from_mins(15))
        .horizon(Dur::from_hours(72))
        .delta_t(Dur::from_mins(15))
        .build()
}

/// The paper's headline comparison, end to end: the KTH twin replayed
/// through the online co-allocator and the EASY batch baseline. The *shape*
/// assertions mirror Section 5.1's findings.
#[test]
fn kth_online_vs_batch_shape() {
    let spec = WorkloadSpec::kth().scaled(0.02);
    let reqs = spec.generate(7);
    let mut sched = CoAllocScheduler::new(spec.servers, paper_cfg());
    let online = replay(&mut sched, &reqs, "online");
    let batch = run_batch(spec.servers, BatchPolicy::EasyBackfill, &reqs, "batch");

    // Everyone gets scheduled eventually in both systems (or nearly so —
    // the online system may reject after R_max attempts).
    assert!(online.acceptance_rate() > 0.95);
    assert_eq!(batch.acceptance_rate(), 1.0);

    // Tail-length gap: the batch scheduler's worst waits far exceed the
    // online scheduler's, which is bounded by R_max * Delta_t = 36 h.
    assert!(
        online.max_waiting_hours() <= 36.01,
        "online tail {} must be bounded by R_max*Delta_t",
        online.max_waiting_hours()
    );

    // Utilization is meaningful on both.
    assert!(online.utilization > 0.2 && online.utilization <= 1.0);
    assert!(batch.utilization > 0.2 && batch.utilization <= 1.0);

    // The online scheduler reports per-request op counts (Figure 7b data).
    assert!(online.mean_ops_per_request() > 0.0);
}

/// Small jobs are penalized far more by the batch scheduler than by the
/// online algorithm (Figure 3's headline: "an order of magnitude or more").
#[test]
fn small_jobs_penalized_more_under_batch() {
    let spec = WorkloadSpec::kth().scaled(0.02);
    let reqs = spec.generate(3);
    let mut sched = CoAllocScheduler::new(spec.servers, paper_cfg());
    let online = replay(&mut sched, &reqs, "online");
    let batch = run_batch(spec.servers, BatchPolicy::EasyBackfill, &reqs, "batch");
    let po = online.penalty_by_duration_hours();
    let pb = batch.penalty_by_duration_hours();
    // Mean penalty of <=1h jobs.
    let o = po.group(1).map(|s| s.mean()).unwrap_or(0.0);
    let b = pb.group(1).map(|s| s.mean()).unwrap_or(0.0);
    assert!(
        b > o,
        "batch must penalize small jobs more: batch {b:.2} vs online {o:.2}"
    );
}

/// Advance reservations increase mean waiting monotonically-ish in rho
/// (Figure 7a: "the waiting time increases as rho increases").
#[test]
fn waiting_grows_with_reservation_fraction() {
    let spec = WorkloadSpec::kth().scaled(0.01);
    let base = spec.generate(11);
    let mut waits = Vec::new();
    for rho in [0.0, 0.5, 1.0] {
        let reqs = with_paper_reservations(&base, rho, 5);
        let mut sched = CoAllocScheduler::new(spec.servers, paper_cfg());
        let run = replay(&mut sched, &reqs, "online");
        // The paper's Figure 7(a) basis: waiting measured from submission,
        // which includes the requested advance offset.
        waits.push(run.waiting_from_submit_stats_hours().mean());
    }
    assert!(
        waits[2] > waits[0],
        "rho=1 wait {} should exceed rho=0 wait {}",
        waits[2],
        waits[0]
    );
}

/// The naive scan and the slotted trees agree on a full workload replay
/// (same grants, rejections, and start times) under the order-independent
/// policy — the strongest cross-implementation check.
#[test]
fn naive_and_tree_agree_on_workload() {
    let spec = WorkloadSpec::ctc().scaled(0.005);
    let reqs = spec.generate(13);
    let cfg = SchedulerConfig::builder()
        .tau(Dur::from_mins(15))
        .horizon(Dur::from_hours(72))
        .delta_t(Dur::from_mins(15))
        .policy(SelectionPolicy::ByServerId)
        .build();
    let mut tree = CoAllocScheduler::new(spec.servers, cfg);
    let mut naive = NaiveScheduler::new(spec.servers, cfg);
    let a = replay(&mut tree, &reqs, "tree");
    let b = replay(&mut naive, &reqs, "naive");
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.start, y.start, "divergence on {:?}", x.submit);
        assert_eq!(x.attempts, y.attempts);
    }
    tree.check_consistency();
}

/// The multi-site protocol composes with the workload generator: split one
/// twin across sites and co-allocate cross-site slices.
#[test]
fn multisite_runs_workload_slices() {
    use std::time::Duration;
    let cfg = paper_cfg();
    let sites: Vec<SiteHandle> = (0..3)
        .map(|i| SiteHandle::spawn(SiteId(i), 32, cfg))
        .collect();
    let mut coord = Coordinator::new(
        &sites,
        CoordinatorConfig {
            delta_t: Dur::from_mins(15),
            r_max: 48,
            rpc_timeout: Duration::from_secs(5),
            hold_ttl: Duration::from_secs(30),
            ..CoordinatorConfig::default()
        },
    );
    let mut granted = 0;
    for k in 0..20u32 {
        let req = MultiRequest {
            parts: [
                (SiteId(0), 4 + k % 8),
                (SiteId(1), 2 + k % 4),
                (SiteId(2), 1 + k % 16),
            ]
            .into_iter()
            .collect(),
            earliest_start: Time::from_hours((k % 6) as i64),
            duration: Dur::from_hours(2),
        };
        if coord.co_allocate(&req).is_ok() {
            granted += 1;
        }
    }
    assert!(granted >= 15, "most cross-site requests fit: {granted}");
    for s in sites {
        s.shutdown(); // runs each site's consistency check
    }
}

/// The PCE application composes with everything else: wavelengths on a ring
/// under contention behave like co-allocated servers.
#[test]
fn pce_blocking_probability_decreases_with_wavelengths() {
    let mut blocked = Vec::new();
    for w in [1u32, 2, 4] {
        let mut pce = Pce::new(
            Network::ring(8, w),
            paper_cfg(),
            PceConfig {
                k_paths: 2,
                wavelength_conversion: false,
                delta_t: Dur::from_mins(15),
                r_max: 4,
            },
        );
        let mut b = 0;
        for i in 0..24u32 {
            let req = ConnectionRequest {
                src: NodeId(i % 8),
                dst: NodeId((i + 3) % 8),
                earliest_start: Time::ZERO,
                duration: Dur::from_hours(4),
                wavelengths: (Wavelength(0), Wavelength(w - 1)),
            };
            if pce.connect(&req).is_err() {
                b += 1;
            }
        }
        blocked.push(b);
    }
    assert!(
        blocked[0] >= blocked[1] && blocked[1] >= blocked[2],
        "more wavelengths, less blocking: {blocked:?}"
    );
}

/// SWF parsing feeds the same pipeline as the twins.
#[test]
fn swf_roundtrip_through_scheduler() {
    let swf = "\
; synthetic mini trace
1 0    -1 3600 4 -1 -1 4 3600 -1 1 1 1 -1 1 -1 -1 -1
2 60   -1 1800 2 -1 -1 2 1800 -1 1 1 1 -1 1 -1 -1 -1
3 120  -1 7200 8 -1 -1 8 7200 -1 1 1 1 -1 1 -1 -1 -1
";
    let jobs = coalloc::workloads::parse_swf(swf).unwrap();
    let reqs = coalloc::workloads::swf_to_requests(&jobs);
    assert_eq!(reqs.len(), 3);
    let mut sched = CoAllocScheduler::new(8, paper_cfg());
    let run = replay(&mut sched, &reqs, "swf");
    assert_eq!(run.acceptance_rate(), 1.0);
}

/// Utilization accounting agrees between the scheduler's commitments and
/// the run-result metric.
#[test]
fn utilization_is_consistent() {
    let spec = WorkloadSpec::kth().scaled(0.005);
    let reqs = spec.generate(23);
    let mut sched = CoAllocScheduler::new(spec.servers, paper_cfg());
    let run = replay(&mut sched, &reqs, "online");
    let direct = sched.utilization(run.makespan);
    assert!((run.utilization - direct).abs() < 1e-9);
}
