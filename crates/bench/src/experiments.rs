//! One runner per table and figure of the paper's evaluation (Section 5),
//! plus the complexity experiments backing Section 4.3 and the ablations
//! called out in DESIGN.md. Every runner prints the paper-shaped rows/series
//! and writes a CSV under the configured output directory.

use crate::harness::{batch_run, online_run, r3, Csv, ExpConfig};
use coalloc_batch::BatchPolicy;
use coalloc_core::naive::NaiveScheduler;
use coalloc_core::prelude::*;
use coalloc_sim::runner::RunResult;
use coalloc_workloads::reservations::with_paper_reservations;
use coalloc_workloads::synthetic::{WorkloadSpec, WorkloadStats};
use std::io;

fn specs(cfg: &ExpConfig) -> Vec<WorkloadSpec> {
    WorkloadSpec::all()
        .into_iter()
        .map(|s| s.scaled(cfg.scale))
        .collect()
}

fn spec_by_name(cfg: &ExpConfig, name: &str) -> WorkloadSpec {
    specs(cfg)
        .into_iter()
        .find(|s| s.name == name)
        .expect("known workload name")
}

/// Table 1: features of the workloads used in the performance evaluation.
pub fn table1(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Table 1: workload features ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "table1",
        &[
            "workload",
            "processors",
            "jobs",
            "avg_lr_hours",
            "frac_under_2h",
        ],
    );
    for spec in specs(cfg) {
        let reqs = spec.generate(cfg.seed);
        let st = WorkloadStats::of(&reqs);
        csv.rowf(&[
            &spec.name,
            &spec.servers,
            &st.jobs,
            &r3(st.mean_duration_hours),
            &r3(st.frac_under_2h),
        ]);
    }
    csv.finish()?;
    Ok(())
}

/// Figure 3: temporal penalty `P^l_r` vs job duration for KTH, online vs
/// batch; (a) all jobs, (b) the 2–10 h mid-tail.
pub fn fig3(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Figure 3: temporal penalty vs temporal size (KTH) ==");
    let spec = spec_by_name(cfg, "KTH");
    let reqs = spec.generate(cfg.seed);
    let online = online_run(&spec, &reqs, "online", cfg.shards);
    let batch = batch_run(&spec, BatchPolicy::EasyBackfill, &reqs, "batch");
    let po = online.penalty_by_duration_hours();
    let pb = batch.penalty_by_duration_hours();
    let mut csv = Csv::new(
        &cfg.out_dir,
        "fig3",
        &["lr_hours", "penalty_online", "penalty_batch"],
    );
    let keys: std::collections::BTreeSet<i64> = po
        .iter()
        .map(|(k, _)| k)
        .chain(pb.iter().map(|(k, _)| k))
        .collect();
    for k in keys {
        let o = po.group(k).map(|s| s.mean()).unwrap_or(0.0);
        let b = pb.group(k).map(|s| s.mean()).unwrap_or(0.0);
        csv.rowf(&[&k, &r3(o), &r3(b)]);
    }
    csv.finish()?;
    // Paper headline: small jobs suffer an order of magnitude more under
    // batch; the online algorithm penalizes mid-size (2-10h) jobs more.
    let small_o: f64 = (1..=2).filter_map(|k| po.group(k).map(|s| s.mean())).sum();
    let small_b: f64 = (1..=2).filter_map(|k| pb.group(k).map(|s| s.mean())).sum();
    println!(
        "  small jobs (<=2h): online penalty {:.2}, batch penalty {:.2} ({}x)",
        small_o,
        small_b,
        if small_o > 0.0 {
            (small_b / small_o).round()
        } else {
            f64::INFINITY
        }
    );
    Ok(())
}

/// Figure 4(a): waiting-time distribution for CTC and KTH, online vs batch.
pub fn fig4a(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Figure 4(a): waiting-time distribution (CTC, KTH) ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "fig4a",
        &[
            "wait_hours_bin",
            "ctc_online",
            "ctc_batch",
            "kth_online",
            "kth_batch",
        ],
    );
    let mut series: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut maxima = Vec::new();
    for name in ["CTC", "KTH"] {
        let spec = spec_by_name(cfg, name);
        let reqs = spec.generate(cfg.seed);
        let online = online_run(&spec, &reqs, "online", cfg.shards);
        let batch = batch_run(&spec, BatchPolicy::EasyBackfill, &reqs, "batch");
        maxima.push((name, online.max_waiting_hours(), batch.max_waiting_hours()));
        series.push(online.waiting_histogram_hours(1.0, 10).frequencies());
        series.push(batch.waiting_histogram_hours(1.0, 10).frequencies());
    }
    for (((a, b), c), d) in series[0]
        .iter()
        .zip(&series[1])
        .zip(&series[2])
        .zip(&series[3])
    {
        csv.rowf(&[&a.0, &r3(a.1), &r3(b.1), &r3(c.1), &r3(d.1)]);
    }
    csv.finish()?;
    for (name, o, b) in maxima {
        println!("  {name}: max wait online {o:.1} h vs batch {b:.1} h (tail-length gap)");
    }
    Ok(())
}

/// Figure 4(b): temporal-size distribution for CTC and KTH.
pub fn fig4b(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Figure 4(b): temporal-size distribution (CTC, KTH) ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "fig4b",
        &["lr_hours_bin", "ctc_freq", "kth_freq"],
    );
    let ctc = spec_by_name(cfg, "CTC").generate(cfg.seed);
    let kth = spec_by_name(cfg, "KTH").generate(cfg.seed);
    let hc = crate::dist_hours(&ctc);
    let hk = crate::dist_hours(&kth);
    for bin in 0..22 {
        csv.rowf(&[
            &(bin * 2),
            &r3(hc.get(bin).copied().unwrap_or(0.0)),
            &r3(hk.get(bin).copied().unwrap_or(0.0)),
        ]);
    }
    csv.finish()?;
    Ok(())
}

/// Figure 5: average waiting time vs spatial size, online vs batch, for
/// (a) CTC and (b) KTH.
pub fn fig5(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Figure 5: average waiting time vs spatial size ==");
    for name in ["CTC", "KTH"] {
        let spec = spec_by_name(cfg, name);
        let reqs = spec.generate(cfg.seed);
        let online = online_run(&spec, &reqs, "online", cfg.shards);
        let batch = batch_run(&spec, BatchPolicy::EasyBackfill, &reqs, "batch");
        let go = online.waiting_by_spatial();
        let gb = batch.waiting_by_spatial();
        let mut csv = Csv::new(
            &cfg.out_dir,
            &format!("fig5_{}", name.to_lowercase()),
            &["nr_bin", "wait_secs_online", "wait_secs_batch"],
        );
        let keys: std::collections::BTreeSet<i64> = go
            .iter()
            .map(|(k, _)| k)
            .chain(gb.iter().map(|(k, _)| k))
            .collect();
        for k in keys {
            let o = go.group(k).map(|s| s.mean() * 3600.0).unwrap_or(0.0);
            let b = gb.group(k).map(|s| s.mean() * 3600.0).unwrap_or(0.0);
            csv.rowf(&[&k, &r3(o), &r3(b)]);
        }
        csv.finish()?;
    }
    Ok(())
}

/// Table 2: number of scheduling attempts as a function of spatial size
/// (bins of 50 servers), CTC and KTH.
pub fn table2(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Table 2: scheduling attempts vs spatial size ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "table2",
        &["workload", "nr_bin_upper", "avg_attempts", "jobs_in_bin"],
    );
    for name in ["CTC", "KTH"] {
        let spec = spec_by_name(cfg, name);
        let reqs = spec.generate(cfg.seed);
        let online = online_run(&spec, &reqs, "online", cfg.shards);
        for (k, st) in online.attempts_by_spatial().iter() {
            csv.rowf(&[&name, &k, &r3(st.mean()), &st.count()]);
        }
    }
    csv.finish()?;
    Ok(())
}

/// Figure 6: waiting-time distribution for advance-reservation mixes
/// rho in {0, 0.2, 0.4, 0.6, 0.8} plus the batch baseline, CTC and KTH.
pub fn fig6(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Figure 6: waiting-time distribution under reservation mixes ==");
    let rhos = [0.0, 0.2, 0.4, 0.6, 0.8];
    for name in ["CTC", "KTH"] {
        let spec = spec_by_name(cfg, name);
        let base = spec.generate(cfg.seed);
        let mut header: Vec<String> = vec!["wait_hours_bin".into()];
        for r in rhos {
            header.push(format!("rho_{r}"));
        }
        header.push("batch".into());
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut csv = Csv::new(
            &cfg.out_dir,
            &format!("fig6_{}", name.to_lowercase()),
            &header_refs,
        );
        let mut cols: Vec<Vec<(f64, f64)>> = Vec::new();
        for rho in rhos {
            let reqs = with_paper_reservations(&base, rho, cfg.seed);
            let run = online_run(&spec, &reqs, &format!("rho={rho}"), cfg.shards);
            cols.push(
                run.waiting_from_submit_histogram_hours(1.0, 14)
                    .frequencies(),
            );
        }
        let batch = batch_run(&spec, BatchPolicy::EasyBackfill, &base, "batch");
        cols.push(batch.waiting_histogram_hours(1.0, 14).frequencies());
        for bin in 0..14 {
            let mut row: Vec<String> = vec![format!("{}", bin)];
            for c in &cols {
                row.push(format!("{}", r3(c[bin].1)));
            }
            csv.row(&row);
        }
        csv.finish()?;
    }
    Ok(())
}

/// Figure 7(a): average waiting time as a function of rho for all three
/// workloads.
pub fn fig7a(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Figure 7(a): average waiting time vs rho ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "fig7a",
        &["rho", "ctc_wait_secs", "kth_wait_secs", "hpc2n_wait_secs"],
    );
    let rhos = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    // The three workloads are independent: run them on separate threads.
    let table: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ["CTC", "KTH", "HPC2N"]
            .map(|name| {
                let spec = spec_by_name(cfg, name);
                scope.spawn(move || {
                    let base = spec.generate(cfg.seed);
                    rhos.map(|rho| {
                        let reqs = with_paper_reservations(&base, rho, cfg.seed);
                        let run = online_run(&spec, &reqs, "online", cfg.shards);
                        run.waiting_from_submit_stats_hours().mean() * 3600.0
                    })
                    .to_vec()
                })
            })
            .into_iter()
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload thread"))
            .collect()
    });
    for (i, rho) in rhos.iter().enumerate() {
        csv.rowf(&[&rho, &r3(table[0][i]), &r3(table[1][i]), &r3(table[2][i])]);
    }
    csv.finish()?;
    Ok(())
}

/// Figure 7(b): data-structure operations per request as a function of rho.
pub fn fig7b(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Figure 7(b): operations per request vs rho ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "fig7b",
        &["rho", "ctc_ops", "kth_ops", "hpc2n_ops"],
    );
    let rhos = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let table: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ["CTC", "KTH", "HPC2N"]
            .map(|name| {
                let spec = spec_by_name(cfg, name);
                scope.spawn(move || {
                    let base = spec.generate(cfg.seed);
                    rhos.map(|rho| {
                        let reqs = with_paper_reservations(&base, rho, cfg.seed);
                        let run = online_run(&spec, &reqs, "online", cfg.shards);
                        run.mean_ops_per_request()
                    })
                    .to_vec()
                })
            })
            .into_iter()
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload thread"))
            .collect()
    });
    for (i, rho) in rhos.iter().enumerate() {
        csv.rowf(&[&rho, &r3(table[0][i]), &r3(table[1][i]), &r3(table[2][i])]);
    }
    csv.finish()?;
    Ok(())
}

/// Section 4.3 complexity check: search/update cost of the slotted trees
/// versus the naive linear scan, as N grows.
pub fn complexity(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Complexity: search ops vs N (tree vs naive) ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "complexity",
        &[
            "n_servers",
            "tree_search_ops",
            "naive_search_ops",
            "tree_update_ops",
        ],
    );
    for exp in [6u32, 8, 10, 12, 14, 16] {
        let n = 1u32 << exp;
        let sched_cfg = SchedulerConfig::builder()
            .tau(Dur(600))
            .horizon(Dur(600 * 32))
            .delta_t(Dur(600))
            .seed(cfg.seed)
            .build();
        let mut tree = CoAllocScheduler::new(n, sched_cfg);
        let mut naive = NaiveScheduler::new(n, sched_cfg);
        // Fragment the schedule with some committed jobs, then measure the
        // marginal cost of search-only range queries.
        for i in 0..64i64 {
            let req = Request::advance(Time::ZERO, Time((i % 16) * 600), Dur(600), (n / 64).max(1));
            let _ = tree.submit(&req);
            let _ = naive.submit(&req);
        }
        let update_ops = tree.stats().update_visits;
        let before_t = tree.stats().search_ops();
        let before_n = naive.stats().search_ops();
        let probes = 256i64;
        for i in 0..probes {
            let s = Time((i % 24) * 400);
            let _ = tree.range_count(s, s + Dur(500));
            let _ = naive.find_all_feasible(s, s + Dur(500));
        }
        let tree_ops = (tree.stats().search_ops() - before_t) as f64 / probes as f64;
        let naive_ops = (naive.stats().search_ops() - before_n) as f64 / probes as f64;
        csv.rowf(&[&n, &r3(tree_ops), &r3(naive_ops), &(update_ops / 64)]);
    }
    csv.finish()?;
    println!("  expectation: tree ops grow ~ (log N)^2, naive ops grow ~ N");
    Ok(())
}

/// Ablation: the effect of `Delta_t` on waiting time and attempts (the paper
/// tuned it empirically to 15 min).
pub fn ablate_dt(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Ablation: Delta_t sweep (KTH) ==");
    let spec = spec_by_name(cfg, "KTH");
    let reqs = spec.generate(cfg.seed);
    let mut csv = Csv::new(
        &cfg.out_dir,
        "ablate_dt",
        &[
            "delta_t_mins",
            "mean_wait_hours",
            "mean_attempts",
            "acceptance",
            "ops_per_req",
        ],
    );
    for mins in [5i64, 15, 30, 60, 120] {
        let sched_cfg = SchedulerConfig::builder()
            .tau(Dur::from_mins(15))
            .horizon(Dur::from_hours(72))
            .delta_t(Dur::from_mins(mins))
            .build();
        let mut sched = CoAllocScheduler::new(spec.servers, sched_cfg);
        let run = coalloc_sim::replay(&mut sched, &reqs, "online");
        let attempts: f64 =
            run.outcomes.iter().map(|o| o.attempts as f64).sum::<f64>() / run.outcomes.len() as f64;
        csv.rowf(&[
            &mins,
            &r3(run.waiting_stats_hours().mean()),
            &r3(attempts),
            &r3(run.acceptance_rate()),
            &r3(run.mean_ops_per_request()),
        ]);
    }
    csv.finish()?;
    Ok(())
}

/// Ablation: selection-policy comparison (the paper's reverse-marking order
/// vs best/worst fit vs lowest-server-id).
pub fn ablate_policy(cfg: &ExpConfig) -> io::Result<()> {
    println!("\n== Ablation: selection policy (CTC, KTH) ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "ablate_policy",
        &[
            "workload",
            "policy",
            "mean_wait_hours",
            "utilization",
            "ops_per_req",
        ],
    );
    let policies = [
        ("paper-order", SelectionPolicy::PaperOrder),
        ("best-fit", SelectionPolicy::BestFit),
        ("worst-fit", SelectionPolicy::WorstFit),
        ("by-server", SelectionPolicy::ByServerId),
    ];
    for name in ["CTC", "KTH"] {
        let spec = spec_by_name(cfg, name);
        let reqs = spec.generate(cfg.seed);
        for (pname, policy) in policies {
            let sched_cfg = SchedulerConfig::builder()
                .tau(Dur::from_mins(15))
                .horizon(Dur::from_hours(72))
                .delta_t(Dur::from_mins(15))
                .policy(policy)
                .build();
            let mut sched = CoAllocScheduler::new(spec.servers, sched_cfg);
            let run = coalloc_sim::replay(&mut sched, &reqs, pname);
            csv.rowf(&[
                &name,
                &pname,
                &r3(run.waiting_stats_hours().mean()),
                &r3(run.utilization),
                &r3(run.mean_ops_per_request()),
            ]);
        }
    }
    csv.finish()?;
    Ok(())
}

/// Extension experiment: multi-site atomic co-allocation throughput and
/// abort behaviour vs contention (concurrent coordinators).
pub fn multisite(cfg: &ExpConfig) -> io::Result<()> {
    use coalloc_multisite::*;
    println!("\n== Multi-site: grants/aborts vs concurrent coordinators ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "multisite",
        &[
            "coordinators",
            "granted",
            "failed",
            "aborts",
            "mean_attempts",
        ],
    );
    for coordinators in [1usize, 2, 4, 8] {
        let sites: Vec<SiteHandle> = (0..4)
            .map(|i| {
                SiteHandle::spawn(
                    SiteId(i),
                    8,
                    SchedulerConfig::builder()
                        .tau(Dur(900))
                        .horizon(Dur(900 * 96))
                        .delta_t(Dur(900))
                        .build(),
                )
            })
            .collect();
        let ccfg = CoordinatorConfig {
            delta_t: Dur(900),
            r_max: 48,
            ..CoordinatorConfig::default()
        };
        let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64); // granted, failed, aborts, attempts, grants_for_attempts
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for c in 0..coordinators {
                let sites = &sites;
                handles.push(scope.spawn(move || {
                    let mut coord = Coordinator::new(sites, ccfg);
                    let mut attempts = 0u64;
                    for k in 0..12 {
                        let req = MultiRequest {
                            parts: [
                                (SiteId(0), 4),
                                (SiteId(1), 4),
                                (SiteId(2), 4),
                                (SiteId(3), 4),
                            ]
                            .into_iter()
                            .collect(),
                            earliest_start: Time(((k + c) % 12) as i64 * 1800),
                            duration: Dur(1800),
                        };
                        if let Ok(g) = coord.co_allocate(&req) {
                            attempts += g.attempts as u64;
                        }
                    }
                    let s = *coord.stats();
                    (s.granted, s.failed, s.aborts, attempts)
                }));
            }
            for h in handles {
                let (g, f, a, at) = h.join().expect("coordinator thread");
                totals.0 += g;
                totals.1 += f;
                totals.2 += a;
                totals.3 += at;
                totals.4 += g;
            }
        });
        let mean_attempts = if totals.4 > 0 {
            totals.3 as f64 / totals.4 as f64
        } else {
            0.0
        };
        csv.rowf(&[
            &coordinators,
            &totals.0,
            &totals.1,
            &totals.2,
            &r3(mean_attempts),
        ]);
        for s in sites {
            s.shutdown();
        }
    }
    csv.finish()?;
    Ok(())
}

/// Extension experiment: PCE blocking probability on NSFNET as wavelengths
/// per link and wavelength conversion vary (the Section 3.2 application).
pub fn pce(cfg: &ExpConfig) -> io::Result<()> {
    use coalloc_lambda::{ConnectionRequest, Network, NodeId, Pce, PceConfig, Wavelength};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    println!("\n== PCE: blocking probability vs wavelengths (NSFNET) ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "pce",
        &[
            "wavelengths",
            "blocked_frac_continuity",
            "blocked_frac_conversion",
        ],
    );
    let sched_cfg = SchedulerConfig::builder()
        .tau(Dur::from_mins(30))
        .horizon(Dur::from_hours(24))
        .delta_t(Dur::from_mins(30))
        .build();
    let demands: Vec<(u32, u32, i64, i64)> = {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        (0..300)
            .map(|_| {
                let s = rng.random_range(0..14u32);
                let mut d = rng.random_range(0..14u32);
                if d == s {
                    d = (d + 1) % 14;
                }
                (s, d, rng.random_range(0..12i64), rng.random_range(1..6i64))
            })
            .collect()
    };
    for w in [2u32, 4, 8, 16] {
        let mut blocked = [0usize; 2];
        for (which, conversion) in [(0, false), (1, true)] {
            let mut pce = Pce::new(
                Network::nsfnet(w),
                sched_cfg,
                PceConfig {
                    k_paths: 3,
                    wavelength_conversion: conversion,
                    delta_t: Dur::from_mins(30),
                    r_max: 4,
                },
            );
            for &(s, d, h, dur) in &demands {
                let req = ConnectionRequest {
                    src: NodeId(s),
                    dst: NodeId(d),
                    earliest_start: Time::from_hours(h),
                    duration: Dur::from_hours(dur),
                    wavelengths: (Wavelength(0), Wavelength(w - 1)),
                };
                if pce.connect(&req).is_err() {
                    blocked[which] += 1;
                }
            }
        }
        csv.rowf(&[
            &w,
            &r3(blocked[0] as f64 / demands.len() as f64),
            &r3(blocked[1] as f64 / demands.len() as f64),
        ]);
    }
    csv.finish()?;
    println!("  expectation: blocking falls with W; conversion never blocks more");
    Ok(())
}

/// Extension experiment: workflow pipelines planned with advance
/// reservations vs executed reactively, under increasing background load.
pub fn workflow(cfg: &ExpConfig) -> io::Result<()> {
    use coalloc_workflow::{schedule_reactive, schedule_reserved, Dag, Stage};
    println!("\n== Workflow: reserved vs reactive pipelines under load ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "workflow",
        &[
            "bg_jobs",
            "reserved_makespan_h",
            "reactive_makespan_h",
            "reserved_guaranteed",
        ],
    );
    let make_dag = || {
        let mut dag = Dag::new();
        let prep = dag.add_stage(Stage::new("prep", Dur::from_mins(30), 8));
        let merge = dag.add_stage(Stage::new("merge", Dur::from_mins(30), 8));
        for _ in 0..4 {
            let s = dag.add_stage(Stage::new("work", Dur::from_hours(2), 12));
            dag.add_dep(prep, s).unwrap();
            dag.add_dep(s, merge).unwrap();
        }
        dag
    };
    let sched_cfg = SchedulerConfig::builder()
        .tau(Dur::from_mins(15))
        .horizon(Dur::from_hours(72))
        .delta_t(Dur::from_mins(15))
        .build();
    for bg_jobs in [0usize, 8, 16, 32] {
        // Reserved: plan first, then the background burst arrives.
        let mut s = CoAllocScheduler::new(64, sched_cfg);
        let plan =
            schedule_reserved(&mut s, &make_dag(), Time::ZERO, None).expect("empty system plans");
        for k in 0..bg_jobs {
            let _ = s.submit(&Request::on_demand(
                Time((k as i64 % 4) * 600),
                Dur::from_hours(3),
                16,
            ));
        }
        let guaranteed = plan.grants.iter().all(|g| s.job(g.job).is_some());
        // Reactive: stages submitted at readiness; the same burst interleaves
        // (arrives before stage submissions at equal times — worst case).
        let mut s2 = CoAllocScheduler::new(64, sched_cfg);
        for k in 0..bg_jobs {
            let _ = s2.submit(&Request::on_demand(
                Time((k as i64 % 4) * 600),
                Dur::from_hours(3),
                16,
            ));
        }
        let reactive = schedule_reactive(&mut s2, &make_dag(), Time::ZERO);
        let reactive_h = reactive
            .map(|p| p.makespan_end.secs() as f64 / 3600.0)
            .unwrap_or(f64::NAN);
        csv.rowf(&[
            &bg_jobs,
            &r3(plan.makespan_end.secs() as f64 / 3600.0),
            &r3(reactive_h),
            &guaranteed,
        ]);
    }
    csv.finish()?;
    Ok(())
}

/// Extension experiment: fairness across users (the Section 2 challenge —
/// "allocate resources fairly among users") measured as Jain's index over
/// per-user mean temporal penalty, online vs batch.
pub fn fairness(cfg: &ExpConfig) -> io::Result<()> {
    use coalloc_sim::metrics::jain_index;
    use coalloc_workloads::users::assign_users;
    use std::collections::BTreeMap;
    println!("\n== Fairness: Jain index of per-user mean penalty ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "fairness",
        &[
            "workload",
            "scheduler",
            "users_active",
            "jain_index",
            "worst_user_penalty",
        ],
    );
    for name in ["CTC", "KTH"] {
        let spec = spec_by_name(cfg, name);
        let reqs = spec.generate(cfg.seed);
        let tagged = assign_users(&reqs, 64, 0.5, cfg.seed);
        let runs = [
            online_run(&spec, &reqs, "online", cfg.shards),
            batch_run(&spec, BatchPolicy::EasyBackfill, &reqs, "batch"),
        ];
        for run in runs {
            let mut per_user: BTreeMap<u32, coalloc_sim::StreamingStats> = BTreeMap::new();
            for (t, o) in tagged.iter().zip(&run.outcomes) {
                if let Some(p) = o.temporal_penalty() {
                    per_user.entry(t.user.0).or_default().push(p);
                }
            }
            let means: Vec<f64> = per_user.values().map(|s| s.mean()).collect();
            let worst = means.iter().cloned().fold(0.0f64, f64::max);
            csv.rowf(&[
                &name,
                &run.label,
                &means.len(),
                &r3(jain_index(&means)),
                &r3(worst),
            ]);
        }
    }
    csv.finish()?;
    Ok(())
}

/// Extension experiment: scalability in `N` — the abstract's claim that the
/// algorithm "scales to systems with large numbers of users and resources".
/// Sweeps the server count with proportional offered load and reports
/// scheduling throughput and per-request op counts: the total, its split
/// into primary (Phase 1), secondary (Phase 2) and update visits, and the
/// subtree rebuilds. Every count includes building the scheduler. The last
/// two columns size the index: the slot-tree store's node slots and the
/// most entries its trees held at once (slots stay within twice that).
pub fn scalability(cfg: &ExpConfig) -> io::Result<()> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;
    println!("\n== Scalability: throughput vs system size N ==");
    let mut csv = Csv::new(
        &cfg.out_dir,
        "scalability",
        &[
            "n_servers",
            "requests",
            "requests_per_sec",
            "ops_per_request",
            "primary_per_request",
            "secondary_per_request",
            "update_per_request",
            "rebuilds_per_request",
            "acceptance",
            "store_node_slots",
            "peak_tree_entries",
        ],
    );
    for exp in [10u32, 12, 14, 16] {
        let n = 1u32 << exp;
        let sched_cfg = SchedulerConfig::builder()
            .tau(Dur(900))
            .horizon(Dur(900 * 96))
            .delta_t(Dur(900))
            .seed(cfg.seed)
            .build();
        let mut sched = CoAllocScheduler::new(n, sched_cfg);
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ n as u64);
        let requests = 20_000usize;
        // Scale-invariant offered load (~60%): the per-request demand
        // distribution is fixed (1..=64 servers) and the *arrival rate*
        // scales with N, so every system size sees the same utilization
        // and throughput differences isolate pure index scaling.
        // gap = requests*E[work] / (0.6*N*requests) ~ 1.78e10 / (N*20000).
        let gap = (1_780_000_000_000i64 / (n as i64 * requests as i64)).max(1);
        let mut accepted = 0usize;
        let t0 = Instant::now();
        let mut now = 0i64;
        for _ in 0..requests {
            now += gap;
            sched.advance_to(Time(now));
            let servers = rng.random_range(1..=64u32).min(n);
            let dur = Dur(rng.random_range(900..8 * 3600));
            let adv = rng.random_range(0..4 * 3600);
            let req = Request::advance(Time(now), Time(now + adv), dur, servers);
            if sched.submit(&req).is_ok() {
                accepted += 1;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        let ops = sched.stats();
        let store = sched.ring().store();
        let per_request = |count: u64| r3(count as f64 / requests as f64);
        csv.rowf(&[
            &n,
            &requests,
            &r3(requests as f64 / secs),
            &per_request(ops.total_ops()),
            &per_request(ops.primary_visits),
            &per_request(ops.secondary_visits),
            &per_request(ops.update_visits),
            &per_request(ops.rebuilds),
            &r3(accepted as f64 / requests as f64),
            &store.node_slots(),
            &store.peak_entries(),
        ]);
    }
    csv.finish()?;
    println!("  expectation: throughput degrades only polylogarithmically in N");
    Ok(())
}

/// Run one experiment by id; `all` runs the full suite.
pub fn run(id: &str, cfg: &ExpConfig) -> io::Result<()> {
    match id {
        "table1" => table1(cfg),
        "fig3" => fig3(cfg),
        "fig4a" => fig4a(cfg),
        "fig4b" => fig4b(cfg),
        "fig5" => fig5(cfg),
        "table2" => table2(cfg),
        "fig6" => fig6(cfg),
        "fig7a" => fig7a(cfg),
        "fig7b" => fig7b(cfg),
        "complexity" => complexity(cfg),
        "ablate-dt" => ablate_dt(cfg),
        "ablate-policy" => ablate_policy(cfg),
        "multisite" => multisite(cfg),
        "pce" => pce(cfg),
        "workflow" => workflow(cfg),
        "fairness" => fairness(cfg),
        "scalability" => scalability(cfg),
        "all" => {
            for id in ALL_EXPERIMENTS {
                run(id, cfg)?;
            }
            Ok(())
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown experiment '{other}'; try one of {ALL_EXPERIMENTS:?}"),
        )),
    }
}

/// Every experiment id, in suite order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "fig3",
    "fig4a",
    "fig4b",
    "fig5",
    "table2",
    "fig6",
    "fig7a",
    "fig7b",
    "complexity",
    "ablate-dt",
    "ablate-policy",
    "multisite",
    "pce",
    "workflow",
    "fairness",
    "scalability",
];

/// Paper-vs-measured helper used by EXPERIMENTS.md generation: summary lines
/// of one online/batch pair.
pub fn summarize_pair(online: &RunResult, batch: &RunResult) -> String {
    format!(
        "online: mean wait {:.2} h, max {:.1} h, util {:.2}; batch: mean wait {:.2} h, max {:.1} h, util {:.2}",
        online.waiting_stats_hours().mean(),
        online.max_waiting_hours(),
        online.utilization,
        batch.waiting_stats_hours().mean(),
        batch.max_waiting_hours(),
        batch.utilization,
    )
}
