//! Deadline-driven workflow co-allocation — the paper's severe-weather
//! motivation (LEAD [31]): "an emerging class of deadline-driven scientific
//! applications such as severe weather modeling require simultaneous access
//! to multiple resources and predictable completion times."
//!
//! A storm-forecast DAG (ingest → assimilate → ensemble members → merge →
//! visualize) must complete before the storm window; the whole pipeline is
//! planned atomically as chained advance reservations with an end-to-end
//! deadline, then defended against competing load.
//!
//! ```text
//! cargo run --example weather_workflow
//! ```

use coalloc::core::attrs::AttrSet;
use coalloc::prelude::*;
use coalloc::workflow::{schedule_reserved, WorkflowError};

const GPU: AttrSet = AttrSet(1);

fn forecast_dag(members: usize) -> Dag {
    let mut dag = Dag::new();
    let ingest = dag.add_stage(Stage::new("radar-ingest", Dur::from_mins(20), 4));
    let assim = dag.add_stage(Stage::new("data-assimilation", Dur::from_mins(40), 16));
    dag.add_dep(ingest, assim).unwrap();
    let merge = dag.add_stage(Stage::new("ensemble-merge", Dur::from_mins(15), 8));
    for m in 0..members {
        let member = dag.add_stage(
            Stage::new(format!("wrf-member-{m}"), Dur::from_mins(90), 12).requiring(GPU),
        );
        dag.add_dep(assim, member).unwrap();
        dag.add_dep(member, merge).unwrap();
    }
    let viz = dag.add_stage(Stage::new("visualization", Dur::from_mins(10), 2));
    dag.add_dep(merge, viz).unwrap();
    dag
}

fn main() {
    // A 96-node cluster; half the nodes carry GPUs.
    let cfg = SchedulerConfig::builder()
        .tau(Dur::from_mins(5))
        .horizon(Dur::from_hours(24))
        .delta_t(Dur::from_mins(5))
        .build();
    let mut sched = CoAllocScheduler::new(96, cfg);
    for n in 0..48 {
        sched.set_server_attrs(ServerId(n), GPU);
    }

    let dag = forecast_dag(4);
    println!(
        "forecast DAG: {} stages, critical path {:.1} h",
        dag.len(),
        dag.critical_path().unwrap().hours()
    );

    // The storm window: results are useless after t+4h.
    let deadline = Time::from_hours(4);
    match schedule_reserved(&mut sched, &dag, Time::ZERO, Some(deadline)) {
        Ok(plan) => {
            println!(
                "pipeline reserved; completes at t+{:.2} h (deadline {:.1} h):",
                plan.makespan_end.secs() as f64 / 3600.0,
                deadline.secs() as f64 / 3600.0
            );
            for (i, g) in plan.grants.iter().enumerate() {
                println!(
                    "  {:<18} {:>3} nodes  [{:>5.2}h, {:>5.2}h)",
                    dag.stage(StageId(i)).name,
                    g.servers.len(),
                    g.start.secs() as f64 / 3600.0,
                    g.end.secs() as f64 / 3600.0,
                );
            }
            // Competing load arriving minutes later cannot displace the
            // forecast — that is the point of advance reservations.
            let mut displaced = false;
            for k in 0..20 {
                let r = Request::on_demand(Time(60 * k), Dur::from_hours(2), 24);
                let _ = sched.submit(&r);
            }
            for g in &plan.grants {
                if sched.job(g.job).is_none() {
                    displaced = true;
                }
            }
            println!(
                "after a 20-job competing burst: pipeline {}",
                if displaced {
                    "DISPLACED (bug!)"
                } else {
                    "intact"
                }
            );
        }
        Err(WorkflowError::DeadlineMiss { stage }) => {
            println!(
                "cannot meet the storm deadline (stage #{}) — nothing was reserved",
                stage.0
            );
        }
        Err(e) => println!("planning failed: {e}"),
    }

    // Now an impossible deadline: the pipeline refuses atomically.
    let mut sched2 = CoAllocScheduler::new(96, cfg);
    for n in 0..48 {
        sched2.set_server_attrs(ServerId(n), GPU);
    }
    let err = schedule_reserved(
        &mut sched2,
        &forecast_dag(4),
        Time::ZERO,
        Some(Time::from_hours(1)),
    )
    .unwrap_err();
    println!("\n1-hour deadline: {err}");
    println!(
        "nothing left behind: {} of 96 nodes free for the next 24h",
        sched2.range_search(Time::ZERO, Time::from_hours(24)).len()
    );
}
