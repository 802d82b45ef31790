//! The Virtual Computing Laboratory scenario (Section 3.1): a mixed
//! workload of **advance reservations** (virtual desktops for scheduled
//! classes) and **on-demand best-effort jobs** (HPC experiments), sharing
//! one resource pool.
//!
//! ```text
//! cargo run --example vcl_classroom
//! ```

use coalloc::prelude::*;

const POOL: u32 = 64; // blade servers in the VCL pool

fn main() {
    let cfg = SchedulerConfig::builder()
        .tau(Dur::from_mins(15))
        .horizon(Dur::from_hours(24 * 7)) // a week of class schedules
        .delta_t(Dur::from_mins(15))
        .build();
    let mut vcl = CoAllocScheduler::new(POOL, cfg);

    // --- 1. The registrar books classes for the week (advance) ----------
    // Each class needs one desktop per seat, at fixed hours.
    let classes = [
        ("CSC116 Mon 09:00", 24 + 9, 2, 30u32),
        ("CSC216 Mon 14:00", 24 + 14, 2, 25),
        ("CSC316 Tue 09:00", 48 + 9, 3, 40),
        ("ECE209 Tue 13:00", 48 + 13, 2, 35),
        ("CSC116 Wed 09:00", 72 + 9, 2, 30),
    ];
    println!("== class reservations ==");
    let mut class_jobs = Vec::new();
    for (name, start_h, dur_h, seats) in classes {
        let req = Request::advance(
            Time::ZERO,
            Time::from_hours(start_h),
            Dur::from_hours(dur_h),
            seats,
        );
        match vcl.submit(&req) {
            Ok(g) => {
                println!("  {name}: {seats} desktops reserved at t+{start_h}h");
                class_jobs.push((name, g));
            }
            Err(e) => println!("  {name}: REJECTED ({e})"),
        }
    }

    // --- 2. Researchers submit on-demand HPC jobs ------------------------
    // They run whenever capacity allows, flowing around the class blocks.
    println!("== HPC jobs (on-demand, best effort) ==");
    let hpc = [
        ("bio-seq alignment", 0, 30, 32u32),
        ("CFD sweep", 1, 26, 48),
        ("ML hyperparameter grid", 2, 40, 20),
    ];
    for (name, submit_h, dur_h, nodes) in hpc {
        vcl.advance_to(Time::from_hours(submit_h));
        let req = Request::on_demand(Time::from_hours(submit_h), Dur::from_hours(dur_h), nodes);
        match vcl.submit(&req) {
            Ok(g) => println!(
                "  {name}: {nodes} nodes at t+{}h (waited {:.1}h, {} attempts)",
                g.start.secs() / 3600,
                g.waiting.hours(),
                g.attempts
            ),
            Err(e) => println!("  {name}: could not be placed ({e})"),
        }
    }

    // --- 3. A student asks: "when can I get 16 desktops for 2h today?" ---
    println!("== interactive availability query ==");
    let mut t = Time::from_hours(8);
    loop {
        let free = vcl.range_count(t, t + Dur::from_hours(2));
        if free >= 16 {
            println!(
                "  first 2h window with >=16 desktops: t+{}h ({} free)",
                t.secs() / 3600,
                free
            );
            break;
        }
        t += Dur::from_hours(1);
        if t > Time::from_hours(48) {
            println!("  nothing available in the next two days");
            break;
        }
    }

    // --- 4. A class is cancelled; its desktops return to the pool --------
    let (name, grant) = class_jobs.pop().expect("classes were booked");
    vcl.release(grant.job).expect("reservation exists");
    println!("== cancellation ==\n  {name} cancelled; capacity restored");

    // --- 5. Weekly report -------------------------------------------------
    let util = vcl.utilization(Time::from_hours(24 * 7));
    println!("== report ==");
    println!(
        "  committed utilization over the week: {:.1}%",
        util * 100.0
    );
    println!("  scheduler ops: {}", vcl.stats().total_ops());
}
