//! Lambda scheduling for grid applications (Section 3.2): a PCE co-allocates
//! link wavelengths along end-to-end paths of the NSFNET topology, with and
//! without wavelength conversion.
//!
//! ```text
//! cargo run --example lambda_grid
//! ```

use coalloc::lambda::{ConnectionRequest, Network, NodeId, Pce, PceConfig, Wavelength};
use coalloc::prelude::{Dur, SchedulerConfig, Time};

fn main() {
    let net = Network::nsfnet(4); // 14 nodes, 21 links, 4 wavelengths each
    println!(
        "NSFNET: {} nodes, {} links, {} wavelengths -> {} schedulable resources",
        net.num_nodes(),
        net.num_links(),
        net.wavelengths(),
        net.num_resources()
    );
    let sched_cfg = SchedulerConfig::builder()
        .tau(Dur::from_mins(30))
        .horizon(Dur::from_hours(24))
        .delta_t(Dur::from_mins(30))
        .build();
    let mut pce = Pce::new(
        net,
        sched_cfg,
        PceConfig {
            k_paths: 3,
            wavelength_conversion: false,
            delta_t: Dur::from_mins(30),
            r_max: 24,
        },
    );

    // A burst of data-transfer requests between collaborating sites.
    let demands = [
        (0u32, 13u32, 0, 4), // src, dst, start hour, duration hours
        (1, 12, 0, 2),
        (2, 10, 0, 6),
        (3, 8, 1, 3),
        (5, 7, 1, 2),
        (0, 13, 1, 4),
        (4, 11, 2, 5),
        (6, 9, 2, 2),
        (0, 13, 2, 4), // third big transfer on the busiest pair
        (2, 12, 3, 3),
    ];
    println!("\n== establishing lightpaths (wavelength continuity) ==");
    let mut established = Vec::new();
    for (i, &(s, d, h, dur)) in demands.iter().enumerate() {
        let req = ConnectionRequest {
            src: NodeId(s),
            dst: NodeId(d),
            earliest_start: Time::from_hours(h),
            duration: Dur::from_hours(dur),
            wavelengths: (Wavelength(0), Wavelength(3)),
        };
        match pce.connect(&req) {
            Ok(lp) => {
                println!(
                    "  #{i} {s}->{d}: {} hops on lambda {} at t+{:.1}h (attempts {})",
                    lp.path.hops(),
                    lp.wavelengths[0].0,
                    lp.start.secs() as f64 / 3600.0,
                    lp.attempts
                );
                established.push(lp);
            }
            Err(e) => println!("  #{i} {s}->{d}: blocked ({e})"),
        }
    }

    // Tear one down and show the wavelength is reusable.
    let lp = established.swap_remove(0);
    pce.tear_down(&lp).expect("lightpath exists");
    println!(
        "\n== tear-down ==\n  released {} link-wavelength windows",
        lp.path.hops()
    );

    // The same burst with wavelength conversion enabled: fewer shifts.
    let net2 = Network::nsfnet(4);
    let mut pce_conv = Pce::new(
        net2,
        sched_cfg,
        PceConfig {
            k_paths: 3,
            wavelength_conversion: true,
            delta_t: Dur::from_mins(30),
            r_max: 24,
        },
    );
    println!("\n== same demands with wavelength conversion ==");
    let mut delayed_nc = 0;
    let mut delayed_cv = 0;
    for &(s, d, h, dur) in &demands {
        let req = ConnectionRequest {
            src: NodeId(s),
            dst: NodeId(d),
            earliest_start: Time::from_hours(h),
            duration: Dur::from_hours(dur),
            wavelengths: (Wavelength(0), Wavelength(3)),
        };
        if let Ok(lp) = pce_conv.connect(&req) {
            if lp.start > req.earliest_start {
                delayed_cv += 1;
            }
            if !lp.is_continuous() {
                println!(
                    "  {s}->{d}: converted mid-path (lambdas {:?})",
                    lp.wavelengths.iter().map(|w| w.0).collect::<Vec<_>>()
                );
            }
        }
    }
    for lp in &established {
        if lp.start > Time::from_hours(0) {
            delayed_nc += 1;
        }
    }
    println!(
        "\ndelayed connections: continuity {delayed_nc} vs conversion {delayed_cv} \
         (conversion never does worse)"
    );
}
