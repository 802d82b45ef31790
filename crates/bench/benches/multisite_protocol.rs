//! Cross-site protocol latency: co-allocation round-trips as the number of
//! involved sites grows (hold-phase length is linear in the site count).

use coalloc_core::prelude::{Dur, SchedulerConfig, Time};
use coalloc_multisite::{Coordinator, CoordinatorConfig, MultiRequest, SiteHandle, SiteId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_co_allocate(c: &mut Criterion) {
    let mut group = c.benchmark_group("co_allocate_sites");
    group.sample_size(20);
    for n_sites in [1u32, 2, 4, 8] {
        let sites: Vec<SiteHandle> = (0..n_sites)
            .map(|i| {
                SiteHandle::spawn(
                    SiteId(i),
                    64,
                    SchedulerConfig::builder()
                        .tau(Dur(900))
                        .horizon(Dur(900 * 512))
                        .delta_t(Dur(900))
                        .build(),
                )
            })
            .collect();
        let ccfg = CoordinatorConfig {
            delta_t: Dur(900),
            r_max: 8,
            ..CoordinatorConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(n_sites), &n_sites, |b, _| {
            let mut coord = Coordinator::new(&sites, ccfg);
            let mut k = 0i64;
            b.iter(|| {
                // Disjoint windows so every co-allocation succeeds at the
                // first attempt (pure protocol cost).
                k += 1;
                let req = MultiRequest {
                    parts: (0..n_sites).map(|s| (SiteId(s), 2u32)).collect(),
                    earliest_start: Time((k % 400) * 900),
                    duration: Dur(900),
                };
                let g = coord.co_allocate(black_box(&req)).expect("fits");
                // Immediately undo so capacity never runs out.
                for (site, _, _) in &g.parts {
                    let _ = sites[site.0 as usize]
                        .call(coalloc_multisite::SiteRequest::Abort { txn: g.txn, seq: 0 });
                }
            });
        });
        for s in sites {
            s.shutdown();
        }
    }
    group.finish();
}

criterion_group!(benches, bench_co_allocate);
criterion_main!(benches);
