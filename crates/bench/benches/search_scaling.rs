//! Section 4.3 complexity claims, measured: the two-phase search is
//! `O((log N)^2)` against the slotted trees versus `O(N)` for the naive
//! linear scan, as the server count grows.

use coalloc_core::naive::NaiveScheduler;
use coalloc_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn cfg(seed: u64) -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur(600))
        .horizon(Dur(600 * 64))
        .delta_t(Dur(600))
        .seed(seed)
        .build()
}

/// Build a fragmented system: commit a batch of staggered jobs so that
/// searches traverse a non-trivial tree.
fn fragmented_tree(n: u32) -> CoAllocScheduler {
    let mut s = CoAllocScheduler::new(n, cfg(7));
    for i in 0..128i64 {
        let req = Request::advance(Time::ZERO, Time((i % 32) * 600), Dur(600), (n / 128).max(1));
        let _ = s.submit(&req);
    }
    s
}

fn fragmented_naive(n: u32) -> NaiveScheduler {
    let mut s = NaiveScheduler::new(n, cfg(7));
    for i in 0..128i64 {
        let req = Request::advance(Time::ZERO, Time((i % 32) * 600), Dur(600), (n / 128).max(1));
        let _ = s.submit(&req);
    }
    s
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_count_vs_n");
    for exp in [8u32, 10, 12, 14, 16] {
        let n = 1u32 << exp;
        group.throughput(Throughput::Elements(1));
        let mut tree = fragmented_tree(n);
        group.bench_with_input(BenchmarkId::new("slotted-tree", n), &n, |b, _| {
            let mut i = 0i64;
            b.iter(|| {
                i = (i + 1) % 30;
                black_box(tree.range_count(Time(i * 600), Time(i * 600 + 500)))
            });
        });
        let mut naive = fragmented_naive(n);
        group.bench_with_input(BenchmarkId::new("naive-scan", n), &n, |b, _| {
            let mut i = 0i64;
            b.iter(|| {
                i = (i + 1) % 30;
                black_box(
                    naive
                        .find_all_feasible(Time(i * 600), Time(i * 600 + 500))
                        .len(),
                )
            });
        });
    }
    group.finish();
}

fn bench_full_enumeration(c: &mut Criterion) {
    // Enumerating all feasible resources is Omega(answer); compare the
    // constant factors at a fixed N.
    let mut group = c.benchmark_group("range_search_enumerate");
    let n = 4096u32;
    let mut tree = fragmented_tree(n);
    group.bench_function("slotted-tree", |b| {
        b.iter(|| black_box(tree.range_search(Time(300), Time(900)).len()));
    });
    let mut naive = fragmented_naive(n);
    group.bench_function("naive-scan", |b| {
        b.iter(|| black_box(naive.find_all_feasible(Time(300), Time(900)).len()));
    });
    group.finish();
}

criterion_group!(benches, bench_search, bench_full_enumeration);
criterion_main!(benches);
