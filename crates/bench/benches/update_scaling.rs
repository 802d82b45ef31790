//! Update-path cost (Section 4.3): committing a reservation updates the
//! trees of every slot the allocated periods overlap —
//! `O(n_r * S * (log N)^2)` where `S` is the overlapped-slot span — while
//! moving a trailing period costs `O(log N)` in the trailing index.

use coalloc_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn cfg() -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur(600))
        .horizon(Dur(600 * 64))
        .delta_t(Dur(600))
        .build()
}

/// Commit+release cycles at the schedule tail (trailing-index fast path).
fn bench_commit_release_tail(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_release_tail");
    for exp in [8u32, 12, 16] {
        let n = 1u32 << exp;
        let mut s = CoAllocScheduler::new(n, cfg());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let g = s
                    .submit(&Request::on_demand(Time::ZERO, Dur(1200), 4))
                    .expect("fits");
                s.release(black_box(g.job)).unwrap();
            });
        });
    }
    group.finish();
}

/// Commit+release of a mid-schedule hole (finite-period slot-tree path):
/// cost grows with the number of slots the hole spans. Anchors occupy every
/// server so the request cannot be satisfied from the (cheap) trailing
/// index — it must split the wide finite hole.
fn bench_commit_release_hole(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_release_hole_span");
    for span_slots in [2i64, 8, 32] {
        let n = 8u32;
        let mut s = CoAllocScheduler::new(n, cfg());
        // A far-future anchor on ALL servers creates a finite hole
        // [0, anchor_start) spanning `span_slots + 1` slots on each.
        let anchor = Time(600 * (span_slots + 1));
        s.submit(&Request::advance(Time::ZERO, anchor, Dur(600), n))
            .expect("anchor fits");
        group.bench_with_input(
            BenchmarkId::from_parameter(span_slots),
            &span_slots,
            |b, _| {
                b.iter(|| {
                    // Book inside the hole: splits finite periods that span
                    // `span_slots` slots.
                    let g = s
                        .submit(&Request::advance(Time::ZERO, Time(600), Dur(600), 4))
                        .expect("hole fits");
                    s.release(black_box(g.job)).unwrap();
                });
            },
        );
    }
    group.finish();
}

/// Clock advance: discard + create slot trees (the paper's O(1) claim).
fn bench_clock_advance(c: &mut Criterion) {
    let mut group = c.benchmark_group("clock_advance_per_slot");
    for exp in [8u32, 14] {
        let n = 1u32 << exp;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut s = CoAllocScheduler::new(n, cfg());
            let mut t = 0i64;
            b.iter(|| {
                t += 600;
                s.advance_to(black_box(Time(t)));
            });
        });
    }
    group.finish();
}

/// Grant-path latency against grant width, batched vs one update at a
/// time, on a system whose servers all carry a finite hole: an `n`-server
/// grant is one batch of `n` removals and `2n` fragments, most of them
/// bound for the same few canonical trees, so wide grants cross from the
/// eager onto the deferred secondary-tree path (DESIGN.md §12, "Batched
/// write path"). Only the `submit` call is timed; the release runs off the
/// clock.
fn bench_grant_width(c: &mut Criterion) {
    use std::time::{Duration, Instant};
    let mut group = c.benchmark_group("grant_latency_by_width");
    for (label, eager) in [("batched", false), ("one-by-one", true)] {
        for width in [1u32, 4, 16, 64] {
            let n = 256u32;
            let mut s = CoAllocScheduler::new(n, cfg());
            if eager {
                s.force_eager_ring_updates();
            }
            s.submit(&Request::advance(Time::ZERO, Time(600 * 32), Dur(600), n))
                .expect("anchor fits");
            group.bench_with_input(BenchmarkId::new(label, width), &width, |b, &width| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        let t0 = Instant::now();
                        let g = s
                            .submit(&Request::advance(Time::ZERO, Time(600), Dur(600), width))
                            .expect("hole fits");
                        total += t0.elapsed();
                        s.release(black_box(g.job)).unwrap();
                    }
                    total
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_commit_release_tail,
    bench_commit_release_hole,
    bench_clock_advance,
    bench_grant_width
);
criterion_main!(benches);
