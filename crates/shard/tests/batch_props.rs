//! Batched-execution equivalence properties.
//!
//! The contract of `submit_batch` (DESIGN.md §9): member `i` of a batch
//! observes exactly the state that sequential submission of members
//! `0..i` would have left — same grants and rejections, same start times,
//! same attempt counts, same server choices, same job ids — for every
//! selection policy, every shard count, every batch size, and both
//! execution strategies (inline bypass and the pooled batch, including
//! the repair path under contention).
//!
//! Operation accounting is also grouping-invariant, with one documented
//! exception: a pooled batch searches the pre-batch ranges, so the
//! state-dependent search counters (`primary_visits`, `secondary_visits`,
//! `phase2_searches`) may differ while every other counter (attempts,
//! skips, phase-1 searches, structural work) must match exactly.

use coalloc_core::prelude::*;
use proptest::prelude::*;

const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

/// A stream of small requests fitting a tau=10 / horizon=400 slotting.
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
                t += dt % 20;
                Request::advance(Time(t), Time(t + adv), Dur(dur), n)
            })
            .collect()
    })
}

fn cfg(policy: SelectionPolicy, seed: u64) -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur(10))
        .horizon(Dur(400))
        .delta_t(Dur(10))
        .policy(policy)
        .seed(seed)
        .build()
}

/// Zero the counters that legitimately differ over an open batch: tree
/// visits, and `phase2_searches` — `enumerate` only invokes Phase 2 when
/// Phase 1 found candidates, and the pre-batch snapshot can hold (dirty,
/// infeasible) candidates an in-batch commit has since consumed.
fn comparable(mut s: OpStats) -> OpStats {
    s.primary_visits = 0;
    s.secondary_visits = 0;
    s.phase2_searches = 0;
    s
}

/// Drive the three execution strategies through the workload in lockstep
/// chunks of `batch`, comparing each chunk's replies before moving on (so
/// a divergence reports the exact chunk that caused it). Churn: the clock
/// advances to each chunk's first submit time (batch semantics: the clock
/// is constant within a batch) and every third accepted job is released
/// after its chunk lands. A released job may already have been pruned from
/// history by an intervening advance; all that matters here is that every
/// strategy answers the release identically too.
fn assert_chunked_equivalence(
    reqs: &[Request],
    policy: SelectionPolicy,
    k: u32,
    batch: usize,
    seed: u64,
) {
    let ctx = format!("{policy:?} k={k} b={batch} seed={seed}");
    let mut seq = CoAllocScheduler::with_ranges(6, k, cfg(policy, seed));
    let mut pooled = CoAllocScheduler::with_ranges(6, k, cfg(policy, seed));
    pooled.set_pool_min_batch(0); // force the pool path
    let mut inline = CoAllocScheduler::with_ranges(6, k, cfg(policy, seed));
    inline.set_pool_min_batch(usize::MAX); // force the bypass
    let mut live: Vec<JobId> = Vec::new();
    let mut churn = 0usize;
    for chunk in reqs.chunks(batch) {
        seq.advance_to(chunk[0].submit);
        pooled.advance_to(chunk[0].submit);
        inline.advance_to(chunk[0].submit);
        let expect: Vec<_> = chunk.iter().map(|r| seq.submit(r)).collect();
        let got = pooled.submit_batch(chunk);
        assert_eq!(expect, got, "pool path diverges: {ctx} chunk={chunk:?}");
        let got = inline.submit_batch(chunk);
        assert_eq!(expect, got, "inline path diverges: {ctx} chunk={chunk:?}");
        for g in expect.iter().flatten() {
            live.push(g.job);
        }
        live.retain(|&job| {
            churn += 1;
            if churn.is_multiple_of(3) {
                let a = seq.release(job);
                assert_eq!(a, pooled.release(job), "release diverges: {ctx}");
                assert_eq!(a, inline.release(job), "release diverges: {ctx}");
                false
            } else {
                true
            }
        });
    }
    // Inline batching is byte-for-byte the sequential algorithm, so even
    // the visit counters must match; the pool path's visits are measured
    // against the pre-batch ranges and may legitimately differ.
    assert_eq!(seq.stats(), inline.stats(), "inline stats diverge: {ctx}");
    assert_eq!(
        comparable(*seq.stats()),
        comparable(*pooled.stats()),
        "pool stats diverge: {ctx}"
    );
    pooled.check_consistency();
    inline.check_consistency();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `submit_batch` ≡ sequential `submit` for every policy × K × batch
    /// size under random churn, on both execution strategies. Six servers
    /// and up to six requested per member keep the batches contending, so
    /// the repair path runs routinely.
    #[test]
    fn batched_equals_sequential(reqs in request_stream(6, 40), seed in 0u64..1000) {
        for policy in [
            SelectionPolicy::PaperOrder,
            SelectionPolicy::BestFit,
            SelectionPolicy::WorstFit,
            SelectionPolicy::ByServerId,
        ] {
            for k in SHARD_COUNTS {
                for &batch in &BATCH_SIZES {
                    assert_chunked_equivalence(&reqs, policy, k, batch, seed);
                }
            }
        }
    }

    /// The plain scheduler's `submit_batch` is the reference fold — exact
    /// equality including every stats counter.
    #[test]
    fn plain_batched_equals_sequential(reqs in request_stream(8, 40), seed in 0u64..1000) {
        for &batch in &BATCH_SIZES {
            let mut a = CoAllocScheduler::new(8, cfg(SelectionPolicy::PaperOrder, seed));
            let mut b = CoAllocScheduler::new(8, cfg(SelectionPolicy::PaperOrder, seed));
            let mut expect = Vec::new();
            let mut got = Vec::new();
            for chunk in reqs.chunks(batch) {
                a.advance_to(chunk[0].submit);
                b.advance_to(chunk[0].submit);
                expect.extend(chunk.iter().map(|r| a.submit(r)));
                got.extend(b.submit_batch(chunk));
            }
            prop_assert_eq!(&expect, &got, "b={}", batch);
            prop_assert_eq!(*a.stats(), *b.stats(), "b={}", batch);
        }
    }

    /// Maximum-contention batches: three servers, every member wanting
    /// most of them, whole workload in one batch. Forces dense repair
    /// chains through the pool path.
    #[test]
    fn repair_chains_stay_sequential_exact(
        durs in prop::collection::vec((1i64..60, 2u32..=3), 2..64),
        seed in 0u64..1000,
    ) {
        let reqs: Vec<Request> = durs
            .iter()
            .map(|&(d, n)| Request::on_demand(Time::ZERO, Dur(d), n))
            .collect();
        let c = cfg(SelectionPolicy::PaperOrder, seed);
        for k in [2u32, 3] {
            let mut pooled = CoAllocScheduler::with_ranges(3, k, c);
            pooled.set_pool_min_batch(0);
            let got = pooled.submit_batch(&reqs);
            let mut seq = CoAllocScheduler::with_ranges(3, k, c);
            let expect: Vec<_> = reqs.iter().map(|r| seq.submit(r)).collect();
            prop_assert_eq!(&expect, &got, "k={}", k);
            prop_assert_eq!(
                comparable(*pooled.stats()), comparable(*seq.stats()),
                "stats diverge k={}", k
            );
            pooled.check_consistency();
        }
    }
}
