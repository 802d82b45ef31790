//! Capacity-profile attempt jumping across the sharded front-end
//! (DESIGN.md §14): decisions are bit-identical to the exhaustive linear
//! ladder for every policy, shard count and batch size, on both execution
//! strategies, and the only accounting difference is the probed/jumped
//! split of each search's attempt budget.

use coalloc_core::prelude::*;
use proptest::prelude::*;

const SHARD_COUNTS: [u32; 2] = [1, 4];
const BATCH_SIZES: [usize; 2] = [1, 64];

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

/// Drive a jumping and a linear scheduler through the workload in lockstep
/// chunks of `batch`, with churn (clock advances plus every-third release),
/// and require identical replies throughout. Both go through the pool path
/// when it exists so jumping is exercised over an open batch too.
fn assert_jump_equals_linear(
    reqs: &[Request],
    policy: SelectionPolicy,
    k: u32,
    batch: usize,
    seed: u64,
) {
    let ctx = format!("{policy:?} k={k} b={batch} seed={seed}");
    let mut jump = CoAllocScheduler::with_ranges(6, k, cfg(policy, seed));
    let mut lin = CoAllocScheduler::with_ranges(6, k, cfg(policy, seed));
    lin.set_linear_walk(true);
    jump.set_pool_min_batch(0);
    lin.set_pool_min_batch(0);
    let mut live: Vec<JobId> = Vec::new();
    let mut churn = 0usize;
    for chunk in reqs.chunks(batch) {
        jump.advance_to(chunk[0].submit);
        lin.advance_to(chunk[0].submit);
        let a = jump.submit_batch(chunk);
        let b = lin.submit_batch(chunk);
        assert_eq!(a, b, "jump/linear divergence: {ctx} chunk={chunk:?}");
        for g in a.iter().flatten() {
            live.push(g.job);
        }
        live.retain(|&job| {
            churn += 1;
            if churn.is_multiple_of(3) {
                assert_eq!(
                    jump.release(job),
                    lin.release(job),
                    "release diverges: {ctx}"
                );
                false
            } else {
                true
            }
        });
    }
    // Accounting identity: every linear probe is either probed or jumped,
    // and jumped attempts are the only new skips.
    let (js, ls) = (jump.stats(), lin.stats());
    assert_eq!(
        js.attempts + js.attempts_jumped,
        ls.attempts,
        "probed + jumped != linear probes: {ctx}"
    );
    assert_eq!(
        js.attempts_skipped - js.attempts_jumped,
        ls.attempts_skipped,
        "non-jump skips diverge: {ctx}"
    );
    assert_eq!(ls.attempts_jumped, 0, "linear mode never jumps: {ctx}");
    jump.check_consistency();
    lin.check_consistency();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Jumping ≡ linear for every policy × K × batch size under random
    /// churn. Six servers with up to six requested per member keep windows
    /// contended, so both deep retry ladders and profile jumps occur.
    #[test]
    fn jumping_equals_linear_across_shards_and_batches(
        reqs in request_stream(6, 40),
        seed in 0u64..1000,
    ) {
        for policy in [
            SelectionPolicy::PaperOrder,
            SelectionPolicy::BestFit,
            SelectionPolicy::WorstFit,
            SelectionPolicy::ByServerId,
        ] {
            for k in SHARD_COUNTS {
                for &batch in &BATCH_SIZES {
                    assert_jump_equals_linear(&reqs, policy, k, batch, seed);
                }
            }
        }
    }

    /// The jumping sharded scheduler still matches the jumping core
    /// scheduler decision-for-decision (the profile bound is partition
    /// independent), deep-exhaustion cases included.
    #[test]
    fn jumping_shards_match_core(reqs in request_stream(5, 30), seed in 0u64..1000) {
        let mut core = CoAllocScheduler::new(5, cfg(SelectionPolicy::ByServerId, seed));
        let mut shard = CoAllocScheduler::with_ranges(5, 4, cfg(SelectionPolicy::ByServerId, seed));
        for r in &reqs {
            core.advance_to(r.submit);
            shard.advance_to(r.submit);
            match (core.submit(r), shard.submit(r)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.start, b.start);
                    prop_assert_eq!(a.attempts, b.attempts);
                    let mut sa = a.servers.clone();
                    let mut sb = b.servers.clone();
                    sa.sort();
                    sb.sort();
                    prop_assert_eq!(sa, sb);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "core/shard divergence: {a:?} vs {b:?}"),
            }
        }
        shard.check_consistency();
    }
}
