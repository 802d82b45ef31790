//! Differential soak test: drive the tree-based scheduler and the naive
//! oracle with an endless randomized operation stream (submit, deadline
//! submit, release, clock advance, range search) and assert equivalence and
//! structural consistency continuously.
//!
//! ```text
//! cargo run -p coalloc-bench --release --bin soak -- \
//!     [seconds] [seed] [--shards K] [--trace-out PATH] [--metrics-dump]
//! ```
//!
//! With `--shards K` (K > 1) every round also drives a `K`-range
//! [`CoAllocScheduler`] over the same stream and asserts its grants,
//! rejections, and releases are identical to the tree scheduler's. The
//! mirror consumes submissions
//! through `submit_batch` with *randomized* batch boundaries (any
//! non-submit operation is a barrier that flushes the pending batch
//! first), so the three-way differential continuously re-proves the
//! batched-execution equivalence contract under randomized load, not just
//! the per-request one. The batches are short (1 to 8 members), below the
//! size at which the mirror would pool them by itself, so every even round
//! forces the pool (`set_pool_min_batch(0)`): those rounds check the
//! pooled path — decisions over an open batch, repaired against in-batch
//! grants, the per-batch commit stage and clock advances in pooled stages
//! — and the odd ones the inline path.
//!
//! A divergence (any failed equivalence assertion) prints
//! `INVARIANT VIOLATED: ...` on stderr and exits non-zero instead of
//! unwinding with a raw panic backtrace. `--trace-out PATH` streams
//! scheduler spans to `PATH` as JSONL; `--metrics-dump` prints the metrics
//! exposition before exiting; `COALLOC_OBS` works as in the `obs` crate.

use coalloc_core::naive::NaiveScheduler;
use coalloc_core::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Render a caught panic payload (always a `&str` or `String` from
/// `assert!`/`panic!`) for the invariant report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn main() {
    println!("{}", obs::init_from_env());
    let mut positional = Vec::new();
    let mut metrics_dump = false;
    let mut shards = 1u32;
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--shards" => {
                let k = raw.next().expect("--shards needs a count");
                shards = k.parse().expect("--shards takes an integer >= 1");
                assert!(shards >= 1, "--shards takes an integer >= 1");
            }
            "--trace-out" => {
                let path = raw.next().expect("--trace-out needs a path");
                let sink = obs::trace::JsonlSink::create(&path).expect("open trace file");
                obs::trace::set_sink(Some(std::sync::Arc::new(sink)));
                obs::trace::set_enabled(true);
                obs::trace::set_detail(true);
                println!("tracing to {path} (jsonl)");
            }
            "--metrics-dump" => metrics_dump = true,
            _ => positional.push(a),
        }
    }
    let seconds: u64 = positional
        .first()
        .map(|s| s.parse().expect("seconds"))
        .unwrap_or(10);
    let seed: u64 = positional
        .get(1)
        .map(|s| s.parse().expect("seed"))
        .unwrap_or(42);
    if shards > 1 {
        println!("soak: {seconds}s with seed {seed} (+ {shards}-shard mirror)");
    } else {
        println!("soak: {seconds}s with seed {seed}");
    }
    let deadline = Instant::now() + std::time::Duration::from_secs(seconds);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rounds: u64 = 0;
    let mut total_ops: u64 = 0;
    while Instant::now() < deadline {
        rounds += 1;
        let round = catch_unwind(AssertUnwindSafe(|| run_round(&mut rng, shards, rounds)));
        match round {
            Ok(ops) => total_ops += ops,
            Err(payload) => {
                eprintln!("INVARIANT VIOLATED: {}", panic_message(&*payload));
                eprintln!("  (round {rounds}, master seed {seed})");
                obs::trace::flush_sink();
                std::process::exit(1);
            }
        }
        if rounds.is_multiple_of(50) {
            println!("  round {rounds}: ok ({total_ops} tree ops so far)");
        }
    }
    obs::trace::flush_sink();
    if metrics_dump {
        println!("--- metrics ---");
        print!("{}", obs::metrics::exposition());
    }
    println!("soak passed: {rounds} randomized rounds, {total_ops} tree ops, no divergence");
}

/// Submissions awaiting the sharded mirror's next `submit_batch` flush,
/// with the tree scheduler's results recorded at submit time for deferred
/// comparison. `fill` remembers which `jobs` slot receives the mirror's
/// job id once the batch lands.
type ExpectedGrant = Result<(Time, Vec<ServerId>, u32), ScheduleError>;

#[derive(Default)]
struct MirrorBatch {
    pending: Vec<Request>,
    expect: Vec<ExpectedGrant>,
    fill: Vec<Option<usize>>,
    next_len: usize,
}

/// Flush the mirror's pending batch through `submit_batch` and compare
/// every member against the tree's recorded (sequential) result, then
/// draw a fresh randomized boundary for the next batch.
fn flush_mirror(
    m: &mut CoAllocScheduler,
    b: &mut MirrorBatch,
    jobs: &mut [(JobId, JobId, Option<JobId>)],
    step: i32,
    rng: &mut SmallRng,
) {
    if !b.pending.is_empty() {
        let got = m.submit_batch(&b.pending);
        for (i, (g, e)) in got.iter().zip(&b.expect).enumerate() {
            match (g, e) {
                (Ok(g), Ok((start, servers, attempts))) => {
                    assert_eq!(
                        g.start, *start,
                        "shard batch start div (step {step}, member {i})"
                    );
                    assert_eq!(
                        &g.servers, servers,
                        "shard batch servers div (step {step}, member {i})"
                    );
                    assert_eq!(
                        g.attempts, *attempts,
                        "shard batch attempts div (step {step}, member {i})"
                    );
                    if let Some(slot) = b.fill[i] {
                        jobs[slot].2 = Some(g.job);
                    }
                }
                (Err(g), Err(e)) => {
                    assert_eq!(g, e, "shard batch error div (step {step}, member {i})")
                }
                _ => panic!(
                    "shard batch accept/reject div (step {step}, member {i}): {g:?} vs {e:?}"
                ),
            }
        }
        b.pending.clear();
        b.expect.clear();
        b.fill.clear();
    }
    b.next_len = rng.random_range(1..=8);
}

/// One randomized differential round; returns the tree op count. Panics (via
/// the assertions) on any divergence — caught and reported by `main`. Even
/// rounds pool the sharded mirror's batches.
fn run_round(rng: &mut SmallRng, shards: u32, round: u64) -> u64 {
    let _span = obs::obs_span!("soak.round");
    {
        let n = rng.random_range(1..=12u32);
        let tau = rng.random_range(5..50i64);
        let slots = rng.random_range(4..40usize);
        let cfg = SchedulerConfig::builder()
            .tau(Dur(tau))
            .horizon(Dur(tau * slots as i64))
            .delta_t(Dur(rng.random_range(1..=tau)))
            .policy(SelectionPolicy::ByServerId)
            .seed(rng.random())
            .build();
        let mut tree = CoAllocScheduler::new(n, cfg);
        let mut naive = NaiveScheduler::new(n, cfg);
        let mut mirror = (shards > 1).then(|| CoAllocScheduler::with_ranges(n, shards, cfg));
        if round.is_multiple_of(2) {
            if let Some(m) = mirror.as_mut() {
                m.set_pool_min_batch(0);
            }
        }
        let mut jobs: Vec<(JobId, JobId, Option<JobId>)> = Vec::new();
        let mut batch = MirrorBatch {
            next_len: rng.random_range(1..=8),
            ..MirrorBatch::default()
        };
        let steps = rng.random_range(50..400);
        let mut now = 0i64;
        for step in 0..steps {
            match rng.random_range(0..10) {
                0..=5 => {
                    // Random (possibly advance) request.
                    let adv = rng.random_range(0..tau * slots as i64 / 2);
                    let req = Request::advance(
                        Time(now),
                        Time(now + adv),
                        Dur(rng.random_range(1..tau * 4)),
                        rng.random_range(1..=n),
                    );
                    let a = tree.submit(&req);
                    let b = naive.submit(&req);
                    let fill = match (&a, &b) {
                        (Ok(x), Ok(y)) => {
                            assert_eq!(x.start, y.start, "start divergence at step {step}");
                            assert_eq!(x.servers.len(), y.servers.len());
                            jobs.push((x.job, y.job, None));
                            Some(jobs.len() - 1)
                        }
                        (Err(x), Err(y)) => {
                            assert_eq!(x, y, "error divergence at step {step}");
                            None
                        }
                        _ => panic!("accept/reject divergence at step {step}: {a:?} vs {b:?}"),
                    };
                    // The mirror consumes submissions in batches: queue the
                    // request with the tree's result, flush through
                    // `submit_batch` when the randomized boundary is hit.
                    if let Some(m) = mirror.as_mut() {
                        batch.pending.push(req);
                        batch.expect.push(match &a {
                            Ok(g) => Ok((g.start, g.servers.clone(), g.attempts)),
                            Err(e) => Err(*e),
                        });
                        batch.fill.push(fill);
                        if batch.pending.len() >= batch.next_len {
                            flush_mirror(m, &mut batch, &mut jobs, step, rng);
                        }
                    }
                }
                6 => {
                    // Deadline submission on the tree only (semantic check:
                    // never late).
                    let dl = now + rng.random_range(1..tau * slots as i64);
                    let req = Request::on_demand(
                        Time(now),
                        Dur(rng.random_range(1..tau * 2)),
                        rng.random_range(1..=n),
                    );
                    let a = tree.submit_with_deadline(&req, Time(dl));
                    if let Some(m) = mirror.as_mut() {
                        // Barrier: a deadline submission is not batchable.
                        flush_mirror(m, &mut batch, &mut jobs, step, rng);
                        let c = m.submit_with_deadline(&req, Time(dl));
                        match (&a, &c) {
                            (Ok(x), Ok(z)) => {
                                assert_eq!(x.start, z.start, "shard dl start at step {step}");
                                assert_eq!(x.servers, z.servers);
                                m.release(z.job).unwrap();
                            }
                            (Err(x), Err(z)) => {
                                assert_eq!(x, z, "shard dl error at step {step}")
                            }
                            _ => panic!("shard deadline div at step {step}: {a:?} vs {c:?}"),
                        }
                    }
                    if let Ok(g) = a {
                        assert!(g.end <= Time(dl), "late grant");
                        // The oracle cannot replay a specific-server commit;
                        // release from the tree instead to keep states equal.
                        tree.release(g.job).unwrap();
                    }
                }
                7 => {
                    // Release a random live job from both. Flush the mirror
                    // first: the victim's mirror job id may still be
                    // pending, and swap_remove invalidates the batch's
                    // fill slots.
                    if let Some(m) = mirror.as_mut() {
                        flush_mirror(m, &mut batch, &mut jobs, step, rng);
                    }
                    if !jobs.is_empty() {
                        let (jt, jn, jm) = jobs.swap_remove(rng.random_range(0..jobs.len()));
                        let a = tree.release(jt);
                        let b = naive.release(jn);
                        assert_eq!(a.is_ok(), b.is_ok());
                        if let (Some(m), Some(j)) = (mirror.as_mut(), jm) {
                            assert_eq!(a.is_ok(), m.release(j).is_ok());
                        }
                    }
                }
                8 => {
                    // Advance the clock.
                    now += rng.random_range(0..tau * 3);
                    tree.advance_to(Time(now));
                    naive.advance_to(Time(now));
                    if let Some(m) = mirror.as_mut() {
                        // Barrier: the batch clock is constant, so the
                        // pending submissions must land before time moves.
                        flush_mirror(m, &mut batch, &mut jobs, step, rng);
                        m.advance_to(Time(now));
                    }
                }
                _ => {
                    // Range search vs oracle scan.
                    let a = Time(now + rng.random_range(0..tau * slots as i64));
                    let b = a + Dur(rng.random_range(1..tau * 3));
                    let hits = tree.range_search(a, b);
                    if b <= tree.horizon_end() && a >= tree.now() {
                        let mut got: Vec<u32> = hits.iter().map(|h| h.server.0).collect();
                        got.sort_unstable();
                        let mut want: Vec<u32> = (0..n)
                            .filter(|&s| tree.timeline().covering_idle(ServerId(s), a, b).is_some())
                            .collect();
                        want.sort_unstable();
                        assert_eq!(got, want, "range search divergence");
                    }
                }
            }
        }
        tree.check_consistency();
        if let Some(m) = mirror.as_mut() {
            flush_mirror(m, &mut batch, &mut jobs, steps, rng);
            m.check_consistency();
        }
        tree.stats().total_ops()
    }
}
