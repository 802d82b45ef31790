//! Counter-based allocation guard for the scheduler hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase grows every scratch buffer and slab free list, the guard
//! asserts that **steady-state rejected submissions perform zero heap
//! allocations** — both the phase-1 (candidate count) and phase-2
//! (feasibility) rejection paths, one at a time and in batches over
//! several ranges — and that the grant path stays within a
//! small bounded budget (the returned `Grant::servers` vector plus the
//! per-job reservation record).
//!
//! This is an integration test on purpose: the counting allocator needs
//! `unsafe impl GlobalAlloc`, which the library crate forbids.

use coalloc_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Every measured path runs on the
    /// measuring thread, so what other threads allocate meanwhile — the
    /// test harness's main thread, for one — stays out of the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn cfg() -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur(10))
        .horizon(Dur(400))
        .delta_t(Dur(10))
        .build()
}

#[test]
fn steady_state_submissions_do_not_allocate() {
    // ---- Phase-1 rejects: a pinned server makes 8-wide requests uncountable.
    let mut sched = CoAllocScheduler::new(8, cfg());
    sched
        .submit(&Request::on_demand(Time::ZERO, Dur(390), 1))
        .unwrap();

    // Warm-up: grow scratch buffers, the pending-op queue, metric
    // registries, and slab free lists with a mixed grant/reject/release
    // load, including one request identical to each measured shape.
    let mut jobs = Vec::with_capacity(64);
    for i in 0..200i64 {
        let req = Request::advance(
            Time::ZERO,
            Time((i % 30) * 10),
            Dur(10 + (i % 5) * 20),
            1 + (i % 6) as u32,
        );
        if let Ok(g) = sched.submit(&req) {
            jobs.push(g.job);
        }
        if i % 2 == 0 {
            if let Some(j) = jobs.pop() {
                sched.release(j).unwrap();
            }
        }
    }
    for j in jobs.drain(..) {
        sched.release(j).unwrap();
    }
    let probe = Request::on_demand(Time::ZERO, Dur(50), 8);
    assert!(sched.submit(&probe).is_err(), "7 free servers < 8 wanted");

    let before = allocs();
    for _ in 0..100 {
        assert!(sched.submit(&probe).is_err());
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state phase-1 rejections must not allocate"
    );

    // ---- Batched rejects: `submit_batch_into` writes into a caller-owned
    // buffer and folds the same zero-allocation reject path per member, so
    // a steady-state stream of all-reject batches allocates nothing — no
    // per-batch Vec churn.
    let batch: Vec<Request> = vec![probe; 16];
    let mut out = Vec::with_capacity(batch.len());
    sched.submit_batch_into(&batch, &mut out); // warm the out-buffer
    let before = allocs();
    for _ in 0..20 {
        sched.submit_batch_into(&batch, &mut out);
        assert!(out.iter().all(|r| r.is_err()));
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state batched rejections must not allocate"
    );

    // ---- Phase-2 rejects: enough candidates, none feasible. All four
    // servers are busy over [60, 100), so a 310 s job counts 4 candidate
    // periods at every start in its horizon-bounded window but never finds a
    // feasible one (finite periods end at 60 < e_r; the trailing periods
    // start at 100 > every tried start).
    let mut sched2 = CoAllocScheduler::new(4, cfg());
    sched2
        .submit(&Request::advance(Time::ZERO, Time(60), Dur(40), 4))
        .unwrap();
    let long = Request::on_demand(Time::ZERO, Dur(310), 4);
    assert!(matches!(
        sched2.submit(&long),
        Err(ScheduleError::HorizonExceeded { .. })
    ));

    let before = allocs();
    for _ in 0..100 {
        assert!(sched2.submit(&long).is_err());
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state phase-2 rejections must not allocate"
    );

    // ---- Profile-jump rejects: a comb of fully-busy even slots makes the
    // capacity profile refute every Δt-aligned window for a 20 s job, so
    // the retry loop resolves by multi-hop `next_allowed` jumps alone —
    // zero Phase-1 probes — and the whole walk (segment-tree descents
    // included) must be allocation-free.
    let mut sched3 = CoAllocScheduler::new(2, cfg());
    for i in (0..40i64).step_by(2) {
        sched3
            .submit(&Request::advance(Time::ZERO, Time(i * 10), Dur(10), 2))
            .unwrap();
    }
    let comb = Request::on_demand(Time::ZERO, Dur(20), 1);
    let base_attempts = sched3.stats().attempts;
    assert!(matches!(
        sched3.submit(&comb),
        Err(ScheduleError::Exhausted { .. })
    ));
    assert_eq!(
        sched3.stats().attempts,
        base_attempts,
        "every attempt must be jumped, none probed"
    );
    let before = allocs();
    for _ in 0..100 {
        assert!(sched3.submit(&comb).is_err());
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state profile-jump rejections must not allocate"
    );

    // ---- Grant path: bounded, not zero. Each grant returns an owned
    // `Grant::servers` vector and records a per-job reservation list; both
    // are O(n_r) and independent of schedule size. Guard against gross
    // regressions with a generous per-grant budget.
    let warm = sched2
        .submit(&Request::on_demand(Time::ZERO, Dur(30), 4))
        .unwrap();
    sched2.release(warm.job).unwrap();
    let iters = 50u64;
    let before = allocs();
    for _ in 0..iters {
        let g = sched2
            .submit(&Request::on_demand(Time::ZERO, Dur(30), 4))
            .unwrap();
        sched2.release(g.job).unwrap();
    }
    let per_grant = (allocs() - before) / iters;
    println!("grant+release allocations per cycle: {per_grant}");
    assert!(
        per_grant <= 32,
        "grant+release cycle allocated {per_grant} times; expected a small bounded number"
    );

    // ---- Batched grant path: scratch is reused across batch members, so
    // each granted member stays within the same per-grant budget.
    let pair = [
        Request::on_demand(Time::ZERO, Dur(30), 2),
        Request::on_demand(Time::ZERO, Dur(30), 2),
    ];
    let mut out = Vec::with_capacity(pair.len());
    sched2.submit_batch_into(&pair, &mut out); // warm
    for r in out.drain(..) {
        sched2.release(r.unwrap().job).unwrap();
    }
    let before = allocs();
    for _ in 0..iters {
        sched2.submit_batch_into(&pair, &mut out);
        for r in out.drain(..) {
            sched2.release(r.unwrap().job).unwrap();
        }
    }
    let per_grant = (allocs() - before) / (iters * pair.len() as u64);
    println!("batched grant+release allocations per member: {per_grant}");
    assert!(
        per_grant <= 32,
        "batched grant+release allocated {per_grant} per member; expected the per-grant budget"
    );
}

/// The batched path over several ranges: after warm-up, steady-state
/// all-reject batches through `submit_batch_into` perform zero heap
/// allocations on the inline path — the driver's scratch (count arrays,
/// feasible buffers, per-range commit groups) is reused across members —
/// and granted members stay within the single scheduler's per-grant
/// budget. Only the inline path is measured: a pooled batch spawns its
/// stage threads, which allocates by design and is amortized by batching.
#[test]
fn steady_state_batched_submissions_do_not_allocate() {
    let mut sched = CoAllocScheduler::with_ranges(8, 4, cfg());
    sched.set_pool_min_batch(usize::MAX); // the inline path

    // A pinned server makes 8-wide requests uncountable (phase-1 reject).
    sched
        .submit(&Request::on_demand(Time::ZERO, Dur(390), 1))
        .unwrap();

    // Warm-up: grow every coordinator scratch buffer, shard tree slab and
    // metric registry with a mixed grant/reject/release load.
    let mut jobs = Vec::with_capacity(64);
    for i in 0..200i64 {
        let req = Request::advance(
            Time::ZERO,
            Time((i % 30) * 10),
            Dur(10 + (i % 5) * 20),
            1 + (i % 6) as u32,
        );
        if let Ok(g) = sched.submit(&req) {
            jobs.push(g.job);
        }
        if i % 2 == 0 {
            if let Some(j) = jobs.pop() {
                sched.release(j).unwrap();
            }
        }
    }
    for j in jobs.drain(..) {
        sched.release(j).unwrap();
    }

    // ---- Batched rejects: zero allocations in steady state.
    let probe = Request::on_demand(Time::ZERO, Dur(50), 8);
    let batch: Vec<Request> = vec![probe; 16];
    let mut out = Vec::with_capacity(batch.len());
    sched.submit_batch_into(&batch, &mut out); // warm the out-buffer
    assert!(out.iter().all(|r| r.is_err()), "7 free servers < 8 wanted");
    let before = allocs();
    for _ in 0..20 {
        sched.submit_batch_into(&batch, &mut out);
        assert!(out.iter().all(|r| r.is_err()));
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state batched sharded rejections must not allocate"
    );

    // ---- Profile-jump rejects: a comb of fully-busy even slots lets the
    // coordinator's capacity profile refute every Δt-aligned window for a
    // 20 s member, so the gather loop resolves each one by `next_allowed`
    // jumps alone — zero shard probes — and must stay allocation-free.
    let mut sched2 = CoAllocScheduler::with_ranges(2, 2, cfg());
    sched2.set_pool_min_batch(usize::MAX);
    for i in (0..40i64).step_by(2) {
        sched2
            .submit(&Request::advance(Time::ZERO, Time(i * 10), Dur(10), 2))
            .unwrap();
    }
    let comb = Request::on_demand(Time::ZERO, Dur(20), 1);
    let comb_batch: Vec<Request> = vec![comb; 16];
    sched2.submit_batch_into(&comb_batch, &mut out); // warm
    assert!(out.iter().all(|r| r.is_err()));
    let base_attempts = sched2.stats().attempts;
    let before = allocs();
    for _ in 0..20 {
        sched2.submit_batch_into(&comb_batch, &mut out);
        assert!(out.iter().all(|r| r.is_err()));
    }
    assert_eq!(
        allocs() - before,
        0,
        "steady-state profile-jump batched rejections must not allocate"
    );
    assert_eq!(
        sched2.stats().attempts,
        base_attempts,
        "every attempt must be jumped, none probed"
    );

    // ---- Batched grants: bounded, not zero — each grant returns an owned
    // `Grant::servers` vector and records per-shard reservation entries,
    // all O(n_r); the coordinator scratch is reused across members.
    let pair = [
        Request::on_demand(Time::ZERO, Dur(30), 3),
        Request::on_demand(Time::ZERO, Dur(30), 3),
    ];
    sched.submit_batch_into(&pair, &mut out); // warm
    for r in out.drain(..) {
        sched.release(r.unwrap().job).unwrap();
    }
    let iters = 50u64;
    let before = allocs();
    for _ in 0..iters {
        sched.submit_batch_into(&pair, &mut out);
        for r in out.drain(..) {
            sched.release(r.unwrap().job).unwrap();
        }
    }
    let per_grant = (allocs() - before) / (iters * pair.len() as u64);
    println!("sharded batched grant+release allocations per member: {per_grant}");
    assert!(
        per_grant <= 32,
        "sharded batched grant+release allocated {per_grant} per member; \
         expected the per-grant budget"
    );
}

/// A warm block arena allocates nothing: the same inserts, removes, bulk
/// builds, walks and clears, run again over the arena the first run left,
/// take every block and buffer from its free lists.
#[test]
fn warm_block_arena_does_not_allocate() {
    use coalloc_core::blockset::{BlockArena, BlockSet};
    use coalloc_core::idle::EndKey;
    use coalloc_core::ids::PeriodId;
    let keys: Vec<EndKey> = (0..3_000u64)
        .map(|i| EndKey {
            end: Time((i * 7_919 % 1_009) as i64),
            id: PeriodId(i + 1),
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    let mut out = Vec::with_capacity(keys.len());
    let mut run = |arena: &mut BlockArena<EndKey>| {
        let mut ops = OpStats::new();
        let mut grown = BlockSet::new();
        for &key in &keys {
            grown.insert(arena, key, &mut ops);
        }
        for key in keys.iter().step_by(3) {
            assert!(grown.remove(arena, *key, &mut ops));
        }
        let mut built = BlockSet::from_sorted(arena, &sorted, &mut ops);
        out.clear();
        built.collect_top(arena, sorted[100], usize::MAX, |_| true, &mut out, &mut ops);
        grown.clear(arena);
        built.clear(arena);
    };
    let mut arena = BlockArena::new(0xB10C);
    run(&mut arena);
    let before = allocs();
    run(&mut arena);
    assert_eq!(allocs() - before, 0, "a warm arena must not allocate");
}
