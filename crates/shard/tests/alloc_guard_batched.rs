//! Allocation guard for the sharded batched submission path.
//!
//! Mirrors `crates/core/tests/alloc_guard.rs` for the coordinator: after
//! warm-up, steady-state all-reject batches through
//! `CoAllocScheduler::submit_batch_into` over several ranges must perform
//! **zero** heap allocations on the inline (load-bypass) path — the
//! coordinator scratch (count arrays, feasible/enumerate buffers, per-shard
//! commit groups) is reused across batch members — and granted members
//! stay within the same small per-grant budget as the single scheduler.
//!
//! Only the inline path is measured: a pooled batch spawns its stage
//! threads, which allocates by design and is amortized by batching, not
//! eliminated.

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
