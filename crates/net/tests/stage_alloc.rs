//! Allocation guard for the latency-attribution fast path.
//!
//! The budget: stamping a pipelined burst through every hand-off — the
//! framing and enqueue readings, the dequeue, the pass's decision, the
//! release (each one clock reading for the whole burst), the
//! [`Released`] recorder, the writeback reading and the [`Written`]
//! recorder, plus the slow-ring threshold check per line — must perform
//! **zero heap allocations** in steady state, so attribution can stay on
//! for every request without eating into the <5% obs overhead guard.
//! Capturing into the slow ring may allocate; that path only runs on the
//! tail (slow/shed/errored requests).
//!
//! Same technique as `crates/core/tests/alloc_guard.rs`: a counting
//! `#[global_allocator]` (the lib crates forbid `unsafe`, so this must be
//! an integration test), a warm-up pass to register the histograms, then a
//! measured steady-state loop.

use coalloc_net::slow;
use coalloc_net::stage::{Released, Stamps, Written};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

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

/// Lines per burst: a full `reject-wall`-sized pipelined burst.
const BURST: usize = 64;

/// Drive one burst's worth of stamping, exactly as the server does it
/// (minus the channels and the socket); returns the summed end-to-end
/// totals.
fn full_pipeline() -> u64 {
    let accepted = Instant::now();
    let mut burst = Stamps::new(accepted, Instant::now());
    burst.dequeued = Some(Instant::now());
    burst.decided = Some(Instant::now());
    let released = Instant::now();
    let mut stages = Released::default();
    for _ in 0..BURST {
        stages.push(&Stamps {
            released: Some(released),
            ..burst
        });
    }
    stages.flush();
    let mut written = Written::at(Instant::now());
    let mut acc = 0u64;
    for _ in 0..BURST {
        let total_us = written.push(&Stamps {
            released: Some(released),
            ..burst
        });
        // The fast path's entire interaction with the slow ring: one load.
        if slow::threshold_us() > 0 && total_us > slow::threshold_us() {
            acc = acc.wrapping_add(1);
        }
        acc = acc.wrapping_add(total_us);
    }
    written.flush();
    acc
}

#[test]
fn steady_state_stage_stamping_does_not_allocate() {
    // Warm-up: the first observation of each histogram registers it
    // (registry lock, BTreeMap insert — allocations are fine here).
    coalloc_net::stage::register();
    for _ in 0..100 {
        full_pipeline();
    }

    let before = allocs();
    let mut acc = 0u64;
    for _ in 0..1_000 {
        acc = acc.wrapping_add(full_pipeline());
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "steady-state stage stamping allocated {grew} times over 1k bursts of {BURST} \
         (accumulated {acc} µs)"
    );
}

/// The guard counts the measuring thread only: a helper thread allocating
/// all through the measured window leaves the count at zero. With one
/// process-wide counter the helper's allocations would land in it.
#[test]
fn other_threads_allocations_stay_out_of_the_count() {
    coalloc_net::stage::register();
    full_pipeline();
    let (stop, made) = (AtomicBool::new(false), AtomicU64::new(0));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(Vec::<u8>::with_capacity(64));
                made.fetch_add(1, Ordering::Relaxed);
            }
        });
        let before = allocs();
        let seen = made.load(Ordering::Relaxed);
        // Measure until the helper has allocated a thousand times.
        while made.load(Ordering::Relaxed) < seen + 1000 {
            full_pipeline();
        }
        let grew = allocs() - before;
        stop.store(true, Ordering::Relaxed);
        assert_eq!(grew, 0, "another thread's allocations were counted");
    });
}
