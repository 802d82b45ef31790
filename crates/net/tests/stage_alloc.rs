//! Allocation guards for the serving path's steady state.
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
//! The reply path has the same budget: a warm [`Session`] answers a burst
//! of rejected submits through [`Session::exec_into`] into a reused
//! [`Replies`] buffer without a heap allocation.
//!
//! Same technique as `crates/core/tests/alloc_guard.rs`: a counting
//! `#[global_allocator]` (the lib crates forbid `unsafe`, so this must be
//! an integration test), a warm-up pass to register the histograms, then a
//! measured steady-state loop.

use coalloc_net::session::Replies;
use coalloc_net::slow;
use coalloc_net::stage::{Released, Stamps, Written};
use coalloc_net::Session;
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
        stages.push(
            &Stamps {
                released: Some(released),
                ..burst
            },
            1,
        );
    }
    stages.flush();
    let mut written = Written::at(Instant::now());
    let mut acc = 0u64;
    for _ in 0..BURST {
        let total_us = written.push(
            &Stamps {
                released: Some(released),
                ..burst
            },
            1,
        );
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

/// `reject-wall`'s geometry: 64 servers, a 72 h horizon, 15 min slots and
/// `Delta_t`, every server booked over [0, 48 h) by twelve 64-wide 4 h
/// fillers. A submit from 0 of 2 to 8 h ends inside the wall at every
/// attempt of its ladder, so it is rejected.
#[test]
fn steady_state_reject_bursts_do_not_allocate() {
    const SLOT: i64 = 900;
    const HOUR: i64 = 3600;
    let mut s = Session::new(1);
    s.exec(&format!("init 64 {SLOT} {} {SLOT}", 72 * HOUR))
        .unwrap();
    for i in 0..12 {
        let filler = s.exec(&format!("submit 0 {} {} 64", i * 4 * HOUR, 4 * HOUR));
        assert!(filler.unwrap().starts_with("granted"));
    }
    let burst: String = (0..BURST as i64)
        .map(|i| format!("submit 0 0 {} {}\n", (8 + i % 25) * SLOT, 1 + i))
        .collect();
    let mut out = Replies::default();
    let answer = |s: &mut Session, out: &mut Replies| {
        out.clear();
        s.exec_into(burst.split_terminator('\n'), out);
    };
    // Warm-up: the histograms register and the buffers reach capacity.
    for _ in 0..100 {
        answer(&mut s, &mut out);
    }
    assert_eq!(out.len(), BURST);
    assert!(
        (0..BURST).all(|i| out.reply(i).starts_with("rejected ")),
        "{}",
        out.text()
    );

    let before = allocs();
    for _ in 0..1_000 {
        answer(&mut s, &mut out);
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "answering 1k warm bursts of {BURST} rejected submits allocated {grew} times"
    );
}
