//! Free-capacity profile: an aggregate busy-count index over the slot ring.
//!
//! The retry loop of [`crate::scheduler::CoAllocScheduler::submit`] shifts a
//! rejected start by `Delta_t` up to `R_max` times, re-running Phase 1 +
//! Phase 2 from scratch at every attempt even though most shifted windows are
//! just as full as the one before. [`FreeProfile`] is the aggregate structure
//! that lets the loop *jump* over provably-failing starts: a lazy segment
//! tree over the live slot window holding, per slot `q`, the number of
//! reservations that **fully cover** `q` (`slot_start(q) >= start` and
//! `slot_end(q) <= end`, i.e. rounded *inward*).
//!
//! ## Why the count is a valid bound
//!
//! A server's reservations are pairwise disjoint, so at most one reservation
//! per server can fully cover a given slot: the per-slot count `B[q]` is the
//! number of **distinct servers** that are busy throughout slot `q`. A server
//! busy throughout a slot intersecting a request window `[s, e)` is busy at
//! some instant of the window, so it cannot host the job; with `N` servers,
//! at most `N - max B[q]` (over the intersecting slots) can be free
//! throughout the window. Whenever that upper bound is below `n_r`, the
//! two-phase search *provably* rejects the attempt — skipping it cannot
//! change any decision. The bound is not tight (a reservation shorter than a
//! slot, or straddling a boundary without covering either side, contributes
//! nothing), which is exactly what makes it sound: the profile only ever
//! skips attempts the full search would also have rejected.
//!
//! ## Maintenance
//!
//! The profile is fed from the same grant/release flow that drives the
//! [`crate::ring::SlotRing`]: `add` on commit, `remove` on release, both
//! clamped to the live window, and `advance_to` zeroes the leaves of expired
//! slots so their positions can be reused by new horizon-edge slots. Because
//! every covered slot of a reservation lies inside the live window at commit
//! time and expired slots are zeroed on rotation, removal clamped to the
//! *current* window is always exact — no per-reservation bookkeeping is
//! needed, and a profile rebuilt from a snapshot's busy set is
//! leaf-identical to the live one (see DESIGN.md §14).
//!
//! All queries and steady-state maintenance are allocation-free; memory is
//! allocated at construction: with `m = Q.next_power_of_two()` leaves, one
//! `Vec<i64>` of `2m` subtree maxima whose leaf half holds each leaf's
//! count, and two of `m` for the internal nodes' minima and pending adds —
//! `32m` bytes: 16 KiB at 288 slots, 128 MiB at the 2^22-slot bound.

use crate::time::{Dur, SlotConfig, SlotIdx, Time};
use obs::LazyCounter;

// Profile maintenance metrics: incremental range updates from the
// grant/release flow, and leaves zeroed by window rotation.
static PROFILE_UPDATES: LazyCounter = LazyCounter::new("sched_profile_updates_total");
static PROFILE_SLOTS_ROTATED: LazyCounter = LazyCounter::new("sched_profile_slots_rotated_total");

#[cfg(test)]
thread_local! {
    /// Searches from the root made by `next_allowed` on this thread.
    static DESCENTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
fn count_descent() {
    #[cfg(test)]
    DESCENTS.with(|d| d.set(d.get() + 1));
}

/// Aggregate count-of-busy-servers-over-time index (see the module docs).
///
/// Two queries, both `O(log Q)`:
///
/// * [`FreeProfile::free_upper_bound`] — how many servers *could* be free
///   throughout a window;
/// * [`FreeProfile::next_allowed`] — the earliest `Delta_t`-aligned attempt
///   the bound does not reject.
#[derive(Clone, Debug)]
pub struct FreeProfile {
    slot_cfg: SlotConfig,
    num_servers: u32,
    /// Leaf count: `num_slots.next_power_of_two()`. Absolute slot `q` lives
    /// at leaf `q mod m`; the live window spans at most `num_slots <= m`
    /// consecutive slots, so live slots never collide.
    m: usize,
    /// Absolute index of the first live slot (mirrors the ring's base).
    base: i64,
    /// Subtree maxima, *including* the node's own pending add but excluding
    /// ancestors' (non-pushing lazy scheme). Node `i` has children `2i` and
    /// `2i + 1`; leaves are `m..2m`, and a leaf's entry is its own count
    /// (its minimum, and every add made to it alone).
    max: Vec<i64>,
    /// Subtree minima of the internal nodes `1..m`, kept the same way as
    /// `max` (index 0 unused); a leaf's is its `max` entry.
    min: Vec<i64>,
    /// Pending range adds of the internal nodes `1..m`, applied to the
    /// whole subtree (index 0 unused).
    lazy: Vec<i64>,
}

impl FreeProfile {
    /// An all-free profile over `num_servers` servers with the live window
    /// starting at `now`.
    pub fn new(slot_cfg: SlotConfig, num_servers: u32, now: Time) -> FreeProfile {
        let m = slot_cfg.num_slots.next_power_of_two();
        FreeProfile {
            slot_cfg,
            num_servers,
            m,
            base: slot_cfg.slot_of(now).0,
            max: vec![0; 2 * m],
            min: vec![0; m],
            lazy: vec![0; m],
        }
    }

    /// First live slot.
    pub fn base_slot(&self) -> SlotIdx {
        SlotIdx(self.base)
    }

    /// Rotate the window forward to contain `now`: expired slots are zeroed
    /// so their leaves can host the new horizon-edge slots (which are empty
    /// by construction — nothing can have been committed there yet).
    pub fn advance_to(&mut self, now: Time) {
        let target = self.slot_cfg.slot_of(now).0;
        if target <= self.base {
            return;
        }
        let advanced = target - self.base;
        PROFILE_SLOTS_ROTATED.add(advanced as u64);
        if advanced >= self.m as i64 {
            // The whole window expired; nothing to carry over.
            self.base = target;
            self.max.fill(0);
            self.min.fill(0);
            self.lazy.fill(0);
            return;
        }
        for q in self.base..target {
            let pos = q.rem_euclid(self.m as i64) as usize;
            let v = self.point_value(pos);
            if v != 0 {
                self.add_leaves(pos, pos + 1, -v);
            }
        }
        self.base = target;
    }

    /// Charge `servers` reservations of `[start, end)` into the profile
    /// (call once per grant with the number of servers granted, or per
    /// reservation with `1` — the sums are identical).
    pub fn add(&mut self, start: Time, end: Time, servers: u32) {
        self.apply(start, end, servers as i64);
    }

    /// Withdraw `servers` reservations of `[start, end)`. Clamping makes
    /// this exact for *any* committed reservation, including ones whose
    /// covered slots have partially or fully expired (those leaves were
    /// zeroed by [`FreeProfile::advance_to`], and the clamp skips them).
    pub fn remove(&mut self, start: Time, end: Time, servers: u32) {
        self.apply(start, end, -(servers as i64));
    }

    fn apply(&mut self, start: Time, end: Time, delta: i64) {
        if delta == 0 {
            return;
        }
        let tau = self.slot_cfg.tau.secs();
        // Inward rounding: only slots fully inside [start, end) count.
        let q_first = start.secs().div_euclid(tau) + i64::from(start.secs().rem_euclid(tau) != 0);
        let q_end = end.secs().div_euclid(tau); // exclusive
        let lo = q_first.max(self.base);
        let hi = q_end.min(self.base + self.m as i64);
        if lo >= hi {
            return;
        }
        PROFILE_UPDATES.inc();
        let pos = lo.rem_euclid(self.m as i64) as usize;
        let len = (hi - lo) as usize;
        if pos + len <= self.m {
            self.add_leaves(pos, pos + len, delta);
        } else {
            self.add_leaves(pos, self.m, delta);
            self.add_leaves(0, pos + len - self.m, delta);
        }
    }

    /// Upper bound on the number of servers free throughout `[start, end)`.
    /// Slots outside the live window contribute no information (the window
    /// is clamped), so the bound is sound for any in-horizon request window.
    pub fn free_upper_bound(&self, start: Time, end: Time) -> u32 {
        let Some((lo, hi)) = self.clamped_slots(start, end) else {
            return self.num_servers;
        };
        let busy = self.range_max(lo, hi + 1);
        self.num_servers - (busy.min(self.num_servers as i64).max(0) as u32)
    }

    /// The earliest attempt index `k` in `[k_from, k_limit)` whose window
    /// `[earliest + k*step, earliest + k*step + duration)` the profile
    /// cannot reject — i.e. every intersecting live slot leaves at least
    /// `servers` servers possibly free. Returns `None` when every remaining
    /// attempt is provably infeasible.
    ///
    /// Every index skipped over is provably failing. The search finds the
    /// *rightmost* blocking slot `b` of the current window and then the
    /// first live slot `f > b` at or below the threshold: any start before
    /// `b`'s end still intersects `b` (the window only shifts right), and
    /// any start in `[slot_end(b), slot_start(f))` lies inside a slot above
    /// the threshold. Without such an `f` the walk jumps past the live
    /// window, where a window has no information. A booked band is so
    /// crossed in two descents, and each iteration moves past a strictly
    /// later blocker, bounding the walk by the window slot count.
    pub fn next_allowed(
        &self,
        earliest: Time,
        step: Dur,
        duration: Dur,
        servers: u32,
        k_from: u64,
        k_limit: u64,
    ) -> Option<u64> {
        debug_assert!(step.secs() > 0 && duration.secs() > 0);
        let thresh = self.num_servers.saturating_sub(servers) as i64;
        let live_end = self.base + self.m as i64;
        let mut k = k_from;
        while k < k_limit {
            let start = earliest + step * (k as i64);
            let end = start + duration;
            let Some((lo, hi)) = self.clamped_slots(start, end) else {
                // No live slot intersects the window — no information, so
                // the attempt cannot be rejected from here.
                return Some(k);
            };
            let Some(blocker) = self.rightmost_above(lo, hi + 1, thresh) else {
                return Some(k);
            };
            // Jump to the first attempt starting at or after the first slot
            // past the blocker with room (see the doc comment).
            let free = self
                .leftmost_at_most(blocker + 1, live_end, thresh)
                .unwrap_or(live_end);
            let min_start = free * self.slot_cfg.tau.secs();
            let delta = min_start - earliest.secs();
            let k_next = if delta <= 0 {
                k + 1
            } else {
                (delta + step.secs() - 1).div_euclid(step.secs()) as u64
            };
            k = k_next.max(k + 1);
        }
        None
    }

    /// The busy count stored for slot `q` (test/diagnostic helper).
    pub fn busy_in_slot(&self, q: SlotIdx) -> u32 {
        if q.0 < self.base || q.0 >= self.base + self.m as i64 {
            return 0;
        }
        let pos = q.0.rem_euclid(self.m as i64) as usize;
        self.point_value(pos).max(0) as u32
    }

    /// Recompute every internal node's subtree minimum and maximum from its
    /// children and its own pending add (test helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        for node in 1..self.m {
            let (l, r) = (2 * node, 2 * node + 1);
            let max = self.lazy[node] + self.max[l].max(self.max[r]);
            let min = self.lazy[node] + self.node_min(l).min(self.node_min(r));
            assert!(
                self.max[node] == max && self.min[node] == min,
                "node {node}"
            );
        }
    }

    /// Subtree minimum of `node`, own pending add included: a leaf's is its
    /// count.
    #[inline]
    fn node_min(&self, node: usize) -> i64 {
        if node < self.m {
            self.min[node]
        } else {
            self.max[node]
        }
    }

    /// Cross-check every live slot's count against a brute-force recount of
    /// the given reservations (test helper; expensive).
    #[doc(hidden)]
    pub fn check_against<I: Iterator<Item = (Time, Time)> + Clone>(&self, reservations: I) {
        let tau = self.slot_cfg.tau.secs();
        for q in self.base..self.base + self.slot_cfg.num_slots as i64 {
            let (s, e) = (q * tau, (q + 1) * tau);
            let expect = reservations
                .clone()
                .filter(|&(rs, re)| rs.secs() <= s && re.secs() >= e)
                .count() as u32;
            assert_eq!(
                self.busy_in_slot(SlotIdx(q)),
                expect,
                "profile count diverges at slot {q}"
            );
        }
    }

    /// Inclusive clamped range of live slots intersecting `[start, end)`, as
    /// absolute indices; `None` if no live slot intersects.
    #[inline]
    fn clamped_slots(&self, start: Time, end: Time) -> Option<(i64, i64)> {
        if end <= start {
            return None;
        }
        let tau = self.slot_cfg.tau.secs();
        let lo = start.secs().div_euclid(tau).max(self.base);
        let hi = (end.secs() - 1)
            .div_euclid(tau)
            .min(self.base + self.m as i64 - 1);
        (lo <= hi).then_some((lo, hi))
    }

    /// Range add over leaf positions `[l, r)` (already wrapped).
    fn add_leaves(&mut self, l: usize, r: usize, v: i64) {
        self.add_rec(1, 0, self.m, l, r, v);
    }

    fn add_rec(&mut self, node: usize, nl: usize, nr: usize, l: usize, r: usize, v: i64) {
        if r <= nl || nr <= l {
            return;
        }
        if l <= nl && nr <= r {
            self.max[node] += v;
            if node < self.m {
                self.lazy[node] += v;
                self.min[node] += v;
            }
            return;
        }
        let mid = (nl + nr) / 2;
        let (lc, rc) = (2 * node, 2 * node + 1);
        self.add_rec(lc, nl, mid, l, r, v);
        self.add_rec(rc, mid, nr, l, r, v);
        self.max[node] = self.lazy[node] + self.max[lc].max(self.max[rc]);
        self.min[node] = self.lazy[node] + self.node_min(lc).min(self.node_min(rc));
    }

    /// Maximum over the absolute slot range `[lo, hi)` (live slots only).
    fn range_max(&self, lo: i64, hi: i64) -> i64 {
        let pos = lo.rem_euclid(self.m as i64) as usize;
        let len = (hi - lo) as usize;
        if pos + len <= self.m {
            self.max_rec(1, 0, self.m, pos, pos + len, 0)
        } else {
            self.max_rec(1, 0, self.m, pos, self.m, 0).max(self.max_rec(
                1,
                0,
                self.m,
                0,
                pos + len - self.m,
                0,
            ))
        }
    }

    fn max_rec(&self, node: usize, nl: usize, nr: usize, l: usize, r: usize, acc: i64) -> i64 {
        if r <= nl || nr <= l {
            return i64::MIN;
        }
        if l <= nl && nr <= r {
            return self.max[node] + acc;
        }
        let mid = (nl + nr) / 2;
        let acc = acc + self.lazy[node];
        self.max_rec(2 * node, nl, mid, l, r, acc).max(self.max_rec(
            2 * node + 1,
            mid,
            nr,
            l,
            r,
            acc,
        ))
    }

    /// The *largest absolute* slot in `[lo, hi)` (inclusive-exclusive, live)
    /// whose count exceeds `thresh`, or `None`.
    fn rightmost_above(&self, lo: i64, hi: i64, thresh: i64) -> Option<i64> {
        count_descent();
        let pos = lo.rem_euclid(self.m as i64) as usize;
        let len = (hi - lo) as usize;
        if pos + len <= self.m {
            self.rightmost_rec(1, 0, self.m, pos, pos + len, thresh, 0)
                .map(|p| lo + (p - pos) as i64)
        } else {
            let wrap = pos + len - self.m;
            // The wrapped tail holds the *later* absolute slots — search it
            // first so the returned blocker is the rightmost in time.
            self.rightmost_rec(1, 0, self.m, 0, wrap, thresh, 0)
                .map(|p| hi - (wrap - p) as i64)
                .or_else(|| {
                    self.rightmost_rec(1, 0, self.m, pos, self.m, thresh, 0)
                        .map(|p| lo + (p - pos) as i64)
                })
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn rightmost_rec(
        &self,
        node: usize,
        nl: usize,
        nr: usize,
        l: usize,
        r: usize,
        thresh: i64,
        acc: i64,
    ) -> Option<usize> {
        if r <= nl || nr <= l || self.max[node] + acc <= thresh {
            return None;
        }
        if nr - nl == 1 {
            return Some(nl);
        }
        let mid = (nl + nr) / 2;
        let acc = acc + self.lazy[node];
        self.rightmost_rec(2 * node + 1, mid, nr, l, r, thresh, acc)
            .or_else(|| self.rightmost_rec(2 * node, nl, mid, l, r, thresh, acc))
    }

    /// The *smallest absolute* slot in `[lo, hi)` (live) whose count is at
    /// most `thresh`, or `None`.
    fn leftmost_at_most(&self, lo: i64, hi: i64, thresh: i64) -> Option<i64> {
        if lo >= hi {
            return None;
        }
        count_descent();
        let pos = lo.rem_euclid(self.m as i64) as usize;
        let len = (hi - lo) as usize;
        if pos + len <= self.m {
            self.leftmost_rec(1, 0, self.m, pos, pos + len, thresh, 0)
                .map(|p| lo + (p - pos) as i64)
        } else {
            let wrap = pos + len - self.m;
            // The leaves from `pos` on hold the *earlier* absolute slots —
            // search them first so the returned slot is the leftmost in time.
            self.leftmost_rec(1, 0, self.m, pos, self.m, thresh, 0)
                .map(|p| lo + (p - pos) as i64)
                .or_else(|| {
                    self.leftmost_rec(1, 0, self.m, 0, wrap, thresh, 0)
                        .map(|p| hi - (wrap - p) as i64)
                })
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn leftmost_rec(
        &self,
        node: usize,
        nl: usize,
        nr: usize,
        l: usize,
        r: usize,
        thresh: i64,
        acc: i64,
    ) -> Option<usize> {
        if r <= nl || nr <= l || self.node_min(node) + acc > thresh {
            return None;
        }
        if nr - nl == 1 {
            return Some(nl);
        }
        let mid = (nl + nr) / 2;
        let acc = acc + self.lazy[node];
        self.leftmost_rec(2 * node, nl, mid, l, r, thresh, acc)
            .or_else(|| self.leftmost_rec(2 * node + 1, mid, nr, l, r, thresh, acc))
    }

    /// Value at leaf `pos`: the leaf's own adds plus every ancestor's lazy.
    fn point_value(&self, pos: usize) -> i64 {
        let mut acc = 0;
        let mut node = 1usize;
        let (mut nl, mut nr) = (0usize, self.m);
        while nr - nl > 1 {
            acc += self.lazy[node];
            let mid = (nl + nr) / 2;
            if pos < mid {
                node *= 2;
                nr = mid;
            } else {
                node = 2 * node + 1;
                nl = mid;
            }
        }
        self.max[node] + acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(tau: i64, horizon: i64) -> SlotConfig {
        SlotConfig::new(Dur(tau), Dur(horizon))
    }

    /// Brute-force twin: per-slot covering counts over an explicit window.
    struct Naive {
        tau: i64,
        num_slots: usize,
        base: i64,
        live: Vec<(Time, Time, u32)>,
    }

    impl Naive {
        fn busy(&self, q: i64) -> i64 {
            if q < self.base || q >= self.base + self.num_slots as i64 {
                return 0;
            }
            let (s, e) = (q * self.tau, (q + 1) * self.tau);
            self.live
                .iter()
                .filter(|&&(rs, re, _)| rs.secs() <= s && re.secs() >= e)
                .map(|&(_, _, n)| n as i64)
                .sum()
        }
    }

    #[test]
    fn counts_match_brute_force_under_churn() {
        let sc = cfg(10, 100);
        let mut p = FreeProfile::new(sc, 8, Time::ZERO);
        let mut naive = Naive {
            tau: 10,
            num_slots: sc.num_slots,
            base: 0,
            live: Vec::new(),
        };
        // Deterministic mixed add/remove/advance churn.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = 0i64;
        for _ in 0..400 {
            match step() % 4 {
                0 | 1 => {
                    // Commits never extend past the horizon (the scheduler
                    // rejects those with HorizonExceeded before add is
                    // called), so keep the window inside the live range.
                    let window_end = (now.div_euclid(10) + 10) * 10;
                    let s = now + (step() as i64).rem_euclid((window_end - now).max(1));
                    let d = 1 + (step() as i64).rem_euclid((window_end - s).max(1));
                    let n = 1 + (step() % 3) as u32;
                    p.add(Time(s), Time(s + d), n);
                    naive.live.push((Time(s), Time(s + d), n));
                }
                2 => {
                    if !naive.live.is_empty() {
                        let i = (step() as usize) % naive.live.len();
                        let (s, e, n) = naive.live.swap_remove(i);
                        p.remove(s, e, n);
                    }
                }
                _ => {
                    now += (step() % 35) as i64;
                    p.advance_to(Time(now));
                    naive.base = now.div_euclid(10);
                    // Mirror the live-window clamp: contributions to expired
                    // slots are gone, but the naive twin recomputes from the
                    // full reservation list, so drop fully expired ones the
                    // same way release clamping would.
                }
            }
            for q in naive.base..naive.base + naive.num_slots as i64 {
                assert_eq!(p.busy_in_slot(SlotIdx(q)) as i64, naive.busy(q), "slot {q}");
            }
            p.check_invariants();
        }
    }

    #[test]
    fn inward_rounding_only_counts_fully_covered_slots() {
        let sc = cfg(10, 100);
        let mut p = FreeProfile::new(sc, 4, Time::ZERO);
        // [5, 25) fully covers slot 1 only.
        p.add(Time(5), Time(25), 1);
        assert_eq!(p.busy_in_slot(SlotIdx(0)), 0);
        assert_eq!(p.busy_in_slot(SlotIdx(1)), 1);
        assert_eq!(p.busy_in_slot(SlotIdx(2)), 0);
        // A sub-slot reservation covers nothing.
        p.add(Time(31), Time(39), 1);
        assert_eq!(p.busy_in_slot(SlotIdx(3)), 0);
        // Exact slot alignment covers exactly its slots.
        p.add(Time(40), Time(60), 2);
        assert_eq!(p.busy_in_slot(SlotIdx(4)), 2);
        assert_eq!(p.busy_in_slot(SlotIdx(5)), 2);
        assert_eq!(p.busy_in_slot(SlotIdx(6)), 0);
    }

    #[test]
    fn free_upper_bound_is_window_minimum() {
        let sc = cfg(10, 100);
        let mut p = FreeProfile::new(sc, 4, Time::ZERO);
        assert_eq!(p.free_upper_bound(Time(0), Time(50)), 4);
        p.add(Time(0), Time(30), 3);
        assert_eq!(p.free_upper_bound(Time(0), Time(10)), 1);
        assert_eq!(p.free_upper_bound(Time(25), Time(45)), 1); // intersects slot 2
        assert_eq!(p.free_upper_bound(Time(30), Time(50)), 4);
        p.add(Time(40), Time(50), 4);
        assert_eq!(p.free_upper_bound(Time(35), Time(35)), 4); // empty window: no info
        assert_eq!(p.free_upper_bound(Time(39), Time(41)), 0);
    }

    /// The linear oracle of `next_allowed`: the first index in
    /// `[k_from, k_limit)` whose window `free_upper_bound` leaves room in.
    fn linear_next_allowed(
        p: &FreeProfile,
        earliest: Time,
        step: Dur,
        dur: Dur,
        n: u32,
        k_from: u64,
        k_limit: u64,
    ) -> Option<u64> {
        (k_from..k_limit).find(|&k| {
            let s = earliest + step * (k as i64);
            p.free_upper_bound(s, s + dur) >= n
        })
    }

    #[test]
    fn next_allowed_jumps_past_blockers_and_matches_linear_scan() {
        let sc = cfg(10, 200);
        let mut p = FreeProfile::new(sc, 2, Time::ZERO);
        p.add(Time(0), Time(90), 2); // both servers busy through slot 8
        p.add(Time(120), Time(160), 1); // one busy over slots 12..16
        for n in 1u32..=2 {
            for dur in [10i64, 30, 50] {
                for k_from in 0u64..4 {
                    let limit = 15u64;
                    let expect =
                        linear_next_allowed(&p, Time::ZERO, Dur(10), Dur(dur), n, k_from, limit);
                    let got = p.next_allowed(Time::ZERO, Dur(10), Dur(dur), n, k_from, limit);
                    assert_eq!(got, expect, "n={n} dur={dur} k_from={k_from}");
                }
            }
        }
    }

    #[test]
    fn next_allowed_matches_linear_scan_under_churn() {
        // Horizon = m (no empty tail past the horizon, so a booked band can
        // run to the end of the live leaves) and horizon < m.
        for horizon in [160i64, 120] {
            let sc = cfg(10, horizon);
            const N: u32 = 4;
            let mut p = FreeProfile::new(sc, N, Time::ZERO);
            let mut live: Vec<(Time, Time, u32)> = Vec::new();
            let mut x = 0x2545F4914F6CDD1Du64 ^ horizon as u64;
            let mut rnd = move |bound: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % bound
            };
            let mut now = 0i64;
            let mut wrapped = 0;
            for _ in 0..1500 {
                match rnd(8) {
                    // Mostly adds, so that bands fill up to `N`.
                    0..=3 => {
                        let end = (now.div_euclid(10) * 10) + horizon;
                        let s = now + rnd((end - now) as u64) as i64;
                        let e = s + 1 + rnd((end - s) as u64) as i64;
                        // Half of them book every server, building walls.
                        let n = if rnd(2) == 0 {
                            N
                        } else {
                            1 + rnd(N as u64) as u32
                        };
                        p.add(Time(s), Time(e), n);
                        live.push((Time(s), Time(e), n));
                    }
                    4 | 5 => {
                        if !live.is_empty() {
                            let (s, e, n) = live.swap_remove(rnd(live.len() as u64) as usize);
                            p.remove(s, e, n);
                        }
                    }
                    // Rotations of up to a whole window and then some, so the
                    // base leaves leaf 0 and the searched leaf ranges wrap.
                    _ => {
                        now += rnd(200) as i64;
                        p.advance_to(Time(now));
                    }
                }
                p.check_invariants();
                if p.base.rem_euclid(p.m as i64) != 0 {
                    wrapped += 1;
                }
                for _ in 0..6 {
                    let earliest = Time(now - 30 + rnd(horizon as u64 + 60) as i64);
                    let step = Dur([10, 7, 25][rnd(3) as usize]);
                    let dur = Dur(1 + rnd(60) as i64);
                    let n = [1, N, 1 + rnd(N as u64) as u32][rnd(3) as usize];
                    let k_from = rnd(6);
                    // Up to 40 steps of at least 7 s: often past the window.
                    let k_limit = k_from + rnd(40);
                    let got = p.next_allowed(earliest, step, dur, n, k_from, k_limit);
                    let want = linear_next_allowed(&p, earliest, step, dur, n, k_from, k_limit);
                    assert_eq!(
                        got, want,
                        "base {} earliest {earliest:?} step {step:?} dur {dur:?} n {n} k {k_from}..{k_limit}",
                        p.base
                    );
                }
            }
            assert!(wrapped > 100, "the churn must rotate the base off leaf 0");
        }
    }

    #[test]
    fn a_doomed_ladder_on_a_booked_wall_costs_two_descents() {
        // 64 servers, 72 h horizon, tau = Delta_t = 15 min, every server
        // booked over [0, 48 h) by twelve 64-wide 4 h fillers.
        const SLOT: i64 = 900;
        const HOUR: i64 = 3600;
        let sched = crate::scheduler::SchedulerConfig {
            tau: Dur(SLOT),
            horizon: Dur(72 * HOUR),
            delta_t: Dur(SLOT),
            ..Default::default()
        };
        let mut p = FreeProfile::new(sched.slot_config(), 64, Time::ZERO);
        for i in 0..12 {
            p.add(Time(i * 4 * HOUR), Time((i + 1) * 4 * HOUR), 64);
        }
        // Every attempt of the ladder (`R_max + 1` = 145 starts from 0)
        // ends inside the wall. A max descent per window length took
        // ceil(145 / l_r), 5 to 19 of them.
        let tries = sched.effective_r_max() as u64 + 1;
        for l in 8..=32 {
            for n in 1..=64 {
                let dur = Dur(l * SLOT);
                let before = DESCENTS.with(|d| d.get());
                let got = p.next_allowed(Time::ZERO, Dur(SLOT), dur, n, 0, tries);
                let descents = DESCENTS.with(|d| d.get()) - before;
                assert_eq!(got, None, "l_r = {l} slots, n_r = {n}");
                assert!(descents <= 2, "l_r = {l}, n_r = {n}: {descents} descents");
            }
        }
    }

    #[test]
    fn rotation_reuses_leaves_for_new_edge_slots() {
        let sc = cfg(10, 40); // 4 slots, m = 4: rotation wraps quickly
        let mut p = FreeProfile::new(sc, 2, Time::ZERO);
        p.add(Time(0), Time(40), 2);
        assert_eq!(p.free_upper_bound(Time(0), Time(40)), 0);
        p.advance_to(Time(25)); // slots 0, 1 expire; 4, 5 open
        assert_eq!(p.busy_in_slot(SlotIdx(2)), 2);
        assert_eq!(p.busy_in_slot(SlotIdx(4)), 0);
        assert_eq!(p.busy_in_slot(SlotIdx(5)), 0);
        // Removing the original reservation clamps to the live window and
        // leaves everything at zero.
        p.remove(Time(0), Time(40), 2);
        for q in 2..6 {
            assert_eq!(p.busy_in_slot(SlotIdx(q)), 0, "slot {q}");
        }
        // A far advance resets wholesale.
        p.add(Time(30), Time(60), 1);
        p.advance_to(Time(500));
        for q in 50..54 {
            assert_eq!(p.busy_in_slot(SlotIdx(q)), 0, "slot {q}");
        }
    }

    #[test]
    fn snapshot_style_rebuild_is_leaf_identical() {
        let sc = cfg(10, 100);
        let mut live = FreeProfile::new(sc, 4, Time::ZERO);
        let mut committed: Vec<(Time, Time)> = Vec::new();
        for (s, d) in [(0i64, 45i64), (20, 30), (60, 80), (135, 20)] {
            live.add(Time(s), Time(s + d), 1);
            committed.push((Time(s), Time(s + d)));
        }
        live.advance_to(Time(57));
        live.remove(Time(20), Time(50), 1); // release after rotation
        committed.retain(|&(s, _)| s != Time(20));
        // Rebuild the way snapshot restore does: a fresh profile at `now`,
        // re-add the busy set.
        let mut rebuilt = FreeProfile::new(sc, 4, Time(57));
        for &(s, e) in &committed {
            rebuilt.add(s, e, 1);
        }
        for q in 5..15 {
            assert_eq!(
                live.busy_in_slot(SlotIdx(q)),
                rebuilt.busy_in_slot(SlotIdx(q)),
                "slot {q}"
            );
        }
        live.check_against(committed.iter().copied());
    }
}
