//! Processor-availability profile: a step function over future time giving
//! the number of free processors, with earliest-fit queries and range
//! reservations. This is the planning structure behind conservative
//! backfilling (every queued job holds a reservation in the profile) and the
//! profile-based FCFS baseline.

use coalloc_core::prelude::{Dur, Time};
use std::collections::BTreeMap;

/// Far-past sentinel used as the first step key.
const ORIGIN: Time = Time(i64::MIN / 4);

/// A step function `t -> free processors`.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Value holds from its key (inclusive) until the next key (exclusive).
    steps: BTreeMap<Time, i64>,
    capacity: i64,
    /// Step-scan operations (for complexity accounting).
    ops: u64,
}

impl Profile {
    /// A profile with `capacity` processors free forever.
    pub fn new(capacity: u32) -> Profile {
        let mut steps = BTreeMap::new();
        steps.insert(ORIGIN, capacity as i64);
        Profile {
            steps,
            capacity: capacity as i64,
            ops: 0,
        }
    }

    /// Total processors.
    pub fn capacity(&self) -> i64 {
        self.capacity
    }

    /// Step-scan operations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Free processors at instant `t`.
    pub fn free_at(&self, t: Time) -> i64 {
        *self
            .steps
            .range(..=t)
            .next_back()
            .expect("origin step always present")
            .1
    }

    /// Earliest start `s >= after` such that at least `procs` processors are
    /// free throughout `[s, s + dur)`.
    ///
    /// Scans step boundaries; on a violation at boundary `k`, restarts from
    /// the first boundary after `k` with enough free processors, so the scan
    /// advances monotonically.
    pub fn earliest_fit(&mut self, after: Time, dur: Dur, procs: u32) -> Time {
        let procs = procs as i64;
        assert!(procs <= self.capacity, "request exceeds capacity");
        let mut s = after;
        'outer: loop {
            // Check free capacity over [s, s+dur).
            let end = s + dur;
            self.ops += 1;
            if self.free_at(s) < procs {
                // Jump to the next boundary with enough capacity.
                for (&k, &f) in self
                    .steps
                    .range((std::ops::Bound::Excluded(s), std::ops::Bound::Unbounded))
                {
                    self.ops += 1;
                    if f >= procs {
                        s = k;
                        continue 'outer;
                    }
                }
                unreachable!("profile tail always has full capacity");
            }
            for (&k, &f) in self
                .steps
                .range((std::ops::Bound::Excluded(s), std::ops::Bound::Excluded(end)))
            {
                self.ops += 1;
                if f < procs {
                    // Violation at k: restart after k.
                    let mut next = None;
                    for (&k2, &f2) in self
                        .steps
                        .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
                    {
                        self.ops += 1;
                        if f2 >= procs {
                            next = Some(k2);
                            break;
                        }
                    }
                    s = next.expect("profile tail always has full capacity");
                    continue 'outer;
                }
            }
            return s;
        }
    }

    /// Subtract `procs` processors over `[start, end)`. Panics if that would
    /// drive any step negative (callers must only reserve what
    /// [`Self::earliest_fit`] granted).
    pub fn reserve(&mut self, start: Time, end: Time, procs: u32) {
        let procs = procs as i64;
        assert!(start < end, "empty reservation");
        // Ensure boundary keys exist.
        for t in [start, end] {
            let v = self.free_at(t);
            self.steps.entry(t).or_insert(v);
            self.ops += 1;
        }
        for (&k, v) in self.steps.range_mut(start..end) {
            self.ops += 1;
            *v -= procs;
            assert!(*v >= 0, "profile overcommitted at {k:?}");
        }
    }

    /// Add `procs` processors back over `[start, end)` (cancellation).
    pub fn release(&mut self, start: Time, end: Time, procs: u32) {
        let procs = procs as i64;
        for t in [start, end] {
            let v = self.free_at(t);
            self.steps.entry(t).or_insert(v);
        }
        for (_, v) in self.steps.range_mut(start..end) {
            *v += procs;
            assert!(*v <= self.capacity, "released more than reserved");
        }
    }

    /// Drop step boundaries strictly before `t` (the value at `t` is
    /// preserved via the origin step). Keeps long replays memory-bounded.
    pub fn prune_before(&mut self, t: Time) {
        if t <= ORIGIN {
            return;
        }
        let current = self.free_at(t);
        let dead: Vec<Time> = self
            .steps
            .range(..t)
            .map(|(&k, _)| k)
            .filter(|&k| k != ORIGIN)
            .collect();
        for k in dead {
            self.steps.remove(&k);
        }
        self.steps.insert(ORIGIN, current);
        // Merge: if the next step equals the origin value, it is redundant
        // but harmless; leave as-is for simplicity.
    }

    /// Number of step boundaries (diagnostics).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_profile_is_flat() {
        let mut p = Profile::new(8);
        assert_eq!(p.free_at(Time(0)), 8);
        assert_eq!(p.free_at(Time(1 << 40)), 8);
        assert_eq!(p.earliest_fit(Time(5), Dur(100), 8), Time(5));
    }

    #[test]
    fn reserve_carves_capacity() {
        let mut p = Profile::new(8);
        p.reserve(Time(10), Time(20), 5);
        assert_eq!(p.free_at(Time(9)), 8);
        assert_eq!(p.free_at(Time(10)), 3);
        assert_eq!(p.free_at(Time(19)), 3);
        assert_eq!(p.free_at(Time(20)), 8);
    }

    #[test]
    fn earliest_fit_skips_congestion() {
        let mut p = Profile::new(8);
        p.reserve(Time(10), Time(20), 6);
        // 4 procs don't fit while [10,20) is congested → next chance is 20.
        assert_eq!(p.earliest_fit(Time(0), Dur(15), 4), Time(20));
        assert_eq!(p.earliest_fit(Time(5), Dur(15), 4), Time(20));
        // A window ending before the congestion fits immediately.
        assert_eq!(p.earliest_fit(Time(0), Dur(10), 4), Time::ZERO);
        // 2 procs fit inside the congested window.
        assert_eq!(p.earliest_fit(Time(5), Dur(10), 2), Time(5));
    }

    #[test]
    fn earliest_fit_spans_multiple_gaps() {
        let mut p = Profile::new(4);
        p.reserve(Time(0), Time(10), 4);
        p.reserve(Time(15), Time(30), 3);
        // 2 procs for 10s: [10,15) too short, [15,30) only 1 free → 30.
        assert_eq!(p.earliest_fit(Time(0), Dur(10), 2), Time(30));
        // 1 proc for 5s fits at 10.
        assert_eq!(p.earliest_fit(Time(0), Dur(5), 1), Time(10));
    }

    #[test]
    fn fit_starting_mid_congestion() {
        let mut p = Profile::new(4);
        p.reserve(Time(0), Time(100), 4);
        assert_eq!(p.earliest_fit(Time(50), Dur(10), 1), Time(100));
    }

    #[test]
    fn release_restores() {
        let mut p = Profile::new(4);
        p.reserve(Time(10), Time(30), 4);
        p.release(Time(10), Time(30), 4);
        assert_eq!(p.earliest_fit(Time(0), Dur(50), 4), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "overcommitted")]
    fn overcommit_panics() {
        let mut p = Profile::new(4);
        p.reserve(Time(0), Time(10), 3);
        p.reserve(Time(5), Time(15), 3);
    }

    #[test]
    fn prune_keeps_current_value() {
        let mut p = Profile::new(8);
        p.reserve(Time(0), Time(10), 2);
        p.reserve(Time(5), Time(50), 3);
        let before = p.free_at(Time(30));
        p.prune_before(Time(30));
        assert_eq!(p.free_at(Time(30)), before);
        assert_eq!(p.free_at(Time(60)), 8);
        assert!(p.num_steps() <= 3);
    }

    #[test]
    fn ops_counter_increases() {
        let mut p = Profile::new(8);
        let before = p.ops();
        p.reserve(Time(0), Time(10), 2);
        let _ = p.earliest_fit(Time(0), Dur(5), 8);
        assert!(p.ops() > before);
    }
}
