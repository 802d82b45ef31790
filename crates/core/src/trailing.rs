//! Global index of *open-ended trailing* idle periods.
//!
//! Every server's schedule ends with an idle period that extends to the
//! (moving) horizon — `[st, INF)`. Storing these physically in every slot
//! tree would make each reservation cost `O(Q log^2 N)` just to move one
//! trailing period, and would contradict the paper's claim that discarding
//! an expired slot tree and creating the new horizon-edge tree "take O(1)
//! time" (Section 4.1): a brand-new edge tree can only be O(1) if the
//! trailing periods that overlap it are represented *virtually*.
//!
//! This module is that virtual representation: one order-statistic
//! [`BlockSet`] (the ordered set the slot trees' secondaries use) over all
//! trailing periods, keyed by descending starting time. A trailing
//! period is a Phase-1 candidate iff `st <= s_r` and — since `et = INF` — it
//! is then automatically Phase-2 feasible for any window, so a single
//! `O(log N)` count/collect replaces the per-slot search, and moving a
//! trailing period on commit costs `O(log N)` instead of `O(Q log^2 N)`.
//! Finite idle periods (bounded by reservations on both sides) continue to
//! live in the slotted 2-dimensional trees.

use crate::blockset::{BlockArena, BlockSet};
use crate::idle::{IdlePeriod, StartKey};
use crate::ids::PeriodId;
use crate::stats::OpStats;
use crate::time::Time;

/// The set of open-ended trailing idle periods, one per server.
#[derive(Clone, Debug)]
pub struct TrailingSet {
    arena: BlockArena<StartKey>,
    /// The set's block-layout seed.
    seed: u64,
    set: BlockSet,
}

impl TrailingSet {
    /// An empty set; `seed` fixes the block layout.
    pub fn new(seed: u64) -> TrailingSet {
        TrailingSet {
            arena: BlockArena::new(),
            seed: seed ^ 0x7A11,
            set: BlockSet::new(),
        }
    }

    /// A set over `periods`, all open-ended, built in one pass over their
    /// sorted keys; the same set as inserting them one by one. Every
    /// initial set is built this way: a fresh index's and an installed
    /// image's.
    pub fn from_periods(seed: u64, periods: &[IdlePeriod], ops: &mut OpStats) -> TrailingSet {
        debug_assert!(periods.iter().all(|p| p.end.is_inf()), "open periods only");
        let mut keys: Vec<StartKey> = periods.iter().map(IdlePeriod::start_key).collect();
        keys.sort_unstable();
        ops.periods_inserted += keys.len() as u64;
        let mut ts = TrailingSet::new(seed);
        ts.set = BlockSet::from_sorted(&mut ts.arena, ts.seed, &keys, ops);
        ts
    }

    /// Number of trailing periods (equals the server count in a consistent
    /// scheduler).
    pub fn len(&self) -> usize {
        self.set.len(&self.arena)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Index a trailing period. Panics (debug) on finite periods.
    pub fn insert(&mut self, p: &IdlePeriod, ops: &mut OpStats) {
        debug_assert!(p.end.is_inf(), "trailing set only holds open periods");
        ops.periods_inserted += 1;
        self.set
            .insert(&mut self.arena, self.seed, p.start_key(), ops);
    }

    /// Remove a trailing period; returns whether it was present.
    pub fn remove(&mut self, p: &IdlePeriod, ops: &mut OpStats) -> bool {
        debug_assert!(p.end.is_inf(), "trailing set only holds open periods");
        let removed = self
            .set
            .remove(&mut self.arena, self.seed, p.start_key(), ops);
        if removed {
            ops.periods_removed += 1;
        }
        removed
    }

    fn floor(start: Time) -> StartKey {
        StartKey {
            start,
            id: PeriodId(0),
        }
    }

    /// Count the trailing periods with `st <= start` — all of them are
    /// feasible for any window beginning at `start`. `O(log N)`.
    pub fn count_candidates(&self, start: Time, ops: &mut OpStats) -> usize {
        self.set.count_ge(&self.arena, Self::floor(start), ops)
    }

    /// Append candidate period ids into `out`, latest starting times first
    /// (the paper's reverse-marking retrieval order), until `need` of them
    /// are ids `counts` accepts and every candidate starting when the last
    /// of those does is in — the whole tie group, which the set orders by
    /// period id but a selection by server. Returns the start of the first
    /// candidate left out, if the walk stopped early: every candidate
    /// starting after it is in `out`, none starting at or before it is.
    pub fn collect_candidates(
        &self,
        start: Time,
        need: usize,
        counts: impl FnMut(PeriodId) -> bool,
        out: &mut Vec<PeriodId>,
        ops: &mut OpStats,
    ) -> Option<Time> {
        self.set
            .collect_top(&self.arena, Self::floor(start), need, counts, out, ops)
            .map(|k| k.start)
    }

    /// All stored keys (test helper), in descending start order.
    pub fn keys_in_order(&self) -> Vec<StartKey> {
        self.set.keys_in_order(&self.arena)
    }

    /// Validate the set's layout (test helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.set.check_invariants(&self.arena, self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;

    fn p(id: u64, server: u32, start: i64) -> IdlePeriod {
        IdlePeriod {
            id: PeriodId(id),
            server: ServerId(server),
            start: Time(start),
            end: Time::INF,
        }
    }

    #[test]
    fn counts_candidates_by_start() {
        let mut ts = TrailingSet::new(1);
        let mut ops = OpStats::new();
        for (i, s) in [(1u64, 4i64), (2, 16), (3, 7), (4, 1)] {
            ts.insert(&p(i, i as u32, s), &mut ops);
        }
        ts.check_invariants();
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.count_candidates(Time(17), &mut ops), 4);
        assert_eq!(ts.count_candidates(Time(5), &mut ops), 2);
        assert_eq!(ts.count_candidates(Time(0), &mut ops), 0);
    }

    #[test]
    fn collects_latest_starts_first() {
        let mut ts = TrailingSet::new(1);
        let mut ops = OpStats::new();
        for (i, s) in [(1u64, 4i64), (2, 16), (3, 7), (4, 1)] {
            ts.insert(&p(i, i as u32, s), &mut ops);
        }
        let mut out = Vec::new();
        let cut = ts.collect_candidates(Time(10), 2, |_| true, &mut out, &mut ops);
        assert_eq!(out, vec![PeriodId(3), PeriodId(1)]); // starts 7, then 4
        assert_eq!(cut, Some(Time(1)));
        out.clear();
        let cut = ts.collect_candidates(Time(10), 3, |_| true, &mut out, &mut ops);
        assert_eq!((out.len(), cut), (3, None));
    }

    #[test]
    fn bulk_build_equals_inserts() {
        let periods: Vec<IdlePeriod> = (0..300u64)
            .map(|i| p(i, i as u32, (i * 37 % 101) as i64))
            .collect();
        let (mut ops, mut one_by_one) = (OpStats::new(), TrailingSet::new(5));
        for q in &periods {
            one_by_one.insert(q, &mut ops);
        }
        let bulk = TrailingSet::from_periods(5, &periods, &mut ops);
        bulk.check_invariants();
        assert_eq!(bulk.keys_in_order(), one_by_one.keys_in_order());
        assert_eq!(ops.periods_inserted, 600);
        for start in [0, 50, 100, 200] {
            let want = one_by_one.count_candidates(Time(start), &mut ops);
            assert_eq!(bulk.count_candidates(Time(start), &mut ops), want);
        }
    }

    #[test]
    fn remove_roundtrip() {
        let mut ts = TrailingSet::new(2);
        let mut ops = OpStats::new();
        let a = p(1, 0, 5);
        ts.insert(&a, &mut ops);
        assert!(ts.remove(&a, &mut ops));
        assert!(!ts.remove(&a, &mut ops));
        assert!(ts.is_empty());
    }

    #[test]
    fn update_cost_is_logarithmic_not_q_dependent() {
        let mut ts = TrailingSet::new(3);
        let mut ops = OpStats::new();
        for i in 0..1024u64 {
            ts.insert(&p(i, i as u32, i as i64), &mut ops);
        }
        let before = ops.update_visits;
        ts.remove(&p(512, 512, 512), &mut ops);
        ts.insert(&p(2000, 512, 700), &mut ops);
        let cost = ops.update_visits - before;
        assert!(cost < 200, "trailing move cost {cost} should be O(log N)");
    }
}
