//! Operation accounting.
//!
//! The paper's Figure 7(b) reports "the average number of computational
//! operations performed by the scheduling algorithm to schedule a request".
//! Every tree-node visit and structural update in this crate increments a
//! counter in [`OpStats`], so experiments can reproduce that metric without
//! relying on wall-clock noise.

/// Counters for the data-structure work performed by a scheduler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Nodes visited while descending primary trees (Phase 1).
    pub primary_visits: u64,
    /// Phase-2 search work: one per block of a secondary tree or of the
    /// trailing set touched (a count's descent, a walk's every block), and
    /// one per leaf of a small marked subtree that has no secondary and is
    /// scanned instead.
    pub secondary_visits: u64,
    /// Update work: one per primary-tree node on an update's path, one per
    /// ordered-set block touched (descended, split, joined, built, or read
    /// to rebuild a secondary), and one per leaf of a small subtree whose
    /// end keys a secondary rebuild scans.
    pub update_visits: u64,
    /// The primary-tree part of `update_visits`: one per node on an
    /// update's path. The rest is ordered-set upkeep.
    pub update_path_visits: u64,
    /// Number of Phase-1 invocations.
    pub phase1_searches: u64,
    /// Number of Phase-2 invocations.
    pub phase2_searches: u64,
    /// Scheduling attempts (one per candidate start time tried).
    pub attempts: u64,
    /// Retry attempts skipped because a shifted start provably pushed the
    /// job end past the horizon (or deadline) — the short-circuit avoids
    /// running searches that cannot succeed — or because the capacity
    /// profile rejected the window (`attempts_jumped` breaks out that
    /// subset).
    pub attempts_skipped: u64,
    /// Retry attempts skipped specifically because the free-capacity
    /// profile proved the window infeasible (the jump optimization; a
    /// subset of `attempts_skipped`).
    pub attempts_jumped: u64,
    /// Partial rebuilds triggered by the weight-balance rule.
    pub rebuilds: u64,
    /// Idle periods inserted into slot trees (one count per tree copy
    /// touched, i.e. the physical write amplification).
    pub periods_inserted: u64,
    /// Idle periods removed from slot trees (per tree copy touched).
    pub periods_removed: u64,
    /// Finite idle periods handed to the slot ring (one count per period,
    /// however many trees the coverage spreads it over).
    pub ring_period_inserts: u64,
    /// Finite idle periods removed from the slot ring (per period).
    pub ring_period_removes: u64,
    /// Periods the ring evicted when their last covered slot expired.
    pub ring_evictions: u64,
}

impl OpStats {
    /// A zeroed counter set.
    pub fn new() -> OpStats {
        OpStats::default()
    }

    /// Total operations — the quantity plotted in Figure 7(b).
    #[inline]
    pub fn total_ops(&self) -> u64 {
        self.primary_visits + self.secondary_visits + self.update_visits
    }

    /// Search-only operations (excludes structural maintenance).
    #[inline]
    pub fn search_ops(&self) -> u64 {
        self.primary_visits + self.secondary_visits
    }

    /// Element-wise sum `self += delta`: how the scheduler charges the
    /// work a pooled stage's threads counted into its own counters.
    pub fn accumulate(&mut self, delta: &OpStats) {
        self.primary_visits += delta.primary_visits;
        self.secondary_visits += delta.secondary_visits;
        self.update_visits += delta.update_visits;
        self.update_path_visits += delta.update_path_visits;
        self.phase1_searches += delta.phase1_searches;
        self.phase2_searches += delta.phase2_searches;
        self.attempts += delta.attempts;
        self.attempts_skipped += delta.attempts_skipped;
        self.attempts_jumped += delta.attempts_jumped;
        self.rebuilds += delta.rebuilds;
        self.periods_inserted += delta.periods_inserted;
        self.periods_removed += delta.periods_removed;
        self.ring_period_inserts += delta.ring_period_inserts;
        self.ring_period_removes += delta.ring_period_removes;
        self.ring_evictions += delta.ring_evictions;
    }

    /// Element-wise difference `self - earlier`; useful for measuring the
    /// cost of a single request.
    pub fn since(&self, earlier: &OpStats) -> OpStats {
        OpStats {
            primary_visits: self.primary_visits - earlier.primary_visits,
            secondary_visits: self.secondary_visits - earlier.secondary_visits,
            update_visits: self.update_visits - earlier.update_visits,
            update_path_visits: self.update_path_visits - earlier.update_path_visits,
            phase1_searches: self.phase1_searches - earlier.phase1_searches,
            phase2_searches: self.phase2_searches - earlier.phase2_searches,
            attempts: self.attempts - earlier.attempts,
            attempts_skipped: self.attempts_skipped - earlier.attempts_skipped,
            attempts_jumped: self.attempts_jumped - earlier.attempts_jumped,
            rebuilds: self.rebuilds - earlier.rebuilds,
            periods_inserted: self.periods_inserted - earlier.periods_inserted,
            periods_removed: self.periods_removed - earlier.periods_removed,
            ring_period_inserts: self.ring_period_inserts - earlier.ring_period_inserts,
            ring_period_removes: self.ring_period_removes - earlier.ring_period_removes,
            ring_evictions: self.ring_evictions - earlier.ring_evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_the_visit_counters() {
        let s = OpStats {
            primary_visits: 3,
            secondary_visits: 4,
            update_visits: 5,
            ..OpStats::new()
        };
        assert_eq!(s.total_ops(), 12);
        assert_eq!(s.search_ops(), 7);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = OpStats {
            primary_visits: 10,
            attempts: 2,
            ..OpStats::new()
        };
        let b = OpStats {
            primary_visits: 4,
            attempts: 1,
            ..OpStats::new()
        };
        let d = a.since(&b);
        assert_eq!(d.primary_visits, 6);
        assert_eq!(d.attempts, 1);
        assert_eq!(d.total_ops(), 6);
    }
}
