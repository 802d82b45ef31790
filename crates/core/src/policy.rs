//! Selection policies: which `n_r` of the feasible idle periods to allocate.
//!
//! The paper retrieves the first `n_r` feasible periods found when searching
//! the marked subtrees in reverse marking order — i.e. candidates with the
//! *latest* starting times first ([`SelectionPolicy::PaperOrder`]). Raw
//! retrieval order is tree-shape dependent among equal start times, so this
//! crate canonicalises it to the total key *(start desc, server asc, id)*:
//! the same latest-start-first intent, but deterministic regardless of tree
//! shape — and therefore identical between the single scheduler and any
//! sharded partition of the servers. Because the choice shapes future
//! fragmentation, the crate also offers classic best-fit and worst-fit
//! variants as ablations, plus a deterministic order-independent policy used
//! for oracle testing.

use crate::idle::IdlePeriod;
use crate::time::Time;

/// How the scheduler picks `n_r` periods out of the feasible set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Latest starting times first (the paper's behaviour), canonicalised to
    /// the total key *(start desc, server asc, id)* so the selection does not
    /// depend on tree shape or server partitioning.
    #[default]
    PaperOrder,
    /// Minimize leftover tail `et_i - e_r`: keeps large idle periods intact
    /// at the cost of enumerating the whole feasible set.
    BestFit,
    /// Maximize leftover tail: spreads load, fragments large periods.
    WorstFit,
    /// Lowest server id first. Deterministic regardless of tree shape; used
    /// to prove equivalence between the tree-based and naive schedulers.
    ByServerId,
}

impl SelectionPolicy {
    /// Reduce `feasible` (already feasibility-checked) to at most `n`
    /// periods according to the policy. `end` is the job end `e_r`.
    /// `feasible` arrives in the order Phase 2 produced it.
    pub fn select(&self, mut feasible: Vec<IdlePeriod>, n: usize, end: Time) -> Vec<IdlePeriod> {
        self.select_in_place(&mut feasible, n, end);
        feasible
    }

    /// In-place variant of [`SelectionPolicy::select`] for the allocation-free
    /// hot path. Every key is total (the period id breaks ties), so the `n`
    /// best are a well-defined set: they are partitioned to the front in
    /// `O(len)` and only they are sorted — the same `n` periods in the same
    /// order as sorting the whole set and truncating, without the
    /// `O(len log len)` sort of a feasible set that is mostly discarded.
    pub fn select_in_place(&self, feasible: &mut Vec<IdlePeriod>, n: usize, end: Time) {
        match self {
            SelectionPolicy::PaperOrder => {
                top_n_by_key(feasible, n, |p| {
                    (std::cmp::Reverse(p.start), p.server, p.id)
                });
            }
            SelectionPolicy::BestFit => {
                top_n_by_key(feasible, n, |p| (p.end - end, p.server, p.id));
            }
            SelectionPolicy::WorstFit => {
                top_n_by_key(feasible, n, |p| {
                    (std::cmp::Reverse(p.end - end), p.server, p.id)
                });
            }
            SelectionPolicy::ByServerId => {
                top_n_by_key(feasible, n, |p| (p.server, p.id));
            }
        }
    }
}

/// Keep the `n` smallest elements of `v` under the total key `key`, sorted.
fn top_n_by_key<K: Ord>(v: &mut Vec<IdlePeriod>, n: usize, key: impl Fn(&IdlePeriod) -> K + Copy) {
    if n < v.len() {
        v.select_nth_unstable_by_key(n, key);
        v.truncate(n);
    }
    v.sort_unstable_by_key(key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PeriodId, ServerId};

    fn p(id: u64, server: u32, start: i64, end: i64) -> IdlePeriod {
        IdlePeriod {
            id: PeriodId(id),
            server: ServerId(server),
            start: Time(start),
            end: Time(end),
        }
    }

    fn sample() -> Vec<IdlePeriod> {
        vec![
            p(1, 3, 0, 50),
            p(2, 1, 5, 30),
            p(3, 2, 2, 90),
            p(4, 0, 1, 40),
        ]
    }

    #[test]
    fn paper_order_takes_latest_starts_first() {
        // Starts: id1→0, id2→5, id3→2, id4→1; latest two are ids 2 and 3.
        let sel = SelectionPolicy::PaperOrder.select(sample(), 2, Time(20));
        assert_eq!(sel.iter().map(|x| x.id.0).collect::<Vec<_>>(), vec![2, 3]);
        // Order independence: reversing the input changes nothing.
        let mut shuffled = sample();
        shuffled.reverse();
        let again = SelectionPolicy::PaperOrder.select(shuffled, 2, Time(20));
        assert_eq!(sel, again);
    }

    #[test]
    fn best_fit_minimizes_tail() {
        let sel = SelectionPolicy::BestFit.select(sample(), 2, Time(20));
        // Tails: 30, 10, 70, 20 → picks ends 30 (id 2) then 40 (id 4).
        assert_eq!(sel.iter().map(|x| x.id.0).collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn worst_fit_maximizes_tail() {
        let sel = SelectionPolicy::WorstFit.select(sample(), 2, Time(20));
        assert_eq!(sel.iter().map(|x| x.id.0).collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn by_server_id_is_order_independent() {
        let mut shuffled = sample();
        shuffled.reverse();
        let a = SelectionPolicy::ByServerId.select(sample(), 3, Time(20));
        let b = SelectionPolicy::ByServerId.select(shuffled, 3, Time(20));
        assert_eq!(a, b);
        assert_eq!(a[0].server, ServerId(0));
    }

    #[test]
    fn selecting_more_than_available_returns_all() {
        let sel = SelectionPolicy::BestFit.select(sample(), 10, Time(20));
        assert_eq!(sel.len(), 4);
    }
}
