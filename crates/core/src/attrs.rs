//! Attribute-constrained co-allocation.
//!
//! The VCL application (Section 3.1) dispatches resources "customized to a
//! set of specific requirements" — GPU nodes, big-memory nodes, specific OS
//! images. This module adds capability tags to servers and a constrained
//! submission path that co-allocates only among servers carrying all the
//! required tags. It composes with the range-search flow exactly as the
//! paper envisions: the two-phase search over-approximates (Phase-1 counts
//! ignore constraints), and the retrieval step filters — "users may use
//! sophisticated post-processing techniques to optimize the selection of
//! resources based on their requirements".

use crate::range_search::Availability;
use crate::scheduler::CoAllocScheduler;
use crate::time::Time;

/// A set of capability tags, as a 64-bit mask. Applications assign meaning
/// to bits (e.g. bit 0 = GPU, bit 1 = big-mem).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct AttrSet(pub u64);

impl AttrSet {
    /// The empty set (no capabilities).
    pub const NONE: AttrSet = AttrSet(0);

    /// A set with the single tag `bit` (0..64).
    pub fn tag(bit: u32) -> AttrSet {
        assert!(bit < 64, "tag bits range over 0..64");
        AttrSet(1 << bit)
    }

    /// Union of two sets.
    #[must_use]
    pub fn with(self, other: AttrSet) -> AttrSet {
        AttrSet(self.0 | other.0)
    }

    /// Does this set contain every tag in `required`?
    pub fn satisfies(self, required: AttrSet) -> bool {
        self.0 & required.0 == required.0
    }

    /// Number of tags set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether no tags are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl CoAllocScheduler {
    /// Range search restricted to servers satisfying `required`.
    pub fn range_search_constrained(
        &mut self,
        start: Time,
        end: Time,
        required: AttrSet,
    ) -> Vec<Availability> {
        self.range_search(start, end)
            .into_iter()
            .filter(|a| self.server_attrs(a.server).satisfies(required))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    const GPU: AttrSet = AttrSet(0b01);
    const BIGMEM: AttrSet = AttrSet(0b10);

    fn sched() -> CoAllocScheduler {
        let mut s = CoAllocScheduler::new(
            6,
            SchedulerConfig::builder()
                .tau(Dur(10))
                .horizon(Dur(200))
                .delta_t(Dur(10))
                .build(),
        );
        // Servers 0-1: GPU; 2-3: big-mem; 4: both; 5: plain.
        s.set_server_attrs(ServerId(0), GPU);
        s.set_server_attrs(ServerId(1), GPU);
        s.set_server_attrs(ServerId(2), BIGMEM);
        s.set_server_attrs(ServerId(3), BIGMEM);
        s.set_server_attrs(ServerId(4), GPU.with(BIGMEM));
        s
    }

    #[test]
    fn attr_set_algebra() {
        assert!(GPU.with(BIGMEM).satisfies(GPU));
        assert!(GPU.with(BIGMEM).satisfies(BIGMEM));
        assert!(!GPU.satisfies(BIGMEM));
        assert!(GPU.satisfies(AttrSet::NONE));
        assert_eq!(AttrSet::tag(0), GPU);
        assert_eq!(GPU.with(BIGMEM).len(), 2);
        assert!(AttrSet::NONE.is_empty());
    }

    #[test]
    fn constrained_submit_uses_only_qualifying_servers() {
        let mut s = sched();
        let g = s
            .submit_constrained(&Request::on_demand(Time::ZERO, Dur(50), 3), GPU)
            .unwrap();
        let mut servers = g.servers.clone();
        servers.sort();
        assert_eq!(servers, vec![ServerId(0), ServerId(1), ServerId(4)]);
        s.check_consistency();
    }

    #[test]
    fn over_demand_of_a_capability_is_rejected_up_front() {
        let mut s = sched();
        let err = s
            .submit_constrained(&Request::on_demand(Time::ZERO, Dur(10), 4), GPU)
            .unwrap_err();
        assert_eq!(
            err,
            ScheduleError::TooManyServers {
                requested: 4,
                available: 3
            }
        );
    }

    #[test]
    fn constraint_contention_shifts_in_time_not_onto_wrong_servers() {
        let mut s = sched();
        // Take all three GPU servers for [0, 50).
        s.submit_constrained(&Request::on_demand(Time::ZERO, Dur(50), 3), GPU)
            .unwrap();
        // Plain capacity is still free, but a GPU job must wait.
        let g = s
            .submit_constrained(&Request::on_demand(Time::ZERO, Dur(20), 2), GPU)
            .unwrap();
        assert_eq!(g.start, Time(50));
        // Meanwhile an unconstrained job runs immediately on the free pool.
        let g2 = s
            .submit(&Request::on_demand(Time::ZERO, Dur(20), 3))
            .unwrap();
        assert_eq!(g2.start, Time::ZERO);
        s.check_consistency();
    }

    #[test]
    fn multi_tag_requirement_intersects() {
        let mut s = sched();
        let g = s
            .submit_constrained(
                &Request::on_demand(Time::ZERO, Dur(10), 1),
                GPU.with(BIGMEM),
            )
            .unwrap();
        assert_eq!(g.servers, vec![ServerId(4)]);
        // A second both-tags job must queue behind the only qualifying box.
        let g2 = s
            .submit_constrained(
                &Request::on_demand(Time::ZERO, Dur(10), 1),
                GPU.with(BIGMEM),
            )
            .unwrap();
        assert_eq!(g2.start, Time(10));
    }

    #[test]
    fn none_constraint_equals_plain_submit() {
        let mut a = sched();
        let mut b = sched();
        let req = Request::on_demand(Time::ZERO, Dur(30), 4);
        let ga = a.submit_constrained(&req, AttrSet::NONE).unwrap();
        let gb = b.submit(&req).unwrap();
        assert_eq!(ga.start, gb.start);
        assert_eq!(ga.servers.len(), gb.servers.len());
    }

    #[test]
    fn constrained_range_search_filters() {
        let mut s = sched();
        let all = s.range_search(Time(10), Time(30));
        assert_eq!(all.len(), 6);
        let gpus = s.range_search_constrained(Time(10), Time(30), GPU);
        assert_eq!(gpus.len(), 3);
        let both = s.range_search_constrained(Time(10), Time(30), GPU.with(BIGMEM));
        assert_eq!(both.len(), 1);
    }
}
