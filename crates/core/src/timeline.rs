//! Ground-truth per-server schedule.
//!
//! The slotted trees of [`crate::ring`] are a *search index*; the
//! [`Timeline`] is the authoritative record of every server's idle periods
//! and committed reservations ("the set of commitments that the system has
//! made", Section 2). Every mutation returns the exact set of idle periods
//! created and destroyed so the caller can mirror the change into the slot
//! trees.

use crate::idhash::IdMap;
use crate::idle::IdlePeriod;
use crate::ids::{JobId, PeriodId, ServerId};
use crate::time::Time;
use std::collections::BTreeMap;

/// A committed reservation of one server for `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// The job this reservation belongs to.
    pub job: JobId,
    /// The reserved server.
    pub server: ServerId,
    /// Start of the reserved window.
    pub start: Time,
    /// End (exclusive) of the reserved window.
    pub end: Time,
}

/// The idle-period delta produced by a timeline mutation: mirror `removed`
/// out of, and `added` into, the slot trees.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeriodDelta {
    /// Periods that no longer exist.
    pub removed: Vec<IdlePeriod>,
    /// Periods that now exist.
    pub added: Vec<IdlePeriod>,
}

#[derive(Clone, Debug, Default)]
struct ServerTimeline {
    /// Idle periods keyed by start time. Non-overlapping; the last one is
    /// always open-ended (`end == Time::INF`).
    idle: BTreeMap<Time, PeriodId>,
    /// Reservations keyed by start time. Non-overlapping.
    busy: BTreeMap<Time, (Time, JobId)>,
}

/// The authoritative schedule for `N` servers.
#[derive(Clone, Debug)]
pub struct Timeline {
    servers: Vec<ServerTimeline>,
    periods: IdMap<PeriodId, IdlePeriod>,
    next_period: u64,
    /// Busy server-seconds already pruned from `busy` maps (for utilization
    /// accounting over long runs).
    pruned_busy_secs: i64,
}

impl Timeline {
    /// Create a timeline where every server is idle from `origin` onwards.
    pub fn new(num_servers: u32, origin: Time) -> Timeline {
        let mut tl = Timeline {
            servers: vec![ServerTimeline::default(); num_servers as usize],
            periods: IdMap::default(),
            next_period: 0,
            pruned_busy_secs: 0,
        };
        for s in 0..num_servers {
            let id = tl.fresh_period_id();
            let period = IdlePeriod {
                id,
                server: ServerId(s),
                start: origin,
                end: Time::INF,
            };
            tl.periods.insert(id, period);
            tl.servers[s as usize].idle.insert(origin, id);
        }
        tl
    }

    /// Rebuild a timeline verbatim from explicit parts (snapshot restore).
    /// The caller has validated the geometry — no overlaps, exactly one
    /// open-ended idle period per server — and numbered the idle periods
    /// `0..idle.len()`; the id counter resumes after them.
    pub(crate) fn from_parts(
        num_servers: u32,
        idle: &[IdlePeriod],
        busy: &[Reservation],
    ) -> Timeline {
        let mut tl = Timeline {
            servers: vec![ServerTimeline::default(); num_servers as usize],
            periods: IdMap::default(),
            next_period: idle.len() as u64,
            pruned_busy_secs: 0,
        };
        for p in idle {
            tl.periods.insert(p.id, *p);
            tl.servers[p.server.0 as usize].idle.insert(p.start, p.id);
        }
        for r in busy {
            tl.servers[r.server.0 as usize]
                .busy
                .insert(r.start, (r.end, r.job));
        }
        tl
    }

    /// Number of servers.
    pub fn num_servers(&self) -> u32 {
        self.servers.len() as u32
    }

    fn fresh_period_id(&mut self) -> PeriodId {
        let id = PeriodId(self.next_period);
        self.next_period += 1;
        id
    }

    /// Look up a period by id.
    pub fn period(&self, id: PeriodId) -> Option<&IdlePeriod> {
        self.periods.get(&id)
    }

    /// All idle periods of one server, in start order (test/debug helper).
    pub fn idle_periods(&self, server: ServerId) -> Vec<IdlePeriod> {
        self.servers[server.0 as usize]
            .idle
            .values()
            .map(|id| self.periods[id])
            .collect()
    }

    /// All reservations of one server, in start order.
    pub fn reservations(&self, server: ServerId) -> Vec<Reservation> {
        self.servers[server.0 as usize]
            .busy
            .iter()
            .map(|(&start, &(end, job))| Reservation {
                job,
                server,
                start,
                end,
            })
            .collect()
    }

    /// The open-ended trailing idle period of a server (always exists).
    pub fn trailing_period(&self, server: ServerId) -> IdlePeriod {
        let (_, id) = self.servers[server.0 as usize]
            .idle
            .iter()
            .next_back()
            .expect("every server has a trailing idle period");
        let p = self.periods[id];
        debug_assert!(p.end.is_inf(), "trailing period must be open-ended");
        p
    }

    /// Is `[start, end)` completely contained in an idle period of `server`?
    /// Returns that period if so.
    pub fn covering_idle(&self, server: ServerId, start: Time, end: Time) -> Option<IdlePeriod> {
        let st = &self.servers[server.0 as usize];
        let (_, id) = st.idle.range(..=start).next_back()?;
        let p = self.periods[id];
        (p.start <= start && p.end >= end).then_some(p)
    }

    /// Commit a reservation of `[start, end)` for `job`, carving it out of
    /// idle period `period_id` (which must cover the window). Returns the
    /// period delta (the covering period removed, zero to two fragments
    /// added).
    ///
    /// This is the update step of Section 4.2: "at most two new idle periods
    /// will be created: `j = (st_i, s_r)` and `k = (e_r, et_i)`".
    pub fn reserve(
        &mut self,
        period_id: PeriodId,
        job: JobId,
        start: Time,
        end: Time,
    ) -> PeriodDelta {
        let mut delta = PeriodDelta::default();
        self.reserve_into(period_id, job, start, end, &mut delta);
        delta
    }

    /// [`Timeline::reserve`] writing into a caller-supplied delta (cleared
    /// first), so the commit path can reuse one pair of vectors for every
    /// reservation instead of allocating per call.
    pub fn reserve_into(
        &mut self,
        period_id: PeriodId,
        job: JobId,
        start: Time,
        end: Time,
        delta: &mut PeriodDelta,
    ) {
        delta.removed.clear();
        delta.added.clear();
        assert!(start < end, "empty reservation window");
        let period = *self
            .periods
            .get(&period_id)
            .expect("reserve: unknown idle period");
        assert!(
            period.start <= start && period.end >= end,
            "reserve: window [{start}, {end}) not covered by period {period:?}"
        );
        let server = period.server;
        let st = &mut self.servers[server.0 as usize];
        st.idle.remove(&period.start);
        self.periods.remove(&period_id);
        st.busy.insert(start, (end, job));
        delta.removed.push(period);
        if period.start < start {
            let id = self.fresh_period_id();
            let frag = IdlePeriod {
                id,
                server,
                start: period.start,
                end: start,
            };
            self.periods.insert(id, frag);
            self.servers[server.0 as usize].idle.insert(frag.start, id);
            delta.added.push(frag);
        }
        if end < period.end {
            let id = self.fresh_period_id();
            let frag = IdlePeriod {
                id,
                server,
                start: end,
                end: period.end,
            };
            self.periods.insert(id, frag);
            self.servers[server.0 as usize].idle.insert(frag.start, id);
            delta.added.push(frag);
        }
    }

    /// Release the reservation of `job` on `server` covering `[start, end)`,
    /// merging the window back into the idle map (coalescing with adjacent
    /// idle periods). Used by cancellation and by the multi-site abort path.
    pub fn release(&mut self, server: ServerId, job: JobId, start: Time, end: Time) -> PeriodDelta {
        let mut delta = PeriodDelta::default();
        self.release_into(server, job, start, end, &mut delta);
        delta
    }

    /// [`Timeline::release`] writing into a caller-supplied delta (cleared
    /// first).
    pub fn release_into(
        &mut self,
        server: ServerId,
        job: JobId,
        start: Time,
        end: Time,
        delta: &mut PeriodDelta,
    ) {
        delta.removed.clear();
        delta.added.clear();
        let st = &mut self.servers[server.0 as usize];
        match st.busy.get(&start) {
            Some(&(e, j)) if e == end && j == job => {
                st.busy.remove(&start);
            }
            _ => panic!("release: no reservation of {job:?} at {start} on {server:?}"),
        }
        let mut merged_start = start;
        let mut merged_end = end;
        // Coalesce with the idle period ending exactly at `start`.
        let left = st
            .idle
            .range(..start)
            .next_back()
            .map(|(&s, &id)| (s, id))
            .filter(|&(_, id)| self.periods[&id].end == start);
        if let Some((s, id)) = left {
            let p = self.periods.remove(&id).unwrap();
            self.servers[server.0 as usize].idle.remove(&s);
            merged_start = p.start;
            delta.removed.push(p);
        }
        // Coalesce with the idle period starting exactly at `end`.
        let right = self.servers[server.0 as usize].idle.get(&end).copied();
        if let Some(id) = right {
            let p = self.periods.remove(&id).unwrap();
            self.servers[server.0 as usize].idle.remove(&end);
            merged_end = p.end;
            delta.removed.push(p);
        }
        let id = self.fresh_period_id();
        let merged = IdlePeriod {
            id,
            server,
            start: merged_start,
            end: merged_end,
        };
        self.periods.insert(id, merged);
        self.servers[server.0 as usize]
            .idle
            .insert(merged_start, id);
        delta.added.push(merged);
    }

    /// Drop a reservation that already ran to completion (its whole window
    /// lies at or before the live slot window) and count its busy seconds
    /// as completed, exactly as [`Timeline::prune_before`] would have. The
    /// idle map is left untouched: dead-history idle periods are
    /// unreferenced and fall to the next prune.
    pub fn retire(&mut self, server: ServerId, job: JobId, start: Time, end: Time) {
        let st = &mut self.servers[server.0 as usize];
        match st.busy.get(&start) {
            Some(&(e, j)) if e == end && j == job => {
                st.busy.remove(&start);
                self.pruned_busy_secs += (end - start).secs();
            }
            _ => panic!("retire: no reservation of {job:?} at {start} on {server:?}"),
        }
    }

    /// Drop idle periods and reservations that ended at or before `t`.
    /// Safe with respect to the slot-tree mirror as long as `t` is at or
    /// before the start of the live slot window. Completed busy seconds are
    /// accumulated for utilization accounting. Each map is sorted by start
    /// and non-overlapping, so its expired entries are a prefix: they are
    /// popped from the front, and the first live one ends the scan.
    pub fn prune_before(&mut self, t: Time) {
        for st in &mut self.servers {
            while let Some(first) = st.idle.first_entry() {
                if self.periods[first.get()].end > t {
                    break;
                }
                self.periods.remove(&first.remove());
            }
            while let Some(first) = st.busy.first_entry() {
                let (start, (end, _)) = (*first.key(), *first.get());
                if end > t {
                    break;
                }
                first.remove();
                self.pruned_busy_secs += (end - start).secs();
            }
        }
    }

    /// Total committed busy server-seconds with start < `until`, including
    /// pruned history. Reservations straddling `until` count only their part
    /// before it.
    pub fn busy_secs_before(&self, until: Time) -> i64 {
        let mut total = self.pruned_busy_secs;
        for st in &self.servers {
            for (&start, &(end, _)) in st.busy.range(..until) {
                total += (end.min(until) - start).secs();
            }
        }
        total
    }

    /// System utilization over `[origin, until)`: committed busy
    /// server-seconds divided by total capacity.
    pub fn utilization(&self, origin: Time, until: Time) -> f64 {
        let span = (until - origin).secs();
        if span <= 0 {
            return 0.0;
        }
        self.busy_secs_before(until) as f64 / (span as f64 * self.servers.len() as f64)
    }

    /// Verify every structural invariant (test helper): idle periods
    /// non-overlapping and sorted, reservations non-overlapping, idle and
    /// busy disjoint, exactly one open-ended trailing idle period per server,
    /// and the period map consistent with the per-server maps.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        for (s, st) in self.servers.iter().enumerate() {
            let server = ServerId(s as u32);
            let mut prev_end: Option<Time> = None;
            let mut inf_count = 0;
            for (&start, id) in &st.idle {
                let p = self
                    .periods
                    .get(id)
                    .expect("idle map points at live period");
                seen += 1;
                assert_eq!(p.server, server, "period on wrong server");
                assert_eq!(p.start, start, "idle map key mismatch");
                assert!(p.start < p.end, "empty idle period {p:?}");
                if let Some(pe) = prev_end {
                    assert!(p.start >= pe, "overlapping idle periods");
                }
                prev_end = Some(p.end);
                if p.end.is_inf() {
                    inf_count += 1;
                }
            }
            assert_eq!(inf_count, 1, "server {server:?} trailing-period count");
            let mut prev_busy_end: Option<Time> = None;
            for (&start, &(end, _)) in &st.busy {
                assert!(start < end, "empty reservation");
                if let Some(pe) = prev_busy_end {
                    assert!(start >= pe, "overlapping reservations");
                }
                prev_busy_end = Some(end);
                // Busy window must not intersect any idle period.
                for (_, id) in st.idle.range(..end) {
                    let p = self.periods[id];
                    assert!(
                        p.end <= start || p.start >= end,
                        "idle period {p:?} overlaps reservation [{start}, {end})"
                    );
                }
            }
        }
        assert_eq!(seen, self.periods.len(), "orphan periods in map");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_timeline_is_fully_idle() {
        let tl = Timeline::new(4, Time::ZERO);
        tl.check_invariants();
        for s in 0..4 {
            let ps = tl.idle_periods(ServerId(s));
            assert_eq!(ps.len(), 1);
            assert_eq!(ps[0].start, Time::ZERO);
            assert!(ps[0].end.is_inf());
        }
        assert_eq!(tl.utilization(Time::ZERO, Time::from_hours(1)), 0.0);
    }

    #[test]
    fn reserve_middle_splits_into_two_fragments() {
        let mut tl = Timeline::new(1, Time::ZERO);
        let p = tl.trailing_period(ServerId(0));
        let delta = tl.reserve(p.id, JobId(1), Time(10), Time(20));
        tl.check_invariants();
        assert_eq!(delta.removed.len(), 1);
        assert_eq!(delta.added.len(), 2);
        assert_eq!(delta.added[0].start, Time::ZERO);
        assert_eq!(delta.added[0].end, Time(10));
        assert_eq!(delta.added[1].start, Time(20));
        assert!(delta.added[1].end.is_inf());
        assert_eq!(tl.idle_periods(ServerId(0)).len(), 2);
    }

    #[test]
    fn reserve_flush_left_creates_one_fragment() {
        let mut tl = Timeline::new(1, Time::ZERO);
        let p = tl.trailing_period(ServerId(0));
        let delta = tl.reserve(p.id, JobId(1), Time::ZERO, Time(20));
        tl.check_invariants();
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.added[0].start, Time(20));
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn reserve_outside_period_panics() {
        let mut tl = Timeline::new(1, Time::ZERO);
        let p = tl.trailing_period(ServerId(0));
        let d = tl.reserve(p.id, JobId(1), Time(10), Time(20));
        // The left fragment [0, 10) cannot host [5, 15).
        let left = d.added[0];
        tl.reserve(left.id, JobId(2), Time(5), Time(15));
    }

    #[test]
    fn release_merges_both_neighbors() {
        let mut tl = Timeline::new(1, Time::ZERO);
        let p = tl.trailing_period(ServerId(0));
        tl.reserve(p.id, JobId(1), Time(10), Time(20));
        tl.check_invariants();
        let delta = tl.release(ServerId(0), JobId(1), Time(10), Time(20));
        tl.check_invariants();
        // Both fragments are consumed; one open-ended period remains.
        assert_eq!(delta.removed.len(), 2);
        assert_eq!(delta.added.len(), 1);
        let merged = delta.added[0];
        assert_eq!(merged.start, Time::ZERO);
        assert!(merged.end.is_inf());
        assert_eq!(tl.idle_periods(ServerId(0)).len(), 1);
    }

    #[test]
    fn release_between_two_reservations_merges_nothing() {
        let mut tl = Timeline::new(1, Time::ZERO);
        let p = tl.trailing_period(ServerId(0));
        let d1 = tl.reserve(p.id, JobId(1), Time(10), Time(20));
        let mid = d1.added[1]; // [20, inf)
        let d2 = tl.reserve(mid.id, JobId(2), Time(20), Time(30));
        let tail = d2.added[0]; // [30, inf)
        let d3 = tl.reserve(tail.id, JobId(3), Time(30), Time(40));
        assert!(d3.added.len() == 1);
        tl.check_invariants();
        // Release the middle job: its window has reservations on both sides,
        // so no coalescing happens.
        let delta = tl.release(ServerId(0), JobId(2), Time(20), Time(30));
        tl.check_invariants();
        assert!(delta.removed.is_empty());
        assert_eq!(delta.added.len(), 1);
        assert_eq!(delta.added[0].start, Time(20));
        assert_eq!(delta.added[0].end, Time(30));
    }

    #[test]
    fn covering_idle_finds_the_right_period() {
        let mut tl = Timeline::new(1, Time::ZERO);
        let p = tl.trailing_period(ServerId(0));
        tl.reserve(p.id, JobId(1), Time(10), Time(20));
        assert!(tl.covering_idle(ServerId(0), Time(0), Time(10)).is_some());
        assert!(tl.covering_idle(ServerId(0), Time(5), Time(11)).is_none());
        let trailing = tl.covering_idle(ServerId(0), Time(25), Time(1000)).unwrap();
        assert_eq!(trailing.start, Time(20));
    }

    #[test]
    fn utilization_counts_committed_work() {
        let mut tl = Timeline::new(2, Time::ZERO);
        let p = tl.trailing_period(ServerId(0));
        tl.reserve(p.id, JobId(1), Time::ZERO, Time(50));
        // One of two servers busy for half the window [0, 100).
        assert!((tl.utilization(Time::ZERO, Time(100)) - 0.25).abs() < 1e-9);
        // A reservation straddling `until` counts partially.
        let p1 = tl.trailing_period(ServerId(1));
        tl.reserve(p1.id, JobId(2), Time(80), Time(200));
        let u = tl.utilization(Time::ZERO, Time(100));
        assert!((u - (50.0 + 20.0) / 200.0).abs() < 1e-9);
    }

    #[test]
    fn prune_preserves_utilization_accounting() {
        let mut tl = Timeline::new(1, Time::ZERO);
        let p = tl.trailing_period(ServerId(0));
        let d = tl.reserve(p.id, JobId(1), Time::ZERO, Time(10));
        let tail = d.added[0];
        tl.reserve(tail.id, JobId(2), Time(50), Time(60));
        let before = tl.busy_secs_before(Time(1000));
        tl.prune_before(Time(20));
        tl.check_invariants_after_prune();
        assert_eq!(tl.busy_secs_before(Time(1000)), before);
        // The finished reservation and the dead idle fragment are gone.
        assert_eq!(tl.reservations(ServerId(0)).len(), 1);
    }

    /// Expired idle periods and reservations on every server, next to live
    /// ones: each goes, and only they do, and the busy seconds add up as
    /// before.
    #[test]
    fn prune_pops_expired_entries_on_every_server() {
        let mut tl = Timeline::new(3, Time::ZERO);
        for s in 0..3u32 {
            let server = ServerId(s);
            // [0, 10) busy, [10, 20) idle, [20, 30) busy, [30, 40) idle,
            // [40, 60 + s) busy: the last one straddles the cut at 50.
            let mut p = tl.trailing_period(server);
            for (job, start, end) in [(0u64, 0i64, 10i64), (1, 20, 30), (2, 40, 60 + s as i64)] {
                let d = tl.reserve(p.id, JobId(job * 3 + s as u64), Time(start), Time(end));
                p = *d.added.last().unwrap();
            }
        }
        tl.check_invariants();
        let before = tl.busy_secs_before(Time(1000));
        tl.prune_before(Time(50));
        tl.check_invariants();
        assert_eq!(tl.busy_secs_before(Time(1000)), before);
        for s in 0..3u32 {
            let server = ServerId(s);
            let left: Vec<(i64, i64)> = tl
                .reservations(server)
                .iter()
                .map(|r| (r.start.0, r.end.0))
                .collect();
            assert_eq!(left, vec![(40, 60 + s as i64)]);
            let idle: Vec<i64> = tl.idle_periods(server).iter().map(|p| p.start.0).collect();
            assert_eq!(
                idle,
                vec![60 + s as i64],
                "only the trailing period is left"
            );
        }
    }

    impl Timeline {
        /// After pruning, the one-trailing-period invariant still holds but
        /// early idle periods may be gone; check the rest.
        fn check_invariants_after_prune(&self) {
            self.check_invariants();
        }
    }
}
