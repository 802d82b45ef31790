//! Temporal range searches and the query-then-commit flow (Section 4.2,
//! "Range Searches").
//!
//! "A user that is interested in reserving resources within a time window
//! `[t_a, t_b]` may submit a request such that `s_r = t_a`,
//! `l_r = t_b - t_a` and `n_r >= 1`. The scheduler runs a simplified version
//! of the algorithm and returns the set of resources available (if any) in
//! this window, *without updating the tree data structures*. The user may
//! then run an application-specific algorithm to select a subset of these
//! resources [...] and contact the scheduler to commit the resources."
//!
//! [`CoAllocScheduler::range_search`] is the read-only query — its window
//! handling, [`range_search_with`], is shared with every other engine;
//! [`CoAllocScheduler::commit_selection`] is the second half of the
//! handshake, revalidating the selection so that a stale pick (another user
//! got there first) fails with [`ScheduleError::SelectionConflict`] instead
//! of corrupting the schedule.

use crate::error::ScheduleError;
use crate::idle::IdlePeriod;
use crate::ids::PeriodId;
use crate::ladder::Placement;
use crate::profile::FreeProfile;
use crate::request::Request;
use crate::scheduler::{CoAllocScheduler, Grant};
use crate::time::{Dur, Time};
use obs::{obs_span, LazyCounter};

static RANGE_SEARCHES: LazyCounter = LazyCounter::new("range_searches_total");
static RANGE_COUNTS: LazyCounter = LazyCounter::new("range_counts_total");

/// One hit of a range search: an idle period that covers the whole queried
/// window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Availability {
    /// The underlying idle period (pass its `id` to
    /// [`CoAllocScheduler::commit_selection`]).
    pub period: IdlePeriod,
    /// How much slack is left after the window, `et_i - t_b` (clipped to the
    /// horizon for open-ended periods). Applications commonly maximize or
    /// minimize this during post-processing.
    pub tail_slack: Dur,
}

/// The window a search over `[start, end)` walks on a system whose clock
/// reads `now` and whose horizon ends at `horizon`: the start clamped to the
/// clock, or `None` when nothing can be free — the window is degenerate,
/// leaves the live horizon, or `profile` refutes it (a zero free upper bound
/// proves the exact feasible set empty, so the tree walk can be skipped).
fn live_window(
    now: Time,
    horizon: Time,
    profile: &FreeProfile,
    start: Time,
    end: Time,
) -> Option<(Time, Time)> {
    let start = start.max(now);
    let live = end > start && start < horizon && end <= horizon;
    (live && profile.free_upper_bound(start, end) > 0).then_some((start, end))
}

/// The range search of Section 4.2 over any engine: `enumerate` is handed
/// the window to walk (see `live_window`; it is not called when nothing
/// can be free) and appends every idle period feasible for it; the hits come
/// back in that order.
pub fn range_search_with(
    now: Time,
    horizon: Time,
    profile: &FreeProfile,
    start: Time,
    end: Time,
    enumerate: impl FnOnce(Time, Time, &mut Vec<IdlePeriod>),
) -> Vec<Availability> {
    RANGE_SEARCHES.inc();
    let Some((start, end)) = live_window(now, horizon, profile, start, end) else {
        return Vec::new();
    };
    let mut span =
        obs_span!("sched.range_search", "start_s" => start.secs(), "end_s" => end.secs());
    let mut hits = Vec::new();
    enumerate(start, end, &mut hits);
    if span.active() {
        span.record("hits", hits.len());
    }
    hits.into_iter()
        .map(|period| Availability {
            period,
            tail_slack: period.end.min(horizon) - end,
        })
        .collect()
}

impl CoAllocScheduler {
    /// Find **all** resources available for the whole window `[start, end)`,
    /// without modifying any state (beyond operation counters).
    ///
    /// Returns one [`Availability`] per feasible idle period, in the order
    /// the two-phase search discovers them (latest-starting candidates
    /// first). Returns an empty vector when the window is degenerate or
    /// starts outside the live horizon.
    ///
    /// ```
    /// use coalloc_core::prelude::*;
    ///
    /// let mut sched = CoAllocScheduler::new(3, SchedulerConfig::default());
    /// sched.submit(&Request::on_demand(Time::ZERO, Dur::from_hours(2), 1)).unwrap();
    /// // One server is busy for two hours; the other two are free.
    /// let free = sched.range_search(Time::from_hours(1), Time::from_hours(2));
    /// assert_eq!(free.len(), 2);
    /// // Query-then-commit: reserve one of them atomically.
    /// let pick = [free[0].period.id];
    /// let grant = sched
    ///     .commit_selection(&pick, Time::from_hours(1), Time::from_hours(2))
    ///     .unwrap();
    /// assert_eq!(grant.servers.len(), 1);
    /// ```
    pub fn range_search(&mut self, start: Time, end: Time) -> Vec<Availability> {
        let (now, horizon) = (self.now(), self.horizon_end());
        let (profile, index) = self.profile_and_index();
        range_search_with(now, horizon, profile, start, end, |a, b, hits| {
            index.enumerate(a, b, hits)
        })
    }

    /// Count the resources available for `[start, end)` without enumerating
    /// them (subtree-size counting only — cheaper than
    /// [`Self::range_search`] when only the count matters).
    pub fn range_count(&mut self, start: Time, end: Time) -> usize {
        RANGE_COUNTS.inc();
        let (now, horizon) = (self.now(), self.horizon_end());
        let (profile, index) = self.profile_and_index();
        live_window(now, horizon, profile, start, end).map_or(0, |(a, b)| index.count(a, b))
    }

    /// Commit a user's post-processed selection: reserve `[start, end)` on
    /// exactly the idle periods named in `selection`.
    ///
    /// Every period must still exist and still cover the window; otherwise
    /// nothing is committed and [`ScheduleError::SelectionConflict`] is
    /// returned — idle-period ids are never reused, so any interleaved
    /// allocation that touched a selected period is detected.
    pub fn commit_selection(
        &mut self,
        selection: &[PeriodId],
        start: Time,
        end: Time,
    ) -> Result<Grant, ScheduleError> {
        if selection.is_empty() {
            return Err(ScheduleError::InvalidRequest(
                crate::request::RequestError::ZeroServers,
            ));
        }
        if end <= start {
            return Err(ScheduleError::InvalidRequest(
                crate::request::RequestError::NonPositiveDuration,
            ));
        }
        if start < self.now() {
            return Err(ScheduleError::StartInPast { now: self.now() });
        }
        if end > self.horizon_end() {
            return Err(ScheduleError::HorizonExceeded {
                horizon_end: self.horizon_end(),
            });
        }
        let mut servers = Vec::with_capacity(selection.len());
        let mut seen_servers = std::collections::HashSet::new();
        for id in selection {
            let Some(p) = self.timeline().period(*id).copied() else {
                return Err(ScheduleError::SelectionConflict);
            };
            if !p.is_feasible(start, end) || !seen_servers.insert(p.server) {
                return Err(ScheduleError::SelectionConflict);
            }
            servers.push(p.server);
        }
        let at = Placement {
            start,
            end,
            attempts: 1,
            waiting: Dur::ZERO,
        };
        Ok(self.commit(at, servers))
    }

    /// Run a range search shaped like a [`Request`] (the paper's calling
    /// convention: `s_r = t_a`, `l_r = t_b - t_a`).
    pub fn range_search_request(&mut self, req: &Request) -> Vec<Availability> {
        self.range_search(req.earliest_start, req.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use crate::scheduler::SchedulerConfig;
    use crate::time::Dur;

    fn sched(n: u32) -> CoAllocScheduler {
        CoAllocScheduler::new(
            n,
            SchedulerConfig::builder()
                .tau(Dur(10))
                .horizon(Dur(100))
                .delta_t(Dur(10))
                .build(),
        )
    }

    #[test]
    fn range_search_sees_all_free_servers() {
        let mut s = sched(4);
        let hits = s.range_search(Time(20), Time(40));
        assert_eq!(hits.len(), 4);
        for h in &hits {
            // Open-ended periods are clipped to the horizon for slack.
            assert_eq!(h.tail_slack, Dur(60));
        }
        assert_eq!(s.range_count(Time(20), Time(40)), 4);
    }

    #[test]
    fn range_search_excludes_busy_windows() {
        let mut s = sched(2);
        s.submit(&Request::advance(Time::ZERO, Time(20), Dur(30), 1))
            .unwrap();
        assert_eq!(s.range_search(Time(25), Time(45)).len(), 1);
        assert_eq!(s.range_search(Time(50), Time(60)).len(), 2);
        assert_eq!(s.range_count(Time(25), Time(45)), 1);
    }

    #[test]
    fn range_search_is_read_only() {
        let mut s = sched(3);
        let before = s.timeline().idle_periods(crate::ids::ServerId(0));
        let _ = s.range_search(Time(0), Time(50));
        let _ = s.range_count(Time(0), Time(50));
        assert_eq!(s.timeline().idle_periods(crate::ids::ServerId(0)), before);
        s.check_consistency();
    }

    #[test]
    fn degenerate_and_out_of_horizon_windows_return_empty() {
        let mut s = sched(2);
        assert!(s.range_search(Time(30), Time(30)).is_empty());
        assert!(s.range_search(Time(40), Time(20)).is_empty());
        assert!(s.range_search(Time(90), Time(150)).is_empty());
        assert_eq!(s.range_count(Time(90), Time(150)), 0);
    }

    #[test]
    fn query_then_commit_happy_path() {
        let mut s = sched(4);
        let hits = s.range_search(Time(10), Time(30));
        // Application-side post-processing: pick the two with the least
        // slack (all equal here, so just take two).
        let pick: Vec<_> = hits.iter().take(2).map(|h| h.period.id).collect();
        let grant = s.commit_selection(&pick, Time(10), Time(30)).unwrap();
        assert_eq!(grant.servers.len(), 2);
        assert_eq!(grant.start, Time(10));
        s.check_consistency();
        // The window is now taken on those servers.
        assert_eq!(s.range_search(Time(10), Time(30)).len(), 2);
    }

    #[test]
    fn stale_selection_is_rejected_atomically() {
        let mut s = sched(2);
        let hits = s.range_search(Time(10), Time(30));
        let pick: Vec<_> = hits.iter().map(|h| h.period.id).collect();
        // Another user books one of the servers in between.
        s.submit(&Request::advance(Time::ZERO, Time(15), Dur(10), 2))
            .unwrap();
        let err = s.commit_selection(&pick, Time(10), Time(30)).unwrap_err();
        assert_eq!(err, ScheduleError::SelectionConflict);
        // Nothing was committed for the failed selection.
        s.check_consistency();
    }

    #[test]
    fn duplicate_server_selection_rejected() {
        let mut s = sched(2);
        let hits = s.range_search(Time(10), Time(30));
        let id = hits[0].period.id;
        let err = s.commit_selection(&[id, id], Time(10), Time(30)).unwrap_err();
        assert_eq!(err, ScheduleError::SelectionConflict);
    }

    #[test]
    fn commit_validation_errors() {
        let mut s = sched(2);
        let hits = s.range_search(Time(10), Time(30));
        let id = hits[0].period.id;
        assert!(matches!(
            s.commit_selection(&[], Time(10), Time(30)),
            Err(ScheduleError::InvalidRequest(_))
        ));
        assert!(matches!(
            s.commit_selection(&[id], Time(30), Time(10)),
            Err(ScheduleError::InvalidRequest(_))
        ));
        assert!(matches!(
            s.commit_selection(&[id], Time(10), Time(500)),
            Err(ScheduleError::HorizonExceeded { .. })
        ));
        s.advance_to(Time(50));
        assert!(matches!(
            s.commit_selection(&[id], Time(10), Time(30)),
            Err(ScheduleError::StartInPast { .. })
        ));
    }

    #[test]
    fn range_search_request_uses_paper_convention() {
        let mut s = sched(3);
        let req = Request::advance(Time::ZERO, Time(20), Dur(30), 1);
        let hits = s.range_search_request(&req);
        assert_eq!(hits.len(), 3);
    }
}
