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
//! [`CoAllocScheduler::range_search`] is the read-only query: every range's
//! feasible set, in server order, each hit naming a server and the idle
//! period that covers the window. [`CoAllocScheduler::reserve`] is the
//! second half of the handshake, addressed the same way — by server and
//! window, nothing an index mints — and revalidated, so a stale pick
//! (another user got there first) fails with
//! [`ScheduleError::SelectionConflict`] instead of corrupting the schedule.
//! Both work the same at every number of server ranges.

use crate::error::ScheduleError;
use crate::ids::ServerId;
use crate::ladder::Placement;
use crate::request::{Request, RequestError};
use crate::scheduler::{CoAllocScheduler, Grant};
use crate::time::{Dur, Time};
use obs::{obs_span, LazyCounter};

static RANGE_SEARCHES: LazyCounter = LazyCounter::new("range_searches_total");
static RANGE_COUNTS: LazyCounter = LazyCounter::new("range_counts_total");

/// One hit of a range search: a server with an idle period that covers the
/// whole queried window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Availability {
    /// The free server (pass it to [`CoAllocScheduler::reserve`]).
    pub server: ServerId,
    /// Start of the idle period covering the window.
    pub idle_start: Time,
    /// End of that idle period ([`Time::INF`] for the server's open-ended
    /// tail).
    pub idle_end: Time,
    /// How much slack is left after the window, `et_i - t_b` (clipped to the
    /// horizon for open-ended periods). Applications commonly maximize or
    /// minimize this during post-processing.
    pub tail_slack: Dur,
}

impl CoAllocScheduler {
    /// The window a search over `[start, end)` walks: the start clamped to
    /// the clock, or `None` when nothing can be free — the window is
    /// degenerate, leaves the live horizon, or the capacity profile refutes
    /// it (a zero free upper bound proves the exact feasible set empty, so
    /// the tree walk can be skipped).
    fn live_window(&self, start: Time, end: Time) -> Option<(Time, Time)> {
        let (start, horizon) = (start.max(self.now()), self.horizon_end());
        let live = end > start && start < horizon && end <= horizon;
        (live && self.profile.free_upper_bound(start, end) > 0).then_some((start, end))
    }

    /// Find **all** resources available for the whole window `[start, end)`,
    /// without modifying any state (beyond operation counters).
    ///
    /// Returns one [`Availability`] per feasible idle period: range by
    /// range in server order, each range's in the order its two-phase
    /// search discovers them (open-ended periods, then latest-starting
    /// candidates first). Returns an empty vector when the window is
    /// degenerate or starts outside the live horizon.
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
    /// let grant = sched
    ///     .reserve(&[free[0].server], Time::from_hours(1), Time::from_hours(2))
    ///     .unwrap();
    /// assert_eq!(grant.servers, [free[0].server]);
    /// ```
    pub fn range_search(&mut self, start: Time, end: Time) -> Vec<Availability> {
        RANGE_SEARCHES.inc();
        let Some((start, end)) = self.live_window(start, end) else {
            return Vec::new();
        };
        let mut span =
            obs_span!("sched.range_search", "start_s" => start.secs(), "end_s" => end.secs());
        let mut hits = Vec::new();
        let (parts, stats) = self.parts_mut();
        for part in parts {
            part.enumerate(start, end, &mut hits, stats);
        }
        if span.active() {
            span.record("hits", hits.len());
        }
        let horizon = self.horizon_end();
        hits.into_iter()
            .map(|p| Availability {
                server: p.server,
                idle_start: p.start,
                idle_end: p.end,
                tail_slack: p.end.min(horizon) - end,
            })
            .collect()
    }

    /// Count the resources available for `[start, end)` without enumerating
    /// them (subtree-size counting only — cheaper than
    /// [`Self::range_search`] when only the count matters).
    pub fn range_count(&mut self, start: Time, end: Time) -> usize {
        RANGE_COUNTS.inc();
        let Some((start, end)) = self.live_window(start, end) else {
            return 0;
        };
        let (parts, stats) = self.parts_mut();
        let mut count = 0;
        for part in parts {
            let candidates = part.phase1(start, stats);
            count += part.count_feasible(candidates, end, stats);
        }
        count
    }

    /// Commit a user's post-processed selection: reserve `[start, end)` on
    /// exactly `servers`.
    ///
    /// Every server must be distinct and still idle over the whole window;
    /// otherwise nothing is committed on any range and
    /// [`ScheduleError::SelectionConflict`] is returned — so any interleaved
    /// allocation that took part of the window on a selected server is
    /// detected.
    pub fn reserve(
        &mut self,
        servers: &[ServerId],
        start: Time,
        end: Time,
    ) -> Result<Grant, ScheduleError> {
        if servers.is_empty() {
            return Err(ScheduleError::InvalidRequest(RequestError::ZeroServers));
        }
        if end <= start {
            return Err(ScheduleError::InvalidRequest(
                RequestError::NonPositiveDuration,
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
        let mut sorted = servers.to_vec();
        sorted.sort_unstable();
        let distinct = sorted.windows(2).all(|w| w[0] != w[1]);
        if !distinct || !servers.iter().all(|&s| self.is_idle(s, start, end)) {
            return Err(ScheduleError::SelectionConflict);
        }
        let at = Placement {
            start,
            end,
            attempts: 1,
            waiting: Dur::ZERO,
        };
        Ok(self.commit(at, servers.to_vec()))
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
        let before = s.timeline().idle_periods(ServerId(0));
        let _ = s.range_search(Time(0), Time(50));
        let _ = s.range_count(Time(0), Time(50));
        assert_eq!(s.timeline().idle_periods(ServerId(0)), before);
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
        let pick: Vec<_> = hits.iter().take(2).map(|h| h.server).collect();
        let grant = s.reserve(&pick, Time(10), Time(30)).unwrap();
        assert_eq!(grant.servers, pick);
        assert_eq!(grant.start, Time(10));
        s.check_consistency();
        // The window is now taken on those servers.
        assert_eq!(s.range_search(Time(10), Time(30)).len(), 2);
    }

    #[test]
    fn stale_selection_is_rejected_atomically() {
        let mut s = sched(2);
        let hits = s.range_search(Time(10), Time(30));
        let pick: Vec<_> = hits.iter().map(|h| h.server).collect();
        // Another user books one of the servers in between.
        s.submit(&Request::advance(Time::ZERO, Time(15), Dur(10), 2))
            .unwrap();
        let err = s.reserve(&pick, Time(10), Time(30)).unwrap_err();
        assert_eq!(err, ScheduleError::SelectionConflict);
        // Nothing was committed for the failed selection.
        s.check_consistency();
    }

    #[test]
    fn duplicate_or_unknown_server_selection_rejected() {
        let mut s = sched(2);
        let server = s.range_search(Time(10), Time(30))[0].server;
        for pick in [[server, server], [server, ServerId(2)]] {
            let err = s.reserve(&pick, Time(10), Time(30)).unwrap_err();
            assert_eq!(err, ScheduleError::SelectionConflict, "{pick:?}");
        }
        s.check_consistency();
    }

    #[test]
    fn reserve_validation_errors() {
        let mut s = sched(2);
        let server = s.range_search(Time(10), Time(30))[0].server;
        assert!(matches!(
            s.reserve(&[], Time(10), Time(30)),
            Err(ScheduleError::InvalidRequest(_))
        ));
        assert!(matches!(
            s.reserve(&[server], Time(30), Time(10)),
            Err(ScheduleError::InvalidRequest(_))
        ));
        assert!(matches!(
            s.reserve(&[server], Time(10), Time(500)),
            Err(ScheduleError::HorizonExceeded { .. })
        ));
        s.advance_to(Time(50));
        assert!(matches!(
            s.reserve(&[server], Time(10), Time(30)),
            Err(ScheduleError::StartInPast { .. })
        ));
    }

    /// A selection spanning two ranges whose second range conflicts is
    /// refused before any range changes: the first range keeps its window.
    #[test]
    fn conflict_on_a_later_range_leaves_the_earlier_untouched() {
        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(100))
            .delta_t(Dur(10))
            .build();
        let mut s = CoAllocScheduler::with_ranges(4, 2, cfg);
        // Server 3 (second range) is busy over [20, 40).
        s.reserve(&[ServerId(3)], Time(20), Time(40)).unwrap();
        let before = s.range_search(Time(10), Time(30));
        let snapshot = s.snapshot();
        let err = s
            .reserve(&[ServerId(0), ServerId(1), ServerId(3)], Time(10), Time(30))
            .unwrap_err();
        assert_eq!(err, ScheduleError::SelectionConflict);
        s.check_consistency();
        assert_eq!(s.range_search(Time(10), Time(30)), before);
        assert_eq!(s.snapshot(), snapshot);
        // Without the conflicting server the same pick spans both ranges.
        let grant = s
            .reserve(&[ServerId(2), ServerId(0)], Time(10), Time(30))
            .unwrap();
        assert_eq!(grant.servers, [ServerId(2), ServerId(0)]);
        s.check_consistency();
    }

    #[test]
    fn range_search_request_uses_paper_convention() {
        let mut s = sched(3);
        let req = Request::advance(Time::ZERO, Time(20), Dur(30), 1);
        let hits = s.range_search_request(&req);
        assert_eq!(hits.len(), 3);
    }
}
