//! The batch overlay: a batch of submits decided over the ranges as they
//! stood when the batch opened, with every commit deferred to its end.
//!
//! While a batch is open (`CoAllocScheduler::open_batch` …
//! `close_batch`, in a pooled `submit_batch_into`), a grant charges the
//! capacity profile at once, but is only logged per server and queued per
//! range, in a [`CommitBuf`]. Within
//! a batch the clock stands still and members only commit, so every live
//! idle period is a pre-batch one cut down by logged grants: a pre-batch
//! feasible set, repaired against the log, *is* the live one at every
//! start. The driver's `find` filters its hits that way, and adds back the
//! periods its early-stopping Phase 2 left out that a grant moved up (the
//! argument is on `CoAllocScheduler::find`). The ranges then apply their
//! queues in submission order, in parallel, which keeps every range's
//! period ids those of sequential submission (DESIGN.md §9).

use crate::idle::IdlePeriod;
use crate::ids::{JobId, ServerId};
use crate::index::ServerIndex;
use crate::stats::OpStats;
use crate::time::Time;

/// The commits one range owes to the members granted in a batch, in
/// submission order.
#[derive(Clone, Debug, Default)]
pub(crate) struct CommitBuf {
    /// `(job, start, end, number of servers)` per member.
    jobs: Vec<(JobId, Time, Time, u32)>,
    /// The members' (range-owned) servers, concatenated.
    servers: Vec<ServerId>,
}

impl CommitBuf {
    /// Whether no member is queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Apply the queued reservations to their range, in order.
    pub fn apply_to(self, part: &mut ServerIndex, stats: &mut OpStats) {
        let mut from = 0usize;
        for (job, start, end, n) in self.jobs {
            let to = from + n as usize;
            part.commit(job, start, end, &self.servers[from..to], stats);
            from = to;
        }
    }
}

/// The grants of the open batch, if one is open: logged per server — what
/// a pre-batch feasible set is repaired against — and queued per range.
#[derive(Clone, Debug, Default)]
pub(crate) struct BatchGrants {
    /// Whether a batch is open.
    pub open: bool,
    /// Per global server id: index in `log` of its latest grant, or
    /// [`BatchGrants::NONE`].
    head: Vec<u32>,
    /// One entry per (grant, server), chained per server through `prev`.
    log: Vec<LoggedGrant>,
    /// Per range: the commits queued for it.
    commits: Vec<CommitBuf>,
}

#[derive(Clone, Copy, Debug)]
struct LoggedGrant {
    server: u32,
    start: Time,
    end: Time,
    /// The same server's previous entry in the log.
    prev: u32,
}

impl BatchGrants {
    const NONE: u32 = u32::MAX;

    /// Open a batch over `num_servers` servers in `ranges` ranges.
    pub fn open(&mut self, num_servers: u32, ranges: usize) {
        assert!(!self.open, "a batch is already open");
        self.open = true;
        self.reset(num_servers);
        self.commits = vec![CommitBuf::default(); ranges];
    }

    /// Forget the previous batch (touching only the servers it touched).
    fn reset(&mut self, num_servers: u32) {
        for g in self.log.drain(..) {
            self.head[g.server as usize] = Self::NONE;
        }
        self.head.resize(num_servers as usize, Self::NONE);
    }

    /// Log `job`'s window on `server` and queue its commit for `range`,
    /// after the job's earlier servers there.
    pub fn queue(&mut self, job: JobId, start: Time, end: Time, server: ServerId, range: usize) {
        self.push(server, start, end);
        let buf = &mut self.commits[range];
        match buf.jobs.last_mut() {
            Some(last) if last.0 == job => last.3 += 1,
            _ => buf.jobs.push((job, start, end, 1)),
        }
        buf.servers.push(server);
    }

    fn push(&mut self, server: ServerId, start: Time, end: Time) {
        let head = &mut self.head[server.0 as usize];
        self.log.push(LoggedGrant {
            server: server.0,
            start,
            end,
            prev: *head,
        });
        *head = (self.log.len() - 1) as u32;
    }

    /// Close the batch and hand over its per-range commit queues.
    pub fn close(&mut self) -> Vec<CommitBuf> {
        assert!(self.open, "no batch is open");
        self.open = false;
        std::mem::take(&mut self.commits)
    }

    /// Whether a grant of the open batch is logged on `server`.
    pub fn touched(&self, server: ServerId) -> bool {
        self.head[server.0 as usize] != Self::NONE
    }

    /// The grants logged on `server`, latest first.
    fn grants(&self, server: u32) -> impl Iterator<Item = &LoggedGrant> {
        let mut at = self.head[server as usize];
        std::iter::from_fn(move || {
            let g = self.log.get(at as usize)?;
            at = g.prev;
            Some(g)
        })
    }

    /// The servers with a logged grant ending at or before `start`, each
    /// once: the only ones whose idle period around a window starting at
    /// `start` can start later than it did before the batch.
    pub fn moved_up(&self, start: Time) -> impl Iterator<Item = ServerId> + '_ {
        self.log
            .iter()
            .filter(|g| g.prev == Self::NONE)
            .filter(move |g| self.grants(g.server).any(|h| h.end <= start))
            .map(|g| ServerId(g.server))
    }

    /// Bring `p` — an idle period of the pre-batch state that covers
    /// `[start, end)` — up to date with the grants logged on its server.
    ///
    /// Within a batch the clock stands still and members only commit, so
    /// the server's live idle periods are the pre-batch ones minus the
    /// logged windows. If one of those overlaps `[start, end)`, nothing on
    /// the server covers the window any more. Otherwise every logged window
    /// lies wholly left or wholly right of it, and the live period around
    /// the window starts at the latest logged end on the left and ends at
    /// the earliest logged start on the right (a trailing period becomes
    /// finite). Windows logged outside `p` — in another idle period of the
    /// same server — fall outside `[p.start, p.end)` and change nothing.
    /// Returns whether `p` still covers the window.
    pub fn repair(&self, p: &mut IdlePeriod, start: Time, end: Time) -> bool {
        for g in self.grants(p.server.0) {
            if g.start < end && g.end > start {
                return false;
            }
            if g.end <= start {
                p.start = p.start.max(g.end);
            } else {
                p.end = p.end.min(g.start);
            }
        }
        true
    }

    /// [`Self::repair`] every period of a feasible set for `[start, end)`,
    /// dropping the ones a grant took.
    pub fn repair_set(&self, set: &mut Vec<IdlePeriod>, start: Time, end: Time) {
        set.retain_mut(|p| self.repair(p, start, end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PeriodId;
    use crate::request::Request;
    use crate::scheduler::{CoAllocScheduler, SchedulerConfig};
    use crate::time::Dur;

    /// With a batch open, members the driver decides over the pre-batch
    /// ranges get what a scheduler committing every grant at once gives
    /// them. The second member's first start, 0, was taken by the first
    /// member; it wins at 10 on the two periods that grant trimmed, whose
    /// repaired starts (8) beat server 2's (5) in paper order where their
    /// pre-batch starts (0) would not.
    #[test]
    fn driver_over_an_open_batch_equals_committing_at_once() {
        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(100))
            .delta_t(Dur(10))
            .build();
        let mut batched = CoAllocScheduler::with_ranges(3, 2, cfg);
        let mut direct = CoAllocScheduler::with_ranges(3, 2, cfg);
        for s in [&mut batched, &mut direct] {
            s.reserve(&[ServerId(2)], Time(0), Time(5)).unwrap();
        }
        let stream = [
            Request::advance(Time::ZERO, Time::ZERO, Dur(8), 2),
            Request::on_demand(Time::ZERO, Dur(12), 2),
            Request::advance(Time::ZERO, Time(10), Dur(12), 1),
        ];
        batched.open_batch();
        let got: Vec<_> = stream.iter().map(|r| batched.decide(r).0).collect();
        let commits = batched.close_batch();
        let (parts, stats) = batched.parts_mut();
        for (part, buf) in parts.iter_mut().zip(commits) {
            buf.apply_to(part, stats);
        }
        let want: Vec<_> = stream.iter().map(|r| direct.submit(r)).collect();
        assert_eq!(got, want);
        let second = want[1].as_ref().unwrap();
        assert_eq!((second.start, second.attempts), (Time(10), 2));
        assert_eq!(second.servers, [ServerId(0), ServerId(1)]);
        batched.check_consistency();
        assert_eq!(batched.snapshot(), direct.snapshot());
    }

    /// Both rules that keep Phase 2's stop at `n_r` exact over a batch.
    /// Before the batch, servers 1, 2 and 3 are busy until 5, 8 and 6 and
    /// server 0 is idle from 0, so paper order's one period for a window at
    /// 30 is server 2's (start 8), and Phase 2 stops there. The first
    /// member takes `[0, 20)` on server 0, left of that window: for the
    /// second, the live period of server 0 starts at 20 and wins, outside
    /// the pre-batch top `n_r` — only the look-up of the periods a grant
    /// moved up finds it. The third takes server 2 at 30. For the fourth,
    /// server 2's period heads the walk but is gone: only because it does
    /// not count towards `n_r` does the walk go on to server 3's.
    #[test]
    fn phase2_stops_at_n_exactly_over_an_open_batch() {
        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(100))
            .delta_t(Dur(10))
            .build();
        for k in [1, 2] {
            let mut batched = CoAllocScheduler::with_ranges(4, k, cfg);
            let mut direct = CoAllocScheduler::with_ranges(4, k, cfg);
            for s in [&mut batched, &mut direct] {
                for (server, busy) in [(1, 5), (2, 8), (3, 6)] {
                    s.reserve(&[ServerId(server)], Time(0), Time(busy)).unwrap();
                }
            }
            let late = Request::advance(Time::ZERO, Time(30), Dur(10), 1);
            let pre_batch = batched.clone().submit(&late).unwrap();
            assert_eq!(pre_batch.servers, [ServerId(2)]);
            let stream = [Request::on_demand(Time::ZERO, Dur(20), 1), late, late, late];
            batched.open_batch();
            let got: Vec<_> = stream.iter().map(|r| batched.decide(r).0).collect();
            let commits = batched.close_batch();
            let (parts, stats) = batched.parts_mut();
            for (part, buf) in parts.iter_mut().zip(commits) {
                buf.apply_to(part, stats);
            }
            let want: Vec<_> = stream.iter().map(|r| direct.submit(r)).collect();
            assert_eq!(got, want, "k={k}");
            let servers: Vec<_> = want
                .iter()
                .map(|g| g.as_ref().unwrap().servers[0])
                .collect();
            assert_eq!(servers, [0, 0, 2, 3].map(ServerId), "k={k}");
            assert!(want.iter().all(|g| g.as_ref().unwrap().attempts == 1));
            batched.check_consistency();
            assert_eq!(batched.snapshot(), direct.snapshot());
        }
    }

    fn idle(server: u32, start: i64, end: Time) -> IdlePeriod {
        IdlePeriod {
            id: PeriodId(u64::from(server)),
            server: ServerId(server),
            start: Time(start),
            end,
        }
    }

    /// The repair rule, case by case, for a member whose window is
    /// `[40, 60)` and whose pre-batch feasible set holds `[10, 90)` on server 0
    /// and the trailing `[10, inf)` on server 1.
    #[test]
    fn repair_rule_on_hand_built_cases() {
        let (s, e) = (Time(40), Time(60));
        let finite = idle(0, 10, Time(90));
        let trailing = idle(1, 10, Time::INF);
        let repaired = |grants: &[(u32, i64, i64)], mut p: IdlePeriod| {
            let mut g = BatchGrants::default();
            g.reset(3);
            for &(srv, a, b) in grants {
                g.push(ServerId(srv), Time(a), Time(b));
            }
            let covers = g.repair(&mut p, s, e);
            (covers, p.start, p.end)
        };
        // Nothing granted on the server; grants on other servers only.
        assert_eq!(repaired(&[], finite), (true, Time(10), Time(90)));
        assert_eq!(
            repaired(&[(2, 40, 60), (1, 0, 100)], finite),
            (true, Time(10), Time(90))
        );
        // Left of the window, inside the period: the start moves up — also
        // when the grant ends exactly where the window starts.
        assert_eq!(repaired(&[(0, 20, 30)], finite), (true, Time(30), Time(90)));
        assert_eq!(repaired(&[(0, 10, 40)], finite), (true, Time(40), Time(90)));
        // Right of it: the end moves down; a trailing period becomes finite.
        assert_eq!(repaired(&[(0, 60, 70)], finite), (true, Time(10), Time(60)));
        assert_eq!(
            repaired(&[(1, 75, 500)], trailing),
            (true, Time(10), Time(75))
        );
        // Overlapping the window by any amount: the server is gone.
        for grant in [
            (0, 30, 41),
            (0, 59, 70),
            (0, 45, 50),
            (0, 40, 60),
            (0, 10, 90),
        ] {
            assert!(!repaired(&[grant], finite).0, "{grant:?}");
        }
        // On the same server but in another idle period (before 10, or
        // from 90 on): the period is not the one that was carved.
        assert_eq!(
            repaired(&[(0, 0, 10), (0, 90, 120), (0, 200, 300)], finite),
            (true, Time(10), Time(90))
        );
        // Several grants on one server: the nearest on each side decide,
        // in whatever order they were logged; one overlap drops the lot.
        let several = [
            (0, 12, 20),
            (0, 70, 80),
            (0, 25, 35),
            (0, 62, 66),
            (0, 0, 5),
        ];
        assert_eq!(repaired(&several, finite), (true, Time(35), Time(62)));
        let mut reversed = several;
        reversed.reverse();
        assert_eq!(repaired(&reversed, finite), (true, Time(35), Time(62)));
        let mut with_overlap = several.to_vec();
        with_overlap.push((0, 55, 58));
        assert!(!repaired(&with_overlap, finite).0);
    }

    /// `reset` forgets exactly the previous batch.
    #[test]
    fn batch_grants_reset_clears_only_what_was_touched() {
        let mut g = BatchGrants::default();
        g.reset(4);
        g.push(ServerId(2), Time(0), Time(50));
        let mut p = idle(2, 0, Time::INF);
        assert!(!g.repair(&mut p, Time(10), Time(20)));
        g.reset(4);
        assert!(g.log.is_empty() && g.head.iter().all(|&h| h == BatchGrants::NONE));
        assert!(g.repair(&mut p, Time(10), Time(20)));
    }
}
