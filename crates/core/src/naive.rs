//! The naive sequential co-allocator.
//!
//! "In principle, the required resources may be allocated by sequentially
//! scheduling each resource individually. However, such a solution can be
//! computationally expensive" (Section 1). [`NaiveScheduler`] is that
//! baseline: it keeps only the authoritative [`Timeline`] and, for every
//! scheduling attempt, scans the servers one by one. Its per-attempt cost is
//! `O(N log m)` (`m` = idle periods per server) versus the slotted trees'
//! `O((log N)^2)`.
//!
//! Because it shares the retry loop, selection policies and commit semantics
//! with [`crate::scheduler::CoAllocScheduler`], it doubles as the *oracle*
//! for equivalence testing: with the order-independent `ByServerId` policy,
//! both schedulers must produce identical schedules for identical request
//! streams.

use crate::error::ScheduleError;
use crate::idle::IdlePeriod;
use crate::ids::{JobId, ServerId};

use crate::request::Request;
use crate::scheduler::{Grant, SchedulerConfig};
use crate::stats::OpStats;
use crate::time::Time;
use crate::timeline::{Reservation, Timeline};
use std::collections::HashMap;

/// Sequential linear-scan co-allocator with the same external behaviour as
/// the tree-based scheduler.
#[derive(Clone, Debug)]
pub struct NaiveScheduler {
    cfg: SchedulerConfig,
    now: Time,
    origin: Time,
    timeline: Timeline,
    jobs: HashMap<JobId, Vec<Reservation>>,
    next_job: u64,
    stats: OpStats,
    last_prune: Time,
}

impl NaiveScheduler {
    /// Create a naive scheduler for `num_servers` servers with the clock at
    /// the epoch.
    pub fn new(num_servers: u32, cfg: SchedulerConfig) -> NaiveScheduler {
        NaiveScheduler::starting_at(num_servers, Time::ZERO, cfg)
    }

    /// Create a naive scheduler with the clock at `origin`.
    pub fn starting_at(num_servers: u32, origin: Time, cfg: SchedulerConfig) -> NaiveScheduler {
        assert!(num_servers > 0, "a system needs at least one server");
        NaiveScheduler {
            cfg,
            now: origin,
            origin,
            timeline: Timeline::new(num_servers, origin),
            jobs: HashMap::new(),
            next_job: 0,
            stats: OpStats::new(),
            last_prune: origin,
        }
    }

    /// The scheduler's current clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of servers `N`.
    pub fn num_servers(&self) -> u32 {
        self.timeline.num_servers()
    }

    /// Cumulative operation counters. Scan steps are recorded as
    /// `primary_visits` so totals are comparable with the tree scheduler.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Read-only access to the authoritative timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The (virtual) horizon end: the naive scheduler enforces the same
    /// horizon rule as the tree scheduler so behaviours match.
    pub fn horizon_end(&self) -> Time {
        // Mirror SlotRing: horizon end advances in whole slots.
        let slot_cfg = self.cfg.slot_config();
        let base = slot_cfg.slot_of(self.now);
        slot_cfg.slot_start(crate::time::SlotIdx(base.0 + slot_cfg.num_slots as i64))
    }

    /// System utilization over `[origin, until)`.
    pub fn utilization(&self, until: Time) -> f64 {
        self.timeline.utilization(self.origin, until)
    }

    /// Advance the clock. Mirrors the tree scheduler's amortized history
    /// prune exactly: prune timing is observable (releasing a pruned job
    /// reports `UnknownJob`), so the oracle forgets jobs on the same
    /// cadence — every `PRUNE_EVERY_SLOTS` slot advances, jobs whose
    /// reservations all ended at or before the live window's start.
    /// The timeline keeps its history (there is no memory pressure here),
    /// so utilization accounting is unchanged.
    pub fn advance_to(&mut self, now: Time) {
        if now <= self.now {
            return;
        }
        self.now = now;
        let slot_cfg = self.cfg.slot_config();
        let window_start = slot_cfg.slot_start(slot_cfg.slot_of(now));
        if crate::scheduler::prune_due(self.last_prune, window_start, slot_cfg.tau) {
            self.jobs
                .retain(|_, rs| rs.iter().any(|r| r.end > window_start));
            self.last_prune = window_start;
        }
    }

    /// All feasible idle periods for a job occupying `[start, end)`, by
    /// linear scan over the servers.
    pub fn find_all_feasible(&mut self, start: Time, end: Time) -> Vec<IdlePeriod> {
        let mut out = Vec::new();
        for s in 0..self.timeline.num_servers() {
            self.stats.primary_visits += 1;
            if let Some(p) = self.timeline.covering_idle(ServerId(s), start, end) {
                out.push(p);
            }
        }
        out
    }

    /// Handle a request with the same retry loop as the tree scheduler.
    pub fn submit(&mut self, req: &Request) -> Result<Grant, ScheduleError> {
        req.validate()?;
        if req.servers > self.num_servers() {
            return Err(ScheduleError::TooManyServers {
                requested: req.servers,
                available: self.num_servers(),
            });
        }
        let earliest = req.earliest_start.max(self.now);
        let r_max = self.cfg.effective_r_max();
        let mut attempts = 0u32;
        let mut start = earliest;
        loop {
            let end = start + req.duration;
            if end > self.horizon_end() {
                return Err(ScheduleError::HorizonExceeded {
                    horizon_end: self.horizon_end(),
                });
            }
            attempts += 1;
            self.stats.attempts += 1;
            let feasible = self.find_all_feasible(start, end);
            if feasible.len() >= req.servers as usize {
                let chosen = self.cfg.policy.select(feasible, req.servers as usize, end);
                return Ok(self.commit(&chosen, start, end, attempts, earliest));
            }
            if attempts > r_max {
                return Err(ScheduleError::Exhausted {
                    attempts,
                    last_tried: start,
                });
            }
            start += self.cfg.delta_t;
        }
    }

    fn commit(
        &mut self,
        chosen: &[IdlePeriod],
        start: Time,
        end: Time,
        attempts: u32,
        earliest: Time,
    ) -> Grant {
        let job = JobId(self.next_job);
        self.next_job += 1;
        let mut servers = Vec::with_capacity(chosen.len());
        let mut reservations = Vec::with_capacity(chosen.len());
        for p in chosen {
            self.timeline.reserve(p.id, job, start, end);
            servers.push(p.server);
            reservations.push(Reservation {
                job,
                server: p.server,
                start,
                end,
            });
        }
        self.jobs.insert(job, reservations);
        Grant {
            job,
            start,
            end,
            servers,
            attempts,
            waiting: start.saturating_since(earliest),
        }
    }

    /// Cancel a committed job.
    pub fn release(&mut self, job: JobId) -> Result<(), ScheduleError> {
        let reservations = self
            .jobs
            .remove(&job)
            .ok_or(ScheduleError::UnknownJob(job))?;
        for r in reservations {
            self.timeline.release(r.server, r.job, r.start, r.end);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SelectionPolicy;
    use crate::time::Dur;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(100))
            .delta_t(Dur(10))
            .policy(SelectionPolicy::ByServerId)
            .build()
    }

    #[test]
    fn grants_and_delays_like_the_paper_scheduler() {
        let mut s = NaiveScheduler::new(2, cfg());
        let g1 = s
            .submit(&Request::on_demand(Time::ZERO, Dur(30), 2))
            .unwrap();
        assert_eq!(g1.start, Time::ZERO);
        let g2 = s
            .submit(&Request::on_demand(Time::ZERO, Dur(20), 1))
            .unwrap();
        assert_eq!(g2.start, Time(30));
        assert_eq!(g2.attempts, 4);
        s.timeline.check_invariants();
    }

    #[test]
    fn by_server_id_picks_lowest_ids() {
        let mut s = NaiveScheduler::new(4, cfg());
        let g = s
            .submit(&Request::on_demand(Time::ZERO, Dur(10), 2))
            .unwrap();
        assert_eq!(g.servers, vec![ServerId(0), ServerId(1)]);
    }

    #[test]
    fn ops_scale_linearly_with_servers() {
        let mut small = NaiveScheduler::new(4, cfg());
        let mut large = NaiveScheduler::new(64, cfg());
        small
            .submit(&Request::on_demand(Time::ZERO, Dur(10), 1))
            .unwrap();
        large
            .submit(&Request::on_demand(Time::ZERO, Dur(10), 1))
            .unwrap();
        assert_eq!(small.stats().primary_visits, 4);
        assert_eq!(large.stats().primary_visits, 64);
    }

    #[test]
    fn release_roundtrip() {
        let mut s = NaiveScheduler::new(1, cfg());
        let g = s
            .submit(&Request::on_demand(Time::ZERO, Dur(100), 1))
            .unwrap();
        assert!(s
            .submit(&Request::on_demand(Time::ZERO, Dur(10), 1))
            .is_err());
        s.release(g.job).unwrap();
        assert!(s
            .submit(&Request::on_demand(Time::ZERO, Dur(10), 1))
            .is_ok());
        s.timeline.check_invariants();
    }
}
