//! Trace replay through the online co-allocation scheduler, and the common
//! [`Outcome`]/[`RunResult`] record shared by every scheduler under
//! evaluation (online tree-based, naive, and the batch baselines).

use crate::metrics::{spatial_bin_50, GroupedStats, Histogram, StreamingStats};
use coalloc_core::naive::NaiveScheduler;
use coalloc_core::prelude::*;

/// What happened to one request under some scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Submission time `q_r`.
    pub submit: Time,
    /// Earliest start `s_r` (equals `submit` unless this was an advance
    /// reservation).
    pub earliest: Time,
    /// Temporal size `l_r`.
    pub duration: Dur,
    /// Spatial size `n_r`.
    pub servers: u32,
    /// Actual start time; `None` when the scheduler rejected the request.
    pub start: Option<Time>,
    /// Scheduling attempts spent (1 = accepted immediately).
    pub attempts: u32,
    /// Data-structure operations spent on this request.
    pub ops: u64,
}

impl Outcome {
    /// Whether the request was accepted.
    pub fn accepted(&self) -> bool {
        self.start.is_some()
    }

    /// Waiting time `W_r = start - s_r` (None when rejected).
    pub fn waiting(&self) -> Option<Dur> {
        self.start.map(|s| s.saturating_since(self.earliest))
    }

    /// Temporal penalty `P^l_r = W_r / l_r` (None when rejected).
    pub fn temporal_penalty(&self) -> Option<f64> {
        self.waiting()
            .map(|w| w.secs() as f64 / self.duration.secs().max(1) as f64)
    }

    /// Waiting time measured from *submission* (`start - q_r`). For advance
    /// reservations this includes the requested advance offset — the basis
    /// the paper uses in its reservation-mix experiments (the Figure-6 peak
    /// "around 3 hours" is exactly the 0–3 h advance window showing up in
    /// the waiting time).
    pub fn waiting_from_submit(&self) -> Option<Dur> {
        self.start.map(|s| s.saturating_since(self.submit))
    }
}

/// The aggregate result of replaying one workload through one scheduler.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Human-readable scheduler label ("online", "easy-backfill", ...).
    pub label: String,
    /// Per-request outcomes, in submission order.
    pub outcomes: Vec<Outcome>,
    /// System utilization over `[first submit, makespan)`.
    pub utilization: f64,
    /// Completion time of the last reservation.
    pub makespan: Time,
    /// Total data-structure operations across the run.
    pub total_ops: u64,
}

impl RunResult {
    /// Fraction of requests accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.outcomes.iter().filter(|o| o.accepted()).count() as f64 / self.outcomes.len() as f64
    }

    /// Streaming stats over waiting time, in hours (accepted jobs only).
    pub fn waiting_stats_hours(&self) -> StreamingStats {
        let mut s = StreamingStats::new();
        for o in &self.outcomes {
            if let Some(w) = o.waiting() {
                s.push(w.hours());
            }
        }
        s
    }

    /// Waiting-time distribution in hours (Figure 4a / 6).
    pub fn waiting_histogram_hours(&self, bin_hours: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(bin_hours, bins);
        for o in &self.outcomes {
            if let Some(w) = o.waiting() {
                h.push(w.hours());
            }
        }
        h
    }

    /// Streaming stats over submission-based waiting (`start - q_r`), in
    /// hours — the basis of Figures 6 and 7(a).
    pub fn waiting_from_submit_stats_hours(&self) -> StreamingStats {
        let mut s = StreamingStats::new();
        for o in &self.outcomes {
            if let Some(w) = o.waiting_from_submit() {
                s.push(w.hours());
            }
        }
        s
    }

    /// Submission-based waiting-time distribution in hours (Figure 6).
    pub fn waiting_from_submit_histogram_hours(&self, bin_hours: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(bin_hours, bins);
        for o in &self.outcomes {
            if let Some(w) = o.waiting_from_submit() {
                h.push(w.hours());
            }
        }
        h
    }

    /// Temporal-size distribution in hours (Figure 4b).
    pub fn duration_histogram_hours(&self, bin_hours: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(bin_hours, bins);
        for o in &self.outcomes {
            h.push(o.duration.hours());
        }
        h
    }

    /// Mean temporal penalty grouped by job duration in whole hours
    /// (Figure 3): key = ceil(l_r in hours).
    pub fn penalty_by_duration_hours(&self) -> GroupedStats {
        let mut g = GroupedStats::new();
        for o in &self.outcomes {
            if let Some(p) = o.temporal_penalty() {
                let key = (o.duration.secs() + 3599) / 3600;
                g.push(key.max(1), p);
            }
        }
        g
    }

    /// Mean waiting time (hours) grouped by spatial size in 50-server bins
    /// (Figure 5).
    pub fn waiting_by_spatial(&self) -> GroupedStats {
        let mut g = GroupedStats::new();
        for o in &self.outcomes {
            if let Some(w) = o.waiting() {
                g.push(spatial_bin_50(o.servers), w.hours());
            }
        }
        g
    }

    /// Mean scheduling attempts grouped by spatial size in 50-server bins
    /// (Table 2).
    pub fn attempts_by_spatial(&self) -> GroupedStats {
        let mut g = GroupedStats::new();
        for o in &self.outcomes {
            g.push(spatial_bin_50(o.servers), o.attempts as f64);
        }
        g
    }

    /// Mean data-structure operations per request (Figure 7b).
    pub fn mean_ops_per_request(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.total_ops as f64 / self.outcomes.len() as f64
    }

    /// Largest waiting time in hours (the "tail length" the paper compares).
    /// 0 when no job was accepted.
    pub fn max_waiting_hours(&self) -> f64 {
        self.waiting_stats_hours().max().unwrap_or(0.0)
    }

    /// Utilization profile: committed busy fraction per time bin of width
    /// `bin` over `[0, makespan)`, reconstructed from the accepted outcomes.
    /// Useful for visualizing how tightly each scheduler packs the machine
    /// over time.
    pub fn utilization_profile(&self, capacity: u32, bin: Dur) -> Vec<(Time, f64)> {
        assert!(bin.secs() > 0);
        if self.makespan <= Time::ZERO {
            return Vec::new();
        }
        let bins = ((self.makespan.secs() + bin.secs() - 1) / bin.secs()) as usize;
        let mut busy = vec![0f64; bins];
        for o in &self.outcomes {
            let Some(start) = o.start else { continue };
            let end = start + o.duration;
            let mut b = (start.secs() / bin.secs()).max(0) as usize;
            while b < bins {
                let lo = Time((b as i64) * bin.secs());
                let hi = Time((b as i64 + 1) * bin.secs());
                if lo >= end {
                    break;
                }
                let overlap = (end.min(hi) - start.max(lo)).secs().max(0);
                busy[b] += overlap as f64 * o.servers as f64;
                b += 1;
            }
        }
        let cap = capacity as f64 * bin.secs() as f64;
        busy.iter()
            .enumerate()
            .map(|(i, &w)| (Time(i as i64 * bin.secs()), w / cap))
            .collect()
    }
}

/// Anything that can play the online-scheduler role in a replay: handle
/// requests immediately on arrival with a monotone clock. Implemented by
/// [`CoAllocScheduler`] (at every number of server ranges) and
/// [`NaiveScheduler`], so one driver ([`replay`]) replays the same trace
/// through any of them.
pub trait OnlineScheduler {
    /// Advance the scheduler clock (never backwards).
    fn advance_to(&mut self, now: Time);
    /// Handle one request, committing on success.
    fn submit(&mut self, req: &Request) -> Result<Grant, ScheduleError>;
    /// Cumulative operation counters so far.
    fn stats(&self) -> OpStats;
    /// System utilization over `[origin, until)`.
    fn utilization(&self, until: Time) -> f64;
    /// The scheduler's current clock.
    fn now(&self) -> Time;
}

impl OnlineScheduler for CoAllocScheduler {
    fn advance_to(&mut self, now: Time) {
        CoAllocScheduler::advance_to(self, now);
    }
    fn submit(&mut self, req: &Request) -> Result<Grant, ScheduleError> {
        CoAllocScheduler::submit(self, req)
    }
    fn stats(&self) -> OpStats {
        *CoAllocScheduler::stats(self)
    }
    fn utilization(&self, until: Time) -> f64 {
        CoAllocScheduler::utilization(self, until)
    }
    fn now(&self) -> Time {
        CoAllocScheduler::now(self)
    }
}

impl OnlineScheduler for NaiveScheduler {
    fn advance_to(&mut self, now: Time) {
        NaiveScheduler::advance_to(self, now);
    }
    fn submit(&mut self, req: &Request) -> Result<Grant, ScheduleError> {
        NaiveScheduler::submit(self, req)
    }
    fn stats(&self) -> OpStats {
        *NaiveScheduler::stats(self)
    }
    fn utilization(&self, until: Time) -> f64 {
        NaiveScheduler::utilization(self, until)
    }
    fn now(&self) -> Time {
        NaiveScheduler::now(self)
    }
}

/// Replay `requests` (sorted by submission time) through any
/// [`OnlineScheduler`]: each request is handled immediately on arrival, as
/// in Section 5.1 — advance the clock to the submission time, submit,
/// record the outcome.
pub fn replay<S: OnlineScheduler>(sched: &mut S, requests: &[Request], label: &str) -> RunResult {
    let mut span = obs::obs_span!("sim.run", "requests" => requests.len());
    if span.active() {
        span.record("scheduler", label.to_string());
    }
    let run_start = sched.stats();
    let mut outcomes = Vec::with_capacity(requests.len());
    let mut makespan = sched.now();
    let mut prev_submit = Time(i64::MIN);
    for req in requests {
        debug_assert!(req.submit >= prev_submit, "requests must be sorted by q_r");
        prev_submit = req.submit;
        sched.advance_to(req.submit);
        let before = sched.stats();
        let (start, attempts) = match sched.submit(req) {
            Ok(grant) => {
                makespan = makespan.max(grant.end);
                (Some(grant.start), grant.attempts)
            }
            Err(ScheduleError::Exhausted { attempts, .. }) => (None, attempts),
            Err(_) => (None, 0),
        };
        let ops = sched.stats().since(&before).total_ops();
        outcomes.push(Outcome {
            submit: req.submit,
            earliest: req.earliest_start.max(req.submit),
            duration: req.duration,
            servers: req.servers,
            start,
            attempts,
            ops,
        });
    }
    let utilization = sched.utilization(makespan);
    let total = sched.stats();
    if span.active() {
        // Per-run phase breakdown: where the data-structure work went.
        let d = total.since(&run_start);
        span.record("accepted", outcomes.iter().filter(|o| o.accepted()).count());
        span.record("phase1_searches", d.phase1_searches);
        span.record("phase2_searches", d.phase2_searches);
        span.record("primary_visits", d.primary_visits);
        span.record("secondary_visits", d.secondary_visits);
        span.record("update_visits", d.update_visits);
        span.record("rebuilds", d.rebuilds);
        span.record("attempts", d.attempts);
    }
    RunResult {
        label: label.to_string(),
        outcomes,
        utilization,
        makespan,
        total_ops: total.total_ops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::builder()
            .tau(Dur(100))
            .horizon(Dur(10_000))
            .delta_t(Dur(100))
            .build()
    }

    fn reqs() -> Vec<Request> {
        vec![
            Request::on_demand(Time(0), Dur(500), 2),
            Request::on_demand(Time(0), Dur(300), 1),
            Request::on_demand(Time(100), Dur(400), 2),
            Request::advance(Time(100), Time(1000), Dur(200), 1),
        ]
    }

    #[test]
    fn online_replay_produces_outcomes() {
        let mut s = CoAllocScheduler::new(2, cfg());
        let r = replay(&mut s, &reqs(), "online");
        assert_eq!(r.outcomes.len(), 4);
        assert_eq!(r.label, "online");
        // Job 0 takes both servers at t=0; job 1 needs 1 server → waits.
        assert!(r.outcomes[0].accepted());
        assert_eq!(r.outcomes[0].waiting(), Some(Dur::ZERO));
        assert!(r.outcomes[1].waiting().unwrap().secs() > 0);
        assert!(r.utilization > 0.0);
        assert!(r.total_ops > 0);
        assert_eq!(r.acceptance_rate(), 1.0);
    }

    #[test]
    fn outcome_metrics() {
        let o = Outcome {
            submit: Time(0),
            earliest: Time(0),
            duration: Dur(3600),
            servers: 4,
            start: Some(Time(1800)),
            attempts: 3,
            ops: 17,
        };
        assert!(o.accepted());
        assert_eq!(o.waiting(), Some(Dur(1800)));
        assert!((o.temporal_penalty().unwrap() - 0.5).abs() < 1e-12);
        let rejected = Outcome { start: None, ..o };
        assert!(!rejected.accepted());
        assert_eq!(rejected.temporal_penalty(), None);
    }

    #[test]
    fn aggregations_cover_all_figures() {
        let mut s = CoAllocScheduler::new(2, cfg());
        let r = replay(&mut s, &reqs(), "online");
        assert!(r.waiting_stats_hours().count() == 4);
        let h = r.waiting_histogram_hours(0.25, 8);
        assert_eq!(h.total(), 4);
        assert!(r.duration_histogram_hours(0.5, 4).total() == 4);
        assert!(!r.penalty_by_duration_hours().is_empty());
        assert!(!r.waiting_by_spatial().is_empty());
        assert!(!r.attempts_by_spatial().is_empty());
        assert!(r.mean_ops_per_request() > 0.0);
    }

    #[test]
    fn utilization_profile_reconstructs_busy_fractions() {
        let mut s = CoAllocScheduler::new(2, cfg());
        // One job: both servers for [0, 500).
        let r = vec![Request::on_demand(Time(0), Dur(500), 2)];
        let run = replay(&mut s, &r, "online");
        let prof = run.utilization_profile(2, Dur(250));
        assert_eq!(prof.len(), 2);
        assert!((prof[0].1 - 1.0).abs() < 1e-9);
        assert!((prof[1].1 - 1.0).abs() < 1e-9);
        // Partial bin overlap.
        let mut s = CoAllocScheduler::new(2, cfg());
        let r = vec![Request::on_demand(Time(100), Dur(150), 1)];
        let run = replay(&mut s, &r, "online");
        let prof = run.utilization_profile(2, Dur(250));
        // [100, 250) on 1 of 2 servers in the only bin: 150/(2*250) = 0.3.
        assert!((prof[0].1 - 0.3).abs() < 1e-9, "{prof:?}");
        // The mean of the profile equals the aggregate utilization.
        let mean: f64 = prof.iter().map(|(_, u)| u).sum::<f64>() / prof.len() as f64;
        assert!((mean - run.utilization).abs() < 0.2);
    }

    #[test]
    fn naive_replay_matches_online_shape() {
        let mut tree = CoAllocScheduler::new(
            2,
            SchedulerConfig::builder()
                .tau(Dur(100))
                .horizon(Dur(10_000))
                .delta_t(Dur(100))
                .policy(SelectionPolicy::ByServerId)
                .build(),
        );
        let mut naive = NaiveScheduler::new(
            2,
            SchedulerConfig::builder()
                .tau(Dur(100))
                .horizon(Dur(10_000))
                .delta_t(Dur(100))
                .policy(SelectionPolicy::ByServerId)
                .build(),
        );
        let a = replay(&mut tree, &reqs(), "online");
        let b = replay(&mut naive, &reqs(), "naive");
        let starts_a: Vec<_> = a.outcomes.iter().map(|o| o.start).collect();
        let starts_b: Vec<_> = b.outcomes.iter().map(|o| o.start).collect();
        assert_eq!(starts_a, starts_b);
    }
}
