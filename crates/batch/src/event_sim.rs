//! Event-driven batch-scheduler simulation: FCFS and EASY backfilling.
//!
//! These are the scheduler family that produced the paper's traces ("all
//! three systems implement some variant of a batch scheduler where jobs are
//! placed into one or multiple queues waiting for resources to become
//! available"). Jobs are queued in arrival order; FCFS starts the queue head
//! whenever it fits; EASY additionally backfills later jobs that cannot
//! delay the head's earliest-start reservation (Lifka's algorithm).

use crate::policy::BatchPolicy;
use coalloc_core::prelude::{Request, Time};
use coalloc_sim::events::EventQueue;
use coalloc_sim::runner::{Outcome, RunResult};
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug)]
struct Waiting {
    idx: usize,
    procs: i64,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Arrival(usize),
    Completion { procs: i64 },
}

/// Simulate `requests` through an event-driven FCFS or EASY batch scheduler
/// on `capacity` processors. A request's *release time* is its earliest
/// start `s_r` (equal to `q_r` for on-demand jobs); jobs enter the queue in
/// release order. Requests wider than the machine are rejected.
pub fn run_event_batch(
    capacity: u32,
    policy: BatchPolicy,
    requests: &[Request],
    label: &str,
) -> RunResult {
    assert!(matches!(
        policy,
        BatchPolicy::Fcfs | BatchPolicy::EasyBackfill
    ));
    let n = capacity as i64;
    let mut events: EventQueue<Ev> = EventQueue::new();
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| requests[i].earliest_start.max(requests[i].submit));
    for &i in &order {
        let r = &requests[i];
        events.push(r.earliest_start.max(r.submit), Ev::Arrival(i));
    }

    let mut free = n;
    let mut running: Vec<(Time, i64)> = Vec::new(); // (end, procs), kept sorted by end
    let mut queue: VecDeque<Waiting> = VecDeque::new();
    let mut starts: Vec<Option<Time>> = vec![None; requests.len()];
    let mut ops: u64 = 0;
    let mut makespan = Time::ZERO;

    while let Some((t, ev)) = events.pop() {
        match ev {
            Ev::Arrival(idx) => {
                let r = &requests[idx];
                if r.servers as i64 > n {
                    continue; // rejected: wider than the machine
                }
                queue.push_back(Waiting {
                    idx,
                    procs: r.servers as i64,
                });
            }
            Ev::Completion { procs } => {
                free += procs;
                // Remove one matching entry from the running set.
                if let Some(pos) = running.iter().position(|&(end, p)| end == t && p == procs) {
                    running.remove(pos);
                }
            }
        }
        // Coalesce simultaneous events before a scheduling pass.
        if events.peek_time() == Some(t) {
            continue;
        }
        schedule_pass(
            t,
            policy,
            &mut free,
            &mut running,
            &mut queue,
            &mut starts,
            &mut events,
            &mut ops,
            &mut makespan,
            requests,
        );
    }

    let outcomes: Vec<Outcome> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| Outcome {
            submit: r.submit,
            earliest: r.earliest_start.max(r.submit),
            duration: r.duration,
            servers: r.servers,
            start: starts[i],
            attempts: 1,
            ops: 0,
        })
        .collect();
    // Utilization: committed work over [first release, makespan).
    let origin = order
        .first()
        .map(|&i| requests[i].earliest_start.max(requests[i].submit))
        .unwrap_or(Time::ZERO);
    let span = (makespan - origin).secs().max(1) as f64;
    let busy: f64 = outcomes
        .iter()
        .filter(|o| o.accepted())
        .map(|o| o.duration.secs() as f64 * o.servers as f64)
        .sum();
    RunResult {
        label: label.to_string(),
        outcomes,
        utilization: busy / (span * capacity as f64),
        makespan,
        total_ops: ops,
    }
}

#[allow(clippy::too_many_arguments)]
fn schedule_pass(
    t: Time,
    policy: BatchPolicy,
    free: &mut i64,
    running: &mut Vec<(Time, i64)>,
    queue: &mut VecDeque<Waiting>,
    starts: &mut [Option<Time>],
    events: &mut EventQueue<Ev>,
    ops: &mut u64,
    makespan: &mut Time,
    requests: &[Request],
) {
    let mut start_job = |w: Waiting,
                         free: &mut i64,
                         running: &mut Vec<(Time, i64)>,
                         events: &mut EventQueue<Ev>,
                         makespan: &mut Time| {
        let end = t + requests[w.idx].duration;
        *free -= w.procs;
        debug_assert!(*free >= 0);
        starts[w.idx] = Some(t);
        let pos = running.partition_point(|&(e, _)| e <= end);
        running.insert(pos, (end, w.procs));
        events.push(end, Ev::Completion { procs: w.procs });
        *makespan = (*makespan).max(end);
    };

    // FCFS phase: start queue heads while they fit.
    while let Some(&head) = queue.front() {
        *ops += 1;
        if head.procs <= *free {
            queue.pop_front();
            start_job(head, free, running, events, makespan);
        } else {
            break;
        }
    }
    if policy == BatchPolicy::Fcfs || queue.is_empty() {
        return;
    }

    // EASY backfill phase: the blocked head gets a reservation at the
    // *shadow time*; later jobs may start now iff they fit in the free
    // nodes and either finish before the shadow time or use only the
    // `extra` nodes the head will not need.
    loop {
        let head = *queue.front().expect("non-empty");
        // Shadow time: earliest t' where free + completed-by-t' >= head.
        let mut acc = *free;
        let mut shadow = None;
        let mut freed_at_shadow = 0i64;
        for &(end, procs) in running.iter() {
            *ops += 1;
            acc += procs;
            if acc >= head.procs {
                shadow = Some(end);
                freed_at_shadow = acc;
                break;
            }
        }
        let Some(shadow) = shadow else {
            // Head can never run (should have been rejected on arrival).
            return;
        };
        let extra = freed_at_shadow - head.procs;
        // Find the first backfillable job after the head.
        let mut picked: Option<usize> = None;
        for (qi, w) in queue.iter().enumerate().skip(1) {
            *ops += 1;
            if w.procs <= *free {
                let ends_by_shadow = t + requests[w.idx].duration <= shadow;
                if ends_by_shadow || w.procs <= extra {
                    picked = Some(qi);
                    break;
                }
            }
        }
        match picked {
            Some(qi) => {
                let w = queue.remove(qi).expect("index in range");
                start_job(w, free, running, events, makespan);
                // Backfilling may have freed the way for nothing else, but
                // shadow/extra must be recomputed, so loop.
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalloc_core::prelude::Dur;

    fn r(submit: i64, dur: i64, procs: u32) -> Request {
        Request::on_demand(Time(submit), Dur(dur), procs)
    }

    #[test]
    fn fcfs_runs_in_arrival_order() {
        // 4 procs; job0 takes all 4; job1 (2 procs) and job2 (2 procs) queue.
        let reqs = vec![r(0, 100, 4), r(1, 50, 2), r(2, 50, 2)];
        let out = run_event_batch(4, BatchPolicy::Fcfs, &reqs, "fcfs");
        assert_eq!(out.outcomes[0].start, Some(Time(0)));
        assert_eq!(out.outcomes[1].start, Some(Time(100)));
        assert_eq!(out.outcomes[2].start, Some(Time(100)));
    }

    #[test]
    fn fcfs_head_blocks_smaller_jobs() {
        // job0 uses 3/4 procs; job1 needs 4 (blocked); job2 needs 1 and
        // would fit now, but FCFS does not let it pass job1.
        let reqs = vec![r(0, 100, 3), r(1, 100, 4), r(2, 10, 1)];
        let out = run_event_batch(4, BatchPolicy::Fcfs, &reqs, "fcfs");
        assert_eq!(out.outcomes[1].start, Some(Time(100)));
        assert_eq!(out.outcomes[2].start, Some(Time(200)));
    }

    #[test]
    fn easy_backfills_short_job_without_delaying_head() {
        // Same scenario: EASY lets job2 (10s, 1 proc) run at t=1.. since it
        // completes before the shadow time (100).
        let reqs = vec![r(0, 100, 3), r(1, 100, 4), r(2, 10, 1)];
        let out = run_event_batch(4, BatchPolicy::EasyBackfill, &reqs, "easy");
        assert_eq!(out.outcomes[2].start, Some(Time(2)));
        // Head still starts at its shadow time.
        assert_eq!(out.outcomes[1].start, Some(Time(100)));
    }

    #[test]
    fn easy_refuses_backfill_that_would_delay_head() {
        // job2 needs 60s > shadow window and all the head's nodes.
        let reqs = vec![r(0, 100, 3), r(1, 100, 4), r(2, 150, 1)];
        let out = run_event_batch(4, BatchPolicy::EasyBackfill, &reqs, "easy");
        // 1 proc <= extra? shadow=100, freed=3+1=4, extra=0 → no backfill;
        // job2 then waits behind the head until it finishes at t=200.
        assert_eq!(out.outcomes[1].start, Some(Time(100)));
        assert_eq!(out.outcomes[2].start, Some(Time(200)));
    }

    #[test]
    fn easy_backfills_into_extra_nodes() {
        // Head needs 2 of 4; one proc is running until 100. free=1.
        // Actually: job0 (3 procs, 100s); job1 (2 procs) blocked (free=1);
        // shadow = 100, freed = 4, extra = 2. job2 (1 proc, long) fits in
        // free=1 <= extra=2 → backfills even though it outlives the shadow.
        let reqs = vec![r(0, 100, 3), r(1, 100, 2), r(2, 500, 1)];
        let out = run_event_batch(4, BatchPolicy::EasyBackfill, &reqs, "easy");
        assert_eq!(out.outcomes[2].start, Some(Time(2)));
        assert_eq!(out.outcomes[1].start, Some(Time(100)));
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        let reqs = vec![r(0, 10, 9)];
        let out = run_event_batch(4, BatchPolicy::EasyBackfill, &reqs, "easy");
        assert_eq!(out.outcomes[0].start, None);
        assert_eq!(out.acceptance_rate(), 0.0);
    }

    #[test]
    fn advance_release_time_respected() {
        let reqs = vec![Request::advance(Time(0), Time(50), Dur(10), 1)];
        let out = run_event_batch(4, BatchPolicy::Fcfs, &reqs, "fcfs");
        assert_eq!(out.outcomes[0].start, Some(Time(50)));
        assert_eq!(out.outcomes[0].waiting(), Some(Dur::ZERO));
    }

    #[test]
    fn utilization_positive_under_load() {
        let reqs: Vec<Request> = (0..50).map(|i| r(i * 10, 200, 2)).collect();
        let out = run_event_batch(4, BatchPolicy::EasyBackfill, &reqs, "easy");
        assert!(out.utilization > 0.5, "utilization {}", out.utilization);
        assert!(out.total_ops > 0);
    }
}
