//! Scheduling a workflow DAG onto the co-allocation scheduler.
//!
//! Two modes mirror the paper's argument for advance reservations:
//!
//! * **Reserved** — the whole DAG is planned at submission time as a chain
//!   of advance reservations (each stage starts no earlier than its latest
//!   dependency's committed end). The user gets a *guaranteed* timetable;
//!   competing load arriving later cannot displace it. If any stage cannot
//!   be placed, every already-committed stage is rolled back, so the
//!   operation is atomic. This is the capability batch schedulers lack —
//!   "advance reservations [...] also enable support for workflow
//!   applications" (Section 1).
//! * **Reactive** — each stage is submitted only when its dependencies have
//!   completed (clock advanced to that moment), the way a dependency-driven
//!   engine over a batch queue behaves. No guarantees: capacity may have
//!   been taken in the meantime.

use crate::dag::{Dag, DagError, StageId};
use coalloc_core::error::ScheduleError;
use coalloc_core::prelude::*;
use coalloc_core::scheduler::CoAllocScheduler;

/// How the DAG is mapped onto reservations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mode {
    /// Plan everything now via chained advance reservations (atomic).
    #[default]
    Reserved,
    /// Submit each stage when its dependencies complete.
    Reactive,
}

/// The committed plan of one workflow.
#[derive(Clone, Debug)]
pub struct WorkflowPlan {
    /// Per-stage grants, indexed like the DAG's stages.
    pub grants: Vec<Grant>,
    /// Completion time of the last stage.
    pub makespan_end: Time,
    /// Total scheduling attempts across stages.
    pub attempts: u32,
}

impl WorkflowPlan {
    /// Start time of a stage.
    pub fn start(&self, s: StageId) -> Time {
        self.grants[s.0].start
    }

    /// End time of a stage.
    pub fn end(&self, s: StageId) -> Time {
        self.grants[s.0].end
    }
}

/// Why workflow scheduling failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkflowError {
    /// The DAG is malformed.
    Dag(DagError),
    /// A stage could not be placed (everything already placed was rolled
    /// back).
    StageFailed {
        /// The failing stage.
        stage: StageId,
        /// The underlying scheduler error.
        cause: ScheduleError,
    },
    /// The workflow cannot complete by the requested deadline (rolled back).
    DeadlineMiss {
        /// The stage whose placement broke the deadline.
        stage: StageId,
    },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::Dag(e) => write!(f, "invalid workflow: {e}"),
            WorkflowError::StageFailed { stage, cause } => {
                write!(f, "stage #{} unplaceable: {cause}", stage.0)
            }
            WorkflowError::DeadlineMiss { stage } => {
                write!(f, "deadline missed at stage #{}", stage.0)
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<DagError> for WorkflowError {
    fn from(e: DagError) -> Self {
        WorkflowError::Dag(e)
    }
}

/// Plan a whole workflow as chained advance reservations, atomically:
/// on any failure every committed stage is released and the error returned.
///
/// `deadline` (optional) bounds the completion of *every* stage.
pub fn schedule_reserved(
    sched: &mut CoAllocScheduler,
    dag: &Dag,
    submit: Time,
    deadline: Option<Time>,
) -> Result<WorkflowPlan, WorkflowError> {
    let order = dag.topo_order()?;
    let mut grants: Vec<Option<Grant>> = vec![None; dag.len()];
    let mut attempts = 0u32;
    let rollback = |sched: &mut CoAllocScheduler, grants: &[Option<Grant>]| {
        for g in grants.iter().flatten() {
            sched
                .release(g.job)
                .expect("rollback of a just-committed stage");
        }
    };
    for &sid in &order {
        let stage = dag.stage(sid);
        let earliest = dag
            .deps(sid)
            .iter()
            .map(|d| grants[d.0].as_ref().expect("topo order").end)
            .max()
            .unwrap_or(submit)
            .max(submit);
        let req = Request::advance(submit, earliest, stage.duration, stage.servers);
        let result = match (deadline, stage.required.is_empty()) {
            (Some(dl), true) => sched.submit_with_deadline(&req, dl),
            (None, true) => sched.submit(&req),
            // Constrained stages: filter by capability; deadline enforced
            // post-hoc below (submit_constrained has no deadline variant).
            (_, false) => sched.submit_constrained(&req, stage.required),
        };
        match result {
            Ok(grant) => {
                if let Some(dl) = deadline {
                    if grant.end > dl {
                        sched.release(grant.job).expect("just committed");
                        rollback(sched, &grants);
                        return Err(WorkflowError::DeadlineMiss { stage: sid });
                    }
                }
                attempts += grant.attempts;
                grants[sid.0] = Some(grant);
            }
            Err(cause) => {
                rollback(sched, &grants);
                return Err(WorkflowError::StageFailed { stage: sid, cause });
            }
        }
    }
    let grants: Vec<Grant> = grants.into_iter().map(|g| g.unwrap()).collect();
    let makespan_end = grants.iter().map(|g| g.end).max().unwrap_or(submit);
    Ok(WorkflowPlan {
        grants,
        makespan_end,
        attempts,
    })
}

/// Execute a workflow reactively: advance the scheduler clock to each
/// stage's readiness time and submit on demand. Not atomic — on failure,
/// earlier stages have already *run* (their windows are in the past); the
/// error reports how far execution got.
pub fn schedule_reactive(
    sched: &mut CoAllocScheduler,
    dag: &Dag,
    submit: Time,
) -> Result<WorkflowPlan, WorkflowError> {
    dag.topo_order()?; // validate acyclicity
    let mut grants: Vec<Option<Grant>> = vec![None; dag.len()];
    let mut attempts = 0u32;
    // Event-ordered execution: stages become ready when all dependencies
    // complete, and the clock advances through readiness times in order —
    // parallel branches must not be delayed by each other's submissions.
    let n = dag.len();
    let mut indegree: Vec<usize> = (0..n).map(|i| dag.deps(StageId(i)).len()).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for d in dag.deps(StageId(i)) {
            children[d.0].push(i);
        }
    }
    // Min-heap of (ready time, stage index).
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(Time, usize)>> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(|i| std::cmp::Reverse((submit, i)))
        .collect();
    while let Some(std::cmp::Reverse((ready, i))) = heap.pop() {
        let sid = StageId(i);
        let stage = dag.stage(sid);
        sched.advance_to(ready);
        let req = Request::on_demand(ready, stage.duration, stage.servers);
        let result = if stage.required.is_empty() {
            sched.submit(&req)
        } else {
            sched.submit_constrained(&req, stage.required)
        };
        match result {
            Ok(grant) => {
                attempts += grant.attempts;
                let end = grant.end;
                grants[i] = Some(grant);
                for &c in &children[i] {
                    indegree[c] -= 1;
                    if indegree[c] == 0 {
                        let ready_c = dag
                            .deps(StageId(c))
                            .iter()
                            .map(|d| grants[d.0].as_ref().expect("completed").end)
                            .max()
                            .unwrap_or(end)
                            .max(submit);
                        heap.push(std::cmp::Reverse((ready_c, c)));
                    }
                }
            }
            Err(cause) => return Err(WorkflowError::StageFailed { stage: sid, cause }),
        }
    }
    let grants: Vec<Grant> = grants.into_iter().map(|g| g.unwrap()).collect();
    let makespan_end = grants.iter().map(|g| g.end).max().unwrap_or(submit);
    Ok(WorkflowPlan {
        grants,
        makespan_end,
        attempts,
    })
}

/// Dispatch on [`Mode`].
pub fn schedule(
    sched: &mut CoAllocScheduler,
    dag: &Dag,
    submit: Time,
    mode: Mode,
) -> Result<WorkflowPlan, WorkflowError> {
    match mode {
        Mode::Reserved => schedule_reserved(sched, dag, submit, None),
        Mode::Reactive => schedule_reactive(sched, dag, submit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Stage;
    use coalloc_core::attrs::AttrSet;

    fn sched(n: u32) -> CoAllocScheduler {
        CoAllocScheduler::new(
            n,
            SchedulerConfig::builder()
                .tau(Dur(10))
                .horizon(Dur(1000))
                .delta_t(Dur(10))
                .build(),
        )
    }

    fn diamond() -> Dag {
        let mut dag = Dag::new();
        let a = dag.add_stage(Stage::new("a", Dur(10), 2));
        let b = dag.add_stage(Stage::new("b", Dur(20), 1));
        let c = dag.add_stage(Stage::new("c", Dur(5), 1));
        let d = dag.add_stage(Stage::new("d", Dur(10), 3));
        dag.add_dep(a, b).unwrap();
        dag.add_dep(a, c).unwrap();
        dag.add_dep(b, d).unwrap();
        dag.add_dep(c, d).unwrap();
        dag
    }

    #[test]
    fn reserved_diamond_matches_critical_path_when_uncontended() {
        let mut s = sched(4);
        let dag = diamond();
        let plan = schedule_reserved(&mut s, &dag, Time::ZERO, None).unwrap();
        // a: [0,10); b: [10,30); c: [10,15); d: [30,40).
        assert_eq!(plan.start(StageId(0)), Time::ZERO);
        assert_eq!(plan.start(StageId(1)), Time(10));
        assert_eq!(plan.start(StageId(2)), Time(10));
        assert_eq!(plan.start(StageId(3)), Time(30));
        assert_eq!(plan.makespan_end, Time(40));
        assert_eq!(plan.makespan_end - Time::ZERO, dag.critical_path().unwrap());
        s.check_consistency();
    }

    #[test]
    fn precedence_always_respected() {
        let mut s = sched(3);
        let dag = diamond();
        let plan = schedule(&mut s, &dag, Time(5), Mode::Reserved).unwrap();
        for sid in 0..dag.len() {
            for &dep in dag.deps(StageId(sid)) {
                assert!(
                    plan.start(StageId(sid)) >= plan.end(dep),
                    "stage {sid} starts before dep {} ends",
                    dep.0
                );
            }
        }
    }

    #[test]
    fn atomic_rollback_on_unplaceable_stage() {
        let mut s = sched(2);
        let mut dag = Dag::new();
        let a = dag.add_stage(Stage::new("a", Dur(10), 2));
        let b = dag.add_stage(Stage::new("b", Dur(10), 5)); // wider than N
        dag.add_dep(a, b).unwrap();
        let err = schedule_reserved(&mut s, &dag, Time::ZERO, None).unwrap_err();
        assert!(matches!(err, WorkflowError::StageFailed { stage, .. } if stage == StageId(1)));
        // Stage a's reservation was rolled back: the system is fully idle.
        assert_eq!(s.range_search(Time::ZERO, Time(100)).len(), 2);
        s.check_consistency();
    }

    #[test]
    fn deadline_enforced_and_rolled_back() {
        let mut s = sched(4);
        let dag = diamond(); // critical path 40
        assert!(schedule_reserved(&mut s, &dag, Time::ZERO, Some(Time(40))).is_ok());
        let mut s2 = sched(4);
        let err = schedule_reserved(&mut s2, &dag, Time::ZERO, Some(Time(35))).unwrap_err();
        assert!(matches!(
            err,
            WorkflowError::DeadlineMiss { .. } | WorkflowError::StageFailed { .. }
        ));
        s2.check_consistency();
        assert_eq!(
            s2.range_search(Time::ZERO, Time(100)).len(),
            4,
            "rolled back"
        );
    }

    #[test]
    fn reserved_plan_survives_competing_load() {
        let mut s = sched(4);
        let dag = diamond();
        let plan = schedule_reserved(&mut s, &dag, Time::ZERO, None).unwrap();
        // A burst of competing jobs arrives after planning.
        for _ in 0..10 {
            let _ = s.submit(&Request::on_demand(Time::ZERO, Dur(50), 2));
        }
        // The plan's reservations are untouched.
        for g in &plan.grants {
            assert!(s.job(g.job).is_some());
        }
        s.check_consistency();
    }

    #[test]
    fn reactive_is_displaced_by_competing_load() {
        // Plan reserved on one copy, reactive on another with a competitor
        // injected mid-flight; the reactive makespan suffers.
        let dag = {
            let mut d = Dag::new();
            let a = d.add_stage(Stage::new("a", Dur(20), 3));
            let b = d.add_stage(Stage::new("b", Dur(20), 3));
            d.add_dep(a, b).unwrap();
            d
        };
        let mut reserved = sched(3);
        let plan_r = schedule_reserved(&mut reserved, &dag, Time::ZERO, None).unwrap();
        // Competitor submitted after planning cannot displace stage b.
        let comp = reserved
            .submit(&Request::on_demand(Time::ZERO, Dur(30), 3))
            .unwrap();
        assert!(comp.start >= plan_r.makespan_end);
        assert_eq!(plan_r.makespan_end, Time(40));

        let mut reactive = sched(3);
        // Stage a runs [0, 20).
        let a = reactive
            .submit(&Request::on_demand(Time::ZERO, Dur(20), 3))
            .unwrap();
        assert_eq!(a.start, Time::ZERO);
        // Competitor (submitted at t=1, shifted by Delta_t) books [21, 51)
        // before b becomes ready.
        let comp = reactive
            .submit(&Request::on_demand(Time(1), Dur(30), 3))
            .unwrap();
        assert_eq!(comp.start, Time(21));
        // Reactive b can only start at 50.
        reactive.advance_to(Time(20));
        let b = reactive
            .submit(&Request::on_demand(Time(20), Dur(20), 3))
            .unwrap();
        assert!(b.start >= Time(50));
    }

    #[test]
    fn constrained_stages_route_to_tagged_servers() {
        const GPU: AttrSet = AttrSet(1);
        let mut s = sched(4);
        s.set_server_attrs(ServerId(3), GPU);
        let mut dag = Dag::new();
        let pre = dag.add_stage(Stage::new("prep", Dur(10), 2));
        let gpu = dag.add_stage(Stage::new("train", Dur(10), 1).requiring(GPU));
        dag.add_dep(pre, gpu).unwrap();
        let plan = schedule_reserved(&mut s, &dag, Time::ZERO, None).unwrap();
        assert_eq!(plan.grants[gpu.0].servers, vec![ServerId(3)]);
        assert_eq!(plan.start(gpu), Time(10));
        let _ = pre;
    }

    #[test]
    fn reactive_mode_runs_the_dag() {
        let mut s = sched(4);
        let dag = diamond();
        let plan = schedule(&mut s, &dag, Time::ZERO, Mode::Reactive).unwrap();
        assert_eq!(plan.makespan_end, Time(40));
        s.check_consistency();
    }
}
