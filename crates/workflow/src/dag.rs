//! Workflow DAGs: stages with temporal/spatial demands and precedence
//! edges.
//!
//! The paper's introduction motivates co-allocation with "scientific
//! workflow applications \[that\] involve the orchestration of multiple
//! computation and data transfer stages \[with\] strong dependency on
//! completion times" (GriPhyN/LIGO, SCEC, Montage). A [`Dag`] models such a
//! workflow; scheduling lives in [`crate::schedule`](crate::schedule()).

use coalloc_core::attrs::AttrSet;
use coalloc_core::prelude::Dur;

/// Index of a stage within its DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageId(pub usize);

/// One workflow stage: a co-allocation demand.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Human-readable name.
    pub name: String,
    /// Temporal size `l_r`.
    pub duration: Dur,
    /// Spatial size `n_r`.
    pub servers: u32,
    /// Capability tags the stage's servers must carry.
    pub required: AttrSet,
}

impl Stage {
    /// A stage with no capability constraints.
    pub fn new(name: impl Into<String>, duration: Dur, servers: u32) -> Stage {
        Stage {
            name: name.into(),
            duration,
            servers,
            required: AttrSet::NONE,
        }
    }

    /// Add a capability requirement.
    #[must_use]
    pub fn requiring(mut self, required: AttrSet) -> Stage {
        self.required = required;
        self
    }
}

/// A directed acyclic graph of stages.
#[derive(Clone, Debug, Default)]
pub struct Dag {
    stages: Vec<Stage>,
    /// `deps[i]` = stages that must complete before stage `i` starts.
    deps: Vec<Vec<StageId>>,
}

/// DAG construction/validation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// An edge references a stage that does not exist.
    UnknownStage(StageId),
    /// The dependency graph contains a cycle through this stage.
    Cycle(StageId),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::UnknownStage(s) => write!(f, "unknown stage #{}", s.0),
            DagError::Cycle(s) => write!(f, "dependency cycle through stage #{}", s.0),
        }
    }
}

impl std::error::Error for DagError {}

impl Dag {
    /// An empty workflow.
    pub fn new() -> Dag {
        Dag::default()
    }

    /// Add a stage; returns its id.
    pub fn add_stage(&mut self, stage: Stage) -> StageId {
        self.stages.push(stage);
        self.deps.push(Vec::new());
        StageId(self.stages.len() - 1)
    }

    /// Declare that `after` cannot start before `before` completes.
    pub fn add_dep(&mut self, before: StageId, after: StageId) -> Result<(), DagError> {
        for s in [before, after] {
            if s.0 >= self.stages.len() {
                return Err(DagError::UnknownStage(s));
            }
        }
        if !self.deps[after.0].contains(&before) {
            self.deps[after.0].push(before);
        }
        Ok(())
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the DAG has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stage record.
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.0]
    }

    /// Direct dependencies of a stage.
    pub fn deps(&self, id: StageId) -> &[StageId] {
        &self.deps[id.0]
    }

    /// Topological order (Kahn), or the cycle error. Ties are broken by
    /// **descending critical-path length** — the classic list-scheduling /
    /// HEFT "upward rank", so long chains are placed first.
    pub fn topo_order(&self) -> Result<Vec<StageId>, DagError> {
        let n = self.stages.len();
        let ranks = self.upward_ranks()?;
        let mut indegree = vec![0usize; n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, deps) in self.deps.iter().enumerate() {
            indegree[i] = deps.len();
            for d in deps {
                children[d.0].push(i);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while !ready.is_empty() {
            // Highest upward rank first.
            ready.sort_by(|&a, &b| ranks[b].cmp(&ranks[a]).then_with(|| a.cmp(&b)));
            let next = ready.remove(0);
            order.push(StageId(next));
            for &c in &children[next] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push(c);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n).find(|&i| indegree[i] > 0).unwrap();
            return Err(DagError::Cycle(StageId(stuck)));
        }
        Ok(order)
    }

    /// Upward rank of each stage: the stage's duration plus the longest
    /// chain of dependents below it (HEFT's ranking with unit communication
    /// cost zero). Errors on cycles.
    pub fn upward_ranks(&self) -> Result<Vec<Dur>, DagError> {
        let n = self.stages.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, deps) in self.deps.iter().enumerate() {
            for d in deps {
                children[d.0].push(i);
            }
        }
        let mut ranks: Vec<Option<Dur>> = vec![None; n];
        // Memoized DFS with an explicit in-progress mark for cycle detection.
        fn rank(
            i: usize,
            stages: &[Stage],
            children: &[Vec<usize>],
            ranks: &mut Vec<Option<Dur>>,
            visiting: &mut Vec<bool>,
        ) -> Result<Dur, DagError> {
            if let Some(r) = ranks[i] {
                return Ok(r);
            }
            if visiting[i] {
                return Err(DagError::Cycle(StageId(i)));
            }
            visiting[i] = true;
            let mut below = Dur::ZERO;
            for &c in &children[i] {
                let r = rank(c, stages, children, ranks, visiting)?;
                if r > below {
                    below = r;
                }
            }
            visiting[i] = false;
            let r = stages[i].duration + below;
            ranks[i] = Some(r);
            Ok(r)
        }
        let mut visiting = vec![false; n];
        for i in 0..n {
            rank(i, &self.stages, &children, &mut ranks, &mut visiting)?;
        }
        Ok(ranks.into_iter().map(|r| r.unwrap()).collect())
    }

    /// The critical-path length: a lower bound on any schedule's makespan.
    pub fn critical_path(&self) -> Result<Dur, DagError> {
        Ok(self.upward_ranks()?.into_iter().max().unwrap_or(Dur::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dag, [StageId; 4]) {
        // a -> b, a -> c, b -> d, c -> d
        let mut dag = Dag::new();
        let a = dag.add_stage(Stage::new("a", Dur(10), 2));
        let b = dag.add_stage(Stage::new("b", Dur(20), 1));
        let c = dag.add_stage(Stage::new("c", Dur(5), 1));
        let d = dag.add_stage(Stage::new("d", Dur(10), 3));
        dag.add_dep(a, b).unwrap();
        dag.add_dep(a, c).unwrap();
        dag.add_dep(b, d).unwrap();
        dag.add_dep(c, d).unwrap();
        (dag, [a, b, c, d])
    }

    #[test]
    fn topo_order_respects_deps() {
        let (dag, [a, b, c, d]) = diamond();
        let order = dag.topo_order().unwrap();
        let pos = |s: StageId| order.iter().position(|&x| x == s).unwrap();
        assert!(pos(a) < pos(b) && pos(a) < pos(c));
        assert!(pos(b) < pos(d) && pos(c) < pos(d));
        // Upward ranks: a = 10+max(20+10, 5+10) = 40; b = 30; c = 15; d = 10.
        let ranks = dag.upward_ranks().unwrap();
        assert_eq!(ranks, vec![Dur(40), Dur(30), Dur(15), Dur(10)]);
        // HEFT tie-break puts b before c.
        assert!(pos(b) < pos(c));
        assert_eq!(dag.critical_path().unwrap(), Dur(40));
    }

    #[test]
    fn cycle_detected() {
        let mut dag = Dag::new();
        let a = dag.add_stage(Stage::new("a", Dur(1), 1));
        let b = dag.add_stage(Stage::new("b", Dur(1), 1));
        dag.add_dep(a, b).unwrap();
        dag.add_dep(b, a).unwrap();
        assert!(matches!(dag.topo_order(), Err(DagError::Cycle(_))));
        assert!(matches!(dag.upward_ranks(), Err(DagError::Cycle(_))));
    }

    #[test]
    fn unknown_stage_rejected() {
        let mut dag = Dag::new();
        let a = dag.add_stage(Stage::new("a", Dur(1), 1));
        assert_eq!(
            dag.add_dep(a, StageId(9)),
            Err(DagError::UnknownStage(StageId(9)))
        );
    }

    #[test]
    fn duplicate_edges_are_deduped() {
        let mut dag = Dag::new();
        let a = dag.add_stage(Stage::new("a", Dur(1), 1));
        let b = dag.add_stage(Stage::new("b", Dur(1), 1));
        dag.add_dep(a, b).unwrap();
        dag.add_dep(a, b).unwrap();
        assert_eq!(dag.deps(b).len(), 1);
    }

    #[test]
    fn empty_and_singleton() {
        let dag = Dag::new();
        assert!(dag.is_empty());
        assert_eq!(dag.critical_path().unwrap(), Dur::ZERO);
        let mut one = Dag::new();
        one.add_stage(Stage::new("solo", Dur(7), 1));
        assert_eq!(one.topo_order().unwrap().len(), 1);
        assert_eq!(one.critical_path().unwrap(), Dur(7));
    }

    #[test]
    fn stage_constraints_carried() {
        let s = Stage::new("gpu-stage", Dur(5), 2).requiring(AttrSet::tag(3));
        assert!(s.required.satisfies(AttrSet::tag(3)));
    }
}
