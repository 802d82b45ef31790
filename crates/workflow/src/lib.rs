//! # coalloc-workflow
//!
//! Workflow (DAG) co-allocation on top of the online scheduler — the
//! paper's motivating application class: "several scientific workflow
//! applications involve the orchestration of multiple computation and data
//! transfer stages \[with\] strong dependency on completion times; thus the
//! ability to co-schedule and synchronize resource usage becomes crucial"
//! (Section 1).
//!
//! A [`Dag`] of stages is planned as a chain of advance reservations
//! ([`schedule::schedule_reserved`]) — atomically, with rollback, optional
//! end-to-end deadlines, and HEFT-style upward-rank ordering — or executed
//! reactively ([`schedule::schedule_reactive`]) the way a dependency engine
//! over a batch queue would, for comparison.

//! ## Example
//!
//! ```
//! use coalloc_core::prelude::*;
//! use coalloc_workflow::{schedule_reserved, Dag, Stage};
//!
//! let mut dag = Dag::new();
//! let fetch = dag.add_stage(Stage::new("fetch", Dur::from_mins(30), 2));
//! let crunch = dag.add_stage(Stage::new("crunch", Dur::from_hours(2), 8));
//! dag.add_dep(fetch, crunch).unwrap();
//!
//! let mut sched = CoAllocScheduler::new(8, SchedulerConfig::default());
//! let plan = schedule_reserved(&mut sched, &dag, Time::ZERO, None).unwrap();
//! assert_eq!(plan.start(crunch), plan.end(fetch)); // chained reservation
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dag;
pub mod schedule;

pub use dag::{Dag, DagError, Stage, StageId};
pub use schedule::{
    schedule, schedule_reactive, schedule_reserved, Mode, WorkflowError, WorkflowPlan,
};
