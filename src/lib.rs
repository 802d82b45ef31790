//! # coalloc — resource co-allocation for large-scale distributed environments
//!
//! A from-scratch Rust reproduction of Castillo, Rouskas & Harfoush,
//! *"Resource Co-Allocation for Large-Scale Distributed Environments"*,
//! HPDC 2009: an online algorithm that co-allocates multiple resources
//! simultaneously, supports advance reservations, and answers temporal
//! range searches, built on slotted 2-dimensional trees over idle periods.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`core`] — the data structure and online scheduler (the paper's
//!   contribution), its servers stored as `K` ranges with large batches
//!   committed on them in parallel (DESIGN.md §9);
//! * [`sim`] — discrete-event replay and the paper's metrics;
//! * [`workloads`] — SWF trace parsing and CTC/KTH/HPC2N statistical twins;
//! * [`batch`] — FCFS / EASY / conservative backfilling baselines;
//! * [`net`] — the TCP serving path: concurrent line-protocol server with
//!   admission control (DESIGN.md §10, `docs/PROTOCOL.md`);
//! * [`multisite`] — atomic cross-site co-allocation (hold/commit protocol);
//! * [`lambda`] — the PCE wavelength-scheduling application (Section 3.2);
//! * [`workflow`] — DAG co-allocation via chained advance reservations.
//!
//! ## Quickstart
//!
//! ```
//! use coalloc::prelude::*;
//!
//! // A 16-server system with 15-minute slots and a 2-day horizon.
//! let cfg = SchedulerConfig::builder()
//!     .tau(Dur::from_mins(15))
//!     .horizon(Dur::from_hours(48))
//!     .build();
//! let mut sched = CoAllocScheduler::new(16, cfg);
//!
//! // Co-allocate 4 servers for one hour, starting now.
//! let grant = sched
//!     .submit(&Request::on_demand(Time::ZERO, Dur::from_hours(1), 4))
//!     .expect("empty system accepts this");
//! assert_eq!(grant.servers.len(), 4);
//!
//! // Advance reservation: 8 servers, tomorrow 09:00–11:00.
//! let start = Time::from_hours(33);
//! let grant = sched
//!     .submit(&Request::advance(Time::ZERO, start, Dur::from_hours(2), 8))
//!     .expect("fits within the horizon");
//! assert_eq!(grant.start, start);
//!
//! // Range search: everything free in a window, without committing.
//! let free = sched.range_search(Time(600), Time(3000));
//! assert_eq!(free.len(), 12); // 16 minus the 4 busy during the first hour
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use coalloc_batch as batch;
pub use coalloc_core as core;
pub use coalloc_lambda as lambda;
pub use coalloc_multisite as multisite;
pub use coalloc_net as net;
pub use coalloc_sim as sim;
pub use coalloc_workflow as workflow;
pub use coalloc_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use coalloc_batch::{run_batch, BatchPolicy};
    pub use coalloc_core::prelude::*;
    pub use coalloc_lambda::{ConnectionRequest, Network, NodeId, Pce, PceConfig, Wavelength};
    pub use coalloc_multisite::{Coordinator, CoordinatorConfig, MultiRequest, SiteHandle, SiteId};
    pub use coalloc_net::{Client, NetConfig, Server, Session};
    pub use coalloc_sim::runner::{replay, Outcome, RunResult};
    pub use coalloc_workflow::{Dag, Mode, Stage, StageId, WorkflowPlan};
    pub use coalloc_workloads::{with_paper_reservations, WorkloadSpec, WorkloadStats};
}
