//! # coalloc-workloads
//!
//! Workload substrate for the HPDC'09 co-allocation reproduction:
//!
//! * [`swf`] — parser for the Standard Workload Format of the Parallel
//!   Workloads Archive, so the *real* CTC/KTH/HPC2N traces drop in when
//!   available (including each job's recorded batch-scheduler wait);
//! * [`synthetic`] — seeded statistical twins of those three traces,
//!   calibrated to the published features the paper's analysis relies on;
//! * [`reservations`] — the advance-reservation mix generator of
//!   Section 5.2 (`rho` fraction, `s_r - q_r ~ U[0, 3h]`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod reservations;
pub mod swf;
pub mod synthetic;
pub mod users;

pub use reservations::{with_advance_reservations, with_paper_reservations, PAPER_MAX_ADVANCE};
pub use swf::{parse_swf, swf_to_requests, write_swf, SwfJob};
pub use synthetic::{WorkloadSpec, WorkloadStats};
pub use users::{assign_users, TaggedRequest, UserId};
