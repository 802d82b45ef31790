//! # coalloc-sim
//!
//! Discrete-event replay engine and performance metrics for evaluating
//! co-allocation schedulers, mirroring the methodology of Section 5 of the
//! paper: workloads are replayed request-by-request, and per-request
//! [`runner::Outcome`]s are aggregated into the paper's metrics (waiting
//! time `W_r`, temporal penalty `P^l_r`, spatial penalty, utilization,
//! scheduling attempts, operation counts).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod metrics;
pub mod runner;

pub use metrics::{GroupedStats, Histogram, StreamingStats};
pub use runner::{replay, OnlineScheduler, Outcome, RunResult};
