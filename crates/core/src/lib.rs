//! # coalloc-core
//!
//! Online resource co-allocation with advance reservations, reproducing
//! Castillo, Rouskas & Harfoush, *"Resource Co-Allocation for Large-Scale
//! Distributed Environments"*, HPDC 2009.
//!
//! The crate provides:
//!
//! * the **slotted 2-dimensional tree** index over idle periods
//!   ([`primary::SlotTree`], [`ring::SlotRing`]) — the paper's core data
//!   structure (Section 4.1);
//! * the **online co-allocation scheduler** ([`scheduler::CoAllocScheduler`])
//!   implementing the two-phase search with `Delta_t`/`R_max` retries
//!   (Section 4.2);
//! * **range searches** ([`range_search`]) — query-then-commit resource
//!   discovery over a time window;
//! * **pooled batches** ([`scheduler::CoAllocScheduler::submit_batch`]) —
//!   a large batch decided over the ranges as they stood when it opened,
//!   its commits applied at its end, the ranges in parallel;
//! * a **naive linear-scan co-allocator** ([`naive::NaiveScheduler`]) — the
//!   sequential baseline the paper argues against, doubling as a test oracle;
//! * the supporting substrate: time/slot arithmetic ([`time`]), idle-period
//!   bookkeeping ([`idle`], [`timeline`]) and operation accounting
//!   ([`stats`]).
//!
//! ## Example
//!
//! ```
//! use coalloc_core::prelude::*;
//!
//! // 4 servers, 15-minute slots, 2-day horizon (the paper's Section 5
//! // settings, scaled down).
//! let cfg = SchedulerConfig::builder()
//!     .tau(Dur::from_mins(15))
//!     .horizon(Dur::from_hours(48))
//!     .build();
//! let mut sched = CoAllocScheduler::new(4, cfg);
//!
//! // Co-allocate 2 servers for one hour starting now; the scheduler
//! // shifts by Delta_t (up to R_max times) if the window is contended.
//! let grant = sched
//!     .submit(&Request::on_demand(Time::ZERO, Dur::from_hours(1), 2))
//!     .unwrap();
//! assert_eq!(grant.servers.len(), 2);
//!
//! // Range search: everything free for a whole window, without committing.
//! let free = sched.range_search(Time(600), Time(1800));
//! assert_eq!(free.len(), 2); // the other two servers
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attrs;
mod batch;
pub mod blockset;
pub mod error;
pub mod idhash;
pub mod idle;
pub mod ids;
pub mod index;
pub mod ladder;
pub mod naive;
pub mod packing;
pub mod policy;
pub mod primary;
pub mod profile;
pub mod range_search;
pub mod request;
pub mod ring;
pub mod scheduler;
pub mod scratch;
pub mod snapshot;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod trailing;

/// Convenient re-exports of the public API surface.
pub mod prelude {
    pub use crate::attrs::AttrSet;
    pub use crate::error::ScheduleError;
    pub use crate::idle::IdlePeriod;
    pub use crate::ids::{JobId, ServerId};
    pub use crate::index::ServerIndex;
    pub use crate::ladder::Ladder;
    pub use crate::naive::NaiveScheduler;
    pub use crate::packing::{PackedGroup, Placement, SmallJob};
    pub use crate::policy::SelectionPolicy;
    pub use crate::profile::FreeProfile;
    pub use crate::range_search::Availability;
    pub use crate::request::{Request, RequestError};
    pub use crate::scheduler::{CoAllocScheduler, Grant, SchedulerConfig};
    pub use crate::scratch::Scratch;
    pub use crate::stats::OpStats;
    pub use crate::time::{Dur, SlotConfig, SlotIdx, Time};
    pub use crate::timeline::{PeriodDelta, Reservation, Timeline};
}
