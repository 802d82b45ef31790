//! # coalloc-shard
//!
//! The name the repo benchmark (`benchmark/`) builds its multi-range
//! engine by, and nothing else: a [`ShardedScheduler`] is a
//! [`CoAllocScheduler::with_ranges`] with its counters by value. The
//! scheduler itself serves every command at every `K`, pools large
//! batches (DESIGN.md §9) and makes the same decisions as a single range.
//! ROADMAP item 1(b) deletes this type together with the crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use coalloc_core::prelude::*;
use std::ops::{Deref, DerefMut};

/// A [`CoAllocScheduler`] over `K` server ranges, dereferencing to it.
pub struct ShardedScheduler(CoAllocScheduler);

impl ShardedScheduler {
    /// [`CoAllocScheduler::with_ranges`]`(num_servers, k, cfg)`.
    ///
    /// ```
    /// use coalloc_core::prelude::*;
    /// use coalloc_shard::ShardedScheduler;
    ///
    /// let req = Request::advance(Time::ZERO, Time::from_hours(2), Dur::from_hours(1), 3);
    /// let mut single = CoAllocScheduler::new(8, SchedulerConfig::default());
    /// let mut sharded = ShardedScheduler::new(8, 4, SchedulerConfig::default());
    /// assert_eq!(single.submit(&req), sharded.submit(&req));
    /// ```
    pub fn new(num_servers: u32, k: u32, cfg: SchedulerConfig) -> ShardedScheduler {
        ShardedScheduler(CoAllocScheduler::with_ranges(num_servers, k, cfg))
    }

    /// The scheduler's operation counters, by value.
    pub fn stats(&self) -> OpStats {
        *self.0.stats()
    }
}

impl Deref for ShardedScheduler {
    type Target = CoAllocScheduler;
    fn deref(&self) -> &CoAllocScheduler {
        &self.0
    }
}

impl DerefMut for ShardedScheduler {
    fn deref_mut(&mut self) -> &mut CoAllocScheduler {
        &mut self.0
    }
}
