//! Reusable hot-path buffers.
//!
//! Every scheduling attempt needs a handful of temporary vectors: the
//! Phase-1 marked-node list, the Phase-2 candidate-id buffer, and the
//! slot lists and end-key staging areas of a partial rebuild. Allocating
//! them per call dominates the per-request cost once the trees are warm,
//! so the scheduler threads a single [`Scratch`] through
//! [`crate::primary::SlotTree`], [`crate::ring::SlotRing`] and
//! [`crate::timeline::Timeline`] instead: each buffer is cleared (an `O(1)`
//! length reset) and refilled in place, and in steady state — once every
//! buffer has grown to its high-water mark — the reject path of a request
//! performs **zero** heap allocations.

use crate::idle::{EndKey, StartKey};
use crate::ids::PeriodId;
use crate::primary::{MarkedNode, PeriodOp};
use crate::ring::StabMarks;
use crate::timeline::PeriodDelta;

/// Reusable buffers for the allocation-free scheduling hot path.
///
/// A `Scratch` is plain data: dropping it or creating a fresh one is always
/// correct, only slower. Buffers never carry information between calls —
/// every user clears what it fills — so a single instance may be shared
/// across all trees of a ring and all phases of a request.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Phase-1 output: subtrees whose periods are all candidates.
    pub marked: Vec<MarkedNode>,
    /// Phase-1 output of a stabbing-path query: the per-tree marked
    /// segments along the segment-tree path (see [`StabMarks`]).
    pub stab: StabMarks,
    /// Finite-period updates queued for the ring's next batch (see
    /// [`crate::ring::route_delta`] and
    /// [`crate::ring::SlotRing::apply_queued`]).
    pub ring_ops: Vec<PeriodOp>,
    /// The batch being applied, one key per (canonical tree, update):
    /// `tree << 32 | position in the batch`, sorted so that each tree's
    /// updates are contiguous and in batch order.
    pub tree_ops: Vec<u64>,
    /// Phase-2 output: feasible period ids, retrieval order.
    pub ids: Vec<PeriodId>,
    /// Leaf slots of the subtree being rebuilt, with their keys, in key
    /// order.
    pub leaves: Vec<(StartKey, u32)>,
    /// Internal slots of the subtree being rebuilt, reused by the rebuild.
    pub inner: Vec<u32>,
    /// End-key stack of the bottom-up rebuild: each recursion level leaves
    /// its subtree's sorted end keys on top.
    pub ends: Vec<EndKey>,
    /// Merge buffer for combining two adjacent sorted runs of `ends`.
    pub ends_aux: Vec<EndKey>,
    /// Reusable timeline delta (see [`crate::timeline::Timeline::reserve_into`]).
    pub delta: PeriodDelta,
    /// Subtree sizes of the rebuilds of one slot-tree update call, for the
    /// `tree_rebuild_size` histogram, published when the call ends.
    pub rebuild_sizes: Vec<u64>,
    /// Updates per tree of one ring batch, for the `ring_batch_ops`
    /// histogram, published when the batch ends.
    pub batch_sizes: Vec<u64>,
}

/// Record every value collected in `values` in `hist` — one
/// [`obs::LazyHistogram::observe_n`] per distinct value, which leaves the
/// buckets, sum and count one `observe` per value would — and clear them.
/// The hot paths collect into [`Scratch`] and publish once per call, so
/// the histogram's shared cache lines are written once per distinct value
/// of a call, not once per value.
pub(crate) fn publish(hist: &obs::LazyHistogram, values: &mut Vec<u64>) {
    values.sort_unstable();
    for run in values.chunk_by(|a, b| a == b) {
        hist.observe_n(run[0], run.len() as u64);
    }
    values.clear();
}

impl Scratch {
    /// Fresh, empty scratch space. No allocation happens until first use.
    pub fn new() -> Scratch {
        Scratch::default()
    }
}
