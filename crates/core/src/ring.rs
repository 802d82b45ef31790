//! Segment-tree coverage of the `Q` live slots over **finite** idle periods.
//!
//! "The system always maintains `Q` trees, with each tree containing at most
//! `N` idle periods. [...] as the time advances, the tree corresponding to
//! the just expired time slot is discarded, and a new tree is created
//! (initialized) for the new slot at the end of the system's time horizon;
//! [...] these discard and initialization operations are repeated every
//! `tau` time units and take O(1) time" (Section 4.1).
//!
//! The paper mirrors every finite idle period into the tree of every live
//! slot it overlaps, which costs `O(W/tau)` tree updates per period delta
//! and `O(N * W/tau)` resident copies. This implementation deviates: the
//! `Q` live slots are the leaves of a **static segment tree** (padded to a
//! power of two `M >= Q`), each of whose `2M` canonical nodes owns one 2-D
//! [`SlotTree`], a handle into the one [`TreeStore`] of the ring (so the
//! ring's memory follows its live entries, not the history of each of
//! its `2M` trees). A finite period covering slots `[first, last]` is stored
//! once in each of the `O(log Q)` canonical nodes whose leaf interval its
//! slot range decomposes into, and a Phase-1/Phase-2 query at slot `q`
//! walks the leaf-to-root *stabbing path* of `q`, running the usual
//! marking/counting in each tree it meets. Every period overlapping `q`
//! lives in exactly one node of that path, so the union of the per-node
//! results is the per-slot candidate set of the paper — see
//! [`SlotRing::check_mirror`] for the invariant and DESIGN.md §12 for why
//! the scheduler's decisions are bit-identical to per-slot mirroring.
//!
//! Ring advance keeps its O(1) amortized horizon edge: leaf positions are
//! slot indices modulo `M`, so sliding the window is just a base bump plus
//! the eviction of the periods whose last covered slot expired (tracked in
//! per-slot expiry buckets — the amortized equivalent of discarding the
//! expired slot's tree). Open-ended trailing periods (`end == Time::INF`)
//! are *not* stored here — they live once in the global [`crate::trailing`]
//! index, which is what keeps the horizon edge initialization-free (a
//! brand-new edge slot is covered by exactly the trailing periods,
//! represented virtually).
//!
//! Writes arrive as **batches** ([`SlotRing::apply_batch`]): a grant, a
//! release or one expired slot's evictions is an ordered list of period
//! removals and insertions, most of which land in the same few canonical
//! trees. The batch is regrouped per tree (each tree still sees its updates
//! in batch order) so that a tree receiving many of them can maintain its
//! secondary trees once instead of per update — see
//! [`SlotTree::apply_ops`] and DESIGN.md §12, "Batched write path".

use crate::idhash::IdMap;
use crate::idle::IdlePeriod;
use crate::ids::PeriodId;
use crate::primary::{defer_pays, MarkedNode, PeriodOp, SlotTree, TreeFingerprint, TreeStore};
use crate::scratch::{publish, Scratch};
use crate::stats::OpStats;
use crate::time::{SlotConfig, SlotIdx, Time};
use crate::timeline::{PeriodDelta, Timeline};
use crate::trailing::TrailingSet;
use obs::{LazyCounter, LazyHistogram};
use std::collections::VecDeque;

/// Updates one canonical tree received from one batch.
static BATCH_OPS: LazyHistogram = LazyHistogram::new("ring_batch_ops");
/// (batch, tree) groups that took the deferred secondary-tree path.
static BATCHES_DEFERRED: LazyCounter = LazyCounter::new("ring_batches_deferred_total");

/// Route one timeline delta into the two idle-period indexes, the way every
/// scheduler front-end must: open-ended periods go to `trailing` at once,
/// finite ones are queued on `scratch.ring_ops` for the caller's next
/// [`SlotRing::apply_queued`]. The delta must not alias `scratch.delta`
/// (callers `mem::take` it first).
pub fn route_delta(
    delta: &PeriodDelta,
    trailing: &mut TrailingSet,
    scratch: &mut Scratch,
    ops: &mut OpStats,
) {
    for p in &delta.removed {
        if p.end.is_inf() {
            let removed = trailing.remove(p, ops);
            debug_assert!(removed, "trailing period {p:?} missing");
        } else {
            scratch.ring_ops.push(PeriodOp::Remove(*p));
        }
    }
    for p in &delta.added {
        if p.end.is_inf() {
            trailing.insert(p, ops);
        } else {
            scratch.ring_ops.push(PeriodOp::Insert(*p));
        }
    }
}

/// Where one finite period is stored: the inclusive live-slot range it was
/// clamped to at insert time. Removal and eviction re-derive the same
/// canonical-node decomposition from it, so the period always leaves
/// exactly the nodes it entered.
#[derive(Clone, Copy, Debug)]
struct Coverage {
    period: IdlePeriod,
    first: SlotIdx,
    last: SlotIdx,
}

/// The marks of one logical Phase 1 run across a stabbing path: each
/// visited non-empty canonical tree contributes a contiguous segment of the
/// shared `marked` buffer. Phase 2 replays the segments tree by tree (all
/// the marks are nodes of the one store). Plain reusable data, like every
/// [`Scratch`] buffer: cleared and refilled per query, allocation-free
/// once warm.
#[derive(Clone, Debug, Default)]
pub struct StabMarks {
    /// `bounds[i]` = end of the `i`-th visited tree's segment within
    /// `marked`.
    bounds: Vec<u32>,
    /// Concatenated per-tree marked subtrees, in marking order.
    marked: Vec<MarkedNode>,
}

impl StabMarks {
    fn clear(&mut self) {
        self.bounds.clear();
        self.marked.clear();
    }
}

/// Segment tree of `2M` slot trees covering the `Q` live slots.
#[derive(Clone, Debug)]
pub struct SlotRing {
    cfg: SlotConfig,
    /// Index of the first live slot.
    base: SlotIdx,
    /// Leaf count `M`: `num_slots` padded to a power of two. Leaf positions
    /// are absolute slot indices modulo `M`.
    span: usize,
    /// `2 * span` canonical nodes, 1-indexed heap layout (`nodes[0]` is
    /// unused); node `i`'s children are `2i` and `2i + 1`, leaf for
    /// position `p` is `span + p`. Each is a handle into `store`.
    nodes: Vec<SlotTree>,
    /// The nodes and secondary blocks of every canonical tree.
    store: TreeStore,
    /// Node `i`'s tree lays its secondary blocks out with
    /// `node_seed(seed, i)`.
    seed: u64,
    /// Periods currently stored, keyed by id, with their insert-time slot
    /// range (`O(N)` — the one copy-independent record of each period).
    cover: IdMap<u64, Coverage>,
    /// `num_slots` buckets; bucket `i` holds the ids whose last covered
    /// slot is `base + i`, so each advance drains exactly one bucket.
    expiry: VecDeque<Vec<u64>>,
    /// Test oracle: never defer (see [`SlotRing::force_eager`]).
    eager_only: bool,
}

impl SlotRing {
    /// Create the ring at `origin` with all-empty canonical trees (at
    /// start-up every server's availability is one trailing period, which
    /// lives in the trailing index, not here).
    pub fn new(cfg: SlotConfig, origin: Time, seed: u64) -> SlotRing {
        let base = cfg.slot_of(origin);
        let span = cfg.num_slots.next_power_of_two();
        let expiry = (0..cfg.num_slots).map(|_| Vec::new()).collect();
        SlotRing {
            cfg,
            base,
            span,
            nodes: vec![SlotTree::new(); 2 * span],
            store: TreeStore::new(),
            seed,
            cover: IdMap::default(),
            expiry,
            eager_only: false,
        }
    }

    /// Make every batch take the one-update-at-a-time path, whatever its
    /// size. The state is the same either way; differential tests use this
    /// ring as the reference for the batched one.
    #[doc(hidden)]
    pub fn force_eager(&mut self) {
        self.eager_only = true;
    }

    fn node_seed(seed: u64, i: usize) -> u64 {
        seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
    }

    /// Slot geometry.
    pub fn config(&self) -> SlotConfig {
        self.cfg
    }

    /// First live slot.
    pub fn first_slot(&self) -> SlotIdx {
        self.base
    }

    /// One past the last live slot.
    pub fn end_slot(&self) -> SlotIdx {
        SlotIdx(self.base.0 + self.cfg.num_slots as i64)
    }

    /// First instant covered by the live window.
    pub fn window_start(&self) -> Time {
        self.cfg.slot_start(self.base)
    }

    /// The end of the horizon: nothing can be scheduled at or beyond this.
    pub fn horizon_end(&self) -> Time {
        self.cfg.slot_start(self.end_slot())
    }

    /// Whether slot `q` is inside the live window.
    pub fn is_live(&self, q: SlotIdx) -> bool {
        q >= self.base && q < self.end_slot()
    }

    /// Number of stored periods overlapping live slot `q`, or `None` if the
    /// slot is not live. `O(N)` over the cover map — test/diagnostic helper,
    /// not a query path.
    pub fn slot_len(&self, q: SlotIdx) -> Option<usize> {
        if !self.is_live(q) {
            return None;
        }
        Some(
            self.cover
                .values()
                .filter(|c| c.first <= q && q <= c.last)
                .count(),
        )
    }

    /// Number of distinct finite periods currently indexed by the ring.
    pub fn resident_periods(&self) -> usize {
        self.cover.len()
    }

    /// Total per-tree period entries across all canonical nodes (each
    /// period appears in `O(log Q)` of them). `O(1)`: the store counts
    /// them.
    pub fn resident_entries(&self) -> usize {
        self.store.entries()
    }

    /// The store the canonical trees share: its entries, peak entries,
    /// node slots and bytes.
    pub fn store(&self) -> &TreeStore {
        &self.store
    }

    /// Number of canonical segment-tree nodes backing the ring.
    pub fn segment_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf position of an absolute slot index: modulo `span`, so the live
    /// window (at most `num_slots <= span` slots) never self-overlaps.
    fn pos(&self, q: SlotIdx) -> usize {
        q.0.rem_euclid(self.span as i64) as usize
    }

    /// Feed the canonical-node decomposition of the leaf-position range
    /// `[a, b]` (non-wrapping, inclusive) to `sink`.
    fn canonical_range(&self, a: usize, b: usize, sink: &mut impl FnMut(u32)) {
        let mut l = a + self.span;
        let mut r = b + self.span + 1;
        while l < r {
            if l & 1 == 1 {
                sink(l as u32);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                sink(r as u32);
            }
            l >>= 1;
            r >>= 1;
        }
    }

    /// Feed the canonical nodes covering the absolute slot range
    /// `[first, last]` (inclusive, at most `span` slots long — it may wrap
    /// once around the modulus) to `sink`.
    fn canonical(&self, first: SlotIdx, last: SlotIdx, mut sink: impl FnMut(u32)) {
        debug_assert!(first <= last && (last.0 - first.0) < self.span as i64);
        let a = self.pos(first);
        let b = self.pos(last);
        if a <= b {
            self.canonical_range(a, b, &mut sink);
        } else {
            self.canonical_range(a, self.span - 1, &mut sink);
            self.canonical_range(0, b, &mut sink);
        }
    }

    /// The inclusive live-slot range overlapped by a period, or `None` if the
    /// period misses the live window entirely.
    fn live_slots(&self, p: &IdlePeriod) -> Option<(SlotIdx, SlotIdx)> {
        let (first, last) = self.cfg.slots_overlapping(p.start, p.end)?;
        let first = SlotIdx(first.0.max(self.base.0));
        let last = SlotIdx(last.0.min(self.end_slot().0 - 1));
        (first <= last).then_some((first, last))
    }

    /// Apply an ordered list of finite-period removals and insertions — the
    /// one write entry of the ring. An insertion stores the period in the
    /// `O(log Q)` canonical nodes covering its live-slot range; a removal
    /// takes it out of exactly those. The cover map and expiry buckets are
    /// updated update by update; the tree work is regrouped per canonical
    /// tree, each tree receiving its updates in batch order. Trees share
    /// only the store, and which slots of it a tree's nodes take changes
    /// no tree, so the ring ends in exactly the state the same updates
    /// applied one call at a time leave behind.
    ///
    /// Insertions outside the live window and removals of unknown periods
    /// (never stored, or already evicted) are ignored, as ever.
    pub fn apply_batch(&mut self, batch: &[PeriodOp], scratch: &mut Scratch, ops: &mut OpStats) {
        debug_assert!(scratch.tree_ops.is_empty());
        for (seq, &op) in batch.iter().enumerate() {
            let (first, last) = match op {
                PeriodOp::Insert(p) => {
                    debug_assert!(!p.end.is_inf(), "trailing periods live in TrailingSet");
                    let Some((first, last)) = self.live_slots(&p) else {
                        continue;
                    };
                    ops.ring_period_inserts += 1;
                    let prev = self.cover.insert(
                        p.id.0,
                        Coverage {
                            period: p,
                            first,
                            last,
                        },
                    );
                    debug_assert!(prev.is_none(), "period {p:?} inserted twice");
                    self.expiry[(last.0 - self.base.0) as usize].push(p.id.0);
                    (first, last)
                }
                PeriodOp::Remove(p) => {
                    debug_assert!(!p.end.is_inf(), "trailing periods live in TrailingSet");
                    // A miss leaves a tombstone id in some expiry bucket;
                    // advance skips it via its own failed cover lookup.
                    let Some(cov) = self.cover.remove(&p.id.0) else {
                        continue;
                    };
                    ops.ring_period_removes += 1;
                    (cov.first, cov.last)
                }
            };
            self.queue_tree_ops(first, last, seq, scratch);
        }
        self.apply_tree_ops(batch, scratch, ops);
    }

    /// [`SlotRing::apply_batch`] over the updates [`route_delta`] queued on
    /// `scratch.ring_ops`, leaving the queue empty.
    pub fn apply_queued(&mut self, scratch: &mut Scratch, ops: &mut OpStats) {
        let mut batch = std::mem::take(&mut scratch.ring_ops);
        self.apply_batch(&batch, scratch, ops);
        batch.clear();
        scratch.ring_ops = batch;
    }

    /// Queue update `seq` of the batch for every canonical tree of the
    /// slot range.
    fn queue_tree_ops(&self, first: SlotIdx, last: SlotIdx, seq: usize, scratch: &mut Scratch) {
        let routed = &mut scratch.tree_ops;
        self.canonical(first, last, |n| {
            routed.push(u64::from(n) << 32 | seq as u64)
        });
    }

    /// Run the queued per-tree updates of `batch`, tree by tree, choosing
    /// per tree between the eager and the deferred path from the number of
    /// updates it receives and its size alone.
    fn apply_tree_ops(&mut self, batch: &[PeriodOp], scratch: &mut Scratch, ops: &mut OpStats) {
        let mut routed = std::mem::take(&mut scratch.tree_ops);
        // Keys are unique, so the unstable sort is a stable one by tree.
        routed.sort_unstable();
        let mut deferred = 0u64;
        for group in routed.chunk_by(|a, b| a >> 32 == b >> 32) {
            let i = (group[0] >> 32) as usize;
            let tree = &mut self.nodes[i];
            let defer = !self.eager_only && defer_pays(group.len(), tree.len());
            scratch.batch_sizes.push(group.len() as u64);
            deferred += defer as u64;
            let updates = group.iter().map(|&key| batch[key as u32 as usize]);
            let seed = Self::node_seed(self.seed, i);
            tree.apply_ops(&mut self.store, seed, updates, defer, scratch, ops);
        }
        if deferred > 0 {
            BATCHES_DEFERRED.add(deferred);
        }
        publish(&BATCH_OPS, &mut scratch.batch_sizes);
        routed.clear();
        scratch.tree_ops = routed;
    }

    /// Advance the ring so that `now` lies in the first live slot,
    /// allocating private scratch space. Prefer
    /// [`SlotRing::advance_to_with`] on hot paths.
    pub fn advance_to(&mut self, now: Time, ops: &mut OpStats) {
        let mut scratch = Scratch::new();
        self.advance_to_with(now, &mut scratch, ops);
    }

    /// Advance the live window: bump the base slot and evict the periods
    /// whose last covered slot expired — the amortized-O(1) equivalent of
    /// the paper's discard-and-initialize step (each period is evicted at
    /// most once in its lifetime, and the freshly exposed horizon-edge slot
    /// needs no initialization at all). Each expired slot's evictions are
    /// one batch, in bucket order. A drained bucket starts its next slot
    /// empty, so no bucket keeps the capacity of its busiest slot.
    pub fn advance_to_with(&mut self, now: Time, scratch: &mut Scratch, ops: &mut OpStats) {
        let target = self.cfg.slot_of(now);
        // The evictions are listed after anything already queued there.
        let mut evicted = std::mem::take(&mut scratch.ring_ops);
        let queued = evicted.len();
        while self.base < target {
            let bucket = self.expiry.pop_front().expect("Q expiry buckets");
            self.base = self.base.next();
            for id in bucket {
                let Some(cov) = self.cover.remove(&id) else {
                    continue; // explicitly removed earlier; stale bucket id
                };
                ops.ring_evictions += 1;
                let seq = evicted.len() - queued;
                evicted.push(PeriodOp::Remove(cov.period));
                self.queue_tree_ops(cov.first, cov.last, seq, scratch);
            }
            self.expiry.push_back(Vec::new());
            self.apply_tree_ops(&evicted[queued..], scratch, ops);
            evicted.truncate(queued);
        }
        scratch.ring_ops = evicted;
    }

    // ------------------------------------------------------------------
    // Stabbing-path queries
    // ------------------------------------------------------------------

    /// One logical Phase 1 at live slot `q`: walk the leaf-to-root stabbing
    /// path, run the subtree-size candidate count in every non-empty tree
    /// on it, and record the per-tree marked segments in `stab` for Phase 2.
    /// Returns the summed candidate count.
    ///
    /// The count may include *aliased* periods (stored for a long-expired
    /// slot that maps to the same leaf modulo `M`); those always fail the
    /// Phase-2 end check, so callers using the count only for the
    /// `candidates < n` early exit reach the same reject either way (see
    /// DESIGN.md §12).
    pub fn phase1_candidates_into(
        &self,
        q: SlotIdx,
        start: Time,
        stab: &mut StabMarks,
        ops: &mut OpStats,
    ) -> usize {
        assert!(self.is_live(q), "slot {q:?} outside the live window");
        ops.phase1_searches += 1;
        stab.clear();
        let mut count = 0usize;
        let mut i = self.span + self.pos(q);
        loop {
            let tree = &self.nodes[i];
            if !tree.is_empty() {
                count += tree.phase1_candidates_append(&self.store, start, &mut stab.marked, ops);
                stab.bounds.push(stab.marked.len() as u32);
            }
            if i == 1 {
                break;
            }
            i >>= 1;
        }
        count
    }

    /// One logical Phase 2 over the marks of a preceding
    /// [`SlotRing::phase1_candidates_into`]: append the ids of feasible
    /// periods (`et_i >= end`) to `out`, tree by tree along the stabbing
    /// path.
    pub fn phase2_feasible_into(
        &self,
        end: Time,
        stab: &StabMarks,
        out: &mut Vec<PeriodId>,
        ops: &mut OpStats,
    ) {
        ops.phase2_searches += 1;
        let mut lo = 0usize;
        for &hi in &stab.bounds {
            let hi = hi as usize;
            SlotTree::phase2_collect(&self.store, &stab.marked[lo..hi], end, out, ops);
            lo = hi;
        }
    }

    /// Count (without retrieving) the feasible periods among the Phase-1
    /// marks — the counting twin of [`SlotRing::phase2_feasible_into`].
    pub fn count_feasible(&self, end: Time, stab: &StabMarks, ops: &mut OpStats) -> usize {
        SlotTree::count_feasible(&self.store, &stab.marked, end, ops)
    }

    /// Convenience composition of both phases: append every feasible period
    /// id for a job occupying `[start, end)` at live slot `q`.
    pub fn find_feasible_into(
        &self,
        q: SlotIdx,
        start: Time,
        end: Time,
        stab: &mut StabMarks,
        out: &mut Vec<PeriodId>,
        ops: &mut OpStats,
    ) {
        let count = self.phase1_candidates_into(q, start, stab, ops);
        if count > 0 {
            self.phase2_feasible_into(end, stab, out, ops);
        }
    }

    /// Leaf order and structural fingerprint of every non-empty canonical
    /// tree (see [`SlotTree::fingerprint`]), for state-identity tests.
    #[doc(hidden)]
    pub fn fingerprint(&self) -> Vec<(usize, Vec<IdlePeriod>, TreeFingerprint)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_empty())
            .map(|(i, t)| {
                (
                    i,
                    t.periods_in_order(&self.store),
                    t.fingerprint(&self.store),
                )
            })
            .collect()
    }

    /// Check the segment-tree coverage invariants against the timeline.
    /// Test helper; panics on violation. `O(Q * N log Q)` — use on small
    /// systems.
    ///
    /// 1. The cover map holds exactly the timeline's finite periods
    ///    overlapping the live window.
    /// 2. Every covered period is stored in exactly the canonical nodes of
    ///    its recorded slot range (no strays anywhere in the segment tree).
    /// 3. Per live slot, the stabbing-path union contains exactly the
    ///    periods overlapping that slot, plus only *benign* aliases (last
    ///    covered slot strictly in the past, hence never Phase-2 feasible).
    /// 4. Expiry buckets cover every stored period at its last slot.
    /// 5. The store holds exactly the trees' nodes and blocks: nothing
    ///    leaks (see [`TreeStore::check`]).
    #[doc(hidden)]
    pub fn check_mirror(&self, timeline: &Timeline) {
        use std::collections::{BTreeMap, BTreeSet};
        let (ws, he) = (self.window_start(), self.horizon_end());
        let mut live: BTreeMap<u64, IdlePeriod> = BTreeMap::new();
        for s in 0..timeline.num_servers() {
            for p in timeline.idle_periods(crate::ids::ServerId(s)) {
                if !p.end.is_inf() && p.start < he && p.end > ws {
                    live.insert(p.id.0, p);
                }
            }
        }
        // 1. Cover map == live finite periods; ranges are sane.
        let covered: BTreeSet<u64> = self.cover.keys().copied().collect();
        let expected: BTreeSet<u64> = live.keys().copied().collect();
        assert_eq!(covered, expected, "cover map out of sync with timeline");
        for (id, cov) in &self.cover {
            let p = &live[id];
            assert_eq!(cov.period.id.0, *id);
            assert!(cov.first <= cov.last);
            assert!(cov.last >= self.base && cov.last < self.end_slot());
            assert!(cov.first >= self.cfg.slot_of(p.start));
            // first = max(slot_of(start), base-at-insert) for some past base.
            assert!(
                cov.first == self.cfg.slot_of(p.start) || cov.first <= self.base,
                "cover range start of {p:?} matches neither its slot nor a past base"
            );
            assert_eq!(
                cov.last.0,
                self.cfg.slot_of(Time(p.end.0 - 1)).0.min(cov.last.0)
            );
        }
        // 2. Exact canonical storage: node -> ids from the trees must equal
        // node -> ids recomputed from the cover map.
        let mut stored: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
        for (n, tree) in self.nodes.iter().enumerate() {
            tree.check_invariants(&self.store, Self::node_seed(self.seed, n));
            for p in tree.periods_in_order(&self.store) {
                assert!(
                    stored.entry(n as u32).or_default().insert(p.id.0),
                    "duplicate period {p:?} in node {n}"
                );
            }
        }
        let mut want: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
        for (id, cov) in &self.cover {
            self.canonical(cov.first, cov.last, |n| {
                assert!(
                    want.entry(n).or_default().insert(*id),
                    "canonical decomposition of {cov:?} repeats node {n}"
                );
            });
        }
        assert_eq!(stored, want, "canonical-node storage out of sync");
        // 3. Stabbing unions per live slot.
        for i in 0..self.cfg.num_slots {
            let q = SlotIdx(self.base.0 + i as i64);
            let (lo, hi) = (self.cfg.slot_start(q), self.cfg.slot_end(q));
            let overlap: BTreeSet<u64> = live
                .values()
                .filter(|p| p.start < hi && p.end > lo)
                .map(|p| p.id.0)
                .collect();
            let by_range: BTreeSet<u64> = self
                .cover
                .iter()
                .filter(|(_, c)| c.first <= q && q <= c.last)
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(
                by_range, overlap,
                "cover ranges disagree with overlap in slot {q:?}"
            );
            let mut stab = BTreeSet::new();
            let mut n = self.span + self.pos(q);
            loop {
                stab.extend(
                    self.nodes[n]
                        .periods_in_order(&self.store)
                        .iter()
                        .map(|p| p.id.0),
                );
                if n == 1 {
                    break;
                }
                n >>= 1;
            }
            assert!(
                stab.is_superset(&overlap),
                "stabbing path at slot {q:?} misses covered periods"
            );
            for id in stab.difference(&overlap) {
                let cov = &self.cover[id];
                assert!(
                    cov.last < q,
                    "alias {:?} on the stabbing path of slot {q:?} is not benign",
                    cov.period
                );
            }
        }
        // 4. Expiry buckets reference every stored period at its last slot.
        for (id, cov) in &self.cover {
            let bucket = &self.expiry[(cov.last.0 - self.base.0) as usize];
            assert!(
                bucket.contains(id),
                "period {:?} missing from its expiry bucket",
                cov.period
            );
        }
        // 5. No leak in the store.
        self.store.check(&self.nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{JobId, PeriodId, ServerId};
    use crate::time::Dur;

    fn setup(n: u32, tau: i64, slots: usize) -> (Timeline, SlotRing, OpStats) {
        let ops = OpStats::new();
        let cfg = SlotConfig::new(Dur(tau), Dur(tau * slots as i64));
        let tl = Timeline::new(n, Time::ZERO);
        let ring = SlotRing::new(cfg, Time::ZERO, 0xC0FFEE);
        (tl, ring, ops)
    }

    /// Route a timeline delta the way the scheduler does: finite periods to
    /// the ring, trailing ones dropped (they belong to the TrailingSet).
    fn apply_finite(ring: &mut SlotRing, delta: &crate::timeline::PeriodDelta, ops: &mut OpStats) {
        let finite = |p: &&IdlePeriod| !p.end.is_inf();
        let batch: Vec<PeriodOp> = (delta
            .removed
            .iter()
            .filter(finite)
            .map(|p| PeriodOp::Remove(*p)))
        .chain(
            delta
                .added
                .iter()
                .filter(finite)
                .map(|p| PeriodOp::Insert(*p)),
        )
        .collect();
        ring.apply_batch(&batch, &mut Scratch::new(), ops);
    }

    /// The finite fragment created by a reservation (reserving the middle
    /// of a trailing period removes it and adds hole + new tail).
    fn finite_added(delta: &crate::timeline::PeriodDelta) -> IdlePeriod {
        *delta
            .added
            .iter()
            .find(|p| !p.end.is_inf())
            .expect("delta adds a finite fragment")
    }

    /// Feasible-set query via the public stabbing-path API.
    fn feasible_ids(ring: &SlotRing, q: SlotIdx, start: Time, end: Time) -> Vec<u64> {
        let mut stab = StabMarks::default();
        let mut out = Vec::new();
        let mut ops = OpStats::new();
        ring.find_feasible_into(q, start, end, &mut stab, &mut out, &mut ops);
        let mut ids: Vec<u64> = out.iter().map(|id| id.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn fresh_ring_is_empty_and_mirrors_fully_idle_timeline() {
        let (tl, ring, _) = setup(4, 10, 5);
        ring.check_mirror(&tl);
        assert_eq!(ring.window_start(), Time::ZERO);
        assert_eq!(ring.horizon_end(), Time(50));
        assert_eq!(ring.slot_len(SlotIdx(0)), Some(0));
        assert_eq!(ring.slot_len(SlotIdx(5)), None);
        assert_eq!(ring.slot_len(SlotIdx(-1)), None);
        assert_eq!(ring.resident_periods(), 0);
        assert_eq!(ring.resident_entries(), 0);
        // Q = 5 pads to M = 8 leaves: 16 canonical nodes.
        assert_eq!(ring.segment_nodes(), 16);
    }

    #[test]
    fn reserve_covers_only_finite_fragments() {
        let (mut tl, mut ring, mut ops) = setup(2, 10, 5);
        let p = tl.trailing_period(ServerId(0));
        // Reserve [12, 25) on server 0: fragments are [0, 12) — finite,
        // slots 0..=1 — and [25, inf) — trailing, NOT stored here.
        let delta = tl.reserve(p.id, JobId(1), Time(12), Time(25));
        apply_finite(&mut ring, &delta, &mut ops);
        ring.check_mirror(&tl);
        assert_eq!(ring.slot_len(SlotIdx(0)), Some(1)); // [0,12)
        assert_eq!(ring.slot_len(SlotIdx(1)), Some(1));
        assert_eq!(ring.slot_len(SlotIdx(2)), Some(0));
        assert_eq!(ring.resident_periods(), 1);
        assert_eq!(ops.ring_period_inserts, 1);
        // One logical period, O(log Q) canonical copies — never one per slot.
        assert!(ring.resident_entries() <= 2);
    }

    #[test]
    fn advance_evicts_expired_periods() {
        let (mut tl, mut ring, mut ops) = setup(3, 10, 4);
        let p = tl.trailing_period(ServerId(1));
        let delta = tl.reserve(p.id, JobId(7), Time(5), Time(18));
        apply_finite(&mut ring, &delta, &mut ops);
        ring.check_mirror(&tl);
        assert_eq!(ring.resident_periods(), 1); // [0, 5): slot 0 only
                                                // Advance two slots: [0, 5) expired with slot 0.
        ring.advance_to(Time(25), &mut ops);
        assert_eq!(ring.first_slot(), SlotIdx(2));
        assert_eq!(ring.horizon_end(), Time(60));
        assert_eq!(ops.ring_evictions, 1);
        assert_eq!(ring.resident_periods(), 0);
        assert_eq!(ring.resident_entries(), 0);
        tl.prune_before(ring.window_start());
        ring.check_mirror(&tl);
        assert_eq!(ring.slot_len(SlotIdx(5)), Some(0));
    }

    #[test]
    fn advance_is_idempotent_within_a_slot() {
        let (tl, mut ring, mut ops) = setup(2, 10, 4);
        ring.advance_to(Time(9), &mut ops);
        assert_eq!(ring.first_slot(), SlotIdx(0));
        ring.advance_to(Time(10), &mut ops);
        assert_eq!(ring.first_slot(), SlotIdx(1));
        ring.advance_to(Time(10), &mut ops);
        assert_eq!(ring.first_slot(), SlotIdx(1));
        ring.check_mirror(&tl);
    }

    #[test]
    fn release_merge_propagates_to_trees() {
        let (mut tl, mut ring, mut ops) = setup(2, 10, 6);
        let p = tl.trailing_period(ServerId(0));
        let d1 = tl.reserve(p.id, JobId(1), Time(10), Time(30));
        apply_finite(&mut ring, &d1, &mut ops);
        ring.check_mirror(&tl);
        let d2 = tl.release(ServerId(0), JobId(1), Time(10), Time(30));
        apply_finite(&mut ring, &d2, &mut ops);
        ring.check_mirror(&tl);
        // Back to no finite periods at all.
        assert_eq!(ring.resident_periods(), 0);
        assert_eq!(ring.resident_entries(), 0);
        for q in 0..6 {
            assert_eq!(ring.slot_len(SlotIdx(q)), Some(0));
        }
    }

    #[test]
    fn sandwiched_finite_period_spans_its_slots() {
        let (mut tl, mut ring, mut ops) = setup(1, 10, 6);
        let p = tl.trailing_period(ServerId(0));
        let d1 = tl.reserve(p.id, JobId(1), Time(0), Time(10));
        apply_finite(&mut ring, &d1, &mut ops);
        let tail = d1.added[0]; // [10, inf)
        let d2 = tl.reserve(tail.id, JobId(2), Time(40), Time(50));
        apply_finite(&mut ring, &d2, &mut ops);
        ring.check_mirror(&tl);
        // The finite hole [10, 40) lives in slots 1..=3 only.
        assert_eq!(ring.slot_len(SlotIdx(0)), Some(0));
        for q in 1..=3 {
            assert_eq!(ring.slot_len(SlotIdx(q)), Some(1), "slot {q}");
        }
        assert_eq!(ring.slot_len(SlotIdx(4)), Some(0));
        // Stabbing queries agree: the hole is feasible from any of its
        // slots, invisible outside them.
        let hole = finite_added(&d2);
        assert_eq!(
            feasible_ids(&ring, SlotIdx(1), Time(10), Time(40)),
            vec![hole.id.0]
        );
        assert_eq!(
            feasible_ids(&ring, SlotIdx(3), Time(35), Time(40)),
            vec![hole.id.0]
        );
        assert_eq!(
            feasible_ids(&ring, SlotIdx(4), Time(45), Time(50)),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn period_outside_live_window_is_ignored() {
        let (_tl, mut ring, mut ops) = setup(1, 10, 4);
        let mut ring2 = ring.clone();
        ring.advance_to(Time(35), &mut ops);
        let ghost = IdlePeriod {
            id: PeriodId(999),
            server: ServerId(0),
            start: Time(0),
            end: Time(29),
        };
        let mut scratch = Scratch::new();
        ring.apply_batch(
            &[PeriodOp::Insert(ghost), PeriodOp::Remove(ghost)],
            &mut scratch,
            &mut ops,
        );
        assert_eq!(ops.ring_period_inserts, 0);
        assert_eq!(ops.ring_period_removes, 0);
        let beyond = IdlePeriod {
            id: PeriodId(998),
            server: ServerId(0),
            start: Time(100),
            end: Time(120),
        };
        ring2.apply_batch(&[PeriodOp::Insert(beyond)], &mut scratch, &mut ops);
        assert_eq!(ring2.slot_len(SlotIdx(3)), Some(0));
    }

    #[test]
    fn wrapped_coverage_stays_consistent_across_rotation() {
        // Rotate the window far enough that period coverage wraps the
        // power-of-two leaf modulus, then check storage and queries.
        let (mut tl, mut ring, mut ops) = setup(1, 10, 6); // M = 8
        ring.advance_to(Time(50), &mut ops); // base slot 5; window [50, 110)
        tl.prune_before(Time(50));
        let p = tl.trailing_period(ServerId(0));
        let d1 = tl.reserve(p.id, JobId(1), Time(50), Time(60));
        apply_finite(&mut ring, &d1, &mut ops);
        // The reservation also leaves a dead front fragment [0, 50), which
        // the ring ignores (it ends at the window start).
        let tail = *d1.added.iter().find(|p| p.end.is_inf()).unwrap(); // [60, inf)
                                                                       // Hole [60, 100) covers slots 6..=9 — positions 6, 7, 0, 1: wrapped.
        let d2 = tl.reserve(tail.id, JobId(2), Time(100), Time(110));
        apply_finite(&mut ring, &d2, &mut ops);
        ring.check_mirror(&tl);
        let hole = finite_added(&d2);
        assert_eq!(
            feasible_ids(&ring, SlotIdx(6), Time(60), Time(100)),
            vec![hole.id.0]
        );
        assert_eq!(
            feasible_ids(&ring, SlotIdx(9), Time(95), Time(100)),
            vec![hole.id.0]
        );
        // Slot 5 precedes the hole: not feasible there.
        assert_eq!(
            feasible_ids(&ring, SlotIdx(5), Time(55), Time(60)),
            Vec::<u64>::new()
        );
        // Advance across the hole: it is evicted exactly when slot 9 dies.
        ring.advance_to(Time(90), &mut ops);
        assert_eq!(ring.resident_periods(), 1);
        ring.advance_to(Time(100), &mut ops);
        assert_eq!(ring.resident_periods(), 0);
        assert_eq!(ring.resident_entries(), 0);
        tl.prune_before(ring.window_start());
        ring.check_mirror(&tl);
    }

    #[test]
    fn aliased_periods_are_never_feasible() {
        // A period stored for slot q must not satisfy queries at q + k*M
        // after rotation, even though both map to the same leaf.
        let (mut tl, mut ring, mut ops) = setup(1, 10, 6); // M = 8
        let p = tl.trailing_period(ServerId(0));
        let d1 = tl.reserve(p.id, JobId(1), Time(0), Time(10));
        apply_finite(&mut ring, &d1, &mut ops);
        let tail = d1.added[0];
        let d2 = tl.reserve(tail.id, JobId(2), Time(30), Time(40));
        apply_finite(&mut ring, &d2, &mut ops);
        let hole = finite_added(&d2); // [10, 30): slots 1..=2
        assert_eq!(
            feasible_ids(&ring, SlotIdx(1), Time(10), Time(30)),
            vec![hole.id.0]
        );
        // Rotate so slot 9 (position 1 mod 8) becomes live while the hole,
        // now expired, would still be on the stabbing path if not evicted.
        // Eviction removes it; even *before* eviction the Phase-2 end check
        // rejects it (end 30 < any live query's end), which check_mirror's
        // benign-alias rule asserts structurally. Here, after advance, the
        // union is simply empty.
        ring.advance_to(Time(40), &mut ops);
        tl.prune_before(Time(40));
        ring.check_mirror(&tl);
        assert_eq!(
            feasible_ids(&ring, SlotIdx(9), Time(90), Time(95)),
            Vec::<u64>::new()
        );
        assert_eq!(ring.resident_periods(), 0);
    }

    #[test]
    fn canonical_copies_stay_logarithmic() {
        // A period spanning all Q slots costs O(log Q) canonical entries,
        // not Q mirrored copies.
        let (mut tl, mut ring, mut ops) = setup(1, 10, 64); // M = 64
        let p = tl.trailing_period(ServerId(0));
        let d1 = tl.reserve(p.id, JobId(1), Time(0), Time(10));
        apply_finite(&mut ring, &d1, &mut ops);
        let tail = d1.added[0];
        let d2 = tl.reserve(tail.id, JobId(2), Time(630), Time(640));
        apply_finite(&mut ring, &d2, &mut ops);
        ring.check_mirror(&tl);
        // Reserving [0, 10) leaves no front fragment, so the spanning hole
        // [10, 630) — slots 1..=62 — is the only resident period, and its
        // canonical decomposition is at most 2 * log2(64) = 12 nodes.
        assert_eq!(ring.resident_periods(), 1);
        assert!(
            ring.resident_entries() <= 12,
            "entries {} exceed the canonical bound",
            ring.resident_entries()
        );
        let before = ops.update_visits;
        let d3 = tl.release(ServerId(0), JobId(2), Time(630), Time(640));
        apply_finite(&mut ring, &d3, &mut ops);
        ring.check_mirror(&tl);
        // Removing the spanning hole touched O(log Q) trees, far fewer than
        // the 62 per-slot copies the mirrored design would pay.
        assert!(ops.update_visits - before < 62 * 2);
    }

    /// The store's node slots never exceed twice the most entries the
    /// trees have held at once, however the periods move between trees: a
    /// seeded churn of reservations and releases over 20 wraps of the
    /// ring, checked after every batch, with the leak check on the way.
    /// The store counts its peak itself: a batch regroups its updates per
    /// tree, so one tree's inserts can come before another's removes, and
    /// the peak inside a batch can pass any count seen between batches.
    #[test]
    fn store_follows_the_peak_entries_across_wraps() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (slots, tau) = (16, 10);
        let window = tau * slots as i64;
        let (mut tl, mut ring, mut ops) = setup(12, tau, slots);
        let mut rng = SmallRng::seed_from_u64(0x5709E);
        let mut scratch = Scratch::new();
        let mut held: Vec<(ServerId, JobId, Time, Time)> = Vec::new();
        let (mut seen, mut now, mut jobs, mut batches) = (0, 0i64, 0u64, 0u64);
        let mut after_batch = |ring: &SlotRing, seen: &mut usize| {
            *seen = (*seen).max(ring.resident_entries());
            let store = ring.store();
            assert!(store.peak_entries() >= *seen, "peak entries");
            assert!(
                store.node_slots() <= 2 * store.peak_entries(),
                "{} node slots for a peak of {} entries",
                store.node_slots(),
                store.peak_entries()
            );
            batches += 1;
            batches
        };
        while now < 20 * window {
            now += rng.random_range(0..2 * tau);
            ring.advance_to_with(Time(now), &mut scratch, &mut ops);
            tl.prune_before(ring.window_start());
            after_batch(&ring, &mut seen);
            held.retain(|&(.., start, _)| start >= ring.window_start());
            for _ in 0..rng.random_range(1..10) {
                let delta = if !held.is_empty() && rng.random_bool(0.45) {
                    let (server, job, start, end) =
                        held.swap_remove(rng.random_range(0..held.len()));
                    tl.release(server, job, start, end)
                } else {
                    let server = ServerId(rng.random_range(0..12));
                    let start = Time(now + rng.random_range(0..window - 5));
                    let end = start + Dur(rng.random_range(1..=(now + window - start.0).min(60)));
                    let Some(p) = tl.covering_idle(server, start, end) else {
                        continue;
                    };
                    jobs += 1;
                    held.push((server, JobId(jobs), start, end));
                    tl.reserve(p.id, JobId(jobs), start, end)
                };
                apply_finite(&mut ring, &delta, &mut ops);
                if after_batch(&ring, &mut seen) % 101 == 0 {
                    ring.check_mirror(&tl);
                }
            }
        }
        assert!(ops.ring_evictions > 0 && seen > 0);
        ring.check_mirror(&tl);
    }
}
