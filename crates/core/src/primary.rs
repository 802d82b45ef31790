//! The 2-dimensional tree of one slot: primary tree `T_q^s` over starting
//! times (descending) with a secondary tree `T_q^e(u)` per internal node.
//!
//! The paper stores idle periods in the *leaves* of a balanced search tree;
//! every internal node `u` records the median starting time, the size of its
//! subtree, and a pointer to a secondary tree holding the same periods in
//! ascending ending-time order (Section 4.1).
//!
//! A secondary tree is a [`BlockSet`]: an order-statistic set stored in
//! blocks, all the secondaries of one slot tree sharing one
//! [`BlockArena`]. Its layout is a function of its keys, so any sequence of
//! updates leaves the set [`BlockSet::from_sorted`] builds over the same
//! keys.
//!
//! Here a node keeps that secondary tree only while its subtree holds more
//! than [`SCAN_MAX`] periods. At or below that size Phase 2 reads the
//! subtree's leaves directly and sorts the feasible ones by `(end, id)` —
//! the order the secondary tree would have listed them in — so the answers
//! are the same and the update path has nothing to maintain there. The
//! primary tree is the same tree either way (DESIGN.md §12, "Secondary
//! trees only where they pay").
//!
//! Rotations would invalidate the "secondary tree contains exactly `u`'s
//! subtree" invariant, so — as in classical dynamic range trees — balance is
//! maintained by *partial rebuilds* (scapegoat / weight-balanced style):
//! an insert or delete walks one root-to-leaf path, updating each ancestor's
//! secondary tree in `O(log n)`, and occasionally stops at the highest node
//! the update leaves unbalanced and rebuilds its subtree with the update
//! merged in, which is `O(k log k)` for a subtree of `k` leaves and
//! amortizes to `O(log^2 n)` per update.
//!
//! A *batch* of updates to one tree ([`SlotTree::apply_ops`]) may instead
//! run **deferred**: every primary-tree step happens exactly as above (same
//! descents, same balance triggers, same rebuilds, hence the same shape),
//! but secondary trees on the touched paths are dropped rather than updated
//! and rebuilt once, bottom-up, when the batch ends. A secondary's layout
//! is a function of its key set alone (where its blocks end is a hash of
//! each period id), so the tree the batch leaves behind is the one the
//! eager path builds — see DESIGN.md §12, "Batched write path".

use crate::blockset::{BlockArena, BlockSet};
use crate::idle::{EndKey, IdlePeriod, StartKey};
use crate::ids::PeriodId;
use crate::scratch::{publish, Scratch};
use crate::stats::OpStats;
use crate::time::Time;

const NIL: u32 = u32::MAX;

static REBUILD_SIZE: obs::LazyHistogram = obs::LazyHistogram::new("tree_rebuild_size");

/// Weight-balance parameter: a subtree is rebuilt when one child holds more
/// than `ALPHA` of its weight. 0.7 trades rebuild frequency against height
/// (height <= log_{1/0.7} n ~ 1.94 log2 n).
const ALPHA_NUM: u64 = 7;
const ALPHA_DEN: u64 = 10;

#[derive(Clone, Debug)]
enum PNode {
    Leaf {
        period: IdlePeriod,
    },
    Internal {
        left: u32,
        right: u32,
        size: u32,
        /// Key of the last leaf (in descending-start order) of the left
        /// subtree; partitions the key space: left keys `<= split`, right
        /// keys `> split`. Plays the role of the paper's "median starting
        /// time". The bound may become stale after deletions but remains a
        /// valid partition.
        split: StartKey,
        secondary: BlockSet,
    },
    /// Free-list tombstone.
    Free,
}

/// One mutation of a batched index update (see [`SlotTree::apply_ops`] and
/// [`crate::ring::SlotRing::apply_batch`]).
#[derive(Clone, Copy, Debug)]
pub enum PeriodOp {
    /// The idle period no longer exists.
    Remove(IdlePeriod),
    /// The idle period now exists.
    Insert(IdlePeriod),
}

/// Whether a batch of `k` updates to a tree holding `m` periods is cheaper
/// deferred than eager. Eager pays `O(log^2 m)` per update plus the
/// secondary trees of every partial rebuild on the way; deferred pays for
/// the subtree sizes under the touched paths once, at most `O(m log m)`.
/// The constants are measured (EXPERIMENTS.md, "Batched write path", and
/// re-checked on the blocked sets in "One blocked ordered set"); the
/// inputs are the only two things the choice may depend on.
pub(crate) fn defer_pays(k: usize, m: usize) -> bool {
    k >= DEFER_MIN_OPS && k * DEFER_OPS_WEIGHT >= m
}

/// Whether an internal node of `size` periods whose children hold `a` and
/// `b` is weight-unbalanced: one child holds more than `ALPHA` of it.
fn unbalanced(a: u32, b: u32, size: u32) -> bool {
    (a.max(b) as u64) * ALPHA_DEN > (size as u64) * ALPHA_NUM
}

const DEFER_MIN_OPS: usize = 4;
const DEFER_OPS_WEIGHT: usize = 8;

/// An internal node keeps a secondary tree iff its subtree holds more than
/// this many periods; a smaller subtree is scanned. Decided from the node's
/// own `size` alone. Measured (EXPERIMENTS.md, "A durable grant without its
/// two taxes"): every doubling up to 64 buys throughput and memory on the
/// write path; past 64 that gain flattens while a probe of a large tree,
/// which scans up to twice this many leaves, pays linearly. 64 end keys
/// are a 1 KiB stack buffer.
pub const SCAN_MAX: usize = 64;
// A freshly split leaf is an internal node of two periods with no secondary.
const _: () = assert!(SCAN_MAX >= 2);

/// See [`SlotTree::fingerprint`].
#[doc(hidden)]
pub type TreeFingerprint = Vec<(u32, StartKey, Vec<EndKey>)>;

/// A reference to a subtree marked during Phase 1; all idle periods below a
/// marked node are *candidates* (`st_i <= s_r`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarkedNode(u32);

/// The 2-dimensional tree for one slot.
#[derive(Clone, Debug)]
pub struct SlotTree {
    nodes: Vec<PNode>,
    free: Vec<u32>,
    root: u32,
    arena: BlockArena<EndKey>,
    size: u32,
    /// High-water mark since the last full rebuild, for the scapegoat
    /// deletion rule.
    max_size_since_rebuild: u32,
}

impl SlotTree {
    /// An empty tree; `seed` determines the (deterministic) secondary-set
    /// layouts.
    pub fn new(seed: u64) -> SlotTree {
        SlotTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            arena: BlockArena::new(seed),
            size: 0,
            max_size_since_rebuild: 0,
        }
    }

    /// Build directly from an owned list of periods (used when a slot tree
    /// must be seeded wholesale, e.g. on snapshot restore), with the
    /// partial rebuilds' builder. Takes ownership so the periods are sorted
    /// in place. `O(k log k)`.
    pub fn from_periods(seed: u64, mut periods: Vec<IdlePeriod>, ops: &mut OpStats) -> SlotTree {
        let mut tree = SlotTree::new(seed);
        periods.sort_unstable_by_key(|p| p.start_key());
        tree.size = periods.len() as u32;
        tree.max_size_since_rebuild = tree.size;
        ops.periods_inserted += periods.len() as u64;
        let leaves: Vec<(StartKey, u32)> = periods
            .into_iter()
            .map(|period| (period.start_key(), tree.alloc(PNode::Leaf { period })))
            .collect();
        tree.root = tree.relink(&leaves, &mut Vec::new());
        tree.refresh_secondaries(tree.root, &mut Scratch::new(), ops);
        tree
    }

    /// Number of idle periods stored.
    pub fn len(&self) -> usize {
        self.size as usize
    }

    /// Whether the tree stores no periods.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    // ------------------------------------------------------------------
    // Allocation helpers
    // ------------------------------------------------------------------

    fn alloc(&mut self, node: PNode) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn dealloc(&mut self, i: u32) {
        if let PNode::Internal { mut secondary, .. } =
            std::mem::replace(&mut self.nodes[i as usize], PNode::Free)
        {
            secondary.clear(&mut self.arena);
        }
        self.free.push(i);
    }

    fn node_size(&self, i: u32) -> u32 {
        match &self.nodes[i as usize] {
            PNode::Leaf { .. } => 1,
            PNode::Internal { size, .. } => *size,
            PNode::Free => unreachable!("size of freed node"),
        }
    }

    // ------------------------------------------------------------------
    // Insert / remove
    // ------------------------------------------------------------------

    /// Insert an idle period. Amortized `O(log^2 n)`.
    ///
    /// Convenience entry that allocates its own temporaries; the scheduler
    /// hot path goes through [`SlotTree::apply_ops`] with a shared
    /// [`Scratch`] instead.
    pub fn insert(&mut self, period: IdlePeriod, ops: &mut OpStats) {
        let mut scratch = Scratch::new();
        self.insert_impl(period, false, &mut scratch, ops);
        publish(&REBUILD_SIZE, &mut scratch.rebuild_sizes);
    }

    /// The insert itself, reusing `scratch` for any rebuild staging
    /// (allocation-free once the buffers are warm). With `defer`, secondary
    /// trees are not updated: those of the nodes on the update path are
    /// dropped (an internal node of more than [`SCAN_MAX`] periods with an
    /// empty secondary is *stale*) and left for
    /// [`SlotTree::refresh_secondaries`].
    ///
    /// Each node on the way down is checked for the imbalance the insert
    /// will leave it in, from its post-update sizes; the highest unbalanced
    /// one is rebuilt with the new leaf merged in, and the descent stops
    /// there.
    fn insert_impl(
        &mut self,
        period: IdlePeriod,
        defer: bool,
        scratch: &mut Scratch,
        ops: &mut OpStats,
    ) {
        ops.periods_inserted += 1;
        self.size += 1;
        self.max_size_since_rebuild = self.max_size_since_rebuild.max(self.size);
        if self.root == NIL {
            self.root = self.alloc(PNode::Leaf { period });
            return;
        }
        let key = period.start_key();
        let end_key = period.end_key();
        // The node this insert grows past SCAN_MAX, if any: subtree sizes
        // strictly decrease along a root path, so at most one.
        let mut outgrown = NIL;
        let (mut parent, mut cur) = (NIL, self.root);
        loop {
            ops.update_visits += 1;
            ops.update_path_visits += 1;
            let (next, other, grown) = match &self.nodes[cur as usize] {
                PNode::Internal {
                    left,
                    right,
                    size,
                    split,
                    ..
                } if key <= *split => (*left, *right, *size + 1),
                PNode::Internal {
                    left, right, size, ..
                } => (*right, *left, *size + 1),
                PNode::Leaf { period: old } => {
                    let old = *old;
                    debug_assert_ne!(old.id, period.id, "duplicate period id");
                    // Replace this leaf by an internal node over {old, new}.
                    let new_leaf = self.alloc(PNode::Leaf { period });
                    let old_leaf = self.alloc(PNode::Leaf { period: old });
                    let (l, r, split) = if key <= old.start_key() {
                        (new_leaf, old_leaf, key)
                    } else {
                        (old_leaf, new_leaf, old.start_key())
                    };
                    self.nodes[cur as usize] = PNode::Internal {
                        left: l,
                        right: r,
                        size: 2,
                        split,
                        secondary: BlockSet::new(),
                    };
                    break;
                }
                PNode::Free => unreachable!("descended into freed node"),
            };
            if unbalanced(self.node_size(next) + 1, self.node_size(other), grown) {
                self.rebuild(cur, parent, PeriodOp::Insert(period), defer, scratch, ops);
                break;
            }
            if let PNode::Internal {
                size, secondary, ..
            } = &mut self.nodes[cur as usize]
            {
                *size = grown;
                if defer {
                    secondary.clear(&mut self.arena);
                } else if grown as usize > SCAN_MAX + 1 {
                    secondary.insert(&mut self.arena, end_key, ops);
                } else if grown as usize == SCAN_MAX + 1 {
                    outgrown = cur;
                }
            }
            (parent, cur) = (cur, next);
        }
        if outgrown != NIL {
            // Its first secondary tree, built once from the leaves now that
            // the new one is among them.
            self.refresh_secondaries(outgrown, scratch, ops);
        }
    }

    /// Remove a period (identified by its full record, so both tree keys are
    /// known). Returns whether it was present. Amortized `O(log^2 n)`.
    /// Convenience entry, like [`SlotTree::insert`].
    pub fn remove(&mut self, period: &IdlePeriod, ops: &mut OpStats) -> bool {
        let mut scratch = Scratch::new();
        let removed = self.remove_impl(period, false, &mut scratch, ops);
        publish(&REBUILD_SIZE, &mut scratch.rebuild_sizes);
        removed
    }

    /// The removal itself; `scratch`, `defer` and the rebuild found on the
    /// way down as in [`SlotTree::insert_impl`].
    fn remove_impl(
        &mut self,
        period: &IdlePeriod,
        defer: bool,
        scratch: &mut Scratch,
        ops: &mut OpStats,
    ) -> bool {
        if self.root == NIL {
            return false;
        }
        let key = period.start_key();
        let end_key = period.end_key();
        // First verify presence (cheap read-only descent) so that a miss
        // leaves the tree untouched.
        {
            let mut cur = self.root;
            loop {
                match &self.nodes[cur as usize] {
                    PNode::Internal {
                        left, right, split, ..
                    } => {
                        cur = if key <= *split { *left } else { *right };
                    }
                    PNode::Leaf { period: p } => {
                        if p.id != period.id {
                            return false;
                        }
                        debug_assert_eq!(p.start, period.start, "stale period record");
                        debug_assert_eq!(p.end, period.end, "stale period record");
                        break;
                    }
                    PNode::Free => unreachable!(),
                }
            }
        }
        ops.periods_removed += 1;
        self.size -= 1;
        // Scapegoat deletion rule: rebuild everything once the tree has
        // shrunk below ALPHA of its high-water mark.
        if self.size > 0
            && (self.size as u64) * ALPHA_DEN < (self.max_size_since_rebuild as u64) * ALPHA_NUM
        {
            self.max_size_since_rebuild = self.size;
            self.rebuild(
                self.root,
                NIL,
                PeriodOp::Remove(*period),
                defer,
                scratch,
                ops,
            );
            return true;
        }
        // Mutating descent: fix sizes and secondaries down to the leaf's
        // parent, which the splice below removes with the leaf.
        let (mut grandparent, mut parent, mut cur) = (NIL, NIL, self.root);
        loop {
            ops.update_visits += 1;
            ops.update_path_visits += 1;
            let (next, other, shrunk) = match &self.nodes[cur as usize] {
                PNode::Internal {
                    left,
                    right,
                    size,
                    split,
                    ..
                } if key <= *split => (*left, *right, *size - 1),
                PNode::Internal {
                    left, right, size, ..
                } => (*right, *left, *size - 1),
                PNode::Leaf { .. } => break,
                PNode::Free => unreachable!(),
            };
            if !matches!(self.nodes[next as usize], PNode::Leaf { .. }) {
                if unbalanced(self.node_size(next) - 1, self.node_size(other), shrunk) {
                    self.rebuild(cur, parent, PeriodOp::Remove(*period), defer, scratch, ops);
                    return true;
                }
                if let PNode::Internal {
                    size, secondary, ..
                } = &mut self.nodes[cur as usize]
                {
                    *size = shrunk;
                    if defer || shrunk as usize == SCAN_MAX {
                        secondary.clear(&mut self.arena);
                    } else if shrunk as usize > SCAN_MAX {
                        let removed = secondary.remove(&mut self.arena, end_key, ops);
                        debug_assert!(removed, "secondary missing end key during removal");
                    }
                }
            }
            (grandparent, parent, cur) = (parent, cur, next);
        }
        // Structural splice: replace `parent` with the leaf's sibling.
        self.dealloc(cur);
        if parent == NIL {
            // The leaf was the root.
            self.root = NIL;
        } else {
            let sibling = match &self.nodes[parent as usize] {
                PNode::Internal { left, right, .. } if *left == cur => *right,
                PNode::Internal { left, .. } => *left,
                _ => unreachable!(),
            };
            self.dealloc(parent);
            self.replace_child(grandparent, parent, sibling);
        }
        true
    }

    /// Apply a batch of updates in order. With `defer` the primary tree
    /// goes through exactly the states the one-at-a-time calls produce
    /// while the secondary trees are brought up to date once, at the end;
    /// the resulting tree is identical either way (module docs).
    pub fn apply_ops(
        &mut self,
        batch: impl IntoIterator<Item = PeriodOp>,
        defer: bool,
        scratch: &mut Scratch,
        ops: &mut OpStats,
    ) {
        for op in batch {
            match op {
                PeriodOp::Remove(p) => {
                    let removed = self.remove_impl(&p, defer, scratch, ops);
                    debug_assert!(removed, "period {p:?} missing from its slot tree");
                }
                PeriodOp::Insert(p) => self.insert_impl(p, defer, scratch, ops),
            }
        }
        if defer {
            self.refresh_secondaries(self.root, scratch, ops);
        }
        publish(&REBUILD_SIZE, &mut scratch.rebuild_sizes);
    }

    /// Rebuild the stale secondary trees at and below `node`, bottom-up in
    /// merge-sort fashion: a node's end-key list is the `O(k)` merge of its
    /// children's, and the set is bulk-built from the sorted list in
    /// `O(k)`. Staleness is ancestor-closed (every deferred step marks a
    /// root path or a whole rebuilt subtree), so the walk stops at the first
    /// fresh node of each branch and reads that node's end keys off its
    /// secondary tree; it also stops at a subtree of at most [`SCAN_MAX`]
    /// periods, which has no secondary trees and whose end keys are read
    /// off its leaves. All runs share one stack (`scratch.ends`), adjacent
    /// runs merge through `scratch.ends_aux`, and the sets take their
    /// blocks from the tree's arena: nothing is allocated once the buffers
    /// are warm. Like a secondary's insert or remove, the refresh counts an
    /// update visit per block it reads or builds, and one per leaf of a
    /// scanned subtree.
    fn refresh_secondaries(&mut self, node: u32, scratch: &mut Scratch, ops: &mut OpStats) {
        scratch.ends.clear();
        if node != NIL && self.node_size(node) as usize > SCAN_MAX {
            self.refresh_rec(node, scratch, ops);
        }
    }

    /// On return the subtree's end keys are the top entries of
    /// `scratch.ends`, ascending.
    fn refresh_rec(&mut self, node: u32, scratch: &mut Scratch, ops: &mut OpStats) {
        let (left, right) = match &self.nodes[node as usize] {
            PNode::Leaf { period } => return scratch.ends.push(period.end_key()),
            PNode::Internal { size, .. } if *size as usize <= SCAN_MAX => {
                ops.update_visits += *size as u64;
                let base = scratch.ends.len();
                self.for_each_leaf(node, &mut |p| scratch.ends.push(p.end_key()));
                return scratch.ends[base..].sort_unstable();
            }
            PNode::Internal { secondary, .. } if !secondary.is_empty() => {
                let visits = &mut ops.update_visits;
                return secondary.append_keys(&self.arena, &mut scratch.ends, visits);
            }
            PNode::Internal { left, right, .. } => (*left, *right),
            PNode::Free => unreachable!("refresh reached a freed node"),
        };
        let base = scratch.ends.len();
        self.refresh_rec(left, scratch, ops);
        let mid = scratch.ends.len() - base;
        self.refresh_rec(right, scratch, ops);
        let rebuilt = self.merged_secondary(base, mid, scratch, ops);
        if let PNode::Internal { secondary, .. } = &mut self.nodes[node as usize] {
            *secondary = rebuilt;
        }
    }

    /// Merge the two adjacent sorted runs on top of `scratch.ends` — the
    /// `mid` keys from `base` and everything after them — in place, and
    /// bulk-build the secondary tree over the result.
    fn merged_secondary(
        &mut self,
        base: usize,
        mid: usize,
        scratch: &mut Scratch,
        ops: &mut OpStats,
    ) -> BlockSet {
        let Scratch {
            ends,
            ends_aux: aux,
            ..
        } = scratch;
        aux.clear();
        {
            let (l, r) = ends[base..].split_at(mid);
            let (mut i, mut j) = (0, 0);
            while i < l.len() && j < r.len() {
                if l[i] <= r[j] {
                    aux.push(l[i]);
                    i += 1;
                } else {
                    aux.push(r[j]);
                    j += 1;
                }
            }
            aux.extend_from_slice(&l[i..]);
            aux.extend_from_slice(&r[j..]);
        }
        ends.truncate(base);
        ends.extend_from_slice(aux);
        BlockSet::from_sorted(&mut self.arena, &ends[base..], ops)
    }

    /// Hang `new` where `old` hung: under `parent`, or as the root.
    fn replace_child(&mut self, parent: u32, old: u32, new: u32) {
        if parent == NIL {
            self.root = new;
        } else if let PNode::Internal { left, right, .. } = &mut self.nodes[parent as usize] {
            if *left == old {
                *left = new;
            } else {
                debug_assert_eq!(*right, old);
                *right = new;
            }
        }
    }

    /// Rebuild the subtree at `node` (a child of `parent`, or the root)
    /// perfectly balanced with `change` merged into its leaves,
    /// reconstructing every secondary tree it needs (or, with `defer`,
    /// leaving them all stale). Leaves stay in their slots and the
    /// subtree's internal slots are relinked, so nothing is copied but the
    /// slot lists, which live in `scratch`.
    fn rebuild(
        &mut self,
        node: u32,
        parent: u32,
        change: PeriodOp,
        defer: bool,
        scratch: &mut Scratch,
        ops: &mut OpStats,
    ) {
        let (mut leaves, mut inner) = (
            std::mem::take(&mut scratch.leaves),
            std::mem::take(&mut scratch.inner),
        );
        leaves.clear();
        self.gather(node, &mut leaves, &mut inner);
        let (PeriodOp::Insert(p) | PeriodOp::Remove(p)) = change;
        let key = p.start_key();
        let at = leaves.partition_point(|&(k, _)| k < key);
        match change {
            PeriodOp::Insert(period) => {
                leaves.insert(at, (key, self.alloc(PNode::Leaf { period })));
            }
            PeriodOp::Remove(_) => {
                debug_assert_eq!(leaves[at].0, key, "rebuild lost its leaf");
                self.dealloc(leaves.remove(at).1);
            }
        }
        let size = leaves.len() as u64;
        ops.rebuilds += 1;
        scratch.rebuild_sizes.push(size);
        obs::obs_event!("tree.rebuild", "size" => size, "root" => parent == NIL);
        let rebuilt = self.relink(&leaves, &mut inner);
        for spare in inner.drain(..) {
            self.dealloc(spare);
        }
        self.replace_child(parent, node, rebuilt);
        (scratch.leaves, scratch.inner) = (leaves, inner);
        if !defer {
            self.refresh_secondaries(rebuilt, scratch, ops);
        }
    }

    /// Append the leaf slots below `node` to `leaves` in key order, with
    /// their keys, and its internal slots to `inner`, dropping their
    /// secondary trees.
    fn gather(&mut self, node: u32, leaves: &mut Vec<(StartKey, u32)>, inner: &mut Vec<u32>) {
        match &mut self.nodes[node as usize] {
            PNode::Leaf { period } => leaves.push((period.start_key(), node)),
            PNode::Internal {
                left,
                right,
                secondary,
                ..
            } => {
                let (l, r) = (*left, *right);
                secondary.clear(&mut self.arena);
                inner.push(node);
                self.gather(l, leaves, inner);
                self.gather(r, leaves, inner);
            }
            PNode::Free => unreachable!("rebuild reached a freed node"),
        }
    }

    /// Link the leaf slots `leaves` (keyed, ascending in `StartKey` order,
    /// i.e. descending start time) into a perfectly balanced leaf-oriented
    /// tree whose internal nodes take the slots in `inner`, then fresh ones;
    /// every secondary tree is left stale for
    /// [`SlotTree::refresh_secondaries`]. Returns the root, NIL for no
    /// leaves.
    fn relink(&mut self, leaves: &[(StartKey, u32)], inner: &mut Vec<u32>) -> u32 {
        match leaves.len() {
            0 => NIL,
            1 => leaves[0].1,
            len => {
                let mid = len / 2; // left gets [0, mid), right [mid, len)
                let left = self.relink(&leaves[..mid], inner);
                let right = self.relink(&leaves[mid..], inner);
                let node = PNode::Internal {
                    left,
                    right,
                    size: len as u32,
                    split: leaves[mid - 1].0,
                    secondary: BlockSet::new(),
                };
                match inner.pop() {
                    Some(slot) => {
                        self.nodes[slot as usize] = node;
                        slot
                    }
                    None => self.alloc(node),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 1 / Phase 2 searches
    // ------------------------------------------------------------------

    /// Phase 1: count every *candidate* idle period (`st_i <= s_r`) from
    /// subtree sizes, in `O(log n)`, appending the marked subtrees to
    /// `marked` without clearing it and without counting as a separate
    /// search — the building block the segment-tree ring uses to run one
    /// logical Phase 1 across every tree on a stabbing path, accumulating
    /// marks in a single shared buffer.
    pub fn phase1_candidates_append(
        &self,
        start: Time,
        marked: &mut Vec<MarkedNode>,
        ops: &mut OpStats,
    ) -> usize {
        let mut count = 0usize;
        let mut cur = self.root;
        while cur != NIL {
            ops.primary_visits += 1;
            match &self.nodes[cur as usize] {
                PNode::Internal {
                    left, right, split, ..
                } => {
                    if split.start <= start {
                        // Everything right of the split starts no later than
                        // the split: all candidates. Mark and go left.
                        count += self.node_size(*right) as usize;
                        marked.push(MarkedNode(*right));
                        cur = *left;
                    } else {
                        // Everything left of the split starts strictly later
                        // than s_r: ignore, go right.
                        cur = *right;
                    }
                }
                PNode::Leaf { period } => {
                    if period.is_candidate(start) {
                        count += 1;
                        marked.push(MarkedNode(cur));
                    }
                    break;
                }
                PNode::Free => unreachable!(),
            }
        }
        count
    }

    /// Phase 2: among the candidates `marked`, append every *feasible*
    /// period (`et_i >= end`) to `out`, searching the marked subtrees in
    /// reverse marking order (latest-starting candidates first, as in the
    /// paper's example), in `O(log^2 n)` plus `O(1)` per period retrieved.
    /// `marked` is one tree's slice of a shared marked buffer, and the call
    /// does not count as a separate search — the segment-tree ring's
    /// per-node step of a single logical Phase 2.
    pub fn phase2_collect(
        &self,
        marked: &[MarkedNode],
        end: Time,
        out: &mut Vec<PeriodId>,
        ops: &mut OpStats,
    ) {
        // Scan buffer for the subtrees that keep no secondary tree.
        let mut keys = [EndKey::range_floor(end); SCAN_MAX];
        for &MarkedNode(n) in marked.iter().rev() {
            match &self.nodes[n as usize] {
                PNode::Leaf { period } => {
                    ops.secondary_visits += 1;
                    if period.end >= end {
                        out.push(period.id);
                    }
                }
                PNode::Internal { size, .. } if *size as usize <= SCAN_MAX => {
                    // No secondary tree: read the leaves, and list the
                    // feasible ones in the order its walk would have.
                    ops.secondary_visits += *size as u64;
                    let mut found = 0;
                    self.for_each_leaf(n, &mut |p| {
                        if p.end >= end {
                            keys[found] = p.end_key();
                            found += 1;
                        }
                    });
                    keys[..found].sort_unstable();
                    out.extend(keys[..found].iter().map(|k| k.id));
                }
                PNode::Internal { secondary, .. } => {
                    secondary.collect_top(
                        &self.arena,
                        EndKey::range_floor(end),
                        usize::MAX,
                        |_| true,
                        out,
                        ops,
                    );
                }
                PNode::Free => unreachable!(),
            }
        }
    }

    /// Count (without retrieving) the feasible periods among the marked
    /// candidates — used by the range-search counting API.
    pub fn count_feasible(&self, marked: &[MarkedNode], end: Time, ops: &mut OpStats) -> usize {
        let mut count = 0usize;
        for &MarkedNode(n) in marked {
            match &self.nodes[n as usize] {
                PNode::Leaf { period } => {
                    ops.secondary_visits += 1;
                    if period.end >= end {
                        count += 1;
                    }
                }
                PNode::Internal { size, .. } if *size as usize <= SCAN_MAX => {
                    ops.secondary_visits += *size as u64;
                    self.for_each_leaf(n, &mut |p| count += (p.end >= end) as usize);
                }
                PNode::Internal { secondary, .. } => {
                    count += secondary.count_ge(
                        &self.arena,
                        EndKey {
                            end,
                            id: PeriodId(0),
                        },
                        ops,
                    );
                }
                PNode::Free => unreachable!(),
            }
        }
        count
    }

    // ------------------------------------------------------------------
    // Introspection / validation
    // ------------------------------------------------------------------

    /// Feed the periods below `node` to `sink` in leaf order.
    fn for_each_leaf(&self, node: u32, sink: &mut impl FnMut(&IdlePeriod)) {
        match &self.nodes[node as usize] {
            PNode::Leaf { period } => sink(period),
            PNode::Internal { left, right, .. } => {
                self.for_each_leaf(*left, sink);
                self.for_each_leaf(*right, sink);
            }
            PNode::Free => unreachable!("freed node reachable"),
        }
    }

    /// All periods in leaf order (descending start). Test/debug helper.
    pub fn periods_in_order(&self) -> Vec<IdlePeriod> {
        let mut out = Vec::with_capacity(self.len());
        if self.root != NIL {
            self.for_each_leaf(self.root, &mut |p| out.push(*p));
        }
        out
    }

    /// Exhaustively check every structural invariant. Test helper; panics on
    /// violation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        struct Info {
            size: u32,
            min: StartKey,
            max: StartKey,
        }
        fn rec(tree: &SlotTree, node: u32) -> Option<Info> {
            if node == NIL {
                return None;
            }
            match &tree.nodes[node as usize] {
                PNode::Leaf { period } => Some(Info {
                    size: 1,
                    min: period.start_key(),
                    max: period.start_key(),
                }),
                PNode::Internal {
                    left,
                    right,
                    size,
                    split,
                    secondary,
                } => {
                    let l = rec(tree, *left).expect("internal node with empty left subtree");
                    let r = rec(tree, *right).expect("internal node with empty right subtree");
                    assert_eq!(*size, l.size + r.size, "size annotation");
                    assert!(l.max <= *split, "left subtree exceeds split");
                    assert!(r.min > *split, "right subtree at or below split");
                    // Above SCAN_MAX the secondary tree must contain
                    // exactly the subtree's periods, in ascending end
                    // order; at or below it there must be none.
                    let mut expected: Vec<EndKey> = Vec::new();
                    if *size as usize > SCAN_MAX {
                        tree.for_each_leaf(node, &mut |p| expected.push(p.end_key()));
                        expected.sort();
                    }
                    assert_eq!(
                        secondary.keys_in_order(&tree.arena),
                        expected,
                        "secondary contents mismatch at size {size}"
                    );
                    secondary.check_invariants(&tree.arena);
                    Some(Info {
                        size: *size,
                        min: l.min,
                        max: r.max,
                    })
                }
                PNode::Free => panic!("freed node reachable"),
            }
        }
        let info = rec(self, self.root);
        assert_eq!(
            info.map(|i| i.size).unwrap_or(0),
            self.size,
            "tree size annotation"
        );
        // Leaf order must be sorted by key.
        let leaves = self.periods_in_order();
        for w in leaves.windows(2) {
            assert!(w[0].start_key() < w[1].start_key(), "leaf order");
        }
    }

    /// Pre-order structural fingerprint: `(size, split, secondary keys in
    /// order)` per internal node. Two trees with equal leaf order and equal
    /// fingerprints answer every search with the same hits in the same order
    /// at the same visit counts, as a secondary's layout is a function of
    /// its keys (test helper).
    #[doc(hidden)]
    pub fn fingerprint(&self) -> TreeFingerprint {
        fn rec(tree: &SlotTree, node: u32, out: &mut TreeFingerprint) {
            if node == NIL {
                return;
            }
            if let PNode::Internal {
                left,
                right,
                size,
                split,
                secondary,
            } = &tree.nodes[node as usize]
            {
                out.push((*size, *split, secondary.keys_in_order(&tree.arena)));
                rec(tree, *left, out);
                rec(tree, *right, out);
            }
        }
        let mut out = Vec::new();
        rec(self, self.root, &mut out);
        out
    }

    /// Height of the tree (edges on the longest root-leaf path); used to
    /// check the weight-balance guarantee in tests.
    pub fn height(&self) -> usize {
        fn rec(tree: &SlotTree, node: u32) -> usize {
            if node == NIL {
                return 0;
            }
            match &tree.nodes[node as usize] {
                PNode::Leaf { .. } => 0,
                PNode::Internal { left, right, .. } => 1 + rec(tree, *left).max(rec(tree, *right)),
                PNode::Free => unreachable!(),
            }
        }
        rec(self, self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;

    fn p(id: u64, server: u32, start: i64, end: i64) -> IdlePeriod {
        IdlePeriod {
            id: PeriodId(id),
            server: ServerId(server),
            start: Time(start),
            end: if end == i64::MAX {
                Time::INF
            } else {
                Time(end)
            },
        }
    }

    /// Phase 1 through the ring's entry: the candidate count and marks.
    fn phase1(t: &SlotTree, start: Time, ops: &mut OpStats) -> (usize, Vec<MarkedNode>) {
        let mut marked = Vec::new();
        let count = t.phase1_candidates_append(start, &mut marked, ops);
        (count, marked)
    }

    /// Phase 2 through the ring's entry, over the marks of [`phase1`].
    fn phase2(t: &SlotTree, marked: &[MarkedNode], end: Time, ops: &mut OpStats) -> Vec<PeriodId> {
        let mut out = Vec::new();
        t.phase2_collect(marked, end, &mut out, ops);
        out
    }

    /// Both phases: every feasible period for `[start, end)`.
    fn find(t: &SlotTree, start: Time, end: Time, ops: &mut OpStats) -> Vec<PeriodId> {
        let (_, marked) = phase1(t, start, ops);
        phase2(t, &marked, end, ops)
    }

    /// The four idle periods of Figure 2 (slot q = 2, interval [10, 20)).
    fn figure2_tree() -> SlotTree {
        let mut ops = OpStats::new();
        let mut t = SlotTree::new(0xF16);
        // X = (4, 25, server 1), Y = (16, 33, 2), Z = (7, 33, 3), V = (1, 18, 4)
        t.insert(p(1, 1, 4, 25), &mut ops);
        t.insert(p(2, 2, 16, 33), &mut ops);
        t.insert(p(3, 3, 7, 33), &mut ops);
        t.insert(p(4, 4, 1, 18), &mut ops);
        t.check_invariants();
        t
    }

    #[test]
    fn figure2_leaf_order_is_descending_start() {
        let t = figure2_tree();
        let starts: Vec<i64> = t.periods_in_order().iter().map(|q| q.start.0).collect();
        assert_eq!(starts, vec![16, 7, 4, 1]); // Y, Z, X, V
    }

    #[test]
    fn paper_walkthrough_request_17_12_2() {
        // Section 4.2 example: r = (q_r=17, s_r=17, l_r=12, n_r=2), e_r=29.
        let t = figure2_tree();
        let mut ops = OpStats::new();
        let (count, marked) = phase1(&t, Time(17), &mut ops);
        // All four periods start at or before 17 — 4 > n_r = 2 candidates.
        assert_eq!(count, 4);
        // Phase 2 (reverse marking order → latest-starting candidates first)
        // finds Y and Z, both ending at 33 >= 29.
        let feasible = phase2(&t, &marked, Time(29), &mut ops);
        assert_eq!(feasible.len(), 2);
        let mut ids: Vec<u64> = feasible.iter().map(|i| i.0).collect();
        ids.sort();
        assert_eq!(ids, vec![2, 3]); // Y and Z
        assert!(ops.primary_visits > 0 && ops.secondary_visits > 0);
    }

    #[test]
    fn phase1_excludes_later_starts() {
        let t = figure2_tree();
        let mut ops = OpStats::new();
        // s_r = 5: only X (st=4) and V (st=1) are candidates.
        let (count, marked) = phase1(&t, Time(5), &mut ops);
        assert_eq!(count, 2);
        let all = phase2(&t, &marked, Time(6), &mut ops);
        let mut ids: Vec<u64> = all.iter().map(|i| i.0).collect();
        ids.sort();
        assert_eq!(ids, vec![1, 4]);
    }

    #[test]
    fn phase2_respects_end_condition() {
        let t = figure2_tree();
        let mut ops = OpStats::new();
        let (_, marked) = phase1(&t, Time(17), &mut ops);
        // e_r = 34: no period ends at or after 34.
        assert!(phase2(&t, &marked, Time(34), &mut ops).is_empty());
        assert_eq!(t.count_feasible(&marked, Time(34), &mut ops), 0);
        // e_r = 18: all four are feasible.
        assert_eq!(t.count_feasible(&marked, Time(18), &mut ops), 4);
    }

    #[test]
    fn find_feasible_composes_phases() {
        let t = figure2_tree();
        let mut ops = OpStats::new();
        let ids = find(&t, Time(17), Time(29), &mut ops);
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn remove_then_search() {
        let mut t = figure2_tree();
        let mut ops = OpStats::new();
        assert!(t.remove(&p(2, 2, 16, 33), &mut ops)); // remove Y
        assert!(!t.remove(&p(2, 2, 16, 33), &mut ops));
        t.check_invariants();
        let ids = find(&t, Time(17), Time(29), &mut ops);
        assert_eq!(ids, vec![PeriodId(3)]); // only Z remains feasible
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn remove_all_leaves_empty_tree() {
        let mut t = figure2_tree();
        let mut ops = OpStats::new();
        for (id, srv, s, e) in [(1, 1, 4, 25), (2, 2, 16, 33), (3, 3, 7, 33), (4, 4, 1, 18)] {
            assert!(t.remove(&p(id, srv, s, e), &mut ops));
            t.check_invariants();
        }
        assert!(t.is_empty());
        let (count, marked) = phase1(&t, Time(100), &mut ops);
        assert_eq!(count, 0);
        assert!(marked.is_empty());
    }

    #[test]
    fn open_ended_periods_always_feasible() {
        let mut t = SlotTree::new(1);
        let mut ops = OpStats::new();
        for i in 0..8 {
            t.insert(p(i, i as u32, i as i64, i64::MAX), &mut ops);
        }
        let ids = find(&t, Time(100), Time(1 << 50), &mut ops);
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn from_periods_bulk_build_matches_incremental() {
        let mut ops = OpStats::new();
        let periods: Vec<IdlePeriod> = (0..64)
            .map(|i| {
                p(
                    i,
                    (i % 8) as u32,
                    (i * 37 % 100) as i64,
                    (200 + i * 13 % 97) as i64,
                )
            })
            .collect();
        let bulk = SlotTree::from_periods(9, periods.clone(), &mut ops);
        bulk.check_invariants();
        let mut inc = SlotTree::new(9);
        for q in &periods {
            inc.insert(*q, &mut ops);
        }
        inc.check_invariants();
        assert_eq!(bulk.periods_in_order(), inc.periods_in_order());
    }

    #[test]
    fn height_stays_logarithmic_under_adversarial_inserts() {
        let mut t = SlotTree::new(3);
        let mut ops = OpStats::new();
        // Strictly increasing starts: worst case for an unbalanced BST.
        for i in 0..1024i64 {
            t.insert(p(i as u64, 0, i, i + 10_000), &mut ops);
        }
        t.check_invariants();
        // alpha = 0.7 bounds height by log(n)/log(1/alpha) ~ 1.94*log2(n) = ~20.
        assert!(t.height() <= 24, "height {} too large", t.height());
        assert!(ops.rebuilds > 0, "scapegoat rebuilds should have triggered");
    }

    #[test]
    fn deletion_heavy_shrink_triggers_global_rebuild() {
        let mut t = SlotTree::new(4);
        let mut ops = OpStats::new();
        let periods: Vec<IdlePeriod> = (0..512)
            .map(|i| p(i, 0, i as i64, 10_000 + i as i64))
            .collect();
        for q in &periods {
            t.insert(*q, &mut ops);
        }
        for q in periods.iter().take(480) {
            assert!(t.remove(q, &mut ops));
        }
        t.check_invariants();
        assert_eq!(t.len(), 32);
        assert!(t.height() <= 12);
    }

    /// Walk one tree up through the secondary-tree threshold and back
    /// down, one update at a time, on the eager path and on the deferred
    /// one: the per-node rule holds after every update and both paths
    /// leave the same tree.
    #[test]
    fn secondaries_come_and_go_at_the_threshold() {
        let s = SCAN_MAX as u64;
        let period = |i: u64| p(i, 0, (i * 37 % 101) as i64, 200 + (i * 13 % 97) as i64);
        let mut eager = SlotTree::new(7);
        let mut deferred = SlotTree::new(7);
        let (mut ops, mut scratch) = (OpStats::new(), Scratch::new());
        let grow = (0..2 * s).map(|i| PeriodOp::Insert(period(i)));
        // Removal order unrelated to insertion order.
        let shrink = (0..2 * s)
            .map(|i| i * 29 % (2 * s))
            .take(s as usize + 1)
            .map(|i| PeriodOp::Remove(period(i)));
        for (step, op) in grow.chain(shrink).enumerate() {
            match op {
                PeriodOp::Insert(q) => eager.insert(q, &mut ops),
                PeriodOp::Remove(q) => assert!(eager.remove(&q, &mut ops)),
            }
            deferred.apply_ops([op], true, &mut scratch, &mut ops);
            eager.check_invariants();
            deferred.check_invariants();
            assert_eq!(
                eager.periods_in_order(),
                deferred.periods_in_order(),
                "step {step}"
            );
            assert_eq!(eager.fingerprint(), deferred.fingerprint(), "step {step}");
        }
        assert_eq!(eager.len(), SCAN_MAX - 1);
        assert_eq!(
            eager.arena.live_blocks(),
            0,
            "no secondary tree survives below the threshold"
        );
    }

    /// Phase 2 against the definition, on trees either side of the
    /// threshold and well above it: per marked subtree, latest marked
    /// first, the feasible leaves in ascending `(end, id)`.
    #[test]
    fn phase2_matches_sorted_leaf_scan() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5CA7);
        let mut ops = OpStats::new();
        let around = |m: usize| [m - 3, m - 1, m, m + 1, m + 3];
        for target in around(SCAN_MAX).into_iter().chain(around(4 * SCAN_MAX)) {
            // Overshoot, then remove back down: an irregular shape.
            let mut t = SlotTree::new(target as u64);
            let mut live: Vec<IdlePeriod> = Vec::new();
            for i in 0..(target + target / 2) as u64 {
                let start = rng.random_range(0..300);
                let q = p(i, 0, start, start + rng.random_range(1..200));
                t.insert(q, &mut ops);
                live.push(q);
            }
            while live.len() > target {
                let victim = live.swap_remove(rng.random_range(0..live.len()));
                assert!(t.remove(&victim, &mut ops));
            }
            t.check_invariants();
            for _ in 0..40 {
                let start = Time(rng.random_range(0..320));
                let end = start + crate::time::Dur(rng.random_range(1..150));
                let (_, marked) = phase1(&t, start, &mut ops);
                let per_mark: Vec<Vec<EndKey>> = marked
                    .iter()
                    .rev()
                    .map(|&MarkedNode(n)| {
                        let mut keys = Vec::new();
                        t.for_each_leaf(n, &mut |q| {
                            if q.end >= end {
                                keys.push(q.end_key());
                            }
                        });
                        keys.sort();
                        keys
                    })
                    .collect();
                let want: Vec<PeriodId> = per_mark.iter().flatten().map(|k| k.id).collect();
                assert_eq!(t.count_feasible(&marked, end, &mut ops), want.len());
                let mut got = Vec::new();
                t.phase2_collect(&marked, end, &mut got, &mut ops);
                assert_eq!(got, want, "size {target}");
            }
        }
    }

    #[test]
    fn oracle_equivalence_random_ops() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let mut t = SlotTree::new(5);
        let mut ops = OpStats::new();
        let mut live: Vec<IdlePeriod> = Vec::new();
        for i in 0..3000u64 {
            if live.is_empty() || rng.random_bool(0.55) {
                let s = rng.random_range(0..1000);
                let e = s + rng.random_range(1..500);
                let period = p(i, (i % 16) as u32, s, e);
                t.insert(period, &mut ops);
                live.push(period);
            } else {
                let idx = rng.random_range(0..live.len());
                let victim = live.swap_remove(idx);
                assert!(t.remove(&victim, &mut ops));
            }
            if i % 151 == 0 {
                t.check_invariants();
                let sr = Time(rng.random_range(0..1200));
                let er = sr + crate::time::Dur(rng.random_range(1..400));
                let mut got: Vec<u64> = find(&t, sr, er, &mut ops).iter().map(|x| x.0).collect();
                got.sort();
                let mut want: Vec<u64> = live
                    .iter()
                    .filter(|q| q.is_feasible(sr, er))
                    .map(|q| q.id.0)
                    .collect();
                want.sort();
                assert_eq!(got, want, "tree/oracle divergence at step {i}");
            }
        }
    }
}
