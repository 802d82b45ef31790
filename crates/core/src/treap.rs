//! Order-statistic treap, generic over the ordering dimension.
//!
//! Two instantiations are used:
//!
//! * keyed by [`EndKey`] (ascending ending time) as the secondary trees
//!   `T_q^e(u)` of the 2-dimensional slot trees (Section 4.1) — supporting
//!   the Phase-2 count/enumeration of periods with `et_i >= e_r`;
//! * keyed by [`StartKey`] (descending starting time) as the global index of
//!   *open-ended trailing* idle periods (see [`crate::trailing`]).
//!
//! Priorities are hash-derived from the stored period id, so treap shapes
//! are deterministic per seed. Nodes live in an arena shared by all the
//! treaps of one owner, which keeps allocation pressure low and lets a
//! rebuild recycle every node it frees.

use crate::idle::{EndKey, StartKey};
use crate::ids::PeriodId;
use crate::stats::OpStats;

/// Sentinel for "no node".
const NIL: u32 = u32::MAX;

/// SplitMix64 — a tiny, high-quality mixer; used to derive heap priorities
/// from period ids so treap shapes are deterministic per seed.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A key a treap can be ordered by. The embedded period id provides both a
/// deterministic priority salt and the payload returned by enumeration.
pub trait TreapKey: Copy + Ord + std::fmt::Debug {
    /// The idle period this key belongs to.
    fn period_id(&self) -> PeriodId;
    /// The smallest key with the same ordering position as `self` but the
    /// minimum id — used to form half-open key ranges.
    fn with_min_id(&self) -> Self;
}

impl TreapKey for EndKey {
    fn period_id(&self) -> PeriodId {
        self.id
    }
    fn with_min_id(&self) -> Self {
        EndKey {
            end: self.end,
            id: PeriodId(0),
        }
    }
}

impl TreapKey for StartKey {
    fn period_id(&self) -> PeriodId {
        self.id
    }
    fn with_min_id(&self) -> Self {
        StartKey {
            start: self.start,
            id: PeriodId(0),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Node<K> {
    key: K,
    prio: u64,
    left: u32,
    right: u32,
    size: u32,
}

/// Arena of treap nodes with a free list.
#[derive(Clone, Debug)]
pub struct TreapArena<K> {
    nodes: Vec<Node<K>>,
    free: Vec<u32>,
    seed: u64,
}

impl<K: TreapKey> TreapArena<K> {
    /// Create an arena; `seed` perturbs all priorities derived from it.
    pub fn new(seed: u64) -> TreapArena<K> {
        TreapArena {
            nodes: Vec::new(),
            free: Vec::new(),
            seed,
        }
    }

    /// Number of live (allocated, not freed) nodes — for leak tests.
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn alloc(&mut self, key: K) -> u32 {
        let prio = splitmix64(key.period_id().0 ^ self.seed);
        let node = Node {
            key,
            prio,
            left: NIL,
            right: NIL,
            size: 1,
        };
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
        self.free.push(i);
    }

    #[inline]
    fn size(&self, i: u32) -> u32 {
        if i == NIL {
            0
        } else {
            self.nodes[i as usize].size
        }
    }

    #[inline]
    fn pull(&mut self, i: u32) {
        let (l, r) = {
            let n = &self.nodes[i as usize];
            (n.left, n.right)
        };
        self.nodes[i as usize].size = 1 + self.size(l) + self.size(r);
    }

    /// Split by key: returns `(keys < at, keys >= at)`.
    fn split(&mut self, root: u32, at: K, ops: &mut OpStats) -> (u32, u32) {
        if root == NIL {
            return (NIL, NIL);
        }
        ops.update_visits += 1;
        let key = self.nodes[root as usize].key;
        if key < at {
            let right = self.nodes[root as usize].right;
            let (a, b) = self.split(right, at, ops);
            self.nodes[root as usize].right = a;
            self.pull(root);
            (root, b)
        } else {
            let left = self.nodes[root as usize].left;
            let (a, b) = self.split(left, at, ops);
            self.nodes[root as usize].left = b;
            self.pull(root);
            (a, root)
        }
    }

    /// Insert the single node `node` into the subtree at `root` and return
    /// the subtree's new root: descend by key while the subtree root
    /// outranks the node, then split the rest below the node.
    fn insert_at(&mut self, root: u32, node: u32, ops: &mut OpStats) -> u32 {
        let Node { key, prio, .. } = self.nodes[node as usize];
        let (mut parent, mut cur) = (NIL, root);
        while cur != NIL && self.nodes[cur as usize].prio > prio {
            ops.update_visits += 1;
            let n = &mut self.nodes[cur as usize];
            n.size += 1;
            parent = cur;
            cur = if key < n.key { n.left } else { n.right };
        }
        let (a, b) = self.split(cur, key, ops);
        let n = &mut self.nodes[node as usize];
        (n.left, n.right) = (a, b);
        self.pull(node);
        if parent == NIL {
            return node;
        }
        let p = &mut self.nodes[parent as usize];
        if key < p.key {
            p.left = node;
        } else {
            p.right = node;
        }
        root
    }

    /// Merge two treaps where every key in `a` precedes every key in `b`.
    fn merge(&mut self, a: u32, b: u32, ops: &mut OpStats) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        ops.update_visits += 1;
        if self.nodes[a as usize].prio >= self.nodes[b as usize].prio {
            let ar = self.nodes[a as usize].right;
            let m = self.merge(ar, b, ops);
            self.nodes[a as usize].right = m;
            self.pull(a);
            a
        } else {
            let bl = self.nodes[b as usize].left;
            let m = self.merge(a, bl, ops);
            self.nodes[b as usize].left = m;
            self.pull(b);
            b
        }
    }
}

/// A treap rooted in a shared [`TreapArena`].
#[derive(Clone, Copy, Debug)]
pub struct Treap {
    root: u32,
}

impl Default for Treap {
    fn default() -> Self {
        Treap::new()
    }
}

impl Treap {
    /// An empty treap.
    pub fn new() -> Treap {
        Treap { root: NIL }
    }

    /// Number of keys stored.
    pub fn len<K: TreapKey>(&self, arena: &TreapArena<K>) -> usize {
        arena.size(self.root) as usize
    }

    /// Whether the treap is empty.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Insert a key in one descent: down to where its priority puts it,
    /// then split only the subtree below. Keys are unique by construction
    /// (the id component is unique); inserting a duplicate is a logic error
    /// upstream and panics in debug builds.
    pub fn insert<K: TreapKey>(&mut self, arena: &mut TreapArena<K>, key: K, ops: &mut OpStats) {
        debug_assert!(!self.contains(arena, key), "duplicate key {key:?}");
        let node = arena.alloc(key);
        self.root = arena.insert_at(self.root, node, ops);
    }

    /// Remove a key in one descent, its two subtrees merged in its place;
    /// returns whether it was present. A miss leaves the treap as it was.
    pub fn remove<K: TreapKey>(
        &mut self,
        arena: &mut TreapArena<K>,
        key: K,
        ops: &mut OpStats,
    ) -> bool {
        let (mut parent, mut cur) = (NIL, self.root);
        while cur != NIL && arena.nodes[cur as usize].key != key {
            ops.update_visits += 1;
            let n = &mut arena.nodes[cur as usize];
            n.size -= 1;
            parent = cur;
            cur = if key < n.key { n.left } else { n.right };
        }
        if cur == NIL {
            // A miss: give back the sizes the descent took.
            let mut undo = self.root;
            while undo != NIL {
                let n = &mut arena.nodes[undo as usize];
                n.size += 1;
                undo = if key < n.key { n.left } else { n.right };
            }
            return false;
        }
        let Node { left, right, .. } = arena.nodes[cur as usize];
        let merged = arena.merge(left, right, ops);
        arena.dealloc(cur);
        if parent == NIL {
            self.root = merged;
        } else {
            let p = &mut arena.nodes[parent as usize];
            if p.left == cur {
                p.left = merged;
            } else {
                p.right = merged;
            }
        }
        true
    }

    /// Build a treap from keys in **ascending order** in `O(k)` amortized,
    /// using the classic right-spine construction: each new (maximal) key
    /// is attached after popping spine nodes with smaller priority. `spine`
    /// is caller-owned working storage (cleared here), so a warm caller
    /// builds without allocating; a node's subtree is final the moment it
    /// leaves the spine, which is when its size is set.
    pub fn from_sorted<K: TreapKey>(
        arena: &mut TreapArena<K>,
        sorted: &[K],
        spine: &mut Vec<u32>,
        ops: &mut OpStats,
    ) -> Treap {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "keys sorted+unique");
        spine.clear();
        for &key in sorted {
            ops.update_visits += 1;
            let node = arena.alloc(key);
            let prio = arena.nodes[node as usize].prio;
            let mut detached = NIL;
            while let Some(&top) = spine.last() {
                if arena.nodes[top as usize].prio < prio {
                    arena.pull(top);
                    detached = top;
                    spine.pop();
                    ops.update_visits += 1;
                } else {
                    break;
                }
            }
            arena.nodes[node as usize].left = detached;
            if let Some(&parent) = spine.last() {
                arena.nodes[parent as usize].right = node;
            }
            spine.push(node);
        }
        // What is left is the right spine, root first: close it bottom-up.
        for &node in spine.iter().rev() {
            arena.pull(node);
        }
        Treap {
            root: spine.first().copied().unwrap_or(NIL),
        }
    }

    /// Membership test (mainly for debug assertions and tests).
    pub fn contains<K: TreapKey>(&self, arena: &TreapArena<K>, key: K) -> bool {
        let mut cur = self.root;
        while cur != NIL {
            let n = &arena.nodes[cur as usize];
            if key == n.key {
                return true;
            }
            cur = if key < n.key { n.left } else { n.right };
        }
        false
    }

    /// Count of keys `>= floor`, from subtree sizes in `O(log n)`.
    ///
    /// With end keys this is the Phase-2 feasibility count (`et_i >= e_r`);
    /// with descending start keys it is the candidate count
    /// (`st_i <= s_r`).
    pub fn count_ge<K: TreapKey>(
        &self,
        arena: &TreapArena<K>,
        floor: K,
        ops: &mut OpStats,
    ) -> usize {
        let floor = floor.with_min_id();
        let mut cur = self.root;
        let mut count: usize = 0;
        while cur != NIL {
            ops.secondary_visits += 1;
            let n = &arena.nodes[cur as usize];
            if n.key >= floor {
                count += 1 + arena.size(n.right) as usize;
                cur = n.left;
            } else {
                cur = n.right;
            }
        }
        count
    }

    /// Append the period ids of the keys `>= floor` into `out`, in
    /// ascending key order (the paper's in-order retrieval traversal),
    /// until `need` of them are ids `counts` accepts; then finish the tie
    /// group of the last one appended (the keys equal to it up to the id)
    /// and stop at the first key past it, which is returned. `None` means
    /// every key `>= floor` was appended (always so for `need =
    /// usize::MAX`, the whole walk).
    pub fn collect_top<K: TreapKey>(
        &self,
        arena: &TreapArena<K>,
        floor: K,
        need: usize,
        counts: impl FnMut(PeriodId) -> bool,
        out: &mut Vec<PeriodId>,
        ops: &mut OpStats,
    ) -> Option<K> {
        let mut walk = TopWalk {
            floor: floor.with_min_id(),
            need,
            counted: 0,
            group: None,
            counts,
        };
        walk.visit(arena, self.root, out, ops)
    }

    /// All keys in ascending order (test helper).
    pub fn keys_in_order<K: TreapKey>(&self, arena: &TreapArena<K>) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len(arena));
        self.append_keys(arena, &mut out);
        out
    }

    /// Append all keys to `out` in ascending order.
    pub fn append_keys<K: TreapKey>(&self, arena: &TreapArena<K>, out: &mut Vec<K>) {
        fn rec<K: TreapKey>(arena: &TreapArena<K>, node: u32, out: &mut Vec<K>) {
            if node == NIL {
                return;
            }
            let n = arena.nodes[node as usize];
            rec(arena, n.left, out);
            out.push(n.key);
            rec(arena, n.right, out);
        }
        rec(arena, self.root, out);
    }

    /// All keys in pre-order, which together with the key order pins the
    /// shape (test helper for structural-identity checks).
    #[doc(hidden)]
    pub fn keys_pre_order<K: TreapKey>(&self, arena: &TreapArena<K>) -> Vec<K> {
        fn rec<K: TreapKey>(arena: &TreapArena<K>, node: u32, out: &mut Vec<K>) {
            if node == NIL {
                return;
            }
            let n = arena.nodes[node as usize];
            out.push(n.key);
            rec(arena, n.left, out);
            rec(arena, n.right, out);
        }
        let mut out = Vec::with_capacity(self.len(arena));
        rec(arena, self.root, &mut out);
        out
    }

    /// Drop every node of this treap back into the arena's free list.
    pub fn clear<K: TreapKey>(&mut self, arena: &mut TreapArena<K>) {
        fn rec<K: TreapKey>(arena: &mut TreapArena<K>, node: u32) {
            if node == NIL {
                return;
            }
            let (l, r) = {
                let n = &arena.nodes[node as usize];
                (n.left, n.right)
            };
            rec(arena, l);
            rec(arena, r);
            arena.dealloc(node);
        }
        if self.root != NIL {
            rec(arena, self.root);
            self.root = NIL;
        }
    }

    /// Validate heap and BST invariants plus size annotations (test helper).
    #[doc(hidden)]
    pub fn check_invariants<K: TreapKey>(&self, arena: &TreapArena<K>) {
        fn rec<K: TreapKey>(arena: &TreapArena<K>, node: u32) -> u32 {
            if node == NIL {
                return 0;
            }
            let n = arena.nodes[node as usize];
            let ls = rec(arena, n.left);
            let rs = rec(arena, n.right);
            assert_eq!(n.size, 1 + ls + rs, "size annotation");
            if n.left != NIL {
                assert!(arena.nodes[n.left as usize].key < n.key, "BST order left");
                assert!(
                    arena.nodes[n.left as usize].prio <= n.prio,
                    "heap order left"
                );
            }
            if n.right != NIL {
                assert!(arena.nodes[n.right as usize].key > n.key, "BST order right");
                assert!(
                    arena.nodes[n.right as usize].prio <= n.prio,
                    "heap order right"
                );
            }
            n.size
        }
        rec(arena, self.root);
    }
}

/// The state of one [`Treap::collect_top`] walk.
struct TopWalk<K, F> {
    floor: K,
    need: usize,
    /// Appended ids `counts` accepted.
    counted: usize,
    /// Tie group (`with_min_id`) of the last key appended.
    group: Option<K>,
    counts: F,
}

impl<K: TreapKey, F: FnMut(PeriodId) -> bool> TopWalk<K, F> {
    /// In-order walk of `node`'s keys `>= floor`; returns the key it
    /// stopped at, if it stopped.
    fn visit(
        &mut self,
        arena: &TreapArena<K>,
        node: u32,
        out: &mut Vec<PeriodId>,
        ops: &mut OpStats,
    ) -> Option<K> {
        if node == NIL {
            return None;
        }
        ops.secondary_visits += 1;
        let n = arena.nodes[node as usize];
        if n.key < self.floor {
            return self.visit(arena, n.right, out, ops);
        }
        if let Some(stop) = self.visit(arena, n.left, out, ops) {
            return Some(stop);
        }
        let group = n.key.with_min_id();
        if self.counted >= self.need && self.group != Some(group) {
            return Some(n.key);
        }
        let id = n.key.period_id();
        out.push(id);
        self.counted += usize::from((self.counts)(id));
        self.group = Some(group);
        self.visit(arena, n.right, out, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn ekey(end: i64, id: u64) -> EndKey {
        EndKey {
            end: Time(end),
            id: PeriodId(id),
        }
    }

    fn skey(start: i64, id: u64) -> StartKey {
        StartKey {
            start: Time(start),
            id: PeriodId(id),
        }
    }

    fn build(keys: &[(i64, u64)]) -> (TreapArena<EndKey>, Treap, OpStats) {
        let mut arena = TreapArena::new(42);
        let mut t = Treap::new();
        let mut ops = OpStats::new();
        for &(e, i) in keys {
            t.insert(&mut arena, ekey(e, i), &mut ops);
        }
        t.check_invariants(&arena);
        (arena, t, ops)
    }

    #[test]
    fn insert_orders_by_end_time() {
        let (arena, t, _) = build(&[(33, 2), (18, 4), (25, 1), (33, 3)]);
        let ends: Vec<i64> = t.keys_in_order(&arena).iter().map(|k| k.end.0).collect();
        assert_eq!(ends, vec![18, 25, 33, 33]);
        assert_eq!(t.len(&arena), 4);
    }

    #[test]
    fn count_ge_matches_paper_example() {
        // Figure 2: secondary tree of root A stores ends {18, 25, 33, 33}.
        // For the request with e_r = 29, two periods (Y and Z, both ending
        // at 33) are feasible.
        let (arena, t, _) = build(&[(25, 1), (33, 2), (33, 3), (18, 4)]);
        let mut ops = OpStats::new();
        assert_eq!(t.count_ge(&arena, ekey(29, 0), &mut ops), 2);
        assert_eq!(t.count_ge(&arena, ekey(18, 0), &mut ops), 4);
        assert_eq!(t.count_ge(&arena, ekey(34, 0), &mut ops), 0);
        assert!(ops.secondary_visits > 0);
    }

    #[test]
    fn collect_top_returns_ascending_and_respects_need() {
        let (arena, t, _) = build(&[(25, 1), (33, 2), (33, 3), (18, 4), (40, 5)]);
        let mut ops = OpStats::new();
        let mut out = Vec::new();
        let stop = t.collect_top(&arena, ekey(26, 0), 2, |_| true, &mut out, &mut ops);
        assert_eq!(stop, Some(ekey(40, 5)));
        assert_eq!(out, vec![PeriodId(2), PeriodId(3)]);
        out.clear();
        let stop = t.collect_top(&arena, ekey(26, 0), 10, |_| true, &mut out, &mut ops);
        assert_eq!(stop, None);
        assert_eq!(out, vec![PeriodId(2), PeriodId(3), PeriodId(5)]);
    }

    #[test]
    fn start_keys_count_candidates_descending() {
        // The trailing-set use case: keys in descending start order;
        // count_ge(floor at s_r) = candidates with st <= s_r.
        let mut arena: TreapArena<StartKey> = TreapArena::new(9);
        let mut t = Treap::new();
        let mut ops = OpStats::new();
        for (s, i) in [(4i64, 1u64), (16, 2), (7, 3), (1, 4)] {
            t.insert(&mut arena, skey(s, i), &mut ops);
        }
        t.check_invariants(&arena);
        // st <= 10: periods starting at 4, 7, 1.
        assert_eq!(t.count_ge(&arena, skey(10, 0), &mut ops), 3);
        assert_eq!(t.count_ge(&arena, skey(0, 0), &mut ops), 0);
        assert_eq!(t.count_ge(&arena, skey(16, 0), &mut ops), 4);
        // Collection returns latest starts first (paper order).
        let mut out = Vec::new();
        t.collect_top(
            &arena,
            skey(10, 0),
            usize::MAX,
            |_| true,
            &mut out,
            &mut ops,
        );
        assert_eq!(out, vec![PeriodId(3), PeriodId(1), PeriodId(4)]);
    }

    /// The stop rule: `need` counted ids, then the rest of the last one's
    /// tie group, whatever the ids inside the group; uncounted ids do not
    /// bring the stop closer; a walk that never reaches `need` is the
    /// whole walk, visit for visit.
    #[test]
    fn collect_top_stops_after_need_and_the_tie_group() {
        let mut arena: TreapArena<StartKey> = TreapArena::new(3);
        let mut t = Treap::new();
        let mut ops = OpStats::new();
        // Starts 9, 7, 7, 7, 5, 3 (ids 1..=6), walked from 8 down; 7's
        // group holds ids 2, 3, 4.
        for (s, i) in [(7i64, 3u64), (9, 1), (3, 6), (7, 2), (5, 5), (7, 4)] {
            t.insert(&mut arena, skey(s, i), &mut ops);
        }
        let top = |need: usize, counts: &dyn Fn(PeriodId) -> bool| {
            let mut out = Vec::new();
            let stop = t.collect_top(
                &arena,
                skey(8, 0),
                need,
                counts,
                &mut out,
                &mut OpStats::new(),
            );
            (
                out.iter().map(|p| p.0).collect::<Vec<_>>(),
                stop.map(|k| k.start.0),
            )
        };
        let all = |_: PeriodId| true;
        assert_eq!(top(1, &all), (vec![2, 3, 4], Some(5)));
        assert_eq!(top(3, &all), (vec![2, 3, 4], Some(5)));
        assert_eq!(top(4, &all), (vec![2, 3, 4, 5], Some(3)));
        assert_eq!(top(5, &all), (vec![2, 3, 4, 5, 6], None));
        assert_eq!(top(9, &all), (vec![2, 3, 4, 5, 6], None));
        // Ids 2, 3 and 5 do not count: the fifth key is the second counted.
        let some = |p: PeriodId| ![2, 3, 5].contains(&p.0);
        assert_eq!(top(1, &some), (vec![2, 3, 4], Some(5)));
        assert_eq!(top(2, &some), (vec![2, 3, 4, 5, 6], None));
        let (mut whole, mut short) = (OpStats::new(), OpStats::new());
        t.collect_top(
            &arena,
            skey(8, 0),
            usize::MAX,
            all,
            &mut Vec::new(),
            &mut whole,
        );
        t.collect_top(&arena, skey(8, 0), 6, all, &mut Vec::new(), &mut short);
        assert_eq!(short.secondary_visits, whole.secondary_visits);
    }

    #[test]
    fn from_sorted_matches_incremental() {
        let keys: Vec<EndKey> = (0..500u64).map(|i| ekey((i * 7 % 97) as i64, i)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        let mut arena_a = TreapArena::new(5);
        let mut ops = OpStats::new();
        let bulk = Treap::from_sorted(&mut arena_a, &sorted, &mut Vec::new(), &mut ops);
        bulk.check_invariants(&arena_a);
        let mut arena_b = TreapArena::new(5);
        let mut inc = Treap::new();
        for &k in &keys {
            inc.insert(&mut arena_b, k, &mut ops);
        }
        // Same priorities (hash-derived) → identical shape and contents.
        assert_eq!(bulk.keys_in_order(&arena_a), inc.keys_in_order(&arena_b));
        assert_eq!(bulk.keys_pre_order(&arena_a), inc.keys_pre_order(&arena_b));
        assert_eq!(bulk.len(&arena_a), 500);
        // Bulk build is usable afterwards.
        let mut bulk = bulk;
        assert!(bulk.remove(&mut arena_a, sorted[250], &mut ops));
        bulk.check_invariants(&arena_a);
    }

    #[test]
    fn from_sorted_empty_and_single() {
        let mut arena: TreapArena<EndKey> = TreapArena::new(1);
        let mut ops = OpStats::new();
        let mut spine = vec![7, 7];
        let t = Treap::from_sorted(&mut arena, &[], &mut spine, &mut ops);
        assert!(t.is_empty());
        let t = Treap::from_sorted(&mut arena, &[ekey(5, 1)], &mut spine, &mut ops);
        assert_eq!(t.len(&arena), 1);
        t.check_invariants(&arena);
    }

    #[test]
    fn remove_and_reuse() {
        let (mut arena, mut t, mut ops) = build(&[(10, 1), (20, 2), (30, 3)]);
        assert!(t.remove(&mut arena, ekey(20, 2), &mut ops));
        assert!(!t.remove(&mut arena, ekey(20, 2), &mut ops));
        assert!(!t.remove(&mut arena, ekey(99, 9), &mut ops));
        t.check_invariants(&arena);
        assert_eq!(t.len(&arena), 2);
        assert_eq!(arena.live_nodes(), 2);
        // Freed slot is recycled.
        t.insert(&mut arena, ekey(15, 4), &mut ops);
        assert_eq!(arena.nodes.len(), 3);
    }

    #[test]
    fn clear_releases_all_nodes() {
        let (mut arena, mut t, _) = build(&[(1, 1), (2, 2), (3, 3), (4, 4)]);
        t.clear(&mut arena);
        assert!(t.is_empty());
        assert_eq!(arena.live_nodes(), 0);
    }

    #[test]
    fn deterministic_shape_across_builds() {
        let (a1, t1, _) = build(&[(5, 1), (9, 2), (1, 3), (7, 4)]);
        let (a2, t2, _) = build(&[(5, 1), (9, 2), (1, 3), (7, 4)]);
        assert_eq!(t1.keys_in_order(&a1), t2.keys_in_order(&a2));
    }

    #[test]
    fn count_is_consistent_with_collect_under_random_ops() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let mut arena = TreapArena::new(1);
        let mut t = Treap::new();
        let mut ops = OpStats::new();
        let mut live: Vec<EndKey> = Vec::new();
        for i in 0..2000u64 {
            if live.is_empty() || rng.random_bool(0.6) {
                let k = ekey(rng.random_range(0..500), i);
                t.insert(&mut arena, k, &mut ops);
                live.push(k);
            } else {
                let idx = rng.random_range(0..live.len());
                let k = live.swap_remove(idx);
                assert!(t.remove(&mut arena, k, &mut ops));
            }
            if i % 97 == 0 {
                t.check_invariants(&arena);
                let probe = ekey(rng.random_range(0..500), 0);
                let expected = live.iter().filter(|k| k.end >= probe.end).count();
                assert_eq!(t.count_ge(&arena, probe, &mut ops), expected);
                let mut out = Vec::new();
                t.collect_top(&arena, probe, usize::MAX, |_| true, &mut out, &mut ops);
                assert_eq!(out.len(), expected);
            }
        }
        assert_eq!(arena.live_nodes(), live.len());
    }
}
