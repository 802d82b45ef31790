//! Order-statistic ordered set stored in blocks, generic over the ordering
//! dimension.
//!
//! Two instantiations are used:
//!
//! * keyed by [`EndKey`] (ascending ending time) as the secondary trees
//!   `T_q^e(u)` of the 2-dimensional slot trees (Section 4.1) — supporting
//!   the Phase-2 count/enumeration of periods with `et_i >= e_r`;
//! * keyed by [`StartKey`] (descending starting time) as the global index of
//!   *open-ended trailing* idle periods (see [`crate::trailing`]).
//!
//! The set is a B-tree whose block boundaries the keys draw themselves (a
//! deterministic B-skiplist). A key's *rank* is a quarter of the trailing
//! zero bits of a seeded hash of its period id (at most 7), and a key of
//! rank `r` is the last key of its block at every level below `r` (the
//! largest key of the set ends nothing). Blocks so average 16 entries; a
//! leaf holds keys, an internal block each child's largest key and key
//! count. The layout —
//! which keys share a block at every level — is a function of the key set
//! and the seed alone, so any sequence of inserts and removes leaves the
//! blocks [`BlockSet::from_sorted`] builds over the same keys.
//!
//! Blocks store each key as its [`SetKey::place`], one number, so a search
//! within a block is a scan of plain integers. The blocks of all the sets
//! of one owner live in one [`BlockArena`], their entries in buffers of
//! power-of-two capacity classes: a block that fills up trades its buffer
//! for a spare of the next class, and a freed block's buffers go back to
//! the spares. So a block holds at most twice its entries, and a warm
//! arena allocates nothing.
//!
//! Visits are counted one per block touched.

use crate::idle::{EndKey, StartKey};
use crate::ids::PeriodId;
use crate::stats::OpStats;
use crate::time::Time;
use std::marker::PhantomData;

/// Sentinel for "no block".
const NIL: u32 = u32::MAX;

/// The highest rank: a set needs about 16^7 keys to reach it.
const MAX_RANK: usize = 7;

/// Levels a set can span.
const MAX_LEVELS: usize = MAX_RANK + 1;

/// Capacity class `c` holds buffers of `MIN_CAP << c` entries.
const MIN_CAP: usize = 4;

/// Spare buffers, by capacity class.
type Spares<T> = Vec<Vec<Vec<T>>>;

/// Make room in `v` for `extra` more entries: a buffer too small is
/// traded for a spare of the smallest class that fits.
fn room<T: Copy>(v: &mut Vec<T>, extra: usize, spares: &mut Spares<T>) {
    let need = v.len() + extra;
    if need <= v.capacity() {
        return;
    }
    let class = (need.max(MIN_CAP).next_power_of_two() / MIN_CAP).trailing_zeros() as usize;
    let mut buf = spares
        .get_mut(class)
        .and_then(Vec::pop)
        .unwrap_or_else(|| Vec::with_capacity(MIN_CAP << class));
    buf.extend_from_slice(v);
    spare(std::mem::replace(v, buf), spares);
}

/// Keep a buffer for later, with its class.
fn spare<T>(mut v: Vec<T>, spares: &mut Spares<T>) {
    if v.capacity() >= MIN_CAP {
        let class = (v.capacity() / MIN_CAP).ilog2() as usize;
        if spares.len() <= class {
            spares.resize_with(class + 1, Vec::new);
        }
        v.clear();
        spares[class].push(v);
    }
}

/// SplitMix64 — a tiny, high-quality mixer; used to derive ranks from
/// period ids so layouts are deterministic per seed.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A key a set can be ordered by: its place, one number whose low 64 bits
/// are the key's period id, and whose high 64 bits are the key's ordering
/// position (its tie group). Keys compare as their places do.
pub trait SetKey: Copy + std::fmt::Debug {
    /// The key as one number.
    fn place(&self) -> u128;
    /// The key at a place.
    fn at_place(place: u128) -> Self;
}

/// Where a place's tie group starts: the same position, id 0.
#[inline]
fn group(place: u128) -> u128 {
    place >> 64 << 64
}

/// The period id of a place.
#[inline]
fn id_of(place: u128) -> PeriodId {
    PeriodId(place as u64)
}

/// A time as an unsigned number in the same order.
#[inline]
fn unsigned(t: Time) -> u64 {
    t.0 as u64 ^ 1 << 63
}

impl SetKey for EndKey {
    #[inline]
    fn place(&self) -> u128 {
        u128::from(unsigned(self.end)) << 64 | u128::from(self.id.0)
    }
    fn at_place(place: u128) -> EndKey {
        EndKey {
            end: Time(((place >> 64) as u64 ^ 1 << 63) as i64),
            id: id_of(place),
        }
    }
}

/// Descending start: the complement of the start's number.
impl SetKey for StartKey {
    #[inline]
    fn place(&self) -> u128 {
        u128::from(!unsigned(self.start)) << 64 | u128::from(self.id.0)
    }
    fn at_place(place: u128) -> StartKey {
        StartKey {
            start: Time((!(place >> 64) as u64 ^ 1 << 63) as i64),
            id: id_of(place),
        }
    }
}

/// An internal block's child and the number of keys below it.
#[derive(Clone, Copy, Debug)]
struct Kid {
    block: u32,
    count: u32,
}

/// A leaf holds places; an internal block holds, per child, the child's
/// largest place and the child.
#[derive(Clone, Debug, Default)]
struct Block {
    keys: Vec<u128>,
    /// Empty in a leaf.
    kids: Vec<Kid>,
}

/// A root-to-leaf path, indexed by level (the leaf is level 0): the block
/// and the entry taken in it.
type Path = [(u32, usize); MAX_LEVELS];

/// The first entry of `keys` not below `place`: a branch-free count of
/// the entries below it, the keys being sorted.
#[inline]
fn seek(keys: &[u128], place: u128) -> usize {
    keys.iter().map(|&k| usize::from(k < place)).sum()
}

/// What an arena keeps for reuse: freed blocks and spare buffers.
#[derive(Clone, Debug, Default)]
struct Pools {
    free: Vec<u32>,
    keys: Spares<u128>,
    kids: Spares<Kid>,
}

/// Arena of blocks with a free list, and the spare buffers of its blocks.
/// The pools are boxed on the arena's first use, so that an owner whose
/// sets stay empty — a slot tree with no secondary — stays small.
#[derive(Clone, Debug)]
pub struct BlockArena<K> {
    blocks: Vec<Block>,
    pools: Option<Box<Pools>>,
    seed: u64,
    key: PhantomData<fn() -> K>,
}

impl<K: SetKey> BlockArena<K> {
    /// Create an arena; `seed` perturbs every rank derived from it.
    pub fn new(seed: u64) -> BlockArena<K> {
        BlockArena {
            blocks: Vec::new(),
            pools: None,
            seed,
            key: PhantomData,
        }
    }

    /// Number of live (allocated, not freed) blocks — for leak tests.
    pub fn live_blocks(&self) -> usize {
        self.blocks.len() - self.pools.as_ref().map_or(0, |p| p.free.len())
    }

    /// The number of levels whose block the key at `place` ends.
    #[inline]
    fn rank(&self, place: u128) -> usize {
        ((splitmix64(place as u64 ^ self.seed).trailing_zeros() / 4) as usize).min(MAX_RANK)
    }

    fn alloc(&mut self) -> u32 {
        let pools = self.pools.get_or_insert_with(Box::default);
        pools.free.pop().unwrap_or_else(|| {
            self.blocks.push(Block::default());
            (self.blocks.len() - 1) as u32
        })
    }

    /// Free a block, keeping its buffers.
    fn release(&mut self, b: u32) {
        let blk = std::mem::take(&mut self.blocks[b as usize]);
        let pools = self.pools.get_or_insert_with(Box::default);
        spare(blk.keys, &mut pools.keys);
        spare(blk.kids, &mut pools.kids);
        pools.free.push(b);
    }

    /// Free every block of the subtree at `b`.
    fn release_all(&mut self, b: u32) {
        for i in 0..self.blocks[b as usize].kids.len() {
            self.release_all(self.blocks[b as usize].kids[i].block);
        }
        self.release(b);
    }

    /// Insert an entry at `at` of block `b`: a place, and in an internal
    /// block its child.
    fn insert_entry(&mut self, b: u32, at: usize, place: u128, kid: Option<Kid>) {
        let pools = self.pools.get_or_insert_with(Box::default);
        let blk = &mut self.blocks[b as usize];
        room(&mut blk.keys, 1, &mut pools.keys);
        blk.keys.insert(at, place);
        if let Some(kid) = kid {
            room(&mut blk.kids, 1, &mut pools.kids);
            blk.kids.insert(at, kid);
        }
    }

    fn push_entry(&mut self, b: u32, place: u128, kid: Option<Kid>) {
        self.insert_entry(b, self.blocks[b as usize].keys.len(), place, kid);
    }

    /// Keys below block `b`.
    fn count(&self, b: u32) -> u32 {
        let blk = &self.blocks[b as usize];
        if blk.kids.is_empty() {
            blk.keys.len() as u32
        } else {
            blk.kids.iter().map(|k| k.count).sum()
        }
    }

    /// The largest place below block `b` (blocks are never empty).
    fn last(&self, b: u32) -> u128 {
        let keys = &self.blocks[b as usize].keys;
        keys[keys.len() - 1]
    }

    /// Walk from `root` toward `place`, taking in every block the first
    /// entry not below it (the last entry if all are), so that the leaf
    /// index is where `place` is or would go. Fills `path`, counts a visit
    /// per block and returns the number of levels.
    fn descend(&self, root: u32, place: u128, path: &mut Path, visits: &mut u64) -> usize {
        let (mut depth, mut b) = (0, root);
        loop {
            *visits += 1;
            let blk = &self.blocks[b as usize];
            let i = seek(&blk.keys, place);
            if blk.kids.is_empty() {
                path[depth] = (b, i);
                path[..=depth].reverse();
                return depth + 1;
            }
            let i = i.min(blk.kids.len() - 1);
            path[depth] = (b, i);
            depth += 1;
            b = blk.kids[i].block;
        }
    }

    /// Split block `b` after its entry `i`; the right part becomes a new
    /// block, entered after `b`'s entry `at` in block `parent`.
    fn split(&mut self, b: u32, i: usize, (parent, at): (u32, usize)) {
        let right = self.alloc();
        let mut moved = std::mem::take(&mut self.blocks[right as usize]);
        let pools = self.pools.get_or_insert_with(Box::default);
        let left = &mut self.blocks[b as usize];
        let kids = left.kids.get(i + 1..).unwrap_or_default();
        room(&mut moved.keys, left.keys.len() - i - 1, &mut pools.keys);
        room(&mut moved.kids, kids.len(), &mut pools.kids);
        moved.keys.extend_from_slice(&left.keys[i + 1..]);
        moved.kids.extend_from_slice(kids);
        left.keys.truncate(i + 1);
        left.kids.truncate(i + 1);
        let left_last = left.keys[i];
        self.blocks[right as usize] = moved;
        let count = self.count(right);
        let p = &mut self.blocks[parent as usize];
        p.kids[at].count -= count;
        let last = std::mem::replace(&mut p.keys[at], left_last);
        let kid = Kid {
            block: right,
            count,
        };
        self.insert_entry(parent, at + 1, last, Some(kid));
    }

    /// Merge the children `at` and `at + 1` of block `parent` into the
    /// first.
    fn merge(&mut self, parent: u32, at: usize) {
        let p = &mut self.blocks[parent as usize];
        let Kid {
            block: right,
            count,
        } = p.kids.remove(at + 1);
        p.kids[at].count += count;
        p.keys.remove(at);
        let left = p.kids[at].block;
        let moved = std::mem::take(&mut self.blocks[right as usize]);
        let pools = self.pools.get_or_insert_with(Box::default);
        let blk = &mut self.blocks[left as usize];
        room(&mut blk.keys, moved.keys.len(), &mut pools.keys);
        room(&mut blk.kids, moved.kids.len(), &mut pools.kids);
        blk.keys.extend_from_slice(&moved.keys);
        blk.kids.extend_from_slice(&moved.kids);
        self.blocks[right as usize] = moved;
        self.release(right);
    }

    /// Close the open block of `level` into the open block above it,
    /// opening that one if need be.
    fn close(&mut self, open: &mut [u32; MAX_LEVELS], level: usize, ops: &mut OpStats) {
        let b = std::mem::replace(&mut open[level], NIL);
        let kid = Kid {
            block: b,
            count: self.count(b),
        };
        if open[level + 1] == NIL {
            open[level + 1] = self.alloc();
            ops.update_visits += 1;
        }
        self.push_entry(open[level + 1], self.last(b), Some(kid));
    }

    fn append(&self, b: u32, out: &mut Vec<K>, visits: &mut u64) {
        *visits += 1;
        let blk = &self.blocks[b as usize];
        if blk.kids.is_empty() {
            out.extend(blk.keys.iter().map(|&p| K::at_place(p)));
        }
        for kid in &blk.kids {
            self.append(kid.block, out, visits);
        }
    }
}

/// An ordered set rooted in a shared [`BlockArena`].
#[derive(Clone, Copy, Debug)]
pub struct BlockSet {
    root: u32,
}

impl Default for BlockSet {
    fn default() -> Self {
        BlockSet::new()
    }
}

impl BlockSet {
    /// An empty set.
    pub fn new() -> BlockSet {
        BlockSet { root: NIL }
    }

    /// Number of keys stored.
    pub fn len<K: SetKey>(&self, arena: &BlockArena<K>) -> usize {
        if self.root == NIL {
            0
        } else {
            arena.count(self.root) as usize
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Insert a key: one descent, then the blocks the key now ends split
    /// after it, bottom-up (a new root above the old one where the key's
    /// rank reaches past it). Keys are unique by construction (the id
    /// component is unique); inserting a duplicate is a logic error
    /// upstream and panics in debug builds.
    pub fn insert<K: SetKey>(&mut self, arena: &mut BlockArena<K>, key: K, ops: &mut OpStats) {
        let place = key.place();
        if self.root == NIL {
            self.root = arena.alloc();
            arena.push_entry(self.root, place, None);
            ops.update_visits += 1;
            return;
        }
        let mut path = [(0, 0); MAX_LEVELS];
        let mut levels = arena.descend(self.root, place, &mut path, &mut ops.update_visits);
        let (leaf, at) = path[0];
        let keys = &arena.blocks[leaf as usize].keys;
        debug_assert!(keys.get(at) != Some(&place), "duplicate key {key:?}");
        // A new largest key went past every entry: the old largest is no
        // longer last, so it is the one that ends blocks now.
        let largest = at == keys.len();
        let (ender, i) = if largest {
            (keys[at - 1], at - 1)
        } else {
            (place, at)
        };
        arena.insert_entry(leaf, at, place, None);
        for &(b, i) in &path[1..levels] {
            let blk = &mut arena.blocks[b as usize];
            blk.kids[i].count += 1;
            if largest {
                blk.keys[i] = place;
            }
        }
        path[0].1 = i;
        for j in 0..arena.rank(ender) {
            if j + 1 == levels {
                let root = arena.alloc();
                let kid = Kid {
                    block: self.root,
                    count: arena.count(self.root),
                };
                arena.push_entry(root, arena.last(self.root), Some(kid));
                (path[levels], self.root) = ((root, 0), root);
                levels += 1;
            }
            ops.update_visits += 1;
            arena.split(path[j].0, path[j].1, path[j + 1]);
        }
    }

    /// Remove a key in one descent; returns whether it was present. A miss
    /// leaves the set as it was.
    ///
    /// Below the lower of the predecessor's rank and the key's own (the
    /// latter only if a successor exists) the key sat alone in its blocks,
    /// which go. Where the key ended blocks its predecessor does not, the
    /// blocks either side of it join, top-down.
    pub fn remove<K: SetKey>(
        &mut self,
        arena: &mut BlockArena<K>,
        key: K,
        ops: &mut OpStats,
    ) -> bool {
        if self.root == NIL {
            return false;
        }
        let place = key.place();
        let mut path = [(0, 0); MAX_LEVELS];
        let levels = arena.descend(self.root, place, &mut path, &mut ops.update_visits);
        if arena.blocks[path[0].0 as usize].keys.get(path[0].1) != Some(&place) {
            return false;
        }
        let (mut pred, mut succ) = (None, false);
        for &(b, i) in &path[..levels] {
            let keys = &arena.blocks[b as usize].keys;
            if pred.is_none() && i > 0 {
                pred = Some(keys[i - 1]);
            }
            succ |= i + 1 < keys.len();
        }
        let none = usize::MAX;
        let rp = pred.map_or(none, |p| arena.rank(p));
        let rk = if succ { arena.rank(place) } else { none };
        let alone = rp.min(rk);
        if alone == none {
            arena.release(self.root);
            self.root = NIL;
            return true;
        }
        for &(b, _) in &path[..alone] {
            arena.release(b);
        }
        let (b, i) = path[alone];
        let blk = &mut arena.blocks[b as usize];
        blk.keys.remove(i);
        if alone > 0 {
            blk.kids.remove(i);
        }
        for j in alone + 1..levels {
            let last = arena.last(path[j - 1].0);
            let (b, i) = path[j];
            let blk = &mut arena.blocks[b as usize];
            blk.kids[i].count -= 1;
            blk.keys[i] = last;
        }
        if succ {
            for j in (rp..rk).rev() {
                ops.update_visits += 1;
                arena.merge(path[j + 1].0, path[j + 1].1);
            }
        }
        while arena.blocks[self.root as usize].kids.len() == 1 {
            let only = arena.blocks[self.root as usize].kids[0].block;
            arena.release(self.root);
            self.root = only;
        }
        true
    }

    /// Build a set from keys in **ascending order** in `O(k)`, left to
    /// right: each leaf takes the run of keys up to the first one that
    /// ends a block, and that key closes the open blocks of the levels
    /// below its rank, each into the open block above.
    pub fn from_sorted<K: SetKey>(
        arena: &mut BlockArena<K>,
        sorted: &[K],
        ops: &mut OpStats,
    ) -> BlockSet {
        debug_assert!(
            sorted.windows(2).all(|w| w[0].place() < w[1].place()),
            "keys sorted+unique"
        );
        let mut open = [NIL; MAX_LEVELS];
        let (mut top, mut rest) = (0, sorted);
        while !rest.is_empty() {
            let run = rest
                .iter()
                .position(|k| arena.rank(k.place()) > 0)
                .map_or(rest.len(), |i| i + 1);
            let (leaf, tail) = rest.split_at(run);
            open[0] = arena.alloc();
            ops.update_visits += 1;
            let pools = arena.pools.get_or_insert_with(Box::default);
            let keys = &mut arena.blocks[open[0] as usize].keys;
            room(keys, run, &mut pools.keys);
            keys.extend(leaf.iter().map(K::place));
            let ends = if tail.is_empty() {
                0
            } else {
                arena.rank(leaf[run - 1].place())
            };
            for level in 0..ends {
                arena.close(&mut open, level, ops);
            }
            (top, rest) = (top.max(ends), tail);
        }
        for level in 0..top {
            arena.close(&mut open, level, ops);
        }
        BlockSet { root: open[top] }
    }

    /// Count of keys `>= floor`, from the per-child counts, one block per
    /// level.
    ///
    /// With end keys this is the Phase-2 feasibility count (`et_i >= e_r`);
    /// with descending start keys it is the candidate count
    /// (`st_i <= s_r`).
    pub fn count_ge<K: SetKey>(&self, arena: &BlockArena<K>, floor: K, ops: &mut OpStats) -> usize {
        let floor = group(floor.place());
        let (mut b, mut count) = (self.root, 0);
        while b != NIL {
            ops.secondary_visits += 1;
            let blk = &arena.blocks[b as usize];
            let i = seek(&blk.keys, floor);
            if blk.kids.is_empty() {
                return count + blk.keys.len() - i;
            }
            let Some(kid) = blk.kids.get(i) else { break };
            count += blk.kids[i + 1..]
                .iter()
                .map(|k| k.count as usize)
                .sum::<usize>();
            b = kid.block;
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
    pub fn collect_top<K: SetKey>(
        &self,
        arena: &BlockArena<K>,
        floor: K,
        need: usize,
        mut counts: impl FnMut(PeriodId) -> bool,
        out: &mut Vec<PeriodId>,
        ops: &mut OpStats,
    ) -> Option<K> {
        if self.root == NIL {
            return None;
        }
        let mut path = [(0, 0); MAX_LEVELS];
        let floor = group(floor.place());
        let levels = arena.descend(self.root, floor, &mut path, &mut ops.secondary_visits);
        let (mut counted, mut last_group) = (0, None);
        loop {
            let (leaf, at) = path[0];
            for &place in &arena.blocks[leaf as usize].keys[at..] {
                if counted >= need && last_group != Some(group(place)) {
                    return Some(K::at_place(place));
                }
                out.push(id_of(place));
                counted += usize::from(counts(id_of(place)));
                last_group = Some(group(place));
            }
            // On to the next leaf: up to the first level with an entry
            // left, then down its leftmost path.
            let mut j = 1;
            loop {
                if j == levels {
                    return None;
                }
                let (b, i) = &mut path[j];
                if *i + 1 < arena.blocks[*b as usize].kids.len() {
                    *i += 1;
                    break;
                }
                j += 1;
            }
            for j in (1..=j).rev() {
                let (b, i) = path[j];
                path[j - 1] = (arena.blocks[b as usize].kids[i].block, 0);
                ops.secondary_visits += 1;
            }
        }
    }

    /// All keys in ascending order (test helper).
    pub fn keys_in_order<K: SetKey>(&self, arena: &BlockArena<K>) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len(arena));
        self.append_keys(arena, &mut out, &mut 0);
        out
    }

    /// Append all keys to `out` in ascending order, counting a visit per
    /// block read.
    pub fn append_keys<K: SetKey>(
        &self,
        arena: &BlockArena<K>,
        out: &mut Vec<K>,
        visits: &mut u64,
    ) {
        if self.root != NIL {
            arena.append(self.root, out, visits);
        }
    }

    /// Every block's keys (a leaf's keys, an internal block's children's
    /// largest keys), blocks in pre-order. Together with the boundary rule
    /// [`BlockSet::check_invariants`] checks, this pins the layout (test
    /// helper for history-independence checks).
    #[doc(hidden)]
    pub fn layout<K: SetKey>(&self, arena: &BlockArena<K>) -> Vec<Vec<K>> {
        fn rec<K: SetKey>(arena: &BlockArena<K>, b: u32, out: &mut Vec<Vec<K>>) {
            let blk = &arena.blocks[b as usize];
            out.push(blk.keys.iter().map(|&p| K::at_place(p)).collect());
            for kid in &blk.kids {
                rec(arena, kid.block, out);
            }
        }
        let mut out = Vec::new();
        if self.root != NIL {
            rec(arena, self.root, &mut out);
        }
        out
    }

    /// Levels above the leaves (test helper).
    #[doc(hidden)]
    pub fn height<K: SetKey>(&self, arena: &BlockArena<K>) -> usize {
        let (mut height, mut b) = (0, self.root);
        while let Some(kid) = arena
            .blocks
            .get(b as usize)
            .and_then(|blk| blk.kids.first())
        {
            (height, b) = (height + 1, kid.block);
        }
        height
    }

    /// Free every block of this set back into the arena, `O(blocks)`.
    pub fn clear<K: SetKey>(&mut self, arena: &mut BlockArena<K>) {
        if self.root != NIL {
            arena.release_all(self.root);
            self.root = NIL;
        }
    }

    /// Validate the layout (test helper): keys ascending, every entry the
    /// largest key and the key count of its child, leaves all at one depth,
    /// a block ending exactly where its last key's rank says (the largest
    /// key aside), and no root with a single child.
    #[doc(hidden)]
    pub fn check_invariants<K: SetKey>(&self, arena: &BlockArena<K>) {
        fn rec<K: SetKey>(arena: &BlockArena<K>, b: u32, level: usize, max: u128) -> u32 {
            let blk = &arena.blocks[b as usize];
            let (&last, inner) = blk.keys.split_last().expect("empty block");
            for &k in inner {
                assert!(
                    arena.rank(k) <= level,
                    "{k:#x} should end its level-{level} block"
                );
            }
            assert!(
                last == max || arena.rank(last) > level,
                "{last:#x} should not end its level-{level} block"
            );
            if level == 0 {
                assert!(blk.kids.is_empty(), "leaves at one depth");
                return blk.keys.len() as u32;
            }
            assert_eq!(blk.kids.len(), blk.keys.len(), "one key per child");
            let mut total = 0;
            for (kid, &k) in blk.kids.iter().zip(&blk.keys) {
                assert_eq!(arena.last(kid.block), k, "entry key");
                assert_eq!(
                    rec(arena, kid.block, level - 1, max),
                    kid.count,
                    "entry count"
                );
                total += kid.count;
            }
            total
        }
        if self.root == NIL {
            return;
        }
        let keys: Vec<u128> = self.keys_in_order(arena).iter().map(K::place).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "key order");
        assert_ne!(
            arena.blocks[self.root as usize].kids.len(),
            1,
            "one-child root"
        );
        let n = rec(arena, self.root, self.height(arena), keys[keys.len() - 1]);
        assert_eq!(n as usize, keys.len(), "root count");
    }
}
