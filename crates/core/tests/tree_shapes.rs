//! The write path may get cheaper, but never change a tree.
//!
//! Primary tree shape is visible on the wire: `query` lists hits in
//! marked-subtree order, and within a marked subtree in secondary key
//! order. So every primary slot tree must come out of any update stream
//! exactly as before, with the same keys in every secondary and in the
//! trailing set. How an ordered set lays its keys out in blocks does not
//! reach the wire (it is a function of the key set alone, which
//! `blockset_props.rs` checks). A seeded stream drives several
//! [`SlotTree`]s (eager and deferred groups, across [`SCAN_MAX`] both ways,
//! through the scapegoat root rule) and a [`TrailingSet`], and hashes every
//! primary shape and key order it passes through; the constants were
//! computed before the update paths were rewritten. The
//! `tree_rebuild_size` histogram is pinned on the same stream.

use coalloc_core::idle::{EndKey, IdlePeriod};
use coalloc_core::ids::{PeriodId, ServerId};
use coalloc_core::primary::{PeriodOp, SlotTree, SCAN_MAX};
use coalloc_core::scratch::Scratch;
use coalloc_core::stats::OpStats;
use coalloc_core::time::Time;
use coalloc_core::trailing::TrailingSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// The histogram is process-wide: the two stream tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn period(&mut self, p: &IdlePeriod) {
        for w in [p.id.0, p.server.0 as u64, p.start.0 as u64, p.end.0 as u64] {
            self.word(w);
        }
    }
}

struct StreamOutcome {
    hash: u64,
    updates: usize,
    rebuilds: u64,
    hist_count: u64,
    hist_sum: u64,
}

/// Grow and shrink targets each tree walks through in turn: up past
/// `SCAN_MAX`, then down to well below 0.7 of the high-water mark.
const TARGETS: [usize; 6] = [300, 24, 170, 8, 420, 60];

fn run_stream() -> StreamOutcome {
    let hist = obs::metrics::histogram("tree_rebuild_size");
    let (count0, sum0) = (hist.count(), hist.sum());
    let mut rng = SmallRng::seed_from_u64(0x5A_9E5);
    let mut trees: Vec<SlotTree> = (0..4).map(|i| SlotTree::new(0x7EE5 ^ i)).collect();
    let mut live: Vec<Vec<IdlePeriod>> = vec![Vec::new(); trees.len()];
    let mut phase = vec![0usize; trees.len()];
    let mut trailing = TrailingSet::new(0x7A1);
    let mut trailing_live: Vec<IdlePeriod> = Vec::new();
    let (mut ops, mut scratch, mut hash) =
        (OpStats::new(), Scratch::new(), Fnv(0xcbf2_9ce4_8422_2325));
    let mut next_id = 1u64;
    let mut updates = 0usize;
    let mut batch = Vec::new();
    let mut crossed = [false; 2];
    while updates < 20_000 {
        let t = rng.random_range(0..trees.len());
        let k = if rng.random_bool(0.2) {
            rng.random_range(16..48)
        } else {
            rng.random_range(1..8)
        };
        batch.clear();
        for _ in 0..k {
            let target = TARGETS[phase[t] % TARGETS.len()];
            let set = &mut live[t];
            let grow = set.len() < target;
            if grow || set.is_empty() {
                let start = rng.random_range(0..500);
                let p = IdlePeriod {
                    id: PeriodId(next_id),
                    server: ServerId(rng.random_range(0..64)),
                    start: Time(start),
                    end: Time(start + rng.random_range(1..400)),
                };
                next_id += 1;
                set.push(p);
                batch.push(PeriodOp::Insert(p));
            } else {
                let victim = set.swap_remove(rng.random_range(0..set.len()));
                batch.push(PeriodOp::Remove(victim));
            }
            let reached = if grow {
                set.len() >= target
            } else {
                set.len() <= target
            };
            if reached {
                phase[t] += 1;
            }
        }
        let before = trees[t].len();
        trees[t].apply_ops(
            batch.iter().copied(),
            rng.random_bool(0.5),
            &mut scratch,
            &mut ops,
        );
        let after = trees[t].len();
        crossed[0] |= before <= SCAN_MAX && after > SCAN_MAX;
        crossed[1] |= before > SCAN_MAX && after <= SCAN_MAX;
        updates += k;

        // One trailing-set move per group, its size oscillating too.
        if trailing_live.len() < 40 || (trailing_live.len() < 400 && rng.random_bool(0.55)) {
            let p = IdlePeriod {
                id: PeriodId(next_id),
                server: ServerId(rng.random_range(0..64)),
                start: Time(rng.random_range(0..300)),
                end: Time::INF,
            };
            next_id += 1;
            trailing.insert(&p, &mut ops);
            trailing_live.push(p);
        } else {
            let victim = trailing_live.swap_remove(rng.random_range(0..trailing_live.len()));
            assert!(trailing.remove(&victim, &mut ops));
        }
        updates += 1;

        if updates % 16 < 2 {
            for tree in &trees {
                hash.word(tree.len() as u64);
                for (size, split, secondary) in tree.fingerprint() {
                    hash.word(size as u64);
                    hash.word(split.start.0 as u64);
                    hash.word(split.id.0);
                    for EndKey { end, id } in secondary {
                        hash.word(end.0 as u64);
                        hash.word(id.0);
                    }
                }
                for p in tree.periods_in_order() {
                    hash.period(&p);
                }
            }
            for key in trailing.keys_in_order() {
                hash.word(key.start.0 as u64);
                hash.word(key.id.0);
            }
        }
    }
    assert_eq!(
        crossed,
        [true, true],
        "the stream crosses SCAN_MAX both ways"
    );
    for tree in &trees {
        tree.check_invariants();
    }
    trailing.check_invariants();
    hash.word(ops.rebuilds);
    StreamOutcome {
        hash: hash.0,
        updates,
        rebuilds: ops.rebuilds,
        hist_count: hist.count() - count0,
        hist_sum: hist.sum() - sum0,
    }
}

/// Every shape and key order the stream passes through, and its rebuild
/// count, equal the ones the split-then-merge treaps and the
/// collect-and-rebuild slot trees produced.
#[test]
fn update_stream_keeps_every_shape() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = run_stream();
    assert!(out.updates >= 20_000);
    assert_eq!(out.rebuilds, REBUILDS);
    assert_eq!(
        out.hash, SHAPE_HASH,
        "a tree shape moved: {:#018x}",
        out.hash
    );
}

/// One `tree_rebuild_size` observation per rebuild, each the subtree's
/// size after the update: count and sum as before, count equal to the
/// `OpStats::rebuilds` delta.
#[test]
fn rebuild_histogram_sees_every_rebuild() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = run_stream();
    assert_eq!(out.hist_count, out.rebuilds);
    assert_eq!((out.hist_count, out.hist_sum), (REBUILDS, REBUILD_SIZE_SUM));
}

const SHAPE_HASH: u64 = 0x31c3_08f4_9544_9703;
const REBUILDS: u64 = 5_595;
const REBUILD_SIZE_SUM: u64 = 51_356;
