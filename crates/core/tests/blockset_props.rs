//! The blocked ordered set against a model, and its layout against its
//! key set.
//!
//! A seeded stream of inserts and removes grows two sets sharing one arena
//! past 5,000 keys (so that three and more levels split and merge), shrinks
//! them and grows them again. At checkpoints each set is compared with a
//! `BTreeSet`: length, in-order keys, `count_ge` and `collect_top` (random
//! floor, `need`, filter and tie groups, and the stop key it returns); and
//! its block layout is compared with the one `from_sorted` builds over the
//! same keys. A short-stream property compares the layout after every
//! single update. Two worked examples pin `count_ge` and the stop rule of
//! `collect_top`.

use coalloc_core::blockset::{BlockArena, BlockSet, SetKey};
use coalloc_core::idle::{EndKey, StartKey};
use coalloc_core::ids::PeriodId;
use coalloc_core::stats::OpStats;
use coalloc_core::time::Time;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

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

/// A key as the model sees it, through its own order and fields.
trait ModelKey: SetKey + Ord {
    fn id(&self) -> PeriodId;
    /// The smallest key of the tie group: the same time, id 0.
    fn group(&self) -> Self;
}

impl ModelKey for EndKey {
    fn id(&self) -> PeriodId {
        self.id
    }
    fn group(&self) -> EndKey {
        ekey(self.end.0, 0)
    }
}

impl ModelKey for StartKey {
    fn id(&self) -> PeriodId {
        self.id
    }
    fn group(&self) -> StartKey {
        skey(self.start.0, 0)
    }
}

/// What `collect_top` must return, from the definition: the keys `>=
/// floor` in order until `need` accepted ids, then the rest of the last
/// key's tie group; the first key left out, if any.
fn model_top<K: ModelKey>(
    model: &BTreeSet<K>,
    floor: K,
    need: usize,
    counts: impl Fn(PeriodId) -> bool,
) -> (Vec<PeriodId>, Option<K>) {
    let (mut out, mut counted, mut group) = (Vec::new(), 0, None);
    for &key in model.range(floor.group()..) {
        if counted >= need && group != Some(key.group()) {
            return (out, Some(key));
        }
        out.push(key.id());
        counted += usize::from(counts(key.id()));
        group = Some(key.group());
    }
    (out, None)
}

/// Compare `set` with `model` on every query, and its layout with the bulk
/// builder's over the same keys.
fn check_against<K: ModelKey>(
    arena: &BlockArena<K>,
    set: &BlockSet,
    model: &BTreeSet<K>,
    seed: u64,
    probe: impl Fn(&mut SmallRng) -> K,
    rng: &mut SmallRng,
) {
    let mut ops = OpStats::new();
    set.check_invariants(arena, seed);
    let keys: Vec<K> = model.iter().copied().collect();
    assert_eq!(set.len(arena), keys.len());
    assert_eq!(set.keys_in_order(arena), keys);
    let mut bulk_arena = BlockArena::new();
    let bulk = BlockSet::from_sorted(&mut bulk_arena, seed, &keys, &mut ops);
    assert_eq!(set.layout(arena), bulk.layout(&bulk_arena), "layout");
    for _ in 0..20 {
        let floor = probe(rng);
        let want = model.range(floor.group()..).count();
        assert_eq!(set.count_ge(arena, floor, &mut ops), want, "count_ge");
        let need = match rng.random_range(0..4) {
            0 => usize::MAX,
            1 => rng.random_range(0..4),
            _ => rng.random_range(0..2 * want.max(1)),
        };
        // Ids with these low bits do not count (4: all do).
        let skip = rng.random_range(0..5u64);
        let counts = |p: PeriodId| p.0 & 3 != skip;
        let mut got = Vec::new();
        let stop = set.collect_top(arena, floor, need, counts, &mut got, &mut ops);
        assert_eq!(
            (got, stop),
            model_top(model, floor, need, counts),
            "collect_top"
        );
    }
}

/// Two end-key sets in one arena, each with its own seed, walk through
/// the sizes in `targets`; `ends` ends share a tie group.
fn run_stream(seed: u64, ends: i64, targets: &[usize]) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut arena = BlockArena::new();
    let mut sets = [BlockSet::new(), BlockSet::new()];
    let seeds = [seed, seed ^ 0x5EED];
    let mut models = [BTreeSet::new(), BTreeSet::new()];
    let mut live: [Vec<EndKey>; 2] = [Vec::new(), Vec::new()];
    let (mut ops, mut next_id, mut tallest, mut largest) = (OpStats::new(), 1u64, 0, 0);
    for (round, &target) in targets.iter().enumerate() {
        let t = round % 2;
        let mut step = 0;
        while live[t].len() != target {
            if live[t].len() < target {
                let key = ekey(rng.random_range(0..ends), next_id);
                next_id += 1;
                sets[t].insert(&mut arena, seeds[t], key, &mut ops);
                models[t].insert(key);
                live[t].push(key);
            } else {
                let key = live[t].swap_remove(rng.random_range(0..live[t].len()));
                assert!(sets[t].remove(&mut arena, seeds[t], key, &mut ops));
                assert!(models[t].remove(&key));
                // A second remove of the same key, or of one never there,
                // changes nothing.
                assert!(!sets[t].remove(&mut arena, seeds[t], key, &mut ops));
                assert!(!sets[t].remove(&mut arena, seeds[t], ekey(key.end.0, 0), &mut ops));
            }
            step += 1;
            largest = largest.max(live[t].len());
            tallest = tallest.max(sets[t].height(&arena));
            if step % 701 == 0 {
                check_against(
                    &arena,
                    &sets[t],
                    &models[t],
                    seeds[t],
                    probe(ends),
                    &mut rng,
                );
            }
        }
        check_against(
            &arena,
            &sets[t],
            &models[t],
            seeds[t],
            probe(ends),
            &mut rng,
        );
    }
    assert!(largest >= 5_000, "the stream reaches 5,000 keys");
    assert!(
        tallest >= 3,
        "the stream reaches three levels above the leaves"
    );
    for set in &mut sets {
        set.clear(&mut arena);
    }
    assert_eq!(arena.live_blocks(), 0, "clear frees every block");
}

fn probe(ends: i64) -> impl Fn(&mut SmallRng) -> EndKey {
    move |rng| ekey(rng.random_range(-1..=ends), rng.random_range(0..3))
}

/// Few, large tie groups; many small ones; and all but unique keys.
#[test]
fn end_key_sets_match_the_model() {
    let targets = [5_200, 300, 40, 5_100, 0, 2_000, 6_000, 1];
    for (seed, ends) in [(1, 97), (2, 5_000), (3, 1 << 40)] {
        run_stream(seed, ends, &targets);
    }
}

/// The trailing set's instance: descending start keys.
#[test]
fn start_key_set_matches_the_model() {
    let mut rng = SmallRng::seed_from_u64(9);
    let mut arena = BlockArena::new();
    let mut set = BlockSet::new();
    let mut model = BTreeSet::new();
    let mut ops = OpStats::new();
    for i in 0..6_000u64 {
        if model.is_empty() || rng.random_bool(0.6) {
            let key = skey(rng.random_range(0..3_000), i + 1);
            set.insert(&mut arena, 9, key, &mut ops);
            model.insert(key);
        } else {
            let key = *model.iter().nth(rng.random_range(0..model.len())).unwrap();
            assert!(set.remove(&mut arena, 9, key, &mut ops));
            model.remove(&key);
        }
    }
    let probe = |rng: &mut SmallRng| skey(rng.random_range(-1..3_001), 0);
    check_against(&arena, &set, &model, 9, probe, &mut rng);
}

/// Figure 2: the secondary tree of root A stores ends {18, 25, 33, 33};
/// for the request with e_r = 29, two periods (Y and Z, both ending at 33)
/// are feasible.
#[test]
fn count_ge_matches_paper_example() {
    let mut arena = BlockArena::new();
    let (mut set, mut ops) = (BlockSet::new(), OpStats::new());
    for (end, id) in [(25, 1), (33, 2), (33, 3), (18, 4)] {
        set.insert(&mut arena, 42, ekey(end, id), &mut ops);
    }
    let ends: Vec<i64> = set.keys_in_order(&arena).iter().map(|k| k.end.0).collect();
    assert_eq!(ends, vec![18, 25, 33, 33]);
    assert_eq!(set.count_ge(&arena, ekey(29, 0), &mut ops), 2);
    assert_eq!(set.count_ge(&arena, ekey(18, 0), &mut ops), 4);
    assert_eq!(set.count_ge(&arena, ekey(34, 0), &mut ops), 0);
}

/// The stop rule: `need` counted ids, then the rest of the last one's tie
/// group, whatever the ids inside the group; uncounted ids do not bring the
/// stop closer; a walk that never reaches `need` is the whole walk, visit
/// for visit.
#[test]
fn collect_top_stops_after_need_and_the_tie_group() {
    let mut arena: BlockArena<StartKey> = BlockArena::new();
    let (mut set, mut ops) = (BlockSet::new(), OpStats::new());
    // Starts 9, 7, 7, 7, 5, 3 (ids 1..=6), walked from 8 down; 7's group
    // holds ids 2, 3, 4.
    for (s, i) in [(7, 3), (9, 1), (3, 6), (7, 2), (5, 5), (7, 4)] {
        set.insert(&mut arena, 3, skey(s, i), &mut ops);
    }
    let top = |need: usize, counts: &dyn Fn(PeriodId) -> bool| {
        let (mut out, mut ops) = (Vec::new(), OpStats::new());
        let stop = set.collect_top(&arena, skey(8, 0), need, counts, &mut out, &mut ops);
        let ids: Vec<u64> = out.iter().map(|p| p.0).collect();
        (ids, stop.map(|k| k.start.0))
    };
    let all = |_: PeriodId| true;
    assert_eq!(top(1, &all), (vec![2, 3, 4], Some(5)));
    assert_eq!(top(4, &all), (vec![2, 3, 4, 5], Some(3)));
    assert_eq!(top(5, &all), (vec![2, 3, 4, 5, 6], None));
    // Ids 2, 3 and 5 do not count: the fifth key is the second counted.
    let some = |p: PeriodId| ![2, 3, 5].contains(&p.0);
    assert_eq!(top(1, &some), (vec![2, 3, 4], Some(5)));
    assert_eq!(top(2, &some), (vec![2, 3, 4, 5, 6], None));
    let (mut whole, mut short) = (OpStats::new(), OpStats::new());
    let walk = |need, stats: &mut OpStats| {
        set.collect_top(&arena, skey(8, 0), need, all, &mut Vec::new(), stats);
    };
    walk(usize::MAX, &mut whole);
    walk(6, &mut short);
    assert_eq!(short.secondary_visits, whole.secondary_visits);
}

/// A place orders keys as the keys order themselves, and gives them back,
/// at the extremes of time too.
#[test]
fn places_keep_the_key_order() {
    let mut rng = SmallRng::seed_from_u64(5);
    let times = [i64::MIN, -7, -1, 0, 1, 42, i64::MAX - 1, i64::MAX];
    let time = |rng: &mut SmallRng| match rng.random_range(0..3) {
        0 => times[rng.random_range(0..times.len())],
        1 => rng.random_range(-50..50),
        _ => rng.random_range(i64::MIN..i64::MAX),
    };
    for _ in 0..20_000 {
        let (a, b) = (time(&mut rng), time(&mut rng));
        let (i, j) = (rng.random_range(0..4), rng.random_range(0..u64::MAX));
        let (x, y) = (ekey(a, i), ekey(b, j));
        assert_eq!(x.cmp(&y), x.place().cmp(&y.place()), "{x:?} {y:?}");
        assert_eq!(EndKey::at_place(x.place()), x);
        let (x, y) = (skey(a, i), skey(b, j));
        assert_eq!(x.cmp(&y), x.place().cmp(&y.place()), "{x:?} {y:?}");
        assert_eq!(StartKey::at_place(x.place()), x);
    }
}

proptest! {
    /// The layout is a function of the key set: after any sequence of
    /// inserts and removes it is the bulk builder's over the same keys,
    /// checked after every update.
    #[test]
    fn updates_match_bulk_build(
        seed in 0u64..u64::MAX,
        steps in prop::collection::vec((0u8..3, 0u64..400, 0i64..40), 1..600),
    ) {
        let mut arena = BlockArena::new();
        let mut set = BlockSet::new();
        let mut ops = OpStats::new();
        let mut live: Vec<EndKey> = Vec::new();
        for (insert, id, end) in steps {
            let key = ekey(end, id);
            match (live.iter().position(|k| k.id.0 == id), insert > 0) {
                (None, true) => {
                    set.insert(&mut arena, seed, key, &mut ops);
                    live.push(key);
                }
                (Some(i), false) => {
                    let key = live.swap_remove(i);
                    prop_assert!(set.remove(&mut arena, seed, key, &mut ops));
                }
                // A miss (same id, maybe another end) leaves it alone.
                (hit, _) => {
                    if hit.is_none_or(|i| live[i] != key) {
                        prop_assert!(!set.remove(&mut arena, seed, key, &mut ops));
                    }
                }
            }
            set.check_invariants(&arena, seed);
            live.sort();
            let mut bulk_arena = BlockArena::new();
            let bulk = BlockSet::from_sorted(&mut bulk_arena, seed, &live, &mut ops);
            prop_assert_eq!(set.layout(&arena), bulk.layout(&bulk_arena));
            prop_assert_eq!(arena.live_blocks(), bulk_arena.live_blocks());
        }
    }
}
