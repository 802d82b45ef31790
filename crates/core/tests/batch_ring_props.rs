//! Differential tests for the ring's batched write path (DESIGN.md §12,
//! "Batched write path").
//!
//! The contract: applying an ordered list of period removals and insertions
//! through [`SlotRing::apply_batch`] — whatever the batch boundaries, and
//! whichever canonical trees take the deferred secondary-tree path — leaves
//! the ring in **exactly** the state one-period-at-a-time application
//! leaves it in: same leaf order, same primary shapes, same secondary keys
//! (and so the same secondary layouts), same rebuild count, and therefore
//! the same hits in the same order at the same visit counts for any probe.
//! Only `update_visits` may differ, and only off the primary-tree paths
//! (`update_path_visits` is the same).

use coalloc_core::ids::PeriodId;
use coalloc_core::prelude::*;
use coalloc_core::primary::{PeriodOp, SCAN_MAX};
use coalloc_core::ring::{SlotRing, StabMarks};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Server counts on either side of [`SCAN_MAX`]: a canonical tree holds
/// about one period per server, so the small system never grows a secondary
/// tree and the large one grows, crosses and drops them. 7, the server
/// walk's stride, is coprime to both.
const FEW_SERVERS: u32 = 48;
const MANY_SERVERS: u32 = 160;
const _: () = assert!((FEW_SERVERS as usize) < SCAN_MAX && 2 * SCAN_MAX < MANY_SERVERS as usize);
const TAU: i64 = 10;
/// Six live slots pad to eight leaves, so a few advances wrap the modulus.
const SLOTS: i64 = 6;

/// The finite-period updates of one timeline delta, in the scheduler's
/// routing order (open-ended periods belong to the trailing set).
fn finite_ops(delta: &PeriodDelta, out: &mut Vec<PeriodOp>) {
    out.extend(
        delta
            .removed
            .iter()
            .filter(|p| !p.end.is_inf())
            .map(|p| PeriodOp::Remove(*p)),
    );
    out.extend(
        delta
            .added
            .iter()
            .filter(|p| !p.end.is_inf())
            .map(|p| PeriodOp::Insert(*p)),
    );
}

/// One reservation: `(server, start, end)`.
type Held = (ServerId, Time, Time);

/// One generated step, `(kind, a, b, c)`; see [`stream`].
type Step = (u8, u32, i64, i64);

/// Two rings over one timeline: `eager` takes every update as a batch of
/// its own and never defers (the pre-batching write path); `batched` takes
/// them in batches.
struct Pair {
    servers: u32,
    timeline: Timeline,
    eager: SlotRing,
    batched: SlotRing,
    eager_stats: OpStats,
    batched_stats: OpStats,
    eager_scratch: Scratch,
    batched_scratch: Scratch,
    now: Time,
    /// Live reservations by job.
    jobs: Vec<(JobId, Vec<Held>)>,
    next_job: u64,
}

impl Pair {
    fn new(servers: u32) -> Pair {
        let cfg = SlotConfig::new(Dur(TAU), Dur(TAU * SLOTS));
        let mut eager = SlotRing::new(cfg, Time::ZERO, 0xBA7C);
        eager.force_eager();
        Pair {
            servers,
            timeline: Timeline::new(servers, Time::ZERO),
            eager,
            batched: SlotRing::new(cfg, Time::ZERO, 0xBA7C),
            eager_stats: OpStats::new(),
            batched_stats: OpStats::new(),
            eager_scratch: Scratch::new(),
            batched_scratch: Scratch::new(),
            now: Time::ZERO,
            jobs: Vec::new(),
            next_job: 0,
        }
    }

    /// Reserve `[start, start + dur)` on up to `width` servers that are
    /// idle over it, starting the server walk at `first`.
    fn reserve(&mut self, width: u32, first: u32, start: Time, dur: Dur, ops: &mut Vec<PeriodOp>) {
        let end = (start + dur).min(self.batched.horizon_end());
        if end <= start {
            return;
        }
        let job = JobId(self.next_job);
        self.next_job += 1;
        let mut held = Vec::new();
        let mut delta = PeriodDelta::default();
        for i in 0..self.servers {
            if held.len() as u32 == width {
                break;
            }
            // The stride is coprime to the server count: the walk visits
            // every server once.
            let server = ServerId((first + i * 7) % self.servers);
            if let Some(p) = self.timeline.covering_idle(server, start, end) {
                self.timeline
                    .reserve_into(p.id, job, start, end, &mut delta);
                finite_ops(&delta, ops);
                held.push((server, start, end));
            }
        }
        if !held.is_empty() {
            self.jobs.push((job, held));
        }
    }

    fn release(&mut self, pick: usize, ops: &mut Vec<PeriodOp>) {
        if self.jobs.is_empty() {
            return;
        }
        let (job, held) = self.jobs.swap_remove(pick % self.jobs.len());
        let mut delta = PeriodDelta::default();
        for (server, start, end) in held {
            if end <= self.batched.window_start() {
                continue; // ran to completion; the scheduler retires these
            }
            self.timeline
                .release_into(server, job, start, end, &mut delta);
            finite_ops(&delta, ops);
        }
    }

    /// Apply `ops` to both rings — one by one on the eager side, cut into
    /// batches of the given sizes on the batched side — comparing the two
    /// after every batch.
    fn apply(
        &mut self,
        ops: &[PeriodOp],
        cuts: &mut impl Iterator<Item = usize>,
    ) -> Result<(), TestCaseError> {
        let mut rest = ops;
        while !rest.is_empty() {
            let n = cuts.next().unwrap_or(usize::MAX).clamp(1, rest.len());
            let (batch, tail) = rest.split_at(n);
            for op in batch {
                self.eager
                    .apply_batch(&[*op], &mut self.eager_scratch, &mut self.eager_stats);
            }
            self.batched
                .apply_batch(batch, &mut self.batched_scratch, &mut self.batched_stats);
            self.compare()?;
            rest = tail;
        }
        Ok(())
    }

    fn advance(&mut self, by: i64) -> Result<(), TestCaseError> {
        self.now += Dur(by);
        self.eager
            .advance_to_with(self.now, &mut self.eager_scratch, &mut self.eager_stats);
        self.batched
            .advance_to_with(self.now, &mut self.batched_scratch, &mut self.batched_stats);
        self.timeline.prune_before(self.batched.window_start());
        self.compare()
    }

    /// Identical state, identical counters (bar `update_visits`, whose
    /// primary-tree part `update_path_visits` is compared), identical
    /// answers to identical probes.
    fn compare(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.eager.fingerprint(), self.batched.fingerprint());
        let (mut a, mut b) = (self.eager_stats, self.batched_stats);
        a.update_visits = 0;
        b.update_visits = 0;
        prop_assert_eq!(a, b, "cumulative counters diverged");
        let first = self.batched.first_slot();
        for i in 0..SLOTS {
            let q = SlotIdx(first.0 + i);
            let slot_start = self.batched.config().slot_start(q);
            for (ds, len) in [(0, 1), (3, 12), (9, 25), (9, 58)] {
                let start = slot_start + Dur(ds);
                let end = start + Dur(len);
                let (hits_a, ops_a) = probe(&self.eager, q, start, end);
                let (hits_b, ops_b) = probe(&self.batched, q, start, end);
                prop_assert_eq!(&hits_a, &hits_b, "hit order at slot {:?}", q);
                prop_assert_eq!(ops_a, ops_b, "probe cost at slot {:?}", q);
            }
        }
        Ok(())
    }

    fn check_mirrors(&self) {
        self.eager.check_mirror(&self.timeline);
        self.batched.check_mirror(&self.timeline);
    }
}

/// Both search phases at `q` over `[start, end)`: the hits in retrieval
/// order and what finding them cost.
fn probe(ring: &SlotRing, q: SlotIdx, start: Time, end: Time) -> (Vec<PeriodId>, OpStats) {
    let mut stab = StabMarks::default();
    let mut hits = Vec::new();
    let mut ops = OpStats::new();
    ring.find_feasible_into(q, start, end, &mut stab, &mut hits, &mut ops);
    (hits, ops)
}

/// A server count, then `(kind, a, b, c)` steps — kinds 0–2 reserve (`a` →
/// width and first server, `b` → start offset, `c` → duration), 3 releases
/// job `a`, 4 advances by `a` — then batch sizes.
fn stream(len: usize) -> impl Strategy<Value = (u32, Vec<Step>, Vec<usize>)> {
    (
        prop_oneof![Just(FEW_SERVERS), Just(MANY_SERVERS)],
        prop::collection::vec((0u8..5, 0u32..4096, 0i64..55, 1i64..40), 1..len),
        prop::collection::vec(1usize..65, 4 * len),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random reserve/release/advance deltas, random batch boundaries.
    #[test]
    fn batched_ring_is_state_identical_to_one_by_one((servers, steps, cuts) in stream(60)) {
        let mut pair = Pair::new(servers);
        let mut cuts = cuts.into_iter();
        let mut ops = Vec::new();
        // Up to two thirds of the servers per grant.
        let widths = 2 * servers / 3;
        for (kind, a, b, c) in steps {
            ops.clear();
            match kind {
                0..=2 => pair.reserve(1 + a % widths, a / 32, pair.now + Dur(b), Dur(c), &mut ops),
                3 => pair.release(a as usize, &mut ops),
                _ => pair.advance(a as i64 % 25)?,
            }
            pair.apply(&ops, &mut cuts)?;
            pair.check_mirrors();
        }
    }
}

/// A wide grant into a populated slot is the case the batch path exists
/// for: it must take the deferred path (visible as less counted update
/// work) and still end in the eager state. The saving is in secondary-tree
/// maintenance, so the slot is populated beyond [`SCAN_MAX`], and it is
/// counted without the primary-tree paths, which both sides walk alike.
#[test]
fn wide_grant_defers_and_matches() {
    let mut pair = Pair::new(MANY_SERVERS);
    let mut ops = Vec::new();
    // A finite hole [0, 40) on every server...
    pair.reserve(MANY_SERVERS, 0, Time(40), Dur(15), &mut ops);
    pair.apply(&ops, &mut std::iter::empty()).unwrap();
    // ...then one 96-wide grant inside it: 96 removals, 192 fragments.
    ops.clear();
    pair.reserve(96, 5, Time(12), Dur(9), &mut ops);
    assert_eq!(ops.len(), 288);
    // Ordered-set upkeep: update work off the primary-tree paths.
    let upkeep = |s: &OpStats| s.update_visits - s.update_path_visits;
    let (a0, b0) = (upkeep(&pair.eager_stats), upkeep(&pair.batched_stats));
    pair.apply(&ops, &mut std::iter::empty()).unwrap();
    pair.check_mirrors();
    let (eager, batched) = (
        upkeep(&pair.eager_stats) - a0,
        upkeep(&pair.batched_stats) - b0,
    );
    assert!(
        2 * batched < eager,
        "the deferred path should at least halve the counted secondary-tree upkeep: {batched} vs {eager}"
    );
    // Released again (merging the fragments back), still in step.
    ops.clear();
    pair.release(1, &mut ops);
    pair.apply(&ops, &mut std::iter::empty()).unwrap();
    pair.check_mirrors();
}
