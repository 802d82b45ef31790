//! The idle-period index over a contiguous server range.
//!
//! [`ServerIndex`] owns everything the two-phase search reads and the commit
//! step writes for the servers `[base, base + count)`: the authoritative
//! [`Timeline`], its two search mirrors ([`SlotRing`] for finite periods,
//! [`TrailingSet`] for open-ended ones), the per-job reservation map and the
//! hot-path [`Scratch`]. Internally everything is indexed by *local* server
//! ids `0..count`; ids are global at the API boundary, so a caller never
//! sees the offset.
//!
//! Every per-range step of the scheduler has exactly one implementation
//! here: [`ServerIndex::phase1`], [`ServerIndex::phase2`] and
//! [`ServerIndex::hits`] (one attempt of Section 4.2, whose candidate counts
//! partition-sum and whose hits concatenate across ranges because a
//! server's idle periods are disjoint), `count_feasible` (Phase 2 counted,
//! not retrieved), `enumerate` (a range search), `commit`, `release`,
//! `advance_to`. Each charges its work to an [`OpStats`] the caller passes
//! in: the scheduler keeps one set for all its ranges, and a pool worker
//! charges a per-stage delta.
//! [`crate::scheduler::CoAllocScheduler`] owns the ranges and drives these
//! steps, over one range or many (DESIGN.md §6, §9).

use crate::idhash::IdMap;
use crate::idle::IdlePeriod;
use crate::ids::{JobId, PeriodId, ServerId};
use crate::ring::{route_delta, SlotRing};
use crate::scheduler::prune_due;
use crate::scratch::Scratch;
use crate::snapshot::StateImage;
use crate::stats::OpStats;
use crate::time::{SlotConfig, Time};
use crate::timeline::{PeriodDelta, Reservation, Timeline};
use crate::trailing::TrailingSet;

/// Timeline, search indexes and job map of one contiguous server range.
#[derive(Clone, Debug)]
pub struct ServerIndex {
    slot_cfg: SlotConfig,
    seed: u64,
    /// First global server id of the range.
    base: u32,
    timeline: Timeline,
    ring: SlotRing,
    trailing: TrailingSet,
    jobs: IdMap<JobId, Vec<Reservation>>,
    /// Reusable buffers for the per-request hot path; also carries the
    /// Phase-1 marks and Phase-2 ids from one step of an attempt to the
    /// next.
    scratch: Scratch,
    /// Window start at the last history prune.
    last_prune: Time,
}

impl ServerIndex {
    /// An all-idle index over the global servers `[base, base + count)`
    /// with the live window starting at `origin`; the work of seeding the
    /// trailing index is charged to `stats`.
    pub fn new(
        slot_cfg: SlotConfig,
        base: u32,
        count: u32,
        origin: Time,
        seed: u64,
        stats: &mut OpStats,
    ) -> ServerIndex {
        assert!(count > 0, "an index needs at least one server");
        let timeline = Timeline::new(count, origin);
        let open: Vec<IdlePeriod> = (0..count)
            .map(|srv| timeline.trailing_period(ServerId(srv)))
            .collect();
        let trailing = TrailingSet::from_periods(seed, &open, stats);
        ServerIndex {
            slot_cfg,
            seed,
            base,
            timeline,
            ring: SlotRing::new(slot_cfg, origin, seed),
            trailing,
            jobs: IdMap::default(),
            scratch: Scratch::new(),
            last_prune: origin,
        }
    }

    /// Number of servers in the range.
    pub fn num_servers(&self) -> u32 {
        self.timeline.num_servers()
    }

    /// Whether the global server id lies in the range.
    pub fn owns(&self, server: ServerId) -> bool {
        (self.base..self.base + self.num_servers()).contains(&server.0)
    }

    /// The authoritative timeline (local server ids).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The slot ring (diagnostics, tests, and the window bounds).
    pub fn ring(&self) -> &SlotRing {
        &self.ring
    }

    /// Committed reservations of a job in this range (local server ids).
    pub fn job(&self, job: JobId) -> Option<&[Reservation]> {
        self.jobs.get(&job).map(|v| v.as_slice())
    }

    /// The `[start, end)` window of every resident reservation.
    pub fn reservation_windows(&self) -> impl Iterator<Item = (Time, Time)> + Clone + '_ {
        self.jobs.values().flatten().map(|r| (r.start, r.end))
    }

    /// History boundary of the last amortized prune (snapshot state: prune
    /// timing is observable through [`Self::release`], so a restored index
    /// must resume the same cadence).
    pub fn last_prune(&self) -> Time {
        self.last_prune
    }

    /// See [`SlotRing::force_eager`].
    #[doc(hidden)]
    pub fn force_eager_ring_updates(&mut self) {
        self.ring.force_eager();
    }

    fn local(&self, server: ServerId) -> ServerId {
        ServerId(server.0 - self.base)
    }

    /// Phase 1 of one attempt at `start` (inside the live window): count
    /// the candidates by subtree sizes along the stabbing path of the slot
    /// containing `start`, plus the open-ended periods with `st <= start`.
    /// Returns `(open-ended, finite)` counts; the marks stay in the range's
    /// scratch for [`Self::phase2`]. The finite count may include benign
    /// aliases (DESIGN.md §12), which never survive Phase 2.
    pub fn phase1(&mut self, start: Time, stats: &mut OpStats) -> (usize, usize) {
        let q = self.slot_cfg.slot_of(start);
        let trailing = self.trailing.count_candidates(start, stats);
        let finite = self
            .ring
            .phase1_candidates_into(q, start, &mut self.scratch.stab, stats);
        (trailing, finite)
    }

    /// Phase 2 over the marks of the preceding [`Self::phase1`] at `start`:
    /// collect the periods feasible for a job over `[start, end)` — the
    /// open-ended candidates first, latest start first, then every one of
    /// the slot trees' hits — and return how many there are, and where the
    /// open-ended walk stopped. [`Self::hits`] retrieves them. The walk
    /// stops once `need` of its periods lie on servers `touched` (if given)
    /// does not name and the tie group at the last one's start is in, and
    /// then returns the start of the first period it left out
    /// ([`TrailingSet::collect_candidates`]; `None`: it left none out),
    /// which `left_out` takes.
    pub fn phase2(
        &mut self,
        start: Time,
        end: Time,
        need: usize,
        touched: Option<impl Fn(ServerId) -> bool>,
        stats: &mut OpStats,
    ) -> (usize, Option<Time>) {
        self.scratch.ids.clear();
        let (timeline, base) = (&self.timeline, self.base);
        let counts = |id| {
            touched.as_ref().is_none_or(|touched| {
                let p = timeline.period(id).expect("index refers to live period");
                !touched(ServerId(base + p.server.0))
            })
        };
        let cut =
            self.trailing
                .collect_candidates(start, need, counts, &mut self.scratch.ids, stats);
        self.ring
            .phase2_feasible_into(end, &self.scratch.stab, &mut self.scratch.ids, stats);
        (self.scratch.ids.len(), cut)
    }

    /// The idle period of `server` (in the range) covering `[start, end)`,
    /// with its global server id, if a [`Self::phase2`] at `start` that
    /// stopped at `cut` left it out.
    pub(crate) fn left_out(
        &self,
        server: ServerId,
        start: Time,
        end: Time,
        cut: Time,
    ) -> Option<IdlePeriod> {
        let p = self
            .timeline
            .covering_idle(self.local(server), start, end)?;
        (p.end.is_inf() && p.start <= cut).then_some(IdlePeriod { server, ..p })
    }

    /// Append the periods the preceding [`Self::phase2`] (or
    /// [`Self::enumerate`]) found to `out`, in retrieval order, with global
    /// server ids.
    pub fn hits(&self, out: &mut Vec<IdlePeriod>) {
        for id in &self.scratch.ids {
            let p = *self
                .timeline
                .period(*id)
                .expect("index refers to live period");
            out.push(IdlePeriod {
                server: ServerId(self.base + p.server.0),
                ..p
            });
        }
    }

    /// After [`Self::phase1`] returned `candidates`: how many of them are
    /// feasible for a job ending at `end` — what [`Self::phase2`] would
    /// retrieve, counted by subtree sizes instead (every open-ended
    /// candidate is feasible for any end).
    pub fn count_feasible(
        &self,
        (trailing, finite): (usize, usize),
        end: Time,
        stats: &mut OpStats,
    ) -> usize {
        if finite == 0 {
            return trailing;
        }
        trailing + self.ring.count_feasible(end, &self.scratch.stab, stats)
    }

    /// Append the range's full feasible set for a job over `[start, end)`
    /// to `out` (trailing candidates first, then the slot trees' Phase-2
    /// hits) — callers concatenate several ranges' or several windows' sets
    /// in one buffer. Appends nothing if `start` is outside the live window.
    pub fn enumerate(
        &mut self,
        start: Time,
        end: Time,
        out: &mut Vec<IdlePeriod>,
        stats: &mut OpStats,
    ) {
        let q = self.slot_cfg.slot_of(start);
        if !self.ring.is_live(q) {
            return;
        }
        self.scratch.ids.clear();
        self.trailing
            .collect_candidates(start, usize::MAX, |_| true, &mut self.scratch.ids, stats);
        self.ring.find_feasible_into(
            q,
            start,
            end,
            &mut self.scratch.stab,
            &mut self.scratch.ids,
            stats,
        );
        self.hits(out);
    }

    /// Whether one idle period of `server` (in the range) covers all of
    /// `[start, end)`.
    pub fn covers(&self, server: ServerId, start: Time, end: Time) -> bool {
        self.timeline
            .covering_idle(self.local(server), start, end)
            .is_some()
    }

    /// Reserve `[start, end)` for `job` on those of `servers` the range
    /// owns (none: nothing happens), each addressed by server and window:
    /// the idle period covering the window is looked up afresh, so it may
    /// have changed shape since the caller found it as long as it still
    /// covers the window. The idle-period changes of all servers reach the
    /// slot trees as one batch.
    pub fn commit(
        &mut self,
        job: JobId,
        start: Time,
        end: Time,
        servers: &[ServerId],
        stats: &mut OpStats,
    ) {
        let (lo, hi) = (self.base, self.base + self.num_servers());
        let mut mine = servers
            .iter()
            .filter(|s| (lo..hi).contains(&s.0))
            .peekable();
        if mine.peek().is_none() {
            return;
        }
        let mut delta = std::mem::take(&mut self.scratch.delta);
        let reservations = self.jobs.entry(job).or_default();
        reservations.reserve(servers.len());
        for &s in mine {
            let server = ServerId(s.0 - lo);
            let p = self
                .timeline
                .covering_idle(server, start, end)
                .expect("commit: window is idle on every chosen server");
            self.timeline
                .reserve_into(p.id, job, start, end, &mut delta);
            route_delta(&delta, &mut self.trailing, &mut self.scratch, stats);
            reservations.push(Reservation {
                job,
                server,
                start,
                end,
            });
        }
        self.scratch.delta = delta;
        self.ring.apply_queued(&mut self.scratch, stats);
    }

    /// Return the range's reservations of `job` to the idle pool and hand
    /// them back (local server ids); `None` if it holds none. Reservations
    /// that already ran to completion are retired (their busy seconds stay
    /// in the utilization accounting); those inside pruned history are
    /// already gone.
    pub fn release(&mut self, job: JobId, stats: &mut OpStats) -> Option<Vec<Reservation>> {
        let mut reservations = self.jobs.remove(&job)?;
        // Canonical processing order. The stored order is the selection
        // order on a live index but snapshot order on a restored one;
        // since releasing mints fresh period ids per server, processing in
        // stored order would assign ids differently on the two — and with
        // them the snapshot text and the tie order of `query` hits, which a
        // restored twin must reproduce. Sorting makes release
        // provenance-independent.
        reservations.sort_unstable_by_key(|r| (r.server, r.start));
        let mut delta = std::mem::take(&mut self.scratch.delta);
        for r in &reservations {
            if r.end <= self.last_prune {
                continue; // actually pruned from history
            }
            if r.end <= self.ring.window_start() {
                // Ran to completion but is still in unpruned history:
                // retire it (count the busy seconds, drop the entry) so
                // the timeline — and therefore every future snapshot — no
                // longer carries it. Leaving it would make a
                // snapshot-restored index resurrect the job and answer a
                // second `release` differently from the original.
                self.timeline.retire(r.server, r.job, r.start, r.end);
                continue;
            }
            self.timeline
                .release_into(r.server, r.job, r.start, r.end, &mut delta);
            route_delta(&delta, &mut self.trailing, &mut self.scratch, stats);
        }
        self.scratch.delta = delta;
        self.ring.apply_queued(&mut self.scratch, stats);
        Some(reservations)
    }

    /// Move the live window so that `now` lies in its first slot: discard
    /// expired slot trees and, every
    /// [`crate::scheduler::PRUNE_EVERY_SLOTS`] slots, prune dead history
    /// from the timeline and the job map alike.
    pub fn advance_to(&mut self, now: Time, stats: &mut OpStats) {
        self.ring.advance_to_with(now, &mut self.scratch, stats);
        // History pruning scans every server, so amortize it over many slot
        // advances; the ring's own discard/create stays O(1) per slot as
        // the paper claims. Correctness does not depend on prune timing —
        // stale history is merely unreferenced memory.
        let window_start = self.ring.window_start();
        if prune_due(self.last_prune, window_start, self.slot_cfg.tau) {
            self.timeline.prune_before(window_start);
            // Jobs whose reservations all fell to the prune are forgotten
            // too: after this, `release` finds nothing for them on the
            // original and on any snapshot-restored twin alike — snapshots
            // carry exactly the timeline's (unpruned) busy set, so the job
            // map must not outlive it.
            self.jobs
                .retain(|_, rs| rs.iter().any(|r| r.end > window_start));
            self.last_prune = window_start;
        }
    }

    /// Append the range's idle periods and reservations to `image`, server
    /// by server (global ids), each server's in start order.
    pub fn export(&self, image: &mut StateImage) {
        for s in 0..self.num_servers() {
            let server = ServerId(self.base + s);
            let idle = self.timeline.idle_periods(ServerId(s));
            image
                .idle
                .extend(idle.iter().map(|p| (server, p.start, p.end)));
            let busy = self.timeline.reservations(ServerId(s));
            image
                .busy
                .extend(busy.iter().map(|r| Reservation { server, ..*r }));
        }
    }

    /// Replace the range's state with its share of a validated `image` and
    /// rebuild both search indexes around the image's clock: the idle
    /// periods are installed as written, not re-derived from the
    /// reservations — released history leaves periods un-merged, and
    /// selection ranks by period start — so every future decision is
    /// bit-identical to the index that wrote the image. Period ids are
    /// minted afresh, in image order.
    pub fn install(&mut self, image: &StateImage, stats: &mut OpStats) {
        let idle: Vec<IdlePeriod> = image
            .idle
            .iter()
            .filter(|&&(server, ..)| self.owns(server))
            .enumerate()
            .map(|(i, &(server, start, end))| IdlePeriod {
                id: PeriodId(i as u64),
                server: self.local(server),
                start,
                end,
            })
            .collect();
        let busy: Vec<Reservation> = image
            .busy
            .iter()
            .filter(|r| self.owns(r.server))
            .map(|r| Reservation {
                server: self.local(r.server),
                ..*r
            })
            .collect();
        self.timeline = Timeline::from_parts(self.num_servers(), &idle, &busy);
        self.ring = SlotRing::new(self.slot_cfg, image.now, self.seed);
        self.last_prune = image.last_prune;
        let (open, finite): (Vec<_>, _) = idle.into_iter().partition(|p| p.end.is_inf());
        self.trailing = TrailingSet::from_periods(self.seed, &open, stats);
        // One batch over the finite idle periods: every canonical tree is
        // built from its periods in image order, as a one-by-one insert
        // would.
        let finite = PeriodDelta {
            removed: Vec::new(),
            added: finite,
        };
        route_delta(&finite, &mut self.trailing, &mut self.scratch, stats);
        self.ring.apply_queued(&mut self.scratch, stats);
        self.jobs.clear();
        for r in busy {
            self.jobs.entry(r.job).or_default().push(r);
        }
    }

    /// Cross-check the search mirrors and the job map against the timeline
    /// (test helper; expensive).
    #[doc(hidden)]
    pub fn check(&self) {
        assert!(self.scratch.ring_ops.is_empty(), "ring updates left queued");
        self.timeline.check_invariants();
        self.ring.check_mirror(&self.timeline);
        self.trailing.check_invariants();
        // The trailing set holds exactly the timeline's open-ended periods.
        let mut expect: Vec<u64> = (0..self.num_servers())
            .map(|s| self.timeline.trailing_period(ServerId(s)).id.0)
            .collect();
        expect.sort_unstable();
        let mut got: Vec<u64> = self
            .trailing
            .keys_in_order()
            .iter()
            .map(|k| k.id.0)
            .collect();
        got.sort_unstable();
        assert_eq!(got, expect, "trailing set out of sync with timeline");
        // The job map is pruned with the timeline: a resident job still has
        // a reservation in the busy set (so none has every reservation
        // ending at or before `last_prune`).
        for (job, rs) in &self.jobs {
            assert!(
                rs.iter()
                    .any(|r| self.timeline.reservations(r.server).contains(r)),
                "{job:?} outlived the history prune at {}",
                self.last_prune
            );
        }
    }
}
