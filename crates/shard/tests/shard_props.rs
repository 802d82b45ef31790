//! Decision-equivalence properties of the sharded scheduler.
//!
//! The load-bearing guarantees (DESIGN.md §9):
//!
//! * for **every** policy and every shard count `K`, a sharded run makes the
//!   same grant/reject decisions, start times, attempt counts **and server
//!   choices** as the single [`CoAllocScheduler`] (every policy sorts the
//!   feasible set by a total key, so selection is partition-independent);
//! * sharded runs are identical across `K` and deterministic for a fixed
//!   seed;
//! * the same holds for every other command: constrained grants equal the
//!   single scheduler's field for field, range searches return the same
//!   hits (in the same order at `K = 1`), query-then-`reserve` grants — and
//!   refuses stale picks — identically, and the snapshot text is the
//!   single scheduler's byte for byte — so a state written at one `K`
//!   continues at any other.

use coalloc_core::prelude::*;
use coalloc_core::snapshot::StateImage;
use coalloc_sim::runner::{replay, RunResult};
use proptest::prelude::*;

const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// A stream of small requests fitting a tau=10 / horizon=400 slotting.
fn request_stream(n_servers: u32, len: usize) -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(
        (
            0i64..200, // submit offset from previous
            0i64..120, // advance offset (s_r - q_r)
            1i64..80,  // duration
            1u32..=n_servers,
        ),
        1..len,
    )
    .prop_map(|raw| {
        let mut t = 0i64;
        raw.into_iter()
            .map(|(dt, adv, dur, n)| {
                t += dt % 20;
                Request::advance(Time(t), Time(t + adv), Dur(dur), n)
            })
            .collect()
    })
}

/// What rides along with request `i` of a lock-step stream: `(kind, server,
/// mask)`. Kinds 0–3 leave the request a plain `submit`; 4–5 make it
/// `submit_constrained(mask)`; 6–7 tag `server` with `mask` first; 8–9 run a
/// range search over the request's window first; 10–11 run one and
/// `reserve` the hits `mask` picks over the window first; 12 picks them
/// first and reserves them after the request's grant (a stale pick).
fn extras(n_servers: u32, len: usize) -> impl Strategy<Value = Vec<(u8, u32, u64)>> {
    prop::collection::vec((0u8..13, 0..n_servers, 0u64..8), len..len + 1)
}

/// A range search's hits as plain tuples.
fn hits(found: Vec<Availability>) -> Vec<(ServerId, Time, Time, Dur)> {
    found
        .iter()
        .map(|h| (h.server, h.idle_start, h.idle_end, h.tail_slack))
        .collect()
}

/// The servers of `found` (sorted) that `mask` picks: hit `i` iff bit
/// `i % 3` is set — sometimes none, sometimes all.
fn pick(found: &[(ServerId, Time, Time, Dur)], mask: u64) -> Vec<ServerId> {
    let picked = |&(i, _): &(usize, _)| (mask >> (i % 3)) & 1 == 1;
    found
        .iter()
        .enumerate()
        .filter(picked)
        .map(|(_, h)| h.0)
        .collect()
}

fn cfg(policy: SelectionPolicy, seed: u64) -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur(10))
        .horizon(Dur(400))
        .delta_t(Dur(10))
        .policy(policy)
        .seed(seed)
        .build()
}

/// The decision-relevant projection of a run: (start, attempts) per request.
fn decisions(r: &RunResult) -> Vec<(Option<Time>, u32)> {
    r.outcomes.iter().map(|o| (o.start, o.attempts)).collect()
}

/// Full equality up to data-structure operation counts (tree shapes, and
/// hence visit counts, legitimately differ across partitions).
fn assert_same_outcomes(a: &RunResult, b: &RunResult, ctx: &str) {
    assert_eq!(decisions(a), decisions(b), "{ctx}: decisions diverge");
    assert!(
        (a.utilization - b.utilization).abs() < 1e-12,
        "{ctx}: utilization diverges"
    );
    assert_eq!(a.makespan, b.makespan, "{ctx}: makespan diverges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded decisions equal the single scheduler's for every policy and
    /// K; server choice matches too — and so does every other command.
    #[test]
    fn sharded_equals_plain(
        reqs in request_stream(9, 30),
        extra in extras(9, 30),
        cut in 0usize..30,
        seed in 0u64..1000,
    ) {
        for policy in [
            SelectionPolicy::PaperOrder,
            SelectionPolicy::BestFit,
            SelectionPolicy::WorstFit,
            SelectionPolicy::ByServerId,
        ] {
            let mut plain = CoAllocScheduler::new(9, cfg(policy, seed));
            let base = replay(&mut plain, &reqs, "plain");
            for k in SHARD_COUNTS {
                let mut sharded = CoAllocScheduler::with_ranges(9, k, cfg(policy, seed));
                let run = replay(&mut sharded, &reqs, "sharded");
                assert_same_outcomes(&base, &run, &format!("{policy:?} k={k}"));
                sharded.check_consistency();
            }
        }
        // Lock-step: replay command by command comparing every reply
        // between the two schedulers — grants and rejections field for
        // field, range-search hits as sets. At the cut the sharded
        // scheduler is snapshotted (the text must be the plain twin's),
        // restored at a *different* K, and the stream goes on.
        for policy in [
            SelectionPolicy::PaperOrder,
            SelectionPolicy::BestFit,
            SelectionPolicy::WorstFit,
            SelectionPolicy::ByServerId,
        ] {
            for (ki, k) in SHARD_COUNTS.into_iter().enumerate() {
                let mut plain = CoAllocScheduler::new(9, cfg(policy, seed));
                let mut sharded = CoAllocScheduler::with_ranges(9, k, cfg(policy, seed));
                let mut same_order = k == 1;
                for (i, (r, &(kind, server, mask))) in reqs.iter().zip(&extra).enumerate() {
                    let (from, to) = (r.earliest_start, r.end());
                    let mut stale = None;
                    plain.advance_to(r.submit);
                    sharded.advance_to(r.submit);
                    if i == cut % reqs.len() {
                        let text = sharded.snapshot();
                        prop_assert_eq!(&text, &plain.snapshot(), "{:?} k={}", policy, k);
                        let other = SHARD_COUNTS[(ki + 1 + cut % 3) % SHARD_COUNTS.len()];
                        let image = StateImage::parse(&text).unwrap();
                        sharded = CoAllocScheduler::from_image(image, other);
                        sharded.check_consistency();
                        prop_assert_eq!(sharded.snapshot(), text, "k={} -> {}", k, other);
                        // A restored index discovers hits in its own order.
                        same_order = false;
                    }
                    let mask = AttrSet(mask);
                    match kind {
                        6 | 7 => {
                            plain.set_server_attrs(ServerId(server), mask);
                            sharded.set_server_attrs(ServerId(server), mask);
                        }
                        8..=12 => {
                            let mut x = hits(plain.range_search(from, to));
                            let mut y = hits(sharded.range_search(from, to));
                            if !same_order || kind >= 10 {
                                x.sort_unstable();
                                y.sort_unstable();
                            }
                            prop_assert_eq!(&x, &y, "{:?} k={} range search", policy, k);
                            let servers = pick(&x, mask.0);
                            if kind == 12 {
                                stale = Some(servers);
                            } else if kind >= 10 {
                                let x = plain.reserve(&servers, from, to);
                                let y = sharded.reserve(&servers, from, to);
                                prop_assert_eq!(x, y, "{:?} k={} reserve {:?}", policy, k, servers);
                            }
                        }
                        _ => {}
                    }
                    let (a, b) = if matches!(kind, 4 | 5) {
                        (plain.submit_constrained(r, mask), sharded.submit_constrained(r, mask))
                    } else {
                        (plain.submit(r), sharded.submit(r))
                    };
                    prop_assert_eq!(a, b, "{:?} k={} request {}", policy, k, i);
                    if let Some(servers) = stale {
                        let x = plain.reserve(&servers, from, to);
                        let y = sharded.reserve(&servers, from, to);
                        prop_assert_eq!(x, y, "{:?} k={} stale reserve {:?}", policy, k, servers);
                    }
                }
                prop_assert_eq!(sharded.snapshot(), plain.snapshot(), "{:?} k={}", policy, k);
                sharded.check_consistency();
            }
        }
    }

    /// Sharded runs are bit-identical across shard counts — including the
    /// paper-order policy, whose canonical merge order is partition-free.
    #[test]
    fn sharded_identical_across_k(reqs in request_stream(8, 30), seed in 0u64..1000) {
        type GrantSummary = (Option<Time>, Vec<ServerId>, u32);
        for policy in [SelectionPolicy::PaperOrder, SelectionPolicy::BestFit] {
            let mut grants_by_k: Vec<Vec<GrantSummary>> = Vec::new();
            for k in SHARD_COUNTS {
                let mut sharded = CoAllocScheduler::with_ranges(8, k, cfg(policy, seed));
                let mut grants = Vec::new();
                for r in &reqs {
                    sharded.advance_to(r.submit);
                    grants.push(match sharded.submit(r) {
                        Ok(g) => (Some(g.start), g.servers, g.attempts),
                        Err(ScheduleError::Exhausted { attempts, .. }) => (None, Vec::new(), attempts),
                        Err(_) => (None, Vec::new(), 0),
                    });
                }
                grants_by_k.push(grants);
            }
            for w in grants_by_k.windows(2) {
                prop_assert_eq!(&w[0], &w[1], "{:?}: K-dependence detected", policy);
            }
        }
    }

    /// Releases propagate to the owning shards only, and the freed capacity
    /// behaves exactly like the single scheduler's.
    #[test]
    fn release_equivalence(reqs in request_stream(6, 20), seed in 0u64..1000) {
        let c = cfg(SelectionPolicy::ByServerId, seed);
        for k in [2u32, 4] {
            let mut plain = CoAllocScheduler::new(6, c);
            let mut sharded = CoAllocScheduler::with_ranges(6, k, c);
            let mut plain_jobs = Vec::new();
            let mut shard_jobs = Vec::new();
            for (i, r) in reqs.iter().enumerate() {
                plain.advance_to(r.submit);
                sharded.advance_to(r.submit);
                let (a, b) = (plain.submit(r), sharded.submit(r));
                prop_assert_eq!(a.is_ok(), b.is_ok());
                if let (Ok(ga), Ok(gb)) = (a, b) {
                    prop_assert_eq!(&ga.servers, &gb.servers);
                    plain_jobs.push(ga.job);
                    shard_jobs.push(gb.job);
                }
                // Release every other accepted job immediately.
                if i % 2 == 0 {
                    if let (Some(ja), Some(jb)) = (plain_jobs.pop(), shard_jobs.pop()) {
                        plain.release(ja).unwrap();
                        sharded.release(jb).unwrap();
                    }
                }
            }
            sharded.check_consistency();
            plain.check_consistency();
        }
    }
}

/// Same seed, same workload, two independent sharded schedulers: the entire
/// [`RunResult`] (including op counts) must be identical.
#[test]
fn sharded_runs_are_deterministic() {
    let spec_reqs: Vec<Request> = (0..40)
        .map(|i| {
            Request::advance(
                Time(i * 7),
                Time(i * 7 + (i % 5) * 10),
                Dur(10 + (i % 7) * 11),
                1 + (i % 4) as u32,
            )
        })
        .collect();
    for k in SHARD_COUNTS {
        let mut a = CoAllocScheduler::with_ranges(8, k, cfg(SelectionPolicy::PaperOrder, 0xFEED));
        let mut b = CoAllocScheduler::with_ranges(8, k, cfg(SelectionPolicy::PaperOrder, 0xFEED));
        let ra = replay(&mut a, &spec_reqs, "a");
        let rb = replay(&mut b, &spec_reqs, "b");
        assert_eq!(ra.outcomes, rb.outcomes, "k={k}");
        assert_eq!(ra.makespan, rb.makespan);
        assert!((ra.utilization - rb.utilization).abs() < 1e-15);
        assert_eq!(ra.total_ops, rb.total_ops);
    }
}

/// The deadline path matches the plain scheduler's under sharding.
#[test]
fn deadline_equivalence_smoke() {
    let c = cfg(SelectionPolicy::ByServerId, 1);
    for k in SHARD_COUNTS {
        let mut plain = CoAllocScheduler::new(4, c);
        let mut sharded = CoAllocScheduler::with_ranges(4, k, c);
        let fills = [
            Request::on_demand(Time::ZERO, Dur(40), 2),
            Request::on_demand(Time::ZERO, Dur(25), 1),
        ];
        for f in &fills {
            plain.submit(f).unwrap();
            sharded.submit(f).unwrap();
        }
        for (dur, deadline) in [(20i64, 70i64), (20, 45), (50, 40), (35, 200), (10, 390)] {
            let req = Request::on_demand(Time::ZERO, Dur(dur), 2);
            let a = plain.submit_with_deadline(&req, Time(deadline));
            let b = sharded.submit_with_deadline(&req, Time(deadline));
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.start, y.start, "k={k} dl={deadline}");
                    assert_eq!(x.servers, y.servers);
                    assert_eq!(x.attempts, y.attempts);
                }
                (Err(x), Err(y)) => assert_eq!(x, y, "k={k} dl={deadline}"),
                other => panic!("divergence k={k} dl={deadline}: {other:?}"),
            }
        }
    }
}
