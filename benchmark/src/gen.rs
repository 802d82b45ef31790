//! The four workload generators. Each turns a seed into a deterministic
//! stream of *round trips*: the protocol lines a closed-loop client writes
//! in one burst before it waits for every reply. The program under test
//! only ever sees the generated lines; the seed stays here.

use coalloc_workloads::{with_paper_reservations, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One protocol command, kept structured so that the wire, session and
/// engine passes replay exactly the same request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Advance(i64),
    Submit { q: i64, s: i64, l: i64, n: u32 },
    Release(u64),
    Query(i64, i64),
}

impl Op {
    /// Append the protocol line (with its newline) to `out`.
    pub fn write_line(&self, out: &mut String) {
        match *self {
            Op::Advance(t) => writeln!(out, "advance {t}"),
            Op::Submit { q, s, l, n } => writeln!(out, "submit {q} {s} {l} {n}"),
            Op::Release(j) => writeln!(out, "release {j}"),
            Op::Query(a, b) => writeln!(out, "query {a} {b}"),
        }
        .expect("writing to a String cannot fail");
    }

    /// Whether the scheduler thread may group this line into a
    /// `submit_batch` (any other verb is a barrier).
    pub fn batchable(&self) -> bool {
        matches!(self, Op::Submit { .. })
    }
}

/// The scheduler geometry a workload's `init` line sets up.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    pub servers: u32,
    pub tau: i64,
    pub horizon: i64,
    pub delta_t: i64,
}

/// Everything about a workload except its command stream.
pub struct Plan {
    pub name: &'static str,
    /// The exact `init` line sent on the wire.
    pub init: String,
    /// What that line means, for the engine pass and the validator.
    pub geometry: Geometry,
    /// `NetConfig::shards`.
    pub shards: u32,
    /// Whether the server runs with a write-ahead log.
    pub wal: bool,
    /// Commands sent during set-up, after `init` and before the window.
    pub prefill: Vec<Op>,
    /// Protocol lines the timed window sends.
    pub lines: u64,
}

/// A deterministic source of round trips.
pub trait Stream {
    /// Fill `out` with the next round trip; `false` when the stream ended.
    fn next_round(&mut self, out: &mut Vec<Op>) -> bool;
    /// Feedback: the reply to an earlier `submit` granted job `job`.
    fn granted(&mut self, _job: u64) {}
}

pub const WORKLOADS: [&str; 4] = ["kth-trace", "large-n", "reject-wall", "durable-churn"];

const SLOT: i64 = 900;
const HOUR: i64 = 3600;

/// Base counts: sized so that each timed window lasts about
/// `REF_SECONDS` on the 2-core reference box; `scale` multiplies them.
pub const REF_SECONDS: f64 = 12.0;
const KTH_JOBS: f64 = 28_481.0;
const LARGE_N_SUBMITS: f64 = 16_000.0;
const REJECT_SUBMITS: f64 = 5_600_000.0;
const CHURN_OPS: f64 = 140_000.0;

fn scaled(base: f64, scale: f64, multiple_of: u64) -> u64 {
    let n = (base * scale).round().max(1.0) as u64;
    n.div_ceil(multiple_of) * multiple_of
}

/// Build a workload's plan and stream. `scale` = 1 is the reference size.
pub fn build(name: &str, seed: u64, scale: f64) -> Option<(Plan, Box<dyn Stream>)> {
    Some(match name {
        "kth-trace" => {
            let mut spec = WorkloadSpec::kth();
            spec.jobs = scaled(KTH_JOBS, scale, 1) as usize;
            let servers = spec.servers;
            let reqs = with_paper_reservations(&spec.generate(seed), 0.5, seed);
            let plan = Plan {
                name: "kth-trace",
                init: format!("init {servers}"),
                // `init N` alone takes the scheduler defaults.
                geometry: Geometry {
                    servers,
                    tau: SLOT,
                    horizon: 7 * 24 * HOUR,
                    delta_t: SLOT,
                },
                shards: 1,
                wal: false,
                prefill: Vec::new(),
                lines: 2 * reqs.len() as u64,
            };
            let ops = reqs
                .iter()
                .map(|r| Op::Submit {
                    q: r.submit.secs(),
                    s: r.earliest_start.secs(),
                    l: r.duration.secs(),
                    n: r.servers,
                })
                .collect();
            (plan, Box::new(KthTrace { ops, next: 0 }) as Box<dyn Stream>)
        }
        "large-n" => {
            let servers = 8192u32;
            let submits = scaled(LARGE_N_SUBMITS, scale, LargeN::BURST);
            let plan = Plan {
                name: "large-n",
                init: format!("init {servers} {SLOT} {} {SLOT}", 24 * HOUR),
                geometry: Geometry {
                    servers,
                    tau: SLOT,
                    horizon: 24 * HOUR,
                    delta_t: SLOT,
                },
                shards: 2,
                wal: false,
                prefill: Vec::new(),
                lines: submits + submits / LargeN::BURST,
            };
            let gap = (541_000.0 / (0.95 * servers as f64)).ceil() as i64;
            let s = LargeN {
                rng: SmallRng::seed_from_u64(seed),
                t: 0,
                gap,
                left: submits,
            };
            (plan, Box::new(s))
        }
        "reject-wall" => {
            let submits = scaled(REJECT_SUBMITS, scale, RejectWall::BURST);
            let plan = Plan {
                name: "reject-wall",
                init: format!("init 64 {SLOT} {} {SLOT}", 72 * HOUR),
                geometry: Geometry {
                    servers: 64,
                    tau: SLOT,
                    horizon: 72 * HOUR,
                    delta_t: SLOT,
                },
                shards: 1,
                wal: false,
                // Twelve 64-wide 4 h fillers book every server over [0, 48 h).
                prefill: (0..12)
                    .map(|i| Op::Submit {
                        q: 0,
                        s: i * 4 * HOUR,
                        l: 4 * HOUR,
                        n: 64,
                    })
                    .collect(),
                lines: submits,
            };
            let s = RejectWall {
                rng: SmallRng::seed_from_u64(seed),
                left: submits,
            };
            (plan, Box::new(s))
        }
        "durable-churn" => {
            let ops = scaled(CHURN_OPS, scale, DurableChurn::OPS_PER_ROUND);
            let plan = Plan {
                name: "durable-churn",
                init: format!("init 64 {SLOT} {} {SLOT}", 72 * HOUR),
                geometry: Geometry {
                    servers: 64,
                    tau: SLOT,
                    horizon: 72 * HOUR,
                    delta_t: SLOT,
                },
                shards: 1,
                wal: true,
                prefill: Vec::new(),
                lines: ops + ops / DurableChurn::OPS_PER_ROUND,
            };
            let s = DurableChurn {
                rng: SmallRng::seed_from_u64(seed),
                t: 0,
                outstanding: VecDeque::new(),
                left: ops,
            };
            (plan, Box::new(s))
        }
        _ => return None,
    })
}

/// The paper's evaluation input: one round trip = `advance q` + `submit`.
struct KthTrace {
    ops: Vec<Op>,
    next: usize,
}

impl Stream for KthTrace {
    fn next_round(&mut self, out: &mut Vec<Op>) -> bool {
        out.clear();
        let Some(&op) = self.ops.get(self.next) else {
            return false;
        };
        self.next += 1;
        let Op::Submit { q, .. } = op else {
            unreachable!("kth stream holds submits only")
        };
        out.extend([Op::Advance(q), op]);
        true
    }
}

/// Large system at ~0.83 utilisation: `advance t` + 16 submits at `q = t`.
struct LargeN {
    rng: SmallRng,
    t: i64,
    gap: i64,
    left: u64,
}

impl LargeN {
    /// The shard pool's batch threshold.
    const BURST: u64 = 16;
}

impl Stream for LargeN {
    fn next_round(&mut self, out: &mut Vec<Op>) -> bool {
        out.clear();
        if self.left == 0 {
            return false;
        }
        self.left -= Self::BURST;
        out.push(Op::Advance(self.t));
        for _ in 0..Self::BURST {
            let n = self.rng.random_range(1u32..=64);
            let l = self.rng.random_range(SLOT..8 * HOUR);
            let lead = self.rng.random_range(0..4 * HOUR);
            out.push(Op::Submit {
                q: self.t,
                s: self.t + lead,
                l,
                n,
            });
        }
        self.t += self.gap * Self::BURST as i64;
        true
    }
}

/// Saturated system: every submit is doomed, 64 lines per burst.
struct RejectWall {
    rng: SmallRng,
    left: u64,
}

impl RejectWall {
    const BURST: u64 = 64;
}

impl Stream for RejectWall {
    fn next_round(&mut self, out: &mut Vec<Op>) -> bool {
        out.clear();
        if self.left == 0 {
            return false;
        }
        self.left -= Self::BURST;
        for _ in 0..Self::BURST {
            let l = self.rng.random_range(8i64..=32) * SLOT;
            let n = self.rng.random_range(1u32..=64);
            out.push(Op::Submit { q: 0, s: 0, l, n });
        }
        true
    }
}

/// Durable churn: `advance t` + 3 ops; 10 % range reads, otherwise release
/// the oldest grant while more than 24 are outstanding, else book a
/// long-spanning advance reservation somewhere in the 72 h horizon.
struct DurableChurn {
    rng: SmallRng,
    t: i64,
    outstanding: VecDeque<u64>,
    left: u64,
}

impl DurableChurn {
    const OPS_PER_ROUND: u64 = 3;
    const IN_FLIGHT: usize = 24;
}

impl Stream for DurableChurn {
    fn next_round(&mut self, out: &mut Vec<Op>) -> bool {
        out.clear();
        if self.left == 0 {
            return false;
        }
        self.left -= Self::OPS_PER_ROUND;
        self.t += self.rng.random_range(60i64..=600);
        let t = self.t;
        out.push(Op::Advance(t));
        for _ in 0..Self::OPS_PER_ROUND {
            if self.rng.random_range(0u32..10) == 0 {
                let a = t + self.rng.random_range(0i64..192) * SLOT;
                let b = a + self.rng.random_range(1i64..=16) * SLOT;
                out.push(Op::Query(a, b));
            } else if self.outstanding.len() > Self::IN_FLIGHT {
                let job = self
                    .outstanding
                    .pop_front()
                    .expect("more than 24 outstanding");
                out.push(Op::Release(job));
            } else {
                let slots = self.rng.random_range(16i64..=192);
                // Book anywhere in the horizon that still fits the duration.
                let max_lead = (71 * HOUR - slots * SLOT) / SLOT;
                let lead = self.rng.random_range(0i64..=max_lead) * SLOT;
                let n = self.rng.random_range(1u32..=4);
                out.push(Op::Submit {
                    q: t,
                    s: t + lead,
                    l: slots * SLOT,
                    n,
                });
            }
        }
        true
    }

    fn granted(&mut self, job: u64) {
        self.outstanding.push_back(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain a stream into its line bytes, granting every submit a fresh
    /// job id the way an idle system would.
    fn lines(name: &str, seed: u64) -> String {
        let (plan, mut stream) = build(name, seed, 0.02).expect("known workload");
        let mut out = plan.init.clone();
        out.push('\n');
        for op in &plan.prefill {
            op.write_line(&mut out);
        }
        let (mut ops, mut job, mut n) = (Vec::new(), 0u64, 0u64);
        while stream.next_round(&mut ops) {
            for op in &ops {
                op.write_line(&mut out);
                n += 1;
                if op.batchable() {
                    stream.granted(job);
                    job += 1;
                }
            }
        }
        assert_eq!(
            n, plan.lines,
            "{name}: plan and stream disagree on the line count"
        );
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for name in WORKLOADS {
            let a = lines(name, 42);
            assert_eq!(
                a,
                lines(name, 42),
                "{name}: same seed must give the same bytes"
            );
            assert_ne!(
                a,
                lines(name, 43),
                "{name}: another seed must give another stream"
            );
        }
    }

    #[test]
    fn ops_render_as_protocol_lines() {
        let mut s = String::new();
        Op::Submit {
            q: 1,
            s: 2,
            l: 3,
            n: 4,
        }
        .write_line(&mut s);
        Op::Query(5, 6).write_line(&mut s);
        assert_eq!(s, "submit 1 2 3 4\nquery 5 6\n");
    }

    #[test]
    fn churn_releases_only_granted_jobs() {
        let (_, mut stream) = build("durable-churn", 7, 0.02).expect("known workload");
        let (mut ops, mut granted, mut next) = (Vec::new(), Vec::new(), 0u64);
        while stream.next_round(&mut ops) {
            for op in &ops {
                match *op {
                    Op::Submit { .. } => {
                        stream.granted(next);
                        granted.push(next);
                        next += 1;
                    }
                    Op::Release(j) => assert!(granted.contains(&j), "released unknown job {j}"),
                    _ => {}
                }
            }
        }
    }
}
