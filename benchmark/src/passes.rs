//! The four passes over one workload. The wire pass is the benchmark
//! proper: a closed loop over TCP against an in-process server. The
//! session, engine and WAL passes replay the same stream against one layer
//! each, grouping lines exactly as the server's scheduler thread does
//! (consecutive `submit`s of a burst form one batch, any other verb is a
//! barrier), so the layers' times can be subtracted from the outside in.

use crate::gen::{Geometry, Op, Plan, Stream};
use crate::host::HostClock;
use crate::span::{Tracer, CALL_SAMPLE};
use crate::stats::Fnv;
use crate::validate::{Outcome, Validator};
use crate::wire::Conn;
use coalloc_core::prelude::*;
use coalloc_net::Session;
use coalloc_shard::ShardedScheduler;
use coalloc_wal::{Wal, WalConfig};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Where a pass hangs its spans: the tracer and the pass span's id.
pub type Trace<'a> = Option<(&'a mut Tracer, u64)>;

/// Count and total time of one kind of call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calls {
    pub count: u64,
    pub ns: u64,
}

impl Calls {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
    }

    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.ns as f64 / 1e3, self.count as f64)
    }
}

/// What every pass reports about the decisions it saw.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Decisions {
    pub granted: u64,
    pub rejected: u64,
    /// One hash per round trip over its outcomes, so that two passes can be
    /// compared line for line and the first divergence named.
    pub rounds: Vec<u64>,
}

impl Decisions {
    fn push_round(&mut self, outcomes: &[Outcome]) {
        let mut h = Fnv::new();
        for o in outcomes {
            match o {
                Outcome::Granted {
                    job,
                    start,
                    end,
                    servers,
                } => {
                    self.granted += 1;
                    h.u64(2);
                    h.u64(*job);
                    h.u64(*start as u64);
                    h.u64(*end as u64);
                    for &s in servers {
                        h.u64(s as u64);
                    }
                }
                Outcome::Rejected => {
                    self.rejected += 1;
                    h.u64(1);
                }
                Outcome::Other => h.u64(0),
            }
        }
        self.rounds.push(h.0);
    }

    /// The first round trip at which `self` and `other` decided differently.
    pub fn first_divergence(&self, other: &Decisions) -> Option<usize> {
        if self.rounds.len() != other.rounds.len() {
            return Some(self.rounds.len().min(other.rounds.len()));
        }
        self.rounds
            .iter()
            .zip(&other.rounds)
            .position(|(a, b)| a != b)
    }
}

/// The mutating commands of a durable run with their replies, as the
/// server logged them: `payloads[round_ends[i-1]..round_ends[i]]` belong to
/// round trip `i`.
#[derive(Default)]
pub struct WalLog {
    pub payloads: Vec<Vec<u8>>,
    pub round_ends: Vec<usize>,
}

#[derive(Default)]
pub struct WirePass {
    pub lines: u64,
    /// The window by the wall clock, probe readings included.
    pub wall_s: f64,
    /// The closed loop's own time: every round trip from its first byte
    /// written to its last reply checked. Probe readings fall between round
    /// trips and are not in it.
    pub busy_ns: u64,
    /// CPU time of the whole process over the window, the probe's excluded.
    pub cpu_ns: u64,
    /// [`HostClock::factor`] over the window: multiply any time above by it.
    pub host_factor: f64,
    /// Burst round trips in order: first byte written → last reply line read.
    pub rtt_ns: Vec<u64>,
    pub cmd_bytes: u64,
    pub reply_bytes: u64,
    /// FNV-1a over every reply's bytes (each followed by a newline).
    pub digest: u64,
    pub decisions: Decisions,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    pub wal_log: Option<WalLog>,
}

impl WirePass {
    pub fn rtt_sum_ns(&self) -> u64 {
        self.rtt_ns.iter().sum()
    }
}

fn note_failure(failures: &mut Vec<String>, what: String) {
    if failures.len() < 5 {
        failures.push(what);
    }
}

/// Run the timed window: every round trip of `stream` over `conn`, each
/// reply checked by `validator`.
pub fn wire_pass(
    plan: &Plan,
    stream: &mut dyn Stream,
    conn: &mut Conn,
    validator: &mut Validator,
    clock: &mut HostClock,
    mut trace: Trace,
) -> WirePass {
    let mut pass = WirePass {
        wal_log: (plan.wal && trace.is_some()).then(WalLog::default),
        ..WirePass::default()
    };
    let mut digest = Fnv::new();
    let (mut ops, mut req) = (Vec::new(), String::new());
    let mut replies: Vec<String> = Vec::new();
    let mut outcomes: Vec<Outcome> = Vec::new();
    clock.restart();
    let cpu0 = crate::host::cpu_ns();
    let window = Instant::now();
    while stream.next_round(&mut ops) {
        req.clear();
        for op in &ops {
            op.write_line(&mut req);
        }
        replies.resize_with(ops.len().max(replies.len()), String::new);
        let t0 = Instant::now();
        let io: io::Result<()> = conn.write(req.as_bytes()).and_then(|()| {
            ops.iter()
                .zip(replies.iter_mut())
                .try_for_each(|(op, reply)| conn.read_reply(op, reply))
        });
        let t1 = Instant::now();
        if let Err(e) = io {
            // The connection is gone: everything not yet answered failed.
            note_failure(&mut pass.failures, format!("transport: {e}"));
            pass.failed += plan.lines - pass.lines;
            break;
        }
        pass.rtt_ns.push((t1 - t0).as_nanos() as u64);
        if let Some((tracer, parent)) = trace.as_mut() {
            tracer.record("wire.rtt", *parent, pass.lines, t0, t1);
        }
        let first_line = pass.lines;
        pass.lines += ops.len() as u64;
        pass.cmd_bytes += req.len() as u64;
        outcomes.clear();
        for (i, (op, reply)) in ops.iter().zip(&replies).enumerate() {
            digest.bytes(reply.as_bytes());
            digest.bytes(b"\n");
            pass.reply_bytes += reply.len() as u64 + 1;
            match validator.check(op, reply) {
                Ok(outcome) => {
                    if let Outcome::Granted { job, .. } = outcome {
                        stream.granted(job);
                    }
                    outcomes.push(outcome);
                }
                Err(what) => {
                    pass.failed += 1;
                    note_failure(
                        &mut pass.failures,
                        format!("line {}: {what}", first_line + i as u64),
                    );
                    outcomes.push(Outcome::Other);
                }
            }
        }
        pass.decisions.push_round(&outcomes);
        if let Some(log) = pass.wal_log.as_mut() {
            for (line, reply) in req.lines().zip(&replies) {
                let verb = line.split(' ').next().unwrap_or("");
                if coalloc_net::proto::mutating(verb) && !reply.starts_with("error: ") {
                    log.payloads.push(format!("{line}\n{reply}").into_bytes());
                }
            }
            log.round_ends.push(log.payloads.len());
        }
        // A closed-loop client's own work between two bursts is part of the
        // loop; reading the host's speed is not.
        pass.busy_ns += t0.elapsed().as_nanos() as u64;
        clock.tick();
    }
    pass.wall_s = window.elapsed().as_secs_f64();
    pass.host_factor = clock.factor();
    pass.cpu_ns = (crate::host::cpu_ns() - cpu0).saturating_sub(clock.probe_total_ns);
    pass.digest = digest.0;
    pass
}

/// Split a round trip into the scheduler thread's execution units: maximal
/// runs of `submit`s, and every other line alone.
fn groups(ops: &[Op]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        if at == ops.len() {
            return None;
        }
        let start = at;
        at += 1;
        if ops[start].batchable() {
            while at < ops.len() && ops[at].batchable() {
                at += 1;
            }
        }
        Some(start..at)
    })
}

fn granted_job(reply: &str) -> Option<u64> {
    reply
        .strip_prefix("granted job=")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

#[derive(Default)]
pub struct SessionPass {
    pub lines: u64,
    /// Time inside `Session::exec` / `exec_batch`.
    pub calls: Calls,
    pub digest: u64,
    pub host_factor: f64,
}

/// Replay the stream through the protocol interpreter alone.
pub fn session_pass(
    plan: &Plan,
    stream: &mut dyn Stream,
    clock: &mut HostClock,
    mut trace: Trace,
) -> SessionPass {
    let mut session = Session::new(plan.shards);
    // Errors render as the server renders them.
    let text = |r: Result<String, String>| r.unwrap_or_else(|e| format!("error: {e}"));
    let _ = session.exec(&plan.init);
    let render = |ops: &[Op], lines: &mut Vec<String>| {
        lines.clear();
        for op in ops {
            let mut l = String::new();
            op.write_line(&mut l);
            l.pop();
            lines.push(l);
        }
    };
    let mut lines = Vec::new();
    render(&plan.prefill, &mut lines);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    if !refs.is_empty() {
        session.exec_batch(&refs);
    }

    let mut pass = SessionPass::default();
    let mut digest = Fnv::new();
    let mut ops = Vec::new();
    let mut round = 0u64;
    clock.restart();
    while stream.next_round(&mut ops) {
        clock.tick();
        render(&ops, &mut lines);
        let sampled = trace.is_some() && round.is_multiple_of(CALL_SAMPLE);
        let mut calls: Vec<(&'static str, Instant, Instant)> = Vec::new();
        let mut replies: Vec<String> = Vec::with_capacity(ops.len());
        let round_start = Instant::now();
        let mut round_end = round_start;
        for g in groups(&ops) {
            let batch = ops[g.start].batchable();
            let refs: Vec<&str> = lines[g.clone()].iter().map(String::as_str).collect();
            let t0 = Instant::now();
            let out = if batch {
                session.exec_batch(&refs)
            } else {
                vec![session.exec(refs[0])]
            };
            let t1 = Instant::now();
            round_end = t1;
            pass.calls.add((t1 - t0).as_nanos() as u64);
            if sampled {
                calls.push((
                    if batch {
                        "session.exec_batch"
                    } else {
                        "session.exec"
                    },
                    t0,
                    t1,
                ));
            }
            replies.extend(out.into_iter().map(text));
        }
        if let Some((tracer, parent)) = trace.as_mut() {
            let id = tracer.record("session.round", *parent, pass.lines, round_start, round_end);
            for (name, t0, t1) in calls {
                tracer.record(name, id, pass.lines, t0, t1);
            }
        }
        for reply in &replies {
            digest.bytes(reply.as_bytes());
            digest.bytes(b"\n");
            if let Some(job) = granted_job(reply) {
                stream.granted(job);
            }
        }
        pass.lines += ops.len() as u64;
        round += 1;
    }
    pass.digest = digest.0;
    pass.host_factor = clock.factor();
    pass
}

/// The scheduler engines the passes can drive through one interface.
pub enum Engine {
    Plain(Box<CoAllocScheduler>),
    Sharded(Box<ShardedScheduler>),
    /// The linear-scan oracle (ROADMAP lead (d)).
    Naive(Box<NaiveScheduler>),
}

impl Engine {
    fn config(g: &Geometry) -> SchedulerConfig {
        SchedulerConfig::builder()
            .tau(Dur(g.tau))
            .horizon(Dur(g.horizon))
            .delta_t(Dur(g.delta_t))
            .build()
    }

    /// The engine the server builds for this plan's `init` line.
    pub fn for_plan(plan: &Plan) -> Engine {
        let (g, cfg) = (&plan.geometry, Engine::config(&plan.geometry));
        if plan.shards > 1 {
            Engine::Sharded(Box::new(ShardedScheduler::new(g.servers, plan.shards, cfg)))
        } else {
            Engine::Plain(Box::new(CoAllocScheduler::new(g.servers, cfg)))
        }
    }

    pub fn naive(plan: &Plan) -> Engine {
        Engine::Naive(Box::new(NaiveScheduler::new(
            plan.geometry.servers,
            Engine::config(&plan.geometry),
        )))
    }

    fn advance_to(&mut self, t: Time) {
        match self {
            Engine::Plain(s) => s.advance_to(t),
            Engine::Sharded(s) => s.advance_to(t),
            Engine::Naive(s) => s.advance_to(t),
        }
    }

    fn submit_batch(&mut self, reqs: &[Request], out: &mut Vec<Result<Grant, ScheduleError>>) {
        match self {
            Engine::Plain(s) => s.submit_batch_into(reqs, out),
            Engine::Sharded(s) => s.submit_batch_into(reqs, out),
            Engine::Naive(s) => {
                out.clear();
                out.extend(reqs.iter().map(|r| s.submit(r)));
            }
        }
    }

    /// An unknown job is an `error` reply, which the wire pass already
    /// counted as failed; the engine pass only times the call.
    fn release(&mut self, job: JobId) {
        let _ = match self {
            Engine::Plain(s) => s.release(job),
            Engine::Sharded(s) => s.release(job),
            Engine::Naive(s) => s.release(job),
        };
    }

    /// Servers free over `[a, b)`; only the plain engine serves `query`.
    fn range_search(&mut self, a: Time, b: Time) -> usize {
        match self {
            Engine::Plain(s) => s.range_search(a, b).len(),
            Engine::Sharded(_) | Engine::Naive(_) => 0,
        }
    }

    pub fn stats(&self) -> OpStats {
        match self {
            Engine::Plain(s) => *s.stats(),
            Engine::Sharded(s) => s.stats(),
            Engine::Naive(s) => *s.stats(),
        }
    }

    /// `(idle periods, slot-tree entries)` resident in the plain engine's
    /// ring; the other engines do not expose theirs.
    pub fn resident(&self) -> (usize, usize) {
        match self {
            Engine::Plain(s) => (s.ring().resident_periods(), s.ring().resident_entries()),
            Engine::Sharded(_) | Engine::Naive(_) => (0, 0),
        }
    }
}

#[derive(Default)]
pub struct EnginePass {
    pub lines: u64,
    /// Time inside scheduler calls, all kinds together.
    pub total_ns: u64,
    pub advance: Calls,
    pub release: Calls,
    pub query: Calls,
    /// A batch's time is shared equally among its members, then booked by
    /// each member's outcome.
    pub submit_grant: Calls,
    pub submit_reject: Calls,
    /// Per-submit share of its batch, granted submits only (ns).
    pub grant_ns: Vec<u64>,
    pub decisions: Decisions,
    /// Operation counters over the window (prefill excluded).
    pub ops: OpStats,
    pub resident: (usize, usize),
    pub host_factor: f64,
}

fn request(op: &Op) -> Request {
    match *op {
        Op::Submit { q, s, l, n } => Request::advance(Time(q), Time(s), Dur(l), n),
        _ => unreachable!("only submits are batched"),
    }
}

/// Replay the stream against the scheduler engine alone.
pub fn engine_pass(
    plan: &Plan,
    mut engine: Engine,
    stream: &mut dyn Stream,
    clock: &mut HostClock,
    mut trace: Trace,
) -> EnginePass {
    let mut results = Vec::new();
    let prefill: Vec<Request> = plan.prefill.iter().map(request).collect();
    if !prefill.is_empty() {
        engine.submit_batch(&prefill, &mut results);
    }
    let before = engine.stats();

    let names: [&'static str; 5] = match engine {
        Engine::Naive(_) => [
            "naive.round",
            "naive.advance",
            "naive.submit",
            "naive.release",
            "naive.range_search",
        ],
        _ => [
            "engine.round",
            "engine.advance",
            "engine.submit_batch",
            "engine.release",
            "engine.range_search",
        ],
    };
    let mut pass = EnginePass::default();
    let mut ops = Vec::new();
    let mut round = 0u64;
    clock.restart();
    while stream.next_round(&mut ops) {
        clock.tick();
        let sampled = trace.is_some() && round.is_multiple_of(CALL_SAMPLE);
        let mut calls: Vec<(usize, Instant, Instant)> = Vec::new();
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(ops.len());
        let round_start = Instant::now();
        let mut round_end = round_start;
        for g in groups(&ops) {
            let (kind, t0, t1) = match ops[g.start] {
                Op::Advance(t) => {
                    let t0 = Instant::now();
                    engine.advance_to(Time(t));
                    let t1 = Instant::now();
                    pass.advance.add((t1 - t0).as_nanos() as u64);
                    outcomes.push(Outcome::Other);
                    (1, t0, t1)
                }
                Op::Release(job) => {
                    let t0 = Instant::now();
                    engine.release(JobId(job));
                    let t1 = Instant::now();
                    pass.release.add((t1 - t0).as_nanos() as u64);
                    outcomes.push(Outcome::Other);
                    (3, t0, t1)
                }
                Op::Query(a, b) => {
                    let t0 = Instant::now();
                    std::hint::black_box(engine.range_search(Time(a), Time(b)));
                    let t1 = Instant::now();
                    pass.query.add((t1 - t0).as_nanos() as u64);
                    outcomes.push(Outcome::Other);
                    (4, t0, t1)
                }
                Op::Submit { .. } => {
                    let reqs: Vec<Request> = ops[g.clone()].iter().map(request).collect();
                    let t0 = Instant::now();
                    engine.submit_batch(&reqs, &mut results);
                    let t1 = Instant::now();
                    let share = (t1 - t0).as_nanos() as u64 / reqs.len() as u64;
                    for r in results.drain(..) {
                        match r {
                            Ok(g) => {
                                pass.submit_grant.add(share);
                                pass.grant_ns.push(share);
                                stream.granted(g.job.0);
                                outcomes.push(Outcome::Granted {
                                    job: g.job.0,
                                    start: g.start.secs(),
                                    end: g.end.secs(),
                                    servers: g.servers.iter().map(|s| s.0).collect(),
                                });
                            }
                            Err(_) => {
                                pass.submit_reject.add(share);
                                outcomes.push(Outcome::Rejected);
                            }
                        }
                    }
                    (2, t0, t1)
                }
            };
            round_end = t1;
            pass.total_ns += (t1 - t0).as_nanos() as u64;
            if sampled {
                calls.push((kind, t0, t1));
            }
        }
        if let Some((tracer, parent)) = trace.as_mut() {
            let id = tracer.record(names[0], *parent, pass.lines, round_start, round_end);
            for (kind, t0, t1) in calls {
                tracer.record(names[kind], id, pass.lines, t0, t1);
            }
        }
        pass.decisions.push_round(&outcomes);
        pass.lines += ops.len() as u64;
        round += 1;
    }
    pass.host_factor = clock.factor();
    pass.ops = engine.stats().since(&before);
    pass.resident = engine.resident();
    pass
}

#[derive(Default)]
pub struct WalPass {
    pub append: Calls,
    /// One sample per `Wal::sync` (ns).
    pub sync_ns: Vec<u64>,
    pub payload_bytes: u64,
    pub host_factor: f64,
}

impl WalPass {
    pub fn total_ns(&self) -> u64 {
        self.append.ns + self.sync_ns.iter().sum::<u64>()
    }
}

/// Replay the logged records against the write-ahead log alone: one
/// `append` per record, one `sync` per round trip, as the server does for a
/// single closed-loop client.
pub fn wal_pass(
    log: &WalLog,
    dir: &Path,
    clock: &mut HostClock,
    mut trace: Trace,
) -> io::Result<WalPass> {
    let to_io = |e: coalloc_wal::WalError| io::Error::other(e.to_string());
    let (mut wal, _) = Wal::open(WalConfig::new(dir)).map_err(to_io)?;
    let mut pass = WalPass::default();
    let mut start = 0;
    clock.restart();
    for (round, &end) in log.round_ends.iter().enumerate() {
        clock.tick();
        let sampled = trace.is_some() && (round as u64).is_multiple_of(CALL_SAMPLE);
        let round_start = Instant::now();
        let mut appends = Vec::new();
        for payload in &log.payloads[start..end] {
            let t0 = Instant::now();
            wal.append(payload).map_err(to_io)?;
            let t1 = Instant::now();
            pass.append.add((t1 - t0).as_nanos() as u64);
            pass.payload_bytes += payload.len() as u64;
            if sampled {
                appends.push((t0, t1));
            }
        }
        let t0 = Instant::now();
        wal.sync().map_err(to_io)?;
        let t1 = Instant::now();
        pass.sync_ns.push((t1 - t0).as_nanos() as u64);
        if let Some((tracer, parent)) = trace.as_mut() {
            // `line` counts logged records here: the log holds no queries.
            let id = tracer.record("wal.round", *parent, start as u64, round_start, t1);
            for (a0, a1) in appends {
                tracer.record("wal.append", id, start as u64, a0, a1);
            }
            if sampled {
                tracer.record("wal.sync", id, start as u64, t0, t1);
            }
        }
        start = end;
    }
    pass.host_factor = clock.factor();
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_follow_the_scheduler_thread() {
        let s = Op::Submit {
            q: 0,
            s: 0,
            l: 900,
            n: 1,
        };
        let ops = [Op::Advance(0), s, s, Op::Query(0, 900), Op::Release(0), s];
        let got: Vec<_> = groups(&ops).collect();
        assert_eq!(got, vec![0..1, 1..3, 3..4, 4..5, 5..6]);
        assert_eq!(groups(&[]).count(), 0);
    }

    #[test]
    fn decisions_name_the_first_divergence() {
        let grant = |job| Outcome::Granted {
            job,
            start: 0,
            end: 900,
            servers: vec![1, 2],
        };
        let mut a = Decisions::default();
        let mut b = Decisions::default();
        a.push_round(&[grant(0), Outcome::Rejected]);
        b.push_round(&[grant(0), Outcome::Rejected]);
        assert_eq!(a.first_divergence(&b), None);
        a.push_round(&[grant(1)]);
        b.push_round(&[grant(2)]);
        assert_eq!(a.first_divergence(&b), Some(1));
        assert_eq!((a.granted, a.rejected), (2, 1));
    }

    #[test]
    fn granted_job_reads_the_id() {
        assert_eq!(
            granted_job("granted job=17 start=0 end=9 attempts=1 wait=0 servers=3"),
            Some(17)
        );
        assert_eq!(granted_job("rejected no feasible start"), None);
    }
}
