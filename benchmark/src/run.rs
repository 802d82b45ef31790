//! One workload, one process: set-up, the timed window, the checks after
//! it, and — with tracing on — the layer passes and the per-layer ledger.

use crate::expo::Expo;
use crate::gen::{self, Plan, Stream};
use crate::host::{self, HostClock};
use crate::passes::{self, Engine, WirePass};
use crate::span::Tracer;
use crate::stats::{percentile, percentile_of, quartiles, ratio};
use crate::validate::Validator;
use crate::wire::Conn;
use coalloc_net::{NetConfig, Server, WalOptions};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric, in report order. Must match
/// `BENCHMARK.json` (a test checks it).
pub const END_TO_END: &[(&str, &str)] = &[
    ("cmds_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("cpu_us_per_cmd", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric. A metric that does not apply
/// to a workload (`shard.*` off large-n, `wal.*` off durable-churn, ...)
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.self_us_per_cmd", "us"),
    ("net.rtt_floor_us", "us"),
    ("net.batch_lines_mean", "count"),
    ("net.read_batch_lines_mean", "count"),
    ("net.stage_queue_wait_p50_us", "us"),
    ("net.stage_sched_p50_us", "us"),
    ("net.stage_wal_stall_p50_us", "us"),
    ("net.stage_writeback_p50_us", "us"),
    ("net.stage_sum_over_rtt", "ratio"),
    ("net.shed_total", "count"),
    ("session.pass_us_per_cmd", "us"),
    ("session.self_us_per_cmd", "us"),
    ("session.cmd_bytes_per_cmd", "bytes"),
    ("session.reply_bytes_per_cmd", "bytes"),
    ("core.pass_us_per_cmd", "us"),
    ("core.submit_grant_us_mean", "us"),
    ("core.submit_grant_us_p99", "us"),
    ("core.submit_reject_us_mean", "us"),
    ("core.release_us_mean", "us"),
    ("core.advance_us_mean", "us"),
    ("core.query_us_mean", "us"),
    ("core.primary_visits_per_cmd", "count"),
    ("core.secondary_visits_per_cmd", "count"),
    ("core.update_visits_per_cmd", "count"),
    ("core.attempts_per_submit", "count"),
    ("core.attempts_jumped_per_submit", "count"),
    ("core.grants_per_attempt", "ratio"),
    ("core.tree_updates_per_period", "count"),
    ("core.rebuilds_total", "count"),
    ("core.ring_evictions_total", "count"),
    ("core.periods_resident", "count"),
    ("core.tree_entries_resident", "count"),
    ("core.naive_time_ratio", "ratio"),
    ("shard.pass_us_per_cmd", "us"),
    ("shard.batch_size_mean", "count"),
    ("shard.repro_probes_per_submit", "count"),
    ("wal.self_us_per_cmd", "us"),
    ("wal.append_us_mean", "us"),
    ("wal.fsync_us_p50", "us"),
    ("wal.fsync_us_p99", "us"),
    ("wal.records_per_fsync", "count"),
    ("wal.fsyncs_total", "count"),
    ("wal.bytes_per_record", "bytes"),
    ("wal.log_bytes_per_payload_byte", "ratio"),
    ("wal.snapshots_total", "count"),
    ("wal.recovery_ms", "ms"),
    ("wal.recovery_replayed_total", "count"),
    ("decisions.granted", "count"),
    ("decisions.rejected", "count"),
    ("decisions.reply_digest", "hash32"),
    ("host.cpus", "count"),
    ("host.speed_index", "ratio"),
    ("host.ref_spin_ms_before", "ms"),
    ("host.ref_spin_ms_after", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    /// Counts scale with the requested window; `--smoke` divides by 50.
    fn scale(&self) -> f64 {
        self.seconds / gen::REF_SECONDS / if self.smoke { 50.0 } else { 1.0 }
    }
}

/// What one run reports: the contract's result object plus the notes a
/// person wants to read.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

/// Everything under the benchmark's own `target/` directory.
pub fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// `BENCHMARK.json` at the root of the checkout this binary was built in.
pub fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// The digest `BENCHMARK.json` records for `workload` at seed 42 and the
/// reference window, read from the workload's `why` line.
pub fn recorded_digest(workload: &str) -> Result<u64, String> {
    let path = spec_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = obs::json::parse(&text)?;
    let Some(obs::json::Json::Arr(workloads)) = spec.get("workloads") else {
        return Err("BENCHMARK.json has no workloads".into());
    };
    let why = workloads
        .iter()
        .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(workload))
        .and_then(|w| w.get("why")?.as_str())
        .ok_or(format!("BENCHMARK.json does not list workload {workload}"))?;
    let hex = why
        .split_once("digest ")
        .map(|(_, rest)| rest.trim_end_matches('.'))
        .ok_or(format!("BENCHMARK.json records no digest for {workload}"))?;
    u64::from_str_radix(hex, 16).map_err(|_| format!("bad digest '{hex}' for {workload}"))
}

/// A server that is initialised, prefilled and connected: ready for the
/// first timed byte.
struct Ready {
    plan: Plan,
    stream: Box<dyn Stream>,
    server: Server,
    conn: Conn,
    validator: Validator,
    wal_dir: Option<PathBuf>,
}

fn bind(plan: &Plan, wal_dir: Option<&Path>) -> io::Result<Server> {
    Server::bind(NetConfig {
        shards: plan.shards,
        wal: wal_dir.map(WalOptions::new),
        ..NetConfig::default()
    })
}

/// Set-up, all of it: stream generation, `Server::bind` (WAL open
/// included), `init`, prefill. `tag` keeps WAL directories apart.
fn setup(args: &Args, tag: &str) -> io::Result<Ready> {
    let (plan, stream) = gen::build(&args.workload, args.seed, args.scale())
        .ok_or_else(|| io::Error::other(format!("unknown workload '{}'", args.workload)))?;
    let wal_dir = plan.wal.then(|| {
        scratch_dir()
            .join("wal")
            .join(format!("{}-{}-{tag}", plan.name, std::process::id()))
    });
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    // Single-shard workloads run confined to one CPU (see `host`); the
    // sharded one keeps every CPU, its worker pool being what it measures.
    if plan.shards == 1 {
        host::pin_to_last_cpu();
    }
    let server = bind(&plan, wal_dir.as_deref())?;
    let mut conn = Conn::connect(server.local_addr())?;
    let reply = conn.roundtrip(&plan.init)?;
    if !reply.starts_with("ok ") {
        return Err(io::Error::other(format!(
            "'{}' answered '{reply}'",
            plan.init
        )));
    }
    let mut validator = Validator::new(plan.geometry);
    let mut burst = String::new();
    for op in &plan.prefill {
        op.write_line(&mut burst);
    }
    conn.write(burst.as_bytes())?;
    let mut reply = String::new();
    for op in &plan.prefill {
        conn.read_reply(op, &mut reply)?;
        match validator.check(op, &reply) {
            Ok(crate::validate::Outcome::Granted { .. }) => {}
            other => {
                return Err(io::Error::other(format!(
                    "prefill answered '{reply}' ({other:?})"
                )))
            }
        }
    }
    Ok(Ready {
        plan,
        stream,
        server,
        conn,
        validator,
        wal_dir,
    })
}

impl Ready {
    /// Stop the server and drop its WAL directory.
    fn discard(self) {
        drop(self.conn);
        self.server.shutdown();
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Set up repeatedly — at least five times, and for cheap set-ups until a
/// second has gone or two hundred are done — and keep the last. Returns the
/// median set-up time on the quiet reference box (see [`HostClock`]); the
/// first set-up counts from process start.
fn setup_repeated(
    args: &Args,
    process_start: Instant,
    clock: &mut HostClock,
) -> io::Result<(Ready, f64)> {
    let mut times = Vec::new();
    let begun = Instant::now();
    let mut t0 = process_start;
    clock.restart();
    loop {
        let ready = setup(args, &format!("setup{}", times.len()))?;
        times.push(t0.elapsed().as_secs_f64());
        let enough =
            times.len() >= 5 && (begun.elapsed().as_secs_f64() >= 1.0 || times.len() >= 200);
        if enough {
            return Ok((ready, quartiles(&times).1 * clock.factor()));
        }
        ready.discard();
        clock.tick();
        t0 = Instant::now();
    }
}

/// What happens after the window on every run: `check`, and for a durable
/// server a restart on the same directory and a second `check`.
struct Aftermath {
    recovery_ms: f64,
    problems: Vec<String>,
}

fn aftermath(ready: Ready) -> Aftermath {
    let Ready {
        plan,
        server,
        mut conn,
        wal_dir,
        ..
    } = ready;
    let mut problems = Vec::new();
    let mut check = |conn: &mut Conn, when: &str| match conn.roundtrip("check") {
        Ok(r) if r == "ok" => {}
        Ok(r) => problems.push(format!("check {when} answered '{r}'")),
        Err(e) => problems.push(format!("check {when}: {e}")),
    };
    check(&mut conn, "after the window");
    drop(conn);
    server.shutdown();
    let mut recovery_ms = 0.0;
    if let Some(dir) = wal_dir {
        let t = Instant::now();
        match bind(&plan, Some(&dir)).and_then(|s| Ok((Conn::connect(s.local_addr())?, s))) {
            Ok((mut conn, server)) => {
                recovery_ms = t.elapsed().as_secs_f64() * 1e3;
                check(&mut conn, "after recovery");
                drop(conn);
                server.shutdown();
            }
            Err(e) => problems.push(format!("recovery: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    Aftermath {
        recovery_ms,
        problems,
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The end-to-end metrics of one window, every time scaled to the quiet
/// reference box by the window's own host factor.
fn end_to_end(pass: &WirePass, setup_s: f64) -> [f64; 6] {
    let f = pass.host_factor;
    let mut rtt = pass.rtt_ns.clone();
    rtt.sort_unstable();
    // In the order of `END_TO_END`.
    [
        ratio(pass.lines as f64, pass.busy_ns as f64 / 1e9 * f),
        us(percentile(&rtt, 50.0)) * f,
        us(percentile(&rtt, 99.0)) * f,
        ratio(pass.cpu_ns as f64 / 1e3 * f, pass.lines as f64),
        host::peak_rss_mb(),
        setup_s,
    ]
}

/// Fold the failures of a window and its aftermath into the report.
fn judge(report: &mut Report, args: &Args, pass: &WirePass, after: &Aftermath) {
    report.attempted = pass.lines.max(1);
    report.failed = pass.failed;
    report
        .notes
        .extend(pass.failures.iter().map(|f| format!("FAILED {f}")));
    report
        .notes
        .extend(after.problems.iter().map(|p| format!("FAILED {p}")));
    report.correct = pass.failed == 0 && after.problems.is_empty();
    report.notes.push(format!(
        "{}: {} lines in {} round trips, {:.3} s window ({:.1} lines/s by the wall clock, host factor {:.4}), failed_share {}, reply digest {:016x}",
        args.workload,
        pass.lines,
        pass.rtt_ns.len(),
        pass.wall_s,
        ratio(pass.lines as f64, pass.wall_s),
        pass.host_factor,
        ratio(pass.failed as f64, pass.lines as f64),
        pass.digest
    ));
    // The recorded digest describes exactly one input: seed 42, full size.
    if args.seed == 42 && args.scale() == 1.0 {
        match recorded_digest(&args.workload) {
            Ok(d) if d == pass.digest => {}
            Ok(d) => {
                report.correct = false;
                report.notes.push(format!(
                    "FAILED reply digest {:016x} differs from the {d:016x} BENCHMARK.json records",
                    pass.digest
                ));
            }
            Err(e) => {
                report.correct = false;
                report.notes.push(format!("FAILED {e}"));
            }
        }
    }
}

/// Run one workload in this process.
pub fn run(args: &Args, process_start: Instant) -> io::Result<Report> {
    let mut report = Report {
        correct: false,
        attempted: 1,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let cpus = host::allowed_cpus().len();
    let spin_before = if args.trace { host::ref_spin_ms() } else { 0.0 };

    // The untraced window: the end-to-end numbers come from here.
    let mut clock = HostClock::new();
    let (mut ready, setup_s) = setup_repeated(args, process_start, &mut clock)?;
    let plain = passes::wire_pass(
        &ready.plan,
        ready.stream.as_mut(),
        &mut ready.conn,
        &mut ready.validator,
        &mut clock,
        None,
    );
    let after = aftermath(ready);
    judge(&mut report, args, &plain, &after);
    let e2e = end_to_end(&plain, setup_s);

    if !args.trace {
        report.metrics = END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect();
        return Ok(report);
    }
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        report
            .notes
            .push(format!("untraced {name} = {value} {unit}"));
    }
    let ledger = traced(args, &plain, (cpus, spin_before), &mut clock, &mut report)?;
    report.metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, ledger.get(n).copied().unwrap_or(0.0), u))
        .collect();
    Ok(report)
}

/// The traced run: the wire again with spans on, then one pass per layer.
fn traced(
    args: &Args,
    plain: &WirePass,
    (cpus, spin_before): (usize, f64),
    clock: &mut HostClock,
    report: &mut Report,
) -> io::Result<BTreeMap<&'static str, f64>> {
    let mut tracer = Tracer::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let fail = |report: &mut Report, what: String| {
        report.correct = false;
        report.notes.push(format!("FAILED {what}"));
    };

    // --- wire, spans on ---------------------------------------------------
    let mut ready = setup(args, "traced")?;
    let mut floor: Vec<u64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            ready
                .conn
                .roundtrip("version")
                .map(|_| t.elapsed().as_nanos() as u64)
        })
        .collect::<io::Result<_>>()?;
    let before = Expo::parse(&ready.conn.scrape()?);
    let t0 = Instant::now();
    let span = tracer.open("pass.wire", 0, t0);
    let wire = passes::wire_pass(
        &ready.plan,
        ready.stream.as_mut(),
        &mut ready.conn,
        &mut ready.validator,
        clock,
        Some((&mut tracer, span)),
    );
    tracer.close(span, Instant::now());
    let during = Expo::parse(&ready.conn.scrape()?);
    let wal_before_recovery = during.value("wal_recovery_replayed_total");
    // The restart replays into the same process-wide registry.
    let after = aftermath(ready);
    for p in &after.problems {
        fail(report, format!("traced wire pass: {p}"));
    }
    if wire.failed > 0 || wire.digest != plain.digest {
        fail(
            report,
            format!(
                "traced wire pass: {} failed, digest {:016x} (untraced {:016x})",
                wire.failed, wire.digest, plain.digest
            ),
        );
    }
    let lines = wire.lines as f64;
    let rounds = wire.rtt_ns.len() as f64;
    let wire_ns = wire.rtt_sum_ns();

    // --- session ----------------------------------------------------------
    let (plan, mut stream) =
        gen::build(&args.workload, args.seed, args.scale()).expect("built before");
    let t0 = Instant::now();
    let span = tracer.open("pass.session", 0, t0);
    let session = passes::session_pass(&plan, stream.as_mut(), clock, Some((&mut tracer, span)));
    tracer.close(span, Instant::now());
    if session.digest != plain.digest || session.lines != plain.lines {
        fail(
            report,
            format!(
                "session pass: {} lines, digest {:016x} (wire: {} lines, {:016x})",
                session.lines, session.digest, plain.lines, plain.digest
            ),
        );
    }

    // --- engine -----------------------------------------------------------
    let shard_before = Expo::parse(&obs::metrics::exposition());
    let (plan, mut stream) =
        gen::build(&args.workload, args.seed, args.scale()).expect("built before");
    let t0 = Instant::now();
    let span = tracer.open("pass.engine", 0, t0);
    let engine = passes::engine_pass(
        &plan,
        Engine::for_plan(&plan),
        stream.as_mut(),
        clock,
        Some((&mut tracer, span)),
    );
    tracer.close(span, Instant::now());
    let shard_after = Expo::parse(&obs::metrics::exposition());
    if let Some(round) = engine.decisions.first_divergence(&plain.decisions) {
        fail(
            report,
            format!("engine pass decides differently from the wire at round trip {round}"),
        );
    }

    // --- write-ahead log (durable workloads) --------------------------------
    let wal = match &wire.wal_log {
        Some(log) => {
            let dir = scratch_dir().join("wal").join(format!(
                "{}-{}-walpass",
                plan.name,
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let t0 = Instant::now();
            let span = tracer.open("pass.wal", 0, t0);
            let pass = passes::wal_pass(log, &dir, clock, Some((&mut tracer, span)));
            tracer.close(span, Instant::now());
            let _ = std::fs::remove_dir_all(&dir);
            Some(pass?)
        }
        None => None,
    };

    // --- naive oracle (kth-trace: ROADMAP lead (d)) -------------------------
    if plan.name == "kth-trace" {
        let (plan, mut stream) =
            gen::build(&args.workload, args.seed, args.scale()).expect("built before");
        let t0 = Instant::now();
        let span = tracer.open("pass.naive", 0, t0);
        let naive = passes::engine_pass(
            &plan,
            Engine::naive(&plan),
            stream.as_mut(),
            clock,
            Some((&mut tracer, span)),
        );
        tracer.close(span, Instant::now());
        if let Some(round) = naive.decisions.first_divergence(&engine.decisions) {
            fail(
                report,
                format!("naive oracle decides differently from the tree at round trip {round}"),
            );
        }
        m.insert(
            "core.naive_time_ratio",
            ratio(
                naive.total_ns as f64 * naive.host_factor,
                engine.total_ns as f64 * engine.host_factor,
            ),
        );
    }

    // --- the ledger ---------------------------------------------------------
    // Every time below is its pass's measurement scaled by that pass's own
    // host factor, so that passes run minutes apart can be subtracted.
    let (wf, sf, ef) = (wire.host_factor, session.host_factor, engine.host_factor);
    let wire_us = us(wire_ns) * wf;
    let session_us = us(session.calls.ns) * sf;
    let engine_us = us(engine.total_ns) * ef;
    let wal_us = wal
        .as_ref()
        .map_or(0.0, |w| us(w.total_ns()) * w.host_factor);
    m.insert(
        "net.self_us_per_cmd",
        (wire_us - session_us - wal_us) / lines,
    );
    m.insert("net.rtt_floor_us", us(percentile_of(&mut floor, 50.0)) * wf);
    let hist_mean = |name: &str| {
        let (count, sum) = during.hist_delta(&before, name);
        ratio(sum, count)
    };
    m.insert("net.batch_lines_mean", hist_mean("net_batch_lines"));
    m.insert(
        "net.read_batch_lines_mean",
        hist_mean("net_read_batch_lines"),
    );
    let mut stage_sum = 0.0;
    for (metric, hist) in [
        ("net.stage_queue_wait_p50_us", "req_stage_queue_wait"),
        ("net.stage_sched_p50_us", "req_stage_sched"),
        ("net.stage_wal_stall_p50_us", "req_stage_wal_stall"),
        ("net.stage_writeback_p50_us", "req_stage_writeback"),
    ] {
        m.insert(metric, during.hist_quantile(&before, hist, 0.5) * wf);
        stage_sum += hist_mean(hist);
    }
    // Mean time a line spent in the server's four stages over the mean
    // round trip the client saw: above 1 the stamps contradict the client.
    m.insert(
        "net.stage_sum_over_rtt",
        ratio(stage_sum, us(wire_ns) / rounds),
    );
    m.insert("net.shed_total", during.delta(&before, "net_shed_total"));

    m.insert("session.pass_us_per_cmd", session_us / lines);
    m.insert("session.self_us_per_cmd", (session_us - engine_us) / lines);
    m.insert("session.cmd_bytes_per_cmd", wire.cmd_bytes as f64 / lines);
    m.insert(
        "session.reply_bytes_per_cmd",
        wire.reply_bytes as f64 / lines,
    );

    let ops = &engine.ops;
    let submits = (engine.submit_grant.count + engine.submit_reject.count) as f64;
    let mut grant_ns = engine.grant_ns.clone();
    m.insert("core.pass_us_per_cmd", engine_us / lines);
    m.insert(
        "core.submit_grant_us_mean",
        engine.submit_grant.mean_us() * ef,
    );
    m.insert(
        "core.submit_grant_us_p99",
        us(percentile_of(&mut grant_ns, 99.0)) * ef,
    );
    m.insert(
        "core.submit_reject_us_mean",
        engine.submit_reject.mean_us() * ef,
    );
    m.insert("core.release_us_mean", engine.release.mean_us() * ef);
    m.insert("core.advance_us_mean", engine.advance.mean_us() * ef);
    m.insert("core.query_us_mean", engine.query.mean_us() * ef);
    m.insert(
        "core.primary_visits_per_cmd",
        ops.primary_visits as f64 / lines,
    );
    m.insert(
        "core.secondary_visits_per_cmd",
        ops.secondary_visits as f64 / lines,
    );
    m.insert(
        "core.update_visits_per_cmd",
        ops.update_visits as f64 / lines,
    );
    m.insert(
        "core.attempts_per_submit",
        ratio(ops.attempts as f64, submits),
    );
    m.insert(
        "core.attempts_jumped_per_submit",
        ratio(ops.attempts_jumped as f64, submits),
    );
    m.insert(
        "core.grants_per_attempt",
        ratio(engine.submit_grant.count as f64, ops.attempts as f64),
    );
    m.insert(
        "core.tree_updates_per_period",
        ratio(
            (ops.periods_inserted + ops.periods_removed) as f64,
            (ops.ring_period_inserts + ops.ring_period_removes) as f64,
        ),
    );
    m.insert("core.rebuilds_total", ops.rebuilds as f64);
    m.insert("core.ring_evictions_total", ops.ring_evictions as f64);
    m.insert("core.periods_resident", engine.resident.0 as f64);
    m.insert("core.tree_entries_resident", engine.resident.1 as f64);

    if plan.shards > 1 {
        let (count, sum) = shard_after.hist_delta(&shard_before, "shard_batch_size");
        m.insert("shard.pass_us_per_cmd", engine_us / lines);
        m.insert("shard.batch_size_mean", ratio(sum, count));
        m.insert(
            "shard.repro_probes_per_submit",
            ratio(
                shard_after.delta(&shard_before, "shard_batch_repro_probes_total"),
                submits,
            ),
        );
    }

    if let Some(mut wal) = wal {
        let f = wal.host_factor;
        let appended = during.delta(&before, "wal_append_bytes_total");
        let (fsyncs, records) = during.hist_delta(&before, "wal_fsync_batch_size");
        m.insert("wal.self_us_per_cmd", wal_us / lines);
        m.insert("wal.append_us_mean", wal.append.mean_us() * f);
        wal.sync_ns.sort_unstable();
        m.insert("wal.fsync_us_p50", us(percentile(&wal.sync_ns, 50.0)) * f);
        m.insert("wal.fsync_us_p99", us(percentile(&wal.sync_ns, 99.0)) * f);
        m.insert("wal.records_per_fsync", ratio(records, fsyncs));
        m.insert("wal.fsyncs_total", during.delta(&before, "wal_fsync_total"));
        m.insert(
            "wal.bytes_per_record",
            ratio(appended, during.delta(&before, "wal_append_total")),
        );
        m.insert(
            "wal.log_bytes_per_payload_byte",
            ratio(appended, wal.payload_bytes as f64),
        );
        m.insert(
            "wal.snapshots_total",
            during.delta(&before, "wal_snapshot_total"),
        );
        m.insert("wal.recovery_ms", after.recovery_ms * wf);
        let replayed =
            Expo::parse(&obs::metrics::exposition()).value("wal_recovery_replayed_total");
        m.insert(
            "wal.recovery_replayed_total",
            replayed - wal_before_recovery,
        );
    }

    m.insert("decisions.granted", wire.decisions.granted as f64);
    m.insert("decisions.rejected", wire.decisions.rejected as f64);
    // A JSON number holds 53 bits: report the 64-bit digest folded to 32.
    m.insert(
        "decisions.reply_digest",
        ((wire.digest >> 32) ^ (wire.digest & 0xffff_ffff)) as f64,
    );
    m.insert("host.cpus", cpus as f64);
    m.insert("host.speed_index", wf);
    m.insert("host.ref_spin_ms_before", spin_before);
    m.insert("host.ref_spin_ms_after", host::ref_spin_ms());
    m.insert(
        "trace.overhead_ratio",
        ratio(
            wire.busy_ns as f64 * wf,
            plain.busy_ns as f64 * plain.host_factor,
        ),
    );

    let path = scratch_dir()
        .join("trace")
        .join(format!("{}.jsonl", plan.name));
    tracer.write_jsonl(&path)?;
    report.notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;
    use obs::json::Json;

    fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
        match spec.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("BENCHMARK.json has no list '{key}'"),
        }
    }

    fn text<'a>(item: &'a Json, key: &str) -> &'a str {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no '{key}' in {item:?}"))
    }

    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let spec = obs::json::parse(&std::fs::read_to_string(spec_path()).expect("BENCHMARK.json"))
            .expect("valid JSON");
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_num),
            Some(gen::REF_SECONDS)
        );
        let names: Vec<&str> = list(&spec, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(names, gen::WORKLOADS);
        for w in list(&spec, "workloads") {
            assert!(
                text(w, "why").len() <= 200,
                "why of {} is too long",
                text(w, "name")
            );
            recorded_digest(text(w, "name")).expect("every workload records its seed-42 digest");
        }
        let pairs = |key: &str| -> Vec<(String, String)> {
            list(&spec, key)
                .iter()
                .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(END_TO_END));
        assert_eq!(pairs("per_layer"), own(PER_LAYER));
        for m in list(&spec, "end_to_end") {
            let bound = m.get("bound").and_then(Json::as_num).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }

    /// Every workload, traced, at smoke size — in one test, because the
    /// passes read deltas of the process-wide metrics registry.
    #[test]
    fn traced_smoke_runs_are_consistent() {
        for workload in gen::WORKLOADS {
            let args = Args {
                workload: workload.to_string(),
                seed: 42,
                seconds: gen::REF_SECONDS,
                trace: true,
                smoke: true,
            };
            let report = run(&args, Instant::now()).expect("run");
            assert!(
                report.correct && report.failed == 0,
                "{workload}: {:#?}",
                report.notes
            );
            let metric = |name: &str| {
                report
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .unwrap_or_else(|| panic!("no metric {name}"))
                    .1
            };
            assert_eq!(report.metrics.len(), PER_LAYER.len());

            let path = scratch_dir()
                .join("trace")
                .join(format!("{workload}.jsonl"));
            let spans = span::read_jsonl(&std::fs::read_to_string(path).expect("span file"))
                .expect("spans parse");
            span::check_nesting(&spans).expect("children lie inside their parents");
            for pass in ["pass.wire", "pass.session", "pass.engine"] {
                assert_eq!(
                    spans
                        .iter()
                        .filter(|s| s.name == pass && s.parent == 0)
                        .count(),
                    1,
                    "{workload}: {pass}"
                );
            }

            // The layers' self times add up to what the wire pass measured.
            let lines = report.attempted as f64;
            let layers = [
                "net.self_us_per_cmd",
                "session.self_us_per_cmd",
                "core.pass_us_per_cmd",
                "wal.self_us_per_cmd",
            ];
            let sum_us: f64 = layers.iter().map(|l| metric(l) * lines).sum();
            // (Spans hold times as measured; the ledger scales them to the
            // reference box by the pass's host factor.)
            let wire_us =
                span::total_ns(&spans, "wire.rtt") as f64 / 1e3 * metric("host.speed_index");
            assert!(
                (sum_us - wire_us).abs() <= 0.01 * wire_us,
                "{workload}: layers {sum_us} us, wire {wire_us} us"
            );

            assert!(metric("decisions.granted") + metric("decisions.rejected") > 0.0);
            assert_eq!(
                metric("wal.fsyncs_total") > 0.0,
                workload == "durable-churn"
            );
            assert_eq!(metric("shard.batch_size_mean") > 0.0, workload == "large-n");
            assert_eq!(
                metric("core.naive_time_ratio") > 0.0,
                workload == "kth-trace"
            );
        }
    }
}
