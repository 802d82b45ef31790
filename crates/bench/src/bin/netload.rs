//! `netload` — closed-loop load generator for the TCP serving path.
//!
//! Spins up an in-process `coalloc-net` server (or targets an external one
//! via `--addr`), drives it with `C` concurrent clients replaying a
//! fixed-seed workload twin from `crates/workloads`, and prints
//! requests/sec and p50/p99 per-command latency (for the eye: absolute
//! performance is gated by `benchmark/`, not here).
//! After the storm it verifies the conservation invariants end to end:
//! every client-observed grant is releasable exactly once, the scheduler
//! passes its internal `check`, and (plain back-end) the server's
//! `sched_grants_total` metric equals the clients' count and releasing
//! everything returns the system to full idle capacity.
//!
//! ```text
//! cargo run -p coalloc-bench --release --bin netload -- \
//!     [--smoke] [--profile default|churn] [--clients C] [--scale F] \
//!     [--seed N] [--shards K] [--addr HOST:PORT]
//! ```
//!
//! * `--smoke` — tiny workload slice for CI (8 clients, ~hundreds of
//!   commands) that still runs every invariant check.
//! * `--profile churn` — connection-churn stress instead of the closed-loop
//!   replay: thousands of concurrent connections (2048 unless `--clients`
//!   says otherwise) opening and closing in bursts, writing pipelined
//!   `advance` bursts split mid-line across writes. Every reply is checked
//!   byte-exactly against its request (`advance N` ⇒ `ok now=N`), so any
//!   reply reordering or cross-connection delivery is a violation.
//! * `--addr` — drive an already-running `coallocd serve` instead of an
//!   in-process server (the metric-equality check is skipped: an external
//!   server's counters may include other traffic).
//!
//! Any `INVARIANT VIOLATED` line makes the process exit 1.

use coalloc_bench::harness::percentile_us;
use coalloc_net::{Client, NetConfig, Server, BUSY_REPLY};
use coalloc_workloads::synthetic::WorkloadSpec;
use std::io::Write;
use std::time::{Duration, Instant};

/// One client's tally of a replay slice.
#[derive(Default)]
struct ClientOutcome {
    /// `(job id, end time)` of every grant this client observed.
    granted_jobs: Vec<(u64, i64)>,
    rejected: u64,
    busy_retries: u64,
    lat_ns: Vec<u64>,
    violations: Vec<String>,
}

/// Send one command, retrying on `busy retry-after` sheds. Queue-level
/// sheds leave the connection open; accept-level sheds close it (seen as
/// a busy-then-EOF, a write error, or — if the command raced the close —
/// a connection reset), so retries reconnect as PROTOCOL.md prescribes.
/// Returns the first real reply and the number of retries absorbed.
fn roundtrip_retry(
    c: &mut Client,
    addr: std::net::SocketAddr,
    line: &str,
) -> std::io::Result<(String, u64)> {
    let mut retries = 0u64;
    loop {
        match c.roundtrip(line) {
            Ok(reply) if reply == BUSY_REPLY => {}
            // EOF: the connection died between commands (shed or reaped).
            Ok(reply) if reply.is_empty() => {}
            Ok(reply) => return Ok((reply, retries)),
            Err(e) if retries >= 100 => return Err(e),
            Err(_) => {}
        }
        retries += 1;
        std::thread::sleep(Duration::from_millis(5));
        // The cheap way to be correct about half-dead sockets: start over.
        let mut fresh = Client::connect(addr)?;
        let _ = fresh.set_timeout(Duration::from_secs(30));
        *c = fresh;
    }
}

/// One closed-loop request: pipeline the `advance` + `submit` pair in a
/// single write, then read both replies. One wire roundtrip per request —
/// the event-driven front-end slices the pair into one scheduler-queue
/// crossing. Queue-level sheds answer per line and leave the connection
/// open, so only the shed half is retried; dead sockets reconnect and
/// resend the whole pair. Returns `(advance reply if it was not shed,
/// submit reply, retries absorbed)`.
fn pair_retry(
    c: &mut Client,
    addr: std::net::SocketAddr,
    adv: &str,
    sub: &str,
) -> std::io::Result<(Option<String>, String, u64)> {
    let mut retries = 0u64;
    let wire = format!("{adv}\n{sub}\n");
    loop {
        let replies = c
            .stream()
            .write_all(wire.as_bytes())
            .and_then(|()| Ok((c.recv_line()?, c.recv_line()?)));
        match replies {
            Ok((r1, r2)) if !r1.is_empty() && !r2.is_empty() => {
                let r1 = if r1 == BUSY_REPLY {
                    retries += 1;
                    None // clock unmoved: harmless for a load run
                } else {
                    Some(r1)
                };
                if r2 == BUSY_REPLY {
                    // The submit was shed before execution: safe to resend
                    // alone on the still-open connection.
                    retries += 1;
                    let (r2, more) = roundtrip_retry(c, addr, sub)?;
                    return Ok((r1, r2, retries + more));
                }
                return Ok((r1, r2, retries));
            }
            // EOF on either reply: the connection died (shed or reaped).
            Ok(_) => {}
            Err(e) if retries >= 100 => return Err(e),
            Err(_) => {}
        }
        retries += 1;
        std::thread::sleep(Duration::from_millis(5));
        let mut fresh = Client::connect(addr)?;
        let _ = fresh.set_timeout(Duration::from_secs(30));
        *c = fresh;
    }
}

fn client_worker(addr: std::net::SocketAddr, reqs: Vec<(i64, i64, i64, u32)>) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.violations.push(format!("connect failed: {e}"));
            return out;
        }
    };
    let _ = c.set_timeout(Duration::from_secs(30));
    for (q, s, l, n) in reqs {
        // Closed loop: move the shared clock to this request's submit
        // instant and ask for the decision, pipelined as one roundtrip.
        let t0 = Instant::now();
        match pair_retry(
            &mut c,
            addr,
            &format!("advance {q}"),
            &format!("submit {q} {s} {l} {n}"),
        ) {
            Ok((ra, r, busy)) => {
                out.busy_retries += busy;
                out.lat_ns.push(t0.elapsed().as_nanos() as u64);
                if let Some(ra) = ra {
                    if !ra.starts_with("ok now=") {
                        out.violations.push(format!("bad advance reply: {ra}"));
                    }
                }
                if let Some(rest) = r.strip_prefix("granted job=") {
                    let id: Option<u64> =
                        rest.split_whitespace().next().and_then(|x| x.parse().ok());
                    let end: Option<i64> = rest
                        .split_whitespace()
                        .find_map(|f| f.strip_prefix("end=").and_then(|v| v.parse().ok()));
                    match (id, end) {
                        (Some(id), Some(end)) => out.granted_jobs.push((id, end)),
                        _ => {
                            out.violations.push(format!("unparsable grant: {r}"));
                            out.granted_jobs.push((u64::MAX, i64::MAX));
                        }
                    }
                } else if r.starts_with("rejected") {
                    out.rejected += 1;
                } else {
                    out.violations.push(format!("unexpected submit reply: {r}"));
                }
            }
            Err(e) => {
                out.violations.push(format!("request pair io error: {e}"));
                return out;
            }
        }
    }
    out
}

/// Pull one metric value out of a `metrics` exposition.
fn metric_value(exposition: &str, name: &str) -> Option<u64> {
    exposition
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Approximate quantile of a histogram family in a `metrics` exposition:
/// walk the cumulative `_bucket{le=...}` series and return the first upper
/// bound covering `q` of `_count`. The buckets are log-linear, so this is
/// an upper bound accurate to one sub-bucket — plenty for a breakdown.
fn expo_quantile(exposition: &str, family: &str, q: f64) -> Option<f64> {
    let count: f64 = metric_value(exposition, &format!("{family}_count"))? as f64;
    if count == 0.0 {
        return Some(0.0);
    }
    let target = (count * q).ceil();
    let prefix = format!("{family}_bucket{{le=\"");
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let (bound, tail) = rest.split_once("\"}")?;
        let cum: f64 = tail.trim().parse().ok()?;
        if cum >= target {
            return bound.parse().ok().or(Some(f64::INFINITY));
        }
    }
    None
}

/// Latency attribution, read from the server's `metrics` once the load is
/// over: print the per-stage p50 breakdown, and check the stage identity
/// queue_wait + sched + wal_stall = net_request_us on the histograms'
/// sums. Every stage of a line is computed from the same four instants as
/// its `net_request_us`, so the stage sums may fall short of the
/// `net_request_us` sum only by the µs truncation of three stages per line,
/// and never exceed it; every stage also counts every answered line.
fn check_stages(addr: std::net::SocketAddr, violations: &mut Vec<String>) {
    let expo = Client::connect(addr)
        .and_then(|c| c.exchange_script("metrics\nexit\n"))
        .unwrap_or_default();
    let families = [
        "req_stage_queue_wait",
        "req_stage_sched",
        "req_stage_wal_stall",
    ];
    if metric_value(&expo, "net_request_us_count").is_none() {
        violations.push("stage attribution: the metrics scrape has no net_request_us".into());
        return;
    }
    let read = |name: String| metric_value(&expo, &name).unwrap_or(0);
    let count = read("net_request_us_count".into());
    let request_sum = read("net_request_us_sum".into());
    let stage_sum: u64 = families.iter().map(|f| read(format!("{f}_sum"))).sum();
    for f in families {
        let n = read(format!("{f}_count"));
        if n != count {
            violations.push(format!(
                "stage attribution: {f} counts {n} lines, net_request_us {count}"
            ));
        }
    }
    if stage_sum > request_sum || stage_sum + 3 * count < request_sum {
        violations.push(format!(
            "stage attribution inconsistent: queue_wait+sched+wal_stall sum to {stage_sum} µs \
             over {count} lines, net_request_us to {request_sum} µs (allowed: up to {} µs less)",
            3 * count
        ));
    }
    let p50 = |family: &str| expo_quantile(&expo, family, 0.50).unwrap_or(0.0);
    println!(
        "  stage p50s: queue_wait {:.1} µs, sched {:.1} µs, wal_stall {:.1} µs, \
         writeback {:.1} µs (e2e p50 {:.1} µs); stage sums {stage_sum} µs of \
         net_request_us {request_sum} µs over {count} lines",
        p50("req_stage_queue_wait"),
        p50("req_stage_sched"),
        p50("req_stage_wal_stall"),
        p50("req_stage_writeback"),
        p50("net_request_us"),
    );
}

struct Args {
    /// `default` (closed-loop kth replay) or `churn` (connection storm).
    profile: String,
    /// `--smoke`: shrink whichever profile runs to CI size.
    smoke: bool,
    clients: usize,
    scale: f64,
    seed: u64,
    shards: u32,
    addr: Option<String>,
}

fn main() {
    let mut args = Args {
        profile: "default".to_string(),
        smoke: false,
        clients: 8,
        scale: 0.01,
        seed: 42,
        shards: 1,
        addr: None,
    };
    let mut clients_set = false;
    let mut cli = std::env::args().skip(1);
    while let Some(a) = cli.next() {
        match a.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.scale = 0.002;
            }
            "--profile" => {
                args.profile = cli.next().expect("--profile default|churn");
                assert!(
                    args.profile == "default" || args.profile == "churn",
                    "--profile must be `default` or `churn`"
                );
            }
            "--clients" => {
                args.clients = cli.next().expect("--clients C").parse().expect("integer");
                clients_set = true;
            }
            "--scale" => args.scale = cli.next().expect("--scale F").parse().expect("float"),
            "--seed" => args.seed = cli.next().expect("--seed N").parse().expect("integer"),
            "--shards" => args.shards = cli.next().expect("--shards K").parse().expect("integer"),
            "--addr" => args.addr = Some(cli.next().expect("--addr HOST:PORT")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: netload [--smoke] [--profile default|churn] [--clients C] \
                     [--scale F] [--seed N] [--shards K] [--addr HOST:PORT]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if args.profile == "churn" && !clients_set {
        // The churn point: thousands of concurrent connections, far past
        // what a thread-per-connection front-end could hold.
        args.clients = if args.smoke { 256 } else { 2048 };
    }
    assert!(args.clients >= 1, "--clients must be at least 1");

    // The workload twin: same generator the throughput gate replays (the
    // churn profile only borrows its server count).
    let spec = WorkloadSpec::kth().scaled(args.scale);

    // In-process server unless an external address was given. One event
    // loop multiplexes every connection; `max_conns` leaves headroom
    // for the control session and reconnecting shed clients.
    let server = if args.addr.is_none() {
        Some(
            Server::bind(NetConfig {
                queue_depth: (args.clients * 2).max(64),
                max_conns: args.clients + 16,
                read_timeout: Duration::from_secs(30),
                shards: args.shards,
                ..NetConfig::default()
            })
            .expect("bind in-process server"),
        )
    } else {
        None
    };
    let addr: std::net::SocketAddr = match (&args.addr, &server) {
        (Some(a), _) => a.parse().expect("parse --addr"),
        (None, Some(s)) => s.local_addr(),
        _ => unreachable!(),
    };

    if args.profile == "churn" {
        run_churn(&args, &spec, server, addr);
        return;
    }

    let reqs = spec.generate(args.seed);
    println!(
        "netload: {} requests over {} servers (kth × {}, seed {}), {} clients, {} shard(s)",
        reqs.len(),
        spec.servers,
        args.scale,
        args.seed,
        args.clients,
        args.shards
    );

    // Control session: initialize the shared scheduler with the paper-bench
    // settings (15-minute slots, 72-hour horizon).
    let mut control = Client::connect(addr).expect("connect control session");
    control
        .set_timeout(Duration::from_secs(30))
        .expect("timeouts");
    let init = control
        .roundtrip(&format!("init {} 900 259200 900", spec.servers))
        .expect("init");
    assert!(init.starts_with("ok"), "init failed: {init}");

    // Round-robin the request stream over the clients, preserving each
    // slice's submit-time order (the shared clock only moves forward).
    let mut slices: Vec<Vec<(i64, i64, i64, u32)>> = vec![Vec::new(); args.clients];
    for (i, r) in reqs.iter().enumerate() {
        slices[i % args.clients].push((
            r.submit.secs(),
            r.earliest_start.secs(),
            r.duration.secs(),
            r.servers,
        ));
    }

    let t0 = Instant::now();
    let handles: Vec<_> = slices
        .into_iter()
        .map(|slice| std::thread::spawn(move || client_worker(addr, slice)))
        .collect();
    let outcomes: Vec<ClientOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let secs = t0.elapsed().as_secs_f64();

    let mut lat_ns: Vec<u64> = Vec::new();
    let mut granted_jobs: Vec<(u64, i64)> = Vec::new();
    let mut rejected = 0u64;
    let mut busy_retries = 0u64;
    let mut violations: Vec<String> = Vec::new();
    for o in outcomes {
        lat_ns.extend(o.lat_ns);
        granted_jobs.extend(o.granted_jobs);
        rejected += o.rejected;
        busy_retries += o.busy_retries;
        violations.extend(o.violations);
    }
    lat_ns.sort_unstable();
    // Two commands (advance + submit) per request crossed the wire as one
    // pipelined pair; rps counts both, the latency samples are pair RTTs.
    let n_cmds = lat_ns.len() * 2;

    // ---- Invariant sweep (the acceptance gate's "zero violations") ----
    // 1. The scheduler's internal indexes are consistent after the storm.
    match control.roundtrip("check") {
        Ok(r) if r == "ok" => {}
        Ok(r) => violations.push(format!("check failed: {r}")),
        Err(e) => violations.push(format!("check io error: {e}")),
    }
    // 2. Grant conservation against the server's own counters (only sound
    //    when the server is ours).
    if server.is_some() {
        let metrics = Client::connect(addr)
            .and_then(|c| c.exchange_script("metrics\nexit\n"))
            .unwrap_or_default();
        match metric_value(&metrics, "sched_grants_total") {
            Some(g) if g as usize == granted_jobs.len() => {}
            Some(g) => violations.push(format!(
                "grant conservation: server counted {g}, clients observed {}",
                granted_jobs.len()
            )),
            None => violations.push("sched_grants_total missing from metrics".into()),
        }
    }
    // 3. Every observed grant is releasable exactly once (no phantom or
    //    double-counted jobs), and releasing all of them returns the
    //    system to full idle capacity.
    granted_jobs.sort_unstable();
    granted_jobs.dedup();
    if granted_jobs.len() != lat_ns.len() - rejected as usize {
        violations.push(format!(
            "duplicate job ids: {} unique grants vs {} granted replies",
            granted_jobs.len(),
            lat_ns.len() - rejected as usize
        ));
    }
    // `release` of a grant whose reservation already ran to completion may
    // answer `error unknown job`: the scheduler prunes finished history on
    // an amortized cadence and forgets pruned jobs (PROTOCOL.md `release`).
    // That is conservation, not leakage — the capacity came back at the
    // reservation's end — so it is only accepted for jobs that had in fact
    // finished by the final clock; for a live job it is a real violation.
    let final_now: i64 = control
        .roundtrip("stats")
        .ok()
        .and_then(|r| {
            r.split_whitespace()
                .find_map(|f| f.strip_prefix("now=").and_then(|v| v.parse().ok()))
        })
        .unwrap_or(i64::MIN);
    let mut released_live: Option<u64> = None;
    for &(job, end) in &granted_jobs {
        match control.roundtrip(&format!("release {job}")) {
            Ok(r) if r == "ok" => released_live = released_live.or(Some(job)),
            Ok(r) if r.starts_with("error unknown job") && end <= final_now => {}
            Ok(r) => violations.push(format!("release {job} (end {end}): {r}")),
            Err(e) => violations.push(format!("release {job} io error: {e}")),
        }
    }
    if let Some(job) = released_live {
        match control.roundtrip(&format!("release {job}")) {
            Ok(r) if r.starts_with("error unknown job") => {}
            Ok(r) => violations.push(format!("double release not rejected: {r}")),
            Err(e) => violations.push(format!("double release io error: {e}")),
        }
    }
    if args.shards == 1 {
        // Plain back-end: after releasing everything, every server is idle
        // over the slot after the final clock (nothing leaked, nothing
        // stuck). The window is read back from `stats` because the load
        // clients advanced the shared clock.
        let now: Option<i64> = control.roundtrip("stats").ok().and_then(|r| {
            r.split_whitespace()
                .find_map(|f| f.strip_prefix("now=").and_then(|v| v.parse().ok()))
        });
        match now {
            Some(now) => match control.roundtrip(&format!("query {} {}", now, now + 900)) {
                Ok(r) if r == format!("free {}", spec.servers) => {
                    for _ in 0..spec.servers {
                        let _ = control.recv_line();
                    }
                }
                Ok(r) => violations.push(format!("capacity not restored: {r}")),
                Err(e) => violations.push(format!("query io error: {e}")),
            },
            None => violations.push("stats reply missing now=".into()),
        }
    }
    match control.roundtrip("check") {
        Ok(r) if r == "ok" => {}
        Ok(r) => violations.push(format!("post-release check failed: {r}")),
        Err(e) => violations.push(format!("post-release check io error: {e}")),
    }

    if server.is_some() {
        // Only sound against our own server: an external one carries
        // traffic (and histogram state) we did not generate.
        check_stages(addr, &mut violations);
    }

    let rps = n_cmds as f64 / secs.max(1e-9);
    let p50 = percentile_us(&lat_ns, 0.50);
    let p99 = percentile_us(&lat_ns, 0.99);
    println!(
        "  {} commands in {:.3} s = {:.0} cmd/s; submit p50 {:.1} µs p99 {:.1} µs; \
         {} granted, {} rejected, {} busy retries",
        n_cmds,
        secs,
        rps,
        p50,
        p99,
        granted_jobs.len(),
        rejected,
        busy_retries
    );
    for v in &violations {
        eprintln!("INVARIANT VIOLATED: {v}");
    }

    drop(control);
    if let Some(s) = server {
        s.shutdown();
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// The churn profile: connection-storm stress for the event-driven front-end.
// ---------------------------------------------------------------------------

/// One driver thread's tally of the churn storm.
#[derive(Default)]
struct ChurnOutcome {
    /// Replies read and byte-checked against their request.
    checked: u64,
    /// Queue-level sheds observed in place of a reply (1:1 preserved).
    busy: u64,
    /// Per-command latency estimate: burst round-trip / burst length.
    lat_ns: Vec<u64>,
    violations: Vec<String>,
}

/// One churn connection's pipelined burst: unique `advance` arguments so a
/// reply misrouted across connections — or reordered within one — fails the
/// byte-exact echo check (`advance N` ⇒ `ok now=N`).
fn churn_burst(base: i64, len: usize) -> (String, Vec<String>) {
    let mut buf = String::new();
    let mut expected = Vec::with_capacity(len);
    for i in 0..len {
        let t = base + i as i64;
        buf.push_str(&format!("advance {t}\n"));
        expected.push(format!("ok now={t}"));
    }
    (buf, expected)
}

fn churn_thread(
    addr: std::net::SocketAddr,
    range: std::ops::Range<usize>,
    total_conns: usize,
    waves: usize,
    burst: usize,
    barrier: &std::sync::Barrier,
) -> ChurnOutcome {
    let mut out = ChurnOutcome::default();
    for wave in 0..waves {
        // 1. Open every connection in the slice, probing admission with one
        //    `version` roundtrip. Accept-level sheds close the socket
        //    (busy-then-EOF), so the probe reconnects until admitted.
        let mut clients: Vec<Option<Client>> = Vec::with_capacity(range.len());
        for idx in range.clone() {
            let mut admitted = None;
            for _ in 0..100 {
                if let Ok(mut c) = Client::connect(addr) {
                    let _ = c.set_timeout(Duration::from_secs(30));
                    match c.roundtrip("version") {
                        Ok(r) if r == BUSY_REPLY || r.is_empty() => {}
                        Ok(_) => {
                            admitted = Some(c);
                            break;
                        }
                        Err(_) => {}
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            if admitted.is_none() {
                out.violations
                    .push(format!("wave {wave} conn {idx}: never admitted"));
            }
            clients.push(admitted);
        }
        // 2. Everyone holds their sockets before any burst: the peak is
        //    exactly `total_conns` concurrently open connections.
        barrier.wait();
        // 3. Pipelined bursts, written split mid-line: the first write ends
        //    a few bytes into the opening `advance`; the rest follows after
        //    a beat on every sixteenth connection. A partial line must sit
        //    in the server's read buffer without stalling anyone else.
        let mut pending: Vec<(usize, Vec<String>, Instant)> = Vec::new();
        for (slot, idx) in range.clone().enumerate() {
            let Some(c) = clients[slot].as_mut() else {
                continue;
            };
            let base = ((wave * total_conns + idx) * burst) as i64;
            let (buf, expected) = churn_burst(base, burst);
            let bytes = buf.as_bytes();
            let split = 7.min(bytes.len());
            let t = Instant::now();
            let wrote = c.stream().write_all(&bytes[..split]).and_then(|()| {
                if slot % 16 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                c.stream().write_all(&bytes[split..])
            });
            match wrote {
                Ok(()) => pending.push((slot, expected, t)),
                Err(e) => {
                    out.violations
                        .push(format!("wave {wave} conn {idx}: burst write: {e}"));
                    clients[slot] = None;
                }
            }
        }
        // 4. Collect replies: positionally 1:1 with the requests, each one
        //    byte-exact or the documented queue-shed busy line.
        for (slot, expected, t) in pending {
            let Some(c) = clients[slot].as_mut() else {
                continue;
            };
            let mut clean = true;
            for want in &expected {
                match c.recv_line() {
                    Ok(r) if r == *want => out.checked += 1,
                    Ok(r) if r == BUSY_REPLY => {
                        out.busy += 1;
                        out.checked += 1;
                    }
                    Ok(r) => {
                        out.violations
                            .push(format!("reply ordering violated: got {r:?}, want {want:?}"));
                        clean = false;
                        break;
                    }
                    Err(e) => {
                        out.violations.push(format!("read reply: {e}"));
                        clean = false;
                        break;
                    }
                }
            }
            if clean {
                out.lat_ns
                    .push(t.elapsed().as_nanos() as u64 / expected.len().max(1) as u64);
            } else {
                clients[slot] = None;
            }
        }
        // 5. Bursty teardown, everyone together: half the connections leave
        //    gracefully (`exit`, drained to EOF), half drop the socket cold.
        barrier.wait();
        for (slot, idx) in range.clone().enumerate() {
            let Some(mut c) = clients[slot].take() else {
                continue;
            };
            if idx % 2 == 0 {
                let _ = c.send("exit");
                let _ = c.recv_line(); // EOF
            }
        }
    }
    out
}

/// The churn profile's main: waves of `args.clients` concurrent connections
/// (bursty open/close, partial-line pipelined writers) with every reply
/// checked byte-exactly — the acceptance gate's "zero reply-ordering
/// violations".
fn run_churn(args: &Args, spec: &WorkloadSpec, server: Option<Server>, addr: std::net::SocketAddr) {
    let conns = args.clients;
    // Smoke stays tiny for CI.
    let waves = if args.smoke { 2 } else { 6 };
    let burst = if args.smoke { 8 } else { 16 };
    let threads = conns.min(32);
    println!(
        "netload churn: {conns} connections × {waves} waves, {burst}-line pipelined bursts, \
         {threads} driver threads, {} shard(s)",
        args.shards
    );

    // Control session: `advance` needs an initialized scheduler.
    let mut control = Client::connect(addr).expect("connect control session");
    control
        .set_timeout(Duration::from_secs(30))
        .expect("timeouts");
    let init = control
        .roundtrip(&format!("init {} 900 259200 900", spec.servers))
        .expect("init");
    assert!(init.starts_with("ok"), "init failed: {init}");

    // Slice the connection indices over the driver threads.
    let per = conns / threads;
    let extra = conns % threads;
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    for t in 0..threads {
        let n = per + usize::from(t < extra);
        ranges.push(start..start + n);
        start += n;
    }

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
    let t0 = Instant::now();
    let handles: Vec<_> = ranges
        .into_iter()
        .map(|range| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || churn_thread(addr, range, conns, waves, burst, &barrier))
        })
        .collect();
    let outcomes: Vec<ChurnOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("churn thread"))
        .collect();
    let secs = t0.elapsed().as_secs_f64();

    let mut lat_ns: Vec<u64> = Vec::new();
    let mut checked = 0u64;
    let mut busy = 0u64;
    let mut violations: Vec<String> = Vec::new();
    for o in outcomes {
        lat_ns.extend(o.lat_ns);
        checked += o.checked;
        busy += o.busy;
        violations.extend(o.violations);
    }
    lat_ns.sort_unstable();

    // The storm may not leave the scheduler inconsistent.
    match control.roundtrip("check") {
        Ok(r) if r == "ok" => {}
        Ok(r) => violations.push(format!("check failed: {r}")),
        Err(e) => violations.push(format!("check io error: {e}")),
    }

    if server.is_some() {
        check_stages(addr, &mut violations);
    }

    let n_cmds = checked as usize;
    let rps = n_cmds as f64 / secs.max(1e-9);
    let p50 = percentile_us(&lat_ns, 0.50);
    let p99 = percentile_us(&lat_ns, 0.99);
    println!(
        "  {} replies byte-checked in {:.3} s = {:.0} cmd/s; per-command p50 {:.1} µs \
         p99 {:.1} µs; {} queue sheds, {} violations",
        n_cmds,
        secs,
        rps,
        p50,
        p99,
        busy,
        violations.len()
    );
    for v in violations.iter().take(20) {
        eprintln!("INVARIANT VIOLATED: {v}");
    }
    if violations.len() > 20 {
        eprintln!("  ... and {} more", violations.len() - 20);
    }

    drop(control);
    if let Some(s) = server {
        s.shutdown();
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
