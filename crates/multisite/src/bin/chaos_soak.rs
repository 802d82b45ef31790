//! Chaos soak driver: concurrent coordinators over faulty links, optional
//! site crashes, invariant verification at the end.
//!
//! ```text
//! chaos_soak [sites] [coordinators] [requests-per-coordinator] [seed] \
//!            [drop-prob] [duplicate-prob] [crash-interval-ms] \
//!            [--trace-out PATH] [--metrics-dump]
//! ```
//!
//! Numeric arguments are optional and positional; `drop-prob` and
//! `duplicate-prob` are applied to both the request and the reply path.
//! A `crash-interval-ms` of 0 (the default) disables crash injection.
//!
//! * `--trace-out PATH` enables tracing, streams every span/event to `PATH`
//!   as JSONL, and keeps a ring buffer so that on invariant violation the
//!   per-transaction Hold/Commit/Abort timelines are reconstructed and
//!   printed for post-mortem analysis.
//! * `--metrics-dump` prints the Prometheus-style metrics exposition
//!   (RPC retries, link faults, grant counters) before exiting.
//! * `COALLOC_OBS` (see the `obs` crate docs) configures tracing when
//!   `--trace-out` is not given.
//!
//! Exits non-zero when any protocol invariant is violated, printing each
//! failing invariant on stderr.

use coalloc_multisite::chaos::{run_chaos, ChaosConfig};
use std::time::Duration;

fn arg<T: std::str::FromStr>(positional: &[String], n: usize, default: T) -> T {
    positional
        .get(n)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

/// Split the raw argv into (positional numeric args, trace path, dump flag).
fn parse_args(raw: impl Iterator<Item = String>) -> (Vec<String>, Option<String>, bool) {
    let mut positional = Vec::new();
    let mut trace_out = None;
    let mut metrics_dump = false;
    let mut raw = raw.peekable();
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--trace-out" => trace_out = raw.next(),
            "--metrics-dump" => metrics_dump = true,
            _ => positional.push(a),
        }
    }
    (positional, trace_out, metrics_dump)
}

/// Dump per-transaction event timelines from the ring buffer (newest-capacity
/// window) so a violated invariant can be traced to the exact
/// Hold/Commit/Abort interleaving that produced it.
fn dump_txn_timelines() {
    let events = obs::trace::ring_events();
    let timelines = obs::trace::timelines_by(&events, "txn");
    if timelines.is_empty() {
        eprintln!("(no per-txn events in the trace ring; run with --trace-out)");
        return;
    }
    eprintln!(
        "--- per-txn timelines ({} txns in ring) ---",
        timelines.len()
    );
    for (txn, evs) in &timelines {
        eprintln!("txn {txn}:");
        for e in evs {
            eprintln!("  {}", e.pretty());
        }
    }
}

fn main() {
    let (positional, trace_out, metrics_dump) = parse_args(std::env::args().skip(1));
    println!("{}", obs::init_from_env());
    if let Some(path) = &trace_out {
        match obs::trace::JsonlSink::create(path) {
            Ok(sink) => {
                obs::trace::set_sink(Some(std::sync::Arc::new(sink)));
                obs::trace::set_ring_capacity(obs::trace::DEFAULT_RING_CAPACITY);
                obs::trace::set_enabled(true);
                obs::trace::set_detail(true); // post-mortems want everything
                println!("tracing to {path} (jsonl)");
            }
            Err(e) => {
                eprintln!("cannot open trace file {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    let defaults = ChaosConfig::default();
    let drop_prob: f64 = arg(&positional, 4, 0.05);
    let duplicate_prob: f64 = arg(&positional, 5, 0.05);
    let crash_ms: u64 = arg(&positional, 6, 0);
    let cfg = ChaosConfig {
        sites: arg(&positional, 0, 4),
        coordinators: arg(&positional, 1, 6),
        requests_per_coordinator: arg(&positional, 2, 50),
        seed: arg(&positional, 3, defaults.seed),
        link: coalloc_multisite::LinkConfig {
            drop_prob,
            duplicate_prob,
            drop_reply_prob: drop_prob,
            duplicate_reply_prob: duplicate_prob,
            ..defaults.link
        },
        crash_interval: (crash_ms > 0).then(|| Duration::from_millis(crash_ms)),
        ..defaults
    };
    println!("chaos soak: {cfg:?}");
    let t0 = std::time::Instant::now();
    let report = run_chaos(cfg);
    println!("{}", report.summary());
    println!("elapsed: {:.1?}", t0.elapsed());
    for (i, s) in report.sites.iter().enumerate() {
        println!("site {i}: {s:?}");
    }
    obs::trace::flush_sink();
    if metrics_dump {
        println!("--- metrics ---");
        print!("{}", obs::metrics::exposition());
    }
    match report.verify() {
        Ok(()) => println!("all invariants hold"),
        Err(errors) => {
            for e in &errors {
                eprintln!("INVARIANT VIOLATED: {e}");
            }
            if obs::trace::enabled() {
                dump_txn_timelines();
            }
            obs::trace::flush_sink();
            std::process::exit(1);
        }
    }
}
