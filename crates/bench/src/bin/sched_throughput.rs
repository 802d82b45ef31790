//! Relative, in-process throughput gates: jump vs linear retry walk, WAL on
//! vs off.
//!
//! Each profile replays one stream through two or three configurations,
//! timing every request, and prints requests/sec and p50/p99 per-request
//! latency for each. The printed numbers are for the eye only: every gate
//! compares two rows of the *same* run, so it needs no committed baseline.
//! Absolute performance is measured, quoted and gated by `benchmark/` (see
//! `benchmark/README.md`) and nowhere else.
//!
//! ```text
//! cargo run -p coalloc-bench --release --bin sched_throughput -- \
//!     [--smoke] [--scale F] [--seed N] [--guard R] \
//!     [--profile reject-heavy|wal]
//! ```
//!
//! * `--smoke` — tiny workload slice for CI.
//! * `--profile reject-heavy` (the default) — a stream dominated by doomed
//!   requests: a 16-wide filler band books every server solid for 48
//!   hours, then every submission must walk (or jump) its full 145-attempt
//!   retry budget to an `Exhausted` reply. This is the Δt-step compute wall
//!   the capacity profile removes: the `online-linear` row replays the
//!   identical stream probing every start, and with `--guard R` the gate
//!   becomes `online >= R × online-linear` (CI uses `1.3`).
//! * `--profile wal` — measure the cost of command durability: one churn
//!   stream of protocol text commands replayed through a [`Session`] three
//!   ways — no WAL, WAL with group commit (the server's write path: append
//!   every mutating command, fsync per batch), and WAL with an fsync after
//!   every mutating command. With `--guard R`, group-commit durability must
//!   reach `R ×` the WAL-off baseline (CI uses `0.5`).
//! * `--guard R` — exit non-zero when the guarded pair misses its ratio.
//!   The pair is re-measured interleaved and compared on the best of three
//!   trials, so one scheduling hiccup cannot fail the gate.

use coalloc_bench::harness::percentile_us;
use coalloc_core::prelude::*;
use coalloc_net::{proto, Session};
use coalloc_wal::{Wal, WalConfig};
use std::time::Instant;

/// One configuration's measured replay.
struct Measured {
    label: String,
    granted: usize,
    secs: f64,
    rps: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Measured {
    /// Summarize a replay of `lat_ns.len()` commands that took `secs`.
    fn new(label: &str, granted: usize, secs: f64, mut lat_ns: Vec<u64>) -> Measured {
        lat_ns.sort_unstable();
        Measured {
            label: label.to_string(),
            granted,
            secs,
            rps: lat_ns.len() as f64 / secs.max(1e-9),
            p50_us: percentile_us(&lat_ns, 0.50),
            p99_us: percentile_us(&lat_ns, 0.99),
        }
    }
}

/// Replay `reqs` (advance + submit) through a fresh scheduler over
/// `servers` servers, timing each request: the `online` row jumps its
/// retry ladders, the `online-linear` row probes every Δt start.
fn replay(label: &str, servers: u32, reqs: &[Request]) -> Measured {
    let mut s = CoAllocScheduler::new(servers, bench_cfg());
    s.set_linear_walk(label == "online-linear");
    let mut lat_ns = Vec::with_capacity(reqs.len());
    let mut granted = 0usize;
    let t0 = Instant::now();
    for r in reqs {
        let t = Instant::now();
        s.advance_to(r.submit);
        if s.submit(r).is_ok() {
            granted += 1;
        }
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    Measured::new(label, granted, t0.elapsed().as_secs_f64(), lat_ns)
}

/// Reject-heavy stream: twelve 16-wide fillers book every server solid
/// over `[0, 48 h)`, then every later submission is doomed — with the band
/// covering the whole 36-hour span its 145-attempt budget can reach (plus
/// the longest request duration), each one must exhaust that budget to an
/// `Exhausted` reply. The linear walk pays a full Phase-1 probe per
/// attempt; the capacity profile proves each window infeasible and jumps
/// the band in a handful of segment-tree queries.
fn reject_heavy_reqs(n_submits: usize, seed: u64) -> Vec<Request> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    const FILLER_SLOTS: i64 = 16; // 4 h per filler
    const BAND_SLOTS: i64 = 192; // 48 h of solid occupancy
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut reqs = Vec::with_capacity(n_submits);
    for i in 0..(BAND_SLOTS / FILLER_SLOTS) {
        reqs.push(Request::advance(
            Time::ZERO,
            Time(i * FILLER_SLOTS * 900),
            Dur(FILLER_SLOTS * 900),
            16,
        ));
    }
    while reqs.len() < n_submits {
        let slots = rng.random_range(8i64..=32);
        reqs.push(Request::on_demand(
            Time::ZERO,
            Dur(slots * 900),
            rng.random_range(1u32..=16),
        ));
    }
    reqs
}

/// Protocol-text churn stream for the `wal` profile: the chaos harness's
/// traffic mix (submit-heavy with releases, clock advances and consistency
/// checks) as one replayable script. Release targets are guessed from the
/// submission count, so a fraction hit unknown jobs — error replies are not
/// appended to the log, exactly as on the server.
fn wal_cmds(n: usize, seed: u64) -> Vec<String> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cmds = Vec::with_capacity(n + 1);
    cmds.push("init 64 900 259200 900".to_string());
    let mut now = 0i64;
    let mut submitted = 0u64;
    for _ in 0..n {
        cmds.push(match rng.random_range(0u32..10) {
            0..=5 => {
                let s = now + rng.random_range(0i64..96) * 900;
                let l = rng.random_range(1i64..=16) * 900;
                let k = rng.random_range(1u32..=4);
                submitted += 1;
                format!("submit 0 {s} {l} {k}")
            }
            6 | 7 => format!("release {}", rng.random_range(0..submitted.max(1))),
            8 => {
                now += rng.random_range(1i64..=4) * 900;
                format!("advance {now}")
            }
            _ => "check".to_string(),
        });
    }
    cmds
}

/// Replay the command stream through a fresh [`Session`], optionally
/// appending every successful mutating command to a WAL and fsyncing per
/// `batch` records — `batch == 1` is sync-each, larger is group commit. A
/// reply only counts as released once its batch is synced, so the timing
/// charges each fsync to the command that triggered it (the group-commit
/// amortization CI guards on).
fn replay_wal(label: &str, cmds: &[String], mut wal: Option<&mut Wal>, batch: u64) -> Measured {
    let mut session = Session::new(1);
    let mut lat_ns = Vec::with_capacity(cmds.len());
    let mut granted = 0usize;
    let mut payload = Vec::new();
    let t0 = Instant::now();
    for cmd in cmds {
        let t = Instant::now();
        let verb = cmd.split_whitespace().next().unwrap_or("");
        if let Ok(reply) = session.exec(cmd) {
            granted += reply.starts_with("granted") as usize;
            if proto::mutating(verb) {
                if let Some(w) = wal.as_deref_mut() {
                    payload.clear();
                    payload.extend_from_slice(cmd.as_bytes());
                    payload.push(b'\n');
                    payload.extend_from_slice(reply.as_bytes());
                    w.append(&payload).expect("wal append");
                    if w.unsynced_records() >= batch {
                        w.sync().expect("wal sync");
                    }
                }
            }
        }
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    if let Some(w) = wal {
        w.sync().expect("wal final sync");
    }
    Measured::new(label, granted, t0.elapsed().as_secs_f64(), lat_ns)
}

/// Group-commit size for the `wal-batched` variant. The server flushes by
/// draining its queue (up to 512) or on a 1 ms timer; 32 is a conservative
/// stand-in for what a moderately loaded server batches per fsync.
const WAL_GROUP_COMMIT: u64 = 32;

/// Run one `wal`-profile variant in a scratch directory (fresh per call so
/// repeated guard trials never replay each other's segments).
fn run_wal_variant(label: &str, cmds: &[String], durable: bool, batch: u64) -> Measured {
    if !durable {
        return replay_wal(label, cmds, None, 0);
    }
    let dir =
        std::env::temp_dir().join(format!("coalloc-bench-wal-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut wal, _recovery) = Wal::open(WalConfig::new(&dir)).expect("open bench wal");
    let m = replay_wal(label, cmds, Some(&mut wal), batch);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    m
}

fn bench_cfg() -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur::from_mins(15))
        .horizon(Dur::from_hours(72))
        .delta_t(Dur::from_mins(15))
        .build()
}

fn main() {
    let mut scale = 0.02f64;
    let mut seed = 42u64;
    let mut guard: Option<f64> = None;
    let mut profile = String::from("reject-heavy");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => scale = 0.002,
            "--scale" => scale = args.next().expect("--scale F").parse().expect("float"),
            "--seed" => seed = args.next().expect("--seed N").parse().expect("integer"),
            "--profile" => profile = args.next().expect("--profile NAME"),
            "--guard" => {
                guard = Some(args.next().expect("--guard R").parse().expect("float"));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: sched_throughput [--smoke] [--scale F] [--seed N] \
                     [--guard R] [--profile reject-heavy|wal]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let (servers, reqs, cmds);
    // The rows of the profile, and its guarded pair: `slow` must reach
    // `R × fast`.
    let (labels, fast_label, slow_label): (&[&str], _, _);
    match profile.as_str() {
        "reject-heavy" => {
            servers = 16;
            let n_submits = ((4000.0 * scale / 0.02).round() as usize).max(100);
            reqs = reject_heavy_reqs(n_submits, seed);
            cmds = Vec::new();
            // Speedup gate, not a regression gate: the jumping scheduler
            // must beat the exhaustive linear walk by the given factor.
            (labels, fast_label, slow_label) =
                (&["online", "online-linear"], "online-linear", "online");
            println!(
                "sched_throughput: {} requests over {servers} servers \
                 (reject-heavy × {scale}, seed {seed})",
                reqs.len(),
            );
        }
        "wal" => {
            servers = 64;
            let n = ((20_000.0 * scale / 0.02).round() as usize).max(500);
            reqs = Vec::new();
            cmds = wal_cmds(n, seed);
            (labels, fast_label, slow_label) = (
                &["wal-off", "wal-batched", "wal-sync-each"],
                "wal-off",
                "wal-batched",
            );
            println!(
                "sched_throughput: {} protocol commands over {servers} servers \
                 (wal × {scale}, seed {seed}, group commit {WAL_GROUP_COMMIT})",
                cmds.len(),
            );
        }
        other => {
            eprintln!("unknown profile {other} (want reject-heavy or wal)");
            std::process::exit(2);
        }
    }

    let measure = |label: &str| match label {
        "wal-off" => run_wal_variant(label, &cmds, false, 0),
        "wal-batched" => run_wal_variant(label, &cmds, true, WAL_GROUP_COMMIT),
        "wal-sync-each" => run_wal_variant(label, &cmds, true, 1),
        _ => replay(label, servers, &reqs),
    };
    let results: Vec<Measured> = labels.iter().map(|label| measure(label)).collect();
    for m in &results {
        println!(
            "  {:<13} {:>10.0} req/s  p50 {:>8.1} µs  p99 {:>9.1} µs  ({} granted, {:.3} s)",
            m.label, m.rps, m.p50_us, m.p99_us, m.granted, m.secs
        );
    }

    if let Some(ratio) = guard {
        let rps_of = |label: &str| {
            results
                .iter()
                .find(|m| m.label == label)
                .map(|m| m.rps)
                .expect("label present")
        };
        // A single replay is too noisy for a pass/fail gate on a busy host:
        // re-measure the guarded pair interleaved and compare each label's
        // best of three trials.
        let (mut fast, mut slow) = (rps_of(fast_label), rps_of(slow_label));
        for _ in 0..2 {
            fast = fast.max(measure(fast_label).rps);
            slow = slow.max(measure(slow_label).rps);
        }
        if slow < ratio * fast {
            eprintln!(
                "GUARD FAILED: {slow_label} at {slow:.0} req/s is below {ratio} × \
                 {fast_label} ({fast:.0} req/s)"
            );
            std::process::exit(1);
        }
        println!(
            "guard ok: {slow_label}/{fast_label} = {:.3} >= {ratio}",
            slow / fast
        );
    }
}
