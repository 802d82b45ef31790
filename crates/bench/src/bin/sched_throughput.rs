//! End-to-end scheduler throughput gate: naive vs online vs sharded.
//!
//! Replays a workload-twin request stream through the naive oracle, the
//! single tree-based online scheduler, and the sharded scheduler at
//! `K ∈ {1, 2, 4, 8}`, timing every request. Emits `BENCH_sched.json`
//! with requests/sec and p50/p99 per-request latency for each scheduler.
//!
//! ```text
//! cargo run -p coalloc-bench --release --bin sched_throughput -- \
//!     [--smoke] [--scale F] [--seed N] [--out PATH] [--guard R] \
//!     [--batch B] [--pool-min-batch N] \
//!     [--profile kth|write-heavy|reject-heavy|wal] [--validate PATH]
//! ```
//!
//! * `--smoke` — tiny workload slice for CI (also skips the slow naive
//!   baseline's full stream: the stream is already small).
//! * `--batch B` — additionally measure the batched submission path: the
//!   op stream is chunked into groups of up to `B` submissions (releases
//!   encountered while a group fills are deferred to just after it lands,
//!   the way a server drains its queue), and every scheduler replays the
//!   *same* groups — the single scheduler folds each group through
//!   `submit_batch_into`, the sharded ones execute it as one batch. Emits
//!   extra `online-b{B}` / `sharded-k{K}-b{B}` rows. With `--guard R` the
//!   gate moves to the batched rows: every `sharded-k{2,4,8}-b{B}` must
//!   reach `R ×` `online-b{B}`.
//! * `--profile write-heavy` — replace the KTH submit-only stream with a
//!   grant/release churn stream of long-spanning reservations (4–48 h over
//!   15-minute slots), so the run is dominated by idle-period index updates
//!   rather than searches. The emitted document carries the online
//!   scheduler's write-path counters (`write_path` object).
//! * `--profile reject-heavy` — a stream dominated by doomed requests: a
//!   16-wide filler band books every server solid for 48 hours, then every
//!   submission must walk (or jump) its full 145-attempt retry budget to an
//!   `Exhausted` reply. This is the Δt-step compute wall the capacity
//!   profile removes: the extra `online-linear` row replays the identical
//!   stream with `jump_retries` off, and with `--guard R` the gate becomes
//!   `online >= R × online-linear` (CI uses `1.3`).
//! * `--pool-min-batch N` — override the sharded schedulers' pool
//!   threshold (`ShardedScheduler::set_pool_min_batch`): `0` forces every
//!   batch through the worker pool, a huge value pins the inline path.
//!   Applied to every sharded row, guard re-trials included.
//! * `--profile wal` — measure the cost of command durability: one churn
//!   stream of protocol text commands replayed through a [`Session`] three
//!   ways — no WAL, WAL with group commit (the server's write path: append
//!   every mutating command, fsync per batch), and WAL with an fsync after
//!   every mutating command. Emits `BENCH_wal.json`.
//! * `--guard R` — exit non-zero on a throughput regression: for the
//!   scheduler profiles, the sharded `K=1` configuration must reach `R ×`
//!   the single scheduler (CI uses `0.9`); for `--profile wal`, group-commit
//!   durability must reach `R ×` the WAL-off baseline (CI uses `0.5`). The
//!   guarded pair is re-measured interleaved and compared on the best of
//!   three trials, so one scheduling hiccup cannot fail the gate.
//! * `--validate PATH` — parse an existing result file and check its shape
//!   instead of running; used by CI after the bench run.

use coalloc_core::naive::NaiveScheduler;
use coalloc_core::prelude::*;
use coalloc_net::{proto, Session};
use coalloc_shard::ShardedScheduler;
use coalloc_wal::{Wal, WalConfig};
use coalloc_workloads::synthetic::WorkloadSpec;
use obs::json::{self, Json};
use std::time::Instant;

const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// One scheduler's measured replay.
struct Measured {
    label: String,
    shards: Option<u32>,
    granted: usize,
    secs: f64,
    rps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Nearest-rank percentile over an ascending slice of nanosecond latencies,
/// reported in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Replay `reqs` through `step` (advance + submit), timing each request.
fn replay(
    label: &str,
    shards: Option<u32>,
    reqs: &[Request],
    mut step: impl FnMut(&Request) -> bool,
) -> Measured {
    let mut lat_ns = Vec::with_capacity(reqs.len());
    let mut granted = 0usize;
    let t0 = Instant::now();
    for r in reqs {
        let t = Instant::now();
        if step(r) {
            granted += 1;
        }
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    let secs = t0.elapsed().as_secs_f64();
    lat_ns.sort_unstable();
    Measured {
        label: label.to_string(),
        shards,
        granted,
        secs,
        rps: reqs.len() as f64 / secs.max(1e-9),
        p50_us: percentile_us(&lat_ns, 0.50),
        p99_us: percentile_us(&lat_ns, 0.99),
    }
}

/// One operation of a write-heavy replay stream: a submission, or the
/// release of the grant an earlier submission produced (a no-op for the
/// schedulers that rejected it — all of them, by decision equivalence).
enum Op {
    Submit(Request),
    Release { submit_idx: usize, at: Time },
}

/// Write-heavy stream: long-spanning reservations (16–192 slots of 15
/// minutes) booked with lead times scattered across the whole 72-hour
/// horizon, plus mixed release traffic. The scatter leaves wide idle gaps
/// between reservations on the same server, and every submission past the
/// in-flight window releases the oldest outstanding job — so the deltas the
/// schedulers apply are dominated by finite idle periods spanning dozens of
/// slots (the worst case for per-slot mirroring) rather than by searches.
fn write_heavy_ops(n_submits: usize, seed: u64) -> Vec<Op> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    const IN_FLIGHT: usize = 24;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(2 * n_submits);
    let mut outstanding = std::collections::VecDeque::new();
    let mut t = 0i64;
    for idx in 0..n_submits {
        t += rng.random_range(60i64..=600);
        let slots = rng.random_range(16i64..=192);
        // Book anywhere in the horizon that still fits the duration.
        let max_lead = (71 * 3600 - slots * 900) / 900;
        let lead = rng.random_range(0i64..=max_lead) * 900;
        let req = Request::advance(
            Time(t),
            Time(t + lead),
            Dur(slots * 900),
            rng.random_range(1u32..=4),
        );
        ops.push(Op::Submit(req));
        outstanding.push_back(idx);
        while outstanding.len() > IN_FLIGHT {
            let victim = outstanding.pop_front().expect("non-empty");
            t += rng.random_range(30i64..=120);
            ops.push(Op::Release {
                submit_idx: victim,
                at: Time(t),
            });
        }
    }
    ops
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

/// One scheduler call of an [`Op`] replay, resolved against earlier grants.
enum Action<'a> {
    Submit(&'a Request),
    Release(JobId, Time),
}

/// Replay an [`Op`] stream, timing every operation. `act` returns the
/// granted job id on submission so later `Release` ops can refer back to it.
fn replay_ops(
    label: &str,
    shards: Option<u32>,
    ops: &[Op],
    mut act: impl FnMut(Action) -> Option<JobId>,
) -> Measured {
    let mut lat_ns = Vec::with_capacity(ops.len());
    let mut jobs: Vec<Option<JobId>> = Vec::with_capacity(ops.len());
    let mut granted = 0usize;
    let t0 = Instant::now();
    for op in ops {
        let t = Instant::now();
        match op {
            Op::Submit(r) => {
                let g = act(Action::Submit(r));
                granted += g.is_some() as usize;
                jobs.push(g);
            }
            Op::Release { submit_idx, at } => {
                if let Some(job) = jobs[*submit_idx].take() {
                    act(Action::Release(job, *at));
                }
            }
        }
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    let secs = t0.elapsed().as_secs_f64();
    lat_ns.sort_unstable();
    Measured {
        label: label.to_string(),
        shards,
        granted,
        secs,
        rps: ops.len() as f64 / secs.max(1e-9),
        p50_us: percentile_us(&lat_ns, 0.50),
        p99_us: percentile_us(&lat_ns, 0.99),
    }
}

/// One replay group of the batched mode: a run of up to `B` submissions
/// executed as one `submit_batch`, or the release of an earlier grant.
enum Group {
    Batch(Vec<Request>),
    Release { submit_idx: usize, at: Time },
}

/// Chunk a stream into batched replay groups. Submissions accumulate into
/// groups of up to `batch`; releases encountered while a group is filling
/// are deferred until the group lands (a release may then even target a
/// grant made earlier in its own group — exactly how the server's queue
/// drain behaves). Every scheduler replays the same groups, so the batched
/// rows are decision-identical to each other, though not to the unbatched
/// rows (the clock only advances at group boundaries).
fn group_stream(reqs: &[Request], ops: &[Op], batch: usize) -> Vec<Group> {
    let mut groups = Vec::new();
    let mut cur: Vec<Request> = Vec::new();
    let mut deferred: Vec<Group> = Vec::new();
    let flush = |cur: &mut Vec<Request>, deferred: &mut Vec<Group>, groups: &mut Vec<Group>| {
        if !cur.is_empty() {
            groups.push(Group::Batch(std::mem::take(cur)));
        }
        groups.append(deferred);
    };
    if ops.is_empty() {
        for r in reqs {
            cur.push(*r);
            if cur.len() == batch {
                flush(&mut cur, &mut deferred, &mut groups);
            }
        }
    } else {
        for op in ops {
            match op {
                Op::Submit(r) => {
                    cur.push(*r);
                    if cur.len() == batch {
                        flush(&mut cur, &mut deferred, &mut groups);
                    }
                }
                Op::Release { submit_idx, at } => deferred.push(Group::Release {
                    submit_idx: *submit_idx,
                    at: *at,
                }),
            }
        }
    }
    flush(&mut cur, &mut deferred, &mut groups);
    groups
}

/// One scheduler call of a [`Group`] replay.
enum GroupAction<'a> {
    Submit(&'a [Request]),
    Release(JobId, Time),
}

/// Replay a [`Group`] stream. Batch latency is charged evenly to its
/// members so the percentiles stay per-request figures; `rps` divides the
/// original op count by the wall time, directly comparable to the
/// unbatched rows.
fn replay_groups(
    label: &str,
    shards: Option<u32>,
    n_ops: usize,
    groups: &[Group],
    mut act: impl FnMut(GroupAction, &mut Vec<Result<Grant, ScheduleError>>),
) -> Measured {
    let mut lat_ns = Vec::with_capacity(n_ops);
    let mut jobs: Vec<Option<JobId>> = Vec::new();
    let mut out: Vec<Result<Grant, ScheduleError>> = Vec::new();
    let mut granted = 0usize;
    let t0 = Instant::now();
    for g in groups {
        match g {
            Group::Batch(reqs) => {
                let t = Instant::now();
                act(GroupAction::Submit(reqs), &mut out);
                let per = t.elapsed().as_nanos() as u64 / reqs.len().max(1) as u64;
                for r in out.drain(..) {
                    match r {
                        Ok(g) => {
                            granted += 1;
                            jobs.push(Some(g.job));
                        }
                        Err(_) => jobs.push(None),
                    }
                    lat_ns.push(per);
                }
            }
            Group::Release { submit_idx, at } => {
                let t = Instant::now();
                if let Some(job) = jobs[*submit_idx].take() {
                    act(GroupAction::Release(job, *at), &mut out);
                }
                lat_ns.push(t.elapsed().as_nanos() as u64);
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    lat_ns.sort_unstable();
    Measured {
        label: label.to_string(),
        shards,
        granted,
        secs,
        rps: n_ops as f64 / secs.max(1e-9),
        p50_us: percentile_us(&lat_ns, 0.50),
        p99_us: percentile_us(&lat_ns, 0.99),
    }
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
    let secs = t0.elapsed().as_secs_f64();
    lat_ns.sort_unstable();
    Measured {
        label: label.to_string(),
        shards: None,
        granted,
        secs,
        rps: cmds.len() as f64 / secs.max(1e-9),
        p50_us: percentile_us(&lat_ns, 0.50),
        p99_us: percentile_us(&lat_ns, 0.99),
    }
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
    let dir = std::env::temp_dir().join(format!(
        "coalloc-bench-wal-{label}-{}",
        std::process::id()
    ));
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

/// [`bench_cfg`] with capacity-profile attempt jumping disabled: the
/// exhaustive Δt-step retry walk, measured as the `online-linear` row.
fn bench_cfg_linear() -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur::from_mins(15))
        .horizon(Dur::from_hours(72))
        .delta_t(Dur::from_mins(15))
        .jump_retries(false)
        .build()
}

/// Everything `render` needs besides the per-scheduler measurements.
struct RunMeta<'a> {
    profile: &'a str,
    workload: &'a str,
    servers: u32,
    scale: f64,
    seed: u64,
    n_ops: usize,
    /// Batched-mode group size (`--batch`), 0 when batched rows were not run.
    batch: usize,
    /// Pre-rendered `"write_path"` JSON object (write-heavy profile only).
    write_path: Option<String>,
}

fn render(results: &[Measured], meta: &RunMeta) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"sched_throughput\",\n");
    out.push_str(&format!("  \"profile\": \"{}\",\n", json::escape(meta.profile)));
    out.push_str(&format!("  \"workload\": \"{}\",\n", json::escape(meta.workload)));
    out.push_str(&format!("  \"servers\": {},\n", meta.servers));
    out.push_str(&format!("  \"scale\": {},\n", meta.scale));
    out.push_str(&format!("  \"seed\": {},\n", meta.seed));
    out.push_str(&format!("  \"requests\": {},\n", meta.n_ops));
    if meta.batch > 0 {
        out.push_str(&format!("  \"batch\": {},\n", meta.batch));
    }
    out.push_str(&format!("  \"cpus\": {cpus},\n"));
    if let Some(wp) = &meta.write_path {
        out.push_str(&format!("  \"write_path\": {wp},\n"));
    }
    out.push_str("  \"schedulers\": [\n");
    for (i, m) in results.iter().enumerate() {
        let shards = m
            .shards
            .map(|k| format!("\"shards\": {k}, "))
            .unwrap_or_default();
        out.push_str(&format!(
            "    {{\"label\": \"{}\", {}\"granted\": {}, \"secs\": {:.6}, \"rps\": {:.3}, \"p50_us\": {:.3}, \"p99_us\": {:.3}}}{}\n",
            json::escape(&m.label),
            shards,
            m.granted,
            m.secs,
            m.rps,
            m.p50_us,
            m.p99_us,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Shape-check a `BENCH_sched.json` document. Returns the parsed schedulers
/// keyed by label on success.
fn validate(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(text)?;
    if doc.get("bench").and_then(Json::as_str) != Some("sched_throughput") {
        return Err("missing or wrong \"bench\" tag".into());
    }
    let profile = doc
        .get("profile")
        .and_then(Json::as_str)
        .ok_or("missing string \"profile\"")?;
    if profile == "write-heavy" {
        let wp = doc.get("write_path").ok_or("write-heavy document missing \"write_path\"")?;
        for key in [
            "logical_period_updates",
            "tree_entry_updates",
            "tree_updates_per_period",
            "periods_resident",
            "tree_entries_resident",
            "segment_nodes",
        ] {
            if wp.get(key).and_then(Json::as_num).is_none() {
                return Err(format!("\"write_path\" missing numeric \"{key}\""));
            }
        }
    }
    for key in ["requests", "cpus", "servers", "scale", "seed"] {
        if doc.get(key).and_then(Json::as_num).is_none() {
            return Err(format!("missing numeric \"{key}\""));
        }
    }
    if doc.get("requests").and_then(Json::as_num).unwrap_or(0.0) <= 0.0 {
        return Err("\"requests\" must be positive".into());
    }
    let Some(Json::Arr(entries)) = doc.get("schedulers") else {
        return Err("missing \"schedulers\" array".into());
    };
    let mut seen = Vec::new();
    for e in entries {
        let label = e
            .get("label")
            .and_then(Json::as_str)
            .ok_or("scheduler entry without string \"label\"")?;
        for key in ["granted", "secs", "rps", "p50_us", "p99_us"] {
            e.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("entry \"{label}\" missing numeric \"{key}\""))?;
        }
        seen.push((
            label.to_string(),
            e.get("rps").and_then(Json::as_num).unwrap_or(0.0),
        ));
    }
    let mut want: Vec<String> = if profile == "wal" {
        ["wal-off", "wal-batched", "wal-sync-each"]
            .map(String::from)
            .into()
    } else {
        [
            "naive",
            "online",
            "online-linear",
            "sharded-k1",
            "sharded-k2",
            "sharded-k4",
            "sharded-k8",
        ]
        .map(String::from)
        .into()
    };
    // A batched run carries a positive "batch" and one batched row per
    // scheduler (the naive oracle has no batched entry point).
    let batch = doc.get("batch").and_then(Json::as_num).unwrap_or(0.0) as u64;
    if batch > 0 {
        if profile == "wal" {
            return Err("\"batch\" is not valid for the wal profile".into());
        }
        want.push(format!("online-b{batch}"));
        for k in [1u64, 2, 4, 8] {
            want.push(format!("sharded-k{k}-b{batch}"));
        }
    }
    for want in &want {
        if !seen.iter().any(|(l, _)| l == want) {
            return Err(format!("missing scheduler entry \"{want}\""));
        }
    }
    Ok(seen)
}

/// The online scheduler's write-path counters, rendered as a JSON object.
fn write_path_json(s: &CoAllocScheduler) -> String {
    let st = *s.stats();
    let tree_updates = st.periods_inserted + st.periods_removed;
    let logical = st.ring_period_inserts + st.ring_period_removes;
    let per_period = if logical == 0 {
        0.0
    } else {
        tree_updates as f64 / logical as f64
    };
    let ring = s.ring();
    format!(
        "{{\"logical_period_updates\": {logical}, \"tree_entry_updates\": {tree_updates}, \
         \"tree_updates_per_period\": {per_period:.3}, \"periods_resident\": {}, \
         \"tree_entries_resident\": {}, \"segment_nodes\": {}}}",
        ring.resident_periods(),
        ring.resident_entries(),
        ring.segment_nodes(),
    )
}

fn main() {
    let mut scale = 0.02f64;
    let mut seed = 42u64;
    let mut out_path: Option<String> = None;
    let mut guard: Option<f64> = None;
    let mut batch = 0usize;
    let mut pool_min_batch: Option<usize> = None;
    let mut profile = String::from("kth");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => scale = 0.002,
            "--scale" => scale = args.next().expect("--scale F").parse().expect("float"),
            "--seed" => seed = args.next().expect("--seed N").parse().expect("integer"),
            "--out" => out_path = Some(args.next().expect("--out PATH")),
            "--profile" => profile = args.next().expect("--profile NAME"),
            "--batch" => {
                batch = args.next().expect("--batch B").parse().expect("integer");
            }
            "--pool-min-batch" => {
                pool_min_batch =
                    Some(args.next().expect("--pool-min-batch N").parse().expect("integer"));
            }
            "--guard" => {
                guard = Some(args.next().expect("--guard R").parse().expect("float"));
            }
            "--validate" => {
                let path = args.next().expect("--validate PATH");
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("read {path}: {e}"));
                match validate(&text) {
                    Ok(entries) => {
                        println!("{path}: ok ({} schedulers)", entries.len());
                        return;
                    }
                    Err(e) => {
                        eprintln!("{path}: INVALID: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: sched_throughput [--smoke] [--scale F] [--seed N] \
                     [--out PATH] [--guard R] [--batch B] [--pool-min-batch N] \
                     [--profile kth|write-heavy|reject-heavy|wal] [--validate PATH]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let out_path = out_path.unwrap_or_else(|| {
        String::from(if profile == "wal" { "BENCH_wal.json" } else { "BENCH_sched.json" })
    });
    let (meta_workload, servers, reqs, ops, cmds);
    match profile.as_str() {
        "kth" => {
            let spec = WorkloadSpec::kth().scaled(scale);
            servers = spec.servers;
            meta_workload = spec.name.clone();
            reqs = spec.generate(seed);
            ops = Vec::new();
            cmds = Vec::new();
            println!(
                "sched_throughput: {} requests over {servers} servers (kth × {scale}, seed {seed})",
                reqs.len(),
            );
        }
        "write-heavy" => {
            servers = 64;
            meta_workload = String::from("write-heavy-churn");
            let n_submits = ((4000.0 * scale / 0.02).round() as usize).max(100);
            reqs = Vec::new();
            ops = write_heavy_ops(n_submits, seed);
            cmds = Vec::new();
            println!(
                "sched_throughput: {} ops ({n_submits} submits) over {servers} servers \
                 (write-heavy × {scale}, seed {seed})",
                ops.len(),
            );
        }
        "reject-heavy" => {
            servers = 16;
            meta_workload = String::from("reject-heavy-wall");
            let n_submits = ((4000.0 * scale / 0.02).round() as usize).max(100);
            reqs = reject_heavy_reqs(n_submits, seed);
            ops = Vec::new();
            cmds = Vec::new();
            println!(
                "sched_throughput: {} requests over {servers} servers \
                 (reject-heavy × {scale}, seed {seed})",
                reqs.len(),
            );
        }
        "wal" => {
            servers = 64;
            meta_workload = String::from("wal-churn");
            let n = ((20_000.0 * scale / 0.02).round() as usize).max(500);
            reqs = Vec::new();
            ops = Vec::new();
            cmds = wal_cmds(n, seed);
            println!(
                "sched_throughput: {} protocol commands over {servers} servers \
                 (wal × {scale}, seed {seed}, group commit {WAL_GROUP_COMMIT})",
                cmds.len(),
            );
        }
        other => {
            eprintln!("unknown profile {other} (want kth, write-heavy, reject-heavy or wal)");
            std::process::exit(2);
        }
    }

    // Build a sharded scheduler for any row, honoring `--pool-min-batch`.
    let mk_sharded = |k: u32| {
        let mut s = ShardedScheduler::new(servers, k, bench_cfg());
        if let Some(n) = pool_min_batch {
            s.set_pool_min_batch(n);
        }
        s
    };

    // Replay one scheduler over whichever stream the profile selected.
    macro_rules! run {
        ($label:expr, $shards:expr, $s:ident) => {
            if ops.is_empty() {
                replay($label, $shards, &reqs, |r| {
                    $s.advance_to(r.submit);
                    $s.submit(r).is_ok()
                })
            } else {
                replay_ops($label, $shards, &ops, |a| match a {
                    Action::Submit(r) => {
                        $s.advance_to(r.submit);
                        $s.submit(r).ok().map(|g| g.job)
                    }
                    Action::Release(job, at) => {
                        $s.advance_to(at);
                        let _ = $s.release(job);
                        None
                    }
                })
            }
        };
    }

    let mut results = Vec::new();
    let mut write_path = None;
    if profile == "wal" {
        results.push(run_wal_variant("wal-off", &cmds, false, 0));
        results.push(run_wal_variant("wal-batched", &cmds, true, WAL_GROUP_COMMIT));
        results.push(run_wal_variant("wal-sync-each", &cmds, true, 1));
    } else {
        {
            let mut s = NaiveScheduler::new(servers, bench_cfg());
            results.push(run!("naive", None, s));
        }
        {
            let mut s = CoAllocScheduler::new(servers, bench_cfg());
            results.push(run!("online", None, s));
            if profile == "write-heavy" {
                write_path = Some(write_path_json(&s));
            }
        }
        {
            let mut s = CoAllocScheduler::new(servers, bench_cfg_linear());
            results.push(run!("online-linear", None, s));
        }
        for k in SHARD_COUNTS {
            let mut s = mk_sharded(k);
            results.push(run!(&format!("sharded-k{k}"), Some(k), s));
        }
    }

    if batch > 0 && profile == "wal" {
        eprintln!("--batch is not valid for the wal profile");
        std::process::exit(2);
    }
    let groups = if batch > 0 {
        group_stream(&reqs, &ops, batch)
    } else {
        Vec::new()
    };
    let n_stream_ops = reqs.len().max(ops.len());

    // Replay the batched groups through one scheduler — the macro body is
    // identical for the single and the sharded scheduler, which is the
    // point: `submit_batch_into` is the shared batched entry point.
    macro_rules! run_batch {
        ($label:expr, $shards:expr, $s:ident) => {
            replay_groups($label, $shards, n_stream_ops, &groups, |a, out| match a {
                GroupAction::Submit(reqs) => {
                    $s.advance_to(reqs[0].submit);
                    $s.submit_batch_into(reqs, out);
                }
                GroupAction::Release(job, at) => {
                    $s.advance_to(at);
                    let _ = $s.release(job);
                }
            })
        };
    }

    if batch > 0 {
        {
            let mut s = CoAllocScheduler::new(servers, bench_cfg());
            results.push(run_batch!(&format!("online-b{batch}"), None, s));
        }
        for k in SHARD_COUNTS {
            let mut s = mk_sharded(k);
            results.push(run_batch!(&format!("sharded-k{k}-b{batch}"), Some(k), s));
        }
    }

    for m in &results {
        println!(
            "  {:<12} {:>10.0} req/s  p50 {:>8.1} µs  p99 {:>9.1} µs  ({} granted, {:.3} s)",
            m.label, m.rps, m.p50_us, m.p99_us, m.granted, m.secs
        );
    }
    if let Some(wp) = &write_path {
        println!("  write_path: {wp}");
    }

    let meta = RunMeta {
        profile: &profile,
        workload: &meta_workload,
        servers,
        scale,
        seed,
        n_ops: reqs.len().max(ops.len()).max(cmds.len()),
        batch,
        write_path,
    };
    let doc = render(&results, &meta);
    validate(&doc).expect("self-validation of the emitted document");
    std::fs::write(&out_path, &doc).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");

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
        if batch > 0 {
            // Batched gate: every parallel configuration must carry its
            // weight — sharded-k{2,4,8}-b{B} each against online-b{B}.
            let online_label = format!("online-b{batch}");
            let shard_ks = [2u32, 4, 8];
            let mut online = rps_of(&online_label);
            let mut best: Vec<f64> = shard_ks
                .iter()
                .map(|k| rps_of(&format!("sharded-k{k}-b{batch}")))
                .collect();
            for _ in 0..2 {
                let mut s = CoAllocScheduler::new(servers, bench_cfg());
                online = online.max(run_batch!(&online_label, None, s).rps);
                for (i, &k) in shard_ks.iter().enumerate() {
                    let mut s = mk_sharded(k);
                    best[i] =
                        best[i].max(run_batch!(&format!("sharded-k{k}-b{batch}"), Some(k), s).rps);
                }
            }
            let mut failed = false;
            for (i, &k) in shard_ks.iter().enumerate() {
                if best[i] < ratio * online {
                    eprintln!(
                        "GUARD FAILED: sharded-k{k}-b{batch} at {:.0} req/s is below \
                         {ratio} × {online_label} ({online:.0} req/s)",
                        best[i]
                    );
                    failed = true;
                } else {
                    println!(
                        "guard ok: sharded-k{k}-b{batch}/{online_label} = {:.3} >= {ratio}",
                        best[i] / online
                    );
                }
            }
            if failed {
                std::process::exit(1);
            }
            return;
        }
        let (fast_label, slow_label);
        let (mut fast, mut slow);
        if profile == "wal" {
            (fast_label, slow_label) = ("wal-off", "wal-batched");
            fast = rps_of(fast_label);
            slow = rps_of(slow_label);
            for _ in 0..2 {
                fast = fast.max(run_wal_variant(fast_label, &cmds, false, 0).rps);
                slow = slow
                    .max(run_wal_variant(slow_label, &cmds, true, WAL_GROUP_COMMIT).rps);
            }
        } else if profile == "reject-heavy" {
            // Speedup gate, not a regression gate: the jumping scheduler
            // must beat the exhaustive linear walk by the given factor
            // (`slow` here is the row required to reach `R × fast`).
            (fast_label, slow_label) = ("online-linear", "online");
            fast = rps_of(fast_label);
            slow = rps_of(slow_label);
            for _ in 0..2 {
                let mut s = CoAllocScheduler::new(servers, bench_cfg_linear());
                fast = fast.max(run!("online-linear", None, s).rps);
                let mut s = CoAllocScheduler::new(servers, bench_cfg());
                slow = slow.max(run!("online", None, s).rps);
            }
        } else {
            (fast_label, slow_label) = ("online", "sharded-k1");
            fast = rps_of(fast_label);
            slow = rps_of(slow_label);
            for _ in 0..2 {
                let mut s = CoAllocScheduler::new(servers, bench_cfg());
                fast = fast.max(run!("online", None, s).rps);
                let mut s = mk_sharded(1);
                slow = slow.max(run!("sharded-k1", Some(1), s).rps);
            }
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
