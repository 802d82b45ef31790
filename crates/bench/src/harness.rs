//! Shared experiment harness: paper-default scheduler construction, workload
//! runs for every scheduler under test, and CSV/console reporting.

use coalloc_batch::{run_batch, BatchPolicy};
use coalloc_core::naive::NaiveScheduler;
use coalloc_core::prelude::*;
use coalloc_sim::runner::{replay, RunResult};
use coalloc_workloads::synthetic::WorkloadSpec;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Experiment-wide settings (from the CLI).
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Job-count scale factor applied to every workload (1.0 = full paper
    /// size).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Server ranges of the online scheduler (more than 1 adds a worker
    /// per range for large batches — decisions are identical either way).
    pub shards: u32,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.05,
            seed: 42,
            out_dir: PathBuf::from("results"),
            shards: 1,
        }
    }
}

/// The paper's evaluation settings (Section 5): `Delta_t` = 15 min,
/// `R_max = Q/2`, with a 3-day slotted horizon (`tau` = 15 min).
pub fn paper_scheduler_config() -> SchedulerConfig {
    SchedulerConfig::builder()
        .tau(Dur::from_mins(15))
        .horizon(Dur::from_hours(72))
        .delta_t(Dur::from_mins(15))
        .build()
}

/// Run one workload through the online tree-based scheduler over `shards`
/// server ranges (decisions do not depend on `shards`).
pub fn online_run(
    spec: &WorkloadSpec,
    requests: &[Request],
    label: &str,
    shards: u32,
) -> RunResult {
    let mut span = bench_span("online", spec, requests, label);
    let mut sched = CoAllocScheduler::with_ranges(spec.servers, shards, paper_scheduler_config());
    let result = replay(&mut sched, requests, label);
    finish_bench_span(&mut span, &result);
    result
}

/// Run one workload through the naive linear-scan co-allocator.
pub fn naive_run(spec: &WorkloadSpec, requests: &[Request], label: &str) -> RunResult {
    let mut span = bench_span("naive", spec, requests, label);
    let mut sched = NaiveScheduler::new(spec.servers, paper_scheduler_config());
    let result = replay(&mut sched, requests, label);
    finish_bench_span(&mut span, &result);
    result
}

/// Run one workload through a batch baseline.
pub fn batch_run(
    spec: &WorkloadSpec,
    policy: BatchPolicy,
    requests: &[Request],
    label: &str,
) -> RunResult {
    let mut span = bench_span("batch", spec, requests, label);
    let result = run_batch(spec.servers, policy, requests, label);
    finish_bench_span(&mut span, &result);
    result
}

fn bench_span(
    scheduler: &'static str,
    spec: &WorkloadSpec,
    requests: &[Request],
    label: &str,
) -> obs::SpanGuard {
    let mut span = obs::obs_span!(
        "bench.run",
        "scheduler" => scheduler,
        "servers" => spec.servers,
        "requests" => requests.len()
    );
    if span.active() {
        span.record("label", label.to_string());
    }
    span
}

fn finish_bench_span(span: &mut obs::SpanGuard, result: &RunResult) {
    if span.active() {
        span.record("acceptance_rate", result.acceptance_rate());
        span.record("total_ops", result.total_ops);
    }
}

/// A CSV writer that also keeps the rows for console printing.
pub struct Csv {
    path: PathBuf,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// Start a CSV with the given column names.
    pub fn new(dir: &Path, name: &str, header: &[&str]) -> Csv {
        Csv {
            path: dir.join(format!("{name}.csv")),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (already formatted).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Convenience: format heterogeneous cells.
    pub fn rowf(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Write the file and print an aligned table to stdout.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(&self.path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(","))?;
        }
        // Console table.
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for r in &self.rows {
            println!("{}", line(r));
        }
        println!("-> wrote {}", self.path.display());
        Ok(self.path)
    }
}

/// Nearest-rank percentile over an ascending slice of nanosecond latencies,
/// reported in microseconds.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Round to 3 decimal places for stable CSV output.
pub fn r3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writes_and_prints() {
        let dir = std::env::temp_dir().join("coalloc-csv-test");
        let mut c = Csv::new(&dir, "t", &["a", "b"]);
        c.rowf(&[&1, &r3(0.123456)]);
        let path = c.finish().unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "a,b\n1,0.123\n");
    }

    #[test]
    fn paper_config_matches_section5() {
        let cfg = paper_scheduler_config();
        assert_eq!(cfg.delta_t, Dur::from_mins(15));
        let q = cfg.slot_config().num_slots;
        assert_eq!(q, 288); // 72 h of 15-min slots
        assert_eq!(cfg.effective_r_max(), (q / 2) as u32);
    }

    #[test]
    fn harness_runs_all_three_schedulers() {
        let spec = WorkloadSpec::kth().scaled(0.002);
        let reqs = spec.generate(1);
        let a = online_run(&spec, &reqs, "online", 1);
        let b = naive_run(&spec, &reqs, "naive");
        let c = batch_run(&spec, BatchPolicy::EasyBackfill, &reqs, "easy");
        assert_eq!(a.outcomes.len(), reqs.len());
        assert_eq!(b.outcomes.len(), reqs.len());
        assert_eq!(c.outcomes.len(), reqs.len());
    }

    #[test]
    fn sharded_online_run_matches_single() {
        let spec = WorkloadSpec::kth().scaled(0.002);
        let reqs = spec.generate(7);
        let single = online_run(&spec, &reqs, "online", 1);
        let sharded = online_run(&spec, &reqs, "online", 4);
        let starts =
            |r: &RunResult| -> Vec<Option<Time>> { r.outcomes.iter().map(|o| o.start).collect() };
        assert_eq!(starts(&single), starts(&sharded));
    }
}
