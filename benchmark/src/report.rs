//! Printing results, running every workload in child processes, and
//! comparing two saved run sets against the bounds in `BENCHMARK.json`.

use crate::gen::WORKLOADS;
use crate::run::Report;
use crate::stats::quartiles;
use obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The contract's result object, on one line.
pub fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Notes and one `name value unit` row per metric, for people.
pub fn print_table(r: &Report) {
    for note in &r.notes {
        println!("{note}");
    }
    for (name, value, unit) in &r.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

/// One finished child run, as saved in a run-set file.
pub struct Saved {
    pub workload: String,
    pub trace: bool,
    pub correct: bool,
    /// `name → (value, unit)`.
    pub metrics: BTreeMap<String, (f64, String)>,
}

fn saved_from(workload: &str, trace: bool, result: &Json) -> Result<Saved, String> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("result has no metrics".into());
    };
    let metrics = metrics
        .iter()
        .map(|(k, v)| {
            let value = v
                .get("value")
                .and_then(Json::as_num)
                .ok_or(format!("metric {k} has no value"))?;
            let unit = v
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            Ok((k.clone(), (value, unit)))
        })
        .collect::<Result<_, String>>()?;
    Ok(Saved {
        workload: workload.to_string(),
        trace,
        correct: result.get("correct") == Some(&Json::Bool(true)),
        metrics,
    })
}

/// Options of `run` without `--workload`.
pub struct AllArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
    pub out: Option<String>,
}

/// Run every workload, each in a fresh child process (`--trace` adds a
/// traced child after the untraced one), `repeat` times over. Prints each
/// child's table, then median and quartiles per metric when repeated.
/// `Ok(false)` when any child reported a violation.
pub fn run_all(a: &AllArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs: Vec<(Saved, String)> = Vec::new();
    let mut all_correct = true;
    for rep in 0..a.repeat {
        for workload in WORKLOADS {
            for trace in [false, true] {
                if trace && !a.trace {
                    continue;
                }
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", workload])
                    .args(["--seed", &a.seed.to_string()])
                    .args(["--seconds", &a.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stdout(Stdio::piped());
                if a.smoke {
                    cmd.arg("--smoke");
                }
                println!(
                    "== {workload} (run {}/{}, trace {})",
                    rep + 1,
                    a.repeat,
                    u8::from(trace)
                );
                let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let (table, last) = stdout
                    .trim_end()
                    .rsplit_once('\n')
                    .unwrap_or(("", stdout.trim_end()));
                println!("{table}");
                let parsed = json::parse(last).map_err(|e| {
                    format!(
                        "{workload}: no result line ({e}); exit {:?}",
                        out.status.code()
                    )
                })?;
                let saved = saved_from(workload, trace, &parsed)?;
                if !saved.correct || !out.status.success() {
                    println!("VIOLATION in {workload}: see the FAILED lines above");
                    all_correct = false;
                }
                runs.push((saved, last.to_string()));
            }
        }
    }
    if a.repeat > 1 {
        print_spread(runs.iter().map(|(s, _)| s));
    }
    if let Some(path) = &a.out {
        let rows: Vec<String> = runs
            .iter()
            .map(|(s, line)| {
                format!(
                    "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {line}}}",
                    s.workload,
                    u8::from(s.trace)
                )
            })
            .collect();
        let text = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}\n",
            a.seed,
            a.seconds,
            rows.join(",\n")
        );
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("run set written to {path}");
    }
    Ok(all_correct)
}

/// `(workload, metric) → values over the repeats`, untraced and traced
/// metrics together (their names do not collide).
fn by_metric<'a>(
    runs: impl IntoIterator<Item = &'a Saved>,
) -> BTreeMap<(String, String), (Vec<f64>, String)> {
    let mut out: BTreeMap<(String, String), (Vec<f64>, String)> = BTreeMap::new();
    for s in runs {
        for (name, (value, unit)) in &s.metrics {
            let e = out
                .entry((s.workload.clone(), name.clone()))
                .or_insert_with(|| (Vec::new(), unit.clone()));
            e.0.push(*value);
        }
    }
    out
}

fn print_spread<'a>(runs: impl IntoIterator<Item = &'a Saved>) {
    println!("== spread over the repeats: q1 / median / q3, and (q3-q1)/median");
    for ((workload, metric), (values, unit)) in by_metric(runs) {
        let (q1, med, q3) = quartiles(&values);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("  {workload:<14} {metric:<34} {q1:>14.4} {med:>14.4} {q3:>14.4} {unit:<6} {spread:>7.4}");
    }
}

fn load_set(path: &str) -> Result<Vec<Saved>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return Err(format!("{path}: no runs"));
    };
    runs.iter()
        .map(|r| {
            let workload = r
                .get("workload")
                .and_then(Json::as_str)
                .ok_or(format!("{path}: run without workload"))?;
            let trace = r.get("trace").and_then(Json::as_num) == Some(1.0);
            saved_from(
                workload,
                trace,
                r.get("result")
                    .ok_or(format!("{path}: run without result"))?,
            )
        })
        .collect()
}

/// Direction and bound of every end-to-end metric in `BENCHMARK.json`.
fn bounds(spec: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let doc = json::parse(&text)?;
    let Some(Json::Arr(list)) = doc.get("end_to_end") else {
        return Err("no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), (higher, bound)))
        })
        .collect()
}

/// The verdict on one `(workload, metric)` pair, by the rule of the
/// choosing-metrics guide: compare medians against the bound; where the
/// spread of either side is wider than the bound the pair is unresolved,
/// unless every run of B reads better than every run of A.
pub fn verdict(a: &[f64], b: &[f64], higher_better: bool, bound: f64) -> &'static str {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    if am == 0.0 {
        return "unresolved";
    }
    // Positive = B is better, as a share of A's median.
    let gain = if higher_better {
        (bm - am) / am.abs()
    } else {
        (am - bm) / am.abs()
    };
    let spread = ((a3 - a1) / am.abs()).max(if bm != 0.0 { (b3 - b1) / bm.abs() } else { 0.0 });
    let worse = |x: f64, y: f64| if higher_better { x < y } else { x > y };
    let b_all_better = b.iter().all(|&y| a.iter().all(|&x| worse(x, y)));
    if spread > bound && !b_all_better {
        "unresolved"
    } else if gain < -bound {
        "worse"
    } else if gain > spread.max(f64::EPSILON) && b_all_better {
        "better"
    } else {
        "within bound"
    }
}

/// Counts that two runs of one commit must reproduce digit for digit.
fn repeats_exactly(metric: &str) -> bool {
    let core_count = metric.starts_with("core.")
        && ((metric.ends_with("_per_cmd") && !metric.ends_with("us_per_cmd"))
            || metric.ends_with("_total"));
    metric.starts_with("decisions.") || core_count
}

/// `compare A.json B.json`: one row per (workload, end-to-end metric).
/// `Ok(false)` when any pair is worse.
pub fn compare(path_a: &str, path_b: &str, spec: &Path) -> Result<bool, String> {
    let bounds = bounds(spec)?;
    let (set_a, set_b) = (load_set(path_a)?, load_set(path_b)?);
    let (a, b) = (by_metric(&set_a), by_metric(&set_b));
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound"
    );
    for ((workload, metric), (va, _)) in &a {
        let Some(&(higher, bound)) = bounds.get(metric) else {
            continue;
        };
        let Some((vb, _)) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (am, bm) = (quartiles(va).1, quartiles(vb).1);
        let change = if am != 0.0 { (bm - am) / am.abs() } else { 0.0 };
        let v = verdict(va, vb, higher, bound);
        ok &= v != "worse";
        println!(
            "{workload:<14} {metric:<18} {am:>14.4} {bm:>14.4} {change:>+8.4} {bound:>6.2}  {v}"
        );
    }
    // Counts must repeat exactly between two runs of one commit.
    for ((workload, metric), (va, _)) in &a {
        if !repeats_exactly(metric) {
            continue;
        }
        if let Some((vb, _)) = b.get(&(workload.clone(), metric.clone())) {
            if va.iter().chain(vb).any(|v| *v != va[0]) {
                println!("{workload:<14} {metric:<34} differs between runs: {va:?} vs {vb:?}");
                ok = false;
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(&a, &[100.2, 99.8, 100.9, 99.1, 100.0], false, 0.10),
            "within bound"
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], false, 0.10),
            "worse"
        );
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], false, 0.10),
            "better"
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], true, 0.10),
            "worse"
        );
        // A spread wider than the bound leaves the pair unresolved ...
        let noisy = [70.0, 130.0, 100.0, 85.0, 115.0];
        assert_eq!(
            verdict(&noisy, &[95.0, 105.0, 100.0, 90.0, 110.0], false, 0.10),
            "unresolved"
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            verdict(&noisy, &[50.0, 51.0, 52.0, 49.0, 50.5], false, 0.10),
            "better"
        );
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s"), ("cmds_per_s", f64::NAN, "1/s")],
            notes: vec![],
        };
        let v = json::parse(&result_line(&r)).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_num), Some(10.0));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("value"))
                .and_then(Json::as_num),
            Some(0.25)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        let saved = saved_from("kth-trace", false, &v).expect("round trip");
        assert_eq!(saved.metrics["cmds_per_s"], (0.0, "1/s".to_string()));
    }
}
