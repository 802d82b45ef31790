//! The repo benchmark (see `README.md` beside `Cargo.toml` and
//! `BENCHMARK.json` at the repo root).
//!
//! ```text
//! benchmark run [--seed N] [--seconds S] [--trace] [--smoke] [--repeat N] [--out FILE]
//! benchmark run --workload W --seed N --seconds S --trace 0|1      (one process, one workload)
//! benchmark compare A.json B.json
//! benchmark trace benchmark/target/trace/<workload>.jsonl
//! ```

mod expo;
mod gen;
mod host;
mod passes;
mod report;
mod run;
mod span;
mod stats;
mod validate;
mod wire;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat N] [--out FILE]\n       benchmark compare A.json B.json\n       benchmark trace FILE.jsonl";

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\n{USAGE}");
    ExitCode::from(2)
}

fn failed(problem: &str) -> ExitCode {
    eprintln!("benchmark: {problem}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => run_command(&argv[1..], process_start),
        Some("compare") => match &argv[1..] {
            [a, b] => match report::compare(a, b, &run::spec_path()) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => failed(&e),
            },
            _ => usage("compare takes two run-set files"),
        },
        Some("trace") => match &argv[1..] {
            [file] => match span::summarize(file) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => failed(&e),
            },
            _ => usage("trace takes one span file"),
        },
        _ => usage("expected 'run', 'compare' or 'trace'"),
    }
}

/// The options of `run`, from the command line.
struct RunArgs {
    workload: Option<String>,
    all: report::AllArgs,
}

fn parse_run_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        all: report::AllArgs {
            seed: 42,
            seconds: gen::REF_SECONDS,
            trace: false,
            smoke: false,
            repeat: 1,
            out: None,
        },
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => a.all.seed = value("a number")?.parse().map_err(|_| "bad seed")?,
            "--seconds" => {
                a.all.seconds = value("a number")?.parse().map_err(|_| "bad seconds")?;
                if !(a.all.seconds > 0.0 && a.all.seconds.is_finite()) {
                    return Err("seconds must be positive".into());
                }
            }
            "--repeat" => {
                a.all.repeat = value("a number")?.parse().map_err(|_| "bad repeat")?;
                if a.all.repeat == 0 {
                    return Err("repeat must be at least 1".into());
                }
            }
            "--out" => a.all.out = Some(value("a path")?),
            "--smoke" => a.all.smoke = true,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                a.all.trace = it
                    .next_if(|v| matches!(v.as_str(), "0" | "1"))
                    .is_none_or(|v| v == "1")
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if let Some(w) = &a.workload {
        if !gen::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload '{w}' (want one of {:?})",
                gen::WORKLOADS
            ));
        }
    }
    Ok(a)
}

fn run_command(argv: &[String], process_start: Instant) -> ExitCode {
    let RunArgs { workload, all } = match parse_run_args(argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let Some(workload) = workload else {
        return match report::run_all(&all) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => failed(&e),
        };
    };
    let args = run::Args {
        workload,
        seed: all.seed,
        seconds: all.seconds,
        trace: all.trace,
        smoke: all.smoke,
    };
    match run::run(&args, process_start) {
        Ok(r) => {
            report::print_table(&r);
            println!("{}", report::result_line(&r));
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => failed(&format!("{}: {e}", args.workload)),
    }
}
