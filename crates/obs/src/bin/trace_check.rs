//! Validate observability artifacts (CI gate).
//!
//! Usage:
//!   `trace_check <trace.jsonl> [--require-txn-timelines]`
//!   `trace_check --expo <metrics.txt>`
//!
//! Default mode validates a JSONL trace file (see [`obs::check::check_trace`]):
//! exits 0 iff the file is non-empty, every line parses as a JSON object with
//! the mandatory trace keys, and span start/end events balance per thread.
//! With `--require-txn-timelines`, also requires at least one transaction
//! with both a hold event and a terminal (commit/abort/expired) event.
//!
//! `--expo` mode instead runs the strict Prometheus text-exposition validator
//! ([`obs::metrics::validate_exposition`]) over a scraped `/metrics` body.
//!
//! Malformed input — torn last lines, non-UTF-8 bytes, depth-mismatched
//! spans — always produces a clean one-line error and a nonzero exit, never
//! a panic.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let expo = args.iter().any(|a| a == "--expo");
    let require_txn = args.iter().any(|a| a == "--require-txn-timelines");
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: trace_check <trace.jsonl> [--require-txn-timelines] | trace_check --expo <metrics.txt>");
        return ExitCode::from(2);
    };

    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = match String::from_utf8(bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "trace_check: {path}: not valid UTF-8 (invalid byte at offset {})",
                e.utf8_error().valid_up_to()
            );
            return ExitCode::FAILURE;
        }
    };

    if expo {
        return match obs::metrics::validate_exposition(&text) {
            Ok(families) if families > 0 => {
                println!(
                    "trace_check: {path} ok — {families} metric families, exposition format valid"
                );
                ExitCode::SUCCESS
            }
            Ok(_) => {
                eprintln!("trace_check: {path} contains no metric families");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("trace_check: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match obs::check::check_trace(&text, require_txn) {
        Ok(r) => {
            println!(
                "trace_check: {path} ok — {} events, {} txns ({} with full hold→commit/abort timelines), {} spans open at EOF",
                r.events, r.txns, r.complete_txns, r.open_spans
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
