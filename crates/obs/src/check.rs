//! Validation of JSONL trace streams (the library behind the `trace_check`
//! binary and the CI observability job).
//!
//! [`check_trace`] accepts the raw text of a `--trace-out` / `jsonl:` sink
//! file and verifies structural integrity without ever panicking on hostile
//! input: every non-empty line must parse as a JSON object carrying the
//! mandatory trace keys, span start/end events must balance per thread
//! (a `span_end` must close the innermost open span of its thread), and —
//! optionally — at least one transaction must have a complete
//! hold→commit/abort timeline. Truncated files (a torn final line from a
//! crashed writer) are reported as a clean error naming the line.

use std::collections::BTreeMap;

/// Summary returned by [`check_trace`] on success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Non-empty JSONL event lines seen.
    pub events: usize,
    /// Distinct `txn` field values seen.
    pub txns: usize,
    /// Transactions with both a hold event and a terminal
    /// (commit/abort/expired) event.
    pub complete_txns: usize,
    /// Spans still open at end-of-file (legal: the writer may have been
    /// stopped mid-span; reported for visibility).
    pub open_spans: usize,
}

/// Validate the JSONL trace text. Returns a [`TraceReport`] or a
/// `line N: ...` error string. Never panics, whatever the input.
///
/// Structural checks, per line:
/// - parses as a JSON object (a torn/truncated tail line is an error);
/// - carries `ts_ns`, `thread`, `kind`, and `name` keys;
/// - `kind` is one of `span_start`, `span_end`, `point`;
/// - `span_start`/`span_end` carry a numeric `span` id;
/// - a `span_end` must match the innermost open span started by the *same
///   thread* (depth-mismatched or orphaned ends are errors).
///
/// With `require_txn`, additionally requires at least one complete per-txn
/// hold→terminal timeline (the multisite chaos contract).
pub fn check_trace(text: &str, require_txn: bool) -> Result<TraceReport, String> {
    let mut events = 0usize;
    // txn -> (has hold event, has terminal commit/abort/expired event)
    let mut txns: BTreeMap<String, (bool, bool)> = BTreeMap::new();
    // thread id -> stack of open span ids
    let mut stacks: BTreeMap<String, Vec<u64>> = BTreeMap::new();

    for (i, line) in text.lines().enumerate() {
        let no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        events += 1;
        let value =
            crate::json::parse(line).map_err(|e| format!("line {no}: invalid JSON: {e}"))?;
        for key in ["ts_ns", "thread", "kind", "name"] {
            if value.get(key).is_none() {
                return Err(format!("line {no}: missing key '{key}'"));
            }
        }
        let kind = value.get("kind").and_then(|v| v.as_str()).unwrap_or("");
        if !matches!(kind, "span_start" | "span_end" | "point") {
            return Err(format!("line {no}: unknown event kind '{kind}'"));
        }
        let thread = match value.get("thread") {
            Some(crate::json::Json::Num(n)) => format!("{n}"),
            Some(v) => v.as_str().unwrap_or("?").to_string(),
            None => unreachable!("checked above"),
        };
        if kind != "point" {
            let span = value
                .get("span")
                .and_then(|v| v.as_num())
                .ok_or_else(|| format!("line {no}: {kind} without numeric 'span' id"))?
                as u64;
            let stack = stacks.entry(thread).or_default();
            match kind {
                "span_start" => stack.push(span),
                _ => match stack.pop() {
                    Some(top) if top == span => {}
                    Some(top) => {
                        return Err(format!(
                            "line {no}: span_end for span {span} but innermost open span is {top} (depth mismatch)"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "line {no}: span_end for span {span} with no open span on this thread"
                        ));
                    }
                },
            }
        }
        let name = value.get("name").and_then(|v| v.as_str()).unwrap_or("");
        if let Some(txn) = value.get("txn").map(|v| match v.as_num() {
            Some(n) => format!("{n}"),
            None => v.as_str().unwrap_or("?").to_string(),
        }) {
            let entry = txns.entry(txn).or_insert((false, false));
            if name.contains("hold") {
                entry.0 = true;
            }
            if name.contains("commit") || name.contains("abort") || name.contains("expired") {
                entry.1 = true;
            }
        }
    }

    if events == 0 {
        return Err("trace contains no events".to_string());
    }
    let complete = txns.values().filter(|(h, t)| *h && *t).count();
    if require_txn && complete == 0 {
        return Err(format!(
            "no complete per-txn timelines ({} txns seen)",
            txns.len()
        ));
    }
    Ok(TraceReport {
        events,
        txns: txns.len(),
        complete_txns: complete,
        open_spans: stacks.values().map(Vec::len).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, thread: u64, kind: &str, name: &str, span: Option<u64>) -> String {
        let span = span.map(|s| format!(",\"span\":{s}")).unwrap_or_default();
        format!(
            "{{\"ts_ns\":{ts},\"thread\":{thread},\"kind\":\"{kind}\",\"name\":\"{name}\"{span}}}"
        )
    }

    #[test]
    fn accepts_balanced_spans_and_reports_open_tail() {
        let text = [
            ev(1, 7, "span_start", "a", Some(1)),
            ev(2, 7, "point", "p", None),
            ev(3, 7, "span_start", "b", Some(2)),
            ev(4, 7, "span_end", "b", Some(2)),
            ev(5, 8, "span_start", "other", Some(3)),
        ]
        .join("\n");
        let r = check_trace(&text, false).unwrap();
        assert_eq!(r.events, 5);
        assert_eq!(r.open_spans, 2, "span 1 on thread 7, span 3 on thread 8");
    }

    #[test]
    fn rejects_depth_mismatch_cleanly() {
        let text = [
            ev(1, 7, "span_start", "a", Some(1)),
            ev(2, 7, "span_start", "b", Some(2)),
            ev(3, 7, "span_end", "a", Some(1)), // closes outer before inner
        ]
        .join("\n");
        let err = check_trace(&text, false).unwrap_err();
        assert!(
            err.contains("line 3") && err.contains("depth mismatch"),
            "{err}"
        );
    }

    #[test]
    fn rejects_orphan_end_and_missing_span_id() {
        let err = check_trace(&ev(1, 7, "span_end", "a", Some(9)), false).unwrap_err();
        assert!(err.contains("no open span"), "{err}");
        let err = check_trace(&ev(1, 7, "span_start", "a", None), false).unwrap_err();
        assert!(err.contains("'span'"), "{err}");
    }

    #[test]
    fn torn_last_line_is_a_clean_error() {
        let mut text = ev(1, 7, "point", "p", None);
        text.push('\n');
        text.push_str("{\"ts_ns\":2,\"thread\":7,\"kind\":\"poi"); // torn mid-write
        let err = check_trace(&text, false).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("invalid JSON"),
            "{err}"
        );
    }

    #[test]
    fn txn_timeline_requirement() {
        let hold = "{\"ts_ns\":1,\"thread\":1,\"kind\":\"point\",\"name\":\"site.hold_granted\",\"txn\":4}";
        let commit =
            "{\"ts_ns\":2,\"thread\":1,\"kind\":\"point\",\"name\":\"site.commit\",\"txn\":4}";
        let both = format!("{hold}\n{commit}");
        let r = check_trace(&both, true).unwrap();
        assert_eq!((r.txns, r.complete_txns), (1, 1));
        let err = check_trace(hold, true).unwrap_err();
        assert!(err.contains("no complete per-txn timelines"), "{err}");
    }
}
