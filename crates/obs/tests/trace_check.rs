//! Hostile-input coverage for the `trace_check` binary and the strict
//! exposition validator: torn last lines, non-UTF-8 bytes, and
//! depth-mismatched spans must produce a clean error (nonzero exit, one-line
//! diagnostic), never a panic.

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trace_check_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_check"))
        .args(args)
        .output()
        .expect("spawn trace_check");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const GOOD_LINE: &str = "{\"ts_ns\":1,\"thread\":7,\"kind\":\"point\",\"name\":\"net.request\"}";

#[test]
fn valid_trace_passes() {
    let p = tmp("ok.jsonl");
    std::fs::write(
        &p,
        "{\"ts_ns\":1,\"thread\":7,\"kind\":\"span_start\",\"name\":\"a\",\"span\":1}\n\
         {\"ts_ns\":2,\"thread\":7,\"kind\":\"point\",\"name\":\"p\"}\n\
         {\"ts_ns\":3,\"thread\":7,\"kind\":\"span_end\",\"name\":\"a\",\"span\":1}\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = run(&[p.to_str().unwrap()]);
    assert!(ok, "stdout={stdout} stderr={stderr}");
    assert!(stdout.contains("3 events"), "{stdout}");
}

#[test]
fn torn_last_line_fails_cleanly() {
    let p = tmp("torn.jsonl");
    let mut f = std::fs::File::create(&p).unwrap();
    writeln!(f, "{GOOD_LINE}").unwrap();
    // A crashed writer leaves a prefix of the next record, no newline.
    write!(f, "{{\"ts_ns\":2,\"thread\":7,\"ki").unwrap();
    drop(f);
    let (ok, _, stderr) = run(&[p.to_str().unwrap()]);
    assert!(!ok);
    assert!(
        stderr.contains("line 2") && stderr.contains("invalid JSON"),
        "{stderr}"
    );
}

#[test]
fn non_utf8_fails_cleanly() {
    let p = tmp("binary.jsonl");
    let mut bytes = GOOD_LINE.as_bytes().to_vec();
    bytes.push(b'\n');
    bytes.extend_from_slice(&[0xff, 0xfe, 0x80, b'\n']);
    std::fs::write(&p, bytes).unwrap();
    let (ok, _, stderr) = run(&[p.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("not valid UTF-8"), "{stderr}");
}

#[test]
fn depth_mismatched_spans_fail_cleanly() {
    let p = tmp("depth.jsonl");
    std::fs::write(
        &p,
        "{\"ts_ns\":1,\"thread\":7,\"kind\":\"span_start\",\"name\":\"outer\",\"span\":1}\n\
         {\"ts_ns\":2,\"thread\":7,\"kind\":\"span_start\",\"name\":\"inner\",\"span\":2}\n\
         {\"ts_ns\":3,\"thread\":7,\"kind\":\"span_end\",\"name\":\"outer\",\"span\":1}\n",
    )
    .unwrap();
    let (ok, _, stderr) = run(&[p.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("depth mismatch"), "{stderr}");
}

#[test]
fn empty_and_missing_key_traces_fail_cleanly() {
    let p = tmp("empty.jsonl");
    std::fs::write(&p, "").unwrap();
    let (ok, _, stderr) = run(&[p.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("no events"), "{stderr}");

    let p = tmp("missing_key.jsonl");
    std::fs::write(&p, "{\"ts_ns\":1,\"thread\":7,\"kind\":\"point\"}\n").unwrap();
    let (ok, _, stderr) = run(&[p.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("missing key 'name'"), "{stderr}");
}

#[test]
fn expo_mode_validates_real_exposition() {
    // Real registry output must pass the strict validator...
    obs::metrics::counter("tc_expo_total").add(2);
    obs::metrics::gauge("tc_expo_gauge").set(-4);
    let h = obs::metrics::histogram("tc_expo_hist");
    for v in [0u64, 3, 70, 5_000, u64::MAX] {
        h.observe(v);
    }
    let text = obs::metrics::exposition();
    let p = tmp("metrics.txt");
    std::fs::write(&p, &text).unwrap();
    let (ok, stdout, stderr) = run(&["--expo", p.to_str().unwrap()]);
    assert!(ok, "stdout={stdout} stderr={stderr}\n{text}");

    // ...and corrupted variants must fail with a located error.
    for (broken, needle) in [
        (text.replace("le=\"+Inf\"", "le=\"+inf\""), "le"),
        (
            text.replace("# TYPE tc_expo_hist histogram\n", ""),
            "tc_expo_hist",
        ),
    ] {
        let p = tmp("metrics_bad.txt");
        std::fs::write(&p, &broken).unwrap();
        let (ok, _, stderr) = run(&["--expo", p.to_str().unwrap()]);
        assert!(!ok, "corrupted exposition accepted");
        assert!(stderr.contains(needle), "{stderr}");
    }
}

#[test]
fn validator_rejects_inconsistent_histograms() {
    let bad = "# TYPE h histogram\n\
               h_bucket{le=\"1\"} 5\n\
               h_bucket{le=\"2\"} 3\n\
               h_bucket{le=\"+Inf\"} 5\n\
               h_sum 10\n\
               h_count 5\n";
    let err = obs::metrics::validate_exposition(bad).unwrap_err();
    assert!(err.contains("decreased"), "{err}");

    let bad = "# TYPE h histogram\n\
               h_bucket{le=\"1\"} 5\n\
               h_bucket{le=\"+Inf\"} 5\n\
               h_sum 10\n\
               h_count 7\n";
    let err = obs::metrics::validate_exposition(bad).unwrap_err();
    assert!(err.contains("_count"), "{err}");

    let bad = "# TYPE c counter\nc -3\n";
    let err = obs::metrics::validate_exposition(bad).unwrap_err();
    assert!(err.contains("negative"), "{err}");

    let bad = "orphan 3\n";
    let err = obs::metrics::validate_exposition(bad).unwrap_err();
    assert!(err.contains("before any TYPE"), "{err}");
}
