//! End-to-end tests for the admin HTTP plane and the latency-attribution
//! pipeline (ISSUE 7): every endpoint answers a real HTTP GET, `/metrics`
//! passes the strict exposition validator, the `req_stage_*` histograms
//! fill, and a deliberately stalled request lands in `/debug/slow` (and
//! the `slow` command) while its fast neighbours do not.
//!
//! The slow ring and the metrics registry are process-global, so every
//! assertion filters by content (specific command lines) instead of
//! asserting on totals that a sibling test could bump.

use coalloc_net::{Client, NetConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Minimal HTTP/1.1 GET: returns `(status, head, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    http_request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn http_request(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect admin");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(raw.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8(buf).expect("response is UTF-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in: {text:?}"));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head:?}"));
    (status, head.to_string(), body.to_string())
}

fn admin_server(cfg_mut: impl FnOnce(&mut NetConfig)) -> Server {
    let mut cfg = NetConfig {
        admin_addr: Some("127.0.0.1:0".to_string()),
        // Short idle timeout so a drain with a client still attached
        // completes promptly instead of waiting out the default 30 s.
        read_timeout: Duration::from_secs(2),
        ..NetConfig::default()
    };
    cfg_mut(&mut cfg);
    Server::bind(cfg).expect("bind server with admin plane")
}

#[test]
fn all_admin_endpoints_answer_and_metrics_validate() {
    let server = admin_server(|_| {});
    let admin = server.admin_addr().expect("admin plane is up");

    // Drive real traffic first so /status and /metrics have content.
    let mut c = Client::connect(server.local_addr()).expect("connect");
    assert!(c
        .roundtrip("init 6 10 400 10")
        .unwrap()
        .starts_with("ok 6 servers"));
    assert!(c
        .roundtrip("submit 0 0 50 2")
        .unwrap()
        .starts_with("granted"));
    assert!(c.roundtrip("stats").unwrap().starts_with("now="));

    // /healthz and /readyz: live and ready (recovery ran before bind).
    let (code, _, body) = http_get(admin, "/healthz");
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    let (code, _, body) = http_get(admin, "/readyz");
    assert_eq!((code, body.as_str()), (200, "ready\n"));

    // /metrics: correct content type, strict-validator clean, and the
    // stage histograms are present as complete families.
    let (code, head, body) = http_get(admin, "/metrics");
    assert_eq!(code, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "prometheus content type, got head: {head}"
    );
    let families = obs::metrics::validate_exposition(&body)
        .unwrap_or_else(|e| panic!("/metrics fails the exposition validator: {e}"));
    assert!(
        families > 10,
        "expected a populated registry, got {families} families"
    );
    for stage in [
        "req_stage_queue_wait",
        "req_stage_sched",
        "req_stage_wal_stall",
        "req_stage_writeback",
    ] {
        assert!(
            body.lines()
                .any(|l| l.starts_with(&format!("{stage}_count "))),
            "{stage} family missing from /metrics"
        );
        let count: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{stage}_count ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert!(count > 0, "{stage} never observed despite served commands");
    }

    // /status: valid JSON whose scheduler cell reflects the init above
    // (the scheduler thread refreshed it while executing the commands).
    let (code, head, body) = http_get(admin, "/status");
    assert_eq!(code, 200);
    assert!(head.contains("application/json"), "{head}");
    let v = obs::json::parse(&body).expect("/status is valid JSON");
    assert_eq!(v.get("ready"), Some(&obs::json::Json::Bool(true)));
    assert_eq!(v.get("initialized"), Some(&obs::json::Json::Bool(true)));
    let sched = v.get("scheduler").expect("scheduler object");
    assert_eq!(sched.get("servers").and_then(|s| s.as_num()), Some(6.0));
    let util = sched
        .get("utilization")
        .and_then(|u| u.as_num())
        .expect("utilization");
    assert!(
        (0.0..=1.0).contains(&util),
        "utilization {util} out of range"
    );
    assert!(v.get("queue").and_then(|q| q.get("capacity")).is_some());
    assert!(v.get("wal").and_then(|w| w.get("enabled")).is_some());

    // /debug/slow: valid JSON with the policy header.
    let (code, _, body) = http_get(admin, "/debug/slow");
    assert_eq!(code, 200);
    let v = obs::json::parse(&body).expect("/debug/slow is valid JSON");
    assert!(v.get("threshold_us").and_then(|t| t.as_num()).is_some());
    assert!(v.get("records").is_some());

    // Unknown path and non-GET are rejected, not crashed into.
    let (code, _, _) = http_get(admin, "/nope");
    assert_eq!(code, 404);
    let (code, _, _) = http_request(
        admin,
        "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(code, 405);

    // Query strings are tolerated (scrapers append them).
    let (code, _, _) = http_get(admin, "/healthz?probe=1");
    assert_eq!(code, 200);

    drop(c);
    server.shutdown();
}

#[test]
fn stalled_request_is_captured_fast_ones_are_not() {
    // Only lines containing the marker substring stall for 40 ms; the
    // capture threshold is 10 ms, so exactly the stalled line qualifies.
    let marker = "submit 0 777 50 2";
    let server = admin_server(|cfg| {
        cfg.exec_delay = Duration::from_millis(40);
        cfg.stall_substr = Some("777".to_string());
        cfg.slow_threshold = Duration::from_millis(10);
    });
    let admin = server.admin_addr().unwrap();

    let mut c = Client::connect(server.local_addr()).expect("connect");
    let fast_line = "submit 0 500 50 1";
    assert!(c.roundtrip("init 8 10 2000 10").unwrap().starts_with("ok"));
    assert!(c.roundtrip(fast_line).unwrap().starts_with("granted"));
    let stalled = c.roundtrip(marker).expect("stalled submit");
    assert!(
        stalled.starts_with("granted"),
        "stalled submit still succeeds: {stalled}"
    );

    // The admin dump holds the stalled line with a full timeline...
    let (code, _, body) = http_get(admin, "/debug/slow");
    assert_eq!(code, 200);
    let v = obs::json::parse(&body).expect("valid JSON");
    let records = match v.get("records") {
        Some(obs::json::Json::Arr(a)) => a.clone(),
        other => panic!("records not an array: {other:?}"),
    };
    let captured: Vec<_> = records
        .iter()
        .filter(|r| r.get("line").and_then(|l| l.as_str()) == Some(marker))
        .collect();
    assert!(
        !captured.is_empty(),
        "stalled request missing from /debug/slow: {body}"
    );
    let rec = captured.last().unwrap();
    assert_eq!(rec.get("outcome").and_then(|o| o.as_str()), Some("slow"));
    let total = rec.get("total_us").and_then(|t| t.as_num()).unwrap();
    assert!(
        total >= 40_000.0,
        "captured total {total} µs below the injected stall"
    );
    let timeline = match rec.get("timeline") {
        Some(obs::json::Json::Arr(a)) => a.clone(),
        other => panic!("timeline not an array: {other:?}"),
    };
    let stages: Vec<&str> = timeline
        .iter()
        .filter_map(|e| e.get("stage").and_then(|s| s.as_str()))
        .collect();
    for want in [
        "accept",
        "enqueue",
        "dequeue",
        "decision",
        "fsync_release",
        "reply_write",
    ] {
        assert!(
            stages.contains(&want),
            "timeline missing stage {want}: {stages:?}"
        );
    }
    // ... and offsets are monotone from accept.
    let offsets: Vec<f64> = timeline
        .iter()
        .filter_map(|e| e.get("at_us").and_then(|o| o.as_num()))
        .collect();
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "non-monotone timeline: {offsets:?}"
    );

    // The fast request was NOT captured.
    assert!(
        !records
            .iter()
            .any(|r| r.get("line").and_then(|l| l.as_str()) == Some(fast_line)),
        "fast request wrongly captured"
    );

    // The `slow` protocol command reports the same capture. Its reply is
    // multi-line and self-delimiting: `slow K`, then K JSON lines.
    let head = c.roundtrip("slow").expect("slow command");
    let k: usize = head
        .strip_prefix("slow ")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("bad slow head line: {head}"));
    assert!(
        k >= 1,
        "slow command reports an empty ring despite the capture"
    );
    let mut dump = String::new();
    for _ in 0..k {
        dump.push_str(&c.recv_line().expect("slow record line"));
        dump.push('\n');
    }
    assert!(
        dump.contains(marker),
        "slow command misses the stalled line: {dump}"
    );

    drop(c);
    server.shutdown();
}

#[test]
fn errored_request_is_captured_regardless_of_latency() {
    let server = admin_server(|cfg| {
        // Latency capture effectively off: only shed/error outcomes remain.
        cfg.slow_threshold = Duration::from_secs(3600);
    });
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let bad_line = "definitely-not-a-command 424242";
    let reply = c.roundtrip(bad_line).expect("error roundtrip");
    assert!(reply.starts_with("error"), "unexpected reply: {reply}");

    let (_, _, body) = http_get(server.admin_addr().unwrap(), "/debug/slow");
    let v = obs::json::parse(&body).expect("valid JSON");
    let records = match v.get("records") {
        Some(obs::json::Json::Arr(a)) => a.clone(),
        other => panic!("records not an array: {other:?}"),
    };
    let rec = records
        .iter()
        .rev()
        .find(|r| r.get("line").and_then(|l| l.as_str()) == Some(bad_line))
        .unwrap_or_else(|| panic!("errored request not captured: {body}"));
    assert_eq!(rec.get("outcome").and_then(|o| o.as_str()), Some("error"));

    drop(c);
    server.shutdown();
}

#[test]
fn admin_plane_drains_with_the_server() {
    let server = admin_server(|_| {});
    let admin = server.admin_addr().unwrap();
    let (code, _, _) = http_get(admin, "/healthz");
    assert_eq!(code, 200);
    server.shutdown();
    // After drain the listener is gone: connect must fail (or be refused
    // with an immediate EOF if the OS races the port teardown).
    match TcpStream::connect(admin) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
            let mut buf = Vec::new();
            let n = s.read_to_end(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "admin plane still serving after shutdown: {buf:?}");
        }
    }
}
