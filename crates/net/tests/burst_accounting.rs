//! Per-burst accounting over TCP: a pipelined burst moves every per-line
//! count by exactly its number of lines, although the server stamps,
//! records and counts it once per burst, pass or sweep.
//!
//! Two bursts, each between two `/metrics` scrapes of the admin plane
//! (which does not go through the command pipeline, so the scrapes add no
//! lines of their own):
//! - 64 `submit` lines on a volatile server;
//! - a mixed `advance`/`query`/`submit`/`release` burst on a WAL server,
//!   whose mutating replies wait for an fsync.
//!
//! Each burst must raise the count of every `req_stage_*` histogram and of
//! `net_request_us`, and `net_lines_total` and `net_replies_total`, by its
//! line count, and its stage sums must add up to its `net_request_us` sum
//! within the µs truncation of three stages per line.
//!
//! The metrics registry is process-global, so this file holds one test and
//! runs the two servers one after the other.

use coalloc_net::{Client, NetConfig, Server, WalOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const STAGES: [&str; 3] = [
    "req_stage_queue_wait",
    "req_stage_sched",
    "req_stage_wal_stall",
];

/// The admin plane's `/metrics` body.
fn scrape(admin: SocketAddr) -> String {
    let mut s = TcpStream::connect(admin).expect("connect admin");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write request");
    let mut text = String::new();
    s.read_to_string(&mut text).expect("read response");
    let (_, body) = text.split_once("\r\n\r\n").expect("HTTP response");
    body.to_string()
}

/// One sample of a scrape; a family not registered yet reads 0.
fn value(expo: &str, name: &str) -> u64 {
    expo.lines()
        .find_map(|l| {
            let (series, v) = l.split_once(' ')?;
            (series == name).then(|| v.trim().parse().expect("integer sample"))
        })
        .unwrap_or(0)
}

/// A scrape taken once every answered line's writeback is recorded: the
/// I/O loop records it just after the reply write, so a client can read
/// its reply a moment before the count moves.
fn settled_scrape(admin: SocketAddr) -> String {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let expo = scrape(admin);
        let written = value(&expo, "req_stage_writeback_count");
        if written >= value(&expo, "net_request_us_count") || Instant::now() > deadline {
            return expo;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Send `lines` as one write, read every line's reply, and return the
/// scrapes taken before and after.
fn burst(server: &Server, client: &mut Client, lines: &[String]) -> (String, String) {
    let admin = server.admin_addr().expect("admin plane");
    let before = settled_scrape(admin);
    let mut script = lines.join("\n");
    script.push('\n');
    client
        .stream()
        .write_all(script.as_bytes())
        .expect("send burst");
    for line in lines {
        let reply = client.recv_line().expect("reply");
        assert!(!reply.starts_with("error"), "{line} -> {reply}");
        // A `query` reply is `free N` and N detail lines.
        let details = reply
            .strip_prefix("free ")
            .map_or(0, |n| n.parse().unwrap());
        for _ in 0..details {
            client.recv_line().expect("query detail line");
        }
    }
    (before, settled_scrape(admin))
}

/// Every per-line count moved by exactly `lines`, and the stage sums add
/// up to the `net_request_us` sum.
fn check(what: &str, before: &str, after: &str, lines: u64) {
    let delta = |name: &str| value(after, name) - value(before, name);
    for family in STAGES
        .iter()
        .chain(&["req_stage_writeback", "net_request_us"])
    {
        assert_eq!(delta(&format!("{family}_count")), lines, "{what}: {family}");
    }
    for counter in ["net_lines_total", "net_replies_total"] {
        assert_eq!(delta(counter), lines, "{what}: {counter}");
    }
    let stages: u64 = STAGES.iter().map(|f| delta(&format!("{f}_sum"))).sum();
    let request = delta("net_request_us_sum");
    assert!(
        stages <= request && request <= stages + 3 * lines,
        "{what}: stage sums {stages} µs against net_request_us sum {request} µs"
    );
}

fn serve(wal: Option<WalOptions>) -> (Server, Client) {
    let server = Server::bind(NetConfig {
        admin_addr: Some("127.0.0.1:0".to_string()),
        wal,
        ..NetConfig::default()
    })
    .expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_timeout(Duration::from_secs(10)).unwrap();
    (server, client)
}

#[test]
fn a_burst_moves_every_per_line_count_by_its_lines() {
    // A 64-line submit burst on a volatile server.
    let (server, mut client) = serve(None);
    assert_eq!(
        client.roundtrip("init 8 10 4000 10").unwrap(),
        "ok 8 servers"
    );
    let submits: Vec<String> = (0..64)
        .map(|i| format!("submit 0 {} 20 {}", i * 10, 1 + i % 8))
        .collect();
    let (before, after) = burst(&server, &mut client, &submits);
    check("volatile submit burst", &before, &after, 64);
    drop(client);
    server.shutdown();

    // A mixed burst on a WAL server: read-only replies leave at once,
    // mutating ones after the fsync that covers them.
    let dir = std::env::temp_dir().join(format!("coalloc-net-burst-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (server, mut client) = serve(Some(WalOptions::new(&dir)));
    assert_eq!(
        client.roundtrip("init 8 10 4000 10").unwrap(),
        "ok 8 servers"
    );
    for i in 0..4 {
        let reply = client
            .roundtrip(&format!("submit 0 {} 50 4", i * 100))
            .unwrap();
        assert!(reply.starts_with("granted"), "{reply}");
    }
    let mixed: Vec<String> = [
        "advance 10",
        "query 10 60",
        "submit 10 20 30 2",
        "release 0",
        "query 0 400",
        "submit 10 100 40 3",
        "advance 20",
        "release 1",
        "submit 20 500 10 8",
        "query 20 600",
    ]
    .map(String::from)
    .to_vec();
    let (before, after) = burst(&server, &mut client, &mixed);
    check("WAL mixed burst", &before, &after, mixed.len() as u64);
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
