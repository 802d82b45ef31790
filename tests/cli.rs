//! End-to-end tests of the `coallocd` binary: the stdin/stdout protocol
//! and the `serve` TCP mode (same interpreter, byte-identical replies —
//! see `docs/PROTOCOL.md`).

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

fn drive(script: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_coallocd"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn coallocd");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf8")
        .lines()
        .map(|l| l.to_string())
        .collect()
}

#[test]
fn full_session_over_the_wire() {
    let lines = drive(
        "init 4 900 86400 900\n\
         submit 0 0 3600 2\n\
         submit 0 7200 1800 4\n\
         query 3600 5400\n\
         advance 1800\n\
         stats\n\
         release 0\n\
         release 0\n\
         exit\n",
    );
    assert_eq!(lines[0], "ok 4 servers");
    assert!(lines[1].starts_with("granted job=0 start=0 end=3600"));
    assert!(lines[2].starts_with("granted job=1 start=7200"));
    assert!(lines[3].starts_with("free 4"), "{}", lines[3]);
    assert!(lines.iter().any(|l| l.starts_with("ok now=1800")));
    assert!(lines.iter().any(|l| l.contains("horizon_end=")));
    // First release succeeds, second reports unknown job.
    let releases: Vec<&String> = lines
        .iter()
        .filter(|l| l.as_str() == "ok" || l.starts_with("error unknown job"))
        .collect();
    assert!(releases.len() >= 2, "{lines:?}");
}

/// `coallocd serve` speaks the same protocol over TCP: spawn the real
/// binary on an ephemeral port, script it through a socket, and check the
/// reply stream matches what the same script produces on stdin.
#[test]
fn serve_mode_matches_stdin_session() {
    let script = "init 4 900 86400 900\n\
                  submit 0 0 3600 2\n\
                  query 0 3600\n\
                  stats\n\
                  release 0\n\
                  exit\n";
    let expected = drive(script);

    let mut child = Command::new(env!("CARGO_BIN_EXE_coallocd"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn coallocd serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();

    let mut sock = std::net::TcpStream::connect(&addr).expect("connect");
    sock.write_all(script.as_bytes()).expect("send script");
    sock.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut over_tcp = String::new();
    std::io::Read::read_to_string(&mut BufReader::new(sock), &mut over_tcp).expect("read replies");
    let got: Vec<String> = over_tcp.lines().map(|l| l.to_string()).collect();
    assert_eq!(got, expected, "TCP replies must match the stdin session");

    // Closing stdin is the shutdown signal; the server must drain and exit 0.
    drop(child.stdin.take());
    let status = child.wait().expect("wait");
    assert!(status.success());
}

/// `serve --admin-addr` prints a second banner line with the resolved
/// admin address, and the admin plane answers a real HTTP scrape while
/// the command port serves the protocol.
#[test]
fn serve_mode_admin_banner_and_scrape() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_coallocd"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--admin-addr",
            "127.0.0.1:0",
            "--slow-threshold-ms",
            "250",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn coallocd serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    assert!(banner.starts_with("listening on "), "{banner}");
    let mut admin_banner = String::new();
    stdout
        .read_line(&mut admin_banner)
        .expect("read admin banner");
    let admin = admin_banner
        .trim()
        .strip_prefix("admin on ")
        .unwrap_or_else(|| panic!("unexpected admin banner: {admin_banner}"))
        .to_string();

    let mut sock = std::net::TcpStream::connect(&admin).expect("connect admin");
    sock.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    std::io::Read::read_to_string(&mut BufReader::new(sock), &mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.ends_with("ok\n"), "{response}");

    drop(child.stdin.take());
    let status = child.wait().expect("wait");
    assert!(status.success());
}

#[test]
fn snapshot_survives_process_restart() {
    let path = std::env::temp_dir().join("coallocd-e2e-snap.txt");
    let p = path.to_str().unwrap();
    let first = drive(&format!(
        "init 2 10 200 10\nsubmit 0 0 80 2\nsnapshot {p}\nexit\n"
    ));
    assert!(first[1].starts_with("granted job=0"));
    // A brand-new process restores the schedule and sees the commitment.
    let second = drive(&format!("load {p}\nquery 0 80\nsubmit 0 0 40 1\nexit\n"));
    assert_eq!(second[0], "ok 2 servers restored");
    assert!(second[1].starts_with("free 0"), "{}", second[1]);
    assert!(second[2].contains("start=80"), "{}", second[2]);
    let _ = std::fs::remove_file(path);
}

/// Hostile geometry, clock moves, deadlines and start times on stdin: each
/// line gets a reply and the process exits 0 (`drive` asserts it) — no
/// abort in the allocator, no constructor panic, no hours-long ring
/// rotation, no start wrapped around into the search.
#[test]
fn hostile_lines_get_replies_and_a_clean_exit() {
    let lines = drive(
        "init 4000000000\n\
         init 4 1 900000000000 1\n\
         init 0\n\
         init 4 10 5 10\n\
         init 4 10 100 10\n\
         advance 9000000000000\n\
         deadline 0 0 10 1 -9223372036854775808\n\
         submit 0 9223372036854775807 10 1\n\
         submit 9223372036854775807 9223372036854775807 9223372036854775807 1\n\
         constrained 0 9223372036854775807 10 1 0\n\
         version\n\
         exit\n",
    );
    assert_eq!(lines.len(), 11, "{lines:?}");
    for l in lines[..4].iter().chain(&lines[5..6]) {
        assert!(l.starts_with("error: "), "{lines:?}");
    }
    assert_eq!(lines[4], "ok 4 servers");
    let late = &lines[6];
    assert!(
        late.starts_with("rejected") && late.contains("after 0 attempts"),
        "{late}"
    );
    for far in &lines[7..10] {
        assert_eq!(
            far,
            "rejected request does not fit before the horizon (t=100)"
        );
    }
    assert_eq!(lines[10], "coalloc/1.2");
}
