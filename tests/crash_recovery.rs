//! Chaos test for the write-ahead log (ISSUE 6 acceptance): `coallocd
//! serve --wal-dir` survives `kill -9` with **zero lost acknowledged
//! grants** and no resurrected unacknowledged ones.
//!
//! The harness drives the *real* binary over TCP while mirroring every
//! acknowledged command into an in-process twin [`Session`] (asserting the
//! replies match byte-for-byte as it goes — the twin IS the uncrashed
//! reference). At a random point it sends a small batch of commands
//! *without reading their replies* (the in-doubt window) and SIGKILLs the
//! process. The restarted server's recovered state must equal the twin
//! after applying some *prefix* of the in-doubt batch: anything less lost
//! an acknowledged command, anything else invented state. 20 random kill
//! points, fixed seed (`COALLOC_CHAOS_SEED` overrides), with the daemon at
//! `--shards` 1 and at `--shards` 4 against the same single-scheduler twin:
//! the state image does not depend on the shard count, so text equality
//! across K is part of what is proved.

use coalloc::net::{Client, Session};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Deterministic traffic source (PCG-style LCG; no external deps).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Daemon {
    child: Child,
    addr: String,
}

fn spawn_daemon(wal_dir: &Path, shards: u32) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_coallocd"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &shards.to_string(),
            "--wal-dir",
            wal_dir.to_str().unwrap(),
            // Small enough that the 20 iterations exercise snapshot installs
            // and segment truncation, not just tail replay.
            "--wal-snapshot-every",
            "32",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn coallocd serve --wal-dir");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("no banner — recovery refused? got: {banner:?}"))
        .to_string();
    Daemon { child, addr }
}

impl Daemon {
    /// The crash under test: SIGKILL, no drain, no fsync, no goodbye.
    fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
    /// Graceful shutdown (close stdin, wait for a clean exit).
    fn graceful(mut self) {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("wait for coallocd");
        assert!(status.success(), "graceful shutdown must exit 0");
    }
}

fn connect(d: &Daemon) -> Client {
    let mut c = Client::connect(d.addr.as_str()).expect("connect to coallocd");
    c.set_timeout(Duration::from_secs(10)).unwrap();
    c
}

/// Ask the server for its canonical state (after a `check`).
fn server_state(c: &mut Client, snap_path: &str) -> String {
    assert_eq!(
        c.roundtrip("check").unwrap(),
        "ok",
        "recovered state is inconsistent"
    );
    let r = c.roundtrip(&format!("snapshot {snap_path}")).unwrap();
    assert!(r.starts_with("ok wrote"), "{r}");
    std::fs::read_to_string(snap_path).expect("read server snapshot")
}

fn twin_reply(twin: &mut Session, cmd: &str) -> String {
    match twin.exec(cmd) {
        Ok(r) => r,
        Err(e) => format!("error: {e}"),
    }
}

/// One random single-line command. Multi-line replies (query/help/metrics)
/// are excluded so `roundtrip` framing stays one-line-per-command.
fn gen_cmd(rng: &mut Lcg, now: i64, live: &[u64]) -> String {
    match rng.below(10) {
        0..=5 => {
            let s = now + (rng.below(60) as i64) * 10;
            let l = 10 + (rng.below(6) as i64) * 10;
            let n = 1 + rng.below(5);
            format!("submit 0 {s} {l} {n}")
        }
        6 | 7 => {
            let job = if live.is_empty() || rng.below(4) == 0 {
                rng.below(50) // often unknown: error replies must match too
            } else {
                live[rng.below(live.len() as u64) as usize]
            };
            format!("release {job}")
        }
        8 => format!("advance {}", now + 10 * (1 + rng.below(3) as i64)),
        _ => "check".to_string(),
    }
}

/// Rebuild the trackers (clock, live job ids) from a canonical snapshot.
fn track_from_snapshot(state: &str, now: &mut i64, live: &mut Vec<u64>) {
    live.clear();
    for line in state.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["clock", _origin, n] => *now = n.parse().unwrap(),
            ["res", job, ..] => {
                let j: u64 = job.parse().unwrap();
                if !live.contains(&j) {
                    live.push(j);
                }
            }
            _ => {}
        }
    }
}

#[test]
fn kill9_loses_no_acknowledged_grants() {
    let seed: u64 = std::env::var("COALLOC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0A1_10C8);
    for shards in [1, 4] {
        kill9_rounds(seed, shards);
    }
}

fn kill9_rounds(seed: u64, shards: u32) {
    let mut rng = Lcg(seed);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("coalloc-chaos-{}-k{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snap_file =
        std::env::temp_dir().join(format!("coalloc-chaos-snap-{}.txt", std::process::id()));
    let snap_path = snap_file.to_str().unwrap().to_string();

    let mut twin = Session::new(1);
    let mut now: i64 = 0;
    let mut live: Vec<u64> = Vec::new();
    let mut in_doubt: Vec<String> = Vec::new();

    const KILLS: usize = 20;
    for iteration in 0..=KILLS {
        let daemon = spawn_daemon(&dir, shards);
        let mut client = connect(&daemon);

        if iteration == 0 {
            let init = "init 8 10 2000 10";
            let banner = client.roundtrip(init).unwrap();
            let banner = banner
                .strip_suffix(&format!(" over {shards} shards"))
                .unwrap_or(&banner);
            assert_eq!(banner, twin_reply(&mut twin, init));
        } else {
            // === Verify the recovery ===
            // The recovered state must equal the twin after some prefix of
            // the in-doubt batch: prefix semantics because the scheduler
            // thread logs in execution order, so the durable commands are
            // exactly the first k of the batch for some k.
            let recovered = server_state(&mut client, &snap_path);
            let mut candidates = vec![twin.snapshot_text().unwrap()];
            let mut matched = candidates[0] == recovered;
            let mut prefix = 0;
            for (k, cmd) in in_doubt.clone().iter().enumerate() {
                let _ = twin_reply(&mut twin, cmd);
                let snap = twin.snapshot_text().unwrap();
                if !matched && snap == recovered {
                    matched = true;
                    prefix = k + 1;
                }
                candidates.push(snap);
            }
            assert!(
                matched,
                "iteration {iteration} (seed {seed:#x}, --shards {shards}): recovered state matches no prefix \
                 of the {} in-doubt commands — an acknowledged command was lost or an \
                 unacknowledged one was invented.\nin-doubt: {:?}\nrecovered:\n{}\n\
                 candidate k=0 (no in-doubt applied):\n{}\ncandidate k=max:\n{}",
                in_doubt.len(),
                in_doubt,
                recovered,
                candidates[0],
                candidates[candidates.len() - 1]
            );
            let _ = prefix; // which prefix survived is informational only
                            // Re-sync the twin to exactly the recovered state and trackers.
            twin.restore(&recovered).unwrap();
            track_from_snapshot(&recovered, &mut now, &mut live);
        }

        if iteration == KILLS {
            // === Final pass: probe decisions, then drain-then-restart ===
            for _ in 0..10 {
                let cmd = gen_cmd(&mut rng, now, &live);
                let got = client.roundtrip(&cmd).unwrap();
                assert_eq!(
                    got,
                    twin_reply(&mut twin, cmd.as_str()),
                    "final probe {cmd:?}"
                );
            }
            let before_drain = server_state(&mut client, &snap_path);
            drop(client);
            daemon.graceful();
            // Graceful drain fsynced everything: a restart is lossless.
            let daemon = spawn_daemon(&dir, shards);
            let mut client = connect(&daemon);
            let after = server_state(&mut client, &snap_path);
            assert_eq!(after, before_drain, "drain-then-restart must be lossless");
            drop(client);
            daemon.graceful();
            break;
        }

        // === Acknowledged traffic, mirrored into the twin ===
        let ops = 5 + rng.below(25);
        for _ in 0..ops {
            let cmd = gen_cmd(&mut rng, now, &live);
            let got = client.roundtrip(&cmd).unwrap();
            let want = twin_reply(&mut twin, &cmd);
            if got != want {
                let server = server_state(&mut client, &snap_path);
                panic!(
                    "iteration {iteration}: live divergence on {cmd:?} (seed {seed:#x}, --shards {shards})\n  \
                     server: {got}\n  twin:   {want}\nserver state:\n{server}\ntwin state:\n{}",
                    twin.snapshot_text().unwrap()
                );
            }
            if let Some(rest) = got.strip_prefix("granted job=") {
                let id: u64 = rest.split(' ').next().unwrap().parse().unwrap();
                live.push(id);
            } else if got == "ok" && cmd.starts_with("release ") {
                let id: u64 = cmd["release ".len()..].parse().unwrap();
                live.retain(|&j| j != id);
            } else if let Some(t) = got.strip_prefix("ok now=") {
                now = t.parse().unwrap();
            }
        }

        // === The in-doubt window, then SIGKILL ===
        in_doubt.clear();
        for _ in 0..rng.below(4) {
            let cmd = gen_cmd(&mut rng, now, &live);
            client.send(&cmd).unwrap();
            in_doubt.push(cmd);
        }
        if rng.below(2) == 0 {
            // Vary the kill point relative to the in-flight batch.
            std::thread::sleep(Duration::from_millis(rng.below(4)));
        }
        daemon.kill9();
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&snap_file);
}
