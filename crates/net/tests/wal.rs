//! Durability tests for the WAL-backed server: graceful drain fsyncs the
//! tail and a restart over the same log directory is lossless; a torn log
//! tail is repaired; a sharded server snapshots and truncates its log like
//! any other and restarts at any shard count; and a recovered server's
//! future decisions are byte-identical to an uncrashed twin's.
//! (The `kill -9` half of the story lives in `tests/crash_recovery.rs`,
//! which crashes the real `coallocd` binary.)

use coalloc_net::{Client, NetConfig, Server, Session, WalOptions};
use std::path::PathBuf;
use std::time::Duration;

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coalloc-net-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_cfg(dir: &PathBuf, shards: u32) -> NetConfig {
    NetConfig {
        shards,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        wal: Some(WalOptions::new(dir)),
        ..NetConfig::default()
    }
}

/// Run `script` against a fresh WAL-backed server, return its reply bytes.
fn serve_script(dir: &PathBuf, shards: u32, script: &str) -> String {
    serve_script_cfg(wal_cfg(dir, shards), script)
}

fn serve_script_cfg(cfg: NetConfig, script: &str) -> String {
    let server = Server::bind(cfg).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    let replies = client.exchange_script(script).unwrap();
    server.shutdown();
    replies
}

#[test]
fn drain_then_restart_is_lossless() {
    let dir = wal_dir("drain");
    let script = "init 4 10 400 10\n\
                  submit 0 0 50 2\n\
                  submit 0 0 80 1\n\
                  attrs 1 3\n\
                  advance 20\n\
                  exit\n";
    let first = serve_script(&dir, 1, script);
    assert!(first.contains("granted job=0"), "{first}");

    // The restarted server recovered every acknowledged command: the state
    // probes answer exactly as the uncrashed session would, and new job ids
    // continue the sequence instead of colliding.
    let probe = "stats\nquery 0 50\nsubmit 0 20 30 1\nexit\n";
    let restarted = serve_script(&dir, 1, probe);
    let mut twin = Session::new(1);
    twin.run_script(script);
    assert_eq!(restarted, twin.run_script(probe));
    assert!(restarted.contains("granted job=2"), "{restarted}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replies_match_the_volatile_server_byte_for_byte() {
    let dir = wal_dir("identical");
    let script = "init 8 10 400 10\n\
                  submit 0 0 50 4\n\
                  deadline 0 0 20 2 100\n\
                  submit 0 0 500 1\n\
                  query 0 50\n\
                  release 0\n\
                  bogus\n\
                  advance 20\n\
                  check\n\
                  exit\n";
    let with_wal = serve_script(&dir, 1, script);
    assert_eq!(with_wal, Session::new(1).run_script(script));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_repaired_on_restart() {
    let dir = wal_dir("torn");
    let script = "init 2 10 200 10\nsubmit 0 0 40 1\nexit\n";
    serve_script(&dir, 1, script);

    // Simulate a crash mid-write: garbage after the last synced record.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("seg-"))
        .expect("segment file");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x17, 0xAB, 0xFF]);
    std::fs::write(&seg, &bytes).unwrap();

    let restarted = serve_script(&dir, 1, "stats\nsubmit 0 0 40 1\nexit\n");
    let mut twin = Session::new(1);
    twin.run_script(script);
    assert_eq!(restarted, twin.run_script("stats\nsubmit 0 0 40 1\nexit\n"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_log_replays_from_genesis_at_its_own_k() {
    let dir = wal_dir("sharded");
    let script = "init 8 10 400 10\n\
                  submit 0 0 50 4\n\
                  submit 0 100 60 8\n\
                  release 0\n\
                  exit\n";
    serve_script(&dir, 2, script);
    // Too few records for a snapshot: recovery replays the whole history
    // (including `init`, whose logged reply names K = 2) and lands on the
    // same state.
    let probe = "stats\nsubmit 0 0 50 6\nexit\n";
    let restarted = serve_script(&dir, 2, probe);
    let mut twin = Session::new(2);
    twin.run_script(script);
    assert_eq!(restarted, twin.run_script(probe));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--shards 2 --wal-dir` snapshots on the same cadence as K = 1, truncates
/// its log, and — the image does not mention K — the directory restarts at
/// K = 1 and at K = 4 in the same state, ready for pipelined traffic.
#[test]
fn sharded_server_snapshots_truncates_and_restarts_at_any_k() {
    let dir = wal_dir("sharded-snap");
    let cfg = |shards: u32| {
        let mut opts = WalOptions::new(&dir);
        opts.snapshot_every = 8;
        NetConfig {
            wal: Some(opts),
            ..wal_cfg(&dir, shards)
        }
    };
    let counters = || {
        ["wal_snapshot_total", "wal_segments_removed_total"]
            .map(|name| obs::metrics::counter(name).get())
    };
    let snap_path = std::env::temp_dir().join(format!(
        "coalloc-net-wal-sharded-snap-{}.txt",
        std::process::id()
    ));
    let state = format!("check\nsnapshot {}\nexit\n", snap_path.display());
    let state_of = |shards: u32| {
        let replies = serve_script_cfg(cfg(shards), &state);
        assert!(replies.starts_with("ok\nok wrote"), "k={shards}: {replies}");
        std::fs::read_to_string(&snap_path).unwrap()
    };

    let mut script = String::from("init 6 10 4000 10\nattrs 4 3\n");
    for i in 0..40 {
        script.push_str(&format!("submit 0 {} 20 {}\n", i * 10, 1 + i % 3));
        if i % 5 == 4 {
            script.push_str(&format!("release {}\n", i - 2));
        }
    }
    script.push_str(&format!("constrained 0 0 20 1 3\n{state}"));
    let before = counters();
    let replies = serve_script_cfg(cfg(2), &script);
    let after = counters();
    assert!(replies.contains("\nok wrote "), "{replies}");
    // (The counters are process-wide; the directory is this test's own.)
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_str().unwrap().starts_with("snap-")),
        "snapshot_every=8 over ~50 records must have installed a snapshot at K = 2"
    );
    assert!(
        after[0] > before[0],
        "no snapshot installed: {before:?} -> {after:?}"
    );
    assert!(
        after[1] > before[1],
        "no segment removed: {before:?} -> {after:?}"
    );
    let written = std::fs::read_to_string(&snap_path).unwrap();
    let mut twin = Session::new(1);
    twin.run_script(&script);
    assert_eq!(
        written,
        twin.snapshot_text().unwrap(),
        "K = 2 state differs from K = 1's"
    );

    for shards in [1u32, 4, 2] {
        assert_eq!(state_of(shards), written, "restart at K = {shards}");
    }
    // And it serves on: a 32-line pipelined burst, decided like the twin's.
    let burst: String = (0..32)
        .map(|i| format!("submit 0 {} 30 2\n", 400 + i * 10))
        .chain(["check\n".to_string(), "exit\n".to_string()])
        .collect();
    assert_eq!(serve_script_cfg(cfg(4), &burst), twin.run_script(&burst));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&snap_path);
}

/// A server whose clock ran more than 2^21 slots past `init` (two legal
/// `advance`s) installs snapshots its own recovery accepts: the restart
/// writes the same snapshot text as before it.
#[test]
fn far_clock_snapshot_base_restarts() {
    let dir = wal_dir("far-clock");
    let mut opts = WalOptions::new(&dir);
    opts.snapshot_every = 8;
    let cfg = NetConfig {
        wal: Some(opts),
        ..wal_cfg(&dir, 1)
    };
    let snap_path = std::env::temp_dir().join(format!(
        "coalloc-net-wal-far-clock-{}.txt",
        std::process::id()
    ));
    let snapshot = format!("snapshot {}\nexit\n", snap_path.display());
    let mut script = String::from("init 4 10 200 10\nadvance 20000000\nadvance 25000000\n");
    for i in 0..12 {
        script.push_str(&format!("submit 25000000 {} 20 1\n", 25_000_000 + i * 10));
    }
    script.push_str(&snapshot);
    let replies = serve_script_cfg(cfg.clone(), &script);
    assert!(replies.contains("\nok wrote "), "{replies}");
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_str().unwrap().starts_with("snap-")),
        "snapshot_every=8 over 16 records must have installed a snapshot"
    );
    let before = std::fs::read_to_string(&snap_path).unwrap();
    let restarted = serve_script_cfg(cfg, &format!("check\n{snapshot}"));
    assert!(restarted.starts_with("ok\nok wrote"), "{restarted}");
    assert_eq!(std::fs::read_to_string(&snap_path).unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&snap_path);
}

#[test]
fn snapshot_installs_truncate_replay_history() {
    let dir = wal_dir("snapshot");
    let mut opts = WalOptions::new(&dir);
    opts.snapshot_every = 8; // force frequent snapshot installs
    let cfg = NetConfig {
        wal: Some(opts),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..NetConfig::default()
    };
    let mut script = String::from("init 4 10 4000 10\n");
    for i in 0..40 {
        script.push_str(&format!("submit 0 {} 20 1\n", i * 20));
    }
    script.push_str("exit\n");
    let server = Server::bind(cfg.clone()).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    client.exchange_script(&script).unwrap();
    server.shutdown();
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_str().unwrap().starts_with("snap-")),
        "snapshot_every=8 over 41 records must have installed a snapshot"
    );
    // Restart recovers from snapshot + tail and continues identically.
    // (`stats` is not probed: op *counters* are observability, not
    // commitments, and snapshots deliberately do not persist them.)
    let probe = "check\nquery 700 760\nsubmit 0 0 20 4\nexit\n";
    let restarted = serve_script(&dir, 1, probe);
    let mut twin = Session::new(1);
    twin.run_script(&script);
    assert_eq!(restarted, twin.run_script(probe));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_through_wal_restarts_from_the_loaded_state() {
    let dir = wal_dir("load");
    let snap_path = std::env::temp_dir().join(format!(
        "coalloc-net-wal-load-snap-{}.txt",
        std::process::id()
    ));
    let p = snap_path.to_str().unwrap();
    // Build some state, snapshot it to a file, wipe, then load it back —
    // all over a WAL-backed server.
    let script = format!(
        "init 4 10 400 10\nsubmit 0 0 50 2\nsnapshot {p}\ninit 2 10 100 10\nload {p}\nsubmit 0 60 30 1\nexit\n"
    );
    let replies = serve_script(&dir, 1, &script);
    assert!(replies.contains("ok 4 servers restored"), "{replies}");

    // Delete the external file: recovery must NOT need it (`load` is
    // persisted as a WAL snapshot, not as a replayable command).
    std::fs::remove_file(&snap_path).unwrap();
    let probe = "check\nquery 0 50\nsubmit 0 100 30 1\nexit\n";
    let restarted = serve_script(&dir, 1, probe);
    // The twin cannot re-run snapshot/load (file is gone); compare against
    // a session that went through the same logical state: init 4, submit,
    // (snapshot + init 2 + load = back to post-submit state), submit.
    let mut logical = Session::new(1);
    logical.run_script("init 4 10 400 10\nsubmit 0 0 50 2\nsubmit 0 60 30 1\nexit\n");
    assert_eq!(restarted, logical.run_script(probe));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interval_flush_mode_also_roundtrips() {
    let dir = wal_dir("interval");
    let mut opts = WalOptions::new(&dir);
    opts.flush_interval = Duration::from_millis(5); // bounded group commit
    let cfg = NetConfig {
        wal: Some(opts),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..NetConfig::default()
    };
    let script = "init 4 10 400 10\nsubmit 0 0 50 2\nrelease 0\nexit\n";
    let server = Server::bind(cfg).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    let replies = client.exchange_script(script).unwrap();
    server.shutdown();
    assert_eq!(replies, Session::new(1).run_script(script));
    let restarted = serve_script(&dir, 1, "stats\nexit\n");
    let mut twin = Session::new(1);
    twin.run_script(script);
    assert_eq!(restarted, twin.run_script("stats\nexit\n"));
    let _ = std::fs::remove_dir_all(&dir);
}
