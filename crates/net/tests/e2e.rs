//! End-to-end tests: server + clients in-process over localhost.
//!
//! The central claim: a TCP session's reply stream is **byte-identical** to
//! the same script interpreted on stdin (over generated streams and every
//! shard count, `spine.rs` checks it too) — plus snapshot/load round-trips
//! through a socket, scheduler-state invariants surviving client death,
//! admission control and graceful drain.

use coalloc_net::{Client, NetConfig, Server, Session, BUSY_REPLY, PROTOCOL_VERSION};
use std::io::Write;
use std::time::Duration;

fn test_cfg(shards: u32) -> NetConfig {
    NetConfig {
        shards,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..NetConfig::default()
    }
}

/// The reference output: the same interpreter the stdin loop runs.
fn stdin_reference(script: &str, shards: u32) -> String {
    Session::new(shards).run_script(script)
}

#[test]
fn tcp_reply_stream_is_byte_identical_to_stdin_plain() {
    let script = "init 8 10 400 10\n\
                  submit 0 0 50 4\n\
                  submit 0 100 60 8\n\
                  deadline 0 0 20 2 100\n\
                  submit 0 0 500 1\n\
                  query 0 50\n\
                  attrs 2 5\n\
                  constrained 0 150 30 1 5\n\
                  release 0\n\
                  # a comment\n\
                  \n\
                  bogus command here\n\
                  advance 20\n\
                  stats\n\
                  check\n\
                  version\n\
                  help\n\
                  exit\n";
    let server = Server::bind(test_cfg(1)).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    let over_tcp = client.exchange_script(script).unwrap();
    assert_eq!(over_tcp, stdin_reference(script, 1));
    server.shutdown();
}

#[test]
fn tcp_reply_stream_is_byte_identical_to_stdin_sharded() {
    let script = "init 8 10 400 10\n\
                  submit 0 0 50 4\n\
                  submit 0 100 60 8\n\
                  deadline 0 0 20 2 100\n\
                  submit 0 0 500 1\n\
                  query 0 50\n\
                  release 0\n\
                  submit 0 0 50 6\n\
                  advance 20\n\
                  stats\n\
                  check\n\
                  exit\n";
    let server = Server::bind(test_cfg(4)).unwrap();
    let client = Client::connect(server.local_addr()).unwrap();
    let over_tcp = client.exchange_script(script).unwrap();
    let reference = stdin_reference(script, 4);
    assert_eq!(over_tcp, reference);
    assert!(reference.starts_with("ok 8 servers over 4 shards"));
    server.shutdown();
}

#[test]
fn snapshot_load_roundtrips_through_a_tcp_session() {
    let path = std::env::temp_dir().join("coalloc-net-e2e-snap.txt");
    let p = path.to_str().unwrap();
    let server = Server::bind(test_cfg(1)).unwrap();

    let mut c1 = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c1.roundtrip("init 4 10 200 10").unwrap(), "ok 4 servers");
    assert!(c1
        .roundtrip("submit 0 0 50 2")
        .unwrap()
        .starts_with("granted job=0"));
    assert_eq!(
        c1.roundtrip(&format!("snapshot {p}")).unwrap(),
        format!("ok wrote {p}")
    );
    drop(c1);

    // A *different* connection wipes and restores the shared scheduler.
    let mut c2 = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c2.roundtrip("init 9").unwrap(), "ok 9 servers");
    assert_eq!(
        c2.roundtrip(&format!("load {p}")).unwrap(),
        "ok 4 servers restored"
    );
    // The restored state still has job 0's reservation: two servers busy.
    let free = c2.roundtrip("query 0 50").unwrap();
    assert_eq!(free, "free 2", "first line of the query reply");
    for _ in 0..2 {
        assert!(c2.recv_line().unwrap().trim_start().starts_with("server="));
    }
    assert_eq!(c2.roundtrip("release 0").unwrap(), "ok");
    assert_eq!(c2.roundtrip("check").unwrap(), "ok");
    drop(c2);
    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn killed_client_mid_submit_leaves_invariants_intact() {
    let server = Server::bind(test_cfg(1)).unwrap();
    let mut setup = Client::connect(server.local_addr()).unwrap();
    assert_eq!(setup.roundtrip("init 4 10 400 10").unwrap(), "ok 4 servers");
    assert!(setup
        .roundtrip("submit 0 0 50 1")
        .unwrap()
        .starts_with("granted job=0"));

    // Case 1: the client dies with half a command on the wire. The partial
    // line must be discarded, not executed.
    let mut half = Client::connect(server.local_addr()).unwrap();
    half.stream().write_all(b"submit 0 0 50").unwrap(); // no newline
    drop(half); // RST/TCP FIN mid-command

    // Case 2: the client dies after the full command but before reading
    // the reply. The command executes; only the reply is lost.
    let mut gone = Client::connect(server.local_addr()).unwrap();
    gone.send("submit 0 0 50 2").unwrap();
    drop(gone);

    // Give the workers a beat to observe both disconnects.
    std::thread::sleep(Duration::from_millis(100));

    // The scheduler saw exactly two full submissions (jobs 0 and 1): the
    // partial line vanished, the orphaned grant holds resources, and the
    // internal indexes are consistent.
    let mut probe = Client::connect(server.local_addr()).unwrap();
    assert_eq!(probe.roundtrip("check").unwrap(), "ok");
    let free = probe.roundtrip("query 0 50").unwrap();
    assert_eq!(
        free, "free 1",
        "4 servers minus job 0 (1) minus orphan job 1 (2)"
    );
    assert!(probe
        .recv_line()
        .unwrap()
        .trim_start()
        .starts_with("server="));
    // The orphan is a real job: releasing it restores conservation.
    assert_eq!(probe.roundtrip("release 1").unwrap(), "ok");
    let free = probe.roundtrip("query 0 50").unwrap();
    assert_eq!(free, "free 3");
    for _ in 0..3 {
        probe.recv_line().unwrap();
    }
    assert_eq!(probe.roundtrip("check").unwrap(), "ok");
    drop(probe);
    server.shutdown();
}

#[test]
fn concurrent_clients_serialize_onto_one_scheduler() {
    let server = Server::bind(test_cfg(1)).unwrap();
    let mut setup = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        setup.roundtrip("init 16 10 4000 10").unwrap(),
        "ok 16 servers"
    );

    let addr = server.local_addr();
    let clients = 8;
    let per_client = 25;
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let (mut granted, mut rejected) = (0u32, 0u32);
                for i in 0..per_client {
                    let line = format!("submit 0 {} 40 2", (i % 5) * 50);
                    match c.roundtrip(&line).unwrap() {
                        r if r.starts_with("granted") => granted += 1,
                        r if r.starts_with("rejected") => rejected += 1,
                        other => panic!("unexpected reply: {other}"),
                    }
                }
                (granted, rejected)
            })
        })
        .collect();
    let mut total_granted = 0u32;
    let mut total_rejected = 0u32;
    for h in handles {
        let (g, r) = h.join().unwrap();
        total_granted += g;
        total_rejected += r;
    }
    assert_eq!(total_granted + total_rejected, clients * per_client);
    assert!(total_granted > 0, "some submissions must fit");

    // Every decision is visible and consistent on the shared scheduler.
    assert_eq!(setup.roundtrip("check").unwrap(), "ok");
    let stats = setup.roundtrip("stats").unwrap();
    assert!(stats.contains("ops="), "{stats}");
    drop(setup);
    server.shutdown();
}

#[test]
fn max_conns_overflow_sheds_with_busy() {
    // Admission bound of two: two held connections fill it, the third is
    // shed at accept with the busy reply and a close; once a held one
    // leaves, its slot is admitted again.
    let cfg = NetConfig {
        max_conns: 2,
        ..test_cfg(1)
    };
    let server = Server::bind(cfg).unwrap();
    let mut held1 = Client::connect(server.local_addr()).unwrap();
    assert_eq!(held1.roundtrip("version").unwrap(), PROTOCOL_VERSION);
    let mut held2 = Client::connect(server.local_addr()).unwrap();
    assert_eq!(held2.roundtrip("version").unwrap(), PROTOCOL_VERSION);
    let mut shed = Client::connect(server.local_addr()).unwrap();
    assert_eq!(shed.recv_line().unwrap(), BUSY_REPLY);
    assert_eq!(shed.recv_line().unwrap(), "", "shed connection is closed");
    // Releasing one admitted connection frees its slot (the close is
    // asynchronous: retry until the event loop reaps it).
    drop(held1);
    let mut admitted = None;
    for _ in 0..50 {
        let mut c = Client::connect(server.local_addr()).unwrap();
        match c.roundtrip("version") {
            Ok(r) if r == PROTOCOL_VERSION => {
                admitted = Some(c);
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(admitted.is_some(), "freed slot must admit a new connection");
    drop(held2);
    server.shutdown();
}

#[test]
fn command_queue_overflow_sheds_with_busy() {
    // Tiny command queue plus an artificial execution delay: while the
    // scheduler thread sleeps on connection 1's command and connection 2's
    // waits in the queue, connection 3's must be shed inline.
    let cfg = NetConfig {
        queue_depth: 1,
        exec_delay: Duration::from_millis(300),
        // Generous idle reaping: c3 sits quiet past the joins below.
        read_timeout: Duration::from_secs(5),
        ..test_cfg(1)
    };
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr();
    let t1 = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.roundtrip("version").unwrap()
    });
    std::thread::sleep(Duration::from_millis(80)); // job 1 now executing
    let t2 = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.roundtrip("version").unwrap()
    });
    std::thread::sleep(Duration::from_millis(80)); // job 2 now queued
    let mut c3 = Client::connect(addr).unwrap();
    assert_eq!(c3.roundtrip("version").unwrap(), BUSY_REPLY);
    assert_eq!(t1.join().unwrap(), PROTOCOL_VERSION);
    assert_eq!(t2.join().unwrap(), PROTOCOL_VERSION);
    // The shed connection stays usable: retrying later succeeds.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(c3.roundtrip("version").unwrap(), PROTOCOL_VERSION);
    drop(c3);
    server.shutdown();
}

#[test]
fn graceful_drain_answers_inflight_then_stops_accepting() {
    let cfg = NetConfig {
        exec_delay: Duration::from_millis(100),
        ..test_cfg(1)
    };
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr();
    let inflight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.roundtrip("version").unwrap()
    });
    std::thread::sleep(Duration::from_millis(30)); // command is in flight
    server.shutdown(); // must not drop the in-flight reply
    assert_eq!(inflight.join().unwrap(), PROTOCOL_VERSION);
    // New connections are refused or dead after drain.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            let reply = c.roundtrip("version").unwrap_or_default();
            assert_eq!(reply, "", "post-drain connection must yield nothing");
        }
    }
}
