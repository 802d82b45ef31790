//! Pathological-client determinism: the event-driven front-end must keep
//! every reply stream byte-identical to the same script on stdin no matter
//! how adversarially the bytes arrive — interleaved partial-line writers,
//! a one-byte-per-tick trickler, and a 2048-connection open/close storm
//! (ISSUE 9 acceptance).

use coalloc_net::{Client, NetConfig, Server, Session, PROTOCOL_VERSION};
use std::io::{Read, Write};
use std::time::Duration;

fn cfg(shards: u32) -> NetConfig {
    NetConfig {
        shards,
        // Generous enough that deliberately slow writers are never reaped
        // mid-line, short enough that a hung test still fails fast.
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..NetConfig::default()
    }
}

/// The reference output: the same interpreter the stdin loop runs.
fn stdin_reference(script: &str, shards: u32) -> String {
    Session::new(shards).run_script(script)
}

/// Read a connection's whole reply stream until the server closes it.
fn read_to_eof(c: &mut Client) -> String {
    let mut out = String::new();
    c.stream().read_to_string(&mut out).expect("read replies");
    out
}

/// Eight connections write their scripts three bytes at a time, strictly
/// interleaved, so the server's per-connection read buffers hold partial
/// lines from every client at once. One connection owns the scheduler
/// (init/submit/query/release); the others stay read-only so each stream
/// has exactly one byte-correct answer.
#[test]
fn interleaved_partial_line_writers_stay_byte_identical() {
    let owner_script = "init 8 10 400 10\n\
                        submit 0 0 50 4\n\
                        submit 0 100 60 8\n\
                        query 0 50\n\
                        release 0\n\
                        # comment\n\
                        \n\
                        bogus command here\n\
                        check\n\
                        version\n\
                        exit\n";
    let chatter_script = "version\n\
                          help\n\
                          an unknown command\n\
                          # noise\n\
                          \n\
                          version\n\
                          exit\n";
    let server = Server::bind(cfg(1)).unwrap();
    let mut conns: Vec<(Client, &str)> = Vec::new();
    conns.push((Client::connect(server.local_addr()).unwrap(), owner_script));
    for _ in 0..7 {
        conns.push((
            Client::connect(server.local_addr()).unwrap(),
            chatter_script,
        ));
    }
    // Round-robin the scripts out in 3-byte slivers: every connection's
    // buffer on the server side spends most of the test mid-line.
    let mut offsets = vec![0usize; conns.len()];
    loop {
        let mut wrote_any = false;
        for (i, (c, script)) in conns.iter_mut().enumerate() {
            let bytes = script.as_bytes();
            if offsets[i] >= bytes.len() {
                continue;
            }
            let end = (offsets[i] + 3).min(bytes.len());
            c.stream().write_all(&bytes[offsets[i]..end]).unwrap();
            offsets[i] = end;
            wrote_any = true;
        }
        if !wrote_any {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for (mut c, script) in conns {
        let expect = stdin_reference(script, 1);
        assert_eq!(read_to_eof(&mut c), expect, "script: {script:?}");
    }
    server.shutdown();
}

/// The slowest legal writer: one byte per tick. Every line spends its
/// whole life as a partial read; the reply stream must still come out
/// byte-identical, for the plain and the sharded back-end.
#[test]
fn one_byte_per_tick_client_stays_byte_identical() {
    let script = "init 4 10 200 10\n\
                  submit 0 0 50 2\n\
                  query 0 50\n\
                  advance 20\n\
                  release 0\n\
                  check\n\
                  exit\n";
    for shards in [1u32, 4] {
        let server = Server::bind(cfg(shards)).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for b in script.as_bytes() {
            c.stream().write_all(std::slice::from_ref(b)).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let expect = stdin_reference(script, shards);
        assert_eq!(read_to_eof(&mut c), expect, "shards={shards}");
        server.shutdown();
    }
}

/// 2048 connections churned through the server from 32 threads — some
/// dropped cold, some dropped mid-line, some exiting cleanly — with a
/// plateau of 256 concurrently-held sockets in the middle. The server
/// must survive with its scheduler consistent and still answer a final
/// scripted session byte-identically.
#[test]
fn open_close_storm_leaves_server_consistent() {
    let server = Server::bind(cfg(1)).unwrap();
    let addr = server.local_addr();

    let mut setup = Client::connect(addr).unwrap();
    assert_eq!(setup.roundtrip("init 8 10 400 10").unwrap(), "ok 8 servers");

    let threads = 32;
    let per_thread = 64; // 32 × 64 = 2048 churned connections
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let mut held: Vec<Client> = Vec::new();
                for i in 0..per_thread {
                    let mut c = Client::connect(addr).expect("storm connect");
                    match i % 4 {
                        // Cold drop: no bytes at all.
                        0 => drop(c),
                        // Mid-line drop: a partial command, never finished.
                        1 => {
                            let _ = c.stream().write_all(b"submit 0 0 5");
                            drop(c);
                        }
                        // Clean exit after a full roundtrip.
                        2 => {
                            assert_eq!(c.roundtrip("version").unwrap(), PROTOCOL_VERSION);
                            let _ = c.send("exit");
                            let _ = c.recv_line();
                        }
                        // Held through the storm's plateau, then dropped:
                        // 32 threads × 8 = 256 concurrently open sockets.
                        _ => {
                            if held.len() < 8 {
                                assert_eq!(c.roundtrip("version").unwrap(), PROTOCOL_VERSION);
                                held.push(c);
                            }
                        }
                    }
                }
                assert_eq!(held.len(), 8, "thread {t} plateau");
                drop(held);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("storm thread");
    }

    // The storm left no partial line executed and no index corrupted.
    assert_eq!(setup.roundtrip("check").unwrap(), "ok");
    let free = setup.roundtrip("query 0 50").unwrap();
    assert_eq!(free, "free 8", "no storm connection committed a command");
    for _ in 0..8 {
        setup.recv_line().unwrap();
    }
    drop(setup);

    // And a fresh scripted session still gets byte-identical service.
    // (`init` wipes the shared scheduler, so the reference matches.)
    let script = "init 4 10 200 10\nsubmit 0 0 50 2\nrelease 0\ncheck\nexit\n";
    let client = Client::connect(addr).unwrap();
    let over_tcp = client.exchange_script(script).unwrap();
    assert_eq!(over_tcp, stdin_reference(script, 1));
    server.shutdown();
}

/// One hostile line must not cost everyone else the daemon: a connection
/// sends geometry that would abort on allocation (no `catch_unwind` catches
/// that) and a clock move that would pin the one scheduler thread for
/// hours; both are answered as errors and a second connection is served.
#[test]
fn hostile_init_and_advance_do_not_take_the_server_down() {
    for shards in [1u32, 2] {
        let server = Server::bind(cfg(shards)).unwrap();
        let mut hostile = Client::connect(server.local_addr()).unwrap();
        for line in [
            "init 4000000000",
            "init 4 1 900000000000 1",
            "init 4 0 100 10",
        ] {
            let reply = hostile.roundtrip(line).unwrap();
            assert!(
                reply.starts_with("error: "),
                "shards={shards} {line}: {reply}"
            );
        }
        let reply = hostile.roundtrip("init 4 10 200 10").unwrap();
        assert!(
            reply.starts_with("ok 4 servers"),
            "shards={shards}: {reply}"
        );
        let reply = hostile.roundtrip("advance 9000000000000").unwrap();
        assert!(reply.starts_with("error: "), "shards={shards}: {reply}");

        let script = "submit 0 0 50 2\nadvance 20\ncheck\nversion\nexit\n";
        let over_tcp = Client::connect(server.local_addr())
            .unwrap()
            .exchange_script(script)
            .unwrap();
        let reference = format!("init 4 10 200 10\n{script}");
        let expect = stdin_reference(&reference, shards);
        let after_init = &expect[expect.find('\n').unwrap() + 1..];
        assert_eq!(over_tcp, after_init, "shards={shards}");
        server.shutdown();
    }
}
