//! Network chaos: hostile and unlucky clients against a live server.
//!
//! Mid-command disconnects, slow-loris writes, oversized lines and
//! pipelined floods — after each storm the scheduler must still pass its
//! internal consistency checks and answer normally.

use coalloc_net::{Client, NetConfig, Server, BUSY_REPLY, PROTOCOL_VERSION};
use std::io::Write;
use std::time::Duration;

fn chaos_cfg() -> NetConfig {
    NetConfig {
        read_timeout: Duration::from_millis(250),
        write_timeout: Duration::from_millis(250),
        ..NetConfig::default()
    }
}

#[test]
fn oversized_line_is_rejected_and_connection_closed() {
    let cfg = NetConfig {
        max_line: 64,
        ..chaos_cfg()
    };
    let server = Server::bind(cfg).unwrap();

    // Oversized with a newline: parsed length exceeds the cap.
    let mut c = Client::connect(server.local_addr()).unwrap();
    let long = format!("submit {} 0 50 1", "9".repeat(100));
    assert_eq!(
        c.roundtrip(&long).unwrap(),
        "error: line too long (max 64 bytes)"
    );
    assert_eq!(c.recv_line().unwrap(), "", "connection must be closed");

    // Oversized without any newline: caught while still streaming.
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.stream().write_all(&[b'a'; 200]).unwrap();
    assert_eq!(
        c.recv_line().unwrap(),
        "error: line too long (max 64 bytes)"
    );
    assert_eq!(c.recv_line().unwrap(), "");

    // The server is unharmed.
    let mut ok = Client::connect(server.local_addr()).unwrap();
    assert_eq!(ok.roundtrip("version").unwrap(), PROTOCOL_VERSION);
    drop(ok);
    server.shutdown();
}

#[test]
fn slow_loris_write_is_cut_off() {
    let server = Server::bind(chaos_cfg()).unwrap();
    let mut loris = Client::connect(server.local_addr()).unwrap();
    loris.set_timeout(Duration::from_secs(5)).unwrap();
    // Drip a command one byte at a time, slower than the line deadline
    // allows in total.
    let cmd = b"submit 0 0 50 1";
    let mut cut = false;
    for b in cmd {
        if loris.stream().write_all(&[*b]).is_err() {
            cut = true; // server already closed on us
            break;
        }
        std::thread::sleep(Duration::from_millis(60));
    }
    if !cut {
        // The server must answer with the timeout error and close, never
        // execute the half-line.
        let reply = loris.recv_line().unwrap_or_default();
        assert!(
            reply == "error: line timeout" || reply.is_empty(),
            "unexpected reply to a slow-loris: {reply}"
        );
    }
    // A healthy client is still served promptly.
    let mut ok = Client::connect(server.local_addr()).unwrap();
    assert_eq!(ok.roundtrip("init 2 10 100 10").unwrap(), "ok 2 servers");
    assert_eq!(ok.roundtrip("check").unwrap(), "ok");
    drop(ok);
    drop(loris);
    server.shutdown();
}

#[test]
fn idle_connection_is_reaped() {
    let server = Server::bind(chaos_cfg()).unwrap();
    let mut idle = Client::connect(server.local_addr()).unwrap();
    idle.set_timeout(Duration::from_secs(5)).unwrap();
    let reply = idle.recv_line().unwrap_or_default();
    assert!(
        reply == "error: idle timeout" || reply.is_empty(),
        "unexpected reply on idle connection: {reply}"
    );
    assert_eq!(idle.recv_line().unwrap_or_default(), "");
    drop(idle);
    server.shutdown();
}

#[test]
fn mid_command_disconnect_storm_keeps_state_consistent() {
    let server = Server::bind(chaos_cfg()).unwrap();
    let mut setup = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        setup.roundtrip("init 8 10 2000 10").unwrap(),
        "ok 8 servers"
    );

    let addr = server.local_addr();
    let storms: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                match i % 4 {
                    // Full command, vanish before the reply.
                    0 => {
                        let _ = c.send(&format!("submit 0 {} 40 1", (i % 3) * 30));
                    }
                    // Partial command, vanish mid-line.
                    1 => {
                        let _ = c.stream().write_all(b"submit 0 0 4");
                    }
                    // Garbage, vanish.
                    2 => {
                        let _ = c.stream().write_all(b"\x00\xffnot-utf8\x01 junk\n");
                    }
                    // Normal citizen: submit and read the reply.
                    _ => {
                        let r = c.roundtrip(&format!("submit 0 {} 40 1", (i % 3) * 30));
                        let r = r.unwrap_or_default();
                        assert!(
                            r.starts_with("granted")
                                || r.starts_with("rejected")
                                || r == BUSY_REPLY,
                            "unexpected reply: {r}"
                        );
                    }
                }
                // Dropping `c` closes the socket, however far we got.
            })
        })
        .collect();
    for h in storms {
        h.join().unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));

    // Whatever subset of the storm's commands executed, the scheduler's
    // internal indexes must be consistent and the session responsive.
    assert_eq!(setup.roundtrip("check").unwrap(), "ok");
    let stats = setup.roundtrip("stats").unwrap();
    assert!(stats.starts_with("now=0"), "{stats}");
    drop(setup);
    server.shutdown();
}

#[test]
fn pipelined_flood_gets_one_reply_per_line() {
    let cfg = NetConfig {
        queue_depth: 2,
        exec_delay: Duration::from_millis(2),
        ..chaos_cfg()
    };
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr();
    let clients = 6;
    let lines = 20;
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let c = Client::connect(addr).unwrap();
                let mut script = String::new();
                for _ in 0..lines {
                    script.push_str("version\n");
                }
                script.push_str("exit\n");
                let out = c.exchange_script(&script).unwrap();
                let replies: Vec<&str> = out.lines().collect();
                assert_eq!(replies.len(), lines, "one reply per line:\n{out}");
                let busy = replies.iter().filter(|r| **r == BUSY_REPLY).count();
                for r in &replies {
                    assert!(
                        *r == BUSY_REPLY || *r == PROTOCOL_VERSION,
                        "unexpected reply: {r}"
                    );
                }
                busy
            })
        })
        .collect();
    let shed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    // Shedding is allowed (the queue is tiny) but must never eat a reply;
    // the per-line assertion above is the real invariant.
    println!("pipelined flood: {shed} busy replies across {clients} clients");
    server.shutdown();
}
