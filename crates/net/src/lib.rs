//! # coalloc-net
//!
//! The network edge of the co-allocation scheduler: a dependency-free
//! (std-only) TCP server speaking the same line protocol as `coallocd`'s
//! stdin/stdout session, specified normatively in `docs/PROTOCOL.md`.
//!
//! * [`proto`] — the shared command table: single source of truth for the
//!   parser surface, the generated `help` reply and the protocol docs;
//! * [`session`] — the command interpreter ([`Session`]), shared verbatim
//!   by the stdin loop and the TCP path, writing replies as wire bytes
//!   into a reused [`session::Replies`] buffer;
//! * [`server`] — the event-driven front-end ([`Server`]): one `poll(2)`
//!   event loop (listener and every connection; `event`, private) →
//!   bounded batch queue → one scheduler thread answering one pass of
//!   queued lines per [`Session::exec_into`] call, with admission control
//!   (`busy retry-after` sheds past `max_conns` and on a full queue),
//!   poll-deadline read/idle/write timeouts, a max-line bound and graceful
//!   drain. Whole pipelined bursts cross the queue as one buffer and come
//!   back as runs of reply bytes, with no heap object per line; replies
//!   are resequenced per connection, so reply order is
//!   exactly request order even though the WAL releases read-only replies
//!   before fsynced mutating ones. With [`WalOptions`] set, the scheduler
//!   thread write-ahead-logs every mutating command before its reply is
//!   released, and [`Server::bind`] recovers the pre-crash state from that
//!   log (DESIGN.md §13);
//! * [`client`] — a blocking scripting client ([`Client`]) used by the
//!   `netload` load generator and the end-to-end tests;
//! * [`stage`] — end-to-end latency attribution: per-burst [`stage::Stamps`]
//!   shared by the burst's lines, feeding the `req_stage_*` histograms
//!   (queue wait, scheduler compute, WAL stall, writeback) one run of
//!   equal stamps at a time;
//! * [`slow`] — tail-based request capture: a fixed ring of full stage
//!   timelines for slow/shed/errored requests, served by `GET /debug/slow`
//!   on the admin plane and the `slow` protocol command;
//! * `admin` (private) — the admin HTTP plane behind
//!   [`NetConfig::admin_addr`]: `/metrics`, `/healthz`, `/readyz`,
//!   `/status`, `/debug/slow` over minimal HTTP/1.1 on a second listener.
//!
//! Because every session multiplexes onto one scheduler thread, a TCP
//! session's reply stream is byte-identical to the same script on stdin —
//! `crates/net/tests/e2e.rs` enforces this for both the plain and the
//! sharded back-end.
//!
//! ```
//! use coalloc_net::{Client, NetConfig, Server, Session};
//!
//! // In-process server on an ephemeral port.
//! let server = Server::bind(NetConfig::default()).unwrap();
//! let client = Client::connect(server.local_addr()).unwrap();
//! let script = "init 4 10 200 10\nsubmit 0 0 50 2\nexit\n";
//! let over_tcp = client.exchange_script(script).unwrap();
//!
//! // Identical bytes to the same script interpreted locally (= stdin).
//! assert_eq!(over_tcp, Session::new(1).run_script(script));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod admin;
pub mod client;
mod event;
pub mod proto;
pub mod server;
pub mod session;
pub mod slow;
pub mod stage;

pub use client::Client;
pub use proto::{help_text, CommandSpec, BUSY_REPLY, COMMANDS, PROTOCOL_VERSION};
pub use server::{NetConfig, Server, WalOptions};
pub use session::Session;
