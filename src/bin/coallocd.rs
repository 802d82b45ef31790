//! `coallocd` — the resource-manager front-end to the co-allocation
//! scheduler: one command per line, one reply per line. This is the shape
//! of the "resource manager \[that\] runs an algorithm to determine the
//! availability of the resources and informs the user" from the paper's
//! VCL description (Section 3.1).
//!
//! Two modes share one interpreter ([`coalloc::net::Session`]), so their
//! reply streams are byte-identical:
//!
//! * **stdin mode** (default) — read commands from stdin, reply on stdout:
//!
//!   ```text
//!   $ cargo run --bin coallocd
//!   init 8 900 172800 900
//!   submit 0 0 3600 4
//!   query 0 7200
//!   release 0
//!   snapshot /tmp/state.txt
//!   exit
//!   ```
//!
//! * **serve mode** — a concurrent TCP front-end with admission control:
//!
//!   ```text
//!   $ cargo run --bin coallocd -- serve --addr 127.0.0.1:7077
//!   listening on 127.0.0.1:7077
//!   ```
//!
//! The command surface (`init`, `submit`, `deadline`, `constrained`,
//! `attrs`, `query`, `release`, `advance`, `stats`, `metrics`, `check`,
//! `snapshot`, `load`, `version`, `help`, `exit`) is specified normatively
//! in `docs/PROTOCOL.md`; `help` prints the live command list, generated
//! from the same table the parser is tested against.
//!
//! CLI flags (both modes): `--shards K` partitions the servers into `K`
//! ranges whose large batches commit in parallel (`init` then builds a
//! `K`-range scheduler that serves every command with the single one's
//! replies and writes the same snapshots; only the order of `query`'s
//! detail lines may differ).
//! `--trace-out PATH`
//! writes span/event traces as JSONL to `PATH`; `--metrics-dump` prints the
//! metrics exposition on exit. The `COALLOC_OBS` environment variable (see
//! the `obs` crate) configures tracing when `--trace-out` is not given.
//!
//! Serve-mode flags: `--addr HOST:PORT` (default `127.0.0.1:7077`; port 0
//! picks a free port, printed on stdout), `--max-conns N` (admission
//! bound: connections past it get the busy reply and a close; one I/O
//! event-loop thread multiplexes every open connection over `poll(2)`),
//! `--queue-depth Q`, `--max-line BYTES`,
//! `--read-timeout-ms MS`, `--write-timeout-ms MS`. Flag-by-flag tuning
//! guidance lives in `docs/OPERATIONS.md`. The server runs until
//! SIGINT/EOF kills the process; `coalloc-net`'s [`coalloc::net::Server`]
//! drains gracefully on shutdown.
//!
//! Observability (serve mode): `--admin-addr HOST:PORT` opens a second
//! HTTP listener serving `/metrics`, `/healthz`, `/readyz`, `/status` and
//! `/debug/slow` (non-normative, see README.md § Operating `coallocd`);
//! the resolved address is printed as a second stdout line, `admin on
//! HOST:PORT`. `--slow-threshold-ms MS` sets the end-to-end latency above
//! which a request's stage timeline is captured into the slow ring
//! (default 100; 0 disables latency capture), `--slow-capacity N` bounds
//! the ring (default 256).
//!
//! Durability (serve mode): `--wal-dir PATH` write-ahead-logs every
//! mutating command to `PATH` and fsyncs it *before* the reply is
//! released, so a `kill -9` loses no acknowledged grant; on restart the
//! server recovers the pre-crash state from the log and resumes with
//! byte-identical decisions (see DESIGN.md §13 and the restart semantics
//! in `docs/PROTOCOL.md`). Tuning: `--wal-flush-ms MS` bounds how long a
//! reply may wait for its group-commit fsync (default 0 = flush whenever
//! the command queue goes idle), `--wal-snapshot-every N` installs a
//! snapshot and truncates the log every `N` records (0 disables), and
//! `--wal-segment-bytes B` sets the segment roll-over size.

use coalloc::net::{NetConfig, Server, Session, WalOptions};
use std::io::{BufRead, Write};

fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

fn parse_or_die<T: std::str::FromStr>(v: &str, what: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad {what}: '{v}'");
        std::process::exit(2);
    })
}

struct CommonFlags {
    shards: u32,
    metrics_dump: bool,
}

fn main() {
    obs::init_from_env();
    let mut common = CommonFlags {
        shards: 1,
        metrics_dump: false,
    };
    let mut serve: Option<NetConfig> = None;
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        serve = Some(NetConfig {
            addr: "127.0.0.1:7077".to_string(),
            ..NetConfig::default()
        });
    }
    while let Some(a) = args.next() {
        match (a.as_str(), &mut serve) {
            ("--shards", _) => {
                let k = flag_value(&mut args, "--shards");
                common.shards = parse_or_die(&k, "shard count");
                if common.shards == 0 {
                    eprintln!("--shards must be at least 1");
                    std::process::exit(2);
                }
            }
            ("--trace-out", _) => {
                let path = flag_value(&mut args, "--trace-out");
                match obs::trace::JsonlSink::create(&path) {
                    Ok(sink) => {
                        obs::trace::set_sink(Some(std::sync::Arc::new(sink)));
                        obs::trace::set_enabled(true);
                        obs::trace::set_detail(true);
                        eprintln!("tracing to {path} (jsonl)");
                    }
                    Err(e) => {
                        eprintln!("cannot open trace file {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            ("--metrics-dump", _) => common.metrics_dump = true,
            ("--addr", Some(cfg)) => cfg.addr = flag_value(&mut args, "--addr"),
            ("--queue-depth", Some(cfg)) => {
                cfg.queue_depth =
                    parse_or_die(&flag_value(&mut args, "--queue-depth"), "queue depth");
            }
            ("--max-conns", Some(cfg)) => {
                cfg.max_conns =
                    parse_or_die(&flag_value(&mut args, "--max-conns"), "connection bound");
            }
            ("--max-line", Some(cfg)) => {
                cfg.max_line = parse_or_die(&flag_value(&mut args, "--max-line"), "max line");
            }
            ("--read-timeout-ms", Some(cfg)) => {
                cfg.read_timeout = std::time::Duration::from_millis(parse_or_die(
                    &flag_value(&mut args, "--read-timeout-ms"),
                    "read timeout",
                ));
            }
            ("--write-timeout-ms", Some(cfg)) => {
                cfg.write_timeout = std::time::Duration::from_millis(parse_or_die(
                    &flag_value(&mut args, "--write-timeout-ms"),
                    "write timeout",
                ));
            }
            ("--admin-addr", Some(cfg)) => {
                cfg.admin_addr = Some(flag_value(&mut args, "--admin-addr"));
            }
            ("--slow-threshold-ms", Some(cfg)) => {
                cfg.slow_threshold = std::time::Duration::from_millis(parse_or_die(
                    &flag_value(&mut args, "--slow-threshold-ms"),
                    "slow threshold",
                ));
            }
            ("--slow-capacity", Some(cfg)) => {
                cfg.slow_capacity =
                    parse_or_die(&flag_value(&mut args, "--slow-capacity"), "slow capacity");
            }
            ("--wal-dir", Some(cfg)) => {
                cfg.wal = Some(WalOptions::new(flag_value(&mut args, "--wal-dir")));
            }
            ("--wal-flush-ms", Some(cfg)) => {
                let ms: u64 = parse_or_die(
                    &flag_value(&mut args, "--wal-flush-ms"),
                    "wal flush interval",
                );
                match &mut cfg.wal {
                    Some(w) => w.flush_interval = std::time::Duration::from_millis(ms),
                    None => {
                        eprintln!("--wal-flush-ms requires --wal-dir first");
                        std::process::exit(2);
                    }
                }
            }
            ("--wal-snapshot-every", Some(cfg)) => {
                let n: u64 = parse_or_die(
                    &flag_value(&mut args, "--wal-snapshot-every"),
                    "wal snapshot period",
                );
                match &mut cfg.wal {
                    Some(w) => w.snapshot_every = n,
                    None => {
                        eprintln!("--wal-snapshot-every requires --wal-dir first");
                        std::process::exit(2);
                    }
                }
            }
            ("--wal-segment-bytes", Some(cfg)) => {
                let n: u64 = parse_or_die(
                    &flag_value(&mut args, "--wal-segment-bytes"),
                    "wal segment size",
                );
                match &mut cfg.wal {
                    Some(w) => w.segment_bytes = n.max(1),
                    None => {
                        eprintln!("--wal-segment-bytes requires --wal-dir first");
                        std::process::exit(2);
                    }
                }
            }
            (other, _) => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(mut cfg) = serve {
        cfg.shards = common.shards;
        let server = Server::bind(cfg).unwrap_or_else(|e| {
            eprintln!("cannot bind: {e}");
            std::process::exit(1);
        });
        // Printed on stdout so scripts (and the e2e tests) can discover the
        // resolved port when binding port 0.
        println!("listening on {}", server.local_addr());
        if let Some(admin) = server.admin_addr() {
            println!("admin on {admin}");
        }
        let _ = std::io::stdout().flush();
        // Serve until our stdin closes (or forever when detached): the
        // parent killing the process or closing the pipe is the shutdown
        // signal, after which the server drains gracefully.
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            if line.is_err() {
                break;
            }
        }
        server.shutdown();
    } else {
        Session::new(common.shards).run_stream(std::io::stdin().lock(), std::io::stdout().lock());
    }
    obs::trace::flush_sink();
    if common.metrics_dump {
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(stdout, "--- metrics ---");
        let _ = write!(stdout, "{}", obs::metrics::exposition());
        let _ = stdout.flush();
    }
}
