//! The line-protocol interpreter: one command in, one reply out.
//!
//! [`Session`] is the single implementation of the protocol specified in
//! `docs/PROTOCOL.md`, shared by `coallocd`'s stdin/stdout loop and by the
//! TCP server in [`crate::server`] — which is what makes a TCP session's
//! reply stream byte-identical to the same script on stdin (enforced by
//! `crates/net/tests/e2e.rs`). The accepted command surface is described by
//! the table in [`crate::proto`].

use crate::proto;
use crate::server::ERRORS;
use coalloc_core::prelude::*;
use coalloc_core::snapshot::StateImage;
use obs::{LazyCounter, LazyHistogram};
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::panic::AssertUnwindSafe;

static EXEC_PANICS: LazyCounter = LazyCounter::new("net_exec_panics_total");
/// Lines per scheduler batch: how many consecutive `submit` lines one
/// [`Session::exec_batch`] decided with one `submit_batch` call. Mostly 1
/// at low load; grows with pipelining depth and concurrent connections.
static BATCH_LINES: LazyHistogram = LazyHistogram::new("net_batch_lines");

/// One protocol session: a scheduler (once `init` ran) plus the shard count
/// the next `init` will use. The scheduler is one type at every `K` — its
/// servers stored as `K` ranges, large batches pooled over them when
/// `K > 1` — and every command gets the same reply at every `K` (DESIGN.md
/// §9; only the order of `query`'s detail lines may differ): `--shards K`
/// picks how the work is executed, never what can be asked.
///
/// ```
/// use coalloc_net::Session;
///
/// let mut s = Session::new(1);
/// assert_eq!(s.exec("init 4 10 200 10").unwrap(), "ok 4 servers");
/// let reply = s.exec("submit 0 0 50 2").unwrap();
/// assert!(reply.starts_with("granted job=0 start=0 end=50"));
/// ```
pub struct Session {
    sched: Option<CoAllocScheduler>,
    shards: u32,
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: '{s}'"))
}

impl Session {
    /// A fresh session with no scheduler. `init` and [`Session::restore`]
    /// build it over `shards` server ranges.
    pub fn new(shards: u32) -> Session {
        Session {
            sched: None,
            shards: shards.max(1),
        }
    }

    /// The engine behind the session, once `init` or a restore built one:
    /// where differential tests set the execution switches that change how
    /// the engine works but not what it decides (the pool threshold, the
    /// linear walk, eager ring updates). `init` and `load` build a new
    /// engine, so a switch must be set again after either.
    #[doc(hidden)]
    pub fn engine(&mut self) -> Option<&mut CoAllocScheduler> {
        self.sched.as_mut()
    }

    /// Whether `line` is the session terminator. The caller owns the exit
    /// action (stop reading stdin / close the connection), so `exit` never
    /// reaches [`Session::exec`].
    pub fn is_exit(line: &str) -> bool {
        line.trim() == "exit"
    }

    fn sched(&mut self) -> Result<&mut CoAllocScheduler, String> {
        self.sched
            .as_mut()
            .ok_or_else(|| "no scheduler; run 'init N' first".to_string())
    }

    /// The reply to a submit-shaped command: scheduling rejections are
    /// *replies* (`rejected ...`), not errors — see `docs/PROTOCOL.md`.
    fn decision_line(decision: Result<Grant, ScheduleError>) -> String {
        let g = match decision {
            Ok(g) => g,
            Err(e) => return format!("rejected {e}"),
        };
        let mut out = format!(
            "granted job={} start={} end={} attempts={} wait={} servers=",
            g.job.0,
            g.start.secs(),
            g.end.secs(),
            g.attempts,
            g.waiting.secs(),
        );
        for (i, s) in g.servers.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}{}", s.0);
        }
        out
    }

    /// Execute one command line; returns the reply (possibly multi-line,
    /// empty for blanks/comments) or a protocol error.
    pub fn exec(&mut self, line: &str) -> Result<String, String> {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [] | ["#", ..] => Ok(String::new()),
            ["help"] => Ok(proto::help_text()),
            ["version"] => Ok(proto::PROTOCOL_VERSION.to_string()),
            ["init", n, rest @ ..] => {
                let n: u32 = parse(n, "server count")?;
                let mut cfg = SchedulerConfig::default();
                if let [tau, horizon, delta_t] = rest {
                    cfg.tau = Dur(parse(tau, "tau")?);
                    cfg.horizon = Dur(parse(horizon, "horizon")?);
                    cfg.delta_t = Dur(parse(delta_t, "delta_t")?);
                } else if !rest.is_empty() {
                    return Err("usage: init N [tau horizon delta_t]".into());
                }
                // The constructors assert and allocate from these values.
                cfg.check_limits(n as u64, Time::ZERO, Time::ZERO)?;
                self.sched = Some(CoAllocScheduler::with_ranges(n, self.shards, cfg));
                if self.shards > 1 {
                    Ok(format!("ok {n} servers over {} shards", self.shards))
                } else {
                    Ok(format!("ok {n} servers"))
                }
            }
            ["submit", q, s, l, n] => {
                let req = Self::parse_submit_args(q, s, l, n)?;
                Ok(Self::decision_line(self.sched()?.submit(&req)))
            }
            ["deadline", q, s, l, n, d] => {
                let req = Self::parse_submit_args(q, s, l, n)?;
                let by = Time(parse(d, "deadline")?);
                Ok(Self::decision_line(
                    self.sched()?.submit_with_deadline(&req, by),
                ))
            }
            ["constrained", q, s, l, n, mask] => {
                let req = Self::parse_submit_args(q, s, l, n)?;
                let mask = AttrSet(parse(mask, "mask")?);
                Ok(Self::decision_line(
                    self.sched()?.submit_constrained(&req, mask),
                ))
            }
            ["attrs", server, mask] => {
                let srv = ServerId(parse(server, "server")?);
                let mask = AttrSet(parse(mask, "mask")?);
                let s = self.sched()?;
                if srv.0 >= s.num_servers() {
                    return Err(format!("no such server {}", srv.0));
                }
                s.set_server_attrs(srv, mask);
                Ok("ok".into())
            }
            ["query", a, b] => {
                let (a, b) = (Time(parse(a, "start")?), Time(parse(b, "end")?));
                let hits = self.sched()?.range_search(a, b);
                let mut out = format!("free {}", hits.len());
                for h in hits {
                    out.push_str(&format!(
                        "\n  server={} idle=[{}, {}) slack={}",
                        h.server.0,
                        h.idle_start.secs(),
                        if h.idle_end.is_inf() {
                            "inf".to_string()
                        } else {
                            h.idle_end.secs().to_string()
                        },
                        h.tail_slack.secs()
                    ));
                }
                Ok(out)
            }
            ["release", job] => {
                let job = JobId(parse(job, "job id")?);
                match self.sched()?.release(job) {
                    Ok(()) => Ok("ok".into()),
                    Err(e) => Ok(format!("error {e}")),
                }
            }
            ["advance", t] => {
                let t = Time(parse(t, "time")?);
                let s = self.sched()?;
                // `advance_to` rotates the ring slot by slot up to `t`.
                s.config()
                    .check_limits(s.num_servers() as u64, s.now(), t)?;
                s.advance_to(t);
                Ok(format!("ok now={}", t.secs()))
            }
            ["stats"] => {
                let sched = self.sched()?;
                let now = sched.now();
                let util = sched.utilization(now.max(Time(1)));
                let ops = sched.stats();
                Ok(format!(
                    "now={} horizon_end={} util={util:.4} ops={} searches={} attempts={}",
                    now.secs(),
                    sched.horizon_end().secs(),
                    ops.total_ops(),
                    ops.phase1_searches,
                    ops.attempts
                ))
            }
            ["metrics"] => Ok(obs::metrics::exposition().trim_end().to_string()),
            ["slow"] => {
                let records = crate::slow::snapshot();
                let mut out = format!("slow {}", records.len());
                for r in &records {
                    out.push('\n');
                    out.push_str(&crate::slow::to_json(r));
                }
                Ok(out)
            }
            ["check"] => {
                self.sched()?.check_consistency();
                Ok("ok".into())
            }
            ["snapshot", path] => {
                let text = self.sched()?.snapshot();
                std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
                Ok(format!("ok wrote {path}"))
            }
            ["load", path] => {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
                self.restore(&text)
            }
            _ => Err(format!("unknown command: '{line}' (try 'help')")),
        }
    }

    fn parse_submit_args(q: &str, s: &str, l: &str, n: &str) -> Result<Request, String> {
        Ok(Request::advance(
            Time(parse(q, "q_r")?),
            Time(parse(s, "s_r")?),
            Dur(parse(l, "l_r")?),
            parse(n, "n_r")?,
        ))
    }

    /// Execute queued lines in order. Each entry of the result is exactly
    /// what [`Session::exec`] would have returned for that line, and this
    /// is the one place that decides which lines batch: a run of
    /// consecutive `submit` lines is decided by one `submit_batch` call,
    /// which a pool executes with one worker wake-up per range per stage
    /// instead of per line (lines of the run that never reach the scheduler
    /// — parse errors, wrong arity, no `init` yet — keep their individual
    /// error replies); every other line runs alone, after the submits
    /// queued ahead of it.
    ///
    /// Each run of submits, and each other line, is a *segment* with its
    /// own panic guard: a panicking segment answers each of its lines with
    /// an internal error (`net_exec_panics_total`), and the segments around
    /// it keep their replies. `net_batch_lines` observes each run's length.
    pub fn exec_batch(&mut self, lines: &[&str]) -> Vec<Result<String, String>> {
        let mut out = Vec::with_capacity(lines.len());
        let mut rest = lines;
        while !rest.is_empty() {
            let run = rest
                .iter()
                .take_while(|l| l.split_whitespace().next() == Some("submit"))
                .count();
            let (segment, tail) = rest.split_at(run.max(1));
            rest = tail;
            if run == 0 {
                out.extend(guarded(segment, || vec![self.exec(segment[0])]));
            } else {
                BATCH_LINES.observe(run as u64);
                out.extend(guarded(segment, || self.decide(segment)));
            }
        }
        out
    }

    /// Decide a run of `submit` lines with one `submit_batch` call.
    fn decide(&mut self, lines: &[&str]) -> Vec<Result<String, String>> {
        let mut out: Vec<Option<Result<String, String>>> = Vec::with_capacity(lines.len());
        let mut reqs: Vec<Request> = Vec::with_capacity(lines.len());
        for line in lines {
            // Split into a fixed array: six slots tell a 5-word line from a
            // longer one without collecting the words.
            let mut f = [""; 6];
            let mut words = 0;
            for (slot, word) in f.iter_mut().zip(line.split_whitespace()) {
                *slot = word;
                words += 1;
            }
            let reply = match (words, f) {
                (5, ["submit", q, s, l, n, _]) => match Self::parse_submit_args(q, s, l, n) {
                    Ok(req) => match self.sched() {
                        Ok(_) => {
                            reqs.push(req);
                            None
                        }
                        Err(e) => Some(Err(e)),
                    },
                    Err(e) => Some(Err(e)),
                },
                // Wrong arity: the parser's error, whatever the state.
                _ => Some(self.exec(line)),
            };
            out.push(reply);
        }
        // Submits queue only behind a scheduler.
        let decisions = match &mut self.sched {
            Some(s) if !reqs.is_empty() => s.submit_batch(&reqs),
            _ => Vec::new(),
        };
        let mut replies = decisions.into_iter().map(|d| Ok(Self::decision_line(d)));
        out.into_iter()
            .map(|o| o.unwrap_or_else(|| replies.next().expect("one decision per queued submit")))
            .collect()
    }

    /// Capacity and utilization probe for the admin plane's `/status`:
    /// `(servers, scheduler clock secs, utilization at the clock)`, or
    /// `None` before any `init`/restore installed a scheduler.
    pub fn probe_status(&self) -> Option<(u32, i64, f64)> {
        let s = self.sched.as_ref()?;
        let now = s.now();
        Some((s.num_servers(), now.secs(), s.utilization(now.max(Time(1)))))
    }

    /// The canonical persistent form of the current scheduler state — the
    /// same text at every `K` — or `None` before any
    /// `init`/restore installed a scheduler. The write-ahead log installs
    /// this text as its base image when truncating replayed history
    /// (DESIGN.md §13).
    pub fn snapshot_text(&self) -> Option<String> {
        self.sched.as_ref().map(|s| s.snapshot())
    }

    /// Replace the session's scheduler with one restored from snapshot
    /// text — over the session's `K`, whatever `K` wrote the text —
    /// returning the `load` reply line. Used by the `load` command and by
    /// WAL crash recovery to install the base image.
    pub fn restore(&mut self, text: &str) -> Result<String, String> {
        let image = StateImage::parse(text).map_err(|e| format!("restore: {e}"))?;
        let n = image.attrs.len();
        self.sched = Some(CoAllocScheduler::from_image(image, self.shards));
        Ok(format!("ok {n} servers restored"))
    }

    /// Serve a line stream — `coallocd`'s stdin loop: execute each line,
    /// write one line per non-empty reply and errors as `error: ...`,
    /// flushing after each, until `exit`, the end of `input` or a read
    /// error. A failed write loses that reply, not the commands after it.
    pub fn run_stream(&mut self, input: impl BufRead, mut output: impl Write) {
        for line in input.lines().map_while(Result::ok) {
            if Session::is_exit(&line) {
                break;
            }
            let _ = match self.exec(&line) {
                Ok(reply) if reply.is_empty() => continue,
                Ok(reply) => writeln!(output, "{reply}"),
                Err(e) => writeln!(output, "error: {e}"),
            };
            let _ = output.flush();
        }
    }

    /// [`Session::run_stream`] over a whole multi-line script, returning
    /// the bytes stdin mode would print. This is the reference output the
    /// TCP end-to-end tests compare a socket's byte stream against.
    pub fn run_script(&mut self, script: &str) -> String {
        let mut out = Vec::new();
        self.run_stream(script.as_bytes(), &mut out);
        String::from_utf8(out).expect("replies are UTF-8")
    }
}

/// Run one segment of [`Session::exec_batch`] — a run of submits, or one
/// other line — converting a panic into an internal-error reply for each of
/// its lines instead of poisoning the caller (the server's one scheduler
/// thread, and with it every connection). A segment is one scheduler call,
/// so per-line blame is unknowable.
fn guarded(
    lines: &[&str],
    run: impl FnOnce() -> Vec<Result<String, String>>,
) -> Vec<Result<String, String>> {
    std::panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
        EXEC_PANICS.inc();
        ERRORS.add(lines.len() as u64);
        eprintln!(
            "coalloc-net: command panicked, shedding {} line(s) from: {}",
            lines.len(),
            lines[0]
        );
        lines
            .iter()
            .map(|_| Err("internal error: command panicked (see server log)".into()))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::COMMANDS;

    fn run_sharded(cmds: &[&str], shards: u32) -> Vec<String> {
        let mut s = Session::new(shards);
        cmds.iter()
            .map(|c| match s.exec(c) {
                Ok(r) => r,
                Err(e) => format!("error: {e}"),
            })
            .collect()
    }

    fn run(cmds: &[&str]) -> Vec<String> {
        run_sharded(cmds, 1)
    }

    #[test]
    fn happy_path_session() {
        let out = run(&[
            "init 4 10 200 10",
            "submit 0 0 50 2",
            "query 0 50",
            "release 0",
            "stats",
        ]);
        assert_eq!(out[0], "ok 4 servers");
        assert!(out[1].starts_with("granted job=0 start=0 end=50"));
        assert!(out[2].starts_with("free 2"));
        assert_eq!(out[3], "ok");
        assert!(out[4].contains("ops="));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let out = run(&["submit 0 0 10 1", "init x", "init 2 10 100 10", "bogus"]);
        assert!(out[0].starts_with("error: no scheduler"));
        assert!(out[1].starts_with("error: bad server count"));
        assert_eq!(out[2], "ok 2 servers");
        assert!(out[3].starts_with("error: unknown command"));
    }

    /// Geometry and clock values that would abort on allocation, trip a
    /// constructor `assert!` or spin the ring for hours are refused as
    /// protocol errors by `SchedulerConfig::check_limits`, at every K.
    #[test]
    fn hostile_init_and_advance_are_errors_not_crashes() {
        let hostile_init = [
            "init 4000000000",
            "init 4 1 900000000000 1",
            "init 0",
            "init 4 0 100 10",
            "init 4 10 100 0",
            "init 4 10 5 10",
            "init 4 -10 100 10",
        ];
        let hostile_advance = [
            "advance 9000000000000",
            "advance 4000000000000",
            "advance -9223372036854775808",
        ];
        for shards in [1u32, 2] {
            let mut s = Session::new(shards);
            let refused = |s: &mut Session, line: &str| {
                let err = s.exec(line).expect_err(line);
                assert!(
                    err.contains("out of range") || err.contains("too many"),
                    "{line}: {err}"
                );
                assert_eq!(s.exec("version").unwrap(), proto::PROTOCOL_VERSION);
            };
            for line in hostile_init {
                refused(&mut s, line);
            }
            assert!(s
                .exec("init 4 10 100 10")
                .unwrap()
                .starts_with("ok 4 servers"));
            for line in hostile_advance {
                refused(&mut s, line);
            }
            // The clock did not move, and still moves.
            assert!(s.exec("stats").unwrap().starts_with("now=0 "));
            assert_eq!(s.exec("advance 50").unwrap(), "ok now=50");
            assert!(s.exec("submit 50 50 10 4").unwrap().starts_with("granted"));
        }
    }

    /// Starts and durations near `i64::MAX` lie past the horizon: a
    /// `rejected` reply like any other late start, not an overflow into the
    /// search — at every K, and the session goes on granting.
    #[test]
    fn hostile_submit_times_are_rejections_not_crashes() {
        let hostile = [
            "submit 0 9223372036854775807 10 1",
            "submit 9223372036854775807 9223372036854775807 9223372036854775807 1",
            "submit 0 0 9223372036854775807 1",
            "deadline 0 9223372036854775797 10 1 9223372036854775807",
            "constrained 0 9223372036854775807 10 1 0",
        ];
        for shards in [1u32, 2] {
            let mut s = Session::new(shards);
            s.exec("init 4 10 200 10").unwrap();
            for line in hostile {
                assert_eq!(
                    s.exec(line).unwrap(),
                    "rejected request does not fit before the horizon (t=200)",
                    "K={shards}: {line}"
                );
            }
            assert_eq!(s.exec_batch(&hostile), hostile.map(|l| s.exec(l)));
            assert!(s
                .exec("submit 0 0 10 4")
                .unwrap()
                .starts_with("granted job=0 "));
            assert_eq!(s.exec("check").unwrap(), "ok");
        }
    }

    #[test]
    fn rejection_is_a_reply_not_an_error() {
        let out = run(&["init 1 10 100 10", "submit 0 0 500 1", "submit 0 0 10 5"]);
        assert!(out[1].starts_with("rejected"));
        assert!(out[2].starts_with("rejected"));
    }

    #[test]
    fn constrained_and_attrs() {
        let out = run(&[
            "init 3 10 200 10",
            "attrs 2 5",
            "constrained 0 0 30 1 5",
            "constrained 0 0 30 2 5",
        ]);
        assert_eq!(out[1], "ok");
        assert!(out[2].contains("servers=2"), "{}", out[2]);
        assert!(out[3].starts_with("rejected"));
    }

    #[test]
    fn snapshot_load_roundtrip() {
        let path = std::env::temp_dir().join("coalloc-net-session-snap.txt");
        let p = path.to_str().unwrap();
        let out = run(&[
            "init 2 10 100 10",
            "submit 0 0 40 1",
            &format!("snapshot {p}"),
            "init 9",
            &format!("load {p}"),
            "query 0 40",
        ]);
        assert!(out[2].starts_with("ok wrote"));
        assert_eq!(out[4], "ok 2 servers restored");
        assert!(out[5].starts_with("free 1"), "{}", out[5]);
        let _ = std::fs::remove_file(path);
    }

    /// A clock more than 2^21 slots past `init`, reached in two legal
    /// `advance`s, still snapshots and loads at every K.
    #[test]
    fn snapshot_loads_after_the_clock_ran_far_past_init() {
        let path = std::env::temp_dir().join("coalloc-net-session-far-clock.txt");
        let p = path.to_str().unwrap();
        for shards in [1u32, 2] {
            let out = run_sharded(
                &[
                    "init 4 10 200 10",
                    "advance 20000000",
                    "advance 25000000",
                    &format!("snapshot {p}"),
                    &format!("load {p}"),
                    "check",
                    "submit 25000000 25000000 50 2",
                ],
                shards,
            );
            assert_eq!(
                out[1..3],
                ["ok now=20000000", "ok now=25000000"],
                "K={shards}"
            );
            assert_eq!(out[4], "ok 4 servers restored", "K={shards}");
            assert_eq!(out[5], "ok", "K={shards}");
            assert!(
                out[6].starts_with("granted job=0 start=25000000 "),
                "K={shards}: {}",
                out[6]
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let out = run(&["", "# a comment", "help"]);
        assert_eq!(out[0], "");
        assert_eq!(out[1], "");
        assert!(out[2].contains("commands:"));
    }

    #[test]
    fn sharded_session_matches_plain_decisions() {
        let cmds = [
            "init 8 10 400 10",
            "submit 0 0 50 4",
            "submit 0 100 60 8",
            "deadline 0 0 20 2 100",
            "submit 0 0 500 1",
            "release 0",
            "submit 0 0 50 6",
        ];
        let plain = run(&cmds);
        // Every back-end reports the script's five laddered requests (four
        // grants, one horizon reject) to the process-global request
        // counters. Sibling tests bump them too, so these are lower bounds;
        // `crates/core/tests/request_metrics.rs` has the exact comparison.
        let counters = || {
            [
                "sched_requests_total",
                "sched_grants_total",
                "sched_rejects_total",
            ]
            .map(|name| obs::metrics::counter(name).get())
        };
        for k in [1u32, 2, 4] {
            let before = counters();
            let sharded = run_sharded(&cmds, k);
            let after = counters();
            if k > 1 {
                assert_eq!(sharded[0], format!("ok 8 servers over {k} shards"));
            }
            assert_eq!(&plain[1..], &sharded[1..], "k={k}");
            for (i, expect) in [5, 4, 1].into_iter().enumerate() {
                assert!(
                    after[i] - before[i] >= expect,
                    "k={k}: {before:?} -> {after:?}"
                );
            }
        }
    }

    #[test]
    fn deadline_command() {
        let out = run(&[
            "init 1 10 200 10",
            "submit 0 0 30 1",
            "deadline 0 0 20 1 40",
        ]);
        assert!(out[2].starts_with("rejected"), "{}", out[2]);
        let out = run(&["init 1 10 200 10", "deadline 0 0 20 1 40"]);
        assert!(out[1].starts_with("granted"));
    }

    #[test]
    fn check_and_version_commands() {
        let out = run(&["init 4 10 200 10", "submit 0 0 50 2", "check", "version"]);
        assert_eq!(out[2], "ok");
        assert_eq!(out[3], crate::proto::PROTOCOL_VERSION);
        let out = run_sharded(&["init 4 10 200 10", "submit 0 0 50 2", "check"], 2);
        assert_eq!(out[2], "ok");
    }

    #[test]
    fn help_reply_is_generated_from_the_shared_table() {
        let out = run(&["help"]);
        assert_eq!(out[0], crate::proto::help_text());
    }

    /// The shared-table contract, parser half: every command in
    /// [`COMMANDS`] is accepted by `exec` (its canonical example never hits
    /// the `unknown command` arm), and words outside the table are rejected.
    #[test]
    fn every_table_command_is_accepted_by_the_parser() {
        for shards in [1u32, 2] {
            let mut s = Session::new(shards);
            for c in COMMANDS {
                if c.name == "exit" {
                    assert!(Session::is_exit(c.example));
                    continue;
                }
                // At every K: the examples are all well-formed, so none is
                // answered with an error either.
                let reply = s.exec(c.example).unwrap_or_else(|e| {
                    panic!("table example for '{}' refused at K={shards}: {e}", c.name)
                });
                assert!(!reply.contains("unknown command"), "{}: {reply}", c.name);
            }
            let _ = std::fs::remove_file("/tmp/coalloc-proto-example.txt");
            assert!(s
                .exec("definitely-not-a-command")
                .unwrap_err()
                .contains("unknown command"));
        }
    }

    /// The batched entry point must answer every line exactly as `exec`
    /// would have, in order — grants, rejections, parse errors, wrong
    /// arity, and the no-scheduler error alike — at every K; a line that
    /// is not a submit runs only after the submits queued ahead of it.
    #[test]
    fn exec_batch_matches_per_line_exec() {
        let lines = [
            "submit 0 0 50 4",
            "submit 0 0 50 3",
            "submit 0 0 x 2",
            "submit 0 0 50",
            "submit 0 0 9999 1",
            "submit 0 100 60 8",
        ];
        let mixed = [
            "init 4 10 400 10",
            "submit 0 0 50 4",
            "release 0",
            "submit 0 0 50 4",
            "query 0 60",
            "advance 20",
            "submit 0 0 30 1",
            "submit 20 20 30 2",
            "init 4 10 400 10",
            "submit 0 0 50 3",
        ];
        for shards in [1u32, 2, 4] {
            let mut batched = Session::new(shards);
            let mut sequential = Session::new(shards);
            // Before init, every submit fails with the no-scheduler error.
            let uninit = batched.exec_batch(&lines);
            assert!(uninit.iter().zip(&lines).all(|(r, l)| l.contains('x')
                || l.split_whitespace().count() != 5
                || r == &Err("no scheduler; run 'init N' first".to_string())));
            batched.exec("init 8 10 400 10").unwrap();
            sequential.exec("init 8 10 400 10").unwrap();
            let a = batched.exec_batch(&lines);
            let b: Vec<Result<String, String>> = lines.iter().map(|l| sequential.exec(l)).collect();
            assert_eq!(a, b, "shards={shards}");
            let a = batched.exec_batch(&mixed);
            let b: Vec<Result<String, String>> = mixed.iter().map(|l| sequential.exec(l)).collect();
            assert_eq!(a, b, "shards={shards}");
        }
    }

    /// A panic costs exactly its segment: each of its lines is answered
    /// with the internal error and counted once, and the lines before and
    /// after it keep the replies they get without it.
    #[test]
    fn a_panicking_segment_costs_only_its_own_lines() {
        let panics = || obs::metrics::counter("net_exec_panics_total").get();
        let script = [
            "init 4 10 200 10",
            "submit 0 0 50 2",
            "submit 0 0 50 2",
            "check",
        ];
        let doomed = ["submit 0 0 50 1", "submit 0 60 50 1"];
        let mut s = Session::new(1);
        let before = panics();
        let mut out = s.exec_batch(&script[..2]);
        out.extend(guarded(&doomed, || panic!("injected")));
        out.extend(s.exec_batch(&script[2..]));
        assert_eq!(panics() - before, 1);
        let internal = Err("internal error: command panicked (see server log)".to_string());
        let mut expect = Session::new(1).exec_batch(&script);
        expect.splice(2..2, doomed.map(|_| internal.clone()));
        assert_eq!(out, expect);
    }

    #[test]
    fn run_script_matches_line_by_line_exec() {
        let script = "init 4 10 200 10\nsubmit 0 0 50 2\nbogus\nexit\nsubmit 0 0 50 1\n";
        let mut s = Session::new(1);
        let out = s.run_script(script);
        assert!(out.starts_with("ok 4 servers\ngranted job=0"));
        assert!(out.contains("error: unknown command"));
        assert!(!out.contains("job=1"), "lines after exit must not run");
    }
}
