//! The event-driven TCP front-end.
//!
//! Threading model (DESIGN.md §10): one **I/O event-loop thread** (the
//! private `event` module) owns the listener and multiplexes *every*
//! connection over `poll(2)`: it admits connections, frames whole
//! pipelined bursts of lines per readiness round and crosses the bounded
//! scheduler queue **once per burst**, not once per line. The single
//! **scheduler thread** owns the [`Session`], flattens incoming batches
//! into one arrival-ordered run queue, and answers it one *pass* at a time
//! — one [`Session::exec_batch`] call over the queued lines, in order —
//! which is what keeps the server's decisions deterministic and every
//! per-session reply stream byte-identical to the same script on stdin
//! (replies are resequenced per connection on the way out; see
//! `event.rs`).
//!
//! Admission control happens at both bounded edges: past `max_conns` the
//! event loop sheds at accept with [`BUSY_REPLY`]; a full command queue
//! sheds every line of the rejected burst with [`BUSY_REPLY`] instead of
//! queueing unboundedly (`net_shed_total`). Slow or hostile clients are
//! bounded by the per-line read deadline (anti-slow-loris), the idle
//! timeout, the write-stall timeout and the maximum line length — all
//! enforced by poll deadlines, so one hostile client never ties up the
//! loop.
//!
//! [`BUSY_REPLY`]: proto::BUSY_REPLY

use crate::admin::{AdminPlane, AdminState};
use crate::event::{self, Batch, ConnToken, Done, IoSender};
use crate::proto;
use crate::session::Session;
use crate::slow;
use crate::stage::{Released, Stamps};
use coalloc_wal::{Wal, WalConfig, WalError};
use obs::{LazyCounter, LazyGauge, LazyHistogram};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) static CONNECTIONS: LazyCounter = LazyCounter::new("net_connections_total");
pub(crate) static ACTIVE: LazyGauge = LazyGauge::new("net_conns_active");
pub(crate) static LINES: LazyCounter = LazyCounter::new("net_lines_total");
pub(crate) static REPLIES: LazyCounter = LazyCounter::new("net_replies_total");
pub(crate) static SHED: LazyCounter = LazyCounter::new("net_shed_total");
pub(crate) static SHED_ACCEPT: LazyCounter = LazyCounter::new("net_shed_accept_total");
pub(crate) static SHED_QUEUE: LazyCounter = LazyCounter::new("net_shed_queue_total");
pub(crate) static ERRORS: LazyCounter = LazyCounter::new("net_errors_total");
pub(crate) static CONN_PANICS: LazyCounter = LazyCounter::new("net_conn_panics_total");
static WAL_REPLAYED: LazyCounter = LazyCounter::new("wal_recovery_replayed_total");
static WAL_FLUSH_FAILURES: LazyCounter = LazyCounter::new("wal_flush_failures_total");
/// Batches currently sitting in the bounded scheduler queue (the queue's
/// unit is one pipelined read burst, not one line). Incremented by the
/// enqueuing I/O loop, decremented by the scheduler's dequeue, so the
/// admin plane's `/readyz` can compare it against the queue bound.
pub(crate) static QUEUE_DEPTH: LazyGauge = LazyGauge::new("net_queue_depth");
/// Lines per queue crossing: how many complete lines one I/O readiness
/// round framed and shipped to the scheduler as a single batch. The
/// event-loop analogue of syscall batching — higher is cheaper.
pub(crate) static READ_BATCH_LINES: LazyHistogram = LazyHistogram::new("net_read_batch_lines");

/// Configuration of a [`Server`]. The defaults suit an interactive
/// deployment; load tests shrink the timeouts and raise `max_conns`.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Address to bind, e.g. `127.0.0.1:7077` (port 0 picks a free port).
    pub addr: String,
    /// Bound of the batch queue between the I/O loop and the scheduler
    /// thread, in *batches* (one batch = one pipelined read burst).
    pub queue_depth: usize,
    /// Maximum concurrently admitted connections. Connections beyond it
    /// are shed at accept with [`BUSY_REPLY`](proto::BUSY_REPLY).
    pub max_conns: usize,
    /// Maximum accepted line length in bytes (newline excluded).
    pub max_line: usize,
    /// Per-connection read deadline, applied twice: a connection idle this
    /// long is closed (`error: idle timeout`), and a line still unfinished
    /// this long after its first byte is closed (`error: line timeout`,
    /// the anti-slow-loris bound).
    pub read_timeout: Duration,
    /// How long a connection's reply buffer may sit unaccepted by the
    /// socket (client not reading) before the connection is dropped.
    pub write_timeout: Duration,
    /// Shard count handed to the session: which engine `init` (and a
    /// recovery or `load`) builds — 1 = the single scheduler. An execution
    /// strategy only: every command is served at every count.
    pub shards: u32,
    /// Test hook: artificial delay before each command execution, to make
    /// queue buildup reproducible in shed/backpressure tests.
    #[doc(hidden)]
    pub exec_delay: Duration,
    /// Test hook: when set, [`NetConfig::exec_delay`] applies only to lines
    /// containing this substring, so a test can stall one chosen command
    /// and assert it lands in the slow-request capture while its neighbours
    /// do not. `None` (the default) delays every command as before.
    #[doc(hidden)]
    pub stall_substr: Option<String>,
    /// Durability: when set, every mutating command is appended to a
    /// write-ahead log and fsynced *before* its reply is released, and
    /// [`Server::bind`] recovers the previous state from that log
    /// (DESIGN.md §13). `None` (the default) keeps the server volatile.
    pub wal: Option<WalOptions>,
    /// Address for the admin HTTP plane (`/metrics`, `/healthz`, `/readyz`,
    /// `/status`, `/debug/slow`), e.g. `127.0.0.1:9090` (port 0 picks a
    /// free port). `None` (the default) serves no admin plane. The plane is
    /// non-normative and operator-facing (DESIGN.md §8); it binds only
    /// after WAL recovery finished, so a reachable `/readyz` never shows a
    /// half-recovered scheduler.
    pub admin_addr: Option<String>,
    /// End-to-end latency above which a request's full stage timeline is
    /// retained in the slow-request ring (`GET /debug/slow`, the `slow`
    /// command). Shed and errored requests are always captured.
    /// `Duration::ZERO` disables latency-based capture.
    pub slow_threshold: Duration,
    /// Capacity of the slow-request ring; the oldest record is dropped
    /// when a new capture would exceed it.
    pub slow_capacity: usize,
}

/// Write-ahead-log configuration for a durable [`Server`].
#[derive(Clone, Debug)]
pub struct WalOptions {
    /// Directory holding segment and snapshot files (created if missing).
    pub dir: PathBuf,
    /// Group-commit bound: a reply waits at most this long for its fsync
    /// batch. `Duration::ZERO` (the default) flushes adaptively — as soon
    /// as the command queue goes momentarily idle — which batches under
    /// load without adding any fixed latency.
    pub flush_interval: Duration,
    /// Install a snapshot and truncate replayed history every this many
    /// logged records (0 disables snapshotting).
    pub snapshot_every: u64,
    /// Byte size at which the active segment file rolls over.
    pub segment_bytes: u64,
}

impl WalOptions {
    /// Durability with default batching (adaptive flush, snapshot every
    /// 4096 records, 8 MiB segments).
    pub fn new(dir: impl Into<PathBuf>) -> WalOptions {
        WalOptions {
            dir: dir.into(),
            flush_interval: Duration::ZERO,
            snapshot_every: 4096,
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 64,
            max_conns: 4096,
            max_line: crate::proto::DEFAULT_MAX_LINE,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            shards: 1,
            exec_delay: Duration::ZERO,
            stall_substr: None,
            wal: None,
            admin_addr: None,
            slow_threshold: Duration::from_micros(slow::DEFAULT_THRESHOLD_US),
            slow_capacity: slow::DEFAULT_CAPACITY,
        }
    }
}

/// A running TCP server. Dropping it (or calling [`Server::shutdown`])
/// drains gracefully: stop accepting, finish in-flight commands, flush
/// every owed reply, join all threads.
///
/// ```no_run
/// use coalloc_net::{NetConfig, Server};
///
/// let server = Server::bind(NetConfig::default()).unwrap();
/// println!("listening on {}", server.local_addr());
/// // ... serve until shutdown ...
/// server.shutdown();
/// ```
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    io: Option<(JoinHandle<()>, IoSender)>,
    sched_handle: Option<JoinHandle<()>>,
    admin: Option<AdminPlane>,
}

impl Server {
    /// Bind `cfg.addr` and spawn the I/O event loop and the scheduler
    /// thread. Returns once the listener is live
    /// (connections race no startup window). With `cfg.wal` set, the
    /// previous state is recovered from the log first; a corrupt or
    /// diverging log fails the bind rather than silently serving from a
    /// wrong state.
    pub fn bind(cfg: NetConfig) -> std::io::Result<Server> {
        // Recover (or start fresh) before the listener exists, so no client
        // can observe a half-recovered scheduler.
        let (session, wal) = match cfg.wal.clone() {
            Some(opts) => {
                let (wal, session) = recover(&opts, cfg.shards)?;
                (session, Some((wal, opts)))
            }
            None => (Session::new(cfg.shards), None),
        };

        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        // Latency attribution and tail capture are live from request one.
        crate::stage::register();
        slow::configure(
            cfg.slow_threshold.as_micros() as u64,
            cfg.slow_capacity.max(1),
        );

        // The admin plane binds after recovery (above) so a reachable
        // `/readyz` implies the WAL replay already finished.
        let admin_state = match &cfg.admin_addr {
            Some(addr) => {
                let state = Arc::new(AdminState::new(
                    cfg.shards,
                    cfg.queue_depth.max(1),
                    wal.is_some(),
                    cfg.slow_threshold.as_micros() as u64,
                    Arc::clone(&stop),
                ));
                Some((addr.clone(), state))
            }
            None => None,
        };
        let admin = match &admin_state {
            Some((addr, state)) => Some(AdminPlane::spawn(addr, Arc::clone(state))?),
            None => None,
        };

        // The I/O event loop owns the listener and every connection; it
        // holds the only batch sender, so the scheduler exits once it is
        // gone.
        let (job_tx, job_rx) = mpsc::sync_channel::<Batch>(cfg.queue_depth.max(1));
        let (io_handle, io) = event::spawn_io_loop(listener, &cfg, job_tx, Arc::clone(&stop))?;

        // The scheduler thread: sole owner of the session; executes command
        // lines strictly in queue-arrival order. A failed spawn stops and
        // wakes the I/O loop, then aborts the bind.
        let ctx = SchedCtx {
            exec_delay: cfg.exec_delay,
            stall_substr: cfg.stall_substr.clone(),
            admin: admin_state.map(|(_, state)| state),
        };
        let comps = Completions {
            io: io.clone(),
            done: Vec::new(),
            stages: Released::default(),
        };
        let sched_handle = match std::thread::Builder::new()
            .name("coalloc-net-sched".into())
            .spawn(move || scheduler_loop(job_rx, session, ctx, wal, comps))
        {
            Ok(h) => h,
            Err(e) => {
                stop.store(true, Ordering::SeqCst);
                io.wake();
                let _ = io_handle.join();
                return Err(e);
            }
        };

        Ok(Server {
            local_addr,
            stop,
            io: Some((io_handle, io)),
            sched_handle: Some(sched_handle),
            admin,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound admin-plane address, if [`NetConfig::admin_addr`] was set
    /// (resolves port 0 to the actual port).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(|a| a.addr)
    }

    /// Graceful drain: stop accepting, let every connection's in-flight
    /// commands finish and their replies flush, then join every thread.
    /// Safe to call more than once.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the I/O loop so it observes `stop` and enters drain mode:
        // drop the listener, stop reading, finish flushing owed replies,
        // close, exit. The scheduler keeps answering its in-flight batches
        // meanwhile.
        if let Some((handle, io)) = self.io.take() {
            io.wake();
            let _ = handle.join();
        }
        // The loop held the only batch sender, so the scheduler's next
        // recv disconnects once the queued batches are drained (durable
        // mode takes its shutdown fsync on the way out).
        if let Some(h) = self.sched_handle.take() {
            let _ = h.join();
        }
        // The admin plane goes last: it can report "not ready: draining"
        // right up until the command path is fully drained.
        if let Some(admin) = self.admin.as_mut() {
            admin.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Map a WAL failure to the bind error surface.
fn wal_io(e: WalError) -> std::io::Error {
    match e {
        WalError::Io(e) => e,
        corrupt => std::io::Error::new(ErrorKind::InvalidData, corrupt.to_string()),
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// Largest number of queued lines one scheduler pass answers (bounds
/// reply-latency spread within a pass; the queue bound usually bites
/// first).
const PASS_MAX: usize = 256;

/// Open the WAL and rebuild the session it describes: install the newest
/// snapshot on the engine `shards` selects (the image does not depend on
/// the shard count that wrote it), then re-execute the logged commands in
/// order, verifying that every decision comes out byte-identical to the
/// logged reply. Divergence means the log does not describe this code's
/// behaviour (corruption or a cross-version restart) and refuses the
/// recovery.
fn recover(opts: &WalOptions, shards: u32) -> std::io::Result<(Wal, Session)> {
    let span = obs::trace::span("wal_recovery");
    let mut wcfg = WalConfig::new(&opts.dir);
    wcfg.segment_bytes = opts.segment_bytes.max(1);
    let (wal, recovery) = Wal::open(wcfg).map_err(wal_io)?;
    let mut session = Session::new(shards);
    if let Some(snap) = &recovery.snapshot {
        let text =
            std::str::from_utf8(snap).map_err(|_| invalid("wal: snapshot is not UTF-8".into()))?;
        session
            .restore(text)
            .map_err(|e| invalid(format!("wal: snapshot rejected: {e}")))?;
    }
    for (i, record) in recovery.records.iter().enumerate() {
        let text = std::str::from_utf8(record)
            .map_err(|_| invalid(format!("wal: record {i} is not UTF-8")))?;
        let (line, logged_reply) = text
            .split_once('\n')
            .ok_or_else(|| invalid(format!("wal: record {i} has no reply separator")))?;
        let replayed = session
            .exec_batch(&[line])
            .pop()
            .expect("one line, one result")
            .map_err(|e| invalid(format!("wal: record {i} ({line:?}) failed on replay: {e}")))?;
        if replayed != logged_reply {
            return Err(invalid(format!(
                "wal: replay divergence at record {i} ({line:?}): \
                 recovered scheduler answered {replayed:?}, log has {logged_reply:?}"
            )));
        }
    }
    WAL_REPLAYED.add(recovery.records.len() as u64);
    drop(span);
    Ok((wal, session))
}

/// The scheduler's line back to the I/O loop: the replies released since
/// the last wake travel as one message, sent with the wake — once per pass
/// and once per fsync release, not once per reply.
struct Completions {
    io: IoSender,
    /// Replies released since the last wake, in release order.
    done: Vec<Done>,
    /// Their stage stamps, recorded a run at a time.
    stages: Released,
}

impl Completions {
    /// Release one reply, stamped `released`, to the I/O loop — the one
    /// place a [`Done`] is built. A dead connection just drops the reply
    /// there; the command's effect stands (documented at-most-once reply
    /// delivery).
    fn release(&mut self, mut item: Item, text: String, released: Instant) {
        item.stamps.released = Some(released);
        self.stages.push(&item.stamps);
        self.done.push(Done {
            slot: item.token.slot,
            gen: item.token.gen,
            seq: item.seq,
            line: item.line,
            text,
            stamps: item.stamps,
            shed: false,
        });
    }

    /// Send what was released since the last wake, and wake the loop.
    fn wake(&mut self) {
        if self.done.is_empty() {
            return;
        }
        self.stages.flush();
        self.io.send(std::mem::take(&mut self.done));
        self.io.wake();
    }
}

/// One command line on the scheduler's flattened run queue, with the
/// addressing it needs to route the reply back ([`ConnToken`] + per-conn
/// sequence number).
struct Item {
    token: ConnToken,
    seq: u64,
    line: String,
    stamps: Stamps,
}

/// Flatten one queue batch onto the run queue, stamping its dequeue, and
/// take over its queue accounting (the gauge counts batches).
fn ingest(batch: Batch, q: &mut VecDeque<Item>) {
    QUEUE_DEPTH.add(-1);
    let token = batch.token;
    let stamps = Stamps {
        dequeued: Some(Instant::now()),
        ..batch.stamps
    };
    q.extend(batch.lines.into_iter().map(|l| Item {
        token,
        seq: l.seq,
        line: l.line,
        stamps,
    }));
}

/// Largest fsync batch: bounds how much reply latency one flush can carry.
const MAX_BATCH: usize = 512;

/// Where decided commands go: their replies straight to the connection's
/// I/O loop, or — a mutating command under a write-ahead log — into the log
/// first, the reply withheld until an fsync covers its record (group
/// commit). Without a log nothing is ever withheld.
struct Outbox {
    comps: Completions,
    wal: Option<(Wal, WalOptions)>,
    /// Replies withheld until their WAL record is fsynced.
    pending: Vec<(Item, String)>,
    /// When the oldest of them was withheld.
    oldest: Instant,
}

impl Outbox {
    /// Answer `item` with the WAL failure that kept it from being made
    /// durable: its effect may stand in memory, but a client must never
    /// read an `ok`/`granted` that could vanish in a crash. The reply is
    /// released at once, stamped `decided`.
    fn refuse(&mut self, item: Item, decided: Instant, what: &str, e: WalError) {
        WAL_FLUSH_FAILURES.inc();
        eprintln!("coalloc-net: wal {what} failed: {e}");
        self.comps
            .release(item, format!("error: wal {what} failed: {e}"), decided);
    }

    /// Route the outcome of a decided command. Errors changed nothing and
    /// without a log nothing can be made durable, so those are released at
    /// once, like the replies of non-mutating commands. `load` replaced the
    /// whole state from an external file a replay could not re-read: it is
    /// persisted as a snapshot (which first syncs every earlier record),
    /// never as a log record. Every other mutating command is appended to
    /// the log and its reply withheld until the next [`Self::flush`].
    /// `decided` is the end of the pass that decided `item`: the release
    /// stamp of every reply it does not withhold.
    fn complete(
        &mut self,
        mut item: Item,
        result: Result<String, String>,
        session: &Session,
        decided: Instant,
    ) {
        item.stamps.decided = Some(decided);
        let (reply, wal) = match (result, &mut self.wal) {
            (Err(e), _) => return self.comps.release(item, format!("error: {e}"), decided),
            (Ok(reply), None) => return self.comps.release(item, reply, decided),
            (Ok(reply), Some((wal, _))) => (reply, wal),
        };
        let verb = item.line.split_whitespace().next().unwrap_or("");
        if !proto::mutating(verb) {
            return self.comps.release(item, reply, decided);
        }
        if verb == "load" {
            let image = session.snapshot_text().expect("load installed a scheduler");
            return match wal.install_snapshot(image.as_bytes()) {
                Ok(()) => {
                    self.flush(); // the records before it are durable; release
                    self.comps.release(item, reply, Instant::now())
                }
                Err(e) => self.refuse(item, decided, "snapshot install", e),
            };
        }
        let mut payload = Vec::with_capacity(item.line.len() + 1 + reply.len());
        payload.extend_from_slice(item.line.as_bytes());
        payload.push(b'\n');
        payload.extend_from_slice(reply.as_bytes());
        match wal.append(&payload) {
            Ok(()) => {
                if self.pending.is_empty() {
                    self.oldest = Instant::now();
                }
                self.pending.push((item, reply));
                if self.pending.len() >= MAX_BATCH {
                    self.flush();
                }
            }
            Err(e) => self.refuse(item, decided, "append", e),
        }
    }

    /// Sync the WAL tail and release every withheld reply — the fsync is
    /// what releases them: decision → here is the WAL stall each of them
    /// paid. On fsync failure the commands stay applied in memory but their
    /// replies become errors.
    fn flush(&mut self) {
        let Some((wal, _)) = &mut self.wal else {
            return;
        };
        if self.pending.is_empty() && wal.unsynced_records() == 0 {
            return;
        }
        let failed = wal.sync().err().map(|e| {
            WAL_FLUSH_FAILURES.inc();
            eprintln!("coalloc-net: wal sync failed: {e}");
            format!("error: wal sync failed: {e}")
        });
        let released = Instant::now();
        for (item, reply) in self.pending.drain(..) {
            self.comps
                .release(item, failed.clone().unwrap_or(reply), released);
        }
        self.comps.wake();
    }

    /// Install a fresh snapshot once enough records accumulated since the
    /// last one, truncating the replayed prefix of the log.
    fn maybe_snapshot(&mut self, session: &Session) {
        let Some((wal, opts)) = &mut self.wal else {
            return;
        };
        if opts.snapshot_every == 0 || wal.records_since_snapshot() < opts.snapshot_every {
            return;
        }
        let Some(text) = session.snapshot_text() else {
            return;
        };
        if let Err(e) = wal.install_snapshot(text.as_bytes()) {
            WAL_FLUSH_FAILURES.inc();
            eprintln!("coalloc-net: wal snapshot install failed: {e}");
        }
    }
}

/// Scheduler-thread context beyond the session itself: test stall hooks
/// and the shared admin-plane state it periodically refreshes.
struct SchedCtx {
    exec_delay: Duration,
    stall_substr: Option<String>,
    admin: Option<Arc<AdminState>>,
}

/// How often the scheduler thread refreshes the admin plane's
/// capacity/utilization cells (they need `&mut` session access, so only
/// this thread can compute them).
const STATUS_REFRESH: Duration = Duration::from_millis(100);

impl SchedCtx {
    /// Apply the test stall, if configured for this line.
    fn maybe_stall(&self, line: &str) {
        if self.exec_delay.is_zero() {
            return;
        }
        match &self.stall_substr {
            Some(s) if !line.contains(s.as_str()) => {}
            _ => std::thread::sleep(self.exec_delay),
        }
    }

    /// Push the session's capacity/utilization into the admin snapshot if
    /// one exists and the last refresh is stale.
    fn maybe_refresh(&self, session: &Session, last: &mut Instant) {
        let Some(admin) = &self.admin else { return };
        if last.elapsed() < STATUS_REFRESH {
            return;
        }
        *last = Instant::now();
        if let Some((servers, now_secs, util)) = session.probe_status() {
            admin.servers.store(servers as u64, Ordering::Relaxed);
            admin
                .now_secs
                .store(now_secs.max(0) as u64, Ordering::Relaxed);
            admin.util_ppm.store(
                (util.clamp(0.0, 1.0) * 1_000_000.0) as u64,
                Ordering::Relaxed,
            );
            admin.initialized.store(true, Ordering::Relaxed);
        }
    }
}

/// The scheduler thread: execute the queued command lines strictly in
/// arrival order and route each outcome through the [`Outbox`].
///
/// Each turn of the loop is one *pass*: up to [`PASS_MAX`] queued lines —
/// within one pipelined burst or across connections — answered by one
/// [`Session::exec_batch`] call (which decides each run of submits as one
/// scheduler batch), then one wake of the I/O loop. Under a write-ahead
/// log the replies of mutating commands are withheld until an fsync covers
/// them, and a flush happens when the queue goes idle (adaptive), when the
/// oldest withheld reply has waited `flush_interval`, or when the fsync
/// batch is full. With nothing withheld — always, without a log — the
/// thread simply blocks for work.
fn scheduler_loop(
    rx: Receiver<Batch>,
    mut session: Session,
    ctx: SchedCtx,
    wal: Option<(Wal, WalOptions)>,
    comps: Completions,
) {
    let flush_interval = wal
        .as_ref()
        .map_or(Duration::ZERO, |(_, o)| o.flush_interval);
    let mut out = Outbox {
        comps,
        wal,
        pending: Vec::new(),
        oldest: Instant::now(),
    };
    let mut last_refresh = Instant::now() - STATUS_REFRESH;
    let mut q: VecDeque<Item> = VecDeque::new();
    let mut pass: Vec<Item> = Vec::new();
    let mut connected = true;
    loop {
        if q.is_empty() {
            if !connected {
                break;
            }
            // `Err(disconnected)`: nothing arrived in the time allowed.
            let got = if out.pending.is_empty() {
                rx.recv().map_err(|_| true)
            } else if flush_interval.is_zero() {
                rx.try_recv()
                    .map_err(|e| e == mpsc::TryRecvError::Disconnected)
            } else {
                match flush_interval.checked_sub(out.oldest.elapsed()) {
                    Some(left) => rx
                        .recv_timeout(left)
                        .map_err(|e| e == mpsc::RecvTimeoutError::Disconnected),
                    None => Err(false),
                }
            };
            match got {
                Ok(b) => ingest(b, &mut q),
                Err(disconnected) => {
                    connected &= !disconnected;
                    out.flush();
                    out.maybe_snapshot(&session);
                    ctx.maybe_refresh(&session, &mut last_refresh);
                    continue;
                }
            }
        }
        // Greedy top-up: everything already queued joins this pass, so
        // bursts arriving while we executed batch up rather than
        // trickling through one by one.
        while connected {
            match rx.try_recv() {
                Ok(b) => ingest(b, &mut q),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => connected = false,
            }
        }
        // A pass ends right after a `load`: its outcome is logged as a
        // snapshot of the session as that `load` left it.
        while pass.len() < PASS_MAX {
            let Some(it) = q.pop_front() else { break };
            let load = it.line.split_whitespace().next() == Some("load");
            pass.push(it);
            if load {
                break;
            }
        }
        for it in &pass {
            ctx.maybe_stall(&it.line);
        }
        // One call decides the whole pass; under a log each line then gets
        // its own record, in order, and the adaptive flush covers them all
        // with a single fsync.
        let lines: Vec<&str> = pass.iter().map(|i| i.line.as_str()).collect();
        let results = session.exec_batch(&lines);
        // One decision stamp for the whole pass: every line's sched stage
        // spans the pass.
        let decided = Instant::now();
        ctx.maybe_refresh(&session, &mut last_refresh);
        for (it, result) in pass.drain(..).zip(results) {
            out.complete(it, result, &session, decided);
        }
        out.comps.wake();
    }
    // Graceful drain: the I/O loop is gone, but every acknowledged
    // command must be durable before the thread exits — the shutdown fsync.
    out.flush();
}
