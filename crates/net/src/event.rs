//! The event-driven connection plane: one readiness loop on one I/O
//! thread, owning the listener and every nonblocking connection
//! (DESIGN.md §10).
//!
//! The I/O thread runs a `poll(2)` loop (via `coalloc-poller`, the
//! workspace's only unsafe code) over the listener, its connections and a
//! self-pipe. The loop:
//!
//! 1. **accepts** until `WouldBlock`: a connection is registered while
//!    fewer than `max_conns` are open, and shed at the edge with
//!    [`BUSY_REPLY`] and a close otherwise;
//! 2. **reads** into a per-connection buffer until a short read (the
//!    socket is drained; poll re-reports anything that arrives later) and
//!    copies *every complete line* into one burst buffer — a whole
//!    pipelined burst becomes one [`Batch`] and crosses the bounded
//!    scheduler queue **once**, which is what feeds `Session::exec_into`
//!    real batch sizes;
//! 3. **resequences** completions — they arrive as one message per
//!    scheduler pass or fsync release, each a [`Done`] *run* of lines with
//!    consecutive sequence numbers and one reply buffer: runs can come back
//!    out of order per connection (the WAL withholds mutating replies for
//!    their group-commit fsync while read-only replies release
//!    immediately), so the loop holds a run back until every earlier line
//!    is written — the reply stream stays byte-identical to the same
//!    script on stdin;
//! 4. **writes** replies from a per-connection buffer, many replies per
//!    syscall; a slow reader leaves bytes buffered, the loop switches that
//!    fd to writable-readiness (`POLLOUT`) and stops reading from it once
//!    the buffer passes a high-water mark — natural pipelining
//!    backpressure, bounded by the write timeout.
//!
//! Wakeups from outside the loop (completions from the scheduler thread,
//! the drain signal) arrive as one byte on the self-pipe, so the loop
//! never spins and never misses work. On drain the loop drops the
//! listener, so new connects are refused, and closes each connection once
//! every reply it is owed has been written.
//!
//! Timeouts are poll-deadline driven: a partial line older than the read
//! timeout is cut off (`error: line timeout`, anti-slow-loris), a
//! connection with nothing in flight and nothing buffered for longer than
//! the read timeout is reaped (`error: idle timeout`), and a connection
//! whose reply buffer has not accepted a byte for the write timeout is
//! dropped. Terminal errors are written *after* every outstanding reply —
//! the reply stream stays complete up to the error.

use crate::proto::BUSY_REPLY;
use crate::server::{
    NetConfig, ACTIVE, CONNECTIONS, CONN_PANICS, ERRORS, LINES, QUEUE_DEPTH, READ_BATCH_LINES,
    REPLIES, SHED, SHED_ACCEPT, SHED_QUEUE,
};
use crate::session::Session;
use crate::slow;
use crate::stage::{Stamps, Written};
use coalloc_poller::{poll, PollFd, POLLIN, POLLOUT};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most bytes read from one connection per readiness round, so one
/// firehosing client cannot starve its loop siblings. Level-triggered
/// polling re-reports the fd immediately, so nothing is lost.
const READ_ROUND_MAX: usize = 256 * 1024;

/// Reply-buffer high-water mark: past this many unwritten bytes the loop
/// stops *reading* from the connection (backpressure on pipelining) until
/// the client drains its replies.
const WBUF_PAUSE_READS: usize = 256 * 1024;

/// Identifies one registered connection to the scheduler thread. The
/// generation guards against slot reuse: a completion for a connection
/// that died and whose slot was recycled is dropped, never cross-delivered.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConnToken {
    pub slot: usize,
    pub gen: u64,
}

/// A whole pipelined read slice from one connection: the unit that crosses
/// the bounded scheduler queue. One queue crossing per read burst, however
/// many lines it framed, and one set of stage stamps for all of them. The
/// lines travel as one buffer, each ended by `\n`; line `k` has the
/// per-connection sequence number (reply-ordering identity)
/// `first_seq + k`.
pub(crate) struct Batch {
    pub token: ConnToken,
    pub stamps: Stamps,
    pub first_seq: u64,
    pub lines: usize,
    pub text: Arc<String>,
}

/// A *run* of completed lines travelling back from the scheduler thread to
/// the connection's I/O loop (or synthesized loop-locally for queue sheds):
/// consecutive lines of one burst, with consecutive sequence numbers from
/// `first_seq` and one set of stamps. `bytes` holds their replies' wire
/// bytes; a comment or blank line puts none there.
pub(crate) struct Done {
    pub slot: usize,
    pub gen: u64,
    pub first_seq: u64,
    /// The burst's lines; the run's first starts at byte `text_start`.
    /// Read only for the slow ring.
    pub text: Arc<String>,
    pub text_start: usize,
    pub bytes: String,
    /// Where each line's reply ends in `bytes`.
    pub ends: Vec<usize>,
    pub stamps: Stamps,
    pub shed: bool,
}

impl Done {
    pub(crate) fn lines(&self) -> usize {
        self.ends.len()
    }

    /// Each line's reply bytes, `\n` included.
    fn replies(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let reply = &self.bytes[start..end];
            start = end;
            reply
        })
    }
}

/// A handle to the I/O loop: the completion channel plus the self-pipe
/// writer that wakes the loop after a send (or to observe a drain). One
/// message carries every completion of a scheduler pass or fsync release,
/// in release order.
#[derive(Clone)]
pub(crate) struct IoSender {
    done_tx: Sender<Vec<Done>>,
    wake: Arc<UnixStream>,
}

impl IoSender {
    pub(crate) fn send(&self, done: Vec<Done>) {
        let _ = self.done_tx.send(done);
    }

    /// One byte on the self-pipe; a full pipe means a wakeup is already
    /// pending, so the `WouldBlock` is ignored.
    pub(crate) fn wake(&self) {
        let _ = (&*self.wake).write(&[1u8]);
    }
}

/// Spawn the I/O event loop over `listener`. The loop's own count of open
/// connections is what admission control compares against `max_conns`.
pub(crate) fn spawn_io_loop(
    listener: TcpListener,
    cfg: &NetConfig,
    job_tx: SyncSender<Batch>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<(JoinHandle<()>, IoSender)> {
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let (done_tx, done_rx) = mpsc::channel::<Vec<Done>>();

    let mut state = IoLoop {
        cfg: cfg.clone(),
        listener: Some(listener),
        job_tx,
        stop,
        wake_rx,
        done_rx,
        conns: Vec::new(),
        free: Vec::new(),
        open: 0,
        next_gen: 0,
    };
    let join = std::thread::Builder::new()
        .name("coalloc-net-io".into())
        .spawn(move || {
            // Shed-and-log: a panic here takes every connection down (they
            // have no other thread to live on); the counter makes it
            // visible, and the scheduler drains what was already queued.
            if std::panic::catch_unwind(AssertUnwindSafe(|| state.run())).is_err() {
                CONN_PANICS.inc();
                ERRORS.inc();
                eprintln!("coalloc-net: io loop panicked, its connections are lost");
            }
        })?;
    let wake = Arc::new(wake_tx);
    Ok((join, IoSender { done_tx, wake }))
}

fn next_conn_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One registered connection's full state.
struct Conn {
    stream: TcpStream,
    gen: u64,
    /// Process-wide connection id (slow-capture identity, trace field).
    id: u64,
    /// Unparsed bytes read so far (at most a partial line after framing).
    rbuf: Vec<u8>,
    /// Reply bytes not yet accepted by the socket, `wpos` already written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Next sequence number to assign to a framed line.
    next_seq: u64,
    /// Next sequence number whose reply may go on the wire.
    next_write_seq: u64,
    /// Lines handed to the scheduler whose completion has not come back.
    inflight: usize,
    /// Runs that arrived ahead of `next_write_seq` (WAL-withheld
    /// neighbours still pending): released in order as the gap fills.
    heldback: Vec<Done>,
    /// Runs appended to `wbuf` this round, awaiting their post-flush
    /// stage stamp + tail capture.
    applied: Vec<Done>,
    /// A terminal error line (timeout / too-long), written only after
    /// every outstanding reply so the stream stays complete up to it.
    trailer: Option<String>,
    /// When the current partial line started arriving (anti-slow-loris).
    line_start: Option<Instant>,
    /// Last byte received (idle-reap deadline).
    last_activity: Instant,
    /// Since when the socket has refused reply bytes (write-stall cutoff).
    write_stalled_since: Option<Instant>,
    read_closed: bool,
    /// Unrecoverable (I/O error, write timeout): torn down immediately.
    dead: bool,
    /// Keeps the `net_conn` trace span open for the connection's lifetime.
    _span: obs::trace::SpanGuard,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64, id: u64, now: Instant) -> Conn {
        Conn {
            stream,
            gen,
            id,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            next_write_seq: 0,
            inflight: 0,
            heldback: Vec::new(),
            applied: Vec::new(),
            trailer: None,
            line_start: None,
            last_activity: now,
            write_stalled_since: None,
            read_closed: false,
            dead: false,
            _span: obs::trace::span_fields("net_conn", vec![("id", obs::Value::U64(id))]),
        }
    }

    fn has_unwritten(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Nothing owed to this client and nothing expected from it.
    fn fully_drained(&self) -> bool {
        self.inflight == 0
            && self.heldback.is_empty()
            && self.trailer.is_none()
            && !self.has_unwritten()
    }

    /// Accept one run, releasing it and any unblocked successors in
    /// sequence order; returns how many replies went into the write buffer.
    /// Every framed line belongs to exactly one run, so the resequencer
    /// can never deadlock on a gap.
    fn accept_done(&mut self, done: Done) -> u64 {
        if done.first_seq != self.next_write_seq {
            self.heldback.push(done);
            return 0;
        }
        let mut replies = self.apply(done);
        while let Some(pos) = self
            .heldback
            .iter()
            .position(|h| h.first_seq == self.next_write_seq)
        {
            let next = self.heldback.swap_remove(pos);
            replies += self.apply(next);
        }
        replies
    }

    /// Append one in-order run to the write buffer; returns how many of
    /// its replies put bytes on the wire.
    fn apply(&mut self, done: Done) -> u64 {
        self.next_write_seq = done.first_seq + done.lines() as u64;
        self.wbuf.extend_from_slice(done.bytes.as_bytes());
        let wrote = done.replies().filter(|r| !r.is_empty()).count() as u64;
        self.applied.push(done);
        wrote
    }

    /// Write as much of `wbuf` as the socket accepts right now. Many
    /// buffered replies leave in one syscall; a partial write arms the
    /// write-stall clock and the caller's `POLLOUT` interest.
    fn try_flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.write_stalled_since = None;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if self.write_stalled_since.is_none() {
                        self.write_stalled_since = Some(Instant::now());
                    }
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            self.write_stalled_since = None;
        } else if self.wpos > 64 * 1024 {
            // Reclaim the written prefix so a long-lived slow reader does
            // not pin an ever-growing buffer.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// The earliest instant at which this connection needs attention even
    /// without socket readiness (line deadline, idle reap, write stall).
    fn deadline(&self, cfg: &NetConfig) -> Option<Instant> {
        let mut d: Option<Instant> = None;
        let mut push = |t: Instant| d = Some(d.map_or(t, |c: Instant| c.min(t)));
        if let Some(since) = self.write_stalled_since {
            push(since + cfg.write_timeout);
        }
        if !self.read_closed {
            if let Some(t0) = self.line_start {
                push(t0 + cfg.read_timeout);
            } else if self.fully_drained() {
                push(self.last_activity + cfg.read_timeout);
            }
        }
        d
    }
}

/// The event loop. All state is owned; the only shared pieces are the
/// stop flag, the wake pipe and the channels.
struct IoLoop {
    cfg: NetConfig,
    /// `None` once draining: new connects are refused.
    listener: Option<TcpListener>,
    job_tx: SyncSender<Batch>,
    stop: Arc<AtomicBool>,
    wake_rx: UnixStream,
    done_rx: Receiver<Vec<Done>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    next_gen: u64,
}

impl IoLoop {
    fn run(&mut self) {
        let mut pfds: Vec<PollFd> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        let mut scratch = vec![0u8; 16 * 1024];
        loop {
            let stopping = self.stop.load(Ordering::SeqCst);
            if stopping {
                self.begin_drain();
                // Sweep right away: a connection with nothing owed closes
                // here and now, it would otherwise never wake the poll.
                self.sweep(Instant::now());
                if self.open == 0 {
                    break;
                }
            }

            // Build the poll set: the self-pipe, the listener until drain,
            // and every connection with a current interest. Interest-free
            // connections (e.g. waiting only on scheduler completions) are
            // deliberately not polled — a hung-up fd would spin a
            // level-triggered loop.
            pfds.clear();
            slots.clear();
            pfds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            if let Some(l) = &self.listener {
                pfds.push(PollFd::new(l.as_raw_fd(), POLLIN));
            }
            let first_conn = pfds.len();
            let now = Instant::now();
            let mut deadline: Option<Instant> = None;
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(c) = conn else { continue };
                let mut events: i16 = 0;
                if !c.read_closed && c.wbuf.len() - c.wpos < WBUF_PAUSE_READS {
                    events |= POLLIN;
                }
                if c.has_unwritten() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    pfds.push(PollFd::new(c.stream.as_raw_fd(), events));
                    slots.push(slot);
                }
                if let Some(d) = c.deadline(&self.cfg) {
                    deadline = Some(deadline.map_or(d, |c: Instant| c.min(d)));
                }
            }
            let timeout =
                deadline.map(|d| d.saturating_duration_since(now) + Duration::from_millis(2));
            let _ = poll(&mut pfds, timeout);
            let now = Instant::now();

            // Self-pipe: drain the wakeup bytes (their only content is
            // "look at your queues"). A short read emptied the pipe; poll
            // is level-triggered and re-reports a byte written after it.
            if pfds[0].readable() {
                let mut sink = [0u8; 64];
                while matches!(self.wake_rx.read(&mut sink), Ok(n) if n == sink.len()) {}
            }

            if first_conn > 1 && pfds[1].readable() {
                self.accept(now);
            }

            // Scheduler completions → resequence into reply buffers.
            while let Ok(dones) = self.done_rx.try_recv() {
                self.deliver(dones);
            }

            // Socket readiness. Writes first: freeing reply-buffer space
            // can re-enable reads that backpressure had paused.
            for (i, pfd) in pfds.iter().enumerate().skip(first_conn) {
                if pfd.revents == 0 {
                    continue;
                }
                let slot = slots[i - first_conn];
                if pfd.writable() {
                    if let Some(c) = self.conns[slot].as_mut() {
                        c.try_flush();
                    }
                }
                if pfd.readable() {
                    self.read_conn(slot, &mut scratch, now);
                }
            }

            self.sweep(now);
        }
    }

    /// Stop accepting (dropping the listener refuses new connects) and
    /// force every connection into drain mode: stop reading, discard any
    /// partial line, close once the owed replies are flushed.
    fn begin_drain(&mut self) {
        self.listener = None;
        for conn in self.conns.iter_mut().flatten() {
            if !conn.read_closed {
                conn.read_closed = true;
                conn.rbuf.clear();
                conn.line_start = None;
            }
        }
    }

    /// Accept until `WouldBlock`. Admission control: past `max_conns` open
    /// connections a newcomer is shed at the edge instead of registered.
    fn accept(&mut self, now: Instant) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // `WouldBlock`: the backlog is empty (anything else, poll
                // reports the listener again).
                Err(_) => return,
            };
            CONNECTIONS.inc();
            if self.open >= self.cfg.max_conns.max(1) {
                SHED.inc();
                SHED_ACCEPT.inc();
                // A fresh socket's send buffer is empty, so the busy line
                // goes out whole without blocking the loop. Half-close so
                // it travels with a FIN. If the client already pipelined a
                // command the close may still surface as a reset on its
                // side; PROTOCOL.md tells clients to treat that as a shed
                // and reconnect.
                let _ = stream.set_nonblocking(true);
                let _ = (&stream).write_all(format!("{BUSY_REPLY}\n").as_bytes());
                let _ = stream.shutdown(Shutdown::Write);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            self.next_gen += 1;
            ACTIVE.add(1);
            self.conns[slot] = Some(Conn::new(stream, self.next_gen, next_conn_id(), now));
            self.open += 1;
        }
    }

    /// Route one message of scheduler runs, in order, to their
    /// (still-live) connections.
    fn deliver(&mut self, dones: Vec<Done>) {
        let mut replies = 0;
        for done in dones {
            let Some(Some(c)) = self.conns.get_mut(done.slot) else {
                continue;
            };
            if c.gen != done.gen {
                continue; // the slot was recycled; the original conn is gone
            }
            c.inflight -= done.lines();
            replies += c.accept_done(done);
        }
        REPLIES.add(replies);
    }

    /// Read what the socket holds, frame complete lines, ship them as one
    /// batch. A short read means the socket was drained: the loop stops
    /// there rather than pay a read that returns `WouldBlock`, and a FIN
    /// that arrived behind the bytes is read on the next poll round.
    fn read_conn(&mut self, slot: usize, scratch: &mut [u8], now: Instant) {
        let Some(c) = self.conns[slot].as_mut() else {
            return;
        };
        if c.read_closed {
            return;
        }
        let mut total = 0usize;
        loop {
            match c.stream.read(scratch) {
                Ok(0) => {
                    c.read_closed = true;
                    break;
                }
                Ok(n) => {
                    if c.rbuf.is_empty() {
                        c.line_start = Some(now);
                    }
                    c.rbuf.extend_from_slice(&scratch[..n]);
                    c.last_activity = now;
                    total += n;
                    if n < scratch.len() || total >= READ_ROUND_MAX {
                        break; // drained, or the fairness bound; poll re-reports the rest
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    c.dead = true;
                    return;
                }
            }
        }
        self.frame_and_submit(slot, now);
    }

    /// Copy every complete line out of the read buffer into one burst
    /// buffer and cross the scheduler queue once with all of them.
    fn frame_and_submit(&mut self, slot: usize, now: Instant) {
        let Some(c) = self.conns[slot].as_mut() else {
            return;
        };
        let token = ConnToken { slot, gen: c.gen };
        let accepted = Instant::now();
        let mut text = String::new();
        let mut lines = 0usize;
        let mut pos = 0usize;
        let mut too_long = false;
        loop {
            let Some(rel) = c.rbuf[pos..].iter().position(|&b| b == b'\n') else {
                if c.rbuf.len() - pos > self.cfg.max_line {
                    too_long = true; // oversized while still streaming
                }
                break;
            };
            let end = pos + rel;
            if end - pos > self.cfg.max_line {
                too_long = true;
                break;
            }
            let (start, mut raw) = (pos, &c.rbuf[pos..end]);
            if raw.last() == Some(&b'\r') {
                raw = &raw[..raw.len() - 1];
            }
            // An invalid line hits `unknown command`.
            let line = std::str::from_utf8(raw).unwrap_or("\u{fffd}");
            pos = end + 1;
            if Session::is_exit(line) {
                // `exit` ends the session: everything after it (in this
                // buffer or still on the wire) is discarded, like EOF on
                // stdin after an exit line.
                c.read_closed = true;
                c.rbuf.clear();
                pos = 0;
                break;
            }
            if text.is_empty() {
                // One allocation for the burst: what is left of the buffer.
                text.reserve(c.rbuf.len() - start);
            }
            text.push_str(line);
            text.push('\n');
            lines += 1;
        }
        if pos > 0 {
            c.rbuf.drain(..pos);
            c.line_start = if c.rbuf.is_empty() { None } else { Some(now) };
        }
        if c.read_closed {
            // EOF mid-line: the partial line is discarded, never executed.
            c.rbuf.clear();
            c.line_start = None;
        }

        if lines > 0 {
            LINES.add(lines as u64);
            READ_BATCH_LINES.observe(lines as u64);
            let first_seq = c.next_seq;
            c.next_seq += lines as u64;
            // Depth is bumped *before* the try_send so the scheduler's
            // decrement can never observe a batch it was not charged for.
            QUEUE_DEPTH.add(1);
            let stamps = Stamps::new(accepted, Instant::now());
            match self.job_tx.try_send(Batch {
                token,
                stamps,
                first_seq,
                lines,
                text: Arc::new(text),
            }) {
                Ok(()) => c.inflight += lines,
                Err(TrySendError::Full(batch)) => {
                    // Queue-level shed: every line of the burst is answered
                    // `busy retry-after` in order; the connection lives on.
                    QUEUE_DEPTH.add(-1);
                    SHED.add(lines as u64);
                    SHED_QUEUE.add(lines as u64);
                    let busy = BUSY_REPLY.len() + 1;
                    let replies = c.accept_done(Done {
                        slot,
                        gen: c.gen,
                        first_seq,
                        text: batch.text,
                        text_start: 0,
                        bytes: format!("{BUSY_REPLY}\n").repeat(lines),
                        ends: (1..=lines).map(|k| k * busy).collect(),
                        stamps,
                        shed: true,
                    });
                    REPLIES.add(replies);
                }
                Err(TrySendError::Disconnected(_)) => {
                    QUEUE_DEPTH.add(-1);
                    c.dead = true; // server draining under us
                }
            }
        }

        if too_long {
            let msg = format!("error: line too long (max {} bytes)\n", self.cfg.max_line);
            self.terminate(slot, msg, true);
        }
    }

    /// Arm a terminal protocol error: stop reading, discard the buffer,
    /// emit `msg` after every outstanding reply, then close.
    fn terminate(&mut self, slot: usize, msg: String, count_error: bool) {
        let Some(c) = self.conns[slot].as_mut() else {
            return;
        };
        if count_error {
            ERRORS.inc();
        }
        c.trailer = Some(msg);
        c.read_closed = true;
        c.rbuf.clear();
        c.line_start = None;
    }

    /// Per-round housekeeping over every connection: release trailers,
    /// flush buffers, stamp + tail-capture applied replies, enforce
    /// deadlines, and tear down finished connections.
    fn sweep(&mut self, now: Instant) {
        for slot in 0..self.conns.len() {
            let Some(c) = self.conns[slot].as_mut() else {
                continue;
            };

            // Deadlines (only meaningful while still reading).
            if !c.dead && !c.read_closed {
                if let Some(t0) = c.line_start {
                    if now.saturating_duration_since(t0) > self.cfg.read_timeout {
                        self.terminate(slot, "error: line timeout\n".to_string(), true);
                    }
                } else if c.fully_drained()
                    && now.saturating_duration_since(c.last_activity) > self.cfg.read_timeout
                {
                    // Old front-end precedent: an idle reap is not an error.
                    self.terminate(slot, "error: idle timeout\n".to_string(), false);
                }
            }
            let Some(c) = self.conns[slot].as_mut() else {
                continue;
            };

            // A trailer goes on the wire only once every accepted line has
            // been answered: the stream is complete up to the error.
            if c.trailer.is_some() && c.inflight == 0 && c.heldback.is_empty() {
                let msg = c.trailer.take().unwrap();
                c.wbuf.extend_from_slice(msg.as_bytes());
            }

            if c.has_unwritten() {
                c.try_flush();
            }
            // Stamp + capture the runs that reached the buffer this round
            // (the flush attempt above is their writeback, one clock
            // reading for all of them).
            if !c.applied.is_empty() {
                let mut written = Written::at(Instant::now());
                for done in c.applied.drain(..) {
                    let total_us = written.push(&done.stamps, done.lines() as u64);
                    capture(c.id, &done, total_us);
                }
                written.flush();
            }
            if let Some(since) = c.write_stalled_since {
                if now.saturating_duration_since(since) > self.cfg.write_timeout {
                    c.dead = true;
                }
            }

            let finished = c.read_closed && c.fully_drained();
            if c.dead || finished {
                self.close(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            self.free.push(slot);
            self.open -= 1;
            ACTIVE.add(-1);
        }
    }
}

/// Keep the lines of a written run that the slow ring wants: every line of
/// a shed or slow run, and any line answered with an error. Only those
/// lines are looked at one by one.
fn capture(conn: u64, done: &Done, total_us: u64) {
    let slow = slow::threshold_us() > 0 && total_us > slow::threshold_us();
    if !(done.shed || slow || done.replies().any(|r| r.starts_with("error"))) {
        return;
    }
    let lines = done.text[done.text_start..].split_terminator('\n');
    for (line, reply) in lines.zip(done.replies()) {
        let outcome = if reply.is_empty() {
            continue; // nothing went on the wire: nothing to capture
        } else if done.shed {
            slow::Outcome::Shed
        } else if reply.starts_with("error") {
            slow::Outcome::Error
        } else if slow {
            slow::Outcome::Slow
        } else {
            continue;
        };
        let reply = reply.strip_suffix('\n').unwrap_or(reply);
        slow::capture(conn, line, reply, outcome, &done.stamps, total_us);
    }
}
