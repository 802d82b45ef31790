//! The admin plane: a second, std-only TCP listener speaking minimal
//! HTTP/1.1 so stock tooling (`curl`, Prometheus) can observe a live
//! server without touching the command port.
//!
//! Endpoints (all `GET`, all `Connection: close`):
//!
//! | path          | reply |
//! |---------------|-------|
//! | `/metrics`    | Prometheus text exposition of every obs metric |
//! | `/healthz`    | `200 ok` while the process serves at all |
//! | `/readyz`     | `200 ready`, or `503` while draining / queue saturated |
//! | `/status`     | JSON snapshot: uptime, capacity, utilization, queues, WAL, totals |
//! | `/debug/slow` | JSON dump of the tail-captured slow/shed/errored requests |
//!
//! The plane is deliberately **non-normative**: the line protocol on the
//! command port (docs/PROTOCOL.md) is the only interface with
//! byte-identical guarantees; these endpoints exist for operators and may
//! grow fields freely. Readiness is computable the moment the listener
//! exists, because [`crate::Server::bind`] finishes WAL recovery *before*
//! opening either listener — a scraper that can reach `/readyz` never sees
//! a half-recovered scheduler.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::slow;

/// Shared snapshot state between the serving threads and the admin plane.
/// The scheduler thread refreshes the capacity/utilization cells
/// periodically (they require `&mut` scheduler access); everything else is
/// read straight from the obs registry at scrape time.
pub(crate) struct AdminState {
    /// Server start, for uptime.
    pub start: Instant,
    /// Shard count the sessions run with.
    pub shards: u32,
    /// Command queue bound (readiness compares depth against it).
    pub queue_capacity: usize,
    /// Whether a WAL is attached.
    pub wal_enabled: bool,
    /// Slow-capture threshold, for `/debug/slow` headers.
    pub slow_threshold_us: u64,
    /// The server's stop flag: set once a drain began.
    pub draining: Arc<AtomicBool>,
    /// Scheduler capacity (servers), 0 until an `init` ran.
    pub servers: AtomicU64,
    /// Utilization at the scheduler clock, in parts-per-million.
    pub util_ppm: AtomicU64,
    /// The scheduler clock, whole seconds.
    pub now_secs: AtomicU64,
    /// Whether any `init`/restore installed a scheduler yet.
    pub initialized: AtomicBool,
}

impl AdminState {
    pub(crate) fn new(
        shards: u32,
        queue_capacity: usize,
        wal_enabled: bool,
        slow_threshold_us: u64,
        draining: Arc<AtomicBool>,
    ) -> AdminState {
        AdminState {
            start: Instant::now(),
            shards,
            queue_capacity,
            wal_enabled,
            slow_threshold_us,
            draining,
            servers: AtomicU64::new(0),
            util_ppm: AtomicU64::new(0),
            now_secs: AtomicU64::new(0),
            initialized: AtomicBool::new(false),
        }
    }
}

/// Readiness decision, pure so it is unit-testable: ready unless the
/// server is draining or the command queue has no room left (a scrape-time
/// proxy for "new commands would be shed").
pub(crate) fn ready_reason(
    draining: bool,
    queue_depth: i64,
    queue_capacity: usize,
) -> Result<(), String> {
    if draining {
        return Err("draining".to_string());
    }
    if queue_depth >= queue_capacity as i64 {
        return Err(format!("queue saturated ({queue_depth}/{queue_capacity})"));
    }
    Ok(())
}

/// The running admin listener. Joined on server drain.
pub(crate) struct AdminPlane {
    pub addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl AdminPlane {
    /// Bind `addr` and spawn the serving thread.
    pub(crate) fn spawn(addr: &str, state: Arc<AdminState>) -> std::io::Result<AdminPlane> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("coalloc-net-admin".into())
            .spawn(move || admin_loop(listener, state))?;
        Ok(AdminPlane {
            addr: local,
            handle: Some(handle),
        })
    }

    /// Unblock and join the serving thread (the caller set the stop flag
    /// already; a self-connect makes the blocking accept observe it).
    pub(crate) fn join(&mut self) {
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn admin_loop(listener: TcpListener, state: Arc<AdminState>) {
    for stream in listener.incoming() {
        if state.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Admin traffic is one scraper every few seconds: serving inline on
        // the listener thread keeps the plane to a single thread and
        // naturally rate-limits hostile clients via the read timeout.
        handle_conn(stream, &state);
    }
}

fn handle_conn(mut stream: TcpStream, state: &AdminState) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Some(request_line) = read_request_line(&mut stream) else {
        return;
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => {
            respond(
                &mut stream,
                400,
                "text/plain; charset=utf-8",
                "bad request\n",
            );
            return;
        }
    };
    if method != "GET" {
        respond(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
        return;
    }
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &obs::metrics::exposition(),
        ),
        "/healthz" => respond(&mut stream, 200, "text/plain; charset=utf-8", "ok\n"),
        "/readyz" => {
            let depth = obs::metrics::gauge("net_queue_depth").get();
            match ready_reason(
                state.draining.load(Ordering::SeqCst),
                depth,
                state.queue_capacity,
            ) {
                Ok(()) => respond(&mut stream, 200, "text/plain; charset=utf-8", "ready\n"),
                Err(why) => respond(
                    &mut stream,
                    503,
                    "text/plain; charset=utf-8",
                    &format!("not ready: {why}\n"),
                ),
            }
        }
        "/status" => respond(&mut stream, 200, "application/json", &status_json(state)),
        "/debug/slow" => respond(&mut stream, 200, "application/json", &slow_json()),
        _ => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

/// Read up to the end of the request head (a blank line), returning the
/// request line. Bounded at 8 KiB: an admin request is one short line plus
/// a handful of headers.
fn read_request_line(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() > 8192 {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    head.lines()
        .next()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

fn counter(name: &'static str) -> u64 {
    obs::metrics::counter(name).get()
}

fn gauge(name: &'static str) -> i64 {
    obs::metrics::gauge(name).get()
}

/// The `/status` JSON snapshot. Hand-built like the bench reports: the
/// field set is operator-facing and non-normative (DESIGN.md §8).
fn status_json(state: &AdminState) -> String {
    let draining = state.draining.load(Ordering::SeqCst);
    let depth = gauge("net_queue_depth");
    let ready = ready_reason(draining, depth, state.queue_capacity).is_ok();
    let util = state.util_ppm.load(Ordering::Relaxed) as f64 / 1_000_000.0;
    let mut out = String::with_capacity(1024);
    out.push('{');
    out.push_str(&format!(
        "\"uptime_secs\":{:.1},",
        state.start.elapsed().as_secs_f64()
    ));
    out.push_str(&format!("\"ready\":{ready},\"draining\":{draining},"));
    out.push_str(&format!(
        "\"initialized\":{},",
        state.initialized.load(Ordering::Relaxed)
    ));
    out.push_str(&format!("\"shards\":{},", state.shards));
    out.push_str(&format!(
        "\"scheduler\":{{\"servers\":{},\"now\":{},\"utilization\":{util:.6}}},",
        state.servers.load(Ordering::Relaxed),
        state.now_secs.load(Ordering::Relaxed),
    ));
    out.push_str(&format!(
        "\"queue\":{{\"depth\":{depth},\"capacity\":{}}},",
        state.queue_capacity
    ));
    out.push_str(&format!(
        "\"conns\":{{\"active\":{},\"total\":{}}},",
        gauge("net_conns_active"),
        counter("net_connections_total"),
    ));
    out.push_str(&format!(
        "\"totals\":{{\"requests\":{},\"grants\":{},\"rejects\":{},\"lines\":{},\"replies\":{},\"shed\":{},\"errors\":{}}},",
        counter("sched_requests_total"),
        counter("sched_grants_total"),
        counter("sched_rejects_total"),
        counter("net_lines_total"),
        counter("net_replies_total"),
        counter("net_shed_total"),
        counter("net_errors_total"),
    ));
    out.push_str(&format!(
        "\"wal\":{{\"enabled\":{},\"segments_live\":{},\"bytes_since_snapshot\":{},\"last_fsync_batch\":{},\"appends\":{},\"fsyncs\":{},\"snapshots\":{}}},",
        state.wal_enabled,
        gauge("wal_segments_live"),
        gauge("wal_bytes_since_snapshot"),
        gauge("wal_last_fsync_batch"),
        counter("wal_append_total"),
        counter("wal_fsync_total"),
        counter("wal_snapshot_total"),
    ));
    out.push_str(&format!(
        "\"slow\":{{\"threshold_us\":{},\"captured\":{}}}",
        state.slow_threshold_us,
        slow::captured_total(),
    ));
    out.push('}');
    out
}

/// The `/debug/slow` JSON body: capture policy plus every retained record,
/// oldest first — the same records the `slow` protocol command prints.
fn slow_json() -> String {
    let records = slow::snapshot();
    let mut out = format!(
        "{{\"threshold_us\":{},\"captured_total\":{},\"records\":[",
        slow::threshold_us(),
        slow::captured_total(),
    );
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&slow::to_json(r));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_logic() {
        assert!(ready_reason(false, 0, 64).is_ok());
        assert!(ready_reason(false, 63, 64).is_ok());
        assert_eq!(ready_reason(true, 0, 64).unwrap_err(), "draining");
        let err = ready_reason(false, 64, 64).unwrap_err();
        assert!(err.contains("queue saturated"), "{err}");
    }

    #[test]
    fn status_json_is_valid_json() {
        let state = AdminState::new(2, 64, true, 100_000, Arc::new(AtomicBool::new(false)));
        state.servers.store(16, Ordering::Relaxed);
        state.util_ppm.store(421_337, Ordering::Relaxed);
        state.initialized.store(true, Ordering::Relaxed);
        let json = status_json(&state);
        let v = obs::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("shards").unwrap().as_num(), Some(2.0));
        assert_eq!(v.get("ready"), Some(&obs::json::Json::Bool(true)));
        let sched = v.get("scheduler").unwrap();
        assert_eq!(sched.get("servers").unwrap().as_num(), Some(16.0));
        let util = sched.get("utilization").unwrap().as_num().unwrap();
        assert!((util - 0.421337).abs() < 1e-9);
        let json = obs::json::parse(&slow_json()).expect("valid slow JSON");
        assert!(json.get("records").is_some());
    }
}
