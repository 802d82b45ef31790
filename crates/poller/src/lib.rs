//! # coalloc-poller
//!
//! A minimal, dependency-free readiness poller: the one `unsafe` FFI call
//! the event-driven serving path needs, wrapped so every other crate can
//! stay `#![forbid(unsafe_code)]`.
//!
//! The wrapper binds `poll(2)` directly from the C library that `std`
//! already links — no `libc` crate, no vendored bindings — and exposes a
//! safe [`poll`] over a slice of [`PollFd`] entries. Level-triggered
//! semantics: a readable/writable fd is re-reported on every call until it
//! is drained, which is exactly what a retry-until-`WouldBlock` event loop
//! wants (no edge-tracking state to get wrong).
//!
//! Scope is deliberately tiny: one syscall, `EINTR` retried, a millisecond
//! timeout. `epoll`/`kqueue` would scale the *wait* better than O(fds),
//! but the serving path batches whole readiness rounds per wakeup, so
//! `poll` keeps the code portable (Linux + macOS + BSDs) and auditable —
//! the entire unsafe surface of the workspace is the one block in
//! [`poll`].
//!
//! ```
//! use coalloc_poller::{poll, PollFd, POLLIN, POLLOUT};
//! use std::os::fd::AsRawFd;
//! use std::os::unix::net::UnixStream;
//!
//! let (a, b) = UnixStream::pair().unwrap();
//! let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN | POLLOUT)];
//! let n = poll(&mut fds, Some(std::time::Duration::from_millis(10))).unwrap();
//! assert_eq!(n, 1); // a fresh socket pair is immediately writable
//! assert!(fds[0].writable() && !fds[0].readable());
//! drop(b);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// There is data to read (or a peer hangup to observe via `read() == 0`).
pub const POLLIN: i16 = 0x001;
/// Writing will not block (at least one byte can be accepted).
pub const POLLOUT: i16 = 0x004;
/// An error condition on the fd (revents only; always polled for).
pub const POLLERR: i16 = 0x008;
/// The peer hung up (revents only; always polled for).
pub const POLLHUP: i16 = 0x010;
/// The fd is not open (revents only): a bookkeeping bug in the caller.
pub const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` set: the fd, the events the caller is
/// interested in, and the events the kernel reported back.
///
/// `#[repr(C)]` with exactly the `struct pollfd` field layout (an `int`
/// plus two `short`s), so a `&mut [PollFd]` can be handed to the syscall
/// directly.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The file descriptor to watch (a negative fd is ignored by the
    /// kernel, per POSIX — callers can use that to blank out an entry).
    pub fd: RawFd,
    /// Requested events ([`POLLIN`], [`POLLOUT`], bitwise-or'd).
    pub events: i16,
    /// Returned events, filled by [`poll`]; includes [`POLLERR`],
    /// [`POLLHUP`] and [`POLLNVAL`] even when not requested.
    pub revents: i16,
}

impl PollFd {
    /// A fresh entry watching `fd` for `events`, with `revents` cleared.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Reading now would make progress: data, EOF, a hangup or an error
    /// (all of which a `read` call surfaces without blocking).
    #[inline]
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// Writing now would make progress (or fail fast on an error).
    #[inline]
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }

    /// The kernel says this fd is not open: the caller's fd bookkeeping
    /// has a stale entry.
    #[inline]
    pub fn invalid(&self) -> bool {
        self.revents & POLLNVAL != 0
    }
}

// `nfds_t` is `unsigned long` on Linux and `unsigned int` on macOS; both
// are what their C headers say, so the extern signature below matches the
// platform ABI either way.
#[cfg(target_os = "macos")]
type Nfds = std::ffi::c_uint;
#[cfg(not(target_os = "macos"))]
type Nfds = std::ffi::c_ulong;

extern "C" {
    #[link_name = "poll"]
    fn c_poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Wait until at least one entry has a ready event, the timeout elapses
/// (`Ok(0)`), or an error occurs. `None` waits forever.
///
/// `EINTR` is retried with the full timeout (a signal storm can extend the
/// wait; the serving loop recomputes its deadlines every round, so it does
/// not care). Sub-millisecond timeouts round *up* to 1 ms so a nonzero
/// wait never degenerates into a busy spin.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: std::ffi::c_int = match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            if ms == 0 && !d.is_zero() {
                1
            } else {
                ms.min(i32::MAX as u128) as std::ffi::c_int
            }
        }
    };
    loop {
        // SAFETY: `PollFd` is `#[repr(C)]` with the exact field order and
        // types of `struct pollfd`, the pointer/length pair comes from a
        // live `&mut [PollFd]`, and the kernel writes only the `revents`
        // field of the first `fds.len()` entries.
        let n = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            continue;
        }
        return Err(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn writable_immediately_readable_after_write() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN | POLLOUT)];
        let n = poll(&mut fds, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].writable(), "fresh pair end is writable");
        assert!(
            fds[0].revents & POLLIN == 0,
            "no data yet: {:#x}",
            fds[0].revents
        );

        a.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable(), "one byte pending");
    }

    #[test]
    fn timeout_returns_zero() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let t0 = std::time::Instant::now();
        let n = poll(&mut fds, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0, "nothing to read");
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "waited the timeout"
        );
    }

    #[test]
    fn hangup_reported_as_readable() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(a);
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable(), "peer hangup must wake a reader");
        let mut buf = [0u8; 8];
        let mut b = b;
        assert_eq!(b.read(&mut buf).unwrap(), 0, "and read() observes EOF");
    }

    #[test]
    fn sub_millisecond_timeout_rounds_up_not_to_busy_spin() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        // Must behave as a (short) sleep, not as an instant return storm.
        let n = poll(&mut fds, Some(Duration::from_micros(200))).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn many_fds_only_ready_ones_reported() {
        let pairs: Vec<(UnixStream, UnixStream)> =
            (0..32).map(|_| UnixStream::pair().unwrap()).collect();
        let mut writer = pairs[7].0.try_clone().unwrap();
        writer.write_all(b"ping").unwrap();
        let mut fds: Vec<PollFd> = pairs
            .iter()
            .map(|(_, b)| PollFd::new(b.as_raw_fd(), POLLIN))
            .collect();
        let n = poll(&mut fds, Some(Duration::from_millis(100))).unwrap();
        assert_eq!(n, 1, "exactly one end has data");
        for (i, fd) in fds.iter().enumerate() {
            assert_eq!(fd.readable(), i == 7, "only pair 7 is readable");
        }
    }
}
