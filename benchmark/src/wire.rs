//! The closed-loop client: one TCP connection, one burst in flight.

use crate::gen::Op;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    /// Received bytes live in `buf[head..tail]`.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that takes this long is a hang, not a slow server.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 * 1024],
            head: 0,
            tail: 0,
        })
    }

    pub fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Append the next reply line (without its newline) to `out`.
    pub fn read_line(&mut self, out: &mut String) -> io::Result<()> {
        loop {
            if let Some(len) = self.buf[self.head..self.tail]
                .iter()
                .position(|&b| b == b'\n')
            {
                let line = &self.buf[self.head..self.head + len];
                out.push_str(&String::from_utf8_lossy(line));
                self.head += len + 1;
                return Ok(());
            }
            // No complete line buffered: make room at the end and read more.
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            }
            if self.tail == self.buf.len() {
                self.buf.resize(2 * self.buf.len(), 0);
            }
            match self.stream.read(&mut self.buf[self.tail..]) {
                Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Read the whole reply to `op` into `out` (cleared first). Every reply
    /// is one line except `query`, whose head line counts the rest.
    pub fn read_reply(&mut self, op: &Op, out: &mut String) -> io::Result<()> {
        out.clear();
        self.read_line(out)?;
        if let Op::Query(..) = op {
            let extra: usize = out
                .strip_prefix("free ")
                .and_then(|k| k.parse().ok())
                .unwrap_or(0);
            for _ in 0..extra {
                out.push('\n');
                self.read_line(out)?;
            }
        }
        Ok(())
    }

    /// One single-line command and its reply, for set-up and teardown.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.write(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        self.read_line(&mut reply)?;
        Ok(reply)
    }

    /// The server's `metrics` exposition. Its reply is not self-delimiting,
    /// so a `version` line follows as a sentinel.
    pub fn scrape(&mut self) -> io::Result<String> {
        self.write(b"metrics\nversion\n")?;
        let mut text = String::new();
        loop {
            let mut line = String::new();
            self.read_line(&mut line)?;
            if line == coalloc_net::PROTOCOL_VERSION {
                return Ok(text);
            }
            text.push_str(&line);
            text.push('\n');
        }
    }
}
