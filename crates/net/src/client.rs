//! A small blocking client for the line protocol, used by `netload`, the
//! end-to-end tests and anything else that wants to script a server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One TCP session against a `coalloc` server.
///
/// [`Client::roundtrip`] is for the single-line-reply commands (`submit`,
/// `release`, `advance`, `stats`, ...). Multi-line replies (`query`,
/// `metrics`) are framed by their first line — see `docs/PROTOCOL.md` — or
/// can be captured wholesale with [`Client::exchange_script`].
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Set both the read and write timeout of the underlying socket.
    pub fn set_timeout(&mut self, t: Duration) -> std::io::Result<()> {
        self.writer.set_write_timeout(Some(t))?;
        self.reader.get_ref().set_read_timeout(Some(t))
    }

    /// Send one command line (the newline is appended). The line and its
    /// newline leave in one write: a server that refuses the line unread
    /// then has nothing left in flight to answer with a reset.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)
    }

    /// Read one reply line (without its newline). An empty result means the
    /// server closed the connection.
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Send a command and read its single-line reply.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv_line()
    }

    /// Write a whole multi-line script (which should end in `exit`), close
    /// the write side, and return the server's entire reply stream. This is
    /// the TCP analogue of piping a script into `coallocd`'s stdin.
    pub fn exchange_script(mut self, script: &str) -> std::io::Result<String> {
        self.writer.write_all(script.as_bytes())?;
        self.writer.shutdown(std::net::Shutdown::Write)?;
        let mut out = String::new();
        self.reader.read_to_string(&mut out)?;
        Ok(out)
    }

    /// The raw stream, for tests that need to misbehave (partial writes,
    /// abrupt drops, slow-loris pacing).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.writer
    }
}
