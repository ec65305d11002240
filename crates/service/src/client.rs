//! A minimal blocking client for `ringdeployd`'s TCP endpoint.
//!
//! One [`Client`] is one connection: [`Client::send`] writes request
//! frames, [`Client::recv`] reads response frames in daemon order.
//! Raw-line access ([`Client::recv_line`]) is exposed for tools that
//! forward frames verbatim (the `ringdeploy --connect` mode does, so
//! its output stays `jq`-able).

use std::io::{self, BufRead, BufReader};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use crate::protocol::{parse_response, write_frame, Request, Response};

/// Connect failures worth retrying: the daemon exists (or will momentarily)
/// but the TCP handshake lost a race with its listener.
fn is_transient(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
    )
}

/// One connection to a running daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (host:port) with `TCP_NODELAY` set, so each
    /// request frame leaves as soon as [`Client::send`] writes it.
    ///
    /// # Errors
    ///
    /// Propagates connect/socket-option/clone failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Connects to `addr`, retrying *transient* connect failures
    /// (connection refused/reset/aborted, timeout — typically a daemon
    /// that has not finished binding its listener yet) with exponential
    /// backoff: `backoff`, `2·backoff`, `4·backoff`, … between the up
    /// to `attempts` attempts. Non-transient failures (e.g. a bad
    /// address) and the final attempt's failure propagate immediately.
    ///
    /// # Errors
    ///
    /// Propagates the first non-transient or the last transient connect
    /// failure.
    pub fn connect_with_retry(addr: &str, attempts: u32, backoff: Duration) -> io::Result<Client> {
        let attempts = attempts.max(1);
        let mut wait = backoff;
        for _ in 1..attempts {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if is_transient(&e) => {
                    std::thread::sleep(wait);
                    wait = wait.saturating_mul(2);
                }
                Err(e) => return Err(e),
            }
        }
        Client::connect(addr)
    }

    /// Writes one request frame.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.writer, request)
    }

    /// Reads the next frame as a raw line; `None` on EOF (the daemon
    /// hung up after `bye`).
    ///
    /// # Errors
    ///
    /// Propagates the read failure.
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Ok(Some(trimmed.to_string()));
            }
        }
    }

    /// Reads and parses the next frame; `None` on EOF.
    ///
    /// # Errors
    ///
    /// Propagates read failures; a frame that fails to parse becomes
    /// [`io::ErrorKind::InvalidData`].
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        match self.recv_line()? {
            None => Ok(None),
            Some(line) => parse_response(&line)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }

    /// Half-closes the write side, signalling the daemon this client is
    /// finished submitting (its EOF cancels the client's pending jobs).
    ///
    /// # Errors
    ///
    /// Propagates the socket shutdown failure.
    pub fn finish_writes(&mut self) -> io::Result<()> {
        self.writer.shutdown(Shutdown::Write)
    }
}
