//! Transports: TCP listener and stdio, both feeding the [`Daemon`]'s
//! event queue.
//!
//! Both transports run one reader, `read_frames`, which bounds,
//! decodes and parses each frame, so the actor only ever receives typed
//! requests ([`Event::Frame`]); the accept thread turns sockets into
//! [`Event::Opened`]s, and all protocol logic lives in the actor. Every
//! accepted socket gets `TCP_NODELAY` and a [`WRITE_STALL_LIMIT`] write
//! timeout before the actor sees it. On
//! shutdown the daemon hangs up every connection
//! ([`ClientSink::hangup`]), which unblocks the readers; the accept
//! loop is unblocked by a self-connection, and [`Server::run`] joins
//! every transport thread before returning.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::daemon::{ClientSink, ConnId, Daemon, DaemonConfig, Event};
use crate::protocol::{parse_request, StatsReport};

/// Longest request frame a reader accepts, newline excluded. A longer
/// frame is answered with an `error` frame and ends its connection, so a
/// reader never holds more than this much of one frame.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Longest the daemon spends writing one frame to one TCP client. The
/// actor writes frames with blocking writes, so a client that stops
/// reading would otherwise hold it — and every other client — once the
/// socket buffers fill. A frame not written within the limit fails its
/// write, which closes that connection and cancels its jobs.
pub const WRITE_STALL_LIMIT: Duration = Duration::from_secs(2);

struct TcpSink(TcpStream);

impl Write for TcpSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    /// Writes one whole frame (the daemon makes one `write_all` per
    /// frame) within [`WRITE_STALL_LIMIT`]. The socket's write timeout
    /// bounds only each `write` call, and a call that times out after
    /// taking part of the frame reports that part as written; so after
    /// a partial write the next call gets what is left of the limit,
    /// not a fresh one.
    fn write_all(&mut self, mut buf: &[u8]) -> io::Result<()> {
        let deadline = Instant::now() + WRITE_STALL_LIMIT;
        let mut shortened = false;
        while !buf.is_empty() {
            match self.0.write(buf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => buf = &buf[n..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            if !buf.is_empty() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                self.0.set_write_timeout(Some(left))?;
                shortened = true;
            }
        }
        if shortened {
            self.0.set_write_timeout(Some(WRITE_STALL_LIMIT))?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl ClientSink for TcpSink {
    fn hangup(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// The reader of both transports: splits `input` into newline-delimited
/// frames, parses each into a request on this thread and posts it to
/// the actor. A frame that is not UTF-8 or not a valid request posts a
/// typed error and reading goes on; a frame over [`MAX_FRAME_BYTES`]
/// posts a typed error and ends the connection. Posts `Closed` when
/// reading stops — at EOF, on a read error, after an oversize frame, or
/// when the daemon hangs the connection up.
fn read_frames(conn: ConnId, mut input: impl BufRead, events: &Sender<Event>) {
    let limit = MAX_FRAME_BYTES as u64 + 1; // the frame plus its newline
    let mut frame = Vec::new();
    loop {
        frame.clear();
        match (&mut input).take(limit).read_until(b'\n', &mut frame) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let oversize = frame.len() as u64 == limit && frame.last() != Some(&b'\n');
        let request = if oversize {
            Err(format!(
                "invalid frame: longer than {MAX_FRAME_BYTES} bytes; closing the connection"
            ))
        } else {
            match std::str::from_utf8(&frame) {
                Err(e) => Err(format!("invalid frame: not UTF-8 ({e})")),
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => parse_request(text),
            }
        };
        if events.send(Event::Frame { conn, request }).is_err() || oversize {
            break;
        }
    }
    let _ = events.send(Event::Closed { conn });
}

/// A bound `ringdeployd` TCP endpoint. [`Server::bind`], read the port
/// back with [`Server::local_addr`], then [`Server::run`] on a thread
/// you own.
pub struct Server {
    listener: TcpListener,
    config: DaemonConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, config: DaemonConfig) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            config,
        })
    }

    /// The bound address (port-0 discovery).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` frame drains the daemon; returns the
    /// final stats. Joins the accept thread and every reader thread —
    /// when this returns, no server thread is left running.
    pub fn run(self) -> StatsReport {
        let addr = self.listener.local_addr().ok();
        let (daemon, events) = Daemon::new(self.config);
        let done = Arc::new(AtomicBool::new(false));
        let accept = {
            let listener = self.listener;
            let events = events.clone();
            let done = done.clone();
            std::thread::Builder::new()
                .name("ringdeployd-accept".to_string())
                .spawn(move || {
                    let mut readers: Vec<JoinHandle<()>> = Vec::new();
                    let mut next_conn: u64 = 1;
                    while let Ok((stream, _peer)) = listener.accept() {
                        if done.load(Ordering::SeqCst) {
                            break; // the wake-up self-connection
                        }
                        let conn = next_conn;
                        next_conn += 1;
                        let configured = stream
                            .set_nodelay(true)
                            .and_then(|()| stream.set_write_timeout(Some(WRITE_STALL_LIMIT)))
                            .and_then(|()| stream.try_clone());
                        let Ok(write_half) = configured else {
                            continue;
                        };
                        if events
                            .send(Event::Opened {
                                conn,
                                sink: Box::new(TcpSink(write_half)),
                                eof_is_shutdown: false,
                            })
                            .is_err()
                        {
                            break;
                        }
                        let events = events.clone();
                        let reader = std::thread::Builder::new()
                            .name(format!("ringdeployd-reader-{conn}"))
                            .spawn(move || read_frames(conn, BufReader::new(stream), &events))
                            .expect("spawn reader thread");
                        readers.push(reader);
                    }
                    for reader in readers {
                        reader.join().expect("reader thread panicked");
                    }
                })
                .expect("spawn accept thread")
        };
        let stats = daemon.run();
        // Unblock the (blocking) accept call with a throwaway
        // self-connection so the thread can observe `done` and exit.
        done.store(true, Ordering::SeqCst);
        if let Some(addr) = addr {
            let _ = TcpStream::connect(addr);
        }
        accept.join().expect("accept thread panicked");
        stats
    }
}

struct StdoutSink(io::Stdout);

impl Write for StdoutSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl ClientSink for StdoutSink {}

/// Serves one client over stdin/stdout: requests are lines on stdin,
/// frames go to stdout, and EOF on stdin — or an oversize frame — is a
/// shutdown request. Returns the final stats.
///
/// The stdin reader thread is detached, not joined: if the client sends
/// a `shutdown` frame without closing stdin, the reader stays blocked
/// in its read and only exits with the process.
pub fn serve_stdio(config: DaemonConfig) -> StatsReport {
    let (daemon, events) = Daemon::new(config);
    events
        .send(Event::Opened {
            conn: 0,
            sink: Box::new(StdoutSink(io::stdout())),
            eof_is_shutdown: true,
        })
        .expect("daemon receiver alive");
    {
        let events = events.clone();
        std::thread::Builder::new()
            .name("ringdeployd-stdin".to_string())
            .spawn(move || read_frames(0, io::stdin().lock(), &events))
            .expect("spawn stdin reader");
    }
    daemon.run()
}
