//! The `ringdeployd` actor loop: one scheduler thread owning every
//! piece of mutable state (connections, jobs, the result cache), fed by
//! a single event queue.
//!
//! The design follows the stewart actor style: a [`Daemon`] is a
//! `World` whose process queue (`Daemon::queue_process`) holds job
//! ids, deduplicated, and `Daemon::run_until_idle` drains it after
//! every external event. Transport threads (readers, workers) never
//! touch state — they only post [`Event`]s — so there is no lock
//! hierarchy and job processing is deterministic given the event order.
//!
//! # Per-job lifecycle
//!
//! `submit` → keys expanded ([`JobSpec::keys`](crate::JobSpec::keys))
//! → admission check (`max_jobs`, [`Backpressure`] policy) → `accepted`,
//! the keys split into units of keys that differ only in their
//! objective ([`objective_units`]) → for each unit in order: a cache
//! probe of every key (hit ⇒ row ready immediately), then one dispatch
//! of the unit's misses, if any, to the bounded worker queue (full ⇒
//! the job *stalls* and retries the unit after the next completion —
//! the actor never blocks on dispatch) → rows emitted in **cell order**
//! as the contiguous ready prefix grows → `done`. The cache, the
//! completions and the wire stay per key: each computed key is cached
//! under its own encoding and counts once in `cells_computed`. Each key
//! a job looks up counts once in the cache stats too: as a hit when it
//! is served from the cache, as a miss when it is sent to a worker.
//!
//! A failed cell emits `error` and cancels the job's remaining cells; a
//! job overrunning its `timeout_ms` deadline emits `timeout` and is
//! cancelled the same way; a closed connection — or one a frame could
//! not be written to within
//! [`WRITE_STALL_LIMIT`](crate::server::WRITE_STALL_LIMIT) — cancels
//! its jobs silently. Cancelled jobs linger until their in-flight cells
//! drain (the results still populate the cache) and are then dropped.
//!
//! # Shutdown
//!
//! A `shutdown` frame (or EOF on a connection marked
//! `eof_is_shutdown`, i.e. stdio) flips the daemon into draining mode:
//! waiting jobs are rejected, new submits are refused, running jobs
//! finish and stream normally. When the last job drains the daemon
//! writes `bye` to every open connection, hangs them up, joins the
//! worker pool ([`WorkerPool::shutdown`]) and returns its final stats —
//! no thread outlives [`Daemon::run`] except transport readers, which
//! exit on the hangup.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::Write;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use ringdeploy_analysis::key::InstanceKey;
use ringdeploy_analysis::objective_units;
use ringdeploy_json::Json;

use crate::cache::ResultCache;
use crate::pool::{WorkItem, WorkerPool};
use crate::protocol::{write_frame, Backpressure, Request, Response, RowFrame, StatsReport};

/// Tuning knobs of a daemon instance.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Worker threads computing cells.
    pub workers: usize,
    /// Bounded work-queue capacity (the backpressure bound), in units: a
    /// unit is one job's cache-missing keys that differ only in their
    /// objective.
    pub queue_capacity: usize,
    /// Result-cache memory budget in bytes.
    pub cache_bytes: usize,
    /// Maximum concurrently active jobs; further submits block or are
    /// rejected per their [`Backpressure`] policy.
    pub max_jobs: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .min(4);
        DaemonConfig {
            workers,
            queue_capacity: 2 * workers,
            cache_bytes: 16 << 20,
            max_jobs: 8,
        }
    }
}

/// Identifies one client connection.
pub type ConnId = u64;

/// Where a connection's response frames go. Transports implement this
/// over their write half; [`ClientSink::hangup`] must unblock the
/// transport's reader thread (e.g. `TcpStream::shutdown`) so graceful
/// shutdown can join it.
pub trait ClientSink: Write + Send {
    /// Closes the connection for reading *and* writing. Default: no-op.
    fn hangup(&mut self) {}
}

/// A completed cell, posted by a worker.
pub struct CellDone {
    /// Internal job id.
    pub job: u64,
    /// Cell index within the job.
    pub cell: usize,
    /// The rendered report, or the failure message.
    pub result: Result<Json, String>,
    /// The worker caught a panic computing this cell's unit (`result`
    /// is the substitute error). Set on the unit's first cell only, so
    /// [`StatsReport::panics`] counts each caught panic once.
    pub panicked: bool,
}

/// Everything that can happen to the daemon, in one queue.
pub enum Event {
    /// A transport accepted a connection.
    Opened {
        /// Transport-assigned connection id (must be fresh).
        conn: ConnId,
        /// Write half of the connection.
        sink: Box<dyn ClientSink>,
        /// Treat this connection's EOF as a shutdown request (stdio
        /// mode's single client).
        eof_is_shutdown: bool,
    },
    /// One frame arrived on `conn`, already parsed by its reader.
    Frame {
        /// Source connection.
        conn: ConnId,
        /// The request, or why the frame is not one.
        request: Result<Request, String>,
    },
    /// The connection reached EOF or errored, or its reader gave up on
    /// it.
    Closed {
        /// The connection that went away.
        conn: ConnId,
    },
    /// A worker finished a cell.
    CellDone(CellDone),
}

struct Conn {
    sink: Box<dyn ClientSink>,
    open: bool,
    eof_is_shutdown: bool,
}

impl Conn {
    /// Writes one frame; a failed write — including one a TCP sink's
    /// write timeout ([`WRITE_STALL_LIMIT`](crate::server::WRITE_STALL_LIMIT))
    /// cut short — closes the connection (the caller then cancels its
    /// jobs via the normal `Closed` path).
    fn send(&mut self, response: &Response) -> bool {
        if !self.open {
            return false;
        }
        let ok = write_frame(&mut self.sink, response).is_ok();
        if !ok {
            self.open = false;
            self.sink.hangup();
        }
        ok
    }
}

struct Job {
    client_id: u64,
    conn: ConnId,
    keys: Vec<InstanceKey>,
    /// Canonical encodings of `keys` (computed once; the cache
    /// identity).
    canon: Vec<String>,
    /// The cell indices of each unit of work ([`objective_units`]).
    units: Vec<Vec<usize>>,
    /// Units up to (exclusive) this index are cache-probed/dispatched.
    next_dispatch: usize,
    /// Rows up to (exclusive) this index are delivered.
    emitted: usize,
    /// Cells currently in the worker queue or being computed.
    in_flight: usize,
    /// Rows served from cache.
    hits: usize,
    /// Completed cells awaiting in-order emission: cell index →
    /// (served-from-cache, result).
    ready: BTreeMap<usize, (bool, Result<Json, String>)>,
    /// No further frames for this job (error emitted, deadline hit, or
    /// connection closed); in-flight cells still drain into the cache.
    canceled: bool,
    /// When [`JobSpec::timeout_ms`](crate::protocol::JobSpec) is set:
    /// the instant (measured from admission) past which the job is
    /// cancelled with a `timeout` frame.
    deadline: Option<Instant>,
}

/// The actor: owns all state, processes [`Event`]s. See the
/// [module docs](self).
pub struct Daemon {
    config: DaemonConfig,
    events: Receiver<Event>,
    cache: ResultCache,
    pool: Option<WorkerPool>,
    conns: HashMap<ConnId, Conn>,
    jobs: HashMap<u64, Job>,
    /// Stewart-style dedup process queue of internal job ids.
    process: VecDeque<u64>,
    queued: HashSet<u64>,
    /// Jobs that hit a full worker queue; re-queued on the next
    /// completion.
    stalled: HashSet<u64>,
    /// Admission wait-list ([`Backpressure::Block`]); the last element
    /// is the job's `timeout_ms` (the deadline starts at admission).
    waiting: VecDeque<(ConnId, u64, Vec<InstanceKey>, Option<u64>)>,
    next_job: u64,
    draining: bool,
    completed_jobs: u64,
    rejected_jobs: u64,
    cells_computed: u64,
    panics: u64,
    timeouts: u64,
}

impl Daemon {
    /// Builds the daemon and its worker pool. The returned [`Sender`]
    /// is the event inlet transports post to (clone per thread).
    pub fn new(config: DaemonConfig) -> (Daemon, Sender<Event>) {
        let (tx, rx) = channel();
        let pool = WorkerPool::spawn(config.workers, config.queue_capacity, tx.clone());
        let daemon = Daemon {
            config,
            events: rx,
            cache: ResultCache::new(config.cache_bytes),
            pool: Some(pool),
            conns: HashMap::new(),
            jobs: HashMap::new(),
            process: VecDeque::new(),
            queued: HashSet::new(),
            stalled: HashSet::new(),
            waiting: VecDeque::new(),
            next_job: 0,
            draining: false,
            completed_jobs: 0,
            rejected_jobs: 0,
            cells_computed: 0,
            panics: 0,
            timeouts: 0,
        };
        (daemon, tx)
    }

    /// Runs the actor loop until shutdown completes; returns the final
    /// stats. Joins every worker thread before returning.
    pub fn run(mut self) -> StatsReport {
        while !(self.draining && self.jobs.is_empty() && self.waiting.is_empty()) {
            // Block until the next event — or only until the earliest
            // job deadline, so a timed-out job is cancelled promptly
            // even when no worker completion is forthcoming.
            let event = match self.next_deadline() {
                None => match self.events.recv() {
                    Ok(event) => Some(event),
                    Err(_) => break, // every sender gone
                },
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    match self.events.recv_timeout(wait) {
                        Ok(event) => Some(event),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            };
            if let Some(event) = event {
                self.handle(event);
            }
            self.expire_jobs();
            self.run_until_idle();
        }
        let stats = self.stats();
        for conn in self.conns.values_mut() {
            conn.send(&Response::Bye);
            conn.open = false;
            conn.sink.hangup();
        }
        self.pool
            .take()
            .expect("pool present until here")
            .shutdown();
        stats
    }

    fn stats(&self) -> StatsReport {
        StatsReport {
            cache: self.cache.stats(),
            active_jobs: self.jobs.len(),
            waiting_jobs: self.waiting.len(),
            completed_jobs: self.completed_jobs,
            rejected_jobs: self.rejected_jobs,
            cells_computed: self.cells_computed,
            panics: self.panics,
            timeouts: self.timeouts,
        }
    }

    /// The earliest deadline among live (non-cancelled) jobs, bounding
    /// how long the actor may block on the event queue.
    fn next_deadline(&self) -> Option<Instant> {
        self.jobs
            .values()
            .filter(|job| !job.canceled)
            .filter_map(|job| job.deadline)
            .min()
    }

    /// Cancels every job whose deadline has passed with a typed
    /// `timeout` frame. The cancelled job's in-flight cells still drain
    /// into the cache (phase 3 keeps the job until `in_flight == 0`),
    /// so a timeout never poisons cached results.
    fn expire_jobs(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, job)| !job.canceled && job.deadline.is_some_and(|d| d <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            job.canceled = true;
            self.timeouts += 1;
            let frame = Response::Timeout {
                id: job.client_id,
                rows: job.emitted,
            };
            let conn = job.conn;
            self.send_to(conn, &frame);
            self.queue_process(id);
        }
    }

    fn send_to(&mut self, conn: ConnId, response: &Response) {
        let lost = match self.conns.get_mut(&conn) {
            Some(c) => !c.send(response) && !c.open,
            None => false,
        };
        if lost {
            self.cancel_conn_jobs(conn);
        }
    }

    fn queue_process(&mut self, job: u64) {
        if self.queued.insert(job) {
            self.process.push_back(job);
        }
    }

    fn run_until_idle(&mut self) {
        while let Some(job) = self.process.pop_front() {
            self.queued.remove(&job);
            self.process_job(job);
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Opened {
                conn,
                sink,
                eof_is_shutdown,
            } => {
                self.conns.insert(
                    conn,
                    Conn {
                        sink,
                        open: true,
                        eof_is_shutdown,
                    },
                );
            }
            Event::Frame { conn, request } => match request {
                Ok(request) => self.handle_request(conn, request),
                Err(message) => self.send_to(conn, &Response::Error { id: None, message }),
            },
            Event::Closed { conn } => {
                let eof_is_shutdown = self
                    .conns
                    .get(&conn)
                    .map(|c| c.eof_is_shutdown)
                    .unwrap_or(false);
                if eof_is_shutdown {
                    // stdio: only the read side closed — the sink is
                    // still writable, so drain jobs and keep streaming
                    // (EOF is the single client's shutdown request).
                    self.begin_shutdown();
                } else {
                    // Nothing more is sent on a closed connection: hang
                    // it up so the client sees EOF after any frame
                    // already written, and release the socket.
                    if let Some(mut c) = self.conns.remove(&conn) {
                        c.sink.hangup();
                    }
                    self.cancel_conn_jobs(conn);
                }
            }
            Event::CellDone(done) => {
                self.cells_computed += 1;
                if done.panicked {
                    self.panics += 1;
                }
                if let Some(job) = self.jobs.get_mut(&done.job) {
                    job.in_flight -= 1;
                    if let Ok(payload) = &done.result {
                        self.cache
                            .insert(job.canon[done.cell].clone(), payload.clone());
                    }
                    job.ready.insert(done.cell, (false, done.result));
                    self.queue_process(done.job);
                }
                // A completion frees a queue slot: wake stalled jobs.
                for job in std::mem::take(&mut self.stalled) {
                    self.queue_process(job);
                }
            }
        }
    }

    fn handle_request(&mut self, conn: ConnId, request: Request) {
        match request {
            Request::Submit {
                id,
                backpressure,
                job,
            } => {
                if self.draining {
                    self.rejected_jobs += 1;
                    self.send_to(
                        conn,
                        &Response::Rejected {
                            id,
                            reason: "shutting down".to_string(),
                        },
                    );
                    return;
                }
                let timeout_ms = job.timeout_ms;
                let keys = match job.keys() {
                    Ok(keys) => keys,
                    Err(message) => {
                        self.send_to(
                            conn,
                            &Response::Error {
                                id: Some(id),
                                message,
                            },
                        );
                        return;
                    }
                };
                if self.jobs.len() < self.config.max_jobs {
                    self.admit(conn, id, keys, timeout_ms);
                } else {
                    match backpressure {
                        Backpressure::Block => {
                            self.waiting.push_back((conn, id, keys, timeout_ms));
                        }
                        Backpressure::Reject => {
                            self.rejected_jobs += 1;
                            let reason = format!(
                                "at capacity ({} active jobs, max_jobs = {})",
                                self.jobs.len(),
                                self.config.max_jobs
                            );
                            self.send_to(conn, &Response::Rejected { id, reason });
                        }
                    }
                }
            }
            Request::Stats => {
                let stats = self.stats();
                self.send_to(conn, &Response::Stats(stats));
            }
            Request::Shutdown => self.begin_shutdown(),
        }
    }

    fn begin_shutdown(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        while let Some((conn, id, _, _)) = self.waiting.pop_front() {
            self.rejected_jobs += 1;
            self.send_to(
                conn,
                &Response::Rejected {
                    id,
                    reason: "shutting down".to_string(),
                },
            );
        }
    }

    fn admit(
        &mut self,
        conn: ConnId,
        client_id: u64,
        keys: Vec<InstanceKey>,
        timeout_ms: Option<u64>,
    ) {
        let internal = self.next_job;
        self.next_job += 1;
        let canon = keys.iter().map(InstanceKey::canonical).collect();
        let units = objective_units(&keys);
        let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        self.send_to(
            conn,
            &Response::Accepted {
                id: client_id,
                cells: keys.len(),
            },
        );
        self.jobs.insert(
            internal,
            Job {
                client_id,
                conn,
                keys,
                canon,
                units,
                next_dispatch: 0,
                emitted: 0,
                in_flight: 0,
                hits: 0,
                ready: BTreeMap::new(),
                canceled: false,
                deadline,
            },
        );
        self.queue_process(internal);
    }

    fn cancel_conn_jobs(&mut self, conn: ConnId) {
        let affected: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, job)| job.conn == conn)
            .map(|(&id, _)| id)
            .collect();
        for id in affected {
            if let Some(job) = self.jobs.get_mut(&id) {
                job.canceled = true;
            }
            self.queue_process(id);
        }
        self.waiting.retain(|(c, _, _, _)| *c != conn);
    }

    /// One stewart-style processing step for one job: advance the
    /// cache-probe/dispatch frontier, emit the contiguous ready prefix
    /// in order, finish the job if complete.
    fn process_job(&mut self, id: u64) {
        let Some(mut job) = self.jobs.remove(&id) else {
            return;
        };

        // Phase 1: probe the cache and dispatch the misses, one unit at
        // a time, in unit order.
        while !job.canceled && job.next_dispatch < job.units.len() {
            let mut misses = Vec::new();
            for &cell in &job.units[job.next_dispatch] {
                // A hit found before the unit stalled is ready or
                // emitted already: it counts once.
                if cell < job.emitted || job.ready.contains_key(&cell) {
                    continue;
                }
                match self.cache.get(&job.canon[cell]) {
                    Some(payload) => {
                        job.ready.insert(cell, (true, Ok(payload)));
                        job.hits += 1;
                    }
                    None => misses.push((cell, job.keys[cell].clone())),
                }
            }
            let count = misses.len();
            if count > 0 {
                let item = WorkItem {
                    job: id,
                    cells: misses,
                };
                if self
                    .pool
                    .as_ref()
                    .expect("pool alive")
                    .try_dispatch(item)
                    .is_err()
                {
                    self.stalled.insert(id);
                    break;
                }
                // A miss counts when its key is sent, not when it is
                // probed: a stalled unit probes its misses again.
                self.cache.count_misses(count);
                job.in_flight += count;
            }
            job.next_dispatch += 1;
        }

        // Phase 2: emit the contiguous ready prefix, in order.
        while let Some(&(cached, _)) = job.ready.get(&job.emitted) {
            let (_, result) = job.ready.remove(&job.emitted).expect("entry just probed");
            let seq = job.emitted;
            job.emitted += 1;
            if job.canceled {
                continue; // drain silently
            }
            match result {
                Ok(payload) => {
                    let row = Response::Row(RowFrame {
                        id: job.client_id,
                        seq,
                        cached,
                        fingerprint: job.keys[seq].fingerprint(),
                        key: job.keys[seq].clone(),
                        payload,
                    });
                    self.send_to(job.conn, &row);
                    // A failed write closed the connection and marked
                    // this job cancelled through `cancel_conn_jobs` —
                    // but `self.jobs` no longer holds it. Re-check.
                    if self.conns.get(&job.conn).map(|c| c.open) != Some(true) {
                        job.canceled = true;
                    }
                }
                Err(message) => {
                    let error = Response::Error {
                        id: Some(job.client_id),
                        message,
                    };
                    self.send_to(job.conn, &error);
                    job.canceled = true;
                }
            }
        }

        // Phase 3: completion.
        let complete = if job.canceled {
            job.in_flight == 0
        } else {
            job.emitted == job.keys.len()
        };
        if complete {
            if !job.canceled {
                self.completed_jobs += 1;
                let done = Response::Done {
                    id: job.client_id,
                    rows: job.keys.len(),
                    cache_hits: job.hits,
                };
                self.send_to(job.conn, &done);
            }
            self.stalled.remove(&id);
            self.admit_waiting();
        } else {
            self.jobs.insert(id, job);
        }
    }

    fn admit_waiting(&mut self) {
        while self.jobs.len() < self.config.max_jobs {
            let Some((conn, id, keys, timeout_ms)) = self.waiting.pop_front() else {
                break;
            };
            self.admit(conn, id, keys, timeout_ms);
        }
    }
}
