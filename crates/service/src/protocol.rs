//! The `ringdeployd` wire protocol: line-delimited JSON frames.
//!
//! Every frame is one [`Json`] object on one line, tagged by a `type`
//! field. Clients send [`Request`] frames; the daemon answers with
//! [`Response`] frames. All encodings go through the deterministic
//! sorted-key printer of `ringdeploy-json`, so a frame's byte encoding
//! is a pure function of its value — the property the cache-determinism
//! guarantee ("a cached reply is byte-identical to the cold reply")
//! rests on.
//!
//! # Frame vocabulary
//!
//! Requests:
//!
//! ```text
//! {"backpressure":"block","id":1,"job":{...},"type":"submit"}
//! {"type":"stats"}
//! {"type":"shutdown"}
//! ```
//!
//! Responses (per submitted job, in this order):
//! `accepted` (or `rejected`), then one `row` per cell **in cell
//! order**, then `done`. `error` replaces the remaining rows when a
//! cell fails or the request itself is malformed; `timeout` replaces
//! them when the job overruns its [`JobSpec::timeout_ms`] deadline.
//! `stats` answers a stats request; `bye` acknowledges shutdown and
//! precedes connection close.
//!
//! Both directions write a frame through one function, `write_frame`:
//! its JSON and the newline leave in one `write_all`.

use std::convert::Infallible;
use std::io::{self, Write};

use ringdeploy_analysis::key::{InstanceKey, JobKind};
use ringdeploy_analysis::{EvidenceTier, Grid, Objective, SweepSchedule, Workload};
use ringdeploy_core::Algorithm;
use ringdeploy_json::{hex_u64, FromJson, Json, JsonError, ToJson};
use ringdeploy_sim::FaultPlan;

/// What the daemon does when a submit arrives while the concurrent-job
/// bound ([`DaemonConfig::max_jobs`](crate::DaemonConfig)) is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Queue the job; it is admitted (and `accepted` is sent) when a
    /// running job completes. The default.
    #[default]
    Block,
    /// Refuse immediately with a `rejected` frame.
    Reject,
}

impl Backpressure {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Backpressure::Block => "block",
            Backpressure::Reject => "reject",
        }
    }

    /// Parses the output of [`Backpressure::name`].
    pub fn from_name(name: &str) -> Option<Backpressure> {
        match name {
            "block" => Some(Backpressure::Block),
            "reject" => Some(Backpressure::Reject),
            _ => None,
        }
    }
}

/// Most cells one job may expand to. [`JobSpec::keys`] refuses a larger
/// job before enumerating it, so a small submit frame cannot make the
/// daemon build millions of keys.
pub const MAX_JOB_CELLS: usize = 1 << 16;

/// Largest ring a job's workload may ask for. [`JobSpec::keys`] refuses a
/// larger `n`, so a small submit frame cannot make a worker allocate for
/// billions of nodes — an allocation failure aborts the process, which
/// the pool's `catch_unwind` cannot catch.
pub const MAX_RING_NODES: usize = 1 << 16;

/// A batch of queries of one [`JobKind`], expressed as a cross product —
/// the submit payload. Expands to [`InstanceKey`]s via [`JobSpec::keys`]
/// through the same [`Grid`] the offline batches enumerate, so a job's
/// row order is identical to the corresponding offline batch's row
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Which engine runs.
    pub kind: JobKind,
    /// Algorithm dimension (must be non-empty).
    pub algorithms: Vec<Algorithm>,
    /// Workload dimension (must be non-empty).
    pub workloads: Vec<Workload>,
    /// Schedule dimension — [`JobKind::Sweep`] only; defaults to the
    /// single [`SweepSchedule::RandomPerSeed`] entry when empty.
    pub schedules: Vec<SweepSchedule>,
    /// Objective dimension — [`JobKind::Adversary`] / [`JobKind::Certify`];
    /// defaults to all three objectives when empty.
    pub objectives: Vec<Objective>,
    /// Evidence tier — [`JobKind::Certify`] only.
    pub tier: EvidenceTier,
    /// Seed dimension (defaults to the single seed 0 when empty).
    pub seeds: Vec<u64>,
    /// Fault plan applied to every cell of the job. The empty plan is
    /// omitted from the wire encoding and from the expanded
    /// [`InstanceKey`]s, so fault-free jobs hit the exact cache entries
    /// they did before fault support existed.
    pub faults: FaultPlan,
    /// Per-job deadline in milliseconds, enforced by the daemon. On
    /// expiry the job is cancelled with a typed `timeout` frame;
    /// in-flight cells still drain into the cache.
    pub timeout_ms: Option<u64>,
}

impl JobSpec {
    /// A minimal spec of `kind` over one algorithm × one workload.
    pub fn new(kind: JobKind, algorithm: Algorithm, workload: Workload) -> JobSpec {
        JobSpec {
            kind,
            algorithms: vec![algorithm],
            workloads: vec![workload],
            schedules: Vec::new(),
            objectives: Vec::new(),
            tier: EvidenceTier::Adversarial,
            seeds: vec![0],
            faults: FaultPlan::none(),
            timeout_ms: None,
        }
    }

    /// Applies `faults` to every cell of the job.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> JobSpec {
        self.faults = faults;
        self
    }

    /// Sets the per-job deadline.
    #[must_use]
    pub fn timeout_ms(mut self, timeout_ms: u64) -> JobSpec {
        self.timeout_ms = Some(timeout_ms);
        self
    }

    /// Expands the cross product into cache keys, in the deterministic
    /// row order of the batch grid.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for empty dimensions, for jobs
    /// of more than [`MAX_JOB_CELLS`] cells and for workloads of more
    /// than [`MAX_RING_NODES`] nodes.
    pub fn keys(&self) -> Result<Vec<InstanceKey>, String> {
        let grid = Grid {
            kind: self.kind,
            algorithms: self.algorithms.clone(),
            workloads: self.workloads.iter().map(|&w| (w, None)).collect(),
            schedules: or_default(&self.schedules, &[SweepSchedule::RandomPerSeed]),
            objectives: or_default(&self.objectives, &Objective::ALL),
            seeds: or_default(&self.seeds, &[0]),
            tier: self.tier,
            faults: self.faults.clone(),
        };
        let cells = grid.cell_count();
        if cells > MAX_JOB_CELLS {
            return Err(format!(
                "job has {cells} cells, over the limit of {MAX_JOB_CELLS} per job"
            ));
        }
        if let Some(workload) = self.workloads.iter().find(|w| w.n() > MAX_RING_NODES) {
            return Err(format!(
                "workload {} is over the limit of {MAX_RING_NODES} ring nodes",
                workload.label()
            ));
        }
        grid.keys::<Infallible>().map_err(|e| e.to_string())
    }
}

/// `list`, or `default` when `list` is empty.
fn or_default<T: Clone>(list: &[T], default: &[T]) -> Vec<T> {
    if list.is_empty() { default } else { list }.to_vec()
}

/// A client → daemon frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job. `id` is client-chosen and echoed on every frame of
    /// the job; it must be unique among the connection's *active* jobs.
    Submit {
        /// Client-chosen job id, echoed on every frame of the job.
        id: u64,
        /// Admission policy when the daemon is at its concurrent-job
        /// bound.
        backpressure: Backpressure,
        /// The query batch.
        job: JobSpec,
    },
    /// Ask for a [`StatsReport`] snapshot.
    Stats,
    /// Drain all in-flight jobs, answer `bye`, and exit.
    Shutdown,
}

/// One streamed result row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowFrame {
    /// The client-chosen job id.
    pub id: u64,
    /// Cell index within the job — rows arrive with consecutive `seq`
    /// starting at 0 (the in-order delivery guarantee).
    pub seq: usize,
    /// Whether the payload was served from the result cache.
    pub cached: bool,
    /// [`InstanceKey::fingerprint`] of `key` — equals the payload's own
    /// `instance_fingerprint` field where the report type carries one.
    pub fingerprint: u64,
    /// The full canonical instance key (auditable cache identity).
    pub key: InstanceKey,
    /// The report: `DeployReport` (sweep), `ExploreReport` (explore),
    /// `WorstCase` (adversary) or `BoundCertificate` (certify) in its
    /// standard JSON encoding.
    pub payload: Json,
}

/// Cache counters of a [`StatsReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Keys answered from the cache.
    pub hits: u64,
    /// Keys looked up, not found and sent to be computed; a key probed
    /// again while its job waits for a worker counts once.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate resident bytes (canonical key + rendered payload).
    pub bytes: usize,
}

/// Daemon-wide counters answered to a stats request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Jobs currently running.
    pub active_jobs: usize,
    /// Jobs waiting for admission ([`Backpressure::Block`]).
    pub waiting_jobs: usize,
    /// Jobs completed since startup.
    pub completed_jobs: u64,
    /// Jobs refused since startup ([`Backpressure::Reject`] or
    /// shutdown).
    pub rejected_jobs: u64,
    /// Cells actually computed by the worker pool (cache misses).
    pub cells_computed: u64,
    /// Worker panics caught by the pool's `catch_unwind` since startup.
    /// Nonzero means a cell crashed its worker thread mid-compute; the
    /// CI service job asserts this stays 0.
    pub panics: u64,
    /// Jobs cancelled by their [`JobSpec::timeout_ms`] deadline since
    /// startup.
    pub timeouts: u64,
}

/// A daemon → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was admitted; `cells` rows will follow.
    Accepted {
        /// The client-chosen job id.
        id: u64,
        /// Number of rows the job will stream.
        cells: usize,
    },
    /// The job was refused (backpressure bound, or shutdown in
    /// progress).
    Rejected {
        /// The client-chosen job id.
        id: u64,
        /// Why.
        reason: String,
    },
    /// One result row.
    Row(RowFrame),
    /// The job finished; all `rows` rows were delivered.
    Done {
        /// The client-chosen job id.
        id: u64,
        /// Rows delivered.
        rows: usize,
        /// How many of them came from the cache.
        cache_hits: usize,
    },
    /// The job overran its [`JobSpec::timeout_ms`] deadline; it is
    /// cancelled and no further rows follow. In-flight cells still
    /// finish into the cache, so a timed-out job never poisons it.
    Timeout {
        /// The client-chosen job id.
        id: u64,
        /// Rows already delivered before the deadline hit.
        rows: usize,
    },
    /// A malformed request (`id: None`) or a failed cell (`id` set; the
    /// job is aborted, no further rows follow).
    Error {
        /// The job the error belongs to, when attributable.
        id: Option<u64>,
        /// Human-readable description.
        message: String,
    },
    /// Stats snapshot.
    Stats(StatsReport),
    /// Shutdown acknowledged; the daemon closes the connection next.
    Bye,
}

fn raw_field<'a>(json: &'a Json, name: &str) -> Result<&'a Json, JsonError> {
    let Json::Object(map) = json else {
        return Err(JsonError::Decode(format!("expected object, found {json}")));
    };
    map.get(name)
        .ok_or_else(|| JsonError::Decode(format!("missing field `{name}`")))
}

fn frame_type(json: &Json) -> Result<String, JsonError> {
    json.field("type")
}

impl ToJson for Backpressure {
    fn to_json(&self) -> Json {
        Json::String(self.name().to_string())
    }
}

impl FromJson for Backpressure {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .and_then(Backpressure::from_name)
            .ok_or_else(|| JsonError::Decode(format!("unknown backpressure policy {json}")))
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind", self.kind.to_json()),
            ("algorithms", Json::array(self.algorithms.iter())),
            ("workloads", Json::array(self.workloads.iter())),
            ("schedules", Json::array(self.schedules.iter())),
            ("objectives", Json::array(self.objectives.iter())),
            ("tier", self.tier.to_json()),
            ("seeds", Json::array(self.seeds.iter())),
        ];
        // Both fields default to "absent"; omitting them keeps
        // fault-free submit frames byte-identical to the pre-fault
        // protocol.
        if !self.faults.is_empty() {
            fields.push(("faults", self.faults.to_json()));
        }
        if let Some(timeout_ms) = self.timeout_ms {
            fields.push(("timeout_ms", timeout_ms.to_json()));
        }
        Json::object(fields)
    }
}

impl FromJson for JobSpec {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(JobSpec {
            kind: json.field("kind")?,
            algorithms: json.field("algorithms")?,
            workloads: json.field("workloads")?,
            schedules: json.optional_field("schedules")?.unwrap_or_default(),
            objectives: json.optional_field("objectives")?.unwrap_or_default(),
            tier: json
                .optional_field("tier")?
                .unwrap_or(EvidenceTier::Adversarial),
            seeds: json.optional_field("seeds")?.unwrap_or_else(|| vec![0]),
            faults: json.optional_field("faults")?.unwrap_or_default(),
            timeout_ms: json.optional_field("timeout_ms")?,
        })
    }
}

impl ToJson for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Submit {
                id,
                backpressure,
                job,
            } => Json::object([
                ("type", Json::String("submit".to_string())),
                ("id", id.to_json()),
                ("backpressure", backpressure.to_json()),
                ("job", job.to_json()),
            ]),
            Request::Stats => Json::object([("type", Json::String("stats".to_string()))]),
            Request::Shutdown => Json::object([("type", Json::String("shutdown".to_string()))]),
        }
    }
}

impl FromJson for Request {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match frame_type(json)?.as_str() {
            "submit" => Ok(Request::Submit {
                id: json.field("id")?,
                backpressure: json.optional_field("backpressure")?.unwrap_or_default(),
                job: json.field("job")?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(JsonError::Decode(format!("unknown request type `{other}`"))),
        }
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("evictions", self.evictions.to_json()),
            ("entries", self.entries.to_json()),
            ("bytes", self.bytes.to_json()),
        ])
    }
}

impl FromJson for CacheStats {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(CacheStats {
            hits: json.field("hits")?,
            misses: json.field("misses")?,
            evictions: json.field("evictions")?,
            entries: json.field("entries")?,
            bytes: json.field("bytes")?,
        })
    }
}

impl ToJson for StatsReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("cache", self.cache.to_json()),
            ("active_jobs", self.active_jobs.to_json()),
            ("waiting_jobs", self.waiting_jobs.to_json()),
            ("completed_jobs", self.completed_jobs.to_json()),
            ("rejected_jobs", self.rejected_jobs.to_json()),
            ("cells_computed", self.cells_computed.to_json()),
            ("panics", self.panics.to_json()),
            ("timeouts", self.timeouts.to_json()),
        ])
    }
}

impl FromJson for StatsReport {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(StatsReport {
            cache: json.field("cache")?,
            active_jobs: json.field("active_jobs")?,
            waiting_jobs: json.field("waiting_jobs")?,
            completed_jobs: json.field("completed_jobs")?,
            rejected_jobs: json.field("rejected_jobs")?,
            cells_computed: json.field("cells_computed")?,
            panics: json.optional_field("panics")?.unwrap_or_default(),
            timeouts: json.optional_field("timeouts")?.unwrap_or_default(),
        })
    }
}

impl ToJson for Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Accepted { id, cells } => Json::object([
                ("type", Json::String("accepted".to_string())),
                ("id", id.to_json()),
                ("cells", cells.to_json()),
            ]),
            Response::Rejected { id, reason } => Json::object([
                ("type", Json::String("rejected".to_string())),
                ("id", id.to_json()),
                ("reason", reason.to_json()),
            ]),
            Response::Row(row) => Json::object([
                ("type", Json::String("row".to_string())),
                ("id", row.id.to_json()),
                ("seq", row.seq.to_json()),
                ("cached", row.cached.to_json()),
                ("fingerprint", Json::String(hex_u64(row.fingerprint))),
                ("key", row.key.to_json()),
                ("payload", row.payload.clone()),
            ]),
            Response::Done {
                id,
                rows,
                cache_hits,
            } => Json::object([
                ("type", Json::String("done".to_string())),
                ("id", id.to_json()),
                ("rows", rows.to_json()),
                ("cache_hits", cache_hits.to_json()),
            ]),
            Response::Timeout { id, rows } => Json::object([
                ("type", Json::String("timeout".to_string())),
                ("id", id.to_json()),
                ("rows", rows.to_json()),
            ]),
            Response::Error { id, message } => Json::object([
                ("type", Json::String("error".to_string())),
                ("id", id.to_json()),
                ("message", message.to_json()),
            ]),
            Response::Stats(stats) => {
                let Json::Object(mut map) = stats.to_json() else {
                    unreachable!("StatsReport encodes as an object");
                };
                map.insert("type".to_string(), Json::String("stats".to_string()));
                Json::Object(map)
            }
            Response::Bye => Json::object([("type", Json::String("bye".to_string()))]),
        }
    }
}

impl FromJson for Response {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match frame_type(json)?.as_str() {
            "accepted" => Ok(Response::Accepted {
                id: json.field("id")?,
                cells: json.field("cells")?,
            }),
            "rejected" => Ok(Response::Rejected {
                id: json.field("id")?,
                reason: json.field("reason")?,
            }),
            "row" => Ok(Response::Row(RowFrame {
                id: json.field("id")?,
                seq: json.field("seq")?,
                cached: json.field("cached")?,
                fingerprint: json.hex_field("fingerprint")?,
                key: json.field("key")?,
                payload: raw_field(json, "payload")?.clone(),
            })),
            "done" => Ok(Response::Done {
                id: json.field("id")?,
                rows: json.field("rows")?,
                cache_hits: json.field("cache_hits")?,
            }),
            "timeout" => Ok(Response::Timeout {
                id: json.field("id")?,
                rows: json.field("rows")?,
            }),
            "error" => Ok(Response::Error {
                id: json.optional_field("id")?,
                message: json.field("message")?,
            }),
            "stats" => Ok(Response::Stats(StatsReport::from_json(json)?)),
            "bye" => Ok(Response::Bye),
            other => Err(JsonError::Decode(format!(
                "unknown response type `{other}`"
            ))),
        }
    }
}

/// Parses one wire line into a [`Request`].
///
/// # Errors
///
/// Returns the parse or decode failure as a human-readable message.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let json = Json::parse(line).map_err(|e| format!("invalid JSON frame: {e}"))?;
    Request::from_json(&json).map_err(|e| format!("invalid request: {e}"))
}

/// Parses one wire line into a [`Response`].
///
/// # Errors
///
/// Returns the parse or decode failure as a human-readable message.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let json = Json::parse(line).map_err(|e| format!("invalid JSON frame: {e}"))?;
    Response::from_json(&json).map_err(|e| format!("invalid response: {e}"))
}

/// Writes one frame — its JSON encoding plus `\n` — with a single
/// `write_all`, then flushes. With `TCP_NODELAY` set on both ends (see
/// [`Client::connect`](crate::Client::connect) and [`Server::run`](crate::Server::run))
/// every frame leaves as soon as it is written; under Nagle's algorithm
/// a frame split into two writes would wait for the peer's delayed ACK.
pub(crate) fn write_frame<W: Write + ?Sized>(out: &mut W, frame: &impl ToJson) -> io::Result<()> {
    let mut line = frame.to_json().to_string();
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}
