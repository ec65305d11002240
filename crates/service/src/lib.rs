//! # ringdeploy-service — `ringdeployd`, the deployment daemon
//!
//! A long-lived service in front of the `ringdeploy` verification
//! engines: clients submit sweep / explore / adversary / certify jobs
//! as line-delimited JSON frames, the daemon fans their cells out onto
//! a shared bounded worker pool, and streams result rows back **in
//! cell order** per job. Every result is memoized in a deterministic
//! [`ResultCache`] keyed by the canonical
//! [`InstanceKey`](ringdeploy_analysis::InstanceKey) encoding, so a
//! repeated query is answered byte-identically without re-running the
//! engine.
//!
//! The moving parts, one module each:
//!
//! * [`protocol`] — the wire vocabulary ([`Request`], [`Response`],
//!   [`JobSpec`], [`RowFrame`]) and its pinned JSON encodings;
//! * [`cache`] — the bounded-memory LRU result cache with hit / miss /
//!   eviction counters;
//! * [`engine`] — the pure compute kernel (a unit of keys that differ
//!   only in objective in, one rendered report per key out) that pins
//!   every free engine parameter for cache soundness;
//! * [`pool`] — the `std::thread` worker pool behind a bounded queue of
//!   units (the backpressure bound);
//! * [`daemon`] — the stewart-style actor loop owning all state;
//! * [`server`] — TCP and stdio transports, sharing one bounded reader
//!   that parses frames before they reach the actor;
//! * [`client`] — a minimal blocking client.
//!
//! # Example
//!
//! ```
//! use ringdeploy_service::{Client, DaemonConfig, JobSpec, Request, Response, Server};
//! use ringdeploy_analysis::{JobKind, Workload};
//! use ringdeploy_core::Algorithm;
//!
//! let server = Server::bind("127.0.0.1:0", DaemonConfig::default())?;
//! let addr = server.local_addr()?.to_string();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(&addr)?;
//! let job = JobSpec::new(
//!     JobKind::Sweep,
//!     Algorithm::FullKnowledge,
//!     Workload::Random { n: 16, k: 4 },
//! );
//! client.send(&Request::Submit { id: 1, backpressure: Default::default(), job })?;
//! while let Some(frame) = client.recv()? {
//!     if let Response::Done { rows, .. } = frame {
//!         assert_eq!(rows, 1);
//!         break;
//!     }
//! }
//! client.send(&Request::Shutdown)?;
//! let stats = handle.join().expect("server thread");
//! assert_eq!(stats.completed_jobs, 1);
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod engine;
pub mod pool;
pub mod protocol;
pub mod server;

pub use cache::ResultCache;
pub use client::Client;
pub use daemon::{ClientSink, Daemon, DaemonConfig, Event};
pub use protocol::{
    parse_request, parse_response, Backpressure, CacheStats, JobSpec, Request, Response, RowFrame,
    StatsReport, MAX_JOB_CELLS, MAX_RING_NODES,
};
pub use server::{serve_stdio, Server, MAX_FRAME_BYTES, WRITE_STALL_LIMIT};
