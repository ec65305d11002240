//! # ringdeploy — uniform deployment of mobile agents in asynchronous rings
//!
//! A complete, executable reproduction of
//! *"Uniform deployment of mobile agents in asynchronous rings"*
//! (Masahiro Shibata, Toshiya Mega, Fukuhito Ooshita, Hirotsugu Kakugawa,
//! Toshimitsu Masuzawa; PODC 2016, journal version JPDC 119:92–106, 2018).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — the anonymous asynchronous unidirectional ring model
//!   (FIFO links, tokens, atomic actions, fair schedulers, ideal time);
//! * [`seq`] — distance sequences, minimal rotations, symmetry degree;
//! * [`core`] — the paper's algorithms: [`FullKnowledge`] (Alg. 1),
//!   [`LogSpace`] (Alg. 2+3), [`NoKnowledge`] (Alg. 4–6), the
//!   [`TerminatingEstimator`] strawman of Theorem 5 and the
//!   [`Rendezvous`] contrast baseline — plus the [`Deployment`] run
//!   builder;
//! * [`analysis`] — workload generators, the parallel [`Sweep`] batch
//!   API, statistics;
//! * [`embed`] — the §5 extension: Euler-tour ring embedding for trees and
//!   spanning-tree embedding for general graphs;
//! * [`service`] — `ringdeployd`, the long-lived deployment daemon with
//!   the deterministic result cache (`--serve` / `--connect` in the CLI).
//!
//! # Quickstart
//!
//! ```
//! use ringdeploy::{Algorithm, Deployment, InitialConfig, Schedule};
//!
//! // Eight agents crowded into one corner of a 40-node ring.
//! let init = InitialConfig::new(40, (0..8).collect())?;
//!
//! // Run the O(log n)-memory algorithm under a random fair schedule.
//! let report = Deployment::of(&init)
//!     .algorithm(Algorithm::LogSpace)
//!     .schedule(Schedule::Random(42))?
//!     .run()?;
//!
//! assert!(report.succeeded());                 // Definition 1 satisfied
//! assert!(report.metrics.total_moves() <= 4 * 8 * 40); // O(kn) moves
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Custom adversaries implement [`sim::Scheduler`] and plug into
//! [`Deployment::scheduler`]; lock-step ideal-time runs use
//! [`Deployment::synchronous`]; parameter studies cross-product
//! algorithms × workloads × schedules × seeds with [`Sweep`] and run the
//! cells in parallel. For machine-checked proofs on small instances,
//! [`Explore`] runs the symmetry-reduced exhaustive model checker
//! ([`sim::explore::Explorer`]) over **every** fair schedule of each
//! cell.
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! paper-to-module map and the `experiments` binary for the reproduced
//! tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ringdeploy_analysis as analysis;
pub use ringdeploy_core as core;
pub use ringdeploy_embed as embed;
pub use ringdeploy_json as json;
pub use ringdeploy_seq as seq;
pub use ringdeploy_service as service;
pub use ringdeploy_sim as sim;
pub use ringdeploy_vis as vis;

pub use ringdeploy_analysis::{
    Adversary, BoundCertificate, Certify, CertifyRow, Explore, ExploreRow, Objective, Sweep,
    SweepRow, Workload, WorstCase,
};
pub use ringdeploy_core::{
    Algorithm, DeployError, DeployReport, Deployment, Family, FullKnowledge, LogSpace, NoKnowledge,
    PartialGathering, PhaseMetric, ProblemFamily, Rendezvous, RendezvousVerdict, Schedule,
    SpacingPlan, TerminatingEstimator,
};
pub use ringdeploy_seq::DistanceSeq;
pub use ringdeploy_sim::{
    is_uniform_spacing, render_ring, AgentId, FaultPlan, InitialConfig, Metrics, Ring, RunLimits,
    Scheduler,
};
