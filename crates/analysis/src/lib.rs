//! # ringdeploy-analysis — workloads, sweeps and reporting
//!
//! The experiment layer of the uniform-deployment reproduction:
//!
//! * [`generators`]: every initial-configuration family used by the paper's
//!   arguments — random, clustered/quarter-ring (Theorem 1 / Fig. 3),
//!   periodic with prescribed symmetry degree `l` (§4.2.2 / Fig. 11),
//!   already-uniform, explicit gap lists, and the Theorem 5 replication
//!   construction (Fig. 7).
//! * [`Grid`] / [`Batch`]: the one cross product algorithms × workloads
//!   × schedules-or-objectives × seeds, enumerated as [`InstanceKey`]s,
//!   and the in-order streaming executor the three batches below share.
//! * [`Sweep`] / [`Measurement`]: batched (parallel) runs → the paper's three
//!   measures (peak agent memory in bits, ideal time in rounds, total
//!   moves) plus the Definition 1/2 verdict.
//! * [`Explore`]: the exhaustive-verification batch — each cell runs the
//!   symmetry-reduced bounded model checker over *every* schedule of its
//!   instance instead of sampling one.
//! * [`Certify`]: the bound-certification batch — each cell finds
//!   the exact adversarial worst case of a paper measure
//!   (an exact search over the reversible engine) and evaluates the
//!   recorded paper bound against it, with a replayable witness
//!   schedule and the competitive ratio versus [`oracle_moves`].
//! * [`Summary`] / [`LinearFit`]: statistics for scaling-shape checks.
//! * [`TextTable`]: aligned text / CSV rendering for the `experiments`
//!   binary that regenerates every table and figure.
//!
//! # Example
//!
//! ```
//! use ringdeploy_analysis::{Sweep, Workload};
//! use ringdeploy_core::Algorithm;
//!
//! // Eight agents on a 32-node ring, three seeds, random adversaries.
//! let rows = Sweep::new()
//!     .algorithm(Algorithm::FullKnowledge)
//!     .workload(Workload::Random { n: 32, k: 8 })
//!     .random_per_seed()
//!     .seeds([7, 8, 9])
//!     .run()?;
//! for row in &rows {
//!     assert!(row.measurement.success);
//!     assert!(row.measurement.total_moves <= 3 * 8 * 32); // O(kn), constant 3
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
mod experiment;
pub mod explore;
pub mod generators;
pub mod grid;
pub mod key;
mod stats;
pub mod sweep;
mod table;

pub use certify::{
    certify_all, certify_one, paper_bound, worst_case_one, BoundCertificate, Certify,
    CertifyErrorKind, CertifyRow, CertifySettings, DegradationVerdict, EvidenceTier, PaperBound,
    SearchStats,
};
pub use experiment::{Cell, Measurement};
pub use explore::{
    explore_one, explore_one_reference, explore_one_serial, Explore, ExploreJob, ExploreRow,
};
pub use generators::{
    clustered_config, from_gaps, periodic_config, quarter_ring_config, random_aperiodic_config,
    random_config, theorem5_config, uniform_config,
};
pub use grid::{Batch, BatchError, CellJob, Grid};
pub use key::{InstanceKey, JobKind};
// The paper-bound shapes and the offline oracle moved into
// `ringdeploy-core` alongside the `ProblemFamily` trait that consumes
// them; re-exported here so `ringdeploy::analysis::{oracle_moves, ..}`
// callers keep working.
pub use ringdeploy_core::{
    algo1_bounds, algo2_bounds, gathering_bounds, relaxed_bounds, theorem1_lower_bound, Bound,
};
pub use ringdeploy_core::{
    gathering_oracle_brute_force, gathering_oracle_moves, oracle_moves, oracle_moves_brute_force,
    OracleSolution,
};
pub use ringdeploy_sim::adversary::{Adversary, AdversaryError, Objective, WorstCase};
pub use stats::{LinearFit, Summary};
pub use sweep::{
    measure_one, measure_with_ideal_time, summarize, MeasureError, Sweep, SweepJob, SweepRow,
    SweepSchedule, Workload,
};
pub use table::{fmt_f64, TextTable};
