//! # ringdeploy-core — uniform deployment of mobile agents in rings
//!
//! Executable implementations of every algorithm in
//! *"Uniform deployment of mobile agents in asynchronous rings"*
//! (Shibata, Mega, Ooshita, Kakugawa, Masuzawa; PODC 2016 / JPDC 2018),
//! running on the [`ringdeploy_sim`] model of anonymous agents on an
//! anonymous asynchronous unidirectional ring with FIFO links and tokens.
//!
//! | Module | Paper | Knowledge | Termination | Memory | Time | Moves |
//! |---|---|---|---|---|---|---|
//! | [`FullKnowledge`] | §3.1, Alg. 1 | `k` | halts | `O(k log n)` | `O(n)` | `O(kn)` |
//! | [`LogSpace`] | §3.2, Alg. 2+3 | `k` | halts | `O(log n)` | `O(n log k)` | `O(kn)` |
//! | [`NoKnowledge`] | §4.2, Alg. 4–6 | none | suspends | `O((k/l)·log(n/l))` | `O(n/l)` | `O(kn/l)` |
//! | [`TerminatingEstimator`] | §4.1 strawman | none | halts (wrongly) | — | — | — |
//! | [`Rendezvous`] | §1.3 baseline | `k` | halts / detects symmetry | — | — | — |
//! | [`PartialGathering`] | arXiv:1505.06596 | `k` | halts | `O(k log n)` | `O(n)` | `Θ(gn)` |
//!
//! All three deployment algorithms achieve uniform deployment from **any**
//! initial configuration with distinct home nodes — the paper's headline
//! contrast with the rendezvous problem.
//!
//! Families are dispatched through the open [`ProblemFamily`] trait: a
//! [`Family`] handle (the [`Algorithm`] alias keeps the historical name
//! working) bundles behavior construction, the success predicate, paper
//! bounds and the offline oracle, so new problem families plug into the
//! entire verification stack without per-family matches above this
//! crate.
//!
//! # Quickstart
//!
//! ```
//! use ringdeploy_core::{Algorithm, Deployment, Schedule};
//! use ringdeploy_sim::InitialConfig;
//!
//! // Four agents clustered on a 16-node ring.
//! let init = InitialConfig::new(16, vec![0, 1, 2, 3])?;
//! let report = Deployment::of(&init)
//!     .algorithm(Algorithm::LogSpace)
//!     .schedule(Schedule::Random(1))?
//!     .run()?;
//! assert!(report.succeeded());
//! // Final positions are uniformly spaced (gap 4).
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo1;
mod algo2;
pub mod deployment;
pub mod family;
mod gathering;
mod memory_model;
mod oracle;
mod relaxed;
mod rendezvous;
mod run;
mod spacing;
mod strawman;
mod tokenless;

pub use algo1::{FullKnowledge, Learned};
pub use algo2::{BaseInfo, LogSpace, Role, SegmentId};
pub use deployment::{Asynchronous, Deployment, DriveMode, Driver, Synchronous};
pub use family::{
    explore_terminal_ok, rules, Algorithm, Family, FamilyRules, PaperBound, PartialGatheringFamily,
    ProblemFamily, UniformFullKnowledge, UniformLogSpace, UniformRelaxed,
};
pub use gathering::{gathering_oracle_brute_force, gathering_oracle_moves, PartialGathering};
pub use memory_model::{
    algo1_bounds, algo2_bounds, gathering_bounds, relaxed_bounds, theorem1_lower_bound, Bound,
};
pub use oracle::{oracle_moves, oracle_moves_brute_force, OracleSolution};
pub use relaxed::{Estimate, NoKnowledge};
pub use rendezvous::{Rendezvous, RendezvousVerdict};
pub use run::{DeployError, DeployReport, PhaseMetric, Schedule};
pub use spacing::{SpacingError, SpacingPlan};
pub use strawman::TerminatingEstimator;
pub use tokenless::TokenlessProbe;
