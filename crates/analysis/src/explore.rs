//! The [`Explore`] batch: the [`Batch`] whose cells each run the bounded
//! model checker ([`ringdeploy_sim::explore::Explorer`]) over algorithms ×
//! workloads × seeds instead of a single sampled execution, streaming
//! [`ExploreRow`]s in deterministic row order.
//!
//! Unlike [`Sweep`](crate::Sweep), cells execute **sequentially**, each
//! one a single in-place DFS.
//!
//! # Example
//!
//! ```
//! use ringdeploy_analysis::{Explore, Workload};
//! use ringdeploy_core::Algorithm;
//!
//! let rows = Explore::new()
//!     .algorithms([Algorithm::FullKnowledge, Algorithm::LogSpace])
//!     .workload(Workload::Uniform { n: 8, k: 4 })
//!     .run()?;
//! assert_eq!(rows.len(), 2);
//! for row in &rows {
//!     // Machine-checked: every schedule of the instance deploys.
//!     assert!(row.report.terminals >= 1);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use ringdeploy_core::Algorithm;
use ringdeploy_sim::explore::{
    ExploreErrorKind, ExploreLimits, ExploreReport, Explorer, SymmetryMode,
};
use ringdeploy_sim::InitialConfig;

use crate::grid::{Batch, CellJob};
use crate::key::{InstanceKey, JobKind};

/// One streamed result row: the cell's key plus its exhaustive
/// exploration report.
#[derive(Debug, Clone)]
pub struct ExploreRow {
    /// Which cell produced this row.
    pub cell: InstanceKey,
    /// The exploration report (state/terminal counts, terminal
    /// fingerprints, merge-edge diagnostics).
    pub report: ExploreReport,
}

/// The per-cell job of an [`Explore`] batch: one exhaustive exploration.
/// A [`ExploreErrorKind::PredicateViolated`] cell error means the batch
/// *disproved* the algorithm on that instance.
#[derive(Debug, Clone, Default)]
pub struct ExploreJob {
    limits: Option<ExploreLimits>,
    symmetry: SymmetryMode,
}

impl CellJob for ExploreJob {
    const KIND: JobKind = JobKind::Explore;
    type Row = ExploreRow;
    type Error = ExploreErrorKind;

    fn row(&self, key: &InstanceKey, init: &InitialConfig) -> Result<ExploreRow, ExploreErrorKind> {
        let limits = self
            .limits
            .unwrap_or_else(|| ExploreLimits::for_instance(init.ring_size(), init.agent_count()));
        let explorer = Explorer::new().limits(limits).symmetry(self.symmetry);
        Ok(ExploreRow {
            cell: key.clone(),
            report: explore_one(key.algorithm, init, &explorer)?,
        })
    }
}

/// A batch of exhaustive explorations over the cross product
/// algorithms × workloads × seeds. See the [module docs](self).
pub type Explore = Batch<ExploreJob>;

impl Explore {
    /// Overrides the exploration limits of every cell (default:
    /// [`ExploreLimits::for_instance`] scaled per cell).
    pub fn limits(mut self, limits: ExploreLimits) -> Self {
        self.job.limits = Some(limits);
        self
    }

    /// Selects the symmetry quotient (default:
    /// [`SymmetryMode::Rotation`]).
    pub fn symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.job.symmetry = symmetry;
        self
    }
}

/// Exhaustively explores one explicit instance under `algorithm` with the
/// given engine configuration — trait-routed through
/// [`ProblemFamily::explore`](ringdeploy_core::ProblemFamily::explore),
/// which pairs the family's behavior factory with its terminal
/// predicate. [`Explore`] cells (the daemon's explore cells among them),
/// the CLI's `--explore` mode, the `verified` experiment and the
/// `explore_scale` bench all route through here.
///
/// Family predicates are rotation-invariant by the trait contract
/// (uniform spacing and group sizes are properties of gap/group
/// multisets), so both symmetry modes are sound.
///
/// # Errors
///
/// See [`ExploreErrorKind`]; a `PredicateViolated` means the instance
/// was *disproved*.
pub fn explore_one(
    algorithm: Algorithm,
    init: &InitialConfig,
    explorer: &Explorer,
) -> Result<ExploreReport, ExploreErrorKind> {
    algorithm.explore(init, explorer)
}

/// Alias of [`explore_one`], still called by the end-to-end benchmark
/// (`e2ebench`); it goes in the benchmark step of ROADMAP's dead-weight
/// item, which switches that caller to [`explore_one`].
///
/// # Errors
///
/// As [`explore_one`].
pub fn explore_one_serial(
    algorithm: Algorithm,
    init: &InitialConfig,
    explorer: &Explorer,
) -> Result<ExploreReport, ExploreErrorKind> {
    explore_one(algorithm, init, explorer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn every_algorithm_verifies_on_small_instances() {
        let rows = Explore::new()
            .algorithms(Algorithm::ALL)
            .workload(Workload::Uniform { n: 8, k: 4 })
            .workload(Workload::QuarterRing { n: 8, k: 2 })
            .run()
            .unwrap();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.report.terminals >= 1, "{}", row.cell.label());
            assert!(
                row.report.states > row.report.terminals,
                "{}",
                row.cell.label()
            );
        }
    }

    #[test]
    fn symmetry_off_explores_more_states_than_rotation() {
        let base = Explore::new()
            .algorithm(Algorithm::FullKnowledge)
            .workload(Workload::Uniform { n: 8, k: 4 });
        let plain = base
            .clone()
            .symmetry(SymmetryMode::Off)
            .run()
            .unwrap()
            .remove(0);
        let reduced = base
            .clone()
            .symmetry(SymmetryMode::Rotation)
            .run()
            .unwrap()
            .remove(0);
        assert!(
            reduced.report.states * 3 < plain.report.states,
            "l = 4 must reduce ≥3×: {} vs {}",
            reduced.report.states,
            plain.report.states
        );
    }

    #[test]
    fn failing_cell_aborts_with_its_label() {
        let err = Explore::new()
            .algorithm(Algorithm::FullKnowledge)
            .workload(Workload::Uniform { n: 8, k: 4 })
            .limits(ExploreLimits::new(3, 100))
            .run()
            .unwrap_err();
        let crate::BatchError::Cell {
            index,
            label,
            error,
        } = err
        else {
            panic!("expected cell error, got {err:?}");
        };
        assert_eq!(index, 0);
        assert!(label.contains("uniform(n=8,k=4)"), "{label}");
        assert!(matches!(error, ExploreErrorKind::LimitExceeded(_)));
    }
}
