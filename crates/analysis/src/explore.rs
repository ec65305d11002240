//! The [`Explore`] batch API: exhaustive-verification sweeps, mirroring
//! [`Sweep`](crate::Sweep) — a cross product of algorithms × workloads ×
//! seeds whose cells each run the bounded model checker
//! ([`ringdeploy_sim::explore::Explorer`]) instead of a single sampled
//! execution, streaming [`ExploreRow`]s in deterministic cell order.
//!
//! Unlike `Sweep`, cells execute **sequentially**, each one a single
//! in-place DFS; row order is deterministic.
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
//! # Ok::<(), ringdeploy_analysis::ExploreBatchError>(())
//! ```

use ringdeploy_core::{Algorithm, ExploreEngine};
use ringdeploy_sim::explore::{
    ExploreErrorKind, ExploreLimits, ExploreReport, Explorer, SymmetryMode,
};
use ringdeploy_sim::{FaultPlan, InitialConfig};

use crate::sweep::Workload;

/// Coordinates of one cell in an exploration sweep's cross product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreCell {
    /// Position in the deterministic enumeration order (row order).
    pub index: usize,
    /// Algorithm of the cell.
    pub algorithm: Algorithm,
    /// Workload family of the cell.
    pub workload: Workload,
    /// Seed used for workload instantiation.
    pub seed: u64,
}

impl ExploreCell {
    /// A human-readable cell label for reports and errors.
    pub fn label(&self) -> String {
        format!(
            "{} × {} × seed {}",
            self.algorithm,
            self.workload.label(),
            self.seed
        )
    }
}

/// One streamed result row: the cell coordinates plus its exhaustive
/// exploration report.
#[derive(Debug, Clone)]
pub struct ExploreRow {
    /// Which cell produced this row.
    pub cell: ExploreCell,
    /// The exploration report (state/terminal counts, terminal
    /// fingerprints, merge-edge diagnostics).
    pub report: ExploreReport,
}

/// Error aborting an exploration sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreBatchError {
    /// A dimension of the cross product is empty.
    EmptyDimension {
        /// Which builder list was empty.
        dimension: &'static str,
    },
    /// A cell failed; carries the cell label for diagnosis. A
    /// [`ExploreErrorKind::PredicateViolated`] here means the sweep
    /// *disproved* the algorithm on that instance.
    Cell {
        /// Enumeration index of the failing cell.
        index: usize,
        /// [`ExploreCell::label`] of the failing cell.
        label: String,
        /// The underlying exploration failure.
        error: ExploreErrorKind,
    },
}

impl std::fmt::Display for ExploreBatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreBatchError::EmptyDimension { dimension } => {
                write!(f, "exploration sweep has an empty {dimension} list")
            }
            ExploreBatchError::Cell {
                index,
                label,
                error,
            } => write!(f, "exploration cell #{index} ({label}) failed: {error}"),
        }
    }
}

impl std::error::Error for ExploreBatchError {}

/// A batch of exhaustive explorations over the cross product
/// algorithms × workloads × seeds. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Explore {
    algorithms: Vec<Algorithm>,
    workloads: Vec<(Workload, Option<u64>)>,
    seeds: Vec<u64>,
    limits: Option<ExploreLimits>,
    symmetry: SymmetryMode,
    faults: FaultPlan,
}

impl Default for Explore {
    fn default() -> Self {
        Explore::new()
    }
}

impl Explore {
    /// An empty sweep: add at least one algorithm and one workload before
    /// running ([`Explore::seeds`] defaults to the single seed 0).
    pub fn new() -> Self {
        Explore {
            algorithms: Vec::new(),
            workloads: Vec::new(),
            seeds: vec![0],
            limits: None,
            symmetry: SymmetryMode::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Adds one algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithms.push(algorithm);
        self
    }

    /// Adds several algorithms.
    pub fn algorithms(mut self, algorithms: impl IntoIterator<Item = Algorithm>) -> Self {
        self.algorithms.extend(algorithms);
        self
    }

    /// Adds one workload family.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workloads.push((workload, None));
        self
    }

    /// Adds several workload families.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads
            .extend(workloads.into_iter().map(|w| (w, None)));
        self
    }

    /// Adds a workload with a **fixed** seed overriding the sweep's seed
    /// list for this workload (same convention as
    /// [`Sweep::seeded_workload`](crate::Sweep::seeded_workload)).
    pub fn seeded_workload(mut self, workload: Workload, seed: u64) -> Self {
        self.workloads.push((workload, Some(seed)));
        self
    }

    /// Replaces the seed list (default: the single seed 0). Deterministic
    /// workload families ignore the seed, so sweeps over them usually
    /// keep the default.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Overrides the exploration limits of every cell (default:
    /// [`ExploreLimits::for_instance`] scaled per cell).
    pub fn limits(mut self, limits: ExploreLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Selects the symmetry quotient (default:
    /// [`SymmetryMode::Rotation`]).
    pub fn symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Injects a deterministic fault plan into every cell's instance
    /// (default: fault-free): the explorer then sweeps every bounded-
    /// fault execution the plan admits, with fault moves enumerated as
    /// adversary-controllable transitions.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enumerates the cells in deterministic order (algorithms outermost,
    /// seeds innermost).
    ///
    /// # Errors
    ///
    /// Returns [`ExploreBatchError::EmptyDimension`] when a dimension is
    /// empty.
    pub fn cells(&self) -> Result<Vec<ExploreCell>, ExploreBatchError> {
        for (dimension, empty) in [
            ("algorithm", self.algorithms.is_empty()),
            ("workload", self.workloads.is_empty()),
            ("seed", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(ExploreBatchError::EmptyDimension { dimension });
            }
        }
        let mut cells = Vec::new();
        for &algorithm in &self.algorithms {
            for &(workload, fixed_seed) in &self.workloads {
                let seeds: &[u64] = match &fixed_seed {
                    Some(seed) => std::slice::from_ref(seed),
                    None => &self.seeds,
                };
                for &seed in seeds {
                    cells.push(ExploreCell {
                        index: cells.len(),
                        algorithm,
                        workload,
                        seed,
                    });
                }
            }
        }
        Ok(cells)
    }

    /// Runs every cell and collects the rows in cell order.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's error; rows after a failure are
    /// not produced.
    pub fn run(&self) -> Result<Vec<ExploreRow>, ExploreBatchError> {
        let mut rows = Vec::new();
        self.stream(|row| rows.push(row))?;
        Ok(rows)
    }

    /// Runs every cell, invoking `on_row` for each result as soon as its
    /// exploration completes (cells run in order, so rows stream in
    /// order).
    ///
    /// # Errors
    ///
    /// As for [`Explore::run`]; `on_row` is never called at or after the
    /// failing cell.
    pub fn stream(&self, mut on_row: impl FnMut(ExploreRow)) -> Result<(), ExploreBatchError> {
        for cell in self.cells()? {
            let report = self
                .explore_cell(&cell)
                .map_err(|error| ExploreBatchError::Cell {
                    index: cell.index,
                    label: cell.label(),
                    error,
                })?;
            on_row(ExploreRow { cell, report });
        }
        Ok(())
    }

    fn explore_cell(&self, cell: &ExploreCell) -> Result<ExploreReport, ExploreErrorKind> {
        let init = cell
            .workload
            .instantiate(cell.seed)
            .with_faults(self.faults.clone());
        let limits = self
            .limits
            .unwrap_or_else(|| ExploreLimits::for_instance(init.ring_size(), init.agent_count()));
        let explorer = Explorer::new().limits(limits).symmetry(self.symmetry);
        explore_one(cell.algorithm, &init, &explorer)
    }
}

/// Exhaustively explores one explicit instance under `algorithm` with the
/// given engine configuration — trait-routed through
/// [`ProblemFamily::explore`](ringdeploy_core::ProblemFamily::explore),
/// which pairs the family's behavior factory with its terminal
/// predicate. [`Explore`] cells, the CLI's `--explore` mode and the
/// `explore_scale` bench all route through here.
///
/// Family predicates are rotation-invariant by the trait contract
/// (uniform spacing and group sizes are properties of gap/group
/// multisets), so both symmetry modes are sound.
///
/// # Errors
///
/// The type-erased [`ExploreErrorKind`] of the exploration failure; a
/// `PredicateViolated` means the instance was *disproved*.
pub fn explore_one(
    algorithm: Algorithm,
    init: &InitialConfig,
    explorer: &Explorer,
) -> Result<ExploreReport, ExploreErrorKind> {
    algorithm.explore(init, explorer, ExploreEngine::Serial)
}

/// Alias of [`explore_one`], kept for callers that name the engine.
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

/// As [`explore_one`], but through the **retained clone-based reference
/// engine** ([`Explorer::run_serial_reference`]) — the pre-0.5 serial DFS
/// kept as the differential oracle for the clone-free engine and as the
/// throughput baseline of the `explore_scale` bench.
///
/// # Errors
///
/// As [`explore_one`].
pub fn explore_one_reference(
    algorithm: Algorithm,
    init: &InitialConfig,
    explorer: &Explorer,
) -> Result<ExploreReport, ExploreErrorKind> {
    algorithm.explore(init, explorer, ExploreEngine::Reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_explore() -> Explore {
        Explore::new()
            .algorithms(Algorithm::ALL)
            .workload(Workload::Uniform { n: 8, k: 4 })
            .workload(Workload::QuarterRing { n: 8, k: 2 })
    }

    #[test]
    fn cross_product_enumeration_is_complete_and_ordered() {
        let cells = small_explore().cells().unwrap();
        assert_eq!(cells.len(), 3 * 2);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
        assert_eq!(cells[0].algorithm, Algorithm::FullKnowledge);
        assert_eq!(cells[0].workload, Workload::Uniform { n: 8, k: 4 });
    }

    #[test]
    fn empty_dimensions_are_reported() {
        let err = Explore::new().cells().unwrap_err();
        assert_eq!(
            err,
            ExploreBatchError::EmptyDimension {
                dimension: "algorithm"
            }
        );
        let err = Explore::new()
            .algorithm(Algorithm::LogSpace)
            .cells()
            .unwrap_err();
        assert_eq!(
            err,
            ExploreBatchError::EmptyDimension {
                dimension: "workload"
            }
        );
    }

    #[test]
    fn every_algorithm_verifies_on_small_instances() {
        let rows = small_explore().run().unwrap();
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
    fn streaming_delivers_rows_in_cell_order() {
        let mut indices = Vec::new();
        small_explore()
            .stream(|row| indices.push(row.cell.index))
            .unwrap();
        assert_eq!(indices, (0..6).collect::<Vec<_>>());
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
        let ExploreBatchError::Cell {
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

    #[test]
    fn seeded_workloads_override_the_seed_list() {
        let cells = Explore::new()
            .algorithm(Algorithm::FullKnowledge)
            .seeded_workload(Workload::Random { n: 10, k: 3 }, 777)
            .seeds([1, 2, 3])
            .cells()
            .unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].seed, 777);
    }
}
