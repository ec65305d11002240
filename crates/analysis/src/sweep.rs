//! The [`Sweep`] batch: the [`Batch`] whose cells are sampled runs over
//! algorithms × workloads × schedules × seeds, executed in parallel on OS
//! threads and streamed as [`Measurement`] rows in deterministic row
//! order.
//!
//! `Sweep` subsumes the old `measure` / `measure_with_time` / `aggregate`
//! trio: one-off runs are a 1×1×1×1 sweep, ideal-time measurement is the
//! [`Sweep::with_ideal_time`] knob (whose async/sync verdict cross-check
//! is now a real [`MeasureError::VerdictMismatch`] instead of a
//! `debug_assert_eq!`), and [`summarize`] groups rows into the
//! Table-1-style [`Cell`]s.
//!
//! # Example
//!
//! ```
//! use ringdeploy_analysis::{Sweep, Workload};
//! use ringdeploy_core::{Algorithm, Schedule};
//!
//! let rows = Sweep::new()
//!     .algorithms([Algorithm::FullKnowledge, Algorithm::LogSpace])
//!     .workload(Workload::Random { n: 48, k: 6 })
//!     .schedule(Schedule::RoundRobin)
//!     .random_per_seed()
//!     .seeds([1, 2, 3])
//!     .run()?;
//! assert_eq!(rows.len(), 2 * 1 * 2 * 3);
//! assert!(rows.iter().all(|row| row.measurement.success));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ringdeploy_core::{Algorithm, DeployError, Deployment, Schedule};
use ringdeploy_sim::{InitialConfig, RunLimits};

use crate::experiment::{Cell, Measurement};
use crate::generators::{
    clustered_config, periodic_config, quarter_ring_config, random_aperiodic_config, random_config,
    uniform_config,
};
use crate::grid::{Batch, CellJob};
use crate::key::{InstanceKey, JobKind};
use crate::stats::Summary;

/// A named initial-configuration family, instantiable per seed.
///
/// This is the declarative (serializable, cross-product-able) counterpart
/// of the closure-style generators in [`crate::generators`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Uniformly random distinct homes.
    Random {
        /// Ring size.
        n: usize,
        /// Agent count.
        k: usize,
    },
    /// Random homes resampled until the symmetry degree is 1.
    RandomAperiodic {
        /// Ring size.
        n: usize,
        /// Agent count.
        k: usize,
    },
    /// All agents clustered in the first quarter of the ring (Fig. 3).
    QuarterRing {
        /// Ring size.
        n: usize,
        /// Agent count.
        k: usize,
    },
    /// Symmetry degree exactly `l` (§4.2.2 / Fig. 11).
    Periodic {
        /// Ring size.
        n: usize,
        /// Agent count.
        k: usize,
        /// Symmetry degree (must divide `n` and `k`).
        l: usize,
    },
    /// Already uniformly deployed (`l = k`).
    Uniform {
        /// Ring size.
        n: usize,
        /// Agent count.
        k: usize,
    },
    /// Large-ring stress tier: `k` agents packed onto the first `k` nodes
    /// of an `n ≥ 1024` ring — the Theorem-1 worst case (agents must cover
    /// `Ω(kn)` distance) at scales the incremental enabled-set engine
    /// reaches in milliseconds but the old rescan loop could not.
    LargeRing {
        /// Ring size (at least 1024; `instantiate` panics below that —
        /// smaller instances belong to [`Workload::QuarterRing`]).
        n: usize,
        /// Agent count.
        k: usize,
    },
}

impl Workload {
    /// Ring size of the family.
    pub fn n(self) -> usize {
        match self {
            Workload::Random { n, .. }
            | Workload::RandomAperiodic { n, .. }
            | Workload::QuarterRing { n, .. }
            | Workload::Periodic { n, .. }
            | Workload::Uniform { n, .. }
            | Workload::LargeRing { n, .. } => n,
        }
    }

    /// Agent count of the family.
    pub fn k(self) -> usize {
        match self {
            Workload::Random { k, .. }
            | Workload::RandomAperiodic { k, .. }
            | Workload::QuarterRing { k, .. }
            | Workload::Periodic { k, .. }
            | Workload::Uniform { k, .. }
            | Workload::LargeRing { k, .. } => k,
        }
    }

    /// Builds the concrete initial configuration for `seed`.
    /// Deterministic: the same workload and seed always produce the same
    /// configuration (deterministic families ignore the seed).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (e.g. `k > n`), mirroring the
    /// underlying generator.
    pub fn instantiate(self, seed: u64) -> InitialConfig {
        match self {
            Workload::Random { n, k } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                random_config(&mut rng, n, k)
            }
            Workload::RandomAperiodic { n, k } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                random_aperiodic_config(&mut rng, n, k)
            }
            Workload::QuarterRing { n, k } => quarter_ring_config(n, k),
            Workload::Periodic { n, k, l } => periodic_config(n, k, l),
            Workload::Uniform { n, k } => uniform_config(n, k),
            Workload::LargeRing { n, k } => {
                assert!(
                    n >= 1024,
                    "LargeRing is the n ≥ 1024 tier (got n = {n}); \
                     use QuarterRing for smaller instances"
                );
                clustered_config(n, k, 1.0)
            }
        }
    }

    /// A short label for tables and error messages.
    pub fn label(self) -> String {
        match self {
            Workload::Random { n, k } => format!("random(n={n},k={k})"),
            Workload::RandomAperiodic { n, k } => format!("aperiodic(n={n},k={k})"),
            Workload::QuarterRing { n, k } => format!("quarter(n={n},k={k})"),
            Workload::Periodic { n, k, l } => format!("periodic(n={n},k={k},l={l})"),
            Workload::Uniform { n, k } => format!("uniform(n={n},k={k})"),
            Workload::LargeRing { n, k } => format!("large(n={n},k={k})"),
        }
    }
}

/// How a sweep cell is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepSchedule {
    /// A fixed preset. [`Schedule::Synchronous`] selects the lock-step
    /// driver mode for the cell (ideal-time-only measurement).
    Preset(Schedule),
    /// `Schedule::Random(seed)` with the cell's own seed — the common
    /// "vary the adversary with the workload" pattern.
    RandomPerSeed,
}

impl SweepSchedule {
    pub(crate) fn resolve(self, seed: u64) -> Schedule {
        match self {
            SweepSchedule::Preset(preset) => preset,
            SweepSchedule::RandomPerSeed => Schedule::Random(seed),
        }
    }
}

/// One streamed result row: the cell's key plus its measurement.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Which cell produced this row.
    pub cell: InstanceKey,
    /// The measured quantities.
    pub measurement: Measurement,
}

/// Error from a single measurement (one cell).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// The run itself failed (limits, synchronous-preset misuse).
    Deploy(DeployError),
    /// With ideal-time measurement enabled, the asynchronous and
    /// synchronous runs disagreed on success — previously a
    /// `debug_assert_eq!`, now a first-class error.
    VerdictMismatch {
        /// Algorithm that disagreed.
        algorithm: Algorithm,
        /// Verdict of the asynchronous run.
        asynchronous: bool,
        /// Verdict of the synchronous run.
        synchronous: bool,
    },
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Deploy(e) => write!(f, "{e}"),
            MeasureError::VerdictMismatch {
                algorithm,
                asynchronous,
                synchronous,
            } => write!(
                f,
                "{algorithm}: asynchronous run success = {asynchronous} but \
                 synchronous run success = {synchronous}"
            ),
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasureError::Deploy(e) => Some(e),
            MeasureError::VerdictMismatch { .. } => None,
        }
    }
}

impl From<DeployError> for MeasureError {
    fn from(e: DeployError) -> Self {
        MeasureError::Deploy(e)
    }
}

/// Measures one run of `algorithm` on `init` under `schedule`, using the
/// [`Deployment`] builder. `Schedule::Synchronous` selects the lock-step
/// driver mode.
///
/// # Errors
///
/// Propagates [`DeployError`] from the run.
pub fn measure_one(
    init: &InitialConfig,
    algorithm: Algorithm,
    schedule: Schedule,
    limits: Option<RunLimits>,
) -> Result<Measurement, DeployError> {
    let mut deployment = Deployment::of(init).algorithm(algorithm);
    if let Some(limits) = limits {
        deployment = deployment.limits(limits);
    }
    let report = deployment.run_preset(schedule)?;
    Ok(Measurement::from_report(schedule, &report))
}

/// Runs `algorithm` on `init` twice — once under the asynchronous
/// `schedule` for adversarial validation, once synchronously for ideal
/// time — and returns the synchronous measurement (which carries
/// `ideal_time`).
///
/// # Errors
///
/// Propagates run errors, and returns
/// [`MeasureError::VerdictMismatch`] when the two runs disagree on
/// success (the old `measure_with_time` only `debug_assert`ed this).
pub fn measure_with_ideal_time(
    init: &InitialConfig,
    algorithm: Algorithm,
    schedule: Schedule,
    limits: Option<RunLimits>,
) -> Result<Measurement, MeasureError> {
    let async_m = measure_one(init, algorithm, schedule, limits)?;
    let sync_m = measure_one(init, algorithm, Schedule::Synchronous, limits)?;
    if async_m.success != sync_m.success {
        return Err(MeasureError::VerdictMismatch {
            algorithm,
            asynchronous: async_m.success,
            synchronous: sync_m.success,
        });
    }
    Ok(sync_m)
}

/// The per-cell job of a [`Sweep`]: one measured run under the cell's
/// schedule.
#[derive(Debug, Clone, Default)]
pub struct SweepJob {
    ideal_time: bool,
    threads: Option<usize>,
    limits: Option<RunLimits>,
}

impl CellJob for SweepJob {
    const KIND: JobKind = JobKind::Sweep;
    type Row = SweepRow;
    type Error = MeasureError;

    fn row(&self, key: &InstanceKey, init: &InitialConfig) -> Result<SweepRow, MeasureError> {
        let schedule = key.schedule.expect("sweep keys carry a schedule");
        let measurement = if self.ideal_time && schedule != Schedule::Synchronous {
            measure_with_ideal_time(init, key.algorithm, schedule, self.limits)?
        } else {
            measure_one(init, key.algorithm, schedule, self.limits)?
        };
        Ok(SweepRow {
            cell: key.clone(),
            measurement,
        })
    }

    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }
}

/// A batch of measurement runs over the cross product
/// algorithms × workloads × schedules × seeds.
///
/// Cells execute in parallel on OS threads ([`Sweep::threads`] caps the
/// pool; the default is the machine's available parallelism) and results
/// stream to the caller **in deterministic row order**, so a parallel
/// sweep is row-for-row identical to `threads(1)`.
pub type Sweep = Batch<SweepJob>;

impl Sweep {
    /// Adds a preset schedule. `Schedule::Synchronous` makes the cell run
    /// in lock-step mode.
    pub fn schedule(mut self, preset: Schedule) -> Self {
        self.grid.schedules.push(SweepSchedule::Preset(preset));
        self
    }

    /// Adds several preset schedules.
    pub fn schedules(mut self, presets: impl IntoIterator<Item = Schedule>) -> Self {
        self.grid
            .schedules
            .extend(presets.into_iter().map(SweepSchedule::Preset));
        self
    }

    /// Adds the per-seed random schedule: each cell runs under
    /// `Schedule::Random(cell_seed)`.
    pub fn random_per_seed(mut self) -> Self {
        self.grid.schedules.push(SweepSchedule::RandomPerSeed);
        self
    }

    /// Also measures ideal time: every asynchronous cell additionally
    /// runs synchronously, the success verdicts are cross-checked
    /// ([`MeasureError::VerdictMismatch`]), and the synchronous
    /// measurement (carrying `ideal_time`) becomes the row.
    pub fn with_ideal_time(mut self) -> Self {
        self.job.ideal_time = true;
        self
    }

    /// Caps the worker-thread count (default: available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.job.threads = Some(threads.max(1));
        self
    }

    /// Overrides the run limits of every cell.
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.job.limits = Some(limits);
        self
    }
}

/// Groups rows by `(algorithm, n, k)` — in first-appearance order — and
/// aggregates each group into a Table-1-style [`Cell`].
pub fn summarize(rows: &[SweepRow]) -> Vec<Cell> {
    let mut order: Vec<(Algorithm, usize, usize)> = Vec::new();
    for row in rows {
        let key = (
            row.measurement.algorithm,
            row.measurement.n,
            row.measurement.k,
        );
        if !order.contains(&key) {
            order.push(key);
        }
    }
    order
        .into_iter()
        .map(|(algorithm, n, k)| {
            let group: Vec<&Measurement> = rows
                .iter()
                .map(|r| &r.measurement)
                .filter(|m| m.algorithm == algorithm && m.n == n && m.k == k)
                .collect();
            let success_rate =
                group.iter().filter(|m| m.success).count() as f64 / group.len() as f64;
            let moves = Summary::of_u64(&group.iter().map(|m| m.total_moves).collect::<Vec<_>>());
            let time = Summary::of_u64(
                &group
                    .iter()
                    .filter_map(|m| m.ideal_time)
                    .collect::<Vec<_>>(),
            );
            let memory = Summary::of_u64(
                &group
                    .iter()
                    .map(|m| m.peak_memory_bits as u64)
                    .collect::<Vec<_>>(),
            );
            let symmetry_degree = match group.split_first() {
                Some((first, rest))
                    if rest
                        .iter()
                        .all(|m| m.symmetry_degree == first.symmetry_degree) =>
                {
                    first.symmetry_degree
                }
                _ => 0,
            };
            Cell {
                algorithm,
                n,
                k,
                symmetry_degree,
                success_rate,
                moves,
                time,
                memory,
            }
        })
        .collect()
}

mod json_impls {
    use super::{SweepSchedule, Workload};
    use ringdeploy_core::Schedule;
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for Workload {
        fn to_json(&self) -> Json {
            let (family, l) = match self {
                Workload::Random { .. } => ("random", None),
                Workload::RandomAperiodic { .. } => ("aperiodic", None),
                Workload::QuarterRing { .. } => ("quarter", None),
                Workload::Periodic { l, .. } => ("periodic", Some(*l)),
                Workload::Uniform { .. } => ("uniform", None),
                Workload::LargeRing { .. } => ("large", None),
            };
            let mut fields = vec![
                ("family", Json::String(family.to_string())),
                ("n", self.n().to_json()),
                ("k", self.k().to_json()),
            ];
            if let Some(l) = l {
                fields.push(("l", l.to_json()));
            }
            Json::object(fields)
        }
    }

    impl FromJson for Workload {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            let family: String = json.field("family")?;
            let n: usize = json.field("n")?;
            let k: usize = json.field("k")?;
            Ok(match family.as_str() {
                "random" => Workload::Random { n, k },
                "aperiodic" => Workload::RandomAperiodic { n, k },
                "quarter" => Workload::QuarterRing { n, k },
                "periodic" => Workload::Periodic {
                    n,
                    k,
                    l: json.field("l")?,
                },
                "uniform" => Workload::Uniform { n, k },
                "large" => Workload::LargeRing { n, k },
                other => {
                    return Err(JsonError::Decode(format!(
                        "unknown workload family `{other}`"
                    )))
                }
            })
        }
    }

    impl ToJson for SweepSchedule {
        fn to_json(&self) -> Json {
            match self {
                SweepSchedule::Preset(preset) => preset.to_json(),
                SweepSchedule::RandomPerSeed => Json::String("random-per-seed".to_string()),
            }
        }
    }

    impl FromJson for SweepSchedule {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            if json.as_str() == Some("random-per-seed") {
                return Ok(SweepSchedule::RandomPerSeed);
            }
            Schedule::from_json(json).map(SweepSchedule::Preset)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> Sweep {
        Sweep::new()
            .algorithms(Algorithm::ALL)
            .workload(Workload::Random { n: 30, k: 5 })
            .workload(Workload::Periodic { n: 24, k: 4, l: 2 })
            .schedule(Schedule::RoundRobin)
            .random_per_seed()
            .seeds([11, 12])
    }

    #[test]
    fn parallel_rows_equal_serial_rows_at_any_thread_count() {
        let serial = small_sweep().threads(1).run().unwrap();
        assert_eq!(serial.len(), 3 * 2 * 2 * 2);
        for threads in [2, 3, 4] {
            let parallel = small_sweep().threads(threads).run().unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.cell, b.cell);
                assert_eq!(a.measurement, b.measurement);
            }
        }
    }

    #[test]
    fn ideal_time_mode_fills_rounds_and_checks_verdicts() {
        let rows = Sweep::new()
            .algorithm(Algorithm::LogSpace)
            .workload(Workload::RandomAperiodic { n: 36, k: 4 })
            .random_per_seed()
            .seeds([5])
            .with_ideal_time()
            .run()
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].measurement.ideal_time.is_some());
        assert!(rows[0].measurement.success);
    }

    #[test]
    fn synchronous_preset_cells_run_in_lock_step() {
        let rows = Sweep::new()
            .algorithm(Algorithm::FullKnowledge)
            .workload(Workload::Uniform { n: 20, k: 4 })
            .schedule(Schedule::Synchronous)
            .run()
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].measurement.ideal_time.is_some());
        assert_eq!(rows[0].measurement.schedule, Schedule::Synchronous);
    }

    #[test]
    fn failing_cell_aborts_with_its_label() {
        // Unreachable limits force a StepLimitExceeded in every cell.
        let err = Sweep::new()
            .algorithm(Algorithm::FullKnowledge)
            .workload(Workload::QuarterRing { n: 64, k: 16 })
            .schedule(Schedule::RoundRobin)
            .limits(RunLimits::new(5, 5))
            .run()
            .unwrap_err();
        let crate::BatchError::Cell { index, label, .. } = err else {
            panic!("expected cell error, got {err:?}");
        };
        assert_eq!(index, 0);
        assert!(label.contains("quarter(n=64,k=16)"), "{label}");
    }

    #[test]
    fn large_ring_tier_runs_at_thousands_of_nodes() {
        // Feasible only with the incremental enabled-set engine: the old
        // rescan loop made every step Θ(n) at n = 2048.
        let rows = Sweep::new()
            .algorithm(Algorithm::FullKnowledge)
            .workload(Workload::LargeRing { n: 2048, k: 4 })
            .schedule(Schedule::RoundRobin)
            .run()
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].measurement.success);
        assert_eq!(rows[0].measurement.n, 2048);
        // The clustered start really forces Ω(kn)-scale movement.
        assert!(rows[0].measurement.total_moves > 2048);
        assert_eq!(
            Workload::LargeRing { n: 2048, k: 4 }.label(),
            "large(n=2048,k=4)"
        );
    }

    #[test]
    #[should_panic(expected = "n ≥ 1024")]
    fn large_ring_tier_rejects_small_rings() {
        Workload::LargeRing { n: 512, k: 4 }.instantiate(0);
    }

    #[test]
    fn summarize_groups_by_algorithm_and_size() {
        let rows = small_sweep().run().unwrap();
        let cells = summarize(&rows);
        // 3 algorithms × 2 workload sizes.
        assert_eq!(cells.len(), 6);
        for cell in &cells {
            assert!((cell.success_rate - 1.0).abs() < f64::EPSILON);
            assert!(cell.moves.mean > 0.0);
        }
    }
}
