//! One batch grid: the cross product every batch front-end runs and
//! every `ringdeployd` job caches, enumerated once.
//!
//! A [`Grid`] is algorithms × workloads × a middle axis × seeds, plus the
//! evidence tier and the fault plan. The middle axis depends on the
//! [`JobKind`]: schedules for sweeps, objectives for adversary and
//! certify cells, nothing for explorations. [`Grid::keys`] yields one
//! [`InstanceKey`] per cell in row order — algorithms outermost, then
//! workloads, then the middle axis, seeds innermost — and a workload
//! pinned to a seed contributes that one seed instead of the seed list.
//!
//! A [`Batch`] runs a per-cell [`CellJob`] over its grid and streams the
//! rows in key order. Keys that differ only in their objective are one
//! unit of work, handed to [`CellJob::rows`] together, so a job can
//! answer an instance's objectives from one computation; keys without an
//! objective are units of their own. [`Sweep`](crate::Sweep),
//! [`Explore`](crate::Explore) and [`Certify`](crate::Certify) are its
//! three instantiations and add only their kind-specific setters; the
//! daemon expands its jobs through the same [`Grid`], so a batch row and
//! a cached daemon row of the same cell carry the same key.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use ringdeploy_core::Algorithm;
use ringdeploy_sim::adversary::Objective;
use ringdeploy_sim::{FaultPlan, InitialConfig};

use crate::certify::EvidenceTier;
use crate::key::{InstanceKey, JobKind};
use crate::sweep::{SweepSchedule, Workload};

/// The cross product of one batch or job. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Grid {
    /// Which engine the cells run; picks the middle axis.
    pub kind: JobKind,
    /// Algorithm axis.
    pub algorithms: Vec<Algorithm>,
    /// Workload axis; a `Some(seed)` pins that workload to one seed.
    pub workloads: Vec<(Workload, Option<u64>)>,
    /// Middle axis of [`JobKind::Sweep`].
    pub schedules: Vec<SweepSchedule>,
    /// Middle axis of [`JobKind::Adversary`] and [`JobKind::Certify`].
    pub objectives: Vec<Objective>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Evidence tier, carried by [`JobKind::Certify`] keys only.
    pub tier: EvidenceTier,
    /// Fault plan injected into every cell.
    pub faults: FaultPlan,
}

impl Grid {
    /// An empty grid of `kind`: no algorithms, workloads or schedules,
    /// all three objectives, the single seed 0, the adversarial tier and
    /// no faults.
    pub fn new(kind: JobKind) -> Grid {
        Grid {
            kind,
            algorithms: Vec::new(),
            workloads: Vec::new(),
            schedules: Vec::new(),
            objectives: Objective::ALL.to_vec(),
            seeds: vec![0],
            tier: EvidenceTier::Adversarial,
            faults: FaultPlan::none(),
        }
    }

    /// The middle axis as `(schedule, objective)` pairs; an exploration's
    /// is the single pair `(None, None)`.
    fn middle(&self) -> Vec<(Option<SweepSchedule>, Option<Objective>)> {
        match self.kind {
            JobKind::Sweep => self.schedules.iter().map(|&s| (Some(s), None)).collect(),
            JobKind::Explore => vec![(None, None)],
            JobKind::Adversary | JobKind::Certify => {
                self.objectives.iter().map(|&o| (None, Some(o))).collect()
            }
        }
    }

    /// How many keys [`Grid::keys`] yields, saturating at `usize::MAX`,
    /// computed without enumerating them — so a job can be bounded
    /// before its keys are built.
    pub fn cell_count(&self) -> usize {
        let workload_seeds = self
            .workloads
            .iter()
            .map(|(_, pinned)| {
                if pinned.is_some() {
                    1
                } else {
                    self.seeds.len()
                }
            })
            .fold(0, usize::saturating_add);
        self.algorithms
            .len()
            .saturating_mul(self.middle().len())
            .saturating_mul(workload_seeds)
    }

    /// Enumerates the cells as keys, in row order (see the
    /// [module docs](self)). A per-seed random schedule resolves to the
    /// cell's seed.
    ///
    /// # Errors
    ///
    /// [`BatchError::EmptyDimension`] names the first empty axis.
    pub fn keys<E>(&self) -> Result<Vec<InstanceKey>, BatchError<E>> {
        let middle = self.middle();
        let middle_name = match self.kind {
            JobKind::Sweep => "schedule",
            _ => "objective",
        };
        for (dimension, empty) in [
            ("algorithm", self.algorithms.is_empty()),
            ("workload", self.workloads.is_empty()),
            (middle_name, middle.is_empty()),
            ("seed", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(BatchError::EmptyDimension { dimension });
            }
        }
        let tier = (self.kind == JobKind::Certify).then_some(self.tier);
        let mut keys = Vec::new();
        for &algorithm in &self.algorithms {
            for (workload, pinned) in &self.workloads {
                let seeds = pinned
                    .as_ref()
                    .map_or(&self.seeds[..], std::slice::from_ref);
                for &(schedule, objective) in &middle {
                    for &seed in seeds {
                        keys.push(InstanceKey {
                            kind: self.kind,
                            algorithm,
                            workload: *workload,
                            schedule: schedule.map(|s| s.resolve(seed)),
                            seed,
                            objective,
                            tier,
                            faults: self.faults.clone(),
                        });
                    }
                }
            }
        }
        Ok(keys)
    }
}

/// Error aborting a [`Batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError<E> {
    /// An axis of the grid is empty.
    EmptyDimension {
        /// Which builder list was empty.
        dimension: &'static str,
    },
    /// A cell failed.
    Cell {
        /// Row index of the failing cell.
        index: usize,
        /// [`InstanceKey::label`] of the failing cell.
        label: String,
        /// The cell's own error.
        error: E,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for BatchError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::EmptyDimension { dimension } => {
                write!(f, "batch has an empty {dimension} list")
            }
            BatchError::Cell {
                index,
                label,
                error,
            } => write!(f, "batch cell #{index} ({label}) failed: {error}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for BatchError<E> {}

/// What a [`Batch`] computes per cell: a key and its instance in, a row
/// out.
pub trait CellJob: Sync {
    /// The kind of the batch's keys.
    const KIND: JobKind;
    /// One result row.
    type Row: Send;
    /// One cell's failure.
    type Error: Send;

    /// Computes the row of `key`, whose instance is `init`.
    ///
    /// # Errors
    ///
    /// The cell's failure; it aborts the batch.
    fn row(&self, key: &InstanceKey, init: &InitialConfig) -> Result<Self::Row, Self::Error>;

    /// Computes the rows of `keys`, which differ only in their objective
    /// and so share the instance `init`: one result per key, in order.
    /// The default calls [`row`](CellJob::row) once per key.
    fn rows(
        &self,
        keys: &[&InstanceKey],
        init: &InitialConfig,
    ) -> Vec<Result<Self::Row, Self::Error>> {
        keys.iter().map(|key| self.row(key, init)).collect()
    }

    /// Worker threads the batch runs on (default: one, so cells run in
    /// order on the caller's thread).
    fn threads(&self) -> usize {
        1
    }
}

/// A [`CellJob`] over a [`Grid`]: the shared builder, enumeration and
/// streaming executor of [`Sweep`](crate::Sweep),
/// [`Explore`](crate::Explore) and [`Certify`](crate::Certify).
#[derive(Debug, Clone)]
pub struct Batch<J> {
    pub(crate) grid: Grid,
    pub(crate) job: J,
}

impl<J: CellJob + Default> Default for Batch<J> {
    fn default() -> Self {
        Batch::new()
    }
}

impl<J: CellJob + Default> Batch<J> {
    /// An empty batch: add at least one algorithm and one workload (and,
    /// for a sweep, one schedule) before running. See [`Grid::new`] for
    /// the other defaults.
    pub fn new() -> Self {
        Batch {
            grid: Grid::new(J::KIND),
            job: J::default(),
        }
    }
}

impl<J: CellJob> Batch<J> {
    /// Adds one algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.grid.algorithms.push(algorithm);
        self
    }

    /// Adds several algorithms.
    pub fn algorithms(mut self, algorithms: impl IntoIterator<Item = Algorithm>) -> Self {
        self.grid.algorithms.extend(algorithms);
        self
    }

    /// Adds one workload family.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.grid.workloads.push((workload, None));
        self
    }

    /// Adds several workload families.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.grid
            .workloads
            .extend(workloads.into_iter().map(|w| (w, None)));
        self
    }

    /// Adds a workload pinned to `seed`, overriding the seed list for
    /// this workload (a per-seed random schedule follows the pinned
    /// seed). This is how per-cell seed conventions like Table 1's
    /// `1000 + cell_index` are expressed.
    pub fn seeded_workload(mut self, workload: Workload, seed: u64) -> Self {
        self.grid.workloads.push((workload, Some(seed)));
        self
    }

    /// Replaces the seed list (default: the single seed 0).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.grid.seeds = seeds.into_iter().collect();
        self
    }

    /// Injects a deterministic fault plan into every cell's instance
    /// (default: fault-free). An empty plan leaves every row
    /// bit-identical to a fault-free batch.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.grid.faults = faults;
        self
    }

    /// The cells' keys, in row order.
    ///
    /// # Errors
    ///
    /// [`BatchError::EmptyDimension`] when an axis is empty.
    pub fn cells(&self) -> Result<Vec<InstanceKey>, BatchError<J::Error>> {
        self.grid.keys()
    }

    /// Runs every cell and collects the rows in row order.
    ///
    /// # Errors
    ///
    /// As [`Batch::stream`].
    pub fn run(&self) -> Result<Vec<J::Row>, BatchError<J::Error>> {
        let mut rows = Vec::new();
        self.stream(|row| rows.push(row))?;
        Ok(rows)
    }

    /// Runs every cell, calling `on_row` for each row **in row order**
    /// as soon as its prefix is complete. Cells that differ only in
    /// their objective run as one unit ([`CellJob::rows`]); a unit's
    /// later rows wait for the rows before them. With more than one
    /// worker thread, units run in parallel and later rows wait for
    /// earlier ones, so the rows equal a serial run's.
    ///
    /// # Errors
    ///
    /// The lowest-index failing cell's error; `on_row` is never called
    /// at or after that index.
    pub fn stream(&self, mut on_row: impl FnMut(J::Row)) -> Result<(), BatchError<J::Error>> {
        let keys = self.cells()?;
        let units = objective_units(&keys);
        let mut slots: Vec<Mutex<Option<CellResult<J>>>> =
            keys.iter().map(|_| Mutex::new(None)).collect();
        // Computes one unit into the slots of its keys.
        let run = |unit: &[usize], slots: &[Mutex<Option<CellResult<J>>>]| {
            let members: Vec<&InstanceKey> = unit.iter().map(|&i| &keys[i]).collect();
            let rows = self.job.rows(&members, &keys[unit[0]].instantiate());
            for (&index, result) in unit.iter().zip(rows) {
                let result = result.map_err(|error| BatchError::Cell {
                    index,
                    label: keys[index].label(),
                    error,
                });
                *slots[index].lock().expect("batch slot poisoned") = Some(result);
            }
        };
        let workers = self.job.threads().min(units.len());
        if workers <= 1 {
            // Units are ordered by their first key, so an empty slot is
            // the first key of the next unit.
            let mut next = units.iter();
            for index in 0..keys.len() {
                if slots[index]
                    .get_mut()
                    .expect("batch slot poisoned")
                    .is_none()
                {
                    run(next.next().expect("every key is in a unit"), &slots);
                }
                let result = slots[index].get_mut().expect("batch slot poisoned").take();
                on_row(result.expect("the unit filled its slots")?);
            }
            return Ok(());
        }

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (tx, next, units, slots, run) = (tx.clone(), &next, &units, &slots, &run);
                scope.spawn(move || loop {
                    let u = next.fetch_add(1, Ordering::Relaxed);
                    if u >= units.len() {
                        break;
                    }
                    run(&units[u], slots);
                    if tx.send(()).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // Emit the contiguous prefix in order as results land.
            let mut emitted = 0usize;
            let mut first_error = None;
            while rx.recv().is_ok() {
                while emitted < slots.len() {
                    let Some(result) = slots[emitted].lock().expect("batch slot poisoned").take()
                    else {
                        break;
                    };
                    emitted += 1;
                    match result {
                        Ok(row) if first_error.is_none() => on_row(row),
                        Ok(_) => {}
                        Err(error) => {
                            if first_error.is_none() {
                                first_error = Some(error);
                                // The outcome is decided: park the work
                                // queue so idle workers stop picking up
                                // units (in-flight units still finish).
                                next.store(units.len(), Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
            first_error.map_or(Ok(()), Err)
        })
    }
}

/// One cell's outcome in a [`Batch`] run.
type CellResult<J> = Result<<J as CellJob>::Row, BatchError<<J as CellJob>::Error>>;

/// Splits `keys` into units of work: the indices of keys equal but for
/// their objective, each unit in key order and the units ordered by
/// their first key. A key without an objective is a unit of its own.
fn objective_units(keys: &[InstanceKey]) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut by_instance: HashMap<InstanceKey, usize> = HashMap::new();
    for (index, key) in keys.iter().enumerate() {
        if key.objective.is_none() {
            units.push(vec![index]);
            continue;
        }
        let instance = InstanceKey {
            objective: None,
            ..key.clone()
        };
        match by_instance.entry(instance) {
            std::collections::hash_map::Entry::Occupied(unit) => units[*unit.get()].push(index),
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(units.len());
                units.push(vec![index]);
            }
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Certify, Explore, Sweep};
    use ringdeploy_core::Schedule;
    use ringdeploy_sim::AgentId;

    /// A 2 × 2 × 2 × 2 grid of `kind` under a crash plan.
    fn grid(kind: JobKind) -> Grid {
        Grid {
            algorithms: vec![Algorithm::FullKnowledge, Algorithm::partial_gathering(2)],
            workloads: vec![
                (Workload::Random { n: 10, k: 3 }, None),
                (Workload::Uniform { n: 8, k: 2 }, None),
            ],
            schedules: vec![
                SweepSchedule::Preset(Schedule::RoundRobin),
                SweepSchedule::RandomPerSeed,
            ],
            objectives: vec![Objective::TotalMoves, Objective::PeakMemoryBits],
            seeds: vec![4, 5],
            faults: FaultPlan::none().with_crash(AgentId(1), 2),
            ..Grid::new(kind)
        }
    }

    #[test]
    fn keys_enumerate_algorithms_workloads_middle_then_seeds() {
        for kind in JobKind::ALL {
            let grid = grid(kind);
            let keys: Vec<InstanceKey> = grid.keys::<()>().unwrap();
            let middle = if kind == JobKind::Explore { 1 } else { 2 };
            assert_eq!(keys.len(), 2 * 2 * middle * 2, "{kind}");
            assert_eq!(keys.len(), grid.cell_count(), "{kind}");
            let mut i = 0;
            for &algorithm in &grid.algorithms {
                for &(workload, _) in &grid.workloads {
                    for m in 0..middle {
                        for &seed in &grid.seeds {
                            let key = &keys[i];
                            i += 1;
                            assert_eq!((key.kind, key.algorithm), (kind, algorithm));
                            assert_eq!((key.workload, key.seed), (workload, seed));
                            assert_eq!(key.faults, grid.faults, "{}", key.label());
                            let schedule = match grid.schedules[m] {
                                SweepSchedule::Preset(preset) => preset,
                                SweepSchedule::RandomPerSeed => Schedule::Random(seed),
                            };
                            let (schedule, objective, tier) = match kind {
                                JobKind::Sweep => (Some(schedule), None, None),
                                JobKind::Explore => (None, None, None),
                                JobKind::Adversary => (None, Some(grid.objectives[m]), None),
                                JobKind::Certify => {
                                    (None, Some(grid.objectives[m]), Some(grid.tier))
                                }
                            };
                            assert_eq!(key.schedule, schedule, "{}", key.label());
                            assert_eq!(key.objective, objective, "{}", key.label());
                            assert_eq!(key.tier, tier, "{}", key.label());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_axes_are_reported_in_axis_order() {
        for kind in JobKind::ALL {
            let empty = |edit: fn(&mut Grid)| {
                let mut grid = grid(kind);
                edit(&mut grid);
                match grid.keys::<()>() {
                    Ok(_) => None,
                    Err(BatchError::EmptyDimension { dimension }) => {
                        assert_eq!(grid.cell_count(), 0, "{kind}");
                        Some(dimension)
                    }
                    Err(other) => panic!("{kind}: {other:?}"),
                }
            };
            // Every axis empty: the outermost is reported.
            assert_eq!(empty(|g| *g = Grid::new(g.kind)), Some("algorithm"));
            assert_eq!(empty(|g| g.workloads.clear()), Some("workload"));
            assert_eq!(empty(|g| g.seeds.clear()), Some("seed"));
            let middle = match kind {
                JobKind::Sweep => Some("schedule"),
                JobKind::Explore => None,
                JobKind::Adversary | JobKind::Certify => Some("objective"),
            };
            let cleared = empty(|g| {
                g.schedules.clear();
                g.objectives.clear();
            });
            assert_eq!(cleared, middle, "{kind}");
        }
        let err = Sweep::new().run().unwrap_err();
        assert_eq!(err.to_string(), "batch has an empty algorithm list");
    }

    #[test]
    fn seed_pinned_workloads_override_the_seed_list() {
        for kind in JobKind::ALL {
            let mut grid = grid(kind);
            grid.workloads[1].1 = Some(777);
            let keys = grid.keys::<()>().unwrap();
            let middle = if kind == JobKind::Explore { 1 } else { 2 };
            assert_eq!(keys.len(), 2 * middle * (2 + 1), "{kind}");
            assert_eq!(keys.len(), grid.cell_count(), "{kind}");
            for key in &keys {
                let pinned = key.workload == grid.workloads[1].0;
                assert_eq!(pinned, key.seed == 777, "{}", key.label());
                // A per-seed random schedule follows the pinned seed.
                if let Some(Schedule::Random(seed)) = key.schedule {
                    assert_eq!(seed, key.seed, "{}", key.label());
                }
            }
        }
    }

    /// Echoes its keys, counts the units it is handed, and fails every
    /// key of one seed.
    struct Echo {
        threads: usize,
        fail_seed: Option<u64>,
        units: AtomicUsize,
    }

    impl CellJob for Echo {
        const KIND: JobKind = JobKind::Certify;
        type Row = InstanceKey;
        type Error = u64;

        fn row(&self, key: &InstanceKey, _init: &InitialConfig) -> Result<InstanceKey, u64> {
            match self.fail_seed {
                Some(seed) if seed == key.seed => Err(seed),
                _ => Ok(key.clone()),
            }
        }

        fn rows(
            &self,
            keys: &[&InstanceKey],
            init: &InitialConfig,
        ) -> Vec<Result<InstanceKey, u64>> {
            self.units.fetch_add(1, Ordering::Relaxed);
            let instance = |key: &InstanceKey| InstanceKey {
                objective: None,
                ..key.clone()
            };
            assert!(keys.iter().all(|key| instance(key) == instance(keys[0])));
            keys.iter().map(|key| self.row(key, init)).collect()
        }

        fn threads(&self) -> usize {
            self.threads
        }
    }

    #[test]
    fn cells_differing_only_in_objective_run_as_one_unit() {
        for threads in [1, 3] {
            let batch = |fail_seed| Batch {
                grid: Grid {
                    algorithms: vec![Algorithm::FullKnowledge, Algorithm::Relaxed],
                    workloads: vec![(Workload::Random { n: 10, k: 3 }, None)],
                    objectives: vec![
                        Objective::TotalMoves,
                        Objective::PeakMemoryBits,
                        Objective::TotalMoves,
                    ],
                    seeds: vec![4, 5, 6],
                    ..Grid::new(JobKind::Certify)
                },
                job: Echo {
                    threads,
                    fail_seed,
                    units: AtomicUsize::new(0),
                },
            };
            let ok = batch(None);
            assert_eq!(ok.run().unwrap(), ok.cells().unwrap(), "{threads} threads");
            // Two algorithms × three seeds, the repeated objective
            // included in its instance's unit.
            assert_eq!(ok.job.units.load(Ordering::Relaxed), 6, "{threads} threads");
            // Seed 5's first key is cell 1: only cell 0 is emitted.
            let failing = batch(Some(5));
            let mut streamed = Vec::new();
            let err = failing.stream(|row| streamed.push(row)).unwrap_err();
            assert!(
                matches!(
                    err,
                    BatchError::Cell {
                        index: 1,
                        error: 5,
                        ..
                    }
                ),
                "{threads} threads: {err:?}"
            );
            assert_eq!(streamed, failing.cells().unwrap()[..1], "{threads} threads");
        }
    }

    #[test]
    fn rows_stream_in_key_order_for_every_batch() {
        fn check<J: CellJob>(batch: &Batch<J>, cell: impl Fn(&J::Row) -> &InstanceKey)
        where
            J::Error: std::fmt::Debug,
        {
            let mut streamed = Vec::new();
            batch
                .stream(|row| streamed.push(cell(&row).clone()))
                .unwrap();
            assert!(!streamed.is_empty());
            assert_eq!(streamed, batch.cells().unwrap());
        }
        let faults = FaultPlan::none().with_edge_outages(1);
        let sweep = Sweep::new()
            .algorithms(Algorithm::ALL)
            .workload(Workload::Random { n: 30, k: 5 })
            .seeded_workload(Workload::Periodic { n: 24, k: 4, l: 2 }, 9)
            .schedule(Schedule::RoundRobin)
            .random_per_seed()
            .seeds([11, 12]);
        check(&sweep.clone().threads(4), |row| &row.cell);
        check(&sweep.faults(faults.clone()).threads(3), |row| &row.cell);
        let explore = Explore::new()
            .algorithms(Algorithm::ALL)
            .workload(Workload::Uniform { n: 8, k: 4 })
            .workload(Workload::QuarterRing { n: 8, k: 2 });
        check(&explore, |row| &row.cell);
        let certify = Certify::new()
            .algorithm(Algorithm::FullKnowledge)
            .workload(Workload::Uniform { n: 8, k: 4 })
            .faults(faults);
        check(&certify, |row| &row.cell);
    }
}
