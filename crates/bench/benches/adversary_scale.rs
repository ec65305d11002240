//! Adversary-engine benchmark: worst-case search throughput, the
//! rotation quotient's effectiveness, and one shared walk against three.
//!
//! Two measurements per instance, both computing the **same exact
//! worst-case total moves**:
//!
//! * **pruned** — the production configuration: `SymmetryMode::Rotation`
//!   (rotation + relabeling) remaining-value memoisation — a child whose
//!   canonical fingerprint is already solved folds its whole subtree in
//!   `O(1)`;
//! * **unpruned** — the same search over the plain (unquotiented)
//!   configuration space (`SymmetryMode::Off`): the memo only merges
//!   exact concrete re-encounters, so every reachable concrete
//!   configuration is enumerated — the exhaustive-enumeration baseline.
//!
//! Beside them it times, on the production configuration, one search
//! per objective (`three_walks_ms`, three walks) against one search for
//! all three objectives at once (`all_objectives_ms`, one walk), which
//! is what certification runs.
//!
//! Gates enforced by the bench itself:
//!
//! * **answer identity**: both modes must report the same worst-case
//!   value (the objective is invariant under the rotation fold; see
//!   `ringdeploy-sim::adversary`);
//! * **linear work**: the exact remaining-value memo expands every
//!   distinct state at most once, so `pruned_expansions ≤
//!   distinct_states` on every instance;
//! * **one walk, every objective**: on every instance the all-objective
//!   search expands exactly as many states as one single-objective
//!   search, for each of its three answers (a count, so no time gate);
//! * **pruning effectiveness**: on the symmetry-degree-4 instances the
//!   pruned search must expand **≤ 1/3** of the states the unpruned
//!   enumeration expands, and on the `l = 2` instance **> 1.5×**. On
//!   the aperiodic (`l = 1`) rows no symmetry fold can apply at all, so
//!   the two counts are equal (see DESIGN.md §0.11).
//!
//! It writes `BENCH_adversary.json` at the workspace root through
//! `ringdeploy_bench::publish`, which fails the bench if a worst value,
//! witness length, oracle optimum, state or expansion count, or the
//! `already_uniform` label differs from the committed file. On rows
//! where the initial placement is already uniform (`l = k`),
//! `oracle_moves: 0` is the *correct* offline optimum, and
//! `already_uniform: true` says so.
//!
//! Run with `cargo bench -p ringdeploy-bench --bench adversary_scale`.

use std::time::Duration;

use ringdeploy_analysis::{oracle_moves, worst_case_one, Adversary, Objective};
use ringdeploy_bench::{best_of, ms, publish, Row};
use ringdeploy_core::Algorithm;
use ringdeploy_sim::explore::{ExploreLimits, SymmetryMode};
use ringdeploy_sim::InitialConfig;

struct Sample {
    algo: &'static str,
    n: usize,
    k: usize,
    symmetry_degree: usize,
    value: u64,
    witness_len: usize,
    distinct_states: usize,
    pruned_expansions: usize,
    unpruned_expansions: usize,
    pruned: Duration,
    unpruned: Duration,
    /// Expansions behind each answer of the all-objective search.
    shared_expansions: [usize; 3],
    three_walks: Duration,
    all_objectives: Duration,
    oracle: u64,
}

impl Sample {
    /// Unpruned-enumeration expansions per pruned expansion — how much
    /// work the dominance quotient saves.
    fn pruning_ratio(&self) -> f64 {
        self.unpruned_expansions as f64 / self.pruned_expansions as f64
    }

    /// `l = k`: the homes are invariant under rotation by `n/k`, i.e.
    /// equally spaced — the instance starts out uniformly deployed and
    /// the offline optimum is genuinely zero.
    fn already_uniform(&self) -> bool {
        self.symmetry_degree == self.k
    }

    fn row(&self) -> Row {
        Row::new()
            .key("algo", self.algo)
            .key("n", self.n)
            .key("k", self.k)
            .key("symmetry_degree", self.symmetry_degree)
            .checked("worst_moves", self.value)
            .checked("witness_len", self.witness_len)
            .checked("oracle_moves", self.oracle)
            .checked("already_uniform", self.already_uniform())
            .checked("distinct_states", self.distinct_states)
            .checked("pruned_expansions", self.pruned_expansions)
            .checked("unpruned_expansions", self.unpruned_expansions)
            .timing("pruned_ms", ms(self.pruned))
            .timing("unpruned_ms", ms(self.unpruned))
            .timing("three_walks_ms", ms(self.three_walks))
            .timing("all_objectives_ms", ms(self.all_objectives))
    }
}

fn measure(algorithm: Algorithm, n: usize, homes: &[usize], repeats: usize) -> Sample {
    let init = InitialConfig::new(n, homes.to_vec()).expect("valid homes");
    let limits = ExploreLimits::for_instance(n, init.agent_count());
    let engine = |symmetry| Adversary::new().limits(limits).symmetry(symmetry);
    let rotation = engine(SymmetryMode::Rotation);
    let (pruned_case, pruned) = best_of(repeats, || {
        worst_case_one(algorithm, &init, &rotation, Objective::TotalMoves)
            .expect("pruned search succeeds")
    });
    let (unpruned_case, unpruned) = best_of(repeats, || {
        worst_case_one(
            algorithm,
            &init,
            &engine(SymmetryMode::Off),
            Objective::TotalMoves,
        )
        .expect("unpruned search succeeds")
    });
    let ((), three_walks) = best_of(repeats, || {
        for objective in Objective::ALL {
            worst_case_one(algorithm, &init, &rotation, objective)
                .expect("one-objective search succeeds");
        }
    });
    let (shared, all_objectives) = best_of(repeats, || {
        algorithm
            .worst_cases(&init, &rotation, &Objective::ALL)
            .expect("all-objective search succeeds")
    });
    assert_eq!(
        pruned_case.value,
        unpruned_case.value,
        "pruned and unpruned searches must agree on the worst case \
         ({} n={n})",
        algorithm.name()
    );
    Sample {
        algo: algorithm.name(),
        n,
        k: init.agent_count(),
        symmetry_degree: init.symmetry_degree(),
        value: pruned_case.value,
        witness_len: pruned_case.witness.len(),
        distinct_states: pruned_case.distinct_states,
        pruned_expansions: pruned_case.expansions,
        unpruned_expansions: unpruned_case.expansions,
        pruned,
        unpruned,
        shared_expansions: [0, 1, 2].map(|i| shared[i].expansions),
        three_walks,
        all_objectives,
        oracle: oracle_moves(&init).total_moves,
    }
}

fn main() {
    let repeats = 3;
    let samples = [
        // Symmetric instances (l = k = 4): the quotient's best case — and
        // the gated tier. These start out *already uniform*, so their
        // oracle optimum is genuinely 0 (labeled `already_uniform` in the
        // JSON).
        measure(Algorithm::FullKnowledge, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::LogSpace, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::Relaxed, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::FullKnowledge, 16, &[0, 4, 8, 12], repeats),
        // Periodic but clustered (l = 2 < k): a symmetric instance with a
        // nonzero offline optimum.
        measure(Algorithm::FullKnowledge, 8, &[0, 1, 4, 5], repeats),
        // Aperiodic clustered worst case (l = 1): no rotation to exploit.
        measure(Algorithm::FullKnowledge, 12, &[0, 1, 2, 3], repeats),
        measure(Algorithm::Relaxed, 12, &[0, 1, 2, 3], repeats),
    ];

    let rows: Vec<Row> = samples.iter().map(Sample::row).collect();
    publish("adversary_scale", "BENCH_adversary.json", &rows);

    // Linear work: the exact remaining-value memo solves each distinct
    // state once, so expansions can never exceed the reachable state
    // count — on any instance.
    for s in &samples {
        assert!(
            s.pruned_expansions <= s.distinct_states,
            "memoised search must expand each state at most once on {} n={}: \
             {} expansions > {} states",
            s.algo,
            s.n,
            s.pruned_expansions,
            s.distinct_states
        );
    }

    // One walk, every objective: the all-objective search walks the same
    // graph as a single-objective one, so each of its answers reports
    // exactly the expansions of the moves search on the same engine.
    for s in &samples {
        for (objective, expansions) in Objective::ALL.into_iter().zip(s.shared_expansions) {
            assert_eq!(
                expansions, s.pruned_expansions,
                "the all-objective search must expand exactly what one search expands \
                 on {} n={} ({objective})",
                s.algo, s.n
            );
        }
    }

    // Label honesty: `already_uniform` (l = k, equally spaced homes) must
    // coincide exactly with a zero offline optimum — the field exists so
    // `oracle_moves: 0` reads as "nothing to do", never as missing data.
    for s in &samples {
        assert_eq!(
            s.already_uniform(),
            s.oracle == 0,
            "{} n={} (l={}): already_uniform label disagrees with the oracle ({} moves)",
            s.algo,
            s.n,
            s.symmetry_degree,
            s.oracle
        );
    }

    // Pruning effectiveness: on every l = 4 instance the memoised search
    // must expand at most a third of the unpruned enumeration — the
    // acceptance gate of the adversarial-search subsystem.
    for s in samples.iter().filter(|s| s.symmetry_degree >= 4) {
        assert!(
            s.pruned_expansions * 3 <= s.unpruned_expansions,
            "expected ≤1/3 of unpruned expansions on {} n={} (l={}): {} vs {}",
            s.algo,
            s.n,
            s.symmetry_degree,
            s.pruned_expansions,
            s.unpruned_expansions
        );
    }

    // The intermediate tier: on the periodic-but-clustered l = 2
    // instance the quotient must still halve the enumeration's work.
    for s in samples.iter().filter(|s| s.symmetry_degree == 2) {
        assert!(
            s.pruning_ratio() > 1.5,
            "expected >1.5x pruning on {} n={} (l=2): {} vs {} ({}x)",
            s.algo,
            s.n,
            s.pruned_expansions,
            s.unpruned_expansions,
            s.pruning_ratio()
        );
    }
}
