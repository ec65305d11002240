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
//! Besides the table on stdout it writes `BENCH_adversary.json` at the
//! workspace root (published as a CI artifact), including per-instance
//! `states_per_sec` (pruned expansions / second), the pruning ratio,
//! the competitive ratio of the worst case versus the offline oracle,
//! and an `already_uniform` label: on rows where the initial placement
//! is already uniform (`l = k`), `oracle_moves: 0` is the *correct*
//! offline optimum — the null competitive ratio means the denominator
//! is legitimately zero, not that data is missing.
//!
//! Run with `cargo bench -p ringdeploy-bench --bench adversary_scale`.

use std::time::{Duration, Instant};

use ringdeploy_analysis::{oracle_moves, worst_case_one, Adversary, Objective};
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

    fn states_per_sec(&self) -> f64 {
        self.pruned_expansions as f64 / self.pruned.as_secs_f64()
    }

    fn competitive_ratio(&self) -> Option<f64> {
        (self.oracle > 0).then(|| self.value as f64 / self.oracle as f64)
    }

    /// `l = k`: the homes are invariant under rotation by `n/k`, i.e.
    /// equally spaced — the instance starts out uniformly deployed and
    /// the offline optimum is genuinely zero.
    fn already_uniform(&self) -> bool {
        self.symmetry_degree == self.k
    }
}

fn best_of<T>(repeats: usize, mut run: impl FnMut() -> T) -> (T, Duration) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let result = run();
        best = best.min(start.elapsed());
        last = Some(result);
    }
    (last.expect("at least one repeat"), best)
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
    let samples = vec![
        // Symmetric instances (l = k = 4): the quotient's best case — and
        // the gated tier. These start out *already uniform*, so their
        // oracle optimum is genuinely 0 and the competitive ratio has no
        // denominator (labeled `already_uniform` in the JSON).
        measure(Algorithm::FullKnowledge, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::LogSpace, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::Relaxed, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::FullKnowledge, 16, &[0, 4, 8, 12], repeats),
        // Periodic but clustered (l = 2 < k): a symmetric instance with a
        // nonzero offline optimum, so the symmetric tier also reports a
        // real competitive ratio.
        measure(Algorithm::FullKnowledge, 8, &[0, 1, 4, 5], repeats),
        // Aperiodic clustered worst case (l = 1): no rotation to exploit.
        measure(Algorithm::FullKnowledge, 12, &[0, 1, 2, 3], repeats),
        measure(Algorithm::Relaxed, 12, &[0, 1, 2, 3], repeats),
    ];

    println!(
        "{:>8} {:>4} {:>3} {:>3} {:>7} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7} {:>10} {:>9} {:>9}",
        "algo",
        "n",
        "k",
        "l",
        "worst",
        "witness",
        "pruned",
        "unpruned",
        "prune_ms",
        "full_ms",
        "ratio",
        "kstates/s",
        "3walk_ms",
        "all_ms"
    );
    for s in &samples {
        println!(
            "{:>8} {:>4} {:>3} {:>3} {:>7} {:>8} {:>9} {:>9} {:>9.2} {:>9.2} {:>6.2}x {:>10.1} \
             {:>9.2} {:>9.2}",
            s.algo,
            s.n,
            s.k,
            s.symmetry_degree,
            s.value,
            s.witness_len,
            s.pruned_expansions,
            s.unpruned_expansions,
            s.pruned.as_secs_f64() * 1e3,
            s.unpruned.as_secs_f64() * 1e3,
            s.pruning_ratio(),
            s.states_per_sec() / 1e3,
            s.three_walks.as_secs_f64() * 1e3,
            s.all_objectives.as_secs_f64() * 1e3,
        );
    }

    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            let competitive = s
                .competitive_ratio()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "null".to_string());
            format!(
                "    {{\"algo\": \"{}\", \"n\": {}, \"k\": {}, \"symmetry_degree\": {}, \
                 \"worst_moves\": {}, \"witness_len\": {}, \"oracle_moves\": {}, \
                 \"already_uniform\": {}, \"competitive_ratio\": {competitive}, \
                 \"distinct_states\": {}, \"pruned_expansions\": {}, \
                 \"unpruned_expansions\": {}, \
                 \"pruning_ratio\": {:.2}, \"pruned_ms\": {:.3}, \"unpruned_ms\": {:.3}, \
                 \"states_per_sec\": {:.0}, \"three_walks_ms\": {:.3}, \
                 \"all_objectives_ms\": {:.3}}}",
                s.algo,
                s.n,
                s.k,
                s.symmetry_degree,
                s.value,
                s.witness_len,
                s.oracle,
                s.already_uniform(),
                s.distinct_states,
                s.pruned_expansions,
                s.unpruned_expansions,
                s.pruning_ratio(),
                s.pruned.as_secs_f64() * 1e3,
                s.unpruned.as_secs_f64() * 1e3,
                s.states_per_sec(),
                s.three_walks.as_secs_f64() * 1e3,
                s.all_objectives.as_secs_f64() * 1e3,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"adversary_scale\",\n  \"objective\": \"total-moves\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_adversary.json");
    std::fs::write(path, &json).expect("write BENCH_adversary.json");
    println!("\nwrote {path}");

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
    // `oracle_moves: 0` / `competitive_ratio: null` reads as "nothing to
    // do", never as missing data.
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
