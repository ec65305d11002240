//! Exploration-engine benchmark: expansion throughput of the reversible
//! clone-free DFS and rotation-symmetry reduction of the exhaustive model
//! checker.
//!
//! Two measurements per instance, both exploring the *same* instance:
//!
//! * **plain** — the clone-free DFS without a symmetry quotient
//!   (`SymmetryMode::Off`);
//! * **serial** — the clone-free DFS over the rotation quotient:
//!   reversible `apply`/`undo` expansion, incremental canonical
//!   fingerprints (≤ 2 symbols re-derived per child).
//!
//! Gate enforced by the bench itself — **symmetry reduction**: ≥ 3×
//! state cut on the `l = 4` instances. The clone-based reference DFS is
//! not timed here: it lives in the workspace's `tests/support`, and
//! `tests/explorer_differential.rs` checks the serial report quadruple
//! against it on these six instances.
//!
//! It writes `BENCH_explore.json` at the workspace root through
//! `ringdeploy_bench::publish`, which fails the bench if a state count or
//! the DFS's `peak_frontier` differs from the committed file.
//!
//! Run with `cargo bench -p ringdeploy-bench --bench explore_scale`.

use std::time::Duration;

use ringdeploy_analysis::explore_one;
use ringdeploy_bench::{best_of, ms, publish, Row};
use ringdeploy_core::Algorithm;
use ringdeploy_sim::explore::{ExploreLimits, Explorer, SymmetryMode};
use ringdeploy_sim::InitialConfig;

struct Sample {
    algo: &'static str,
    n: usize,
    k: usize,
    symmetry_degree: usize,
    states_plain: usize,
    states_reduced: usize,
    plain: Duration,
    reduced: Duration,
    /// Deepest DFS stack of the rotation-quotient sweep.
    peak_frontier: usize,
}

impl Sample {
    fn reduction(&self) -> f64 {
        self.states_plain as f64 / self.states_reduced as f64
    }

    fn row(&self) -> Row {
        Row::new()
            .key("algo", self.algo)
            .key("n", self.n)
            .key("k", self.k)
            .key("symmetry_degree", self.symmetry_degree)
            .checked("states_plain", self.states_plain)
            .checked("states_reduced", self.states_reduced)
            .checked("peak_frontier", self.peak_frontier)
            .timing("plain_ms", ms(self.plain))
            .timing("serial_ms", ms(self.reduced))
    }
}

fn explorer_for(init: &InitialConfig, symmetry: SymmetryMode) -> Explorer {
    Explorer::new()
        .limits(ExploreLimits::for_instance(
            init.ring_size(),
            init.agent_count(),
        ))
        .symmetry(symmetry)
}

fn measure(algorithm: Algorithm, n: usize, homes: &[usize], repeats: usize) -> Sample {
    let algo = algorithm.name();
    let init = InitialConfig::new(n, homes.to_vec()).expect("valid homes");
    let (plain_report, plain) = best_of(repeats, || {
        explore_one(algorithm, &init, &explorer_for(&init, SymmetryMode::Off))
            .expect("plain exploration succeeds")
    });
    let (reduced_report, reduced) = best_of(repeats, || {
        explore_one(
            algorithm,
            &init,
            &explorer_for(&init, SymmetryMode::Rotation),
        )
        .expect("serial exploration succeeds")
    });
    Sample {
        algo,
        n,
        k: init.agent_count(),
        symmetry_degree: init.symmetry_degree(),
        states_plain: plain_report.states,
        states_reduced: reduced_report.states,
        plain,
        reduced,
        peak_frontier: reduced_report.peak_frontier,
    }
}

fn main() {
    let repeats = 3;
    let samples = [
        // Symmetric instances (l = 4): the quotient's best case.
        measure(Algorithm::FullKnowledge, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::LogSpace, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::Relaxed, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::FullKnowledge, 16, &[0, 4, 8, 12], repeats),
        // l = 6, six agents: large state space AND the deepest quotient.
        measure(Algorithm::FullKnowledge, 12, &[0, 2, 4, 6, 8, 10], repeats),
        // Aperiodic worst case (l = 1): no rotation to exploit, but the
        // largest per-state work.
        measure(Algorithm::Relaxed, 12, &[0, 1, 2, 3], repeats),
    ];
    let rows: Vec<Row> = samples.iter().map(Sample::row).collect();
    publish("explore_scale", "BENCH_explore.json", &rows);

    // Symmetry reduction: ≥3× on every l = 4 instance.
    for s in samples.iter().filter(|s| s.symmetry_degree >= 4) {
        assert!(
            s.reduction() >= 3.0,
            "expected ≥3× state reduction on {} n={} (l={}): got {:.2}x",
            s.algo,
            s.n,
            s.symmetry_degree,
            s.reduction()
        );
    }
}
