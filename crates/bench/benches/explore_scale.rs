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
//! Besides the table on stdout it writes `BENCH_explore.json` at the
//! workspace root (published as a CI artifact), including per-instance
//! `states_per_sec` and the DFS's `peak_frontier`.
//!
//! Run with `cargo bench -p ringdeploy-bench --bench explore_scale`.

use std::time::{Duration, Instant};

use ringdeploy_analysis::explore_one;
use ringdeploy_core::Algorithm;
use ringdeploy_sim::explore::{ExploreLimits, ExploreReport, Explorer, SymmetryMode};
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

    fn states_per_sec(&self) -> f64 {
        self.states_reduced as f64 / self.reduced.as_secs_f64()
    }
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn explorer_for(init: &InitialConfig, symmetry: SymmetryMode) -> Explorer {
    Explorer::new()
        .limits(ExploreLimits::for_instance(
            init.ring_size(),
            init.agent_count(),
        ))
        .symmetry(symmetry)
}

fn best_of(repeats: usize, mut run: impl FnMut() -> ExploreReport) -> (ExploreReport, Duration) {
    let mut best = Duration::MAX;
    let mut report = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let r = run();
        best = best.min(start.elapsed());
        report = Some(r);
    }
    (report.expect("at least one repeat"), best)
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
    let samples = vec![
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

    println!(
        "{:>8} {:>4} {:>3} {:>3} {:>9} {:>9} {:>6} {:>9} {:>10} {:>5}",
        "algo", "n", "k", "l", "plain", "reduced", "cut", "serial_ms", "kstates/s", "peak"
    );
    for s in &samples {
        println!(
            "{:>8} {:>4} {:>3} {:>3} {:>9} {:>9} {:>5.2}x {:>9.2} {:>10.1} {:>5}",
            s.algo,
            s.n,
            s.k,
            s.symmetry_degree,
            s.states_plain,
            s.states_reduced,
            s.reduction(),
            s.reduced.as_secs_f64() * 1e3,
            s.states_per_sec() / 1e3,
            s.peak_frontier
        );
    }

    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"algo\": \"{}\", \"n\": {}, \"k\": {}, \"symmetry_degree\": {}, \
                 \"states_plain\": {}, \"states_reduced\": {}, \"reduction\": {:.2}, \
                 \"plain_ms\": {:.3}, \"serial_ms\": {:.3}, \
                 \"states_per_sec\": {:.0}, \"peak_frontier\": {}}}",
                s.algo,
                s.n,
                s.k,
                s.symmetry_degree,
                s.states_plain,
                s.states_reduced,
                s.reduction(),
                s.plain.as_secs_f64() * 1e3,
                s.reduced.as_secs_f64() * 1e3,
                s.states_per_sec(),
                s.peak_frontier,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"explore_scale\",\n  \"cores\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        cores(),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    std::fs::write(path, &json).expect("write BENCH_explore.json");
    println!("\nwrote {path}");

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
