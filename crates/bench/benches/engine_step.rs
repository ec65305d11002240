//! Step-loop microbenchmark: the incremental `EnabledSet` engine against
//! the retained full-rescan reference (`Ring::enabled_rescan`).
//!
//! Both drivers execute the *same* schedule (round-robin over Algorithm 1
//! on a clustered large ring), so the measured difference is purely the
//! per-step cost of computing the enabled activations:
//!
//! * **incremental** — `Ring::run`, which hands the scheduler the
//!   maintained set (`O(k)` per step, independent of `n`);
//! * **rescan** — a hand-rolled loop calling `enabled_rescan()` before
//!   every step (`Θ(n + k)` per step), the engine's pre-0.3 behavior.
//!   (The rescan loop still pays the incremental upkeep inside `step()`,
//!   so the reported speedup is a conservative lower bound.)
//!
//! Each row keeps the best of three interleaved repeats per driver, and
//! every repeat's incremental time (`incremental_ns_per_step_runs`), so a
//! gate miss can be told from one noisy repeat without a rerun.
//!
//! Run with `cargo bench -p ringdeploy-bench --bench engine_step`; it
//! writes `BENCH_engine.json` at the workspace root through
//! `ringdeploy_bench::publish`, which fails the bench if a step count
//! differs from the committed file.

use std::time::{Duration, Instant};

use ringdeploy_bench::{publish, Row};
use ringdeploy_core::FullKnowledge;
use ringdeploy_sim::scheduler::{RoundRobin, Scheduler};
use ringdeploy_sim::{InitialConfig, Ring, RunLimits};

struct Sample {
    n: usize,
    k: usize,
    steps: u64,
    /// Every repeat of the incremental driver, in the order they ran.
    incremental_runs: Vec<Duration>,
    rescan: Duration,
}

impl Sample {
    fn incremental(&self) -> Duration {
        *self
            .incremental_runs
            .iter()
            .min()
            .expect("at least one repeat")
    }

    fn speedup(&self) -> f64 {
        self.rescan.as_secs_f64() / self.incremental().as_secs_f64()
    }

    fn ns_per_step(&self, total: Duration) -> f64 {
        total.as_secs_f64() * 1e9 / self.steps as f64
    }

    fn incremental_runs_ns(&self) -> Vec<f64> {
        let runs = self.incremental_runs.iter();
        runs.map(|&run| self.ns_per_step(run)).collect()
    }

    fn row(&self) -> Row {
        Row::new()
            .key("n", self.n)
            .key("k", self.k)
            .checked("steps", self.steps)
            .timing(
                "incremental_ns_per_step",
                self.ns_per_step(self.incremental()),
            )
            .timing("rescan_ns_per_step", self.ns_per_step(self.rescan))
            .timing_runs("incremental_ns_per_step_runs", &self.incremental_runs_ns())
    }
}

fn clustered(n: usize, k: usize) -> InitialConfig {
    InitialConfig::new(n, (0..k).collect()).expect("valid homes")
}

fn run_incremental(n: usize, k: usize) -> (u64, Duration) {
    let init = clustered(n, k);
    let mut ring = Ring::new(&init, |_| FullKnowledge::new(k));
    let mut scheduler = RoundRobin::new();
    let start = Instant::now();
    let out = ring
        .run(&mut scheduler, RunLimits::for_instance(n, k))
        .expect("quiesces");
    (out.steps, start.elapsed())
}

fn run_rescan(n: usize, k: usize) -> (u64, Duration) {
    let init = clustered(n, k);
    let mut ring = Ring::new(&init, |_| FullKnowledge::new(k));
    let mut scheduler = RoundRobin::new();
    let mut steps = 0u64;
    let start = Instant::now();
    loop {
        let enabled = ring.enabled_rescan();
        if enabled.is_empty() {
            return (steps, start.elapsed());
        }
        let chosen = scheduler.select(&enabled);
        ring.step(enabled[chosen]);
        steps += 1;
    }
}

fn measure(n: usize, k: usize, repeats: usize) -> Sample {
    let mut incremental_runs = Vec::with_capacity(repeats);
    let mut rescan = Duration::MAX;
    let mut steps = 0;
    for _ in 0..repeats {
        let (s, d) = run_incremental(n, k);
        steps = s;
        incremental_runs.push(d);
        let (s2, d2) = run_rescan(n, k);
        assert_eq!(s, s2, "both drivers must execute the same schedule");
        rescan = rescan.min(d2);
    }
    Sample {
        n,
        k,
        steps,
        incremental_runs,
        rescan,
    }
}

fn main() {
    let configs = [(256usize, 16usize), (1024, 16), (4096, 16), (4096, 64)];
    let samples: Vec<Sample> = configs.iter().map(|&(n, k)| measure(n, k, 3)).collect();
    let rows: Vec<Row> = samples.iter().map(Sample::row).collect();
    publish("engine_step", "BENCH_engine.json", &rows);

    let large = samples.iter().filter(|s| s.n >= 1024);
    for s in large {
        assert!(
            s.speedup() >= 2.0,
            "expected ≥2x speedup at n = {} (got {:.2}x; incremental repeats {:.1?} ns/step)",
            s.n,
            s.speedup(),
            s.incremental_runs_ns()
        );
    }

    // Absolute regression gate on the hot path itself (not just vs the
    // rescan reference): the k = 64 / n = 4096 row measured 244.3 ns per
    // incremental step before the SoA refactor, the `EnabledSet` hole
    // recycling, the round-robin early-exit scan, and the `memory_bits`
    // cache. The ≥1.5× budget from that baseline is 163 ns; the four
    // optimisations together land around 80 ns, so the gate has ~2×
    // headroom against machine noise while still catching any O(k)
    // regression sneaking back into the per-step loop.
    let hot = samples
        .iter()
        .find(|s| s.n == 4096 && s.k == 64)
        .expect("the k = 64 hot-path row is part of the fixed config set");
    let hot_ns = hot.ns_per_step(hot.incremental());
    assert!(
        hot_ns <= 163.0,
        "hot-path regression: n = 4096, k = 64 incremental step took {hot_ns:.1} ns \
         (gate: ≤163 ns, i.e. ≥1.5x over the 244.3 ns pre-SoA baseline; \
         repeats {:.1?} ns/step)",
        hot.incremental_runs_ns()
    );
}
