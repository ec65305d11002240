//! End-to-end matrix: every algorithm × configuration family × scheduler
//! must reach uniform deployment (Definitions 1/2).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ringdeploy::analysis::{
    clustered_config, periodic_config, quarter_ring_config, random_aperiodic_config, random_config,
    uniform_config,
};
use ringdeploy::{Algorithm, DeployReport, Deployment, InitialConfig, Schedule};

/// Drives one run through the builder; `run_preset` maps the
/// `Synchronous` preset to the type-level lock-step mode.
fn run_deploy(init: &InitialConfig, algo: Algorithm, schedule: Schedule) -> DeployReport {
    Deployment::of(init)
        .algorithm(algo)
        .run_preset(schedule)
        .expect("run completes")
}

fn configs() -> Vec<(&'static str, InitialConfig)> {
    let mut rng = SmallRng::seed_from_u64(20160725); // PODC'16 date
    vec![
        ("random-16-4", random_config(&mut rng, 16, 4)),
        ("random-45-9", random_config(&mut rng, 45, 9)),
        ("random-97-13", random_config(&mut rng, 97, 13)), // prime n, n % k ≠ 0
        ("clustered-40-10", clustered_config(40, 10, 0.25)),
        ("quarter-64-16", quarter_ring_config(64, 16)),
        ("periodic-l2", periodic_config(36, 6, 2)),
        ("periodic-l3", periodic_config(36, 6, 3)),
        ("uniform-l-k", uniform_config(32, 8)),
        (
            "two-agents",
            InitialConfig::new(9, vec![3, 4]).expect("valid"),
        ),
        (
            "dense-k-eq-n-half",
            InitialConfig::new(12, vec![0, 1, 2, 3, 4, 5]).expect("valid"),
        ),
        (
            "full-ring-k-eq-n",
            InitialConfig::new(6, (0..6).collect()).expect("valid"),
        ),
        (
            "k-eq-n-minus-1",
            InitialConfig::new(7, (0..6).collect()).expect("valid"),
        ),
        (
            "prime-n-k2",
            InitialConfig::new(13, vec![0, 1]).expect("valid"),
        ),
    ]
}

#[test]
fn every_algorithm_deploys_on_every_config_round_robin() {
    for (name, init) in configs() {
        for algo in Algorithm::ALL {
            let report = run_deploy(&init, algo, Schedule::RoundRobin);
            assert!(
                report.succeeded(),
                "{algo} on {name}: {:?} (positions {:?})",
                report.check,
                report.positions
            );
        }
    }
}

#[test]
fn every_algorithm_deploys_under_random_schedules() {
    for (name, init) in configs() {
        for algo in Algorithm::ALL {
            for seed in [1u64, 2, 3] {
                let report = run_deploy(&init, algo, Schedule::Random(seed));
                assert!(
                    report.succeeded(),
                    "{algo} on {name} seed {seed}: {:?}",
                    report.check
                );
            }
        }
    }
    // Three Table 1 sizes, one seeded aperiodic placement each.
    for (n, k) in [(64, 8), (256, 16), (1024, 32)] {
        let init = random_aperiodic_config(&mut SmallRng::seed_from_u64(42), n, k);
        for algo in Algorithm::ALL {
            let report = run_deploy(&init, algo, Schedule::Random(7));
            assert!(
                report.succeeded(),
                "{algo} on aperiodic n={n} k={k}: {:?}",
                report.check
            );
        }
    }
}

#[test]
fn every_algorithm_deploys_under_adversaries() {
    for (name, init) in configs() {
        for algo in Algorithm::ALL {
            for schedule in [
                Schedule::OneAtATime,
                Schedule::DelayAgent(0),
                Schedule::Synchronous,
            ] {
                let report = run_deploy(&init, algo, schedule);
                assert!(
                    report.succeeded(),
                    "{algo} on {name} under {schedule:?}: {:?}",
                    report.check
                );
            }
        }
    }
}

#[test]
fn final_positions_are_schedule_independent_for_algo1_and_relaxed() {
    // Algorithm 1's target of each agent is a pure function of the initial
    // configuration; the relaxed algorithm's final position is
    // home + 12·n + disBase + offset(rank) mod n — also schedule-free.
    for (name, init) in configs() {
        for algo in [Algorithm::FullKnowledge, Algorithm::Relaxed] {
            let baseline = run_deploy(&init, algo, Schedule::RoundRobin);
            for schedule in [
                Schedule::Random(9),
                Schedule::OneAtATime,
                Schedule::Synchronous,
            ] {
                let report = run_deploy(&init, algo, schedule);
                assert_eq!(
                    report.positions, baseline.positions,
                    "{algo} positions changed with schedule on {name}"
                );
            }
        }
    }
}

#[test]
fn occupied_set_is_schedule_independent_for_algo2() {
    // Algorithm 2's follower-to-target assignment may depend on the
    // interleaving, but the *set* of occupied nodes (all target nodes) is
    // determined by the initial configuration.
    for (name, init) in configs() {
        let mut baseline = run_deploy(&init, Algorithm::LogSpace, Schedule::RoundRobin).positions;
        baseline.sort_unstable();
        for schedule in [
            Schedule::Random(5),
            Schedule::OneAtATime,
            Schedule::Synchronous,
        ] {
            let mut got = run_deploy(&init, Algorithm::LogSpace, schedule).positions;
            got.sort_unstable();
            assert_eq!(got, baseline, "occupied set changed on {name}");
        }
    }
}

#[test]
fn move_bounds_hold_across_the_matrix() {
    for (name, init) in configs() {
        let n = init.ring_size() as u64;
        let k = init.agent_count() as u64;
        let l = init.symmetry_degree() as u64;
        for algo in Algorithm::ALL {
            let report = run_deploy(&init, algo, Schedule::Random(17));
            let bound = if algo == Algorithm::FullKnowledge {
                3 * k * n
            } else if algo == Algorithm::LogSpace {
                4 * k * n
            } else {
                14 * k * (n / l) + k
            };
            assert!(
                report.metrics.total_moves() <= bound,
                "{algo} on {name}: {} moves > bound {bound}",
                report.metrics.total_moves()
            );
        }
    }
}

#[test]
fn memory_scaling_separates_algo1_from_algo2() {
    // Table 1's memory shapes: growing k at fixed n multiplies Algorithm
    // 1's peak memory (it stores the whole distance sequence, O(k log n))
    // while Algorithm 2's stays flat (O(log n) counters only).
    let peak = |algo: Algorithm, k: usize| {
        let mut rng = SmallRng::seed_from_u64(7);
        let init = random_config(&mut rng, 512, k);
        run_deploy(&init, algo, Schedule::RoundRobin)
            .metrics
            .peak_memory_bits()
    };
    let a1_small = peak(Algorithm::FullKnowledge, 8);
    let a1_large = peak(Algorithm::FullKnowledge, 64);
    let a2_small = peak(Algorithm::LogSpace, 8);
    let a2_large = peak(Algorithm::LogSpace, 64);
    // k grows 8×; entry widths shrink as gaps tighten (≈ log(n/k) bits per
    // entry), so expect at least ~3× growth.
    assert!(
        a1_large >= 3 * a1_small,
        "algo1 memory must grow ~linearly in k: {a1_small} -> {a1_large} bits"
    );
    // Algorithm 2 keeps ~8 counters each of O(log n) / O(log k) bits; the
    // k-dependence is logarithmic (a few extra bits per counter), never
    // linear.
    assert!(
        a2_large <= a2_small + 32,
        "algo2 memory must stay O(log n): {a2_small} -> {a2_large} bits"
    );
    assert!(
        2 * a2_large < a1_large,
        "at k = 64: algo2 {a2_large} bits vs algo1 {a1_large} bits"
    );
}
