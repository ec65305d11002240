//! End-to-end validation of the g-partial-gathering family
//! (arXiv:1505.06596): the first problem family other than uniform
//! deployment to ride the `ProblemFamily` trait through the entire
//! verification stack. Every harness below reaches the family through
//! the same generic surfaces as the uniform families — `Deployment`,
//! `explore_one`, `worst_case_one`, `certify_one` — with zero
//! gathering-specific plumbing above `ringdeploy-core`:
//!
//! * **exhaustive coverage** — the terminal set of the symmetry-reduced
//!   model checker contains the terminal of every sampled random run;
//! * **adversarial dominance** — the exact worst case is ≥ the maximum
//!   over the deterministic presets plus a 32-seed random sweep, and
//!   the rotation-quotiented search agrees with the plain one;
//! * **Θ(gn) move bound** — the recorded `c·g·n` certificate holds at
//!   the adversarial tier on every instance with `n ≤ 16`;
//! * **impossibility pin** — uniform homes have `k/l = 1`, so `g = 2`
//!   is unsatisfiable and the check names the undersized group;
//! * **oracle differential** — the consecutive-arc DP oracle matches a
//!   set-partition brute force and lower-bounds every distributed run.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ringdeploy::analysis::certify::{certify_one, CertifySettings, EvidenceTier};
use ringdeploy::analysis::{
    explore_one, gathering_oracle_brute_force, gathering_oracle_moves, random_config,
    worst_case_one,
};
use ringdeploy::sim::adversary::{Adversary, Objective};
use ringdeploy::sim::canonical::canonical_fingerprint;
use ringdeploy::sim::explore::{ExploreLimits, Explorer, SymmetryMode};
use ringdeploy::sim::{DeploymentCheck, Ring, RunLimits};
use ringdeploy::{Algorithm, Deployment, InitialConfig, PartialGathering, Schedule};

/// Satisfiable `g = 2` instances: `k/l ≥ 2` everywhere, `n ≤ 16` so
/// the adversarial tier stays exhaustive.
const INSTANCES: &[(usize, &[usize])] = &[
    (8, &[0, 1, 4, 5]),
    (8, &[0, 1, 2]),
    (12, &[0, 1, 2, 3]),
    (12, &[0, 2, 6, 8]),
    (16, &[0, 1, 8, 9]),
];

fn schedules(k: usize) -> Vec<Schedule> {
    let mut schedules: Vec<Schedule> = vec![Schedule::RoundRobin, Schedule::OneAtATime];
    schedules.extend((0..k).map(Schedule::DelayAgent));
    schedules.extend((0..32).map(Schedule::Random));
    schedules
}

#[test]
fn exhaustive_terminal_set_covers_every_sampled_run() {
    let family = Algorithm::partial_gathering(2);
    for &(n, homes) in INSTANCES {
        let init = InitialConfig::new(n, homes.to_vec()).expect("valid");
        let k = init.agent_count();
        let explorer = Explorer::new()
            .limits(ExploreLimits::for_instance(n, k))
            .symmetry(SymmetryMode::Rotation);
        let explored = explore_one(family, &init, &explorer)
            .unwrap_or_else(|e| panic!("n={n} homes={homes:?}: explore failed: {e}"));
        assert!(explored.terminals >= 1);
        for schedule in schedules(k) {
            let mut ring = Ring::new(&init, |_| PartialGathering::new(k));
            let mut scheduler = schedule.into_scheduler().expect("asynchronous preset");
            let outcome = ring
                .run(&mut *scheduler, RunLimits::default())
                .unwrap_or_else(|e| panic!("n={n} {schedule}: run failed: {e}"));
            assert!(outcome.quiescent, "n={n} {schedule}: run must terminate");
            assert!(
                explored.contains_terminal(canonical_fingerprint(&ring)),
                "n={n} homes={homes:?} {schedule}: sampled terminal missing from the \
                 exhaustive terminal set"
            );
        }
    }
}

#[test]
fn adversarial_worst_dominates_every_sampled_schedule() {
    let family = Algorithm::partial_gathering(2);
    for &(n, homes) in INSTANCES {
        let init = InitialConfig::new(n, homes.to_vec()).expect("valid");
        let k = init.agent_count();
        let mut sampled = [0u64; 3];
        for schedule in schedules(k) {
            let report = Deployment::of(&init)
                .algorithm(family)
                .run_preset(schedule)
                .unwrap_or_else(|e| panic!("n={n} {schedule}: {e}"));
            assert!(report.succeeded(), "n={n} homes={homes:?} {schedule}");
            let values = [
                report.metrics.total_moves(),
                report.steps,
                report.metrics.peak_memory_bits() as u64,
            ];
            for (slot, value) in sampled.iter_mut().zip(values) {
                *slot = (*slot).max(value);
            }
        }
        let limits = ExploreLimits::for_instance(n, k);
        for (objective, sampled_max) in Objective::ALL.into_iter().zip(sampled) {
            let rotation = worst_case_one(
                family,
                &init,
                &Adversary::new()
                    .limits(limits)
                    .symmetry(SymmetryMode::Rotation),
                objective,
            )
            .unwrap_or_else(|e| panic!("n={n} {objective}: {e}"));
            let plain = worst_case_one(
                family,
                &init,
                &Adversary::new().limits(limits).symmetry(SymmetryMode::Off),
                objective,
            )
            .unwrap_or_else(|e| panic!("n={n} {objective} plain: {e}"));
            assert!(
                rotation.value >= sampled_max,
                "{objective} n={n} homes={homes:?}: adversarial max {} below sampled {}",
                rotation.value,
                sampled_max
            );
            assert_eq!(
                rotation.value, plain.value,
                "{objective} n={n} homes={homes:?}: quotiented and plain searches disagree"
            );
        }
    }
}

#[test]
fn theta_gn_move_bound_certifies_adversarially() {
    for g in [2usize, 3] {
        let family = Algorithm::partial_gathering(g);
        for &(n, homes) in INSTANCES {
            let init = InitialConfig::new(n, homes.to_vec()).expect("valid");
            if init.agent_count() / init.symmetry_degree() < g {
                continue; // unsatisfiable for this g; pinned separately below
            }
            let cert = certify_one(
                family,
                &init,
                Objective::TotalMoves,
                EvidenceTier::Adversarial,
                &CertifySettings::default(),
            )
            .unwrap_or_else(|e| panic!("g={g} n={n} homes={homes:?}: certify failed: {e}"));
            assert_eq!(cert.bound.formula, "c*g*n", "the Θ(gn) shape is recorded");
            assert!(
                cert.holds(),
                "g={g} n={n} homes={homes:?}: worst {} exceeds bound {}",
                cert.worst_value,
                cert.bound.value
            );
        }
    }
}

#[test]
fn uniform_homes_cannot_gather_pairs() {
    // Fully symmetric homes: l = k, every agent's census view is the
    // same minimal rotation, so all k elect themselves leader and halt
    // at home in groups of 1 < g = 2. The predicate must name the
    // undersized group rather than merely failing.
    let init = InitialConfig::new(12, vec![0, 3, 6, 9]).expect("valid");
    let report = Deployment::of(&init)
        .algorithm(Algorithm::partial_gathering(2))
        .run_preset(Schedule::RoundRobin)
        .expect("the run itself terminates");
    assert!(!report.succeeded());
    assert!(
        matches!(
            report.check,
            DeploymentCheck::UndersizedGroup {
                count: 1,
                required: 2,
                ..
            }
        ),
        "expected an undersized group of 1, got {:?}",
        report.check
    );
}

#[test]
fn oracle_matches_brute_force_on_random_instances() {
    let mut rng = SmallRng::seed_from_u64(11);
    for g in [1usize, 2, 3] {
        for case in 0..12 {
            let n = 6 + (case % 5);
            let k = 2 + (case % 3);
            let init = random_config(&mut rng, n, k);
            assert_eq!(
                gathering_oracle_moves(&init, g),
                gathering_oracle_brute_force(&init, g),
                "g={g} n={n} homes={:?}: DP and set-partition brute force disagree",
                init.homes()
            );
        }
    }
}

#[test]
fn oracle_lower_bounds_every_distributed_run() {
    let family = Algorithm::partial_gathering(2);
    for &(n, homes) in INSTANCES {
        let init = InitialConfig::new(n, homes.to_vec()).expect("valid");
        let oracle = gathering_oracle_moves(&init, 2)
            .unwrap_or_else(|| panic!("n={n} homes={homes:?}: satisfiable instance"));
        for schedule in schedules(init.agent_count()) {
            let report = Deployment::of(&init)
                .algorithm(family)
                .run_preset(schedule)
                .unwrap_or_else(|e| panic!("n={n} {schedule}: {e}"));
            assert!(
                report.metrics.total_moves() >= oracle,
                "n={n} homes={homes:?} {schedule}: a distributed run beat the offline \
                 optimum ({} < {oracle})",
                report.metrics.total_moves()
            );
        }
    }
}
