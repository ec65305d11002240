//! Differential validation of the exact worst-case search:
//!
//! * **dominance over sampling** — on every exhaustive-tier instance the
//!   adversarial exact maximum is ≥ the maximum over a 64-seed random
//!   sweep (plus the deterministic adversary presets);
//! * **quotient soundness** — the rotation-quotiented search (the
//!   production default) reports exactly the value of the plain search
//!   (`SymmetryMode::Off`), which enumerates every reachable concrete
//!   configuration;
//! * **full coverage** — for every objective, the search's
//!   `distinct_states` equals the exhaustive explorer's `states` in the
//!   same mode (both modes): the maximum really is taken over the
//!   explorer's *entire* reachable state space, not a subset; its memo
//!   hits equal the explorer's merge edges and its deepest path the
//!   explorer's, so both walk the same graph in the same order;
//! * **independent recomputation** — a reference algorithm of a
//!   different shape (top-down dynamic programming on the
//!   *maximum-remaining* value per plain fingerprint, clone-based
//!   stepping, no cost dominance anywhere) reproduces the same maxima.

use std::collections::HashMap;

use ringdeploy::analysis::explore_one;
use ringdeploy::sim::adversary::{Adversary, Objective, WorstCase};
use ringdeploy::sim::canonical::plain_fingerprint;
use ringdeploy::sim::explore::{ExploreLimits, Explorer, SymmetryMode};
use ringdeploy::sim::{Behavior, Ring};
use ringdeploy::{
    Algorithm, Deployment, FullKnowledge, InitialConfig, LogSpace, NoKnowledge, Schedule,
};

/// The exhaustive-tier instances: one symmetric and one clustered per
/// size, small enough that the plain (unquotiented) search still
/// completes for all three families.
const INSTANCES: &[(usize, &[usize])] = &[(8, &[0, 4]), (8, &[0, 1, 2]), (12, &[0, 3, 6, 9])];

fn adversary_value(
    algorithm: Algorithm,
    init: &InitialConfig,
    symmetry: SymmetryMode,
    objective: Objective,
) -> WorstCase {
    let adversary = Adversary::new()
        .limits(ExploreLimits::for_instance(
            init.ring_size(),
            init.agent_count(),
        ))
        .symmetry(symmetry);
    ringdeploy::analysis::worst_case_one(algorithm, init, &adversary, objective)
        .unwrap_or_else(|e| panic!("{algorithm} {objective} {symmetry:?}: {e}"))
}

fn objective_of_report(objective: Objective, report: &ringdeploy::DeployReport) -> u64 {
    match objective {
        Objective::TotalMoves => report.metrics.total_moves(),
        Objective::TotalActivations => report.steps,
        Objective::PeakMemoryBits => report.metrics.peak_memory_bits() as u64,
    }
}

#[test]
fn adversarial_max_dominates_random_sweeps_and_equals_plain_search() {
    for &(n, homes) in INSTANCES {
        let init = InitialConfig::new(n, homes.to_vec()).expect("valid");
        for algorithm in Algorithm::ALL {
            // One sampled maximum per objective over 64 random seeds plus
            // the deterministic presets.
            let mut sampled = [0u64; 3];
            let mut schedules: Vec<Schedule> = vec![Schedule::RoundRobin, Schedule::OneAtATime];
            schedules.extend((0..init.agent_count()).map(Schedule::DelayAgent));
            schedules.extend((0..64).map(Schedule::Random));
            for schedule in schedules {
                let report = Deployment::of(&init)
                    .algorithm(algorithm)
                    .run_preset(schedule)
                    .unwrap_or_else(|e| panic!("{algorithm} n={n}: sweep run failed: {e}"));
                for (slot, objective) in sampled.iter_mut().zip(Objective::ALL) {
                    *slot = (*slot).max(objective_of_report(objective, &report));
                }
            }
            for (objective, sampled_max) in Objective::ALL.into_iter().zip(sampled) {
                // The quotiented search (the production default) against
                // the fully-enumerated plain baseline: the rotation fold
                // must be value-preserving on the real algorithms.
                let rotation = adversary_value(algorithm, &init, SymmetryMode::Rotation, objective);
                let plain = adversary_value(algorithm, &init, SymmetryMode::Off, objective);
                assert!(
                    rotation.value >= sampled_max,
                    "{algorithm} {objective} n={n} homes={homes:?}: adversarial max {} below \
                     a sampled schedule's {}",
                    rotation.value,
                    sampled_max
                );
                assert_eq!(
                    rotation.value, plain.value,
                    "{algorithm} {objective} n={n} homes={homes:?}: quotiented and plain \
                     searches disagree"
                );
            }
        }
    }
}

#[test]
fn search_covers_exactly_the_explorers_reachable_space() {
    for &(n, homes) in INSTANCES {
        let init = InitialConfig::new(n, homes.to_vec()).expect("valid");
        for algorithm in Algorithm::ALL {
            for symmetry in [SymmetryMode::Off, SymmetryMode::Rotation] {
                let explorer = Explorer::new()
                    .limits(ExploreLimits::for_instance(n, init.agent_count()))
                    .symmetry(symmetry);
                let explored = explore_one(algorithm, &init, &explorer)
                    .unwrap_or_else(|e| panic!("{algorithm} n={n} {symmetry:?}: {e}"));
                // The objective does not change reachability; one check
                // per objective pins that the search neither skips nor
                // invents states.
                for objective in Objective::ALL {
                    let worst = adversary_value(algorithm, &init, symmetry, objective);
                    assert_eq!(
                        worst.distinct_states, explored.states,
                        "{algorithm} {objective} n={n} homes={homes:?} {symmetry:?}: \
                         worst-case search must cover the explorer's reachable space exactly"
                    );
                    assert_eq!(worst.bound_prunes, 0, "the search cuts nothing");
                    // Same graph, same order: every memo hit is one of the
                    // explorer's merge edges, and the DFS paths are as long.
                    assert_eq!(
                        worst.dominance_prunes, explored.merge_edges,
                        "{algorithm} {objective} n={n} homes={homes:?} {symmetry:?}"
                    );
                    assert_eq!(
                        worst.max_depth_seen, explored.max_depth_seen,
                        "{algorithm} {objective} n={n} homes={homes:?} {symmetry:?}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Independent reference: top-down DP on the maximum-remaining value.
// ---------------------------------------------------------------------

/// Maximum *additional* objective value attainable from `ring` to
/// quiescence — memoised per plain fingerprint, clone-based stepping.
/// For the peak objective this computes the maximum memory-bits
/// observation from here on (the final watermark is then the max of the
/// start watermark and this).
fn max_remaining<B>(ring: &Ring<B>, objective: Objective, memo: &mut HashMap<u64, u64>) -> u64
where
    B: Behavior + Clone + std::hash::Hash,
    B::Message: Clone + std::hash::Hash,
{
    let fp = plain_fingerprint(ring);
    if let Some(&cached) = memo.get(&fp) {
        return cached;
    }
    let mut best = 0u64;
    // Index loop: the enabled slice is borrowed from `ring`.
    for i in 0..ring.enabled_activations().len() {
        let act = ring.enabled_activations()[i];
        let mut child = ring.clone();
        child.step(act);
        let gain = match objective {
            Objective::TotalMoves => child.metrics().total_moves() - ring.metrics().total_moves(),
            Objective::TotalActivations => 1,
            // The engine observes the acting agent's memory right after
            // its local computation; that observation is this step's
            // contribution to the watermark.
            Objective::PeakMemoryBits => child.behavior(act.agent).memory_bits() as u64,
        };
        let rest = max_remaining(&child, objective, memo);
        let total = match objective {
            Objective::PeakMemoryBits => gain.max(rest),
            _ => gain + rest,
        };
        best = best.max(total);
    }
    memo.insert(fp, best);
    best
}

/// The DP reference's answer for one family ring: the maximum-remaining
/// value, combined with the start watermark for the peak objective.
fn dp_reference<B>(ring: &Ring<B>, objective: Objective) -> u64
where
    B: Behavior + Clone + std::hash::Hash,
    B::Message: Clone + std::hash::Hash,
{
    let rem = max_remaining(ring, objective, &mut HashMap::new());
    match objective {
        Objective::PeakMemoryBits => (ring.metrics().peak_memory_bits() as u64).max(rem),
        _ => rem,
    }
}

#[test]
fn independent_dp_reference_reproduces_the_maxima() {
    // Small instances: the DP clones a ring per edge, so keep the spaces
    // in the hundreds-to-thousands of states.
    for (n, homes) in [(6usize, vec![0usize, 3]), (6, vec![0, 1]), (8, vec![0, 4])] {
        let init = InitialConfig::new(n, homes.clone()).expect("valid");
        let k = init.agent_count();
        for algorithm in Algorithm::ALL {
            for objective in Objective::ALL {
                let worst = adversary_value(algorithm, &init, SymmetryMode::Rotation, objective);
                let reference = if algorithm == Algorithm::FullKnowledge {
                    dp_reference(&Ring::new(&init, |_| FullKnowledge::new(k)), objective)
                } else if algorithm == Algorithm::LogSpace {
                    dp_reference(&Ring::new(&init, |_| LogSpace::new(k)), objective)
                } else {
                    dp_reference(&Ring::new(&init, |_| NoKnowledge::new()), objective)
                };
                assert_eq!(
                    worst.value, reference,
                    "{algorithm} {objective} n={n} homes={homes:?}: worst-case search and \
                     DP reference disagree"
                );
            }
        }
    }
}
