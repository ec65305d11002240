//! Exhaustive model checking: on small instances, **every** asynchronous
//! schedule (not a sample — all of them) leads each algorithm to uniform
//! deployment, and no schedule can loop forever.
//!
//! A successful exploration proves, for the instance at hand:
//! * safety — every maximal execution ends uniformly deployed;
//! * termination under arbitrary (even unfair-in-the-limit) schedules —
//!   the configuration graph is acyclic.

use ringdeploy::analysis::explore_one;
use ringdeploy::sim::explore::{ExploreLimits, ExploreReport, Explorer, SymmetryMode};
use ringdeploy::sim::{satisfies_halting_deployment, satisfies_suspended_deployment};
use ringdeploy::{
    Algorithm, FullKnowledge, InitialConfig, LogSpace, NoKnowledge, Ring, TerminatingEstimator,
};

/// Runs the symmetry-reduced explorer on one instance through the shared
/// algorithm dispatch (`analysis::explore_one`), asserting success and
/// returning the report. The clone-based reference is differentially
/// checked against the same engine in `explorer_differential.rs`.
fn verify_instance(n: usize, homes: &[usize], algorithm: Algorithm) -> ExploreReport {
    let k = homes.len();
    let init = InitialConfig::new(n, homes.to_vec()).expect("valid instance");
    let explorer = Explorer::new()
        .limits(ExploreLimits::for_instance(n, k))
        .symmetry(SymmetryMode::Rotation);
    let report = explore_one(algorithm, &init, &explorer)
        .unwrap_or_else(|e| panic!("n={n} homes={homes:?}: {e}"));
    assert!(report.terminals >= 1, "n={n} homes={homes:?}");
    assert!(report.states > report.terminals, "n={n} homes={homes:?}");
    report
}

#[test]
fn algo1_correct_under_all_schedules() {
    for (n, homes) in [
        (6usize, vec![0usize, 1]),
        (6, vec![0, 1, 3]),
        (8, vec![0, 1, 2]),
        (9, vec![0, 4, 5]),
        (10, vec![0, 5]), // periodic l = 2
    ] {
        let k = homes.len();
        let init = InitialConfig::new(n, homes.clone()).expect("valid");
        let ring = Ring::new(&init, |_| FullKnowledge::new(k));
        let report = Explorer::new()
            .symmetry(SymmetryMode::Off)
            .run(&ring, |r| satisfies_halting_deployment(r).is_satisfied())
            .unwrap_or_else(|e| panic!("n={n} homes={homes:?}: {e}"));
        assert!(report.terminals >= 1);
        assert!(report.states > 1);
    }
}

#[test]
fn algo2_correct_under_all_schedules() {
    for (n, homes) in [
        (6usize, vec![0usize, 1]),
        (6, vec![0, 1, 3]),
        (8, vec![0, 1, 2]),
        (8, vec![0, 4]), // periodic l = 2: both become leaders
    ] {
        let k = homes.len();
        let init = InitialConfig::new(n, homes.clone()).expect("valid");
        let ring = Ring::new(&init, |_| LogSpace::new(k));
        let report = Explorer::new()
            .symmetry(SymmetryMode::Off)
            .run(&ring, |r| satisfies_halting_deployment(r).is_satisfied())
            .unwrap_or_else(|e| panic!("n={n} homes={homes:?}: {e}"));
        assert!(report.terminals >= 1);
    }
}

#[test]
fn relaxed_correct_under_all_schedules() {
    // The relaxed algorithm's walks are ~14n per agent, so keep instances
    // tiny; exploration still covers millions of interleavings.
    for (n, homes) in [
        (4usize, vec![0usize, 1]),
        (5, vec![0, 2]),
        (6, vec![0, 1, 3]),
    ] {
        let init = InitialConfig::new(n, homes.clone()).expect("valid");
        let ring = Ring::new(&init, |_| NoKnowledge::new());
        let report = Explorer::new()
            .symmetry(SymmetryMode::Off)
            .run(&ring, |r| satisfies_suspended_deployment(r).is_satisfied())
            .unwrap_or_else(|e| panic!("n={n} homes={homes:?}: {e}"));
        assert!(report.terminals >= 1, "n={n} homes={homes:?}");
    }
}

// ---------------------------------------------------------------------
// Verification at n ≥ 12, k = 4 — the scale the rotation quotient
// unlocked (the plain unquotiented DFS topped out around n = 10 / k = 3). Each algorithm family is machine-checked on one
// clustered (worst-case spread, aperiodic) and one symmetric instance.
// ---------------------------------------------------------------------

#[test]
fn algo1_exhaustive_n12_k4_clustered() {
    // Aperiodic worst case: the quotient cannot merge rotations of the
    // start, but the proof still covers every one of the thousands of
    // interleavings of the four selection walks.
    let report = verify_instance(12, &[0, 1, 2, 3], Algorithm::FullKnowledge);
    assert_eq!(report.terminals, 1);
}

#[test]
fn algo1_exhaustive_n16_k4_uniform() {
    // Symmetry degree l = 4: the quotient collapses the four rotated
    // copies of every asymmetric intermediate state (~3.9× fewer states).
    let report = verify_instance(16, &[0, 4, 8, 12], Algorithm::FullKnowledge);
    assert_eq!(report.terminals, 1);
}

#[test]
fn algo1_exhaustive_n12_k6() {
    // Six agents: branching grows with k, reduction approaches l = 6.
    let report = verify_instance(12, &[0, 2, 4, 6, 8, 10], Algorithm::FullKnowledge);
    assert_eq!(report.terminals, 1);
}

#[test]
fn algo2_exhaustive_n12_k4_clustered() {
    let report = verify_instance(12, &[0, 1, 2, 3], Algorithm::LogSpace);
    // Algorithm 2's leader election admits several final offsets; the
    // quotient folds rotation-equivalent ones together.
    assert!(report.terminals >= 1);
}

#[test]
fn algo2_exhaustive_n16_k4_uniform() {
    let report = verify_instance(16, &[0, 4, 8, 12], Algorithm::LogSpace);
    assert_eq!(report.terminals, 1);
}

#[test]
fn relaxed_exhaustive_n12_k4_clustered() {
    // The largest instance in the suite (~67 k quotient states): the
    // no-knowledge algorithm's long walks make clustered starts by far
    // the most schedule-rich family.
    let report = verify_instance(12, &[0, 1, 2, 3], Algorithm::Relaxed);
    assert_eq!(report.terminals, 1);
}

#[test]
fn relaxed_exhaustive_n16_k4_uniform() {
    let report = verify_instance(16, &[0, 4, 8, 12], Algorithm::Relaxed);
    assert_eq!(report.terminals, 1);
}

// ---------------------------------------------------------------------
// Verification at n = 20, k = 4 — the scale the 0.5 reversible engine
// unlocked (clone-free in-place DFS + incremental canonical
// fingerprints; the clone-based 0.4 engine topped out at n = 16 within
// the same time budgets). One symmetric instance
// per algorithm family, machine-checked over every fair schedule.
// ---------------------------------------------------------------------

#[test]
fn algo1_exhaustive_n20_k4_uniform() {
    let report = verify_instance(20, &[0, 5, 10, 15], Algorithm::FullKnowledge);
    assert_eq!(report.terminals, 1);
}

#[test]
fn algo2_exhaustive_n20_k4_uniform() {
    let report = verify_instance(20, &[0, 5, 10, 15], Algorithm::LogSpace);
    assert_eq!(report.terminals, 1);
}

#[test]
fn relaxed_exhaustive_n20_k4_uniform() {
    // ~25 k quotient states; the largest relaxed instance in the suite.
    let report = verify_instance(20, &[0, 5, 10, 15], Algorithm::Relaxed);
    assert_eq!(report.terminals, 1);
}

#[test]
fn algo1_exhaustive_n14_k6() {
    // Six agents spread over 14 nodes (distance sequence 2,2,2,2,2,4 —
    // aperiodic, so the quotient cannot help): ~178 k states, the widest
    // branching in the suite.
    let report = verify_instance(14, &[0, 2, 4, 6, 8, 10], Algorithm::FullKnowledge);
    assert_eq!(report.terminals, 1);
}

// ---------------------------------------------------------------------
// Verification at n = 24, k = 4 and n = 16, k = 6. Every family,
// including g-partial gathering, is machine-checked at this scale.
// ---------------------------------------------------------------------

#[test]
fn algo1_exhaustive_n24_k4_uniform() {
    // ~13 k quotient states over a 24-node ring.
    let report = verify_instance(24, &[0, 6, 12, 18], Algorithm::FullKnowledge);
    assert_eq!(report.terminals, 1);
}

#[test]
fn algo2_exhaustive_n24_k4_uniform() {
    let report = verify_instance(24, &[0, 6, 12, 18], Algorithm::LogSpace);
    assert_eq!(report.terminals, 1);
}

#[test]
fn relaxed_exhaustive_n24_k4_uniform() {
    // ~49 k quotient states; the largest relaxed instance in the suite.
    let report = verify_instance(24, &[0, 6, 12, 18], Algorithm::Relaxed);
    assert_eq!(report.terminals, 1);
}

#[test]
fn gathering_exhaustive_n24_k4_g2() {
    // Two clustered pairs half a ring apart (l = 2, k/l = 2 ≥ g): every
    // schedule gathers the four agents into groups of ≥ 2 (~31 k states).
    let report = verify_instance(24, &[0, 1, 12, 13], Algorithm::partial_gathering(2));
    assert_eq!(report.terminals, 1);
}

#[test]
fn algo1_exhaustive_n16_k6() {
    // Six agents on sixteen nodes (period 8, l = 2): ~150 k quotient
    // states, the widest branching in the suite.
    let report = verify_instance(16, &[0, 2, 4, 8, 10, 12], Algorithm::FullKnowledge);
    assert_eq!(report.terminals, 1);
}

#[test]
fn gathering_exhaustive_n16_k6_g3() {
    // Two clustered triples half a ring apart (l = 2, k/l = 3 ≥ g):
    // ~152 k quotient states.
    let report = verify_instance(16, &[0, 1, 2, 8, 9, 10], Algorithm::partial_gathering(3));
    assert_eq!(report.terminals, 1);
}

#[test]
fn symmetry_reduction_preserves_the_verdict() {
    // The quotient must change the state count, never the outcome: on a
    // fully symmetric instance both modes verify the same property.
    let init = InitialConfig::new(12, vec![0, 3, 6, 9]).expect("valid");
    let pred = |r: &Ring<FullKnowledge>| satisfies_halting_deployment(r).is_satisfied();
    let ring = Ring::new(&init, |_| FullKnowledge::new(4));
    let plain = Explorer::new()
        .symmetry(SymmetryMode::Off)
        .run(&ring, pred)
        .expect("plain exploration");
    let reduced = Explorer::new()
        .symmetry(SymmetryMode::Rotation)
        .run(&ring, pred)
        .expect("reduced exploration");
    assert!(
        reduced.states * 3 < plain.states,
        "l = 4 symmetry must cut states by ≥3× ({} vs {})",
        reduced.states,
        plain.states
    );
    // Each terminal class's orbit has size dividing l = 4 (1, 2 or 4),
    // so only these bounds are sound — NOT divisibility of the totals.
    assert!(plain.terminals >= reduced.terminals);
    assert!(plain.terminals <= 4 * reduced.terminals);
}

#[test]
fn strawman_violation_is_found_by_exploration() {
    // The explorer must *find* the Theorem 5 failure, demonstrating that
    // predicate violations are reported, not just assumed absent. Smallest
    // misestimating instance: five consecutive agents on an 8-node ring —
    // the first agent observes gaps (1,1,1,1), estimates n' = 1 and halts
    // after 4 hops, which can never be uniform (8/5 needs gaps 1 and 2).
    let init = InitialConfig::new(8, vec![0, 1, 2, 3, 4]).expect("valid");
    let ring = Ring::new(&init, |_| TerminatingEstimator::new());
    let result = Explorer::new()
        .symmetry(SymmetryMode::Off)
        .run(&ring, |r| satisfies_halting_deployment(r).is_satisfied());
    assert!(result.is_err(), "the strawman's failure must be discovered");
}

#[test]
fn exploration_scales_report_sanity() {
    // Sanity on the report fields for a two-agent instance.
    let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
    let ring = Ring::new(&init, |_| FullKnowledge::new(2));
    let report = Explorer::new()
        .symmetry(SymmetryMode::Off)
        .run(&ring, |r| satisfies_halting_deployment(r).is_satisfied())
        .expect("explore");
    // Each agent: 1 boot + 6 selection arrivals + deployment ≤ 3 hops,
    // so depth is bounded by ~20 actions and the state count by their
    // product.
    assert!(report.max_depth_seen >= 14);
    assert!(report.states >= report.max_depth_seen);
}
