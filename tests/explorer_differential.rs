//! Differential soundness tests for the exploration engine:
//!
//! * every terminal configuration reached by sampled (seeded random)
//!   executions appears in the exhaustive explorer's terminal set — the
//!   explorer really does cover everything sampling can find;
//! * the clone-free DFS reports identical state/terminal counts, terminal
//!   fingerprints and merge-edge diagnostics to the retained clone-based
//!   reference, across all five problem families × FIFO/LIFO link
//!   disciplines, and both engines agree on *whether* an instance fails
//!   (a family that breaks under LIFO overtaking must be rejected by
//!   both);
//! * limit enforcement is exact: the `max_states` boundary between
//!   success and `LimitExceeded` sits at exactly the state count of the
//!   space for both engines and for the adversary.

use ringdeploy::core::ExploreEngine;
use ringdeploy::sim::adversary::{Adversary, AdversaryError, Objective};
use ringdeploy::sim::canonical::{canonical_fingerprint, plain_fingerprint};
use ringdeploy::sim::explore::{
    ExploreErrorKind, ExploreLimits, ExploreReport, Explorer, SymmetryMode,
};
use ringdeploy::sim::scheduler::Random;
use ringdeploy::sim::{
    satisfies_halting_deployment, satisfies_partial_gathering, satisfies_suspended_deployment,
    Behavior, LinkDiscipline, RunLimits,
};
use ringdeploy::{FullKnowledge, InitialConfig, LogSpace, NoKnowledge, PartialGathering, Ring};

fn explore<B>(init: &InitialConfig, make: impl Fn() -> B, halts: bool) -> ExploreReport
where
    B: Behavior + Clone + std::hash::Hash,
    B::Message: Clone + std::hash::Hash,
{
    let ring = Ring::new(init, |_| make());
    Explorer::new()
        .symmetry(SymmetryMode::Rotation)
        .run(&ring, move |r| {
            if halts {
                satisfies_halting_deployment(r).is_satisfied()
            } else {
                satisfies_suspended_deployment(r).is_satisfied()
            }
        })
        .expect("exhaustive exploration succeeds")
}

/// 100 seeded random executions; every final configuration's canonical
/// fingerprint must be a member of the exhaustive terminal set.
fn sampled_terminals_are_covered<B>(
    init: &InitialConfig,
    make: impl Fn() -> B,
    halts: bool,
    label: &str,
) where
    B: Behavior + Clone + std::hash::Hash,
    B::Message: Clone + std::hash::Hash,
{
    let report = explore(init, &make, halts);
    assert!(report.terminals >= 1, "{label}");
    let n = init.ring_size();
    let k = init.agent_count();
    for seed in 0..100u64 {
        let mut ring = Ring::new(init, |_| make());
        let out = ring
            .run(&mut Random::seeded(seed), RunLimits::for_instance(n, k))
            .unwrap_or_else(|e| panic!("{label}: sampled run {seed} failed: {e}"));
        assert!(out.quiescent, "{label}: seed {seed}");
        let fp = canonical_fingerprint(&ring);
        assert!(
            report.contains_terminal(fp),
            "{label}: seed {seed} reached a terminal the explorer missed"
        );
    }
}

#[test]
fn algo1_sampled_terminals_subset_of_exhaustive() {
    let init = InitialConfig::new(8, vec![0, 1, 4]).expect("valid");
    sampled_terminals_are_covered(&init, || FullKnowledge::new(3), true, "algo1");
}

#[test]
fn algo2_sampled_terminals_subset_of_exhaustive() {
    // Clustered homes: under rotation reduction several distinct final
    // offsets share terminal classes; every sampled run must land in one.
    let init = InitialConfig::new(9, vec![0, 1, 2]).expect("valid");
    sampled_terminals_are_covered(&init, || LogSpace::new(3), true, "algo2");
}

#[test]
fn relaxed_sampled_terminals_subset_of_exhaustive() {
    let init = InitialConfig::new(6, vec![0, 1, 3]).expect("valid");
    sampled_terminals_are_covered(&init, NoKnowledge::new, false, "relaxed");
}

/// The clone-free in-place DFS must agree with the **retained clone-based
/// reference explorer** on every deterministic report field, for all
/// three algorithms and both symmetry modes (`max_depth_seen` and
/// `peak_frontier` are the documented exceptions: the two DFS engines
/// expand siblings in opposite order, so their spanning trees differ).
#[test]
fn clone_free_engines_match_clone_based_reference() {
    let cases: Vec<(&str, InitialConfig)> = vec![
        (
            "n=8 clustered",
            InitialConfig::new(8, vec![0, 1, 2]).expect("valid"),
        ),
        (
            "n=8 uniform",
            InitialConfig::new(8, vec![0, 2, 4, 6]).expect("valid"),
        ),
    ];
    for (label, init) in &cases {
        let k = init.agent_count();
        for symmetry in [SymmetryMode::Off, SymmetryMode::Rotation] {
            for algo in 0..3 {
                let (reference, report) = match algo {
                    0 => run_both(init, || FullKnowledge::new(k), true, symmetry),
                    1 => run_both(init, || LogSpace::new(k), true, symmetry),
                    _ => run_both(init, NoKnowledge::new, false, symmetry),
                };
                assert_eq!(
                    reference.states, report.states,
                    "{label} {symmetry:?} algo{algo}"
                );
                assert_eq!(
                    reference.terminals, report.terminals,
                    "{label} {symmetry:?} algo{algo}"
                );
                assert_eq!(
                    reference.terminal_fingerprints, report.terminal_fingerprints,
                    "{label} {symmetry:?} algo{algo}"
                );
                assert_eq!(
                    reference.merge_edges, report.merge_edges,
                    "{label} {symmetry:?} algo{algo}"
                );
            }
        }
    }
}

fn run_both<B>(
    init: &InitialConfig,
    make: impl Fn() -> B,
    halts: bool,
    symmetry: SymmetryMode,
) -> (ExploreReport, ExploreReport)
where
    B: Behavior + Clone + std::hash::Hash,
    B::Message: Clone + std::hash::Hash,
{
    let pred = move |r: &Ring<B>| {
        if halts {
            satisfies_halting_deployment(r).is_satisfied()
        } else {
            satisfies_suspended_deployment(r).is_satisfied()
        }
    };
    let ring = Ring::new(init, |_| make());
    let reference = Explorer::new()
        .symmetry(symmetry)
        .run_serial_reference(&ring, pred)
        .expect("reference");
    let report = Explorer::new()
        .symmetry(symmetry)
        .run(&ring, pred)
        .expect("in-place DFS");
    (reference, report)
}

/// Under `SymmetryMode::Off` the terminal set is keyed by plain
/// fingerprints; sampled runs must land in it as well (the membership
/// check must match the mode's fingerprint function).
#[test]
fn plain_mode_membership_uses_plain_fingerprints() {
    let init = InitialConfig::new(8, vec![0, 1, 4]).expect("valid");
    let ring = Ring::new(&init, |_| FullKnowledge::new(3));
    let report = Explorer::new()
        .symmetry(SymmetryMode::Off)
        .run(&ring, |r| satisfies_halting_deployment(r).is_satisfied())
        .expect("explore");
    for seed in 0..25u64 {
        let mut run = Ring::new(&init, |_| FullKnowledge::new(3));
        run.run(&mut Random::seeded(seed), RunLimits::for_instance(8, 3))
            .expect("sampled run");
        assert!(
            report.contains_terminal(plain_fingerprint(&run)),
            "seed {seed}"
        );
    }
}

/// Exploration must respect explicitly tiny limits the same way in both
/// engines (typed limit error, no panic).
#[test]
fn both_engines_report_limit_errors() {
    let init = InitialConfig::new(10, vec![0, 1, 2]).expect("valid");
    let ring = Ring::new(&init, |_| FullKnowledge::new(3));
    let explorer = Explorer::new().limits(ExploreLimits::new(10, 100_000));
    let dfs = explorer
        .run(&ring, |_| true)
        .expect_err("ten states cannot cover the space");
    assert!(matches!(dfs.kind(), ExploreErrorKind::LimitExceeded(_)));
    let reference = explorer
        .run_serial_reference(&ring, |_| true)
        .expect_err("ten states cannot cover the space");
    assert!(matches!(
        reference.kind(),
        ExploreErrorKind::LimitExceeded(_)
    ));
}

/// The `max_states` budget is exact: the boundary between success and
/// `LimitExceeded` sits at exactly the state count of the space, for the
/// in-place DFS, the reference and the adversary alike — a budget of N
/// errors iff the space holds more than N states.
#[test]
fn limit_boundary_is_engine_independent() {
    let init = InitialConfig::new(10, vec![0, 1, 2]).expect("valid");
    let ring = Ring::new(&init, |_| FullKnowledge::new(3));
    let pred = |r: &Ring<FullKnowledge>| satisfies_halting_deployment(r).is_satisfied();
    let states = Explorer::new()
        .symmetry(SymmetryMode::Rotation)
        .run(&ring, pred)
        .expect("unlimited exploration succeeds")
        .states;
    let at = |max_states: usize| {
        Explorer::new()
            .symmetry(SymmetryMode::Rotation)
            .limits(ExploreLimits::new(max_states, 100_000))
    };
    for engine in [ExploreEngine::Serial, ExploreEngine::Reference] {
        let run = |explorer: Explorer| match engine {
            ExploreEngine::Serial => explorer.run(&ring, pred).map_err(|e| e.kind()),
            ExploreEngine::Reference => explorer
                .run_serial_reference(&ring, pred)
                .map_err(|e| e.kind()),
        };
        assert!(
            run(at(states)).is_ok(),
            "{engine:?}: a budget of exactly {states} states must succeed"
        );
        assert!(
            matches!(run(at(states - 1)), Err(ExploreErrorKind::LimitExceeded(_))),
            "{engine:?}: a budget of {} states must be exceeded",
            states - 1
        );
    }
    // The adversary walks the same graph under the same budget, for one
    // objective or for all of them at once.
    let adversary = |max_states: usize| {
        Adversary::new()
            .symmetry(SymmetryMode::Rotation)
            .limits(ExploreLimits::new(max_states, 100_000))
    };
    for objective in Objective::ALL {
        let run = |max_states: usize| adversary(max_states).run(&ring, objective);
        assert!(
            run(states).is_ok(),
            "adversary {objective}: a budget of exactly {states} states must succeed"
        );
        assert!(
            matches!(run(states - 1), Err(AdversaryError::LimitExceeded(_))),
            "adversary {objective}: a budget of {} states must be exceeded",
            states - 1
        );
    }
    let run_all = |max_states: usize| adversary(max_states).run_all(&ring, &Objective::ALL);
    assert!(
        run_all(states).is_ok(),
        "adversary, all objectives: a budget of exactly {states} states must succeed"
    );
    assert!(
        matches!(run_all(states - 1), Err(AdversaryError::LimitExceeded(_))),
        "adversary, all objectives: a budget of {} states must be exceeded",
        states - 1
    );
}

/// Runs one engine over one family instance under one link discipline,
/// type-erasing the error to its kind.
fn run_engine<B>(
    init: &InitialConfig,
    make: &impl Fn() -> B,
    pred: &impl Fn(&Ring<B>) -> bool,
    discipline: LinkDiscipline,
    engine: ExploreEngine,
) -> Result<ExploreReport, ExploreErrorKind>
where
    B: Behavior + Clone + std::hash::Hash,
    B::Message: Clone + std::hash::Hash,
{
    let mut ring = Ring::new(init, |_| make());
    ring.set_link_discipline(discipline);
    let explorer =
        Explorer::new()
            .symmetry(SymmetryMode::Rotation)
            .limits(ExploreLimits::for_instance(
                init.ring_size(),
                init.agent_count(),
            ));
    let result = match engine {
        ExploreEngine::Reference => explorer.run_serial_reference(&ring, pred),
        ExploreEngine::Serial => explorer.run(&ring, pred),
    };
    result.map_err(|e| e.kind())
}

/// One family × discipline leg: the reference and the in-place DFS must
/// agree — on the full deterministic report quadruple when the
/// exploration succeeds, and on the *fact* of failure when it does not.
/// The failure kind itself is traversal-shaped, not part of the
/// contract: a family broken under LIFO overtaking typically exhibits
/// violations, livelocks and depth-limit blowups at once, and which one
/// an engine meets first depends on its spanning tree (the two engines
/// expand siblings in opposite order).
fn assert_family_agrees<B>(
    init: &InitialConfig,
    make: impl Fn() -> B,
    pred: impl Fn(&Ring<B>) -> bool,
    discipline: LinkDiscipline,
    label: &str,
) where
    B: Behavior + Clone + std::hash::Hash,
    B::Message: Clone + std::hash::Hash,
{
    let reference = run_engine(init, &make, &pred, discipline, ExploreEngine::Reference);
    if discipline == LinkDiscipline::Fifo {
        assert!(
            reference.is_ok(),
            "{label}: every family must verify under FIFO (the paper's model): {reference:?}"
        );
    }
    let serial = run_engine(init, &make, &pred, discipline, ExploreEngine::Serial);
    match (&reference, &serial) {
        (Ok(want), Ok(got)) => {
            assert_eq!(want.states, got.states, "{label} {discipline:?}");
            assert_eq!(want.terminals, got.terminals, "{label} {discipline:?}");
            assert_eq!(
                want.terminal_fingerprints, got.terminal_fingerprints,
                "{label} {discipline:?}"
            );
            assert_eq!(want.merge_edges, got.merge_edges, "{label} {discipline:?}");
        }
        (Err(_), Err(_)) => {}
        (want, got) => {
            panic!("{label} {discipline:?}: reference {want:?} but in-place DFS {got:?}")
        }
    }
}

/// All five families × FIFO/LIFO × both engines.
#[test]
fn five_families_agree_across_engines_and_disciplines() {
    for discipline in [LinkDiscipline::Fifo, LinkDiscipline::Lifo] {
        let init = InitialConfig::new(8, vec![0, 1, 4]).expect("valid");
        assert_family_agrees(
            &init,
            || FullKnowledge::new(3),
            |r| satisfies_halting_deployment(r).is_satisfied(),
            discipline,
            "full-knowledge",
        );
        let init = InitialConfig::new(9, vec![0, 1, 2]).expect("valid");
        assert_family_agrees(
            &init,
            || LogSpace::new(3),
            |r| satisfies_halting_deployment(r).is_satisfied(),
            discipline,
            "log-space",
        );
        let init = InitialConfig::new(6, vec![0, 1, 3]).expect("valid");
        assert_family_agrees(
            &init,
            NoKnowledge::new,
            |r| satisfies_suspended_deployment(r).is_satisfied(),
            discipline,
            "relaxed",
        );
        let init = InitialConfig::new(8, vec![0, 1, 4, 5]).expect("valid");
        assert_family_agrees(
            &init,
            || PartialGathering::new(4),
            |r| satisfies_partial_gathering(r, 2).is_satisfied(),
            discipline,
            "partial-gathering g=2",
        );
        let init = InitialConfig::new(8, vec![0, 1, 2]).expect("valid");
        assert_family_agrees(
            &init,
            || PartialGathering::new(3),
            |r| satisfies_partial_gathering(r, 3).is_satisfied(),
            discipline,
            "partial-gathering g=3",
        );
    }
}
