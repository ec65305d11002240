//! Empty-`FaultPlan` differential: the fault-injection subsystem must
//! be **invisible** when no faults are planned. An instance carrying an
//! explicitly-constructed empty plan must be bit-identical to the plain
//! instance on every observable the verification stack reports — seeded
//! random trajectories (canonical and plain fingerprints, the full
//! schedule-state hash, the enabled set), the exhaustive explorer's
//! report quadruple under both the in-place DFS and the clone-based
//! reference in `support`, and the daemon's cache identity (canonical `InstanceKey`
//! bytes and FNV fingerprints) — across all five problem families and
//! both link disciplines.
//!
//! This is the backward-compatibility pin of DESIGN.md §0.10: every
//! pre-fault cache entry, witness and fingerprint stays valid.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

mod support;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ringdeploy::core::explore_terminal_ok;
use ringdeploy::sim::canonical::{canonical_fingerprint, plain_fingerprint};
use ringdeploy::sim::explore::{ExploreLimits, ExploreReport, Explorer, SymmetryMode};
use ringdeploy::sim::scheduler::Random;
use ringdeploy::sim::{
    satisfies_halting_deployment, satisfies_partial_gathering, satisfies_suspended_deployment,
    Behavior, LinkDiscipline, RunLimits,
};
use ringdeploy::{
    Algorithm, FaultPlan, FullKnowledge, InitialConfig, LogSpace, NoKnowledge, PartialGathering,
    Ring, Schedule, Sweep, Workload,
};
use support::reference_explore;

fn schedule_hash<B>(ring: &Ring<B>) -> u64
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let mut h = DefaultHasher::new();
    ring.hash_schedule_state(&mut h);
    h.finish()
}

/// Walks one seeded random trajectory (bounded — LIFO overtaking can
/// diverge for some families) and returns the full state identity:
/// plain fingerprint, canonical fingerprint, schedule hash, enabled set.
fn trajectory_identity<B>(
    init: &InitialConfig,
    make: &dyn Fn() -> B,
    discipline: LinkDiscipline,
    seed: u64,
) -> (u64, u64, u64, usize)
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let mut ring = Ring::new(init, |_| make());
    ring.set_link_discipline(discipline);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..80 {
        let enabled = ring.enabled();
        if enabled.is_empty() {
            break;
        }
        let pick = enabled[rng.gen_range(0..enabled.len())];
        ring.step(pick);
    }
    (
        plain_fingerprint(&ring),
        canonical_fingerprint(&ring),
        schedule_hash(&ring),
        ring.enabled().len(),
    )
}

/// Explores `init` exhaustively under the reference (`reference`) or the
/// in-place DFS.
fn explore_report<B>(
    init: &InitialConfig,
    make: &dyn Fn() -> B,
    pred: &dyn Fn(&Ring<B>) -> bool,
    reference: bool,
    label: &str,
) -> ExploreReport
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let ring = Ring::new(init, |_| make());
    let result = if reference {
        reference_explore(
            &ring,
            ExploreLimits::default(),
            SymmetryMode::Rotation,
            pred,
        )
    } else {
        Explorer::new()
            .symmetry(SymmetryMode::Rotation)
            .run(&ring, pred)
    };
    result.unwrap_or_else(|e| panic!("{label} reference={reference}: exploration failed: {e}"))
}

/// The report fields every engine must agree on.
fn quadruple(report: &ExploreReport) -> (usize, usize, &[u64], u64) {
    (
        report.states,
        report.terminals,
        &report.terminal_fingerprints,
        report.merge_edges,
    )
}

/// The full differential for one family: trajectories under both
/// disciplines and exploration under both engines must not observe
/// whether the empty plan was attached explicitly, and the two engines
/// must agree with each other on either instance.
fn assert_empty_plan_invisible<B>(
    plain: &InitialConfig,
    make: &dyn Fn() -> B,
    pred: &dyn Fn(&Ring<B>) -> bool,
    label: &str,
) where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let explicit = plain.clone().with_faults(FaultPlan::none());
    for discipline in [LinkDiscipline::Fifo, LinkDiscipline::Lifo] {
        for seed in [3u64, 17, 99] {
            let a = trajectory_identity(plain, make, discipline, seed);
            let b = trajectory_identity(&explicit, make, discipline, seed);
            assert_eq!(a, b, "{label} {discipline:?} seed {seed}");
        }
    }
    let reference = explore_report(plain, make, pred, true, label);
    for (side, init) in [("plain", plain), ("explicit empty plan", &explicit)] {
        for by_reference in [true, false] {
            let report = explore_report(init, make, pred, by_reference, label);
            assert_eq!(
                quadruple(&report),
                quadruple(&reference),
                "{label} reference={by_reference} {side}"
            );
        }
    }
}

/// All five families: the explorer-differential instances, each checked
/// with its own terminal predicate (wrapped in [`explore_terminal_ok`]'s
/// contract: fault-free instances never degrade, so plain satisfaction
/// is the correct predicate on both sides).
#[test]
fn five_families_cannot_observe_an_empty_plan() {
    let init = InitialConfig::new(8, vec![0, 1, 4]).expect("valid");
    assert_empty_plan_invisible(
        &init,
        &|| FullKnowledge::new(3),
        &|r| satisfies_halting_deployment(r).is_satisfied(),
        "full-knowledge",
    );
    let init = InitialConfig::new(9, vec![0, 1, 2]).expect("valid");
    assert_empty_plan_invisible(
        &init,
        &|| LogSpace::new(3),
        &|r| satisfies_halting_deployment(r).is_satisfied(),
        "log-space",
    );
    let init = InitialConfig::new(6, vec![0, 1, 3]).expect("valid");
    assert_empty_plan_invisible(
        &init,
        &NoKnowledge::new,
        &|r| satisfies_suspended_deployment(r).is_satisfied(),
        "relaxed",
    );
    let init = InitialConfig::new(8, vec![0, 1, 4, 5]).expect("valid");
    assert_empty_plan_invisible(
        &init,
        &|| PartialGathering::new(4),
        &|r| satisfies_partial_gathering(r, 2).is_satisfied(),
        "partial-gathering g=2",
    );
    let init = InitialConfig::new(8, vec![0, 1, 2]).expect("valid");
    assert_empty_plan_invisible(
        &init,
        &|| PartialGathering::new(3),
        &|r| satisfies_partial_gathering(r, 3).is_satisfied(),
        "partial-gathering g=3",
    );
}

/// The explorer's fault-aware terminal acceptance collapses to plain
/// satisfaction on fault-free instances ([`explore_terminal_ok`] is
/// `is_satisfied` unless the check is the crash-degraded variant, which
/// fault-free runs never produce).
#[test]
fn fault_free_terminals_never_degrade() {
    let init = InitialConfig::new(8, vec![0, 1, 4]).expect("valid");
    for seed in 0..20u64 {
        let mut ring = Ring::new(&init, |_| FullKnowledge::new(3));
        let out = ring
            .run(&mut Random::seeded(seed), RunLimits::for_instance(8, 3))
            .expect("run");
        assert!(out.quiescent, "seed {seed}");
        let check = satisfies_halting_deployment(&ring);
        assert!(!check.is_crash_degraded(), "seed {seed}");
        assert_eq!(
            explore_terminal_ok(&check),
            check.is_satisfied(),
            "seed {seed}"
        );
    }
}

/// Daemon cache identity: attaching an empty plan to an `InstanceKey`
/// changes neither its canonical bytes nor its FNV fingerprint — every
/// pre-fault cache entry stays addressable, and fault-free jobs keep
/// hitting entries computed before the fault subsystem existed.
#[test]
fn empty_plan_preserves_daemon_cache_keys() {
    let sweep = Sweep::new()
        .algorithms([
            Algorithm::FullKnowledge,
            Algorithm::LogSpace,
            Algorithm::Relaxed,
            Algorithm::partial_gathering(2),
            Algorithm::partial_gathering(3),
        ])
        .workload(Workload::Random { n: 16, k: 4 })
        .schedule(Schedule::RoundRobin)
        .seeds([0, 7]);
    let cells = sweep.cells().expect("cells");
    assert!(!cells.is_empty());
    for cell in &cells {
        let bare = cell.clone();
        let tagged = cell.clone().with_faults(FaultPlan::none());
        assert_eq!(bare.canonical(), tagged.canonical());
        assert_eq!(bare.fingerprint(), tagged.fingerprint());
        assert!(!tagged.canonical().contains("faults"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random instances: a sampled run's outcome quadruple and terminal
    /// identity never depend on whether the empty plan was attached
    /// explicitly.
    #[test]
    fn empty_plan_is_invisible_on_random_instances(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(6..=9usize);
        let k = rng.gen_range(2..=3usize);
        let mut homes: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            homes.swap(i, j);
        }
        homes.truncate(k);
        let plain = InitialConfig::new(n, homes).expect("distinct homes");
        let explicit = plain.clone().with_faults(FaultPlan::none());
        let run = |init: &InitialConfig| {
            let mut ring = Ring::new(init, |_| FullKnowledge::new(k));
            let out = ring
                .run(&mut Random::seeded(seed), RunLimits::for_instance(n, k))
                .expect("run");
            (
                out.quiescent,
                out.steps,
                out.metrics.total_moves(),
                canonical_fingerprint(&ring),
                schedule_hash(&ring),
            )
        };
        prop_assert_eq!(run(&plain), run(&explicit), "seed {}", seed);
    }
}
