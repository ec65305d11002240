//! Pins of both searches over the configuration graph — the exhaustive
//! explorer ([`Explorer::run`]) and the worst-case adversary
//! ([`Adversary::run`]) — across four paper families plus an
//! always-false predicate, fault-free and under crash and edge-outage
//! plans; and, over the same instances, a check that one adversary walk
//! for all objectives ([`Adversary::run_all`]) answers exactly what one
//! walk per objective does.
//!
//! Each pinned digest is an FNV-1a hash of the `Debug` text of every
//! report or error one family × plan produces under FIFO/LIFO links ×
//! both symmetry modes × {explorer, each objective}; every search covers
//! the whole reachable space. Every report field is covered, including the
//! spanning-tree-shaped ones (`max_depth_seen`, `peak_frontier`), the
//! sorted terminal fingerprints, the witness and the search counters, as
//! are the kind and depth of every error. A change to the order either
//! search walks the graph in shows up as a changed digest.

use std::hash::Hash;

use ringdeploy::core::explore_terminal_ok;
use ringdeploy::sim::adversary::{Adversary, Objective};
use ringdeploy::sim::explore::{ExploreLimits, Explorer, SymmetryMode};
use ringdeploy::sim::{
    satisfies_halting_deployment, satisfies_partial_gathering, satisfies_suspended_deployment,
    Behavior, LinkDiscipline,
};
use ringdeploy::{
    AgentId, FaultPlan, FullKnowledge, InitialConfig, LogSpace, NoKnowledge, PartialGathering, Ring,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The three plans every family runs under.
fn plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::none().with_crash(AgentId(1), 3)),
        ("outages", FaultPlan::none().with_edge_outages(2)),
    ]
}

/// Small enough that the larger spaces stop on a limit, so the limit
/// errors are pinned too.
fn limits() -> ExploreLimits {
    ExploreLimits::new(4_000, 1_000)
}

/// The digest of every search one instance is put through.
fn digest<B>(init: &InitialConfig, make: &dyn Fn() -> B, pred: &dyn Fn(&Ring<B>) -> bool) -> u64
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let mut h = FNV_OFFSET;
    for discipline in [LinkDiscipline::Fifo, LinkDiscipline::Lifo] {
        let mut ring = Ring::new(init, |_| make());
        ring.set_link_discipline(discipline);
        for symmetry in [SymmetryMode::Off, SymmetryMode::Rotation] {
            let tag = format!("{discipline:?} {symmetry:?}");
            let explored = Explorer::new()
                .limits(limits())
                .symmetry(symmetry)
                .run(&ring, pred)
                .map_err(|e| e.kind());
            h = fnv1a(h, format!("{tag} explore {explored:?}\n").as_bytes());
            let adversary = Adversary::new().limits(limits()).symmetry(symmetry);
            for objective in Objective::ALL {
                let worst = adversary.run(&ring, objective);
                h = fnv1a(h, format!("{tag} {objective} {worst:?}\n").as_bytes());
            }
        }
    }
    h
}

/// Checks that one all-objective search of `init` answers exactly what
/// one search per objective does, under both disciplines and both
/// symmetry modes: every field of every worst case, or the same error
/// kind and depth.
fn check_shared_walk<B>(label: &str, init: &InitialConfig, make: &dyn Fn() -> B)
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    for discipline in [LinkDiscipline::Fifo, LinkDiscipline::Lifo] {
        let mut ring = Ring::new(init, |_| make());
        ring.set_link_discipline(discipline);
        for symmetry in [SymmetryMode::Off, SymmetryMode::Rotation] {
            let adversary = Adversary::new().limits(limits()).symmetry(symmetry);
            let shared = adversary.run_all(&ring, &Objective::ALL);
            for (slot, objective) in Objective::ALL.into_iter().enumerate() {
                let alone = adversary.run(&ring, objective);
                let from_shared = shared.as_ref().map(|all| &all[slot]);
                assert_eq!(
                    from_shared,
                    alone.as_ref(),
                    "{label} {discipline:?} {symmetry:?} {objective}"
                );
            }
        }
    }
}

#[test]
fn one_walk_answers_every_objective_as_three_searches_do() {
    let algo1 = InitialConfig::new(8, vec![0, 1, 4]).expect("valid");
    let algo2 = InitialConfig::new(9, vec![0, 1, 2]).expect("valid");
    let relaxed = InitialConfig::new(6, vec![0, 1, 3]).expect("valid");
    let gathering = InitialConfig::new(8, vec![0, 1, 4, 5]).expect("valid");
    for (plan_name, plan) in plans() {
        let with = |init: &InitialConfig| init.clone().with_faults(plan.clone());
        check_shared_walk(&format!("algo1 {plan_name}"), &with(&algo1), &|| {
            FullKnowledge::new(3)
        });
        check_shared_walk(&format!("algo2 {plan_name}"), &with(&algo2), &|| {
            LogSpace::new(3)
        });
        check_shared_walk(
            &format!("relaxed {plan_name}"),
            &with(&relaxed),
            &NoKnowledge::new,
        );
        check_shared_walk(
            &format!("partial-gathering-g2 {plan_name}"),
            &with(&gathering),
            &|| PartialGathering::new(4),
        );
    }
}

/// Every case as `(label, digest)`.
fn cases() -> Vec<(String, u64)> {
    let algo1 = InitialConfig::new(8, vec![0, 1, 4]).expect("valid");
    let algo2 = InitialConfig::new(9, vec![0, 1, 2]).expect("valid");
    let relaxed = InitialConfig::new(6, vec![0, 1, 3]).expect("valid");
    let gathering = InitialConfig::new(8, vec![0, 1, 4, 5]).expect("valid");
    let mut out = Vec::new();
    for (plan_name, plan) in plans() {
        let with = |init: &InitialConfig| init.clone().with_faults(plan.clone());
        let mut push = |family: &str, digest: u64| {
            out.push((format!("{family} {plan_name}"), digest));
        };
        push(
            "algo1",
            digest(&with(&algo1), &|| FullKnowledge::new(3), &|r| {
                explore_terminal_ok(&satisfies_halting_deployment(r))
            }),
        );
        push(
            "algo2",
            digest(&with(&algo2), &|| LogSpace::new(3), &|r| {
                explore_terminal_ok(&satisfies_halting_deployment(r))
            }),
        );
        push(
            "relaxed",
            digest(&with(&relaxed), &NoKnowledge::new, &|r| {
                explore_terminal_ok(&satisfies_suspended_deployment(r))
            }),
        );
        push(
            "partial-gathering-g2",
            digest(&with(&gathering), &|| PartialGathering::new(4), &|r| {
                explore_terminal_ok(&satisfies_partial_gathering(r, 2))
            }),
        );
        push(
            "algo1 never-ok",
            digest(&with(&algo1), &|| FullKnowledge::new(3), &|_| false),
        );
    }
    out
}

/// `(label, digest)` per case.
#[rustfmt::skip]
const PINNED: [(&str, u64); 15] = [
    ("algo1 none", 0xa6874be6a4481aff),
    ("algo2 none", 0x46d1e5d4f152e0dc),
    ("relaxed none", 0x17d24c3f5b40ed6d),
    ("partial-gathering-g2 none", 0xe6080af6edbea334),
    ("algo1 never-ok none", 0x7d64afe041a6e658),
    ("algo1 crash", 0xfa2a76d637c49fd3),
    ("algo2 crash", 0xdf0fd8832fdecbd5),
    ("relaxed crash", 0xba2fe208fa03620b),
    ("partial-gathering-g2 crash", 0x0c7f8ca532fb1ddd),
    ("algo1 never-ok crash", 0x3dafbd61c6f4d8b0),
    ("algo1 outages", 0x69400948a68db297),
    ("algo2 outages", 0x129bbc02888584c5),
    ("relaxed outages", 0x6a121fd2c4778d75),
    ("partial-gathering-g2 outages", 0xcfa5aab4a41e48d7),
    ("algo1 never-ok outages", 0xc430f0562d244254),
];

#[test]
fn searches_match_their_pinned_digests() {
    let actual = cases();
    assert_eq!(actual.len(), PINNED.len());
    for (got, want) in actual.iter().zip(PINNED) {
        assert_eq!(
            (got.0.as_str(), got.1),
            want,
            "search outputs of {} changed",
            want.0
        );
    }
}
