//! Engine-level semantics of the fault-injection subsystem
//! (DESIGN.md §0.10): crash-stop agents, 1-interval-connected dynamic
//! edges, exact reversibility of faulty steps, and the graceful-
//! degradation verdict.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ringdeploy::sim::canonical::{canonical_fingerprint, plain_fingerprint};
use ringdeploy::sim::scheduler::{Activation, RoundRobin};
use ringdeploy::sim::{Behavior, DeploymentCheck, Metrics, NodeId, PhaseTally, Ring, RunLimits};
use ringdeploy::{AgentId, FaultPlan, FullKnowledge, InitialConfig, LogSpace, NoKnowledge};

fn schedule_hash<B>(ring: &Ring<B>) -> u64
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let mut h = DefaultHasher::new();
    ring.hash_schedule_state(&mut h);
    h.finish()
}

/// Crash-stop: the agent stops acting, its token stays on the ring, and
/// the run still quiesces — with the predicate reporting the typed
/// degradation verdict instead of full satisfaction.
#[test]
fn crashed_agent_stops_moving_and_keeps_its_token() {
    let init = InitialConfig::new(8, vec![0, 1, 4])
        .expect("valid")
        .with_faults(FaultPlan::none().with_crash(AgentId(1), 2));
    let mut ring = Ring::new(&init, |_| FullKnowledge::new(3));
    let out = ring
        .run(&mut RoundRobin::new(), RunLimits::default())
        .expect("faulty run quiesces");
    assert!(out.quiescent);
    assert!(ring.is_crashed(AgentId(1)));
    assert_eq!(ring.crashed_count(), 1);
    // The crash fired exactly at its activation index: agent 1 acted
    // `after + 1` times (the crashing activation consumes the agent),
    // never again after.
    assert_eq!(ring.activations_of(AgentId(1)), 3);
    let check = ringdeploy::sim::satisfies_halting_deployment(&ring);
    assert_eq!(
        check,
        DeploymentCheck::CrashDegraded {
            crashed: 1,
            survivors: 2
        }
    );
    assert!(check.is_crash_degraded());
    assert!(!check.is_satisfied());
}

/// 1-interval connectivity: at most one edge is ever down. `Down` moves
/// are enabled only while no edge is down, budget remains and the
/// target queue is non-empty; while an edge is down the only fault move
/// is `Restore`.
#[test]
fn edge_outages_respect_one_interval_connectivity() {
    let init = InitialConfig::new(6, vec![0, 3])
        .expect("valid")
        .with_faults(FaultPlan::none().with_edge_outages(2));
    let mut ring = Ring::new(&init, |_| NoKnowledge::new());
    assert_eq!(ring.outages_left(), 2);
    assert_eq!(ring.down_edge(), None);
    // Down candidates are exactly the nodes whose incoming queue holds
    // an arrival — initially the two home buffers.
    let downs: Vec<Activation> = ring
        .enabled()
        .into_iter()
        .filter(|a| a.is_fault())
        .collect();
    assert_eq!(downs.len(), 2, "one Down per non-empty queue: {downs:?}");
    ring.step(downs[0]);
    assert_eq!(ring.outages_left(), 1);
    assert!(ring.down_edge().is_some());
    // While an edge is down, Restore is the only fault move on offer.
    let faults: Vec<Activation> = ring
        .enabled()
        .into_iter()
        .filter(|a| a.is_fault())
        .collect();
    assert_eq!(faults, vec![Activation::fault_restore()]);
    ring.step(Activation::fault_restore());
    assert_eq!(ring.down_edge(), None);
    assert_eq!(ring.outages_left(), 1);
}

/// Everything a faulty `apply`/`undo` round trip must restore: state
/// identity, the enabled set, the schedule-history counters and the
/// fault state.
#[derive(Debug, PartialEq)]
struct FaultSnapshot {
    plain_fp: u64,
    canonical_fp: u64,
    schedule_hash: u64,
    enabled: Vec<Activation>,
    steps: u64,
    metrics: Metrics,
    phases: Vec<PhaseTally>,
    down_edge: Option<NodeId>,
    outages_left: u32,
    crashed_count: usize,
}

fn fault_snapshot<B>(ring: &Ring<B>) -> FaultSnapshot
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    FaultSnapshot {
        plain_fp: plain_fingerprint(ring),
        canonical_fp: canonical_fingerprint(ring),
        schedule_hash: schedule_hash(ring),
        enabled: ring.enabled(),
        steps: ring.steps(),
        metrics: ring.metrics().clone(),
        phases: ring.phase_tallies().to_vec(),
        down_edge: ring.down_edge(),
        outages_left: ring.outages_left(),
        crashed_count: ring.crashed_count(),
    }
}

/// Faulty `apply`/`undo` is the identity on every observable — the same
/// contract `reversible.rs` pins for the fault-free engine, here walked
/// through schedules that interleave crashes and edge outages.
fn assert_fault_walk_reverses<B>(init: &InitialConfig, make: &dyn Fn() -> B, seed: u64, label: &str)
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ring = Ring::new(init, |_| make());
    let mut undos = Vec::new();
    let mut snapshots = Vec::new();
    for _ in 0..40 {
        let enabled = ring.enabled();
        if enabled.is_empty() {
            break;
        }
        snapshots.push(fault_snapshot(&ring));
        let pick = enabled[rng.gen_range(0..enabled.len())];
        undos.push(ring.apply(pick));
    }
    while let Some(undo) = undos.pop() {
        ring.undo(undo);
        let before = snapshots.pop().expect("one snapshot per apply");
        assert_eq!(fault_snapshot(&ring), before, "{label} seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random faulty walks reverse exactly, for crash plans, edge plans
    /// and combined plans across three families.
    #[test]
    fn faulty_apply_undo_is_the_identity(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let n = rng.gen_range(5..=8usize);
        let k = rng.gen_range(2..=3usize);
        let mut homes: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            homes.swap(i, j);
        }
        homes.truncate(k);
        let plan = FaultPlan::none()
            .with_crash(AgentId(rng.gen_range(0..k)), rng.gen_range(0..4))
            .with_edge_outages(rng.gen_range(0..3));
        let init = InitialConfig::new(n, homes)
            .expect("distinct homes")
            .with_faults(plan);
        assert_fault_walk_reverses(&init, &|| FullKnowledge::new(k), seed, "algo1");
        assert_fault_walk_reverses(&init, &|| LogSpace::new(k), seed, "algo2");
        assert_fault_walk_reverses(&init, &NoKnowledge::new, seed, "relaxed");
    }
}

/// The empty plan is inert: no fault moves in the enabled set, a zero
/// seal word, and state identity bit-identical to a ring that never
/// heard of faults.
#[test]
fn empty_plan_is_bit_identical_to_the_default_ring() {
    let plain = InitialConfig::new(8, vec![0, 1, 4]).expect("valid");
    let explicit = plain.clone().with_faults(FaultPlan::none());
    let a = Ring::new(&plain, |_| FullKnowledge::new(3));
    let b = Ring::new(&explicit, |_| FullKnowledge::new(3));
    assert!(b.fault_plan().is_empty());
    assert_eq!(b.fault_seal_word(), 0);
    assert_eq!(canonical_fingerprint(&a), canonical_fingerprint(&b));
    assert_eq!(plain_fingerprint(&a), plain_fingerprint(&b));
    assert_eq!(schedule_hash(&a), schedule_hash(&b));
    assert_eq!(a.enabled(), b.enabled());
    assert!(b.enabled().iter().all(|act| !act.is_fault()));
}
