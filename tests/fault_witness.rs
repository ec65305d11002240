//! Fault-schedule witness replay: the adversarial worst case of a
//! *faulty* instance must be independently reproducible, exactly like
//! the fault-free round trips in `adversary_witness.rs`. Under a
//! [`FaultPlan`] the worst-case search's move set grows — edge-outage
//! moves are adversary-controllable picks and crash-stops fire
//! deterministically inside the steps of the crashing agent — and the
//! returned witness records the complete schedule including any fault
//! moves. Replaying it through the stock [`Replay`] scheduler on a
//! fresh ring carrying the same plan must reach quiescence with exactly
//! the claimed objective value and terminal canonical fingerprint.
//!
//! Also pinned: granting the adversary an edge-outage budget can only
//! raise (never lower) the exact worst case — the fault-free schedule
//! space is a subset of the faulty one.

use ringdeploy::sim::adversary::{Adversary, Objective, WorstCase};
use ringdeploy::sim::canonical::canonical_fingerprint;
use ringdeploy::sim::explore::ExploreLimits;
use ringdeploy::sim::scheduler::Replay;
use ringdeploy::sim::{Behavior, Ring, RunLimits};
use ringdeploy::{AgentId, FaultPlan, FullKnowledge, InitialConfig, LogSpace, NoKnowledge};

/// Searches the worst case of `init` under `plan` for one objective and
/// replays the witness on a fresh ring carrying the same plan.
fn worst_and_replay<B>(
    init: &InitialConfig,
    plan: &FaultPlan,
    make: &dyn Fn() -> B,
    objective: Objective,
    label: &str,
) -> WorstCase
where
    B: Behavior + Clone + std::hash::Hash,
    B::Message: Clone + std::hash::Hash,
{
    let faulty = init.clone().with_faults(plan.clone());
    let search_ring = Ring::new(&faulty, |_| make());
    let worst = Adversary::new()
        .limits(ExploreLimits::for_instance(
            init.ring_size(),
            init.agent_count(),
        ))
        .run(&search_ring, objective)
        .unwrap_or_else(|e| panic!("{label} {objective}: search failed: {e}"));

    let mut replay_ring = Ring::new(&faulty, |_| make());
    let mut replay = Replay::new(worst.witness.clone());
    let outcome = replay_ring
        .run(&mut replay, RunLimits::default())
        .unwrap_or_else(|e| panic!("{label} {objective}: witness does not replay: {e}"));
    assert!(
        outcome.quiescent,
        "{label} {objective}: witness must end at a terminal configuration"
    );
    assert_eq!(
        replay.remaining(),
        0,
        "{label} {objective}: witness must be consumed exactly"
    );
    let replayed_value = match objective {
        Objective::TotalMoves => outcome.metrics.total_moves(),
        Objective::TotalActivations => outcome.steps,
        Objective::PeakMemoryBits => outcome.metrics.peak_memory_bits() as u64,
    };
    assert_eq!(
        replayed_value, worst.value,
        "{label} {objective}: replayed objective value diverges from the claim"
    );
    assert_eq!(
        canonical_fingerprint(&replay_ring),
        worst.terminal_fingerprint,
        "{label} {objective}: replayed terminal fingerprint diverges from the claim"
    );
    worst
}

/// Crash-stop plans: the worst case over every fair schedule of the
/// depleted execution replays bit-identically, for all three plain
/// deployment families.
#[test]
fn crash_fault_witnesses_replay_bit_identically() {
    let plan = FaultPlan::none().with_crash(AgentId(0), 2);
    let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
    for objective in Objective::ALL {
        worst_and_replay(
            &init,
            &plan,
            &|| FullKnowledge::new(2),
            objective,
            "algo1 crash=0@2",
        );
        worst_and_replay(
            &init,
            &plan,
            &|| LogSpace::new(2),
            objective,
            "algo2 crash=0@2",
        );
        worst_and_replay(
            &init,
            &plan,
            &NoKnowledge::new,
            objective,
            "relaxed crash=0@2",
        );
    }
}

/// Dynamic-edge plans: the witness may interleave `Down`/`Restore`
/// picks with agent activations; the round trip must still be exact,
/// and the faulty worst case dominates the fault-free one.
#[test]
fn edge_fault_witnesses_replay_and_dominate_fault_free() {
    let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
    let plan = FaultPlan::none().with_edge_outages(1);
    for objective in [Objective::TotalMoves, Objective::TotalActivations] {
        let baseline = worst_and_replay(
            &init,
            &FaultPlan::none(),
            &|| FullKnowledge::new(2),
            objective,
            "algo1 fault-free",
        );
        let faulty = worst_and_replay(
            &init,
            &plan,
            &|| FullKnowledge::new(2),
            objective,
            "algo1 dynamic-edge:1",
        );
        assert!(
            faulty.value >= baseline.value,
            "{objective}: an edge-outage budget strictly widens the schedule space \
             (faulty worst {} < fault-free worst {})",
            faulty.value,
            baseline.value
        );
    }
}

/// Combined plans — a crash *and* an outage budget — replay too; this is
/// the acceptance-criterion instance (a replayable worst-case fault
/// witness for at least one family).
#[test]
fn combined_fault_witness_replays() {
    let init = InitialConfig::new(6, vec![0, 2]).expect("valid");
    let plan = FaultPlan::none()
        .with_crash(AgentId(1), 1)
        .with_edge_outages(1);
    let worst = worst_and_replay(
        &init,
        &plan,
        &|| FullKnowledge::new(2),
        Objective::TotalMoves,
        "algo1 crash=1@1,dynamic-edge:1",
    );
    assert!(
        worst.witness.len() as u64 >= worst.value,
        "every move costs at least one scheduler pick"
    );
}
