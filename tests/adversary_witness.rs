//! Witness-replay round trips: every adversarial worst case must be
//! **independently reproducible**. The worst-case search returns its
//! worst schedule as a `Vec` of scheduler picks; replaying that log
//! through the stock [`Replay`] scheduler on a *fresh* ring — no shared
//! state with the search — must reach quiescence with exactly the
//! claimed objective value and exactly the claimed terminal canonical
//! fingerprint. A worst case that cannot be replayed would be a claim,
//! not a measurement.
//!
//! Covered: all three algorithm families × all three objectives, under
//! the paper's FIFO links and under the LIFO overtaking ablation (where
//! the families still terminate — see the divergence pin at the bottom
//! for the one that does not).

use ringdeploy::sim::adversary::{Adversary, AdversaryError, Objective};
use ringdeploy::sim::canonical::canonical_fingerprint;
use ringdeploy::sim::explore::ExploreLimits;
use ringdeploy::sim::scheduler::Replay;
use ringdeploy::sim::{Behavior, LinkDiscipline, Ring, RunLimits};
use ringdeploy::{FullKnowledge, InitialConfig, LogSpace, NoKnowledge};

/// Runs the worst-case search for every objective and replays each
/// witness on a fresh ring, checking value and terminal fingerprint
/// bit-identically.
fn check_witness_round_trip<B>(make: &dyn Fn() -> Ring<B>, discipline: LinkDiscipline, label: &str)
where
    B: Behavior + Clone + std::hash::Hash,
    B::Message: Clone + std::hash::Hash,
{
    let prepare = || {
        let mut ring = make();
        ring.set_link_discipline(discipline);
        ring
    };
    let search_ring = prepare();
    let limits = ExploreLimits::for_instance(search_ring.ring_size(), search_ring.agent_count());
    for objective in Objective::ALL {
        let worst = Adversary::new()
            .limits(limits)
            .run(&search_ring, objective)
            .unwrap_or_else(|e| panic!("{label} {objective}: search failed: {e}"));

        let mut replay_ring = prepare();
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
        assert_eq!(
            worst.witness.len(),
            outcome.steps as usize,
            "{label} {objective}: one scheduler pick per executed action"
        );
    }
}

#[test]
fn witnesses_replay_bit_identically_under_fifo() {
    for (n, homes) in [(6usize, vec![0usize, 3]), (8, vec![0, 1, 2])] {
        let init = InitialConfig::new(n, homes.clone()).expect("valid");
        let k = init.agent_count();
        check_witness_round_trip(
            &|| Ring::new(&init, |_| FullKnowledge::new(k)),
            LinkDiscipline::Fifo,
            &format!("algo1 fifo n={n} homes={homes:?}"),
        );
        check_witness_round_trip(
            &|| Ring::new(&init, |_| LogSpace::new(k)),
            LinkDiscipline::Fifo,
            &format!("algo2 fifo n={n} homes={homes:?}"),
        );
        check_witness_round_trip(
            &|| Ring::new(&init, |_| NoKnowledge::new()),
            LinkDiscipline::Fifo,
            &format!("relaxed fifo n={n} homes={homes:?}"),
        );
    }
}

#[test]
fn witnesses_replay_bit_identically_under_lifo() {
    // The LIFO ablation changes the reachable space (overtaking pushes
    // displace queue heads) but the round-trip contract is identical.
    // Instances are chosen where the family still terminates under
    // overtaking; the no-knowledge family does not on any multi-agent
    // instance (pinned below), so its LIFO coverage is the single-agent
    // ring, where the discipline is degenerate but the plumbing — undo
    // of displaced heads included — still runs.
    for (n, homes) in [(6usize, vec![0usize, 3]), (6, vec![0, 1])] {
        let init = InitialConfig::new(n, homes.clone()).expect("valid");
        let k = init.agent_count();
        check_witness_round_trip(
            &|| Ring::new(&init, |_| FullKnowledge::new(k)),
            LinkDiscipline::Lifo,
            &format!("algo1 lifo n={n} homes={homes:?}"),
        );
    }
    for (n, homes) in [(6usize, vec![0usize, 3]), (8, vec![0, 4])] {
        let init = InitialConfig::new(n, homes.clone()).expect("valid");
        let k = init.agent_count();
        check_witness_round_trip(
            &|| Ring::new(&init, |_| LogSpace::new(k)),
            LinkDiscipline::Lifo,
            &format!("algo2 lifo n={n} homes={homes:?}"),
        );
    }
    let init = InitialConfig::new(5, vec![0]).expect("valid");
    check_witness_round_trip(
        &|| Ring::new(&init, |_| NoKnowledge::new()),
        LinkDiscipline::Lifo,
        "relaxed lifo n=5 homes=[0]",
    );
}

/// Ablation finding, pinned: under LIFO links the no-knowledge family's
/// worst case is **unbounded** — overtaking breaks the token-counting
/// walks, agents keep moving, and because their behavior counters grow
/// the configuration space never repeats (so this surfaces as the depth
/// budget, not a cycle). The FIFO assumption of §2.1 is load-bearing
/// for the relaxed algorithms' *move bounds*, not just their
/// correctness.
#[test]
fn relaxed_worst_case_diverges_under_lifo() {
    let init = InitialConfig::new(4, vec![0, 2]).expect("valid");
    let mut ring = Ring::new(&init, |_| NoKnowledge::new());
    ring.set_link_discipline(LinkDiscipline::Lifo);
    let err = Adversary::new()
        .limits(ExploreLimits::for_instance(4, 2))
        .run(&ring, Objective::TotalMoves)
        .expect_err("the LIFO worst case must not be finite");
    assert!(
        matches!(err, AdversaryError::LimitExceeded(_)),
        "expected the depth budget to cut the unbounded walk, got: {err}"
    );
}
