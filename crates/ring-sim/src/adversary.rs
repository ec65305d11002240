//! Worst-case schedule synthesis — an exact adversary over the
//! reversible engine.
//!
//! The exhaustive explorer ([`crate::explore`]) answers *qualitative*
//! questions: does every fair schedule deploy, and can any schedule loop
//! forever? This module answers the *quantitative* one the paper's
//! headline results are actually about: **which schedule does the
//! adversary pick, and how bad is it?** For a given instance and
//! [`Objective`] it computes the exact maximum the objective can reach
//! over *every* fair asynchronous schedule, and returns the maximising
//! schedule itself as a replayable witness — a `Vec` of scheduler picks
//! that drives [`Replay`](crate::scheduler::Replay) through the exact
//! worst-case execution.
//!
//! # The search
//!
//! A depth-first dynamic program over the configuration graph. It has
//! no loop of its own: [`Adversary::run_all`] hands the explorer's
//! walker (the one reversible DFS in [`crate::explore`]) the gains of a
//! step and how they combine, for every requested objective at once,
//! then rebuilds one witness per objective from the walker's visited
//! map. [`Adversary::run`] is `run_all` with one objective.
//!
//! * children are generated in place with the reversible
//!   [`Ring::apply`]/[`Ring::undo`] pair (no per-child clone), the
//!   enabled slices of all live states share one activation arena, and
//!   canonical fingerprints are maintained incrementally (≤ 2 node
//!   symbols re-derived per step);
//! * the walker's one visited map memoises, per fingerprint, the exact
//!   **maximum-remaining value** `rem(C)` of every requested objective:
//!   the most the objective can still gain over any fair schedule from
//!   `C` to quiescence, computed bottom-up when the DFS pops the state.
//!   The three values share the map's one `u64` value word as 21-bit
//!   fields, and a value that does not fit escapes to a side table (see
//!   [`crate::explore`]). A child whose fingerprint is already solved
//!   folds its entire subtree in `O(1)` — its contribution is
//!   `combine(gain, rem)` per objective — so **every distinct state is
//!   expanded exactly once**, and the search degenerates to a
//!   linear-in-states dynamic program over the configuration DAG;
//! * nothing is cut: the search visits exactly the explorer's reachable
//!   space, whichever objectives it serves, so one walk can serve all
//!   three.
//!
//! # Why remaining-value memoisation is exact
//!
//! Write `gain(a, C)` for the objective contribution of activating `a`
//! in `C` (a move bit, an activation count, or the acting agent's
//! post-step memory observation) and `rem(C)` for the maximum over fair
//! schedules from `C` of the combined future gains — additive
//! objectives combine as `+`, the peak objective (memory watermark) as
//! `max`. Behaviors are deterministic, so the schedules available from
//! `C` — and their gains — depend only on `C`, never on how the search
//! reached it: `rem` is a function of the *configuration only*, and
//! satisfies the Bellman recurrence
//! `rem(C) = max_a combine(gain(a, C), rem(C·a))` with `rem = 0` at
//! quiescent states. Under [`SymmetryMode::Rotation`] the same holds
//! per rotation class, because behaviors are anonymous: rotating a
//! configuration bijects its schedules and preserves every gain (see
//! [`crate::canonical`]). The DFS computes this recurrence exactly —
//! states on the current path are marked in-flight (a re-encounter is a
//! cycle, see below), finished states carry their `rem` — and the
//! answer is `combine(acc(C_0), rem(C_0))` where `acc(C_0)` is the
//! initial watermark for the peak objective and `0` otherwise. The
//! witness is reconstructed afterwards by descending from the root
//! along children attaining `combine(gain, rem(child)) = rem(parent)`;
//! every step of that descent is an enabled activation of a reachable
//! configuration, so the schedule is replayable by construction.
//!
//! A fingerprint re-encountered **on the current DFS path** is a cycle:
//! an infinite fair execution exists and the worst case is ill-defined
//! (for move-like objectives, unbounded), reported as
//! [`AdversaryError::CycleDetected`] exactly like the explorer.
//!
//! # Example
//!
//! ```
//! use ringdeploy_sim::adversary::{Adversary, Objective};
//! use ringdeploy_sim::scheduler::Replay;
//! # use ringdeploy_sim::{Action, Behavior, InitialConfig, Observation, Ring, RunLimits};
//! # #[derive(Clone, Hash)]
//! # struct Hop { left: usize, released: bool }
//! # impl Behavior for Hop {
//! #     type Message = ();
//! #     fn act(&mut self, _o: &Observation<'_, ()>) -> Action<()> {
//! #         let release = !std::mem::replace(&mut self.released, true);
//! #         if self.left > 0 { self.left -= 1; Action::moving().with_token_release(release) }
//! #         else { Action::halting().with_token_release(release) }
//! #     }
//! #     fn memory_bits(&self) -> usize { 8 }
//! # }
//! let init = InitialConfig::new(6, vec![0, 3])?;
//! let ring = Ring::new(&init, |_| Hop { left: 2, released: false });
//! let worst = Adversary::new().run(&ring, Objective::TotalMoves)?;
//! assert_eq!(worst.value, 4); // both walkers hop twice under any schedule
//!
//! // The witness replays to the exact claimed execution.
//! let mut replay_ring = Ring::new(&init, |_| Hop { left: 2, released: false });
//! let outcome = replay_ring.run(&mut Replay::new(worst.witness.clone()), RunLimits::default())?;
//! assert!(outcome.quiescent);
//! assert_eq!(outcome.metrics.total_moves(), worst.value);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::hash::Hash;

use crate::agent::Behavior;
use crate::engine::{Ring, StepUndo};
use crate::error::SimError;
use crate::explore::{ExploreErrorKind, ExploreLimits, Remaining, Search, SymmetryMode, Walker};
use crate::scheduler::Activation;

/// The quantity the adversarial schedule maximises — the paper's three
/// complexity measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Total moves of all agents (the paper's *total moves* row).
    /// Additive; counted from the search's start configuration.
    TotalMoves,
    /// Atomic actions executed (activations). Additive; counted from the
    /// search's start configuration.
    TotalActivations,
    /// Peak per-agent memory in bits (the paper's *agent memory* row) —
    /// the running maximum of [`Behavior::memory_bits`] over agents and
    /// time, i.e. the watermark
    /// [`Metrics::peak_memory_bits`](crate::Metrics::peak_memory_bits).
    PeakMemoryBits,
}

impl Objective {
    /// All objectives: moves, activations, memory. A certify batch
    /// emits its rows in this order, and a shared search keeps each
    /// objective's remaining value in the slot of its position here.
    pub const ALL: [Objective; 3] = [
        Objective::TotalMoves,
        Objective::TotalActivations,
        Objective::PeakMemoryBits,
    ];

    /// The objective's position in [`Objective::ALL`].
    fn slot(self) -> usize {
        self as usize
    }

    /// A stable machine-readable name (used by the CLI and JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            Objective::TotalMoves => "total-moves",
            Objective::TotalActivations => "total-activations",
            Objective::PeakMemoryBits => "peak-memory-bits",
        }
    }

    /// Parses the output of [`Objective::name`].
    pub fn from_name(name: &str) -> Option<Objective> {
        Objective::ALL.into_iter().find(|o| o.name() == name)
    }

    /// Whether the objective accumulates additively along a schedule
    /// (`false` for the peak-watermark objective, which combines by
    /// `max`): the `combine` of the remaining-value recurrence in the
    /// [module docs](self).
    pub fn is_additive(self) -> bool {
        !matches!(self, Objective::PeakMemoryBits)
    }

    /// `combine(gain, rest)` of the module docs: how one step's gain
    /// merges with the remaining value of the state it leads to.
    fn combine(self, gain: u64, rest: u64) -> u64 {
        if self.is_additive() {
            gain + rest
        } else {
            gain.max(rest)
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The adversary's answer: the exact worst-case value, the schedule that
/// achieves it, and search diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorstCase {
    /// The objective that was maximised.
    pub objective: Objective,
    /// The exact maximum over every fair schedule. Additive objectives
    /// count from the search's start configuration;
    /// [`Objective::PeakMemoryBits`] is the absolute watermark (it
    /// includes the initial memory observation).
    pub value: u64,
    /// The maximising schedule: the scheduler picks, in order, from the
    /// start configuration to the worst terminal — directly consumable
    /// by [`Replay`](crate::scheduler::Replay) on a fresh ring of the
    /// same instance.
    pub witness: Vec<Activation>,
    /// Fingerprint of the terminal configuration the witness ends in
    /// ([`canonical_fingerprint`](crate::canonical::canonical_fingerprint)
    /// under [`SymmetryMode::Rotation`], the plain fingerprint under
    /// [`SymmetryMode::Off`]).
    pub terminal_fingerprint: u64,
    /// Distinct configurations entered into the visited map (rotation
    /// classes under [`SymmetryMode::Rotation`]) — the reachable state
    /// count, equal to what the explorer reports for the same mode, for
    /// every objective.
    pub distinct_states: usize,
    /// State expansions performed. The remaining-value memo solves each
    /// state the first time it is reached, so a completed search
    /// expands every distinct state exactly once:
    /// `expansions == distinct_states`.
    pub expansions: usize,
    /// Children folded through the remaining-value memo: their
    /// fingerprint was already solved, so the whole subtree contributed
    /// `combine(gain, rem)` in `O(1)` instead of being re-walked.
    pub dominance_prunes: u64,
    /// Always `0`: the search cuts no subtree. Kept, with its JSON key,
    /// because the end-to-end benchmark (`e2ebench`) still reads it; it
    /// goes once that reader does.
    pub bound_prunes: u64,
    /// Terminal (quiescent) configurations encountered, counting memo
    /// re-encounters along different paths.
    pub terminal_hits: u64,
    /// Longest DFS path explored.
    pub max_depth_seen: usize,
}

/// Failures of a worst-case search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversaryError {
    /// A configuration repeats along one schedule: an infinite fair
    /// execution exists and the worst case is ill-defined (for additive
    /// objectives, unbounded).
    CycleDetected {
        /// Schedule depth at which the repeat closed.
        depth: usize,
    },
    /// `max_states` (counted in expansions) or `max_depth` exceeded
    /// before the search completed.
    LimitExceeded(SimError),
}

impl std::fmt::Display for AdversaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdversaryError::CycleDetected { depth } => write!(
                f,
                "configuration repeats at depth {depth}: an infinite fair execution exists, \
                 so no terminal worst case is defined"
            ),
            AdversaryError::LimitExceeded(e) => write!(f, "adversary limits exceeded: {e}"),
        }
    }
}

impl std::error::Error for AdversaryError {}

/// The adversary's side of the [`Walker`]: the gain and `combine` of the
/// module docs, for every objective the walk serves, one slot per
/// [`Objective::ALL`] entry. The Bellman values and the witness descents
/// both ask it, so the two cannot drift apart.
struct Worst {
    /// Which slots the walk computes; the others keep gain 0 and so
    /// remaining value 0.
    wanted: [bool; 3],
}

impl<B: Behavior> Search<B> for Worst {
    type Value = [u64; 3];

    /// `gain(a, C)` of the module docs per slot, read off the step's
    /// undo record and the ring it left behind.
    fn gain(&self, ring: &Ring<B>, act: Activation, undo: &StepUndo<B>) -> [u64; 3] {
        let [moves, activations, memory] = self.wanted;
        [
            u64::from(moves && undo.moved_to(ring.ring_size()).is_some()),
            u64::from(activations),
            // The acting agent's post-step memory observation: the only
            // way the watermark can rise on this step. Fault moves have
            // no acting agent and observe nothing.
            if memory && !act.is_fault() {
                ring.behavior(act.agent).memory_bits() as u64
            } else {
                0
            },
        ]
    }

    fn fold(&self, best: &mut [u64; 3], gain: [u64; 3], rest: [u64; 3]) {
        for (slot, objective) in Objective::ALL.into_iter().enumerate() {
            best[slot] = best[slot].max(objective.combine(gain[slot], rest[slot]));
        }
    }
}

/// The configurable worst-case search engine. See the [module
/// docs](self).
#[derive(Debug, Clone)]
pub struct Adversary {
    limits: ExploreLimits,
    symmetry: SymmetryMode,
}

impl Default for Adversary {
    fn default() -> Self {
        Adversary::new()
    }
}

impl Adversary {
    /// Default engine: default [`ExploreLimits`] (the `max_states` budget
    /// caps distinct states, each expanded once, exactly as in the
    /// explorer) and [`SymmetryMode::Rotation`].
    pub fn new() -> Self {
        Adversary {
            limits: ExploreLimits::default(),
            symmetry: SymmetryMode::default(),
        }
    }

    /// Overrides the search limits.
    pub fn limits(mut self, limits: ExploreLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Selects the memoisation quotient (default:
    /// [`SymmetryMode::Rotation`]). [`SymmetryMode::Off`] memoises only
    /// exact (plain-fingerprint) re-encounters — the *unquotiented
    /// enumeration* baseline the `adversary_scale` bench compares
    /// against; both modes compute the same maximum (the objectives are
    /// rotation-invariant).
    pub fn symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Finds the exact worst case of `objective` over every fair schedule
    /// of `ring`, with a replayable witness: [`Adversary::run_all`] with
    /// one objective.
    ///
    /// # Errors
    ///
    /// See [`AdversaryError`].
    pub fn run<B>(&self, ring: &Ring<B>, objective: Objective) -> Result<WorstCase, AdversaryError>
    where
        B: Behavior + Clone + Hash,
        B::Message: Clone + Hash,
    {
        let mut worst = self.run_all(ring, &[objective])?;
        Ok(worst.pop().expect("one worst case per objective"))
    }

    /// Finds the exact worst case of every objective in `objectives` from
    /// **one** walk of `ring`'s configuration graph: one [`WorstCase`]
    /// per entry, in order, each with its own witness descent. Each
    /// equals what [`Adversary::run`] returns for that objective, search
    /// counters included, because the walk is the same whatever it
    /// serves. A repeated objective is solved once and its worst case
    /// repeated; an empty list still walks the graph (so it still
    /// reports cycles and limits) and returns no worst case.
    ///
    /// # Errors
    ///
    /// See [`AdversaryError`]; one error stands for every objective.
    pub fn run_all<B>(
        &self,
        ring: &Ring<B>,
        objectives: &[Objective],
    ) -> Result<Vec<WorstCase>, AdversaryError>
    where
        B: Behavior + Clone + Hash,
        B::Message: Clone + Hash,
    {
        let mut walker = Walker::new(ring, self.symmetry);
        let mut worst = Worst {
            wanted: Objective::ALL.map(|o| objectives.contains(&o)),
        };
        let root_rem = walker.walk(self.limits, &mut worst).map_err(|e| match e {
            ExploreErrorKind::CycleDetected { depth } => AdversaryError::CycleDetected { depth },
            ExploreErrorKind::LimitExceeded(e) => AdversaryError::LimitExceeded(e),
            ExploreErrorKind::PredicateViolated { .. } => {
                unreachable!("the adversary accepts every terminal")
            }
        })?;
        let root_peak = walker.ring.metrics().peak_memory_bits() as u64;
        let stats = walker.stats;
        let mut solved: Vec<WorstCase> = Vec::with_capacity(objectives.len());
        for &objective in objectives {
            if let Some(same) = solved.iter().find(|w| w.objective == objective) {
                solved.push(same.clone());
                continue;
            }
            let slot = objective.slot();
            let (witness, terminal_fingerprint) =
                descend(&mut walker, &worst, objective, root_rem[slot]);
            // The peak objective starts from the initial watermark; the
            // additive ones count from the start configuration.
            let root_acc = match objective {
                Objective::PeakMemoryBits => root_peak,
                _ => 0,
            };
            solved.push(WorstCase {
                objective,
                value: objective.combine(root_acc, root_rem[slot]),
                witness,
                terminal_fingerprint,
                distinct_states: stats.states,
                expansions: stats.states,
                dominance_prunes: stats.memo_hits,
                bound_prunes: 0,
                terminal_hits: stats.terminal_hits,
                max_depth_seen: stats.max_depth_seen,
            });
        }
        Ok(solved)
    }
}

/// Witness reconstruction for `objective`, whose root remaining value is
/// `root_rem`: descends from the root along the first
/// child attaining the Bellman maximum, reading the remaining values the
/// walk left in the map, and returns the picks and the fingerprint of the
/// terminal they end in. The path is an enabled-activation sequence by
/// construction, hence replayable. The ring is back at the root
/// afterwards, ready for the next objective's descent.
fn descend<B>(
    walker: &mut Walker<B, [u64; 3]>,
    worst: &Worst,
    objective: Objective,
    root_rem: u64,
) -> (Vec<Activation>, u64)
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let slot = objective.slot();
    let Walker {
        ring: cur,
        cache,
        visited,
        escapes,
        ..
    } = walker;
    let mut witness = Vec::new();
    let mut path = Vec::new();
    let mut need = root_rem;
    let terminal_fingerprint = loop {
        if cur.enabled_activations().is_empty() {
            break cache.fingerprint(cur);
        }
        let acts: Vec<Activation> = cur.enabled_activations().to_vec();
        let mut advanced = false;
        for act in acts {
            let undo = cur.apply(act);
            let patch = cache.patch(cur, &undo);
            let fp = cache.fingerprint(cur);
            let gain = worst.gain(cur, act, &undo)[slot];
            let word = visited
                .get(fp)
                .expect("a walked state's children are visited");
            let rem = <[u64; 3]>::unpack(word, escapes)[slot];
            if objective.combine(gain, rem) == need {
                witness.push(act);
                path.push((undo, patch));
                need = rem;
                advanced = true;
                break;
            }
            cache.revert(patch);
            cur.undo(undo);
        }
        assert!(
            advanced,
            "witness descent must follow the Bellman optimum (rem is exact)"
        );
    };
    while let Some((undo, patch)) = path.pop() {
        cache.revert(patch);
        cur.undo(undo);
    }
    (witness, terminal_fingerprint)
}

mod json_impls {
    use super::{Objective, WorstCase};
    use ringdeploy_json::{hex_u64, FromJson, Json, JsonError, ToJson};

    impl ToJson for Objective {
        fn to_json(&self) -> Json {
            Json::String(self.name().to_string())
        }
    }

    impl FromJson for Objective {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            json.as_str()
                .and_then(Objective::from_name)
                .ok_or_else(|| JsonError::Decode(format!("unknown objective {json}")))
        }
    }

    impl ToJson for WorstCase {
        /// The full report, witness included (the witness is the whole
        /// point: it makes the claimed worst case independently
        /// replayable).
        fn to_json(&self) -> Json {
            Json::object([
                ("objective", self.objective.to_json()),
                ("value", self.value.to_json()),
                ("witness", self.witness.to_json()),
                (
                    "terminal_fingerprint",
                    hex_u64(self.terminal_fingerprint).to_json(),
                ),
                ("distinct_states", self.distinct_states.to_json()),
                ("expansions", self.expansions.to_json()),
                ("dominance_prunes", self.dominance_prunes.to_json()),
                ("bound_prunes", self.bound_prunes.to_json()),
                ("terminal_hits", self.terminal_hits.to_json()),
                ("max_depth_seen", self.max_depth_seen.to_json()),
            ])
        }
    }

    impl FromJson for WorstCase {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            Ok(WorstCase {
                objective: json.field("objective")?,
                value: json.field("value")?,
                witness: json.field("witness")?,
                terminal_fingerprint: json.hex_field("terminal_fingerprint")?,
                distinct_states: json.field("distinct_states")?,
                expansions: json.field("expansions")?,
                dominance_prunes: json.field("dominance_prunes")?,
                // Absent in reports cached before the bound prune existed.
                bound_prunes: json.optional_field("bound_prunes")?.unwrap_or(0),
                terminal_hits: json.field("terminal_hits")?,
                max_depth_seen: json.field("max_depth_seen")?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Idle};
    use crate::agent::Observation;
    use crate::initial::InitialConfig;
    use crate::scheduler::Replay;
    use crate::RunLimits;

    /// Walks `hops` hops, drops token at start, halts.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Walker {
        hops: usize,
        released: bool,
    }

    impl Behavior for Walker {
        type Message = ();
        fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
            let release = !std::mem::replace(&mut self.released, true);
            if self.hops > 0 {
                self.hops -= 1;
                Action::moving().with_token_release(release)
            } else {
                Action::halting().with_token_release(release)
            }
        }
        fn memory_bits(&self) -> usize {
            8
        }
    }

    /// Stops early if it ever observes another staying agent at its node —
    /// so the schedule genuinely changes the move count.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Shy {
        hops: usize,
        released: bool,
    }

    impl Behavior for Shy {
        type Message = ();
        fn act(&mut self, obs: &Observation<'_, ()>) -> Action<()> {
            let release = !std::mem::replace(&mut self.released, true);
            if self.hops > 0 && obs.staying_agents == 0 {
                self.hops -= 1;
                Action::moving().with_token_release(release)
            } else {
                Action::halting().with_token_release(release)
            }
        }
        fn memory_bits(&self) -> usize {
            8
        }
    }

    #[test]
    fn schedule_independent_objective_is_exact() {
        // Two independent walkers: every schedule produces exactly 4 moves
        // and 6 activations.
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 2,
            released: false,
        });
        let moves = Adversary::new()
            .run(&ring, Objective::TotalMoves)
            .expect("search succeeds");
        assert_eq!(moves.value, 4);
        assert_eq!(moves.witness.len(), 6);
        let acts = Adversary::new()
            .run(&ring, Objective::TotalActivations)
            .expect("search succeeds");
        assert_eq!(acts.value, 6);
    }

    #[test]
    fn schedule_dependent_objective_finds_the_maximum() {
        // Two Shy agents heading for the same region: a schedule that
        // keeps them apart lets both walk their full 3 hops (6 moves); a
        // schedule that makes them meet stops one early. The adversary
        // must find 6 — and the witness must replay to exactly 6.
        let init = InitialConfig::new(4, vec![0, 1]).expect("valid");
        let make = |_| Shy {
            hops: 3,
            released: false,
        };
        let ring = Ring::new(&init, make);
        let worst = Adversary::new()
            .run(&ring, Objective::TotalMoves)
            .expect("search succeeds");
        assert_eq!(worst.value, 6, "adversary must keep the agents apart");

        let mut replay_ring = Ring::new(&init, make);
        let outcome = replay_ring
            .run(
                &mut Replay::new(worst.witness.clone()),
                RunLimits::default(),
            )
            .expect("witness replays");
        assert!(outcome.quiescent);
        assert_eq!(outcome.metrics.total_moves(), worst.value);
        assert_eq!(
            crate::canonical::canonical_fingerprint(&replay_ring),
            worst.terminal_fingerprint
        );
    }

    #[test]
    fn symmetry_modes_agree_on_the_value() {
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Shy {
            hops: 4,
            released: false,
        });
        for objective in Objective::ALL {
            let plain = Adversary::new()
                .symmetry(SymmetryMode::Off)
                .run(&ring, objective)
                .expect("off");
            let folded = Adversary::new()
                .symmetry(SymmetryMode::Rotation)
                .run(&ring, objective)
                .expect("rotation mode");
            assert_eq!(folded.value, plain.value, "{objective}");
            assert!(
                folded.expansions <= plain.expansions,
                "{objective}: the quotient can only shrink the search"
            );
        }
    }

    #[test]
    fn repeated_objectives_are_answered_in_request_order() {
        let init = InitialConfig::new(5, vec![0, 1, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Shy {
            hops: 4,
            released: false,
        });
        for symmetry in [SymmetryMode::Off, SymmetryMode::Rotation] {
            let adversary = Adversary::new().symmetry(symmetry);
            let memory = adversary
                .run(&ring, Objective::PeakMemoryBits)
                .expect("one search");
            let moves = adversary
                .run(&ring, Objective::TotalMoves)
                .expect("one search");
            let repeated = adversary
                .run_all(
                    &ring,
                    &[
                        Objective::PeakMemoryBits,
                        Objective::TotalMoves,
                        Objective::PeakMemoryBits,
                    ],
                )
                .expect("repeated objectives");
            assert_eq!(repeated, [memory.clone(), moves, memory], "{symmetry:?}");
        }
    }

    /// A walker whose memory grows past 2²¹ bits with every hop.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Hoarder {
        hops: usize,
        released: bool,
    }

    impl Behavior for Hoarder {
        type Message = ();
        fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
            let release = !std::mem::replace(&mut self.released, true);
            if self.hops < 3 {
                self.hops += 1;
                Action::moving().with_token_release(release)
            } else {
                Action::halting().with_token_release(release)
            }
        }
        fn memory_bits(&self) -> usize {
            (1 << 21) + self.hops
        }
    }

    #[test]
    fn a_walk_with_wide_remaining_values_escapes_and_stays_exact() {
        let init = InitialConfig::new(6, vec![0, 1]).expect("valid");
        let make = |_| Hoarder {
            hops: 0,
            released: false,
        };
        let ring = Ring::new(&init, make);
        // The initial watermark is 2^21: only the remaining values the
        // walk memoised (up to 2^21 + 3) can lift it to the answer.
        let worst = Adversary::new()
            .run_all(&ring, &Objective::ALL)
            .expect("search succeeds");
        let memory = &worst[2];
        assert_eq!(memory.value, (1 << 21) + 3);
        assert_eq!(worst[0].value, 6);
        let mut replay_ring = Ring::new(&init, make);
        let outcome = replay_ring
            .run(
                &mut Replay::new(memory.witness.clone()),
                RunLimits::default(),
            )
            .expect("witness replays");
        assert!(outcome.quiescent);
        assert_eq!(outcome.metrics.peak_memory_bits() as u64, memory.value);

        // The same walk, driven directly: wide values went to the table.
        let mut walker =
            crate::explore::Walker::<Hoarder, [u64; 3]>::new(&ring, SymmetryMode::Rotation);
        let root = walker
            .walk(ExploreLimits::default(), &mut Worst { wanted: [true; 3] })
            .expect("walk succeeds");
        assert_eq!(root[2], (1 << 21) + 3);
        assert!(!walker.escapes.is_empty(), "wide values must escape");
    }

    /// An agent that ping-pongs between Ready-stay states forever.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Spinner;

    impl Behavior for Spinner {
        type Message = ();
        fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
            Action::staying(Idle::Ready)
        }
        fn memory_bits(&self) -> usize {
            1
        }
    }

    #[test]
    fn livelock_is_reported_as_cycle() {
        let init = InitialConfig::new(3, vec![0]).expect("valid");
        let ring = Ring::new(&init, |_| Spinner);
        let err = Adversary::new()
            .run(&ring, Objective::TotalActivations)
            .unwrap_err();
        assert!(matches!(err, AdversaryError::CycleDetected { .. }), "{err}");
        // One cycle stands for every objective of a shared search.
        assert_eq!(Adversary::new().run_all(&ring, &Objective::ALL), Err(err));
    }

    #[test]
    fn expansion_limit_is_enforced() {
        let init = InitialConfig::new(8, vec![0, 2, 4, 6]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 7,
            released: false,
        });
        let err = Adversary::new()
            .limits(ExploreLimits::new(5, 10_000))
            .run(&ring, Objective::TotalMoves)
            .unwrap_err();
        assert!(matches!(err, AdversaryError::LimitExceeded(_)), "{err}");
        let err = Adversary::new()
            .limits(ExploreLimits::new(1_000_000, 3))
            .run(&ring, Objective::TotalMoves)
            .unwrap_err();
        assert!(matches!(err, AdversaryError::LimitExceeded(_)), "{err}");
    }

    #[test]
    fn quiescent_start_returns_the_empty_witness() {
        let init = InitialConfig::new(4, vec![0]).expect("valid");
        let mut ring = Ring::new(&init, |_| Walker {
            hops: 0,
            released: false,
        });
        // Drive to quiescence first; the search then starts at a terminal.
        let mut scheduler = crate::scheduler::RoundRobin::new();
        ring.run(&mut scheduler, RunLimits::default())
            .expect("runs out");
        let worst = Adversary::new()
            .run(&ring, Objective::TotalMoves)
            .expect("search succeeds");
        assert_eq!(worst.value, 0);
        assert!(worst.witness.is_empty());
        assert_eq!(worst.terminal_hits, 1);
        // A zero state budget cannot hold even a quiescent start: the
        // search stops at the root, as the explorer does.
        let err = Adversary::new()
            .limits(ExploreLimits::new(0, 10))
            .run(&ring, Objective::TotalMoves)
            .unwrap_err();
        assert_eq!(
            err,
            AdversaryError::LimitExceeded(SimError::StepLimitExceeded { limit: 0 })
        );
    }
}
