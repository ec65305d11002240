//! Worst-case schedule synthesis — a branch-and-bound adversary over the
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
//! A depth-first branch-and-bound over the configuration graph, built on
//! the same machinery as the explorer's serial engine:
//!
//! * children are generated in place with the reversible
//!   [`Ring::apply`]/[`Ring::undo`] pair (no per-child clone), the
//!   enabled slices of all live states share one activation arena, and
//!   canonical fingerprints are maintained incrementally (the explorer's
//!   `FingerprintCache`: ≤ 2 node symbols re-derived per step);
//! * the visited map memoises, per fingerprint, the exact
//!   **maximum-remaining value** `rem(C)`: the most the objective can
//!   still gain over any fair schedule from `C` to quiescence,
//!   computed bottom-up when the DFS pops the state. A child whose
//!   fingerprint is already solved folds its entire subtree in `O(1)` —
//!   its contribution is `combine(gain, rem)` — so **every distinct
//!   state is expanded exactly once**, and the search degenerates to a
//!   linear-in-states dynamic program over the configuration DAG;
//! * for [`Objective::TotalMoves`] on fault-free plans, an **admissible
//!   upper bound** ([`Ring::max_remaining_moves`], the sum of the
//!   per-agent [`Behavior::max_remaining_moves`] hints) cuts children
//!   whose `gain + bound` cannot beat a value a solved sibling already
//!   attained — such subtrees are skipped before they are ever
//!   fingerprint-counted (reported as
//!   [`WorstCase::bound_prunes`]). The cut never drops the maximum:
//!   the bound over-approximates the child's true remaining value, and
//!   the attaining sibling is already memoised, so both the Bellman
//!   value and the witness descent survive intact.
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

use std::collections::HashMap;
use std::hash::Hash;

use crate::agent::Behavior;
use crate::engine::{Ring, StepUndo};
use crate::error::SimError;
use crate::explore::{ExploreLimits, FingerprintCache, FpBuildHasher, SymbolPatch, SymmetryMode};
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
    /// All objectives, in Table-1 order (memory, —, moves ordered as
    /// moves, activations, memory here for search-cost reasons).
    pub const ALL: [Objective; 3] = [
        Objective::TotalMoves,
        Objective::TotalActivations,
        Objective::PeakMemoryBits,
    ];

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
    /// `max`). Both shapes are monotone in the accumulated value, which
    /// is what makes dominance pruning sound — see the [module
    /// docs](self).
    pub fn is_additive(self) -> bool {
        !matches!(self, Objective::PeakMemoryBits)
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
    /// count, equal to what the explorer reports for the same mode.
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
    /// Children cut by the admissible upper bound
    /// ([`Ring::max_remaining_moves`]): `gain + bound ≤` a value a
    /// solved sibling already attained, so the subtree was skipped
    /// without ever being fingerprint-counted. Only the
    /// [`Objective::TotalMoves`] objective on fault-free plans prunes
    /// this way; everywhere else this stays `0`.
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

/// Visited-map entry: a state still being solved on the current DFS
/// path (a re-encounter is a cycle) or a finished state carrying its
/// exact maximum-remaining objective value.
enum Entry {
    /// On the current DFS path; its remaining value is in flight.
    OnPath,
    /// Solved: the exact maximum the objective can still gain from this
    /// state to quiescence.
    Done(u64),
}

/// `combine(gain, rest)` of the module docs: how one step's gain merges
/// with the remaining value of the state it leads to.
fn combine(objective: Objective, gain: u64, rest: u64) -> u64 {
    if objective.is_additive() {
        gain + rest
    } else {
        gain.max(rest)
    }
}

/// `gain(a, C)` of the module docs: the objective contribution of `act`,
/// read off its undo record and the ring the step left behind. The DFS's
/// Bellman values and the witness descent both call it, so the two cannot
/// drift apart.
fn gain<B: Behavior>(
    objective: Objective,
    ring: &Ring<B>,
    act: Activation,
    undo: &StepUndo<B>,
) -> u64 {
    match objective {
        Objective::TotalMoves => u64::from(undo.moved_to(ring.ring_size()).is_some()),
        Objective::TotalActivations => 1,
        // The acting agent's post-step memory observation: the only way
        // the watermark can rise on this step. Fault moves have no acting
        // agent and observe nothing.
        Objective::PeakMemoryBits => {
            if act.is_fault() {
                0
            } else {
                ring.behavior(act.agent).memory_bits() as u64
            }
        }
    }
}

/// The configurable worst-case search engine. See the [module
/// docs](self).
#[derive(Debug, Clone)]
pub struct Adversary {
    limits: ExploreLimits,
    symmetry: SymmetryMode,
    bound_prune: bool,
}

impl Default for Adversary {
    fn default() -> Self {
        Adversary::new()
    }
}

impl Adversary {
    /// Default engine: default [`ExploreLimits`] (the `max_states` budget
    /// caps *expansions*, re-expansions included) and
    /// [`SymmetryMode::Rotation`].
    pub fn new() -> Self {
        Adversary {
            limits: ExploreLimits::default(),
            symmetry: SymmetryMode::default(),
            bound_prune: true,
        }
    }

    /// Overrides the search limits.
    pub fn limits(mut self, limits: ExploreLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Selects the memoisation quotient (default:
    /// [`SymmetryMode::Rotation`]). [`SymmetryMode::Off`] memoises only
    /// exact (plain-fingerprint) re-encounters — the *unpruned
    /// enumeration* baseline the `adversary_scale` bench compares
    /// against; both modes compute the same maximum (the objectives are
    /// rotation-invariant).
    pub fn symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Enables or disables the admissible move-bound prune (default:
    /// enabled). The prune only ever arms itself for
    /// [`Objective::TotalMoves`] on fault-free plans, and only cuts when
    /// the behaviors provide [`Behavior::max_remaining_moves`] hints;
    /// disabling it forces the search to enumerate the full reachable
    /// space, which the coverage tests and the `adversary_scale` bench
    /// baselines rely on.
    pub fn bound_prune(mut self, enabled: bool) -> Self {
        self.bound_prune = enabled;
        self
    }

    /// Finds the exact worst case of `objective` over every fair schedule
    /// of `ring`, with a replayable witness.
    ///
    /// # Errors
    ///
    /// See [`AdversaryError`].
    pub fn run<B>(&self, ring: &Ring<B>, objective: Objective) -> Result<WorstCase, AdversaryError>
    where
        B: Behavior + Clone + Hash,
        B::Message: Clone + Hash,
    {
        let limits = self.limits;
        let mut cur = ring.clone_for_exploration();
        let mut cache = FingerprintCache::new(self.symmetry, &cur);
        let root_fp = cache.fingerprint(&cur);
        let root_acc = match objective {
            Objective::PeakMemoryBits => cur.metrics().peak_memory_bits() as u64,
            _ => 0,
        };
        // The move-bound prune is admissible only when the per-agent
        // hints are: [`Behavior::max_remaining_moves`] promises a bound
        // under *fault-free* schedules (a crash elsewhere can strand an
        // algorithm's termination condition and make it walk longer), so
        // the prune arms only for the moves objective on fault-free
        // plans. Other objectives have no per-agent bound at all.
        let bound_prune =
            self.bound_prune && objective == Objective::TotalMoves && cur.fault_plan().is_empty();

        let mut visited: HashMap<u64, Entry, FpBuildHasher> = HashMap::default();
        visited.insert(root_fp, Entry::OnPath);
        let mut worst = WorstCase {
            objective,
            value: 0,
            witness: Vec::new(),
            terminal_fingerprint: root_fp,
            distinct_states: 1,
            expansions: 1,
            dominance_prunes: 0,
            bound_prunes: 0,
            terminal_hits: 0,
            max_depth_seen: 0,
        };
        if cur.enabled_activations().is_empty() {
            // Quiescent start: the empty schedule is the only (and worst)
            // schedule.
            worst.value = root_acc;
            worst.terminal_hits = 1;
            return Ok(worst);
        }

        /// One live state on the DFS path — the explorer's frame plus
        /// the entering step's gain and the running Bellman maximum over
        /// the children solved so far.
        struct Frame<B: Behavior> {
            fp: u64,
            /// Objective contribution of the activation that entered
            /// this state (unused on the root frame).
            gain: u64,
            /// `max_a combine(gain(a), rem(child_a))` over the children
            /// expanded so far — `rem` of this state once all are done.
            best_rem: u64,
            acts_start: usize,
            next: usize,
            undo: Option<(StepUndo<B>, SymbolPatch)>,
        }

        let mut arena: Vec<Activation> = Vec::new();
        arena.extend_from_slice(cur.enabled_activations());
        let mut stack: Vec<Frame<B>> = vec![Frame {
            fp: root_fp,
            gain: 0,
            best_rem: 0,
            acts_start: 0,
            next: 0,
            undo: None,
        }];
        let mut root_rem = 0u64;

        while let Some(top) = stack.last_mut() {
            if top.acts_start + top.next >= arena.len() {
                // All children solved: this state's remaining value is
                // final. Record it and fold it into the parent.
                let frame = stack.pop().expect("stack is non-empty");
                *visited.get_mut(&frame.fp).expect("path state is visited") =
                    Entry::Done(frame.best_rem);
                arena.truncate(frame.acts_start);
                if let Some((undo, patch)) = frame.undo {
                    cache.revert(patch);
                    cur.undo(undo);
                    let parent = stack.last_mut().expect("non-root frames have parents");
                    parent.best_rem =
                        parent
                            .best_rem
                            .max(combine(objective, frame.gain, frame.best_rem));
                } else {
                    root_rem = frame.best_rem;
                }
                continue;
            }
            let act = arena[top.acts_start + top.next];
            top.next += 1;
            let depth = stack.len();
            worst.max_depth_seen = worst.max_depth_seen.max(depth);
            if depth > limits.max_depth {
                return Err(AdversaryError::LimitExceeded(SimError::StepLimitExceeded {
                    limit: limits.max_depth as u64,
                }));
            }
            let undo = cur.apply(act);
            let patch = cache.patch(&cur, &undo);
            let fp = cache.fingerprint(&cur);
            let gain = gain(objective, &cur, act, &undo);
            let terminal = cur.enabled_activations().is_empty();
            let solved = match visited.entry(fp) {
                std::collections::hash_map::Entry::Occupied(seen) => match *seen.get() {
                    // Re-encountering a path state closes a concrete
                    // cycle (Rotation mode: a quotient cycle, which
                    // lifts to a concrete one — see crate::canonical).
                    Entry::OnPath => return Err(AdversaryError::CycleDetected { depth }),
                    // Memo hit: the subtree is already solved; fold its
                    // exact remaining value in O(1).
                    Entry::Done(rem) => {
                        worst.dominance_prunes += 1;
                        if terminal {
                            worst.terminal_hits += 1;
                        }
                        Some(rem)
                    }
                },
                std::collections::hash_map::Entry::Vacant(slot) => {
                    if terminal {
                        // Terminals are solved on sight: nothing remains.
                        worst.distinct_states += 1;
                        worst.expansions += 1;
                        worst.terminal_hits += 1;
                        slot.insert(Entry::Done(0));
                        Some(0)
                    } else if bound_prune
                        && cur.max_remaining_moves().is_some_and(|ub| {
                            let parent = stack.last().expect("child has a parent frame");
                            // `best_rem > 0` certifies the bound was
                            // *attained* by an already-memoised sibling
                            // (it starts at 0 and only solved children
                            // raise it); the witness descent relies on
                            // that attainer existing when it skips this
                            // never-memoised child.
                            parent.best_rem > 0 && combine(objective, gain, ub) <= parent.best_rem
                        })
                    {
                        // Admissible prune: even if every remaining move
                        // the child's agents can make counts, the subtree
                        // cannot beat a value a solved sibling already
                        // achieves. The child is *not* entered into the
                        // visited map — another path may still reach and
                        // solve it exactly.
                        worst.bound_prunes += 1;
                        cache.revert(patch);
                        cur.undo(undo);
                        continue;
                    } else {
                        worst.distinct_states += 1;
                        worst.expansions += 1;
                        slot.insert(Entry::OnPath);
                        None
                    }
                }
            };
            if worst.expansions > limits.max_states {
                return Err(AdversaryError::LimitExceeded(SimError::StepLimitExceeded {
                    limit: limits.max_states as u64,
                }));
            }
            if let Some(rem) = solved {
                cache.revert(patch);
                cur.undo(undo);
                let parent = stack.last_mut().expect("child has a parent frame");
                parent.best_rem = parent.best_rem.max(combine(objective, gain, rem));
                continue;
            }
            let acts_start = arena.len();
            arena.extend_from_slice(cur.enabled_activations());
            stack.push(Frame {
                fp,
                gain,
                best_rem: 0,
                acts_start,
                next: 0,
                undo: Some((undo, patch)),
            });
        }
        worst.value = combine(objective, root_acc, root_rem);

        // Witness reconstruction: `cur` is back at the root (the final
        // pop undid every step), and every reachable state's remaining
        // value is memoised. Descend greedily along children attaining
        // the Bellman maximum; the path is an enabled-activation
        // sequence by construction, hence replayable.
        let mut need = root_rem;
        loop {
            if cur.enabled_activations().is_empty() {
                worst.terminal_fingerprint = cache.fingerprint(&cur);
                break;
            }
            let acts: Vec<Activation> = cur.enabled_activations().to_vec();
            let mut advanced = false;
            for act in acts {
                let undo = cur.apply(act);
                let patch = cache.patch(&cur, &undo);
                let fp = cache.fingerprint(&cur);
                let gain = gain(objective, &cur, act, &undo);
                // A child absent from the map was bound-pruned (never
                // expanded): the prune certified a solved sibling
                // attains at least its best possible contribution, so
                // skipping it cannot lose the Bellman optimum.
                if let Some(Entry::Done(rem)) = visited.get(&fp) {
                    if combine(objective, gain, *rem) == need {
                        worst.witness.push(act);
                        need = *rem;
                        advanced = true;
                        break;
                    }
                }
                cache.revert(patch);
                cur.undo(undo);
            }
            assert!(
                advanced,
                "witness descent must follow the Bellman optimum (rem is exact)"
            );
        }
        Ok(worst)
    }
}

#[cfg(feature = "serde")]
mod json_impls {
    use super::{Objective, WorstCase};
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

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
                    // Fingerprints use all 64 bits; JSON numbers only
                    // round-trip 53. Hex-string encoding keeps them exact.
                    format!("{:016x}", self.terminal_fingerprint).to_json(),
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
            let fp_hex: String = json.field("terminal_fingerprint")?;
            let terminal_fingerprint = u64::from_str_radix(&fp_hex, 16).map_err(|_| {
                JsonError::Decode(format!("bad terminal_fingerprint hex `{fp_hex}`"))
            })?;
            Ok(WorstCase {
                objective: json.field("objective")?,
                value: json.field("value")?,
                witness: json.field("witness")?,
                terminal_fingerprint,
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
    /// so the schedule genuinely changes the move count. When `hinted`,
    /// it also reports its remaining hop budget as a move bound, arming
    /// the adversary's admissible prune.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Shy {
        hops: usize,
        released: bool,
        hinted: bool,
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
        fn max_remaining_moves(
            &self,
            _n: usize,
            _discipline: crate::LinkDiscipline,
        ) -> Option<u64> {
            // The hop budget bounds moves under any discipline.
            self.hinted.then_some(self.hops as u64)
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
            hinted: true,
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
            hinted: false,
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
    fn bound_prune_preserves_value_and_witness() {
        // Same instance solved with and without the per-agent move hint:
        // identical worst value, a replayable witness, and the hinted run
        // must actually cut subtrees.
        let init = InitialConfig::new(5, vec![0, 1, 3]).expect("valid");
        let make_hinted = |_| Shy {
            hops: 4,
            released: false,
            hinted: true,
        };
        let hinted_ring = Ring::new(&init, make_hinted);
        let plain_ring = Ring::new(&init, |_| Shy {
            hops: 4,
            released: false,
            hinted: false,
        });
        for symmetry in [SymmetryMode::Off, SymmetryMode::Rotation] {
            let pruned = Adversary::new()
                .symmetry(symmetry)
                .run(&hinted_ring, Objective::TotalMoves)
                .expect("hinted search");
            let exact = Adversary::new()
                .symmetry(symmetry)
                .run(&plain_ring, Objective::TotalMoves)
                .expect("hintless search");
            assert_eq!(exact.bound_prunes, 0, "no hint, no prune");
            assert_eq!(
                pruned.value, exact.value,
                "{symmetry:?}: prune must be lossless"
            );
            assert!(
                pruned.bound_prunes > 0,
                "{symmetry:?}: the hint must actually cut subtrees"
            );
            assert!(
                pruned.expansions <= exact.expansions,
                "{symmetry:?}: pruning can only shrink the expansion count"
            );

            let mut replay_ring = Ring::new(&init, make_hinted);
            let outcome = replay_ring
                .run(
                    &mut Replay::new(pruned.witness.clone()),
                    RunLimits::default(),
                )
                .expect("witness replays");
            assert!(outcome.quiescent);
            assert_eq!(outcome.metrics.total_moves(), pruned.value);
        }
    }

    #[test]
    fn bound_prune_is_disabled_for_other_objectives() {
        let init = InitialConfig::new(5, vec![0, 1, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Shy {
            hops: 4,
            released: false,
            hinted: true,
        });
        for objective in [Objective::TotalActivations, Objective::PeakMemoryBits] {
            let worst = Adversary::new()
                .run(&ring, objective)
                .expect("search succeeds");
            assert_eq!(
                worst.bound_prunes, 0,
                "{objective}: the hint only bounds moves"
            );
        }
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
    }
}
