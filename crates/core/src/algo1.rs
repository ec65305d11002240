//! **Algorithm 1** (paper §3.1 + §3.1.1): uniform deployment with
//! termination detection for agents that know `k`.
//!
//! Two phases:
//!
//! 1. **Selection** — release the token at the home node, travel once
//!    around the ring (detected by counting `k` token nodes) recording the
//!    distance sequence `D`; the lexicographically minimal rotation of `D`
//!    identifies the *base node(s)*.
//! 2. **Deployment** — walk `disBase` hops to the base node, then
//!    `offset(rank)` further hops to the target node, and halt.
//!
//! Complexities (Theorem 3): `O(k log n)` agent memory, `O(n)` ideal time,
//! `O(kn)` total moves — asymptotically move-optimal by Theorem 1.
//!
//! The `n ≠ ck` generalisation follows §3.1.1: target intervals are
//! `⌈n/k⌉` for the first `r/b` intervals of each inter-base span and
//! `⌊n/k⌋` for the rest (see [`SpacingPlan`]).

use ringdeploy_seq::{min_rotation, symmetry_degree};
use ringdeploy_sim::{bits_for, Action, Behavior, Observation};

use crate::spacing::SpacingPlan;

/// What the agent is currently doing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum State {
    /// Waiting for the very first activation at the home node.
    Boot,
    /// Travelling once around the ring, recording distances.
    Selection {
        /// Hops since the last token node.
        dis: u64,
        /// Distances recorded so far (`D[0..j]`).
        d: Vec<u64>,
    },
    /// Walking the remaining hops to the target node.
    Deployment {
        /// Hops still to make.
        remaining: u64,
    },
    /// Halted at the target.
    Done,
}

/// The Algorithm 1 agent. Construct one per agent with
/// [`FullKnowledge::new`], passing the known agent count `k`.
///
/// After the run, [`FullKnowledge::learned`] exposes what the agent
/// computed (ring size, distance sequence, rank, base distance) for
/// inspection in tests and experiments.
#[derive(Debug, Clone)]
pub struct FullKnowledge {
    k: usize,
    state: State,
    learned: Option<Learned>,
    /// Cached `Σ bits_for(d[i])` over the recorded distances, maintained
    /// incrementally so [`Behavior::memory_bits`] — called by the engine
    /// on every activation — stays `O(1)` instead of rescanning `d`
    /// (`O(k)` per step, the dominant cost at large `k`). Derived from
    /// `state`/`learned`, so it is excluded from `Hash`/`PartialEq` to
    /// keep state fingerprints bit-identical to the uncached layout.
    d_bits: usize,
}

// Manual impls over the semantic fields only: `d_bits` is a function of
// `state` and must not perturb hashing or equality.
impl PartialEq for FullKnowledge {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.state == other.state && self.learned == other.learned
    }
}

impl Eq for FullKnowledge {}

impl std::hash::Hash for FullKnowledge {
    fn hash<H: std::hash::Hasher>(&self, hasher: &mut H) {
        self.k.hash(hasher);
        self.state.hash(hasher);
        self.learned.hash(hasher);
    }
}

/// The values an Algorithm 1 agent derives at the end of its selection
/// phase (exposed for tests and figure reproductions).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Learned {
    /// Ring size `n = Σ D`.
    pub n: u64,
    /// The recorded distance sequence, starting at the agent's home.
    pub d: Vec<u64>,
    /// `rank = min { x | shift(D, x) = D_min }`.
    pub rank: usize,
    /// Hops from home to the base node (`D[0] + … + D[rank-1]`).
    pub dis_base: u64,
    /// Number of base nodes `b` (= symmetry degree of the configuration).
    pub base_count: u64,
    /// Hops from the base node to the target (`offset(rank)`).
    pub target_offset: u64,
}

impl FullKnowledge {
    /// Creates an agent that knows the total number of agents `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "at least one agent");
        FullKnowledge {
            k,
            state: State::Boot,
            learned: None,
            d_bits: 0,
        }
    }

    /// The values computed during the selection phase, if it completed.
    pub fn learned(&self) -> Option<&Learned> {
        self.learned.as_ref()
    }

    /// Whether the agent has halted at its target.
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    fn finish_selection(&mut self, d: Vec<u64>) -> u64 {
        let n: u64 = d.iter().sum();
        let rank = min_rotation(&d);
        let dis_base: u64 = d[..rank].iter().sum();
        // The number of base nodes equals the number of rotations attaining
        // D_min — the symmetry degree l of the configuration.
        let b = symmetry_degree(&d) as u64;
        let plan = SpacingPlan::new(n, self.k as u64, b)
            .expect("base-node count divides n and k by construction");
        let target_offset = plan.offset(rank as u64);
        let remaining = dis_base + target_offset;
        self.learned = Some(Learned {
            n,
            d,
            rank,
            dis_base,
            base_count: b,
            target_offset,
        });
        remaining
    }
}

impl Behavior for FullKnowledge {
    type Message = ();

    fn act(&mut self, obs: &Observation<'_, ()>) -> Action<()> {
        match std::mem::replace(&mut self.state, State::Done) {
            State::Boot => {
                // First action at the home node: release the token and set
                // off on the selection circuit.
                debug_assert!(obs.arrived);
                self.state = State::Selection {
                    dis: 0,
                    d: Vec::with_capacity(self.k),
                };
                Action::moving().with_token_release(true)
            }
            State::Selection { mut dis, mut d } => {
                dis += 1;
                if obs.has_token() {
                    d.push(dis);
                    self.d_bits += bits_for(dis);
                    dis = 0;
                    if d.len() == self.k {
                        // Back at the home node: the circuit is complete.
                        let remaining = self.finish_selection(d);
                        if remaining == 0 {
                            self.state = State::Done;
                            return Action::halting();
                        }
                        self.state = State::Deployment { remaining };
                        return Action::moving();
                    }
                }
                self.state = State::Selection { dis, d };
                Action::moving()
            }
            State::Deployment { remaining } => {
                let remaining = remaining - 1;
                if remaining == 0 {
                    self.state = State::Done;
                    return Action::halting();
                }
                self.state = State::Deployment { remaining };
                Action::moving()
            }
            State::Done => {
                // A halted agent is never activated by the engine; if a
                // bug did so, keep halting.
                Action::halting()
            }
        }
    }

    fn memory_bits(&self) -> usize {
        // k is known a priori.
        let mut bits = bits_for(self.k as u64);
        match &self.state {
            State::Boot => {}
            State::Selection { dis, d } => {
                bits += bits_for(*dis);
                debug_assert_eq!(
                    self.d_bits,
                    d.iter().map(|&x| bits_for(x)).sum::<usize>(),
                    "d_bits cache out of sync with the recorded distances"
                );
                bits += self.d_bits;
                bits += bits_for(d.len() as u64); // the index j
            }
            State::Deployment { remaining } => {
                bits += bits_for(*remaining);
                if self.learned.is_some() {
                    // The distance sequence is retained through deployment
                    // (the paper's agent computed rank from it and may no
                    // longer need it, but memory complexity is measured at
                    // its peak anyway). `d_bits` already covers it: the
                    // vector moved into `learned.d` unchanged.
                    bits += self.d_bits;
                }
            }
            State::Done => {}
        }
        bits
    }

    fn phase_name(&self) -> &'static str {
        match self.state {
            State::Boot => "boot",
            State::Selection { .. } => "selection",
            State::Deployment { .. } => "deployment",
            State::Done => "done",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringdeploy_sim::scheduler::{OneAtATime, Random, RoundRobin};
    use ringdeploy_sim::{satisfies_halting_deployment, InitialConfig, Ring, RunLimits, Scheduler};

    fn run(n: usize, homes: Vec<usize>, sched: &mut dyn Scheduler) -> Ring<FullKnowledge> {
        let k = homes.len();
        let init = InitialConfig::new(n, homes).unwrap();
        let mut ring = Ring::new(&init, |_| FullKnowledge::new(k));
        let out = ring
            .run(sched, RunLimits::for_instance(n, k))
            .expect("run must reach quiescence");
        assert!(out.quiescent);
        ring
    }

    #[test]
    fn deploys_uniformly_simple() {
        let ring = run(12, vec![0, 1, 5], &mut RoundRobin::new());
        assert!(satisfies_halting_deployment(&ring).is_satisfied());
    }

    #[test]
    fn deploys_from_clustered_start() {
        let ring = run(16, vec![0, 1, 2, 3], &mut Random::seeded(7));
        assert!(satisfies_halting_deployment(&ring).is_satisfied());
    }

    #[test]
    fn deploys_when_n_not_multiple_of_k() {
        let ring = run(13, vec![2, 3, 9], &mut Random::seeded(21));
        assert!(satisfies_halting_deployment(&ring).is_satisfied());
    }

    #[test]
    fn deploys_on_periodic_ring() {
        // Fig. 1(b)-like: distances (1,2,3,1,2,3), l = 2 → two base nodes.
        let ring = run(12, vec![0, 1, 3, 6, 7, 9], &mut RoundRobin::new());
        assert!(satisfies_halting_deployment(&ring).is_satisfied());
        // All agents agree on b = 2.
        for i in 0..6 {
            let learned = ring.behavior(ringdeploy_sim::AgentId(i)).learned().unwrap();
            assert_eq!(learned.base_count, 2);
            assert_eq!(learned.n, 12);
            assert!(learned.rank < 3, "rank must be within one period");
        }
    }

    #[test]
    fn already_uniform_stays_uniform() {
        let ring = run(16, vec![1, 5, 9, 13], &mut OneAtATime::new());
        assert!(satisfies_halting_deployment(&ring).is_satisfied());
        // Fully symmetric: every agent is its own base (rank 0) and stays
        // put after its circuit.
        let m = ring.metrics();
        assert_eq!(m.total_moves(), 4 * 16);
    }

    #[test]
    fn single_agent_trivially_uniform() {
        let ring = run(9, vec![4], &mut RoundRobin::new());
        assert!(satisfies_halting_deployment(&ring).is_satisfied());
    }

    #[test]
    fn moves_within_paper_bound() {
        // Each agent moves at most 3n (one circuit + disBase + offset < 2n).
        for seed in 0..5 {
            let n = 30;
            let homes = vec![0, 2, 3, 11, 17, 29];
            let k = homes.len();
            let init = InitialConfig::new(n, homes).unwrap();
            let mut ring = Ring::new(&init, |_| FullKnowledge::new(k));
            let out = ring
                .run(&mut Random::seeded(seed), RunLimits::for_instance(n, k))
                .unwrap();
            assert!(out.quiescent);
            assert!(out.metrics.max_moves() <= 3 * n as u64);
            assert!(out.metrics.total_moves() <= 3 * (k * n) as u64);
        }
    }

    #[test]
    fn ideal_time_is_linear() {
        // Synchronous rounds ≤ 3n + O(1).
        let n = 40;
        let homes = vec![0, 1, 2, 3, 20];
        let k = homes.len();
        let init = InitialConfig::new(n, homes).unwrap();
        let mut ring = Ring::new(&init, |_| FullKnowledge::new(k));
        let out = ring.run_synchronous(RunLimits::for_instance(n, k)).unwrap();
        assert!(out.quiescent);
        assert!(out.rounds.unwrap() <= 3 * n as u64 + 2);
        assert!(satisfies_halting_deployment(&ring).is_satisfied());
    }

    #[test]
    fn learned_values_match_fig4_style_example() {
        // k = 6 on n = 12 with distances (1,2,3,1,2,3): agents 0 and 3 are
        // rank-0 (bases), 1 and 4 rank-2, 2 and 5 rank-1... depending on
        // labelling. Verify ranks are consistent with the minimal rotation.
        let ring = run(12, vec![0, 1, 3, 6, 7, 9], &mut RoundRobin::new());
        let mut ranks = Vec::new();
        for i in 0..6 {
            ranks.push(
                ring.behavior(ringdeploy_sim::AgentId(i))
                    .learned()
                    .unwrap()
                    .rank,
            );
        }
        // Agent i's distance sequence is shift(D, i) with D = (1,2,3,1,2,3)
        // read from agent 0; min rotation of shift(D, i) is at (0 - i) mod 3.
        assert_eq!(ranks, vec![0, 2, 1, 0, 2, 1]);
    }

    #[test]
    fn memory_grows_with_k_log_n() {
        // Peak memory of a k-agent run should be about k · log n bits plus
        // small change, and must exceed the entries' total width.
        let n = 64;
        let homes: Vec<usize> = (0..8).collect();
        let init = InitialConfig::new(n, homes).unwrap();
        let mut ring = Ring::new(&init, |_| FullKnowledge::new(8));
        let out = ring
            .run(&mut RoundRobin::new(), RunLimits::for_instance(n, 8))
            .unwrap();
        let peak = out.metrics.peak_memory_bits();
        assert!(peak >= 8, "peak {peak}");
        assert!(peak <= 8 * 2 * 7 + 64, "peak {peak} too large for k log n");
    }
}
