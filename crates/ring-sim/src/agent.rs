//! The [`Behavior`] trait implemented by agent algorithms, and the local
//! [`Observation`] an agent receives at each activation.

use crate::action::Action;

/// Everything an agent can observe during one atomic action.
///
/// Deliberately minimal — the model's agents are anonymous, nodes are
/// anonymous, and an agent sees only the node it occupies:
///
/// * the number of tokens at the node,
/// * how many *other* agents are staying at the node (agents in transit on
///   links are invisible),
/// * the messages delivered to it since its last action (all consumed now),
/// * whether this activation is an arrival (it just moved in via the link,
///   including the very first action at its home node) or a wake-up at the
///   node it was already staying at.
///
/// There is intentionally no node identifier, no agent identifier and no
/// global information here; algorithms must work with exactly what the
/// paper's model provides.
#[derive(Debug)]
pub struct Observation<'a, M> {
    /// Number of tokens at the current node (`t_i` of Table 2).
    pub tokens: u32,
    /// Number of **other** agents staying at the current node (`|p_i|`,
    /// excluding the observing agent itself).
    pub staying_agents: usize,
    /// Messages delivered to this agent and consumed by this action
    /// (`m_i` of Table 2 — drained in FIFO order).
    pub messages: &'a [M],
    /// `true` when the agent just arrived via the incoming link (this
    /// includes its very first action at its home node, since initial
    /// agents sit in the incoming buffer); `false` when it was woken while
    /// staying at the node.
    pub arrived: bool,
}

impl<'a, M> Observation<'a, M> {
    /// Whether at least one token is present at the node.
    pub fn has_token(&self) -> bool {
        self.tokens > 0
    }

    /// Whether at least one other agent is staying at the node.
    pub fn has_staying_agent(&self) -> bool {
        self.staying_agents > 0
    }
}

/// An agent algorithm: a deterministic state machine advanced one atomic
/// action at a time.
///
/// All agents in a run execute the *same* algorithm (they are anonymous),
/// though each has its own state instance. The engine calls [`Behavior::act`]
/// once per activation; the returned [`Action`] is applied atomically.
///
/// Implementations must be deterministic functions of their own state and
/// the observation — that is what makes runs reproducible under seeded
/// schedulers.
pub trait Behavior {
    /// Message type exchanged between co-located agents. The paper allows
    /// messages of arbitrary size; any `Clone + Debug` type is accepted.
    type Message: Clone + std::fmt::Debug;

    /// Executes one atomic action and returns its outcome.
    fn act(&mut self, obs: &Observation<'_, Self::Message>) -> Action<Self::Message>;

    /// The current memory footprint of the agent state, in bits, under the
    /// paper's accounting (a distance entry or counter bounded by `x` costs
    /// `⌈log₂(x+1)⌉` bits; flags cost 1 bit).
    ///
    /// Used to reproduce the memory rows of Table 1. Implementations should
    /// count the *live* state, so the engine can track the peak.
    fn memory_bits(&self) -> usize;

    /// A short human-readable label of the agent's current phase, used in
    /// traces and renders (e.g. `"selection"`, `"patrolling"`).
    fn phase_name(&self) -> &'static str {
        "-"
    }
}

/// Helper: the number of bits needed to store a value in `0..=max`
/// (`⌈log₂(max+1)⌉`, and at least 1).
///
/// # Examples
///
/// ```
/// use ringdeploy_sim::bits_for;
/// assert_eq!(bits_for(0), 1);
/// assert_eq!(bits_for(1), 1);
/// assert_eq!(bits_for(255), 8);
/// assert_eq!(bits_for(256), 9);
/// ```
pub fn bits_for(max: u64) -> usize {
    (64 - max.leading_zeros() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_helpers() {
        let obs: Observation<'_, ()> = Observation {
            tokens: 2,
            staying_agents: 0,
            messages: &[],
            arrived: true,
        };
        assert!(obs.has_token());
        assert!(!obs.has_staying_agent());
    }

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(u64::MAX), 64);
    }
}
