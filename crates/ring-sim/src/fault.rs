//! Fault injection: crash-stop agents and 1-interval connected
//! (dynamic) rings.
//!
//! A [`FaultPlan`] is a *deterministic* description of which faults an
//! execution is allowed to suffer. It is part of the instance identity
//! (analysis keys hash it alongside `n`, `k` and the workload), so two
//! runs with the same plan, behaviors and schedule are bit-identical —
//! faults are reproducible, replayable and cacheable like everything
//! else in the engine.
//!
//! Two fault classes are modelled, following the classic taxonomy:
//!
//! * **Crash-stop agents** ([`CrashFault`]): agent `a` permanently
//!   stops at its `after`-th activation. The crash consumes the
//!   activation — the agent performs no computation, any token it still
//!   holds drops at the node where it crashed (tokens are unremovable
//!   node state, paper §2.1, so they survive their owner), its pending
//!   messages become dead letters, and it never acts again. Crashes
//!   fire deterministically from the plan; they are *not* extra
//!   scheduler moves, so a recorded witness replays them for free.
//! * **Dynamic edges** ([`EdgeFault`]): at most one ring edge may be
//!   missing at a time — the *1-interval connectivity* constraint of
//!   dynamic-ring models (cf. arXiv:2507.14723). Taking an edge down
//!   and restoring it *are* scheduler moves: the adversary chooses
//!   which edge disappears when, and the worst-case search in
//!   [`adversary`](crate::adversary) can therefore synthesize
//!   worst-case outage schedules. A plan grants a finite outage budget
//!   ([`FaultPlan::with_edge_outages`]), so every faulted execution
//!   still terminates: each `Down` strictly consumes budget and
//!   `Restore` is always available while an edge is down.
//!
//! An empty plan ([`FaultPlan::none`], the default) is guaranteed to be
//! behaviorally *and* bit-identical to the fault-free engine: no extra
//! activations appear, fingerprints and schedule hashes are unchanged,
//! and analysis cache keys do not mention faults at all.

use crate::{AgentId, NodeId};

/// Crash-stop fault for one agent: the agent stops forever at its
/// `after`-th activation (0-based), counting both arrivals and wakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CrashFault {
    /// The agent that crashes.
    pub agent: AgentId,
    /// The 0-based activation index at which it crashes: `after = 0`
    /// crashes the agent on its very first activation (it never
    /// computes at all).
    pub after: u64,
}

/// One dynamic-edge move, as exposed to schedulers inside
/// [`Activation`](crate::scheduler::Activation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeFault {
    /// Take down the edge *entering* the given node: the head of that
    /// node's incoming link queue can no longer arrive until the edge
    /// is restored. Consumes one unit of the plan's outage budget.
    Down(NodeId),
    /// Restore the currently missing edge. Free (no budget), and
    /// enabled exactly while an edge is down — so an outage can never
    /// fake a terminal configuration.
    Restore,
}

/// A deterministic fault schedule skeleton: which agents crash when,
/// and how many dynamic-edge outages the adversary may inject.
///
/// The plan is *instance identity*: it joins the canonical
/// `InstanceKey` in the analysis layer, and two executions under
/// different plans are different cache entries. The empty plan encodes
/// (and costs) nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Crash faults, kept sorted by agent id; at most one per agent.
    crashes: Vec<CrashFault>,
    /// How many `Down` moves the adversary may play in one execution.
    edge_outages: u32,
}

impl FaultPlan {
    /// The empty plan: no crashes, no dynamic edges. Executions under
    /// it are bit-identical to the fault-free engine.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.edge_outages == 0
    }

    /// Adds (or replaces) a crash of `agent` at its `after`-th
    /// activation.
    #[must_use]
    pub fn with_crash(mut self, agent: AgentId, after: u64) -> FaultPlan {
        match self.crashes.binary_search_by_key(&agent, |c| c.agent) {
            Ok(i) => self.crashes[i].after = after,
            Err(i) => self.crashes.insert(i, CrashFault { agent, after }),
        }
        self
    }

    /// Grants the adversary `budget` dynamic-edge outages (each one
    /// removes one edge until restored; at most one edge is missing at
    /// a time).
    #[must_use]
    pub fn with_edge_outages(mut self, budget: u32) -> FaultPlan {
        self.edge_outages = budget;
        self
    }

    /// Derives a deterministic single-crash plan from a seed: agent
    /// `seed % k` crashes after `seed / k % 8` activations. A cheap way
    /// for sweeps to scatter distinct crash timings across seeds.
    pub fn seeded_crash(seed: u64, k: usize) -> FaultPlan {
        let k = k.max(1) as u64;
        FaultPlan::none().with_crash(AgentId((seed % k) as usize), (seed / k) % 8)
    }

    /// The crash faults, sorted by agent id.
    pub fn crashes(&self) -> &[CrashFault] {
        &self.crashes
    }

    /// The crash threshold of `agent`, if the plan crashes it.
    pub fn crash_after(&self, agent: AgentId) -> Option<u64> {
        self.crashes
            .binary_search_by_key(&agent, |c| c.agent)
            .ok()
            .map(|i| self.crashes[i].after)
    }

    /// The dynamic-edge outage budget.
    pub fn edge_outages(&self) -> u32 {
        self.edge_outages
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "fault-free");
        }
        let mut first = true;
        for c in &self.crashes {
            if !std::mem::take(&mut first) {
                write!(f, ",")?;
            }
            write!(f, "crash={}@{}", c.agent.index(), c.after)?;
        }
        if self.edge_outages > 0 {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "dynamic-edge:{}", self.edge_outages)?;
        }
        Ok(())
    }
}

mod json_impls {
    use super::{CrashFault, FaultPlan};
    use crate::AgentId;
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for CrashFault {
        /// Compact `[agent, after]` pair, like the activation wire
        /// format.
        fn to_json(&self) -> Json {
            Json::Array(vec![self.agent.index().to_json(), self.after.to_json()])
        }
    }

    impl FromJson for CrashFault {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            let items = json
                .as_array()
                .filter(|items| items.len() == 2)
                .ok_or_else(|| {
                    JsonError::Decode(format!("expected [agent, after] pair, found {json}"))
                })?;
            Ok(CrashFault {
                agent: AgentId(usize::from_json(&items[0])?),
                after: u64::from_json(&items[1])?,
            })
        }
    }

    impl ToJson for FaultPlan {
        fn to_json(&self) -> Json {
            Json::object([
                ("crashes", Json::array(self.crashes.iter())),
                ("edge_outages", self.edge_outages.to_json()),
            ])
        }
    }

    impl FromJson for FaultPlan {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            let crashes: Vec<CrashFault> = json.optional_field("crashes")?.unwrap_or_default();
            let mut plan = FaultPlan::none()
                .with_edge_outages(json.optional_field("edge_outages")?.unwrap_or(0));
            for c in crashes {
                plan = plan.with_crash(c.agent, c.after);
            }
            Ok(plan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none(), FaultPlan::default());
        assert_eq!(FaultPlan::none().to_string(), "fault-free");
    }

    #[test]
    fn with_crash_sorts_and_replaces() {
        let plan = FaultPlan::none()
            .with_crash(AgentId(2), 5)
            .with_crash(AgentId(0), 3)
            .with_crash(AgentId(2), 7);
        assert_eq!(
            plan.crashes(),
            &[
                CrashFault {
                    agent: AgentId(0),
                    after: 3
                },
                CrashFault {
                    agent: AgentId(2),
                    after: 7
                },
            ]
        );
        assert_eq!(plan.crash_after(AgentId(2)), Some(7));
        assert_eq!(plan.crash_after(AgentId(1)), None);
        assert_eq!(plan.to_string(), "crash=0@3,crash=2@7");
    }

    #[test]
    fn seeded_crash_is_deterministic() {
        let a = FaultPlan::seeded_crash(13, 4);
        let b = FaultPlan::seeded_crash(13, 4);
        assert_eq!(a, b);
        assert_eq!(a.crashes().len(), 1);
        assert_eq!(a.crash_after(AgentId(1)), Some(3));
    }

    #[test]
    fn display_mentions_edges() {
        let plan = FaultPlan::none().with_edge_outages(2);
        assert_eq!(plan.to_string(), "dynamic-edge:2");
        let both = plan.with_crash(AgentId(1), 0);
        assert_eq!(both.to_string(), "crash=1@0,dynamic-edge:2");
    }
}
