//! Schedulers: fair adversaries choosing which enabled agent acts next.
//!
//! The paper's executions are driven by an arbitrary *fair schedule* — an
//! infinite sequence of agents in which every agent appears infinitely
//! often. A [`Scheduler`] realises the adversary: at each step the engine
//! presents the set of *enabled* activations (link-queue heads that may
//! arrive, plus staying agents that may wake) and the scheduler picks one.
//!
//! All schedulers provided here are fair in the required sense:
//!
//! * [`RoundRobin`] cycles deterministically through agent ids;
//! * [`Random`] picks uniformly (fair with probability 1);
//! * [`OneAtATime`] drives a single agent as far as it can go before
//!   touching the next — the maximal-asynchrony-skew adversary;
//! * [`DelayAgent`] starves one chosen agent for as long as any other agent
//!   is enabled — fair because it must schedule the victim once it is the
//!   only enabled agent.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fault::EdgeFault;
use crate::{AgentId, NodeId};

/// One schedulable activation, as presented to a [`Scheduler`].
///
/// Under a non-empty [`FaultPlan`](crate::FaultPlan) with a
/// dynamic-edge budget, the enabled set also contains *fault moves*
/// ([`Activation::fault_down`] / [`Activation::fault_restore`]): no
/// agent acts, the adversary instead toggles an edge. Fault moves carry
/// the sentinel agent id [`Activation::FAULT_AGENT`] so the built-in
/// fair schedulers (which rank by agent id) deprioritize them; they are
/// primarily for the adversarial searcher and replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activation {
    /// The agent that would act; [`Activation::FAULT_AGENT`] for fault
    /// moves.
    pub agent: AgentId,
    /// `true` if this activation is an arrival from a link queue head,
    /// `false` if it is a wake-up of a staying agent (or a fault move).
    pub arrival: bool,
    /// The dynamic-edge fault this move injects, if it is a fault move.
    pub fault: Option<EdgeFault>,
}

impl Activation {
    /// Sentinel agent id carried by fault moves (no agent acts).
    pub const FAULT_AGENT: AgentId = AgentId(usize::MAX);

    /// An arrival of `agent` from its link-queue head.
    pub fn arrival(agent: AgentId) -> Activation {
        Activation {
            agent,
            arrival: true,
            fault: None,
        }
    }

    /// A wake-up of the staying `agent`.
    pub fn wake(agent: AgentId) -> Activation {
        Activation {
            agent,
            arrival: false,
            fault: None,
        }
    }

    /// The adversary move taking down the edge entering `node`.
    pub fn fault_down(node: NodeId) -> Activation {
        Activation {
            agent: Activation::FAULT_AGENT,
            arrival: false,
            fault: Some(EdgeFault::Down(node)),
        }
    }

    /// The adversary move restoring the currently missing edge.
    pub fn fault_restore() -> Activation {
        Activation {
            agent: Activation::FAULT_AGENT,
            arrival: false,
            fault: Some(EdgeFault::Restore),
        }
    }

    /// `true` iff this is a fault move (no agent acts).
    pub fn is_fault(&self) -> bool {
        self.fault.is_some()
    }
}

/// Returned by [`Scheduler::try_select`] when a finite schedule (e.g. a
/// [`Replay`] log) has no further choices. The engine converts it into
/// [`SimError::ScheduleExhausted`](crate::SimError::ScheduleExhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleExhausted {
    /// Choices the scheduler had served before running out.
    pub consumed: usize,
}

impl std::fmt::Display for ScheduleExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule exhausted after {} choices", self.consumed)
    }
}

impl std::error::Error for ScheduleExhausted {}

/// A strategy choosing the next activation among the enabled ones.
///
/// Implementations must return an index `< enabled.len()`; the engine
/// validates and reports a
/// [`SimError::SchedulerOutOfRange`](crate::SimError::SchedulerOutOfRange)
/// otherwise. `enabled` is never empty when `select` is called.
pub trait Scheduler {
    /// Picks the next activation; returns an index into `enabled`.
    fn select(&mut self, enabled: &[Activation]) -> usize;

    /// Like [`select`](Scheduler::select), but allows a *finite* schedule
    /// to report that it has run out of choices instead of panicking —
    /// the engine run loop calls this and surfaces
    /// [`SimError::ScheduleExhausted`](crate::SimError::ScheduleExhausted)
    /// as a typed error. Infinite schedulers (the default) never fail.
    fn try_select(&mut self, enabled: &[Activation]) -> Result<usize, ScheduleExhausted> {
        Ok(self.select(enabled))
    }

    /// A short label for reports.
    fn name(&self) -> &'static str {
        "scheduler"
    }
}

impl Scheduler for Box<dyn Scheduler> {
    fn select(&mut self, enabled: &[Activation]) -> usize {
        (**self).select(enabled)
    }

    // Forwarded explicitly: the default implementation would call the
    // *box's* `select` and lose the inner scheduler's override.
    fn try_select(&mut self, enabled: &[Activation]) -> Result<usize, ScheduleExhausted> {
        (**self).try_select(enabled)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Deterministic fair scheduler: cycles through agent ids, at each step
/// activating the first enabled agent at or after the cursor.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at agent 0.
    pub fn new() -> Self {
        RoundRobin { cursor: 0 }
    }
}

impl Scheduler for RoundRobin {
    fn select(&mut self, enabled: &[Activation]) -> usize {
        // Pick the enabled activation whose agent id is the first at or
        // after the cursor (cyclically by agent id).
        // Key = wrapped distance from the cursor: ids ≥ cursor come first in
        // ascending order, then ids < cursor — i.e. cyclic order by agent id.
        // An agent has at most one enabled activation, so a distance of 0
        // is the unique minimum — stop scanning the moment it appears
        // (the common case mid-run, when the cursor agent is enabled).
        assert!(!enabled.is_empty(), "enabled set is non-empty");
        let mut chosen = 0usize;
        let mut best = usize::MAX;
        for (i, a) in enabled.iter().enumerate() {
            let d = a.agent.index().wrapping_sub(self.cursor);
            if d < best {
                chosen = i;
                best = d;
                if d == 0 {
                    break;
                }
            }
        }
        // Fault moves carry the sentinel id and are picked only when
        // nothing else is enabled; they do not advance the cursor.
        if !enabled[chosen].is_fault() {
            self.cursor = enabled[chosen].agent.index() + 1;
        }
        chosen
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Uniformly random fair scheduler, reproducible from a seed.
#[derive(Debug, Clone)]
pub struct Random {
    rng: SmallRng,
}

impl Random {
    /// Creates a random scheduler from a seed.
    pub fn seeded(seed: u64) -> Self {
        Random {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for Random {
    fn select(&mut self, enabled: &[Activation]) -> usize {
        self.rng.gen_range(0..enabled.len())
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Maximal-skew adversary: keeps scheduling the lowest-id enabled agent, so
/// one agent runs as far as it can (typically until it blocks behind
/// another agent's unstarted home buffer) before the next agent moves at
/// all.
///
/// This scheduler produces executions where some agents finish entire
/// phases before others take their first step — a stress test for the
/// asynchrony-tolerance arguments in the paper's proofs.
#[derive(Debug, Clone, Default)]
pub struct OneAtATime;

impl OneAtATime {
    /// Creates the adversary.
    pub fn new() -> Self {
        OneAtATime
    }
}

impl Scheduler for OneAtATime {
    fn select(&mut self, enabled: &[Activation]) -> usize {
        enabled
            .iter()
            .enumerate()
            .min_by_key(|(_, a)| a.agent.index())
            .map(|(i, _)| i)
            .expect("enabled set is non-empty")
    }

    fn name(&self) -> &'static str {
        "one-at-a-time"
    }
}

/// Starvation adversary: delays one chosen agent for as long as *any* other
/// agent is enabled. Among the others it behaves like [`RoundRobin`].
///
/// Fair: once the victim is the only enabled agent, it is scheduled.
#[derive(Debug, Clone)]
pub struct DelayAgent {
    victim: AgentId,
    inner: RoundRobin,
}

impl DelayAgent {
    /// Creates the adversary delaying `victim`.
    pub fn new(victim: AgentId) -> Self {
        DelayAgent {
            victim,
            inner: RoundRobin::new(),
        }
    }
}

impl Scheduler for DelayAgent {
    fn select(&mut self, enabled: &[Activation]) -> usize {
        let others: Vec<(usize, Activation)> = enabled
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, a)| a.agent != self.victim)
            .collect();
        if others.is_empty() {
            return 0;
        }
        let sub: Vec<Activation> = others.iter().map(|(_, a)| *a).collect();
        let pick = self.inner.select(&sub);
        others[pick].0
    }

    fn name(&self) -> &'static str {
        "delay-one"
    }
}

/// Wraps another scheduler and records every chosen activation, enabling
/// exact replay of an asynchronous execution with [`Replay`].
///
/// # Examples
///
/// ```
/// use ringdeploy_sim::scheduler::{Random, Recording, Replay, Scheduler};
/// # use ringdeploy_sim::scheduler::Activation;
/// # use ringdeploy_sim::AgentId;
/// let mut rec = Recording::new(Random::seeded(1));
/// let enabled = [Activation::arrival(AgentId(0))];
/// rec.select(&enabled);
/// let mut replay = Replay::new(rec.into_log());
/// assert_eq!(replay.select(&enabled), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Recording<S> {
    inner: S,
    log: Vec<Activation>,
}

impl<S: Scheduler> Recording<S> {
    /// Wraps `inner`, recording its choices.
    pub fn new(inner: S) -> Self {
        Recording {
            inner,
            log: Vec::new(),
        }
    }

    /// The choices recorded so far.
    pub fn log(&self) -> &[Activation] {
        &self.log
    }

    /// Consumes the recorder and returns the full choice log.
    pub fn into_log(self) -> Vec<Activation> {
        self.log
    }
}

impl<S: Scheduler> Scheduler for Recording<S> {
    fn select(&mut self, enabled: &[Activation]) -> usize {
        let chosen = self.inner.select(enabled);
        if chosen < enabled.len() {
            self.log.push(enabled[chosen]);
        }
        chosen
    }

    // Forwarded to the inner scheduler's `try_select` (not the default
    // `select` shim) so recording a finite scheduler preserves its typed
    // exhaustion; nothing is logged for a failed choice.
    fn try_select(&mut self, enabled: &[Activation]) -> Result<usize, ScheduleExhausted> {
        let chosen = self.inner.try_select(enabled)?;
        if chosen < enabled.len() {
            self.log.push(enabled[chosen]);
        }
        Ok(chosen)
    }

    fn name(&self) -> &'static str {
        "recording"
    }
}

/// Replays a log captured by [`Recording`]: each step selects the logged
/// activation from the enabled set.
///
/// Replaying the log against the same initial configuration and behaviors
/// reproduces the execution exactly (the engine is deterministic given the
/// schedule).
#[derive(Debug, Clone)]
pub struct Replay {
    log: Vec<Activation>,
    pos: usize,
}

impl Replay {
    /// Creates a replay of `log`.
    pub fn new(log: Vec<Activation>) -> Self {
        Replay { log, pos: 0 }
    }

    /// How many log entries have been consumed.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// How many log entries remain to be replayed.
    pub fn remaining(&self) -> usize {
        self.log.len() - self.pos
    }
}

impl Scheduler for Replay {
    /// # Panics
    ///
    /// Panics if the log is exhausted. Engine run loops go through
    /// [`try_select`](Scheduler::try_select) instead, which reports
    /// exhaustion as a typed error; the panic remains only for direct
    /// callers of `select` on a log they failed to size.
    fn select(&mut self, enabled: &[Activation]) -> usize {
        self.try_select(enabled)
            .unwrap_or_else(|e| panic!("replay log exhausted at step {}", e.consumed))
    }

    /// Reports [`ScheduleExhausted`] once the log runs out — a truncated
    /// log replays its prefix exactly and then ends with
    /// [`SimError::ScheduleExhausted`](crate::SimError::ScheduleExhausted)
    /// from the engine instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if the logged activation is not currently enabled — the run
    /// being replayed diverged from the recorded one (different initial
    /// configuration or behaviors), which is caller misuse rather than an
    /// end-of-schedule condition.
    fn try_select(&mut self, enabled: &[Activation]) -> Result<usize, ScheduleExhausted> {
        let want = self
            .log
            .get(self.pos)
            .ok_or(ScheduleExhausted { consumed: self.pos })?;
        let idx = enabled.iter().position(|a| a == want).unwrap_or_else(|| {
            panic!("replay diverged at step {}: {want:?} not enabled", self.pos)
        });
        self.pos += 1;
        Ok(idx)
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

mod json_impls {
    use super::Activation;
    use crate::fault::EdgeFault;
    use crate::{AgentId, NodeId};
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for Activation {
        /// The adversarial-witness wire format: schedules are thousands of
        /// activations long, so each entry is a compact two-element
        /// `[agent, arrival]` pair rather than a keyed object. Fault
        /// moves encode as `["fault", "down", node]` / `["fault",
        /// "restore"]` so fault-free witnesses are byte-identical to the
        /// pre-fault format.
        fn to_json(&self) -> Json {
            match self.fault {
                None => Json::Array(vec![self.agent.index().to_json(), Json::Bool(self.arrival)]),
                Some(EdgeFault::Down(node)) => Json::Array(vec![
                    Json::String("fault".to_string()),
                    Json::String("down".to_string()),
                    node.index().to_json(),
                ]),
                Some(EdgeFault::Restore) => Json::Array(vec![
                    Json::String("fault".to_string()),
                    Json::String("restore".to_string()),
                ]),
            }
        }
    }

    impl FromJson for Activation {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            let items = json.as_array().ok_or_else(|| {
                JsonError::Decode(format!("expected activation array, found {json}"))
            })?;
            if items.first().and_then(Json::as_str) == Some("fault") {
                return match items.get(1).and_then(Json::as_str) {
                    Some("down") if items.len() == 3 => Ok(Activation::fault_down(NodeId(
                        usize::from_json(&items[2])?,
                    ))),
                    Some("restore") if items.len() == 2 => Ok(Activation::fault_restore()),
                    _ => Err(JsonError::Decode(format!(
                        "expected [\"fault\",\"down\",node] or [\"fault\",\"restore\"], found {json}"
                    ))),
                };
            }
            if items.len() != 2 {
                return Err(JsonError::Decode(format!(
                    "expected [agent, arrival] pair, found {json}"
                )));
            }
            Ok(Activation {
                agent: AgentId(usize::from_json(&items[0])?),
                arrival: bool::from_json(&items[1])?,
                fault: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acts(ids: &[usize]) -> Vec<Activation> {
        ids.iter()
            .map(|&i| Activation::arrival(AgentId(i)))
            .collect()
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let enabled = acts(&[0, 1, 2]);
        let a = rr.select(&enabled);
        assert_eq!(enabled[a].agent, AgentId(0));
        let b = rr.select(&enabled);
        assert_eq!(enabled[b].agent, AgentId(1));
        let c = rr.select(&enabled);
        assert_eq!(enabled[c].agent, AgentId(2));
        let d = rr.select(&enabled);
        assert_eq!(enabled[d].agent, AgentId(0));
    }

    #[test]
    fn round_robin_skips_disabled() {
        let mut rr = RoundRobin::new();
        let enabled = acts(&[2, 5]);
        let a = rr.select(&enabled);
        assert_eq!(enabled[a].agent, AgentId(2));
        let b = rr.select(&enabled);
        assert_eq!(enabled[b].agent, AgentId(5));
    }

    #[test]
    fn random_is_reproducible() {
        let mut r1 = Random::seeded(7);
        let mut r2 = Random::seeded(7);
        let enabled = acts(&[0, 1, 2, 3, 4]);
        for _ in 0..50 {
            assert_eq!(r1.select(&enabled), r2.select(&enabled));
        }
    }

    #[test]
    fn random_in_range() {
        let mut r = Random::seeded(3);
        let enabled = acts(&[0, 1]);
        for _ in 0..100 {
            assert!(r.select(&enabled) < 2);
        }
    }

    #[test]
    fn one_at_a_time_prefers_lowest_id() {
        let mut s = OneAtATime::new();
        let enabled = acts(&[3, 1, 2]);
        assert_eq!(enabled[s.select(&enabled)].agent, AgentId(1));
    }

    #[test]
    fn delay_agent_starves_victim_until_alone() {
        let mut s = DelayAgent::new(AgentId(0));
        let enabled = acts(&[0, 1]);
        assert_eq!(enabled[s.select(&enabled)].agent, AgentId(1));
        let only_victim = acts(&[0]);
        assert_eq!(only_victim[s.select(&only_victim)].agent, AgentId(0));
    }

    #[test]
    fn recording_then_replaying_matches() {
        let mut rec = Recording::new(Random::seeded(12));
        let enabled = acts(&[0, 1, 2]);
        let choices: Vec<usize> = (0..20).map(|_| rec.select(&enabled)).collect();
        let mut rep = Replay::new(rec.into_log());
        for &c in &choices {
            assert_eq!(rep.select(&enabled), c);
        }
        assert_eq!(rep.position(), 20);
    }

    #[test]
    #[should_panic(expected = "replay log exhausted")]
    fn replay_panics_when_log_runs_out() {
        let mut rep = Replay::new(vec![]);
        let enabled = acts(&[0]);
        rep.select(&enabled);
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn replay_panics_on_divergence() {
        let mut rep = Replay::new(vec![Activation::wake(AgentId(7))]);
        let enabled = acts(&[0, 1]);
        rep.select(&enabled);
    }
}
