//! The execution engine: applies atomic actions under a schedule until
//! quiescence.

use std::collections::VecDeque;

use crate::action::{Action, Idle, Next};
use crate::agent::{Behavior, Observation};
use crate::config::Place;
use crate::error::SimError;
use crate::fault::{EdgeFault, FaultPlan};
use crate::initial::InitialConfig;
use crate::metrics::Metrics;
use crate::scheduler::{Activation, Scheduler};
use crate::trace::{Event, Trace};
use crate::{AgentId, NodeId};

/// Limits guarding a run against livelock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Maximum number of activations (asynchronous mode).
    pub max_steps: u64,
    /// Maximum number of rounds (synchronous mode).
    pub max_rounds: u64,
}

impl RunLimits {
    /// Generous defaults suitable for the paper's algorithms on rings of up
    /// to a few thousand nodes.
    pub fn new(max_steps: u64, max_rounds: u64) -> Self {
        RunLimits {
            max_steps,
            max_rounds,
        }
    }

    /// Scales limits to the instance: `c · k · n + slack` steps, `c · n`
    /// rounds — far above the paper's `O(kn)` move bounds.
    ///
    /// The arithmetic saturates at `u64::MAX`, so extreme `k`/`n` values
    /// (e.g. on 64-bit hosts where `200 · k · n` does not fit in a `u64`)
    /// degrade to "effectively unlimited" instead of overflowing — which
    /// in debug builds was a panic and in release builds silently wrapped
    /// to a *tiny* budget that aborted valid runs.
    pub fn for_instance(n: usize, k: usize) -> Self {
        let n = n as u64;
        let k = k as u64;
        RunLimits {
            max_steps: 200u64
                .saturating_mul(k)
                .saturating_mul(n)
                .saturating_add(10_000),
            max_rounds: 200u64.saturating_mul(n).saturating_add(10_000),
        }
    }
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_steps: 10_000_000,
            max_rounds: 1_000_000,
        }
    }
}

/// The queueing discipline of links — **ablation hook**.
///
/// The paper's model requires FIFO links (§2.1): agents never overtake one
/// another in transit, and each agent acts first at its own home node.
/// [`LinkDiscipline::Lifo`] deliberately violates this (new entrants jump
/// the queue) so experiments can demonstrate that the algorithms'
/// correctness *depends* on the FIFO assumption. Never use `Lifo` outside
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkDiscipline {
    /// Paper-faithful FIFO queues (default).
    #[default]
    Fifo,
    /// Overtaking links: later entrants arrive first (ablation only).
    Lifo,
}

/// Per-phase activity accumulated during a run, keyed by the behaviors'
/// [`phase_name`](crate::Behavior::phase_name) labels (in order of first
/// appearance). Lets reports break the paper's measures down by algorithm
/// phase without re-running under a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTally {
    /// The behavior-reported phase label.
    pub name: &'static str,
    /// Atomic actions executed while an agent reported this phase.
    pub activations: u64,
    /// Moves performed by actions in this phase.
    pub moves: u64,
}

/// Summary of a completed (or aborted) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Whether the system reached quiescence (no enabled activations).
    pub quiescent: bool,
    /// Number of atomic actions executed.
    pub steps: u64,
    /// Number of synchronous rounds (ideal time units); `None` for
    /// asynchronous runs.
    pub rounds: Option<u64>,
    /// Metrics accumulated during the run.
    pub metrics: Metrics,
}

/// Flag bits of a packed agent word (low 16 bits; node in the high 16).
/// The layout is shared verbatim with [`crate::packed::PackedState`] — the
/// live engine now stores agents in the same structure-of-arrays form the
/// packed snapshots proved 3–4× smaller, so `pack`/`restore` degenerate to
/// flat copies and the step hot path touches one `u32` per agent instead
/// of a struct-of-enums slot.
pub(crate) const IN_TRANSIT: u32 = 1;
pub(crate) const IDLE_SHIFT: u32 = 1;
pub(crate) const IDLE_MASK: u32 = 0b110;
pub(crate) const TOKEN_HELD: u32 = 1 << 3;

/// Packs an agent's whereabouts into one word: `node << 16 |
/// token_held << 3 | idle << 1 | in_transit`.
#[inline]
pub(crate) fn meta_word(place: Place, idle: Idle, token_held: bool) -> u32 {
    let (transit, node) = match place {
        Place::Staying { at } => (0, at.index()),
        Place::InTransit { to } => (IN_TRANSIT, to.index()),
    };
    let idle = match idle {
        Idle::Ready => 0u32,
        Idle::Suspended => 1,
        Idle::Halted => 2,
    };
    let held = if token_held { TOKEN_HELD } else { 0 };
    (node as u32) << 16 | held | idle << IDLE_SHIFT | transit
}

#[inline]
pub(crate) fn meta_place(word: u32) -> Place {
    let node = NodeId((word >> 16) as usize);
    if word & IN_TRANSIT != 0 {
        Place::InTransit { to: node }
    } else {
        Place::Staying { at: node }
    }
}

#[inline]
pub(crate) fn meta_idle(word: u32) -> Idle {
    match (word & IDLE_MASK) >> IDLE_SHIFT {
        0 => Idle::Ready,
        1 => Idle::Suspended,
        _ => Idle::Halted,
    }
}

/// The incrementally maintained set of enabled activations.
///
/// The engine used to recompute enablement from scratch — a full scan of
/// all `n` link queues plus all `k` agent slots — before *every* step,
/// making a run `Θ(n · steps)` regardless of how few agents were active.
/// This structure is instead updated in place by the handful of mutations
/// that can toggle enablement (link push/pop, inbox push/drain, idle-state
/// transitions, halting).
///
/// # Invariants
///
/// * `acts` is kept in the *canonical scan order* of the historical full
///   rescan — arrivals ordered by destination node, then wakes ordered by
///   agent id, then fault moves (`keys[i] = dest_node` for arrivals,
///   `n + agent` for wakes, `n + k + v` for `Down(v)`, `2n + k` for
///   `Restore`; keys are unique because each link queue has one head and
///   each agent has at most one enabled activation). Index-picking
///   schedulers such as [`Random`](crate::scheduler::Random) therefore
///   observe exactly the slice the rescan produced, byte for byte, which
///   is what makes executions bit-identical to the reference
///   implementation retained as [`Ring::enabled_rescan`]. Keeping an
///   indexable, canonically ordered view is why updates are ordered
///   inserts rather than `O(1)` swap-removes: `Scheduler::select`
///   consumes `&[Activation]` by index, so order is behaviorally
///   significant.
/// * Entries are located by **binary search on the key** — callers derive
///   an activation's key from the configuration (the acting agent's
///   packed place word, or the fault-move arithmetic), which is what
///   removed the old per-slot position table and its `O(k)` rewrite loop
///   after every memmove.
/// * `hole` is the *lazy-removal* fast path: a removal only marks its
///   index, and the next insert whose key fits between the hole's
///   neighbors overwrites it in place. The dominant step pattern —
///   consume one activation, re-enable one at the same or an adjacent key
///   — therefore costs `O(log k)` with **zero** memmoves. A hole never
///   outlives the engine operation that made it: every mutating path
///   ends with [`EnabledSet::flush`], so the slice readers see is always
///   compact.
///
/// Which mutations toggle enablement (each arm of [`Ring::step`] updates
/// the set exactly where the old code relied on the next rescan):
///
/// * **link pop** (an arrival executes): the arriving agent's activation
///   leaves the set; the new queue head (if any) enters.
/// * **link push** (a move): onto an empty queue, the mover becomes head
///   and enters; under LIFO ablation a push displaces the old head, which
///   leaves the set.
/// * **inbox push** (a broadcast): a suspended receiver whose inbox was
///   empty becomes enabled; ready receivers were already enabled and
///   halted receivers never wake.
/// * **inbox drain / idle transition** (the acting agent settles): staying
///   `Ready` re-enables the agent; `Suspended` enables it only with a
///   non-empty inbox; `Halted` (and being in transit behind a head) means
///   absent from the set.
#[derive(Debug, Clone)]
struct EnabledSet {
    /// Sort keys parallel to `acts` (canonical scan positions; `2n + k`
    /// tops out far below `u32::MAX` at the `u16`-indexed ring sizes the
    /// packed agent words support).
    keys: Vec<u32>,
    /// The enabled activations in canonical scan order.
    acts: Vec<Activation>,
    /// Index of a lazily removed entry awaiting reuse, if any.
    hole: Option<usize>,
}

impl EnabledSet {
    fn new(agent_count: usize) -> Self {
        EnabledSet {
            keys: Vec::with_capacity(agent_count),
            acts: Vec::with_capacity(agent_count),
            hole: None,
        }
    }

    /// Commits a pending lazy removal, compacting the vectors.
    fn flush(&mut self) {
        if let Some(i) = self.hole.take() {
            self.keys.remove(i);
            self.acts.remove(i);
        }
    }

    /// Locates `key` by binary search; a pending hole's stale entry is
    /// reported as absent. Keys above `u32::MAX` (the "impossible form"
    /// sentinel from [`Ring::enabled_key_of`]) are never present.
    fn find(&self, key: usize) -> Option<usize> {
        let key = u32::try_from(key).ok()?;
        let i = self.keys.partition_point(|&k| k < key);
        (self.keys.get(i) == Some(&key) && self.hole != Some(i)).then_some(i)
    }

    fn as_slice(&self) -> &[Activation] {
        debug_assert!(self.hole.is_none(), "read with uncommitted removal");
        &self.acts
    }

    fn is_empty(&self) -> bool {
        debug_assert!(self.hole.is_none(), "read with uncommitted removal");
        self.acts.is_empty()
    }

    fn len(&self) -> usize {
        debug_assert!(self.hole.is_none(), "read with uncommitted removal");
        self.acts.len()
    }

    /// Whether exactly this activation (same agent, same form) is enabled
    /// under the given key.
    fn contains(&self, key: usize, act: Activation) -> bool {
        self.find(key).is_some_and(|i| self.acts[i] == act)
    }

    fn insert(&mut self, key: usize, act: Activation) {
        let key = u32::try_from(key).expect("enabled key fits u32");
        debug_assert!(self.find(key as usize).is_none(), "duplicate key {key}");
        if let Some(h) = self.hole.take() {
            // Recycle the stale slot by sliding only the entries between
            // it and the new key's sorted position — one short-range move
            // instead of a full-tail `remove` plus a full-tail `insert`.
            // In the hot path (an agent re-enabled one node further) the
            // two positions are adjacent and nothing moves at all.
            let p = self.keys.partition_point(|&k| k < key);
            if h < p {
                // Stale entry sorts before the new key: shift the gap left.
                self.keys.copy_within(h + 1..p, h);
                self.acts.copy_within(h + 1..p, h);
                self.keys[p - 1] = key;
                self.acts[p - 1] = act;
            } else {
                // Stale entry sorts at or after the new key: shift right.
                self.keys.copy_within(p..h, p + 1);
                self.acts.copy_within(p..h, p + 1);
                self.keys[p] = key;
                self.acts[p] = act;
            }
            return;
        }
        let i = self.keys.partition_point(|&k| k < key);
        self.keys.insert(i, key);
        self.acts.insert(i, act);
    }

    /// Removes the entry at `key` (lazily — see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if no entry with this key is present.
    fn remove(&mut self, key: usize) {
        self.flush();
        let i = self
            .find(key)
            .unwrap_or_else(|| panic!("key {key} has no enabled activation"));
        self.hole = Some(i);
    }
}

/// The simulator: an `n`-node anonymous unidirectional ring with `k` agents.
///
/// See the [crate-level documentation](crate) for the model. Construct with
/// [`Ring::new`], drive with [`Ring::run`] (asynchronous, scheduler-driven)
/// or [`Ring::run_synchronous`] (lock-step rounds, measuring ideal time),
/// then inspect with [`Ring::configuration`], [`Ring::staying_positions`]
/// and the predicate helpers.
pub struct Ring<B: Behavior> {
    pub(crate) n: usize,
    pub(crate) tokens: Vec<u32>,
    /// `p_i`: agents staying at node `i`.
    pub(crate) staying: Vec<Vec<AgentId>>,
    /// `q_i`: agents in transit towards node `i` (FIFO; head arrives first).
    pub(crate) links: Vec<VecDeque<AgentId>>,
    /// `m_j`: pending messages per agent.
    pub(crate) inboxes: Vec<VecDeque<B::Message>>,
    /// Behavior state per agent (the only generically sized per-agent
    /// column of the structure-of-arrays layout).
    pub(crate) behaviors: Vec<B>,
    /// Packed per-agent whereabouts word — `node << 16 | token_held << 3
    /// | idle << 1 | in_transit`, the same layout as
    /// [`crate::packed::PackedState`].
    pub(crate) meta: Vec<u32>,
    /// Home node per agent (immutable after construction).
    homes: Vec<NodeId>,
    /// Incrementally maintained enabled activations; see [`EnabledSet`].
    enabled: EnabledSet,
    metrics: Metrics,
    trace: Option<Trace>,
    phases: Vec<PhaseTally>,
    steps: u64,
    discipline: LinkDiscipline,
    /// The fault plan this ring executes under ([`FaultPlan::none`] for
    /// the fault-free engine; carried in from [`InitialConfig`]).
    pub(crate) faults: FaultPlan,
    /// Lifetime activation count per agent — the crash-threshold clock.
    pub(crate) acted: Vec<u64>,
    /// Which agents have crash-stopped.
    pub(crate) crashed: Vec<bool>,
    /// The node whose incoming edge is currently down, if any
    /// (1-interval connectivity: at most one).
    pub(crate) down_edge: Option<NodeId>,
    /// Remaining dynamic-edge outage budget.
    pub(crate) outages_left: u32,
}

impl<B: Behavior + Clone> Clone for Ring<B>
where
    B::Message: Clone,
{
    fn clone(&self) -> Self {
        Ring {
            n: self.n,
            tokens: self.tokens.clone(),
            staying: self.staying.clone(),
            links: self.links.clone(),
            inboxes: self.inboxes.clone(),
            behaviors: self.behaviors.clone(),
            meta: self.meta.clone(),
            homes: self.homes.clone(),
            enabled: self.enabled.clone(),
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            phases: self.phases.clone(),
            steps: self.steps,
            discipline: self.discipline,
            faults: self.faults.clone(),
            acted: self.acted.clone(),
            crashed: self.crashed.clone(),
            down_edge: self.down_edge,
            outages_left: self.outages_left,
        }
    }
}

/// The record of one reversible step — everything [`Ring::apply`] mutated,
/// in exactly the form [`Ring::undo`] needs to reverse it.
///
/// Deliberately **not** a snapshot: only the touched cells are stored (the
/// pre-step behavior of the one agent that acted, the drained inbox,
/// whether it broadcast, the vacated staying-list position, the
/// enabled-set edits and the metric/phase deltas), so the record is a few
/// words for a typical step. Schedule-history that the step appends to but
/// that can be reversed arithmetically (metrics counters, phase tallies,
/// the step counter) is stored as deltas; the peak-memory watermark — a
/// running max with no local inverse — keeps its pre-step value.
pub struct StepUndo<B: Behavior> {
    activation: Activation,
    /// The node the action executed at (for edge-fault moves: the node
    /// whose incoming edge was taken down or restored).
    node: NodeId,
    /// Saved by [`Ring::apply`]; `None` for edge-fault moves and
    /// crash-stops (no behavior ran) and in the record `step` drops.
    prev_behavior: Option<B>,
    prev_place: Place,
    prev_idle: Idle,
    released_token: bool,
    /// The inbox contents the action consumed, in FIFO order.
    drained: Vec<B::Message>,
    /// Whether the action broadcast. The receivers are not stored: they
    /// are the node's other staying agents, which undo has restored by
    /// the time it reverses the deliveries.
    broadcast: bool,
    /// For a staying agent that moved or crash-stopped: the staying-list
    /// index it vacated (list order is part of the configuration identity).
    left_staying_pos: Option<usize>,
    moved: bool,
    /// LIFO ablation only: the queue head the push displaced.
    displaced: Option<AgentId>,
    /// The successor head enabled by this arrival's link pop.
    successor_enabled: Option<AgentId>,
    /// Whether the agent ended the action enabled again (new queue head,
    /// or a `Ready` stay).
    re_enabled: bool,
    prev_peak_memory_bits: usize,
    phase: &'static str,
    /// Whether this step created the phase tally (it is then the last
    /// entry, and undo pops it to restore first-appearance order).
    phase_new: bool,
    /// The plan crash-stopped the agent in this step: the activation was
    /// consumed, no computation ran, no phase/activation bookkeeping.
    crashed: bool,
    /// Edge-fault moves only: the down edge before the move (`Down`
    /// records `None`, `Restore` records the edge it brought back).
    prev_down_edge: Option<NodeId>,
}

impl<B: Behavior> StepUndo<B> {
    /// The node the recorded action executed at. Together with
    /// [`moved_to`](StepUndo::moved_to) this is the complete set of nodes
    /// whose [`node_symbol`](Ring::node_symbol) the step can have changed.
    pub fn acted_at(&self) -> NodeId {
        self.node
    }

    /// The destination node if the recorded action moved (`n` is the ring
    /// size, which the record does not carry), `None` if it stayed.
    pub fn moved_to(&self, n: usize) -> Option<NodeId> {
        self.moved.then(|| self.node.next(n))
    }
}

impl<B: Behavior> Ring<B> {
    /// Builds the initial configuration `C_0`: each agent is created by
    /// `make_behavior` (called with the agent id for the observer's
    /// convenience — the behavior itself should not depend on it for
    /// anything but e.g. debugging labels) and placed at the head of the
    /// FIFO buffer entering its home node.
    pub fn new(init: &InitialConfig, mut make_behavior: impl FnMut(AgentId) -> B) -> Self {
        let n = init.ring_size();
        let k = init.agent_count();
        assert!(
            n <= u16::MAX as usize + 1 && k <= u16::MAX as usize,
            "packed agent words index nodes and agents with u16 (n = {n}, k = {k})"
        );
        let mut links: Vec<VecDeque<AgentId>> = vec![VecDeque::new(); n];
        let mut behaviors = Vec::with_capacity(k);
        let mut meta = Vec::with_capacity(k);
        let mut homes = Vec::with_capacity(k);
        for (i, &home) in init.homes().iter().enumerate() {
            let id = AgentId(i);
            links[home].push_back(id);
            behaviors.push(make_behavior(id));
            meta.push(meta_word(
                Place::InTransit { to: NodeId(home) },
                Idle::Ready,
                true,
            ));
            homes.push(NodeId(home));
        }
        let mut metrics = Metrics::new(k);
        for behavior in &behaviors {
            metrics.observe_memory(behavior.memory_bits());
        }
        let faults = init.faults().clone();
        let outages_left = faults.edge_outages();
        let mut ring = Ring {
            n,
            tokens: vec![0; n],
            staying: vec![Vec::new(); n],
            links,
            inboxes: vec![VecDeque::new(); k],
            behaviors,
            meta,
            homes,
            // Placeholder; seeded from the rescan below (every home
            // buffer's head may arrive; no agent stays yet).
            enabled: EnabledSet::new(k),
            metrics,
            trace: None,
            phases: Vec::new(),
            steps: 0,
            discipline: LinkDiscipline::Fifo,
            faults,
            acted: vec![0; k],
            crashed: vec![false; k],
            down_edge: None,
            outages_left,
        };
        ring.enabled = ring.rebuilt_enabled();
        ring
    }

    /// The link queueing discipline in force.
    pub fn link_discipline(&self) -> LinkDiscipline {
        self.discipline
    }

    /// Switches the link queueing discipline — **ablation only**; see
    /// [`LinkDiscipline`]. Must be called before the first step.
    ///
    /// # Panics
    ///
    /// Panics if any action has already been executed.
    pub fn set_link_discipline(&mut self, discipline: LinkDiscipline) {
        assert_eq!(self.steps, 0, "discipline must be set before the run");
        self.discipline = discipline;
    }

    /// Enables event tracing with the given capacity (keeps the last
    /// `capacity` events).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Takes the recorded trace out of the engine (tracing stops), leaving
    /// `None`. Used by run drivers that hand the trace to their report.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Per-phase activity tallies, in order of first phase appearance.
    pub fn phase_tallies(&self) -> &[PhaseTally] {
        &self.phases
    }

    /// Total atomic actions executed over the ring's lifetime (across
    /// multiple `run` calls, unlike [`RunOutcome::steps`]).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Ring size `n`.
    pub fn ring_size(&self) -> usize {
        self.n
    }

    /// Number of agents `k`.
    pub fn agent_count(&self) -> usize {
        self.meta.len()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Immutable access to an agent's behavior (for post-run inspection).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn behavior(&self, id: AgentId) -> &B {
        &self.behaviors[id.index()]
    }

    /// The home node of an agent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn home_of(&self, id: AgentId) -> NodeId {
        self.homes[id.index()]
    }

    /// The current place of an agent (staying at a node or in transit).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn place_of(&self, id: AgentId) -> Place {
        meta_place(self.meta[id.index()])
    }

    /// The current idle state of an agent (meaningful when staying).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn idle_of(&self, id: AgentId) -> Idle {
        meta_idle(self.meta[id.index()])
    }

    #[inline]
    fn set_place(&mut self, idx: usize, place: Place) {
        let (transit, node) = match place {
            Place::Staying { at } => (0, at.index()),
            Place::InTransit { to } => (IN_TRANSIT, to.index()),
        };
        let word = &mut self.meta[idx];
        *word = (*word & (IDLE_MASK | TOKEN_HELD)) | (node as u32) << 16 | transit;
    }

    #[inline]
    fn set_idle(&mut self, idx: usize, idle: Idle) {
        let bits = match idle {
            Idle::Ready => 0u32,
            Idle::Suspended => 1,
            Idle::Halted => 2,
        };
        let word = &mut self.meta[idx];
        *word = (*word & !IDLE_MASK) | bits << IDLE_SHIFT;
    }

    #[inline]
    fn set_token_held(&mut self, idx: usize, held: bool) {
        if held {
            self.meta[idx] |= TOKEN_HELD;
        } else {
            self.meta[idx] &= !TOKEN_HELD;
        }
    }

    /// The canonical-scan key under which `act` would currently live in
    /// the enabled set: arrivals sort by destination node, wakes by
    /// `n + agent`, fault moves by `n + k + v` / `2n + k`. An activation
    /// whose form contradicts the agent's current place (an arrival for a
    /// staying agent or vice versa) cannot be enabled and maps to an
    /// impossible key.
    #[inline]
    fn enabled_key_of(&self, act: Activation) -> usize {
        match act.fault {
            Some(EdgeFault::Down(v)) => self.n + self.meta.len() + v.index(),
            Some(EdgeFault::Restore) => 2 * self.n + self.meta.len(),
            None => {
                let word = self.meta[act.agent.index()];
                let transit = word & IN_TRANSIT != 0;
                if act.arrival && transit {
                    (word >> 16) as usize
                } else if !act.arrival && !transit {
                    self.n + act.agent.index()
                } else {
                    usize::MAX
                }
            }
        }
    }

    /// Removes agent `id`'s enabled activation, deriving its key from the
    /// agent's current place word (in transit ⇒ the arrival at its
    /// destination; staying ⇒ its wake).
    ///
    /// # Panics
    ///
    /// Panics if the agent has no enabled activation.
    #[inline]
    fn enabled_remove_agent(&mut self, id: AgentId) {
        let word = self.meta[id.index()];
        let key = if word & IN_TRANSIT != 0 {
            (word >> 16) as usize
        } else {
            self.n + id.index()
        };
        debug_assert_eq!(
            self.enabled.find(key).map(|i| self.enabled.acts[i].agent),
            Some(id),
            "enabled entry at key {key} does not belong to {id}"
        );
        self.enabled.remove(key);
    }

    /// Token count at each node (`T` of Table 2).
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// The fault plan this ring executes under.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether the agent has crash-stopped (it never acts again; its
    /// token, if still held at the crash, dropped where it died).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn is_crashed(&self, id: AgentId) -> bool {
        self.crashed[id.index()]
    }

    /// Number of agents that have crash-stopped so far.
    pub fn crashed_count(&self) -> usize {
        self.crashed.iter().filter(|&&c| c).count()
    }

    /// Lifetime activation count of an agent (the crash-threshold
    /// clock; counts arrivals, wakes and the crash itself).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn activations_of(&self, id: AgentId) -> u64 {
        self.acted[id.index()]
    }

    /// The node whose incoming edge is currently down, if any.
    pub fn down_edge(&self) -> Option<NodeId> {
        self.down_edge
    }

    /// Remaining dynamic-edge outage budget.
    pub fn outages_left(&self) -> u32 {
        self.outages_left
    }

    /// Whether the plan can ever put edge-fault moves in the enabled
    /// set (cheap static gate for the sync helpers).
    fn edge_faults_armed(&self) -> bool {
        self.faults.edge_outages() > 0
    }

    /// Whether the plan crash-stops `id` at its next activation.
    fn crash_due(&self, id: AgentId) -> bool {
        !self.crashed[id.index()] && self.faults.crash_after(id) == Some(self.acted[id.index()])
    }

    /// Re-derives the enablement of the `Down(v)` fault move from the
    /// current state (idempotent). Down is enabled iff budget remains,
    /// no edge is currently down, and node `v`'s queue is non-empty —
    /// the non-empty requirement keeps terminal configurations
    /// fault-quiescent (an outage of an idle edge changes nothing, so
    /// offering it would only manufacture infinite executions).
    fn sync_down_candidate(&mut self, v: usize) {
        if !self.edge_faults_armed() {
            return;
        }
        let want = self.outages_left > 0 && self.down_edge.is_none() && !self.links[v].is_empty();
        let act = Activation::fault_down(NodeId(v));
        let key = self.n + self.meta.len() + v;
        let have = self.enabled.contains(key, act);
        if want && !have {
            self.enabled.insert(key, act);
        } else if !want && have {
            self.enabled.remove(key);
        }
    }

    /// Re-derives the enablement of every fault move (all `Down`
    /// candidates plus `Restore`) — used after moves that flip the
    /// global edge state. `O(n)`, paid only on fault moves.
    fn sync_all_fault_moves(&mut self) {
        if !self.edge_faults_armed() {
            return;
        }
        for v in 0..self.n {
            self.sync_down_candidate(v);
        }
        let act = Activation::fault_restore();
        let key = 2 * self.n + self.meta.len();
        let want = self.down_edge.is_some();
        let have = self.enabled.contains(key, act);
        if want && !have {
            self.enabled.insert(key, act);
        } else if !want && have {
            self.enabled.remove(key);
        }
    }

    /// Completes a crash-stop after stage 1 (node resolution, link pop,
    /// successor enable) has run: the agent performs no computation, its
    /// pending messages become dead letters, any held token drops at the
    /// crash node, and the agent is permanently removed from the staying
    /// set — crashed agents are *invisible* (a crash-stopped agent is
    /// behaviorally indistinguishable from one that vanished, except for
    /// the token it left behind). Returns the undo material: the drained
    /// inbox, the vacated staying-list position and whether a token
    /// dropped.
    fn crash_finish(
        &mut self,
        activation: Activation,
        node: NodeId,
    ) -> (Vec<B::Message>, Option<usize>, bool) {
        let id = activation.agent;
        let idx = id.index();
        let drained: Vec<B::Message> = self.inboxes[idx].drain(..).collect();
        let mut left_staying_pos = None;
        if !activation.arrival {
            let p = &mut self.staying[node.index()];
            let pos = p
                .iter()
                .position(|&a| a == id)
                .expect("staying agent is a member of its node's staying set");
            p.remove(pos);
            left_staying_pos = Some(pos);
        }
        let released_token = self.meta[idx] & TOKEN_HELD != 0;
        if released_token {
            self.set_token_held(idx, false);
            self.tokens[node.index()] += 1;
            self.metrics.record_token_release();
        }
        self.set_place(idx, Place::Staying { at: node });
        self.set_idle(idx, Idle::Halted);
        self.crashed[idx] = true;
        self.acted[idx] += 1;
        self.steps += 1;
        self.enabled.flush();
        (drained, left_staying_pos, released_token)
    }

    /// Executes an edge-fault move (the activation must already be
    /// validated as enabled). Returns the affected node and the previous
    /// down edge for the undo record.
    fn edge_fault_finish(&mut self, activation: Activation) -> (NodeId, Option<NodeId>) {
        self.enabled.remove(self.enabled_key_of(activation));
        let prev_down_edge = self.down_edge;
        let node = match activation
            .fault
            .expect("edge_fault_finish requires a fault move")
        {
            EdgeFault::Down(v) => {
                debug_assert!(self.outages_left > 0 && self.down_edge.is_none());
                self.outages_left -= 1;
                self.down_edge = Some(v);
                // The head arrival of the downed edge leaves the set
                // (Down requires a non-empty queue, so a head exists).
                debug_assert!(!self.links[v.index()].is_empty());
                self.enabled.remove(v.index());
                v
            }
            EdgeFault::Restore => {
                let v = self.down_edge.take().expect("Restore requires a down edge");
                // The queue could only grow while the edge was down (its
                // head could not arrive), so a head exists to re-enable.
                let head = *self.links[v.index()]
                    .front()
                    .expect("a downed queue cannot drain");
                self.enabled.insert(v.index(), Activation::arrival(head));
                v
            }
        };
        // Down/Restore flip the global edge state: every fault move's
        // enablement may change.
        self.sync_all_fault_moves();
        self.steps += 1;
        self.enabled.flush();
        (node, prev_down_edge)
    }

    /// If **all** agents are staying, returns their node indices in agent
    /// order; `None` if any agent is in transit.
    pub fn staying_positions(&self) -> Option<Vec<usize>> {
        self.meta
            .iter()
            .map(|&word| match meta_place(word) {
                Place::Staying { at } => Some(at.index()),
                Place::InTransit { .. } => None,
            })
            .collect()
    }

    /// Whether all link queues are empty (`q_j = ∅` for all `j`).
    pub fn links_empty(&self) -> bool {
        self.links.iter().all(VecDeque::is_empty)
    }

    /// Whether all inboxes are empty (`m_i = ∅` for all `i`).
    pub fn inboxes_empty(&self) -> bool {
        self.inboxes.iter().all(VecDeque::is_empty)
    }

    /// Whether every agent is in the halt state.
    pub fn all_halted(&self) -> bool {
        self.meta
            .iter()
            .all(|&w| w & IN_TRANSIT == 0 && meta_idle(w) == Idle::Halted)
    }

    /// Whether every agent is in a suspended state.
    pub fn all_suspended(&self) -> bool {
        self.meta
            .iter()
            .all(|&w| w & IN_TRANSIT == 0 && meta_idle(w) == Idle::Suspended)
    }

    /// The currently enabled activations:
    ///
    /// * the head of every non-empty link queue may arrive;
    /// * a staying agent may wake if it is `Ready`, or if it is `Suspended`
    ///   with a non-empty inbox. Halted agents never wake.
    ///
    /// Reads the incrementally maintained enabled set — `O(k)` for the
    /// copy, not the historical `Θ(n + k)` rescan. The order is the
    /// canonical scan order (arrivals by destination node, then wakes by
    /// agent id), identical to [`Ring::enabled_rescan`]. Callers that only
    /// need to look use the allocation-free
    /// [`enabled_activations`](Ring::enabled_activations).
    pub fn enabled(&self) -> Vec<Activation> {
        self.enabled.as_slice().to_vec()
    }

    /// Borrowed, allocation-free view of the enabled activations, in the
    /// same canonical order as [`Ring::enabled`]. This is the slice the
    /// run loops hand to [`Scheduler::select`].
    pub fn enabled_activations(&self) -> &[Activation] {
        self.enabled.as_slice()
    }

    /// Recomputes the enabled activations by a full scan of all link
    /// queues and agent slots — the **reference implementation** the
    /// incremental enabled set must agree with at every reachable
    /// configuration (`tests/differential_enabled.rs` replays identical
    /// schedules through both and asserts bit-identical executions).
    ///
    /// `Θ(n + k)` per call. The constructors ([`Ring::new`],
    /// [`Ring::rotated`]) and the packed-state restore seed the
    /// incremental set from it once; from then on `step`/`apply`/`undo`
    /// maintain that set in place, and callers read it through
    /// [`Ring::enabled`] / [`Ring::enabled_activations`].
    pub fn enabled_rescan(&self) -> Vec<Activation> {
        let mut out = Vec::new();
        for (v, q) in self.links.iter().enumerate() {
            // The head of a downed edge cannot arrive until Restore.
            if self.down_edge == Some(NodeId(v)) {
                continue;
            }
            if let Some(&head) = q.front() {
                out.push(Activation::arrival(head));
            }
        }
        for (i, &word) in self.meta.iter().enumerate() {
            if word & IN_TRANSIT == 0 {
                let wake = match meta_idle(word) {
                    Idle::Ready => true,
                    Idle::Suspended => !self.inboxes[i].is_empty(),
                    Idle::Halted => false,
                };
                if wake {
                    out.push(Activation::wake(AgentId(i)));
                }
            }
        }
        if self.edge_faults_armed() {
            if self.outages_left > 0 && self.down_edge.is_none() {
                for (v, q) in self.links.iter().enumerate() {
                    if !q.is_empty() {
                        out.push(Activation::fault_down(NodeId(v)));
                    }
                }
            }
            if self.down_edge.is_some() {
                out.push(Activation::fault_restore());
            }
        }
        out
    }

    /// Executes one atomic action for the given activation.
    ///
    /// # Panics
    ///
    /// Panics if the activation is not currently enabled (engine misuse) or
    /// if a behavior releases a token twice (protocol bug worth failing
    /// loudly on).
    // Out of line on purpose: inlined into `run`'s loop, the shared body
    // measured ~5 % slower per step than this call.
    #[inline(never)]
    pub fn step(&mut self, activation: Activation) {
        self.transition(activation, |_| None);
    }

    /// Executes one atomic action exactly like [`Ring::step`] (both run
    /// the same transition body), but returns a [`StepUndo`] record from
    /// which [`Ring::undo`] restores the ring **bit-exactly** —
    /// configuration, enabled set, behavior states, metrics, phase tallies
    /// and step counter all included.
    ///
    /// Only the cells the action actually mutated are recorded (the popped
    /// link head, the drained inbox, the broadcast flag, idle transitions,
    /// enabled-set edits, metrics/phase deltas), so an `apply`/`undo` pair
    /// costs `O(touched)` — a handful of words plus one behavior clone —
    /// instead of the `O(n + k)` deep clone the exhaustive explorer used
    /// to pay per child expansion.
    ///
    /// Undo records must be consumed in **LIFO order**: `undo` assumes the
    /// ring is in exactly the state the matching `apply` left it in (the
    /// explorer's depth-first discipline guarantees this).
    ///
    /// # Panics
    ///
    /// As [`Ring::step`]; additionally panics if tracing is enabled —
    /// trace buffers are capacity-bounded and lossy, so trace events
    /// cannot be rolled back (the explorer always expands traceless, per
    /// the exploration contract).
    pub fn apply(&mut self, activation: Activation) -> StepUndo<B>
    where
        B: Clone,
    {
        assert!(
            self.trace.is_none(),
            "apply requires tracing disabled: the bounded trace buffer is lossy and cannot be \
             rolled back"
        );
        // The acting agent's behavior is the one pre-step cell the body
        // overwrites without recording it, and only a `B: Clone` caller
        // can save it.
        self.transition(activation, |behavior| Some(behavior.clone()))
    }

    /// Stages 0–5 of one atomic action, shared by [`Ring::step`] and
    /// [`Ring::apply`]. Returns the undo record of every cell it mutated.
    /// `save` sees the acting agent's behavior just before the computation
    /// overwrites it, and its result is the record's `prev_behavior`. It is
    /// never called for a fault move (no behavior runs) or a crash-stop
    /// (the computation is skipped), so neither pays a clone. `step`
    /// saves nothing and drops the record.
    ///
    /// Each arm builds its record as one literal from locals, and the
    /// helpers return plain tuples. A record built up front and filled in
    /// place, or handed to a helper by reference, kept `step` from
    /// discarding it: ~10–20 % slower per step on a 2-vCPU host.
    #[inline(always)]
    fn transition(
        &mut self,
        activation: Activation,
        save: impl FnOnce(&B) -> Option<B>,
    ) -> StepUndo<B> {
        // Edge-fault moves mutate link availability, not agents.
        if activation.is_fault() {
            assert!(
                self.enabled
                    .contains(self.enabled_key_of(activation), activation),
                "fault move {activation:?} is not enabled"
            );
            let (node, prev_down_edge) = self.edge_fault_finish(activation);
            return StepUndo {
                activation,
                node,
                prev_behavior: None,
                prev_place: Place::Staying { at: node },
                prev_idle: Idle::Ready,
                released_token: false,
                drained: Vec::new(),
                broadcast: false,
                left_staying_pos: None,
                moved: false,
                displaced: None,
                successor_enabled: None,
                re_enabled: false,
                prev_peak_memory_bits: self.metrics.peak_memory_bits(),
                phase: "",
                phase_new: false,
                crashed: false,
                prev_down_edge,
            };
        }
        let id = activation.agent;
        let idx = id.index();

        // 0. Consume the activation from the enabled set; the arms below
        // re-insert whatever the mutations re-enable.
        assert!(
            self.enabled
                .contains(self.enabled_key_of(activation), activation),
            "activation of {id} (arrival: {}) is not enabled",
            activation.arrival
        );
        self.enabled_remove_agent(id);
        let prev_place = meta_place(self.meta[idx]);

        // 1. Resolve the node and (for arrivals) complete the move.
        let mut successor_enabled = None;
        let node = if activation.arrival {
            let to = match prev_place {
                Place::InTransit { to } => to,
                Place::Staying { .. } => panic!("arrival activation for staying agent {id}"),
            };
            let q = &mut self.links[to.index()];
            assert_eq!(
                q.front().copied(),
                Some(id),
                "agent {id} must be at the head of its link queue (FIFO)"
            );
            q.pop_front();
            // Link pop: the next queued agent (if any) becomes the head
            // and may now arrive.
            if let Some(&new_head) = q.front() {
                successor_enabled = Some(new_head);
                self.enabled
                    .insert(to.index(), Activation::arrival(new_head));
            }
            self.sync_down_candidate(to.index());
            to
        } else {
            match prev_place {
                Place::Staying { at } => at,
                Place::InTransit { .. } => panic!("wake activation for in-transit agent {id}"),
            }
        };
        let prev_idle = meta_idle(self.meta[idx]);
        let prev_peak_memory_bits = self.metrics.peak_memory_bits();

        // 1b. A planned crash-stop consumes the activation: no
        // computation, the held token drops where the agent died, its
        // pending messages become dead letters, and it never acts again.
        if self.crash_due(id) {
            let (drained, left_staying_pos, released_token) = self.crash_finish(activation, node);
            if let Some(trace) = &mut self.trace {
                trace.push(Event::Stayed {
                    agent: id,
                    node,
                    idle: Idle::Halted,
                });
            }
            return StepUndo {
                activation,
                node,
                prev_behavior: None,
                prev_place,
                prev_idle,
                released_token,
                drained,
                broadcast: false,
                left_staying_pos,
                moved: false,
                displaced: None,
                successor_enabled,
                re_enabled: false,
                prev_peak_memory_bits,
                phase: "",
                phase_new: false,
                crashed: true,
                prev_down_edge: None,
            };
        }
        self.acted[idx] += 1;
        // The computation below overwrites the behavior; save it first.
        let prev_behavior = save(&self.behaviors[idx]);

        // 2. Consume all pending messages (kept for the undo record).
        let drained: Vec<B::Message> = self.inboxes[idx].drain(..).collect();

        // 3. Local computation.
        let staying_others = self.staying[node.index()]
            .iter()
            .filter(|&&a| a != id)
            .count();
        let obs = Observation {
            tokens: self.tokens[node.index()],
            staying_agents: staying_others,
            messages: &drained,
            arrived: activation.arrival,
        };
        let action: Action<B::Message> = self.behaviors[idx].act(&obs);
        self.steps += 1;
        self.metrics.record_activation(id);
        self.metrics
            .observe_memory(self.behaviors[idx].memory_bits());
        let phase = self.behaviors[idx].phase_name();
        let phase_pos = self.phases.iter().position(|t| t.name == phase);
        let phase_new = phase_pos.is_none();
        let tally = match phase_pos {
            Some(i) => &mut self.phases[i],
            None => {
                self.phases.push(PhaseTally {
                    name: phase,
                    activations: 0,
                    moves: 0,
                });
                self.phases.last_mut().expect("just pushed")
            }
        };
        tally.activations += 1;
        if action.next == Next::Move {
            tally.moves += 1;
        }
        if let Some(trace) = &mut self.trace {
            trace.push(Event::Activated {
                agent: id,
                node,
                arrived: activation.arrival,
                messages: drained.len(),
                phase,
            });
        }

        // 4a. Token release.
        if action.release_token {
            assert!(
                self.meta[idx] & TOKEN_HELD != 0,
                "agent {id} released its token twice"
            );
            self.set_token_held(idx, false);
            self.tokens[node.index()] += 1;
            self.metrics.record_token_release();
            if let Some(trace) = &mut self.trace {
                trace.push(Event::TokenReleased { agent: id, node });
            }
        }

        // 4b. Broadcast to agents staying at the node (excluding self).
        let broadcast = action.broadcast.is_some();
        if let Some(msg) = action.broadcast {
            let mut receivers = 0usize;
            // Split borrows: collect receiver ids first.
            let targets: Vec<AgentId> = self.staying[node.index()]
                .iter()
                .copied()
                .filter(|&a| a != id)
                .collect();
            for a in targets {
                // Inbox push: a suspended receiver with a previously empty
                // inbox becomes enabled. Ready receivers already are;
                // halted receivers never wake.
                let was_empty = self.inboxes[a.index()].is_empty();
                self.inboxes[a.index()].push_back(msg.clone());
                receivers += 1;
                if was_empty && meta_idle(self.meta[a.index()]) == Idle::Suspended {
                    self.enabled.insert(self.n + a.index(), Activation::wake(a));
                }
            }
            self.metrics.record_broadcast(receivers);
            if let Some(trace) = &mut self.trace {
                trace.push(Event::Broadcast {
                    agent: id,
                    node,
                    receivers,
                });
            }
        }

        // 5. Move or stay.
        let mut left_staying_pos = None;
        let mut displaced = None;
        let mut re_enabled = false;
        match action.next {
            Next::Move => {
                if !activation.arrival {
                    // Leaving a node it was staying at.
                    let p = &mut self.staying[node.index()];
                    let pos = p
                        .iter()
                        .position(|&a| a == id)
                        .expect("staying agent is a member of its node's staying set");
                    p.remove(pos);
                    left_staying_pos = Some(pos);
                }
                let dest = node.next(self.n);
                // While the destination edge is down, no head is enabled
                // there — the mover queues up silently until Restore.
                let dest_down = self.down_edge == Some(dest);
                match self.discipline {
                    LinkDiscipline::Fifo => {
                        let q = &mut self.links[dest.index()];
                        q.push_back(id);
                        // Link push (FIFO): only a push onto an empty queue
                        // creates a new head.
                        if q.len() == 1 && !dest_down {
                            re_enabled = true;
                            self.enabled.insert(dest.index(), Activation::arrival(id));
                        }
                    }
                    LinkDiscipline::Lifo => {
                        let q = &mut self.links[dest.index()];
                        q.push_front(id);
                        // Link push (LIFO ablation): the mover overtakes;
                        // the displaced head (if any) is no longer enabled.
                        // On a down edge the old head was already disabled
                        // and the new one stays out of the set.
                        if !dest_down {
                            // The displaced head's arrival shares the
                            // mover's key (both are keyed by `dest`), so
                            // remove+insert reuses the hole in place.
                            displaced = q.get(1).copied();
                            if displaced.is_some() {
                                self.enabled.remove(dest.index());
                            }
                            re_enabled = true;
                            self.enabled.insert(dest.index(), Activation::arrival(id));
                        }
                    }
                }
                self.sync_down_candidate(dest.index());
                self.set_place(idx, Place::InTransit { to: dest });
                self.set_idle(idx, Idle::Ready);
                self.metrics.record_move(id);
                if let Some(trace) = &mut self.trace {
                    trace.push(Event::Moved {
                        agent: id,
                        from: node,
                        to: dest,
                    });
                }
            }
            Next::Stay(idle) => {
                if activation.arrival {
                    self.staying[node.index()].push(id);
                }
                self.set_place(idx, Place::Staying { at: node });
                self.set_idle(idx, idle);
                // Idle transition: `Ready` re-enables the agent;
                // `Suspended` wakes only on a non-empty inbox (always empty
                // here — the inbox was drained this step and broadcasts
                // exclude self — but checked rather than assumed); `Halted`
                // leaves the agent out of the set for good.
                let wake = match idle {
                    Idle::Ready => true,
                    Idle::Suspended => !self.inboxes[idx].is_empty(),
                    Idle::Halted => false,
                };
                if wake {
                    re_enabled = true;
                    self.enabled.insert(self.n + idx, Activation::wake(id));
                }
                if let Some(trace) = &mut self.trace {
                    trace.push(Event::Stayed {
                        agent: id,
                        node,
                        idle,
                    });
                }
            }
        }
        self.enabled.flush();
        StepUndo {
            activation,
            node,
            prev_behavior,
            prev_place,
            prev_idle,
            released_token: action.release_token,
            drained,
            broadcast,
            left_staying_pos,
            moved: action.next == Next::Move,
            displaced,
            successor_enabled,
            re_enabled,
            prev_peak_memory_bits,
            phase,
            phase_new,
            crashed: false,
            prev_down_edge: None,
        }
    }

    /// Reverses the action recorded in `undo`, restoring the ring to the
    /// exact state before the matching [`Ring::apply`] — see `apply` for
    /// the contract (LIFO consumption; the ring must be in the state the
    /// `apply` left it in).
    pub fn undo(&mut self, undo: StepUndo<B>) {
        // Edge-fault moves reverse through their own tiny path: restore
        // the previous down state and budget, then re-derive the affected
        // head arrival and every fault move from the restored state.
        if undo.activation.is_fault() {
            let StepUndo {
                activation,
                node,
                prev_down_edge,
                ..
            } = undo;
            match activation.fault.expect("fault undo") {
                EdgeFault::Down(v) => {
                    debug_assert_eq!(node, v);
                    debug_assert_eq!(self.down_edge, Some(v));
                    self.down_edge = prev_down_edge;
                    self.outages_left += 1;
                }
                EdgeFault::Restore => {
                    debug_assert_eq!(self.down_edge, None);
                    debug_assert_eq!(prev_down_edge, Some(node));
                    self.down_edge = prev_down_edge;
                }
            }
            self.steps -= 1;
            // The toggled edge's head arrival flips with the edge.
            if let Some(&head) = self.links[node.index()].front() {
                let act = Activation::arrival(head);
                let blocked = self.down_edge == Some(node);
                let have = self.enabled.contains(node.index(), act);
                if blocked && have {
                    self.enabled.remove(node.index());
                } else if !blocked && !have {
                    self.enabled.insert(node.index(), act);
                }
            }
            self.sync_all_fault_moves();
            self.enabled.flush();
            return;
        }
        let StepUndo {
            activation,
            node,
            prev_behavior,
            prev_place,
            prev_idle,
            released_token,
            drained,
            broadcast,
            left_staying_pos,
            moved,
            displaced,
            successor_enabled,
            re_enabled,
            prev_peak_memory_bits,
            phase,
            phase_new,
            crashed,
            prev_down_edge: _,
        } = undo;
        let id = activation.agent;
        let idx = id.index();

        // 5'. Reverse the move/stay (the last thing the step did). A
        // crash-stop did neither: it took the agent out of the staying set
        // and skipped stages 2–5, so only its stage-1 and crash
        // bookkeeping is reversed.
        if crashed {
            debug_assert!(self.crashed[idx], "undo out of order: agent not crashed");
            self.crashed[idx] = false;
        } else if moved {
            let dest = node.next(self.n);
            if re_enabled {
                self.enabled_remove_agent(id);
            }
            let q = &mut self.links[dest.index()];
            match self.discipline {
                LinkDiscipline::Fifo => {
                    let back = q.pop_back();
                    debug_assert_eq!(back, Some(id), "undo out of order: mover not at tail");
                }
                LinkDiscipline::Lifo => {
                    let front = q.pop_front();
                    debug_assert_eq!(front, Some(id), "undo out of order: mover not at head");
                    if let Some(d) = displaced {
                        debug_assert_eq!(q.front().copied(), Some(d));
                        self.enabled.insert(dest.index(), Activation::arrival(d));
                    }
                }
            }
            self.sync_down_candidate(dest.index());
            self.metrics.unrecord_move(id);
        } else {
            if re_enabled {
                self.enabled_remove_agent(id);
            }
            if activation.arrival {
                let popped = self.staying[node.index()].pop();
                debug_assert_eq!(popped, Some(id), "undo out of order: settler not last");
            }
        }
        if let Some(pos) = left_staying_pos {
            self.staying[node.index()].insert(pos, id);
        }
        self.set_place(idx, prev_place);
        self.set_idle(idx, prev_idle);

        // 4b'. Reverse the broadcast. Its receivers were the node's other
        // staying agents, a list 5' has just restored; a delivery enabled
        // its receiver exactly when it found a suspended agent with an
        // empty inbox, i.e. when popping it leaves one.
        if broadcast {
            let mut receivers = 0usize;
            for i in 0..self.staying[node.index()].len() {
                let a = self.staying[node.index()][i];
                if a == id {
                    continue;
                }
                let inbox = &mut self.inboxes[a.index()];
                let popped = inbox.pop_back();
                debug_assert!(
                    popped.is_some(),
                    "undo out of order: delivered message gone"
                );
                receivers += 1;
                if inbox.is_empty() && meta_idle(self.meta[a.index()]) == Idle::Suspended {
                    self.enabled_remove_agent(a);
                }
            }
            self.metrics.unrecord_broadcast(receivers);
        }

        // 4a'. Reverse the token release (for a crash-stop: the drop).
        if released_token {
            self.set_token_held(idx, true);
            self.tokens[node.index()] -= 1;
            self.metrics.unrecord_token_release();
        }

        // 3'. Reverse the computation bookkeeping.
        if !crashed {
            let tally = self
                .phases
                .iter_mut()
                .find(|t| t.name == phase)
                .expect("undo out of order: phase tally missing");
            tally.activations -= 1;
            if moved {
                tally.moves -= 1;
            }
            if phase_new {
                debug_assert_eq!(self.phases.last().map(|t| t.name), Some(phase));
                self.phases.pop();
            }
            self.metrics.unrecord_activation(id);
            self.metrics.set_peak_memory(prev_peak_memory_bits);
            self.behaviors[idx] = prev_behavior.expect("apply records the prev behavior");
        }
        self.steps -= 1;
        self.acted[idx] -= 1;

        // 2'. Restore the drained inbox (FIFO order preserved).
        debug_assert!(
            self.inboxes[idx].is_empty(),
            "undo out of order: inbox refilled"
        );
        self.inboxes[idx].extend(drained);

        // 1'. Reverse the link pop: the agent returns to its queue head,
        // displacing the successor we enabled.
        if activation.arrival {
            if let Some(s) = successor_enabled {
                self.enabled_remove_agent(s);
            }
            self.links[node.index()].push_front(id);
            self.sync_down_candidate(node.index());
        }

        // 0'. The original activation is enabled again.
        let key = if activation.arrival {
            node.index()
        } else {
            self.n + idx
        };
        self.enabled.insert(key, activation);
        self.enabled.flush();
    }

    /// Runs asynchronously under `scheduler` until quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StepLimitExceeded`] if `limits.max_steps` is hit
    /// first, and [`SimError::SchedulerOutOfRange`] on a buggy scheduler.
    pub fn run(
        &mut self,
        scheduler: &mut dyn Scheduler,
        limits: RunLimits,
    ) -> Result<RunOutcome, SimError> {
        let start_steps = self.steps;
        loop {
            if self.enabled.is_empty() {
                return Ok(RunOutcome {
                    quiescent: true,
                    steps: self.steps - start_steps,
                    rounds: None,
                    metrics: self.metrics.clone(),
                });
            }
            if self.steps - start_steps >= limits.max_steps {
                return Err(SimError::StepLimitExceeded {
                    limit: limits.max_steps,
                });
            }
            // The incremental set is handed to the scheduler as-is: no
            // per-step rescan, no allocation. Finite schedules (Replay)
            // end with a typed error instead of a panic.
            let chosen = match scheduler.try_select(self.enabled.as_slice()) {
                Ok(chosen) => chosen,
                Err(e) => {
                    return Err(SimError::ScheduleExhausted {
                        consumed: e.consumed as u64,
                    })
                }
            };
            if chosen >= self.enabled.len() {
                return Err(SimError::SchedulerOutOfRange {
                    chosen,
                    enabled: self.enabled.len(),
                });
            }
            self.step(self.enabled.as_slice()[chosen]);
        }
    }

    /// Runs in lock-step rounds until quiescence, returning the number of
    /// rounds — the paper's **ideal time** (each hop or wake takes at most
    /// one time unit; local computation is free).
    ///
    /// In each round, the activations enabled *at the start of the round*
    /// are executed once each, in agent-id order. Agents that become
    /// enabled mid-round (e.g. by arriving behind another agent) wait for
    /// the next round, charging them the allowed one unit of waiting.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] if `limits.max_rounds` is
    /// hit before quiescence.
    pub fn run_synchronous(&mut self, limits: RunLimits) -> Result<RunOutcome, SimError> {
        let start_steps = self.steps;
        let mut rounds: u64 = 0;
        loop {
            if self.enabled.is_empty() {
                return Ok(RunOutcome {
                    quiescent: true,
                    steps: self.steps - start_steps,
                    rounds: Some(rounds),
                    metrics: self.metrics.clone(),
                });
            }
            if rounds >= limits.max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: limits.max_rounds,
                });
            }
            self.step_round();
            rounds += 1;
        }
    }

    /// Executes one lock-step round — the unit [`Ring::run_synchronous`]
    /// counts: the activations enabled at the start of the round, each
    /// once, in agent-id order. Agents enabled mid-round wait for the next
    /// round. Edge-fault moves are adversary choices and a synchronous
    /// round is not an adversary: ideal time is measured on a fault-free
    /// network, so they are never played here (planned crash-stops still
    /// fire — they live inside [`Ring::step`], not in the move set).
    pub fn step_round(&mut self) {
        // Snapshot the incremental set (no rescan).
        let mut enabled: Vec<Activation> = self
            .enabled
            .as_slice()
            .iter()
            .copied()
            .filter(|a| !a.is_fault())
            .collect();
        enabled.sort_by_key(|a| a.agent.index());
        for act in enabled {
            // Re-validate: the activation may have been disabled by an
            // earlier action this round (under the LIFO ablation, a
            // smaller-id agent overtaking the queue head). It cannot
            // have been disabled *and re-enabled in the same form*
            // within one round — re-enabling an overtaken arrival
            // would require the overtaker to arrive too, i.e. act
            // twice in one round, and a snapshot holds at most one
            // activation per agent. Under FIFO the check is provably
            // vacuous (heads only change by their own arrival; ready
            // agents stay ready; inboxes only grow mid-round), so no
            // activation is ever double-charged within a round —
            // `tests/sync_round_semantics.rs` pins both facts.
            if self.is_enabled(act) {
                self.step(act);
            }
        }
    }

    /// A clone with tracing stripped — the working copy the exhaustive
    /// explorer steps in place. Expansion must run traceless (the bounded
    /// trace buffer is lossy, so [`Ring::apply`] refuses to record into
    /// it) and a trace is schedule-history, not configuration, so carrying
    /// it through millions of expansions would be pure dead weight.
    pub(crate) fn clone_for_exploration(&self) -> Ring<B>
    where
        B: Clone,
        B::Message: Clone,
    {
        let mut clone = self.clone();
        clone.trace = None;
        clone
    }

    /// Whether a specific activation (same agent, same form) is currently
    /// enabled — an `O(1)` lookup in the incremental set. This is the
    /// predicate external round drivers (e.g. the vis space-time capture)
    /// should use instead of re-deriving enablement from queue state.
    pub fn is_enabled(&self, act: Activation) -> bool {
        self.enabled.contains(self.enabled_key_of(act), act)
    }

    /// Number of pending messages for an agent.
    pub fn inbox_len(&self, id: AgentId) -> usize {
        self.inboxes[id.index()].len()
    }

    /// Whether the agent still holds its token.
    pub fn token_held(&self, id: AgentId) -> bool {
        self.meta[id.index()] & TOKEN_HELD != 0
    }

    /// Borrowed view of the staying sets `P = (p_0, …, p_{n-1})`, in list
    /// order (the order agents settled at the node). Allocation-free;
    /// callers needing an owned snapshot (e.g. [`Ring::configuration`])
    /// copy what they keep.
    pub fn staying_sets(&self) -> &[Vec<AgentId>] {
        &self.staying
    }

    /// Borrowed view of the link queues `Q = (q_0, …, q_{n-1})`, head
    /// first. Allocation-free, like [`Ring::staying_sets`]; the queues are
    /// exposed as the engine's own `VecDeque`s.
    pub fn link_queues(&self) -> &[VecDeque<AgentId>] {
        &self.links
    }

    /// Hashes the schedule-relevant state: tokens, staying sets, link
    /// queues, inboxes, agent places/idle/token flags and behavior states —
    /// excluding metrics, traces and step counters, which do not influence
    /// future behavior. Used by the exhaustive explorer
    /// ([`crate::explore`]) to deduplicate configurations.
    pub fn hash_schedule_state<H: std::hash::Hasher>(&self, h: &mut H)
    where
        B: std::hash::Hash,
        B::Message: std::hash::Hash,
    {
        use std::hash::Hash;
        self.tokens.hash(h);
        self.staying.hash(h);
        self.links.hash(h);
        self.inboxes.hash(h);
        for (idx, behavior) in self.behaviors.iter().enumerate() {
            let word = self.meta[idx];
            behavior.hash(h);
            meta_place(word).hash(h);
            meta_idle(word).hash(h);
            (word & TOKEN_HELD != 0).hash(h);
        }
        // Fault state is schedule-relevant (it gates future crash firings
        // and edge moves) but hashed only under a non-empty plan, so
        // fault-free hashes are bit-identical to the pre-fault engine.
        if !self.faults.is_empty() {
            self.crashed.hash(h);
            for c in self.faults.crashes() {
                // Activations *remaining* until the crash, not the raw
                // lifetime count: two states whose future behavior agrees
                // must hash alike even if their pasts differ.
                if !self.crashed[c.agent.index()] {
                    c.after.saturating_sub(self.acted[c.agent.index()]).hash(h);
                }
            }
            self.down_edge.hash(h);
            self.outages_left.hash(h);
        }
    }

    /// One rotation-invariant 64-bit summary ("symbol") per node of the
    /// schedule-relevant state local to that node: the token count, the
    /// staying agents in list order and the in-transit agents in queue
    /// order, each agent contributing its behavior state, idle state,
    /// token flag and inbox contents.
    ///
    /// Deliberately excluded, so that the symbol of a node depends only on
    /// what the model can observe there:
    ///
    /// * **agent identities** — agents are anonymous; two configurations
    ///   that differ by a relabeling of agents with identical local data
    ///   produce identical symbols (the same abstraction
    ///   [`hash_schedule_state`](Ring::hash_schedule_state) does *not*
    ///   make);
    /// * **absolute node indices** (incl. `home`) — nodes are anonymous,
    ///   so rotating the ring by `r` rotates the symbol sequence by `r`
    ///   and changes no individual symbol:
    ///   `ring.rotated(r).node_symbols() == shift(ring.node_symbols(), r)`;
    /// * metrics, traces and step counters, as for
    ///   [`hash_schedule_state`](Ring::hash_schedule_state).
    ///
    /// This is the raw material of the exhaustive explorer's rotation
    /// quotient: see [`crate::canonical`].
    pub fn node_symbols(&self) -> Vec<u64>
    where
        B: std::hash::Hash,
        B::Message: std::hash::Hash,
    {
        (0..self.n).map(|v| self.node_symbol(v)).collect()
    }

    /// The rotation-invariant symbol of a single node — see
    /// [`node_symbols`](Ring::node_symbols) for what it covers. A node's
    /// symbol depends only on state *local* to that node (its token count
    /// and the data of agents staying there or in transit towards it), so
    /// a step invalidates at most the two symbols of the node acted at and
    /// the move destination — the property the explorer's incremental
    /// fingerprint cache exploits to patch rather than rebuild the symbol
    /// sequence.
    pub fn node_symbol(&self, v: usize) -> u64
    where
        B: std::hash::Hash,
        B::Message: std::hash::Hash,
    {
        use crate::canonical::MixHasher;
        use std::hash::{Hash, Hasher};
        let faulted = !self.faults.is_empty();
        let hash_agent = |h: &mut MixHasher, idx: usize| {
            let word = self.meta[idx];
            self.behaviors[idx].hash(h);
            meta_idle(word).hash(h);
            (word & TOKEN_HELD != 0).hash(h);
            self.inboxes[idx].hash(h);
            // Under a fault plan, an agent's pending crash clock is part
            // of its anonymous local data (remaining activations, not the
            // raw count — see `hash_schedule_state`). Crashed agents are
            // in no list, so they never reach this closure.
            if faulted {
                match self.faults.crash_after(AgentId(idx)) {
                    Some(after) if !self.crashed[idx] => {
                        1u8.hash(h);
                        after.saturating_sub(self.acted[idx]).hash(h);
                    }
                    _ => 0u8.hash(h),
                }
            }
        };
        // The explorer re-derives symbols once per generated child state,
        // so this uses the cheap multiply–xorshift hasher rather than a
        // SipHash pass — see [`crate::canonical`].
        let mut h = MixHasher::default();
        self.tokens[v].hash(&mut h);
        self.staying[v].len().hash(&mut h);
        for &a in &self.staying[v] {
            hash_agent(&mut h, a.index());
        }
        self.links[v].len().hash(&mut h);
        for &a in &self.links[v] {
            hash_agent(&mut h, a.index());
        }
        if faulted {
            // The down edge rotates with the ring, so it belongs to the
            // node symbol, not the rotation-invariant seal.
            (self.down_edge == Some(NodeId(v))).hash(&mut h);
        }
        h.finish()
    }

    /// A rotation-invariant word summarizing the *global* fault state
    /// that no node symbol captures — today exactly the remaining
    /// dynamic-edge budget. `0` under an empty plan (so fault-free
    /// canonical fingerprints are bit-identical to the pre-fault engine);
    /// always non-zero otherwise. The explorer mixes it into canonical
    /// fingerprints so states differing only in remaining outages are
    /// not conflated.
    pub fn fault_seal_word(&self) -> u64 {
        if self.faults.is_empty() {
            return 0;
        }
        use crate::canonical::MixHasher;
        use std::hash::{Hash, Hasher};
        let mut h = MixHasher::default();
        self.outages_left.hash(&mut h);
        h.finish() | 1
    }

    /// Observer-side rotation of the whole configuration: node `r` of
    /// `self` becomes node `0` of the result (agents, tokens, staying
    /// sets, link queues and homes move along; agent ids are unchanged).
    ///
    /// The rotated ring is a fully functional engine — its enabled set is
    /// rebuilt in canonical order, so it can be stepped and explored like
    /// any other ring. Used by symmetry diagnostics and the
    /// canonicalization tests ([`crate::canonical`]); the model itself
    /// never rotates (nodes are anonymous, so a rotation is unobservable
    /// to the agents — which is exactly the property the tests pin down).
    ///
    /// # Panics
    ///
    /// Panics if `r >= n`.
    pub fn rotated(&self, r: usize) -> Ring<B>
    where
        B: Clone,
        B::Message: Clone,
    {
        assert!(r < self.n, "rotation {r} out of range for {} nodes", self.n);
        let n = self.n;
        let map = |node: NodeId| NodeId((node.index() + n - r) % n);
        let rotate_vec = |v: &[Vec<AgentId>]| -> Vec<Vec<AgentId>> {
            (0..n).map(|i| v[(i + r) % n].clone()).collect()
        };
        let staying: Vec<Vec<AgentId>> = rotate_vec(&self.staying);
        let links: Vec<VecDeque<AgentId>> =
            (0..n).map(|i| self.links[(i + r) % n].clone()).collect();
        let meta: Vec<u32> = self
            .meta
            .iter()
            .map(|&word| {
                let place = match meta_place(word) {
                    Place::Staying { at } => Place::Staying { at: map(at) },
                    Place::InTransit { to } => Place::InTransit { to: map(to) },
                };
                meta_word(place, meta_idle(word), word & TOKEN_HELD != 0)
            })
            .collect();
        let mut rotated = Ring {
            n,
            tokens: (0..n).map(|i| self.tokens[(i + r) % n]).collect(),
            staying,
            links,
            inboxes: self.inboxes.clone(),
            behaviors: self.behaviors.clone(),
            meta,
            homes: self.homes.iter().map(|&h| map(h)).collect(),
            // Placeholder; replaced by the rescan-derived rebuild below.
            enabled: EnabledSet::new(self.meta.len()),
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            phases: self.phases.clone(),
            steps: self.steps,
            discipline: self.discipline,
            faults: self.faults.clone(),
            acted: self.acted.clone(),
            crashed: self.crashed.clone(),
            down_edge: self.down_edge.map(map),
            outages_left: self.outages_left,
        };
        rotated.enabled = rotated.rebuilt_enabled();
        rotated
    }

    /// Replaces the incremental enabled set with a rescan-derived rebuild
    /// — used by constructors of derived rings and by
    /// [`PackedState::restore_into`](crate::packed::PackedState::restore_into)
    /// after overwriting the configuration wholesale.
    pub(crate) fn refresh_enabled(&mut self) {
        self.enabled = self.rebuilt_enabled();
    }

    /// Builds a fresh [`EnabledSet`] for the current configuration from
    /// the [`enabled_rescan`](Ring::enabled_rescan) reference
    /// implementation — the single source of truth for the enablement
    /// predicate, so constructors of derived rings (e.g.
    /// [`Ring::rotated`]) cannot drift from `step`'s incremental updates.
    fn rebuilt_enabled(&self) -> EnabledSet {
        // The rescan emits arrivals by destination node, then wakes by
        // agent id, then fault moves — ascending keys, so each insert
        // lands at the tail.
        let k = self.meta.len();
        let mut enabled = EnabledSet::new(k);
        for act in self.enabled_rescan() {
            let key = match act.fault {
                Some(EdgeFault::Down(v)) => self.n + k + v.index(),
                Some(EdgeFault::Restore) => 2 * self.n + k,
                None if act.arrival => {
                    let word = self.meta[act.agent.index()];
                    debug_assert!(word & IN_TRANSIT != 0, "arrival implies in transit");
                    (word >> 16) as usize
                }
                None => self.n + act.agent.index(),
            };
            enabled.insert(key, act);
        }
        enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{OneAtATime, Random, RoundRobin};

    /// Walks `hops` hops after releasing the token, then halts.
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
            usize::BITS as usize + 1
        }
    }

    fn walker_ring(n: usize, homes: Vec<usize>, hops: usize) -> Ring<Walker> {
        let init = InitialConfig::new(n, homes).unwrap();
        Ring::new(&init, |_| Walker {
            hops,
            released: false,
        })
    }

    #[test]
    fn walkers_reach_expected_nodes() {
        let mut ring = walker_ring(10, vec![0, 5], 3);
        let out = ring
            .run(&mut RoundRobin::new(), RunLimits::default())
            .unwrap();
        assert!(out.quiescent);
        assert_eq!(ring.staying_positions(), Some(vec![3, 8]));
        assert_eq!(out.metrics.total_moves(), 6);
        // Tokens were dropped at the homes.
        assert_eq!(ring.tokens()[0], 1);
        assert_eq!(ring.tokens()[5], 1);
    }

    #[test]
    fn wraparound_moves() {
        let mut ring = walker_ring(4, vec![2], 6);
        ring.run(&mut RoundRobin::new(), RunLimits::default())
            .unwrap();
        assert_eq!(ring.staying_positions(), Some(vec![0]));
    }

    #[test]
    fn synchronous_rounds_equal_ideal_time() {
        // A single walker doing h hops: 1 initial arrival action + h hops,
        // each in its own round ⇒ h+1 rounds.
        let mut ring = walker_ring(16, vec![0], 10);
        let out = ring.run_synchronous(RunLimits::default()).unwrap();
        assert_eq!(out.rounds, Some(11));
    }

    #[test]
    fn fifo_no_overtaking() {
        // Two walkers, one directly behind the other, both walking 8 hops on
        // a 4-node ring: the trailing one can never pass the leading one.
        // We verify by checking the final nodes are distinct and ordered.
        let mut ring = walker_ring(4, vec![0, 1], 8);
        let out = ring
            .run(&mut Random::seeded(42), RunLimits::default())
            .unwrap();
        assert!(out.quiescent);
        let pos = ring.staying_positions().unwrap();
        assert_eq!(pos, vec![0, 1]); // 8 hops each, mod 4 — same homes.
    }

    #[test]
    fn one_at_a_time_blocks_behind_unstarted_agent() {
        // Agent 0 wants to walk the full ring but agent 1's home buffer
        // still holds agent 1; agent 0 queues behind it and cannot arrive
        // until agent 1 acts. The OneAtATime adversary is forced to let
        // agent 1 act eventually — quiescence must still be reached.
        let mut ring = walker_ring(6, vec![0, 3], 6);
        let out = ring
            .run(&mut OneAtATime::new(), RunLimits::default())
            .unwrap();
        assert!(out.quiescent);
        assert_eq!(ring.staying_positions(), Some(vec![0, 3]));
    }

    /// Sends a ping on its first action; a staying receiver echoes by
    /// suspending forever after recording it.
    #[derive(Default)]
    struct Greeter {
        greeted: bool,
        inbox_seen: usize,
    }

    impl Behavior for Greeter {
        type Message = u8;

        fn act(&mut self, obs: &Observation<'_, u8>) -> Action<u8> {
            self.inbox_seen += obs.messages.len();
            if !self.greeted {
                self.greeted = true;
                // Stay suspended; broadcast a greeting to co-located agents.
                return Action::suspending()
                    .with_token_release(true)
                    .with_broadcast(7);
            }
            Action::suspending()
        }

        fn memory_bits(&self) -> usize {
            16
        }
    }

    #[test]
    fn broadcast_reaches_only_staying_agents() {
        // Both agents start at the heads of different home buffers; the
        // first to act broadcasts at its node where nobody stays — zero
        // receivers. Both end suspended; no messages pending.
        let init = InitialConfig::new(4, vec![0, 2]).unwrap();
        let mut ring: Ring<Greeter> = Ring::new(&init, |_| Greeter::default());
        let out = ring
            .run(&mut RoundRobin::new(), RunLimits::default())
            .unwrap();
        assert!(out.quiescent);
        assert!(ring.all_suspended());
        assert!(ring.inboxes_empty());
        assert_eq!(ring.behavior(AgentId(0)).inbox_seen, 0);
        assert_eq!(ring.behavior(AgentId(1)).inbox_seen, 0);
        assert_eq!(out.metrics.messages_sent(), 0);
    }

    /// Walks to the next token node and greets whoever stays there.
    struct WalkAndGreet {
        released: bool,
        done: bool,
    }

    impl Behavior for WalkAndGreet {
        type Message = u8;

        fn act(&mut self, obs: &Observation<'_, u8>) -> Action<u8> {
            if !self.released {
                self.released = true;
                return Action::moving().with_token_release(true);
            }
            if self.done {
                return Action::suspending();
            }
            if obs.has_token() {
                self.done = true;
                Action::suspending().with_broadcast(9)
            } else {
                Action::moving()
            }
        }

        fn memory_bits(&self) -> usize {
            2
        }
    }

    #[test]
    fn suspended_agent_wakes_on_message() {
        // Agent 0 at node 0, agent 1 at node 1. Agent 1 releases and walks to
        // the next token node (node 0, where agent 0 sits after its first
        // action... agent 0 walks too). Use a simpler check: all agents end
        // suspended and anyone who received a message was woken (extra act).
        let init = InitialConfig::new(6, vec![0, 3]).unwrap();
        let mut ring: Ring<WalkAndGreet> = Ring::new(&init, |_| WalkAndGreet {
            released: false,
            done: false,
        });
        let out = ring
            .run(&mut Random::seeded(1), RunLimits::default())
            .unwrap();
        assert!(out.quiescent);
        assert!(ring.all_suspended());
        assert!(ring.inboxes_empty(), "wake-ups must drain inboxes");
    }

    #[test]
    #[should_panic(expected = "released its token twice")]
    fn double_token_release_panics() {
        struct DoubleRelease;
        impl Behavior for DoubleRelease {
            type Message = ();
            fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
                Action::staying(Idle::Ready).with_token_release(true)
            }
            fn memory_bits(&self) -> usize {
                1
            }
        }
        let init = InitialConfig::new(2, vec![0]).unwrap();
        let mut ring: Ring<DoubleRelease> = Ring::new(&init, |_| DoubleRelease);
        let enabled = ring.enabled();
        ring.step(enabled[0]);
        let enabled = ring.enabled();
        ring.step(enabled[0]); // second release — must panic
    }

    #[test]
    fn step_limit_is_enforced() {
        struct Spinner;
        impl Behavior for Spinner {
            type Message = ();
            fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
                Action::moving()
            }
            fn memory_bits(&self) -> usize {
                1
            }
        }
        let init = InitialConfig::new(3, vec![0]).unwrap();
        let mut ring: Ring<Spinner> = Ring::new(&init, |_| Spinner);
        let err = ring
            .run(&mut RoundRobin::new(), RunLimits::new(100, 100))
            .unwrap_err();
        assert_eq!(err, SimError::StepLimitExceeded { limit: 100 });
    }

    #[test]
    fn home_buffer_guarantees_first_action() {
        // The paper's §2.1 guarantee: an agent acts at its home before any
        // other agent visits it. Walker agents drop tokens at first action,
        // so whenever an agent arrives anywhere that is a home, the token is
        // already there. With hops = n every agent passes every home.
        let n = 8;
        let mut ring = walker_ring(n, vec![0, 1, 4, 6], n);
        ring.enable_trace(10_000);
        let out = ring
            .run(&mut Random::seeded(99), RunLimits::default())
            .unwrap();
        assert!(out.quiescent);
        // Verify from the trace: every arrival at one of the homes after the
        // first action there found a token.
        // (Indirect check: token counts are exactly 1 at each home.)
        for &h in &[0usize, 1, 4, 6] {
            assert_eq!(ring.tokens()[h], 1);
        }
        assert_eq!(out.metrics.total_moves(), 4 * n as u64);
    }
}
