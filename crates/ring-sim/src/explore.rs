//! Exhaustive schedule exploration — a bounded model checker for the ring
//! model.
//!
//! Random and adversarial schedulers *sample* executions; this module
//! *enumerates* them. Starting from `C_0`, it walks the full graph of
//! schedules (every enabled activation at every configuration), memoising
//! visited configurations, and checks a user predicate at every terminal
//! (quiescent) configuration.
//!
//! Two strong guarantees fall out of a successful exploration:
//!
//! * **safety** — every maximal execution ends in a configuration
//!   satisfying the predicate (e.g. Definition 1/2 uniform deployment);
//! * **termination under every schedule** — the explored state graph is
//!   acyclic (a cycle would be an infinite execution that never makes new
//!   progress, i.e. a livelock).
//!
//! Because the paper's schedules are *arbitrary fair* interleavings and
//! every finite execution prefix appears in the graph, exhaustive success
//! on an instance is a machine-checked proof of the algorithm's
//! correctness on that instance — far stronger than any number of random
//! runs.
//!
//! # The [`Explorer`] engine
//!
//! State counts explode with `n` and `k`; the engine fights back on two
//! fronts, configured through the [`Explorer`] builder:
//!
//! * **rotation symmetry reduction** ([`SymmetryMode::Rotation`], the
//!   default): nodes and agents are anonymous, so all `n` rotations of a
//!   configuration are behaviourally equivalent; the visited set stores
//!   one [`canonical_fingerprint`] per rotation class instead of `n`
//!   plain fingerprints. On an instance whose initial configuration has
//!   symmetry degree `l`, this cuts visited states by up to `l`×. See
//!   [`crate::canonical`] for the canonical form and the soundness
//!   argument; it requires the terminal predicate to be
//!   rotation-invariant (the Definition 1/2 predicates are). Reflection
//!   is deliberately *not* folded: the ring is unidirectional, so a
//!   mirrored configuration belongs to a different instance.
//! * **reversible, clone-free expansion**: children are generated with
//!   [`Ring::apply`]/[`Ring::undo`] — an exactly-invertible step that
//!   records only the mutated cells — so the DFS walks the whole space in
//!   one live ring (no per-child deep clone), and canonical fingerprints
//!   are maintained incrementally (only the ≤ 2 symbols a step touches
//!   are re-derived; the min-rotation is recomputed on the patched
//!   vector). The pre-0.5 clone-based DFS is retained verbatim as
//!   [`Explorer::run_serial_reference`], the differential oracle.
//!
//! Livelocks are detected as DFS back-edges on the current path. The
//! whole report is deterministic, and limits are exact: a limit of `N`
//! states errors iff the space exceeds `N` states.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use crate::agent::Behavior;
use crate::canonical::{canonical_fingerprint, fingerprint_of_symbols_sealed, plain_fingerprint};
use crate::engine::{Ring, StepUndo};
use crate::error::SimError;
use crate::scheduler::Activation;

/// Pass-through hasher for fingerprint-keyed sets and maps: fingerprints
/// are already well-mixed 64-bit hash outputs (SipHash for plain mode,
/// the multiply–xorshift seal for canonical mode), so re-hashing them
/// through SipHash on every visited-set probe — once per generated child
/// — is pure waste.
/// The retained clone-based reference engine keeps the default hasher:
/// it is preserved as the 0.4 baseline, probes and all.
#[derive(Default, Clone)]
pub(crate) struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint keys are u64 and hash via write_u64");
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp;
    }
}

pub(crate) type FpBuildHasher = std::hash::BuildHasherDefault<FpHasher>;

/// Limits for an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Maximum number of distinct configurations to visit.
    pub max_states: usize,
    /// Maximum schedule length (DFS tree depth / BFS layer count).
    pub max_depth: usize,
}

impl ExploreLimits {
    /// Explicit limits.
    pub fn new(max_states: usize, max_depth: usize) -> Self {
        ExploreLimits {
            max_states,
            max_depth,
        }
    }

    /// Scales limits to the instance, like
    /// [`RunLimits::for_instance`](crate::RunLimits::for_instance): the
    /// depth budget tracks the paper's `O(kn)` move bounds with a generous
    /// constant, the state budget grows linearly with `k` from the default
    /// 2 M baseline.
    ///
    /// The arithmetic **saturates** at `usize::MAX`, so extreme `k`/`n`
    /// values degrade to "effectively unlimited" instead of overflowing —
    /// the same fix PR 2 applied to the run side, where the debug build
    /// panicked and the release build silently wrapped to a tiny budget
    /// that aborted valid explorations.
    pub fn for_instance(n: usize, k: usize) -> Self {
        ExploreLimits {
            max_states: 2_000_000usize.saturating_mul(k.max(1)),
            max_depth: 400usize
                .saturating_mul(k)
                .saturating_mul(n)
                .saturating_add(10_000),
        }
    }
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_states: 2_000_000,
            max_depth: 1_000_000,
        }
    }
}

/// Which state-space quotient the explorer's visited set uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SymmetryMode {
    /// No reduction: every concrete configuration (up to the 64-bit
    /// fingerprint) is its own visited-set entry. Distinguishes rotations
    /// and supports terminal predicates that are *not*
    /// rotation-invariant.
    Off,
    /// Quotient by ring rotation (and the agent relabeling it induces):
    /// all `n` rotations of a configuration share one
    /// [`canonical_fingerprint`] entry. Sound for anonymous behaviors and
    /// rotation-invariant predicates — see [`crate::canonical`].
    #[default]
    Rotation,
}

/// Outcome of an exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct configurations visited (rotation classes under
    /// [`SymmetryMode::Rotation`]).
    pub states: usize,
    /// Distinct terminal (quiescent) configurations reached.
    pub terminals: usize,
    /// Deepest schedule depth attempted: the length of the longest DFS
    /// path. Deterministic, but a property of the DFS spanning tree
    /// rather than of the state graph, so it is excluded from the
    /// differential-identity guarantees (the reference engine expands
    /// siblings in the opposite order).
    pub max_depth_seen: usize,
    /// Fingerprints of the terminal configurations, sorted ascending —
    /// the key to membership checks such as "does every terminal reached
    /// by a sampled run appear in the exhaustive terminal set?"
    /// ([`ExploreReport::contains_terminal`]).
    pub terminal_fingerprints: Vec<u64>,
    /// Back/cross-edge diagnostic: transitions whose target configuration
    /// had already been visited (diamonds from commuting activations, and
    /// — under symmetry reduction — rotated re-encounters). Equal to
    /// `edges − (states − 1)`, and identical between the engines.
    pub merge_edges: u64,
    /// Peak count of *live* states the engine held at once: the deepest
    /// stack of non-terminal states on the DFS path (root included).
    /// Like [`max_depth_seen`](ExploreReport::max_depth_seen) it is
    /// deterministic but spanning-tree-shaped, and excluded from the
    /// differential-identity guarantees.
    pub peak_frontier: usize,
    /// Fingerprint of the canonical instance key this report answers
    /// (`InstanceKey::fingerprint` in `ringdeploy-analysis`), stamped by
    /// batch/service layers so cache identity is auditable from the
    /// report alone. `None` for ad-hoc explorations. Hex-encoded in
    /// JSON.
    pub instance_fingerprint: Option<u64>,
}

impl ExploreReport {
    /// Whether `fingerprint` (from [`canonical_fingerprint`] or
    /// [`plain_fingerprint`], matching the [`SymmetryMode`] the
    /// exploration ran under) is one of the terminal configurations.
    pub fn contains_terminal(&self, fingerprint: u64) -> bool {
        self.terminal_fingerprints
            .binary_search(&fingerprint)
            .is_ok()
    }
}

#[cfg(feature = "serde")]
mod json_impls {
    use super::ExploreReport;
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for ExploreReport {
        /// Scalar fields only: the terminal fingerprint list (potentially
        /// thousands of entries) stays a programmatic API; JSON reports
        /// carry its cardinality as `terminals`.
        fn to_json(&self) -> Json {
            Json::object([
                ("states", self.states.to_json()),
                ("terminals", self.terminals.to_json()),
                ("max_depth_seen", self.max_depth_seen.to_json()),
                ("merge_edges", self.merge_edges.to_json()),
                ("peak_frontier", self.peak_frontier.to_json()),
                (
                    "instance_fingerprint",
                    // Hex-encoded: fingerprints use all 64 bits, JSON
                    // numbers only round-trip 53.
                    self.instance_fingerprint
                        .map(|fp| format!("{fp:016x}"))
                        .to_json(),
                ),
            ])
        }
    }

    impl FromJson for ExploreReport {
        /// Inverse of the scalar encoding; the terminal fingerprint list
        /// is not serialized (see [`ToJson`] above) and decodes empty.
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            Ok(ExploreReport {
                states: json.field("states")?,
                terminals: json.field("terminals")?,
                max_depth_seen: json.field("max_depth_seen")?,
                terminal_fingerprints: Vec::new(),
                merge_edges: json.field("merge_edges")?,
                peak_frontier: json.field("peak_frontier")?,
                instance_fingerprint: {
                    let hex: Option<String> = json.optional_field("instance_fingerprint")?;
                    hex.map(|hex| {
                        u64::from_str_radix(&hex, 16).map_err(|_| {
                            JsonError::Decode(format!("bad instance_fingerprint hex `{hex}`"))
                        })
                    })
                    .transpose()?
                },
            })
        }
    }
}

/// Failures of an exhaustive exploration.
pub enum ExploreError<B: Behavior + Clone>
where
    B::Message: Clone,
{
    /// A terminal configuration violates the predicate; the offending ring
    /// is returned for inspection.
    ///
    /// The returned ring's *configuration* (tokens, places, queues,
    /// inboxes, behavior states, enabled set) is exactly the violating
    /// state, and its metrics/phase/step bookkeeping is the history of
    /// the DFS path that reached it.
    PredicateViolated {
        /// The violating quiescent configuration.
        ring: Box<Ring<B>>,
        /// Schedule depth at which it was reached.
        depth: usize,
    },
    /// A configuration repeats along one schedule: an infinite execution
    /// (livelock) exists.
    CycleDetected {
        /// Schedule depth at which the repeat was found: the DFS path
        /// returned to a state it is still expanding.
        depth: usize,
    },
    /// `max_states` or `max_depth` exceeded before the space was covered.
    LimitExceeded(SimError),
}

/// The shape of an [`ExploreError`] without the embedded ring — `Clone` +
/// `Eq`, for batch surfaces and reports that must not be generic over the
/// behavior type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreErrorKind {
    /// See [`ExploreError::PredicateViolated`].
    PredicateViolated {
        /// Schedule depth at which the violation was reached.
        depth: usize,
    },
    /// See [`ExploreError::CycleDetected`].
    CycleDetected {
        /// Schedule depth at which the repeat was found.
        depth: usize,
    },
    /// See [`ExploreError::LimitExceeded`].
    LimitExceeded(SimError),
}

impl std::fmt::Display for ExploreErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreErrorKind::PredicateViolated { depth } => {
                write!(
                    f,
                    "terminal configuration at depth {depth} violates the predicate"
                )
            }
            ExploreErrorKind::CycleDetected { depth } => {
                write!(
                    f,
                    "configuration repeats at depth {depth}: livelock possible"
                )
            }
            ExploreErrorKind::LimitExceeded(e) => write!(f, "exploration limits exceeded: {e}"),
        }
    }
}

impl std::error::Error for ExploreErrorKind {}

impl<B: Behavior + Clone> ExploreError<B>
where
    B::Message: Clone,
{
    /// The non-generic shape of this error (drops the embedded ring).
    pub fn kind(&self) -> ExploreErrorKind {
        match self {
            ExploreError::PredicateViolated { depth, .. } => {
                ExploreErrorKind::PredicateViolated { depth: *depth }
            }
            ExploreError::CycleDetected { depth } => {
                ExploreErrorKind::CycleDetected { depth: *depth }
            }
            ExploreError::LimitExceeded(e) => ExploreErrorKind::LimitExceeded(e.clone()),
        }
    }
}

impl<B: Behavior + Clone> std::fmt::Display for ExploreError<B>
where
    B::Message: Clone,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.kind().fmt(f)
    }
}

impl<B: Behavior + Clone> std::fmt::Debug for ExploreError<B>
where
    B::Message: Clone,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The embedded Ring is not Debug; render the human description.
        write!(f, "ExploreError({self})")
    }
}

impl<B: Behavior + Clone> std::error::Error for ExploreError<B> where B::Message: Clone {}

/// Exhaustively explores every schedule of `ring`, checking `terminal_ok`
/// at each quiescent configuration — the classic entry point, equivalent
/// to [`Explorer::run`] with [`SymmetryMode::Off`].
///
/// Kept with its original signature (and its original semantics — no
/// symmetry quotient, so predicates need not be rotation-invariant);
/// scaling work goes through [`Explorer`].
///
/// # Errors
///
/// See [`ExploreError`].
pub fn explore_all_schedules<B>(
    ring: &Ring<B>,
    limits: ExploreLimits,
    terminal_ok: impl FnMut(&Ring<B>) -> bool,
) -> Result<ExploreReport, ExploreError<B>>
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    Explorer::new()
        .limits(limits)
        .symmetry(SymmetryMode::Off)
        .run(ring, terminal_ok)
}

/// Saved pre-step symbols of the ≤ 2 nodes one step touched — what
/// [`FingerprintCache::revert`] needs to roll the cache back alongside
/// [`Ring::undo`]: `(node, old symbol)` pairs.
#[derive(Clone, Copy)]
pub(crate) struct SymbolPatch {
    slots: [(usize, u64); 2],
    len: usize,
}

impl SymbolPatch {
    const EMPTY: SymbolPatch = SymbolPatch {
        slots: [(0, 0); 2],
        len: 0,
    };

    fn push(&mut self, slot: usize, old: u64) {
        self.slots[self.len] = (slot, old);
        self.len += 1;
    }
}

/// The explorer's incremental fingerprint state.
///
/// Under [`SymmetryMode::Rotation`] the per-node symbol vector is cached
/// and maintained across [`Ring::apply`]/[`Ring::undo`]: a step can only
/// change the symbols of the node it acted at and (for a move) the
/// destination node — symbols are node-local by construction
/// ([`Ring::node_symbol`]) — so the cache re-derives at most two symbols
/// per child and recomputes the minimal rotation of the patched vector
/// (progressive candidate elimination — see
/// [`ringdeploy_seq::min_rotation_elim`]). That
/// turns the per-child `O(n)` symbol extraction (`n` hash rounds over the
/// full local state) into `O(touched)`, leaving only the cheap `O(n)`
/// scan over bare `u64`s for min-rotation + sealing.
///
/// Under [`SymmetryMode::Off`] there is nothing to cache: the plain
/// fingerprint hashes the whole configuration by definition.
///
/// Shared with the worst-case schedule search ([`crate::adversary`]),
/// which walks the same reversible engine with the same incremental
/// fingerprints.
pub(crate) enum FingerprintCache {
    Plain,
    Rotation {
        symbols: Vec<u64>,
        /// Reused min-rotation candidate buffer
        /// ([`ringdeploy_seq::min_rotation_elim`]) — no allocation per
        /// fingerprint in the hot path.
        minrot: Vec<usize>,
    },
}

impl FingerprintCache {
    pub(crate) fn new<B>(mode: SymmetryMode, ring: &Ring<B>) -> Self
    where
        B: Behavior + Hash,
        B::Message: Hash,
    {
        match mode {
            SymmetryMode::Off => FingerprintCache::Plain,
            SymmetryMode::Rotation => FingerprintCache::Rotation {
                symbols: ring.node_symbols(),
                minrot: Vec::new(),
            },
        }
    }

    /// The fingerprint of the ring's current state (which the cache must
    /// be in sync with).
    pub(crate) fn fingerprint<B>(&mut self, ring: &Ring<B>) -> u64
    where
        B: Behavior + Hash,
        B::Message: Hash,
    {
        match self {
            FingerprintCache::Plain => plain_fingerprint(ring),
            FingerprintCache::Rotation { symbols, minrot } => fingerprint_of_symbols_sealed(
                ring.ring_size(),
                ring.agent_count(),
                symbols,
                minrot,
                ring.fault_seal_word(),
            ),
        }
    }

    /// Called right after [`Ring::apply`]: refreshes the symbols of the
    /// touched nodes, returning their previous values for [`revert`].
    ///
    /// [`revert`]: FingerprintCache::revert
    pub(crate) fn patch<B>(&mut self, ring: &Ring<B>, undo: &StepUndo<B>) -> SymbolPatch
    where
        B: Behavior + Hash,
        B::Message: Hash,
    {
        let mut patch = SymbolPatch::EMPTY;
        if let FingerprintCache::Rotation { symbols, .. } = self {
            let n = ring.ring_size();
            let v = undo.acted_at().index();
            patch.push(v, symbols[v]);
            symbols[v] = ring.node_symbol(v);
            if let Some(d) = undo.moved_to(n).map(|d| d.index()).filter(|&d| d != v) {
                patch.push(d, symbols[d]);
                symbols[d] = ring.node_symbol(d);
            }
        }
        patch
    }

    /// Rolls the cache back alongside [`Ring::undo`].
    pub(crate) fn revert(&mut self, patch: SymbolPatch) {
        if let FingerprintCache::Rotation { symbols, .. } = self {
            for &(v, old) in patch.slots[..patch.len].iter() {
                symbols[v] = old;
            }
        }
    }
}

/// The configurable exploration engine. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use ringdeploy_sim::explore::{Explorer, SymmetryMode};
/// # use ringdeploy_sim::{Action, Behavior, InitialConfig, Observation, Ring};
/// # #[derive(Clone, Hash)]
/// # struct Hop { left: usize, released: bool }
/// # impl Behavior for Hop {
/// #     type Message = ();
/// #     fn act(&mut self, _o: &Observation<'_, ()>) -> Action<()> {
/// #         let release = !std::mem::replace(&mut self.released, true);
/// #         if self.left > 0 { self.left -= 1; Action::moving().with_token_release(release) }
/// #         else { Action::halting().with_token_release(release) }
/// #     }
/// #     fn memory_bits(&self) -> usize { 8 }
/// # }
/// let init = InitialConfig::new(6, vec![0, 3])?;
/// let ring = Ring::new(&init, |_| Hop { left: 2, released: false });
/// let report = Explorer::new()
///     .symmetry(SymmetryMode::Rotation)
///     .run(&ring, |r| r.links_empty())?;
/// assert_eq!(report.terminals, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Explorer {
    limits: ExploreLimits,
    symmetry: SymmetryMode,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer::new()
    }
}

impl Explorer {
    /// Default engine: default [`ExploreLimits`],
    /// [`SymmetryMode::Rotation`].
    pub fn new() -> Self {
        Explorer {
            limits: ExploreLimits::default(),
            symmetry: SymmetryMode::default(),
        }
    }

    /// Overrides the exploration limits.
    pub fn limits(mut self, limits: ExploreLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Selects the state-space quotient (default:
    /// [`SymmetryMode::Rotation`]).
    pub fn symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// The fingerprint function selected by the symmetry mode.
    fn fingerprint<B>(&self, ring: &Ring<B>) -> u64
    where
        B: Behavior + Hash,
        B::Message: Hash,
    {
        match self.symmetry {
            SymmetryMode::Off => plain_fingerprint(ring),
            SymmetryMode::Rotation => canonical_fingerprint(ring),
        }
    }

    /// Explores every schedule of `ring` with a **clone-free, in-place
    /// DFS** over one live ring. Children are generated with the
    /// reversible [`Ring::apply`]/[`Ring::undo`] pair instead of
    /// deep-cloning the parent per successor, and under
    /// [`SymmetryMode::Rotation`] the canonical fingerprint is computed
    /// from a cached symbol vector patched at the ≤ 2 nodes a step
    /// touches (the min-rotation is then recomputed on the patched
    /// vector) instead of re-deriving all `n` symbols per state. The only
    /// clone left in the hot path is the violation capture when a
    /// terminal fails the predicate.
    ///
    /// Under [`SymmetryMode::Rotation`] the predicate must be invariant
    /// under rotation and agent relabeling (the Definition 1/2 uniform
    /// deployment predicates are): it is evaluated on one representative
    /// per equivalence class.
    ///
    /// Livelocks are detected as back-edges on the DFS path, exactly as in
    /// the retained clone-based reference
    /// ([`Explorer::run_serial_reference`]), and the deterministic report
    /// fields (`states`, `terminals`, `terminal_fingerprints`,
    /// `merge_edges`) are identical to it —
    /// `tests/explorer_differential.rs` pins the two against each other.
    /// `max_depth_seen`/`peak_frontier` may differ from the reference:
    /// the two DFS engines expand children in opposite sibling order, so
    /// their spanning trees (and hence first-visit depths) can differ.
    ///
    /// # Errors
    ///
    /// See [`ExploreError`].
    pub fn run<B>(
        &self,
        ring: &Ring<B>,
        mut terminal_ok: impl FnMut(&Ring<B>) -> bool,
    ) -> Result<ExploreReport, ExploreError<B>>
    where
        B: Behavior + Clone + Hash,
        B::Message: Clone + Hash,
    {
        let limits = self.limits;
        let mut cur = ring.clone_for_exploration();
        let mut cache = FingerprintCache::new(self.symmetry, &cur);
        let root_fp = cache.fingerprint(&cur);

        /// Visited-map value: the state is fully explored…
        const DONE: u8 = 0;
        /// …or still on the DFS path (a re-encounter is a back edge, i.e.
        /// a livelock). One map serves as visited set *and* path set, so
        /// the per-child cost is a single probe.
        const ON_PATH: u8 = 1;
        let mut visited: HashMap<u64, u8, FpBuildHasher> = HashMap::default();
        let mut terminal_fps: Vec<u64> = Vec::new();
        let mut report = ExploreReport {
            states: 1,
            terminals: 0,
            max_depth_seen: 0,
            terminal_fingerprints: Vec::new(),
            merge_edges: 0,
            peak_frontier: 1,
            instance_fingerprint: None,
        };
        visited.insert(root_fp, ON_PATH);
        if report.states > limits.max_states {
            return Err(ExploreError::LimitExceeded(SimError::StepLimitExceeded {
                limit: limits.max_states as u64,
            }));
        }
        if cur.enabled_activations().is_empty() {
            report.terminals = 1;
            report.terminal_fingerprints = vec![root_fp];
            if !terminal_ok(&cur) {
                return Err(ExploreError::PredicateViolated {
                    ring: Box::new(cur),
                    depth: 0,
                });
            }
            return Ok(report);
        }

        /// One live state on the DFS path: its fingerprint, its slice of
        /// the shared activation arena, and the undo record that returns
        /// the ring to its parent.
        struct Frame<B: Behavior> {
            fp: u64,
            acts_start: usize,
            next: usize,
            undo: Option<(StepUndo<B>, SymbolPatch)>,
        }

        // All live states' enabled activations live in one arena,
        // truncated on frame pop — no per-state allocation in steady
        // state.
        let mut arena: Vec<Activation> = Vec::new();
        arena.extend_from_slice(cur.enabled_activations());
        let mut stack: Vec<Frame<B>> = vec![Frame {
            fp: root_fp,
            acts_start: 0,
            next: 0,
            undo: None,
        }];

        while let Some(top) = stack.last_mut() {
            if top.acts_start + top.next >= arena.len() {
                // All children expanded: return to the parent state.
                let frame = stack.pop().expect("stack is non-empty");
                *visited.get_mut(&frame.fp).expect("path state is visited") = DONE;
                arena.truncate(frame.acts_start);
                if let Some((undo, patch)) = frame.undo {
                    cache.revert(patch);
                    cur.undo(undo);
                }
                continue;
            }
            let act = arena[top.acts_start + top.next];
            top.next += 1;
            let depth = stack.len();
            report.max_depth_seen = report.max_depth_seen.max(depth);
            if depth > limits.max_depth {
                return Err(ExploreError::LimitExceeded(SimError::StepLimitExceeded {
                    limit: limits.max_depth as u64,
                }));
            }
            let undo = cur.apply(act);
            let patch = cache.patch(&cur, &undo);
            let fp = cache.fingerprint(&cur);
            match visited.entry(fp) {
                std::collections::hash_map::Entry::Occupied(seen) => {
                    if *seen.get() == ON_PATH {
                        return Err(ExploreError::CycleDetected { depth });
                    }
                    report.merge_edges += 1;
                    cache.revert(patch);
                    cur.undo(undo);
                    continue;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(ON_PATH);
                }
            }
            report.states += 1;
            if report.states > limits.max_states {
                return Err(ExploreError::LimitExceeded(SimError::StepLimitExceeded {
                    limit: limits.max_states as u64,
                }));
            }
            if cur.enabled_activations().is_empty() {
                report.terminals += 1;
                terminal_fps.push(fp);
                if !terminal_ok(&cur) {
                    // The one clone-shaped cost left: capturing the
                    // violating configuration moves the live ring out.
                    return Err(ExploreError::PredicateViolated {
                        ring: Box::new(cur),
                        depth,
                    });
                }
                *visited.get_mut(&fp).expect("just inserted") = DONE;
                cache.revert(patch);
                cur.undo(undo);
                continue;
            }
            let acts_start = arena.len();
            arena.extend_from_slice(cur.enabled_activations());
            stack.push(Frame {
                fp,
                acts_start,
                next: 0,
                undo: Some((undo, patch)),
            });
            report.peak_frontier = report.peak_frontier.max(stack.len());
        }
        terminal_fps.sort_unstable();
        report.terminal_fingerprints = terminal_fps;
        Ok(report)
    }

    /// The **retained clone-based reference engine** — the pre-0.5 serial
    /// DFS that deep-clones the parent ring per child expansion and
    /// recomputes every fingerprint from scratch. Kept verbatim (modulo
    /// traceless root cloning) as the differential oracle for the
    /// clone-free [`run`](Explorer::run), and as the throughput baseline
    /// of the `explore_scale` bench. Never use it for real exploration.
    ///
    /// # Errors
    ///
    /// See [`ExploreError`].
    pub fn run_serial_reference<B>(
        &self,
        ring: &Ring<B>,
        mut terminal_ok: impl FnMut(&Ring<B>) -> bool,
    ) -> Result<ExploreReport, ExploreError<B>>
    where
        B: Behavior + Clone + Hash,
        B::Message: Clone + Hash,
    {
        let limits = self.limits;
        let mut visited: HashSet<u64> = HashSet::new();
        let mut on_path: HashSet<u64> = HashSet::new();
        let mut terminal_fps: Vec<u64> = Vec::new();
        let mut report = ExploreReport {
            states: 0,
            terminals: 0,
            max_depth_seen: 0,
            terminal_fingerprints: Vec::new(),
            merge_edges: 0,
            peak_frontier: 0,
            instance_fingerprint: None,
        };

        enum Frame<B: Behavior + Clone>
        where
            B::Message: Clone,
        {
            /// Explore this state (push children).
            Enter(Box<Ring<B>>, usize),
            /// Pop the path entry for this fingerprint.
            Leave(u64),
        }

        let mut stack: Vec<Frame<B>> =
            vec![Frame::Enter(Box::new(ring.clone_for_exploration()), 0)];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Leave(fp) => {
                    on_path.remove(&fp);
                }
                Frame::Enter(state, depth) => {
                    report.max_depth_seen = report.max_depth_seen.max(depth);
                    if depth > limits.max_depth {
                        return Err(ExploreError::LimitExceeded(SimError::StepLimitExceeded {
                            limit: limits.max_depth as u64,
                        }));
                    }
                    let fp = self.fingerprint(&state);
                    if on_path.contains(&fp) {
                        return Err(ExploreError::CycleDetected { depth });
                    }
                    if !visited.insert(fp) {
                        report.merge_edges += 1;
                        continue;
                    }
                    report.states += 1;
                    if report.states > limits.max_states {
                        return Err(ExploreError::LimitExceeded(SimError::StepLimitExceeded {
                            limit: limits.max_states as u64,
                        }));
                    }
                    if state.enabled_activations().is_empty() {
                        report.terminals += 1;
                        terminal_fps.push(fp);
                        if !terminal_ok(&state) {
                            return Err(ExploreError::PredicateViolated { ring: state, depth });
                        }
                        continue;
                    }
                    on_path.insert(fp);
                    report.peak_frontier = report.peak_frontier.max(on_path.len());
                    stack.push(Frame::Leave(fp));
                    // Index loop over the borrowed enabled slice —
                    // allocation-free in the checker's innermost loop
                    // (`Activation` is `Copy`; the child is a fresh clone).
                    for i in 0..state.enabled_activations().len() {
                        let act = state.enabled_activations()[i];
                        let mut child = state.as_ref().clone();
                        child.step(act);
                        stack.push(Frame::Enter(Box::new(child), depth + 1));
                    }
                }
            }
        }
        terminal_fps.sort_unstable();
        report.terminal_fingerprints = terminal_fps;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Idle};
    use crate::agent::Observation;
    use crate::initial::InitialConfig;

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

    #[test]
    fn explores_all_interleavings_of_independent_walkers() {
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 2,
            released: false,
        });
        let report = explore_all_schedules(&ring, ExploreLimits::default(), |r| {
            r.staying_positions() == Some(vec![2, 5])
        })
        .expect("exploration succeeds");
        // Two agents, three actions each, fully independent: states form a
        // 4x4 progress grid (0..=3 actions each), minus shared start.
        assert!(report.states >= 10, "states {}", report.states);
        assert_eq!(report.terminals, 1);
        assert_eq!(report.max_depth_seen, 6);
        assert_eq!(report.terminal_fingerprints.len(), 1);
        assert!(report.contains_terminal(report.terminal_fingerprints[0]));
        assert!(!report.contains_terminal(report.terminal_fingerprints[0] ^ 1));
    }

    #[test]
    fn rotation_quotient_collapses_symmetric_interleavings() {
        // Two identical walkers at antipodes of a 6-ring: the instance is
        // periodic with l = 2, so the quotient merges mirror-image
        // interleavings and strictly reduces the state count.
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 2,
            released: false,
        });
        let plain = Explorer::new()
            .symmetry(SymmetryMode::Off)
            .run(&ring, |_| true)
            .expect("plain");
        let reduced = Explorer::new()
            .symmetry(SymmetryMode::Rotation)
            .run(&ring, |_| true)
            .expect("reduced");
        assert!(
            reduced.states < plain.states,
            "quotient must shrink the space: {} vs {}",
            reduced.states,
            plain.states
        );
        assert_eq!(reduced.terminals, 1);
        assert_eq!(plain.terminals, 1);
    }

    #[test]
    fn detects_predicate_violation() {
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 1,
            released: false,
        });
        let err = explore_all_schedules(&ring, ExploreLimits::default(), |_| false).unwrap_err();
        match err {
            ExploreError::PredicateViolated { depth, .. } => assert_eq!(depth, 4),
            other => panic!("unexpected {other}"),
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
    fn detects_livelock_as_cycle() {
        let init = InitialConfig::new(3, vec![0]).expect("valid");
        let ring = Ring::new(&init, |_| Spinner);
        let err = explore_all_schedules(&ring, ExploreLimits::default(), |_| true).unwrap_err();
        assert!(matches!(err, ExploreError::CycleDetected { .. }), "{err}");
    }

    /// Moves forever: an unbounded acyclic walk on the ring… except the
    /// ring is finite, so configurations must eventually repeat through a
    /// multi-state cycle (never a self-loop) — exercising back-edge
    /// detection beyond trivial self-edges.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Orbiter;

    impl Behavior for Orbiter {
        type Message = ();
        fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
            Action::moving()
        }
        fn memory_bits(&self) -> usize {
            1
        }
    }

    #[test]
    fn multi_state_cycles_are_found_by_both_engines() {
        let init = InitialConfig::new(4, vec![0, 2]).expect("valid");
        let ring = Ring::new(&init, |_| Orbiter);
        let dfs = explore_all_schedules(&ring, ExploreLimits::default(), |_| true).unwrap_err();
        assert!(matches!(dfs, ExploreError::CycleDetected { .. }));
        let reference = Explorer::new()
            .run_serial_reference(&ring, |_| true)
            .unwrap_err();
        assert!(matches!(reference, ExploreError::CycleDetected { .. }));
    }

    #[test]
    fn state_limit_is_enforced() {
        let init = InitialConfig::new(8, vec![0, 2, 4, 6]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 7,
            released: false,
        });
        let err = Explorer::new()
            .limits(ExploreLimits::new(5, 10_000))
            .symmetry(SymmetryMode::Off)
            .run(&ring, |_| true)
            .unwrap_err();
        assert!(matches!(err, ExploreError::LimitExceeded(_)));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 4,
            released: false,
        });
        let err = Explorer::new()
            .limits(ExploreLimits::new(1_000_000, 3))
            .run(&ring, |_| true)
            .unwrap_err();
        assert!(matches!(err, ExploreError::LimitExceeded(_)));
    }

    #[test]
    fn for_instance_limits_saturate_at_extreme_bounds() {
        // Regression: the run-side limits overflowed before PR 2; the
        // explore side must saturate the same way rather than panic in
        // debug or wrap to a tiny budget in release.
        let limits = ExploreLimits::for_instance(usize::MAX, usize::MAX);
        assert_eq!(limits.max_states, usize::MAX);
        assert_eq!(limits.max_depth, usize::MAX);
        let limits = ExploreLimits::for_instance(usize::MAX / 2, 3);
        assert!(limits.max_depth >= usize::MAX / 2);
        // Sane scaling in the normal regime.
        let limits = ExploreLimits::for_instance(12, 4);
        assert_eq!(limits.max_states, 8_000_000);
        assert_eq!(limits.max_depth, 400 * 4 * 12 + 10_000);
        // k = 0 is degenerate but must not zero the state budget.
        assert_eq!(ExploreLimits::for_instance(5, 0).max_states, 2_000_000);
    }
}
