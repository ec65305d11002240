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
//! runs — **up to fingerprint collisions**. The visited map is keyed by
//! bare 64-bit fingerprints, so two distinct configurations that collide
//! are merged and the second one's subtree is never checked (hash
//! compaction, in Stern and Dill's sense); collisions are not detected
//! today.
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
//!
//! # One walker for both searches
//!
//! The DFS itself is a private walker that the worst-case
//! [`Adversary`](crate::adversary::Adversary) runs too: one apply/undo
//! loop, one activation arena, one frame stack and one visited map that
//! holds either an on-path mark or a finished state's remaining values.
//! [`Explorer::run`] gives it no objective, so its remaining value is the
//! zero-sized `()` and the walk does no objective arithmetic, and a
//! terminal predicate that also collects the terminal fingerprints; the
//! adversary gives it every objective it was asked for at once. Cycle,
//! limit and (future) collision checks therefore live in one place.
//!
//! The map's value word is a `u64` per state, so the map's slot stays 16
//! bytes. It holds the remaining values of up to three objectives as
//! three 21-bit fields. A value of 2²¹ or more sends the whole triple to
//! a side table, and the word then holds the table index tagged with
//! the top bit. [`u64::MAX`] stays the on-path mark: a packed triple
//! never sets the top bit, and an escape index never fills the other 63.

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

mod json_impls {
    use super::ExploreReport;
    use ringdeploy_json::{hex_u64, FromJson, Json, JsonError, ToJson};

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
                    self.instance_fingerprint.map(hex_u64).to_json(),
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
                instance_fingerprint: json.optional_hex_field("instance_fingerprint")?,
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
/// Owned by the [`Walker`]; the worst-case search ([`crate::adversary`])
/// also drives it directly in its witness descent.
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

/// Visited-map value of a state on the current DFS path: re-entering it
/// closes a cycle. Every other value is a finished state's packed
/// remaining values ([`Remaining::pack`]).
const ON_PATH: u64 = u64::MAX;

/// Width of one remaining value in a packed word: three fields fill the
/// low 63 bits.
const FIELD_BITS: u32 = 21;

/// The largest remaining value a packed field holds.
const FIELD_MAX: u64 = (1 << FIELD_BITS) - 1;

/// Top bit of a word whose low bits index the escape table instead of
/// holding packed fields.
const ESCAPE: u64 = 1 << 63;

/// The remaining values a search memoises per finished state, and how
/// they fit the visited map's one value word.
pub(crate) trait Remaining: Copy + Default {
    /// The word for `self`: never [`ON_PATH`], and 0 for the default
    /// value. A value too wide for the word is pushed onto `escapes` and
    /// the word points at it.
    fn pack(self, escapes: &mut Vec<Self>) -> u64;

    /// Inverse of [`pack`](Remaining::pack).
    fn unpack(word: u64, escapes: &[Self]) -> Self;
}

/// A search with no objective remembers nothing but that a state is
/// finished.
impl Remaining for () {
    fn pack(self, _escapes: &mut Vec<()>) -> u64 {
        0
    }

    fn unpack(_word: u64, _escapes: &[()]) {}
}

/// Three remaining values, one per objective slot: packed as 21-bit
/// fields while every value fits, escaped to the side table otherwise.
impl Remaining for [u64; 3] {
    fn pack(self, escapes: &mut Vec<[u64; 3]>) -> u64 {
        if self.iter().all(|&v| v <= FIELD_MAX) {
            return self[0] | self[1] << FIELD_BITS | self[2] << (2 * FIELD_BITS);
        }
        // An index below 2⁶³ − 1 keeps the word off ON_PATH; a table of
        // 24-byte entries cannot reach that length.
        let index = escapes.len() as u64;
        escapes.push(self);
        ESCAPE | index
    }

    fn unpack(word: u64, escapes: &[[u64; 3]]) -> [u64; 3] {
        if word & ESCAPE != 0 {
            return escapes[(word & !ESCAPE) as usize];
        }
        [
            word & FIELD_MAX,
            word >> FIELD_BITS & FIELD_MAX,
            word >> (2 * FIELD_BITS) & FIELD_MAX,
        ]
    }
}

/// What the [`Walker`] asks of the search it serves. The defaults
/// describe a search with no objective: every gain is the default value,
/// folding changes nothing and every terminal is acceptable.
pub(crate) trait Search<B: Behavior> {
    /// The remaining values memoised per state.
    type Value: Remaining;

    /// The objective contributions of `act`, which the walker has just
    /// applied: `undo` is its record and `ring` the state it left.
    fn gain(&self, _ring: &Ring<B>, _act: Activation, _undo: &StepUndo<B>) -> Self::Value {
        Self::Value::default()
    }

    /// Folds one child into its parent's `best`: per objective, the
    /// larger of `best` and the step's gain combined with the remaining
    /// value `rest` of the state it leads to.
    fn fold(&self, _best: &mut Self::Value, _gain: Self::Value, _rest: Self::Value) {}

    /// Whether the newly visited terminal `ring` (fingerprint `fp`) is
    /// acceptable; `false` stops the walk with `PredicateViolated`.
    fn accept(&mut self, _ring: &Ring<B>, _fp: u64) -> bool {
        true
    }
}

/// What one walk counted.
#[derive(Clone, Copy, Default)]
pub(crate) struct WalkStats {
    /// Distinct states visited, the root included.
    pub(crate) states: usize,
    /// Transitions into an already finished state.
    pub(crate) memo_hits: u64,
    /// Transitions into a terminal state, memo hits included, plus a
    /// quiescent root.
    pub(crate) terminal_hits: u64,
    /// The longest DFS path tried.
    pub(crate) max_depth_seen: usize,
    /// The deepest stack of non-terminal states on the DFS path.
    pub(crate) peak_frontier: usize,
}

/// The one reversible DFS over the configuration graph, shared by the
/// [`Explorer`] and the [`Adversary`](crate::adversary::Adversary).
///
/// It walks one live ring with [`Ring::apply`]/[`Ring::undo`], keeps the
/// enabled activations of every state on the path in one arena, patches
/// the fingerprint cache alongside each step, and expands every distinct
/// state once. Its one visited map stores, per fingerprint, [`ON_PATH`]
/// while the state is on the DFS path and its packed remaining values
/// `V` once it is finished: the [`Search::fold`] of every child, so
/// nothing at all for a search with no objective. Re-entering a path
/// state is a cycle; re-entering a finished one folds its remaining
/// values in without walking it again.
pub(crate) struct Walker<B: Behavior, V> {
    /// The live ring: at the root before and after a walk, and at the
    /// offending terminal after a `PredicateViolated` stop.
    pub(crate) ring: Ring<B>,
    pub(crate) cache: FingerprintCache,
    pub(crate) visited: HashMap<u64, u64, FpBuildHasher>,
    /// Remaining values too wide for a packed word ([`Remaining::pack`]).
    pub(crate) escapes: Vec<V>,
    pub(crate) stats: WalkStats,
}

impl<B, V> Walker<B, V>
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
    V: Remaining,
{
    pub(crate) fn new(ring: &Ring<B>, symmetry: SymmetryMode) -> Self {
        let ring = ring.clone_for_exploration();
        Walker {
            cache: FingerprintCache::new(symmetry, &ring),
            ring,
            visited: HashMap::default(),
            escapes: Vec::new(),
            stats: WalkStats {
                states: 1,
                peak_frontier: 1,
                ..WalkStats::default()
            },
        }
    }

    /// Walks every state reachable from the root and returns the root's
    /// remaining values. A limit of `N` states errors iff more than `N`
    /// states are reachable.
    ///
    /// # Errors
    ///
    /// A cycle, a terminal `search` rejects, or an exceeded limit.
    pub(crate) fn walk(
        &mut self,
        limits: ExploreLimits,
        search: &mut impl Search<B, Value = V>,
    ) -> Result<V, ExploreErrorKind> {
        let state_limit = || {
            ExploreErrorKind::LimitExceeded(SimError::StepLimitExceeded {
                limit: limits.max_states as u64,
            })
        };
        let stats = &mut self.stats;
        let root_fp = self.cache.fingerprint(&self.ring);
        if stats.states > limits.max_states {
            return Err(state_limit());
        }
        if self.ring.enabled_activations().is_empty() {
            stats.terminal_hits = 1;
            self.visited.insert(root_fp, 0);
            if !search.accept(&self.ring, root_fp) {
                return Err(ExploreErrorKind::PredicateViolated { depth: 0 });
            }
            return Ok(V::default());
        }
        self.visited.insert(root_fp, ON_PATH);

        /// One state on the DFS path: its fingerprint, the gains of the
        /// step that entered it, the best values over its children so
        /// far, its slice of the activation arena, and the undo record
        /// back to its parent.
        struct Frame<B: Behavior, V> {
            fp: u64,
            gain: V,
            best: V,
            acts_start: usize,
            next: usize,
            undo: Option<(StepUndo<B>, SymbolPatch)>,
        }

        // The enabled activations of every state on the path, truncated
        // on frame pop: no allocation per state in steady state.
        let mut arena: Vec<Activation> = self.ring.enabled_activations().to_vec();
        let mut stack: Vec<Frame<B, V>> = vec![Frame {
            fp: root_fp,
            gain: V::default(),
            best: V::default(),
            acts_start: 0,
            next: 0,
            undo: None,
        }];
        loop {
            let top = stack.last_mut().expect("the root is popped last");
            if top.acts_start + top.next >= arena.len() {
                // Every child is done: this state's remaining values are
                // final. Record them and fold them into the parent.
                let frame = stack.pop().expect("stack is non-empty");
                *self
                    .visited
                    .get_mut(&frame.fp)
                    .expect("path state is visited") = frame.best.pack(&mut self.escapes);
                arena.truncate(frame.acts_start);
                let Some((undo, patch)) = frame.undo else {
                    return Ok(frame.best);
                };
                self.cache.revert(patch);
                self.ring.undo(undo);
                let parent = stack.last_mut().expect("non-root frames have parents");
                search.fold(&mut parent.best, frame.gain, frame.best);
                continue;
            }
            let act = arena[top.acts_start + top.next];
            top.next += 1;
            let depth = stack.len();
            stats.max_depth_seen = stats.max_depth_seen.max(depth);
            if depth > limits.max_depth {
                return Err(ExploreErrorKind::LimitExceeded(
                    SimError::StepLimitExceeded {
                        limit: limits.max_depth as u64,
                    },
                ));
            }
            let undo = self.ring.apply(act);
            let patch = self.cache.patch(&self.ring, &undo);
            let fp = self.cache.fingerprint(&self.ring);
            let gain = search.gain(&self.ring, act, &undo);
            let terminal = self.ring.enabled_activations().is_empty();
            let done = match self.visited.entry(fp) {
                std::collections::hash_map::Entry::Occupied(seen) => {
                    // Re-entering a path state closes a concrete cycle
                    // (under Rotation a quotient cycle, which lifts to a
                    // concrete one: see crate::canonical).
                    if *seen.get() == ON_PATH {
                        return Err(ExploreErrorKind::CycleDetected { depth });
                    }
                    stats.memo_hits += 1;
                    stats.terminal_hits += u64::from(terminal);
                    Some(V::unpack(*seen.get(), &self.escapes))
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    // A terminal's remaining values are the default,
                    // which packs to 0.
                    slot.insert(if terminal { 0 } else { ON_PATH });
                    stats.states += 1;
                    if stats.states > limits.max_states {
                        return Err(state_limit());
                    }
                    if terminal {
                        stats.terminal_hits += 1;
                        if !search.accept(&self.ring, fp) {
                            // The live ring stays at the offending
                            // terminal for the caller to take.
                            return Err(ExploreErrorKind::PredicateViolated { depth });
                        }
                    }
                    terminal.then(V::default)
                }
            };
            if let Some(rem) = done {
                self.cache.revert(patch);
                self.ring.undo(undo);
                let parent = stack.last_mut().expect("child has a parent frame");
                search.fold(&mut parent.best, gain, rem);
                continue;
            }
            let acts_start = arena.len();
            arena.extend_from_slice(self.ring.enabled_activations());
            stack.push(Frame {
                fp,
                gain,
                best: V::default(),
                acts_start,
                next: 0,
                undo: Some((undo, patch)),
            });
            stats.peak_frontier = stats.peak_frontier.max(stack.len());
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
    /// DFS** over one live ring: the walker the adversary shares (see the
    /// [module docs](self#one-walker-for-both-searches)), asked for no
    /// objective and for `terminal_ok` at each new terminal. Children
    /// are generated with the reversible [`Ring::apply`]/[`Ring::undo`]
    /// pair instead of deep-cloning the parent per successor, and under
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
        terminal_ok: impl FnMut(&Ring<B>) -> bool,
    ) -> Result<ExploreReport, ExploreError<B>>
    where
        B: Behavior + Clone + Hash,
        B::Message: Clone + Hash,
    {
        /// The explorer's side of the walk: no objective, and a terminal
        /// is acceptable iff it satisfies the predicate. Collects the
        /// terminal fingerprints.
        struct Check<F> {
            terminal_ok: F,
            terminals: Vec<u64>,
        }

        impl<B: Behavior, F: FnMut(&Ring<B>) -> bool> Search<B> for Check<F> {
            type Value = ();

            fn accept(&mut self, ring: &Ring<B>, fp: u64) -> bool {
                self.terminals.push(fp);
                (self.terminal_ok)(ring)
            }
        }

        let mut walker = Walker::<B, ()>::new(ring, self.symmetry);
        let mut check = Check {
            terminal_ok,
            terminals: Vec::new(),
        };
        match walker.walk(self.limits, &mut check) {
            Ok(_) => {
                let stats = walker.stats;
                let mut terminal_fingerprints = check.terminals;
                terminal_fingerprints.sort_unstable();
                Ok(ExploreReport {
                    states: stats.states,
                    terminals: terminal_fingerprints.len(),
                    max_depth_seen: stats.max_depth_seen,
                    terminal_fingerprints,
                    merge_edges: stats.memo_hits,
                    peak_frontier: stats.peak_frontier,
                    instance_fingerprint: None,
                })
            }
            Err(ExploreErrorKind::PredicateViolated { depth }) => {
                Err(ExploreError::PredicateViolated {
                    ring: Box::new(walker.ring),
                    depth,
                })
            }
            Err(ExploreErrorKind::CycleDetected { depth }) => {
                Err(ExploreError::CycleDetected { depth })
            }
            Err(ExploreErrorKind::LimitExceeded(e)) => Err(ExploreError::LimitExceeded(e)),
        }
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
    fn packed_words_round_trip_and_escape_wide_values() {
        let mut escapes = Vec::new();
        let widest = [FIELD_MAX; 3];
        assert_eq!(FIELD_MAX, (1 << 21) - 1);
        let word = widest.pack(&mut escapes);
        assert!(escapes.is_empty(), "2^21 - 1 fits a field");
        assert_ne!(word, u64::MAX, "a packed word is never the on-path mark");
        assert_eq!(<[u64; 3]>::unpack(word, &escapes), widest);
        assert_eq!([0; 3].pack(&mut escapes), 0);
        for wide in [[1 << 21, 0, 0], [0, 1 << 21, 7], [3, 5, u64::MAX]] {
            let word = wide.pack(&mut escapes);
            assert_ne!(word, u64::MAX, "an escape word is never the on-path mark");
            assert_eq!(<[u64; 3]>::unpack(word, &escapes), wide);
        }
        assert_eq!(escapes.len(), 3, "each wide triple escapes once");
        assert_eq!(
            <[u64; 3]>::unpack(widest.pack(&mut escapes), &escapes),
            widest
        );
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
