//! The open [`ProblemFamily`] trait: everything one problem family
//! contributes to the verification stack, behind one `dyn`-safe surface.
//!
//! The repo grew up around a closed `Algorithm` enum with three uniform
//! -deployment variants, match-dispatched in every layer (driver, batch
//! sweeps, explorer, adversary, certification, service cache, CLI).
//! Landing a new family meant touching every one of those matches. This
//! module inverts the dependency: a family bundles
//!
//! * its **behavior constructor** (how to build the per-agent state
//!   machine for an instance),
//! * its **success predicate** (which [`DeploymentCheck`] the terminal
//!   configuration must satisfy),
//! * its **halting mode** (Definition 1 halt vs Definition 2 suspend),
//! * its **paper bounds** (shape + recorded constant per
//!   [`Objective`], the thing `certify` evaluates),
//! * its **offline oracle** (the optimal cost a centralised solver
//!   would pay, for competitive ratios), and
//! * its **canonical name** (the stable CLI/wire identity).
//!
//! The first two are stated once, in [`ProblemFamily::rules`], as a
//! boxed [`FamilyRules`] value built by [`rules`]. The run driver, the
//! explorer and the adversary all go through that one value, so a run
//! and an exhaustive exploration judge terminals by the same check.
//!
//! Layers above `core` hold a [`Family`] handle — a `Copy` pointer to a
//! `'static` family — and call trait methods; none of them matches on
//! the family again. The legacy name [`Algorithm`] survives as a type
//! alias of [`Family`] so existing call sites and serialized reports
//! keep working unchanged.
//!
//! # Built-in families
//!
//! | Handle | Problem | Paper |
//! |---|---|---|
//! | [`Family::FullKnowledge`] | uniform deployment, knows `k` | PODC'16 §3.1 |
//! | [`Family::LogSpace`] | uniform deployment, `O(log n)` memory | PODC'16 §3.2 |
//! | [`Family::Relaxed`] | uniform deployment, no knowledge | PODC'16 §4.2 |
//! | [`Family::partial_gathering`] | g-partial gathering | arXiv:1505.06596 |
//!
//! [`Family::ALL`] deliberately lists only the three uniform-deployment
//! families: it is the "every algorithm solves uniform deployment"
//! iteration set used across tests and experiments, and g-partial
//! gathering solves a different problem.

use std::hash::Hash;
use std::sync::{Mutex, OnceLock};

use ringdeploy_sim::adversary::{Adversary, AdversaryError, Objective, WorstCase};
use ringdeploy_sim::explore::{ExploreErrorKind, ExploreReport, Explorer};
use ringdeploy_sim::{
    satisfies_halting_deployment, satisfies_partial_gathering, satisfies_suspended_deployment,
    Behavior, DeploymentCheck, InitialConfig, Ring,
};

use crate::algo1::FullKnowledge;
use crate::algo2::LogSpace;
use crate::deployment::{DriveMode, Driver};
use crate::gathering::{gathering_oracle_moves, PartialGathering};
use crate::memory_model::{algo1_bounds, algo2_bounds, gathering_bounds, relaxed_bounds, Bound};
use crate::relaxed::NoKnowledge;
use crate::run::{DeployError, DeployReport};

/// A paper bound evaluated at an instance: the formula, the recorded
/// per-family constant and the resulting numeric bound.
///
/// The constants are *empirical envelopes*: the smallest round numbers
/// that dominate every adversarial exact maximum measured across the
/// exhaustive verification tier (see `ringdeploy-analysis::certify`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperBound {
    /// The bound's shape, constant included symbolically (e.g.
    /// `"c*k*n"`).
    pub formula: &'static str,
    /// The recorded constant `c`.
    pub constant: f64,
    /// `c` × the shape evaluated at the instance.
    pub value: f64,
}

/// The closed set of recorded bound formulas — the single source both
/// the [`ProblemFamily::paper_bound`] encoders and the `PaperBound`
/// JSON decoder draw from, so the two cannot drift apart.
pub(crate) const FORMULA_KN: &str = "c*k*n";
pub(crate) const FORMULA_KN_OVER_L: &str = "c*k*n/l";
pub(crate) const FORMULA_K_LOG_N: &str = "c*k*log2(n)";
pub(crate) const FORMULA_LOG_N: &str = "c*log2(n)";
pub(crate) const FORMULA_K_OVER_L_LOG: &str = "c*(k/l)*log2(n/l)";
pub(crate) const FORMULA_GN: &str = "c*g*n";
const BOUND_FORMULAS: [&str; 6] = [
    FORMULA_KN,
    FORMULA_KN_OVER_L,
    FORMULA_K_LOG_N,
    FORMULA_LOG_N,
    FORMULA_K_OVER_L_LOG,
    FORMULA_GN,
];

/// `constant` × the shape's value, floored at 1.
///
/// The floor guards degenerate instances: `log₂(n)` vanishes on the
/// `n = 1` ring, and a zero bound would turn every certificate into a
/// false VIOLATED verdict (and utilisation into a division by zero).
fn shaped_bound(shape: Bound, constant: f64, formula: &'static str) -> PaperBound {
    PaperBound {
        formula,
        constant,
        value: constant * shape.value.max(1.0),
    }
}

/// Shared `paper_bound` plumbing for families whose Table-1 expectations
/// follow the `[memory, time, moves]` convention of
/// [`crate::memory_model`]: the activation bound shares the move shape
/// (every activation beyond the bounded moves is a wake/suspend bounded
/// by the same walks).
fn table1_bound(
    bounds: [Bound; 3],
    constants: (f64, f64, f64),
    move_formula: &'static str,
    memory_formula: &'static str,
    objective: Objective,
) -> PaperBound {
    let (memory, moves) = (bounds[0], bounds[2]);
    let (c_moves, c_acts, c_mem) = constants;
    match objective {
        Objective::TotalMoves => shaped_bound(moves, c_moves, move_formula),
        Objective::TotalActivations => shaped_bound(moves, c_acts, move_formula),
        Objective::PeakMemoryBits => shaped_bound(memory, c_mem, memory_formula),
    }
}

/// Whether a terminal configuration is acceptable to the exhaustive
/// explorer: either it satisfies the family's definition outright, or it
/// is the typed crash-degradation outcome (survivors settled, definition
/// unattainable because the fault plan crash-stopped agents). Fault-free
/// instances never produce [`DeploymentCheck::CrashDegraded`], so this
/// is exactly `is_satisfied` for them.
pub fn explore_terminal_ok(check: &DeploymentCheck) -> bool {
    check.is_satisfied() || check.is_crash_degraded()
}

/// One family's behavior constructor and success check, bound to an
/// instance and erased behind an object-safe surface: what
/// [`ProblemFamily::rules`] returns, and what the provided
/// [`deploy`](ProblemFamily::deploy), [`explore`](ProblemFamily::explore)
/// and [`worst_cases`](ProblemFamily::worst_cases) run. Build one with
/// [`rules`].
pub trait FamilyRules {
    /// See [`ProblemFamily::deploy`].
    ///
    /// # Errors
    ///
    /// See [`DeployError`].
    fn deploy(&self, driver: Driver<'_>, mode: DriveMode<'_>) -> Result<DeployReport, DeployError>;

    /// See [`ProblemFamily::explore`].
    ///
    /// # Errors
    ///
    /// See [`ExploreErrorKind`].
    fn explore(
        &self,
        init: &InitialConfig,
        explorer: &Explorer,
    ) -> Result<ExploreReport, ExploreErrorKind>;

    /// See [`ProblemFamily::worst_cases`].
    ///
    /// # Errors
    ///
    /// See [`AdversaryError`].
    fn worst_cases(
        &self,
        init: &InitialConfig,
        adversary: &Adversary,
        objectives: &[Objective],
    ) -> Result<Vec<WorstCase>, AdversaryError>;
}

/// The [`FamilyRules`] of a behavior constructor `make` and a success
/// check `check`. A run reports `check` of its terminal configuration,
/// and the explorer accepts a terminal iff [`explore_terminal_ok`] holds
/// for the same `check`, so the two cannot judge terminals differently.
pub fn rules<B>(
    make: impl Fn() -> B + 'static,
    check: impl Fn(&Ring<B>) -> DeploymentCheck + 'static,
) -> Box<dyn FamilyRules>
where
    B: Behavior + Clone + Hash + 'static,
    B::Message: Clone + Hash,
{
    struct Rules<M, C> {
        make: M,
        check: C,
    }

    impl<B, M, C> FamilyRules for Rules<M, C>
    where
        B: Behavior + Clone + Hash,
        B::Message: Clone + Hash,
        M: Fn() -> B,
        C: Fn(&Ring<B>) -> DeploymentCheck,
    {
        fn deploy(
            &self,
            driver: Driver<'_>,
            mode: DriveMode<'_>,
        ) -> Result<DeployReport, DeployError> {
            driver.run_behavior(mode, |_| (self.make)(), &self.check)
        }

        fn explore(
            &self,
            init: &InitialConfig,
            explorer: &Explorer,
        ) -> Result<ExploreReport, ExploreErrorKind> {
            let ring = Ring::new(init, |_| (self.make)());
            explorer.run(&ring, |r| explore_terminal_ok(&(self.check)(r)))
        }

        fn worst_cases(
            &self,
            init: &InitialConfig,
            adversary: &Adversary,
            objectives: &[Objective],
        ) -> Result<Vec<WorstCase>, AdversaryError> {
            adversary.run_all(&Ring::new(init, |_| (self.make)()), objectives)
        }
    }

    Box::new(Rules { make, check })
}

/// One problem family's complete contract with the verification stack.
///
/// Implementations are `'static` values registered behind a [`Family`]
/// handle. Every method is instance-shaped rather than behavior-shaped
/// on purpose: the behavior type is an internal detail each family
/// names once, in [`rules`](ProblemFamily::rules), and erases there
/// behind [`FamilyRules`]. That keeps the trait object-safe and the
/// layers above `core` free of per-family matches.
///
/// # Invariants the layers above assume
///
/// * [`name`](ProblemFamily::name) is unique, stable, and shell-safe —
///   it is the wire identity in JSON reports and service cache keys.
/// * The success check of [`rules`](ProblemFamily::rules) is
///   rotation-invariant (required for the explorer's and adversary's
///   rotation quotient to be sound). [`deploy`](ProblemFamily::deploy)
///   and [`explore`](ProblemFamily::explore) both judge terminals by
///   it, so they accept the same ones by construction.
/// * [`paper_bound`](ProblemFamily::paper_bound) dominates the true
///   adversarial worst case on every instance the CI tiers certify.
/// * [`oracle_moves`](ProblemFamily::oracle_moves) never exceeds the
///   moves of any successful run (it is an offline lower bound).
pub trait ProblemFamily: Send + Sync {
    /// The canonical, stable machine-readable name (CLI and wire
    /// identity).
    fn name(&self) -> &'static str;

    /// Whether agents terminate by halting (Definition 1) rather than
    /// suspending (Definition 2).
    fn halts(&self) -> bool;

    /// The family's behavior constructor and success check for `init`
    /// (see [`rules`]).
    fn rules(&self, init: &InitialConfig) -> Box<dyn FamilyRules>;

    /// Runs one instance to quiescence and verifies the outcome,
    /// producing the standard [`DeployReport`] through
    /// [`Driver::run_behavior`].
    ///
    /// # Errors
    ///
    /// See [`DeployError`].
    fn deploy(&self, driver: Driver<'_>, mode: DriveMode<'_>) -> Result<DeployReport, DeployError> {
        self.rules(driver.init()).deploy(driver, mode)
    }

    /// Exhaustively explores every schedule of one instance with the
    /// bounded model checker ([`Explorer::run`]), accepting a terminal
    /// iff [`explore_terminal_ok`] holds for the family's success check.
    ///
    /// # Errors
    ///
    /// See [`ExploreErrorKind`]; a `PredicateViolated` means the instance
    /// was *disproved*.
    fn explore(
        &self,
        init: &InitialConfig,
        explorer: &Explorer,
    ) -> Result<ExploreReport, ExploreErrorKind> {
        self.rules(init).explore(init, explorer)
    }

    /// Finds the exact adversarial worst case of every objective in
    /// `objectives` on one instance from one search over the reversible
    /// engine ([`Adversary::run_all`]): one [`WorstCase`] per entry, in
    /// order.
    ///
    /// # Errors
    ///
    /// See [`AdversaryError`]; one error stands for every objective.
    fn worst_cases(
        &self,
        init: &InitialConfig,
        adversary: &Adversary,
        objectives: &[Objective],
    ) -> Result<Vec<WorstCase>, AdversaryError> {
        self.rules(init).worst_cases(init, adversary, objectives)
    }

    /// [`worst_cases`](ProblemFamily::worst_cases) for one objective.
    ///
    /// # Errors
    ///
    /// See [`AdversaryError`].
    fn worst_case(
        &self,
        init: &InitialConfig,
        adversary: &Adversary,
        objective: Objective,
    ) -> Result<WorstCase, AdversaryError> {
        let mut worst = self.worst_cases(init, adversary, &[objective])?;
        Ok(worst.pop().expect("one worst case per objective"))
    }

    /// The recorded paper bound for `objective` at an `(n, k, l)`
    /// instance (`l` = symmetry degree of the initial configuration).
    fn paper_bound(&self, objective: Objective, n: usize, k: usize, l: usize) -> PaperBound;

    /// Offline-optimal total moves for the instance, when the family
    /// has a meaningful centralised baseline (`None` when the instance
    /// is unsolvable or no oracle exists).
    fn oracle_moves(&self, init: &InitialConfig) -> Option<u64>;
}

/// A `Copy` handle to a registered `'static` problem family — the value
/// every layer above `core` stores and passes around where the old
/// `Algorithm` enum used to go.
///
/// Dereferences to [`ProblemFamily`], so trait methods are called
/// directly on the handle (`family.deploy(..)`, `family.halts()`).
/// Equality and hashing go by [`ProblemFamily::name`], which is unique
/// by the registry contract.
#[derive(Clone, Copy)]
pub struct Family(&'static (dyn ProblemFamily + 'static));

/// The historical name of [`Family`], kept as an alias so existing call
/// sites, serialized reports and docs keep working. Prefer [`Family`]
/// in new code; the alias will eventually be retired (see the README
/// migration note).
pub type Algorithm = Family;

impl Family {
    /// Algorithm 1 (§3.1): uniform deployment with knowledge of `k`,
    /// `O(k log n)` memory.
    #[allow(non_upper_case_globals)]
    pub const FullKnowledge: Family = Family(&UniformFullKnowledge);

    /// Algorithms 2+3 (§3.2): uniform deployment with knowledge of `k`,
    /// `O(log n)` memory.
    #[allow(non_upper_case_globals)]
    pub const LogSpace: Family = Family(&UniformLogSpace);

    /// Algorithms 4–6 (§4.2): relaxed uniform deployment, no knowledge,
    /// no termination detection.
    #[allow(non_upper_case_globals)]
    pub const Relaxed: Family = Family(&UniformRelaxed);

    /// The three uniform-deployment families, in paper order. This is
    /// the "every algorithm solves uniform deployment" iteration set;
    /// g-partial gathering solves a different problem and is obtained
    /// via [`Family::partial_gathering`].
    pub const ALL: [Family; 3] = [Family::FullKnowledge, Family::LogSpace, Family::Relaxed];

    /// The g-partial-gathering family (arXiv:1505.06596) for group size
    /// `g ≥ 1`: agents must end halted in groups of at least `g`.
    /// Handles are interned, so repeated calls with the same `g` return
    /// the same registered family (and compare equal).
    pub fn partial_gathering(g: usize) -> Family {
        let g = g.max(1);
        static REGISTRY: OnceLock<Mutex<Vec<&'static PartialGatheringFamily>>> = OnceLock::new();
        let registry = REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
        let mut families = registry.lock().expect("family registry poisoned");
        if let Some(family) = families.iter().find(|f| f.g == g) {
            return Family(*family);
        }
        // Families are 'static by contract; interning makes the leak a
        // one-off per distinct g rather than per handle.
        let name: &'static str = Box::leak(format!("partial-gathering-g{g}").into_boxed_str());
        let family: &'static PartialGatheringFamily =
            Box::leak(Box::new(PartialGatheringFamily { g, name }));
        families.push(family);
        Family(family)
    }

    /// Parses a canonical family name (the output of
    /// [`ProblemFamily::name`]) or one of its CLI aliases. Partial
    /// gathering accepts the bare `partial-gathering` (defaulting to
    /// `g = 2`, the smallest non-trivial group size) and the canonical
    /// `partial-gathering-g<G>` form.
    pub fn from_name(name: &str) -> Option<Family> {
        match name {
            "algo1-full-knowledge" | "algo1" | "full-knowledge" => Some(Family::FullKnowledge),
            "algo2-log-space" | "algo2" | "log-space" => Some(Family::LogSpace),
            "algo4-relaxed" | "relaxed" | "no-knowledge" => Some(Family::Relaxed),
            "partial-gathering" => Some(Family::partial_gathering(2)),
            other => other
                .strip_prefix("partial-gathering-g")
                .and_then(|g| g.parse::<usize>().ok())
                .filter(|&g| g >= 1)
                .map(Family::partial_gathering),
        }
    }
}

impl std::ops::Deref for Family {
    type Target = dyn ProblemFamily + 'static;

    fn deref(&self) -> &Self::Target {
        self.0
    }
}

impl PartialEq for Family {
    fn eq(&self, other: &Self) -> bool {
        self.0.name() == other.0.name()
    }
}

impl Eq for Family {}

impl Hash for Family {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.name().hash(state);
    }
}

impl std::fmt::Debug for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.name())
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.name())
    }
}

/// The built-in family of Algorithm 1 (§3.1).
#[derive(Debug)]
pub struct UniformFullKnowledge;

impl ProblemFamily for UniformFullKnowledge {
    fn name(&self) -> &'static str {
        "algo1-full-knowledge"
    }

    fn halts(&self) -> bool {
        true
    }

    fn rules(&self, init: &InitialConfig) -> Box<dyn FamilyRules> {
        let k = init.agent_count();
        rules(move || FullKnowledge::new(k), satisfies_halting_deployment)
    }

    fn paper_bound(&self, objective: Objective, n: usize, k: usize, _l: usize) -> PaperBound {
        // Measured worst cases: ≤ 2.0·kn moves, ≤ 2.1·kn activations,
        // ≤ 2.0·k·log₂n memory bits.
        table1_bound(
            algo1_bounds(n, k),
            (3.0, 3.0, 3.0),
            FORMULA_KN,
            FORMULA_K_LOG_N,
            objective,
        )
    }

    fn oracle_moves(&self, init: &InitialConfig) -> Option<u64> {
        Some(crate::oracle::oracle_moves(init).total_moves)
    }
}

/// The built-in family of Algorithms 2+3 (§3.2).
#[derive(Debug)]
pub struct UniformLogSpace;

impl ProblemFamily for UniformLogSpace {
    fn name(&self) -> &'static str {
        "algo2-log-space"
    }

    fn halts(&self) -> bool {
        true
    }

    fn rules(&self, init: &InitialConfig) -> Box<dyn FamilyRules> {
        let k = init.agent_count();
        rules(move || LogSpace::new(k), satisfies_halting_deployment)
    }

    fn paper_bound(&self, objective: Objective, n: usize, k: usize, _l: usize) -> PaperBound {
        // Measured: ≤ 2.7·kn moves, ≤ 3.0·kn activations, ≤ 6.7·log₂n
        // memory bits (the log-space counters carry a small multiple).
        table1_bound(
            algo2_bounds(n, k),
            (4.0, 4.0, 8.0),
            FORMULA_KN,
            FORMULA_LOG_N,
            objective,
        )
    }

    fn oracle_moves(&self, init: &InitialConfig) -> Option<u64> {
        Some(crate::oracle::oracle_moves(init).total_moves)
    }
}

/// The built-in family of Algorithms 4–6 (§4.2).
#[derive(Debug)]
pub struct UniformRelaxed;

impl ProblemFamily for UniformRelaxed {
    fn name(&self) -> &'static str {
        "algo4-relaxed"
    }

    fn halts(&self) -> bool {
        false
    }

    fn rules(&self, _init: &InitialConfig) -> Box<dyn FamilyRules> {
        rules(NoKnowledge::new, satisfies_suspended_deployment)
    }

    fn paper_bound(&self, objective: Objective, n: usize, k: usize, l: usize) -> PaperBound {
        // Measured: ≤ 13.1·kn/l moves and activations (the ~14n-per-agent
        // no-knowledge walks), ≤ 11·(k/l)·log₂(n/l) memory bits.
        table1_bound(
            relaxed_bounds(n, k, l.max(1)),
            (16.0, 16.0, 16.0),
            FORMULA_KN_OVER_L,
            FORMULA_K_OVER_L_LOG,
            objective,
        )
    }

    fn oracle_moves(&self, init: &InitialConfig) -> Option<u64> {
        Some(crate::oracle::oracle_moves(init).total_moves)
    }
}

/// The g-partial-gathering family (arXiv:1505.06596): agents must end
/// halted in groups of at least `g`. Obtain handles via
/// [`Family::partial_gathering`]; instances are interned per `g`.
#[derive(Debug)]
pub struct PartialGatheringFamily {
    g: usize,
    name: &'static str,
}

impl PartialGatheringFamily {
    /// The minimum group size `g`.
    pub fn g(&self) -> usize {
        self.g
    }
}

impl ProblemFamily for PartialGatheringFamily {
    fn name(&self) -> &'static str {
        self.name
    }

    fn halts(&self) -> bool {
        true
    }

    fn rules(&self, init: &InitialConfig) -> Box<dyn FamilyRules> {
        let (k, g) = (init.agent_count(), self.g);
        rules(
            move || PartialGathering::new(k),
            move |ring| satisfies_partial_gathering(ring, g),
        )
    }

    fn paper_bound(&self, objective: Objective, n: usize, k: usize, _l: usize) -> PaperBound {
        // Θ(gn) total moves (arXiv:1505.06596, Theorems 1 & 2). The
        // recorded envelope c = 16 covers the implementation's census
        // circuit + leader walk (< 2kn total) on every certified
        // instance, all of which keep k ≤ 8g; activations = moves + k
        // fit the same envelope. Memory is the Algorithm-1-style census
        // vector, O(k log n).
        table1_bound(
            gathering_bounds(n, k, self.g),
            (16.0, 16.0, 16.0),
            FORMULA_GN,
            FORMULA_K_LOG_N,
            objective,
        )
    }

    fn oracle_moves(&self, init: &InitialConfig) -> Option<u64> {
        gathering_oracle_moves(init, self.g)
    }
}

mod json_impls {
    use super::{Family, PaperBound, BOUND_FORMULAS};
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for Family {
        fn to_json(&self) -> Json {
            Json::String(self.name().to_string())
        }
    }

    impl FromJson for Family {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            json.as_str()
                .and_then(Family::from_name)
                .ok_or_else(|| JsonError::Decode(format!("unknown algorithm {json}")))
        }
    }

    impl ToJson for PaperBound {
        fn to_json(&self) -> Json {
            Json::object([
                ("formula", self.formula.to_json()),
                ("constant", self.constant.to_json()),
                ("value", self.value.to_json()),
            ])
        }
    }

    impl FromJson for PaperBound {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            // `formula` is a &'static str in-process; decoded values map
            // onto the same recorded formula set the families draw from,
            // so encoder and decoder cannot drift.
            let formula: String = json.field("formula")?;
            let formula = BOUND_FORMULAS
                .into_iter()
                .find(|f| *f == formula)
                .ok_or_else(|| JsonError::Decode(format!("unknown bound formula `{formula}`")))?;
            Ok(PaperBound {
                formula,
                constant: json.field("constant")?,
                value: json.field("value")?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;

    fn hash_of(family: Family) -> u64 {
        let mut hasher = DefaultHasher::new();
        family.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn builtin_names_are_stable() {
        assert_eq!(Family::FullKnowledge.name(), "algo1-full-knowledge");
        assert_eq!(Family::LogSpace.name(), "algo2-log-space");
        assert_eq!(Family::Relaxed.name(), "algo4-relaxed");
        assert_eq!(Family::partial_gathering(2).name(), "partial-gathering-g2");
    }

    #[test]
    fn from_name_accepts_canonical_names_and_aliases() {
        for family in Family::ALL {
            assert_eq!(Family::from_name(family.name()), Some(family));
        }
        assert_eq!(Family::from_name("algo1"), Some(Family::FullKnowledge));
        assert_eq!(Family::from_name("log-space"), Some(Family::LogSpace));
        assert_eq!(Family::from_name("no-knowledge"), Some(Family::Relaxed));
        assert_eq!(
            Family::from_name("partial-gathering"),
            Some(Family::partial_gathering(2))
        );
        assert_eq!(
            Family::from_name("partial-gathering-g3"),
            Some(Family::partial_gathering(3))
        );
        assert_eq!(Family::from_name("partial-gathering-g0"), None);
        assert_eq!(Family::from_name("nope"), None);
    }

    #[test]
    fn partial_gathering_handles_are_interned() {
        let a = Family::partial_gathering(2);
        let b = Family::partial_gathering(2);
        let c = Family::partial_gathering(3);
        assert_eq!(a, b);
        assert_eq!(hash_of(a), hash_of(b));
        assert_ne!(a, c);
        assert!(std::ptr::eq(
            a.0 as *const _ as *const u8,
            b.0 as *const _ as *const u8
        ));
    }

    #[test]
    fn families_are_distinct_by_name() {
        let mut names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        names.push(Family::partial_gathering(2).name());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn halting_modes_match_the_definitions() {
        assert!(Family::FullKnowledge.halts());
        assert!(Family::LogSpace.halts());
        assert!(!Family::Relaxed.halts());
        assert!(Family::partial_gathering(2).halts());
    }

    #[test]
    fn paper_bounds_select_the_recorded_shapes() {
        let moves = Family::FullKnowledge.paper_bound(Objective::TotalMoves, 12, 4, 1);
        assert_eq!(moves.formula, "c*k*n");
        assert!((moves.value - moves.constant * 48.0).abs() < 1e-9);
        let gathering = Family::partial_gathering(2).paper_bound(Objective::TotalMoves, 12, 4, 1);
        assert_eq!(gathering.formula, "c*g*n");
        assert!((gathering.value - gathering.constant * 24.0).abs() < 1e-9);
        let memory = Family::partial_gathering(2).paper_bound(Objective::PeakMemoryBits, 12, 4, 1);
        assert_eq!(memory.formula, "c*k*log2(n)");
    }

    #[test]
    fn gathering_oracle_routes_through_the_family() {
        let init = InitialConfig::new(12, vec![0, 1, 2, 3]).expect("valid");
        assert_eq!(Family::partial_gathering(2).oracle_moves(&init), Some(2));
        // Unsolvable: fewer agents than one group needs.
        assert_eq!(Family::partial_gathering(5).oracle_moves(&init), None);
        // Uniform families always have the offline-optimal baseline.
        assert_eq!(
            Family::FullKnowledge.oracle_moves(&init),
            Some(crate::oracle::oracle_moves(&init).total_moves)
        );
    }
}
