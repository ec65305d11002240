//! Bound certification: evaluating the paper's complexity bounds against
//! *measured worst cases*, with replayable evidence.
//!
//! The paper's headline results are bounds — total moves `O(kn)`, agent
//! memory `O(k log n)` / `O(log n)` / `O((k/l) log(n/l))` — proved
//! against a fully asynchronous adversary. Sweeps measure average-case
//! behaviour and the explorer proves reachability properties; neither
//! says how *tight* the bounds are, because neither searches for the
//! schedule the adversary would actually pick. This module closes that
//! gap: a [`BoundCertificate`] records, for one instance × algorithm ×
//! [`Objective`], the recorded paper bound (shape + empirical constant),
//! the measured worst case at one of three evidence tiers, the witness
//! schedule that achieves it, and the competitive ratio against the
//! offline-optimal [`oracle_moves`](crate::oracle_moves) baseline.
//!
//! # Evidence tiers
//!
//! * [`EvidenceTier::Sweep`] — the weakest: the maximum over a sample of
//!   schedules (64 random seeds by default, plus every deterministic
//!   adversary preset). A lower bound on the true worst case.
//! * [`EvidenceTier::Exhaustive`] — the exact worst-case
//!   search over the **plain** (unquotiented) configuration space
//!   ([`SymmetryMode::Off`]): every reachable concrete configuration is
//!   visited, so the maximum is exact. This is the instrumented
//!   counterpart of the explorer's full reachable sweep — the search's
//!   `distinct_states` equals the explorer's `states` in the same mode.
//! * [`EvidenceTier::Adversarial`] — the same exact maximum computed
//!   over the rotation quotient ([`SymmetryMode::Rotation`], the
//!   default): identical value, a fraction of the work (see
//!   [`ringdeploy_sim::adversary`] for why the remaining-value memo is
//!   exact on the quotient).
//!
//! The two search tiers return the worst schedule as a witness
//! replayable through [`Replay`](ringdeploy_sim::scheduler::Replay) —
//! a certificate is not a claim, it is a re-runnable experiment.
//!
//! # Recorded constants
//!
//! Asymptotic bounds say nothing about constants; a certificate must.
//! The constants recorded in [`paper_bound`] are *empirical envelopes*:
//! the smallest round numbers that dominate every adversarial exact
//! maximum measured across the exhaustive verification tier (n ≤ 20,
//! k ≤ 6, all three families, uniform through fully clustered starts) —
//! e.g. Algorithm 1's worst-case total moves measured ≤ 2.0·kn, recorded
//! as `3·k·n`. A certified instance whose worst case exceeds the
//! recorded bound (`!holds()`) is a *finding*: either the constant or
//! the reproduction is wrong. CI fails on it.
//!
//! # Example
//!
//! ```
//! use ringdeploy_analysis::{certify_one, CertifySettings, EvidenceTier, Objective};
//! use ringdeploy_core::Algorithm;
//! use ringdeploy_sim::InitialConfig;
//!
//! let init = InitialConfig::new(12, vec![0, 3, 6, 9])?;
//! let cert = certify_one(
//!     Algorithm::FullKnowledge,
//!     &init,
//!     Objective::TotalMoves,
//!     EvidenceTier::Adversarial,
//!     &CertifySettings::default(),
//! )?;
//! assert!(cert.holds(), "worst case {} must satisfy {}", cert.worst_value, cert.bound.value);
//! assert!(cert.witness.is_some(), "search tiers carry the worst schedule");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use ringdeploy_core::{Algorithm, DeployError, Deployment, Schedule};
use ringdeploy_sim::adversary::{Adversary, AdversaryError, Objective, WorstCase};
use ringdeploy_sim::explore::{ExploreLimits, SymmetryMode};
use ringdeploy_sim::scheduler::Activation;
use ringdeploy_sim::{DeploymentCheck, InitialConfig};

use crate::grid::{Batch, CellJob};
use crate::key::{InstanceKey, JobKind};

pub use ringdeploy_core::PaperBound;

/// The paper bound for `algorithm` × `objective` at an `(n, k, l)`
/// instance, with the recorded constant — a thin wrapper over
/// [`ProblemFamily::paper_bound`](ringdeploy_core::ProblemFamily::paper_bound),
/// kept for callers that predate the trait. Shapes come from the
/// Table-1 expectations in `ringdeploy-core`; the activation bound
/// shares the move shape (every activation beyond the bounded moves is
/// a wake/suspend bounded by the same walks).
pub fn paper_bound(
    algorithm: Algorithm,
    objective: Objective,
    n: usize,
    k: usize,
    l: usize,
) -> PaperBound {
    algorithm.paper_bound(objective, n, k, l)
}

/// How much evidence backs a certificate — see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvidenceTier {
    /// Maximum over sampled schedules (random seeds + deterministic
    /// adversary presets). A lower bound on the true worst case.
    Sweep,
    /// Exact maximum via the worst-case search over the plain configuration
    /// space ([`SymmetryMode::Off`]) — every reachable concrete
    /// configuration visited.
    Exhaustive,
    /// Exact maximum via the worst-case search over the rotation quotient
    /// ([`SymmetryMode::Rotation`]) — same value, smaller search.
    Adversarial,
}

impl EvidenceTier {
    /// All tiers, weakest first.
    pub const ALL: [EvidenceTier; 3] = [
        EvidenceTier::Sweep,
        EvidenceTier::Exhaustive,
        EvidenceTier::Adversarial,
    ];

    /// A stable machine-readable name (used by JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            EvidenceTier::Sweep => "sweep",
            EvidenceTier::Exhaustive => "exhaustive",
            EvidenceTier::Adversarial => "adversarial",
        }
    }

    /// Parses the output of [`EvidenceTier::name`].
    pub fn from_name(name: &str) -> Option<EvidenceTier> {
        EvidenceTier::ALL.into_iter().find(|t| t.name() == name)
    }
}

impl std::fmt::Display for EvidenceTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Search diagnostics of the search tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct configurations visited (rotation classes under the
    /// adversarial tier).
    pub distinct_states: usize,
    /// State expansions. The search expands each distinct state once,
    /// so a completed search has `expansions == distinct_states`.
    pub expansions: usize,
    /// Children folded through the remaining-value memo: their state was
    /// already solved, so its subtree was not walked again.
    pub dominance_prunes: u64,
    /// Longest schedule prefix explored.
    pub max_depth_seen: usize,
}

impl From<&WorstCase> for SearchStats {
    fn from(worst: &WorstCase) -> Self {
        SearchStats {
            distinct_states: worst.distinct_states,
            expansions: worst.expansions,
            dominance_prunes: worst.dominance_prunes,
            max_depth_seen: worst.max_depth_seen,
        }
    }
}

/// The graceful-degradation verdict of a certificate on a **faulted**
/// instance (non-empty [`FaultPlan`](ringdeploy_sim::FaultPlan)): does
/// the family still meet its definition and bound, halt in the typed
/// crash-degraded state, or fail to reach quiescence at all? Computed
/// from a deterministic round-robin probe run of the faulted instance,
/// alongside the worst-case search. Fault-free certificates carry no
/// verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationVerdict {
    /// The faulted instance still satisfies its full definition and the
    /// measured worst case satisfies the recorded bound (possible under
    /// edge-outage-only plans, which delay but never destroy agents).
    BoundHolds,
    /// The faulted instance reaches quiescence but not the definition;
    /// the typed [`DeploymentCheck`] says exactly how it degraded
    /// (crash-degraded survivors, a bad gap, a collision, ...).
    Degraded(DeploymentCheck),
    /// The probe run never reached quiescence within its limits — the
    /// fault plan is pinned as divergent for this instance.
    Diverges,
}

/// One certified bound: instance, recorded bound, measured worst case,
/// evidence. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCertificate {
    /// Algorithm family the bound belongs to.
    pub algorithm: Algorithm,
    /// The certified measure.
    pub objective: Objective,
    /// How the worst case was measured.
    pub tier: EvidenceTier,
    /// Ring size.
    pub n: usize,
    /// Agent count.
    pub k: usize,
    /// Symmetry degree of the initial configuration (the `l` in the
    /// relaxed family's bounds).
    pub symmetry_degree: usize,
    /// The recorded paper bound evaluated at the instance.
    pub bound: PaperBound,
    /// The measured worst case (exact for the search tiers, a sampled
    /// maximum for [`EvidenceTier::Sweep`]).
    pub worst_value: u64,
    /// The schedule achieving `worst_value`, replayable through
    /// [`Replay`](ringdeploy_sim::scheduler::Replay) — search tiers
    /// only.
    pub witness: Option<Vec<Activation>>,
    /// Fingerprint of the witness's terminal configuration (canonical
    /// under the adversarial tier, plain under the exhaustive tier).
    pub terminal_fingerprint: Option<u64>,
    /// Offline-optimal total moves for the instance
    /// ([`oracle_moves`](crate::oracle_moves)) —
    /// [`Objective::TotalMoves`] only.
    pub oracle_moves: Option<u64>,
    /// `worst_value / oracle_moves`: the adversarial price of
    /// distributedness. `None` unless the objective is total moves and
    /// the oracle cost is non-zero.
    pub competitive_ratio: Option<f64>,
    /// Branch-and-bound diagnostics — search tiers only.
    pub search: Option<SearchStats>,
    /// Graceful-degradation verdict — instances with a non-empty
    /// [`FaultPlan`](ringdeploy_sim::FaultPlan) only. `None` (and
    /// omitted from JSON, keeping fault-free certificates byte-identical
    /// to the pre-fault encoding) otherwise.
    pub degradation: Option<DegradationVerdict>,
    /// Fingerprint of the canonical instance key this certificate
    /// answers ([`InstanceKey::fingerprint`](crate::InstanceKey)),
    /// stamped by batch/service layers so cache identity is auditable
    /// from the certificate alone. `None` for ad-hoc certifications.
    /// Hex-encoded in JSON.
    pub instance_fingerprint: Option<u64>,
}

impl BoundCertificate {
    /// Whether the measured worst case satisfies the recorded bound.
    pub fn holds(&self) -> bool {
        (self.worst_value as f64) <= self.bound.value
    }

    /// `worst_value / bound` — how much of the recorded bound the worst
    /// case actually uses (1.0 = tight, > 1.0 = violated).
    pub fn utilisation(&self) -> f64 {
        self.worst_value as f64 / self.bound.value
    }
}

/// Tunables shared by [`certify_one`] and the [`Certify`] batch.
#[derive(Debug, Clone)]
pub struct CertifySettings {
    /// Random seeds sampled by the sweep tier (default 64), in addition
    /// to the deterministic presets (round-robin, one-at-a-time and
    /// every `delay-agent` victim).
    pub sweep_seeds: u64,
    /// Search limits for the search tiers (default:
    /// [`ExploreLimits::for_instance`] per instance).
    pub limits: Option<ExploreLimits>,
}

impl Default for CertifySettings {
    fn default() -> Self {
        CertifySettings {
            sweep_seeds: 64,
            limits: None,
        }
    }
}

/// A certification failure (one cell).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyErrorKind {
    /// A sweep-tier run failed (limits, scheduler misuse).
    Deploy(DeployError),
    /// A search-tier worst-case search failed (cycle, limits).
    Search(AdversaryError),
}

impl std::fmt::Display for CertifyErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyErrorKind::Deploy(e) => write!(f, "sweep-tier run failed: {e}"),
            CertifyErrorKind::Search(e) => write!(f, "worst-case search failed: {e}"),
        }
    }
}

impl std::error::Error for CertifyErrorKind {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CertifyErrorKind::Deploy(e) => Some(e),
            CertifyErrorKind::Search(e) => Some(e),
        }
    }
}

impl From<DeployError> for CertifyErrorKind {
    fn from(e: DeployError) -> Self {
        CertifyErrorKind::Deploy(e)
    }
}

impl From<AdversaryError> for CertifyErrorKind {
    fn from(e: AdversaryError) -> Self {
        CertifyErrorKind::Search(e)
    }
}

/// Runs the worst-case search for one explicit instance under
/// `algorithm` — trait-routed through
/// [`ProblemFamily::worst_case`](ringdeploy_core::ProblemFamily::worst_case),
/// mirroring [`explore_one`](crate::explore_one). The CLI's
/// `--adversary` mode and the daemon's adversary cells route through
/// here; [`certify_all`] asks the family for every objective at once.
///
/// # Errors
///
/// See [`AdversaryError`].
pub fn worst_case_one(
    algorithm: Algorithm,
    init: &InitialConfig,
    adversary: &Adversary,
    objective: Objective,
) -> Result<WorstCase, AdversaryError> {
    algorithm.worst_case(init, adversary, objective)
}

/// The objective's value in a completed run's report.
fn objective_of_report(objective: Objective, report: &ringdeploy_core::DeployReport) -> u64 {
    match objective {
        Objective::TotalMoves => report.metrics.total_moves(),
        Objective::TotalActivations => report.steps,
        Objective::PeakMemoryBits => report.metrics.peak_memory_bits() as u64,
    }
}

/// Certifies one bound: measures the worst case of `objective` for
/// `algorithm` on `init` at the given evidence `tier` and evaluates the
/// recorded paper bound against it — [`certify_all`] with one objective.
/// See the [module docs](self).
///
/// # Errors
///
/// See [`CertifyErrorKind`].
pub fn certify_one(
    algorithm: Algorithm,
    init: &InitialConfig,
    objective: Objective,
    tier: EvidenceTier,
    settings: &CertifySettings,
) -> Result<BoundCertificate, CertifyErrorKind> {
    let mut certificates = certify_all(algorithm, init, &[objective], tier, settings)?;
    Ok(certificates.pop().expect("one certificate per objective"))
}

/// Certifies every objective in `objectives` for `algorithm` on `init`
/// at `tier` from one measurement: one worst-case search
/// ([`ProblemFamily::worst_cases`](ringdeploy_core::ProblemFamily::worst_cases))
/// or one set of sweep runs, plus one oracle call and one degradation
/// probe. Returns one certificate per entry, in order, each equal to
/// what [`certify_one`] returns for its objective.
///
/// # Errors
///
/// See [`CertifyErrorKind`]; one error stands for every objective.
pub fn certify_all(
    algorithm: Algorithm,
    init: &InitialConfig,
    objectives: &[Objective],
    tier: EvidenceTier,
    settings: &CertifySettings,
) -> Result<Vec<BoundCertificate>, CertifyErrorKind> {
    let n = init.ring_size();
    let k = init.agent_count();
    let l = init.symmetry_degree();
    // Per objective: worst value, witness, terminal fingerprint, search
    // statistics.
    type Measured = (
        u64,
        Option<Vec<Activation>>,
        Option<u64>,
        Option<SearchStats>,
    );
    let measured: Vec<Measured> = match tier {
        EvidenceTier::Sweep => {
            let mut schedules: Vec<Schedule> = vec![Schedule::RoundRobin, Schedule::OneAtATime];
            schedules.extend((0..k).map(Schedule::DelayAgent));
            schedules.extend((0..settings.sweep_seeds).map(Schedule::Random));
            let mut max = vec![0u64; objectives.len()];
            for schedule in schedules {
                let report = Deployment::of(init)
                    .algorithm(algorithm)
                    .run_preset(schedule)?;
                for (max, &objective) in max.iter_mut().zip(objectives) {
                    *max = (*max).max(objective_of_report(objective, &report));
                }
            }
            max.into_iter().map(|max| (max, None, None, None)).collect()
        }
        EvidenceTier::Exhaustive | EvidenceTier::Adversarial => {
            let symmetry = match tier {
                EvidenceTier::Exhaustive => SymmetryMode::Off,
                _ => SymmetryMode::Rotation,
            };
            let limits = settings
                .limits
                .unwrap_or_else(|| ExploreLimits::for_instance(n, k));
            let adversary = Adversary::new().limits(limits).symmetry(symmetry);
            algorithm
                .worst_cases(init, &adversary, objectives)?
                .into_iter()
                .map(|worst| {
                    let stats = SearchStats::from(&worst);
                    (
                        worst.value,
                        Some(worst.witness),
                        Some(worst.terminal_fingerprint),
                        Some(stats),
                    )
                })
                .collect()
        }
    };
    let oracle = objectives
        .contains(&Objective::TotalMoves)
        .then(|| algorithm.oracle_moves(init))
        .flatten();
    let probe = degradation_probe(algorithm, init);
    Ok(objectives
        .iter()
        .zip(measured)
        .map(
            |(&objective, (worst_value, witness, terminal_fingerprint, search))| {
                let bound = paper_bound(algorithm, objective, n, k, l);
                let (oracle, ratio) = match objective {
                    Objective::TotalMoves => {
                        let ratio = oracle
                            .filter(|&o| o > 0)
                            .map(|o| worst_value as f64 / o as f64);
                        (oracle, ratio)
                    }
                    _ => (None, None),
                };
                let holds = (worst_value as f64) <= bound.value;
                BoundCertificate {
                    algorithm,
                    objective,
                    tier,
                    n,
                    k,
                    symmetry_degree: l,
                    bound,
                    worst_value,
                    witness,
                    terminal_fingerprint,
                    oracle_moves: oracle,
                    competitive_ratio: ratio,
                    search,
                    degradation: probe
                        .as_ref()
                        .map(|probe| degradation_verdict(probe, holds)),
                    instance_fingerprint: None,
                }
            },
        )
        .collect())
}

/// The graceful-degradation tier's probe: one deterministic round-robin
/// run of a faulted instance to quiescence, its success check or its
/// failure. `None` for fault-free instances — the verdict (like the
/// fault plan itself) only exists on faulted keys.
fn degradation_probe(
    algorithm: Algorithm,
    init: &InitialConfig,
) -> Option<Result<DeploymentCheck, DeployError>> {
    if init.faults().is_empty() {
        return None;
    }
    Some(
        Deployment::of(init)
            .algorithm(algorithm)
            .run_preset(Schedule::RoundRobin)
            .map(|report| report.check),
    )
}

/// Classifies the probe's outcome for one certificate, whose measured
/// worst case does or does not satisfy its bound.
fn degradation_verdict(
    probe: &Result<DeploymentCheck, DeployError>,
    bound_holds: bool,
) -> DegradationVerdict {
    match probe {
        Ok(check) if check.is_satisfied() && bound_holds => DegradationVerdict::BoundHolds,
        // Quiescent but short of the full claim — either the check
        // failed (typically `CrashDegraded`) or the measured worst case
        // broke the recorded bound; the carried check says which.
        Ok(check) => DegradationVerdict::Degraded(check.clone()),
        Err(_) => DegradationVerdict::Diverges,
    }
}

/// One streamed result row: the cell's key plus its certificate.
#[derive(Debug, Clone)]
pub struct CertifyRow {
    /// Which cell produced this row.
    pub cell: InstanceKey,
    /// The bound certificate. A row with `!certificate.holds()` is
    /// delivered, not turned into an error — a violated bound is the
    /// batch's most important output.
    pub certificate: BoundCertificate,
}

/// The per-cell job of a [`Certify`] batch: [`certify_all`] at the tier
/// of a group of cells that differ only in objective, so an instance is
/// searched (or swept) once for all of its objectives.
impl CellJob for CertifySettings {
    const KIND: JobKind = JobKind::Certify;
    type Row = CertifyRow;
    type Error = CertifyErrorKind;

    fn row(&self, key: &InstanceKey, init: &InitialConfig) -> Result<CertifyRow, CertifyErrorKind> {
        let mut rows = self.rows(&[key], init);
        rows.pop().expect("one row per key")
    }

    fn rows(
        &self,
        keys: &[&InstanceKey],
        init: &InitialConfig,
    ) -> Vec<Result<CertifyRow, CertifyErrorKind>> {
        let objectives: Vec<Objective> = keys
            .iter()
            .map(|key| key.objective.expect("certify keys carry an objective"))
            .collect();
        let tier = keys[0].tier.expect("certify keys carry a tier");
        match certify_all(keys[0].algorithm, init, &objectives, tier, self) {
            Ok(certificates) => keys
                .iter()
                .zip(certificates)
                .map(|(key, certificate)| {
                    Ok(CertifyRow {
                        cell: (*key).clone(),
                        certificate,
                    })
                })
                .collect(),
            Err(error) => keys.iter().map(|_| Err(error.clone())).collect(),
        }
    }
}

/// A batch of bound certifications over the cross product
/// algorithms × workloads × objectives × seeds. The cells of one
/// instance — the same key but for the objective — are certified
/// together by one [`certify_all`] call, and their rows still stream in
/// key order. Like [`Explore`](crate::Explore), cells run sequentially:
/// each worst-case search already keeps a core busy and holds its own
/// memo.
///
/// # Example
///
/// ```
/// use ringdeploy_analysis::{Certify, Objective, Workload};
/// use ringdeploy_core::Algorithm;
///
/// let rows = Certify::new()
///     .algorithms(Algorithm::ALL)
///     .workload(Workload::Uniform { n: 8, k: 4 })
///     .objective(Objective::TotalMoves)
///     .run()?;
/// assert_eq!(rows.len(), 3);
/// for row in &rows {
///     assert!(row.certificate.holds(), "{}", row.cell.label());
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type Certify = Batch<CertifySettings>;

impl Certify {
    /// Replaces the objective list (default: all three).
    pub fn objectives(mut self, objectives: impl IntoIterator<Item = Objective>) -> Self {
        self.grid.objectives = objectives.into_iter().collect();
        self
    }

    /// Restricts to one objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.grid.objectives = vec![objective];
        self
    }

    /// Selects the evidence tier of every cell (default:
    /// [`EvidenceTier::Adversarial`]).
    pub fn tier(mut self, tier: EvidenceTier) -> Self {
        self.grid.tier = tier;
        self
    }

    /// Number of random seeds the sweep tier samples (default 64).
    pub fn sweep_seeds(mut self, seeds: u64) -> Self {
        self.job.sweep_seeds = seeds;
        self
    }

    /// Overrides the search limits of every cell (default:
    /// [`ExploreLimits::for_instance`] scaled per cell).
    pub fn limits(mut self, limits: ExploreLimits) -> Self {
        self.job.limits = Some(limits);
        self
    }
}

mod json_impls {
    use super::{BoundCertificate, DegradationVerdict, EvidenceTier, SearchStats};
    use ringdeploy_json::{hex_u64, FromJson, Json, JsonError, ToJson};

    impl ToJson for DegradationVerdict {
        fn to_json(&self) -> Json {
            match self {
                DegradationVerdict::BoundHolds => Json::String("bound_holds".to_string()),
                DegradationVerdict::Diverges => Json::String("diverges".to_string()),
                DegradationVerdict::Degraded(check) => {
                    Json::object([("degraded", check.to_json())])
                }
            }
        }
    }

    impl FromJson for DegradationVerdict {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            match json.as_str() {
                Some("bound_holds") => return Ok(DegradationVerdict::BoundHolds),
                Some("diverges") => return Ok(DegradationVerdict::Diverges),
                Some(other) => {
                    return Err(JsonError::Decode(format!(
                        "unknown degradation verdict `{other}`"
                    )))
                }
                None => {}
            }
            json.field("degraded").map(DegradationVerdict::Degraded)
        }
    }

    impl ToJson for EvidenceTier {
        fn to_json(&self) -> Json {
            Json::String(self.name().to_string())
        }
    }

    impl FromJson for EvidenceTier {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            json.as_str()
                .and_then(EvidenceTier::from_name)
                .ok_or_else(|| JsonError::Decode(format!("unknown evidence tier {json}")))
        }
    }

    impl ToJson for SearchStats {
        fn to_json(&self) -> Json {
            Json::object([
                ("distinct_states", self.distinct_states.to_json()),
                ("expansions", self.expansions.to_json()),
                ("dominance_prunes", self.dominance_prunes.to_json()),
                ("max_depth_seen", self.max_depth_seen.to_json()),
            ])
        }
    }

    impl FromJson for SearchStats {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            Ok(SearchStats {
                distinct_states: json.field("distinct_states")?,
                expansions: json.field("expansions")?,
                dominance_prunes: json.field("dominance_prunes")?,
                max_depth_seen: json.field("max_depth_seen")?,
            })
        }
    }

    impl ToJson for BoundCertificate {
        fn to_json(&self) -> Json {
            let mut json = Json::object([
                ("algorithm", self.algorithm.to_json()),
                ("objective", self.objective.to_json()),
                ("tier", self.tier.to_json()),
                ("n", self.n.to_json()),
                ("k", self.k.to_json()),
                ("symmetry_degree", self.symmetry_degree.to_json()),
                ("bound", self.bound.to_json()),
                ("worst_value", self.worst_value.to_json()),
                ("witness", self.witness.to_json()),
                (
                    "terminal_fingerprint",
                    self.terminal_fingerprint.map(hex_u64).to_json(),
                ),
                ("oracle_moves", self.oracle_moves.to_json()),
                ("competitive_ratio", self.competitive_ratio.to_json()),
                (
                    "search",
                    match &self.search {
                        Some(stats) => stats.to_json(),
                        None => Json::Null,
                    },
                ),
                (
                    "instance_fingerprint",
                    self.instance_fingerprint.map(hex_u64).to_json(),
                ),
                // Derived, emitted for human/CI consumption; ignored on
                // decode.
                ("holds", self.holds().to_json()),
            ]);
            // Faulted certificates only: omitted (not null) when absent
            // so fault-free payload bytes match the pre-fault encoding.
            if let (Json::Object(map), Some(verdict)) = (&mut json, &self.degradation) {
                map.insert("degradation".to_string(), verdict.to_json());
            }
            json
        }
    }

    impl FromJson for BoundCertificate {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            let terminal_fingerprint = json.optional_hex_field("terminal_fingerprint")?;
            let instance_fingerprint = json.optional_hex_field("instance_fingerprint")?;
            Ok(BoundCertificate {
                algorithm: json.field("algorithm")?,
                objective: json.field("objective")?,
                tier: json.field("tier")?,
                n: json.field("n")?,
                k: json.field("k")?,
                symmetry_degree: json.field("symmetry_degree")?,
                bound: json.field("bound")?,
                worst_value: json.field("worst_value")?,
                witness: json.optional_field("witness")?,
                terminal_fingerprint,
                oracle_moves: json.optional_field("oracle_moves")?,
                competitive_ratio: json.optional_field("competitive_ratio")?,
                search: json.optional_field("search")?,
                degradation: json.optional_field("degradation")?,
                instance_fingerprint,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::BatchError;
    use crate::sweep::Workload;
    use ringdeploy_core::oracle_moves;
    use ringdeploy_sim::{AgentId, FaultPlan};

    #[test]
    fn batch_rows_equal_per_cell_certificates() {
        // Seeds are the innermost axis, so an instance's objectives are
        // not adjacent keys; one objective is repeated.
        for tier in EvidenceTier::ALL {
            for faults in [
                FaultPlan::none(),
                FaultPlan::none().with_crash(AgentId(1), 2),
            ] {
                let batch = Certify::new()
                    .algorithms([Algorithm::FullKnowledge, Algorithm::partial_gathering(2)])
                    .workload(Workload::Random { n: 8, k: 3 })
                    .objectives([
                        Objective::TotalMoves,
                        Objective::PeakMemoryBits,
                        Objective::TotalMoves,
                        Objective::TotalActivations,
                    ])
                    .seeds([1, 2])
                    .tier(tier)
                    .sweep_seeds(4)
                    .faults(faults);
                let rows = batch.run().expect("batch succeeds");
                let cells = batch.cells().expect("non-empty grid");
                assert_eq!(rows.len(), cells.len());
                for (row, key) in rows.iter().zip(&cells) {
                    assert_eq!(&row.cell, key);
                    let alone = certify_one(
                        key.algorithm,
                        &key.instantiate(),
                        key.objective.expect("certify key"),
                        tier,
                        &batch.job,
                    )
                    .expect("cell succeeds");
                    assert_eq!(row.certificate, alone, "{}", key.label());
                }
            }
        }
    }

    #[test]
    fn a_unit_failing_on_a_limit_reports_its_lowest_index_and_emits_nothing_after() {
        let workload = Workload::Random { n: 9, k: 3 };
        let states = |seed: u64| {
            certify_one(
                Algorithm::FullKnowledge,
                &workload.instantiate(seed),
                Objective::TotalMoves,
                EvidenceTier::Adversarial,
                &CertifySettings::default(),
            )
            .expect("unlimited search succeeds")
            .search
            .expect("search tier")
            .distinct_states
        };
        // Two seeds with differently sized spaces, the smaller first.
        let mut seeds: Vec<(usize, u64)> = Vec::new();
        for seed in 0.. {
            if seeds.iter().all(|&(s, _)| s != states(seed)) {
                seeds.push((states(seed), seed));
            }
            if seeds.len() == 2 {
                break;
            }
        }
        seeds.sort_unstable();
        let [(small, small_seed), (_, large_seed)] = [seeds[0], seeds[1]];
        // The budget holds the smaller space only. Keys run objective by
        // objective, seeds innermost: the larger instance's first key is
        // cell 1, and the smaller instance's later rows (cells 2 and 4)
        // are computed with cell 0 but must not be emitted.
        let batch = Certify::new()
            .algorithm(Algorithm::FullKnowledge)
            .workload(workload)
            .seeds([small_seed, large_seed])
            .limits(ExploreLimits::new(small, 100_000));
        let mut streamed = Vec::new();
        let err = batch.stream(|row| streamed.push(row.cell)).unwrap_err();
        match err {
            BatchError::Cell {
                index,
                error: CertifyErrorKind::Search(AdversaryError::LimitExceeded(_)),
                ..
            } => assert_eq!(index, 1),
            other => panic!("unexpected {other}"),
        }
        assert_eq!(streamed, batch.cells().expect("non-empty grid")[..1]);
    }

    #[test]
    fn adversarial_tier_certifies_the_exhaustive_instances() {
        for algorithm in Algorithm::ALL {
            for (n, homes) in [(8usize, vec![0usize, 4]), (8, vec![0, 1, 2])] {
                let init = InitialConfig::new(n, homes.clone()).expect("valid");
                for objective in Objective::ALL {
                    let cert = certify_one(
                        algorithm,
                        &init,
                        objective,
                        EvidenceTier::Adversarial,
                        &CertifySettings::default(),
                    )
                    .expect("certification succeeds");
                    assert!(
                        cert.holds(),
                        "{algorithm} {objective} n={n} homes={homes:?}: worst {} > bound {}",
                        cert.worst_value,
                        cert.bound.value
                    );
                    assert!(cert.witness.is_some());
                    assert!(cert.search.is_some());
                }
            }
        }
    }

    #[test]
    fn tiers_are_ordered_sweep_below_exact() {
        let init = InitialConfig::new(8, vec![0, 1, 2]).expect("valid");
        let settings = CertifySettings {
            sweep_seeds: 16,
            limits: None,
        };
        for objective in Objective::ALL {
            let sweep = certify_one(
                Algorithm::LogSpace,
                &init,
                objective,
                EvidenceTier::Sweep,
                &settings,
            )
            .expect("sweep tier");
            let exhaustive = certify_one(
                Algorithm::LogSpace,
                &init,
                objective,
                EvidenceTier::Exhaustive,
                &settings,
            )
            .expect("exhaustive tier");
            let adversarial = certify_one(
                Algorithm::LogSpace,
                &init,
                objective,
                EvidenceTier::Adversarial,
                &settings,
            )
            .expect("adversarial tier");
            assert!(
                sweep.worst_value <= adversarial.worst_value,
                "{objective}: sampled max must not exceed the exact max"
            );
            assert_eq!(
                exhaustive.worst_value, adversarial.worst_value,
                "{objective}: both search tiers are exact"
            );
            assert!(sweep.witness.is_none());
        }
    }

    #[test]
    fn competitive_ratio_compares_against_the_oracle() {
        let init = InitialConfig::new(8, vec![0, 1, 2]).expect("valid");
        let cert = certify_one(
            Algorithm::FullKnowledge,
            &init,
            Objective::TotalMoves,
            EvidenceTier::Adversarial,
            &CertifySettings::default(),
        )
        .expect("certification succeeds");
        let oracle = cert.oracle_moves.expect("moves objective carries oracle");
        assert_eq!(oracle, oracle_moves(&init).total_moves);
        let ratio = cert.competitive_ratio.expect("oracle > 0 on clustered");
        assert!(
            ratio >= 1.0,
            "no distributed algorithm beats the offline optimum"
        );
        // Memory certificates carry no oracle comparison.
        let mem = certify_one(
            Algorithm::FullKnowledge,
            &init,
            Objective::PeakMemoryBits,
            EvidenceTier::Adversarial,
            &CertifySettings::default(),
        )
        .expect("certification succeeds");
        assert!(mem.oracle_moves.is_none());
        assert!(mem.competitive_ratio.is_none());
    }

    #[test]
    fn recorded_bounds_evaluate_with_their_constants() {
        let bound = paper_bound(Algorithm::FullKnowledge, Objective::TotalMoves, 12, 4, 1);
        assert_eq!(bound.formula, "c*k*n");
        assert!((bound.value - bound.constant * 48.0).abs() < 1e-9);
        let relaxed = paper_bound(Algorithm::Relaxed, Objective::TotalMoves, 12, 4, 4);
        assert_eq!(relaxed.formula, "c*k*n/l");
        assert!((relaxed.value - relaxed.constant * 12.0).abs() < 1e-9);
        // Degenerate l = 0 must not divide by zero.
        let degenerate = paper_bound(Algorithm::Relaxed, Objective::PeakMemoryBits, 12, 4, 0);
        assert!(degenerate.value.is_finite());
    }

    #[test]
    fn degenerate_single_node_ring_still_certifies() {
        // Regression: `log₂(1) = 0` used to zero the memory bounds,
        // turning every n = 1 certificate into a false VIOLATED verdict
        // (and `utilisation` into ∞). The shape is floored at 1 instead.
        let init = InitialConfig::new(1, vec![0]).expect("valid");
        for algorithm in Algorithm::ALL {
            for objective in Objective::ALL {
                let cert = certify_one(
                    algorithm,
                    &init,
                    objective,
                    EvidenceTier::Adversarial,
                    &CertifySettings::default(),
                )
                .expect("certification succeeds");
                assert!(cert.bound.value > 0.0, "{algorithm} {objective}");
                assert!(
                    cert.holds(),
                    "{algorithm} {objective}: worst {} > bound {}",
                    cert.worst_value,
                    cert.bound.value
                );
                assert!(cert.utilisation().is_finite());
            }
        }
    }
}
