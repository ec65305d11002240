//! Run-driver vocabulary: the [`Schedule`] adversary presets and the
//! [`DeployReport`] produced by every run.
//!
//! The family choice lives in [`crate::family`] (the [`Algorithm`]
//! handle re-exported here is an alias of
//! [`Family`](crate::family::Family)); the builder that actually drives
//! runs lives in [`crate::deployment::Deployment`].

use ringdeploy_sim::scheduler::{DelayAgent, OneAtATime, Random, RoundRobin};
use ringdeploy_sim::{AgentId, DeploymentCheck, Metrics, PhaseTally, Scheduler, SimError, Trace};

pub use crate::family::Algorithm;

/// Which schedule adversary drives the run — the *preset* vocabulary.
///
/// Presets cover the paper's standard adversaries; arbitrary user-defined
/// adversaries plug into
/// [`Deployment::scheduler`](crate::deployment::Deployment::scheduler)
/// directly. Note that [`Schedule::Synchronous`] is **not** a scheduler:
/// lock-step execution is a different driver mode, selected type-safely
/// with [`Deployment::synchronous`](crate::deployment::Deployment::synchronous).
/// [`Schedule::into_scheduler`] therefore returns an error for it instead
/// of silently substituting an arbitrary fair scheduler (which is what
/// its predecessor, the old private `Schedule::build()` helper, did).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Deterministic round-robin over agent ids.
    RoundRobin,
    /// Seeded uniform random choice.
    Random(u64),
    /// Drive the lowest-id enabled agent as far as possible.
    OneAtATime,
    /// Starve one agent while any other can act.
    DelayAgent(usize),
    /// Lock-step rounds; reports ideal time. Handled by the synchronous
    /// driver mode, never by a [`Scheduler`].
    Synchronous,
}

impl Schedule {
    /// Instantiates the scheduler realising this preset.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::SynchronousSchedule`] for
    /// [`Schedule::Synchronous`]: lock-step execution is a driver mode,
    /// not a schedule adversary.
    pub fn into_scheduler(self) -> Result<Box<dyn Scheduler>, DeployError> {
        match self {
            Schedule::RoundRobin => Ok(Box::new(RoundRobin::new())),
            Schedule::Random(seed) => Ok(Box::new(Random::seeded(seed))),
            Schedule::OneAtATime => Ok(Box::new(OneAtATime::new())),
            Schedule::DelayAgent(i) => Ok(Box::new(DelayAgent::new(AgentId(i)))),
            Schedule::Synchronous => Err(DeployError::SynchronousSchedule),
        }
    }

    /// A stable label for reports and tables (e.g. `random(42)`).
    pub fn label(self) -> String {
        match self {
            Schedule::RoundRobin => "round-robin".to_string(),
            Schedule::Random(seed) => format!("random({seed})"),
            Schedule::OneAtATime => "one-at-a-time".to_string(),
            Schedule::DelayAgent(i) => format!("delay-agent({i})"),
            Schedule::Synchronous => "synchronous".to_string(),
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Error produced by the run drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The underlying simulation hit a limit or a scheduler bug.
    Sim(SimError),
    /// [`Schedule::Synchronous`] was used where an asynchronous scheduler
    /// is required. Use
    /// [`Deployment::synchronous`](crate::deployment::Deployment::synchronous)
    /// for lock-step runs.
    SynchronousSchedule,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Sim(e) => write!(f, "{e}"),
            DeployError::SynchronousSchedule => write!(
                f,
                "Schedule::Synchronous is a driver mode, not a scheduler; \
                 use Deployment::synchronous() for lock-step runs"
            ),
        }
    }
}

impl std::error::Error for DeployError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeployError::Sim(e) => Some(e),
            DeployError::SynchronousSchedule => None,
        }
    }
}

impl From<SimError> for DeployError {
    fn from(e: SimError) -> Self {
        DeployError::Sim(e)
    }
}

/// Per-phase slice of a run's activity, derived from the engine's
/// [`PhaseTally`] with an owned label so reports stay self-contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseMetric {
    /// The behavior-reported phase label (e.g. `"selection"`).
    pub name: String,
    /// Atomic actions executed in this phase.
    pub activations: u64,
    /// Moves performed in this phase.
    pub moves: u64,
}

impl From<&PhaseTally> for PhaseMetric {
    fn from(tally: &PhaseTally) -> Self {
        PhaseMetric {
            name: tally.name.to_string(),
            activations: tally.activations,
            moves: tally.moves,
        }
    }
}

/// The result of a driver run: the paper's three measures, the acceptance
/// verdict, per-phase breakdowns and (optionally) the captured trace.
#[derive(Debug, Clone)]
pub struct DeployReport {
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// Label of the scheduler (or `"synchronous"`) that drove the run.
    pub scheduler: String,
    /// Ring size.
    pub n: usize,
    /// Agent count.
    pub k: usize,
    /// Symmetry degree of the initial configuration.
    pub symmetry_degree: usize,
    /// Acceptance verdict against the appropriate Definition (1 or 2).
    pub check: DeploymentCheck,
    /// Final node per agent.
    pub positions: Vec<usize>,
    /// Ideal time in rounds (synchronous runs only).
    pub ideal_time: Option<u64>,
    /// Atomic actions executed by the run.
    pub steps: u64,
    /// Engine metrics (moves, memory, messages).
    pub metrics: Metrics,
    /// Activity broken down by algorithm phase, in order of appearance.
    pub phases: Vec<PhaseMetric>,
    /// The event trace, when requested via
    /// [`Deployment::capture_trace`](crate::deployment::Deployment::capture_trace).
    /// Not serialized.
    pub trace: Option<Trace>,
    /// Fingerprint of the canonical instance key this report answers
    /// (`InstanceKey::fingerprint` in `ringdeploy-analysis`), stamped by
    /// batch/service layers so cache identity is auditable from the
    /// report alone. `None` for ad-hoc runs. Hex-encoded in JSON.
    pub instance_fingerprint: Option<u64>,
}

impl DeployReport {
    /// Whether the run satisfied its Definition.
    pub fn succeeded(&self) -> bool {
        self.check.is_satisfied()
    }

    /// Whether the run ended in the typed crash-degradation outcome:
    /// survivors settled, but the fault plan's crash-stops made the full
    /// definition unattainable.
    pub fn degraded(&self) -> bool {
        self.check.is_crash_degraded()
    }
}

mod json_impls {
    use super::{DeployReport, PhaseMetric, Schedule};
    use ringdeploy_json::{hex_u64, FromJson, Json, JsonError, ToJson};

    impl ToJson for Schedule {
        fn to_json(&self) -> Json {
            match self {
                Schedule::RoundRobin => Json::String("round-robin".to_string()),
                Schedule::OneAtATime => Json::String("one-at-a-time".to_string()),
                Schedule::Synchronous => Json::String("synchronous".to_string()),
                Schedule::Random(seed) => Json::object([("random", seed.to_json())]),
                Schedule::DelayAgent(i) => Json::object([("delay_agent", i.to_json())]),
            }
        }
    }

    impl FromJson for Schedule {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            if let Some(name) = json.as_str() {
                return match name {
                    "round-robin" => Ok(Schedule::RoundRobin),
                    "one-at-a-time" => Ok(Schedule::OneAtATime),
                    "synchronous" => Ok(Schedule::Synchronous),
                    other => Err(JsonError::Decode(format!("unknown schedule `{other}`"))),
                };
            }
            if let Ok(seed) = json.field::<u64>("random") {
                return Ok(Schedule::Random(seed));
            }
            if let Ok(agent) = json.field::<usize>("delay_agent") {
                return Ok(Schedule::DelayAgent(agent));
            }
            Err(JsonError::Decode(format!("unknown schedule {json}")))
        }
    }

    impl ToJson for PhaseMetric {
        fn to_json(&self) -> Json {
            Json::object([
                ("name", self.name.to_json()),
                ("activations", self.activations.to_json()),
                ("moves", self.moves.to_json()),
            ])
        }
    }

    impl FromJson for PhaseMetric {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            Ok(PhaseMetric {
                name: json.field("name")?,
                activations: json.field("activations")?,
                moves: json.field("moves")?,
            })
        }
    }

    impl ToJson for DeployReport {
        fn to_json(&self) -> Json {
            Json::object([
                ("algorithm", self.algorithm.to_json()),
                ("scheduler", self.scheduler.to_json()),
                ("n", self.n.to_json()),
                ("k", self.k.to_json()),
                ("symmetry_degree", self.symmetry_degree.to_json()),
                ("check", self.check.to_json()),
                ("positions", self.positions.to_json()),
                ("ideal_time", self.ideal_time.to_json()),
                ("steps", self.steps.to_json()),
                ("metrics", self.metrics.to_json()),
                ("phases", self.phases.to_json()),
                (
                    "instance_fingerprint",
                    self.instance_fingerprint.map(hex_u64).to_json(),
                ),
            ])
        }
    }

    impl FromJson for DeployReport {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            Ok(DeployReport {
                algorithm: json.field("algorithm")?,
                scheduler: json.field("scheduler")?,
                n: json.field("n")?,
                k: json.field("k")?,
                symmetry_degree: json.field("symmetry_degree")?,
                check: json.field("check")?,
                positions: json.field("positions")?,
                ideal_time: json.optional_field("ideal_time")?,
                steps: json.field("steps")?,
                metrics: json.field("metrics")?,
                phases: json.field("phases")?,
                trace: None,
                instance_fingerprint: json.optional_hex_field("instance_fingerprint")?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use ringdeploy_sim::InitialConfig;

    #[test]
    fn every_async_preset_deploys_every_algorithm() {
        let init = InitialConfig::new(15, vec![0, 2, 3, 8]).unwrap();
        for algo in Algorithm::ALL {
            for schedule in [
                Schedule::RoundRobin,
                Schedule::Random(7),
                Schedule::OneAtATime,
                Schedule::DelayAgent(1),
            ] {
                let report = Deployment::of(&init)
                    .algorithm(algo)
                    .schedule(schedule)
                    .unwrap()
                    .run()
                    .unwrap();
                assert!(
                    report.succeeded(),
                    "{algo} under {schedule:?}: {:?}",
                    report.check
                );
            }
        }
    }

    #[test]
    fn synchronous_schedule_error_names_the_fix() {
        let err = DeployError::SynchronousSchedule;
        assert!(err.to_string().contains("synchronous"));
        assert!(err.to_string().contains("Deployment::synchronous"));
    }

    #[test]
    fn into_scheduler_rejects_synchronous() {
        assert!(matches!(
            Schedule::Synchronous.into_scheduler(),
            Err(DeployError::SynchronousSchedule)
        ));
        assert_eq!(
            Schedule::Random(3).into_scheduler().unwrap().name(),
            "random"
        );
    }

    #[test]
    fn report_carries_symmetry_degree() {
        let init = InitialConfig::new(12, vec![0, 1, 3, 6, 7, 9]).unwrap();
        let report = Deployment::of(&init)
            .algorithm(Algorithm::Relaxed)
            .run()
            .unwrap();
        assert_eq!(report.symmetry_degree, 2);
        assert!(report.succeeded());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Schedule::Random(42).label(), "random(42)");
        assert_eq!(Schedule::DelayAgent(1).label(), "delay-agent(1)");
        assert_eq!(
            Algorithm::from_name("algo2-log-space"),
            Some(Algorithm::LogSpace)
        );
        assert_eq!(Algorithm::from_name("nope"), None);
    }
}
