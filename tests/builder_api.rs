//! Contract tests for the `Deployment` builder / `Sweep` batch API:
//!
//! * builder runs are deterministic — identical configurations and seeds
//!   produce byte-identical reports;
//! * a user-defined `Scheduler` drives every algorithm to quiescence
//!   end-to-end;
//! * `Sweep` is deterministic for a fixed seed, across thread counts and
//!   against its sequential reference;
//! * `DeployReport` and `Measurement` survive a JSON round-trip.

use ringdeploy::analysis::{summarize, Workload};
use ringdeploy::sim::scheduler::{Activation, Scheduler};
use ringdeploy::{Algorithm, DeployError, Deployment, InitialConfig, RunLimits, Schedule, Sweep};

fn clustered_init() -> InitialConfig {
    InitialConfig::new(36, vec![0, 1, 2, 3, 4, 5]).expect("valid")
}

#[test]
fn builder_runs_are_deterministic_on_identical_seeds() {
    let init = clustered_init();
    for algorithm in Algorithm::ALL {
        for schedule in [
            Schedule::RoundRobin,
            Schedule::Random(42),
            Schedule::Random(7),
            Schedule::OneAtATime,
            Schedule::DelayAgent(2),
        ] {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    Deployment::of(&init)
                        .algorithm(algorithm)
                        .schedule(schedule)
                        .expect("asynchronous preset")
                        .run()
                        .expect("builder run")
                })
                .collect();
            let (a, b) = (&runs[0], &runs[1]);
            assert_eq!(a.positions, b.positions, "{algorithm} {schedule}");
            assert_eq!(a.check, b.check);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.ideal_time, b.ideal_time);
            assert!(a.succeeded(), "{algorithm} {schedule}: {:?}", a.check);
        }
    }
}

/// A user-defined adversary: alternates between the lowest- and
/// highest-id enabled activation. Fair: a lone enabled agent is always
/// chosen either way.
struct ZigZag {
    flip: bool,
}

impl Scheduler for ZigZag {
    fn select(&mut self, enabled: &[Activation]) -> usize {
        self.flip = !self.flip;
        let key = |i: &usize| enabled[*i].agent.index();
        let range = 0..enabled.len();
        if self.flip {
            range.min_by_key(key).expect("non-empty")
        } else {
            range.max_by_key(key).expect("non-empty")
        }
    }

    fn name(&self) -> &'static str {
        "zig-zag"
    }
}

#[test]
fn user_defined_scheduler_runs_every_algorithm_to_quiescence() {
    let init = clustered_init();
    for algorithm in Algorithm::ALL {
        let report = Deployment::of(&init)
            .algorithm(algorithm)
            .scheduler(ZigZag { flip: false })
            .run()
            .expect("run completes");
        assert!(report.succeeded(), "{algorithm}: {:?}", report.check);
        assert_eq!(report.scheduler, "zig-zag");
        // The run really went through: every agent acted at least once.
        assert!(report.steps >= init.agent_count() as u64);
    }
}

#[test]
fn synchronous_is_a_mode_not_a_schedule() {
    let init = clustered_init();
    // The preset is rejected by the scheduler path...
    assert_eq!(
        Deployment::of(&init)
            .schedule(Schedule::Synchronous)
            .map(|_| ())
            .unwrap_err(),
        DeployError::SynchronousSchedule
    );
    // ...while the typed mode works and reports ideal time.
    let report = Deployment::of(&init)
        .algorithm(Algorithm::LogSpace)
        .synchronous()
        .run()
        .expect("lock-step run");
    assert!(report.succeeded());
    assert!(report.ideal_time.is_some());
}

#[test]
fn builder_knobs_compose() {
    let init = clustered_init();
    let report = Deployment::of(&init)
        .algorithm(Algorithm::Relaxed)
        .scheduler(ZigZag { flip: true })
        .limits(RunLimits::new(1_000_000, 1_000_000))
        .capture_trace(512)
        .run()
        .expect("run completes");
    assert!(report.succeeded());
    let trace = report.trace.as_ref().expect("trace requested");
    assert!(trace.len() <= 512);
    assert!(!trace.is_empty());
    // Phase metrics partition the run's activity.
    let total: u64 = report.phases.iter().map(|p| p.activations).sum();
    assert_eq!(total, report.steps);
}

fn demo_sweep() -> Sweep {
    Sweep::new()
        .algorithms(Algorithm::ALL)
        .workload(Workload::Random { n: 40, k: 5 })
        .workload(Workload::QuarterRing { n: 32, k: 8 })
        .random_per_seed()
        .seeds([3, 4])
}

#[test]
fn sweep_is_deterministic_under_a_fixed_seed() {
    let first = demo_sweep().threads(4).run().expect("sweep");
    let second = demo_sweep().threads(2).run().expect("sweep");
    let sequential = demo_sweep().threads(1).run().expect("sweep");
    assert_eq!(first.len(), 3 * 2 * 2);
    for ((a, b), c) in first.iter().zip(&second).zip(&sequential) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.measurement, b.measurement);
        assert_eq!(a.measurement, c.measurement);
    }
    let cells = summarize(&first);
    assert!(cells.iter().all(|c| c.success_rate == 1.0));
}

mod serde_round_trips {
    use super::*;
    use ringdeploy::analysis::Measurement;
    use ringdeploy::DeployReport;
    use ringdeploy_json::{FromJson, Json, ToJson};

    #[test]
    fn deploy_report_round_trips_through_json() {
        let init = clustered_init();
        let report = Deployment::of(&init)
            .algorithm(Algorithm::LogSpace)
            .schedule(Schedule::Random(5))
            .expect("preset")
            .capture_trace(64)
            .run()
            .expect("run");
        let text = report.to_json().to_string();
        let parsed =
            DeployReport::from_json(&Json::parse(&text).expect("valid JSON")).expect("decodes");
        assert_eq!(parsed.algorithm, report.algorithm);
        assert_eq!(parsed.scheduler, report.scheduler);
        assert_eq!(parsed.n, report.n);
        assert_eq!(parsed.k, report.k);
        assert_eq!(parsed.symmetry_degree, report.symmetry_degree);
        assert_eq!(parsed.check, report.check);
        assert_eq!(parsed.positions, report.positions);
        assert_eq!(parsed.ideal_time, report.ideal_time);
        assert_eq!(parsed.steps, report.steps);
        assert_eq!(parsed.metrics, report.metrics);
        assert_eq!(parsed.phases, report.phases);
        // The trace is observability state, deliberately not serialized.
        assert!(parsed.trace.is_none());
    }

    #[test]
    fn measurement_round_trips_through_json() {
        let rows = demo_sweep().run().expect("sweep");
        for row in rows {
            let text = row.measurement.to_json().to_string();
            let parsed =
                Measurement::from_json(&Json::parse(&text).expect("valid JSON")).expect("decodes");
            assert_eq!(parsed, row.measurement);
        }
    }

    #[test]
    fn schedule_json_covers_every_variant() {
        for schedule in [
            Schedule::RoundRobin,
            Schedule::Random(123),
            Schedule::OneAtATime,
            Schedule::DelayAgent(4),
            Schedule::Synchronous,
        ] {
            let text = schedule.to_json().to_string();
            let parsed =
                Schedule::from_json(&Json::parse(&text).expect("valid JSON")).expect("decodes");
            assert_eq!(parsed, schedule);
        }
    }
}
