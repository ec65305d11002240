//! The compute kernel: one unit of [`InstanceKey`]s in, one rendered
//! report per key out.
//!
//! This is the *only* place the service invokes the verification
//! engines. The result must be a pure function of the key (the
//! cache-soundness requirement), so every free parameter is pinned:
//! explore, adversary and certify cells are the rows of the batch jobs
//! [`ExploreJob::default`], [`AdversaryJob`] and
//! [`CertifySettings::default`], which own their defaults
//! (instance-scaled [`ExploreLimits`](ringdeploy_sim::explore::ExploreLimits)
//! search limits, the rotation quotient for exploration and adversary
//! search, the default sweep seeds for certification), so a daemon cell
//! and a batch row of the same key cannot differ. Sweep cells run the
//! key's schedule preset.
//!
//! A unit is the keys of one job that differ only in their objective
//! ([`objective_units`](ringdeploy_analysis::objective_units)).
//! [`compute_unit`] instantiates the instance once and hands the whole
//! unit to [`CellJob::rows`], so an adversary or certify unit costs one
//! walk however many objectives it asks for; [`compute`] is the
//! one-key unit.
//!
//! Reports that carry an `instance_fingerprint` field (`DeployReport`,
//! `ExploreReport`, `BoundCertificate`) are stamped with the key's
//! fingerprint before rendering, so cache identity is auditable from
//! any payload a client receives.

use ringdeploy_analysis::key::{InstanceKey, JobKind};
use ringdeploy_analysis::{AdversaryJob, CellJob, CertifySettings, ExploreJob};
use ringdeploy_core::Deployment;
use ringdeploy_json::{Json, ToJson};
use ringdeploy_sim::InitialConfig;

/// Computes the report for `key`: [`compute_unit`] of the one-key unit.
/// Deterministic: equal keys produce byte-identical rendered payloads.
///
/// # Errors
///
/// Returns a human-readable message for invalid workload parameters or
/// engine failures; the daemon turns it into an `error` frame.
pub fn compute(key: &InstanceKey) -> Result<Json, String> {
    let mut results = compute_unit(&[key]);
    results.pop().expect("one result per key")
}

/// Computes the reports of `keys`, which must be equal but for their
/// objective (one unit of
/// [`objective_units`](ringdeploy_analysis::objective_units)): one
/// result per key, in order, each byte-identical to [`compute`] of its
/// key. The instance is built once, and the unit's objectives come from
/// one [`CellJob::rows`] call. A failure fails every key of the unit,
/// each with its own `"{label}: {error}"` message.
pub fn compute_unit(keys: &[&InstanceKey]) -> Vec<Result<Json, String>> {
    let Some(&first) = keys.first() else {
        return Vec::new();
    };
    // The instance, unless the workload is invalid or a key lacks a
    // field its kind needs; either fails the whole unit.
    let init = instantiate(first).and_then(|init| {
        keys.iter()
            .find_map(|key| missing_field(key))
            .map_or(Ok(init), Err)
    });
    let results = match init {
        Err(error) => keys.iter().map(|_| Err(error.clone())).collect(),
        Ok(init) => match first.kind {
            JobKind::Sweep => keys.iter().map(|key| sweep(key, &init)).collect(),
            JobKind::Explore => rows::<ExploreJob>(keys, &init, |row, key| {
                let mut report = row.report;
                report.instance_fingerprint = Some(key.fingerprint());
                report.to_json()
            }),
            // `WorstCase` has no instance_fingerprint field; the row
            // frame carries the fingerprint alongside the payload.
            JobKind::Adversary => rows::<AdversaryJob>(keys, &init, |worst, _| worst.to_json()),
            JobKind::Certify => rows::<CertifySettings>(keys, &init, |row, key| {
                let mut certificate = row.certificate;
                certificate.instance_fingerprint = Some(key.fingerprint());
                certificate.to_json()
            }),
        },
    };
    keys.iter()
        .zip(results)
        .map(|(key, result)| result.map_err(|error| format!("{}: {error}", key.label())))
        .collect()
}

/// Runs one sweep key's schedule preset.
fn sweep(key: &InstanceKey, init: &InitialConfig) -> Result<Json, String> {
    let schedule = key.schedule.expect("checked by missing_field");
    let mut report = Deployment::of(init)
        .algorithm(key.algorithm)
        .run_preset(schedule)
        .map_err(|e| e.to_string())?;
    report.instance_fingerprint = Some(key.fingerprint());
    Ok(report.to_json())
}

/// Computes a unit through the batch job `J` and renders each row with
/// `render`.
fn rows<J: CellJob + Default>(
    keys: &[&InstanceKey],
    init: &InitialConfig,
    render: impl Fn(J::Row, &InstanceKey) -> Json,
) -> Vec<Result<Json, String>>
where
    J::Error: std::fmt::Display,
{
    J::default()
        .rows(keys, init)
        .into_iter()
        .zip(keys)
        .map(|(row, key)| row.map(|row| render(row, key)).map_err(|e| e.to_string()))
        .collect()
}

/// The field `key`'s kind needs but `key` lacks, as an error. Checked
/// before the batch jobs run, because they `expect` these fields.
fn missing_field(key: &InstanceKey) -> Option<String> {
    let missing = match key.kind {
        JobKind::Sweep if key.schedule.is_none() => "schedule",
        JobKind::Adversary | JobKind::Certify if key.objective.is_none() => "objective",
        JobKind::Certify if key.tier.is_none() => "tier",
        _ => return None,
    };
    Some(format!("{} key has no {missing}", key.kind))
}

/// Instantiates the key's workload, converting generator panics (the
/// generators `assert!` their parameters) into errors — a daemon must
/// survive a malformed job.
fn instantiate(key: &InstanceKey) -> Result<InitialConfig, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| key.instantiate())).map_err(|panic| {
        let detail = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("invalid parameters");
        format!("workload rejected: {detail}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringdeploy_analysis::Workload;
    use ringdeploy_core::{Algorithm, Schedule};

    fn sweep_key() -> InstanceKey {
        InstanceKey {
            kind: JobKind::Sweep,
            algorithm: Algorithm::FullKnowledge,
            workload: Workload::Random { n: 24, k: 4 },
            schedule: Some(Schedule::Random(3)),
            seed: 3,
            objective: None,
            tier: None,
            faults: ringdeploy_sim::FaultPlan::none(),
        }
    }

    #[test]
    fn equal_keys_render_byte_identical_payloads() {
        let a = compute(&sweep_key()).unwrap().to_string();
        let b = compute(&sweep_key()).unwrap().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn payload_carries_the_key_fingerprint() {
        let key = sweep_key();
        let payload = compute(&key).unwrap();
        let hex: String = payload.field("instance_fingerprint").unwrap();
        assert_eq!(hex, format!("{:016x}", key.fingerprint()));
    }

    #[test]
    fn invalid_workloads_become_errors_not_panics() {
        let key = InstanceKey {
            workload: Workload::Random { n: 4, k: 9 }, // k > n
            ..sweep_key()
        };
        let err = compute(&key).unwrap_err();
        assert!(err.contains("workload rejected"), "{err}");
    }

    #[test]
    fn an_invalid_unit_fails_each_key_with_its_own_message() {
        use ringdeploy_analysis::Objective;
        let keys: Vec<InstanceKey> = Objective::ALL
            .into_iter()
            .map(|objective| InstanceKey {
                kind: JobKind::Adversary,
                workload: Workload::Random { n: 4, k: 9 }, // k > n
                schedule: None,
                objective: Some(objective),
                ..sweep_key()
            })
            .collect();
        let unit: Vec<&InstanceKey> = keys.iter().collect();
        let results = compute_unit(&unit);
        assert_eq!(results.len(), keys.len());
        for (key, result) in keys.iter().zip(results) {
            let err = result.unwrap_err();
            assert!(
                err.starts_with(&format!("{}: workload rejected", key.label())),
                "{err}"
            );
            assert_eq!(Err(err), compute(key));
        }
    }

    #[test]
    fn malformed_certify_keys_become_errors_not_panics() {
        use ringdeploy_analysis::{EvidenceTier, Objective};
        let key = InstanceKey {
            kind: JobKind::Certify,
            workload: Workload::Uniform { n: 8, k: 2 },
            schedule: None,
            tier: Some(EvidenceTier::Adversarial),
            ..sweep_key()
        };
        let err = compute(&key).unwrap_err();
        assert!(err.contains("certify key has no objective"), "{err}");
        let key = InstanceKey {
            objective: Some(Objective::TotalMoves),
            tier: None,
            ..key
        };
        let err = compute(&key).unwrap_err();
        assert!(err.contains("certify key has no tier"), "{err}");
    }

    /// Renders `keys` once key by key through [`compute`] and once unit
    /// by unit through [`compute_unit`], the way the daemon dispatches
    /// them; both must give `expected`, entry by entry.
    fn assert_payloads(keys: &[InstanceKey], expected: &[String]) {
        assert_eq!(keys.len(), expected.len());
        for (key, expected) in keys.iter().zip(expected) {
            let payload = compute(key).expect("cell computes");
            assert_eq!(&payload.to_string(), expected, "{}", key.label());
        }
        for unit in ringdeploy_analysis::objective_units(keys) {
            let members: Vec<&InstanceKey> = unit.iter().map(|&i| &keys[i]).collect();
            for (&i, result) in unit.iter().zip(compute_unit(&members)) {
                let payload = result.expect("unit computes");
                assert_eq!(payload.to_string(), expected[i], "{}", keys[i].label());
            }
        }
    }

    #[test]
    fn certify_payloads_render_the_batch_rows_of_their_keys() {
        use ringdeploy_analysis::{Certify, EvidenceTier};
        // The batch certifies an instance's objectives together, and so
        // does the daemon, one unit per instance. A key computed alone
        // and a key computed in its unit must render the batch row's
        // bytes, fingerprint stamp included.
        let plans = [
            ringdeploy_sim::FaultPlan::none(),
            ringdeploy_sim::FaultPlan::none().with_crash(ringdeploy_sim::AgentId(1), 2),
        ];
        for (tier, faults) in EvidenceTier::ALL
            .into_iter()
            .flat_map(|tier| plans.iter().map(move |faults| (tier, faults.clone())))
        {
            let batch = Certify::new()
                .algorithms([Algorithm::FullKnowledge, Algorithm::partial_gathering(2)])
                .workload(Workload::Random { n: 8, k: 3 })
                .seeds([1, 2])
                .tier(tier)
                .faults(faults);
            let (keys, expected): (Vec<InstanceKey>, Vec<String>) = batch
                .run()
                .expect("batch succeeds")
                .into_iter()
                .map(|row| {
                    let mut certificate = row.certificate;
                    certificate.instance_fingerprint = Some(row.cell.fingerprint());
                    (row.cell, certificate.to_json().to_string())
                })
                .unzip();
            assert_payloads(&keys, &expected);
        }
    }

    #[test]
    fn explore_payloads_render_the_batch_rows_of_their_keys() {
        use ringdeploy_analysis::Explore;
        // A daemon explore cell is the batch row of its key, fingerprint
        // stamp included, under faults as well as without.
        let plans = [
            ringdeploy_sim::FaultPlan::none(),
            ringdeploy_sim::FaultPlan::none().with_crash(ringdeploy_sim::AgentId(1), 2),
        ];
        for faults in plans {
            let batch = Explore::new()
                .algorithms([Algorithm::FullKnowledge, Algorithm::partial_gathering(2)])
                .workload(Workload::Random { n: 8, k: 3 })
                .seeds([1, 2])
                .faults(faults);
            let (keys, expected): (Vec<InstanceKey>, Vec<String>) = batch
                .run()
                .expect("batch succeeds")
                .into_iter()
                .map(|row| {
                    let mut report = row.report;
                    report.instance_fingerprint = Some(row.cell.fingerprint());
                    (row.cell, report.to_json().to_string())
                })
                .unzip();
            assert_payloads(&keys, &expected);
        }
    }

    #[test]
    fn every_kind_computes_on_a_small_instance() {
        use ringdeploy_analysis::key::JobKind;
        use ringdeploy_analysis::{EvidenceTier, Objective};
        let base = InstanceKey {
            kind: JobKind::Explore,
            algorithm: Algorithm::FullKnowledge,
            workload: Workload::Uniform { n: 8, k: 2 },
            schedule: None,
            seed: 0,
            objective: None,
            tier: None,
            faults: ringdeploy_sim::FaultPlan::none(),
        };
        assert!(compute(&base).is_ok());
        // A three-objective unit of each searching kind: every entry is
        // the payload of its key computed alone.
        for (kind, tier) in [
            (JobKind::Adversary, None),
            (JobKind::Certify, Some(EvidenceTier::Adversarial)),
        ] {
            let keys: Vec<InstanceKey> = Objective::ALL
                .into_iter()
                .map(|objective| InstanceKey {
                    kind,
                    objective: Some(objective),
                    tier,
                    ..base.clone()
                })
                .collect();
            let unit: Vec<&InstanceKey> = keys.iter().collect();
            let results = compute_unit(&unit);
            assert_eq!(results.len(), keys.len(), "{kind}");
            for (key, result) in keys.iter().zip(results) {
                let payload = result.expect("unit computes");
                let alone = compute(key).expect("key computes");
                assert_eq!(payload.to_string(), alone.to_string(), "{}", key.label());
                if kind == JobKind::Adversary {
                    // The shared walk equals the per-objective search.
                    let worst = AdversaryJob.row(key, &key.instantiate()).unwrap();
                    assert_eq!(payload.to_string(), worst.to_json().to_string());
                }
                if kind == JobKind::Certify {
                    let holds: bool = payload.field("holds").unwrap();
                    assert!(holds, "{}", key.label());
                }
            }
        }
    }
}
