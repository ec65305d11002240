//! The compute kernel: one [`InstanceKey`] in, one rendered report out.
//!
//! This is the *only* place the service invokes the verification
//! engines, and it deliberately pins every free parameter so the result
//! is a pure function of the key (the cache-soundness requirement):
//!
//! * exploration runs [`explore_one`] under the default rotation
//!   quotient;
//! * search limits are always [`ExploreLimits::for_instance`];
//! * certification always uses [`CertifySettings::default`].
//!
//! Reports that carry an `instance_fingerprint` field (`DeployReport`,
//! `ExploreReport`, `BoundCertificate`) are stamped with the key's
//! fingerprint before rendering, so cache identity is auditable from
//! any payload a client receives.

use ringdeploy_analysis::key::{InstanceKey, JobKind};
use ringdeploy_analysis::{certify_one, explore_one, worst_case_one, CertifySettings};
use ringdeploy_core::Deployment;
use ringdeploy_json::{Json, ToJson};
use ringdeploy_sim::adversary::Adversary;
use ringdeploy_sim::explore::{ExploreLimits, Explorer, SymmetryMode};
use ringdeploy_sim::InitialConfig;

/// Computes the report for `key`. Deterministic: equal keys produce
/// byte-identical rendered payloads.
///
/// # Errors
///
/// Returns a human-readable message for invalid workload parameters or
/// engine failures; the daemon turns it into an `error` frame.
pub fn compute(key: &InstanceKey) -> Result<Json, String> {
    let init = instantiate(key)?;
    let n = init.ring_size();
    let k = init.agent_count();
    let fingerprint = key.fingerprint();
    match key.kind {
        JobKind::Sweep => {
            let schedule = key
                .schedule
                .ok_or_else(|| format!("{}: sweep key has no schedule", key.label()))?;
            let mut report = Deployment::of(&init)
                .algorithm(key.algorithm)
                .run_preset(schedule)
                .map_err(|e| format!("{}: {e}", key.label()))?;
            report.instance_fingerprint = Some(fingerprint);
            Ok(report.to_json())
        }
        JobKind::Explore => {
            let explorer = Explorer::new().limits(ExploreLimits::for_instance(n, k));
            let mut report = explore_one(key.algorithm, &init, &explorer)
                .map_err(|e| format!("{}: {e}", key.label()))?;
            report.instance_fingerprint = Some(fingerprint);
            Ok(report.to_json())
        }
        JobKind::Adversary => {
            let objective = key
                .objective
                .ok_or_else(|| format!("{}: adversary key has no objective", key.label()))?;
            let adversary = Adversary::new()
                .limits(ExploreLimits::for_instance(n, k))
                .symmetry(SymmetryMode::Rotation);
            let worst = worst_case_one(key.algorithm, &init, &adversary, objective)
                .map_err(|e| format!("{}: {e}", key.label()))?;
            // `WorstCase` has no instance_fingerprint field; the row
            // frame carries the fingerprint alongside the payload.
            Ok(worst.to_json())
        }
        JobKind::Certify => {
            let objective = key
                .objective
                .ok_or_else(|| format!("{}: certify key has no objective", key.label()))?;
            let tier = key
                .tier
                .ok_or_else(|| format!("{}: certify key has no tier", key.label()))?;
            let mut cert = certify_one(
                key.algorithm,
                &init,
                objective,
                tier,
                &CertifySettings::default(),
            )
            .map_err(|e| format!("{}: {e}", key.label()))?;
            cert.instance_fingerprint = Some(fingerprint);
            Ok(cert.to_json())
        }
    }
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
        format!("{}: workload rejected: {detail}", key.label())
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
    fn certify_payloads_render_the_batch_rows_of_their_keys() {
        use ringdeploy_analysis::{Certify, EvidenceTier};
        // The batch certifies an instance's objectives together; the
        // daemon computes one key at a time. Both must render the same
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
            for row in batch.run().expect("batch succeeds") {
                let mut certificate = row.certificate;
                certificate.instance_fingerprint = Some(row.cell.fingerprint());
                assert_eq!(
                    compute(&row.cell).expect("cell computes").to_string(),
                    certificate.to_json().to_string(),
                    "{}",
                    row.cell.label()
                );
            }
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
        let adversary = InstanceKey {
            kind: JobKind::Adversary,
            objective: Some(Objective::TotalMoves),
            ..base.clone()
        };
        assert!(compute(&adversary).is_ok());
        let certify = InstanceKey {
            kind: JobKind::Certify,
            objective: Some(Objective::TotalMoves),
            tier: Some(EvidenceTier::Adversarial),
            ..base
        };
        let payload = compute(&certify).unwrap();
        let holds: bool = payload.field("holds").unwrap();
        assert!(holds);
    }
}
