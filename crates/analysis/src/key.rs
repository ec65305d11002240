//! Canonical instance identity: the [`InstanceKey`] every report is a
//! pure function of, plus its 64-bit fingerprint
//! (`InstanceKey::fingerprint`).
//!
//! Every query the verification stack answers — a sampled run, an
//! exhaustive exploration, an adversarial worst case, a bound
//! certificate — is fully determined by the coordinates assembled here:
//! job kind, algorithm family, workload family (with `n`, `k` and the
//! periodic `l`), the schedule preset driving a sampled run, the
//! instantiation seed, and (for the search kinds) the objective and
//! evidence tier. Two queries with equal keys therefore have *equal
//! results*, which is what makes the `ringdeployd` result cache sound:
//! it may serve a memoized report whenever the canonical encodings
//! match, and the served bytes are indistinguishable from a fresh
//! computation.
//!
//! # Canonical encoding and fingerprint
//!
//! [`InstanceKey::canonical`] is the compact JSON encoding of the key
//! with every field present (`null` where inapplicable) and object keys
//! sorted — the [`Json`](ringdeploy_json::Json) printer sorts keys, so
//! the encoding is deterministic byte-for-byte.
//! [`InstanceKey::fingerprint`] is a 64-bit FNV-1a hash of those bytes:
//! collision-resistant in the practical sense (no pair of distinct keys
//! in any realistic corpus collides), and *auditable* — any consumer
//! can recompute it from the key carried next to a report. The cache
//! itself is keyed by the full canonical string, never by the
//! fingerprint alone, so even an adversarial hash collision cannot
//! alias two entries; the fingerprint is the short identity reports
//! carry (`instance_fingerprint` on
//! [`DeployReport`](ringdeploy_core::DeployReport),
//! [`ExploreReport`](ringdeploy_sim::explore::ExploreReport) and
//! [`BoundCertificate`](crate::BoundCertificate)).

use ringdeploy_core::{Algorithm, Schedule};
use ringdeploy_sim::adversary::Objective;
use ringdeploy_sim::{FaultPlan, InitialConfig};

use crate::certify::EvidenceTier;
use crate::sweep::Workload;

/// Which engine of the verification stack a query runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// One sampled deployment run per cell → `DeployReport`.
    Sweep,
    /// Exhaustive model checking per cell → `ExploreReport`.
    Explore,
    /// Exact worst-case schedule synthesis per cell → `WorstCase`.
    Adversary,
    /// Bound certification per cell → `BoundCertificate`.
    Certify,
}

impl JobKind {
    /// All kinds, in pipeline order.
    pub const ALL: [JobKind; 4] = [
        JobKind::Sweep,
        JobKind::Explore,
        JobKind::Adversary,
        JobKind::Certify,
    ];

    /// A stable machine-readable name (used by JSON encodings).
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Sweep => "sweep",
            JobKind::Explore => "explore",
            JobKind::Adversary => "adversary",
            JobKind::Certify => "certify",
        }
    }

    /// Parses the output of [`JobKind::name`].
    pub fn from_name(name: &str) -> Option<JobKind> {
        JobKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for JobKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The complete coordinates of one cacheable query. See the
/// [module docs](self) for the determinism argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InstanceKey {
    /// Which engine runs.
    pub kind: JobKind,
    /// Algorithm family.
    pub algorithm: Algorithm,
    /// Workload family (carries `n`, `k` and the periodic `l`).
    pub workload: Workload,
    /// Schedule preset of a sampled run — [`JobKind::Sweep`] only; the
    /// quantified kinds range over *every* fair schedule.
    pub schedule: Option<Schedule>,
    /// Workload-instantiation seed (also the seed of a
    /// `Schedule::Random` resolved per seed).
    pub seed: u64,
    /// Maximised objective — [`JobKind::Adversary`] / [`JobKind::Certify`].
    pub objective: Option<Objective>,
    /// Evidence tier — [`JobKind::Certify`] only.
    pub tier: Option<EvidenceTier>,
    /// Deterministic fault plan injected into the instance. An empty
    /// plan is the fault-free baseline and is **omitted** from the
    /// canonical encoding, so every pre-fault cache key (and its
    /// fingerprint) is preserved byte-for-byte.
    pub faults: FaultPlan,
}

impl InstanceKey {
    /// Returns the key with `faults` as its fault plan. Non-empty plans
    /// join the canonical encoding (a faulted query is a *different*
    /// cacheable instance); an empty plan leaves the key — and its
    /// canonical bytes — exactly as before.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The key's initial configuration: its workload instantiated at its
    /// seed, carrying its fault plan.
    ///
    /// # Panics
    ///
    /// As [`Workload::instantiate`], on invalid workload parameters.
    pub fn instantiate(&self) -> InitialConfig {
        self.workload
            .instantiate(self.seed)
            .with_faults(self.faults.clone())
    }

    /// A human-readable label for logs and error messages.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}:{}:{}:seed{}",
            self.kind,
            self.algorithm,
            self.workload.label(),
            self.seed
        );
        if let Some(schedule) = self.schedule {
            label.push_str(&format!(":{schedule}"));
        }
        if let Some(objective) = self.objective {
            label.push_str(&format!(":{objective}"));
        }
        if let Some(tier) = self.tier {
            label.push_str(&format!(":{tier}"));
        }
        if !self.faults.is_empty() {
            label.push_str(&format!(":faults[{}]", self.faults));
        }
        label
    }
}

mod canonical {
    use super::InstanceKey;
    use ringdeploy_json::ToJson;

    impl InstanceKey {
        /// The canonical encoding: compact JSON, sorted keys, every
        /// field present (`null` where inapplicable). This string *is*
        /// the cache identity.
        pub fn canonical(&self) -> String {
            self.to_json().to_string()
        }

        /// 64-bit FNV-1a over [`InstanceKey::canonical`] — the
        /// auditable short identity carried by reports
        /// (`instance_fingerprint`). See the [module docs](super) for
        /// why the cache never trusts this alone.
        pub fn fingerprint(&self) -> u64 {
            fnv1a64(self.canonical().as_bytes())
        }
    }

    /// FNV-1a, 64-bit: the standard offset basis and prime. Chosen over
    /// the engine's MixHasher chain because its reference constants are
    /// reproducible by third-party consumers auditing a cache identity
    /// from the wire encoding alone.
    pub(super) fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

mod json_impls {
    use super::{InstanceKey, JobKind};
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for JobKind {
        fn to_json(&self) -> Json {
            Json::String(self.name().to_string())
        }
    }

    impl FromJson for JobKind {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            json.as_str()
                .and_then(JobKind::from_name)
                .ok_or_else(|| JsonError::Decode(format!("unknown job kind {json}")))
        }
    }

    impl ToJson for InstanceKey {
        fn to_json(&self) -> Json {
            let mut fields = vec![
                ("kind", self.kind.to_json()),
                ("algorithm", self.algorithm.to_json()),
                ("workload", self.workload.to_json()),
                ("schedule", self.schedule.to_json()),
                ("seed", self.seed.to_json()),
                ("objective", self.objective.to_json()),
                ("tier", self.tier.to_json()),
            ];
            // Omitted when empty so fault-free canonical encodings (and
            // every deployed cache identity) stay byte-identical to the
            // pre-fault era.
            if !self.faults.is_empty() {
                fields.push(("faults", self.faults.to_json()));
            }
            Json::object(fields)
        }
    }

    impl FromJson for InstanceKey {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            Ok(InstanceKey {
                kind: json.field("kind")?,
                algorithm: json.field("algorithm")?,
                workload: json.field("workload")?,
                schedule: json.optional_field("schedule")?,
                seed: json.field("seed")?,
                objective: json.optional_field("objective")?,
                tier: json.optional_field("tier")?,
                faults: json.optional_field("faults")?.unwrap_or_default(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_key() -> InstanceKey {
        InstanceKey {
            kind: JobKind::Sweep,
            algorithm: Algorithm::FullKnowledge,
            workload: Workload::Random { n: 32, k: 8 },
            schedule: Some(Schedule::Random(7)),
            seed: 7,
            objective: None,
            tier: None,
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn job_kind_names_round_trip() {
        for kind in JobKind::ALL {
            assert_eq!(JobKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(JobKind::from_name("nope"), None);
    }

    #[test]
    fn labels_carry_every_coordinate() {
        let key = InstanceKey {
            kind: JobKind::Certify,
            algorithm: Algorithm::Relaxed,
            workload: Workload::Periodic { n: 12, k: 4, l: 2 },
            schedule: None,
            seed: 3,
            objective: Some(Objective::TotalMoves),
            tier: Some(EvidenceTier::Adversarial),
            ..sample_key()
        };
        let label = key.label();
        for needle in [
            "certify",
            "algo4-relaxed",
            "periodic(n=12,k=4,l=2)",
            "seed3",
            "total-moves",
            "adversarial",
        ] {
            assert!(label.contains(needle), "`{label}` misses `{needle}`");
        }
    }

    mod serde {
        use super::*;
        use ringdeploy_json::{FromJson, Json, ToJson};

        #[test]
        fn canonical_encoding_is_pinned() {
            // The canonical string IS the cache identity: any change to
            // this encoding invalidates every deployed cache and every
            // recorded fingerprint, so it is pinned byte-for-byte.
            assert_eq!(
                sample_key().canonical(),
                r#"{"algorithm":"algo1-full-knowledge","kind":"sweep","objective":null,"schedule":{"random":7},"seed":7,"tier":null,"workload":{"family":"random","k":8,"n":32}}"#
            );
        }

        #[test]
        fn fingerprint_is_pinned_and_reproducible() {
            // FNV-1a with the reference constants over the canonical
            // bytes — recomputable by any consumer; pinned so encoding
            // drift cannot pass silently.
            let key = sample_key();
            assert_eq!(
                key.fingerprint(),
                super::super::canonical::fnv1a64(key.canonical().as_bytes())
            );
            assert_eq!(format!("{:016x}", key.fingerprint()), "dfa0b50a979174b7");
        }

        #[test]
        fn keys_round_trip_through_json() {
            let adversary = InstanceKey {
                kind: JobKind::Adversary,
                algorithm: Algorithm::LogSpace,
                workload: Workload::QuarterRing { n: 16, k: 4 },
                schedule: None,
                seed: 11,
                objective: Some(Objective::PeakMemoryBits),
                ..sample_key()
            };
            let certify = InstanceKey {
                kind: JobKind::Certify,
                tier: Some(EvidenceTier::Sweep),
                ..adversary.clone()
            };
            for key in [sample_key(), adversary, certify] {
                let text = key.to_json().to_string();
                let back = InstanceKey::from_json(&Json::parse(&text).unwrap()).unwrap();
                assert_eq!(back, key);
                assert_eq!(back.fingerprint(), key.fingerprint());
            }
        }

        #[test]
        fn distinct_keys_have_distinct_fingerprints() {
            // Not a collision proof — a drift alarm: the coordinates
            // that must distinguish cache entries all feed the hash.
            let base = sample_key();
            let mut variants = vec![base.clone()];
            variants.push(InstanceKey {
                kind: JobKind::Explore,
                schedule: None,
                ..base.clone()
            });
            variants.push(InstanceKey {
                algorithm: Algorithm::Relaxed,
                ..base.clone()
            });
            variants.push(InstanceKey {
                workload: Workload::Random { n: 32, k: 7 },
                ..base.clone()
            });
            variants.push(InstanceKey {
                seed: 8,
                schedule: Some(Schedule::Random(8)),
                ..base.clone()
            });
            variants.push(InstanceKey {
                schedule: Some(Schedule::RoundRobin),
                ..base.clone()
            });
            let mut fps: Vec<u64> = variants.iter().map(InstanceKey::fingerprint).collect();
            fps.sort_unstable();
            fps.dedup();
            assert_eq!(fps.len(), variants.len(), "fingerprint collision");
        }
    }
}
