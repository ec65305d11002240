//! Measurement rows and Table-1-style aggregates. The canonical batch API
//! is [`crate::sweep::Sweep`]; the canonical single-run functions are
//! [`crate::sweep::measure_one`] and
//! [`crate::sweep::measure_with_ideal_time`].

use ringdeploy_core::{Algorithm, DeployReport, Schedule};

use crate::stats::Summary;

/// One measured run: everything needed to regenerate a Table-1-style row.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Algorithm that ran.
    pub algorithm: Algorithm,
    /// Schedule that drove it.
    pub schedule: Schedule,
    /// Ring size.
    pub n: usize,
    /// Agent count.
    pub k: usize,
    /// Symmetry degree of the initial configuration.
    pub symmetry_degree: usize,
    /// Whether the appropriate Definition was satisfied.
    pub success: bool,
    /// Total agent moves.
    pub total_moves: u64,
    /// Maximum moves by a single agent.
    pub max_moves: u64,
    /// Ideal time in rounds (synchronous runs only).
    pub ideal_time: Option<u64>,
    /// Peak per-agent memory in bits.
    pub peak_memory_bits: usize,
    /// Messages sent (broadcasts with ≥ 1 receiver).
    pub messages: u64,
}

impl Measurement {
    /// Converts a [`DeployReport`] into a measurement row.
    pub fn from_report(schedule: Schedule, report: &DeployReport) -> Measurement {
        Measurement {
            algorithm: report.algorithm,
            schedule,
            n: report.n,
            k: report.k,
            symmetry_degree: report.symmetry_degree,
            success: report.succeeded(),
            total_moves: report.metrics.total_moves(),
            max_moves: report.metrics.max_moves(),
            ideal_time: report.ideal_time,
            peak_memory_bits: report.metrics.peak_memory_bits(),
            messages: report.metrics.messages_sent(),
        }
    }
}

/// Aggregated view over repeated measurements of one experimental cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Algorithm of the cell.
    pub algorithm: Algorithm,
    /// Ring size.
    pub n: usize,
    /// Agent count.
    pub k: usize,
    /// Symmetry degree (0 when mixed).
    pub symmetry_degree: usize,
    /// Fraction of successful runs (must be 1.0 for correct algorithms).
    pub success_rate: f64,
    /// Total-move statistics.
    pub moves: Summary,
    /// Ideal-time statistics (empty when runs were asynchronous).
    pub time: Summary,
    /// Peak-memory statistics (bits).
    pub memory: Summary,
}

mod json_impls {
    use super::Measurement;
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for Measurement {
        fn to_json(&self) -> Json {
            Json::object([
                ("algorithm", self.algorithm.to_json()),
                ("schedule", self.schedule.to_json()),
                ("n", self.n.to_json()),
                ("k", self.k.to_json()),
                ("symmetry_degree", self.symmetry_degree.to_json()),
                ("success", self.success.to_json()),
                ("total_moves", self.total_moves.to_json()),
                ("max_moves", self.max_moves.to_json()),
                ("ideal_time", self.ideal_time.to_json()),
                ("peak_memory_bits", self.peak_memory_bits.to_json()),
                ("messages", self.messages.to_json()),
            ])
        }
    }

    impl FromJson for Measurement {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            Ok(Measurement {
                algorithm: json.field("algorithm")?,
                schedule: json.field("schedule")?,
                n: json.field("n")?,
                k: json.field("k")?,
                symmetry_degree: json.field("symmetry_degree")?,
                success: json.field("success")?,
                total_moves: json.field("total_moves")?,
                max_moves: json.field("max_moves")?,
                ideal_time: json.optional_field("ideal_time")?,
                peak_memory_bits: json.field("peak_memory_bits")?,
                messages: json.field("messages")?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_config;
    use crate::sweep::{measure_one, measure_with_ideal_time};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn measure_one_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(3);
        let init = random_config(&mut rng, 20, 4);
        let m = measure_one(&init, Algorithm::FullKnowledge, Schedule::RoundRobin, None).unwrap();
        assert!(m.success);
        assert_eq!(m.n, 20);
        assert_eq!(m.k, 4);
        assert!(m.total_moves > 0);
        assert!(m.ideal_time.is_none());
    }

    #[test]
    fn measure_with_ideal_time_reports_rounds() {
        let mut rng = SmallRng::seed_from_u64(4);
        let init = random_config(&mut rng, 18, 3);
        let m =
            measure_with_ideal_time(&init, Algorithm::LogSpace, Schedule::Random(1), None).unwrap();
        assert!(m.success);
        assert!(m.ideal_time.is_some());
    }
}
