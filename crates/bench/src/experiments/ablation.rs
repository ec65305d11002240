//! **E-ABL-SCHED — scheduler-adversary ablation.**
//!
//! The paper's algorithms must work under *any* fair asynchronous
//! schedule. We sweep all three algorithms across scheduler adversaries
//! and record success and total moves — moves may vary slightly with the
//! interleaving (e.g. which follower claims which target) but correctness
//! must not.

use ringdeploy_analysis::{Sweep, TextTable, Workload};
use ringdeploy_core::{Algorithm, Schedule};

/// The schedules exercised by the ablation.
pub fn schedules() -> Vec<Schedule> {
    vec![
        Schedule::RoundRobin,
        Schedule::Random(1),
        Schedule::Random(2),
        Schedule::OneAtATime,
        Schedule::DelayAgent(0),
        Schedule::Synchronous,
    ]
}

/// Runs the ablation and returns the printed report.
pub fn scheduler_ablation() -> String {
    let mut out = String::new();
    out.push_str("== Scheduler ablation: correctness under every fair adversary ==\n\n");
    let mut table = TextTable::new(vec!["algorithm", "schedule", "total-moves", "ok"]);
    // One fixed aperiodic instance (workload seed 4242) across all cells.
    let rows = Sweep::new()
        .algorithms(Algorithm::ALL)
        .seeded_workload(Workload::RandomAperiodic { n: 96, k: 8 }, 4242)
        .schedules(schedules())
        .run()
        .expect("all runs complete");
    let mut all_ok = true;
    for row in &rows {
        let m = &row.measurement;
        all_ok &= m.success;
        table.row(vec![
            m.algorithm.name().into(),
            m.schedule.label(),
            m.total_moves.to_string(),
            if m.success { "yes".into() } else { "NO".into() },
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nall algorithm × schedule combinations correct: {}\n",
        if all_ok { "confirmed" } else { "VIOLATION" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_is_all_green() {
        let report = scheduler_ablation();
        assert!(report.contains("confirmed"), "{report}");
        assert!(!report.contains("NO"), "{report}");
    }

    #[test]
    fn ablation_covers_the_full_matrix() {
        let report = scheduler_ablation();
        for schedule in schedules() {
            assert!(report.contains(&schedule.label()), "{schedule} missing");
        }
    }
}
