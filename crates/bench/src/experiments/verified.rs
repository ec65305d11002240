//! **E-VERIFY — exhaustive schedule verification.**
//!
//! For small instances, enumerates *every* asynchronous schedule (not a
//! sample) with the bounded model checker and reports the state counts.
//! Success means: every maximal execution of the algorithm on that
//! instance ends uniformly deployed, and no schedule can loop forever —
//! machine-checked instances of Theorems 3, 4 and 6.

use ringdeploy_analysis::{explore_one, TextTable};
use ringdeploy_core::Algorithm;
use ringdeploy_sim::explore::{Explorer, SymmetryMode};
use ringdeploy_sim::InitialConfig;

/// Runs the verification experiment and returns the printed report.
pub fn verified() -> String {
    let mut out = String::new();
    out.push_str("== Exhaustive verification: every schedule, small instances ==\n");
    out.push_str("(bounded model checking: safety + termination under arbitrary schedules)\n\n");
    let mut table = TextTable::new(vec![
        "algorithm",
        "n",
        "homes",
        "states",
        "terminals",
        "verdict",
    ]);
    let cases: Vec<(usize, Vec<usize>)> = vec![
        (6, vec![0, 1]),
        (6, vec![0, 1, 3]),
        (8, vec![0, 1, 2]),
        (10, vec![0, 5]),
    ];
    // The table counts concrete configurations: no rotation quotient.
    let explorer = Explorer::new().symmetry(SymmetryMode::Off);
    for (n, homes) in &cases {
        let init = InitialConfig::new(*n, homes.clone()).expect("valid");
        let mut families = vec![
            ("algo1", Algorithm::FullKnowledge),
            ("algo2", Algorithm::LogSpace),
        ];
        if *n <= 6 {
            // The relaxed algorithm's 14n-walks blow the state space up
            // faster; verify on the smallest instances.
            families.push(("relaxed", Algorithm::Relaxed));
        }
        for (label, algorithm) in families {
            let result = explore_one(algorithm, &init, &explorer);
            push_row(
                &mut table,
                label,
                *n,
                homes,
                result.map(|r| (r.states, r.terminals)),
            );
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "\nEvery reachable quiescent configuration is uniformly deployed and\n\
         the configuration graphs are acyclic (no livelocks) - correctness on\n\
         these instances holds for ALL schedules, not just the sampled ones.\n",
    );
    out
}

fn push_row<E: std::fmt::Display>(
    table: &mut TextTable,
    algo: &str,
    n: usize,
    homes: &[usize],
    result: Result<(usize, usize), E>,
) {
    match result {
        Ok((states, terminals)) => table.row(vec![
            algo.into(),
            n.to_string(),
            format!("{homes:?}"),
            states.to_string(),
            terminals.to_string(),
            "verified".into(),
        ]),
        Err(e) => table.row(vec![
            algo.into(),
            n.to_string(),
            format!("{homes:?}"),
            "-".into(),
            "-".into(),
            format!("FAILED: {e}"),
        ]),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verification_report_is_all_green() {
        let s = verified();
        assert!(s.contains("verified"));
        assert!(!s.contains("FAILED"), "{s}");
    }
}
