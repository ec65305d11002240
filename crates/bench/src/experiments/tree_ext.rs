//! **E-EXT-TREE — the §5 extension: deployment on trees and graphs via
//! ring embedding.**
//!
//! The paper's conclusion sketches the Euler-tour embedding; this
//! experiment measures it: tree/graph topology → virtual ring of `2(n−1)`
//! nodes → uniform deployment → patrol-latency improvement on the original
//! topology, with every virtual hop costing exactly one real edge
//! traversal.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ringdeploy_analysis::{fmt_f64, TextTable};
use ringdeploy_core::{Algorithm, Schedule};
use ringdeploy_embed::{deploy_on_tree, patrol_latency, EulerTour, Graph, Tree};

fn tree_cases() -> Vec<(&'static str, Tree, Vec<usize>)> {
    let mut rng = SmallRng::seed_from_u64(55);
    vec![
        ("path n=32", Tree::path(32), vec![0, 1, 2, 3]),
        ("star n=33", Tree::star(33), vec![1, 2, 3, 4]),
        ("binary n=31", Tree::binary(31), vec![0, 1, 2, 3]),
        (
            "random n=48",
            Tree::random(&mut rng, 48),
            vec![0, 1, 2, 3, 4, 5],
        ),
        (
            "grid 6x6 (spanning tree)",
            Graph::grid(6, 6).spanning_tree(0),
            vec![0, 1, 6, 7],
        ),
    ]
}

/// Runs the tree-extension experiment and returns the printed report.
pub fn tree_extension() -> String {
    let mut out = String::new();
    out.push_str(
        "== Extension (paper section 5): deployment on trees via Euler-tour embedding ==\n\n",
    );
    let mut table = TextTable::new(vec![
        "topology",
        "virtual-n",
        "k",
        "latency-before",
        "latency-after",
        "improvement",
        "moves",
        "uniform",
    ]);
    for (name, tree, agents) in tree_cases() {
        let tour = EulerTour::new(&tree, agents[0]);
        let homes: Vec<usize> = agents.iter().map(|&v| tour.first_position(v)).collect();
        let before = patrol_latency(&tour, &homes);
        let report =
            deploy_on_tree(&tree, &agents, Algorithm::LogSpace, Schedule::Random(5)).expect("run");
        table.row(vec![
            name.into(),
            report.ring_report.n.to_string(),
            agents.len().to_string(),
            before.to_string(),
            report.patrol_latency.to_string(),
            format!(
                "{}x",
                fmt_f64(before as f64 / report.patrol_latency.max(1) as f64)
            ),
            report.ring_report.metrics.total_moves().to_string(),
            if report.ring_report.succeeded() {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nVirtual ring size is 2(n-1); every virtual hop is one real tree-edge\n\
         traversal, so the O(kn) move bounds carry over with n doubled - the\n\
         asymptotic equivalence claimed in the paper's conclusion.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_topologies_deploy_and_improve() {
        for (name, tree, agents) in tree_cases() {
            let tour = EulerTour::new(&tree, agents[0]);
            let homes: Vec<usize> = agents.iter().map(|&v| tour.first_position(v)).collect();
            let before = patrol_latency(&tour, &homes);
            let report = deploy_on_tree(&tree, &agents, Algorithm::LogSpace, Schedule::Random(5))
                .expect("run");
            assert!(report.ring_report.succeeded(), "{name}");
            assert!(
                report.patrol_latency <= before,
                "{name}: latency {} vs {}",
                report.patrol_latency,
                before
            );
        }
        // Larger trees, and another algorithm and schedule on a grid.
        let random = |n| Tree::random(&mut SmallRng::seed_from_u64(3), n);
        let cases = [
            (random(32), 8, Algorithm::LogSpace, Schedule::Random(4)),
            (random(128), 8, Algorithm::LogSpace, Schedule::Random(4)),
            (
                Graph::grid(8, 8).spanning_tree(0),
                6,
                Algorithm::FullKnowledge,
                Schedule::RoundRobin,
            ),
        ];
        for (tree, k, algorithm, schedule) in cases {
            let agents: Vec<usize> = (0..k).collect();
            let report = deploy_on_tree(&tree, &agents, algorithm, schedule).expect("run");
            assert!(
                report.ring_report.succeeded(),
                "{algorithm} on a {}-node tree",
                tree.node_count()
            );
        }
    }

    #[test]
    fn report_renders() {
        let s = tree_extension();
        assert!(s.contains("Euler-tour"));
        assert!(!s.contains("NO"));
    }
}
