//! **E-THM1 / E-THM2 / E-FIG3 — the Ω(kn) moves and Ω(n) time lower
//! bounds** on the quarter-ring workload of Fig. 3.
//!
//! Theorem 1: from the configuration with all agents in one quarter of the
//! ring, any algorithm needs at least `kn/16` total moves. We measure the
//! moves of all three algorithms on exactly that workload and report the
//! ratio to the lower bound (must be ≥ 1; being within a small constant of
//! it shows asymptotic optimality, Theorems 3/4).

use ringdeploy_analysis::{
    fmt_f64, measure_with_ideal_time, quarter_ring_config, theorem1_lower_bound, TextTable,
};
use ringdeploy_core::{Algorithm, Schedule};

/// The `(n, k)` grid (respecting the theorem's `k ≤ n/4` premise).
pub fn grid() -> Vec<(usize, usize)> {
    vec![(64, 8), (128, 16), (256, 32), (512, 64), (1024, 64)]
}

/// Runs the lower-bound experiment and returns the printed report.
pub fn lower_bound() -> String {
    let mut out = String::new();
    out.push_str("== Theorem 1 / Theorem 2: lower bounds on the Fig. 3 workload ==\n");
    out.push_str("lower bounds: total moves ≥ kn/16, ideal time ≥ n/4 (quarter-ring)\n\n");
    let mut table = TextTable::new(vec![
        "algorithm",
        "n",
        "k",
        "moves",
        "kn/16",
        "moves/LB",
        "time",
        "n/4",
        "time/LB",
        "ok",
    ]);
    let mut min_move_ratio = f64::INFINITY;
    let mut min_time_ratio = f64::INFINITY;
    for (n, k) in grid() {
        let init = quarter_ring_config(n, k);
        for algo in Algorithm::ALL {
            let m = measure_with_ideal_time(&init, algo, Schedule::Random(7), None)
                .expect("run completes");
            let lb_moves = theorem1_lower_bound(n, k);
            let lb_time = n as f64 / 4.0;
            let time = m.ideal_time.expect("synchronous run") as f64;
            let move_ratio = m.total_moves as f64 / lb_moves;
            let time_ratio = time / lb_time;
            min_move_ratio = min_move_ratio.min(move_ratio);
            min_time_ratio = min_time_ratio.min(time_ratio);
            table.row(vec![
                algo.name().into(),
                n.to_string(),
                k.to_string(),
                m.total_moves.to_string(),
                fmt_f64(lb_moves),
                fmt_f64(move_ratio),
                (time as u64).to_string(),
                fmt_f64(lb_time),
                fmt_f64(time_ratio),
                if m.success { "yes".into() } else { "NO".into() },
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nminimum measured/lower-bound ratio: moves {:.2}, time {:.2} (both must be ≥ 1)\n",
        min_move_ratio, min_time_ratio
    ));
    out.push_str(
        "The knowledge-of-k algorithms stay within a constant factor of the\n\
         move lower bound — matching their Θ(kn) optimality (Theorems 3, 4).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_moves_respect_lower_bound() {
        for (n, k, schedule) in [
            (128, 16, Schedule::Random(3)),
            (128, 16, Schedule::RoundRobin),
            (512, 64, Schedule::RoundRobin),
        ] {
            let init = quarter_ring_config(n, k);
            for algo in Algorithm::ALL {
                let m = measure_with_ideal_time(&init, algo, schedule, None).unwrap();
                assert!(m.success, "{algo} n={n} {schedule:?} failed");
                assert!(
                    m.total_moves as f64 >= theorem1_lower_bound(n, k),
                    "{algo} n={n} {schedule:?}: {} < kn/16",
                    m.total_moves
                );
                assert!(m.ideal_time.unwrap() as f64 >= n as f64 / 4.0);
            }
        }
    }

    #[test]
    fn report_renders() {
        let s = lower_bound();
        assert!(s.contains("Theorem 1"));
        assert!(s.contains("moves/LB"));
    }
}
