//! The clone-based reference explorer: the differential oracle that
//! `explorer_differential.rs` and `fault_free_differential.rs` pin
//! [`Explorer::run`](ringdeploy::sim::explore::Explorer::run) against.
//!
//! It is the pre-0.5 serial DFS, kept unchanged: it deep-clones the
//! parent ring per child expansion, recomputes every fingerprint from
//! scratch and keeps its visited and path sets in default-hashed
//! `HashSet`s. It shares nothing with the library's walker but `Ring`
//! and the fingerprint functions, so the two agree only if the walker's
//! apply/undo, its incremental fingerprints and its visited map are
//! right. Never use it for real exploration.

use std::collections::HashSet;
use std::hash::Hash;

use ringdeploy::sim::canonical::{canonical_fingerprint, plain_fingerprint};
use ringdeploy::sim::explore::{ExploreErrorKind, ExploreLimits, ExploreReport, SymmetryMode};
use ringdeploy::sim::{Behavior, Ring, SimError};

/// Explores every schedule of `ring` like
/// [`Explorer::run`](ringdeploy::sim::explore::Explorer::run) with the
/// same `limits` and `symmetry`, checking `terminal_ok` at each new
/// terminal. `states`, `terminals`, `terminal_fingerprints` and
/// `merge_edges` must equal the explorer's; `max_depth_seen` and
/// `peak_frontier` may not, because this DFS expands siblings in the
/// opposite order.
///
/// # Errors
///
/// See [`ExploreErrorKind`].
pub fn reference_explore<B>(
    ring: &Ring<B>,
    limits: ExploreLimits,
    symmetry: SymmetryMode,
    mut terminal_ok: impl FnMut(&Ring<B>) -> bool,
) -> Result<ExploreReport, ExploreErrorKind>
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let fingerprint = match symmetry {
        SymmetryMode::Off => plain_fingerprint::<B>,
        SymmetryMode::Rotation => canonical_fingerprint::<B>,
    };
    let mut visited: HashSet<u64> = HashSet::new();
    let mut on_path: HashSet<u64> = HashSet::new();
    let mut terminal_fps: Vec<u64> = Vec::new();
    let mut report = ExploreReport {
        states: 0,
        terminals: 0,
        max_depth_seen: 0,
        terminal_fingerprints: Vec::new(),
        merge_edges: 0,
        peak_frontier: 0,
        instance_fingerprint: None,
    };

    enum Frame<B: Behavior + Clone>
    where
        B::Message: Clone,
    {
        /// Explore this state (push children).
        Enter(Box<Ring<B>>, usize),
        /// Pop the path entry for this fingerprint.
        Leave(u64),
    }

    // The root is cloned without its trace, so no child clone copies one.
    let mut root = ring.clone();
    root.take_trace();
    let mut stack: Vec<Frame<B>> = vec![Frame::Enter(Box::new(root), 0)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Leave(fp) => {
                on_path.remove(&fp);
            }
            Frame::Enter(state, depth) => {
                report.max_depth_seen = report.max_depth_seen.max(depth);
                if depth > limits.max_depth {
                    return Err(ExploreErrorKind::LimitExceeded(
                        SimError::StepLimitExceeded {
                            limit: limits.max_depth as u64,
                        },
                    ));
                }
                let fp = fingerprint(&state);
                if on_path.contains(&fp) {
                    return Err(ExploreErrorKind::CycleDetected { depth });
                }
                if !visited.insert(fp) {
                    report.merge_edges += 1;
                    continue;
                }
                report.states += 1;
                if report.states > limits.max_states {
                    return Err(ExploreErrorKind::LimitExceeded(
                        SimError::StepLimitExceeded {
                            limit: limits.max_states as u64,
                        },
                    ));
                }
                if state.enabled_activations().is_empty() {
                    report.terminals += 1;
                    terminal_fps.push(fp);
                    if !terminal_ok(&state) {
                        return Err(ExploreErrorKind::PredicateViolated { depth });
                    }
                    continue;
                }
                on_path.insert(fp);
                report.peak_frontier = report.peak_frontier.max(on_path.len());
                stack.push(Frame::Leave(fp));
                // Index loop over the borrowed enabled slice —
                // allocation-free in the checker's innermost loop
                // (`Activation` is `Copy`; the child is a fresh clone).
                for i in 0..state.enabled_activations().len() {
                    let act = state.enabled_activations()[i];
                    let mut child = state.as_ref().clone();
                    child.step(act);
                    stack.push(Frame::Enter(Box::new(child), depth + 1));
                }
            }
        }
    }
    terminal_fps.sort_unstable();
    report.terminal_fingerprints = terminal_fps;
    Ok(report)
}
