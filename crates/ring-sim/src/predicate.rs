//! Acceptance predicates: uniform spacing, the Definition 1 /
//! Definition 2 termination conditions, and the g-partial-gathering
//! grouping condition.

use crate::action::Idle;
use crate::agent::Behavior;
use crate::config::Place;
use crate::engine::Ring;

/// The result of checking a final configuration against the uniform
/// deployment problem definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeploymentCheck {
    /// The configuration satisfies the definition.
    Satisfied,
    /// Some agent is still in transit (`q_j ≠ ∅` for some `j`).
    AgentInTransit,
    /// Some agent is in the wrong idle state (e.g. suspended when halting
    /// was required).
    WrongIdleState {
        /// Index of the offending agent.
        agent: usize,
        /// The state it was found in.
        found: Idle,
    },
    /// An agent has undelivered messages (violates Definition 2).
    PendingMessages {
        /// Index of the agent with pending messages.
        agent: usize,
    },
    /// Two agents occupy the same node.
    Collision {
        /// The node hosting more than one staying agent.
        node: usize,
    },
    /// The gap between two adjacent occupied nodes is not `⌊n/k⌋`/`⌈n/k⌉`.
    BadGap {
        /// The measured gap.
        gap: u64,
        /// Allowed floor value.
        floor: u64,
        /// Allowed ceiling value.
        ceil: u64,
    },
    /// An occupied node hosts fewer agents than the gathering requires
    /// (violates g-partial gathering).
    UndersizedGroup {
        /// The node hosting the undersized group.
        node: usize,
        /// Number of agents staying there.
        count: usize,
        /// The required minimum group size `g`.
        required: usize,
    },
    /// The run was **crash-degraded**: every surviving agent settled in
    /// the required idle state, but planned crash-stops removed agents,
    /// so the original `k`-agent definition is unattainable by
    /// construction. This is the typed graceful-degradation verdict the
    /// fault-aware certification tier accepts (see
    /// [`crate::fault::FaultPlan`]); the structural spacing/grouping
    /// conditions are not judged against the depleted population.
    CrashDegraded {
        /// Number of crash-stopped agents.
        crashed: usize,
        /// Number of surviving (settled) agents.
        survivors: usize,
    },
}

impl DeploymentCheck {
    /// `true` when the configuration satisfies the definition.
    pub fn is_satisfied(&self) -> bool {
        matches!(self, DeploymentCheck::Satisfied)
    }

    /// `true` when the only thing between the configuration and the
    /// definition is planned crash-stops — the graceful-degradation
    /// acceptance used by fault-aware certification.
    pub fn is_crash_degraded(&self) -> bool {
        matches!(self, DeploymentCheck::CrashDegraded { .. })
    }
}

/// Computes the forward gaps between consecutive occupied positions on an
/// `n`-node ring. `positions` need not be sorted or distinct; duplicates
/// yield a zero gap.
///
/// # Examples
///
/// ```
/// use ringdeploy_sim::uniform_gaps;
/// assert_eq!(uniform_gaps(16, &[0, 4, 8, 12]), vec![4, 4, 4, 4]);
/// assert_eq!(uniform_gaps(10, &[7, 2]), vec![5, 5]);
/// ```
pub fn uniform_gaps(n: usize, positions: &[usize]) -> Vec<u64> {
    let mut sorted: Vec<usize> = positions.to_vec();
    sorted.sort_unstable();
    let k = sorted.len();
    (0..k)
        .map(|j| {
            let a = sorted[j];
            let b = sorted[(j + 1) % k];
            let d = (b + n - a) % n;
            if d == 0 && k == 1 {
                n as u64
            } else {
                d as u64
            }
        })
        .collect()
}

/// Whether `positions` are distinct and every adjacent gap is `⌊n/k⌋` or
/// `⌈n/k⌉` — the spacing condition of both problem definitions.
///
/// # Examples
///
/// ```
/// use ringdeploy_sim::is_uniform_spacing;
/// assert!(is_uniform_spacing(16, &[1, 5, 9, 13]));
/// assert!(is_uniform_spacing(10, &[0, 3, 7]));    // gaps 3,4,3
/// assert!(!is_uniform_spacing(10, &[0, 1, 5]));   // gap 1
/// assert!(!is_uniform_spacing(10, &[0, 0, 5]));   // collision
/// ```
pub fn is_uniform_spacing(n: usize, positions: &[usize]) -> bool {
    let k = positions.len();
    if k == 0 {
        return false;
    }
    let mut sorted = positions.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != k {
        return false;
    }
    let floor = (n / k) as u64;
    let ceil = floor + if n.is_multiple_of(k) { 0 } else { 1 };
    uniform_gaps(n, positions)
        .into_iter()
        .all(|g| g == floor || g == ceil)
}

/// Checks Definition 1 (uniform deployment **with** termination detection):
/// all agents halted, all links empty, spacing uniform.
pub fn satisfies_halting_deployment<B: Behavior>(ring: &Ring<B>) -> DeploymentCheck {
    check(ring, Idle::Halted, false)
}

/// Checks Definition 2 (uniform deployment **without** termination
/// detection): all agents suspended, inboxes empty, links empty, spacing
/// uniform.
pub fn satisfies_suspended_deployment<B: Behavior>(ring: &Ring<B>) -> DeploymentCheck {
    check(ring, Idle::Suspended, true)
}

/// Checks **g-partial gathering** (Shibata et al., arXiv:1505.06596):
/// all agents halted, all links empty, and every node hosting at least
/// one agent hosts at least `g` of them.
///
/// Unlike the uniform-deployment definitions, agents are *supposed* to
/// share nodes here, so there is no distinctness or spacing condition —
/// the grouping condition replaces both.
pub fn satisfies_partial_gathering<B: Behavior>(ring: &Ring<B>, g: usize) -> DeploymentCheck {
    let mut positions = match settled_positions(ring, Idle::Halted, false) {
        Ok(positions) => positions,
        Err(violation) => return violation,
    };
    let crashed = ring.crashed_count();
    if crashed > 0 {
        return DeploymentCheck::CrashDegraded {
            crashed,
            survivors: positions.len(),
        };
    }
    positions.sort_unstable();
    let mut i = 0;
    while i < positions.len() {
        let node = positions[i];
        let mut count = 0;
        while i < positions.len() && positions[i] == node {
            count += 1;
            i += 1;
        }
        if count < g {
            return DeploymentCheck::UndersizedGroup {
                node,
                count,
                required: g,
            };
        }
    }
    DeploymentCheck::Satisfied
}

/// The per-agent part shared by every terminal predicate: all agents
/// settled (none in transit) in the required idle state, inboxes empty
/// when the definition demands it. Returns the staying positions in
/// agent-id order, or the first violation.
fn settled_positions<B: Behavior>(
    ring: &Ring<B>,
    required: Idle,
    require_empty_inboxes: bool,
) -> Result<Vec<usize>, DeploymentCheck> {
    let k = ring.agent_count();
    let mut positions = Vec::with_capacity(k);
    for i in 0..k {
        let id = crate::AgentId(i);
        // Crash-stopped agents are invisible to the protocol (their
        // token stays, they never move again); they hold no claim on a
        // deployment slot and are excused from the idle-state check.
        if ring.is_crashed(id) {
            continue;
        }
        match ring.place_of(id) {
            Place::InTransit { .. } => return Err(DeploymentCheck::AgentInTransit),
            Place::Staying { at } => positions.push(at.index()),
        }
        let idle = ring.idle_of(id);
        if idle != required {
            return Err(DeploymentCheck::WrongIdleState {
                agent: i,
                found: idle,
            });
        }
        if require_empty_inboxes && ring.inbox_len(id) > 0 {
            return Err(DeploymentCheck::PendingMessages { agent: i });
        }
    }
    Ok(positions)
}

fn check<B: Behavior>(
    ring: &Ring<B>,
    required: Idle,
    require_empty_inboxes: bool,
) -> DeploymentCheck {
    let n = ring.ring_size();
    let positions = match settled_positions(ring, required, require_empty_inboxes) {
        Ok(positions) => positions,
        Err(violation) => return violation,
    };
    let crashed = ring.crashed_count();
    if crashed > 0 {
        // The survivors settled cleanly, but the definition quantifies
        // over all k agents; with crash-stops it is unattainable by
        // construction. Report the typed degradation verdict instead of
        // judging the depleted population against the k-agent spacing.
        return DeploymentCheck::CrashDegraded {
            crashed,
            survivors: positions.len(),
        };
    }
    let k = positions.len();
    // Distinctness.
    let mut sorted = positions.clone();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return DeploymentCheck::Collision { node: w[0] };
        }
    }
    // Spacing.
    let floor = (n / k) as u64;
    let ceil = floor + if n.is_multiple_of(k) { 0 } else { 1 };
    for gap in uniform_gaps(n, &positions) {
        if gap != floor && gap != ceil {
            return DeploymentCheck::BadGap { gap, floor, ceil };
        }
    }
    DeploymentCheck::Satisfied
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_handle_single_agent() {
        assert_eq!(uniform_gaps(7, &[3]), vec![7]);
    }

    #[test]
    fn spacing_accepts_floor_and_ceil() {
        // n = 11, k = 3: gaps must be 3 or 4.
        assert!(is_uniform_spacing(11, &[0, 4, 8])); // 4,4,3
        assert!(!is_uniform_spacing(11, &[0, 5, 8])); // 5 not allowed
    }

    #[test]
    fn spacing_rejects_duplicates_and_empty() {
        assert!(!is_uniform_spacing(8, &[]));
        assert!(!is_uniform_spacing(8, &[2, 2]));
    }

    #[test]
    fn spacing_exact_division() {
        assert!(is_uniform_spacing(12, &[2, 5, 8, 11]));
        assert!(!is_uniform_spacing(12, &[2, 5, 8, 0])); // gaps 2,3,3,4
    }

    #[test]
    fn k_equals_n_everyone_adjacent() {
        assert!(is_uniform_spacing(4, &[0, 1, 2, 3]));
    }
}

mod json_impls {
    use super::DeploymentCheck;
    use crate::action::Idle;
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for Idle {
        fn to_json(&self) -> Json {
            Json::String(
                match self {
                    Idle::Ready => "ready",
                    Idle::Suspended => "suspended",
                    Idle::Halted => "halted",
                }
                .to_string(),
            )
        }
    }

    impl FromJson for Idle {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            match json.as_str() {
                Some("ready") => Ok(Idle::Ready),
                Some("suspended") => Ok(Idle::Suspended),
                Some("halted") => Ok(Idle::Halted),
                _ => Err(JsonError::Decode(format!("unknown idle state {json}"))),
            }
        }
    }

    impl ToJson for DeploymentCheck {
        fn to_json(&self) -> Json {
            match self {
                DeploymentCheck::Satisfied => Json::String("satisfied".to_string()),
                DeploymentCheck::AgentInTransit => Json::String("agent_in_transit".to_string()),
                DeploymentCheck::WrongIdleState { agent, found } => Json::object([(
                    "wrong_idle_state",
                    Json::object([("agent", agent.to_json()), ("found", found.to_json())]),
                )]),
                DeploymentCheck::PendingMessages { agent } => Json::object([(
                    "pending_messages",
                    Json::object([("agent", agent.to_json())]),
                )]),
                DeploymentCheck::Collision { node } => {
                    Json::object([("collision", Json::object([("node", node.to_json())]))])
                }
                DeploymentCheck::BadGap { gap, floor, ceil } => Json::object([(
                    "bad_gap",
                    Json::object([
                        ("gap", gap.to_json()),
                        ("floor", floor.to_json()),
                        ("ceil", ceil.to_json()),
                    ]),
                )]),
                DeploymentCheck::UndersizedGroup {
                    node,
                    count,
                    required,
                } => Json::object([(
                    "undersized_group",
                    Json::object([
                        ("node", node.to_json()),
                        ("count", count.to_json()),
                        ("required", required.to_json()),
                    ]),
                )]),
                DeploymentCheck::CrashDegraded { crashed, survivors } => Json::object([(
                    "crash_degraded",
                    Json::object([
                        ("crashed", crashed.to_json()),
                        ("survivors", survivors.to_json()),
                    ]),
                )]),
            }
        }
    }

    impl FromJson for DeploymentCheck {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            match json.as_str() {
                Some("satisfied") => return Ok(DeploymentCheck::Satisfied),
                Some("agent_in_transit") => return Ok(DeploymentCheck::AgentInTransit),
                Some(other) => return Err(JsonError::Decode(format!("unknown check `{other}`"))),
                None => {}
            }
            let Json::Object(map) = json else {
                return Err(JsonError::Decode(format!("bad deployment check {json}")));
            };
            let (variant, payload) = map
                .iter()
                .next()
                .ok_or_else(|| JsonError::Decode("empty check object".to_string()))?;
            match variant.as_str() {
                "wrong_idle_state" => Ok(DeploymentCheck::WrongIdleState {
                    agent: payload.field("agent")?,
                    found: payload.field("found")?,
                }),
                "pending_messages" => Ok(DeploymentCheck::PendingMessages {
                    agent: payload.field("agent")?,
                }),
                "collision" => Ok(DeploymentCheck::Collision {
                    node: payload.field("node")?,
                }),
                "bad_gap" => Ok(DeploymentCheck::BadGap {
                    gap: payload.field("gap")?,
                    floor: payload.field("floor")?,
                    ceil: payload.field("ceil")?,
                }),
                "undersized_group" => Ok(DeploymentCheck::UndersizedGroup {
                    node: payload.field("node")?,
                    count: payload.field("count")?,
                    required: payload.field("required")?,
                }),
                "crash_degraded" => Ok(DeploymentCheck::CrashDegraded {
                    crashed: payload.field("crashed")?,
                    survivors: payload.field("survivors")?,
                }),
                other => Err(JsonError::Decode(format!("unknown check `{other}`"))),
            }
        }
    }
}
