//! Bit-packed snapshots of the **schedule-relevant** configuration — a
//! compact, allocation-light state representation for tools that park
//! many configurations at once.
//!
//! A deep [`Ring`] clone carries `O(n + k)` separate heap allocations
//! (one `Vec` per staying set, one `VecDeque` per link and inbox, plus
//! metrics, phase tallies and an optional trace). None of the
//! schedule-history parts influence future behavior, and the
//! configuration parts are tiny per entry: an agent's whereabouts fit in
//! one machine word. [`PackedState`] therefore stores exactly the
//! configuration `C = (S, T, M, P, Q)` — and nothing else — in six flat
//! buffers:
//!
//! * one `u32` word per agent (node index, staying/in-transit flag, idle
//!   state, token flag),
//! * one `u16` per agent giving the global *slot order* (agents grouped
//!   by node, staying list before link queue, preserving both orders —
//!   order is part of the configuration identity),
//! * one `u16` token count per node,
//! * the behavior states (the only generically-sized part),
//! * the flattened inbox contents with offsets, elided entirely when all
//!   inboxes are empty (the common case by far).
//!
//! [`PackedState::restore_into`] rehydrates a live engine **in place**,
//! reusing the target ring's allocations, so snapshots unpack into one
//! long-lived scratch ring with no steady-state heap traffic. Metrics,
//! phase tallies, the trace and the step counter of the target are
//! deliberately left untouched: they are schedule-history, not
//! configuration, and are excluded from state identity (the fingerprint
//! ignores them too).

use crate::agent::Behavior;
use crate::engine::{Ring, IN_TRANSIT};
use crate::{AgentId, NodeId};

/// A compact snapshot of one configuration. See the [module docs](self).
///
/// Snapshots are only meaningful relative to the instance they were packed
/// from: [`restore_into`](PackedState::restore_into) targets a ring with
/// the same `n`, `k`, homes and link discipline (in practice, a clone of
/// the exploration root).
pub struct PackedState<B: Behavior> {
    /// Per-agent packed word: `node << 16 | token_held << 3 | idle << 1 |
    /// in_transit`.
    agents: Box<[u32]>,
    /// All `k` agents grouped by node ascending, staying members (list
    /// order) before in-transit members (queue order, head first).
    slots: Box<[u16]>,
    /// Token count per node.
    tokens: Box<[u16]>,
    /// Behavior state per agent.
    behaviors: Box<[B]>,
    /// Flattened inbox contents, agent-major, FIFO order; empty when no
    /// agent has pending messages.
    messages: Box<[B::Message]>,
    /// Inbox boundaries: agent `i`'s messages are
    /// `messages[offsets[i]..offsets[i + 1]]`. `None` ⇔ all inboxes empty.
    offsets: Option<Box<[u32]>>,
    /// Fault-execution state; `None` ⇔ the ring runs under an empty
    /// [`FaultPlan`](crate::fault::FaultPlan) (the plan itself is
    /// instance identity and lives in the target ring, not the snapshot).
    faults: Option<PackedFaults>,
}

/// The schedule-relevant fault state of a ring under a non-empty plan.
/// Crashed agents are in no staying list or link queue, so `slots` holds
/// `k − crashed` entries and the crash flags here say which agents are
/// missing.
#[derive(Clone)]
struct PackedFaults {
    /// Lifetime activation count per agent (the crash clock).
    acted: Box<[u64]>,
    /// Which agents have crash-stopped.
    crashed: Box<[bool]>,
    /// The node whose incoming edge is down, if any.
    down_edge: Option<u16>,
    /// Remaining dynamic-edge outage budget.
    outages_left: u32,
}

impl<B: Behavior + Clone> Clone for PackedState<B>
where
    B::Message: Clone,
{
    fn clone(&self) -> Self {
        PackedState {
            agents: self.agents.clone(),
            slots: self.slots.clone(),
            tokens: self.tokens.clone(),
            behaviors: self.behaviors.clone(),
            messages: self.messages.clone(),
            offsets: self.offsets.clone(),
            faults: self.faults.clone(),
        }
    }
}

impl<B: Behavior + Clone> PackedState<B>
where
    B::Message: Clone,
{
    /// Packs the schedule-relevant state of `ring`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `k` exceeds `u16` range or a node holds more than
    /// `u16::MAX` tokens — orders of magnitude beyond any instance an
    /// exhaustive exploration can cover anyway.
    pub fn pack(ring: &Ring<B>) -> Self {
        let n = ring.ring_size();
        let k = ring.agent_count();
        assert!(
            n <= u16::MAX as usize + 1 && k <= u16::MAX as usize,
            "packed states index nodes and agents with u16 (n = {n}, k = {k})"
        );
        // The live ring already keeps its per-agent whereabouts in exactly
        // this packed-word layout (structure-of-arrays `Ring::meta`), so
        // the agent column is a straight copy.
        let agents: Box<[u32]> = ring.meta.as_slice().into();
        let mut slots = Vec::with_capacity(k);
        for v in 0..n {
            slots.extend(ring.staying[v].iter().map(|a| a.index() as u16));
            slots.extend(ring.links[v].iter().map(|a| a.index() as u16));
        }
        let faults = if ring.fault_plan().is_empty() {
            debug_assert_eq!(slots.len(), k, "every agent is in exactly one place");
            None
        } else {
            // Crash-stopped agents are invisible: in no list at all.
            debug_assert_eq!(
                slots.len() + ring.crashed_count(),
                k,
                "every non-crashed agent is in exactly one place"
            );
            Some(PackedFaults {
                acted: ring.acted.clone().into_boxed_slice(),
                crashed: ring.crashed.clone().into_boxed_slice(),
                down_edge: ring.down_edge.map(|v| v.index() as u16),
                outages_left: ring.outages_left,
            })
        };
        let tokens: Box<[u16]> = ring
            .tokens
            .iter()
            .map(|&t| u16::try_from(t).expect("token count fits u16"))
            .collect();
        let behaviors: Box<[B]> = ring.behaviors.iter().cloned().collect();
        let (messages, offsets) = if ring.inboxes.iter().all(|m| m.is_empty()) {
            (Box::from([]), None)
        } else {
            let mut messages = Vec::new();
            let mut offsets = Vec::with_capacity(k + 1);
            offsets.push(0u32);
            for inbox in &ring.inboxes {
                messages.extend(inbox.iter().cloned());
                offsets.push(messages.len() as u32);
            }
            (
                messages.into_boxed_slice(),
                Some(offsets.into_boxed_slice()),
            )
        };
        PackedState {
            agents,
            slots: slots.into_boxed_slice(),
            tokens,
            behaviors,
            messages,
            offsets,
            faults,
        }
    }

    /// Overwrites `ring`'s configuration with this snapshot, reusing the
    /// target's allocations, and rebuilds its enabled set. Metrics, phase
    /// tallies, trace and step counter are left as they are — they are
    /// exploration bookkeeping, not configuration (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `ring`'s shape (`n`, `k`) does not match the snapshot;
    /// restoring into a ring of a different *instance* (other homes or
    /// link discipline) is undetectable misuse and yields garbage.
    pub fn restore_into(&self, ring: &mut Ring<B>) {
        let n = ring.ring_size();
        let k = ring.agent_count();
        assert_eq!(n, self.tokens.len(), "ring size mismatch");
        assert_eq!(k, self.agents.len(), "agent count mismatch");
        for (t, &packed) in ring.tokens.iter_mut().zip(self.tokens.iter()) {
            *t = packed as u32;
        }
        for p in &mut ring.staying {
            p.clear();
        }
        for q in &mut ring.links {
            q.clear();
        }
        // Same word layout both sides — the agent column restores with a
        // straight copy (see `pack`).
        ring.meta.copy_from_slice(&self.agents);
        for i in 0..k {
            ring.behaviors[i] = self.behaviors[i].clone();
            ring.inboxes[i].clear();
            if let Some(offsets) = &self.offsets {
                let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
                ring.inboxes[i].extend(self.messages[start..end].iter().cloned());
            }
        }
        for &slot in self.slots.iter() {
            let i = slot as usize;
            let word = self.agents[i];
            let node = (word >> 16) as usize;
            if word & IN_TRANSIT != 0 {
                ring.links[node].push_back(AgentId(i));
            } else {
                ring.staying[node].push(AgentId(i));
            }
        }
        match (&self.faults, ring.fault_plan().is_empty()) {
            (None, true) => {}
            (Some(f), false) => {
                ring.acted.copy_from_slice(&f.acted);
                ring.crashed.copy_from_slice(&f.crashed);
                ring.down_edge = f.down_edge.map(|v| NodeId(v as usize));
                ring.outages_left = f.outages_left;
            }
            _ => panic!("fault plan mismatch between snapshot and target ring"),
        }
        ring.refresh_enabled();
    }

    /// Heap bytes this snapshot owns (payload of the six buffers) — the
    /// per-state memory figure benchmarks report.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.agents.len() * size_of::<u32>()
            + self.slots.len() * size_of::<u16>()
            + self.tokens.len() * size_of::<u16>()
            + self.behaviors.len() * size_of::<B>()
            + self.messages.len() * size_of::<B::Message>()
            + self
                .offsets
                .as_ref()
                .map_or(0, |o| o.len() * size_of::<u32>())
            + self
                .faults
                .as_ref()
                .map_or(0, |f| f.acted.len() * size_of::<u64>() + f.crashed.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::agent::Observation;
    use crate::canonical::{canonical_fingerprint, plain_fingerprint};
    use crate::initial::InitialConfig;
    use crate::scheduler::{Random, Scheduler};

    /// Walks, greets co-located agents once, then suspends — mid-run
    /// states exercise tokens, staying order, queue order, inboxes and
    /// every idle state.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Wanderer {
        hops: usize,
        released: bool,
        greeted: bool,
    }

    impl Behavior for Wanderer {
        type Message = u8;
        fn act(&mut self, obs: &Observation<'_, u8>) -> Action<u8> {
            let release = !std::mem::replace(&mut self.released, true);
            if self.hops > 0 {
                self.hops -= 1;
                return Action::moving().with_token_release(release);
            }
            let greet = !std::mem::replace(&mut self.greeted, true) && obs.staying_agents > 0;
            let action = Action::suspending().with_token_release(release);
            if greet {
                action.with_broadcast(42)
            } else {
                action
            }
        }
        fn memory_bits(&self) -> usize {
            16
        }
    }

    fn mid_run_ring(seed: u64, steps: usize) -> Ring<Wanderer> {
        let init = InitialConfig::new(8, vec![0, 1, 5]).expect("valid");
        let mut ring = Ring::new(&init, |id| Wanderer {
            hops: 2 + id.index(),
            released: false,
            greeted: false,
        });
        let mut scheduler = Random::seeded(seed);
        for _ in 0..steps {
            if ring.enabled_activations().is_empty() {
                break;
            }
            let chosen = scheduler.select(ring.enabled_activations());
            ring.step(ring.enabled_activations()[chosen]);
        }
        ring
    }

    #[test]
    fn pack_restore_roundtrip_is_bit_exact() {
        for seed in 0..20u64 {
            for steps in [0usize, 3, 7, 100] {
                let original = mid_run_ring(seed, steps);
                let packed = PackedState::pack(&original);
                // Restore into a scratch ring advanced somewhere else
                // entirely — everything configuration-like must snap back.
                let mut scratch = mid_run_ring(seed ^ 0xdead, steps / 2 + 1);
                packed.restore_into(&mut scratch);
                assert_eq!(
                    plain_fingerprint(&scratch),
                    plain_fingerprint(&original),
                    "seed {seed} steps {steps}"
                );
                assert_eq!(
                    canonical_fingerprint(&scratch),
                    canonical_fingerprint(&original)
                );
                assert_eq!(
                    scratch.enabled_activations(),
                    original.enabled_activations()
                );
                assert_eq!(scratch.tokens(), original.tokens());
                assert_eq!(scratch.staying_sets(), original.staying_sets());
                assert_eq!(scratch.link_queues(), original.link_queues());
            }
        }
    }

    #[test]
    #[should_panic(expected = "ring size mismatch")]
    fn restore_into_wrong_shape_panics() {
        let ring = mid_run_ring(1, 0);
        let packed = PackedState::pack(&ring);
        let init = InitialConfig::new(5, vec![0]).expect("valid");
        let mut other = Ring::new(&init, |_| Wanderer {
            hops: 1,
            released: false,
            greeted: false,
        });
        packed.restore_into(&mut other);
    }
}
