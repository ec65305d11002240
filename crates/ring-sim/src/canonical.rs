//! Canonical forms of configurations under ring rotation — the symmetry
//! quotient used by the exhaustive explorer ([`crate::explore`]).
//!
//! # Why rotation-quotienting is sound
//!
//! Nodes and agents are **anonymous** (paper §2.1): no behavior can
//! observe a node index or an agent id, so rotating the whole
//! configuration by `r` (and relabeling agents arbitrarily) is an
//! automorphism of the transition system —
//!
//! * an activation is enabled in `C` iff its image is enabled in `σ(C)`;
//! * stepping the image activation in `σ(C)` yields `σ(step(C, a))`.
//!
//! Consequently the quotient graph reached by identifying
//! rotation-equivalent configurations preserves exactly the properties
//! the explorer certifies:
//!
//! * **safety** — every terminal configuration of the concrete graph is a
//!   rotation of a terminal representative the explorer visited, so a
//!   rotation-invariant terminal predicate (uniform spacing is one —
//!   gaps do not change under rotation) holds on all concrete terminals
//!   iff it holds on all representatives;
//! * **termination** — if the quotient graph has a cycle
//!   `[C] →⁺ [C]`, lifting the cycle's schedule from `C` reaches some
//!   rotation `σ(C)`, and iterating the rotated schedule `ord(σ)` times
//!   closes a *concrete* cycle (the rotation group is finite); conversely
//!   every concrete cycle projects onto a quotient cycle. So the quotient
//!   graph is acyclic iff the concrete graph is.
//!
//! The requirements on user input, enforced by documentation rather than
//! types: behaviors must not depend on the [`crate::AgentId`] passed to
//! the factory, and the terminal predicate must be invariant under
//! rotation and agent relabeling. The paper's algorithms and the
//! Definition 1/2 predicates satisfy both.
//!
//! # The canonical form
//!
//! [`Ring::node_symbols`] compresses each node's local state (tokens,
//! staying agents, in-transit agents — each with behavior state, idle
//! state, token flag and inbox) into one rotation-invariant `u64`, so a
//! configuration becomes a length-`n` symbol sequence and rotating the
//! configuration rotates the sequence. [`canonical_fingerprint`] then
//! hashes the lexicographically minimal rotation of that sequence
//! (progressive candidate elimination via
//! [`ringdeploy_seq::min_rotation_elim`] — the same minimal-rotation
//! machinery the paper's algorithms apply to distance sequences, in the
//! variant that wins on ring-sized inputs), collapsing all `n` rotations
//! of a configuration to a single 64-bit visited-set entry.
//!
//! As with the plain fingerprint, a hash collision can only merge two
//! distinct states and therefore *under*-explore — never produce a false
//! violation report (the usual explicit-state model-checking trade-off).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use ringdeploy_seq::min_rotation_elim;

use crate::agent::Behavior;
use crate::engine::Ring;

/// One round of the symbol/sealing chain: multiply–xorshift
/// (splitmix64-style) absorption of one word.
///
/// Symbol extraction and sealing run once per generated child state in
/// the explorer — the hottest hashes in the codebase — so they use a
/// cheap strong-mixing chain instead of a SipHash pass (~6× less per
/// word). As with any 64-bit fingerprint, a collision can only *merge*
/// two states (under-exploration), never fabricate a violation — see the
/// module docs.
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    let mut z = (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 32)
}

/// A [`Hasher`] over the [`mix`] chain — the engine's symbol hasher
/// ([`Ring::node_symbol`]). Accepts every `write_*` shape a derived
/// `Hash` impl can emit (integer writes fold directly; byte-slice writes
/// fold 8-byte little-endian chunks plus a length-tagged remainder), so
/// arbitrary behavior and message types hash through it unchanged.
#[derive(Clone)]
pub(crate) struct MixHasher(u64);

impl Default for MixHasher {
    fn default() -> Self {
        MixHasher(0x243F_6A88_85A3_08D3)
    }
}

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
        // Length tag: distinguishes e.g. [0] from [0, 0].
        self.0 = mix(self.0, bytes.len() as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.0 = mix(self.0, v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.0 = mix(self.0, v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = mix(self.0, v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = mix(self.0, v as u64);
        self.0 = mix(self.0, (v >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = mix(self.0, v as u64);
    }

    fn write_i8(&mut self, v: i8) {
        self.write_u8(v as u8);
    }

    fn write_i16(&mut self, v: i16) {
        self.write_u16(v as u16);
    }

    fn write_i32(&mut self, v: i32) {
        self.write_u32(v as u32);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_i128(&mut self, v: i128) {
        self.write_u128(v as u128);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_usize(v as usize);
    }
}

/// Hashes `(n, k, rotation of symbols)` into the final 64-bit
/// fingerprint, element by element — no rotated vector is materialised.
/// Every sealing path (batch, naive reference, the explorer's incremental
/// symbol cache) routes through here so the value is identical by
/// construction.
fn seal_rotation<'a>(
    n: usize,
    k: usize,
    len: usize,
    rotation: impl Iterator<Item = &'a u64>,
) -> u64 {
    let mut h = mix(0x243F_6A88_85A3_08D3, n as u64);
    h = mix(h, k as u64);
    h = mix(h, len as u64);
    for &symbol in rotation {
        h = mix(h, symbol);
    }
    h
}

/// Fingerprint of an already-extracted symbol sequence: its minimal
/// rotation, sealed with the instance shape. This is
/// [`canonical_fingerprint`] minus the `O(n)` symbol extraction — the
/// entry point for the explorer's incremental cache, which maintains the
/// symbol vector across [`Ring::apply`](Ring::apply)/[`Ring::undo`](Ring::undo)
/// by re-deriving only the ≤ 2 touched nodes' symbols.
pub fn fingerprint_of_symbols(n: usize, k: usize, symbols: &[u64]) -> u64 {
    fingerprint_of_symbols_with(n, k, symbols, &mut Vec::new())
}

/// [`fingerprint_of_symbols`] with a caller-provided scratch buffer for
/// the min-rotation candidate set — fully allocation-free, for the
/// explorer's per-child hot path. Uses progressive candidate elimination
/// ([`min_rotation_elim`]), which beats Booth's algorithm on ring-sized
/// symbol sequences.
pub fn fingerprint_of_symbols_with(
    n: usize,
    k: usize,
    symbols: &[u64],
    scratch: &mut Vec<usize>,
) -> u64 {
    let r = min_rotation_elim(symbols, scratch);
    // Two plain slice loops rather than a chained rotation iterator: the
    // chain's per-element branch is measurable at this call frequency.
    // The absorption order is identical to `seal_rotation` over the
    // materialised rotation, so the value is too.
    let mut h = mix(0x243F_6A88_85A3_08D3, n as u64);
    h = mix(h, k as u64);
    h = mix(h, symbols.len() as u64);
    for &symbol in &symbols[r..] {
        h = mix(h, symbol);
    }
    for &symbol in &symbols[..r] {
        h = mix(h, symbol);
    }
    h
}

/// [`fingerprint_of_symbols_with`] plus one extra rotation-invariant
/// word, mixed in after the sealed rotation — the hook through which the
/// explorer folds [`Ring::fault_seal_word`] (global fault state no node
/// symbol captures, e.g. the remaining outage budget) into canonical
/// fingerprints. `extra == 0` (the fault-free case by construction)
/// yields exactly the unsealed value, so fault-free fingerprints are
/// bit-identical to the pre-fault engine.
pub fn fingerprint_of_symbols_sealed(
    n: usize,
    k: usize,
    symbols: &[u64],
    scratch: &mut Vec<usize>,
    extra: u64,
) -> u64 {
    let fp = fingerprint_of_symbols_with(n, k, symbols, scratch);
    if extra == 0 {
        fp
    } else {
        mix(fp, extra)
    }
}

/// Fingerprint of the schedule-relevant state **without** any symmetry
/// reduction: everything that influences future behavior (tokens, staying
/// sets, link queues, inboxes, agent places/idle/token flags, behavior
/// states) and nothing that does not (metrics, step counters, traces).
///
/// Distinguishes rotations of the same configuration; see
/// [`canonical_fingerprint`] for the quotient map.
pub fn plain_fingerprint<B>(ring: &Ring<B>) -> u64
where
    B: Behavior + Hash,
    B::Message: Hash,
{
    let mut h = DefaultHasher::new();
    ring.hash_schedule_state(&mut h);
    h.finish()
}

/// Fingerprint of the configuration's **rotation class**: all `n`
/// rotations of a configuration (with agents relabeled along) produce the
/// same value, and — up to 64-bit hash collisions — non-equivalent
/// configurations produce different values.
///
/// Near-linear beyond the symbol extraction (candidate-elimination
/// minimal rotation + one sealing pass). See the [module docs](self) for
/// the soundness argument.
pub fn canonical_fingerprint<B>(ring: &Ring<B>) -> u64
where
    B: Behavior + Hash,
    B::Message: Hash,
{
    let symbols = ring.node_symbols();
    fingerprint_of_symbols_sealed(
        ring.ring_size(),
        ring.agent_count(),
        &symbols,
        &mut Vec::new(),
        ring.fault_seal_word(),
    )
}

/// Reference implementation of [`canonical_fingerprint`]: materialises
/// every rotation of the ring with [`Ring::rotated`], takes the
/// lexicographically minimal symbol sequence among them and hashes it.
///
/// `O(n²)` and allocation-heavy — exists to differentially test the fast
/// path (it exercises `Ring::rotated` and `node_symbols` independently of
/// the min-rotation algorithm); never use it in exploration.
pub fn canonical_fingerprint_naive<B>(ring: &Ring<B>) -> u64
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let n = ring.ring_size();
    let best = (0..n)
        .map(|r| ring.rotated(r).node_symbols())
        .min()
        .expect("rings have at least one node");
    let fp = seal_rotation(n, ring.agent_count(), best.len(), best.iter());
    let extra = ring.fault_seal_word();
    if extra == 0 {
        fp
    } else {
        mix(fp, extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::agent::Observation;
    use crate::initial::InitialConfig;

    /// Walks `hops` hops, drops its token at home, halts.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Walker {
        hops: usize,
        released: bool,
    }

    impl Behavior for Walker {
        type Message = ();
        fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
            let release = !std::mem::replace(&mut self.released, true);
            if self.hops > 0 {
                self.hops -= 1;
                Action::moving().with_token_release(release)
            } else {
                Action::halting().with_token_release(release)
            }
        }
        fn memory_bits(&self) -> usize {
            8
        }
    }

    fn ring(n: usize, homes: Vec<usize>, hops: usize) -> Ring<Walker> {
        let init = InitialConfig::new(n, homes).expect("valid");
        Ring::new(&init, |_| Walker {
            hops,
            released: false,
        })
    }

    #[test]
    fn rotations_share_one_canonical_fingerprint() {
        let r = ring(7, vec![0, 2, 3], 2);
        let canon = canonical_fingerprint(&r);
        assert_eq!(canon, canonical_fingerprint_naive(&r));
        for x in 0..7 {
            let rot = r.rotated(x);
            assert_eq!(canonical_fingerprint(&rot), canon, "rotation {x}");
            // Plain fingerprints distinguish non-trivial rotations.
            if x != 0 {
                assert_ne!(plain_fingerprint(&rot), plain_fingerprint(&r));
            }
        }
    }

    #[test]
    fn rotated_ring_is_a_working_engine() {
        use crate::engine::RunLimits;
        use crate::scheduler::RoundRobin;
        let r = ring(6, vec![0, 3], 2);
        let mut rot = r.rotated(2);
        assert_eq!(rot.enabled(), rot.enabled_rescan());
        let out = rot
            .run(&mut RoundRobin::new(), RunLimits::default())
            .expect("runs");
        assert!(out.quiescent);
        // Homes 0 and 3 rotate to 4 and 1; two hops land at 0 and 3.
        assert_eq!(rot.staying_positions(), Some(vec![0, 3]));
    }

    #[test]
    fn distinct_states_get_distinct_fingerprints() {
        let a = ring(8, vec![0, 4], 2);
        let b = ring(8, vec![0, 4], 3);
        assert_ne!(canonical_fingerprint(&a), canonical_fingerprint(&b));
        let c = ring(8, vec![0, 3], 2);
        assert_ne!(canonical_fingerprint(&a), canonical_fingerprint(&c));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rotation_out_of_range_panics() {
        let r = ring(4, vec![0], 1);
        let _ = r.rotated(4);
    }
}
