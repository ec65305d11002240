//! Run metrics: moves, activations, messages, memory — the quantities of
//! Table 1.

use crate::AgentId;

/// Metrics accumulated by the engine during a run.
///
/// * **moves** reproduce the paper's *total moves* complexity row;
/// * **peak memory bits** (max over agents and over time of
///   [`Behavior::memory_bits`](crate::Behavior::memory_bits)) reproduce the
///   *agent memory* row;
/// * ideal **time** is reported separately by
///   [`Ring::run_synchronous`](crate::Ring::run_synchronous) as rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    moves: Vec<u64>,
    activations: Vec<u64>,
    messages_sent: u64,
    message_receipts: u64,
    token_releases: u64,
    peak_memory_bits: usize,
}

impl Metrics {
    pub(crate) fn new(k: usize) -> Self {
        Metrics {
            moves: vec![0; k],
            activations: vec![0; k],
            messages_sent: 0,
            message_receipts: 0,
            token_releases: 0,
            peak_memory_bits: 0,
        }
    }

    pub(crate) fn record_move(&mut self, id: AgentId) {
        self.moves[id.index()] += 1;
    }

    pub(crate) fn record_activation(&mut self, id: AgentId) {
        self.activations[id.index()] += 1;
    }

    pub(crate) fn record_broadcast(&mut self, receivers: usize) {
        if receivers > 0 {
            self.messages_sent += 1;
            self.message_receipts += receivers as u64;
        }
    }

    pub(crate) fn record_token_release(&mut self) {
        self.token_releases += 1;
    }

    pub(crate) fn observe_memory(&mut self, bits: usize) {
        self.peak_memory_bits = self.peak_memory_bits.max(bits);
    }

    // Exact inverses of the `record_*` calls one engine step makes,
    // consumed by [`Ring::undo`](crate::Ring::undo). `observe_memory` is a
    // running max and has no local inverse; `undo` restores the saved
    // pre-step peak via `set_peak_memory` instead.

    pub(crate) fn unrecord_move(&mut self, id: AgentId) {
        self.moves[id.index()] -= 1;
    }

    pub(crate) fn unrecord_activation(&mut self, id: AgentId) {
        self.activations[id.index()] -= 1;
    }

    pub(crate) fn unrecord_broadcast(&mut self, receivers: usize) {
        if receivers > 0 {
            self.messages_sent -= 1;
            self.message_receipts -= receivers as u64;
        }
    }

    pub(crate) fn unrecord_token_release(&mut self) {
        self.token_releases -= 1;
    }

    pub(crate) fn set_peak_memory(&mut self, bits: usize) {
        self.peak_memory_bits = bits;
    }

    /// Moves per agent, in agent order.
    pub fn moves(&self) -> &[u64] {
        &self.moves
    }

    /// Total moves of all agents — the paper's "total moves" measure.
    pub fn total_moves(&self) -> u64 {
        self.moves.iter().sum()
    }

    /// The maximum number of moves any single agent made.
    pub fn max_moves(&self) -> u64 {
        self.moves.iter().copied().max().unwrap_or(0)
    }

    /// Atomic actions per agent.
    pub fn activations(&self) -> &[u64] {
        &self.activations
    }

    /// Total atomic actions executed.
    pub fn total_activations(&self) -> u64 {
        self.activations.iter().sum()
    }

    /// Number of broadcasts that reached at least one receiver.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total message deliveries (a broadcast to `r` agents counts `r`).
    pub fn message_receipts(&self) -> u64 {
        self.message_receipts
    }

    /// Tokens released so far (≤ k; exactly k after all agents started).
    pub fn token_releases(&self) -> u64 {
        self.token_releases
    }

    /// Peak per-agent memory observed, in bits (the paper's "agent memory").
    pub fn peak_memory_bits(&self) -> usize {
        self.peak_memory_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_sums() {
        let mut m = Metrics::new(3);
        m.record_move(AgentId(0));
        m.record_move(AgentId(0));
        m.record_move(AgentId(2));
        m.record_activation(AgentId(1));
        m.record_broadcast(0);
        m.record_broadcast(2);
        m.record_token_release();
        m.observe_memory(10);
        m.observe_memory(7);
        assert_eq!(m.moves(), &[2, 0, 1]);
        assert_eq!(m.total_moves(), 3);
        assert_eq!(m.max_moves(), 2);
        assert_eq!(m.total_activations(), 1);
        assert_eq!(m.messages_sent(), 1);
        assert_eq!(m.message_receipts(), 2);
        assert_eq!(m.token_releases(), 1);
        assert_eq!(m.peak_memory_bits(), 10);
    }
}

mod json_impls {
    use super::Metrics;
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for Metrics {
        fn to_json(&self) -> Json {
            Json::object([
                ("moves", self.moves.to_json()),
                ("activations", self.activations.to_json()),
                ("messages_sent", self.messages_sent.to_json()),
                ("message_receipts", self.message_receipts.to_json()),
                ("token_releases", self.token_releases.to_json()),
                ("peak_memory_bits", self.peak_memory_bits.to_json()),
            ])
        }
    }

    impl FromJson for Metrics {
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            Ok(Metrics {
                moves: json.field("moves")?,
                activations: json.field("activations")?,
                messages_sent: json.field("messages_sent")?,
                message_receipts: json.field("message_receipts")?,
                token_releases: json.field("token_releases")?,
                peak_memory_bits: json.field("peak_memory_bits")?,
            })
        }
    }
}
