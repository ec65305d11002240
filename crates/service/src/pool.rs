//! The shared worker pool: a bounded work queue multiplexing every
//! job's cache misses onto `std::thread` workers.
//!
//! The unit of work is a [`WorkItem`]: the cache-missing keys of one
//! unit of one job, i.e. keys that differ only in their objective
//! ([`objective_units`](ringdeploy_analysis::objective_units)). A
//! worker computes them with one [`engine::compute_unit`] call and
//! posts one [`CellDone`] per key, in key order.
//!
//! The queue is a [`std::sync::mpsc::sync_channel`] with capacity
//! [`DaemonConfig::queue_capacity`](crate::DaemonConfig) units: the
//! actor dispatches with [`WorkerPool::try_dispatch`] and treats a full
//! queue as backpressure (it simply stops dispatching until a
//! completion event frees a slot — the actor thread never blocks).
//! Workers catch panics, so one malformed unit cannot take a worker
//! down.

use std::sync::mpsc::{Sender, SyncSender, TrySendError};
use std::thread::JoinHandle;

use ringdeploy_analysis::key::InstanceKey;

use crate::daemon::{CellDone, Event};
use crate::engine;

/// Deliberate fault injection for the chaos CI drill: when
/// `RINGDEPLOYD_CHAOS_PANIC` is set (non-empty), any unit with a key
/// whose label contains the value panics mid-compute. The panic is
/// caught by the worker like any other, counted once in
/// [`StatsReport::panics`](crate::protocol::StatsReport), and surfaced
/// to the client as a normal cell error on every key of the unit — the
/// drill proves one poisoned unit cannot take a worker (or the daemon)
/// down.
fn chaos_panic_hook(key: &InstanceKey) {
    if let Ok(needle) = std::env::var("RINGDEPLOYD_CHAOS_PANIC") {
        if !needle.is_empty() && key.label().contains(&needle) {
            panic!("chaos: injected worker panic for {}", key.label());
        }
    }
}

/// One unit of work: compute the reports of the keys of `cells` for
/// job `job` (the daemon's internal job id).
pub struct WorkItem {
    /// Internal job id.
    pub job: u64,
    /// The unit's `(cell index, key)` pairs, in key order; the keys
    /// differ only in their objective.
    pub cells: Vec<(usize, InstanceKey)>,
}

/// The worker threads plus the bounded dispatch queue.
pub struct WorkerPool {
    tx: Option<SyncSender<WorkItem>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads consuming a queue of `queue_capacity`
    /// slots; completions are posted to `events`.
    pub fn spawn(workers: usize, queue_capacity: usize, events: Sender<Event>) -> WorkerPool {
        let (tx, rx) = std::sync::mpsc::sync_channel::<WorkItem>(queue_capacity.max(1));
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                let events = events.clone();
                std::thread::Builder::new()
                    .name(format!("ringdeployd-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the receive: workers
                        // compute concurrently.
                        let item = match rx.lock().expect("queue lock").recv() {
                            Ok(item) => item,
                            Err(_) => break, // queue closed: shutdown
                        };
                        let keys: Vec<&InstanceKey> =
                            item.cells.iter().map(|(_, key)| key).collect();
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                keys.iter().for_each(|key| chaos_panic_hook(key));
                                engine::compute_unit(&keys)
                            }));
                        let mut panicked = outcome.is_err();
                        let results = outcome.unwrap_or_else(|_| {
                            keys.iter()
                                .map(|_| Err("worker panicked computing cell".to_string()))
                                .collect()
                        });
                        for (&(cell, _), result) in item.cells.iter().zip(results) {
                            let done = CellDone {
                                job: item.job,
                                cell,
                                result,
                                // One caught panic, counted once.
                                panicked: std::mem::take(&mut panicked),
                            };
                            if events.send(Event::CellDone(done)).is_err() {
                                return; // actor gone: shutdown
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            handles,
        }
    }

    /// Attempts to enqueue `item`; hands it back when the queue is full
    /// (the actor retries after the next completion event).
    pub fn try_dispatch(&self, item: WorkItem) -> Result<(), WorkItem> {
        let tx = self.tx.as_ref().expect("pool not shut down");
        match tx.try_send(item) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(item)) => Err(item),
            Err(TrySendError::Disconnected(_)) => {
                unreachable!("workers outlive the dispatch side")
            }
        }
    }

    /// Closes the queue and joins every worker — the no-thread-leak
    /// guarantee of graceful shutdown. Callers must have drained their
    /// in-flight items' completion events first (or be prepared for the
    /// events channel to be dropped).
    pub fn shutdown(mut self) {
        drop(self.tx.take());
        for handle in self.handles.drain(..) {
            handle.join().expect("worker thread panicked");
        }
    }
}
