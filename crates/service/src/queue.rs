//! The result queue of a campaign: a deterministic overflow model that
//! decides every block and shed.
//!
//! [`QueueModel`] is a single-server queue between a campaign's visits
//! and its online aggregate. Arrivals are stamped with the campaign's
//! simulated clock (a pure function of the visit sequence), service
//! time is a fixed per-update drain cost plus any injected
//! slow-consumer stall, and the configured [`OverflowPolicy`] resolves
//! a full queue into a counted block or a counted shed. Every verdict
//! is a function of the update sequence, so the shed set is identical
//! across worker counts — the acceptance criterion the overload tests
//! pin. A delivered update is folded into the campaign's aggregate by
//! the executor that produced it, so nothing but the model queues.

use std::collections::VecDeque;

/// What a full queue does to the arriving update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// The update waits in the model until the head departs, and the
    /// wait is counted as a block: latency, not loss.
    Block,
    /// The update is dropped and counted: loss, not latency.
    Shed,
}

/// The deterministic verdict for one arriving update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueVerdict {
    /// Enqueued without waiting.
    Delivered,
    /// The update had to wait (Block policy) before it fit.
    DeliveredAfterBlock,
    /// The update was shed (Shed policy, queue full).
    Shed,
}

/// Deterministic single-server queue model. Time is the campaign's
/// simulated clock, not wall time; the model is a fold over the
/// arrival sequence and therefore schedule-invariant.
#[derive(Debug, Clone)]
pub struct QueueModel {
    capacity: usize,
    drain_ms_per_update: u64,
    policy: OverflowPolicy,
    /// Scheduled departure times of updates still in the modeled queue.
    departures: VecDeque<u64>,
    /// Deepest the modeled queue has been (after each arrival).
    pub high_water: usize,
    /// Arrivals that found the queue full and blocked.
    pub blocks: u64,
    /// Arrivals that found the queue full and were shed.
    pub shed: u64,
}

impl QueueModel {
    /// A model with the given capacity, per-update drain cost, and
    /// overflow policy.
    pub fn new(capacity: usize, drain_ms_per_update: u64, policy: OverflowPolicy) -> QueueModel {
        QueueModel {
            capacity: capacity.max(1),
            drain_ms_per_update: drain_ms_per_update.max(1),
            policy,
            departures: VecDeque::new(),
            high_water: 0,
            blocks: 0,
            shed: 0,
        }
    }

    /// Fold one arrival in. `arrival_ms` is the update's position on
    /// the campaign's simulated clock, `stall_ms` any injected
    /// slow-consumer stall (added to this update's service time), and
    /// `forced_overflow` an injected queue-overflow fault (the arrival
    /// is treated as finding the queue full regardless of depth).
    pub fn on_arrival(
        &mut self,
        arrival_ms: u64,
        stall_ms: u64,
        forced_overflow: bool,
    ) -> QueueVerdict {
        // Consumer progress up to this arrival.
        while self.departures.front().is_some_and(|d| *d <= arrival_ms) {
            self.departures.pop_front();
        }
        let full = forced_overflow || self.departures.len() >= self.capacity;
        let (effective_arrival, verdict) = if full {
            match self.policy {
                OverflowPolicy::Shed => {
                    self.shed += 1;
                    return QueueVerdict::Shed;
                }
                OverflowPolicy::Block => {
                    self.blocks += 1;
                    // The update waits until the head departs (or,
                    // for a forced overflow on a shallow queue, one
                    // drain slot).
                    let unblocked = self
                        .departures
                        .front()
                        .copied()
                        .unwrap_or(arrival_ms + self.drain_ms_per_update)
                        .max(arrival_ms);
                    self.departures.pop_front();
                    (unblocked, QueueVerdict::DeliveredAfterBlock)
                }
            }
        } else {
            (arrival_ms, QueueVerdict::Delivered)
        };
        // Single server: service starts when the previous update
        // finishes or this one arrives, whichever is later.
        let start = self
            .departures
            .back()
            .copied()
            .unwrap_or(0)
            .max(effective_arrival);
        self.departures
            .push_back(start + self.drain_ms_per_update + stall_ms);
        self.high_water = self.high_water.max(self.departures.len());
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_sheds_only_past_capacity() {
        let mut model = QueueModel::new(2, 10, OverflowPolicy::Shed);
        // Three arrivals at the same instant: the third finds the
        // queue full and sheds.
        assert_eq!(model.on_arrival(0, 0, false), QueueVerdict::Delivered);
        assert_eq!(model.on_arrival(0, 0, false), QueueVerdict::Delivered);
        assert_eq!(model.on_arrival(0, 0, false), QueueVerdict::Shed);
        assert_eq!(model.shed, 1);
        assert_eq!(model.high_water, 2);
        // Once the consumer catches up, arrivals deliver again.
        assert_eq!(model.on_arrival(100, 0, false), QueueVerdict::Delivered);
    }

    #[test]
    fn model_blocks_instead_of_shedding_under_block_policy() {
        let mut model = QueueModel::new(1, 10, OverflowPolicy::Block);
        assert_eq!(model.on_arrival(0, 0, false), QueueVerdict::Delivered);
        assert_eq!(
            model.on_arrival(0, 0, false),
            QueueVerdict::DeliveredAfterBlock
        );
        assert_eq!(model.blocks, 1);
        assert_eq!(model.shed, 0);
    }

    #[test]
    fn forced_overflow_fires_the_policy_even_when_shallow() {
        let mut shed = QueueModel::new(100, 10, OverflowPolicy::Shed);
        assert_eq!(shed.on_arrival(0, 0, true), QueueVerdict::Shed);
        let mut block = QueueModel::new(100, 10, OverflowPolicy::Block);
        assert_eq!(
            block.on_arrival(0, 0, true),
            QueueVerdict::DeliveredAfterBlock
        );
    }

    #[test]
    fn stall_inflates_depth_behind_the_stalled_update() {
        let mut model = QueueModel::new(10, 10, OverflowPolicy::Shed);
        model.on_arrival(0, 1_000, false);
        for t in [10, 20, 30] {
            model.on_arrival(t, 0, false);
        }
        assert_eq!(model.high_water, 4, "stalled head backs everyone up");
        let mut smooth = QueueModel::new(10, 10, OverflowPolicy::Shed);
        for t in [0, 10, 20, 30] {
            smooth.on_arrival(t, 0, false);
        }
        assert!(smooth.high_water < 4);
    }

    #[test]
    fn model_is_a_pure_fold_over_the_arrival_sequence() {
        let run = || {
            let mut model = QueueModel::new(3, 7, OverflowPolicy::Shed);
            (0..50u64)
                .map(|i| model.on_arrival(i * 2, (i % 5) * 3, i % 11 == 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
