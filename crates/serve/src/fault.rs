//! Deterministic fault injection for the serving engine.
//!
//! Follows the pattern of `apf_distsim::fault`: a seeded, replayable plan
//! of failures the engine consults at well-defined points. Here the key is
//! `(worker, nth-dispatch-by-that-worker)` rather than a global step — a
//! worker's breaker behaviour then depends only on its *own* processing
//! sequence, so breaker transitions replay exactly no matter how the
//! scheduler interleaves workers. A dispatch is one forward (a whole batch)
//! or one slide; at `max_batch = 1` dispatches are requests.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One kind of injected inference failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceFaultKind {
    /// The worker panics mid-inference (caught by the engine's unwind
    /// barrier; the request fails, the breaker records it).
    WorkerPanic,
    /// The forward pass produces NaN logits (modelling numerically corrupt
    /// weights or activations); detected by the output guard.
    NonFiniteOutput,
    /// Inference stalls for `delay_ms` before running — pushes queued
    /// requests toward their deadlines and the queue toward degradation.
    SlowInference {
        /// Injected delay in milliseconds.
        delay_ms: u64,
    },
}

/// A fault scheduled for a specific worker's n-th dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceFault {
    /// Worker index the fault fires on.
    pub worker: usize,
    /// 0-based count of dispatches (batches or slides) that worker has
    /// run; equals its requests at `max_batch = 1`.
    pub nth: u64,
    /// What happens.
    pub kind: InferenceFaultKind,
}

/// Per-request probabilities for [`ServeFaultPlan::random`].
#[derive(Debug, Clone, Copy)]
pub struct ServeFaultRates {
    /// Probability a processed request panics the worker.
    pub panic: f64,
    /// Probability the output is non-finite.
    pub non_finite: f64,
    /// Probability inference is slowed.
    pub slow: f64,
    /// Slow-inference delay range in milliseconds.
    pub slow_ms: (u64, u64),
}

impl Default for ServeFaultRates {
    fn default() -> Self {
        ServeFaultRates { panic: 0.02, non_finite: 0.02, slow: 0.05, slow_ms: (1, 10) }
    }
}

/// A deterministic schedule of inference faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    events: Vec<InferenceFault>,
}

impl ServeFaultPlan {
    /// No faults.
    pub fn none() -> Self {
        ServeFaultPlan::default()
    }

    /// Builds a plan from explicit events.
    pub fn new(mut events: Vec<InferenceFault>) -> Self {
        events.sort_by_key(|e| (e.worker, e.nth));
        ServeFaultPlan { events }
    }

    /// Seeded random plan covering the first `per_worker` requests of each
    /// of `workers` workers. Same `(seed, per_worker, workers, rates)` ->
    /// same plan. At most one fault per (worker, nth) slot.
    pub fn random(seed: u64, per_worker: u64, workers: usize, rates: ServeFaultRates) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        for worker in 0..workers {
            for nth in 0..per_worker {
                if rng.gen_bool(rates.panic) {
                    events.push(InferenceFault { worker, nth, kind: InferenceFaultKind::WorkerPanic });
                } else if rng.gen_bool(rates.non_finite) {
                    events.push(InferenceFault {
                        worker,
                        nth,
                        kind: InferenceFaultKind::NonFiniteOutput,
                    });
                } else if rng.gen_bool(rates.slow) {
                    let delay_ms = rng.gen_range(rates.slow_ms.0..=rates.slow_ms.1);
                    events.push(InferenceFault {
                        worker,
                        nth,
                        kind: InferenceFaultKind::SlowInference { delay_ms },
                    });
                }
            }
        }
        ServeFaultPlan::new(events)
    }

    /// Adds a burst of `len` consecutive faults of `kind` on one worker,
    /// starting at its `start`-th dispatch. Guarantees a breaker
    /// trip regardless of what the random plan drew (existing events in the
    /// burst window are replaced).
    pub fn with_burst(mut self, worker: usize, start: u64, len: u64, kind: InferenceFaultKind) -> Self {
        self.events
            .retain(|e| !(e.worker == worker && e.nth >= start && e.nth < start + len));
        for nth in start..start + len {
            self.events.push(InferenceFault { worker, nth, kind });
        }
        self.events.sort_by_key(|e| (e.worker, e.nth));
        self
    }

    /// The fault, if any, for worker `worker`'s `nth` dispatch.
    pub fn fault_for(&self, worker: usize, nth: u64) -> Option<InferenceFaultKind> {
        self.events
            .binary_search_by_key(&(worker, nth), |e| (e.worker, e.nth))
            .ok()
            .map(|i| self.events[i].kind)
    }

    /// All scheduled events.
    pub fn events(&self) -> &[InferenceFault] {
        &self.events
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_replay_exactly() {
        let a = ServeFaultPlan::random(9, 40, 3, ServeFaultRates::default());
        let b = ServeFaultPlan::random(9, 40, 3, ServeFaultRates::default());
        assert_eq!(a, b);
        let c = ServeFaultPlan::random(10, 40, 3, ServeFaultRates::default());
        assert_ne!(a, c);
    }

    #[test]
    fn fault_lookup_is_keyed_per_worker() {
        let plan = ServeFaultPlan::new(vec![
            InferenceFault { worker: 1, nth: 3, kind: InferenceFaultKind::WorkerPanic },
            InferenceFault { worker: 0, nth: 3, kind: InferenceFaultKind::NonFiniteOutput },
        ]);
        assert_eq!(plan.fault_for(1, 3), Some(InferenceFaultKind::WorkerPanic));
        assert_eq!(plan.fault_for(0, 3), Some(InferenceFaultKind::NonFiniteOutput));
        assert_eq!(plan.fault_for(2, 3), None);
        assert_eq!(plan.fault_for(1, 4), None);
    }

    #[test]
    fn burst_overrides_window_and_guarantees_consecutive_faults() {
        let plan = ServeFaultPlan::random(4, 30, 2, ServeFaultRates::default())
            .with_burst(0, 5, 4, InferenceFaultKind::WorkerPanic);
        for nth in 5..9 {
            assert_eq!(plan.fault_for(0, nth), Some(InferenceFaultKind::WorkerPanic));
        }
    }

    #[test]
    fn at_most_one_fault_per_slot() {
        let plan = ServeFaultPlan::random(
            11,
            50,
            4,
            ServeFaultRates { panic: 0.3, non_finite: 0.3, slow: 0.3, slow_ms: (1, 2) },
        );
        let mut seen = std::collections::HashSet::new();
        for e in plan.events() {
            assert!(seen.insert((e.worker, e.nth)), "duplicate slot {:?}", e);
        }
    }
}
