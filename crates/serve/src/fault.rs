//! Deterministic fault injection for the serving engine.
//!
//! Inference faults ride the shared `apf_distsim::fault::FaultPlan`: a
//! seeded, replayable plan of failures the engine consults at well-defined
//! points. Here the key is `(worker, nth-dispatch-by-that-worker)` rather
//! than a global step — a
//! worker's breaker behaviour then depends only on its *own* processing
//! sequence, so breaker transitions replay exactly no matter how the
//! scheduler interleaves workers. A dispatch is one forward (a whole batch)
//! or one slide; at `max_batch = 1` dispatches are requests.

use apf_distsim::fault::{Fault, FaultPlan};
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

impl Fault for InferenceFault {
    type Key = (usize, u64);
    type Kind = InferenceFaultKind;
    fn key(&self) -> (usize, u64) {
        (self.worker, self.nth)
    }
    fn kind(&self) -> InferenceFaultKind {
        self.kind
    }
    fn new((worker, nth): (usize, u64), kind: InferenceFaultKind) -> Self {
        InferenceFault { worker, nth, kind }
    }
}

/// Per-request probabilities for [`ServeFaultRates::random`].
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

impl ServeFaultRates {
    /// Draws a seeded random plan covering the first `per_worker` requests
    /// of each of `workers` workers. Same `(seed, per_worker, workers,
    /// rates)` -> same plan. At most one fault per (worker, nth) slot.
    pub fn random(self, seed: u64, per_worker: u64, workers: usize) -> FaultPlan<InferenceFault> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        for worker in 0..workers {
            for nth in 0..per_worker {
                if rng.gen_bool(self.panic) {
                    events.push(InferenceFault { worker, nth, kind: InferenceFaultKind::WorkerPanic });
                } else if rng.gen_bool(self.non_finite) {
                    events.push(InferenceFault {
                        worker,
                        nth,
                        kind: InferenceFaultKind::NonFiniteOutput,
                    });
                } else if rng.gen_bool(self.slow) {
                    let delay_ms = rng.gen_range(self.slow_ms.0..=self.slow_ms.1);
                    events.push(InferenceFault {
                        worker,
                        nth,
                        kind: InferenceFaultKind::SlowInference { delay_ms },
                    });
                }
            }
        }
        FaultPlan::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_replay_exactly() {
        let a = ServeFaultRates::default().random(9, 40, 3);
        let b = ServeFaultRates::default().random(9, 40, 3);
        assert_eq!(a, b);
        let c = ServeFaultRates::default().random(10, 40, 3);
        assert_ne!(a, c);
    }

    #[test]
    fn burst_over_an_occupied_slot_wins_the_lookup() {
        let occupied = InferenceFault { worker: 0, nth: 3, kind: InferenceFaultKind::NonFiniteOutput };
        let plan = FaultPlan::new(vec![occupied]).with_burst((0, 3), 1, InferenceFaultKind::WorkerPanic);
        assert_eq!(plan.fault_for((0, 3)), Some(InferenceFaultKind::WorkerPanic));
        assert_eq!(plan.events().len(), 1, "the burst replaces the drawn fault");
    }

    #[test]
    fn at_most_one_fault_per_slot() {
        let heavy = ServeFaultRates { panic: 0.3, non_finite: 0.3, slow: 0.3, slow_ms: (1, 2) };
        let plan = heavy.random(11, 50, 4);
        let mut seen = std::collections::HashSet::new();
        for e in plan.events() {
            assert!(seen.insert((e.worker, e.nth)), "duplicate slot {:?}", e);
        }
    }
}
