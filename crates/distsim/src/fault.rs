//! Deterministic fault injection: one seeded, replayable plan type for
//! every subsystem that injects failures.
//!
//! A [`FaultPlan`] is a schedule of events, each an implementation of
//! [`Fault`]: a kind of failure placed at a key. The key is whatever the
//! consuming loop counts — the engine's global step ([`FaultEvent`]), a
//! wire client's attempt, or a worker's `nth` item or dispatch (the fabric
//! and the serving engine, where keying per worker keeps replay exact no
//! matter how the scheduler interleaves workers). Each domain defines its
//! own event kind, rates, and seeded `random` draw; the plan only stores,
//! orders, and looks up events.
//!
//! For the data-parallel engine, a plan of [`FaultEvent`]s — worker
//! crashes, transient gradient corruption on the wire, and stragglers — is
//! consulted at the start of every step. The same plan always produces
//! the same recovery behaviour (verified by the determinism tests), so
//! failure scenarios at any scale can be replayed exactly.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One scheduled failure in some domain's plan.
pub trait Fault: Copy {
    /// Where the event fires; plans keep their events in ascending key order.
    type Key: FaultKey;
    /// What happens when it fires.
    type Kind: Copy;
    /// The event's key.
    fn key(&self) -> Self::Key;
    /// The event's kind.
    fn kind(&self) -> Self::Kind;
    /// The event of `kind` at `key`.
    fn new(key: Self::Key, kind: Self::Kind) -> Self;
}

/// A schedule position: a step or attempt (`u64`), or a `(worker, nth)`
/// slot.
pub trait FaultKey: Copy + Ord {
    /// The key `n` positions later (for `(worker, nth)`: on the same worker).
    fn offset(self, n: u64) -> Self;
}

impl FaultKey for u64 {
    fn offset(self, n: u64) -> Self {
        self + n
    }
}

impl FaultKey for (usize, u64) {
    fn offset(self, n: u64) -> Self {
        (self.0, self.1 + n)
    }
}

/// A deterministic schedule of faults, kept in stable key order: events
/// that share a key stay in the order they were given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan<E> {
    events: Vec<E>,
}

impl<E> Default for FaultPlan<E> {
    fn default() -> Self {
        FaultPlan { events: Vec::new() }
    }
}

impl<E: Fault> FaultPlan<E> {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events (stably sorted by key; several
    /// events may share a key).
    pub fn new(mut events: Vec<E>) -> Self {
        events.sort_by_key(|e| e.key());
        FaultPlan { events }
    }

    /// Replaces whatever is scheduled at the `len` keys from `start` with
    /// one `kind` event each — a burst that fires regardless of what a
    /// random draw put there.
    pub fn with_burst(mut self, start: E::Key, len: u64, kind: E::Kind) -> Self {
        let window = start..start.offset(len);
        self.events.retain(|e| !window.contains(&e.key()));
        self.events.extend((0..len).map(|i| E::new(start.offset(i), kind)));
        FaultPlan::new(self.events)
    }

    /// Every event scheduled at `key`, in plan order.
    pub fn at(&self, key: E::Key) -> &[E] {
        let lo = self.events.partition_point(|e| e.key() < key);
        let hi = self.events.partition_point(|e| e.key() <= key);
        &self.events[lo..hi]
    }

    /// The kind of the first event at `key`, if any.
    pub fn fault_for(&self, key: E::Key) -> Option<E::Kind> {
        self.at(key).first().map(|e| e.kind())
    }

    /// All scheduled events, in key order.
    pub fn events(&self) -> &[E] {
        &self.events
    }
}

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker dies permanently at the start of the step. The engine
    /// removes it from the collective and re-shards the batch over the
    /// survivors.
    WorkerCrash {
        /// Rank of the dying worker.
        rank: usize,
    },
    /// The worker's outgoing all-reduce traffic is corrupted by a single
    /// bit flip this step. Transient: the retry succeeds.
    GradCorruption {
        /// Rank whose message is corrupted.
        rank: usize,
    },
    /// The worker stalls for `delay_ms` before computing its shard. No
    /// correctness impact; inflates the step's compute time.
    Straggler {
        /// Rank of the slow worker.
        rank: usize,
        /// Injected delay in milliseconds.
        delay_ms: u64,
    },
    /// The worker's gradient contribution contains a NaN this step
    /// (modelling an overflow in mixed-precision compute). Transient; the
    /// engine's guard rolls the step back.
    NanGrad {
        /// Rank producing the NaN.
        rank: usize,
    },
}

impl FaultKind {
    /// The rank this fault targets.
    pub fn rank(&self) -> usize {
        match *self {
            FaultKind::WorkerCrash { rank }
            | FaultKind::GradCorruption { rank }
            | FaultKind::Straggler { rank, .. }
            | FaultKind::NanGrad { rank } => rank,
        }
    }
}

/// A fault scheduled for a specific engine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Engine step (0-based) at which the fault fires.
    pub step: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl Fault for FaultEvent {
    type Key = u64;
    type Kind = FaultKind;
    fn key(&self) -> u64 {
        self.step
    }
    fn kind(&self) -> FaultKind {
        self.kind
    }
    fn new(step: u64, kind: FaultKind) -> Self {
        FaultEvent { step, kind }
    }
}

/// Probabilities for [`FaultRates::random`], per worker-step.
#[derive(Debug, Clone, Copy)]
pub struct FaultRates {
    /// Probability a live worker crashes on a given step.
    pub crash: f64,
    /// Probability a worker's all-reduce traffic is corrupted on a step.
    pub corruption: f64,
    /// Probability a worker straggles on a step.
    pub straggler: f64,
    /// Straggler delay range in milliseconds.
    pub straggler_ms: (u64, u64),
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            crash: 0.01,
            corruption: 0.02,
            straggler: 0.05,
            straggler_ms: (1, 20),
        }
    }
}

impl FaultRates {
    /// Draws a seeded random engine plan over `steps` steps and `workers`
    /// ranks. The same `(seed, steps, workers, rates)` always yields the
    /// same plan. At most `workers - 1` crashes are scheduled so the
    /// collective never empties.
    pub fn random(self, seed: u64, steps: u64, workers: usize) -> FaultPlan<FaultEvent> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut crashes = 0usize;
        let mut dead = vec![false; workers];
        for step in 0..steps {
            for (rank, is_dead) in dead.iter_mut().enumerate() {
                if *is_dead {
                    continue;
                }
                if crashes + 1 < workers && rng.gen_bool(self.crash) {
                    events.push(FaultEvent { step, kind: FaultKind::WorkerCrash { rank } });
                    *is_dead = true;
                    crashes += 1;
                    continue;
                }
                if rng.gen_bool(self.corruption) {
                    events.push(FaultEvent { step, kind: FaultKind::GradCorruption { rank } });
                }
                if rng.gen_bool(self.straggler) {
                    let delay_ms = rng.gen_range(self.straggler_ms.0..=self.straggler_ms.1);
                    events.push(FaultEvent {
                        step,
                        kind: FaultKind::Straggler { rank, delay_ms },
                    });
                }
            }
        }
        FaultPlan::new(events)
    }
}

/// One entry in the engine's recovery trace: what the fault-tolerance
/// machinery observed and did. Traces are `PartialEq` so tests can assert
/// that identical plans produce identical recoveries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryEvent {
    /// A worker died; the collective was rebuilt over the survivors.
    WorkerLost {
        /// Step at which the crash fired.
        step: u64,
        /// The dead worker's rank.
        rank: usize,
        /// Surviving world size after removal.
        world_after: usize,
    },
    /// An all-reduce round failed its checksum and was retried.
    CommRetry {
        /// Step at which corruption was detected.
        step: u64,
        /// Retry attempt number (1-based).
        attempt: u32,
    },
    /// A straggler delayed the step.
    StragglerObserved {
        /// Step the delay occurred on.
        step: u64,
        /// The slow worker's rank.
        rank: usize,
        /// Injected delay in milliseconds.
        delay_ms: u64,
    },
    /// A non-finite loss or gradient was caught; the update was skipped,
    /// parameters and optimizer rolled back, and the learning rate halved.
    RolledBack {
        /// Step that produced the non-finite value.
        step: u64,
        /// Learning-rate scale in effect after the halving.
        lr_scale_after: f32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_sorts_and_filters_by_step() {
        let plan = FaultPlan::new(vec![
            FaultEvent { step: 5, kind: FaultKind::WorkerCrash { rank: 1 } },
            FaultEvent { step: 2, kind: FaultKind::Straggler { rank: 0, delay_ms: 3 } },
            FaultEvent { step: 5, kind: FaultKind::GradCorruption { rank: 2 } },
        ]);
        assert_eq!(plan.events()[0].step, 2);
        let at5: Vec<FaultKind> = plan.at(5).iter().map(|e| e.kind).collect();
        assert_eq!(at5, [FaultKind::WorkerCrash { rank: 1 }, FaultKind::GradCorruption { rank: 2 }]);
        assert_eq!(plan.fault_for(5), Some(FaultKind::WorkerCrash { rank: 1 }));
        assert!(plan.at(3).is_empty());
        assert!(FaultPlan::<FaultEvent>::none().events().is_empty());
    }

    #[test]
    fn burst_replaces_every_event_in_its_window() {
        let crash = FaultKind::WorkerCrash { rank: 0 };
        let plan = FaultPlan::new(vec![
            FaultEvent { step: 1, kind: FaultKind::NanGrad { rank: 1 } },
            FaultEvent { step: 2, kind: FaultKind::GradCorruption { rank: 2 } },
            FaultEvent { step: 2, kind: FaultKind::NanGrad { rank: 3 } },
            FaultEvent { step: 4, kind: FaultKind::NanGrad { rank: 1 } },
        ])
        .with_burst(2, 2, crash);
        let steps: Vec<(u64, FaultKind)> = plan.events().iter().map(|e| (e.step, e.kind)).collect();
        assert_eq!(
            steps,
            [(1, FaultKind::NanGrad { rank: 1 }), (2, crash), (3, crash), (4, FaultKind::NanGrad { rank: 1 })]
        );
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultRates::default().random(7, 50, 4);
        let b = FaultRates::default().random(7, 50, 4);
        let c = FaultRates::default().random(8, 50, 4);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ (vanishingly unlikely otherwise)");
    }

    #[test]
    fn random_plan_never_kills_all_workers() {
        for seed in 0..20 {
            let heavy = FaultRates { crash: 0.5, ..Default::default() };
            let plan = heavy.random(seed, 100, 3);
            let crashes = plan
                .events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::WorkerCrash { .. }))
                .count();
            assert!(crashes < 3, "seed {} killed everyone", seed);
        }
    }

    #[test]
    fn crashed_workers_emit_no_further_events() {
        let heavy = FaultRates { crash: 0.3, corruption: 0.3, straggler: 0.3, ..Default::default() };
        let plan = heavy.random(3, 60, 4);
        let mut dead_at: Vec<Option<u64>> = vec![None; 4];
        for e in plan.events() {
            let rank = e.kind.rank();
            if let Some(d) = dead_at[rank] {
                panic!("rank {} acted at step {} after dying at {}", rank, e.step, d);
            }
            if matches!(e.kind, FaultKind::WorkerCrash { .. }) {
                dead_at[rank] = Some(e.step);
            }
        }
    }
}
