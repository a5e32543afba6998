//! The serving worker loop. Every engine worker runs it; "solo" serving is
//! just `max_batch = 1`. Each worker:
//!
//! 1. **Seeds** a batch with the next queued request (or the carry-over from
//!    the previous window — see below). Slides are dispatched solo
//!    immediately: a whole-slide stitch is minutes of work and would hold a
//!    linger window hostage.
//! 2. **Gathers** compatible requests until the batch holds `max_batch`
//!    requests or `batch_linger` has elapsed since the seed, whichever comes
//!    first (at `max_batch = 1` the batch is full at its seed and no window
//!    forms). Compatible = image payload at the *same degradation tier*; the
//!    first incompatible pop becomes the seed of the next batch (the queue
//!    has no push-front, so the scheduler carries it across iterations).
//! 3. **Evicts** members whose deadline expired while the batch was forming,
//!    responding with `DeadlineExceeded { stage: Batching }` — one stale
//!    request never rides (or delays) a fresh batch.
//! 4. **Runs** one padded multi-request forward: sequences come from the
//!    content-addressed [`PatchCache`], trimmed to the tier budget with a
//!    content-derived drop seed (the same pixels give the same sequence
//!    whatever the request id or batch size), are padded to the batch's
//!    longest length, and a per-request key-padding mask keeps padding out
//!    of every sample's attention. Attention is block-diagonal per sample,
//!    so each response equals its solo forward (bit-exact when nothing is
//!    padded, e.g. any batch of one).
//!
//! Deadlines are also honoured inside the forward: before every encoder
//! block, members whose deadline has passed are removed from the batch and
//! answered `DeadlineExceeded { stage: Inference { completed_blocks } }`,
//! while the rest of the batch runs on.
//!
//! Fault-injection indexing: `nth` counts *dispatches* on the worker
//! (batches plus solo slides), which equals requests at `max_batch = 1` — a
//! `WorkerPanic` fault fails the whole nth batch, which is exactly the blast
//! radius a real mid-forward panic would have.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use apf_core::patchify::PatchSequence;
use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::GrayImage;
use apf_models::vit::ViTSegmenter;
use apf_tensor::prelude::*;
use apf_telemetry::{Counter, Histogram, Telemetry, TraceContext};
use serde::Serialize;

use crate::breaker::CircuitBreaker;
use crate::degrade::{coarse_uniform_sequence, Tier};
use crate::engine::{run_slide, Payload, QueuedRequest, ServeConfig, ServeTel, Shared, WorkerReport};
use crate::fault::InferenceFaultKind;
use crate::queue::Popped;
use crate::request::{DeadlineStage, FailureReason, Outcome};

use super::cache::{CacheKey, ContentKey, PatchCache, VariantKey};

/// Exact batch counters shared by all batch workers, mirrored outside the
/// telemetry registry so reports stay available with telemetry disabled.
#[derive(Debug, Default)]
pub struct BatchStats {
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_occupancy: AtomicU64,
    deadline_evictions: AtomicU64,
    solo_slides: AtomicU64,
}

/// Snapshot of [`BatchStats`] for reports.
#[derive(Debug, Clone, Serialize)]
pub struct BatchStatsSnapshot {
    /// Padded multi-request forwards executed.
    pub batches: u64,
    /// Image requests served through those forwards.
    pub batched_requests: u64,
    /// Largest batch ever executed.
    pub max_occupancy: u64,
    /// Requests evicted from a forming batch by their deadline.
    pub deadline_evictions: u64,
    /// Slide requests dispatched solo (never batched).
    pub solo_slides: u64,
    /// Mean requests per executed batch (0 when no batch ran).
    pub mean_occupancy: f64,
}

impl BatchStats {
    /// Clones the counters into a serializable snapshot.
    pub fn snapshot(&self) -> BatchStatsSnapshot {
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_requests = self.batched_requests.load(Ordering::Relaxed);
        BatchStatsSnapshot {
            batches,
            batched_requests,
            max_occupancy: self.max_occupancy.load(Ordering::Relaxed),
            deadline_evictions: self.deadline_evictions.load(Ordering::Relaxed),
            solo_slides: self.solo_slides.load(Ordering::Relaxed),
            mean_occupancy: if batches == 0 {
                0.0
            } else {
                batched_requests as f64 / batches as f64
            },
        }
    }
}

/// Registry handles for the batching hot path; inert when telemetry is
/// disabled. Created once per engine and shared by the batch workers.
#[derive(Clone)]
pub(crate) struct BatchTel {
    pub(crate) occupancy: Histogram,
    pub(crate) linger_s: Histogram,
    pub(crate) batches: Counter,
    pub(crate) deadline_evictions: Counter,
}

impl BatchTel {
    pub(crate) fn new(tel: &Telemetry) -> Self {
        BatchTel {
            occupancy: tel.histogram(
                "apf_serve_batch_occupancy_count",
                "Requests per executed batch forward",
            ),
            linger_s: tel.histogram(
                "apf_serve_batch_linger_seconds",
                "Time each batch spent forming (seed pop to close)",
            ),
            batches: tel.counter(
                "apf_serve_batches_total",
                "Padded multi-request forwards executed",
            ),
            deadline_evictions: tel.counter(
                "apf_serve_batch_deadline_evictions_total",
                "Requests evicted from a forming batch by their deadline",
            ),
        }
    }
}

/// Extends a base (quota / queue-load) backoff hint with the delay a new
/// request would actually see under batching: every `max_batch` requests
/// already queued ahead of it is roughly one more linger window before its
/// batch even closes. Monotone non-decreasing in `depth`; with an empty
/// queue only one linger window is added. At `max_batch <= 1` no window
/// ever forms, so the base comes back unchanged.
pub fn batch_aware_retry_after(
    base_ms: u64,
    depth: usize,
    max_batch: usize,
    batch_linger_ms: u64,
) -> u64 {
    if max_batch <= 1 {
        return base_ms;
    }
    let windows = (depth / max_batch) as u64 + 1;
    base_ms.saturating_add(batch_linger_ms.saturating_mul(windows))
}

pub(crate) fn batch_worker_loop(
    idx: usize,
    shared: &Shared,
    cfg: &ServeConfig,
    cache: &PatchCache,
    btel: &BatchTel,
    stats: &BatchStats,
) -> WorkerReport {
    let model = ViTSegmenter::new(cfg.model, cfg.model_seed);
    let mut breaker = CircuitBreaker::new(cfg.breaker);
    let mut processed: u64 = 0;
    // Fault-plan index: one tick per dispatch (batch or solo slide).
    let mut dispatches: u64 = 0;
    let mut transitions_seen = 0usize;
    // A popped request incompatible with the forming batch; it seeds the
    // next one (the bounded queue has no push-front).
    let mut carry: Option<QueuedRequest> = None;
    let poll = Duration::from_millis(cfg.poll_ms.max(1));
    loop {
        let allowed = breaker.allow();
        for t in &breaker.transitions()[transitions_seen..] {
            shared.tm.record_breaker_transition(t.to);
        }
        transitions_seen = breaker.transitions().len();
        if !allowed {
            thread::sleep(poll);
            continue;
        }
        let seed = match carry.take() {
            Some(q) => q,
            None => match shared.queue.pop_timeout(poll) {
                Popped::Closed => break,
                Popped::Empty => continue,
                Popped::Item(q) => q,
            },
        };
        shared.tm.queue_wait_s.record(seed.submitted.elapsed().as_secs_f64());
        shared.tm.queue_depth.set(shared.queue.len() as f64);
        if seed.deadline.is_some_and(|d| Instant::now() >= d) {
            shared.respond(seed, Outcome::DeadlineExceeded { stage: DeadlineStage::Queued }, Some(idx));
            continue;
        }
        // Slides run solo: minutes of stitching must not hold a linger
        // window (or a formed batch) hostage.
        if matches!(seed.payload, Payload::Slide(_)) {
            let fault = cfg.faults.fault_for(idx, dispatches);
            if fault.is_some() {
                shared.tm.faults_injected.inc();
            }
            dispatches += 1;
            processed += 1;
            stats.solo_slides.fetch_add(1, Ordering::Relaxed);
            let _ctx_guard = seed.trace.map(TraceContext::install);
            let _req_span = shared.tm.tel.span_id("serve.request", seed.payload.id());
            let outcome = {
                let _t = shared.tm.inference_s.start_timer();
                catch_unwind(AssertUnwindSafe(|| match &seed.payload {
                    Payload::Slide(req) => run_slide(&model, req, seed.deadline, fault, cfg, &shared.tm),
                    Payload::Image(_) => unreachable!("guarded by the matches! above"),
                }))
                .unwrap_or_else(|_| {
                    contain_panic(idx, seed.payload.id(), cfg, &shared.tm);
                    Outcome::WorkerFailure { reason: FailureReason::Panicked }
                })
            };
            match &outcome {
                Outcome::SlideCompleted { .. } => breaker.record_success(),
                Outcome::WorkerFailure { .. } => breaker.record_failure(),
                _ => {}
            }
            for t in &breaker.transitions()[transitions_seen..] {
                shared.tm.record_breaker_transition(t.to);
            }
            transitions_seen = breaker.transitions().len();
            shared.respond(seed, outcome, Some(idx));
            continue;
        }
        // Gather: close at max_batch or linger expiry, whichever first.
        let formed_at = Instant::now();
        let close_at = formed_at + Duration::from_millis(cfg.batch.batch_linger_ms);
        let mut batch = vec![seed];
        while batch.len() < cfg.batch.max_batch {
            let now = Instant::now();
            if now >= close_at {
                break;
            }
            match shared.queue.pop_timeout(close_at - now) {
                // Closed-and-drained still has this batch to serve; the
                // next outer pop observes Closed again and exits.
                Popped::Closed | Popped::Empty => break,
                Popped::Item(q) => {
                    shared.tm.queue_wait_s.record(q.submitted.elapsed().as_secs_f64());
                    if q.deadline.is_some_and(|d| Instant::now() >= d) {
                        // Expired before joining any batch: a queue-stage
                        // miss, same as an expired seed.
                        shared.respond(
                            q,
                            Outcome::DeadlineExceeded { stage: DeadlineStage::Queued },
                            Some(idx),
                        );
                        continue;
                    }
                    let compatible =
                        matches!(q.payload, Payload::Image(_)) && q.tier == batch[0].tier;
                    if compatible {
                        batch.push(q);
                    } else {
                        carry = Some(q);
                        break;
                    }
                }
            }
        }
        shared.tm.queue_depth.set(shared.queue.len() as f64);
        btel.linger_s.record(formed_at.elapsed().as_secs_f64());
        // Deadline eviction at close: a member that expired while the batch
        // formed is answered typed and dropped, never forwarded.
        let now = Instant::now();
        let mut ready = Vec::with_capacity(batch.len());
        for q in batch {
            if q.deadline.is_some_and(|d| now >= d) {
                stats.deadline_evictions.fetch_add(1, Ordering::Relaxed);
                btel.deadline_evictions.inc();
                shared.tm.tel.flight("batch_deadline_eviction", || {
                    format!("worker={idx} id={}", q.payload.id())
                });
                shared.respond(
                    q,
                    Outcome::DeadlineExceeded { stage: DeadlineStage::Batching },
                    Some(idx),
                );
            } else {
                ready.push(q);
            }
        }
        if ready.is_empty() {
            continue;
        }
        let fault = cfg.faults.fault_for(idx, dispatches);
        if fault.is_some() {
            shared.tm.faults_injected.inc();
        }
        dispatches += 1;
        processed += ready.len() as u64;
        btel.batches.inc();
        btel.occupancy.record(ready.len() as f64);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.batched_requests.fetch_add(ready.len() as u64, Ordering::Relaxed);
        stats.max_occupancy.fetch_max(ready.len() as u64, Ordering::Relaxed);
        let outcomes = {
            // The batch-level spans join the seed's trace; per-request
            // patchify spans are installed per member inside run_batch.
            let _ctx_guard = ready[0].trace.map(TraceContext::install);
            let _span = shared.tm.tel.span_id("serve.batch", ready[0].payload.id());
            let _t = shared.tm.inference_s.start_timer();
            catch_unwind(AssertUnwindSafe(|| {
                run_batch(&model, &ready, fault, cfg, &shared.tm, cache)
            }))
            .unwrap_or_else(|_| {
                contain_panic(idx, ready[0].payload.id(), cfg, &shared.tm);
                vec![Outcome::WorkerFailure { reason: FailureReason::Panicked }; ready.len()]
            })
        };
        let any_failure = outcomes.iter().any(|o| matches!(o, Outcome::WorkerFailure { .. }));
        let any_success = outcomes.iter().any(|o| matches!(o, Outcome::Completed { .. }));
        if any_failure {
            breaker.record_failure();
        } else if any_success {
            breaker.record_success();
        }
        for t in &breaker.transitions()[transitions_seen..] {
            shared.tm.record_breaker_transition(t.to);
        }
        transitions_seen = breaker.transitions().len();
        for (q, outcome) in ready.into_iter().zip(outcomes) {
            shared.respond(q, outcome, Some(idx));
        }
    }
    for t in &breaker.transitions()[transitions_seen..] {
        shared.tm.record_breaker_transition(t.to);
    }
    WorkerReport {
        worker: idx,
        processed,
        trips: breaker.trips(),
        recoveries: breaker.recoveries(),
        final_state: breaker.state(),
        transitions: breaker.transitions().to_vec(),
    }
}

/// Panic bookkeeping: flight-record the containment and freeze the black
/// box to disk.
fn contain_panic(idx: usize, id: u64, cfg: &ServeConfig, tm: &ServeTel) {
    tm.tel.flight("worker_panic", || format!("worker={idx} id={id}"));
    if let Some(dir) = &cfg.flight_dump_dir {
        let _ = tm.tel.dump_flight(dir, &format!("panic_w{idx}_{id}"));
    }
}

/// Builds one request's budgeted patch sequence — the unit the cache
/// memoizes. The random Z-order drop is seeded by *content* (not request
/// id), so identical pixels under identical knobs always produce the same
/// sequence and the cached entry is valid for every requester.
fn build_sequence(
    img: &GrayImage,
    tier: Tier,
    budget: usize,
    pm: usize,
    coarse_leaf: u32,
    tel: &Telemetry,
    drop_seed: u64,
) -> Result<PatchSequence, String> {
    let seq = match tier {
        Tier::Coarse => coarse_uniform_sequence(img, coarse_leaf, pm),
        Tier::Full | Tier::Reduced => {
            let pc = PatcherConfig::for_resolution(img.width()).with_patch_size(pm);
            AdaptivePatcher::with_telemetry(pc, tel.clone())
                .try_patchify(img)
                .map_err(|e| e.to_string())?
        }
    };
    // Enforce the budget by dropping, never padding: a shorter sequence plus
    // prefix positions is strictly cheaper than padding back to `L`.
    Ok(if seq.len() > budget { seq.fixed_length(budget, drop_seed) } else { seq })
}

/// One padded multi-request forward over a tier-homogeneous batch of image
/// requests. Runs inside the worker's unwind barrier. Returns one outcome
/// per request, aligned with `batch`. Each member's preprocessing runs
/// under its own trace context and `serve.request` > `serve.inference` >
/// `serve.patchify` spans; the shared forward is `serve.forward`, tagged
/// with the first member's id.
fn run_batch(
    model: &ViTSegmenter,
    batch: &[QueuedRequest],
    fault: Option<InferenceFaultKind>,
    cfg: &ServeConfig,
    tm: &ServeTel,
    cache: &PatchCache,
) -> Vec<Outcome> {
    if let Some(InferenceFaultKind::SlowInference { delay_ms }) = fault {
        thread::sleep(Duration::from_millis(delay_ms));
    }
    if let Some(InferenceFaultKind::WorkerPanic) = fault {
        panic!("injected worker panic (fault plan)");
    }
    let pm = cfg.patch_size;
    let tier = batch[0].tier;
    // Preprocessing, memoized by content: a repeated slide skips blur,
    // Canny, quadtree, and projection; identical in-flight requests build
    // once (single-flight) even across batch workers.
    let seqs: Vec<Result<Arc<PatchSequence>, String>> = batch
        .iter()
        .map(|q| {
            let req = match &q.payload {
                Payload::Image(r) => r,
                Payload::Slide(_) => unreachable!("slides are never batched"),
            };
            let budget = cfg
                .policy
                .budget_for(tier, req.image.width())
                .min(cfg.model.seq_len)
                .max(1);
            let key = CacheKey {
                content: ContentKey::of_image(&req.image),
                variant: VariantKey {
                    tier_rank: tier.rank(),
                    patch_size: pm as u16,
                    budget: budget as u32,
                    coarse_leaf: cfg.policy.coarse_leaf,
                },
            };
            let _ctx_guard = q.trace.map(TraceContext::install);
            let _req_span = tm.tel.span_id("serve.request", req.id);
            let _inf_span = tm.tel.span_id("serve.inference", req.id);
            let _span = tm.tel.span_id("serve.patchify", req.id);
            cache
                .get_or_build(key, || {
                    build_sequence(
                        &req.image,
                        tier,
                        budget,
                        pm,
                        cfg.policy.coarse_leaf,
                        &tm.tel,
                        key.drop_seed(),
                    )
                })
                .map(|(seq, _)| seq)
        })
        .collect();
    let mut outcomes: Vec<Option<Outcome>> = seqs
        .iter()
        .map(|s| s.as_ref().err().map(|reason| Outcome::InvalidInput { reason: reason.clone() }))
        .collect();
    let live: Vec<(usize, &Arc<PatchSequence>)> = seqs
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_ref().ok().map(|seq| (i, seq)))
        .collect();
    if !live.is_empty() {
        let b = live.len();
        let l_max = live.iter().map(|(_, s)| s.len()).max().expect("non-empty live set");
        let d_in = pm * pm;
        let mut data = vec![0.0f32; b * l_max * d_in];
        let mut masks: Vec<Vec<bool>> = Vec::with_capacity(b);
        let mut any_padding = false;
        for (bi, (_, seq)) in live.iter().enumerate() {
            let rows = seq.to_tensor().to_vec();
            data[bi * l_max * d_in..bi * l_max * d_in + rows.len()].copy_from_slice(&rows);
            let mut mask = seq.padding_mask();
            if mask.len() < l_max {
                mask.resize(l_max, false);
            }
            if mask.iter().any(|&real| !real) {
                any_padding = true;
            }
            masks.push(mask);
        }
        if let Some(InferenceFaultKind::NonFiniteOutput) = fault {
            // Poison one activation of the *first* request. Attention is
            // block-diagonal per sample, so the NaN must stay confined to
            // that request's slice — the other members still complete.
            data[0] = f32::NAN;
        }
        // An all-real mask is the identity; skip it so uniform batches (and
        // every batch of one) run the exact unmasked graph of a lone
        // request, bit for bit.
        let key_mask = if any_padding { Some(masks.as_slice()) } else { None };
        let _fwd_span = tm.tel.span_id("serve.forward", batch[live[0].0].payload.id());
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let x = g.constant(Tensor::new([b, l_max, d_in], data));
        let mut expired =
            |m: usize| batch[live[m].0].deadline.is_some_and(|d| Instant::now() >= d);
        let pass = model.forward_pruning(&mut g, &bp, x, key_mask, &mut expired);
        // The segmenter emits one logit per patch pixel: `d_in` per token.
        let vals = pass.out.map(|y| g.value(y).to_vec()).unwrap_or_default();
        for ((i, seq), member) in live.iter().zip(pass.members) {
            outcomes[*i] = Some(match member {
                Err(cut) => Outcome::DeadlineExceeded {
                    stage: DeadlineStage::Inference { completed_blocks: cut.completed_blocks },
                },
                Ok(row) => {
                    let l = seq.len();
                    let slice = &vals[row * l_max * d_in..row * l_max * d_in + l * d_in];
                    if slice.iter().any(|v| !v.is_finite()) {
                        Outcome::WorkerFailure { reason: FailureReason::NonFiniteOutput }
                    } else {
                        let positive = slice.iter().filter(|v| **v > 0.0).count();
                        Outcome::Completed {
                            tokens: l,
                            positive_fraction: positive as f32 / slice.len().max(1) as f32,
                        }
                    }
                }
            });
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every batch member got an outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hint_grows_with_queue_depth_and_linger() {
        // One linger window minimum, one more per max_batch of queued work.
        assert_eq!(batch_aware_retry_after(25, 0, 16, 2), 27);
        assert_eq!(batch_aware_retry_after(25, 15, 16, 2), 27);
        assert_eq!(batch_aware_retry_after(25, 16, 16, 2), 29);
        assert_eq!(batch_aware_retry_after(25, 64, 16, 2), 35);
        // Monotone in depth.
        let mut last = 0;
        for depth in 0..200 {
            let h = batch_aware_retry_after(25, depth, 8, 3);
            assert!(h >= last, "hint regressed at depth {depth}");
            last = h;
        }
        // At max_batch = 1 no linger window ever forms: the hint is the
        // load-aware base alone, whatever the linger knob and depth.
        for (depth, capacity) in [(0usize, 16usize), (5, 16), (16, 16), (200, 256)] {
            let base = crate::engine::load_aware_retry_after(25, depth, capacity);
            assert_eq!(batch_aware_retry_after(base, depth, 1, 0), base);
            assert_eq!(batch_aware_retry_after(base, depth, 1, 2), base);
        }
        // Degenerate knobs neither divide by zero nor overflow.
        assert_eq!(batch_aware_retry_after(10, 5, 0, 1), 10);
        assert_eq!(batch_aware_retry_after(u64::MAX, 100, 4, u64::MAX), u64::MAX);
    }

    #[test]
    fn batch_stats_snapshot_computes_mean_occupancy() {
        let stats = BatchStats::default();
        assert_eq!(stats.snapshot().mean_occupancy, 0.0);
        stats.batches.store(4, Ordering::Relaxed);
        stats.batched_requests.store(14, Ordering::Relaxed);
        stats.max_occupancy.store(6, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert!((snap.mean_occupancy - 3.5).abs() < 1e-12);
        assert_eq!(snap.max_occupancy, 6);
    }
}
