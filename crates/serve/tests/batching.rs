//! Engine-level behavior of the serving loop: batches actually form,
//! repeated slides hit the preprocessing cache, deadline expiry inside the
//! linger window is a typed `Batching`-stage miss, deadline expiry inside
//! the forward is a typed `Inference`-stage miss for that member alone, an
//! injected NaN stays confined to its batch sample, and backpressure hints
//! grow once a linger window stands between admission and inference.

use std::time::Duration;

use apf_imaging::GrayImage;
use apf_serve::{
    batch_aware_retry_after, DeadlineStage, FailureReason, FaultPlan, InferenceFault,
    InferenceFaultKind, Outcome, SegRequest, ServeConfig, ServeEngine, Ticket,
};

fn test_image(seed: u64) -> GrayImage {
    GrayImage::from_fn(64, 64, move |x, y| (((x as u64 ^ y as u64) + seed) % 16) as f32 / 15.0)
}

/// A burst of requests against one worker with a generous linger window
/// must be served by *fewer forwards than requests*: the whole point of the
/// scheduler. Every response still completes individually.
#[test]
fn bursts_form_multi_request_batches() {
    let mut cfg = ServeConfig::small_batched(8, 80);
    cfg.workers = 1;
    let engine = ServeEngine::start(cfg);
    let tickets: Vec<_> = (0..8)
        .map(|i| engine.submit(SegRequest { id: i, image: test_image(i), deadline_ms: None }))
        .collect();
    for t in tickets {
        let resp = t.wait().expect("engine responds");
        assert!(matches!(resp.outcome, Outcome::Completed { .. }), "got {:?}", resp.outcome);
    }
    let report = engine.shutdown();
    let batch = report.batch.expect("batched engine reports batch stats");
    assert_eq!(batch.batched_requests, 8);
    assert!(
        batch.batches < 8,
        "8 near-simultaneous requests must share forwards, got {} batches",
        batch.batches
    );
    assert!(batch.max_occupancy >= 2, "max occupancy {}", batch.max_occupancy);
    assert!(batch.mean_occupancy > 1.0, "mean occupancy {}", batch.mean_occupancy);
    assert_eq!(report.metrics.completed, 8);
    assert!(report.cache.is_some());
}

/// A repeated-slide workload: the same pixels submitted over and over hit
/// the content-addressed cache after the first build (>= 90% hit rate, the
/// serving acceptance bar).
#[test]
fn repeated_slides_hit_the_preprocessing_cache() {
    let mut cfg = ServeConfig::small_batched(8, 10);
    // Deep queue keeps every request below the degradation threshold, so
    // all 20 share one (content, variant) cache key.
    cfg.queue_capacity = 64;
    let engine = ServeEngine::start(cfg);
    let image = test_image(42);
    let tickets: Vec<_> = (0..20)
        .map(|i| engine.submit(SegRequest { id: i, image: image.clone(), deadline_ms: None }))
        .collect();
    for t in tickets {
        let resp = t.wait().expect("engine responds");
        assert!(matches!(resp.outcome, Outcome::Completed { .. }), "got {:?}", resp.outcome);
    }
    let stats = engine.cache_stats().expect("batched engine exposes cache stats");
    assert_eq!(stats.misses, 1, "one build for one distinct slide, stats {stats:?}");
    assert!(
        stats.hit_rate() >= 0.90,
        "repeated slides must reach >= 90% hit rate, got {:.3}",
        stats.hit_rate()
    );
    let report = engine.shutdown();
    assert_eq!(report.cache.expect("cache stats in report").misses, 1);
}

/// A request whose deadline dies *inside* the linger window — alive when it
/// joined the forming batch, expired by close — is evicted with the typed
/// `Batching` stage, while its batch-mates are unaffected.
#[test]
fn linger_window_expiry_is_a_typed_batching_eviction() {
    let mut cfg = ServeConfig::small_batched(8, 400);
    cfg.workers = 1;
    let engine = ServeEngine::start(cfg);
    // Seed the batch with an undeadlined request, then give the worker time
    // to pop it and start the 400ms gather.
    let a = engine.submit(SegRequest { id: 1, image: test_image(1), deadline_ms: None });
    std::thread::sleep(Duration::from_millis(50));
    // Joins the forming batch well inside its 100ms deadline; the batch
    // closes ~350ms later, long after that deadline died.
    let b = engine.submit(SegRequest { id: 2, image: test_image(2), deadline_ms: Some(100) });
    let resp_b = b.wait().expect("engine responds");
    assert!(
        matches!(
            resp_b.outcome,
            Outcome::DeadlineExceeded { stage: DeadlineStage::Batching }
        ),
        "expected a Batching-stage deadline miss, got {:?}",
        resp_b.outcome
    );
    let resp_a = a.wait().expect("engine responds");
    assert!(matches!(resp_a.outcome, Outcome::Completed { .. }), "got {:?}", resp_a.outcome);
    let report = engine.shutdown();
    assert_eq!(report.metrics.deadline_batching, 1);
    assert_eq!(report.batch.expect("batch stats").deadline_evictions, 1);
}

/// Stalls worker 0's first dispatch for `delay_ms`, so deadlines shorter
/// than the stall expire after the batch closed but before its forward.
fn stall_first_dispatch(cfg: &mut ServeConfig, delay_ms: u64) {
    cfg.workers = 1;
    cfg.faults = FaultPlan::new(vec![InferenceFault {
        worker: 0,
        nth: 0,
        kind: InferenceFaultKind::SlowInference { delay_ms },
    }]);
}

/// At `max_batch = 1` a stall longer than the request's deadline is cut at
/// the first block check: `Inference { completed_blocks: 0 }`, and the
/// breaker does not blame the worker.
#[test]
fn solo_deadline_expiring_before_the_forward_is_an_inference_miss() {
    let mut cfg = ServeConfig::small();
    stall_first_dispatch(&mut cfg, 300);
    let engine = ServeEngine::start(cfg);
    let resp = engine
        .submit(SegRequest { id: 1, image: test_image(1), deadline_ms: Some(100) })
        .wait()
        .expect("engine responds");
    assert!(
        matches!(
            resp.outcome,
            Outcome::DeadlineExceeded { stage: DeadlineStage::Inference { completed_blocks: 0 } }
        ),
        "got {:?}",
        resp.outcome
    );
    let report = engine.shutdown();
    assert_eq!(report.metrics.deadline_inference, 1);
    assert!(report.workers.iter().all(|w| w.trips == 0));
}

/// In a batch of four, the one member whose deadline dies during the
/// forward is removed from it; the other three complete with exactly the
/// answers they get when served alone.
#[test]
fn deadline_inside_a_batched_forward_cuts_only_its_member() {
    let solo = ServeEngine::start(ServeConfig::small());
    let alone: Vec<Outcome> = (0..4)
        .map(|i| {
            let req = SegRequest { id: i, image: test_image(i), deadline_ms: None };
            solo.submit(req).wait().expect("engine responds").outcome
        })
        .collect();
    solo.shutdown();

    let mut cfg = ServeConfig::small_batched(4, 2_000);
    stall_first_dispatch(&mut cfg, 400);
    let engine = ServeEngine::start(cfg);
    let tickets: Vec<Ticket> = (0..4)
        .map(|i| {
            let deadline_ms = (i == 2).then_some(150);
            engine.submit(SegRequest { id: i, image: test_image(i), deadline_ms })
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let outcome = t.wait().expect("engine responds").outcome;
        if i == 2 {
            assert!(
                matches!(
                    outcome,
                    Outcome::DeadlineExceeded { stage: DeadlineStage::Inference { .. } }
                ),
                "the short-deadline member got {outcome:?}"
            );
        } else {
            assert_eq!(outcome, alone[i], "member {i} differs from its solo answer");
        }
    }
    let report = engine.shutdown();
    let batch = report.batch.expect("batch stats");
    assert_eq!((batch.batches, batch.max_occupancy), (1, 4), "one batch of four: {batch:?}");
    assert_eq!(report.metrics.deadline_inference, 1);
    assert_eq!(report.metrics.completed, 3);
}

/// A NaN injected into one batch member must not leak into the others:
/// attention is block-diagonal per sample and every other layer is
/// token-local, so exactly one response reports `NonFinite` and the rest
/// complete normally.
#[test]
fn injected_nan_stays_confined_to_its_batch_sample() {
    let mut cfg = ServeConfig::small_batched(4, 80);
    cfg.workers = 1;
    cfg.faults = FaultPlan::new(vec![InferenceFault {
        worker: 0,
        nth: 0,
        kind: InferenceFaultKind::NonFiniteOutput,
    }]);
    let engine = ServeEngine::start(cfg);
    let tickets: Vec<_> = (0..4)
        .map(|i| engine.submit(SegRequest { id: i, image: test_image(i), deadline_ms: None }))
        .collect();
    let mut non_finite = 0;
    let mut completed = 0;
    for t in tickets {
        match t.wait().expect("engine responds").outcome {
            Outcome::WorkerFailure { reason: FailureReason::NonFiniteOutput } => non_finite += 1,
            Outcome::Completed { .. } => completed += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(non_finite, 1, "the fault poisons exactly one sample");
    assert_eq!(completed, 3, "batch-mates of the poisoned sample still complete");
}

/// With batching enabled the retry hint grows by at least one linger
/// window: even an empty queue cannot serve faster than a batch can close.
#[test]
fn retry_hints_account_for_the_linger_window() {
    let plain = ServeEngine::start(ServeConfig::small());
    let batched = ServeEngine::start(ServeConfig::small_batched(4, 50));
    let base = plain.retry_after_hint();
    let hinted = batched.retry_after_hint();
    assert!(
        hinted >= base + 50,
        "batched hint {hinted} must exceed base {base} by the 50ms linger"
    );
    assert_eq!(hinted, batch_aware_retry_after(base, batched.queue_depth(), 4, 50));
    plain.shutdown();
    batched.shutdown();
}
