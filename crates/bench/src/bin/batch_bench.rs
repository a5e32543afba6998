//! Acceptance bench for the continuous-batching scheduler and the
//! content-addressed preprocessing cache. Three gates, all asserted
//! in-process and archived to `results/batch_bench.json`:
//!
//! 1. **Equivalence** — padded multi-request forwards with key-padding
//!    masks match per-request solo forwards within 1e-5 across ragged
//!    tier compositions, and a batch of one is bit-exact.
//! 2. **Throughput** — at concurrency >= 16, the batched engine with the
//!    cache sustains >= 2x the one-request-per-forward (`max_batch = 1`,
//!    no cache) baseline on a repeated-slide workload.
//! 3. **Cache** — that workload lands >= 90% preprocessing cache hits.
//!
//! Two ungated ablation rows split the gated speedup between its parts:
//! cache only (`max_batch = 1` + the cache) and batching only
//! (`max_batch = 16`, no cache), on the same workload.
//!
//! Usage: `cargo run --release -p apf-bench --bin batch_bench [--quick]`

use std::sync::Arc;
use std::time::Instant;

use apf_bench::{print_table, save_json, Args};
use apf_imaging::GrayImage;
use apf_models::cancel::CancelToken;
use apf_models::vit::{ViTConfig, ViTSegmenter};
use apf_serve::{BatchConfig, Outcome, SegRequest, ServeConfig, ServeEngine, ServeReport};
use apf_tensor::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

const PATCH_DIM: usize = 16;
const SEQ_LEN: usize = 64;
const TOLERANCE: f32 = 1e-5;

#[derive(Serialize)]
struct EquivalenceReport {
    trials: usize,
    compositions_checked: usize,
    max_abs_diff: f32,
    tolerance: f32,
    bit_exact_b1_checks: usize,
    equivalence_ok: bool,
    bit_exact_ok: bool,
}

#[derive(Serialize)]
struct ThroughputReport {
    total_requests: u64,
    concurrency: usize,
    workers: usize,
    max_batch: usize,
    batch_linger_ms: u64,
    baseline_elapsed_s: f64,
    batched_elapsed_s: f64,
    baseline_rps: f64,
    batched_rps: f64,
    speedup: f64,
    speedup_ok: bool,
}

/// One ungated configuration of the same workload.
#[derive(Serialize)]
struct AblationRow {
    max_batch: usize,
    batch_linger_ms: u64,
    cache_budget_bytes: usize,
    elapsed_s: f64,
    rps: f64,
    speedup_vs_baseline: f64,
    cache_hit_rate: f64,
    mean_occupancy: f64,
}

#[derive(Serialize)]
struct Ablation {
    cache_only: AblationRow,
    batch_only: AblationRow,
}

#[derive(Serialize)]
struct BenchReport {
    seed: u64,
    equivalence: EquivalenceReport,
    throughput: ThroughputReport,
    ablation: Ablation,
    cache_hit_rate: f64,
    cache_hit_rate_ok: bool,
    batch: apf_serve::BatchStatsSnapshot,
    cache: apf_serve::CacheStats,
}

fn solo_forward(m: &ViTSegmenter, tokens: Tensor) -> Vec<f32> {
    let mut g = Graph::new();
    let bp = m.params.bind(&mut g);
    let x = g.constant(tokens);
    let y = m.forward_cancellable(&mut g, &bp, x, &CancelToken::new()).expect("no deadline");
    g.value(y).to_vec()
}

fn batched_forward(
    m: &ViTSegmenter,
    tokens: Tensor,
    key_mask: Option<&[Vec<bool>]>,
) -> (Vec<f32>, usize) {
    let mut g = Graph::new();
    let bp = m.params.bind(&mut g);
    let x = g.constant(tokens);
    let y = m.forward_batched(&mut g, &bp, x, key_mask);
    let out = g.value(y);
    let c = out.dims()[2];
    (out.to_vec(), c)
}

/// Gate 1: ragged batched forwards vs solo forwards. Lengths are drawn
/// from the budgets the degradation tiers actually serve (full 64,
/// reduced 32, coarse stubs), so every composition a tier-homogeneous
/// batch can produce is covered.
fn equivalence_gate(seed: u64, trials: usize) -> EquivalenceReport {
    let tier_lengths: &[usize] = &[SEQ_LEN, 32, 17, 4, 1];
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xE9);
    let mut max_abs_diff = 0f32;
    let mut compositions = 0usize;
    let mut bit_exact_checks = 0usize;
    let mut bit_exact_ok = true;
    for trial in 0..trials {
        let m = ViTSegmenter::new(ViTConfig::tiny(PATCH_DIM, SEQ_LEN), seed + trial as u64);
        let b = rng.gen_range(2usize..=8);
        let lengths: Vec<usize> =
            (0..b).map(|_| tier_lengths[rng.gen_range(0..tier_lengths.len())]).collect();
        let l_max = *lengths.iter().max().unwrap();
        let solos: Vec<Tensor> = lengths
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                Tensor::rand_uniform([1, l, PATCH_DIM], -1.0, 1.0, seed + (trial * 31 + i) as u64)
            })
            .collect();
        let mut data = vec![0f32; b * l_max * PATCH_DIM];
        let mut masks = Vec::with_capacity(b);
        for (i, (t, &l)) in solos.iter().zip(&lengths).enumerate() {
            data[i * l_max * PATCH_DIM..i * l_max * PATCH_DIM + l * PATCH_DIM]
                .copy_from_slice(&t.to_vec());
            let mut mask = vec![true; l];
            mask.resize(l_max, false);
            masks.push(mask);
        }
        let ragged = lengths.iter().any(|&l| l < l_max);
        let key_mask = if ragged { Some(masks.as_slice()) } else { None };
        let (batched, c) = batched_forward(&m, Tensor::new([b, l_max, PATCH_DIM], data), key_mask);
        for (i, (t, &l)) in solos.iter().zip(&lengths).enumerate() {
            let solo = solo_forward(&m, t.clone());
            let slice = &batched[i * l_max * c..i * l_max * c + l * c];
            for (bv, sv) in slice.iter().zip(&solo) {
                max_abs_diff = max_abs_diff.max((bv - sv).abs());
            }
        }
        compositions += 1;
        // Bit-exactness of a batch of one: the solo graph with B=1.
        let single = &solos[0];
        let solo = solo_forward(&m, single.clone());
        let (as_batch, _) = batched_forward(&m, single.clone(), None);
        bit_exact_checks += 1;
        if solo.len() != as_batch.len()
            || solo.iter().zip(&as_batch).any(|(a, z)| a.to_bits() != z.to_bits())
        {
            bit_exact_ok = false;
        }
    }
    EquivalenceReport {
        trials,
        compositions_checked: compositions,
        max_abs_diff,
        tolerance: TOLERANCE,
        bit_exact_b1_checks: bit_exact_checks,
        equivalence_ok: max_abs_diff <= TOLERANCE,
        bit_exact_ok,
    }
}

/// Drives `total` requests from the 8-image pool through `engine` with
/// `concurrency` synchronous submitters; returns elapsed seconds.
fn drive(engine: &Arc<ServeEngine>, pool: &Arc<Vec<GrayImage>>, total: u64, concurrency: usize) -> f64 {
    let per_thread = total / concurrency as u64;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|c| {
            let engine = Arc::clone(engine);
            let pool = Arc::clone(pool);
            std::thread::spawn(move || {
                for k in 0..per_thread {
                    let image = pool[(c as u64 + k) as usize % pool.len()].clone();
                    let id = c as u64 * per_thread + k;
                    let ticket = engine.submit(SegRequest { id, image, deadline_ms: None });
                    let resp = ticket.wait().expect("engine responds");
                    assert!(
                        matches!(resp.outcome, Outcome::Completed { .. }),
                        "request {id} did not complete: {:?}",
                        resp.outcome
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread");
    }
    t0.elapsed().as_secs_f64()
}

/// Runs the workload on a fresh engine with `batch` knobs; returns elapsed
/// seconds and the engine's final report.
fn run(
    batch: BatchConfig,
    workers: usize,
    pool: &Arc<Vec<GrayImage>>,
    total: u64,
    concurrency: usize,
) -> (f64, ServeReport) {
    let cfg = ServeConfig { workers, queue_capacity: 256, batch, ..ServeConfig::small() };
    let engine = Arc::new(ServeEngine::start(cfg));
    let elapsed = drive(&engine, pool, total, concurrency);
    let report = Arc::try_unwrap(engine).ok().expect("engine still shared").shutdown();
    (elapsed, report)
}

fn ablation_row(
    batch: BatchConfig,
    elapsed_s: f64,
    report: &ServeReport,
    total: u64,
    baseline_rps: f64,
) -> AblationRow {
    let rps = total as f64 / elapsed_s;
    AblationRow {
        max_batch: batch.max_batch,
        batch_linger_ms: batch.batch_linger_ms,
        cache_budget_bytes: batch.cache_budget_bytes,
        elapsed_s,
        rps,
        speedup_vs_baseline: rps / baseline_rps,
        cache_hit_rate: report.cache.as_ref().map_or(0.0, |c| c.hit_rate()),
        mean_occupancy: report.batch.as_ref().map_or(0.0, |b| b.mean_occupancy),
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let seed = args.get("seed", 7u64);
    let trials = args.get("trials", if quick { 4usize } else { 12 });
    let concurrency = args.get("concurrency", 16usize);
    let total = args.get("requests", if quick { 1_024u64 } else { 4_096 });
    let workers = 2usize;
    let max_batch = 16usize;
    let batch_linger_ms = 2u64;
    assert!(concurrency >= 16, "the gate is defined at concurrency >= 16");

    println!("batch_bench: equivalence gate ({trials} trials)...");
    let equivalence = equivalence_gate(seed, trials);
    assert!(
        equivalence.equivalence_ok,
        "batched forward diverged: max |diff| {} > {}",
        equivalence.max_abs_diff, equivalence.tolerance
    );
    assert!(equivalence.bit_exact_ok, "batch of one was not bit-exact");
    println!(
        "batch_bench: max |batched - solo| = {:.2e} over {} ragged compositions",
        equivalence.max_abs_diff, equivalence.compositions_checked
    );

    // The repeated-slide pool: 8 distinct 256x256 slides requested over
    // and over. Preprocessing (quadtree + edge analysis over all pixels)
    // is memoizable; inference (budget-capped forward) is real work every
    // time.
    let pool: Arc<Vec<GrayImage>> = Arc::new(
        (0..8u64)
            .map(|s| {
                GrayImage::from_fn(256, 256, move |x, y| {
                    (((x * (3 + s as usize)) ^ (y * (5 + s as usize))) % 97) as f32 / 96.0
                })
            })
            .collect(),
    );

    // Baseline: identical engine at `max_batch = 1` with no cache — each
    // worker runs one request at a time, rebuilding the quadtree and a
    // fresh graph per request.
    println!("batch_bench: baseline ({total} requests, {concurrency} submitters)...");
    let (baseline_elapsed_s, _) = run(BatchConfig::solo(), workers, &pool, total, concurrency);

    println!("batch_bench: batched ({total} requests, {concurrency} submitters)...");
    let (batched_elapsed_s, report) =
        run(BatchConfig::batched(max_batch, batch_linger_ms), workers, &pool, total, concurrency);
    let batch = report.batch.clone().expect("the engine reports batch stats");
    let cache = report.cache.clone().expect("the engine reports cache stats");

    let baseline_rps = total as f64 / baseline_elapsed_s;
    let batched_rps = total as f64 / batched_elapsed_s;
    let speedup = batched_rps / baseline_rps;
    let speedup_ok = speedup >= 2.0;
    let cache_hit_rate = cache.hit_rate();
    let cache_hit_rate_ok = cache_hit_rate >= 0.90;

    assert!(
        speedup_ok,
        "batched throughput {batched_rps:.0} rps is only {speedup:.2}x the \
         baseline {baseline_rps:.0} rps (gate: >= 2x)"
    );
    assert!(
        cache_hit_rate_ok,
        "repeated-slide workload must land >= 90% cache hits, got {cache_hit_rate:.4}"
    );
    assert!(batch.mean_occupancy > 1.0, "batches never formed: {batch:?}");

    // Ablation (reported, not gated): which part of the gated pair's
    // speedup the cache buys and which the batching buys.
    let cache_only_cfg = BatchConfig::batched(1, 0);
    let batch_only_cfg =
        BatchConfig { cache_budget_bytes: 0, ..BatchConfig::batched(max_batch, batch_linger_ms) };
    println!("batch_bench: ablation, cache only and batching only...");
    let (t, r) = run(cache_only_cfg.clone(), workers, &pool, total, concurrency);
    let cache_only = ablation_row(cache_only_cfg, t, &r, total, baseline_rps);
    let (t, r) = run(batch_only_cfg.clone(), workers, &pool, total, concurrency);
    let batch_only = ablation_row(batch_only_cfg, t, &r, total, baseline_rps);

    let bench = BenchReport {
        seed,
        equivalence,
        throughput: ThroughputReport {
            total_requests: total,
            concurrency,
            workers,
            max_batch,
            batch_linger_ms,
            baseline_elapsed_s,
            batched_elapsed_s,
            baseline_rps,
            batched_rps,
            speedup,
            speedup_ok,
        },
        ablation: Ablation { cache_only, batch_only },
        cache_hit_rate,
        cache_hit_rate_ok,
        batch,
        cache,
    };
    print_table(
        "continuous batching",
        &["metric", "value"],
        &[
            vec!["max |diff|".into(), format!("{:.2e}", bench.equivalence.max_abs_diff)],
            vec!["bit-exact B=1".into(), bench.equivalence.bit_exact_ok.to_string()],
            vec!["baseline rps".into(), format!("{:.0}", bench.throughput.baseline_rps)],
            vec!["batched rps".into(), format!("{:.0}", bench.throughput.batched_rps)],
            vec!["speedup".into(), format!("{:.2}x", bench.throughput.speedup)],
            vec!["cache-only rps".into(), format!("{:.0}", bench.ablation.cache_only.rps)],
            vec!["batch-only rps".into(), format!("{:.0}", bench.ablation.batch_only.rps)],
            vec!["mean occupancy".into(), format!("{:.2}", bench.batch.mean_occupancy)],
            vec!["cache hit rate".into(), format!("{:.4}", bench.cache_hit_rate)],
        ],
    );
    save_json("batch_bench", &bench);
    println!("batch_bench: all gates held");
}
