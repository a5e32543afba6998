//! `train-apf`: `SegTrainer::step` on APF-UNETR at 128², set up as the
//! paper-table harness sets it up (`apf_bench::harness::apf_unetr_setup`).
//!
//! Training throughput is the paper's headline use. This is the only
//! workload that runs backward, AdamW, and the convolutional decoder, so a
//! serving-side change must show no change here.

use std::time::Instant;

use apf_bench::harness::{apf_unetr_setup, QUALITY_SPLIT_VALUE};
use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::GrayImage;
use apf_models::unetr::Unetr2d;
use apf_telemetry::Telemetry;
use apf_tensor::Tensor;
use apf_train::data::TokenSegDataset;
use apf_train::optim::AdamWConfig;
use apf_train::trainer::SegTrainer;

use crate::inputs::{derive_seed, paip_pairs};
use crate::report::{Phase, RunResult};
use crate::stats::{median, peak_rss_mb, summarize};
use crate::trace::{PathLedger, SpanIndex};

use super::{
    engine_config, overhead_share, repeated_setup, self_time_table, stage_table, tracing_telemetry,
    Ctx,
};

/// Image side.
const RES: usize = 128;
/// Minimal patch size.
const PATCH: usize = 4;
/// Samples per step.
const BATCH: usize = 2;
/// Image/mask pairs drawn; the first [`TRAIN`] train, the rest validate.
const PAIRS: usize = 32;
const TRAIN: usize = 28;
/// Learning rate and model seed of the paper-table harness.
const LR: f32 = 3e-3;
const MODEL_SEED: u64 = 11;

struct Setup {
    trainer: SegTrainer<Unetr2d>,
    train: TokenSegDataset,
    val: TokenSegDataset,
    images: Vec<GrayImage>,
    seq_len: usize,
}

fn set_up(ctx: &Ctx, tel: Telemetry) -> Setup {
    let pairs = paip_pairs(derive_seed(ctx.seed, 3), RES, PAIRS);
    let setup = apf_unetr_setup(&pairs, RES, PATCH, TRAIN, LR, MODEL_SEED);
    // Same model and optimizer settings as the harness, with the
    // telemetry passed through the trainer's public constructor.
    let trainer = SegTrainer::with_telemetry(
        setup.trainer.model,
        AdamWConfig {
            lr: LR,
            ..Default::default()
        },
        tel,
    );
    Setup {
        trainer,
        train: setup.train,
        val: setup.val,
        images: pairs.into_iter().map(|(img, _)| img).collect(),
        seq_len: setup.seq_len,
    }
}

/// One timed step.
struct Step {
    ms: f64,
    loss: f64,
}

/// Steps through shuffled epochs for `seconds`; batch assembly is outside
/// the timed `step` call.
fn train(setup: &mut Setup, seconds: f64, epoch_seed: u64, tel: &Telemetry) -> (Vec<Step>, f64) {
    let start = Instant::now();
    let mut steps = Vec::new();
    let mut epoch = 0u64;
    'outer: loop {
        for idx in setup
            .train
            .epoch_batches(BATCH, derive_seed(epoch_seed, epoch))
        {
            if start.elapsed().as_secs_f64() >= seconds {
                break 'outer;
            }
            let (x, y) = setup.train.batch(&idx);
            let t = Instant::now();
            let loss = {
                let _span = tel.span("bench.step");
                setup.trainer.step(&x, &y)
            };
            steps.push(Step {
                ms: t.elapsed().as_secs_f64() * 1e3,
                loss,
            });
        }
        epoch += 1;
    }
    (steps, start.elapsed().as_secs_f64())
}

/// Losses finite, and lower at the end of the run than at its start.
fn check(steps: &[Step], phase: &mut Phase, r: &mut RunResult) {
    for s in steps {
        phase.record(if s.loss.is_finite() {
            Ok(())
        } else {
            Err("non_finite_loss")
        });
    }
    let q = (steps.len() / 4).max(1);
    if steps.len() < 8 {
        r.problem(format!(
            "only {} steps ran; cannot judge the loss trend",
            steps.len()
        ));
        return;
    }
    let mean = |s: &[Step]| s.iter().map(|s| s.loss).sum::<f64>() / s.len() as f64;
    let (first, last) = (mean(&steps[..q]), mean(&steps[steps.len() - q..]));
    if last.partial_cmp(&first) != Some(std::cmp::Ordering::Less) {
        r.problem(format!(
            "loss did not fall: first quarter {first:.4}, last quarter {last:.4}"
        ));
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    if ctx.traced {
        return run_traced(ctx);
    }
    let mut result = RunResult::default();
    let (mut setup, setup_s) = repeated_setup(|| Ok(set_up(ctx, Telemetry::disabled())))?;
    let (steps, wall) = train(&mut setup, ctx.seconds, ctx.seed, &Telemetry::disabled());
    let mut phase = Phase::new("training steps");
    check(&steps, &mut phase, &mut result);
    result.counted.push(phase);
    let ms: Vec<f64> = steps.iter().map(|s| s.ms).collect();
    let s = summarize(&ms);
    result.set("latency_p50_ms", s.p50, Some(s.clone()));
    result.set(
        "throughput_per_s",
        (steps.len() * BATCH) as f64 / wall,
        None,
    );
    result.set("setup_s", setup_s.p50, Some(setup_s));
    result.set("peak_rss_mb", peak_rss_mb(), None);
    result.tables.push(format!(
        "train-apf: APF-UNETR {RES}², patch {PATCH}, L={}, batch {BATCH}\n  train_step_p50_ms {:.3} ms, \
         train_step_p90_ms {:.3} ms, train_step_p{}_ms {:.3} ms ({} steps), {:.2} samples/s, loss {:.4} -> {:.4}\n",
        setup.seq_len,
        s.p50,
        s.p90,
        s.tail_pct,
        s.tail,
        s.n,
        (steps.len() * BATCH) as f64 / wall,
        steps.first().map_or(f64::NAN, |s| s.loss),
        steps.last().map_or(f64::NAN, |s| s.loss),
    ));
    Ok(result)
}

fn run_traced(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let phase_s = ctx.seconds * 0.4;
    let mut plain = set_up(ctx, Telemetry::disabled());
    let (plain_steps, _) = train(&mut plain, phase_s, ctx.seed, &Telemetry::disabled());
    let plain_p50 = median(&plain_steps.iter().map(|s| s.ms).collect::<Vec<_>>());
    let mut phase = Phase::new("training steps, untraced");
    check(&plain_steps, &mut phase, &mut result);
    result.counted.push(phase);

    let tel = tracing_telemetry();
    let mut traced = set_up(ctx, tel.clone());
    let (steps, _) = train(&mut traced, phase_s, ctx.seed, &tel);
    let traced_p50 = median(&steps.iter().map(|s| s.ms).collect::<Vec<_>>());
    let mut phase = Phase::new("training steps, traced");
    check(&steps, &mut phase, &mut result);
    result.counted.push(phase);

    let idx = SpanIndex::new(&tel.trace_events());
    let mut paths = Vec::new();
    for outer in idx.named("bench.step") {
        let mut p = PathLedger::default();
        idx.attribute(outer.tid, outer.start, outer.end, &mut p.stages);
        p.total = p.stages.total();
        paths.push(p);
    }
    let (table, unexplained) = stage_table("train-apf (train_step_p50_ms)", &paths, plain_p50);
    result.tables.push(table);
    result.tables.push(self_time_table("train-apf", &idx));
    result.set("trace.unexplained_share", unexplained, None);
    for (span, metric) in [
        ("train.forward", "train.forward_ms"),
        ("train.backward", "train.backward_ms"),
        ("train.optimizer", "train.optimizer_ms"),
    ] {
        let d: Vec<f64> = idx.named(span).map(|s| s.dur() as f64 / 1e3).collect();
        if !d.is_empty() {
            result.set(metric, median(&d), None);
        }
    }
    result.set(
        "telemetry.overhead_share",
        overhead_share(traced_p50, plain_p50),
        None,
    );

    // Replays: eval_loss on this workload's batches (forward without
    // backward or optimizer), and the shared layer probes on its images
    // under its own patcher and budget.
    let batches: Vec<(Tensor, Tensor)> = traced
        .val
        .epoch_batches(BATCH, 0)
        .iter()
        .filter(|b| b.len() == BATCH)
        .map(|b| traced.val.batch(b))
        .collect();
    let mut eval = Vec::new();
    for _ in 0..3 {
        for (x, y) in &batches {
            let t = Instant::now();
            std::hint::black_box(traced.trainer.eval_loss(x, y));
            eval.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    if !eval.is_empty() {
        result.set("train.eval_loss_ms", median(&eval), None);
    }
    let patcher = AdaptivePatcher::new(
        PatcherConfig::for_resolution(RES)
            .with_patch_size(PATCH)
            .with_split_value(QUALITY_SPLIT_VALUE)
            .with_target_len(traced.seq_len),
    );
    let cfg = engine_config(Telemetry::disabled());
    super::layer_replays(
        &mut result,
        &traced.images,
        &patcher,
        traced.seq_len,
        &cfg,
        1.0,
    );
    if tel.trace_evicted() > 0 {
        result.problem(format!(
            "{} spans were evicted from the trace ring",
            tel.trace_evicted()
        ));
    }
    Ok(result)
}
