//! The four workloads and what they share.

pub mod hot_wire;
pub mod slide;
pub mod tiles_unique;
pub mod train;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use apf_core::patchify::PatchSequence;
use apf_imaging::GrayImage;
use apf_models::cancel::CancelToken;
use apf_models::vit::ViTSegmenter;
use apf_serve::{BatchConfig, ServeConfig, Tier};
use apf_telemetry::Telemetry;
use apf_tensor::prelude::*;

use crate::report::RunResult;
use crate::stats::{median, Summary};
use crate::trace::{layer_of, median_band, Ledger, PathLedger, Span, SpanIndex};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["tiles-unique", "tiles-hot-wire", "slide-4k", "train-apf"];

/// Times each workload sets itself up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Spans a traced phase may retain (far above what any phase records, so
/// nothing is evicted).
const TRACE_CAPACITY: usize = 1 << 20;

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Scratch directory inside the checkout, removed after the run.
    pub work: PathBuf,
}

/// The serving engine as the program configures it by default: the small
/// engine with the batching and cache knobs `BatchConfig::from_env` reads
/// (every `APF_*` variable unset), and the given telemetry.
fn engine_config(telemetry: Telemetry) -> ServeConfig {
    ServeConfig {
        batch: BatchConfig::from_env(),
        telemetry,
        ..ServeConfig::small()
    }
}

/// Telemetry for a traced phase.
fn tracing_telemetry() -> Telemetry {
    Telemetry::with_trace_capacity(TRACE_CAPACITY)
}

/// Runs `setup` [`SETUP_REPEATS`] times and keeps the last result; earlier
/// results are dropped (engines shut down) before the next set-up starts.
/// Returns the kept state and the median set-up time.
fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, Summary), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((
        kept.expect("at least one set-up ran"),
        crate::stats::summarize(&times),
    ))
}

/// Tokens a completed tile response must carry: the tier's budget, capped
/// by the model's positional table, or the raw sequence when shorter.
fn expected_tokens(cfg: &ServeConfig, tier: Tier, side: usize, raw: usize) -> usize {
    let budget = cfg
        .policy
        .budget_for(tier, side)
        .min(cfg.model.seq_len)
        .max(1);
    let raw = match tier {
        Tier::Coarse => {
            let per_side = side / cfg.policy.coarse_leaf.max(1) as usize;
            per_side * per_side
        }
        Tier::Full | Tier::Reduced => raw,
    };
    budget.min(raw)
}

/// Solo reference answer for an image whose APF sequence fits the budget:
/// `(tokens, positive fraction)` from `AdaptivePatcher` plus
/// `ViTSegmenter::forward_cancellable`, the public calls a client could
/// make itself.
fn solo_reference(model: &ViTSegmenter, cfg: &ServeConfig, img: &GrayImage) -> (usize, f32) {
    let seq = crate::inputs::serving_patcher(img.width(), cfg.patch_size).patchify(img);
    assert!(
        seq.len() <= cfg.policy.full_len,
        "reference inputs must fit the budget"
    );
    let l = seq.len();
    let d = seq.patch_size * seq.patch_size;
    let mut g = Graph::new();
    let bp = model.params.bind(&mut g);
    let x = g.constant(seq.to_tensor().reshape([1, l, d]));
    let y = model
        .forward_cancellable(&mut g, &bp, x, &CancelToken::new())
        .expect("never cancelled");
    let vals = g.value(y).to_vec();
    let positive = vals.iter().filter(|v| **v > 0.0).count();
    (l, positive as f32 / vals.len().max(1) as f32)
}

/// Whether two positive fractions over `tokens * patch_dim` logits differ
/// by at most one logit's sign.
fn within_one_logit(a: f32, b: f32, tokens: usize, patch_dim: usize) -> bool {
    let one = 1.0 / (tokens * patch_dim).max(1) as f32;
    (a - b).abs() <= one + 1e-6
}

/// Engine-side spans of one traced image request (batched path).
struct EngineSpans<'a> {
    /// Admission (`serve.submit`).
    submit: &'a Span,
    /// This request's preprocessing (`serve.patchify`).
    patchify: &'a Span,
    /// The batch it rode (`serve.batch`).
    batch: &'a Span,
    /// The batch's forward (`serve.forward`), absent if every member failed
    /// preprocessing.
    forward: Option<&'a Span>,
    /// Requests in the batch.
    occupancy: usize,
}

/// Finds the engine spans of trace `trace`.
fn engine_spans(idx: &SpanIndex, trace: u64) -> Option<EngineSpans<'_>> {
    let submit = idx.in_trace(trace, "serve.submit").next()?;
    let patchify = idx.in_trace(trace, "serve.patchify").next()?;
    let batch = idx.enclosing(patchify, "serve.batch")?;
    let nested = idx.nested(batch);
    let forward = nested.iter().copied().find(|s| s.name == "serve.forward");
    let occupancy = nested
        .iter()
        .filter(|s| s.name == "serve.patchify")
        .count()
        .max(1);
    Some(EngineSpans {
        submit,
        patchify,
        batch,
        forward,
        occupancy,
    })
}

impl EngineSpans<'_> {
    /// Adds the engine part of a request's path, from admission end to
    /// batch end, to `ledger`.
    fn attribute(&self, idx: &SpanIndex, ledger: &mut Ledger) {
        ledger.add(
            "serve.queue_wait+linger (wait)",
            self.batch.start.saturating_sub(self.submit.end) as f64,
        );
        idx.attribute(self.batch.tid, self.batch.start, self.batch.end, ledger);
    }
}

/// Serving-layer per-layer metrics from the engine spans of traced
/// requests.
fn serve_span_metrics(r: &mut RunResult, spans: &[EngineSpans]) {
    if spans.is_empty() {
        return;
    }
    let waits: Vec<f64> = spans
        .iter()
        .map(|e| e.batch.start.saturating_sub(e.submit.end) as f64 / 1e3)
        .collect();
    let w = crate::stats::summarize(&waits);
    r.set("serve.queue_wait_p50_ms", w.p50, Some(w.clone()));
    r.set("serve.queue_wait_tail_ms", w.tail, Some(w));
    let patchify: Vec<f64> = spans
        .iter()
        .map(|e| e.patchify.dur() as f64 / 1e3)
        .collect();
    r.set("serve.patchify_ms", median(&patchify), None);
    let fwd: Vec<f64> = spans
        .iter()
        .filter_map(|e| e.forward.map(|f| f.dur() as f64 / 1e3 / e.occupancy as f64))
        .collect();
    if !fwd.is_empty() {
        r.set("serve.forward_ms_per_req", median(&fwd), None);
    }
}

/// Batch-linger mean (ms) from the engine's `apf_serve_batch_linger_seconds`
/// histogram: its exact sum over its count.
fn linger_mean_ms(tel: &Telemetry) -> f64 {
    tel.snapshot()
        .get("apf_serve_batch_linger_seconds", &[])
        .and_then(|m| m.histogram.as_ref())
        .map_or(0.0, |h| h.mean() * 1e3)
}

/// Renders the stage table of a median request and returns the share of
/// its time the instrumentation leaves unexplained (no span, or a parent
/// span's self time).
fn stage_table(title: &str, paths: &[PathLedger], untraced_p50_ms: f64) -> (String, f64) {
    let (rows, total) = median_band(paths);
    let mut s = format!(
        "{title}: stages of a median request ({} traced paths, p45..p55 band)\n",
        paths.len()
    );
    let _ = writeln!(
        s,
        "  {:<44} {:<10} {:>10} {:>7}",
        "stage", "layer", "ms", "share"
    );
    let unexplained = Ledger(rows.iter().cloned().collect()).unexplained();
    for (label, ms) in &rows {
        let _ = writeln!(
            s,
            "  {:<44} {:<10} {:>10.3} {:>6.1}%",
            label,
            layer_of(label),
            ms,
            100.0 * ms / total.max(1e-12)
        );
    }
    let sum: f64 = rows.iter().map(|(_, v)| v).sum();
    let _ = writeln!(s, "  {:<44} {:<10} {:>10.3}", "sum of stages", "", sum);
    let _ = writeln!(
        s,
        "  {:<44} {:<10} {:>10.3}",
        "end-to-end, traced (band mean)", "", total
    );
    if !paths.is_empty() {
        let p50 = median(&paths.iter().map(|p| p.total / 1e3).collect::<Vec<_>>());
        let _ = writeln!(
            s,
            "  {:<44} {:<10} {:>10.3} {:>6.1}% off",
            "end-to-end, traced p50 (vs sum of stages)",
            "",
            p50,
            100.0 * (sum - p50) / p50.max(1e-12)
        );
    }
    let _ = writeln!(
        s,
        "  {:<44} {:<10} {:>10.3}",
        "end-to-end, untraced p50", "", untraced_p50_ms
    );
    let _ = writeln!(
        s,
        "  {:<44} {:<10} {:>10.3} {:>6.1}%",
        "unexplained (no span, or a parent's self)",
        "",
        unexplained,
        100.0 * unexplained / total.max(1e-12)
    );
    (
        s,
        if total > 0.0 {
            unexplained / total
        } else {
            0.0
        },
    )
}

/// Self time per span name over the whole traced phase, as a table.
fn self_time_table(title: &str, idx: &SpanIndex) -> String {
    let st = idx.self_times();
    let total = st.total().max(1e-12);
    let mut rows: Vec<(&String, &f64)> = st.0.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    let mut s = format!(
        "{title}: self time by span over the traced phase ({} spans)\n",
        idx.len()
    );
    for (name, us) in rows {
        let _ = writeln!(
            s,
            "  {:<44} {:<10} {:>10.1} ms {:>6.1}%",
            name,
            layer_of(name),
            us / 1e3,
            100.0 * us / total
        );
    }
    s
}

/// Share by which the traced run's main latency exceeds the untraced one.
fn overhead_share(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        (traced - untraced) / untraced
    } else {
        0.0
    }
}

/// Inputs the replay probes run on, at most.
const REPLAY_INPUTS: usize = 8;

/// UNETR decoder geometry of the `train-apf` model, where the conv replay
/// runs: `(sequence length, patch, embedding width, decoder channels,
/// batch)`.
const UNETR_DECODER: (usize, usize, usize, usize, usize) = (256, 4, 64, 32, 2);

/// Layer replay probes shared by every workload, on its own `images`:
/// APF pre-processing under `patcher` against `budget`, the content key,
/// the wire frame, the serving forward at B=1 and at the observed batch
/// occupancy, and the decoder conv.
fn layer_replays(
    r: &mut RunResult,
    images: &[GrayImage],
    patcher: &apf_core::pipeline::AdaptivePatcher,
    budget: usize,
    cfg: &ServeConfig,
    occupancy: f64,
) {
    use crate::probes::{content_key_ms, conv_replay_ms, core_replay, model_replay, wire_replay};
    let images = &images[..images.len().min(REPLAY_INPUTS)];
    if images.is_empty() {
        return;
    }
    let core = core_replay(patcher, images, budget);
    r.set("core.blur_ms", core.blur_ms, None);
    r.set("core.canny_ms", core.canny_ms, None);
    r.set("core.quadtree_ms", core.quadtree_ms, None);
    r.set("core.extract_ms", core.extract_ms, None);
    r.set("core.raw_tokens", core.raw_tokens, None);
    r.set("core.dropped_share", core.dropped_share, None);
    r.set("serve.content_key_ms", content_key_ms(images), None);
    let w = wire_replay(images);
    r.set("wire.frame_encode_ms", w.encode_ms, None);
    r.set("wire.frame_decode_ms", w.decode_ms, None);
    r.set("wire.bytes_per_call", w.bytes, None);
    let model = ViTSegmenter::new(cfg.model, cfg.model_seed);
    let serving = crate::inputs::serving_patcher(images[0].width(), cfg.patch_size);
    let seqs: Vec<PatchSequence> = images.iter().map(|i| serving.patchify(i)).collect();
    let m = model_replay(
        &model,
        &seqs,
        cfg.model.seq_len,
        occupancy.round().max(1.0) as usize,
    );
    r.set("models.vit_forward_ms", m.b1_ms, None);
    r.set(
        "models.vit_forward_batched_ms_per_req",
        m.batched_ms_per_req,
        None,
    );
    r.set("tensor.tape_nodes", m.tape_nodes, None);
    r.set("tensor.tape_bytes", m.tape_bytes, None);
    let (l, p, d, c, b) = UNETR_DECODER;
    r.set("tensor.conv2d_ms", conv_replay_ms(l, p, d, c, b), None);
}

/// [`layer_replays`] with the serving engine's own patcher and budget.
fn serving_replays(r: &mut RunResult, images: &[GrayImage], cfg: &ServeConfig, occupancy: f64) {
    if let Some(first) = images.first() {
        let patcher = crate::inputs::serving_patcher(first.width(), cfg.patch_size);
        layer_replays(r, images, &patcher, cfg.policy.full_len, cfg, occupancy);
    }
}
