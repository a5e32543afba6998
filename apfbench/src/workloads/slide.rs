//! `slide-4k`: whole-slide requests through `ServeEngine::submit_slide`.
//!
//! A 4096² PAIP slide in an `APT1` container is stitched with window 512,
//! halo 32, and two stitch workers, one request at a time. The tile cache
//! budget (16 MiB) is below the 64 MiB slide, so tiles are evicted and read
//! again. This is the only workload that exercises the gigapixel layer
//! (tile read + CRC, tile cache, window stitch, output write) and the
//! distributed stitch at paper-like resolution.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use apf_gigapixel::{
    stream_paip_slide, Residency, SlideSegmenter, StitchConfig, TileCache, TileStore,
};
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_imaging::GrayImage;
use apf_models::vit::ViTSegmenter;
use apf_serve::{Outcome, ServeConfig, ServeEngine, SlideRequest};
use apf_telemetry::{Telemetry, TraceContext};

use crate::inputs::derive_seed;
use crate::report::{Phase, RunResult};
use crate::stats::{median, peak_rss_mb, summarize};
use crate::trace::{Ledger, PathLedger, SpanIndex};

use super::{
    engine_config, overhead_share, repeated_setup, self_time_table, stage_table, tracing_telemetry,
    Ctx,
};

/// Slide side in pixels.
const SLIDE: usize = 4096;
/// Container tile side.
const TILE: usize = 512;
/// Stitch window side.
const WINDOW: usize = 512;
/// Blend halo.
const HALO: usize = 32;
/// Tile-cache budget: a quarter of the slide.
const CACHE_BUDGET: usize = 16 << 20;
/// Stitch workers.
const STITCH_WORKERS: usize = 2;
/// Slides measured per run at least, however long they take.
const MIN_SLIDES: usize = 3;
/// Largest difference allowed between a served output and the reference
/// drive (the distributed stitch is designed to be bit-identical).
const TOLERANCE: f32 = 1e-5;

struct Setup {
    engine: ServeEngine,
    slide: PathBuf,
}

fn set_up(ctx: &Ctx, tel: Telemetry) -> Result<Setup, String> {
    let engine = ServeEngine::start(engine_config(tel));
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("create {}: {e}", ctx.work.display()))?;
    let slide = ctx.work.join("slide.apt1");
    let gen =
        PaipGenerator::new(PaipConfig::at_resolution(SLIDE).with_seed(derive_seed(ctx.seed, 4)));
    stream_paip_slide(&gen, 0, TILE, &slide, &Telemetry::disabled())
        .map_err(|e| format!("write slide container: {e}"))?;
    Ok(Setup { engine, slide })
}

fn request(id: u64, slide: &Path, out: PathBuf) -> SlideRequest {
    SlideRequest {
        id,
        slide_path: slide.to_path_buf(),
        output_path: out,
        window: WINDOW,
        halo: HALO,
        cache_budget_bytes: CACHE_BUDGET,
        deadline_ms: None,
        stitch_workers: STITCH_WORKERS,
        checkpoint_path: None,
        resume: false,
    }
}

/// Reads every tile of an output container (each read checks its CRC).
fn read_all(path: &Path) -> Result<Vec<f32>, String> {
    let store = TileStore::open(path).map_err(|e| format!("reopen {}: {e}", path.display()))?;
    let g = store.geometry();
    let mut out = Vec::with_capacity(g.width * g.height);
    for ty in 0..g.tiles_y() {
        for tx in 0..g.tiles_x() {
            out.extend(
                store
                    .read_tile(tx, ty)
                    .map_err(|e| format!("tile ({tx},{ty}): {e}"))?,
            );
        }
    }
    Ok(out)
}

/// One served slide.
struct Served {
    ms: f64,
    outcome: Outcome,
    trace: u64,
}

/// Serves slides back to back until `seconds` of slide time have passed
/// (and at least [`MIN_SLIDES`]). Each output is reopened, CRC-checked, and
/// compared with the first; only the first is kept for the reference check.
fn serve(
    setup: &Setup,
    ctx: &Ctx,
    seconds: f64,
    tel: &Telemetry,
    first_id: u64,
    r: &mut RunResult,
) -> Vec<Served> {
    let mut served = Vec::new();
    let mut spent = 0.0;
    let mut first: Option<Vec<f32>> = None;
    let mut id = first_id;
    while spent < seconds || served.len() < MIN_SLIDES {
        let out = ctx.work.join(format!("out-{id}.apt1"));
        let ctx_guard = tel.new_trace();
        let trace = ctx_guard.map_or(0, |c| c.trace_id);
        let t = Instant::now();
        let resp = {
            let _g = ctx_guard.map(TraceContext::install);
            let _span = tel.span_id("bench.slide", id);
            setup
                .engine
                .submit_slide(request(id, &setup.slide, out.clone()))
                .wait()
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        spent += ms / 1e3;
        let outcome = resp.map_or(
            Outcome::WorkerFailure {
                reason: apf_serve::FailureReason::Panicked,
            },
            |r| r.outcome,
        );
        if matches!(outcome, Outcome::SlideCompleted { .. }) {
            match read_all(&out) {
                Ok(data) => match &first {
                    None => {
                        std::fs::rename(&out, ctx.work.join("first.apt1")).ok();
                        first = Some(data);
                    }
                    Some(f) if *f != data => {
                        r.problem(format!("slide {id}: output differs from the first slide's"))
                    }
                    Some(_) => {}
                },
                Err(e) => r.problem(format!("slide {id}: {e}")),
            }
        }
        let _ = std::fs::remove_file(&out);
        served.push(Served { ms, outcome, trace });
        id += 1;
    }
    served
}

/// Checks every outcome and compares the kept output with a serial
/// reference drive of the same slide by the same model.
fn check(
    cfg: &ServeConfig,
    setup: &Setup,
    ctx: &Ctx,
    served: &[Served],
    phase: &mut Phase,
    r: &mut RunResult,
) {
    let model = ViTSegmenter::new(cfg.model, cfg.model_seed);
    let mut stitch = StitchConfig::for_window(WINDOW, HALO, cfg.model.seq_len);
    stitch.patcher.patch_size = cfg.patch_size;
    let store = match TileStore::open(&setup.slide) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            r.problem(format!("reopen slide: {e}"));
            return;
        }
    };
    let residency = Residency::new(&Telemetry::disabled());
    let cache = TileCache::new(
        store,
        CACHE_BUDGET,
        Telemetry::disabled(),
        residency.clone(),
    );
    let ref_out = ctx.work.join("reference.apt1");
    let reference = SlideSegmenter::new(&model, stitch, Telemetry::disabled()).segment_store(
        &cache,
        &ref_out,
        &residency,
        || false,
    );
    let reference = match reference {
        Ok(rep) => rep,
        Err(e) => {
            r.problem(format!("reference drive failed: {e}"));
            return;
        }
    };
    for s in served {
        match &s.outcome {
            Outcome::SlideCompleted {
                windows,
                tokens,
                positive_fraction,
            } => {
                phase.record(Ok(()));
                if *windows != reference.windows || *tokens != reference.tokens {
                    r.problem(format!(
                        "slide: {windows} windows / {tokens} tokens, reference {} / {}",
                        reference.windows, reference.tokens
                    ));
                }
                if (positive_fraction - reference.positive_fraction).abs() > 1e-9 {
                    r.problem(format!(
                        "slide: positive fraction {positive_fraction} vs reference {}",
                        reference.positive_fraction
                    ));
                }
            }
            other => phase.record(Err(other.label())),
        }
    }
    match (read_all(&ctx.work.join("first.apt1")), read_all(&ref_out)) {
        (Ok(a), Ok(b)) => {
            // A NaN difference counts as infinitely far.
            let diff = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y).abs())
                .fold(
                    0.0f32,
                    |m, d| if d.is_nan() { f32::INFINITY } else { m.max(d) },
                );
            if a.len() != b.len() || diff > TOLERANCE {
                r.problem(format!(
                    "served output differs from the reference drive by {diff}"
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => r.problem(format!("output check: {e}")),
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let result = if ctx.traced {
        run_traced(ctx)
    } else {
        run_plain(ctx)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    result
}

fn run_plain(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let cfg = engine_config(Telemetry::disabled());
    let (setup, setup_s) = repeated_setup(|| set_up(ctx, Telemetry::disabled()))?;
    let served = serve(
        &setup,
        ctx,
        ctx.seconds,
        &Telemetry::disabled(),
        0,
        &mut result,
    );
    let mut phase = Phase::new("slides");
    check(&cfg, &setup, ctx, &served, &mut phase, &mut result);
    result.counted.push(phase);
    setup.engine.shutdown();
    let ms: Vec<f64> = served
        .iter()
        .map(|s| {
            if matches!(s.outcome, Outcome::SlideCompleted { .. }) {
                s.ms
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let s = summarize(&ms);
    let total_s: f64 = served.iter().map(|s| s.ms / 1e3).sum();
    result.set("latency_p50_ms", s.p50, Some(s.clone()));
    result.set(
        "throughput_per_s",
        served.len() as f64 / total_s.max(1e-9),
        None,
    );
    result.set("setup_s", setup_s.p50, Some(setup_s));
    result.set("peak_rss_mb", peak_rss_mb(), None);
    result.tables.push(format!(
        "slide-4k: {SLIDE}² slide, window {WINDOW}, halo {HALO}, {STITCH_WORKERS} stitch workers, {} MiB tile cache\n  \
         slide_s {:.4} s (median of {}), p90 {:.4} s, slowest {:.4} s\n",
        CACHE_BUDGET >> 20,
        s.p50 / 1e3,
        s.n,
        s.p90 / 1e3,
        s.max / 1e3
    ));
    Ok(result)
}

fn run_traced(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let cfg = engine_config(Telemetry::disabled());
    let phase_s = ctx.seconds * 0.4;

    let plain = set_up(ctx, Telemetry::disabled())?;
    let plain_served = serve(&plain, ctx, phase_s, &Telemetry::disabled(), 0, &mut result);
    plain.engine.shutdown();
    let plain_ms: Vec<f64> = plain_served.iter().map(|s| s.ms).collect();
    let plain_p50 = median(&plain_ms);

    let tel = tracing_telemetry();
    let traced = set_up(ctx, tel.clone())?;
    let served = serve(&traced, ctx, phase_s, &tel, 1_000, &mut result);
    let mut phase = Phase::new("slides, traced");
    check(&cfg, &traced, ctx, &served, &mut phase, &mut result);
    result.counted.push(phase);
    let mut untraced_phase = Phase::new("slides, untraced");
    for s in &plain_served {
        untraced_phase.record(match &s.outcome {
            Outcome::SlideCompleted { .. } => Ok(()),
            other => Err(other.label()),
        });
    }
    result.counted.insert(0, untraced_phase);
    let traced_p50 = median(&served.iter().map(|s| s.ms).collect::<Vec<_>>());

    // Stage ledger per slide: admission on the client thread, queue wait,
    // then the engine worker's span tree (its merge loop waits on the
    // stitch workers), then delivery. Stitch workers run in parallel and
    // are tallied on their own.
    let idx = SpanIndex::new(&tel.trace_events());
    let mut paths = Vec::new();
    let mut stitch = Ledger::default();
    let mut spreads = Vec::new();
    let mut windows = Vec::new();
    for s in served.iter().filter(|s| s.trace != 0) {
        let (Some(outer), Some(sub), Some(req)) = (
            idx.in_trace(s.trace, "bench.slide").next(),
            idx.in_trace(s.trace, "serve.submit").next(),
            idx.in_trace(s.trace, "serve.request").next(),
        ) else {
            continue;
        };
        let mut p = PathLedger::default();
        idx.attribute(outer.tid, outer.start, sub.end, &mut p.stages);
        p.stages.add(
            "serve.queue_wait (wait)",
            req.start.saturating_sub(sub.end) as f64,
        );
        idx.attribute(req.tid, req.start, req.end, &mut p.stages);
        p.stages.add(
            "serve.respond+collect (wait)",
            outer.end.saturating_sub(req.end) as f64,
        );
        p.total = p.stages.total();
        paths.push(p);
        let mut busy: BTreeMap<u64, u64> = BTreeMap::new();
        for w in idx.in_trace(s.trace, "gigapixel.window_infer") {
            *busy.entry(w.tid).or_default() += w.dur();
            windows.push(w.dur() as f64 / 1e3);
            idx.attribute(w.tid, w.start, w.end, &mut stitch);
        }
        if let (Some(max), Some(min)) = (busy.values().max(), busy.values().min()) {
            let min = if busy.len() < STITCH_WORKERS { 0 } else { *min };
            spreads.push((max - min) as f64 / 1e3);
        }
    }
    if paths.is_empty() {
        result.problem("traced phase produced no complete slide span path");
    }
    let (table, unexplained) = stage_table("slide-4k (slide_s, in ms)", &paths, plain_p50);
    result.tables.push(table);
    let mut t = String::from(
        "slide-4k: stitch-worker time by span, all traced slides (parallel to the merge loop)\n",
    );
    let total = stitch.total().max(1e-12);
    let mut rows: Vec<_> = stitch.0.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, us) in rows {
        let _ = writeln!(
            t,
            "  {:<44} {:>10.1} ms {:>6.1}%",
            name,
            us / 1e3,
            100.0 * us / total
        );
    }
    result.tables.push(t);
    result.tables.push(self_time_table("slide-4k", &idx));
    result.set("trace.unexplained_share", unexplained, None);
    if !windows.is_empty() {
        let w = summarize(&windows);
        result.set("gigapixel.window_p50_ms", w.p50, Some(w.clone()));
        result.set("gigapixel.window_max_ms", w.max, Some(w));
    }
    if !spreads.is_empty() {
        result.set("distsim.busy_spread_ms", median(&spreads), None);
    }
    let snap = tel.snapshot();
    let counter = |name: &str| {
        snap.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| m.value)
            .sum::<f64>()
    };
    let (hits, misses) = (
        counter("apf_gigapixel_cache_hits_total"),
        counter("apf_gigapixel_cache_misses_total"),
    );
    result.set(
        "gigapixel.cache_hit_share",
        hits / (hits + misses).max(1.0),
        None,
    );
    let peak = snap
        .metrics
        .iter()
        .filter(|m| m.name == "apf_gigapixel_resident_peak_bytes")
        .map(|m| m.value)
        .fold(0.0, f64::max);
    result.set("gigapixel.peak_resident_bytes", peak, None);
    result.set(
        "telemetry.overhead_share",
        overhead_share(traced_p50, plain_p50),
        None,
    );

    // Replays on this workload's own inputs: its container's tiles, and
    // windows cut from the slide.
    match TileStore::open(&traced.slide) {
        Ok(store) => {
            result.set(
                "gigapixel.tile_read_ms",
                crate::probes::tile_read_ms(&store),
                None,
            );
            let mut stitch_cfg = StitchConfig::for_window(WINDOW, HALO, cfg.model.seq_len);
            stitch_cfg.patcher.patch_size = cfg.patch_size;
            let windows: Vec<GrayImage> = (0..4u32)
                .filter_map(|i| store.read_tile(i * 2 % 8, i * 3 % 8).ok())
                .map(|data| GrayImage::from_raw(WINDOW, WINDOW, data))
                .collect();
            let patcher = apf_core::pipeline::AdaptivePatcher::new(stitch_cfg.patcher.clone());
            super::layer_replays(
                &mut result,
                &windows,
                &patcher,
                cfg.model.seq_len,
                &cfg,
                1.0,
            );
        }
        Err(e) => result.problem(format!("reopen slide for replays: {e}")),
    }
    traced.engine.shutdown();
    if tel.trace_evicted() > 0 {
        result.problem(format!(
            "{} spans were evicted from the trace ring",
            tel.trace_evicted()
        ));
    }
    Ok(result)
}
