//! `tiles-hot-wire`: a closed loop over the loopback APFW1 front door.
//!
//! Two `WireClient` connections each send their next 256² `Segment` only
//! after the previous reply, like viewers fetching tiles. Requests come
//! from a small pool with Zipf popularity, so after warm-up the
//! preprocessing cache answers all of them: pre-processing drops out, and
//! the time goes to the wire frame, the content key, the cache lookup,
//! batching at low occupancy, and the forward.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use apf_imaging::GrayImage;
use apf_models::vit::ViTSegmenter;
use apf_serve::{
    ClientConfig, QuotaConfig, QuotaLimit, ServeConfig, ServeEngine, Tier, WireClient, WireConfig,
    WireRequest, WireServer, WireStatus,
};
use apf_telemetry::{now_us, Telemetry};

use crate::inputs::{
    derive_seed, paip_images, popularity_stream, raw_len, serving_patcher, smooth_variant, TILE,
};
use crate::report::{Phase, RunResult};
use crate::stats::{median, peak_rss_mb, percentile_sorted, summarize};
use crate::trace::{PathLedger, SpanIndex};

use super::{
    engine_config, engine_spans, expected_tokens, linger_mean_ms, overhead_share, repeated_setup,
    self_time_table, serve_span_metrics, solo_reference, stage_table, tracing_telemetry,
    within_one_logit, Ctx,
};

/// Client connections (one thread each).
const CLIENTS: u64 = 2;
/// PAIP tiles in the hot pool.
const BUSY_TILES: usize = 14;
/// Smoothed tiles in the pool; their answers are checked against the solo
/// reference on every call.
const SMOOTH_TILES: usize = 2;

struct PoolTile {
    image: GrayImage,
    raw: usize,
    /// Solo reference `(tokens, positive fraction)` for tiles that fit the
    /// budget.
    reference: Option<(usize, f32)>,
}

struct Setup {
    engine: Arc<ServeEngine>,
    server: WireServer,
    pool: Vec<PoolTile>,
}

fn client(addr: SocketAddr, c: u64, seed: u64, tel: &Telemetry) -> WireClient {
    WireClient::connect(
        addr,
        ClientConfig {
            tenant: c,
            seed: derive_seed(seed, 0xC0 + c),
            telemetry: tel.clone(),
            ..ClientConfig::default()
        },
    )
}

fn segment(img: &GrayImage) -> WireRequest {
    WireRequest::Segment {
        deadline_ms: 0,
        width: img.width() as u32,
        height: img.height() as u32,
        pixels: img.data().to_vec(),
    }
}

fn set_up(ctx: &Ctx, tel: Telemetry) -> Result<Setup, String> {
    let cfg = engine_config(tel.clone());
    let engine = Arc::new(ServeEngine::start(cfg.clone()));
    // The door's default per-tenant bucket (64 requests/s) would measure the
    // quota policy instead of the serving path; tenants here are trusted.
    let server = WireServer::start(
        Arc::clone(&engine),
        WireConfig {
            quota: QuotaConfig {
                default_limit: QuotaLimit::unlimited(),
                overrides: vec![],
            },
            telemetry: tel.clone(),
            ..WireConfig::default()
        },
    )
    .map_err(|e| format!("bind loopback front door: {e}"))?;
    let patcher = serving_patcher(TILE, cfg.patch_size);
    let model = ViTSegmenter::new(cfg.model, cfg.model_seed);
    let bases = paip_images(derive_seed(ctx.seed, 2), TILE, BUSY_TILES + 16);
    let mut pool = Vec::new();
    let mut smooth = 0;
    for img in &bases {
        if smooth < SMOOTH_TILES {
            let s = smooth_variant(img);
            let raw = raw_len(&patcher, &s);
            if raw <= cfg.policy.full_len {
                let reference = Some(solo_reference(&model, &cfg, &s));
                pool.push(PoolTile {
                    image: s,
                    raw,
                    reference,
                });
                smooth += 1;
                continue;
            }
        }
        if pool.len() - smooth < BUSY_TILES {
            pool.push(PoolTile {
                raw: raw_len(&patcher, img),
                image: img.clone(),
                reference: None,
            });
        }
    }
    if smooth == 0 || pool.len() < BUSY_TILES {
        return Err(format!(
            "seed {}: pool of {} tiles with {smooth} smoothed",
            ctx.seed,
            pool.len()
        ));
    }
    // Warm-up: every pool tile once, so the cache holds the whole pool.
    let mut cli = client(server.local_addr(), 0, ctx.seed, &Telemetry::disabled());
    for t in &pool {
        cli.call(&segment(&t.image))
            .map_err(|e| format!("warm-up call failed: {e}"))?;
    }
    Ok(Setup {
        engine,
        server,
        pool,
    })
}

/// One call's record.
struct Call {
    tile: usize,
    start_us: u64,
    end_us: u64,
    outcome: Result<WireStatus, String>,
}

/// Runs both closed-loop clients for `seconds`.
fn run_clients(setup: &Setup, ctx: &Ctx, seconds: f64, tel: &Telemetry) -> Vec<Call> {
    let addr = setup.server.local_addr();
    let requests: Vec<WireRequest> = setup.pool.iter().map(|t| segment(&t.image)).collect();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let requests = &requests;
                s.spawn(move || {
                    let mut cli = client(addr, c, ctx.seed, tel);
                    let order = popularity_stream(ctx.seed, c, requests.len(), 1 << 16);
                    let mut calls = Vec::new();
                    for &tile in order.iter().cycle() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let req = requests[tile].clone();
                        let start_us = now_us();
                        let outcome = {
                            let _span = tel.span_id("bench.call", tile as u64);
                            cli.call(&req).map_err(|e| e.label().to_string())
                        };
                        calls.push(Call {
                            tile,
                            start_us,
                            end_us: now_us(),
                            outcome,
                        });
                    }
                    calls
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Output checks: typed outcome, token count, finite fraction, the solo
/// reference for smoothed tiles, and one answer per tile at the full tier.
fn check(
    cfg: &ServeConfig,
    pool: &[PoolTile],
    calls: &[Call],
    phase: &mut Phase,
    r: &mut RunResult,
) -> (u64, u64) {
    let pd = cfg.patch_size * cfg.patch_size;
    let mut first_answer: BTreeMap<usize, f32> = BTreeMap::new();
    let (mut full, mut ok) = (0u64, 0u64);
    for c in calls {
        let status = match &c.outcome {
            Ok(s) => s,
            Err(kind) => {
                phase.record(Err(kind));
                continue;
            }
        };
        let WireStatus::Ok {
            tokens,
            positive_fraction: pf,
            tier,
        } = *status
        else {
            phase.record(Err(status.label()));
            continue;
        };
        phase.record(Ok(()));
        ok += 1;
        let tile = &pool[c.tile];
        let tier = match tier {
            0 => Tier::Full,
            1 => Tier::Reduced,
            _ => Tier::Coarse,
        };
        let expected = expected_tokens(cfg, tier, TILE, tile.raw);
        if tokens as usize != expected {
            r.problem(format!(
                "tile {} at {tier:?}: {tokens} tokens, expected {expected}",
                c.tile
            ));
        }
        if !pf.is_finite() || !(0.0..=1.0).contains(&pf) {
            r.problem(format!("tile {}: positive fraction {pf}", c.tile));
        }
        if tier != Tier::Full {
            continue;
        }
        full += 1;
        if let Some((l, pf_ref)) = tile.reference {
            if !within_one_logit(pf, pf_ref, l, pd) {
                r.problem(format!(
                    "tile {}: positive fraction {pf} vs solo reference {pf_ref}",
                    c.tile
                ));
            }
        }
        let first = *first_answer.entry(c.tile).or_insert(pf);
        if !within_one_logit(pf, first, tokens as usize, pd) {
            r.problem(format!(
                "tile {}: answers {pf} and {first} for the same pixels",
                c.tile
            ));
        }
    }
    (full, ok)
}

fn call_ms(calls: &[Call]) -> Vec<f64> {
    calls
        .iter()
        .map(|c| match c.outcome {
            Ok(WireStatus::Ok { .. }) => c.end_us.saturating_sub(c.start_us) as f64 / 1e3,
            _ => f64::INFINITY,
        })
        .collect()
}

/// Completed calls per second over the phase's wall time.
fn calls_per_s(calls: &[Call]) -> f64 {
    let ok = calls
        .iter()
        .filter(|c| matches!(c.outcome, Ok(WireStatus::Ok { .. })))
        .count();
    let first = calls.iter().map(|c| c.start_us).min().unwrap_or(0);
    let last = calls.iter().map(|c| c.end_us).max().unwrap_or(first);
    ok as f64 / (last.saturating_sub(first) as f64 / 1e6).max(1e-9)
}

/// Equal time windows the closed loop is split into (by call start) for
/// the figures it reports.
const WINDOWS: usize = 10;

/// Per-window median call time (ms) and completed calls per second, each
/// sorted ascending. The reported figures are the third best of ten (p25 of
/// window medians, p75 of window rates): a host stall that slows a few
/// windows does not move them, a change to the serving path slows every
/// window and does.
fn window_figures(calls: &[Call]) -> (Vec<f64>, Vec<f64>) {
    let first = calls.iter().map(|c| c.start_us).min().unwrap_or(0);
    let last = calls.iter().map(|c| c.start_us).max().unwrap_or(first) + 1;
    let width = (last - first).div_ceil(WINDOWS as u64).max(1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for (c, ms) in calls.iter().zip(call_ms(calls)) {
        lat[((c.start_us - first) / width) as usize].push(ms);
    }
    let mut medians: Vec<f64> = lat
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .collect();
    let mut rates: Vec<f64> = lat
        .iter()
        .map(|w| w.iter().filter(|ms| ms.is_finite()).count() as f64 / (width as f64 / 1e6))
        .collect();
    medians.sort_by(f64::total_cmp);
    rates.sort_by(f64::total_cmp);
    (medians, rates)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    if ctx.traced {
        return run_traced(ctx);
    }
    let mut result = RunResult::default();
    let cfg = engine_config(Telemetry::disabled());
    let (setup, setup_s) = repeated_setup(|| set_up(ctx, Telemetry::disabled()))?;
    let calls = run_clients(&setup, ctx, ctx.seconds, &Telemetry::disabled());
    let pool_len = setup.pool.len();
    let report = drain_and_check(setup, &cfg, &calls, "closed loop", &mut result)?;
    let lat = call_ms(&calls);
    let s = summarize(&lat);
    let rps = calls_per_s(&calls);
    let (medians, rates) = window_figures(&calls);
    result.set(
        "latency_p50_ms",
        percentile_sorted(&medians, 25.0),
        Some(s.clone()),
    );
    result.set("throughput_per_s", percentile_sorted(&rates, 75.0), None);
    result.set("setup_s", setup_s.p50, Some(setup_s));
    result.set("peak_rss_mb", peak_rss_mb(), None);
    let phase = &result.counted[0];
    result.extra = vec![
        ("full_tier_share", report.0 as f64 / report.1.max(1) as f64),
        (
            "failed_share",
            phase.failed() as f64 / phase.sent.max(1) as f64,
        ),
        ("cache_hit_share", report.2),
    ];
    let mut t = String::from("tiles-hot-wire: closed loop, 2 clients over loopback APFW1\n");
    let _ = writeln!(
        t,
        "  windows of the run: median call {:.3}..{:.3} ms, {:.1}..{:.1} calls/s\n  \
         tile_p50_ms {:.3} ms, tile_p90_ms {:.3} ms, tile_p99_ms {:.3} ms (p{} of {}), tile_rps {:.2}/s, full_tier_share {:.4}, \
         failed_share {:.4}, cache hit share {:.4} over a {pool_len}-tile pool",
        medians[0],
        medians[medians.len() - 1],
        rates[0],
        rates[rates.len() - 1],
        s.p50,
        s.p90,
        s.tail,
        s.tail_pct,
        s.n,
        rps,
        report.0 as f64 / report.1.max(1) as f64,
        phase.failed() as f64 / phase.sent.max(1) as f64,
        report.2,
    );
    result.tables.push(t);
    Ok(result)
}

/// Drains the door, checks every call, and returns (full-tier calls,
/// completed calls, cache hit share).
fn drain_and_check(
    setup: Setup,
    cfg: &ServeConfig,
    calls: &[Call],
    phase: &str,
    r: &mut RunResult,
) -> Result<(u64, u64, f64), String> {
    let Setup {
        engine,
        server,
        pool,
    } = setup;
    let drain = server.drain();
    if drain.conn_panics > 0 {
        return Err(format!(
            "{} connection handlers panicked",
            drain.conn_panics
        ));
    }
    let engine =
        Arc::try_unwrap(engine).map_err(|_| "engine still shared after drain".to_string())?;
    let report = engine.shutdown();
    let mut phase = Phase::new(phase);
    let (full, ok) = check(cfg, &pool, calls, &mut phase, r);
    r.counted.push(phase);
    if report.metrics.responses() != report.metrics.submitted {
        r.problem(format!(
            "engine answered {} of {} submissions",
            report.metrics.responses(),
            report.metrics.submitted
        ));
    }
    Ok((full, ok, report.cache.map_or(0.0, |c| c.hit_rate())))
}

fn run_traced(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let cfg = engine_config(Telemetry::disabled());
    let phase_s = ctx.seconds * 0.4;

    let plain = set_up(ctx, Telemetry::disabled())?;
    let plain_calls = run_clients(&plain, ctx, phase_s, &Telemetry::disabled());
    drain_and_check(
        plain,
        &cfg,
        &plain_calls,
        "closed loop, untraced",
        &mut result,
    )?;
    let plain_p50 = summarize(&call_ms(&plain_calls)).p50;

    let tel = tracing_telemetry();
    let traced = set_up(ctx, tel.clone())?;
    let calls = run_clients(&traced, ctx, phase_s, &tel);
    let images: Vec<GrayImage> = traced.pool.iter().map(|t| t.image.clone()).collect();
    let batch = traced.engine.batch_stats();
    let (full, ok, hit_share) =
        drain_and_check(traced, &cfg, &calls, "closed loop, traced", &mut result)?;
    let traced_p50 = summarize(&call_ms(&calls)).p50;

    // Stage ledger of each call: client encode/send up to the server's
    // request span, the server decoding and admitting it, queue wait and
    // linger, the batch on its worker, the server waking and writing the
    // reply, and the client reading it.
    let idx = SpanIndex::new(&tel.trace_events());
    let mut paths = Vec::new();
    let mut engine = Vec::new();
    let mut overhead = Vec::new();
    for outer in idx.named("bench.call") {
        let Some(call) = idx
            .nested(outer)
            .into_iter()
            .find(|s| s.name == "wire.client.call")
        else {
            continue;
        };
        let Some(req) = idx.in_trace(call.trace, "serve.wire.request").next() else {
            continue;
        };
        let Some(e) = engine_spans(&idx, call.trace) else {
            continue;
        };
        let mut p = PathLedger::default();
        idx.attribute(outer.tid, outer.start, req.start, &mut p.stages);
        idx.attribute(req.tid, req.start, e.submit.end, &mut p.stages);
        e.attribute(&idx, &mut p.stages);
        idx.attribute(req.tid, e.batch.end, req.end, &mut p.stages);
        idx.attribute(outer.tid, req.end, outer.end, &mut p.stages);
        p.total = p.stages.total();
        overhead
            .push((outer.dur() as f64 - e.batch.end.saturating_sub(e.submit.start) as f64) / 1e3);
        paths.push(p);
        engine.push(e);
    }
    if paths.is_empty() {
        result.problem("traced phase produced no complete span path");
    }
    let (table, unexplained) = stage_table("tiles-hot-wire (tile_p50_ms)", &paths, plain_p50);
    result.tables.push(table);
    result.tables.push(self_time_table("tiles-hot-wire", &idx));
    serve_span_metrics(&mut result, &engine);
    if !overhead.is_empty() {
        result.set("wire.overhead_ms", median(&overhead), None);
    }
    result.set("trace.unexplained_share", unexplained, None);
    result.set("serve.linger_ms", linger_mean_ms(&tel), None);
    let occupancy = batch.map_or(1.0, |b| b.mean_occupancy);
    result.set("serve.batch_occupancy_mean", occupancy, None);
    result.set("serve.cache_hit_share", hit_share, None);
    result.set(
        "serve.full_tier_share",
        full as f64 / ok.max(1) as f64,
        None,
    );
    result.set(
        "telemetry.overhead_share",
        overhead_share(traced_p50, plain_p50),
        None,
    );
    super::serving_replays(&mut result, &images, &cfg, occupancy);
    if tel.trace_evicted() > 0 {
        result.problem(format!(
            "{} spans were evicted from the trace ring",
            tel.trace_evicted()
        ));
    }
    Ok(result)
}
