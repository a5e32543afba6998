//! `tiles-unique`: an in-process open loop of content-unique 256² tiles.
//!
//! One thread submits with `ServeEngine::submit` on a fixed schedule and
//! one thread collects the tickets. Every request's pixels are unique, so
//! the preprocessing cache only ever pays its miss cost and each request
//! runs blur, Canny, quadtree, and extraction plus the content key: this is
//! where a pre-processing or content-key change shows.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use apf_imaging::GrayImage;
use apf_models::vit::ViTSegmenter;
use apf_serve::{Outcome, SegRequest, SegResponse, ServeConfig, ServeEngine, Ticket, Tier};
use apf_telemetry::{now_us, Telemetry, TraceContext};

use crate::goodput::{select_goodput, LadderSearch, Limits, RungResult};
use crate::inputs::{
    derive_seed, paip_images, raw_len, serving_patcher, smooth_variant, unique_variant, TILE,
};
use crate::report::{Phase, RunResult};
use crate::schedule::{LagLedger, OpenLoop};
use crate::stats::{peak_rss_mb, summarize};
use crate::trace::{PathLedger, SpanIndex};

use super::{
    engine_config, engine_spans, expected_tokens, linger_mean_ms, overhead_share, repeated_setup,
    self_time_table, serve_span_metrics, solo_reference, stage_table, tracing_telemetry,
    within_one_logit, Ctx,
};

/// Offered rates of the open-loop ladder (requests/s). Capacity on two
/// cores is about 240/s, so the rungs are finer around it; the low rungs
/// keep goodput from falling off a cliff when a contended host halves
/// capacity. `BENCHMARK.json` states the same ladder in this workload's
/// description.
pub const LADDER: [f64; 18] = [
    40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0, 215.0, 230.0, 245.0, 260.0, 280.0,
    300.0, 340.0, 400.0, 480.0,
];

/// The reference rung, where latency is reported: about a third of
/// capacity, so it stays below the knee even when host contention slows
/// the machine by half.
const REFERENCE_RATE: f64 = 80.0;

/// Pass criteria of a goodput rung. The generator-lag limit also decides
/// whether a run is valid at all.
const LIMITS: Limits = Limits {
    limit_ms: 40.0,
    pct: 90.0,
    min_full_share: 0.99,
    lag_limit_ms: 10.0,
};

/// Times the reference rung may run; the least disturbed attempt is kept.
const REFERENCE_ATTEMPTS: usize = 3;

/// Generator p90 lag (ms) above which a reference attempt counts as
/// disturbed by the host and is run again. An undisturbed generator is
/// about 0.1 ms late at p90; host CPU contention that inflates request
/// latency shows as several milliseconds of lag.
const DISTURBED_LAG_MS: f64 = 1.0;

/// Whether the generator kept to the schedule closely enough for the rung
/// to measure the engine.
fn generator_kept_up(score: &RungResult) -> bool {
    score.lag_ms <= LIMITS.lag_limit_ms
}

/// Share of the run spent on the reference rung.
const REFERENCE_SHARE: f64 = 0.35;
/// Share of the run the saturation phase takes.
const SATURATION_SHARE: f64 = 0.15;
/// Requests the saturation phase keeps outstanding: enough to keep both
/// workers busy, few enough that the queue stays below the depth where
/// the engine degrades its tier.
const SATURATION_IN_FLIGHT: usize = 6;
/// Windows the saturation phase is split into; capacity is the best one.
const SATURATION_WINDOWS: usize = 3;
/// Share of the run each goodput probe rung takes.
const RUNG_SHARE: f64 = 0.1;
/// Goodput probes per run (bisection over the ladder).
const MAX_PROBES: usize = 3;
/// Base PAIP tiles drawn per run.
const BASES: usize = 24;
/// Smoothed tiles whose sequence fits the budget (the reference sample).
const SAMPLE_TILES: usize = 4;
/// Every this many requests one is a sample tile.
const SAMPLE_EVERY: u64 = 16;
/// Busy tiles exceed the full budget by at least this many leaves, so a
/// two-pixel perturbation cannot bring them under it.
const MARGIN: usize = 8;
/// Longest a collector waits for one response before counting it lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Which pool tile a request perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Input {
    /// A PAIP tile whose sequence exceeds the budget.
    Busy(usize),
    /// A smoothed tile whose sequence fits the budget.
    Sample(usize),
}

/// The workload's tile pool.
struct TilePool {
    busy: Vec<GrayImage>,
    busy_raw: Vec<usize>,
    samples: Vec<GrayImage>,
}

impl TilePool {
    /// Draws the pool for `seed`: PAIP tiles over the full budget by the
    /// margin, and smoothed tiles that fit it.
    fn new(seed: u64, cfg: &ServeConfig) -> Result<Self, String> {
        let bases = paip_images(derive_seed(seed, 1), TILE, BASES);
        let patcher = serving_patcher(TILE, cfg.patch_size);
        let full = cfg.policy.full_len;
        let mut pool = TilePool {
            busy: Vec::new(),
            busy_raw: Vec::new(),
            samples: Vec::new(),
        };
        for img in &bases {
            let raw = raw_len(&patcher, img);
            if raw >= full + MARGIN {
                pool.busy.push(img.clone());
                pool.busy_raw.push(raw);
            }
            if pool.samples.len() < SAMPLE_TILES {
                let smooth = smooth_variant(img);
                if raw_len(&patcher, &smooth) <= full {
                    pool.samples.push(smooth);
                }
            }
        }
        if pool.busy.is_empty() || pool.samples.is_empty() {
            return Err(format!(
                "seed {seed}: {} busy and {} sample tiles; need at least one of each",
                pool.busy.len(),
                pool.samples.len()
            ));
        }
        Ok(pool)
    }

    /// The input request `k` perturbs.
    fn input_for(&self, k: u64) -> Input {
        if k % SAMPLE_EVERY == SAMPLE_EVERY - 1 {
            Input::Sample((k / SAMPLE_EVERY) as usize % self.samples.len())
        } else {
            let mix = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            Input::Busy(mix as usize % self.busy.len())
        }
    }

    /// Request `k`'s pixels: its pool tile made content-unique by `k`.
    fn image_for(&self, k: u64) -> GrayImage {
        match self.input_for(k) {
            Input::Busy(i) => unique_variant(&self.busy[i], k),
            Input::Sample(i) => unique_variant(&self.samples[i], k),
        }
    }

    fn base_images(&self) -> Vec<GrayImage> {
        self.busy.iter().chain(&self.samples).cloned().collect()
    }
}

/// One request of a rung, with its timeline on the trace clock (µs).
struct Done {
    /// Request index (also its id and uniqueness tag).
    k: u64,
    /// When the schedule wanted it sent.
    due_us: u64,
    /// When it was sent.
    sent_us: u64,
    /// When the collector saw its response.
    recv_us: u64,
    /// Trace id (0 when untraced).
    trace: u64,
    /// The response; `None` if none came within the timeout.
    resp: Option<SegResponse>,
}

impl Done {
    /// Latency from the due time (ms); failures count as infinitely late.
    fn latency_ms(&self) -> f64 {
        match &self.resp {
            Some(SegResponse {
                outcome: Outcome::Completed { .. },
                ..
            }) => self.recv_us.saturating_sub(self.due_us) as f64 / 1e3,
            _ => f64::INFINITY,
        }
    }
}

struct Sent {
    k: u64,
    due_us: u64,
    sent_us: u64,
    trace: u64,
    ticket: Ticket,
}

/// Runs one open-loop rung: `rate` requests/s for `seconds`, request
/// indices from `*next_k`. Traces and `bench.submit` spans go to `tel`.
fn run_rung(
    engine: &ServeEngine,
    pool: &TilePool,
    rate: f64,
    seconds: f64,
    next_k: &mut u64,
    tel: &Telemetry,
) -> Vec<Done> {
    let sched = OpenLoop { rate };
    let n = sched.count_within(seconds);
    let k0 = *next_k;
    *next_k += n;
    let (tx, rx) = mpsc::channel::<Sent>();
    let head_start = Duration::from_millis(2);
    let (t0, t0_us) = (
        Instant::now() + head_start,
        now_us() + head_start.as_micros() as u64,
    );
    thread::scope(|s| {
        s.spawn(move || {
            for i in 0..n {
                let k = k0 + i;
                let image = pool.image_for(k);
                let offset = sched.due(i);
                let due = t0 + offset;
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let ctx = tel.new_trace();
                let _ctx = ctx.map(TraceContext::install);
                let sent_us = now_us();
                let ticket = {
                    let _span = tel.span_id("bench.submit", k);
                    engine.submit(SegRequest {
                        id: k,
                        image,
                        deadline_ms: None,
                    })
                };
                let due_us = t0_us + offset.as_micros() as u64;
                let trace = ctx.map_or(0, |c| c.trace_id);
                if tx
                    .send(Sent {
                        k,
                        due_us,
                        sent_us,
                        trace,
                        ticket,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });
        collect(rx)
    })
}

/// Collects responses as they arrive, in whatever order they complete: the
/// oldest ticket is waited on briefly and the rest are polled, so a
/// response is timestamped within a fraction of a millisecond of arrival.
fn collect(rx: mpsc::Receiver<Sent>) -> Vec<Done> {
    let mut pending: VecDeque<Sent> = VecDeque::new();
    let mut done = Vec::new();
    let mut generator_done = false;
    let finish = |s: Sent, resp: Option<SegResponse>, done: &mut Vec<Done>| {
        done.push(Done {
            k: s.k,
            due_us: s.due_us,
            sent_us: s.sent_us,
            recv_us: now_us(),
            trace: s.trace,
            resp,
        });
    };
    loop {
        loop {
            match rx.try_recv() {
                Ok(s) => pending.push_back(s),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    generator_done = true;
                    break;
                }
            }
        }
        if pending.is_empty() {
            if generator_done {
                break;
            }
            match rx.recv_timeout(Duration::from_millis(2)) {
                Ok(s) => pending.push_back(s),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => generator_done = true,
            }
            continue;
        }
        let before = done.len();
        let mut still = VecDeque::with_capacity(pending.len());
        for s in pending.drain(..) {
            match s.ticket.wait_timeout(Duration::ZERO) {
                Some(r) => finish(s, Some(r), &mut done),
                None => still.push_back(s),
            }
        }
        pending = still;
        if done.len() == before {
            let oldest = pending.pop_front().expect("pending is non-empty");
            match oldest.ticket.wait_timeout(Duration::from_micros(300)) {
                Some(r) => finish(oldest, Some(r), &mut done),
                None if now_us().saturating_sub(oldest.sent_us)
                    > RESPONSE_TIMEOUT.as_micros() as u64 =>
                {
                    finish(oldest, None, &mut done)
                }
                None => pending.push_front(oldest),
            }
        }
    }
    done.sort_by_key(|d| d.k);
    done
}

/// Saturation phase: one thread keeps [`SATURATION_IN_FLIGHT`] requests
/// outstanding for `seconds`, submitting the next as soon as the oldest
/// completes. Returns the requests (latency is not used) and completed
/// requests per second in the best of [`SATURATION_WINDOWS`] windows: the
/// engine's capacity on unique tiles, which scales smoothly with the
/// machine instead of jumping between rungs.
fn run_saturated(
    engine: &ServeEngine,
    pool: &TilePool,
    seconds: f64,
    next_k: &mut u64,
) -> (Vec<Done>, f64) {
    let start = Instant::now();
    let start_us = now_us();
    let mut in_flight: VecDeque<(u64, u64, Ticket)> = VecDeque::new();
    let mut done = Vec::new();
    loop {
        let open = start.elapsed().as_secs_f64() < seconds;
        if open && in_flight.len() < SATURATION_IN_FLIGHT {
            let k = *next_k;
            *next_k += 1;
            let image = pool.image_for(k);
            let sent_us = now_us();
            in_flight.push_back((
                k,
                sent_us,
                engine.submit(SegRequest {
                    id: k,
                    image,
                    deadline_ms: None,
                }),
            ));
            continue;
        }
        let Some((k, sent_us, ticket)) = in_flight.pop_front() else {
            break;
        };
        let resp = ticket.wait_timeout(RESPONSE_TIMEOUT);
        done.push(Done {
            k,
            due_us: sent_us,
            sent_us,
            recv_us: now_us(),
            trace: 0,
            resp,
        });
    }
    // Completions per second in each of `SATURATION_WINDOWS` equal windows;
    // the best window is the capacity the host let the engine show.
    let window_us = ((seconds * 1e6) as u64 / SATURATION_WINDOWS as u64).max(1);
    let mut per_window = [0u64; SATURATION_WINDOWS];
    for d in &done {
        if let Some(SegResponse {
            outcome: Outcome::Completed { .. },
            ..
        }) = d.resp
        {
            let w = (d.recv_us.saturating_sub(start_us) / window_us) as usize;
            if let Some(c) = per_window.get_mut(w) {
                *c += 1;
            }
        }
    }
    let best = per_window.iter().copied().max().unwrap_or(0);
    (done, best as f64 / (window_us as f64 / 1e6))
}

/// Scores a rung against the goodput criteria.
fn score_rung(rate: f64, done: &[Done]) -> RungResult {
    let mut lag = LagLedger::default();
    let last_sent = done.iter().map(|d| d.sent_us).max().unwrap_or(0);
    let mut r = RungResult {
        rate,
        sent: done.len() as u64,
        completed: 0,
        failed: 0,
        below_full: 0,
        over_limit: 0,
        backlog_at_end: 0,
        lag_ms: 0.0,
        achieved_rps: 0.0,
    };
    for d in done {
        lag.record(d.due_us, d.sent_us);
        if d.recv_us > last_sent {
            r.backlog_at_end += 1;
        }
        match &d.resp {
            Some(
                resp @ SegResponse {
                    outcome: Outcome::Completed { .. },
                    ..
                },
            ) => {
                r.completed += 1;
                if resp.tier != Tier::Full {
                    r.below_full += 1;
                }
                if d.latency_ms() > LIMITS.limit_ms {
                    r.over_limit += 1;
                }
            }
            _ => r.failed += 1,
        }
    }
    r.lag_ms = lag.percentile_ms(LIMITS.pct);
    let first_due = done.iter().map(|d| d.due_us).min().unwrap_or(0);
    let last_recv = done.iter().map(|d| d.recv_us).max().unwrap_or(first_due);
    let wall_s = (last_recv.saturating_sub(first_due) as f64 / 1e6).max(1e-9);
    r.achieved_rps = r.completed as f64 / wall_s;
    r
}

/// Output checks on one phase's responses; failures are tallied in `phase`.
struct Checker<'a> {
    cfg: &'a ServeConfig,
    pool: &'a TilePool,
    model: ViTSegmenter,
    references: usize,
}

impl<'a> Checker<'a> {
    fn new(cfg: &'a ServeConfig, pool: &'a TilePool) -> Self {
        Checker {
            cfg,
            pool,
            model: ViTSegmenter::new(cfg.model, cfg.model_seed),
            references: 0,
        }
    }

    fn check(&mut self, done: &[Done], phase: &mut Phase, result: &mut RunResult) {
        let patcher = serving_patcher(TILE, self.cfg.patch_size);
        let pd = self.cfg.patch_size * self.cfg.patch_size;
        for d in done {
            let Some(resp) = &d.resp else {
                phase.record(Err("no_response"));
                continue;
            };
            let Outcome::Completed {
                tokens,
                positive_fraction: pf,
            } = resp.outcome
            else {
                phase.record(Err(resp.outcome.label()));
                continue;
            };
            phase.record(Ok(()));
            if !pf.is_finite() || !(0.0..=1.0).contains(&pf) {
                result.problem(format!("request {}: positive fraction {pf}", d.k));
            }
            let expected = match self.pool.input_for(d.k) {
                Input::Busy(i) => expected_tokens(self.cfg, resp.tier, TILE, self.pool.busy_raw[i]),
                Input::Sample(_) => {
                    // Sample tiles are checked exactly, on the request's own
                    // pixels; at the full tier their sequence fits the
                    // budget, so the answer has no drop seed in it and must
                    // match the solo reference.
                    let img = self.pool.image_for(d.k);
                    if resp.tier == Tier::Full {
                        let (l, pf_ref) = solo_reference(&self.model, self.cfg, &img);
                        self.references += 1;
                        if !within_one_logit(pf, pf_ref, l, pd) {
                            result.problem(format!(
                                "request {}: positive fraction {pf} vs solo reference {pf_ref} ({l} tokens)",
                                d.k
                            ));
                        }
                        l
                    } else {
                        expected_tokens(self.cfg, resp.tier, TILE, raw_len(&patcher, &img))
                    }
                }
            };
            if tokens != expected {
                result.problem(format!(
                    "request {} at {:?}: {tokens} tokens, expected {expected}",
                    d.k, resp.tier
                ));
            }
        }
    }
}

struct Setup {
    engine: ServeEngine,
    pool: TilePool,
    next_k: u64,
}

fn set_up(ctx: &Ctx, tel: Telemetry) -> Result<Setup, String> {
    let cfg = engine_config(tel);
    let engine = ServeEngine::start(cfg.clone());
    let pool = TilePool::new(ctx.seed, &cfg)?;
    // Warm-up: a few requests so worker threads, allocator arenas, and
    // lazily built state exist before timing starts.
    let mut next_k = 0;
    for _ in 0..8 {
        let r = engine
            .submit(SegRequest {
                id: next_k,
                image: pool.image_for(next_k),
                deadline_ms: None,
            })
            .wait()
            .ok_or("engine dropped a warm-up request")?;
        if !matches!(r.outcome, Outcome::Completed { .. }) {
            return Err(format!("warm-up request failed: {:?}", r.outcome));
        }
        next_k += 1;
    }
    Ok(Setup {
        engine,
        pool,
        next_k,
    })
}

fn rung_row(r: &RungResult, done: &[Done], passed: bool) -> String {
    let lat: Vec<f64> = done
        .iter()
        .map(Done::latency_ms)
        .filter(|v| v.is_finite())
        .collect();
    let (p50, p90, tail, pct) = if lat.is_empty() {
        (f64::NAN, f64::NAN, f64::NAN, 0.0)
    } else {
        let s = summarize(&lat);
        (s.p50, s.p90, s.tail, s.tail_pct)
    };
    format!(
        "  {:>6.0} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9.2} {:>9.2} {:>9.2} (p{pct}) {:>7} {:>8.2} {:>9.1}  {}\n",
        r.rate,
        r.sent,
        r.completed,
        r.failed,
        r.below_full,
        r.over_limit,
        p50,
        p90,
        tail,
        r.backlog_at_end,
        r.lag_ms,
        r.achieved_rps,
        if passed { "pass" } else { "fail" }
    )
}

const RUNG_HEADER: &str =
    "  rate/s   sent     ok failed  <full  >lim    p50 ms    p90 ms   tail ms         backlog  lag ms  achieved\n";

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    if ctx.traced {
        return run_traced(ctx);
    }
    let mut result = RunResult::default();
    let (mut setup, setup_s) = repeated_setup(|| set_up(ctx, Telemetry::disabled()))?;
    let cfg = engine_config(Telemetry::disabled());
    let off = Telemetry::disabled();

    // Reference rung: latency below the knee. An attempt whose generator
    // ran late was disturbed by the host, not slowed by the engine: it is
    // run again, and the least disturbed of at most `REFERENCE_ATTEMPTS`
    // attempts is kept.
    let mut attempts: Vec<(Vec<Done>, RungResult)> = Vec::new();
    while attempts.len() < REFERENCE_ATTEMPTS
        && attempts
            .iter()
            .all(|(_, s)| s.lag_ms.is_nan() || s.lag_ms > DISTURBED_LAG_MS)
    {
        let done = run_rung(
            &setup.engine,
            &setup.pool,
            REFERENCE_RATE,
            ctx.seconds * REFERENCE_SHARE,
            &mut setup.next_k,
            &off,
        );
        let score = score_rung(REFERENCE_RATE, &done);
        attempts.push((done, score));
    }
    let best = (0..attempts.len())
        .min_by(|&a, &b| attempts[a].1.lag_ms.total_cmp(&attempts[b].1.lag_ms))
        .expect("at least one attempt ran");
    let (ref_done, ref_score) = attempts.remove(best);
    let discarded: Vec<Vec<Done>> = attempts.into_iter().map(|(d, _)| d).collect();
    let ref_idx = LADDER
        .iter()
        .position(|&r| r == REFERENCE_RATE)
        .expect("reference is a rung");
    let mut search = LadderSearch::new(LADDER.len());
    search.record(ref_idx, ref_score.passes(&LIMITS));
    let mut table = format!(
        "tiles-unique: open-loop ladder (limit p{} <= {} ms)\n{RUNG_HEADER}",
        LIMITS.pct, LIMITS.limit_ms
    );
    for done in &discarded {
        let score = score_rung(REFERENCE_RATE, done);
        table.push_str(&rung_row(&score, done, false));
        table.push_str("    (discarded: disturbed, the generator ran late)\n");
    }
    table.push_str(&rung_row(&ref_score, &ref_done, ref_score.passes(&LIMITS)));

    // Capacity: a saturated closed loop.
    thread::sleep(Duration::from_millis(200));
    let (sat_done, capacity) = run_saturated(
        &setup.engine,
        &setup.pool,
        ctx.seconds * SATURATION_SHARE,
        &mut setup.next_k,
    );
    let _ = writeln!(
        table,
        "  saturated, {SATURATION_IN_FLIGHT} in flight: {} requests, {capacity:.2}/s",
        sat_done.len()
    );

    // The overload probes' backlog depends on which rungs the bisection
    // visits, so the process peak is taken before them.
    let rss_mb = peak_rss_mb();

    // Goodput: bisection over the ladder, a fixed number of probes.
    let mut scores = vec![ref_score.clone()];
    let mut probe_done = Vec::new();
    for _ in 0..MAX_PROBES {
        let Some(idx) = search.next() else { break };
        thread::sleep(Duration::from_millis(200));
        let done = run_rung(
            &setup.engine,
            &setup.pool,
            LADDER[idx],
            ctx.seconds * RUNG_SHARE,
            &mut setup.next_k,
            &off,
        );
        let score = score_rung(LADDER[idx], &done);
        let passed = score.passes(&LIMITS);
        search.record(idx, passed);
        table.push_str(&rung_row(&score, &done, passed));
        scores.push(score);
        probe_done.push((LADDER[idx], done));
    }
    let goodput = select_goodput(&scores, &LIMITS);
    let _ = writeln!(
        table,
        "  goodput: {}",
        goodput.map_or("no rung passed".to_string(), |g| format!(
            "{:.0}/s rung, {:.2}/s achieved",
            g.rate, g.achieved_rps
        ))
    );
    setup.engine.shutdown();

    // Output checks, outside the timed phases.
    let mut checker = Checker::new(&cfg, &setup.pool);
    let mut phase = Phase::new(format!("reference {REFERENCE_RATE}/s"));
    checker.check(&ref_done, &mut phase, &mut result);
    result.counted.push(phase);
    let mut p = Phase::new(format!("saturated, {SATURATION_IN_FLIGHT} in flight"));
    checker.check(&sat_done, &mut p, &mut result);
    result.counted.push(p);
    for done in &discarded {
        let mut p = Phase::new(format!("reference {REFERENCE_RATE}/s, discarded"));
        checker.check(done, &mut p, &mut result);
        result.probes.push(p);
    }
    for (rate, done) in &probe_done {
        let mut p = Phase::new(format!("goodput probe {rate}/s"));
        checker.check(done, &mut p, &mut result);
        result.probes.push(p);
    }
    if checker.references == 0 {
        result.problem("no sample response was checked against the solo reference");
    }

    let lat: Vec<f64> = ref_done.iter().map(Done::latency_ms).collect();
    let s = summarize(&lat);
    result.set("latency_p50_ms", s.p50, Some(s.clone()));
    result.set("throughput_per_s", capacity, None);
    result.set("setup_s", setup_s.p50, Some(setup_s));
    result.set("peak_rss_mb", rss_mb, None);
    let _ = writeln!(
        table,
        "  tile_p50_ms {:.3} ms, tile_p90_ms {:.3} ms, tile_p99_ms {:.3} ms (p{} of {}), tile_goodput_rps {:.2}/s, capacity {:.2}/s, full_tier_share {:.4}, \
         failed_share {:.4}, gen_lag_tail {:.3} ms, solo-reference checks {}",
        s.p50,
        s.p90,
        s.tail,
        s.tail_pct,
        s.n,
        goodput.map_or(0.0, |g| g.achieved_rps),
        capacity,
        ref_score.full_share(),
        ref_score.failed as f64 / ref_score.sent.max(1) as f64,
        ref_score.lag_ms,
        checker.references
    );
    if !generator_kept_up(&ref_score) {
        result.problem(format!(
            "generator p{} lag {:.2} ms at the reference rung exceeds {} ms: the run is invalid",
            LIMITS.pct, ref_score.lag_ms, LIMITS.lag_limit_ms
        ));
    }
    result.extra = vec![
        ("tile_goodput_rps", goodput.map_or(0.0, |g| g.achieved_rps)),
        ("full_tier_share", ref_score.full_share()),
        (
            "failed_share",
            ref_score.failed as f64 / ref_score.sent.max(1) as f64,
        ),
        ("gen_lag_p90_ms", ref_score.lag_ms),
    ];
    result.tables.push(table);
    Ok(result)
}

fn run_traced(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let cfg = engine_config(Telemetry::disabled());
    let phase_s = ctx.seconds * 0.4;

    // Untraced reference phase: the baseline for the tracing overhead.
    let mut plain = set_up(ctx, Telemetry::disabled())?;
    let plain_done = run_rung(
        &plain.engine,
        &plain.pool,
        REFERENCE_RATE,
        phase_s,
        &mut plain.next_k,
        &Telemetry::disabled(),
    );
    plain.engine.shutdown();
    let plain_p50 = summarize(&plain_done.iter().map(Done::latency_ms).collect::<Vec<_>>()).p50;

    // Traced phase: same rate, telemetry through the engine config.
    let tel = tracing_telemetry();
    let mut traced = set_up(ctx, tel.clone())?;
    let traced_done = run_rung(
        &traced.engine,
        &traced.pool,
        REFERENCE_RATE,
        phase_s,
        &mut traced.next_k,
        &tel,
    );
    let batch = traced.engine.batch_stats();
    let cache = traced.engine.cache_stats();
    traced.engine.shutdown();
    let traced_score = score_rung(REFERENCE_RATE, &traced_done);
    let traced_p50 = summarize(&traced_done.iter().map(Done::latency_ms).collect::<Vec<_>>()).p50;

    let mut checker = Checker::new(&cfg, &traced.pool);
    for (name, done) in [
        ("reference, untraced", &plain_done),
        ("reference, traced", &traced_done),
    ] {
        let mut p = Phase::new(name);
        checker.check(done, &mut p, &mut result);
        result.counted.push(p);
    }

    // Stage ledger of each traced request: generator lag, admission on the
    // generator thread, queue wait and linger, the batch on its worker
    // thread, then delivery to the collector.
    let idx = SpanIndex::new(&tel.trace_events());
    let mut paths = Vec::new();
    let mut engine = Vec::new();
    for d in traced_done
        .iter()
        .filter(|d| d.trace != 0 && d.latency_ms().is_finite())
    {
        let Some(e) = engine_spans(&idx, d.trace) else {
            continue;
        };
        let Some(sub) = idx.in_trace(d.trace, "bench.submit").next() else {
            continue;
        };
        let mut p = PathLedger::default();
        p.stages.add(
            "bench.gen_lag (wait)",
            sub.start.saturating_sub(d.due_us) as f64,
        );
        idx.attribute(sub.tid, sub.start, e.submit.end, &mut p.stages);
        e.attribute(&idx, &mut p.stages);
        p.stages.add(
            "serve.respond+collect (wait)",
            d.recv_us.saturating_sub(e.batch.end) as f64,
        );
        p.total = p.stages.total();
        paths.push(p);
        engine.push(e);
    }
    if paths.is_empty() {
        result.problem("traced phase produced no complete span path");
    }
    let (table, unexplained) = stage_table("tiles-unique (tile_p50_ms)", &paths, plain_p50);
    result.tables.push(table);
    result.tables.push(self_time_table("tiles-unique", &idx));
    serve_span_metrics(&mut result, &engine);
    result.set("trace.unexplained_share", unexplained, None);
    result.set("serve.linger_ms", linger_mean_ms(&tel), None);
    let occupancy = batch.map_or(1.0, |b| b.mean_occupancy);
    result.set("serve.batch_occupancy_mean", occupancy, None);
    result.set(
        "serve.cache_hit_share",
        cache.map_or(0.0, |c| c.hit_rate()),
        None,
    );
    result.set("serve.full_tier_share", traced_score.full_share(), None);
    result.set(
        "telemetry.overhead_share",
        overhead_share(traced_p50, plain_p50),
        None,
    );
    let mut lag = LagLedger::default();
    for d in &plain_done {
        lag.record(d.due_us, d.sent_us);
    }
    result.set("bench.gen_lag_tail_ms", lag.tail_ms(), None);

    super::serving_replays(&mut result, &traced.pool.base_images(), &cfg, occupancy);
    if tel.trace_evicted() > 0 {
        result.problem(format!(
            "{} spans were evicted from the trace ring",
            tel.trace_evicted()
        ));
    }
    Ok(result)
}
