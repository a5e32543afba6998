//! Soak test of the hardened socket front door: N client threads hammer a
//! loopback `WireServer` with a seeded mix of patch, whole-slide, invalid,
//! and over-quota traffic while seeded socket faults (torn frames, stalled
//! slow-loris writes, abrupt disconnects, garbage bytes) mangle the wire —
//! then drain the server mid-soak and prove the front-door invariants:
//!
//! * the server never panics — not in a connection handler, not in the
//!   accept loop, not in an engine worker (reaching the report at all
//!   means the process survived),
//! * no orphaned worker slots: every request the engine admitted got
//!   exactly one response before shutdown,
//! * quota accounting is exact per tenant (`checked == granted +
//!   rejected`), the over-quota tenant was actually throttled, the
//!   registry counters agree with the gate's ledgers, and the flooded
//!   tenant never starved the others,
//! * the drain completed within its bound and every connection closed by
//!   it observed a terminal `GoAway`,
//! * every client-side failure is typed ([`ClientError`]) — no client
//!   thread panicked, and every call landed in exactly one outcome
//!   bucket.
//!
//! Usage: `cargo run --release -p apf-bench --bin frontdoor_soak
//!         [--clients 6] [--requests 18] [--seed 7] [--quick]`
//!
//! `--scale` switches to the high-volume batched mode: >= 10^5 clean
//! requests from a small repeated-slide pool against a continuous-batching
//! engine, gating that every request completes, the preprocessing cache
//! lands >= 90% hits, batches actually form (mean occupancy > 1), and no
//! engine response slot is orphaned. Archived separately as
//! `results/frontdoor_soak_scale.json` so the faulted soak's artifacts
//! stay untouched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apf_bench::report::results_dir;
use apf_bench::{print_table, save_atomic, save_json, Args};
use apf_serve::wire::{
    read_frame, AdminRequest, ClientConfig, ClientError, FrameKind, NetFaultPlan, NetFaultRates,
    QuotaConfig, QuotaLimit, TenantAccount, WireClient, WireConfig, WireRequest, WireServer,
    WireStatus, DEFAULT_MAX_PAYLOAD,
};
use apf_serve::{
    BatchConfig, BatchStatsSnapshot, BreakerConfig, CacheStats, DegradationPolicy, InferenceFault,
    InferenceFaultKind, ServeConfig, ServeEngine, ServeFaultPlan, ServeFaultRates, ServeMetrics,
    WorkerReport,
};
use apf_telemetry::{Telemetry, TelemetrySnapshot};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Tenant id of the deliberately starved client.
const POOR_TENANT_OFFSET: u64 = 1;

/// One client thread's typed outcome ledger. `calls` must equal the sum of
/// the outcome buckets — an untyped escape has nowhere to hide.
#[derive(Debug, Default, Clone, Serialize)]
struct ClientLedger {
    tenant: u64,
    calls: u64,
    ok: u64,
    slide_ok: u64,
    terminal_invalid: u64,
    terminal_deadline: u64,
    exhausted: u64,
    budget_exhausted: u64,
    wire_failures: u64,
    attempts: u64,
    retries: u64,
    goaways_seen: u64,
    over_quota_seen: u64,
    faults_injected: u64,
}

impl ClientLedger {
    fn outcomes(&self) -> u64 {
        self.ok
            + self.slide_ok
            + self.terminal_invalid
            + self.terminal_deadline
            + self.exhausted
            + self.budget_exhausted
            + self.wire_failures
    }
}

#[derive(Serialize)]
struct SoakReport {
    clients: usize,
    requests_per_client: u64,
    seed: u64,
    injected_socket_faults: usize,
    injected_engine_faults: usize,
    // Front-door accounting.
    connections_total: u64,
    connections_at_drain: usize,
    goaways_sent: u64,
    conn_limit_rejections: u64,
    drain_ms: f64,
    drain_deadline_ms: u64,
    drain_within_bound: bool,
    server_panics: u64,
    // Quota accounting.
    quota_accounts: Vec<TenantAccount>,
    quota_granted: u64,
    quota_rejected: u64,
    /// `sum(checked - granted - rejected)` over tenants; exactness means 0.
    quota_drift: u64,
    // Engine accounting.
    engine_metrics: ServeMetrics,
    worker_reports: Vec<WorkerReport>,
    engine_submitted: u64,
    engine_responses: u64,
    // Client accounting.
    client_ledgers: Vec<ClientLedger>,
    calls_total: u64,
    calls_ok: u64,
    /// Calls that did not land in a typed outcome bucket (client panics
    /// included); the gate requires exactly 0.
    untyped_client_failures: u64,
    // Verdicts (every one is also asserted; the JSON archives them).
    zero_server_panics: bool,
    no_orphaned_worker_slots: bool,
    quota_accounting_exact: bool,
    registry_agrees_with_quota_gate: bool,
    poor_tenant_throttled: bool,
    rich_tenants_unstarved: bool,
    drained_connections_got_goaway: bool,
    idle_connections_observed_goaway: bool,
    all_client_failures_typed: bool,
    // Tracing / flight-recorder / admin-plane verdicts (PR 8).
    probe_trace_id: u64,
    trace_complete: bool,
    admin_matches_prom: bool,
    flight_dump_ok: bool,
}

/// Reads a labelled counter out of a registry snapshot (0 if absent).
fn counter(snap: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    snap.get(name, labels).map_or(0, |m| m.value as u64)
}

/// The per-client request mix, drawn from the client's own seeded RNG.
fn draw_request(
    rng: &mut ChaCha8Rng,
    slide_path: &std::path::Path,
    out_dir: &std::path::Path,
    tenant: u64,
    call: u64,
    slide_window: u32,
) -> WireRequest {
    let roll: f64 = rng.gen();
    if roll < 0.08 {
        // Invalid: NaN pixels; the server must answer terminal InvalidInput.
        WireRequest::Segment { deadline_ms: 0, width: 8, height: 8, pixels: vec![f32::NAN; 64] }
    } else if roll < 0.16 {
        // Whole-slide request (server-local paths, unique output per call).
        WireRequest::Slide {
            deadline_ms: 0,
            window: slide_window,
            halo: slide_window / 8,
            cache_budget_bytes: 1 << 20,
            stitch_workers: 1,
            slide_path: slide_path.display().to_string(),
            output_path: out_dir
                .join(format!("frontdoor_out_t{tenant}_c{call}.apt1"))
                .display()
                .to_string(),
        }
    } else {
        let side = if rng.gen_bool(0.3) { 64 } else { 32 };
        let a = rng.gen_range(1usize..13);
        let b = rng.gen_range(1usize..13);
        let pixels = (0..side * side)
            .map(|i| {
                let (x, y) = (i % side, i / side);
                ((x * a + y * b) % 97) as f32 / 96.0
            })
            .collect();
        WireRequest::Segment {
            deadline_ms: 0,
            width: side as u32,
            height: side as u32,
            pixels,
        }
    }
}

/// Archived verdicts of the `--scale` mode. Every boolean is also asserted
/// in-process; the JSON lets `check.sh` gate on the same facts.
#[derive(Serialize)]
struct ScaleReport {
    clients: usize,
    requests_per_client: u64,
    requests_total: u64,
    seed: u64,
    max_batch: usize,
    batch_linger_ms: u64,
    elapsed_s: f64,
    throughput_rps: f64,
    calls_ok: u64,
    typed_client_failures: u64,
    untyped_client_failures: u64,
    engine_submitted: u64,
    engine_responses: u64,
    no_orphaned_worker_slots: bool,
    batch: BatchStatsSnapshot,
    batching_active: bool,
    cache: CacheStats,
    cache_hit_rate: f64,
    cache_hit_rate_ok: bool,
    server_panics: u64,
    engine_metrics: ServeMetrics,
}

/// The `--scale` soak: a clean high-volume workload (no injected faults,
/// no starved tenant, no mid-soak drain) that exists to prove the batched
/// front door holds up at >= 10^5 requests.
fn run_scale_soak(args: &Args) {
    let quick = args.flag("quick");
    let clients = args.get("clients", 16usize);
    let requests = args.get("requests", if quick { 256u64 } else { 6_400 });
    let seed = args.get("seed", 7u64);
    let total = clients as u64 * requests;
    if !quick {
        assert!(total >= 100_000, "scale soak must cover >= 1e5 requests, got {total}");
    }
    let max_batch = 16usize;
    let batch_linger_ms = 2u64;

    let tel = Telemetry::enabled();
    let policy = DegradationPolicy::default();
    let engine = Arc::new(ServeEngine::start(ServeConfig {
        workers: 2,
        // Deep enough that 16 in-flight clients never cross the
        // degradation thresholds: one tier means one cache variant per
        // slide in the pool.
        queue_capacity: 256,
        patch_size: 4,
        model: apf_models::vit::ViTConfig::tiny(16, policy.full_len),
        model_seed: seed,
        default_deadline_ms: None,
        retry_after_ms: 25,
        poll_ms: 1,
        breaker: BreakerConfig::default(),
        policy,
        faults: ServeFaultPlan::none(),
        batch: BatchConfig::batched(max_batch, batch_linger_ms),
        telemetry: tel.clone(),
        flight_dump_dir: None,
    }));
    let server = WireServer::start(
        Arc::clone(&engine),
        WireConfig {
            read_timeout_ms: 50,
            write_timeout_ms: 5_000,
            max_connections: clients * 2,
            drain_deadline_ms: 30_000,
            quota: QuotaConfig {
                default_limit: QuotaLimit { burst: 1e9, per_sec: 1e9 },
                overrides: vec![],
            },
            telemetry: tel.clone(),
            flight_dump_dir: None,
            ..WireConfig::default()
        },
    )
    .expect("bind loopback front door");
    let addr = server.local_addr();
    println!(
        "frontdoor_soak --scale: {clients} clients x {requests} requests ({total} total), \
         batching {max_batch}x{batch_linger_ms}ms, server {addr}"
    );

    // A pool of 8 repeated slides: every request re-sends one of these 8
    // pixel buffers, so after 8 builds the preprocessing cache should
    // answer everything (hit rate ~ 1 - 8/total).
    let pool: Arc<Vec<Vec<f32>>> = Arc::new(
        (0..8u64)
            .map(|s| {
                (0..32 * 32)
                    .map(|i| {
                        let (x, y) = (i % 32, i / 32);
                        (((x * (3 + s as usize)) ^ (y * (5 + s as usize))) % 97) as f32 / 96.0
                    })
                    .collect()
            })
            .collect(),
    );

    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let pool = Arc::clone(&pool);
        handles.push(
            std::thread::Builder::new()
                .name(format!("scale-client-{c}"))
                .spawn(move || {
                    let mut cli = WireClient::connect(
                        addr,
                        ClientConfig {
                            tenant: c as u64,
                            seed: 0x5ca1e ^ c as u64,
                            max_attempts: 6,
                            base_backoff_ms: 2,
                            max_backoff_ms: 200,
                            attempt_budget_ms: 60_000,
                            read_timeout_ms: 60_000,
                            ..ClientConfig::default()
                        },
                    );
                    let (mut ok, mut failed) = (0u64, 0u64);
                    for k in 0..requests {
                        let pixels = pool[(c as u64 + k) as usize % pool.len()].clone();
                        match cli.call(&WireRequest::Segment {
                            deadline_ms: 0,
                            width: 32,
                            height: 32,
                            pixels,
                        }) {
                            Ok(WireStatus::Ok { .. }) => ok += 1,
                            _ => failed += 1,
                        }
                    }
                    (ok, failed)
                })
                .expect("spawn scale client"),
        );
    }
    let mut calls_ok = 0u64;
    let mut typed_client_failures = 0u64;
    let mut untyped_client_failures = 0u64;
    for h in handles {
        match h.join() {
            Ok((ok, failed)) => {
                calls_ok += ok;
                typed_client_failures += failed;
            }
            Err(_) => untyped_client_failures += 1,
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    let drain = server.drain();
    let engine = Arc::try_unwrap(engine).ok().expect("engine still shared after drain");
    let report = engine.shutdown();
    let batch = report.batch.clone().expect("batched engine reports batch stats");
    let cache = report.cache.clone().expect("batched engine reports cache stats");

    // ---- Gates (asserted here, archived for check.sh) ----------------
    assert_eq!(untyped_client_failures, 0, "client thread(s) panicked");
    assert_eq!(
        calls_ok, total,
        "a clean workload must complete every request ({typed_client_failures} failed)"
    );
    let no_orphaned_worker_slots = report.metrics.responses() == report.metrics.submitted;
    assert!(
        no_orphaned_worker_slots,
        "orphaned worker slots: {} submitted, {} answered",
        report.metrics.submitted,
        report.metrics.responses()
    );
    assert_eq!(drain.conn_panics, 0, "connection handlers panicked");
    let cache_hit_rate = cache.hit_rate();
    let cache_hit_rate_ok = cache_hit_rate >= 0.90;
    assert!(
        cache_hit_rate_ok,
        "repeated-slide pool must land >= 90% cache hits, got {cache_hit_rate:.4}"
    );
    let batching_active = batch.mean_occupancy > 1.0 && batch.batches < batch.batched_requests;
    assert!(
        batching_active,
        "batches never formed under 16 concurrent clients: {batch:?}"
    );

    let scale = ScaleReport {
        clients,
        requests_per_client: requests,
        requests_total: total,
        seed,
        max_batch,
        batch_linger_ms,
        elapsed_s,
        throughput_rps: total as f64 / elapsed_s,
        calls_ok,
        typed_client_failures,
        untyped_client_failures,
        engine_submitted: report.metrics.submitted,
        engine_responses: report.metrics.responses(),
        no_orphaned_worker_slots,
        batching_active,
        batch,
        cache_hit_rate,
        cache_hit_rate_ok,
        cache,
        server_panics: drain.conn_panics,
        engine_metrics: report.metrics.clone(),
    };
    print_table(
        "front door scale soak",
        &["metric", "value"],
        &[
            vec!["requests".into(), scale.requests_total.to_string()],
            vec!["ok".into(), scale.calls_ok.to_string()],
            vec!["elapsed s".into(), format!("{:.1}", scale.elapsed_s)],
            vec!["throughput rps".into(), format!("{:.0}", scale.throughput_rps)],
            vec!["batches".into(), scale.batch.batches.to_string()],
            vec!["mean occupancy".into(), format!("{:.2}", scale.batch.mean_occupancy)],
            vec!["cache hit rate".into(), format!("{:.4}", scale.cache_hit_rate)],
        ],
    );
    save_json("frontdoor_soak_scale", &scale);
    println!("frontdoor_soak --scale: all scale invariants held");
}

fn main() {
    let args = Args::parse();
    if args.flag("scale") {
        run_scale_soak(&args);
        return;
    }
    let quick = args.flag("quick");
    let clients = args.get("clients", if quick { 4usize } else { 6 });
    let requests = args.get("requests", if quick { 12u64 } else { 18 });
    let seed = args.get("seed", 7u64);
    if clients < 2 || requests < 6 {
        eprintln!("frontdoor_soak: need --clients >= 2 and --requests >= 6 (got {clients}, {requests})");
        std::process::exit(2);
    }

    // Engine: small model, light seeded worker faults so WorkerFailure
    // statuses cross the wire too.
    let tel = Telemetry::enabled();
    let policy = DegradationPolicy::default();
    let mut engine_fault_events = ServeFaultPlan::random(
        seed ^ 0xE6,
        clients as u64 * requests,
        2,
        ServeFaultRates::default(),
    )
    .events()
    .to_vec();
    // One guaranteed worker panic, so the flight-recorder dump the gate
    // requires exists regardless of what the seeded plan drew.
    engine_fault_events.push(InferenceFault {
        worker: 0,
        nth: 3,
        kind: InferenceFaultKind::WorkerPanic,
    });
    let engine_faults = ServeFaultPlan::new(engine_fault_events);
    let injected_engine_faults = engine_faults.events().len();

    // Stale flight dumps from a previous run would satisfy the end-of-run
    // assertions vacuously; clear them first.
    let dump_dir = results_dir();
    if let Ok(entries) = std::fs::read_dir(&dump_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("flight_") && name.ends_with(".jsonl") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    let engine = Arc::new(ServeEngine::start(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        patch_size: 4,
        model: apf_models::vit::ViTConfig::tiny(16, policy.full_len),
        model_seed: seed,
        default_deadline_ms: Some(5_000),
        retry_after_ms: 25,
        poll_ms: 1,
        breaker: BreakerConfig { failure_threshold: 3, cooldown_polls: 4, half_open_successes: 2 },
        policy,
        faults: engine_faults,
        batch: BatchConfig::solo(),
        telemetry: tel.clone(),
        flight_dump_dir: Some(dump_dir.clone()),
    }));

    // A small on-disk slide shared by every whole-slide request.
    let soak_dir = std::env::temp_dir().join("apf_frontdoor_soak");
    std::fs::create_dir_all(&soak_dir).expect("create soak scratch dir");
    let slide_path = soak_dir.join("frontdoor_slide.apt1");
    let slide_window: u32 = 64;
    apf_gigapixel::write_tiled(&slide_path, 128, 128, 32, |_, _, x0, y0, w, h| {
        (0..w * h)
            .map(|i| (((x0 + i % w) * 7 + (y0 + i / w) * 13) % 97) as f32 / 96.0)
            .collect()
    })
    .expect("write soak slide container");

    // Quotas: every tenant generous except the designated poor one, which
    // gets a bucket small enough to be rejected within its first calls.
    let poor_tenant = POOR_TENANT_OFFSET;
    let server = WireServer::start(
        Arc::clone(&engine),
        WireConfig {
            read_timeout_ms: 50,
            write_timeout_ms: 1_000,
            max_connections: clients * 4,
            drain_deadline_ms: 15_000,
            quota: QuotaConfig {
                default_limit: QuotaLimit { burst: 1e6, per_sec: 1e6 },
                overrides: vec![(poor_tenant, QuotaLimit { burst: 3.0, per_sec: 0.5 })],
            },
            telemetry: tel.clone(),
            flight_dump_dir: Some(dump_dir.clone()),
            ..WireConfig::default()
        },
    )
    .expect("bind loopback front door");
    let addr = server.local_addr();
    println!(
        "frontdoor_soak: {clients} clients x {requests} requests, seed {seed}, \
         server {addr}, poor tenant {poor_tenant}, {injected_engine_faults} engine faults"
    );

    // ---- Traced probe + admin plane ----------------------------------
    // One traced whole-slide request before the fleet: its spans must
    // stitch into a single trace covering client -> wire server -> engine
    // -> >= 2 stitch workers -> merge, archived as a Chrome trace. It runs
    // (and is verified) before the untraced soak traffic can evict it
    // from the bounded span ring.
    let mut probe = WireClient::connect(
        addr,
        ClientConfig {
            tenant: 42,
            seed: seed ^ 0x7AACE,
            attempt_budget_ms: 30_000,
            read_timeout_ms: 30_000,
            telemetry: tel.clone(),
            ..ClientConfig::default()
        },
    );
    let mut probe_trace_id = 0u64;
    let mut trace_complete = false;
    for attempt in 0..3 {
        let output = soak_dir.join(format!("frontdoor_probe_out_{attempt}.apt1"));
        let status = probe
            .call(&WireRequest::Slide {
                deadline_ms: 0,
                window: slide_window,
                halo: slide_window / 8,
                cache_budget_bytes: 1 << 20,
                stitch_workers: 2,
                slide_path: slide_path.display().to_string(),
                output_path: output.display().to_string(),
            })
            .expect("traced probe slide");
        assert!(matches!(status, WireStatus::SlideOk { .. }), "probe got {status:?}");
        let _ = std::fs::remove_file(&output);
        // The server-side request span completes just after the response
        // hits the socket; give it a beat before reading the ring.
        std::thread::sleep(Duration::from_millis(150));
        let events = tel.trace_events();
        probe_trace_id = events
            .iter()
            .rev()
            .find(|e| e.name == "wire.client.call" && e.trace_id != 0)
            .map(|e| e.trace_id)
            .expect("probe call span is traced");
        let in_trace: Vec<_> = events.iter().filter(|e| e.trace_id == probe_trace_id).collect();
        let has = |name: &str| in_trace.iter().any(|e| e.name == name);
        let infer_tids: std::collections::HashSet<u64> = in_trace
            .iter()
            .filter(|e| e.name == "gigapixel.window_infer")
            .map(|e| e.tid)
            .collect();
        let span_ids: std::collections::HashSet<u64> =
            in_trace.iter().map(|e| e.span_id).collect();
        let no_orphans =
            in_trace.iter().all(|e| e.parent_span == 0 || span_ids.contains(&e.parent_span));
        trace_complete = has("wire.client.call")
            && has("serve.wire.request")
            && has("serve.request")
            && has("gigapixel.window_merge")
            && infer_tids.len() >= 2
            && no_orphans;
        if trace_complete {
            break;
        }
        // One stitch worker can win the spawn race and run every window;
        // retry under a fresh trace rather than flake.
        println!("frontdoor_soak: probe trace incomplete on attempt {attempt}, retrying");
    }
    assert!(trace_complete, "probe trace did not stitch end to end");
    save_atomic("frontdoor_trace.json", &tel.chrome_trace_json());

    // The admin plane must tell the same story as the in-process registry.
    // Wire-door counters move with the admin exchange itself (the response
    // is accounted after the body renders), so both sides are compared
    // with `apf_serve_wire_*` lines stripped.
    let health = probe.admin(&AdminRequest::Health).expect("admin health");
    assert!(health.ok && health.body == "serving", "health: {health:?}");
    let prom = probe.admin(&AdminRequest::MetricsProm).expect("admin metrics");
    assert!(prom.ok, "admin metrics refused: {}", prom.body);
    let strip = |s: &str| -> String {
        s.lines().filter(|l| !l.contains("apf_serve_wire_")).collect::<Vec<_>>().join("\n")
    };
    let admin_matches_prom = strip(&prom.body) == strip(&tel.render_prometheus());
    assert!(admin_matches_prom, "admin metrics diverge from the registry exposition");
    let dump = probe.admin(&AdminRequest::FlightDump).expect("admin flight dump");
    assert!(dump.ok && !dump.body.is_empty(), "admin flight dump empty");
    assert!(
        dump.body.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
        "admin flight dump is not JSONL"
    );
    drop(probe);

    // Client fleet. Each thread owns a WireClient with its own seed and
    // socket-fault plan; successes are counted into a shared atomic the
    // main thread watches to time the mid-soak drain.
    let successes = Arc::new(AtomicU64::new(0));
    let mut injected_socket_faults = 0usize;
    let mut handles = Vec::new();
    for c in 0..clients {
        let tenant = c as u64;
        let client_seed = seed ^ (0xC11E << 8) ^ tenant;
        let fault_plan = if tenant == poor_tenant {
            // The starved tenant keeps a clean wire so its rejections are
            // unambiguously quota rejections.
            NetFaultPlan::none()
        } else {
            NetFaultPlan::random(client_seed, requests * 4, NetFaultRates::default())
        };
        injected_socket_faults += fault_plan.events().len();
        let slide_path = slide_path.clone();
        let out_dir = soak_dir.clone();
        let successes = Arc::clone(&successes);
        handles.push(
            std::thread::Builder::new()
                .name(format!("frontdoor-client-{c}"))
                .spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(client_seed ^ 0x5eed);
                    let cfg = ClientConfig {
                        tenant,
                        seed: client_seed,
                        max_attempts: if tenant == poor_tenant { 2 } else { 5 },
                        base_backoff_ms: 4,
                        max_backoff_ms: 120,
                        attempt_budget_ms: 8_000,
                        read_timeout_ms: 8_000,
                        ..ClientConfig::default()
                    };
                    let mut cli = WireClient::connect(addr, cfg).with_faults(fault_plan);
                    let mut ledger = ClientLedger { tenant, ..ClientLedger::default() };
                    for call in 0..requests {
                        let req = draw_request(
                            &mut rng,
                            &slide_path,
                            &out_dir,
                            tenant,
                            call,
                            slide_window,
                        );
                        ledger.calls += 1;
                        match cli.call(&req) {
                            Ok(WireStatus::Ok { .. }) => {
                                ledger.ok += 1;
                                successes.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(WireStatus::SlideOk { .. }) => {
                                ledger.slide_ok += 1;
                                successes.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(other) => unreachable!("non-terminal success {other:?}"),
                            Err(ClientError::Terminal { status }) => match status {
                                WireStatus::InvalidInput { .. } => ledger.terminal_invalid += 1,
                                WireStatus::DeadlineExceeded { .. } => ledger.terminal_deadline += 1,
                                other => unreachable!("retryable status was terminal: {other:?}"),
                            },
                            Err(ClientError::Wire(_)) => ledger.wire_failures += 1,
                            Err(ClientError::Exhausted { .. }) => ledger.exhausted += 1,
                            Err(ClientError::BudgetExhausted { .. }) => {
                                ledger.budget_exhausted += 1
                            }
                        }
                    }
                    let stats = cli.stats();
                    ledger.attempts = stats.attempts;
                    ledger.retries = stats.retries;
                    ledger.goaways_seen = stats.goaways_seen;
                    ledger.over_quota_seen = stats.over_quota_seen;
                    ledger.faults_injected = stats.faults_injected;
                    ledger
                })
                .expect("spawn client thread"),
        );
    }

    // Mid-soak drain: wait until the fleet has landed a meaningful number
    // of successes (or a hard cap expires), then pull the plug while
    // clients are still sending. Everything after this point must fail
    // *typed* on the client side.
    let drain_trigger = (clients as u64 * requests) / 4;
    let t0 = Instant::now();
    while successes.load(Ordering::Relaxed) < drain_trigger
        && t0.elapsed() < Duration::from_secs(60)
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "frontdoor_soak: draining at {} successes after {:.1}s",
        successes.load(Ordering::Relaxed),
        t0.elapsed().as_secs_f64()
    );
    // Two raw idle connections parked across the drain: the acceptance
    // gate requires every live connection to observe a terminal GoAway.
    let idlers: Vec<std::net::TcpStream> = (0..2)
        .map(|_| {
            let s = std::net::TcpStream::connect(addr).expect("park idle connection");
            s.set_read_timeout(Some(Duration::from_secs(20))).expect("idler read timeout");
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(60)); // let the accept loop adopt them
    let drain = server.drain();
    let mut idle_goaways = 0u64;
    for mut s in idlers {
        let frame = read_frame(&mut s, DEFAULT_MAX_PAYLOAD).expect("idle connection reads GoAway");
        assert_eq!(frame.kind, FrameKind::GoAway, "idler got a non-GoAway terminal frame");
        match WireStatus::decode(&frame.payload).expect("decode GoAway status") {
            WireStatus::GoAway { retry_after_ms } => assert!(retry_after_ms >= 1),
            other => panic!("idler got {other:?}"),
        }
        idle_goaways += 1;
    }
    let idle_connections_observed_goaway = idle_goaways == 2;
    assert!(idle_connections_observed_goaway);

    // Clients finish their remaining calls against a dead door.
    let mut client_ledgers = Vec::new();
    let mut untyped_client_failures = 0u64;
    for h in handles {
        match h.join() {
            Ok(ledger) => client_ledgers.push(ledger),
            Err(_) => untyped_client_failures += 1,
        }
    }

    // The server threads are joined; the engine has exactly one owner left.
    let engine = Arc::try_unwrap(engine).ok().expect("engine still shared after drain");
    let report = engine.shutdown();

    // ---- Invariant checks (the binary IS the gate: any violation panics
    // the process, which check.sh treats as failure) ----
    let zero_server_panics = drain.conn_panics == 0;
    assert!(zero_server_panics, "{} connection handlers panicked", drain.conn_panics);

    let no_orphaned_worker_slots = report.metrics.responses() == report.metrics.submitted;
    assert!(
        no_orphaned_worker_slots,
        "orphaned worker slots: {} submitted, {} answered",
        report.metrics.submitted,
        report.metrics.responses()
    );

    // Quota exactness, per tenant and in aggregate.
    let quota_accounting_exact = drain.quota_accounts.iter().all(TenantAccount::is_consistent);
    assert!(quota_accounting_exact, "inconsistent quota ledger: {:?}", drain.quota_accounts);
    let quota_drift: u64 = drain
        .quota_accounts
        .iter()
        .map(|a| a.checked - a.granted - a.rejected)
        .sum();
    assert_eq!(quota_drift, 0, "quota drift detected");
    let quota_granted: u64 = drain.quota_accounts.iter().map(|a| a.granted).sum();
    let quota_rejected: u64 = drain.quota_accounts.iter().map(|a| a.rejected).sum();

    // The registry tells the same story as the gate's internal ledgers.
    let snap = tel.snapshot();
    let registry_agrees_with_quota_gate = counter(&snap, "apf_serve_quota_granted_total", &[])
        == quota_granted
        && counter(&snap, "apf_serve_quota_rejections_total", &[]) == quota_rejected;
    assert!(
        registry_agrees_with_quota_gate,
        "registry quota counters disagree with the gate: granted {} vs {}, rejected {} vs {}",
        counter(&snap, "apf_serve_quota_granted_total", &[]),
        quota_granted,
        counter(&snap, "apf_serve_quota_rejections_total", &[]),
        quota_rejected,
    );

    // The poor tenant was throttled; every OverQuota a client saw is
    // backed by a gate rejection.
    let poor = drain.quota_accounts.iter().find(|a| a.tenant == poor_tenant);
    let poor_tenant_throttled = poor.is_some_and(|a| a.rejected > 0);
    assert!(poor_tenant_throttled, "the starved tenant was never rejected: {poor:?}");
    let over_quota_seen: u64 = client_ledgers.iter().map(|l| l.over_quota_seen).sum();
    assert!(
        quota_rejected >= over_quota_seen,
        "clients saw {over_quota_seen} OverQuota but the gate only rejected {quota_rejected}"
    );

    // Fairness: no rich tenant was ever quota-rejected.
    let rich_tenants_unstarved = drain
        .quota_accounts
        .iter()
        .filter(|a| a.tenant != poor_tenant)
        .all(|a| a.rejected == 0);
    assert!(rich_tenants_unstarved, "a rich tenant hit quota: {:?}", drain.quota_accounts);

    // Drain: inside the bound, and every drain-closed connection got its
    // terminal GoAway.
    assert!(
        drain.completed_within_bound,
        "drain took {:.0} ms (bound {} ms)",
        drain.drain_ms, drain.drain_deadline_ms
    );
    let drained_connections_got_goaway = drain
        .connections
        .iter()
        .filter(|c| c.close_cause == "drain")
        .all(|c| c.goaway_sent);
    assert!(drained_connections_got_goaway, "a drained connection missed its GoAway");

    // Every client call landed in exactly one typed bucket, and no client
    // thread panicked.
    assert_eq!(untyped_client_failures, 0, "client thread(s) panicked");
    for ledger in &client_ledgers {
        assert_eq!(
            ledger.calls,
            ledger.outcomes(),
            "tenant {} leaked an untyped outcome: {ledger:?}",
            ledger.tenant
        );
    }
    let all_client_failures_typed = true;
    let calls_total: u64 = client_ledgers.iter().map(|l| l.calls).sum();
    let calls_ok: u64 = client_ledgers.iter().map(|l| l.ok + l.slide_ok).sum();
    assert_eq!(calls_total, clients as u64 * requests);
    assert!(calls_ok > 0, "no call ever succeeded before the drain");

    // Slide outputs: completed slides left readable containers; clean up.
    for entry in std::fs::read_dir(&soak_dir).expect("scan soak dir") {
        let path = entry.expect("dir entry").path();
        if path.file_name().is_some_and(|n| n.to_string_lossy().starts_with("frontdoor_out_")) {
            apf_gigapixel::TileStore::open(&path)
                .unwrap_or_else(|e| panic!("slide output {path:?} unreadable: {e}"));
            let _ = std::fs::remove_file(&path);
        }
    }

    // The injected worker panic must have left a black-box dump holding
    // the panic event plus the window of events that preceded it.
    let mut flight_dump_ok = false;
    if let Ok(entries) = std::fs::read_dir(&dump_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !(name.starts_with("flight_panic_") && name.ends_with(".jsonl")) {
                continue;
            }
            let body = std::fs::read_to_string(entry.path()).unwrap_or_default();
            let lines: Vec<&str> = body.lines().collect();
            if let Some(i) = lines.iter().position(|l| l.contains("\"kind\":\"worker_panic\"")) {
                if i > 0 {
                    flight_dump_ok = true;
                }
            }
        }
    }
    assert!(flight_dump_ok, "no flight dump with a preceding window from the injected panic");

    let soak = SoakReport {
        clients,
        requests_per_client: requests,
        seed,
        injected_socket_faults,
        injected_engine_faults,
        connections_total: drain.connections_total,
        connections_at_drain: drain.connections_at_drain,
        goaways_sent: drain.goaways_sent,
        conn_limit_rejections: drain.conn_limit_rejections,
        drain_ms: drain.drain_ms,
        drain_deadline_ms: drain.drain_deadline_ms,
        drain_within_bound: drain.completed_within_bound,
        server_panics: drain.conn_panics,
        quota_accounts: drain.quota_accounts.clone(),
        quota_granted,
        quota_rejected,
        quota_drift,
        engine_metrics: report.metrics.clone(),
        worker_reports: report.workers.clone(),
        engine_submitted: report.metrics.submitted,
        engine_responses: report.metrics.responses(),
        client_ledgers: client_ledgers.clone(),
        calls_total,
        calls_ok,
        untyped_client_failures,
        zero_server_panics,
        no_orphaned_worker_slots,
        quota_accounting_exact,
        registry_agrees_with_quota_gate,
        poor_tenant_throttled,
        rich_tenants_unstarved,
        drained_connections_got_goaway,
        idle_connections_observed_goaway,
        all_client_failures_typed,
        probe_trace_id,
        trace_complete,
        admin_matches_prom,
        flight_dump_ok,
    };

    print_table(
        "front door soak",
        &["metric", "value"],
        &[
            vec!["connections".into(), soak.connections_total.to_string()],
            vec!["goaways sent".into(), soak.goaways_sent.to_string()],
            vec!["drain ms".into(), format!("{:.0}", soak.drain_ms)],
            vec!["quota granted".into(), soak.quota_granted.to_string()],
            vec!["quota rejected".into(), soak.quota_rejected.to_string()],
            vec!["calls ok".into(), soak.calls_ok.to_string()],
            vec![
                "calls failed (typed)".into(),
                (soak.calls_total - soak.calls_ok).to_string(),
            ],
            vec!["engine submitted".into(), soak.engine_submitted.to_string()],
            vec!["server panics".into(), soak.server_panics.to_string()],
            vec!["probe trace".into(), format!("{:#x}", soak.probe_trace_id)],
            vec!["trace complete".into(), soak.trace_complete.to_string()],
            vec!["admin parity".into(), soak.admin_matches_prom.to_string()],
            vec!["flight dump".into(), soak.flight_dump_ok.to_string()],
        ],
    );
    save_json("frontdoor_soak", &soak);
    save_atomic("frontdoor_soak_metrics.prom", &snap.render_prometheus());
    println!("frontdoor_soak: all front-door invariants held");
}
