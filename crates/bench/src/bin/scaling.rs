//! Strong-scaling study of data-parallel APF training: measured on real OS
//! threads up to the machine's core count, extended to Frontier scale by
//! the calibrated cluster model. Complements Table II by showing the
//! mechanism (compute shrinks per worker, all-reduce does not).
//!
//! Usage: `cargo run --release -p apf-bench --bin scaling
//!         [--res 64] [--batch 8] [--quick]`

use apf_bench::{print_table, save_json, Args};
use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_distsim::allreduce::{ring_allreduce_seconds, tree_allreduce_seconds};
use apf_distsim::cluster::{calibrate, ClusterModel};
use apf_distsim::cost::ModelDims;
use apf_distsim::engine::DataParallelEngine;
use apf_distsim::gpu::Fabric;
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_models::rearrange::GridOrder;
use apf_models::unetr::{Unetr2d, UnetrConfig};
use apf_telemetry::Telemetry;
use apf_train::data::TokenSegDataset;
use apf_train::optim::AdamWConfig;
use serde::Serialize;

#[derive(Serialize)]
struct MeasuredRow {
    workers: usize,
    step_s: f64,
    compute_s: f64,
    sync_s: f64,
    speedup: f64,
    efficiency: f64,
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let res = args.get("res", 64usize);
    let batch = args.get("batch", if quick { 4 } else { 8 });

    // Dataset + model.
    let gen = PaipGenerator::new(PaipConfig::at_resolution(res));
    let pairs: Vec<_> = (0..batch)
        .map(|i| {
            let s = gen.generate(i);
            (s.image, s.mask)
        })
        .collect();
    let patcher = AdaptivePatcher::new(
        PatcherConfig::for_resolution(res)
            .with_patch_size(4)
            .with_target_len(64),
    );
    let ds = TokenSegDataset::adaptive(&pairs, &patcher);
    let (x, y) = ds.batch(&(0..batch).collect::<Vec<_>>());
    let factory = || Unetr2d::new(UnetrConfig::small(8, 4, GridOrder::Morton), 42);

    // ---- Measured strong scaling on real threads ----
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut counts = vec![1usize, 2, 4, 8];
    counts.retain(|&w| w <= batch && w <= cores);
    println!(
        "strong scaling: global batch {}, APF seq 64, up to {} worker threads ({} cores)",
        batch,
        counts.last().copied().unwrap_or(1),
        cores
    );

    let mut t1 = 0.0;
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for &w in &counts {
        let mut engine = DataParallelEngine::new(factory, w, AdamWConfig::default());
        engine.step(&x, &y); // warm-up, before telemetry attaches
        // Timing comes from the engine's own registry histograms
        // (`apf_distsim_step_phase_seconds`), not bench-side stopwatches.
        let tel = Telemetry::enabled();
        let mut engine = engine.with_telemetry(tel.clone());
        let reps = if quick { 2 } else { 4 };
        for _ in 0..reps {
            engine.step(&x, &y);
        }
        let snap = tel.snapshot();
        let phase_mean = |p: &str| {
            snap.get("apf_distsim_step_phase_seconds", &[("phase", p)])
                .and_then(|m| m.histogram.as_ref())
                .map_or(0.0, |h| h.mean())
        };
        let step_s = snap
            .get("apf_distsim_step_seconds", &[])
            .and_then(|m| m.histogram.as_ref())
            .map_or(0.0, |h| h.mean());
        let compute_s = phase_mean("compute");
        let sync_s = phase_mean("allreduce") + phase_mean("optimizer");
        if w == 1 {
            t1 = step_s;
        }
        let speedup = t1 / step_s;
        let eff = speedup / w as f64;
        rows.push(vec![
            w.to_string(),
            format!("{:.4}", step_s),
            format!("{:.4}", compute_s),
            format!("{:.4}", sync_s),
            format!("{:.2}x", speedup),
            format!("{:.0}%", eff * 100.0),
        ]);
        measured.push(MeasuredRow { workers: w, step_s, compute_s, sync_s, speedup, efficiency: eff });
    }
    print_table(
        "Strong scaling — real thread-per-GPU engine (ring all-reduce)",
        &["workers", "step s", "compute s", "sync s", "speedup", "efficiency"],
        &rows,
    );

    // ---- Modeled extension to Frontier scale ----
    let cluster = ClusterModel::frontier();
    let dims = ModelDims::vit_base(4);
    let cal = calibrate(&cluster, &dims, 16384, 1, 0.4863);
    let fabric = Fabric::frontier();
    let mut mrows = Vec::new();
    for gpus in [8usize, 64, 512, 2048] {
        let apf = cluster.predict(&dims, 2116, gpus, cal);
        let ring_s = ring_allreduce_seconds(dims.param_bytes(), gpus, &fabric);
        let tree_s = tree_allreduce_seconds(dims.param_bytes(), gpus, &fabric);
        mrows.push(vec![
            gpus.to_string(),
            format!("{:.3}", apf.compute_s),
            format!("{:.4}", ring_s),
            format!("{:.4}", tree_s),
            format!("{:.0}%", 100.0 * apf.compute_s / (apf.compute_s + ring_s)),
        ]);
    }
    print_table(
        "Modeled at Frontier scale — APF (L = 2116) data parallel",
        &["GPUs", "compute s/img", "ring AR s", "tree AR s", "efficiency"],
        &mrows,
    );
    println!(
        "\nThe ring's (P-1)/P bandwidth term saturates, but its latency term keeps growing: at \
         2,048 GPUs the all-reduce overtakes the (short-sequence) compute, so efficiency falls to \
         ~25%. The paper's largest rows stay efficient because their per-image compute is ~100x \
         larger (seq 4096 + a Z^2-sized decoder), burying the same all-reduce cost — the ring beats \
         the tree by {}x at this message size.",
        (tree_allreduce_seconds(dims.param_bytes(), 2048, &fabric)
            / ring_allreduce_seconds(dims.param_bytes(), 2048, &fabric)) as u32
    );
    save_json("scaling", &measured);
}
