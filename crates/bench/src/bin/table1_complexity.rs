//! Table I reproduction: the long-sequence method taxonomy, backed by
//! *measured* scaling exponents on this machine.
//!
//! Table I in the paper is a qualitative summary (method, merits, best-case
//! complexity). We reproduce its quantitative core empirically:
//!
//! 1. dense attention cost really scales ~quadratically in sequence length
//!    (the problem every method attacks);
//! 2. windowed (Swin-style) attention scales ~linearly (a blocking method);
//! 3. APF pre-processing cost scales ~linearly in *pixels* and its output
//!    sequence grows sub-quadratically, while leaving the attention
//!    mechanism untouched (the paper's "O(log² N) best case / O(N²) worst
//!    case, empirically ~linear").
//!
//! Two paired measurements ride along: dense attention at the sequence
//! lengths uniform 4x4 patching and APF produce on the same 256² image,
//! and the quadtree build under the edge-count vs the variance split rule.
//!
//! Usage: `cargo run --release -p apf-bench --bin table1_complexity [--quick]`

use std::time::Instant;

use apf_bench::{print_table, save_json, Args};
use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_core::quadtree::{QuadTree, QuadTreeConfig, SplitCriterion};
use apf_imaging::canny::{canny, CannyConfig};
use apf_imaging::filter::gaussian_blur;
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_models::params::ParamSet;
use apf_models::transformer::MultiHeadAttention;
use apf_tensor::prelude::*;
use serde::Serialize;

/// Fits `y ~ x^e` by least squares in log-log space.
fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|(x, _)| x.ln()).sum();
    let sy: f64 = points.iter().map(|(_, y)| y.ln()).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x.ln().powi(2)).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x.ln() * y.ln()).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Mean seconds per call of `f` over `reps` calls, after one warm-up call.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// One dense attention forward over `batch` sequences of `seq` tokens.
fn time_attention(batch: usize, seq: usize, dim: usize, reps: usize) -> f64 {
    let mut ps = ParamSet::new();
    let attn = MultiHeadAttention::new(&mut ps, "a", dim, 4, 1);
    let x = Tensor::rand_uniform([batch, seq, dim], -1.0, 1.0, 2);
    time_reps(reps, || {
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let xv = g.constant(x.clone());
        let _ = attn.forward(&mut g, &bp, xv);
    })
}

/// Windowed attention: sequences chopped into windows of 64 tokens.
fn time_windowed_attention(seq: usize, dim: usize, reps: usize) -> f64 {
    let wsz = 64.min(seq);
    time_attention(seq / wsz, wsz, dim, reps)
}

/// Dense attention at the uniform-4x4 and the APF sequence lengths of the
/// same 256² image: the headline comparison, one attention layer.
#[derive(Serialize)]
struct UniformVsApf {
    resolution: usize,
    uniform_tokens: usize,
    apf_tokens: usize,
    uniform_ms: f64,
    apf_ms: f64,
    speedup: f64,
}

fn uniform_vs_apf(dim: usize, reps: usize) -> UniformVsApf {
    let res = 256;
    let img = PaipGenerator::new(PaipConfig::at_resolution(res)).generate(0).image;
    let patcher = AdaptivePatcher::new(PatcherConfig::for_resolution(res).with_patch_size(4));
    let uniform_tokens = (res / 4) * (res / 4);
    let apf_tokens = patcher.patchify(&img).len();
    let uniform_ms = time_attention(1, uniform_tokens, dim, reps) * 1e3;
    let apf_ms = time_attention(1, apf_tokens, dim, reps) * 1e3;
    let speedup = uniform_ms / apf_ms;
    UniformVsApf { resolution: res, uniform_tokens, apf_tokens, uniform_ms, apf_ms, speedup }
}

/// Quadtree build time on one 256² image under each split rule: edge
/// counts over the Canny map (Eq. 6) vs intensity variance (ablation).
#[derive(Serialize)]
struct SplitCriterionMs {
    edge_count: f64,
    variance: f64,
}

fn split_criteria(reps: usize) -> SplitCriterionMs {
    let image = PaipGenerator::new(PaipConfig::at_resolution(256)).generate(0).image;
    let edges = canny(&gaussian_blur(&image, 3, 0.0), CannyConfig::default());
    let time_build = |detail, criterion| {
        let cfg = QuadTreeConfig { criterion, ..QuadTreeConfig::default() };
        time_reps(reps, || {
            QuadTree::build(detail, &cfg);
        }) * 1e3
    };
    SplitCriterionMs {
        edge_count: time_build(&edges, SplitCriterion::EdgeCount { split_value: 100.0 }),
        variance: time_build(&image, SplitCriterion::Variance { threshold: 0.01 }),
    }
}

#[derive(Serialize)]
struct Out {
    dense_attention_exponent: f64,
    windowed_attention_exponent: f64,
    apf_preprocess_exponent_in_pixels: f64,
    apf_sequence_growth_exponent: f64,
    uniform_vs_apf_attention: UniformVsApf,
    split_criterion_ms: SplitCriterionMs,
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let dim = 64;
    let reps = if quick { 2 } else { 5 };
    let seqs: &[usize] = if quick { &[64, 256, 1024] } else { &[64, 256, 1024, 4096] };

    println!("Measuring dense vs windowed attention scaling (dim {}, {} reps)...", dim, reps);
    let mut dense = Vec::new();
    let mut windowed = Vec::new();
    for &s in seqs {
        let td = time_attention(1, s, dim, reps);
        let tw = time_windowed_attention(s, dim, reps);
        println!("  N={:>5}: dense {:.5}s, windowed {:.5}s", s, td, tw);
        dense.push((s as f64, td));
        windowed.push((s as f64, tw));
    }
    // Skip the smallest point when fitting (overhead-dominated).
    let e_dense = fit_exponent(&dense[1..]);
    let e_win = fit_exponent(&windowed[1..]);

    println!("Measuring APF pre-processing scaling...");
    let res_list: &[usize] = if quick { &[128, 256, 512] } else { &[256, 512, 1024, 2048] };
    let mut prep = Vec::new();
    let mut seq_growth = Vec::new();
    for &r in res_list {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(r));
        let img = gen.generate(0).image;
        let patcher = AdaptivePatcher::new(PatcherConfig::for_resolution(r).with_patch_size(4));
        let t0 = Instant::now();
        let (seq, _) = patcher.timed_patchify(&img);
        let t = t0.elapsed().as_secs_f64();
        println!("  Z={:>5}: preprocess {:.4}s, seq len {}", r, t, seq.len());
        prep.push(((r * r) as f64, t));
        seq_growth.push((r as f64, seq.len() as f64));
    }
    let e_prep = fit_exponent(&prep);
    let e_seq = fit_exponent(&seq_growth);

    println!("Measuring paired uniform-vs-APF attention and split criteria at 256^2...");
    let paired = uniform_vs_apf(dim, reps);
    println!(
        "  uniform N={}: {:.2} ms, APF N={}: {:.2} ms ({:.1}x)",
        paired.uniform_tokens, paired.uniform_ms, paired.apf_tokens, paired.apf_ms, paired.speedup
    );
    let split = split_criteria(if quick { 5 } else { 20 });
    println!("  quadtree build: edge count {:.3} ms, variance {:.3} ms", split.edge_count, split.variance);

    let rows = vec![
        vec!["Dense attention (ViT)".into(), "O(N^2)".into(), format!("N^{:.2}", e_dense), "attention itself".into()],
        vec!["Windowed (Swin-style)".into(), "O(N)".into(), format!("N^{:.2}", e_win), "modified attention".into()],
        vec!["Approximation (Linformer etc.)".into(), "O(N)".into(), "not built".into(), "modified attention".into()],
        vec!["Hierarchical (HIPT etc.)".into(), "O(N log N)".into(), "see table5".into(), "multiple models".into()],
        vec![
            "APF (ours, pre-processing)".into(),
            "O(log^2 N) best".into(),
            format!("pixels^{:.2}; seq ~ Z^{:.2}", e_prep, e_seq),
            "model intact".into(),
        ],
    ];
    print_table(
        "Table I — long-sequence methods: claimed vs measured scaling",
        &["approach", "claimed", "measured", "what changes"],
        &rows,
    );
    println!(
        "\nDense attention measured ~N^{:.2} (theory 2 as N -> inf; projections add an O(N) term), \
         windowed ~N^{:.2} (theory 1), APF pre-processing ~linear in pixels with sub-quadratic \
         sequence growth — matching the paper's taxonomy.",
        e_dense, e_win
    );
    save_json(
        "table1_complexity",
        &Out {
            dense_attention_exponent: e_dense,
            windowed_attention_exponent: e_win,
            apf_preprocess_exponent_in_pixels: e_prep,
            apf_sequence_growth_exponent: e_seq,
            uniform_vs_apf_attention: paired,
            split_criterion_ms: split,
        },
    );
}
