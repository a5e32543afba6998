//! Layer replay probes: each times one public layer call on the
//! workload's own inputs, so a layer has a number even where the program
//! records no span for it. Every probe takes the median over its repeats.

use std::hint::black_box;
use std::time::Instant;

use apf_core::patchify::PatchSequence;
use apf_core::pipeline::AdaptivePatcher;
use apf_gigapixel::TileStore;
use apf_imaging::GrayImage;
use apf_models::cancel::CancelToken;
use apf_models::vit::ViTSegmenter;
use apf_serve::wire::frame::{read_frame, Frame, FrameKind, DEFAULT_MAX_PAYLOAD};
use apf_serve::{ContentKey, WireRequest};
use apf_tensor::kernels::conv::conv2d;
use apf_tensor::prelude::*;

use crate::stats::median;

/// Repeats of each timed call.
const REPEATS: usize = 3;

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Median over `REPEATS` passes of `f` over every input.
fn per_input_median<T>(inputs: &[T], mut f: impl FnMut(&T) -> f64) -> f64 {
    let mut v = Vec::with_capacity(inputs.len() * REPEATS);
    for _ in 0..REPEATS {
        for x in inputs {
            v.push(f(x));
        }
    }
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// APF pre-processing stage times and token counts.
#[derive(Debug, Clone, Default)]
pub struct CoreReplay {
    /// Median Gaussian blur (ms).
    pub blur_ms: f64,
    /// Median Canny (ms).
    pub canny_ms: f64,
    /// Median quadtree build (ms).
    pub quadtree_ms: f64,
    /// Median patch extraction (ms).
    pub extract_ms: f64,
    /// Mean raw sequence length (leaves before any budget).
    pub raw_tokens: f64,
    /// Tokens dropped by the budget over raw tokens.
    pub dropped_share: f64,
}

/// Replays `AdaptivePatcher::timed_patchify` on `images`; `budget` is the
/// token budget the workload's consumer enforces.
pub fn core_replay(patcher: &AdaptivePatcher, images: &[GrayImage], budget: usize) -> CoreReplay {
    let mut stages = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..REPEATS {
        for img in images {
            let (seq, t) = patcher.timed_patchify(img);
            black_box(seq);
            for (v, s) in stages
                .iter_mut()
                .zip([t.blur_s, t.canny_s, t.quadtree_s, t.extract_s])
            {
                v.push(s * 1e3);
            }
        }
    }
    let raws: Vec<usize> = images.iter().map(|img| patcher.tree(img).len()).collect();
    let raw_total: usize = raws.iter().sum();
    let dropped: usize = raws.iter().map(|&r| r.saturating_sub(budget)).sum();
    let med = |v: &Vec<f64>| if v.is_empty() { 0.0 } else { median(v) };
    CoreReplay {
        blur_ms: med(&stages[0]),
        canny_ms: med(&stages[1]),
        quadtree_ms: med(&stages[2]),
        extract_ms: med(&stages[3]),
        raw_tokens: raw_total as f64 / raws.len().max(1) as f64,
        dropped_share: dropped as f64 / raw_total.max(1) as f64,
    }
}

/// Median `ContentKey::of_image` time (ms).
pub fn content_key_ms(images: &[GrayImage]) -> f64 {
    per_input_median(images, |img| {
        time_ms(|| {
            black_box(ContentKey::of_image(img));
        })
    })
}

/// Segment-frame encode and decode cost.
#[derive(Debug, Clone, Default)]
pub struct WireReplay {
    /// Median request payload + frame encode, CRC included (ms).
    pub encode_ms: f64,
    /// Median frame read + payload decode, CRC checked (ms).
    pub decode_ms: f64,
    /// Mean encoded request frame size (bytes).
    pub bytes: f64,
}

/// Replays `WireRequest::encode`/`decode` on a `Segment` frame per image.
pub fn wire_replay(images: &[GrayImage]) -> WireReplay {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..REPEATS {
        for img in images {
            let req = WireRequest::Segment {
                deadline_ms: 0,
                width: img.width() as u32,
                height: img.height() as u32,
                pixels: img.data().to_vec(),
            };
            let mut wire = Vec::new();
            enc.push(time_ms(|| {
                wire = Frame::new(FrameKind::Segment, 0, 1, req.encode()).encode();
            }));
            bytes += wire.len();
            dec.push(time_ms(|| {
                let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD)
                    .expect("own frame decodes");
                black_box(
                    WireRequest::decode(frame.kind, &frame.payload).expect("own payload decodes"),
                );
            }));
        }
    }
    let n = enc.len().max(1);
    WireReplay {
        encode_ms: if enc.is_empty() { 0.0 } else { median(&enc) },
        decode_ms: if dec.is_empty() { 0.0 } else { median(&dec) },
        bytes: bytes as f64 / n as f64,
    }
}

/// Serving forward cost.
#[derive(Debug, Clone, Default)]
pub struct ModelReplay {
    /// Median B=1 forward (ms).
    pub b1_ms: f64,
    /// Median batched forward divided by the batch size (ms).
    pub batched_ms_per_req: f64,
    /// Autograd tape nodes of one B=1 forward (parameters bound included).
    pub tape_nodes: f64,
    /// Bytes of the tape's node values for that forward.
    pub tape_bytes: f64,
}

/// Replays `ViTSegmenter::forward_cancellable` (B=1) and `forward_batched`
/// (B=`batch`) on sequences of length `len` built from `seqs`.
pub fn model_replay(
    model: &ViTSegmenter,
    seqs: &[PatchSequence],
    len: usize,
    batch: usize,
) -> ModelReplay {
    if seqs.is_empty() {
        return ModelReplay::default();
    }
    let fixed: Vec<Vec<f32>> = seqs
        .iter()
        .map(|s| s.fixed_length(len, 0).to_tensor().to_vec())
        .collect();
    let d = fixed[0].len() / len;
    let mut tape = (0.0, 0.0);
    let b1 = per_input_median(&fixed, |rows| {
        let t = Instant::now();
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let x = g.constant(Tensor::new([1, len, d], rows.clone()));
        let y = model
            .forward_cancellable(&mut g, &bp, x, &CancelToken::new())
            .expect("never cancelled");
        black_box(g.value(y));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let bytes: usize = (0..g.len()).map(|i| g.node_value(i).numel() * 4).sum();
        tape = (g.len() as f64, bytes as f64);
        ms
    });
    let batch = batch.max(1);
    let groups: Vec<Vec<f32>> = (0..fixed.len())
        .map(|start| {
            (0..batch)
                .flat_map(|j| fixed[(start + j) % fixed.len()].clone())
                .collect()
        })
        .collect();
    let batched = per_input_median(&groups, |data| {
        let t = Instant::now();
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let x = g.constant(Tensor::new([batch, len, d], data.clone()));
        let y = model.forward_batched(&mut g, &bp, x, None);
        black_box(g.value(y));
        t.elapsed().as_secs_f64() * 1e3 / batch as f64
    });
    ModelReplay {
        b1_ms: b1,
        batched_ms_per_req: batched,
        tape_nodes: tape.0,
        tape_bytes: tape.1,
    }
}

/// Replays `conv2d` at the 3x3 shapes of the UNETR decoder for a
/// `seq_len`-token grid at patch size `patch` and batch `batch`; returns
/// the median summed time of one pass over every stage (ms).
pub fn conv_replay_ms(
    seq_len: usize,
    patch: usize,
    dim: usize,
    decoder_ch: usize,
    batch: usize,
) -> f64 {
    let side = (seq_len as f64).sqrt().round() as usize;
    let stages = patch.trailing_zeros() as usize;
    let ch = |s: usize| (decoder_ch >> s).max(4);
    // (input channels, output channels, spatial side) of each 3x3 conv.
    let mut shapes = vec![(dim, ch(0), side)];
    for s in 1..=stages {
        shapes.push((ch(s) * 2, ch(s), side << s));
    }
    let geom = ConvGeom {
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let inputs: Vec<(Tensor, Tensor)> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(cin, cout, hw))| {
            (
                Tensor::rand_uniform([batch, cin, hw, hw], -1.0, 1.0, 11 + i as u64),
                Tensor::rand_uniform([cout, cin, 3, 3], -0.1, 0.1, 23 + i as u64),
            )
        })
        .collect();
    per_input_median(&[()], |_| {
        time_ms(|| {
            for (x, w) in &inputs {
                black_box(conv2d(x, w, None, geom));
            }
        })
    })
}

/// Median `TileStore::read_tile` time over every tile of `store` (ms).
pub fn tile_read_ms(store: &TileStore) -> f64 {
    let g = store.geometry();
    let tiles: Vec<(u32, u32)> = (0..g.tiles_y())
        .flat_map(|ty| (0..g.tiles_x()).map(move |tx| (tx, ty)))
        .collect();
    per_input_median(&tiles, |&(tx, ty)| {
        time_ms(|| {
            black_box(store.read_tile(tx, ty).expect("slide tiles read back"));
        })
    })
}
