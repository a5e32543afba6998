//! 2D pooling kernels (NCHW).

use crate::tensor::Tensor;

/// Max-pool with square window `k`, stride `k` (non-overlapping).
///
/// Returns `(pooled, argmax)` where `argmax[i]` is the flat input offset that
/// produced output element `i` (needed for the backward scatter).
pub fn maxpool2d(x: &Tensor, k: usize) -> (Tensor, Vec<u32>) {
    let d = x.dims();
    assert_eq!(d.len(), 4, "maxpool2d expects NCHW");
    let (b, c, h, w) = (d[0], d[1], d[2], d[3]);
    assert!(h % k == 0 && w % k == 0, "maxpool2d requires divisible extents");
    let ho = h / k;
    let wo = w / k;
    let out_len = ho * wo;
    let mut out = vec![0.0f32; b * c * out_len];
    let mut idx = vec![0u32; b * c * out_len];
    let src = x.data();

    for (map, (o, ix)) in out.chunks_mut(out_len).zip(idx.chunks_mut(out_len)).enumerate() {
        let base = map * h * w;
        for oy in 0..ho {
            for ox in 0..wo {
                let mut best = f32::NEG_INFINITY;
                let mut best_at = 0usize;
                for ky in 0..k {
                    for kx in 0..k {
                        let off = base + (oy * k + ky) * w + ox * k + kx;
                        if src[off] > best {
                            best = src[off];
                            best_at = off;
                        }
                    }
                }
                o[oy * wo + ox] = best;
                ix[oy * wo + ox] = best_at as u32;
            }
        }
    }
    (Tensor::new([b, c, ho, wo], out), idx)
}

/// Backward of [`maxpool2d`]: routes each output gradient to its argmax.
pub fn maxpool2d_backward(grad_out: &Tensor, idx: &[u32], input_numel: usize) -> Vec<f32> {
    assert_eq!(grad_out.numel(), idx.len());
    let mut grad_in = vec![0.0f32; input_numel];
    for (&i, &g) in idx.iter().zip(grad_out.data().iter()) {
        grad_in[i as usize] += g;
    }
    grad_in
}

/// Average-pool with square window `k`, stride `k`.
pub fn avgpool2d(x: &Tensor, k: usize) -> Tensor {
    let d = x.dims();
    assert_eq!(d.len(), 4, "avgpool2d expects NCHW");
    let (b, c, h, w) = (d[0], d[1], d[2], d[3]);
    assert!(h % k == 0 && w % k == 0, "avgpool2d requires divisible extents");
    let ho = h / k;
    let wo = w / k;
    let inv = 1.0 / (k * k) as f32;
    let mut out = vec![0.0f32; b * c * ho * wo];
    let src = x.data();
    for map in 0..b * c {
        let base = map * h * w;
        let obase = map * ho * wo;
        for oy in 0..ho {
            for ox in 0..wo {
                let mut s = 0.0;
                for ky in 0..k {
                    for kx in 0..k {
                        s += src[base + (oy * k + ky) * w + ox * k + kx];
                    }
                }
                out[obase + oy * wo + ox] = s * inv;
            }
        }
    }
    Tensor::new([b, c, ho, wo], out)
}

/// Backward of [`avgpool2d`]: spreads each gradient uniformly over its window.
pub fn avgpool2d_backward(grad_out: &Tensor, k: usize, h: usize, w: usize) -> Vec<f32> {
    let d = grad_out.dims();
    let (b, c, ho, wo) = (d[0], d[1], d[2], d[3]);
    assert_eq!(ho * k, h);
    assert_eq!(wo * k, w);
    let inv = 1.0 / (k * k) as f32;
    let mut grad_in = vec![0.0f32; b * c * h * w];
    let go = grad_out.data();
    for map in 0..b * c {
        let base = map * h * w;
        let obase = map * ho * wo;
        for oy in 0..ho {
            for ox in 0..wo {
                let g = go[obase + oy * wo + ox] * inv;
                for ky in 0..k {
                    for kx in 0..k {
                        grad_in[base + (oy * k + ky) * w + ox * k + kx] += g;
                    }
                }
            }
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maxima() {
        let x = Tensor::new(
            [1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let (y, idx) = maxpool2d(&x, 2);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.to_vec(), vec![4., 8., 12., 16.]);
        assert_eq!(idx, vec![5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::new([1, 1, 2, 2], vec![1., 9., 2., 3.]);
        let (_, idx) = maxpool2d(&x, 2);
        let go = Tensor::new([1, 1, 1, 1], vec![5.0]);
        let gi = maxpool2d_backward(&go, &idx, 4);
        assert_eq!(gi, vec![0., 5., 0., 0.]);
    }

    #[test]
    fn avgpool_and_backward() {
        let x = Tensor::new([1, 1, 2, 2], vec![1., 3., 5., 7.]);
        let y = avgpool2d(&x, 2);
        assert_eq!(y.to_vec(), vec![4.0]);
        let gi = avgpool2d_backward(&Tensor::new([1, 1, 1, 1], vec![8.0]), 2, 2, 2);
        assert_eq!(gi, vec![2., 2., 2., 2.]);
    }

    #[test]
    fn pools_handle_multichannel_batches() {
        let x = Tensor::rand_uniform([2, 3, 4, 4], -1.0, 1.0, 11);
        let (y, idx) = maxpool2d(&x, 2);
        assert_eq!(y.dims(), &[2, 3, 2, 2]);
        assert_eq!(idx.len(), 2 * 3 * 4);
        // Every argmax offset must fall inside its own window's map.
        for (i, &off) in idx.iter().enumerate() {
            let map = i / 4;
            let lo = map * 16;
            assert!((off as usize) >= lo && (off as usize) < lo + 16);
        }
        let a = avgpool2d(&x, 4);
        assert_eq!(a.dims(), &[2, 3, 1, 1]);
        let m = a.data()[0];
        let manual: f32 = x.data()[..16].iter().sum::<f32>() / 16.0;
        assert!((m - manual).abs() < 1e-5);
    }
}
