//! Matrix multiplication: packed/blocked fast path + naive reference.
//!
//! The fast path ([`gemm_packed`]) is a GotoBLAS-style blocked SGEMM:
//! B is packed into contiguous `NR`-wide panels per `(KC, NC)` block, A
//! into `mr`-wide panels per `(MC, KC)` block, and an `mr x NR` register
//! micro-kernel accumulates the product with all `mr*NR` partial sums held
//! in registers. The micro-kernel itself is supplied by the active
//! [`MicroKernelBackend`] (explicit AVX2/SSE2/NEON intrinsics or the
//! scalar reference — see [`super::backend`]), which also chooses `mr`
//! (8 or 16). C is walked in `MC`-row macro-tiles, each writing a
//! disjoint slice of C; a packed B-panel is reused by every macro-tile,
//! which is what the `apf_tensor_packed_panel_reuse_total` counter
//! measures.
//!
//! The reference ([`gemm_naive`]) is the original row-streaming loop: one
//! pass over all of B per output row. It is kept as the differential
//! oracle's ground truth and the `APF_NAIVE_KERNELS` bisection baseline.
//! It deliberately has **no** `a == 0.0` skip: skipping would turn
//! `0.0 * NaN` and `0.0 * inf` into `0.0`, making the two kernels disagree
//! exactly when the serve-side NaN guard needs them to agree.

use crate::shape::Shape;
use crate::tensor::Tensor;

use super::backend::{self, MicroKernelBackend, MAX_MR};
use super::stats;

/// Below this FLOP count packing costs more than it saves; dispatch to the
/// naive kernel instead. Shared with the conv lowering, which uses it to
/// decide when a transposed product is worth the extra transposes.
pub(crate) const PACK_FLOPS: usize = 1 << 13;

/// Rows of A per macro-tile (keeps the packed A block L2-resident).
pub const MC: usize = 64;
/// Depth of a packed block.
pub const KC: usize = 256;
/// Columns of B per packed panel group.
pub const NC: usize = 256;
/// Default micro-kernel rows (register-tiled); the active backend may
/// widen this to 16 via [`MicroKernelBackend::mr`].
pub const MR: usize = 8;
/// Micro-kernel columns (register-tiled; fixed — every backend produces
/// 8-wide lanes, see [`backend::LANES`]).
pub const NR: usize = 8;

/// `C[m,n] = A[m,k] * B[k,n]` over raw slices, dispatching between
/// [`gemm_packed`] and [`gemm_naive`] on kernel mode and problem size.
///
/// # Panics
/// Panics if slice lengths do not match the given dims.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm: A size mismatch");
    assert_eq!(b.len(), k * n, "gemm: B size mismatch");
    assert_eq!(c.len(), m * n, "gemm: C size mismatch");
    if super::naive_kernels() || m * n * k < PACK_FLOPS || m < 4 {
        gemm_naive(a, b, c, m, k, n);
    } else {
        gemm_packed(a, b, c, m, k, n);
    }
}

/// The row-streaming reference kernel (the pre-blocking implementation).
///
/// # Panics
/// Panics if slice lengths do not match the given dims.
pub fn gemm_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm: A size mismatch");
    assert_eq!(b.len(), k * n, "gemm: B size mismatch");
    assert_eq!(c.len(), m * n, "gemm: C size mismatch");
    if let Some(cs) = stats::counters() {
        cs.gemm_naive.inc();
    }
    for i in 0..m {
        gemm_row(&a[i * k..(i + 1) * k], b, &mut c[i * n..(i + 1) * n], k, n);
    }
}

/// One output row: `crow[n] = arow[k] * B[k,n]`, k-major for sequential B
/// access. Every product is accumulated — even `0.0 * x` — so non-finite
/// operands propagate identically to the blocked kernel.
#[inline]
fn gemm_row(arow: &[f32], b: &[f32], crow: &mut [f32], k: usize, n: usize) {
    crow.fill(0.0);
    for (p, &av) in arow.iter().enumerate().take(k) {
        let brow = &b[p * n..(p + 1) * n];
        for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
            *cv += av * bv;
        }
    }
}

/// Blocked, packed SGEMM through the active [`backend`] (see the module
/// docs for the blocking scheme).
///
/// Deterministic **per backend**: for a given shape the reduction tree is
/// fixed (KC-blocks accumulate in order, micro-kernel sums in depth
/// order), so repeated calls on the same backend are bit-identical.
/// Backends that use FMA (avx2, neon) differ from scalar/sse2 by rounding
/// only, within the kernel-oracle bound.
///
/// # Panics
/// Panics if slice lengths do not match the given dims.
pub fn gemm_packed(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_packed_with(backend::active(), a, b, c, m, k, n);
}

/// [`gemm_packed`] with an explicit micro-kernel backend — the
/// per-backend oracle tests and the 16-row-tile test drive this directly.
pub fn gemm_packed_with(
    bk: &dyn MicroKernelBackend,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm: A size mismatch");
    assert_eq!(b.len(), k * n, "gemm: B size mismatch");
    assert_eq!(c.len(), m * n, "gemm: C size mismatch");
    let mr = bk.mr();
    assert!(mr == 8 || mr == 16, "gemm: backend mr must be 8 or 16, got {mr}");
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if let Some(cs) = stats::counters() {
        cs.gemm_packed.inc();
    }
    let row_blocks = m.div_ceil(MC);
    // Shared packed-B buffer, sized for the largest (kc, nc) block.
    let nc_alloc = NC.min(n.div_ceil(NR) * NR);
    let mut packed_b = vec![0.0f32; KC.min(k) * nc_alloc];

    let mut jc = 0;
    while jc < n {
        let ncb = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            pack_b(b, n, pc, jc, kcb, ncb, &mut packed_b);
            if let Some(cs) = stats::counters() {
                cs.packed_panels.inc();
                cs.packed_panel_reuse.add(row_blocks as u64 - 1);
            }
            for (bi, cb) in c.chunks_mut(MC * n).enumerate() {
                let ic = bi * MC;
                let mcb = MC.min(m - ic);
                let mut packed_a = vec![0.0f32; mcb.div_ceil(mr) * mr * kcb];
                pack_a(a, k, ic, pc, mcb, kcb, mr, &mut packed_a);
                macro_tile(bk, &packed_a, &packed_b, cb, mcb, kcb, ncb, n, jc, mr);
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Packs the `kcb x ncb` block of B at `(pc, jc)` into `NR`-wide panels:
/// `packed[(jp*kcb + p)*NR + j] = B[pc+p, jc + jp*NR + j]`, zero-padded in
/// the ragged last panel.
fn pack_b(b: &[f32], n: usize, pc: usize, jc: usize, kcb: usize, ncb: usize, packed: &mut [f32]) {
    for jp in 0..ncb.div_ceil(NR) {
        let j0 = jp * NR;
        let jw = NR.min(ncb - j0);
        let panel = &mut packed[jp * kcb * NR..(jp + 1) * kcb * NR];
        for p in 0..kcb {
            let src = &b[(pc + p) * n + jc + j0..(pc + p) * n + jc + j0 + jw];
            let dst = &mut panel[p * NR..(p + 1) * NR];
            dst[..jw].copy_from_slice(src);
            dst[jw..].fill(0.0);
        }
    }
}

/// Packs the `mcb x kcb` block of A at `(ic, pc)` into `mr`-wide panels:
/// `packed[(ip*kcb + p)*mr + i] = A[ic + ip*mr + i, pc+p]`, zero-padded in
/// the ragged last panel. `mr` comes from the active backend.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[f32],
    k: usize,
    ic: usize,
    pc: usize,
    mcb: usize,
    kcb: usize,
    mr: usize,
    packed: &mut [f32],
) {
    for ip in 0..mcb.div_ceil(mr) {
        let i0 = ip * mr;
        let iw = mr.min(mcb - i0);
        let panel = &mut packed[ip * kcb * mr..(ip + 1) * kcb * mr];
        for p in 0..kcb {
            let dst = &mut panel[p * mr..(p + 1) * mr];
            for (i, d) in dst.iter_mut().enumerate().take(iw) {
                *d = a[(ic + i0 + i) * k + pc + p];
            }
            dst[iw..].fill(0.0);
        }
    }
}

/// One macro-tile: all `mr x NR` micro-tiles of a `mcb x ncb` C block,
/// accumulating `packed_a * packed_b` into `cb` (a `<=MC`-row slice of C
/// starting at column `jc`) through the backend's register micro-kernel.
#[allow(clippy::too_many_arguments)]
fn macro_tile(
    bk: &dyn MicroKernelBackend,
    packed_a: &[f32],
    packed_b: &[f32],
    cb: &mut [f32],
    mcb: usize,
    kcb: usize,
    ncb: usize,
    n: usize,
    jc: usize,
    mr: usize,
) {
    let mut acc_buf = [0.0f32; MAX_MR * NR];
    for jp in 0..ncb.div_ceil(NR) {
        let j0 = jp * NR;
        let jw = NR.min(ncb - j0);
        let pb = &packed_b[jp * kcb * NR..(jp + 1) * kcb * NR];
        for ip in 0..mcb.div_ceil(mr) {
            let i0 = ip * mr;
            let iw = mr.min(mcb - i0);
            let pa = &packed_a[ip * kcb * mr..(ip + 1) * kcb * mr];
            let acc = &mut acc_buf[..mr * NR];
            acc.fill(0.0);
            bk.sgemm_tile(pa, pb, kcb, acc);
            for i in 0..iw {
                let crow = &mut cb[(i0 + i) * n + jc + j0..(i0 + i) * n + jc + j0 + jw];
                for (cv, av) in crow.iter_mut().zip(acc[i * NR..(i + 1) * NR].iter()) {
                    *cv += av;
                }
            }
        }
    }
}

/// Tensor-level batched matmul.
///
/// Supported operand shapes:
/// - `[.., m, k] x [k, n]`: the right operand is shared across the batch.
/// - `[b.., m, k] x [b.., k, n]`: matching leading batch dims.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let ra = a.shape().rank();
    let rb = b.shape().rank();
    assert!(ra >= 2 && rb >= 2, "matmul requires rank >= 2 operands");
    let m = a.shape().dim(ra - 2);
    let k = a.shape().dim(ra - 1);
    let kb = b.shape().dim(rb - 2);
    let n = b.shape().dim(rb - 1);
    assert_eq!(
        k, kb,
        "matmul inner dim mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );

    let (batch_a, _) = a.shape().split_trailing(2);
    let (batch_b, _) = b.shape().split_trailing(2);

    let mut out_dims = a.shape().dims()[..ra - 2].to_vec();
    out_dims.push(m);
    out_dims.push(n);
    let out_shape = Shape::new(out_dims);
    let mut out = vec![0.0f32; out_shape.numel()];

    if rb == 2 {
        // Shared right operand: one big (batch*m, k) x (k, n) product.
        gemm(a.data(), b.data(), &mut out, batch_a * m, k, n);
    } else {
        assert_eq!(
            a.shape().dims()[..ra - 2],
            b.shape().dims()[..rb - 2],
            "matmul batch dims mismatch: {} vs {}",
            a.shape(),
            b.shape()
        );
        assert_eq!(batch_a, batch_b);
        let amat = m * k;
        let bmat = k * n;
        let cmat = m * n;
        for i in 0..batch_a {
            gemm(
                &a.data()[i * amat..(i + 1) * amat],
                &b.data()[i * bmat..(i + 1) * bmat],
                &mut out[i * cmat..(i + 1) * cmat],
                m,
                k,
                n,
            );
        }
    }
    Tensor::new(out_shape, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn gemm_matches_naive_small() {
        let a: Vec<f32> = (0..6).map(|x| x as f32).collect();
        let b: Vec<f32> = (0..12).map(|x| (x as f32) * 0.5).collect();
        let mut c = vec![0.0; 2 * 4];
        gemm(&a, &b, &mut c, 2, 3, 4);
        assert_eq!(c, naive(&a, &b, 2, 3, 4));
    }

    #[test]
    fn gemm_matches_naive_large_parallel() {
        let m = 64;
        let k = 48;
        let n = 56;
        let a: Vec<f32> = (0..m * k).map(|x| ((x * 7919) % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|x| ((x * 104729) % 11) as f32 - 5.0).collect();
        let mut c = vec![0.0; m * n];
        gemm(&a, &b, &mut c, m, k, n);
        let expect = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn packed_matches_reference_on_ragged_tiles() {
        // Dims chosen to exercise every ragged edge: m % MR != 0 with a
        // short last MC block, n % NR != 0 with a short last NC block,
        // k % KC != 0.
        let (m, k, n) = (67, 33, 129);
        let a: Vec<f32> = (0..m * k).map(|x| ((x * 31) % 17) as f32 * 0.25 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|x| ((x * 57) % 23) as f32 * 0.125 - 1.5).collect();
        let mut c = vec![f32::NAN; m * n]; // must be fully overwritten
        gemm_packed(&a, &b, &mut c, m, k, n);
        let expect = naive(&a, &b, m, k, n);
        for (i, (x, y)) in c.iter().zip(expect.iter()).enumerate() {
            assert!((x - y).abs() < 1e-3, "elem {}: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn packed_handles_depth_beyond_one_kc_block() {
        let (m, k, n) = (9, 2 * KC + 5, 10);
        let a: Vec<f32> = (0..m * k).map(|x| ((x % 7) as f32 - 3.0) * 0.1).collect();
        let b: Vec<f32> = (0..k * n).map(|x| ((x % 5) as f32 - 2.0) * 0.1).collect();
        let mut c = vec![0.0; m * n];
        gemm_packed(&a, &b, &mut c, m, k, n);
        let expect = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 2e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn packed_is_deterministic() {
        let (m, k, n) = (70, 40, 70);
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, 1).to_vec();
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, 2).to_vec();
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm_packed(&a, &b, &mut c1, m, k, n);
        gemm_packed(&a, &b, &mut c2, m, k, n);
        assert_eq!(
            c1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn wide16_micro_tile_matches_reference() {
        // Drive the packed path through a 16-row micro-tile backend: both
        // MC blocks ragged against mr=16 (MC=64 -> 4 tiles; m=70 leaves a
        // 6-row tail) plus ragged n and multi-KC depth.
        let (m, k, n) = (70, KC + 3, 37);
        let a: Vec<f32> = (0..m * k).map(|x| ((x * 31) % 19) as f32 * 0.25 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|x| ((x * 57) % 13) as f32 * 0.125 - 0.75).collect();
        let mut c = vec![f32::NAN; m * n];
        gemm_packed_with(&backend::testing::Wide16, &a, &b, &mut c, m, k, n);
        let expect = naive(&a, &b, m, k, n);
        for (i, (x, y)) in c.iter().zip(expect.iter()).enumerate() {
            assert!((x - y).abs() < 2e-3, "elem {}: {} vs {}", i, x, y);
        }
    }

    #[test]
    fn every_detected_backend_matches_reference() {
        for kind in backend::BackendKind::detected() {
            let bk = kind.instance().unwrap();
            let (m, k, n) = (67, 33, 129);
            let a: Vec<f32> = (0..m * k).map(|x| ((x * 31) % 17) as f32 * 0.25 - 2.0).collect();
            let b: Vec<f32> = (0..k * n).map(|x| ((x * 57) % 23) as f32 * 0.125 - 1.5).collect();
            let mut c = vec![f32::NAN; m * n];
            gemm_packed_with(bk, &a, &b, &mut c, m, k, n);
            let expect = naive(&a, &b, m, k, n);
            for (i, (x, y)) in c.iter().zip(expect.iter()).enumerate() {
                assert!((x - y).abs() < 1e-3, "{:?} elem {}: {} vs {}", kind, i, x, y);
            }
        }
    }

    #[test]
    fn zero_sized_dims_are_no_ops() {
        let mut c = vec![7.0f32; 0];
        gemm_packed(&[], &[], &mut c, 0, 5, 0);
        let mut c = vec![7.0f32; 6];
        gemm_packed(&[], &[], &mut c, 2, 0, 3);
        assert_eq!(c, vec![0.0; 6]); // k == 0 zeroes the output
        let mut c = vec![7.0f32; 6];
        gemm_naive(&[], &[], &mut c, 2, 0, 3);
        assert_eq!(c, vec![0.0; 6]);
    }

    #[test]
    fn matmul_2d() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.to_vec(), vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_batched_shared_rhs() {
        let a = Tensor::new([2, 1, 2], vec![1., 0., 0., 1.]);
        let b = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 1, 3]);
        assert_eq!(c.to_vec(), vec![1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn matmul_batched_pairwise() {
        let a = Tensor::new([2, 2, 2], vec![1., 0., 0., 1., 2., 0., 0., 2.]);
        let b = Tensor::new([2, 2, 2], vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 2, 2]);
        assert_eq!(c.to_vec(), vec![1., 2., 3., 4., 10., 12., 14., 16.]);
    }

    #[test]
    fn matmul_batched_pairwise_large_uses_packed_path() {
        // Batch big enough to clear PACK_FLOPS so the packed per-batch
        // branch runs; compare against per-batch naive.
        let (bsz, m, k, n) = (3, 20, 24, 20);
        let a = Tensor::rand_uniform([bsz, m, k], -1.0, 1.0, 3);
        let b = Tensor::rand_uniform([bsz, k, n], -1.0, 1.0, 4);
        let c = matmul(&a, &b);
        for i in 0..bsz {
            let expect = naive(
                &a.data()[i * m * k..(i + 1) * m * k],
                &b.data()[i * k * n..(i + 1) * k * n],
                m,
                k,
                n,
            );
            for (x, y) in c.data()[i * m * n..(i + 1) * m * n].iter().zip(expect.iter()) {
                assert!((x - y).abs() < 1e-4, "{} vs {}", x, y);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn matmul_bad_inner_dim() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        matmul(&a, &b);
    }
}
