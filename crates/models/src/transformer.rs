//! Multi-head self-attention and the transformer encoder stack.
//!
//! This is the standard, *unmodified* dense attention of Eq. 1-5 in the
//! paper — APF's whole point is that the model stays intact and only the
//! patch sequence changes.

use std::borrow::Cow;
use std::sync::Arc;

use apf_tensor::prelude::*;

use crate::cancel::Cancelled;
use crate::layers::{LayerNorm, Linear, Mlp};
use crate::params::{BoundParams, ParamSet};
use crate::rearrange::{merge_heads, split_heads};

/// Multi-head self-attention over `[B, L, D]`.
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadAttention {
    /// Attention with `heads` heads over model width `dim` (must divide).
    pub fn new(ps: &mut ParamSet, name: &str, dim: usize, heads: usize, seed: u64) -> Self {
        assert!(dim.is_multiple_of(heads), "heads must divide model dim");
        MultiHeadAttention {
            wq: Linear::new(ps, &format!("{name}.wq"), dim, dim, seed),
            wk: Linear::new(ps, &format!("{name}.wk"), dim, dim, seed ^ 0xA1),
            wv: Linear::new(ps, &format!("{name}.wv"), dim, dim, seed ^ 0xB2),
            wo: Linear::new(ps, &format!("{name}.wo"), dim, dim, seed ^ 0xC3),
            heads,
            dim,
        }
    }

    /// Applies dense self-attention to `[B, L, D]`.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        self.forward_with_key_mask(g, bp, x, None)
    }

    /// Self-attention with an optional key-padding mask: `mask[b][t] ==
    /// false` excludes token `t` of sample `b` as an attention *key* (it
    /// still produces a query/output row, which the loss can ignore).
    /// Use this when sequences are padded to a fixed `L` (Algorithm 1's
    /// zero-padding) so padding cannot dilute the attention of real tokens.
    ///
    /// The score computation dispatches on the kernel mode: the default is
    /// the fused streaming kernel (one graph node, no `[B*H, L, L]` score
    /// tensor), whose mini-GEMM tiles and softmax `exp` run on the SIMD
    /// backend selected by `apf_tensor::kernels::backend` (overridable via
    /// `APF_KERNEL_BACKEND`); `APF_NAIVE_KERNELS` rebuilds the original
    /// materialized matmul/softmax subgraph for bisection and never
    /// consults the backend layer.
    pub fn forward_with_key_mask(
        &self,
        g: &mut Graph,
        bp: &BoundParams,
        x: Var,
        key_mask: Option<&[Vec<bool>]>,
    ) -> Var {
        let dims = g.value(x).dims().to_vec();
        assert_eq!(dims.len(), 3, "attention expects [B, L, D]");
        let (b, l, d) = (dims[0], dims[1], dims[2]);
        assert_eq!(d, self.dim);
        let dh = d / self.heads;
        if let Some(mask) = key_mask {
            assert_eq!(mask.len(), b, "one key mask per batch sample");
            for sample_mask in mask {
                assert_eq!(sample_mask.len(), l, "mask length must equal L");
            }
        }

        let q = self.wq.forward(g, bp, x);
        let k = self.wk.forward(g, bp, x);
        let v = self.wv.forward(g, bp, x);

        let q = split_heads(g, q, b, l, self.heads, dh);
        let k = split_heads(g, k, b, l, self.heads, dh);
        let v = split_heads(g, v, b, l, self.heads, dh);
        let scale = 1.0 / (dh as f32).sqrt();

        let out = if apf_tensor::kernels::naive_kernels() {
            let kt = g.transpose_last(k);
            let mut scores = g.matmul(q, kt); // [B*H, L, L]
            scores = g.scale(scores, scale);
            if let Some(mask) = key_mask {
                // Additive bias: -1e9 on masked keys, tiled over heads and
                // query rows.
                let mut bias = Vec::with_capacity(b * self.heads * l * l);
                for sample_mask in mask {
                    let row: Vec<f32> = sample_mask
                        .iter()
                        .map(|&keep| if keep { 0.0 } else { -1e9 })
                        .collect();
                    for _ in 0..self.heads * l {
                        bias.extend_from_slice(&row);
                    }
                }
                let bias = g.constant(Tensor::new([b * self.heads, l, l], bias));
                scores = g.add(scores, bias);
            }
            let attn = g.softmax(scores);
            g.matmul(attn, v) // [B*H, L, Dh]
        } else {
            // Fused path: the mask shrinks to a per-key bias row ([B*H, L]
            // instead of [B*H, L, L]) and the scores never materialize.
            let key_bias = key_mask.map(|mask| {
                let mut bias = Vec::with_capacity(b * self.heads * l);
                for sample_mask in mask {
                    let row: Vec<f32> = sample_mask
                        .iter()
                        .map(|&keep| if keep { 0.0 } else { -1e9 })
                        .collect();
                    for _ in 0..self.heads {
                        bias.extend_from_slice(&row);
                    }
                }
                std::sync::Arc::new(bias)
            });
            g.fused_attention(q, k, v, scale, key_bias)
        };

        let out = merge_heads(g, out, b, l, self.heads, dh);
        self.wo.forward(g, bp, out)
    }
}

/// One pre-LN transformer encoder block:
/// `x + MHA(LN(x))` then `x + MLP(LN(x))`.
pub struct EncoderBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    mlp: Mlp,
}

impl EncoderBlock {
    /// Standard block with MLP ratio 4 unless specified.
    pub fn new(ps: &mut ParamSet, name: &str, dim: usize, heads: usize, mlp_ratio: usize, seed: u64) -> Self {
        EncoderBlock {
            ln1: LayerNorm::new(ps, &format!("{name}.ln1"), dim),
            attn: MultiHeadAttention::new(ps, &format!("{name}.attn"), dim, heads, seed),
            ln2: LayerNorm::new(ps, &format!("{name}.ln2"), dim),
            mlp: Mlp::new(ps, &format!("{name}.mlp"), dim, mlp_ratio, seed ^ 0xD4),
        }
    }

    /// Applies the block.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        self.forward_with_key_mask(g, bp, x, None)
    }

    /// Applies the block with an optional key-padding mask on the attention
    /// (LayerNorm and the MLP are per-token, so only attention needs it).
    /// With `None` this is byte-for-byte the unmasked [`EncoderBlock::forward`].
    pub fn forward_with_key_mask(
        &self,
        g: &mut Graph,
        bp: &BoundParams,
        x: Var,
        key_mask: Option<&[Vec<bool>]>,
    ) -> Var {
        let h = self.ln1.forward(g, bp, x);
        let h = self.attn.forward_with_key_mask(g, bp, h, key_mask);
        let x = g.add(x, h);
        let h = self.ln2.forward(g, bp, x);
        let h = self.mlp.forward(g, bp, h);
        g.add(x, h)
    }
}

/// A stack of encoder blocks that can expose intermediate hidden states
/// (UNETR taps them as skip connections).
pub struct TransformerEncoder {
    blocks: Vec<EncoderBlock>,
    final_ln: LayerNorm,
}

impl TransformerEncoder {
    /// `depth` blocks of width `dim` with `heads` heads.
    pub fn new(ps: &mut ParamSet, name: &str, dim: usize, depth: usize, heads: usize, seed: u64) -> Self {
        let blocks = (0..depth)
            .map(|i| {
                EncoderBlock::new(
                    ps,
                    &format!("{name}.block{i}"),
                    dim,
                    heads,
                    4,
                    seed.wrapping_add(i as u64 * 0x9E37),
                )
            })
            .collect();
        TransformerEncoder {
            blocks,
            final_ln: LayerNorm::new(ps, &format!("{name}.final_ln"), dim),
        }
    }

    /// Number of blocks.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// Runs the stack; returns the final (layer-normed) hidden state and the
    /// raw hidden state after every block.
    pub fn forward_with_skips(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> (Var, Vec<Var>) {
        let mut h = x;
        let mut skips = Vec::with_capacity(self.blocks.len());
        for blk in &self.blocks {
            h = blk.forward(g, bp, h);
            skips.push(h);
        }
        (self.final_ln.forward(g, bp, h), skips)
    }

    /// Runs the stack, returning only the final hidden state.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        self.forward_with_skips(g, bp, x).0
    }

    /// Runs the stack over `B` independent batch members: the serving path,
    /// batched or not. `key_mask` (one row per member, `false` = padding)
    /// keeps each member's padding out of its own attention keys; `None`
    /// reproduces [`TransformerEncoder::forward`] exactly. Before every
    /// block, `expired(b)` is asked about each member `b` still running
    /// (indices into the input batch); the rows of members it reports are
    /// removed from the batch and its mask, so a member whose deadline
    /// passed stops paying for the remaining blocks and the others run on
    /// unchanged (attention is block-diagonal per member). The pass stops
    /// when no member remains.
    pub fn forward_pruning(
        &self,
        g: &mut Graph,
        bp: &BoundParams,
        x: Var,
        key_mask: Option<&[Vec<bool>]>,
        expired: &mut dyn FnMut(usize) -> bool,
    ) -> Pruned {
        let total_blocks = self.blocks.len();
        let mut live: Vec<usize> = (0..g.value(x).dims()[0]).collect();
        let mut members = vec![Ok(0); live.len()];
        let mut mask = key_mask.map(Cow::Borrowed);
        let mut h = x;
        for (i, blk) in self.blocks.iter().enumerate() {
            let (keep, gone): (Vec<usize>, Vec<usize>) =
                (0..live.len()).partition(|&r| !expired(live[r]));
            if !gone.is_empty() {
                for r in gone {
                    members[live[r]] = Err(Cancelled { completed_blocks: i, total_blocks });
                }
                if keep.is_empty() {
                    return Pruned { out: None, members };
                }
                // Drop the expired rows on the [B, L*D] view.
                let dims = g.value(h).dims().to_vec();
                let flat = g.reshape(h, [dims[0], dims[1] * dims[2]]);
                let rows = Arc::new(keep.iter().map(|&r| r as u32).collect());
                h = g.gather_rows(flat, rows, [keep.len(), dims[1], dims[2]]);
                mask = mask.map(|m| Cow::Owned(keep.iter().map(|&r| m[r].clone()).collect()));
                live = keep.iter().map(|&r| live[r]).collect();
            }
            h = blk.forward_with_key_mask(g, bp, h, mask.as_deref());
        }
        for (row, &b) in live.iter().enumerate() {
            members[b] = Ok(row);
        }
        Pruned { out: Some(self.final_ln.forward(g, bp, h)), members }
    }
}

/// What [`TransformerEncoder::forward_pruning`] returns.
#[derive(Debug)]
pub struct Pruned {
    /// Output of the members that ran every block, one row each in input
    /// order; `None` when every member was removed.
    pub out: Option<Var>,
    /// Per input member: its row in `out`, or how far it got.
    pub members: Vec<Result<usize, Cancelled>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_preserves_shape() {
        let mut ps = ParamSet::new();
        let attn = MultiHeadAttention::new(&mut ps, "a", 8, 2, 1);
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let x = g.constant(Tensor::rand_uniform([2, 5, 8], -1.0, 1.0, 2));
        let y = attn.forward(&mut g, &bp, x);
        assert_eq!(g.value(y).dims(), &[2, 5, 8]);
    }

    #[test]
    fn attention_is_permutation_equivariant_without_positions() {
        // Swapping two tokens swaps the corresponding outputs (dense
        // attention has no positional bias of its own).
        let mut ps = ParamSet::new();
        let attn = MultiHeadAttention::new(&mut ps, "a", 4, 2, 3);
        let x = Tensor::rand_uniform([1, 3, 4], -1.0, 1.0, 4);
        let mut perm = x.to_vec();
        perm.swap(0, 4);
        perm.swap(1, 5);
        perm.swap(2, 6);
        perm.swap(3, 7); // swap tokens 0 and 1
        let xp = Tensor::new([1, 3, 4], perm);

        let run = |input: Tensor| {
            let mut g = Graph::new();
            let bp = ps.bind(&mut g);
            let xv = g.constant(input);
            let y = attn.forward(&mut g, &bp, xv);
            g.value(y).to_vec()
        };
        let y = run(x);
        let yp = run(xp);
        for i in 0..4 {
            assert!((y[i] - yp[4 + i]).abs() < 1e-5);
            assert!((y[4 + i] - yp[i]).abs() < 1e-5);
            assert!((y[8 + i] - yp[8 + i]).abs() < 1e-5);
        }
    }

    #[test]
    fn key_mask_makes_output_independent_of_masked_token() {
        let mut ps = ParamSet::new();
        let attn = MultiHeadAttention::new(&mut ps, "a", 4, 2, 11);
        let base = Tensor::rand_uniform([1, 3, 4], -1.0, 1.0, 12);
        let mut altered = base.clone();
        // Change token 2 entirely.
        for i in 8..12 {
            altered.data_mut()[i] = 9.0;
        }
        let mask = vec![vec![true, true, false]];
        let run = |input: Tensor| {
            let mut g = Graph::new();
            let bp = ps.bind(&mut g);
            let xv = g.constant(input);
            let y = attn.forward_with_key_mask(&mut g, &bp, xv, Some(&mask));
            g.value(y).to_vec()
        };
        let y1 = run(base);
        let y2 = run(altered);
        // Outputs of tokens 0 and 1 must be unaffected by token 2's value
        // (token 2's own output row differs: it still queries).
        for i in 0..8 {
            assert!((y1[i] - y2[i]).abs() < 1e-5, "masked key leaked at {}", i);
        }
        assert!((8..12).any(|i| (y1[i] - y2[i]).abs() > 1e-3));
    }

    #[test]
    fn no_mask_equals_all_true_mask() {
        let mut ps = ParamSet::new();
        let attn = MultiHeadAttention::new(&mut ps, "a", 4, 2, 13);
        let x = Tensor::rand_uniform([2, 3, 4], -1.0, 1.0, 14);
        let mask = vec![vec![true; 3]; 2];
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let xv = g.constant(x.clone());
        let y1 = attn.forward(&mut g, &bp, xv);
        let xv2 = g.constant(x);
        let y2 = attn.forward_with_key_mask(&mut g, &bp, xv2, Some(&mask));
        for (a, b) in g.value(y1).to_vec().iter().zip(g.value(y2).to_vec().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn encoder_block_gradients_flow_to_all_params() {
        let mut ps = ParamSet::new();
        let blk = EncoderBlock::new(&mut ps, "b", 8, 2, 2, 5);
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let x = g.constant(Tensor::rand_uniform([2, 4, 8], -1.0, 1.0, 6));
        let y = blk.forward(&mut g, &bp, x);
        let sq = g.mul(y, y);
        let l = g.mean_all(sq);
        g.backward(l);
        for (id, v) in bp.iter() {
            assert!(g.grad(v).is_some(), "no grad for {}", ps.name(id));
        }
    }

    #[test]
    fn encoder_exposes_per_block_skips() {
        let mut ps = ParamSet::new();
        let enc = TransformerEncoder::new(&mut ps, "e", 8, 3, 2, 7);
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let x = g.constant(Tensor::rand_uniform([1, 4, 8], -1.0, 1.0, 8));
        let (out, skips) = enc.forward_with_skips(&mut g, &bp, x);
        assert_eq!(skips.len(), 3);
        assert_eq!(g.value(out).dims(), &[1, 4, 8]);
        for s in skips {
            assert_eq!(g.value(s).dims(), &[1, 4, 8]);
        }
    }

    #[test]
    fn fused_attention_avoids_score_matrix_and_matches_naive_path() {
        // The fused kernel is the default; its defining property is that no
        // [B*H, L, L] score tensor ever appears on the tape, while the
        // output matches the materialized matmul/softmax path.
        let mut ps = ParamSet::new();
        let attn = MultiHeadAttention::new(&mut ps, "a", 4, 1, 9);
        let x = Tensor::rand_uniform([1, 6, 4], -1.0, 1.0, 10);

        apf_tensor::kernels::force_kernel_mode(Some(apf_tensor::kernels::KernelMode::Fast));
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let xv = g.constant(x.clone());
        let before = g.len();
        let out_fast = attn.forward(&mut g, &bp, xv);
        let fast_vals = g.value(out_fast).to_vec();
        let has_score_node = (before..g.len()).any(|i| g.node_value(i).dims() == [1, 6, 6]);
        assert!(!has_score_node, "fused path materialized an L x L score matrix");

        apf_tensor::kernels::force_kernel_mode(Some(apf_tensor::kernels::KernelMode::Naive));
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let xv = g.constant(x);
        let before = g.len();
        let out_naive = attn.forward(&mut g, &bp, xv);
        let naive_vals = g.value(out_naive).to_vec();
        let has_score_node = (before..g.len()).any(|i| g.node_value(i).dims() == [1, 6, 6]);
        assert!(has_score_node, "naive path should materialize the L x L score matrix");
        apf_tensor::kernels::force_kernel_mode(None);

        for (i, (f, n)) in fast_vals.iter().zip(naive_vals.iter()).enumerate() {
            assert!((f - n).abs() < 1e-5, "elem {}: fused {} vs naive {}", i, f, n);
        }
    }
}
