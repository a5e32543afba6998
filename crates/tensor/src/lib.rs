//! # apf-tensor
//!
//! A compact, from-scratch deep-learning substrate: dense f32 tensors with
//! sequential, SIMD-vectorised kernels and a tape-based reverse-mode
//! autograd engine.
//!
//! Built because the Rust ML frameworks available at the time (candle, burn)
//! were not mature enough for custom vision-transformer *training*; the APF
//! paper's claims are about training cost, so the substrate must support full
//! backward passes through attention, convolutions, and normalization.
//!
//! ## Layers of the crate
//!
//! - [`tensor::Tensor`] — contiguous row-major values with `Arc` sharing.
//! - [`kernels`] — GEMM, im2col convolutions, pooling (pure functions).
//! - [`autograd::Graph`] — the tape; every op is a variant of
//!   [`autograd::Op`] with its backward rule in one auditable `match`.
//! - [`init`] — seeded Xavier/He/truncated-normal initializers.
//! - [`gradcheck`] — finite-difference checking used throughout the tests.
//!
//! ## Example: one gradient step through a tiny MLP
//!
//! ```
//! use apf_tensor::prelude::*;
//!
//! let w = Tensor::rand_normal([4, 2], 0.0, 0.5, 1);
//! let x = Tensor::rand_normal([3, 4], 0.0, 1.0, 2);
//!
//! let mut g = Graph::new();
//! let wv = g.leaf(w);
//! let xv = g.constant(x);
//! let h = g.matmul(xv, wv);
//! let h = g.relu(h);
//! let loss = g.mean_all(h);
//! g.backward(loss);
//! assert!(g.grad(wv).is_some());
//! ```

pub mod autograd;
pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod shape;
pub mod tensor;

pub use autograd::{Graph, Op, Var};
pub use kernels::conv::ConvGeom;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::autograd::{Graph, Op, Var};
    pub use crate::kernels::conv::ConvGeom;
    pub use crate::shape::Shape;
    pub use crate::tensor::Tensor;
}
