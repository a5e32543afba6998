//! Low-level compute kernels behind the tensor and autograd ops.
//!
//! Kernels are pure functions over buffers/tensors that run sequentially on
//! the calling thread (the inner loops vectorise through [`backend`]), and
//! are individually unit-tested so autograd can be tested independently of
//! the numerics.
//!
//! ## Fast vs naive kernels
//!
//! Each throughput-critical kernel ships in two forms: a **fast** path
//! (packed/tiled SGEMM, streaming fused attention, fused bias+GELU and
//! layernorm) and a **naive** reference that spells out the textbook loop.
//! The fast path is the default; the naive path is kept alive for two
//! reasons:
//!
//! 1. the differential kernel-oracle suite (`tests/kernel_oracle.rs`)
//!    proptests fast against naive over ragged shapes and non-finite
//!    inputs, so a silent divergence cannot ship;
//! 2. bisection — setting `APF_NAIVE_KERNELS=1` (or calling
//!    [`force_kernel_mode`]) reroutes every dispatch site through the
//!    reference kernels, which isolates "fast kernel bug" from "model bug"
//!    in one flag flip.
//!
//! Error-bound policy: fast kernels may reassociate sums (blocking changes
//! the reduction tree) and may contract multiply+add to FMA (the avx2/neon
//! [`backend`]s do), so agreement with the naive reference is asserted
//! elementwise within `REL_TOL * |a|·|b| + ABS_TOL` where `|a|·|b|` is the
//! same product computed over absolute values — a bound that scales with
//! the condition of the dot product rather than its (possibly cancelled)
//! value. Kernels that do *not* reassociate (bias+GELU, layernorm) must
//! match bit-for-bit on every backend.
//!
//! ## Mode vs backend precedence
//!
//! Two independent axes control dispatch, reconciled in this order:
//!
//! 1. **Kernel mode** (this module): [`force_kernel_mode`] beats
//!    `APF_NAIVE_KERNELS` beats the fast default. In naive mode every
//!    dispatch site takes the textbook reference loops and the SIMD
//!    backend layer is never entered — a naive-mode test cannot
//!    accidentally run vectorized code.
//! 2. **Backend** ([`backend`]), consulted only in fast mode:
//!    [`backend::force_backend`] beats `APF_KERNEL_BACKEND` beats the
//!    best runtime-detected backend.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

pub mod attention;
pub mod backend;
pub mod conv;
pub mod fused;
pub mod gemm;
pub mod pool;
pub(crate) mod stats;

/// Which implementation family the dispatching kernels route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Packed/tiled/fused kernels (the default).
    Fast,
    /// Textbook reference loops; slower but the differential oracle's
    /// ground truth and the bisection baseline.
    Naive,
}

/// Programmatic override: 0 = unset (defer to env), 1 = fast, 2 = naive.
static FORCED_MODE: AtomicU8 = AtomicU8::new(0);
/// The `APF_NAIVE_KERNELS` environment variable, read once per process.
static ENV_MODE: OnceLock<KernelMode> = OnceLock::new();

/// The kernel mode in effect: a [`force_kernel_mode`] override wins,
/// otherwise `APF_NAIVE_KERNELS` (any value but `0`/empty means naive),
/// otherwise [`KernelMode::Fast`].
pub fn kernel_mode() -> KernelMode {
    match FORCED_MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Fast,
        2 => KernelMode::Naive,
        _ => *ENV_MODE.get_or_init(|| match std::env::var("APF_NAIVE_KERNELS") {
            Ok(v) if !v.is_empty() && v != "0" => KernelMode::Naive,
            _ => KernelMode::Fast,
        }),
    }
}

/// Overrides the kernel mode for the whole process (`None` restores the
/// environment-derived default). Tests use this instead of mutating the
/// environment, which is unsafe once threads exist.
pub fn force_kernel_mode(mode: Option<KernelMode>) {
    let v = match mode {
        None => 0,
        Some(KernelMode::Fast) => 1,
        Some(KernelMode::Naive) => 2,
    };
    FORCED_MODE.store(v, Ordering::Relaxed);
}

/// True when dispatch sites should take the reference path.
pub fn naive_kernels() -> bool {
    kernel_mode() == KernelMode::Naive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_overrides_and_restores() {
        force_kernel_mode(Some(KernelMode::Naive));
        assert_eq!(kernel_mode(), KernelMode::Naive);
        assert!(naive_kernels());
        force_kernel_mode(Some(KernelMode::Fast));
        assert_eq!(kernel_mode(), KernelMode::Fast);
        force_kernel_mode(None);
        // Default (no env set in the test harness) is fast.
        let _ = kernel_mode();
    }
}
