//! Continuous batching + content-addressed preprocessing cache.
//!
//! The paper's fixed-length Morton-ordered patch sequences make
//! cross-request batching natural: every admitted request is a same-shape
//! token sequence, so a padded multi-request forward with per-request
//! key-padding masks amortizes one graph build, one parameter bind, and
//! one SGEMM sweep over many requests — without changing any answer
//! (attention is block-diagonal per batch sample, so each response is
//! numerically equivalent to its solo forward; batch size 1 is bit-exact).
//!
//! Two cooperating pieces:
//!
//! * [`scheduler`] — the one worker loop every engine runs. It drains the
//!   admission queue into batches closed at `max_batch` requests or
//!   `batch_linger` expiry, whichever comes first; "solo" serving is
//!   `max_batch = 1`. Batches are homogeneous per degradation tier (the
//!   tier decides the patch budget, and mixing budgets would
//!   cross-subsidize latency); slides never batch. Requests whose deadline
//!   expires while a batch is forming are evicted with a typed
//!   `DeadlineExceeded { stage: Batching }`, and requests whose deadline
//!   expires mid-forward are removed between encoder blocks with
//!   `DeadlineExceeded { stage: Inference { .. } }`, instead of dragging
//!   the whole batch past its SLO.
//! * [`cache`] — a bounded content-addressed cache of preprocessed patch
//!   sequences, keyed by image content hash / `APT1` tile CRCs plus the
//!   preprocessing knobs, with byte-budgeted LRU eviction and single-flight
//!   deduplication of identical in-flight builds. Its key also seeds the
//!   budget trim, with or without a cache budget.

pub mod cache;
pub mod scheduler;

pub use cache::{CacheKey, CacheOutcome, CacheStats, ContentKey, PatchCache, VariantKey};
pub use scheduler::{batch_aware_retry_after, BatchStatsSnapshot};

/// Knobs of the serving loop's batch windows and its preprocessing cache.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Close a forming batch once it holds this many requests; `1` serves
    /// one request per forward and never lingers.
    pub max_batch: usize,
    /// Close a forming batch this long after its first request even if it
    /// is not full — the latency a lightly loaded request donates to
    /// throughput.
    pub batch_linger_ms: u64,
    /// Byte budget of the content-addressed preprocessing cache; `0`
    /// disables caching (every request rebuilds its quadtree).
    pub cache_budget_bytes: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::solo()
    }
}

impl BatchConfig {
    /// One request per forward, no linger window, no cache.
    pub fn solo() -> Self {
        BatchConfig { max_batch: 1, batch_linger_ms: 0, cache_budget_bytes: 0 }
    }

    /// Batches of up to `max_batch` requests (at least 1) closed after
    /// `batch_linger_ms`, with a 64 MiB preprocessing cache.
    pub fn batched(max_batch: usize, batch_linger_ms: u64) -> Self {
        BatchConfig { max_batch: max_batch.max(1), batch_linger_ms, cache_budget_bytes: 64 << 20 }
    }

    /// [`BatchConfig::batched`]`(16, 2)` with knobs read from the
    /// environment where present: `APF_MAX_BATCH`, `APF_BATCH_LINGER_MS`,
    /// `APF_CACHE_BUDGET_BYTES`. Unparseable or missing values keep the
    /// defaults.
    pub fn from_env() -> Self {
        let mut cfg = Self::batched(16, 2);
        if let Some(v) = env_usize("APF_MAX_BATCH") {
            cfg.max_batch = v.max(1);
        }
        if let Some(v) = env_usize("APF_BATCH_LINGER_MS") {
            cfg.batch_linger_ms = v as u64;
        }
        if let Some(v) = env_usize("APF_CACHE_BUDGET_BYTES") {
            cfg.cache_budget_bytes = v;
        }
        cfg
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_solo() {
        let cfg = BatchConfig::default();
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.batch_linger_ms, 0);
        assert_eq!(cfg.cache_budget_bytes, 0);
    }

    #[test]
    fn batched_clamps_max_batch_to_one() {
        let cfg = BatchConfig::batched(0, 5);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.batch_linger_ms, 5);
        assert!(cfg.cache_budget_bytes > 0);
    }

    #[test]
    fn from_env_reads_the_documented_variables() {
        // Serialize against other env-reading tests via distinct var names
        // already namespaced to this feature.
        std::env::set_var("APF_MAX_BATCH", "9");
        std::env::set_var("APF_BATCH_LINGER_MS", "17");
        std::env::set_var("APF_CACHE_BUDGET_BYTES", "12345");
        let cfg = BatchConfig::from_env();
        assert_eq!(cfg.max_batch, 9);
        assert_eq!(cfg.batch_linger_ms, 17);
        assert_eq!(cfg.cache_budget_bytes, 12345);
        std::env::set_var("APF_MAX_BATCH", "not-a-number");
        assert_eq!(BatchConfig::from_env().max_batch, 16);
        for v in ["APF_MAX_BATCH", "APF_BATCH_LINGER_MS", "APF_CACHE_BUDGET_BYTES"] {
            std::env::remove_var(v);
        }
        let cfg = BatchConfig::from_env();
        assert_eq!((cfg.max_batch, cfg.batch_linger_ms, cfg.cache_budget_bytes), (16, 2, 64 << 20));
    }
}
