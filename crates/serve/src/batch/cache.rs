//! Content-addressed preprocessing cache with single-flight deduplication.
//!
//! Quadtree construction is deterministic in the input tile bytes: the same
//! pixels under the same patcher knobs always yield the same Morton-ordered
//! patch sequence. That makes preprocessing memoizable by *content*, not by
//! request id — a repeated slide (the dominant pattern when a pathology
//! viewer pans and re-pans the same region) skips blur, Canny, quadtree,
//! and patch projection entirely.
//!
//! Three properties carry the design:
//!
//! * **Content addressing** — the key is derived from the raw pixel bytes
//!   (or, for `APT1` containers, the per-tile CRC-32s the store already
//!   maintains) plus every preprocessing knob that shapes the output.
//!   Geometry, a CRC-32, and an independent 64-bit FNV-1a are folded into
//!   the key, so two buffers must collide in *both* checksums *and* share
//!   geometry and knobs before they can alias.
//! * **Byte-budgeted LRU** — entries are charged their approximate resident
//!   bytes; inserting past the budget evicts least-recently-used entries
//!   first. The budget invariant (`resident <= budget`) holds after every
//!   operation; an entry bigger than the whole budget is returned to the
//!   caller but never cached. A zero budget caches nothing and skips the
//!   single-flight bookkeeping.
//! * **Single-flight** — when two identical requests race, exactly one
//!   builds; the rest block on a condvar and receive the shared result.
//!   A failed build wakes all waiters empty-handed (nothing is cached) so
//!   a typed validation error propagates instead of being memoized.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use apf_core::crc32;
use apf_core::patchify::PatchSequence;
use apf_imaging::GrayImage;
use apf_telemetry::{Counter, Gauge, Telemetry};
use serde::Serialize;

/// Content identity of one input image / tile region. Derived from bytes,
/// never from request ids, so identical pixels always address the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ContentKey {
    /// Input width in pixels (geometry is part of identity).
    pub width: u32,
    /// Input height in pixels.
    pub height: u32,
    /// CRC-32 of the little-endian pixel bytes — the same polynomial the
    /// `APT1` tile index stores, so container CRCs can seed keys directly.
    pub crc: u32,
    /// Independent FNV-1a 64-bit hash of the same bytes.
    pub fnv: u64,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl ContentKey {
    /// Keys an in-memory image by its raw pixel bytes.
    pub fn of_image(img: &GrayImage) -> Self {
        let mut bytes = Vec::with_capacity(img.data().len() * 4);
        for v in img.data() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        ContentKey {
            width: img.width() as u32,
            height: img.height() as u32,
            crc: crc32(&bytes),
            fnv: fnv1a(&bytes),
        }
    }

    /// Keys an `APT1` tile region by the per-tile payload CRCs the
    /// container's index already holds — no tile needs to be read to decide
    /// whether its preprocessing is cached.
    pub fn of_tile_crcs(width: u32, height: u32, tile_crcs: &[u32]) -> Self {
        let mut bytes = Vec::with_capacity(tile_crcs.len() * 4);
        for c in tile_crcs {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        ContentKey { width, height, crc: crc32(&bytes), fnv: fnv1a(&bytes) }
    }
}

/// The preprocessing knobs that shape the cached sequence. Two requests for
/// the same pixels under different tiers/budgets must not share an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct VariantKey {
    /// Degradation tier rank (coarse skips the edge pipeline entirely).
    pub tier_rank: u8,
    /// Minimal patch size `P_m`.
    pub patch_size: u16,
    /// Token budget the sequence was clamped to.
    pub budget: u32,
    /// Coarse-tier uniform leaf side (ignored by the full/reduced paths
    /// but kept in the key unconditionally for simplicity).
    pub coarse_leaf: u32,
}

/// Full cache key: content identity x preprocessing variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CacheKey {
    /// What the pixels are.
    pub content: ContentKey,
    /// How they are preprocessed.
    pub variant: VariantKey,
}

impl CacheKey {
    /// Deterministic content-derived seed for the random Z-order drop:
    /// identical content + variant always drops the same patches, which is
    /// what makes the cached sequence reusable across requests.
    pub fn drop_seed(&self) -> u64 {
        self.content.fnv
            ^ ((self.content.crc as u64) << 32)
            ^ self.variant.budget as u64
            ^ ((self.variant.tier_rank as u64) << 56)
    }
}

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CacheOutcome {
    /// Entry was resident; no work done.
    Hit,
    /// This caller built the entry.
    Miss,
    /// Another caller was already building the same key; this one waited
    /// and shares the result (a deduplicated miss).
    Coalesced,
}

/// Cache counters for reports; hits, misses, coalesced waits and evictions
/// are the cache's `apf_serve_batch_cache_*_total` registry counters.
#[derive(Debug, Default, Clone, Serialize)]
pub struct CacheStats {
    /// Lookups satisfied from a resident entry.
    pub hits: u64,
    /// Lookups that built the entry themselves.
    pub misses: u64,
    /// Lookups deduplicated onto another caller's in-flight build.
    pub coalesced: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Builds that failed (typed errors propagate, nothing is cached).
    pub build_failures: u64,
    /// Entries too large to ever cache (returned uncached).
    pub oversize_rejections: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub resident_entries: u64,
}

impl CacheStats {
    /// Hit fraction over all completed lookups (coalesced waits count as
    /// hits for the "preprocessing skipped" interpretation).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / total as f64
    }
}

struct Entry {
    seq: Arc<PatchSequence>,
    bytes: usize,
    last_used: u64,
}

enum Slot {
    /// A builder is running; waiters block on the condvar.
    Building,
    /// Resident entry.
    Ready(Entry),
}

struct Inner {
    slots: HashMap<CacheKey, Slot>,
    resident_bytes: usize,
    tick: u64,
    build_failures: u64,
    oversize_rejections: u64,
}

/// Telemetry handles. The counters always count, bumped only under the
/// cache lock; the gauges are inert when the engine telemetry is disabled.
struct CacheTel {
    hits: Counter,
    misses: Counter,
    coalesced: Counter,
    evictions: Counter,
    bytes: Gauge,
    entries: Gauge,
}

impl CacheTel {
    fn new(tel: &Telemetry) -> Self {
        let outcome = |o: &'static str| {
            tel.counter_with(
                "apf_serve_batch_cache_lookups_total",
                vec![("outcome", o.to_string())],
                "Preprocessing-cache lookups by outcome",
            )
        };
        CacheTel {
            hits: outcome("hit"),
            misses: outcome("miss"),
            coalesced: outcome("coalesced"),
            evictions: tel.counter(
                "apf_serve_batch_cache_evictions_total",
                "Preprocessing-cache entries evicted by the byte budget",
            ),
            bytes: tel.gauge(
                "apf_serve_batch_cache_resident_bytes",
                "Bytes of patch sequences resident in the preprocessing cache",
            ),
            entries: tel.gauge(
                "apf_serve_batch_cache_resident_entries",
                "Entries resident in the preprocessing cache",
            ),
        }
    }
}

/// Bounded content-addressed cache of preprocessed patch sequences.
pub struct PatchCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    budget_bytes: usize,
    tm: CacheTel,
}

/// Approximate resident bytes of a cached sequence: pixel payload plus
/// per-patch bookkeeping overhead.
fn sequence_bytes(seq: &PatchSequence) -> usize {
    let d = seq.patch_size * seq.patch_size;
    seq.len() * (d * 4 + 48)
}

impl PatchCache {
    /// Creates a cache holding at most `budget_bytes` of patch sequences.
    pub fn new(budget_bytes: usize, tel: &Telemetry) -> Self {
        PatchCache {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                resident_bytes: 0,
                tick: 0,
                build_failures: 0,
                oversize_rejections: 0,
            }),
            ready: Condvar::new(),
            budget_bytes,
            tm: CacheTel::new(tel),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently resident (always `<= budget_bytes`).
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).resident_bytes
    }

    /// Snapshot of the counters, taken under the cache lock (every count
    /// is bumped under it, so the snapshot is consistent).
    pub fn stats(&self) -> CacheStats {
        let st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            hits: self.tm.hits.get(),
            misses: self.tm.misses.get(),
            coalesced: self.tm.coalesced.get(),
            evictions: self.tm.evictions.get(),
            build_failures: st.build_failures,
            oversize_rejections: st.oversize_rejections,
            resident_bytes: st.resident_bytes as u64,
            resident_entries: st.slots.values().filter(|s| matches!(s, Slot::Ready(_))).count()
                as u64,
        }
    }

    /// Looks up `key`, building it with `build` on a miss. Exactly one
    /// caller builds per key at a time; racers wait and share the result.
    /// Errors propagate to the builder *and* every waiter (each waiter
    /// retries the build itself, so transient failures cannot poison the
    /// key), and failed builds are never cached.
    pub fn get_or_build<E>(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Result<PatchSequence, E>,
    ) -> Result<(Arc<PatchSequence>, CacheOutcome), E> {
        if self.budget_bytes == 0 {
            // Nothing is ever cached, so there is no build to coalesce onto:
            // identical requests build side by side instead of queueing.
            let built = build();
            let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if built.is_ok() {
                self.tm.misses.inc();
            } else {
                st.build_failures += 1;
            }
            return built.map(|seq| (Arc::new(seq), CacheOutcome::Miss));
        }
        let mut waited = false;
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // The tick is a monotonic recency stamp; bumping it on every
            // loop turn (not just hits) keeps the borrow simple and the
            // order intact.
            st.tick += 1;
            let tick = st.tick;
            match st.slots.get_mut(&key) {
                Some(Slot::Ready(entry)) => {
                    entry.last_used = tick;
                    let seq = Arc::clone(&entry.seq);
                    if waited {
                        self.tm.coalesced.inc();
                    } else {
                        self.tm.hits.inc();
                    }
                    return Ok((seq, if waited { CacheOutcome::Coalesced } else { CacheOutcome::Hit }));
                }
                Some(Slot::Building) => {
                    // Someone else is building this key; wait for the verdict.
                    waited = true;
                    st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
                    continue;
                }
                None => break,
            }
        }
        // This caller owns the build.
        st.slots.insert(key, Slot::Building);
        drop(st);
        let built = build();
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match built {
            Err(e) => {
                st.slots.remove(&key);
                st.build_failures += 1;
                drop(st);
                self.ready.notify_all();
                Err(e)
            }
            Ok(seq) => {
                let bytes = sequence_bytes(&seq);
                let seq = Arc::new(seq);
                if bytes > self.budget_bytes {
                    // Never violates the budget: hand the sequence back
                    // uncached and release the waiters to build their own.
                    st.slots.remove(&key);
                    st.oversize_rejections += 1;
                    self.tm.misses.inc();
                    drop(st);
                    self.ready.notify_all();
                    return Ok((seq, CacheOutcome::Miss));
                }
                // Evict LRU entries until the newcomer fits.
                while st.resident_bytes + bytes > self.budget_bytes {
                    let victim = st
                        .slots
                        .iter()
                        .filter_map(|(k, s)| match s {
                            Slot::Ready(e) => Some((*k, e.last_used)),
                            Slot::Building => None,
                        })
                        .min_by_key(|&(_, used)| used)
                        .map(|(k, _)| k);
                    let Some(victim) = victim else { break };
                    if let Some(Slot::Ready(e)) = st.slots.remove(&victim) {
                        st.resident_bytes -= e.bytes;
                        self.tm.evictions.inc();
                    }
                }
                st.tick += 1;
                let tick = st.tick;
                st.slots.insert(
                    key,
                    Slot::Ready(Entry { seq: Arc::clone(&seq), bytes, last_used: tick }),
                );
                st.resident_bytes += bytes;
                self.tm.misses.inc();
                self.tm.bytes.set(st.resident_bytes as f64);
                self.tm.entries.set(
                    st.slots.values().filter(|s| matches!(s, Slot::Ready(_))).count() as f64,
                );
                drop(st);
                self.ready.notify_all();
                Ok((seq, CacheOutcome::Miss))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_core::patchify::Patch;

    fn seq_of(pm: usize, n: usize, fill: f32) -> PatchSequence {
        PatchSequence {
            patches: (0..n)
                .map(|_| Patch { pixels: vec![fill; pm * pm], region: None })
                .collect(),
            patch_size: pm,
            resolution: 64,
        }
    }

    fn key(crc: u32, fnv: u64) -> CacheKey {
        CacheKey {
            content: ContentKey { width: 64, height: 64, crc, fnv },
            variant: VariantKey { tier_rank: 0, patch_size: 4, budget: 64, coarse_leaf: 16 },
        }
    }

    #[test]
    fn hit_after_miss_and_stats_track() {
        let cache = PatchCache::new(1 << 20, &Telemetry::disabled());
        let k = key(1, 1);
        let (a, o1) = cache.get_or_build::<()>(k, || Ok(seq_of(4, 8, 0.5))).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        let (b, o2) = cache.get_or_build::<()>(k, || panic!("must not rebuild")).unwrap();
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn distinct_variants_do_not_share_entries() {
        let cache = PatchCache::new(1 << 20, &Telemetry::disabled());
        let mut k2 = key(7, 7);
        k2.variant.budget = 32;
        cache.get_or_build::<()>(key(7, 7), || Ok(seq_of(4, 8, 0.0))).unwrap();
        let (_, o) = cache.get_or_build::<()>(k2, || Ok(seq_of(4, 4, 0.0))).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn eviction_respects_budget_and_prefers_lru() {
        // Each 8-patch pm=4 sequence costs 8 * (64 + 48) = 896 bytes;
        // budget fits exactly two.
        let cache = PatchCache::new(1800, &Telemetry::disabled());
        cache.get_or_build::<()>(key(1, 1), || Ok(seq_of(4, 8, 0.1))).unwrap();
        cache.get_or_build::<()>(key(2, 2), || Ok(seq_of(4, 8, 0.2))).unwrap();
        // Touch key 1 so key 2 is the LRU victim.
        cache.get_or_build::<()>(key(1, 1), || panic!("resident")).unwrap();
        cache.get_or_build::<()>(key(3, 3), || Ok(seq_of(4, 8, 0.3))).unwrap();
        assert!(cache.resident_bytes() <= 1800);
        // Key 1 survived, key 2 was evicted.
        let (_, o1) = cache.get_or_build::<()>(key(1, 1), || panic!("evicted the MRU")).unwrap();
        assert_eq!(o1, CacheOutcome::Hit);
        let (_, o2) = cache.get_or_build::<()>(key(2, 2), || Ok(seq_of(4, 8, 0.2))).unwrap();
        assert_eq!(o2, CacheOutcome::Miss);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn oversize_entries_are_returned_but_never_cached() {
        let cache = PatchCache::new(100, &Telemetry::disabled());
        let (seq, o) = cache.get_or_build::<()>(key(9, 9), || Ok(seq_of(4, 8, 0.5))).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(seq.len(), 8);
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.stats().oversize_rejections, 1);
        // A zero budget builds every lookup itself.
        let none = PatchCache::new(0, &Telemetry::disabled());
        for _ in 0..2 {
            let (_, o) = none.get_or_build::<()>(key(9, 9), || Ok(seq_of(4, 8, 0.5))).unwrap();
            assert_eq!(o, CacheOutcome::Miss);
        }
        assert_eq!((none.resident_bytes(), none.stats().misses), (0, 2));
    }

    #[test]
    fn failed_builds_propagate_and_are_not_cached() {
        let cache = PatchCache::new(1 << 20, &Telemetry::disabled());
        let err = cache.get_or_build(key(5, 5), || Err("bad pixels")).unwrap_err();
        assert_eq!(err, "bad pixels");
        // The key is free again: a later build succeeds.
        let (_, o) = cache.get_or_build::<()>(key(5, 5), || Ok(seq_of(4, 2, 0.0))).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(cache.stats().build_failures, 1);
    }

    #[test]
    fn content_keys_fold_geometry_and_both_hashes() {
        let a = GrayImage::from_fn(8, 8, |x, y| (x * 8 + y) as f32 / 63.0);
        let mut b = a.clone();
        b.set(3, 3, 0.123);
        let (ka, kb) = (ContentKey::of_image(&a), ContentKey::of_image(&b));
        assert_ne!(ka, kb);
        assert_eq!(ka, ContentKey::of_image(&a));
        // Tile-CRC keys: order matters, content matters.
        let t1 = ContentKey::of_tile_crcs(128, 128, &[1, 2, 3]);
        let t2 = ContentKey::of_tile_crcs(128, 128, &[3, 2, 1]);
        assert_ne!(t1, t2);
        assert_eq!(t1, ContentKey::of_tile_crcs(128, 128, &[1, 2, 3]));
    }
}
