//! Bounded LRU cache of decoded tiles with Morton-order prefetch.
//!
//! The cache holds decoded `f32` tiles behind `Arc`s under a byte budget;
//! eviction is least-recently-used. [`TileCache::prefetch`] warms a set of
//! tiles in Morton (Z-curve) order — the same order the streaming quadtree
//! and the stitching driver consume tiles in, so a prefetched batch is
//! consumed before it is evicted. Payload reads hold the store's file lock;
//! checksum verification and f32 decoding run after the reads, outside it.
//!
//! Hits, misses, evictions, and resident bytes are exported as
//! `apf_gigapixel_cache_*` metrics; bulk operations open `gigapixel.*`
//! spans.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use apf_core::morton_encode;
use apf_imaging::GrayImage;
use apf_telemetry::{Counter, Gauge, Histogram, Telemetry};

use crate::error::GigapixelError;
use crate::residency::Residency;
use crate::store::{TileGeometry, TileStore};

struct Entry {
    data: Arc<Vec<f32>>,
    last_used: u64,
}

struct LruState {
    map: HashMap<(u32, u32), Entry>,
    tick: u64,
    resident_bytes: usize,
}

/// Telemetry handles; all inert when built on a disabled sink.
#[derive(Clone)]
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    resident: Gauge,
    read_s: Histogram,
    retries: Counter,
}

/// Read attempts (initial + retries) before a CRC-failing tile is declared
/// persistently corrupt. Transient corruption — a torn read racing a
/// concurrent writer, a flaky transport — heals on re-read; media
/// corruption does not, and gets a typed [`GigapixelError::TileCorrupt`].
pub const MAX_TILE_READ_ATTEMPTS: u32 = 3;

/// Byte-bounded LRU over a [`TileStore`].
pub struct TileCache {
    store: Arc<TileStore>,
    budget_bytes: usize,
    state: Mutex<LruState>,
    tel: Telemetry,
    metrics: CacheMetrics,
    residency: Residency,
}

impl TileCache {
    /// Wraps `store` with an LRU bounded at `budget_bytes` of decoded
    /// pixels, charging resident bytes against `residency`.
    pub fn new(
        store: Arc<TileStore>,
        budget_bytes: usize,
        tel: Telemetry,
        residency: Residency,
    ) -> Self {
        let metrics = CacheMetrics {
            hits: tel.counter("apf_gigapixel_cache_hits_total", "Tile reads served from cache"),
            misses: tel.counter("apf_gigapixel_cache_misses_total", "Tile reads that hit disk"),
            evictions: tel.counter("apf_gigapixel_cache_evictions_total", "Tiles evicted by the byte budget"),
            resident: tel.gauge("apf_gigapixel_cache_resident_bytes", "Decoded tile bytes held by the cache"),
            read_s: tel.histogram("apf_gigapixel_tile_read_seconds", "Disk read + CRC verify + decode per tile"),
            retries: tel.counter("apf_gigapixel_tile_retry_total", "Tile reads retried after a CRC mismatch"),
        };
        TileCache {
            store,
            budget_bytes,
            state: Mutex::new(LruState { map: HashMap::new(), tick: 0, resident_bytes: 0 }),
            tel,
            metrics,
            residency,
        }
    }

    /// The wrapped store's geometry.
    pub fn geometry(&self) -> TileGeometry {
        self.store.geometry()
    }

    /// The underlying store.
    pub fn store(&self) -> &TileStore {
        &self.store
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Decoded bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.state.lock().expect("cache lock poisoned").resident_bytes
    }

    /// Fetches one tile through the cache.
    pub fn get(&self, tx: u32, ty: u32) -> Result<Arc<Vec<f32>>, GigapixelError> {
        if let Some(hit) = self.lookup(tx, ty) {
            return Ok(hit);
        }
        let _t = self.metrics.read_s.start_timer();
        self.metrics.misses.inc();
        let data = Arc::new(self.read_verified(tx, ty)?);
        self.insert(tx, ty, Arc::clone(&data));
        Ok(data)
    }

    /// Reads and CRC-verifies one tile, retrying with a short backoff on
    /// checksum mismatch (the transient-corruption model). After
    /// [`MAX_TILE_READ_ATTEMPTS`] consecutive mismatches the tile is
    /// declared persistently corrupt.
    fn read_verified(&self, tx: u32, ty: u32) -> Result<Vec<f32>, GigapixelError> {
        let mut attempt = 1u32;
        loop {
            let bytes = self.store.read_tile_bytes(tx, ty)?;
            match self.store.verify_and_decode(tx, ty, &bytes) {
                Ok(data) => return Ok(data),
                Err(GigapixelError::CrcMismatch { expected, found, .. }) => {
                    if attempt >= MAX_TILE_READ_ATTEMPTS {
                        return Err(GigapixelError::TileCorrupt {
                            tx,
                            ty,
                            attempts: attempt,
                            expected,
                            found,
                        });
                    }
                    self.metrics.retries.inc();
                    std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn lookup(&self, tx: u32, ty: u32) -> Option<Arc<Vec<f32>>> {
        let mut s = self.state.lock().expect("cache lock poisoned");
        s.tick += 1;
        let tick = s.tick;
        if let Some(e) = s.map.get_mut(&(tx, ty)) {
            e.last_used = tick;
            self.metrics.hits.inc();
            return Some(Arc::clone(&e.data));
        }
        None
    }

    fn insert(&self, tx: u32, ty: u32, data: Arc<Vec<f32>>) {
        let bytes = data.len() * 4;
        let mut s = self.state.lock().expect("cache lock poisoned");
        s.tick += 1;
        let tick = s.tick;
        if s.map.insert((tx, ty), Entry { data, last_used: tick }).is_none() {
            s.resident_bytes += bytes;
            self.residency.add(bytes);
        }
        // Evict strictly-least-recently-used entries until back under
        // budget, but never the tile just inserted: a single tile larger
        // than the whole budget must still be usable.
        while s.resident_bytes > self.budget_bytes && s.map.len() > 1 {
            let victim = s
                .map
                .iter()
                .filter(|(&k, _)| k != (tx, ty))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(k) = victim else { break };
            if let Some(e) = s.map.remove(&k) {
                let freed = e.data.len() * 4;
                s.resident_bytes -= freed;
                self.residency.sub(freed);
                self.metrics.evictions.inc();
            }
        }
        self.metrics.resident.set(s.resident_bytes as f64);
    }

    /// Warms `tiles` (deduplicated) in Morton order. Raw payloads are read
    /// first, under the store's file lock; CRC verification and decoding
    /// follow, outside it.
    pub fn prefetch(&self, tiles: &[(u32, u32)]) -> Result<(), GigapixelError> {
        let _span = self.tel.span("gigapixel.prefetch");
        let mut wanted: Vec<(u32, u32)> = tiles.to_vec();
        wanted.sort_by_key(|&(tx, ty)| morton_encode(tx, ty));
        wanted.dedup();
        wanted.retain(|&(tx, ty)| self.lookup(tx, ty).is_none());
        if wanted.is_empty() {
            return Ok(());
        }
        self.metrics.misses.add(wanted.len() as u64);
        let _t = self.metrics.read_s.start_timer();
        let raw: Vec<((u32, u32), Vec<u8>)> = wanted
            .iter()
            .map(|&(tx, ty)| self.store.read_tile_bytes(tx, ty).map(|b| ((tx, ty), b)))
            .collect::<Result<_, _>>()?;
        let decoded: Vec<((u32, u32), Vec<f32>)> = raw
            .iter()
            .map(|((tx, ty), bytes)| {
                match self.store.verify_and_decode(*tx, *ty, bytes) {
                    Ok(d) => Ok(((*tx, *ty), d)),
                    // A CRC failure on the batched first read falls back to
                    // the retrying single-tile path (fresh re-reads).
                    Err(GigapixelError::CrcMismatch { .. }) => {
                        self.metrics.retries.inc();
                        self.read_verified(*tx, *ty).map(|d| ((*tx, *ty), d))
                    }
                    Err(e) => Err(e),
                }
            })
            .collect::<Result<_, _>>()?;
        for ((tx, ty), data) in decoded {
            self.insert(tx, ty, Arc::new(data));
        }
        Ok(())
    }

    /// Assembles an arbitrary pixel region by gathering the covering tiles
    /// (prefetched in Morton order) into a dense [`GrayImage`].
    pub fn read_region(
        &self,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
    ) -> Result<GrayImage, GigapixelError> {
        let _span = self.tel.span("gigapixel.read_region");
        let g = self.geometry();
        if w == 0 || h == 0 || x + w > g.width || y + h > g.height {
            return Err(GigapixelError::RegionOutOfBounds {
                x,
                y,
                w,
                h,
                width: g.width,
                height: g.height,
            });
        }
        let t = g.tile_size;
        let tx0 = (x / t) as u32;
        let tx1 = ((x + w - 1) / t) as u32;
        let ty0 = (y / t) as u32;
        let ty1 = ((y + h - 1) / t) as u32;
        let cover: Vec<(u32, u32)> = (ty0..=ty1)
            .flat_map(|ty| (tx0..=tx1).map(move |tx| (tx, ty)))
            .collect();
        self.prefetch(&cover)?;

        let mut out = vec![0.0f32; w * h];
        for &(tx, ty) in &cover {
            let tile = self.get(tx, ty)?;
            let (tw, th) = g.tile_dims(tx, ty);
            let tile_x0 = tx as usize * t;
            let tile_y0 = ty as usize * t;
            // Intersection of the tile with the requested region.
            let ix0 = x.max(tile_x0);
            let ix1 = (x + w).min(tile_x0 + tw);
            let iy0 = y.max(tile_y0);
            let iy1 = (y + h).min(tile_y0 + th);
            for gy in iy0..iy1 {
                let src = (gy - tile_y0) * tw + (ix0 - tile_x0);
                let dst = (gy - y) * w + (ix0 - x);
                out[dst..dst + (ix1 - ix0)].copy_from_slice(&tile[src..src + (ix1 - ix0)]);
            }
        }
        Ok(GrayImage::from_raw(w, h, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TileStoreWriter;
    use std::path::PathBuf;

    fn make_store(name: &str, w: usize, h: usize, ts: usize) -> Arc<TileStore> {
        let dir = std::env::temp_dir().join("apf_gigapixel_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path: PathBuf = dir.join(name);
        let mut wtr = TileStoreWriter::create(&path, w, h, ts).unwrap();
        let g = wtr.geometry();
        for ty in 0..g.tiles_y() {
            for tx in 0..g.tiles_x() {
                let (tw, th) = g.tile_dims(tx, ty);
                let data: Vec<f32> = (0..tw * th)
                    .map(|i| {
                        let gx = tx as usize * ts + i % tw;
                        let gy = ty as usize * ts + i / tw;
                        (gy * w + gx) as f32
                    })
                    .collect();
                wtr.write_tile(tx, ty, &data).unwrap();
            }
        }
        wtr.finish().unwrap();
        Arc::new(TileStore::open(&path).unwrap())
    }

    #[test]
    fn hits_misses_evictions_and_budget() {
        let tel = Telemetry::enabled();
        let store = make_store("lru.apt1", 64, 64, 16); // 16 tiles, 1 KiB each
        let res = Residency::new(&tel);
        // Budget of 4 tiles.
        let cache = TileCache::new(store, 4 * 1024, tel.clone(), res.clone());
        for ty in 0..4 {
            for tx in 0..4 {
                cache.get(tx, ty).unwrap();
            }
        }
        assert!(cache.resident_bytes() <= 4 * 1024, "budget violated");
        let snap = tel.snapshot();
        assert_eq!(snap.get("apf_gigapixel_cache_misses_total", &[]).unwrap().value, 16.0);
        assert_eq!(snap.get("apf_gigapixel_cache_evictions_total", &[]).unwrap().value, 12.0);
        // The most recent tile is a hit; the first tile was evicted long ago.
        cache.get(3, 3).unwrap();
        cache.get(0, 0).unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.get("apf_gigapixel_cache_hits_total", &[]).unwrap().value, 1.0);
        assert_eq!(snap.get("apf_gigapixel_cache_misses_total", &[]).unwrap().value, 17.0);
        // Residency gauge mirrors the cache's own accounting.
        assert_eq!(res.current(), cache.resident_bytes());
        assert!(res.peak() <= 4 * 1024 + 1024);
    }

    #[test]
    fn prefetch_warms_in_morton_order_and_read_region_matches_dense() {
        let tel = Telemetry::enabled();
        let store = make_store("region.apt1", 100, 60, 32);
        let res = Residency::new(&tel);
        let cache = TileCache::new(store, usize::MAX, tel.clone(), res);
        cache.prefetch(&[(0, 0), (1, 1), (1, 0), (0, 1), (1, 1)]).unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.get("apf_gigapixel_cache_misses_total", &[]).unwrap().value, 4.0);
        // A second prefetch of the same set is all hits (no new misses).
        cache.prefetch(&[(0, 0), (1, 0)]).unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.get("apf_gigapixel_cache_misses_total", &[]).unwrap().value, 4.0);

        // Arbitrary unaligned regions agree with the dense ground truth
        // value pattern (pixel value == gy * width + gx).
        for (x, y, w, h) in [(0, 0, 100, 60), (31, 17, 42, 30), (95, 55, 5, 5), (10, 0, 1, 60)] {
            let img = cache.read_region(x, y, w, h).unwrap();
            for dy in 0..h {
                for dx in 0..w {
                    assert_eq!(img.get(dx, dy), ((y + dy) * 100 + (x + dx)) as f32);
                }
            }
        }
        assert!(matches!(
            cache.read_region(90, 0, 20, 10),
            Err(GigapixelError::RegionOutOfBounds { .. })
        ));
    }

    #[test]
    fn persistent_corruption_exhausts_retries_into_tile_corrupt() {
        use std::io::{Seek, SeekFrom, Write};
        let tel = Telemetry::enabled();
        let dir = std::env::temp_dir().join("apf_gigapixel_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt_retry.apt1");
        let mut wtr = TileStoreWriter::create(&path, 32, 32, 16).unwrap();
        let g = wtr.geometry();
        for ty in 0..g.tiles_y() {
            for tx in 0..g.tiles_x() {
                let (tw, th) = g.tile_dims(tx, ty);
                wtr.write_tile(tx, ty, &vec![1.0; tw * th]).unwrap();
            }
        }
        wtr.finish().unwrap();
        // Flip a byte inside tile (1, 1)'s payload: corruption that no
        // amount of re-reading heals.
        let start = g.payload_start() + 3 * 16 * 16 * 4;
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(start + 5)).unwrap();
        f.write_all(&[0xAB]).unwrap();
        drop(f);

        let store = Arc::new(TileStore::open(&path).unwrap());
        let res = Residency::new(&tel);
        let cache = TileCache::new(store, usize::MAX, tel.clone(), res);
        // Clean tiles still read fine.
        cache.get(0, 0).unwrap();
        match cache.get(1, 1) {
            Err(GigapixelError::TileCorrupt { tx: 1, ty: 1, attempts, .. }) => {
                assert_eq!(attempts, MAX_TILE_READ_ATTEMPTS);
            }
            other => panic!("expected TileCorrupt, got {other:?}"),
        }
        let snap = tel.snapshot();
        assert_eq!(
            snap.get("apf_gigapixel_tile_retry_total", &[]).unwrap().value,
            (MAX_TILE_READ_ATTEMPTS - 1) as f64,
            "each failed attempt but the last counts one retry"
        );
    }
}
