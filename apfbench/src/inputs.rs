//! Seeded input generation. The program only ever sees what these
//! functions produce, and the same seed always produces the same bytes.

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::filter::gaussian_blur;
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_imaging::GrayImage;

/// Side of a served tile.
pub const TILE: usize = 256;

/// SplitMix64: a small, fully specified generator, so the input streams do
/// not depend on any library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Mixes a workload seed with a stream label, so streams of one run are
/// independent.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// `n` PAIP-like images at `res`, drawn from the generator seeded by
/// `seed`.
pub fn paip_images(seed: u64, res: usize, n: usize) -> Vec<GrayImage> {
    let gen = PaipGenerator::new(PaipConfig::at_resolution(res).with_seed(seed));
    (0..n).map(|i| gen.generate(i).image).collect()
}

/// `n` PAIP-like `(image, mask)` pairs at `res`.
pub fn paip_pairs(seed: u64, res: usize, n: usize) -> Vec<(GrayImage, GrayImage)> {
    let gen = PaipGenerator::new(PaipConfig::at_resolution(res).with_seed(seed));
    (0..n)
        .map(|i| {
            let s = gen.generate(i);
            (s.image, s.mask)
        })
        .collect()
}

/// A content-unique copy of `base` for request `k`: the low 12 mantissa
/// bits of the first two pixels carry `k`. Every `k < 2^24` gives distinct
/// bytes, so every request misses a content-addressed cache, while the
/// change (at most 2^-11 relative on two pixels) leaves the image's
/// structure as it was.
pub fn unique_variant(base: &GrayImage, k: u64) -> GrayImage {
    let mut img = base.clone();
    let data = img.data_mut();
    for (slot, bits) in [(0usize, k & 0xFFF), (1usize, (k >> 12) & 0xFFF)] {
        data[slot] = f32::from_bits((data[slot].to_bits() & !0xFFF) | bits as u32);
    }
    img
}

/// A smoothed tile: few edges, so its APF sequence is short enough to fit a
/// serving budget without any drop.
pub fn smooth_variant(img: &GrayImage) -> GrayImage {
    gaussian_blur(img, 31, 8.0)
}

/// The serving engine's patcher for a `res`-pixel image at patch size `pm`.
pub fn serving_patcher(res: usize, pm: usize) -> AdaptivePatcher {
    AdaptivePatcher::new(PatcherConfig::for_resolution(res).with_patch_size(pm))
}

/// Raw APF sequence length of `img` under `patcher` (before any budget).
pub fn raw_len(patcher: &AdaptivePatcher, img: &GrayImage) -> usize {
    patcher.tree(img).len()
}

/// Truncated Zipf popularity over `n` items with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Popularity of item `i` proportional to `1 / (i + 1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws an item index.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Pool indices client `client` requests, in order.
pub fn popularity_stream(seed: u64, client: u64, pool: usize, len: usize) -> Vec<usize> {
    let zipf = Zipf::new(pool, 1.1);
    let mut rng = SplitMix64::new(derive_seed(seed, 0xC11E_0000 + client));
    (0..len).map(|_| zipf.sample(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_serve::ContentKey;
    use std::collections::HashSet;

    fn bytes(img: &GrayImage) -> Vec<u8> {
        img.data().iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = paip_images(7, 64, 3);
        let b = paip_images(7, 64, 3);
        let c = paip_images(8, 64, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(bytes(x), bytes(y));
        }
        assert_ne!(bytes(&a[0]), bytes(&c[0]), "the seed must matter");
        assert_eq!(
            bytes(&unique_variant(&a[1], 99)),
            bytes(&unique_variant(&b[1], 99))
        );
        let (p, q) = (paip_pairs(3, 64, 2), paip_pairs(3, 64, 2));
        assert_eq!(bytes(&p[1].1), bytes(&q[1].1));
        assert_eq!(
            popularity_stream(5, 1, 16, 500),
            popularity_stream(5, 1, 16, 500)
        );
        assert_ne!(
            popularity_stream(5, 1, 16, 500),
            popularity_stream(6, 1, 16, 500)
        );
    }

    #[test]
    fn unique_tiles_are_pairwise_distinct_by_content_key() {
        let bases = paip_images(11, 64, 2);
        let mut keys = HashSet::new();
        for k in 0..3000u64 {
            let img = unique_variant(&bases[(k % 2) as usize], k);
            assert!(img.validate_finite().is_ok());
            assert!(
                keys.insert(ContentKey::of_image(&img)),
                "request {k} repeats a key"
            );
        }
        // Large indices use the second pixel too.
        let far = unique_variant(&bases[0], 1 << 20);
        assert!(keys.insert(ContentKey::of_image(&far)));
    }

    #[test]
    fn hot_pool_requests_repeat_with_skew() {
        let pool = 16;
        let stream = popularity_stream(3, 0, pool, 4000);
        let mut counts = vec![0usize; pool];
        for &i in &stream {
            counts[i] += 1;
        }
        let distinct = counts.iter().filter(|&&c| c > 0).count();
        // 4000 requests over at most 16 distinct tiles: >= 99.6% repeats.
        assert!(distinct <= pool);
        assert!((stream.len() - distinct) as f64 / stream.len() as f64 >= 0.95);
        assert!(
            counts[0] > counts[pool - 1] * 4,
            "popularity is skewed: {counts:?}"
        );
        let imgs = paip_images(3, 64, pool);
        let keys: HashSet<_> = stream
            .iter()
            .map(|&i| ContentKey::of_image(&imgs[i]))
            .collect();
        assert_eq!(keys.len(), distinct, "repeats address the same content key");
    }

    #[test]
    fn smoothing_shortens_the_sequence() {
        let img = &paip_images(1, TILE, 1)[0];
        let p = serving_patcher(TILE, 4);
        assert!(raw_len(&p, &smooth_variant(img)) < raw_len(&p, img));
    }
}
