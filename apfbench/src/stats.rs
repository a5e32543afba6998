//! Sample summaries under the benchmark's percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that has
//! at least [`MIN_BEYOND`] samples beyond it, together with the sample
//! count. Percentiles use the nearest-rank definition: the `q`-th percentile
//! of `n` sorted samples is the sample at 1-based rank `ceil(q/100 * n)`, so
//! exactly `n - rank` samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_PERCENTILES: [f64; 10] =
    [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `pct` among `n` samples (`n >= 1`).
pub fn rank(n: usize, pct: f64) -> usize {
    // Integer arithmetic in tenths of a percent: 0.99 * 1000 must be
    // exactly rank 990, not a float that rounds up to 991.
    let tenths = (pct * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of already-sorted samples.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when `n` is too small for any (fewer than 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
}

/// Median, tail, and quartiles of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// The tail percentile chosen by the rule; 100 (the maximum) when the
    /// sample has fewer than 20 values.
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Summarizes a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let (tail_pct, tail) = match tail_percentile(n) {
        Some(p) => (p, percentile_sorted(&s, p)),
        None => (100.0, s[n - 1]),
    };
    Summary {
        n,
        p50: percentile_sorted(&s, 50.0),
        p90: percentile_sorted(&s, 90.0),
        tail_pct,
        tail,
        q1: percentile_sorted(&s, 25.0),
        q3: percentile_sorted(&s, 75.0),
        min: s[0],
        max: s[n - 1],
        mean: s.iter().sum::<f64>() / n as f64,
    }
}

/// Median of a non-empty sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the proc
/// filesystem is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // p99 of 1000 is rank 990: exactly 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 is rank 990 with 9 beyond, so fall to p98.
        assert_eq!(tail_percentile(999), Some(98.0));
        // p99.9 needs 10 000 samples.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.5));
        // p90 of 100 is rank 90: 10 beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(80.0));
        // The median needs 20; below that there is no tail.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..3000 {
            let p = tail_percentile(n).expect("n >= 20 has a tail");
            assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
            // No higher candidate qualifies.
            for &q in TAIL_PERCENTILES.iter().filter(|&&q| q > p) {
                assert!(n - rank(n, q) < MIN_BEYOND, "n={n}: {q} also qualifies");
            }
        }
    }

    #[test]
    fn summary_uses_nearest_rank() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!((s.q1, s.q3), (250.0, 750.0));
        assert_eq!((s.min, s.max), (1.0, 1000.0));
        assert!((s.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn small_samples_report_the_maximum_as_tail() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.tail_pct, 100.0);
        assert_eq!(s.tail, 3.0);
        assert_eq!(s.p50, 2.0);
    }
}
