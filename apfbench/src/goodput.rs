//! Goodput: the highest rate of a fixed ladder the engine sustains.
//!
//! A rung passes when all of these hold:
//! * the share of requests over the latency limit (failures count as over)
//!   is at most `1 - pct/100`, i.e. the `pct`-th percentile is within the
//!   limit;
//! * no request failed and at least 99% were served at the full tier;
//! * the backlog left when the schedule ends drains within the latency
//!   limit (it did not grow without bound);
//! * the generator kept to its schedule.
//!
//! Rungs above the reference rate are searched by bisection, so a run
//! measures a fixed number of rungs wherever the knee lies.

/// Pass criteria of a rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// Latency limit (ms, timed from the due time).
    pub limit_ms: f64,
    /// Percentile the limit applies to.
    pub pct: f64,
    /// Minimum share of responses at `Tier::Full`.
    pub min_full_share: f64,
    /// Largest generator lag at the limit's percentile (ms).
    pub lag_limit_ms: f64,
}

/// What one rung measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RungResult {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed (any outcome but completion).
    pub failed: u64,
    /// Completed requests served below the full tier.
    pub below_full: u64,
    /// Completed requests slower than the latency limit.
    pub over_limit: u64,
    /// Requests still outstanding when the last one was sent.
    pub backlog_at_end: u64,
    /// Generator lag at the limit's percentile (ms).
    pub lag_ms: f64,
    /// Completed requests per second over the rung's wall time.
    pub achieved_rps: f64,
}

impl RungResult {
    /// Share of sent requests that missed the latency limit or failed.
    pub fn miss_share(&self) -> f64 {
        (self.over_limit + self.failed) as f64 / self.sent.max(1) as f64
    }

    /// Share of completed requests served at the full tier.
    pub fn full_share(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        (self.completed - self.below_full) as f64 / self.completed as f64
    }

    /// Whether the rung meets every criterion of `limits`.
    pub fn passes(&self, limits: &Limits) -> bool {
        let drainable = self.rate * limits.limit_ms / 1e3;
        self.sent > 0
            && self.miss_share() <= 1.0 - limits.pct / 100.0 + 1e-12
            && self.failed == 0
            && self.full_share() >= limits.min_full_share
            && (self.backlog_at_end as f64) <= drainable.max(1.0)
            && self.lag_ms <= limits.lag_limit_ms
    }
}

/// The highest-rate passing rung.
pub fn select_goodput<'a>(rungs: &'a [RungResult], limits: &Limits) -> Option<&'a RungResult> {
    rungs
        .iter()
        .filter(|r| r.passes(limits))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
}

/// Bisection over ladder indices: `pass` is the highest index known to
/// pass (or `None`), `fail` the lowest known to fail (or the ladder length).
#[derive(Debug, Clone, PartialEq)]
pub struct LadderSearch {
    pass: Option<usize>,
    fail: usize,
}

impl LadderSearch {
    /// A search over `len` rungs, every one of them still open.
    pub fn new(len: usize) -> Self {
        LadderSearch {
            pass: None,
            fail: len,
        }
    }

    /// The next rung to measure, or `None` when the knee is located.
    pub fn next(&self) -> Option<usize> {
        let lo = self.pass.map_or(0, |p| p + 1);
        (lo < self.fail).then(|| (lo + self.fail - 1).div_ceil(2).max(lo))
    }

    /// Records the verdict on rung `idx`.
    pub fn record(&mut self, idx: usize, passed: bool) {
        if passed {
            self.pass = Some(self.pass.map_or(idx, |p| p.max(idx)));
        } else {
            self.fail = self.fail.min(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: Limits = Limits {
        limit_ms: 40.0,
        pct: 99.0,
        min_full_share: 0.99,
        lag_limit_ms: 5.0,
    };

    fn rung(rate: f64) -> RungResult {
        RungResult {
            rate,
            sent: 1000,
            completed: 1000,
            failed: 0,
            below_full: 0,
            over_limit: 0,
            backlog_at_end: 0,
            lag_ms: 0.5,
            achieved_rps: rate * 0.99,
        }
    }

    #[test]
    fn every_criterion_can_fail_a_rung() {
        assert!(rung(100.0).passes(&LIMITS));
        let over = RungResult {
            over_limit: 11,
            ..rung(100.0)
        };
        assert!(!over.passes(&LIMITS), "p99 over the limit");
        assert!(RungResult {
            over_limit: 10,
            ..rung(100.0)
        }
        .passes(&LIMITS));
        let failed = RungResult {
            completed: 999,
            failed: 1,
            ..rung(100.0)
        };
        assert!(!failed.passes(&LIMITS), "any failure");
        let degraded = RungResult {
            below_full: 11,
            ..rung(100.0)
        };
        assert!(!degraded.passes(&LIMITS), "full tier below 99%");
        assert!(RungResult {
            below_full: 10,
            ..rung(100.0)
        }
        .passes(&LIMITS));
        // 100 rps x 40 ms = 4 requests may still be queued at the end.
        assert!(RungResult {
            backlog_at_end: 4,
            ..rung(100.0)
        }
        .passes(&LIMITS));
        assert!(
            !RungResult {
                backlog_at_end: 5,
                ..rung(100.0)
            }
            .passes(&LIMITS),
            "backlog"
        );
        assert!(
            !RungResult {
                lag_ms: 5.1,
                ..rung(100.0)
            }
            .passes(&LIMITS),
            "lag"
        );
        // A p90 limit tolerates 10% misses.
        let p90 = Limits {
            pct: 90.0,
            ..LIMITS
        };
        assert!(RungResult {
            over_limit: 100,
            ..rung(100.0)
        }
        .passes(&p90));
        assert!(!RungResult {
            over_limit: 101,
            ..rung(100.0)
        }
        .passes(&p90));
        assert!(!RungResult {
            sent: 0,
            completed: 0,
            ..rung(100.0)
        }
        .passes(&LIMITS));
    }

    #[test]
    fn goodput_is_the_highest_passing_rung() {
        let rungs = vec![
            rung(120.0),
            rung(200.0),
            RungResult {
                over_limit: 50,
                ..rung(240.0)
            },
            rung(180.0),
        ];
        assert_eq!(select_goodput(&rungs, &LIMITS).map(|r| r.rate), Some(200.0));
        let none = vec![RungResult {
            failed: 3,
            completed: 997,
            ..rung(60.0)
        }];
        assert!(select_goodput(&none, &LIMITS).is_none());
    }

    #[test]
    fn bisection_finds_the_knee_in_log_steps() {
        for len in 1..40usize {
            for knee in 0..=len {
                // Rungs below `knee` pass, the rest fail.
                let mut s = LadderSearch::new(len);
                let mut probes = 0;
                while let Some(i) = s.next() {
                    assert!(i < len);
                    s.record(i, i < knee);
                    probes += 1;
                    assert!(probes <= 8, "len {len} knee {knee}: too many probes");
                }
                assert_eq!(s.pass, knee.checked_sub(1), "len {len} knee {knee}");
                assert_eq!(s.fail, knee);
            }
        }
    }
}
