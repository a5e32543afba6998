//! The open-loop arrival schedule and its lag ledger.
//!
//! Request `i` of a rung at `rate` requests per second is due at
//! `start + i / rate`, whatever happened to earlier requests. Latency is
//! timed from the due time, so a stall that delays the generator is charged
//! to every request it delays. How late the generator actually sent each
//! request is kept separately: a run whose generator fell behind measured
//! the generator, not the program.

use std::time::Duration;

/// A fixed-rate arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoop {
    /// Arrivals per second.
    pub rate: f64,
}

impl OpenLoop {
    /// Offset of request `i`'s due time from the schedule start.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Requests due within the first `seconds` of the schedule.
    pub fn count_within(&self, seconds: f64) -> u64 {
        (self.rate * seconds).floor().max(1.0) as u64
    }
}

/// How late the generator sent each request, in microseconds past its due
/// time (0 when it was on time or early).
#[derive(Debug, Clone, Default)]
pub struct LagLedger {
    lags_us: Vec<u64>,
}

impl LagLedger {
    /// Records one send: `due_us` and `sent_us` on the same clock.
    pub fn record(&mut self, due_us: u64, sent_us: u64) -> u64 {
        let lag = sent_us.saturating_sub(due_us);
        self.lags_us.push(lag);
        lag
    }

    /// Sends recorded.
    pub fn len(&self) -> usize {
        self.lags_us.len()
    }

    /// True when nothing was sent.
    pub fn is_empty(&self) -> bool {
        self.lags_us.is_empty()
    }

    /// Lag in milliseconds at the tail percentile of the sample (the
    /// maximum for fewer than 20 sends; 0 for none).
    pub fn tail_ms(&self) -> f64 {
        if self.lags_us.is_empty() {
            return 0.0;
        }
        let ms: Vec<f64> = self.lags_us.iter().map(|&us| us as f64 / 1e3).collect();
        crate::stats::summarize(&ms).tail
    }

    /// Lag in milliseconds at percentile `pct` (0 for no sends).
    pub fn percentile_ms(&self, pct: f64) -> f64 {
        let mut ms: Vec<f64> = self.lags_us.iter().map(|&us| us as f64 / 1e3).collect();
        if ms.is_empty() {
            return 0.0;
        }
        ms.sort_by(f64::total_cmp);
        crate::stats::percentile_sorted(&ms, pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_the_start() {
        let s = OpenLoop { rate: 200.0 };
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_millis(5));
        assert_eq!(s.due(200), Duration::from_secs(1));
        for i in 1..1000 {
            let gap = s.due(i) - s.due(i - 1);
            assert!(
                (gap.as_secs_f64() - 0.005).abs() < 1e-9,
                "gap {gap:?} at {i}"
            );
        }
        assert_eq!(s.count_within(2.5), 500);
        assert_eq!(OpenLoop { rate: 120.0 }.count_within(8.5), 1020);
    }

    #[test]
    fn lag_counts_only_lateness() {
        let mut l = LagLedger::default();
        assert_eq!(l.tail_ms(), 0.0);
        assert_eq!(l.record(1_000, 900), 0, "early sends have no lag");
        assert_eq!(l.record(2_000, 2_000), 0);
        assert_eq!(l.record(3_000, 3_250), 250);
        assert_eq!(l.len(), 3);
        // Fewer than 20 sends: the tail is the maximum.
        assert_eq!(l.tail_ms(), 0.25);
        assert_eq!(l.percentile_ms(50.0), 0.0);
        assert_eq!(l.percentile_ms(90.0), 0.25);
    }

    #[test]
    fn one_stall_is_charged_at_the_tail_only_when_it_is_common() {
        let mut l = LagLedger::default();
        for i in 0..1000u64 {
            l.record(i * 1000, i * 1000 + 50);
        }
        // Nine 40 ms stalls stay beyond the p99 of 1000 sends...
        for i in 0..9u64 {
            l.record(i, i + 40_000);
        }
        assert_eq!(l.len(), 1009);
        assert!(l.tail_ms() < 1.0, "{}", l.tail_ms());
        // ...but thirty of them do not.
        for i in 0..21u64 {
            l.record(i, i + 40_000);
        }
        assert_eq!(l.tail_ms(), 40.0);
    }
}
