//! Per-tenant token-bucket quotas for the wire front door.
//!
//! Each tenant id (from the frame header) owns an independent token bucket:
//! `burst` tokens of headroom refilled at `per_sec` tokens per second. A
//! request costs one token; an empty bucket maps to the quota-specific
//! `OverQuota` wire status with a retry hint equal to the time until the
//! bucket next holds a whole token. Buckets are independent, so one
//! tenant flooding the door cannot starve another's admission — that is
//! the fairness property the soak checks.
//!
//! Accounting is exact by construction: every quota decision increments
//! exactly one of `granted` / `rejected` under the same lock that updated
//! the bucket, and `checked == granted + rejected` per tenant is asserted
//! by [`TenantAccount::is_consistent`]. Time is passed in as microseconds
//! so unit tests replay deterministically.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use apf_telemetry::{Counter, Telemetry};
use serde::Serialize;

/// Bucket parameters for one tenant (or the default for unknown tenants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaLimit {
    /// Bucket capacity: how many requests a tenant may burst.
    pub burst: f64,
    /// Steady-state refill rate in tokens per second.
    pub per_sec: f64,
}

impl QuotaLimit {
    /// A practically-unmetered limit for trusted tenants.
    pub fn unlimited() -> Self {
        QuotaLimit { burst: 1e12, per_sec: 1e12 }
    }
}

/// Quota configuration: a default limit plus per-tenant overrides.
#[derive(Debug, Clone)]
pub struct QuotaConfig {
    /// Limit applied to tenants without an override.
    pub default_limit: QuotaLimit,
    /// Per-tenant overrides `(tenant id, limit)`.
    pub overrides: Vec<(u64, QuotaLimit)>,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig { default_limit: QuotaLimit { burst: 32.0, per_sec: 64.0 }, overrides: vec![] }
    }
}

#[derive(Debug)]
struct Bucket {
    limit: QuotaLimit,
    tokens: f64,
    last_refill_us: u64,
    checked: u64,
    granted: u64,
    rejected: u64,
}

/// One tenant's ledger, for reports and the soak's exactness gate.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct TenantAccount {
    /// Tenant id (frame header field).
    pub tenant: u64,
    /// Quota decisions made for this tenant.
    pub checked: u64,
    /// Decisions that consumed a token.
    pub granted: u64,
    /// Decisions refused with `OverQuota`.
    pub rejected: u64,
}

impl TenantAccount {
    /// Every decision granted or rejected, none lost or double-counted.
    pub fn is_consistent(&self) -> bool {
        self.checked == self.granted + self.rejected
    }
}

/// The quota gate: tenant id -> token bucket, plus exact accounting.
pub struct TenantQuotas {
    cfg: QuotaConfig,
    buckets: Mutex<HashMap<u64, Bucket>>,
    epoch: Instant,
    rejections_total: Counter,
    granted_total: Counter,
    checked_total: Counter,
    tel: Telemetry,
}

impl TenantQuotas {
    /// Builds the gate. Metrics land in `tel` (pass the engine's registry
    /// so quota counters join the serve exposition); gates that share one
    /// enabled registry share their totals.
    pub fn new(cfg: QuotaConfig, tel: &Telemetry) -> Self {
        TenantQuotas {
            cfg,
            buckets: Mutex::new(HashMap::new()),
            epoch: Instant::now(),
            rejections_total: tel.counter(
                "apf_serve_quota_rejections_total",
                "Requests refused at the wire door because the tenant bucket was empty",
            ),
            granted_total: tel.counter(
                "apf_serve_quota_granted_total",
                "Requests that consumed a tenant quota token at the wire door",
            ),
            checked_total: tel.counter(
                "apf_serve_wire_quota_checked_total",
                "Quota decisions made at the wire door (granted + rejected)",
            ),
            tel: tel.clone(),
        }
    }

    fn limit_for(&self, tenant: u64) -> QuotaLimit {
        self.cfg
            .overrides
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, l)| *l)
            .unwrap_or(self.cfg.default_limit)
    }

    /// Charges one token against `tenant` at the wall clock.
    pub fn try_acquire(&self, tenant: u64) -> Result<(), u64> {
        self.try_acquire_at(tenant, self.epoch.elapsed().as_micros() as u64)
    }

    /// Charges one token against `tenant` at an explicit time (microseconds
    /// since an arbitrary epoch; must be monotone per gate). `Err` carries
    /// the retry hint in milliseconds.
    pub fn try_acquire_at(&self, tenant: u64, now_us: u64) -> Result<(), u64> {
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let bucket = buckets.entry(tenant).or_insert_with(|| {
            let limit = self.limit_for(tenant);
            Bucket {
                limit,
                tokens: limit.burst,
                last_refill_us: now_us,
                checked: 0,
                granted: 0,
                rejected: 0,
            }
        });
        let elapsed_us = now_us.saturating_sub(bucket.last_refill_us);
        bucket.last_refill_us = bucket.last_refill_us.max(now_us);
        bucket.tokens =
            (bucket.tokens + elapsed_us as f64 * 1e-6 * bucket.limit.per_sec).min(bucket.limit.burst);
        bucket.checked += 1;
        self.checked_total.inc();
        // The refill multiply accumulates ~1e-16 relative error; without
        // the epsilon a bucket refilled for exactly one token stays empty.
        if bucket.tokens >= 1.0 - 1e-9 {
            bucket.tokens = (bucket.tokens - 1.0).max(0.0);
            bucket.granted += 1;
            self.granted_total.inc();
            Ok(())
        } else {
            bucket.rejected += 1;
            self.rejections_total.inc();
            let deficit = 1.0 - bucket.tokens;
            let retry_ms = (deficit / bucket.limit.per_sec.max(1e-9) * 1e3).ceil() as u64;
            let retry_ms = retry_ms.max(1);
            self.tel
                .flight("quota_rejection", || format!("tenant={tenant} retry_ms={retry_ms}"));
            Err(retry_ms)
        }
    }

    /// Ledger snapshot, sorted by tenant id.
    pub fn accounting(&self) -> Vec<TenantAccount> {
        let buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<TenantAccount> = buckets
            .iter()
            .map(|(&tenant, b)| TenantAccount {
                tenant,
                checked: b.checked,
                granted: b.granted,
                rejected: b.rejected,
            })
            .collect();
        out.sort_by_key(|a| a.tenant);
        out
    }

    /// Total rejections (`apf_serve_quota_rejections_total`).
    pub fn rejections(&self) -> u64 {
        self.rejections_total.get()
    }

    /// Total grants (`apf_serve_quota_granted_total`).
    pub fn granted(&self) -> u64 {
        self.granted_total.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(default_limit: QuotaLimit, overrides: Vec<(u64, QuotaLimit)>) -> TenantQuotas {
        TenantQuotas::new(QuotaConfig { default_limit, overrides }, &Telemetry::disabled())
    }

    #[test]
    fn burst_then_refill_at_the_configured_rate() {
        let q = gate(QuotaLimit { burst: 3.0, per_sec: 10.0 }, vec![]);
        for _ in 0..3 {
            assert_eq!(q.try_acquire_at(1, 0), Ok(()));
        }
        // Bucket empty: the hint says when one token exists (1/10 s).
        let hint = q.try_acquire_at(1, 0).unwrap_err();
        assert_eq!(hint, 100);
        // 50 ms later: half a token, still refused, hint halves.
        assert_eq!(q.try_acquire_at(1, 50_000).unwrap_err(), 50);
        // 100 ms after empty: exactly one token again.
        assert_eq!(q.try_acquire_at(1, 100_000), Ok(()));
        let acc = &q.accounting()[0];
        assert_eq!((acc.checked, acc.granted, acc.rejected), (6, 4, 2));
        assert!(acc.is_consistent());
    }

    #[test]
    fn tenants_are_isolated_and_overrides_apply() {
        let tiny = QuotaLimit { burst: 1.0, per_sec: 0.5 };
        let q = gate(QuotaLimit { burst: 100.0, per_sec: 100.0 }, vec![(9, tiny)]);
        // Tenant 9 exhausts its single token immediately...
        assert_eq!(q.try_acquire_at(9, 0), Ok(()));
        assert!(q.try_acquire_at(9, 0).is_err());
        // ...while tenant 1 is unaffected by 9's flood.
        for _ in 0..50 {
            let _ = q.try_acquire_at(9, 1);
            assert_eq!(q.try_acquire_at(1, 1), Ok(()));
        }
        let acc = q.accounting();
        assert_eq!(acc.len(), 2);
        assert!(acc.iter().all(TenantAccount::is_consistent));
        assert_eq!(acc[0].tenant, 1);
        assert_eq!(acc[0].rejected, 0);
        assert_eq!(acc[1].tenant, 9);
        assert_eq!(acc[1].granted, 1);
    }

    #[test]
    fn accounting_is_exact_under_contention() {
        use std::sync::Arc;
        let q = Arc::new(gate(QuotaLimit { burst: 8.0, per_sec: 1.0 }, vec![]));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        let _ = q.try_acquire_at(7, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let acc = &q.accounting()[0];
        assert_eq!(acc.checked, 400);
        assert!(acc.is_consistent());
        assert_eq!(q.granted() + q.rejections(), 400);
    }
}
