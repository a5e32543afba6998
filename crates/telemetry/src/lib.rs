//! # apf-telemetry — workspace-wide observability substrate
//!
//! A dependency-free telemetry layer shared by every APF crate:
//!
//! * **Metrics registry** ([`Telemetry`]): atomic [`Counter`]s, [`Gauge`]s
//!   and log-bucketed [`Histogram`]s with p50/p95/p99/max estimation,
//!   exposed as Prometheus text ([`Telemetry::render_prometheus`]) or
//!   JSON snapshots ([`Telemetry::snapshot`] + `serde_json`).
//! * **Structured spans** ([`Telemetry::span`], [`SpanGuard`]): a
//!   drop-safe thread-local span stack feeding a bounded ring sink that
//!   dumps Chrome `trace_event`-compatible JSON lines
//!   ([`Telemetry::trace_jsonl`]).
//! * **Profiling hooks** ([`time_scope!`], [`counted!`], [`span_scope!`]):
//!   one-liners that cost a single branch when the component was built
//!   with [`Telemetry::disabled`] — cheap enough to leave in hot paths
//!   permanently (gated <2% by the `telemetry_overhead` bench). Counters
//!   are the exception: they always count (one relaxed atomic add), and a
//!   disabled telemetry simply registers and exports none of them, so
//!   components read exact counts from their handles either way.
//!
//! ## Naming convention
//!
//! Metrics are `apf_<crate>_<name>_<unit>` (e.g.
//! `apf_serve_inference_latency_seconds`); spans are
//! `"<crate>.<operation>"` (e.g. `"serve.request"`). Registration runs
//! [`lint_metric_name`] under `debug_assertions`: every name needs the
//! `apf_` prefix and a crate segment, and histogram names must end with a
//! recognized unit suffix (`_seconds`, `_bytes`, ...), never `_total`.
//!
//! ## Usage
//!
//! ```
//! use apf_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! let latency = tel.histogram("apf_demo_latency_seconds", "demo latency");
//! let requests = tel.counter("apf_demo_requests_total", "requests");
//! {
//!     let _span = tel.span("demo.request");
//!     let _timer = latency.start_timer();
//!     requests.inc();
//! }
//! assert_eq!(requests.get(), 1);
//! assert_eq!(latency.count(), 1);
//! assert!(tel.render_prometheus().contains("apf_demo_requests_total 1"));
//! assert!(tel.trace_jsonl().contains("\"name\":\"demo.request\""));
//! ```

pub mod flight;
pub mod histogram;
pub mod jsonl;
pub mod registry;
pub mod span;

pub use flight::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use histogram::{HistTimer, HistogramSnapshot};
pub use jsonl::{validate_json, validate_jsonl};
pub use registry::{
    lint_metric_name, Counter, Gauge, Histogram, Labels, MetricSnapshot, Telemetry,
    TelemetrySnapshot, DEFAULT_TRACE_CAPACITY, HISTOGRAM_UNIT_SUFFIXES,
};
pub use span::{
    current_depth, current_trace_id, now_us, ContextGuard, SpanGuard, TraceContext, TraceEvent,
    TraceSink,
};

/// Times the rest of the enclosing scope into a [`Histogram`] handle
/// (seconds). Expands to a hidden RAII guard; when the handle is inert the
/// guard never reads the clock.
///
/// ```
/// # use apf_telemetry::{Telemetry, time_scope};
/// # let tel = Telemetry::enabled();
/// let hist = tel.histogram("apf_demo_step_seconds", "step time");
/// {
///     time_scope!(hist);
///     // ... work ...
/// }
/// assert_eq!(hist.count(), 1);
/// ```
#[macro_export]
macro_rules! time_scope {
    ($hist:expr) => {
        let _apf_time_scope_guard = $hist.start_timer();
    };
}

/// Bumps a [`Counter`] handle by 1 (or by an explicit amount).
///
/// ```
/// # use apf_telemetry::{Telemetry, counted};
/// # let tel = Telemetry::enabled();
/// let ops = tel.counter("apf_demo_ops_total", "ops");
/// counted!(ops);
/// counted!(ops, 4);
/// assert_eq!(ops.get(), 5);
/// ```
#[macro_export]
macro_rules! counted {
    ($counter:expr) => {
        $counter.inc();
    };
    ($counter:expr, $n:expr) => {
        $counter.add($n);
    };
}

/// Opens a span on a [`Telemetry`] for the rest of the enclosing scope,
/// optionally tagged with a correlation id.
///
/// ```
/// # use apf_telemetry::{Telemetry, span_scope};
/// # let tel = Telemetry::enabled();
/// {
///     span_scope!(tel, "demo.outer");
///     span_scope!(tel, "demo.inner", 42);
/// }
/// assert_eq!(tel.trace_events().len(), 2);
/// ```
#[macro_export]
macro_rules! span_scope {
    ($tel:expr, $name:expr) => {
        let _apf_span_scope_guard = $tel.span($name);
    };
    ($tel:expr, $name:expr, $id:expr) => {
        let _apf_span_scope_guard = $tel.span_id($name, $id);
    };
}
