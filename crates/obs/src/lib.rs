//! Observability layer for the btpub measurement pipeline.
//!
//! Three tightly-coupled facilities, all built on `std` only (the build
//! environment is offline, so no tracing/metrics/prometheus stacks):
//!
//! * **Metrics** — a process-global [`Registry`] of named [`Counter`]s
//!   (sharded atomics, safe to hammer from many threads), [`Gauge`]s and
//!   log2-bucketed [`Histogram`]s with quantile estimation.
//! * **Span timing** — RAII [`span!`] guards that record elapsed wall
//!   time into histograms, with a thread-local span stack so nested
//!   spans attribute *self time* (time not spent in child spans)
//!   correctly.
//! * **Structured logging** — leveled [`error!`] / [`warn!`] / [`info!`]
//!   / [`debug!`] / [`trace!`] macros with `key=value` fields, filtered
//!   at runtime by the `BTPUB_LOG` environment variable (default `warn`).
//! * **Flight recorder** — always-compiled, runtime-gated event tracing
//!   ([`trace`](mod@trace)): per-thread bounded ring buffers of compact events,
//!   drained into Chrome trace event JSON for Perfetto. Off-cost is one
//!   relaxed atomic load per event site; on, it never touches a report
//!   byte (see the module docs for both contracts).
//! * **Run manifests** — [`manifest`] pins a run's parameters next to a
//!   digest + snapshot of its deterministic metrics; the `obs_diff` bin
//!   compares two manifests and flags regressions.
//!
//! Everything funnels into one snapshot: [`Registry::snapshot`] renders
//! the world as a `serde_json::Value`, and [`text_report`] renders a
//! human table sorted by where the time went.
//!
//! ```
//! let _guard = btpub_obs::span!("demo.outer");
//! btpub_obs::counter("demo.widgets").add(3);
//! btpub_obs::gauge("demo.backlog").set(7);
//! btpub_obs::info!("demo step finished"; widgets = 3);
//! ```

pub mod clock;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod span;
pub mod trace;

pub use log::{set_level, Level};
pub use metrics::{Counter, Gauge, Histogram, LocalHistogram, SampledHistogram};
pub use registry::{global, Registry};
pub use report::text_report;
pub use span::SpanGuard;

/// Re-exported so downstream crates can build [`manifest`] metadata
/// (`serde_json::Value`) without taking their own dependency.
pub use serde_json;

use std::sync::Arc;

/// Fetches (creating on first use) the global counter `name`.
///
/// The returned handle is cheap to clone and lock-free to update; hot
/// loops should look it up once and keep the `Arc`.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Fetches (creating on first use) the global gauge `name`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Fetches (creating on first use) the global histogram `name`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Seconds elapsed since the process-wide observability epoch (the
/// first log line, trace event or uptime read). Used by the log line
/// prefix.
pub fn uptime_secs() -> f64 {
    clock::to_epoch(clock::now()) as f64 * 1e-9
}

/// `counter("name")` with the registry lookup done once per call site —
/// use in hot loops. Expands to `&'static Arc<Counter>`.
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// `gauge("name")` with the registry lookup done once per call site.
#[macro_export]
macro_rules! static_gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::gauge($name))
    }};
}

/// `histogram("name")` with the registry lookup done once per call site.
#[macro_export]
macro_rules! static_histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::histogram($name))
    }};
}
