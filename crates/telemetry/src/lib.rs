//! Std-only telemetry substrate for the DOPCERT workspace.
//!
//! The offline build environment has no `tracing`/`prometheus` crates, so
//! this crate provides the minimal measurement vocabulary the workspace
//! needs, with three hard guarantees:
//!
//! 1. **Strict no-op when disabled.** Every entry point checks one relaxed
//!    atomic load and returns immediately when telemetry is off; the span
//!    guard is an enum whose `Off` variant drops without doing anything
//!    (static dispatch, no allocation, no clock read).
//! 2. **No behavioural footprint.** Telemetry only *observes*: enabling it
//!    must never change verdicts, traces, or reports (property-tested in
//!    `crates/dopcert/tests/telemetry_identity.rs`).
//! 3. **Deterministic under test.** The clock is injectable
//!    ([`clock::set_manual`]), so histogram and trace tests assert exact
//!    numbers instead of sleeping.
//!
//! Data model: per-thread recorder state accumulates named counters
//! and log₂-bucketed [`hist::Histogram`]s plus (when tracing is
//! on) Chrome trace events; it is merged into a process-wide sink when the
//! outermost span of a thread closes and when the thread exits. The sink
//! can be snapshotted ([`recorder::snapshot`]), rendered as
//! Prometheus-style text ([`metrics::Metrics::render_prometheus`]), or
//! dumped as Chrome trace-event JSON ([`recorder::write_chrome_trace`])
//! loadable in `about:tracing` / Perfetto.

#![warn(missing_docs)]

pub mod clock;
pub mod hist;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod trace;

pub use hist::Histogram;
pub use metrics::Metrics;
pub use profile::Profile;
pub use recorder::{
    count, counter_event, disable, enable, enable_profiling, enable_tracing, flush, local_depth,
    metrics_enabled, observe, profile_count, profile_observe, profile_snapshot, profiling_enabled,
    reset, snapshot, span, take_trace, tracing_enabled, write_chrome_trace, SpanGuard,
};
pub use trace::TraceEvent;

/// Serializes this crate's own unit tests: they toggle the process-wide
/// enabled flag and the manual clock, so they must not interleave.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
