//! Workspace-wide observability: hierarchical spans, a per-frame metrics
//! registry, and Chrome-trace/JSON exporters.
//!
//! The paper's argument is built on profiling evidence (§3/§4.5 attribute
//! latency to kernel time, sync stalls and memory traffic with NVPROF).
//! This crate gives the *CPU-side* reproduction pipeline the same
//! observability: every layer (FFT substrate, wave optics, planner/executor,
//! pipeline harness) opens [`span()`]s around its stages and feeds counters,
//! gauges and latency histograms into one process-wide registry, and the
//! `gpusim` profiler's simulated-kernel aggregates are bridged onto the same
//! timeline so one exported trace shows CPU spans and simulated GPU kernels
//! together.
//!
//! # Design constraints
//!
//! 1. **Near-zero cost when disabled.** The global mode is a single relaxed
//!    atomic; with [`TelemetryMode::Off`] (the default) every entry point
//!    returns after one load — no clock reads, no locks, no allocation.
//! 2. **Pure std.** No dependencies; the collector is a `OnceLock` of
//!    mutex-protected vectors and a `BTreeMap` registry.
//! 3. **Numerics untouched.** Telemetry observes; it never changes what the
//!    instrumented code computes (property-tested by the fft/optics suites
//!    with `full` telemetry enabled).
//!
//! # Modes
//!
//! The `HOLOAR_TELEMETRY` environment variable (see [`init_from_env`])
//! selects one of three modes, mirroring `HOLOAR_THREADS`' style:
//!
//! | mode | spans timed | metrics updated | trace events retained |
//! |---|---|---|---|
//! | `off` (default) | no | no | no |
//! | `summary` | yes (histograms only) | yes | no |
//! | `full` | yes | yes | yes |
//!
//! # Examples
//!
//! ```
//! use holoar_telemetry as telemetry;
//!
//! telemetry::set_mode(telemetry::TelemetryMode::Full);
//! telemetry::reset();
//! {
//!     let _frame = telemetry::span("example.frame");
//!     let _stage = telemetry::span("example.stage");
//!     telemetry::counter_add("example.objects", 3);
//! }
//! let trace = telemetry::export_chrome_trace();
//! assert!(trace.contains("example.stage"));
//! telemetry::set_mode(telemetry::TelemetryMode::Off);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod export;
pub mod jsonlite;
pub mod metrics;
pub mod mode;
pub mod profile;
pub mod sketch;
pub mod span;
pub mod timeseries;

pub use collector::{now_ns, record_frame, reset, span_count, span_snapshot, SpanRecord};
pub use export::{export_chrome_trace, export_metrics_json};
pub use metrics::{Histogram, Metric, Registry, BUCKET_BOUNDS_US};
pub use mode::{init_from_env, mode, mode_from_env, set_mode, TelemetryMode, TELEMETRY_ENV_VAR};
pub use profile::{SpanTreeAnalysis, StageAgg};
pub use sketch::QuantileSketch;
pub use span::{current_thread_id, record_external_span, span, span_cat, SpanGuard};
pub use timeseries::SlidingWindow;

/// Adds `delta` to the named counter. No-op unless telemetry is enabled.
pub fn counter_add(name: &str, delta: u64) {
    if mode::enabled() {
        collector::with_registry(|r| r.counter_add(name, delta));
    }
}

/// Sets the named gauge to `value`. No-op unless telemetry is enabled.
pub fn gauge_set(name: &str, value: f64) {
    if mode::enabled() {
        collector::with_registry(|r| r.gauge_set(name, value));
    }
}

/// Records `value` (microseconds) into the named fixed-bucket histogram.
/// No-op unless telemetry is enabled.
pub fn histogram_record_us(name: &str, value: f64) {
    if mode::enabled() {
        collector::with_registry(|r| r.histogram_record(name, value));
    }
}
