//! Exporter round-trip tests: build a synthetic span tree, export it, parse
//! the JSON back with the crate's minimal reader, and check event nesting,
//! thread ids and timestamp monotonicity — plus property tests pinning the
//! histogram bucket invariant.
//!
//! All tests that touch the process-wide collector serialize through one
//! mutex: telemetry state is global per process and `cargo test` runs test
//! functions on concurrent threads.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use holoar_telemetry as telemetry;
use holoar_telemetry::jsonlite::{parse, Json};
use proptest::prelude::*;
use telemetry::TelemetryMode;

fn lock_telemetry() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

/// Builds a deterministic span tree:
///
/// ```text
/// frame
/// ├── plan
/// └── execute
///     └── kernel (x2)
/// ```
///
/// plus one bridged external GPU event, then returns the exported trace.
fn build_and_export() -> String {
    telemetry::set_mode(TelemetryMode::Full);
    telemetry::reset();
    {
        let _frame = telemetry::span_cat("test.frame", "pipeline");
        {
            let _plan = telemetry::span_cat("test.plan", "core");
        }
        {
            let _execute = telemetry::span_cat("test.execute", "core");
            for _ in 0..2 {
                let _kernel = telemetry::span_cat("test.kernel", "fft");
            }
        }
    }
    telemetry::record_external_span("gpusim", "test.gpu_kernel", "gpu", 10, 500);
    let trace = telemetry::export_chrome_trace();
    telemetry::set_mode(TelemetryMode::Off);
    trace
}

/// The `"ph": "X"` events of a parsed trace document.
fn complete_events(doc: &Json) -> Vec<&Json> {
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect()
}

fn field_f64(event: &Json, key: &str) -> f64 {
    event.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("event field {key}"))
}

#[test]
fn span_tree_round_trips_through_chrome_trace_export() {
    let _guard = lock_telemetry();
    let trace = build_and_export();
    let doc = parse(&trace).expect("exported trace must be valid JSON");

    let events = complete_events(&doc);
    assert_eq!(events.len(), 6, "frame + plan + execute + 2 kernels + 1 gpu event");

    // Every event carries a usable span id.
    let by_id: HashMap<u64, &Json> = events
        .iter()
        .map(|e| {
            let id = e.get("args").and_then(|a| a.get("id")).and_then(Json::as_f64).unwrap();
            (id as u64, *e)
        })
        .collect();
    assert_eq!(by_id.len(), events.len(), "span ids are unique");

    let find = |name: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .copied()
            .collect()
    };
    let frame = find("test.frame")[0];
    let plan = find("test.plan")[0];
    let execute = find("test.execute")[0];
    let kernels = find("test.kernel");
    assert_eq!(kernels.len(), 2);

    // Nesting: parent links point up the tree.
    let id_of = |e: &Json| field(e, "id");
    fn field(e: &Json, key: &str) -> f64 {
        e.get("args").and_then(|a| a.get(key)).and_then(Json::as_f64).unwrap_or(-1.0)
    }
    assert_eq!(field(frame, "parent"), -1.0, "root has no parent");
    assert_eq!(field(plan, "parent"), id_of(frame));
    assert_eq!(field(execute, "parent"), id_of(frame));
    for k in &kernels {
        assert_eq!(field(k, "parent"), id_of(execute));
    }

    // Nesting: children are contained within their parents' time ranges.
    for (child, parent) in
        [(plan, frame), (execute, frame), (kernels[0], execute), (kernels[1], execute)]
    {
        let (cts, cdur) = (field_f64(child, "ts"), field_f64(child, "dur"));
        let (pts, pdur) = (field_f64(parent, "ts"), field_f64(parent, "dur"));
        assert!(cts >= pts, "child starts within parent");
        assert!(cts + cdur <= pts + pdur + 1e-6, "child ends within parent");
    }

    // Thread ids: all CPU spans on this one test thread, the GPU event on a
    // synthetic external track.
    let tids: Vec<f64> = [frame, plan, execute, kernels[0], kernels[1]]
        .iter()
        .map(|e| field_f64(e, "tid"))
        .collect();
    assert!(tids.windows(2).all(|w| w[0] == w[1]), "one CPU thread: {tids:?}");
    let gpu = find("test.gpu_kernel")[0];
    assert!(field_f64(gpu, "tid") >= 1_000_000.0, "external track id");
    assert_eq!(gpu.get("cat").and_then(Json::as_str), Some("gpu"));

    // Monotonic timestamps in document order (the exporter sorts).
    let ts: Vec<f64> = events.iter().map(|e| field_f64(e, "ts")).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "sorted timestamps: {ts:?}");
    assert!(ts.iter().all(|&t| t >= 0.0));

    // The external GPU track is named in metadata.
    assert!(trace.contains("thread_name"));
    assert!(trace.contains("gpusim"));
}

#[test]
fn metrics_json_round_trips_counters_gauges_histograms_and_frames() {
    let _guard = lock_telemetry();
    telemetry::set_mode(TelemetryMode::Full);
    telemetry::reset();
    telemetry::counter_add("test.hits", 3);
    telemetry::gauge_set("test.planes", 6.5);
    telemetry::histogram_record_us("test.latency", 120.0);
    telemetry::histogram_record_us("test.latency", 3.0);
    telemetry::record_frame(0, &[("latency_ms", 12.0), ("planes", 16.0)]);
    telemetry::record_frame(1, &[("latency_ms", 9.0), ("planes", 8.0)]);

    let json = telemetry::export_metrics_json();
    telemetry::set_mode(TelemetryMode::Off);

    let doc = parse(&json).expect("metrics JSON parses");
    assert_eq!(
        doc.get("counters").unwrap().get("test.hits").unwrap().as_f64(),
        Some(3.0)
    );
    assert_eq!(
        doc.get("gauges").unwrap().get("test.planes").unwrap().as_f64(),
        Some(6.5)
    );
    let hist = doc.get("histograms").unwrap().get("test.latency").unwrap();
    assert_eq!(hist.get("count").unwrap().as_f64(), Some(2.0));
    let buckets = hist.get("buckets").unwrap().as_array().unwrap();
    let total: f64 =
        buckets.iter().map(|b| b.get("count").unwrap().as_f64().unwrap()).sum();
    assert_eq!(total, 2.0, "bucket counts sum to the total");
    let frames = doc.get("frames").unwrap().as_array().unwrap();
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[1].get("latency_ms").unwrap().as_f64(), Some(9.0));
}

#[test]
fn summary_mode_keeps_metrics_but_drops_trace_events() {
    let _guard = lock_telemetry();
    telemetry::set_mode(TelemetryMode::Summary);
    telemetry::reset();
    {
        let _s = telemetry::span("test.summary_span");
    }
    telemetry::record_external_span("gpusim", "test.gpu", "gpu", 0, 10);
    assert_eq!(telemetry::span_count(), 0, "summary retains no events");
    let has_histogram = matches!(
        telemetry::collector::with_registry(|r| r.get("test.summary_span").cloned()),
        Some(telemetry::Metric::Histogram(_))
    );
    assert!(has_histogram, "summary still feeds the span-duration histogram");
    telemetry::set_mode(TelemetryMode::Off);
}

#[test]
fn off_mode_records_nothing() {
    let _guard = lock_telemetry();
    telemetry::set_mode(TelemetryMode::Off);
    telemetry::reset();
    drop(telemetry::span("test.off_span"));
    telemetry::counter_add("test.off_counter", 1);
    telemetry::record_frame(0, &[("x", 1.0)]);
    assert_eq!(telemetry::span_count(), 0);
    assert_eq!(telemetry::collector::with_registry(|r| r.len()), 0);
    let doc = parse(&telemetry::export_metrics_json()).unwrap();
    assert!(doc.get("counters").unwrap().as_object().unwrap().is_empty());
}

#[test]
fn env_var_selects_each_mode() {
    let _guard = lock_telemetry();
    let original = std::env::var(telemetry::TELEMETRY_ENV_VAR).ok();
    for (value, expect) in [
        ("off", TelemetryMode::Off),
        ("summary", TelemetryMode::Summary),
        ("full", TelemetryMode::Full),
        ("nonsense", TelemetryMode::Off),
    ] {
        std::env::set_var(telemetry::TELEMETRY_ENV_VAR, value);
        assert_eq!(telemetry::mode_from_env(), expect, "HOLOAR_TELEMETRY={value}");
        assert_eq!(telemetry::init_from_env(), expect);
        assert_eq!(telemetry::mode(), expect);
    }
    std::env::remove_var(telemetry::TELEMETRY_ENV_VAR);
    assert_eq!(telemetry::mode_from_env(), TelemetryMode::Off, "unset defaults to off");
    match original {
        Some(v) => std::env::set_var(telemetry::TELEMETRY_ENV_VAR, v),
        None => std::env::remove_var(telemetry::TELEMETRY_ENV_VAR),
    }
    telemetry::set_mode(TelemetryMode::Off);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket counts always sum to the total count, for any observation
    /// sequence including non-finite values.
    #[test]
    fn histogram_buckets_always_sum_to_count(
        values in prop::collection::vec(
            (0u8..10u8, 0.0f64..2e7).prop_map(|(kind, v)| match kind {
                8 => f64::NAN,
                9 => f64::INFINITY,
                _ => v,
            }),
            0..200,
        )
    ) {
        let mut h = telemetry::Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
        prop_assert_eq!(h.bucket_counts().len(), telemetry::BUCKET_BOUNDS_US.len() + 1);
    }

    /// Every finite observation lands in the bucket whose bound is the
    /// first one at or above it.
    #[test]
    fn histogram_buckets_respect_bounds(value in 0.0f64..2e7) {
        let mut h = telemetry::Histogram::new();
        h.record(value);
        let expected = telemetry::BUCKET_BOUNDS_US
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(telemetry::BUCKET_BOUNDS_US.len());
        let actual = h.bucket_counts().iter().position(|&c| c == 1).unwrap();
        prop_assert_eq!(actual, expected);
    }
}
