//! Golden-fixture validation for the telemetry exporters.
//!
//! `fixtures/inter_intra.trace.json` and `fixtures/inter_intra.metrics.json`
//! were recorded with:
//!
//! ```text
//! repro inter-intra --frames 30 --seed 42 \
//!     --trace-out  crates/bench/fixtures/inter_intra.trace.json \
//!     --metrics-json crates/bench/fixtures/inter_intra.metrics.json
//! ```
//!
//! Span durations and counts are machine-dependent, so these tests validate
//! *structure*, not bytes: the trace must be parseable Chrome-trace JSON
//! whose span taxonomy covers every instrumented layer (fft, optics, core,
//! pipeline) plus the bridged gpusim track, and the metrics registry must
//! carry the plan-cache counters and latency histograms the ISSUE promises.

use holoar_telemetry::jsonlite::{self, Json};
use std::collections::BTreeSet;

fn fixture(name: &str) -> Json {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"));
    jsonlite::parse(&text).unwrap_or_else(|e| panic!("fixture {path} is not valid JSON: {e:?}"))
}

#[test]
fn trace_fixture_covers_every_instrumented_layer() {
    let doc = fixture("inter_intra.trace.json");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("chrome trace has a traceEvents array");
    assert!(!events.is_empty(), "trace fixture has no events");

    let mut cats = BTreeSet::new();
    let mut names = BTreeSet::new();
    let mut complete = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("event phase");
        match ph {
            "X" => {
                complete += 1;
                let name = e.get("name").and_then(Json::as_str).expect("span name");
                let cat = e.get("cat").and_then(Json::as_str).expect("span category");
                let ts = e.get("ts").and_then(Json::as_f64).expect("span ts");
                let dur = e.get("dur").and_then(Json::as_f64).expect("span dur");
                assert!(ts >= 0.0 && dur >= 0.0, "{name}: ts/dur must be non-negative");
                cats.insert(cat.to_string());
                names.insert(name.to_string());
            }
            "M" => {} // metadata (process/thread names)
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(complete > 0, "no complete ('X') span events in fixture");

    for cat in ["fft", "optics", "core", "pipeline", "gpu"] {
        assert!(cats.contains(cat), "trace lacks category {cat:?}; has {cats:?}");
    }
    for name in [
        "fft.fft2d.forward",
        "optics.propagate_batch",
        "core.planner.plan_frame",
        "core.executor.execute_plan",
        "pipeline.staged.run",
    ] {
        assert!(names.contains(name), "trace lacks span {name:?}");
    }
    // The bridged gpusim kernels appear as gpu.* events on the synthetic
    // external track.
    assert!(
        names.iter().any(|n| n.starts_with("gpu.")),
        "trace lacks bridged gpu.* kernel events; has {names:?}"
    );
}

#[test]
fn metrics_fixture_carries_cache_counters_and_latency_histograms() {
    let doc = fixture("inter_intra.metrics.json");
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("full"));

    let counters = doc.get("counters").and_then(Json::as_object).expect("counters object");
    let counter_names: BTreeSet<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
    assert!(
        counter_names.contains("fft.plan_cache.miss"),
        "metrics lack FFT plan-cache miss counter; have {counter_names:?}"
    );
    assert!(
        counter_names.iter().any(|n| n.starts_with("fft.plan_cache")),
        "metrics lack FFT plan-cache counters"
    );
    assert!(counter_names.contains("gpusim.kernels.bridged"));

    let histograms =
        doc.get("histograms").and_then(Json::as_object).expect("histograms object");
    let histo_names: BTreeSet<&str> = histograms.iter().map(|(k, _)| k.as_str()).collect();
    // Per-stage latency histograms: the executor's simulated job latency
    // plus span-duration histograms for each instrumented stage.
    for h in ["core.executor.sim_latency_us", "core.executor.execute_plan", "pipeline.frame_eval"]
    {
        assert!(histo_names.contains(h), "metrics lack histogram {h:?}; have {histo_names:?}");
    }
    // Histogram invariant holds in the recorded artifact too: buckets sum
    // to the sample count.
    for (name, h) in histograms {
        let count = h.get("count").and_then(Json::as_f64).expect("histogram count");
        let buckets = h.get("buckets").and_then(Json::as_array).expect("histogram buckets");
        let sum: f64 = buckets
            .iter()
            .map(|b| b.get("count").and_then(Json::as_f64).expect("bucket count"))
            .sum();
        assert_eq!(sum, count, "histogram {name}: bucket sum != count");
    }
}
