//! Exporters: Chrome-trace (`chrome://tracing` / Perfetto) JSON and a flat
//! metrics JSON, each built as one [`Json`] value and rendered by
//! [`crate::jsonlite`], the workspace's one JSON writer.

use crate::collector::{frame_snapshot, span_snapshot, with_registry, SpanRecord};
use crate::jsonlite::Json;
use crate::metrics::{Histogram, Metric, Registry, BUCKET_BOUNDS_US};
use crate::span::external_tracks;

/// Exports every retained span as a compact Chrome-trace JSON document
/// (`{"traceEvents": [...]}` with complete `"ph": "X"` events, timestamps
/// in microseconds since the collector epoch).
///
/// Events are sorted by start time (ties broken longest-first so parents
/// precede their children); viewers group rows by `pid`/`tid`, with
/// metadata events naming the process and the bridged GPU tracks.
pub fn export_chrome_trace() -> String {
    let mut spans = span_snapshot();
    spans.sort_by(|a, b| {
        a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)).then(a.id.cmp(&b.id))
    });
    let metadata = |tid: u32, name: &str, value: &str| {
        Json::object([
            ("ph", "M".into()),
            ("pid", 1u32.into()),
            ("tid", tid.into()),
            ("name", name.into()),
            ("args", Json::object([("name", value.into())])),
        ])
    };
    let mut events = vec![metadata(0, "process_name", "holoar")];
    let tracks = external_tracks().into_iter();
    events.extend(tracks.map(|(track, tid)| metadata(tid, "thread_name", &track)));
    events.extend(spans.iter().map(span_event));
    Json::object([("traceEvents", Json::Array(events)), ("displayTimeUnit", "ms".into())]).render()
}

fn span_event(s: &SpanRecord) -> Json {
    let mut args = vec![("id", s.id.into())];
    args.extend(s.parent.map(|parent| ("parent", parent.into())));
    Json::object([
        ("ph", "X".into()),
        ("pid", 1u32.into()),
        ("tid", s.tid.into()),
        ("name", s.name.as_ref().into()),
        ("cat", s.cat.into()),
        ("ts", (s.start_ns as f64 / 1e3).into()),
        ("dur", (s.dur_ns as f64 / 1e3).into()),
        ("args", Json::object(args)),
    ])
}

/// Exports the metrics registry (plus frame-log and span-count summaries)
/// as one pretty-printed JSON document: `{"mode", "span_count",
/// "counters", "gauges", "histograms", "frames"}`.
pub fn export_metrics_json() -> String {
    let registry: Registry = with_registry(|r| r.clone());
    let (mut counters, mut gauges, mut histograms) = (Vec::new(), Vec::new(), Vec::new());
    for (name, metric) in registry.iter() {
        match metric {
            Metric::Counter(v) => counters.push((name, Json::from(*v))),
            Metric::Gauge(v) => gauges.push((name, Json::from(*v))),
            Metric::Histogram(h) => histograms.push((name, histogram(h))),
        }
    }
    let frames = frame_snapshot().into_iter().map(|row| {
        let fields = row.fields.iter().map(|(key, value)| (key.as_str(), Json::from(*value)));
        Json::object([("index", row.index.into())].into_iter().chain(fields))
    });
    Json::object([
        ("mode", crate::mode().name().into()),
        ("span_count", crate::span_count().into()),
        ("counters", Json::object(counters)),
        ("gauges", Json::object(gauges)),
        ("histograms", Json::object(histograms)),
        ("frames", Json::Array(frames.collect())),
    ])
    .render_pretty()
}

/// One histogram's summary, quantiles (`null` without a finite sample) and
/// buckets (the overflow bucket's bound is `null`).
fn histogram(h: &Histogram) -> Json {
    let quantile = |q: f64| h.quantile_us(q).map_or(Json::Null, Json::from);
    let bounds = BUCKET_BOUNDS_US.iter().map(|&b| Json::from(b)).chain([Json::Null]);
    let buckets = h
        .bucket_counts()
        .iter()
        .zip(bounds)
        .map(|(&count, le_us)| Json::object([("le_us", le_us), ("count", count.into())]));
    Json::object([
        ("count", h.count().into()),
        ("sum_us", h.sum_us().into()),
        ("mean_us", h.mean_us().into()),
        ("min_us", h.min_us().unwrap_or(0.0).into()),
        ("max_us", h.max_us().unwrap_or(0.0).into()),
        ("overflow", h.overflow_count().into()),
        ("non_finite", h.non_finite_count().into()),
        ("p50_us", quantile(0.50)),
        ("p90_us", quantile(0.90)),
        ("p99_us", quantile(0.99)),
        ("p999_us", quantile(0.999)),
        ("buckets", Json::Array(buckets.collect())),
    ])
}
