//! Exporters: Chrome-trace (`chrome://tracing` / Perfetto) JSON, a flat
//! metrics JSON, a metrics CSV, and the per-frame summary CSV.
//!
//! Both JSON exports are built as one [`Json`] value and rendered by
//! [`crate::jsonlite`], the workspace's one JSON writer; the CSV exports
//! are plain `name,kind,value` text.

use std::fmt::Write as _;

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

/// Exports counters and gauges as flat CSV (`name,kind,value`), histograms
/// as (`name,histogram,count,sum_us,mean_us,min_us,max_us,overflow,p50_us,
/// p99_us`); the trailing quantile columns come from each histogram's
/// embedded sketch and are empty for counters/gauges.
pub fn export_metrics_csv() -> String {
    let registry: Registry = with_registry(|r| r.clone());
    let mut out = String::from("name,kind,value,sum_us,mean_us,min_us,max_us,overflow,p50_us,p99_us\n");
    for (name, metric) in registry.iter() {
        match metric {
            Metric::Counter(v) => {
                let _ = writeln!(out, "{name},counter,{v},,,,,,,");
            }
            Metric::Gauge(v) => {
                let _ = writeln!(out, "{name},gauge,{v},,,,,,,");
            }
            Metric::Histogram(h) => {
                let _ = writeln!(
                    out,
                    "{name},histogram,{},{},{},{},{},{},{},{}",
                    h.count(),
                    h.sum_us(),
                    h.mean_us(),
                    h.min_us().unwrap_or(0.0),
                    h.max_us().unwrap_or(0.0),
                    h.overflow_count(),
                    h.quantile_us(0.50).unwrap_or(0.0),
                    h.quantile_us(0.99).unwrap_or(0.0),
                );
            }
        }
    }
    out
}

/// Exports the per-frame summary log as CSV. The header is the union of
/// every row's field names (in first-seen order); missing fields are empty.
pub fn export_frames_csv() -> String {
    let frames = frame_snapshot();
    let mut columns: Vec<String> = Vec::new();
    for row in &frames {
        for (key, _) in &row.fields {
            if !columns.contains(key) {
                columns.push(key.clone());
            }
        }
    }
    let mut out = String::from("frame");
    for c in &columns {
        let _ = write!(out, ",{c}");
    }
    out.push('\n');
    for row in &frames {
        let _ = write!(out, "{}", row.index);
        for c in &columns {
            out.push(',');
            if let Some((_, v)) = row.fields.iter().find(|(k, _)| k == c) {
                let _ = write!(out, "{v}");
            }
        }
        out.push('\n');
    }
    out
}
