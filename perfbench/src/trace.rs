//! The traced run's collector: turns the program's own spans and counters
//! into per-span-name self time and counter totals.
//!
//! The workspace already records spans at its layer boundaries
//! (`fft.*`, `optics.*`, `core.*`, `serve.*`, `fleet.*`, …). With telemetry
//! in `Full` mode this module snapshots them at episode boundaries, where no
//! span is open, folds them through `SpanTreeAnalysis::self_time_by_name`,
//! and clears the collector so its bounded span buffer never overflows.

use std::collections::BTreeMap;

use holoar_telemetry::{Metric, SpanTreeAnalysis, TelemetryMode};

/// Aggregated timing of one span name across drains.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans recorded, on every thread.
    pub count: u64,
    /// Summed duration on the benchmark's thread, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children) on the
    /// benchmark's thread, nanoseconds.
    pub self_ns: u64,
}

/// Accumulates spans and counters over a traced phase.
///
/// Spans are counted on every thread, but timed only on the calling
/// thread, so self times add up to its wall time: work a fan-out hands to
/// pool workers shows as self time of the fan-out span that waits for it.
#[derive(Debug)]
pub struct Tracer {
    thread: u32,
    spans: BTreeMap<String, SpanTotals>,
    counters: BTreeMap<String, u64>,
}

impl Tracer {
    /// Switches telemetry to `Full` and starts from an empty collector.
    pub fn start() -> Tracer {
        holoar_telemetry::set_mode(TelemetryMode::Full);
        holoar_telemetry::reset();
        Tracer {
            thread: holoar_telemetry::current_thread_id(),
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Folds everything recorded since the last drain and clears the
    /// collector. Call only where no span is open.
    pub fn drain(&mut self) {
        let mut spans = holoar_telemetry::span_snapshot();
        for s in &spans {
            self.spans.entry(s.name.to_string()).or_default().count += 1;
        }
        spans.retain(|s| s.tid == self.thread);
        for row in SpanTreeAnalysis::new(&spans).self_time_by_name() {
            let entry = self.spans.entry(row.name).or_default();
            entry.total_ns += row.total_ns;
            entry.self_ns += row.self_ns;
        }
        holoar_telemetry::collector::with_registry(|registry| {
            for (name, metric) in registry.iter() {
                if let Metric::Counter(value) = metric {
                    *self.counters.entry(name.to_string()).or_default() += value;
                }
            }
        });
        holoar_telemetry::reset();
    }

    /// Drops everything recorded since the last drain: work the benchmark
    /// does for itself (pricing, checks) is not the program's to account.
    pub fn discard(&mut self) {
        holoar_telemetry::reset();
    }

    /// Drains the remainder and switches telemetry off again.
    pub fn finish(mut self) -> Trace {
        self.drain();
        holoar_telemetry::set_mode(TelemetryMode::Off);
        Trace {
            spans: self.spans,
            counters: self.counters,
        }
    }
}

/// The folded result of a traced phase.
#[derive(Debug, Default)]
pub struct Trace {
    /// Span name → totals.
    pub spans: BTreeMap<String, SpanTotals>,
    /// Counter name → summed value.
    pub counters: BTreeMap<String, u64>,
}

impl Trace {
    /// Summed self time of spans whose name starts with `prefix`, ns.
    pub fn self_ns(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Summed duration of spans named exactly `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |t| t.total_ns)
    }

    /// Number of spans named exactly `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |t| t.count)
    }

    /// Number of spans whose name starts with `prefix`.
    pub fn count_prefix(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.count)
            .sum()
    }

    /// Value of the counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Self time per crate (the span name's first segment), ns, largest
    /// first.
    pub fn self_by_crate(&self) -> Vec<(String, u64)> {
        let mut by_crate: BTreeMap<String, u64> = BTreeMap::new();
        for (name, totals) in &self.spans {
            let krate = name.split('.').next().unwrap_or(name).to_string();
            *by_crate.entry(krate).or_default() += totals.self_ns;
        }
        let mut rows: Vec<(String, u64)> = by_crate.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }
}
