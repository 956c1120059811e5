//! The metrics registry: counters, gauges and fixed-bucket histograms keyed
//! by name.
//!
//! [`Registry`] is a plain data structure (no global state) so it can be
//! unit- and property-tested in isolation; the process-wide instance lives
//! in [`crate::collector`]. Keys are stored as owned strings but looked up
//! by `&str`, so the hot path allocates only on a metric's first touch.

use std::collections::BTreeMap;

use crate::sketch::QuantileSketch;

/// Histogram bucket upper bounds, microseconds. A 1-2-5 ladder from 1 µs to
/// 10 s: wide enough for both real span durations (sub-millisecond FFTs) and
/// simulated frame latencies (hundreds of milliseconds).
pub const BUCKET_BOUNDS_US: [f64; 22] = [
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5,
    2e5, 5e5, 1e6, 2e6, 5e6, 1e7,
];

/// A fixed-bucket latency histogram (bounds: [`BUCKET_BOUNDS_US`], plus one
/// overflow bucket) with an embedded [`QuantileSketch`] so every latency
/// metric exposes accurate p50/p90/p99/p99.9 alongside the legacy buckets.
///
/// Samples past the last fixed bound are no longer silently clipped into
/// the final bucket: they still land there (keeping the bucket-sum
/// invariant the exporters rely on) but are *also* counted explicitly by
/// [`Histogram::overflow_count`], and the sketch retains their true
/// magnitude, so the tail stays honest.
///
/// # Examples
///
/// ```
/// use holoar_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(3.0);
/// h.record(150.0);
/// h.record(5e7); // beyond the last fixed bound
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_counts().iter().sum::<u64>(), 3);
/// assert_eq!(h.overflow_count(), 1);
/// assert!(h.quantile_us(0.99).unwrap() > 1e7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKET_BOUNDS_US.len() + 1],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Finite samples beyond the last fixed bucket bound.
    overflow: u64,
    /// Non-finite samples (NaN/±∞), absorbed by the last bucket.
    non_finite: u64,
    sketch: QuantileSketch,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; BUCKET_BOUNDS_US.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            overflow: 0,
            non_finite: 0,
            sketch: QuantileSketch::default(),
        }
    }

    /// Records one observation (microseconds). Non-finite values are
    /// counted in the overflow bucket rather than poisoning min/max/sum.
    pub fn record(&mut self, value_us: f64) {
        self.count += 1;
        if !value_us.is_finite() {
            self.non_finite += 1;
            *self.counts.last_mut().expect("overflow bucket") += 1;
            return;
        }
        self.sum += value_us;
        self.min = self.min.min(value_us);
        self.max = self.max.max(value_us);
        self.sketch.record(value_us.max(0.0));
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| value_us <= bound)
            .unwrap_or_else(|| {
                self.overflow += 1;
                BUCKET_BOUNDS_US.len()
            });
        self.counts[idx] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of finite observations, microseconds.
    pub fn sum_us(&self) -> f64 {
        self.sum
    }

    /// Mean of finite observations, microseconds (0 when empty).
    ///
    /// Historically the denominator excluded the whole final bucket, which
    /// wrongly dropped *finite* overflow samples; with overflow now counted
    /// explicitly, only non-finite samples are excluded.
    pub fn mean_us(&self) -> f64 {
        let finite = self.count - self.non_finite;
        if finite > 0 {
            self.sum / finite as f64
        } else {
            0.0
        }
    }

    /// Smallest finite observation (`None` when empty).
    pub fn min_us(&self) -> Option<f64> {
        self.min.is_finite().then_some(self.min)
    }

    /// Largest finite observation (`None` when empty).
    pub fn max_us(&self) -> Option<f64> {
        self.max.is_finite().then_some(self.max)
    }

    /// Per-bucket counts: one per bound in [`BUCKET_BOUNDS_US`] plus a final
    /// overflow bucket. Always sums to [`Histogram::count`].
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Finite samples beyond the last fixed bucket bound. These were
    /// silently clipped into the final bucket before; now the clipping is
    /// visible in exports.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Non-finite (NaN/±∞) samples.
    pub fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    /// Quantile estimate over the finite samples from the embedded sketch
    /// (relative error ≤ [`crate::sketch::DEFAULT_ALPHA`]); `None` when no
    /// finite sample was recorded.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }
}

/// One named metric.
///
/// The histogram variant dominates the enum's size (fixed bucket array);
/// that is fine here — metrics live once per name inside the registry map,
/// never in bulk collections, so boxing would only add a pointer chase to
/// every record on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Fixed-bucket latency histogram (microseconds).
    Histogram(Histogram),
}

/// A name-keyed metrics registry.
///
/// Name collisions across kinds resolve in favour of the first-registered
/// kind: a `counter_add` on a name holding a gauge is ignored (and counted
/// under the `telemetry.type_conflicts` counter by the collector wrapper).
///
/// # Examples
///
/// ```
/// use holoar_telemetry::{Metric, Registry};
///
/// let mut r = Registry::new();
/// r.counter_add("frames", 1);
/// r.counter_add("frames", 2);
/// assert_eq!(r.get("frames"), Some(&Metric::Counter(3)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    map: BTreeMap<String, Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter, creating it at zero on first touch.
    /// Returns `false` (and leaves the metric alone) if the name holds a
    /// non-counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) -> bool {
        match self.entry(name, || Metric::Counter(0)) {
            Metric::Counter(v) => {
                *v = v.saturating_add(delta);
                true
            }
            _ => false,
        }
    }

    /// Sets a gauge. Returns `false` if the name holds a non-gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) -> bool {
        match self.entry(name, || Metric::Gauge(0.0)) {
            Metric::Gauge(v) => {
                *v = value;
                true
            }
            _ => false,
        }
    }

    /// Records into a histogram. Returns `false` if the name holds a
    /// non-histogram.
    pub fn histogram_record(&mut self, name: &str, value_us: f64) -> bool {
        match self.entry(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => {
                h.record(value_us);
                true
            }
            _ => false,
        }
    }

    /// The metric under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.map.get(name)
    }

    /// The counter value under `name` (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.map.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Iterates `(name, metric)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every metric.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Looks up `name`, inserting `default()` (with one key allocation) on
    /// first touch.
    fn entry(&mut self, name: &str, default: impl FnOnce() -> Metric) -> &mut Metric {
        if !self.map.contains_key(name) {
            self.map.insert(name.to_string(), default());
        }
        self.map.get_mut(name).expect("just inserted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        assert!(r.counter_add("hits", 1));
        assert!(r.counter_add("hits", 4));
        assert_eq!(r.counter("hits"), 5);
        assert_eq!(r.counter("absent"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.gauge_set("planes", 16.0);
        r.gauge_set("planes", 7.0);
        assert_eq!(r.get("planes"), Some(&Metric::Gauge(7.0)));
    }

    #[test]
    fn kind_conflicts_are_rejected_not_clobbered() {
        let mut r = Registry::new();
        r.counter_add("x", 2);
        assert!(!r.gauge_set("x", 1.0));
        assert!(!r.histogram_record("x", 1.0));
        assert_eq!(r.counter("x"), 2);
    }

    #[test]
    fn histogram_buckets_cover_the_ladder() {
        let mut h = Histogram::new();
        // One value per bucket bound, plus one overflow.
        for &b in &BUCKET_BOUNDS_US {
            h.record(b);
        }
        h.record(BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1] * 10.0);
        assert_eq!(h.count(), BUCKET_BOUNDS_US.len() as u64 + 1);
        assert!(h.bucket_counts().iter().all(|&c| c == 1));
    }

    #[test]
    fn histogram_stats_track_min_max_mean() {
        let mut h = Histogram::new();
        h.record(10.0);
        h.record(30.0);
        assert_eq!(h.min_us(), Some(10.0));
        assert_eq!(h.max_us(), Some(30.0));
        assert_eq!(h.mean_us(), 20.0);
    }

    #[test]
    fn histogram_tolerates_non_finite_values() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(5.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 3);
        assert_eq!(h.min_us(), Some(5.0));
        assert_eq!(h.sum_us(), 5.0);
    }

    #[test]
    fn overflow_and_non_finite_are_counted_explicitly() {
        let mut h = Histogram::new();
        h.record(5.0);
        h.record(5e7); // finite, beyond the 1e7 µs ladder top
        h.record(f64::NAN);
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.non_finite_count(), 1);
        // The bucket-sum invariant is unchanged: both still land in the
        // final bucket.
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 3);
        assert_eq!(h.bucket_counts()[BUCKET_BOUNDS_US.len()], 2);
        // The mean now includes the finite overflow sample.
        assert_eq!(h.mean_us(), (5.0 + 5e7) / 2.0);
    }

    #[test]
    fn histogram_quantiles_come_from_the_sketch() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p99 = h.quantile_us(0.99).unwrap();
        assert!((p99 - 990.0).abs() <= 990.0 * 0.01 + 1e-9, "p99 {p99}");
        assert!(h.quantile_us(0.5).unwrap() < p99);
        assert_eq!(Histogram::new().quantile_us(0.5), None);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut r = Registry::new();
        r.counter_add("b", 1);
        r.counter_add("a", 1);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
