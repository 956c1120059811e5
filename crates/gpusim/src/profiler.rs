//! NVPROF-style profiling: per-kernel aggregation and report formatting.
//!
//! The paper collects SM utilization, stall breakdowns, L1 hit rates and
//! memory traffic with NVPROF (§3, §4.5). [`Profiler`] aggregates the same
//! observables across launches of each kernel name.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{KernelStats, StallBreakdown, StallCategory};

/// Aggregated statistics for one kernel name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelAggregate {
    /// Number of launches recorded.
    pub invocations: u64,
    /// Total execution time, seconds.
    pub total_time: f64,
    /// Total busy cycles.
    pub busy_cycles: f64,
    /// Total exposed stall cycles by category.
    pub stalls: StallBreakdown,
    /// Total L1 traffic, bytes.
    pub l1_bytes: f64,
    /// Total DRAM traffic, bytes.
    pub dram_bytes: f64,
    /// Time-weighted L1 hit rate accumulator.
    weighted_l1: f64,
}

impl KernelAggregate {
    /// Mean execution time per launch, seconds.
    pub fn mean_time(&self) -> f64 {
        if self.invocations > 0 {
            self.total_time / self.invocations as f64
        } else {
            0.0
        }
    }

    /// Aggregate SM utilization: busy / (busy + stalls).
    pub fn sm_utilization(&self) -> f64 {
        let denom = self.busy_cycles + self.stalls.total();
        if denom > 0.0 {
            self.busy_cycles / denom
        } else {
            0.0
        }
    }

    /// Time-weighted mean L1 hit rate, or `None` when this aggregate has
    /// recorded no execution time (a kernel never launched, or only
    /// zero-duration launches) — the `weighted_l1 / total_time` division
    /// would otherwise be 0/0.
    pub fn mean_l1_hit_rate(&self) -> Option<f64> {
        if self.total_time > 0.0 {
            Some(self.weighted_l1 / self.total_time)
        } else {
            None
        }
    }

    /// Fraction of stall cycles in a category (the NVPROF stall-reasons pie).
    pub fn stall_fraction(&self, category: StallCategory) -> f64 {
        self.stalls.fraction(category)
    }
}

/// Aggregates [`KernelStats`] by kernel name.
///
/// # Examples
///
/// ```
/// use holoar_gpusim::{Device, InstructionMix, KernelDesc, Profiler};
///
/// let device = Device::xavier();
/// let mut profiler = Profiler::new();
/// let k = KernelDesc::new("scale", 64, 256, InstructionMix {
///     flops: 4.0, loads: 1.0, stores: 1.0, ..Default::default()
/// });
/// profiler.record(&device.execute(&k));
/// profiler.record(&device.execute(&k));
/// let (name, aggregate) = profiler.iter().next().unwrap();
/// assert_eq!((name, aggregate.invocations), ("scale", 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    kernels: BTreeMap<String, KernelAggregate>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one kernel execution.
    pub fn record(&mut self, stats: &KernelStats) {
        let agg = self.kernels.entry(stats.name.clone()).or_default();
        agg.invocations += 1;
        agg.total_time += stats.time;
        agg.busy_cycles += stats.busy_cycles;
        agg.stalls.merge(&stats.stalls);
        agg.l1_bytes += stats.l1_bytes;
        agg.dram_bytes += stats.dram_bytes;
        agg.weighted_l1 += stats.l1_hit_rate * stats.time;
    }

    /// Iterates over `(name, aggregate)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &KernelAggregate)> {
        self.kernels.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Formats an NVPROF-like text report: one block per kernel with timing,
    /// utilization, cache and stall-reason percentages.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== simulated profiler report ====");
        for (name, agg) in self.iter() {
            let _ = writeln!(
                out,
                "{name}: {} launches, total {:.3} ms, avg {:.3} ms",
                agg.invocations,
                agg.total_time * 1e3,
                agg.mean_time() * 1e3
            );
            let l1_hit = match agg.mean_l1_hit_rate() {
                Some(rate) => format!("{:>5.1}%", rate * 100.0),
                None => "  n/a".to_string(),
            };
            let _ = writeln!(
                out,
                "  sm_utilization {:>5.1}%   l1_hit {l1_hit}   l1 {:.1} MB   dram {:.2} MB",
                agg.sm_utilization() * 100.0,
                agg.l1_bytes / 1e6,
                agg.dram_bytes / 1e6
            );
            let _ = write!(out, "  stalls:");
            for cat in StallCategory::ALL {
                let _ = write!(out, " {}={:.0}%", cat.name(), agg.stall_fraction(cat) * 100.0);
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::kernel::{InstructionMix, KernelDesc};

    fn run_one(name: &str) -> KernelStats {
        let d = Device::xavier();
        d.execute(&KernelDesc::new(
            name,
            32,
            256,
            InstructionMix { flops: 50.0, loads: 8.0, stores: 4.0, ..Default::default() },
        ))
    }

    #[test]
    fn records_and_aggregates() {
        let mut p = Profiler::new();
        let s = run_one("a");
        p.record(&s);
        p.record(&s);
        let agg = &p.kernels["a"];
        assert_eq!(agg.invocations, 2);
        assert!((agg.total_time - 2.0 * s.time).abs() < 1e-12);
        assert!((agg.mean_time() - s.time).abs() < 1e-12);
        assert_eq!(agg.l1_bytes, 2.0 * s.l1_bytes);
    }

    #[test]
    fn distinct_kernels_tracked_separately() {
        let mut p = Profiler::new();
        p.record(&run_one("a"));
        p.record(&run_one("b"));
        assert_eq!(p.kernels.len(), 2);
        assert!(!p.kernels.contains_key("c"));
    }

    #[test]
    fn utilization_and_hit_rate_are_bounded() {
        let mut p = Profiler::new();
        p.record(&run_one("a"));
        let agg = &p.kernels["a"];
        assert!(agg.sm_utilization() > 0.0 && agg.sm_utilization() <= 1.0);
        assert!((agg.mean_l1_hit_rate().unwrap() - 0.99).abs() < 1e-9);
    }

    #[test]
    fn stall_fractions_sum_to_one_when_stalled() {
        let mut p = Profiler::new();
        p.record(&run_one("a"));
        let agg = &p.kernels["a"];
        let total: f64 = StallCategory::ALL.iter().map(|&c| agg.stall_fraction(c)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_aggregate_defaults() {
        let agg = KernelAggregate::default();
        assert_eq!(agg.mean_time(), 0.0);
        assert_eq!(agg.sm_utilization(), 0.0);
        assert_eq!(agg.mean_l1_hit_rate(), None);
    }

    #[test]
    fn mean_l1_hit_rate_matches_recorded_data() {
        let mut p = Profiler::new();
        p.record(&run_one("a"));
        let agg = &p.kernels["a"];
        let rate = agg.mean_l1_hit_rate().expect("time was recorded");
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn report_prints_na_for_never_launched_kernels() {
        // An aggregate with zero recorded time must render "n/a", not NaN.
        let mut p = Profiler::new();
        let ghost = KernelStats {
            name: "ghost".to_string(),
            time: 0.0,
            cycles: 0.0,
            busy_cycles: 0.0,
            stalls: StallBreakdown::new(),
            sm_utilization: 0.0,
            l1_hit_rate: 0.0,
            l1_bytes: 0.0,
            dram_bytes: 0.0,
        };
        p.record(&ghost);
        let report = p.report();
        assert!(report.contains("n/a"), "{report}");
        assert!(!report.contains("NaN"), "{report}");
    }

    #[test]
    fn report_mentions_kernels_and_categories() {
        let mut p = Profiler::new();
        p.record(&run_one("fwd_prop"));
        let report = p.report();
        assert!(report.contains("fwd_prop"));
        assert!(report.contains("sm_utilization"));
        assert!(report.contains("Read-only Loads"));
    }
}
