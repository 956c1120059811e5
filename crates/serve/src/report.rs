//! Serving-run reports: per-session and fleet-level outcomes.

use crate::slo::{FleetSlo, SessionSlo};

/// Outcome of one session over a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Session id from its spec.
    pub id: u32,
    /// Objectron category name.
    pub video: &'static str,
    /// Ticks the session participated in.
    pub frames: u64,
    /// Frames served with fresh hologram content.
    pub served: u64,
    /// Frames deferred under overload (stale reprojection shown).
    pub deferred: u64,
    /// Frames whose completion met the frame budget.
    pub deadline_hits: u64,
    /// `deadline_hits / frames`.
    pub hit_rate: f64,
    /// Frames spent at each degradation level, shallow to deep.
    pub frames_at_level: [u64; 4],
    /// QoS-forced step-downs this session absorbed.
    pub qos_step_downs: u64,
    /// Longest run of consecutive budget overruns the session's controller
    /// tolerated without stepping down (the ladder invariant keeps this ≤ 1
    /// whenever shedding depth remains).
    pub max_overruns_without_stepdown: u32,
    /// Mean hologram-stage completion latency, seconds.
    pub mean_latency: f64,
    /// Occupancy-weighted PSNR across the levels the session visited, dB
    /// (capped at the exact-reconstruction ceiling).
    pub psnr_weighted: f64,
    /// Full-quality PSNR of the same content — the single-session baseline
    /// the weighted figure is compared against.
    pub psnr_full: f64,
    /// SLO summary: sketch quantiles, error budget, burn alerts, signal-
    /// annotated step-downs and critical-path attribution.
    pub slo: SessionSlo,
}

/// Fleet-level outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Sessions requested before admission.
    pub requested: usize,
    /// Sessions admitted (prefix of the request order).
    pub admitted: usize,
    /// Ticks simulated.
    pub frames: u64,
    /// Per-session outcomes, in admission order.
    pub sessions: Vec<SessionReport>,
    /// Fleet frames presented per second of device time (batched schedule).
    pub aggregate_fps: f64,
    /// Same workload served as independent per-plane sequential pipelines.
    pub sequential_fps: f64,
    /// `aggregate_fps / sequential_fps`.
    pub speedup_vs_sequential: f64,
    /// Fleet-wide fraction of frames meeting the budget.
    pub deadline_hit_rate: f64,
    /// Median completion latency across all sessions and ticks, seconds.
    pub latency_p50: f64,
    /// 99th-percentile completion latency, seconds.
    pub latency_p99: f64,
    /// Mean block-slot occupancy of the device over the ticks that launched
    /// work: each tick's merged launches'
    /// [`BatchPrice::occupancy`](holoar_gpusim::BatchPrice::occupancy).
    pub mean_occupancy: f64,
    /// Merged kernel launches issued.
    pub merged_launches: u64,
    /// Launches saved versus the per-plane sequential schedule.
    pub launches_saved: u64,
    /// Fleet-level SLO summary (merged sketch quantiles, pooled error
    /// budget, burn totals, recent window figures).
    pub slo: FleetSlo,
}

impl ServeReport {
    /// Checks the report's books: one report per admitted session, every
    /// admitted session-tick either served or deferred
    /// (`Σ served + Σ deferred = admitted × frames`), and no session hitting
    /// its deadline on more frames than it served.
    ///
    /// # Errors
    ///
    /// Returns the first invariant that does not hold, with both sides.
    pub fn check(&self) -> Result<(), String> {
        if self.sessions.len() != self.admitted {
            return Err(format!(
                "serve books: {} session reports for {} admitted",
                self.sessions.len(),
                self.admitted
            ));
        }
        let accounted: u64 = self.sessions.iter().map(|s| s.served + s.deferred).sum();
        let owed = self.admitted as u64 * self.frames;
        if accounted != owed {
            return Err(format!(
                "serve books: Σ served + Σ deferred = {accounted} but admitted × frames = {owed}"
            ));
        }
        if let Some(s) = self.sessions.iter().find(|s| s.deadline_hits > s.served) {
            return Err(format!(
                "serve books: session {} hit {} deadlines on {} served frames",
                s.id, s.deadline_hits, s.served
            ));
        }
        Ok(())
    }
}

/// Nearest-rank percentile of a latency population (`q` in `[0, 1]`).
/// Deterministic: total-order f64 sort, fixed rank rule. Returns 0.0 for an
/// empty population.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let pop: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&pop, 0.50), 50.0);
        assert_eq!(percentile(&pop, 0.99), 99.0);
        assert_eq!(percentile(&pop, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
