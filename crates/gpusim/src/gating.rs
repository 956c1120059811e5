//! Power gating and DVFS — the §5.5 future-work knobs, modeled.
//!
//! The paper's accelerator sketch asks: *"In some cases where a small amount
//! of hologram computation \[is\] required, not all of the PUs on-board are
//! needed to be active. We plan to design and implement a clock/power gating
//! technology to switch off the un-utilized PUs"*. Approximated holograms
//! and partial sub-holograms launch smaller grids; when a grid cannot fill
//! every SM, gating powers the idle ones down and saves their share of
//! static (and residual dynamic) power.
//!
//! DVFS is the complementary knob: scaling frequency (and with it voltage)
//! trades latency for power cubically — racing to finish versus crawling
//! efficiently.

use crate::config::{DeviceConfig, PowerConfig};
use crate::device::Device;
use crate::hologram_kernels::{plane_grid_blocks, HologramJob, JobCost, JobPricer};
use crate::power::{Activity, RailPower};

/// Gating policy for idle SMs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatingPolicy {
    /// Whether idle SMs are power-gated at all.
    pub enabled: bool,
    /// SMs that can never be gated (kept warm for latency-critical wakeup).
    pub min_active_sms: u32,
}

impl Default for GatingPolicy {
    /// Gating on, one SM always awake.
    fn default() -> Self {
        GatingPolicy { enabled: true, min_active_sms: 1 }
    }
}

/// How many SMs a grid of `grid_blocks` blocks can keep busy.
pub fn sms_needed(grid_blocks: u32, config: &DeviceConfig) -> u32 {
    grid_blocks.min(config.sm_count).max(1)
}

/// GPU/Mem rails with `active_sms` of the device powered, at the given
/// activity. The GPU rail's static share and its dynamic draw both scale
/// with the powered fraction; other rails are unaffected.
///
/// # Panics
///
/// Panics if `active_sms` is zero or exceeds the SM count.
pub fn gated_rails(
    power: &PowerConfig,
    activity: Activity,
    active_sms: u32,
    sm_count: u32,
) -> RailPower {
    assert!(active_sms >= 1 && active_sms <= sm_count, "active SMs out of range");
    let fraction = active_sms as f64 / sm_count as f64;
    let ungated = power.rails(activity);
    RailPower {
        gpu: power.gpu_static * fraction + power.gpu_dynamic * activity.gpu * fraction,
        ..ungated
    }
}

/// Prices a hologram job with idle-SM gating applied to its power: the
/// latency is the pricer's (gated SMs were idle anyway). Every launch of a
/// job has the same grid, so one gated rail set covers the whole job, and
/// the energy integrates it over the latency exactly as
/// [`JobPricer::cost`] integrates the ungated rails.
///
/// # Panics
///
/// Panics if the job is invalid.
pub fn gated_cost(pricer: &JobPricer, job: &HologramJob, policy: GatingPolicy) -> JobCost {
    if job.plane_count == 0 {
        return JobCost::default();
    }
    let config = pricer.config();
    let sm_count = config.sm_count;
    let active = if policy.enabled {
        sms_needed(plane_grid_blocks(job.covered_pixels()), config).max(policy.min_active_sms)
    } else {
        sm_count
    };
    let activity = Activity::for_hologram(job.plane_count as f64, &config.power);
    pricer.cost_at(
        job,
        gated_rails(&config.power, activity, active.min(sm_count), sm_count),
    )
}

/// A DVFS operating point: clock scaled by `frequency_scale`, with voltage
/// tracking frequency (the standard near-linear V–f region), so dynamic
/// power scales as `f·V² ≈ f³` and latency as `1/f`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPoint {
    /// Clock multiplier relative to the calibrated nominal (e.g. 0.75).
    pub frequency_scale: f64,
}

impl DvfsPoint {
    /// The nominal operating point.
    pub const NOMINAL: DvfsPoint = DvfsPoint { frequency_scale: 1.0 };

    /// Creates an operating point.
    ///
    /// # Panics
    ///
    /// Panics if the scale is not in `(0, 1.5]` (Xavier's governor range,
    /// roughly).
    pub fn new(frequency_scale: f64) -> Self {
        assert!(
            frequency_scale > 0.0 && frequency_scale <= 1.5,
            "frequency scale must be in (0, 1.5]"
        );
        DvfsPoint { frequency_scale }
    }

    /// Derives the scaled device configuration: clock × `f`, GPU/Mem dynamic
    /// power × `f³` (voltage tracks frequency), statics unchanged.
    pub fn apply(&self, base: &DeviceConfig) -> DeviceConfig {
        let f = self.frequency_scale;
        let mut cfg = *base;
        cfg.clock_hz *= f;
        cfg.power.gpu_dynamic *= f * f * f;
        cfg.power.mem_dynamic *= f * f * f;
        cfg
    }
}

/// Latency and energy of a hologram job at a DVFS point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsOutcome {
    /// The operating point.
    pub point: DvfsPoint,
    /// Job latency, seconds.
    pub latency: f64,
    /// Job energy, joules.
    pub energy: f64,
}

/// Sweeps a hologram job across DVFS points (the race-to-idle analysis).
///
/// # Panics
///
/// Panics if `points` is empty or the job is invalid.
pub fn dvfs_sweep(base: &DeviceConfig, job: &HologramJob, points: &[DvfsPoint]) -> Vec<DvfsOutcome> {
    assert!(!points.is_empty(), "sweep needs at least one operating point");
    points
        .iter()
        .map(|&point| {
            let device = Device::new(point.apply(base)).expect("scaled configuration stays valid");
            let cost = device.pricer().cost(job);
            DvfsOutcome { point, latency: cost.latency, energy: cost.energy }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sms_needed_saturates_at_device_size() {
        let cfg = DeviceConfig::default();
        assert_eq!(sms_needed(1, &cfg), 1);
        assert_eq!(sms_needed(5, &cfg), 5);
        assert_eq!(sms_needed(100, &cfg), 8);
        assert_eq!(sms_needed(0, &cfg), 1);
    }

    #[test]
    fn gating_never_raises_power() {
        let power = PowerConfig::default();
        let act = Activity::for_hologram(8.0, &power);
        let full = gated_rails(&power, act, 8, 8);
        let half = gated_rails(&power, act, 4, 8);
        assert!(half.total() < full.total());
        assert_eq!(half.soc, full.soc, "gating only touches the GPU rail");
        assert_eq!(half.mem, full.mem);
    }

    #[test]
    fn full_activity_ungated_matches_plain_rails() {
        let power = PowerConfig::default();
        let act = Activity::for_hologram(16.0, &power);
        let gated = gated_rails(&power, act, 8, 8);
        let plain = power.rails(act);
        assert!((gated.total() - plain.total()).abs() < 1e-12);
    }

    #[test]
    fn small_jobs_benefit_from_gating() {
        // A tiny sub-hologram (low coverage) cannot fill the device; gating
        // should cut its energy relative to the ungated run.
        let job = HologramJob { coverage: 0.004, ..HologramJob::full(2) }; // ~4 blocks
        let pricer = JobPricer::new(&DeviceConfig::default());
        let plain = pricer.cost(&job);
        let gated = gated_cost(&pricer, &job, GatingPolicy::default());
        assert_eq!(gated.latency, plain.latency, "gating must not slow down");
        assert!(gated.energy < plain.energy, "gated {} vs {}", gated.energy, plain.energy);
    }

    #[test]
    fn full_jobs_see_no_gating_effect() {
        let job = HologramJob::full(16); // 1024 blocks: fills all SMs
        let pricer = JobPricer::new(&DeviceConfig::default());
        let gated = gated_cost(&pricer, &job, GatingPolicy::default());
        assert_eq!(gated, pricer.cost(&job));
    }

    #[test]
    fn disabled_policy_is_a_noop() {
        let job = HologramJob { coverage: 0.004, ..HologramJob::full(2) };
        let pricer = JobPricer::new(&DeviceConfig::default());
        let off = gated_cost(&pricer, &job, GatingPolicy { enabled: false, min_active_sms: 1 });
        assert_eq!(off, pricer.cost(&job));
    }

    #[test]
    fn min_active_sms_floors_the_gated_rails() {
        let job = HologramJob { coverage: 0.004, ..HologramJob::full(2) };
        let pricer = JobPricer::new(&DeviceConfig::default());
        let warm = |min_active_sms| {
            gated_cost(&pricer, &job, GatingPolicy { enabled: true, min_active_sms })
        };
        assert!(warm(1).energy < warm(6).energy, "5 blocks per launch keep 5 SMs busy");
        assert_eq!(warm(8), pricer.cost(&job), "every SM kept warm gates nothing");
        assert_eq!(warm(64), pricer.cost(&job), "the floor saturates at the device");
    }

    #[test]
    fn dvfs_race_to_idle_wins_on_this_board() {
        let base = DeviceConfig::default();
        let outcomes = dvfs_sweep(
            &base,
            &HologramJob::full(8),
            &[DvfsPoint::new(0.5), DvfsPoint::NOMINAL],
        );
        let slow = outcomes[0];
        let nominal = outcomes[1];
        assert!(slow.latency > 1.8 * nominal.latency, "half clock ≈ double latency");
        // Dynamic energy per op shrinks f², but SoC/CPU statics burn for
        // twice as long — and on this board statics dominate, so racing to
        // idle is the more efficient policy. (This is the §5.5 takeaway:
        // gate/finish-fast beats crawling.)
        assert!(
            slow.energy > nominal.energy,
            "slow {} should cost more than nominal {} on a static-heavy board",
            slow.energy,
            nominal.energy
        );
        // But the gap must come from statics: it should be bounded well
        // below the 2x a pure-static board would show.
        assert!(slow.energy < 1.5 * nominal.energy);
    }

    #[test]
    fn dvfs_apply_scales_clock_and_dynamic_power() {
        let base = DeviceConfig::default();
        let scaled = DvfsPoint::new(0.5).apply(&base);
        assert_eq!(scaled.clock_hz, base.clock_hz * 0.5);
        assert!((scaled.power.gpu_dynamic - base.power.gpu_dynamic * 0.125).abs() < 1e-12);
        assert_eq!(scaled.power.gpu_static, base.power.gpu_static);
    }

    #[test]
    #[should_panic(expected = "frequency scale")]
    fn dvfs_rejects_zero_scale() {
        DvfsPoint::new(0.0);
    }

    #[test]
    #[should_panic(expected = "active SMs out of range")]
    fn gated_rails_validates_range() {
        gated_rails(&PowerConfig::default(), Activity::IDLE, 0, 8);
    }
}
