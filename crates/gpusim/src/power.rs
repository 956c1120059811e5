//! Power-rail model — the INA3221 voltage-monitor substitute.
//!
//! The paper samples four rails on the Jetson board: SoC, CPU, GPU and Mem
//! (§4.5, Fig 8a). Each rail here is `static + dynamic × activity`. The GPU
//! and Mem activities rise with the number of depth planes in flight
//! (plane-level parallelism keeps more warps resident, raising sustained
//! issue and bandwidth utilization), which reproduces Fig 8a's breakdown:
//! SoC/CPU roughly flat in plane count, GPU/Mem growing.

use crate::config::PowerConfig;

/// Instantaneous power on the four monitored rails, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RailPower {
    /// SoC rail (codec, fabric, I/O).
    pub soc: f64,
    /// CPU cluster rail.
    pub cpu: f64,
    /// GPU rail.
    pub gpu: f64,
    /// Memory (LPDDR) rail.
    pub mem: f64,
}

impl RailPower {
    /// Total board power.
    pub fn total(&self) -> f64 {
        self.soc + self.cpu + self.gpu + self.mem
    }
}

/// Activity levels in `[0, 1]` used to evaluate the rail model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Activity {
    /// GPU issue/occupancy activity.
    pub gpu: f64,
    /// Memory bandwidth activity.
    pub mem: f64,
    /// Host CPU activity.
    pub cpu: f64,
}

impl Activity {
    /// An idle device.
    pub const IDLE: Activity = Activity { gpu: 0.0, mem: 0.0, cpu: 0.0 };

    /// The activity level sustained while computing holograms with
    /// `planes` depth planes in flight: `planes / (planes + k)` with `k` from
    /// the power configuration. GPU and Mem follow this curve; the host CPU
    /// sits at a moderate kernel-launch duty cycle.
    pub fn for_hologram(planes: f64, config: &PowerConfig) -> Activity {
        let p = planes.max(0.0);
        let act = p / (p + config.activity_half_planes);
        Activity { gpu: act, mem: act, cpu: 0.30 }
    }
}

impl PowerConfig {
    /// Evaluates the rail model at an activity point.
    pub fn rails(&self, activity: Activity) -> RailPower {
        RailPower {
            soc: self.soc_static,
            cpu: self.cpu_static + self.cpu_dynamic * activity.cpu,
            gpu: self.gpu_static + self.gpu_dynamic * activity.gpu,
            mem: self.mem_static + self.mem_dynamic * activity.mem,
        }
    }
}

/// Integrates rail power over time into per-rail energy (joules).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyMeter {
    /// Accumulated wall-clock time in seconds.
    pub time: f64,
    /// Accumulated per-rail energy in joules.
    pub energy: RailEnergy,
}

/// Per-rail accumulated energy, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RailEnergy {
    /// SoC rail energy.
    pub soc: f64,
    /// CPU rail energy.
    pub cpu: f64,
    /// GPU rail energy.
    pub gpu: f64,
    /// Memory rail energy.
    pub mem: f64,
}

impl RailEnergy {
    /// Total energy across rails.
    pub fn total(&self) -> f64 {
        self.soc + self.cpu + self.gpu + self.mem
    }
}

impl EnergyMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accrues `duration` seconds at the given rail powers.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or non-finite.
    pub fn accumulate(&mut self, duration: f64, rails: RailPower) {
        assert!(duration >= 0.0 && duration.is_finite(), "duration must be non-negative");
        self.time += duration;
        self.energy.soc += rails.soc * duration;
        self.energy.cpu += rails.cpu * duration;
        self.energy.gpu += rails.gpu * duration;
        self.energy.mem += rails.mem * duration;
    }

    /// Time-averaged total power, or 0 for an empty meter.
    pub fn average_power(&self) -> f64 {
        if self.time > 0.0 {
            self.energy.total() / self.time
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rails_scale_with_activity() {
        let cfg = PowerConfig::default();
        let idle = cfg.rails(Activity::IDLE);
        let busy = cfg.rails(Activity { gpu: 1.0, mem: 1.0, cpu: 1.0 });
        assert!(busy.total() > idle.total());
        assert_eq!(idle.gpu, cfg.gpu_static);
        assert_eq!(busy.gpu, cfg.gpu_static + cfg.gpu_dynamic);
        // SoC is activity-independent.
        assert_eq!(idle.soc, busy.soc);
    }

    #[test]
    fn hologram_activity_grows_and_saturates_with_planes() {
        let cfg = PowerConfig::default();
        let a2 = Activity::for_hologram(2.0, &cfg);
        let a16 = Activity::for_hologram(16.0, &cfg);
        let a64 = Activity::for_hologram(64.0, &cfg);
        assert!(a2.gpu < a16.gpu);
        assert!(a16.gpu < a64.gpu);
        assert!(a64.gpu < 1.0);
        // Zero planes ⇒ zero GPU activity.
        assert_eq!(Activity::for_hologram(0.0, &cfg).gpu, 0.0);
    }

    #[test]
    fn meter_integrates_energy() {
        let mut m = EnergyMeter::new();
        m.accumulate(2.0, RailPower { soc: 1.0, cpu: 0.5, gpu: 2.0, mem: 0.5 });
        assert_eq!(m.time, 2.0);
        assert_eq!(m.energy.total(), 8.0);
        assert_eq!(m.average_power(), 4.0);
        m.accumulate(2.0, RailPower { soc: 0.0, cpu: 0.0, gpu: 0.0, mem: 0.0 });
        assert_eq!(m.average_power(), 2.0);
    }

    #[test]
    fn empty_meter_reports_zero_power() {
        assert_eq!(EnergyMeter::new().average_power(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        EnergyMeter::new().accumulate(-1.0, RailPower::default());
    }

    #[test]
    fn sixteen_plane_hologram_power_matches_paper_anchor() {
        // The paper's baseline burns ≈ 4.41 W (Inter-Holo's 4.24 W is a
        // 3.86% reduction from it, §5.3).
        let cfg = PowerConfig::default();
        let rails = cfg.rails(Activity::for_hologram(16.0, &cfg));
        let total = rails.total();
        assert!(
            (total - 4.41).abs() < 0.25,
            "baseline hologram power {total:.2} W should be near 4.41 W"
        );
    }
}
