//! Hardware configuration for the simulated edge GPU.
//!
//! Defaults model the paper's evaluation platform \[36\]: an NVIDIA Jetson
//! AGX Xavier — 512-core Volta GPU (8 SMs × 64 cores), LPDDR4x memory, with
//! power rails observable the way the on-board INA3221 monitor exposes them.
//! The calibration constants (documented per field) anchor the model to the
//! paper's measured numbers; see `DESIGN.md` for the anchor list.

/// Streaming-multiprocessor parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmConfig {
    /// CUDA cores per SM.
    pub cores: u32,
    /// Special-function units per SM (transcendental throughput).
    pub sfus: u32,
    /// Warp size in threads.
    pub warp_size: u32,
    /// Warp schedulers per SM (issue slots per cycle).
    pub schedulers: u32,
    /// Maximum resident warps per SM (latency-hiding capacity).
    pub max_resident_warps: u32,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig { cores: 64, sfus: 16, warp_size: 32, schedulers: 4, max_resident_warps: 64 }
    }
}

/// Memory-hierarchy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// L1 hit latency in cycles.
    pub l1_latency: f64,
    /// L2 hit latency in cycles.
    pub l2_latency: f64,
    /// DRAM (LPDDR4x) latency in cycles.
    pub dram_latency: f64,
    /// L2 hit rate for L1 misses.
    pub l2_hit_rate: f64,
    /// Sustained DRAM bandwidth available to the GPU, bytes per cycle
    /// (Xavier: ~85 GB/s usable at 1.377 GHz ≈ 62 B/cycle; the GPU's share
    /// of the shared LPDDR4x is smaller).
    pub dram_bytes_per_cycle: f64,
    /// L1/shared-memory bandwidth per SM, bytes per cycle.
    pub l1_bytes_per_cycle_per_sm: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            l1_latency: 28.0,
            l2_latency: 190.0,
            dram_latency: 560.0,
            l2_hit_rate: 0.7,
            dram_bytes_per_cycle: 40.0,
            l1_bytes_per_cycle_per_sm: 64.0,
        }
    }
}

/// Power-rail parameters, mirroring the INA3221 channels the paper samples:
/// SoC (codec, fabric, I/O), CPU, GPU and Mem (§5.3, Fig 8a).
///
/// Rail power is `static + dynamic × activity`, where activity is the
/// simulator's occupancy-derived utilization in `[0, 1]`. The constants were
/// calibrated so a 16-plane hologram burns ≈ 4.41 W total with the Fig 8a
/// breakdown shape (SoC/CPU flat in plane count, GPU/Mem growing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// SoC rail static power, watts (codec/fabric; plane-independent).
    pub soc_static: f64,
    /// CPU rail static power, watts.
    pub cpu_static: f64,
    /// CPU rail dynamic power at full host activity, watts.
    pub cpu_dynamic: f64,
    /// GPU rail static (idle/leakage) power, watts.
    pub gpu_static: f64,
    /// GPU rail dynamic power at full activity, watts.
    pub gpu_dynamic: f64,
    /// Memory rail static power, watts.
    pub mem_static: f64,
    /// Memory rail dynamic power at full bandwidth activity, watts.
    pub mem_dynamic: f64,
    /// Half-saturation constant of the activity curve
    /// `act(planes) = planes / (planes + k)`; governs how concurrency from
    /// plane-level parallelism raises sustained utilization.
    pub activity_half_planes: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            soc_static: 0.90,
            cpu_static: 0.42,
            gpu_static: 0.15,
            gpu_dynamic: 2.80,
            mem_static: 0.12,
            mem_dynamic: 1.30,
            cpu_dynamic: 0.35,
            activity_half_planes: 8.0,
        }
    }
}

/// Full device configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Number of SMs (Xavier Volta: 8).
    pub sm_count: u32,
    /// GPU core clock in hertz.
    pub clock_hz: f64,
    /// Host-side kernel launch overhead in seconds.
    pub launch_overhead: f64,
    /// Achieved fraction of ideal throughput for real kernels
    /// (bank conflicts, divergence, scheduling gaps). Calibrated so a 512²
    /// angular-spectrum propagation costs ≈ 2.14 ms (⇒ 341.7 ms for the
    /// 5-iteration × 16-plane GSW hologram of §2.2.1).
    pub kernel_efficiency: f64,
    /// Per-SM configuration.
    pub sm: SmConfig,
    /// Memory hierarchy.
    pub memory: MemoryConfig,
    /// Power rails.
    pub power: PowerConfig,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            sm_count: 8,
            clock_hz: 1.377e9,
            launch_overhead: 8e-6,
            kernel_efficiency: 0.076,
            sm: SmConfig::default(),
            memory: MemoryConfig::default(),
            power: PowerConfig::default(),
        }
    }
}

impl DeviceConfig {
    /// Returns a derated copy of this configuration modelling transient
    /// contention: `clock_scale` multiplies the effective core clock (SM
    /// slowdown — thermal throttling or co-runner occupancy) and
    /// `dram_scale` multiplies the sustained DRAM bandwidth (memory-bus
    /// contention from other SoC clients).
    ///
    /// Scales must be in `(0, 1]`; values are clamped into that range so a
    /// fault injector can never produce an invalid device.
    ///
    /// # Examples
    ///
    /// ```
    /// use holoar_gpusim::DeviceConfig;
    /// let nominal = DeviceConfig::default();
    /// let derated = nominal.with_slowdown(0.5, 0.8);
    /// assert_eq!(derated.clock_hz, nominal.clock_hz * 0.5);
    /// assert!(derated.validate().is_ok());
    /// ```
    #[must_use]
    pub fn with_slowdown(&self, clock_scale: f64, dram_scale: f64) -> Self {
        let clamp = |s: f64| if s.is_finite() { s.clamp(1e-3, 1.0) } else { 1.0 };
        let mut derated = *self;
        derated.clock_hz *= clamp(clock_scale);
        derated.memory.dram_bytes_per_cycle *= clamp(dram_scale);
        derated
    }

    /// Validates configuration invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.sm_count == 0 {
            return Err("device must have at least one SM".into());
        }
        if !(self.clock_hz > 0.0 && self.clock_hz.is_finite()) {
            return Err("clock must be positive and finite".into());
        }
        if !(self.kernel_efficiency > 0.0 && self.kernel_efficiency <= 1.0) {
            return Err("kernel efficiency must be in (0, 1]".into());
        }
        if self.sm.warp_size == 0 || self.sm.cores == 0 || self.sm.schedulers == 0 {
            return Err("SM resources must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.memory.l2_hit_rate) {
            return Err("L2 hit rate must be in [0, 1]".into());
        }
        if self.memory.dram_bytes_per_cycle <= 0.0 || self.memory.l1_bytes_per_cycle_per_sm <= 0.0 {
            return Err("memory bandwidths must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_xavier_like() {
        let cfg = DeviceConfig::default();
        assert_eq!(cfg.sm_count, 8);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let cfg = DeviceConfig { sm_count: 0, ..DeviceConfig::default() };
        assert!(cfg.validate().is_err());

        let cfg = DeviceConfig { kernel_efficiency: 0.0, ..DeviceConfig::default() };
        assert!(cfg.validate().is_err());

        let cfg = DeviceConfig {
            memory: MemoryConfig { l2_hit_rate: 1.5, ..MemoryConfig::default() },
            ..DeviceConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = DeviceConfig { clock_hz: f64::NAN, ..DeviceConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn slowdown_derates_clock_and_dram_and_stays_valid() {
        let nominal = DeviceConfig::default();
        let derated = nominal.with_slowdown(0.5, 0.25);
        assert!((derated.clock_hz - nominal.clock_hz * 0.5).abs() < 1.0);
        let want = nominal.memory.dram_bytes_per_cycle * 0.25;
        assert!((derated.memory.dram_bytes_per_cycle - want).abs() < 1e-12);
        assert!(derated.validate().is_ok());

        // Pathological scales are clamped rather than producing an
        // invalid device.
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY, 7.0] {
            assert!(nominal.with_slowdown(bad, bad).validate().is_ok(), "scale {bad}");
        }
        // An identity slowdown is exactly the nominal config.
        assert_eq!(nominal.with_slowdown(1.0, 1.0), nominal);
    }

    #[test]
    fn idle_power_is_sum_of_statics() {
        let p = PowerConfig::default();
        let idle = p.soc_static + p.cpu_static + p.gpu_static + p.mem_static;
        assert!(idle > 1.0 && idle < 2.5, "idle {idle} W out of plausible range");
    }
}
