//! The simulated device: kernel execution and the launch timeline.

use crate::config::DeviceConfig;
use crate::kernel::KernelDesc;
use crate::sm::{block_cost, BlockCost};
use crate::stats::KernelStats;

/// Error constructing a [`Device`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildDeviceError(String);

impl std::fmt::Display for BuildDeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid device configuration: {}", self.0)
    }
}

impl std::error::Error for BuildDeviceError {}

/// The simulated edge GPU.
///
/// # Examples
///
/// ```
/// use holoar_gpusim::{Device, InstructionMix, KernelDesc};
///
/// let mut device = Device::xavier();
/// let kernel = KernelDesc::new("axpy", 512, 256, InstructionMix {
///     flops: 2.0, loads: 2.0, stores: 1.0, ..Default::default()
/// });
/// let stats = device.execute(&kernel);
/// assert!(stats.time > 0.0);
/// assert!(stats.sm_utilization > 0.0 && stats.sm_utilization <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    busy_time: f64,
}

impl Device {
    /// Creates a device from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BuildDeviceError`] when the configuration violates an
    /// invariant (see [`DeviceConfig::validate`]).
    pub fn new(config: DeviceConfig) -> Result<Self, BuildDeviceError> {
        config.validate().map_err(BuildDeviceError)?;
        Ok(Device { config, busy_time: 0.0 })
    }

    /// The default Jetson-AGX-Xavier-like device the paper evaluates on.
    pub fn xavier() -> Self {
        Device::new(DeviceConfig::default()).expect("default configuration is valid")
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Cumulative kernel execution time in seconds.
    pub fn busy_time(&self) -> f64 {
        self.busy_time
    }

    /// Executes a kernel and returns its statistics.
    ///
    /// Blocks are distributed round-robin across SMs; the kernel finishes
    /// when the most-loaded SM drains its blocks. Block cycle costs come
    /// from the [`crate::sm`] model, scaled by the calibrated
    /// `kernel_efficiency`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is invalid (validate with
    /// [`KernelDesc::validate`] for a recoverable error).
    pub fn execute(&mut self, kernel: &KernelDesc) -> KernelStats {
        let cfg = &self.config;
        let cost = expect_block_cost(kernel, cfg);
        let blocks_per_sm = kernel.grid_blocks.div_ceil(cfg.sm_count) as f64;
        let (sm_cycles, time) = launch_time(kernel.grid_blocks, &cost, cfg);

        let busy = blocks_per_sm * cost.busy_cycles;
        let stalls = cost.exposed_stalls.scaled(blocks_per_sm);
        let denom = busy + stalls.total();
        let sm_utilization = if denom > 0.0 { busy / denom } else { 0.0 };

        let l1_bytes = kernel.total_threads() as f64 * kernel.mix.bytes();
        let dram_bytes =
            l1_bytes * (1.0 - kernel.l1_hit_rate) * (1.0 - cfg.memory.l2_hit_rate);

        self.busy_time += time;

        KernelStats {
            name: kernel.name.clone(),
            time,
            cycles: sm_cycles,
            busy_cycles: busy,
            stalls,
            sm_utilization,
            l1_hit_rate: kernel.l1_hit_rate,
            l1_bytes,
            dram_bytes,
        }
    }

    /// Executes a sequence of kernels, returning per-kernel statistics.
    pub fn execute_all(&mut self, kernels: &[KernelDesc]) -> Vec<KernelStats> {
        kernels.iter().map(|k| self.execute(k)).collect()
    }
}

/// Modeled wall time of one launch of `kernel` on `config`, in seconds:
/// the [`Device::execute`] time as a pure function of a built kernel.
///
/// # Panics
///
/// Panics if the kernel is invalid.
// holoar-lint: allow(unreached, reason = "test oracle: merged_batch_price_is_bit_identical in gpusim tests/properties.rs sums it over merged_session_kernels to check JobPricer::batch, and kernel_time_is_bit_identical pins it to Device::execute")
pub fn kernel_time(kernel: &KernelDesc, config: &DeviceConfig) -> f64 {
    launch_time(kernel.grid_blocks, &expect_block_cost(kernel, config), config).1
}

/// The block cost of a kernel this crate's builders produced.
pub(crate) fn expect_block_cost(kernel: &KernelDesc, config: &DeviceConfig) -> BlockCost {
    // holoar-lint: allow(no-panic-transitive, reason = "documented contract for hand-built descriptors; every in-tree caller prices kernels from this crate's builders, which are valid by construction, and KernelDesc::validate is the recoverable path")
    block_cost(kernel, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Per-SM cycles and wall seconds of one launch of `grid_blocks` blocks of
/// cost `cost`: the most-loaded SM drains its blocks, then pays a drain
/// tail — the device idles while the last wave's stragglers finish before
/// the end-of-kernel (inter-block) synchronization releases the host.
pub(crate) fn launch_time(grid_blocks: u32, cost: &BlockCost, cfg: &DeviceConfig) -> (f64, f64) {
    let blocks_per_sm = grid_blocks.div_ceil(cfg.sm_count) as f64;
    let drain_tail = 0.5 * cost.total_cycles();
    let sm_cycles = (blocks_per_sm * cost.total_cycles() + drain_tail) / cfg.kernel_efficiency;
    (sm_cycles, sm_cycles / cfg.clock_hz + cfg.launch_overhead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::kernel::InstructionMix;

    fn simple_kernel(blocks: u32) -> KernelDesc {
        KernelDesc::new(
            "k",
            blocks,
            256,
            InstructionMix { flops: 100.0, loads: 10.0, stores: 5.0, ..Default::default() },
        )
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = DeviceConfig { sm_count: 0, ..DeviceConfig::default() };
        let err = Device::new(cfg).unwrap_err();
        assert!(err.to_string().contains("SM"));
    }

    #[test]
    fn time_scales_with_grid_size() {
        let mut d = Device::xavier();
        let t1 = d.execute(&simple_kernel(80)).time;
        let t2 = d.execute(&simple_kernel(800)).time;
        assert!(t2 > 5.0 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let mut d = Device::xavier();
        let t = d.execute(&simple_kernel(1)).time;
        assert!(t >= d.config().launch_overhead);
    }

    #[test]
    fn utilization_bounded() {
        let mut d = Device::xavier();
        let s = d.execute(&simple_kernel(100));
        assert!(s.sm_utilization > 0.0 && s.sm_utilization <= 1.0);
    }

    #[test]
    fn device_accounts_busy_time() {
        let mut d = Device::xavier();
        d.execute(&simple_kernel(10));
        d.execute(&simple_kernel(10));
        assert!(d.busy_time() > 0.0);
    }

    #[test]
    fn traffic_scales_with_threads_and_hit_rate() {
        let mut d = Device::xavier();
        let s = d.execute(&simple_kernel(100));
        assert_eq!(s.l1_bytes, 100.0 * 256.0 * 60.0);
        assert!(s.dram_bytes < s.l1_bytes);
    }

    #[test]
    fn slower_clock_is_slower() {
        let mut fast = Device::xavier();
        let cfg = DeviceConfig {
            clock_hz: DeviceConfig::default().clock_hz / 2.0,
            ..DeviceConfig::default()
        };
        let mut slow = Device::new(cfg).unwrap();
        let k = simple_kernel(400);
        assert!(slow.execute(&k).time > fast.execute(&k).time);
    }

    #[test]
    fn execute_all_preserves_order() {
        let mut d = Device::xavier();
        let ks = vec![simple_kernel(1), simple_kernel(2)];
        let stats = d.execute_all(&ks);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "k");
    }
}
