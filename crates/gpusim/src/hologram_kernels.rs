//! Mapping the hologram algorithms onto GPU kernels.
//!
//! This is where Algorithm 1's structure (one forward and one backward
//! plane-sweep per GSW iteration, with per-plane barriers) becomes a kernel
//! sequence the simulated device can execute. The instruction mixes encode
//! the §3 characterization: both steps compute the same FFT-based
//! propagation math, but the forward step is barrier/imbalance-heavy
//! (74% SM utilization, stalls led by Data Request / Execution Dependency /
//! Instruction Fetch), while the backward step streams every plane's results
//! through the read-only path (90% utilization, stalls led by Read-only
//! Loads and Sync).

use crate::calibration;
use crate::config::DeviceConfig;
use crate::device::{expect_block_cost, launch_time, Device};
use crate::kernel::{InstructionMix, KernelDesc};
use crate::power::{Activity, EnergyMeter, RailPower};
use crate::sm::BlockCost;
use crate::timeline::Slots;

/// Which half of Algorithm 1 a propagation kernel implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// `HP2DP`: hologram plane to depth plane (Algo 1 step 1).
    Forward,
    /// `DP2HP`: depth plane back to the hologram plane (Algo 1 step 2).
    Backward,
}

impl Step {
    /// Kernel name used in profiler reports.
    pub fn kernel_name(self) -> &'static str {
        match self {
            Step::Forward => "hp2dp_forward",
            Step::Backward => "dp2hp_backward",
        }
    }
}

/// Builds the propagation kernel for one depth plane.
///
/// `pixels` is the number of hologram samples the plane touches (the full
/// resolution, scaled down for partial viewing-window coverage).
///
/// # Panics
///
/// Panics if `pixels == 0`.
pub fn propagation_kernel(step: Step, pixels: u64) -> KernelDesc {
    assert!(pixels > 0, "propagation kernel needs at least one pixel");
    let block_threads = PLANE_BLOCK_THREADS;
    let grid_blocks = plane_grid_blocks(pixels);
    match step {
        Step::Forward => KernelDesc::new(
            step.kernel_name(),
            grid_blocks,
            block_threads,
            InstructionMix {
                // Two 2-D FFTs (≈ 18 butterfly stages × ~10 flops/pixel)
                // plus the transfer-function multiply.
                flops: 368.0,
                transcendentals: 12.0,
                loads: 14.0,
                stores: 20.0,
                read_only_fraction: 0.10,
                integer_ops: 120.0,
            },
        )
        .with_intra_syncs(2)
        .with_l1_hit_rate(0.99)
        .with_imbalance(1.04)
        .with_dependency_factor(0.22),
        Step::Backward => KernelDesc::new(
            step.kernel_name(),
            grid_blocks,
            block_threads,
            InstructionMix {
                flops: 368.0,
                transcendentals: 12.0,
                loads: 30.0,
                stores: 6.0,
                read_only_fraction: 0.90,
                integer_ops: 20.0,
            },
        )
        .with_intra_syncs(3)
        .with_inter_sync()
        .with_l1_hit_rate(0.99)
        .with_imbalance(1.0)
        .with_dependency_factor(0.03),
    }
}

/// Threads per block of every propagation kernel.
const PLANE_BLOCK_THREADS: u32 = 256;

/// Grid size of one plane's propagation kernel over `pixels` samples.
pub(crate) fn plane_grid_blocks(pixels: u64) -> u32 {
    pixels.div_ceil(u64::from(PLANE_BLOCK_THREADS)).min(u64::from(u32::MAX)) as u32
}

/// One hologram computation request: the unit HoloAR's planner schedules per
/// object per frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HologramJob {
    /// Hologram resolution in pixels (e.g. 512²).
    pub pixels: u64,
    /// Number of depth planes `M` (the approximation knob).
    pub plane_count: u32,
    /// Fraction of the hologram aperture actually computed (viewing-window
    /// coverage, `(0, 1]`; partial objects compute partial sub-holograms).
    pub coverage: f64,
    /// GSW iterations; the paper profiles five.
    pub gsw_iterations: u32,
}

impl HologramJob {
    /// A full-aperture job at the paper's profiled configuration
    /// (512², 5 GSW iterations).
    ///
    /// # Examples
    ///
    /// ```
    /// use holoar_gpusim::HologramJob;
    /// let job = HologramJob::full(16);
    /// assert_eq!(job.plane_count, 16);
    /// assert_eq!(job.gsw_iterations, 5);
    /// ```
    pub fn full(plane_count: u32) -> Self {
        HologramJob {
            pixels: calibration::HOLOGRAM_PIXELS,
            plane_count,
            coverage: 1.0,
            gsw_iterations: calibration::GSW_ITERATIONS,
        }
    }

    /// Validates the job.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.pixels == 0 {
            return Err("job must cover at least one pixel".into());
        }
        if !(self.coverage > 0.0 && self.coverage <= 1.0) {
            return Err("coverage must be in (0, 1]".into());
        }
        if self.gsw_iterations == 0 {
            return Err("GSW needs at least one iteration".into());
        }
        Ok(())
    }

    /// Hologram samples each of the job's plane propagations touches: the
    /// coverage share of the aperture, at least one.
    pub(crate) fn covered_pixels(&self) -> u64 {
        ((self.pixels as f64 * self.coverage).ceil() as u64).max(1)
    }

    /// Thread blocks one launch of the job's plane sweep covers (one step
    /// of one GSW iteration over every plane): the plane grid times the
    /// planes, zero for a job with no planes. A merged launch's grid is the
    /// sum over its jobs ([`JobPricer::batch`]), and serving attributes the
    /// batch's latency to each job by its share of that sum.
    pub fn blocks(&self) -> u64 {
        if self.plane_count == 0 {
            return 0;
        }
        u64::from(plane_grid_blocks(self.covered_pixels())) * u64::from(self.plane_count)
    }

    /// Panics with the validation error of an invalid job.
    pub(crate) fn expect_valid(&self) {
        if let Err(e) = self.validate() {
            // holoar-lint: allow(no-panic-transitive, reason = "documented contract for hand-built jobs; the serving and evaluation paths derive jobs from validated plans, and HologramJob::validate is the recoverable path")
            panic!("invalid hologram job: {e}");
        }
    }
}

/// Builds the full kernel sequence for a job: per GSW iteration, one forward
/// and one backward propagation per depth plane.
///
/// # Panics
///
/// Panics if the job is invalid (use [`HologramJob::validate`] for a
/// recoverable error).
pub fn job_kernels(job: &HologramJob) -> Vec<KernelDesc> {
    job.expect_valid();
    let covered_pixels = job.covered_pixels();
    let mut kernels =
        Vec::with_capacity((job.gsw_iterations * job.plane_count * 2) as usize);
    for _ in 0..job.gsw_iterations {
        for _ in 0..job.plane_count {
            kernels.push(propagation_kernel(Step::Forward, covered_pixels));
        }
        for _ in 0..job.plane_count {
            kernels.push(propagation_kernel(Step::Backward, covered_pixels));
        }
    }
    kernels
}

/// Builds the merged kernel sequence for a batch of jobs sharing one
/// device: per GSW iteration and step, every job's plane propagations
/// coalesce into a single grid-wide launch whose grid is the sum of the
/// per-job plane grids. A batch of one job is that job's fused kernels.
/// [`JobPricer::batch`] prices this sequence, and its occupancy on one
/// stream, without building it.
///
/// Jobs with `plane_count == 0` contribute nothing. All jobs must agree on
/// `gsw_iterations` (only lockstep iterations merge).
///
/// Returns the merged kernels in (iteration, forward-then-backward) order,
/// or an empty vector when no job has work.
///
/// # Panics
///
/// Panics if any job is invalid or if jobs disagree on `gsw_iterations`.
// holoar-lint: allow(unreached, reason = "test oracle: merged_batch_price_is_bit_identical and batch_occupancy_matches_the_merged_timeline in gpusim tests/properties.rs and the hologram_kernels unit tests price the kernel-built merged batch against JobPricer::batch")
pub fn merged_session_kernels(jobs: &[HologramJob]) -> Vec<KernelDesc> {
    let active: Vec<&HologramJob> = jobs.iter().filter(|j| j.plane_count > 0).collect();
    let Some(first) = active.first() else {
        return Vec::new();
    };
    for job in &active {
        job.expect_valid();
        assert_eq!(
            job.gsw_iterations, first.gsw_iterations,
            "cross-session batching requires lockstep GSW iterations"
        );
    }
    let mut kernels = Vec::with_capacity((first.gsw_iterations * 2) as usize);
    for _ in 0..first.gsw_iterations {
        for step in [Step::Forward, Step::Backward] {
            let mut grid_blocks = 0u32;
            for job in &active {
                let per_plane = plane_grid_blocks(job.covered_pixels());
                grid_blocks = grid_blocks.saturating_add(per_plane.saturating_mul(job.plane_count));
            }
            let mut merged = propagation_kernel(step, first.covered_pixels());
            merged.name = format!("{}_xsession", step.kernel_name());
            merged.grid_blocks = grid_blocks.max(1);
            kernels.push(merged);
        }
    }
    kernels
}

/// Prices hologram jobs on one device model: a job's latency, rails and
/// energy ([`JobPricer::cost`]) and the latency and occupancy of a merged
/// launch ([`merged_session_kernels`], [`JobPricer::batch`]) as pure
/// functions of the configuration. Every [`Device`] holds one
/// ([`Device::pricer`]).
///
/// A block's cost depends on the kernel's instruction mix and the device,
/// not on the grid, so the forward and backward block costs are computed
/// once per device. A job or batch is then priced from its grid through the
/// launch-time arithmetic [`Device::execute`] uses, adding the launch times
/// in launch order, so each latency is bit-identical to executing the
/// kernels.
///
/// # Examples
///
/// ```
/// use holoar_gpusim::{hologram_kernels, Device, HologramJob};
///
/// let device = Device::xavier();
/// let job = HologramJob::full(8);
/// let executed: f64 = device
///     .execute_all(&hologram_kernels::job_kernels(&job))
///     .iter()
///     .map(|stats| stats.time)
///     .sum();
/// assert_eq!(device.pricer().latency(&job).to_bits(), executed.to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct JobPricer {
    config: DeviceConfig,
    forward: BlockCost,
    backward: BlockCost,
    /// The device's block slots.
    slots: u64,
    /// The slots one propagation launch's blocks may hold at once. Both
    /// steps launch blocks of the same width, so they share it.
    cap: u64,
}

impl JobPricer {
    /// A pricer for jobs on `config`.
    pub fn new(config: &DeviceConfig) -> Self {
        let cost = |step| expect_block_cost(&propagation_kernel(step, 1), config);
        let (forward, backward) = (cost(Step::Forward), cost(Step::Backward));
        let slots = Slots::new(config).total;
        let cap = Slots::cap(&propagation_kernel(Step::Forward, 1), config).min(slots);
        JobPricer { config: *config, forward, backward, slots, cap }
    }

    /// The configuration this pricer prices on.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// A job's latency, the rails it sustains and its energy: all zero for a
    /// job with no planes (a skipped object).
    ///
    /// # Examples
    ///
    /// ```
    /// use holoar_gpusim::{Device, HologramJob};
    ///
    /// let device = Device::xavier();
    /// let full = device.pricer().cost(&HologramJob::full(16));
    /// let approx = device.pricer().cost(&HologramJob::full(8));
    /// assert!(approx.latency < full.latency);
    /// assert!(approx.energy < full.energy);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the job is invalid (non-zero planes with zero
    /// pixels/coverage).
    pub fn cost(&self, job: &HologramJob) -> JobCost {
        if job.plane_count == 0 {
            return JobCost::default();
        }
        let activity = Activity::for_hologram(job.plane_count as f64, &self.config.power);
        self.cost_at(job, self.config.power.rails(activity))
    }

    /// A job with planes priced with every launch drawing `rails`.
    pub(crate) fn cost_at(&self, job: &HologramJob, rails: RailPower) -> JobCost {
        let latency = self.latency(job);
        let mut meter = EnergyMeter::new();
        meter.accumulate(latency, rails);
        JobCost { latency, rails, energy: meter.energy.total() }
    }

    /// A job's solo latency: zero for a job with no planes.
    ///
    /// # Panics
    ///
    /// Panics if the job is invalid (non-zero planes with zero
    /// pixels/coverage).
    pub fn latency(&self, job: &HologramJob) -> f64 {
        let _span = holoar_telemetry::span_cat("gpusim.price.job", "gpusim");
        if job.plane_count == 0 {
            return 0.0;
        }
        job.expect_valid();
        let grid_blocks = plane_grid_blocks(job.covered_pixels());
        let fwd = launch_time(grid_blocks, &self.forward, &self.config).1;
        let bwd = launch_time(grid_blocks, &self.backward, &self.config).1;
        // Summed in `job_kernels` order, the order `Device::execute` runs the
        // job's launches in, so the bits match the executed kernels'.
        let mut latency = 0.0;
        for _ in 0..job.gsw_iterations {
            for _ in 0..job.plane_count {
                latency += fwd;
            }
            for _ in 0..job.plane_count {
                latency += bwd;
            }
        }
        latency
    }

    /// The price of running `jobs` as one merged launch sequence: per GSW
    /// iteration, one forward and one backward launch over the sum of the
    /// jobs' plane grids. Jobs with no planes contribute nothing; a batch
    /// with no planes at all costs `+0.0`, no launches and no occupancy.
    ///
    /// The occupancy is the launches' time-weighted share of the device's
    /// block slots, the [`Timeline::mean_occupancy`] of
    /// [`simulate`](crate::timeline::simulate)-ing
    /// [`merged_session_kernels`] on one stream. A launch of `B` blocks
    /// whose co-residency cap is `c` of the device's `S` slots runs
    /// `⌈B / c⌉` waves of one block time, holding `B` blocks' worth of slot
    /// time in all, so its share is `B / (S · ⌈B / c⌉)` whatever the block
    /// time. Every launch has the same grid and cap, so that is the whole
    /// sequence's occupancy.
    ///
    /// [`Timeline::mean_occupancy`]: crate::timeline::Timeline::mean_occupancy
    ///
    /// # Panics
    ///
    /// Panics if a job with planes is invalid or if such jobs disagree on
    /// `gsw_iterations`.
    pub fn batch(&self, jobs: &[HologramJob]) -> BatchPrice {
        let _span = holoar_telemetry::span_cat("gpusim.price.batch", "gpusim");
        let mut iterations = None;
        let mut blocks = 0u64;
        for job in jobs.iter().filter(|j| j.plane_count > 0) {
            job.expect_valid();
            let lockstep = *iterations.get_or_insert(job.gsw_iterations);
            assert_eq!(
                job.gsw_iterations, lockstep,
                "cross-session batching requires lockstep GSW iterations"
            );
            blocks = blocks.saturating_add(job.blocks());
        }
        let Some(iterations) = iterations else {
            return BatchPrice { latency: 0.0, launches: 0, occupancy: 0.0 };
        };
        let grid_blocks = blocks.clamp(1, u64::from(u32::MAX)) as u32;
        let fwd = launch_time(grid_blocks, &self.forward, &self.config).1;
        let bwd = launch_time(grid_blocks, &self.backward, &self.config).1;
        let mut latency = 0.0;
        for _ in 0..iterations {
            latency += fwd;
            latency += bwd;
        }
        let blocks = u64::from(grid_blocks);
        let occupancy = blocks as f64 / (self.slots * blocks.div_ceil(self.cap)) as f64;
        BatchPrice { latency, launches: 2 * u64::from(iterations), occupancy }
    }
}

/// A job's price ([`JobPricer::cost`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobCost {
    /// End-to-end job latency, seconds.
    pub latency: f64,
    /// Rail power sustained during the job.
    pub rails: RailPower,
    /// Total energy, joules.
    pub energy: f64,
}

/// A merged batch's price ([`JobPricer::batch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPrice {
    /// Modeled latency of the merged launches, seconds.
    pub latency: f64,
    /// Merged kernel launches: two per GSW iteration when any job has
    /// planes, else zero.
    pub launches: u64,
    /// Time-weighted mean occupancy of the device's block slots over the
    /// launches, in `(0, 1]`; zero with no launches.
    pub occupancy: f64,
}

/// Latency of the forward and backward halves for one plane count — the
/// Fig 4b sweep.
pub fn step_latencies(device: &Device, pixels: u64, plane_count: u32) -> (f64, f64) {
    let mut fwd = 0.0;
    let mut bwd = 0.0;
    for _ in 0..calibration::GSW_ITERATIONS {
        for _ in 0..plane_count {
            fwd += device.execute(&propagation_kernel(Step::Forward, pixels)).time;
            bwd += device.execute(&propagation_kernel(Step::Backward, pixels)).time;
        }
    }
    (fwd, bwd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_distinguish_steps() {
        assert_eq!(Step::Forward.kernel_name(), "hp2dp_forward");
        assert_eq!(Step::Backward.kernel_name(), "dp2hp_backward");
    }

    #[test]
    fn job_kernel_count_matches_structure() {
        let job = HologramJob::full(16);
        let kernels = job_kernels(&job);
        assert_eq!(kernels.len(), (5 * 16 * 2) as usize);
    }

    #[test]
    fn coverage_scales_grid() {
        let full = propagation_kernel(Step::Forward, 512 * 512);
        let job = HologramJob { coverage: 0.25, ..HologramJob::full(4) };
        let kernels = job_kernels(&job);
        assert!(kernels[0].grid_blocks < full.grid_blocks);
        assert_eq!(kernels[0].grid_blocks, 256); // 65536 pixels / 256 threads
    }

    #[test]
    fn latency_roughly_linear_in_planes() {
        let d = Device::xavier();
        let t8 = d.pricer().latency(&HologramJob::full(8));
        let t16 = d.pricer().latency(&HologramJob::full(16));
        let ratio = t16 / t8;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn forward_and_backward_take_similar_time() {
        let (fwd, bwd) = step_latencies(&Device::xavier(), 512 * 512, 4);
        let ratio = fwd / bwd;
        assert!((0.7..1.4).contains(&ratio), "fwd/bwd ratio {ratio}");
    }

    #[test]
    fn zero_planes_is_skipped() {
        let job = HologramJob { plane_count: 0, ..HologramJob::full(0) };
        let cost = Device::xavier().pricer().cost(&job);
        assert_eq!(cost.latency, 0.0);
        assert_eq!(cost.energy, 0.0);
        assert_eq!(cost.rails, RailPower::default());
        assert!(job_kernels(&job).is_empty());
        assert_eq!(job.blocks(), 0);
    }

    #[test]
    fn job_validation() {
        assert!(HologramJob::full(16).validate().is_ok());
        let bad = HologramJob { coverage: 0.0, ..HologramJob::full(4) };
        assert!(bad.validate().is_err());
        let bad = HologramJob { gsw_iterations: 0, ..HologramJob::full(4) };
        assert!(bad.validate().is_err());
        let bad = HologramJob { pixels: 0, ..HologramJob::full(4) };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fusion_saves_a_little_but_not_the_10x() {
        // Kernel fusion removes launch overheads and drain tails; the model
        // shows it recovers only a few percent — the plane count, not the
        // kernel engineering, is the lever (the paper's §4 premise).
        let pricer = JobPricer::new(Device::xavier().config());
        let job = HologramJob::full(16);
        let plain = pricer.latency(&job);
        let fused = pricer.batch(&[job]).latency;
        assert!(fused < plain, "fusion should help: {fused} vs {plain}");
        let saving = 1.0 - fused / plain;
        assert!(saving < 0.10, "fusion saving {saving:.3} should be small");
        assert!(saving > 0.001, "fusion saving {saving:.4} should be visible");
    }

    #[test]
    fn merged_batch_has_two_kernels_per_iteration_and_summed_grids() {
        // One job: its fused kernels, one launch per step over all planes.
        let kernels = merged_session_kernels(&[HologramJob::full(16)]);
        assert_eq!(kernels.len(), 10); // 5 iterations x (fwd + bwd)
        assert_eq!(kernels[0].grid_blocks, 16 * 1024);
        let jobs = [HologramJob::full(16), HologramJob::full(8), HologramJob::full(4)];
        let kernels = merged_session_kernels(&jobs);
        assert_eq!(kernels.len(), 10);
        assert!(kernels[0].name.ends_with("_xsession"));
        // 512² → 1024 blocks per plane; 28 planes across the batch.
        assert_eq!(kernels[0].grid_blocks, 28 * 1024);
    }

    #[test]
    fn batch_price_counts_two_launches_per_iteration() {
        let job = |planes| HologramJob {
            pixels: 64 * 64,
            plane_count: planes,
            coverage: 1.0,
            gsw_iterations: 5,
        };
        let pricer = JobPricer::new(Device::xavier().config());
        let jobs = [job(12), job(0), job(20)];
        let price = pricer.batch(&jobs);
        assert!(price.latency > 0.0);
        assert_eq!(price.launches, 10, "2 launches × 5 lockstep iterations");
        assert_eq!(jobs.map(|j| j.blocks()), [12 * 16, 0, 20 * 16], "64² → 16 blocks per plane");
        assert!(price.occupancy > 0.0 && price.occupancy <= 1.0, "{}", price.occupancy);
        let idle = pricer.batch(&[job(0), job(0)]);
        assert_eq!((idle.latency, idle.launches, idle.occupancy), (0.0, 0, 0.0));
        assert_eq!(pricer.batch(&[]).launches, 0);
    }

    #[test]
    fn merged_batch_skips_empty_jobs_and_empty_batches() {
        let empty = HologramJob { plane_count: 0, ..HologramJob::full(0) };
        assert!(merged_session_kernels(&[empty]).is_empty());
        assert!(merged_session_kernels(&[]).is_empty());
        let kernels = merged_session_kernels(&[empty, HologramJob::full(4)]);
        assert_eq!(kernels[0].grid_blocks, 4 * 1024);
    }

    #[test]
    fn merged_batch_beats_sequential_jobs() {
        // The serving-layer premise: one launch over the fleet's planes is
        // faster than running each session's per-plane kernels in turn.
        let jobs = vec![HologramJob::full(8); 4];
        let device = Device::xavier();
        let sequential: f64 = jobs.iter().map(|j| device.pricer().latency(j)).sum();
        let batched: f64 = device
            .execute_all(&merged_session_kernels(&jobs))
            .iter()
            .map(|s| s.time)
            .sum();
        assert!(batched < sequential, "batched {batched} vs sequential {sequential}");
    }

    #[test]
    fn job_blocks_sum_to_the_merged_grid() {
        let jobs = [
            HologramJob::full(12),
            HologramJob { plane_count: 0, ..HologramJob::full(0) },
            HologramJob { coverage: 0.25, ..HologramJob::full(4) },
        ];
        assert_eq!(jobs.map(|j| j.blocks()), [12 * 1024, 0, 4 * 256]);
        let total: u64 = jobs.iter().map(HologramJob::blocks).sum();
        let merged = merged_session_kernels(&jobs);
        assert!(merged.iter().all(|k| u64::from(k.grid_blocks) == total));
    }

    #[test]
    #[should_panic(expected = "lockstep GSW iterations")]
    fn merged_batch_rejects_mixed_iteration_counts() {
        let mut other = HologramJob::full(8);
        other.gsw_iterations = 3;
        merged_session_kernels(&[HologramJob::full(8), other]);
    }

    #[test]
    #[should_panic(expected = "lockstep GSW iterations")]
    fn batch_price_rejects_mixed_iteration_counts() {
        let mut other = HologramJob::full(8);
        other.gsw_iterations = 3;
        JobPricer::new(Device::xavier().config()).batch(&[HologramJob::full(8), other]);
    }

    #[test]
    fn fewer_planes_burn_less_power() {
        let d = Device::xavier();
        let p16 = d.pricer().cost(&HologramJob::full(16)).rails.total();
        let p4 = d.pricer().cost(&HologramJob::full(4)).rails.total();
        assert!(p4 < p16);
    }

    #[test]
    #[should_panic(expected = "invalid hologram job")]
    fn invalid_job_panics_on_kernel_build() {
        job_kernels(&HologramJob { coverage: -1.0, ..HologramJob::full(4) });
    }
}
