//! The performance path: executing a [`ComputePlan`] on the simulated edge
//! GPU and accounting latency, power and energy per frame.

use crate::planner::ComputePlan;
use holoar_gpusim::power::{Activity, EnergyMeter};
use holoar_gpusim::Device;

/// Host-side per-frame overhead outside the hologram kernels: depthmap
/// slicing, buffer management, display composition. Calibrated (together
/// with the kernel-linear hologram cost) so the end-to-end scheme speedups
/// land at the paper's Fig 7b ratios while the kernel-only plane sweep stays
/// linear as in Fig 4b; see `EXPERIMENTS.md` for the residuals.
pub const FRAME_OVERHEAD: f64 = 0.045;

/// Host activity while the CPU prepares/composes a frame.
const HOST_ACTIVITY: Activity = Activity { gpu: 0.05, mem: 0.10, cpu: 0.90 };

/// Performance accounting for one executed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FramePerf {
    /// End-to-end frame latency, seconds.
    pub latency: f64,
    /// Time-averaged total power over the frame, watts.
    pub avg_power: f64,
    /// Total energy, joules.
    pub energy: f64,
    /// Depth planes actually computed.
    pub planes: u32,
    /// Hologram jobs executed (objects computed).
    pub jobs: usize,
}

/// Prices a plan's hologram jobs with the device's [`JobPricer`] and
/// integrates power over the whole frame (host overhead at host activity,
/// each hologram job at its plane-count-dependent activity).
///
/// [`JobPricer`]: holoar_gpusim::JobPricer
///
/// # Examples
///
/// ```
/// use holoar_core::{executor, HoloArConfig, Planner, Scheme};
/// use holoar_gpusim::Device;
/// use holoar_sensors::angles::AngularPoint;
/// use holoar_sensors::objectron::{FrameGenerator, VideoCategory};
/// use holoar_sensors::pose::PoseEstimate;
///
/// let device = Device::xavier();
/// let mut planner = Planner::new(HoloArConfig::for_scheme(Scheme::Baseline)).unwrap();
/// let frame = FrameGenerator::new(VideoCategory::Cup, 1).next().unwrap();
/// let pose = PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 };
/// let plan = planner.plan_frame(&frame, &pose, AngularPoint::CENTER, 0.0);
/// let perf = executor::execute_plan(&device, &plan);
/// assert!(perf.latency >= executor::FRAME_OVERHEAD);
/// ```
pub fn execute_plan(device: &Device, plan: &ComputePlan) -> FramePerf {
    let _span = holoar_telemetry::span_cat("core.executor.execute_plan", "core");
    let mut meter = EnergyMeter::new();
    let host_rails = device.config().power.rails(HOST_ACTIVITY);
    let overhead = FRAME_OVERHEAD + plan.pose_latency + plan.eye_track_latency;
    meter.accumulate(overhead, host_rails);

    let mut planes = 0u32;
    let mut jobs = 0usize;
    for item in &plan.items {
        if !item.needs_compute() {
            continue;
        }
        let cost = {
            let _job_span = holoar_telemetry::span_cat("core.executor.hologram_job", "core");
            device.pricer().cost(&item.job())
        };
        holoar_telemetry::histogram_record_us("core.executor.sim_latency_us", cost.latency * 1e6);
        meter.accumulate(cost.latency, cost.rails);
        planes += item.planes;
        jobs += 1;
    }

    let perf = FramePerf {
        latency: meter.time,
        avg_power: meter.average_power(),
        energy: meter.energy.total(),
        planes,
        jobs,
    };
    holoar_telemetry::record_frame(
        plan.frame_index,
        &[
            ("latency_ms", perf.latency * 1e3),
            ("power_w", perf.avg_power),
            ("energy_mj", perf.energy * 1e3),
            ("planes", f64::from(perf.planes)),
            ("jobs", perf.jobs as f64),
        ],
    );
    perf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HoloArConfig, Scheme};
    use crate::planner::Planner;
    use holoar_sensors::angles::AngularPoint;
    use holoar_sensors::objectron::{Frame, ObjectAnnotation};
    use holoar_sensors::pose::PoseEstimate;

    fn pose() -> PoseEstimate {
        PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 }
    }

    fn frame(objects: Vec<ObjectAnnotation>) -> Frame {
        Frame { index: 0, objects }
    }

    fn obj(id: u64, distance: f64, size: f64) -> ObjectAnnotation {
        ObjectAnnotation { track_id: id, direction: AngularPoint::CENTER, distance, size }
    }

    fn perf_for(scheme: Scheme, objects: Vec<ObjectAnnotation>) -> FramePerf {
        let mut planner = Planner::new(HoloArConfig::for_scheme(scheme)).unwrap();
        let plan = planner.plan_frame(&frame(objects), &pose(), AngularPoint::CENTER, 0.0044);
        execute_plan(&Device::xavier(), &plan)
    }

    #[test]
    fn empty_frame_costs_only_overhead() {
        let perf = perf_for(Scheme::Baseline, vec![]);
        assert_eq!(perf.jobs, 0);
        assert_eq!(perf.planes, 0);
        assert!((perf.latency - (FRAME_OVERHEAD + 0.01375)).abs() < 1e-9);
        assert!(perf.energy > 0.0, "idle host still burns energy");
    }

    #[test]
    fn approximation_reduces_latency_and_energy() {
        let objects = vec![obj(1, 0.65, 0.21)]; // shoe-like: small & mid-distance
        let base = perf_for(Scheme::Baseline, objects.clone());
        let intra = perf_for(Scheme::IntraHolo, objects);
        assert!(intra.latency < base.latency);
        assert!(intra.energy < base.energy);
        assert!(intra.planes < base.planes);
        assert!(intra.avg_power < base.avg_power);
    }

    #[test]
    fn baseline_frame_latency_matches_anchor_plus_overhead() {
        let base = perf_for(Scheme::Baseline, vec![obj(1, 0.6, 0.2)]);
        // One full 16-plane hologram (≈ 341.7 ms) plus overheads.
        let expected = 0.3417 + FRAME_OVERHEAD + 0.01375;
        assert!(
            (base.latency - expected).abs() / expected < 0.05,
            "latency {:.1} ms vs expected {:.1} ms",
            base.latency * 1e3,
            expected * 1e3
        );
    }

    #[test]
    fn inter_holo_charges_eye_tracking() {
        // Two identical scenes; Inter-Holo pays 4.4 ms extra overhead but
        // with everything in RoF computes the same planes.
        let objects = vec![obj(1, 0.6, 0.2)];
        let base = perf_for(Scheme::Baseline, objects.clone());
        let inter = perf_for(Scheme::InterHolo, objects);
        assert_eq!(base.planes, inter.planes);
        assert!((inter.latency - base.latency - 0.0044).abs() < 1e-6);
    }

    #[test]
    fn more_objects_cost_more() {
        let one = perf_for(Scheme::Baseline, vec![obj(1, 0.6, 0.2)]);
        let two = perf_for(Scheme::Baseline, vec![obj(1, 0.6, 0.2), obj(2, 0.7, 0.25)]);
        assert!(two.latency > one.latency);
        assert_eq!(two.jobs, 2);
        assert_eq!(two.planes, 32);
    }
}
