//! End-to-end evaluation over the six videos and four schemes — the engine
//! behind Fig 7 (power / latency / energy) and Fig 8b (plane counts).
//!
//! Each evaluated video couples the synthetic substrates exactly the way the
//! paper's testbed couples the real ones: Objectron-like frames, an IMU-fed
//! Kimera-like pose estimate per frame, an NVGaze-like gaze estimate whose
//! fixation target follows scene objects, and the GPU simulator executing
//! whatever the planner decides.

use crate::config::{HoloArConfig, Scheme};
use crate::executor::{execute_plan, FramePerf};
use crate::planner::Planner;
use holoar_gpusim::Device;
use holoar_sensors::angles::AngularPoint;
use holoar_sensors::eyetrack::EyeTracker;
use holoar_sensors::imu::HeadMotion;
use holoar_sensors::objectron::{Frame, FrameGenerator, VideoCategory};
use holoar_sensors::pose::PoseEstimator;
use holoar_sensors::rng::Rng;

/// Aggregated results for one (video, scheme) cell of Fig 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoResult {
    /// Video evaluated.
    pub category: VideoCategory,
    /// Scheme evaluated.
    pub scheme: Scheme,
    /// Frames evaluated.
    pub frames: u64,
    /// Mean end-to-end frame latency, seconds (Fig 7b).
    pub mean_latency: f64,
    /// Mean (time-averaged) power, watts (Fig 7a).
    pub mean_power: f64,
    /// Mean energy per frame, joules (Fig 7c).
    pub mean_energy: f64,
    /// Mean depth planes computed per frame (Fig 8b).
    pub mean_planes: f64,
    /// Fraction of object observations served from the reuse cache.
    pub reuse_fraction: f64,
}

/// Evaluates one video under one scheme for `frames` frames.
///
/// # Examples
///
/// ```
/// use holoar_core::{evaluation, Scheme};
/// use holoar_gpusim::Device;
/// use holoar_sensors::objectron::VideoCategory;
///
/// let result = evaluation::evaluate_video(
///     &Device::xavier(), VideoCategory::Cup, Scheme::InterIntraHolo, 20, 7);
/// assert!(result.mean_latency > 0.0);
/// ```
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn evaluate_video(
    device: &Device,
    category: VideoCategory,
    scheme: Scheme,
    frames: u64,
    seed: u64,
) -> VideoResult {
    assert!(frames > 0, "need at least one frame to evaluate");
    let mut planner =
        Planner::new(HoloArConfig::for_scheme(scheme)).expect("paper defaults are valid");
    evaluate_with_planner(device, &mut planner, category, frames, seed)
}

/// Evaluates with a caller-supplied planner (used by the α-sensitivity sweep
/// of Fig 10b).
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn evaluate_with_planner(
    device: &Device,
    planner: &mut Planner,
    category: VideoCategory,
    frames: u64,
    seed: u64,
) -> VideoResult {
    assert!(frames > 0, "need at least one frame to evaluate");
    let generator = FrameGenerator::new(category, seed);
    // 210 Hz IMU against 30 fps video: 7 samples per frame.
    let mut imu = HeadMotion::new(210.0, seed ^ 0xABCD);
    let mut vio = PoseEstimator::new(seed ^ 0x1234);
    let mut tracker = EyeTracker::new(seed ^ 0x77);
    let mut attention = AttentionModel::new(seed ^ 0xA77E);

    let mut total = FrameTotals::default();
    for frame in generator.take(frames as usize) {
        let mut pose = None;
        for sample in imu.samples(7) {
            pose = Some(vio.update(&sample));
        }
        let pose = pose.expect("at least one IMU sample per frame");
        let true_gaze = attention.gaze_for(&frame);
        let estimate = tracker.estimate(true_gaze);
        let plan = planner.plan_frame(&frame, &pose, estimate.direction, estimate.latency);
        let perf = execute_plan(device, &plan);
        total.add(&plan, &perf);
    }
    total.finish(category, planner.config().scheme, frames)
}

/// Fixation behaviour over scene objects: the user dwells on one object at a
/// time (preferring visually large ones), switching after an exponential
/// dwell — the object-directed version of the Fig 3b temporal locality.
#[derive(Debug, Clone)]
struct AttentionModel {
    rng: Rng,
    focused_track: Option<u64>,
    dwell_frames_left: f64,
}

impl AttentionModel {
    fn new(seed: u64) -> Self {
        AttentionModel { rng: Rng::seeded(seed), focused_track: None, dwell_frames_left: 0.0 }
    }

    fn gaze_for(&mut self, frame: &Frame) -> AngularPoint {
        self.dwell_frames_left -= 1.0;
        let focused_alive = self
            .focused_track
            .is_some_and(|id| frame.objects.iter().any(|o| o.track_id == id));
        if self.dwell_frames_left <= 0.0 || !focused_alive {
            self.focused_track = self.pick_object(frame);
            // Mean dwell ~2 s at 30 fps.
            self.dwell_frames_left = self.rng.exponential(60.0);
        }
        match self.focused_track {
            Some(id) => frame
                .objects
                .iter()
                .find(|o| o.track_id == id)
                .map(|o| o.direction)
                .unwrap_or(AngularPoint::CENTER),
            None => AngularPoint::CENTER,
        }
    }

    fn pick_object(&mut self, frame: &Frame) -> Option<u64> {
        if frame.objects.is_empty() {
            return None;
        }
        // Weight by apparent angular size: big/close objects draw attention.
        let weights: Vec<f64> =
            frame.objects.iter().map(|o| o.angular_radius().max(1e-6)).collect();
        let total: f64 = weights.iter().sum();
        let mut pick = self.rng.uniform() * total;
        for (obj, w) in frame.objects.iter().zip(&weights) {
            pick -= w;
            if pick <= 0.0 {
                return Some(obj.track_id);
            }
        }
        frame.objects.last().map(|o| o.track_id)
    }
}

#[derive(Debug, Default)]
struct FrameTotals {
    latency: f64,
    energy: f64,
    planes: u64,
    computed_objects: u64,
    reused_objects: u64,
}

impl FrameTotals {
    fn add(&mut self, plan: &crate::planner::ComputePlan, perf: &FramePerf) {
        self.latency += perf.latency;
        self.energy += perf.energy;
        self.planes += perf.planes as u64;
        self.computed_objects += perf.jobs as u64;
        self.reused_objects += plan.reused_count() as u64;
    }

    fn finish(self, category: VideoCategory, scheme: Scheme, frames: u64) -> VideoResult {
        let n = frames as f64;
        let observations = self.computed_objects + self.reused_objects;
        VideoResult {
            category,
            scheme,
            frames,
            mean_latency: self.latency / n,
            mean_power: if self.latency > 0.0 { self.energy / self.latency } else { 0.0 },
            mean_energy: self.energy / n,
            mean_planes: self.planes as f64 / n,
            reuse_fraction: if observations > 0 {
                self.reused_objects as f64 / observations as f64
            } else {
                0.0
            },
        }
    }
}

/// The full Fig 7 / Fig 8b matrix: every video × every scheme.
#[derive(Debug, Clone)]
pub struct EvaluationMatrix {
    /// One cell per (video, scheme) pair.
    pub cells: Vec<VideoResult>,
}

impl EvaluationMatrix {
    /// The cell for one (video, scheme) pair.
    pub fn cell(&self, category: VideoCategory, scheme: Scheme) -> Option<&VideoResult> {
        self.cells.iter().find(|c| c.category == category && c.scheme == scheme)
    }

    /// Fleet-average of a metric across videos for one scheme.
    pub fn fleet_mean<F: Fn(&VideoResult) -> f64>(&self, scheme: Scheme, metric: F) -> f64 {
        let values: Vec<f64> =
            self.cells.iter().filter(|c| c.scheme == scheme).map(metric).collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Average speedup of `scheme` over the baseline (ratio of mean
    /// latencies, averaged over videos) — the Fig 7b headline numbers.
    pub fn fleet_speedup(&self, scheme: Scheme) -> f64 {
        let ratios: Vec<f64> = VideoCategory::ALL
            .iter()
            .filter_map(|&v| {
                let base = self.cell(v, Scheme::Baseline)?;
                let other = self.cell(v, scheme)?;
                Some(base.mean_latency / other.mean_latency)
            })
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// Fleet power reduction of `scheme` versus baseline, as a fraction
    /// (Fig 7a headline numbers).
    pub fn fleet_power_reduction(&self, scheme: Scheme) -> f64 {
        let base = self.fleet_mean(Scheme::Baseline, |c| c.mean_power);
        let other = self.fleet_mean(scheme, |c| c.mean_power);
        1.0 - other / base
    }

    /// Fleet energy savings of `scheme` versus baseline, as a fraction
    /// (Fig 7c headline numbers).
    pub fn fleet_energy_savings(&self, scheme: Scheme) -> f64 {
        let base = self.fleet_mean(Scheme::Baseline, |c| c.mean_energy);
        let other = self.fleet_mean(scheme, |c| c.mean_energy);
        1.0 - other / base
    }
}

/// Runs the full matrix: 6 videos × 4 schemes, `frames` frames each.
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn evaluate_matrix(device: &Device, frames: u64, seed: u64) -> EvaluationMatrix {
    let mut cells = Vec::with_capacity(24);
    for &category in &VideoCategory::ALL {
        for &scheme in &Scheme::ALL {
            cells.push(evaluate_video(device, category, scheme, frames, seed));
        }
    }
    EvaluationMatrix { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix() -> EvaluationMatrix {
        evaluate_matrix(&Device::xavier(), 40, 3)
    }

    #[test]
    fn matrix_has_all_cells() {
        let m = small_matrix();
        assert_eq!(m.cells.len(), 24);
        for &v in &VideoCategory::ALL {
            for &s in &Scheme::ALL {
                assert!(m.cell(v, s).is_some());
            }
        }
    }

    #[test]
    fn schemes_are_ordered_in_latency_and_energy() {
        let m = small_matrix();
        let lat = |s| m.fleet_mean(s, |c| c.mean_latency);
        assert!(lat(Scheme::Baseline) > lat(Scheme::InterHolo));
        assert!(lat(Scheme::InterHolo) > lat(Scheme::IntraHolo));
        assert!(lat(Scheme::IntraHolo) >= lat(Scheme::InterIntraHolo) * 0.95);
        let en = |s| m.fleet_mean(s, |c| c.mean_energy);
        assert!(en(Scheme::Baseline) > en(Scheme::InterHolo));
        assert!(en(Scheme::InterHolo) > en(Scheme::InterIntraHolo));
    }

    #[test]
    fn plane_counts_shrink_across_schemes() {
        let m = small_matrix();
        let planes = |s| m.fleet_mean(s, |c| c.mean_planes);
        let base = planes(Scheme::Baseline);
        let inter = planes(Scheme::InterHolo);
        let intra = planes(Scheme::IntraHolo);
        let both = planes(Scheme::InterIntraHolo);
        assert!(base > inter, "baseline {base} vs inter {inter}");
        assert!(inter > intra, "inter {inter} vs intra {intra}");
        assert!(intra >= both, "intra {intra} vs both {both}");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (d1, d2) = (Device::xavier(), Device::xavier());
        let a = evaluate_video(&d1, VideoCategory::Shoe, Scheme::InterIntraHolo, 25, 9);
        let b = evaluate_video(&d2, VideoCategory::Shoe, Scheme::InterIntraHolo, 25, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn speedup_of_baseline_is_unity() {
        let m = small_matrix();
        assert!((m.fleet_speedup(Scheme::Baseline) - 1.0).abs() < 1e-9);
        assert!(m.fleet_speedup(Scheme::InterIntraHolo) > 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        evaluate_video(&Device::xavier(), VideoCategory::Cup, Scheme::Baseline, 0, 1);
    }
}
