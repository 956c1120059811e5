//! The per-frame planner: sensors in, compute plan out.
//!
//! This is the heart of HoloAR (Fig 6a): for every object in the frame it
//! decides, in order, (a) viewing-window culling and coverage, (b)
//! cross-frame reuse, (c) the depth-plane budget per the active scheme.
//! The resulting [`ComputePlan`] drives both the performance path (GPU
//! simulator) and the quality path (wave-optics engine), so both evaluate
//! identical decisions.

use crate::approx;
use crate::config::{HoloArConfig, Scheme};
use crate::rof::RegionOfFocus;
use crate::sensor_input::{GazeInput, PoseInput, SensorSample};
use crate::window::{window_status, ReuseTracker};
use holoar_gpusim::{calibration, HologramJob};
use holoar_sensors::angles::AngularPoint;
use holoar_sensors::objectron::{Frame, ObjectAnnotation};
use holoar_sensors::pose::PoseEstimate;

/// The planned treatment of one object in one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanItem {
    /// The object being planned.
    pub object: ObjectAnnotation,
    /// Depth planes to compute (0 when skipped or reused).
    pub planes: u32,
    /// Viewing-window coverage in `[0, 1]`.
    pub coverage: f64,
    /// Whether the object overlapped the region of focus (always `true`
    /// under schemes that don't track gaze, so they never approximate on
    /// attention).
    pub in_rof: bool,
    /// Whether a cached sub-hologram was reused instead of computing.
    pub reused: bool,
}

impl PlanItem {
    /// Whether this object requires any hologram computation this frame.
    pub fn needs_compute(&self) -> bool {
        self.planes > 0 && !self.reused && self.coverage > 0.0
    }

    /// The hologram job computing this object at the paper's profiled
    /// configuration (512², 5 GSW iterations) over its planes and viewing
    /// window coverage.
    pub fn job(&self) -> HologramJob {
        HologramJob {
            pixels: calibration::HOLOGRAM_PIXELS,
            plane_count: self.planes,
            coverage: self.coverage.clamp(f64::MIN_POSITIVE, 1.0),
            gsw_iterations: calibration::GSW_ITERATIONS,
        }
    }
}

/// A full per-frame compute plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComputePlan {
    /// Frame index the plan was built for.
    pub frame_index: u64,
    /// Per-object decisions.
    pub items: Vec<PlanItem>,
    /// Eye-tracking latency charged this frame, seconds (zero for schemes
    /// that don't use gaze).
    pub eye_track_latency: f64,
    /// Pose-estimation latency charged this frame, seconds.
    pub pose_latency: f64,
}

impl ComputePlan {
    /// Total depth planes that will actually be computed this frame —
    /// the Fig 8b metric ("average number of depth planes required").
    pub fn total_planes(&self) -> u32 {
        self.items.iter().filter(|i| i.needs_compute()).map(|i| i.planes).sum()
    }

    /// Objects requiring computation this frame.
    pub fn compute_count(&self) -> usize {
        self.items.iter().filter(|i| i.needs_compute()).count()
    }

    /// Objects served from the reuse cache.
    pub fn reused_count(&self) -> usize {
        self.items.iter().filter(|i| i.reused).count()
    }

    /// Objects skipped as outside the viewing window.
    pub fn skipped_count(&self) -> usize {
        self.items.iter().filter(|i| i.coverage <= 0.0).count()
    }
}

/// Stateful per-video planner (owns the reuse cache).
///
/// # Examples
///
/// ```
/// use holoar_core::{HoloArConfig, Planner, Scheme};
/// use holoar_sensors::angles::AngularPoint;
/// use holoar_sensors::objectron::{FrameGenerator, VideoCategory};
/// use holoar_sensors::pose::PoseEstimate;
///
/// let mut planner = Planner::new(HoloArConfig::for_scheme(Scheme::InterIntraHolo)).unwrap();
/// let frame = FrameGenerator::new(VideoCategory::Cup, 1).next().unwrap();
/// let pose = PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 };
/// let plan = planner.plan_frame(&frame, &pose, AngularPoint::CENTER, 0.0044);
/// assert_eq!(plan.items.len(), frame.objects.len());
/// ```
#[derive(Debug, Clone)]
pub struct Planner {
    config: HoloArConfig,
    reuse: ReuseTracker,
}

impl Planner {
    /// Creates a planner for a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error message.
    pub fn new(config: HoloArConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Planner { config, reuse: ReuseTracker::new() })
    }

    /// The active configuration.
    pub fn config(&self) -> &HoloArConfig {
        &self.config
    }

    /// Plans one frame.
    ///
    /// `gaze` is the eye tracker's estimated direction and
    /// `eye_track_latency` its cost; both are ignored by schemes that do not
    /// use eye tracking (their latency is not charged, matching §5.1's
    /// "one additional eye tracking task integrated into the pipeline" for
    /// Inter-Holo only).
    pub fn plan_frame(
        &mut self,
        frame: &Frame,
        pose: &PoseEstimate,
        gaze: AngularPoint,
        eye_track_latency: f64,
    ) -> ComputePlan {
        self.plan_frame_with(
            frame,
            &SensorSample {
                pose: PoseInput::Tracked(*pose),
                gaze: GazeInput::Tracked(holoar_sensors::eyetrack::GazeEstimate {
                    direction: gaze,
                    latency: eye_track_latency,
                }),
            },
        )
    }

    /// Plans one frame from a possibly-degraded sensor bundle.
    ///
    /// Sensor loss degrades performance, never quality:
    ///
    /// * **gaze lost** — every visible object is treated as attended (no
    ///   Inter-Holo approximation this frame);
    /// * **pose lost** — the viewing window is unknown, so every object is
    ///   assumed fully visible, and camera-to-object distances are unknown,
    ///   so Intra-Holo falls back to the full plane budget.
    pub fn plan_frame_with(&mut self, frame: &Frame, sensors: &SensorSample) -> ComputePlan {
        let _span = holoar_telemetry::span_cat("core.planner.plan_frame", "core");
        let config = self.config;
        let pose = sensors.pose.estimate();
        let gaze = sensors.gaze.estimate();
        let window = pose.map(|p| p.viewing_window());
        let rof = gaze.map(|g| RegionOfFocus::new(g.direction, config.rof_radius));
        let distances_known = pose.is_some();

        let mut items = Vec::with_capacity(frame.objects.len());
        for obj in &frame.objects {
            // Without a pose the window is unknown: assume full visibility.
            let coverage = match &window {
                Some(w) => window_status(w, obj).coverage,
                None => 1.0,
            };
            if coverage <= 0.0 {
                // Fig 5a: the box object outside the window is never
                // computed.
                items.push(PlanItem {
                    object: *obj,
                    planes: 0,
                    coverage: 0.0,
                    in_rof: false,
                    reused: false,
                });
                continue;
            }
            // Without gaze, nothing can be ruled unattended.
            let in_rof = !config.scheme.uses_eye_tracking()
                || rof.as_ref().is_none_or(|r| r.contains_object(obj));
            let planes = match (config.scheme, distances_known) {
                (Scheme::Baseline, _) => config.full_planes,
                (Scheme::InterHolo, _) => {
                    if in_rof {
                        config.full_planes
                    } else {
                        approx::inter_planes(&config)
                    }
                }
                // Distance-based approximation needs the pose estimate.
                (Scheme::IntraHolo, false) | (Scheme::InterIntraHolo, false) => {
                    if in_rof {
                        config.full_planes
                    } else {
                        approx::inter_planes(&config)
                    }
                }
                (Scheme::IntraHolo, true) => approx::intra_planes(obj, &config),
                (Scheme::InterIntraHolo, true) => {
                    approx::inter_intra_planes(obj, in_rof, &config)
                }
            };
            // The configuration is fixed at `new`, so with reuse off the
            // tracker is never read and keeps no records.
            let mut reused = false;
            if config.reuse_enabled {
                reused = self.reuse.can_reuse(obj, planes, coverage, frame.index);
                if !reused {
                    self.reuse.record(obj, planes, coverage, frame.index);
                }
            }
            items.push(PlanItem { object: *obj, planes, coverage, in_rof, reused });
        }
        if config.reuse_enabled {
            self.reuse.evict_stale(frame.index);
        }

        let plan = ComputePlan {
            frame_index: frame.index,
            items,
            eye_track_latency: if config.scheme.uses_eye_tracking() {
                gaze.map(|g| g.latency).unwrap_or(0.0)
            } else {
                0.0
            },
            pose_latency: pose.map(|p| p.latency).unwrap_or(0.0),
        };
        holoar_telemetry::gauge_set("core.plan.total_planes", f64::from(plan.total_planes()));
        holoar_telemetry::counter_add("core.plan.objects_computed", plan.compute_count() as u64);
        holoar_telemetry::counter_add("core.plan.objects_reused", plan.reused_count() as u64);
        holoar_telemetry::counter_add("core.plan.objects_skipped", plan.skipped_count() as u64);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holoar_sensors::angles::deg;

    fn pose() -> PoseEstimate {
        PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 }
    }

    fn frame_with(objects: Vec<ObjectAnnotation>) -> Frame {
        Frame { index: 0, objects }
    }

    fn obj(id: u64, az_deg: f64, distance: f64, size: f64) -> ObjectAnnotation {
        ObjectAnnotation {
            track_id: id,
            direction: AngularPoint::new(deg(az_deg), 0.0),
            distance,
            size,
        }
    }

    fn plan(scheme: Scheme, frame: &Frame, gaze: AngularPoint) -> ComputePlan {
        Planner::new(HoloArConfig::for_scheme(scheme))
            .unwrap()
            .plan_frame(frame, &pose(), gaze, 0.0044)
    }

    #[test]
    fn items_map_to_jobs_at_the_profiled_configuration() {
        let f = frame_with(vec![obj(1, 0.0, 0.6, 0.2)]);
        let item = plan(Scheme::Baseline, &f, AngularPoint::CENTER).items[0];
        let job = item.job();
        assert_eq!(job.plane_count, item.planes);
        assert_eq!(job.coverage, item.coverage);
        assert_eq!((job.pixels, job.gsw_iterations), (512 * 512, 5));
        // A skipped object's zero coverage stays a valid job.
        let skipped = PlanItem { coverage: 0.0, ..item }.job();
        assert_eq!(skipped.coverage, f64::MIN_POSITIVE);
        assert!(skipped.validate().is_ok());
    }

    #[test]
    fn baseline_computes_full_planes_for_visible_objects() {
        let f = frame_with(vec![obj(1, 0.0, 0.6, 0.2), obj(2, 60.0, 0.6, 0.2)]);
        let p = plan(Scheme::Baseline, &f, AngularPoint::CENTER);
        assert_eq!(p.items[0].planes, 16);
        assert_eq!(p.items[1].planes, 0, "outside the window is skipped");
        assert_eq!(p.skipped_count(), 1);
        assert_eq!(p.total_planes(), 16);
        assert_eq!(p.eye_track_latency, 0.0, "baseline pays no eye tracking");
    }

    #[test]
    fn inter_holo_approximates_outside_rof() {
        // Gaze on object 1; object 2 visible but unattended.
        let f = frame_with(vec![obj(1, 0.0, 0.6, 0.1), obj(2, 15.0, 0.6, 0.1)]);
        let p = plan(Scheme::InterHolo, &f, AngularPoint::CENTER);
        assert!(p.items[0].in_rof);
        assert_eq!(p.items[0].planes, 16);
        assert!(!p.items[1].in_rof);
        assert_eq!(p.items[1].planes, 8);
        assert!(p.eye_track_latency > 0.0);
    }

    #[test]
    fn intra_holo_ignores_gaze_but_scales_with_geometry() {
        let near_big = obj(1, 0.0, 0.4, 0.5);
        let far_small = obj(2, 10.0, 2.5, 0.1);
        let f = frame_with(vec![near_big, far_small]);
        // Gaze far away — Intra-Holo shouldn't care.
        let p = plan(Scheme::IntraHolo, &f, AngularPoint::new(deg(-20.0), 0.0));
        assert!(p.items[0].planes > p.items[1].planes);
        assert!(p.items[0].in_rof && p.items[1].in_rof, "no gaze ⇒ treated as attended");
        assert_eq!(p.eye_track_latency, 0.0);
    }

    #[test]
    fn inter_intra_is_no_more_expensive_than_either() {
        let objects =
            vec![obj(1, 0.0, 0.47, 0.16), obj(2, 12.0, 0.65, 0.21), obj(3, -8.0, 2.08, 1.54)];
        let f = frame_with(objects);
        let gaze = AngularPoint::CENTER;
        let inter = plan(Scheme::InterHolo, &f, gaze);
        let intra = plan(Scheme::IntraHolo, &f, gaze);
        let both = plan(Scheme::InterIntraHolo, &f, gaze);
        for i in 0..3 {
            assert!(
                both.items[i].planes <= inter.items[i].planes.min(intra.items[i].planes),
                "object {i}: combined {} vs inter {} / intra {}",
                both.items[i].planes,
                inter.items[i].planes,
                intra.items[i].planes
            );
        }
        assert!(both.total_planes() <= inter.total_planes().min(intra.total_planes()));
    }

    #[test]
    fn scheme_plane_totals_are_ordered() {
        // Baseline ≥ Inter ≥ Inter-Intra and Baseline ≥ Intra ≥ Inter-Intra.
        let f = frame_with(vec![obj(1, 0.0, 0.64, 0.28), obj(2, 14.0, 0.47, 0.16)]);
        let gaze = AngularPoint::CENTER;
        let base = plan(Scheme::Baseline, &f, gaze).total_planes();
        let inter = plan(Scheme::InterHolo, &f, gaze).total_planes();
        let intra = plan(Scheme::IntraHolo, &f, gaze).total_planes();
        let both = plan(Scheme::InterIntraHolo, &f, gaze).total_planes();
        assert!(base >= inter);
        assert!(inter >= both);
        assert!(base >= intra);
        assert!(intra >= both);
    }

    #[test]
    fn reuse_kicks_in_on_static_scenes() {
        let mut planner = Planner::new(HoloArConfig::for_scheme(Scheme::Baseline)).unwrap();
        let o = obj(1, 0.0, 0.6, 0.2);
        let f0 = Frame { index: 0, objects: vec![o] };
        let f1 = Frame { index: 1, objects: vec![o] }; // perfectly static
        let p0 = planner.plan_frame(&f0, &pose(), AngularPoint::CENTER, 0.0);
        assert!(p0.items[0].needs_compute());
        let p1 = planner.plan_frame(&f1, &pose(), AngularPoint::CENTER, 0.0);
        assert!(p1.items[0].reused, "static object should reuse Frame-I's hologram");
        assert_eq!(p1.total_planes(), 0);
    }

    #[test]
    fn disabling_reuse_recomputes_static_scenes() {
        let mut planner =
            Planner::new(HoloArConfig::for_scheme(Scheme::Baseline).without_reuse()).unwrap();
        let o = obj(1, 0.0, 0.6, 0.2);
        let f0 = Frame { index: 0, objects: vec![o] };
        let f1 = Frame { index: 1, objects: vec![o] };
        planner.plan_frame(&f0, &pose(), AngularPoint::CENTER, 0.0);
        let p1 = planner.plan_frame(&f1, &pose(), AngularPoint::CENTER, 0.0);
        assert!(!p1.items[0].reused, "reuse must be off");
        assert_eq!(p1.total_planes(), 16);
        // With reuse off the tracker keeps no records to reuse from.
        assert!(!planner.reuse.can_reuse(&o, 16, p1.items[0].coverage, 2));
    }

    #[test]
    fn partial_coverage_is_propagated() {
        let f = frame_with(vec![obj(1, 21.0, 0.6, 0.3)]);
        let p = plan(Scheme::Baseline, &f, AngularPoint::CENTER);
        assert!(p.items[0].coverage > 0.0 && p.items[0].coverage < 1.0);
    }

    #[test]
    fn gaze_loss_disables_attention_approximation() {
        use crate::sensor_input::{GazeInput, PoseInput, SensorSample};
        let f = frame_with(vec![obj(1, 0.0, 0.6, 0.1), obj(2, 15.0, 0.6, 0.1)]);
        let mut planner = Planner::new(HoloArConfig::for_scheme(Scheme::InterHolo)).unwrap();
        let sensors =
            SensorSample { pose: PoseInput::Tracked(pose()), gaze: GazeInput::Lost };
        let plan = planner.plan_frame_with(&f, &sensors);
        // Every visible object falls back to full quality.
        assert!(plan.items.iter().all(|i| i.planes == 16 && i.in_rof));
        assert_eq!(plan.eye_track_latency, 0.0);
    }

    #[test]
    fn pose_loss_disables_distance_approximation_and_culling() {
        use crate::sensor_input::{GazeInput, PoseInput, SensorSample};
        // One far-small object (normally heavily approximated) and one far
        // outside the window (normally skipped).
        let f = frame_with(vec![obj(1, 0.0, 2.5, 0.1), obj(2, 60.0, 0.6, 0.2)]);
        let mut planner = Planner::new(HoloArConfig::for_scheme(Scheme::IntraHolo)).unwrap();
        let sensors = SensorSample {
            pose: PoseInput::Lost,
            gaze: GazeInput::tracked(AngularPoint::CENTER),
        };
        let plan = planner.plan_frame_with(&f, &sensors);
        // No culling, no distance approximation, no pose latency.
        assert!(plan.items.iter().all(|i| i.coverage == 1.0));
        assert!(plan.items.iter().all(|i| i.planes == 16));
        assert_eq!(plan.pose_latency, 0.0);
    }

    #[test]
    fn all_sensors_lost_degenerates_to_full_quality_everywhere() {
        use crate::sensor_input::{GazeInput, PoseInput, SensorSample};
        let f = frame_with(vec![obj(1, 0.0, 0.47, 0.16), obj(2, 30.0, 2.0, 1.0)]);
        let mut planner =
            Planner::new(HoloArConfig::for_scheme(Scheme::InterIntraHolo)).unwrap();
        let lost = SensorSample { pose: PoseInput::Lost, gaze: GazeInput::Lost };
        let plan = planner.plan_frame_with(&f, &lost);
        assert!(plan.items.iter().all(|i| i.planes == 16 && i.coverage == 1.0));
        assert_eq!(plan.eye_track_latency + plan.pose_latency, 0.0);
    }

    #[test]
    fn tracked_sample_matches_legacy_entry_point() {
        use crate::sensor_input::{GazeInput, PoseInput, SensorSample};
        let f = frame_with(vec![obj(1, 0.0, 0.6, 0.2), obj(2, 14.0, 0.5, 0.15)]);
        let mut a = Planner::new(HoloArConfig::for_scheme(Scheme::InterIntraHolo)).unwrap();
        let mut b = Planner::new(HoloArConfig::for_scheme(Scheme::InterIntraHolo)).unwrap();
        let via_legacy = a.plan_frame(&f, &pose(), AngularPoint::CENTER, 0.0044);
        let tracked = SensorSample {
            pose: PoseInput::Tracked(pose()),
            gaze: GazeInput::tracked(AngularPoint::CENTER),
        };
        let via_sample = b.plan_frame_with(&f, &tracked);
        assert_eq!(via_legacy, via_sample);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = HoloArConfig { min_planes: 0, ..HoloArConfig::default() };
        assert!(Planner::new(cfg).is_err());
    }
}
