//! Per-session quality sampling for the serving report.
//!
//! PSNR is sampled per (object, plane count) through the real optics path
//! (`holoar_core::quality::object_psnr`) and cached across sessions and
//! levels, with object geometry quantized so an object drifting a few
//! centimetres between probes reuses its sample. Values are capped at
//! [`PSNR_CAP`] so the exact-reconstruction `∞` of full-plane objects
//! averages sanely — the same convention as the bench `mean_psnr_capped`.

use std::collections::BTreeMap;

use holoar_core::planner::ComputePlan;
use holoar_core::{quality, ExecutionContext, HoloArConfig};

/// Cap applied to per-object PSNR before averaging (dB). Full-plane objects
/// reconstruct exactly (infinite PSNR); 50 dB is visually transparent.
pub const PSNR_CAP: f64 = 50.0;

/// Quantization steps per metre for cached object geometry (2 cm bins).
const GEOMETRY_BINS_PER_METER: f64 = 50.0;

/// Memoizing PSNR sampler shared across sessions and degradation levels.
#[derive(Debug, Default)]
pub struct QualitySampler {
    cache: BTreeMap<(u64, u32, u64, u64), f64>,
}

impl QualitySampler {
    /// A sampler with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean capped PSNR over the plan's rendered objects (those with planes
    /// to compute). Skipped-periphery objects contribute nothing — the
    /// metric scores what the session actually shows. A plan with no
    /// rendered objects scores the cap (nothing to get wrong).
    pub fn plan_psnr(
        &mut self,
        plan: &ComputePlan,
        config: &HoloArConfig,
        ctx: &ExecutionContext,
    ) -> f64 {
        let _span = holoar_telemetry::span_cat("serve.quality.sample", "serve");
        let mut sum = 0.0;
        let mut count = 0u32;
        for item in plan.items.iter().filter(|it| it.planes > 0) {
            let obj = &item.object;
            let key = (
                obj.track_id,
                item.planes,
                (obj.distance * GEOMETRY_BINS_PER_METER).round() as u64,
                (obj.size * GEOMETRY_BINS_PER_METER).round() as u64,
            );
            let psnr = match self.cache.get(&key) {
                Some(&cached) => cached,
                None => {
                    let fresh = quality::object_psnr(obj, item.planes, config, ctx).min(PSNR_CAP);
                    self.cache.insert(key, fresh);
                    fresh
                }
            };
            sum += psnr;
            count += 1;
        }
        if count == 0 {
            PSNR_CAP
        } else {
            sum / f64::from(count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holoar_core::sensor_input::{GazeInput, PoseInput, SensorSample};
    use holoar_core::{Planner, Scheme};
    use holoar_sensors::angles::AngularPoint;
    use holoar_sensors::objectron::{FrameGenerator, VideoCategory};
    use holoar_sensors::pose::PoseEstimate;

    #[test]
    fn full_quality_plan_scores_the_cap_and_caches() {
        let config = HoloArConfig::for_scheme(Scheme::InterIntraHolo).without_reuse();
        let frame = FrameGenerator::new(VideoCategory::Shoe, 7).next().expect("infinite");
        let gaze = frame.objects.first().map(|o| o.direction).unwrap_or(AngularPoint::CENTER);
        let sample = SensorSample {
            pose: PoseInput::Tracked(PoseEstimate {
                orientation: AngularPoint::CENTER,
                latency: 0.01375,
            }),
            gaze: GazeInput::tracked(gaze),
        };
        let plan = Planner::new(config).expect("valid config").plan_frame_with(&frame, &sample);
        let ctx = ExecutionContext::serial();
        let mut sampler = QualitySampler::new();
        let psnr = sampler.plan_psnr(&plan, &config, &ctx);
        assert!(psnr > 0.0 && psnr <= PSNR_CAP, "psnr {psnr} out of range");
        let cached = sampler.cache.len();
        assert!(cached > 0);
        // Second pass over the same plan is served from cache.
        let again = sampler.plan_psnr(&plan, &config, &ctx);
        assert_eq!(psnr, again);
        assert_eq!(sampler.cache.len(), cached);
    }

    #[test]
    fn empty_plan_scores_the_cap() {
        let ctx = ExecutionContext::serial();
        let config = HoloArConfig::for_scheme(Scheme::InterIntraHolo);
        assert_eq!(QualitySampler::new().plan_psnr(&ComputePlan::default(), &config, &ctx), PSNR_CAP);
    }
}
