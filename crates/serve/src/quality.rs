//! Per-session quality sampling for the serving report.
//!
//! PSNR is sampled per (object, plane count) through the real optics path
//! (`holoar_core::quality`) and memoized in one [`PsnrMemo`] per
//! `run_serve` call. The memo's key is exactly the optical inputs a score
//! reads: the virtual object (`track_id % 6`), the full plane budget, the
//! object's quantized optical distance and extent, and the plane count.
//! Sessions and degradation levels that present the same geometry
//! therefore share one full-budget reference and one score, and a hit
//! always returns the value a fresh computation would. Values are capped
//! at [`PSNR_CAP`] so the exact-reconstruction `∞` of full-plane objects
//! averages sanely — the same convention as the bench `mean_psnr_capped`.

use holoar_core::planner::ComputePlan;
use holoar_core::quality::PsnrMemo;
use holoar_core::{ExecutionContext, HoloArConfig};

/// Cap applied to per-object PSNR before averaging (dB). Full-plane objects
/// reconstruct exactly (infinite PSNR); 50 dB is visually transparent.
pub const PSNR_CAP: f64 = 50.0;

/// Memoizing PSNR sampler shared across sessions and degradation levels.
#[derive(Debug, Default)]
pub struct QualitySampler {
    memo: PsnrMemo,
}

impl QualitySampler {
    /// A sampler with an empty memo.
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
            let psnr = self.memo.object_psnr(&item.object, item.planes, config, ctx).min(PSNR_CAP);
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
    use holoar_core::{PlanItem, Planner, Scheme};
    use holoar_sensors::angles::AngularPoint;
    use holoar_sensors::objectron::{FrameGenerator, ObjectAnnotation, VideoCategory};
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
        let (references, scores) = sampler.memo.counts();
        assert!(references > 0 && scores > 0);
        // Second pass over the same plan is served from the memo.
        let again = sampler.plan_psnr(&plan, &config, &ctx);
        assert_eq!(psnr, again);
        assert_eq!(sampler.memo.counts(), (references, scores));
    }

    #[test]
    fn track_ids_with_one_virtual_object_share_a_score() {
        // Track ids 0 and 6 both map to the same virtual object, so two
        // sessions showing them at the same geometry share one reference
        // and one score.
        let config = HoloArConfig::for_scheme(Scheme::InterIntraHolo);
        let ctx = ExecutionContext::serial();
        let plan_for = |track_id| ComputePlan {
            items: vec![PlanItem {
                object: ObjectAnnotation {
                    track_id,
                    direction: AngularPoint::CENTER,
                    distance: 0.9,
                    size: 0.3,
                },
                planes: 4,
                coverage: 1.0,
                in_rof: true,
                reused: false,
            }],
            ..ComputePlan::default()
        };
        let mut sampler = QualitySampler::new();
        let first = sampler.plan_psnr(&plan_for(0), &config, &ctx);
        let second = sampler.plan_psnr(&plan_for(6), &config, &ctx);
        assert!(first > 0.0 && first < PSNR_CAP, "psnr {first} out of range");
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!(sampler.memo.counts(), (1, 1));
    }

    #[test]
    fn empty_plan_scores_the_cap() {
        let ctx = ExecutionContext::serial();
        let config = HoloArConfig::for_scheme(Scheme::InterIntraHolo);
        assert_eq!(QualitySampler::new().plan_psnr(&ComputePlan::default(), &config, &ctx), PSNR_CAP);
    }
}
