//! The quality path: real wave-optics reconstruction and PSNR against the
//! unapproximated baseline (§5.4, Fig 10).
//!
//! For sampled frames of each video, every visible object is mapped to one
//! of the six OpenHolo-substitute virtual objects, its depthmap hologram is
//! computed at both the full 16-plane budget and the plan's approximated
//! budget, both are numerically reconstructed at the object's depth, and the
//! PSNR between the two reconstructions is recorded.
//!
//! Scene distances (0.4–2.5 m) are mapped onto a table-top optical bench
//! scale (`OPTICAL_SCALE`) so the 8 µm-pitch aperture stays within the
//! angular-spectrum propagation band — the paper's OpenHolo reconstructions
//! are bench-scale for the same reason. Relative quality between plane
//! budgets, which is what Fig 10 reports, is preserved.
//!
//! A score reads only the virtual object (`track_id % 6`), the full plane
//! budget, the object's quantized optical distance and extent, and the
//! approximated budget. [`PsnrMemo`] keys its entries by exactly those
//! inputs, so a hit returns the value a fresh computation would. It keeps
//! two maps: the normalized, speckle-averaged full-budget reference of each
//! geometry (built once, then shared by every plane count scored against
//! it) and the scores themselves. [`object_psnr`] is a memo of one call;
//! [`video_quality`] and the serving layer's sampler keep one memo for a
//! whole study or serving run.
//!
//! The all-in-focus composite reconstructs each depth plane at eight focal
//! distances but reads focal slice `s` only at the pixels whose depth rounds
//! to `s` (the middle slice also fills every dark pixel). Each slice is
//! therefore inverted only over the column span of those pixels
//! ([`Propagator::propagate_batch_window`]); every pixel that is read keeps
//! the bits of the full inverse.

use crate::config::HoloArConfig;
use crate::planner::Planner;
use holoar_fft::ExecutionContext;
use holoar_metrics::{psnr, Image};
use holoar_optics::{DepthMap, OpticalConfig, PlaneStack, Propagator, VirtualObject};
use std::collections::HashMap;
use std::ops::Range;
use holoar_sensors::angles::AngularPoint;
use holoar_sensors::eyetrack::EyeTracker;
use holoar_sensors::objectron::{FrameGenerator, ObjectAnnotation, VideoCategory};
use holoar_sensors::pose::PoseEstimate;

/// Metric scene distance → optical bench distance.
pub const OPTICAL_SCALE: f64 = 0.01;

/// Rendering resolution for quality studies (square).
pub const QUALITY_RESOLUTION: usize = 40;

/// Focal distances per all-in-focus composite.
const FOCAL_SLICES: usize = 8;

/// PSNR outcome for a single object observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectQuality {
    /// Object evaluated.
    pub object: ObjectAnnotation,
    /// Plane budget the plan assigned.
    pub planes: u32,
    /// PSNR of the approximated reconstruction versus the 16-plane
    /// baseline, dB (infinite when budgets coincide).
    pub psnr_db: f64,
}

/// Aggregated quality for one (video, config) pair.
#[derive(Debug, Clone)]
pub struct VideoQuality {
    /// Video evaluated.
    pub category: VideoCategory,
    /// Per-object results.
    pub objects: Vec<ObjectQuality>,
}

impl VideoQuality {
    /// Mean finite PSNR across objects; `None` when every object was
    /// computed at the full budget (infinite PSNR, no quality loss).
    pub fn mean_psnr(&self) -> Option<f64> {
        let finite: Vec<f64> =
            self.objects.iter().map(|o| o.psnr_db).filter(|p| p.is_finite()).collect();
        if finite.is_empty() {
            None
        } else {
            Some(finite.iter().sum::<f64>() / finite.len() as f64)
        }
    }

    /// Mean PSNR counting full-budget objects at a ceiling (the way a
    /// finite-bit-depth display caps measurable PSNR). The paper's Fig 10a
    /// averages sit in the 30s; we cap at 50 dB.
    pub fn mean_psnr_capped(&self) -> Option<f64> {
        if self.objects.is_empty() {
            return None;
        }
        let sum: f64 = self.objects.iter().map(|o| o.psnr_db.min(50.0)).sum();
        Some(sum / self.objects.len() as f64)
    }
}

/// The virtual hologram assigned to an object track (the paper maps real
/// objects to OpenHolo holograms "randomly" — we map deterministically by
/// track id, which it notes has no impact on results).
pub fn virtual_object_for(track_id: u64) -> VirtualObject {
    VirtualObject::ALL[(track_id % 6) as usize]
}

/// Computes the PSNR of an approximated hologram of `obj` against its
/// 16-plane baseline.
///
/// Returns infinite PSNR when `planes` equals the full budget.
/// Reconstruction propagations fan out over the context's worker pool;
/// results are bit-identical for every worker count. Callers that score
/// many objects keep a [`PsnrMemo`] instead, which returns the same value.
///
/// # Panics
///
/// Panics if `planes == 0`.
pub fn object_psnr(
    obj: &ObjectAnnotation,
    planes: u32,
    config: &HoloArConfig,
    ctx: &ExecutionContext,
) -> f64 {
    PsnrMemo::new().object_psnr(obj, planes, config, ctx)
}

/// The exact inputs a score's reference reads: the virtual object, the
/// full plane budget and the bits of the quantized optical distance and
/// extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReferenceKey {
    object: u64,
    full_planes: u32,
    z_bits: u64,
    extent_bits: u64,
}

/// Derives `obj`'s reference key. Distances are quantized to 0.5 mm so
/// transfer functions and scores repeat across similar observations (pure
/// evaluation speedup; well below the depth resolution anything
/// downstream uses).
fn reference_key(obj: &ObjectAnnotation, config: &HoloArConfig) -> ReferenceKey {
    let z_center = quantize_mm(obj.distance * OPTICAL_SCALE);
    let extent = quantize_mm((obj.size * OPTICAL_SCALE).min(z_center * 0.8));
    ReferenceKey {
        object: obj.track_id % 6,
        full_planes: config.full_planes,
        z_bits: z_center.to_bits(),
        extent_bits: extent.to_bits(),
    }
}

/// One geometry's rendered depthmap and its full-budget reference image.
#[derive(Debug)]
struct Reference {
    depthmap: DepthMap,
    z_center: f64,
    /// Peak-normalized, speckle-averaged all-in-focus composite of the
    /// full-budget stack; `None` when the reconstruction was not finite.
    image: Option<Image>,
}

impl Reference {
    fn build(key: ReferenceKey, prop: &mut Propagator) -> Self {
        let n = QUALITY_RESOLUTION;
        let z_center = f64::from_bits(key.z_bits);
        let extent = f64::from_bits(key.extent_bits);
        let depthmap = virtual_object_for(key.object).render(n, n, z_center, extent);
        let image = composite_image(&depthmap, key.full_planes, z_center, prop);
        Reference { depthmap, z_center, image }
    }

    /// PSNR of the `planes`-plane composite against this reference.
    fn score(&self, planes: u32, prop: &mut Propagator) -> f64 {
        // Both buffers are n*n by construction, so the only way a build can
        // fail is a reconstruction that produced non-finite luminance. That
        // carries no usable quality signal: report 0 dB (worst) instead of
        // aborting — this runs on the serving path, which must not panic.
        let Some(reference) = &self.image else {
            return 0.0;
        };
        match composite_image(&self.depthmap, planes, self.z_center, prop) {
            Some(test) => psnr(reference, &test).unwrap_or(0.0),
            None => 0.0,
        }
    }
}

/// Memoized [`object_psnr`]: full-budget references and scores, each keyed
/// by exactly the optical inputs it reads (see the [module docs](self)).
/// A score is a function of its key alone, so it has the same bits whether
/// it is computed or looked up, in any call order and at any worker count.
#[derive(Debug, Default)]
pub struct PsnrMemo {
    references: HashMap<ReferenceKey, Reference>,
    scores: HashMap<(ReferenceKey, u32), f64>,
}

impl PsnrMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`object_psnr`], computing only what the memo does not hold yet.
    /// Each computed score records one `core.quality.object_psnr` span,
    /// which also covers building its reference on first use.
    ///
    /// # Panics
    ///
    /// Panics if `planes == 0`.
    pub fn object_psnr(
        &mut self,
        obj: &ObjectAnnotation,
        planes: u32,
        config: &HoloArConfig,
        ctx: &ExecutionContext,
    ) -> f64 {
        assert!(planes > 0, "cannot evaluate a skipped object");
        if planes >= config.full_planes {
            return f64::INFINITY;
        }
        let key = reference_key(obj, config);
        if let Some(&psnr_db) = self.scores.get(&(key, planes)) {
            return psnr_db;
        }
        let _span = holoar_telemetry::span_cat("core.quality.object_psnr", "core");
        let mut prop = Propagator::with_context(ctx);
        let reference =
            self.references.entry(key).or_insert_with(|| Reference::build(key, &mut prop));
        let psnr_db = reference.score(planes, &mut prop);
        self.scores.insert((key, planes), psnr_db);
        psnr_db
    }

    /// How many full-budget references and scores the memo holds.
    // holoar-lint: allow(unreached, reason = "test seam: quality::tests::one_reference_serves_every_plane_count and memoized_scores_match_the_full_inverse_oracle, and serve's quality::tests::{full_quality_plan_scores_the_cap_and_caches, track_ids_with_one_virtual_object_share_a_score}, count what was computed through it")
    pub fn counts(&self) -> (usize, usize) {
        (self.references.len(), self.scores.len())
    }
}

/// The peak-normalized, speckle-averaged all-in-focus composite of
/// `depthmap` sliced into `planes` planes; `None` when the reconstruction
/// is not finite.
fn composite_image(
    depthmap: &DepthMap,
    planes: u32,
    z_center: f64,
    prop: &mut Propagator,
) -> Option<Image> {
    let n = QUALITY_RESOLUTION;
    // A viewer accommodates to the content: compare *all-in-focus*
    // composites built from incoherent focal stacks (see
    // `holoar_optics::reconstruct::incoherent_focal_stack`), where each
    // pixel is read from the reconstruction focused at its true depth.
    let stack = depthmap.slice(planes as usize, OpticalConfig::default());
    let img = all_in_focus(&stack, depthmap, z_center, prop);
    // Coherent reconstructions carry speckle; displays and the eye integrate
    // over it, so the image is speckle-averaged with a small box filter
    // before comparison (as PSNR-on-reconstruction pipelines conventionally
    // do).
    Image::new(n, n, box_blur(&img, n, n, 1)).ok().map(|image| image.normalized())
}

/// Mean squared error (on peak-normalized, speckle-averaged all-in-focus
/// composites) of an approximated hologram versus its full-budget baseline.
/// Zero when the budget is already full.
///
/// # Panics
///
/// Panics if `planes == 0`.
pub fn object_mse(
    obj: &ObjectAnnotation,
    planes: u32,
    config: &HoloArConfig,
    ctx: &ExecutionContext,
) -> f64 {
    assert!(planes > 0, "cannot evaluate a skipped object");
    if planes >= config.full_planes {
        return 0.0;
    }
    // PSNR was computed against a peak-1 reference, so invert it exactly.
    let psnr_db = object_psnr(obj, planes, config, ctx);
    // holoar-lint: allow(float-determinism, reason = "inverts a dB scalar for planner scoring; the value never enters a synthesized field, so cross-platform ULP drift cannot desynchronize holograms")
    10f64.powf(-psnr_db / 10.0)
}

/// Frame-level quality: pools every planned object's reconstruction error
/// (pixel-count-weighted MSE across objects, reused holograms included at
/// their cached budget) into a single frame PSNR. `None` when the frame
/// displays nothing.
///
/// This is the closest analog of the paper's per-video PSNR: a frame's
/// displayed quality is the aggregate of its objects' qualities.
pub fn frame_psnr(
    items: &[crate::planner::PlanItem],
    config: &HoloArConfig,
    ctx: &ExecutionContext,
) -> Option<f64> {
    let mut weighted_mse = 0.0;
    let mut weight = 0.0;
    for item in items {
        if item.planes == 0 || item.coverage <= 0.0 {
            continue; // not displayed as a hologram this frame
        }
        let pixels = QUALITY_RESOLUTION as f64 * QUALITY_RESOLUTION as f64 * item.coverage;
        weighted_mse += object_mse(&item.object, item.planes, config, ctx) * pixels;
        weight += pixels;
    }
    if weight == 0.0 {
        return None;
    }
    let mse = weighted_mse / weight;
    Some(if mse == 0.0 { f64::INFINITY } else { 10.0 * (1.0 / mse).log10() })
}

/// Quantizes an optical distance to a 0.5 mm grid (flooring at 0.5 mm).
fn quantize_mm(z: f64) -> f64 {
    ((z * 2000.0).round() / 2000.0).max(0.0005)
}

/// The focal distances of an all-in-focus composite, evenly spaced over the
/// object's depth range, and the focal slice each pixel is read from: the
/// one focused nearest its depth, or the middle slice for a dark pixel.
fn focal_plan(depthmap: &DepthMap, z_center: f64) -> (Vec<f64>, Vec<usize>) {
    let (near, far) = depthmap.depth_range().unwrap_or((z_center, z_center));
    let zs = (0..FOCAL_SLICES)
        .map(|i| {
            if FOCAL_SLICES == 1 || far == near {
                (near + far) / 2.0
            } else {
                near + (far - near) * i as f64 / (FOCAL_SLICES - 1) as f64
            }
        })
        .collect();
    let span = (far - near).max(f64::MIN_POSITIVE);
    let picks = depthmap
        .depth()
        .iter()
        .zip(depthmap.amplitude())
        .map(|(&d, &a)| {
            if a > 0.0 {
                (((d - near) / span).clamp(0.0, 1.0) * (FOCAL_SLICES - 1) as f64).round()
                    as usize
            } else {
                FOCAL_SLICES / 2
            }
        })
        .collect();
    (zs, picks)
}

/// Builds the all-in-focus composite: the plane stack is reconstructed
/// (incoherently) at a small set of focal depths covering the object, and
/// each pixel is taken from the reconstruction focused nearest its true
/// depth.
///
/// Each focal slice is inverted and accumulated only over the column span
/// of the pixels read from it (an empty span runs no inverse). Inside the
/// span every sample has the bits of the full inverse and planes
/// accumulate in stack order, so every pixel read matches the
/// `incoherent_focal_stack` composite bit for bit.
fn all_in_focus(
    stack: &PlaneStack,
    depthmap: &DepthMap,
    z_center: f64,
    prop: &mut Propagator,
) -> Vec<f64> {
    let (zs, picks) = focal_plan(depthmap, z_center);
    let cols = depthmap.cols();
    let mut bounds = [(cols, 0); FOCAL_SLICES];
    for (idx, &slice) in picks.iter().enumerate() {
        let (first, end) = &mut bounds[slice];
        *first = (*first).min(idx % cols);
        *end = (*end).max(idx % cols + 1);
    }
    let spans: Vec<Range<usize>> =
        bounds.iter().map(|&(first, end)| if first < end { first..end } else { 0..0 }).collect();
    let mut images = vec![vec![0.0; picks.len()]; FOCAL_SLICES];
    for plane in stack.iter().filter(|plane| plane.lit_pixels > 0) {
        let shifted: Vec<f64> = zs.iter().map(|&z| z - plane.z).collect();
        let reconstructions =
            prop.propagate_batch_window(&plane.field, &shifted, |i| spans[i].clone());
        for ((image, (_, u)), span) in images.iter_mut().zip(&reconstructions).zip(&spans) {
            for (acc, row) in image.chunks_exact_mut(cols).zip(u.samples().chunks_exact(cols)) {
                for (acc, s) in acc[span.clone()].iter_mut().zip(&row[span.clone()]) {
                    *acc += s.norm_sqr();
                }
            }
        }
    }
    picks.iter().enumerate().map(|(idx, &slice)| images[slice][idx]).collect()
}

/// Box blur with a `(2·radius+1)²` kernel, clamped at the borders.
fn box_blur(img: &[f64], rows: usize, cols: usize, radius: usize) -> Vec<f64> {
    let mut out = vec![0.0; img.len()];
    let r = radius as isize;
    for row in 0..rows as isize {
        for col in 0..cols as isize {
            let mut sum = 0.0;
            let mut count = 0.0;
            for dr in -r..=r {
                for dc in -r..=r {
                    let (nr, nc) = (row + dr, col + dc);
                    if nr >= 0 && nr < rows as isize && nc >= 0 && nc < cols as isize {
                        sum += img[nr as usize * cols + nc as usize];
                        count += 1.0;
                    }
                }
            }
            out[row as usize * cols + col as usize] = sum / count;
        }
    }
    out
}

/// Runs the quality study for one video under one configuration: plans
/// `frames` sampled frames and evaluates every computed object's PSNR.
///
/// The frame walk, planning and PSNR memo stay serial (only each object
/// evaluation's plane propagations fan out over the context's worker pool),
/// so results are bit-identical for every worker count.
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn video_quality(
    category: VideoCategory,
    config: HoloArConfig,
    frames: u64,
    seed: u64,
    ctx: &ExecutionContext,
) -> VideoQuality {
    assert!(frames > 0, "need at least one frame");
    let mut planner = Planner::new(config).expect("configuration must be valid");
    let mut tracker = EyeTracker::new(seed ^ 0x5EED);
    let mut objects = Vec::new();
    // Identical observations, and every plane budget of one geometry, share
    // the memo's references and scores.
    let mut memo = PsnrMemo::new();
    // Sample sparse frames (every 10th) so distinct fixations are covered.
    let generator = FrameGenerator::new(category, seed).step_by(10).take(frames as usize);
    for frame in generator {
        let pose = PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 };
        // Gaze at the first object (a fixated user), as the attention model
        // in the performance path would typically settle.
        let true_gaze =
            frame.objects.first().map(|o| o.direction).unwrap_or(AngularPoint::CENTER);
        let estimate = tracker.estimate(true_gaze);
        let plan = planner.plan_frame(&frame, &pose, estimate.direction, estimate.latency);
        for item in plan.items.iter().filter(|i| i.needs_compute()) {
            let psnr_db = memo.object_psnr(&item.object, item.planes, &config, ctx);
            objects.push(ObjectQuality { object: item.object, planes: item.planes, psnr_db });
        }
    }
    VideoQuality { category, objects }
}

/// One point of the Fig 10b trade-off curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// The α evaluated.
    pub alpha: f64,
    /// Fleet mean capped PSNR, dB.
    pub mean_psnr: f64,
    /// Fleet mean planes per computed object (proxy for energy: fewer
    /// planes ⇒ proportionally less hologram energy).
    pub mean_planes: f64,
}

/// One of Fig 10b's "tuned approximation" settings: a joint tuning of
/// Algorithm 2's α and Algorithm 3's β (via a scale on the calibrated
/// `θ_ref`; larger means more aggressive Intra-Holo).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Inter-Holo factor α.
    pub alpha: f64,
    /// Multiplier on `θ_ref` (1.0 = the calibrated default).
    pub theta_scale: f64,
}

impl DesignPoint {
    /// The five design points of the Fig 10b study, least to most
    /// aggressive.
    pub fn fig10b_points() -> [DesignPoint; 5] {
        [
            DesignPoint { alpha: 0.75, theta_scale: 0.75 },
            DesignPoint { alpha: 0.5, theta_scale: 1.0 },
            DesignPoint { alpha: 0.5, theta_scale: 1.5 },
            DesignPoint { alpha: 0.25, theta_scale: 2.0 },
            DesignPoint { alpha: 0.125, theta_scale: 3.0 },
        ]
    }

    /// The configuration this design point induces.
    ///
    /// # Panics
    ///
    /// Panics if `theta_scale` is not positive or α is outside `(0, 1]`.
    pub fn config(&self) -> HoloArConfig {
        assert!(self.theta_scale > 0.0, "theta scale must be positive");
        let mut config = HoloArConfig::default().with_alpha(self.alpha);
        config.intra.theta_ref *= self.theta_scale;
        config
    }
}

/// Sweeps the joint (α, β) design points of Fig 10b, reporting quality
/// against plane budget — the energy-vs-quality trade-off.
///
/// # Panics
///
/// Panics if `points` is empty or `frames == 0`.
pub fn design_sweep(
    points: &[DesignPoint],
    frames: u64,
    seed: u64,
    ctx: &ExecutionContext,
) -> Vec<TradeoffPoint> {
    assert!(!points.is_empty(), "sweep needs at least one design point");
    points
        .iter()
        .map(|point| {
            let (mean_psnr, mean_planes) = sweep_cell(point.config(), frames, seed, ctx);
            TradeoffPoint { alpha: point.alpha, mean_psnr, mean_planes }
        })
        .collect()
}

/// Sweeps α alone for the Inter-Intra-Holo scheme (the Algorithm 2 knob of
/// the Fig 10b study).
///
/// # Panics
///
/// Panics if `alphas` is empty or `frames == 0`.
pub fn alpha_sweep(
    alphas: &[f64],
    frames: u64,
    seed: u64,
    ctx: &ExecutionContext,
) -> Vec<TradeoffPoint> {
    assert!(!alphas.is_empty(), "sweep needs at least one alpha");
    alphas
        .iter()
        .map(|&alpha| {
            let config = HoloArConfig::default().with_alpha(alpha);
            let (mean_psnr, mean_planes) = sweep_cell(config, frames, seed, ctx);
            TradeoffPoint { alpha, mean_psnr, mean_planes }
        })
        .collect()
}

/// Fleet mean (capped PSNR, planes per object) for one configuration.
fn sweep_cell(config: HoloArConfig, frames: u64, seed: u64, ctx: &ExecutionContext) -> (f64, f64) {
    let mut psnr_sum = 0.0;
    let mut psnr_count = 0usize;
    let mut plane_sum = 0u64;
    let mut object_count = 0u64;
    for &category in &VideoCategory::ALL {
        let vq = video_quality(category, config, frames, seed, ctx);
        if let Some(p) = vq.mean_psnr_capped() {
            psnr_sum += p;
            psnr_count += 1;
        }
        for o in &vq.objects {
            plane_sum += o.planes as u64;
            object_count += 1;
        }
    }
    (
        if psnr_count > 0 { psnr_sum / psnr_count as f64 } else { 0.0 },
        if object_count > 0 { plane_sum as f64 / object_count as f64 } else { 0.0 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn ctx() -> ExecutionContext {
        ExecutionContext::serial()
    }

    fn obj(track_id: u64, distance: f64, size: f64) -> ObjectAnnotation {
        ObjectAnnotation { track_id, direction: AngularPoint::CENTER, distance, size }
    }

    /// The composite before windowing: the full incoherent focal stack, then
    /// the per-pixel slice pick.
    fn all_in_focus_oracle(
        stack: &PlaneStack,
        depthmap: &DepthMap,
        z_center: f64,
        prop: &mut Propagator,
    ) -> Vec<f64> {
        let (near, far) = depthmap.depth_range().unwrap_or((z_center, z_center));
        let zs: Vec<f64> = (0..FOCAL_SLICES)
            .map(|i| {
                if FOCAL_SLICES == 1 || far == near {
                    (near + far) / 2.0
                } else {
                    near + (far - near) * i as f64 / (FOCAL_SLICES - 1) as f64
                }
            })
            .collect();
        let images = holoar_optics::reconstruct::incoherent_focal_stack(stack, &zs, prop);
        let span = (far - near).max(f64::MIN_POSITIVE);
        depthmap
            .depth()
            .iter()
            .zip(depthmap.amplitude())
            .enumerate()
            .map(|(idx, (&d, &a))| {
                let slice = if a > 0.0 {
                    (((d - near) / span).clamp(0.0, 1.0) * (FOCAL_SLICES - 1) as f64).round()
                        as usize
                } else {
                    FOCAL_SLICES / 2
                };
                images[slice][idx]
            })
            .collect()
    }

    /// `object_psnr` without the memo or the windowed slices: both
    /// composites rebuilt through [`all_in_focus_oracle`].
    fn object_psnr_oracle(
        obj: &ObjectAnnotation,
        planes: u32,
        config: &HoloArConfig,
        ctx: &ExecutionContext,
    ) -> f64 {
        let optics = OpticalConfig::default();
        let n = QUALITY_RESOLUTION;
        let z_center = quantize_mm(obj.distance * OPTICAL_SCALE);
        let depth_extent = quantize_mm((obj.size * OPTICAL_SCALE).min(z_center * 0.8));
        let depthmap = virtual_object_for(obj.track_id).render(n, n, z_center, depth_extent);
        let base_stack = depthmap.slice(config.full_planes as usize, optics);
        let approx_stack = depthmap.slice(planes as usize, optics);
        let mut prop = Propagator::with_context(ctx);
        let img_base = all_in_focus_oracle(&base_stack, &depthmap, z_center, &mut prop);
        let img_approx = all_in_focus_oracle(&approx_stack, &depthmap, z_center, &mut prop);
        let reference = Image::new(n, n, box_blur(&img_base, n, n, 1)).unwrap();
        let test = Image::new(n, n, box_blur(&img_approx, n, n, 1)).unwrap();
        psnr(&reference.normalized(), &test.normalized()).unwrap()
    }

    #[test]
    fn memoized_scores_match_the_full_inverse_oracle() {
        let cfg = HoloArConfig::default();
        // Near (extent capped at 0.8·z), mid and far geometries.
        let geometries = [(0.3, 0.4), (1.1, 0.3), (2.5, 0.6)];
        let plane_counts = [1u32, 2, 3, 5, 8, 15];
        let mut oracle = Vec::new();
        for track_id in 0..6u64 {
            for &(distance, size) in &geometries {
                for &planes in &plane_counts {
                    let o = obj(track_id, distance, size);
                    oracle.push((o, planes, object_psnr_oracle(&o, planes, &cfg, &ctx())));
                }
            }
        }
        for workers in [1usize, 2, 7] {
            let par_ctx = ExecutionContext::with_workers(workers);
            let mut memo = PsnrMemo::new();
            for (o, planes, want) in &oracle {
                let got = memo.object_psnr(o, *planes, &cfg, &par_ctx);
                assert!(want.is_finite(), "{o:?} at {planes} planes: {want}");
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{o:?} at {planes} planes, {workers} workers: {got} vs {want}"
                );
            }
            assert_eq!(memo.counts().0, 6 * geometries.len());
        }
    }

    #[test]
    fn one_reference_serves_every_plane_count() {
        let cfg = HoloArConfig::default();
        let o = obj(2, 0.8, 0.3);
        let mut memo = PsnrMemo::new();
        let first: Vec<f64> =
            (1..=15).map(|planes| memo.object_psnr(&o, planes, &cfg, &ctx())).collect();
        assert_eq!(memo.counts(), (1, 15));
        // The full budget is scored without a reference or a memo entry.
        assert!(memo.object_psnr(&o, 16, &cfg, &ctx()).is_infinite());
        let second: Vec<f64> =
            (1..=15).map(|planes| memo.object_psnr(&o, planes, &cfg, &ctx())).collect();
        assert_eq!(memo.counts(), (1, 15));
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&second));
    }

    #[test]
    fn full_budget_has_no_quality_loss() {
        let cfg = HoloArConfig::default();
        assert!(object_psnr(&obj(0, 0.6, 0.2), 16, &cfg, &ctx()).is_infinite());
    }

    #[test]
    fn psnr_degrades_monotonically_with_fewer_planes() {
        let cfg = HoloArConfig::default();
        let o = obj(3, 0.6, 0.25); // Planet
        let p8 = object_psnr(&o, 8, &cfg, &ctx());
        let p2 = object_psnr(&o, 2, &cfg, &ctx());
        assert!(p8.is_finite() && p2.is_finite());
        assert!(p8 > p2, "8 planes ({p8:.1} dB) should beat 2 planes ({p2:.1} dB)");
    }

    #[test]
    fn moderate_approximation_keeps_acceptable_quality() {
        let cfg = HoloArConfig::default();
        // Half the planes on a mid-distance object: the Fig 10a regime.
        let p = object_psnr(&obj(3, 0.6, 0.2), 8, &cfg, &ctx());
        assert!(p > 20.0, "8-plane PSNR {p:.1} dB unexpectedly poor");
    }

    #[test]
    fn video_quality_produces_observations() {
        let cfg = HoloArConfig::for_scheme(Scheme::InterIntraHolo);
        let vq = video_quality(VideoCategory::Cup, cfg, 3, 11, &ctx());
        assert_eq!(vq.category, VideoCategory::Cup);
        assert!(!vq.objects.is_empty());
        let mean = vq.mean_psnr_capped().unwrap();
        assert!(mean > 15.0 && mean <= 50.0, "mean PSNR {mean:.1} dB");
    }

    #[test]
    fn baseline_video_quality_is_lossless() {
        let cfg = HoloArConfig::for_scheme(Scheme::Baseline);
        let vq = video_quality(VideoCategory::Cup, cfg, 2, 11, &ctx());
        assert_eq!(vq.mean_psnr(), None, "baseline never approximates");
        assert_eq!(vq.mean_psnr_capped(), Some(50.0));
    }

    #[test]
    fn alpha_sweep_trades_planes_for_quality() {
        let points = alpha_sweep(&[0.25, 0.75], 2, 5, &ctx());
        assert_eq!(points.len(), 2);
        // Lower α ⇒ fewer planes ⇒ lower (or equal) PSNR.
        assert!(points[0].mean_planes <= points[1].mean_planes);
        assert!(points[0].mean_psnr <= points[1].mean_psnr + 1.0);
    }

    #[test]
    fn design_sweep_is_monotonically_aggressive() {
        let points = design_sweep(&DesignPoint::fig10b_points(), 2, 5, &ctx());
        assert_eq!(points.len(), 5);
        // Later (more aggressive) points compute fewer planes.
        assert!(points.last().unwrap().mean_planes < points[0].mean_planes);
        // And lose quality relative to the gentlest point.
        assert!(points.last().unwrap().mean_psnr <= points[0].mean_psnr + 0.5);
    }

    #[test]
    fn object_mse_inverts_psnr() {
        let cfg = HoloArConfig::default();
        let o = obj(3, 0.6, 0.25);
        assert_eq!(object_mse(&o, 16, &cfg, &ctx()), 0.0);
        let psnr_db = object_psnr(&o, 8, &cfg, &ctx());
        let mse = object_mse(&o, 8, &cfg, &ctx());
        assert!((10.0 * (1.0 / mse).log10() - psnr_db).abs() < 1e-9);
    }

    #[test]
    fn frame_psnr_pools_objects() {
        use crate::planner::PlanItem;
        let cfg = HoloArConfig::default();
        let make = |planes: u32, coverage: f64| PlanItem {
            object: obj(3, 0.6, 0.25),
            planes,
            coverage,
            in_rof: true,
            reused: false,
        };
        // Empty frame: nothing displayed.
        assert_eq!(frame_psnr(&[], &cfg, &ctx()), None);
        assert_eq!(frame_psnr(&[make(0, 0.0)], &cfg, &ctx()), None);
        // All-full frame: lossless.
        assert_eq!(frame_psnr(&[make(16, 1.0)], &cfg, &ctx()), Some(f64::INFINITY));
        // A mixed frame sits between its members' PSNRs.
        let lossy = object_psnr(&obj(3, 0.6, 0.25), 4, &cfg, &ctx());
        let mixed = frame_psnr(&[make(16, 1.0), make(4, 1.0)], &cfg, &ctx()).unwrap();
        assert!(mixed > lossy, "pooling with a lossless object must improve on {lossy:.1}");
        assert!(mixed.is_finite());
        // Lower coverage of the lossy object raises frame quality.
        let less_lossy = frame_psnr(&[make(16, 1.0), make(4, 0.2)], &cfg, &ctx()).unwrap();
        assert!(less_lossy > mixed);
    }

    #[test]
    fn parallel_quality_is_bit_identical_to_serial() {
        // QUALITY_RESOLUTION (40) runs every row and column transform on
        // the mixed-radix path.
        let cfg = HoloArConfig::default();
        let o = obj(3, 0.6, 0.25);
        for (o, planes) in [(o, 8), (obj(1, 1.4, 0.4), 4), (obj(5, 0.3, 0.1), 2)] {
            let serial = object_psnr(&o, planes, &cfg, &ctx());
            assert!(serial.is_finite(), "{planes} planes: {serial}");
            for workers in [1usize, 2, 7] {
                let par_ctx = ExecutionContext::with_workers(workers);
                assert_eq!(
                    object_psnr(&o, planes, &cfg, &par_ctx).to_bits(),
                    serial.to_bits(),
                    "{planes} planes, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn virtual_object_mapping_is_stable() {
        assert_eq!(virtual_object_for(0), VirtualObject::Sniper);
        assert_eq!(virtual_object_for(6), VirtualObject::Sniper);
        assert_eq!(virtual_object_for(3), VirtualObject::Planet);
    }

    #[test]
    #[should_panic(expected = "skipped object")]
    fn zero_planes_panics() {
        object_psnr(&obj(0, 0.6, 0.2), 0, &HoloArConfig::default(), &ctx());
    }
}
