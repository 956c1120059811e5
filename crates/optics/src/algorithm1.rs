//! The depthmap hologram algorithm — Algorithm 1 of the paper.
//!
//! Two steps over `M` depth planes (Fig 4a):
//!
//! 1. **Forward propagation**: walking the plane stack, each plane is
//!    *overlaid* on the propagation result of the planes before it. We walk
//!    nearest-first and maintain an occlusion mask, so content on nearer
//!    planes hides content behind it (the silhouette method used by
//!    layer-based CGH). Each plane transition is one `HP2DP`-shaped
//!    propagation and ends with an intra-block synchronization (Line 6).
//! 2. **Backward propagation**: every composited plane field is
//!    back-propagated to the hologram plane via `DP2HP` and accumulated
//!    (`Hologram[p'] += DP2HP(i, p')`, Line 11), with a final inter-block
//!    synchronization (Line 13).
//!
//! The returned [`HologramStats`] mirror the work/synchronization counts the
//! GPU-mapping layer (`holoar-gpusim`) uses to model latency and energy: the
//! number of depth planes drives both compute volume and barrier count, which
//! is precisely the lever HoloAR's approximation schemes pull.

use crate::depthmap::{DepthMap, PlaneStack};
use crate::field::{Field, OpticalConfig};
use crate::propagate::Propagator;
use holoar_fft::ExecutionContext;

/// Instrumentation counters for one hologram computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HologramStats {
    /// Number of depth planes `M` processed.
    pub plane_count: usize,
    /// Pixels per plane (`rows × cols`).
    pub pixels_per_plane: usize,
    /// `HP2DP`-shaped propagations in the forward step.
    pub forward_propagations: usize,
    /// `DP2HP`-shaped propagations in the backward step.
    pub backward_propagations: usize,
    /// Intra-block synchronizations (one per plane per step; Algo 1 Line 6).
    pub intra_block_syncs: usize,
    /// Inter-block synchronizations (Algo 1 Lines 8 and 13).
    pub inter_block_syncs: usize,
}

impl HologramStats {
    /// Total propagation count, the dominant compute term.
    pub fn total_propagations(&self) -> usize {
        self.forward_propagations + self.backward_propagations
    }
}

/// The output of [`depthmap_hologram`]: the complex hologram plus the
/// instrumentation used by the performance model.
#[derive(Debug, Clone)]
pub struct HologramResult {
    /// The complex field on the hologram plane.
    pub hologram: Field,
    /// Work/synchronization counters.
    pub stats: HologramStats,
}

/// Computes a hologram from a depthmap sliced into `plane_count` planes.
///
/// This is the paper's `Depthmap_Hologram(M, DP)` entry point. HoloAR's
/// approximation schemes call this exact function and vary only
/// `plane_count` — "the original hologram execution engine \[is reused\]
/// without any architectural modifications or reprogramming" (§4.3).
///
/// # Examples
///
/// ```
/// use holoar_fft::ExecutionContext;
/// use holoar_optics::{algorithm1, DepthMap, OpticalConfig};
///
/// let dm = DepthMap::new(8, 8, vec![1.0; 64], vec![0.05; 64])?;
/// let ctx = ExecutionContext::serial();
/// let result = algorithm1::depthmap_hologram(&dm, 4, OpticalConfig::default(), &ctx);
/// assert_eq!(result.stats.plane_count, 4);
/// # Ok::<(), holoar_optics::BuildDepthMapError>(())
/// ```
///
/// # Panics
///
/// Panics if `plane_count == 0`.
pub fn depthmap_hologram(
    depthmap: &DepthMap,
    plane_count: usize,
    config: OpticalConfig,
    ctx: &ExecutionContext,
) -> HologramResult {
    let stack = depthmap.slice(plane_count, config);
    hologram_from_planes(&stack, config, ctx)
}

/// Computes a hologram from an already-sliced plane stack.
///
/// Exposed separately so S-CGH (Fig 9c) can pass a [`PlaneStack::subset`].
///
/// The forward compositing walk is inherently sequential (the occlusion mask
/// carries across planes) and cheap, so it stays serial. Back-propagations
/// are independent and fan out over the context's worker pool; their sum is
/// taken in the spectral domain ([`Propagator::propagate_sum`]), serially in
/// stack order, so the result is bit-identical for every worker count. All
/// counters in [`HologramStats`] are unchanged — parallelism and the
/// spectral sum are execution details, not changes to the modeled work.
///
/// # Panics
///
/// Panics if the stack is empty.
pub fn hologram_from_planes(
    stack: &PlaneStack,
    config: OpticalConfig,
    ctx: &ExecutionContext,
) -> HologramResult {
    assert!(!stack.is_empty(), "hologram requires at least one depth plane");
    let _span = holoar_telemetry::span_cat("optics.algorithm1.hologram", "optics");
    holoar_telemetry::gauge_set("optics.algorithm1.planes", stack.len() as f64);
    let rows = stack.plane(0).field.rows();
    let cols = stack.plane(0).field.cols();
    let mut prop = Propagator::with_context(ctx);

    // ---- Step 1: forward propagation with occlusion compositing ----
    // Walk nearest-first; pixels covered by a nearer plane are removed from
    // farther planes (the "overlay" of Algo 1).
    let mut covered = vec![false; rows * cols];
    let mut intra_planes: Vec<Field> = Vec::with_capacity(stack.len());
    let mut forward_propagations = 0usize;
    for plane in stack.iter() {
        // One HP2DP-shaped propagation per plane: the running composite is
        // carried from the previous plane (illumination for the first).
        forward_propagations += 1;

        let mut composited = plane.field.clone();
        for (idx, sample) in composited.samples_mut().iter_mut().enumerate() {
            if covered[idx] {
                *sample = holoar_fft::Complex64::ZERO;
            } else if sample.norm_sqr() > 0.0 {
                covered[idx] = true;
            }
        }
        intra_planes.push(composited);
    }

    // ---- Step 2: backward propagation, accumulating onto the hologram ----
    let mut hologram = Field::zeros(rows, cols, config);
    let mut backward_propagations = 0usize;
    let mut lit_fields: Vec<Field> = Vec::with_capacity(intra_planes.len());
    let mut lit_zs: Vec<f64> = Vec::with_capacity(intra_planes.len());
    for (plane, composited) in stack.iter().zip(intra_planes) {
        backward_propagations += 1;
        if plane.lit_pixels == 0 && composited.total_energy() == 0.0 {
            // The kernel still launches for empty planes on real hardware,
            // but contributes nothing optically; skip the math, count the work.
            continue;
        }
        // `dp2hp` is propagation by `-z`.
        lit_fields.push(composited);
        lit_zs.push(-plane.z);
    }
    // Independent back-propagations fan out and are summed in the spectral
    // domain, serially in stack order, before one inverse transform.
    if !lit_fields.is_empty() {
        hologram.accumulate(&prop.propagate_sum(&lit_fields, &lit_zs));
    }

    let stats = HologramStats {
        plane_count: stack.len(),
        pixels_per_plane: rows * cols,
        forward_propagations,
        backward_propagations,
        // One intra-block barrier per plane per step (Lines 6 and 12).
        intra_block_syncs: 2 * stack.len(),
        // Lines 8 and 13.
        inter_block_syncs: 2,
    };
    HologramResult { hologram, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depthmap::DepthMap;
    use crate::reconstruct;

    fn ctx() -> ExecutionContext {
        ExecutionContext::serial()
    }

    fn two_point_map(n: usize) -> DepthMap {
        let mut amp = vec![0.0; n * n];
        let mut depth = vec![0.02; n * n];
        amp[(n / 4) * n + n / 4] = 1.0;
        depth[(n / 4) * n + n / 4] = 0.01;
        amp[(3 * n / 4) * n + 3 * n / 4] = 1.0;
        depth[(3 * n / 4) * n + 3 * n / 4] = 0.03;
        DepthMap::new(n, n, amp, depth).unwrap()
    }

    #[test]
    fn stats_scale_with_plane_count() {
        let dm = two_point_map(16);
        let cfg = OpticalConfig::default();
        let a = depthmap_hologram(&dm, 4, cfg, &ctx());
        let b = depthmap_hologram(&dm, 8, cfg, &ctx());
        assert_eq!(a.stats.plane_count, 4);
        assert_eq!(b.stats.plane_count, 8);
        assert_eq!(b.stats.total_propagations(), 2 * a.stats.total_propagations());
        assert_eq!(a.stats.intra_block_syncs, 8);
        assert_eq!(b.stats.intra_block_syncs, 16);
        assert_eq!(a.stats.inter_block_syncs, 2);
    }

    #[test]
    fn hologram_is_nonzero_for_lit_input() {
        let dm = two_point_map(16);
        let result = depthmap_hologram(&dm, 4, OpticalConfig::default(), &ctx());
        assert!(result.hologram.total_energy() > 0.0);
    }

    #[test]
    fn empty_scene_yields_zero_hologram() {
        let dm = DepthMap::new(8, 8, vec![0.0; 64], vec![1.0; 64]).unwrap();
        let result = depthmap_hologram(&dm, 4, OpticalConfig::default(), &ctx());
        assert_eq!(result.hologram.total_energy(), 0.0);
        assert_eq!(result.stats.plane_count, 4);
    }

    #[test]
    fn reconstruction_focuses_at_source_depth() {
        // A single point at depth z should reconstruct to a sharp peak at z
        // and a blurrier spot at other depths.
        let n = 64;
        let mut amp = vec![0.0; n * n];
        let mut depth = vec![0.02; n * n];
        amp[(n / 2) * n + n / 2] = 1.0;
        depth[(n / 2) * n + n / 2] = 0.004;
        let dm = DepthMap::new(n, n, amp, depth).unwrap();
        let cfg = OpticalConfig::default();
        let holo = depthmap_hologram(&dm, 1, cfg, &ctx());
        let mut prop = Propagator::new();
        let at_focus = reconstruct::reconstruct_intensity(&holo.hologram, 0.004, &mut prop);
        let defocus = reconstruct::reconstruct_intensity(&holo.hologram, 0.012, &mut prop);
        let peak = |img: &[f64]| img.iter().cloned().fold(0.0, f64::max);
        assert!(peak(&at_focus) > 2.0 * peak(&defocus));
    }

    #[test]
    fn occlusion_removes_hidden_pixels() {
        // Same pixel lit on two depths: the nearer wins, the farther is
        // occluded, so total contributing pixels stays 1 per location.
        let n = 8;
        let cfg = OpticalConfig::default();
        // Construct two planes manually via slicing a map whose single lit
        // pixel sits at the near depth, then verify stacking a far duplicate
        // doesn't change the hologram energy ordering.
        let mut amp = vec![0.0; n * n];
        let mut depth = vec![0.01; n * n];
        amp[n * 4 + 4] = 1.0;
        depth[n * 4 + 4] = 0.01;
        let near_only = DepthMap::new(n, n, amp.clone(), depth.clone()).unwrap();
        let near = depthmap_hologram(&near_only, 2, cfg, &ctx());

        // Now also light a *different* pixel far away — energy should grow.
        amp[n * 2 + 2] = 1.0;
        depth[n * 2 + 2] = 0.03;
        let both = DepthMap::new(n, n, amp, depth).unwrap();
        let two = depthmap_hologram(&both, 2, cfg, &ctx());
        assert!(two.hologram.total_energy() > near.hologram.total_energy());
    }

    #[test]
    fn parallel_hologram_is_bit_identical_to_serial() {
        let dm = two_point_map(16);
        let cfg = OpticalConfig::default();
        let serial = depthmap_hologram(&dm, 6, cfg, &ctx());
        for workers in [1usize, 2, 7] {
            let par = depthmap_hologram(&dm, 6, cfg, &ExecutionContext::with_workers(workers));
            assert_eq!(
                par.hologram.samples(),
                serial.hologram.samples(),
                "workers {workers}"
            );
            assert_eq!(par.stats, serial.stats);
        }
    }

    #[test]
    #[should_panic(expected = "zero depth planes")]
    fn zero_planes_panics() {
        depthmap_hologram(&two_point_map(8), 0, OpticalConfig::default(), &ctx());
    }

    #[test]
    fn subset_stack_runs_fewer_planes() {
        let dm = two_point_map(16);
        let cfg = OpticalConfig::default();
        let stack = dm.slice(8, cfg);
        let sub = stack.subset(2, 5);
        let result = hologram_from_planes(&sub, cfg, &ctx());
        assert_eq!(result.stats.plane_count, 4);
    }
}
