//! Adaptive weighted Gerchberg–Saxton (GSW) for phase-only holograms.
//!
//! The paper's hologram task runs "five iterations of the GSW algorithm"
//! (§2.2.1 footnote 3, refs \[49, 63\]): an iterative phase-retrieval loop
//! that finds a phase-only hologram whose reconstruction matches target
//! amplitudes on the depth planes, with per-target weights adapted each
//! iteration to equalize achieved intensities (artifact suppression per Wu
//! et al. \[63\]).
//!
//! Each iteration performs one `DP2HP` per plane (accumulate), a phase-only
//! projection at the hologram plane, and one `HP2DP` per plane (measure) —
//! the same kernel structure Algorithm 1 exhibits, which is why the GPU
//! model charges GSW as `iterations × (forward + backward)` plane sweeps.
//!
//! On the host, each sweep transforms each source once. The backward sweep
//! sums the `DP2HP` products in the spectral domain and runs one inverse
//! transform ([`Propagator::propagate_sum_from`]), writing the hologram
//! over the previous iteration's; the forward sweep transforms the
//! hologram once and runs one inverse per lit plane
//! ([`Propagator::propagate_batch_window`]), whose visitor measures the
//! plane's lit pixels inside the pooled result. An iteration over `P` lit
//! planes therefore costs `2P + 2` 2-D transforms instead of `4P`, a
//! dark plane costs none, and no full-grid buffer is allocated once the
//! propagator's buffer pool is warm. The hologram differs from summing the
//! spatial `DP2HP` results only by floating-point rounding.
//!
//! The `2P` per-plane transforms are pruned to what is read. A plane's
//! field is zero outside its lit rows, so its forward transform skips the
//! all-zero rows ([`holoar_fft::Fft2d::forward`]). The forward sweep reads
//! a plane only at its lit pixels, so each plane's inverse runs its column
//! pass over the contiguous span of its lit columns alone
//! ([`holoar_fft::Fft2d::inverse_window`]). The energy behind `efficiency`
//! comes from each plane's spectrum product by Parseval. Neither pruning
//! moves a bit of the hologram, `uniformity` or the trace; `efficiency`
//! differs from the spatial energy sum by rounding.
//!
//! The loop state is compact and its arithmetic transcendental-free. Each
//! plane keeps the list of its lit pixels (built once) and, per lit pixel,
//! the target amplitude, the adaptive weight and the current phase as a
//! unit phasor `v/|v|` rather than an angle: a plane's field is
//! `phasor · target · weight`, written straight into the buffer its
//! transform runs on, and a measurement takes `|v| = sqrt(|v|²)` once per
//! lit pixel for both the weight update and the next phasor. The
//! hologram's phase-only projection divides each sample by the same square
//! root in place. `from_polar(a, arg(v))` is `a·v/|v|`, so this is the
//! polar-form loop up to rounding, with no `sin_cos`, `atan2` or `hypot`
//! per pixel; only a tuned `adaptivity ≠ 1` calls `powf`. Both per-pixel
//! loops walk the lit lists, never the full plane.

use std::ops::Range;

use crate::depthmap::PlaneStack;
use crate::field::{Field, OpticalConfig};
use crate::propagate::Propagator;
use holoar_fft::{Complex64, ExecutionContext};

/// Configuration for the GSW loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GswConfig {
    /// Number of iterations. The paper profiles five.
    pub iterations: usize,
    /// Exponent on the weight update; `1.0` is standard GSW.
    pub adaptivity: f64,
}

impl Default for GswConfig {
    fn default() -> Self {
        GswConfig { iterations: 5, adaptivity: 1.0 }
    }
}

/// The result of a GSW run.
#[derive(Debug, Clone)]
pub struct GswResult {
    /// The phase-only hologram.
    pub hologram: Field,
    /// Uniformity of achieved target intensities after the final iteration,
    /// `1 − (max − min)/(max + min)` over lit pixels; `1.0` is perfect.
    pub uniformity: f64,
    /// Fraction of reconstructed energy landing on target pixels.
    pub efficiency: f64,
    /// Per-iteration uniformity trace (length = iterations).
    pub uniformity_trace: Vec<f64>,
}

/// Runs adaptive weighted Gerchberg–Saxton over a plane stack.
///
/// Per-plane field construction and both propagation sweeps fan out over the
/// context's worker pool; every floating-point reduction (the spectral
/// hologram sum, energy totals, weight statistics) stays serial in plane
/// order, so the result is bit-identical for every worker count.
///
/// # Examples
///
/// ```
/// use holoar_fft::ExecutionContext;
/// use holoar_optics::{gsw, DepthMap, GswConfig, OpticalConfig};
///
/// let mut amp = vec![0.0; 64 * 64];
/// amp[64 * 20 + 20] = 1.0;
/// amp[64 * 44 + 44] = 1.0;
/// let dm = DepthMap::new(64, 64, amp, vec![0.01; 64 * 64])?;
/// let cfg = OpticalConfig::default();
/// let ctx = ExecutionContext::serial();
/// let result = gsw::run(&dm.slice(2, cfg), cfg, GswConfig::default(), &ctx);
/// assert!(result.uniformity > 0.5);
/// # Ok::<(), holoar_optics::BuildDepthMapError>(())
/// ```
///
/// # Panics
///
/// Panics if the stack is empty or `config.iterations == 0`.
pub fn run(
    stack: &PlaneStack,
    optics: OpticalConfig,
    config: GswConfig,
    ctx: &ExecutionContext,
) -> GswResult {
    let _span = holoar_telemetry::span_cat("optics.gsw.run", "optics");
    let mut results = run_batch(&[stack], optics, config, ctx);
    assert_eq!(results.len(), 1, "run_batch returns one result per stack");
    results.swap_remove(0)
}

/// One depth plane's lit pixels, in ascending pixel order, with their
/// target amplitudes, adaptive weights and current unit phasors, and the
/// last measurement's relative amplitude and `|u|²` per lit pixel.
struct LitPlane {
    pixels: Vec<usize>,
    /// The contiguous column span holding every lit pixel; empty for a
    /// dark plane. The forward sweep inverts only these columns.
    cols: Range<usize>,
    targets: Vec<f64>,
    weights: Vec<f64>,
    phasors: Vec<Complex64>,
    rels: Vec<f64>,
    norms: Vec<f64>,
}

impl LitPlane {
    /// Measures the plane's lit pixels in `u`, a reconstruction that is
    /// valid at those pixels: the next phasor, the relative amplitude and
    /// `|u|²` of each, then the weight update toward the plane's mean
    /// relative amplitude. Reads nothing outside the lit pixels.
    fn measure(&mut self, u: &[Complex64], adaptivity: f64) {
        if self.pixels.is_empty() {
            return;
        }
        let estimates = self.targets.iter().zip(self.phasors.iter_mut());
        let outputs = self.rels.iter_mut().zip(self.norms.iter_mut());
        for ((&idx, (&target, phasor)), (rel, norm)) in
            self.pixels.iter().zip(estimates).zip(outputs)
        {
            let v = u[idx];
            let n = v.norm_sqr();
            // The next phase estimate; flat where nothing arrived.
            *phasor = if v == Complex64::ZERO { Complex64::ONE } else { unit(v, n) };
            // Normalize achieved vs desired so different target amplitudes
            // compare fairly.
            *rel = n.sqrt().max(1e-12) / target;
            *norm = n;
        }
        let mean = self.rels.iter().sum::<f64>() / self.rels.len() as f64;
        for (weight, &rel) in self.weights.iter_mut().zip(&self.rels) {
            // Standard GSW (adaptivity = 1.0) stays transcendental-free;
            // IEEE pow(x, 1.0) == x, so the fast path is bit-identical to
            // the former powf.
            let gain = if adaptivity == 1.0 {
                mean / rel
            } else {
                // holoar-lint: allow(float-determinism, reason = "a tuned GSW weight exponent requires a real power; the default adaptivity = 1.0 takes the exact division path above")
                (mean / rel).powf(adaptivity)
            };
            *weight *= gain;
        }
    }
}

/// Per-stack mutable state for the lockstep batched GSW loop.
struct StackState {
    /// Every plane's distance, in plane order.
    zs: Vec<f64>,
    planes: Vec<LitPlane>,
    /// The planes with at least one lit pixel, and their `DP2HP`
    /// distances (`-z`); dark planes contribute nothing to the hologram.
    lit: Vec<usize>,
    lit_zs: Vec<f64>,
    hologram: Field,
    uniformity_trace: Vec<f64>,
    final_uniformity: f64,
    final_efficiency: f64,
}

impl StackState {
    fn new(stack: &PlaneStack, optics: OpticalConfig, iterations: usize) -> Self {
        let rows = stack.plane(0).field.rows();
        let cols = stack.plane(0).field.cols();
        let planes: Vec<LitPlane> = stack
            .iter()
            .map(|p| {
                let (pixels, targets): (Vec<usize>, Vec<f64>) = p
                    .field
                    .samples()
                    .iter()
                    .map(|s| s.norm())
                    .enumerate()
                    .filter(|&(_, a)| a > 0.0)
                    .unzip();
                let n = pixels.len();
                let first = pixels.iter().map(|&idx| idx % cols).min().unwrap_or(0);
                let last = pixels.iter().map(|&idx| idx % cols + 1).max().unwrap_or(0);
                LitPlane {
                    pixels,
                    cols: first..last,
                    targets,
                    weights: vec![1.0; n],
                    // Phases start flat.
                    phasors: vec![Complex64::ONE; n],
                    rels: vec![0.0; n],
                    norms: vec![0.0; n],
                }
            })
            .collect();
        let lit: Vec<usize> = (0..planes.len()).filter(|&p| !planes[p].pixels.is_empty()).collect();
        let zs: Vec<f64> = stack.iter().map(|p| p.z).collect();
        StackState {
            lit_zs: lit.iter().map(|&p| -zs[p]).collect(),
            zs,
            planes,
            lit,
            hologram: Field::zeros(rows, cols, optics),
            uniformity_trace: Vec::with_capacity(iterations),
            final_uniformity: 0.0,
            final_efficiency: 0.0,
        }
    }
}

/// `2⁶⁰⁰` and `2⁻⁶⁰⁰`: exact rescales that bring any finite non-zero
/// sample whose `|z|²` under- or overflows back into the normal range.
const TWO_POW_600: f64 = f64::from_bits((1023 + 600) << 52);
const TWO_POW_NEG_600: f64 = f64::from_bits((1023 - 600) << 52);

/// `z/|z|` given `norm_sqr = |z|²`, with a square root and no libm call;
/// zero stays zero. When `|z|²` is subnormal, zero or infinite for a finite
/// non-zero `z`, the sample is first rescaled by an exact power of two so
/// the result still has unit modulus.
#[inline]
fn unit(z: Complex64, norm_sqr: f64) -> Complex64 {
    if norm_sqr.is_normal() {
        return z.scale(1.0 / norm_sqr.sqrt());
    }
    if z == Complex64::ZERO {
        return z;
    }
    let z = z.scale(if norm_sqr < f64::MIN_POSITIVE { TWO_POW_600 } else { TWO_POW_NEG_600 });
    z.scale(1.0 / z.norm_sqr().sqrt())
}

/// The SLM constraint, in place: every non-zero sample keeps its phase and
/// takes unit modulus.
fn project_phase_only(samples: &mut [Complex64]) {
    for s in samples {
        *s = unit(*s, s.norm_sqr());
    }
}

/// Runs GSW over several plane stacks in lockstep, sharing one propagator
/// across every stack.
///
/// This is the cross-session batching primitive: when N sessions each need a
/// hologram for the same frame tick, one `run_batch` call reuses one set of
/// FFT plans and transfer functions for all their depth planes, instead of
/// running N separate loops. Each iteration then runs, per stack, one
/// spectral back-propagation sum ([`Propagator::propagate_sum_from`], which
/// builds each lit plane's field on the worker that transforms it, into the
/// stack's hologram buffer) and one shared-spectrum forward sweep
/// ([`Propagator::propagate_batch_window`], which inverts each plane over
/// its lit columns only and measures its lit pixels on the same worker).
/// Stacks may differ in shape and plane count.
///
/// Each stack's arithmetic is fully independent — field construction, its
/// own propagation calls and the serial per-stack reductions are exactly
/// those of [`run`] — so `run_batch(&[a, b], …)` is bit-identical to
/// `[run(a, …), run(b, …)]` for every worker count.
///
/// # Panics
///
/// Panics if the batch or any stack is empty, or `config.iterations == 0`.
pub fn run_batch(
    stacks: &[&PlaneStack],
    optics: OpticalConfig,
    config: GswConfig,
    ctx: &ExecutionContext,
) -> Vec<GswResult> {
    assert!(!stacks.is_empty(), "GSW batch requires at least one stack");
    for stack in stacks {
        assert!(!stack.is_empty(), "GSW requires at least one depth plane");
    }
    assert!(config.iterations > 0, "GSW requires at least one iteration");
    let _span = holoar_telemetry::span_cat("optics.gsw.run_batch", "optics");
    let total_planes: usize = stacks.iter().map(|s| s.len()).sum();
    holoar_telemetry::gauge_set("optics.gsw.planes", total_planes as f64);
    let mut prop = Propagator::with_context(ctx);

    let mut states: Vec<StackState> =
        stacks.iter().map(|stack| StackState::new(stack, optics, config.iterations)).collect();

    for _ in 0..config.iterations {
        let _iter_span = holoar_telemetry::span_cat("optics.gsw.iteration", "optics");
        // Backward: superpose each stack's weighted targets on its hologram
        // plane with one spectral back-propagation sum over its lit planes,
        // written over the previous iteration's hologram; each plane's
        // field is built on the worker that transforms it. Then the
        // phase-only constraint (SLM projection).
        for st in states.iter_mut() {
            if st.lit.is_empty() {
                continue;
            }
            let (planes, lit) = (&st.planes, &st.lit);
            prop.propagate_sum_from(&st.lit_zs, &mut st.hologram, |j, buf| {
                let plane = &planes[lit[j]];
                let terms = plane.targets.iter().zip(&plane.weights).zip(&plane.phasors);
                for (&idx, ((&target, &weight), &phasor)) in plane.pixels.iter().zip(terms) {
                    buf[idx] = phasor.scale(target * weight);
                }
            });
            project_phase_only(st.hologram.samples_mut());
        }

        // Forward: measure achieved amplitudes on each stack's planes from
        // one shared hologram spectrum, inverting each plane only over its
        // lit columns (dark planes not at all). Each plane measures its lit
        // pixels inside the pooled result, on the worker that inverted it;
        // the cross-plane reductions below stay serial, per stack, in plane
        // and pixel order.
        for st in states.iter_mut() {
            let energies = prop.propagate_batch_window(
                &st.hologram,
                &st.zs,
                &mut st.planes,
                |plane| plane.cols.start..plane.cols.end,
                true,
                |plane, energy, u| {
                    plane.measure(u, config.adaptivity);
                    energy.unwrap_or_default()
                },
            );
            let mut achieved_min = f64::INFINITY;
            let mut achieved_max = 0.0f64;
            let mut on_target = 0.0;
            let mut total = 0.0;
            for (plane, energy) in st.planes.iter().zip(&energies) {
                total += energy;
                for (&rel, &n) in plane.rels.iter().zip(&plane.norms) {
                    achieved_min = achieved_min.min(rel);
                    achieved_max = achieved_max.max(rel);
                    on_target += n;
                }
            }
            st.final_uniformity = if achieved_max > 0.0 {
                1.0 - (achieved_max - achieved_min) / (achieved_max + achieved_min)
            } else {
                0.0
            };
            st.final_efficiency = if total > 0.0 { on_target / total } else { 0.0 };
            let u = st.final_uniformity;
            st.uniformity_trace.push(u);
        }
    }

    states
        .into_iter()
        .map(|st| GswResult {
            hologram: st.hologram,
            uniformity: st.final_uniformity,
            efficiency: st.final_efficiency,
            uniformity_trace: st.uniformity_trace,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depthmap::DepthMap;

    fn spots_map(n: usize, spots: &[(usize, usize, f64)]) -> DepthMap {
        let mut amp = vec![0.0; n * n];
        let mut depth = vec![0.01; n * n];
        for &(r, c, z) in spots {
            amp[r * n + c] = 1.0;
            depth[r * n + c] = z;
        }
        DepthMap::new(n, n, amp, depth).unwrap()
    }

    fn ctx() -> ExecutionContext {
        ExecutionContext::serial()
    }

    #[test]
    fn produces_phase_only_hologram() {
        let dm = spots_map(32, &[(8, 8, 0.01), (24, 24, 0.02)]);
        let cfg = OpticalConfig::default();
        let result =
            run(&dm.slice(2, cfg), cfg, GswConfig { iterations: 2, adaptivity: 1.0 }, &ctx());
        for s in result.hologram.samples() {
            let r = s.norm();
            assert!(r == 0.0 || (r - 1.0).abs() < 1e-9, "non-unit amplitude {r}");
        }
    }

    #[test]
    fn uniformity_in_unit_interval_and_traced() {
        let dm = spots_map(32, &[(10, 10, 0.01), (20, 20, 0.015), (16, 8, 0.02)]);
        let cfg = OpticalConfig::default();
        let result =
            run(&dm.slice(3, cfg), cfg, GswConfig { iterations: 4, adaptivity: 1.0 }, &ctx());
        assert_eq!(result.uniformity_trace.len(), 4);
        for &u in &result.uniformity_trace {
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn weighting_improves_uniformity_over_first_iteration() {
        let dm = spots_map(48, &[(12, 12, 0.01), (36, 36, 0.02), (12, 36, 0.03)]);
        let cfg = OpticalConfig::default();
        let result =
            run(&dm.slice(3, cfg), cfg, GswConfig { iterations: 5, adaptivity: 1.0 }, &ctx());
        let first = result.uniformity_trace[0];
        let best = result.uniformity_trace.iter().cloned().fold(0.0, f64::max);
        assert!(
            best >= first,
            "adaptive weighting should not make the best iteration worse: first={first} best={best}"
        );
    }

    #[test]
    fn adaptive_weighting_beats_plain_gerchberg_saxton() {
        // adaptivity = 0 disables the weight update, reducing GSW to plain
        // GS. The paper adopts the *weighted* variant for artifact
        // suppression [63]: final uniformity should not be worse.
        let dm = spots_map(48, &[(12, 12, 0.01), (36, 36, 0.02), (12, 36, 0.03), (30, 10, 0.015)]);
        let cfg = OpticalConfig::default();
        let plain =
            run(&dm.slice(4, cfg), cfg, GswConfig { iterations: 5, adaptivity: 0.0 }, &ctx());
        let weighted =
            run(&dm.slice(4, cfg), cfg, GswConfig { iterations: 5, adaptivity: 1.0 }, &ctx());
        assert!(
            weighted.uniformity >= plain.uniformity - 0.02,
            "weighted {:.3} vs plain {:.3}",
            weighted.uniformity,
            plain.uniformity
        );
    }

    #[test]
    fn efficiency_positive_for_lit_targets() {
        let dm = spots_map(32, &[(16, 16, 0.01)]);
        let cfg = OpticalConfig::default();
        let result =
            run(&dm.slice(1, cfg), cfg, GswConfig { iterations: 2, adaptivity: 1.0 }, &ctx());
        assert!(result.efficiency > 0.0);
        assert!(result.efficiency <= 1.0 + 1e-9);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let dm = spots_map(32, &[(8, 8, 0.01), (24, 24, 0.02), (16, 8, 0.03)]);
        let cfg = OpticalConfig::default();
        let gsw_cfg = GswConfig { iterations: 3, adaptivity: 1.0 };
        let serial = run(&dm.slice(3, cfg), cfg, gsw_cfg, &ctx());
        for workers in [1usize, 2, 7] {
            let par = run(
                &dm.slice(3, cfg),
                cfg,
                gsw_cfg,
                &ExecutionContext::with_workers(workers),
            );
            assert_eq!(par.hologram.samples(), serial.hologram.samples(), "workers {workers}");
            assert_eq!(par.uniformity.to_bits(), serial.uniformity.to_bits());
            assert_eq!(par.efficiency.to_bits(), serial.efficiency.to_bits());
            assert_eq!(par.uniformity_trace.len(), serial.uniformity_trace.len());
            for (a, b) in par.uniformity_trace.iter().zip(&serial.uniformity_trace) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn batch_matches_independent_runs_bit_for_bit() {
        let cfg = OpticalConfig::default();
        let gsw_cfg = GswConfig { iterations: 3, adaptivity: 1.0 };
        let maps = [
            spots_map(32, &[(8, 8, 0.01), (24, 24, 0.02)]),
            spots_map(32, &[(10, 20, 0.015), (20, 10, 0.03), (16, 16, 0.01)]),
            spots_map(16, &[(4, 4, 0.02)]),
        ];
        let stacks: Vec<_> = [
            maps[0].slice(2, cfg),
            maps[1].slice(3, cfg),
            maps[2].slice(1, cfg),
        ]
        .into_iter()
        .collect();
        let solo: Vec<GswResult> =
            stacks.iter().map(|s| run(s, cfg, gsw_cfg, &ctx())).collect();
        for workers in [1usize, 2, 7] {
            let refs: Vec<&PlaneStack> = stacks.iter().collect();
            let batch =
                run_batch(&refs, cfg, gsw_cfg, &ExecutionContext::with_workers(workers));
            assert_eq!(batch.len(), solo.len());
            for (i, (a, b)) in batch.iter().zip(&solo).enumerate() {
                assert_eq!(
                    a.hologram.samples(),
                    b.hologram.samples(),
                    "stack {i} workers {workers}"
                );
                assert_eq!(a.uniformity.to_bits(), b.uniformity.to_bits());
                assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
            }
        }
    }

    /// Asserts two results agree bit for bit.
    fn assert_same_bits(a: &GswResult, b: &GswResult, at: &str) {
        let bits = |r: &GswResult| -> Vec<u64> {
            r.hologram
                .samples()
                .iter()
                .flat_map(|z| [z.re, z.im])
                .chain([r.uniformity, r.efficiency])
                .chain(r.uniformity_trace.iter().copied())
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(a.uniformity_trace.len(), b.uniformity_trace.len(), "{at}");
        assert!(bits(a) == bits(b), "{at}: results differ");
    }

    #[test]
    fn dark_planes_and_tuned_adaptivity_are_bit_identical_everywhere() {
        // Spots at the near and far depths of a three-plane slice leave the
        // middle plane with no lit pixels; adaptivity 0.5 takes the `powf`
        // weight update.
        let cfg = OpticalConfig::default();
        let gsw_cfg = GswConfig { iterations: 3, adaptivity: 0.5 };
        let dark = spots_map(32, &[(8, 8, 0.01), (24, 24, 0.03), (16, 8, 0.01)]).slice(3, cfg);
        assert_eq!(dark.plane(1).lit_pixels, 0, "the middle plane must be dark");
        assert!(dark.plane(0).lit_pixels > 0 && dark.plane(2).lit_pixels > 0);
        let other = spots_map(16, &[(4, 4, 0.02), (12, 10, 0.01)]).slice(2, cfg);
        let solo = [run(&dark, cfg, gsw_cfg, &ctx()), run(&other, cfg, gsw_cfg, &ctx())];
        assert!(solo[0].efficiency > 0.0 && solo[0].uniformity > 0.0);
        for workers in [1usize, 2, 7] {
            let par = ExecutionContext::with_workers(workers);
            let single = run(&dark, cfg, gsw_cfg, &par);
            assert_same_bits(&single, &solo[0], &format!("run at {workers} workers"));
            let batch = run_batch(&[&dark, &other], cfg, gsw_cfg, &par);
            for (i, (a, b)) in batch.iter().zip(&solo).enumerate() {
                assert_same_bits(a, b, &format!("run_batch stack {i} at {workers} workers"));
            }
        }
    }

    #[test]
    fn projection_keeps_unit_modulus_where_the_squared_norm_leaves_the_normal_range() {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let mut samples = [
            Complex64::new(1e-170, 1e-170), // |z|² underflows to zero
            Complex64::new(1e-160, -1e-160), // |z|² is subnormal
            Complex64::new(1e200, 0.0),     // |z|² overflows
            Complex64::ZERO,
            Complex64::new(3.0, -4.0),
        ];
        assert_eq!(samples[0].norm_sqr(), 0.0);
        assert!(samples[1].norm_sqr() > 0.0 && !samples[1].norm_sqr().is_normal());
        assert!(samples[2].norm_sqr().is_infinite());
        project_phase_only(&mut samples);
        let want = [
            Complex64::new(h, h),
            Complex64::new(h, -h),
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::new(0.6, -0.8),
        ];
        for (i, (got, want)) in samples.iter().zip(&want).enumerate() {
            assert!((*got - *want).norm() <= 1e-12, "sample {i}: {got} vs {want}");
        }
        for s in [samples[0], samples[1], samples[2], samples[4]] {
            assert!((s.norm() - 1.0).abs() <= 1e-12, "non-unit modulus {}", s.norm());
        }
        assert_eq!(samples[3].re.to_bits(), 0, "zero stays zero");
        assert_eq!(samples[3].im.to_bits(), 0, "zero stays zero");
    }

    /// Standard GSW with per-plane spatial propagation: one `propagate` per
    /// lit plane summed in the spatial domain, and one `propagate` per plane
    /// to measure. The reference the spectral sweeps are bounded against.
    fn spatial_reference(
        stack: &PlaneStack,
        optics: OpticalConfig,
        iterations: usize,
    ) -> GswResult {
        let mut prop = Propagator::new();
        let (rows, cols) = (stack.plane(0).field.rows(), stack.plane(0).field.cols());
        let pixels = rows * cols;
        let targets: Vec<Vec<f64>> = stack.iter().map(|p| p.field.amplitude()).collect();
        let mut weights: Vec<Vec<f64>> = targets
            .iter()
            .map(|t| t.iter().map(|&a| if a > 0.0 { 1.0 } else { 0.0 }).collect())
            .collect();
        let mut phases = vec![vec![0.0; pixels]; stack.len()];
        let mut hologram = Field::zeros(rows, cols, optics);
        let mut uniformity_trace = Vec::new();
        let (mut uniformity, mut efficiency) = (0.0, 0.0);
        for _ in 0..iterations {
            let mut acc = Field::zeros(rows, cols, optics);
            for (p, plane) in stack.iter().enumerate() {
                let mut f = Field::zeros(rows, cols, optics);
                for idx in 0..pixels {
                    let a = targets[p][idx] * weights[p][idx];
                    if a > 0.0 {
                        f.samples_mut()[idx] = Complex64::from_polar(a, phases[p][idx]);
                    }
                }
                if f.total_energy() > 0.0 {
                    acc.accumulate(&prop.propagate(&f, -plane.z));
                }
            }
            hologram = acc.to_phase_only();
            let (mut lo, mut hi, mut on_target, mut total) = (f64::INFINITY, 0.0f64, 0.0, 0.0);
            for (p, plane) in stack.iter().enumerate() {
                let u = prop.propagate(&hologram, plane.z);
                total += u.total_energy();
                let mut rels = Vec::new();
                for idx in 0..pixels {
                    if targets[p][idx] > 0.0 {
                        let v = u.samples()[idx];
                        phases[p][idx] = v.arg();
                        let rel = v.norm().max(1e-12) / targets[p][idx];
                        lo = lo.min(rel);
                        hi = hi.max(rel);
                        rels.push((idx, rel));
                        on_target += v.norm_sqr();
                    }
                }
                if !rels.is_empty() {
                    let mean = rels.iter().map(|&(_, r)| r).sum::<f64>() / rels.len() as f64;
                    for &(idx, rel) in &rels {
                        weights[p][idx] *= mean / rel;
                    }
                }
            }
            uniformity = if hi > 0.0 { 1.0 - (hi - lo) / (hi + lo) } else { 0.0 };
            efficiency = if total > 0.0 { on_target / total } else { 0.0 };
            uniformity_trace.push(uniformity);
        }
        GswResult { hologram, uniformity, efficiency, uniformity_trace }
    }

    #[test]
    fn spectral_sweeps_track_the_spatial_reference() {
        use crate::scene::VirtualObject;
        let cfg = OpticalConfig::default();
        let gsw_cfg = GswConfig::default();
        for object in [VirtualObject::Dice, VirtualObject::Planet] {
            let dm = object.render(64, 64, 0.006, 0.002);
            for planes in [1usize, 2, 4, 8, 16] {
                let stack = dm.slice(planes, cfg);
                let got = run(&stack, cfg, gsw_cfg, &ctx());
                let want = spatial_reference(&stack, cfg, gsw_cfg.iterations);
                let at = format!("{} at {planes} planes", object.name());
                let d_eff = (got.efficiency - want.efficiency).abs();
                let d_uni = (got.uniformity - want.uniformity).abs();
                let d_sample = got
                    .hologram
                    .samples()
                    .iter()
                    .zip(want.hologram.samples())
                    .map(|(a, b)| (*a - *b).norm())
                    .fold(0.0, f64::max);
                assert!(d_eff <= 1e-6, "{at}: efficiency differs by {d_eff}");
                assert!(d_uni <= 1e-5, "{at}: uniformity differs by {d_uni}");
                assert!(d_sample <= 5e-3, "{at}: a hologram sample differs by {d_sample}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let dm = spots_map(8, &[(4, 4, 0.01)]);
        let cfg = OpticalConfig::default();
        run(&dm.slice(1, cfg), cfg, GswConfig { iterations: 0, adaptivity: 1.0 }, &ctx());
    }
}
