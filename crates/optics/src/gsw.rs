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
//! transform ([`Propagator::propagate_sum`]); the forward sweep transforms
//! the hologram once and runs one inverse per plane
//! ([`Propagator::propagate_batch`]). An iteration over `P` lit planes
//! therefore costs `2P + 2` 2-D transforms instead of `4P`. The hologram
//! differs from summing the spatial `DP2HP` results only by floating-point
//! rounding.

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

/// Per-stack mutable state for the lockstep batched GSW loop.
struct StackState {
    rows: usize,
    cols: usize,
    zs: Vec<f64>,
    targets: Vec<Vec<f64>>,
    weights: Vec<Vec<f64>>,
    phases: Vec<Vec<f64>>,
    hologram: Field,
    uniformity_trace: Vec<f64>,
    final_uniformity: f64,
    final_efficiency: f64,
}

/// Runs GSW over several plane stacks in lockstep, sharing one propagator
/// and one per-iteration field-construction fan-out across every stack.
///
/// This is the cross-session batching primitive: when N sessions each need a
/// hologram for the same frame tick, one `run_batch` call builds all their
/// depth-plane fields together and reuses one set of FFT plans and transfer
/// functions, instead of running N separate loops. Each iteration then runs,
/// per stack, one spectral back-propagation sum
/// ([`Propagator::propagate_sum`]) and one shared-spectrum forward sweep
/// ([`Propagator::propagate_batch`]). Stacks may differ in shape and plane
/// count.
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
    let par = ctx.parallelism().clone();
    let mut prop = Propagator::with_context(ctx);

    let mut states: Vec<StackState> = stacks
        .iter()
        .map(|stack| {
            let rows = stack.plane(0).field.rows();
            let cols = stack.plane(0).field.cols();
            // Target amplitudes and lit-pixel masks per plane.
            let targets: Vec<Vec<f64>> =
                stack.iter().map(|p| p.field.amplitude()).collect();
            let weights: Vec<Vec<f64>> = targets
                .iter()
                .map(|t| t.iter().map(|&a| if a > 0.0 { 1.0 } else { 0.0 }).collect())
                .collect();
            StackState {
                rows,
                cols,
                zs: stack.iter().map(|p| p.z).collect(),
                targets,
                weights,
                // Per-plane phase estimates, initialized flat.
                phases: vec![vec![0.0; rows * cols]; stack.len()],
                hologram: Field::zeros(rows, cols, optics),
                uniformity_trace: Vec::with_capacity(config.iterations),
                final_uniformity: 0.0,
                final_efficiency: 0.0,
            }
        })
        .collect();

    // Flattened (stack, plane) job list, stack-major so each stack's fields
    // stay contiguous and in plane order.
    let jobs: Vec<(usize, usize)> = states
        .iter()
        .enumerate()
        .flat_map(|(s, st)| (0..st.zs.len()).map(move |p| (s, p)))
        .collect();

    // Per-iteration buffers, allocated once and reused: one stack's lit
    // planes and their back-propagation distances, and the per-plane
    // relative-amplitude scratch for the weight update.
    let max_planes = states.iter().map(|st| st.zs.len()).max().unwrap_or(0);
    let mut lit_fields: Vec<Field> = Vec::with_capacity(max_planes);
    let mut lit_zs: Vec<f64> = Vec::with_capacity(max_planes);
    let max_pixels = states.iter().map(|st| st.rows * st.cols).max().unwrap_or(0);
    let mut rels: Vec<(usize, f64)> = Vec::with_capacity(max_pixels);

    for _ in 0..config.iterations {
        let _iter_span = holoar_telemetry::span_cat("optics.gsw.iteration", "optics");
        // Backward: superpose weighted targets on each hologram plane. The
        // per-plane fields only read targets/weights/phases, so construction
        // fans out across every stack's planes at once.
        let fields: Vec<Field> = par.map(&jobs, |&(s, p)| {
            let st = &states[s];
            let mut f = Field::zeros(st.rows, st.cols, optics);
            for idx in 0..st.rows * st.cols {
                let a = st.targets[p][idx] * st.weights[p][idx];
                if a > 0.0 {
                    f.samples_mut()[idx] = Complex64::from_polar(a, st.phases[p][idx]);
                }
            }
            f
        });
        // One spectral back-propagation sum per stack over its lit planes
        // (dark planes contribute nothing and are skipped), then the
        // phase-only constraint (SLM projection).
        let mut fields = fields.into_iter();
        for st in states.iter_mut() {
            lit_fields.clear();
            lit_zs.clear();
            for (f, &z) in fields.by_ref().take(st.zs.len()).zip(&st.zs) {
                if f.total_energy() > 0.0 {
                    lit_fields.push(f);
                    // `dp2hp` is propagation by `-z`.
                    lit_zs.push(-z);
                }
            }
            st.hologram = if lit_fields.is_empty() {
                Field::zeros(st.rows, st.cols, optics)
            } else {
                prop.propagate_sum(&lit_fields, &lit_zs).to_phase_only()
            };
        }

        // Forward: measure achieved amplitudes on each stack's planes from
        // one shared hologram spectrum; the measurement loop below is a
        // reduction and stays serial, per stack, in plane order.
        for st in states.iter_mut() {
            let recon = prop.propagate_batch(&st.hologram, &st.zs);
            let mut achieved_min = f64::INFINITY;
            let mut achieved_max = 0.0f64;
            let mut on_target = 0.0;
            let mut total = 0.0;
            for (i, u) in recon.iter().enumerate() {
                total += u.total_energy();
                rels.clear();
                for idx in 0..st.rows * st.cols {
                    if st.targets[i][idx] > 0.0 {
                        let v = u.samples()[idx];
                        st.phases[i][idx] = v.arg();
                        // Normalize achieved vs desired so different target
                        // amplitudes compare fairly.
                        let rel = v.norm().max(1e-12) / st.targets[i][idx];
                        achieved_min = achieved_min.min(rel);
                        achieved_max = achieved_max.max(rel);
                        rels.push((idx, rel));
                        on_target += v.norm_sqr();
                    }
                }
                if !rels.is_empty() {
                    let mean =
                        rels.iter().map(|&(_, r)| r).sum::<f64>() / rels.len() as f64;
                    for &(idx, rel) in &rels {
                        // Standard GSW (adaptivity = 1.0) stays
                        // transcendental-free; IEEE pow(x, 1.0) == x, so the
                        // fast path is bit-identical to the former powf.
                        let gain = if config.adaptivity == 1.0 {
                            mean / rel
                        } else {
                            // holoar-lint: allow(float-determinism, reason = "a tuned GSW weight exponent requires a real power; the default adaptivity = 1.0 takes the exact division path above")
                            (mean / rel).powf(config.adaptivity)
                        };
                        st.weights[i][idx] *= gain;
                    }
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
