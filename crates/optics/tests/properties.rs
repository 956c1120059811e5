//! Property tests for the wave-optics engine: physical invariants that must
//! hold for arbitrary fields, depthmaps and distances.

use holoar_fft::{Complex64, ExecutionContext, Parallelism};
use holoar_optics::{
    algorithm1, phase, subhologram, DepthMap, Field, FresnelPropagator, OpticalConfig,
    PhaseEncoding, Propagator, Region,
};
use proptest::prelude::*;

fn arb_smooth_field() -> impl Strategy<Value = Field> {
    // Gaussian blobs of varying width/position: band-limited content that
    // stays inside the propagating band.
    (4.0f64..60.0, -6.0f64..6.0, -6.0f64..6.0).prop_map(|(sigma2, ox, oy)| {
        let n = 32;
        let cfg = OpticalConfig::default();
        let mut f = Field::zeros(n, n, cfg);
        for r in 0..n {
            for c in 0..n {
                let dr = r as f64 - n as f64 / 2.0 - oy;
                let dc = c as f64 - n as f64 / 2.0 - ox;
                f.set(r, c, Complex64::new((-(dr * dr + dc * dc) / sigma2).exp(), 0.0));
            }
        }
        f
    })
}

fn arb_depthmap() -> impl Strategy<Value = DepthMap> {
    prop::collection::vec((0.0f64..1.0, 0.004f64..0.01), 16 * 16).prop_map(|cells| {
        let amp: Vec<f64> =
            cells.iter().map(|&(a, _)| if a > 0.6 { a } else { 0.0 }).collect();
        let depth: Vec<f64> = cells.iter().map(|&(_, d)| d).collect();
        DepthMap::new(16, 16, amp, depth).expect("generated buffers are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Angular-spectrum propagation approximately conserves energy for
    /// band-limited fields, at any modest distance.
    #[test]
    fn asm_conserves_energy(field in arb_smooth_field(), z_um in 100.0f64..4000.0) {
        let z = z_um * 1e-6;
        let e0 = field.total_energy();
        prop_assume!(e0 > 1e-6);
        let out = Propagator::new().propagate(&field, z);
        let e1 = out.total_energy();
        prop_assert!((e0 - e1).abs() / e0 < 0.05, "energy {e0} -> {e1} at z={z}");
    }

    /// Fresnel propagation is exactly unitary for any field and distance.
    #[test]
    fn fresnel_is_unitary(field in arb_smooth_field(), z_um in -4000.0f64..4000.0) {
        let z = z_um * 1e-6;
        let e0 = field.total_energy();
        let out = FresnelPropagator::new().propagate(&field, z);
        prop_assert!((out.total_energy() - e0).abs() <= 1e-9 * e0.max(1.0));
    }

    /// Forward-then-backward propagation recovers the field (reciprocity).
    #[test]
    fn propagation_reciprocity(field in arb_smooth_field(), z_um in 100.0f64..3000.0) {
        let z = z_um * 1e-6;
        let mut prop = Propagator::new();
        let fwd = prop.propagate(&field, z);
        let back = prop.propagate(&fwd, -z);
        let err: f64 = back
            .samples()
            .iter()
            .zip(field.samples())
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum();
        prop_assert!(err / field.total_energy().max(1e-9) < 0.02);
    }

    /// Depthmap slicing conserves lit pixels and energy for any map and any
    /// plane count, and never moves a pixel outside the depth range.
    #[test]
    fn slicing_conserves_content(dm in arb_depthmap(), planes in 1usize..24) {
        let stack = dm.slice(planes, OpticalConfig::default());
        prop_assert_eq!(stack.len(), planes);
        prop_assert_eq!(stack.lit_pixel_count(), dm.lit_pixel_count());
        let stack_energy: f64 = stack.iter().map(|p| p.field.total_energy()).sum();
        let map_energy: f64 = dm.amplitude().iter().map(|a| a * a).sum();
        prop_assert!((stack_energy - map_energy).abs() < 1e-9 * map_energy.max(1.0));
        if let Some((near, far)) = dm.depth_range() {
            for plane in stack.iter() {
                prop_assert!(plane.z >= near - 1e-12 && plane.z <= far + 1e-12);
            }
        }
    }

    /// Algorithm 1's instrumentation is exact: propagation counts equal the
    /// plane count per step, sync counts follow the algorithm structure.
    #[test]
    fn algorithm1_instrumentation(dm in arb_depthmap(), planes in 1usize..12) {
        let result = algorithm1::depthmap_hologram(
            &dm,
            planes,
            OpticalConfig::default(),
            &ExecutionContext::serial(),
        );
        prop_assert_eq!(result.stats.plane_count, planes);
        prop_assert_eq!(result.stats.forward_propagations, planes);
        prop_assert_eq!(result.stats.backward_propagations, planes);
        prop_assert_eq!(result.stats.intra_block_syncs, 2 * planes);
        prop_assert_eq!(result.stats.inter_block_syncs, 2);
        prop_assert_eq!(result.stats.pixels_per_plane, 256);
    }

    /// Phase quantization error is bounded by half a step for any field.
    #[test]
    fn quantization_error_is_bounded(field in arb_smooth_field(), bits in 1u32..10) {
        let shifted = {
            // Give the field non-trivial phases.
            let mut f = field.clone();
            for (i, s) in f.samples_mut().iter_mut().enumerate() {
                *s *= Complex64::cis(i as f64 * 0.13);
            }
            f
        };
        let q = phase::quantize_phase(&shifted, bits);
        let step = 2.0 * std::f64::consts::PI / (1u64 << bits) as f64;
        for (a, b) in shifted.samples().iter().zip(q.samples()) {
            if a.norm() > 1e-9 {
                let mut d = (a.arg() - b.arg()).abs();
                if d > std::f64::consts::PI {
                    d = 2.0 * std::f64::consts::PI - d;
                }
                prop_assert!(d <= step / 2.0 + 1e-9);
            }
        }
    }

    /// Phase-only encodings always emit unit-amplitude (or dark) samples.
    #[test]
    fn encodings_are_phase_only(field in arb_smooth_field(), use_double in any::<bool>()) {
        let encoding =
            if use_double { PhaseEncoding::DoublePhase } else { PhaseEncoding::PhaseExtraction };
        let encoded = phase::encode_phase_only(&field, encoding);
        for s in encoded.samples() {
            let r = s.norm();
            prop_assert!(r == 0.0 || (r - 1.0).abs() < 1e-9);
        }
    }

    /// Region coverage is always in [0, 1] and monotone under containment.
    #[test]
    fn region_coverage_bounds(
        row in 0usize..40, col in 0usize..40,
        rows in 1usize..30, cols in 1usize..30,
    ) {
        let window = Region::new(5, 5, 20, 20);
        let obj = Region::new(row, col, rows, cols);
        let cov = window.coverage_of(&obj);
        prop_assert!((0.0..=1.0).contains(&cov));
        // A bigger window covers at least as much.
        let bigger = Region::new(0, 0, 40, 40);
        prop_assert!(bigger.coverage_of(&obj) >= cov);
    }

    /// Clipping to a region never increases energy, and full-region clipping
    /// is the identity.
    #[test]
    fn clipping_energy(field in arb_smooth_field(), row in 0usize..16, size in 1usize..32) {
        let clipped = subhologram::clip_to_region(&field, Region::new(row, row, size, size));
        prop_assert!(clipped.total_energy() <= field.total_energy() + 1e-12);
        let full = subhologram::clip_to_region(&field, Region::full(32, 32));
        prop_assert_eq!(full.total_energy(), field.total_energy());
    }
}

// ---------------------------------------------------------------------------
// Parallel propagation: batch fan-out and intra-FFT parallelism must be
// invisible in the numbers — bit-identical to the serial path for every
// worker count, shape (Bluestein sizes included) and distance.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `propagate_batch` matches the serial `propagate` loop bit-for-bit.
    #[test]
    fn propagate_batch_is_bit_identical(
        field in arb_smooth_field(),
        zs_um in prop::collection::vec(-4000.0f64..4000.0, 1..=6),
        workers in prop::sample::select(vec![1usize, 2, 7]),
    ) {
        let zs: Vec<f64> = zs_um.iter().map(|&um| um * 1e-6).collect();
        let serial: Vec<Field> = {
            let mut p = Propagator::new();
            zs.iter().map(|&z| p.propagate(&field, z)).collect()
        };
        let mut p = Propagator::with_parallelism(Parallelism::new(workers));
        let batch = p.propagate_batch(&field, &zs);
        prop_assert_eq!(batch.len(), serial.len());
        for (a, b) in batch.iter().zip(&serial) {
            prop_assert_eq!(a.samples(), b.samples());
        }
    }

    /// `propagate_sum` equals the spatial sum of serial propagations up to
    /// rounding, and is bit-identical across worker counts.
    #[test]
    fn propagate_sum_matches_the_spatial_sum(
        fields in prop::collection::vec(arb_smooth_field(), 1..=5),
        zs_um in prop::collection::vec(-4000.0f64..4000.0, 5),
    ) {
        let tol = 1e-9;
        let zs: Vec<f64> = zs_um.iter().take(fields.len()).map(|&um| um * 1e-6).collect();
        let mut serial = Propagator::new();
        let mut want = Field::zeros(32, 32, OpticalConfig::default());
        for (field, &z) in fields.iter().zip(&zs) {
            want.accumulate(&serial.propagate(field, z));
        }
        let sums: Vec<Field> = [1usize, 2, 7]
            .iter()
            .map(|&workers| {
                Propagator::with_parallelism(Parallelism::new(workers))
                    .propagate_sum(&fields, &zs)
            })
            .collect();
        let err: f64 = sums[0]
            .samples()
            .iter()
            .zip(want.samples())
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum();
        prop_assert!(
            err.sqrt() <= tol * want.total_energy().sqrt(),
            "‖sum − Σ propagate‖ = {} vs ‖Σ propagate‖ = {}",
            err.sqrt(),
            want.total_energy().sqrt()
        );
        for sum in &sums[1..] {
            prop_assert_eq!(sum.samples(), sums[0].samples());
        }
    }

    /// A single propagation on a multi-worker propagator is bit-identical
    /// to the serial one for arbitrary (non-power-of-two included) shapes.
    #[test]
    fn parallel_propagation_any_shape_is_bit_identical(
        rows in 3usize..20,
        cols in 3usize..20,
        z_um in -3000.0f64..3000.0,
        workers in prop::sample::select(vec![2usize, 7]),
    ) {
        let cfg = OpticalConfig::default();
        let mut f = Field::zeros(rows, cols, cfg);
        for r in 0..rows {
            for c in 0..cols {
                let i = (r * cols + c) as f64;
                f.set(r, c, Complex64::new((i * 0.31).sin(), ((r + c) as f64 * 0.17).cos()));
            }
        }
        let z = z_um * 1e-6;
        let want = Propagator::new().propagate(&f, z);
        let got =
            Propagator::with_parallelism(Parallelism::new(workers)).propagate(&f, z);
        prop_assert_eq!(got.samples(), want.samples());
    }
}

// ---------------------------------------------------------------------------
// Telemetry is observation only: enabling `full` tracing must not change a
// single bit of the optical output, serial or parallel.
// ---------------------------------------------------------------------------

#[test]
fn full_telemetry_does_not_change_gsw_output() {
    use holoar_optics::{gsw, GswConfig};

    let n = 32;
    let mut amp = vec![0.0; n * n];
    let mut depth = vec![0.01; n * n];
    for &(r, c, z) in &[(8usize, 8usize, 0.01f64), (24, 24, 0.02), (16, 8, 0.03)] {
        amp[r * n + c] = 1.0;
        depth[r * n + c] = z;
    }
    let dm = DepthMap::new(n, n, amp, depth).unwrap();
    let cfg = OpticalConfig::default();
    let gsw_cfg = GswConfig { iterations: 3, adaptivity: 1.0 };
    let quiet = gsw::run(&dm.slice(3, cfg), cfg, gsw_cfg, &ExecutionContext::serial());

    let previous = holoar_telemetry::mode();
    holoar_telemetry::set_mode(holoar_telemetry::TelemetryMode::Full);
    let traced_serial = gsw::run(&dm.slice(3, cfg), cfg, gsw_cfg, &ExecutionContext::serial());
    let traced_results: Vec<_> = [1usize, 2, 7]
        .iter()
        .map(|&w| gsw::run(&dm.slice(3, cfg), cfg, gsw_cfg, &ExecutionContext::with_workers(w)))
        .collect();
    holoar_telemetry::set_mode(previous);

    assert_eq!(traced_serial.hologram.samples(), quiet.hologram.samples());
    assert_eq!(traced_serial.uniformity.to_bits(), quiet.uniformity.to_bits());
    for (w, traced) in [1usize, 2, 7].iter().zip(&traced_results) {
        assert_eq!(traced.hologram.samples(), quiet.hologram.samples(), "workers {w}");
        assert_eq!(traced.efficiency.to_bits(), quiet.efficiency.to_bits(), "workers {w}");
    }
}
