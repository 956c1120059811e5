//! Transform counts of the spectral propagation paths, read off the
//! `fft.fft2d.*` spans.
//!
//! Each source field is transformed once: `propagate_batch` over `n`
//! distances runs `n + 1` 2-D transforms, and a GSW iteration over `P` lit
//! planes runs `2P + 2`, however many dark planes the stack also has. Span
//! capture is process-wide, so these checks live
//! in their own test binary and run as one test.

use holoar_fft::{Complex64, ExecutionContext};
use holoar_optics::{gsw, DepthMap, Field, GswConfig, OpticalConfig, Propagator, VirtualObject};
use holoar_telemetry::TelemetryMode;

/// The `fft.fft2d.*` spans `work` records.
fn transforms_in(work: impl FnOnce()) -> usize {
    holoar_telemetry::reset();
    work();
    holoar_telemetry::span_snapshot()
        .iter()
        .filter(|s| s.name.starts_with("fft.fft2d."))
        .count()
}

#[test]
fn each_source_is_transformed_once() {
    let previous = holoar_telemetry::mode();
    holoar_telemetry::set_mode(TelemetryMode::Full);
    let cfg = OpticalConfig::default();

    let mut source = Field::zeros(32, 32, cfg);
    source.set(16, 16, Complex64::ONE);
    for n in 1..=6usize {
        let zs: Vec<f64> = (1..=n).map(|i| i as f64 * 5e-4).collect();
        let mut prop = Propagator::new();
        let count = transforms_in(|| {
            prop.propagate_batch(&source, &zs);
        });
        assert_eq!(count, n + 1, "propagate_batch over {n} distances");
    }

    let iterations = 5;
    for planes in [1usize, 2, 4] {
        let stack = VirtualObject::Dice.render(32, 32, 0.006, 0.002).slice(planes, cfg);
        assert!(
            stack.iter().all(|p| p.lit_pixels > 0 && p.z != 0.0),
            "every plane of the {planes}-plane stack must be lit"
        );
        let gsw_cfg = GswConfig { iterations, adaptivity: 1.0 };
        let count = transforms_in(|| {
            gsw::run(&stack, cfg, gsw_cfg, &ExecutionContext::serial());
        });
        assert_eq!(count, iterations * (2 * planes + 2), "GSW over {planes} lit planes");
    }

    // Spots at the near and far depths of a three-plane slice leave the
    // middle plane dark. A dark plane costs no transform in either sweep,
    // so an iteration still runs `2P + 2` over the `P` lit planes.
    let n = 32;
    let (mut amp, mut depth) = (vec![0.0; n * n], vec![0.01; n * n]);
    for (r, c, z) in [(8, 8, 0.01), (24, 24, 0.03), (16, 8, 0.01)] {
        amp[r * n + c] = 1.0;
        depth[r * n + c] = z;
    }
    let stack = DepthMap::new(n, n, amp, depth).expect("valid depth map").slice(3, cfg);
    let lit = stack.iter().filter(|p| p.lit_pixels > 0).count();
    assert_eq!((stack.len(), lit), (3, 2), "the middle plane must be dark");
    let gsw_cfg = GswConfig { iterations, adaptivity: 1.0 };
    let count = transforms_in(|| {
        gsw::run(&stack, cfg, gsw_cfg, &ExecutionContext::serial());
    });
    assert_eq!(count, iterations * (2 * lit + 2), "GSW over {lit} lit planes and a dark one");
    holoar_telemetry::set_mode(previous);
}
