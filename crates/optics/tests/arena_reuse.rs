//! Buffer reuse across propagation calls, read off the `fft.arena.take.*`
//! counters of the transforms' scratch and the `optics.pool.take.*`
//! counters of the sweeps' full-grid pools.
//!
//! Every propagation sweep runs its per-plane transforms on clones of the
//! propagator's cached `Fft2d` for the shape, which share its scratch
//! arena, and draws its full-grid spectra, products and sum terms from the
//! pool cached next to that transform. Once the first calls have grown
//! both, later calls allocate from neither. Counter capture is
//! process-wide, so this check lives in its own test binary and runs as
//! one test.

use holoar_fft::{Complex64, ExecutionContext};
use holoar_optics::{gsw, Field, GswConfig, OpticalConfig, Propagator, VirtualObject};
use holoar_telemetry::TelemetryMode;

/// Takes with `outcome` (`alloc` or `reuse`) from the transforms' scratch
/// and from the full-grid pools.
fn takes(outcome: &str) -> (u64, u64) {
    holoar_telemetry::collector::with_registry(|r| {
        let count = |pool: &str| r.counter(&format!("{pool}.take.{outcome}"));
        (count("fft.arena"), count("optics.pool"))
    })
}

#[test]
fn repeated_propagations_take_no_new_arena_allocations() {
    let previous = holoar_telemetry::mode();
    holoar_telemetry::set_mode(TelemetryMode::Full);
    holoar_telemetry::reset();
    let cfg = OpticalConfig::default();
    let mut source = Field::zeros(32, 32, cfg);
    source.set(16, 16, Complex64::ONE);
    let zs = [5e-4, 1e-3, 1.5e-3];
    let planes = vec![source.clone(); zs.len()];

    // A 64×64 plane stack through the pooled sweeps: the windowed visitor,
    // the in-place spectral sum and the whole GSW loop.
    let stack = VirtualObject::Dice.render(64, 64, 0.006, 0.002).slice(6, cfg);
    let stack_zs: Vec<f64> = stack.iter().map(|p| p.z).collect();
    let mut windows = [3..40, 0..0, 10..11, 0..64, 20..30, 63..64];
    let mut hologram = Field::zeros(64, 64, cfg);
    let ctx = ExecutionContext::serial();
    let mut prop = Propagator::with_context(&ctx);
    let mut sweep = |prop: &mut Propagator, hologram: &mut Field| {
        prop.propagate_batch(&source, &zs);
        prop.propagate_sum(&planes, &zs);
        let field = &stack.plane(2).field;
        prop.propagate_batch_window(field, &stack_zs, &mut windows, |w| w.clone(), true, |w, e, u| {
            u[w.clone()].len() as f64 + e.unwrap_or_default()
        });
        prop.propagate_sum_from(&stack_zs, hologram, |i, buf| {
            buf.copy_from_slice(stack.plane(i).field.samples());
        });
        gsw::run(&stack, cfg, GswConfig::default(), &ctx);
    };
    sweep(&mut prop, &mut hologram);
    let warm = takes("alloc");
    assert!(warm.0 > 0 && warm.1 > 0, "the first calls must fill both pools: {warm:?}");
    let mut reused = Vec::new();
    for _ in 0..3 {
        let before = takes("reuse");
        sweep(&mut prop, &mut hologram);
        let after = takes("reuse");
        reused.push((after.0 - before.0, after.1 - before.1));
    }
    assert_eq!(takes("alloc"), warm, "later calls must reuse the pooled buffers");
    // Every sweep draws the same buffers from each pool, and well over one
    // full-grid buffer per plane.
    assert!(
        reused.iter().all(|&n| n == reused[0] && n.1 > 6 * 10),
        "reuses per sweep (scratch, grid): {reused:?}"
    );
    holoar_telemetry::set_mode(previous);
}
