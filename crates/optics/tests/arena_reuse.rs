//! Scratch-arena reuse across propagation calls, read off the
//! `fft.arena.take.alloc` counter.
//!
//! `propagate_batch` and `propagate_sum` run every per-plane transform on
//! clones of the propagator's cached `Fft2d` for the shape; the clones
//! share one scratch arena, so once the first call has grown the pool,
//! later calls allocate no scratch. Counter capture is process-wide, so
//! this check lives in its own test binary and runs as one test.

use holoar_fft::{Complex64, ExecutionContext};
use holoar_optics::{Field, OpticalConfig, Propagator};
use holoar_telemetry::TelemetryMode;

fn arena_allocations() -> u64 {
    holoar_telemetry::collector::with_registry(|r| r.counter("fft.arena.take.alloc"))
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

    let mut prop = Propagator::with_context(&ExecutionContext::serial());
    prop.propagate_batch(&source, &zs);
    prop.propagate_sum(&planes, &zs);
    let warm = arena_allocations();
    assert!(warm > 0, "the first calls must fill the arena");
    for _ in 0..3 {
        prop.propagate_batch(&source, &zs);
        prop.propagate_sum(&planes, &zs);
    }
    assert_eq!(arena_allocations(), warm, "later calls must reuse the pooled scratch");
    holoar_telemetry::set_mode(previous);
}
