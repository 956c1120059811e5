//! Serial vs parallel GSW synthesis across a 16-plane stack — the
//! whole-frame fan-out path (a parallel `ExecutionContext` →
//! `propagate_sum` and `propagate_batch`). Output is bit-identical either
//! way; the bench measures the wall-clock win from propagating independent
//! depth planes concurrently.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use holoar_optics::{gsw, ExecutionContext, GswConfig, OpticalConfig, VirtualObject};
use std::hint::black_box;

const PLANES: usize = 16;

fn bench_gsw_parallel(c: &mut Criterion) {
    let cfg = OpticalConfig::default();
    // Two iterations keep a 512×512×16 sample affordable; the serial:parallel
    // ratio is iteration-count-independent.
    let gsw_cfg = GswConfig { iterations: 2, adaptivity: 1.0 };
    let serial_ctx = ExecutionContext::serial();
    let pooled_ctx = ExecutionContext::auto();
    let mut group = c.benchmark_group("gsw_parallel");
    group.sample_size(10);
    for n in [256usize, 512] {
        let depthmap = VirtualObject::Dice.render(n, n, 0.006, 0.002);
        let stack = depthmap.slice(PLANES, cfg);
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| gsw::run(black_box(&stack), cfg, gsw_cfg, &serial_ctx))
        });
        let label = format!("parallel_x{}", pooled_ctx.parallelism().workers());
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
            b.iter(|| gsw::run(black_box(&stack), cfg, gsw_cfg, &pooled_ctx))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gsw_parallel);
criterion_main!(benches);
