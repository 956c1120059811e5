//! Angular-spectrum propagation benchmarks: the HP2DP/DP2HP kernel of the
//! quality path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use holoar_fft::Complex64;
use holoar_optics::{Field, OpticalConfig, Propagator};
use std::hint::black_box;

fn gaussian(n: usize) -> Field {
    let cfg = OpticalConfig::default();
    let mut f = Field::zeros(n, n, cfg);
    for r in 0..n {
        for c in 0..n {
            let dr = r as f64 - n as f64 / 2.0;
            let dc = c as f64 - n as f64 / 2.0;
            f.set(r, c, Complex64::new((-(dr * dr + dc * dc) / 40.0).exp(), 0.0));
        }
    }
    f
}

fn bench_propagate(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagate");
    for n in [64usize, 128, 256] {
        let field = gaussian(n);
        let mut prop = Propagator::new();
        prop.propagate(&field, 0.002); // warm the transfer-function cache
        group.bench_with_input(BenchmarkId::new("cached_tf", n), &n, |b, _| {
            b.iter(|| prop.propagate(black_box(&field), 0.002))
        });
    }
    group.finish();
}

fn bench_transfer_build(c: &mut Criterion) {
    // First-propagation cost including transfer-function construction, at
    // the `serve` (40), `hologram` (64) and a larger shape.
    let mut group = c.benchmark_group("propagate");
    for n in [40usize, 64, 128] {
        let field = gaussian(n);
        group.bench_with_input(BenchmarkId::new("cold_tf", n), &n, |b, _| {
            b.iter(|| {
                let mut prop = Propagator::new();
                prop.propagate(black_box(&field), 0.0017)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_propagate, bench_transfer_build);
criterion_main!(benches);
