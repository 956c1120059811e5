//! FFT substrate micro-benchmarks: the 2-D transforms every propagation
//! performs, across 2·3·5-smooth sizes (the mixed-radix plan: powers of two
//! for hologram planes, 40 the quality sampler's size, 480 an Objectron
//! frame edge) and prime (Bluestein) sizes.
//!
//! `fft_2d` feeds purely real fields, so it times the packed real-row
//! forward. GSW sweeps mostly run complex forwards and inverses, which
//! `fft_2d_complex` times at the two shapes the serving and hologram paths
//! use, together with the two pruned transforms GSW and the quality
//! composite spend most of their FFT time in: `inverse_window` over a
//! 15-column window, and `forward_sparse` on a field lit in one band of
//! rows, whose all-zero rows the row pass skips.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use holoar_fft::{Complex64, Fft2d, FftPlanner};
use std::hint::black_box;

fn bench_fft_1d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_1d");
    for n in [256usize, 512, 480, 509, 1024] {
        let plan = FftPlanner::new().plan(n);
        let signal: Vec<Complex64> =
            (0..n).map(|i| Complex64::new((i as f64).sin(), 0.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut buf = signal.clone();
                plan.forward(black_box(&mut buf));
                buf
            })
        });
    }
    group.finish();
}

fn bench_fft_2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_2d");
    for n in [40usize, 64, 128, 256, 480] {
        let fft = Fft2d::new(n, n);
        let field: Vec<Complex64> =
            (0..n * n).map(|i| Complex64::new((i as f64 * 0.1).cos(), 0.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut buf = field.clone();
                fft.forward(black_box(&mut buf));
                buf
            })
        });
    }
    group.finish();
}

/// One timed 2-D transform of a buffer, in place.
type Transform = fn(&Fft2d, &mut [Complex64]);

fn bench_fft_2d_complex(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_2d_complex");
    for n in [40usize, 64] {
        let fft = Fft2d::new(n, n);
        let field: Vec<Complex64> = (0..n * n)
            .map(|i| Complex64::new((i as f64 * 0.1).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let band = n / 4..n / 4 + n / 8;
        let sparse: Vec<Complex64> = field
            .iter()
            .enumerate()
            .map(|(i, &z)| if band.contains(&(i / n)) { z } else { Complex64::ZERO })
            .collect();
        let transforms: [(&str, &[Complex64], Transform); 4] = [
            ("forward", &field, |fft, buf| fft.forward(buf)),
            ("inverse", &field, |fft, buf| fft.inverse(buf)),
            ("inverse_window", &field, |fft, buf| fft.inverse_window(buf, 7..22)),
            ("forward_sparse", &sparse, |fft, buf| fft.forward(buf)),
        ];
        for (name, input, transform) in transforms {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let mut buf = input.to_vec();
                    transform(&fft, black_box(&mut buf));
                    buf
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fft_1d, bench_fft_2d, bench_fft_2d_complex);
criterion_main!(benches);
