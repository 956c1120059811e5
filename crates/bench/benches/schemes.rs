//! End-to-end scheme evaluation: one (video, scheme) cell of Fig 7 per
//! iteration, exercising planner + executor + sensors together.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use holoar_core::{evaluation, Scheme};
use holoar_gpusim::Device;
use holoar_sensors::objectron::VideoCategory;
use std::hint::black_box;

fn bench_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate_video_20_frames");
    group.sample_size(10);
    for scheme in Scheme::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.name()),
            &scheme,
            |b, &s| {
                b.iter(|| {
                    let device = Device::xavier();
                    evaluation::evaluate_video(&device, black_box(VideoCategory::Shoe), s, 20, 9)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
