//! GPU-simulator benchmarks: per-kernel model evaluation cost and the
//! modeled Fig 4b plane sweep (reported via the measured *model* output, not
//! wall time — wall time here is the simulator's own overhead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use holoar_gpusim::hologram_kernels::{propagation_kernel, HologramJob, Step};
use holoar_gpusim::{Device, DeviceSpec, JobPricer};
use std::hint::black_box;

fn bench_kernel_model(c: &mut Criterion) {
    let device = Device::xavier();
    let kernel = propagation_kernel(Step::Forward, 512 * 512);
    c.bench_function("gpusim/execute_one_kernel", |b| {
        b.iter(|| device.execute(black_box(&kernel)))
    });
}

fn bench_job_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpusim_job_planes");
    for planes in [2u32, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(planes), &planes, |b, &p| {
            let device = Device::xavier();
            b.iter(|| device.pricer().cost(black_box(&HologramJob::full(p))))
        });
    }
    group.finish();
}

/// One serve tick's occupancy timeline in perfbench `serve`'s shape: six
/// 64² sessions on a 4-SM edge device, at full quality, stepped down, and
/// with half the sessions deferred.
fn bench_session_occupancy(c: &mut Criterion) {
    let fleet = |planes: [u32; 6], coverage: [f64; 6]| -> Vec<HologramJob> {
        planes
            .iter()
            .zip(coverage)
            .map(|(&plane_count, coverage)| HologramJob {
                pixels: 64 * 64,
                plane_count,
                coverage,
                gsw_iterations: 5,
            })
            .collect()
    };
    let mixes = [
        ("full", fleet([12, 9, 16, 7, 11, 14], [1.0, 0.62, 0.85, 0.4, 1.0, 0.73])),
        ("stepped", fleet([4, 6, 2, 3, 5, 3], [0.9, 0.55, 1.0, 0.35, 0.8, 0.6])),
        ("deferred", fleet([12, 0, 9, 0, 0, 7], [1.0, 1.0, 0.7, 1.0, 1.0, 0.45])),
    ];
    let pricer = JobPricer::new(&DeviceSpec::edge().sm_count(4).config());
    let mut group = c.benchmark_group("gpusim/session_occupancy");
    for (name, jobs) in &mixes {
        group.bench_with_input(BenchmarkId::from_parameter(name), jobs, |b, jobs| {
            b.iter(|| pricer.occupancy(black_box(jobs)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_model, bench_job_sweep, bench_session_occupancy);
criterion_main!(benches);
