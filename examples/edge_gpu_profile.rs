//! Profiling the hologram workload on the simulated edge GPU, the way §3 of
//! the paper profiles it with NVPROF on the Jetson: per-kernel utilization,
//! stall reasons, cache behaviour, the plane-count latency sweep (Fig 4b)
//! and the power-rail breakdown (Fig 8a).
//!
//! Run with: `cargo run --release --example edge_gpu_profile`

use holoar::gpusim::hologram_kernels::{self, HologramJob};
use holoar::gpusim::{calibration, Activity, Device, Profiler};

fn main() {
    let device = Device::xavier();
    println!(
        "device: {} SMs x {} cores @ {:.2} GHz (Jetson-AGX-Xavier-class)\n",
        device.config().sm_count,
        device.config().sm.cores,
        device.config().clock_hz / 1e9
    );

    // --- §3: profile the 16-plane hologram --------------------------------
    let mut profiler = Profiler::new();
    let kernels = hologram_kernels::job_kernels(&HologramJob::full(16));
    for stats in device.execute_all(&kernels) {
        profiler.record(&stats);
    }
    println!("{}", profiler.report());

    // --- Fig 4b: latency vs depth planes -----------------------------------
    println!("latency vs depth planes (512², 5 GSW iterations):");
    println!("{:<8} {:>12} {:>12} {:>12}", "planes", "forward ms", "backward ms", "total ms");
    for planes in [2u32, 4, 8, 16, 32] {
        let (fwd, bwd) = hologram_kernels::step_latencies(
            &device,
            calibration::HOLOGRAM_PIXELS,
            planes,
        );
        println!(
            "{:<8} {:>12.1} {:>12.1} {:>12.1}",
            planes,
            fwd * 1e3,
            bwd * 1e3,
            (fwd + bwd) * 1e3
        );
    }
    println!(
        "\n16 planes ≈ {:.0} ms — the paper's 341.7 ms anchor and its ~10x real-time gap.",
        device.pricer().latency(&HologramJob::full(16)) * 1e3
    );

    // --- Fig 8a: power rails vs planes --------------------------------------
    let power = device.config().power;
    println!("\npower rails vs depth planes (INA3221-style):");
    println!("{:<8} {:>8} {:>8} {:>8} {:>8} {:>8}", "planes", "SoC", "CPU", "GPU", "Mem", "total");
    for planes in [2u32, 4, 8, 12, 16] {
        let rails = power.rails(Activity::for_hologram(planes as f64, &power));
        println!(
            "{:<8} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            planes,
            rails.soc,
            rails.cpu,
            rails.gpu,
            rails.mem,
            rails.total()
        );
    }
    println!("\nSoC/CPU flat, GPU/Mem growing with planes — the Fig 8a breakdown shape.");
}
