//! Quickstart: generate a hologram of a virtual object, approximate it, and
//! measure what the approximation costs in quality and buys in compute.
//!
//! Run with: `cargo run --release --example quickstart`

use holoar::core::{quality, HoloArConfig};
use holoar::gpusim::{Device, HologramJob};
use holoar::metrics::ACCEPTABLE_PSNR_DB;
use holoar::optics::{algorithm1, reconstruct, ExecutionContext, OpticalConfig, Propagator, VirtualObject};
use holoar::sensors::angles::AngularPoint;
use holoar::sensors::objectron::ObjectAnnotation;

fn main() {
    // --- 1. A virtual object and its depthmap -----------------------------
    let optics = OpticalConfig::default();
    let ctx = ExecutionContext::serial();
    let depthmap = VirtualObject::Planet.render(64, 64, 0.006, 0.003);
    println!(
        "Planet depthmap: {} lit pixels, depth range {:?} m",
        depthmap.lit_pixel_count(),
        depthmap.depth_range().unwrap()
    );

    // --- 2. The full 16-plane hologram (Algorithm 1) ----------------------
    let full = algorithm1::depthmap_hologram(&depthmap, 16, optics, &ctx);
    println!(
        "16-plane hologram: {} propagations, {} intra-block syncs",
        full.stats.total_propagations(),
        full.stats.intra_block_syncs
    );

    // --- 3. Numerical reconstruction --------------------------------------
    let mut prop = Propagator::new();
    let image = reconstruct::reconstruct_intensity(&full.hologram, 0.006, &mut prop);
    let peak = image.iter().cloned().fold(0.0, f64::max);
    println!("reconstruction at 6 mm: peak intensity {peak:.3}");

    // --- 4. What does approximation cost optically? -----------------------
    let object = ObjectAnnotation {
        track_id: 3, // maps to the Planet hologram
        direction: AngularPoint::CENTER,
        distance: 0.6,
        size: 0.25,
    };
    let config = HoloArConfig::default();
    println!("\nplane budget -> PSNR vs the 16-plane baseline:");
    for planes in [12u32, 8, 4, 2] {
        let psnr = quality::object_psnr(&object, planes, &config, &ctx);
        println!(
            "  {planes:>2} planes: {psnr:>5.1} dB {}",
            if psnr >= ACCEPTABLE_PSNR_DB { "(acceptable for AR)" } else { "" }
        );
    }

    // --- 5. And what does it buy on the edge GPU? -------------------------
    let device = Device::xavier();
    println!("\nplane budget -> modeled edge-GPU cost (512², 5 GSW iterations):");
    let baseline = device.pricer().cost(&HologramJob::full(16));
    for planes in [16u32, 8, 4] {
        let job = device.pricer().cost(&HologramJob::full(planes));
        println!(
            "  {planes:>2} planes: {:>6.1} ms, {:.2} W, {:.0} mJ ({:.2}x speedup)",
            job.latency * 1e3,
            job.rails.total(),
            job.energy * 1e3,
            baseline.latency / job.latency
        );
    }
    println!("\nHoloAR's whole premise in one line: far/unattended objects can drop");
    println!("planes (right column shrinks) long before the PSNR column hurts.");
}
