//! Foveated-rendering sensitivity study: how hard can Inter-Holo's α be
//! pushed before quality drops below what AR applications tolerate?
//!
//! Reproduces the paper's Fig 10b trade-off, and first shows the user-level
//! behaviour the scheme relies on — Fig 3b's gaze temporal locality.
//!
//! Run with: `cargo run --release --example foveated_study`

use holoar::core::{evaluation, quality, ExecutionContext, HoloArConfig, Planner, Scheme};
use holoar::gpusim::Device;
use holoar::metrics::ACCEPTABLE_PSNR_DB;
use holoar::sensors::objectron::VideoCategory;
use holoar::sensors::stats::gaze_study;

fn main() {
    // --- The behavioural premise: gaze stays put ---------------------------
    println!("gaze temporal locality (10 s @ 30 Hz, 5° radius, 1 s windows):");
    for user in gaze_study(11, 10.0) {
        println!(
            "  User{}: {:.0}% of samples within the running region of focus",
            user.user,
            user.locality * 100.0
        );
    }
    println!("  -> a tracked 5° region of focus is stable enough to plan by\n");

    // --- The α sweep: quality vs plane budget -----------------------------
    let alphas = [0.125, 0.25, 0.375, 0.5, 0.75];
    println!("alpha sweep (Inter-Intra-Holo), quality path:");
    println!("{:<8} {:>14} {:>18}", "alpha", "mean PSNR dB", "planes/object");
    for point in quality::alpha_sweep(&alphas, 3, 11, &ExecutionContext::serial()) {
        println!(
            "{:<8.3} {:>14.1} {:>18.1} {}",
            point.alpha,
            point.mean_psnr,
            point.mean_planes,
            if point.mean_psnr >= ACCEPTABLE_PSNR_DB { "" } else { "  <- below 30 dB" }
        );
    }

    // --- And the performance side of the same sweep ------------------------
    println!("\nalpha sweep, performance path (shoe video, 80 frames):");
    println!("{:<8} {:>12} {:>12} {:>14}", "alpha", "latency ms", "power W", "energy mJ");
    let device = Device::xavier();
    for &alpha in &alphas {
        let config = HoloArConfig::for_scheme(Scheme::InterIntraHolo).with_alpha(alpha);
        let mut planner = Planner::new(config).expect("valid configuration");
        let result =
            evaluation::evaluate_with_planner(&device, &mut planner, VideoCategory::Shoe, 80, 11);
        println!(
            "{:<8.3} {:>12.1} {:>12.2} {:>14.0}",
            alpha,
            result.mean_latency * 1e3,
            result.mean_power,
            result.mean_energy * 1e3
        );
    }
    println!("\nThe paper settles on alpha = 0.5: substantial savings, quality intact.");
}
