//! The paper's Fig 1a scenario: an AR user watches traffic while the headset
//! replaces each physical car with a virtual hologram, in real time, on a
//! battery.
//!
//! This example runs a synthetic "highway" session (far, large, fast-ish
//! objects — bike-video-like statistics) under all four configurations and
//! reports what the user experiences: frame rate, power draw and how long
//! the battery lasts.
//!
//! Run with: `cargo run --release --example ar_driving`

use holoar::core::{evaluation, Scheme};
use holoar::gpusim::Device;
use holoar::pipeline::Battery;
use holoar::sensors::objectron::VideoCategory;

fn main() {
    let frames = 150;
    let seed = 2026;
    println!("AR driving session: {frames} frames of highway traffic (bike-like statistics)\n");

    let device = Device::xavier();
    let battery = Battery::headset();
    let mut baseline_latency = None;

    println!(
        "{:<18} {:>8} {:>9} {:>10} {:>10} {:>9}",
        "config", "fps", "power W", "energy mJ", "battery h", "speedup"
    );
    for scheme in Scheme::ALL {
        let result = evaluation::evaluate_video(&device, VideoCategory::Bike, scheme, frames, seed);
        let base = *baseline_latency.get_or_insert(result.mean_latency);
        println!(
            "{:<18} {:>8.2} {:>9.2} {:>10.0} {:>10.1} {:>8.2}x",
            scheme.name(),
            1.0 / result.mean_latency,
            result.mean_power,
            result.mean_energy * 1e3,
            battery.runtime_hours(result.mean_power),
            base / result.mean_latency
        );
    }

    println!("\nNow the same user at a desk full of small objects (shoe-like statistics),");
    println!("where HoloAR has the most room to approximate:\n");
    let mut baseline_latency = None;
    println!(
        "{:<18} {:>8} {:>9} {:>10} {:>10} {:>9}",
        "config", "fps", "power W", "energy mJ", "battery h", "speedup"
    );
    for scheme in Scheme::ALL {
        let result = evaluation::evaluate_video(&device, VideoCategory::Shoe, scheme, frames, seed);
        let base = *baseline_latency.get_or_insert(result.mean_latency);
        println!(
            "{:<18} {:>8.2} {:>9.2} {:>10.0} {:>10.1} {:>8.2}x",
            scheme.name(),
            1.0 / result.mean_latency,
            result.mean_power,
            result.mean_energy * 1e3,
            battery.runtime_hours(result.mean_power),
            base / result.mean_latency
        );
    }

    println!("\nThe paper's Fig 7 pattern: large lone objects (bike) gain the least,");
    println!("cluttered scenes of small objects (shoe) gain the most.");
}
