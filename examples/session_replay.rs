//! Record → save → reload → replay: reproducible sessions with degraded
//! sensors and the motion guard.
//!
//! Records a sensing session to a trace file, reloads it, and replays it
//! through the planner three ways: normally, with a simulated eye-tracker
//! dropout, and with the §5.4 motion guard suspending attention-based
//! approximation during saccades.
//!
//! Run with: `cargo run --release --example session_replay`

use holoar::core::{
    executor, quality, ExecutionContext, GazeInput, HoloArConfig, MotionGuard, Planner,
    PoseInput, Scheme, SensorSample,
};
use holoar::gpusim::Device;
use holoar::sensors::objectron::VideoCategory;
use holoar::sensors::trace::SessionTrace;

fn main() {
    // --- Record and persist -------------------------------------------------
    let trace = SessionTrace::record(VideoCategory::Shoe, 90, 7);
    let path = std::env::temp_dir().join("holoar_session.trace");
    std::fs::write(&path, trace.serialize()).expect("trace file is writable");
    println!("recorded {} frames -> {}", trace.len(), path.display());

    let reloaded =
        SessionTrace::parse(&std::fs::read_to_string(&path).expect("trace file readable"))
            .expect("trace round-trips");
    assert_eq!(reloaded, trace);
    println!("reloaded losslessly ({} bytes)\n", trace.serialize().len());

    // --- Replay under three conditions --------------------------------------
    let config = HoloArConfig::for_scheme(Scheme::InterIntraHolo);
    let ctx = ExecutionContext::serial();
    for (name, dropout, guard_on) in [
        ("all sensors healthy", false, false),
        ("eye tracker drops every 3rd frame", true, false),
        ("motion guard active", false, true),
    ] {
        let device = Device::xavier();
        let mut planner = Planner::new(config).expect("valid configuration");
        let mut guard = MotionGuard::new(30.0);
        let mut total = 0.0;
        let mut energy = 0.0;
        let mut planes = 0u64;
        let mut frame_psnr_sum = 0.0;
        let mut frame_psnr_count = 0u32;
        for (i, tf) in reloaded.frames.iter().enumerate() {
            let saccade = guard.observe(tf.gaze);
            let gaze = if (dropout && i % 3 == 0) || (guard_on && saccade) {
                GazeInput::Lost // tracker dropout or stale-RoF hold
            } else {
                GazeInput::tracked(tf.gaze)
            };
            let sensors = SensorSample { pose: PoseInput::Tracked(tf.pose), gaze };
            let plan = planner.plan_frame_with(&tf.frame, &sensors);
            if let Some(p) = quality::frame_psnr(&plan.items, &config, &ctx) {
                if p.is_finite() {
                    frame_psnr_sum += p;
                    frame_psnr_count += 1;
                }
            }
            let perf = executor::execute_plan(&device, &plan);
            total += perf.latency;
            energy += perf.energy;
            planes += perf.planes as u64;
        }
        let n = reloaded.len() as f64;
        println!("{name}:");
        println!(
            "  latency {:.1} ms/frame, energy {:.0} mJ/frame, {:.1} planes/frame{}",
            total / n * 1e3,
            energy / n * 1e3,
            planes as f64 / n,
            if frame_psnr_count > 0 {
                format!(
                    ", lossy-frame PSNR {:.1} dB",
                    frame_psnr_sum / frame_psnr_count as f64
                )
            } else {
                String::new()
            }
        );
    }
    println!("\nSensor loss costs performance (more planes computed), never quality —");
    println!("the planner falls back toward the baseline when it cannot see.");
}
