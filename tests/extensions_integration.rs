//! Integration tests for the extension features: the event-driven
//! timeline, the viewport compositor, trace replay determinism, and the
//! motion/application guards.

use holoar::core::{render_view, ExecutionContext, HoloArConfig, MotionGuard, Planner, Scheme};
use holoar::gpusim::timeline::{plane_stream_ops, simulate};
use holoar::gpusim::{Device, DeviceConfig};
use holoar::sensors::angles::{deg, AngularPoint};
use holoar::sensors::objectron::VideoCategory;
use holoar::sensors::trace::SessionTrace;

#[test]
fn timeline_makespan_is_consistent_with_closed_form_scale() {
    // The event-driven simulator and the closed-form device model measure
    // the same workload; their 16-plane sweeps should agree within tens of
    // percent (the timeline has no drain tails between fused waves).
    let cfg = DeviceConfig::default();
    let timeline = simulate(&plane_stream_ops(512 * 512, 16), &cfg);
    let device = Device::xavier();
    let closed_form: f64 = holoar::gpusim::hologram_kernels::step_latencies(
        &device,
        512 * 512,
        16,
    )
    .0 / 5.0 // one sweep's forward half (step_latencies runs 5 GSW iterations)
        + holoar::gpusim::hologram_kernels::step_latencies(&device, 512 * 512, 16).1 / 5.0;
    let ratio = timeline.makespan / closed_form;
    assert!(
        (0.5..1.5).contains(&ratio),
        "timeline {:.1} ms vs closed-form sweep {:.1} ms",
        timeline.makespan * 1e3,
        closed_form * 1e3
    );
}

#[test]
fn composed_view_dims_with_approximation_but_never_disappears() {
    let mut base_planner = Planner::new(HoloArConfig::for_scheme(Scheme::Baseline)).unwrap();
    let mut holo_planner =
        Planner::new(HoloArConfig::for_scheme(Scheme::InterIntraHolo)).unwrap();
    let frame = holoar::sensors::objectron::FrameGenerator::new(VideoCategory::Book, 3)
        .nth(5)
        .expect("frames stream forever");
    let pose = holoar::sensors::pose::PoseEstimate {
        orientation: AngularPoint::CENTER,
        latency: 0.01375,
    };
    let gaze = frame.objects.first().map(|o| o.direction).unwrap_or(AngularPoint::CENTER);
    let base_plan = base_planner.plan_frame(&frame, &pose, gaze, 0.0);
    let holo_plan = holo_planner.plan_frame(&frame, &pose, gaze, 0.0044);
    let window = pose.viewing_window();
    let base_view = render_view(&base_plan.items, &window, 24, 40, &ExecutionContext::serial());
    let holo_view = render_view(&holo_plan.items, &window, 24, 40, &ExecutionContext::serial());
    // Every object the baseline displays, HoloAR displays too.
    if base_view.total_luminance() > 0.0 {
        assert!(holo_view.total_luminance() > 0.0, "approximation must not blank objects");
    }
}

#[test]
fn trace_replay_is_bit_identical_across_runs() {
    let trace = SessionTrace::record(VideoCategory::Laptop, 30, 99);
    let run = |trace: &SessionTrace| {
        let device = Device::xavier();
        let mut planner =
            Planner::new(HoloArConfig::for_scheme(Scheme::InterIntraHolo)).unwrap();
        let mut total = 0.0;
        for tf in &trace.frames {
            let plan = planner.plan_frame(&tf.frame, &tf.pose, tf.gaze, 0.0044);
            total += holoar::core::executor::execute_plan(&device, &plan).latency;
        }
        total
    };
    let a = run(&trace);
    let reparsed = SessionTrace::parse(&trace.serialize()).unwrap();
    let b = run(&reparsed);
    assert_eq!(a.to_bits(), b.to_bits(), "replay must be bit-identical");
}

#[test]
fn motion_guard_throttles_saccadic_sessions() {
    // A synthetic saccade-heavy gaze stream: the guard should hold
    // approximation off for a visible fraction of frames.
    let mut guard = MotionGuard::new(30.0);
    let mut held = 0u32;
    let frames = 120u32;
    for i in 0..frames {
        // Saccade every 20 frames, fixation in between.
        let az = if i % 20 == 0 { deg(20.0) * ((i / 20) % 2) as f64 } else { f64::NAN };
        let gaze = if az.is_nan() {
            AngularPoint::new(deg(20.0) * ((i / 20) % 2) as f64, 0.0)
        } else {
            AngularPoint::new(az, 0.0)
        };
        if guard.observe(gaze) {
            held += 1;
        }
    }
    let fraction = held as f64 / frames as f64;
    assert!(
        (0.05..0.5).contains(&fraction),
        "guard held {fraction:.2} of frames; expected a visible minority"
    );
}
