//! Property tests for the robustness layer: deterministic fault replay
//! across worker counts, and monotonicity of the degradation ladder and
//! controller (strictly more load never raises the chosen plane count).

use holoar_core::degrade::{DegradationController, DegradationLadder, DegradationLevel};
use holoar_core::{HoloArConfig, Planner, Scheme};
use holoar_faults::{scenario, FrameFaults};
use holoar_fft::Parallelism;
use holoar_sensors::angles::AngularPoint;
use holoar_sensors::objectron::{Frame, FrameGenerator, VideoCategory};
use holoar_sensors::pose::PoseEstimate;
use holoar_sensors::rng::Rng;
use proptest::prelude::*;

const FRAMES: u64 = 80;

fn nominal_pose() -> PoseEstimate {
    PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 }
}

/// Plans every frame of a Shoe clip at the given ladder level and returns
/// the per-frame total plane counts (reuse disabled so totals are a pure
/// function of the configuration).
fn planes_per_frame(level: DegradationLevel, ladder: &DegradationLadder) -> Vec<u32> {
    let base = HoloArConfig::for_scheme(Scheme::InterIntraHolo).without_reuse();
    let cfg = ladder.apply(level, &base);
    let mut planner = Planner::new(cfg).expect("ladder configs stay valid");
    FrameGenerator::new(VideoCategory::Shoe, 7)
        .take(FRAMES as usize)
        .map(|frame: Frame| {
            planner
                .plan_frame(&frame, &nominal_pose(), AngularPoint::CENTER, 0.0044)
                .total_planes()
        })
        .collect()
}

/// Runs the controller against a synthetic load trace where a full-quality
/// hologram costs `cost[i] × load` seconds and each ladder level sheds cost
/// per its `shed` fraction. Returns the per-frame chosen plane counts.
fn simulate(load: f64, cost: &[f64], planes: &[Vec<u32>; 4]) -> (Vec<u32>, DegradationController) {
    let ladder = DegradationLadder::default();
    let mut ctl = DegradationController::new(ladder).expect("default ladder is valid");
    let mut chosen = Vec::with_capacity(cost.len());
    for (i, &c) in cost.iter().enumerate() {
        let level = ctl.decide(i as u64);
        let latency = if level == DegradationLevel::LastGood {
            ladder.reproject_latency
        } else {
            c * load * ladder.shed[level.index()]
        };
        chosen.push(if level == DegradationLevel::LastGood {
            0
        } else {
            planes[level.index()][i]
        });
        ctl.observe(i as u64, latency);
    }
    (chosen, ctl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fault replay with the same seed is bit-identical across worker
    /// counts {1, 2, 7}: the injector is a pure function of (seed, index),
    /// so fanning frame evaluation out over any pool must reproduce the
    /// serial stream exactly.
    #[test]
    fn fault_replay_bit_identical_across_worker_counts(seed in 0u64..u64::MAX) {
        let injector = scenario::full_stack(seed).expect("preset scenario is valid");
        let indices: Vec<u64> = (0..FRAMES).collect();
        let serial: Vec<FrameFaults> = indices.iter().map(|&i| injector.frame(i)).collect();
        for workers in [1usize, 2, 7] {
            let par = Parallelism::new(workers);
            let parallel = par.map(&indices, |&i| injector.frame(i));
            prop_assert!(parallel == serial, "divergence at {} workers", workers);
        }
    }

    /// Two injectors with the same seed and specs agree on every frame;
    /// different seeds must diverge somewhere in the run.
    #[test]
    fn same_seed_replays_different_seed_diverges(seed in 0u64..u64::MAX) {
        let a = scenario::gpu_slowdown(seed).expect("valid");
        let b = scenario::gpu_slowdown(seed).expect("valid");
        prop_assert!((0..FRAMES).all(|i| a.frame(i) == b.frame(i)));
        let c = scenario::gpu_slowdown(seed.wrapping_add(1)).expect("valid");
        prop_assert!((0..4 * FRAMES).any(|i| a.frame(i) != c.frame(i)));
    }

    /// Walking the ladder never raises any frame's plane count: each level
    /// plans no more planes than the one above it, for every frame of the
    /// clip and any valid trim/floor parameters.
    #[test]
    fn deeper_ladder_levels_never_raise_planes(
        trim_alpha_scale in 0.2f64..0.9,
        floor_theta_scale in 1.2f64..4.0,
    ) {
        let ladder = DegradationLadder {
            trim_alpha_scale,
            floor_theta_scale,
            ..DegradationLadder::default()
        };
        let full = planes_per_frame(DegradationLevel::Full, &ladder);
        let trim = planes_per_frame(DegradationLevel::TrimPeriphery, &ladder);
        let floor = planes_per_frame(DegradationLevel::FloorBeta, &ladder);
        for i in 0..full.len() {
            prop_assert!(trim[i] <= full[i], "frame {}: trim {} > full {}", i, trim[i], full[i]);
            prop_assert!(floor[i] <= trim[i], "frame {}: floor {} > trim {}", i, floor[i], trim[i]);
        }
    }

    /// The controller is monotone in load: injecting strictly more load
    /// never raises the chosen plane count over the run, and the
    /// two-consecutive-overruns contract holds under both loads.
    #[test]
    fn more_load_never_raises_chosen_planes(
        cost_seed in 0u64..u64::MAX,
        load_lo in 0.6f64..3.0,
        load_delta in 0.05f64..2.0,
    ) {
        let ladder = DegradationLadder::default();
        let planes = [
            planes_per_frame(DegradationLevel::Full, &ladder),
            planes_per_frame(DegradationLevel::TrimPeriphery, &ladder),
            planes_per_frame(DegradationLevel::FloorBeta, &ladder),
            vec![0; FRAMES as usize], // LastGood computes nothing
        ];
        let mut rng = Rng::seeded(cost_seed);
        // Per-frame costs uniform in [15, 35) ms.
        let cost: Vec<f64> = (0..FRAMES).map(|_| 0.015 + 0.020 * rng.uniform()).collect();
        let (chosen_lo, ctl_lo) = simulate(load_lo, &cost, &planes);
        let (chosen_hi, ctl_hi) = simulate(load_lo + load_delta, &cost, &planes);
        let total_lo: u64 = chosen_lo.iter().map(|&p| u64::from(p)).sum();
        let total_hi: u64 = chosen_hi.iter().map(|&p| u64::from(p)).sum();
        prop_assert!(
            total_hi <= total_lo,
            "load {} chose {} planes, heavier load {} chose {}",
            load_lo, total_lo, load_lo + load_delta, total_hi
        );
        prop_assert!(ctl_lo.max_overruns_without_stepdown() <= 1);
        prop_assert!(ctl_hi.max_overruns_without_stepdown() <= 1);
    }
}
