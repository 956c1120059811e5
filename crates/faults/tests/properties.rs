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

/// Every field of a frame's faults, as bits.
fn fault_bits(f: &FrameFaults) -> [u64; 9] {
    [
        u64::from(f.gaze_dropout),
        f.gaze_latency_spike.to_bits(),
        u64::from(f.pose_dropout),
        f.pose_jitter.0.to_bits(),
        f.pose_jitter.1.to_bits(),
        f.clock_scale.to_bits(),
        f.dram_scale.to_bits(),
        f.stage_overrun.to_bits(),
        u64::from(f.device_dead),
    ]
}

/// Query orders over `0..n` for injectors whose windows are `bursts` long:
/// sequential, reversed, two strides, and hops across every window
/// boundary and back between distant windows.
fn query_orders(n: u64, bursts: &[u64]) -> Vec<Vec<u64>> {
    let mut orders = vec![(0..n).collect(), (0..n).rev().collect()];
    for stride in [7u64, 37] {
        orders.push((0..n).map(|i| i * stride % n).collect());
    }
    for &burst in bursts {
        let crossing: Vec<u64> = (1..n / burst)
            .flat_map(|w| [w * burst - 1, w * burst, w * burst - 1, w * burst + 1])
            .collect();
        orders.push(crossing);
        let far = n / 2;
        orders.push((0..far).flat_map(|i| [i, i + far]).collect());
    }
    orders
}

/// The per-spec window cache never changes a frame's faults: one injector
/// queried in sequential, reversed, strided and window-crossing orders
/// (its cache carried from order to order) agrees bit for bit with a fresh
/// injector built for each query, for every scenario preset.
#[test]
fn window_cache_matches_a_fresh_injector_per_query() {
    const N: u64 = 320;
    type Preset = Box<dyn Fn() -> holoar_faults::FaultInjector>;
    for seed in [0u64, 7, 42, u64::MAX] {
        let presets: Vec<(&str, Preset)> = vec![
            ("gpu_slowdown", Box::new(move || scenario::gpu_slowdown(seed).unwrap())),
            ("sensor_storm", Box::new(move || scenario::sensor_storm(seed).unwrap())),
            ("full_stack", Box::new(move || scenario::full_stack(seed).unwrap())),
            ("serve_session", Box::new(move || scenario::serve_session(seed, 3).unwrap())),
            ("fleet_device", Box::new(move || scenario::fleet_device(seed, 5).unwrap())),
            (
                "fleet_device_with_kill",
                Box::new(move || scenario::fleet_device_with_kill(seed, 1, 0.4).unwrap()),
            ),
        ];
        for (name, make) in &presets {
            let cached = make();
            let bursts: Vec<u64> = cached.specs().iter().map(|s| s.burst_frames).collect();
            for order in query_orders(N, &bursts) {
                for i in order {
                    let want = fault_bits(&make().frame(i));
                    assert_eq!(fault_bits(&cached.frame(i)), want, "{name} seed {seed} frame {i}");
                }
            }
        }
    }
    // The presets above reach both branches of the windows that matter
    // most: IMU jitter inside a burst and a dead device window.
    let storm = scenario::sensor_storm(7).unwrap();
    assert!((0..N).any(|i| storm.frame(i).pose_jitter != (0.0, 0.0)));
    let kill = scenario::fleet_device_with_kill(7, 1, 0.4).unwrap();
    assert!((0..N).any(|i| kill.frame(i).device_dead));
    assert!((0..N).any(|i| !kill.frame(i).device_dead));
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
