//! Cross-crate property tests: invariants that must hold for *any* scene,
//! spanning planner (core), executor (core+gpusim) and the optics/metrics
//! quality stack.

use holoar::core::{executor, HoloArConfig, Planner, Scheme};
use holoar::gpusim::Device;
use holoar::metrics::{psnr, Image};
use holoar::optics::{algorithm1, ExecutionContext, OpticalConfig, VirtualObject};
use holoar::sensors::angles::{deg, AngularPoint};
use holoar::sensors::objectron::{Frame, ObjectAnnotation};
use holoar::sensors::pose::PoseEstimate;
use proptest::prelude::*;

fn arb_object() -> impl Strategy<Value = ObjectAnnotation> {
    (0u64..50, -30.0f64..30.0, -20.0f64..20.0, 0.2f64..3.0, 0.05f64..1.6).prop_map(
        |(track_id, az, el, distance, size)| ObjectAnnotation {
            track_id,
            direction: AngularPoint::new(deg(az), deg(el)),
            distance,
            size,
        },
    )
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop::collection::vec(arb_object(), 0..6)
        .prop_map(|objects| Frame { index: 0, objects })
}

fn pose() -> PoseEstimate {
    PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every scene and gaze, plane budgets respect the global bounds and
    /// the scheme ordering: Inter-Intra never exceeds Inter or Intra, which
    /// never exceed Baseline, per object.
    #[test]
    fn scheme_ordering_holds_for_any_scene(
        frame in arb_frame(),
        gaze_az in -20.0f64..20.0,
        gaze_el in -15.0f64..15.0,
    ) {
        let gaze = AngularPoint::new(deg(gaze_az), deg(gaze_el));
        let mut plans = Vec::new();
        for scheme in Scheme::ALL {
            let mut planner = Planner::new(HoloArConfig::for_scheme(scheme)).unwrap();
            plans.push(planner.plan_frame(&frame, &pose(), gaze, 0.0044));
        }
        let [base, inter, intra, both] = <[_; 4]>::try_from(plans).unwrap();
        for i in 0..frame.objects.len() {
            let (b, n, t, c) =
                (base.items[i].planes, inter.items[i].planes, intra.items[i].planes, both.items[i].planes);
            for p in [b, n, t, c] {
                prop_assert!(p == 0 || (2..=16).contains(&p), "budget {p} out of bounds");
            }
            // Skipping (outside window) is scheme-independent.
            prop_assert_eq!(b == 0, c == 0);
            if b > 0 {
                prop_assert!(n <= b, "inter {n} > baseline {b}");
                prop_assert!(t <= b, "intra {t} > baseline {b}");
                prop_assert!(c <= n.min(t), "combined {c} > min(inter {n}, intra {t})");
            }
        }
    }

    /// Executing any plan yields consistent accounting: energy equals
    /// average power times latency, and everything is finite/non-negative.
    #[test]
    fn executor_accounting_is_consistent(frame in arb_frame(), scheme_idx in 0usize..4) {
        let scheme = Scheme::ALL[scheme_idx];
        let mut planner = Planner::new(HoloArConfig::for_scheme(scheme)).unwrap();
        let plan = planner.plan_frame(&frame, &pose(), AngularPoint::CENTER, 0.0044);
        let device = Device::xavier();
        let perf = executor::execute_plan(&device, &plan);
        prop_assert!(perf.latency > 0.0 && perf.latency.is_finite());
        prop_assert!(perf.energy > 0.0 && perf.energy.is_finite());
        prop_assert!((perf.energy - perf.avg_power * perf.latency).abs() < 1e-9 * perf.energy.max(1.0));
        prop_assert!(perf.jobs <= frame.objects.len());
    }

    /// More planes never cost less on the device (latency monotonicity).
    #[test]
    fn device_latency_is_monotone_in_planes(a in 1u32..24, b in 1u32..24) {
        use holoar::gpusim::HologramJob;
        let (lo, hi) = (a.min(b), a.max(b));
        let device = Device::xavier();
        let t_lo = device.pricer().latency(&HologramJob::full(lo));
        let t_hi = device.pricer().latency(&HologramJob::full(hi));
        prop_assert!(t_hi >= t_lo);
    }

    /// The optics + metrics stack: a hologram of any virtual object carries
    /// energy, and PSNR against itself is infinite.
    #[test]
    fn hologram_quality_identities(obj_idx in 0usize..6, planes in 2usize..10) {
        let optics = OpticalConfig::default();
        let depthmap = VirtualObject::ALL[obj_idx].render(24, 24, 0.006, 0.002);
        let result = algorithm1::depthmap_hologram(&depthmap, planes, optics, &ExecutionContext::serial());
        prop_assert!(result.hologram.total_energy() > 0.0);
        prop_assert_eq!(result.stats.plane_count, planes);

        let img = Image::new(24, 24, result.hologram.intensity()).unwrap();
        prop_assert!(psnr(&img, &img).unwrap().is_infinite());
    }
}

#[test]
fn reuse_never_happens_on_first_sight() {
    // Deterministic sanity check outside proptest: a fresh planner cannot
    // reuse anything on frame zero.
    let frame = Frame {
        index: 0,
        objects: vec![ObjectAnnotation {
            track_id: 9,
            direction: AngularPoint::CENTER,
            distance: 0.7,
            size: 0.3,
        }],
    };
    for scheme in Scheme::ALL {
        let mut planner = Planner::new(HoloArConfig::for_scheme(scheme)).unwrap();
        let plan = planner.plan_frame(&frame, &pose(), AngularPoint::CENTER, 0.0);
        assert!(!plan.items[0].reused);
    }
}
