//! Property tests for the GPU model: accounting identities and
//! monotonicities that must hold for any kernel shape.

use holoar_gpusim::device::kernel_time;
use holoar_gpusim::gating::{gated_rails, run_job_gated, GatingPolicy};
use holoar_gpusim::hologram_kernels::{merged_session_kernels, run_job, HologramJob, JobPricer};
use holoar_gpusim::timeline::{session_occupancy, session_stream_ops};
use holoar_gpusim::{
    simulate, Activity, Device, DeviceConfig, EnergyMeter, InstructionMix, KernelDesc,
    PowerConfig, RailPower, StallCategory,
};
use proptest::prelude::*;

fn arb_mix() -> impl Strategy<Value = InstructionMix> {
    (0.0f64..600.0, 0.0f64..30.0, 0.0f64..80.0, 0.0f64..40.0, 0.0f64..1.0, 0.0f64..150.0)
        .prop_map(|(flops, transcendentals, loads, stores, read_only_fraction, integer_ops)| {
            InstructionMix { flops, transcendentals, loads, stores, read_only_fraction, integer_ops }
        })
}

fn arb_kernel() -> impl Strategy<Value = KernelDesc> {
    (1u32..2000, prop::sample::select(vec![32u32, 64, 128, 256, 512]), arb_mix(), 0u32..8,
     0.5f64..1.0, 1.0f64..1.5, 0.0f64..0.5)
        .prop_map(|(blocks, threads, mix, syncs, l1, imb, dep)| {
            KernelDesc::new("pk", blocks, threads, mix)
                .with_intra_syncs(syncs)
                .with_l1_hit_rate(l1)
                .with_imbalance(imb)
                .with_dependency_factor(dep)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every kernel execution produces finite, positive time and bounded
    /// utilization, and stall fractions sum to one when any stall exists.
    #[test]
    fn execution_invariants(kernel in arb_kernel()) {
        let mut device = Device::xavier();
        let stats = device.execute(&kernel);
        prop_assert!(stats.time > 0.0 && stats.time.is_finite());
        prop_assert!(stats.cycles >= 0.0);
        prop_assert!((0.0..=1.0).contains(&stats.sm_utilization));
        let total: f64 =
            StallCategory::ALL.iter().map(|&c| stats.stalls.fraction(c)).sum();
        if stats.stalls.total() > 0.0 {
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
        prop_assert!(stats.dram_bytes <= stats.l1_bytes + 1e-9);
    }

    /// Time grows monotonically with grid size for a fixed kernel body.
    #[test]
    fn time_monotone_in_grid(mix in arb_mix(), a in 1u32..1000, b in 1u32..1000) {
        let (lo, hi) = (a.min(b), a.max(b));
        let mut device = Device::xavier();
        let t_lo = device.execute(&KernelDesc::new("k", lo, 256, mix)).time;
        let t_hi = device.execute(&KernelDesc::new("k", hi, 256, mix)).time;
        prop_assert!(t_hi >= t_lo - 1e-12);
    }

    /// Worse L1 behaviour never makes a kernel faster.
    #[test]
    fn cache_misses_never_speed_up(mix in arb_mix(), good in 0.5f64..1.0, bad in 0.0f64..0.5) {
        let mut device = Device::xavier();
        let fast = device
            .execute(&KernelDesc::new("k", 64, 256, mix).with_l1_hit_rate(good))
            .time;
        let slow = device
            .execute(&KernelDesc::new("k", 64, 256, mix).with_l1_hit_rate(bad))
            .time;
        prop_assert!(slow >= fast - 1e-12);
    }

    /// Rail power is positive, finite and monotone in activity.
    #[test]
    fn rails_monotone_in_activity(g1 in 0.0f64..1.0, g2 in 0.0f64..1.0, m in 0.0f64..1.0) {
        let power = PowerConfig::default();
        let (lo, hi) = (g1.min(g2), g1.max(g2));
        let p_lo = power.rails(Activity { gpu: lo, mem: m, cpu: 0.3 });
        let p_hi = power.rails(Activity { gpu: hi, mem: m, cpu: 0.3 });
        prop_assert!(p_lo.total() > 0.0 && p_lo.total().is_finite());
        prop_assert!(p_hi.total() >= p_lo.total());
    }

    /// The energy meter is additive: splitting an interval changes nothing.
    #[test]
    fn meter_is_additive(t in 0.001f64..10.0, split in 0.1f64..0.9, p in 0.5f64..8.0) {
        let rails = RailPower { soc: p * 0.2, cpu: p * 0.1, gpu: p * 0.5, mem: p * 0.2 };
        let mut whole = EnergyMeter::new();
        whole.accumulate(t, rails);
        let mut parts = EnergyMeter::new();
        parts.accumulate(t * split, rails);
        parts.accumulate(t * (1.0 - split), rails);
        prop_assert!((whole.energy.total() - parts.energy.total()).abs() < 1e-9);
        prop_assert!((whole.time - parts.time).abs() < 1e-12);
    }

    /// Job energy decomposes as latency × rail power, and both scale
    /// monotonically with plane count.
    #[test]
    fn job_energy_identity(planes in 1u32..32) {
        let mut device = Device::xavier();
        let stats = run_job(&mut device, &HologramJob::full(planes));
        prop_assert!(
            (stats.energy - stats.latency * stats.rails.total()).abs()
                < 1e-9 * stats.energy.max(1.0)
        );
        prop_assert_eq!(stats.kernels.len(), (planes * 5 * 2) as usize);
    }

    /// Gating never increases energy and never changes latency.
    #[test]
    fn gating_is_safe(planes in 1u32..8, coverage_milli in 1u64..1000) {
        let job = HologramJob {
            coverage: coverage_milli as f64 / 1000.0,
            ..HologramJob::full(planes)
        };
        let mut d1 = Device::xavier();
        let plain = run_job(&mut d1, &job);
        let mut d2 = Device::xavier();
        let gated = run_job_gated(&mut d2, &job, GatingPolicy::default());
        prop_assert!((gated.latency - plain.latency).abs() < 1e-12);
        prop_assert!(gated.energy <= plain.energy + 1e-12);
    }

    /// Gated rails interpolate between min and full power as SMs wake up.
    #[test]
    fn gated_rails_monotone_in_active_sms(a in 1u32..8, b in 1u32..8, act in 0.0f64..1.0) {
        let power = PowerConfig::default();
        let activity = Activity { gpu: act, mem: act, cpu: 0.3 };
        let (lo, hi) = (a.min(b), a.max(b));
        let p_lo = gated_rails(&power, activity, lo, 8);
        let p_hi = gated_rails(&power, activity, hi, 8);
        prop_assert!(p_hi.total() >= p_lo.total());
        prop_assert!(p_hi.total() <= power.rails(activity).total() + 1e-12);
    }

    /// A device with more SMs is never slower on a *compute-bound* kernel.
    /// (Bandwidth-bound kernels share a fixed DRAM pipe, so extra SMs only
    /// shrink each SM's slice — the model deliberately does not speed those
    /// up.)
    #[test]
    fn more_sms_never_slower_when_compute_bound(mix in arb_mix(), extra in 1u32..8) {
        let kernel = KernelDesc::new("cb", 512, 256, mix).with_l1_hit_rate(0.995);
        let mut small = Device::xavier();
        let big_cfg =
            DeviceConfig { sm_count: 8 + extra, ..DeviceConfig::default() };
        let mut big = Device::new(big_cfg).unwrap();
        let t_small = small.execute(&kernel).time;
        let t_big = big.execute(&kernel).time;
        prop_assert!(t_big <= t_small + 1e-12);
    }
}

/// A fleet of 1–11 session jobs: 0–24 planes, coverage in (0, 1], 1–5 GSW
/// iterations, on one of three hologram sizes.
fn arb_fleet() -> impl Strategy<Value = Vec<HologramJob>> {
    let pixels = prop::sample::select(vec![16u64 * 16, 64 * 64, 96 * 96]);
    let job = (pixels, 0u32..25, 0.0f64..1.0, 1u32..6)
        .prop_map(|(pixels, plane_count, x, gsw_iterations)| HologramJob {
            pixels,
            plane_count,
            coverage: 1.0 - x,
            gsw_iterations,
        });
    prop::collection::vec(job, 1..12)
}

fn arb_sm_count() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![1u32, 4, 32])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pure pricing functions reproduce the kernel-building paths bit
    /// for bit: occupancy, solo-job latency and single-kernel time.
    #[test]
    fn session_occupancy_is_bit_identical(jobs in arb_fleet(), sm_count in arb_sm_count()) {
        let cfg = DeviceConfig { sm_count, ..DeviceConfig::default() };
        let reference = simulate(&session_stream_ops(&jobs), &cfg).mean_occupancy();
        prop_assert_eq!(session_occupancy(&jobs, &cfg).to_bits(), reference.to_bits());
    }

    #[test]
    fn job_latency_is_bit_identical(jobs in arb_fleet(), sm_count in arb_sm_count()) {
        let cfg = DeviceConfig { sm_count, ..DeviceConfig::default() };
        let mut device = Device::new(cfg).unwrap();
        let pricer = JobPricer::new(&cfg);
        for job in &jobs {
            let reference = run_job(&mut device, job).latency;
            prop_assert_eq!(pricer.latency(job).to_bits(), reference.to_bits());
        }
    }

    /// The merged-batch price is the kernel-built merged batch's summed
    /// launch times, bit for bit, with one launch per kernel. The oracle
    /// only merges lockstep iterations, so each fleet takes its first
    /// job's count.
    #[test]
    fn merged_batch_price_is_bit_identical(jobs in arb_fleet(), sm_count in arb_sm_count()) {
        let cfg = DeviceConfig { sm_count, ..DeviceConfig::default() };
        let pricer = JobPricer::new(&cfg);
        let iterations = jobs[0].gsw_iterations;
        let jobs: Vec<HologramJob> =
            jobs.into_iter().map(|job| HologramJob { gsw_iterations: iterations, ..job }).collect();
        for batch in [&jobs[..], &jobs[..1]] {
            let kernels = merged_session_kernels(batch);
            let reference: f64 = kernels.iter().map(|k| kernel_time(k, &cfg)).sum();
            let price = pricer.batch(batch);
            if kernels.is_empty() {
                // An empty kernel sum is -0.0; every consumer ignores the sign.
                prop_assert_eq!(price.latency, reference);
            } else {
                prop_assert_eq!(price.latency.to_bits(), reference.to_bits());
            }
            prop_assert_eq!(price.launches, kernels.len() as u64);
        }
    }

    #[test]
    fn kernel_time_is_bit_identical(kernel in arb_kernel(), sm_count in arb_sm_count()) {
        let cfg = DeviceConfig { sm_count, ..DeviceConfig::default() };
        let reference = Device::new(cfg).unwrap().execute(&kernel).time;
        prop_assert_eq!(kernel_time(&kernel, &cfg).to_bits(), reference.to_bits());
    }
}
