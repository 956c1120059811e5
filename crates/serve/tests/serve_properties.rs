//! Serving-layer properties: worker-count determinism, the acceptance
//! targets for cross-session batching, and the degradation invariant under
//! multi-session contention.

use holoar_core::ExecutionContext;
use holoar_serve::{run_serve, DeviceSpec, ServeConfig, SessionSpec, SERVE_FRAME_BUDGET};
use proptest::prelude::*;

/// The acceptance scenario: 8 sessions, shared serving device.
fn eight_sessions() -> ServeConfig {
    ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(8, 42), 40)
}

#[test]
fn serve_report_is_bit_identical_across_worker_counts() {
    let config = ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(4, 42), 24);
    let baseline = run_serve(&config, &ExecutionContext::serial()).expect("fleet config is valid");
    for workers in [1usize, 2, 7] {
        let ctx = ExecutionContext::with_workers(workers);
        let report = run_serve(&config, &ctx).expect("fleet config is valid");
        assert_eq!(baseline, report, "report diverged at {workers} workers");
    }
}

#[test]
fn eight_sessions_meet_the_acceptance_targets() {
    let ctx = ExecutionContext::serial();
    let report = run_serve(&eight_sessions(), &ctx).expect("fleet config is valid");
    assert_eq!(report.admitted, 8, "the serving device must carry 8 light sessions");
    assert!(
        report.speedup_vs_sequential >= 1.8,
        "batched serving must beat 8 sequential pipelines by ≥ 1.8×, got {:.2}×",
        report.speedup_vs_sequential
    );
    assert!(
        report.deadline_hit_rate >= 0.95,
        "deadline-hit rate {:.3} below the 95% target",
        report.deadline_hit_rate
    );
    assert!(
        report.latency_p99 <= SERVE_FRAME_BUDGET * 1.5,
        "p99 latency {:.4}s is out of scale with the {:.4}s budget",
        report.latency_p99,
        SERVE_FRAME_BUDGET
    );
    for session in &report.sessions {
        assert!(
            (session.psnr_weighted - session.psnr_full).abs() <= 0.5,
            "session {} weighted PSNR {:.2} dB strays more than 0.5 dB from its \
             single-session baseline {:.2} dB",
            session.id,
            session.psnr_weighted,
            session.psnr_full
        );
    }
    assert!(report.mean_occupancy > 0.0 && report.mean_occupancy <= 1.0);
    assert!(report.launches_saved > 0, "batching must eliminate per-plane launches");
}

/// `repro serve`'s sweep (the BENCH_serve.json rows: 1–24 sessions, seed
/// 42, the edge device) at a short frame count: every row's occupancy is a
/// share of the device's block slots, and batching the largest fleet fills
/// more of the device than one session does.
#[test]
fn batching_fills_the_device_across_the_serve_sweep() {
    const SWEEP: [u32; 7] = [1, 2, 4, 8, 12, 16, 24];
    let ctx = ExecutionContext::serial();
    let occupancy: Vec<f64> = SWEEP
        .into_iter()
        .map(|n| {
            let config = ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(n, 42), 20);
            run_serve(&config, &ctx).expect("fleet config is valid").mean_occupancy
        })
        .collect();
    for (&value, n) in occupancy.iter().zip(SWEEP) {
        assert!(value > 0.0 && value <= 1.0, "{n} sessions: occupancy {value}");
    }
    let (one, largest) = (occupancy[0], occupancy[occupancy.len() - 1]);
    assert!(largest > one, "24 sessions occupy {largest}, no more than one session's {one}");
}

#[test]
fn oversubscription_degrades_incrementally_never_in_lockstep() {
    // 24 sessions oversubscribe the 90 Hz budget, so QoS must engage.
    let config = ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(24, 7), 100);
    let ctx = ExecutionContext::serial();
    let report = run_serve(&config, &ctx).expect("fleet config is valid");
    assert_eq!(report.check(), Ok(()));
    // The books catch a lost session-tick and an impossible hit count.
    let mut lost = report.clone();
    lost.sessions[0].served -= 1;
    assert!(lost.check().is_err_and(|e| e.contains("admitted × frames")), "{:?}", lost.check());
    let mut impossible = report.clone();
    impossible.sessions[0].deadline_hits = impossible.sessions[0].served + 1;
    assert!(impossible.check().is_err_and(|e| e.contains("deadlines")));
    let qos_total: u64 = report.sessions.iter().map(|s| s.qos_step_downs).sum();
    assert!(qos_total > 0, "an oversubscribed fleet must trigger QoS step-downs");
    // One victim per tick: QoS can never have touched more sessions in one
    // tick than ticks elapsed, and some session must have kept full-quality
    // frames (degradation is incremental, not fleet-wide).
    assert!(qos_total <= config.frames);
    assert!(
        report.sessions.iter().any(|s| s.frames_at_level[0] > 0),
        "lockstep degradation: no session retained any full-quality frame"
    );
    // The ladder invariant holds for every session even under contention.
    for session in &report.sessions {
        assert!(
            session.max_overruns_without_stepdown <= 1,
            "session {} tolerated {} consecutive overruns without shedding",
            session.id,
            session.max_overruns_without_stepdown
        );
    }
}

#[test]
fn full_telemetry_does_not_perturb_the_report() {
    // The SLO/profile bookkeeping is pure data — turning the collector on
    // must not change a single bit of the report, at any worker count.
    let config = ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(4, 42), 24);
    let off = run_serve(&config, &ExecutionContext::serial()).expect("fleet config is valid");
    holoar_telemetry::set_mode(holoar_telemetry::TelemetryMode::Full);
    for workers in [1usize, 2, 7] {
        let ctx = ExecutionContext::with_workers(workers);
        let report = run_serve(&config, &ctx).expect("fleet config is valid");
        if off != report {
            holoar_telemetry::set_mode(holoar_telemetry::TelemetryMode::Off);
            panic!("full telemetry perturbed the report at {workers} workers");
        }
    }
    holoar_telemetry::set_mode(holoar_telemetry::TelemetryMode::Off);
}

#[test]
fn slo_signals_annotate_every_step_down_and_alerts_fire_under_overload() {
    // Same oversubscribed fleet as the incremental-degradation test: misses
    // abound, so the SLO machinery must both page and explain itself.
    let config = ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(24, 7), 100);
    let ctx = ExecutionContext::serial();
    let report = run_serve(&config, &ctx).expect("fleet config is valid");

    // Acceptance: every degradation step-down is attributable to a recorded
    // SLO signal.
    let mut step_downs = 0usize;
    for session in &report.sessions {
        for t in &session.slo.step_downs {
            assert!(
                !t.signal.is_empty(),
                "session {} step-down at frame {} has no recorded signal",
                session.id,
                t.frame
            );
        }
        step_downs += session.slo.step_downs.len();
    }
    assert!(step_downs > 0, "an oversubscribed fleet must record step-downs");
    assert!(
        report
            .sessions
            .iter()
            .flat_map(|s| &s.slo.step_downs)
            .any(|t| t.signal == "qos-batch-overrun"),
        "QoS-forced step-downs must carry the batch-overrun signal"
    );

    // Burn-rate alerts fire and the pooled error budget is overdrawn.
    assert!(
        report.slo.fast_burn_events + report.slo.slow_burn_events > 0,
        "sustained overload must trip at least one burn-rate alert"
    );
    assert!(report.slo.error_budget_remaining < 1.0);
    assert_eq!(
        report.slo.fast_burn_events + report.slo.slow_burn_events,
        report.sessions.iter().map(|s| s.slo.burn_events.len() as u64).sum::<u64>(),
        "fleet burn totals must match the per-session events"
    );

    // Critical-path attribution names a stage for every session's worst
    // frame, and the stage shares partition the attributed time.
    for session in &report.sessions {
        assert!(
            session.slo.worst_frame_path.len() >= 2,
            "session {} worst frame has no critical path",
            session.id
        );
        assert!(!session.slo.stages.is_empty());
        let share_sum: f64 = session.slo.stages.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "stage shares sum to {share_sum}");
        assert!(session.slo.latency_p999 >= session.slo.latency_p50);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any small fleet replays bit-identically and keeps its books
    /// consistent: frames partition into served + deferred, deadline hits
    /// never exceed frames, and level occupancy sums to the tick count.
    #[test]
    fn serving_replays_and_keeps_consistent_books(
        sessions in 1u32..5,
        frames in 4u64..16,
        seed in 0u64..1_000,
    ) {
        let config = ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(sessions, seed), frames);
        let ctx = ExecutionContext::serial();
        let a = run_serve(&config, &ctx).expect("fleet config is valid");
        let b = run_serve(&config, &ctx).expect("fleet config is valid");
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.check(), Ok(()));
        for s in &a.sessions {
            prop_assert_eq!(s.served + s.deferred, frames);
            prop_assert!(s.deadline_hits <= frames);
            prop_assert_eq!(s.frames_at_level.iter().sum::<u64>(), frames);
        }
    }
}
