//! `fleet`: eight edge devices serving a churning population well above
//! what they admit, with device faults on and device 0 killed mid-run, so
//! rejections, re-probes, overload migrations and kill migrations all fire.
//! A cycle runs several such fleets, one per sub-seed.

use std::fmt::Write as _;

use holoar_serve::{run_fleet, schedule, FleetConfig, FleetReport};
use holoar_telemetry::now_ns;

use crate::stats::{mean, ratio, Digest};
use crate::trace::Tracer;
use crate::{sub_seed, Checks, Cycles, Measurement, Model, Plan};

/// Devices in a fleet.
pub const DEVICES: usize = 8;

/// Sessions offered to a fleet over its run.
pub const OFFERED: u32 = 320;

/// Fleets per cycle, each with its own sub-seed.
pub const FLEETS: usize = 8;

/// Ticks per fleet run.
pub const TICKS: u64 = 400;

/// Seed and ticks of the set-up's reference fleet: a full-length run, so
/// that the set-up is long enough to time steadily.
const SETUP: (u64, u64) = (0, TICKS);

fn config(seed: u64, ticks: u64) -> FleetConfig {
    FleetConfig {
        kill: Some((0, ticks / 2)),
        ..FleetConfig::sweep(DEVICES, OFFERED, ticks, seed)
    }
}

fn run(seed: u64, ticks: u64) -> FleetReport {
    run_fleet(&config(seed, ticks)).expect("the fleet defaults are valid")
}

/// Set-up: configuration, load schedule and a short run of a fixed
/// reference fleet.
pub fn setup() {
    std::hint::black_box(run(SETUP.0, SETUP.1));
}

/// Session-frames the load schedule offers: every scheduled session's
/// lifetime clipped to the run, admitted or not.
fn offered_session_frames(seed: u64) -> u64 {
    schedule(&config(seed, TICKS).load, TICKS)
        .expect("the diurnal load is valid")
        .iter()
        .map(|p| p.depart.min(TICKS) - p.arrive)
        .sum()
}

/// The conservation checks every fleet report must pass.
fn check(report: &FleetReport, checks: &mut Checks) {
    checks.record(report.offered as u64 == report.admitted as u64 + report.rejected);
    checks.record(report.per_device.iter().map(|d| d.presented).sum::<u64>() == report.presented);
    checks.record(report.fresh <= report.presented);
}

/// Runs cycles of fleets; cycle 0's reports give the modeled numbers.
pub fn measure(plan: &Plan, mut tracer: Option<&mut Tracer>) -> Measurement {
    let mut checks = Checks::default();
    let mut reports: Vec<FleetReport> = Vec::new();
    let mut digests = Vec::new();
    let mut session_frames = vec![0u64; plan.subs];
    let mut offered_sf = 0u64;
    let (ns, kernel_ns) = plan.run(|cycle, k| {
        let seed = sub_seed(plan.seed, k);
        let t0 = now_ns();
        let report = run(seed, TICKS);
        let ns = now_ns() - t0;
        if let Some(t) = tracer.as_deref_mut() {
            t.drain();
        }
        check(&report, &mut checks);
        let mut digest = Digest::default();
        write!(digest, "{report:?}").expect("digests accept any text");
        if cycle == 0 {
            session_frames[k] = report.presented;
            offered_sf += offered_session_frames(seed);
            digests.push(digest.value());
            reports.push(report);
        } else {
            // Same inputs every cycle: the report must repeat exactly.
            checks.record(digests[k] == digest.value());
        }
        vec![ns]
    });
    let sum = |f: fn(&FleetReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let cycle0_ops = sum(|r| r.presented) / 1000.0;
    let cycles = ns.len() as f64;
    Measurement {
        ops: cycles * cycle0_ops,
        cycles: Cycles {
            ns,
            kernel_ns,
            frames: vec![TICKS; plan.subs],
            session_frames,
        },
        model: Model {
            frame_ms_p99: mean(
                &reports
                    .iter()
                    .map(|r| r.latency_p99 * 1e3)
                    .collect::<Vec<_>>(),
            ),
            energy_mj: None,
            goodput: Some(ratio(sum(|r| r.deadline_hits), offered_sf as f64)),
            psnr_db: None,
            digests,
        },
        checks,
        layer: vec![
            (
                "fleet.reprobes_per_op",
                ratio(sum(|r| r.reprobes), cycle0_ops),
            ),
            (
                "fleet.migrations_per_op",
                ratio(sum(|r| r.migrations), cycle0_ops),
            ),
            (
                "fleet.rejected_frac",
                ratio(sum(|r| r.rejected), sum(|r| r.offered as u64)),
            ),
            ("bench.kill_migrations", sum(|r| r.kill_migrations)),
            ("bench.overload_migrations", sum(|r| r.overload_migrations)),
        ],
    }
}
