//! Determinism and migration-attribution properties of the fleet layer.
//!
//! The fleet loop is replay-driven and serial by construction, so the
//! properties here are cheap to state but load-bearing: reruns and worker
//! counts must be bit-identical, shuffling how the load schedule is handed
//! over must not move a single placement, and every live migration must
//! surface as a signal-attributed degradation transition plus a telemetry
//! event — no silent session teleports.

use holoar_sensors::rng::Rng;
use holoar_serve::{
    run_fleet, schedule, DeviceSpec, FleetConfig, FleetReport, SIG_DEVICE_KILL,
    SIG_DEVICE_OVERLOAD,
};

/// A small-but-busy fleet: 4 devices, 24 offered sessions, 60 ticks.
fn busy_config() -> FleetConfig {
    FleetConfig::sweep(4, 24, 60, 42)
}

/// The same fleet with device 0 scheduled to die mid-run.
fn kill_config() -> FleetConfig {
    let mut cfg = busy_config();
    cfg.kill = Some((0, 30));
    cfg
}

fn run(cfg: &FleetConfig) -> FleetReport {
    run_fleet(cfg).expect("fleet config must validate")
}

#[test]
fn fleet_is_bit_identical_across_reruns_and_worker_counts() {
    let baseline = run(&kill_config());
    let baseline_bytes = format!("{baseline:?}");
    // Rerun identity first, with whatever environment the harness gave us.
    let rerun = run(&kill_config());
    assert_eq!(baseline, rerun);
    assert_eq!(baseline_bytes, format!("{rerun:?}"));
    // The fleet loop is serial; pin that the workspace worker knob cannot
    // leak into it (this is the guard that fires if someone later threads
    // the probe planner through `Parallelism::auto`).
    let prior = std::env::var("HOLOAR_THREADS").ok();
    for workers in ["1", "2", "7"] {
        std::env::set_var("HOLOAR_THREADS", workers);
        let report = run(&kill_config());
        assert_eq!(baseline, report, "fleet diverged under HOLOAR_THREADS={workers}");
        assert_eq!(baseline_bytes, format!("{report:?}"));
    }
    match prior {
        Some(v) => std::env::set_var("HOLOAR_THREADS", v),
        None => std::env::remove_var("HOLOAR_THREADS"),
    }
}

#[test]
fn shuffled_schedule_handoff_cannot_change_placement() {
    // The load schedule is a pure function of (config, frames), sorted by
    // (arrive, id) — so any shuffling of how plans are generated or handed
    // over normalises back to the same replay the fleet consumes.
    let cfg = busy_config();
    let plans = schedule(&cfg.load, cfg.frames).unwrap();
    let mut shuffled = plans.clone();
    let mut rng = Rng::seeded(7);
    for i in (1..shuffled.len()).rev() {
        let j = (rng.uniform() * (i + 1) as f64) as usize % (i + 1);
        shuffled.swap(i, j);
    }
    assert_ne!(plans, shuffled, "shuffle must actually permute the schedule");
    shuffled.sort_by_key(|p| (p.arrive, p.spec.id));
    assert_eq!(plans, shuffled);
    // And the placements built from that replay are themselves stable:
    // per-device admission counts and migration logs match across reruns.
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.per_device, b.per_device);
    assert_eq!(a.migration_events, b.migration_events);
}

#[test]
fn every_migration_is_signal_attributed() {
    let report = run(&kill_config());
    assert!(report.migrations >= 1, "kill scenario must force migrations");
    assert_eq!(report.migrations, report.migration_events.len() as u64);
    assert_eq!(
        report.migrations, report.migration_transitions,
        "each migration must charge a signal-attributed degradation transition"
    );
    assert_eq!(report.migrations, report.kill_migrations + report.overload_migrations);
    for event in &report.migration_events {
        assert_ne!(event.from, event.to, "migration must change devices");
        assert!(event.from < report.devices && event.to < report.devices);
        assert!(event.tick < report.frames);
        assert!(
            event.signal == SIG_DEVICE_KILL || event.signal == SIG_DEVICE_OVERLOAD,
            "unattributed migration signal: {}",
            event.signal
        );
    }
    // Kill-forced migrations leave the dead device and are logged as such.
    let off_dead: Vec<_> =
        report.migration_events.iter().filter(|m| m.signal == SIG_DEVICE_KILL).collect();
    assert_eq!(off_dead.len() as u64, report.kill_migrations);
    assert!(off_dead.iter().all(|m| m.from == 0));
}

#[test]
fn injector_driven_kills_latch_and_force_evacuation() {
    // No scheduled kill — the deaths come from the fault injector's
    // DeviceKill process, latched permanently on first occurrence.
    let mut cfg = busy_config();
    cfg.kill_probability = 0.6;
    let report = run(&cfg);
    assert!(!report.killed.is_empty(), "p=0.6 over 60 ticks must kill something");
    assert_eq!(report, run(&cfg), "injector-driven kills must replay exactly");
    for &(device, tick) in &report.killed {
        assert!(tick < report.frames);
        assert_eq!(report.per_device[device].killed_at, Some(tick));
    }
    // Evacuations happened (or every refugee was orphaned — with 4 devices
    // and p=0.6 per 32-tick window, survivors exist at the first death).
    assert!(report.kill_migrations >= 1, "latched kills must evacuate sessions");
    assert!(report.presented > 0 && report.hit_rate > 0.0);
}

#[test]
fn fleet_books_balance_across_seeds_and_kill_rates() {
    // Injector-driven kills from none through all-devices-dead (p = 1 kills
    // every device in the first window), over K = 1, 2 and 4 devices. Seed 4
    // at p = 0.5 on two devices orphans sessions that had already migrated —
    // the case that once charged their migrations twice.
    let mut all_dead = 0;
    let mut orphaned_after_migrating = false;
    for k in [1usize, 2, 4] {
        for kill_probability in [0.0, 0.25, 0.5, 1.0] {
            for seed in 0..8u64 {
                let mut cfg = FleetConfig::sweep(k, 12, 96, seed);
                cfg.kill_probability = kill_probability;
                let r = run(&cfg);
                let at = format!("K = {k}, seed {seed}, p = {kill_probability}");
                r.check().unwrap_or_else(|e| panic!("{at}: {e}"));
                if kill_probability == 0.0 {
                    assert!(
                        r.killed.is_empty() && r.orphaned == 0,
                        "{at}: kills without a kill rate"
                    );
                }
                if r.killed.len() == r.devices {
                    all_dead += 1;
                }
                orphaned_after_migrating |= r.orphaned > 0 && r.kill_migrations > 0;
            }
        }
    }
    assert!(all_dead > 0, "the grid must reach all-devices-dead");
    assert!(orphaned_after_migrating, "the grid must orphan sessions that had migrated");
}

#[test]
fn fleet_books_balance_at_the_failure_edges() {
    // A kill at tick 0, before the first arrival. With one device this is
    // the zero-admitted load: every arrival is rejected. (A live device
    // always admits a session whose first frame only reprojects, so load
    // alone cannot empty the books.) With two, the survivor hosts every
    // admitted session.
    for k in [1usize, 2] {
        let cfg = FleetConfig { kill: Some((0, 0)), ..FleetConfig::sweep(k, 12, 48, 3) };
        let r = run(&cfg);
        r.check().unwrap_or_else(|e| panic!("K = {k}, kill at tick 0: {e}"));
        assert_eq!(r.killed, vec![(0, 0)]);
        assert_eq!(r.kill_migrations, 0, "nobody was hosted at tick 0");
        if k == 1 {
            assert_eq!((r.admitted, r.rejected), (0, 12), "a dead fleet admits nobody");
            assert_eq!((r.departed, r.active_at_end, r.presented), (0, 0, 0));
        } else {
            assert!(r.admitted > 0);
            assert_eq!(r.per_device[0].presented, 0, "the dead device presented frames");
        }
    }
}

#[test]
fn heterogeneous_fleets_reprice_across_specs() {
    // The 32-SM edge device beside 8-, 16- and 4-SM siblings, the big one
    // scheduled to die mid-run. Arrivals are priced on device 0's spec, so
    // every session placed elsewhere is re-priced on arrival; with four
    // distinct specs every migration, kill or overload, re-prices too.
    let edge = DeviceSpec::edge();
    let devices = vec![edge, edge.sm_count(8), edge.sm_count(16), edge.sm_count(4)];
    let cfg = FleetConfig {
        devices: devices.clone(),
        kill: Some((0, 40)),
        ..FleetConfig::sweep(4, 64, 80, 42)
    };
    let report = run(&cfg);
    report.check().unwrap();
    assert_eq!(report, run(&cfg), "a mixed fleet must replay exactly");
    let sm_counts: Vec<u32> = report.per_device.iter().map(|d| d.sm_count).collect();
    assert_eq!(sm_counts, [32, 8, 16, 4]);
    assert!(
        report.per_device[1..].iter().all(|d| d.peak_sessions > 0),
        "every smaller device must host sessions"
    );
    assert!(report.kill_migrations >= 1, "the kill must evacuate onto smaller devices");
    assert!(report.overload_migrations >= 1, "the mixed fleet must shed an overload");
    assert!(
        report.migration_events.iter().all(|m| devices[m.to] != devices[m.from]),
        "every migration lands on a different spec"
    );
}
