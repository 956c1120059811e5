//! Multi-device fleet serving: placement, re-probing, and live migration.
//!
//! The fleet multiplexes a churning session population across K simulated
//! edge devices. Where the single-device engine ([`crate::engine`]) owns
//! one device's tick in full kernel-level detail, the fleet works at the
//! admission-probe granularity the paper's on-the-fly optimization makes
//! composable: each session's cost is *probed* (planned at full quality and
//! priced on its host's device model), cached, and periodically
//! **re-probed** so placement decisions track content drift instead of the
//! one-shot admission estimate single-device serving uses. Per tick, every
//! device's latency is the batch-discounted sum of its hosted sessions'
//! shed-scaled costs — the same launch-amortization effect the
//! single-device engine's merged-batch price measures, collapsed to a
//! closed form so thousands of sessions stay tractable.
//!
//! Three layers respond to trouble, gentlest first:
//!
//! 1. **Degradation** — each session's own ladder absorbs its attributed
//!    share (exactly the single-device contract).
//! 2. **QoS step-down** — an overrunning device steps down one victim per
//!    tick and holds the rest ([`crate::qos`]), so a device never degrades
//!    in lockstep.
//! 3. **Migration** — a device whose fresh load this tick (its fresh
//!    tenants' shed-scaled, fault-stretched costs, before batch
//!    amortization) exceeds [`MIGRATE_FACTOR`] × budget sheds its newest
//!    tenant to the best other device; a device that dies (fault-injected
//!    or scheduled) evacuates everything. Every migration is charged a
//!    state-transfer blackout (latency surcharge + one-level step down) and
//!    recorded as a signal-attributed transition.
//!
//! Everything is virtual-time and sequential over `BTreeMap` state, so runs
//! are bit-identical across reruns, worker counts, and any shuffling of the
//! load schedule (the fleet re-sorts it).

use std::collections::BTreeMap;

use holoar_core::degrade::{
    DegradationController, DegradationLadder, DegradationLevel, TransitionReason,
};
use holoar_faults::{scenario, FaultInjector};
use holoar_gpusim::{DeviceSpec, HologramJob, JobPricer};
use holoar_sensors::objectron::{FrameGenerator, VideoCategory};

use crate::admission::{self, probe_job};
use crate::engine::{ladder_for, solo_cost};
use crate::load::{self, LoadConfig};
use crate::migration::{
    pick_overload_victim, MigrationRecord, MIGRATE_FACTOR, MIGRATION_COST, SIG_DEVICE_KILL,
    SIG_DEVICE_OVERLOAD,
};
use crate::placement::{place, DeviceView};
use crate::qos;
use crate::report::percentile;
use crate::session::SessionSpec;

/// Re-probe cadence in ticks: each session is re-planned and re-priced
/// every `REPROBE_EVERY` ticks, striped by session id so probe cost is
/// amortized across ticks.
pub const REPROBE_EVERY: u64 = 16;

/// Cross-session batch amortization on one device: per-session effective
/// cost scales by `BATCH_DISCOUNT + (1 - BATCH_DISCOUNT)/n` for `n` fresh
/// co-tenants, in `(0, 1]` (1 = no amortization). Against the kernel
/// model's merged batches of 1–24 full-quality probe jobs on
/// [`DeviceSpec::edge`] the closed form over-prices by 51–107 % (a unit
/// test pins the bound): the solo costs it discounts pay one launch per
/// plane, which merged kernels amortize even within one session.
pub const BATCH_DISCOUNT: f64 = 0.30;

/// Configuration of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The devices, heterogeneity welcome — each spec carries its own SM
    /// count and frame budget.
    pub devices: Vec<DeviceSpec>,
    /// Ticks to simulate (one tick = one 90 Hz refresh, fleet-wide).
    pub frames: u64,
    /// Offered load: arrivals, departures, diurnal ramp. Its seed is the
    /// master seed: session identity, load timing, fault streams.
    pub load: LoadConfig,
    /// A scheduled mid-run kill `(device index, tick)` — the acceptance
    /// scenario's deterministic failure, independent of the fault seed.
    pub kill: Option<(usize, u64)>,
    /// Per-window device-kill probability for each device's own fault
    /// injector ([`scenario::fleet_device_with_kill`]); 0 leaves the
    /// injectors to SM-slowdown / DRAM-contention windows
    /// ([`scenario::fleet_device`]).
    pub kill_probability: f64,
}

impl FleetConfig {
    /// A K-device fleet of [`DeviceSpec::edge`] devices under the diurnal
    /// load of `sessions` total sessions, with no kill.
    pub fn sweep(k: usize, sessions: u32, frames: u64, seed: u64) -> Self {
        FleetConfig {
            devices: vec![DeviceSpec::edge(); k],
            frames,
            load: LoadConfig::diurnal(sessions, seed),
            kill: None,
            kill_probability: 0.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices.is_empty() {
            return Err("a fleet needs at least one device".into());
        }
        for (i, spec) in self.devices.iter().enumerate() {
            spec.validate().map_err(|e| format!("device {i}: {e}"))?;
        }
        if self.frames == 0 {
            return Err("a fleet run needs at least one tick".into());
        }
        self.load.validate()?;
        if let Some((device, _)) = self.kill {
            if device >= self.devices.len() {
                return Err(format!("scheduled kill names device {device} of {}", self.devices.len()));
            }
        }
        if !(0.0..=1.0).contains(&self.kill_probability) {
            return Err("kill probability must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// Per-device outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device index.
    pub id: usize,
    /// SMs (from the spec's derived config).
    pub sm_count: u32,
    /// Tick the device died, if it did.
    pub killed_at: Option<u64>,
    /// Most sessions hosted at once.
    pub peak_sessions: u32,
    /// Session-frames presented from this device.
    pub presented: u64,
    /// Deadline-hit rate of those frames (1.0 for an idle device).
    pub hit_rate: f64,
}

/// Outcome of one fleet run. `Debug`-formatting the report is the
/// byte-identity surface the property tests compare.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Devices configured.
    pub devices: usize,
    /// Sessions offered by the load schedule.
    pub offered: usize,
    /// Sessions admitted at least once.
    pub admitted: usize,
    /// Arrivals turned away (no device had admission headroom).
    pub rejected: u64,
    /// Sessions dropped because no live device remained to host them.
    pub orphaned: u64,
    /// Admitted sessions that left on schedule before the run ended.
    pub departed: u64,
    /// Admitted sessions still hosted when the run ended.
    pub active_at_end: u64,
    /// Ticks simulated.
    pub frames: u64,
    /// Session-frames presented (fresh or reprojected).
    pub presented: u64,
    /// Fresh (non-reprojected) session-frames — the throughput numerator.
    pub fresh: u64,
    /// Presented frames that met their device's deadline.
    pub deadline_hits: u64,
    /// `deadline_hits / presented`.
    pub hit_rate: f64,
    /// Fresh frames per second of virtual wall time (ticks × 90 Hz budget).
    pub aggregate_fps: f64,
    /// Median presented-frame completion latency, seconds.
    pub latency_p50: f64,
    /// p99 presented-frame completion latency, seconds.
    pub latency_p99: f64,
    /// Total live migrations.
    pub migrations: u64,
    /// Migrations forced by device deaths.
    pub kill_migrations: u64,
    /// Migrations draining overloaded devices.
    pub overload_migrations: u64,
    /// Admission re-probes performed.
    pub reprobes: u64,
    /// Devices that died, as `(device, tick)` in death order.
    pub killed: Vec<(usize, u64)>,
    /// Most sessions live at once.
    pub peak_active: u32,
    /// Ladder transitions with reason `Migration`, read off each session's
    /// controller when it departs, is orphaned or outlives the run — an
    /// independent record the property tests pin equal to `migrations`.
    pub migration_transitions: u64,
    /// Per-device outcomes.
    pub per_device: Vec<DeviceReport>,
    /// Every migration, in order.
    pub migration_events: Vec<MigrationRecord>,
}

struct FleetDevice {
    spec: DeviceSpec,
    /// Prices probe jobs on the nominal device model.
    pricer: JobPricer,
    injector: FaultInjector,
    dead: bool,
    killed_at: Option<u64>,
    /// Probed full-quality load estimate, seconds per tick (placement's
    /// least-loaded signal; maintained incrementally).
    est_load: f64,
    hosted: u32,
    peak_hosted: u32,
    presented: u64,
    hits: u64,
}

impl FleetDevice {
    /// Books a session of probed cost `cost` onto this device.
    fn host(&mut self, cost: f64) {
        self.est_load += cost;
        self.hosted += 1;
        self.peak_hosted = self.peak_hosted.max(self.hosted);
    }

    /// The probed cost of `job` on this device, given its `cost` as priced
    /// on `priced_on`: reused when the specs match, re-priced otherwise.
    fn cost_of(
        &self,
        job: &HologramJob,
        priced_on: &DeviceSpec,
        cost: f64,
        ladder: &DegradationLadder,
    ) -> f64 {
        if self.spec == *priced_on {
            cost
        } else {
            solo_cost(&self.pricer, job, ladder)
        }
    }
}

struct FleetSession {
    spec: SessionSpec,
    ctl: DegradationController,
    generator: FrameGenerator,
    injector: FaultInjector,
    device: usize,
    arrived: u64,
    departs: u64,
    /// Last probed full-quality job (re-priced on migration).
    job: HologramJob,
    /// Probed full-quality solo cost on the current host, seconds.
    cost: f64,
    just_migrated: bool,
    presented: u64,
    fresh: u64,
    hits: u64,
    // Per-tick scratch, rewritten each tick before use.
    effective: f64,
    overrun: f64,
    reprojecting: bool,
}

/// The closed-form batch amortization factor for `n` fresh co-tenants.
fn amortize(n: u32) -> f64 {
    BATCH_DISCOUNT + (1.0 - BATCH_DISCOUNT) / f64::from(n)
}

/// Placement snapshot: every device's probed load, liveness, and how many
/// of its tenants stream `video`.
fn device_views(
    devices: &[FleetDevice],
    sessions: &BTreeMap<u32, FleetSession>,
    video: VideoCategory,
) -> Vec<DeviceView> {
    let mut same = vec![0u32; devices.len()];
    for s in sessions.values() {
        if s.spec.video == video {
            same[s.device] += 1;
        }
    }
    devices
        .iter()
        .enumerate()
        .map(|(d, dev)| DeviceView {
            load: dev.est_load,
            budget: dev.spec.budget(),
            alive: !dev.dead,
            same_video: same[d],
        })
        .collect()
}

/// Moves session `s` (id `id`) onto device `to` at `tick`: re-prices and
/// books it there and charges the blackout's step down under `signal`.
/// The caller unbooks it from its old device and logs the returned record.
fn migrate(
    devices: &mut [FleetDevice],
    id: u32,
    s: &mut FleetSession,
    to: usize,
    tick: u64,
    signal: &'static str,
    ladder: &DegradationLadder,
) -> MigrationRecord {
    let from = s.device;
    let cost = devices[to].cost_of(&s.job, &devices[from].spec, s.cost, ladder);
    devices[to].host(cost);
    s.device = to;
    s.cost = cost;
    s.just_migrated = true;
    s.ctl.record_migration(tick, signal);
    holoar_telemetry::counter_add("fleet.migrations", 1);
    MigrationRecord { tick, session: id, from, to, signal }
}

impl FleetReport {
    /// Checks the report's books: every offered session is admitted or
    /// rejected, and every admitted one departed, was orphaned or is still
    /// active; the per-device presented frames sum to the fleet's, and no
    /// more of them are fresh than presented; and every migration is logged
    /// once as an event, once as a ladder transition and once under its
    /// cause (device kill or overload).
    ///
    /// # Errors
    ///
    /// Returns the first invariant that does not hold, with both sides.
    pub fn check(&self) -> Result<(), String> {
        let per_device: u64 = self.per_device.iter().map(|d| d.presented).sum();
        let books = [
            (
                "offered",
                self.offered as u64,
                "admitted + rejected",
                self.admitted as u64 + self.rejected,
            ),
            (
                "admitted",
                self.admitted as u64,
                "departed + orphaned + active at end",
                self.departed + self.orphaned + self.active_at_end,
            ),
            ("presented", self.presented, "Σ per-device presented", per_device),
            ("migrations", self.migrations, "migration events", self.migration_events.len() as u64),
            ("migrations", self.migrations, "migration transitions", self.migration_transitions),
            (
                "migrations",
                self.migrations,
                "kill + overload migrations",
                self.kill_migrations + self.overload_migrations,
            ),
        ];
        for (name, value, parts, sum) in books {
            if value != sum {
                return Err(format!("fleet books: {name} = {value} but {parts} = {sum}"));
            }
        }
        if self.fresh > self.presented {
            return Err(format!(
                "fleet books: {} fresh frames exceed {} presented",
                self.fresh, self.presented
            ));
        }
        Ok(())
    }
}

/// Runs the fleet loop. Deterministic for a given configuration: the loop
/// is sequential virtual-time over ordered state, so reports are
/// bit-identical across reruns and worker counts.
///
/// # Errors
///
/// Returns a description of the first invalid configuration field,
/// internal model construction failure, or unbalanced book
/// ([`FleetReport::check`]).
// holoar-lint: frame-loop
pub fn run_fleet(config: &FleetConfig) -> Result<FleetReport, String> {
    let _span = holoar_telemetry::span_cat("fleet.run", "fleet");
    config.validate()?;
    let k = config.devices.len();
    let seed = config.load.seed;
    let ladder = ladder_for(&DeviceSpec::edge());

    let mut devices = Vec::with_capacity(k);
    for (d, spec) in config.devices.iter().enumerate() {
        let injector = if config.kill_probability > 0.0 {
            scenario::fleet_device_with_kill(seed, d as u32, config.kill_probability)?
        } else {
            scenario::fleet_device(seed, d as u32)?
        };
        devices.push(FleetDevice {
            spec: *spec,
            pricer: JobPricer::new(&spec.config()),
            injector,
            dead: false,
            killed_at: None,
            est_load: 0.0,
            hosted: 0,
            peak_hosted: 0,
            presented: 0,
            hits: 0,
        });
    }

    let plans = load::schedule(&config.load, config.frames)?;
    let offered = plans.len();
    let mut next_arrival = 0usize;

    let mut sessions: BTreeMap<u32, FleetSession> = BTreeMap::new();
    let mut admitted = 0usize;
    let mut rejected = 0u64;
    let mut orphaned = 0u64;
    let mut departed = 0u64;
    let mut reprobes = 0u64;
    // Each device dies at most once.
    let mut killed: Vec<(usize, u64)> = Vec::with_capacity(k);
    let mut migration_events: Vec<MigrationRecord> = Vec::new();
    let mut migration_transitions = 0u64;
    let mut peak_active = 0u32;
    let mut presented = 0u64;
    let mut fresh = 0u64;
    let mut deadline_hits = 0u64;
    // One latency per presented frame: at most every planned session on
    // every tick it stays within the run.
    let presentable: u64 =
        plans.iter().map(|p| p.depart.min(config.frames).saturating_sub(p.arrive)).sum();
    let mut latencies: Vec<f64> = Vec::with_capacity(presentable as usize);
    // Per-tick buffers, allocated once and refilled every tick: the
    // sessions leaving (departing, or evacuated off a dead device) and the
    // tenants of an overloaded device, in session-id order, then the
    // per-device fault stretch, load, fresh count and latency.
    let mut leaving: Vec<u32> = Vec::new();
    let mut tenants: Vec<(u32, u64)> = Vec::new();
    let mut stretch = vec![1.0f64; k];
    let mut loads = vec![0.0f64; k];
    let mut fresh_counts = vec![0u32; k];
    let mut device_latency = vec![0.0f64; k];

    for tick in 0..config.frames {
        let _tick = holoar_telemetry::span_cat("fleet.tick", "fleet");

        // -- departures ---------------------------------------------------
        leaving.clear();
        leaving.extend(sessions.iter().filter(|(_, s)| s.departs <= tick).map(|(&id, _)| id));
        for &id in &leaving {
            if let Some(s) = sessions.remove(&id) {
                devices[s.device].est_load -= s.cost;
                devices[s.device].hosted -= 1;
                migration_transitions += count_migration_transitions(&s.ctl);
                departed += 1;
                holoar_telemetry::counter_add("fleet.sessions.departed", 1);
            }
        }

        // -- device faults, deaths, evacuation ----------------------------
        stretch.fill(1.0);
        for d in 0..k {
            if devices[d].dead {
                continue;
            }
            let faults = devices[d].injector.frame(tick);
            let scheduled = config.kill == Some((d, tick));
            if faults.device_dead || scheduled {
                devices[d].dead = true;
                devices[d].killed_at = Some(tick);
                devices[d].est_load = 0.0;
                devices[d].hosted = 0;
                killed.push((d, tick));
                holoar_telemetry::counter_add("fleet.device.killed", 1);
                // Evacuate in session-id order; each evacuee lands on the
                // best surviving device (or is orphaned if none remains).
                leaving.clear();
                leaving.extend(sessions.iter().filter(|(_, s)| s.device == d).map(|(&id, _)| id));
                for &id in &leaving {
                    let Some((video, cost)) = sessions.get(&id).map(|s| (s.spec.video, s.cost))
                    else {
                        continue;
                    };
                    let views = device_views(&devices, &sessions, video);
                    if let Some(target) = place(&views, cost) {
                        if let Some(s) = sessions.get_mut(&id) {
                            let signal = SIG_DEVICE_KILL;
                            let record = migrate(&mut devices, id, s, target, tick, signal, &ladder);
                            // holoar-lint: allow(hot-loop-alloc, reason = "one record per migration, a control event that kills and overloads trigger; the log grows with migrations, not with frames")
                            migration_events.push(record);
                        }
                    } else if let Some(s) = sessions.remove(&id) {
                        migration_transitions += count_migration_transitions(&s.ctl);
                        orphaned += 1;
                        holoar_telemetry::counter_add("fleet.sessions.orphaned", 1);
                    }
                }
            } else {
                stretch[d] = 1.0 / (faults.clock_scale * faults.dram_scale);
            }
        }

        // -- arrivals -----------------------------------------------------
        while next_arrival < plans.len() && plans[next_arrival].arrive == tick {
            let plan = plans[next_arrival];
            next_arrival += 1;
            if plan.depart <= tick {
                continue;
            }
            // Probe the session's first frame at full quality, priced on
            // the reference device model (device 0); re-priced on the
            // chosen host if its spec differs.
            let mut generator = FrameGenerator::new(plan.spec.video, plan.spec.seed);
            generator.step();
            let job = probe_job(generator.current())?;
            let ref_cost = solo_cost(&devices[0].pricer, &job, &ladder);
            // Greedy admission: try devices best-first until one has
            // headroom; every candidate exhausted means rejection.
            let mut views = device_views(&devices, &sessions, plan.spec.video);
            let target = loop {
                let Some(candidate) = place(&views, ref_cost) else {
                    break None;
                };
                let dev = &devices[candidate];
                if admission::fits(dev.est_load, ref_cost, dev.spec.budget()) {
                    break Some(candidate);
                }
                views[candidate].alive = false;
            };
            let Some(target) = target else {
                rejected += 1;
                holoar_telemetry::counter_add("fleet.sessions.rejected", 1);
                continue;
            };
            let cost = devices[target].cost_of(&job, &devices[0].spec, ref_cost, &ladder);
            devices[target].host(cost);
            admitted += 1;
            holoar_telemetry::counter_add("fleet.sessions.arrived", 1);
            sessions.insert(
                plan.spec.id,
                FleetSession {
                    spec: plan.spec,
                    ctl: DegradationController::new(ladder)?,
                    generator,
                    injector: scenario::serve_session(plan.spec.seed, plan.spec.id)?,
                    device: target,
                    arrived: tick,
                    departs: plan.depart,
                    job,
                    cost,
                    just_migrated: false,
                    presented: 0,
                    fresh: 0,
                    hits: 0,
                    effective: 0.0,
                    overrun: 0.0,
                    reprojecting: false,
                },
            );
        }
        peak_active = peak_active.max(sessions.len() as u32);

        // -- advance sessions: sense, decide, load, re-probe --------------
        loads.fill(0.0);
        fresh_counts.fill(0);
        for (&id, s) in sessions.iter_mut() {
            let session_faults = s.injector.frame(tick);
            let level = s.ctl.decide(tick);
            s.reprojecting = level == DegradationLevel::LastGood;
            s.overrun = session_faults.stage_overrun;
            s.effective = if s.reprojecting {
                0.0
            } else {
                let session_stretch =
                    1.0 / (session_faults.clock_scale * session_faults.dram_scale);
                ladder.shed[level.index()] * s.cost * session_stretch
            };
            if !s.reprojecting {
                loads[s.device] += s.effective;
                fresh_counts[s.device] += 1;
            }
            // Striped re-probe: every session re-plans at full quality
            // every `REPROBE_EVERY` ticks, offset by id, from frame
            // `tick - arrived`. The new cost loads its host from the next
            // tick on.
            if tick > s.arrived && tick % REPROBE_EVERY == u64::from(id) % REPROBE_EVERY {
                let job = probe_job(s.generator.current())?;
                let cost = solo_cost(&devices[s.device].pricer, &job, &ladder);
                devices[s.device].est_load += cost - s.cost;
                s.job = job;
                s.cost = cost;
                reprobes += 1;
                holoar_telemetry::counter_add("fleet.reprobe.probes", 1);
            }
            // Every tick advances the content; only a re-probe reads it.
            s.generator.step();
        }

        // -- device latency: batch-discounted sum, fault-stretched --------
        for d in 0..k {
            device_latency[d] = if fresh_counts[d] > 0 {
                loads[d] * amortize(fresh_counts[d]) * stretch[d]
            } else {
                0.0
            };
        }

        // -- attribution --------------------------------------------------
        for s in sessions.values_mut() {
            let d = s.device;
            let budget = devices[d].spec.budget();
            let mut completion = if s.reprojecting {
                ladder.reproject_latency
            } else {
                device_latency[d] + s.overrun
            };
            if s.just_migrated {
                completion += MIGRATION_COST;
                s.just_migrated = false;
            }
            let hit = completion <= budget + 1e-12;
            s.presented += 1;
            presented += 1;
            devices[d].presented += 1;
            if !s.reprojecting {
                s.fresh += 1;
                fresh += 1;
            }
            if hit {
                s.hits += 1;
                deadline_hits += 1;
                devices[d].hits += 1;
                holoar_telemetry::counter_add("fleet.deadline.hit", 1);
            } else {
                holoar_telemetry::counter_add("fleet.deadline.miss", 1);
            }
            latencies.push(completion);
            // The controller sees only this session's attributed share.
            let observed = if s.reprojecting {
                ladder.reproject_latency
            } else {
                s.effective * amortize(fresh_counts[d].max(1)) * stretch[d] + s.overrun
            };
            s.ctl.observe(tick, observed);
        }

        // -- QoS: one victim per overrunning device, the deepest effective
        // cost (ties to the lower id) --------------------------------------
        for d in 0..k {
            let victim = qos::respond(
                device_latency[d],
                devices[d].spec.budget(),
                sessions.values_mut().filter(|s| s.device == d),
                |s| &mut s.ctl,
                |_, s| !s.reprojecting && s.ctl.level() != DegradationLevel::LastGood,
                |a, b| {
                    a.effective
                        .total_cmp(&b.effective)
                        .then(b.spec.id.cmp(&a.spec.id))
                        .is_gt()
                },
                "fleet-batch-overrun",
            );
            if victim.is_some() {
                holoar_telemetry::counter_add("fleet.qos.step_down", 1);
            }
        }

        // -- overload migration: newest tenant off a hot device -----------
        for d in 0..k {
            if devices[d].dead || loads[d] <= MIGRATE_FACTOR * devices[d].spec.budget() {
                continue;
            }
            tenants.clear();
            tenants.extend(
                sessions.iter().filter(|(_, s)| s.device == d).map(|(&id, s)| (id, s.arrived)),
            );
            let Some(victim) = pick_overload_victim(&tenants) else {
                continue;
            };
            let Some((video, cost)) = sessions.get(&victim).map(|s| (s.spec.video, s.cost)) else {
                continue;
            };
            let mut views = device_views(&devices, &sessions, video);
            views[d].alive = false; // never "migrate" in place
            let Some(target) = place(&views, cost) else {
                continue;
            };
            if !admission::fits(devices[target].est_load, cost, devices[target].spec.budget()) {
                continue; // no better home; keep absorbing via QoS
            }
            devices[d].est_load -= cost;
            devices[d].hosted -= 1;
            if let Some(s) = sessions.get_mut(&victim) {
                let record =
                    migrate(&mut devices, victim, s, target, tick, SIG_DEVICE_OVERLOAD, &ladder);
                // holoar-lint: allow(hot-loop-alloc, reason = "one record per migration, a control event that kills and overloads trigger; the log grows with migrations, not with frames")
                migration_events.push(record);
            }
        }

        holoar_telemetry::gauge_set(
            "fleet.devices.live",
            devices.iter().filter(|dev| !dev.dead).count() as f64,
        );
        holoar_telemetry::gauge_set("fleet.sessions.active", sessions.len() as f64);
    }

    // Migration transitions are read off each controller once, as its
    // session leaves the books: departures and orphans above, survivors here.
    migration_transitions +=
        sessions.values().map(|s| count_migration_transitions(&s.ctl)).sum::<u64>();
    let wall = config.frames as f64 * DeviceSpec::edge().budget();
    let aggregate_fps = fresh as f64 / wall.max(f64::MIN_POSITIVE);
    holoar_telemetry::gauge_set("fleet.throughput_fps", aggregate_fps);

    let kill_migrations =
        migration_events.iter().filter(|m| m.signal == SIG_DEVICE_KILL).count() as u64;
    let overload_migrations = migration_events.len() as u64 - kill_migrations;
    let per_device = devices
        .iter()
        .enumerate()
        .map(|(id, dev)| DeviceReport {
            id,
            sm_count: dev.spec.config().sm_count,
            killed_at: dev.killed_at,
            peak_sessions: dev.peak_hosted,
            presented: dev.presented,
            hit_rate: if dev.presented == 0 {
                1.0
            } else {
                dev.hits as f64 / dev.presented as f64
            },
        })
        .collect();

    let report = FleetReport {
        devices: k,
        offered,
        admitted,
        rejected,
        orphaned,
        departed,
        active_at_end: sessions.len() as u64,
        frames: config.frames,
        presented,
        fresh,
        deadline_hits,
        hit_rate: if presented == 0 { 1.0 } else { deadline_hits as f64 / presented as f64 },
        aggregate_fps,
        latency_p50: percentile(&latencies, 0.50),
        latency_p99: percentile(&latencies, 0.99),
        migrations: migration_events.len() as u64,
        kill_migrations,
        overload_migrations,
        reprobes,
        killed,
        peak_active,
        migration_transitions,
        per_device,
        migration_events,
    };
    report.check()?;
    Ok(report)
}

/// Migration-reason transitions recorded on one controller.
fn count_migration_transitions(ctl: &DegradationController) -> u64 {
    ctl.transitions()
        .iter()
        .filter(|t| t.reason == TransitionReason::Migration)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_discount_over_prices_the_kernel_model_within_its_bound() {
        // The closed form against the device model's merged batch of the
        // first n of 24 full-quality probe jobs (with work) on the edge
        // device. The solo costs it discounts pay one launch per plane,
        // which merging amortizes even for one session, so it over-prices;
        // the worst case measured is n = 2 at +106.6 %.
        let device = DeviceSpec::edge().config();
        let pricer = JobPricer::new(&device);
        let jobs: Vec<HologramJob> = SessionSpec::fleet(128, 42)
            .iter()
            .map(|spec| {
                let frame = FrameGenerator::new(spec.video, spec.seed).next().unwrap();
                probe_job(&frame).unwrap()
            })
            .filter(|job| job.plane_count > 0)
            .take(24)
            .collect();
        assert_eq!(jobs.len(), 24);
        for n in 1..=jobs.len() {
            let solo: f64 = jobs[..n].iter().map(|job| pricer.latency(job)).sum();
            let closed_form = solo * amortize(n as u32);
            let batch = pricer.batch(&jobs[..n]).latency;
            let err = (closed_form - batch) / batch;
            assert!((0.0..=1.07).contains(&err), "n = {n}: relative error {err}");
        }
    }

    #[test]
    fn validate_rejects_bad_fleets() {
        assert!(FleetConfig { devices: vec![], ..FleetConfig::sweep(1, 4, 10, 1) }
            .validate()
            .is_err());
        assert!(FleetConfig { kill_probability: 1.5, ..FleetConfig::sweep(2, 4, 10, 1) }
            .validate()
            .is_err());
        assert!(FleetConfig { kill: Some((9, 5)), ..FleetConfig::sweep(2, 4, 10, 1) }
            .validate()
            .is_err());
        assert!(FleetConfig::sweep(2, 4, 10, 1).validate().is_ok());
    }

    #[test]
    fn a_small_fleet_serves_and_reprobes() {
        let report = run_fleet(&FleetConfig::sweep(2, 6, 48, 42)).unwrap();
        assert_eq!(report.devices, 2);
        assert_eq!(report.offered, 6);
        assert!(report.admitted > 0);
        assert!(report.fresh > 0);
        assert!(report.reprobes > 0, "re-probing must actually happen");
        assert!(report.hit_rate > 0.5, "hit rate collapsed: {}", report.hit_rate);
        assert_eq!(report.presented, report.per_device.iter().map(|d| d.presented).sum());
    }

    #[test]
    fn a_scheduled_kill_migrates_every_hosted_session() {
        let config = FleetConfig { kill: Some((0, 20)), ..FleetConfig::sweep(3, 12, 60, 42) };
        let report = run_fleet(&config).unwrap();
        assert_eq!(report.killed, vec![(0, 20)]);
        assert!(report.kill_migrations > 0, "the killed device hosted nobody?");
        assert_eq!(report.migrations, report.migration_transitions);
        assert!(report
            .migration_events
            .iter()
            .all(|m| !m.signal.is_empty() && m.from != m.to));
        // The dead device presents nothing after the kill.
        let dead = &report.per_device[0];
        assert_eq!(dead.killed_at, Some(20));
    }

    #[test]
    fn check_catches_unbalanced_books() {
        let config = FleetConfig { kill: Some((0, 20)), ..FleetConfig::sweep(3, 12, 60, 42) };
        let report = run_fleet(&config).unwrap();
        assert_eq!(report.check(), Ok(()));
        let mut lost = report.clone();
        lost.departed += 1;
        assert!(lost.check().unwrap_err().contains("departed + orphaned"));
        let mut unlogged = report.clone();
        unlogged.migration_transitions += 1;
        assert!(unlogged.check().unwrap_err().contains("migration transitions"));
        let mut stale = report.clone();
        stale.fresh = stale.presented + 1;
        assert!(stale.check().unwrap_err().contains("fresh"));
    }

    #[test]
    fn reruns_are_bit_identical() {
        let config = FleetConfig { kill: Some((1, 30)), ..FleetConfig::sweep(4, 24, 80, 7) };
        let a = run_fleet(&config).unwrap();
        let b = run_fleet(&config).unwrap();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
