//! The serving engine: admission, the tick loop, and report assembly.
//!
//! Each *tick* is one display refresh of the shared edge device. Every
//! admitted session contributes its planned depth planes; the device model
//! prices them as one merged cross-session launch sequence
//! ([`JobPricer::batch`]); and the tick's latency is attributed back to
//! sessions by their block share. Overload is handled in three deterministic
//! layers, gentlest first:
//!
//! 1. **Degradation** — each session's
//!    [`DegradationController`](holoar_core::DegradationController) absorbs its
//!    *own* faults (its attributed share plus its injected overruns).
//! 2. **QoS step-down** — when the whole batch overruns the budget, exactly
//!    one victim (the least-focused session) is stepped down per tick, so
//!    the fleet never degrades in lockstep.
//! 3. **Deferral** — when the batch overruns the budget by more than
//!    [`DEFER_THRESHOLD`], sessions at the back of the scheduler's priority
//!    order are deferred (stale reprojection) until the batch fits; aging
//!    guarantees no session is deferred indefinitely.

use holoar_core::degrade::{DegradationLadder, DegradationLevel};
use holoar_core::planner::ComputePlan;
use holoar_core::{
    ExecutionContext, GazeInput, HoloArConfig, Planner, PoseInput, Scheme, SensorSample,
};
use holoar_faults::FrameFaults;
use holoar_gpusim::hologram_kernels::batch_block_shares;
use holoar_gpusim::{calibration, session_occupancy, DeviceSpec, HologramJob, JobPricer};
use holoar_pipeline::executor::{run_staged, StagedConfig};
use holoar_pipeline::schedule::FrameLatencies;
use holoar_sensors::angles::AngularPoint;
use holoar_sensors::eyetrack::GazeEstimate;
use holoar_sensors::objectron::{Frame, FrameGenerator};
use holoar_sensors::pose::PoseEstimate;

use crate::admission;
use crate::qos;
use crate::quality::QualitySampler;
use crate::report::{percentile, ServeReport, SessionReport};
use crate::scheduler::FrameScheduler;
use crate::session::{SessionSpec, SessionState};
use crate::slo::{
    self, FleetSlo, STAGE_BATCH, STAGE_FAULT_STRETCH, STAGE_OVERRUN, STAGE_QUEUE_WAIT,
    STAGE_REPROJECT,
};

/// Per-session hologram resolution for the serving experiments. Serving
/// targets lightweight per-eye holograms (64²) so the interesting regime —
/// many small sessions sharing one device — is reachable; the paper's 512²
/// single-user hologram saturates the device at one session.
pub const SERVE_HOLOGRAM_PIXELS: u64 = 64 * 64;

/// Frame budget for served sessions: a 90 Hz AR display refresh (the
/// [`DeviceSpec::edge`] deadline).
pub const SERVE_FRAME_BUDGET: f64 = holoar_gpusim::EDGE_FRAME_BUDGET;

/// Deferral trigger as a multiple of the frame budget.
pub const DEFER_THRESHOLD: f64 = 1.5;

/// Bound of each session's stale-backlog queue (and of the per-session
/// staged executor's ingest → compute queue): how many ticks of owed fresh
/// content a session tolerates before saturation forces a
/// `"queue-saturated"` step-down.
pub const SESSION_QUEUE: usize = 3;

/// The full-quality planner configuration every session degrades from, in
/// both serving loops.
pub(crate) fn base_config() -> HoloArConfig {
    HoloArConfig::for_scheme(Scheme::InterIntraHolo).without_reuse()
}

/// The degradation ladder each session on `device` instantiates: the
/// default ladder at the device's frame budget.
pub(crate) fn ladder_for(device: &DeviceSpec) -> DegradationLadder {
    DegradationLadder { frame_budget: device.budget(), ..DegradationLadder::default() }
}

/// A session's solo cost per tick on a device model: its job's solo
/// latency, or the reprojection cost when it computes no planes. Both
/// serving loops price sessions with it.
pub(crate) fn solo_cost(pricer: &JobPricer, job: &HologramJob, ladder: &DegradationLadder) -> f64 {
    if job.plane_count == 0 {
        ladder.reproject_latency
    } else {
        pricer.latency(job)
    }
}

/// Configuration of one serving run.
///
/// The shared device is a [`DeviceSpec`]: [`DeviceSpec::edge`] is the
/// serving default — Xavier-class SMs, but 32 of them, an edge-server
/// accelerator rather than a headset SoC. Per-session 64² plane kernels
/// span 16 blocks, so a single session leaves most of the device idle;
/// cross-session batching is what fills it — and a ~16-session fleet
/// saturates it, exercising the QoS and deferral layers.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Requested sessions, in admission-priority order.
    pub specs: Vec<SessionSpec>,
    /// Ticks to simulate.
    pub frames: u64,
    /// The shared device spec — model and the per-tick
    /// deadline ([`DeviceSpec::budget`]).
    pub device: DeviceSpec,
}

impl ServeConfig {
    /// A serving run of the given session specs on the given device.
    /// Heterogeneous session mixes are expressed by passing explicit specs;
    /// the common uniform case is
    /// `ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(n, seed), frames)`.
    pub fn fleet(device: DeviceSpec, specs: Vec<SessionSpec>, frames: u64) -> Self {
        ServeConfig { specs, frames, device }
    }

    /// The per-tick deadline in seconds — the device spec's frame budget.
    pub fn frame_budget(&self) -> f64 {
        self.device.budget()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.specs.is_empty() {
            return Err("serving needs at least one session".into());
        }
        if self.frames == 0 {
            return Err("serving needs at least one tick".into());
        }
        self.device.validate()
    }
}

/// A fixated nominal sensor sample: gaze on the first object (as in the
/// quality studies), pose centered.
pub(crate) fn nominal_sample(frame: &Frame) -> SensorSample {
    let gaze = frame.objects.first().map(|o| o.direction).unwrap_or(AngularPoint::CENTER);
    SensorSample {
        pose: PoseInput::Tracked(PoseEstimate {
            orientation: AngularPoint::CENTER,
            latency: 0.01375,
        }),
        gaze: GazeInput::Tracked(GazeEstimate { direction: gaze, latency: 0.0044 }),
    }
}

/// Fraction of planned objects inside the region of focus (1.0 for an empty
/// plan — nothing peripheral to shed).
pub(crate) fn plan_focus(plan: &ComputePlan) -> f64 {
    if plan.items.is_empty() {
        return 1.0;
    }
    let in_rof = plan.items.iter().filter(|it| it.in_rof).count();
    in_rof as f64 / plan.items.len() as f64
}

/// Collapses a plan into the session's tick job: total computed planes at
/// the plane-weighted mean coverage.
pub(crate) fn session_job(plan: &ComputePlan) -> HologramJob {
    let mut planes = 0u64;
    let mut weighted_coverage = 0.0;
    for item in plan.items.iter().filter(|it| it.needs_compute()) {
        planes += u64::from(item.planes);
        weighted_coverage += f64::from(item.planes) * item.coverage;
    }
    let coverage = if planes == 0 {
        1.0
    } else {
        (weighted_coverage / planes as f64).clamp(f64::MIN_POSITIVE, 1.0)
    };
    HologramJob {
        pixels: SERVE_HOLOGRAM_PIXELS,
        plane_count: planes.min(u64::from(u32::MAX)) as u32,
        coverage,
        gsw_iterations: calibration::GSW_ITERATIONS,
    }
}

/// A no-work placeholder keeping batch indices aligned with sessions.
fn idle_job() -> HologramJob {
    HologramJob {
        pixels: SERVE_HOLOGRAM_PIXELS,
        plane_count: 0,
        coverage: 1.0,
        gsw_iterations: calibration::GSW_ITERATIONS,
    }
}

struct TickSession {
    faults: FrameFaults,
    job: HologramJob,
    reprojecting: bool,
}

/// Runs the multi-session serving loop and reports fleet and per-session
/// outcomes. Deterministic for a given configuration: identical reports at
/// any worker count (the only parallel fan-outs are the bit-identical
/// quality and pipeline evaluations).
///
/// # Errors
///
/// Returns a description of the first invalid configuration field,
/// internal model construction failure, or unbalanced book
/// ([`ServeReport::check`]).
pub fn run_serve(config: &ServeConfig, ctx: &ExecutionContext) -> Result<ServeReport, String> {
    let _span = holoar_telemetry::span_cat("serve.run", "serve");
    config.validate()?;
    let requested = config.specs.len();

    // -- admission: probe each session's full-quality first frame ----------
    // The first frames are kept for the quality probes.
    let mut first_frames = Vec::with_capacity(requested);
    let mut probe_jobs = Vec::with_capacity(requested);
    for spec in &config.specs {
        let frame = FrameGenerator::new(spec.video, spec.seed)
            .next()
            .ok_or("frame generator must be infinite")?;
        probe_jobs.push(admission::probe_job(&frame)?);
        first_frames.push(frame);
    }
    let device_cfg = config.device.config();
    let pricer = JobPricer::new(&device_cfg);
    let base = base_config();
    let ladder = ladder_for(&config.device);
    let estimates: Vec<f64> =
        (1..=requested).map(|k| pricer.batch(&probe_jobs[..k]).latency).collect();
    let admitted = admission::admit_count(&estimates, config.frame_budget());
    holoar_telemetry::counter_add("serve.admission.admitted", admitted as u64);
    holoar_telemetry::counter_add("serve.admission.rejected", (requested - admitted) as u64);
    holoar_telemetry::gauge_set("serve.sessions.active", admitted as f64);

    // -- state ------------------------------------------------------------
    let mut states = Vec::with_capacity(admitted);
    for spec in &config.specs[..admitted] {
        states.push(SessionState::new(*spec, ladder, config.frames)?);
    }
    let mut scheduler = FrameScheduler::new(admitted);
    let mut batched_time_total = 0.0;
    let mut sequential_time_total = 0.0;
    let mut occupancy_sum = 0.0;
    let mut occupancy_ticks = 0u64;
    let mut merged_launches = 0u64;
    let mut launches_saved = 0u64;
    // Fleet-level sliding windows, keyed by tick index (replay-safe).
    let mut hit_window = holoar_telemetry::SlidingWindow::new(slo::FAST_WINDOW);
    let mut queue_window = holoar_telemetry::SlidingWindow::new(slo::FAST_WINDOW);
    let mut occupancy_window = holoar_telemetry::SlidingWindow::new(slo::FAST_WINDOW);

    // -- tick loop --------------------------------------------------------
    for tick in 0..config.frames {
        let _tick = holoar_telemetry::span_cat("serve.tick", "serve");
        let order = scheduler.order(tick);

        // Phase 1: sense, decide, plan — fixed session-id order so every
        // generator and injector advances identically regardless of
        // scheduling history.
        let mut ticks = Vec::with_capacity(admitted);
        for state in states.iter_mut() {
            state.generator.step();
            let frame = state.generator.current();
            let faults = state.injector.frame(tick);
            let sample = faults.degrade_sensors(&nominal_sample(frame));
            let level = state.ctl.decide(tick);
            state.frames_at_level[level.index()] += 1;
            state.level_window.push(tick, level.index() as f64);
            let (job, reprojecting) = match state.ctl.config_for(&base) {
                Some(level_cfg) => {
                    let plan = Planner::new(level_cfg)?.plan_frame_with(frame, &sample);
                    state.observe_focus(plan_focus(&plan));
                    (session_job(&plan), false)
                }
                // LastGood: re-present the previous hologram, no fresh planes.
                None => (idle_job(), true),
            };
            ticks.push(TickSession { faults, job, reprojecting });
        }

        // Phase 2: deferral — shed from the back of the priority order until
        // the batch fits the deferral threshold, always keeping at least one
        // fresh session. The loop leaves with the final jobs and their
        // price, whose latency is the tick's batch latency.
        let mut deferred = vec![false; admitted];
        let (jobs, batch) = loop {
            let jobs: Vec<HologramJob> = (0..admitted)
                .map(|i| if deferred[i] { idle_job() } else { ticks[i].job })
                .collect();
            let batch = pricer.batch(&jobs);
            if batch.latency <= config.frame_budget() * DEFER_THRESHOLD {
                break (jobs, batch);
            }
            let active: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&i| !deferred[i] && ticks[i].job.plane_count > 0)
                .collect();
            let Some(&victim) = active.last().filter(|_| active.len() > 1) else {
                break (jobs, batch);
            };
            deferred[victim] = true;
        };
        let batch_latency = batch.latency;

        // Phase 3: batched execution on the shared device, against the
        // launches the per-plane sequential schedule would have used.
        let shares = batch_block_shares(&jobs);
        let unbatched_launches: u64 = jobs
            .iter()
            .map(|j| 2 * u64::from(j.gsw_iterations) * u64::from(j.plane_count))
            .sum();
        let saved = unbatched_launches.saturating_sub(batch.launches);
        holoar_telemetry::counter_add("serve.batch.launches", batch.launches);
        holoar_telemetry::counter_add("serve.batch.launches_saved", saved);
        merged_launches += batch.launches;
        launches_saved += saved;
        let tick_occupancy = if batch.launches > 0 {
            let occupancy = session_occupancy(&jobs, &device_cfg);
            occupancy_sum += occupancy;
            occupancy_ticks += 1;
            holoar_telemetry::gauge_set("serve.tick.occupancy", occupancy);
            occupancy
        } else {
            0.0
        };
        occupancy_window.push(tick, tick_occupancy);
        queue_window.push(tick, deferred.iter().filter(|&&d| d).count() as f64);

        // Sequential baseline: the same (pre-deferral) workload as N
        // independent per-plane pipelines time-slicing the device.
        for t in &ticks {
            sequential_time_total += solo_cost(&pricer, &t.job, &ladder);
        }
        batched_time_total += batch_latency.max(ladder.reproject_latency);

        // Phase 4: per-session attribution and accounting.
        let mut tick_hits = 0u64;
        for i in 0..admitted {
            let t = &ticks[i];
            let state = &mut states[i];
            let fresh = !deferred[i] && !t.reprojecting;
            // The session's own faults stretch its share of the batch (its
            // stream's kernels run derated) and add its injected stage
            // overrun; the shared remainder runs at speed. The controller
            // observes only this session's attributed cost, so one tenant's
            // bad tick cannot stampede every ladder at once.
            let slowdown = 1.0 / (t.faults.clock_scale * t.faults.dram_scale);
            let own = shares[i] * batch_latency;
            let (completion, observed) = if fresh {
                let stretch = (slowdown - 1.0) * shares[i] * batch_latency;
                let overrun = t.faults.stage_overrun;
                (batch_latency + stretch + overrun, own * slowdown + overrun)
            } else {
                (ladder.reproject_latency, ladder.reproject_latency)
            };
            state.ctl.observe(tick, observed);
            // Stale-backlog queue: every tick without fresh content joins
            // the session's bounded drop-oldest queue; fresh service drains
            // it (the client has caught up). The controller watches the
            // depth — reprojection keeps `observed` cheap, so a starved
            // session otherwise looks perfectly healthy while its content
            // ages. Saturation forces a "queue-saturated" step-down, which
            // sheds planes and lets the batch (and this session) fit again.
            if fresh {
                while state.backlog.pop().is_some() {}
            } else if state.backlog.push(tick).is_some() {
                state.queue_drops += 1;
            }
            state.ctl.observe_queue_depth(state.backlog.len(), state.backlog.bound());
            let hit = !deferred[i] && completion <= config.frame_budget() + 1e-12;
            if deferred[i] {
                state.deferred += 1;
                holoar_telemetry::counter_add("serve.frames.deferred", 1);
            } else {
                state.served += 1;
                holoar_telemetry::counter_add("serve.frames.served", 1);
            }
            if hit {
                state.deadline_hits += 1;
                tick_hits += 1;
                holoar_telemetry::counter_add("serve.deadline.hit", 1);
            } else {
                holoar_telemetry::counter_add("serve.deadline.miss", 1);
            }
            state.latencies.push(completion);
            // SLO bookkeeping and the synthesized profile span tree. The
            // stage decomposition partitions `completion` exactly: own batch
            // share + co-tenant queue wait + fault stretch + injected
            // overrun for fresh frames, reprojection otherwise.
            state.slo.observe(tick, hit, completion);
            let stages: Vec<(&'static str, f64)> = if fresh {
                [
                    (STAGE_BATCH, own),
                    (STAGE_QUEUE_WAIT, batch_latency - own),
                    (STAGE_FAULT_STRETCH, (slowdown - 1.0) * own),
                    (STAGE_OVERRUN, t.faults.stage_overrun),
                ]
                .into_iter()
                .filter(|&(_, seconds)| seconds > 0.0)
                .collect()
            } else {
                vec![(STAGE_REPROJECT, ladder.reproject_latency)]
            };
            slo::record_frame_spans(
                &mut state.profile,
                state.spec.id,
                tick,
                config.frame_budget(),
                &stages,
            );
            scheduler.feedback(i, hit);
        }
        hit_window.push(tick, tick_hits as f64 / admitted.max(1) as f64);

        // Phase 5: QoS — an overloaded tick steps down the least-focused
        // session not already at the ladder floor.
        let victim = qos::respond(
            batch_latency,
            config.frame_budget(),
            &mut states,
            |s| &mut s.ctl,
            |states| {
                let focus: Vec<f64> = states.iter().map(|s| s.focus).collect();
                let eligible: Vec<bool> = (0..admitted)
                    .map(|i| {
                        !deferred[i]
                            && !ticks[i].reprojecting
                            && states[i].ctl.level() != DegradationLevel::LastGood
                    })
                    .collect();
                let level: Vec<usize> = states.iter().map(|s| s.ctl.level().index()).collect();
                qos::pick_victim(&focus, &level, &eligible)
            },
            "qos-batch-overrun",
        );
        if let Some(victim) = victim {
            states[victim].qos_step_downs += 1;
            holoar_telemetry::counter_add("serve.qos.step_down", 1);
        }
    }

    // -- aggregate --------------------------------------------------------
    let total_frames = admitted as u64 * config.frames;
    let aggregate_fps = total_frames as f64 / batched_time_total.max(f64::MIN_POSITIVE);
    let sequential_fps = total_frames as f64 / sequential_time_total.max(f64::MIN_POSITIVE);
    holoar_telemetry::gauge_set("serve.throughput_fps", aggregate_fps);

    let mut sampler = QualitySampler::new();
    let mut sessions = Vec::with_capacity(admitted);
    let mut all_latencies = Vec::with_capacity(total_frames as usize);
    let mut hits_total = 0u64;
    for (state, frame) in states.iter().zip(&first_frames) {
        let spec = state.spec;
        // Quality probes replay the session's first frame (nominal sensors)
        // at every level the session actually visited.
        let sample = nominal_sample(frame);
        let mut level_psnr = [0.0f64; 4];
        for level in DegradationLevel::ALL {
            let idx = level.index();
            let needed = state.frames_at_level[idx] > 0 || level == DegradationLevel::Full;
            if !needed {
                continue;
            }
            // LastGood re-presents content last computed at the ladder
            // floor, so it inherits the floor's quality.
            let probe_level = match level {
                DegradationLevel::LastGood => DegradationLevel::FloorBeta,
                other => other,
            };
            let level_cfg = ladder.apply(probe_level, &base);
            let plan = Planner::new(level_cfg)?.plan_frame_with(frame, &sample);
            level_psnr[idx] = sampler.plan_psnr(&plan, &level_cfg, ctx);
        }
        let psnr_full = level_psnr[DegradationLevel::Full.index()];
        let psnr_weighted = DegradationLevel::ALL
            .iter()
            .map(|l| state.frames_at_level[l.index()] as f64 * level_psnr[l.index()])
            .sum::<f64>()
            / config.frames as f64;

        let latencies = &state.latencies;
        // Client-side staged executor: the session's served hologram stream
        // replayed through the ingest ∥ compute ∥ present pipeline, with the
        // same queue bound the serving backlog uses. Virtual-time scheduling
        // keeps this bit-identical at any worker count.
        let staged_cfg = StagedConfig {
            compute_queue: SESSION_QUEUE,
            ..StagedConfig::default()
        };
        let pipeline = run_staged(
            config.frames,
            &staged_cfg,
            |i| FrameLatencies {
                pose: calibration::stage_latency::POSE_ESTIMATE,
                eye: calibration::stage_latency::EYE_TRACK,
                scene: 0.0,
                hologram: latencies[i as usize],
            },
            ctx,
        );

        hits_total += state.deadline_hits;
        all_latencies.extend_from_slice(latencies);
        let mean_latency = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        sessions.push(SessionReport {
            id: spec.id,
            video: spec.video.name(),
            frames: config.frames,
            served: state.served,
            deferred: state.deferred,
            deadline_hits: state.deadline_hits,
            hit_rate: state.deadline_hits as f64 / config.frames as f64,
            frames_at_level: state.frames_at_level,
            qos_step_downs: state.qos_step_downs,
            max_overruns_without_stepdown: state.ctl.max_overruns_without_stepdown(),
            mean_latency,
            p99_latency: percentile(latencies, 0.99),
            psnr_weighted,
            psnr_full,
            queue_drops: state.queue_drops,
            pipeline_fps: pipeline.throughput_fps,
            pipeline_stale: pipeline.stale_frames,
            slo: slo::session_slo(
                &state.slo,
                &state.profile,
                state.ctl.transitions(),
                &state.level_window,
                config.frame_budget(),
            ),
        });
    }

    // Fleet SLO: merge the per-session sketches (same α, so the merge is
    // exact) and pool the error budget over every session-frame.
    let mut fleet_sketch = holoar_telemetry::QuantileSketch::new(slo::SKETCH_ALPHA);
    let mut slo_frames = 0u64;
    let mut slo_misses = 0u64;
    let mut fast_burn_events = 0u64;
    let mut slow_burn_events = 0u64;
    for state in &states {
        fleet_sketch.merge(state.slo.latency_sketch());
        slo_frames += state.slo.frames();
        slo_misses += state.slo.misses();
        fast_burn_events +=
            state.slo.burn_events().iter().filter(|e| e.window == "fast").count() as u64;
        slow_burn_events +=
            state.slo.burn_events().iter().filter(|e| e.window == "slow").count() as u64;
    }
    let error_budget_remaining = if slo_frames == 0 {
        1.0
    } else {
        1.0 - slo_misses as f64 / ((1.0 - slo::TARGET) * slo_frames as f64)
    };
    let fleet_slo = FleetSlo {
        target: slo::TARGET,
        sketch_alpha: slo::SKETCH_ALPHA,
        latency_p50: fleet_sketch.p50().unwrap_or(0.0),
        latency_p90: fleet_sketch.p90().unwrap_or(0.0),
        latency_p99: fleet_sketch.p99().unwrap_or(0.0),
        latency_p999: fleet_sketch.p999().unwrap_or(0.0),
        error_budget_remaining,
        fast_burn_events,
        slow_burn_events,
        recent_hit_rate: hit_window.mean().unwrap_or(1.0),
        recent_queue_depth: queue_window.mean().unwrap_or(0.0),
        recent_occupancy: occupancy_window.mean().unwrap_or(0.0),
    };
    holoar_telemetry::gauge_set("slo.error_budget.remaining", error_budget_remaining);
    holoar_telemetry::gauge_set("slo.window.hit_rate", fleet_slo.recent_hit_rate);
    holoar_telemetry::gauge_set("slo.window.queue_depth", fleet_slo.recent_queue_depth);
    holoar_telemetry::gauge_set("slo.window.occupancy", fleet_slo.recent_occupancy);

    let report = ServeReport {
        requested,
        admitted,
        frames: config.frames,
        sessions,
        aggregate_fps,
        sequential_fps,
        speedup_vs_sequential: aggregate_fps / sequential_fps.max(f64::MIN_POSITIVE),
        deadline_hit_rate: hits_total as f64 / (total_frames as f64).max(1.0),
        latency_p50: percentile(&all_latencies, 0.50),
        latency_p99: percentile(&all_latencies, 0.99),
        mean_occupancy: if occupancy_ticks == 0 {
            0.0
        } else {
            occupancy_sum / occupancy_ticks as f64
        },
        merged_launches,
        launches_saved,
        slo: fleet_slo,
    };
    report.check()?;
    Ok(report)
}
