//! The staged producer–consumer pipeline executor: sensor ingest ∥
//! hologram compute ∥ present, connected by bounded drop-oldest queues.
//!
//! [`crate::schedule::run_loop`] charges a frame the *sum* of its stage
//! latencies — lockstep execution, where a slow hologram stalls ingest and
//! present even though they run on different resources. This module
//! executes the same per-frame stage latencies as an overlapped pipeline:
//!
//! ```text
//!            ┌────────┐  compute   ┌─────────┐  present   ┌─────────┐
//!  sensors ─▶│ INGEST │──queue────▶│ COMPUTE │──queue────▶│ PRESENT │─▶ display
//!            └────────┘ (bounded,  └─────────┘ (bounded,  └─────────┘
//!                        drop-oldest)           drop-oldest)
//! ```
//!
//! Each stage is one virtual worker processing frames in order; stages
//! overlap freely. The queues are [`BoundedQueue`]s: when compute falls
//! behind, the oldest waiting frame is displaced and **surfaces as a stale
//! reprojection at present** (the `core::degrade` last-good path) — never a
//! silent gap, and never the newest frame.
//!
//! # Deterministic virtual time
//!
//! Scheduling runs in *virtual time*: stage hand-offs are ordered by
//! `(virtual timestamp, stage rank, frame index)` in a serial discrete-
//! event loop, never by wall clock or thread arrival. The only parallel
//! section is the per-frame latency evaluation (`frame_fn` fan-out over the
//! `ExecutionContext` pool), which is an order-preserving map. Worker count
//! therefore cannot reorder a single hand-off, and replay is bit-identical
//! across `HOLOAR_THREADS` — the same property-test discipline every other
//! parallel entry point in the workspace holds. Presentation additionally
//! stays in frame-index order: a stale frame's reprojection waits its turn,
//! so the display sequence is gap-free and monotone.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::queue::BoundedQueue;
use crate::schedule::{apply_scene_cadence, FrameLatencies, StageWorst};
use holoar_fft::ExecutionContext;

/// The three overlapped stages of the staged executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Sensor ingest + perception (pose, eye, scene reconstruction).
    Ingest,
    /// Hologram computation (GSW).
    Compute,
    /// Display composition / stale reprojection.
    Present,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::Ingest, Stage::Compute, Stage::Present];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Compute => "compute",
            Stage::Present => "present",
        }
    }

    /// Stage position: 0 (ingest) … 2 (present).
    pub fn index(self) -> usize {
        match self {
            Stage::Ingest => 0,
            Stage::Compute => 1,
            Stage::Present => 2,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the staged executor: queue bounds and present-stage
/// costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagedConfig {
    /// Bound of the ingest → compute queue (frames waiting for a hologram).
    pub compute_queue: usize,
    /// Bound of the compute → present queue (holograms awaiting display).
    pub present_queue: usize,
    /// Display-composition cost of a fresh frame, seconds.
    pub present_latency: f64,
    /// Cost of re-presenting the last good hologram for a dropped frame,
    /// seconds (mirrors `DegradationLadder::reproject_latency`).
    pub reproject_latency: f64,
}

impl Default for StagedConfig {
    /// Two-deep queues, 4 ms display composition, the degradation ladder's
    /// 1.5 ms reprojection.
    fn default() -> Self {
        StagedConfig {
            compute_queue: 2,
            present_queue: 2,
            present_latency: 0.004,
            reproject_latency: 0.0015,
        }
    }
}

impl StagedConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.compute_queue == 0 || self.present_queue == 0 {
            return Err("queue bounds must be at least 1".into());
        }
        if !(self.present_latency >= 0.0 && self.present_latency.is_finite()) {
            return Err("present latency must be finite and non-negative".into());
        }
        if !(self.reproject_latency >= 0.0 && self.reproject_latency.is_finite()) {
            return Err("reproject latency must be finite and non-negative".into());
        }
        Ok(())
    }
}

/// One frame as it left the present stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PresentedFrame {
    /// Frame index.
    pub frame: u64,
    /// `true` when the frame's own hologram was displayed; `false` when the
    /// frame surfaced as a stale reprojection (dropped from a queue).
    pub fresh: bool,
    /// Virtual time the frame's content became available to present.
    pub ready: f64,
    /// Virtual time presentation finished.
    pub presented: f64,
    /// End-to-end latency: presentation end minus ingest start.
    pub latency: f64,
}

/// Steady-state behaviour of a staged execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagedReport {
    /// Frames simulated.
    pub frames: u64,
    /// Virtual time from the first ingest start to the last present end.
    pub makespan: f64,
    /// Achieved throughput, frames per second (`frames / makespan`).
    pub throughput_fps: f64,
    /// Mean end-to-end (ingest-start → present-end) latency, seconds.
    pub mean_latency: f64,
    /// Median end-to-end latency, seconds (quantile-sketch estimate, 1%
    /// relative-error bound).
    pub latency_p50: f64,
    /// 99th-percentile end-to-end latency, seconds (sketch estimate).
    pub latency_p99: f64,
    /// Frames that presented their own hologram.
    pub fresh_frames: u64,
    /// Frames that surfaced as stale reprojections (queue drops).
    pub stale_frames: u64,
    /// Frames displaced from the ingest → compute queue.
    pub compute_drops: u64,
    /// Holograms displaced from the compute → present queue.
    pub present_drops: u64,
    /// High-water occupancy of the ingest → compute queue.
    pub max_compute_depth: usize,
    /// High-water occupancy of the compute → present queue.
    pub max_present_depth: usize,
    /// The stage with the highest total busy time (bounds throughput).
    pub bottleneck: Stage,
    /// Per-stage worst-case raw latencies over the run (cadence-applied,
    /// identical to the lockstep loop's accounting on the same frames).
    pub worst: StageWorst,
}

/// A staged run plus its full per-frame evidence, for property tests and
/// callers that feed queue depth into a degradation controller.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedTrace {
    /// The aggregate report.
    pub report: StagedReport,
    /// Every frame in presentation (= frame-index) order.
    pub presented: Vec<PresentedFrame>,
    /// The evaluated, cadence-applied per-frame stage latencies — exactly
    /// the stream the lockstep loop would consume.
    pub latencies: Vec<FrameLatencies>,
}

/// A discrete event of the virtual-time loop. Ordering is the determinism
/// contract: `(time, stage rank, frame)`, with downstream stages ranked
/// first so a worker frees its slot before an upstream hand-off lands at
/// the same instant.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    rank: u8,
    frame: u64,
}

impl Event {
    const RANK_PRESENT_DONE: u8 = 0;
    const RANK_COMPUTE_DONE: u8 = 1;
    const RANK_INGEST_DONE: u8 = 2;
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we pop earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.frame.cmp(&self.frame))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs the staged executor over per-frame latencies from `frame_fn`,
/// fanning the per-frame evaluations out over `ctx`'s worker pool, and
/// returns the aggregate report. See [`run_staged_trace`] for the
/// per-frame evidence.
///
/// Scene reconstruction runs at its 1-in-3 cadence (zeroed on off-frames),
/// exactly as in [`crate::schedule::run_loop`], so staged and lockstep
/// reports describe the same workload.
///
/// # Panics
///
/// Panics if `frames == 0` or `config` fails [`StagedConfig::validate`].
pub fn run_staged<F: Fn(u64) -> FrameLatencies + Sync>(
    frames: u64,
    config: &StagedConfig,
    frame_fn: F,
    ctx: &ExecutionContext,
) -> StagedReport {
    run_staged_trace(frames, config, frame_fn, ctx).report
}

/// [`run_staged`] returning the full [`StagedTrace`].
///
/// # Panics
///
/// Panics if `frames == 0` or `config` fails [`StagedConfig::validate`].
pub fn run_staged_trace<F: Fn(u64) -> FrameLatencies + Sync>(
    frames: u64,
    config: &StagedConfig,
    frame_fn: F,
    ctx: &ExecutionContext,
) -> StagedTrace {
    assert!(frames > 0, "need at least one frame");
    assert!(config.validate().is_ok(), "invalid staged config");
    let _span = holoar_telemetry::span_cat("pipeline.staged.run", "pipeline");

    // Parallel phase: evaluate every frame's stage latencies on the pool
    // (order-preserving map — bit-identical to a serial loop), then apply
    // the scene-reconstruction cadence the lockstep loop applies.
    let latencies: Vec<FrameLatencies> = evaluate_frames(frames, &frame_fn, ctx)
        .into_iter()
        .enumerate()
        .map(|(i, lat)| apply_scene_cadence(i as u64, lat))
        .collect();

    let trace = simulate_staged(config, &latencies);
    holoar_telemetry::gauge_set("pipeline.staged.throughput_fps", trace.report.throughput_fps);
    holoar_telemetry::gauge_set("pipeline.queue.high_water", trace.report.max_compute_depth as f64);
    holoar_telemetry::counter_add("pipeline.staged.stale_frames", trace.report.stale_frames);
    trace
}

/// Evaluates `frame_fn` for every frame index, fanning out over `ctx`'s
/// worker pool. The map is order-preserving — results land in frame-index
/// order regardless of worker count — which is the parallel half of the
/// staged executor's bit-identity contract.
fn evaluate_frames<F: Fn(u64) -> FrameLatencies + Sync>(
    frames: u64,
    frame_fn: &F,
    ctx: &ExecutionContext,
) -> Vec<FrameLatencies> {
    let indices: Vec<u64> = (0..frames).collect();
    ctx.parallelism().map(&indices, |&i| {
        let _frame_span = holoar_telemetry::span_cat("pipeline.frame_eval", "pipeline");
        frame_fn(i)
    })
}

/// Serial virtual-time discrete-event loop behind [`run_staged_trace`].
fn simulate_staged(config: &StagedConfig, latencies: &[FrameLatencies]) -> StagedTrace {
    let n = latencies.len();

    // Ingest is a free-running serial stage: frame i starts the instant
    // frame i-1 finished ingesting.
    let mut ingest_start = vec![0.0f64; n];
    let mut ingest_done = vec![0.0f64; n];
    {
        let _span = holoar_telemetry::span_cat("pipeline.stage.ingest", "pipeline");
        let mut t = 0.0;
        for (i, lat) in latencies.iter().enumerate() {
            ingest_start[i] = t;
            t += lat.ingest();
            ingest_done[i] = t;
        }
    }

    // Per-frame presentation content: (ready time, fresh?).
    let mut ready: Vec<Option<(f64, bool)>> = vec![None; n];
    let mut compute_q: BoundedQueue<u64> = BoundedQueue::new(config.compute_queue);
    let mut present_q: BoundedQueue<u64> = BoundedQueue::new(config.present_queue);
    let mut computing: Option<u64> = None;
    let mut presenting: Option<u64> = None;
    let mut next_present: u64 = 0;
    let mut present_end = vec![0.0f64; n];
    let mut present_ready = vec![0.0f64; n];
    let mut present_fresh = vec![false; n];
    let mut busy = [0.0f64; 3];
    busy[Stage::Ingest.index()] = ingest_done.last().copied().unwrap_or(0.0);

    // At most one pending event per stage: ingest chains frame by frame, and
    // compute and present each run one frame at a time.
    let mut events: BinaryHeap<Event> = BinaryHeap::with_capacity(Stage::ALL.len());
    events.push(Event {
        time: ingest_done.first().copied().unwrap_or(0.0),
        rank: Event::RANK_INGEST_DONE,
        frame: 0,
    });

    while let Some(ev) = events.pop() {
        let t = ev.time;
        match ev.rank {
            Event::RANK_INGEST_DONE => {
                let i = ev.frame;
                // Hand the ingested frame to compute: straight onto the idle
                // worker, else into the bounded queue — where the displaced
                // oldest frame (if any) surfaces as a stale present.
                if computing.is_none() && compute_q.is_empty() {
                    computing = Some(i);
                    events.push(Event {
                        time: t + latencies[i as usize].hologram,
                        rank: Event::RANK_COMPUTE_DONE,
                        frame: i,
                    });
                // holoar-lint: allow(hot-loop-alloc, reason = "BoundedQueue::new pre-sizes its VecDeque to the bound and a full push pops first, so it never grows")
                } else if let Some(dropped) = compute_q.push(i) {
                    ready[dropped as usize] = Some((t, false));
                }
                if i + 1 < n as u64 {
                    events.push(Event {
                        time: ingest_done[i as usize + 1],
                        rank: Event::RANK_INGEST_DONE,
                        frame: i + 1,
                    });
                }
            }
            Event::RANK_COMPUTE_DONE => {
                let _span = holoar_telemetry::span_cat("pipeline.stage.compute", "pipeline");
                let i = ev.frame;
                busy[Stage::Compute.index()] += latencies[i as usize].hologram;
                // Hand the hologram to present through its bounded queue; a
                // displaced hologram expires — its frame presents stale.
                ready[i as usize] = Some((t, true));
                // holoar-lint: allow(hot-loop-alloc, reason = "BoundedQueue::new pre-sizes its VecDeque to the bound and a full push pops first, so it never grows")
                if let Some(expired) = present_q.push(i) {
                    if let Some(entry) = ready.get_mut(expired as usize) {
                        if let Some((ready_at, fresh)) = entry.as_mut() {
                            *fresh = false;
                            *ready_at = t;
                        }
                    }
                }
                computing = compute_q.pop().inspect(|&next| {
                    events.push(Event {
                        time: t + latencies[next as usize].hologram,
                        rank: Event::RANK_COMPUTE_DONE,
                        frame: next,
                    });
                });
            }
            _ => {
                let _span = holoar_telemetry::span_cat("pipeline.stage.present", "pipeline");
                let i = ev.frame;
                let cost = if present_fresh[i as usize] {
                    config.present_latency
                } else {
                    config.reproject_latency
                };
                busy[Stage::Present.index()] += cost;
                present_end[i as usize] = t;
                presenting = None;
            }
        }
        // Present runs in strict frame-index order: start the next frame the
        // moment its content is ready and the present worker is free.
        if presenting.is_none() && (next_present as usize) < n {
            if let Some((ready_at, fresh)) = ready[next_present as usize] {
                if ready_at <= t {
                    let i = next_present;
                    if fresh {
                        // Its hologram is the present queue's front (compute
                        // completes in frame order; stale frames never enter).
                        let popped = present_q.pop();
                        debug_assert_eq!(popped, Some(i));
                    }
                    present_ready[i as usize] = ready_at;
                    present_fresh[i as usize] = fresh;
                    let cost =
                        if fresh { config.present_latency } else { config.reproject_latency };
                    presenting = Some(i);
                    next_present += 1;
                    events.push(Event {
                        time: t + cost,
                        rank: Event::RANK_PRESENT_DONE,
                        frame: i,
                    });
                }
            }
        }
    }

    // Aggregate in frame order (serial reduction: bit-identical always).
    let mut worst = StageWorst::default();
    let mut sketch = holoar_telemetry::QuantileSketch::default();
    let mut latency_sum = 0.0;
    let mut fresh_frames = 0u64;
    let mut presented = Vec::with_capacity(n);
    for i in 0..n {
        worst.absorb(&latencies[i]);
        let latency = present_end[i] - ingest_start[i];
        sketch.record(latency);
        latency_sum += latency;
        fresh_frames += u64::from(present_fresh[i]);
        presented.push(PresentedFrame {
            frame: i as u64,
            fresh: present_fresh[i],
            ready: present_ready[i],
            presented: present_end[i],
            latency,
        });
    }
    let makespan = present_end.last().copied().unwrap_or(0.0);
    let bottleneck = Stage::ALL
        .iter()
        .copied()
        .fold((Stage::Ingest, f64::NEG_INFINITY), |(bs, bb), s| {
            if busy[s.index()].total_cmp(&bb).is_ge() { (s, busy[s.index()]) } else { (bs, bb) }
        })
        .0;
    let report = StagedReport {
        frames: n as u64,
        makespan,
        throughput_fps: n as f64 / makespan.max(f64::MIN_POSITIVE),
        mean_latency: latency_sum / n as f64,
        latency_p50: sketch.p50().unwrap_or(0.0),
        latency_p99: sketch.p99().unwrap_or(0.0),
        fresh_frames,
        stale_frames: n as u64 - fresh_frames,
        compute_drops: compute_q.dropped(),
        present_drops: present_q.dropped(),
        max_compute_depth: compute_q.high_water(),
        max_present_depth: present_q.high_water(),
        bottleneck,
        worst,
    };
    StagedTrace { report, presented, latencies: latencies.to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(hologram: f64) -> FrameLatencies {
        FrameLatencies { pose: 0.0138, eye: 0.0044, scene: 0.120, hologram }
    }

    fn ctx() -> ExecutionContext {
        ExecutionContext::serial()
    }

    #[test]
    fn fast_compute_presents_every_frame_fresh_in_order() {
        let trace = run_staged_trace(30, &StagedConfig::default(), |_| lat(0.010), &ctx());
        assert_eq!(trace.report.stale_frames, 0);
        assert_eq!(trace.report.fresh_frames, 30);
        assert_eq!(trace.report.compute_drops, 0);
        for (i, p) in trace.presented.iter().enumerate() {
            assert_eq!(p.frame, i as u64);
            assert!(p.fresh);
        }
        // Presentation times strictly increase (gap-free, in order).
        for w in trace.presented.windows(2) {
            assert!(w[1].presented > w[0].presented);
        }
    }

    #[test]
    fn staged_beats_lockstep_throughput() {
        let staged = run_staged(60, &StagedConfig::default(), |_| lat(0.030), &ctx());
        let lockstep = crate::schedule::run_loop(60, |_| lat(0.030));
        assert!(
            staged.throughput_fps > 1.15 * lockstep.fps,
            "staged {} vs lockstep {}",
            staged.throughput_fps,
            lockstep.fps
        );
    }

    #[test]
    fn worst_case_matches_lockstep_accounting() {
        let f = |i: u64| lat(if i == 7 { 0.2 } else { 0.03 });
        let staged = run_staged(20, &StagedConfig::default(), f, &ctx());
        let lockstep = crate::schedule::run_loop(20, f);
        assert_eq!(staged.worst, lockstep.worst);
    }

    #[test]
    fn slow_compute_drops_oldest_frames_as_stale_reprojections() {
        // Hologram 10× slower than ingest: the compute queue saturates and
        // sheds, but every frame still presents.
        let trace = run_staged_trace(
            40,
            &StagedConfig::default(),
            |_| FrameLatencies { pose: 0.005, eye: 0.0, scene: 0.0, hologram: 0.050 },
            &ctx(),
        );
        assert!(trace.report.compute_drops > 0);
        assert_eq!(trace.report.stale_frames, trace.report.compute_drops);
        assert_eq!(trace.presented.len(), 40);
        assert_eq!(trace.report.max_compute_depth, 2);
        // Stale frames carry the reprojection cost, not a hologram.
        assert!(trace.presented.iter().any(|p| !p.fresh));
        // The newest frame always survives to compute fresh… eventually the
        // last frame must be fresh (nothing newer can displace it).
        assert!(trace.presented.last().unwrap().fresh);
    }

    #[test]
    fn bottleneck_follows_the_slowest_stage() {
        // (frame latencies, expected bottleneck, its per-frame cost).
        let cases = [
            // Compute-bound: throughput approaches 1 / hologram once the
            // pipeline fills.
            (
                FrameLatencies { pose: 0.001, eye: 0.0, scene: 0.0, hologram: 0.030 },
                Stage::Compute,
                0.030,
            ),
            // An aggressively approximated hologram moves the bottleneck
            // upstream: ingest (pose + eye + scene at its 1-in-3 cadence)
            // now bounds throughput.
            (lat(0.010), Stage::Ingest, 0.0138 + 0.0044 + 0.120 / 3.0),
        ];
        for (frame, bottleneck, cost) in cases {
            let report = run_staged(30, &StagedConfig::default(), |_| frame, &ctx());
            assert_eq!(report.bottleneck, bottleneck, "{frame:?}");
            assert!(report.throughput_fps > 0.8 / cost, "{frame:?}: {}", report.throughput_fps);
        }
    }

    #[test]
    fn report_is_bit_identical_across_worker_counts() {
        let f = |i: u64| lat(0.02 + 0.015 * (i as f64 * 0.37).sin().abs());
        let serial = run_staged_trace(25, &StagedConfig::default(), f, &ctx());
        for workers in [1usize, 2, 7] {
            let par = run_staged_trace(
                25,
                &StagedConfig::default(),
                f,
                &ExecutionContext::with_workers(workers),
            );
            assert_eq!(par, serial, "workers {workers}");
        }
    }

    #[test]
    fn stage_names_and_order() {
        assert_eq!(Stage::ALL.len(), 3);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(!s.name().is_empty());
        }
        assert!(Stage::Ingest < Stage::Present);
        assert_eq!(Stage::Compute.to_string(), "compute");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(StagedConfig { compute_queue: 0, ..StagedConfig::default() }.validate().is_err());
        assert!(
            StagedConfig { present_latency: f64::NAN, ..StagedConfig::default() }
                .validate()
                .is_err()
        );
        assert!(
            StagedConfig { reproject_latency: -1.0, ..StagedConfig::default() }
                .validate()
                .is_err()
        );
        assert!(StagedConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        run_staged(0, &StagedConfig::default(), |_| lat(0.1), &ctx());
    }
}
