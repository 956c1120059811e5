//! Per-session identity and state for the serving layer.
//!
//! A *session* is one AR headset's hologram stream: its own Objectron video,
//! its own fault stream (salted from the master seed, so co-tenants fault
//! independently), and its own [`DegradationController`] — the serving layer
//! multiplexes many of these onto one simulated edge device.

use holoar_core::degrade::{DegradationController, DegradationLadder};
use holoar_faults::{scenario, FaultInjector};
use holoar_pipeline::queue::BoundedQueue;
use holoar_sensors::objectron::{FrameGenerator, VideoCategory};
use holoar_telemetry::{SlidingWindow, SpanRecord};

use crate::engine::SESSION_QUEUE;
use crate::slo::{self, SloTracker};

/// Identity of one client session: which video it streams and the seed its
/// sensor/fault randomness derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// Stable session id (also the fault-salt input).
    pub id: u32,
    /// Objectron category the session streams.
    pub video: VideoCategory,
    /// Seed for the session's frame generator.
    pub seed: u64,
}

impl SessionSpec {
    /// A deterministic fleet of `n` sessions: videos round-robin over
    /// [`VideoCategory::ALL`], per-session seeds are SplitMix64-salted from
    /// the master seed so sessions with the same category still see
    /// different object motion.
    pub fn fleet(n: u32, seed: u64) -> Vec<SessionSpec> {
        (0..n)
            .map(|id| SessionSpec {
                id,
                video: VideoCategory::ALL[id as usize % VideoCategory::ALL.len()],
                seed: seed.wrapping_add(u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            })
            .collect()
    }
}

/// Mutable per-session serving state, advanced once per scheduler tick.
pub(crate) struct SessionState {
    pub spec: SessionSpec,
    pub ctl: DegradationController,
    pub injector: FaultInjector,
    pub generator: FrameGenerator,
    /// EWMA of the fraction of planned objects inside the region of focus —
    /// the QoS victim-selection signal (least-focused degrades first).
    pub focus: f64,
    pub frames_at_level: [u64; 4],
    pub served: u64,
    pub deferred: u64,
    pub deadline_hits: u64,
    pub qos_step_downs: u64,
    /// Per-frame hologram-stage completion latency, seconds.
    pub latencies: Vec<f64>,
    /// Ticks whose fresh content is still owed: every deferred or
    /// reprojected tick joins this bounded drop-oldest queue, and a fresh
    /// serve drains it. Saturation is the starvation signal the session's
    /// controller observes (`DegradationController::observe_queue_depth`) —
    /// without it, a starved session's own frame accounting looks clean
    /// (reprojection is cheap) while its content ages.
    pub backlog: BoundedQueue<u64>,
    /// Backlog entries displaced by drop-oldest overflow — stale ticks the
    /// session will never catch up on.
    pub queue_drops: u64,
    /// SLO bookkeeping: latency sketch, error budget, burn alerts.
    pub slo: SloTracker,
    /// Synthesized per-frame span trees for critical-path attribution.
    pub profile: Vec<SpanRecord>,
    /// Degradation-level index over the most recent window of ticks (the
    /// per-session quality time-series).
    pub level_window: SlidingWindow,
}

impl SessionState {
    pub fn new(spec: SessionSpec, ladder: DegradationLadder, frames: u64) -> Result<Self, String> {
        Ok(SessionState {
            spec,
            ctl: DegradationController::new(ladder)?,
            injector: scenario::serve_session(spec.seed, spec.id)?,
            generator: FrameGenerator::new(spec.video, spec.seed),
            focus: 1.0,
            frames_at_level: [0; 4],
            served: 0,
            deferred: 0,
            deadline_hits: 0,
            qos_step_downs: 0,
            latencies: Vec::with_capacity(frames as usize),
            backlog: BoundedQueue::new(SESSION_QUEUE),
            queue_drops: 0,
            slo: SloTracker::new(),
            profile: Vec::with_capacity(frames as usize * 3),
            level_window: SlidingWindow::new(slo::FAST_WINDOW),
        })
    }

    /// Folds a fresh focus observation into the EWMA (weight ½, matching the
    /// degradation ladder's demand filter).
    pub fn observe_focus(&mut self, focus: f64) {
        self.focus = 0.5 * self.focus + 0.5 * focus;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic_and_decorrelated() {
        let a = SessionSpec::fleet(8, 42);
        let b = SessionSpec::fleet(8, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        // Videos round-robin; seeds all distinct.
        assert_eq!(a[0].video, a[6].video);
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "per-session seeds must be distinct");
    }

    #[test]
    fn fleet_changes_with_the_master_seed() {
        assert_ne!(SessionSpec::fleet(4, 1)[1].seed, SessionSpec::fleet(4, 2)[1].seed);
    }
}
