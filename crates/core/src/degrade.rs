//! Deadline-aware graceful degradation: the ladder the planner walks when
//! the frame budget tightens.
//!
//! HoloAR's premise is *on-the-fly* adaptation, and the pipeline already
//! measures `deadline_hit_rate` — this module is the part that reacts to
//! it. A [`DegradationController`] watches observed hologram-stage
//! latencies, maintains an EWMA estimate of what a *full-quality* frame
//! would currently cost (the "demand"), and before each frame picks the
//! shallowest [`DegradationLevel`] predicted to fit the budget:
//!
//! 1. [`Full`](DegradationLevel::Full) — the configured scheme, untouched.
//! 2. [`TrimPeriphery`](DegradationLevel::TrimPeriphery) — halve the
//!    Inter-Holo α, shedding out-of-focus depth planes first (peripheral
//!    quality is the cheapest thing to give up, per the gaze-contingent
//!    rendering literature).
//! 3. [`FloorBeta`](DegradationLevel::FloorBeta) — additionally relax the
//!    Intra-Holo β model (double `theta_ref`, drop the plane floor to 1),
//!    shedding depth structure on distant/small objects.
//! 4. [`LastGood`](DegradationLevel::LastGood) — stop computing entirely
//!    and re-present the last good hologram with a cheap reprojection.
//!
//! Step-downs are immediate (predicted or actual overrun); step-ups are
//! hysteretic — one level at a time, only after
//! [`recover_frames`](DegradationLadder::recover_frames) consecutive frames
//! whose latency predicts the shallower level would still fit inside
//! [`recover_margin`](DegradationLadder::recover_margin) of the budget.
//! The controller enforces the contract documented in `DESIGN.md`: **the
//! budget is never exceeded on two consecutive frames without a step-down
//! in between** (checkable via
//! [`max_overruns_without_stepdown`](DegradationController::max_overruns_without_stepdown)).
//!
//! The controller is pure state-machine logic — no clocks, no RNG — so
//! runs replay bit-identically; all inputs are simulated latencies.
//!
//! # Examples
//!
//! ```
//! use holoar_core::degrade::{DegradationController, DegradationLadder, DegradationLevel};
//! use holoar_core::HoloArConfig;
//!
//! let mut ctl = DegradationController::new(DegradationLadder::default()).unwrap();
//! // Nominal frames stay at full quality.
//! assert_eq!(ctl.decide(0), DegradationLevel::Full);
//! ctl.observe(0, 0.050); // 50 ms on a 33 ms budget: overrun
//! let degraded = ctl.decide(1);
//! assert!(degraded > DegradationLevel::Full, "controller must step down");
//! // The degraded level plans with a smaller α (fewer out-of-focus planes).
//! let base = HoloArConfig::default();
//! let cfg = ctl.config_for(&base).unwrap();
//! assert!(cfg.alpha < base.alpha);
//! ```

use crate::config::HoloArConfig;

/// A rung of the degradation ladder, ordered from full quality (shallow) to
/// maximum shedding (deep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradationLevel {
    /// The configured scheme, untouched.
    Full,
    /// Reduced out-of-focus plane budget (Inter-Holo α scaled down).
    TrimPeriphery,
    /// Additionally relaxed Intra-Holo β floors (larger `theta_ref`,
    /// plane floor of 1).
    FloorBeta,
    /// No hologram computation: re-present the last good hologram with a
    /// cheap reprojection.
    LastGood,
}

impl DegradationLevel {
    /// All levels, shallow to deep.
    pub const ALL: [DegradationLevel; 4] = [
        DegradationLevel::Full,
        DegradationLevel::TrimPeriphery,
        DegradationLevel::FloorBeta,
        DegradationLevel::LastGood,
    ];

    /// Ladder depth: 0 (full quality) … 3 (last-good).
    pub fn index(self) -> usize {
        match self {
            DegradationLevel::Full => 0,
            DegradationLevel::TrimPeriphery => 1,
            DegradationLevel::FloorBeta => 2,
            DegradationLevel::LastGood => 3,
        }
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::TrimPeriphery => "trim-periphery",
            DegradationLevel::FloorBeta => "floor-beta",
            DegradationLevel::LastGood => "last-good",
        }
    }
}

impl std::fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a level transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionReason {
    /// The demand estimate predicted the current level would overrun.
    PredictedOverrun,
    /// The previous frame actually exceeded the budget.
    Overrun,
    /// An external QoS authority (the multi-session scheduler) requested
    /// the step-down via [`DegradationController::request_step_down_with`].
    Qos,
    /// Hysteretic recovery after a streak of comfortably-fast frames.
    Recovered,
    /// The session was live-migrated to another device (fleet placement):
    /// the state-transfer blackout is paid as a one-level step down,
    /// recovered through the normal hysteresis. Recorded via
    /// [`DegradationController::record_migration`].
    Migration,
}

impl TransitionReason {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            TransitionReason::PredictedOverrun => "predicted-overrun",
            TransitionReason::Overrun => "overrun",
            TransitionReason::Qos => "qos",
            TransitionReason::Recovered => "recovered",
            TransitionReason::Migration => "migration",
        }
    }
}

/// One recorded level transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Frame index at which the new level took effect.
    pub frame: u64,
    /// Level before.
    pub from: DegradationLevel,
    /// Level after.
    pub to: DegradationLevel,
    /// Trigger.
    pub reason: TransitionReason,
    /// The concrete signal behind the trigger (e.g. `"observed-overrun"`,
    /// `"qos-batch-overrun"`, `"clean-streak"`), so every step-down in a
    /// report is attributable to a recorded SLO signal.
    pub signal: &'static str,
}

/// Configuration of the degradation ladder and its hysteresis (the
/// "degradation contract" of `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationLadder {
    /// Hologram-stage frame budget, seconds (the paper's 33 ms deadline).
    pub frame_budget: f64,
    /// Recovery headroom in `(0, 1)`: a step up requires the predicted
    /// latency at the shallower level to fit inside
    /// `recover_margin × frame_budget`.
    pub recover_margin: f64,
    /// Consecutive qualifying frames required before one step up.
    pub recover_frames: u32,
    /// Weight of the newest observation in the demand EWMA, in `(0, 1]`.
    pub ewma_weight: f64,
    /// Multiplier applied to Inter-Holo α at `TrimPeriphery` and deeper.
    pub trim_alpha_scale: f64,
    /// Multiplier applied to Intra-Holo `theta_ref` at `FloorBeta` (larger
    /// reference angle ⇒ smaller β ⇒ fewer planes).
    pub floor_theta_scale: f64,
    /// Expected hologram cost at each level as a fraction of the
    /// full-quality cost, shallow to deep; strictly decreasing, in `(0, 1]`.
    /// Used both to normalize observations into demand and to predict what
    /// a candidate level would cost.
    pub shed: [f64; 4],
    /// Cost of re-presenting the last good hologram (reprojection),
    /// seconds.
    pub reproject_latency: f64,
}

impl Default for DegradationLadder {
    /// Defaults documented in `DESIGN.md`: 33 ms budget, step up after 6
    /// clean frames into 70% headroom, α halved at `TrimPeriphery`,
    /// `theta_ref` doubled at `FloorBeta`.
    fn default() -> Self {
        DegradationLadder {
            frame_budget: 0.033,
            recover_margin: 0.7,
            recover_frames: 6,
            ewma_weight: 0.5,
            trim_alpha_scale: 0.5,
            floor_theta_scale: 2.0,
            shed: [1.0, 0.72, 0.45, 0.05],
            reproject_latency: 0.0015,
        }
    }
}

impl DegradationLadder {
    /// Validates the ladder parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.frame_budget > 0.0 && self.frame_budget.is_finite()) {
            return Err("frame budget must be positive".into());
        }
        if !(self.recover_margin > 0.0 && self.recover_margin < 1.0) {
            return Err("recover margin must be in (0, 1)".into());
        }
        if self.recover_frames == 0 {
            return Err("recovery needs at least one clean frame".into());
        }
        if !(self.ewma_weight > 0.0 && self.ewma_weight <= 1.0) {
            return Err("EWMA weight must be in (0, 1]".into());
        }
        if !(self.trim_alpha_scale > 0.0 && self.trim_alpha_scale < 1.0) {
            return Err("trim alpha scale must be in (0, 1)".into());
        }
        if !(self.floor_theta_scale > 1.0 && self.floor_theta_scale.is_finite()) {
            return Err("floor theta scale must exceed 1".into());
        }
        let mut prev = f64::INFINITY;
        for (i, &s) in self.shed.iter().enumerate() {
            if !(s > 0.0 && s <= 1.0 && s < prev) {
                return Err(format!("shed fractions must be strictly decreasing in (0, 1] (index {i})"));
            }
            prev = s;
        }
        if !(self.reproject_latency >= 0.0 && self.reproject_latency < self.frame_budget) {
            return Err("reprojection must cost less than the budget".into());
        }
        Ok(())
    }

    /// The planner configuration a level plans with, derived from `base`.
    ///
    /// `LastGood` returns the `FloorBeta` configuration — callers that keep
    /// planning (e.g. for bookkeeping) get the deepest computing level, but
    /// should normally skip planning entirely (see
    /// [`DegradationController::config_for`]).
    pub fn apply(&self, level: DegradationLevel, base: &HoloArConfig) -> HoloArConfig {
        let mut cfg = *base;
        if level >= DegradationLevel::TrimPeriphery {
            // Keep α valid: at least one plane's worth outside the RoF.
            cfg.alpha = (cfg.alpha * self.trim_alpha_scale)
                .max(1.0 / f64::from(cfg.full_planes.max(1)));
        }
        if level >= DegradationLevel::FloorBeta {
            cfg.intra.theta_ref *= self.floor_theta_scale;
            cfg.min_planes = 1;
        }
        cfg
    }
}

/// The deadline-aware controller: call [`decide`](Self::decide) before
/// planning each frame and [`observe`](Self::observe) with the measured
/// hologram-stage latency afterwards. See the [module docs](self) for the
/// policy.
#[derive(Debug, Clone)]
pub struct DegradationController {
    ladder: DegradationLadder,
    level: DegradationLevel,
    /// EWMA estimate of the current *full-quality* hologram cost, seconds.
    /// `None` until the first computed frame and after each probe step-up.
    demand: Option<f64>,
    clean_streak: u32,
    must_step_down: bool,
    /// Signal attached to a pending QoS-forced step-down (None when the
    /// pending step-down came from the controller's own overrun watch).
    qos_signal: Option<&'static str>,
    hold_recovery: bool,
    transitions: Vec<Transition>,
    frames: u64,
    overruns: u64,
    overrun_streak: u32,
    max_overrun_streak: u32,
}

impl DegradationController {
    /// Creates a controller at [`DegradationLevel::Full`].
    ///
    /// # Errors
    ///
    /// Returns the ladder's validation error message.
    pub fn new(ladder: DegradationLadder) -> Result<Self, String> {
        ladder.validate()?;
        Ok(DegradationController {
            ladder,
            level: DegradationLevel::Full,
            demand: None,
            clean_streak: 0,
            must_step_down: false,
            qos_signal: None,
            hold_recovery: false,
            transitions: Vec::new(),
            frames: 0,
            overruns: 0,
            overrun_streak: 0,
            max_overrun_streak: 0,
        })
    }

    /// The ladder configuration.
    pub fn ladder(&self) -> &DegradationLadder {
        &self.ladder
    }

    /// The current level.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Picks the level for frame `frame` from the demand estimate and any
    /// pending forced step-down, and records/emits the transition if the
    /// level changed. Call once per frame, before planning.
    pub fn decide(&mut self, frame: u64) -> DegradationLevel {
        let _span = holoar_telemetry::span_cat("core.degrade.decide", "core");
        let current = self.level.index();
        // Shallowest level the demand estimate predicts will fit.
        let predicted = match self.demand {
            Some(d) => DegradationLevel::ALL
                .iter()
                .position(|l| d * self.ladder.shed[l.index()] <= self.ladder.frame_budget)
                .unwrap_or(DegradationLevel::LastGood.index()),
            None => current,
        };
        if self.must_step_down || predicted > current {
            // Step down immediately — at least one level on an actual
            // overrun, straight to the predicted-feasible level otherwise.
            let target = if self.must_step_down {
                predicted.max(current + 1).min(DegradationLevel::LastGood.index())
            } else {
                predicted
            };
            let (reason, signal) = if self.must_step_down {
                match self.qos_signal {
                    Some(signal) => (TransitionReason::Qos, signal),
                    None => (TransitionReason::Overrun, "observed-overrun"),
                }
            } else {
                (TransitionReason::PredictedOverrun, "demand-prediction")
            };
            self.transition(frame, DegradationLevel::ALL[target], reason, signal);
        } else if current > 0
            && self.clean_streak >= self.ladder.recover_frames
            && !self.hold_recovery
        {
            // Hysteretic recovery: one level at a time, and forget the
            // (stale) demand so the shallower level is re-measured before
            // any prediction-driven move.
            self.transition(
                frame,
                DegradationLevel::ALL[current.saturating_sub(1)],
                TransitionReason::Recovered,
                "clean-streak",
            );
            self.demand = None;
        }
        self.must_step_down = false;
        self.qos_signal = None;
        self.hold_recovery = false;
        if self.level == DegradationLevel::LastGood {
            holoar_telemetry::counter_add("core.degrade.lastgood_frames", 1);
        }
        holoar_telemetry::gauge_set("core.degrade.level", self.level.index() as f64);
        self.level
    }

    /// The configuration to plan the current frame with, or `None` at
    /// [`DegradationLevel::LastGood`] (skip planning; re-present the cached
    /// hologram at [`reproject_latency`](DegradationLadder::reproject_latency)).
    pub fn config_for(&self, base: &HoloArConfig) -> Option<HoloArConfig> {
        match self.level {
            DegradationLevel::LastGood => None,
            level => Some(self.ladder.apply(level, base)),
        }
    }

    /// Feeds back the measured hologram-stage latency of frame `frame`
    /// (executed at the level [`decide`](Self::decide) returned). Updates
    /// the demand estimate, deadline accounting and recovery streak.
    pub fn observe(&mut self, frame: u64, hologram_latency: f64) {
        let _ = frame;
        self.frames += 1;
        let ladder = self.ladder;
        let cur = self.level.index();
        if self.level != DegradationLevel::LastGood {
            // Normalize the observation into an estimate of full-quality
            // cost; LastGood frames (pure reprojection) carry no signal.
            let estimate = hologram_latency / ladder.shed[cur];
            self.demand = Some(match self.demand {
                Some(d) => d + ladder.ewma_weight * (estimate - d),
                None => estimate,
            });
        }
        if hologram_latency > ladder.frame_budget {
            self.overruns += 1;
            self.overrun_streak += 1;
            self.max_overrun_streak = self.max_overrun_streak.max(self.overrun_streak);
            holoar_telemetry::counter_add("core.degrade.overruns", 1);
            self.clean_streak = 0;
            // Contract: the very next decide() must step down (if it can).
            if self.level != DegradationLevel::LastGood {
                self.must_step_down = true;
            }
            return;
        }
        self.overrun_streak = 0;
        // A frame counts toward recovery only if it predicts the next
        // shallower level would still fit comfortably. LastGood frames
        // carry no prediction, so recovery from it is a timed probe.
        let qualifies = match cur {
            0 => false,
            _ if self.level == DegradationLevel::LastGood => true,
            up => {
                let predicted_up = hologram_latency * ladder.shed[up - 1] / ladder.shed[up];
                predicted_up <= ladder.recover_margin * ladder.frame_budget
            }
        };
        if qualifies {
            self.clean_streak += 1;
        } else {
            self.clean_streak = 0;
        }
    }

    /// Requests a forced step-down on the next [`decide`](Self::decide),
    /// exactly as an observed overrun would, annotating the resulting
    /// transition with the SLO `signal` that triggered it (recorded in
    /// [`Transition::signal`] with reason [`TransitionReason::Qos`]).
    ///
    /// This is the QoS hook the serving layer uses: when the *shared* device
    /// is overloaded, the multi-session scheduler picks one victim session
    /// (the least-focused) and steps its controller down, rather than
    /// letting every session's own overrun accounting degrade the whole
    /// fleet at once. A no-op at [`DegradationLevel::LastGood`] — there is
    /// nothing left to shed.
    pub fn request_step_down_with(&mut self, signal: &'static str) {
        if self.level != DegradationLevel::LastGood {
            holoar_telemetry::counter_add("core.degrade.qos_step_down", 1);
            self.must_step_down = true;
            self.qos_signal = Some(signal);
        }
    }

    /// Observes the occupancy of the staged executor's inter-stage queue
    /// feeding this session's compute stage (see
    /// `holoar_pipeline::executor`), treating saturation as an SLO signal.
    ///
    /// A bounded drop-oldest queue converts compute overload into stale
    /// reprojections instead of stalls, which means a starved session's own
    /// frame accounting can look clean — reprojection is cheap — while its
    /// content ages. Queue depth is the honest signal: at `depth >= bound`
    /// the queue is shedding (or about to shed) frames, so the controller
    /// schedules a step-down annotated `"queue-saturated"` exactly as an
    /// external QoS authority would. Below saturation this only records the
    /// depth gauge. A no-op at [`DegradationLevel::LastGood`].
    pub fn observe_queue_depth(&mut self, depth: usize, bound: usize) {
        holoar_telemetry::gauge_set("core.degrade.queue_depth", depth as f64);
        if depth >= bound && self.level != DegradationLevel::LastGood {
            holoar_telemetry::counter_add("core.degrade.queue_saturated", 1);
            self.request_step_down_with("queue-saturated");
        }
    }

    /// Suppresses any recovery step-up at the next [`decide`](Self::decide)
    /// without forcing a step down.
    ///
    /// The serving layer's companion QoS hook to
    /// [`request_step_down_with`](Self::request_step_down_with): while the *shared*
    /// device is saturated, sessions whose own attributed cost looks clean
    /// must not step back up (their headroom is an artifact of the batch
    /// attribution), or fleet-wide recovery would outpace the one-victim-
    /// per-tick shedding and the overload would never drain.
    pub fn hold_level(&mut self) {
        holoar_telemetry::counter_add("core.degrade.qos_hold", 1);
        self.hold_recovery = true;
    }

    /// Records a live migration of this session to another device as a
    /// signal-attributed transition (reason
    /// [`TransitionReason::Migration`], `signal` naming the fleet trigger —
    /// `"device-kill"`, `"device-overload"`, …).
    ///
    /// The state-transfer blackout is charged as an immediate one-level
    /// step down — the first frames on the new host are served shallower
    /// while the hologram state re-uploads — and the session recovers
    /// through the normal hysteresis. The demand estimate is dropped
    /// because it was measured on the *old* host. Unlike the QoS hooks this
    /// always records the transition: at [`DegradationLevel::LastGood`] the
    /// level cannot deepen (`from == to`), but the migration stays
    /// attributable in [`transitions`](Self::transitions).
    pub fn record_migration(&mut self, frame: u64, signal: &'static str) {
        let to = DegradationLevel::ALL
            [(self.level.index() + 1).min(DegradationLevel::LastGood.index())];
        holoar_telemetry::counter_add("core.degrade.migrations", 1);
        if to > self.level {
            holoar_telemetry::counter_add("core.degrade.step_down", 1);
        }
        self.transitions.push(Transition {
            frame,
            from: self.level,
            to,
            reason: TransitionReason::Migration,
            signal,
        });
        self.level = to;
        self.clean_streak = 0;
        self.overrun_streak = 0;
        self.demand = None;
    }

    /// Every recorded level transition, in order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Frames observed.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Frames that exceeded the budget.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// The longest run of consecutive over-budget frames the controller
    /// allowed without stepping down in between. The documented contract
    /// requires this to stay ≤ 1 whenever the ladder has depth left.
    pub fn max_overruns_without_stepdown(&self) -> u32 {
        self.max_overrun_streak
    }

    fn transition(
        &mut self,
        frame: u64,
        to: DegradationLevel,
        reason: TransitionReason,
        signal: &'static str,
    ) {
        if to == self.level {
            return;
        }
        if to > self.level {
            holoar_telemetry::counter_add("core.degrade.step_down", 1);
        } else {
            holoar_telemetry::counter_add("core.degrade.step_up", 1);
        }
        self.transitions.push(Transition { frame, from: self.level, to, reason, signal });
        self.level = to;
        self.clean_streak = 0;
        // Any step down satisfies a pending forced one.
        self.overrun_streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> DegradationController {
        DegradationController::new(DegradationLadder::default()).unwrap()
    }

    /// Simulates `frames` frames where a full-quality hologram costs
    /// `full_cost` seconds and each level costs `full_cost × shed[level]`.
    fn run(ctl: &mut DegradationController, frames: u64, full_cost: impl Fn(u64) -> f64) {
        for i in 0..frames {
            let level = ctl.decide(i);
            let lat = if level == DegradationLevel::LastGood {
                ctl.ladder().reproject_latency
            } else {
                full_cost(i) * ctl.ladder().shed[level.index()]
            };
            ctl.observe(i, lat);
        }
    }

    #[test]
    fn migrations_are_signal_attributed_and_charge_one_level() {
        let mut ctl = controller();
        run(&mut ctl, 10, |_| 0.026);
        assert_eq!(ctl.level(), DegradationLevel::Full);
        ctl.record_migration(10, "device-kill");
        assert_eq!(ctl.level(), DegradationLevel::TrimPeriphery);
        let t = *ctl.transitions().last().unwrap();
        assert_eq!(t.reason, TransitionReason::Migration);
        assert_eq!(t.signal, "device-kill");
        assert_eq!((t.from, t.to), (DegradationLevel::Full, DegradationLevel::TrimPeriphery));

        // At the ladder floor the level cannot deepen, but the migration
        // is still recorded (from == to) so it stays attributable.
        for _ in 0..4 {
            ctl.record_migration(11, "device-overload");
        }
        assert_eq!(ctl.level(), DegradationLevel::LastGood);
        let t = *ctl.transitions().last().unwrap();
        assert_eq!((t.from, t.to), (DegradationLevel::LastGood, DegradationLevel::LastGood));
        assert_eq!(t.reason.name(), "migration");
    }

    #[test]
    fn nominal_load_never_degrades() {
        let mut ctl = controller();
        run(&mut ctl, 50, |_| 0.026);
        assert_eq!(ctl.level(), DegradationLevel::Full);
        assert!(ctl.transitions().is_empty());
        assert_eq!(ctl.overruns(), 0);
    }

    #[test]
    fn overrun_steps_down_within_one_frame() {
        let mut ctl = controller();
        assert_eq!(ctl.decide(0), DegradationLevel::Full);
        ctl.observe(0, 0.060);
        let next = ctl.decide(1);
        assert!(next > DegradationLevel::Full);
        assert_eq!(ctl.transitions().len(), 1);
        assert_eq!(ctl.transitions()[0].reason, TransitionReason::Overrun);
        assert_eq!(ctl.transitions()[0].signal, "observed-overrun");
    }

    #[test]
    fn qos_request_forces_a_step_down_on_the_next_decide() {
        let mut ctl = controller();
        assert_eq!(ctl.decide(0), DegradationLevel::Full);
        ctl.observe(0, 0.020);
        ctl.request_step_down_with("qos-step-down");
        let next = ctl.decide(1);
        assert!(next > DegradationLevel::Full, "QoS request must shed despite clean latency");
        assert_eq!(ctl.transitions().len(), 1);
        assert_eq!(ctl.transitions()[0].reason, TransitionReason::Qos);
        assert_eq!(ctl.transitions()[0].signal, "qos-step-down");
    }

    #[test]
    fn qos_signals_annotate_the_transition_and_do_not_leak() {
        let mut ctl = controller();
        ctl.decide(0);
        ctl.observe(0, 0.020);
        ctl.request_step_down_with("qos-batch-overrun");
        ctl.decide(1);
        assert_eq!(ctl.transitions()[0].reason, TransitionReason::Qos);
        assert_eq!(ctl.transitions()[0].signal, "qos-batch-overrun");
        // A later *observed* overrun must not inherit the stale QoS signal.
        ctl.observe(1, 0.200);
        ctl.decide(2);
        let last = *ctl.transitions().last().unwrap();
        assert_eq!(last.reason, TransitionReason::Overrun);
        assert_eq!(last.signal, "observed-overrun");
        // Every recorded transition carries a non-empty signal.
        assert!(ctl.transitions().iter().all(|t| !t.signal.is_empty()));
    }

    #[test]
    fn queue_saturation_forces_an_annotated_step_down() {
        let mut ctl = controller();
        assert_eq!(ctl.decide(0), DegradationLevel::Full);
        ctl.observe(0, 0.020);
        // Below the bound: a depth observation alone never sheds.
        ctl.observe_queue_depth(1, 2);
        assert_eq!(ctl.decide(1), DegradationLevel::Full);
        ctl.observe(1, 0.020);
        // At the bound the queue is dropping frames: step down despite
        // clean frame latencies, attributed to the queue signal.
        ctl.observe_queue_depth(2, 2);
        assert!(ctl.decide(2) > DegradationLevel::Full);
        let last = *ctl.transitions().last().unwrap();
        assert_eq!(last.reason, TransitionReason::Qos);
        assert_eq!(last.signal, "queue-saturated");
    }

    #[test]
    fn queue_saturation_is_a_no_op_at_lastgood() {
        let mut ctl = controller();
        for i in 0..4 {
            ctl.request_step_down_with("qos-step-down");
            ctl.decide(i);
            ctl.observe(i, 0.001);
        }
        assert_eq!(ctl.level(), DegradationLevel::LastGood);
        let transitions = ctl.transitions().len();
        ctl.observe_queue_depth(5, 2);
        ctl.decide(9);
        assert_eq!(ctl.transitions().len(), transitions, "nothing left to shed");
    }

    #[test]
    fn qos_hold_suppresses_one_recovery_step() {
        let mut ctl = controller();
        ctl.request_step_down_with("qos-step-down");
        assert!(ctl.decide(0) > DegradationLevel::Full);
        // Build a full recovery streak with comfortably clean frames.
        let ladder = *ctl.ladder();
        for i in 0..ladder.recover_frames {
            ctl.observe(u64::from(i), 0.001);
            if i + 1 < ladder.recover_frames {
                ctl.decide(u64::from(i) + 1);
            }
        }
        let level = ctl.level();
        ctl.hold_level();
        assert_eq!(ctl.decide(100), level, "held controller must not step up");
        // The hold is consumed: the very next decide recovers as usual.
        assert!(ctl.decide(101) < level, "hold must only last one decide");
    }

    #[test]
    fn qos_request_is_a_no_op_at_last_good() {
        let mut ctl = controller();
        // Drive the controller all the way down with pathological latencies.
        run(&mut ctl, 20, |_| 10.0);
        assert_eq!(ctl.level(), DegradationLevel::LastGood);
        let transitions = ctl.transitions().len();
        ctl.request_step_down_with("qos-step-down");
        ctl.decide(20);
        assert_eq!(ctl.level(), DegradationLevel::LastGood);
        assert_eq!(ctl.transitions().len(), transitions, "nothing left to shed");
    }

    #[test]
    fn sustained_slowdown_settles_on_a_feasible_level_and_recovers() {
        let mut ctl = controller();
        // Warm up at nominal load, then a 2× slowdown for 40 frames, then
        // back to nominal.
        run(&mut ctl, 10, |_| 0.026);
        run(&mut ctl, 40, |_| 0.052);
        let degraded = ctl.level();
        assert!(degraded > DegradationLevel::Full, "must shed under 2× slowdown");
        assert!(
            degraded < DegradationLevel::LastGood,
            "2× slowdown should not need last-good ({degraded})"
        );
        run(&mut ctl, 60, |_| 0.020);
        assert_eq!(ctl.level(), DegradationLevel::Full, "must recover after the burst");
        let ups = ctl
            .transitions()
            .iter()
            .filter(|t| t.reason == TransitionReason::Recovered)
            .count();
        assert!(ups >= 1, "recovery must be recorded");
    }

    #[test]
    fn extreme_load_drops_to_last_good_and_probes_back() {
        let mut ctl = controller();
        run(&mut ctl, 30, |_| 1.0); // 30× over budget: nothing computable fits
        assert_eq!(ctl.level(), DegradationLevel::LastGood);
        // Persistent overload: probes step up and get knocked straight back.
        run(&mut ctl, 40, |_| 1.0);
        assert_eq!(ctl.level(), DegradationLevel::LastGood);
        // Load vanishes: the controller climbs all the way home.
        run(&mut ctl, 80, |_| 0.010);
        assert_eq!(ctl.level(), DegradationLevel::Full);
    }

    #[test]
    fn never_two_consecutive_overruns_without_stepdown() {
        let mut ctl = controller();
        // A nasty sawtooth: alternating calm and violent frames.
        run(&mut ctl, 120, |i| if (i / 7) % 2 == 0 { 0.020 } else { 0.150 });
        assert!(
            ctl.max_overruns_without_stepdown() <= 1,
            "contract violated: {} consecutive overruns",
            ctl.max_overruns_without_stepdown()
        );
    }

    #[test]
    fn hysteresis_blocks_immediate_reclimb() {
        let mut ctl = controller();
        run(&mut ctl, 5, |_| 0.060); // force a step down
        let deep = ctl.level();
        assert!(deep > DegradationLevel::Full);
        // One fast frame is not enough to climb.
        run(&mut ctl, 1, |_| 0.004);
        assert_eq!(ctl.level(), deep);
        // A sustained calm stretch is.
        run(&mut ctl, 30, |_| 0.004);
        assert!(ctl.level() < deep);
    }

    #[test]
    fn ladder_config_application_is_cumulative() {
        let ladder = DegradationLadder::default();
        let base = HoloArConfig::default();
        let full = ladder.apply(DegradationLevel::Full, &base);
        assert_eq!(full, base);
        let trim = ladder.apply(DegradationLevel::TrimPeriphery, &base);
        assert!((trim.alpha - base.alpha * 0.5).abs() < 1e-12);
        assert_eq!(trim.min_planes, base.min_planes);
        let floor = ladder.apply(DegradationLevel::FloorBeta, &base);
        assert!((floor.alpha - base.alpha * 0.5).abs() < 1e-12);
        assert!((floor.intra.theta_ref - base.intra.theta_ref * 2.0).abs() < 1e-12);
        assert_eq!(floor.min_planes, 1);
        for level in DegradationLevel::ALL {
            assert!(ladder.apply(level, &base).validate().is_ok(), "{level}");
        }
    }

    #[test]
    fn invalid_ladders_are_rejected() {
        let bad = DegradationLadder { frame_budget: 0.0, ..DegradationLadder::default() };
        assert!(DegradationController::new(bad).is_err());
        let bad = DegradationLadder { shed: [1.0, 0.72, 0.72, 0.05], ..DegradationLadder::default() };
        assert!(bad.validate().is_err());
        let bad = DegradationLadder { recover_margin: 1.0, ..DegradationLadder::default() };
        assert!(bad.validate().is_err());
        let bad = DegradationLadder { reproject_latency: 0.1, ..DegradationLadder::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn last_good_suppresses_planning_config() {
        let mut ctl = controller();
        run(&mut ctl, 30, |_| 1.0);
        assert_eq!(ctl.level(), DegradationLevel::LastGood);
        assert!(ctl.config_for(&HoloArConfig::default()).is_none());
    }

    #[test]
    fn levels_are_ordered_and_named() {
        assert!(DegradationLevel::Full < DegradationLevel::TrimPeriphery);
        assert!(DegradationLevel::FloorBeta < DegradationLevel::LastGood);
        for (i, l) in DegradationLevel::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
            assert!(!l.name().is_empty());
        }
        assert_eq!(DegradationLevel::LastGood.to_string(), "last-good");
    }
}
