//! Motion sensitivity guard — operationalizing §5.4's "Generality" caveat.
//!
//! The paper notes two application classes HoloAR serves poorly:
//! quality-critical apps (AR surgery) that should not approximate at all,
//! and motion-sensitive apps (spaceship simulation) where "the eye could
//! move to another area while the hologram is still being computed for the
//! previous focus region". This module provides both guards:
//!
//! * [`ApplicationProfile`] — presets mapping an application class to a
//!   configuration (quality-critical pins the baseline);
//! * [`MotionGuard`] — a gaze/head velocity estimator that detects rapid
//!   motion and tells the planner to suspend attention-based approximation
//!   for the affected frames (the RoF would be stale before the hologram
//!   lands).

use crate::config::{HoloArConfig, Scheme};
use holoar_sensors::angles::{deg, AngularPoint};

/// Application classes from the paper's generality discussion (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApplicationProfile {
    /// Infotainment / gaming / virtual touring: the paper's target class —
    /// full HoloAR.
    Infotainment,
    /// Quality-critical (e.g. AR surgery): never approximate; the paper
    /// recommends offloading instead.
    QualityCritical,
    /// Motion-sensitive (e.g. flight simulation): distance-based
    /// approximation only — stale-gaze artifacts rule out Inter-Holo.
    MotionSensitive,
}

impl ApplicationProfile {
    /// The configuration this profile prescribes.
    pub fn config(self) -> HoloArConfig {
        match self {
            ApplicationProfile::Infotainment => {
                HoloArConfig::for_scheme(Scheme::InterIntraHolo)
            }
            ApplicationProfile::QualityCritical => HoloArConfig::for_scheme(Scheme::Baseline),
            ApplicationProfile::MotionSensitive => HoloArConfig::for_scheme(Scheme::IntraHolo),
        }
    }
}

/// Detects gaze motion too fast for attention-based approximation.
///
/// Tracks the angular velocity of consecutive gaze samples; when it exceeds
/// the saccade threshold, the region of focus is declared stale for
/// `hold_frames` frames (a saccade plus hologram latency), during which
/// the planner should treat every object as attended.
///
/// # Examples
///
/// ```
/// use holoar_core::motion::MotionGuard;
/// use holoar_sensors::angles::{deg, AngularPoint};
///
/// let mut guard = MotionGuard::new(30.0);
/// assert!(!guard.observe(AngularPoint::CENTER));
/// // A 12° jump between consecutive 30 Hz samples is a saccade.
/// assert!(guard.observe(AngularPoint::new(deg(12.0), 0.0)));
/// ```
#[derive(Debug, Clone)]
pub struct MotionGuard {
    sample_period: f64,
    threshold: f64,
    hold_frames: u32,
    last: Option<AngularPoint>,
    hold_remaining: u32,
}

impl MotionGuard {
    /// Saccade-detection threshold, rad/s. Smooth pursuit tops out near
    /// 30–40°/s; saccades run to hundreds.
    pub const DEFAULT_THRESHOLD: f64 = deg(80.0);

    /// Creates a guard for a given gaze sample rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive and finite.
    pub fn new(rate_hz: f64) -> Self {
        assert!(rate_hz > 0.0 && rate_hz.is_finite(), "sample rate must be positive");
        MotionGuard {
            sample_period: 1.0 / rate_hz,
            threshold: Self::DEFAULT_THRESHOLD,
            hold_frames: 3,
            last: None,
            hold_remaining: 0,
        }
    }

    /// Observes one gaze sample. Returns `true` while attention-based
    /// approximation should be suspended (saccade in flight or cooling
    /// down).
    pub fn observe(&mut self, gaze: AngularPoint) -> bool {
        let velocity = match self.last {
            Some(prev) => prev.distance_to(gaze) / self.sample_period,
            None => 0.0,
        };
        self.last = Some(gaze);
        if velocity > self.threshold {
            self.hold_remaining = self.hold_frames;
        } else {
            self.hold_remaining = self.hold_remaining.saturating_sub(1);
        }
        self.hold_remaining > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_map_to_expected_schemes() {
        assert_eq!(ApplicationProfile::Infotainment.config().scheme, Scheme::InterIntraHolo);
        assert_eq!(ApplicationProfile::QualityCritical.config().scheme, Scheme::Baseline);
        assert_eq!(ApplicationProfile::MotionSensitive.config().scheme, Scheme::IntraHolo);
        // The quality-critical profile never uses eye tracking.
        assert!(!ApplicationProfile::QualityCritical.config().scheme.uses_eye_tracking());
    }

    #[test]
    fn fixation_does_not_trigger() {
        let mut guard = MotionGuard::new(30.0);
        for i in 0..20 {
            // Tremor-scale jitter.
            let p = AngularPoint::new(deg(0.05) * (i % 3) as f64, 0.0);
            assert!(!guard.observe(p), "fixation misdetected at sample {i}");
        }
    }

    #[test]
    fn smooth_pursuit_does_not_trigger() {
        let mut guard = MotionGuard::new(30.0);
        // 20°/s pursuit = 0.67° per 30 Hz sample.
        for i in 0..20 {
            let p = AngularPoint::new(deg(0.667) * i as f64, 0.0);
            assert!(!guard.observe(p), "pursuit misdetected at sample {i}");
        }
    }

    #[test]
    fn saccade_triggers_and_holds() {
        let mut guard = MotionGuard::new(30.0);
        guard.observe(AngularPoint::CENTER);
        // 15° in one 30 Hz sample = 450°/s: a saccade.
        assert!(guard.observe(AngularPoint::new(deg(15.0), 0.0)));
        // The hold persists for a few quiet frames, then releases.
        let mut held = 0;
        for _ in 0..10 {
            if guard.observe(AngularPoint::new(deg(15.0), 0.0)) {
                held += 1;
            } else {
                break;
            }
        }
        assert!((1..=4).contains(&held), "hold lasted {held} frames");
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_rate_panics() {
        MotionGuard::new(0.0);
    }
}
