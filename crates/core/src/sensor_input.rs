//! Sensor inputs to the planner, including degraded modes.
//!
//! Real headsets lose sensors: eye trackers drop frames when the user
//! blinks or the IR view is occluded, and VIO diverges in feature-poor
//! scenes. HoloAR's safety property is that sensor loss degrades
//! *performance*, never *quality*: a scheme that cannot see the gaze must
//! treat every object as attended (no Inter-Holo approximation), and a
//! scheme that cannot see the pose must assume everything is in view and at
//! a conservative (near) distance.

use holoar_sensors::angles::AngularPoint;
use holoar_sensors::eyetrack::GazeEstimate;
use holoar_sensors::pose::PoseEstimate;

/// Eye-tracking input state for one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GazeInput {
    /// A valid estimate from the tracker.
    Tracked(GazeEstimate),
    /// Tracking lost (blink, occlusion, IR washout). The planner must not
    /// approximate on attention this frame.
    Lost,
}

impl GazeInput {
    /// Convenience constructor from a direction with the tracker's nominal
    /// latency.
    pub fn tracked(direction: AngularPoint) -> Self {
        GazeInput::Tracked(GazeEstimate {
            direction,
            latency: holoar_sensors::eyetrack::spec::LATENCY,
        })
    }

    /// The estimate, if tracked.
    pub fn estimate(&self) -> Option<GazeEstimate> {
        match self {
            GazeInput::Tracked(e) => Some(*e),
            GazeInput::Lost => None,
        }
    }
}

/// Pose input state for one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoseInput {
    /// A valid pose estimate.
    Tracked(PoseEstimate),
    /// Pose lost (VIO divergence). The planner must assume the full scene is
    /// visible and must not approximate on distance.
    Lost,
}

impl PoseInput {
    /// The estimate, if tracked.
    pub fn estimate(&self) -> Option<PoseEstimate> {
        match self {
            PoseInput::Tracked(p) => Some(*p),
            PoseInput::Lost => None,
        }
    }
}

/// One frame's sensor bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorSample {
    /// Head pose (viewing window + distances).
    pub pose: PoseInput,
    /// Gaze (region of focus).
    pub gaze: GazeInput,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_round_trips() {
        let pose = PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 };
        let s = SensorSample {
            pose: PoseInput::Tracked(pose),
            gaze: GazeInput::tracked(AngularPoint::new(0.1, 0.0)),
        };
        assert_eq!(s.pose.estimate(), Some(pose));
        assert!(s.gaze.estimate().is_some());
        assert!((s.gaze.estimate().unwrap().latency - 0.0044).abs() < 1e-12);
    }

    #[test]
    fn lost_yields_none() {
        let s = SensorSample { pose: PoseInput::Lost, gaze: GazeInput::Lost };
        assert_eq!(s.pose.estimate(), None);
        assert_eq!(s.gaze.estimate(), None);
    }
}
