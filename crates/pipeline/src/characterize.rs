//! The pipeline characterization of §2.2.1 / Fig 2: measured latencies of
//! each task on the edge platform versus the Table 1 ideals.

use crate::task::TaskKind;
use holoar_gpusim::{Device, HologramJob};
use holoar_sensors::{eyetrack, pose, scene_reconstruct};

/// One row of the Fig 2 comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCharacterization {
    /// Task measured.
    pub kind: TaskKind,
    /// Table 1 ideal latency, seconds.
    pub ideal: f64,
    /// Measured latency on the (simulated) edge platform, seconds.
    pub measured: f64,
}

impl TaskCharacterization {
    /// Whether the task meets its deadline.
    pub fn meets_deadline(&self) -> bool {
        self.measured <= self.ideal
    }

    /// Measured-over-ideal ratio (the "gap").
    pub fn gap(&self) -> f64 {
        self.measured / self.ideal
    }
}

/// Characterizes all four tasks, pricing the hologram (16 planes, 5 GSW
/// iterations) on the device and taking the sensing stages' published
/// measured latencies from their substitute models.
///
/// # Examples
///
/// ```
/// use holoar_gpusim::Device;
/// use holoar_pipeline::characterize::characterize;
/// use holoar_pipeline::task::TaskKind;
///
/// let rows = characterize(&Device::xavier());
/// let hologram = rows.iter().find(|r| r.kind == TaskKind::Hologram).unwrap();
/// assert!(hologram.gap() > 8.0, "the paper's 10x motivating gap");
/// ```
pub fn characterize(device: &Device) -> Vec<TaskCharacterization> {
    TaskKind::ALL
        .iter()
        .map(|&kind| {
            let measured = match kind {
                TaskKind::PoseEstimate => pose::spec::LATENCY,
                TaskKind::EyeTrack => eyetrack::spec::LATENCY,
                TaskKind::SceneReconstruct => scene_reconstruct::spec::LATENCY,
                TaskKind::Hologram => device.pricer().latency(&HologramJob::full(16)),
            };
            TaskCharacterization { kind, ideal: kind.ideal_latency(), measured }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<TaskCharacterization> {
        characterize(&Device::xavier())
    }

    #[test]
    fn covers_all_tasks() {
        assert_eq!(rows().len(), 4);
    }

    #[test]
    fn perception_tasks_meet_deadlines() {
        // §2.2.1: pose estimation (13.8 ms) and eye tracking (4.4 ms) fit.
        let rows = rows();
        let pose = rows.iter().find(|r| r.kind == TaskKind::PoseEstimate).unwrap();
        let eye = rows.iter().find(|r| r.kind == TaskKind::EyeTrack).unwrap();
        assert!(pose.meets_deadline());
        assert!(eye.meets_deadline());
    }

    #[test]
    fn scene_reconstruct_slightly_misses() {
        // 120 ms vs 100 ms — close to ideal but over.
        let rows = rows();
        let sr = rows.iter().find(|r| r.kind == TaskKind::SceneReconstruct).unwrap();
        assert!(!sr.meets_deadline());
        assert!(sr.gap() < 1.5, "gap {} should be small", sr.gap());
    }

    #[test]
    fn hologram_is_the_bottleneck_by_an_order_of_magnitude() {
        let rows = rows();
        let holo = rows.iter().find(|r| r.kind == TaskKind::Hologram).unwrap();
        assert!(!holo.meets_deadline());
        assert!(
            holo.gap() > 9.0 && holo.gap() < 12.0,
            "hologram gap {:.1}x should be the paper's ~10x",
            holo.gap()
        );
        // And it dominates every other task's measured latency.
        for r in &rows {
            if r.kind != TaskKind::Hologram {
                assert!(holo.measured > 2.0 * r.measured);
            }
        }
    }
}
