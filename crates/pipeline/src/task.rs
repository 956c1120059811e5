//! The AR pipeline's tasks and their Table 1 latency requirements.

/// The four characterized pipeline tasks (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// Head-pose estimation (Kimera).
    PoseEstimate,
    /// Eye tracking (NVGaze).
    EyeTrack,
    /// Scene reconstruction (InfiniTAM).
    SceneReconstruct,
    /// Hologram generation (GSW).
    Hologram,
}

impl TaskKind {
    /// All tasks in Table 1 order.
    pub const ALL: [TaskKind; 4] = [
        TaskKind::PoseEstimate,
        TaskKind::EyeTrack,
        TaskKind::SceneReconstruct,
        TaskKind::Hologram,
    ];

    /// Display name as in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::PoseEstimate => "Pose Estimate",
            TaskKind::EyeTrack => "Eye Track",
            TaskKind::SceneReconstruct => "Scene Reconstruct",
            TaskKind::Hologram => "Hologram",
        }
    }

    /// The algorithm the paper runs for this task.
    pub fn algorithm(self) -> &'static str {
        match self {
            TaskKind::PoseEstimate => "Kimera",
            TaskKind::EyeTrack => "NVGaze",
            TaskKind::SceneReconstruct => "InfiniTAM",
            TaskKind::Hologram => "GSW",
        }
    }

    /// Table 1's ideal latency (deadline), seconds.
    pub fn ideal_latency(self) -> f64 {
        match self {
            TaskKind::PoseEstimate => 0.033,
            TaskKind::EyeTrack => 0.033,
            TaskKind::SceneReconstruct => 0.100,
            TaskKind::Hologram => 0.033,
        }
    }

    /// How many frames may elapse between runs (scene reconstruction runs
    /// once per 2–3 frames; everything else every frame).
    pub fn frame_cadence(self) -> u64 {
        match self {
            TaskKind::SceneReconstruct => holoar_sensors::scene_reconstruct::spec::FRAME_CADENCE,
            _ => 1,
        }
    }

    /// The staged-executor stage this task runs in
    /// ([`crate::executor::Stage`]): perception tasks are ingest, hologram
    /// generation is compute. (Display composition is not a Table 1 task;
    /// the executor models it via [`crate::executor::StagedConfig`].)
    pub fn stage(self) -> crate::executor::Stage {
        match self {
            TaskKind::PoseEstimate | TaskKind::EyeTrack | TaskKind::SceneReconstruct => {
                crate::executor::Stage::Ingest
            }
            TaskKind::Hologram => crate::executor::Stage::Compute,
        }
    }
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows() {
        assert_eq!(TaskKind::ALL.len(), 4);
        assert_eq!(TaskKind::PoseEstimate.ideal_latency(), 0.033);
        assert_eq!(TaskKind::SceneReconstruct.ideal_latency(), 0.100);
        assert_eq!(TaskKind::Hologram.algorithm(), "GSW");
        assert_eq!(TaskKind::EyeTrack.algorithm(), "NVGaze");
    }

    #[test]
    fn cadence() {
        assert_eq!(TaskKind::Hologram.frame_cadence(), 1);
        assert_eq!(TaskKind::SceneReconstruct.frame_cadence(), 3);
    }

    #[test]
    fn display_names() {
        assert_eq!(TaskKind::PoseEstimate.to_string(), "Pose Estimate");
    }
}
