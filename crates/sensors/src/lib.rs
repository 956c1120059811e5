//! Synthetic sensing and dataset substrates for the HoloAR reproduction.
//!
//! The paper's inputs — the Objectron and MPIIDPEye datasets, NVGaze eye
//! tracking, Kimera-VIO pose estimation, InfiniTAM scene reconstruction —
//! are unavailable here, so each is substituted with a deterministic
//! synthetic model matched to the statistics the paper actually relies on
//! (see `DESIGN.md` for the substitution table):
//!
//! * [`objectron`] — per-frame object annotations matching Table 2,
//! * [`gaze`] — fixation/saccade gaze with Fig 3b's temporal locality,
//! * [`eyetrack`] — an estimator with NVGaze's 2.06° accuracy and 4.4 ms
//!   latency,
//! * [`imu`]/[`pose`] — head motion and a Kimera-like filter (13.75 ms),
//! * [`scene_reconstruct`] — InfiniTAM's published 120 ms cost and cadence,
//! * [`stats`] — the Fig 3 dataset study computed over all of the above.
//!
//! # Examples
//!
//! ```
//! use holoar_sensors::objectron::{FrameGenerator, VideoCategory};
//!
//! let frame = FrameGenerator::new(VideoCategory::Shoe, 7).next().unwrap();
//! for object in &frame.objects {
//!     assert!(object.distance > 0.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angles;
pub mod calibrated_noise;
pub mod eyetrack;
pub mod gaze;
pub mod imu;
pub mod objectron;
pub mod pose;
pub mod rng;
pub mod scene_reconstruct;
pub mod stats;
pub mod trace;

pub use angles::{AngularPoint, AngularRect};
pub use eyetrack::{EyeTracker, GazeEstimate};
pub use gaze::{GazeModel, GazeTrace, UserProfile};
pub use imu::{HeadMotion, ImuSample};
pub use objectron::{Frame, FrameGenerator, ObjectAnnotation, VideoCategory, VideoSpec};
pub use pose::{PoseEstimate, PoseEstimator};
pub use rng::Rng;
pub use trace::{ParseTraceError, SessionTrace, TraceFrame};
