//! The full AR pipeline harness — the ILLIXR-testbed substitute.
//!
//! Covers the paper's pipeline-level analysis: Table 1's task deadlines
//! ([`task`]), the Fig 2 measured-versus-ideal characterization
//! ([`mod@characterize`], pricing the hologram with the device's job pricer)
//! and a battery-life model ([`battery`]).
//!
//! Frames run under exactly two models, over the same cadence-applied
//! per-frame latencies: the lockstep loop ([`schedule`], the paper's serial
//! baseline, where stages add and QoS is accounted per frame) and the
//! staged producer–consumer executor ([`executor`], where ingest, compute
//! and present overlap through bounded drop-oldest queues, [`queue`]).
//!
//! # Examples
//!
//! ```
//! use holoar_gpusim::Device;
//! use holoar_pipeline::{characterize::characterize, task::TaskKind};
//!
//! let rows = characterize(&Device::xavier());
//! let bottleneck = rows
//!     .iter()
//!     .max_by(|a, b| a.gap().total_cmp(&b.gap()))
//!     .unwrap();
//! assert_eq!(bottleneck.kind, TaskKind::Hologram);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod characterize;
pub mod executor;
pub mod queue;
pub mod schedule;
pub mod task;

pub use battery::Battery;
pub use characterize::{characterize, TaskCharacterization};
pub use executor::{
    run_staged, run_staged_trace, PresentedFrame, Stage, StagedConfig, StagedReport, StagedTrace,
};
pub use queue::BoundedQueue;
pub use schedule::{apply_scene_cadence, run_loop, FrameLatencies, QosReport, StageWorst};
pub use task::TaskKind;
