//! HoloAR: on-the-fly approximation of 3-D holographic processing for AR —
//! the paper's primary contribution.
//!
//! The framework layers three decisions per object per frame (Fig 6a):
//!
//! 1. **Viewing window** ([`window`]) — skip objects outside the
//!    head-pose-derived window, compute partial sub-holograms for partially
//!    visible ones, and reuse unchanged sub-holograms across frames
//!    (the *Baseline*, after Reichelt et al.).
//! 2. **Inter-Holo** ([`rof`], [`approx`]) — full depth-plane budget inside
//!    the tracked 5° region of focus, `16·α` outside (foveated rendering,
//!    the *Reference* design).
//! 3. **Intra-Holo** ([`approx`]) — per-object budgets `16·β(dist, size)`
//!    from the pose estimate; composed with Inter-Holo as *Inter-Intra-Holo*
//!    (the full HoloAR).
//!
//! [`Planner`] turns sensor inputs into a [`planner::ComputePlan`], whose
//! computed objects map to hologram jobs ([`planner::PlanItem::job`]);
//! [`executor`] prices plans on the simulated edge GPU's job pricer for
//! latency/power/energy (Fig 7, Fig 8), [`quality`] runs the same plans
//! through the real wave-optics engine for PSNR (Fig 10), [`evaluation`]
//! drives the full 6-video × 4-scheme matrix, and [`horn8`] provides the
//! accelerator comparison and the §5.5 hybrid-scheduling ablation.
//!
//! # Examples
//!
//! ```
//! use holoar_core::{evaluation, Scheme};
//! use holoar_gpusim::Device;
//! use holoar_sensors::objectron::VideoCategory;
//!
//! let device = Device::xavier();
//! let base = evaluation::evaluate_video(
//!     &device, VideoCategory::Shoe, Scheme::Baseline, 10, 1);
//! let holoar = evaluation::evaluate_video(
//!     &device, VideoCategory::Shoe, Scheme::InterIntraHolo, 10, 1);
//! assert!(holoar.mean_energy < base.mean_energy);
//! ```

#![forbid(unsafe_code)]

pub mod approx;
pub mod config;
pub mod degrade;
pub mod evaluation;
pub mod executor;
pub mod horn8;
pub mod motion;
pub mod planner;
pub mod quality;
pub mod rof;
pub mod sensor_input;
pub mod view;
pub mod window;

pub use config::{HoloArConfig, IntraParams, Scheme, FULL_PLANES};
pub use holoar_fft::{ExecutionContext, ExecutionContextBuilder};
pub use degrade::{DegradationController, DegradationLadder, DegradationLevel};
pub use evaluation::{EvaluationMatrix, VideoResult};
pub use executor::FramePerf;
pub use horn8::{Horn8Model, HybridSchedule};
pub use motion::{ApplicationProfile, MotionGuard};
pub use planner::{ComputePlan, PlanItem, Planner};
pub use quality::{DesignPoint, ObjectQuality, TradeoffPoint, VideoQuality};
pub use rof::RegionOfFocus;
pub use sensor_input::{GazeInput, PoseInput, SensorSample};
pub use view::{render_view, ViewportImage};
pub use window::ReuseTracker;
