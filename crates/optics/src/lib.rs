//! Wave-optics CGH engine for the HoloAR reproduction — the stand-in for the
//! OpenHolo/CWO++ libraries the paper builds on.
//!
//! The crate covers the full quality path of the paper:
//!
//! * [`Field`]/[`OpticalConfig`] — sampled complex fields with physical
//!   metadata,
//! * [`DepthMap`] → [`PlaneStack`] — depthmap inputs sliced into `M` depth
//!   planes (the approximation knob HoloAR turns),
//! * [`Propagator`] — angular-spectrum propagation (`HP2DP`/`DP2HP`),
//! * [`algorithm1`] — the paper's depthmap hologram algorithm with
//!   work/synchronization instrumentation,
//! * [`gsw`] — adaptive weighted Gerchberg–Saxton phase retrieval,
//! * [`reconstruct`] — numerical reconstruction (focal stacks, pupil views),
//! * [`scene`] — procedural Sniper/Rock/Tree/Planet/Rabbit/Dice objects.
//!
//! # Examples
//!
//! Generate and reconstruct a hologram of the Planet object:
//!
//! ```
//! use holoar_optics::{algorithm1, reconstruct, ExecutionContext, OpticalConfig, Propagator, VirtualObject};
//!
//! let cfg = OpticalConfig::default();
//! let ctx = ExecutionContext::serial();
//! let depthmap = VirtualObject::Planet.render(32, 32, 0.02, 0.008);
//! let result = algorithm1::depthmap_hologram(&depthmap, 8, cfg, &ctx);
//! let mut prop = Propagator::new();
//! let image = reconstruct::reconstruct_intensity(&result.hologram, 0.02, &mut prop);
//! assert!(image.iter().sum::<f64>() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod algorithm1;
pub mod depthmap;
pub mod field;
pub mod gsw;
pub mod propagate;
pub mod reconstruct;
pub mod scene;

pub use algorithm1::{depthmap_hologram, hologram_from_planes, HologramResult, HologramStats};
pub use depthmap::{BuildDepthMapError, DepthMap, DepthPlane, PlaneStack};
pub use field::{Field, OpticalConfig};
pub use gsw::{GswConfig, GswResult};
pub use holoar_fft::{ExecutionContext, ExecutionContextBuilder};
pub use propagate::Propagator;
pub use reconstruct::Pupil;
pub use scene::VirtualObject;
