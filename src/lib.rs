//! Umbrella crate for the HoloAR reproduction workspace.
//!
//! Re-exports every layer under one roof — the from-scratch FFT ([`fft`]),
//! the wave-optics CGH engine ([`optics`]), the edge-GPU simulator
//! ([`gpusim`]), the synthetic sensing substrates ([`sensors`]), the quality
//! metrics ([`metrics`]), the AR pipeline harness ([`pipeline`]) and the
//! HoloAR framework itself ([`core`]).
//!
//! # Examples
//!
//! The paper's result in six lines — approximation buys a large energy
//! saving at the same displayed scene:
//!
//! ```
//! use holoar::core::{evaluation, Scheme};
//! use holoar::gpusim::Device;
//! use holoar::sensors::objectron::VideoCategory;
//!
//! let device = Device::xavier();
//! let baseline = evaluation::evaluate_video(
//!     &device, VideoCategory::Cup, Scheme::Baseline, 20, 42);
//! let holoar = evaluation::evaluate_video(
//!     &device, VideoCategory::Cup, Scheme::InterIntraHolo, 20, 42);
//! assert!(holoar.mean_energy < 0.6 * baseline.mean_energy);
//! assert!(holoar.mean_latency < baseline.mean_latency);
//! ```

#![forbid(unsafe_code)]

pub use holoar_core as core;
pub use holoar_fft as fft;
pub use holoar_gpusim as gpusim;
pub use holoar_metrics as metrics;
pub use holoar_optics as optics;
pub use holoar_pipeline as pipeline;
pub use holoar_sensors as sensors;
