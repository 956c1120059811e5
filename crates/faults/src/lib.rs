//! Deterministic fault injection for the simulated HoloAR stack.
//!
//! Papers measure the happy path; production AR runtimes live on the sad
//! one. This crate perturbs every layer of the reproduction — gaze-tracker
//! dropouts and latency spikes (`sensors::eyetrack`), VIO divergence and
//! IMU noise bursts (`sensors::pose`/`imu`), SM slowdown and DRAM
//! contention (`gpusim`), and pipeline stage overruns — so the
//! deadline-aware degradation controller in `holoar_core::degrade` has
//! something real to react to.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism** — [`FaultInjector::frame`] is a pure function of
//!   `(seed, frame index)`; every fault process draws from its own salted
//!   RNG stream keyed by the frame's *burst window*, never from sequential
//!   state. Runs replay bit-identically across processes and worker
//!   counts.
//! * **Burstiness** — faults arrive as whole windows of consecutive frames
//!   ([`FaultSpec::burst_frames`]), matching how blinks, thermal
//!   throttling and bus contention behave, and exercising the controller's
//!   hysteresis instead of its single-frame reflexes.
//!
//! # Examples
//!
//! Drive a degraded frame end to end: resolve faults, derate the GPU, and
//! degrade the sensor bundle:
//!
//! ```
//! use holoar_core::sensor_input::{GazeInput, PoseInput, SensorSample};
//! use holoar_faults::{scenario, FaultInjector};
//!
//! let injector = scenario::full_stack(7).unwrap();
//! let device = scenario::accelerated_device();
//! let faults = injector.frame(12);
//! let derated = faults.derate_device(&device);
//! assert!(derated.validate().is_ok());
//! let lost = SensorSample { pose: PoseInput::Lost, gaze: GazeInput::Lost };
//! let degraded = faults.degrade_sensors(&lost);
//! // Faults only ever remove information — a lost sensor stays lost.
//! assert!(degraded.pose.estimate().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod injector;
pub mod scenario;
pub mod spec;

pub use injector::{FaultInjector, FrameFaults};
pub use spec::{FaultKind, FaultSpec};
