//! A cycle-approximate edge-GPU simulator — the reproduction's stand-in for
//! the NVIDIA Jetson AGX Xavier platform, NVPROF profiler and INA3221 power
//! monitor the paper evaluates HoloAR on.
//!
//! The model is deliberately at the granularity the paper's analysis needs:
//! thread blocks scheduled across SMs, a per-block cycle model with
//! throughput demands and NVPROF-category stall accounting ([`sm`]), a
//! four-rail power model ([`power`]), and a mapping from the depthmap
//! hologram algorithm onto kernel sequences ([`hologram_kernels`]). A
//! [`Device`] is an immutable configuration: [`Device::execute`] runs single
//! kernels for the profiler, and its [`JobPricer`] prices whole hologram jobs
//! from block costs computed once. The calibration anchors tying it to the
//! paper's measurements live in [`calibration`].
//!
//! # Examples
//!
//! Reproduce the paper's headline observation — the baseline hologram is
//! ~10× over its 33 ms deadline:
//!
//! ```
//! use holoar_gpusim::{Device, HologramJob};
//!
//! let device = Device::xavier();
//! let cost = device.pricer().cost(&HologramJob::full(16));
//! assert!(cost.latency > 0.3, "hologram takes {:.0} ms", cost.latency * 1e3);
//! ```

#![forbid(unsafe_code)]

pub mod calibration;
pub mod config;
pub mod device;
pub mod gating;
pub mod hologram_kernels;
pub mod kernel;
pub mod power;
pub mod profiler;
pub mod sm;
pub mod spec;
pub mod stats;
pub mod telemetry_bridge;
pub mod timeline;

pub use config::{DeviceConfig, MemoryConfig, PowerConfig, SmConfig};
pub use device::{BuildDeviceError, Device};
pub use gating::{DvfsOutcome, DvfsPoint, GatingPolicy};
pub use hologram_kernels::{BatchPrice, HologramJob, JobCost, JobPricer, Step};
pub use kernel::{InstructionMix, KernelDesc};
pub use power::{Activity, EnergyMeter, RailEnergy, RailPower};
pub use profiler::{KernelAggregate, Profiler};
pub use spec::{DeviceSpec, EDGE_FRAME_BUDGET};
pub use stats::{KernelStats, StallBreakdown, StallCategory};
pub use telemetry_bridge::{bridge_profiler, GPU_TRACK};
pub use timeline::{simulate, OccupancySample, StreamOp, Timeline};
