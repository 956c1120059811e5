//! Multi-session hologram serving: many AR sessions, one edge device.
//!
//! The single-user pipeline computes one hologram per frame on a dedicated
//! device. This crate multiplexes **N concurrent sessions** onto one
//! simulated edge accelerator:
//!
//! - [`admission`] — a deterministic admission controller probes each
//!   requested session's full-quality cost and admits the longest prefix
//!   the (overload-tolerant) budget can carry.
//! - [`scheduler`] — a round-robin frame scheduler with deadline-aware
//!   priority aging orders sessions each tick; overload defers the back of
//!   the order, never a starved session.
//! - [`engine`] — the tick loop: same-sized depth-plane propagations from
//!   *different* sessions run as one merged launch per (GSW iteration,
//!   step), priced by `holoar_gpusim::JobPricer::batch`, amortizing launch
//!   overheads and SM drain tails fleet-wide.
//! - [`qos`] — when a tick overruns the budget, exactly one victim (the
//!   least-focused session) is stepped down through its own
//!   `DegradationController`; the fleet never degrades in lockstep.
//! - [`quality`] — occupancy-weighted PSNR per session, sampled through the
//!   real optics path and compared against the single-session baseline.
//! - [`slo`] — per-session SLO tracking: mergeable latency quantile
//!   sketches, error-budget accounting with multi-window burn-rate alerts,
//!   and per-stage frame-time attribution that names the stage behind the
//!   slowest frame.
//! - [`fleet`] — multiplexes a churning session population across **K**
//!   devices: least-loaded + locality-aware [`placement`], periodic
//!   admission re-probing, and live session [`migration`] when a device
//!   overloads or dies, fed by the replay-driven [`load`] generator.
//!
//! Devices everywhere are described by the [`DeviceSpec`] builder, so
//! serve, faults, SLO, and fleet all construct heterogeneous hardware
//! through one vocabulary.
//!
//! The engines ([`run_serve`], [`run_fleet`]) are bit-deterministic for a
//! given configuration at any
//! [`ExecutionContext`](holoar_core::ExecutionContext) worker count.
//!
//! # Examples
//!
//! ```
//! use holoar_core::ExecutionContext;
//! use holoar_serve::{run_serve, DeviceSpec, ServeConfig, SessionSpec};
//!
//! let config =
//!     ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(2, 42), 4);
//! let ctx = ExecutionContext::serial();
//! let report = run_serve(&config, &ctx).expect("fleet config is valid");
//! assert_eq!(report.admitted, 2);
//! assert!(report.speedup_vs_sequential > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod engine;
pub mod fleet;
pub mod load;
pub mod migration;
pub mod placement;
pub mod qos;
pub mod quality;
pub mod report;
pub mod scheduler;
pub mod session;
pub mod slo;

pub use engine::{run_serve, ServeConfig, SERVE_FRAME_BUDGET, SERVE_HOLOGRAM_PIXELS};
pub use fleet::{run_fleet, DeviceReport, FleetConfig, FleetReport};
pub use holoar_gpusim::{DeviceSpec, EDGE_FRAME_BUDGET};
pub use load::{schedule, LoadConfig, SessionPlan};
pub use migration::{MigrationRecord, SIG_DEVICE_KILL, SIG_DEVICE_OVERLOAD};
pub use placement::{place, DeviceView};
pub use quality::{QualitySampler, PSNR_CAP};
pub use report::{percentile, ServeReport, SessionReport};
pub use scheduler::FrameScheduler;
pub use session::SessionSpec;
pub use slo::{BurnEvent, FleetSlo, SessionSlo, SloTracker, StageBreakdown};

#[cfg(test)]
mod tests {
    use super::*;
    use holoar_gpusim::calibration::GSW_ITERATIONS;

    /// The serving model's constants, checked once where a config
    /// `validate` used to check them on every run.
    #[test]
    fn serving_constants_are_valid() {
        engine::base_config().validate().unwrap();
        engine::ladder_for(&DeviceSpec::edge()).validate().unwrap();
        let checks = [
            ("hologram pixels > 0", SERVE_HOLOGRAM_PIXELS > 0),
            ("GSW iterations > 0", GSW_ITERATIONS > 0),
            ("overload factor ≥ 1", admission::OVERLOAD_FACTOR >= 1.0),
            ("defer threshold ≥ 1", engine::DEFER_THRESHOLD >= 1.0),
            ("hold margin in (0, 1]", qos::HOLD_MARGIN > 0.0 && qos::HOLD_MARGIN <= 1.0),
            ("session queue ≥ 1", engine::SESSION_QUEUE >= 1),
            ("SLO target in (0, 1)", slo::TARGET > 0.0 && slo::TARGET < 1.0),
            (
                "SLO windows 0 < fast ≤ slow",
                0 < slo::FAST_WINDOW && slo::FAST_WINDOW <= slo::SLOW_WINDOW,
            ),
            ("burn thresholds > 0", slo::FAST_BURN > 0.0 && slo::SLOW_BURN > 0.0),
            ("sketch α in (0, 0.5)", slo::SKETCH_ALPHA > 0.0 && slo::SKETCH_ALPHA < 0.5),
            ("re-probe cadence ≥ 1", fleet::REPROBE_EVERY >= 1),
            (
                "batch discount in (0, 1]",
                fleet::BATCH_DISCOUNT > 0.0 && fleet::BATCH_DISCOUNT <= 1.0,
            ),
            (
                "migrate factor ≥ overload factor",
                migration::MIGRATE_FACTOR >= admission::OVERLOAD_FACTOR,
            ),
            ("migration cost ≥ 0", migration::MIGRATION_COST >= 0.0),
            ("locality bonus ≥ 0", placement::LOCALITY_BONUS >= 0.0),
            ("ramp fraction in (0, 1]", load::RAMP_FRACTION > 0.0 && load::RAMP_FRACTION <= 1.0),
            ("lifetime fraction > 0", load::LIFETIME_FRACTION > 0.0),
        ];
        for (what, holds) in checks {
            assert!(holds, "serving constant out of range: {what}");
        }
    }
}
