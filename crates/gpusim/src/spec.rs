//! Declarative device specification — the one way the upper layers
//! (serving, faults, SLO, fleet) construct simulated devices.
//!
//! [`DeviceSpec`] is a small by-value builder over [`DeviceConfig`]: it
//! captures the handful of knobs the serving stack actually varies — SM
//! count, per-frame deadline and the calibrated kernel efficiency — and
//! derives the full config on demand. Heterogeneous fleets are a
//! `Vec<DeviceSpec>`.
//!
//! # Examples
//!
//! ```
//! use holoar_gpusim::{Device, DeviceSpec};
//!
//! // The serving default: a 32-SM edge accelerator on a 90 Hz deadline.
//! let spec = DeviceSpec::edge();
//! let device = Device::new(spec.config()).unwrap();
//! assert_eq!(device.config().sm_count, 32);
//! ```

use crate::config::DeviceConfig;

/// Per-frame deadline of the serving default, seconds (90 Hz refresh).
pub const EDGE_FRAME_BUDGET: f64 = 1.0 / 90.0;

/// A declarative specification of one simulated edge device.
///
/// The builder methods consume and return the spec so fleets read as
/// chained expressions; [`DeviceSpec::config`] derives the concrete
/// [`DeviceConfig`] and [`DeviceSpec::validate`]
/// checks the result plus the spec-level invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    sm_count: u32,
    kernel_efficiency: f64,
    frame_budget: f64,
}

impl Default for DeviceSpec {
    /// The Xavier baseline: the [`DeviceConfig::default`] platform on the
    /// paper's 33 ms hologram deadline.
    fn default() -> Self {
        let base = DeviceConfig::default();
        DeviceSpec {
            sm_count: base.sm_count,
            kernel_efficiency: base.kernel_efficiency,
            frame_budget: 0.033,
        }
    }
}

impl DeviceSpec {
    /// The Xavier baseline spec (see [`DeviceSpec::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The multi-session serving default: a 32-SM edge accelerator (4× the
    /// Xavier GPU — an edge-server part, not the HMD itself) driving a
    /// 90 Hz display ([`EDGE_FRAME_BUDGET`]).
    pub fn edge() -> Self {
        Self::default().sm_count(32).frame_budget(EDGE_FRAME_BUDGET)
    }

    /// Sets the number of streaming multiprocessors.
    #[must_use]
    pub fn sm_count(mut self, sm_count: u32) -> Self {
        self.sm_count = sm_count;
        self
    }

    /// Sets the achieved fraction of ideal throughput (see
    /// [`DeviceConfig::kernel_efficiency`]).
    #[must_use]
    pub fn kernel_efficiency(mut self, efficiency: f64) -> Self {
        self.kernel_efficiency = efficiency;
        self
    }

    /// Sets the per-frame deadline in seconds.
    #[must_use]
    pub fn frame_budget(mut self, seconds: f64) -> Self {
        self.frame_budget = seconds;
        self
    }

    /// The per-frame deadline in seconds.
    pub fn budget(&self) -> f64 {
        self.frame_budget
    }

    /// Derives the concrete device configuration.
    pub fn config(&self) -> DeviceConfig {
        DeviceConfig {
            sm_count: self.sm_count,
            kernel_efficiency: self.kernel_efficiency,
            ..DeviceConfig::default()
        }
    }

    /// Validates the spec: the frame budget must be positive and finite
    /// and the derived config must pass [`DeviceConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.frame_budget > 0.0 && self.frame_budget.is_finite()) {
            return Err("device frame budget must be positive and finite".into());
        }
        self.config().validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_xavier_baseline() {
        let spec = DeviceSpec::new();
        assert_eq!(spec.config(), DeviceConfig::default());
        assert!(spec.validate().is_ok());
        assert!((spec.budget() - 0.033).abs() < 1e-12);
    }

    #[test]
    fn edge_spec_is_the_serving_device() {
        let spec = DeviceSpec::edge();
        let cfg = spec.config();
        // Exactly the old `serve_device()` shape: 32 SMs over the Xavier
        // defaults, no derating — checked-in serving artifacts depend on
        // this being bit-exact.
        assert_eq!(cfg, DeviceConfig { sm_count: 32, ..DeviceConfig::default() });
        assert_eq!(spec.budget(), EDGE_FRAME_BUDGET);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_budget_and_bad_config() {
        assert!(DeviceSpec::edge().frame_budget(0.0).validate().is_err());
        assert!(DeviceSpec::edge().frame_budget(f64::NAN).validate().is_err());
        assert!(DeviceSpec::edge().sm_count(0).validate().is_err());
        assert!(DeviceSpec::edge().kernel_efficiency(0.0).validate().is_err());
    }
}
