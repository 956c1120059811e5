//! Deterministic admission control.
//!
//! Before the serving loop starts, each requested session's full-quality
//! hologram cost is probed (`probe_job`: first frame of its video,
//! planned at the base configuration) and the batched cost of admitting the
//! first `k` sessions is estimated on the device model. The controller
//! admits the longest prefix — spec order, so admission is deterministic —
//! whose batched cost fits inside `frame_budget × OVERLOAD_FACTOR`. The
//! factor above 1.0 is deliberate: the per-session degradation ladders
//! recover roughly that much headroom at their first shed level, so the
//! admission gate trusts degradation to absorb a bounded overload rather
//! than rejecting sessions a one-level trim could have served. The fleet
//! admits (and migrates) a session onto a device under the same headroom
//! (`fits`).

use holoar_core::Planner;
use holoar_gpusim::HologramJob;
use holoar_sensors::objectron::Frame;

use crate::engine::{base_config, nominal_sample, session_job};

/// Admission headroom multiplier on the frame budget (> 1 trusts
/// degradation to absorb a bounded overload).
pub const OVERLOAD_FACTOR: f64 = 2.0;

/// Plans `frame` at full quality (the base configuration) under nominal
/// sensors and returns its hologram job: the admission probe both serving
/// loops price, at arrival and (in the fleet) on every re-probe.
///
/// # Errors
///
/// Returns the planner's configuration error.
pub(crate) fn probe_job(frame: &Frame) -> Result<HologramJob, String> {
    let plan = Planner::new(base_config())?.plan_frame_with(frame, &nominal_sample(frame));
    Ok(session_job(&plan))
}

/// Whether a session of solo cost `cost` fits on a device carrying `load`
/// under its per-tick `budget`, with the admission headroom.
pub(crate) fn fits(load: f64, cost: f64, budget: f64) -> bool {
    load + cost <= OVERLOAD_FACTOR * budget + 1e-12
}

/// Admits the longest prefix of sessions whose estimated batched cost fits
/// the overloaded budget. `batched_estimates[k-1]` must be the batched cost
/// of serving the first `k` sessions together (monotone non-decreasing).
/// At least one session is always admitted when any is requested — a device
/// that cannot serve even one degraded session is a configuration error the
/// engine surfaces through the deadline-hit rate, not a reason to serve
/// nobody.
pub fn admit_count(batched_estimates: &[f64], frame_budget: f64) -> usize {
    let threshold = frame_budget * OVERLOAD_FACTOR;
    let mut admitted = 0usize;
    for (k, &estimate) in batched_estimates.iter().enumerate() {
        if k > 0 && estimate > threshold {
            break;
        }
        admitted = k + 1;
    }
    admitted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_the_longest_fitting_prefix() {
        let est = [0.004, 0.007, 0.010, 0.014, 0.019];
        assert_eq!(admit_count(&est, 0.0055), 3);
        assert_eq!(admit_count(&est, 0.011), 5);
    }

    #[test]
    fn always_admits_the_first_session() {
        assert_eq!(admit_count(&[9.0, 9.5], 0.011), 1);
    }

    #[test]
    fn empty_request_admits_nobody() {
        assert_eq!(admit_count(&[], 0.011), 0);
    }

    #[test]
    fn fits_uses_the_admission_headroom() {
        assert!(fits(0.010, 0.012, 0.011));
        assert!(!fits(0.010, 0.013, 0.011));
    }
}
