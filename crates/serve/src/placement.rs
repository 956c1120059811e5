//! Least-loaded + locality-aware placement.
//!
//! Placement scores every live device by its *projected utilization* —
//! `(load + session_cost) / budget` — and subtracts a locality bonus when
//! the device already hosts sessions streaming the same Objectron category:
//! same-category sessions plan congruent plane geometries, so their merged
//! kernels amortize launches better (the single-device engine's
//! `launches_saved` is exactly this effect). Ties break to the lower device
//! index, which together with the fixed candidate order makes placement a
//! pure function of its inputs.

/// A placement-time snapshot of one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceView {
    /// Estimated standing load, seconds of work per tick.
    pub load: f64,
    /// Per-tick deadline, seconds.
    pub budget: f64,
    /// Whether the device is alive (dead devices never place).
    pub alive: bool,
    /// Hosted sessions streaming the candidate session's video category.
    pub same_video: u32,
}

/// Placement score credit, in utilization units, for a device already
/// hosting a same-category session.
pub const LOCALITY_BONUS: f64 = 0.05;

/// Picks the device for a session of estimated solo cost `session_cost`:
/// the live device minimizing projected utilization minus
/// [`LOCALITY_BONUS`] (granted once, when any same-category co-tenant
/// exists). Returns `None` when no device is alive.
pub fn place(views: &[DeviceView], session_cost: f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (idx, view) in views.iter().enumerate() {
        if !view.alive {
            continue;
        }
        let utilization = (view.load + session_cost) / view.budget.max(f64::MIN_POSITIVE);
        let bonus = if view.same_video > 0 { LOCALITY_BONUS } else { 0.0 };
        let score = utilization - bonus;
        // Strict `<` keeps the first (lowest-index) device on ties.
        if best.is_none_or(|(_, s)| score < s) {
            best = Some((idx, score));
        }
    }
    best.map(|(idx, _)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(load: f64, alive: bool, same_video: u32) -> DeviceView {
        DeviceView { load, budget: 1.0 / 90.0, alive, same_video }
    }

    #[test]
    fn least_loaded_wins_and_ties_break_low() {
        let views = [view(0.004, true, 0), view(0.002, true, 0), view(0.002, true, 0)];
        assert_eq!(place(&views, 0.001), Some(1));
    }

    #[test]
    fn locality_bonus_attracts_same_video_sessions() {
        // Device 1 is slightly busier; a same-category co-tenant flips the
        // choice, but only within the bonus.
        let stranger = [view(0.0020, true, 0), view(0.0021, true, 0)];
        assert_eq!(place(&stranger, 0.001), Some(0), "without a co-tenant, least-loaded wins");
        let co_tenant = [view(0.0020, true, 0), view(0.0021, true, 2)];
        assert_eq!(place(&co_tenant, 0.001), Some(1), "the bonus flips the choice");
        let far = [view(0.0020, true, 0), view(0.0030, true, 2)];
        assert_eq!(place(&far, 0.001), Some(0), "the bonus is bounded");
    }

    #[test]
    fn dead_devices_never_place() {
        let views = [view(0.0, false, 0), view(0.5, true, 0)];
        assert_eq!(place(&views, 0.001), Some(1));
        let all_dead = [view(0.0, false, 0), view(0.0, false, 0)];
        assert_eq!(place(&all_dead, 0.001), None);
        assert_eq!(place(&[], 0.001), None);
    }
}
