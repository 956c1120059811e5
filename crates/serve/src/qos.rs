//! Per-session QoS policy for an overloaded device.
//!
//! When a tick's batched latency overruns the frame budget, the serving
//! layer degrades **exactly one** session and holds every other session's
//! level (`respond`); inside the hysteresis band just under the budget it
//! only holds. One victim per tick guarantees a device never degrades in
//! lockstep: the overload is shed incrementally. Which session is the
//! victim is the loop's own policy — single-device serving sheds the
//! least-focused session ([`pick_victim`]), on the paper's premise that
//! quality loss in the periphery is least perceptible, so sessions the user
//! is actually looking at are the last to lose quality.

use holoar_core::DegradationController;

/// Recovery-hold band as a fraction of the frame budget: while the batch
/// runs hotter than this, session step-ups are held so a thundering herd of
/// recoveries cannot push the device back over the deadline it just shed
/// its way under.
pub const HOLD_MARGIN: f64 = 0.85;

/// Answers one device's tick `latency` against its `budget`. Past the
/// budget, the tenant `pick_victim` names (an index into the collected
/// `tenants`) steps down with `signal` and every other tenant holds its
/// level: stepping up against a saturated device would outpace the
/// one-victim-per-tick shedding. Inside `HOLD_MARGIN × budget` every tenant
/// holds, so the device settles just under the deadline instead of
/// oscillating across it. Cooler ticks leave the tenants alone. Returns
/// the stepped-down victim's index.
pub(crate) fn respond<'a, T: 'a>(
    latency: f64,
    budget: f64,
    tenants: impl IntoIterator<Item = &'a mut T>,
    ctl: impl Fn(&mut T) -> &mut DegradationController,
    pick_victim: impl FnOnce(&[&'a mut T]) -> Option<usize>,
    signal: &'static str,
) -> Option<usize> {
    if latency <= HOLD_MARGIN * budget {
        return None;
    }
    let mut tenants: Vec<&mut T> = tenants.into_iter().collect();
    let victim = if latency > budget { pick_victim(&tenants) } else { None };
    for (i, tenant) in tenants.iter_mut().enumerate() {
        if victim == Some(i) {
            ctl(tenant).request_step_down_with(signal);
        } else {
            ctl(tenant).hold_level();
        }
    }
    victim
}

/// Picks the QoS victim for an overloaded tick: the eligible session with
/// the lowest focus score. Ties break toward the session already at the
/// deepest degradation level — compounding the shedding where quality was
/// already sacrificed converges in the fewest victims and leaves the most
/// sessions pristine — then toward the lower index. Sessions already at the
/// ladder floor (or deferred/reprojecting this tick) must be marked
/// ineligible by the caller. Returns `None` when nobody is eligible.
pub fn pick_victim(focus: &[f64], level: &[usize], eligible: &[bool]) -> Option<usize> {
    assert_eq!(focus.len(), eligible.len(), "focus/eligible must align");
    assert_eq!(focus.len(), level.len(), "focus/level must align");
    let mut victim: Option<usize> = None;
    for i in 0..focus.len() {
        if !eligible[i] {
            continue;
        }
        let better = match victim {
            None => true,
            Some(v) => {
                (focus[i], std::cmp::Reverse(level[i])) < (focus[v], std::cmp::Reverse(level[v]))
            }
        };
        if better {
            victim = Some(i);
        }
    }
    victim
}

#[cfg(test)]
mod tests {
    use super::*;
    use holoar_core::degrade::{DegradationLadder, DegradationLevel};

    fn controllers(n: usize) -> Vec<DegradationController> {
        (0..n).map(|_| DegradationController::new(DegradationLadder::default()).unwrap()).collect()
    }

    #[test]
    fn an_overrun_steps_down_exactly_the_picked_victim() {
        let mut ctls = controllers(3);
        let budget = 0.011;
        let victim = respond(budget * 1.2, budget, &mut ctls, |c| c, |_| Some(1), "test-overrun");
        assert_eq!(victim, Some(1));
        let levels: Vec<DegradationLevel> = ctls.iter_mut().map(|c| c.decide(0)).collect();
        assert_eq!(levels[0], DegradationLevel::Full);
        assert_ne!(levels[1], DegradationLevel::Full);
        assert_eq!(levels[2], DegradationLevel::Full);
        assert_eq!(ctls[1].transitions()[0].signal, "test-overrun");
    }

    #[test]
    fn only_an_overrun_consults_the_victim_policy() {
        let mut ctls = controllers(2);
        let budget = 0.011;
        for latency in [budget * 0.9, budget * 0.5] {
            let victim =
                respond(latency, budget, &mut ctls, |c| c, |_| unreachable!(), "test-overrun");
            assert_eq!(victim, None);
        }
        assert!(ctls.iter_mut().all(|c| c.decide(0) == DegradationLevel::Full));
    }

    #[test]
    fn picks_the_least_focused_eligible_session() {
        let focus = [0.9, 0.3, 0.5, 0.3];
        let level = [0usize; 4];
        assert_eq!(pick_victim(&focus, &level, &[true; 4]), Some(1), "ties break low");
        assert_eq!(pick_victim(&focus, &level, &[true, false, true, true]), Some(3));
    }

    #[test]
    fn equal_focus_compounds_on_the_deepest_level() {
        let focus = [1.0, 1.0, 1.0];
        let level = [0usize, 2, 1];
        assert_eq!(pick_victim(&focus, &level, &[true; 3]), Some(1));
        // Focus still dominates level.
        assert_eq!(pick_victim(&[1.0, 0.2, 1.0], &level, &[true; 3]), Some(1));
        assert_eq!(pick_victim(&[0.1, 1.0, 1.0], &level, &[true; 3]), Some(0));
    }

    #[test]
    fn no_eligible_session_means_no_victim() {
        assert_eq!(pick_victim(&[0.1, 0.2], &[0, 0], &[false, false]), None);
        assert_eq!(pick_victim(&[], &[], &[]), None);
    }
}
