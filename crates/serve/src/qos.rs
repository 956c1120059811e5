//! Per-session QoS policy for an overloaded device.
//!
//! When a tick's batched latency overruns the frame budget, the serving
//! layer degrades **exactly one** session and holds every other session's
//! level (`respond`); inside the hysteresis band just under the budget it
//! only holds. One victim per tick guarantees a device never degrades in
//! lockstep: the overload is shed incrementally. Which session is the
//! victim is the loop's own policy — single-device serving sheds the
//! least-focused session (`sheds_first`), on the paper's premise that
//! quality loss in the periphery is least perceptible, so sessions the user
//! is actually looking at are the last to lose quality.

use holoar_core::DegradationController;

/// Recovery-hold band as a fraction of the frame budget: while the batch
/// runs hotter than this, session step-ups are held so a thundering herd of
/// recoveries cannot push the device back over the deadline it just shed
/// its way under.
pub const HOLD_MARGIN: f64 = 0.85;

/// Answers one device's tick `latency` against its `budget`. Past the
/// budget, one victim steps down with `signal` and every other tenant holds
/// its level: stepping up against a saturated device would outpace the
/// one-victim-per-tick shedding. The victim is the first `eligible` tenant
/// (given its index and itself) that no other eligible tenant comes
/// `before` (`before(a, b)`: `a` sheds ahead of `b`). Inside
/// `HOLD_MARGIN × budget` every tenant holds, so the device settles just
/// under the deadline instead of oscillating across it. Cooler ticks leave
/// the tenants alone. Returns the stepped-down victim's index.
///
/// One pass, allocating nothing: the best candidate so far waits aside and
/// holds once a better one displaces it.
pub(crate) fn respond<'a, T: 'a>(
    latency: f64,
    budget: f64,
    tenants: impl IntoIterator<Item = &'a mut T>,
    ctl: impl Fn(&mut T) -> &mut DegradationController,
    eligible: impl Fn(usize, &T) -> bool,
    before: impl Fn(&T, &T) -> bool,
    signal: &'static str,
) -> Option<usize> {
    if latency <= HOLD_MARGIN * budget {
        return None;
    }
    let overrun = latency > budget;
    let mut victim: Option<(usize, &mut T)> = None;
    for (i, tenant) in tenants.into_iter().enumerate() {
        let candidate = overrun
            && eligible(i, tenant)
            && victim.as_ref().is_none_or(|(_, best)| before(tenant, best));
        if !candidate {
            ctl(tenant).hold_level();
        } else if let Some((_, displaced)) = victim.replace((i, tenant)) {
            ctl(displaced).hold_level();
        }
    }
    let (index, tenant) = victim?;
    ctl(tenant).request_step_down_with(signal);
    Some(index)
}

/// Single-device serving's victim order: whether a session with focus
/// score `a.0` at ladder level `a.1` sheds before one at `b`. The lower
/// focus sheds first; equal focus sheds the session already at the deeper
/// degradation level, since compounding the shedding where quality was
/// already sacrificed converges in the fewest victims and leaves the most
/// sessions pristine. Equal sessions keep their order, so the lower index
/// wins. Sessions already at the ladder floor (or deferred/reprojecting this
/// tick) are not eligible.
pub(crate) fn sheds_first(a: (f64, usize), b: (f64, usize)) -> bool {
    (a.0, std::cmp::Reverse(a.1)) < (b.0, std::cmp::Reverse(b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use holoar_core::degrade::{DegradationLadder, DegradationLevel};

    fn controllers(n: usize) -> Vec<DegradationController> {
        (0..n).map(|_| DegradationController::new(DegradationLadder::default()).unwrap()).collect()
    }

    /// The victim serve's order picks among sessions of the given focus,
    /// level and eligibility on an overrunning tick.
    fn pick_victim(focus: &[f64], level: &[usize], eligible: &[bool]) -> Option<usize> {
        let mut tenants: Vec<(f64, usize, bool, DegradationController)> = controllers(focus.len())
            .into_iter()
            .enumerate()
            .map(|(i, ctl)| (focus[i], level[i], eligible[i], ctl))
            .collect();
        respond(
            2.0,
            1.0,
            &mut tenants,
            |t| &mut t.3,
            |_, t| t.2,
            |a, b| sheds_first((a.0, a.1), (b.0, b.1)),
            "test-overrun",
        )
    }

    #[test]
    fn an_overrun_steps_down_exactly_the_picked_victim() {
        let mut ctls = controllers(3);
        let budget = 0.011;
        let victim = respond(
            budget * 1.2,
            budget,
            &mut ctls,
            |c| c,
            |i, _| i == 1,
            |_, _| true,
            "test-overrun",
        );
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
            let victim = respond(
                latency,
                budget,
                &mut ctls,
                |c| c,
                |_, _| unreachable!(),
                |_, _| unreachable!(),
                "test-overrun",
            );
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
