//! Live session migration: records, signals, and the victim policy.
//!
//! A migration moves a session's serving state to another device mid-run.
//! It is never free: the fleet charges the state-transfer blackout twice —
//! a fixed latency surcharge on the first frame served from the new host
//! ([`MIGRATION_COST`]), and a one-level degradation step
//! recorded through
//! [`DegradationController::record_migration`](holoar_core::DegradationController::record_migration),
//! so every migration shows up as a signal-attributed transition in the
//! session's ladder history as well as in the fleet's own event log.

/// Overload-migration trigger: a device whose fresh load this tick exceeds
/// `MIGRATE_FACTOR × budget` sheds its newest tenant (at most one per
/// device per tick). Above the admission headroom
/// ([`OVERLOAD_FACTOR`](crate::admission::OVERLOAD_FACTOR)), so admission
/// keeps a working band.
pub const MIGRATE_FACTOR: f64 = 2.5;

/// State-transfer blackout charged to a migrated session's first frame on
/// the new host, seconds.
pub const MIGRATION_COST: f64 = 0.004;

/// Signal attached to migrations forced by a device death.
pub const SIG_DEVICE_KILL: &str = "device-kill";

/// Signal attached to migrations that drain an overloaded device.
pub const SIG_DEVICE_OVERLOAD: &str = "device-overload";

/// One recorded migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Tick the session moved.
    pub tick: u64,
    /// Session id.
    pub session: u32,
    /// Device the session left.
    pub from: usize,
    /// Device the session landed on.
    pub to: usize,
    /// Why — [`SIG_DEVICE_KILL`] or [`SIG_DEVICE_OVERLOAD`]; the same
    /// signal annotates the session's degradation transition.
    pub signal: &'static str,
}

/// Picks the session an overloaded device sheds first: the
/// newest-arrived hosted session (ties to the higher id — the latest
/// admission). Last-in-first-out keeps long-lived sessions sticky, so
/// repeated overloads churn the same recent arrivals instead of spreading
/// blackouts across the whole tenancy. `sessions` holds
/// `(session_id, arrival_tick)` pairs; returns `None` when the device
/// hosts at most one session (migrating the last tenant would just move
/// the overload).
pub fn pick_overload_victim(sessions: &[(u32, u64)]) -> Option<u32> {
    if sessions.len() < 2 {
        return None;
    }
    sessions.iter().max_by_key(|&&(id, arrived)| (arrived, id)).map(|&(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newest_arrival_is_shed_first() {
        assert_eq!(pick_overload_victim(&[(3, 10), (7, 42), (1, 42), (9, 5)]), Some(7));
        assert_eq!(pick_overload_victim(&[(3, 10), (1, 42)]), Some(1));
    }

    #[test]
    fn a_lone_tenant_is_never_shed() {
        assert_eq!(pick_overload_victim(&[(3, 10)]), None);
        assert_eq!(pick_overload_victim(&[]), None);
    }
}
