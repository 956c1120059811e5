//! Replay-driven load generation for the fleet: seeded arrivals,
//! departures and diurnal ramps.
//!
//! The generator is *replay-driven* in the `sensors::trace` sense: the
//! whole schedule is a pure function of `(LoadConfig, frames)`, computed up
//! front and replayed by the fleet loop, so reruns — and any shuffling of
//! how the schedule is handed over — are bit-identical. Every session draws
//! its arrival and lifetime from its own SplitMix64-salted RNG stream
//! (exactly the per-session salting [`SessionSpec::fleet`] uses for sensor
//! randomness), so adding a session never reshuffles another's timing.

use holoar_sensors::rng::Rng;

use crate::session::SessionSpec;

/// Fraction of the run over which arrivals ramp in. The arrival density
/// rises linearly across the ramp (the morning side of a diurnal curve):
/// few sessions early, most near the ramp's end.
pub const RAMP_FRACTION: f64 = 0.4;

/// Mean session lifetime as a fraction of the run. Lifetimes are
/// exponential, so some sessions leave mid-run (departures) and, at a mean
/// of the full run length, most outlive it.
pub const LIFETIME_FRACTION: f64 = 1.0;

/// Shape of the offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Total sessions offered over the run.
    pub sessions: u32,
    /// Master seed for session identity and the arrival/lifetime draws.
    pub seed: u64,
}

impl LoadConfig {
    /// The diurnal load of `sessions` sessions: arrivals ramp over the
    /// first [`RAMP_FRACTION`] of the run, with a mean lifetime of
    /// [`LIFETIME_FRACTION`] of it.
    pub fn diurnal(sessions: u32, seed: u64) -> Self {
        LoadConfig { sessions, seed }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.sessions == 0 {
            return Err("load needs at least one session".into());
        }
        Ok(())
    }
}

/// One session's scheduled lifetime: who it is, when it arrives, and the
/// first tick it is gone (`depart` past the run end means it never leaves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionPlan {
    /// Session identity (video, sensor seed) — the same round-robin fleet
    /// identity single-device serving uses.
    pub spec: SessionSpec,
    /// Tick the session requests admission.
    pub arrive: u64,
    /// First tick the session is gone (departure processed before serving).
    pub depart: u64,
}

/// Generates the full arrival/departure schedule for a `frames`-tick run,
/// sorted by `(arrive, id)`. Pure function of `(config, frames)`.
///
/// # Errors
///
/// Returns the configuration's validation error.
pub fn schedule(config: &LoadConfig, frames: u64) -> Result<Vec<SessionPlan>, String> {
    config.validate()?;
    let specs = SessionSpec::fleet(config.sessions, config.seed);
    let ramp_end = (frames as f64 * RAMP_FRACTION).max(1.0);
    let mean_life = (frames as f64 * LIFETIME_FRACTION).max(1.0);
    let mut plans = Vec::with_capacity(specs.len());
    for spec in specs {
        // Per-session stream, salted independently of the sensor seed so
        // load timing and content noise stay decorrelated.
        let mut rng = Rng::seeded(
            config
                .seed
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(u64::from(spec.id).wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        // Inverse-CDF of a linearly rising density over [0, ramp_end):
        // sqrt biases arrivals toward the ramp's end — the diurnal swell.
        let arrive = ((ramp_end * rng.uniform().sqrt()) as u64).min(frames.saturating_sub(1));
        let lifetime = rng.exponential(mean_life).max(1.0);
        let depart = arrive.saturating_add(lifetime as u64).max(arrive + 1);
        plans.push(SessionPlan { spec, arrive, depart });
    }
    plans.sort_by_key(|p| (p.arrive, p.spec.id));
    Ok(plans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_and_sorted() {
        let cfg = LoadConfig::diurnal(48, 42);
        let a = schedule(&cfg, 150).unwrap();
        let b = schedule(&cfg, 150).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| (w[0].arrive, w[0].spec.id) <= (w[1].arrive, w[1].spec.id)));
        assert_eq!(a.len(), 48);
        assert!(a.iter().all(|p| p.depart > p.arrive));
    }

    #[test]
    fn arrivals_ramp_diurnally_and_some_sessions_churn() {
        let cfg = LoadConfig::diurnal(200, 7);
        let frames = 300u64;
        let plans = schedule(&cfg, frames).unwrap();
        let ramp_end = (frames as f64 * RAMP_FRACTION) as u64;
        assert!(plans.iter().all(|p| p.arrive < ramp_end + 1));
        // Rising density: the second half of the ramp holds clearly more
        // arrivals than the first.
        let early = plans.iter().filter(|p| p.arrive < ramp_end / 2).count();
        let late = plans.len() - early;
        assert!(late > early, "diurnal ramp must back-load arrivals ({early} vs {late})");
        // Exponential lifetimes: some depart mid-run, some outlive it.
        let churned = plans.iter().filter(|p| p.depart < frames).count();
        assert!(churned > 0, "expected some mid-run departures");
        assert!(churned < plans.len(), "expected some sessions to outlive the run");
    }

    #[test]
    fn per_session_streams_are_independent_of_population_size() {
        let small = schedule(&LoadConfig::diurnal(8, 42), 150).unwrap();
        let large = schedule(&LoadConfig::diurnal(16, 42), 150).unwrap();
        for p in &small {
            let twin = large.iter().find(|q| q.spec.id == p.spec.id).unwrap();
            assert_eq!((twin.arrive, twin.depart), (p.arrive, p.depart), "session {}", p.spec.id);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(schedule(&LoadConfig::diurnal(0, 1), 10).is_err());
    }
}
