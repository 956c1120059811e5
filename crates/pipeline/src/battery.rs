//! Battery-life model: translating average power into runtime.
//!
//! §2.1 motivates the work with battery life "as short as just 1 hour" on a
//! smartphone running a simple AR app; §5.3's 73% energy savings directly
//! extends runtime. This model converts a capacity and average power draw
//! into hours of operation.

/// A headset battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Usable capacity in watt-hours.
    pub capacity_wh: f64,
}

impl Battery {
    /// A HoloLens-2-class battery (~16.5 Wh usable).
    pub fn headset() -> Self {
        Battery { capacity_wh: 16.5 }
    }

    /// Runtime in hours at a sustained average power draw.
    ///
    /// # Panics
    ///
    /// Panics if `avg_power_watts` is not positive.
    pub fn runtime_hours(&self, avg_power_watts: f64) -> f64 {
        assert!(avg_power_watts > 0.0, "average power must be positive");
        self.capacity_wh / avg_power_watts
    }

    /// Runtime improvement factor when moving from `baseline_watts` to
    /// `optimized_watts`.
    ///
    /// # Panics
    ///
    /// Panics if either power is not positive.
    pub fn runtime_gain(&self, baseline_watts: f64, optimized_watts: f64) -> f64 {
        self.runtime_hours(optimized_watts) / self.runtime_hours(baseline_watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_scales_inversely_with_power() {
        let b = Battery::headset();
        let at4w = b.runtime_hours(4.4);
        let at3w = b.runtime_hours(3.1);
        assert!(at3w > at4w);
        assert!((b.runtime_gain(4.4, 3.1) - 4.4 / 3.1).abs() < 1e-12);
    }

    #[test]
    fn headset_battery_gives_few_hours_at_baseline_power() {
        // ~16.5 Wh at the baseline's ~4.4 W: under 4 hours, matching the
        // short-battery-life motivation.
        let hours = Battery::headset().runtime_hours(4.4);
        assert!(hours > 2.0 && hours < 5.0, "{hours} h");
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn bad_power_panics() {
        Battery::headset().runtime_hours(0.0);
    }
}
