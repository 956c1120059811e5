//! IMU synthesis: smooth head-motion trajectories and their noisy
//! gyroscope observations.
//!
//! The pose estimator ([`crate::pose`]) consumes these samples the way
//! Kimera-VIO consumes a real IMU stream. Head motion follows a smoothed
//! random walk in yaw/pitch — the "user lifts her head a bit" dynamics that
//! moves the viewing window between frames (Fig 5a).

use crate::angles::{deg, AngularPoint};
use crate::rng::Rng;

/// True head orientation plus the noisy angular-rate observation for one
/// sample instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuSample {
    /// Sample time, seconds.
    pub time: f64,
    /// Ground-truth head orientation.
    pub true_orientation: AngularPoint,
    /// Observed angular rate (yaw, pitch), rad/s, with gyro noise.
    pub angular_rate: (f64, f64),
}

/// Generates a continuous head-motion trajectory and IMU observations.
///
/// # Examples
///
/// ```
/// use holoar_sensors::imu::HeadMotion;
///
/// let mut imu = HeadMotion::new(200.0, 4);
/// let s0 = imu.sample();
/// let s1 = imu.sample();
/// assert!(s1.time > s0.time);
/// ```
#[derive(Debug, Clone)]
pub struct HeadMotion {
    rng: Rng,
    period: f64,
    time: f64,
    orientation: AngularPoint,
    velocity: (f64, f64),
    gyro_noise_sigma: f64,
}

impl HeadMotion {
    /// Creates a trajectory sampled at `rate_hz` (IMUs typically run
    /// 200–1000 Hz).
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive and finite.
    pub fn new(rate_hz: f64, seed: u64) -> Self {
        assert!(rate_hz > 0.0 && rate_hz.is_finite(), "IMU rate must be positive");
        HeadMotion {
            rng: Rng::seeded(seed.wrapping_mul(0x1331_11EB)),
            period: 1.0 / rate_hz,
            time: 0.0,
            orientation: AngularPoint::CENTER,
            velocity: (0.0, 0.0),
            gyro_noise_sigma: deg(0.5), // rad/s noise density, MEMS-class
        }
    }

    /// Advances one sample period and returns the observation.
    pub fn sample(&mut self) -> ImuSample {
        // Ornstein–Uhlenbeck-style velocity: smooth, mean-reverting head
        // motion bounded to a comfortable range.
        let restoring = 0.4;
        let agitation = deg(18.0); // rad/s² drive
        self.velocity.0 += self.period
            * (-restoring * self.velocity.0 - 0.8 * self.orientation.azimuth
                + self.rng.normal_with(0.0, agitation));
        self.velocity.1 += self.period
            * (-restoring * self.velocity.1 - 0.8 * self.orientation.elevation
                + self.rng.normal_with(0.0, agitation * 0.6));
        self.orientation = self
            .orientation
            .offset(self.velocity.0 * self.period, self.velocity.1 * self.period);
        self.time += self.period;
        ImuSample {
            time: self.time,
            true_orientation: self.orientation,
            angular_rate: (
                self.velocity.0 + self.rng.normal_with(0.0, self.gyro_noise_sigma),
                self.velocity.1 + self.rng.normal_with(0.0, self.gyro_noise_sigma),
            ),
        }
    }

    /// Collects `n` consecutive samples.
    pub fn samples(&mut self, n: usize) -> Vec<ImuSample> {
        (0..n).map(|_| self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = HeadMotion::new(200.0, 1);
        let mut b = HeadMotion::new(200.0, 1);
        assert_eq!(a.samples(50), b.samples(50));
    }

    #[test]
    fn time_advances_uniformly() {
        let mut imu = HeadMotion::new(100.0, 2);
        let s = imu.samples(10);
        for pair in s.windows(2) {
            assert!((pair[1].time - pair[0].time - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn motion_is_smooth() {
        let mut imu = HeadMotion::new(200.0, 3);
        let s = imu.samples(2000);
        for pair in s.windows(2) {
            let step = pair[0].true_orientation.distance_to(pair[1].true_orientation);
            assert!(step < deg(0.5), "head jumped {step} rad in 5 ms");
        }
    }

    #[test]
    fn motion_stays_bounded() {
        let mut imu = HeadMotion::new(200.0, 4);
        for s in imu.samples(10_000) {
            assert!(
                s.true_orientation.distance_to(AngularPoint::CENTER) < deg(60.0),
                "head wandered beyond a plausible range"
            );
        }
    }

    #[test]
    fn gyro_observation_tracks_velocity_noisily() {
        let mut imu = HeadMotion::new(200.0, 5);
        let s = imu.samples(4000);
        // The observation should correlate with true motion: integrate the
        // observed rates and compare to the true displacement.
        let integrated: f64 = s.iter().map(|x| x.angular_rate.0 * (1.0 / 200.0)).sum();
        let truth = s.last().unwrap().true_orientation.azimuth;
        assert!((integrated - truth).abs() < deg(5.0), "integrated {integrated} vs {truth}");
    }
}
