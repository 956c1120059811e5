//! A small deterministic RNG (xoshiro256++) used by every synthetic sensor.
//!
//! The substituted datasets must be reproducible byte-for-byte across runs
//! and platforms, so the sensor crate carries its own generator rather than
//! depending on an external crate's stability guarantees.

/// Deterministic xoshiro256++ generator.
///
/// # Examples
///
/// ```
/// use holoar_sensors::rng::Rng;
/// let mut a = Rng::seeded(42);
/// let mut b = Rng::seeded(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed (expanded with splitmix64).
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        // The scrambler works on locals so the state updates stay free of
        // slice-index sites (the generator feeds fault injection on the
        // serving path, which must be panic-free end to end).
        let [mut s0, mut s1, mut s2, mut s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// A normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.normal()
    }

    /// An exponential sample with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * self.uniform().max(f64::MIN_POSITIVE).ln()
    }

    /// A Bernoulli sample with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.uniform() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = (0..5).map({ let mut r = Rng::seeded(7); move |_| r.next_u64() }).collect();
        let b: Vec<u64> = (0..5).map({ let mut r = Rng::seeded(7); move |_| r.next_u64() }).collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..5).map({ let mut r = Rng::seeded(8); move |_| r.next_u64() }).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_is_in_unit_interval_with_sane_mean() {
        let mut r = Rng::seeded(1);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.uniform();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seeded(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::seeded(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn chance_frequency() {
        let mut r = Rng::seeded(4);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.02);
    }
}
