//! Small numeric helpers: quantiles, medians and a bit-exact digest.

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Smoothed quantile `q`: the mean of the samples ranked within `band` of
/// `q` (0 when empty). Frame times cluster by how many objects and planes
/// a frame synthesizes, and a plain quantile jumps between clusters when
/// the seed's content shifts their sizes a little; the band mean moves
/// with them smoothly.
pub fn band_quantile(samples: &[f64], q: f64, band: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = (sorted.len() - 1) as f64;
    let rank = |p: f64| (p.clamp(0.0, 1.0) * last).round() as usize;
    mean(&sorted[rank(q - band)..=rank(q + band)])
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over 64-bit words: a digest of exact bit patterns, used to
/// compare modeled outputs between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one byte into the digest.
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Folds the exact bits of a float.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Folds formatted text byte by byte, so `write!(digest, "{report:?}")`
/// digests a report without building its text.
impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.byte(b);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn band_quantiles_average_the_band() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(band_quantile(&xs, 0.5, 0.05), 50.0);
        assert_eq!(band_quantile(&xs, 0.95, 0.1), 92.5);
        assert_eq!(band_quantile(&[3.0], 0.9, 0.05), 3.0);
        assert_eq!(band_quantile(&[], 0.5, 0.05), 0.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.float(1.0);
        b.float(1.0 + f64::EPSILON);
        assert_ne!(a, b);
    }
}
