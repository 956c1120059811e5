//! Bluestein's chirp-z algorithm: FFT of arbitrary length via a
//! power-of-two convolution.
//!
//! The planner sends every 2·3·5-smooth length — the 64×64 hologram planes,
//! Objectron's 480×640 and 1440×1920 frames, the 40×40 quality sampler — to
//! [`crate::mixed_radix`]. This path is the fallback for the remaining
//! lengths, those with a prime factor greater than 5 (7, 14, 17, 509, …).
//!
//! The identity used: `nk = (n² + k² − (k−n)²) / 2`, which rewrites the DFT as
//! a convolution of the chirp-premultiplied input with the conjugate chirp.
//! The convolution runs through a [`MixedRadixPlan`] of power-of-two length
//! `m ≥ 2n − 1`.

use crate::complex::Complex64;
use crate::mixed_radix::{with_work, MixedRadixPlan};

/// Precomputed state for arbitrary-length transforms of one fixed size.
#[derive(Debug, Clone)]
pub struct BluesteinPlan {
    n: usize,
    /// Chirp `e^{-iπk²/n}` for the forward direction, `k < n`.
    chirp: Vec<Complex64>,
    /// FFT of the zero-padded conjugate chirp (forward direction).
    kernel_fft: Vec<Complex64>,
    inner: MixedRadixPlan,
}

impl BluesteinPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "bluestein plan requires a non-zero length");
        let m = (2 * n - 1).next_power_of_two();
        let inner = MixedRadixPlan::new(m);
        let mut chirp = Vec::with_capacity(n);
        for k in 0..n {
            // Reduce k² mod 2n before converting to angle to avoid precision
            // loss for large n.
            let kk = (k * k) % (2 * n);
            chirp.push(Complex64::cis(-std::f64::consts::PI * kk as f64 / n as f64));
        }
        let mut kernel = vec![Complex64::ZERO; m];
        if let (Some(k0), Some(c0)) = (kernel.first_mut(), chirp.first()) {
            *k0 = c0.conj();
        }
        for k in 1..n {
            let c = chirp[k].conj();
            kernel[k] = c;
            kernel[m - k] = c;
        }
        inner.forward(&mut kernel);
        BluesteinPlan { n, chirp, kernel_fft: kernel, inner }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan length is zero (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward transform, in place.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn forward(&self, buf: &mut [Complex64]) {
        assert_eq!(buf.len(), self.n, "buffer length {} does not match plan length {}", buf.len(), self.n);
        self.run(buf, false);
    }

    /// Inverse transform, in place, including the `1/n` normalization.
    ///
    /// Implemented as `IDFT(x) = conj(DFT(conj(x))) / n`, which lets a single
    /// precomputed forward kernel serve both directions.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        assert_eq!(buf.len(), self.n, "buffer length {} does not match plan length {}", buf.len(), self.n);
        self.run(buf, true);
    }

    fn run(&self, buf: &mut [Complex64], invert: bool) {
        let n = self.n;
        let m = self.inner.len();
        if invert {
            for v in buf.iter_mut() {
                *v = v.conj();
            }
        }
        // One borrow of the thread workspace, split in two: the first `m`
        // samples hold the convolution, the rest are the inner plan's
        // ping-pong buffer, so the inner transform never borrows it again.
        with_work(|work| {
            if work.len() < 2 * m {
                work.resize(2 * m, Complex64::ZERO);
            }
            let (conv, scratch) = work.split_at_mut(m);
            for k in 0..n {
                conv[k] = buf[k] * self.chirp[k];
            }
            conv[n..].fill(Complex64::ZERO);
            self.inner.run(conv, scratch, false);
            for (w, k) in conv.iter_mut().zip(&self.kernel_fft) {
                *w *= *k;
            }
            self.inner.run(conv, scratch, true);
            for k in 0..n {
                buf[k] = conv[k] * self.chirp[k];
            }
        });
        if invert {
            let s = (n as f64).recip();
            for v in buf.iter_mut() {
                *v = v.conj().scale(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).norm() < tol, "{x} vs {y}");
        }
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.53).cos(), (i as f64 * 0.29).sin()))
            .collect()
    }

    #[test]
    fn matches_reference_for_awkward_sizes() {
        for n in [1usize, 2, 3, 5, 6, 7, 12, 15, 17, 31, 100, 101, 480] {
            let x = signal(n);
            let mut fast = x.clone();
            BluesteinPlan::new(n).forward(&mut fast);
            assert_close(&fast, &dft::forward(&x), 1e-7 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn matches_reference_for_power_of_two_too() {
        let n = 64;
        let x = signal(n);
        let mut fast = x.clone();
        BluesteinPlan::new(n).forward(&mut fast);
        assert_close(&fast, &dft::forward(&x), 1e-8);
    }

    #[test]
    fn inverse_roundtrip() {
        for n in [3usize, 17, 50, 243] {
            let plan = BluesteinPlan::new(n);
            let x = signal(n);
            let mut buf = x.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            assert_close(&buf, &x, 1e-8);
        }
    }

    #[test]
    fn inverse_matches_reference() {
        let n = 19;
        let x = signal(n);
        let mut fast = x.clone();
        BluesteinPlan::new(n).inverse(&mut fast);
        assert_close(&fast, &dft::inverse(&x), 1e-9);
    }

    #[test]
    fn inner_plans_with_even_and_odd_pass_counts_match_the_reference() {
        // n = 7 convolves at m = 16 (two radix-4 passes, result lands in
        // place); n = 17 at m = 64 (three passes, copied back from scratch).
        for (n, m, passes) in [(7usize, 16usize, 2usize), (17, 64, 3)] {
            let plan = BluesteinPlan::new(n);
            assert_eq!((plan.inner.len(), plan.inner.pass_count()), (m, passes));
            let x = signal(n);
            let (mut fwd, mut inv) = (x.clone(), x.clone());
            plan.forward(&mut fwd);
            plan.inverse(&mut inv);
            assert!(dft::relative_l2(&fwd, &dft::forward(&x)) <= 1e-12, "n={n}");
            assert!(dft::relative_l2(&inv, &dft::inverse(&x)) <= 1e-12, "n={n}");
        }
    }

    #[test]
    fn transforms_reuse_the_thread_workspace() {
        let plan = BluesteinPlan::new(17);
        let mut buf = vec![Complex64::ONE; 17];
        plan.forward(&mut buf);
        let before = with_work(|w| (w.as_ptr() as usize, w.len()));
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        let after = with_work(|w| (w.as_ptr() as usize, w.len()));
        assert_eq!(before, after);
        // The convolution buffer and the inner plan's ping-pong buffer.
        assert!(before.1 >= 2 * 64);
    }

    #[test]
    #[should_panic(expected = "non-zero length")]
    fn rejects_zero_length() {
        BluesteinPlan::new(0);
    }

    #[test]
    fn large_prime_size_is_accurate() {
        let n = 509; // prime
        let x = signal(n);
        let mut fast = x.clone();
        BluesteinPlan::new(n).forward(&mut fast);
        assert_close(&fast, &dft::forward(&x), 1e-6);
    }
}
