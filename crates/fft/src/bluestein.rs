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
//!
//! Generic over scalar precision; chirp angles are always evaluated in `f64`
//! and narrowed (see [`crate::real`]), and the per-thread convolution
//! workspace is per-precision so f32 and f64 transforms never share buffers.

use crate::complex::Complex;
use crate::mixed_radix::MixedRadixPlan;
use crate::real::Real;

/// Precomputed state for arbitrary-length transforms of one fixed size.
#[derive(Debug, Clone)]
pub struct BluesteinPlan<T: Real = f64> {
    n: usize,
    /// Chirp `e^{-iπk²/n}` for the forward direction, `k < n`.
    chirp: Vec<Complex<T>>,
    /// FFT of the zero-padded conjugate chirp (forward direction).
    kernel_fft: Vec<Complex<T>>,
    inner: MixedRadixPlan<T>,
}

impl<T: Real> BluesteinPlan<T> {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "bluestein plan requires a non-zero length");
        let m = (2 * n - 1).next_power_of_two();
        let inner: MixedRadixPlan<T> = MixedRadixPlan::new(m);
        let mut chirp = Vec::with_capacity(n);
        for k in 0..n {
            // Reduce k² mod 2n before converting to angle to avoid precision
            // loss for large n.
            let kk = (k * k) % (2 * n);
            chirp.push(Complex::<T>::cis_f64(-std::f64::consts::PI * kk as f64 / n as f64));
        }
        let mut kernel = vec![Complex::<T>::ZERO; m];
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
    pub fn forward(&self, buf: &mut [Complex<T>]) {
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
    pub fn inverse(&self, buf: &mut [Complex<T>]) {
        assert_eq!(buf.len(), self.n, "buffer length {} does not match plan length {}", buf.len(), self.n);
        self.run(buf, true);
    }

    fn run(&self, buf: &mut [Complex<T>], invert: bool) {
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
        T::with_conv_work(|work| {
            if work.len() < 2 * m {
                work.resize(2 * m, Complex::ZERO);
            }
            let (conv, scratch) = work.split_at_mut(m);
            for k in 0..n {
                conv[k] = buf[k] * self.chirp[k];
            }
            conv[n..].fill(Complex::ZERO);
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
            let s = T::from_usize(n).recip();
            for v in buf.iter_mut() {
                *v = v.conj().scale(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{Complex32, Complex64};
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
        let plan: BluesteinPlan<f32> = BluesteinPlan::new(17);
        let mut buf = vec![Complex32::ONE; 17];
        plan.forward(&mut buf);
        let before = f32::with_conv_work(|w| (w.as_ptr() as usize, w.len()));
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        let after = f32::with_conv_work(|w| (w.as_ptr() as usize, w.len()));
        assert_eq!(before, after);
        // The convolution buffer and the inner plan's ping-pong buffer.
        assert!(before.1 >= 2 * 64);
    }

    #[test]
    #[should_panic(expected = "non-zero length")]
    fn rejects_zero_length() {
        BluesteinPlan::<f64>::new(0);
    }

    #[test]
    fn large_prime_size_is_accurate() {
        let n = 509; // prime
        let x = signal(n);
        let mut fast = x.clone();
        BluesteinPlan::new(n).forward(&mut fast);
        assert_close(&fast, &dft::forward(&x), 1e-6);
    }

    #[test]
    fn f32_plan_tracks_f64_reference_on_awkward_sizes() {
        for n in [3usize, 17, 48, 101] {
            let x = signal(n);
            let mut narrow: Vec<Complex32> = x.iter().map(|z| z.to_c32()).collect();
            BluesteinPlan::new(n).forward(&mut narrow);
            let wide = dft::forward(&x);
            for (a, b) in narrow.iter().zip(&wide) {
                assert!(
                    (a.to_c64() - *b).norm() < 2e-3 * (n as f64).max(1.0),
                    "n={n}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn f32_inverse_roundtrip() {
        let n = 48; // planned as mixed-radix, but Bluestein must stay exact here
        let plan: BluesteinPlan<f32> = BluesteinPlan::new(n);
        let x: Vec<Complex32> = signal(n).iter().map(|z| z.to_c32()).collect();
        let mut buf = x.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-3);
        }
    }
}
