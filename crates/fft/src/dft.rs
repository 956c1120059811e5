//! Reference discrete Fourier transform in `O(n²)`.
//!
//! Used as the correctness oracle for the fast transforms and for tiny sizes
//! where planning overhead is not worth it. The sign convention matches the
//! engineering convention used throughout the optics crate:
//! forward `X_k = Σ x_n · e^{-2πikn/N}`, inverse with `+` and a `1/N` factor.

use crate::complex::Complex64;

/// Computes the forward DFT of `input`, returning a new vector.
///
/// # Examples
///
/// ```
/// use holoar_fft::{dft, Complex64};
/// // A constant signal transforms to a single DC bin.
/// let x = vec![Complex64::ONE; 4];
/// let spectrum = dft::forward(&x);
/// assert!((spectrum[0].re - 4.0).abs() < 1e-12);
/// assert!(spectrum[1].norm() < 1e-12);
/// ```
// holoar-lint: allow(unreached, reason = "test oracle: fast_matches_reference in fft tests/properties.rs and the mixed_radix, bluestein and plan unit tests check the fast transforms against this O(n^2) DFT")
pub fn forward(input: &[Complex64]) -> Vec<Complex64> {
    transform(input, -1.0)
}

/// Computes the inverse DFT of `input` (including the `1/N` normalization),
/// returning a new vector.
///
/// # Examples
///
/// ```
/// use holoar_fft::{dft, Complex64};
/// let x = vec![Complex64::new(1.0, 0.5), Complex64::new(-2.0, 0.0)];
/// let back = dft::inverse(&dft::forward(&x));
/// assert!((back[0] - x[0]).norm() < 1e-12);
/// ```
// holoar-lint: allow(unreached, reason = "test oracle: the mixed_radix and bluestein unit tests check the fast inverses against this O(n^2) DFT")
pub fn inverse(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let mut out = transform(input, 1.0);
    if n > 0 {
        let k = 1.0 / n as f64;
        for v in &mut out {
            *v = v.scale(k);
        }
    }
    out
}

// holoar-lint: allow(unreached, reason = "test oracle: body of dft::forward and dft::inverse, kept for the fft tests named there")
fn transform(input: &[Complex64], sign: f64) -> Vec<Complex64> {
    let n = input.len();
    let mut out = vec![Complex64::ZERO; n];
    if n == 0 {
        return out;
    }
    let base = sign * 2.0 * std::f64::consts::PI / n as f64;
    for (k, out_k) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            // (k * j) % n keeps the angle small for numerical stability on
            // long inputs.
            let angle = base * ((k * j) % n) as f64;
            acc += x * Complex64::cis(angle);
        }
        *out_k = acc;
    }
    out
}

/// `‖a − b‖₂ / ‖b‖₂`, the rounding-level error measure of the oracle tests.
#[cfg(test)]
pub(crate) fn relative_l2(a: &[Complex64], b: &[Complex64]) -> f64 {
    let err: f64 = a.iter().zip(b).map(|(x, y)| (*x - *y).norm_sqr()).sum();
    let scale: f64 = b.iter().map(|z| z.norm_sqr()).sum();
    (err / scale).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        assert!(forward(&[]).is_empty());
        assert!(inverse(&[]).is_empty());
    }

    #[test]
    fn single_element_is_identity() {
        let x = [Complex64::new(2.0, -3.0)];
        assert_eq!(forward(&x)[0], x[0]);
        assert_eq!(inverse(&x)[0], x[0]);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        for bin in forward(&x) {
            assert!((bin - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn shifted_impulse_has_linear_phase() {
        let n = 16;
        let mut x = vec![Complex64::ZERO; n];
        x[1] = Complex64::ONE;
        let spec = forward(&x);
        for (k, bin) in spec.iter().enumerate() {
            let want = Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
            assert!((*bin - want).norm() < 1e-10);
        }
    }

    #[test]
    fn roundtrip_recovers_signal() {
        let x: Vec<Complex64> = (0..13)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let back = inverse(&forward(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((*a - *b).norm() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_identity() {
        let x: Vec<Complex64> =
            (0..10).map(|i| Complex64::new(i as f64, -(i as f64) * 0.3)).collect();
        let spec = forward(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }
}
