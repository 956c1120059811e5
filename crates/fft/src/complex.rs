//! A minimal complex-number type for wave-optics computations.
//!
//! The workspace deliberately avoids external numeric crates, so this module
//! provides the small slice of complex arithmetic the holographic pipeline
//! needs: the four ring operations, conjugation, polar conversions and the
//! complex exponential, all over `f64`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use holoar_fft::Complex64;
///
/// let i = Complex64::I;
/// assert_eq!(i * i, Complex64::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    ///
    /// # Examples
    ///
    /// ```
    /// use holoar_fft::Complex64;
    /// let z = Complex64::new(3.0, -4.0);
    /// assert_eq!(z.norm(), 5.0);
    /// ```
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a complex number from polar components `r·e^{iθ}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use holoar_fft::Complex64;
    /// let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-12);
    /// assert!((z.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex64 { re: r * c, im: r * s }
    }

    /// `e^{iθ}`: a unit-magnitude phasor. This is the workhorse of every
    /// propagation kernel in the optics crate.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// The complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 { re: self.re, im: -self.im }
    }

    /// The modulus `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The squared modulus `|z|²` — the optical *intensity* of a field sample.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The complex exponential `e^z`.
    ///
    /// # Examples
    ///
    /// ```
    /// use holoar_fft::Complex64;
    /// let z = Complex64::new(0.0, std::f64::consts::PI).exp();
    /// assert!((z.re + 1.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self::from_polar(r, self.im)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64 { re: self.re * k, im: self.im * k }
    }

    /// The multiplicative inverse `1/z`.
    ///
    /// Returns non-finite components when `z` is zero, mirroring scalar
    /// division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64 { re: self.re / d, im: -self.im / d }
    }

    /// Whether both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64 { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64 { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w computed as z·w⁻¹
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64 { re: self.re / rhs, im: self.im / rhs }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64 { re: -self.re, im: -self.im }
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).norm() < 1e-12
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex64::ZERO, Complex64::new(0.0, 0.0));
        assert_eq!(Complex64::ONE, Complex64::new(1.0, 0.0));
        assert_eq!(Complex64::I * Complex64::I, -Complex64::ONE);
        assert_eq!(Complex64::from(2.5), Complex64::new(2.5, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(3.0, 1.2);
        assert!((z.norm() - 3.0).abs() < 1e-12);
        assert!((z.arg() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        assert!(close(a + b, Complex64::new(-2.0, 2.5)));
        assert!(close(a - b, Complex64::new(4.0, 1.5)));
        assert!(close(a * b, Complex64::new(-4.0, -5.5)));
        assert!(close((a / b) * b, a));
        assert!(close(-a, Complex64::new(-1.0, -2.0)));
    }

    #[test]
    fn assign_ops_match_binary_ops() {
        let a = Complex64::new(0.3, -0.7);
        let b = Complex64::new(1.5, 2.0);
        let mut c = a;
        c += b;
        assert!(close(c, a + b));
        c -= b;
        assert!(close(c, a));
        c *= b;
        assert!(close(c, a * b));
        c /= b;
        assert!(close(c, a));
    }

    #[test]
    fn conj_and_norms() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.conj(), Complex64::new(3.0, 4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
        assert!(close(z * z.conj(), Complex64::from(25.0)));
    }

    #[test]
    fn exp_matches_euler() {
        let theta = 0.7;
        assert!(close(Complex64::new(0.0, theta).exp(), Complex64::cis(theta)));
        // e^{a+bi} = e^a (cos b + i sin b)
        let z = Complex64::new(0.5, -1.1).exp();
        let want = Complex64::from_polar(0.5f64.exp(), -1.1);
        assert!(close(z, want));
    }

    #[test]
    fn inv_is_multiplicative_inverse() {
        let z = Complex64::new(-2.0, 7.0);
        assert!(close(z * z.inv(), Complex64::ONE));
    }

    #[test]
    fn sum_of_iterator() {
        let total: Complex64 =
            (0..4).map(|k| Complex64::new(k as f64, -(k as f64))).sum();
        assert!(close(total, Complex64::new(6.0, -6.0)));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn zero_inverse_is_not_finite() {
        assert!(!Complex64::ZERO.inv().is_finite());
        assert!(Complex64::ONE.is_finite());
    }
}
