//! The scalar-precision abstraction behind the f32/f64 dual compute path.
//!
//! HoloAR's deadline math only works if the hot path can trade precision for
//! throughput: half-width samples double the useful memory bandwidth and
//! SIMD lane count of every transform. [`Real`] is the small trait that lets
//! the FFT substrate instantiate at both widths from one implementation:
//! `f64` remains the bit-identity reference the rest of the workspace
//! verifies against, `f32` is the throughput path gated by the quality
//! experiment in `repro parallel`.
//!
//! Besides arithmetic, the trait carries the three pieces of per-precision
//! *plumbing* the generic code needs a home for: the process-wide plan
//! cache, the 1-D transform workspace (Bluestein's convolution buffer and
//! the mixed-radix ping-pong buffer), and the scratch-arena pools —
//! each precision gets its own instance so an f32 run never evicts or
//! aliases f64 state.
//!
//! Trig tables (twiddles, chirps) are always computed in `f64` and then
//! narrowed via [`Real::from_f64`], so the f32 tables carry correctly
//! rounded values instead of accumulating single-precision argument error.

use std::collections::HashMap;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::{Mutex, OnceLock};

use crate::complex::Complex;
use crate::parallel::ScratchArena;
use crate::plan::FftPlan;

/// A floating-point scalar the FFT/optics stack can be instantiated over.
///
/// Implemented for `f64` (the bit-identity reference) and `f32` (the
/// throughput path). The trait is deliberately closed: the two
/// implementations live here and nothing else in the workspace is expected
/// to implement it.
pub trait Real:
    Copy
    + Clone
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// One half — the real-FFT unpack constant.
    const HALF: Self;

    /// Exact narrowing (or identity) conversion from `f64`. All
    /// trigonometric tables are computed in `f64` and funneled through this.
    fn from_f64(v: f64) -> Self;
    /// Widening (or identity) conversion to `f64` for reporting and
    /// cross-precision comparisons.
    fn to_f64(self) -> f64;
    /// Conversion from a (small) count, used for `1/n` normalizations.
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }
    /// Simultaneous sine and cosine.
    fn sin_cos(self) -> (Self, Self);
    /// `sqrt(self² + other²)` without intermediate overflow.
    fn hypot(self, other: Self) -> Self;
    /// Four-quadrant arctangent.
    fn atan2(self, other: Self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Reciprocal `1/self`.
    fn recip(self) -> Self;
    /// Whether the value is neither infinite nor NaN.
    fn is_finite(self) -> bool;

    /// The process-wide FFT-plan cache for this precision (see
    /// [`crate::plan::FftPlanner`]). Separate per precision so f32 and f64
    /// tables never alias one cache entry.
    fn global_plan_cache() -> &'static Mutex<HashMap<usize, FftPlan<Self>>>;

    /// Runs `f` with this thread's 1-D transform workspace for this
    /// precision: the ping-pong buffer of [`crate::mixed_radix`], or for
    /// [`crate::bluestein`] the convolution buffer followed by its inner
    /// plan's ping-pong buffer. Bluestein borrows it once and hands the
    /// second half to the inner plan explicitly, so the borrow never
    /// re-enters. Thread-local so shared plans stay immutable across
    /// workers.
    fn with_conv_work<R>(f: impl FnOnce(&mut Vec<Complex<Self>>) -> R) -> R;

    /// Checks a zeroed scratch buffer of `len` samples out of `arena`'s
    /// pool for this precision.
    fn arena_take(arena: &ScratchArena, len: usize) -> Vec<Complex<Self>>;

    /// Returns a scratch buffer to `arena`'s pool for this precision.
    fn arena_give(arena: &ScratchArena, buf: Vec<Complex<Self>>);
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const HALF: Self = 0.5;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn sin_cos(self) -> (Self, Self) {
        f64::sin_cos(self)
    }
    #[inline]
    fn hypot(self, other: Self) -> Self {
        f64::hypot(self, other)
    }
    #[inline]
    fn atan2(self, other: Self) -> Self {
        f64::atan2(self, other)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn recip(self) -> Self {
        f64::recip(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    fn global_plan_cache() -> &'static Mutex<HashMap<usize, FftPlan<f64>>> {
        static CACHE: OnceLock<Mutex<HashMap<usize, FftPlan<f64>>>> = OnceLock::new();
        CACHE.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn with_conv_work<R>(f: impl FnOnce(&mut Vec<Complex<f64>>) -> R) -> R {
        thread_local! {
            static WORK: std::cell::RefCell<Vec<Complex<f64>>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        WORK.with(|cell| f(&mut cell.borrow_mut()))
    }

    fn arena_take(arena: &ScratchArena, len: usize) -> Vec<Complex<f64>> {
        arena.take(len)
    }

    fn arena_give(arena: &ScratchArena, buf: Vec<Complex<f64>>) {
        arena.give(buf);
    }
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const HALF: Self = 0.5;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline]
    fn sin_cos(self) -> (Self, Self) {
        f32::sin_cos(self)
    }
    #[inline]
    fn hypot(self, other: Self) -> Self {
        f32::hypot(self, other)
    }
    #[inline]
    fn atan2(self, other: Self) -> Self {
        f32::atan2(self, other)
    }
    #[inline]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn recip(self) -> Self {
        f32::recip(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    fn global_plan_cache() -> &'static Mutex<HashMap<usize, FftPlan<f32>>> {
        static CACHE: OnceLock<Mutex<HashMap<usize, FftPlan<f32>>>> = OnceLock::new();
        CACHE.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn with_conv_work<R>(f: impl FnOnce(&mut Vec<Complex<f32>>) -> R) -> R {
        thread_local! {
            static WORK: std::cell::RefCell<Vec<Complex<f32>>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        WORK.with(|cell| f(&mut cell.borrow_mut()))
    }

    fn arena_take(arena: &ScratchArena, len: usize) -> Vec<Complex<f32>> {
        arena.take32(len)
    }

    fn arena_give(arena: &ScratchArena, buf: Vec<Complex<f32>>) {
        arena.give32(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe<T: Real>() -> (f64, f64, f64) {
        let (s, c) = T::from_f64(0.5).sin_cos();
        let h = T::from_f64(3.0).hypot(T::from_f64(4.0));
        (s.to_f64(), c.to_f64(), h.to_f64())
    }

    #[test]
    fn both_precisions_agree_on_basic_math() {
        let (s64, c64, h64) = probe::<f64>();
        let (s32, c32, h32) = probe::<f32>();
        assert!((s64 - s32).abs() < 1e-6);
        assert!((c64 - c32).abs() < 1e-6);
        assert_eq!(h64, 5.0);
        assert_eq!(h32, 5.0);
    }

    #[test]
    fn narrowing_conversion_rounds() {
        let narrowed = f32::from_f64(std::f64::consts::PI);
        assert_eq!(narrowed, std::f32::consts::PI);
        assert_eq!(f64::from_f64(std::f64::consts::PI), std::f64::consts::PI);
    }

    #[test]
    fn plan_caches_are_distinct_per_precision() {
        let p64: *const _ = f64::global_plan_cache();
        let p32: *const _ = f32::global_plan_cache();
        assert_ne!(p64 as usize, p32 as usize);
    }

    #[test]
    fn conv_work_is_reused_within_a_thread() {
        let ptr = f32::with_conv_work(|w| {
            w.resize(16, Complex::<f32>::ZERO);
            w.as_ptr() as usize
        });
        let again = f32::with_conv_work(|w| w.as_ptr() as usize);
        assert_eq!(ptr, again);
    }
}
