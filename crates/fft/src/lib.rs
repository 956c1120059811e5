//! From-scratch FFT substrate for the HoloAR reproduction.
//!
//! The holographic pipeline is built on discrete Fourier transforms: the
//! angular-spectrum propagation between the hologram plane and each depth
//! plane is two 2-D FFTs around a transfer-function multiply. The workspace
//! avoids external numeric dependencies, so this crate supplies everything the
//! optics layer needs:
//!
//! * [`Complex64`] — complex arithmetic over `f64`, the one precision the
//!   whole stack computes in,
//! * [`dft`] — an `O(n²)` reference transform used as the test oracle,
//! * [`FftPlanner`]/[`FftPlan`] — cached fast transforms (a self-sorting
//!   Stockham mixed-radix plan with radix-4/2/3/5 butterflies for every
//!   2·3·5-smooth length, powers of two included; Bluestein chirp-z, whose
//!   convolution runs through that same plan, for lengths with a prime
//!   factor above 5), with per-stage contiguous twiddle tables precomputed
//!   at plan time,
//! * [`Fft2d`], [`fftshift`], [`ifftshift`] — separable 2-D transforms
//!   whose column pass runs batched Stockham passes over all columns
//!   (a cache-blocked transpose only for Bluestein column lengths), and a
//!   packed real-input row kernel that [`Fft2d::forward`] auto-dispatches
//!   to on amplitude planes. Sparse depth planes pay only for their
//!   non-zero rows forward, and [`Fft2d::inverse_window`] inverts a window
//!   of columns.
//!
//! # Examples
//!
//! ```
//! use holoar_fft::{Fft2d, Complex64};
//!
//! // Propagation-style usage: transform, filter, transform back.
//! let fft = Fft2d::new(8, 8);
//! let mut field = vec![Complex64::ONE; 64];
//! fft.forward(&mut field);
//! for bin in field.iter_mut().skip(1) {
//!     *bin = Complex64::ZERO; // keep only DC
//! }
//! fft.inverse(&mut field);
//! assert!((field[10] - Complex64::ONE).norm() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod bluestein;
pub mod complex;
pub mod context;
pub mod dft;
pub mod fft2d;
pub mod mixed_radix;
pub mod parallel;
pub mod plan;

pub use bluestein::BluesteinPlan;
pub use complex::Complex64;
pub use context::{ExecutionContext, ExecutionContextBuilder, Precision};
pub use fft2d::{fftshift, ifftshift, transpose_into, Fft2d};
pub use mixed_radix::MixedRadixPlan;
pub use parallel::{lock_unpoisoned, Parallelism, ScratchArena};
pub use plan::{FftPlan, FftPlanner};
