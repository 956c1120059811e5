//! Image-quality metrics for the HoloAR reproduction's quality path.
//!
//! Reconstructed hologram views are compared against the unapproximated
//! baseline with [`psnr`] (the paper's §5.4 metric), with [`mse`] as its
//! building block.
//!
//! # Examples
//!
//! ```
//! use holoar_metrics::{psnr, Image};
//!
//! let reference = Image::new(2, 2, vec![0.0, 0.5, 0.5, 1.0])?;
//! let degraded = Image::new(2, 2, vec![0.0, 0.45, 0.55, 1.0])?;
//! let db = psnr(&reference, &degraded)?;
//! assert!(db > 20.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod image;
pub mod quality;

pub use image::{BuildImageError, Image};
pub use quality::{mse, psnr, ShapeMismatchError, ACCEPTABLE_PSNR_DB};
