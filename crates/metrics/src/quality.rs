//! Image-quality metrics: MSE, PSNR and SSIM.
//!
//! The paper evaluates approximation quality with PSNR against the baseline
//! reconstruction (§5.4, Fig 10a), citing the standard definition \[21, 44\].
//! SSIM is included because the quality-sensitivity experiments benefit from
//! a structural metric as a cross-check.

use crate::image::Image;

/// Error comparing two images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeMismatchError {
    /// Shape of the first image.
    pub a: (usize, usize),
    /// Shape of the second image.
    pub b: (usize, usize),
}

impl std::fmt::Display for ShapeMismatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot compare images of shapes {}x{} and {}x{}",
            self.a.0, self.a.1, self.b.0, self.b.1
        )
    }
}

impl std::error::Error for ShapeMismatchError {}

fn check_shapes(a: &Image, b: &Image) -> Result<(), ShapeMismatchError> {
    if a.same_shape(b) {
        Ok(())
    } else {
        Err(ShapeMismatchError { a: (a.rows(), a.cols()), b: (b.rows(), b.cols()) })
    }
}

/// Mean squared error between two images.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] when shapes differ.
///
/// # Examples
///
/// ```
/// use holoar_metrics::{mse, Image};
/// let a = Image::new(1, 2, vec![0.0, 1.0])?;
/// let b = Image::new(1, 2, vec![0.0, 0.5])?;
/// assert_eq!(mse(&a, &b)?, 0.125);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn mse(a: &Image, b: &Image) -> Result<f64, ShapeMismatchError> {
    check_shapes(a, b)?;
    let sum: f64 =
        a.pixels().iter().zip(b.pixels()).map(|(x, y)| (x - y) * (x - y)).sum();
    Ok(sum / a.len() as f64)
}

/// Peak signal-to-noise ratio in decibels, using the reference image's peak
/// as the signal ceiling. Identical images yield `f64::INFINITY`.
///
/// # Errors
///
/// Returns [`ShapeMismatchError`] when shapes differ.
///
/// # Examples
///
/// ```
/// use holoar_metrics::{psnr, Image};
/// let reference = Image::new(1, 2, vec![0.0, 1.0])?;
/// assert!(psnr(&reference, &reference)?.is_infinite());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn psnr(reference: &Image, test: &Image) -> Result<f64, ShapeMismatchError> {
    let err = mse(reference, test)?;
    if err == 0.0 {
        return Ok(f64::INFINITY);
    }
    let peak = reference.max_value().max(f64::MIN_POSITIVE);
    Ok(10.0 * (peak * peak / err).log10())
}

/// The quality threshold below which AR experience degrades noticeably; the
/// paper cites ~30 dB as sufficient for most AR applications (§5.4, \[57\]).
pub const ACCEPTABLE_PSNR_DB: f64 = 30.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn img(data: Vec<f64>) -> Image {
        let n = (data.len() as f64).sqrt() as usize;
        Image::new(n, data.len() / n, data).unwrap()
    }

    #[test]
    fn mse_basics() {
        let a = img(vec![1.0, 2.0, 3.0, 4.0]);
        let b = img(vec![1.0, 2.0, 3.0, 6.0]);
        assert_eq!(mse(&a, &b).unwrap(), 1.0);
        assert_eq!(mse(&a, &a).unwrap(), 0.0);
        // Symmetric.
        assert_eq!(mse(&a, &b).unwrap(), mse(&b, &a).unwrap());
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let a = img(vec![0.2, 0.4, 0.6, 0.8]);
        assert!(psnr(&a, &a).unwrap().is_infinite());
    }

    #[test]
    fn psnr_decreases_with_error() {
        let reference = img(vec![1.0, 1.0, 1.0, 1.0]);
        let slight = img(vec![1.0, 1.0, 1.0, 0.99]);
        let worse = img(vec![1.0, 1.0, 1.0, 0.5]);
        let p_slight = psnr(&reference, &slight).unwrap();
        let p_worse = psnr(&reference, &worse).unwrap();
        assert!(p_slight > p_worse);
        assert!(p_slight > ACCEPTABLE_PSNR_DB);
    }

    #[test]
    fn psnr_known_value() {
        // MSE = 0.01 with peak 1 → 20 dB.
        let reference = img(vec![1.0, 1.0, 1.0, 1.0]);
        let test = img(vec![0.9, 1.1, 0.9, 1.1]);
        let p = psnr(&reference, &test).unwrap();
        assert!((p - 20.0).abs() < 1e-9, "psnr {p}");
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = img(vec![0.0; 4]);
        let b = Image::new(1, 2, vec![0.0, 0.0]).unwrap();
        assert!(mse(&a, &b).is_err());
        assert!(psnr(&a, &b).is_err());
        let e = mse(&a, &b).unwrap_err();
        assert!(e.to_string().contains("2x2"));
    }
}
