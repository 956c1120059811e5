//! Luminance images: the common representation the quality metrics operate
//! on.

/// A row-major grayscale image with `f64` luminance.
///
/// # Examples
///
/// ```
/// use holoar_metrics::Image;
///
/// let img = Image::new(2, 2, vec![0.0, 0.5, 0.5, 1.0])?;
/// assert_eq!(img.max_value(), 1.0);
/// # Ok::<(), holoar_metrics::BuildImageError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Error building an [`Image`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildImageError {
    /// A dimension was zero.
    EmptyDimensions,
    /// Buffer length disagreed with `rows × cols`.
    LengthMismatch {
        /// Expected element count.
        expected: usize,
        /// Actual buffer length.
        actual: usize,
    },
    /// A sample was negative or non-finite.
    InvalidSample {
        /// Linear index of the offending sample.
        index: usize,
    },
}

impl std::fmt::Display for BuildImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildImageError::EmptyDimensions => write!(f, "image dimensions must be non-zero"),
            BuildImageError::LengthMismatch { expected, actual } => {
                write!(f, "buffer length {actual} does not match rows*cols = {expected}")
            }
            BuildImageError::InvalidSample { index } => {
                write!(f, "negative or non-finite sample at index {index}")
            }
        }
    }
}

impl std::error::Error for BuildImageError {}

impl Image {
    /// Builds an image from a row-major luminance buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BuildImageError`] for zero dimensions, a mismatched buffer
    /// length, or negative/non-finite samples.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, BuildImageError> {
        if rows == 0 || cols == 0 {
            return Err(BuildImageError::EmptyDimensions);
        }
        if data.len() != rows * cols {
            return Err(BuildImageError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        for (i, &v) in data.iter().enumerate() {
            if !(v.is_finite() && v >= 0.0) {
                return Err(BuildImageError::InvalidSample { index: i });
            }
        }
        Ok(Image { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total pixels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the image has no pixels (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw luminance buffer.
    pub fn pixels(&self) -> &[f64] {
        &self.data
    }

    /// The maximum luminance.
    pub fn max_value(&self) -> f64 {
        self.data.iter().cloned().fold(0.0, f64::max)
    }

    /// The mean luminance.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Returns a copy normalized so the peak luminance is 1 (identity for an
    /// all-zero image).
    pub fn normalized(&self) -> Image {
        let peak = self.max_value();
        if peak <= 0.0 {
            return self.clone();
        }
        Image {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v / peak).collect(),
        }
    }

    /// Whether two images have identical shape.
    pub fn same_shape(&self, other: &Image) -> bool {
        self.rows == other.rows && self.cols == other.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert_eq!(Image::new(0, 1, vec![]), Err(BuildImageError::EmptyDimensions));
        assert_eq!(
            Image::new(1, 2, vec![1.0]),
            Err(BuildImageError::LengthMismatch { expected: 2, actual: 1 })
        );
        assert_eq!(
            Image::new(1, 2, vec![1.0, -0.5]),
            Err(BuildImageError::InvalidSample { index: 1 })
        );
        assert_eq!(
            Image::new(1, 1, vec![f64::NAN]),
            Err(BuildImageError::InvalidSample { index: 0 })
        );
    }

    #[test]
    fn accessors() {
        let img = Image::new(2, 3, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(img.rows(), 2);
        assert_eq!(img.cols(), 3);
        assert_eq!(img.len(), 6);
        assert_eq!(img.pixels()[5], 5.0);
        assert_eq!(img.max_value(), 5.0);
        assert_eq!(img.mean(), 2.5);
    }

    #[test]
    fn normalization() {
        let img = Image::new(1, 2, vec![1.0, 4.0]).unwrap();
        let n = img.normalized();
        assert_eq!(n.pixels(), &[0.25, 1.0]);
        // All-zero image normalizes to itself.
        let z = Image::new(1, 2, vec![0.0, 0.0]).unwrap();
        assert_eq!(z.normalized(), z);
    }

    #[test]
    fn shape_comparison() {
        let a = Image::new(2, 2, vec![0.0; 4]).unwrap();
        let b = Image::new(2, 2, vec![1.0; 4]).unwrap();
        let c = Image::new(4, 1, vec![0.0; 4]).unwrap();
        assert!(a.same_shape(&b));
        assert!(!a.same_shape(&c));
    }

    #[test]
    fn error_display() {
        let e = BuildImageError::LengthMismatch { expected: 4, actual: 3 };
        assert!(e.to_string().contains("rows*cols"));
    }
}
