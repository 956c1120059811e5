//! Sampled complex optical fields.
//!
//! A [`Field`] is a rectangular grid of complex amplitudes with physical
//! sampling metadata ([`OpticalConfig`]): the wavelength of the coherent
//! source and the pixel pitch of the hologram plane / SLM. Every propagation
//! and reconstruction routine in this crate operates on `Field`s.

use holoar_fft::Complex64;

/// Physical sampling parameters shared by a hologram pipeline.
///
/// # Examples
///
/// ```
/// use holoar_optics::OpticalConfig;
///
/// let cfg = OpticalConfig::default(); // 532 nm green laser, 8 µm SLM pitch
/// assert!((cfg.wavelength - 532e-9).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalConfig {
    /// Source wavelength in meters.
    pub wavelength: f64,
    /// Sample (SLM pixel) pitch in meters.
    pub pitch: f64,
}

impl Default for OpticalConfig {
    /// A 532 nm source sampled at 8 µm — typical for SLM-based CGH setups
    /// like the ones in the OpenHolo examples the paper renders with.
    fn default() -> Self {
        OpticalConfig { wavelength: 532e-9, pitch: 8e-6 }
    }
}

/// A sampled complex field on a `rows × cols` grid.
///
/// # Examples
///
/// ```
/// use holoar_optics::{Field, OpticalConfig};
///
/// let mut f = Field::zeros(4, 4, OpticalConfig::default());
/// f.set(2, 1, holoar_fft::Complex64::ONE);
/// assert_eq!(f.samples()[2 * 4 + 1].norm_sqr(), 1.0);
/// assert_eq!(f.total_energy(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    rows: usize,
    cols: usize,
    config: OpticalConfig,
    data: Vec<Complex64>,
}

impl Field {
    /// Creates a field of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize, config: OpticalConfig) -> Self {
        assert!(rows > 0 && cols > 0, "field dimensions must be non-zero");
        Field { rows, cols, config, data: vec![Complex64::ZERO; rows * cols] }
    }

    /// Creates a field from an existing buffer of complex samples.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_data(rows: usize, cols: usize, config: OpticalConfig, data: Vec<Complex64>) -> Self {
        assert!(rows > 0 && cols > 0, "field dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Field { rows, cols, config, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the field contains no samples (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The sampling configuration.
    pub fn config(&self) -> OpticalConfig {
        self.config
    }

    /// Sets the sample at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: Complex64) {
        assert!(row < self.rows && col < self.cols, "field index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrow the raw row-major sample buffer.
    pub fn samples(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutably borrow the raw row-major sample buffer.
    pub fn samples_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// The per-pixel intensity image `|u|²`.
    pub fn intensity(&self) -> Vec<f64> {
        self.data.iter().map(|z| z.norm_sqr()).collect()
    }

    /// The per-pixel amplitude image `|u|`.
    pub fn amplitude(&self) -> Vec<f64> {
        self.data.iter().map(|z| z.norm()).collect()
    }

    /// Total optical energy `Σ|u|²`.
    pub fn total_energy(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Adds another field sample-wise (`self += other`).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn accumulate(&mut self, other: &Field) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "cannot accumulate fields of different shapes"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Scales every sample by a real factor.
    pub fn scale(&mut self, k: f64) {
        for v in &mut self.data {
            *v = v.scale(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Field {
        /// A phase-only copy: every sample normalized to unit amplitude
        /// (zero samples stay zero), an ideal phase-type SLM.
        pub(crate) fn to_phase_only(&self) -> Field {
            let data = self
                .data
                .iter()
                .map(|z| {
                    let r = z.norm();
                    if r > 0.0 {
                        z.scale(1.0 / r)
                    } else {
                        Complex64::ZERO
                    }
                })
                .collect();
            Field { rows: self.rows, cols: self.cols, config: self.config, data }
        }
    }

    /// A zero-phase field of the given per-pixel amplitudes, one row.
    fn amplitude_row(amplitude: &[f64]) -> Field {
        let data = amplitude.iter().map(|&a| Complex64::new(a, 0.0)).collect();
        Field::from_data(1, amplitude.len(), OpticalConfig::default(), data)
    }

    #[test]
    fn zeros_and_indexing() {
        let mut f = Field::zeros(3, 5, OpticalConfig::default());
        assert_eq!(f.rows(), 3);
        assert_eq!(f.cols(), 5);
        assert_eq!(f.len(), 15);
        assert!(!f.is_empty());
        f.set(2, 4, Complex64::new(1.0, 1.0));
        assert_eq!(f.samples()[2 * 5 + 4], Complex64::new(1.0, 1.0));
        assert_eq!(f.samples()[2 * 5 + 4].norm_sqr(), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        Field::zeros(2, 2, OpticalConfig::default()).set(2, 0, Complex64::ONE);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_data_length_mismatch_panics() {
        Field::from_data(2, 2, OpticalConfig::default(), vec![Complex64::ZERO; 3]);
    }

    #[test]
    fn phase_only_preserves_phase_and_normalizes() {
        let mut f = Field::zeros(1, 2, OpticalConfig::default());
        f.set(0, 0, Complex64::from_polar(3.0, 0.5));
        let p = f.to_phase_only();
        assert!((p.samples()[0].norm() - 1.0).abs() < 1e-12);
        assert!((p.samples()[0].arg() - 0.5).abs() < 1e-12);
        assert_eq!(p.samples()[1], Complex64::ZERO); // zero stays zero
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = amplitude_row(&[1.0, 2.0]);
        let b = amplitude_row(&[0.5, 0.5]);
        a.accumulate(&b);
        assert_eq!(a.amplitude(), vec![1.5, 2.5]);
        a.scale(2.0);
        assert_eq!(a.amplitude(), vec![3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn accumulate_shape_mismatch_panics() {
        let cfg = OpticalConfig::default();
        let mut a = Field::zeros(2, 2, cfg);
        a.accumulate(&Field::zeros(2, 3, cfg));
    }
}
