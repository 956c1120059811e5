//! Numerical hologram reconstruction — the paper's quality-evaluation path.
//!
//! Lacking a physical optical display, the paper "numerically generate\[s\]
//! the reconstructed holographic images on top of the OpenHolo library"
//! (§5.4, Fig 9). This module is that substitute: it propagates a hologram to
//! a chosen focal distance, optionally through an off-center pupil aperture,
//! and returns the intensity image a viewer would see.

use holoar_fft::{Complex64, Fft2d};

use crate::field::Field;
use crate::propagate::Propagator;

/// Reconstructs the intensity image at focal distance `z` (meters) in front
/// of the hologram plane.
///
/// # Examples
///
/// ```
/// use holoar_optics::{reconstruct, Field, OpticalConfig, Propagator};
///
/// let mut holo = Field::zeros(16, 16, OpticalConfig::default());
/// holo.set(8, 8, holoar_fft::Complex64::ONE);
/// let mut prop = Propagator::new();
/// let img = reconstruct::reconstruct_intensity(&holo, 0.002, &mut prop);
/// assert_eq!(img.len(), 256);
/// ```
///
/// # Panics
///
/// Panics if `z` is not finite.
pub fn reconstruct_intensity(hologram: &Field, z: f64, prop: &mut Propagator) -> Vec<f64> {
    prop.propagate(hologram, z).intensity()
}

/// Reconstructs an *incoherent* focal stack from a sliced depth-plane
/// decomposition: at each focal distance the per-plane contributions are
/// summed in intensity rather than amplitude.
///
/// Layered-display evaluations conventionally compare incoherent stacks —
/// temporal multiplexing and the eye's integration wash out inter-plane
/// interference — which makes quality differences track the depth
/// quantization rather than speckle reshuffling.
///
/// # Panics
///
/// Panics if the stack is empty or any distance is not finite.
pub fn incoherent_focal_stack(
    stack: &crate::depthmap::PlaneStack,
    distances: &[f64],
    prop: &mut Propagator,
) -> Vec<Vec<f64>> {
    assert!(!stack.is_empty(), "incoherent stack requires at least one plane");
    let rows = stack.plane(0).field.rows();
    let cols = stack.plane(0).field.cols();
    let mut images = vec![vec![0.0; rows * cols]; distances.len()];
    for plane in stack.iter() {
        if plane.lit_pixels == 0 {
            continue;
        }
        // One batch per plane: the focal distances are independent and fan
        // out over the propagator's pool; the intensity accumulation stays
        // serial in distance order, so the stack is bit-identical to the
        // serial loop for every worker count.
        let shifted: Vec<f64> = distances.iter().map(|&z| z - plane.z).collect();
        let reconstructions = prop.propagate_batch(&plane.field, &shifted);
        for (image, u) in images.iter_mut().zip(&reconstructions) {
            for (acc, s) in image.iter_mut().zip(u.samples()) {
                *acc += s.norm_sqr();
            }
        }
    }
    images
}

/// A viewer's pupil, expressed in the hologram's spatial-frequency plane.
///
/// The eye collects only the plane-wave components entering its pupil; an
/// off-center eye position selects an off-center patch of the hologram's
/// angular spectrum. Offsets are fractions of the Nyquist frequency in
/// `[-1, 1]`; the radius is a fraction of Nyquist in `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pupil {
    /// Horizontal spectral offset as a fraction of Nyquist.
    pub offset_x: f64,
    /// Vertical spectral offset as a fraction of Nyquist.
    pub offset_y: f64,
    /// Aperture radius as a fraction of Nyquist.
    pub radius: f64,
}

impl Pupil {
    /// A centered pupil covering `radius` of the spectral half-band.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not in `(0, 1]`.
    pub fn centered(radius: f64) -> Self {
        Self::new(0.0, 0.0, radius)
    }

    /// Creates a pupil at the given spectral offset.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not in `(0, 1]` or either offset is outside
    /// `[-1, 1]`.
    pub fn new(offset_x: f64, offset_y: f64, radius: f64) -> Self {
        assert!(radius > 0.0 && radius <= 1.0, "pupil radius must be in (0, 1]");
        assert!(
            (-1.0..=1.0).contains(&offset_x) && (-1.0..=1.0).contains(&offset_y),
            "pupil offsets must be in [-1, 1]"
        );
        Pupil { offset_x, offset_y, radius }
    }
}

impl Default for Pupil {
    /// A centered pupil passing half of the spectral band.
    fn default() -> Self {
        Pupil::centered(0.5)
    }
}

/// Reconstructs the view through `pupil` focused at distance `z`
/// (Fig 9a: "viewing the W-CGH from different eye-center positions").
///
/// The hologram's angular spectrum is masked by the circular pupil aperture
/// before propagation, so moving the pupil shifts which perspective of the
/// 3-D content is seen.
///
/// # Panics
///
/// Panics if `z` is not finite.
pub fn view_through_pupil(
    hologram: &Field,
    z: f64,
    pupil: Pupil,
    prop: &mut Propagator,
) -> Vec<f64> {
    let (rows, cols) = (hologram.rows(), hologram.cols());
    let fft = Fft2d::new(rows, cols);
    let mut spectrum = hologram.samples().to_vec();
    fft.forward(&mut spectrum);

    // Signed bin coordinates as fractions of Nyquist, DC-at-corner layout.
    let center_r = pupil.offset_y;
    let center_c = pupil.offset_x;
    for r in 0..rows {
        let fr = signed_fraction(r, rows);
        for c in 0..cols {
            let fc = signed_fraction(c, cols);
            let dr = fr - center_r;
            let dc = fc - center_c;
            if (dr * dr + dc * dc).sqrt() > pupil.radius {
                spectrum[r * cols + c] = Complex64::ZERO;
            }
        }
    }
    fft.inverse(&mut spectrum);
    let filtered = Field::from_data(rows, cols, hologram.config(), spectrum);
    reconstruct_intensity(&filtered, z, prop)
}

/// Maps an FFT bin index to a signed frequency as a fraction of Nyquist in
/// `[-1, 1)`.
fn signed_fraction(bin: usize, n: usize) -> f64 {
    let signed = if bin <= n / 2 { bin as f64 } else { bin as f64 - n as f64 };
    signed / (n as f64 / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::OpticalConfig;

    fn point_hologram(n: usize, z: f64) -> Field {
        // Hologram of a point source at distance z: back-propagated delta.
        let cfg = OpticalConfig::default();
        let mut obj = Field::zeros(n, n, cfg);
        obj.set(n / 2, n / 2, Complex64::ONE);
        Propagator::new().propagate(&obj, -z)
    }

    #[test]
    fn reconstruction_refocuses_point() {
        let z = 0.003;
        let holo = point_hologram(32, z);
        let mut prop = Propagator::new();
        let img = reconstruct_intensity(&holo, z, &mut prop);
        let (peak_idx, peak) = img
            .iter()
            .enumerate()
            .fold((0, 0.0), |acc, (i, &v)| if v > acc.1 { (i, v) } else { acc });
        assert_eq!(peak_idx, 16 * 32 + 16);
        assert!(peak > 0.5);
    }

    #[test]
    fn pupil_validation() {
        assert_eq!(Pupil::default(), Pupil::centered(0.5));
        let p = Pupil::new(0.3, -0.2, 0.4);
        assert_eq!(p.offset_x, 0.3);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn pupil_rejects_zero_radius() {
        Pupil::centered(0.0);
    }

    #[test]
    #[should_panic(expected = "offsets")]
    fn pupil_rejects_out_of_range_offset() {
        Pupil::new(1.5, 0.0, 0.5);
    }

    #[test]
    fn smaller_pupil_passes_less_energy() {
        let holo = point_hologram(32, 0.002);
        let mut prop = Propagator::new();
        let wide: f64 =
            view_through_pupil(&holo, 0.002, Pupil::centered(0.9), &mut prop).iter().sum();
        let narrow: f64 =
            view_through_pupil(&holo, 0.002, Pupil::centered(0.2), &mut prop).iter().sum();
        assert!(narrow < wide);
        assert!(narrow > 0.0);
    }

    #[test]
    fn off_center_pupil_still_sees_point() {
        // A point source radiates into all angles; an off-center pupil
        // still collects some energy.
        let holo = point_hologram(32, 0.002);
        let mut prop = Propagator::new();
        let img = view_through_pupil(&holo, 0.002, Pupil::new(0.4, 0.0, 0.3), &mut prop);
        assert!(img.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn signed_fraction_layout() {
        assert_eq!(signed_fraction(0, 8), 0.0);
        assert_eq!(signed_fraction(4, 8), 1.0);
        assert_eq!(signed_fraction(5, 8), -0.75);
        assert_eq!(signed_fraction(7, 8), -0.25);
    }
}
