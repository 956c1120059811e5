//! Depthmap inputs and their slicing into discrete depth planes.
//!
//! The paper's hologram pipeline uses the *depthmap input method*
//! (§2.2.1 footnote 2): an RGB-D style image carrying an amplitude and a
//! per-pixel depth. [`DepthMap::slice`] quantizes the continuous depth range
//! into `M` planes — the `M` of Algorithm 1 — assigning each pixel to its
//! nearest plane. Varying `M` is exactly the approximation knob the HoloAR
//! schemes turn.

use crate::field::{Field, OpticalConfig};
use holoar_fft::Complex64;

/// An amplitude + depth image, the input to the depthmap hologram algorithm.
///
/// Depth values are metric distances from the hologram plane (positive,
/// meters). Pixels with zero amplitude are treated as empty background and
/// never contribute to any plane.
///
/// # Examples
///
/// ```
/// use holoar_optics::DepthMap;
///
/// let dm = DepthMap::new(2, 2, vec![1.0, 0.0, 0.5, 0.0], vec![0.1, 0.1, 0.2, 0.2]).unwrap();
/// let (near, far) = dm.depth_range().unwrap();
/// assert_eq!((near, far), (0.1, 0.2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DepthMap {
    rows: usize,
    cols: usize,
    amplitude: Vec<f64>,
    depth: Vec<f64>,
}

/// Error building a [`DepthMap`] from raw buffers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildDepthMapError {
    /// A dimension was zero.
    EmptyDimensions,
    /// Buffer lengths disagreed with `rows × cols`.
    LengthMismatch {
        /// Expected element count (`rows * cols`).
        expected: usize,
        /// Actual amplitude buffer length.
        amplitude: usize,
        /// Actual depth buffer length.
        depth: usize,
    },
    /// An amplitude was negative or non-finite, or a depth was non-positive
    /// or non-finite on a lit pixel.
    InvalidSample {
        /// Linear index of the offending sample.
        index: usize,
    },
}

impl std::fmt::Display for BuildDepthMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildDepthMapError::EmptyDimensions => write!(f, "depthmap dimensions must be non-zero"),
            BuildDepthMapError::LengthMismatch { expected, amplitude, depth } => write!(
                f,
                "buffer lengths {amplitude} (amplitude) / {depth} (depth) do not match rows*cols = {expected}"
            ),
            BuildDepthMapError::InvalidSample { index } => {
                write!(f, "invalid amplitude or depth at linear index {index}")
            }
        }
    }
}

impl std::error::Error for BuildDepthMapError {}

impl DepthMap {
    /// Builds a depthmap from row-major amplitude and depth buffers.
    ///
    /// # Errors
    ///
    /// Returns [`BuildDepthMapError`] if dimensions are zero, the buffers do
    /// not match `rows × cols`, an amplitude is negative/non-finite, or a lit
    /// pixel carries a non-positive or non-finite depth.
    pub fn new(
        rows: usize,
        cols: usize,
        amplitude: Vec<f64>,
        depth: Vec<f64>,
    ) -> Result<Self, BuildDepthMapError> {
        if rows == 0 || cols == 0 {
            return Err(BuildDepthMapError::EmptyDimensions);
        }
        let expected = rows * cols;
        if amplitude.len() != expected || depth.len() != expected {
            return Err(BuildDepthMapError::LengthMismatch {
                expected,
                amplitude: amplitude.len(),
                depth: depth.len(),
            });
        }
        for (i, (&a, &d)) in amplitude.iter().zip(&depth).enumerate() {
            if !(a.is_finite() && a >= 0.0) {
                return Err(BuildDepthMapError::InvalidSample { index: i });
            }
            if a > 0.0 && !(d.is_finite() && d > 0.0) {
                return Err(BuildDepthMapError::InvalidSample { index: i });
            }
        }
        Ok(DepthMap { rows, cols, amplitude, depth })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row-major amplitude buffer.
    pub fn amplitude(&self) -> &[f64] {
        &self.amplitude
    }

    /// The row-major depth buffer (meters from the hologram plane).
    pub fn depth(&self) -> &[f64] {
        &self.depth
    }

    /// Number of lit (non-zero-amplitude) pixels.
    pub fn lit_pixel_count(&self) -> usize {
        self.amplitude.iter().filter(|&&a| a > 0.0).count()
    }

    /// The `(nearest, farthest)` depth across lit pixels, or `None` when the
    /// depthmap is entirely background.
    ///
    /// The paper's Fig 3a calls `farthest − nearest` the object *size*
    /// (`ObjSize = farmost − nearest`).
    pub fn depth_range(&self) -> Option<(f64, f64)> {
        let mut range: Option<(f64, f64)> = None;
        for (&a, &d) in self.amplitude.iter().zip(&self.depth) {
            if a > 0.0 {
                range = Some(match range {
                    None => (d, d),
                    Some((lo, hi)) => (lo.min(d), hi.max(d)),
                });
            }
        }
        range
    }

    /// Slices the depthmap into `plane_count` equally spaced depth planes, the
    /// input format of Algorithm 1 (Fig 4a: "the depthmap input is first
    /// sliced into several planes").
    ///
    /// Each lit pixel is assigned to the plane nearest its depth. Planes are
    /// returned nearest-first. An all-background depthmap yields planes with
    /// no lit pixels, positioned across `[1 cm, 1 cm]`.
    ///
    /// # Panics
    ///
    /// Panics if `plane_count == 0`.
    pub fn slice(&self, plane_count: usize, config: OpticalConfig) -> PlaneStack {
        assert!(plane_count > 0, "cannot slice into zero depth planes");
        let (near, far) = self.depth_range().unwrap_or((0.01, 0.01));
        let mut planes: Vec<DepthPlane> = (0..plane_count)
            .map(|i| {
                let z = if plane_count == 1 {
                    (near + far) / 2.0
                } else {
                    near + (far - near) * i as f64 / (plane_count - 1) as f64
                };
                DepthPlane {
                    z,
                    field: Field::zeros(self.rows, self.cols, config),
                    lit_pixels: 0,
                }
            })
            .collect();
        let span = (far - near).max(f64::MIN_POSITIVE);
        for idx in 0..self.amplitude.len() {
            let a = self.amplitude[idx];
            if a <= 0.0 {
                continue;
            }
            let t = ((self.depth[idx] - near) / span).clamp(0.0, 1.0);
            let p = if plane_count == 1 {
                0
            } else {
                (t * (plane_count - 1) as f64).round() as usize
            };
            let (r, c) = (idx / self.cols, idx % self.cols);
            planes[p].field.set(r, c, Complex64::new(a, 0.0));
            planes[p].lit_pixels += 1;
        }
        PlaneStack { planes }
    }
}

/// One depth plane of a sliced depthmap: the lit samples living at distance
/// `z` from the hologram plane.
#[derive(Debug, Clone)]
pub struct DepthPlane {
    /// Distance from the hologram plane, meters.
    pub z: f64,
    /// The complex field on this plane (amplitude from the depthmap, zero
    /// phase before processing).
    pub field: Field,
    /// Number of lit pixels assigned to this plane.
    pub lit_pixels: usize,
}

/// An ordered (nearest-first) stack of depth planes — `DP[1..M]` in
/// Algorithm 1.
#[derive(Debug, Clone)]
pub struct PlaneStack {
    planes: Vec<DepthPlane>,
}

impl PlaneStack {
    /// Number of planes `M`.
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// Whether the stack has no planes.
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }

    /// Iterates over planes nearest-first.
    pub fn iter(&self) -> std::slice::Iter<'_, DepthPlane> {
        self.planes.iter()
    }

    /// The plane at `index` (0 = nearest).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn plane(&self, index: usize) -> &DepthPlane {
        &self.planes[index]
    }

    /// Borrow all planes.
    pub fn planes(&self) -> &[DepthPlane] {
        &self.planes
    }

    /// Keeps only planes whose index lies in `[first, last]` (inclusive,
    /// 0-based) — the *sub-hologram* plane subset of Fig 9c (S-CGH).
    ///
    /// # Panics
    ///
    /// Panics if `first > last` or `last >= len()`.
    pub fn subset(&self, first: usize, last: usize) -> PlaneStack {
        assert!(first <= last && last < self.planes.len(), "invalid plane subset range");
        PlaneStack { planes: self.planes[first..=last].to_vec() }
    }

    /// Total lit pixels across planes.
    pub fn lit_pixel_count(&self) -> usize {
        self.planes.iter().map(|p| p.lit_pixels).sum()
    }
}

impl<'a> IntoIterator for &'a PlaneStack {
    type Item = &'a DepthPlane;
    type IntoIter = std::slice::Iter<'a, DepthPlane>;
    fn into_iter(self) -> Self::IntoIter {
        self.planes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_map() -> DepthMap {
        // 2x2: two lit pixels at depths 0.1 and 0.3, two background.
        DepthMap::new(2, 2, vec![1.0, 0.0, 2.0, 0.0], vec![0.1, 9.9, 0.3, 9.9]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            DepthMap::new(0, 2, vec![], vec![]),
            Err(BuildDepthMapError::EmptyDimensions)
        );
        assert!(matches!(
            DepthMap::new(1, 2, vec![1.0], vec![0.1, 0.2]),
            Err(BuildDepthMapError::LengthMismatch { .. })
        ));
        assert_eq!(
            DepthMap::new(1, 1, vec![-1.0], vec![0.1]),
            Err(BuildDepthMapError::InvalidSample { index: 0 })
        );
        // Zero depth on a lit pixel is invalid…
        assert_eq!(
            DepthMap::new(1, 1, vec![1.0], vec![0.0]),
            Err(BuildDepthMapError::InvalidSample { index: 0 })
        );
        // …but anything goes on background pixels.
        assert!(DepthMap::new(1, 1, vec![0.0], vec![-5.0]).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let err = DepthMap::new(1, 2, vec![1.0], vec![0.1, 0.2]).unwrap_err();
        assert!(err.to_string().contains("rows*cols"));
    }

    #[test]
    fn depth_range_ignores_background() {
        let dm = simple_map();
        assert_eq!(dm.depth_range(), Some((0.1, 0.3)));
        assert_eq!(dm.lit_pixel_count(), 2);
    }

    #[test]
    fn all_background_has_no_range() {
        let dm = DepthMap::new(1, 2, vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(dm.depth_range(), None);
        let stack = dm.slice(4, OpticalConfig::default());
        assert_eq!(stack.len(), 4);
        assert_eq!(stack.lit_pixel_count(), 0);
    }

    #[test]
    fn slice_assigns_pixels_to_nearest_plane() {
        let dm = simple_map();
        let stack = dm.slice(3, OpticalConfig::default());
        assert_eq!(stack.len(), 3);
        // Planes at z = 0.1, 0.2, 0.3
        assert!((stack.plane(0).z - 0.1).abs() < 1e-12);
        assert!((stack.plane(2).z - 0.3).abs() < 1e-12);
        assert_eq!(stack.plane(0).lit_pixels, 1);
        assert_eq!(stack.plane(1).lit_pixels, 0);
        assert_eq!(stack.plane(2).lit_pixels, 1);
        assert_eq!(stack.lit_pixel_count(), dm.lit_pixel_count());
    }

    #[test]
    fn slice_single_plane_collapses_everything() {
        let dm = simple_map();
        let stack = dm.slice(1, OpticalConfig::default());
        assert_eq!(stack.len(), 1);
        assert_eq!(stack.plane(0).lit_pixels, 2);
        assert!((stack.plane(0).z - 0.2).abs() < 1e-12); // midpoint
    }

    #[test]
    fn slice_preserves_amplitude() {
        let dm = simple_map();
        let stack = dm.slice(2, OpticalConfig::default());
        let total: f64 = stack.iter().map(|p| p.field.total_energy()).sum();
        assert!((total - (1.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn plane_order_is_nearest_first() {
        let dm = simple_map();
        let stack = dm.slice(5, OpticalConfig::default());
        for w in stack.planes().windows(2) {
            assert!(w[0].z <= w[1].z);
        }
    }

    #[test]
    fn subset_selects_plane_range() {
        let dm = simple_map();
        let stack = dm.slice(4, OpticalConfig::default());
        let sub = stack.subset(1, 2);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.plane(0).z, stack.plane(1).z);
    }

    #[test]
    #[should_panic(expected = "invalid plane subset")]
    fn subset_rejects_bad_range() {
        simple_map().slice(3, OpticalConfig::default()).subset(2, 3);
    }

    #[test]
    #[should_panic(expected = "zero depth planes")]
    fn slice_zero_planes_panics() {
        simple_map().slice(0, OpticalConfig::default());
    }
}
