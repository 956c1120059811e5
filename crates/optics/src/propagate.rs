//! Scalar diffraction between parallel planes: the angular-spectrum method.
//!
//! This is the numerical core of the depthmap hologram algorithm. A field is
//! propagated a signed distance `z` by multiplying its spatial spectrum with
//! the free-space transfer function
//!
//! ```text
//! H(fx, fy; z) = exp( i·k·z·sqrt(1 − (λ·fx)² − (λ·fy)²) )
//! ```
//!
//! with evanescent components (the root going imaginary) attenuated. The
//! paper's `HP2DP` (hologram plane → depth plane) is propagation by `+z`
//! and its `DP2HP` (depth plane → hologram plane) is propagation by `−z`;
//! [`Propagator::dp2hp`] names the latter for the reconstruction code.
//!
//! A [`Propagator`] caches FFT plans and transfer functions behind shared
//! thread-safe maps (clones of a propagator share one cache), because the
//! hologram pipeline propagates dozens of planes of identical shape per
//! frame. Its transforms are serial, and each cached transform recycles
//! its own scratch; the only fan-out is across planes and fields.
//!
//! The batch APIs transform each source field once. Per plane, the work is
//! a spectrum product and, at most, one inverse transform:
//!
//! - [`Propagator::propagate_batch`] fans one field out to many distances
//!   from a single forward spectrum (`n + 1` transforms for `n`
//!   distances). Its results are bit-identical to the serial
//!   [`Propagator::propagate`] loop.
//!   [`Propagator::propagate_batch_window`] shares its per-distance loop
//!   for callers that read each result in a window of columns: each
//!   inverse runs its column pass over the window alone, an empty window
//!   runs none, and each result carries its energy, taken from the
//!   spectrum product by Parseval.
//! - [`Propagator::propagate_sum`] returns `Σᵢ propagate(fieldsᵢ, zsᵢ)` by
//!   accumulating the spectrum products and running one inverse transform
//!   (`n + 1` transforms for `n` fields). It is bit-identical for every
//!   worker count and matches the spatial sum up to floating-point
//!   rounding. [`Propagator::propagate_sum_from`] is the same sum over
//!   fields that a callback writes straight into the transform buffers.
//!
//! Sources that are zero outside a few rows, such as depth planes, pay
//! only for their non-zero rows in the forward row pass
//! ([`Fft2d::forward`] skips all-zero rows); the count of transforms does
//! not change.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use holoar_fft::{Complex64, ExecutionContext, Fft2d, Parallelism};

use crate::field::{Field, OpticalConfig};

/// Cache key for a transfer function: shape plus the bit patterns of the
/// distance, wavelength and pixel pitch that define it.
type TransferKey = (usize, usize, u64, u64, u64);

/// A cached transfer function.
type Transfer = Arc<Vec<Complex64>>;

/// Shared FFT-plan map.
type FftMap = Arc<Mutex<HashMap<(usize, usize), Fft2d>>>;

/// Shared transfer-function map.
type TransferMap = Arc<Mutex<HashMap<TransferKey, Transfer>>>;

/// The [`ExecutionContext`] shared slot a context-built propagator pulls its
/// caches from: every propagator constructed from the same context (or a
/// clone of it) shares one FFT-plan map and one transfer-function map.
#[derive(Debug, Default)]
struct PropagatorCaches {
    ffts: FftMap,
    transfer: TransferMap,
}

/// Angular-spectrum propagator with cached plans and transfer functions.
///
/// The caches live behind `Arc<Mutex<…>>`, so cloning a propagator is cheap
/// and the clones *share* cached transfer functions — workers propagating
/// different depth planes of the same frame reuse one table per distance.
///
/// # Examples
///
/// ```
/// use holoar_optics::{Field, OpticalConfig, Propagator};
///
/// let cfg = OpticalConfig::default();
/// let mut field = Field::zeros(32, 32, cfg);
/// field.set(16, 16, holoar_fft::Complex64::ONE);
///
/// let mut prop = Propagator::new();
/// let away = prop.propagate(&field, 0.002);
/// let back = prop.propagate(&away, -0.002);
/// // Forward then backward recovers the point source.
/// assert!(back.intensity_at(16, 16) > 0.9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Propagator {
    ffts: FftMap,
    /// Transfer functions, `Arc`-shared so batch workers borrow them
    /// without copying.
    transfer: TransferMap,
    par: Parallelism,
}

impl Propagator {
    /// Creates an empty serial propagator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty propagator that fans batch propagation out over
    /// `par`, one plane or field per item.
    pub fn with_parallelism(par: Parallelism) -> Self {
        Propagator { par, ..Self::default() }
    }

    /// Creates a propagator bound to an [`ExecutionContext`]: it fans out
    /// over the context's worker pool and shares FFT-plan and
    /// transfer-function caches with every other propagator built from the
    /// same context. This is how the serving layer lets all sessions
    /// multiplexed onto one device reuse each other's transfer functions.
    pub fn with_context(ctx: &ExecutionContext) -> Self {
        let caches = ctx.shared("optics.propagator.caches", PropagatorCaches::default);
        Propagator {
            ffts: Arc::clone(&caches.ffts),
            transfer: Arc::clone(&caches.transfer),
            par: ctx.parallelism().clone(),
        }
    }

    /// The pool handle this propagator fans out over.
    pub fn parallelism(&self) -> &Parallelism {
        &self.par
    }

    /// Propagates `field` by a signed distance `z` (meters). Positive `z`
    /// moves away from the source plane; negative `z` back-propagates.
    ///
    /// Propagation is unitary up to the evanescent cutoff: for fields whose
    /// spectrum stays within the propagating band, energy is conserved.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not finite.
    pub fn propagate(&mut self, field: &Field, z: f64) -> Field {
        assert!(z.is_finite(), "propagation distance must be finite");
        if z == 0.0 {
            return field.clone();
        }
        let _span = holoar_telemetry::span_cat("optics.propagate", "optics");
        let (rows, cols) = (field.rows(), field.cols());
        let fft = self.fft(rows, cols);
        let h = self.transfer(rows, cols, field.config(), z);
        let mut spectrum = spectrum_of(field, &fft);
        multiply(&mut spectrum, &h);
        field_from(spectrum, &fft, rows, cols, field.config())
    }

    /// Propagates one field to many distances concurrently, returning the
    /// results in `zs` order.
    ///
    /// The source is transformed once; each distance then builds the product
    /// of that spectrum and its transfer function in one pass and runs one
    /// inverse transform on its own worker (`n + 1` transforms for `n` non-zero
    /// distances). Every output is bit-identical to the corresponding serial
    /// [`Propagator::propagate`] call, because the same input goes through
    /// the same forward transform. Transfer functions are built (and cached)
    /// in `zs` order up front, exactly as the serial loop would.
    ///
    /// # Panics
    ///
    /// Panics if any distance is not finite.
    pub fn propagate_batch(&mut self, field: &Field, zs: &[f64]) -> Vec<Field> {
        let _span = holoar_telemetry::span_cat("optics.propagate_batch", "optics");
        let (rows, cols, cfg) = (field.rows(), field.cols(), field.config());
        self.map_products(field, zs, |_, fft, product| match product {
            None => field.clone(),
            Some(product) => field_from(product, fft, rows, cols, cfg),
        })
    }

    /// [`Propagator::propagate_batch`] for callers that read distance `i`'s
    /// field only in the columns `window(i)`, paired with the field's total
    /// energy `Σ|u|²`.
    ///
    /// Each non-zero distance inverts its spectrum product over its window
    /// alone ([`Fft2d::inverse_window`]), so columns inside the window are
    /// bit-identical to `propagate_batch` and all others are unspecified;
    /// an empty window runs no inverse. The energy comes from the product
    /// by Parseval, `Σ|S·H|²/N` for `N = rows·cols`, so it equals the
    /// spatial sum up to rounding. A zero distance returns the field itself
    /// and its spatial energy.
    ///
    /// # Panics
    ///
    /// Panics if any distance is not finite or a window is not within
    /// `0..field.cols()`.
    pub fn propagate_batch_window<W>(
        &mut self,
        field: &Field,
        zs: &[f64],
        window: W,
    ) -> Vec<(f64, Field)>
    where
        W: Fn(usize) -> Range<usize> + Sync,
    {
        let _span = holoar_telemetry::span_cat("optics.propagate_batch_window", "optics");
        let (rows, cols, cfg) = (field.rows(), field.cols(), field.config());
        let n = (rows * cols) as f64;
        self.map_products(field, zs, |i, fft, product| match product {
            None => (field.total_energy(), field.clone()),
            Some(mut product) => {
                let energy = product.iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
                fft.inverse_window(&mut product, window(i));
                (energy, Field::from_data(rows, cols, cfg, product))
            }
        })
    }

    /// The per-distance loop behind the batch propagations: transforms
    /// `field` once, then hands each distance's spectrum product
    /// `FFT(field) · H(zs[i])` (`None` for a zero distance) to
    /// `finish(i, fft, product)` on the worker that built it. Transfer
    /// functions are built (and cached) in `zs` order up front.
    fn map_products<T, F>(&mut self, field: &Field, zs: &[f64], finish: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &Fft2d, Option<Vec<Complex64>>) -> T + Sync,
    {
        let (rows, cols) = (field.rows(), field.cols());
        // Warm the transfer cache serially so insertion order (and therefore
        // `cached_transfer_count`) matches the serial loop exactly.
        let jobs: Vec<(usize, Option<Transfer>)> = zs
            .iter()
            .enumerate()
            .map(|(i, &z)| (i, self.transfer_at(rows, cols, field.config(), z)))
            .collect();
        let fft = self.fft(rows, cols);
        let spectrum = if jobs.iter().any(|(_, h)| h.is_some()) {
            spectrum_of(field, &fft)
        } else {
            Vec::new()
        };
        self.par.map(&jobs, |(i, h)| {
            let product = h
                .as_ref()
                .map(|h| spectrum.iter().zip(h.iter()).map(|(s, t)| *s * *t).collect());
            finish(*i, &fft, product)
        })
    }

    /// Sums independent propagations: `Σᵢ propagate(fields[i], zs[i])`.
    ///
    /// The sum is taken in the spectral domain. Each field's `FFT · H`
    /// product fans out over the pool, the products are accumulated
    /// serially in input order, and one inverse transform returns the sum
    /// (`n + 1` transforms instead of `2n`). The result is bit-identical for
    /// every worker count; it differs from summing the spatial
    /// propagations only by floating-point rounding. The result carries the
    /// first field's optical configuration; each term propagates with its
    /// own.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty, `fields` and `zs` differ in length, the
    /// fields differ in shape, or any distance is not finite.
    pub fn propagate_sum(&mut self, fields: &[Field], zs: &[f64]) -> Field {
        assert_eq!(fields.len(), zs.len(), "one distance per field");
        assert!(!fields.is_empty(), "propagate_sum needs at least one field");
        let _span = holoar_telemetry::span_cat("optics.propagate_sum", "optics");
        let (rows, cols, cfg) = fields
            .first()
            .map_or((0, 0, OpticalConfig::default()), |f| (f.rows(), f.cols(), f.config()));
        let jobs: Vec<(usize, Option<Transfer>)> = fields
            .iter()
            .zip(zs)
            .enumerate()
            .map(|(i, (field, &z))| {
                assert_eq!(
                    (field.rows(), field.cols()),
                    (rows, cols),
                    "cannot sum fields of different shapes"
                );
                (i, self.transfer_at(rows, cols, field.config(), z))
            })
            .collect();
        self.sum_products(rows, cols, cfg, &jobs, |i| fields[i].samples().to_vec())
    }

    /// [`Propagator::propagate_sum`] over fields built in place: term `i`
    /// is whatever `build(i, buf)` writes into a zeroed `rows × cols`
    /// buffer, which is then transformed where it lies. Every term
    /// propagates with `cfg`, and the result is bit-identical to
    /// `propagate_sum` over the same fields. Callers that would otherwise
    /// fill a [`Field`] only to hand it over save one zeroed field and one
    /// copy per term.
    ///
    /// # Panics
    ///
    /// Panics if `zs` is empty or any distance is not finite.
    pub fn propagate_sum_from<F>(
        &mut self,
        rows: usize,
        cols: usize,
        cfg: OpticalConfig,
        zs: &[f64],
        build: F,
    ) -> Field
    where
        F: Fn(usize, &mut [Complex64]) + Sync,
    {
        assert!(!zs.is_empty(), "propagate_sum needs at least one field");
        let _span = holoar_telemetry::span_cat("optics.propagate_sum", "optics");
        let jobs: Vec<(usize, Option<Transfer>)> = zs
            .iter()
            .enumerate()
            .map(|(i, &z)| (i, self.transfer_at(rows, cols, cfg, z)))
            .collect();
        self.sum_products(rows, cols, cfg, &jobs, |i| {
            let mut buf = vec![Complex64::ZERO; rows * cols];
            build(i, &mut buf);
            buf
        })
    }

    /// `IFFT(Σⱼ FFT(source(iⱼ)) · Hⱼ)` over `jobs = [(iⱼ, Hⱼ)]`. Each
    /// product fans out over the pool; the sum runs serially in job order.
    fn sum_products<S>(
        &self,
        rows: usize,
        cols: usize,
        cfg: OpticalConfig,
        jobs: &[(usize, Option<Transfer>)],
        source: S,
    ) -> Field
    where
        S: Fn(usize) -> Vec<Complex64> + Sync,
    {
        let fft = self.fft(rows, cols);
        let mut products = self
            .par
            .map(jobs, |(i, h)| {
                let mut spectrum = source(*i);
                fft.forward(&mut spectrum);
                if let Some(h) = h {
                    multiply(&mut spectrum, h);
                }
                spectrum
            })
            .into_iter();
        let mut sum = products.next().unwrap_or_default();
        for product in products {
            for (s, p) in sum.iter_mut().zip(&product) {
                *s += *p;
            }
        }
        field_from(sum, &fft, rows, cols, cfg)
    }

    /// `DP2HP` from Algorithm 1: the depth plane at distance `z` → the
    /// hologram plane.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not finite.
    pub fn dp2hp(&mut self, plane: &Field, z: f64) -> Field {
        self.propagate(plane, -z)
    }

    /// Number of cached transfer functions (exposed for cache-behaviour
    /// tests and capacity planning). Shared across clones.
    pub fn cached_transfer_count(&self) -> usize {
        holoar_fft::lock_unpoisoned(&self.transfer).len()
    }

    /// The transfer function for one distance (warming the cache), or
    /// `None` for the zero-distance identity.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not finite.
    fn transfer_at(&self, rows: usize, cols: usize, cfg: OpticalConfig, z: f64) -> Option<Transfer> {
        assert!(z.is_finite(), "propagation distance must be finite");
        (z != 0.0).then(|| self.transfer(rows, cols, cfg, z))
    }

    /// The cached (or newly built) transfer function for one distance.
    fn transfer(&self, rows: usize, cols: usize, cfg: OpticalConfig, z: f64) -> Transfer {
        let key =
            (rows, cols, z.to_bits(), cfg.wavelength.to_bits(), cfg.pitch.to_bits());
        match holoar_fft::lock_unpoisoned(&self.transfer).entry(key) {
            std::collections::hash_map::Entry::Occupied(hit) => {
                holoar_telemetry::counter_add("optics.transfer_cache.hit", 1);
                hit.get().clone()
            }
            std::collections::hash_map::Entry::Vacant(miss) => {
                holoar_telemetry::counter_add("optics.transfer_cache.miss", 1);
                let _span = holoar_telemetry::span_cat("optics.transfer.build", "optics");
                miss.insert(Arc::new(transfer_function(
                    rows,
                    cols,
                    cfg.pitch,
                    cfg.wavelength,
                    z,
                )))
                .clone()
            }
        }
    }

    /// The cached (or newly planned) FFT for a shape. Clones of the cached
    /// transform share its scratch arena, so every propagator sharing this
    /// cache recycles one set of buffers per shape.
    fn fft(&self, rows: usize, cols: usize) -> Fft2d {
        match holoar_fft::lock_unpoisoned(&self.ffts).entry((rows, cols)) {
            std::collections::hash_map::Entry::Occupied(hit) => {
                holoar_telemetry::counter_add("optics.fft_cache.hit", 1);
                hit.get().clone()
            }
            std::collections::hash_map::Entry::Vacant(miss) => {
                holoar_telemetry::counter_add("optics.fft_cache.miss", 1);
                miss.insert(Fft2d::new(rows, cols)).clone()
            }
        }
    }
}

/// `FFT(field)`.
fn spectrum_of(field: &Field, fft: &Fft2d) -> Vec<Complex64> {
    let mut spectrum = field.samples().to_vec();
    fft.forward(&mut spectrum);
    spectrum
}

/// Multiplies a spectrum by a transfer function, sample by sample.
fn multiply(spectrum: &mut [Complex64], h: &[Complex64]) {
    for (s, t) in spectrum.iter_mut().zip(h) {
        *s *= *t;
    }
}

/// `IFFT(spectrum)` as a field.
fn field_from(
    mut spectrum: Vec<Complex64>,
    fft: &Fft2d,
    rows: usize,
    cols: usize,
    cfg: OpticalConfig,
) -> Field {
    fft.inverse(&mut spectrum);
    Field::from_data(rows, cols, cfg, spectrum)
}

/// Builds the (band-limited) angular-spectrum transfer function for a
/// `rows × cols` grid in FFT (DC-at-corner) index order.
fn transfer_function(rows: usize, cols: usize, pitch: f64, wavelength: f64, z: f64) -> Vec<Complex64> {
    let k = 2.0 * std::f64::consts::PI / wavelength;
    let dfx = 1.0 / (cols as f64 * pitch);
    let dfy = 1.0 / (rows as f64 * pitch);
    // Band limit after Matsushima & Shimobaba (2009): frequencies beyond
    // `1 / (λ·sqrt((2·Δf·z)² + 1))` alias for the given propagation distance
    // and aperture, so the transfer function is zeroed there.
    let fx_max = 1.0 / (wavelength * ((2.0 * dfx * z.abs()).powi(2) + 1.0).sqrt());
    let fy_max = 1.0 / (wavelength * ((2.0 * dfy * z.abs()).powi(2) + 1.0).sqrt());

    let mut h = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        // FFT bin → signed frequency.
        let fr = if r <= rows / 2 { r as f64 } else { r as f64 - rows as f64 } * dfy;
        for c in 0..cols {
            let fc = if c <= cols / 2 { c as f64 } else { c as f64 - cols as f64 } * dfx;
            let s = 1.0 - (wavelength * fc).powi(2) - (wavelength * fr).powi(2);
            let within_band = fc.abs() <= fx_max && fr.abs() <= fy_max;
            if s >= 0.0 && within_band {
                h.push(Complex64::cis(k * z * s.sqrt()));
            } else if s < 0.0 {
                // Evanescent: decays as exp(-k|z|·sqrt(-s)).
                let decay = (-k * z.abs() * (-s).sqrt()).exp();
                h.push(Complex64::from(decay));
            } else {
                h.push(Complex64::ZERO);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::OpticalConfig;

    fn point_source(n: usize) -> Field {
        let mut f = Field::zeros(n, n, OpticalConfig::default());
        f.set(n / 2, n / 2, Complex64::ONE);
        f
    }

    #[test]
    fn zero_distance_is_identity() {
        let f = point_source(16);
        let mut p = Propagator::new();
        let out = p.propagate(&f, 0.0);
        assert_eq!(out.samples(), f.samples());
    }

    #[test]
    fn forward_backward_roundtrip() {
        let f = point_source(32);
        let mut p = Propagator::new();
        let mid = p.propagate(&f, 0.003);
        let out = p.dp2hp(&mid, 0.003);
        // Peak should return to the center with most of its energy.
        assert!(out.intensity_at(16, 16) > 0.9);
        let off_peak: f64 = out
            .intensity()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 16 * 32 + 16)
            .map(|(_, v)| v)
            .sum();
        assert!(off_peak < 0.1);
    }

    #[test]
    fn energy_approximately_conserved_for_propagating_field() {
        // A smooth Gaussian blob has negligible evanescent content.
        let n = 64;
        let cfg = OpticalConfig::default();
        let mut f = Field::zeros(n, n, cfg);
        for r in 0..n {
            for c in 0..n {
                let dr = r as f64 - n as f64 / 2.0;
                let dc = c as f64 - n as f64 / 2.0;
                let a = (-(dr * dr + dc * dc) / 50.0).exp();
                f.set(r, c, Complex64::new(a, 0.0));
            }
        }
        let e0 = f.total_energy();
        let out = Propagator::new().propagate(&f, 0.001);
        let e1 = out.total_energy();
        assert!((e0 - e1).abs() / e0 < 0.02, "e0={e0} e1={e1}");
    }

    #[test]
    fn point_source_spreads_with_distance() {
        let f = point_source(64);
        let mut p = Propagator::new();
        let near = p.propagate(&f, 0.0005);
        let far = p.propagate(&f, 0.005);
        // Farther propagation ⇒ lower peak intensity (energy spread wider).
        let peak = |fld: &Field| fld.intensity().iter().cloned().fold(0.0, f64::max);
        assert!(peak(&far) < peak(&near));
    }

    #[test]
    fn propagation_is_reciprocal() {
        // propagate(+z) then propagate(-z) equals identity for band-limited
        // content; check sample-wise on a Gaussian.
        let n = 32;
        let cfg = OpticalConfig::default();
        let mut f = Field::zeros(n, n, cfg);
        for r in 0..n {
            for c in 0..n {
                let dr = r as f64 - 16.0;
                let dc = c as f64 - 16.0;
                f.set(r, c, Complex64::new((-(dr * dr + dc * dc) / 30.0).exp(), 0.0));
            }
        }
        let mut p = Propagator::new();
        let fwd = p.propagate(&f, 0.002);
        let back = p.propagate(&fwd, -0.002);
        for (a, b) in back.samples().iter().zip(f.samples()) {
            assert!((*a - *b).norm() < 0.05);
        }
    }

    #[test]
    fn transfer_functions_are_cached() {
        let f = point_source(16);
        let mut p = Propagator::new();
        p.propagate(&f, 0.001);
        p.propagate(&f, 0.001);
        assert_eq!(p.cached_transfer_count(), 1);
        p.propagate(&f, 0.002);
        assert_eq!(p.cached_transfer_count(), 2);
    }

    #[test]
    fn context_propagators_share_caches() {
        let ctx = ExecutionContext::serial();
        let f = point_source(16);
        let mut a = Propagator::with_context(&ctx);
        let mut b = Propagator::with_context(&ctx);
        a.propagate(&f, 0.001);
        assert_eq!(b.cached_transfer_count(), 1);
        b.propagate(&f, 0.001); // hit in the shared cache, not a rebuild
        assert_eq!(a.cached_transfer_count(), 1);
        // A different context gets its own caches.
        let other = Propagator::with_context(&ExecutionContext::serial());
        assert_eq!(other.cached_transfer_count(), 0);
    }

    #[test]
    fn clones_share_the_transfer_cache() {
        let f = point_source(16);
        let mut a = Propagator::new();
        let mut b = a.clone();
        a.propagate(&f, 0.001);
        assert_eq!(b.cached_transfer_count(), 1);
        b.propagate(&f, 0.001); // hit, not a rebuild
        assert_eq!(a.cached_transfer_count(), 1);
    }

    #[test]
    fn batch_matches_serial_bit_for_bit() {
        let f = point_source(24);
        let zs = [0.001, 0.0, -0.002, 0.003, 0.001];
        let serial: Vec<Field> = {
            let mut p = Propagator::new();
            zs.iter().map(|&z| p.propagate(&f, z)).collect()
        };
        for workers in [1usize, 2, 7] {
            let mut p = Propagator::with_parallelism(Parallelism::new(workers));
            let batch = p.propagate_batch(&f, &zs);
            assert_eq!(batch.len(), serial.len());
            for (i, (a, b)) in batch.iter().zip(&serial).enumerate() {
                assert_eq!(a.samples(), b.samples(), "plane {i} workers {workers}");
            }
            assert_eq!(p.cached_transfer_count(), 3, "0.001 and -0.002 and 0.003");
        }
    }

    #[test]
    fn windowed_batch_matches_the_batch_inside_each_window() {
        let mut f = gaussian(24);
        f.set(3, 20, Complex64::new(0.5, -0.25));
        let zs = [0.001, 0.0, -0.002, 0.003, 0.001];
        let windows = [3..9, 5..6, 0..0, 0..24, 23..24];
        let bits = |z: &Complex64| (z.re.to_bits(), z.im.to_bits());
        let full = Propagator::new().propagate_batch(&f, &zs);
        for workers in [1usize, 2, 7] {
            let mut p = Propagator::with_parallelism(Parallelism::new(workers));
            let windowed = p.propagate_batch_window(&f, &zs, |i| windows[i].clone());
            assert_eq!(windowed.len(), zs.len());
            assert_eq!(p.cached_transfer_count(), 3, "0.001 and -0.002 and 0.003");
            for (i, ((energy, u), want)) in windowed.iter().zip(&full).enumerate() {
                let at = format!("plane {i} workers {workers}");
                for (got, want) in u.samples().chunks(24).zip(want.samples().chunks(24)) {
                    let (got, want) = (&got[windows[i].clone()], &want[windows[i].clone()]);
                    assert!(got.iter().map(bits).eq(want.iter().map(bits)), "{at}");
                }
                let spatial = want.total_energy();
                assert!((energy - spatial).abs() <= 1e-12 * spatial, "{at}: {energy} vs {spatial}");
            }
            // A zero distance is the identity, with the field's own energy.
            assert_eq!(windowed[1].1.samples(), f.samples());
            assert_eq!(windowed[1].0.to_bits(), f.total_energy().to_bits());
        }
    }

    #[test]
    fn propagate_sum_returns_the_shared_shape() {
        let (a, b) = (point_source(16), gaussian(16));
        let zs = [0.001, 0.0];
        let mut p = Propagator::with_parallelism(Parallelism::new(2));
        let sum = p.propagate_sum(&[a.clone(), b.clone()], &zs);
        assert_eq!((sum.rows(), sum.cols()), (16, 16));
        let mut serial = Propagator::new();
        let mut want = serial.propagate(&a, 0.001);
        want.accumulate(&b);
        for (x, y) in sum.samples().iter().zip(want.samples()) {
            assert!((*x - *y).norm() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn propagate_sum_rejects_mixed_shapes() {
        let fields = [point_source(8), point_source(16)];
        Propagator::new().propagate_sum(&fields, &[0.001, 0.002]);
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn propagate_sum_rejects_an_empty_sum() {
        Propagator::new().propagate_sum(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_distance_panics() {
        Propagator::new().propagate(&point_source(8), f64::NAN);
    }

    fn gaussian(n: usize) -> Field {
        let cfg = OpticalConfig::default();
        let mut f = Field::zeros(n, n, cfg);
        for r in 0..n {
            for c in 0..n {
                let dr = r as f64 - n as f64 / 2.0;
                let dc = c as f64 - n as f64 / 2.0;
                f.set(r, c, Complex64::new((-(dr * dr + dc * dc) / 40.0).exp(), 0.0));
            }
        }
        f
    }

    #[test]
    fn dc_component_phase_advances_with_z() {
        // A constant field is pure DC: propagation multiplies by e^{ikz}.
        let n = 8;
        let cfg = OpticalConfig::default();
        let f = Field::from_amplitude(n, n, cfg, &vec![1.0; n * n]);
        let z = 1e-6;
        let out = Propagator::new().propagate(&f, z);
        let want = Complex64::cis(cfg.wavenumber() * z);
        for s in out.samples() {
            assert!((*s - want).norm() < 1e-9);
        }
    }
}
