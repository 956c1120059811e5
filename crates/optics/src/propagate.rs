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
//! and its `DP2HP` (depth plane → hologram plane) is propagation by `−z`.
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
//!   runs none, and a visitor reads the result inside its pooled buffer,
//!   with the energy, taken from the spectrum product by Parseval, when
//!   the caller asks for it.
//! - [`Propagator::propagate_sum`] returns `Σᵢ propagate(fieldsᵢ, zsᵢ)` by
//!   accumulating the spectrum products and running one inverse transform
//!   (`n + 1` transforms for `n` fields). It is bit-identical for every
//!   worker count and matches the spatial sum up to floating-point
//!   rounding. [`Propagator::propagate_sum_from`] is the same sum over
//!   fields that a callback writes straight into the transform buffers,
//!   written into a caller's field.
//!
//! The sweeps allocate no full-grid buffer in steady state: the source
//! spectrum, every product and every sum term come from a pool of
//! full-grid buffers (a [`ScratchArena`] cached per shape next to the
//! transform) and go back once read. Only [`Propagator::propagate`],
//! [`Propagator::propagate_batch`] and [`Propagator::propagate_sum`],
//! whose results the caller keeps, allocate their outputs. A pooled
//! buffer is read only inside its window and only while its visitor runs;
//! outside the window it holds stale samples from an earlier plane.
//!
//! Sources that are zero outside a few rows, such as depth planes, pay
//! only for their non-zero rows in the forward row pass
//! ([`Fft2d::forward`] skips all-zero rows); the count of transforms does
//! not change.
//!
//! The transfer-function cache stores one quadrant per table: the
//! `(rows/2 + 1) × (cols/2 + 1)` samples of non-negative frequency, a
//! quarter of the full `rows × cols` grid, built with a quarter of the
//! square roots and `sin`/`cos`/`exp` calls. Every spectral product reads
//! the quadrant mirrored, and that is exact: the builder reads a bin only
//! through its signed frequency's square and absolute value, and bins `k`
//! and `n − k` have frequencies `m·Δf` and `−m·Δf`, both exact negations of
//! each other (the bin-to-`f64` conversion is exact and `(−x)·y = −(x·y)`).
//! So bin `k` and bin `n − k` hold the same bits in every row and column,
//! and the mirrored quadrant is the full table bit for bit.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use holoar_fft::{ArenaCounters, Complex64, ExecutionContext, Fft2d, Parallelism, ScratchArena};

use crate::field::{Field, OpticalConfig};

/// Cache key for a transfer function: shape plus the bit patterns of the
/// distance, wavelength and pixel pitch that define it.
type TransferKey = (usize, usize, u64, u64, u64);

/// A transfer function on a `rows × cols` grid, stored as its quadrant of
/// non-negative frequencies (see the module docs for why mirroring it is
/// exact): `(rows/2 + 1) × (cols/2 + 1)` samples, row-major.
#[derive(Debug)]
struct Transfer {
    rows: usize,
    cols: usize,
    quadrant: Vec<Complex64>,
}

/// Shared map of planned transforms and their buffer pools, by shape.
type FftMap = Arc<Mutex<HashMap<(usize, usize), Grid>>>;

/// One grid shape's planned transform and the pool of full-grid buffers
/// the sweeps over that shape run in: source spectra, per-distance
/// products and sum terms, all `rows × cols` long. The transform's own
/// column and row scratch stays in the transform's arena, so buffers of
/// one length never trade places with scratch of another. Clones share
/// both.
#[derive(Debug, Clone)]
struct Grid {
    fft: Fft2d,
    buffers: Arc<ScratchArena>,
}

/// The counters the sweeps' full-grid pools count under, apart from the
/// transforms' own `fft.arena.*` scratch.
const GRID_POOL: ArenaCounters = ArenaCounters {
    reuse: "optics.pool.take.reuse",
    alloc: "optics.pool.take.alloc",
    give: "optics.pool.give",
};

/// Shared transfer-function map.
type TransferMap = Arc<Mutex<HashMap<TransferKey, Arc<Transfer>>>>;

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
/// assert!(back.samples()[16 * 32 + 16].norm_sqr() > 0.9);
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
    // holoar-lint: allow(unreached, reason = "test seam: propagate_batch_is_bit_identical, propagate_sum_matches_the_spatial_sum and parallel_propagation_any_shape_is_bit_identical in optics tests/properties.rs, and the propagate unit tests, set the worker count through it")
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
        let fft = self.grid(rows, cols).fft;
        let h = self.transfer(rows, cols, field.config(), z);
        let mut spectrum = field.samples().to_vec();
        fft.forward(&mut spectrum);
        h.multiply(&mut spectrum);
        fft.inverse(&mut spectrum);
        Field::from_data(rows, cols, field.config(), spectrum)
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
        let states = &mut vec![(); zs.len()];
        self.map_products(field, zs, states, |_| true, |fft, _, product| match product {
            None => field.clone(),
            Some(product) => {
                fft.inverse(product);
                Field::from_data(rows, cols, cfg, product.to_vec())
            }
        })
    }

    /// [`Propagator::propagate_batch`] for callers that read distance `i`'s
    /// field only in the columns `window(&states[i])`, and only while a
    /// visitor runs: each result is handed to `visit` inside a pooled
    /// transform buffer, and the visitors' values come back in `zs` order.
    ///
    /// `states` holds one caller value per distance. `visit(&mut states[i],
    /// energy, samples)` runs once per distance, on the worker that built
    /// the result; `samples` is its row-major `rows × cols` grid. Each
    /// non-zero distance inverts its spectrum product over its window alone
    /// ([`Fft2d::inverse_window`]), so columns inside the window are
    /// bit-identical to `propagate_batch`. Every other column holds
    /// whatever the reused buffer held before and must not be read; an
    /// empty window runs no inverse, and without `energy` builds no
    /// product either, so its `samples` are empty. The buffer returns to
    /// the pool when `visit` does. A zero distance visits the field itself.
    ///
    /// With `energy` set, `visit` also gets the field's total energy
    /// `Σ|u|²`: from the product by Parseval, `Σ|S·H|²/N` for
    /// `N = rows·cols`, so it equals the spatial sum up to rounding, and
    /// the spatial sum itself for a zero distance. Without it, `visit`
    /// gets `None` and no energy pass runs.
    ///
    /// # Panics
    ///
    /// Panics if `states` and `zs` differ in length, any distance is not
    /// finite or a window is not within `0..field.cols()`.
    pub fn propagate_batch_window<S, T, W, V>(
        &mut self,
        field: &Field,
        zs: &[f64],
        states: &mut [S],
        window: W,
        energy: bool,
        visit: V,
    ) -> Vec<T>
    where
        S: Send,
        T: Send,
        W: Fn(&S) -> Range<usize> + Sync,
        V: Fn(&mut S, Option<f64>, &[Complex64]) -> T + Sync,
    {
        let _span = holoar_telemetry::span_cat("optics.propagate_batch_window", "optics");
        let n = (field.rows() * field.cols()) as f64;
        let reads = |state: &S| energy || !window(state).is_empty();
        self.map_products(field, zs, states, reads, |fft, state, product| match product {
            None => visit(state, energy.then(|| field.total_energy()), field.samples()),
            Some(product) => {
                let total = energy.then(|| product.iter().map(|z| z.norm_sqr()).sum::<f64>() / n);
                // A product `reads` rejected is empty and must not reach
                // the transform's shape check.
                let cols = window(state);
                if !cols.is_empty() {
                    fft.inverse_window(product, cols);
                }
                visit(state, total, product)
            }
        })
    }

    /// The per-distance loop behind the batch propagations: transforms
    /// `field` once, then hands each distance's spectrum product
    /// `FFT(field) · H(zs[i])` (`None` for a zero distance) to
    /// `finish(fft, &mut states[i], product)` on the worker that built it.
    /// A non-zero distance whose state `reads` rejects gets an empty
    /// product instead, and no product is built for it. The spectrum and
    /// every product live in buffers from the grid's pool, which gets them
    /// back once read. Transfer functions are built (and cached) in `zs`
    /// order up front.
    ///
    /// # Panics
    ///
    /// Panics if `states` and `zs` differ in length or any distance is not
    /// finite.
    fn map_products<S, T, F>(
        &mut self,
        field: &Field,
        zs: &[f64],
        states: &mut [S],
        reads: impl Fn(&S) -> bool + Sync,
        finish: F,
    ) -> Vec<T>
    where
        S: Send,
        T: Send,
        F: Fn(&Fft2d, &mut S, Option<&mut [Complex64]>) -> T + Sync,
    {
        assert_eq!(states.len(), zs.len(), "one state per distance");
        let (rows, cols) = (field.rows(), field.cols());
        // Warm the transfer cache serially so insertion order (and therefore
        // the cache's size) matches the serial loop exactly.
        let mut jobs: Vec<(Option<Arc<Transfer>>, &mut S)> = zs
            .iter()
            .map(|&z| self.transfer_at(rows, cols, field.config(), z))
            .zip(states.iter_mut())
            .collect();
        let Grid { fft, buffers } = self.grid(rows, cols);
        let mut spectrum = Vec::new();
        if jobs.iter().any(|(h, state)| h.is_some() && reads(state)) {
            spectrum = buffers.take_from(field.samples().iter().copied());
            fft.forward(&mut spectrum);
        }
        let results = self.par.map_mut(&mut jobs, |(h, state)| match h {
            None => finish(&fft, state, None),
            Some(_) if !reads(state) => finish(&fft, state, Some(&mut [])),
            Some(h) => {
                let mut product = h.product(&buffers, &spectrum);
                let result = finish(&fft, state, Some(&mut product));
                buffers.give(product);
                result
            }
        });
        buffers.give(spectrum);
        results
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
        let jobs: Vec<(usize, Option<Arc<Transfer>>)> = fields
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
        let mut sum = Field::zeros(rows, cols, cfg);
        self.sum_products(&mut sum, &jobs, |i, buf| buf.copy_from_slice(fields[i].samples()));
        sum
    }

    /// [`Propagator::propagate_sum`] over fields built in place, written
    /// into `out`: term `i` is whatever `build(i, buf)` writes into a
    /// zeroed buffer of `out`'s shape, which is then transformed where it
    /// lies. Every term propagates with `out`'s optical configuration, and
    /// `out` ends up bit-identical to `propagate_sum` over the same fields.
    /// The term buffers come from the grid's buffer pool, so a caller that
    /// keeps `out` across calls allocates no full-grid buffer per call.
    ///
    /// # Panics
    ///
    /// Panics if `zs` is empty or any distance is not finite.
    pub fn propagate_sum_from<F>(&mut self, zs: &[f64], out: &mut Field, build: F)
    where
        F: Fn(usize, &mut [Complex64]) + Sync,
    {
        assert!(!zs.is_empty(), "propagate_sum needs at least one field");
        let _span = holoar_telemetry::span_cat("optics.propagate_sum", "optics");
        let (rows, cols, cfg) = (out.rows(), out.cols(), out.config());
        let jobs: Vec<(usize, Option<Arc<Transfer>>)> = zs
            .iter()
            .enumerate()
            .map(|(i, &z)| (i, self.transfer_at(rows, cols, cfg, z)))
            .collect();
        self.sum_products(out, &jobs, build);
    }

    /// Writes `IFFT(Σⱼ FFT(source(j)) · Hⱼ)` over `jobs = [(j, Hⱼ)]` into
    /// `out`, where `source(j, buf)` fills a zeroed buffer of `out`'s
    /// shape. Each term fans out over the workers, in a buffer from the
    /// grid's pool; the sum runs serially in job order. A term is folded
    /// into `out` as soon as it is ready if every earlier term already is,
    /// so one worker holds one term buffer at a time; a term that is ready
    /// early waits in its buffer and is folded in after the fan-out.
    fn sum_products<S>(&self, out: &mut Field, jobs: &[(usize, Option<Arc<Transfer>>)], source: S)
    where
        S: Fn(usize, &mut [Complex64]) + Sync,
    {
        let Grid { fft, buffers } = self.grid(out.rows(), out.cols());
        // The number of terms folded so far, and their sum.
        let fold = Mutex::new((0usize, out.samples_mut()));
        let early = self.par.map(jobs, |(j, h)| {
            let mut term = buffers.take(fft.len());
            source(*j, &mut term);
            fft.forward(&mut term);
            if let Some(h) = h {
                h.multiply(&mut term);
            }
            let mut sum = holoar_fft::lock_unpoisoned(&fold);
            if sum.0 != *j {
                return Some(term);
            }
            fold_term(&mut sum, &term);
            drop(sum);
            buffers.give(term);
            None
        });
        let mut sum = fold.into_inner().unwrap_or_else(PoisonError::into_inner);
        for term in early.into_iter().flatten() {
            fold_term(&mut sum, &term);
            buffers.give(term);
        }
        fft.inverse(sum.1);
    }

    /// The transfer function for one distance (warming the cache), or
    /// `None` for the zero-distance identity.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not finite.
    fn transfer_at(
        &self,
        rows: usize,
        cols: usize,
        cfg: OpticalConfig,
        z: f64,
    ) -> Option<Arc<Transfer>> {
        assert!(z.is_finite(), "propagation distance must be finite");
        (z != 0.0).then(|| self.transfer(rows, cols, cfg, z))
    }

    /// The cached (or newly built) transfer function for one distance.
    fn transfer(&self, rows: usize, cols: usize, cfg: OpticalConfig, z: f64) -> Arc<Transfer> {
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
                miss.insert(Arc::new(Transfer::new(rows, cols, cfg.pitch, cfg.wavelength, z)))
                    .clone()
            }
        }
    }

    /// The cached (or newly planned) transform and buffer pool for a
    /// shape. Clones share the transform's scratch arena and the pool, so
    /// every propagator sharing this cache recycles one set of buffers per
    /// shape.
    fn grid(&self, rows: usize, cols: usize) -> Grid {
        match holoar_fft::lock_unpoisoned(&self.ffts).entry((rows, cols)) {
            std::collections::hash_map::Entry::Occupied(hit) => {
                holoar_telemetry::counter_add("optics.fft_cache.hit", 1);
                hit.get().clone()
            }
            std::collections::hash_map::Entry::Vacant(miss) => {
                holoar_telemetry::counter_add("optics.fft_cache.miss", 1);
                let buffers = Arc::new(ScratchArena::counted(&GRID_POOL));
                let grid = Grid { fft: Fft2d::new(rows, cols), buffers };
                miss.insert(grid).clone()
            }
        }
    }
}

/// Folds the next term into a running sum `(terms so far, sum)`: the
/// first term is copied, every later one added sample by sample.
fn fold_term((count, sum): &mut (usize, &mut [Complex64]), term: &[Complex64]) {
    if *count == 0 {
        sum.copy_from_slice(term);
    } else {
        for (s, t) in sum.iter_mut().zip(term) {
            *s += *t;
        }
    }
    *count += 1;
}

impl Transfer {
    /// Builds the quadrant of the (band-limited) angular-spectrum transfer
    /// function for a `rows × cols` grid in FFT (DC-at-corner) index order:
    /// the bins `0..=rows/2` by `0..=cols/2`, whose signed frequencies are
    /// the non-negative ones.
    fn new(rows: usize, cols: usize, pitch: f64, wavelength: f64, z: f64) -> Self {
        let k = 2.0 * std::f64::consts::PI / wavelength;
        let dfx = 1.0 / (cols as f64 * pitch);
        let dfy = 1.0 / (rows as f64 * pitch);
        // Band limit after Matsushima & Shimobaba (2009): frequencies beyond
        // `1 / (λ·sqrt((2·Δf·z)² + 1))` alias for the given propagation
        // distance and aperture, so the transfer function is zeroed there.
        let fx_max = 1.0 / (wavelength * ((2.0 * dfx * z.abs()).powi(2) + 1.0).sqrt());
        let fy_max = 1.0 / (wavelength * ((2.0 * dfy * z.abs()).powi(2) + 1.0).sqrt());

        let mut quadrant = Vec::with_capacity((rows / 2 + 1) * (cols / 2 + 1));
        for r in 0..=rows / 2 {
            let fr = r as f64 * dfy;
            for c in 0..=cols / 2 {
                let fc = c as f64 * dfx;
                let s = 1.0 - (wavelength * fc).powi(2) - (wavelength * fr).powi(2);
                let within_band = fc.abs() <= fx_max && fr.abs() <= fy_max;
                quadrant.push(if s >= 0.0 && within_band {
                    Complex64::cis(k * z * s.sqrt())
                } else if s < 0.0 {
                    // Evanescent: decays as exp(-k|z|·sqrt(-s)).
                    Complex64::from((-k * z.abs() * (-s).sqrt()).exp())
                } else {
                    Complex64::ZERO
                });
            }
        }
        Transfer { rows, cols, quadrant }
    }

    /// Multiplies `spectrum` by `H` in place, row by row through
    /// [`Transfer::halves`].
    fn multiply(&self, spectrum: &mut [Complex64]) {
        for (r, row) in spectrum.chunks_exact_mut(self.cols).enumerate() {
            let (front, mirrored) = self.halves(r);
            let (head, tail) = row.split_at_mut(front.len());
            for (s, t) in head.iter_mut().zip(front) {
                *s *= *t;
            }
            for (s, t) in tail.iter_mut().zip(mirrored.iter().rev()) {
                *s *= *t;
            }
        }
    }

    /// The product `spectrum · H` in a buffer checked out of `buffers`,
    /// written row by row through [`Transfer::halves`].
    fn product(&self, buffers: &ScratchArena, spectrum: &[Complex64]) -> Vec<Complex64> {
        // An empty checkout counts as a reuse exactly when the pool has a
        // buffer, and a grid's pool holds only full-grid buffers.
        let mut product = buffers.take(0);
        product.reserve(spectrum.len());
        for (r, row) in spectrum.chunks_exact(self.cols).enumerate() {
            let (front, mirrored) = self.halves(r);
            let (head, tail) = row.split_at(front.len());
            product.extend(head.iter().zip(front).map(|(s, t)| *s * *t));
            product.extend(tail.iter().zip(mirrored.iter().rev()).map(|(s, t)| *s * *t));
        }
        product
    }

    /// Row `r` of the full table as two quadrant slices: its first
    /// `cols/2 + 1` samples are `front`, and the rest are `mirrored`
    /// walked in reverse. Row `r` mirrors quadrant row `min(r, rows − r)`,
    /// and column `c > cols/2` mirrors quadrant column `cols − c`.
    fn halves(&self, r: usize) -> (&[Complex64], &[Complex64]) {
        let width = self.cols / 2 + 1;
        let q = r.min(self.rows - r);
        let front = &self.quadrant[q * width..(q + 1) * width];
        (front, &front[1..self.cols + 1 - width])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::OpticalConfig;

    impl Propagator {
        /// Number of cached transfer functions, shared across clones.
        fn cached_transfer_count(&self) -> usize {
            holoar_fft::lock_unpoisoned(&self.transfer).len()
        }

        /// Number of samples the cached transfer functions hold.
        fn cached_transfer_samples(&self) -> usize {
            let cache = holoar_fft::lock_unpoisoned(&self.transfer);
            cache.values().map(|h| h.quadrant.len()).sum()
        }
    }

    /// The full `rows × cols` transfer function evaluated bin by bin, each
    /// bin from its own signed frequency: the oracle the cached quadrant,
    /// read mirrored, must equal bit for bit.
    fn full_grid(rows: usize, cols: usize, pitch: f64, wavelength: f64, z: f64) -> Vec<Complex64> {
        let k = 2.0 * std::f64::consts::PI / wavelength;
        let dfx = 1.0 / (cols as f64 * pitch);
        let dfy = 1.0 / (rows as f64 * pitch);
        let fx_max = 1.0 / (wavelength * ((2.0 * dfx * z.abs()).powi(2) + 1.0).sqrt());
        let fy_max = 1.0 / (wavelength * ((2.0 * dfy * z.abs()).powi(2) + 1.0).sqrt());
        // FFT bin → signed frequency index.
        let signed =
            |bin: usize, n: usize| if bin <= n / 2 { bin as f64 } else { bin as f64 - n as f64 };
        let mut h = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let fr = signed(r, rows) * dfy;
            for c in 0..cols {
                let fc = signed(c, cols) * dfx;
                let s = 1.0 - (wavelength * fc).powi(2) - (wavelength * fr).powi(2);
                let within_band = fc.abs() <= fx_max && fr.abs() <= fy_max;
                if s >= 0.0 && within_band {
                    h.push(Complex64::cis(k * z * s.sqrt()));
                } else if s < 0.0 {
                    h.push(Complex64::from((-k * z.abs() * (-s).sqrt()).exp()));
                } else {
                    h.push(Complex64::ZERO);
                }
            }
        }
        h
    }

    #[test]
    fn mirrored_quadrant_is_the_full_grid_bit_for_bit() {
        let bits = |z: &Complex64| (z.re.to_bits(), z.im.to_bits());
        let cfg = OpticalConfig::default();
        // Below λ/2 the outer bins are evanescent (`s < 0`).
        let fine = cfg.wavelength / 3.0;
        // At 64×64 and the default pitch, 5 cm zeroes every bin past the
        // band limit.
        let zs = [0.002, -0.002, 1e-6, -0.0137, 0.05, -0.05];
        let shapes = [(64, 64), (40, 40), (24, 24), (5, 7), (7, 5), (1, 8), (8, 1)];
        let (mut evanescent, mut band_zeroed) = (false, false);
        for (rows, cols) in shapes {
            for pitch in [cfg.pitch, fine] {
                for z in zs {
                    let h = Transfer::new(rows, cols, pitch, cfg.wavelength, z);
                    assert_eq!(h.quadrant.len(), (rows / 2 + 1) * (cols / 2 + 1));
                    let mirrored = (0..rows).flat_map(|r| {
                        let (front, mirrored) = h.halves(r);
                        front.iter().chain(mirrored.iter().rev())
                    });
                    let want = full_grid(rows, cols, pitch, cfg.wavelength, z);
                    let at = format!("{rows}x{cols} pitch {pitch:e} z {z}");
                    assert!(mirrored.map(bits).eq(want.iter().map(bits)), "{at}");
                    evanescent |= want.iter().any(|t| t.im == 0.0 && t.re > 0.0 && t.re < 1.0);
                    band_zeroed |= want.contains(&Complex64::ZERO);
                }
            }
        }
        assert!(evanescent && band_zeroed, "the cases must reach both special bins");
    }

    #[test]
    fn cached_tables_hold_one_quadrant() {
        for (n, quadrant) in [(64, 33 * 33), (40, 21 * 21)] {
            let mut p = Propagator::new();
            p.propagate(&point_source(n), 0.001);
            p.propagate(&point_source(n), -0.001);
            assert_eq!(p.cached_transfer_samples(), 2 * quadrant, "{n}x{n}");
        }
    }

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
        let out = p.propagate(&mid, -0.003);
        // Peak should return to the center with most of its energy.
        assert!(out.samples()[16 * 32 + 16].norm_sqr() > 0.9);
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
        // Each energy as an owned product's Parseval sum, `Σ|S·H|²/N`, and
        // the field's own energy at the zero distance.
        let oracle = Propagator::new();
        let mut spectrum = f.samples().to_vec();
        oracle.grid(24, 24).fft.forward(&mut spectrum);
        let parseval: Vec<u64> = zs
            .iter()
            .map(|&z| match oracle.transfer_at(24, 24, f.config(), z) {
                None => f.total_energy(),
                Some(h) => {
                    let mut product = spectrum.clone();
                    h.multiply(&mut product);
                    product.iter().map(|z| z.norm_sqr()).sum::<f64>() / (24.0 * 24.0)
                }
            })
            .map(f64::to_bits)
            .collect();
        for workers in [1usize, 2, 7] {
            let mut p = Propagator::with_parallelism(Parallelism::new(workers));
            // Each state is a window, the samples its visitor read in it and
            // the whole grid it was handed.
            let mut seen: Vec<(Range<usize>, Vec<Complex64>, Vec<Complex64>)> =
                windows.iter().map(|w| (w.clone(), Vec::new(), Vec::new())).collect();
            // Later rounds run in buffers the earlier ones left stale.
            for (round, energy) in [true, false, true].into_iter().enumerate() {
                let at = format!("round {round} workers {workers}");
                let energies = p.propagate_batch_window(
                    &f,
                    &zs,
                    &mut seen,
                    |(w, _, _)| w.clone(),
                    energy,
                    |(w, got, whole), energy, u| {
                        got.clear();
                        got.extend(u.chunks(24).flat_map(|row| row[w.clone()].to_vec()));
                        whole.clear();
                        whole.extend_from_slice(u);
                        energy.map(f64::to_bits)
                    },
                );
                assert_eq!(p.cached_transfer_count(), 3, "0.001 and -0.002 and 0.003");
                let want: Vec<Option<u64>> =
                    parseval.iter().map(|&e| energy.then_some(e)).collect();
                assert_eq!(energies, want, "{at}");
                for (i, ((w, got, _), want)) in seen.iter().zip(&full).enumerate() {
                    let spatial = want.total_energy();
                    let want = want.samples().chunks(24).flat_map(|row| row[w.clone()].to_vec());
                    assert!(got.iter().map(bits).eq(want.map(|z| bits(&z))), "plane {i} {at}");
                    // Parseval agrees with the spatial sum up to rounding.
                    if let Some(energy) = energies[i].map(f64::from_bits) {
                        let err = (energy - spatial).abs();
                        assert!(err <= 1e-12 * spatial, "plane {i} {at}: {energy} vs {spatial}");
                    }
                }
                // A zero distance visits the field itself, every sample.
                assert_eq!(seen[1].2, f.samples(), "{at}");
                // An empty window builds its product only for the energy.
                assert_eq!(seen[2].2.len(), if energy { 24 * 24 } else { 0 }, "{at}");
            }
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
        let f = Field::from_data(n, n, cfg, vec![Complex64::ONE; n * n]);
        let z = 1e-6;
        let out = Propagator::new().propagate(&f, z);
        let wavenumber = 2.0 * std::f64::consts::PI / cfg.wavelength;
        let want = Complex64::cis(wavenumber * z);
        for s in out.samples() {
            assert!((*s - want).norm() < 1e-9);
        }
    }
}
