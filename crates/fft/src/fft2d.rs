//! Two-dimensional FFT over row-major buffers, plus the `fftshift` helpers
//! wave-optics code leans on.
//!
//! The 2-D transform is separable: FFT every row, then FFT every column.
//! For 2·3·5-smooth column lengths the column pass does not transpose:
//! each Stockham pass of the column plan runs over whole rows of the
//! buffer, so every column gets exactly the arithmetic the 1-D plan gives
//! it. The first pass reads the caller's buffer, later passes ping-pong
//! between the two halves of one scratch buffer (borrowed from a
//! [`ScratchArena`]), and the result is copied back row by row. Bluestein column
//! lengths (a prime factor above 5; no serving path uses one) gather the
//! columns transposed in cache-sized tiles (see [`transpose_into`]), run
//! the 1-D plan on each contiguous column, and transpose back.
//!
//! A transform runs serially on the calling thread. Callers parallelize one
//! level up, across depth planes and fields, with
//! [`Parallelism::map`](crate::parallel::Parallelism::map).
//!
//! # Sparse planes
//!
//! A depth plane lights a few rows and columns of its grid, so the two
//! per-plane transforms of a propagation skip work whose result is already
//! known or never read, without changing a bit of what is read:
//!
//! - [`Fft2d::forward`] skips the row transform of every all-zero row (on
//!   the packed real path, every all-zero row pair). Its input scan marks
//!   them. A row counts as zero when every bit of it is, and only for row
//!   lengths whose plan maps such a row to itself bit for bit: every
//!   2·3·5-smooth length. Bluestein's chirp products leave `−0.0` in some
//!   bins of a zero row, so Bluestein row lengths transform every row.
//! - [`Fft2d::inverse_window`] runs the whole inverse row pass, then the
//!   column pass over a caller's window of columns only.
//!
//! # Real-input specialization
//!
//! Amplitude planes enter propagation as purely real fields (zero imaginary
//! part): depth-sliced targets, and the first GSW backward sweep before any
//! phase accumulates. [`Fft2d::forward`] detects that case with a cheap scan
//! and routes it through [`Fft2d::forward_real`], which packs **two real
//! rows into one complex row** (`z = a + i·b`), runs half the row
//! transforms, and separates the two spectra with the Hermitian unpack
//! `A[k] = (Z[k] + conj(Z[n−k]))/2`, `B[k] = (Z[k] − conj(Z[n−k]))/(2i)`.
//! Because the public entry point dispatches, the complex path and the real
//! path agree bit-for-bit on real inputs by construction, and the packing
//! works for any row length (mixed-radix and Bluestein alike).

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use crate::complex::Complex64;
use crate::parallel::ScratchArena;
use crate::plan::{FftPlan, FftPlanner};

/// Tile edge for the cache-blocked transpose: 32×32 complex tiles keep both
/// the strided reads and the contiguous writes of a tile resident in L1
/// (32 KiB ≥ 32·32·16 B).
const TRANSPOSE_BLOCK: usize = 32;

/// A planned 2-D FFT for a fixed `(rows, cols)` shape.
///
/// Each planned transform owns a scratch arena that its clones share, so a
/// cached transform and every copy handed out from the cache recycle one
/// set of buffers.
///
/// # Examples
///
/// ```
/// use holoar_fft::{Fft2d, Complex64};
///
/// let fft = Fft2d::new(4, 8);
/// let mut buf = vec![Complex64::ONE; 4 * 8];
/// fft.forward(&mut buf);
/// // A constant image concentrates all energy in the (0, 0) bin.
/// assert!((buf[0].re - 32.0).abs() < 1e-9);
/// assert!(buf[1].norm() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Fft2d {
    rows: usize,
    cols: usize,
    row_plan: FftPlan,
    col_plan: FftPlan,
    /// Whether the row plan maps an all-zero row to itself bit for bit,
    /// so the forward row pass may skip such rows.
    skips_zero_rows: bool,
    arena: Arc<ScratchArena>,
}

impl Fft2d {
    /// Plans a transform for a `rows × cols` row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "2-D FFT dimensions must be non-zero");
        let mut planner = FftPlanner::new();
        let row_plan = planner.plan(cols);
        let col_plan = planner.plan(rows);
        let mut zero_row = vec![Complex64::ZERO; cols];
        row_plan.forward(&mut zero_row);
        let skips_zero_rows = zero_row.iter().all(is_zero_bits);
        Fft2d { rows, cols, row_plan, col_plan, skips_zero_rows, arena: Arc::default() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count (`rows × cols`).
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the buffer shape is empty (never true for constructed plans).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forward 2-D FFT, in place.
    ///
    /// Purely real inputs (every imaginary part exactly zero) are detected
    /// and routed through the packed real-row kernel — same output, roughly
    /// half the row-pass work. See [`Fft2d::forward_real`]. The same scan
    /// finds the all-zero rows, whose row transforms are skipped (see the
    /// module docs); the output is bit-identical to transforming them.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != rows * cols`.
    pub fn forward(&self, buf: &mut [Complex64]) {
        let _span = holoar_telemetry::span_cat("fft.fft2d.forward", "fft");
        self.check_shape(buf);
        with_zero_rows(self.rows, |zero| {
            if self.scan(buf, zero) {
                holoar_telemetry::counter_add("fft.fft2d.real_dispatch", 1);
                self.real_row_pass(buf, zero);
            } else {
                for (row, &zero) in buf.chunks_exact_mut(self.cols).zip(zero.iter()) {
                    if !zero {
                        self.row_plan.forward(row);
                    }
                }
            }
        });
        self.column_pass(buf, 0..self.cols, true);
    }

    /// Forward 2-D FFT of a purely real field, in place.
    ///
    /// This is the kernel [`Fft2d::forward`] dispatches to when its input
    /// scan finds no imaginary energy, exposed for callers that know their
    /// field is an amplitude plane and for the property tests pinning
    /// dispatch equivalence. The two entry points are bit-identical on real
    /// inputs by construction.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != rows * cols` or any sample has a non-zero
    /// imaginary part.
    pub fn forward_real(&self, buf: &mut [Complex64]) {
        let _span = holoar_telemetry::span_cat("fft.fft2d.forward_real", "fft");
        self.check_shape(buf);
        with_zero_rows(self.rows, |zero| {
            assert!(self.scan(buf, zero), "forward_real requires a purely real input field");
            self.real_row_pass(buf, zero);
        });
        self.column_pass(buf, 0..self.cols, true);
    }

    /// Inverse 2-D FFT (with `1/(rows·cols)` normalization), in place.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != rows * cols`.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        let _span = holoar_telemetry::span_cat("fft.fft2d.inverse", "fft");
        self.check_shape(buf);
        self.inverse_rows(buf);
        self.column_pass(buf, 0..self.cols, false);
    }

    /// [`Fft2d::inverse`] for callers that read only the columns in
    /// `cols`: the whole inverse row pass, then the column pass over
    /// `cols` alone. Columns inside the window come out bit-identical to
    /// `inverse`; the samples of every other column are unspecified. An
    /// empty window does no work and records no span.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != rows * cols` or `cols` is not a range
    /// within `0..self.cols()`.
    pub fn inverse_window(&self, buf: &mut [Complex64], cols: Range<usize>) {
        self.check_shape(buf);
        assert!(
            cols.start <= cols.end && cols.end <= self.cols,
            "column window {cols:?} is not within 0..{}",
            self.cols
        );
        if cols.is_empty() {
            return;
        }
        let _span = holoar_telemetry::span_cat("fft.fft2d.inverse_window", "fft");
        self.inverse_rows(buf);
        self.column_pass(buf, cols, false);
    }

    fn check_shape(&self, buf: &[Complex64]) {
        assert_eq!(
            buf.len(),
            self.rows * self.cols,
            "buffer length {} does not match shape {}x{}",
            buf.len(),
            self.rows,
            self.cols
        );
    }

    /// One pass over the rows: flags each row whose every bit is zero in
    /// `zero` (only when the row plan leaves such a row as it is) and
    /// returns whether every imaginary part is zero.
    fn scan(&self, buf: &[Complex64], zero: &mut [bool]) -> bool {
        let mut real = true;
        for (row, zero) in buf.chunks_exact(self.cols).zip(zero.iter_mut()) {
            *zero = self.skips_zero_rows && row.iter().all(is_zero_bits);
            real = real && (*zero || row.iter().all(|z| z.im == 0.0));
        }
        real
    }

    fn inverse_rows(&self, buf: &mut [Complex64]) {
        for row in buf.chunks_exact_mut(self.cols) {
            self.row_plan.inverse(row);
        }
    }

    /// The forward row pass of a real field, skipping the rows `zero`
    /// flags. Adjacent real rows a, b (rows 2k and 2k+1) transform together
    /// as z = a + i·b; the Hermitian unpack separates the two spectra. A
    /// pair whose rows are both zero is skipped.
    fn real_row_pass(&self, buf: &mut [Complex64], zero: &[bool]) {
        let cols = self.cols;
        let paired = self.rows - self.rows % 2;
        let (pairs, rest) = buf.split_at_mut(paired * cols);
        let (pair_zero, rest_zero) = zero.split_at(paired);
        if !pairs.is_empty() {
            let mut packed = self.arena.take(cols);
            for (pair, zero) in pairs.chunks_exact_mut(2 * cols).zip(pair_zero.chunks_exact(2)) {
                if zero.iter().all(|&z| z) {
                    continue;
                }
                let (a, b) = pair.split_at_mut(cols);
                for ((p, za), zb) in packed.iter_mut().zip(a.iter()).zip(b.iter()) {
                    *p = Complex64::new(za.re, zb.re);
                }
                self.row_plan.forward(&mut packed);
                unpack_pair(&packed, a, b);
            }
            self.arena.give(packed);
        }
        // Odd trailing row: its imaginary parts are zero, so the plain
        // complex transform is already the real transform.
        for (row, &zero) in rest.chunks_exact_mut(cols).zip(rest_zero) {
            if !zero {
                self.row_plan.forward(row);
            }
        }
    }

    /// Column pass shared by every forward/inverse variant, over the
    /// columns in `window`. The column plan reads them straight out of
    /// `buf` and leaves them transformed, row-major, in the first half of
    /// one scratch buffer, using the second half as ping-pong space; one
    /// copy writes them back (one per row for a partial window).
    fn column_pass(&self, buf: &mut [Complex64], window: Range<usize>, forward: bool) {
        let width = window.len();
        let mut scratch = self.arena.take(2 * self.rows * width);
        let (out, work) = scratch.split_at_mut(self.rows * width);
        self.col_plan.columns(&buf[window.start..], self.cols, out, work, !forward);
        if width == self.cols {
            buf.copy_from_slice(out);
        } else {
            for (row, strip) in buf.chunks_exact_mut(self.cols).zip(out.chunks_exact(width)) {
                row[window.clone()].copy_from_slice(strip);
            }
        }
        self.arena.give(scratch);
    }
}

/// Runs `f` over a thread-local flag per row, so the forward scan records
/// its all-zero rows without allocating per transform.
fn with_zero_rows<R>(rows: usize, f: impl FnOnce(&mut [bool]) -> R) -> R {
    thread_local! {
        static ZERO_ROWS: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
    }
    ZERO_ROWS.with(|cell| {
        let mut flags = cell.borrow_mut();
        flags.clear();
        flags.resize(rows, false);
        f(&mut flags)
    })
}

/// Whether every bit of `z` is zero (`+0.0 + 0.0i`).
fn is_zero_bits(z: &Complex64) -> bool {
    z.re.to_bits() | z.im.to_bits() == 0
}

/// Separates the spectra of two real rows transformed as one packed complex
/// row: `a ← DFT(re(z))`, `b ← DFT(im(z))` via the Hermitian identities.
fn unpack_pair(packed: &[Complex64], a: &mut [Complex64], b: &mut [Complex64]) {
    let n = packed.len();
    // k = 0 is self-conjugate: Z[0] = Â[0] + i·B̂[0] with both DCs real.
    if let (Some(z0), Some(a0), Some(b0)) = (packed.first(), a.first_mut(), b.first_mut()) {
        *a0 = Complex64::new(z0.re, 0.0);
        *b0 = Complex64::new(z0.im, 0.0);
    }
    for k in 1..n {
        let j = n - k;
        let zk = packed[k];
        let zj = packed[j];
        a[k] = Complex64::new((zk.re + zj.re) * 0.5, (zk.im - zj.im) * 0.5);
        b[k] = Complex64::new((zk.im + zj.im) * 0.5, (zj.re - zk.re) * 0.5);
    }
}

/// Writes the transpose of the row-major `src_rows × src_cols` matrix
/// `source` into `dst` (which becomes `src_cols × src_rows` row-major),
/// copying cache-sized tiles so neither side's stride walks a full matrix
/// dimension per element. Pure data movement: bit-identical to the naive
/// nested loop by construction, which the property tests pin across shapes.
///
/// # Panics
///
/// Panics if `dst.len() != source.len()` or `source.len() != src_rows *
/// src_cols`.
pub fn transpose_into(
    source: &[Complex64],
    src_rows: usize,
    src_cols: usize,
    dst: &mut [Complex64],
) {
    assert_eq!(source.len(), src_rows * src_cols, "source length does not match shape");
    assert_eq!(dst.len(), source.len(), "transpose destination length mismatch");
    gather_transposed(source, src_rows, src_cols, dst);
}

/// The tile-copy behind [`transpose_into`] and the Bluestein column pass:
/// transposes the first `span.len() / src_rows` columns of the `src_rows`
/// rows of `source` (row stride `src_cols`) into the row-major `span`.
pub(crate) fn gather_transposed(
    source: &[Complex64],
    src_rows: usize,
    src_cols: usize,
    span: &mut [Complex64],
) {
    let span_cols = span.len() / src_rows;
    let mut tile_r = 0;
    while tile_r < src_rows {
        let r_end = (tile_r + TRANSPOSE_BLOCK).min(src_rows);
        let mut tile_c = 0;
        while tile_c < span_cols {
            let c_end = (tile_c + TRANSPOSE_BLOCK).min(span_cols);
            for c in tile_c..c_end {
                let dst_base = c * src_rows;
                for r in tile_r..r_end {
                    span[dst_base + r] = source[r * src_cols + c];
                }
            }
            tile_c = c_end;
        }
        tile_r = r_end;
    }
}

/// Swaps quadrants so the zero-frequency bin moves to the buffer center.
///
/// For odd dimensions, `fftshift` followed by [`ifftshift`] is the identity
/// (the two use floor/ceil splits respectively, as in NumPy).
///
/// # Panics
///
/// Panics if `buf.len() != rows * cols`.
pub fn fftshift(buf: &mut [Complex64], rows: usize, cols: usize) {
    shift(buf, rows, cols, rows.div_ceil(2), cols.div_ceil(2));
}

/// Inverse of [`fftshift`].
///
/// # Panics
///
/// Panics if `buf.len() != rows * cols`.
pub fn ifftshift(buf: &mut [Complex64], rows: usize, cols: usize) {
    shift(buf, rows, cols, rows / 2, cols / 2);
}

/// Rotates rows up by `row_by` and columns left by `col_by`, entirely in
/// place. Even dimensions take the half-swap fast path (a quadrant swap);
/// odd dimensions fall back to slice rotation, which is also allocation-free.
fn shift(buf: &mut [Complex64], rows: usize, cols: usize, row_by: usize, col_by: usize) {
    assert_eq!(buf.len(), rows * cols, "buffer length does not match shape");
    if rows == 0 || cols == 0 {
        return;
    }
    let col_by = col_by % cols;
    if col_by > 0 {
        if cols.is_multiple_of(2) && col_by == cols / 2 {
            for row in buf.chunks_exact_mut(cols) {
                let (left, right) = row.split_at_mut(col_by);
                left.swap_with_slice(right);
            }
        } else {
            for row in buf.chunks_exact_mut(cols) {
                row.rotate_left(col_by);
            }
        }
    }
    let row_by = row_by % rows;
    if row_by > 0 {
        if rows.is_multiple_of(2) && row_by == rows / 2 {
            let (top, bottom) = buf.split_at_mut(row_by * cols);
            top.swap_with_slice(bottom);
        } else {
            buf.rotate_left(row_by * cols);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::dft;

    fn image(rows: usize, cols: usize) -> Vec<Complex64> {
        (0..rows * cols)
            .map(|i| Complex64::new((i as f64 * 0.23).sin(), (i as f64 * 0.91).cos()))
            .collect()
    }

    fn real_image(rows: usize, cols: usize) -> Vec<Complex64> {
        (0..rows * cols)
            .map(|i| Complex64::new((i as f64 * 0.23).sin() + 0.4 * (i as f64 * 0.05).cos(), 0.0))
            .collect()
    }

    /// O(n²) 2-D DFT oracle.
    fn dft2d(buf: &[Complex64], rows: usize, cols: usize) -> Vec<Complex64> {
        // rows first
        let mut tmp: Vec<Complex64> = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            tmp.extend(dft::forward(&buf[r * cols..(r + 1) * cols]));
        }
        let mut out = vec![Complex64::ZERO; rows * cols];
        for c in 0..cols {
            let col: Vec<Complex64> = (0..rows).map(|r| tmp[r * cols + c]).collect();
            let spec = dft::forward(&col);
            for r in 0..rows {
                out[r * cols + c] = spec[r];
            }
        }
        out
    }

    #[test]
    fn matches_reference_2d_dft() {
        for (rows, cols) in [(2usize, 2usize), (4, 8), (3, 5), (8, 3)] {
            let x = image(rows, cols);
            let mut fast = x.clone();
            Fft2d::new(rows, cols).forward(&mut fast);
            let slow = dft2d(&x, rows, cols);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((*a - *b).norm() < 1e-8, "shape {rows}x{cols}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let (rows, cols) = (16, 12);
        let fft = Fft2d::new(rows, cols);
        let x = image(rows, cols);
        let mut buf = x.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn parseval_2d() {
        let (rows, cols) = (8, 8);
        let x = image(rows, cols);
        let mut spec = x.clone();
        Fft2d::new(rows, cols).forward(&mut spec);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 =
            spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / (rows * cols) as f64;
        assert!((te - fe).abs() < 1e-8);
    }

    #[test]
    fn real_input_matches_reference_2d_dft() {
        // Covers power-of-two, other smooth and Bluestein row lengths, odd row
        // counts (one unpaired trailing row) and single-row/column edge
        // shapes.
        for (rows, cols) in [(2usize, 2usize), (4, 8), (3, 5), (8, 3), (5, 7), (1, 6), (6, 1)] {
            let x = real_image(rows, cols);
            let mut fast = x.clone();
            Fft2d::new(rows, cols).forward(&mut fast);
            let slow = dft2d(&x, rows, cols);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((*a - *b).norm() < 1e-8, "shape {rows}x{cols}");
            }
        }
    }

    #[test]
    fn forward_dispatch_is_bit_identical_to_forward_real() {
        for (rows, cols) in [(4usize, 4usize), (5, 7), (9, 16), (12, 20)] {
            let x = real_image(rows, cols);
            let fft = Fft2d::new(rows, cols);
            let mut via_forward = x.clone();
            fft.forward(&mut via_forward);
            let mut via_real = x.clone();
            fft.forward_real(&mut via_real);
            assert_eq!(via_forward, via_real, "shape {rows}x{cols}");
        }
    }

    #[test]
    #[should_panic(expected = "purely real")]
    fn forward_real_rejects_complex_input() {
        let mut buf = image(4, 4);
        Fft2d::new(4, 4).forward_real(&mut buf);
    }

    #[test]
    fn real_roundtrip_recovers_the_field() {
        let (rows, cols) = (12, 10);
        let fft = Fft2d::new(rows, cols);
        let x = real_image(rows, cols);
        let mut buf = x.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn blocked_transpose_is_bit_identical_to_naive() {
        // Shapes straddle the 32-element tile edge and include
        // non-power-of-two dimensions and degenerate single-row/column
        // cases.
        for (rows, cols) in [
            (1usize, 1usize),
            (1, 17),
            (17, 1),
            (5, 7),
            (31, 33),
            (32, 32),
            (33, 65),
            (48, 20),
            (64, 64),
        ] {
            let x = image(rows, cols);
            let mut blocked = vec![Complex64::ZERO; rows * cols];
            transpose_into(&x, rows, cols, &mut blocked);
            let mut naive = vec![Complex64::ZERO; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    naive[c * rows + r] = x[r * cols + c];
                }
            }
            assert_eq!(blocked, naive, "shape {rows}x{cols}");
        }
    }

    #[test]
    fn only_smooth_row_lengths_skip_zero_rows() {
        // Stockham plans map a zero row to zero bits; Bluestein's chirp
        // products leave −0.0 in some bins, so its row lengths never skip.
        for (cols, skips) in [(1usize, true), (40, true), (64, true), (7, false), (13, false)] {
            assert_eq!(Fft2d::new(4, cols).skips_zero_rows, skips, "row length {cols}");
        }
    }

    #[test]
    fn scratch_arena_is_reused_across_calls() {
        let fft = Fft2d::new(8, 8);
        let mut buf = image(8, 8);
        fft.forward(&mut buf);
        assert_eq!(fft.arena.pooled(), 1);
        fft.inverse(&mut buf);
        assert_eq!(fft.arena.pooled(), 1);
        fft.inverse_window(&mut buf, 2..5);
        assert_eq!(fft.arena.pooled(), 1);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn wrong_buffer_shape_panics() {
        Fft2d::new(4, 4).forward(&mut vec![Complex64::ZERO; 15]);
    }

    #[test]
    fn fftshift_moves_dc_to_center() {
        let (rows, cols) = (4, 4);
        let mut buf = vec![Complex64::ZERO; rows * cols];
        buf[0] = Complex64::ONE; // DC at corner
        fftshift(&mut buf, rows, cols);
        assert_eq!(buf[2 * cols + 2], Complex64::ONE);
    }

    #[test]
    fn shift_roundtrip_even_and_odd() {
        for (rows, cols) in [(4usize, 6usize), (5, 5), (3, 8), (7, 2)] {
            let x = image(rows, cols);
            let mut buf = x.clone();
            fftshift(&mut buf, rows, cols);
            ifftshift(&mut buf, rows, cols);
            assert_eq!(buf, x, "shape {rows}x{cols}");
        }
    }

    #[test]
    fn even_fast_path_matches_rotation_semantics() {
        // The quadrant-swap fast path must agree with plain rotation.
        for (rows, cols) in [(4usize, 4usize), (6, 8), (2, 10)] {
            let x = image(rows, cols);
            let mut fast = x.clone();
            fftshift(&mut fast, rows, cols);
            let mut reference = x.clone();
            for row in reference.chunks_exact_mut(cols) {
                row.rotate_left(cols / 2);
            }
            reference.rotate_left((rows / 2) * cols);
            assert_eq!(fast, reference, "shape {rows}x{cols}");
        }
    }
}
