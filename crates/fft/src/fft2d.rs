//! Two-dimensional FFT over row-major buffers.
//!
//! The 2-D transform is separable: FFT every row, then FFT every column.
//! The row pass hands all its rows to the row plan at once
//! (`FftPlan::rows`), which dispatches on its algorithm and borrows the
//! thread workspace once per pass, not once per row.
//!
//! For 2·3·5-smooth column lengths the column pass does not transpose:
//! each Stockham pass of the column plan runs over whole rows of the
//! buffer, so every column gets exactly the arithmetic the 1-D plan gives
//! it. The first pass reads the caller's buffer and later passes ping-pong
//! between the two halves of one scratch buffer (borrowed from a
//! [`ScratchArena`]). Over every column the last pass writes the caller's
//! buffer; over a narrower window it lands in scratch and is copied back
//! row by row. Bluestein column
//! lengths (a prime factor above 5; no serving path uses one) gather the
//! columns transposed in cache-sized tiles (see `gather_transposed`), run
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
//! and routes it through a packed real-row kernel, which packs **two real
//! rows into one complex row** (`z = a + i·b`), runs half the row
//! transforms, and separates the two spectra with the Hermitian unpack
//! `A[k] = (Z[k] + conj(Z[n−k]))/2`, `B[k] = (Z[k] − conj(Z[n−k]))/(2i)`.
//! The complex path and the real path agree bit-for-bit on real inputs,
//! which the property tests pin against a 1-D oracle, and the packing
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
    /// half the row-pass work (see the module docs). The same scan
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
                let rows = buf.chunks_exact_mut(self.cols).zip(zero.iter());
                self.row_plan.rows(rows.filter_map(|(row, &zero)| (!zero).then_some(row)), false);
            }
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
        self.row_plan.rows(buf.chunks_exact_mut(self.cols), true);
    }

    /// The forward row pass of a real field, skipping the rows `zero`
    /// flags. Adjacent real rows a, b (rows 2k and 2k+1) transform together
    /// as z = a + i·b, packed in place into row a; the Hermitian unpack
    /// then separates the two spectra into a and b. A pair whose rows are
    /// both zero is skipped. An odd trailing row has zero imaginary parts,
    /// so the plain complex transform of it is already the real transform;
    /// it runs in the same row pass as the packed rows.
    fn real_row_pass(&self, buf: &mut [Complex64], zero: &[bool]) {
        let cols = self.cols;
        let paired = self.rows - self.rows % 2;
        let (pairs, rest) = buf.split_at_mut(paired * cols);
        let (pair_zero, rest_zero) = zero.split_at(paired);
        for (a, b) in live_pairs(pairs, pair_zero, cols) {
            for (za, zb) in a.iter_mut().zip(b.iter()) {
                *za = Complex64::new(za.re, zb.re);
            }
        }
        let packed = live_pairs(pairs, pair_zero, cols).map(|(a, _)| a);
        let trailing = rest.chunks_exact_mut(cols).zip(rest_zero);
        let trailing = trailing.filter_map(|(row, &zero)| (!zero).then_some(row));
        self.row_plan.rows(packed.chain(trailing), false);
        for (a, b) in live_pairs(pairs, pair_zero, cols) {
            unpack_pair(a, b);
        }
    }

    /// Column pass shared by every forward/inverse variant, over the
    /// columns in `window`, in one scratch buffer of twice the window's
    /// samples (see [`FftPlan::columns`]).
    fn column_pass(&self, buf: &mut [Complex64], window: Range<usize>, forward: bool) {
        let mut scratch = self.arena.take(2 * self.rows * window.len());
        self.col_plan.columns(buf, window, &mut scratch, !forward);
        self.arena.give(scratch);
    }
}

/// The row pairs `(a, b)` of `pairs` (rows 2k and 2k+1, each `cols` long)
/// whose rows are not both flagged zero in `zero`.
fn live_pairs<'a>(
    pairs: &'a mut [Complex64],
    zero: &'a [bool],
    cols: usize,
) -> impl Iterator<Item = (&'a mut [Complex64], &'a mut [Complex64])> {
    pairs
        .chunks_exact_mut(2 * cols)
        .zip(zero.chunks_exact(2))
        .filter(|(_, zero)| !zero.iter().all(|&z| z))
        .map(move |(pair, _)| pair.split_at_mut(cols))
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

/// Separates, in place, the spectra of two real rows transformed as one
/// packed complex row held in `a`: `a ← DFT(re(z))`, `b ← DFT(im(z))` via
/// the Hermitian identities. Bins `k` and `n − k` are read together before
/// either is written.
fn unpack_pair(a: &mut [Complex64], b: &mut [Complex64]) {
    let n = a.len();
    // k = 0 is self-conjugate: Z[0] = Â[0] + i·B̂[0] with both DCs real.
    if let (Some(a0), Some(b0)) = (a.first_mut(), b.first_mut()) {
        let z0 = *a0;
        *a0 = Complex64::new(z0.re, 0.0);
        *b0 = Complex64::new(z0.im, 0.0);
    }
    for k in 1..=n / 2 {
        let j = n - k;
        let (zk, zj) = (a[k], a[j]);
        a[k] = Complex64::new((zk.re + zj.re) * 0.5, (zk.im - zj.im) * 0.5);
        b[k] = Complex64::new((zk.im + zj.im) * 0.5, (zj.re - zk.re) * 0.5);
        a[j] = Complex64::new((zj.re + zk.re) * 0.5, (zj.im - zk.im) * 0.5);
        b[j] = Complex64::new((zj.im + zk.im) * 0.5, (zk.re - zj.re) * 0.5);
    }
}

/// The tile-copy behind the Bluestein column pass: transposes the first
/// `span.len() / src_rows` columns of the `src_rows` rows of `source` (row
/// stride `src_cols`) into the row-major `span`, in cache-sized tiles.
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
        // Every pairing of sides that straddle the 32-element tile edge,
        // including non-power-of-two and single-row/column ones.
        const SIDES: [usize; 12] = [1, 2, 3, 5, 17, 31, 32, 33, 48, 64, 65, 69];
        for (rows, cols) in SIDES.iter().flat_map(|&r| SIDES.iter().map(move |&c| (r, c))) {
            let x = image(rows, cols);
            let mut blocked = vec![Complex64::ZERO; rows * cols];
            gather_transposed(&x, rows, cols, &mut blocked);
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
}
