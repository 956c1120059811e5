//! Property-based tests for the FFT substrate: algebraic identities that must
//! hold for every length and every input, fast path or slow path.

use holoar_fft::{dft, Complex64, Fft2d, FftPlanner};
use proptest::prelude::*;

fn complex_vec(max_len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec(
        (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| Complex64::new(re, im)),
        1..=max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FFT(inverse(x)) == x for arbitrary lengths (covers all three algorithms).
    #[test]
    fn roundtrip_is_identity(x in complex_vec(96)) {
        let plan = FftPlanner::new().plan(x.len());
        let mut buf = x.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        let scale: f64 = x.iter().map(|z| z.norm()).fold(1.0, f64::max);
        for (a, b) in buf.iter().zip(&x) {
            prop_assert!((*a - *b).norm() <= 1e-9 * scale * x.len() as f64);
        }
    }

    /// The fast transform agrees with the O(n²) reference DFT.
    #[test]
    fn fast_matches_reference(x in complex_vec(48)) {
        let plan = FftPlanner::new().plan(x.len());
        let mut fast = x.clone();
        plan.forward(&mut fast);
        let slow = dft::forward(&x);
        let scale: f64 = x.iter().map(|z| z.norm()).sum::<f64>().max(1.0);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).norm() <= 1e-9 * scale);
        }
    }

    /// FFT is linear: FFT(a·x + y) == a·FFT(x) + FFT(y).
    #[test]
    fn linearity(x in complex_vec(64), scale in -10.0f64..10.0) {
        let n = x.len();
        let y: Vec<Complex64> =
            (0..n).map(|i| Complex64::new((i as f64).sin(), 1.0)).collect();
        let plan = FftPlanner::new().plan(n);

        let mut combined: Vec<Complex64> =
            x.iter().zip(&y).map(|(a, b)| a.scale(scale) + *b).collect();
        plan.forward(&mut combined);

        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fy = y.clone();
        plan.forward(&mut fy);

        let mag: f64 = x.iter().map(|z| z.norm()).sum::<f64>().max(1.0) * scale.abs().max(1.0);
        for ((c, a), b) in combined.iter().zip(&fx).zip(&fy) {
            prop_assert!((*c - (a.scale(scale) + *b)).norm() <= 1e-8 * mag.max(n as f64));
        }
    }

    /// Parseval: time-domain and (normalized) frequency-domain energy agree.
    #[test]
    fn parseval(x in complex_vec(80)) {
        let plan = FftPlanner::new().plan(x.len());
        let mut spec = x.clone();
        plan.forward(&mut spec);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        prop_assert!((te - fe).abs() <= 1e-7 * te.max(1.0));
    }

    /// 2-D roundtrip is the identity for any shape.
    #[test]
    fn roundtrip_2d(rows in 1usize..16, cols in 1usize..16) {
        let fft = Fft2d::new(rows, cols);
        let x: Vec<Complex64> = (0..rows * cols)
            .map(|i| Complex64::new((i as f64 * 0.3).cos(), (i as f64 * 1.7).sin()))
            .collect();
        let mut buf = x.clone();
        fft.forward(&mut buf);
        fft.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&x) {
            prop_assert!((*a - *b).norm() <= 1e-8);
        }
    }

    /// Time shift ↔ frequency linear phase (the DFT shift theorem), the
    /// property the angular-spectrum propagator implicitly relies on.
    #[test]
    fn shift_theorem(x in complex_vec(48), shift in 0usize..48) {
        let n = x.len();
        let shift = shift % n;
        let plan = FftPlanner::new().plan(n);

        let mut shifted = x.clone();
        shifted.rotate_right(shift);
        plan.forward(&mut shifted);

        let mut spec = x.clone();
        plan.forward(&mut spec);

        let mag: f64 = x.iter().map(|z| z.norm()).sum::<f64>().max(1.0);
        for (k, (s, f)) in shifted.iter().zip(&spec).enumerate() {
            let phase = Complex64::cis(
                -2.0 * std::f64::consts::PI * (k * shift % n) as f64 / n as f64,
            );
            prop_assert!((*s - *f * phase).norm() <= 1e-8 * mag);
        }
    }
}

// ---------------------------------------------------------------------------
// Hot-path specializations must be invisible in the numbers: the packed
// real-input row kernel and the cache-blocked transpose are pure
// reorganizations of the same arithmetic and data movement.
// ---------------------------------------------------------------------------

/// Lengths below 20 with a prime factor above 5: the only ones the planner
/// still sends to Bluestein (every other length is mixed-radix).
const BLUESTEIN_LENGTHS: [usize; 6] = [7, 11, 13, 14, 17, 19];

/// Shapes up to 19×19 with at least one Bluestein dimension, so every case
/// runs Bluestein on one axis; the other axis is drawn from `1..20`
/// (mixed-radix or Bluestein) and either axis may be the Bluestein one.
fn dims() -> impl Strategy<Value = (usize, usize)> {
    (prop::sample::select(BLUESTEIN_LENGTHS.to_vec()), 1usize..20, any::<bool>())
        .prop_map(|(b, other, b_is_rows)| if b_is_rows { (b, other) } else { (other, b) })
}

fn real_shape_and_data() -> impl Strategy<Value = (usize, usize, Vec<Complex64>)> {
    // `dims` covers all three row/column algorithms and both parities of
    // the row count (odd = one unpaired trailing row).
    dims().prop_flat_map(|(rows, cols)| {
        prop::collection::vec(
            (-1e3f64..1e3).prop_map(|re| Complex64::new(re, 0.0)),
            rows * cols..=rows * cols,
        )
        .prop_map(move |data| (rows, cols, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed real-input transform agrees with the O(n²) reference DFT
    /// on both rows and columns.
    #[test]
    fn real_input_fft_matches_reference((rows, cols, x) in real_shape_and_data()) {
        let mut fast = x.clone();
        Fft2d::new(rows, cols).forward(&mut fast);
        // Reference: 1-D DFT of every row, then of every column.
        let mut slow: Vec<Complex64> = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            slow.extend(dft::forward(&x[r * cols..(r + 1) * cols]));
        }
        let mut out = vec![Complex64::ZERO; rows * cols];
        for c in 0..cols {
            let col: Vec<Complex64> = (0..rows).map(|r| slow[r * cols + c]).collect();
            for (r, v) in dft::forward(&col).into_iter().enumerate() {
                out[r * cols + c] = v;
            }
        }
        let scale: f64 = x.iter().map(|z| z.norm()).sum::<f64>().max(1.0);
        for (a, b) in fast.iter().zip(&out) {
            prop_assert!((*a - *b).norm() <= 1e-9 * scale);
        }
    }
}

// ---------------------------------------------------------------------------
// Shapes with a Bluestein axis: telemetry around a transform.
// ---------------------------------------------------------------------------

fn shape_and_data() -> impl Strategy<Value = (usize, usize, Vec<Complex64>)> {
    dims().prop_flat_map(|(rows, cols)| {
        prop::collection::vec(
            (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| Complex64::new(re, im)),
            rows * cols..=rows * cols,
        )
        .prop_map(move |data| (rows, cols, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Telemetry is observation only: running the same transform with
    /// `full` tracing enabled must not perturb a single bit of output.
    /// Every shape has a Bluestein axis (see [`dims`]); the other axis
    /// reaches power-of-two and other mixed-radix lengths.
    #[test]
    fn full_telemetry_does_not_change_fft_output((rows, cols, x) in shape_and_data()) {
        let fft = Fft2d::new(rows, cols);
        let mut quiet = x.clone();
        fft.forward(&mut quiet);

        let previous = holoar_telemetry::mode();
        holoar_telemetry::set_mode(holoar_telemetry::TelemetryMode::Full);
        let mut traced = x.clone();
        fft.forward(&mut traced);
        holoar_telemetry::set_mode(previous);

        prop_assert_eq!(&traced, &quiet);
    }
}

// ---------------------------------------------------------------------------
// Column-pass oracle: the 2-D transform must equal, bit for bit, the 1-D
// plan run on every column of a naively transposed copy of the row-pass
// output. Unlike the worker-count comparisons above, this pins the column
// pass's arithmetic, not only its schedule.
// ---------------------------------------------------------------------------

/// The row pass `Fft2d` runs before its column pass. Real inputs pack rows
/// `2k` and `2k + 1` into one complex row and separate the two spectra with
/// the Hermitian unpack; an odd trailing row is a plain complex transform.
fn oracle_row_pass(x: &mut [Complex64], cols: usize, real: bool, invert: bool) {
    let plan = FftPlanner::new().plan(cols);
    let pairs = if real { x.len() / (2 * cols) } else { 0 };
    let (packed_rows, rest) = x.split_at_mut(pairs * 2 * cols);
    for pair in packed_rows.chunks_exact_mut(2 * cols) {
        let (a, b) = pair.split_at_mut(cols);
        let mut z: Vec<Complex64> =
            a.iter().zip(b.iter()).map(|(p, q)| Complex64::new(p.re, q.re)).collect();
        plan.forward(&mut z);
        a[0] = Complex64::new(z[0].re, 0.0);
        b[0] = Complex64::new(z[0].im, 0.0);
        for k in 1..cols {
            let (zk, zj) = (z[k], z[cols - k]);
            a[k] = Complex64::new((zk.re + zj.re) * 0.5, (zk.im - zj.im) * 0.5);
            b[k] = Complex64::new((zk.im + zj.im) * 0.5, (zj.re - zk.re) * 0.5);
        }
    }
    for row in rest.chunks_exact_mut(cols) {
        if invert {
            plan.inverse(row);
        } else {
            plan.forward(row);
        }
    }
}

/// The column pass as a naive transpose, a 1-D transform of every
/// contiguous column, and a naive transpose back.
fn oracle_column_pass(x: &mut [Complex64], rows: usize, cols: usize, invert: bool) {
    let plan = FftPlanner::new().plan(rows);
    let mut column = vec![Complex64::ZERO; rows];
    for c in 0..cols {
        for (r, v) in column.iter_mut().enumerate() {
            *v = x[r * cols + c];
        }
        if invert {
            plan.inverse(&mut column);
        } else {
            plan.forward(&mut column);
        }
        for (r, v) in column.iter().enumerate() {
            x[r * cols + c] = *v;
        }
    }
}

fn oracle_2d(
    x: &[Complex64],
    rows: usize,
    cols: usize,
    real: bool,
    invert: bool,
) -> Vec<Complex64> {
    let mut out = x.to_vec();
    oracle_row_pass(&mut out, cols, real, invert);
    oracle_column_pass(&mut out, rows, cols, invert);
    out
}

/// `Fft2d::{forward, inverse}` against [`oracle_2d`], on complex and purely
/// real inputs (the latter take the packed real-row kernel), over
/// column lengths that reach every radix pass count and Bluestein (7, 17),
/// and widths from one column up.
#[test]
fn column_pass_is_bit_identical_to_the_transposed_1d_oracle() {
    let sample = |i: usize, phase: f64| (i as f64 * 0.37 + phase).sin() * 1e2;
    for rows in [1usize, 2, 3, 5, 7, 17, 40, 48, 64] {
        for cols in [1usize, 2, 3, 6, 7, 8, 13, 20, 64] {
            let complex: Vec<Complex64> =
                (0..rows * cols).map(|i| Complex64::new(sample(i, 0.0), sample(i, 1.3))).collect();
            let real: Vec<Complex64> =
                (0..rows * cols).map(|i| Complex64::new(sample(i, 0.4), 0.0)).collect();
            let want_forward = oracle_2d(&complex, rows, cols, false, false);
            let want_real = oracle_2d(&real, rows, cols, true, false);
            let want_inverse = oracle_2d(&complex, rows, cols, false, true);
            let fft = Fft2d::new(rows, cols);
            let case = format!("{rows}x{cols}");
            let mut got = complex.clone();
            fft.forward(&mut got);
            assert_eq!(got, want_forward, "forward {case}");
            let mut got = real.clone();
            fft.forward(&mut got);
            assert_eq!(got, want_real, "forward on a real input {case}");
            let mut got = complex.clone();
            fft.inverse(&mut got);
            assert_eq!(got, want_inverse, "inverse {case}");
        }
    }
}

// ---------------------------------------------------------------------------
// Pruned transforms: the zero-row skip of `Fft2d::forward` and the column
// window of `Fft2d::inverse_window` must not move a bit of what they keep.
// ---------------------------------------------------------------------------

/// The IEEE bit patterns of every sample, so `+0.0` and `−0.0` differ.
fn bits(x: &[Complex64]) -> Vec<(u64, u64)> {
    x.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// How a row of [`sparse_rows`] is filled.
#[derive(Debug, Clone, Copy)]
enum RowFill {
    /// Random samples.
    Data,
    /// Every bit zero: the forward row pass may skip it.
    Zero,
    /// `−0.0` real parts: zero-valued but not all-zero bits, so it is
    /// transformed like any other row.
    NegativeZero,
}

/// A shape with row and column lengths from 1 to 9 plus Bluestein lengths 7
/// and 13, random data, and a random fill per row (any number of rows,
/// including all of them, may be zero). Half the cases are real, so they
/// take the packed real-row path; rows of zero bits keep a complex buffer
/// complex only through its data rows.
fn sparse_rows() -> impl Strategy<Value = (usize, usize, Vec<Complex64>)> {
    let len = prop::sample::select(vec![1usize, 2, 3, 4, 5, 6, 8, 9, 7, 13]);
    (len.clone(), len, any::<bool>()).prop_flat_map(|(rows, cols, real)| {
        let fill = prop::sample::select(vec![RowFill::Data, RowFill::Zero, RowFill::NegativeZero]);
        let sample = (-1e3f64..1e3, -1e3f64..1e3)
            .prop_map(move |(re, im)| Complex64::new(re, if real { 0.0 } else { im }));
        (
            prop::collection::vec(fill, rows..=rows),
            prop::collection::vec(sample, rows * cols..=rows * cols),
        )
            .prop_map(move |(fills, mut data)| {
                for (row, fill) in data.chunks_exact_mut(cols).zip(fills) {
                    match fill {
                        RowFill::Data => {}
                        RowFill::Zero => row.fill(Complex64::ZERO),
                        RowFill::NegativeZero => row.fill(Complex64::new(-0.0, 0.0)),
                    }
                }
                (rows, cols, data)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `forward` skips the row transforms of all-zero rows (pairs, on the
    /// real path) yet equals, bit for bit, a row pass that transforms every
    /// row followed by the same column pass. The oracle takes the packed
    /// real path exactly when `forward` dispatches to it.
    #[test]
    fn zero_row_skip_is_bit_identical_to_transforming_every_row(
        (rows, cols, x) in sparse_rows()
    ) {
        let real = x.iter().all(|z| z.im == 0.0);
        let want = oracle_2d(&x, rows, cols, real, false);
        let fft = Fft2d::new(rows, cols);
        let mut got = x.clone();
        fft.forward(&mut got);
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// `inverse_window(cols)` equals `inverse` bit for bit inside `cols`, for
/// every window of each shape: empty, single-column, edge and full ones
/// included. 12×7 and 9×13 have Bluestein column-window widths and row
/// lengths; 12 and 9 are mixed-radix column lengths and 7 and 13 Bluestein
/// row lengths.
#[test]
fn inverse_window_is_bit_identical_to_inverse_inside_the_window() {
    for (rows, cols) in [(64usize, 64usize), (40, 40), (12, 7), (9, 13), (7, 12)] {
        let x: Vec<Complex64> = (0..rows * cols)
            .map(|i| Complex64::new((i as f64 * 0.37).sin() * 1e2, (i as f64 * 0.91).cos()))
            .collect();
        let fft = Fft2d::new(rows, cols);
        let mut full = x.clone();
        fft.inverse(&mut full);
        let want = bits(&full);
        for start in 0..=cols {
            for end in start..=cols {
                let mut got = x.clone();
                fft.inverse_window(&mut got, start..end);
                let got = bits(&got);
                for r in 0..rows {
                    let row = r * cols;
                    assert_eq!(
                        got[row + start..row + end],
                        want[row + start..row + end],
                        "{rows}x{cols} window {start}..{end}, row {r}"
                    );
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "is not within")]
fn inverse_window_rejects_a_window_past_the_last_column() {
    let mut buf = vec![Complex64::ONE; 4 * 6];
    Fft2d::new(4, 6).inverse_window(&mut buf, 2..7);
}
