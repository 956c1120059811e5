//! Golden bits of the FFT layer: absolute f64 output of the 1-D and 2-D
//! transforms, pinned as 64-bit FNV-1a digests over the IEEE bit patterns
//! of every sample (the same digest as `holoar-optics`' golden bits).
//!
//! The property tests compare two paths of one build, so a kernel change
//! that moves every output the same way passes them. These digests pin the
//! output itself: a rewrite of the Stockham passes that keeps each
//! butterfly's twiddles, operations and order keeps every digest.
//!
//! Covered: [`Fft2d::forward`], [`Fft2d::inverse`] and
//! [`Fft2d::inverse_window`] (a 15-column window, digested inside the
//! window only) at 64×64 (radix 4·4·4) and 40×40 (radix 4·2·5) on dense
//! complex, sparse-row complex, dense real and sparse-row real inputs;
//! [`MixedRadixPlan`] forward and inverse over every 2·3·5-smooth length
//! up to 512; and [`BluesteinPlan`], whose inner power-of-two plan runs in
//! its own scratch, at a few lengths with a prime factor above 5.

use holoar_fft::{BluesteinPlan, Complex64, Fft2d, MixedRadixPlan};

/// FNV-1a over the `to_bits()` of each value, little-endian bytes.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn samples(values: &[Complex64]) -> impl Iterator<Item = f64> + '_ {
    values.iter().flat_map(|z| [z.re, z.im])
}

/// A deterministic complex signal with energy at every frequency.
fn signal(len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|i| {
            let t = i as f64;
            Complex64::new((t * 0.37).sin() + 0.25 * (t * 0.013).cos(), (t * 0.91).cos())
        })
        .collect()
}

/// The rows a sparse input keeps: isolated rows, an adjacent pair, and a
/// row whose packed-real partner is zero.
const LIT_ROWS: [usize; 5] = [3, 10, 11, 20, 33];

/// The four inputs of a `rows × cols` grid, by name.
fn inputs(rows: usize, cols: usize) -> [(&'static str, Vec<Complex64>); 4] {
    let dense = signal(rows * cols);
    let real: Vec<Complex64> = dense.iter().map(|z| Complex64::new(z.re, 0.0)).collect();
    let sparse = |src: &[Complex64]| {
        let mut out = vec![Complex64::ZERO; rows * cols];
        for r in LIT_ROWS {
            out[r * cols..][..cols].copy_from_slice(&src[r * cols..][..cols]);
        }
        out
    };
    let (sparse_complex, sparse_real) = (sparse(&dense), sparse(&real));
    [
        ("dense complex", dense),
        ("sparse complex", sparse_complex),
        ("dense real", real),
        ("sparse real", sparse_real),
    ]
}

/// The `inverse_window` window: 15 columns, as a lit span of a plane.
const WINDOW: std::ops::Range<usize> = 7..22;

/// Digests of `(forward, inverse, inverse_window)` per input, in
/// [`inputs`] order, recorded before the Stockham pass rewrite.
const DIGESTS_64: [(u64, u64, u64); 4] = [
    (0x58bf_9cf1_b84a_6d42, 0x5040_e188_de05_04c9, 0x01cb_f938_7350_e0ce),
    (0x4702_a8f3_6542_4ea7, 0x73b4_c046_01a6_74fd, 0xba22_4f5f_4cb1_c8d6),
    (0x666a_300e_83c5_5438, 0x7722_cf2c_8d42_0043, 0x800d_eac9_f632_90c5),
    (0xb985_9e33_5f83_43ea, 0xf61c_9ac3_6e35_a457, 0x612d_bc67_c364_00ee),
];
const DIGESTS_40: [(u64, u64, u64); 4] = [
    (0xcffe_efb4_e9c2_4f84, 0xbab4_749d_1fa3_9280, 0xada5_aa3b_9ae2_63c1),
    (0x73e2_f9fd_39a2_bf56, 0x76d2_c3b6_7541_608a, 0x3668_46ee_81ca_7b3a),
    (0x137e_c242_d1c3_3000, 0x0455_e564_3e32_dc6c, 0x1985_4500_35b6_d2e0),
    (0x1bef_86d9_851c_b1b5, 0x99d9_8751_9d50_11c7, 0x4605_9ccb_2ba0_08ed),
];

fn check_2d(side: usize, want: &[(u64, u64, u64); 4]) {
    let fft = Fft2d::new(side, side);
    let mut failures = Vec::new();
    for ((name, input), &(fwd, inv, win)) in inputs(side, side).into_iter().zip(want) {
        let mut buf = input.clone();
        fft.forward(&mut buf);
        let got_fwd = digest(samples(&buf));
        buf.copy_from_slice(&input);
        fft.inverse(&mut buf);
        let got_inv = digest(samples(&buf));
        buf.copy_from_slice(&input);
        fft.inverse_window(&mut buf, WINDOW);
        let got_win = digest(buf.chunks_exact(side).flat_map(|row| samples(&row[WINDOW])));
        if (got_fwd, got_inv, got_win) != (fwd, inv, win) {
            failures.push(format!(
                "{side}x{side} {name}: ({got_fwd:#018x}, {got_inv:#018x}, {got_win:#018x})"
            ));
        }
    }
    assert!(failures.is_empty(), "digests moved:\n{}", failures.join("\n"));
}

#[test]
fn fft2d_64x64_output_is_pinned() {
    check_2d(64, &DIGESTS_64);
}

#[test]
fn fft2d_40x40_output_is_pinned() {
    check_2d(40, &DIGESTS_40);
}

/// One digest over every length's output, in ascending length order, per
/// direction.
#[test]
fn mixed_radix_output_is_pinned_for_every_smooth_length() {
    let lengths: Vec<usize> = (1..=512).filter(|&n| MixedRadixPlan::supports(n)).collect();
    assert_eq!(lengths.len(), 68);
    let (mut fwd, mut inv) = (Vec::new(), Vec::new());
    for &n in &lengths {
        let plan = MixedRadixPlan::new(n);
        let mut buf = signal(n);
        plan.forward(&mut buf);
        fwd.extend(samples(&buf));
        let mut buf = signal(n);
        plan.inverse(&mut buf);
        inv.extend(samples(&buf));
    }
    let got = (digest(fwd), digest(inv));
    assert_eq!(got, (0xc457_fe88_176c_9c6c, 0x173e_7786_f3f8_40d0), "digests {got:#018x?}");
}

#[test]
fn bluestein_output_is_pinned() {
    let mut out = Vec::new();
    for n in [7usize, 14, 17, 101, 509] {
        let plan = BluesteinPlan::new(n);
        let mut buf = signal(n);
        plan.forward(&mut buf);
        out.extend(samples(&buf));
        let mut buf = signal(n);
        plan.inverse(&mut buf);
        out.extend(samples(&buf));
    }
    let got = digest(out);
    assert_eq!(got, 0x2217_d894_ff14_2670, "digest {got:#018x}");
}
