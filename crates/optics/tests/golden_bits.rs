//! Golden bits: absolute f64 output of the FFT, propagation and GSW paths.
//!
//! The other bit-identity tests compare two runs of the same build (serial
//! against parallel, batch against loop), so a change that moves every
//! result the same way passes them. These digests pin the output itself:
//! a 64-bit FNV-1a hash over the IEEE bit patterns of every sample. A
//! refactor that keeps the arithmetic (same operations, same order) keeps
//! every digest; one that reorders a sum or swaps a kernel changes them.
//! Propagation and GSW digests hold at 1, 2 and 7 workers. GSW has two: its
//! hologram, uniformity and trace, and its efficiency on its own.

use holoar_fft::{Complex64, ExecutionContext, Fft2d};
use holoar_optics::{gsw, Field, GswConfig, OpticalConfig, Propagator, VirtualObject};

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

fn samples_digest(samples: &[Complex64]) -> u64 {
    digest(samples.iter().flat_map(|z| [z.re, z.im]))
}

/// A deterministic complex test image with energy at every frequency.
fn image(rows: usize, cols: usize) -> Vec<Complex64> {
    (0..rows * cols)
        .map(|i| {
            let t = i as f64;
            Complex64::new((t * 0.37).sin() + 0.25 * (t * 0.013).cos(), (t * 0.91).cos())
        })
        .collect()
}

#[test]
fn fft2d_forward_output_is_pinned() {
    // 40×40 (radix 4·2·5), 64×64 (radix 4), 17×48 (Bluestein columns), and
    // a real 64×64 input that takes the packed real-row path.
    let mut real = image(64, 64);
    for z in &mut real {
        z.im = 0.0;
    }
    let cases = [
        ("40x40", 40, 40, image(40, 40), 0xcffe_efb4_e9c2_4f84_u64),
        ("64x64", 64, 64, image(64, 64), 0x58bf_9cf1_b84a_6d42),
        ("17x48", 17, 48, image(17, 48), 0xd8e8_dbb6_4db8_62c0),
        ("64x64 real", 64, 64, real, 0x666a_300e_83c5_5438),
    ];
    for (name, rows, cols, mut buf, want) in cases {
        Fft2d::new(rows, cols).forward(&mut buf);
        let got = samples_digest(&buf);
        assert_eq!(got, want, "fft2d {name}: digest {got:#018x}");
    }
}

/// Worker counts every propagation and GSW digest is pinned at: each must
/// reproduce the serial digest.
const WORKERS: [usize; 3] = [1, 2, 7];

fn propagator(workers: usize) -> Propagator {
    Propagator::with_context(&ExecutionContext::with_workers(workers))
}

/// Three 64×64 fields: a complex image, its real part (the packed real-row
/// path) and the image reversed.
fn fields() -> Vec<Field> {
    let cfg = OpticalConfig::default();
    let complex = image(64, 64);
    let real: Vec<Complex64> = complex.iter().map(|z| Complex64::new(z.re, 0.0)).collect();
    let reversed: Vec<Complex64> = complex.iter().rev().copied().collect();
    [complex, real, reversed].into_iter().map(|d| Field::from_data(64, 64, cfg, d)).collect()
}

#[test]
fn propagate_output_is_pinned() {
    let field = &fields()[0];
    let want = 0x1894_9029_2e60_7033_u64;
    for workers in WORKERS {
        let got = samples_digest(propagator(workers).propagate(field, 0.0025).samples());
        assert_eq!(got, want, "propagate at {workers} workers: digest {got:#018x}");
    }
}

#[test]
fn propagate_batch_output_is_pinned() {
    let field = &fields()[0];
    let zs = [0.001, -0.0025, 0.004];
    let want = [0x86bf_daff_d76d_e98f_u64, 0xc079_3407_bd4d_9a59, 0x5547_b634_e96d_5c2c];
    for workers in WORKERS {
        let planes = propagator(workers).propagate_batch(field, &zs);
        let got: Vec<u64> = planes.iter().map(|p| samples_digest(p.samples())).collect();
        assert_eq!(got, want, "propagate_batch at {workers} workers: digests {got:#018x?}");
    }
}

#[test]
fn propagate_sum_output_is_pinned() {
    let fields = fields();
    let zs = [0.001, -0.0025, 0.004];
    let want = 0xfe23_2c36_2a2c_3abe_u64;
    let cfg = OpticalConfig::default();
    for workers in WORKERS {
        let got = samples_digest(propagator(workers).propagate_sum(&fields, &zs).samples());
        assert_eq!(got, want, "propagate_sum at {workers} workers: digest {got:#018x}");
        // The same sum over fields written straight into the transform
        // buffers; the second call overwrites the first one's output.
        let mut built = Field::zeros(64, 64, cfg);
        let mut prop = propagator(workers);
        for _ in 0..2 {
            prop.propagate_sum_from(&zs, &mut built, |i, buf| {
                buf.copy_from_slice(fields[i].samples());
            });
        }
        let got = samples_digest(built.samples());
        assert_eq!(got, want, "propagate_sum_from at {workers} workers: digest {got:#018x}");
    }
}

#[test]
fn gsw_output_is_pinned_at_every_worker_count() {
    let cfg = OpticalConfig::default();
    let stack = VirtualObject::Dice.render(48, 48, 0.006, 0.002).slice(8, cfg);
    // Hologram samples, then `uniformity`, then the per-iteration trace.
    let want = 0xca21_df00_f7a1_b774_u64;
    // `efficiency` alone, pinned apart because its energy total is a
    // spectral (Parseval) sum and moves with any change to how the
    // per-plane energy is summed: 0.12799221225198593.
    let want_efficiency = 0x8022_bfd3_2069_44f9_u64;
    for workers in WORKERS {
        let result =
            gsw::run(&stack, cfg, GswConfig::default(), &ExecutionContext::with_workers(workers));
        let got = digest(
            result
                .hologram
                .samples()
                .iter()
                .flat_map(|z| [z.re, z.im])
                .chain([result.uniformity])
                .chain(result.uniformity_trace.iter().copied()),
        );
        assert_eq!(got, want, "gsw at {workers} workers: digest {got:#018x}");
        let got = digest([result.efficiency]);
        assert_eq!(
            got, want_efficiency,
            "gsw efficiency {} at {workers} workers: digest {got:#018x}",
            result.efficiency
        );
    }
}
