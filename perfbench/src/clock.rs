//! Host time normalized to a reference host speed.
//!
//! On a shared VM the same deterministic code runs at one of a few speeds
//! that switch every second or so, and for minutes at a time the host can
//! stay up to 2.7× slower than its best. A benchmark-owned calibration
//! kernel slows down with the program: measured side by side on a 2-vCPU
//! VM, a fleet run's median time moved 1.6× between 15 s windows while
//! its ratio to the kernel's time moved 1.5 % (coefficient of variation).
//! Simple multiply-add or memory-bound kernels tracked it 6–8× worse; a
//! loop of `sin_cos` calls tracks it best. So the benchmark times the
//! kernel right before and right after each timed piece of work and
//! rescales the piece's wall time by `REFERENCE_NS / kernel time`: host
//! nanoseconds at the speed at which the kernel takes `REFERENCE_NS`. The
//! kernel is the benchmark's own arithmetic, so no change to the program
//! moves it.

use holoar_telemetry::now_ns;

/// Wall time of one calibration kernel at the reference speed, ns: about
/// its time on a 2-vCPU Intel Xeon VM at that host's usual fast speed.
pub const REFERENCE_NS: f64 = 270_000.0;

/// Samples in the kernel's buffer (32 KiB, resident in L1).
const SAMPLES: usize = 4096;

/// Passes over the buffer per kernel run.
const PASSES: usize = 12;

/// Benchmark-owned work of fixed size: `sin_cos` over a small buffer.
/// Returns a value that depends on every step, so none of it can be
/// elided.
fn kernel(buf: &mut [f64]) -> f64 {
    let mut acc = 0.0;
    for pass in 0..PASSES {
        for (i, v) in buf.iter_mut().enumerate() {
            // holoar-lint: allow(float-determinism, reason = "benchmark calibration work whose result is discarded; only its duration is used")
            *v = (*v * 1.000_001 + i as f64 * 1e-9).sin_cos().0 + pass as f64 * 1e-12;
            acc += *v;
        }
    }
    acc
}

/// Times calibration kernels and rescales wall times by them.
#[derive(Debug)]
pub struct Clock {
    buf: Vec<f64>,
    /// Every kernel time measured, ns.
    pub kernel_ns: Vec<u64>,
}

impl Default for Clock {
    fn default() -> Self {
        Clock {
            buf: vec![0.5; SAMPLES],
            kernel_ns: Vec::new(),
        }
    }
}

impl Clock {
    /// Wall time of one kernel run, ns.
    pub fn calibrate(&mut self) -> u64 {
        let t0 = now_ns();
        std::hint::black_box(kernel(&mut self.buf));
        let ns = (now_ns() - t0).max(1);
        self.kernel_ns.push(ns);
        ns
    }

    /// Runs `work`, which returns the wall time of each piece it timed,
    /// between two kernel runs; returns each piece's time at the reference
    /// speed, ns, against the mean of the two kernel times.
    pub fn normalized(&mut self, work: impl FnOnce() -> Vec<u64>) -> Vec<f64> {
        let before = self.calibrate();
        let pieces = work();
        let after = self.calibrate();
        let scale = REFERENCE_NS / ((before + after) as f64 / 2.0);
        pieces.into_iter().map(|ns| ns as f64 * scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (vec![0.5; SAMPLES], vec![0.5; SAMPLES]);
        assert_eq!(kernel(&mut a).to_bits(), kernel(&mut b).to_bits());
    }

    #[test]
    fn normalization_scales_by_the_kernel() {
        let mut clock = Clock::default();
        let out = clock.normalized(|| vec![0, 1000]);
        assert_eq!(out[0], 0.0);
        assert!(out[1] > 0.0 && out[1].is_finite());
        assert_eq!(clock.kernel_ns.len(), 2);
    }
}
