//! Transform planning: picks the right algorithm per length and caches the
//! precomputed state.
//!
//! [`FftPlanner`] is the entry point the rest of the workspace uses; the
//! optics crate keeps one planner per thread of work and transforms thousands
//! of rows/columns of the same length through it.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use crate::bluestein::BluesteinPlan;
use crate::complex::Complex64;
use crate::fft2d::gather_transposed;
use crate::mixed_radix::MixedRadixPlan;

/// A ready-to-run FFT of one fixed length.
///
/// Cheap to clone (the heavy tables live behind an [`Arc`]).
///
/// # Examples
///
/// ```
/// use holoar_fft::{FftPlanner, Complex64};
///
/// let mut planner = FftPlanner::new();
/// let plan = planner.plan(8);
/// let mut buf = vec![Complex64::ONE; 8];
/// plan.forward(&mut buf);
/// assert!((buf[0].re - 8.0).abs() < 1e-12); // all energy in DC
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    algo: Arc<Algo>,
}

#[derive(Debug)]
enum Algo {
    Mixed(MixedRadixPlan),
    Bluestein(BluesteinPlan),
}

impl FftPlan {
    /// The transform length.
    pub fn len(&self) -> usize {
        match &*self.algo {
            Algo::Mixed(p) => p.len(),
            Algo::Bluestein(p) => p.len(),
        }
    }

    /// Whether the transform length is zero (never true for constructed plans).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forward transform, in place.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn forward(&self, buf: &mut [Complex64]) {
        match &*self.algo {
            Algo::Mixed(p) => p.forward(buf),
            Algo::Bluestein(p) => p.forward(buf),
        }
    }

    /// Inverse transform (with `1/n` normalization), in place.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        match &*self.algo {
            Algo::Mixed(p) => p.inverse(buf),
            Algo::Bluestein(p) => p.inverse(buf),
        }
    }

    /// Transforms each of `rows` in place (the inverse with `invert`), each
    /// bit-identical to [`Self::forward`] / [`Self::inverse`] on it: the
    /// 2-D row pass. The algorithm is matched once and, for mixed-radix
    /// lengths, the thread workspace borrowed once for all the rows, not
    /// once per row. Callers pick which rows run, so a skipped row costs
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if a row's length is not [`Self::len`].
    pub(crate) fn rows<'a>(
        &self,
        rows: impl IntoIterator<Item = &'a mut [Complex64]>,
        invert: bool,
    ) {
        match &*self.algo {
            Algo::Mixed(p) => p.run_rows(rows, invert),
            Algo::Bluestein(p) => {
                for row in rows {
                    if invert {
                        p.inverse(row);
                    } else {
                        p.forward(row);
                    }
                }
            }
        }
    }

    /// Transforms the columns `window` of the row-major `buf`, whose rows
    /// are `cols = buf.len() / len` samples long, in place; `work` is
    /// scratch of `2·len·window.len()` samples, and the samples of every
    /// other column are left as they are. Each column's result is
    /// bit-identical to [`Self::forward`] / [`Self::inverse`] on that
    /// column. Mixed-radix lengths run batched passes over whole rows
    /// ([`MixedRadixPlan`]); over every column the last pass lands in
    /// `buf`, and over a narrower window it lands in `work` and is copied
    /// back. Bluestein lengths gather the columns transposed into `work`,
    /// transform each contiguous column and transpose it back.
    pub(crate) fn columns(
        &self,
        buf: &mut [Complex64],
        window: Range<usize>,
        work: &mut [Complex64],
        invert: bool,
    ) {
        let n = self.len();
        let (cols, width) = (buf.len() / n, window.len());
        if let Algo::Mixed(p) = &*self.algo {
            if width == cols {
                p.run_columns_in_place(buf, work, invert);
                return;
            }
        }
        let (out, spare) = work.split_at_mut(n * width);
        match &*self.algo {
            Algo::Mixed(p) => p.run_columns(&buf[window.start..], cols, out, spare, invert),
            Algo::Bluestein(p) => {
                gather_transposed(&buf[window.start..], n, cols, spare);
                for column in spare.chunks_exact_mut(n) {
                    if invert {
                        p.inverse(column);
                    } else {
                        p.forward(column);
                    }
                }
                gather_transposed(spare, width, n, out);
            }
        }
        for (row, strip) in buf.chunks_exact_mut(cols).zip(out.chunks_exact(width)) {
            row[window.clone()].copy_from_slice(strip);
        }
    }
}

/// Creates and caches [`FftPlan`]s keyed by length.
///
/// # Examples
///
/// ```
/// use holoar_fft::FftPlanner;
///
/// let mut planner = FftPlanner::new();
/// let a = planner.plan(480); // mixed-radix path (2^5·3·5)
/// let b = planner.plan(512); // mixed-radix path (radix-4 passes, 2^9)
/// let c = planner.plan(509); // Bluestein path (prime)
/// assert_eq!(a.len(), 480);
/// assert_eq!(b.len(), 512);
/// assert_eq!(c.len(), 509);
/// # let mut buf = vec![holoar_fft::Complex64::ONE; 480];
/// # a.forward(&mut buf);
/// ```
#[derive(Debug, Default)]
pub struct FftPlanner {
    cache: HashMap<usize, FftPlan>,
}

impl FftPlanner {
    /// Creates an empty planner.
    pub fn new() -> Self {
        FftPlanner { cache: HashMap::new() }
    }

    /// Returns a plan for length `n`, building and caching it on first use.
    ///
    /// Plans come from a process-wide thread-safe cache: the twiddle and
    /// chirp tables for each length are computed exactly once per process
    /// and shared (behind an [`Arc`]) by every planner and
    /// every worker thread. The planner keeps a local lock-free mirror so
    /// repeated `plan()` calls on a hot path touch no lock after first use.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn plan(&mut self, n: usize) -> FftPlan {
        assert!(n > 0, "cannot plan a zero-length transform");
        if let Some(plan) = self.cache.get(&n) {
            holoar_telemetry::counter_add("fft.plan_cache.local_hit", 1);
            return plan.clone();
        }
        let plan = global_plan(n);
        self.cache.insert(n, plan.clone());
        plan
    }
}

/// Fetches (building once, process-wide) the shared plan for length `n`.
fn global_plan(n: usize) -> FftPlan {
    static CACHE: OnceLock<Mutex<HashMap<usize, FftPlan>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    match crate::parallel::lock_unpoisoned(cache).entry(n) {
        std::collections::hash_map::Entry::Occupied(hit) => {
            holoar_telemetry::counter_add("fft.plan_cache.hit", 1);
            hit.get().clone()
        }
        std::collections::hash_map::Entry::Vacant(miss) => {
            holoar_telemetry::counter_add("fft.plan_cache.miss", 1);
            let _span = holoar_telemetry::span_cat("fft.plan.build", "fft");
            let algo = if MixedRadixPlan::supports(n) {
                Algo::Mixed(MixedRadixPlan::new(n))
            } else {
                Algo::Bluestein(BluesteinPlan::new(n))
            };
            miss.insert(FftPlan { algo: Arc::new(algo) }).clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    #[test]
    fn planner_caches_plans() {
        let mut planner = FftPlanner::new();
        planner.plan(16);
        planner.plan(16);
        planner.plan(17);
        assert_eq!(planner.cache.len(), 2);
    }

    #[test]
    fn plan_dispatches_correctly() {
        let mut planner = FftPlanner::new();
        for n in [2usize, 3, 8, 12, 480, 512] {
            let x: Vec<Complex64> =
                (0..n).map(|i| Complex64::new(i as f64, (i as f64).sqrt())).collect();
            let mut fast = x.clone();
            planner.plan(n).forward(&mut fast);
            let slow = dft::forward(&x);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((*a - *b).norm() < 1e-6 * n as f64);
            }
        }
    }

    #[test]
    fn lengths_dispatch_to_the_expected_algorithm() {
        fn algo_name(n: usize) -> &'static str {
            match &*FftPlanner::new().plan(n).algo {
                Algo::Mixed(_) => "mixed",
                Algo::Bluestein(_) => "bluestein",
            }
        }
        for (lengths, want) in [
            (&[40usize, 48, 60, 64, 480, 512, 640][..], "mixed"),
            (&[7, 14, 17, 509], "bluestein"),
        ] {
            for &n in lengths {
                assert_eq!(algo_name(n), want, "n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_plan_panics() {
        FftPlanner::new().plan(0);
    }

    #[test]
    fn plans_are_cheaply_cloneable_and_shareable() {
        let mut planner = FftPlanner::new();
        let plan = planner.plan(64);
        let plan2 = plan.clone();
        let mut a = vec![Complex64::ONE; 64];
        let mut b = vec![Complex64::ONE; 64];
        plan.forward(&mut a);
        plan2.forward(&mut b);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FftPlan>();
        assert_send_sync::<FftPlanner>();
    }

    #[test]
    fn global_cache_shares_tables_across_planners() {
        let a = FftPlanner::new().plan(4096);
        let b = FftPlanner::new().plan(4096);
        // Same Arc, not merely equal contents: the tables were built once.
        assert!(Arc::ptr_eq(&a.algo, &b.algo));
    }

    #[test]
    fn concurrent_planning_is_safe_and_converges() {
        let plans: Vec<FftPlan> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| FftPlanner::new().plan(1234)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for pair in plans.windows(2) {
            assert!(Arc::ptr_eq(&pair[0].algo, &pair[1].algo));
        }
    }
}
