//! Transform planning: picks the right algorithm per length and caches the
//! precomputed state.
//!
//! [`FftPlanner`] is the entry point the rest of the workspace uses; the
//! optics crate keeps one planner per thread of work and transforms thousands
//! of rows/columns of the same length through it.

use std::collections::HashMap;
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

    /// Transforms the `width = out.len() / len` columns of the row-major
    /// `src`, whose row `i` is `src[i·stride..][..width]`, and writes them
    /// row-major into `out`; `work` is scratch of the same length. Each
    /// column's result is bit-identical to [`Self::forward`] /
    /// [`Self::inverse`] on that column. Mixed-radix lengths run batched
    /// passes over whole rows ([`MixedRadixPlan`]); Bluestein lengths gather
    /// the columns transposed into `work`, transform each contiguous column
    /// and transpose it back.
    pub(crate) fn columns(
        &self,
        src: &[Complex64],
        stride: usize,
        out: &mut [Complex64],
        work: &mut [Complex64],
        invert: bool,
    ) {
        match &*self.algo {
            Algo::Mixed(p) => p.run_columns(src, stride, out, work, invert),
            Algo::Bluestein(p) => {
                let n = p.len();
                gather_transposed(src, n, stride, work);
                for column in work.chunks_exact_mut(n) {
                    if invert {
                        p.inverse(column);
                    } else {
                        p.forward(column);
                    }
                }
                gather_transposed(work, out.len() / n, n, out);
            }
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

    /// Number of distinct lengths this planner has handed out.
    pub fn cached_len_count(&self) -> usize {
        self.cache.len()
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
        assert_eq!(planner.cached_len_count(), 2);
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
