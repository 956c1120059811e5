//! The unified execution handle every compute entry point takes.
//!
//! Parallelism, telemetry and degradation each once widened a
//! `run`/`run_with` API split. [`ExecutionContext`] collapses those axes
//! into one builder-constructed handle that bundles
//!
//! * the [`Parallelism`] pool (its worker count), and
//! * a type-erased map of **shared state slots** — the FFT-plan and
//!   transfer-function caches higher layers (e.g. `holoar-optics`'
//!   `Propagator`) want to share across every computation driven by the
//!   same context.
//!
//! The serving layer passes one context per simulated device, so all
//! sessions multiplexed onto that device share plan/transfer caches (and,
//! through each cached transform, its scratch arena); a unit test passes `ExecutionContext::serial()`; a bench
//! passes `ExecutionContext::auto()`. The old `*_with(…, &Parallelism)`
//! twins are gone — every entry point takes a context directly.
//!
//! Precision is not an axis: the whole stack computes in `f64`.
//! [`Precision`] has that one value and [`ExecutionContext::precision`]
//! returns it, so artifacts that record how a run was made can name it.
//!
//! # Examples
//!
//! ```
//! use holoar_fft::ExecutionContext;
//!
//! let ctx = ExecutionContext::builder().workers(4).build();
//! assert_eq!(ctx.workers(), 4);
//!
//! // Shared slots hand every caller the same value for a given key.
//! let a = ctx.shared("example.counter", || 41u64);
//! let b = ctx.shared("example.counter", || 0u64);
//! assert_eq!(*a, 41);
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! ```

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};


use crate::parallel::{lock_unpoisoned, Parallelism};

/// Type-erased shared-state slots, keyed by a static string. Values are
/// inserted once and shared by every clone of the owning context.
type SlotMap = HashMap<&'static str, Arc<dyn Any + Send + Sync>>;

/// Scalar precision of the compute stack. Every hot loop runs in `f64`, so
/// this has one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// 64-bit hot loops.
    #[default]
    F64,
}

impl Precision {
    /// Stable lower-case name (`"f64"`), used in bench JSON and log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The single execution handle compute entry points accept: parallelism
/// and shared caches, bundled.
///
/// Cloning is cheap; clones share the worker pool and every shared slot. Two contexts built independently share nothing.
#[derive(Debug, Clone)]
pub struct ExecutionContext {
    par: Parallelism,
    slots: Arc<Mutex<SlotMap>>,
}

impl Default for ExecutionContext {
    /// Defaults to [`ExecutionContext::serial`] — parallelism is opt-in,
    /// exactly as with [`Parallelism`].
    fn default() -> Self {
        Self::serial()
    }
}

impl ExecutionContext {
    /// A serial context: every fan-out runs inline on the caller.
    pub fn serial() -> Self {
        Self::from_parallelism(Parallelism::serial())
    }

    /// A context over the process-wide default pool (see
    /// [`Parallelism::auto`]: `HOLOAR_THREADS`, else available parallelism).
    pub fn auto() -> Self {
        Self::from_parallelism(Parallelism::auto())
    }

    /// A context with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(workers: usize) -> Self {
        Self::from_parallelism(Parallelism::new(workers))
    }

    /// Wraps an existing pool handle in a fresh context (fresh shared
    /// slots). Handy when a caller already owns a [`Parallelism`]; new code
    /// should construct contexts via [`builder`](Self::builder) and thread
    /// them through instead.
    pub fn from_parallelism(par: Parallelism) -> Self {
        ExecutionContext { par, slots: Arc::new(Mutex::new(HashMap::new())) }
    }

    /// Starts a builder.
    pub fn builder() -> ExecutionContextBuilder {
        ExecutionContextBuilder::default()
    }

    /// The worker-pool handle this context fans out over.
    pub fn parallelism(&self) -> &Parallelism {
        &self.par
    }

    /// Number of workers fan-outs may use.
    pub fn workers(&self) -> usize {
        self.par.workers()
    }

    /// The scalar precision hot loops driven by this context run at:
    /// always [`Precision::F64`].
    pub fn precision(&self) -> Precision {
        Precision::F64
    }

    /// Fetches the shared value stored under `key`, creating it with `init`
    /// on first access. Every clone of this context sees the same value; a
    /// later call with a different type `T` under the same key replaces the
    /// slot (keys are expected to be globally unique per type — prefix them
    /// with the owning crate, e.g. `"optics.propagator.caches"`).
    pub fn shared<T, F>(&self, key: &'static str, init: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> T,
    {
        let mut slots = lock_unpoisoned(&self.slots);
        if let Some(existing) = slots.get(key) {
            if let Ok(hit) = Arc::clone(existing).downcast::<T>() {
                holoar_telemetry::counter_add("fft.context.shared.hit", 1);
                return hit;
            }
        }
        holoar_telemetry::counter_add("fft.context.shared.miss", 1);
        let value = Arc::new(init());
        slots.insert(key, Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
        value
    }
}

/// Builder for [`ExecutionContext`].
///
/// # Examples
///
/// ```
/// use holoar_fft::{ExecutionContext, Parallelism};
///
/// let ctx = ExecutionContext::builder().parallelism(Parallelism::new(2)).build();
/// assert_eq!(ctx.workers(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ExecutionContextBuilder {
    par: Option<Parallelism>,
}

impl ExecutionContextBuilder {
    /// Uses an existing pool handle.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.par = Some(par);
        self
    }

    /// Sizes a fresh pool with `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.par = Some(Parallelism::new(workers));
        self
    }

    /// Selects the hot-loop scalar precision. [`Precision`] has the one
    /// value [`Precision::F64`], so this changes nothing; it accepts the
    /// value a caller read back from [`ExecutionContext::precision`].
    pub fn precision(self, _precision: Precision) -> Self {
        self
    }

    /// Builds the context. Parallelism defaults to serial.
    pub fn build(self) -> ExecutionContext {
        ExecutionContext::from_parallelism(self.par.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_serial_are_one_worker() {
        assert_eq!(ExecutionContext::default().workers(), 1);
        assert_eq!(ExecutionContext::serial().workers(), 1);
        assert_eq!(ExecutionContext::with_workers(3).workers(), 3);
    }

    #[test]
    fn builder_round_trips_settings() {
        let pool = Parallelism::new(5);
        let ctx = ExecutionContext::builder().parallelism(pool.clone()).build();
        assert_eq!(ctx.workers(), 5);
    }

    #[test]
    fn builder_defaults_to_serial() {
        let ctx = ExecutionContext::builder().build();
        assert_eq!(ctx.workers(), 1);
        assert_eq!(ctx.precision(), Precision::F64);
    }

    #[test]
    fn precision_round_trips_through_the_builder() {
        let ctx = ExecutionContext::builder().precision(Precision::F64).build();
        assert_eq!(ctx.precision(), Precision::F64);
        assert_eq!(ctx.precision().as_str(), "f64");
        assert_eq!(Precision::F64.to_string(), "f64");
    }

    #[test]
    fn shared_slots_are_created_once_and_shared_with_clones() {
        let ctx = ExecutionContext::serial();
        let first = ctx.shared("test.slot", || vec![1u32, 2, 3]);
        let clone = ctx.clone();
        let second = clone.shared("test.slot", Vec::new);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(lock_unpoisoned(&ctx.slots).len(), 1);
    }

    #[test]
    fn distinct_contexts_share_nothing() {
        let a = ExecutionContext::serial();
        let b = ExecutionContext::serial();
        let va = a.shared("test.slot", || 1u8);
        let vb = b.shared("test.slot", || 2u8);
        assert_eq!((*va, *vb), (1, 2));
    }

    #[test]
    fn type_mismatch_replaces_the_slot() {
        let ctx = ExecutionContext::serial();
        let _s = ctx.shared("test.slot", || String::from("x"));
        let n = ctx.shared("test.slot", || 7u64);
        assert_eq!(*n, 7);
    }

    #[test]
    fn context_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecutionContext>();
    }
}
