//! Pure-std worker-pool abstraction and the transforms' scratch arena.
//!
//! [`Parallelism`] is the handle the whole workspace threads through its hot
//! paths. It has one fan-out, [`Parallelism::map`], and one grain: whole
//! depth planes, fields or objects. Batched propagation, GSW field
//! construction and viewport rendering map over it with
//! [`std::thread::scope`]; each item runs its 2-D FFTs serially. The design
//! constraints, in order:
//!
//! 1. **Determinism** — results must be *bit-identical* to the serial path.
//!    Items are split into contiguous chunks whose boundaries depend only
//!    on the item count and worker count, every item runs exactly the code
//!    the serial loop would, and no floating-point reduction ever crosses
//!    an item boundary. Callers keep their accumulations serial.
//! 2. **No steady-state allocation** — each planned transform borrows
//!    scratch buffers from its own [`ScratchArena`], which recycles them
//!    across calls.
//! 3. **No new dependencies** — scoped threads only; threads live for one
//!    fan-out, which keeps the implementation trivially correct (no queue,
//!    no shutdown protocol) at the cost of ~10 µs spawn overhead per chunk.
//!    A whole 2-D 40×40 transform takes about 25–40 µs on a 2-vCPU x86-64
//!    host (`cargo bench --bench fft`), so a fan-out pays only at the plane
//!    grain, never inside one transform.
//!
//! Sizing: [`Parallelism::auto`] reads the `HOLOAR_THREADS` environment
//! variable once per process, falling back to
//! [`std::thread::available_parallelism`]. `HOLOAR_THREADS=1` (or
//! [`Parallelism::serial`]) degenerates every fan-out to an inline loop on
//! the calling thread.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::complex::Complex64;

/// Environment variable overriding the worker count for [`Parallelism::auto`].
pub const THREADS_ENV_VAR: &str = "HOLOAR_THREADS";

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// The workspace's shared caches and pools only ever *insert* fully-built
/// values under their locks, so a poisoned mutex still guards a coherent
/// collection; propagating the poison (or panicking on it, as
/// `lock().unwrap()` would) could only turn one failure into a cascade on
/// the real-time path. Used by the scratch arena, the FFT plan caches, and
/// `holoar-optics`' transfer caches.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Upper bound on buffers the arena retains, to bound memory between bursts.
const ARENA_POOL_CAP: usize = 64;

/// A recycling pool of complex scratch buffers.
///
/// Workers [`take`](ScratchArena::take) a zeroed buffer of the length they
/// need and [`give`](ScratchArena::give) it back when done; the allocation
/// survives for the next caller. Each [`Fft2d`](crate::Fft2d) owns one
/// behind an `Arc`, shared by all of that transform's clones.
#[derive(Debug, Default)]
pub struct ScratchArena {
    pool: Mutex<Vec<Vec<Complex64>>>,
}

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a buffer of exactly `len` zeros, reusing a pooled
    /// allocation when one is available. A pooled buffer too small for
    /// `len` reallocates, so that take counts as an allocation.
    pub fn take(&self, len: usize) -> Vec<Complex64> {
        let pooled = lock_unpoisoned(&self.pool).pop();
        let reused = pooled.as_ref().is_some_and(|buf| buf.capacity() >= len);
        holoar_telemetry::counter_add(
            if reused { "fft.arena.take.reuse" } else { "fft.arena.take.alloc" },
            1,
        );
        let mut buf = pooled.unwrap_or_default();
        buf.clear();
        buf.resize(len, Complex64::ZERO);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&self, buf: Vec<Complex64>) {
        if buf.capacity() == 0 {
            return;
        }
        holoar_telemetry::counter_add("fft.arena.give", 1);
        let mut pool = lock_unpoisoned(&self.pool);
        if pool.len() < ARENA_POOL_CAP {
            pool.push(buf);
        }
    }

    /// Number of buffers currently pooled (diagnostic).
    pub fn pooled(&self) -> usize {
        lock_unpoisoned(&self.pool).len()
    }
}

/// A worker-pool handle: how many threads to fan out over.
///
/// Cloning is cheap. The handle is `Send + Sync` and carries no live
/// threads — workers are scoped to each call.
///
/// # Examples
///
/// ```
/// use holoar_fft::Parallelism;
///
/// let par = Parallelism::new(4);
/// let squares = par.map(&[1u64, 2, 3, 4, 5], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// assert!(Parallelism::serial().is_serial());
/// ```
#[derive(Debug, Clone)]
pub struct Parallelism {
    workers: usize,
}

impl Default for Parallelism {
    /// Defaults to [`Parallelism::serial`] — parallel execution is opt-in.
    fn default() -> Self {
        Self::serial()
    }
}

impl Parallelism {
    /// A single-worker handle: every fan-out runs inline on the caller.
    pub fn serial() -> Self {
        Parallelism { workers: 1 }
    }

    /// A handle with an explicit worker count (the programmatic override).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker count must be at least 1");
        Parallelism { workers }
    }

    /// Builds a handle from the environment: `HOLOAR_THREADS` when set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`].
    ///
    /// Unlike [`Parallelism::auto`] this re-reads the environment on every
    /// call.
    pub fn from_env() -> Self {
        Parallelism::new(worker_count_from_env())
    }

    /// The process-wide default handle, sized once from the environment
    /// (see [`Parallelism::from_env`]).
    pub fn auto() -> Self {
        static GLOBAL: OnceLock<Parallelism> = OnceLock::new();
        GLOBAL.get_or_init(Parallelism::from_env).clone()
    }

    /// Number of workers fan-outs may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether every fan-out runs inline on the calling thread.
    pub fn is_serial(&self) -> bool {
        self.workers == 1
    }

    /// Maps `f` over `items` on the worker pool, returning results in input
    /// order. Each item is processed exactly as an inline `iter().map()`
    /// would process it; only the interleaving across items changes.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.workers <= 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let _span = holoar_telemetry::span_cat("fft.par.map", "fft");
        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(items.len(), || None);
        let per_piece = items.len().div_ceil(self.workers.min(items.len()));
        std::thread::scope(|scope| {
            for (item_chunk, out_chunk) in items.chunks(per_piece).zip(out.chunks_mut(per_piece)) {
                let f = &f;
                scope.spawn(move || {
                    for (item, slot) in item_chunk.iter().zip(out_chunk.iter_mut()) {
                        *slot = Some(f(item));
                    }
                });
            }
        });
        // Every slot is filled: the two chunks(per_piece) iterators cover
        // `items` and `out` with identical boundaries, and out.len() ==
        // items.len(). flatten() is the panic-free way to say so; the
        // debug_assert pins the invariant in test builds.
        let results: Vec<R> = out.into_iter().flatten().collect();
        debug_assert_eq!(results.len(), items.len(), "parallel map dropped a slot");
        results
    }
}

/// Resolves the worker count: `HOLOAR_THREADS` if set to a positive
/// integer, else the machine's available parallelism, else 1.
fn worker_count_from_env() -> usize {
    if let Ok(value) = std::env::var(THREADS_ENV_VAR) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_default_are_one_worker() {
        assert_eq!(Parallelism::serial().workers(), 1);
        assert!(Parallelism::default().is_serial());
        assert!(!Parallelism::new(3).is_serial());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_workers_panics() {
        Parallelism::new(0);
    }

    #[test]
    fn arena_recycles_capacity() {
        let arena = ScratchArena::new();
        let buf = arena.take(32);
        assert!(buf.iter().all(|z| *z == Complex64::ZERO));
        let ptr = buf.as_ptr();
        arena.give(buf);
        let again = arena.take(16);
        assert_eq!(again.len(), 16);
        assert_eq!(again.as_ptr(), ptr, "allocation should be reused");
        arena.give(again);
    }

    #[test]
    fn map_preserves_input_order() {
        for workers in [1usize, 2, 7] {
            let par = Parallelism::new(workers);
            let items: Vec<u64> = (0..17).collect();
            let doubled = par.map(&items, |&x| x * 2);
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_single_inputs() {
        let par = Parallelism::new(4);
        assert_eq!(par.map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(par.map(&[9u8], |&x| x + 1), vec![10]);
    }

    #[test]
    fn env_override_controls_auto_sizing() {
        // from_env re-reads; exercise the parse paths via a guard variable.
        std::env::set_var(THREADS_ENV_VAR, "3");
        assert_eq!(Parallelism::from_env().workers(), 3);
        std::env::set_var(THREADS_ENV_VAR, "not-a-number");
        assert!(Parallelism::from_env().workers() >= 1);
        std::env::set_var(THREADS_ENV_VAR, "0");
        assert!(Parallelism::from_env().workers() >= 1);
        std::env::remove_var(THREADS_ENV_VAR);
        assert!(Parallelism::from_env().workers() >= 1);
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Parallelism>();
        assert_send_sync::<ScratchArena>();
    }
}
