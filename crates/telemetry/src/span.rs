//! Hierarchical RAII spans: monotonic timing, per-thread parent tracking,
//! and external (simulated-GPU) event injection.
//!
//! [`span`] returns a guard that measures from construction to drop. With
//! telemetry off the guard is inert (no clock read, no allocation). In
//! `summary` mode the duration feeds the span's latency histogram; in
//! `full` mode the completed span is additionally retained for the
//! Chrome-trace exporter, with its thread id and the id of the enclosing
//! span on the same thread (a thread-local stack tracks nesting).

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};

use crate::collector::{self, SpanRecord};
use crate::mode;

/// Thread ids at or above this value are synthetic tracks for external
/// (bridged) events, not real OS threads.
pub const EXTERNAL_TID_BASE: u32 = 1_000_000;

static NEXT_SPAN_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_ID: Cell<u32> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// This thread's dense telemetry id (assigned on first use, starting at 1).
pub fn current_thread_id() -> u32 {
    THREAD_ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

struct ActiveSpan {
    name: Cow<'static, str>,
    cat: &'static str,
    id: u32,
    parent: Option<u32>,
    tid: u32,
    start_ns: u64,
    /// Whether this span was pushed on the thread's nesting stack (mode was
    /// `full` at entry) and must be retained on drop.
    retained: bool,
}

/// RAII guard measuring one span; records on drop. Inert when telemetry was
/// off at construction.
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

impl SpanGuard {
    /// An inert guard (what [`span`] returns while telemetry is off).
    pub fn disabled() -> Self {
        SpanGuard { inner: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        // End on the same clock the start was read from: both endpoints
        // come from the collector epoch, so a child observed to start after
        // its parent is also guaranteed to end at or before it.
        let dur_ns = collector::now_ns().saturating_sub(active.start_ns);
        crate::histogram_record_us(&active.name, dur_ns as f64 / 1e3);
        if active.retained {
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                // Pop back to (and including) this span; defensive against
                // out-of-order drops, which std scoping makes impossible in
                // safe code but cheap to guard anyway.
                if let Some(pos) = stack.iter().rposition(|&id| id == active.id) {
                    stack.truncate(pos);
                }
            });
            collector::push_span(SpanRecord {
                name: active.name,
                cat: active.cat,
                tid: active.tid,
                id: active.id,
                parent: active.parent,
                start_ns: active.start_ns,
                dur_ns,
            });
        }
    }
}

/// Opens a span in the default `cpu` category.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_cat(name, "cpu")
}

/// Opens a span with an explicit Chrome-trace category.
#[inline]
pub fn span_cat(name: &'static str, cat: &'static str) -> SpanGuard {
    open_span(Cow::Borrowed(name), cat)
}

fn open_span(name: Cow<'static, str>, cat: &'static str) -> SpanGuard {
    let m = mode::mode();
    if m == mode::TelemetryMode::Off {
        return SpanGuard::disabled();
    }
    let retained = m == mode::TelemetryMode::Full;
    let (id, parent, tid) = if retained {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        (id, parent, current_thread_id())
    } else {
        (0, None, 0)
    };
    // Timestamp after bookkeeping so nested spans start at or after their
    // parents.
    let start_ns = collector::now_ns();
    SpanGuard {
        inner: Some(ActiveSpan {
            name,
            cat,
            id,
            parent,
            tid,
            start_ns,
            retained,
        }),
    }
}

/// Injects a completed span with explicit timing onto a named synthetic
/// track — the bridge path for simulated-GPU kernel aggregates, whose
/// "durations" are simulated seconds rather than wall time. No-op unless
/// the mode is `full`.
///
/// Tracks are keyed by `track`: the same name always maps to the same
/// synthetic thread id (≥ [`EXTERNAL_TID_BASE`]).
pub fn record_external_span(
    track: &str,
    name: impl Into<Cow<'static, str>>,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
) {
    if !mode::capture_spans() {
        return;
    }
    collector::push_span(SpanRecord {
        name: name.into(),
        cat,
        tid: external_track_id(track),
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent: None,
        start_ns,
        dur_ns,
    });
}

/// Registered external track names, in id order.
static EXTERNAL_TRACKS: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());

/// Stable synthetic thread id for an external track name: the first use of
/// a name registers it at the next id ≥ [`EXTERNAL_TID_BASE`].
pub fn external_track_id(track: &str) -> u32 {
    let mut tracks = EXTERNAL_TRACKS.lock().expect("external track lock");
    let idx = match tracks.iter().position(|t| t == track) {
        Some(idx) => idx,
        None => {
            tracks.push(track.to_string());
            tracks.len() - 1
        }
    };
    EXTERNAL_TID_BASE + idx as u32
}

/// Registered `(track name, synthetic tid)` pairs, for exporter metadata.
pub fn external_tracks() -> Vec<(String, u32)> {
    EXTERNAL_TRACKS
        .lock()
        .expect("external track lock")
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), EXTERNAL_TID_BASE + i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_guard_is_inert() {
        let g = SpanGuard::disabled();
        assert!(g.inner.is_none());
    }

    #[test]
    fn external_track_ids_are_stable_and_external() {
        let a = external_track_id("gpusim");
        let b = external_track_id("gpusim");
        let c = external_track_id("other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a >= EXTERNAL_TID_BASE && c >= EXTERNAL_TID_BASE);
    }

    #[test]
    fn thread_ids_are_dense_and_distinct_across_threads() {
        let here = current_thread_id();
        assert!(here >= 1);
        assert_eq!(here, current_thread_id(), "stable within a thread");
        let there = std::thread::spawn(current_thread_id).join().unwrap();
        assert_ne!(here, there);
        assert!(there < EXTERNAL_TID_BASE);
    }
}
