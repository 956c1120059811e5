//! Sliding-window time-series over **frame index**, not wall clock.
//!
//! SLO monitoring wants "deadline-hit rate over the last N frames", "queue
//! depth right now", "mean occupancy recently". Keying windows by frame
//! index instead of wall-clock time keeps every derived signal a pure
//! function of the simulated run — replays are bit-identical across worker
//! counts, which is the workspace's determinism contract.

/// A fixed-capacity ring buffer of `(frame, value)` samples.
///
/// Pushing past capacity evicts the oldest sample. All aggregates
/// ([`SlidingWindow::mean`], [`SlidingWindow::sum`], …) are recomputed
/// from the retained samples in oldest→newest order, so they are exact
/// and order-deterministic (no drifting running accumulators).
///
/// # Examples
///
/// ```
/// use holoar_telemetry::SlidingWindow;
///
/// let mut w = SlidingWindow::new(3);
/// for frame in 0..5 {
///     w.push(frame, frame as f64);
/// }
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.mean(), Some(3.0)); // frames 2, 3, 4
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    capacity: usize,
    /// Ring storage; logically ordered oldest→newest starting at `head`.
    buf: Vec<(u64, f64)>,
    /// Index of the oldest sample once the ring is full.
    head: usize,
}

impl SlidingWindow {
    /// An empty window retaining at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be positive");
        SlidingWindow { capacity, buf: Vec::with_capacity(capacity), head: 0 }
    }

    /// The maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the window has reached capacity (aggregates now describe a
    /// full window rather than a warm-up prefix).
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, frame: u64, value: f64) {
        if self.buf.len() < self.capacity {
            self.buf.push((frame, value));
        } else {
            self.buf[self.head] = (frame, value);
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Retained samples, oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter()).copied()
    }

    /// Sum of retained values, accumulated oldest → newest.
    pub fn sum(&self) -> f64 {
        self.iter().map(|(_, v)| v).sum()
    }

    /// Mean of retained values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.sum() / self.buf.len() as f64)
        }
    }

    /// Smallest retained value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        self.iter().map(|(_, v)| v).reduce(f64::min)
    }

    /// Largest retained value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.iter().map(|(_, v)| v).reduce(f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_then_eviction_keeps_the_newest_samples() {
        let mut w = SlidingWindow::new(4);
        assert!(w.is_empty());
        for frame in 0..10u64 {
            w.push(frame, frame as f64 * 2.0);
        }
        assert!(w.is_full());
        let samples: Vec<(u64, f64)> = w.iter().collect();
        assert_eq!(samples, vec![(6, 12.0), (7, 14.0), (8, 16.0), (9, 18.0)]);
    }

    #[test]
    fn aggregates_are_exact_over_the_window() {
        let mut w = SlidingWindow::new(3);
        w.push(0, 1.0);
        w.push(1, 0.0);
        w.push(2, 1.0);
        w.push(3, 1.0); // evicts frame 0
        assert_eq!(w.sum(), 2.0);
        assert_eq!(w.mean(), Some(2.0 / 3.0));
        assert_eq!(w.min(), Some(0.0));
        assert_eq!(w.max(), Some(1.0));
    }

    #[test]
    fn empty_window_aggregates_are_none() {
        let w = SlidingWindow::new(2);
        assert_eq!(w.mean(), None);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = SlidingWindow::new(0);
    }
}
