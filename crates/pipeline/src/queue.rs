//! Bounded inter-stage queues with drop-oldest frame semantics.
//!
//! The staged executor ([`crate::executor`]) connects its stages with
//! [`BoundedQueue`]s. A bounded queue gives the pipeline *backpressure
//! without stalling*: when a producer outruns its consumer the queue fills,
//! and the next push displaces the **oldest** queued frame rather than
//! blocking the producer or discarding the fresh frame. In an AR pipeline
//! the newest sensor frame is always the most valuable one — presenting a
//! stale pose is exactly the artifact reprojection exists to paper over,
//! so the queue sheds from the stale end.
//!
//! Three invariants hold by construction (property-tested in
//! `tests/staged_properties.rs`):
//!
//! 1. **Depth never exceeds the bound** — a push into a full queue pops
//!    before it pushes.
//! 2. **The newest frame is never the one dropped** — only the head (the
//!    oldest element) is ever displaced.
//! 3. **Drops are observable** — [`push`](BoundedQueue::push) *returns* the
//!    displaced element; the caller must route it somewhere (the staged
//!    executor re-presents it through the stale-reprojection path; see
//!    `core::degrade`). A dropped frame is therefore never a silent gap.
//!
//! Every queue operation updates the `pipeline.queue.*` telemetry
//! instruments, so exported metrics show queue pressure alongside the
//! stage spans.

use std::collections::VecDeque;

/// A bounded FIFO with drop-oldest overflow semantics and occupancy
/// accounting.
///
/// # Examples
///
/// ```
/// use holoar_pipeline::queue::BoundedQueue;
///
/// let mut q = BoundedQueue::new(2);
/// assert_eq!(q.push(0u64), None);
/// assert_eq!(q.push(1), None);
/// // Full: pushing displaces the *oldest* element, never the newest.
/// assert_eq!(q.push(2), Some(0));
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    bound: usize,
    popped: u64,
    dropped: u64,
    high_water: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `bound` elements.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0` — a zero-capacity queue would drop every
    /// frame it sees, which is never what a pipeline wants.
    pub fn new(bound: usize) -> Self {
        assert!(bound > 0, "queue bound must be at least 1");
        BoundedQueue {
            items: VecDeque::with_capacity(bound),
            bound,
            popped: 0,
            dropped: 0,
            high_water: 0,
        }
    }

    /// Enqueues `item`. When the queue is already at its bound, the oldest
    /// element is displaced and returned — the caller decides how the
    /// dropped frame surfaces (the staged executor turns it into a stale
    /// reprojection). Returns `None` when the push fit without a drop.
    pub fn push(&mut self, item: T) -> Option<T> {
        let displaced = if self.items.len() == self.bound {
            self.dropped += 1;
            holoar_telemetry::counter_add("pipeline.queue.dropped", 1);
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(item);
        self.high_water = self.high_water.max(self.items.len());
        holoar_telemetry::counter_add("pipeline.queue.pushed", 1);
        holoar_telemetry::gauge_set("pipeline.queue.depth", self.items.len() as f64);
        displaced
    }

    /// Dequeues the oldest element, if any.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.items.pop_front();
        if item.is_some() {
            self.popped += 1;
            holoar_telemetry::counter_add("pipeline.queue.popped", 1);
            holoar_telemetry::gauge_set("pipeline.queue.depth", self.items.len() as f64);
        }
        item
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Highest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total elements dequeued by [`pop`](Self::pop).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Total elements displaced by drop-oldest overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = BoundedQueue::new(3);
        for i in 0..3u32 {
            assert_eq!(q.push(i), None);
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_displaces_the_oldest_only() {
        let mut q = BoundedQueue::new(2);
        q.push(10u32);
        q.push(11);
        assert_eq!(q.push(12), Some(10), "head (oldest) is displaced");
        assert_eq!(q.push(13), Some(11));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(12), "newest survivors keep FIFO order");
        assert_eq!(q.pop(), Some(13));
    }

    #[test]
    fn depth_never_exceeds_the_bound() {
        let mut q = BoundedQueue::new(4);
        for i in 0..100u32 {
            q.push(i);
            assert!(q.len() <= 4);
        }
        assert_eq!(q.high_water(), 4);
        assert_eq!(q.dropped(), 96);
    }

    #[test]
    fn accounting_balances() {
        let mut q = BoundedQueue::new(3);
        for i in 0..10u8 {
            q.push(i);
            if i % 2 == 0 {
                q.pop();
            }
        }
        assert_eq!(q.popped() + q.dropped() + q.len() as u64, 10);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_bound_is_rejected() {
        BoundedQueue::<u8>::new(0);
    }
}
