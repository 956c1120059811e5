//! Deterministic frame scheduler: round-robin with deadline-aware priority
//! aging.
//!
//! Each tick the scheduler orders the admitted sessions. The base order is a
//! rotating round-robin (so no session is structurally last forever); a
//! session that missed its deadline or was deferred gains one unit of *age*
//! per tick until it is served on time, and aged sessions sort ahead of the
//! rotation. When the device is overloaded the engine defers sessions from
//! the *back* of this order — so deferral lands on recently-served,
//! low-priority sessions and a starved session bubbles to the front.

/// Round-robin order with priority aging. All state is integral, so the
/// schedule is bit-identical for a given (tick, feedback) history.
#[derive(Debug, Clone)]
pub struct FrameScheduler {
    ages: Vec<u32>,
}

impl FrameScheduler {
    /// A scheduler over `n` sessions, all starting unaged.
    pub fn new(n: usize) -> Self {
        FrameScheduler { ages: vec![0; n] }
    }

    /// Priority order for this tick: sessions sorted by descending age, ties
    /// broken by the rotated round-robin position (tick rotates the start),
    /// then by session index. First in the returned order is served first
    /// and deferred last.
    pub fn order(&self, tick: u64) -> Vec<usize> {
        let n = self.ages.len();
        if n == 0 {
            return Vec::new();
        }
        let start = (tick % n as u64) as usize;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            let rotated = (i + n - start) % n;
            (std::cmp::Reverse(self.ages[i]), rotated, i)
        });
        order
    }

    /// Feedback after the tick: an on-time session resets its age, a missed
    /// or deferred one ages by one.
    pub fn feedback(&mut self, session: usize, on_time: bool) {
        if on_time {
            self.ages[session] = 0;
        } else {
            self.ages[session] = self.ages[session].saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unaged_order_is_a_rotating_round_robin() {
        let s = FrameScheduler::new(4);
        assert_eq!(s.order(0), vec![0, 1, 2, 3]);
        assert_eq!(s.order(1), vec![1, 2, 3, 0]);
        assert_eq!(s.order(2), vec![2, 3, 0, 1]);
        assert_eq!(s.order(6), vec![2, 3, 0, 1]);
    }

    #[test]
    fn aged_sessions_jump_the_rotation() {
        let mut s = FrameScheduler::new(4);
        s.feedback(3, false);
        s.feedback(3, false);
        s.feedback(1, false);
        // Age 2 beats age 1 beats the rotation.
        assert_eq!(s.order(0), vec![3, 1, 0, 2]);
        // Serving session 3 on time resets it.
        s.feedback(3, true);
        assert_eq!(s.order(0), vec![1, 0, 2, 3]);
    }

    #[test]
    fn order_is_deterministic() {
        let mut a = FrameScheduler::new(7);
        let mut b = FrameScheduler::new(7);
        for t in 0..50u64 {
            let miss = (t % 3) as usize;
            a.feedback(miss, false);
            b.feedback(miss, false);
            assert_eq!(a.order(t), b.order(t));
        }
    }

    #[test]
    fn empty_scheduler_yields_empty_order() {
        assert!(FrameScheduler::new(0).order(9).is_empty());
    }
}
