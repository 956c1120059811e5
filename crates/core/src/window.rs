//! Viewing-window culling and cross-frame sub-hologram reuse — the
//! *Baseline* machinery of Fig 5a that every scheme builds on.
//!
//! Per frame, each object is tested against the head-pose-derived viewing
//! window: objects outside are skipped entirely, partially-inside objects
//! compute only the covered fraction of their sub-hologram, and an object
//! whose hologram was already computed in a recent frame (same budget,
//! negligible relative motion) is *reused* rather than recomputed — "since
//! the soccer ball hologram has been already generated in Frame-I, we can
//! skip its computation".

use std::collections::HashMap;

use holoar_sensors::angles::{deg, AngularRect};
use holoar_sensors::objectron::ObjectAnnotation;

/// Where an object stands relative to the current viewing window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStatus {
    /// Fraction of the object's angular footprint inside the window,
    /// `[0, 1]`.
    pub coverage: f64,
}

/// Computes an object's coverage by the viewing window.
pub fn window_status(window: &AngularRect, obj: &ObjectAnnotation) -> WindowStatus {
    WindowStatus { coverage: window.coverage_of_disc(obj.direction, obj.angular_radius()) }
}

/// What the tracker remembers about a previously computed sub-hologram.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CachedHologram {
    plane_count: u32,
    coverage: f64,
    annotation: ObjectAnnotation,
    last_frame: u64,
}

/// Cross-frame reuse tracker for per-object sub-holograms.
///
/// # Examples
///
/// ```
/// use holoar_core::window::ReuseTracker;
/// use holoar_sensors::angles::AngularPoint;
/// use holoar_sensors::objectron::ObjectAnnotation;
///
/// let obj = ObjectAnnotation {
///     track_id: 7,
///     direction: AngularPoint::CENTER,
///     distance: 0.6,
///     size: 0.2,
/// };
/// let mut tracker = ReuseTracker::new();
/// assert!(!tracker.can_reuse(&obj, 16, 1.0, 0)); // nothing cached yet
/// tracker.record(&obj, 16, 1.0, 0);
/// assert!(tracker.can_reuse(&obj, 16, 1.0, 1)); // unchanged next frame
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReuseTracker {
    cache: HashMap<u64, CachedHologram>,
}

impl ReuseTracker {
    /// Angular motion beyond which a cached hologram is stale.
    const MAX_ANGLE_DRIFT: f64 = deg(0.25);
    /// Relative distance change beyond which a cached hologram is stale.
    const MAX_DISTANCE_DRIFT: f64 = 0.01;
    /// Cached holograms older than this many frames are dropped (the scene
    /// around them will have changed).
    const MAX_AGE_FRAMES: u64 = 30;

    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `obj`'s hologram at the requested budget can be served from
    /// the cache for `frame`.
    pub fn can_reuse(&self, obj: &ObjectAnnotation, plane_count: u32, coverage: f64, frame: u64) -> bool {
        match self.cache.get(&obj.track_id) {
            None => false,
            Some(c) => {
                frame.saturating_sub(c.last_frame) <= Self::MAX_AGE_FRAMES
                    && c.plane_count == plane_count
                    && c.coverage >= coverage - 1e-9
                    && c.annotation.direction.distance_to(obj.direction) <= Self::MAX_ANGLE_DRIFT
                    && (c.annotation.distance - obj.distance).abs()
                        <= Self::MAX_DISTANCE_DRIFT * c.annotation.distance
            }
        }
    }

    /// Records a freshly computed sub-hologram.
    pub fn record(&mut self, obj: &ObjectAnnotation, plane_count: u32, coverage: f64, frame: u64) {
        self.cache.insert(
            obj.track_id,
            CachedHologram { plane_count, coverage, annotation: *obj, last_frame: frame },
        );
    }

    /// Drops entries not touched since `frame − MAX_AGE_FRAMES`.
    pub fn evict_stale(&mut self, frame: u64) {
        self.cache
            .retain(|_, c| frame.saturating_sub(c.last_frame) <= Self::MAX_AGE_FRAMES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holoar_sensors::angles::AngularPoint;

    fn obj(track_id: u64, az: f64, distance: f64) -> ObjectAnnotation {
        ObjectAnnotation {
            track_id,
            direction: AngularPoint::new(az, 0.0),
            distance,
            size: 0.2,
        }
    }

    fn window() -> AngularRect {
        AngularRect::new(AngularPoint::CENTER, deg(43.0), deg(29.0))
    }

    #[test]
    fn status_classifies_inside_partial_outside() {
        let w = window();
        let inside = window_status(&w, &obj(0, 0.0, 0.6));
        assert_eq!(inside.coverage, 1.0);
        let outside = window_status(&w, &obj(1, deg(60.0), 0.6));
        assert!(outside.coverage <= 0.0, "coverage {}", outside.coverage);
        let partial = window_status(&w, &obj(2, deg(21.5), 0.6));
        assert!(partial.coverage > 0.0 && partial.coverage < 1.0, "coverage {}", partial.coverage);
    }

    #[test]
    fn reuse_requires_matching_budget() {
        let mut t = ReuseTracker::new();
        let o = obj(1, 0.0, 0.6);
        t.record(&o, 16, 1.0, 0);
        assert!(t.can_reuse(&o, 16, 1.0, 1));
        assert!(!t.can_reuse(&o, 8, 1.0, 1), "different plane budget must recompute");
    }

    #[test]
    fn reuse_requires_small_motion() {
        let mut t = ReuseTracker::new();
        let o = obj(1, 0.0, 0.6);
        t.record(&o, 16, 1.0, 0);
        let drifted_far = obj(1, deg(3.0), 0.6);
        assert!(!t.can_reuse(&drifted_far, 16, 1.0, 1));
        let drifted_little = obj(1, deg(0.1), 0.6);
        assert!(t.can_reuse(&drifted_little, 16, 1.0, 1));
        let moved_closer = obj(1, 0.0, 0.4);
        assert!(!t.can_reuse(&moved_closer, 16, 1.0, 1));
    }

    #[test]
    fn reuse_respects_coverage_growth() {
        let mut t = ReuseTracker::new();
        let o = obj(1, 0.0, 0.6);
        t.record(&o, 16, 0.5, 0);
        // Object became more visible: cached half-hologram is insufficient.
        assert!(!t.can_reuse(&o, 16, 0.9, 1));
        assert!(t.can_reuse(&o, 16, 0.5, 1));
        assert!(t.can_reuse(&o, 16, 0.3, 1));
    }

    #[test]
    fn cache_ages_out() {
        let mut t = ReuseTracker::new();
        let o = obj(1, 0.0, 0.6);
        t.record(&o, 16, 1.0, 0);
        assert!(t.can_reuse(&o, 16, 1.0, 30));
        assert!(!t.can_reuse(&o, 16, 1.0, 31));
        t.evict_stale(100);
        assert!(t.cache.is_empty());
    }
}
