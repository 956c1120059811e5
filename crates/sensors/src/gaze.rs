//! Synthetic gaze traces with temporal locality — the MPIIDPEye \[58\]
//! substitute.
//!
//! The paper's Fig 3b observation: within a short window (10 s) a user's
//! gaze stays inside a small region of focus, and different users prefer
//! different regions. The model here is the standard fixation/saccade
//! process: dwell at a fixation point (exponential dwell time, small tremor)
//! and occasionally saccade to a new point drawn around the user's preferred
//! region.

use crate::angles::{deg, AngularPoint};
use crate::rng::Rng;

/// A user profile: where this user's interest concentrates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserProfile {
    /// Center of the user's preferred gaze region.
    pub preferred: AngularPoint,
    /// Spread of fixation targets around the preferred center, radians.
    pub spread: f64,
    /// Mean fixation dwell time, seconds.
    pub mean_dwell: f64,
}

impl UserProfile {
    /// The three users of Fig 3b: User1 and User3 share similar interests
    /// (near center), User2 focuses on the bottom-left corner.
    pub fn study_users() -> [UserProfile; 3] {
        [
            UserProfile { preferred: AngularPoint::new(deg(2.0), deg(1.0)), spread: deg(3.5), mean_dwell: 1.2 },
            UserProfile {
                preferred: AngularPoint::new(deg(-13.0), deg(-10.0)),
                spread: deg(3.0),
                mean_dwell: 1.4,
            },
            UserProfile { preferred: AngularPoint::new(deg(3.0), deg(0.0)), spread: deg(3.5), mean_dwell: 1.1 },
        ]
    }
}

impl Default for UserProfile {
    fn default() -> Self {
        UserProfile { preferred: AngularPoint::CENTER, spread: deg(6.0), mean_dwell: 2.0 }
    }
}

/// Generates gaze samples at a fixed rate for one user.
///
/// # Examples
///
/// ```
/// use holoar_sensors::gaze::{GazeModel, UserProfile};
///
/// let mut gaze = GazeModel::new(UserProfile::default(), 30.0, 1);
/// let trace: Vec<_> = (0..300).map(|_| gaze.sample()).collect();
/// assert_eq!(trace.len(), 300);
/// ```
#[derive(Debug, Clone)]
pub struct GazeModel {
    profile: UserProfile,
    sample_period: f64,
    rng: Rng,
    fixation: AngularPoint,
    dwell_remaining: f64,
}

impl GazeModel {
    /// Creates a model sampling at `rate_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive and finite.
    pub fn new(profile: UserProfile, rate_hz: f64, seed: u64) -> Self {
        assert!(rate_hz > 0.0 && rate_hz.is_finite(), "sample rate must be positive");
        let mut rng = Rng::seeded(seed);
        let fixation = Self::pick_fixation(&profile, &mut rng);
        let dwell_remaining = rng.exponential(profile.mean_dwell);
        GazeModel { profile, sample_period: 1.0 / rate_hz, rng, fixation, dwell_remaining }
    }

    fn pick_fixation(profile: &UserProfile, rng: &mut Rng) -> AngularPoint {
        AngularPoint::new(
            rng.normal_with(profile.preferred.azimuth, profile.spread),
            rng.normal_with(profile.preferred.elevation, profile.spread),
        )
    }

    /// The user profile.
    pub fn profile(&self) -> UserProfile {
        self.profile
    }

    /// Produces the next gaze sample (true gaze, before tracker noise).
    pub fn sample(&mut self) -> AngularPoint {
        self.dwell_remaining -= self.sample_period;
        if self.dwell_remaining <= 0.0 {
            self.fixation = Self::pick_fixation(&self.profile, &mut self.rng);
            self.dwell_remaining = self.rng.exponential(self.profile.mean_dwell);
        }
        // Fixational tremor/drift: a fraction of a degree.
        self.fixation.offset(
            self.rng.normal_with(0.0, deg(0.15)),
            self.rng.normal_with(0.0, deg(0.15)),
        )
    }
}

/// A recorded gaze trace and its locality statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GazeTrace {
    /// Samples in time order.
    pub samples: Vec<AngularPoint>,
}

impl GazeTrace {
    /// Records `n` samples from a model.
    pub fn record(model: &mut GazeModel, n: usize) -> Self {
        GazeTrace { samples: (0..n).map(|_| model.sample()).collect() }
    }

    /// Fraction of samples within `radius` of the trace's running centroid
    /// over sliding windows of `window` samples — the Fig 3b temporal
    /// locality measure. Returns 0 for traces shorter than the window.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn temporal_locality(&self, window: usize, radius: f64) -> f64 {
        assert!(window > 0, "window must be non-empty");
        if self.samples.len() < window {
            return 0.0;
        }
        let mut inside = 0u64;
        let mut total = 0u64;
        for chunk in self.samples.windows(window) {
            let centroid = AngularPoint::new(
                chunk.iter().map(|p| p.azimuth).sum::<f64>() / window as f64,
                chunk.iter().map(|p| p.elevation).sum::<f64>() / window as f64,
            );
            for p in chunk {
                total += 1;
                if p.distance_to(centroid) <= radius {
                    inside += 1;
                }
            }
        }
        inside as f64 / total.max(1) as f64
    }

    /// Bins samples into a `bins × bins` heatmap over
    /// `[-extent, extent]²` (azimuth × elevation), normalized to sum to 1
    /// (Fig 3b's per-user heat maps). Out-of-range samples are clamped to
    /// edge bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `extent` is not positive.
    pub fn heatmap(&self, bins: usize, extent: f64) -> Vec<f64> {
        assert!(bins > 0, "heatmap needs at least one bin");
        assert!(extent > 0.0, "heatmap extent must be positive");
        let mut map = vec![0.0; bins * bins];
        if self.samples.is_empty() {
            return map;
        }
        for p in &self.samples {
            let fx = ((p.azimuth + extent) / (2.0 * extent)).clamp(0.0, 1.0);
            let fy = ((p.elevation + extent) / (2.0 * extent)).clamp(0.0, 1.0);
            let cx = ((fx * bins as f64) as usize).min(bins - 1);
            let cy = ((fy * bins as f64) as usize).min(bins - 1);
            map[cy * bins + cx] += 1.0;
        }
        let total: f64 = map.iter().sum();
        for v in &mut map {
            *v /= total;
        }
        map
    }

    /// The centroid of the whole trace.
    pub fn centroid(&self) -> AngularPoint {
        if self.samples.is_empty() {
            return AngularPoint::CENTER;
        }
        let n = self.samples.len() as f64;
        AngularPoint::new(
            self.samples.iter().map(|p| p.azimuth).sum::<f64>() / n,
            self.samples.iter().map(|p| p.elevation).sum::<f64>() / n,
        )
    }
}

/// Overlap between two heatmaps (histogram intersection in `[0, 1]`),
/// used to show User1 ≈ User3 ≠ User2 as in Fig 3b.
///
/// # Panics
///
/// Panics if the maps have different lengths.
pub fn heatmap_overlap(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "heatmaps must have matching shapes");
    a.iter().zip(b).map(|(x, y)| x.min(*y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(profile: UserProfile, seed: u64, n: usize) -> GazeTrace {
        GazeTrace::record(&mut GazeModel::new(profile, 30.0, seed), n)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = trace(UserProfile::default(), 42, 100);
        let b = trace(UserProfile::default(), 42, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn gaze_has_strong_temporal_locality() {
        // 10 seconds at 30 Hz; locality within a 5° radius over 1 s windows.
        let t = trace(UserProfile::default(), 7, 300);
        let locality = t.temporal_locality(30, deg(5.0));
        assert!(locality > 0.8, "temporal locality {locality} too weak");
    }

    #[test]
    fn shuffled_gaze_would_have_less_locality() {
        // Same marginal distribution, destroyed time structure: compare the
        // model against an i.i.d. draw from the fixation distribution.
        let t = trace(UserProfile::default(), 7, 300);
        let mut rng = Rng::seeded(1234);
        let p = UserProfile::default();
        let iid = GazeTrace {
            samples: (0..300)
                .map(|_| {
                    AngularPoint::new(
                        rng.normal_with(p.preferred.azimuth, p.spread),
                        rng.normal_with(p.preferred.elevation, p.spread),
                    )
                })
                .collect(),
        };
        let real = t.temporal_locality(30, deg(3.0));
        let shuffled = iid.temporal_locality(30, deg(3.0));
        assert!(real > shuffled, "fixations ({real}) should beat i.i.d. ({shuffled})");
    }

    #[test]
    fn users_have_distinct_regions() {
        let [u1, u2, u3] = UserProfile::study_users();
        let t1 = trace(u1, 1, 1500).heatmap(8, deg(25.0));
        let t2 = trace(u2, 2, 1500).heatmap(8, deg(25.0));
        let t3 = trace(u3, 3, 1500).heatmap(8, deg(25.0));
        let sim13 = heatmap_overlap(&t1, &t3);
        let sim12 = heatmap_overlap(&t1, &t2);
        assert!(
            sim13 > sim12,
            "User1/User3 overlap ({sim13:.2}) should beat User1/User2 ({sim12:.2})"
        );
    }

    #[test]
    fn heatmap_is_normalized() {
        let t = trace(UserProfile::default(), 5, 200);
        let m = t.heatmap(10, deg(25.0));
        assert_eq!(m.len(), 100);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn centroid_tracks_preference() {
        let [_, u2, _] = UserProfile::study_users();
        let c = trace(u2, 9, 2000).centroid();
        assert!(c.azimuth < 0.0, "User2 centroid should lean left");
        assert!(c.elevation < 0.0, "User2 centroid should lean down");
    }

    #[test]
    fn empty_trace_behaves() {
        let t = GazeTrace::default();
        assert_eq!(t.centroid(), AngularPoint::CENTER);
        assert_eq!(t.temporal_locality(10, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "matching shapes")]
    fn overlap_shape_mismatch_panics() {
        heatmap_overlap(&[0.5], &[0.2, 0.3]);
    }
}
