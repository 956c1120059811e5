//! Synthetic object-centric video dataset — the Objectron \[1\] substitute.
//!
//! The paper evaluates on six Objectron categories whose salient statistics
//! it publishes as Table 2 (#frames, mean objects per frame, mean
//! camera-to-object distance, mean object size). HoloAR's schemes consume
//! exactly those per-frame object annotations: count, angular position,
//! metric distance and depth extent. This module generates deterministic
//! videos matched to the published statistics, with the temporal coherence
//! (objects persisting and drifting across frames) that the viewing-window
//! reuse logic depends on.

use crate::angles::{deg, AngularPoint};
use crate::rng::Rng;

/// The six Objectron categories of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VideoCategory {
    /// Large outdoor object, ~1 per frame, far and big.
    Bike,
    /// Table-top object, close and small.
    Book,
    /// Table-top object, closest in the set.
    Bottle,
    /// Most objects per frame after shoe; smallest size.
    Cup,
    /// Mid-size table-top object.
    Laptop,
    /// Most objects per frame (2.3).
    Shoe,
}

/// Table 2 row: the published statistics for one category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoSpec {
    /// Category.
    pub category: VideoCategory,
    /// Total frames in the published dataset.
    pub frames: u64,
    /// Mean objects per frame.
    pub objects_per_frame: f64,
    /// Mean camera-to-object distance, meters (`Cam2ObjDist` in Fig 3a).
    pub distance: f64,
    /// Mean object size (`farmost − nearest`), meters (`ObjSize` in Fig 3a).
    pub size: f64,
}

impl VideoCategory {
    /// All categories in Table 2 order.
    pub const ALL: [VideoCategory; 6] = [
        VideoCategory::Bike,
        VideoCategory::Book,
        VideoCategory::Bottle,
        VideoCategory::Cup,
        VideoCategory::Laptop,
        VideoCategory::Shoe,
    ];

    /// Lower-case name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            VideoCategory::Bike => "bike",
            VideoCategory::Book => "book",
            VideoCategory::Bottle => "bottle",
            VideoCategory::Cup => "cup",
            VideoCategory::Laptop => "laptop",
            VideoCategory::Shoe => "shoe",
        }
    }

    /// The Table 2 statistics for this category.
    pub fn spec(self) -> VideoSpec {
        let (frames, objects_per_frame, distance, size) = match self {
            VideoCategory::Bike => (150_000, 1.1, 2.08, 1.54),
            VideoCategory::Book => (576_000, 1.5, 0.64, 0.28),
            VideoCategory::Bottle => (476_000, 1.1, 0.47, 0.22),
            VideoCategory::Cup => (546_000, 1.6, 0.47, 0.16),
            VideoCategory::Laptop => (485_000, 1.3, 0.58, 0.38),
            VideoCategory::Shoe => (557_000, 2.3, 0.65, 0.21),
        };
        VideoSpec { category: self, frames, objects_per_frame, distance, size }
    }
}

/// One annotated object in one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectAnnotation {
    /// Stable track id across frames.
    pub track_id: u64,
    /// Direction of the object center in the camera frame.
    pub direction: AngularPoint,
    /// Camera-to-object distance, meters.
    pub distance: f64,
    /// Object size (depth extent, `farmost − nearest`), meters.
    pub size: f64,
}

impl ObjectAnnotation {
    /// The object's apparent angular radius: how big it looks to the user.
    ///
    /// Objectron's `size` is the depth extent (`farmost − nearest`); the
    /// transverse half-extent of everyday objects is a moderate fraction of
    /// it (a cup is wider in depth than its silhouette radius), modeled here
    /// as `0.3 × size`.
    pub fn angular_radius(&self) -> f64 {
        (self.size * 0.3 / self.distance.max(1e-6)).atan()
    }

    /// The object's depth extent relative to its distance — the paper's
    /// intuition that "objects which are far from the user and with
    /// small-sized shapes require less information" (§2.2.3).
    pub fn angular_depth(&self) -> f64 {
        self.size / self.distance.max(1e-6)
    }
}

/// One video frame: the set of visible annotated objects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frame {
    /// Frame index within the video.
    pub index: u64,
    /// Visible objects.
    pub objects: Vec<ObjectAnnotation>,
}

/// Streaming generator of synthetic frames for one category.
///
/// Frames are produced lazily (the published videos run to 576 k frames;
/// materializing them all would be wasteful). The generator maintains a set
/// of live object tracks that drift smoothly and occasionally leave/arrive,
/// keeping the per-frame expectation at the Table 2 value.
///
/// # Examples
///
/// ```
/// use holoar_sensors::objectron::{FrameGenerator, VideoCategory};
///
/// let frames: Vec<_> = FrameGenerator::new(VideoCategory::Shoe, 99).take(100).collect();
/// assert_eq!(frames.len(), 100);
/// let mean_objs: f64 =
///     frames.iter().map(|f| f.objects.len() as f64).sum::<f64>() / 100.0;
/// assert!(mean_objs > 1.0); // shoe averages 2.3 objects per frame
/// ```
#[derive(Debug, Clone)]
pub struct FrameGenerator {
    spec: VideoSpec,
    rng: Rng,
    next_index: u64,
    next_track: u64,
    /// The last stepped frame; its `objects` are the live tracks.
    current: Frame,
}

impl FrameGenerator {
    /// Object tracks survive each frame with this probability (mean track
    /// length ≈ 200 frames ≈ 6.7 s at 30 fps, matching hand-held
    /// object-centric footage).
    const PERSISTENCE: f64 = 0.995;

    /// Creates a generator for one category and seed.
    pub fn new(category: VideoCategory, seed: u64) -> Self {
        FrameGenerator {
            spec: category.spec(),
            rng: Rng::seeded(seed ^ (category as u64).wrapping_mul(0x9E37_79B9)),
            next_index: 0,
            next_track: 0,
            current: Frame::default(),
        }
    }

    /// The category statistics this generator targets.
    pub fn spec(&self) -> VideoSpec {
        self.spec
    }

    fn spawn_object(&mut self) -> ObjectAnnotation {
        let spec = self.spec;
        let distance = self
            .rng
            .normal_with(spec.distance, spec.distance * 0.25)
            .clamp(spec.distance * 0.4, spec.distance * 2.0);
        let size = self
            .rng
            .normal_with(spec.size, spec.size * 0.2)
            .clamp(spec.size * 0.4, spec.size * 1.8);
        let direction = AngularPoint::new(
            self.rng.normal_with(0.0, deg(12.0)),
            self.rng.normal_with(0.0, deg(8.0)),
        );
        let track_id = self.next_track;
        self.next_track += 1;
        ObjectAnnotation { track_id, direction, distance, size }
    }

    /// Advances to the next frame in place: retires departing tracks,
    /// drifts the survivors and runs the spawn/retire controller, with no
    /// per-frame allocation once the track list has grown to its working
    /// size. [`FrameGenerator::current`] then reads the new frame;
    /// [`Iterator::next`] is this step plus a copy of it.
    pub fn step(&mut self) {
        // Retire departing tracks: one draw per track, in track order.
        let live = &mut self.current.objects;
        let rng = &mut self.rng;
        live.retain(|_| rng.chance(Self::PERSISTENCE));
        // Drift the survivors smoothly.
        for obj in live.iter_mut() {
            obj.direction = obj
                .direction
                .offset(rng.normal_with(0.0, deg(0.6)), rng.normal_with(0.0, deg(0.45)));
            obj.distance = (obj.distance + rng.normal_with(0.0, obj.distance * 0.004))
                .max(self.spec.distance * 0.3);
        }
        // A symmetric proportional controller keeps the live count at the
        // Table 2 expectation: spawn when below the mean, retire the oldest
        // track when above, with a gain low enough that tracks stay coherent
        // for many frames.
        const GAIN: f64 = 0.25;
        let deficit = self.spec.objects_per_frame - self.current.objects.len() as f64;
        if deficit > 0.0 {
            if self.rng.chance((deficit * GAIN).min(1.0)) {
                let obj = self.spawn_object();
                self.current.objects.push(obj);
            }
        } else if !self.current.objects.is_empty()
            && self.rng.chance(((-deficit) * GAIN).min(1.0))
        {
            self.current.objects.remove(0);
        }
        self.current.index = self.next_index;
        self.next_index += 1;
    }

    /// The frame the last [`FrameGenerator::step`] produced (an empty
    /// frame 0 before the first step).
    pub fn current(&self) -> &Frame {
        &self.current
    }
}

impl Iterator for FrameGenerator {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        self.step();
        Some(self.current.clone())
    }
}

/// Measured statistics of a generated frame sample, for validating the
/// generator against Table 2 (Fig 3a's dataset study).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampleStats {
    /// Frames measured.
    pub frames: u64,
    /// Mean objects per frame.
    pub objects_per_frame: f64,
    /// Mean camera-to-object distance over object observations.
    pub mean_distance: f64,
    /// Mean object size over object observations.
    pub mean_size: f64,
}

/// Measures statistics over the first `frames` frames of a category.
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn sample_stats(category: VideoCategory, seed: u64, frames: u64) -> SampleStats {
    assert!(frames > 0, "cannot measure zero frames");
    let mut object_count = 0u64;
    let mut dist_sum = 0.0;
    let mut size_sum = 0.0;
    for frame in FrameGenerator::new(category, seed).take(frames as usize) {
        for obj in &frame.objects {
            object_count += 1;
            dist_sum += obj.distance;
            size_sum += obj.size;
        }
    }
    let denom = object_count.max(1) as f64;
    SampleStats {
        frames,
        objects_per_frame: object_count as f64 / frames as f64,
        mean_distance: dist_sum / denom,
        mean_size: size_sum / denom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table2() {
        let bike = VideoCategory::Bike.spec();
        assert_eq!(bike.frames, 150_000);
        assert_eq!(bike.objects_per_frame, 1.1);
        assert_eq!(bike.distance, 2.08);
        assert_eq!(bike.size, 1.54);
        let shoe = VideoCategory::Shoe.spec();
        assert_eq!(shoe.objects_per_frame, 2.3);
        assert_eq!(VideoCategory::ALL.len(), 6);
    }

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<Frame> = FrameGenerator::new(VideoCategory::Cup, 5).take(50).collect();
        let b: Vec<Frame> = FrameGenerator::new(VideoCategory::Cup, 5).take(50).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Frame> = FrameGenerator::new(VideoCategory::Cup, 5).take(50).collect();
        let b: Vec<Frame> = FrameGenerator::new(VideoCategory::Cup, 6).take(50).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn stats_converge_to_table2() {
        for category in VideoCategory::ALL {
            let spec = category.spec();
            let stats = sample_stats(category, 11, 4000);
            let obj_err = (stats.objects_per_frame - spec.objects_per_frame).abs()
                / spec.objects_per_frame;
            let dist_err = (stats.mean_distance - spec.distance).abs() / spec.distance;
            let size_err = (stats.mean_size - spec.size).abs() / spec.size;
            assert!(obj_err < 0.25, "{}: objs/frame {} vs {}", spec.category.name(), stats.objects_per_frame, spec.objects_per_frame);
            assert!(dist_err < 0.15, "{}: distance {} vs {}", spec.category.name(), stats.mean_distance, spec.distance);
            assert!(size_err < 0.15, "{}: size {} vs {}", spec.category.name(), stats.mean_size, spec.size);
        }
    }

    #[test]
    fn tracks_persist_across_frames() {
        let frames: Vec<Frame> = FrameGenerator::new(VideoCategory::Book, 3).take(20).collect();
        // Some track id from frame 5 should still exist in frame 10.
        let early: Vec<u64> = frames[5].objects.iter().map(|o| o.track_id).collect();
        let later: Vec<u64> = frames[10].objects.iter().map(|o| o.track_id).collect();
        assert!(
            early.iter().any(|id| later.contains(id)),
            "expected temporal coherence between frames"
        );
    }

    #[test]
    fn tracks_drift_smoothly() {
        let frames: Vec<Frame> = FrameGenerator::new(VideoCategory::Laptop, 9).take(30).collect();
        for pair in frames.windows(2) {
            for obj in &pair[1].objects {
                if let Some(prev) =
                    pair[0].objects.iter().find(|o| o.track_id == obj.track_id)
                {
                    let step = prev.direction.distance_to(obj.direction);
                    assert!(step < deg(2.0), "object jumped {step} rad in one frame");
                }
            }
        }
    }

    /// The allocating frame loop `step` replaced: a fresh survivors vector
    /// and a cloned frame per call. The oracle the in-place step must match.
    fn allocating_next(g: &mut FrameGenerator) -> Frame {
        let mut survivors = Vec::with_capacity(g.current.objects.len());
        for obj in g.current.objects.drain(..) {
            if g.rng.chance(FrameGenerator::PERSISTENCE) {
                survivors.push(obj);
            }
        }
        g.current.objects = survivors;
        for obj in &mut g.current.objects {
            obj.direction = obj.direction.offset(
                g.rng.normal_with(0.0, deg(0.6)),
                g.rng.normal_with(0.0, deg(0.45)),
            );
            obj.distance = (obj.distance + g.rng.normal_with(0.0, obj.distance * 0.004))
                .max(g.spec.distance * 0.3);
        }
        let deficit = g.spec.objects_per_frame - g.current.objects.len() as f64;
        if deficit > 0.0 {
            if g.rng.chance((deficit * 0.25).min(1.0)) {
                let obj = g.spawn_object();
                g.current.objects.push(obj);
            }
        } else if !g.current.objects.is_empty() && g.rng.chance(((-deficit) * 0.25).min(1.0)) {
            g.current.objects.remove(0);
        }
        let frame = Frame { index: g.next_index, objects: g.current.objects.clone() };
        g.next_index += 1;
        frame
    }

    fn frame_bits(frame: &Frame) -> Vec<[u64; 5]> {
        frame
            .objects
            .iter()
            .map(|o| {
                [
                    o.track_id,
                    o.direction.azimuth.to_bits(),
                    o.direction.elevation.to_bits(),
                    o.distance.to_bits(),
                    o.size.to_bits(),
                ]
            })
            .collect()
    }

    #[test]
    fn step_and_snapshot_match_the_allocating_loop() {
        const FRAMES: u64 = 600;
        for category in VideoCategory::ALL {
            for seed in 0..16 {
                let mut oracle = FrameGenerator::new(category, seed);
                let frames: Vec<Frame> =
                    (0..FRAMES).map(|_| allocating_next(&mut oracle)).collect();
                // The run must cover spawns and retirements, or it shows little.
                let ids = |f: &Frame| f.objects.iter().map(|o| o.track_id).collect::<Vec<_>>();
                let retired = frames
                    .windows(2)
                    .any(|w| ids(&w[0]).iter().any(|id| !ids(&w[1]).contains(id)));
                assert!(retired && oracle.next_track > 1, "{category:?} seed {seed}: no churn");

                let mut iterated = FrameGenerator::new(category, seed);
                for (i, want) in frames.iter().enumerate() {
                    let got = iterated.next().unwrap();
                    let at = format!("{category:?} seed {seed} frame {i}");
                    assert_eq!(got.index, want.index, "{at}");
                    assert_eq!(frame_bits(&got), frame_bits(want), "{at}");
                }
                for k in [1u64, 3, 16] {
                    let mut stepped = FrameGenerator::new(category, seed);
                    for want in &frames {
                        stepped.step();
                        if (want.index + 1) % k == 0 {
                            let got = stepped.current();
                            let at = format!("{category:?} seed {seed} k {k}");
                            assert_eq!(got.index, want.index, "{at}");
                            assert_eq!(frame_bits(got), frame_bits(want), "{at}");
                        }
                    }
                    // The streams agree afterwards: same RNG state, same
                    // track counter, same next frame.
                    assert_eq!(stepped.rng, oracle.rng, "{category:?} seed {seed} k {k}");
                    assert_eq!(stepped.next_track, oracle.next_track);
                    assert_eq!(stepped.next_index, oracle.next_index);
                }
                assert_eq!(iterated.rng, oracle.rng, "{category:?} seed {seed}");
            }
        }
    }

    #[test]
    fn frames_are_indexed_sequentially() {
        let frames: Vec<Frame> = FrameGenerator::new(VideoCategory::Bike, 1).take(10).collect();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.index, i as u64);
        }
    }

    #[test]
    fn angular_helpers_behave() {
        let near_large = ObjectAnnotation {
            track_id: 0,
            direction: AngularPoint::CENTER,
            distance: 0.5,
            size: 0.4,
        };
        let far_small = ObjectAnnotation {
            track_id: 1,
            direction: AngularPoint::CENTER,
            distance: 2.0,
            size: 0.1,
        };
        assert!(near_large.angular_radius() > far_small.angular_radius());
        assert!(near_large.angular_depth() > far_small.angular_depth());
    }

    #[test]
    #[should_panic(expected = "zero frames")]
    fn zero_frame_stats_panic() {
        sample_stats(VideoCategory::Bike, 0, 0);
    }
}
