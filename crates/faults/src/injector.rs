//! The deterministic injector: `(seed, frame index) → faults`, with no
//! mutable state.
//!
//! [`FaultInjector::frame`] is a *pure function* of the seed and the frame
//! index: for every spec, the frame's window index seeds a fresh
//! [`Rng`] stream (per-kind salted), which decides
//! whether the whole window is faulted. Nothing is sampled sequentially
//! across frames, so evaluating frames in any order — or concurrently on
//! any number of workers — yields bit-identical faults. That is the
//! property the replay tests pin at worker counts {1, 2, 7}.

use crate::spec::{FaultKind, FaultSpec};
use holoar_core::sensor_input::{GazeInput, PoseInput, SensorSample};
use holoar_gpusim::DeviceConfig;
use holoar_pipeline::FrameLatencies;
use holoar_sensors::angles::deg;
use holoar_sensors::rng::Rng;

/// The resolved faults affecting one frame. Obtained from
/// [`FaultInjector::frame`]; apply with the `degrade_*`/`derate_*` helpers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameFaults {
    /// Gaze reads `Lost` this frame.
    pub gaze_dropout: bool,
    /// Extra eye-tracking latency, seconds.
    pub gaze_latency_spike: f64,
    /// Pose reads `Lost` this frame.
    pub pose_dropout: bool,
    /// IMU-noise jitter applied to the pose orientation, radians
    /// (azimuth, elevation).
    pub pose_jitter: (f64, f64),
    /// Effective GPU clock scale in `(0, 1]` (1 = nominal).
    pub clock_scale: f64,
    /// Effective DRAM bandwidth scale in `(0, 1]` (1 = nominal).
    pub dram_scale: f64,
    /// Extra pose-stage latency, seconds.
    pub stage_overrun: f64,
    /// The hosting device reads dead this frame (the fleet layer latches
    /// the first dead frame into a permanent loss).
    pub device_dead: bool,
}

impl Default for FrameFaults {
    /// A nominal (fault-free) frame.
    fn default() -> Self {
        FrameFaults {
            gaze_dropout: false,
            gaze_latency_spike: 0.0,
            pose_dropout: false,
            pose_jitter: (0.0, 0.0),
            clock_scale: 1.0,
            dram_scale: 1.0,
            stage_overrun: 0.0,
            device_dead: false,
        }
    }
}

impl FrameFaults {
    /// Applies the sensor-layer faults to a sensor bundle: dropouts turn
    /// inputs to `Lost`, IMU jitter perturbs the pose orientation, and the
    /// latency spike is charged to the gaze estimate.
    pub fn degrade_sensors(&self, sample: &SensorSample) -> SensorSample {
        let pose = if self.pose_dropout {
            PoseInput::Lost
        } else {
            match sample.pose {
                PoseInput::Tracked(mut p) => {
                    p.orientation = p.orientation.offset(self.pose_jitter.0, self.pose_jitter.1);
                    PoseInput::Tracked(p)
                }
                PoseInput::Lost => PoseInput::Lost,
            }
        };
        let gaze = if self.gaze_dropout {
            GazeInput::Lost
        } else {
            match sample.gaze {
                GazeInput::Tracked(mut g) => {
                    g.latency += self.gaze_latency_spike;
                    GazeInput::Tracked(g)
                }
                GazeInput::Lost => GazeInput::Lost,
            }
        };
        SensorSample { pose, gaze }
    }

    /// Applies the GPU-layer faults: a derated copy of the device
    /// configuration (see [`DeviceConfig::with_slowdown`]).
    pub fn derate_device(&self, config: &DeviceConfig) -> DeviceConfig {
        config.with_slowdown(self.clock_scale, self.dram_scale)
    }

    /// Applies the pipeline-layer faults to measured stage latencies: the
    /// stage overrun lands on the pose stage, the gaze spike on the eye
    /// stage.
    pub fn perturb_latencies(&self, mut lat: FrameLatencies) -> FrameLatencies {
        lat.pose += self.stage_overrun;
        lat.eye += self.gaze_latency_spike;
        lat
    }
}

/// The deterministic fault injector: a seed plus a set of fault processes.
///
/// # Examples
///
/// Same seed, same frame ⇒ bit-identical faults, in any evaluation order:
///
/// ```
/// use holoar_faults::{FaultInjector, FaultKind, FaultSpec};
///
/// let specs = vec![FaultSpec::new(FaultKind::SmSlowdown, 0.5, 8, 0.5)];
/// let a = FaultInjector::new(42, specs.clone()).unwrap();
/// let b = FaultInjector::new(42, specs).unwrap();
/// let forward: Vec<_> = (0..50).map(|i| a.frame(i)).collect();
/// let backward: Vec<_> = (0..50).rev().map(|i| b.frame(i)).collect();
/// assert!(forward.iter().eq(backward.iter().rev()));
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultInjector {
    /// Creates an injector after validating every spec.
    ///
    /// # Errors
    ///
    /// Returns the first spec's validation error message.
    pub fn new(seed: u64, specs: Vec<FaultSpec>) -> Result<Self, String> {
        for spec in &specs {
            spec.validate()?;
        }
        Ok(FaultInjector { seed, specs })
    }

    /// The injector's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured fault processes.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Resolves the faults affecting frame `index` — a pure function of
    /// `(seed, index)`.
    pub fn frame(&self, index: u64) -> FrameFaults {
        let _span = holoar_telemetry::span_cat("faults.frame", "faults");
        let mut faults = FrameFaults::default();
        for (slot, spec) in self.specs.iter().enumerate() {
            let window = index / spec.burst_frames;
            // One RNG stream per (spec slot, kind, window): the window
            // decision never depends on other frames, other specs, or
            // evaluation order.
            let stream = self
                .seed
                .wrapping_add(spec.kind.salt())
                .wrapping_add((slot as u64).wrapping_mul(0xA076_1D64_78BD_642F))
                .wrapping_add(window.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rng = Rng::seeded(stream);
            if !rng.chance(spec.window_probability) {
                continue;
            }
            holoar_telemetry::counter_add("faults.injected", 1);
            match spec.kind {
                FaultKind::GazeDropout => faults.gaze_dropout = true,
                FaultKind::GazeLatencySpike => faults.gaze_latency_spike += spec.magnitude,
                FaultKind::PoseDropout => faults.pose_dropout = true,
                FaultKind::ImuNoiseBurst => {
                    // Per-frame jitter inside the burst, from a per-frame
                    // stream so it stays order-independent.
                    let mut jrng = Rng::seeded(
                        stream ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(1),
                    );
                    let sigma = deg(spec.magnitude);
                    faults.pose_jitter.0 += jrng.normal_with(0.0, sigma);
                    faults.pose_jitter.1 += jrng.normal_with(0.0, sigma);
                }
                FaultKind::SmSlowdown => {
                    faults.clock_scale = faults.clock_scale.min(spec.magnitude);
                }
                FaultKind::DramContention => {
                    faults.dram_scale = faults.dram_scale.min(spec.magnitude);
                }
                FaultKind::StageOverrun => faults.stage_overrun += spec.magnitude,
                FaultKind::DeviceKill => faults.device_dead = true,
            }
        }
        faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holoar_sensors::angles::AngularPoint;
    use holoar_sensors::pose::PoseEstimate;

    fn spec(kind: FaultKind, prob: f64, burst: u64, mag: f64) -> FaultSpec {
        FaultSpec::new(kind, prob, burst, mag)
    }

    impl FrameFaults {
        /// Whether this frame is completely fault-free.
        pub(crate) fn is_nominal(&self) -> bool {
            *self == FrameFaults::default()
        }

        /// Whether the GPU is derated this frame.
        pub(crate) fn gpu_faulted(&self) -> bool {
            self.clock_scale < 1.0 || self.dram_scale < 1.0
        }
    }

    fn tracked_sample() -> SensorSample {
        let pose = PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 };
        SensorSample {
            pose: PoseInput::Tracked(pose),
            gaze: GazeInput::tracked(AngularPoint::CENTER),
        }
    }

    #[test]
    fn zero_probability_injects_nothing() {
        let inj = FaultInjector::new(
            7,
            FaultKind::ALL.iter().map(|&k| spec(k, 0.0, 4, 0.5)).collect(),
        )
        .unwrap();
        assert!((0..200).all(|i| inj.frame(i).is_nominal()));
    }

    #[test]
    fn certain_faults_cover_whole_windows() {
        let inj = FaultInjector::new(7, vec![spec(FaultKind::GazeDropout, 1.0, 5, 0.0)]).unwrap();
        assert!((0..50).all(|i| inj.frame(i).gaze_dropout));
    }

    #[test]
    fn bursts_respect_window_boundaries() {
        let inj = FaultInjector::new(11, vec![spec(FaultKind::SmSlowdown, 0.5, 8, 0.5)]).unwrap();
        for window in 0..40 {
            let first = inj.frame(window * 8).gpu_faulted();
            for offset in 1..8 {
                assert_eq!(
                    inj.frame(window * 8 + offset).gpu_faulted(),
                    first,
                    "window {window} must fault uniformly"
                );
            }
        }
        // Mid-probability faulting actually toggles across windows.
        let states: Vec<bool> = (0..40).map(|w| inj.frame(w * 8).gpu_faulted()).collect();
        assert!(states.iter().any(|&s| s) && states.iter().any(|&s| !s));
    }

    #[test]
    fn injector_is_a_pure_function_of_seed_and_index() {
        let specs: Vec<FaultSpec> = vec![
            spec(FaultKind::GazeDropout, 0.4, 3, 0.0),
            spec(FaultKind::SmSlowdown, 0.4, 6, 0.5),
            spec(FaultKind::ImuNoiseBurst, 0.4, 4, 2.0),
        ];
        let a = FaultInjector::new(99, specs.clone()).unwrap();
        let b = FaultInjector::new(99, specs.clone()).unwrap();
        for i in 0..300 {
            assert_eq!(a.frame(i), b.frame(i), "frame {i}");
        }
        let c = FaultInjector::new(100, specs).unwrap();
        assert!((0..300).any(|i| a.frame(i) != c.frame(i)), "seed must matter");
    }

    #[test]
    fn sensor_degradation_applies_dropouts_jitter_and_spikes() {
        let sample = tracked_sample();
        let faults = FrameFaults {
            gaze_dropout: true,
            stage_overrun: 0.008,
            ..FrameFaults::default()
        };
        let degraded = faults.degrade_sensors(&sample);
        assert_eq!(degraded.gaze, GazeInput::Lost);
        assert!(degraded.pose.estimate().is_some());

        let faults = FrameFaults {
            pose_dropout: true,
            gaze_latency_spike: 0.003,
            ..FrameFaults::default()
        };
        let degraded = faults.degrade_sensors(&sample);
        assert_eq!(degraded.pose, PoseInput::Lost);
        let gaze = degraded.gaze.estimate().unwrap();
        assert!((gaze.latency - (0.0044 + 0.003)).abs() < 1e-12);

        let faults = FrameFaults { pose_jitter: (0.01, -0.02), ..FrameFaults::default() };
        let p = faults.degrade_sensors(&sample).pose.estimate().unwrap();
        assert!((p.orientation.azimuth - 0.01).abs() < 1e-12);
        assert!((p.orientation.elevation + 0.02).abs() < 1e-12);
    }

    #[test]
    fn device_derating_and_latency_perturbation_apply() {
        let faults =
            FrameFaults { clock_scale: 0.5, dram_scale: 0.8, stage_overrun: 0.01, ..FrameFaults::default() };
        let nominal = DeviceConfig::default();
        let derated = faults.derate_device(&nominal);
        assert!((derated.clock_hz - nominal.clock_hz * 0.5).abs() < 1.0);
        let lat = faults.perturb_latencies(FrameLatencies {
            pose: 0.013,
            eye: 0.004,
            scene: 0.0,
            hologram: 0.02,
        });
        assert!((lat.pose - 0.023).abs() < 1e-12);
        assert!((lat.eye - 0.004).abs() < 1e-12);
    }

    #[test]
    fn invalid_specs_are_rejected_at_construction() {
        assert!(FaultInjector::new(1, vec![spec(FaultKind::SmSlowdown, 0.5, 4, 1.5)]).is_err());
    }
}
