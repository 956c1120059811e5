//! `hologram`: one closed-loop AR session synthesizing phase-only holograms
//! on the host.
//!
//! Per frame: sensors (frame generator + eye tracker, gaze on the first
//! object), `Planner::plan_frame_with` under Inter-Intra-Holo, then for every
//! object that needs computing a rendered depthmap sliced at the planned
//! plane count and five GSW iterations at 64×64 (radix-2 FFT path). Only
//! that is timed. Outside the timed region each session's plans are priced
//! with `execute_plan` on the modeled Xavier, and cycle 0's holograms are
//! checked by reconstruction.

use holoar_core::executor::execute_plan;
use holoar_core::quality::{virtual_object_for, OPTICAL_SCALE};
use holoar_core::{ComputePlan, GazeInput, HoloArConfig, Planner, PoseInput, Scheme, SensorSample};
use holoar_fft::ExecutionContext;
use holoar_gpusim::Device;
use holoar_metrics::{psnr, Image};
use holoar_optics::{
    algorithm1, gsw, reconstruct, Field, GswConfig, OpticalConfig, PlaneStack, Propagator,
};
use holoar_sensors::objectron::{FrameGenerator, ObjectAnnotation, VideoCategory};
use holoar_sensors::{AngularPoint, EyeTracker, PoseEstimate};
use holoar_serve::PSNR_CAP;
use holoar_telemetry::now_ns;

use crate::stats::{mean, quantile, Digest};
use crate::trace::Tracer;
use crate::{sub_seed, Checks, Cycles, Measurement, Model, Plan};

/// Hologram side, pixels (a power of two: the radix-2 FFT path).
pub const SIZE: usize = 64;

/// AR sessions per cycle, each with its own sub-seed. Objects persist
/// within a session, so many short sessions sample content better than one
/// long one.
pub const SESSIONS: usize = 80;

/// Frames per session synthesized on the host.
pub const FRAMES: u64 = 5;

/// Sessions (sub-seeds `0..`) planned and priced on the modeled Xavier,
/// and frames per session: 8000 frames, so the modeled latency p99 has 80
/// frames beyond it and varies little with the seed's content.
pub const MODEL_SESSIONS: (usize, u64) = (80, 100);

/// Largest allowed deviation of a phase-only sample's squared modulus from 1.
const UNIT_MODULUS_TOLERANCE: f64 = 1e-9;

/// Host time of one frame, split by the layer the benchmark called.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameTiming {
    /// Whole frame, ns.
    pub total_ns: u64,
    /// Frame generator and eye tracker, ns.
    pub sensors_ns: u64,
    /// `plan_frame_with`, ns.
    pub planner_ns: u64,
    /// Depthmap rendering and plane slicing, ns.
    pub render_ns: u64,
    /// `gsw::run`, ns.
    pub gsw_ns: u64,
    /// Depth planes synthesized.
    pub planes: u64,
}

struct Hologram {
    stack: PlaneStack,
    z_center: f64,
    field: Field,
}

struct Session {
    generator: FrameGenerator,
    tracker: EyeTracker,
    planner: Planner,
}

impl Session {
    fn new(seed: u64) -> Session {
        Session {
            generator: FrameGenerator::new(VideoCategory::Shoe, seed),
            tracker: EyeTracker::new(seed ^ 0x5EED),
            planner: Planner::new(HoloArConfig::for_scheme(Scheme::InterIntraHolo))
                .expect("the Inter-Intra-Holo defaults are valid"),
        }
    }

    /// Senses and plans one frame; also returns when planning started.
    fn sense_and_plan(&mut self) -> (ComputePlan, u64) {
        let frame = self
            .generator
            .next()
            .expect("frame generators are infinite");
        let truth = frame
            .objects
            .first()
            .map_or(AngularPoint::CENTER, |o| o.direction);
        let gaze = self.tracker.estimate(truth);
        let sample = SensorSample {
            pose: PoseInput::Tracked(PoseEstimate {
                orientation: AngularPoint::CENTER,
                latency: 0.01375,
            }),
            gaze: GazeInput::Tracked(gaze),
        };
        let t1 = now_ns();
        (self.planner.plan_frame_with(&frame, &sample), t1)
    }

    /// Runs one frame; returns its holograms and the host timing.
    fn step(&mut self, ctx: &ExecutionContext) -> (Vec<Hologram>, FrameTiming) {
        let optics = OpticalConfig::default();
        let t0 = now_ns();
        let (plan, t1) = self.sense_and_plan();
        let t2 = now_ns();
        let mut timing = FrameTiming::default();
        let mut holograms = Vec::new();
        for item in plan.items.iter().filter(|i| i.needs_compute()) {
            let a = now_ns();
            let (z_center, extent) = bench_geometry(&item.object);
            let depthmap =
                virtual_object_for(item.object.track_id).render(SIZE, SIZE, z_center, extent);
            let stack = depthmap.slice(item.planes as usize, optics);
            let b = now_ns();
            let result = gsw::run(&stack, optics, GswConfig::default(), ctx);
            let c = now_ns();
            timing.render_ns += b - a;
            timing.gsw_ns += c - b;
            timing.planes += u64::from(item.planes);
            holograms.push(Hologram {
                stack,
                z_center,
                field: result.hologram,
            });
        }
        let t3 = now_ns();
        timing.total_ns = t3 - t0;
        timing.sensors_ns = t1 - t0;
        timing.planner_ns = t2 - t1;
        (holograms, timing)
    }
}

/// Scene distance and size mapped to the optical bench, on a 0.5 mm grid
/// (the quality path's mapping).
fn bench_geometry(obj: &ObjectAnnotation) -> (f64, f64) {
    let grid = |z: f64| ((z * 2000.0).round() / 2000.0).max(0.0005);
    let z_center = grid(obj.distance * OPTICAL_SCALE);
    let extent = grid((obj.size * OPTICAL_SCALE).min(z_center * 0.8));
    (z_center, extent)
}

/// Whether every sample is finite with unit modulus.
fn is_phase_only(field: &Field) -> bool {
    field.samples().iter().all(|s| {
        let m = s.norm_sqr();
        m.is_finite() && (m - 1.0).abs() <= UNIT_MODULUS_TOLERANCE
    })
}

/// 3×3 box blur, clamped at the borders (speckle averaging before PSNR).
fn box_blur(img: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; img.len()];
    for r in 0..n {
        for c in 0..n {
            let (mut sum, mut count) = (0.0, 0.0);
            for rr in r.saturating_sub(1)..=(r + 1).min(n - 1) {
                for cc in c.saturating_sub(1)..=(c + 1).min(n - 1) {
                    sum += img[rr * n + cc];
                    count += 1.0;
                }
            }
            out[r * n + c] = sum / count;
        }
    }
    out
}

/// PSNR of the phase-only hologram's reconstruction at the object's center
/// depth against the exact complex (Algorithm 1) hologram's, capped at
/// `PSNR_CAP`. `None` when either image is not finite.
fn reconstruction_psnr(h: &Hologram, ctx: &ExecutionContext) -> Option<f64> {
    let reference = algorithm1::hologram_from_planes(&h.stack, OpticalConfig::default(), ctx);
    let mut prop = Propagator::with_context(ctx);
    let ideal = reconstruct::reconstruct_intensity(&reference.hologram, h.z_center, &mut prop);
    let achieved = reconstruct::reconstruct_intensity(&h.field, h.z_center, &mut prop);
    let ideal = Image::new(SIZE, SIZE, box_blur(&ideal, SIZE))
        .ok()?
        .normalized();
    let achieved = Image::new(SIZE, SIZE, box_blur(&achieved, SIZE))
        .ok()?
        .normalized();
    let db = psnr(&ideal, &achieved).ok()?.min(PSNR_CAP);
    db.is_finite().then_some(db)
}

/// Set-up: a fresh context warmed by one 16-plane reference hologram
/// (FFT plans, transfer functions and scratch filled). The reference is
/// the same for every seed. Returns the context.
pub fn setup() -> ExecutionContext {
    let ctx = ExecutionContext::auto();
    let optics = OpticalConfig::default();
    let stack = virtual_object_for(0)
        .render(SIZE, SIZE, 0.006, 0.002)
        .slice(16, optics);
    std::hint::black_box(gsw::run(&stack, optics, GswConfig::default(), &ctx));
    ctx
}

/// The modeled pass, outside any timing: the plans of `MODEL_SESSIONS`
/// priced by `execute_plan` on the modeled Xavier. Returns per-frame
/// latency and energy (ms, mJ) and a digest of both.
fn price_sessions(seed: u64) -> (Vec<f64>, Vec<f64>, Digest) {
    let (sessions, frames) = MODEL_SESSIONS;
    let (mut latency_ms, mut energy_mj, mut digest) = (Vec::new(), Vec::new(), Digest::default());
    for k in 0..sessions {
        let mut session = Session::new(sub_seed(seed, k));
        let mut device = Device::xavier();
        for _ in 0..frames {
            let perf = execute_plan(&mut device, &session.sense_and_plan().0);
            latency_ms.push(perf.latency * 1e3);
            energy_mj.push(perf.energy * 1e3);
            digest.float(perf.latency);
            digest.float(perf.energy);
        }
    }
    (latency_ms, energy_mj, digest)
}

/// Runs cycles of AR sessions, one per sub-seed, `FRAMES` frames each;
/// cycle 0's holograms are also checked by reconstruction. `tracer`, when
/// given, folds each frame and discards the pricing and the checks.
pub fn measure(plan: &Plan, mut tracer: Option<&mut Tracer>) -> Measurement {
    let t0 = now_ns();
    let (latency_ms, energy_mj, priced) = price_sessions(plan.seed);
    let price_ns = now_ns() - t0;
    if let Some(t) = tracer.as_deref_mut() {
        t.discard();
    }
    let mut checks = Checks::default();
    let mut timings = Vec::new();
    let mut psnr_db = Vec::new();
    let mut hologram_digests = Vec::new();
    let mut model_digests = vec![Digest::default(); plan.subs];
    let (ns, kernel_ns) = plan.run(|cycle, k| {
        let ctx = plan.ctx(cycle, k);
        let mut session = Session::new(sub_seed(plan.seed, k));
        let mut holo_digest = Digest::default();
        let mut frame_ns = Vec::new();
        for _ in 0..FRAMES {
            let (holograms, timing) = session.step(ctx);
            if let Some(t) = tracer.as_deref_mut() {
                t.drain();
            }
            frame_ns.push(timing.total_ns);
            timings.push(timing);
            for h in &holograms {
                checks.record(is_phase_only(&h.field));
                for s in h.field.samples() {
                    holo_digest.float(s.re);
                    holo_digest.float(s.im);
                }
            }
            if cycle == 0 {
                for h in &holograms {
                    let db = reconstruction_psnr(h, ctx);
                    checks.record(db.is_some());
                    let db = db.unwrap_or(0.0);
                    psnr_db.push(db);
                    model_digests[k].float(db);
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.discard();
                }
            }
        }
        if cycle == 0 {
            hologram_digests.push(holo_digest.value());
            model_digests[k].word(holo_digest.value());
        } else {
            // Later cycles replay cycle 0's inputs on warm caches and, for
            // session 0 of an untraced phase, another worker count: the
            // holograms must repeat bit for bit.
            checks.record(hologram_digests[k] == holo_digest.value());
        }
        frame_ns
    });
    let frames = timings.len() as f64;
    let planes: u64 = timings.iter().map(|t| t.planes).sum();
    let per_frame = |f: fn(&FrameTiming) -> u64| timings.iter().map(f).sum::<u64>() as f64 / frames;
    Measurement {
        cycles: Cycles {
            ns,
            kernel_ns,
            frames: vec![1; plan.subs * FRAMES as usize],
            session_frames: vec![1; plan.subs * FRAMES as usize],
        },
        ops: frames,
        model: Model {
            frame_ms_p99: quantile(&latency_ms, 0.99),
            energy_mj: Some(mean(&energy_mj)),
            goodput: None,
            psnr_db: Some(mean(&psnr_db)),
            // Per session its holograms and their PSNR, then the pricing.
            digests: model_digests
                .iter()
                .chain([&priced])
                .map(|d| d.value())
                .collect(),
        },
        checks,
        layer: vec![
            ("optics.planes_per_op", planes as f64 / frames),
            ("sensors.frame_us_per_op", per_frame(|t| t.sensors_ns) / 1e3),
            ("bench.planner_us_per_op", per_frame(|t| t.planner_ns) / 1e3),
            ("bench.render_ms_per_op", per_frame(|t| t.render_ns) / 1e6),
            ("bench.gsw_ms_per_op", per_frame(|t| t.gsw_ns) / 1e6),
            (
                "bench.plan_and_price_us_per_op",
                price_ns as f64 / 1e3 / latency_ms.len() as f64,
            ),
        ],
    }
}
