//! One function per paper artifact: each regenerates the table/figure's
//! rows/series and returns a text report with the paper's number alongside.
//!
//! Frame budgets are scaled down from the published videos' hundreds of
//! thousands of frames (the generators are stationary, so a few hundred
//! frames estimate the same means); the `frames` parameter of
//! [`ExperimentConfig`] controls the budget.

use crate::report::{ms, pct, Table};
use holoar_core::{evaluation, quality, ExecutionContext, Horn8Model, HoloArConfig, Planner, Scheme};
use holoar_gpusim::hologram_kernels::{self, HologramJob};
use holoar_gpusim::{calibration, Device, JobPricer, Profiler};
use holoar_optics::{algorithm1, reconstruct, OpticalConfig, Propagator, Pupil, VirtualObject};
use holoar_pipeline::characterize::characterize;
use holoar_pipeline::task::TaskKind;
use holoar_sensors::angles::{deg, AngularPoint};
use holoar_sensors::objectron::VideoCategory;
use holoar_sensors::pose::PoseEstimate;
use holoar_sensors::stats::{dataset_study, gaze_study};
use holoar_telemetry::jsonlite::Json;

/// Budget knobs for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Frames evaluated per (video, scheme) cell.
    pub frames: u64,
    /// Master seed.
    pub seed: u64,
    /// Restrict the `serve` experiment to one fleet size instead of the
    /// default [`SERVE_SWEEP`], and override the `fleet` experiment's
    /// offered sessions per device (`--sessions` on the CLI). Other
    /// experiments ignore it.
    pub sessions: Option<u32>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig { frames: 150, seed: 42, sessions: None }
    }
}

/// Table 1: ideal latency requirements.
pub fn table1(_cfg: &ExperimentConfig) -> String {
    let mut t = Table::new(["Task", "Ideal Latency (ms)", "Algo."]);
    for kind in TaskKind::ALL {
        t.row([kind.name().to_string(), ms(kind.ideal_latency()), kind.algorithm().to_string()]);
    }
    format!("== Table 1: ideal latency requirements ==\n{}", t.render())
}

/// Fig 2: practical vs ideal latency per pipeline task.
pub fn fig2(_cfg: &ExperimentConfig) -> String {
    let rows = characterize(&Device::xavier());
    let mut t = Table::new(["Task", "Ideal (ms)", "Measured (ms)", "Gap", "Meets?"]);
    for r in &rows {
        t.row([
            r.kind.name().to_string(),
            ms(r.ideal),
            ms(r.measured),
            format!("{:.1}x", r.gap()),
            if r.meets_deadline() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    format!(
        "== Fig 2: pipeline characterization ==\n{}\
         paper: pose 13.8 ms, eye 4.4 ms, scene-reconstruct 120 ms, hologram 341.7 ms (~10x gap)\n",
        t.render()
    )
}

/// Fig 3: the dataset study (object statistics + gaze temporal locality).
pub fn fig3(cfg: &ExperimentConfig) -> String {
    let rows = dataset_study(cfg.seed, cfg.frames.max(500));
    let mut t = Table::new([
        "Video",
        "Obj/Frame",
        "(paper)",
        "Cam2ObjDist m",
        "(paper)",
        "ObjSize m",
        "(paper)",
    ]);
    for r in &rows {
        t.row([
            r.category.name().to_string(),
            format!("{:.2}", r.measured.objects_per_frame),
            format!("{:.1}", r.expected_objects_per_frame),
            format!("{:.2}", r.measured.mean_distance),
            format!("{:.2}", r.expected_distance),
            format!("{:.2}", r.measured.mean_size),
            format!("{:.2}", r.expected_size),
        ]);
    }
    let users = gaze_study(cfg.seed, 10.0);
    let mut g = Table::new(["User", "Locality (5°, 1 s)", "Centroid az°", "Centroid el°"]);
    for u in &users {
        let c = u.trace.centroid();
        g.row([
            format!("User{}", u.user),
            format!("{:.2}", u.locality),
            format!("{:.1}", c.azimuth.to_degrees()),
            format!("{:.1}", c.elevation.to_degrees()),
        ]);
    }
    let sim13 =
        holoar_sensors::gaze::heatmap_overlap(&users[0].heatmap, &users[2].heatmap);
    let sim12 =
        holoar_sensors::gaze::heatmap_overlap(&users[0].heatmap, &users[1].heatmap);
    format!(
        "== Fig 3a: object statistics per category ==\n{}\n\
         == Fig 3b: gaze temporal locality (10 s @ 30 Hz) ==\n{}\
         heatmap overlap User1~User3: {sim13:.2}, User1~User2: {sim12:.2} \
         (paper: User1 similar to User3, User2 bottom-left)\n",
        t.render(),
        g.render()
    )
}

/// Fig 4b: hologram latency versus depth-plane count (forward vs backward).
pub fn fig4(_cfg: &ExperimentConfig) -> String {
    let device = Device::xavier();
    let mut t =
        Table::new(["Planes", "Forward (ms)", "Backward (ms)", "Total (ms)", "vs 2x planes"]);
    let plane_counts = [2u32, 4, 8, 16, 32];
    let mut totals = Vec::new();
    for &p in &plane_counts {
        let (fwd, bwd) =
            hologram_kernels::step_latencies(&device, calibration::HOLOGRAM_PIXELS, p);
        totals.push(fwd + bwd);
        t.row([
            p.to_string(),
            ms(fwd),
            ms(bwd),
            ms(fwd + bwd),
            if totals.len() >= 2 {
                format!("{:.2}x", totals[totals.len() - 1] / totals[totals.len() - 2])
            } else {
                "-".to_string()
            },
        ]);
    }
    format!(
        "== Fig 4b: latency vs depth planes (512², 5 GSW iterations) ==\n{}\
         paper: the two steps take similar times; 2x planes ≈ 2x latency; 16 planes > 300 ms\n",
        t.render()
    )
}

/// Fig 5: the three approximation scenarios on a worked 3-object example.
pub fn fig5(_cfg: &ExperimentConfig) -> String {
    use holoar_sensors::objectron::{Frame, ObjectAnnotation};
    // Soccer ball near center, football right of gaze, box far outside.
    let ball = ObjectAnnotation {
        track_id: 1,
        direction: AngularPoint::new(deg(-4.0), 0.0),
        distance: 1.4,
        size: 0.22,
    };
    let football = ObjectAnnotation {
        track_id: 2,
        direction: AngularPoint::new(deg(12.0), deg(-4.0)),
        distance: 0.6,
        size: 0.28,
    };
    let boxobj = ObjectAnnotation {
        track_id: 3,
        direction: AngularPoint::new(deg(45.0), deg(10.0)),
        distance: 1.0,
        size: 0.4,
    };
    let frame = Frame { index: 0, objects: vec![ball, football, boxobj] };
    let pose = PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 };
    let gaze = ball.direction;

    let mut out = String::from("== Fig 5: three approximation opportunities ==\n");
    for scheme in Scheme::ALL {
        let mut planner = Planner::new(HoloArConfig::for_scheme(scheme)).unwrap();
        let plan = planner.plan_frame(&frame, &pose, gaze, 0.0044);
        let mut t = Table::new(["Object", "Coverage", "In RoF", "Planes"]);
        for (item, name) in plan.items.iter().zip(["soccer ball", "football", "box"]) {
            t.row([
                name.to_string(),
                format!("{:.2}", item.coverage),
                if item.in_rof { "yes" } else { "no" }.to_string(),
                item.planes.to_string(),
            ]);
        }
        out.push_str(&format!("-- {} --\n{}", scheme.name(), t.render()));
    }
    out.push_str(
        "paper: box skipped by the viewing window; unattended objects approximated by \
         Inter-Holo; far/small objects approximated by Intra-Holo\n",
    );
    out
}

/// §3's NVPROF profile: SM utilization, L1 hit rate and stall breakdowns.
pub fn sec3(_cfg: &ExperimentConfig) -> String {
    let device = Device::xavier();
    let mut profiler = Profiler::new();
    let kernels = hologram_kernels::job_kernels(&HologramJob::full(16));
    for stats in device.execute_all(&kernels) {
        profiler.record(&stats);
    }
    let mut out = String::from("== Section 3: hologram kernel profile ==\n");
    out.push_str(&profiler.report());
    out.push_str(
        "paper: SM util 74% fwd / 90% bwd; L1 hit 99%; fwd stalls led by Data Request (21%), \
         Execution Dependency (19%), Instruction Fetch (15%), Sync (10%); bwd by Read-only \
         Loads (42%), Sync (24%), Data Request (16%), Execution Dependency (6%)\n",
    );
    out
}

/// Table 2: the six videos' statistics as generated.
pub fn table2(cfg: &ExperimentConfig) -> String {
    let rows = dataset_study(cfg.seed, cfg.frames.max(500));
    let mut t =
        Table::new(["No.", "Video", "#Frames (paper)", "#Obj/Frame", "Distance", "ObjSize"]);
    for (i, r) in rows.iter().enumerate() {
        let spec = r.category.spec();
        t.row([
            (i + 1).to_string(),
            r.category.name().to_string(),
            format!("{}k", spec.frames / 1000),
            format!("{:.2} ({:.1})", r.measured.objects_per_frame, spec.objects_per_frame),
            format!("{:.2}m ({:.2}m)", r.measured.mean_distance, spec.distance),
            format!("{:.2}m ({:.2}m)", r.measured.mean_size, spec.size),
        ]);
    }
    format!("== Table 2: videos (measured vs paper) ==\n{}", t.render())
}

/// Fig 7: power, latency and energy across videos and configurations, plus
/// the fleet headline numbers.
pub fn fig7(cfg: &ExperimentConfig) -> String {
    let matrix = evaluation::evaluate_matrix(&Device::xavier(), cfg.frames, cfg.seed);
    let mut out = String::from("== Fig 7: power / latency / energy per video and config ==\n");
    let mut t = Table::new([
        "Video",
        "Config",
        "Power (W)",
        "Latency (ms)",
        "Energy (mJ)",
        "Planes",
    ]);
    for &v in &VideoCategory::ALL {
        for &s in &Scheme::ALL {
            let c = matrix.cell(v, s).expect("full matrix");
            t.row([
                v.name().to_string(),
                s.name().to_string(),
                format!("{:.2}", c.mean_power),
                ms(c.mean_latency),
                format!("{:.0}", c.mean_energy * 1e3),
                format!("{:.1}", c.mean_planes),
            ]);
        }
    }
    out.push_str(&t.render());

    let mut h = Table::new([
        "Config",
        "Speedup",
        "(paper)",
        "Power red.",
        "(paper)",
        "Energy sav.",
        "(paper)",
    ]);
    let paper = [
        (Scheme::InterHolo, "1.15x", "3.9%", "18%"),
        (Scheme::IntraHolo, "2.42x", "27.7%", "70%"),
        (Scheme::InterIntraHolo, "2.68x", "29.0%", "73%"),
    ];
    for (s, sp, pw, en) in paper {
        h.row([
            s.name().to_string(),
            format!("{:.2}x", matrix.fleet_speedup(s)),
            sp.to_string(),
            pct(matrix.fleet_power_reduction(s)),
            pw.to_string(),
            pct(matrix.fleet_energy_savings(s)),
            en.to_string(),
        ]);
    }
    out.push_str("\n-- fleet headline numbers --\n");
    out.push_str(&h.render());
    out
}

/// Fig 8: (a) power breakdown versus plane count; (b) average plane counts
/// per configuration.
pub fn fig8(cfg: &ExperimentConfig) -> String {
    let device = Device::xavier();
    let power = device.config().power;
    let mut a = Table::new(["Planes", "SoC (W)", "CPU (W)", "GPU (W)", "Mem (W)", "Total (W)"]);
    for planes in [2u32, 4, 8, 12, 16] {
        let rails = power.rails(holoar_gpusim::Activity::for_hologram(planes as f64, &power));
        a.row([
            planes.to_string(),
            format!("{:.2}", rails.soc),
            format!("{:.2}", rails.cpu),
            format!("{:.2}", rails.gpu),
            format!("{:.2}", rails.mem),
            format!("{:.2}", rails.total()),
        ]);
    }

    let matrix = evaluation::evaluate_matrix(&device, cfg.frames, cfg.seed);
    let mut b = Table::new(["Config", "Avg planes/frame", "(paper)"]);
    let paper = [
        (Scheme::Baseline, "23.6"),
        (Scheme::InterHolo, "19.8"),
        (Scheme::IntraHolo, "7.1"),
        (Scheme::InterIntraHolo, "6.7"),
    ];
    for (s, p) in paper {
        b.row([
            s.name().to_string(),
            format!("{:.1}", matrix.fleet_mean(s, |c| c.mean_planes)),
            p.to_string(),
        ]);
    }
    format!(
        "== Fig 8a: power breakdown vs planes ==\n{}\n== Fig 8b: avg depth planes per config ==\n{}",
        a.render(),
        b.render()
    )
}

/// Fig 9: W-CGH / S-CGH reconstructions versus pupil position and focal
/// distance for the Planet hologram.
pub fn fig9(_cfg: &ExperimentConfig) -> String {
    let optics = OpticalConfig::default();
    let n = 64;
    let z_center = 0.006;
    let depthmap = VirtualObject::Planet.render(n, n, z_center, 0.003);
    let stack = depthmap.slice(16, optics);
    let ctx = ExecutionContext::serial();
    let w_cgh = algorithm1::hologram_from_planes(&stack, optics, &ctx).hologram;
    // S-CGH from planes 9..=12 (1-based) as in the figure.
    let s_cgh = algorithm1::hologram_from_planes(&stack.subset(8, 11), optics, &ctx).hologram;

    let mut prop = Propagator::new();
    let sharpness = |img: &[f64]| {
        // Peak-to-mean ratio: focused reconstructions concentrate energy.
        let peak = img.iter().cloned().fold(0.0, f64::max);
        let mean = img.iter().sum::<f64>() / img.len() as f64;
        peak / mean.max(f64::MIN_POSITIVE)
    };

    let mut a = Table::new(["Pupil position", "Collected energy", "Sharpness"]);
    for (name, px, py) in
        [("center", 0.0, 0.0), ("left", -0.35, 0.0), ("right", 0.35, 0.0), ("up", 0.0, 0.35)]
    {
        let img =
            reconstruct::view_through_pupil(&w_cgh, z_center, Pupil::new(px, py, 0.45), &mut prop);
        a.row([
            name.to_string(),
            format!("{:.3}", img.iter().sum::<f64>()),
            format!("{:.1}", sharpness(&img)),
        ]);
    }

    let mut b = Table::new(["Focal distance (mm)", "W-CGH sharpness", "S-CGH sharpness"]);
    for dz in [-0.002f64, -0.001, 0.0, 0.001, 0.002] {
        let z = z_center + dz;
        let w = reconstruct::reconstruct_intensity(&w_cgh, z, &mut prop);
        let s = reconstruct::reconstruct_intensity(&s_cgh, z, &mut prop);
        b.row([
            format!("{:.1}", z * 1e3),
            format!("{:.1}", sharpness(&w)),
            format!("{:.1}", sharpness(&s)),
        ]);
    }
    format!(
        "== Fig 9a: viewing the W-CGH from different pupil positions ==\n{}\n\
         == Fig 9b/9c: W-CGH vs S-CGH (planes 9-12) across focal distances ==\n{}\
         paper: every pupil position sees the object; the S-CGH reconstructs \
         only its plane subset's content\n",
        a.render(),
        b.render()
    )
}

/// Fig 10: (a) PSNR per configuration; (b) the α energy/quality trade-off.
pub fn fig10(cfg: &ExperimentConfig) -> String {
    let sample_frames = (cfg.frames / 30).clamp(2, 8);
    let ctx = ExecutionContext::serial();
    let mut a = Table::new(["Config", "Mean PSNR (dB, capped 50)", "(paper)"]);
    for (scheme, paper) in [
        (Scheme::InterHolo, "high (approximates only periphery)"),
        (Scheme::IntraHolo, "mid-30s"),
        (Scheme::InterIntraHolo, "30.7 avg"),
    ] {
        let mut sum = 0.0;
        let mut count = 0;
        for &v in &VideoCategory::ALL {
            let vq = quality::video_quality(
                v,
                HoloArConfig::for_scheme(scheme),
                sample_frames,
                cfg.seed,
                &ctx,
            );
            if let Some(p) = vq.mean_psnr_capped() {
                sum += p;
                count += 1;
            }
        }
        a.row([
            scheme.name().to_string(),
            format!("{:.1}", sum / count.max(1) as f64),
            paper.to_string(),
        ]);
    }

    let design_points = quality::DesignPoint::fig10b_points();
    let points = quality::design_sweep(&design_points, sample_frames, cfg.seed, &ctx);
    let mut b = Table::new(["alpha", "theta scale", "Mean PSNR (dB)", "Mean planes/object"]);
    for (dp, p) in design_points.iter().zip(&points) {
        b.row([
            format!("{:.3}", dp.alpha),
            format!("{:.2}", dp.theta_scale),
            format!("{:.1}", p.mean_psnr),
            format!("{:.1}", p.mean_planes),
        ]);
    }
    format!(
        "== Fig 10a: reconstruction quality per config ==\n{}\n\
         == Fig 10b: alpha sensitivity (more savings <-> more quality drop) ==\n{}\
         paper: clear trade-off; even the most aggressive setting stays usable (~30 dB)\n",
        a.render(),
        b.render()
    )
}

/// §5.3's HORN-8 energy comparison.
pub fn horn8(cfg: &ExperimentConfig) -> String {
    let matrix = evaluation::evaluate_matrix(&Device::xavier(), cfg.frames, cfg.seed);
    let model = Horn8Model::default();
    let base = matrix.fleet_mean(Scheme::Baseline, |c| c.mean_energy);
    let holoar = matrix.fleet_mean(Scheme::InterIntraHolo, |c| c.mean_energy);
    let mut t = Table::new(["Design", "Energy/frame (mJ)", "Savings vs baseline"]);
    t.row(["Baseline (GPU)".to_string(), format!("{:.0}", base * 1e3), "-".to_string()]);
    t.row([
        "HORN-8 (estimated)".to_string(),
        format!("{:.0}", model.mean_energy(&matrix) * 1e3),
        pct(model.energy_savings(&matrix)),
    ]);
    t.row([
        "HoloAR (Inter-Intra)".to_string(),
        format!("{:.0}", holoar * 1e3),
        pct(matrix.fleet_energy_savings(Scheme::InterIntraHolo)),
    ]);
    format!(
        "== HORN-8 comparison ==\n{}\
         HoloAR saves {} more of the baseline energy than HORN-8 (paper: ~25%)\n\
         (HORN-8 numbers are estimates from published FPGA/GPU data, as in the paper)\n",
        t.render(),
        pct(model.holoar_advantage(&matrix))
    )
}

/// Ablation: the §5.5 hybrid accelerator/GPU plane partitioning.
pub fn hybrid(_cfg: &ExperimentConfig) -> String {
    let mut t = Table::new(["PUs", "Accel planes", "GPU planes", "Relative makespan"]);
    for pus in [0u32, 1, 2, 4, 8] {
        let s = holoar_core::horn8::plan_hybrid(16, pus, 1.5);
        t.row([
            pus.to_string(),
            s.accelerator_planes.to_string(),
            s.gpu_planes.to_string(),
            format!("{:.2}", s.relative_makespan),
        ]);
    }
    format!("== §5.5 ablation: hybrid accelerator/GPU partitioning (16 planes) ==\n{}", t.render())
}

/// Ablation: §5.5's power-gating and DVFS knobs on approximated workloads.
pub fn gating(_cfg: &ExperimentConfig) -> String {
    use holoar_gpusim::gating::{dvfs_sweep, gated_cost, DvfsPoint, GatingPolicy};

    // Gating matters for small sub-holograms (approximated or partially
    // visible objects whose grids cannot fill the device).
    let device = Device::xavier();
    let pricer = device.pricer();
    let mut t = Table::new(["Workload", "Energy ungated (mJ)", "Energy gated (mJ)", "Savings"]);
    for (name, job) in [
        ("full 16-plane hologram", HologramJob::full(16)),
        ("8-plane hologram", HologramJob::full(8)),
        ("tiny sub-hologram (0.4% aperture)", HologramJob { coverage: 0.004, ..HologramJob::full(4) }),
    ] {
        let plain = pricer.cost(&job);
        let gated = gated_cost(pricer, &job, GatingPolicy::default());
        t.row([
            name.to_string(),
            format!("{:.2}", plain.energy * 1e3),
            format!("{:.2}", gated.energy * 1e3),
            pct(1.0 - gated.energy / plain.energy.max(f64::MIN_POSITIVE)),
        ]);
    }

    let points: Vec<DvfsPoint> =
        [0.5, 0.75, 1.0].iter().map(|&f| DvfsPoint::new(f)).collect();
    let outcomes = dvfs_sweep(&holoar_gpusim::DeviceConfig::default(), &HologramJob::full(8), &points);
    let mut d = Table::new(["Clock scale", "Latency (ms)", "Energy (mJ)"]);
    for o in &outcomes {
        d.row([
            format!("{:.2}", o.point.frequency_scale),
            ms(o.latency),
            format!("{:.0}", o.energy * 1e3),
        ]);
    }
    format!(
        "== §5.5 ablation: power gating and DVFS ==\n{}\n-- DVFS sweep (8-plane hologram) --\n{}\
         takeaway: gating pays on small grids; mild down-clocking finds an energy sweet \
         spot, but deep down-clocking loses to the board's static power\n",
        t.render(),
        d.render()
    )
}

/// Ablation: the viewing-window reuse cache's contribution (Fig 5a's
/// Frame-II "skip the soccer ball" logic).
pub fn reuse(cfg: &ExperimentConfig) -> String {
    let mut t = Table::new([
        "Config",
        "Latency w/ reuse (ms)",
        "w/o reuse (ms)",
        "Reuse fraction",
        "Latency saved",
    ]);
    let device = Device::xavier();
    for &scheme in &[Scheme::Baseline, Scheme::InterIntraHolo] {
        let mut sum_with = 0.0;
        let mut sum_without = 0.0;
        let mut reuse_frac = 0.0;
        for &v in &VideoCategory::ALL {
            let mut with = Planner::new(HoloArConfig::for_scheme(scheme)).unwrap();
            let r_with = evaluation::evaluate_with_planner(
                &device, &mut with, v, cfg.frames, cfg.seed);
            let mut without =
                Planner::new(HoloArConfig::for_scheme(scheme).without_reuse()).unwrap();
            let r_without = evaluation::evaluate_with_planner(
                &device, &mut without, v, cfg.frames, cfg.seed);
            sum_with += r_with.mean_latency;
            sum_without += r_without.mean_latency;
            reuse_frac += r_with.reuse_fraction;
        }
        let n = VideoCategory::ALL.len() as f64;
        t.row([
            scheme.name().to_string(),
            ms(sum_with / n),
            ms(sum_without / n),
            format!("{:.2}", reuse_frac / n),
            pct(1.0 - sum_with / sum_without),
        ]);
    }
    format!(
        "== ablation: cross-frame sub-hologram reuse ==\n{}\
         reuse contributes a modest, scene-motion-dependent saving on top of the \
         approximation schemes\n",
        t.render()
    )
}

/// Ablation: kernel fusion versus approximation (the engineering
/// alternative §3's stall analysis invites).
pub fn fusion(_cfg: &ExperimentConfig) -> String {
    let device = Device::xavier();
    let pricer = device.pricer();
    let mut t = Table::new(["Planes", "Per-plane kernels (ms)", "Fused (ms)", "Fusion saves"]);
    for planes in [4u32, 8, 16] {
        let job = HologramJob::full(planes);
        let plain = pricer.latency(&job);
        // A batch of one job: each step's planes in one launch.
        let fused = pricer.batch(&[job]).latency;
        t.row([
            planes.to_string(),
            ms(plain),
            ms(fused),
            pct(1.0 - fused / plain),
        ]);
    }
    format!(
        "== ablation: kernel fusion vs approximation ==\n{}\
         fusing all plane kernels recovers only launch/drain overheads (a few percent); \
         halving the plane count recovers ~50% — approximation, not kernel engineering, \
         is the lever (the paper's §4 premise)\n",
        t.render()
    )
}

/// Supplementary: stream-level plane parallelism on the event-driven
/// timeline — the mechanism behind Fig 8a's activity-vs-planes curve.
pub fn streams(_cfg: &ExperimentConfig) -> String {
    use holoar_gpusim::timeline::{plane_stream_ops, simulate};
    let cfg = holoar_gpusim::DeviceConfig::default();
    let mut t = Table::new([
        "Planes (streams)",
        "Makespan (ms)",
        "Mean occupancy",
        "Serial makespan (ms)",
    ]);
    for planes in [1u32, 2, 4, 8, 16] {
        // Sub-hologram-sized planes (small grids) so concurrency matters.
        let pixels = 8 * 256;
        let parallel = simulate(&plane_stream_ops(pixels, planes), &cfg);
        let serial_ops: Vec<_> = plane_stream_ops(pixels, planes)
            .into_iter()
            .map(|mut op| {
                op.stream = 0;
                op
            })
            .collect();
        let serial = simulate(&serial_ops, &cfg);
        t.row([
            planes.to_string(),
            format!("{:.3}", parallel.makespan * 1e3),
            format!("{:.2}", parallel.mean_occupancy()),
            format!("{:.3}", serial.makespan * 1e3),
        ]);
    }
    format!(
        "== supplementary: plane-level stream parallelism (event-driven timeline) ==\n{}\
         more planes in flight keep more block slots occupied — the occupancy curve \
         the power model's activity(planes) term encodes\n",
        t.render()
    )
}

/// Worker counts every parallel-bench sweep records. `BENCH_parallel.json`
/// always carries one cell per (workload, worker count) pair regardless of
/// the host's core count, so CI can gate on fixed cells.
pub const BENCH_WORKERS: [usize; 3] = [1, 2, 7];

/// One timing cell of the `parallel` experiment: a (workload, worker
/// count) configuration measured against the single-thread reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelCell {
    /// What was measured (workload and size).
    pub label: String,
    /// Worker count the cell ran with (`Parallelism::new(workers)`).
    pub workers: usize,
    /// Best-of-three single-thread reference wall time, milliseconds
    /// (shared by every cell of the same workload).
    pub serial_ms: f64,
    /// Best-of-three wall time of this cell's configuration, milliseconds.
    pub parallel_ms: f64,
    /// Whether the cell's output matched its single-worker twin
    /// bit-for-bit (the determinism guarantee).
    pub bit_identical: bool,
}

impl ParallelCell {
    /// Reference (single-thread) time over this cell's time.
    pub fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(f64::MIN_POSITIVE)
    }
}

/// Best-of-three wall time of `f`, in milliseconds, on the telemetry
/// monotonic clock (the workspace's single time source).
fn best_of_three_ms<F: FnMut()>(mut f: F) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = holoar_telemetry::now_ns();
            f();
            holoar_telemetry::now_ns().saturating_sub(t0) as f64 * 1e-6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the plane-grain engine: one field propagated to eight distances
/// and GSW synthesis, at every [`BENCH_WORKERS`] worker count, each against
/// the single-thread reference, verifying bit-identity on every cell.
/// Returns the host pool's worker count alongside the cells.
pub fn parallel_measurements() -> (usize, Vec<ParallelCell>) {
    use holoar_fft::{Complex64, Parallelism};
    use holoar_optics::{gsw, Field};
    let host_workers = Parallelism::auto().workers();
    let mut cells = Vec::new();
    let optics = OpticalConfig::default();

    let n = 128;
    let data: Vec<Complex64> = (0..n * n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
        .collect();
    let field = Field::from_data(n, n, optics, data);
    let zs: Vec<f64> = (1..=8).map(|i| f64::from(i) * 5e-4).collect();
    let mut serial_prop = Propagator::with_context(&ExecutionContext::serial());
    let reference = serial_prop.propagate_batch(&field, &zs); // warms the caches
    let serial_ms = best_of_three_ms(|| {
        serial_prop.propagate_batch(&field, &zs);
    });
    for workers in BENCH_WORKERS {
        let mut prop = Propagator::with_context(&ExecutionContext::with_workers(workers));
        let planes = prop.propagate_batch(&field, &zs);
        cells.push(ParallelCell {
            label: format!("propagate_batch {n}x{n} {} distances", zs.len()),
            workers,
            serial_ms,
            parallel_ms: best_of_three_ms(|| {
                prop.propagate_batch(&field, &zs);
            }),
            bit_identical: planes.iter().zip(&reference).all(|(a, b)| a.samples() == b.samples()),
        });
    }

    let gsw_cfg = holoar_optics::GswConfig { iterations: 2, adaptivity: 1.0 };
    let stack = VirtualObject::Dice.render(48, 48, 0.006, 0.002).slice(8, optics);
    let serial_ctx = ExecutionContext::serial();
    let reference = gsw::run(&stack, optics, gsw_cfg, &serial_ctx); // warms the context caches
    let serial_ms = best_of_three_ms(|| {
        gsw::run(&stack, optics, gsw_cfg, &serial_ctx);
    });
    for workers in BENCH_WORKERS {
        let ctx = ExecutionContext::with_workers(workers);
        let result = gsw::run(&stack, optics, gsw_cfg, &ctx);
        cells.push(ParallelCell {
            label: "gsw 48x48 8 planes".to_string(),
            workers,
            serial_ms,
            parallel_ms: best_of_three_ms(|| {
                gsw::run(&stack, optics, gsw_cfg, &ctx);
            }),
            bit_identical: result.hologram.samples() == reference.hologram.samples(),
        });
    }

    (host_workers, cells)
}

/// Self-check of the plane-grain parallel engine against its serial
/// twin — wall time plus the determinism guarantee, on this machine's
/// pool (`HOLOAR_THREADS` overrides the sizing). Times carry the four
/// decimals the artifact records.
fn parallel(host_workers: usize, cells: &[ParallelCell]) -> String {
    let mut t = Table::new([
        "Workload",
        "Workers",
        "Ref (ms)",
        "Cell (ms)",
        "Speedup",
        "Identical?",
    ]);
    for cell in cells {
        t.row([
            cell.label.clone(),
            cell.workers.to_string(),
            format!("{:.4}", cell.serial_ms),
            format!("{:.4}", cell.parallel_ms),
            format!("{:.2}x", cell.speedup()),
            if cell.bit_identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    format!(
        "== supplementary: plane-grain engine (host pool: {host_workers} workers) ==\n{}\
         every cell is bit-identical to its single-worker twin by construction; \
         multi-worker speedups track the host's core count\n",
        t.render(),
    )
}

/// The [`parallel`] experiment's measurements as the body of
/// `BENCH_parallel.json` (host wall-clock numbers; see [`artifact`]).
fn parallel_bench_json(host_workers: usize, cells: &[ParallelCell]) -> Json {
    let cells = cells.iter().map(|cell| {
        Json::object([
            ("label", cell.label.as_str().into()),
            ("workers", cell.workers.into()),
            ("serial_ms", fixed(cell.serial_ms, 4)),
            ("parallel_ms", fixed(cell.parallel_ms, 4)),
            ("speedup", fixed(cell.speedup(), 3)),
            ("bit_identical", cell.bit_identical.into()),
        ])
    });
    Json::object([
        ("bench", "parallel".into()),
        ("host_workers", host_workers.into()),
        ("cells", Json::Array(cells.collect())),
    ])
}

/// End-to-end Inter-Intra-Holo run instrumented for the telemetry
/// timeline: planner → executor → quality/view → staged pipeline, with the
/// simulated GPU kernel profile bridged onto the trace as its own track.
///
/// This is the experiment the observability docs point at: run it under
/// `repro inter-intra --trace-out trace.json --metrics-json metrics.json`
/// and the exported trace carries spans from every layer (`fft.*`,
/// `optics.*`, `core.*`, `pipeline.*`) plus the bridged `gpu.*` events.
pub fn inter_intra(cfg: &ExperimentConfig) -> String {
    use holoar_core::{executor, view};
    use holoar_pipeline::schedule::FrameLatencies;
    use holoar_sensors::objectron::FrameGenerator;

    // The full pipeline per frame is heavyweight; a handful of frames is
    // enough to populate every span category and the kernel profile.
    let frames = (cfg.frames / 10).clamp(2, 12) as usize;
    let ctx = ExecutionContext::serial();
    let config = HoloArConfig::for_scheme(Scheme::InterIntraHolo);
    let device = Device::xavier();
    let mut planner = Planner::new(config).unwrap();
    let mut profiler = Profiler::new();
    // Shoe is the busiest category (2.3 objects/frame) — the plan reliably
    // has computed objects for the profiler/quality/view passes below.
    let mut gen = FrameGenerator::new(VideoCategory::Shoe, cfg.seed);
    let pose = PoseEstimate { orientation: AngularPoint::CENTER, latency: 0.01375 };

    let mut latencies = Vec::with_capacity(frames);
    let mut psnr_sum = 0.0;
    let mut psnr_n = 0u32;
    let mut view_luminance = 0.0;
    let mut planes_total = 0u32;
    let mut quality_done = false;
    for _ in 0..frames {
        let frame = gen.next().expect("generator is infinite");
        let plan = planner.plan_frame(&frame, &pose, AngularPoint::CENTER, 0.0044);
        planes_total += plan.total_planes();
        // Profile every frame's kernel sequence so the bridged GPU track
        // carries the same workload the executor accounts.
        for item in plan.items.iter().filter(|it| it.needs_compute()) {
            for stats in device.execute_all(&hologram_kernels::job_kernels(&item.job())) {
                profiler.record(&stats);
            }
        }
        // One optical quality + view pass (on the first frame that displays
        // anything) exercises the fft/optics span taxonomy without
        // dominating the run.
        if !quality_done && plan.items.iter().any(|it| it.planes > 0 && it.coverage > 0.0) {
            quality_done = true;
            for item in plan.items.iter().filter(|it| it.planes > 0) {
                let p = quality::object_psnr(&item.object, item.planes, &config, &ctx);
                if p.is_finite() {
                    psnr_sum += p;
                    psnr_n += 1;
                }
            }
            let viewport = view::render_view(&plan.items, &pose.viewing_window(), 32, 48, &ctx);
            view_luminance = viewport.total_luminance();
        }
        let perf = executor::execute_plan(&device, &plan);
        latencies.push(FrameLatencies {
            pose: pose.latency,
            eye: 0.0044,
            scene: 0.120,
            hologram: perf.latency,
        });
    }

    let report = holoar_pipeline::run_staged(
        frames as u64,
        &holoar_pipeline::StagedConfig::default(),
        |i| latencies[i as usize],
        &ctx,
    );
    let bridged = holoar_gpusim::bridge_profiler(&profiler);

    let mut t = Table::new(["Quantity", "Value"]);
    t.row(["frames simulated".to_string(), frames.to_string()]);
    t.row(["planes planned (total)".to_string(), planes_total.to_string()]);
    t.row([
        "mean object PSNR (finite)".to_string(),
        if psnr_n > 0 { format!("{:.1} dB", psnr_sum / f64::from(psnr_n)) } else { "n/a".into() },
    ]);
    t.row(["view luminance".to_string(), format!("{view_luminance:.2}")]);
    t.row(["throughput".to_string(), format!("{:.2} fps", report.throughput_fps)]);
    t.row([
        "fresh / stale frames".to_string(),
        format!("{} / {}", report.fresh_frames, report.stale_frames),
    ]);
    t.row(["ingest-to-present".to_string(), format!("{:.1} ms", report.mean_latency * 1e3)]);
    t.row(["bottleneck".to_string(), report.bottleneck.to_string()]);
    t.row(["GPU kernels bridged".to_string(), bridged.to_string()]);
    format!(
        "== supplementary: Inter-Intra-Holo end-to-end (telemetry showcase) ==\n{}\
         run with --trace-out/--metrics-json to export the spans this pass emits\n",
        t.render()
    )
}

/// Robustness study: the deadline-aware degradation controller under
/// injected faults (`repro faults`).
///
/// Runs the Inter-Intra-Holo pipeline on the accelerator-class device of
/// [`holoar_faults::scenario::accelerated_device`] — where the nominal
/// frame *meets* its 33 ms deadline — and injects the GPU-contention
/// scenario (windows of 2× SM slowdown plus DRAM contention). Every frame
/// the controller predicts the hologram cost, walks the degradation ladder
/// when an overrun looms, and recovers hysteretically once headroom
/// returns. The report compares deadline-hit rate and capped PSNR with the
/// controller on versus off, lists every ladder transition, checks the
/// "never two consecutive overruns without a step-down" contract, and
/// prints the per-stage worst-case latencies of the degraded run. A second
/// pass under the full-stack scenario adds sensor dropouts and stage
/// overruns to exercise the planner's sensor-loss fallbacks.
///
/// Deterministic: two runs with the same `--seed` are byte-identical.
/// A fixated nominal sensor sample for the fault studies (gaze on the first
/// object, pose centered — as in the quality studies): the attended object
/// plans full planes, the periphery is approximated.
fn faulted_nominal(frame: &holoar_sensors::objectron::Frame) -> holoar_core::SensorSample {
    use holoar_core::{GazeInput, PoseInput, SensorSample};
    use holoar_sensors::eyetrack::GazeEstimate;
    let gaze = frame.objects.first().map(|o| o.direction).unwrap_or(AngularPoint::CENTER);
    SensorSample {
        pose: PoseInput::Tracked(PoseEstimate {
            orientation: AngularPoint::CENTER,
            latency: 0.01375,
        }),
        gaze: GazeInput::Tracked(GazeEstimate { direction: gaze, latency: 0.0044 }),
    }
}

/// Hologram-stage cost of planning `frame` at `config` on the derated
/// device: the sum of the priced job latencies, without the fixed executor
/// overhead (the stage deadline budgets the hologram kernels).
fn faulted_stage_cost(
    config: &HoloArConfig,
    frame: &holoar_sensors::objectron::Frame,
    sample: &holoar_core::SensorSample,
    flt: &holoar_faults::FrameFaults,
    device_cfg: &holoar_gpusim::DeviceConfig,
) -> f64 {
    let mut planner = Planner::new(*config).expect("ladder configs stay valid");
    let plan = planner.plan_frame_with(frame, sample);
    let pricer = JobPricer::new(&flt.derate_device(device_cfg));
    let mut latency = 0.0;
    for item in plan.items.iter().filter(|it| it.needs_compute()) {
        latency += pricer.latency(&item.job());
    }
    latency
}

/// The standard faulted workload: the GPU-contention acceptance scenario
/// (2× SM slowdown plus DRAM contention bursts) with the degradation
/// controller on, collapsed into a per-frame stage-latency stream. Shared
/// by the `faults` study (which reads the QoS accounting) and the
/// `pipeline` study (which replays the latency stream through the lockstep
/// and staged executors).
pub struct FaultedWorkload {
    /// Fault-perturbed per-frame stage latencies; the hologram stage is the
    /// controller-on planned cost on the derated device.
    pub latencies: Vec<holoar_pipeline::FrameLatencies>,
    /// Frames meeting the stage budget with the controller on.
    pub hits_on: u64,
    /// Frames meeting the stage budget with the controller off (always
    /// planning full quality).
    pub hits_off: u64,
    /// Frames the controller spent at each ladder level, shallow to deep.
    pub level_frames: [u64; 4],
    /// The controller after the run (transitions, overrun accounting).
    pub controller: holoar_core::degrade::DegradationController,
}

/// Replays the standard faulted workload (see [`FaultedWorkload`]) for
/// `cfg.frames` frames at `cfg.seed`.
pub fn faulted_workload(cfg: &ExperimentConfig) -> FaultedWorkload {
    use holoar_core::degrade::{DegradationController, DegradationLadder};
    use holoar_faults::scenario;
    use holoar_pipeline::schedule::FrameLatencies;
    use holoar_sensors::objectron::FrameGenerator;

    let base = HoloArConfig::for_scheme(Scheme::InterIntraHolo).without_reuse();
    let device_cfg = scenario::accelerated_device();
    let ladder = DegradationLadder::default();
    let budget = ladder.frame_budget;

    let injector = scenario::gpu_slowdown(cfg.seed).expect("preset scenario is valid");
    let mut ctl = DegradationController::new(ladder).expect("default ladder is valid");
    let mut gen = FrameGenerator::new(VideoCategory::Shoe, cfg.seed);
    let mut hits_on = 0u64;
    let mut hits_off = 0u64;
    let mut level_frames = [0u64; 4];
    let mut latencies = Vec::with_capacity(cfg.frames as usize);
    for i in 0..cfg.frames {
        let frame = gen.next().expect("generator is infinite");
        let flt = injector.frame(i);
        let sample = flt.degrade_sensors(&faulted_nominal(&frame));

        // Controller off: always plan at full quality.
        let full_cost = faulted_stage_cost(&base, &frame, &sample, &flt, &device_cfg);
        if full_cost <= budget {
            hits_off += 1;
        }

        // Controller on: plan at the level decide() picks.
        let level = ctl.decide(i);
        level_frames[level.index()] += 1;
        let cost = match ctl.config_for(&base) {
            // Full level plans the same frame the off-run just did.
            Some(config) if config == base => full_cost,
            Some(config) => faulted_stage_cost(&config, &frame, &sample, &flt, &device_cfg),
            // LastGood: re-present the cached hologram, reprojected.
            None => ladder.reproject_latency,
        };
        if cost <= budget {
            hits_on += 1;
        }
        ctl.observe(i, cost);
        latencies.push(flt.perturb_latencies(FrameLatencies {
            pose: 0.01375,
            eye: 0.0044,
            scene: 0.120,
            hologram: cost,
        }));
    }
    FaultedWorkload { latencies, hits_on, hits_off, level_frames, controller: ctl }
}

pub fn faults(cfg: &ExperimentConfig) -> String {
    use holoar_core::degrade::{DegradationController, DegradationLadder, DegradationLevel};
    use holoar_core::{GazeInput, PoseInput};
    use holoar_faults::scenario;
    use holoar_sensors::objectron::FrameGenerator;

    let base = HoloArConfig::for_scheme(Scheme::InterIntraHolo).without_reuse();
    let device_cfg = scenario::accelerated_device();
    let ctx = ExecutionContext::serial();
    let ladder = DegradationLadder::default();
    let budget = ladder.frame_budget;

    // -- acceptance pass: GPU contention, controller on vs off -----------
    let workload = faulted_workload(cfg);
    let FaultedWorkload { latencies, hits_on, hits_off, level_frames, controller: ctl } =
        workload;
    let worst = holoar_pipeline::run_loop(cfg.frames, |i| latencies[i as usize]).worst;

    // -- full-stack pass: add sensor dropouts and stage overruns ---------
    let storm = scenario::full_stack(cfg.seed).expect("preset scenario is valid");
    let mut storm_ctl = DegradationController::new(ladder).expect("default ladder is valid");
    let mut storm_gen = FrameGenerator::new(VideoCategory::Shoe, cfg.seed);
    let storm_frames = cfg.frames.min(60);
    let mut storm_hits = 0u64;
    let mut gaze_lost = 0u64;
    let mut pose_lost = 0u64;
    for i in 0..storm_frames {
        let frame = storm_gen.next().expect("generator is infinite");
        let flt = storm.frame(i);
        let sample = flt.degrade_sensors(&faulted_nominal(&frame));
        gaze_lost += u64::from(matches!(sample.gaze, GazeInput::Lost));
        pose_lost += u64::from(matches!(sample.pose, PoseInput::Lost));
        storm_ctl.decide(i);
        let cost = match storm_ctl.config_for(&base) {
            Some(config) => faulted_stage_cost(&config, &frame, &sample, &flt, &device_cfg),
            None => ladder.reproject_latency,
        };
        if cost + flt.stage_overrun <= budget {
            storm_hits += 1;
        }
        storm_ctl.observe(i, cost + flt.stage_overrun);
    }

    // Display quality, Fig 10a methodology: fleet-mean capped PSNR of each
    // ladder configuration, weighted by the frames the controller spent
    // there. LastGood maps to the floor-beta configuration (the hologram it
    // re-presents was computed at that level or better).
    let sample_frames = (cfg.frames / 30).clamp(2, 8);
    let fleet_psnr = |config: &HoloArConfig| -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for &v in &VideoCategory::ALL {
            let vq = quality::video_quality(v, *config, sample_frames, cfg.seed, &ctx);
            if let Some(p) = vq.mean_psnr_capped() {
                sum += p;
                n += 1;
            }
        }
        sum / f64::from(n.max(1))
    };
    let full_psnr = fleet_psnr(&base);
    let mut weighted_psnr = 0.0;
    let mut lvl = Table::new(["Ladder level", "Frames", "Fleet PSNR (dB, capped 50)"]);
    for level in DegradationLevel::ALL {
        let frames_at = level_frames[level.index()];
        let psnr = if level == DegradationLevel::Full {
            full_psnr
        } else if frames_at > 0 {
            fleet_psnr(&ladder.apply(level, &base))
        } else {
            f64::NAN
        };
        weighted_psnr += if frames_at > 0 { psnr * frames_at as f64 } else { 0.0 };
        lvl.row([
            level.name().to_string(),
            frames_at.to_string(),
            if psnr.is_nan() { "-".to_string() } else { format!("{psnr:.1}") },
        ]);
    }
    weighted_psnr /= cfg.frames as f64;

    let mut t = Table::new(["Quantity", "controller on", "controller off"]);
    t.row([
        "deadline hit rate".to_string(),
        pct(hits_on as f64 / cfg.frames as f64),
        pct(hits_off as f64 / cfg.frames as f64),
    ]);
    t.row([
        "display PSNR (occupancy-weighted)".to_string(),
        format!("{weighted_psnr:.1} dB"),
        format!("{full_psnr:.1} dB"),
    ]);
    t.row([
        "overruns".to_string(),
        ctl.overruns().to_string(),
        (cfg.frames - hits_off).to_string(),
    ]);

    let mut trans = String::new();
    for tr in ctl.transitions().iter().take(10) {
        trans.push_str(&format!(
            "  frame {:>4}: {} -> {} ({})\n",
            tr.frame,
            tr.from.name(),
            tr.to.name(),
            tr.reason.name()
        ));
    }
    if ctl.transitions().len() > 10 {
        trans.push_str(&format!("  ... {} more\n", ctl.transitions().len() - 10));
    }

    format!(
        "== supplementary: graceful degradation under injected faults ==\n\
         scenario: GPU contention (2x SM slowdown + DRAM contention bursts), \
         seed {}, {} frames, {} stage budget\n{}\n\
         ladder transitions ({}):\n{}\
         max consecutive overruns without step-down: {} (contract: <= 1)\n\
         worst-case stage latency: pose {} | eye {} | scene {} | hologram {} \
         | frame {}\n\
         full-stack scenario ({} frames): hit rate {}, gaze lost {} frames, \
         pose lost {} frames, transitions {}\n",
        cfg.seed,
        cfg.frames,
        ms(budget),
        t.render(),
        ctl.transitions().len(),
        trans,
        ctl.max_overruns_without_stepdown(),
        ms(worst.pose),
        ms(worst.eye),
        ms(worst.scene),
        ms(worst.hologram),
        ms(worst.total),
        storm_frames,
        pct(storm_hits as f64 / storm_frames as f64),
        gaze_lost,
        pose_lost,
        storm_ctl.transitions().len(),
    ) + &lvl.render()
}

/// Measurements behind the `pipeline` experiment: the staged
/// producer–consumer executor versus the lockstep frame loop over the same
/// standard faulted workload (see [`faulted_workload`]).
pub struct PipelineMeasurements {
    /// Frames replayed.
    pub frames: u64,
    /// Staged-executor report (identical at every [`BENCH_WORKERS`] count
    /// when `bit_identical` holds; this is the serial-context run).
    pub staged: holoar_pipeline::StagedReport,
    /// Whether the staged report was bit-identical across all
    /// [`BENCH_WORKERS`] worker counts.
    pub bit_identical: bool,
    /// Queue bounds and present costs the staged run used.
    pub config: holoar_pipeline::StagedConfig,
    /// Lockstep baseline over the same latency stream.
    pub lockstep: holoar_pipeline::QosReport,
    /// Lockstep throughput with the present stage charged serially
    /// (`1 / (mean frame latency + present cost)`): the lockstep loop does
    /// not model display composition, so the staged figures — which do —
    /// are compared against this corrected baseline.
    pub lockstep_fps: f64,
    /// Lockstep p99 *service time* (frame latency plus the serial present
    /// cost). This is the generous baseline: it starts each frame's clock
    /// only when the loop gets around to it, hiding the backlog a serial
    /// loop accumulates under sustained sensor input.
    pub lockstep_p99: f64,
    /// Lockstep p99 *sensor-to-photon* latency under sustained input: both
    /// executors are fed the identical capture timeline (the sensor
    /// front-end emits a fused sample each time it finishes the previous
    /// one — exactly the staged executor's ingest pace), and latency is
    /// measured from capture to present. The staged executor is
    /// ingest-bound, so it consumes samples at the rate the front-end
    /// produces them; the lockstep loop's service time exceeds the sample
    /// interval, so its backlog — and this figure — grows with the run.
    pub lockstep_sustained_p99: f64,
    /// `staged.throughput_fps / lockstep_fps`.
    pub speedup: f64,
    /// `staged.latency_p99 / lockstep_sustained_p99` — the like-for-like
    /// sensor-to-photon tail comparison (must stay ≤ 1: "p99 no worse").
    pub p99_ratio: f64,
}

/// Replays the standard faulted workload through the lockstep loop and the
/// staged executor at every [`BENCH_WORKERS`] count, asserting bit-identity
/// of the staged report across worker counts.
pub fn pipeline_measurements(cfg: &ExperimentConfig) -> PipelineMeasurements {
    let workload = faulted_workload(cfg);
    let latencies = workload.latencies;
    let config = holoar_pipeline::StagedConfig::default();

    let staged = holoar_pipeline::run_staged(
        cfg.frames,
        &config,
        |i| latencies[i as usize],
        &ExecutionContext::serial(),
    );
    let mut bit_identical = true;
    for workers in BENCH_WORKERS {
        let ctx = ExecutionContext::with_workers(workers);
        let report =
            holoar_pipeline::run_staged(cfg.frames, &config, |i| latencies[i as usize], &ctx);
        bit_identical &= report == staged;
    }

    let lockstep = holoar_pipeline::run_loop(cfg.frames, |i| latencies[i as usize]);
    // The staged latencies span ingest-start to present-done; the lockstep
    // loop stops at hologram-done. Charge the lockstep baseline the same
    // serial present cost so both sides measure sensor-to-photon.
    let lockstep_fps = 1.0 / (lockstep.mean_frame_latency + config.present_latency);
    let lockstep_p99 = lockstep.latency_p99 + config.present_latency;

    // Sustained-input lockstep: sample i is captured at `capture[i]` (the
    // sensor front-end paces itself — same timeline the staged ingest
    // stage runs on), the loop picks it up when it finishes frame i-1, and
    // latency is capture-to-present. Serial per-frame service exceeds the
    // capture interval, so the loop falls progressively behind.
    let mut sustained = holoar_telemetry::QuantileSketch::default();
    let mut capture = 0.0f64;
    let mut free = 0.0f64;
    for i in 0..cfg.frames {
        let lat = holoar_pipeline::apply_scene_cadence(i, latencies[i as usize]);
        let start = if free > capture { free } else { capture };
        let finish = start + lat.ingest() + lat.hologram + config.present_latency;
        sustained.record(finish - capture);
        free = finish;
        capture += lat.ingest();
    }
    let lockstep_sustained_p99 = sustained.p99().unwrap_or(0.0);

    let speedup = staged.throughput_fps / lockstep_fps;
    let p99_ratio = staged.latency_p99 / lockstep_sustained_p99.max(f64::MIN_POSITIVE);
    PipelineMeasurements {
        frames: cfg.frames,
        staged,
        bit_identical,
        config,
        lockstep,
        lockstep_fps,
        lockstep_p99,
        lockstep_sustained_p99,
        speedup,
        p99_ratio,
    }
}

/// Staged pipeline study: lockstep vs ingest ∥ compute ∥ present over the
/// standard faulted workload, with the bit-identity check across
/// [`BENCH_WORKERS`].
fn pipeline(cfg: &ExperimentConfig, m: &PipelineMeasurements) -> String {
    let s = &m.staged;

    let mut t = Table::new(["Quantity", "lockstep (serial present)", "staged"]);
    t.row([
        "throughput".to_string(),
        format!("{:.1} fps", m.lockstep_fps),
        format!("{:.1} fps", s.throughput_fps),
    ]);
    t.row([
        "mean sensor-to-photon".to_string(),
        ms(m.lockstep.mean_frame_latency + m.config.present_latency),
        ms(s.mean_latency),
    ]);
    t.row([
        "p50 latency".to_string(),
        ms(m.lockstep.latency_p50 + m.config.present_latency),
        ms(s.latency_p50),
    ]);
    t.row(["p99 service time".to_string(), ms(m.lockstep_p99), ms(s.latency_p99)]);
    t.row([
        "p99 sensor-to-photon (sustained input)".to_string(),
        ms(m.lockstep_sustained_p99),
        ms(s.latency_p99),
    ]);
    t.row([
        "fresh / stale frames".to_string(),
        format!("{} / 0", m.frames),
        format!("{} / {}", s.fresh_frames, s.stale_frames),
    ]);

    format!(
        "== staged pipeline executor: lockstep vs ingest || compute || present ==\n\
         workload: standard faulted scenario (GPU contention, controller on), \
         seed {}, {} frames; queues compute {} / present {}\n{}\
         speedup: {:.2}x (floor 1.15x) | sustained p99 ratio: {:.3} (must stay <= 1)\n\
         (staged keeps up with the sensor front-end; the lockstep loop falls \
         behind sustained capture, so its true tail grows with the run)\n\
         queue drops: compute {} (oldest-first, presented stale), present {} \
         | high water: compute {} / present {}\n\
         bottleneck stage: {} | bit-identical across workers {:?}: {}\n",
        cfg.seed,
        m.frames,
        m.config.compute_queue,
        m.config.present_queue,
        t.render(),
        m.speedup,
        m.p99_ratio,
        s.compute_drops,
        s.present_drops,
        s.max_compute_depth,
        s.max_present_depth,
        s.bottleneck,
        BENCH_WORKERS,
        if m.bit_identical { "yes" } else { "NO" },
    )
}

/// The `pipeline` experiment as the body of `BENCH_pipeline.json`.
/// Deterministic: byte-identical across reruns and worker counts at a
/// fixed seed.
fn pipeline_bench_json(cfg: &ExperimentConfig, m: &PipelineMeasurements) -> Json {
    let s = &m.staged;
    let staged = Json::object([
        ("throughput_fps", fixed(s.throughput_fps, 6)),
        ("mean_latency_s", fixed(s.mean_latency, 9)),
        ("latency_p50_s", fixed(s.latency_p50, 9)),
        ("latency_p99_s", fixed(s.latency_p99, 9)),
        ("fresh_frames", s.fresh_frames.into()),
        ("stale_frames", s.stale_frames.into()),
        ("compute_drops", s.compute_drops.into()),
        ("present_drops", s.present_drops.into()),
        ("max_compute_depth", s.max_compute_depth.into()),
        ("max_present_depth", s.max_present_depth.into()),
        ("bottleneck", s.bottleneck.to_string().into()),
    ]);
    let lockstep = Json::object([
        ("throughput_fps", fixed(m.lockstep_fps, 6)),
        ("latency_p50_s", fixed(m.lockstep.latency_p50 + m.config.present_latency, 9)),
        ("latency_p99_s", fixed(m.lockstep_p99, 9)),
        ("sustained_p99_s", fixed(m.lockstep_sustained_p99, 9)),
        ("deadline_hit_rate", fixed(m.lockstep.deadline_hit_rate, 6)),
    ]);
    Json::object([
        ("bench", "pipeline".into()),
        ("frames", m.frames.into()),
        ("seed", cfg.seed.into()),
        ("workers", Json::Array(BENCH_WORKERS.map(Json::from).to_vec())),
        ("bit_identical", m.bit_identical.into()),
        ("present_latency_s", fixed(m.config.present_latency, 6)),
        ("compute_queue", m.config.compute_queue.into()),
        ("present_queue", m.config.present_queue.into()),
        ("staged", staged),
        ("lockstep", lockstep),
        ("speedup", fixed(m.speedup, 6)),
        ("p99_ratio", fixed(m.p99_ratio, 6)),
    ])
}

/// Fleet sizes the `serve` experiment visits when `--sessions` is not
/// given: the 1 → 16 sweep from the serving-layer study, extended past the
/// 90 Hz saturation point so the report shows QoS shedding engage.
pub const SERVE_SWEEP: [u32; 7] = [1, 2, 4, 8, 12, 16, 24];

/// Runs the multi-session serving load generator once per fleet size and
/// returns `(sessions, report)` rows. Serial execution context: the closed
/// form device model makes every figure independent of the host, so the
/// rows — and the JSON artifact built from them — are byte-stable at a
/// fixed seed.
pub fn serve_measurements(cfg: &ExperimentConfig) -> Vec<(u32, holoar_serve::ServeReport)> {
    let ctx = ExecutionContext::serial();
    let counts: Vec<u32> =
        cfg.sessions.map_or_else(|| SERVE_SWEEP.to_vec(), |n| vec![n]);
    counts
        .into_iter()
        .map(|n| {
            let config = holoar_serve::ServeConfig::fleet(
                holoar_serve::DeviceSpec::edge(),
                holoar_serve::SessionSpec::fleet(n, cfg.seed),
                cfg.frames,
            );
            let report =
                holoar_serve::run_serve(&config, &ctx).expect("fleet configs are valid");
            (n, report)
        })
        .collect()
}

/// Worst per-session gap between occupancy-weighted PSNR and the session's
/// own full-quality baseline, in dB (the acceptance bound is 0.5 dB while
/// the fleet fits the device).
fn serve_worst_psnr_gap(report: &holoar_serve::ServeReport) -> f64 {
    report
        .sessions
        .iter()
        .map(|s| (s.psnr_weighted - s.psnr_full).abs())
        .fold(0.0, f64::max)
}

/// Tentpole study: N concurrent AR sessions multiplexed onto one serving
/// device with cross-session plane batching, versus the same fleet run as
/// independent per-plane sequential pipelines.
fn serve(cfg: &ExperimentConfig, rows: &[(u32, holoar_serve::ServeReport)]) -> String {
    let mut t = Table::new([
        "Sessions", "Admitted", "Agg fps", "Seq fps", "Speedup", "Hit rate", "p50", "p99",
        "Occup", "ΔPSNR", "QoS", "Deferred",
    ]);
    for (n, r) in rows {
        let qos: u64 = r.sessions.iter().map(|s| s.qos_step_downs).sum();
        let deferred: u64 = r.sessions.iter().map(|s| s.deferred).sum();
        t.row([
            n.to_string(),
            r.admitted.to_string(),
            format!("{:.0}", r.aggregate_fps),
            format!("{:.0}", r.sequential_fps),
            format!("{:.2}x", r.speedup_vs_sequential),
            pct(r.deadline_hit_rate),
            ms(r.latency_p50),
            ms(r.latency_p99),
            format!("{:.2}", r.mean_occupancy),
            format!("{:.2} dB", serve_worst_psnr_gap(r)),
            qos.to_string(),
            deferred.to_string(),
        ]);
    }
    format!(
        "== serving layer: cross-session plane batching (seed {}, {} frames, 90 Hz budget) ==\n{}\
         speedup is batched aggregate throughput over the per-plane sequential schedule; \
         ΔPSNR is the worst session's occupancy-weighted drift from its single-session \
         baseline; QoS counts focus-guided single-victim step-downs \
         (export the sweep with --json BENCH_serve.json)\n",
        cfg.seed,
        cfg.frames,
        t.render(),
    )
}

/// The [`serve`] sweep as the body of `BENCH_serve.json`. Byte-identical
/// across reruns at a fixed seed.
fn serve_bench_json(cfg: &ExperimentConfig, rows: &[(u32, holoar_serve::ServeReport)]) -> Json {
    let sweep = rows.iter().map(|(n, r)| {
        let psnr_weighted = r.sessions.iter().map(|s| s.psnr_weighted).sum::<f64>()
            / r.sessions.len().max(1) as f64;
        Json::object([
            ("sessions", (*n).into()),
            ("admitted", r.admitted.into()),
            ("aggregate_fps", fixed(r.aggregate_fps, 4)),
            ("sequential_fps", fixed(r.sequential_fps, 4)),
            ("speedup", fixed(r.speedup_vs_sequential, 4)),
            ("deadline_hit_rate", fixed(r.deadline_hit_rate, 6)),
            ("latency_p50_s", fixed(r.latency_p50, 6)),
            ("latency_p99_s", fixed(r.latency_p99, 6)),
            ("mean_occupancy", fixed(r.mean_occupancy, 6)),
            ("psnr_weighted_db", fixed(psnr_weighted, 4)),
            ("psnr_gap_db", fixed(serve_worst_psnr_gap(r), 4)),
            ("merged_launches", r.merged_launches.into()),
            ("launches_saved", r.launches_saved.into()),
            ("qos_step_downs", r.sessions.iter().map(|s| s.qos_step_downs).sum::<u64>().into()),
            ("deferred", r.sessions.iter().map(|s| s.deferred).sum::<u64>().into()),
        ])
    });
    Json::object([
        ("bench", "serve".into()),
        ("frames", cfg.frames.into()),
        ("seed", cfg.seed.into()),
        ("frame_budget_s", fixed(holoar_serve::SERVE_FRAME_BUDGET, 6)),
        ("sweep", Json::Array(sweep.collect())),
    ])
}

/// Runs the SLO observability fleet once: `--sessions` sessions (default 8)
/// with full per-session SLO tracking. Uses the auto execution context
/// (`HOLOAR_THREADS` sizes the pool) so the byte-identity CI check
/// genuinely exercises worker counts; the serving engine guarantees the
/// report is bit-identical regardless.
pub fn slo_measurements(cfg: &ExperimentConfig) -> (u32, holoar_serve::ServeReport) {
    let ctx = ExecutionContext::auto();
    let sessions = cfg.sessions.unwrap_or(8);
    let config = holoar_serve::ServeConfig::fleet(
        holoar_serve::DeviceSpec::edge(),
        holoar_serve::SessionSpec::fleet(sessions, cfg.seed),
        cfg.frames,
    );
    let report = holoar_serve::run_serve(&config, &ctx).expect("fleet configs are valid");
    (sessions, report)
}

/// Observability study: the SLO dashboard for one serving fleet —
/// per-session sketch quantiles, error budgets, burn-rate alerts,
/// signal-annotated step-downs, and critical-path stage attribution
/// (`repro slo`, exported with `repro slo --json BENCH_slo.json`).
fn slo(cfg: &ExperimentConfig, sessions: u32, report: &holoar_serve::ServeReport) -> String {
    let fleet = &report.slo;
    let mut out = format!(
        "== SLO dashboard: {sessions}-session fleet (seed {}, {} frames, target {:.0}%, \
         sketch α {:.1}%) ==\n\
         fleet latency p50 {} | p90 {} | p99 {} | p99.9 {}\n\
         error budget remaining {:.1}% — burn alerts: {} fast, {} slow\n\
         recent window ({} ticks): hit rate {}, queue depth {:.2}, occupancy {:.2}\n\n",
        cfg.seed,
        cfg.frames,
        fleet.target * 100.0,
        fleet.sketch_alpha * 100.0,
        ms(fleet.latency_p50),
        ms(fleet.latency_p90),
        ms(fleet.latency_p99),
        ms(fleet.latency_p999),
        fleet.error_budget_remaining * 100.0,
        fleet.fast_burn_events,
        fleet.slow_burn_events,
        holoar_serve::slo::FAST_WINDOW,
        pct(fleet.recent_hit_rate),
        fleet.recent_queue_depth,
        fleet.recent_occupancy,
    );

    let mut t = Table::new([
        "Session",
        "Video",
        "p50",
        "p99",
        "p99.9",
        "Budget left",
        "Burns",
        "Step-downs",
        "Recent lvl",
        "Worst tick",
        "Dominant stage",
    ]);
    for s in &report.sessions {
        let dominant = s
            .slo
            .worst_frame_path
            .last()
            .map_or_else(|| "-".to_string(), |(name, _)| name.clone());
        t.row([
            s.id.to_string(),
            s.video.to_string(),
            ms(s.slo.latency_p50),
            ms(s.slo.latency_p99),
            ms(s.slo.latency_p999),
            pct(s.slo.error_budget_remaining),
            s.slo.burn_events.len().to_string(),
            s.slo.step_downs.len().to_string(),
            format!("{:.2}", s.slo.recent_level),
            s.slo.worst_frame.to_string(),
            dominant,
        ]);
    }
    out.push_str(&t.render());

    // Fleet-wide critical-path attribution: per-stage time summed over
    // every session's stage rows.
    let mut totals: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for s in &report.sessions {
        for row in &s.slo.stages {
            *totals.entry(row.stage.as_str()).or_insert(0.0) += row.total_s;
        }
    }
    let grand: f64 = totals.values().sum();
    let mut rows: Vec<(&str, f64)> = totals.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    let mut stage_table = Table::new(["Stage", "Total (ms)", "Share"]);
    for (stage, total_s) in &rows {
        stage_table.row([
            (*stage).to_string(),
            format!("{:.2}", total_s * 1e3),
            pct(total_s / grand.max(f64::MIN_POSITIVE)),
        ]);
    }
    out.push_str("\n-- critical-path stage attribution (fleet) --\n");
    out.push_str(&stage_table.render());

    // Every step-down names its triggering signal (the acceptance bar).
    let mut signals = String::new();
    let mut shown = 0usize;
    let mut total_downs = 0usize;
    for s in &report.sessions {
        for tr in &s.slo.step_downs {
            total_downs += 1;
            if shown < 12 {
                signals.push_str(&format!(
                    "  session {:>2} frame {:>4}: {} -> {} ({}, signal: {})\n",
                    s.id,
                    tr.frame,
                    tr.from.name(),
                    tr.to.name(),
                    tr.reason.name(),
                    tr.signal,
                ));
                shown += 1;
            }
        }
    }
    if total_downs > shown {
        signals.push_str(&format!("  ... {} more\n", total_downs - shown));
    }
    out.push_str(&format!("\n-- degradation step-downs ({total_downs}), each with its SLO signal --\n"));
    out.push_str(if signals.is_empty() { "  (none — the fleet fit its budget)\n" } else { &signals });
    out
}

/// The [`slo`] run as the body of `BENCH_slo.json`: session-level
/// p50/p99/p99.9, burn-rate events, signal-annotated step-downs, and the
/// critical-path stage breakdown. Byte-identical across reruns and worker
/// counts at a fixed seed.
fn slo_bench_json(
    cfg: &ExperimentConfig,
    sessions: u32,
    report: &holoar_serve::ServeReport,
) -> Json {
    let fleet = &report.slo;
    let fleet_slo = Json::object([
        ("latency_p50_s", fixed(fleet.latency_p50, 6)),
        ("latency_p90_s", fixed(fleet.latency_p90, 6)),
        ("latency_p99_s", fixed(fleet.latency_p99, 6)),
        ("latency_p999_s", fixed(fleet.latency_p999, 6)),
        ("error_budget_remaining", fixed(fleet.error_budget_remaining, 6)),
        ("fast_burn_events", fleet.fast_burn_events.into()),
        ("slow_burn_events", fleet.slow_burn_events.into()),
        ("recent_hit_rate", fixed(fleet.recent_hit_rate, 6)),
        ("recent_queue_depth", fixed(fleet.recent_queue_depth, 4)),
        ("recent_occupancy", fixed(fleet.recent_occupancy, 6)),
    ]);
    let session_slo = report.sessions.iter().map(|s| {
        let burn_events = s.slo.burn_events.iter().map(|e| {
            Json::object([
                ("frame", e.frame.into()),
                ("window", e.window.into()),
                ("burn_rate", fixed(e.burn_rate, 4)),
                ("budget_remaining", fixed(e.budget_remaining, 6)),
            ])
        });
        let step_downs = s.slo.step_downs.iter().map(|tr| {
            Json::object([
                ("frame", tr.frame.into()),
                ("from", tr.from.name().into()),
                ("to", tr.to.name().into()),
                ("reason", tr.reason.name().into()),
                ("signal", tr.signal.into()),
            ])
        });
        let stages = s.slo.stages.iter().map(|row| {
            Json::object([
                ("stage", row.stage.as_str().into()),
                ("total_s", fixed(row.total_s, 6)),
                ("share", fixed(row.share, 6)),
            ])
        });
        let critical_path = s.slo.worst_frame_path.iter().map(|(name, secs)| {
            Json::object([("span", name.as_str().into()), ("dur_s", fixed(*secs, 6))])
        });
        Json::object([
            ("id", s.id.into()),
            ("video", s.video.into()),
            ("latency_p50_s", fixed(s.slo.latency_p50, 6)),
            ("latency_p99_s", fixed(s.slo.latency_p99, 6)),
            ("latency_p999_s", fixed(s.slo.latency_p999, 6)),
            ("error_budget_remaining", fixed(s.slo.error_budget_remaining, 6)),
            ("recent_level", fixed(s.slo.recent_level, 4)),
            ("worst_frame", s.slo.worst_frame.into()),
            ("worst_frame_latency_s", fixed(s.slo.worst_frame_latency, 6)),
            ("burn_events", Json::Array(burn_events.collect())),
            ("step_downs", Json::Array(step_downs.collect())),
            ("stages", Json::Array(stages.collect())),
            ("critical_path", Json::Array(critical_path.collect())),
        ])
    });
    Json::object([
        ("bench", "slo".into()),
        ("sessions", sessions.into()),
        ("frames", cfg.frames.into()),
        ("seed", cfg.seed.into()),
        ("target", fixed(fleet.target, 4)),
        ("sketch_alpha", fixed(fleet.sketch_alpha, 4)),
        ("fleet", fleet_slo),
        ("session_slo", Json::Array(session_slo.collect())),
    ])
}

/// Device counts the `fleet` experiment sweeps: weak scaling, with
/// [`FLEET_SESSIONS_PER_DEVICE`] sessions offered per device.
pub const FLEET_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Offered sessions per device in the [`FLEET_SWEEP`] (overridable with
/// `--sessions`).
pub const FLEET_SESSIONS_PER_DEVICE: u32 = 12;

/// Everything the `fleet` experiment measures: the weak-scaling sweep, the
/// mid-run device-kill scenario, and the thousands-of-sessions scale probe.
pub struct FleetMeasurements {
    /// `(devices, report)` per sweep point, sessions ∝ devices.
    pub rows: Vec<(usize, holoar_serve::FleetReport)>,
    /// The kill scenario's fleet report (4 devices, device 0 killed
    /// mid-run).
    pub kill: holoar_serve::FleetReport,
    /// Device index killed in the kill scenario.
    pub kill_device: usize,
    /// Tick the kill fires.
    pub kill_tick: u64,
    /// `(offered sessions, report)` of the scale probe: a short run with a
    /// thousands-strong session population on the widest fleet.
    pub scale: (u32, holoar_serve::FleetReport),
}

/// Runs the fleet sweep + kill + scale scenarios. Sequential virtual-time
/// loops make every row byte-stable at a fixed seed regardless of
/// `HOLOAR_THREADS`.
pub fn fleet_measurements(cfg: &ExperimentConfig) -> FleetMeasurements {
    let per_device = cfg.sessions.unwrap_or(FLEET_SESSIONS_PER_DEVICE);
    let rows = FLEET_SWEEP
        .iter()
        .map(|&k| {
            let config = holoar_serve::FleetConfig::sweep(
                k,
                per_device * k as u32,
                cfg.frames,
                cfg.seed,
            );
            let report = holoar_serve::run_fleet(&config).expect("sweep configs are valid");
            (k, report)
        })
        .collect();
    // The acceptance scenario: a 4-device fleet loses device 0 halfway
    // through; live migration must carry its tenants to the survivors.
    let kill_device = 0usize;
    let kill_tick = cfg.frames / 2;
    let kill_config = holoar_serve::FleetConfig {
        kill: Some((kill_device, kill_tick)),
        ..holoar_serve::FleetConfig::sweep(4, per_device * 4, cfg.frames, cfg.seed)
    };
    let kill = holoar_serve::run_fleet(&kill_config).expect("kill config is valid");
    // Scale probe: the session population the paper's edge deployments talk
    // about — thousands of sessions churning across the widest fleet, run
    // short since only admission/placement throughput is under test.
    let scale_sessions = per_device * 128;
    let scale_config = holoar_serve::FleetConfig::sweep(
        8,
        scale_sessions,
        (cfg.frames / 5).max(10),
        cfg.seed,
    );
    let scale = holoar_serve::run_fleet(&scale_config).expect("scale config is valid");
    FleetMeasurements { rows, kill, kill_device, kill_tick, scale: (scale_sessions, scale) }
}

/// Tentpole study: session multiplexing across K simulated edge devices —
/// least-loaded locality-aware placement, periodic admission re-probing,
/// and live migration through overloads and a mid-run device kill.
fn fleet(cfg: &ExperimentConfig, m: &FleetMeasurements) -> String {
    let base_fps = m.rows[0].1.aggregate_fps;
    let mut t = Table::new([
        "Devices", "Offered", "Admitted", "Agg fps", "Scaling", "Hit rate", "p50", "p99",
        "Migr", "Reprobes",
    ]);
    for (k, r) in &m.rows {
        t.row([
            k.to_string(),
            r.offered.to_string(),
            r.admitted.to_string(),
            format!("{:.0}", r.aggregate_fps),
            format!("{:.2}x", r.aggregate_fps / base_fps.max(f64::MIN_POSITIVE)),
            pct(r.hit_rate),
            ms(r.latency_p50),
            ms(r.latency_p99),
            r.migrations.to_string(),
            r.reprobes.to_string(),
        ]);
    }
    let kill = &m.kill;
    let (scale_sessions, scale) = &m.scale;
    format!(
        "== fleet serving: K-device placement, re-probing, live migration \
         (seed {}, {} frames, 90 Hz budget) ==\n{}\
         scaling is aggregate throughput over the 1-device row (weak scaling: \
         offered sessions grow with K)\n\n\
         -- device-kill scenario: 4 devices, device {} killed at tick {} --\n\
         migrations {} ({} kill-forced, {} overload), orphaned {}, \
         hit rate {} through the kill, p99 {}\n\n\
         -- scale probe: {} sessions offered to 8 devices ({} ticks) --\n\
         admitted {}, peak active {}, rejected {}, aggregate {:.0} fps, hit rate {}\n\
         (export the sweep with --json BENCH_fleet.json)\n",
        cfg.seed,
        cfg.frames,
        t.render(),
        m.kill_device,
        m.kill_tick,
        kill.migrations,
        kill.kill_migrations,
        kill.overload_migrations,
        kill.orphaned,
        pct(kill.hit_rate),
        ms(kill.latency_p99),
        scale_sessions,
        scale.frames,
        scale.admitted,
        scale.peak_active,
        scale.rejected,
        scale.aggregate_fps,
        pct(scale.hit_rate),
    )
}

/// The [`fleet`] study as the body of `BENCH_fleet.json`. Byte-identical
/// across reruns and `HOLOAR_THREADS` at a fixed seed; `repro perf-gate`
/// enforces the scaling and kill-survival floors on it.
fn fleet_bench_json(cfg: &ExperimentConfig, m: &FleetMeasurements) -> Json {
    let base_fps = m.rows[0].1.aggregate_fps;
    let sweep = m.rows.iter().map(|(k, r)| {
        Json::object([
            ("devices", (*k).into()),
            ("offered", r.offered.into()),
            ("admitted", r.admitted.into()),
            ("rejected", r.rejected.into()),
            ("fresh_frames", r.fresh.into()),
            ("aggregate_fps", fixed(r.aggregate_fps, 4)),
            ("scaling", fixed(r.aggregate_fps / base_fps.max(f64::MIN_POSITIVE), 4)),
            ("hit_rate", fixed(r.hit_rate, 6)),
            ("latency_p50_s", fixed(r.latency_p50, 6)),
            ("latency_p99_s", fixed(r.latency_p99, 6)),
            ("migrations", r.migrations.into()),
            ("reprobes", r.reprobes.into()),
        ])
    });
    let kill = &m.kill;
    let kill = Json::object([
        ("devices", kill.devices.into()),
        ("offered", kill.offered.into()),
        ("kill_device", m.kill_device.into()),
        ("kill_tick", m.kill_tick.into()),
        ("migrations", kill.migrations.into()),
        ("kill_migrations", kill.kill_migrations.into()),
        ("overload_migrations", kill.overload_migrations.into()),
        ("orphaned", kill.orphaned.into()),
        ("hit_rate", fixed(kill.hit_rate, 6)),
        ("latency_p99_s", fixed(kill.latency_p99, 6)),
        ("aggregate_fps", fixed(kill.aggregate_fps, 4)),
    ]);
    let (scale_sessions, scale) = &m.scale;
    let scale = Json::object([
        ("devices", scale.devices.into()),
        ("offered", (*scale_sessions).into()),
        ("frames", scale.frames.into()),
        ("admitted", scale.admitted.into()),
        ("peak_active", scale.peak_active.into()),
        ("rejected", scale.rejected.into()),
        ("aggregate_fps", fixed(scale.aggregate_fps, 4)),
        ("hit_rate", fixed(scale.hit_rate, 6)),
        ("migrations", scale.migrations.into()),
    ]);
    Json::object([
        ("bench", "fleet".into()),
        ("frames", cfg.frames.into()),
        ("seed", cfg.seed.into()),
        ("sessions_per_device", cfg.sessions.unwrap_or(FLEET_SESSIONS_PER_DEVICE).into()),
        ("frame_budget_s", fixed(holoar_serve::EDGE_FRAME_BUDGET, 6)),
        ("sweep", Json::Array(sweep.collect())),
        ("kill", kill),
        ("scale", scale),
    ])
}

/// Experiments that own a `BENCH_<kind>.json` artifact (see [`artifact`]).
pub const ARTIFACT_EXPERIMENTS: [&str; 5] = ["parallel", "pipeline", "serve", "slo", "fleet"];

/// The `BENCH_<kind>.json` artifact of one of [`ARTIFACT_EXPERIMENTS`]:
/// its writer's measurements plus a trailing `"manifest"` saying how they
/// were made. `numbers` is `"modeled"` (gpusim virtual time, identical on
/// every host) or `"host"` (wall clock); only host artifacts record the
/// host (`cores`, `holoar_threads`, build `profile`), so modeled ones stay
/// byte-identical across hosts, worker counts and telemetry modes.
///
/// # Errors
///
/// Returns a message when `kind` owns no artifact.
pub fn artifact(kind: &str, cfg: &ExperimentConfig) -> Result<Json, String> {
    report_and_artifact(kind, cfg).map(|(_, doc)| doc)
}

/// Runs one of [`ARTIFACT_EXPERIMENTS`] once and returns both its printed
/// report ([`run`]) and its [`artifact`], built from the same
/// measurements, so a host-timed table and its file agree and a modeled
/// artifact costs one run.
///
/// # Errors
///
/// Returns a message when `kind` owns no artifact.
pub fn report_and_artifact(kind: &str, cfg: &ExperimentConfig) -> Result<(String, Json), String> {
    let (report, mut doc, numbers) = match kind {
        "parallel" => {
            let (workers, cells) = parallel_measurements();
            (parallel(workers, &cells), parallel_bench_json(workers, &cells), "host")
        }
        "pipeline" => {
            let m = pipeline_measurements(cfg);
            (pipeline(cfg, &m), pipeline_bench_json(cfg, &m), "modeled")
        }
        "serve" => {
            let rows = serve_measurements(cfg);
            (serve(cfg, &rows), serve_bench_json(cfg, &rows), "modeled")
        }
        "slo" => {
            let (sessions, report) = slo_measurements(cfg);
            (slo(cfg, sessions, &report), slo_bench_json(cfg, sessions, &report), "modeled")
        }
        "fleet" => {
            let m = fleet_measurements(cfg);
            (fleet(cfg, &m), fleet_bench_json(cfg, &m), "modeled")
        }
        other => return Err(format!("no artifact for experiment '{other}'")),
    };
    let precision = holoar_fft::Precision::F64.as_str();
    let mut manifest = vec![("numbers", numbers.into()), ("precision", precision.into())];
    if numbers == "host" {
        let cores = std::thread::available_parallelism().map_or(Json::Null, |n| n.get().into());
        let threads = std::env::var(holoar_fft::parallel::THREADS_ENV_VAR);
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        manifest.extend([
            ("cores", cores),
            ("holoar_threads", threads.map_or(Json::Null, Json::from)),
            ("profile", profile.into()),
        ]);
    }
    if let Json::Object(members) = &mut doc {
        members.push(("manifest".to_string(), Json::object(manifest)));
    }
    Ok((report, doc))
}

/// `x` rounded to `decimals` places, as the artifacts record it: each value
/// parses back equal to its fixed-point text, so last-bit float differences
/// between hosts do not reach the checked-in bytes.
fn fixed(x: f64, decimals: usize) -> Json {
    Json::Number(format!("{x:.decimals$}").parse().unwrap_or(x))
}

/// Names of all experiments, in run order.
pub const ALL_EXPERIMENTS: [&str; 24] = [
    "table1", "fig2", "fig3", "fig4", "fig5", "sec3", "table2", "fig7", "fig8", "fig9", "fig10",
    "horn8", "hybrid", "gating", "reuse", "fusion", "streams", "parallel", "inter-intra", "faults",
    "pipeline", "serve", "slo", "fleet",
];

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error message listing valid ids when `id` is unknown.
pub fn run(id: &str, cfg: &ExperimentConfig) -> Result<String, String> {
    match id {
        "table1" => Ok(table1(cfg)),
        "fig2" => Ok(fig2(cfg)),
        "fig3" => Ok(fig3(cfg)),
        "fig4" => Ok(fig4(cfg)),
        "fig5" => Ok(fig5(cfg)),
        "sec3" => Ok(sec3(cfg)),
        "table2" => Ok(table2(cfg)),
        "fig7" => Ok(fig7(cfg)),
        "fig8" => Ok(fig8(cfg)),
        "fig9" => Ok(fig9(cfg)),
        "fig10" => Ok(fig10(cfg)),
        "horn8" => Ok(horn8(cfg)),
        "hybrid" => Ok(hybrid(cfg)),
        "gating" => Ok(gating(cfg)),
        "reuse" => Ok(reuse(cfg)),
        "fusion" => Ok(fusion(cfg)),
        "streams" => Ok(streams(cfg)),
        "inter-intra" => Ok(inter_intra(cfg)),
        "faults" => Ok(faults(cfg)),
        "parallel" | "pipeline" | "serve" | "slo" | "fleet" => {
            report_and_artifact(id, cfg).map(|(report, _)| report)
        }
        other => Err(format!(
            "unknown experiment '{other}'; valid: {} (or 'all')",
            ALL_EXPERIMENTS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig { frames: 25, seed: 7, sessions: Some(4) }
    }

    #[test]
    fn every_experiment_runs_and_mentions_its_artifact() {
        let cfg = quick();
        for id in ALL_EXPERIMENTS {
            let report = run(id, &cfg).unwrap();
            assert!(!report.is_empty(), "{id} produced no report");
            assert!(report.contains("=="), "{id} report lacks a header");
        }
    }

    /// `kind`'s artifact at `cfg`, rendered twice from two runs: the runs
    /// must render byte-identically.
    fn reproducible_artifact(kind: &str, cfg: &ExperimentConfig) -> Json {
        let doc = artifact(kind, cfg).unwrap();
        let again = artifact(kind, cfg).unwrap();
        assert_eq!(doc.render_pretty(), again.render_pretty(), "{kind} must be byte-identical");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some(kind));
        let numbers = doc.get("manifest").and_then(|m| m.get("numbers"));
        assert_eq!(numbers.and_then(Json::as_str), Some("modeled"));
        doc
    }

    /// The `key` of every element of `doc`'s array `array`.
    fn column<'a>(doc: &'a Json, array: &str, key: &str) -> Vec<&'a Json> {
        let rows = doc.get(array).and_then(Json::as_array).expect("artifact array");
        let cell = |row: &'a Json| row.get(key).unwrap_or_else(|| panic!("{array} misses {key}"));
        rows.iter().map(cell).collect()
    }

    #[test]
    fn parallel_bench_json_is_well_formed_and_identical() {
        let doc = artifact("parallel", &quick()).unwrap();
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("parallel"));
        assert!(doc.get("host_workers").and_then(Json::as_f64).is_some());
        let manifest = doc.get("manifest").expect("manifest");
        assert_eq!(manifest.get("numbers").and_then(Json::as_str), Some("host"));
        assert_eq!(manifest.get("precision").and_then(Json::as_str), Some("f64"));
        assert!(manifest.get("cores").and_then(Json::as_f64).is_some_and(|c| c >= 1.0));
        assert!(manifest.get("holoar_threads").is_some());
        assert!(manifest.get("profile").and_then(Json::as_str).is_some());
        // Every worker-count cell is present regardless of the host's core
        // count — CI gates on fixed cells.
        let workers = column(&doc, "cells", "workers");
        for w in BENCH_WORKERS {
            assert!(workers.contains(&&Json::from(w)), "missing cell workers={w}");
        }
        assert!(column(&doc, "cells", "bit_identical").iter().all(|b| **b == Json::Bool(true)));
    }

    #[test]
    fn pipeline_bench_json_is_well_formed_and_reproducible() {
        let cfg = ExperimentConfig { frames: 30, seed: 42, sessions: None };
        let doc = reproducible_artifact("pipeline", &cfg);
        assert_eq!(doc.get("bit_identical"), Some(&Json::Bool(true)), "not bit-identical");
        for field in ["staged", "lockstep", "speedup", "p99_ratio"] {
            assert!(doc.get(field).is_some(), "artifact misses {field}");
        }
        let bottleneck = doc.get("staged").and_then(|s| s.get("bottleneck"));
        assert!(bottleneck.and_then(Json::as_str).is_some(), "artifact misses staged.bottleneck");
    }

    #[test]
    fn pipeline_clears_the_perf_gate_floors() {
        // The same floors `repro perf-gate` enforces on the
        // checked-in artifact, validated here at the default budget.
        let m = pipeline_measurements(&ExperimentConfig::default());
        assert!(m.bit_identical, "staged report varies across worker counts");
        assert!(m.speedup >= 1.15, "staged speedup {:.3}x below the 1.15x floor", m.speedup);
        assert!(m.p99_ratio <= 1.0 + 1e-9, "staged p99 worse than lockstep: {:.3}", m.p99_ratio);
        // Drop-oldest keeps presentation gap-free: every frame presents.
        assert_eq!(m.staged.fresh_frames + m.staged.stale_frames, m.frames);
    }

    #[test]
    fn faults_worst_frame_follows_the_scene_cadence() {
        // Scene reconstruction runs 1 frame in 3: the worst frame must not
        // charge its 120 ms to a frame that never ran it. On this workload
        // a fold over the raw latencies does, so the two figures differ.
        let cfg = ExperimentConfig { frames: 150, seed: 11, sessions: None };
        let latencies = faulted_workload(&cfg).latencies;
        let worst = holoar_pipeline::run_loop(cfg.frames, |i| latencies[i as usize]).worst;
        let mut raw = holoar_pipeline::StageWorst::default();
        latencies.iter().for_each(|lat| raw.absorb(lat));
        assert!(raw.total > worst.total, "raw {} vs cadenced {}", raw.total, worst.total);
        let report = faults(&cfg);
        let line = format!("| frame {}\n", ms(worst.total));
        assert!(report.contains(&line), "faults should report {line:?}:\n{report}");
    }

    #[test]
    fn serve_bench_json_is_well_formed_and_reproducible() {
        let cfg = ExperimentConfig { frames: 12, seed: 7, sessions: None };
        let doc = reproducible_artifact("serve", &cfg);
        let sessions = column(&doc, "sweep", "sessions");
        for n in SERVE_SWEEP {
            assert!(sessions.contains(&&Json::from(n)), "sweep misses {n}");
        }
        column(&doc, "sweep", "speedup");
        column(&doc, "sweep", "psnr_gap_db");
    }

    #[test]
    fn slo_bench_json_is_well_formed_and_reproducible() {
        let cfg = ExperimentConfig { frames: 40, seed: 42, sessions: Some(8) };
        let doc = reproducible_artifact("slo", &cfg);
        assert_eq!(doc.get("sessions").and_then(Json::as_f64), Some(8.0));
        let fleet = doc.get("fleet").expect("fleet block");
        for field in ["latency_p50_s", "latency_p99_s", "latency_p999_s", "fast_burn_events"] {
            assert!(fleet.get(field).is_some(), "fleet block misses {field}");
        }
        for field in [
            "latency_p50_s",
            "latency_p99_s",
            "latency_p999_s",
            "error_budget_remaining",
            "burn_events",
            "step_downs",
            "stages",
            "critical_path",
        ] {
            column(&doc, "session_slo", field);
        }
        // Critical-path attribution names a profile stage somewhere.
        let stages = column(&doc, "session_slo", "stages");
        let attributed = stages.iter().flat_map(|s| s.as_array().unwrap_or_default()).any(|row| {
            row.get("stage").and_then(Json::as_str).is_some_and(|n| n.starts_with("profile.stage."))
        });
        assert!(attributed, "no stage attribution");
    }

    #[test]
    fn fleet_bench_json_is_well_formed_and_reproducible() {
        let cfg = ExperimentConfig { frames: 24, seed: 7, sessions: Some(4) };
        let doc = reproducible_artifact("fleet", &cfg);
        let devices = column(&doc, "sweep", "devices");
        for k in FLEET_SWEEP {
            assert!(devices.contains(&&Json::from(k)), "sweep misses K={k}");
        }
        for field in ["scaling", "hit_rate", "migrations", "reprobes"] {
            column(&doc, "sweep", field);
        }
        let kill = doc.get("kill").expect("kill block");
        assert!(kill.get("kill_migrations").is_some());
        let scale = doc.get("scale").expect("scale block");
        assert!(scale.get("peak_active").is_some());
    }

    #[test]
    fn unknown_artifact_is_an_error() {
        assert!(artifact("fig7", &quick()).unwrap_err().contains("fig7"));
    }

    #[test]
    fn fleet_report_covers_kill_and_scale_scenarios() {
        let cfg = ExperimentConfig { frames: 24, seed: 7, sessions: Some(4) };
        let report = run("fleet", &cfg).unwrap();
        assert!(report.contains("== fleet serving"));
        assert!(report.contains("device-kill scenario"));
        assert!(report.contains("scale probe"));
        assert!(report.contains("BENCH_fleet.json"));
    }

    #[test]
    fn slo_dashboard_reports_quantiles_and_signals() {
        let cfg = ExperimentConfig { frames: 40, seed: 42, sessions: Some(8) };
        let report = run("slo", &cfg).unwrap();
        assert!(report.contains("== SLO dashboard"));
        assert!(report.contains("p99.9"));
        assert!(report.contains("error budget"));
        assert!(report.contains("critical-path stage attribution"));
        assert!(report.contains("degradation step-downs"));
    }

    #[test]
    fn serve_report_restricts_to_the_requested_fleet_size() {
        let report = run("serve", &quick()).unwrap();
        assert!(report.contains("== serving layer"));
        // `--sessions 4` pins the sweep to a single data row.
        let data_rows = report.lines().filter(|l| l.starts_with(char::is_numeric)).count();
        assert_eq!(data_rows, 1, "expected one row, report:\n{report}");
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let err = run("fig99", &quick()).unwrap_err();
        assert!(err.contains("fig99"));
        assert!(err.contains("table1"));
    }

    #[test]
    fn fig7_reports_all_configs() {
        let report = fig7(&quick());
        for s in Scheme::ALL {
            assert!(report.contains(s.name()), "missing {}", s.name());
        }
        assert!(report.contains("fleet headline"));
    }

    #[test]
    fn fig4_shows_doubling() {
        let report = fig4(&quick());
        assert!(report.contains("32"));
        assert!(report.contains("2."));
    }

    #[test]
    fn table2_includes_every_video() {
        let report = table2(&quick());
        for v in VideoCategory::ALL {
            assert!(report.contains(v.name()));
        }
    }

    #[test]
    fn image_type_is_reachable_from_reports() {
        // Compile-time guard that the bench crate links the metrics crate.
        let _ = holoar_metrics::Image::new(1, 1, vec![0.0]).unwrap();
    }
}
