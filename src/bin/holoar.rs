//! The `holoar` command-line tool: run simulations, record and replay
//! sensing traces, and profile the hologram workload, all from a terminal.
//!
//! ```text
//! holoar simulate --video shoe --scheme inter-intra --frames 100
//! holoar trace record --video cup --frames 60 --out session.trace
//! holoar trace info session.trace
//! holoar trace replay session.trace --scheme intra
//! holoar profile --planes 16
//! ```

use holoar::core::{evaluation, executor, HoloArConfig, Planner, Scheme};
use holoar::gpusim::hologram_kernels::{job_kernels, HologramJob};
use holoar::gpusim::{Device, Profiler};
use holoar::pipeline::Battery;
use holoar::sensors::objectron::VideoCategory;
use holoar::sensors::trace::SessionTrace;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn print_usage() {
    println!(
        "holoar — HoloAR reproduction toolkit\n\n\
         commands:\n  \
         simulate --video V --scheme S [--frames N] [--seed K]\n      \
         evaluate one video under one scheme on the simulated edge GPU\n  \
         trace record --video V [--frames N] [--seed K] --out FILE\n      \
         record a sensing session to a trace file\n  \
         trace info FILE\n      \
         summarize a trace file\n  \
         trace replay FILE [--scheme S]\n      \
         replay a trace through the planner/executor\n  \
         profile [--planes N]\n      \
         NVPROF-style profile of the hologram workload\n\n\
         videos:  bike book bottle cup laptop shoe\n\
         schemes: baseline inter intra inter-intra"
    );
}

/// Minimal flag parser: `--key value` pairs (positionals are consumed by
/// the subcommand dispatchers before flags are parsed).
struct Args {
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = std::collections::HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value =
                    it.next().ok_or_else(|| format!("--{key} requires a value"))?;
                flags.insert(key.to_string(), value.clone());
            } else {
                return Err(format!("unexpected argument '{a}'"));
            }
        }
        Ok(Args { flags })
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    fn video(&self) -> Result<VideoCategory, String> {
        let name = self.flags.get("video").map(String::as_str).unwrap_or("shoe");
        VideoCategory::ALL
            .iter()
            .copied()
            .find(|v| v.name() == name)
            .ok_or_else(|| format!("unknown video '{name}'"))
    }

    fn scheme(&self) -> Result<Scheme, String> {
        match self.flags.get("scheme").map(String::as_str).unwrap_or("inter-intra") {
            "baseline" => Ok(Scheme::Baseline),
            "inter" => Ok(Scheme::InterHolo),
            "intra" => Ok(Scheme::IntraHolo),
            "inter-intra" | "holoar" => Ok(Scheme::InterIntraHolo),
            other => Err(format!("unknown scheme '{other}'")),
        }
    }
}

fn cmd_simulate(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest)?;
    let video = args.video()?;
    let scheme = args.scheme()?;
    let frames = args.get_u64("frames", 100)?.max(1);
    let seed = args.get_u64("seed", 42)?;

    let device = Device::xavier();
    let baseline =
        evaluation::evaluate_video(&device, video, Scheme::Baseline, frames, seed);
    let result = evaluation::evaluate_video(&device, video, scheme, frames, seed);
    let battery = Battery::headset();

    println!("video {} / scheme {} / {} frames (seed {seed})", video.name(), scheme, frames);
    println!("  latency   {:.1} ms/frame ({:.2} fps)", result.mean_latency * 1e3, 1.0 / result.mean_latency);
    println!("  power     {:.2} W", result.mean_power);
    println!("  energy    {:.0} mJ/frame", result.mean_energy * 1e3);
    println!("  planes    {:.1}/frame (reuse {:.0}%)", result.mean_planes, result.reuse_fraction * 100.0);
    println!("  battery   {:.1} h at this draw", battery.runtime_hours(result.mean_power));
    if scheme != Scheme::Baseline {
        println!(
            "  vs baseline: {:.2}x speedup, {:.0}% energy savings",
            baseline.mean_latency / result.mean_latency,
            100.0 * (1.0 - result.mean_energy / baseline.mean_energy)
        );
    }
    Ok(())
}

fn cmd_trace(rest: &[String]) -> Result<(), String> {
    match rest.first().map(String::as_str) {
        Some("record") => {
            let args = Args::parse(&rest[1..])?;
            let video = args.video()?;
            let frames = args.get_u64("frames", 60)?.max(1);
            let seed = args.get_u64("seed", 42)?;
            let out = args
                .flags
                .get("out")
                .ok_or("trace record requires --out FILE")?;
            let trace = SessionTrace::record(video, frames, seed);
            std::fs::write(out, trace.serialize())
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("recorded {} frames of {} -> {out}", trace.len(), video.name());
            Ok(())
        }
        Some("info") => {
            let path = rest.get(1).ok_or("trace info requires a FILE")?;
            let trace = load_trace(path)?;
            let objects: usize = trace.frames.iter().map(|f| f.frame.objects.len()).sum();
            println!("{path}: {} frames, {:.2} objects/frame", trace.len(), objects as f64 / trace.len() as f64);
            if let Some(first) = trace.frames.first() {
                println!(
                    "  first frame: {} objects, pose ({:.1}°, {:.1}°), gaze ({:.1}°, {:.1}°)",
                    first.frame.objects.len(),
                    first.pose.orientation.azimuth.to_degrees(),
                    first.pose.orientation.elevation.to_degrees(),
                    first.gaze.azimuth.to_degrees(),
                    first.gaze.elevation.to_degrees()
                );
            }
            Ok(())
        }
        Some("replay") => {
            let path = rest.get(1).ok_or("trace replay requires a FILE")?;
            let args = Args::parse(&rest[2..])?;
            let scheme = args.scheme()?;
            let trace = load_trace(path)?;
            let device = Device::xavier();
            let mut planner = Planner::new(HoloArConfig::for_scheme(scheme))
                .map_err(|e| format!("bad configuration: {e}"))?;
            let mut latency = 0.0;
            let mut energy = 0.0;
            for tf in &trace.frames {
                let plan = planner.plan_frame(&tf.frame, &tf.pose, tf.gaze, 0.0044);
                let perf = executor::execute_plan(&device, &plan);
                latency += perf.latency;
                energy += perf.energy;
            }
            let n = trace.len() as f64;
            println!(
                "replayed {} frames under {}: {:.1} ms/frame, {:.0} mJ/frame",
                trace.len(),
                scheme,
                latency / n * 1e3,
                energy / n * 1e3
            );
            Ok(())
        }
        _ => Err("trace expects record | info | replay".into()),
    }
}

fn load_trace(path: &str) -> Result<SessionTrace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    SessionTrace::parse(&text).map_err(|e| e.to_string())
}

fn cmd_profile(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest)?;
    let planes = args.get_u64("planes", 16)?.clamp(1, 256) as u32;
    let device = Device::xavier();
    let mut profiler = Profiler::new();
    let mut latency = 0.0;
    for stats in device.execute_all(&job_kernels(&HologramJob::full(planes))) {
        latency += stats.time;
        profiler.record(&stats);
    }
    print!("{}", profiler.report());
    println!("total hologram latency: {:.1} ms ({planes} planes, 5 GSW iterations)", latency * 1e3);
    Ok(())
}
