//! End-to-end and per-layer benchmark of the HoloAR workspace.
//!
//! ```text
//! holoar-perfbench --workload <hologram|serve|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the workspace crates through their public APIs only. With
//! `--trace 0` it reports the end-to-end metrics, measured with telemetry
//! off; with `--trace 1` it runs the workload once untraced and once with
//! telemetry `Full`, and reports the per-layer metrics folded from the
//! program's own spans and counters. Either way it checks each workload's
//! outputs and that every modeled number is bit-identical across worker
//! counts (and, traced, across telemetry modes). The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `perfbench/run.py` builds this binary, adds the host's peak RSS and
//! toolchain to the result, and is what `BENCHMARK.json` names.
//!
//! `holoar-perfbench --cold-setup <workload>` runs one set-up in a fresh
//! process and prints its seconds; the untraced run uses it for `setup_s`.

#![forbid(unsafe_code)]

mod clock;
mod fleet;
mod hologram;
mod serve;
mod stats;
mod trace;

use std::process::{Command, Stdio};

use holoar_fft::ExecutionContext;
use holoar_telemetry::jsonlite::Json;
use holoar_telemetry::now_ns;

use crate::clock::{Clock, REFERENCE_NS};
use crate::stats::{band_quantile, median, ratio};
use crate::trace::{Trace, Tracer};

/// Cold set-ups repeat until this many seconds have passed (within the
/// bounds below); `setup_s` is their median.
const SETUP_BUDGET_S: f64 = 2.0;

/// Fewest and most cold set-ups per run.
const SETUP_REPS: (usize, usize) = (5, 25);

/// Fewest cycles an untraced run measures: the warm-up cycle 0 and two
/// timed ones, so that repeats are compared.
const MIN_CYCLES: usize = 3;

/// Half-width of the rank band `frame_ms_p50` and `frame_ms_p90` average
/// over (see `band_quantile`).
const FRAME_BAND: f64 = 0.05;

/// Counts checked outputs and failed checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Modeled outcome of a workload's first cycle: a pure function of the
/// seed, identical on every host.
#[derive(Debug, Clone)]
pub struct Model {
    /// p99 modeled frame latency, ms.
    pub frame_ms_p99: f64,
    /// Mean modeled energy per frame, mJ, where the workload models energy.
    pub energy_mj: Option<f64>,
    /// Deadline-met over offered session-frames, where the workload has a
    /// deadline.
    pub goodput: Option<f64>,
    /// Mean reconstruction quality, dB, where the workload models quality.
    pub psnr_db: Option<f64>,
    /// Per sub-episode, a digest of every modeled output's exact bits.
    pub digests: Vec<u64>,
}

/// Host time of every timed piece of work of every cycle, at the reference
/// host speed (see `clock`). A piece is the finest span the benchmark can
/// time from outside: one frame (`hologram`) or one sub-episode, whose
/// tick loop runs inside one call (`serve`, `fleet`). Cycles repeat the
/// same pieces in the same order. Cycle 0 is a warm-up (cold caches, and
/// partly another worker count; see `Plan::first`), and host figures take
/// each piece's median over the later cycles.
#[derive(Debug, Clone, Default)]
pub struct Cycles {
    /// `ns[c][p]`: host time of piece `p` in cycle `c`, reference ns.
    pub ns: Vec<Vec<f64>>,
    /// Wall time of every calibration kernel run, ns.
    pub kernel_ns: Vec<u64>,
    /// Display frames (ticks) of each piece.
    pub frames: Vec<u64>,
    /// Session-frames of each piece.
    pub session_frames: Vec<u64>,
}

impl Cycles {
    /// Host seconds of each piece: its median after the warm-up cycle (or
    /// the warm-up itself, when it is the only cycle).
    fn piece_s(&self) -> Vec<f64> {
        let timed = &self.ns[self.ns.len().min(2) - 1..];
        (0..self.frames.len())
            .map(|p| median(&timed.iter().map(|c| c[p]).collect::<Vec<_>>()) / 1e9)
            .collect()
    }

    /// Host seconds of one cycle.
    fn cycle_s(&self) -> f64 {
        self.piece_s().iter().sum()
    }

    /// Host ms per display frame of each piece.
    fn frame_ms(&self) -> Vec<f64> {
        self.piece_s()
            .iter()
            .zip(&self.frames)
            .map(|(s, &f)| s * 1e3 / f as f64)
            .collect()
    }

    fn frames_per_s(&self) -> f64 {
        ratio(self.frames.iter().sum::<u64>() as f64, self.cycle_s())
    }

    fn session_frames_per_s(&self) -> f64 {
        ratio(
            self.session_frames.iter().sum::<u64>() as f64,
            self.cycle_s(),
        )
    }

    /// Host time of everything measured, reference ns.
    fn total_ns(&self) -> f64 {
        self.ns.iter().flatten().sum()
    }
}

/// The seed of sub-episode `k`: SplitMix64 of the run's seed and `k`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a measured phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// The run's seed; sub-episode `k` uses `sub_seed(seed, k)`.
    pub seed: u64,
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Fewest cycles to run.
    pub min_cycles: usize,
    /// Sub-episodes per cycle.
    pub subs: usize,
    /// Context of sub-episode 0 in the warm-up cycle 0. In an untraced
    /// phase it has another worker count than `ctx`, so the check that
    /// every later cycle repeats cycle 0's outputs bit for bit is also the
    /// worker-count check. Only one sub-episode runs on it, so that a
    /// second pool's threads hardly add to the peak resident set.
    pub first: &'a ExecutionContext,
    /// Context of everything else.
    pub ctx: &'a ExecutionContext,
}

impl Plan<'_> {
    /// Whether sub-episode `k` of cycle `cycle` runs on `first`.
    pub fn on_first(&self, cycle: usize, k: usize) -> bool {
        cycle == 0 && k == 0
    }

    /// The context sub-episode `k` of cycle `cycle` runs on.
    pub fn ctx(&self, cycle: usize, k: usize) -> &ExecutionContext {
        if self.on_first(cycle, k) {
            self.first
        } else {
            self.ctx
        }
    }

    /// Runs cycles of `subs` sub-episodes until `seconds` have passed and
    /// at least `min_cycles` ran. `run(cycle, k)` runs sub-episode `k` and
    /// returns the wall nanoseconds of each piece it timed; each
    /// sub-episode runs between two calibration kernels. Returns the
    /// pieces' times at the reference speed and the kernels' times.
    pub fn run(&self, mut run: impl FnMut(usize, usize) -> Vec<u64>) -> (Vec<Vec<f64>>, Vec<u64>) {
        let start = now_ns();
        let mut clock = Clock::default();
        let mut ns = Vec::new();
        while ns.len() < self.min_cycles || ((now_ns() - start) as f64 / 1e9) < self.seconds {
            let cycle = ns.len();
            ns.push(
                (0..self.subs)
                    .flat_map(|k| clock.normalized(|| run(cycle, k)))
                    .collect(),
            );
        }
        (ns, clock.kernel_ns)
    }
}

/// What one measured phase of a workload produced.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Host time per piece and cycle.
    pub cycles: Cycles,
    /// Per-layer operations: frames (`hologram`) or thousands of
    /// session-frames (`serve`, `fleet`), over every cycle.
    pub ops: f64,
    /// Modeled outcome of cycle 0.
    pub model: Model,
    /// Output checks.
    pub checks: Checks,
    /// Per-layer numbers the workload computes itself.
    pub layer: Vec<(&'static str, f64)>,
}

impl Measurement {
    fn layer(&self, name: &str) -> f64 {
        self.layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Hologram,
    Serve,
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "hologram" => Ok(Workload::Hologram),
            "serve" => Ok(Workload::Serve),
            "fleet" => Ok(Workload::Fleet),
            _ => Err(format!("unknown workload {s:?} (hologram, serve, fleet)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Hologram => "hologram",
            Workload::Serve => "serve",
            Workload::Fleet => "fleet",
        }
    }

    /// Sub-episodes per cycle.
    fn subs(self) -> usize {
        match self {
            Workload::Hologram => hologram::SESSIONS,
            Workload::Serve => serve::POPULATIONS,
            Workload::Fleet => fleet::FLEETS,
        }
    }

    /// Builds a fresh context and warms it on a fixed reference input, the
    /// same for every seed; returns the context.
    fn setup(self) -> ExecutionContext {
        match self {
            Workload::Hologram => hologram::setup(),
            Workload::Serve => serve::setup(),
            Workload::Fleet => {
                fleet::setup();
                ExecutionContext::auto()
            }
        }
    }

    /// Runs cycles until `seconds` have passed and at least `min_cycles`
    /// ran, on `ctx` but for sub-episode 0 of cycle 0 (see `Plan::first`).
    fn measure(
        self,
        seed: u64,
        seconds: f64,
        min_cycles: usize,
        first: &ExecutionContext,
        ctx: &ExecutionContext,
        tracer: Option<&mut Tracer>,
    ) -> Measurement {
        let plan = Plan {
            seed,
            seconds,
            min_cycles,
            subs: self.subs(),
            first,
            ctx,
        };
        match self {
            Workload::Hologram => hologram::measure(&plan, tracer),
            Workload::Serve => serve::measure(&plan, tracer),
            Workload::Fleet => fleet::measure(&plan, tracer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    /// A measured run.
    Run(Args),
    /// One set-up in this fresh process (`--cold-setup <workload>`).
    ColdSetup(Workload),
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload] = argv.as_slice() {
        if flag == "--cold-setup" {
            return Ok(Mode::ColdSetup(Workload::parse(workload)?));
        }
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Wall-clock time on the host.
const HOST: &str = "host";
/// Simulated: gpusim virtual time or optics arithmetic.
const MODELED: &str = "modeled";
/// An event count or ratio of counts.
const COUNT: &str = "count";

/// Higher is better.
const HIGHER: bool = true;
/// Lower is better.
const LOWER: bool = false;

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    higher_is_better: bool,
    kind: &'static str,
    note: String,
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    higher_is_better: bool,
    kind: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        higher_is_better,
        kind,
        note: note.into(),
    }
}

/// The end-to-end metrics of an untraced phase (`peak_rss_mb` is added by
/// the launcher, which sees the process from outside).
fn end_to_end(w: Workload, m: &Measurement, setup_times: &[f64]) -> Vec<Metric> {
    let c = &m.cycles;
    let repeats = format!(
        "each piece the median of {} timed cycles, at the reference speed",
        c.ns.len().saturating_sub(1).max(1)
    );
    let frame_ms = c.frame_ms();
    let frame_note = match w {
        Workload::Hologram => format!(
            "mean of the frames ranked within 5 % of the quantile; {} frames, {repeats}",
            frame_ms.len()
        ),
        _ => format!(
            "over {} sub-episodes' mean tick (the tick loop runs inside one call), {repeats}",
            frame_ms.len()
        ),
    };
    vec![
        metric(
            "setup_s",
            median(setup_times),
            "s",
            LOWER,
            HOST,
            format!(
                "median of {} set-ups, each in a fresh process, at the reference speed",
                setup_times.len()
            ),
        ),
        metric(
            "frames_per_s",
            c.frames_per_s(),
            "frames/s",
            HIGHER,
            HOST,
            format!(
                "display frames per host second; {} per cycle, {repeats}",
                c.frames.iter().sum::<u64>()
            ),
        ),
        metric(
            "session_frames_per_s",
            c.session_frames_per_s(),
            "frames/s",
            HIGHER,
            HOST,
            format!(
                "session-frames per host second; {} per cycle, {repeats}",
                c.session_frames.iter().sum::<u64>()
            ),
        ),
        metric(
            "frame_ms_p50",
            band_quantile(&frame_ms, 0.5, FRAME_BAND),
            "ms",
            LOWER,
            HOST,
            frame_note.clone(),
        ),
        metric(
            "frame_ms_p90",
            band_quantile(&frame_ms, 0.9, FRAME_BAND),
            "ms",
            LOWER,
            HOST,
            frame_note,
        ),
        metric(
            "model_frame_ms_p99",
            m.model.frame_ms_p99,
            "ms",
            LOWER,
            MODELED,
            match w {
                Workload::Hologram => "p99 execute_plan latency on the modeled Xavier, cycle 0",
                _ => "mean over sub-episodes of p99 completion latency, cycle 0",
            },
        ),
    ]
}

/// The per-layer metrics of a traced phase, against the untraced one.
/// Kinds: `host` is wall clock on the benchmark's thread, `count` comes
/// from the program's counters or reports, `modeled` is simulated.
/// `setup` is the trace of the process's first, cold set-up.
fn per_layer(m: &Measurement, untraced: &Measurement, t: &Trace, setup: &Trace) -> Vec<Metric> {
    let per_op = |x: f64| ratio(x, m.ops);
    let ms = |ns: u64| per_op(ns as f64 / 1e6);
    let counter = |name: &str| t.counter(name) as f64;
    let share = |hit: f64, miss: f64| ratio(hit, hit + miss);
    let plan_hits =
        (setup.counter("fft.plan_cache.hit") + setup.counter("fft.plan_cache.local_hit")) as f64;
    vec![
        metric(
            "fft.self_ms_per_op",
            ms(t.self_ns("fft.")),
            "ms",
            LOWER,
            HOST,
            "self time of fft.* spans",
        ),
        metric(
            "fft.transforms_per_op",
            per_op(t.count_prefix("fft.fft2d.") as f64),
            "count",
            LOWER,
            COUNT,
            "fft.fft2d.* calls, all threads",
        ),
        metric(
            "fft.plan_cache_hit_ratio",
            share(plan_hits, setup.counter("fft.plan_cache.miss") as f64),
            "ratio",
            HIGHER,
            COUNT,
            "fft.plan_cache hits / lookups during the first (cold) set-up",
        ),
        metric(
            "fft.arena_reuse_ratio",
            share(
                counter("fft.arena.take.reuse"),
                counter("fft.arena.take.alloc"),
            ),
            "ratio",
            HIGHER,
            COUNT,
            "fft.arena takes served by reuse",
        ),
        metric(
            "optics.gsw_ms_per_op",
            ms(t.total_ns("optics.gsw.run")),
            "ms",
            LOWER,
            HOST,
            "optics.gsw.run duration",
        ),
        metric(
            "optics.self_ms_per_op",
            ms(t.self_ns("optics.")),
            "ms",
            LOWER,
            HOST,
            "self time of optics.* spans",
        ),
        metric(
            "optics.planes_per_op",
            m.layer("optics.planes_per_op"),
            "count",
            LOWER,
            COUNT,
            "depth planes synthesized (hologram)",
        ),
        metric(
            "optics.transfer_cache_hit_ratio",
            share(
                counter("optics.transfer_cache.hit"),
                counter("optics.transfer_cache.miss"),
            ),
            "ratio",
            HIGHER,
            COUNT,
            "optics.transfer_cache hits / lookups",
        ),
        metric(
            "core.planner_us_per_op",
            per_op(t.total_ns("core.planner.plan_frame") as f64 / 1e3),
            "us",
            LOWER,
            HOST,
            "core.planner.plan_frame duration",
        ),
        metric(
            "core.reused_frac",
            share(
                counter("core.plan.objects_reused"),
                counter("core.plan.objects_computed"),
            ),
            "ratio",
            HIGHER,
            COUNT,
            "reused / planned visible objects",
        ),
        metric(
            "core.quality_ms_per_op",
            ms(t.total_ns("core.quality.object_psnr")),
            "ms",
            LOWER,
            HOST,
            "core.quality.object_psnr duration",
        ),
        metric(
            "core.degrade_self_ms_per_op",
            ms(t.self_ns("core.degrade.")),
            "ms",
            LOWER,
            HOST,
            "self time of core.degrade.* spans",
        ),
        metric(
            "core.step_downs_per_op",
            per_op(counter("core.degrade.step_down")),
            "count",
            LOWER,
            COUNT,
            "core.degrade.step_down",
        ),
        metric(
            "gpusim.launches_per_op",
            per_op(counter("serve.batch.launches")),
            "count",
            LOWER,
            COUNT,
            "merged kernel launches (serve batcher)",
        ),
        metric(
            "gpusim.launches_saved_ratio",
            share(
                counter("serve.batch.launches_saved"),
                counter("serve.batch.launches"),
            ),
            "ratio",
            HIGHER,
            COUNT,
            "launches saved / unbatched launches",
        ),
        metric(
            "serve.tick_self_ms_per_op",
            ms(t.self_ns("serve.tick")),
            "ms",
            LOWER,
            HOST,
            "self time of serve.tick",
        ),
        metric(
            "serve.quality_miss_ratio",
            ratio(
                t.count("core.quality.object_psnr") as f64,
                t.count("serve.quality.sample") as f64,
            ),
            "ratio",
            LOWER,
            COUNT,
            "object_psnr computations / quality samples",
        ),
        metric(
            "serve.deferred_frac",
            m.layer("serve.deferred_frac"),
            "ratio",
            LOWER,
            COUNT,
            "deferred / admitted session-frames",
        ),
        metric(
            "serve.admitted_frac",
            m.layer("serve.admitted_frac"),
            "ratio",
            HIGHER,
            COUNT,
            "admitted / requested sessions",
        ),
        metric(
            "pipeline.self_ms_per_op",
            ms(t.self_ns("pipeline.")),
            "ms",
            LOWER,
            HOST,
            "self time of pipeline.* spans",
        ),
        metric(
            "fleet.tick_self_ms_per_op",
            ms(t.self_ns("fleet.tick")),
            "ms",
            LOWER,
            HOST,
            "self time of fleet.tick",
        ),
        metric(
            "fleet.reprobes_per_op",
            m.layer("fleet.reprobes_per_op"),
            "count",
            LOWER,
            COUNT,
            "admission re-probes",
        ),
        metric(
            "fleet.migrations_per_op",
            m.layer("fleet.migrations_per_op"),
            "count",
            LOWER,
            COUNT,
            "live migrations",
        ),
        metric(
            "fleet.rejected_frac",
            m.layer("fleet.rejected_frac"),
            "ratio",
            LOWER,
            COUNT,
            "rejected / offered sessions",
        ),
        metric(
            "faults.self_ms_per_op",
            ms(t.self_ns("faults.")),
            "ms",
            LOWER,
            HOST,
            "self time of faults.* spans",
        ),
        metric(
            "sensors.frame_us_per_op",
            untraced.layer("sensors.frame_us_per_op"),
            "us",
            LOWER,
            HOST,
            "frame generator + eye tracker, timed by the benchmark (hologram)",
        ),
        metric(
            "telemetry.overhead_frac",
            ratio(
                m.cycles.total_ns() / m.ops,
                untraced.cycles.total_ns() / untraced.ops,
            ) - 1.0,
            "ratio",
            LOWER,
            HOST,
            "traced / untraced host time per op, minus 1",
        ),
        metric(
            "model.energy_mj",
            untraced.model.energy_mj.unwrap_or(0.0),
            "mJ",
            LOWER,
            MODELED,
            "modeled Xavier energy per frame (hologram)",
        ),
        metric(
            "model.goodput",
            untraced.model.goodput.unwrap_or(0.0),
            "ratio",
            HIGHER,
            MODELED,
            "deadline-met / offered session-frames (serve, fleet)",
        ),
        metric(
            "model.psnr_db",
            untraced.model.psnr_db.unwrap_or(0.0),
            "dB",
            HIGHER,
            MODELED,
            "reconstruction PSNR (hologram), mean psnr_weighted (serve)",
        ),
    ]
}

/// Seconds of one set-up in this process, at the reference speed (see
/// `clock`).
fn timed_setup(w: Workload) -> f64 {
    Clock::default().normalized(|| {
        let t0 = now_ns();
        std::hint::black_box(w.setup());
        vec![now_ns() - t0]
    })[0]
        / 1e9
}

/// Runs set-ups, each in a fresh process so that process-wide state (FFT
/// plans, the worker pool, lazily built tables) starts cold as it does for
/// a user, until `SETUP_BUDGET_S` has passed (see `SETUP_REPS`). Returns
/// the seconds of each.
fn cold_setups(w: Workload) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let start = now_ns();
    let mut times = Vec::new();
    loop {
        let out = Command::new(&exe)
            .args(["--cold-setup", w.name()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a cold set-up: {e}"))?;
        let seconds = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|s| out.status.success() && s.is_finite())
            .ok_or_else(|| format!("a cold set-up failed ({})", out.status))?;
        times.push(seconds);
        let spent = (now_ns() - start) as f64 / 1e9;
        if times.len() >= SETUP_REPS.1 || (times.len() >= SETUP_REPS.0 && spent >= SETUP_BUDGET_S) {
            return Ok(times);
        }
    }
}

/// A context with another worker count than `workers`: `nproc` for one
/// worker, one otherwise. Sub-episode 0 of an untraced phase's cycle 0
/// runs on it.
fn other_workers(workers: usize) -> ExecutionContext {
    ExecutionContext::with_workers(if workers == 1 { nproc() } else { 1 })
}

/// Hardware threads available to the process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn object(members: Vec<(&str, Json)>) -> Json {
    Json::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Json {
    Json::String(s.to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(Mode::Run(a)) => a,
        Ok(Mode::ColdSetup(w)) => {
            println!("{}", timed_setup(w));
            return;
        }
        Err(e) => {
            eprintln!("holoar-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let started = now_ns();
    let mut failures = Vec::new();
    let mut checks = Checks::default();

    let (metrics, (precision, workers), kernel_ns, trace) = if args.trace {
        // The process's first set-up is cold: trace it for the plan cache.
        let setup_tracer = Tracer::start();
        let ctx = w.setup();
        let setup_trace = setup_tracer.finish();
        let (precision, workers) = (ctx.precision(), ctx.workers());
        let half = args.seconds / 2.0;
        let other = other_workers(workers);
        let untraced = w.measure(args.seed, half, 1, &other, &ctx, None);
        let mut tracer = Tracer::start();
        let traced = w.measure(args.seed, half, 1, &ctx, &ctx, Some(&mut tracer));
        let trace = tracer.finish();
        checks.merge(untraced.checks);
        checks.merge(traced.checks);
        let same = traced.model.digests == untraced.model.digests;
        checks.record(same);
        if !same {
            failures.push("modeled outputs differ between traced and untraced runs".into());
        }
        let dropped = trace.counter("telemetry.spans.dropped");
        checks.record(dropped == 0);
        if dropped > 0 {
            failures.push(format!(
                "the span buffer overflowed ({dropped} spans dropped)"
            ));
        }
        (
            per_layer(&traced, &untraced, &trace, &setup_trace),
            (precision, workers),
            untraced.cycles.kernel_ns.clone(),
            Some((trace, traced)),
        )
    } else {
        let setup_times = match cold_setups(w) {
            Ok(times) => times,
            Err(e) => {
                eprintln!("holoar-perfbench: {e}");
                std::process::exit(1);
            }
        };
        let ctx = w.setup();
        let (precision, workers) = (ctx.precision(), ctx.workers());
        let other = other_workers(workers);
        let m = w.measure(args.seed, args.seconds, MIN_CYCLES, &other, &ctx, None);
        checks.merge(m.checks);
        (
            end_to_end(w, &m, &setup_times),
            (precision, workers),
            m.cycles.kernel_ns,
            None,
        )
    };
    for m in &metrics {
        if !m.value.is_finite() {
            checks.record(false);
            failures.push(format!("{} is not finite", m.name));
        }
    }
    if checks.failed > failures.len() as u64 {
        failures.push(
            "output checks failed: a conservation law, a phase-only sample, or a cycle \
             that did not repeat cycle 0's outputs (another worker count) bit for bit"
                .into(),
        );
    }

    // Human-readable report.
    println!(
        "holoar-perfbench: workload {} seed {} ({} run, {:.1} s wall)",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        (now_ns() - started) as f64 / 1e9
    );
    for m in &metrics {
        println!(
            "  {:<32} {:>16.6} {:<9} {} {:<8} {}",
            m.name,
            m.value,
            m.unit,
            if m.higher_is_better { "↑" } else { "↓" },
            m.kind,
            m.note
        );
    }
    if let Some((t, m)) = &trace {
        println!("  benchmark-side numbers:");
        for (name, value) in m.layer.iter().filter(|(n, _)| n.starts_with("bench.")) {
            println!("    {name:<30} {value:>16.6}");
        }
        let rows = t.self_by_crate();
        let total: u64 = rows.iter().map(|(_, ns)| ns).sum();
        println!("  self time by crate (traced run, benchmark thread):");
        for (krate, ns) in rows {
            println!(
                "    {:<10} {:>10.3} s  {:>5.1}%",
                krate,
                ns as f64 / 1e9,
                100.0 * ratio(ns as f64, total as f64)
            );
        }
    }
    println!(
        "  error_rate {} ({} failed of {} checks)",
        ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    for f in &failures {
        eprintln!("holoar-perfbench: FAILED: {f}");
    }

    // Manifest: how and where these numbers were produced.
    let manifest = object(vec![
        ("workload", text(w.name())),
        ("seed", Json::Number(args.seed as f64)),
        ("seconds", Json::Number(args.seconds)),
        ("trace", Json::Number(f64::from(u8::from(args.trace)))),
        ("nproc", Json::Number(nproc() as f64)),
        ("workers", Json::Number(workers as f64)),
        (
            "holoar_threads",
            std::env::var("HOLOAR_THREADS").map_or(Json::Null, Json::String),
        ),
        ("precision", text(precision.as_str())),
        ("reference_ns", Json::Number(REFERENCE_NS)),
        (
            "kernel_ns_median",
            Json::Number(median(
                &kernel_ns.iter().map(|&ns| ns as f64).collect::<Vec<_>>(),
            )),
        ),
        (
            "profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "kinds",
            object(metrics.iter().map(|m| (m.name, text(m.kind))).collect()),
        ),
    ]);
    println!("{}", object(vec![("manifest", manifest)]).render());

    let result = object(vec![
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Number(checks.attempted.max(1) as f64)),
        ("failed", Json::Number(checks.failed as f64)),
        (
            "metrics",
            object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name,
                            object(vec![
                                ("value", Json::Number(m.value)),
                                ("unit", text(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
