//! `serve`: one 90 Hz edge device, cut to a few SMs, serving several
//! sessions through `run_serve` — kernel-accurate batch pricing,
//! per-session faults, QoS step-downs and deferral past the device's knee.
//! A cycle serves several such populations. The timed cycles of a phase
//! serve them on one context of its own over the set-up's worker pool, as
//! one long-running device would.
//!
//! The populations' content is a fixed reference set, and the seed draws
//! every session's fault schedule. Host time here is mostly the quality
//! sampler's first samples of each object, and that varies with content
//! far more than code changes move it: across content seeds, one
//! population's cost has a coefficient of variation of about 0.6.

use std::fmt::Write as _;

use holoar_fft::ExecutionContext;
use holoar_gpusim::DeviceSpec;
use holoar_serve::{run_serve, ServeConfig, ServeReport, SessionSpec};
use holoar_telemetry::now_ns;

use crate::stats::{mean, ratio, Digest};
use crate::trace::Tracer;
use crate::{sub_seed, Checks, Cycles, Measurement, Model, Plan};

/// Streaming multiprocessors of the serving device: an eighth of
/// `DeviceSpec::edge()`'s 32. Host time per episode grows with the
/// sessions served (each session's first quality samples alone take about
/// 0.1 s), and host figures are steady only over pieces of work well under
/// a second (see `Cycles`), so the device is cut down until a handful of
/// sessions overloads it.
pub const SMS: u32 = 4;

/// Sessions per population: past the knee of the device, so that QoS
/// steps down and batches overrun the deferral threshold. Admission at the
/// serving defaults admits them all.
pub const SESSIONS: u32 = 6;

/// Populations per cycle.
pub const POPULATIONS: usize = 4;

/// Ticks (display refreshes) each population is served for.
pub const TICKS: u64 = 150;

/// Seed of the reference content.
const CONTENT_SEED: u64 = 0x5E55_1015;

/// Ticks of the set-up's episode (population 0 under seed 0).
const SETUP_TICKS: u64 = 10;

/// Population `k` under `seed`: the reference content of slot `k`, with
/// session ids (the fault injector's salt) drawn from the seed.
fn population(seed: u64, k: usize) -> Vec<SessionSpec> {
    let ids = sub_seed(seed, k) as u32;
    SessionSpec::fleet(SESSIONS, sub_seed(CONTENT_SEED, k))
        .into_iter()
        .zip(0u32..)
        .map(|(spec, i)| SessionSpec {
            id: ids.wrapping_add(i),
            ..spec
        })
        .collect()
}

fn run(specs: Vec<SessionSpec>, ticks: u64, ctx: &ExecutionContext) -> ServeReport {
    let config = ServeConfig::fleet(DeviceSpec::edge().sm_count(SMS), specs, ticks);
    run_serve(&config, ctx).expect("the serving defaults are valid")
}

/// Set-up: a fresh context and a short episode of a fixed reference
/// population (admission probes, quality sampling and the plan and
/// transfer caches they fill). Returns the context.
pub fn setup() -> ExecutionContext {
    let ctx = ExecutionContext::auto();
    std::hint::black_box(run(population(0, 0), SETUP_TICKS, &ctx));
    ctx
}

/// The conservation checks every serving report must pass.
fn check(report: &ServeReport, checks: &mut Checks) {
    let served: u64 = report.sessions.iter().map(|s| s.served).sum();
    let deferred: u64 = report.sessions.iter().map(|s| s.deferred).sum();
    let hits: u64 = report.sessions.iter().map(|s| s.deadline_hits).sum();
    checks.record(served + deferred == report.admitted as u64 * report.frames);
    checks.record(hits <= served);
}

/// Runs cycles of populations on fresh contexts over the plan's worker
/// pools; cycle 0's reports give the modeled numbers.
pub fn measure(plan: &Plan, mut tracer: Option<&mut Tracer>) -> Measurement {
    let mut checks = Checks::default();
    let mut reports: Vec<ServeReport> = Vec::new();
    let mut digests = Vec::new();
    let mut session_frames = vec![0u64; plan.subs];
    let device = |ctx: &ExecutionContext| {
        ExecutionContext::builder()
            .parallelism(ctx.parallelism().clone())
            .precision(ctx.precision())
            .build()
    };
    let devices = [device(plan.first), device(plan.ctx)];
    let (ns, kernel_ns) = plan.run(|cycle, k| {
        let t0 = now_ns();
        let report = run(
            population(plan.seed, k),
            TICKS,
            &devices[usize::from(!plan.on_first(cycle, k))],
        );
        let ns = now_ns() - t0;
        if let Some(t) = tracer.as_deref_mut() {
            t.drain();
        }
        check(&report, &mut checks);
        let mut digest = Digest::default();
        write!(digest, "{report:?}").expect("digests accept any text");
        if cycle == 0 {
            session_frames[k] = report.admitted as u64 * report.frames;
            digests.push(digest.value());
            reports.push(report);
        } else {
            // Same inputs every cycle, on warm caches and, for population 0
            // of an untraced phase, another worker count: the report must
            // repeat exactly.
            checks.record(digests[k] == digest.value());
        }
        vec![ns]
    });
    let sum = |f: fn(&ServeReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let hits = sum(|r| r.sessions.iter().map(|s| s.deadline_hits).sum());
    let deferred = sum(|r| r.sessions.iter().map(|s| s.deferred).sum());
    let offered = sum(|r| r.requested as u64 * r.frames);
    let admitted = sum(|r| r.admitted as u64);
    let requested = sum(|r| r.requested as u64);
    let psnr: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.sessions.iter().map(|s| s.psnr_weighted))
        .collect();
    let cycles = ns.len() as f64;
    Measurement {
        ops: cycles * session_frames.iter().sum::<u64>() as f64 / 1000.0,
        cycles: Cycles {
            ns,
            kernel_ns,
            frames: vec![TICKS; plan.subs],
            session_frames,
        },
        model: Model {
            frame_ms_p99: mean(
                &reports
                    .iter()
                    .map(|r| r.latency_p99 * 1e3)
                    .collect::<Vec<_>>(),
            ),
            energy_mj: None,
            goodput: Some(ratio(hits, offered)),
            psnr_db: Some(mean(&psnr)),
            digests,
        },
        checks,
        layer: vec![
            (
                "serve.deferred_frac",
                ratio(deferred, admitted * TICKS as f64),
            ),
            ("serve.admitted_frac", ratio(admitted, requested)),
        ],
    }
}
