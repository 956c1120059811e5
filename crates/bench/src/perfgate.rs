//! CI perf gate over the `BENCH_*.json` artifacts: one floor table, one
//! evaluator.
//!
//! Every artifact names its kind in a top-level `"bench"` field
//! (`parallel`, `serve`, `pipeline`, `fleet`, `slo`); [`evaluate`] runs the
//! [`FLOORS`] rows of that kind, so a new gate is a new row. Hard
//! invariants (schema and manifest, the parallel cell grid, bit-identity, frame
//! conservation) and the floors of the virtual-time artifacts hold on any
//! host. Host timing floors (`host: true`: ≥2× parallel GSW at 7 workers,
//! times a 0.8 noise margin) apply only when the recorded host can run 4
//! workers at once: `min(host_workers, manifest.cores)` ≥ 4. A small host
//! cannot show a parallel speedup, and a pool larger than the core count
//! (`HOLOAR_THREADS` above `cores`) measures oversubscription. Skipped
//! floors are reported on one SKIPPED line.
//!
//! Left sides and path bounds use a small selector syntax:
//!
//! * `a.b` — object keys;
//! * `a[*]` — every element of array `a` (an empty array holds vacuously);
//! * `a[k=v]` — the elements of `a` whose `k` is the number or string `v`
//!   (dot-free);
//! * `len(p)` — how many values `p` selects; `max(p)` — the largest of them;
//! * `p + q` — the sum of single-valued paths;
//! * `{x|y}` — one check per alternative (every combination of groups).
//!
//! A missing key, a filter matching nothing, a non-number under a numeric
//! comparator, and NaN all FAIL the row.

use holoar_telemetry::jsonlite::{self, Json};
use Bound::{Const, Path};
use Cmp::{Eq, Ge, Gt, IsTrue, Le, NonEmpty, Number};

/// Parallel GSW speedup target at 7 workers.
const PAR_FLOOR: f64 = 2.0;
/// Fraction of a host timing floor actually enforced — margin for timer
/// noise on shared runners.
const NOISE_MARGIN: f64 = 0.8;
/// Workers the host must run at once, `min(host_workers, manifest.cores)`,
/// before host timing floors apply.
const MIN_HOST_WORKERS: f64 = 4.0;

/// Right-hand side of a numeric comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A fixed floor or ceiling.
    Const(f64),
    /// Another single-valued path in the same artifact.
    Path(&'static str),
}

/// How every value the left side selects is tested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmp {
    /// `>=` the bound.
    Ge(Bound),
    /// `>` the bound.
    Gt(Bound),
    /// `<=` the bound.
    Le(Bound),
    /// `==` the bound.
    Eq(Bound),
    /// The JSON literal `true`.
    IsTrue,
    /// A non-empty string, array or object.
    NonEmpty,
    /// Any number (schema fields).
    Number,
}

/// One row of the gate: which artifact kind it applies to, what it checks,
/// and whether it is a host timing floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floor {
    /// The artifact's `"bench"` value this row applies to.
    pub bench: &'static str,
    /// The gated metric, named in every report and failure line.
    pub metric: &'static str,
    /// Left side: a path, `len(…)`/`max(…)` of a path, or a sum of paths.
    pub lhs: &'static str,
    /// Comparator and bound.
    pub cmp: Cmp,
    /// Applies only when `min(host_workers, manifest.cores) >= 4`
    /// (SKIPPED otherwise).
    pub host: bool,
}

const fn row(bench: &'static str, metric: &'static str, lhs: &'static str, cmp: Cmp) -> Floor {
    Floor { bench, metric, lhs, cmp, host: false }
}

const fn host(bench: &'static str, metric: &'static str, lhs: &'static str, cmp: Cmp) -> Floor {
    Floor { bench, metric, lhs, cmp, host: true }
}

/// Every perf-gate check, grouped by artifact kind.
#[rustfmt::skip]
pub const FLOORS: &[Floor] = &[
    // BENCH_parallel.json (`repro parallel --json`): hard invariants, then host timing floors.
    row("parallel", "host worker count recorded", "host_workers", Ge(Const(1.0))),
    row("parallel", "manifest", "manifest.{numbers|precision|profile}", NonEmpty),
    row("parallel", "manifest core count", "manifest.cores", Number),
    row("parallel", "cell schema", "cells[*].{workers|speedup}", Number),
    row("parallel", "cell labels", "cells[*].label", NonEmpty),
    row("parallel", "every cell bit-identical to its serial twin", "cells[*].bit_identical",
        IsTrue),
    row("parallel", "no missing cell in the workload x workers {1,2,7} grid",
        "len(cells[label={propagate_batch 128x128 8 distances|gsw 48x48 8 planes}][workers={1|2|7}])",
        Eq(Const(1.0))),
    host("parallel", "parallel gsw at 7 workers (2.0x floor, 0.8 noise margin)",
        "max(cells[label=gsw 48x48 8 planes][workers=7].speedup)",
        Ge(Const(PAR_FLOOR * NOISE_MARGIN))),
    // BENCH_serve.json (`repro serve --json`): schema and the 8-session acceptance row.
    row("serve", "manifest", "manifest.{numbers|precision}", NonEmpty),
    row("serve", "sweep has rows", "sweep", NonEmpty),
    row("serve", "sweep row schema", "sweep[*].{sessions|admitted|speedup|deadline_hit_rate\
        |latency_p50_s|latency_p99_s|psnr_gap_db|launches_saved}", Number),
    row("serve", "8-session acceptance row present", "len(sweep[sessions=8])", Eq(Const(1.0))),
    row("serve", "8-session speedup", "sweep[sessions=8].speedup", Ge(Const(1.8))),
    row("serve", "8-session deadline-hit rate", "sweep[sessions=8].deadline_hit_rate",
        Ge(Const(0.95))),
    row("serve", "8-session PSNR gap (dB)", "sweep[sessions=8].psnr_gap_db", Le(Const(0.5))),
    // BENCH_pipeline.json (`repro pipeline --json`): staged executor vs lockstep loop.
    row("pipeline", "manifest", "manifest.{numbers|precision}", NonEmpty),
    row("pipeline", "staged block schema", "staged.{throughput_fps|mean_latency_s|latency_p50_s\
        |latency_p99_s|fresh_frames|stale_frames|compute_drops|present_drops}", Number),
    row("pipeline", "lockstep block schema",
        "lockstep.{throughput_fps|latency_p99_s|sustained_p99_s}", Number),
    row("pipeline", "staged report bit-identical across worker counts", "bit_identical", IsTrue),
    row("pipeline", "presented frames (fresh + stale) == ingested frames",
        "staged.fresh_frames + staged.stale_frames", Eq(Path("frames"))),
    row("pipeline", "staged-over-lockstep speedup", "speedup", Ge(Const(1.15))),
    row("pipeline", "sustained p99 ratio (staged / lockstep)", "p99_ratio", Le(Const(1.0))),
    // BENCH_fleet.json (`repro fleet --json`): weak scaling and kill survival.
    row("fleet", "manifest", "manifest.{numbers|precision}", NonEmpty),
    row("fleet", "sweep has rows", "sweep", NonEmpty),
    row("fleet", "sweep row schema", "sweep[*].{devices|offered|admitted|aggregate_fps|scaling\
        |hit_rate|latency_p50_s|latency_p99_s|migrations}", Number),
    row("fleet", "4-device scaling row present", "len(sweep[devices=4])", Eq(Const(1.0))),
    row("fleet", "4-device aggregate-throughput scaling (0.8 per device)",
        "sweep[devices=4].scaling", Ge(Const(0.8 * 4.0))),
    row("fleet", "kill-scenario deadline-hit rate", "kill.hit_rate", Ge(Const(0.90))),
    row("fleet", "kill scenario exercised live migration (kill-forced migrations)",
        "kill.kill_migrations", Ge(Const(1.0))),
    // BENCH_slo.json (`repro slo --sessions 8 --json`): the SLO dashboard.
    row("slo", "manifest", "manifest.{numbers|precision}", NonEmpty),
    row("slo", "dashboard covers 8 sessions", "sessions", Eq(Const(8.0))),
    row("slo", "one SLO record per session", "len(session_slo[*])", Eq(Path("sessions"))),
    row("slo", "fleet p50 latency is positive", "fleet.latency_p50_s", Gt(Const(0.0))),
    row("slo", "fleet p50 <= p99", "fleet.latency_p50_s", Le(Path("fleet.latency_p99_s"))),
    row("slo", "fleet p99 <= p999", "fleet.latency_p99_s", Le(Path("fleet.latency_p999_s"))),
    row("slo", "every session has a critical path", "session_slo[*].critical_path", NonEmpty),
    row("slo", "every step-down carries its SLO signal", "session_slo[*].step_downs[*].signal",
        NonEmpty),
];

/// What the gate concluded: hard failures (non-empty fails CI) plus a
/// human-readable line-per-check report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// One entry per violated check; empty means the gate passes.
    pub failures: Vec<String>,
    /// Line-per-check report (pass / FAIL / SKIPPED with reasons).
    pub report: String,
}

impl GateOutcome {
    /// Whether CI should go green.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the [`FLOORS`] rows of the artifact's own `"bench"` kind over its
/// text.
///
/// # Errors
///
/// Returns a message when the text is not JSON, has no `"bench"` field, or
/// names a kind no row applies to — CI treats that like a failed gate.
pub fn evaluate(json_text: &str) -> Result<GateOutcome, String> {
    let doc = jsonlite::parse(json_text).map_err(|e| e.to_string())?;
    let kind = doc.get("bench").and_then(Json::as_str).ok_or("missing \"bench\" field")?;
    if !FLOORS.iter().any(|f| f.bench == kind) {
        return Err(format!("no perf-gate floors for bench kind \"{kind}\""));
    }
    let host_workers = doc.get("host_workers").and_then(Json::as_f64).unwrap_or(0.0);
    let cores = doc.get("manifest").and_then(|m| m.get("cores")).and_then(Json::as_f64);
    // The pool size follows `HOLOAR_THREADS`; only the cores behind it can
    // run workers at once.
    let concurrent = host_workers.min(cores.unwrap_or(0.0));
    let mut outcome = GateOutcome { failures: Vec::new(), report: String::new() };
    let mut skipped = Vec::new();
    for floor in FLOORS.iter().filter(|f| f.bench == kind) {
        if floor.host && concurrent < MIN_HOST_WORKERS {
            skipped.push(floor.metric);
            continue;
        }
        let checks: Vec<Result<String, String>> =
            expand(floor.lhs).iter().map(|lhs| check(&doc, lhs, floor.cmp)).collect();
        let failed: Vec<&String> = checks.iter().filter_map(|c| c.as_ref().err()).collect();
        for why in &failed {
            let line = format!("{}: {why}", floor.metric);
            outcome.report.push_str(&format!("FAIL {line}\n"));
            outcome.failures.push(line);
        }
        if failed.is_empty() {
            let detail = match checks.as_slice() {
                [Ok(one)] => one.clone(),
                many => format!("{} checks hold", many.len()),
            };
            outcome.report.push_str(&format!("pass {}: {detail}\n", floor.metric));
        }
    }
    if !skipped.is_empty() {
        outcome.report.push_str(&format!(
            "SKIPPED speedup floors: host runs {concurrent} worker(s) at once \
             ({host_workers} worker(s) on {} core(s)), floors need >= {MIN_HOST_WORKERS} \
             (smaller hosts cannot express a parallel win): {}\n",
            cores.map_or_else(|| "unrecorded".to_string(), |c| c.to_string()),
            skipped.join("; ")
        ));
    }
    Ok(outcome)
}

/// Expands the first `{x|y}` group of `path` into one path per alternative,
/// recursively, so every combination of groups becomes its own check.
fn expand(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split('|')
            .flat_map(|alt| expand(&format!("{}{alt}{}", &path[..open], &path[close + 1..])))
            .collect(),
        _ => vec![path.to_string()],
    }
}

/// One expanded check: `Ok(summary)` when every selected value satisfies
/// `cmp`, `Err(reason)` otherwise.
fn check(doc: &Json, lhs: &str, cmp: Cmp) -> Result<String, String> {
    let values = resolve(doc, lhs).map_err(|e| format!("{lhs}: {e}"))?;
    let (op, bound) = match cmp {
        Ge(b) => (">=", Some(b)),
        Gt(b) => (">", Some(b)),
        Le(b) => ("<=", Some(b)),
        Eq(b) => ("==", Some(b)),
        IsTrue => ("is true", None),
        NonEmpty => ("is non-empty", None),
        Number => ("is a number", None),
    };
    let (bound, want) = match bound {
        Some(Const(c)) => (c, format!("{op} {}", show(&Json::Number(c)))),
        Some(Path(p)) => {
            let v = single(doc, p).map_err(|e| format!("bound {p}: {e}"))?;
            (v, format!("{op} {p} ({})", show(&Json::Number(v))))
        }
        None => (f64::NAN, op.to_string()),
    };
    for (i, v) in values.iter().enumerate() {
        let x = v.as_f64().unwrap_or(f64::NAN);
        let holds = match cmp {
            Ge(_) => x >= bound,
            Gt(_) => x > bound,
            Le(_) => x <= bound,
            Eq(_) => x == bound,
            IsTrue => matches!(v, Json::Bool(true)),
            NonEmpty => match v {
                Json::String(s) => !s.is_empty(),
                Json::Array(a) => !a.is_empty(),
                Json::Object(o) => !o.is_empty(),
                _ => false,
            },
            Number => v.as_f64().is_some(),
        };
        if !holds {
            let at = if values.len() > 1 { format!(" #{i}") } else { String::new() };
            return Err(format!("{lhs}{at} = {}, want {want}", show(v)));
        }
    }
    Ok(match values.as_slice() {
        [v] => format!("{lhs} = {} {want}", show(v)),
        many => format!("{lhs}: {} value(s) {want}", many.len()),
    })
}

/// Evaluates a left side — a path, `len(…)`, `max(…)` or a `+` sum — into
/// the values it selects.
fn resolve(doc: &Json, expr: &str) -> Result<Vec<Json>, String> {
    if expr.contains(" + ") {
        let sum = expr.split(" + ").map(|term| single(doc, term)).sum::<Result<f64, _>>()?;
        return Ok(vec![Json::Number(sum)]);
    }
    if let Some(inner) = expr.strip_prefix("len(").and_then(|e| e.strip_suffix(')')) {
        return Ok(vec![Json::Number(select(doc, inner)?.len() as f64)]);
    }
    if let Some(inner) = expr.strip_prefix("max(").and_then(|e| e.strip_suffix(')')) {
        let numbers = select(doc, inner)?.into_iter().filter_map(Json::as_f64);
        let best = numbers.fold(f64::NEG_INFINITY, f64::max);
        return Ok(vec![Json::Number(best)]);
    }
    Ok(select(doc, expr)?.into_iter().cloned().collect())
}

/// A left side that must select exactly one number.
fn single(doc: &Json, expr: &str) -> Result<f64, String> {
    match resolve(doc, expr)?.as_slice() {
        [v] => v.as_f64().ok_or_else(|| format!("{expr} = {}, not a number", show(v))),
        many => Err(format!("{expr} selects {} values, want one", many.len())),
    }
}

/// Walks a dotted path with `[*]` / `[k=v]` selectors from the root.
fn select<'a>(doc: &'a Json, path: &str) -> Result<Vec<&'a Json>, String> {
    let mut nodes = vec![doc];
    for segment in path.split('.') {
        let (key, selectors) = segment.split_once('[').unwrap_or((segment, ""));
        nodes = nodes
            .into_iter()
            .map(|n| n.get(key).ok_or_else(|| format!("missing key \"{key}\"")))
            .collect::<Result<_, _>>()?;
        if selectors.is_empty() {
            continue;
        }
        // Selectors step into the array's elements, then each one filters.
        let arrays = nodes
            .into_iter()
            .map(|n| n.as_array().ok_or_else(|| format!("\"{key}\" is not an array")))
            .collect::<Result<Vec<_>, _>>()?;
        nodes = arrays.into_iter().flatten().collect();
        for selector in selectors.trim_end_matches(']').split("][") {
            nodes.retain(|item| selects(item, selector));
            if nodes.is_empty() && selector != "*" {
                return Err(format!("no \"{key}\" element matches [{selector}]"));
            }
        }
    }
    Ok(nodes)
}

/// Whether an array element passes a `*` or `k=v` selector.
fn selects(item: &Json, selector: &str) -> bool {
    let Some((key, want)) = selector.split_once('=') else {
        return selector == "*";
    };
    match item.get(key) {
        Some(Json::Number(n)) => want.parse::<f64>().is_ok_and(|w| w == *n),
        Some(Json::String(s)) => s == want,
        _ => false,
    }
}

/// Short rendering of a selected value for report lines (numbers rounded
/// to six decimals).
fn show(v: &Json) -> String {
    match v {
        Json::Number(n) => format!("{}", (n * 1e6).round() / 1e6),
        Json::Array(a) => format!("[{} element(s)]", a.len()),
        other => other.render(),
    }
}

/// CLI driver for `repro perf-gate FILE...`: gates each artifact by its own
/// `"bench"` kind, prints the reports and returns the worst exit code.
pub fn cli(args: &[String]) -> i32 {
    match args.iter().find(|a| a.starts_with('-')) {
        Some(flag) => usage(&format!("unknown argument {flag}")),
        None if args.is_empty() => usage("missing artifact path"),
        None => args.iter().map(|path| run_gate(path)).max().unwrap_or(2),
    }
}

/// Reads one artifact, gates it, prints the outcome, and maps it to an exit
/// code (0 pass, 1 gate failure, 2 unreadable/unparseable).
fn run_gate(path: &str) -> i32 {
    let gated = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| evaluate(&text).map_err(|e| format!("{path}: {e}")));
    match gated {
        Ok(outcome) if outcome.pass() => {
            println!("{}perf-gate: PASS ({path})", outcome.report);
            0
        }
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!("perf-gate: FAIL ({path}, {} violation(s))", outcome.failures.len());
            1
        }
        Err(e) => {
            eprintln!("perf-gate: {e}");
            2
        }
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("perf-gate: {msg}\nusage: repro perf-gate FILE...");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKERS: [usize; 3] = [1, 2, 7];

    fn run(json: &str) -> GateOutcome {
        evaluate(json).expect("artifact must parse and name a known bench kind")
    }

    fn fails_on(json: &str, needle: &str) {
        let outcome = run(json);
        assert!(!outcome.pass(), "expected failure for {needle}");
        assert!(
            outcome.failures.iter().any(|f| f.contains(needle)),
            "missing {needle} failure: {}",
            outcome.report
        );
    }

    fn artifact(host_workers: usize, gsw7: f64, identical: bool) -> String {
        artifact_on(host_workers, host_workers, gsw7, identical)
    }

    /// [`artifact`] recorded with a pool of `host_workers` on `cores` cores.
    fn artifact_on(host_workers: usize, cores: usize, gsw7: f64, identical: bool) -> String {
        let mut cells = String::new();
        for label in ["propagate_batch 128x128 8 distances", "gsw 48x48 8 planes"] {
            for workers in WORKERS {
                let speedup =
                    if label == "gsw 48x48 8 planes" && workers == 7 { gsw7 } else { 1.0 };
                cells.push_str(&format!(
                    "{}{{\"label\": \"{label}\", \"workers\": {workers}, \
                     \"serial_ms\": 1.0, \"parallel_ms\": 1.0, \"speedup\": {speedup}, \
                     \"bit_identical\": {identical}}}",
                    if cells.is_empty() { "" } else { ",\n" },
                ));
            }
        }
        format!(
            "{{\"bench\": \"parallel\", \"host_workers\": {host_workers},\n\
             \"cells\": [{cells}],\n\"manifest\": {{\"numbers\": \"host\", \
             \"precision\": \"f64\", \"cores\": {cores}, \"holoar_threads\": null, \
             \"profile\": \"release\"}}}}"
        )
    }

    #[test]
    fn healthy_artifact_on_a_big_host_passes() {
        let outcome = run(&artifact(8, 3.0, true));
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("parallel gsw at 7 workers"));
    }

    #[test]
    fn single_core_hosts_skip_the_speedup_floors() {
        // Speedups of 1.0 would fail the floors, but a 1-worker host skips
        // them — only the hard invariants apply.
        let outcome = run(&artifact(1, 0.9, true));
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("SKIPPED speedup floors"));
    }

    #[test]
    fn slow_parallel_gsw_fails_on_a_big_host() {
        fails_on(&artifact(8, 1.1, true), "parallel gsw");
    }

    #[test]
    fn an_oversubscribed_pool_skips_the_speedup_floors() {
        // `HOLOAR_THREADS=8` on a 2-core host records 8 workers; only 2 run
        // at once, so the floors are skipped rather than failed.
        let outcome = run(&artifact_on(8, 2, 0.8, true));
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("SKIPPED speedup floors"), "{}", outcome.report);
    }

    #[test]
    fn four_workers_on_four_cores_apply_the_speedup_floors() {
        fails_on(&artifact_on(4, 4, 1.1, true), "parallel gsw");
        let outcome = run(&artifact_on(4, 4, 3.0, true));
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(!outcome.report.contains("SKIPPED"), "{}", outcome.report);
    }

    #[test]
    fn broken_bit_identity_fails_everywhere() {
        fails_on(&artifact(1, 3.0, false), "bit-identical");
    }

    #[test]
    fn missing_cells_are_detected() {
        let thin = "{\"bench\": \"parallel\", \"host_workers\": 1,\n\
             \"cells\": [{\"label\": \"gsw 48x48 8 planes\", \"workers\": 1, \
             \"serial_ms\": 1.0, \"parallel_ms\": 1.0, \"speedup\": 1.0, \
             \"bit_identical\": true}]}";
        fails_on(thin, "missing cell");
    }

    #[test]
    fn real_artifact_round_trips_through_the_gate() {
        // The actual generator output must always clear the hard
        // invariants, whatever this host's speedups look like.
        let cfg = crate::experiments::ExperimentConfig::default();
        let outcome = run(&crate::experiments::artifact("parallel", &cfg).unwrap().render());
        for failure in &outcome.failures {
            assert!(failure.contains("parallel gsw"), "hard invariant violated: {failure}");
        }
    }

    #[test]
    fn garbage_artifacts_are_errors_not_passes() {
        assert!(evaluate("not json").is_err());
        assert!(evaluate("{}").is_err(), "an artifact must name its bench kind");
        assert!(evaluate("{\"bench\": \"nope\"}").is_err(), "unknown bench kinds are errors");
        // A kind with rows but none of the fields fails every row.
        let outcome = run("{\"bench\": \"serve\"}");
        assert!(!outcome.pass(), "an empty serve artifact must not pass");
        for floor in FLOORS.iter().filter(|f| f.bench == "serve") {
            assert!(
                outcome.failures.iter().any(|f| f.starts_with(floor.metric)),
                "{} did not fail: {}",
                floor.metric,
                outcome.report
            );
        }
    }

    #[test]
    fn checked_in_parallel_artifact_clears_the_gate() {
        // `BENCH_parallel.json` was recorded on a 2-worker host: every
        // hard invariant passes and the host timing floor is skipped on a
        // single SKIPPED line.
        let outcome = run(include_str!("../../../BENCH_parallel.json"));
        assert!(outcome.pass(), "{}", outcome.report);
        assert_eq!(outcome.report.matches("SKIPPED").count(), 1, "{}", outcome.report);
    }

    /// The manifest every modeled artifact ends with.
    const MANIFEST: &str = "\"manifest\": {\"numbers\": \"modeled\", \"precision\": \"f64\"}";

    fn serve_artifact(speedup: f64, hit: f64, gap: f64) -> String {
        let row = |sessions: u32, s: f64, h: f64, g: f64| {
            format!(
                "{{\"sessions\": {sessions}, \"admitted\": {sessions}, \
                 \"aggregate_fps\": 1000.0, \"sequential_fps\": 500.0, \"speedup\": {s}, \
                 \"deadline_hit_rate\": {h}, \"latency_p50_s\": 0.005, \
                 \"latency_p99_s\": 0.009, \"mean_occupancy\": 0.5, \
                 \"psnr_weighted_db\": 40.0, \"psnr_gap_db\": {g}, \
                 \"merged_launches\": 100, \"launches_saved\": 50, \
                 \"qos_step_downs\": 0, \"deferred\": 0}}"
            )
        };
        format!(
            "{{\"bench\": \"serve\", \"frames\": 120, \"seed\": 42, \
             \"frame_budget_s\": 0.011111,\n\"sweep\": [{},\n{}],\n{MANIFEST}}}",
            row(4, 1.2, 1.0, 0.1),
            row(8, speedup, hit, gap),
        )
    }

    #[test]
    fn healthy_serve_artifact_passes() {
        let outcome = run(&serve_artifact(2.1, 0.99, 0.2));
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("8-session speedup"));
    }

    #[test]
    fn serve_floor_violations_fail() {
        for (s, h, g, needle) in [
            (1.2, 0.99, 0.2, "speedup"),
            (2.1, 0.80, 0.2, "deadline-hit"),
            (2.1, 0.99, 1.5, "PSNR gap"),
        ] {
            fails_on(&serve_artifact(s, h, g), needle);
        }
    }

    #[test]
    fn serve_artifact_without_the_acceptance_row_fails() {
        let json = serve_artifact(2.1, 0.99, 0.2).replace("\"sessions\": 8", "\"sessions\": 9");
        fails_on(&json, "8-session acceptance row");
    }

    #[test]
    fn serve_schema_holes_are_reported() {
        let json = serve_artifact(2.1, 0.99, 0.2).replace("\"launches_saved\": 50, ", "");
        fails_on(&json, "launches_saved");
        assert!(
            !run("{\"bench\": \"serve\", \"sweep\": []}").pass(),
            "an empty sweep must not pass"
        );
    }

    #[test]
    fn generated_serve_artifact_round_trips_through_the_gate() {
        // The acceptance fleet (8 sessions, the property-test scenario) as
        // the generator emits it must clear every serve floor.
        let cfg = crate::experiments::ExperimentConfig {
            frames: 40,
            seed: 42,
            sessions: Some(8),
        };
        let outcome = run(&crate::experiments::artifact("serve", &cfg).unwrap().render());
        assert!(outcome.pass(), "{}", outcome.report);
    }

    fn pipeline_artifact(speedup: f64, ratio: f64, identical: bool, stale: u64) -> String {
        format!(
            "{{\"bench\": \"pipeline\", \"frames\": 150, \"seed\": 42, \
             \"workers\": [1, 2, 7], \"bit_identical\": {identical}, \
             \"present_latency_s\": 0.004, \"compute_queue\": 2, \"present_queue\": 2,\n\
             \"staged\": {{\"throughput_fps\": 17.0, \"mean_latency_s\": 0.080, \
             \"latency_p50_s\": 0.046, \"latency_p99_s\": 0.170, \
             \"fresh_frames\": {}, \"stale_frames\": {stale}, \"compute_drops\": {stale}, \
             \"present_drops\": 0, \"max_compute_depth\": 2, \"max_present_depth\": 1, \
             \"bottleneck\": \"ingest\"}},\n\
             \"lockstep\": {{\"throughput_fps\": 12.7, \"latency_p50_s\": 0.042, \
             \"latency_p99_s\": 0.168, \"sustained_p99_s\": 3.1, \
             \"deadline_hit_rate\": 0.3}},\n\
             \"speedup\": {speedup},\n\"p99_ratio\": {ratio},\n{MANIFEST}\n}}",
            150 - stale,
        )
    }

    #[test]
    fn healthy_pipeline_artifact_passes() {
        let outcome = run(&pipeline_artifact(1.35, 0.055, true, 3));
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("speedup"));
    }

    #[test]
    fn pipeline_floor_violations_fail() {
        for (s, r, identical, needle) in [
            (1.05, 0.055, true, "speedup"),
            (1.35, 1.2, true, "p99 ratio"),
            (1.35, 0.055, false, "bit-identical"),
        ] {
            fails_on(&pipeline_artifact(s, r, identical, 0), needle);
        }
    }

    #[test]
    fn pipeline_silent_presentation_gaps_fail() {
        // fresh + stale short of the ingested frame count means a frame
        // vanished without even a stale reprojection.
        let json = pipeline_artifact(1.35, 0.055, true, 0)
            .replace("\"fresh_frames\": 150", "\"fresh_frames\": 149");
        fails_on(&json, "presented frames");
    }

    #[test]
    fn pipeline_schema_holes_are_reported() {
        let json =
            pipeline_artifact(1.35, 0.055, true, 0).replace("\"compute_drops\": 0, ", "");
        fails_on(&json, "compute_drops");
        let empty = run("{\"bench\": \"pipeline\"}");
        assert!(!empty.pass(), "an empty pipeline artifact must not pass");
    }

    #[test]
    fn generated_pipeline_artifact_round_trips_through_the_gate() {
        let cfg = crate::experiments::ExperimentConfig { frames: 30, seed: 42, sessions: None };
        let outcome = run(&crate::experiments::artifact("pipeline", &cfg).unwrap().render());
        assert!(outcome.pass(), "{}", outcome.report);
    }

    #[test]
    fn checked_in_pipeline_artifact_clears_the_gate() {
        // `BENCH_pipeline.json` at the repo root is regenerated by `repro
        // pipeline --json BENCH_pipeline.json`; stale or hand-edited copies
        // must not sneak past the floors.
        let json = include_str!("../../../BENCH_pipeline.json");
        let outcome = run(json);
        assert!(outcome.pass(), "{}", outcome.report);
        // And it must match what this tree generates at the recorded
        // budget — a byte-level drift check against the generator.
        let cfg = crate::experiments::ExperimentConfig::default();
        assert_eq!(
            json,
            crate::experiments::artifact("pipeline", &cfg).unwrap().render_pretty(),
            "BENCH_pipeline.json is stale; regenerate with \
             `repro pipeline --json BENCH_pipeline.json`"
        );
    }

    fn fleet_artifact(scaling4: f64, kill_hit: f64, kill_migrations: u64) -> String {
        let row = |k: u32, scaling: f64| {
            format!(
                "{{\"devices\": {k}, \"offered\": {}, \"admitted\": {}, \"rejected\": 0, \
                 \"fresh_frames\": 1000, \"aggregate_fps\": {:.1}, \"scaling\": {scaling}, \
                 \"hit_rate\": 0.97, \"latency_p50_s\": 0.007, \"latency_p99_s\": 0.010, \
                 \"migrations\": 0, \"reprobes\": 60}}",
                12 * k,
                12 * k,
                600.0 * scaling,
            )
        };
        format!(
            "{{\"bench\": \"fleet\", \"frames\": 150, \"seed\": 42, \
             \"sessions_per_device\": 12, \"frame_budget_s\": 0.011111,\n\
             \"sweep\": [{},\n{},\n{},\n{}],\n\
             \"kill\": {{\"devices\": 4, \"offered\": 48, \"kill_device\": 0, \
             \"kill_tick\": 75, \"migrations\": {kill_migrations}, \
             \"kill_migrations\": {kill_migrations}, \"overload_migrations\": 0, \
             \"orphaned\": 0, \"hit_rate\": {kill_hit}, \"latency_p99_s\": 0.013, \
             \"aggregate_fps\": 2300.0}},\n\
             \"scale\": {{\"devices\": 8, \"offered\": 1536, \"frames\": 30, \
             \"admitted\": 156, \"peak_active\": 119, \"rejected\": 1380, \
             \"aggregate_fps\": 8652.0, \"hit_rate\": 0.94, \"migrations\": 0}},\n\
             {MANIFEST}\n}}",
            row(1, 1.0),
            row(2, 1.9),
            row(4, scaling4),
            row(8, 7.4),
        )
    }

    #[test]
    fn healthy_fleet_artifact_passes() {
        let outcome = run(&fleet_artifact(3.9, 0.93, 9));
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("4-device aggregate-throughput scaling"));
        assert!(outcome.report.contains("kill-scenario deadline-hit"));
    }

    #[test]
    fn fleet_floor_violations_fail() {
        for (scaling, hit, migrations, needle) in [
            (2.9, 0.93, 9, "scaling"),
            (3.9, 0.85, 9, "deadline-hit"),
            (3.9, 0.93, 0, "live migration"),
        ] {
            fails_on(&fleet_artifact(scaling, hit, migrations), needle);
        }
    }

    #[test]
    fn fleet_schema_holes_are_reported() {
        let json = fleet_artifact(3.9, 0.93, 9).replace("\"hit_rate\": 0.97, ", "");
        fails_on(&json, "hit_rate");
        assert!(!run("{\"bench\": \"fleet\"}").pass(), "an empty fleet artifact must not pass");
        let no_kill = fleet_artifact(3.9, 0.93, 9).replace("\"kill\":", "\"killed\":");
        fails_on(&no_kill, "missing key \"kill\"");
    }

    #[test]
    fn generated_fleet_artifact_round_trips_through_the_gate() {
        let cfg = crate::experiments::ExperimentConfig::default();
        let outcome = run(&crate::experiments::artifact("fleet", &cfg).unwrap().render());
        assert!(outcome.pass(), "{}", outcome.report);
    }

    #[test]
    fn checked_in_fleet_artifact_clears_the_gate() {
        // `BENCH_fleet.json` at the repo root is regenerated by `repro
        // fleet --json BENCH_fleet.json`; stale or hand-edited copies must
        // not sneak past the floors.
        let json = include_str!("../../../BENCH_fleet.json");
        let outcome = run(json);
        assert!(outcome.pass(), "{}", outcome.report);
        // And it must match what this tree generates at the recorded
        // budget — a byte-level drift check against the generator.
        let cfg = crate::experiments::ExperimentConfig::default();
        assert_eq!(
            json,
            crate::experiments::artifact("fleet", &cfg).unwrap().render_pretty(),
            "BENCH_fleet.json is stale; regenerate with `repro fleet --json BENCH_fleet.json`"
        );
    }

    #[test]
    fn checked_in_serve_artifact_clears_the_gate() {
        // `BENCH_serve.json` at the repo root is regenerated by `repro
        // serve --frames 120 --json BENCH_serve.json`; stale or hand-edited
        // copies must not sneak past the floors.
        let outcome = run(include_str!("../../../BENCH_serve.json"));
        assert!(outcome.pass(), "{}", outcome.report);
    }

    const SLO: &str = include_str!("../../../BENCH_slo.json");

    #[test]
    fn checked_in_slo_artifact_clears_the_gate() {
        // `BENCH_slo.json` at the repo root is regenerated by `repro slo
        // --sessions 8 --json BENCH_slo.json`.
        let outcome = run(SLO);
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("fleet p50 <= p99"));
    }

    #[test]
    fn slo_violations_fail() {
        let p50 = "\"fleet\": {\n    \"latency_p50_s\": 0.00366,";
        assert!(SLO.contains(p50), "fixture drifted; update the replacements below");
        fails_on(&SLO.replacen(p50, "\"fleet\": {\"latency_p50_s\": 0.009,", 1), "p50 <= p99");
        fails_on(&SLO.replacen(p50, "\"fleet\": {\"latency_p50_s\": 0,", 1), "p50 latency");
        let seven = SLO.replacen("\"sessions\": 8", "\"sessions\": 7", 1);
        fails_on(&seven, "covers 8 sessions");
        fails_on(&seven, "one SLO record per session");
        let no_path =
            SLO.replacen("\"critical_path\": [\n", "\"critical_path\": [], \"was\": [\n", 1);
        fails_on(&no_path, "critical path");
    }

    #[test]
    fn slo_step_downs_must_name_their_signal() {
        // The checked-in dashboard has no step-downs, so the signal row
        // holds vacuously there; pin its path on a step-down that exists.
        let with = |signal: &str| {
            SLO.replacen(
                "\"step_downs\": []",
                &format!("\"step_downs\": [{{\"frame\": 3, \"signal\": \"{signal}\"}}]"),
                1,
            )
        };
        assert!(run(&with("slo-fast-burn")).pass());
        fails_on(&with(""), "SLO signal");
    }

    #[test]
    fn checked_in_artifacts_are_canonical_renderings() {
        // Every artifact is written by `jsonlite`'s `render_pretty`, so a
        // hand-edited or hand-formatted copy does not re-render to itself.
        for (name, text) in [
            ("BENCH_parallel.json", include_str!("../../../BENCH_parallel.json")),
            ("BENCH_serve.json", include_str!("../../../BENCH_serve.json")),
            ("BENCH_pipeline.json", include_str!("../../../BENCH_pipeline.json")),
            ("BENCH_fleet.json", include_str!("../../../BENCH_fleet.json")),
            ("BENCH_slo.json", SLO),
        ] {
            let doc = jsonlite::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(doc.render_pretty(), text, "{name} is not a render_pretty() rendering");
        }
    }

    #[test]
    fn every_floor_resolves_on_its_checked_in_artifact() {
        // A mistyped path must fail here rather than pass the gate: every
        // row's left side and path bound select something on the artifact
        // of its kind, host timing floors included.
        let artifacts = [
            ("parallel", include_str!("../../../BENCH_parallel.json")),
            ("serve", include_str!("../../../BENCH_serve.json")),
            ("pipeline", include_str!("../../../BENCH_pipeline.json")),
            ("fleet", include_str!("../../../BENCH_fleet.json")),
            ("slo", SLO),
        ];
        for floor in FLOORS {
            let (_, text) = artifacts
                .iter()
                .find(|(kind, _)| *kind == floor.bench)
                .unwrap_or_else(|| panic!("no checked-in artifact for {}", floor.bench));
            let doc = jsonlite::parse(text).unwrap();
            for lhs in expand(floor.lhs) {
                if let Err(e) = resolve(&doc, &lhs) {
                    panic!("{} ({lhs}) does not resolve: {e}", floor.metric);
                }
            }
            if let Ge(Path(p)) | Gt(Path(p)) | Le(Path(p)) | Eq(Path(p)) = floor.cmp {
                single(&doc, p).unwrap_or_else(|e| panic!("{} bound: {e}", floor.metric));
            }
        }
    }
}
