//! Regenerates the paper's tables and figures.
//!
//! Usage: `repro [<experiment>...] [--frames N] [--seed S]`
//! where `<experiment>` is one of the ids in
//! [`holoar_bench::ALL_EXPERIMENTS`] or `all` (the default).
//!
//! Artifacts: `--json FILE` writes the machine-readable artifact of the
//! explicitly selected experiment — `parallel`, `pipeline`, `serve`, `slo`,
//! or `fleet` — to FILE. Exactly one artifact experiment must be named on
//! the command line; no artifact is written without `--json`. The printed
//! report and the artifact come from the same run.
//!
//! Serving layer: `repro serve [--sessions N] [--json FILE]` runs the
//! multi-session load generator (sweeping fleet sizes unless `--sessions`
//! pins one) and optionally exports the sweep as `BENCH_serve.json`.
//!
//! Fleet serving: `repro fleet [--sessions N] [--json FILE]` sweeps session
//! multiplexing across K devices — placement, re-probing, live migration
//! through a mid-run device kill — and exports `BENCH_fleet.json`
//! (`--sessions` overrides the offered sessions per device).
//!
//! Observability: `repro slo [--sessions N] [--json FILE]` renders the
//! SLO dashboard for one fleet (default 8 sessions) — sketch quantiles,
//! error budgets, burn-rate alerts, critical-path attribution — and
//! optionally exports it as `BENCH_slo.json`.
//!
//! `repro lint [...]` runs the workspace static-analysis pass instead
//! (see the `holoar-lint` crate); remaining arguments go to the linter.
//!
//! Telemetry: `--trace-out FILE` exports a Chrome-trace (Perfetto) timeline
//! of every span the run emitted; `--metrics-json FILE` exports the counter
//! / gauge / histogram registry plus per-frame rows. Either flag implies
//! full telemetry unless `HOLOAR_TELEMETRY` already selects a mode.

use holoar_bench::experiments::{self, ARTIFACT_EXPERIMENTS};
use holoar_bench::ExperimentConfig;
use holoar_telemetry::TelemetryMode;

fn main() {
    // `repro lint` delegates to the static-analysis crate so the lint gate
    // is reachable from the same binary CI already builds.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("lint") {
        std::process::exit(holoar_lint::cli(&raw[1..]));
    }
    // `repro perf-gate FILE...` re-reads BENCH_*.json artifacts and
    // enforces their floors (the CI perf smoke steps).
    if raw.first().map(String::as_str) == Some("perf-gate") {
        std::process::exit(holoar_bench::perfgate::cli(&raw[1..]));
    }

    let mut cfg = ExperimentConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut csv_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => {
                csv_path =
                    Some(args.next().unwrap_or_else(|| die("--csv requires a file path")));
            }
            "--json" => {
                json_path =
                    Some(args.next().unwrap_or_else(|| die("--json requires a file path")));
            }
            "--trace-out" => {
                trace_path = Some(
                    args.next().unwrap_or_else(|| die("--trace-out requires a file path")),
                );
            }
            "--metrics-json" => {
                metrics_path = Some(
                    args.next().unwrap_or_else(|| die("--metrics-json requires a file path")),
                );
            }
            "--sessions" => {
                cfg.sessions = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| die("--sessions requires a positive integer")),
                );
            }
            "--frames" => {
                cfg.frames = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--frames requires a positive integer"));
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed requires an integer"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [<experiment>...] [--frames N] [--seed S] [--sessions N] \
                     [--json FILE] [--csv FILE] [--trace-out FILE] [--metrics-json FILE]\n\
                     experiments: {} all\n\
                     --json writes the selected experiment's artifact as JSON to FILE \
                     (requires exactly one of: {} on the command line)\n\
                     --sessions pins the serve/slo experiments to one fleet size and sets \
                     the fleet experiment's offered sessions per device\n\
                     --csv writes the Fig 7/8 evaluation matrix as CSV to FILE\n\
                     --trace-out writes a Chrome-trace (Perfetto) span timeline to FILE\n\
                     --metrics-json writes the counters/gauges/histograms registry to FILE\n\
                     repro lint [--format json] runs the workspace static-analysis pass\n\
                     repro perf-gate FILE... enforces each BENCH_*.json artifact's floors \
                     (rows chosen by the artifact's \"bench\" field)\n\
                     HOLOAR_TELEMETRY=off|summary|full selects the telemetry mode \
                     (either export flag implies full)",
                    experiments::ALL_EXPERIMENTS.join(" "),
                    ARTIFACT_EXPERIMENTS.join(", "),
                );
                return;
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}; see --help")),
            other => ids.push(other.to_string()),
        }
    }

    // Telemetry is opt-in: the env var selects a mode; asking for an export
    // with the env var *unset* upgrades to full so the trace is not empty.
    // An explicit HOLOAR_TELEMETRY=off wins over the flags.
    holoar_telemetry::init_from_env();
    let wants_telemetry = trace_path.is_some() || metrics_path.is_some();
    let env_unset = std::env::var_os(holoar_telemetry::TELEMETRY_ENV_VAR).is_none();
    if wants_telemetry && env_unset && holoar_telemetry::mode() == TelemetryMode::Off {
        holoar_telemetry::set_mode(TelemetryMode::Full);
    }

    // `--json` is scoped to the experiment the user *explicitly* selected —
    // riding along in the `all` expansion does not count, so the artifact
    // written is never a surprise.
    let json_kind = json_path.as_ref().map(|_| {
        let wanted: Vec<&str> = ARTIFACT_EXPERIMENTS
            .iter()
            .copied()
            .filter(|k| ids.iter().any(|i| i == k))
            .collect();
        match wanted.as_slice() {
            [] => die(&format!(
                "--json needs exactly one artifact experiment selected explicitly \
                 (one of: {})",
                ARTIFACT_EXPERIMENTS.join(", ")
            )),
            [one] => *one,
            many => die(&format!(
                "--json is ambiguous: {} are all selected; pick one",
                many.join(", ")
            )),
        }
    });
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = experiments::ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    // The artifact experiment runs once: its printed report and its file
    // come from the same measurements.
    let mut artifact = None;
    for id in &ids {
        let report = match json_kind {
            Some(kind) if kind == id => {
                experiments::report_and_artifact(kind, &cfg).map(|(report, json)| {
                    artifact = Some(json);
                    report
                })
            }
            _ => experiments::run(id, &cfg),
        };
        match report {
            Ok(report) => println!("{report}"),
            Err(e) => die(&e),
        }
    }
    if let (Some(path), Some(kind), Some(json)) = (&json_path, json_kind, artifact) {
        if let Err(e) = std::fs::write(path, json.render_pretty()) {
            die(&format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote {kind} artifact to {path}");
    }
    if let Some(path) = csv_path {
        let matrix = holoar_core::evaluation::evaluate_matrix(
            &mut holoar_gpusim::Device::xavier(),
            cfg.frames,
            cfg.seed,
        );
        let csv = holoar_bench::csv::matrix_to_csv(&matrix);
        if let Err(e) = std::fs::write(&path, csv) {
            die(&format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote evaluation matrix to {path}");
    }
    if let Some(path) = trace_path {
        let trace = holoar_telemetry::export_chrome_trace();
        if let Err(e) = std::fs::write(&path, trace) {
            die(&format!("cannot write {path}: {e}"));
        }
        eprintln!(
            "wrote chrome trace ({} spans) to {path} — open in https://ui.perfetto.dev",
            holoar_telemetry::span_count()
        );
    }
    if let Some(path) = metrics_path {
        let json = holoar_telemetry::export_metrics_json();
        if let Err(e) = std::fs::write(&path, json) {
            die(&format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote metrics registry to {path}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
