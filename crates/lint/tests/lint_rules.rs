//! End-to-end rule tests: every rule fires on a known-bad fixture, inline
//! waivers and the checked-in baseline suppress exactly as specified, and
//! the JSON output round-trips through the telemetry crate's `jsonlite`
//! parser (the same one CI-side tooling uses).
//!
//! The fixtures under `tests/fixtures/` are data, not code — the engine's
//! workspace walker skips `fixtures` directories, so the deliberate
//! violations in them never fail the real lint gate.

use holoar_lint::{engine, Config, Report, SourceFile, Status};

/// Minimal registry for the fixtures: one registered span name.
const REGISTRY: &str = "span core.view.render_view\n";

fn cfg() -> Config {
    Config::new(std::path::PathBuf::from("/nonexistent"))
}

fn lint_one(rel: &str, src: &str) -> Report {
    lint_one_with_baseline(rel, src, "")
}

fn lint_one_with_baseline(rel: &str, src: &str, baseline: &str) -> Report {
    let files = vec![SourceFile::scan(rel, src)];
    engine::lint_sources(&files, &cfg(), REGISTRY, baseline)
}

fn lines_for(report: &Report, rule: &str) -> Vec<usize> {
    report.findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

#[test]
fn no_panic_fires_on_hot_path_fixture() {
    let src = include_str!("fixtures/no_panic.rs");
    let report = lint_one("crates/fft/src/mixed_radix.rs", src);
    let lines = lines_for(&report, "no-panic");
    // buf[0], buf[buf.len() - 1], unwrap, expect, panic!, unreachable!.
    for expected in [5, 6, 7, 8, 10, 13] {
        assert!(lines.contains(&expected), "no-panic missing line {expected}: {lines:?}");
    }
    // Loop-bounded indexing and cfg(test) unwraps are allowed.
    assert!(!lines.contains(&17), "loop-bounded index wrongly flagged");
    assert!(!lines.contains(&25), "test-code unwrap wrongly flagged");
}

#[test]
fn no_panic_ignores_cold_paths() {
    let src = include_str!("fixtures/no_panic.rs");
    let report = lint_one("crates/bench/src/experiments.rs", src);
    assert!(
        lines_for(&report, "no-panic").is_empty(),
        "no-panic applies only to the designated hot-path modules"
    );
}

#[test]
fn determinism_flags_clocks_and_hash_iteration() {
    let src = include_str!("fixtures/determinism.rs");
    let report = lint_one("crates/gpusim/src/device.rs", src);
    let lines = lines_for(&report, "determinism");
    assert!(lines.contains(&7), "Instant::now not flagged: {lines:?}");
    assert!(lines.contains(&11), "HashMap iteration not flagged: {lines:?}");
    assert!(!lines.contains(&10), "keyed lookup wrongly flagged");
}

#[test]
fn thread_discipline_fires_outside_the_pool_only() {
    let src = include_str!("fixtures/thread_discipline.rs");
    let outside = lint_one("crates/optics/src/gsw.rs", src);
    assert_eq!(lines_for(&outside, "thread-discipline"), vec![4]);
    let home = lint_one("crates/fft/src/parallel.rs", src);
    assert!(
        lines_for(&home, "thread-discipline").is_empty(),
        "the Parallelism pool itself may touch std threads"
    );
}

#[test]
fn telemetry_discipline_flags_bad_and_unregistered_names() {
    let src = include_str!("fixtures/telemetry_discipline.rs");
    let report = lint_one("crates/core/src/view.rs", src);
    let lines = lines_for(&report, "telemetry-discipline");
    assert!(!lines.contains(&5), "registered name wrongly flagged: {lines:?}");
    for expected in [6, 7, 8] {
        assert!(lines.contains(&expected), "line {expected} not flagged: {lines:?}");
    }
}

#[test]
fn unregistered_degradation_counter_trips_telemetry_discipline() {
    // The registry knows the degradation counters the controller really
    // emits; a counter added without registering it must fail the gate.
    const DEGRADE_REGISTRY: &str =
        "counter core.degrade.step_down\ngauge core.degrade.level\n";
    let src = include_str!("fixtures/degrade_counter.rs");
    let files = vec![SourceFile::scan("crates/core/src/degrade.rs", src)];
    let report = engine::lint_sources(&files, &cfg(), DEGRADE_REGISTRY, "");
    let lines = lines_for(&report, "telemetry-discipline");
    assert!(!lines.contains(&6), "registered counter wrongly flagged: {lines:?}");
    assert!(!lines.contains(&7), "registered gauge wrongly flagged: {lines:?}");
    assert!(lines.contains(&8), "unregistered degradation counter must be flagged: {lines:?}");
}

#[test]
fn unregistered_serve_counter_trips_telemetry_discipline() {
    // The registry knows the serving-layer instruments the engine really
    // emits; a counter added without registering it must fail the gate.
    const SERVE_REGISTRY: &str =
        "counter serve.deadline.hit\ngauge serve.tick.occupancy\n";
    let src = include_str!("fixtures/serve_counter.rs");
    let files = vec![SourceFile::scan("crates/serve/src/engine.rs", src)];
    let report = engine::lint_sources(&files, &cfg(), SERVE_REGISTRY, "");
    let lines = lines_for(&report, "telemetry-discipline");
    assert!(!lines.contains(&6), "registered serve counter wrongly flagged: {lines:?}");
    assert!(!lines.contains(&7), "registered serve gauge wrongly flagged: {lines:?}");
    assert!(lines.contains(&8), "unregistered serve counter must be flagged: {lines:?}");
}

#[test]
fn unregistered_slo_counter_trips_telemetry_discipline() {
    // The registry knows the SLO instruments the tracker really emits; a
    // burn counter added without registering it must fail the gate.
    const SLO_REGISTRY: &str =
        "counter slo.burn.fast\ngauge slo.error_budget.remaining\n";
    let src = include_str!("fixtures/slo_counter.rs");
    let files = vec![SourceFile::scan("crates/serve/src/slo.rs", src)];
    let report = engine::lint_sources(&files, &cfg(), SLO_REGISTRY, "");
    let lines = lines_for(&report, "telemetry-discipline");
    assert!(!lines.contains(&6), "registered SLO counter wrongly flagged: {lines:?}");
    assert!(!lines.contains(&7), "registered SLO gauge wrongly flagged: {lines:?}");
    assert!(lines.contains(&8), "unregistered SLO counter must be flagged: {lines:?}");
}

#[test]
fn unsafe_hygiene_wants_safety_comments() {
    let src = include_str!("fixtures/unsafe_hygiene.rs");
    let report = lint_one("src/ptr.rs", src);
    assert_eq!(
        lines_for(&report, "unsafe-hygiene"),
        vec![4],
        "only the unjustified unsafe should be flagged"
    );
}

#[test]
fn unsafe_hygiene_wants_forbid_in_clean_crates() {
    let bare = lint_one("crates/foo/src/lib.rs", "pub fn f() {}\n");
    let f = bare
        .findings
        .iter()
        .find(|f| f.rule == "unsafe-hygiene")
        .expect("missing-forbid finding");
    assert_eq!((f.path.as_str(), f.line), ("crates/foo/src/lib.rs", 1));
    assert!(f.message.contains("forbid(unsafe_code)"), "{}", f.message);

    let pinned = lint_one("crates/foo/src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n");
    assert!(lines_for(&pinned, "unsafe-hygiene").is_empty());
}

#[test]
fn waivers_suppress_malformed_and_unknown_do_not() {
    let src = include_str!("fixtures/waivers.rs");
    let report = lint_one("crates/fft/src/fft2d.rs", src);
    let status_at = |line: usize| {
        report
            .findings
            .iter()
            .find(|f| f.rule == "no-panic" && f.line == line)
            .map(|f| f.status.clone())
            .unwrap_or_else(|| panic!("no no-panic finding at line {line}"))
    };
    assert!(matches!(status_at(4), Status::Waived(_)), "same-line waiver");
    assert!(matches!(status_at(6), Status::Waived(_)), "standalone waiver applies to next code line");
    assert_eq!(status_at(7), Status::Active, "malformed waiver must not suppress");
    assert_eq!(status_at(8), Status::Active, "unknown-rule waiver must not suppress");
    let syntax = lines_for(&report, "waiver-syntax");
    assert!(syntax.contains(&7) && syntax.contains(&8), "bad waivers are findings: {syntax:?}");
    if let Status::Waived(reason) = status_at(4) {
        assert_eq!(reason, "fixture: checked by caller");
    }
}

#[test]
fn baseline_suppresses_by_content_not_line_number() {
    let src = include_str!("fixtures/no_panic.rs");
    let rel = "crates/fft/src/mixed_radix.rs";
    let sources = vec![SourceFile::scan(rel, src)];
    let first = engine::lint_sources(&sources, &cfg(), REGISTRY, "");
    let active_before = first.counts().0;
    assert!(active_before > 0);

    // A baseline generated from the run suppresses every finding...
    let baseline = engine::render_baseline(&first, &sources);
    let second = lint_one_with_baseline(rel, src, &baseline);
    let (active, _, baselined) = second.counts();
    assert_eq!(active, 0, "baselined run must be clean");
    assert_eq!(baselined, active_before);

    // ...even when the file shifts: prepend comment lines so every line
    // number changes, and the content-matching entries still cover it.
    let shifted = format!("// shim\n// shim\n// shim\n{src}");
    let third = lint_one_with_baseline(rel, &shifted, &baseline);
    assert_eq!(third.counts().0, 0, "baseline matches content, not line numbers");
}

#[test]
fn malformed_baseline_entries_are_findings() {
    let report = lint_one_with_baseline(
        "crates/fft/src/mixed_radix.rs",
        "pub fn ok() {}\n",
        "# comment is fine\nno-panic only-two-fields\n",
    );
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "waiver-syntax")
        .expect("malformed baseline entry must be reported");
    assert_eq!(f.line, 2);
    assert!(f.message.contains("baseline"), "{}", f.message);
}

#[test]
fn json_output_round_trips_through_jsonlite() {
    let src = include_str!("fixtures/waivers.rs");
    let report = lint_one("crates/fft/src/fft2d.rs", src);
    let json = report.render_json();
    let doc = holoar_telemetry::jsonlite::parse(&json).expect("lint JSON must parse");

    let version = doc.get("version").and_then(|v| v.as_f64()).expect("version field");
    assert_eq!(version, 1.0);
    let findings = doc.get("findings").and_then(|v| v.as_array()).expect("findings array");
    assert_eq!(findings.len(), report.findings.len());
    for (j, f) in findings.iter().zip(&report.findings) {
        assert_eq!(j.get("rule").and_then(|v| v.as_str()), Some(f.rule));
        assert_eq!(j.get("path").and_then(|v| v.as_str()), Some(f.path.as_str()));
        assert_eq!(j.get("line").and_then(|v| v.as_f64()), Some(f.line as f64));
        let status = j.get("status").and_then(|v| v.as_str()).expect("status field");
        match &f.status {
            Status::Active => assert_eq!(status, "active"),
            Status::Waived(reason) => {
                assert_eq!(status, "waived");
                assert_eq!(j.get("reason").and_then(|v| v.as_str()), Some(reason.as_str()));
            }
            Status::Baselined => assert_eq!(status, "baselined"),
        }
    }
    let summary = doc.get("summary").expect("summary object");
    let (active, waived, baselined) = report.counts();
    assert_eq!(summary.get("active").and_then(|v| v.as_f64()), Some(active as f64));
    assert_eq!(summary.get("waived").and_then(|v| v.as_f64()), Some(waived as f64));
    assert_eq!(summary.get("baselined").and_then(|v| v.as_f64()), Some(baselined as f64));
}

#[test]
fn the_workspace_itself_is_clean() {
    // The acceptance bar for this tool: the real tree has zero active
    // findings and needs zero baseline entries. Walk up from this crate to
    // the workspace root and lint it for real.
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = holoar_lint::find_workspace_root(here).expect("workspace root");
    let config = Config::new(root);
    let report = engine::lint_workspace(&config).expect("lint run");
    let actives: Vec<String> = report
        .active()
        .map(|f| format!("{}:{} {}: {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(actives.is_empty(), "workspace has active lint findings:\n{}", actives.join("\n"));
    assert_eq!(report.counts().2, 0, "the checked-in baseline must stay empty");
}
