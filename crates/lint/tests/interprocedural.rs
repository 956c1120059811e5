//! End-to-end tests for the two-pass interprocedural analysis: each new
//! rule family fires on a known-bad fixture, the transitive diagnostic
//! prints its full call chain, and the workspace model plus the report are
//! bit-identical no matter what order the files arrive in.
//!
//! The fixtures under `tests/fixtures/` are data, not code — the engine's
//! workspace walker skips `fixtures` directories, so the deliberate
//! violations in them never fail the real lint gate.

use holoar_lint::{engine, model, Config, Report, SourceFile};
use proptest::prelude::*;

fn cfg() -> Config {
    Config::new(std::path::PathBuf::from("/nonexistent"))
}

/// The interprocedural fixture set: (workspace-relative path, source).
fn fixture_pairs() -> Vec<(&'static str, &'static str)> {
    vec![
        ("crates/a/src/hot.rs", include_str!("fixtures/interp_hot.rs")),
        ("crates/b/src/helpers.rs", include_str!("fixtures/interp_helpers.rs")),
        ("crates/a/src/locks.rs", include_str!("fixtures/lock_order.rs")),
        ("crates/a/src/frame.rs", include_str!("fixtures/hot_loop_alloc.rs")),
        ("crates/a/src/shade.rs", include_str!("fixtures/float_determinism.rs")),
    ]
}

fn lint(pairs: &[(&str, &str)]) -> Report {
    let sources: Vec<SourceFile> =
        pairs.iter().map(|(rel, src)| SourceFile::scan(rel, src)).collect();
    engine::lint_sources(&sources, &cfg(), "")
}

fn lines_for(report: &Report, rule: &str) -> Vec<usize> {
    report.findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

#[test]
fn transitive_no_panic_crosses_files_and_prints_the_chain() {
    let report = lint(&fixture_pairs());
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "no-panic-transitive")
        .expect("transitive finding");
    // The finding anchors at the panic site, two calls and one crate away
    // from the marker-designated entry.
    assert_eq!((f.path.as_str(), f.line), ("crates/b/src/helpers.rs", 9));
    assert_eq!(
        f.chain,
        vec![
            "crates/a/src/hot.rs::render_frame",
            "crates/b/src/helpers.rs::peak_amplitude",
            "crates/b/src/helpers.rs::fold_peak",
        ]
    );
    let human = report.render_human(false);
    assert!(
        human.contains(
            "call chain: crates/a/src/hot.rs::render_frame -> \
             crates/b/src/helpers.rs::peak_amplitude -> \
             crates/b/src/helpers.rs::fold_peak"
        ),
        "{human}"
    );
}

#[test]
fn lock_order_cycle_fires_on_the_ab_ba_fixture() {
    let report = lint(&fixture_pairs());
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "lock-order" && f.message.contains("cycle"))
        .expect("lock-order cycle finding");
    assert_eq!(f.path, "crates/a/src/locks.rs");
    assert!(
        f.message.contains("crates/a/jobs") && f.message.contains("crates/a/stats"),
        "{}",
        f.message
    );
}

#[test]
fn hot_loop_alloc_flags_unsized_allocations_only() {
    let report = lint(&fixture_pairs());
    let lines = lines_for(&report, "hot-loop-alloc");
    // Vec::new, push without pre-sizing, format! — all inside the loop.
    for expected in [8, 9, 10] {
        assert!(lines.contains(&expected), "hot-loop-alloc missing line {expected}: {lines:?}");
    }
    // The pre-sized `peaks.push` is allowed.
    assert!(!lines.contains(&13), "pre-sized push wrongly flagged: {lines:?}");
}

#[test]
fn float_determinism_respects_plan_time_modules() {
    let report = lint(&fixture_pairs());
    let lines: Vec<usize> = report
        .findings
        .iter()
        .filter(|f| f.rule == "float-determinism" && f.path == "crates/a/src/shade.rs")
        .map(|f| f.line)
        .collect();
    assert!(lines.contains(&5) && lines.contains(&6), "sin/powf not flagged: {lines:?}");

    // The same source under a plan-time path is clean.
    let plan_time = lint(&[("crates/sensors/src/shade.rs", include_str!("fixtures/float_determinism.rs"))]);
    assert!(
        lines_for(&plan_time, "float-determinism").is_empty(),
        "plan-time module wrongly flagged"
    );
}

/// Decodes `seed` into the `seed`-th permutation of `0..n` (Lehmer code).
fn permutation(mut seed: usize, n: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    for k in (1..=n).rev() {
        out.push(pool.remove(seed % k));
        seed /= k;
    }
    out
}

proptest! {
    /// The workspace model dump and the full report are byte-identical
    /// regardless of the order files are handed to the analyzer.
    #[test]
    fn model_and_report_are_bit_identical_under_shuffled_orderings(seed in 0usize..120) {
        let pairs = fixture_pairs();
        let sources: Vec<SourceFile> =
            pairs.iter().map(|(rel, src)| SourceFile::scan(rel, src)).collect();
        let baseline_model = model::build(&sources, &cfg()).to_json().render_pretty();
        let baseline_report = engine::lint_sources(&sources, &cfg(), "").render_json();

        let shuffled: Vec<SourceFile> =
            permutation(seed, sources.len()).into_iter().map(|i| sources[i].clone()).collect();
        let shuffled_model = model::build(&shuffled, &cfg()).to_json().render_pretty();
        let shuffled_report = engine::lint_sources(&shuffled, &cfg(), "").render_json();

        prop_assert_eq!(baseline_model, shuffled_model);
        prop_assert_eq!(baseline_report, shuffled_report);
    }
}
