//! `float-determinism`: transcendental math lives in plan-time modules.
//!
//! Bit-identical output across worker counts and replays depends on
//! every `sin`/`cos`/`exp`/`powf` evaluation happening at plan time —
//! twiddle tables, transfer-function caches, lens construction — where
//! results are computed once and reused bit-identically. A transcendental call on a
//! per-frame path can differ across libm versions and optimization
//! levels, silently breaking replay equality. Outside the modules listed
//! in [`crate::config::PLAN_TIME_PREFIXES`], any transcendental call
//! site flags.
//!
//! Patterns are exact no-argument forms (`.exp()`, not `.exp(`) so
//! `.expect(...)` can never collide; `.powf(`/`.atan2(` take arguments
//! and keep the open paren.

use crate::config::Config;
use crate::diag::Finding;
use crate::model::WorkspaceModel;
use crate::source::SourceFile;

use super::Rule;

#[derive(Default)]
/// Rule: float comparisons in simulator code go through `total_cmp` (or
/// an epsilon helper), never bare `partial_cmp`/`sort_by` on raw floats.
pub struct FloatDeterminism;

impl Rule for FloatDeterminism {
    fn id(&self) -> &'static str {
        "float-determinism"
    }

    fn check_file(&mut self, _file: &SourceFile, _cfg: &Config, _out: &mut Vec<Finding>) {}

    fn check_model(&mut self, model: &WorkspaceModel, cfg: &Config, out: &mut Vec<Finding>) {
        for (id, facts) in &model.fns {
            if facts.in_test || cfg.is_plan_time(&id.path) || cfg.is_rule_exempt(&id.path) {
                continue;
            }
            for site in &facts.transcendental_sites {
                out.push(Finding::active(
                    "float-determinism",
                    id.path.clone(),
                    site.line,
                    format!(
                        "transcendental `{}` in `{}` outside the plan-time modules; move it \
                         into a plan-time table (config::PLAN_TIME_PREFIXES) or waive with \
                         the reason it cannot be precomputed",
                        site.what, id.name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint_sources;

    fn findings_for(rel: &str, src: &str) -> Vec<Finding> {
        let sources = vec![SourceFile::scan(rel, src)];
        let cfg = Config::new(std::path::PathBuf::from("/nonexistent"));
        lint_sources(&sources, &cfg, "", "")
            .findings
            .into_iter()
            .filter(|f| f.rule == "float-determinism")
            .collect()
    }

    #[test]
    fn transcendental_outside_plan_time_flags() {
        let found = findings_for(
            "crates/a/src/frame.rs",
            "fn shade(x: f64) -> f64 {\n\
             \x20   let s = x.sin();\n\
             \x20   s * x.powf(2.2)\n\
             }\n",
        );
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].message.contains(".sin"), "{found:?}");
    }

    #[test]
    fn plan_time_module_is_allowed() {
        let found = findings_for(
            "crates/fft/src/plan.rs",
            "fn twiddles(n: usize) -> Vec<f64> {\n\
             \x20   (0..n).map(|k| (k as f64).sin()).collect()\n\
             }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn expect_does_not_collide_with_exp() {
        let found = findings_for(
            "crates/a/src/frame.rs",
            "fn f(v: Option<u32>) -> u32 { v.expect(\"present\") }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }
}
