//! `no-panic-transitive`: the whole call closure of designated hot-path
//! entry points must be panic-free.
//!
//! The per-line `no-panic` rule covers the files in
//! [`crate::config::HOT_PATHS`]; this rule covers everything those files
//! *call*. Every function reachable (through the heuristic call graph)
//! from an entry in [`crate::config::HOT_ENTRY_POINTS`] — or from a fn
//! marked `// holoar-lint: hot-entry` — is checked for intrinsic panic
//! sites, and each finding carries the full call chain from the entry to
//! the offending function so the reader can see *why* a helper three
//! crates away is on the hot path.
//!
//! A `HOT_ENTRY_POINTS` pair that matches no function is itself a finding
//! on its line of the lint configuration.
//!
//! Sites inside `HOT_PATHS` files are skipped here (the direct rule owns
//! them); rule-exempt paths (telemetry instrumentation, vendored shims)
//! stop traversal entirely.

use std::collections::BTreeSet;

use crate::config::{Config, HOT_ENTRY_POINTS};
use crate::diag::Finding;
use crate::model::WorkspaceModel;
use crate::source::SourceFile;

use super::{Designations, Rule};

#[derive(Default)]
/// Rule: hot entry points stay panic-free *transitively* — the call
/// graph from each entry is walked and every reachable function checked.
pub struct NoPanicTransitive {
    designations: Designations,
}

impl Rule for NoPanicTransitive {
    fn id(&self) -> &'static str {
        "no-panic-transitive"
    }

    fn check_file(&mut self, file: &SourceFile, _cfg: &Config, _out: &mut Vec<Finding>) {
        self.designations.locate(file, "HOT_ENTRY_POINTS", HOT_ENTRY_POINTS);
    }

    fn check_model(&mut self, model: &WorkspaceModel, cfg: &Config, out: &mut Vec<Finding>) {
        self.designations.check(self.id(), "hot entry", model, out);
        // One finding per (file, line, pattern); the lexicographically
        // first entry point that reaches a site claims it.
        let mut reported: BTreeSet<(String, usize, String)> = BTreeSet::new();
        for entry in model.entries() {
            let parents = model.reach(&entry, cfg);
            for id in parents.keys() {
                if cfg.is_hot_path(&id.path) || cfg.is_rule_exempt(&id.path) {
                    continue;
                }
                let facts = model.facts(id);
                for site in &facts.panic_sites {
                    if !reported.insert((id.path.clone(), site.line, site.what.clone())) {
                        continue;
                    }
                    let chain = WorkspaceModel::chain(&parents, id);
                    out.push(
                        Finding::active(
                            "no-panic-transitive",
                            id.path.clone(),
                            site.line,
                            format!(
                                "{} in `{}`, reachable from hot entry `{}` ({} call{}); \
                                 the hot path's transitive closure must be panic-free",
                                site.what,
                                id.name,
                                entry.display(),
                                chain.len() - 1,
                                if chain.len() == 2 { "" } else { "s" },
                            ),
                        )
                        .with_chain(chain),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint_sources;

    const REGISTRY: &str = "";

    #[test]
    fn chain_crosses_crates_and_prints_in_diagnostic() {
        let sources = vec![
            SourceFile::scan(
                "crates/a/src/hot.rs",
                "// holoar-lint: hot-entry\n\
                 pub fn entry() { holoar_b::helper(3); }\n",
            ),
            SourceFile::scan(
                "crates/b/src/helpers.rs",
                "pub fn helper(x: u32) { inner(Some(x)); }\n\
                 fn inner(x: Option<u32>) { let _ = x.unwrap(); }\n",
            ),
        ];
        let cfg = Config::new(std::path::PathBuf::from("/nonexistent"));
        let report = lint_sources(&sources, &cfg, REGISTRY);
        let f = report
            .findings
            .iter()
            .find(|f| f.rule == "no-panic-transitive")
            .expect("transitive finding");
        assert_eq!(f.path, "crates/b/src/helpers.rs");
        assert_eq!(f.line, 2);
        assert_eq!(
            f.chain,
            vec![
                "crates/a/src/hot.rs::entry",
                "crates/b/src/helpers.rs::helper",
                "crates/b/src/helpers.rs::inner",
            ]
        );
        let human = report.render_human(false);
        assert!(
            human.contains(
                "call chain: crates/a/src/hot.rs::entry -> crates/b/src/helpers.rs::helper \
                 -> crates/b/src/helpers.rs::inner"
            ),
            "{human}"
        );
    }

    #[test]
    fn waiver_on_the_panic_site_suppresses() {
        let sources = vec![SourceFile::scan(
            "crates/a/src/hot.rs",
            "// holoar-lint: hot-entry\n\
             pub fn entry() { helper(None); }\n\
             fn helper(v: Option<u32>) {\n\
             \x20   // holoar-lint: allow(no-panic-transitive, reason = \"init-time only\")\n\
             \x20   let _ = v.unwrap();\n\
             }\n",
        )];
        let cfg = Config::new(std::path::PathBuf::from("/nonexistent"));
        let report = lint_sources(&sources, &cfg, REGISTRY);
        let transitive: Vec<_> =
            report.findings.iter().filter(|f| f.rule == "no-panic-transitive").collect();
        assert!(
            transitive.len() == 1 && transitive[0].status != crate::diag::Status::Active,
            "{:?}",
            report.findings
        );
    }
}
