//! `unreached`: every shipping function is reachable from a product root.
//!
//! The reproduction's products are its binaries, examples, perfbench and
//! the root package's integration tests. Starting from the
//! [`crate::config::REACH_ROOT_PREFIXES`] files, every `main` under a
//! `src/bin/` directory, and every method of an `impl Trait for Type`
//! block (trait dispatch is invisible to the call graph), the rule walks
//! the model's call edges plus its reach-only `uses` edges and flags each
//! non-test, non-vendored function that no root reaches. Name resolution
//! errs toward "reached": a method call (blocklisted names included, see
//! [`crate::model::METHOD_BLOCKLIST`]) links to every method of that name
//! in the packages the caller can see, and bare function paths passed as
//! values count as edges. Calls inside macro bodies and
//! through function pointers other than bare paths stay invisible, so a
//! finding is a candidate to delete — or, for a test oracle or seam, to
//! waive with a reason naming the test that keeps it.

use std::collections::BTreeSet;

use crate::config::{Config, REACH_ROOT_PREFIXES};
use crate::diag::Finding;
use crate::model::extract::ITEMS;
use crate::model::{FnId, WorkspaceModel};
use crate::source::SourceFile;

use super::Rule;

/// Rule: no shipping function is dead code.
pub struct Unreached;

impl Rule for Unreached {
    fn id(&self) -> &'static str {
        "unreached"
    }

    fn check_file(&mut self, _file: &SourceFile, _cfg: &Config, _out: &mut Vec<Finding>) {}

    fn check_model(&mut self, model: &WorkspaceModel, _cfg: &Config, out: &mut Vec<Finding>) {
        let mut queue: Vec<&FnId> = model
            .fns
            .iter()
            .filter(|(id, facts)| {
                REACH_ROOT_PREFIXES.iter().any(|p| id.path.starts_with(p))
                    || (facts.name == "main" && format!("/{}", id.path).contains("/src/bin/"))
                    || facts.trait_method
                    || facts.name == ITEMS
            })
            .map(|(id, _)| id)
            .collect();
        let mut reached: BTreeSet<&FnId> = queue.iter().copied().collect();
        while let Some(id) = queue.pop() {
            let calls = model.callees(id).iter().map(|c| &c.callee);
            for next in calls.chain(model.uses.get(id).into_iter().flatten()) {
                if reached.insert(next) {
                    queue.push(next);
                }
            }
        }
        for (id, facts) in &model.fns {
            if facts.in_test || id.path.starts_with("vendor/") || reached.contains(id) {
                continue;
            }
            out.push(Finding::active(
                "unreached",
                id.path.clone(),
                id.line,
                format!(
                    "`{}` is reached from no binary, example, perfbench source or root \
                     integration test; delete it (waive only a test oracle or seam, naming \
                     the test)",
                    id.name
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::Config;
    use crate::diag::Status;
    use crate::engine::lint_sources;
    use crate::source::SourceFile;

    fn unreached(files: &[(&str, &str)]) -> Vec<(String, usize, bool)> {
        let sources: Vec<SourceFile> =
            files.iter().map(|(rel, src)| SourceFile::scan(rel, src)).collect();
        let cfg = Config::new(std::path::PathBuf::from("/nonexistent"));
        lint_sources(&sources, &cfg, "")
            .findings
            .into_iter()
            .filter(|f| f.rule == "unreached")
            .map(|f| (f.path, f.line, f.status == Status::Active))
            .collect()
    }

    #[test]
    fn flags_only_what_no_root_reaches() {
        let lib = "crates/a/src/lib.rs";
        let found = unreached(&[
            ("crates/a/src/bin/tool.rs", "fn main() { holoar_a::used(); }\n"),
            ("examples/demo.rs", "fn main() { let v = parts.map(holoar_a::by_value); }\n"),
            ("tests/it.rs", "#[test]\nfn t() { x.len(); }\n"),
            // No root names holoar_b, so its `len` stays unreached.
            ("crates/b/src/lib.rs", "impl Other {\n\x20   pub fn len(&self) -> usize { 1 }\n}\n"),
            (
                lib,
                "pub fn used() { helper(); }\n\
                 fn helper() {}\n\
                 pub fn by_value(x: u32) -> u32 { x }\n\
                 pub fn dead() { also_dead(); }\n\
                 fn also_dead() {}\n\
                 impl Queue {\n\
                 \x20   pub fn len(&self) -> usize { 0 }\n\
                 }\n\
                 impl Default for Queue {\n\
                 \x20   fn default() -> Self { fresh() }\n\
                 }\n\
                 fn fresh() -> Queue { Queue }\n\
                 #[cfg(test)]\n\
                 mod tests { fn only_test() { dead(); } }\n",
            ),
            ("vendor/shim/src/lib.rs", "pub fn vendored() {}\n"),
        ]);
        // `len` is reached through the blocklisted `.len()` call in
        // tests/it.rs, `default` is a trait method, and test and vendored
        // code is never flagged.
        let b = "crates/b/src/lib.rs".to_string();
        assert_eq!(found, vec![(lib.to_string(), 4, true), (lib.to_string(), 5, true), (b, 2, true)]);
    }

    #[test]
    fn a_waiver_keeps_a_test_seam() {
        let found = unreached(&[(
            "crates/a/src/lib.rs",
            "// holoar-lint: allow(unreached, reason = \"seam for the a::tests worker sweep\")\n\
             pub fn seam() {}\n",
        )]);
        assert_eq!(found, vec![("crates/a/src/lib.rs".to_string(), 2, false)]);
    }
}
