//! The rule engine: one module per rule, a shared trait, and the registry
//! the engine iterates.

use crate::config::Config;
use crate::diag::Finding;
use crate::model::WorkspaceModel;
use crate::source::SourceFile;

pub mod determinism;
pub mod float_determinism;
pub mod hot_loop_alloc;
pub mod lock_order;
pub mod no_panic;
pub mod no_panic_transitive;
pub mod telemetry_discipline;
pub mod thread_discipline;
pub mod unreached;
pub mod unsafe_hygiene;

/// One lint rule. Rules see every scanned file once (pass 1, line-level),
/// then the interprocedural workspace model (pass 2), then get a `finish`
/// call for cross-file checks (name uniqueness, per-crate attributes).
pub trait Rule {
    /// Stable rule id (also the waiver key).
    fn id(&self) -> &'static str;
    /// Per-file pass.
    fn check_file(&mut self, file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>);
    /// Interprocedural pass over the workspace model (call graph, effect
    /// summaries, lock map), after every file has been seen.
    fn check_model(&mut self, _model: &WorkspaceModel, _cfg: &Config, _out: &mut Vec<Finding>) {}
    /// Cross-file pass, after every file has been seen.
    fn finish(&mut self, _cfg: &Config, _out: &mut Vec<Finding>) {}
}

/// The full rule set, in reporting order.
pub fn all(registry_text: &str, registry_rel: &str) -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(no_panic::NoPanic),
        Box::new(no_panic_transitive::NoPanicTransitive::default()),
        Box::new(determinism::Determinism),
        Box::new(float_determinism::FloatDeterminism),
        Box::new(thread_discipline::ThreadDiscipline),
        Box::new(lock_order::LockOrder),
        Box::new(hot_loop_alloc::HotLoopAlloc::default()),
        Box::new(telemetry_discipline::TelemetryDiscipline::new(registry_text, registry_rel)),
        Box::new(unsafe_hygiene::UnsafeHygiene::default()),
        Box::new(unreached::Unreached),
    ]
}

/// The lint configuration file, which declares the designation tables.
pub(crate) const CONFIG_REL: &str = "crates/lint/src/config.rs";

/// One designation table of [`crate::config`], located in the scanned lint
/// configuration: `(line, path, fn name)` per pair.
///
/// A pair naming no function switches its rule off for the function it
/// meant, so each such pair is a finding of that rule. It is reported on
/// the pair's line in the configuration, so only a scan that includes that
/// file (the workspace, not a fixture) checks the table.
#[derive(Default)]
pub(crate) struct Designations(Vec<(usize, &'static str, &'static str)>);

impl Designations {
    /// Records where each pair of the table `const_name` is declared when
    /// `file` is the lint configuration: the line of the first string
    /// literal after the `const` that is the pair's path and is followed
    /// by its name, so a pair wrapped over two lines is still found. A
    /// pair not found is reported on the `const` line itself.
    pub(crate) fn locate(
        &mut self,
        file: &SourceFile,
        const_name: &str,
        table: &'static [(&'static str, &'static str)],
    ) {
        if file.rel != CONFIG_REL {
            return;
        }
        let decl = format!("const {const_name}:");
        let start = file.lines.iter().position(|l| l.code.contains(&decl)).unwrap_or(0);
        let strings: Vec<(usize, &str)> = file
            .numbered()
            .skip(start)
            .flat_map(|(n, l)| l.strings.iter().map(move |s| (n, s.as_str())))
            .collect();
        self.0 = table
            .iter()
            .map(|&(path, name)| {
                let pair = strings.windows(2).find(|w| w[0].1 == path && w[1].1 == name);
                (pair.map_or(start + 1, |w| w[0].0), path, name)
            })
            .collect();
    }

    /// Flags each located pair that matches no non-test function of `model`.
    pub(crate) fn check(
        &self,
        rule: &'static str,
        what: &str,
        model: &WorkspaceModel,
        out: &mut Vec<Finding>,
    ) {
        for &(line, path, name) in &self.0 {
            if model.fns.values().any(|f| !f.in_test && f.path == path && f.name == name) {
                continue;
            }
            out.push(Finding::active(
                rule,
                CONFIG_REL,
                line,
                format!(
                    "designated {what} `{name}` in `{path}` matches no function in the \
                     workspace, so `{rule}` checks nothing for it; point the designation at \
                     the function or drop it"
                ),
            ));
        }
    }
}

/// Whether the byte before `pos` in `code` can end an identifier (used to
/// word-bound token searches).
pub(crate) fn ident_before(code: &str, pos: usize) -> bool {
    code[..pos].chars().last().is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Finds word-bounded occurrences of `token` in `code` (no identifier
/// character on either side).
pub(crate) fn find_token(code: &str, token: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let after_ok = code[at + token.len()..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
        if !ident_before(code, at) && after_ok {
            hits.push(at);
        }
        start = at + token.len();
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FRAME_LOOP_FNS, HOT_ENTRY_POINTS};
    use crate::engine::lint_sources;

    fn dangling(sources: &[SourceFile]) -> Vec<Finding> {
        let cfg = Config::new(std::path::PathBuf::from("/nonexistent"));
        lint_sources(sources, &cfg, "")
            .findings
            .into_iter()
            .filter(|f| f.path == CONFIG_REL && f.message.contains("matches no function"))
            .collect()
    }

    #[test]
    fn designations_naming_no_function_are_findings_on_their_line() {
        let config = SourceFile::scan(CONFIG_REL, include_str!("../config.rs"));
        let found = dangling(std::slice::from_ref(&config));
        assert_eq!(found.len(), HOT_ENTRY_POINTS.len() + FRAME_LOOP_FNS.len(), "{found:?}");
        // `run_batch` is designated in both tables, each on its own line.
        let (path, name) = FRAME_LOOP_FNS[0];
        let decl = config.numbered().find(|(_, l)| l.code.contains("const FRAME_LOOP_FNS:"));
        let line = decl.unwrap().0 + 1;
        assert_eq!(config.lines[line - 1].strings, [path, name]);
        assert!(
            found.iter().any(|f| f.rule == "hot-loop-alloc"
                && f.line == line
                && f.message.contains(&format!("`{name}` in `{path}`"))),
            "{found:?}"
        );
        assert!(found.iter().any(|f| f.rule == "no-panic-transitive"), "{found:?}");

        // Defining the function clears its designations (`run_batch` is
        // both a hot entry and a frame loop); a test function does not.
        let gsw = SourceFile::scan("crates/optics/src/gsw.rs", "pub fn run_batch() {}\n");
        let cleared = dangling(&[config.clone(), gsw]);
        assert_eq!(cleared.len(), found.len() - 2, "{cleared:?}");
        let test_only = SourceFile::scan(
            "crates/optics/src/gsw.rs",
            "#[cfg(test)]\nmod tests {\n    fn run_batch() {}\n}\n",
        );
        assert_eq!(dangling(&[config, test_only]).len(), found.len());

        // A pair wrapped over two lines is reported on its path's line; a
        // pair missing from the text, on its table's `const` line.
        let (path, name) = FRAME_LOOP_FNS[1];
        let text = include_str!("../config.rs");
        let one_line = format!("    (\"{path}\", \"{name}\"),\n");
        assert_eq!(text.matches(&one_line).count(), 1);
        let two_lines = format!("    (\n        \"{path}\",\n        \"{name}\",\n    ),\n");
        let wrapped = SourceFile::scan(CONFIG_REL, &text.replace(&one_line, &two_lines));
        let missing = SourceFile::scan(CONFIG_REL, &text.replace(&one_line, ""));
        let line_of = |file: &SourceFile| {
            let found = dangling(std::slice::from_ref(file));
            let needle = format!("`{name}` in `{path}`");
            found.iter().find(|f| f.message.contains(&needle)).map(|f| f.line)
        };
        let path_line = wrapped.numbered().find(|(_, l)| l.strings == [path]).map(|(n, _)| n);
        assert_eq!(line_of(&wrapped), path_line);
        let decl = missing.numbered().find(|(_, l)| l.code.contains("const FRAME_LOOP_FNS:"));
        assert_eq!(line_of(&missing), decl.map(|(n, _)| n));
    }
}
