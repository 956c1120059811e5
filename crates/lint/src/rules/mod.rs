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
        Box::new(no_panic_transitive::NoPanicTransitive),
        Box::new(determinism::Determinism),
        Box::new(float_determinism::FloatDeterminism),
        Box::new(thread_discipline::ThreadDiscipline),
        Box::new(lock_order::LockOrder),
        Box::new(hot_loop_alloc::HotLoopAlloc),
        Box::new(telemetry_discipline::TelemetryDiscipline::new(registry_text, registry_rel)),
        Box::new(unsafe_hygiene::UnsafeHygiene::default()),
        Box::new(unreached::Unreached),
    ]
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
