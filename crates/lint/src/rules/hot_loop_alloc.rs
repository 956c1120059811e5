//! `hot-loop-alloc`: designated per-frame loops run on pre-sized buffers.
//!
//! The functions in [`crate::config::FRAME_LOOP_FNS`] (or marked
//! `// holoar-lint: frame-loop`) contain the loops that run once per
//! frame or per GSW iteration; an allocation per trip turns the frame
//! budget into allocator noise. Inside any loop body of those functions
//! this rule forbids:
//!
//! - fresh containers and strings: `Vec::new`, `vec![`, `Box::new`,
//!   `String::new`/`from`, `format!`, `.to_string()`, `.to_owned()`,
//!   `.to_vec()`, `.collect(`, `.clone()`;
//! - `.push(...)` onto a buffer with no pre-sizing evidence in the file
//!   (`with_capacity`, `.reserve(`, or `.resize(` naming the same
//!   identifier) — a pre-sized `Vec` may push, an organically growing
//!   one may not.
//!
//! Only the function's own body is checked; allocation inside callees is
//! visible in the `--graph-out` effect summaries but not flagged here
//! (pushing `allocates` transitively would indict every helper that
//! returns a `Vec` — the frame loop's job is to *hold onto* those).

use crate::config::Config;
use crate::diag::Finding;
use crate::model::WorkspaceModel;
use crate::source::SourceFile;

use super::Rule;

#[derive(Default)]
/// Rule: designated frame-loop functions allocate nothing per iteration
/// (no `Vec::new`/`to_vec`/`clone`/`format!` inside the loop body).
pub struct HotLoopAlloc;

impl Rule for HotLoopAlloc {
    fn id(&self) -> &'static str {
        "hot-loop-alloc"
    }

    fn check_file(&mut self, _file: &SourceFile, _cfg: &Config, _out: &mut Vec<Finding>) {}

    fn check_model(&mut self, model: &WorkspaceModel, cfg: &Config, out: &mut Vec<Finding>) {
        let empty: Vec<String> = Vec::new();
        for id in model.frame_loop_fns() {
            if cfg.is_rule_exempt(&id.path) {
                continue;
            }
            let facts = model.facts(&id);
            for site in facts.alloc_sites.iter().filter(|s| s.in_loop) {
                out.push(Finding::active(
                    "hot-loop-alloc",
                    id.path.clone(),
                    site.line,
                    format!(
                        "`{}` allocates inside the per-frame loop of `{}`; hoist the buffer \
                         out of the loop and pre-size it",
                        site.what, id.name
                    ),
                ));
            }
            let presized = model.presized.get(&id.path).unwrap_or(&empty);
            for push in facts.pushes.iter().filter(|p| p.in_loop) {
                if presized.contains(&push.receiver) {
                    continue;
                }
                out.push(Finding::active(
                    "hot-loop-alloc",
                    id.path.clone(),
                    push.line,
                    format!(
                        "`{}.push(...)` in the per-frame loop of `{}` with no \
                         `with_capacity`/`reserve` evidence for `{}` in this file; growing \
                         a buffer per frame reallocates mid-frame",
                        push.receiver, id.name, push.receiver
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

    fn findings_for(src: &str) -> Vec<Finding> {
        let sources = vec![SourceFile::scan("crates/a/src/frame.rs", src)];
        let cfg = Config::new(std::path::PathBuf::from("/nonexistent"));
        lint_sources(&sources, &cfg, "")
            .findings
            .into_iter()
            .filter(|f| f.rule == "hot-loop-alloc")
            .collect()
    }

    #[test]
    fn allocations_in_frame_loop_flag() {
        let found = findings_for(
            "// holoar-lint: frame-loop\n\
             fn per_frame(frames: &[u32]) {\n\
             \x20   for f in frames {\n\
             \x20       let mut scratch = Vec::new();\n\
             \x20       let label = format!(\"frame\");\n\
             \x20       scratch.push(f);\n\
             \x20   }\n\
             }\n",
        );
        assert!(found.iter().any(|f| f.line == 4 && f.message.contains("Vec::new")), "{found:?}");
        assert!(found.iter().any(|f| f.line == 5 && f.message.contains("format!")), "{found:?}");
        assert!(found.iter().any(|f| f.line == 6 && f.message.contains("scratch.push")), "{found:?}");
    }

    #[test]
    fn presized_push_and_outside_loop_are_clean() {
        let found = findings_for(
            "// holoar-lint: frame-loop\n\
             fn per_frame(frames: &[u32]) {\n\
             \x20   let mut out = Vec::with_capacity(frames.len());\n\
             \x20   for f in frames {\n\
             \x20       out.push(*f);\n\
             \x20   }\n\
             }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn undesignated_fn_is_not_checked() {
        let found = findings_for(
            "fn cold(frames: &[u32]) {\n\
             \x20   for f in frames {\n\
             \x20       let mut scratch = Vec::new();\n\
             \x20       scratch.push(f);\n\
             \x20   }\n\
             }\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }
}
