//! `thread-discipline`: all fan-out goes through the `Parallelism` pool.
//!
//! Raw `std::thread::spawn`/`scope` outside `holoar-fft`'s pool bypasses
//! the `HOLOAR_THREADS` override and the
//! deterministic chunking that keeps parallel results bit-identical to
//! serial. Only [`crate::config::PARALLELISM_HOME`] may touch std threads;
//! test code is exempt (tests legitimately spawn to probe thread-safety).

use crate::config::{Config, PARALLELISM_HOME};
use crate::diag::Finding;
use crate::source::SourceFile;

use super::Rule;

/// Rule: all fan-out goes through `holoar_fft::Parallelism` — no ad-hoc
/// `std::thread::spawn` in library code.
pub struct ThreadDiscipline;

const PATTERNS: &[&str] = &["thread::spawn(", "thread::scope(", "thread::Builder"];

impl Rule for ThreadDiscipline {
    fn id(&self) -> &'static str {
        "thread-discipline"
    }

    fn check_file(&mut self, file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
        if file.rel == PARALLELISM_HOME || file.rel.starts_with("vendor/") || cfg.is_rule_exempt(&file.rel) {
            return;
        }
        for (line_no, line) in file.numbered() {
            if line.in_test {
                continue;
            }
            for pat in PATTERNS {
                if line.code.contains(pat) {
                    out.push(Finding::active(
                        "thread-discipline",
                        file.rel.clone(),
                        line_no,
                        format!(
                            "raw `{}` outside the Parallelism pool; use \
                             `holoar_fft::Parallelism` so worker count, scratch reuse, and \
                             deterministic chunking stay centralized",
                            pat.trim_end_matches('(')
                        ),
                    ));
                }
            }
        }
    }
}
