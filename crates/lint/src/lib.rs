//! `holoar-lint` — workspace static analysis for the HoloAR reproduction.
//!
//! A pure-std lexer/line-scanner plus a rule engine that walks every
//! workspace `.rs` file and enforces the domain invariants the compiler
//! cannot check (and the paper's headline numbers rest on):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-panic` | designated FFT/optics/gpusim hot paths are panic-free |
//! | `determinism` | simulator/kernel code reads one clock, iterates no hash maps |
//! | `thread-discipline` | all fan-out goes through `holoar_fft::Parallelism` |
//! | `telemetry-discipline` | span/counter names unique, registered, `category.name` |
//! | `unsafe-hygiene` | `unsafe` justified with `// SAFETY:`; clean crates forbid it |
//!
//! Interprocedural rules run over the workspace call graph
//! ([`model`]): transitive no-panic, lock ordering, per-frame allocation,
//! transcendental math outside plan time, and `unreached` — every shipping
//! function must be reachable from a `main` under `src/bin/`, `examples/`,
//! `perfbench/src/`, the root package's `tests/`, or a trait method.
//!
//! A finding is suppressed only by an inline waiver with a reason —
//! `// holoar-lint: allow(rule, reason = "...")`. Run it as `repro lint` or
//! `cargo run -p holoar-lint`; `--format json` emits machine-readable
//! diagnostics for CI. See DESIGN.md, "Static analysis".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod engine;
pub mod model;
pub mod rules;
pub mod source;
pub mod waiver;

pub use config::{find_workspace_root, Config};
pub use diag::{Finding, Report, Status};
pub use engine::{lint_sources, lint_workspace};
pub use source::SourceFile;

/// Command-line entry point shared by the `holoar-lint` binary and the
/// `repro lint` subcommand. Returns the process exit code: 0 when no
/// active findings, 1 when the lint gate fails, 2 on usage/setup errors.
pub fn cli(args: &[String]) -> i32 {
    let mut format_json = false;
    let mut verbose = false;
    let mut out_path: Option<String> = None;
    let mut graph_out: Option<String> = None;
    let mut root_arg: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format_json = true,
                Some("human") => format_json = false,
                other => {
                    eprintln!("--format wants `human` or `json`, got {other:?}");
                    return 2;
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("--out requires a file path");
                    return 2;
                }
            },
            "--graph-out" => match it.next() {
                Some(p) => graph_out = Some(p.clone()),
                None => {
                    eprintln!("--graph-out requires a file path");
                    return 2;
                }
            },
            "--root" => match it.next() {
                Some(p) => root_arg = Some(p.clone()),
                None => {
                    eprintln!("--root requires a directory");
                    return 2;
                }
            },
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: repro lint [--format human|json] [--out FILE] [--graph-out FILE] \
                     [--root DIR] [--verbose]\n\
                     Enforces hot-path no-panic (per-line and transitive through the call\n\
                     graph), determinism (wall clocks, hash iteration, transcendental math\n\
                     outside plan time), lock ordering, per-frame allocation, thread,\n\
                     telemetry-naming, and unsafe-hygiene invariants across the workspace,\n\
                     and flags functions no binary, example, perfbench source or root\n\
                     integration test reaches (unreached).\n\
                     Exit 1 on any active (non-waived) finding. Waive inline\n\
                     with `// holoar-lint: allow(rule, reason = \"...\")`.\n\
                     --graph-out dumps the interprocedural model (call graph + effect\n\
                     summaries + lock-order edges) as JSON."
                );
                return 0;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }

    let root = match root_arg {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cannot determine working directory: {e}");
                    return 2;
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("no workspace Cargo.toml found above {}", cwd.display());
                    return 2;
                }
            }
        }
    };

    let cfg = Config::new(root);
    if let Some(p) = &graph_out {
        match engine::dump_model(&cfg) {
            Ok(json) => {
                if let Err(e) = std::fs::write(p, &json) {
                    eprintln!("cannot write {p}: {e}");
                    return 2;
                }
                eprintln!("wrote workspace model to {p}");
            }
            Err(e) => {
                eprintln!("holoar-lint: {e}");
                return 2;
            }
        }
    }
    let report = match engine::lint_workspace(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("holoar-lint: {e}");
            return 2;
        }
    };

    let rendered =
        if format_json { report.render_json() } else { report.render_human(verbose) };
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, &rendered) {
                eprintln!("cannot write {p}: {e}");
                return 2;
            }
            // Keep the human summary on stderr so CI logs stay readable.
            eprint!("{}", report.render_human(false));
        }
        None => print!("{rendered}"),
    }
    if report.active().next().is_some() {
        1
    } else {
        0
    }
}
