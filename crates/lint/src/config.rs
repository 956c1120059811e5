//! Lint configuration: which modules are hot paths, where the determinism
//! and concurrency rules apply, and which telemetry categories exist.
//!
//! The sets below are checked-in policy, not discovery: adding a module to
//! a hot set is a deliberate, reviewable act (see DESIGN.md, "Static
//! analysis").

use std::path::PathBuf;

/// Real-time hot-path modules: the no-panic rule applies to every non-test
/// line of these files. Paths are workspace-relative.
pub const HOT_PATHS: &[&str] = &[
    "crates/fft/src/bluestein.rs",
    "crates/fft/src/mixed_radix.rs",
    "crates/fft/src/fft2d.rs",
    "crates/fft/src/parallel.rs",
    "crates/fft/src/plan.rs",
    "crates/optics/src/gsw.rs",
    "crates/optics/src/propagate.rs",
    "crates/gpusim/src/sm.rs",
];

/// The one module allowed to call `std::thread::{spawn, scope}`: the
/// `Parallelism` worker pool every other crate must go through.
pub const PARALLELISM_HOME: &str = "crates/fft/src/parallel.rs";

/// Path prefixes exempt from the determinism and telemetry-discipline
/// rules: the telemetry crate owns the clock, the vendored shims are
/// outside workspace policy, and this crate's own tests embed violation
/// snippets on purpose.
pub const RULE_EXEMPT_PREFIXES: &[&str] = &["crates/telemetry/", "vendor/", "crates/lint/"];

/// Designated hot-path *entry points* for the interprocedural rules: the
/// per-frame compute entries whose whole transitive call closure (through
/// any number of crates) must be panic-free. Pairs are
/// `(workspace-relative file, fn name)`; a pair that matches no function
/// is a `no-panic-transitive` finding. Functions can also be designated
/// in-source with a `// holoar-lint: hot-entry` marker comment.
pub const HOT_ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/fft/src/fft2d.rs", "forward"),
    ("crates/fft/src/fft2d.rs", "inverse"),
    ("crates/optics/src/gsw.rs", "run"),
    ("crates/optics/src/gsw.rs", "run_batch"),
    ("crates/optics/src/propagate.rs", "propagate_sum"),
    ("crates/gpusim/src/sm.rs", "block_cost"),
    ("crates/pipeline/src/executor.rs", "run_staged_trace"),
    ("crates/serve/src/engine.rs", "run_serve"),
];

/// Designated per-frame loop functions for the `hot-loop-alloc` rule: the
/// loops inside these functions run once per frame (or per GSW iteration)
/// and must work on pre-sized buffers — no fresh allocation per trip. A
/// pair that matches no function is a `hot-loop-alloc` finding.
/// Functions can also be designated in-source with a
/// `// holoar-lint: frame-loop` marker comment.
pub const FRAME_LOOP_FNS: &[(&str, &str)] = &[
    ("crates/optics/src/gsw.rs", "run_batch"),
    ("crates/pipeline/src/executor.rs", "simulate_staged"),
    ("crates/gpusim/src/hologram_kernels.rs", "batch"),
];

/// Modules allowed to call transcendental math (`sin`/`cos`/`exp`/`powf`):
/// plan-time table builders and seeded noise generators, where results are
/// computed once and reused, so output stays bit-identical across worker
/// counts and replays. Everything else flags under `float-determinism`.
/// Prefix match on the workspace-relative path.
pub const PLAN_TIME_PREFIXES: &[&str] = &[
    "crates/fft/src/complex.rs",   // cis/from_polar/exp primitives (plan-time twiddles)
    "crates/fft/src/plan.rs",      // twiddle-table construction
    "crates/fft/src/dft.rs",       // reference DFT (plan-time Bluestein kernels)
    "crates/optics/src/propagate.rs", // transfer-function cache build
    "crates/optics/src/scene.rs",  // synthetic scene/content generation (same class as sensors)
    "crates/sensors/",             // seeded noise generation (Box–Muller)
    "crates/bench/",               // experiment drivers, synthetic inputs
];

/// Valid leading segments for telemetry span/counter names (`category.name`
/// convention; `gpu` is the synthetic simulated-GPU track).
pub const CATEGORIES: &[&str] = &[
    "fft", "optics", "core", "pipeline", "gpusim", "gpu", "bench", "telemetry", "faults", "serve",
    "fleet", "slo", "profile",
];

/// Every rule id the engine knows; waivers naming anything else are
/// diagnosed as malformed.
pub const RULE_IDS: &[&str] = &[
    "no-panic",
    "no-panic-transitive",
    "determinism",
    "float-determinism",
    "thread-discipline",
    "lock-order",
    "hot-loop-alloc",
    "telemetry-discipline",
    "unsafe-hygiene",
    "unreached",
];

/// Workspace-relative path prefixes whose every function is a root of the
/// `unreached` rule: the examples, the repo benchmark, and the root
/// package's integration tests. Each `main` under a `src/bin/` directory
/// and each method of an `impl Trait for Type` block is a root too.
pub const REACH_ROOT_PREFIXES: &[&str] = &["examples/", "perfbench/src/", "tests/"];

/// Resolved lint configuration for one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (directory holding the `[workspace]` Cargo.toml).
    pub root: PathBuf,
    /// Telemetry name registry, workspace-relative.
    pub registry_rel: String,
}

impl Config {
    /// The default configuration rooted at `root`.
    pub fn new(root: PathBuf) -> Config {
        Config { root, registry_rel: "crates/lint/telemetry.names".to_string() }
    }

    /// Whether `rel` is a designated hot-path module.
    pub fn is_hot_path(&self, rel: &str) -> bool {
        HOT_PATHS.contains(&rel)
    }

    /// Whether `rel` is exempt from the determinism / telemetry rules.
    pub fn is_rule_exempt(&self, rel: &str) -> bool {
        RULE_EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p))
    }

    /// Whether `(rel, name)` is a designated interprocedural hot entry.
    pub fn is_hot_entry(&self, rel: &str, name: &str) -> bool {
        HOT_ENTRY_POINTS.iter().any(|&(p, n)| p == rel && n == name)
    }

    /// Whether `(rel, name)` is a designated per-frame loop function.
    pub fn is_frame_loop_fn(&self, rel: &str, name: &str) -> bool {
        FRAME_LOOP_FNS.iter().any(|&(p, n)| p == rel && n == name)
    }

    /// Whether `rel` is a plan-time module (transcendentals allowed).
    pub fn is_plan_time(&self, rel: &str) -> bool {
        PLAN_TIME_PREFIXES.iter().any(|p| rel.starts_with(p))
    }
}

/// Finds the workspace root by walking up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table appears.
pub fn find_workspace_root(start: &std::path::Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
