//! Walks the workspace, runs every rule, and resolves inline waivers into
//! a [`Report`].

use std::path::Path;

use crate::config::Config;
use crate::diag::{Finding, Report, Status};
use crate::source::SourceFile;
use crate::{model, rules, waiver};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", ".github"];

/// Scans every workspace `.rs` file under `root` (skipping `target`,
/// `.git`, `fixtures` and `.github` directories).
pub fn scan_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut sources = Vec::new();
    collect_rs_files(root, root, &mut sources)?;
    sources.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(sources)
}

/// Lints the workspace rooted at `cfg.root`, reading sources and the name
/// registry from disk.
pub fn lint_workspace(cfg: &Config) -> Result<Report, String> {
    let sources = scan_workspace(&cfg.root)?;
    let registry_text = std::fs::read_to_string(cfg.root.join(&cfg.registry_rel))
        .map_err(|e| format!("cannot read {}: {e}", cfg.registry_rel))?;
    Ok(lint_sources(&sources, cfg, &registry_text))
}

/// Lints pre-scanned sources (the in-memory entry point the fixture tests
/// use). `registry_text` is the name registry's file contents.
pub fn lint_sources(sources: &[SourceFile], cfg: &Config, registry_text: &str) -> Report {
    let mut findings: Vec<Finding> = Vec::new();
    let mut waivers: Vec<(String, waiver::Waiver)> = Vec::new(); // (path, waiver)
    let mut rules = rules::all(registry_text, &cfg.registry_rel);

    for file in sources {
        // The lint crate's own sources document waiver syntax in prose;
        // don't parse those examples as directives.
        if !file.rel.starts_with("crates/lint/") {
            for w in waiver::collect(file, &mut findings) {
                waivers.push((file.rel.clone(), w));
            }
        }
        for rule in rules.iter_mut() {
            rule.check_file(file, cfg, &mut findings);
        }
    }
    // Pass 2: the interprocedural rules run over the workspace model.
    let workspace_model = model::build(sources, cfg);
    for rule in rules.iter_mut() {
        rule.check_model(&workspace_model, cfg, &mut findings);
    }
    for rule in rules.iter_mut() {
        rule.finish(cfg, &mut findings);
    }

    // Resolve each finding against the inline waivers.
    let mut used_waivers: Vec<bool> = vec![false; waivers.len()];
    for f in findings.iter_mut() {
        if f.rule == "waiver-syntax" {
            continue; // meta-findings are never suppressible
        }
        if let Some(i) = waivers
            .iter()
            .position(|(path, w)| *path == f.path && w.applies_to == f.line && w.rule == f.rule)
        {
            used_waivers[i] = true;
            f.status = Status::Waived(waivers[i].1.reason.clone());
        }
    }

    // A waiver whose violation no longer exists must not linger silently.
    for (i, (path, w)) in waivers.iter().enumerate() {
        if !used_waivers[i] {
            findings.push(Finding::active(
                "waiver-syntax",
                path.clone(),
                w.declared_at,
                format!(
                    "unused waiver: no `{}` finding on line {} of {}; the violation was \
                     fixed — remove the waiver",
                    w.rule, w.applies_to, path
                ),
            ));
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Report { findings, files_scanned: sources.len() }
}

/// Builds the interprocedural workspace model for `cfg.root` and returns
/// its JSON dump (the `--graph-out` payload).
pub fn dump_model(cfg: &Config) -> Result<String, String> {
    let sources = scan_workspace(&cfg.root)?;
    let workspace_model = model::build(&sources, cfg);
    Ok(workspace_model.to_json().render_pretty())
}

/// Reads every `.rs` file under `dir` (skipping [`SKIP_DIRS`]) into scanned
/// sources with workspace-relative paths.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("path {} escapes root: {e}", path.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile::scan(&rel, &text));
        }
    }
    Ok(())
}
