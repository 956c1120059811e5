//! `telemetry-discipline`: span/counter names are unique, registered, and
//! follow the `category.name` convention.
//!
//! The Chrome-trace exporter derives track grouping from the leading
//! `category.` segment, the metrics exporters key rows by name, and the CI
//! smoke test asserts specific categories exist — so a typo'd or
//! unregistered name silently drops data from dashboards. This rule
//! extracts every string literal passed to the telemetry entry points
//! (`span`, `span_cat`, `record_external_span`, `counter_add`,
//! `gauge_set`, `histogram_record_us`) — calls may span lines — and checks:
//!
//! 1. **convention** — `seg(.seg)+`, segments `[a-z0-9_]+`; `format!`
//!    placeholders (`{...}`) act as wildcard segments;
//! 2. **category** — the first segment is a known category, and for
//!    `span_cat`/`record_external_span` matches the category argument;
//! 3. **registered** — the (kind, name) pair appears in
//!    `crates/lint/telemetry.names` (wildcards allowed there too);
//! 4. **uniqueness** — a name maps to exactly one kind and category across
//!    the workspace (re-use from multiple sites of the same kind is fine).

use std::collections::BTreeMap;

use crate::config::{Config, CATEGORIES};
use crate::diag::Finding;
use crate::source::SourceFile;

use super::{ident_before, Rule};

/// Telemetry entry points: `(token, kind, has_category_arg)`.
const APIS: &[(&str, &str, bool)] = &[
    ("span_cat(", "span", true),
    ("record_external_span(", "span", true),
    ("span(", "span", false),
    ("counter_add(", "counter", false),
    ("gauge_set(", "gauge", false),
    ("histogram_record_us(", "histogram", false),
];

/// Rule: telemetry span/counter/gauge names are unique, follow the
/// `category.name` convention, and appear in the checked-in registry
/// (`crates/lint/telemetry.names`).
pub struct TelemetryDiscipline {
    registry: Registry,
    /// name → (kind, category, first site) for uniqueness checking.
    seen: BTreeMap<String, (String, String, String)>,
}

impl TelemetryDiscipline {
    /// Builds the rule with the registry file's text (`registry_rel` is
    /// used for diagnostics against the registry itself).
    pub fn new(registry_text: &str, registry_rel: &str) -> TelemetryDiscipline {
        TelemetryDiscipline {
            registry: Registry::parse(registry_text, registry_rel),
            seen: BTreeMap::new(),
        }
    }
}

impl Rule for TelemetryDiscipline {
    fn id(&self) -> &'static str {
        "telemetry-discipline"
    }

    fn check_file(&mut self, file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
        if cfg.is_rule_exempt(&file.rel) {
            return;
        }
        for call in extract_calls(file) {
            let name = normalize(&call.name);
            let mut fail = |msg: String| {
                out.push(Finding::active("telemetry-discipline", file.rel.clone(), call.line, msg));
            };
            if !well_formed(&name) {
                fail(format!(
                    "telemetry name \"{}\" violates the `category.name` convention \
                     (lowercase dot-separated segments, at least two)",
                    call.name
                ));
                continue;
            }
            let first = name.split('.').next().unwrap_or("");
            if !CATEGORIES.contains(&first) {
                fail(format!(
                    "telemetry name \"{name}\" starts with unknown category `{first}` \
                     (known: {})",
                    CATEGORIES.join(", ")
                ));
            }
            if let Some(cat) = &call.category {
                if first != *cat && CATEGORIES.contains(&cat.as_str()) {
                    fail(format!(
                        "span \"{name}\" is in category \"{cat}\" but its name prefix is \
                         `{first}` — name prefix and category must agree"
                    ));
                } else if !CATEGORIES.contains(&cat.as_str()) {
                    fail(format!(
                        "unknown span category \"{cat}\" (known: {})",
                        CATEGORIES.join(", ")
                    ));
                }
            }
            if !self.registry.contains(call.kind, &name) {
                fail(format!(
                    "unregistered {} name \"{name}\"; add `{} {name}` to \
                     crates/lint/telemetry.names (or fix the typo)",
                    call.kind, call.kind
                ));
            }
            let cat_for_unique = call.category.clone().unwrap_or_else(|| first.to_string());
            let site = format!("{}:{}", file.rel, call.line);
            match self.seen.get(&name) {
                None => {
                    self.seen
                        .insert(name.clone(), (call.kind.to_string(), cat_for_unique, site));
                }
                Some((kind, cat, first_site)) => {
                    if kind != call.kind {
                        fail(format!(
                            "telemetry name \"{name}\" used as both {kind} (at {first_site}) \
                             and {} — names must be unique per instrument kind",
                            call.kind
                        ));
                    } else if *cat != cat_for_unique {
                        fail(format!(
                            "telemetry name \"{name}\" registered in category \"{cat}\" \
                             (at {first_site}) but used here with \"{cat_for_unique}\""
                        ));
                    }
                }
            }
        }
    }

    fn finish(&mut self, _cfg: &Config, out: &mut Vec<Finding>) {
        out.append(&mut self.registry.parse_findings);
    }
}

/// One extracted telemetry call.
struct Call {
    line: usize,
    kind: &'static str,
    name: String,
    category: Option<String>,
}

/// Finds telemetry API calls and the string literals in their argument
/// lists, scanning past line breaks until the call's parentheses close.
fn extract_calls(file: &SourceFile) -> Vec<Call> {
    let mut calls = Vec::new();
    for (line_no, line) in file.numbered() {
        for (token, kind, has_cat) in APIS {
            let mut search = 0;
            while let Some(pos) = line.code[search..].find(token) {
                let at = search + pos;
                search = at + token.len();
                // Word-bound, and not a method call on some other receiver
                // (e.g. `timeline.span("a")`).
                if ident_before(&line.code, at)
                    || line.code[..at].trim_end().ends_with('.')
                {
                    continue;
                }
                // `span(` would otherwise also match inside `span_cat(` /
                // `record_external_span(` at their tail; the
                // ident_before check already rejects those (prev char is
                // `_` or ident) — nothing more to do here.
                let literals = call_literals(file, line_no - 1, at + token.len());
                let Some(name) = literals.first() else {
                    continue; // fully dynamic name; nothing to check statically
                };
                let category = if *has_cat {
                    literals.iter().skip(1).find(|s| !s.contains('.')).cloned()
                } else {
                    None
                };
                calls.push(Call { line: line_no, kind, name: name.clone(), category });
            }
        }
    }
    calls
}

/// String literals inside the parenthesized argument list that starts at
/// `(line_idx, col)` (col is just past the opening paren).
fn call_literals(file: &SourceFile, line_idx: usize, col: usize) -> Vec<String> {
    let mut literals = Vec::new();
    let mut depth = 1i32;
    for (i, line) in file.lines.iter().enumerate().skip(line_idx) {
        let code = if i == line_idx { &line.code[col..] } else { &line.code[..] };
        // Count how many literals on this line belong to the call: the
        // scanner stores per-line literals in order; quotes before `col`
        // on the first line belong to earlier calls.
        let skip = if i == line_idx {
            line.code[..col].matches('"').count() / 2
        } else {
            0
        };
        let quotes_in_range = {
            let mut q = 0usize;
            let mut d = depth;
            for c in code.chars() {
                match c {
                    '(' => d += 1,
                    ')' => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    '"' => q += 1,
                    _ => {}
                }
            }
            q.div_ceil(2)
        };
        literals.extend(line.strings.iter().skip(skip).take(quotes_in_range).cloned());
        for c in code.chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return literals;
                    }
                }
                _ => {}
            }
        }
        if i > line_idx + 12 {
            break; // runaway (unbalanced parens); stop scanning
        }
    }
    literals
}

/// Replaces `format!` placeholders with `*` wildcard segments.
fn normalize(name: &str) -> String {
    let mut out = String::new();
    let mut depth = 0u32;
    for c in name.chars() {
        match c {
            '{' => {
                depth += 1;
                if depth == 1 {
                    out.push('*');
                }
            }
            '}' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// `seg(.seg)+` with lowercase/digit/underscore segments (or `*`).
fn well_formed(name: &str) -> bool {
    let segs: Vec<&str> = name.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|s| {
            *s == "*"
                || (!s.is_empty()
                    && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
        })
}

/// The checked-in name registry.
struct Registry {
    entries: Vec<(String, Vec<String>)>, // (kind, name segments)
    parse_findings: Vec<Finding>,
}

impl Registry {
    fn parse(text: &str, rel: &str) -> Registry {
        let mut entries: Vec<(String, Vec<String>)> = Vec::new();
        let mut parse_findings = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fail = |msg: String| {
                parse_findings.push(Finding::active("telemetry-discipline", rel, i + 1, msg));
            };
            let Some((kind, name)) = line.split_once(' ') else {
                fail(format!("malformed registry entry `{line}` (want `kind name`)"));
                continue;
            };
            if !["span", "counter", "gauge", "histogram"].contains(&kind) {
                fail(format!("unknown instrument kind `{kind}`"));
                continue;
            }
            let name = name.trim();
            if !well_formed(name) {
                fail(format!("registry name \"{name}\" violates the naming convention"));
                continue;
            }
            let entry = (kind.to_string(), name.split('.').map(str::to_string).collect());
            if entries.contains(&entry) {
                fail(format!("duplicate registry entry `{kind} {name}`"));
                continue;
            }
            entries.push(entry);
        }
        Registry { entries, parse_findings }
    }

    fn contains(&self, kind: &str, name: &str) -> bool {
        let segs: Vec<&str> = name.split('.').collect();
        self.entries.iter().any(|(k, pat)| {
            k == kind
                && pat.len() == segs.len()
                && pat.iter().zip(&segs).all(|(p, s)| p == "*" || *s == "*" || p == s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_and_convention() {
        assert_eq!(normalize("gpusim.kernel.{name}.launches"), "gpusim.kernel.*.launches");
        assert!(well_formed("fft.par.map"));
        assert!(well_formed("gpusim.kernel.*.launches"));
        assert!(!well_formed("fft"));
        assert!(!well_formed("Fft.par"));
        assert!(!well_formed("fft..map"));
    }

    #[test]
    fn registry_wildcards() {
        let r = Registry::parse("counter gpusim.kernel.*.launches\nspan fft.par.map\n", "t");
        assert!(r.parse_findings.is_empty());
        assert!(r.contains("counter", "gpusim.kernel.*.launches"));
        assert!(r.contains("counter", "gpusim.kernel.gsw_iterate.launches"));
        assert!(r.contains("span", "fft.par.map"));
        assert!(!r.contains("counter", "fft.par.map"));
        assert!(!r.contains("span", "fft.par.other"));
    }

    #[test]
    fn multi_line_calls_are_extracted() {
        let src = "holoar_telemetry::histogram_record_us(\n\
                       \"core.executor.sim_latency_us\",\n\
                       stats.latency * 1e6,\n\
                   );\n";
        let f = SourceFile::scan("crates/core/src/executor.rs", src);
        let calls = extract_calls(&f);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "core.executor.sim_latency_us");
        assert_eq!(calls[0].kind, "histogram");
    }

    #[test]
    fn span_cat_category_is_last_dotless_literal() {
        let f = SourceFile::scan(
            "crates/fft/src/fft2d.rs",
            "let _s = holoar_telemetry::span_cat(\"fft.fft2d.forward\", \"fft\");\n",
        );
        let calls = extract_calls(&f);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].category.as_deref(), Some("fft"));
    }

    #[test]
    fn method_calls_on_other_receivers_are_ignored() {
        let f = SourceFile::scan(
            "crates/gpusim/src/timeline.rs",
            "let s = timeline.span(\"a\");\n",
        );
        assert!(extract_calls(&f).is_empty());
    }
}
