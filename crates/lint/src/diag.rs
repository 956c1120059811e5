//! Findings and their two output formats: human `file:line` diagnostics
//! and machine-readable JSON (built with the telemetry crate's `jsonlite`
//! serializer and consumed by CI).

use holoar_telemetry::jsonlite::Json;

/// What happened to a finding after waiver resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Fails the lint run.
    Active,
    /// Suppressed by an inline `holoar-lint: allow(...)` waiver.
    Waived(String),
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (one of [`crate::config::RULE_IDS`], or `waiver-syntax`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// For interprocedural findings, the call chain from the designated
    /// entry point to the offending site (`path::fn` per hop, entry
    /// first). Empty for per-line findings.
    pub chain: Vec<String>,
    /// Resolution after waivers are applied.
    pub status: Status,
}

impl Finding {
    /// A new active finding with no call chain.
    pub fn active(
        rule: &'static str,
        path: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line,
            message: message.into(),
            chain: Vec::new(),
            status: Status::Active,
        }
    }

    /// Attaches an interprocedural call chain.
    pub fn with_chain(mut self, chain: Vec<String>) -> Finding {
        self.chain = chain;
        self
    }
}

/// The result of one lint run.
#[derive(Debug, Clone)]
pub struct Report {
    /// All findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that fail the run.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.status == Status::Active)
    }

    /// Counts as `(active, waived)`.
    pub fn counts(&self) -> (usize, usize) {
        let active = self.active().count();
        (active, self.findings.len() - active)
    }

    /// Human-readable rendering, one diagnostic per line plus a summary.
    /// Interprocedural findings print their call chain indented below the
    /// diagnostic.
    pub fn render_human(&self, verbose: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let shown = match &f.status {
                Status::Active => {
                    out.push_str(&format!("{}:{}: {}: {}\n", f.path, f.line, f.rule, f.message));
                    true
                }
                Status::Waived(reason) if verbose => {
                    out.push_str(&format!(
                        "{}:{}: {}: {} [waived: {}]\n",
                        f.path, f.line, f.rule, f.message, reason
                    ));
                    true
                }
                _ => false,
            };
            if shown && !f.chain.is_empty() {
                out.push_str(&format!("    call chain: {}\n", f.chain.join(" -> ")));
            }
        }
        let (active, waived) = self.counts();
        out.push_str(&format!(
            "holoar-lint: {active} active, {waived} waived ({} files scanned)\n",
            self.files_scanned
        ));
        out
    }

    /// The report as a `jsonlite` value (shape is stable: `version`,
    /// `findings[]`, `summary{}`; interprocedural findings add `chain`).
    pub fn to_json(&self) -> Json {
        let findings: Vec<Json> = self
            .findings
            .iter()
            .map(|f| {
                let mut obj: Vec<(String, Json)> = vec![
                    ("rule".into(), Json::String(f.rule.to_string())),
                    ("path".into(), Json::String(f.path.clone())),
                    ("line".into(), Json::Number(f.line as f64)),
                    ("message".into(), Json::String(f.message.clone())),
                ];
                if !f.chain.is_empty() {
                    obj.push((
                        "chain".into(),
                        Json::Array(f.chain.iter().map(|c| Json::String(c.clone())).collect()),
                    ));
                }
                match &f.status {
                    Status::Active => obj.push(("status".into(), Json::String("active".into()))),
                    Status::Waived(reason) => {
                        obj.push(("status".into(), Json::String("waived".into())));
                        obj.push(("reason".into(), Json::String(reason.clone())));
                    }
                }
                Json::Object(obj)
            })
            .collect();
        let (active, waived) = self.counts();
        Json::Object(vec![
            ("version".into(), Json::Number(1.0)),
            ("findings".into(), Json::Array(findings)),
            (
                "summary".into(),
                Json::Object(vec![
                    ("active".into(), Json::Number(active as f64)),
                    ("waived".into(), Json::Number(waived as f64)),
                    ("files_scanned".into(), Json::Number(self.files_scanned as f64)),
                ]),
            ),
        ])
    }

    /// Machine-readable JSON rendering of [`Report::to_json`].
    pub fn render_json(&self) -> String {
        self.to_json().render_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holoar_telemetry::jsonlite;

    #[test]
    fn json_round_trips_through_jsonlite() {
        let report = Report {
            findings: vec![
                Finding::active(
                    "no-panic",
                    "crates/x/src/a.rs",
                    7,
                    "message with \"quotes\", a\ttab and a\nnewline",
                ),
                Finding {
                    status: Status::Waived("checked \\ elsewhere".to_string()),
                    ..Finding::active("determinism", "crates/x/src/b.rs", 9, "clock")
                },
                Finding::active("no-panic-transitive", "crates/y/src/c.rs", 3, "panics").with_chain(
                    vec!["crates/x/src/a.rs::entry".to_string(), "crates/y/src/c.rs::inner".to_string()],
                ),
            ],
            files_scanned: 3,
        };
        let text = report.render_json();
        let parsed = jsonlite::parse(&text).expect("valid JSON");
        let findings = parsed.get("findings").and_then(Json::as_array).expect("findings");
        assert_eq!(findings.len(), 3);
        assert_eq!(
            findings[0].get("message").and_then(Json::as_str),
            Some("message with \"quotes\", a\ttab and a\nnewline")
        );
        assert_eq!(findings[1].get("reason").and_then(Json::as_str), Some("checked \\ elsewhere"));
        let chain = findings[2].get("chain").and_then(Json::as_array).expect("chain");
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].as_str(), Some("crates/x/src/a.rs::entry"));
        assert_eq!(
            parsed.get("summary").and_then(|s| s.get("active")).and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn human_output_prints_chain() {
        let report = Report {
            findings: vec![Finding::active("no-panic-transitive", "crates/y/src/c.rs", 3, "p")
                .with_chain(vec!["a::f".to_string(), "b::g".to_string()])],
            files_scanned: 1,
        };
        let text = report.render_human(false);
        assert!(text.contains("call chain: a::f -> b::g"), "{text}");
    }
}
