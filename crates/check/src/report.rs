//! Machine-readable findings report for CI.
//!
//! The `lint-audit` CI job runs `cargo xmap-lint --json lint-findings.json`
//! and uploads the report as an artifact, so a red job carries its evidence.
//! The report is an `xmap_engine::Json` tree — the workspace's one JSON writer —
//! and its shape is versioned so consumers can evolve:
//!
//! ```json
//! {
//!   "version": 2,
//!   "root": "/path/to/workspace",
//!   "rules": [{"name": "iter-order", "escapable": true}, …],
//!   "findings": [{"file": "…", "line": 7, "rule": "iter-order", "message": "…"}],
//!   "warnings": [{"file": "…", "line": 3, "message": "stale lint tag …"}],
//!   "summary": {"files": 57, "findings": 0, "warnings": 0, "clean": true}
//! }
//! ```

use crate::lint::{Audit, Rule};
use xmap_engine::Json;

/// Renders the versioned JSON findings report for one audit run.
pub fn render_report(root: &str, audit: &Audit) -> String {
    let num = |n: usize| Json::Num(n as f64);
    let rules = Rule::all().into_iter().map(|rule| {
        Json::obj([
            ("name", Json::str(rule.to_string())),
            ("escapable", Json::Bool(rule.escapable())),
        ])
    });
    let findings = audit.findings.iter().map(|v| {
        Json::obj([
            ("file", Json::str(&v.file)),
            ("line", Json::Num(v.line.into())),
            ("rule", Json::str(v.rule.to_string())),
            ("message", Json::str(&v.message)),
        ])
    });
    let warnings = audit.warnings.iter().map(|w| {
        Json::obj([
            ("file", Json::str(&w.file)),
            ("line", Json::Num(w.line.into())),
            ("message", Json::str(&w.message)),
        ])
    });
    Json::obj([
        ("version", Json::Num(2.0)),
        ("root", Json::str(root)),
        ("rules", Json::Arr(rules.collect())),
        ("findings", Json::Arr(findings.collect())),
        ("warnings", Json::Arr(warnings.collect())),
        (
            "summary",
            Json::obj([
                ("files", num(audit.files)),
                ("findings", num(audit.findings.len())),
                ("warnings", num(audit.warnings.len())),
                ("clean", Json::Bool(audit.findings.is_empty())),
            ]),
        ),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Violation;
    use crate::Warning;

    #[test]
    fn a_rendered_report_parses_back_with_every_field() {
        let message = "say \"no\" to C:\\tmp\u{1}\n";
        let audit = Audit {
            findings: vec![Violation {
                file: "crates/a \"b\".rs".into(),
                line: 7,
                rule: Rule::all()[0],
                message: message.into(),
            }],
            warnings: vec![Warning {
                file: "crates/c.rs".into(),
                line: 3,
                message: "stale\ttag".into(),
            }],
            files: 57,
        };
        let doc = Json::parse(&render_report("/ws\\root", &audit)).unwrap();
        let field = |v: &Json, key: &str| v.get(key).cloned().unwrap();
        assert_eq!(field(&doc, "version"), Json::Num(2.0));
        assert_eq!(field(&doc, "root"), Json::str("/ws\\root"));
        let rules = field(&doc, "rules");
        let rules = rules.as_array().unwrap();
        assert_eq!(rules.len(), Rule::all().len());
        for (json, rule) in rules.iter().zip(Rule::all()) {
            assert_eq!(field(json, "name"), Json::str(rule.to_string()));
            assert_eq!(field(json, "escapable"), Json::Bool(rule.escapable()));
        }
        let findings = field(&doc, "findings");
        let [finding] = findings.as_array().unwrap() else {
            panic!("one finding expected");
        };
        assert_eq!(field(finding, "file"), Json::str("crates/a \"b\".rs"));
        assert_eq!(field(finding, "line"), Json::Num(7.0));
        assert_eq!(
            field(finding, "rule"),
            Json::str(Rule::all()[0].to_string())
        );
        assert_eq!(field(finding, "message"), Json::str(message));
        let warnings = field(&doc, "warnings");
        let [warning] = warnings.as_array().unwrap() else {
            panic!("one warning expected");
        };
        assert_eq!(field(warning, "file"), Json::str("crates/c.rs"));
        assert_eq!(field(warning, "line"), Json::Num(3.0));
        assert_eq!(field(warning, "message"), Json::str("stale\ttag"));
        let summary = field(&doc, "summary");
        assert_eq!(field(&summary, "files"), Json::Num(57.0));
        assert_eq!(field(&summary, "findings"), Json::Num(1.0));
        assert_eq!(field(&summary, "warnings"), Json::Num(1.0));
        assert_eq!(field(&summary, "clean"), Json::Bool(false));
        let keys = |v: &Json| match v {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => Vec::new(),
        };
        assert_eq!(
            keys(&doc),
            ["version", "root", "rules", "findings", "warnings", "summary"]
        );
        assert_eq!(keys(finding), ["file", "line", "rule", "message"]);
        assert_eq!(keys(warning), ["file", "line", "message"]);
        assert_eq!(keys(&summary), ["files", "findings", "warnings", "clean"]);
    }
}
