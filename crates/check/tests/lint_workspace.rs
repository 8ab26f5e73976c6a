//! The workspace must lint clean — this is the same gate the `lint` CI job runs
//! via `cargo xmap-lint`, kept as a test so `cargo test` catches regressions
//! without the alias.

use std::path::Path;

use xmap_check::lint::{
    audit_workspace, lint_source, run_workspace, workspace_sources, Config, Rule,
};

fn workspace_root() -> &'static Path {
    // crates/check → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/check sits two levels below the workspace root")
}

#[test]
fn the_workspace_lints_clean() {
    let findings = run_workspace(workspace_root(), &Config::default());
    assert!(
        findings.is_empty(),
        "xmap-lint found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_workspace_audit_has_no_findings_and_no_warnings() {
    // The full v2 audit — all nine rules plus escape-tag hygiene. Zero findings
    // means every hazard is fixed or justified; zero warnings means every
    // justification is still load-bearing and correctly spelled.
    let audit = audit_workspace(workspace_root(), &Config::default());
    assert!(
        audit.findings.is_empty(),
        "the audit found {} violation(s):\n{}",
        audit.findings.len(),
        audit
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        audit.warnings.is_empty(),
        "the audit produced {} warning(s):\n{}",
        audit.warnings.len(),
        audit
            .warnings
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn a_planted_violation_is_rejected_against_the_real_design_md() {
    // End-to-end fixture: a source file violating four rules at once, linted with
    // the real DESIGN.md, must produce a finding per rule — proving the CI gate
    // would reject it, not just the unit-test stub config.
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md"))
        .expect("DESIGN.md exists at the workspace root");
    let planted = r#"
use std::sync::atomic::{AtomicU64, Ordering};
pub fn planted(flag: &AtomicU64, x: Option<f64>) -> bool {
    let v = x.unwrap();
    flag.store(1, Ordering::Relaxed);
    v == 1.5
}
"#;
    let findings = lint_source(
        "crates/cf/src/planted.rs",
        planted,
        &design,
        &Config::default(),
    );
    for rule in [
        Rule::AtomicFacade,
        Rule::Panic,
        Rule::Ordering,
        Rule::FloatEq,
    ] {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "planted {rule} violation was not rejected; findings: {findings:?}"
        );
    }
}

#[test]
fn every_allowlist_and_surface_entry_names_a_workspace_file() {
    // An entry naming a deleted or moved file silently audits nothing: a stale
    // surface entry exempts the file that replaced it from the surface-doc rule.
    let paths: Vec<String> = workspace_sources(workspace_root())
        .into_iter()
        .map(|(path, _)| path)
        .collect();
    let matches = |entry: &str| match entry.strip_suffix('/') {
        Some(dir) => paths.iter().any(|p| {
            p.strip_prefix(dir)
                .is_some_and(|rest| rest.starts_with('/'))
        }),
        None => paths.iter().any(|p| p == entry),
    };
    let config = Config::default();
    let stale: Vec<&String> = [
        &config.ordering_allowlist,
        &config.atomic_allowlist,
        &config.surface_files,
        &config.clock_allowlist,
    ]
    .into_iter()
    .flatten()
    .filter(|entry| !matches(entry))
    .collect();
    assert!(
        stale.is_empty(),
        "entries matching no workspace file: {stale:?}"
    );
}
