//! Fixture suite: the mini-trees under `tests/fixtures/` pin the clean
//! baseline and the pragma contract — suppression, stale pragmas (U01) and
//! malformed ones (U02). Each analysis rule is proven non-vacuous on the
//! real tree instead, by `selflint.rs`'s planted violations.

use std::collections::BTreeSet;
use std::path::PathBuf;

/// Runs the lint over one fixture tree and returns the report.
fn lint(name: &str) -> flexilint::report::Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    flexilint::Workspace::read(&root)
        .unwrap_or_else(|e| panic!("lint {name}: {e}"))
        .analyse(None)
}

fn expect_only(name: &str, rule: &str) -> flexilint::report::Report {
    let report = lint(name);
    let rules: BTreeSet<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(
        rules,
        BTreeSet::from([rule]),
        "{name}: expected only {rule} findings, got: {}",
        report.human()
    );
    report
}

#[test]
fn clean_tree_is_clean() {
    let report = lint("clean");
    assert!(
        report.is_clean(),
        "clean fixture flagged: {}",
        report.human()
    );
    assert_eq!(report.files_scanned, 2);
    assert_eq!(report.suppressions_used, 0);
}

#[test]
fn well_formed_pragmas_suppress_trailing_and_standalone() {
    let report = lint("pragma_ok");
    assert!(
        report.is_clean(),
        "pragma_ok should lint clean: {}",
        report.human()
    );
    // Both the trailing pragma and the standalone (wrapped-reason) pragma
    // must each have suppressed a real Z02 finding.
    assert_eq!(report.suppressions_used, 2);
}

#[test]
fn unused_pragmas_are_findings() {
    let report = expect_only("pragma_unused", "U01");
    assert!(report.findings[0].message.contains("suppresses nothing"));
    // The CI smoke step depends on this contract: a finding yields
    // `"clean": false` JSON (and a nonzero exit).
    assert!(report.json().contains("\"clean\": false"));
}

#[test]
fn malformed_pragmas_are_findings() {
    let report = expect_only("pragma_malformed", "U02");
    // One missing its reason, one naming an unknown rule.
    assert_eq!(report.findings.len(), 2);
    assert!(report.findings[1].message.contains("unknown rule"));
}
