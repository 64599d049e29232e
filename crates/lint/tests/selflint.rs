//! Self-lint: the workspace this crate lives in must pass its own lint.
//!
//! This is the acceptance gate in test form — `flexilint --workspace`
//! exits 0 on the tree as committed, every pragma carries a reason (a
//! reasonless pragma is a U02 finding and would dirty the run), and no
//! pragma is stale (U01).

use std::collections::BTreeSet;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    root
}

#[test]
fn workspace_lints_clean() {
    let report = flexilint::run(&workspace_root()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the workspace must lint clean; findings:\n{}",
        report.human()
    );
    // Sanity: the scan actually covered the tree, and the suppressions we
    // committed are all still load-bearing (else they'd be U01 findings).
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(
        report.suppressions_used > 0,
        "expected the committed lint:allow pragmas to be exercised"
    );
}

#[test]
fn workspace_is_clean_under_each_graph_rule_family() {
    // The graph analyses (L/C/H/X) must hold on the real tree, each
    // family on its own — a finding in one family must not be masked by
    // a filter bug that drops another family's scan. Suppressions still
    // resolve against the full finding set, so a pragma carrying a real
    // X01 keeps counting here.
    let root = workspace_root();
    for family in [
        "L01,L02",
        "C01,C02,C03",
        "H01,H02",
        "X01,X02",
        "T01,T02",
        "N01",
        "Q01,Q02",
    ] {
        let only: BTreeSet<String> = family.split(',').map(str::to_string).collect();
        let report = flexilint::run_with_rules(&root, Some(&only)).expect("workspace scan");
        assert!(
            report.is_clean(),
            "rule family {family} has findings on the real tree:\n{}",
            report.human()
        );
    }
    // The floor is the number of `lint:allow` pragmas committed in the
    // tree. A clean report alone cannot tell "no violations" from "a rule
    // stopped scanning"; every pragma honoured proves its rule still
    // reaches and flags the line the pragma excuses.
    let full = flexilint::run(&root).expect("workspace scan");
    assert!(
        full.suppressions_used >= 30,
        "expected every committed pragma to be exercised, got {}",
        full.suppressions_used
    );
}
