//! Self-lint: the workspace this crate lives in must pass its own lint,
//! and every rule must still fire on it.
//!
//! `workspace_lints_clean` is the acceptance gate in test form —
//! `flexilint --workspace` exits 0 on the tree as committed, every pragma
//! carries a reason (U02) and none is stale (U01). A clean report alone
//! cannot tell "no violations" from "a rule stopped scanning", so
//! `every_rule_fires_on_a_violation_planted_in_the_real_tree` appends one
//! violation per rule to a real file, in memory, and demands exactly that
//! finding back.

use flexilint::{SourceFile, Workspace};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn workspace() -> Workspace {
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
    Workspace::read(&root).expect("workspace scan")
}

#[test]
fn workspace_lints_clean() {
    let ws = workspace();
    let report = ws.analyse(None);
    assert!(
        report.is_clean(),
        "the workspace must lint clean; findings:\n{}",
        report.human()
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    // The floor is the number of `lint:allow` pragmas committed in the
    // tree (16 R01, 1 T02): every pragma honoured proves its rule still
    // reaches and flags the line the pragma excuses.
    assert!(
        report.suppressions_used >= 17,
        "expected every committed pragma to be exercised, got {}",
        report.suppressions_used
    );
    // Each graph and dataflow family holds on its own — a finding in one
    // family must not be masked by a filter bug that drops another's scan.
    // Suppressions still resolve against the full finding set.
    for family in ["L01,L02", "C03", "R01,T02", "N01", "Z02"] {
        let only: BTreeSet<String> = family.split(',').map(str::to_string).collect();
        let report = ws.analyse(Some(&only));
        assert!(
            report.is_clean(),
            "rule family {family} has findings on the real tree:\n{}",
            report.human()
        );
    }
}

/// One violation per rule: `(rule, file, text)`. The text is appended to
/// the file, and its first line is the one the rule must flag.
const PLANTS: &[(&str, &str, &str)] = &[
    // The real `submit_streams` lock, taken in both orders against a new one.
    (
        "L01",
        "crates/runtime/src/tcp.rs",
        "impl TcpCluster { fn plant_a(&self) { let s = self.submit_streams.lock(); \
         let p = self.planted.lock(); } fn plant_b(&self) { let p = self.planted.lock(); \
         let s = self.submit_streams.lock(); } }",
    ),
    (
        "L02",
        "crates/exec/src/executor.rs",
        "fn planted(m: &std::sync::Mutex<u8>, tx: &Sender<LaneJob>) { let g = m.lock(); \
         tx.send(Vec::new()); }",
    ),
    (
        "C03",
        "crates/runtime/src/tcp.rs",
        "fn planted(tx: &Sender<Outbound>, o: Outbound) { _ = tx.try_send(o); }",
    ),
    // The type-free graph resolves the shard workers' `rx.recv()` to every
    // method named `recv`, so a new one sits on the worker path.
    (
        "R01",
        "crates/exec/src/executor.rs",
        "impl LaneOutcome { fn recv(&self) -> usize { self.results[0].0 } }",
    ),
    (
        "R01",
        "crates/wire/src/codec.rs",
        "pub(crate) fn decode_planted(bytes: &[u8]) -> u8 { *bytes.first().unwrap() }",
    ),
    (
        "T02",
        "crates/wire/src/codec.rs",
        "pub(crate) fn decode_planted(bytes: &[u8]) -> u32 { bytes.len() as u32 }",
    ),
    (
        "N01",
        "crates/runtime/src/cluster.rs",
        "fn planted(out: &mut Outbox) { let t = Instant::now(); out.broadcast(\
         Message::CheckpointRequest { last_executed: SeqNum(t.elapsed().as_secs()) }); }",
    ),
    (
        "Z02",
        "crates/types/src/transaction.rs",
        "pub fn planted(bytes: &[u8]) -> Vec<u8> { Vec::<u8>::from(bytes) }",
    ),
    (
        "U01",
        "crates/protocol/src/messages.rs",
        "// lint:allow(R01): planted; nothing below panics\nfn planted() {}",
    ),
    (
        "U02",
        "crates/protocol/src/messages.rs",
        "// lint:allow(R01)\nfn planted() {}",
    ),
];

#[test]
fn every_rule_fires_on_a_violation_planted_in_the_real_tree() {
    let base = workspace();
    let mut fired = BTreeSet::new();
    for &(rule, rel, plant) in PLANTS {
        let mut ws = base.clone();
        let file = ws
            .files
            .iter_mut()
            .find(|f| f.rel == rel)
            .unwrap_or_else(|| panic!("{rel} is not in the workspace"));
        assert!(file.src.ends_with('\n'), "{rel} lacks a final newline");
        let line = file.src.lines().count() as u32 + 1;
        *file = SourceFile::new(rel, &format!("{}{plant}\n", file.src));
        let report = ws.analyse(None);
        let found: Vec<(&str, &str, u32)> = report
            .findings
            .iter()
            .map(|f| (f.rule.as_str(), f.file.as_str(), f.line))
            .collect();
        assert_eq!(
            found,
            [(rule, rel, line)],
            "planting `{plant}` in {rel}:\n{}",
            report.human()
        );
        fired.insert(rule);
    }
    let every: BTreeSet<&str> = flexilint::RULES.iter().map(|(id, _)| *id).collect();
    assert_eq!(fired, every, "every rule needs a plant");
}
