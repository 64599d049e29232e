//! flexilint — the project's own static analysis, for what the compiler
//! toolchain and the tests cannot check.
//!
//! The repo's core guarantee (simulator ≡ channel cluster ≡ TCP cluster
//! commit sequences, invariant under worker and shard counts) rests on
//! determinism, on threads that do not die silently and on peers that
//! cannot crash a replica with a malformed frame. rustc, clippy and the
//! quorum tests enforce most of it (`RULES.md`, part one: the
//! `clippy.toml` lists, the crate-level lint attributes, the exhaustive
//! message matches). What is left needs a whole-workspace call graph or
//! a lexical shape no lint names, and lives here: lock order (L01, L02),
//! discarded `try_send` results (C03), panics reachable from a worker
//! thread or a wire decoder (R01), narrowing casts on decode paths (T02),
//! clock and entropy values flowing into messages (N01) and `Vec::from`
//! payload copies (Z02). The lexer is hand-rolled and dependency-free,
//! per the offline-shim policy.
//!
//! Suppression: `// lint:allow(RULE): reason` on the offending line or the
//! line directly above. Reasons are mandatory (U02), and a pragma that
//! stops suppressing anything is itself a finding (U01) — stale exemptions
//! rot.
//!
//! [`Workspace::read`] reads, lexes and parses every file once;
//! [`Workspace::analyse`] builds the [`graph`] once and runs every pass
//! over it, reporting each pass's wall time so a slow pass names itself
//! in CI.

pub mod calls;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod reach;
pub mod report;
pub mod taint;

use report::{Finding, Report};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Crates on the message and value hot path: payload bytes travel by
/// `Arc` handle (Z02), and no clock or entropy value may reach a message,
/// an encoder or a digest built here (N01).
pub const HOT_PATH_CRATES: &[&str] = &[
    "types",
    "protocol",
    "core",
    "baselines",
    "sim",
    "exec",
    "trusted",
    "crypto",
    "wire",
    "runtime",
    "host",
];

/// Crates whose threads must not die on a stray panic: the transport
/// reader/writer threads and the execution workers (R01).
pub const WORKER_CRATES: &[&str] = &["runtime", "exec"];

/// Crates holding the workspace's locks: the transport clusters, the
/// executor pool and the host dispatcher (L01, L02).
pub const LOCK_CRATES: &[&str] = &["runtime", "exec", "host"];

/// Every rule flexilint knows, with its one-line summary.
pub const RULES: &[(&str, &str)] = &[
    (
        "L01",
        "lock-order cycle across the acquisition graph (potential deadlock)",
    ),
    (
        "L02",
        "lock held across a blocking channel send/recv (wedges every contender)",
    ),
    ("C03", "try_send result discarded without drop accounting"),
    (
        "R01",
        "panic reachable from a worker thread or a wire decode entry point",
    ),
    (
        "T02",
        "unchecked `as` narrowing cast on a wire decode path (peer-controlled length/count)",
    ),
    (
        "N01",
        "nondeterministic value (clock/RNG) flows into a Message, wire encoding or state digest",
    ),
    (
        "Z02",
        "payload deep copy (Vec::from) on a zero-copy hot path",
    ),
    ("U01", "unused lint:allow pragma"),
    (
        "U02",
        "malformed lint:allow pragma (missing rule id or reason, or unknown rule)",
    ),
];

/// Whether `rule` is one flexilint knows.
pub fn known_rule(rule: &str) -> bool {
    RULES.iter().any(|(id, _)| *id == rule)
}

/// One scanned file: its path-derived scope, source, token stream,
/// pragmas and parse tree — built once, shared by every pass.
#[derive(Clone)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// The crate directory name under `crates/`; empty for the facade.
    pub crate_name: String,
    /// Whether the file is crate source under `src/`, not an integration
    /// test, bench or example. Only production files carry rules.
    pub production: bool,
    /// The source text.
    pub src: String,
    /// Tokens and suppression pragmas.
    pub lexed: lexer::Lexed,
    /// Item/block/call structure.
    pub parsed: parser::ParsedFile,
}

impl SourceFile {
    /// Reads one source into every representation the passes need.
    pub fn new(rel: &str, src: &str) -> Self {
        let lexed = lexer::lex(src);
        let parsed = parser::parse(&lexed.tokens);
        let under =
            |dir: &str| rel.starts_with(&format!("{dir}/")) || rel.contains(&format!("/{dir}/"));
        SourceFile {
            rel: rel.to_string(),
            crate_name: rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or("")
                .to_string(),
            production: under("src") && !["tests", "benches", "examples"].into_iter().any(under),
            src: src.to_string(),
            lexed,
            parsed,
        }
    }

    /// The file's token stream.
    pub fn tokens(&self) -> &[lexer::Token] {
        &self.lexed.tokens
    }

    /// Whether the file is production source of one of `crates`.
    pub fn in_crates(&self, crates: &[&str]) -> bool {
        self.production && crates.contains(&self.crate_name.as_str())
    }
}

/// Directory names never scanned, at any depth.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "node_modules"];

/// The scanned tree: every `.rs` file under a root, read once.
#[derive(Clone)]
pub struct Workspace {
    /// The files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Reads, lexes and parses every `.rs` file under `root`, skipping
    /// build output, fixture trees and `crates/shims` (the shims implement
    /// the clock and entropy surface the rules keep out of everything
    /// else).
    pub fn read(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        collect(root, root, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for rel in &paths {
            let src = std::fs::read_to_string(root.join(rel))?;
            files.push(SourceFile::new(
                &rel.to_string_lossy().replace('\\', "/"),
                &src,
            ));
        }
        Ok(Workspace { files })
    }

    /// Runs every pass and resolves pragmas; reports only the rule ids in
    /// `only` when given.
    ///
    /// Suppression still resolves against the *full* finding set first, so
    /// a pragma for an unselected rule is neither honoured-and-hidden nor
    /// misreported as stale; the filter applies to what is reported.
    pub fn analyse(&self, only: Option<&BTreeSet<String>>) -> Report {
        let files = &self.files;
        let mut timings: Vec<(String, f64)> = Vec::new();
        let t0 = Instant::now();
        let graph = graph::CallGraph::build(files);
        timings.push(("graph".into(), t0.elapsed().as_secs_f64() * 1e3));

        type Pass = fn(&[SourceFile], &graph::CallGraph) -> Vec<Finding>;
        let passes: [(&str, Pass); 4] = [
            ("locks", locks::check),
            ("calls", calls::check),
            ("reach", reach::check),
            ("taint", taint::check),
        ];
        let mut all: Vec<Finding> = Vec::new();
        for (label, pass) in passes {
            let t0 = Instant::now();
            all.extend(pass(files, &graph));
            timings.push((label.into(), t0.elapsed().as_secs_f64() * 1e3));
        }
        // One finding per rule and line: a site reached along several paths
        // (or from nested fns) is one thing to fix and one pragma to write.
        all.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        all.dedup_by(|a, b| (&a.file, a.line, &a.rule) == (&b.file, b.line, &b.rule));

        let mut report = Report {
            files_scanned: files.len(),
            timings_ms: timings,
            ..Default::default()
        };
        for f in files {
            let file_findings: Vec<Finding> =
                all.iter().filter(|x| x.file == f.rel).cloned().collect();
            let (mut kept, used, pragma_findings) = suppress(&f.rel, &f.lexed, file_findings);
            report.suppressions_used += used;
            kept.extend(pragma_findings);
            attach_excerpts(&f.src, &mut kept);
            report.findings.extend(kept);
        }

        if let Some(only) = only {
            report.findings.retain(|f| only.contains(&f.rule));
        }
        report
            .findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        report
    }
}

/// Splits `findings` into kept (unsuppressed) findings, counts honoured
/// pragmas, and emits U01/U02 findings for unused or malformed pragmas.
fn suppress(
    rel: &str,
    lexed: &lexer::Lexed,
    findings: Vec<Finding>,
) -> (Vec<Finding>, usize, Vec<Finding>) {
    let pragmas = &lexed.pragmas;
    let mut used = vec![false; pragmas.len()];
    let mut kept = Vec::new();

    // A trailing pragma covers its own line. A standalone comment pragma
    // covers the next line that holds any code — continuation comment
    // lines and blanks in between don't break the link, so a pragma's
    // reason can wrap.
    let covered_line = |p: &lexer::Pragma| -> u32 {
        if !p.own_line {
            return p.line;
        }
        lexed
            .tokens
            .iter()
            .map(|t| t.line)
            .find(|&l| l > p.line)
            .unwrap_or(p.line + 1)
    };

    'finding: for f in findings {
        for (pi, p) in pragmas.iter().enumerate() {
            if !p.well_formed || p.reason.is_empty() {
                continue;
            }
            let covers = covered_line(p) == f.line || p.line == f.line;
            if covers && p.rules.iter().any(|r| r == &f.rule) {
                used[pi] = true;
                continue 'finding;
            }
        }
        kept.push(f);
    }

    let mut meta = Vec::new();
    let used_count = used.iter().filter(|u| **u).count();
    for (pi, p) in pragmas.iter().enumerate() {
        if !p.well_formed || p.reason.is_empty() {
            meta.push(Finding::new(
                rel,
                p.line,
                "U02",
                "malformed lint:allow pragma: expected `// lint:allow(RULE, ...): reason` \
                 with at least one rule id and a non-empty reason",
            ));
            continue;
        }
        if let Some(unknown) = p.rules.iter().find(|r| !known_rule(r)) {
            meta.push(Finding::new(
                rel,
                p.line,
                "U02",
                format!("lint:allow names unknown rule `{unknown}`"),
            ));
            continue;
        }
        if !used[pi] {
            meta.push(Finding::new(
                rel,
                p.line,
                "U01",
                format!(
                    "unused lint:allow({}) pragma: it suppresses nothing on this or \
                     the next line; remove it",
                    p.rules.join(", ")
                ),
            ));
        }
    }
    (kept, used_count, meta)
}

/// Fills each finding's excerpt with its trimmed source line.
fn attach_excerpts(src: &str, findings: &mut [Finding]) {
    if findings.is_empty() {
        return;
    }
    let lines: Vec<&str> = src.lines().collect();
    for f in findings {
        if let Some(line) = lines.get((f.line as usize).saturating_sub(1)) {
            let mut excerpt = line.trim().to_string();
            excerpt.truncate(120);
            f.excerpt = excerpt;
        }
    }
}

/// Recursively collects `.rs` files under `dir`, as root-relative paths.
fn collect(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || (dir.ends_with("crates") && name == "shims") {
                continue;
            }
            collect(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_means_crate_source() {
        let scoped = |rel: &str| SourceFile::new(rel, "").production;
        assert!(scoped("crates/runtime/src/tcp.rs"));
        assert!(scoped("crates/lint/src/main.rs"));
        assert!(scoped("src/lib.rs"));
        assert!(!scoped("crates/core/tests/foo.rs"));
        assert!(!scoped("tests/cross_host.rs"));
        assert!(!scoped("crates/bench/benches/fig6vi_wan.rs"));
        assert!(!scoped("examples/quickstart.rs"));
        let f = SourceFile::new("crates/exec/src/executor.rs", "");
        assert!(f.in_crates(WORKER_CRATES) && f.in_crates(LOCK_CRATES));
        assert!(!SourceFile::new("crates/exec/tests/x.rs", "").in_crates(WORKER_CRATES));
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "\
// lint:allow(R01): reason above
x[0];
y[0]; // lint:allow(R01): trailing reason
z[0];
";
        let findings = vec![
            Finding::new("f.rs", 2, "R01", "m"),
            Finding::new("f.rs", 3, "R01", "m"),
            Finding::new("f.rs", 4, "R01", "m"),
        ];
        let (kept, used, meta) = suppress("f.rs", &lexer::lex(src), findings);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 4);
        assert_eq!(used, 2);
        assert!(meta.is_empty());
    }

    #[test]
    fn unused_and_malformed_pragmas_are_findings() {
        let src = "\
// lint:allow(R01): nothing here to suppress
let a = 1;
// lint:allow(R01)
// lint:allow(NOPE): unknown rule
";
        let (kept, used, meta) = suppress("f.rs", &lexer::lex(src), Vec::new());
        assert!(kept.is_empty());
        assert_eq!(used, 0);
        let rules: Vec<&str> = meta.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, vec!["U01", "U02", "U02"]);
    }

    #[test]
    fn pragma_for_a_different_rule_does_not_suppress() {
        let src = "x[0]; // lint:allow(Z02): wrong rule\n";
        let findings = vec![Finding::new("f.rs", 1, "R01", "m")];
        let (kept, _, meta) = suppress("f.rs", &lexer::lex(src), findings);
        assert_eq!(kept.len(), 1);
        // And the pragma is unused on top of it.
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].rule, "U01");
    }
}
