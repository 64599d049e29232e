//! flexilint — the project's own static-analysis pass.
//!
//! The repo's core guarantee (simulator ≡ channel cluster ≡ TCP cluster
//! commit sequences, invariant under worker and shard counts) rests on
//! properties no compiler checks: no wall-clock or map-iteration-order
//! nondeterminism in the deterministic crates, no payload deep copies on
//! hot paths, no panicking I/O in transport threads, and full wire-codec
//! coverage of the message vocabulary. This crate enforces them as named,
//! suppressible rules over a hand-rolled lexer (dependency-free, per the
//! offline-shim policy). See `RULES.md` for the catalog.
//!
//! Suppression: `// lint:allow(RULE): reason` on the offending line or the
//! line directly above. Reasons are mandatory, and a pragma that stops
//! suppressing anything is itself a finding (`U01`) — stale exemptions rot.
//!
//! Three layers of analysis share one front end: the token-pattern rules
//! (D/Z/P) scan each file's token stream flat; the structural analyses
//! (W/C/H) work on the [`parser`]'s item/block/call structure; and the
//! dataflow analyses (L/X/T/N/Q) run over the whole-workspace transitive
//! call graph built once per run by [`graph`]. Every file is read, lexed
//! and parsed exactly once into a [`SourceFile`] that all passes share,
//! and every pass's wall time is reported so memoization regressions in
//! the graph show up in CI, not as silent slowdown.

pub mod channels;
pub mod graph;
pub mod handlers;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod parser;
pub mod quorum;
pub mod report;
pub mod rules;
pub mod taint;
pub mod wire;

use report::{Finding, Report};
use rules::FileClass;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One scanned file: its path-derived classification, token stream,
/// pragmas and parse tree — built once, shared by every pass.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// The crate directory name under `crates/`; empty for the facade.
    pub crate_name: String,
    /// Which rule families apply.
    pub class: FileClass,
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
        SourceFile {
            rel: rel.to_string(),
            crate_name: rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or("")
                .to_string(),
            class: classify(rel),
            lexed,
            parsed,
        }
    }

    /// The file's token stream.
    pub fn tokens(&self) -> &[lexer::Token] {
        &self.lexed.tokens
    }
}

/// Directory names never scanned, at any depth.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "node_modules"];

/// Crate directories never scanned: the shims *implement* the wall-clock
/// and entropy surface the rules exist to keep out of everything else.
const SKIP_CRATES: &[&str] = &["shims"];

/// Lints the workspace rooted at `root`; the heart of both the CLI and
/// the self-lint test.
pub fn run(root: &Path) -> std::io::Result<Report> {
    run_with_rules(root, None)
}

/// Like [`run`], restricted to the rule ids in `only` when given.
///
/// Suppression still resolves against the *full* finding set first, so a
/// pragma for an unselected rule is neither honoured-and-hidden nor
/// misreported as stale; the filter applies to what is reported.
pub fn run_with_rules(root: &Path, only: Option<&BTreeSet<String>>) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect(root, root, &mut files)?;
    files.sort();

    // Read, lex and parse every file exactly once; pragma resolution must
    // run after *all* passes (a pragma that only suppresses a cross-file
    // finding is used, not stale).
    let mut sources: Vec<SourceFile> = Vec::with_capacity(files.len());
    let mut raws: Vec<String> = Vec::with_capacity(files.len());
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        sources.push(SourceFile::new(&rel_str, &src));
        raws.push(src);
    }

    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut timed = |label: &str, t0: Instant| {
        timings.push((label.to_string(), t0.elapsed().as_secs_f64() * 1e3));
    };

    let mut all: Vec<Finding> = Vec::new();
    let t0 = Instant::now();
    for f in &sources {
        all.extend(rules::scan_file(&f.rel, f.tokens(), &f.class));
    }
    timed("tokens", t0);

    let t0 = Instant::now();
    let graph = graph::CallGraph::build(&sources);
    timed("graph", t0);

    let t0 = Instant::now();
    all.extend(wire::check(&sources));
    timed("wire", t0);
    let t0 = Instant::now();
    all.extend(locks::check(&sources, &graph));
    timed("locks", t0);
    let t0 = Instant::now();
    all.extend(channels::check(&sources));
    timed("channels", t0);
    let t0 = Instant::now();
    all.extend(handlers::check(&sources));
    timed("handlers", t0);
    let t0 = Instant::now();
    all.extend(panics::check(&sources, &graph));
    timed("panics", t0);
    let t0 = Instant::now();
    all.extend(taint::check(&sources, &graph));
    timed("taint", t0);
    let t0 = Instant::now();
    all.extend(quorum::check(&sources));
    timed("quorum", t0);

    let mut report = Report {
        files_scanned: sources.len(),
        timings_ms: timings,
        ..Default::default()
    };
    for (f, src) in sources.iter().zip(&raws) {
        let file_findings: Vec<Finding> = all.iter().filter(|x| x.file == f.rel).cloned().collect();
        let (mut kept, used, pragma_findings) = suppress(&f.rel, &f.lexed, file_findings);
        report.suppressions_used += used;
        kept.extend(pragma_findings);
        attach_excerpts(src, &mut kept);
        report.findings.extend(kept);
    }

    if let Some(only) = only {
        report.findings.retain(|f| only.contains(&f.rule));
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
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
        if let Some(unknown) = p.rules.iter().find(|r| !rules::known_rule(r)) {
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

/// Decides which rule families apply to a workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let mut class = FileClass::default();
    // Only crate library sources participate; integration tests, benches
    // and examples are free to use clocks, unwraps and prints.
    let in_tests = rel.contains("/tests/") || rel.starts_with("tests/");
    let in_benches = rel.contains("/benches/") || rel.starts_with("benches/");
    let in_examples = rel.contains("/examples/") || rel.starts_with("examples/");
    if in_tests || in_benches || in_examples {
        return class;
    }
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let in_src = rel.contains("/src/") || rel.starts_with("src/");
    if !in_src {
        return class;
    }
    class.deterministic = rules::DETERMINISTIC_CRATES.contains(&crate_name);
    class.zero_copy = rules::ZERO_COPY_CRATES.contains(&crate_name);
    class.panic_free = rules::PANIC_FREE_CRATES.contains(&crate_name);
    // Binaries own their stdout; libraries do not.
    class.library = !rel.ends_with("/main.rs");
    class.locks = rules::LOCK_CRATES.contains(&crate_name);
    // Channel topology is a concern wherever channels exist — any source.
    class.channels = true;
    class.handlers = rules::HANDLER_CRATES.contains(&crate_name);
    class
}

/// Recursively collects `.rs` files under `dir`, as root-relative paths.
fn collect(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            // `crates/shims/*`: the shims implement the nondeterministic
            // surface; scanning them would be linting the fire brigade
            // for smelling of smoke.
            if dir.ends_with("crates") && SKIP_CRATES.contains(&name.as_ref()) {
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
    fn classification_follows_the_crate_map() {
        let c = classify("crates/protocol/src/quorum.rs");
        assert!(c.deterministic && c.zero_copy && c.library && !c.panic_free);
        assert!(!c.locks && c.channels && !c.handlers);
        let c = classify("crates/runtime/src/tcp.rs");
        assert!(!c.deterministic && c.zero_copy && c.panic_free && c.library);
        assert!(c.locks && c.channels && !c.handlers);
        let c = classify("crates/exec/src/executor.rs");
        assert!(c.deterministic && c.panic_free && c.locks);
        let c = classify("crates/core/src/flexi_bft.rs");
        assert!(c.handlers && !c.locks);
        let c = classify("crates/baselines/src/common.rs");
        assert!(c.handlers);
        let c = classify("crates/core/tests/foo.rs");
        assert!(!c.handlers && !c.channels, "tests carry no graph rules");
        let c = classify("crates/lint/src/main.rs");
        assert!(!c.library, "binaries own their stdout");
        let c = classify("crates/protocol/tests/foo.rs");
        assert!(!c.deterministic && !c.library);
        let c = classify("tests/cross_host.rs");
        assert!(!c.deterministic && !c.library);
        let c = classify("crates/bench/benches/fig6vi_wan.rs");
        assert!(!c.library);
        let c = classify("src/lib.rs");
        assert!(!c.deterministic && c.library);
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "\
// lint:allow(P01): reason above
x.unwrap();
y.unwrap(); // lint:allow(P01): trailing reason
z.unwrap();
";
        let findings = vec![
            Finding::new("f.rs", 2, "P01", "m"),
            Finding::new("f.rs", 3, "P01", "m"),
            Finding::new("f.rs", 4, "P01", "m"),
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
// lint:allow(P01): nothing here to suppress
let a = 1;
// lint:allow(P01)
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
        let src = "x.unwrap(); // lint:allow(D01): wrong rule\n";
        let findings = vec![Finding::new("f.rs", 1, "P01", "m")];
        let (kept, _, meta) = suppress("f.rs", &lexer::lex(src), findings);
        assert_eq!(kept.len(), 1);
        // And the pragma is unused on top of it.
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].rule, "U01");
    }
}
