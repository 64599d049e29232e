//! R01 and T02: panics and truncations reachable from code that must not
//! die or mis-frame.
//!
//! One pass over the whole-workspace [`CallGraph`], from one entry table:
//!
//! - **Worker entries** — the closures handed to `spawn` in `runtime` and
//!   `exec`. A worker that panics dies silently under `catch_unwind`-free
//!   `std::thread`: no peer-loss event, no drop accounting, a replica that
//!   just stops voting. Sites: panic macros and value indexing, wherever
//!   the workers reach into `runtime` or `exec`.
//! - **Decode entries** — `decode_*` / `read_*` fns in `wire`, plus the
//!   `runtime` fns that call one directly (the TCP reader loops). They run
//!   on bytes a peer chose, and a malformed frame must surface as a
//!   `WireError`, never as a panic a Byzantine peer can trigger at will.
//!   Sites: the same plus `.unwrap()` / `.expect()` (in `runtime` and
//!   `exec` clippy denies those everywhere), in every `wire` fn a decode
//!   entry reaches and in the runtime callers' own bodies — past the decode
//!   call's return the bytes are typed `Message` fields, the engines'
//!   domain. On these paths **T02** also flags `as` casts to a narrower
//!   integer: a peer-supplied length or count wraps silently.
//!
//! Both entry kinds report **R01**, once per line; the message names the
//! entry that reaches the site. `debug_assert*` is exempt (compiled out in
//! release), and so are sites outside the scanned crates: their panics are
//! loud test failures, not silent worker deaths. Callees resolve per the
//! graph's type-free heuristic, which over-approximates: a false edge can
//! at worst ask for a pragma with a proof; a missed one would hide a panic.

use crate::graph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::parser;
use crate::report::Finding;
use crate::{SourceFile, WORKER_CRATES};
use std::collections::BTreeSet;

/// Macros that unconditionally (or assertively) panic.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Identifier-likes before `[` that do *not* make it a value index
/// (`&mut [u8]`, `for x in [..]`, `match x { [a, b] => .. }`, ...).
const NON_INDEX_PREV: &[&str] = &[
    "in", "mut", "dyn", "impl", "as", "let", "ref", "box", "return", "else", "match", "if",
    "while", "loop", "move", "unsafe", "break",
];

/// Integer types a decode-path `as` cast may narrow into. `usize`/`isize`
/// are included: their width is platform-defined, so `u64 as usize`
/// truncates on 32-bit targets.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// One token range to scan, and what reaches it.
struct Region {
    file: usize,
    range: (usize, usize),
    /// Names the entry that reaches the range, for the finding message.
    origin: String,
    /// A decode path: `.unwrap()`/`.expect()` count as sites, T02 applies.
    decode: bool,
}

/// Runs R01 and T02 over every region the entry table reaches.
pub fn check(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for r in regions(files, graph) {
        scan(&files[r.file], &r, &mut out);
    }
    out
}

/// Resolves the entry table into the token ranges to scan.
fn regions(files: &[SourceFile], graph: &CallGraph) -> Vec<Region> {
    let mut out = Vec::new();
    let region = |file, range, origin, decode| Region {
        file,
        range,
        origin,
        decode,
    };

    // Worker entries: each spawn closure is a region of its own, and its
    // callees seed everything the worker can reach.
    let mut worker_callees = BTreeSet::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        let f = &files[n.file];
        if !f.in_crates(WORKER_CRATES) {
            continue;
        }
        for call in graph.calls[id].iter().filter(|c| c.name == "spawn") {
            let Some(closure) = parser::closure_body(f.tokens(), call.args) else {
                continue;
            };
            let origin = format!("a worker thread spawned at {}:{}", f.rel, call.line);
            out.push(region(n.file, closure, origin, false));
            for c in parser::calls_in(f.tokens(), closure) {
                if c.name != "spawn" {
                    worker_callees.extend(graph.resolve(id, &c));
                }
            }
        }
    }
    for id in graph.reachable(worker_callees) {
        let n = &graph.nodes[id];
        if files[n.file].in_crates(WORKER_CRATES) {
            let origin = format!("a worker thread, via fn `{}`", n.name);
            out.push(region(n.file, n.body, origin, false));
        }
    }

    // Decode entries: transitively inside `wire`, and the runtime fns that
    // call one directly.
    let decoders: BTreeSet<usize> = (0..graph.nodes.len())
        .filter(|&id| {
            let n = &graph.nodes[id];
            files[n.file].in_crates(&["wire"])
                && (n.name.starts_with("decode_") || n.name.starts_with("read_"))
        })
        .collect();
    for id in graph.reachable(decoders.iter().copied()) {
        let n = &graph.nodes[id];
        if files[n.file].in_crates(&["wire"]) {
            let origin = format!("a wire decode entry point, in fn `{}`", n.name);
            out.push(region(n.file, n.body, origin, true));
        }
    }
    for (id, n) in graph.nodes.iter().enumerate() {
        if !files[n.file].in_crates(&["runtime"]) {
            continue;
        }
        let calls_decoder = graph.calls[id]
            .iter()
            .any(|c| graph.resolve(id, c).iter().any(|t| decoders.contains(t)));
        if calls_decoder {
            let origin = format!("a wire decode entry point's caller `{}`", n.name);
            out.push(region(n.file, n.body, origin, true));
        }
    }
    out
}

/// Flags the panic sites (and, on decode paths, the narrowing casts) in
/// one region.
fn scan(f: &SourceFile, r: &Region, out: &mut Vec<Finding>) {
    let tokens = f.tokens();
    let (start, end) = r.range;
    for k in start..=end.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[k];
        let next_is = |c: char| tokens.get(k + 1).is_some_and(|n| n.is_punct(c));
        let ident = t.kind == TokenKind::Ident;
        let site = if ident && PANIC_MACROS.contains(&t.text.as_str()) && next_is('!') {
            Some(format!("{}!", t.text))
        } else if r.decode
            && ident
            && matches!(t.text.as_str(), "unwrap" | "expect")
            && k > 0
            && tokens[k - 1].is_punct('.')
            && next_is('(')
        {
            Some(format!(".{}()", t.text))
        } else if t.is_punct('[') && k > start && is_value_index(tokens, k) {
            Some(format!("indexing `{}[..]`", tokens[k - 1].text))
        } else {
            None
        };
        if let Some(site) = site {
            let fix = if r.decode {
                "these bytes came from a peer, and a malformed frame must surface as \
                 a WireError, not a panic; use a checked conversion/.get()"
            } else {
                "a panic here kills the worker silently — no peer-loss event, no drop \
                 accounting; return the error instead"
            };
            out.push(Finding::new(
                &f.rel,
                t.line,
                "R01",
                format!(
                    "{site} is reachable from {}: {fix}, or pragma with the proof it \
                     cannot fire",
                    r.origin
                ),
            ));
        }
        // `<expr> as <narrow-int>` — literal casts (`1 as u8`) are
        // constants, not attacker data.
        if r.decode
            && t.is_ident("as")
            && k > start
            && tokens[k - 1].kind != TokenKind::Literal
            && tokens
                .get(k + 1)
                .is_some_and(|n| NARROW_TYPES.contains(&n.text.as_str()))
        {
            out.push(Finding::new(
                &f.rel,
                t.line,
                "T02",
                format!(
                    "unchecked `as {}` cast on a path from {}: a length or count \
                     narrowed from peer-chosen bytes wraps silently; use \
                     usize::try_from / a checked conversion, or pragma with the \
                     bound that makes the cast lossless",
                    tokens[k + 1].text,
                    r.origin
                ),
            ));
        }
    }
}

/// Whether the `[` at `k` indexes a value: preceded by an identifier
/// (not a keyword), a call/group close, or an index close. Attribute
/// brackets (`#[`), macro brackets (`vec![`), slice types (`&[u8]`) and
/// array literals (after `=`/`(`/`,`) all fail the test.
fn is_value_index(tokens: &[Token], k: usize) -> bool {
    let p = &tokens[k - 1];
    match p.kind {
        TokenKind::Ident => !NON_INDEX_PREV.contains(&p.text.as_str()),
        TokenKind::Punct => p.is_punct(')') || p.is_punct(']'),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, src)| SourceFile::new(rel, src))
            .collect();
        check(&files, &CallGraph::build(&files))
    }

    fn exec(src: &str) -> Vec<Finding> {
        lint(&[("crates/exec/src/lib.rs", src)])
    }

    #[test]
    fn panic_macro_in_a_spawned_closure_is_r01() {
        let found = exec("fn run() { spawn(move || { panic!(\"boom\"); }); }");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "R01");
        assert!(found[0].message.contains("worker thread spawned at"));
    }

    #[test]
    fn worker_panics_arbitrarily_deep_are_found() {
        let found = exec(
            "fn run() { spawn(move || { a() }); }\n\
             fn a() { b(); }\nfn b() { c(); }\nfn c() { unreachable!(\"deep\"); }",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("via fn `c`"));
    }

    #[test]
    fn worker_indexing_is_r01_but_types_literals_and_unwraps_are_not() {
        // Unwraps in worker crates are clippy's (`unwrap_used`), not R01's.
        let found = exec(
            "fn run(vals: Vec<u8>) { spawn(move || { let x = vals[0]; \
             let s: &[u8] = &[1, 2]; for v in [3, 4] { eat(v); } y.unwrap(); x }); }",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("indexing `vals[..]`"));
    }

    #[test]
    fn unreached_code_debug_asserts_and_other_crates_are_exempt() {
        assert!(exec("fn setup() { panic!(\"config\"); let x = v[0]; }").is_empty());
        assert!(exec("fn run() { spawn(move || { debug_assert!(ok()); }); }").is_empty());
        let found = lint(&[
            (
                "crates/runtime/src/lib.rs",
                "fn run() { spawn(move || { drive() }); }",
            ),
            ("crates/exec/src/lib.rs", "pub fn drive() { panic!(); }"),
            ("crates/sim/src/lib.rs", "pub fn drive() { panic!(); }"),
        ]);
        // Both `drive`s are reachable (name resolution over-approximates),
        // but only the exec copy lands in a worker crate.
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].file.contains("exec"));
    }

    #[test]
    fn unwrap_and_index_reachable_from_a_decode_entry_are_r01() {
        let found = lint(&[(
            "crates/wire/src/codec.rs",
            "pub fn decode_ping(b: &[u8]) -> u64 { header(b) }\n\
             fn header(b: &[u8]) -> u64 {\n\
             u64::from_le_bytes(b[..8].try_into().unwrap()) }\n\
             pub fn encode_ping(out: &mut Vec<u8>, v: u64) { out.push(v.to_le_bytes()[0]); }",
        )]);
        // One finding for the index and the unwrap on line 3; the encoder
        // is not reached from a decode entry.
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|f| f.rule == "R01" && f.line == 3));
        assert!(found[1]
            .message
            .contains("wire decode entry point, in fn `header`"));
    }

    #[test]
    fn narrowing_cast_on_a_decode_path_is_t02_but_literals_are_exempt() {
        let found = lint(&[(
            "crates/wire/src/codec.rs",
            "pub fn decode_len(b: &[u8]) -> usize { let cap = 1 as usize; r as usize }",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "T02");
        assert!(found[0].message.contains("as usize"));
    }

    #[test]
    fn a_runtime_caller_of_a_decoder_is_scanned_itself() {
        let found = lint(&[
            (
                "crates/wire/src/frame.rs",
                "pub fn read_frame(r: &mut R) -> Result<Vec<u8>, E> { Ok(Vec::new()) }",
            ),
            (
                "crates/runtime/src/tcp.rs",
                "fn reader(r: &mut R) { let frame = read_frame(r).unwrap(); eat(frame); }",
            ),
        ]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].file.contains("runtime"));
        assert!(found[0].message.contains("caller `reader`"));
    }
}
