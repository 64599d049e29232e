//! C03 and Z02: rules about one call expression.
//!
//! **C03** — a `.try_send(..)` whose `Result` is thrown away: a trailing
//! `;`, `.ok();`, `let _ =` or `_ =`. `try_send` exists *because* the
//! channel may be full; discarding the `Err(Full)` turns backpressure into
//! silent message loss, which in this codebase means a vote that never
//! leaves the replica. Scope: every crate's production source.
//!
//! **Z02** — `Vec::from(..)`, in any of its spellings (`Vec::<T>::from`,
//! `<Vec<T>>::from`), in a hot-path crate. Payload bytes travel by `Arc`
//! handle; a deep copy silently reintroduces the per-fanout allocation the
//! zero-copy message plane removed. `clippy.toml` carries the `.to_vec()` /
//! `.to_owned()` half of this rule, but a `From` impl has no path clippy
//! can name.

use crate::graph::CallGraph;
use crate::lexer::Token;
use crate::parser::{matching_backward, Call};
use crate::report::Finding;
use crate::{SourceFile, HOT_PATH_CRATES};

/// Runs C03 and Z02 over every call in every production function.
pub fn check(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        let f = &files[n.file];
        if !f.production {
            continue;
        }
        for c in &graph.calls[id] {
            if c.name == "try_send" && c.is_method && discarded(f.tokens(), c) {
                out.push(Finding::new(
                    &f.rel,
                    c.line,
                    "C03",
                    "try_send result discarded: a shed message must hit a drop counter \
                     (or be handled), not vanish — check is_err() and account for it",
                ));
            }
            if c.name == "from" && f.in_crates(HOT_PATH_CRATES) && is_vec_from(f.tokens(), c.idx) {
                out.push(Finding::new(
                    &f.rel,
                    c.line,
                    "Z02",
                    "Vec::from on a zero-copy hot path: payload bytes must travel by Arc \
                     handle, not by deep copy",
                ));
            }
        }
    }
    out
}

/// Whether the `Result` of the `.try_send(..)` call `c` is thrown away.
fn discarded(tokens: &[Token], c: &Call) -> bool {
    let at = |k: usize, p: char| tokens.get(k).is_some_and(|t| t.is_punct(p));
    let start = (0..c.idx)
        .rev()
        .find(|&j| at(j, ';') || at(j, '{') || at(j, '}'))
        .map_or(0, |j| j + 1);
    // `let _ = tx.try_send(x);` and `_ = tx.try_send(x);`.
    let wild = if tokens[start].is_ident("let") {
        start + 1
    } else {
        start
    };
    if tokens[wild].is_ident("_") && at(wild + 1, '=') {
        return true;
    }
    // Bound or assigned results are observed.
    if tokens[start].is_ident("let") || (start..c.idx).any(|j| at(j, '=')) {
        return false;
    }
    // `tx.try_send(x);` and `tx.try_send(x).ok();`.
    let after = c.args.1 + 1;
    at(after, ';')
        || (at(after, '.')
            && tokens.get(after + 1).is_some_and(|t| t.is_ident("ok"))
            && at(after + 4, ';'))
}

/// Whether the `from` at `i` is `Vec::from(`, `Vec::<T>::from(` or
/// `<Vec<T>>::from(`.
fn is_vec_from(tokens: &[Token], i: usize) -> bool {
    if i < 2 || !tokens[i - 1].is_op("::") {
        return false;
    }
    let mut ty = i - 2;
    if tokens[ty].is_punct('>') {
        let Some(open) = matching_backward(tokens, ty, '<', '>') else {
            return false;
        };
        if open >= 2 && tokens[open - 1].is_op("::") {
            ty = open - 2; // the turbofish `Vec::<T>`
        } else {
            ty = open + 1; // the qualified path `<Vec<T>>`
        }
    }
    tokens[ty].is_ident("Vec")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<String> {
        let files = vec![SourceFile::new(rel, src)];
        check(&files, &CallGraph::build(&files))
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn every_discard_shape_is_c03() {
        for body in [
            "tx.try_send(1);",
            "let _ = tx.try_send(1);",
            "_ = tx.try_send(1);",
            "tx.try_send(1).ok();",
        ] {
            let found = lint(
                "crates/runtime/src/lib.rs",
                &format!("fn a(tx: &S) {{ {body} }}"),
            );
            assert_eq!(found, ["C03"], "{body}");
        }
    }

    #[test]
    fn checked_try_send_and_test_code_are_clean() {
        let src = "fn a(&mut self) { if self.tx.try_send(1).is_err() { self.drops += 1; } \
                   let sent = self.tx.try_send(2); self.note(sent); }\n\
                   #[cfg(test)] mod t { fn b(tx: &S) { tx.try_send(1); } }";
        assert!(lint("crates/runtime/src/lib.rs", src).is_empty());
    }

    #[test]
    fn every_vec_from_spelling_is_z02_on_the_hot_path_only() {
        for call in ["Vec::from(b)", "Vec::<u8>::from(b)", "<Vec<u8>>::from(b)"] {
            let src = format!("fn a(b: &[u8]) -> Vec<u8> {{ {call} }}");
            assert_eq!(lint("crates/types/src/lib.rs", &src), ["Z02"], "{call}");
            assert!(lint("crates/bench/src/lib.rs", &src).is_empty(), "{call}");
        }
        let near_misses = "fn a(b: u8) -> u64 { let x = u64::from(b); String::from(\"s\"); \
                           <u64>::from(b) + x }";
        assert!(lint("crates/types/src/lib.rs", near_misses).is_empty());
    }
}
