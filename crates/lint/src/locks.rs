//! L-rules: the lock-acquisition graph.
//!
//! **L01** extracts every `Mutex`/`RwLock` acquisition per function in
//! the lock-bearing crates, follows calls made while a guard is held
//! *transitively* over the whole-workspace [`CallGraph`] (crossing crate
//! boundaries — a runtime fn holding a lock into an exec fn that locks
//! is one edge), and flags cycles in the resulting order graph: two
//! threads interleaving opposite orders deadlock, and so does
//! re-acquiring a `std::sync::Mutex` already held (it is not reentrant).
//! Lock identities are crate-qualified (`exec/state`) so same-named
//! fields in different crates never merge into a phantom cycle.
//!
//! **L02** flags a `let`-bound guard held across a *blocking* channel
//! `send`/`recv` — directly in the hold span or anywhere in a callee the
//! span transitively reaches: a full (or empty) channel parks the thread
//! while it owns the lock, wedging every contender. `try_send` is exempt
//! — it cannot park.
//!
//! Approximations, on the safe-for-CI side: a guard bound by `let` is
//! assumed held to the end of its innermost block (drops and shadowing
//! shorten real lifetimes, so this over-approximates and may need a
//! pragma); a guard consumed as a temporary is held to its statement's
//! `;`; `match m.lock() { .. }` guards are treated as temporaries
//! (under-approximates — none exist in this tree). Transitive callee
//! facts are only collected from lock-bearing crates: the deterministic
//! crates are single-threaded state machines that hold no locks.

use crate::graph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::parser::matching_backward;
use crate::report::Finding;
use crate::{SourceFile, LOCK_CRATES};
use std::collections::{BTreeMap, BTreeSet};

/// One lock-acquisition site inside a function body.
struct Acquisition {
    /// Chain name of the lock expression: `submit_streams` for
    /// `self.submit_streams.lock()`, `DATASETS` for
    /// `DATASETS.get_or_init(..).lock()`.
    lock: String,
    /// Token index of the `.lock`/`.read`/`.write` identifier.
    idx: usize,
    /// 1-based source line of the acquisition.
    line: u32,
    /// Token index past which the guard is dead.
    hold_end: usize,
    /// Whether the guard is `let`-bound (held) rather than a temporary.
    bound: bool,
}

/// One graph node's lock acquisitions (nodes in lock-bearing files).
struct FnInfo {
    node: usize,
    acqs: Vec<Acquisition>,
}

/// Runs the L-rules over the whole file set at once, resolving calls
/// made while a guard is held transitively over the workspace graph.
pub fn check(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();

    // Lock facts per graph node, for nodes in lock-bearing files.
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut acqs_of: BTreeMap<usize, usize> = BTreeMap::new(); // node → fns idx
    for (id, n) in graph.nodes.iter().enumerate() {
        let f = &files[n.file];
        if !f.in_crates(LOCK_CRATES) {
            continue;
        }
        let has_rwlock = f.tokens().iter().any(|t| t.is_ident("RwLock"));
        acqs_of.insert(id, fns.len());
        fns.push(FnInfo {
            node: id,
            acqs: acquisitions_in(f, n.body, has_rwlock),
        });
    }

    // Crate-qualified lock name: `exec/state`. Same-named fields in
    // different crates are different locks.
    let qual = |files: &[SourceFile], node: usize, lock: &str| -> String {
        format!("{}/{}", files[graph.nodes[node].file].crate_name, lock)
    };

    // Build the acquired-while-holding edge set.
    struct Edge {
        file: String,
        line: u32,
        note: String,
    }
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    let record = |edges: &mut BTreeMap<(String, String), Edge>,
                  from: &str,
                  to: &str,
                  file: &str,
                  line: u32,
                  note: &str| {
        edges
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| Edge {
                file: file.to_string(),
                line,
                note: note.to_string(),
            });
    };
    for f in &fns {
        let rel = &files[graph.nodes[f.node].file].rel;
        for a in &f.acqs {
            let from = qual(files, f.node, &a.lock);
            for b in &f.acqs {
                if b.idx > a.idx && b.idx <= a.hold_end {
                    record(
                        &mut edges,
                        &from,
                        &qual(files, f.node, &b.lock),
                        rel,
                        b.line,
                        "",
                    );
                }
            }
            for c in &graph.calls[f.node] {
                if c.idx <= a.idx || c.idx > a.hold_end {
                    continue;
                }
                for r in graph.reachable(graph.resolve(f.node, c)) {
                    let Some(&ri) = acqs_of.get(&r) else { continue };
                    for b in &fns[ri].acqs {
                        let note = format!(" (via the call to `{}`)", c.name);
                        record(
                            &mut edges,
                            &from,
                            &qual(files, r, &b.lock),
                            rel,
                            c.line,
                            &note,
                        );
                    }
                }
            }
        }
    }

    // L01: every edge that closes a cycle, one finding per node set.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((from, to), info) in &edges {
        if from == to {
            if reported.insert(vec![from.clone()]) {
                out.push(Finding::new(
                    &info.file,
                    info.line,
                    "L01",
                    format!(
                        "lock `{from}` acquired again while already held{}: \
                         std::sync::Mutex is not reentrant — this self-deadlocks",
                        info.note
                    ),
                ));
            }
            continue;
        }
        if reaches(&edges, to, from) {
            let mut cycle = vec![from.clone(), to.clone()];
            cycle.sort();
            if reported.insert(cycle) {
                out.push(Finding::new(
                    &info.file,
                    info.line,
                    "L01",
                    format!(
                        "lock-order cycle: `{from}` is held while acquiring `{to}` \
                         here{}, but another path acquires them in the opposite \
                         order — two threads interleaving these orders deadlock; \
                         pick one global order",
                        info.note
                    ),
                ));
            }
        }
    }

    // L02: blocking channel ops inside a held-guard span, directly or in
    // any transitively reached callee.
    for f in &fns {
        let file = &files[graph.nodes[f.node].file];
        let tokens = file.tokens();
        for a in f.acqs.iter().filter(|a| a.bound) {
            for k in a.idx + 1..=a.hold_end.min(tokens.len().saturating_sub(1)) {
                if let Some(op) = blocking_chan_op(tokens, k) {
                    out.push(Finding::new(
                        &file.rel,
                        tokens[k].line,
                        "L02",
                        format!(
                            "blocking channel `{op}` while holding lock `{}`: a \
                             full/empty channel parks this thread with the lock \
                             owned, wedging every contender; drop the guard first \
                             or use try_send with drop accounting",
                            a.lock
                        ),
                    ));
                }
            }
            for c in &graph.calls[f.node] {
                if c.idx <= a.idx || c.idx > a.hold_end {
                    continue;
                }
                // A blocking method call is already flagged directly above.
                if c.is_method && blocking_chan_op(tokens, c.idx).is_some() {
                    continue;
                }
                let hit = graph
                    .reachable(graph.resolve(f.node, c))
                    .into_iter()
                    .filter(|r| *r != f.node)
                    .filter_map(|r| acqs_of.get(&r).map(|&ri| &fns[ri]))
                    .find_map(|callee| {
                        let cf = &files[graph.nodes[callee.node].file];
                        let ct = cf.tokens();
                        let (b0, b1) = graph.nodes[callee.node].body;
                        (b0..=b1.min(ct.len().saturating_sub(1)))
                            .find_map(|j| blocking_chan_op(ct, j))
                            .map(|op| (op.to_string(), graph.nodes[callee.node].name.clone()))
                    });
                if let Some((op, in_fn)) = hit {
                    out.push(Finding::new(
                        &file.rel,
                        c.line,
                        "L02",
                        format!(
                            "the call to `{}` reaches a blocking channel `{op}` \
                             (in fn `{in_fn}`) while lock `{}` is held: a \
                             full/empty channel parks this thread with the lock \
                             owned, wedging every contender; drop the guard \
                             before the call",
                            c.name, a.lock
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Whether `from` reaches `to` by following the edge set. The graphs are
/// a handful of locks, so a plain worklist beats anything clever.
fn reaches<V>(edges: &BTreeMap<(String, String), V>, from: &str, to: &str) -> bool {
    let mut stack = vec![from.to_string()];
    let mut visited: BTreeSet<String> = BTreeSet::new();
    while let Some(n) = stack.pop() {
        for (a, b) in edges.keys() {
            if a == &n {
                if b == to {
                    return true;
                }
                if visited.insert(b.clone()) {
                    stack.push(b.clone());
                }
            }
        }
    }
    false
}

/// `.send(` / `.recv(` / `.recv_timeout(` at token `k` — the blocking
/// channel operations (`try_send` is a distinct identifier and exempt).
fn blocking_chan_op(tokens: &[Token], k: usize) -> Option<&str> {
    let t = tokens.get(k)?;
    if t.kind != TokenKind::Ident {
        return None;
    }
    if !matches!(t.text.as_str(), "send" | "recv" | "recv_timeout") {
        return None;
    }
    if k == 0 || !tokens[k - 1].is_punct('.') {
        return None;
    }
    if !tokens.get(k + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    Some(t.text.as_str())
}

/// Collects the lock acquisitions in one function body.
fn acquisitions_in(file: &SourceFile, body: (usize, usize), has_rwlock: bool) -> Vec<Acquisition> {
    let tokens = file.tokens();
    let mut out = Vec::new();
    for k in body.0..=body.1.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[k];
        if t.kind != TokenKind::Ident || k == 0 || !tokens[k - 1].is_punct('.') {
            continue;
        }
        let open_next = tokens.get(k + 1).is_some_and(|n| n.is_punct('('));
        let zero_args = open_next && tokens.get(k + 2).is_some_and(|n| n.is_punct(')'));
        let is_acq = match t.text.as_str() {
            "lock" => open_next,
            // `.read()`/`.write()` collide with io::Read/Write; only the
            // zero-arg form in a file that actually names RwLock counts.
            "read" | "write" => has_rwlock && zero_args,
            _ => false,
        };
        if !is_acq {
            continue;
        }
        let lock = chain_name(tokens, k - 1).unwrap_or_else(|| "<expr>".to_string());
        let bound = let_bound(tokens, body.0, k);
        let hold_end = if bound {
            file.parsed
                .enclosing_block(k)
                .map(|b| b.close)
                .unwrap_or(body.1)
        } else {
            (k..=body.1)
                .find(|&j| tokens[j].is_punct(';'))
                .unwrap_or(body.1)
        };
        out.push(Acquisition {
            lock,
            idx: k,
            line: t.line,
            hold_end,
            bound,
        });
    }
    out
}

/// The field/variable chain naming a lock expression, walking left from
/// the `.` before the acquisition method: root-first, `self` dropped,
/// call segments excluded (they transform, the fields identify).
fn chain_name(tokens: &[Token], dot_idx: usize) -> Option<String> {
    let mut parts: Vec<String> = Vec::new(); // leaf → root
    let mut sep = dot_idx;
    loop {
        if sep == 0 {
            break;
        }
        let mut p = sep - 1;
        // Skip trailing `(...)` (a call — segment excluded) or `[...]`
        // (an index — the indexed ident still identifies the lock).
        let mut saw_call = false;
        while p > 0 && (tokens[p].is_punct(')') || tokens[p].is_punct(']')) {
            if tokens[p].is_punct(')') {
                p = matching_backward(tokens, p, '(', ')')?;
                saw_call = true;
            } else {
                p = matching_backward(tokens, p, '[', ']')?;
            }
            if p == 0 {
                return None;
            }
            p -= 1;
        }
        let t = &tokens[p];
        if t.kind != TokenKind::Ident {
            break;
        }
        if !saw_call && t.text != "self" {
            parts.push(t.text.clone());
        }
        if p >= 1 && (tokens[p - 1].is_punct('.') || tokens[p - 1].is_op("::")) {
            sep = p - 1;
            continue;
        }
        break;
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    Some(parts.join("."))
}

/// Whether the statement holding token `k` starts with `let` (searching
/// back to the nearest statement boundary).
fn let_bound(tokens: &[Token], body_start: usize, k: usize) -> bool {
    let mut j = k;
    while j > body_start {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.is_ident("let") {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter()
            .map(|(rel, src)| SourceFile::new(rel, src))
            .collect()
    }

    fn check(fs: &[SourceFile]) -> Vec<Finding> {
        let graph = CallGraph::build(fs);
        super::check(fs, &graph)
    }

    #[test]
    fn opposite_order_acquisitions_are_a_cycle() {
        let fs = files(&[(
            "crates/runtime/src/lib.rs",
            "fn a(&self) { let g = self.x.lock(); let h = self.y.lock(); }\n\
             fn b(&self) { let g = self.y.lock(); let h = self.x.lock(); }",
        )]);
        let found = check(&fs);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "L01");
        assert!(found[0].message.contains("cycle"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let fs = files(&[(
            "crates/runtime/src/lib.rs",
            "fn a(&self) { let g = self.x.lock(); let h = self.y.lock(); }\n\
             fn b(&self) { let g = self.x.lock(); let h = self.y.lock(); }",
        )]);
        assert!(check(&fs).is_empty());
    }

    #[test]
    fn relock_of_the_same_mutex_is_flagged() {
        let fs = files(&[(
            "crates/exec/src/lib.rs",
            "fn a(&self) { let g = self.x.lock(); let h = self.x.lock(); }",
        )]);
        let found = check(&fs);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("not reentrant"));
    }

    #[test]
    fn cycle_through_an_inlined_call_is_found() {
        let fs = files(&[(
            "crates/runtime/src/lib.rs",
            "impl Node { fn a(&self) { let g = self.x.lock(); self.takes_y(); }\n\
             fn takes_y(&self) { let g = self.y.lock(); }\n\
             fn b(&self) { let g = self.y.lock(); let h = self.x.lock(); } }",
        )]);
        let found = check(&fs);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("cycle"));
    }

    #[test]
    fn cycle_through_a_transitive_cross_crate_call_is_found() {
        // runtime/X is held into exec/Y two calls deep across the crate
        // boundary, and exec/Y is held back into runtime/X — a cycle no
        // per-crate one-level analysis can see.
        let fs = files(&[
            (
                "crates/runtime/src/lib.rs",
                "fn a() { let g = X.lock(); hop(); }\n\
                 pub fn back() { let h = X.lock(); }",
            ),
            (
                "crates/exec/src/lib.rs",
                "pub fn hop() { deep(); }\n\
                 fn deep() { let g = Y.lock(); }\n\
                 fn rev() { let g = Y.lock(); back(); }",
            ),
        ]);
        let found = check(&fs);
        assert!(
            found
                .iter()
                .any(|f| f.rule == "L01" && f.message.contains("cycle")),
            "{found:?}"
        );
    }

    #[test]
    fn same_lock_name_in_different_crates_is_not_a_cycle() {
        let fs = files(&[
            (
                "crates/runtime/src/lib.rs",
                "fn a(&self) { let g = self.state.lock(); let h = self.out.lock(); }",
            ),
            (
                "crates/exec/src/lib.rs",
                "fn z(&self) { let g = self.out.lock(); let h = self.state.lock(); }",
            ),
        ]);
        assert!(check(&fs).is_empty(), "{:?}", check(&fs));
    }

    #[test]
    fn send_under_a_held_guard_is_l02() {
        let fs = files(&[(
            "crates/exec/src/lib.rs",
            "fn a(&self) { let g = self.state.lock(); self.tx.send(1); }",
        )]);
        let found = check(&fs);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "L02");
        assert!(found[0].message.contains("state"));
    }

    #[test]
    fn temporary_guard_and_try_send_are_clean() {
        let fs = files(&[(
            "crates/exec/src/lib.rs",
            "fn a(&self) { self.state.lock().insert(1); self.tx.send(1); }\n\
             fn b(&self) { let g = self.state.lock(); self.tx.try_send(1); }",
        )]);
        assert!(check(&fs).is_empty(), "{:?}", check(&fs));
    }

    #[test]
    fn non_lock_crates_are_out_of_scope() {
        let fs = files(&[(
            "crates/protocol/src/lib.rs",
            "fn a(&self) { let g = self.x.lock(); let h = self.y.lock(); }\n\
             fn b(&self) { let g = self.y.lock(); let h = self.x.lock(); }",
        )]);
        assert!(check(&fs).is_empty());
    }
}
