//! N01: determinism taint over the workspace call graph.
//!
//! `clippy.toml` bans wall-clock and entropy *types* from the
//! deterministic crates, but `runtime` sits outside them and reads the
//! clock freely (workload timing, timer deadlines), and an `#[expect]`
//! excuses key generation in `crypto`. **N01** proves those values stay out
//! of the protocol's deterministic surface: a value whose dataflow
//! originates at `Instant::now`, `.elapsed()` or an RNG must not reach
//! `Message` construction, wire encoding
//! (`encode_*`/`write_frame`/`write_message_body`), or `state_digest`
//! input. Taint is tracked per function (let-bindings and assignments to
//! a fixpoint) and across calls via return summaries computed bottom-up
//! over the graph's SCC condensation — a function returning
//! `started.elapsed()` taints its callers' bindings. Struct-literal
//! returns carry *field-level* taint (`ClusterSummary { elapsed, .. }`
//! taints only reads of `.elapsed`), and method calls on a
//! field-tainted receiver do not propagate it — `KeyStore::generate`'s
//! entropy stays inside the keys unless a tainted field is read out.

use crate::graph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::parser::matching;
use crate::report::Finding;
use crate::{SourceFile, HOT_PATH_CRATES};
use std::collections::{BTreeMap, BTreeSet};

/// Call names that hand their arguments to the deterministic surface.
fn is_n_sink_call(name: &str) -> bool {
    name.starts_with("encode_")
        || matches!(
            name,
            "write_frame"
                | "write_message_body"
                | "write_reply_body"
                | "state_digest"
                | "mutation_hash"
        )
}

/// What a function's return value carries.
#[derive(Clone, PartialEq, Eq)]
enum Summary {
    Clean,
    /// The whole return value is nondeterministic.
    Full,
    /// A struct literal return whose named fields are tainted.
    Fields(BTreeSet<String>),
}

/// Runs N01: return summaries bottom-up, then every sink in the hot-path
/// crates.
pub fn check(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    // Return summaries, bottom-up: Tarjan emits SCCs callees-first, so
    // every callee summary exists before its callers are analysed. Within
    // one SCC (recursion) a second sweep reaches the fixpoint — taint
    // lattices this small (Clean < Fields < Full) need at most two.
    let mut summaries: Vec<Summary> = vec![Summary::Clean; graph.nodes.len()];
    for scc in graph.sccs_bottom_up() {
        for _ in 0..2 {
            for &id in scc {
                summaries[id] = analyse(files, graph, id, &summaries).1;
            }
            if scc.len() == 1 {
                break;
            }
        }
    }

    // Sinks, per node in the sink crates.
    for (id, n) in graph.nodes.iter().enumerate() {
        let f = &files[n.file];
        if !f.in_crates(HOT_PATH_CRATES) {
            continue;
        }
        let (taint, _) = analyse(files, graph, id, &summaries);
        let tokens = f.tokens();
        let ctx = Ctx {
            graph,
            node: id,
            taint: &taint,
            summaries: &summaries,
        };

        // Sink 1: Message construction in expression position.
        let mut k = n.body.0;
        while k + 2 <= n.body.1 {
            if tokens[k].is_ident("Message")
                && tokens[k + 1].is_op("::")
                && tokens[k + 2].kind == TokenKind::Ident
                && !is_arm_pattern(tokens, k + 2, n.body.1)
            {
                let variant = &tokens[k + 2].text;
                let group = tokens.get(k + 3).and_then(|g| {
                    if g.is_punct('{') {
                        matching(tokens, k + 3, '{', '}').map(|c| (k + 3, c))
                    } else if g.is_punct('(') {
                        matching(tokens, k + 3, '(', ')').map(|c| (k + 3, c))
                    } else {
                        None
                    }
                });
                if let Some(group) = group {
                    if let Some(why) = expr_taint(tokens, group, &ctx) {
                        out.push(Finding::new(
                            &f.rel,
                            tokens[k + 2].line,
                            "N01",
                            format!(
                                "nondeterministic value ({why}) flows into \
                                 Message::{variant}: replicas would build \
                                 divergent messages from identical inputs, \
                                 breaking the simulator/cluster equivalence; \
                                 keep timing and entropy out of protocol \
                                 messages, or pragma with the proof the field \
                                 never enters consensus state"
                            ),
                        ));
                    }
                    k = group.1 + 1;
                    continue;
                }
            }
            k += 1;
        }

        // Sink 2: wire-encoding / digest calls.
        for c in &graph.calls[id] {
            if !is_n_sink_call(&c.name) {
                continue;
            }
            if let Some(why) = expr_taint(tokens, (c.args.0 + 1, c.args.1.saturating_sub(1)), &ctx)
            {
                out.push(Finding::new(
                    &f.rel,
                    c.line,
                    "N01",
                    format!(
                        "nondeterministic value ({why}) is passed to `{}`: \
                         wire bytes and digests must be pure functions of \
                         protocol state, or replicas diverge; keep timing and \
                         entropy out of encoded payloads, or pragma with the \
                         proof the argument is deterministic",
                        c.name
                    ),
                ));
            }
        }
    }
    out
}

/// Whether the variant name at token `v` sits in match-arm pattern
/// position — an optional binder group, any number of `|` alternates, an
/// optional `if` guard, then `=>` — which tells a destructuring arm from a
/// `Message::X { .. }` construction.
fn is_arm_pattern(tokens: &[Token], v: usize, end: usize) -> bool {
    let mut p = v + 1;
    loop {
        if p > end {
            return false;
        }
        // Skip one binder group if present.
        if tokens[p].is_punct('{') || tokens[p].is_punct('(') {
            let (o, c) = if tokens[p].is_punct('{') {
                ('{', '}')
            } else {
                ('(', ')')
            };
            match matching(tokens, p, o, c) {
                Some(close) => p = close + 1,
                None => return false,
            }
            if p > end {
                return false;
            }
        }
        if tokens[p].is_op("=>") {
            return true;
        }
        if tokens[p].is_punct('|') {
            // Alternate: skip its `A :: B :: C` path, then loop back to
            // handle its binder group and whatever follows.
            p += 1;
            while p < end && tokens[p].kind == TokenKind::Ident && tokens[p + 1].is_op("::") {
                p += 2;
            }
            if p <= end && tokens[p].kind == TokenKind::Ident {
                p += 1;
            }
            continue;
        }
        if tokens[p].is_ident("if") {
            // Guard: scan to `=>` at group depth 0. A depth-0 `{` or `;`
            // means this was never a pattern.
            let mut d = 0i32;
            while p <= end {
                let t = &tokens[p];
                if t.is_punct('(') || t.is_punct('[') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    d -= 1;
                } else if d == 0 && t.is_op("=>") {
                    return true;
                } else if d == 0 && (t.is_punct('{') || t.is_punct(';')) {
                    return false;
                }
                p += 1;
            }
            return false;
        }
        return false;
    }
}

/// Per-expression taint context: the node's local taint plus the global
/// summaries for call returns.
struct Ctx<'a> {
    graph: &'a CallGraph,
    node: usize,
    taint: &'a Taint,
    summaries: &'a [Summary],
}

/// One function's local taint state.
#[derive(Default)]
struct Taint {
    /// Fully tainted local bindings.
    idents: BTreeSet<String>,
    /// Field-tainted bindings: reads of `name.field` are tainted.
    fields: BTreeMap<String, BTreeSet<String>>,
}

/// Whether token `k` is a nondeterminism source.
fn source_at(tokens: &[Token], k: usize) -> bool {
    let t = &tokens[k];
    if t.kind != TokenKind::Ident {
        return false;
    }
    let callish = |k: usize| tokens.get(k + 1).is_some_and(|n| n.is_punct('('));
    match t.text.as_str() {
        "SystemTime" | "OsRng" => true,
        "now" => k >= 2 && tokens[k - 1].is_op("::") && tokens[k - 2].is_ident("Instant"),
        "elapsed" => k >= 1 && tokens[k - 1].is_punct('.') && callish(k),
        "thread_rng" | "from_entropy" => callish(k),
        "random" => k >= 2 && tokens[k - 1].is_op("::") && tokens[k - 2].is_ident("rand"),
        _ => false,
    }
}

/// Whether any token in the inclusive range carries taint; returns a
/// short reason for the finding message.
fn expr_taint(tokens: &[Token], range: (usize, usize), ctx: &Ctx) -> Option<String> {
    let (start, end) = range;
    if start > end {
        return None;
    }
    for k in start..=end.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[k];
        if source_at(tokens, k) {
            return Some(format!("`{}`", t.text));
        }
        if t.kind == TokenKind::Ident && ctx.taint.idents.contains(&t.text) {
            // An ident use — but not a struct-literal field *name*
            // (`at: clean_value` must not match a tainted `at` binding).
            let is_field_label = tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && !tokens.get(k + 1).is_some_and(|n| n.is_op("::"));
            // Shorthand struct fields (`Foo { nanos }`) ARE uses; labels
            // with values are not. A label is followed by `:` then the
            // value expression.
            if !is_field_label {
                return Some(format!("binding `{}`", t.text));
            }
        }
        // Field-taint read: `x.field` with field in x's tainted set.
        if t.kind == TokenKind::Ident && k + 2 <= end && tokens[k + 1].is_punct('.') {
            if let Some(fields) = ctx.taint.fields.get(&t.text) {
                let fname = &tokens[k + 2];
                if fname.kind == TokenKind::Ident && fields.contains(&fname.text) {
                    return Some(format!("`{}.{}`", t.text, fname.text));
                }
            }
        }
    }
    // Calls whose return summary is Full.
    for c in &ctx.graph.calls[ctx.node] {
        if c.idx < start || c.idx > end {
            continue;
        }
        for t in ctx.graph.resolve(ctx.node, c) {
            if ctx.summaries[t] == Summary::Full {
                return Some(format!("return of `{}`", c.name));
            }
        }
    }
    None
}

/// Computes one function's local taint (to a fixpoint) and its return
/// summary given the current global summaries.
fn analyse(
    files: &[SourceFile],
    graph: &CallGraph,
    id: usize,
    summaries: &[Summary],
) -> (Taint, Summary) {
    let n = &graph.nodes[id];
    let tokens = files[n.file].tokens();
    let (b0, b1) = n.body;
    let mut taint = Taint::default();

    for _ in 0..4 {
        let before = (taint.idents.len(), taint.fields.len());
        let mut k = b0;
        while k < b1 {
            // `let [mut] name ... = expr ;`
            if tokens[k].is_ident("let") {
                let mut p = k + 1;
                if tokens.get(p).is_some_and(|t| t.is_ident("mut")) {
                    p += 1;
                }
                let name = match tokens.get(p) {
                    Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
                    _ => {
                        k += 1;
                        continue;
                    }
                };
                // Find the `=` (at group depth 0 from the let) and the
                // statement-ending `;`.
                if let Some((eq, semi)) = let_rhs(tokens, p, b1) {
                    let ctx = Ctx {
                        graph,
                        node: id,
                        taint: &taint,
                        summaries,
                    };
                    let rhs = (eq + 1, semi.saturating_sub(1));
                    if expr_taint(tokens, rhs, &ctx).is_some() {
                        taint.idents.insert(name);
                    } else {
                        let fields = fields_taint(tokens, rhs, graph, id, summaries, &taint);
                        if !fields.is_empty() {
                            taint.fields.entry(name).or_default().extend(fields);
                        }
                    }
                    k = semi + 1;
                    continue;
                }
            }
            // Plain reassignment at a statement start: `name = expr ;`
            // (the lexer never merges `==`, so equality shows as `= =`).
            if tokens[k].kind == TokenKind::Ident
                && k > b0
                && (tokens[k - 1].is_punct(';')
                    || tokens[k - 1].is_punct('{')
                    || tokens[k - 1].is_punct('}'))
                && tokens.get(k + 1).is_some_and(|t| t.is_punct('='))
                && !tokens.get(k + 2).is_some_and(|t| t.is_punct('='))
            {
                if let Some(semi) = (k + 2..=b1).find(|&j| tokens[j].is_punct(';')) {
                    let ctx = Ctx {
                        graph,
                        node: id,
                        taint: &taint,
                        summaries,
                    };
                    if expr_taint(tokens, (k + 2, semi.saturating_sub(1)), &ctx).is_some() {
                        taint.idents.insert(tokens[k].text.clone());
                    }
                    k = semi + 1;
                    continue;
                }
            }
            k += 1;
        }
        if (taint.idents.len(), taint.fields.len()) == before {
            break;
        }
    }

    // Return summary: explicit `return expr;` then the tail expression.
    let ctx = Ctx {
        graph,
        node: id,
        taint: &taint,
        summaries,
    };
    let mut k = b0 + 1;
    while k < b1 {
        if tokens[k].is_ident("return") {
            let semi = (k + 1..=b1)
                .find(|&j| tokens[j].is_punct(';'))
                .unwrap_or(b1);
            if expr_taint(tokens, (k + 1, semi.saturating_sub(1)), &ctx).is_some() {
                return (taint, Summary::Full);
            }
            k = semi + 1;
            continue;
        }
        k += 1;
    }
    if let Some(tail) = tail_expr(tokens, (b0, b1)) {
        // A struct-literal tail carries field-level taint only.
        if let Some(fields) = struct_literal_fields(tokens, tail, graph, id, summaries, &taint) {
            return (
                taint,
                if fields.is_empty() {
                    Summary::Clean
                } else {
                    Summary::Fields(fields)
                },
            );
        }
        if expr_taint(tokens, tail, &ctx).is_some() {
            return (taint, Summary::Full);
        }
    }
    (taint, Summary::Clean)
}

/// For a `let` starting at binder token `p`: the indices of its `=` and
/// terminating `;`, both at group depth 0 relative to the binding.
fn let_rhs(tokens: &[Token], p: usize, end: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut eq = None;
    for (k, t) in tokens.iter().enumerate().take(end + 1).skip(p) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && eq.is_none() && t.is_punct('=') {
            eq = Some(k);
        } else if depth == 0 && t.is_punct(';') {
            return eq.map(|e| (e, k));
        }
        if depth < 0 {
            return None;
        }
    }
    None
}

/// The function body's tail expression: tokens after the last top-level
/// `;` (or `}` of a trailing-statement block), up to the closing brace.
fn tail_expr(tokens: &[Token], body: (usize, usize)) -> Option<(usize, usize)> {
    let (b0, b1) = body;
    if b1 <= b0 + 1 {
        return None;
    }
    let mut depth = 0i32;
    let mut last_stmt_end = b0;
    for (k, t) in tokens.iter().enumerate().take(b1).skip(b0 + 1) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            last_stmt_end = k;
        }
    }
    if last_stmt_end + 1 >= b1 {
        return None;
    }
    Some((last_stmt_end + 1, b1 - 1))
}

/// Field-level taint a `let` RHS confers on its binding: the tainted
/// fields of a struct-literal RHS, or the `Fields` summary of a call
/// the RHS resolves to (`let o = run_lane();`).
fn fields_taint(
    tokens: &[Token],
    range: (usize, usize),
    graph: &CallGraph,
    node: usize,
    summaries: &[Summary],
    taint: &Taint,
) -> BTreeSet<String> {
    if let Some(fields) = struct_literal_fields(tokens, range, graph, node, summaries, taint) {
        return fields;
    }
    let mut out = BTreeSet::new();
    for c in &graph.calls[node] {
        if c.idx < range.0 || c.idx > range.1 {
            continue;
        }
        for t in graph.resolve(node, c) {
            if let Summary::Fields(fields) = &summaries[t] {
                out.extend(fields.iter().cloned());
            }
        }
    }
    out
}

/// If the expression is a struct literal `Name { f1: e1, f2, .. }`,
/// returns the set of tainted field names (empty set = clean literal);
/// `None` means it is not a struct literal.
fn struct_literal_fields(
    tokens: &[Token],
    range: (usize, usize),
    graph: &CallGraph,
    node: usize,
    summaries: &[Summary],
    taint: &Taint,
) -> Option<BTreeSet<String>> {
    let (start, end) = range;
    // `Name {` or `path :: Name {`.
    let mut k = start;
    if tokens.get(k)?.kind != TokenKind::Ident {
        return None;
    }
    while k < end && tokens[k + 1].is_op("::") {
        k += 2;
    }
    if tokens.get(k)?.kind != TokenKind::Ident
        || !tokens[k]
            .text
            .chars()
            .next()
            .is_some_and(char::is_uppercase)
    {
        return None;
    }
    let open = k + 1;
    if !tokens.get(open).is_some_and(|t| t.is_punct('{')) {
        return None;
    }
    let close = matching(tokens, open, '{', '}')?;
    if close != end {
        return None;
    }

    let ctx = Ctx {
        graph,
        node,
        taint,
        summaries,
    };
    let mut fields = BTreeSet::new();
    let mut p = open + 1;
    while p < close {
        let t = &tokens[p];
        if t.kind != TokenKind::Ident {
            p += 1;
            continue;
        }
        let name = t.text.clone();
        // Value range: to the `,` at this depth (or the closing brace).
        let has_value = tokens.get(p + 1).is_some_and(|n| n.is_punct(':'));
        let vstart = if has_value { p + 2 } else { p };
        let mut depth = 0i32;
        let mut vend = close - 1;
        for (q, t) in tokens.iter().enumerate().take(close).skip(vstart) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(',') {
                vend = q - 1;
                break;
            }
            vend = q;
        }
        if expr_taint(tokens, (vstart, vend), &ctx).is_some() {
            fields.insert(name);
        }
        p = vend + 2;
    }
    Some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, src)| SourceFile::new(rel, src))
            .collect();
        let graph = CallGraph::build(&files);
        check(&files, &graph)
    }

    #[test]
    fn clock_value_into_message_construction_is_n01() {
        let found = lint(&[(
            "crates/runtime/src/lib.rs",
            "fn stamp(&mut self) { let t = Instant::now(); \
             self.out.push(Message::Tick { at: t }); }",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "N01");
        assert!(found[0].message.contains("Message::Tick"));
    }

    #[test]
    fn taint_flows_through_return_summaries_across_files() {
        let found = lint(&[
            (
                "crates/runtime/src/clock.rs",
                "impl Pacer { pub fn budget(&self) -> u64 { \
                 self.started.elapsed().as_nanos() as u64 } }",
            ),
            (
                "crates/runtime/src/lib.rs",
                "impl Node { fn beat(&mut self) { let b = self.pacer.budget(); \
                 self.tx.push(encode_ping(b)); } }",
            ),
        ]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "N01");
        assert!(found[0].message.contains("encode_ping"));
    }

    #[test]
    fn struct_field_taint_does_not_leak_through_the_receiver() {
        // run_lane-shaped: the outcome struct carries tainted timer fields,
        // but reading a *clean* field of it must stay clean.
        let found = lint(&[(
            "crates/exec/src/lib.rs",
            "fn run_lane() -> LaneOutcome { let started = Instant::now(); \
             let results = compute(); \
             LaneOutcome { results, busy_nanos: started.elapsed() } }\n\
             fn compute() -> u64 { 7 }\n\
             fn publish(&mut self) { let o = run_lane(); \
             self.q.push(Message::Done { r: o.results }); }",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn reading_a_tainted_field_into_a_sink_is_n01() {
        let found = lint(&[(
            "crates/exec/src/lib.rs",
            "fn run_lane() -> LaneOutcome { let started = Instant::now(); \
             LaneOutcome { busy_nanos: started.elapsed() } }\n\
             fn publish(&mut self) { let o = run_lane(); \
             self.q.push(Message::Done { t: o.busy_nanos }); }",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "N01");
        assert!(found[0].message.contains("busy_nanos"));
    }

    #[test]
    fn match_arm_patterns_are_not_constructions() {
        // `at` is tainted, so every arm below would be a finding if it
        // were read as a construction; only the pushed message is one.
        let found = lint(&[(
            "crates/core/src/engine.rs",
            "fn on_message(&mut self, m: &Message) { let at = Instant::now(); match m {\n\
             Message::Tick { at } | Message::Tock(at) => self.note(at),\n\
             Message::Tuck { at } if at > 0 => {}\n\
             _ => self.out.push(Message::Tock(at)), } }",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn state_digest_with_tainted_arg_is_n01() {
        let found = lint(&[(
            "crates/exec/src/lib.rs",
            "fn snap(&self) -> Digest { let salt = rand::random(); \
             state_digest(self.store, salt) }\nfn state_digest(s: S, x: u64) -> Digest { D }",
        )]);
        assert!(
            found
                .iter()
                .any(|f| f.rule == "N01" && f.message.contains("state_digest")),
            "{found:?}"
        );
    }
}
