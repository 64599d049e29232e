//! A lightweight recursive-descent parse layer over the lexer.
//!
//! The analyses need *structure*: which function a token belongs to,
//! where its enclosing block ends, what a function calls, and which
//! closure is handed to a `spawn`. This module parses the token stream
//! into exactly that much tree — function items with body ranges, the
//! block nesting, call expressions, and closure bodies — and no more.
//! It never resolves types, and malformed input degrades to fewer items,
//! never a panic (rustc rejects such files anyway, so precision on them
//! is worthless).

use crate::lexer::{Token, TokenKind};

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Body token range: indices of the opening `{` and its matching `}`
    /// (inclusive). `None` for bodyless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// The self type of the enclosing `impl` block, if any: `Reader` for a
    /// fn inside `impl Reader` or `impl Codec for Reader`. The call graph
    /// keys method resolution on this.
    pub owner: Option<String>,
}

/// One brace pair `{ ... }` of any kind (fn body, match body, struct
/// literal, ...), by the token indices of its braces.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Index of the opening `{`.
    pub open: usize,
    /// Index of the matching `}`.
    pub close: usize,
}

/// A call expression: `name(...)`, `recv.name(...)`, or `path::name(...)`
/// (turbofish tolerated).
#[derive(Debug, Clone)]
pub struct Call {
    /// The callee's final path segment / method name.
    pub name: String,
    /// Token index of the callee identifier.
    pub idx: usize,
    /// 1-based source line of the callee identifier.
    pub line: u32,
    /// Whether the callee is invoked as a method (`.name(...)`).
    pub is_method: bool,
    /// Token indices of the argument list's `(` and matching `)`.
    pub args: (usize, usize),
    /// The path segment immediately before the callee (`Reader` in
    /// `Reader::new(...)`, `codec` in `codec::read_batch(...)`), if any.
    pub qualifier: Option<String>,
}

/// The parse tree of one file: its functions and its block nesting.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Every `fn` item in source order.
    pub fns: Vec<FnDef>,
    /// Every brace pair, ordered by opening index.
    pub blocks: Vec<Block>,
}

impl ParsedFile {
    /// The innermost block strictly containing token index `idx`.
    pub fn enclosing_block(&self, idx: usize) -> Option<Block> {
        self.blocks
            .iter()
            .filter(|b| b.open < idx && idx < b.close)
            .min_by_key(|b| b.close - b.open)
            .copied()
    }
}

/// Parses a lexed token stream into its item/block structure.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let test = test_regions(tokens);
    let impls = impl_regions(tokens);

    let mut blocks = Vec::new();
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                blocks.push(Block { open, close: i });
            }
        }
    }
    blocks.sort_by_key(|b| b.open);

    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            // Walk the signature to the body `{` (or the `;` of a bodyless
            // declaration). Paren/bracket depth guards against braces
            // inside default expressions; `where` clauses pass through
            // because their bounds hold no braces.
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut body = None;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct('{') {
                    body = matching(tokens, j, '{', '}').map(|c| (j, c));
                    break;
                } else if depth == 0 && t.is_punct(';') {
                    break;
                }
                j += 1;
            }
            fns.push(FnDef {
                name: tokens[i + 1].text.clone(),
                body,
                in_test: in_region(&test, i),
                owner: impls
                    .iter()
                    .filter(|r| r.open < i && i < r.close)
                    .min_by_key(|r| r.close - r.open)
                    .map(|r| r.owner.clone()),
            });
            // Resume right after the name so fns nested in this body are
            // found too.
            i += 2;
            continue;
        }
        i += 1;
    }
    ParsedFile { fns, blocks }
}

/// One `impl` block's brace range plus the self type it implements on.
struct ImplRegion {
    open: usize,
    close: usize,
    owner: String,
}

/// Every `impl` block, with its self type: the last path segment collected
/// at angle-bracket depth 0 before the body brace. A `for` resets the
/// collection (`impl Codec for Reader` owns `Reader`, not `Codec`); a
/// `where` clause stops it. Safe without type context because `->` and
/// `=>` are merged tokens and `>>` never is, so angle depth balances.
fn impl_regions(tokens: &[Token]) -> Vec<ImplRegion> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut owner: Option<String> = None;
        let mut angle = 0i32;
        let mut j = i + 1;
        let mut open = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0 {
                if t.is_punct('{') {
                    open = Some(j);
                    break;
                }
                if t.is_punct(';') || t.is_ident("where") {
                    // `where` bounds can mention braced const expressions;
                    // scan on to the body brace without collecting names.
                    while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                        j += 1;
                    }
                    if tokens.get(j).is_some_and(|t| t.is_punct('{')) {
                        open = Some(j);
                    }
                    break;
                }
                if t.is_ident("for") {
                    owner = None;
                } else if t.kind == TokenKind::Ident {
                    owner = Some(t.text.clone());
                }
            }
            j += 1;
        }
        let (Some(open_idx), Some(owner)) = (open, owner) else {
            i = j.max(i + 1);
            continue;
        };
        if let Some(close) = matching(tokens, open_idx, '{', '}') {
            out.push(ImplRegion {
                open: open_idx,
                close,
                owner,
            });
            // Resume inside the body: impls don't nest directly, but a fn
            // body inside can hold another impl.
            i = open_idx + 1;
            continue;
        }
        i = j.max(i + 1);
    }
    out
}

/// Keywords that read like call syntax but aren't calls (`if (x)`,
/// `while (x)`, `return (x)`, ...).
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "move", "fn", "let", "in", "as", "else",
];

/// Collects every call expression whose callee identifier lies in the
/// inclusive token range.
pub fn calls_in(tokens: &[Token], range: (usize, usize)) -> Vec<Call> {
    let mut out = Vec::new();
    let (start, end) = range;
    for k in start..=end.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[k];
        if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // Optional turbofish between the callee and its argument list.
        let mut a = k + 1;
        if tokens.get(a).is_some_and(|t| t.is_op("::"))
            && tokens.get(a + 1).is_some_and(|t| t.is_punct('<'))
        {
            match matching(tokens, a + 1, '<', '>') {
                Some(close) => a = close + 1,
                None => continue,
            }
        }
        if !tokens.get(a).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if k >= 1 && tokens[k - 1].is_ident("fn") {
            continue;
        }
        if let Some(close) = matching(tokens, a, '(', ')') {
            let qualifier =
                (k >= 2 && tokens[k - 1].is_op("::") && tokens[k - 2].kind == TokenKind::Ident)
                    .then(|| tokens[k - 2].text.clone());
            out.push(Call {
                name: t.text.clone(),
                idx: k,
                line: t.line,
                is_method: k >= 1 && tokens[k - 1].is_punct('.'),
                args: (a, close),
                qualifier,
            });
        }
    }
    out
}

/// The body token range of the first closure among a call's arguments:
/// `spawn(move || { ... })` or `spawn(|x| expr)`. A braced body returns
/// its brace pair; an expression body runs to the call's closing paren or
/// the next top-level comma.
pub fn closure_body(tokens: &[Token], args: (usize, usize)) -> Option<(usize, usize)> {
    let (open, close) = args;
    let mut depth = 0i32;
    let mut k = open + 1;
    while k < close {
        let t = &tokens[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('|') {
            // Parameter list up to the closing `|` (params never contain a
            // bare `|`; an empty list `||` closes immediately).
            let mut p = k + 1;
            while p < close && !tokens[p].is_punct('|') {
                p += 1;
            }
            let body_start = p + 1;
            if body_start >= close {
                return None;
            }
            if tokens[body_start].is_punct('{') {
                let end = matching(tokens, body_start, '{', '}')?;
                return Some((body_start, end));
            }
            let mut q = body_start;
            let mut d = 0i32;
            while q < close {
                let t = &tokens[q];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    d -= 1;
                } else if d == 0 && t.is_punct(',') {
                    break;
                }
                q += 1;
            }
            return Some((body_start, q.saturating_sub(1).max(body_start)));
        }
        k += 1;
    }
    None
}

/// Token-index ranges covered by `#[cfg(test)]`-gated items.
///
/// Matches the attribute sequence `# [ cfg ( test ) ]` (also `#[cfg(any(
/// test, ...))]` via a containment scan) and skips the following item's
/// braced body. Attributes stacked between the cfg and the item are walked
/// over.
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Scan the attribute's bracket group for `cfg ( .. test .. )`.
            let close = match matching(tokens, i + 1, '[', ']') {
                Some(c) => c,
                None => break,
            };
            let is_cfg_test = tokens[i + 2..close]
                .first()
                .is_some_and(|t| t.is_ident("cfg"))
                && tokens[i + 2..close].iter().any(|t| t.is_ident("test"));
            if !is_cfg_test {
                i = close + 1;
                continue;
            }
            // Walk over any further attributes to the item, then skip its
            // braced body (fn, mod, impl, struct ...). Items ending in `;`
            // (like `mod tests;`) end the region at the semicolon.
            let mut j = close + 1;
            while tokens[j..].first().is_some_and(|t| t.is_punct('#'))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
            {
                match matching(tokens, j + 1, '[', ']') {
                    Some(c) => j = c + 1,
                    None => return regions,
                }
            }
            let mut k = j;
            while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
                k += 1;
            }
            if k < tokens.len() && tokens[k].is_punct('{') {
                if let Some(end) = matching(tokens, k, '{', '}') {
                    regions.push((i, end));
                    i = end + 1;
                    continue;
                }
            }
            regions.push((i, k));
            i = k + 1;
            continue;
        }
        i += 1;
    }
    regions
}

/// Index of the token closing the group opened at `open_idx`.
pub(crate) fn matching(
    tokens: &[Token],
    open_idx: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the token opening the group closed at `close_idx`.
pub(crate) fn matching_backward(
    tokens: &[Token],
    close_idx: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=close_idx).rev() {
        let t = &tokens[k];
        if t.is_punct(close) {
            depth += 1;
        } else if t.is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Whether token index `i` falls inside any of `regions`.
fn in_region(regions: &[(usize, usize)], i: usize) -> bool {
    regions.iter().any(|&(a, b)| i >= a && i <= b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_items_get_names_lines_and_body_ranges() {
        let src = "fn a() { f(); }\ntrait T { fn b(&self); }\nfn c() { fn inner() {} }";
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        let names: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c", "inner"]);
        assert!(parsed.fns[0].body.is_some());
        assert!(parsed.fns[1].body.is_none(), "trait decl has no body");
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod t { fn helper() {} }";
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        assert!(!parsed.fns[0].in_test);
        assert!(parsed.fns[1].in_test);
    }

    #[test]
    fn enclosing_block_picks_the_innermost() {
        let src = "fn a() { if x { g(); } }";
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        let g = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("g"))
            .expect("g");
        let block = parsed.enclosing_block(g).expect("block");
        // The `if` block, not the fn body.
        assert!(lexed.tokens[block.open - 1].is_ident("x"));
    }

    #[test]
    fn calls_are_extracted_with_method_flags() {
        let src = "fn a() { free(1); recv.meth(); Path::assoc::<u8>(x); if cond { } }";
        let lexed = lex(src);
        let body = parse(&lexed.tokens).fns[0].body.unwrap();
        let calls = calls_in(&lexed.tokens, body);
        let names: Vec<(&str, bool)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.is_method))
            .collect();
        assert_eq!(
            names,
            vec![("free", false), ("meth", true), ("assoc", false)]
        );
    }

    #[test]
    fn closure_bodies_are_found_braced_and_expression() {
        let src = "fn a() { spawn(move || { work(); }); map(|x| x + 1); }";
        let lexed = lex(src);
        let body = parse(&lexed.tokens).fns[0].body.unwrap();
        let calls = calls_in(&lexed.tokens, body);
        let spawn = calls.iter().find(|c| c.name == "spawn").expect("spawn");
        let b = closure_body(&lexed.tokens, spawn.args).expect("closure");
        assert!(lexed.tokens[b.0..=b.1].iter().any(|t| t.is_ident("work")));
        let map = calls.iter().find(|c| c.name == "map").expect("map");
        let b = closure_body(&lexed.tokens, map.args).expect("closure");
        assert!(lexed.tokens[b.0..=b.1].iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn impl_blocks_assign_owners() {
        let src = "fn free() {}\n\
                   impl Reader { fn new() -> Self { Reader } fn take(&self) {} }\n\
                   impl fmt::Display for ReplicaId { fn fmt(&self) {} }\n\
                   impl<T: Into<u8>> From<T> for Wrapper { fn from(t: T) -> Self { t } }";
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        let owners: Vec<(&str, Option<&str>)> = parsed
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            owners,
            vec![
                ("free", None),
                ("new", Some("Reader")),
                ("take", Some("Reader")),
                ("fmt", Some("ReplicaId")),
                ("from", Some("Wrapper")),
            ]
        );
    }

    #[test]
    fn calls_carry_their_qualifier() {
        let src = "fn a() { Reader::new(); codec::read_batch(b); free(); x.meth(); \
                   Path::assoc::<u8>(y); }";
        let lexed = lex(src);
        let body = parse(&lexed.tokens).fns[0].body.unwrap();
        let calls = calls_in(&lexed.tokens, body);
        let quals: Vec<(&str, Option<&str>)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.qualifier.as_deref()))
            .collect();
        assert_eq!(
            quals,
            vec![
                ("new", Some("Reader")),
                ("read_batch", Some("codec")),
                ("free", None),
                ("meth", None),
                ("assoc", Some("Path")),
            ]
        );
    }

    #[test]
    fn nested_generics_do_not_derail_fn_bodies() {
        // Leans on the lexer's no-`>>`-merge guarantee.
        let src = "fn a(m: Arc<Mutex<Vec<u8>>>) -> Arc<Mutex<Vec<u8>>> { m.lock(); m }";
        let lexed = lex(src);
        let parsed = parse(&lexed.tokens);
        let body = parsed.fns[0].body.expect("body");
        assert!(lexed.tokens[body.0..=body.1]
            .iter()
            .any(|t| t.is_ident("lock")));
    }
}
