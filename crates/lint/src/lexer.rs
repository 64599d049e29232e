//! A minimal Rust lexer: just enough to walk real source token by token
//! without being fooled by strings, char literals, lifetimes or comments.
//!
//! The analyses work on identifier/punctuation sequences (`Instant ::
//! now`, `. unwrap (`), so the lexer's one job is to classify those
//! correctly and never emit a token from inside a literal or a comment.
//! Doc comments and `//` comments are consumed here too — except for
//! `// lint:allow(...)` pragmas, which are surfaced as [`Pragma`]s so the
//! engine can match suppressions (and flag unused ones).

/// What a token is; rules mostly care about `Ident` and `Punct`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `fn`, `unwrap`).
    Ident,
    /// A single punctuation character (`.`, `:`, `(`, `!`, ...).
    Punct,
    /// A string / char / byte / numeric literal, collapsed to one token.
    Literal,
    /// A lifetime or loop label (`'a`, `'outer`).
    Lifetime,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The token text. String/char literals collapse to their quote
    /// character (rules never look inside them); numeric literals keep
    /// their verbatim digits.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    /// Whether the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether the token is the single punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// Whether the token is the multi-char operator `s` (`::`, `->`, `=>`).
    pub fn is_op(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// A `// lint:allow(RULES): reason` comment found while lexing.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The comma-separated rule ids inside the parentheses, trimmed.
    pub rules: Vec<String>,
    /// The reason after the closing `):`; empty when missing.
    pub reason: String,
    /// 1-based line the pragma sits on.
    pub line: u32,
    /// Whether the comment parsed as `lint:allow(...)` followed by `:`.
    pub well_formed: bool,
    /// Whether the pragma is a standalone comment line (covers the next
    /// line) rather than trailing code (covers its own line only).
    pub own_line: bool,
}

/// The result of lexing one file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Suppression pragmas in source order.
    pub pragmas: Vec<Pragma>,
}

/// Lexes `src` into tokens and pragmas. Unterminated literals or comments
/// simply end the token stream at the offending point: the lint must never
/// panic on weird input, and rustc will reject such a file anyway.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advances past `n` bytes, counting newlines.
    macro_rules! advance {
        ($n:expr) => {{
            let n = $n;
            for k in 0..n {
                if bytes.get(i + k) == Some(&b'\n') {
                    line += 1;
                }
            }
            i += n;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;

        // Whitespace.
        if c.is_ascii_whitespace() {
            advance!(1);
            continue;
        }

        // Line comments (and pragmas).
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            let end = src[i..].find('\n').map(|p| i + p).unwrap_or(bytes.len());
            let comment = &src[i..end];
            let line_start = src[..i].rfind('\n').map(|p| p + 1).unwrap_or(0);
            let own_line = src[line_start..i].chars().all(char::is_whitespace);
            if let Some(p) = parse_pragma(comment, line, own_line) {
                out.pragmas.push(p);
            }
            advance!(end - i);
            continue;
        }

        // Block comments, nested.
        if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            advance!(j - i);
            continue;
        }

        // Raw strings: r"..."  r#"..."#  (and byte/ c-string variants).
        if (c == 'r' || c == 'b' || c == 'c') && is_raw_string_start(bytes, i) {
            let j = skip_raw_string(bytes, i);
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: "\"".into(),
                line,
            });
            advance!(j - i);
            continue;
        }

        // Plain and byte strings.
        if c == '"' || (c == 'b' && bytes.get(i + 1) == Some(&b'"')) {
            let start = if c == '"' { i + 1 } else { i + 2 };
            let j = skip_quoted(bytes, start, b'"');
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: "\"".into(),
                line,
            });
            advance!(j - i);
            continue;
        }

        // Byte char literals: b'x'.
        if c == 'b' && bytes.get(i + 1) == Some(&b'\'') {
            let j = skip_quoted(bytes, i + 2, b'\'');
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: "'".into(),
                line,
            });
            advance!(j - i);
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            if let Some(j) = char_literal_end(bytes, i) {
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: "'".into(),
                    line,
                });
                advance!(j - i);
            } else {
                // Lifetime / label: consume the identifier after the quote.
                let mut j = i + 1;
                while j < bytes.len() && is_ident_char(bytes[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: src[i..j].into(),
                    line,
                });
                advance!(j - i);
            }
            continue;
        }

        // Identifiers / keywords (including r# raw identifiers).
        if is_ident_start(bytes[i]) {
            let mut j = i + 1;
            while j < bytes.len() && is_ident_char(bytes[j]) {
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: src[i..j].into(),
                line,
            });
            advance!(j - i);
            continue;
        }

        // Numbers (consume so `1.0` doesn't emit a `.` punct), digits kept
        // verbatim.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len()
                && (is_ident_char(bytes[j])
                    || bytes[j] == b'.'
                        && bytes.get(j + 1).is_some_and(|d| d.is_ascii_digit())
                        && bytes.get(j.wrapping_sub(1)) != Some(&b'.'))
            {
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: src[i..j].into(),
                line,
            });
            advance!(j - i);
            continue;
        }

        // Everything else: punctuation. The unambiguous multi-char
        // operators (`::`, `->`, `=>`, and the range ops `..`/`..=`) merge
        // into one token — the parser keys on the first three for paths,
        // signatures and match arms, and a merged range keeps `..base()`
        // from reading as a method call on `.`.
        // Nothing else merges, deliberately: `>>` at the close of nested
        // generics (`Arc<Mutex<Vec<u8>>>`) is two independent closers, not
        // a shift operator, and the same ambiguity bites `<<`, `>=`, `&&`
        // (double reference) and `||` (empty closure). One character per
        // token keeps all of those correct without type context.
        let op = match (bytes[i], bytes.get(i + 1).copied()) {
            (b':', Some(b':')) => Some("::"),
            (b'-', Some(b'>')) => Some("->"),
            (b'=', Some(b'>')) => Some("=>"),
            (b'.', Some(b'.')) => {
                if bytes.get(i + 2) == Some(&b'=') {
                    Some("..=")
                } else {
                    Some("..")
                }
            }
            _ => None,
        };
        if let Some(op) = op {
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: op.into(),
                line,
            });
            advance!(op.len());
            continue;
        }
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
        advance!(1);
    }

    out
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `r`/`b`/`c` at `i` opens a raw string (`r"`, `r#"`, `br"`, ...).
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    // Optional b/c prefix before r.
    if bytes[j] == b'b' || bytes[j] == b'c' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Skips a raw string starting at `i`; returns the index just past it.
fn skip_raw_string(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    if bytes[j] == b'b' || bytes[j] == b'c' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = 0usize;
            while k < hashes && bytes.get(j + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return j + 1 + hashes;
            }
        }
        j += 1;
    }
    bytes.len()
}

/// Skips a quoted literal body starting *inside* the quotes at `start`,
/// honouring backslash escapes; returns the index just past the closer.
fn skip_quoted(bytes: &[u8], start: usize, quote: u8) -> usize {
    let mut j = start;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b if b == quote => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// If a `'` at `i` starts a char literal, returns the index just past the
/// closing quote; `None` means it is a lifetime.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        // Escaped char: find the closing quote.
        return Some(skip_quoted(bytes, i + 1, b'\''));
    }
    // 'x' is a char literal; 'x followed by anything else is a lifetime.
    // Multi-byte UTF-8 chars ('λ') also close with a quote.
    let mut j = i + 1;
    if next < 0x80 && is_ident_char(next) {
        // Could be 'a' (char) or 'a (lifetime): decided by the next byte.
        if bytes.get(i + 2) == Some(&b'\'') {
            return Some(i + 3);
        }
        return None;
    }
    // Not an identifier char: consume until the closing quote (one char).
    while j < bytes.len() {
        if bytes[j] == b'\'' && j > i + 1 {
            return Some(j + 1);
        }
        j += 1;
    }
    None
}

/// Parses a `lint:allow` pragma out of a `//` comment body, if present.
fn parse_pragma(comment: &str, line: u32, own_line: bool) -> Option<Pragma> {
    let body = comment.trim_start_matches('/').trim_start();
    let rest = body.strip_prefix("lint:allow")?;
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(Pragma {
            rules: Vec::new(),
            reason: String::new(),
            line,
            well_formed: false,
            own_line,
        });
    };
    let Some(close) = rest.find(')') else {
        return Some(Pragma {
            rules: Vec::new(),
            reason: String::new(),
            line,
            well_formed: false,
            own_line,
        });
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let after = rest[close + 1..].trim_start();
    let (reason, well_formed) = match after.strip_prefix(':') {
        Some(r) => (r.trim().to_string(), true),
        None => (String::new(), false),
    };
    let well_formed = well_formed && !rules.is_empty();
    Some(Pragma {
        rules,
        reason,
        line,
        well_formed,
        own_line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_emit_no_idents() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now() in /* a nested */ block */
            let s = "HashMap::new()";
            let r = r#"unwrap() "quoted" inside"#;
            let c = 'u'; let esc = '\n';
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"Instant".to_string()), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_following_tokens() {
        let ids = idents("fn f<'a>(x: &'a HashMap<u8, u8>) {}");
        assert!(ids.contains(&"HashMap".to_string()));
    }

    #[test]
    fn lines_are_tracked_through_multiline_literals() {
        let src = "let a = \"x\ny\";\nlet b = unwrap;";
        let lexed = lex(src);
        let t = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert_eq!(t.line, 3);
    }

    #[test]
    fn pragmas_parse_rules_and_reason() {
        let lexed = lex("x(); // lint:allow(R01, T02): stats only\n");
        assert_eq!(lexed.pragmas.len(), 1);
        let p = &lexed.pragmas[0];
        assert!(p.well_formed);
        assert_eq!(p.rules, vec!["R01", "T02"]);
        assert_eq!(p.reason, "stats only");
    }

    #[test]
    fn pragma_without_reason_is_malformed() {
        let lexed = lex("// lint:allow(Z02)\n");
        assert!(!lexed.pragmas[0].well_formed);
        let lexed = lex("// lint:allow(Z02):   \n");
        assert!(lexed.pragmas[0].well_formed);
        assert!(lexed.pragmas[0].reason.is_empty());
    }

    #[test]
    fn nested_generic_closers_never_merge_into_shift_operators() {
        // Regression: `>>` at the close of nested generics must lex as
        // independent `>` tokens (three of them here), never a shift
        // operator — every group-matching walk in the parser depends on
        // each closer being its own token.
        let lexed = lex("let m: Arc<Mutex<Vec<u8>>> = mk();");
        let closers = lexed.tokens.iter().filter(|t| t.is_punct('>')).count();
        assert_eq!(closers, 3, "{:?}", lexed.tokens);
        assert!(lexed.tokens.iter().all(|t| t.text != ">>"));
    }

    #[test]
    fn unambiguous_multichar_operators_merge() {
        let lexed = lex("fn f(x: u8) -> u8 { m::g(x); match x { _ => 0 } }");
        assert!(lexed.tokens.iter().any(|t| t.is_op("->")));
        assert!(lexed.tokens.iter().any(|t| t.is_op("::")));
        assert!(lexed.tokens.iter().any(|t| t.is_op("=>")));
        // The ambiguous pairs stay split.
        let lexed = lex("if a >= b && f(c << 2) || d {}");
        for t in &lexed.tokens {
            assert!(t.text.len() == 1 || t.kind != TokenKind::Punct, "{t:?}");
        }
    }

    #[test]
    fn numeric_literals_do_not_emit_dot_puncts() {
        let lexed = lex("let x = 1.5e3; y.to_vec()");
        let dots: Vec<u32> = lexed
            .tokens
            .iter()
            .filter(|t| t.is_punct('.'))
            .map(|t| t.line)
            .collect();
        assert_eq!(dots.len(), 1);
    }

    #[test]
    fn numeric_literals_keep_their_digits() {
        let lexed = lex("let q = 2 * f + 1; let n = 3 * f + 1;");
        let lits: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, vec!["2", "1", "3", "1"]);
    }

    #[test]
    fn range_operators_merge_into_single_tokens() {
        let lexed = lex("for i in 0..n { } match k { 0..=7 => a, _ => b }");
        assert_eq!(
            lexed.tokens.iter().filter(|t| t.is_op("..")).count(),
            1,
            "{:?}",
            lexed.tokens
        );
        assert_eq!(lexed.tokens.iter().filter(|t| t.is_op("..=")).count(), 1);
        // Range bounds survive as separate literals.
        let lits: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, vec!["0", "0", "7"]);
    }

    #[test]
    fn single_dots_and_dot_runs_still_lex_correctly() {
        // Method chains keep one `.` per link, and a `...` run lexes as
        // `..` + `.` — never a merged triple or a swallowed chain.
        let lexed = lex("a.b.c(); x...y");
        let single: usize = lexed.tokens.iter().filter(|t| t.is_punct('.')).count();
        let double: usize = lexed.tokens.iter().filter(|t| t.is_op("..")).count();
        assert_eq!(single, 3, "{:?}", lexed.tokens); // a.b, .c, and the tail of ...
        assert_eq!(double, 1);
        assert!(lexed.tokens.iter().all(|t| t.text != "..."));
    }
}
