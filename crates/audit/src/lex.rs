//! A minimal Rust lexer: just enough token structure for the audit
//! passes, with line numbers on every token and waiver comments kept
//! aside.
//!
//! The lexer understands the constructs that would confuse a textual
//! scanner — string literals (including raw strings), char literals,
//! lifetimes, line and (nested) block comments — so the passes can match
//! on real identifiers instead of substrings. It does not try to be a
//! full lexer: numeric literals are swallowed as single tokens without
//! suffix splitting, and multi-character operators are left as single
//! punctuation tokens (`::` is two `:` tokens; the parser re-joins paths).

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// Token kinds, deliberately coarse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `let`, `HashMap`, …).
    Ident(String),
    /// A lifetime (`'a`) or labelled-loop label.
    Lifetime(String),
    /// Any numeric literal, verbatim.
    Num(String),
    /// A string literal (content discarded — the passes never match
    /// inside strings, which is the point).
    Str,
    /// A char literal.
    Char,
    /// Single punctuation character: `{ } ( ) [ ] < > . , ; : # ! & = …`.
    Punct(char),
}

impl Tok {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }

    /// Whether this token is the given identifier/keyword.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tok::Ident(i) if i == s)
    }
}

/// A waiver comment: `// audit:allow(SA001[, SA004]) reason…`.
///
/// A waiver suppresses matching findings reported on its own line, or —
/// when the comment stands alone on its line — on the next line of code
/// (continuation comment lines in between are skipped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the comment appears on.
    pub line: u32,
    /// The line a standalone waiver covers: the next line holding code
    /// (equal to `line` for trailing same-line waivers).
    pub covers: u32,
    /// The SA codes listed inside `allow(…)`.
    pub codes: Vec<String>,
}

/// Everything the lexer produced for one file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace dropped.
    pub tokens: Vec<Token>,
    /// Audit waiver comments, in line order.
    pub waivers: Vec<Waiver>,
}

impl Lexed {
    /// Whether a finding with `code` on `line` is waived.
    pub fn is_waived(&self, code: &str, line: u32) -> bool {
        self.waivers
            .iter()
            .any(|w| w.codes.iter().any(|c| c == code) && (w.line == line || w.covers == line))
    }
}

/// Extracts audit waiver codes from one comment body. A
/// `lint:allow(unwrap)` marker is accepted as an SA006 waiver too.
fn parse_waiver(comment: &str) -> Option<Vec<String>> {
    if let Some(idx) = comment.find("audit:allow(") {
        let rest = &comment[idx + "audit:allow(".len()..];
        let close = rest.find(')')?;
        let codes: Vec<String> = rest[..close]
            .split(',')
            .map(|c| c.trim().to_string())
            .filter(|c| !c.is_empty())
            .collect();
        return (!codes.is_empty()).then_some(codes);
    }
    comment
        .contains("lint:allow(unwrap)")
        .then(|| vec!["SA006".to_string()])
}

/// Lexes one file's source.
pub fn lex(source: &str) -> Lexed {
    let b = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line: u32 = 1;
    // whether a non-comment token has been seen on the current line
    let mut line_has_code = false;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let comment = &source[start..i];
                if let Some(codes) = parse_waiver(comment) {
                    out.waivers.push(Waiver {
                        line,
                        // standalone waivers cover the next code line,
                        // resolved after the whole file is lexed
                        covers: if line_has_code { line } else { u32::MAX },
                        codes,
                    });
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        line_has_code = false;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 1;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 1;
                    }
                    i += 1;
                }
            }
            b'"' => {
                line_has_code = true;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token {
                    kind: Tok::Str,
                    line,
                });
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                line_has_code = true;
                // r"…", r#"…"#, br"…" etc.
                let mut j = i + 1;
                if b[j] == b'b' || b[j] == b'r' {
                    j += 1;
                }
                let mut hashes = 0;
                while b.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // opening quote
                loop {
                    match b.get(j) {
                        None => break,
                        Some(b'\n') => {
                            line += 1;
                            j += 1;
                        }
                        Some(b'"') => {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while seen < hashes && b.get(k) == Some(&b'#') {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break;
                            }
                            j += 1;
                        }
                        Some(_) => j += 1,
                    }
                }
                i = j;
                out.tokens.push(Token {
                    kind: Tok::Str,
                    line,
                });
            }
            b'\'' => {
                line_has_code = true;
                // char literal or lifetime
                if let Some(&n) = b.get(i + 1) {
                    let is_lifetime =
                        (n.is_ascii_alphabetic() || n == b'_') && b.get(i + 2) != Some(&b'\'');
                    if is_lifetime {
                        let start = i + 1;
                        i += 1;
                        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                            i += 1;
                        }
                        out.tokens.push(Token {
                            kind: Tok::Lifetime(source[start..i].to_string()),
                            line,
                        });
                        continue;
                    }
                }
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'\'' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token {
                    kind: Tok::Char,
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                line_has_code = true;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: Tok::Ident(source[start..i].to_string()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                line_has_code = true;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    // don't swallow `..` range punctuation or method calls on
                    // integer literals
                    if b[i] == b'.' && !b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        break;
                    }
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: Tok::Num(source[start..i].to_string()),
                    line,
                });
            }
            c => {
                line_has_code = true;
                out.tokens.push(Token {
                    kind: Tok::Punct(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    for w in &mut out.waivers {
        if w.covers == u32::MAX {
            w.covers = out
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|l| *l > w.line)
                .unwrap_or(w.line);
        }
    }
    out
}

/// Whether position `i` starts a raw (or byte) string literal.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // only called when b[i] is 'r' or 'b'; look ahead for r", r#", br", b"
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if b.get(j) == Some(&b'"') {
            return true; // b"…"
        }
    }
    if b.get(j) == Some(&b'r') {
        j += 1;
        while b.get(j) == Some(&b'#') {
            j += 1;
        }
        return b.get(j) == Some(&b'"');
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            fn f() {
                let s = "HashMap::iter()"; // HashMap here too
                /* Instant::now() in /* nested */ comments */
                let r = r#"SystemTime"#;
            }
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"fn".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }").tokens;
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, Tok::Lifetime(l) if l == "a")));
        assert!(toks.iter().any(|t| t.kind == Tok::Char));
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n\nc").tokens;
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn waivers_parse_codes_and_standalone() {
        let src = "\
fn f() {
    // audit:allow(SA001, SA004) deliberate
    m.iter();
    x.lock(); // audit:allow(SA004) same line
    // audit:allow(SA006) a multi-line justification whose
    // continuation sits between the waiver and the code
    y.unwrap();
}
";
        let lexed = lex(src);
        assert_eq!(lexed.waivers.len(), 3);
        assert_eq!(lexed.waivers[0].codes, vec!["SA001", "SA004"]);
        assert!(lexed.is_waived("SA001", 3)); // standalone covers next code line
        assert!(lexed.is_waived("SA004", 4));
        assert!(!lexed.is_waived("SA002", 3));
        assert!(lexed.is_waived("SA006", 7)); // skips the continuation comment
    }

    #[test]
    fn numeric_literals_do_not_eat_method_calls() {
        let toks = lex("1.0f64.sqrt(); 7.max(3); 0..n").tokens;
        assert!(toks.iter().any(|t| t.kind.is_ident("max")));
        assert!(toks.iter().any(|t| t.kind.is_ident("sqrt")));
        let dots = toks.iter().filter(|t| t.kind.is_punct('.')).count();
        assert_eq!(dots, 4); // .sqrt, .max, and the two dots of `..`
    }
}
