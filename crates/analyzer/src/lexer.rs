//! A lightweight Rust lexer.
//!
//! The lint rules need far less than a full parse: identifier sequences,
//! punctuation, and the certainty that nothing inside a string literal or
//! comment is mistaken for code. This lexer delivers exactly that — a flat
//! token stream with line numbers — and handles the constructs that break
//! naive scanners: nested block comments, raw strings (`r#"…"#`), byte
//! strings, and the char-literal/lifetime ambiguity of `'`.
//!
//! It deliberately does not build multi-character operators; rules that
//! need `::` match two consecutive `:` punctuation tokens.

/// Token class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier, keyword, or lifetime (`'a` keeps its quote).
    Ident,
    /// Single punctuation character.
    Punct,
    /// String, char, byte, or numeric literal.
    Literal,
    /// Line or block comment, text included (suppressions live here).
    Comment,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for a punctuation token with exactly this character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into a flat token stream. Unterminated constructs consume
/// the rest of the input rather than erroring: the linter must keep going
/// on files it half-understands.
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && (b[i + 1] == '/' || b[i + 1] == '*') {
            let start_line = line;
            let mut text = String::new();
            if b[i + 1] == '/' {
                while i < n && b[i] != '\n' {
                    text.push(b[i]);
                    i += 1;
                }
            } else {
                let mut depth = 0usize;
                while i < n {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        text.push_str("/*");
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        text.push_str("*/");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        text.push(b[i]);
                        i += 1;
                    }
                }
            }
            toks.push(Tok {
                kind: TokKind::Comment,
                text,
                line: start_line,
            });
            continue;
        }
        // Raw / byte string prefixes: r"…", r#"…"#, br"…", b"…", b'…'.
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            if c == 'b' && j < n && b[j] == 'r' {
                j += 1;
            }
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            let raw = j > i + 1 || (j < n && b[j] == '"' && (c == 'r' || hashes > 0));
            if j < n && b[j] == '"' && (raw || c == 'b') {
                // Raw string (any hashes) or byte string b"…".
                let start_line = line;
                let is_raw = c == 'r' || b[i + 1] == 'r' || hashes > 0;
                let mut text: String = b[i..=j].iter().collect();
                j += 1;
                while j < n {
                    if b[j] == '\n' {
                        line += 1;
                    }
                    if !is_raw && b[j] == '\\' && j + 1 < n {
                        text.push(b[j]);
                        text.push(b[j + 1]);
                        j += 2;
                        continue;
                    }
                    text.push(b[j]);
                    if b[j] == '"' {
                        if is_raw {
                            let mut k = 0usize;
                            while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                for h in 0..hashes {
                                    text.push(b[j + 1 + h]);
                                }
                                j += hashes;
                                j += 1;
                                break;
                            }
                        } else {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text,
                    line: start_line,
                });
                i = j;
                continue;
            }
            if c == 'b' && i + 1 < n && b[i + 1] == '\'' {
                // Byte char b'…': delegate to the char path below by
                // consuming the prefix here.
                let start_line = line;
                let mut text = String::from("b");
                let (consumed, t) = lex_char(&b[i + 1..]);
                text.push_str(&t);
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text,
                    line: start_line,
                });
                i += 1 + consumed;
                continue;
            }
            // Fall through: plain identifier starting with r/b.
        }
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        if c == '"' {
            let start_line = line;
            let mut text = String::from("\"");
            i += 1;
            while i < n {
                if b[i] == '\n' {
                    line += 1;
                }
                if b[i] == '\\' && i + 1 < n {
                    text.push(b[i]);
                    text.push(b[i + 1]);
                    i += 2;
                    continue;
                }
                text.push(b[i]);
                if b[i] == '"' {
                    i += 1;
                    break;
                }
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Literal,
                text,
                line: start_line,
            });
            continue;
        }
        if c == '\'' {
            let (consumed, text) = lex_char(&b[i..]);
            let kind = if text.ends_with('\'') && text.len() > 1 {
                TokKind::Literal
            } else {
                TokKind::Ident // lifetime, e.g. `'a`
            };
            toks.push(Tok { kind, text, line });
            i += consumed;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n
                && (is_ident_continue(b[i])
                    || (b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit()))
            {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Literal,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    toks
}

/// Lexes a char literal or lifetime starting at the leading `'`.
/// Returns `(chars consumed, text)`; lifetimes keep their quote and have
/// no trailing one.
fn lex_char(b: &[char]) -> (usize, String) {
    debug_assert_eq!(b.first(), Some(&'\''));
    let n = b.len();
    if n >= 2 && b[1] == '\\' {
        // Escaped char literal: consume to the closing quote.
        let mut j = 2;
        while j < n && b[j] != '\'' {
            j += 1;
        }
        let end = (j + 1).min(n);
        return (end, b[..end].iter().collect());
    }
    if n >= 3 && b[2] == '\'' && b[1] != '\'' {
        return (3, b[..3].iter().collect());
    }
    // Lifetime: `'` followed by identifier characters.
    let mut j = 1;
    while j < n && is_ident_continue(b[j]) {
        j += 1;
    }
    (j.max(1), b[..j.max(1)].iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let t = kinds("foo.bar(x);");
        assert_eq!(
            t,
            vec![
                (TokKind::Ident, "foo".into()),
                (TokKind::Punct, ".".into()),
                (TokKind::Ident, "bar".into()),
                (TokKind::Punct, "(".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, ")".into()),
                (TokKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn strings_hide_code() {
        let t = lex("let s = \"partial_cmp // not a comment\";");
        assert!(t.iter().all(|t| t.kind != TokKind::Comment));
        assert!(!t.iter().any(|t| t.is_ident("partial_cmp")));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let t = lex(r####"let s = r#"quote " inside"#; x"####);
        assert!(t.iter().any(|t| t.is_ident("x")));
        assert_eq!(t.iter().filter(|t| t.kind == TokKind::Literal).count(), 1);
    }

    #[test]
    fn nested_block_comments() {
        let t = lex("/* outer /* inner */ still outer */ code");
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].kind, TokKind::Comment);
        assert!(t[1].is_ident("code"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let t = lex("let c: char = 'x'; fn f<'a>(v: &'a str) {}");
        let lits: Vec<_> = t.iter().filter(|t| t.kind == TokKind::Literal).collect();
        assert_eq!(lits[0].text, "'x'");
        assert!(t.iter().any(|t| t.kind == TokKind::Ident && t.text == "'a"));
    }

    #[test]
    fn escaped_char_literal() {
        let t = lex(r"let c = '\n'; next");
        assert!(t
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text == r"'\n'"));
        assert!(t.iter().any(|t| t.is_ident("next")));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let t = lex("a\nb\n\nc");
        let lines: Vec<u32> = t.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn line_numbers_span_block_comments() {
        let t = lex("/* one\ntwo */ after");
        assert_eq!(t[1].line, 2);
    }

    #[test]
    fn numbers_including_floats() {
        let t = kinds("1.5 + 0x1f + 2..3");
        assert_eq!(t[0], (TokKind::Literal, "1.5".into()));
        assert_eq!(t[2], (TokKind::Literal, "0x1f".into()));
        // `2..3` must not eat the range dots.
        assert_eq!(t[4], (TokKind::Literal, "2".into()));
        assert_eq!(t[5], (TokKind::Punct, ".".into()));
        assert_eq!(t[6], (TokKind::Punct, ".".into()));
        assert_eq!(t[7], (TokKind::Literal, "3".into()));
    }
}
