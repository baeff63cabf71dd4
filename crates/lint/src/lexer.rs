//! A small, real Rust lexer — just enough syntax to lint reliably.
//!
//! The build environment is offline, so `syn` is not available. The rule
//! passes only need a faithful *token* view of a source file: findings
//! must never fire inside comments, string/raw-string literals or char
//! literals, and must correctly distinguish lifetimes (`'a`) from char
//! literals (`'a'`). Everything else (keywords, paths, macro bangs) falls
//! out of plain token-sequence matching.
//!
//! The lexer therefore handles, precisely:
//!
//! - line comments (`//`), including doc comments (`///`, `//!`), which are
//!   *kept* (pragmas and the docs rule need them);
//! - nested block comments (`/* /* */ */`), including doc blocks;
//! - string literals with escapes (`"a \" b"`), byte strings (`b"…"`);
//! - raw strings with any hash count (`r"…"`, `r#"…"#`, `br##"…"##`) and
//!   raw identifiers (`r#fn`);
//! - char and byte-char literals (`'x'`, `'\''`, `b'\n'`) vs lifetimes and
//!   loop labels (`'a`, `'static`, `'outer:`);
//! - numeric literals loosely (enough to not split `1.5e-9` into puncts).

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unwrap`, `HashMap`, `r#fn`).
    Ident,
    /// A single punctuation character (`:`, `.`, `{`, `!`, …). Multi-char
    /// operators arrive as consecutive tokens; rules match sequences.
    Punct(char),
    /// String / raw-string / byte-string / char / numeric literal. The
    /// contents are opaque to every rule.
    Literal,
    /// A lifetime or loop label (`'a`, `'static`), quote stripped.
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    /// Token class.
    pub kind: TokKind,
    /// The token's text (identifier name; empty-ish for literals).
    pub text: &'a str,
    /// 1-based line the token *starts* on.
    pub line: u32,
}

impl<'a> Token<'a> {
    /// Is this an identifier with exactly this name?
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Is this a given punctuation character?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment (line or block) with its starting line. `text` includes the
/// delimiters (`// …` / `/* … */`) so callers can classify doc comments.
#[derive(Debug, Clone, Copy)]
pub struct Comment<'a> {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Full comment text including `//` / `/* */` delimiters.
    pub text: &'a str,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    /// All non-comment tokens, in order.
    pub tokens: Vec<Token<'a>>,
    /// All comments, in order.
    pub comments: Vec<Comment<'a>>,
}

/// Lex `src` into tokens and comments. Never fails: unterminated
/// constructs simply run to end-of-file (the real compiler rejects such
/// files long before the linter matters).
pub fn lex(src: &str) -> Lexed<'_> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    i: usize,
    line: u32,
    out: Lexed<'a>,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    /// Advance one byte, maintaining the line counter.
    fn bump(&mut self) {
        if self.bytes.get(self.i) == Some(&b'\n') {
            self.line += 1;
        }
        self.i += 1;
    }

    /// Advance `n` bytes.
    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32) {
        self.out.tokens.push(Token {
            kind,
            text: &self.src[start..self.i],
            line,
        });
    }

    fn run(mut self) -> Lexed<'a> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            let start = self.i;
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(start, line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(start, line),
                b'"' => {
                    self.string();
                    self.push(TokKind::Literal, start, line);
                }
                b'\'' => self.quote(start, line),
                b'0'..=b'9' => {
                    self.number();
                    self.push(TokKind::Literal, start, line);
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident_or_prefixed(start, line),
                _ if c < 0x80 => {
                    self.bump();
                    self.push(TokKind::Punct(c as char), start, line);
                }
                // Non-ASCII outside strings/comments: treat the whole UTF-8
                // scalar as one opaque punct (idents in this tree are ASCII).
                _ => {
                    let ch = self.src[self.i..].chars().next().unwrap_or('\u{fffd}');
                    self.bump_n(ch.len_utf8());
                    self.push(TokKind::Punct(ch), start, line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, start: usize, line: u32) {
        while let Some(c) = self.peek(0) {
            if c == b'\n' {
                break;
            }
            self.bump();
        }
        self.out.comments.push(Comment {
            line,
            text: &self.src[start..self.i],
        });
    }

    fn block_comment(&mut self, start: usize, line: u32) {
        self.bump_n(2); // consume "/*"
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
        self.out.comments.push(Comment {
            line,
            text: &self.src[start..self.i],
        });
    }

    /// Cooked string body starting at the opening `"`.
    fn string(&mut self) {
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Raw string starting at the first `#` or `"` (after `r` / `br`).
    fn raw_string(&mut self) {
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                Some(b'"') => {
                    self.bump();
                    let mut seen = 0usize;
                    while seen < hashes && self.peek(0) == Some(b'#') {
                        seen += 1;
                        self.bump();
                    }
                    if seen == hashes {
                        return;
                    }
                }
                Some(_) => self.bump(),
                None => return,
            }
        }
    }

    /// `'` — char literal, lifetime or loop label.
    fn quote(&mut self, start: usize, line: u32) {
        // Char literal when: '\…' escape, or 'X' (any scalar followed by a
        // closing quote). Otherwise a lifetime/label.
        if self.peek(1) == Some(b'\\') {
            self.bump(); // opening quote
            while let Some(c) = self.peek(0) {
                match c {
                    // An escape consumes the backslash AND the escaped
                    // char, so '\'' and '\\' terminate correctly.
                    b'\\' => self.bump_n(2),
                    b'\'' => {
                        self.bump();
                        break;
                    }
                    _ => self.bump(),
                }
            }
            self.push(TokKind::Literal, start, line);
            return;
        }
        let rest = &self.src[self.i + 1..];
        let mut chars = rest.chars();
        let first = chars.next();
        let second = chars.next();
        if let (Some(f), Some('\'')) = (first, second) {
            // 'x' — a char literal (covers multibyte scalars).
            self.bump(); // '
            self.bump_n(f.len_utf8());
            self.bump(); // closing '
            self.push(TokKind::Literal, start, line);
            return;
        }
        // Lifetime or label: consume ident chars after the quote.
        self.bump();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Lifetime, start, line);
    }

    /// Numeric literal, loosely: digits plus alphanumeric suffix chars,
    /// with `.` consumed only when followed by a digit (so `0..n` stays
    /// three tokens and `1.5e-9` is one-ish literal — the exponent sign
    /// splits off, which no rule cares about).
    fn number(&mut self) {
        loop {
            match self.peek(0) {
                Some(c) if c.is_ascii_alphanumeric() || c == b'_' => self.bump(),
                Some(b'.') if self.peek(1).is_some_and(|d| d.is_ascii_digit()) => self.bump(),
                _ => break,
            }
        }
    }

    /// Identifier — or a raw string / byte string / raw identifier whose
    /// prefix lexes like an identifier (`r"…"`, `br#"…"#`, `b'…'`, `r#fn`).
    fn ident_or_prefixed(&mut self, start: usize, line: u32) {
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let ident = &self.src[start..self.i];
        match (ident, self.peek(0)) {
            ("r" | "br" | "rb", Some(b'"')) => {
                self.raw_string();
                self.push(TokKind::Literal, start, line);
            }
            ("r" | "br" | "rb", Some(b'#')) => {
                // Distinguish r#"raw string"# from r#raw_ident.
                let mut j = self.i;
                while self.bytes.get(j) == Some(&b'#') {
                    j += 1;
                }
                if self.bytes.get(j) == Some(&b'"') {
                    self.raw_string();
                    self.push(TokKind::Literal, start, line);
                } else {
                    // Raw identifier: consume `#` and the identifier body.
                    self.bump();
                    while let Some(c) = self.peek(0) {
                        if c.is_ascii_alphanumeric() || c == b'_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokKind::Ident, start, line);
                }
            }
            ("b", Some(b'"')) => {
                self.string();
                self.push(TokKind::Literal, start, line);
            }
            ("b", Some(b'\'')) => {
                let qstart = self.i;
                self.quote(qstart, line);
                // Re-tag the combined prefix+literal as one literal token.
                if let Some(last) = self.out.tokens.last_mut() {
                    last.text = &self.src[start..self.i];
                }
            }
            _ => self.push(TokKind::Ident, start, line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let l = lex("let x = 1; // foo.unwrap()\n/* panic!() */ let y = 2;");
        assert!(l
            .tokens
            .iter()
            .all(|t| !t.is_ident("unwrap") && !t.is_ident("panic")));
        assert_eq!(l.comments.len(), 2);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ still comment */ fn f() {}");
        assert_eq!(idents("/* a /* b */ still */ fn f() {}"), vec!["fn", "f"]);
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn raw_strings_hide_contents() {
        let src = r####"let s = r#"call .unwrap() here"#; let t = r"x\";"####;
        assert_eq!(idents(src), vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let src = r####"let a = b"unwrap"; let b2 = br#"panic!"#;"####;
        assert_eq!(idents(src), vec!["let", "a", "let", "b2"]);
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let src = r#"let s = "a \" .unwrap() \" b";"#;
        assert_eq!(idents(src), vec!["let", "s"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let l = lex("let c = '\\''; let d: &'static str = \"x\"; 'outer: loop { break 'outer; }");
        let lifetimes: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text)
            .collect();
        assert_eq!(lifetimes, vec!["'static", "'outer", "'outer"]);
        // The '\'' char literal must not have swallowed the file.
        assert!(l.tokens.iter().any(|t| t.is_ident("loop")));
    }

    #[test]
    fn quote_char_literal_double_quote() {
        // '"' must lex as a char literal, not open a string.
        assert_eq!(
            idents("let q = '\"'; let z = 1;"),
            vec!["let", "q", "let", "z"]
        );
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#fn = 1;"), vec!["let", "r#fn"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let l = lex("for i in 0..10 { let x = 1.5e-9; }");
        assert!(l.tokens.iter().any(|t| t.is_punct('.')));
        assert!(l.tokens.iter().any(|t| t.is_ident("for")));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("a\n\nb /* x\ny */ c\nd");
        let find = |name: &str| l.tokens.iter().find(|t| t.is_ident(name)).map(|t| t.line);
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("b"), Some(3));
        assert_eq!(find("c"), Some(4));
        assert_eq!(find("d"), Some(5));
    }
}
