//! Lexer for the CHERI C subset.
//!
//! Preprocessor directives (`#include`, `#define` of simple object-like
//! macros) are handled here: includes are ignored (the standard headers'
//! relevant contents are built into the semantics), and object-like macros
//! are expanded textually.

use std::collections::HashMap;
use std::fmt;

/// Source position (1-based line, column).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Pos {
    /// Line number, 1-based.
    pub line: u32,
    /// Column number, 1-based.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal with suffix-derived unsignedness/longness.
    IntLit {
        /// The value.
        value: u128,
        /// `U` suffix present.
        unsigned: bool,
        /// `L`/`LL` suffix present.
        long: bool,
    },
    /// Floating-point literal; `single` when suffixed `f`.
    FloatLit {
        /// The value.
        value: f64,
        /// `f`/`F` suffix present (type `float`).
        single: bool,
    },
    /// Character literal (value of the character).
    CharLit(i64),
    /// String literal (unescaped contents).
    StrLit(String),
    /// Punctuation, e.g. `"+="`, `"->"`, `"("`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::IntLit { value, .. } => write!(f, "{value}"),
            Tok::FloatLit { value, .. } => write!(f, "{value}"),
            Tok::CharLit(c) => write!(f, "'{c}'"),
            Tok::StrLit(s) => write!(f, "{s:?}"),
            Tok::Punct(p) => write!(f, "{p}"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Debug)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// Lexical error.
#[derive(Clone, Debug)]
pub struct LexError {
    /// What went wrong.
    pub msg: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for LexError {}

const PUNCTS: &[&str] = &[
    // Three-char first, then two-char, then one-char: longest match wins.
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "&=", "|=", "^=", "(", ")", "[", "]", "{", "}", ";", ",", ".", "+",
    "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=", "?", ":",
];

struct Lexer<'s> {
    src: &'s [u8],
    i: usize,
    line: u32,
    col: u32,
    macros: HashMap<String, Vec<Spanned>>,
}

impl Lexer<'_> {
    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LexError> {
        Err(LexError {
            msg: msg.into(),
            pos: self.pos(),
        })
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if (c as char).is_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => return self.err("unterminated comment"),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_directive(&mut self) -> Result<(), LexError> {
        // Consume '#'. Directives occupy one (logical) line.
        self.bump();
        let start = self.i;
        while let Some(c) = self.peek() {
            if c == b'\n' {
                break;
            }
            self.bump();
        }
        let line = std::str::from_utf8(&self.src[start..self.i])
            .map_err(|_| LexError {
                msg: "non-UTF8 directive".into(),
                pos: self.pos(),
            })?
            .trim()
            .to_string();
        if let Some(rest) = line.strip_prefix("define") {
            let rest = rest.trim_start();
            let name_end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let (name, body) = rest.split_at(name_end);
            if !name.is_empty() && !body.starts_with('(') {
                // Object-like macro: lex the body now (it cannot itself
                // contain directives) and store the token sequence.
                let toks = lex(body.trim())?;
                let toks: Vec<Spanned> = toks
                    .into_iter()
                    .filter(|t| t.tok != Tok::Eof)
                    .collect();
                self.macros.insert(name.to_string(), toks);
            }
            // Function-like macros are not supported; tests do not use them.
        }
        // #include, #pragma, #if 0/#endif etc. are ignored (headers are
        // built in). Conditional compilation is not supported.
        Ok(())
    }

    fn lex_number(&mut self) -> Result<Tok, LexError> {
        let mut value: u128 = 0;
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x' | b'X')) {
            self.bump();
            self.bump();
            let mut any = false;
            while let Some(c) = self.peek() {
                let d = match c {
                    b'0'..=b'9' => c - b'0',
                    b'a'..=b'f' => c - b'a' + 10,
                    b'A'..=b'F' => c - b'A' + 10,
                    _ => break,
                };
                value = value
                    .checked_mul(16)
                    .and_then(|v| v.checked_add(u128::from(d)))
                    .ok_or_else(|| LexError {
                        msg: "integer literal overflow".into(),
                        pos: self.pos(),
                    })?;
                any = true;
                self.bump();
            }
            if !any {
                return self.err("empty hex literal");
            }
        } else {
            let octal = self.peek() == Some(b'0');
            let radix: u128 = if octal { 8 } else { 10 };
            while let Some(c) = self.peek() {
                if !c.is_ascii_digit() {
                    break;
                }
                let d = c - b'0';
                if octal && d > 7 {
                    return self.err("invalid octal digit");
                }
                value = value
                    .checked_mul(radix)
                    .and_then(|v| v.checked_add(u128::from(d)))
                    .ok_or_else(|| LexError {
                        msg: "integer literal overflow".into(),
                        pos: self.pos(),
                    })?;
                self.bump();
            }
        }
        // Floating-point continuation: a '.' or exponent makes this a
        // float literal (only for decimal literals).
        if self.peek() == Some(b'.') || matches!(self.peek(), Some(b'e' | b'E')) {
            let mut text = value.to_string();
            if self.peek() == Some(b'.') {
                self.bump();
                text.push('.');
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        text.push(c as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.bump();
                text.push('e');
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    text.push(self.bump().expect("sign") as char);
                }
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        text.push(c as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            let mut single = false;
            if matches!(self.peek(), Some(b'f' | b'F')) {
                single = true;
                self.bump();
            } else if matches!(self.peek(), Some(b'l' | b'L')) {
                self.bump(); // long double: treated as double
            }
            let value: f64 = text.parse().map_err(|_| LexError {
                msg: format!("bad float literal {text}"),
                pos: self.pos(),
            })?;
            return Ok(Tok::FloatLit { value, single });
        }
        let mut unsigned = false;
        let mut long = false;
        while let Some(c) = self.peek() {
            match c {
                b'u' | b'U' => {
                    unsigned = true;
                    self.bump();
                }
                b'l' | b'L' => {
                    long = true;
                    self.bump();
                }
                _ => break,
            }
        }
        Ok(Tok::IntLit {
            value,
            unsigned,
            long,
        })
    }

    fn lex_escape(&mut self) -> Result<u8, LexError> {
        match self.bump() {
            Some(b'n') => Ok(b'\n'),
            Some(b't') => Ok(b'\t'),
            Some(b'r') => Ok(b'\r'),
            Some(b'0') => Ok(0),
            Some(b'\\') => Ok(b'\\'),
            Some(b'\'') => Ok(b'\''),
            Some(b'"') => Ok(b'"'),
            Some(b'x') => {
                let mut v: u32 = 0;
                while let Some(c) = self.peek() {
                    let d = match c {
                        b'0'..=b'9' => c - b'0',
                        b'a'..=b'f' => c - b'a' + 10,
                        b'A'..=b'F' => c - b'A' + 10,
                        _ => break,
                    };
                    v = v * 16 + u32::from(d);
                    self.bump();
                }
                Ok(v as u8)
            }
            _ => self.err("unsupported escape"),
        }
    }

    fn next_token(&mut self) -> Result<Option<Spanned>, LexError> {
        loop {
            self.skip_ws_and_comments()?;
            match self.peek() {
                None => return Ok(None),
                Some(b'#') => self.lex_directive()?,
                _ => break,
            }
        }
        let pos = self.pos();
        let c = self.peek().expect("peeked above");
        let tok = if c.is_ascii_digit() {
            self.lex_number()?
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.i;
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' {
                    self.bump();
                } else {
                    break;
                }
            }
            Tok::Ident(String::from_utf8_lossy(&self.src[start..self.i]).into_owned())
        } else if c == b'\'' {
            self.bump();
            let v = match self.bump() {
                Some(b'\\') => i64::from(self.lex_escape()?),
                Some(c) => i64::from(c),
                None => return self.err("unterminated char literal"),
            };
            if self.bump() != Some(b'\'') {
                return self.err("unterminated char literal");
            }
            Tok::CharLit(v)
        } else if c == b'"' {
            self.bump();
            let mut s = Vec::new();
            loop {
                match self.bump() {
                    Some(b'"') => break,
                    Some(b'\\') => s.push(self.lex_escape()?),
                    Some(c) => s.push(c),
                    None => return self.err("unterminated string literal"),
                }
            }
            Tok::StrLit(String::from_utf8_lossy(&s).into_owned())
        } else {
            let rest = &self.src[self.i..];
            // Comparing the first byte first skips most entries cheaply.
            let p = PUNCTS
                .iter()
                .find(|p| p.as_bytes()[0] == c && rest.starts_with(p.as_bytes()))
                .copied();
            match p {
                Some(p) => {
                    for _ in 0..p.len() {
                        self.bump();
                    }
                    Tok::Punct(p)
                }
                None => return self.err(format!("unexpected character {:?}", c as char)),
            }
        };
        Ok(Some(Spanned { tok, pos }))
    }
}

/// Tokenise `src`, expanding object-like `#define` macros and ignoring other
/// preprocessor directives.
///
/// # Errors
///
/// Returns a [`LexError`] on malformed input.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
        macros: HashMap::new(),
    };
    let mut out = Vec::new();
    while let Some(t) = lx.next_token()? {
        if let Tok::Ident(name) = &t.tok {
            if let Some(expansion) = lx.macros.get(name) {
                out.extend(expansion.iter().cloned().map(|mut s| {
                    s.pos = t.pos;
                    s
                }));
                continue;
            }
        }
        out.push(t);
    }
    out.push(Spanned {
        tok: Tok::Eof,
        pos: lx.pos(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("int x = 42;"),
            vec![
                Tok::Ident("int".into()),
                Tok::Ident("x".into()),
                Tok::Punct("="),
                Tok::IntLit {
                    value: 42,
                    unsigned: false,
                    long: false
                },
                Tok::Punct(";"),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn hex_and_suffixes() {
        assert_eq!(
            toks("0xFFul")[0],
            Tok::IntLit {
                value: 255,
                unsigned: true,
                long: true
            }
        );
        assert_eq!(
            toks("0777")[0],
            Tok::IntLit {
                value: 0o777,
                unsigned: false,
                long: false
            }
        );
    }

    #[test]
    fn comments_and_includes_ignored() {
        let t = toks("#include <stdint.h>\n// line\n/* block */ x");
        assert_eq!(t, vec![Tok::Ident("x".into()), Tok::Eof]);
    }

    #[test]
    fn object_macros_expand() {
        let t = toks("#define N 3\nint a[N];");
        assert!(t.contains(&Tok::IntLit {
            value: 3,
            unsigned: false,
            long: false
        }));
    }

    #[test]
    fn multi_char_punct_longest_match() {
        assert_eq!(toks("a->b")[1], Tok::Punct("->"));
        assert_eq!(toks("x <<= 2")[1], Tok::Punct("<<="));
        assert_eq!(toks("x <= 2")[1], Tok::Punct("<="));
    }

    #[test]
    fn char_and_string_literals() {
        assert_eq!(toks(r"'\n'")[0], Tok::CharLit(10));
        assert_eq!(toks("'A'")[0], Tok::CharLit(65));
        assert_eq!(toks(r#""hi\n""#)[0], Tok::StrLit("hi\n".into()));
    }

    #[test]
    fn positions_track_lines() {
        let ts = lex("int\n  x;").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }
}
