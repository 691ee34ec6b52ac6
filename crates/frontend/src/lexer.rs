//! Tokenizer for the supported C subset.
//!
//! The lexer performs three small preprocessing duties that the paper's
//! kernels rely on:
//!
//! * object-like `#define NAME <tokens>` macros are collected and expanded
//!   (one level, which is all the paper's kernels use);
//! * `#pragma clang loop …` lines are turned into a dedicated
//!   [`TokenKind::PragmaClangLoop`] token so the parser can attach the hint to
//!   the loop that follows;
//! * `__attribute__((…))` blobs are folded into a single
//!   [`TokenKind::Attribute`] token carrying their text.
//!
//! Tokens borrow their text from the source. [`Lexer::lex`] also records
//! where each macro was expanded, so [`Lexed::tokens_in`] can hand out the
//! tokens of a sub-span as lexing that sub-span *on its own* would yield
//! them — the loop-sampling path parses each nest from there instead of
//! lexing its text a second time.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::FrontendError;

/// A half-open byte range into the original source, with the 1-based line
/// number of its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub col: u32,
}

impl Span {
    /// Creates a span covering `[start, end)` at the given position.
    pub fn new(start: usize, end: usize, line: u32, col: u32) -> Self {
        Self {
            start,
            end,
            line,
            col,
        }
    }

    /// A zero-width placeholder span (used for synthesized nodes).
    pub fn synthetic() -> Self {
        Self {
            start: 0,
            end: 0,
            line: 0,
            col: 0,
        }
    }

    /// Returns the smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        let (first, start, end) = if self.start <= other.start {
            (self, self.start, self.end.max(other.end))
        } else {
            (other, other.start, other.end.max(self.end))
        };
        Span {
            start,
            end,
            line: first.line,
            col: first.col,
        }
    }

    /// Extracts the covered text from the original source.
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start.min(source.len())..self.end.min(source.len())]
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// The kind of a lexical token. Text payloads borrow from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'src> {
    /// Identifier or keyword (keywords are resolved by the parser).
    Ident(&'src str),
    /// Integer literal (decimal or hex).
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// Character literal, stored as its integer value.
    CharLit(i64),
    /// String literal: the text between the quotes, escapes unprocessed.
    StrLit(&'src str),
    /// `#pragma clang loop vectorize_width(V) interleave_count(I)`.
    PragmaClangLoop {
        /// Requested vectorization factor.
        vectorize_width: u32,
        /// Requested interleave count.
        interleave_count: u32,
    },
    /// An `__attribute__((…))` blob, verbatim inner text.
    Attribute(&'src str),
    /// Any punctuation or operator, e.g. `+=` or `(`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl<'src> TokenKind<'src> {
    /// Returns the identifier text if this token is an identifier.
    pub fn as_ident(&self) -> Option<&'src str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::IntLit(v) => write!(f, "integer `{v}`"),
            TokenKind::FloatLit(v) => write!(f, "float `{v}`"),
            TokenKind::CharLit(v) => write!(f, "char literal `{v}`"),
            TokenKind::StrLit(s) => write!(f, "string {s:?}"),
            TokenKind::PragmaClangLoop { .. } => write!(f, "#pragma clang loop"),
            TokenKind::Attribute(_) => write!(f, "__attribute__"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// What was lexed.
    pub kind: TokenKind<'src>,
    /// Where it was lexed from.
    pub span: Span,
}

/// Every punctuation token, longest first: the first entry that prefixes
/// the input is the token (maximal munch). The lexer itself dispatches on
/// bytes (`punct_at`); this table is the statement of what that dispatch
/// must equal, and the oracle its tests compare against.
pub const PUNCTS: &[&str] = &[
    "<<=", ">>=", "...", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "++", "--", "->", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&",
    "|", "^", "~", "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
];

/// The punctuation token `rest` starts with, if any.
fn punct_at(rest: &[u8]) -> Option<&'static str> {
    // A missing byte reads as NUL, which no punctuation contains.
    let at = |i: usize| rest.get(i).copied().unwrap_or(0);
    Some(match (at(0), at(1), at(2)) {
        (b'<', b'<', b'=') => "<<=",
        (b'>', b'>', b'=') => ">>=",
        (b'.', b'.', b'.') => "...",
        (b'<', b'<', _) => "<<",
        (b'>', b'>', _) => ">>",
        (b'<', b'=', _) => "<=",
        (b'>', b'=', _) => ">=",
        (b'=', b'=', _) => "==",
        (b'!', b'=', _) => "!=",
        (b'&', b'&', _) => "&&",
        (b'|', b'|', _) => "||",
        (b'+', b'=', _) => "+=",
        (b'-', b'=', _) => "-=",
        (b'*', b'=', _) => "*=",
        (b'/', b'=', _) => "/=",
        (b'%', b'=', _) => "%=",
        (b'&', b'=', _) => "&=",
        (b'|', b'=', _) => "|=",
        (b'^', b'=', _) => "^=",
        (b'+', b'+', _) => "++",
        (b'-', b'-', _) => "--",
        (b'-', b'>', _) => "->",
        (b'+', ..) => "+",
        (b'-', ..) => "-",
        (b'*', ..) => "*",
        (b'/', ..) => "/",
        (b'%', ..) => "%",
        (b'<', ..) => "<",
        (b'>', ..) => ">",
        (b'=', ..) => "=",
        (b'!', ..) => "!",
        (b'&', ..) => "&",
        (b'|', ..) => "|",
        (b'^', ..) => "^",
        (b'~', ..) => "~",
        (b'?', ..) => "?",
        (b':', ..) => ":",
        (b';', ..) => ";",
        (b',', ..) => ",",
        (b'.', ..) => ".",
        (b'(', ..) => "(",
        (b')', ..) => ")",
        (b'[', ..) => "[",
        (b']', ..) => "]",
        (b'{', ..) => "{",
        (b'}', ..) => "}",
        _ => return None,
    })
}

/// One use of a `#define`d name, as [`Lexer::lex`] expanded it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expansion<'src> {
    /// The macro name written at the use site.
    name: &'src str,
    /// Span of that name (every expanded token carries it too).
    span: Span,
    /// Index in the token stream of the first expanded token.
    at: usize,
    /// Number of expanded tokens (zero for an empty macro body).
    len: usize,
    /// Byte offset of the `#define` that was in force.
    defined_at: usize,
}

/// A lexed source: the expanded token stream plus the record of where
/// macros were expanded into it.
#[derive(Debug, Clone, PartialEq)]
pub struct Lexed<'src> {
    tokens: Vec<Token<'src>>,
    /// In source order; `at..at + len` indexes `tokens`.
    expansions: Vec<Expansion<'src>>,
}

impl<'src> Lexed<'src> {
    /// The whole token stream, ending with [`TokenKind::Eof`].
    pub fn tokens(&self) -> &[Token<'src>] {
        &self.tokens
    }

    /// The tokens that lexing the text of `span` *by itself* would yield
    /// (without the trailing `Eof`, spans still relative to the whole
    /// source). That differs from the tokens the whole-file pass put there
    /// in one way: a macro whose `#define` sits before `span` is unknown
    /// to a lexer that starts at `span`, so its uses inside come back as
    /// the identifier written at the use site; uses of a macro defined
    /// inside `span` stay expanded. `span` must start and end on token
    /// boundaries, as every AST span does.
    ///
    /// With no such use inside `span` — the common case — this is a
    /// sub-slice of the one token vector.
    pub fn tokens_in(&self, span: Span) -> Cow<'_, [Token<'src>]> {
        let lo = self.tokens.partition_point(|t| t.span.start < span.start);
        let hi = lo + self.tokens[lo..].partition_point(|t| t.span.start < span.end);
        let first = self
            .expansions
            .partition_point(|e| e.span.start < span.start);
        let inside = &self.expansions[first..];
        let inside = &inside[..inside.partition_point(|e| e.span.start < span.end)];
        if inside.iter().all(|e| e.defined_at >= span.start) {
            return Cow::Borrowed(&self.tokens[lo..hi]);
        }
        let mut out = Vec::with_capacity(hi - lo);
        let mut next = lo;
        for e in inside.iter().filter(|e| e.defined_at < span.start) {
            out.extend_from_slice(&self.tokens[next..e.at]);
            out.push(Token {
                kind: TokenKind::Ident(e.name),
                span: e.span,
            });
            next = e.at + e.len;
        }
        out.extend_from_slice(&self.tokens[next..hi]);
        Cow::Owned(out)
    }
}

/// A `#define`d object macro.
#[derive(Debug)]
struct Macro<'src> {
    body: Vec<Token<'src>>,
    /// Byte offset of the directive's `#`.
    defined_at: usize,
}

/// Streaming tokenizer over a source string.
///
/// Construct with [`Lexer::new`] and call [`Lexer::tokenize`] (or
/// [`Lexer::lex`] to keep the macro-expansion record).
#[derive(Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
    line: u32,
    col: u32,
    macros: HashMap<&'src str, Macro<'src>>,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Self {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            macros: HashMap::new(),
        }
    }

    /// Tokenizes the entire input, expanding `#define` macros.
    ///
    /// # Errors
    ///
    /// Returns a [`FrontendError`] on malformed literals, unknown characters,
    /// or malformed preprocessor lines.
    pub fn tokenize(self) -> Result<Vec<Token<'src>>, FrontendError> {
        self.lex().map(|lexed| lexed.tokens)
    }

    /// [`Lexer::tokenize`], keeping the record of macro expansions that
    /// [`Lexed::tokens_in`] needs.
    ///
    /// # Errors
    ///
    /// As [`Lexer::tokenize`].
    pub fn lex(mut self) -> Result<Lexed<'src>, FrontendError> {
        // The paper's kernels average one token per two source bytes.
        let mut out = Vec::with_capacity(self.bytes.len() / 2 + 1);
        let mut expansions = Vec::new();
        loop {
            self.skip_trivia()?;
            let Some(&c) = self.bytes.get(self.pos) else {
                break;
            };
            let (start, line, col) = (self.pos, self.line, self.col);
            match c {
                b'#' => self.lex_directive(&mut out)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let ident = self.lex_ident();
                    let span = Span::new(start, self.pos, line, col);
                    if ident == "__attribute__" {
                        let inner = self.lex_attribute_body(line, col)?;
                        out.push(Token {
                            kind: TokenKind::Attribute(inner),
                            span: Span::new(start, self.pos, line, col),
                        });
                    } else if let Some(m) = self.macro_named(ident) {
                        // One-level object-macro expansion; spans point at the use site.
                        expansions.push(Expansion {
                            name: ident,
                            span,
                            at: out.len(),
                            len: m.body.len(),
                            defined_at: m.defined_at,
                        });
                        out.extend(m.body.iter().map(|t| Token { kind: t.kind, span }));
                    } else {
                        out.push(Token {
                            kind: TokenKind::Ident(ident),
                            span,
                        });
                    }
                }
                b'0'..=b'9' => out.push(self.lex_number(line, col)?),
                b'.' if self.peek_digit_at(self.pos + 1) => out.push(self.lex_number(line, col)?),
                b'\'' => out.push(self.lex_char(line, col)?),
                b'"' => out.push(self.lex_string(line, col)?),
                _ => {
                    let Some(p) = punct_at(&self.bytes[self.pos..]) else {
                        // `pos` only ever stops on a character boundary: every
                        // construct above ends on an ASCII byte.
                        let found = self.src[self.pos..].chars().next().unwrap_or(c as char);
                        return Err(FrontendError::new(
                            format!("unexpected character `{found}`"),
                            line,
                            col,
                        ));
                    };
                    self.advance_in_line(p.len());
                    out.push(Token {
                        kind: TokenKind::Punct(p),
                        span: Span::new(start, self.pos, line, col),
                    });
                }
            }
        }
        out.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(self.pos, self.pos, self.line, self.col),
        });
        Ok(Lexed {
            tokens: out,
            expansions,
        })
    }

    /// The macro `ident` names, if any. Most sources define none, and then
    /// no identifier pays for a table probe.
    fn macro_named(&self, ident: &str) -> Option<&Macro<'src>> {
        if self.macros.is_empty() {
            return None;
        }
        self.macros.get(ident)
    }

    fn advance(&mut self) {
        if self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
            self.pos += 1;
        }
    }

    /// Advances over `n` bytes known to hold no newline.
    fn advance_in_line(&mut self, n: usize) {
        self.pos += n;
        self.col += n as u32;
    }

    fn peek_digit_at(&self, i: usize) -> bool {
        self.bytes.get(i).is_some_and(u8::is_ascii_digit)
    }

    fn skip_trivia(&mut self) -> Result<(), FrontendError> {
        loop {
            let Some(&c) = self.bytes.get(self.pos) else {
                return Ok(());
            };
            if c.is_ascii_whitespace() {
                self.advance();
            } else if c == b'/' && self.bytes.get(self.pos + 1) == Some(&b'/') {
                self.take_rest_of_line();
            } else if c == b'/' && self.bytes.get(self.pos + 1) == Some(&b'*') {
                let (line, col) = (self.line, self.col);
                self.advance();
                self.advance();
                loop {
                    if self.pos + 1 >= self.bytes.len() {
                        return Err(FrontendError::new("unterminated block comment", line, col));
                    }
                    if self.bytes[self.pos] == b'*' && self.bytes[self.pos + 1] == b'/' {
                        self.advance();
                        self.advance();
                        break;
                    }
                    self.advance();
                }
            } else {
                return Ok(());
            }
        }
    }

    fn lex_ident(&mut self) -> &'src str {
        let rest = &self.bytes[self.pos..];
        let n = rest
            .iter()
            .position(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
            .unwrap_or(rest.len());
        let start = self.pos;
        self.advance_in_line(n);
        &self.src[start..self.pos]
    }

    fn lex_number(&mut self, line: u32, col: u32) -> Result<Token<'src>, FrontendError> {
        let start = self.pos;
        let mut is_float = false;
        if self.bytes[self.pos] == b'0'
            && matches!(self.bytes.get(self.pos + 1), Some(b'x') | Some(b'X'))
        {
            self.advance();
            self.advance();
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_hexdigit) {
                self.advance();
            }
            let text = &self.src[start + 2..self.pos];
            let v = i64::from_str_radix(text, 16)
                .map_err(|_| FrontendError::new("invalid hex literal", line, col))?;
            self.skip_int_suffix();
            return Ok(Token {
                kind: TokenKind::IntLit(v),
                span: Span::new(start, self.pos, line, col),
            });
        }
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.advance();
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            is_float = true;
            self.advance();
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.advance();
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e') | Some(b'E')) {
            let save = (self.pos, self.line, self.col);
            self.advance();
            if matches!(self.bytes.get(self.pos), Some(b'+') | Some(b'-')) {
                self.advance();
            }
            if self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                is_float = true;
                while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    self.advance();
                }
            } else {
                (self.pos, self.line, self.col) = save;
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            let mut v: f64 = text
                .parse()
                .map_err(|_| FrontendError::new("invalid float literal", line, col))?;
            if matches!(self.bytes.get(self.pos), Some(b'f') | Some(b'F')) {
                self.advance();
                v = v as f32 as f64;
            }
            Ok(Token {
                kind: TokenKind::FloatLit(v),
                span: Span::new(start, self.pos, line, col),
            })
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| FrontendError::new("invalid integer literal", line, col))?;
            self.skip_int_suffix();
            Ok(Token {
                kind: TokenKind::IntLit(v),
                span: Span::new(start, self.pos, line, col),
            })
        }
    }

    fn skip_int_suffix(&mut self) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b'u') | Some(b'U') | Some(b'l') | Some(b'L')
        ) {
            self.advance();
        }
    }

    fn lex_char(&mut self, line: u32, col: u32) -> Result<Token<'src>, FrontendError> {
        let start = self.pos;
        self.advance(); // opening quote
        let v = match self.bytes.get(self.pos) {
            Some(b'\\') => {
                self.advance();
                let esc = self.bytes.get(self.pos).copied().ok_or_else(|| {
                    FrontendError::new("unterminated character literal", line, col)
                })?;
                self.advance();
                match esc {
                    b'n' => b'\n' as i64,
                    b't' => b'\t' as i64,
                    b'r' => b'\r' as i64,
                    b'0' => 0,
                    b'\\' => b'\\' as i64,
                    b'\'' => b'\'' as i64,
                    other => other as i64,
                }
            }
            Some(&c) => {
                self.advance();
                c as i64
            }
            None => {
                return Err(FrontendError::new(
                    "unterminated character literal",
                    line,
                    col,
                ))
            }
        };
        if self.bytes.get(self.pos) != Some(&b'\'') {
            return Err(FrontendError::new(
                "unterminated character literal",
                line,
                col,
            ));
        }
        self.advance();
        Ok(Token {
            kind: TokenKind::CharLit(v),
            span: Span::new(start, self.pos, line, col),
        })
    }

    fn lex_string(&mut self, line: u32, col: u32) -> Result<Token<'src>, FrontendError> {
        let start = self.pos;
        self.advance(); // opening quote
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => break,
                Some(b'\\') => {
                    self.advance();
                    self.advance();
                }
                Some(_) => self.advance(),
                None => return Err(FrontendError::new("unterminated string literal", line, col)),
            }
        }
        let text = &self.src[start + 1..self.pos];
        self.advance(); // closing quote
        Ok(Token {
            kind: TokenKind::StrLit(text),
            span: Span::new(start, self.pos, line, col),
        })
    }

    /// Consumes text through the rest of the current line, returning it.
    fn take_rest_of_line(&mut self) -> &'src str {
        let rest = &self.bytes[self.pos..];
        let n = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        let start = self.pos;
        self.advance_in_line(n);
        &self.src[start..self.pos]
    }

    fn skip_blanks(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ') | Some(b'\t')) {
            self.advance();
        }
    }

    fn lex_directive(&mut self, out: &mut Vec<Token<'src>>) -> Result<(), FrontendError> {
        let line = self.line;
        let col = self.col;
        let start = self.pos;
        self.advance(); // '#'
        self.skip_blanks();
        match self.lex_ident() {
            "define" => {
                self.skip_blanks();
                let macro_name = self.lex_ident();
                if macro_name.is_empty() {
                    return Err(FrontendError::new("#define requires a name", line, col));
                }
                let body = Lexer::new(self.take_rest_of_line().trim())
                    .tokenize()?
                    .into_iter()
                    .filter(|t| t.kind != TokenKind::Eof)
                    .collect();
                self.macros.insert(
                    macro_name,
                    Macro {
                        body,
                        defined_at: start,
                    },
                );
                Ok(())
            }
            "pragma" => {
                let rest = self.take_rest_of_line().trim();
                if let Some(tok) =
                    parse_clang_loop_pragma(rest, Span::new(start, self.pos, line, col))
                {
                    out.push(tok);
                }
                // Unrecognized pragmas are ignored, matching compiler behaviour.
                Ok(())
            }
            "include" | "ifdef" | "ifndef" | "endif" | "if" | "else" | "undef" => {
                // Harmless for our kernels: includes/conditionals carry no
                // semantics in the subset, so they are skipped line-wise.
                self.take_rest_of_line();
                Ok(())
            }
            other => Err(FrontendError::new(
                format!("unsupported preprocessor directive `#{other}`"),
                line,
                col,
            )),
        }
    }

    fn lex_attribute_body(&mut self, line: u32, col: u32) -> Result<&'src str, FrontendError> {
        self.skip_trivia()?;
        if self.bytes.get(self.pos) != Some(&b'(') {
            return Err(FrontendError::new(
                "expected `((` after __attribute__",
                line,
                col,
            ));
        }
        let mut depth = 0usize;
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                Some(b'(') => {
                    depth += 1;
                    self.advance();
                }
                Some(b')') => {
                    depth -= 1;
                    self.advance();
                    if depth == 0 {
                        break;
                    }
                }
                Some(_) => self.advance(),
                None => return Err(FrontendError::new("unterminated __attribute__", line, col)),
            }
        }
        // Trim exactly the outer double parens, keeping any parens that
        // belong to the attribute itself (e.g. `aligned(16)`).
        let mut inner = &self.src[start..self.pos];
        for _ in 0..2 {
            inner = inner
                .strip_prefix('(')
                .and_then(|s| s.strip_suffix(')'))
                .unwrap_or(inner);
        }
        Ok(inner.trim())
    }
}
/// Parses the body of a `pragma` line, recognizing `clang loop` hints.
///
/// Returns `None` for pragmas we do not model (they are ignored, like a real
/// compiler ignores unknown pragmas).
fn parse_clang_loop_pragma(rest: &str, span: Span) -> Option<Token<'static>> {
    let mut words = rest.split_whitespace();
    if words.next()? != "clang" || words.next()? != "loop" {
        return None;
    }
    let mut vf = 1u32;
    let mut ifc = 1u32;
    let mut saw_any = false;
    for clause in words {
        if let Some(v) = clause
            .strip_prefix("vectorize_width(")
            .and_then(|s| s.strip_suffix(')'))
        {
            vf = v.trim().parse().ok()?;
            saw_any = true;
        } else if let Some(v) = clause
            .strip_prefix("interleave_count(")
            .and_then(|s| s.strip_suffix(')'))
        {
            ifc = v.trim().parse().ok()?;
            saw_any = true;
        }
    }
    saw_any.then_some(Token {
        kind: TokenKind::PragmaClangLoop {
            vectorize_width: vf,
            interleave_count: ifc,
        },
        span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lex_simple_expression() {
        let k = kinds("a + 42 * b3");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a"),
                TokenKind::Punct("+"),
                TokenKind::IntLit(42),
                TokenKind::Punct("*"),
                TokenKind::Ident("b3"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_maximal_munch_compound_ops() {
        let k = kinds("a += b <<= c << d <= e");
        assert!(k.contains(&TokenKind::Punct("+=")));
        assert!(k.contains(&TokenKind::Punct("<<=")));
        assert!(k.contains(&TokenKind::Punct("<<")));
        assert!(k.contains(&TokenKind::Punct("<=")));
    }

    #[test]
    fn punct_dispatch_equals_first_match_in_the_table() {
        let mut alphabet: Vec<u8> = PUNCTS.iter().flat_map(|p| p.bytes()).collect();
        alphabet.sort_unstable();
        alphabet.dedup();
        alphabet.extend([b'a', b' ']);
        for &a in &alphabet {
            for &b in &alphabet {
                for &c in &alphabet {
                    for len in 1..=3 {
                        let window = &[a, b, c][..len];
                        let text = std::str::from_utf8(window).unwrap();
                        let first_match = PUNCTS.iter().copied().find(|p| text.starts_with(p));
                        assert_eq!(punct_at(window), first_match, "on {text:?}");
                    }
                }
            }
        }
        assert_eq!(punct_at(b""), None);
    }

    #[test]
    fn tokens_in_a_span_are_what_lexing_its_text_gives() {
        let src = "#define N 512\n#define EMPTY\nint a[N];\n\
                   for (i = 0; i < N; i++) {\n#define M (N + 1)\n EMPTY a[i] = M; }\nN";
        let lexed = Lexer::new(src).lex().unwrap();
        let start = src.find("for").unwrap();
        let nest = Span::new(start, src.rfind('}').unwrap() + 1, 4, 1);
        fn kinds<'a>(ts: &[Token<'a>]) -> Vec<TokenKind<'a>> {
            ts.iter().map(|t| t.kind).collect()
        }

        let alone = Lexer::new(nest.text(src)).tokenize().unwrap();
        let in_place = lexed.tokens_in(nest);
        assert!(
            matches!(in_place, Cow::Owned(_)),
            "`N` and `EMPTY` are spliced"
        );
        assert_eq!(kinds(&in_place), kinds(&alone[..alone.len() - 1]));
        // `N` and `EMPTY` come from outside: identifiers, at their use site.
        assert_eq!(in_place[8].kind, TokenKind::Ident("N"));
        assert_eq!(in_place[8].span.text(src), "N");
        assert!(in_place.iter().any(|t| t.kind == TokenKind::Ident("EMPTY")));
        // `M` is defined inside: expanded, its body's `N` left alone.
        assert!(!in_place.iter().any(|t| t.kind == TokenKind::Ident("M")));

        // A span no outside macro is used in is a sub-slice of the stream.
        let decl = Span::new(
            src.find("a[i]").unwrap(),
            src.find("a[i]").unwrap() + 4,
            6,
            8,
        );
        assert!(matches!(lexed.tokens_in(decl), Cow::Borrowed(_)));
        assert_eq!(lexed.tokens_in(decl).len(), 4);
    }

    #[test]
    fn lex_float_and_hex_literals() {
        let k = kinds("1.5 0x1F 2e3 7f 3.0f");
        assert_eq!(k[0], TokenKind::FloatLit(1.5));
        assert_eq!(k[1], TokenKind::IntLit(31));
        assert_eq!(k[2], TokenKind::FloatLit(2000.0));
        // `7f` lexes as 7 then identifier f (C would reject; our subset is lenient).
        assert_eq!(k[3], TokenKind::IntLit(7));
        assert_eq!(k[5], TokenKind::FloatLit(3.0));
    }

    #[test]
    fn lex_comments_are_skipped() {
        let k = kinds("a /* multi\nline */ b // trailing\nc");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_pragma_clang_loop() {
        let k = kinds("#pragma clang loop vectorize_width(8) interleave_count(4)\nfor");
        assert_eq!(
            k[0],
            TokenKind::PragmaClangLoop {
                vectorize_width: 8,
                interleave_count: 4
            }
        );
        assert_eq!(k[1], TokenKind::Ident("for"));
    }

    #[test]
    fn lex_unknown_pragma_is_ignored() {
        let k = kinds("#pragma omp parallel for\nx");
        assert_eq!(k[0], TokenKind::Ident("x"));
    }

    #[test]
    fn lex_define_macro_expansion() {
        let k = kinds("#define N 512\nint a[N];");
        assert!(k.contains(&TokenKind::IntLit(512)));
        assert!(!k.iter().any(|t| matches!(t, TokenKind::Ident("N"))));
    }

    #[test]
    fn lex_define_expression_macro() {
        let k = kinds("#define SZ (N*2)\nSZ");
        assert_eq!(k[0], TokenKind::Punct("("));
        assert_eq!(k[1], TokenKind::Ident("N"));
    }

    #[test]
    fn lex_attribute_blob() {
        let k = kinds("int v[4] __attribute__((aligned(16)));");
        assert!(k
            .iter()
            .any(|t| matches!(t, TokenKind::Attribute("aligned(16)"))));
    }

    #[test]
    fn lex_char_literals() {
        let k = kinds(r"'a' '\n' '\0'");
        assert_eq!(k[0], TokenKind::CharLit(97));
        assert_eq!(k[1], TokenKind::CharLit(10));
        assert_eq!(k[2], TokenKind::CharLit(0));
    }

    #[test]
    fn lex_error_reports_position() {
        let err = Lexer::new("int a;\n  @").tokenize().unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.col(), 3);
    }

    #[test]
    fn span_merge_and_text() {
        let s1 = Span::new(0, 3, 1, 1);
        let s2 = Span::new(4, 7, 1, 5);
        let m = s1.merge(s2);
        assert_eq!((m.start, m.end), (0, 7));
        assert_eq!(m.text("abc def"), "abc def");
    }

    #[test]
    fn lex_include_is_skipped() {
        let k = kinds("#include <stdio.h>\nint x;");
        assert_eq!(k[0], TokenKind::Ident("int"));
    }
}
