//! S-expression reader: the concrete syntax of RTR programs.
//!
//! A small, span-tracking reader for the Racket-like surface syntax
//! used throughout the paper: parenthesized or bracketed lists, symbols,
//! integers, `#t`/`#f`, hexadecimal bitvector literals (`#x1b`), strings,
//! line comments (`;`), and the keywords (`#:where`) the annotation
//! syntax needs. Every datum records the full [`Span`] it occupies, and
//! the spans survive elaboration into [`rtr_core::diag`] diagnostics.

use std::fmt;

pub use rtr_core::diag::Span;
use rtr_core::syntax::Symbol;

/// A source position (1-based line and column) — the core
/// [`rtr_core::diag::Loc`] under its traditional reader name.
pub type Pos = rtr_core::diag::Loc;

/// A parsed s-expression datum.
#[derive(Clone, PartialEq, Debug)]
pub enum Sexp {
    /// A symbol (identifier or operator), interned as it is read.
    Symbol(Symbol, Span),
    /// An integer literal.
    Int(i64, Span),
    /// A boolean literal `#t` / `#f`.
    Bool(bool, Span),
    /// A bitvector literal `#xNN`.
    BvHex(u64, Span),
    /// A keyword such as `#:where` (its name, interned).
    Keyword(Symbol, Span),
    /// A string literal.
    Str(String, Span),
    /// A regex literal `#rx"…"` (raw pattern text; validated during
    /// elaboration).
    Regex(String, Span),
    /// A parenthesized (or bracketed) list.
    List(Vec<Sexp>, Span),
}

impl Sexp {
    /// The full source region of the datum.
    pub fn span(&self) -> Span {
        match self {
            Sexp::Symbol(_, s)
            | Sexp::Int(_, s)
            | Sexp::Bool(_, s)
            | Sexp::BvHex(_, s)
            | Sexp::Keyword(_, s)
            | Sexp::Str(_, s)
            | Sexp::Regex(_, s)
            | Sexp::List(_, s) => *s,
        }
    }

    /// The source position where the datum starts.
    pub fn pos(&self) -> Pos {
        self.span().start
    }

    /// The symbol's name, if this is a symbol.
    pub fn as_symbol(&self) -> Option<&'static str> {
        match self {
            Sexp::Symbol(s, _) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The list's elements, if this is a list.
    pub fn as_list(&self) -> Option<&[Sexp]> {
        match self {
            Sexp::List(items, _) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Sexp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sexp::Symbol(s, _) => write!(f, "{s}"),
            Sexp::Int(n, _) => write!(f, "{n}"),
            Sexp::Bool(true, _) => write!(f, "#t"),
            Sexp::Bool(false, _) => write!(f, "#f"),
            Sexp::BvHex(v, _) => write!(f, "#x{v:02x}"),
            Sexp::Keyword(k, _) => write!(f, "#:{k}"),
            Sexp::Str(s, _) => write!(f, "{s:?}"),
            Sexp::Regex(r, _) => write!(f, "#rx\"{r}\""),
            Sexp::List(items, _) => write!(f, "{}", ListDisplay(items)),
        }
    }
}

/// Displays a slice of data as the list that holds them: `(a b c)`.
pub(crate) struct ListDisplay<'a>(pub(crate) &'a [Sexp]);

impl fmt::Display for ListDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, ")")
    }
}

/// A reader error with position information.
#[derive(Clone, PartialEq, Debug)]
pub struct ReadError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "read error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ReadError {}

struct Reader<'a> {
    /// The unread rest of the source.
    rest: &'a str,
    pos: Pos,
}

impl<'a> Reader<'a> {
    fn new(src: &'a str) -> Reader<'a> {
        Reader {
            rest: src,
            pos: Pos { line: 1, col: 1 },
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.rest = &self.rest[c.len_utf8()..];
        if c == '\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else {
            self.pos.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<char> {
        self.rest.chars().next()
    }

    fn error(&self, message: impl Into<String>) -> ReadError {
        ReadError {
            message: message.into(),
            pos: self.pos,
        }
    }

    /// The region from `start` to the reader's current position (just
    /// past the last consumed character of the datum).
    fn span(&self, start: Pos) -> Span {
        Span::new(start, self.pos)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some(';') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn read_all(&mut self) -> Result<Vec<Sexp>, ReadError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek().is_none() {
                return Ok(out);
            }
            out.push(self.read_datum()?);
        }
    }

    fn read_datum(&mut self) -> Result<Sexp, ReadError> {
        self.skip_trivia();
        let pos = self.pos;
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some('(') | Some('[') => {
                let open = self.bump().expect("peeked");
                let close = if open == '(' { ')' } else { ']' };
                let mut items = Vec::new();
                loop {
                    self.skip_trivia();
                    match self.peek() {
                        None => {
                            return Err(self.error(format!("missing `{close}`")));
                        }
                        Some(c) if c == close => {
                            self.bump();
                            return Ok(Sexp::List(items, self.span(pos)));
                        }
                        Some(')') | Some(']') => {
                            return Err(
                                self.error(format!("mismatched delimiter, wanted `{close}`"))
                            );
                        }
                        _ => items.push(self.read_datum()?),
                    }
                }
            }
            Some(')') | Some(']') => Err(self.error("unexpected closing delimiter")),
            Some('"') => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.error("unterminated string")),
                        Some('"') => return Ok(Sexp::Str(s, self.span(pos))),
                        Some('\\') => match self.bump() {
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some(c @ ('"' | '\\')) => s.push(c),
                            _ => return Err(self.error("bad string escape")),
                        },
                        Some(c) => s.push(c),
                    }
                }
            }
            Some('#') => {
                self.bump();
                match self.peek() {
                    Some('t') => {
                        self.bump();
                        Ok(Sexp::Bool(true, self.span(pos)))
                    }
                    Some('f') => {
                        self.bump();
                        Ok(Sexp::Bool(false, self.span(pos)))
                    }
                    Some('x') => {
                        self.bump();
                        let digits = self.take_while(|c| c.is_ascii_hexdigit());
                        if digits.is_empty() {
                            return Err(self.error("`#x` needs hex digits"));
                        }
                        u64::from_str_radix(digits, 16)
                            .map(|v| Sexp::BvHex(v, self.span(pos)))
                            .map_err(|_| self.error("hex literal out of range"))
                    }
                    Some(':') => {
                        self.bump();
                        let word = self.read_word();
                        if word.is_empty() {
                            return Err(self.error("`#:` needs a keyword name"));
                        }
                        Ok(Sexp::Keyword(Symbol::intern(word), self.span(pos)))
                    }
                    Some('r') => {
                        self.bump();
                        if self.bump() != Some('x') {
                            return Err(self.error("expected `#rx\"…\"`"));
                        }
                        if self.bump() != Some('"') {
                            return Err(self.error("`#rx` needs a quoted pattern"));
                        }
                        // The pattern is read raw: `\` escapes stay intact
                        // for the regex parser; only `\"` is special so
                        // quotes can appear in patterns.
                        let mut pat = String::new();
                        loop {
                            match self.bump() {
                                None => return Err(self.error("unterminated regex literal")),
                                Some('"') => return Ok(Sexp::Regex(pat, self.span(pos))),
                                Some('\\') => match self.bump() {
                                    Some('"') => pat.push('"'),
                                    Some(c) => {
                                        pat.push('\\');
                                        pat.push(c);
                                    }
                                    None => return Err(self.error("unterminated regex literal")),
                                },
                                Some(c) => pat.push(c),
                            }
                        }
                    }
                    _ => Err(self.error("unknown `#` syntax")),
                }
            }
            Some(_) => {
                let word = self.read_word();
                if word.is_empty() {
                    return Err(self.error("unreadable character"));
                }
                // Integers (with optional sign).
                if let Ok(n) = word.parse::<i64>() {
                    // Bare `-`/`+` are symbols, parse::<i64> rejects them.
                    return Ok(Sexp::Int(n, self.span(pos)));
                }
                Ok(Sexp::Symbol(Symbol::intern(word), self.span(pos)))
            }
        }
    }

    /// The source text up to the next delimiter, whitespace or comment.
    fn read_word(&mut self) -> &'a str {
        self.take_while(|c| !(c.is_whitespace() || matches!(c, '(' | ')' | '[' | ']' | '"' | ';')))
    }

    /// Consumes the longest prefix whose characters satisfy `keep`.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let start = self.rest;
        while self.peek().is_some_and(&keep) {
            self.bump();
        }
        &start[..start.len() - self.rest.len()]
    }
}

/// Reads every datum in `src`.
///
/// # Errors
///
/// Returns a [`ReadError`] with position information on malformed input.
///
/// # Examples
///
/// ```
/// use rtr_lang::sexp::read_all;
///
/// let data = read_all("(+ 1 2) ; comment\n#t").unwrap();
/// assert_eq!(data.len(), 2);
/// ```
pub fn read_all(src: &str) -> Result<Vec<Sexp>, ReadError> {
    Reader::new(src).read_all()
}

/// Reads every datum in `src`, reporting positions as if `src` started
/// at `start` in some larger source. Used by the incremental module
/// pipeline to re-elaborate a single changed form *slice* with spans
/// that stay absolute in the full file — re-reading only the changed
/// text, not the whole module.
///
/// # Errors
///
/// Returns a [`ReadError`] (with absolute position) on malformed input.
///
/// # Examples
///
/// ```
/// use rtr_lang::sexp::{read_all_from, Pos};
///
/// // The slice "(a b)" starts at line 3, column 5 of its file.
/// let data = read_all_from("(a b)", Pos { line: 3, col: 5 }).unwrap();
/// assert_eq!(data[0].pos(), Pos { line: 3, col: 5 });
/// ```
pub fn read_all_from(src: &str, start: Pos) -> Result<Vec<Sexp>, ReadError> {
    let mut r = Reader::new(src);
    r.pos = start;
    r.read_all()
}

/// Reads exactly one datum.
///
/// # Errors
///
/// Fails on malformed input or trailing data.
pub fn read_one(src: &str) -> Result<Sexp, ReadError> {
    let mut r = Reader::new(src);
    let datum = r.read_datum()?;
    r.skip_trivia();
    if r.peek().is_some() {
        return Err(r.error("trailing data after datum"));
    }
    Ok(datum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms() {
        assert!(matches!(read_one("42"), Ok(Sexp::Int(42, _))));
        assert!(matches!(read_one("-7"), Ok(Sexp::Int(-7, _))));
        assert!(matches!(read_one("#t"), Ok(Sexp::Bool(true, _))));
        assert!(matches!(read_one("#f"), Ok(Sexp::Bool(false, _))));
        assert!(matches!(read_one("#x1b"), Ok(Sexp::BvHex(0x1b, _))));
        assert!(matches!(read_one("#:where"), Ok(Sexp::Keyword(k, _)) if k.as_str() == "where"));
        assert!(matches!(read_one("vec-ref"), Ok(Sexp::Symbol(s, _)) if s.as_str() == "vec-ref"));
        assert!(matches!(read_one("-"), Ok(Sexp::Symbol(s, _)) if s.as_str() == "-"));
        assert!(matches!(read_one("\"hi\\n\""), Ok(Sexp::Str(ref s, _)) if s == "hi\n"));
    }

    #[test]
    fn lists_and_brackets() {
        let s = read_one("(define (max [x : Int]) x)").unwrap();
        let items = s.as_list().unwrap();
        assert_eq!(items[0].as_symbol(), Some("define"));
        let inner = items[1].as_list().unwrap();
        assert_eq!(inner[1].as_list().unwrap().len(), 3);
    }

    #[test]
    fn comments_and_positions() {
        let data = read_all("; header\n(a\n b)").unwrap();
        assert_eq!(data.len(), 1);
        let items = data[0].as_list().unwrap();
        assert_eq!(items[0].pos(), Pos { line: 2, col: 2 });
        assert_eq!(items[1].pos(), Pos { line: 3, col: 2 });
    }

    #[test]
    fn errors_are_positioned() {
        let err = read_all("(a b").unwrap_err();
        assert!(err.message.contains(')'));
        let err = read_all("(a]").unwrap_err();
        assert!(err.message.contains("mismatched"));
        assert!(read_all("\"abc").is_err());
        assert!(read_all("#x").is_err());
        assert!(read_all(")").is_err());
    }

    #[test]
    fn display_round_trips() {
        let src = "(let ([x 1]) (if (<= x 2) #t #f))";
        let s = read_one(src).unwrap();
        let printed = s.to_string();
        let again = read_one(&printed).unwrap();
        assert_eq!(s, again);
    }
}
