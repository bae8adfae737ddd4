//! Structured, located diagnostics — the checker's public error shape.
//!
//! The §5 case study runs the checker over whole libraries and needs to
//! classify *every* check site, so the public API is diagnostics-first:
//! instead of a single stringly-typed `Err`, checking produces a list of
//! [`Diagnostic`]s, each carrying
//!
//! * a stable machine-readable [`Code`] (`E0xxx`),
//! * a [`Severity`],
//! * a primary [`Span`] into the original surface source (resolved
//!   through the [`SpanTable`] the elaborator builds, including
//!   synthesized-from provenance for macro-expanded code),
//! * secondary [`Label`]s,
//! * a structured [`Payload`] (expected/got as shared type trees, the
//!   refinement proposition that failed, and the solver theories it
//!   mentions), and
//! * free-form notes.
//!
//! [`render`] turns a diagnostic into the human format (source snippet
//! with caret underlines); machine consumers read the fields directly or
//! use the facade's JSON emitter.

use std::fmt;
use std::sync::Arc;

use crate::budget::LimitKind;
use crate::intern::{PropId, TyId, THEORY_BV, THEORY_LIN, THEORY_STR};
use crate::syntax::{Prop, Symbol, Ty};

// ---------------------------------------------------------------------------
// Source locations
// ---------------------------------------------------------------------------

/// A source location (1-based line and column).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Loc {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A half-open source region: `start` is the first character of the form,
/// `end` the position just past its last character.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Span {
    /// Where the region starts.
    pub start: Loc,
    /// Just past where it ends.
    pub end: Loc,
}

impl Span {
    /// A span covering `start..end`.
    pub fn new(start: Loc, end: Loc) -> Span {
        Span { start, end }
    }

    /// A zero-width span at a single location.
    pub fn point(at: Loc) -> Span {
        Span { start: at, end: at }
    }
}

impl From<Loc> for Span {
    fn from(at: Loc) -> Span {
        Span::point(at)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.start)
    }
}

// ---------------------------------------------------------------------------
// Line index: byte offsets ⇄ Locs ⇄ UTF-16 positions
// ---------------------------------------------------------------------------

/// A position in the UTF-16 code-unit coordinate system the Language
/// Server Protocol mandates: 0-based line, 0-based column counted in
/// UTF-16 code units (an astral-plane character is *two* units).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Utf16Pos {
    /// 0-based line.
    pub line: u32,
    /// 0-based UTF-16 code-unit offset within the line.
    pub character: u32,
}

/// Precomputed line starts for one source text, supporting conversions
/// between the three position systems in play:
///
/// * **byte offsets** — what [`crate::incremental`]'s textual slicing and
///   the incremental form scanner use,
/// * **[`Loc`]s** — the reader's 1-based line / 1-based *character*
///   columns carried by every [`Span`], and
/// * **[`Utf16Pos`]** — the 0-based UTF-16 positions LSP clients speak.
///
/// The index stores only line-start byte offsets; conversions re-walk the
/// one line involved, so building it is a single O(n) pass and the index
/// stays valid as long as the text it was built from is unchanged. After
/// an edit, [`LineIndex::updated`] derives the new text's index from the
/// old one, rescanning only the edited range.
///
/// All conversions clamp out-of-range inputs to the nearest valid
/// position (end of line, end of text), per the LSP specification's
/// lenient position handling, and byte offsets landing inside a UTF-8
/// sequence round down to the character boundary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LineIndex {
    /// Byte offset of the start of each line; `line_starts[0] == 0`.
    line_starts: Vec<u32>,
    /// Total text length in bytes.
    len: u32,
}

impl LineIndex {
    /// Build the index for `text`. Lines are separated by `\n` (a `\r\n`
    /// sequence therefore leaves the `\r` at the end of the prior line,
    /// matching the reader's column accounting).
    pub fn new(text: &str) -> LineIndex {
        // `match_indices` with a one-byte pattern searches with memchr.
        let mut line_starts = vec![0u32];
        line_starts.extend(text.match_indices('\n').map(|(i, _)| i as u32 + 1));
        LineIndex {
            line_starts,
            len: text.len() as u32,
        }
    }

    /// The index of `new`, derived from this index of `old`: the line
    /// starts before the edited range ([`changed_range`]) are kept, the
    /// range is rescanned, and the starts after it are offset by the
    /// change in length. Equal to `LineIndex::new(new)`.
    pub fn updated(&self, old: &str, new: &str) -> LineIndex {
        let (prefix, suffix) = changed_range(old.as_bytes(), new.as_bytes());
        let (old_end, new_end) = (old.len() - suffix, new.len() - suffix);
        // A line start `s` follows the newline at byte `s - 1`.
        let keep = self.line_starts.partition_point(|&s| s as usize <= prefix);
        let tail = self.line_starts.partition_point(|&s| s as usize <= old_end);
        let delta = new.len().wrapping_sub(old.len()) as u32;
        let mut line_starts = Vec::with_capacity(self.line_starts.len() + 1);
        line_starts.extend_from_slice(&self.line_starts[..keep]);
        let edited = new.as_bytes()[prefix..new_end].iter().enumerate();
        line_starts.extend(
            edited
                .filter(|&(_, &b)| b == b'\n')
                .map(|(i, _)| (prefix + i) as u32 + 1),
        );
        line_starts.extend(
            self.line_starts[tail..]
                .iter()
                .map(|&s| s.wrapping_add(delta)),
        );
        LineIndex {
            line_starts,
            len: new.len() as u32,
        }
    }

    /// Number of lines (always ≥ 1; an empty text has one empty line).
    pub fn line_count(&self) -> u32 {
        self.line_starts.len() as u32
    }

    /// The number of lines [`str::lines`] yields: a trailing newline, or
    /// an empty text, opens no line.
    fn str_line_count(&self) -> usize {
        let last = self.line_starts[self.line_starts.len() - 1];
        self.line_starts.len() - usize::from(last == self.len)
    }

    /// The 0-based line `line` of `text` as [`str::lines`] yields it
    /// (without its `\n`, or its `\r\n`), if there is one.
    fn str_line<'a>(&self, text: &'a str, line: usize) -> Option<&'a str> {
        if line >= self.str_line_count() {
            return None;
        }
        let (start, end) = self.line_bytes(line as u32);
        let s = &text[start as usize..end as usize];
        Some(match s.strip_suffix('\r') {
            Some(t) if end < self.len => t,
            _ => s,
        })
    }

    /// The byte range of 0-based line `line` (exclusive of its `\n`),
    /// clamped to the last line if out of range.
    fn line_bytes(&self, line: u32) -> (u32, u32) {
        let line = (line as usize).min(self.line_starts.len() - 1);
        let start = self.line_starts[line];
        let end = match self.line_starts.get(line + 1) {
            Some(&next) => next - 1,
            None => self.len,
        };
        (start, end)
    }

    /// The text of 0-based line `line` (without its `\n`), the line
    /// clamped to the last one as every conversion clamps it.
    pub fn line<'a>(&self, text: &'a str, line: u32) -> &'a str {
        let (start, end) = self.line_bytes(line);
        &text[start as usize..end as usize]
    }

    /// 0-based line containing byte offset `byte` (clamped to the text).
    fn line_of_byte(&self, byte: u32) -> u32 {
        let byte = byte.min(self.len);
        match self.line_starts.binary_search(&byte) {
            Ok(i) => i as u32,
            Err(i) => (i - 1) as u32,
        }
    }

    /// Convert a byte offset into the reader's 1-based [`Loc`]. Offsets
    /// past the end clamp to the end of text; offsets inside a UTF-8
    /// sequence round down to the character they fall in.
    pub fn byte_to_loc(&self, text: &str, byte: u32) -> Loc {
        let byte = byte.min(self.len);
        let line = self.line_of_byte(byte);
        let (start, end) = self.line_bytes(line);
        let target = byte.min(end);
        let mut col = 1u32;
        for (off, ch) in text[start as usize..end as usize].char_indices() {
            if start + off as u32 + ch.len_utf8() as u32 <= target {
                col += 1;
            } else {
                break;
            }
        }
        Loc {
            line: line + 1,
            col,
        }
    }

    /// Convert a 1-based [`Loc`] into a byte offset, clamping columns
    /// past the end of the line to just past its last character.
    pub fn loc_to_byte(&self, text: &str, loc: Loc) -> u32 {
        let line = loc.line.saturating_sub(1);
        let (start, end) = self.line_bytes(line);
        let mut remaining = loc.col.saturating_sub(1);
        for (off, _) in text[start as usize..end as usize].char_indices() {
            if remaining == 0 {
                return start + off as u32;
            }
            remaining -= 1;
        }
        end
    }

    /// Convert a 1-based, character-counted [`Loc`] into a 0-based
    /// UTF-16 position. Columns past the end of the line clamp to the
    /// line end.
    pub fn loc_to_utf16(&self, text: &str, loc: Loc) -> Utf16Pos {
        let line = loc.line.saturating_sub(1).min(self.line_count() - 1);
        let (start, end) = self.line_bytes(line);
        let mut remaining = loc.col.saturating_sub(1);
        let mut units = 0u32;
        for ch in text[start as usize..end as usize].chars() {
            if remaining == 0 {
                break;
            }
            remaining -= 1;
            units += ch.len_utf16() as u32;
        }
        Utf16Pos {
            line,
            character: units,
        }
    }

    /// Convert a 0-based UTF-16 position into a 1-based [`Loc`]. A
    /// `character` landing between the two units of a surrogate pair
    /// resolves to the character containing it; positions past the line
    /// end clamp to just past its last character.
    pub fn utf16_to_loc(&self, text: &str, pos: Utf16Pos) -> Loc {
        let line = pos.line.min(self.line_count() - 1);
        let (start, end) = self.line_bytes(line);
        let mut units = 0u32;
        let mut col = 1u32;
        for ch in text[start as usize..end as usize].chars() {
            let w = ch.len_utf16() as u32;
            if units + w <= pos.character {
                units += w;
                col += 1;
            } else {
                break;
            }
        }
        Loc {
            line: line + 1,
            col,
        }
    }

    /// Convert a 0-based UTF-16 position into a byte offset.
    pub fn utf16_to_byte(&self, text: &str, pos: Utf16Pos) -> u32 {
        self.loc_to_byte(text, self.utf16_to_loc(text, pos))
    }

    /// Convert a byte offset into a 0-based UTF-16 position.
    pub fn byte_to_utf16(&self, text: &str, byte: u32) -> Utf16Pos {
        self.loc_to_utf16(text, self.byte_to_loc(text, byte))
    }

    /// Convert a [`Span`] (1-based, character columns) into a pair of
    /// UTF-16 positions `(start, end)`.
    pub fn span_to_utf16(&self, text: &str, span: Span) -> (Utf16Pos, Utf16Pos) {
        (
            self.loc_to_utf16(text, span.start),
            self.loc_to_utf16(text, span.end),
        )
    }
}

/// The one edited byte range between two texts: the lengths of their
/// longest common prefix and of their longest common suffix after it
/// (the two never overlap).
pub fn changed_range(old: &[u8], new: &[u8]) -> (usize, usize) {
    /// Bytes compared per step before the byte-wise tail.
    const CHUNK: usize = 64;
    let (a, b) = (old, new);
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + CHUNK <= n && a[i..i + CHUNK] == b[i..i + CHUNK] {
        i += CHUNK;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    let prefix = i;
    let n = n - prefix;
    let (ea, eb) = (a.len(), b.len());
    let mut i = 0;
    while i + CHUNK <= n && a[ea - i - CHUNK..ea - i] == b[eb - i - CHUNK..eb - i] {
        i += CHUNK;
    }
    while i < n && a[ea - i - 1] == b[eb - i - 1] {
        i += 1;
    }
    (prefix, i)
}

// ---------------------------------------------------------------------------
// The span table
// ---------------------------------------------------------------------------

/// An index into a [`SpanTable`]: identifies one elaborated expression
/// node. The elaborator wraps every expression it produces in
/// [`crate::syntax::Expr::Spanned`], and errors bubbling out of the
/// checker pick up the nearest enclosing node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw table index.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

#[derive(Clone, Copy, Debug)]
struct SpanEntry {
    span: Span,
    /// For code synthesized by macro expansion: the surface node the
    /// macro use occupies. `None` for ordinary surface spans.
    expanded_from: Option<NodeId>,
}

/// Spans for every elaborated expression node, keyed by [`NodeId`].
///
/// Macro-synthesized nodes (the `letrec` skeleton `for/sum` leaves
/// behind, a named `let`'s application, …) record *synthesized-from*
/// provenance: their span is the macro use site and
/// [`SpanTable::expansion_of`] reports which surface node they were
/// expanded from, so diagnostics inside an expansion still point into
/// the original source.
#[derive(Clone, Debug, Default)]
pub struct SpanTable {
    entries: Vec<SpanEntry>,
}

impl SpanTable {
    /// An empty table.
    pub fn new() -> SpanTable {
        SpanTable::default()
    }

    /// Records a surface span, returning its node.
    pub fn insert(&mut self, span: Span) -> NodeId {
        let id = NodeId(self.entries.len() as u32);
        self.entries.push(SpanEntry {
            span,
            expanded_from: None,
        });
        id
    }

    /// Records a node synthesized by macro expansion from the surface
    /// node `from` (the span is the macro use site's).
    pub fn insert_synthesized(&mut self, from: NodeId) -> NodeId {
        let span = self.get(from);
        let id = NodeId(self.entries.len() as u32);
        self.entries.push(SpanEntry {
            span,
            expanded_from: Some(from),
        });
        id
    }

    /// The span recorded for `node`.
    pub fn get(&self, node: NodeId) -> Span {
        self.entries[node.0 as usize].span
    }

    /// If `node` was synthesized by macro expansion, the surface node it
    /// was expanded from.
    pub fn expansion_of(&self, node: NodeId) -> Option<NodeId> {
        self.entries[node.0 as usize].expanded_from
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Codes and severities
// ---------------------------------------------------------------------------

/// A stable, machine-readable diagnostic code.
///
/// Codes are part of the public JSON schema: `E`-codes are errors,
/// `W`-codes warnings. New codes may be added, but existing codes keep
/// their meaning.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Code {
    /// `E0001` — a variable was referenced but never bound.
    UnboundVariable,
    /// `E0002` — an expression's type is not a subtype of the required
    /// type (including refinements a theory could not discharge).
    TypeMismatch,
    /// `E0003` — a non-function was applied.
    NotAFunction,
    /// `E0004` — wrong number of arguments or parameters.
    ArityMismatch,
    /// `E0005` — `fst`/`snd` applied to a non-pair.
    NotAPair,
    /// `E0006` — local type inference could not instantiate a
    /// polymorphic operator.
    CannotInfer,
    /// `E0007` — `set!` of an ill-typed value.
    InvalidAssignment,
    /// `E0101` — lexical (reader) error.
    ReadError,
    /// `E0102` — syntax (elaboration) error.
    SyntaxError,
    /// `E0201` — runtime failure (evaluator error surfaced through a
    /// diagnostic-consuming driver).
    RuntimeError,
    /// `E0202` — a resource-governance limit (steps, deadline, depth,
    /// or an injected fault) tripped while checking this item; the
    /// verdict is a *conservative degradation*, not a proof that the
    /// item is ill-typed. See [`crate::budget`].
    ResourceExhausted,
    /// `E0203` — an internal checker error (a panic) was isolated to
    /// this item; the rest of the module was checked normally. Always a
    /// bug in the checker, never in the checked program.
    InternalError,
    /// `W0001` — a `(: name T)` signature with no matching `define`.
    UnusedSignature,
}

impl Code {
    /// The stable code string (`"E0002"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnboundVariable => "E0001",
            Code::TypeMismatch => "E0002",
            Code::NotAFunction => "E0003",
            Code::ArityMismatch => "E0004",
            Code::NotAPair => "E0005",
            Code::CannotInfer => "E0006",
            Code::InvalidAssignment => "E0007",
            Code::ReadError => "E0101",
            Code::SyntaxError => "E0102",
            Code::RuntimeError => "E0201",
            Code::ResourceExhausted => "E0202",
            Code::InternalError => "E0203",
            Code::UnusedSignature => "W0001",
        }
    }

    /// The severity this code carries by default.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::UnusedSignature => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Every code, for table-driven tests and schema docs.
    pub fn all() -> &'static [Code] {
        &[
            Code::UnboundVariable,
            Code::TypeMismatch,
            Code::NotAFunction,
            Code::ArityMismatch,
            Code::NotAPair,
            Code::CannotInfer,
            Code::InvalidAssignment,
            Code::ReadError,
            Code::SyntaxError,
            Code::RuntimeError,
            Code::ResourceExhausted,
            Code::InternalError,
            Code::UnusedSignature,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Informational.
    Note,
    /// Suspicious but not fatal; checking still succeeds.
    Warning,
    /// The module does not type check.
    Error,
}

impl Severity {
    /// The lowercase name used in rendered output and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Payloads and labels
// ---------------------------------------------------------------------------

/// The structured (machine-readable) part of a diagnostic. Types and
/// failed refinement goals are carried as shared trees (`Arc<Ty>` /
/// `Arc<Prop>`), materialized from the interner at construction, so a
/// diagnostic that outlives its check renders without the interner.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum Payload {
    /// No structured payload.
    #[default]
    None,
    /// An unbound variable.
    Unbound {
        /// The variable.
        var: Symbol,
    },
    /// A subtype check failed.
    Mismatch {
        /// The required type.
        expected: Arc<Ty>,
        /// The synthesized type.
        got: Arc<Ty>,
        /// When the required type is a refinement: the proposition the
        /// proof system could not discharge.
        failed_prop: Option<Arc<Prop>>,
        /// Solver theories the required type mentions — a union of
        /// [`THEORY_LIN`]/[`THEORY_BV`]/[`THEORY_STR`] bits. Zero when
        /// the failure is purely structural.
        theories: u8,
    },
    /// A non-function was applied.
    NotAFunction {
        /// The operator's synthesized type.
        got: Arc<Ty>,
    },
    /// Wrong number of arguments.
    Arity {
        /// Parameters expected.
        expected: usize,
        /// Arguments given.
        got: usize,
    },
    /// `fst`/`snd` on a non-pair.
    NotAPair {
        /// The argument's synthesized type.
        got: Arc<Ty>,
    },
    /// Local type inference failed.
    CannotInfer {
        /// Human-readable reason.
        reason: String,
    },
    /// `set!` of an ill-typed value.
    BadAssignment {
        /// The assigned variable.
        var: Symbol,
        /// Its declared type.
        expected: Arc<Ty>,
        /// The assigned expression's type.
        got: Arc<Ty>,
    },
    /// A resource-governance limit tripped (`E0202`); the verdict is a
    /// conservative degradation (see [`crate::budget`]).
    Exhausted {
        /// Which limit tripped.
        limit: LimitKind,
    },
    /// An internal checker error was isolated to this item (`E0203`).
    Ice {
        /// The panic payload, when it carried one.
        detail: String,
    },
}

impl Payload {
    /// The lowercase kind tag used in the JSON schema.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::None => "none",
            Payload::Unbound { .. } => "unbound",
            Payload::Mismatch { .. } => "mismatch",
            Payload::NotAFunction { .. } => "not-a-function",
            Payload::Arity { .. } => "arity",
            Payload::NotAPair { .. } => "not-a-pair",
            Payload::CannotInfer { .. } => "cannot-infer",
            Payload::BadAssignment { .. } => "bad-assignment",
            Payload::Exhausted { .. } => "exhausted",
            Payload::Ice { .. } => "ice",
        }
    }
}

/// Renders a theory mask as human-readable theory names.
pub fn theory_names(mask: u8) -> Vec<&'static str> {
    let mut out = Vec::new();
    if mask & THEORY_LIN != 0 {
        out.push("linear arithmetic");
    }
    if mask & THEORY_BV != 0 {
        out.push("bitvectors");
    }
    if mask & THEORY_STR != 0 {
        out.push("regular expressions");
    }
    out
}

/// A secondary location attached to a diagnostic.
#[derive(Clone, PartialEq, Debug)]
pub struct Label {
    /// The node the label points at (resolved into `span` by
    /// [`Diagnostic::resolve_spans`]).
    pub node: Option<NodeId>,
    /// The resolved source region, if known.
    pub span: Option<Span>,
    /// What to say about it.
    pub message: String,
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// A structured, located checker diagnostic.
///
/// Built by the checker with a [`NodeId`] (the nearest enclosing
/// elaborated node); drivers that hold the [`SpanTable`] call
/// [`Diagnostic::resolve_spans`] to fill in [`Diagnostic::primary`]
/// before handing the diagnostic to users.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// The stable machine-readable code.
    pub code: Code,
    /// Error / warning / note.
    pub severity: Severity,
    /// The headline message (complete sentence, no location).
    pub message: String,
    /// The nearest enclosing elaborated node, when the error arose from
    /// elaborated source (errors from hand-built [`crate::syntax::Expr`]
    /// trees have none).
    pub node: Option<NodeId>,
    /// The primary source region, once resolved.
    pub primary: Option<Span>,
    /// Secondary labelled regions.
    pub labels: Vec<Label>,
    /// The structured payload.
    pub payload: Payload,
    /// Free-form notes appended to rendered output.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with `code`'s default severity and no location.
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            node: None,
            primary: None,
            labels: Vec::new(),
            payload: Payload::None,
            notes: Vec::new(),
        }
    }

    // -- construction helpers for the checker's error sites ------------------

    /// `E0001`: unbound variable.
    pub fn unbound(var: Symbol) -> Diagnostic {
        Diagnostic::new(Code::UnboundVariable, format!("unbound variable {var}"))
            .with_payload(Payload::Unbound { var })
    }

    /// `E0002`: `context`'s expression required `expected` but got `got`.
    ///
    /// When `expected` is a refinement type, the failed proposition and
    /// the solver theories it mentions are recorded in the payload and a
    /// note names them.
    pub fn mismatch(context: String, expected: &Ty, got: &Ty) -> Diagnostic {
        let expected_id = TyId::of(expected);
        let failed_prop = match expected {
            Ty::Refine(r) => Some(PropId::of(&r.prop).get()),
            _ => None,
        };
        let theories = expected_id.theory_mask();
        let mut d = Diagnostic::new(
            Code::TypeMismatch,
            format!("type checker error in {context}: expected {expected} but given {got}"),
        )
        .with_payload(Payload::Mismatch {
            expected: expected_id.get(),
            got: TyId::of(got).get(),
            failed_prop: failed_prop.clone(),
            theories,
        });
        if let Some(p) = failed_prop {
            let names = theory_names(theories);
            let consulted = if names.is_empty() {
                String::new()
            } else {
                format!(" (theories consulted: {})", names.join(", "))
            };
            d = d.with_note(format!(
                "the refinement {p} was not provable here{consulted}"
            ));
        }
        d
    }

    /// `E0003`: application of a non-function.
    pub fn not_a_function(context: String, got: &Ty) -> Diagnostic {
        Diagnostic::new(
            Code::NotAFunction,
            format!("type checker error in {context}: not a function (has type {got})"),
        )
        .with_payload(Payload::NotAFunction {
            got: TyId::of(got).get(),
        })
    }

    /// `E0004`: wrong number of arguments.
    pub fn arity(context: String, expected: usize, got: usize) -> Diagnostic {
        Diagnostic::new(
            Code::ArityMismatch,
            format!(
                "type checker error in {context}: expected {expected} argument(s), given {got}"
            ),
        )
        .with_payload(Payload::Arity { expected, got })
    }

    /// `E0005`: `fst`/`snd` on a non-pair.
    pub fn not_a_pair(context: String, got: &Ty) -> Diagnostic {
        Diagnostic::new(
            Code::NotAPair,
            format!("type checker error in {context}: not a pair (has type {got})"),
        )
        .with_payload(Payload::NotAPair {
            got: TyId::of(got).get(),
        })
    }

    /// `E0006`: polymorphic instantiation failed.
    pub fn cannot_infer(context: String, reason: String) -> Diagnostic {
        Diagnostic::new(
            Code::CannotInfer,
            format!("type checker error in {context}: cannot infer type arguments ({reason})"),
        )
        .with_payload(Payload::CannotInfer { reason })
    }

    /// `E0007`: `set!` of an ill-typed value.
    pub fn bad_assignment(var: Symbol, expected: &Ty, got: &Ty) -> Diagnostic {
        Diagnostic::new(
            Code::InvalidAssignment,
            format!("type checker error in (set! {var} …): expected {expected} but given {got}"),
        )
        .with_payload(Payload::BadAssignment {
            var,
            expected: TyId::of(expected).get(),
            got: TyId::of(got).get(),
        })
    }

    /// `E0202`: a resource-governance limit tripped while checking
    /// `context`. The diagnostic carries the limit in its payload and
    /// explains the three-valued contract in a note.
    pub fn exhausted(context: String, limit: LimitKind) -> Diagnostic {
        Diagnostic::new(
            Code::ResourceExhausted,
            format!("resource limit exceeded in {context}: {}", limit.describe()),
        )
        .with_payload(Payload::Exhausted { limit })
        .with_note(
            "checking was cut short, so this is a conservative rejection, \
             not a proof that the item is ill-typed; raise the limit to get \
             a definite verdict",
        )
    }

    /// `E0203`: an internal checker error (panic) was isolated to
    /// `context`.
    pub fn ice(context: String, detail: String) -> Diagnostic {
        Diagnostic::new(
            Code::InternalError,
            format!("internal checker error in {context}: {detail}"),
        )
        .with_payload(Payload::Ice { detail })
        .with_note(
            "this is a bug in the checker, not in the checked program; \
             the rest of the module was checked normally",
        )
    }

    /// `E0101`: lexical error at `at`.
    pub fn read_error(message: impl Into<String>, at: Span) -> Diagnostic {
        let mut d = Diagnostic::new(Code::ReadError, message);
        d.primary = Some(at);
        d
    }

    /// `E0102`: elaboration error at `at`.
    pub fn syntax_error(message: impl Into<String>, at: Span) -> Diagnostic {
        let mut d = Diagnostic::new(Code::SyntaxError, message);
        d.primary = Some(at);
        d
    }

    // -- fluent field setters -------------------------------------------------

    /// Sets the payload.
    pub fn with_payload(mut self, payload: Payload) -> Diagnostic {
        self.payload = payload;
        self
    }

    /// Appends a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Appends a secondary label at an elaborated node.
    pub fn with_label(mut self, node: Option<NodeId>, message: impl Into<String>) -> Diagnostic {
        self.labels.push(Label {
            node,
            span: None,
            message: message.into(),
        });
        self
    }

    /// Sets the primary node (construction sites that know a precise
    /// sub-expression node use this; `None` leaves it to bubbling).
    pub fn at(mut self, node: Option<NodeId>) -> Diagnostic {
        if node.is_some() {
            self.node = node;
        }
        self
    }

    /// Sets the primary node *if none is recorded yet* — the innermost
    /// enclosing [`crate::syntax::Expr::Spanned`] wins as errors bubble
    /// out of the checker.
    pub fn or_node(mut self, node: NodeId) -> Diagnostic {
        if self.node.is_none() {
            self.node = Some(node);
        }
        self
    }

    /// Resolves the primary node and label nodes into spans using the
    /// elaborator's table. Nodes synthesized by macro expansion resolve
    /// to the macro use site's span and gain an explanatory note.
    pub fn resolve_spans(&mut self, table: &SpanTable) {
        if self.primary.is_none() {
            if let Some(node) = self.node {
                self.primary = Some(table.get(node));
                if table.expansion_of(node).is_some() {
                    self.notes
                        .push("this code was synthesized by macro expansion; the span points at the macro use".to_owned());
                }
            }
        }
        for label in &mut self.labels {
            if label.span.is_none() {
                if let Some(node) = label.node {
                    label.span = Some(table.get(node));
                }
            }
        }
    }

    /// Is this an error (as opposed to a warning or note)?
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(span) = self.primary {
            write!(f, " (at {})", span.start)?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

// ---------------------------------------------------------------------------
// Human rendering
// ---------------------------------------------------------------------------

/// Renders `d` in the human format: headline, source snippet with caret
/// underlines for the primary span, one snippet per labelled secondary
/// span, then notes.
///
/// `file` is a display name; `source` the file's full text (used for the
/// snippets — a span past the end of `source` renders without one).
/// [`render_indexed`] with a fresh index of `source`.
pub fn render(d: &Diagnostic, file: &str, source: &str) -> String {
    render_indexed(d, file, source, &LineIndex::new(source))
}

/// [`render`] through `ix`, the [`LineIndex`] of `source`: a caller
/// rendering many diagnostics of one text builds the index once, and
/// each diagnostic then costs only the lines it shows.
pub fn render_indexed(d: &Diagnostic, file: &str, source: &str, ix: &LineIndex) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    let max_line = d
        .primary
        .iter()
        .chain(d.labels.iter().filter_map(|l| l.span.as_ref()))
        .map(|s| s.start.line as usize)
        .max()
        .unwrap_or(1)
        .min(ix.str_line_count().max(1));
    let gutter = max_line.to_string().len() + 1;
    let snippet = |out: &mut String, span: Span, underline: char, label: &str| {
        let line_text = (span.start.line as usize)
            .checked_sub(1)
            .and_then(|line| ix.str_line(source, line));
        render_snippet(out, file, line_text, span, underline, label, gutter);
    };
    if let Some(span) = d.primary {
        snippet(&mut out, span, '^', "");
    }
    for label in &d.labels {
        match label.span {
            Some(span) => snippet(&mut out, span, '-', &label.message),
            None => {
                let _ = writeln!(out, "{:gutter$} = {}", "", label.message);
            }
        }
    }
    for note in &d.notes {
        let _ = writeln!(out, "{:gutter$} = note: {}", "", note);
    }
    out
}

/// One snippet: the `-->` location, then, when the span's first line
/// exists, that line with the span underlined.
fn render_snippet(
    out: &mut String,
    file: &str,
    line_text: Option<&str>,
    span: Span,
    underline: char,
    label: &str,
    gutter: usize,
) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{:gutter$}--> {file}:{}", "", span.start);
    let Some(line_text) = line_text else {
        return;
    };
    let line_no = span.start.line;
    let _ = writeln!(out, "{:gutter$} |", "");
    let _ = writeln!(out, "{line_no:>gutter$} | {line_text}");
    // Underline from the start column to the end column (same line) or
    // to the end of the line (multi-line spans).
    let start_col = span.start.col.max(1) as usize;
    let line_chars = line_text.chars().count();
    let end_col = if span.end.line == span.start.line && span.end.col as usize > start_col {
        (span.end.col as usize).min(line_chars + 1)
    } else {
        (line_chars + 1).max(start_col + 1)
    };
    let width = (end_col - start_col).max(1);
    let carets: String = std::iter::repeat_n(underline, width).collect();
    let pad = " ".repeat(start_col - 1);
    if label.is_empty() {
        let _ = writeln!(out, "{:gutter$} | {pad}{carets}", "");
    } else {
        let _ = writeln!(out, "{:gutter$} | {pad}{carets} {label}", "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_lines_are_the_str_lines() {
        // Every text over a small alphabet up to length 5, including lone
        // and trailing `\r`s and a missing final newline.
        let alphabet = ['a', '\r', '\n', 'é', '𝒳'];
        let mut texts = vec![String::new()];
        for _ in 0..5 {
            let longer: Vec<String> = texts
                .iter()
                .filter(|t| t.chars().count() == texts.last().map_or(0, |l| l.chars().count()))
                .flat_map(|t| alphabet.iter().map(move |c| format!("{t}{c}")))
                .collect();
            texts.extend(longer);
        }
        for text in &texts {
            let ix = LineIndex::new(text);
            assert_eq!(ix.str_line_count(), text.lines().count(), "{text:?}");
            for k in 0..ix.line_count() as usize + 1 {
                assert_eq!(
                    ix.str_line(text, k),
                    text.lines().nth(k),
                    "{text:?} line {k}"
                );
            }
        }
    }

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::all() {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
        }
        assert_eq!(Code::TypeMismatch.as_str(), "E0002");
        assert_eq!(Code::UnusedSignature.default_severity(), Severity::Warning);
    }

    #[test]
    fn mismatch_payload_carries_the_type_trees() {
        let d = Diagnostic::mismatch("(f x)".into(), &Ty::Int, &Ty::bool_ty());
        assert_eq!(d.code, Code::TypeMismatch);
        assert!(d.is_error());
        let Payload::Mismatch { expected, got, .. } = d.payload else {
            panic!("expected a mismatch payload");
        };
        assert_eq!(*expected, Ty::Int);
        assert_eq!(*got, Ty::bool_ty());
        assert!(d.message.contains("expected Int"));
        assert!(d.message.contains("given Bool"));
    }

    #[test]
    fn exhausted_and_ice_have_codes_payloads_and_notes() {
        let d = Diagnostic::exhausted("(define (f …) …)".into(), LimitKind::Deadline);
        assert_eq!(d.code, Code::ResourceExhausted);
        assert_eq!(d.code.as_str(), "E0202");
        assert!(d.is_error());
        assert_eq!(
            d.payload,
            Payload::Exhausted {
                limit: LimitKind::Deadline
            }
        );
        assert_eq!(d.payload.kind(), "exhausted");
        assert!(d.notes.iter().any(|n| n.contains("conservative")));

        let d = Diagnostic::ice("(define (g …) …)".into(), "boom".into());
        assert_eq!(d.code, Code::InternalError);
        assert_eq!(d.code.as_str(), "E0203");
        assert_eq!(d.payload.kind(), "ice");
        assert!(d.notes.iter().any(|n| n.contains("bug in the checker")));
    }

    #[test]
    fn refined_mismatch_records_the_failed_prop_and_theory() {
        use crate::syntax::{LinCmp, Obj, Prop};
        let i = Symbol::intern("diag_i");
        let nat = Ty::refine(i, Ty::Int, Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(i)));
        let d = Diagnostic::mismatch("(f x)".into(), &nat, &Ty::Int);
        let Payload::Mismatch {
            failed_prop,
            theories,
            ..
        } = d.payload
        else {
            panic!("expected a mismatch payload");
        };
        assert!(failed_prop.is_some());
        assert_eq!(theories & THEORY_LIN, THEORY_LIN);
        assert!(d.notes.iter().any(|n| n.contains("linear arithmetic")));
    }

    #[test]
    fn span_table_provenance() {
        let mut t = SpanTable::new();
        let surface = t.insert(Span::new(Loc { line: 2, col: 3 }, Loc { line: 2, col: 20 }));
        let synth = t.insert_synthesized(surface);
        assert_eq!(t.get(synth), t.get(surface));
        assert_eq!(t.expansion_of(synth), Some(surface));
        assert_eq!(t.expansion_of(surface), None);

        let mut d = Diagnostic::unbound(Symbol::intern("q")).or_node(synth);
        d.resolve_spans(&t);
        assert_eq!(d.primary, Some(t.get(surface)));
        assert!(d.notes.iter().any(|n| n.contains("macro expansion")));
    }

    #[test]
    fn or_node_keeps_the_innermost() {
        let mut t = SpanTable::new();
        let inner = t.insert(Span::point(Loc { line: 1, col: 5 }));
        let outer = t.insert(Span::point(Loc { line: 1, col: 1 }));
        let d = Diagnostic::unbound(Symbol::intern("q"))
            .or_node(inner)
            .or_node(outer);
        assert_eq!(d.node, Some(inner));
    }

    #[test]
    fn rendering_underlines_the_span() {
        let source = "(define x 1)\n(add1 #t)\n";
        let mut d = Diagnostic::mismatch("(add1 #t)".into(), &Ty::Int, &Ty::True);
        d.primary = Some(Span::new(Loc { line: 2, col: 7 }, Loc { line: 2, col: 9 }));
        let rendered = render(&d, "demo.rtr", source);
        assert!(rendered.contains("error[E0002]"));
        assert!(rendered.contains("demo.rtr:2:7"));
        assert!(rendered.contains("(add1 #t)"));
        assert!(rendered.contains("      ^^"), "caret line: {rendered}");
    }

    #[test]
    fn display_appends_the_location() {
        let mut d = Diagnostic::unbound(Symbol::intern("zz"));
        assert_eq!(d.to_string(), "unbound variable zz");
        d.primary = Some(Span::point(Loc { line: 4, col: 2 }));
        assert!(d.to_string().ends_with("(at 4:2)"));
    }

    #[test]
    fn line_index_converts_between_all_three_position_systems() {
        // "ké" is 1 char/1 byte + 1 char/2 bytes; "𝒳" is an astral
        // char: 4 bytes, 2 UTF-16 units, 1 reader column.
        let text = "ké\n𝒳 x\n";
        let ix = LineIndex::new(text);
        assert_eq!(ix.line_count(), 3);

        // 'é' starts at byte 1, line 1 col 2.
        assert_eq!(ix.byte_to_loc(text, 1), Loc { line: 1, col: 2 });
        assert_eq!(ix.loc_to_byte(text, Loc { line: 1, col: 2 }), 1);
        // 'x' on line 2: after "𝒳 " = 5 bytes into the line (line
        // starts at byte 4), reader col 3, UTF-16 character 3.
        let x_loc = Loc { line: 2, col: 3 };
        assert_eq!(ix.loc_to_byte(text, x_loc), 9);
        assert_eq!(
            ix.loc_to_utf16(text, x_loc),
            Utf16Pos {
                line: 1,
                character: 3
            }
        );
        assert_eq!(
            ix.utf16_to_loc(
                text,
                Utf16Pos {
                    line: 1,
                    character: 3
                }
            ),
            x_loc
        );
        // A position inside the surrogate pair resolves to 𝒳 itself.
        assert_eq!(
            ix.utf16_to_loc(
                text,
                Utf16Pos {
                    line: 1,
                    character: 1
                }
            ),
            Loc { line: 2, col: 1 }
        );
        // A byte inside 𝒳's UTF-8 sequence rounds down to it.
        assert_eq!(ix.byte_to_loc(text, 6), Loc { line: 2, col: 1 });
    }

    #[test]
    fn line_index_clamps_out_of_range_positions() {
        let text = "ab\ncd";
        let ix = LineIndex::new(text);
        assert_eq!(ix.byte_to_loc(text, 99), Loc { line: 2, col: 3 });
        assert_eq!(ix.loc_to_byte(text, Loc { line: 1, col: 99 }), 2);
        assert_eq!(ix.loc_to_byte(text, Loc { line: 99, col: 1 }), 3);
        assert_eq!(
            ix.utf16_to_loc(
                text,
                Utf16Pos {
                    line: 9,
                    character: 9
                }
            ),
            Loc { line: 2, col: 3 }
        );
        let empty = "";
        let eix = LineIndex::new(empty);
        assert_eq!(eix.line_count(), 1);
        assert_eq!(eix.byte_to_loc(empty, 0), Loc { line: 1, col: 1 });
    }

    #[test]
    fn messages_are_informative() {
        let e = Diagnostic::mismatch("(safe-vec-ref B i)".into(), &Ty::Int, &Ty::bool_ty());
        let msg = e.to_string();
        assert!(msg.contains("safe-vec-ref"));
        assert!(msg.contains("expected Int"));
        assert!(msg.contains("given Bool"));
        assert_eq!(e.code, Code::TypeMismatch);
        assert!(matches!(e.payload, Payload::Mismatch { .. }));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(Diagnostic::unbound(Symbol::intern("q")));
        assert!(e.to_string().contains("unbound"));
    }
}
