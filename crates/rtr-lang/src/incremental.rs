//! Source-level incremental checking: textual form slicing feeding the
//! core incremental driver.
//!
//! The core driver ([`rtr_core::incremental`]) splices cached per-item
//! results, but it must not pay for re-*elaborating* unchanged items
//! either — elaboration of a 50-item module costs more than the whole
//! warm re-check budget. This module therefore works on the source
//! *text*, and on a warm check it touches only the part of the text an
//! edit changed:
//!
//! 1. a scanner slices the file into top-level form extents without
//!    building any trees (it mirrors the reader's lexical rules —
//!    comments, strings, `#rx"…"` literals, brackets), recording each
//!    form's byte range, start and end positions, head and text hash;
//! 2. signature forms are paired with their `define` textually,
//!    mirroring the elaborator's latest-unconsumed-signature map, giving
//!    one *slot* per module item in check order (definitions first, then
//!    trailing expressions), each keyed by the hashes of its constituent
//!    forms;
//! 3. slots whose key matches a slot of the previous run become
//!    [`IncrSlot::Reused`] — their items are only elaborated if the
//!    driver rejects the splice, via the `fetch` callback, with spans
//!    read at their *new* file positions ([`read_all_from`]); changed
//!    slots elaborate eagerly and go in as [`IncrSlot::Fresh`].
//!
//! # The edit-range rescan
//!
//! [`ModuleCache`] keeps the previous text and its forms. A warm check
//! finds the one edited byte range by the longest common prefix and
//! suffix of the two texts, and re-runs the scanner only from the end of
//! the last form that ends before the first changed byte (the byte that
//! ended such a form is unchanged too, so the form scans the same). The
//! rescan *resyncs* — stops — when, back at top level, it starts a form
//! inside the unchanged suffix at a byte where an old form started,
//! shifted by the edit's byte delta: from there both scans read the
//! same bytes from the same state, so the remaining forms are the old
//! ones with their offsets and positions shifted (a form on the resync
//! form's line moves by its column delta, one on a later line keeps its
//! column). An edit that opens a string, a `;` comment or a `#rx"…"`
//! literal makes the rescan swallow later forms until the literal closes;
//! one that closes such a literal releases them. A cold check runs the
//! same scanner with nothing to resync against.
//!
//! Slots whose forms lie outside the rescanned range claim the old slot
//! of the same forms by position, checked against its key; only slots in
//! the rescanned range look their key up among the old slots the rescan
//! replaced. Summary spans are stamped from each form's recorded start
//! and end, so a warm check reads source bytes only in the prefix and
//! suffix comparison, the rescanned range and the slots it elaborates.
//!
//! # Failing verdicts
//!
//! The core driver caches an item's ordinary diagnostics and splices
//! them when the item's slot claims its record. Their nodes belong to
//! an older elaboration, so this layer keeps its own copy of each slot's
//! *resolved* diagnostics, as the run that derived them reported them,
//! with where the slot's forms started then and which form (the define
//! or expression form, or its paired signature) each span lies in. When
//! the driver reports them spliced ([`ItemCache::slot_diagnostics`]),
//! they are reported again: copied once, as stored when neither form
//! moved, else with every span moved along with its form. The stored
//! copy is shared, never rewritten, by every later run that splices the
//! slot, so a warm check copies only the diagnostics it publishes. A
//! slot whose diagnostics cannot be anchored in its forms is never
//! claimed.
//!
//! Anything the textual account cannot mirror exactly — scanner
//! anomalies, unconsumed or overwritten signatures (`W0001` territory),
//! or any elaboration error — goes through
//! [`crate::check_module_source`]: the same driver, cold, over
//! [`crate::elaborate_module_items`]' output.

use std::collections::HashMap;
use std::sync::Arc;

use rtr_core::check::Checker;
use rtr_core::diag::{changed_range, Diagnostic, NodeId, Span};
use rtr_core::incremental::{IncrSlot, ItemCache, ItemScope, ItemScopes};
use rtr_core::module::ModuleItem;
use rtr_core::syntax::{Symbol, Ty};
use rtr_core::trace::TraceCounts;

use crate::elab::Elaborator;
use crate::module::{check_module_source_traced, define_form, signature_form, ModuleReport};
use crate::sexp::{read_all_from, Pos, Sexp};

/// Where every scan of a whole text starts.
const START: Pos = Pos { line: 1, col: 1 };

/// What kind of top-level form a slice is, as far as the scanner can
/// tell without parsing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Head {
    /// `(: name …)` — a signature for `name`.
    Sig(Symbol),
    /// `(define (name …) …)` / `(define name …)`.
    Define(Symbol),
    /// Anything else: a trailing expression.
    Other,
}

/// One top-level form's extent in the source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct FormSlice {
    /// Byte range in the source.
    start: usize,
    end: usize,
    /// Line/column of the first character (for absolute re-reading).
    pos: Pos,
    /// Line/column just past the last character.
    end_pos: Pos,
    head: Head,
    /// [`text_hash`] of the form's text.
    hash: u64,
}

impl FormSlice {
    fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// The form's surface extent as a half-open [`Span`].
    fn span(&self) -> Span {
        Span::new(self.pos, self.end_pos)
    }

    fn contains(&self, s: Span) -> bool {
        let at = |p: Pos| (p.line, p.col);
        at(self.pos) <= at(s.start) && at(s.end) <= at(self.end_pos)
    }

    /// This form after the text before it changed: it starts `delta`
    /// bytes later, and the form whose old start was `from` now starts
    /// at `to`.
    fn moved(self, delta: isize, from: Pos, to: Pos) -> FormSlice {
        FormSlice {
            start: self.start.wrapping_add_signed(delta),
            end: self.end.wrapping_add_signed(delta),
            pos: shift(self.pos, from, to),
            end_pos: shift(self.end_pos, from, to),
            ..self
        }
    }
}

/// Moves `p`, at or after `from` in some text, to where it lies when the
/// text before `from` changes so that `from` lands at `to`: positions on
/// `from`'s line move by its column delta, later lines by its line delta
/// with their columns kept.
fn shift(p: Pos, from: Pos, to: Pos) -> Pos {
    if p.line == from.line {
        Pos {
            line: to.line,
            col: p.col - from.col + to.col,
        }
    } else {
        Pos {
            line: p.line - from.line + to.line,
            col: p.col,
        }
    }
}

/// A form's text hash: stable FNV-1a.
fn text_hash(text: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in text {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A slot's key: its form's hash, mixed with its signature form's if it
/// has one.
fn slot_key(form: &FormSlice, sig: Option<&FormSlice>) -> u64 {
    // The splitmix64 finalizer.
    let mix = |mut x: u64| {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    match sig {
        Some(s) => mix(s.hash ^ mix(form.hash)),
        None => form.hash,
    }
}

/// Where a rescan may stop: the previous scan's forms, and the byte
/// delta of the edit, whose unchanged tail starts at byte `tail` of the
/// new text.
struct Resync<'a> {
    old: &'a [FormSlice],
    delta: isize,
    tail: usize,
}

/// Scans `src` from byte `i`, at top level at position `pos`, appending
/// the top-level form extents to `out` and mirroring the reader's
/// lexical rules. With a [`Resync`], stops at the first form that starts
/// in the unchanged tail where an old form started (shifted by the
/// delta), and returns that old form's index with the position the scan
/// reached; at the end of the text it returns the number of old forms
/// (none) and the end position. Returns `None` on anything the reader
/// would reject (unbalanced or mismatched delimiters, unterminated
/// strings) — the caller falls back to the full pipeline, which reports
/// the error properly.
fn scan(
    src: &str,
    mut i: usize,
    mut pos: Pos,
    resync: Option<&Resync<'_>>,
    out: &mut Vec<FormSlice>,
) -> Option<(usize, Pos)> {
    let bytes = src.as_bytes();

    // Byte-level cursor; the source is UTF-8 and every delimiter we
    // care about is ASCII, so non-ASCII bytes are plain word/string
    // content. Column counts advance per *character*, matching the
    // reader's `Chars`-based positions.
    fn advance(pos: &mut Pos, b: u8) {
        if b == b'\n' {
            pos.line += 1;
            pos.col = 1;
        } else if (b & 0xC0) != 0x80 {
            // Count characters, not continuation bytes.
            pos.col += 1;
        }
    }

    // Consumes a string body starting *after* the opening quote;
    // returns the index just past the closing quote. Backslash escapes
    // any next character (covers both ordinary strings and `#rx"…"`
    // raw patterns, where only termination matters here).
    fn skip_string(bytes: &[u8], mut i: usize, pos: &mut Pos) -> Option<usize> {
        while i < bytes.len() {
            let b = bytes[i];
            advance(pos, b);
            i += 1;
            match b {
                b'"' => return Some(i),
                b'\\' if i < bytes.len() => {
                    advance(pos, bytes[i]);
                    i += 1;
                }
                _ => {}
            }
        }
        None
    }

    while i < bytes.len() {
        let b = bytes[i];
        // Trivia between top-level forms.
        if b.is_ascii_whitespace() {
            advance(&mut pos, b);
            i += 1;
            continue;
        }
        if b == b';' {
            while i < bytes.len() && bytes[i] != b'\n' {
                advance(&mut pos, bytes[i]);
                i += 1;
            }
            continue;
        }
        if b == b')' || b == b']' {
            return None; // reader error: unexpected closer
        }

        let start = i;
        if let Some(r) = resync.filter(|r| start >= r.tail) {
            let old_start = start.wrapping_add_signed(-r.delta);
            if let Ok(k) = r.old.binary_search_by_key(&old_start, |f| f.start) {
                return Some((k, pos));
            }
        }
        let form_pos = pos;
        // Bytes that cannot affect the bracket stack, start a string or
        // comment, or advance the line count. Runs of them (the bulk of
        // any form) take the tight fast path below; UTF-8 continuation
        // bytes are boring too but do not count a column.
        const BORING: [bool; 256] = {
            let mut t = [true; 256];
            t[b'(' as usize] = false;
            t[b'[' as usize] = false;
            t[b')' as usize] = false;
            t[b']' as usize] = false;
            t[b'"' as usize] = false;
            t[b';' as usize] = false;
            t[b'\n' as usize] = false;
            t
        };

        let mut head = Head::Other;
        if b == b'(' || b == b'[' {
            // A list form: track a bracket stack through strings and
            // comments until it empties.
            let mut stack: Vec<u8> = Vec::new();
            while i < bytes.len() {
                let c = bytes[i];
                if BORING[c as usize] {
                    // The stack is untouched, so no emptiness re-check.
                    pos.col += ((c & 0xC0) != 0x80) as u32;
                    i += 1;
                    continue;
                }
                match c {
                    b'(' => stack.push(b')'),
                    b'[' => stack.push(b']'),
                    b')' | b']' => {
                        let opened = stack.pop();
                        if opened != Some(c) {
                            return None; // mismatched delimiter
                        }
                    }
                    b'"' => {
                        advance(&mut pos, c);
                        i = skip_string(bytes, i + 1, &mut pos)?;
                        if stack.is_empty() {
                            break;
                        }
                        continue;
                    }
                    b';' => {
                        while i < bytes.len() && bytes[i] != b'\n' {
                            advance(&mut pos, bytes[i]);
                            i += 1;
                        }
                        continue;
                    }
                    _ => {}
                }
                advance(&mut pos, c);
                i += 1;
                if stack.is_empty() {
                    break;
                }
            }
            if !stack.is_empty() {
                return None; // unterminated form
            }
            head = classify(&src[start..i])?;
        } else if b == b'"' {
            // A top-level string atom.
            advance(&mut pos, b);
            i = skip_string(bytes, i + 1, &mut pos)?;
        } else {
            // A bare atom: word characters up to a delimiter. `#rx"…"`
            // continues into a string when the word hits a quote.
            while i < bytes.len() {
                let c = bytes[i];
                if c.is_ascii_whitespace() || matches!(c, b'(' | b')' | b'[' | b']' | b';') {
                    break;
                }
                if c == b'"' {
                    advance(&mut pos, c);
                    i = skip_string(bytes, i + 1, &mut pos)?;
                    break;
                }
                advance(&mut pos, c);
                i += 1;
            }
        }
        out.push(FormSlice {
            start,
            end: i,
            pos: form_pos,
            end_pos: pos,
            head,
            hash: text_hash(&bytes[start..i]),
        });
    }
    Some((resync.map_or(0, |r| r.old.len()), pos))
}

/// Slices a whole text into top-level forms (see [`scan`]).
#[cfg(test)]
fn scan_forms(src: &str) -> Option<Vec<FormSlice>> {
    let mut out = Vec::new();
    scan(src, 0, START, None, &mut out)?;
    Some(out)
}

/// A text's forms, and how they correspond to the previous scan's:
/// `forms[..same]` are the old `forms[..same]`, `forms[same..same +
/// fresh]` were rescanned, and the rest are the old `forms[resync..]`,
/// moved.
struct Rescan {
    forms: Vec<FormSlice>,
    same: usize,
    fresh: usize,
    resync: usize,
}

/// Scans `src`, rescanning only the edited range against the previous
/// text and its forms when there are any (see the module docs).
fn rescan(src: &str, old: Option<(&str, &[FormSlice])>) -> Option<Rescan> {
    let Some((old_text, old_forms)) = old else {
        let mut forms = Vec::new();
        scan(src, 0, START, None, &mut forms)?;
        return Some(Rescan {
            fresh: forms.len(),
            forms,
            same: 0,
            resync: 0,
        });
    };
    let (a, b) = (old_text.as_bytes(), src.as_bytes());
    let (prefix, suffix) = changed_range(a, b);
    // A form that ends before the first changed byte is followed by the
    // unchanged byte that ended it, so it scans the same.
    let same = old_forms.partition_point(|f| f.end < prefix);
    let (from, pos) = match same.checked_sub(1).map(|l| &old_forms[l]) {
        Some(last) => (last.end, last.end_pos),
        None => (0, START),
    };
    let delta = b.len() as isize - a.len() as isize;
    let mut forms = Vec::with_capacity(old_forms.len() + 1);
    forms.extend_from_slice(&old_forms[..same]);
    let (resync, at) = scan(
        src,
        from,
        pos,
        Some(&Resync {
            old: old_forms,
            delta,
            tail: b.len() - suffix,
        }),
        &mut forms,
    )?;
    let fresh = forms.len() - same;
    if let Some(anchor) = old_forms.get(resync) {
        let moved = old_forms[resync..]
            .iter()
            .map(|f| f.moved(delta, anchor.pos, at));
        forms.extend(moved);
    }
    Some(Rescan {
        forms,
        same,
        fresh,
        resync,
    })
}

/// Classifies a list form's head textually: `(: name …)`,
/// `(define (name …) …)`, `(define name …)`, or anything else. Returns
/// `None` for signature/define shapes whose name the scanner cannot
/// recover (the elaborator would reject them; let the full path report
/// it).
fn classify(form: &str) -> Option<Head> {
    let mut toks = Tokens::new(&form[1..form.len() - 1]);
    match toks.next_word()? {
        Tok::Word(":") => match toks.next_word() {
            Some(Tok::Word(name)) => Some(Head::Sig(Symbol::intern(name))),
            _ => None,
        },
        Tok::Word("define") => match toks.next_word() {
            Some(Tok::Open) => match toks.next_word() {
                Some(Tok::Word(name)) => Some(Head::Define(Symbol::intern(name))),
                _ => None,
            },
            Some(Tok::Word(name)) => Some(Head::Define(Symbol::intern(name))),
            _ => None,
        },
        _ => Some(Head::Other),
    }
}

enum Tok<'a> {
    Word(&'a str),
    Open,
}

/// A minimal token cursor for [`classify`]: skips trivia, yields words
/// and opening delimiters.
struct Tokens<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Tokens<'a> {
    fn new(s: &'a str) -> Tokens<'a> {
        Tokens { s, i: 0 }
    }

    fn next_word(&mut self) -> Option<Tok<'a>> {
        let bytes = self.s.as_bytes();
        while self.i < bytes.len() {
            let b = bytes[self.i];
            if b.is_ascii_whitespace() {
                self.i += 1;
            } else if b == b';' {
                while self.i < bytes.len() && bytes[self.i] != b'\n' {
                    self.i += 1;
                }
            } else {
                break;
            }
        }
        if self.i >= bytes.len() {
            return None;
        }
        match bytes[self.i] {
            b'(' | b'[' => {
                self.i += 1;
                Some(Tok::Open)
            }
            b')' | b']' | b'"' => None,
            _ => {
                let start = self.i;
                while self.i < bytes.len() {
                    let b = bytes[self.i];
                    if b.is_ascii_whitespace()
                        || matches!(b, b'(' | b')' | b'[' | b']' | b'"' | b';')
                    {
                        break;
                    }
                    self.i += 1;
                }
                Some(Tok::Word(&self.s[start..self.i]))
            }
        }
    }
}

/// One item slot's textual identity: its define/expr form plus (for
/// signed definitions) the paired signature form.
#[derive(Clone, Debug)]
struct SlotDesc {
    /// The `define`/expression form.
    form: usize,
    /// The paired `(: name …)` form, if any.
    sig: Option<usize>,
    /// Is this a definition slot (vs a trailing expression)?
    is_define: bool,
    /// [`slot_key`] of the constituent forms.
    key: u64,
    /// The item's scope, in which its forms mint fresh names.
    scope: ItemScope,
}

/// Pairs signatures with their defines, mirroring the elaborator's
/// latest-unconsumed map, and returns slot descriptors **in check
/// order** (defines first, then trailing expressions). Returns `None`
/// whenever the textual account could diverge from the elaborator's —
/// an overwritten pending signature (silently dropped by the map) or a
/// leftover one (`W0001`) — so those modules take the full path.
fn pair_slots(forms: &[FormSlice]) -> Option<Vec<SlotDesc>> {
    // Unconsumed signatures, in order. A signature usually comes right
    // before its define, so this stays a handful of entries long.
    let mut pending: Vec<(Symbol, usize)> = Vec::new();
    let mut defines: Vec<SlotDesc> = Vec::with_capacity(forms.len());
    let mut trailing: Vec<SlotDesc> = Vec::new();
    let mut scopes = ItemScopes::default();
    for (i, f) in forms.iter().enumerate() {
        match f.head {
            Head::Sig(name) => {
                if pending.iter().any(|&(n, _)| n == name) {
                    // The elaborator would silently drop the first
                    // signature (including its elaboration effects);
                    // don't try to replay that.
                    return None;
                }
                pending.push((name, i));
            }
            Head::Define(name) => {
                let sig = pending
                    .iter()
                    .position(|&(n, _)| n == name)
                    .map(|k| pending.swap_remove(k).1);
                defines.push(SlotDesc {
                    form: i,
                    sig,
                    is_define: true,
                    key: slot_key(f, sig.map(|s| &forms[s])),
                    scope: scopes.next(Some(name)),
                });
            }
            Head::Other => trailing.push(SlotDesc {
                form: i,
                sig: None,
                is_define: false,
                key: slot_key(f, None),
                scope: scopes.next(None),
            }),
        }
    }
    if !pending.is_empty() {
        return None; // leftover signature: W0001 on the full path
    }
    defines.extend(trailing);
    Some(defines)
}

/// The old slot each new slot claims, if any. A slot whose form lies
/// outside the rescanned range claims the old slot of the same form by
/// position, if their keys agree; one inside it takes the first
/// unclaimed old slot with its key among those whose forms the rescan
/// replaced. Slots whose diagnostics could not be anchored are never
/// claimed.
fn claim(descs: &[SlotDesc], scan: &Rescan, old: &ModuleCache) -> Vec<Option<usize>> {
    let claimable = |j: usize, d: &SlotDesc| {
        let o = &old.slots[j];
        o.key == d.key
            && o.is_define == d.is_define
            && !matches!(old.diags[j], SlotDiags::Unanchored)
    };
    let slot_of = |form: usize| old.form_slots[form].map(|j| j as usize);
    let mut middle: Vec<(bool, u64, usize)> = (scan.same..scan.resync)
        .filter_map(slot_of)
        .map(|j| (old.slots[j].is_define, old.slots[j].key, j))
        .collect();
    middle.sort_unstable();
    let mut taken = vec![false; middle.len()];
    let rescanned = scan.same..scan.same + scan.fresh;
    descs
        .iter()
        .map(|d| {
            if !rescanned.contains(&d.form) {
                let form = if d.form < scan.same {
                    d.form
                } else {
                    d.form - rescanned.end + scan.resync
                };
                return slot_of(form).filter(|&j| claimable(j, d));
            }
            let first = middle.partition_point(|&(def, key, _)| (def, key) < (d.is_define, d.key));
            let k = (first..middle.len())
                .take_while(|&k| (middle[k].0, middle[k].1) == (d.is_define, d.key))
                .find(|&k| !taken[k] && claimable(middle[k].2, d))?;
            taken[k] = true;
            Some(middle[k].2)
        })
        .collect()
}

/// A slot's diagnostics as a run reported them, spans resolved, with
/// where the slot's forms started in that run: a later run that splices
/// the slot's record reports them again, moved along with the forms.
#[derive(Debug)]
struct Stamped {
    diags: Vec<Diagnostic>,
    /// For each span of each diagnostic (primary first, then the
    /// labels'), whether it lies in the signature form rather than the
    /// define or expression form.
    in_sig: Vec<bool>,
    /// Where the define or expression form started.
    form: Pos,
    /// Where the paired signature form started, if there is one.
    sig: Option<Pos>,
}

impl Stamped {
    /// `ds` as stamped at `form` and `sig`; `None` if a span lies in
    /// neither form.
    fn new(ds: &[Diagnostic], form: &FormSlice, sig: Option<&FormSlice>) -> Option<Stamped> {
        let mut in_sig = Vec::new();
        for s in ds.iter().flat_map(spans) {
            let is_sig = match s {
                Some(s) if !form.contains(s) => {
                    sig.filter(|g| g.contains(s))?;
                    true
                }
                _ => false,
            };
            in_sig.push(is_sig);
        }
        Some(Stamped {
            diags: ds.to_vec(),
            in_sig,
            form: form.pos,
            sig: sig.map(|g| g.pos),
        })
    }

    /// Appends the diagnostics at the slot's current forms to `out`: one
    /// copy each, moved only if a form moved.
    fn stamp(&self, form: &FormSlice, sig: Option<&FormSlice>, out: &mut Vec<Diagnostic>) {
        let sig = sig.map(|g| g.pos);
        if (self.form, self.sig) == (form.pos, sig) {
            out.extend(self.diags.iter().cloned());
            return;
        }
        let mut in_sig = self.in_sig.iter();
        for d in &self.diags {
            let mut d = d.clone();
            for span in spans_mut(&mut d) {
                let is_sig = *in_sig.next().expect("one flag per span");
                if let Some(s) = span {
                    let (from, to) = if is_sig {
                        let moved = self.sig.zip(sig);
                        moved.expect("the claimed key hashed a signature form")
                    } else {
                        (self.form, form.pos)
                    };
                    *s = Span::new(shift(s.start, from, to), shift(s.end, from, to));
                }
            }
            out.push(d);
        }
    }
}

/// A diagnostic's spans: the primary, then each label's.
fn spans(d: &Diagnostic) -> impl Iterator<Item = Option<Span>> + '_ {
    std::iter::once(d.primary).chain(d.labels.iter().map(|l| l.span))
}

/// [`spans`], mutably.
fn spans_mut(d: &mut Diagnostic) -> impl Iterator<Item = &mut Option<Span>> {
    std::iter::once(&mut d.primary).chain(d.labels.iter_mut().map(|l| &mut l.span))
}

/// What a slot reported, kept so a later run that splices its record
/// can report the diagnostics again.
#[derive(Clone, Debug, Default)]
enum SlotDiags {
    /// Nothing.
    #[default]
    Clean,
    /// Its diagnostics, shared by every run that splices them.
    Stamped(Arc<Stamped>),
    /// A diagnostic span lies outside the slot's forms.
    Unanchored,
}

impl SlotDiags {
    fn new(ds: &[Diagnostic], form: &FormSlice, sig: Option<&FormSlice>) -> SlotDiags {
        if ds.is_empty() {
            return SlotDiags::Clean;
        }
        match Stamped::new(ds, form, sig) {
            Some(st) => SlotDiags::Stamped(Arc::new(st)),
            None => SlotDiags::Unanchored,
        }
    }
}

/// Elaborates one slot's form(s) into a [`ModuleItem`], with spans at
/// their absolute file positions. Returns `None` on any read or
/// elaboration error — the caller falls back to the full pipeline.
fn elaborate_slot(
    src: &str,
    forms: &[FormSlice],
    slot: &SlotDesc,
    elab: &mut Elaborator,
) -> Option<ModuleItem> {
    let mut signatures: HashMap<Symbol, (Ty, NodeId)> = HashMap::new();
    let key = |phase| slot.scope.key(phase);
    if let Some(s) = slot.sig {
        let f = &forms[s];
        let data = read_all_from(f.text(src), f.pos).ok()?;
        let [form] = data.as_slice() else { return None };
        let mut sig_order = Vec::new();
        Symbol::scoped(key(":"), || {
            signature_form(elab, form, &mut signatures, &mut sig_order)
        })
        .ok()?;
    }
    let f = &forms[slot.form];
    let data = read_all_from(f.text(src), f.pos).ok()?;
    let [form] = data.as_slice() else { return None };
    if slot.is_define {
        let item =
            Symbol::scoped(key("define"), || define_form(elab, form, &mut signatures)).ok()?;
        // The paired signature must actually be consumed — a textual
        // `(define (f …) …)` whose signature survives would mean our
        // pairing diverged from the elaborator's.
        signatures.is_empty().then_some(item)
    } else {
        match form
            .as_list()
            .and_then(|l| l.first())
            .and_then(Sexp::as_symbol)
        {
            // A head the module elaborator treats specially reaching an
            // expression slot means the scanner misclassified; bail.
            Some(":" | "define") => None,
            _ => {
                let e = Symbol::scoped(key("expr"), || elab.expr(form)).ok()?;
                Some(ModuleItem::Expr {
                    node: e.span_node(),
                    expr: e,
                })
            }
        }
    }
}

/// A per-source incremental cache: the previous run's text, forms and
/// slots (for the edit-range rescan and textual matching) and the core
/// driver's [`ItemCache`].
#[derive(Clone, Debug)]
pub struct ModuleCache {
    /// The text the cache describes.
    text: String,
    /// Its top-level forms.
    forms: Vec<FormSlice>,
    /// The slots, in check order.
    slots: Vec<SlotDesc>,
    /// What each slot reported.
    diags: Vec<SlotDiags>,
    /// The slot each form is the define/expression form of.
    form_slots: Vec<Option<u32>>,
    /// The core per-item cache.
    core: ItemCache,
}

impl ModuleCache {
    /// Number of cached item slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Checks a module incrementally against the previous run's
/// [`ModuleCache`].
///
/// Returns the report, the cache to use for the next edit (`None` when
/// the textual account did not apply, or a cancelled check stopped
/// before the last slot — keep the old cache in that case), and the
/// check's work counters (always `Some`; a cold run re-checks every
/// item).
pub fn check_module_source_incremental(
    src: &str,
    checker: &Checker,
    old: Option<&ModuleCache>,
) -> (ModuleReport, Option<ModuleCache>, Option<TraceCounts>) {
    let whole = |src: &str| {
        let (report, trace) = check_module_source_traced(src, checker);
        (report, None, Some(trace))
    };

    let Some(scan) = rescan(src, old.map(|c| (c.text.as_str(), c.forms.as_slice()))) else {
        return whole(src);
    };
    let forms = &scan.forms;
    let Some(descs) = pair_slots(forms) else {
        return whole(src);
    };
    let claims = match old {
        Some(old) => claim(&descs, &scan, old),
        None => vec![None; descs.len()],
    };

    let mut elab = Elaborator::new();
    let mut slots: Vec<IncrSlot> = Vec::with_capacity(descs.len());
    for (d, claimed) in descs.iter().zip(&claims) {
        match claimed {
            Some(j) => slots.push(IncrSlot::Reused(*j)),
            None => match elaborate_slot(src, forms, d, &mut elab) {
                Some(item) => slots.push(IncrSlot::Fresh(item)),
                None => return whole(src),
            },
        }
    }

    let mut fetch = |i: usize| elaborate_slot(src, forms, &descs[i], &mut elab);
    let Some((mc, core, stats)) =
        checker.check_module_incremental(&slots, old.map(|c| &c.core), &mut fetch)
    else {
        // A claimed slot no longer elaborates on its own.
        return whole(src);
    };

    // Diagnostics slot by slot: a spliced failing record's come from the
    // claimed slot's stored copy, moved to the slot's forms; the rest
    // were derived by this run and resolve through its elaborator.
    let spans = elab.into_spans();
    let mut derived = mc.diagnostics.into_iter();
    let mut diagnostics = Vec::new();
    let mut slot_diags: Vec<SlotDiags> = Vec::with_capacity(descs.len());
    for ((n, spliced), (d, claimed)) in core.slot_diagnostics().zip(descs.iter().zip(&claims)) {
        let (form, sig) = (&forms[d.form], d.sig.map(|s| &forms[s]));
        if spliced {
            // The driver splices a failing record only into the slot
            // that claims it, so the claimed slot's copy is its mirror.
            derived.by_ref().take(n).for_each(drop);
            let stored = claimed
                .zip(old)
                .map_or(SlotDiags::Clean, |(j, old)| old.diags[j].clone());
            if let SlotDiags::Stamped(st) = &stored {
                st.stamp(form, sig, &mut diagnostics);
            }
            slot_diags.push(stored);
        } else {
            let first = diagnostics.len();
            diagnostics.extend(derived.by_ref().take(n).map(|d| {
                let mut d = Arc::unwrap_or_clone(d);
                d.resolve_spans(&spans);
                d
            }));
            slot_diags.push(SlotDiags::new(&diagnostics[first..], form, sig));
        }
    }
    // Stamp every summary's extent from the *current* scan: spliced
    // summaries carry the previous run's span, which an edit above them
    // may have shifted. Results and descs share check order; a
    // cancelled check stopped early and covers a prefix of the slots.
    let mut results = mc.results;
    debug_assert!(results.len() <= descs.len());
    for (summary, desc) in results.iter_mut().zip(&descs) {
        summary.span = Some(forms[desc.form].span());
    }
    // A cut-short run's cache covers only the slots it reached: keep the
    // previous one.
    let complete = core.len() == descs.len();
    let report = ModuleReport {
        diagnostics,
        results,
        value: mc.value,
    };
    let cache = complete.then(|| {
        let mut form_slots = vec![None; scan.forms.len()];
        for (j, d) in descs.iter().enumerate() {
            form_slots[d.form] = Some(j as u32);
        }
        ModuleCache {
            text: src.to_owned(),
            forms: scan.forms,
            slots: descs,
            diags: slot_diags,
            form_slots,
            core,
        }
    });
    (report, cache, Some(stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_module_source;

    fn checker() -> Checker {
        Checker::default()
    }

    #[test]
    fn scanner_slices_match_the_reader() {
        let src = r#"
; header comment
(: f : [x : Int] -> Int)
(define (f x) (+ x 1)) ; tail comment
"str ; not a comment"
(f 2)
#rx"a;b"
42
        "#;
        let forms = scan_forms(src).expect("well-formed");
        let texts: Vec<&str> = forms.iter().map(|f| f.text(src)).collect();
        assert_eq!(
            texts,
            vec![
                "(: f : [x : Int] -> Int)",
                "(define (f x) (+ x 1))",
                "\"str ; not a comment\"",
                "(f 2)",
                "#rx\"a;b\"",
                "42",
            ]
        );
        assert_eq!(forms[0].head, Head::Sig(Symbol::intern("f")));
        assert_eq!(forms[1].head, Head::Define(Symbol::intern("f")));
        assert_eq!(forms[3].head, Head::Other);
        // Positions are reader-accurate.
        assert_eq!(forms[0].pos, Pos { line: 3, col: 1 });
    }

    #[test]
    fn scanner_rejects_what_the_reader_rejects() {
        assert!(scan_forms("(a b").is_none());
        assert!(scan_forms("(a]").is_none());
        assert!(scan_forms(")").is_none());
        assert!(scan_forms("\"abc").is_none());
    }

    /// A deterministic LCG; high bits are the usable ones.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as usize) % bound.max(1)
        }
    }

    /// A well-formed document mixing every lexical shape the scanner
    /// tracks: signatures, defines, strings, comments, `#rx"…"`
    /// literals, bare atoms, multibyte text and `\r\n` line ends.
    fn lexical_document(rng: &mut Lcg, n: usize) -> String {
        (0..n)
            .map(|k| match rng.next(8) {
                0 | 1 => format!("(: f{k} : [x : Int] -> Int)\n(define (f{k} x) (+ x {k}))\n"),
                2 => format!("; note {k} with \"quote\" and (paren\n(f{k} 2)\n"),
                3 => format!("\"a string ; {k} not a comment\"\n"),
                4 => format!("(define r{k} #rx\"a;b(\")\n#rx\"c{k}\"\n"),
                5 => format!("(define s{k} \"é𝒳 {k}\")\r\n"),
                6 => format!("{k} [g{k} (h \"x\\\"y\")]  "),
                _ => format!("(define (e{k} [x : Int]) ; inner (\n  (+ x {k}))\n"),
            })
            .collect()
    }

    /// Replaces a random character range of `text` with a snippet that
    /// may open or close a string, a comment or a literal.
    fn random_edit(rng: &mut Lcg, text: &str) -> String {
        const SNIPPETS: [&str; 17] = [
            "\"",
            ";",
            "#rx\"",
            "\n",
            "\r\n",
            "(",
            ")",
            "[",
            "]",
            "é",
            "𝒳",
            "x",
            "\\",
            " ",
            "",
            "(define (g y) y)",
            "; c\n",
        ];
        let bounds: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .collect();
        let from = rng.next(bounds.len());
        let span = if rng.next(4) == 0 {
            rng.next(200)
        } else {
            rng.next(4)
        };
        let to = (from + span).min(bounds.len() - 1);
        let snippet = SNIPPETS[rng.next(SNIPPETS.len())];
        format!("{}{snippet}{}", &text[..bounds[from]], &text[bounds[to]..])
    }

    fn warm_scan_matches_a_cold_scan(seed: u64) {
        let mut rng = Lcg(seed);
        let mut text = lexical_document(&mut rng, 30);
        let mut forms = scan_forms(&text).expect("the document is well formed");
        for step in 0..120 {
            let next = random_edit(&mut rng, &text);
            let cold = scan_forms(&next);
            let warm = rescan(&next, Some((&text, &forms)));
            assert_eq!(
                warm.as_ref().map(|w| &w.forms),
                cold.as_ref(),
                "seed {seed} step {step}:\n{text:?}\n→\n{next:?}"
            );
            // Keep editing from any text that scans.
            if let Some(cold) = cold {
                (text, forms) = (next, cold);
            }
        }
    }

    #[test]
    fn warm_scans_of_random_edits_match_cold_scans() {
        for seed in 1..=16 {
            warm_scan_matches_a_cold_scan(seed);
        }
        // Explore new edits on every run; the seed is in the message.
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        warm_scan_matches_a_cold_scan(clock);
    }

    #[test]
    fn a_body_edit_rescans_one_form_and_a_commented_line_drops_one() {
        let text: String = (0..40)
            .map(|k| format!("(: f{k} : [x : Int] -> Int)\n(define (f{k} x) (+ x {k}))\n"))
            .collect();
        let forms = scan_forms(&text).expect("well formed");
        let edited = text.replace("(+ x 17)", "(+ x 170)");
        let warm = rescan(&edited, Some((&text, &forms))).expect("well formed");
        assert_eq!((warm.same, warm.fresh, warm.resync), (35, 1, 36));
        assert_eq!(Some(warm.forms), scan_forms(&edited));

        // A `"` opened inside f3's body runs to the next quote: none, so
        // the rest of the text is an unterminated string, as cold.
        let opened = text.replacen("(+ x 3)", "(+ x \"3)", 1);
        assert!(rescan(&opened, Some((&text, &forms))).is_none());
        // A comment opened at the start of a line swallows that line's
        // form; the rescan resyncs at the next one.
        let line = text.replacen("(define (f3", ";(define (f3", 1);
        let warm = rescan(&line, Some((&text, &forms))).expect("well formed");
        assert_eq!(
            (warm.fresh, warm.resync - warm.same),
            (0, 1),
            "one form dropped"
        );
        assert_eq!(Some(warm.forms), scan_forms(&line));
    }

    #[test]
    fn leftover_or_overwritten_signatures_fall_back() {
        let forms = scan_forms("(: ghost : [x : Int] -> Int) (+ 1 2)").unwrap();
        assert!(pair_slots(&forms).is_none());
    }

    #[test]
    fn incremental_one_edit_matches_full_and_skips() {
        let v1 = "\
(: f : [x : Int] -> Int)
(define (f x) (+ x 1))
(: g : [x : Int] -> Int)
(define (g x) (f (f x)))
(: h : [x : Int] -> Int)
(define (h x) (+ x 3))
(h (g 1))
";
        let (r1, cache, s1) = check_module_source_incremental(v1, &checker(), None);
        assert!(r1.is_clean(), "{:#?}", r1.diagnostics);
        let cache = cache.expect("cold incremental run builds a cache");
        assert_eq!(s1.expect("ran incrementally").rechecked, 4);

        // Edit h's body only.
        let v2 = v1.replace("(+ x 3)", "(+ x 4)");
        let (r2, cache2, s2) = check_module_source_incremental(&v2, &checker(), Some(&cache));
        let full = check_module_source(&v2, &checker());
        assert!(r2.is_clean());
        assert_eq!(r2.error_count(), full.error_count());
        let s2 = s2.expect("incremental path ran");
        assert!(s2.skipped >= 3, "{s2:?}");
        assert_eq!(s2.rechecked, 1, "{s2:?}");
        assert!(cache2.is_some());

        // Edit that flips g ill-typed: the report matches the full one,
        // spans included.
        let v3 = v1.replace("(f (f x))", "(f #t)");
        let (r3, _, _) = check_module_source_incremental(&v3, &checker(), Some(&cache));
        let full3 = check_module_source(&v3, &checker());
        assert_eq!(r3.error_count(), full3.error_count());
        assert_eq!(r3.diagnostics.len(), full3.diagnostics.len());
        for (a, b) in r3.diagnostics.iter().zip(&full3.diagnostics) {
            assert_eq!(a.code, b.code);
            assert_eq!(a.primary, b.primary, "span must match the full path");
        }
    }

    #[test]
    fn syntax_errors_fall_back_to_the_full_path() {
        let src = "(define (f x) (if))\n(define (g [y : Int]) y)";
        let (r, cache, stats) = check_module_source_incremental(src, &checker(), None);
        assert_eq!(r.error_count(), 1);
        assert!(cache.is_none(), "no textual account, no cache");
        let stats = stats.expect("the driver ran");
        assert_eq!((stats.rechecked, stats.skipped), (2, 0));
    }
}
