//! Source-level incremental checking: textual form slicing feeding the
//! core incremental driver.
//!
//! The core driver ([`rtr_core::incremental`]) splices cached per-item
//! results, but it must not pay for re-*elaborating* unchanged items
//! either — elaboration of a 50-item module costs more than the whole
//! warm re-check budget. This module therefore works on the source
//! *text*:
//!
//! 1. an O(n) `scan_forms` pass slices the file into top-level form
//!    extents without building any trees (it mirrors the reader's
//!    lexical rules — comments, strings, `#rx"…"` literals, brackets);
//! 2. signature forms are paired with their `define` textually,
//!    mirroring the elaborator's latest-unconsumed-signature map, giving
//!    one *slot* per module item in check order (definitions first, then
//!    trailing expressions), each keyed by a hash of its constituent
//!    form texts;
//! 3. slots whose key matches the previous run (FIFO per partition, so
//!    reorders and duplicates resolve positionally) become
//!    [`IncrSlot::Reused`] — their items are only elaborated if the
//!    driver rejects the splice, via the `fetch` callback, with spans
//!    read at their *new* file positions ([`read_all_from`]);
//!    changed slots elaborate eagerly and go in as [`IncrSlot::Fresh`].
//!
//! Anything the textual account cannot mirror exactly — scanner
//! anomalies, unconsumed or overwritten signatures (`W0001` territory),
//! or any elaboration error — goes through
//! [`crate::check_module_source`]: the same driver, cold, over
//! [`crate::elaborate_module_items`]' output.

use std::collections::HashMap;

use rtr_core::check::Checker;
use rtr_core::diag::{NodeId, Span};
use rtr_core::incremental::{IncrSlot, ItemCache};
use rtr_core::module::ModuleItem;
use rtr_core::syntax::{Symbol, Ty};
use rtr_core::trace::TraceCounts;

use crate::elab::Elaborator;
use crate::module::{check_module_source_traced, define_form, signature_form, ModuleReport};
use crate::sexp::{read_all_from, Pos, Sexp};

/// What kind of top-level form a slice is, as far as the scanner can
/// tell without parsing.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Head {
    /// `(: name …)` — a signature for `name`.
    Sig(String),
    /// `(define (name …) …)` / `(define name …)`.
    Define(String),
    /// Anything else: a trailing expression.
    Other,
}

/// One top-level form's extent in the source.
#[derive(Clone, Debug)]
struct FormSlice {
    /// Byte range in the source.
    start: usize,
    end: usize,
    /// Line/column of the first character (for absolute re-reading).
    pos: Pos,
    head: Head,
}

impl FormSlice {
    fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// The form's surface extent as a half-open [`Span`], walking the
    /// slice once to find the position just past its last character.
    fn span(&self, src: &str) -> Span {
        let mut end = self.pos;
        for ch in self.text(src).chars() {
            if ch == '\n' {
                end.line += 1;
                end.col = 1;
            } else {
                end.col += 1;
            }
        }
        Span::new(self.pos, end)
    }
}

/// Stable FNV-1a over a slice's text.
fn text_hash(h: &mut u64, s: &str) {
    for b in s.as_bytes() {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Separator so concatenations can't collide across the boundary.
    *h ^= 0xFF;
    *h = h.wrapping_mul(0x0000_0100_0000_01B3);
}

/// Slices `src` into top-level form extents, mirroring the reader's
/// lexical rules. Returns `None` on anything the reader would reject
/// (unbalanced or mismatched delimiters, unterminated strings) — the
/// caller falls back to the full pipeline, which reports the error
/// properly.
fn scan_forms(src: &str) -> Option<Vec<FormSlice>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut pos = Pos { line: 1, col: 1 };

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
            let head = classify(&src[start..i])?;
            out.push(FormSlice {
                start,
                end: i,
                pos: form_pos,
                head,
            });
        } else if b == b'"' {
            // A top-level string atom.
            advance(&mut pos, b);
            i = skip_string(bytes, i + 1, &mut pos)?;
            out.push(FormSlice {
                start,
                end: i,
                pos: form_pos,
                head: Head::Other,
            });
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
            out.push(FormSlice {
                start,
                end: i,
                pos: form_pos,
                head: Head::Other,
            });
        }
    }
    Some(out)
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
            Some(Tok::Word(name)) => Some(Head::Sig(name.to_owned())),
            _ => None,
        },
        Tok::Word("define") => match toks.next_word() {
            Some(Tok::Open) => match toks.next_word() {
                Some(Tok::Word(name)) => Some(Head::Define(name.to_owned())),
                _ => None,
            },
            Some(Tok::Word(name)) => Some(Head::Define(name.to_owned())),
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
    /// The `define`/expression form slice.
    form: usize,
    /// The paired `(: name …)` slice, if any.
    sig: Option<usize>,
    /// Is this a definition slot (vs a trailing expression)?
    is_define: bool,
    /// Hash of the constituent texts.
    key: u64,
}

/// Pairs signatures with their defines, mirroring the elaborator's
/// latest-unconsumed map, and returns slot descriptors **in check
/// order** (defines first, then trailing expressions). Returns `None`
/// whenever the textual account could diverge from the elaborator's —
/// an overwritten pending signature (silently dropped by the map) or a
/// leftover one (`W0001`) — so those modules take the full path.
fn pair_slots(src: &str, forms: &[FormSlice]) -> Option<Vec<SlotDesc>> {
    let mut pending: HashMap<&str, usize> = HashMap::new();
    let mut defines: Vec<SlotDesc> = Vec::new();
    let mut trailing: Vec<SlotDesc> = Vec::new();
    for (i, f) in forms.iter().enumerate() {
        match &f.head {
            Head::Sig(name) => {
                if pending.insert(name.as_str(), i).is_some() {
                    // The elaborator would silently drop the first
                    // signature (including its elaboration effects);
                    // don't try to replay that.
                    return None;
                }
            }
            Head::Define(name) => {
                let sig = pending.remove(name.as_str());
                let mut key = 0xCBF2_9CE4_8422_2325u64;
                if let Some(s) = sig {
                    text_hash(&mut key, forms[s].text(src));
                }
                text_hash(&mut key, f.text(src));
                defines.push(SlotDesc {
                    form: i,
                    sig,
                    is_define: true,
                    key,
                });
            }
            Head::Other => {
                let mut key = 0xCBF2_9CE4_8422_2325u64;
                text_hash(&mut key, f.text(src));
                trailing.push(SlotDesc {
                    form: i,
                    sig: None,
                    is_define: false,
                    key,
                });
            }
        }
    }
    if !pending.is_empty() {
        return None; // leftover signature: W0001 on the full path
    }
    defines.extend(trailing);
    Some(defines)
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
    if let Some(s) = slot.sig {
        let f = &forms[s];
        let data = read_all_from(f.text(src), f.pos).ok()?;
        let [form] = data.as_slice() else { return None };
        let mut sig_order = Vec::new();
        signature_form(elab, form, &mut signatures, &mut sig_order).ok()?;
    }
    let f = &forms[slot.form];
    let data = read_all_from(f.text(src), f.pos).ok()?;
    let [form] = data.as_slice() else { return None };
    if slot.is_define {
        let item = define_form(elab, form, &mut signatures).ok()?;
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
                let e = elab.expr(form).ok()?;
                Some(ModuleItem::Expr {
                    node: e.span_node(),
                    expr: e,
                })
            }
        }
    }
}

/// A per-source incremental cache: the previous run's slot keys (for
/// textual matching) and the core driver's [`ItemCache`].
#[derive(Clone, Debug)]
pub struct ModuleCache {
    /// Slot keys in check order.
    keys: Vec<u64>,
    /// How many leading slots are definitions.
    n_defines: usize,
    /// The core per-item cache.
    core: ItemCache,
}

impl ModuleCache {
    /// Number of cached item slots.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Checks a module incrementally against the previous run's
/// [`ModuleCache`].
///
/// Returns the report, the cache to use for the next edit (`None` when
/// the textual account did not apply — keep the old cache in that
/// case), and the check's work counters (always `Some`; a cold run
/// re-checks every item).
pub fn check_module_source_incremental(
    src: &str,
    checker: &Checker,
    old: Option<&ModuleCache>,
) -> (ModuleReport, Option<ModuleCache>, Option<TraceCounts>) {
    let whole = |src: &str| {
        let (report, trace) = check_module_source_traced(src, checker);
        (report, None, Some(trace))
    };

    let Some(forms) = scan_forms(src) else {
        return whole(src);
    };
    let Some(descs) = pair_slots(src, &forms) else {
        return whole(src);
    };
    let n_defines = descs.iter().filter(|d| d.is_define).count();

    // Match new slots against the old run's keys, FIFO within each
    // partition so duplicates and reorders resolve positionally.
    let mut queues: HashMap<(bool, u64), std::collections::VecDeque<usize>> = HashMap::new();
    if let Some(c) = old {
        for (j, key) in c.keys.iter().enumerate() {
            queues
                .entry((j < c.n_defines, *key))
                .or_default()
                .push_back(j);
        }
    }

    let mut elab = Elaborator::new();
    let mut slots: Vec<IncrSlot> = Vec::with_capacity(descs.len());
    for d in &descs {
        match queues
            .get_mut(&(d.is_define, d.key))
            .and_then(|q| q.pop_front())
        {
            Some(j) => slots.push(IncrSlot::Reused(j)),
            None => match elaborate_slot(src, &forms, d, &mut elab) {
                Some(item) => slots.push(IncrSlot::Fresh(item)),
                None => return whole(src),
            },
        }
    }

    let mut fetch = |i: usize| elaborate_slot(src, &forms, &descs[i], &mut elab);
    let Some((mc, core, stats)) =
        checker.check_module_incremental(&slots, old.map(|c| &c.core), &mut fetch)
    else {
        // A claimed slot no longer elaborates on its own.
        return whole(src);
    };

    let spans = elab.into_spans();
    let mut diagnostics = mc.diagnostics;
    for d in &mut diagnostics {
        d.resolve_spans(&spans);
    }
    // Stamp every summary's extent from the *current* scan: spliced
    // summaries carry the previous run's span, which an edit above them
    // may have shifted. Results and descs share check order.
    let mut results = mc.results;
    debug_assert_eq!(results.len(), descs.len());
    for (summary, desc) in results.iter_mut().zip(&descs) {
        summary.span = Some(forms[desc.form].span(src));
    }
    let report = ModuleReport {
        diagnostics,
        results,
        value: mc.value,
    };
    let cache = ModuleCache {
        keys: descs.iter().map(|d| d.key).collect(),
        n_defines,
        core,
    };
    (report, Some(cache), Some(stats))
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
        assert_eq!(forms[0].head, Head::Sig("f".to_owned()));
        assert_eq!(forms[1].head, Head::Define("f".to_owned()));
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

    #[test]
    fn leftover_or_overwritten_signatures_fall_back() {
        let forms = scan_forms("(: ghost : [x : Int] -> Int) (+ 1 2)").unwrap();
        assert!(pair_slots("(: ghost : [x : Int] -> Int) (+ 1 2)", &forms).is_none());
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
