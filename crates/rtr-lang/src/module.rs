//! Module-level elaboration and the program drivers.
//!
//! A module is a sequence of forms:
//!
//! ```racket
//! (: max : [x : Int] [y : Int] -> [z : Int #:where (and (>= z x) (>= z y))])
//! (define (max x y) (if (> x y) x y))
//! (max 3 4)
//! ```
//!
//! Signatures attach to the next `define` of the same name; annotated
//! functions elaborate to `letrec` (so they may recur), unannotated
//! non-function definitions to `let`. Trailing expressions run in order;
//! the module's value is the last one.
//!
//! Elaboration produces an [`ElaboratedModule`]: the item-structured
//! form ([`rtr_core::module::ModuleItem`]) the recovering checker
//! consumes, the [`SpanTable`] mapping every expression back to the
//! surface source, and any per-form syntax errors (a malformed form is
//! skipped — its `define`d name, when recoverable, is poisoned instead
//! of cascading into unbound-variable errors).
//!
//! Every entry point checks the items with the core module driver
//! ([`Checker::check_module`]):
//!
//! * [`check_module_source`] — the diagnostics-first path: never fails,
//!   returns a [`ModuleReport`] with *every* diagnostic located in the
//!   source. This is what [`rtr` sessions][paper] and the corpus
//!   classifier use.
//! * [`check_source`], [`run_source`] and [`check_and_run_source`] — the
//!   first-error conveniences: the first syntax or type error as a
//!   [`LangError`], else the module's lifted value (and, for the run
//!   entry points, its evaluation).
//!
//! The nested `letrec`/`let` encoding of a module
//! ([`ElaboratedModule::program`]) is what the evaluator runs, and the
//! tests check it against the driver as an oracle.
//!
//! [paper]: https://doi.org/10.1145/2908080.2908091

use std::collections::HashMap;
use std::sync::Arc;

use rtr_core::check::Checker;
use rtr_core::diag::{Code, Diagnostic, SpanTable};
use rtr_core::incremental::ItemScopes;
use rtr_core::interp::{eval_program, EvalError, Value};
use rtr_core::module::{ItemSummary, ModuleItem, ModuleValue};
use rtr_core::syntax::{Expr, Lambda, Symbol, Ty, TyResult};
use rtr_core::trace::TraceCounts;

use crate::elab::{err, ElabError, Elaborator};
use crate::expand::begin_form;
use crate::sexp::{read_all, ReadError, Sexp, Span};

/// Any error arising from source text processing.
#[derive(Clone, PartialEq, Debug)]
pub enum LangError {
    /// Reader (lexical) error.
    Read(ReadError),
    /// Elaboration (syntax) error.
    Syntax(ElabError),
    /// Type error from the core checker.
    Type(rtr_core::diag::Diagnostic),
    /// Runtime error from the evaluator.
    Eval(EvalError),
}

impl LangError {
    /// The error as a located [`Diagnostic`] (`E0101`/`E0102` for
    /// reader/syntax errors, `E0201` for runtime failures; type errors
    /// pass through).
    pub fn to_diagnostic(&self) -> Diagnostic {
        match self {
            LangError::Read(e) => {
                Diagnostic::read_error(format!("read error: {}", e.message), Span::point(e.pos))
            }
            LangError::Syntax(e) => e.to_diagnostic(),
            LangError::Type(d) => d.clone(),
            LangError::Eval(e) => {
                Diagnostic::new(Code::RuntimeError, format!("runtime error: {e}"))
            }
        }
    }
}

impl std::fmt::Display for LangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LangError::Read(e) => write!(f, "{e}"),
            LangError::Syntax(e) => write!(f, "{e}"),
            LangError::Type(e) => write!(f, "{e}"),
            LangError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LangError {}

impl From<ReadError> for LangError {
    fn from(e: ReadError) -> LangError {
        LangError::Read(e)
    }
}
impl From<ElabError> for LangError {
    fn from(e: ElabError) -> LangError {
        LangError::Syntax(e)
    }
}
impl From<rtr_core::diag::Diagnostic> for LangError {
    fn from(e: rtr_core::diag::Diagnostic) -> LangError {
        LangError::Type(e)
    }
}
impl From<EvalError> for LangError {
    fn from(e: EvalError) -> LangError {
        LangError::Eval(e)
    }
}

/// A fully elaborated module: structured items, the span table, and any
/// per-form syntax errors collected along the way.
#[derive(Clone, Debug)]
pub struct ElaboratedModule {
    /// The module's forms in order (definitions and trailing
    /// expressions).
    pub items: Vec<ModuleItem>,
    /// Spans for every elaborated expression node.
    pub spans: SpanTable,
    /// Syntax errors of skipped forms (empty for a well-formed module).
    pub syntax_errors: Vec<ElabError>,
    /// Warnings (currently: `W0001` signatures without a definition).
    pub warnings: Vec<Diagnostic>,
}

impl ElaboratedModule {
    /// The classic nested core encoding: every definition wraps the
    /// trailing expressions as `letrec`/`let`, exactly as the paper's
    /// driver built it. The evaluator runs it, and tests check it against
    /// the module driver as an oracle.
    /// Clones the items; callers done with the module use
    /// [`ElaboratedModule::into_program`] instead.
    pub fn program(&self) -> Expr {
        nest_program(self.items.clone())
    }

    /// [`ElaboratedModule::program`] by move — no AST clone.
    pub fn into_program(self) -> Expr {
        nest_program(self.items)
    }
}

/// Folds items into the nested `letrec`/`let` core encoding.
fn nest_program(items: Vec<ModuleItem>) -> Expr {
    let mut defines: Vec<ModuleItem> = Vec::with_capacity(items.len());
    let mut trailing: Vec<Expr> = Vec::new();
    for item in items {
        match item {
            ModuleItem::Expr { expr, .. } => trailing.push(expr),
            // Opaque items only exist when elaboration failed; the
            // strict callers below bail out before building a program
            // in that case.
            ModuleItem::Opaque { .. } => {}
            define => defines.push(define),
        }
    }
    let mut program = begin_form(trailing);
    if matches!(program, Expr::Begin(ref es) if es.is_empty()) {
        program = Expr::Bool(true);
    }
    for item in defines.into_iter().rev() {
        match item {
            ModuleItem::DefineRec { name, sig, lam, .. } => {
                program = Expr::LetRec(name, sig, lam, Box::new(program));
            }
            ModuleItem::Define { name, rhs, .. } => {
                program = Expr::let_(name, rhs, program);
            }
            ModuleItem::Opaque { .. } | ModuleItem::Expr { .. } => unreachable!("partitioned"),
        }
    }
    program
}

/// Elaborates a module into structured items plus spans, recovering
/// from per-form syntax errors (a malformed form is recorded and
/// skipped; a malformed `define` still binds its name opaquely).
///
/// # Errors
///
/// Only lexical ([`ReadError`]) failures abort elaboration — without a
/// datum stream there is nothing to recover.
pub fn elaborate_module_items(src: &str) -> Result<ElaboratedModule, ReadError> {
    let forms = read_all(src)?;
    let mut elab = Elaborator::new();
    let mut signatures: HashMap<Symbol, (Ty, rtr_core::diag::NodeId)> = HashMap::new();
    let mut sig_order: Vec<Symbol> = Vec::new();
    let mut items: Vec<ModuleItem> = Vec::new();
    let mut syntax_errors: Vec<ElabError> = Vec::new();
    // Names whose signature failed to elaborate: the matching define is
    // bound opaquely and *not* checked (without its declared type, body
    // diagnostics would be spurious).
    let mut failed_sigs: std::collections::HashSet<Symbol> = std::collections::HashSet::new();

    // Each form mints its fresh names in a scope of the item it
    // elaborates to; a signature, in that of the next define of its name.
    let mut scopes = ItemScopes::default();
    for form in &forms {
        let head = form
            .as_list()
            .and_then(|l| l.first())
            .and_then(Sexp::as_symbol)
            .unwrap_or("");
        let (phase, scope) = match head {
            ":" => (":", scopes.peek(sig_name(form))),
            "define" => ("define", scopes.next(defined_name(form))),
            _ => ("expr", scopes.next(None)),
        };
        if head == "define" {
            if let Some(name) = defined_name(form) {
                if failed_sigs.remove(&name) {
                    items.push(ModuleItem::Opaque { name, ty: Ty::Top });
                    continue;
                }
            }
        }
        let result = Symbol::scoped(scope.key(phase), || match head {
            ":" => signature_form(&mut elab, form, &mut signatures, &mut sig_order).map(|()| None),
            "define" => define_form(&mut elab, form, &mut signatures).map(Some),
            _ => elab.expr(form).map(|e| {
                Some(ModuleItem::Expr {
                    node: e.span_node(),
                    expr: e,
                })
            }),
        });
        match result {
            Ok(Some(item)) => items.push(item),
            Ok(None) => {}
            Err(e) => {
                match head {
                    // A malformed define still shadows its name (at the
                    // declared type if a signature exists) so later
                    // forms don't cascade into unbound-variable errors.
                    "define" => {
                        if let Some(name) = defined_name(form) {
                            let ty = signatures.remove(&name).map(|(t, _)| t).unwrap_or(Ty::Top);
                            items.push(ModuleItem::Opaque { name, ty });
                        }
                    }
                    // A malformed signature poisons its define the same
                    // way: without the declared type, checking the body
                    // would only manufacture spurious diagnostics.
                    ":" => {
                        if let Some(name) = sig_name(form) {
                            failed_sigs.insert(name);
                        }
                    }
                    _ => {}
                }
                syntax_errors.push(e);
            }
        }
    }

    let warnings = sig_order
        .iter()
        .filter_map(|name| signatures.get(name).map(|(_, node)| (*name, *node)))
        .map(|(name, node)| {
            Diagnostic::new(
                Code::UnusedSignature,
                format!("the signature for {name} has no matching define"),
            )
            .or_node(node)
        })
        .collect();

    Ok(ElaboratedModule {
        items,
        spans: elab.into_spans(),
        syntax_errors,
        warnings,
    })
}

/// `(: name T)` or the paper's `(: name : dom … -> rng)`.
pub(crate) fn signature_form(
    elab: &mut Elaborator,
    form: &Sexp,
    signatures: &mut HashMap<Symbol, (Ty, rtr_core::diag::NodeId)>,
    sig_order: &mut Vec<Symbol>,
) -> Result<(), ElabError> {
    let items = form.as_list().expect("head checked");
    let Some(name) = items.get(1).and_then(Sexp::as_symbol) else {
        return err(form.span(), "(: name T)");
    };
    let ty = if items.get(2).and_then(Sexp::as_symbol) == Some(":") {
        let arrow = Sexp::List(items[3..].to_vec(), form.span());
        elab.ty(&arrow)?
    } else if items.len() == 3 {
        elab.ty(&items[2])?
    } else {
        let arrow = Sexp::List(items[2..].to_vec(), form.span());
        elab.ty(&arrow)?
    };
    let sym = Symbol::intern(name);
    let node = elab.form_node(form.span());
    signatures.insert(sym, (ty, node));
    sig_order.push(sym);
    Ok(())
}

/// The name a `(: name …)` form declares, if it has one.
fn sig_name(form: &Sexp) -> Option<Symbol> {
    let name = form.as_list()?.get(1)?.as_symbol()?;
    Some(Symbol::intern(name))
}

/// The name a `define` form would bind, if it is recoverable from the
/// shape alone (used to poison bindings of malformed defines).
fn defined_name(form: &Sexp) -> Option<Symbol> {
    let items = form.as_list()?;
    match items.get(1) {
        Some(Sexp::Symbol(name, _)) => Some(Symbol::intern(name)),
        Some(Sexp::List(header, _)) => header.first().and_then(Sexp::as_symbol).map(Symbol::intern),
        _ => None,
    }
}

pub(crate) fn define_form(
    elab: &mut Elaborator,
    form: &Sexp,
    signatures: &mut HashMap<Symbol, (Ty, rtr_core::diag::NodeId)>,
) -> Result<ModuleItem, ElabError> {
    let items = form.as_list().expect("head checked");
    let node = Some(elab.form_node(form.span()));
    match items.get(1) {
        // (define (f params…) body…)
        Some(Sexp::List(header, _)) => {
            let Some(fname) = header.first().and_then(Sexp::as_symbol) else {
                return err(form.span(), "(define (f …) …)");
            };
            let fsym = Symbol::intern(fname);
            let mut params = Vec::new();
            for p in &header[1..] {
                if let Some(name) = p.as_symbol() {
                    params.push((Symbol::intern(name), Ty::Top));
                } else if let Some([x, colon, t]) = p
                    .as_list()
                    .filter(|l| l.len() == 3)
                    .map(|l| [&l[0], &l[1], &l[2]])
                {
                    if colon.as_symbol() != Some(":") {
                        return err(p.span(), "parameter must be x or [x : T]");
                    }
                    let Some(name) = x.as_symbol() else {
                        return err(x.span(), "parameter name must be a symbol");
                    };
                    params.push((Symbol::intern(name), elab.ty(t)?));
                } else {
                    return err(p.span(), "parameter must be x or [x : T]");
                }
            }
            let body = begin_form(elab.exprs(&items[2..])?);
            match signatures.remove(&fsym) {
                Some((sig, sig_node)) => Ok(ModuleItem::DefineRec {
                    name: fsym,
                    sig,
                    lam: Arc::new(Lambda { params, body }),
                    node,
                    sig_node: Some(sig_node),
                }),
                None => {
                    // No signature: all parameters need annotations;
                    // bind non-recursively with a synthesized function
                    // type.
                    Ok(ModuleItem::Define {
                        name: fsym,
                        sig: None,
                        rhs: Expr::lam(params, body),
                        node,
                        sig_node: None,
                    })
                }
            }
        }
        // (define x e) / (define x : T e) / with a prior signature.
        Some(Sexp::Symbol(name, _)) => {
            let xsym = Symbol::intern(name);
            match &items[2..] {
                [e] => {
                    let e = elab.expr(e)?;
                    match signatures.remove(&xsym) {
                        // `define` of a lambda with a prior
                        // polymorphic/functional signature: still use
                        // letrec for recursion.
                        Some((sig, sig_node)) => {
                            if let Expr::Lam(lam) = e.peel_spans() {
                                return Ok(ModuleItem::DefineRec {
                                    name: xsym,
                                    sig,
                                    lam: lam.clone(),
                                    node,
                                    sig_node: Some(sig_node),
                                });
                            }
                            Ok(ModuleItem::Define {
                                name: xsym,
                                sig: Some(sig.clone()),
                                rhs: Expr::ann(e, sig),
                                node,
                                sig_node: Some(sig_node),
                            })
                        }
                        None => Ok(ModuleItem::Define {
                            name: xsym,
                            sig: None,
                            rhs: e,
                            node,
                            sig_node: None,
                        }),
                    }
                }
                [colon, t, e] if colon.as_symbol() == Some(":") => {
                    let ty = elab.ty(t)?;
                    Ok(ModuleItem::Define {
                        name: xsym,
                        sig: Some(ty.clone()),
                        rhs: Expr::ann(elab.expr(e)?, ty),
                        node,
                        sig_node: None,
                    })
                }
                _ => err(form.span(), "(define x e)"),
            }
        }
        _ => err(form.span(), "malformed define"),
    }
}

/// Elaborates a whole module into a single core expression (the nested
/// `letrec`/`let` encoding). Fail-fast: the first syntax error wins.
#[allow(clippy::result_large_err)] // cold entry points; Diagnostic stays unboxed in the public shape
pub fn elaborate_module(src: &str) -> Result<Expr, LangError> {
    let m = elaborate_module_items(src)?;
    if let Some(e) = m.syntax_errors.first() {
        return Err(LangError::Syntax(e.clone()));
    }
    Ok(m.into_program())
}

/// Parses, elaborates and type checks a module; returns its type-result
/// (the module's value lifted over its definitions).
///
/// Only the *first* error surfaces, as a [`LangError`]: the first
/// syntax error, else the module driver's first error-severity
/// diagnostic. [`check_module_source`] (or the facade's `Session`)
/// reports every diagnostic.
#[allow(clippy::result_large_err)] // cold entry points; Diagnostic stays unboxed in the public shape
pub fn check_source(src: &str, checker: &Checker) -> Result<TyResult, LangError> {
    check_items(src, checker).map(|(_, value)| value)
}

/// [`check_source`]'s check, also returning the elaborated items.
#[allow(clippy::result_large_err)]
fn check_items(src: &str, checker: &Checker) -> Result<(Vec<ModuleItem>, TyResult), LangError> {
    let m = elaborate_module_items(src)?;
    if let Some(e) = m.syntax_errors.first() {
        return Err(LangError::Syntax(e.clone()));
    }
    let mc = checker.check_module(&m.items);
    if let Some(d) = mc.diagnostics.into_iter().find(|d| d.is_error()) {
        let mut d = Arc::unwrap_or_clone(d);
        d.resolve_spans(&m.spans);
        return Err(LangError::Type(d));
    }
    let value = mc.value.expect("a clean module check has a value").lift();
    Ok((m.items, value))
}

/// Everything learned from checking one module's source: located
/// diagnostics (reader, syntax, warnings and type errors — *all* of
/// them, thanks to the recovering checker), per-item outcomes and the
/// module's value.
#[derive(Clone, Debug, Default)]
pub struct ModuleReport {
    /// All diagnostics in source-processing order, spans resolved.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-item outcomes (definitions first, then trailing expressions).
    pub results: Vec<ItemSummary>,
    /// The module's value before its exit lift, when the final trailing
    /// expression checked; [`ModuleValue::lift`] closes it.
    pub value: Option<ModuleValue>,
}

impl ModuleReport {
    /// No error-severity diagnostics (warnings allowed).
    pub fn is_clean(&self) -> bool {
        !self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }
}

/// Checks a module diagnostics-first: parses, elaborates (recovering
/// per form) and checks every item (recovering per definition), so the
/// report carries **all** of the module's diagnostics with resolved
/// spans. Never fails — a module that cannot even be read produces a
/// report with one `E0101` diagnostic.
pub fn check_module_source(src: &str, checker: &Checker) -> ModuleReport {
    check_module_source_traced(src, checker).0
}

/// [`check_module_source`], also returning the check's work counters
/// (all zero when the module cannot be read).
pub fn check_module_source_traced(src: &str, checker: &Checker) -> (ModuleReport, TraceCounts) {
    let m = match elaborate_module_items(src) {
        Err(e) => {
            let report = ModuleReport {
                diagnostics: vec![LangError::Read(e).to_diagnostic()],
                results: Vec::new(),
                value: None,
            };
            return (report, TraceCounts::default());
        }
        Ok(m) => m,
    };
    let mut diagnostics: Vec<Diagnostic> = m
        .syntax_errors
        .iter()
        .map(ElabError::to_diagnostic)
        .collect();
    diagnostics.extend(m.warnings.iter().cloned());
    let (mc, trace) = checker.check_module_traced(&m.items);
    diagnostics.extend(mc.diagnostics.into_iter().map(Arc::unwrap_or_clone));
    for d in &mut diagnostics {
        d.resolve_spans(&m.spans);
    }
    let mut results = mc.results;
    stamp_item_spans(&mut results, &m.items, &m.spans);
    let report = ModuleReport {
        diagnostics,
        results,
        value: mc.value,
    };
    (report, trace)
}

/// Stamps each [`ItemSummary`] with its item's surface extent from the
/// *current* parse. Summaries arrive from the core checker span-less
/// (and, on the incremental path, spliced summaries carry whatever the
/// previous run recorded), so positions are always re-derived here,
/// after the check. Results are ordered definitions first then trailing
/// expressions; `items` is in source order, so the zip re-applies the
/// same partition.
fn stamp_item_spans(results: &mut [ItemSummary], items: &[ModuleItem], spans: &SpanTable) {
    let node_of = |item: &ModuleItem| match item {
        ModuleItem::DefineRec { node, .. }
        | ModuleItem::Define { node, .. }
        | ModuleItem::Expr { node, .. } => *node,
        ModuleItem::Opaque { .. } => None,
    };
    let is_expr = |item: &&ModuleItem| matches!(item, ModuleItem::Expr { .. });
    let ordered = items
        .iter()
        .filter(|i| !is_expr(i))
        .chain(items.iter().filter(is_expr));
    for (summary, item) in results.iter_mut().zip(ordered) {
        summary.span = node_of(item).map(|n| spans.get(n));
    }
}

/// Parses, elaborates, type checks and runs a module.
#[allow(clippy::result_large_err)] // cold entry points; Diagnostic stays unboxed in the public shape
pub fn run_source(src: &str, checker: &Checker, fuel: u64) -> Result<Value, LangError> {
    check_and_run_source(src, checker, fuel).map(|(_, value)| value)
}

/// [`check_source`], then, after a clean check, evaluates the module's
/// nested encoding: its type-result and its value from one check.
#[allow(clippy::result_large_err)]
pub fn check_and_run_source(
    src: &str,
    checker: &Checker,
    fuel: u64,
) -> Result<(TyResult, Value), LangError> {
    let (items, ty) = check_items(src, checker)?;
    Ok((ty, eval_program(&nest_program(items), fuel)?))
}

/// Runs a module without type checking (used to demonstrate dynamic
/// failures the checker would have prevented).
#[allow(clippy::result_large_err)] // cold entry points; Diagnostic stays unboxed in the public shape
pub fn run_source_unchecked(src: &str, fuel: u64) -> Result<Value, LangError> {
    let e = elaborate_module(src)?;
    Ok(eval_program(&e, fuel)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::diag::Code;

    fn checker() -> Checker {
        Checker::default()
    }

    #[test]
    fn fig1_max_source() {
        let src = r#"
            (: max : [x : Int] [y : Int] -> [z : Int #:where (and (>= z x) (>= z y))])
            (define (max x y) (if (> x y) x y))
            (max 3 7)
        "#;
        let r = check_source(src, &checker()).expect("max module must check");
        // The range is dependent: instantiated with the literal arguments.
        assert_eq!(r.ty.to_string(), "{z : Int | ((3 ≤ z) ∧ (7 ≤ z))}");
        let v = run_source(src, &checker(), 10_000).unwrap();
        assert!(matches!(v, Value::Int(7)));
    }

    #[test]
    fn define_without_signature_needs_annotations() {
        let src = "(define (id [x : Int]) x) (id 4)";
        let v = run_source(src, &checker(), 10_000).unwrap();
        assert!(matches!(v, Value::Int(4)));
    }

    #[test]
    fn value_definitions() {
        let src = "(define n 10) (define m : Int (+ n 1)) (+ n m)";
        let v = run_source(src, &checker(), 10_000).unwrap();
        assert!(matches!(v, Value::Int(21)));
    }

    #[test]
    fn empty_module_is_true() {
        let v = run_source("", &checker(), 10).unwrap();
        assert!(matches!(v, Value::Bool(true)));
    }

    #[test]
    fn type_errors_surface() {
        let src = "(define (f [x : Int]) (add1 x)) (f #t)";
        assert!(matches!(
            check_source(src, &checker()),
            Err(LangError::Type(_))
        ));
    }

    #[test]
    fn paper_colon_style_signature() {
        // The exact Fig. 1 header shape: (: max : [x : Int] … -> …).
        let src = r#"
            (: lsb : [n : (U Int (Pairof Int Int))] -> Int)
            (define (lsb n)
              (if (int? n) (if (even? n) 0 1) (fst n)))
            (lsb 6)
        "#;
        let v = run_source(src, &checker(), 10_000).unwrap();
        assert!(matches!(v, Value::Int(0)));
    }

    #[test]
    fn recovery_reports_every_failing_define_with_spans() {
        let src = "\
(: f : [x : Int] -> Int)
(define (f x) #t)
(: g : [x : Int] -> Int)
(define (g x) x)
(: h : [x : Int] -> Int)
(define (h x) (f (g #f)))
";
        let report = check_module_source(src, &checker());
        assert_eq!(report.error_count(), 2, "{:#?}", report.diagnostics);
        let spans: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| d.primary.expect("every diagnostic is located"))
            .collect();
        // First error: the body of f (line 2); second: the argument of g
        // (line 6).
        assert_eq!(spans[0].start.line, 2);
        assert_eq!(spans[1].start.line, 6);
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code == Code::TypeMismatch));
    }

    /// The paper's nested encoding of `src`, checked as one expression:
    /// the oracle the module driver is compared against.
    #[allow(clippy::result_large_err)] // check_program's shape
    fn nested_oracle(src: &str) -> Result<TyResult, Diagnostic> {
        let m = elaborate_module_items(src).expect("reads");
        checker().check_program(&m.program())
    }

    /// `r` as rendered: fresh names numbered by first occurrence.
    fn shown(r: &TyResult) -> String {
        Symbol::renumbered(|| format!("{r:?}"))
    }

    #[test]
    fn recovery_agrees_with_the_fail_fast_shim() {
        for src in [
            "(define (f [x : Int]) (add1 x)) (f 1)",
            "(define (f [x : Int]) (add1 x)) (f #t)",
            "(define n 10) (define m : Int (+ n 1)) (+ n m)",
            "(: f : [x : Int] -> Int) (define (f x) #t)",
            "(+ 1 2) (+ 3 #t) (+ 4 5)",
        ] {
            let strict = nested_oracle(src).is_ok();
            let report = check_module_source(src, &checker());
            assert_eq!(strict, report.is_clean(), "disagreement on {src}");
            assert_eq!(strict, check_source(src, &checker()).is_ok(), "{src}");
        }
    }

    #[test]
    fn syntax_recovery_skips_the_form_and_poisons_the_name() {
        let src = "\
(: f : [x : Int] -> Int)
(define (f x) (if))
(define (g [y : Int]) y)
(g 1)
";
        let report = check_module_source(src, &checker());
        // One syntax error; no unbound-variable cascade for f.
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics[0].code, Code::SyntaxError);
        assert!(report.value.is_some());
    }

    #[test]
    fn failed_signature_poisons_its_define_without_cascading() {
        // The signature fails to elaborate (unknown type Bogus); the
        // matching define must be bound opaquely and not checked, so the
        // only *body* diagnostic is the E0102 itself (no spurious
        // mismatches from checking f at the wrong type).
        let src = "\
(: f : [x : Int] -> Bogus)
(define (f x) (if (= x 0) 0 (f (- x 1))))
(define (g [y : Int]) (add1 y))
(g 2)
";
        let report = check_module_source(src, &checker());
        assert_eq!(report.error_count(), 1, "{:#?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].code, Code::SyntaxError);
        assert!(report.value.is_some(), "g and (g 2) still check");
    }

    #[test]
    fn module_value_is_lifted_out_of_local_scope() {
        // The reported value must not mention module-local bindings —
        // the same lifting substitution the nested encoding applies at
        // every binder exit.
        let src = "(define b #t) (if b 1 2)";
        let report = check_module_source(src, &checker());
        assert!(report.is_clean());
        let value = report.value.expect("value").lift();
        let strict = nested_oracle(src).expect("checks");
        // The two lifts mint the existentialized binder in different
        // scopes, so compare the renderings.
        assert_eq!(
            shown(&value),
            shown(&strict),
            "the driver's value must match the nested encoding's"
        );

        // And a free-variable scan agrees: nothing module-local leaks.
        let mut fv = std::collections::HashSet::new();
        value.then_p.free_vars(&mut fv);
        value.else_p.free_vars(&mut fv);
        let locals: Vec<_> = value.existentials.iter().map(|(x, _)| *x).collect();
        for x in fv {
            assert!(
                locals.contains(&x) || x != Symbol::intern("b"),
                "module-local b leaked into the value"
            );
        }
    }

    #[test]
    fn runtime_errors_map_to_their_own_code() {
        let err = run_source("(add1 1)", &checker(), 1).unwrap_err();
        assert_eq!(err.to_diagnostic().code, Code::RuntimeError);
        assert_eq!(Code::RuntimeError.as_str(), "E0201");
    }

    #[test]
    fn unused_signatures_warn_without_failing() {
        let src = "(: ghost : [x : Int] -> Int) (+ 1 2)";
        let report = check_module_source(src, &checker());
        assert!(report.is_clean());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, Code::UnusedSignature);
        assert!(report.diagnostics[0].primary.is_some());
    }
}
