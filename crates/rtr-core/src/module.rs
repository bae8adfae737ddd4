//! Module-level checking with multi-error recovery.
//!
//! The §5 workflow — classifying *every* check site in a library —
//! needs a check of a whole module that reports **all** of its
//! diagnostics. This module provides the item-structured representation
//! ([`ModuleItem`]) the surface language elaborates into and the
//! recovering entry point ([`Checker::check_module`]): the module driver
//! of [`crate::incremental`] run with no cache. Every check goes through
//! that driver; [`crate::check::Checker::check_program`] is the driver
//! over one trailing-expression item.
//!
//! Recovery works by *poisoning*: when a definition fails to check, its
//! binding is entered into the environment at its **declared** type (the
//! signature if there is one, `Any` otherwise) and checking continues,
//! so one ill-typed `define` yields one diagnostic instead of cascading
//! or aborting the module. A module with N independently ill-typed
//! definitions therefore produces N located diagnostics in one call.
//!
//! For well-typed modules the environments built here are *identical*
//! to the ones the paper's nested `letrec`/`let` encoding produces — both
//! go through the checker's shared `open_let_binding` and `letrec`
//! binding logic — so a module is clean under `check_module` exactly
//! when `check_program` accepts its nested encoding, and the lifted
//! values agree up to fresh names. The nested encoding survives as the
//! evaluator's input and as this test oracle.

use std::sync::Arc;

use crate::check::Checker;
use crate::diag::{Diagnostic, NodeId, Span};
use crate::incremental::Slot;
use crate::syntax::{Expr, Lambda, Obj, Symbol, Ty, TyResult};
use crate::trace::TraceCounts;

/// One top-level form of an elaborated module.
#[derive(Clone, Debug)]
pub enum ModuleItem {
    /// A definition with a signature: elaborates to `letrec`, so the
    /// function may recur.
    DefineRec {
        /// The defined name.
        name: Symbol,
        /// Its declared (signature) type.
        sig: Ty,
        /// The implementation.
        lam: Arc<Lambda>,
        /// The `define` form's span node.
        node: Option<NodeId>,
        /// The `(: name …)` signature form's span node.
        sig_node: Option<NodeId>,
    },
    /// A non-recursive value definition (`(define x e)`, possibly
    /// annotated — the annotation is already applied to `rhs`).
    Define {
        /// The defined name.
        name: Symbol,
        /// The declared type, when annotated (used for poisoning).
        sig: Option<Ty>,
        /// The right-hand side (annotation included).
        rhs: Expr,
        /// The `define` form's span node.
        node: Option<NodeId>,
        /// The annotation's span node, if any.
        sig_node: Option<NodeId>,
    },
    /// A trailing expression; the last one's type-result is the module's
    /// value.
    Expr {
        /// The expression.
        expr: Expr,
        /// Its span node.
        node: Option<NodeId>,
    },
    /// A definition whose body failed to elaborate: its name is bound at
    /// the declared type (or `Any`) and never checked, so later forms
    /// that mention it do not cascade into unbound-variable errors.
    Opaque {
        /// The defined name.
        name: Symbol,
        /// The type it is assumed at.
        ty: Ty,
    },
}

impl ModuleItem {
    /// The expression checked for this item, if any (used for the
    /// mutation pre-pass and the stack-depth probe).
    pub(crate) fn body(&self) -> Option<&Expr> {
        match self {
            ModuleItem::DefineRec { lam, .. } => Some(&lam.body),
            ModuleItem::Define { rhs, .. } => Some(rhs),
            ModuleItem::Expr { expr, .. } => Some(expr),
            ModuleItem::Opaque { .. } => None,
        }
    }

    /// The defined name, for definition items.
    pub fn name(&self) -> Option<Symbol> {
        match self {
            ModuleItem::DefineRec { name, .. }
            | ModuleItem::Define { name, .. }
            | ModuleItem::Opaque { name, .. } => Some(*name),
            ModuleItem::Expr { .. } => None,
        }
    }
}

/// The outcome for one checked item.
#[derive(Clone, Debug)]
pub struct ItemSummary {
    /// The defined name (`None` for trailing expressions).
    pub name: Option<Symbol>,
    /// The type the item was recorded at: the synthesized type for
    /// successful items, the declared type for poisoned ones. Shared
    /// with the item cache, so a spliced summary is a pointer copy.
    pub ty: Option<Arc<Ty>>,
    /// Did this item fail to check, leaving its binding assumed at its
    /// declared type?
    pub poisoned: bool,
    /// The surface extent of the item's form, when the caller knows it.
    ///
    /// The core checker works on elaborated items and leaves this
    /// `None`; the surface layer (`rtr-lang`) stamps it *after* the
    /// check from the current parse — never from a cached summary, whose
    /// recorded positions would be stale after an incremental splice
    /// shifted its form. Hover-style consumers resolve a cursor to the
    /// enclosing item through this field.
    pub span: Option<Span>,
}

/// Everything `check_module` learned about a module.
#[derive(Clone, Debug, Default)]
pub struct ModuleCheck {
    /// All diagnostics, in source order (one per failing item). A
    /// spliced item's are shared with the cache that recorded them.
    pub diagnostics: Vec<Arc<Diagnostic>>,
    /// Per-item outcomes, definitions first then trailing expressions
    /// (the order they are checked in).
    pub results: Vec<ItemSummary>,
    /// The module's value before its exit lift, when the final trailing
    /// expression checked; [`ModuleValue::lift`] closes it.
    pub value: Option<ModuleValue>,
}

/// One binder a module item opened, as the module-exit lift replays it:
/// the bound name, its type, and the object the name lifts to
/// (`Obj::Null` existentializes it).
pub type Binder = (Symbol, Ty, Obj);

/// A module's value before its exit lift: the type-result of the final
/// trailing expression (`#t` for a module without one) and the binders
/// the run opened, outermost first, shared with the run's item cache.
/// The lift is computed only when the value is read.
#[derive(Clone, Debug)]
pub struct ModuleValue {
    pub(crate) result: Arc<TyResult>,
    pub(crate) binders: Arc<[Arc<Binder>]>,
}

impl ModuleValue {
    /// The module's value closed over its definitions: the lifting
    /// substitution `R[x ⟹τ o]` (§3.2) of every binder, as the nested
    /// encoding applies at each binder exit, so the result never
    /// mentions a module-local name. Every call mints fresh names for
    /// the existentialized binders.
    pub fn lift(&self) -> TyResult {
        TyResult::clone(&self.result).lift_subst_all(&self.binders)
    }
}

impl ModuleCheck {
    /// No error-severity diagnostics (warnings allowed).
    pub fn is_clean(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.is_error())
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }
}

impl Checker {
    /// Checks a whole module item by item, recovering from failures.
    ///
    /// Definitions are checked first (in order, each in scope for the
    /// later ones and for itself when recursive), then trailing
    /// expressions — the same scoping the nested `letrec`/`let` encoding
    /// produces. A failing definition is reported and *poisoned* (bound
    /// at its declared type); checking continues, so every independently
    /// ill-typed item contributes its own [`Diagnostic`]. This is
    /// [`Checker::check_module_incremental`]'s driver with no cache.
    ///
    /// Diagnostics carry [`NodeId`]s; callers holding the elaborator's
    /// span table resolve them with
    /// [`Diagnostic::resolve_spans`].
    pub fn check_module(&self, items: &[ModuleItem]) -> ModuleCheck {
        self.check_module_traced(items).0
    }

    /// [`Checker::check_module`], also returning the check's work
    /// counters.
    pub fn check_module_traced(&self, items: &[ModuleItem]) -> (ModuleCheck, TraceCounts) {
        let is_expr = |item: &&ModuleItem| matches!(item, ModuleItem::Expr { .. });
        let slots = items
            .iter()
            .filter(|item| !is_expr(item))
            .chain(items.iter().filter(is_expr))
            .map(Slot::fresh)
            .collect();
        let (mc, _, trace) = self
            .drive(slots, None, false, &mut |_| None)
            .expect("fresh slots are never fetched");
        (mc, trace)
    }

    pub(crate) fn poison(
        &self,
        out: &mut ModuleCheck,
        d: Diagnostic,
        name: Symbol,
        assumed: &Ty,
        sig_node: Option<NodeId>,
    ) {
        let mut d = d.with_note(format!(
            "the definition of {name} is poisoned: later checks assume its declared type {assumed}"
        ));
        if sig_node.is_some() {
            d = d.with_label(sig_node, format!("{name} is declared here"));
        }
        out.diagnostics.push(Arc::new(d));
        out.results.push(ItemSummary {
            span: None,
            name: Some(name),
            ty: Some(Arc::new(assumed.clone())),
            poisoned: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;
    use crate::syntax::Prim;

    fn int_to_int(name: &str) -> (Symbol, Ty) {
        let x = Symbol::intern("x");
        (
            Symbol::intern(name),
            Ty::fun(vec![(x, Ty::Int)], TyResult::of_type(Ty::Int)),
        )
    }

    fn bad_define(name: &str) -> ModuleItem {
        // (: f : Int -> Int) (define (f x) #t) — range mismatch.
        let (sym, sig) = int_to_int(name);
        ModuleItem::DefineRec {
            name: sym,
            sig,
            lam: Arc::new(Lambda {
                params: vec![(Symbol::intern("x"), Ty::Top)],
                body: Expr::Bool(true),
            }),
            node: None,
            sig_node: None,
        }
    }

    fn good_define(name: &str) -> ModuleItem {
        let (sym, sig) = int_to_int(name);
        ModuleItem::DefineRec {
            name: sym,
            sig,
            lam: Arc::new(Lambda {
                params: vec![(Symbol::intern("x"), Ty::Top)],
                body: Expr::prim_app(Prim::Add1, vec![Expr::Var(Symbol::intern("x"))]),
            }),
            node: None,
            sig_node: None,
        }
    }

    #[test]
    fn every_failing_define_reports() {
        let items = vec![
            bad_define("f1"),
            good_define("g"),
            bad_define("f2"),
            bad_define("f3"),
        ];
        let mc = Checker::default().check_module(&items);
        assert_eq!(mc.error_count(), 3, "{:?}", mc.diagnostics);
        assert!(mc.diagnostics.iter().all(|d| d.code == Code::TypeMismatch));
        assert_eq!(mc.results.iter().filter(|r| r.poisoned).count(), 3);
    }

    #[test]
    fn poisoned_bindings_keep_later_items_checkable() {
        // f is ill-typed, but `(f 1)` still checks against f's declared
        // signature.
        let items = vec![
            bad_define("f"),
            ModuleItem::Expr {
                expr: Expr::app(Expr::Var(Symbol::intern("f")), vec![Expr::Int(1)]),
                node: None,
            },
        ];
        let mc = Checker::default().check_module(&items);
        assert_eq!(mc.error_count(), 1);
        let value = mc
            .value
            .expect("trailing expr checks against the poisoned f")
            .lift();
        assert_eq!(value.ty, Ty::Int);
    }

    #[test]
    fn clean_modules_report_nothing_and_a_value() {
        let items = vec![
            good_define("g"),
            ModuleItem::Expr {
                expr: Expr::app(Expr::Var(Symbol::intern("g")), vec![Expr::Int(41)]),
                node: None,
            },
        ];
        let mc = Checker::default().check_module(&items);
        assert!(mc.is_clean());
        assert_eq!(mc.value.expect("value").lift().ty, Ty::Int);
    }

    #[test]
    fn empty_module_value_is_true() {
        let mc = Checker::default().check_module(&[]);
        assert!(mc.is_clean());
        assert_eq!(mc.value.expect("value").lift().ty, Ty::True);
    }
}
