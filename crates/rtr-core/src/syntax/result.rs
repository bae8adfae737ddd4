//! Type-results `(τ; ψ₊|ψ₋; o)` and their existential closure `∃x:τ.R`
//! (Fig. 2).
//!
//! A well-typed expression is assigned a *type-result*: its type, the
//! propositions learned when its value is used as a conditional test
//! (then/else propositions), and the symbolic object its value corresponds
//! to. Existential quantifiers capture dependencies on expressions that
//! have no symbolic object (à la Knowles & Flanagan, §3.1) — the
//! implementation propagates them upward rather than eagerly simplifying
//! (§4.1, "propagating existentials").

use std::borrow::Borrow;
use std::fmt;

use super::obj::Obj;
use super::prop::Prop;
use super::symbol::Symbol;
use super::ty::Ty;

/// A type-result, possibly existentially quantified:
/// `∃ x̄:τ̄. (τ; ψ₊|ψ₋; o)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TyResult {
    /// Existential bindings scoping over the rest of the result.
    pub existentials: Vec<(Symbol, Ty)>,
    /// The expression's type.
    pub ty: Ty,
    /// The "then" proposition: holds when the value is non-`false`.
    pub then_p: Prop,
    /// The "else" proposition: holds when the value is `false`.
    pub else_p: Prop,
    /// The symbolic object of the value.
    pub obj: Obj,
}

impl TyResult {
    /// A full (non-quantified) result.
    pub fn new(ty: Ty, then_p: Prop, else_p: Prop, obj: Obj) -> TyResult {
        TyResult {
            existentials: Vec::new(),
            ty,
            then_p,
            else_p,
            obj,
        }
    }

    /// The conventional result for an expression only known to have type
    /// `ty`: trivial propositions, null object.
    pub fn of_type(ty: Ty) -> TyResult {
        TyResult::new(ty, Prop::TT, Prop::TT, Obj::Null)
    }

    /// The result of a value-producing term that is never `false`
    /// (then-prop `tt`, else-prop `ff`).
    pub fn truthy(ty: Ty, obj: Obj) -> TyResult {
        TyResult::new(ty, Prop::TT, Prop::FF, obj)
    }

    /// A copy with the existential prefix dropped — used when the binders
    /// have already been opened into the environment. Clones only the
    /// body fields (no `existentials` vector round trip).
    pub fn without_existentials(&self) -> TyResult {
        TyResult {
            existentials: Vec::new(),
            ty: self.ty.clone(),
            then_p: self.then_p.clone(),
            else_p: self.else_p.clone(),
            obj: self.obj.clone(),
        }
    }

    /// Prepends existential bindings (innermost last).
    pub fn with_existentials(mut self, mut binds: Vec<(Symbol, Ty)>) -> TyResult {
        binds.extend(self.existentials);
        self.existentials = binds;
        self
    }

    /// The lifting substitution `R[x ⟹τ o]` (§3.2, T-App):
    /// capture-avoiding substitution when `o` is non-null, existential
    /// quantification (with `x` renamed fresh) when it is.
    pub fn lift_subst(self, x: Symbol, arg_ty: &Ty, o: &Obj) -> TyResult {
        if o.is_null() {
            // ∃x:τ.R, renaming x to a fresh name so outer scopes never
            // collide with it. (The quantifier is kept even when x is
            // unused: the binder's *type* may carry facts about other
            // variables that downstream environments unfold.)
            let fresh = Symbol::fresh_from(x);
            let renamed = if self.mentions_var(x) {
                self.subst_obj(x, &Obj::var(fresh))
            } else {
                self
            };
            renamed.with_existentials(vec![(fresh, arg_ty.clone())])
        } else if self.mentions_var(x) {
            self.subst_obj(x, o)
        } else {
            // Substitution would be the identity; skip the deep rebuild.
            self
        }
    }

    /// Folds [`TyResult::lift_subst`] over a whole binder prefix
    /// (outermost binder first), as a module exit does when closing its
    /// trailing value over every definition:
    ///
    /// ```text
    /// binders.iter().rev().fold(self, |v, (x, τ, o)| v.lift_subst(x, τ, o))
    /// ```
    ///
    /// The one-at-a-time fold is quadratic: each `lift_subst` call scans
    /// the existential prefix accumulated by the binders after it, so a
    /// 50-definition module pays ~1250 quantifier-type traversals to
    /// close a value that mentions none of them. This batched form keeps
    /// a running set of the result's free object variables instead —
    /// each binder's mention check is a set lookup, each quantifier type
    /// is walked once when minted — and assembles the final prefix in
    /// one splice. The output is identical, fresh-name minting order
    /// included. The binders are read in place, so a prefix of shared
    /// (`Arc`) binders is never copied.
    pub fn lift_subst_all<B: Borrow<(Symbol, Ty, Obj)>>(self, binders: &[B]) -> TyResult {
        if binders.is_empty() {
            return self;
        }
        // Everything `mentions_var` could see: quantifier types plus the
        // body fields. (Like `mentions_var`, deliberately not subtracting
        // the existential binders themselves — they are fresh names
        // distinct from every other name their scopes mint, so they never
        // collide with a module binder.)
        let mut free: std::collections::HashSet<Symbol> = std::collections::HashSet::new();
        for (_, t) in &self.existentials {
            t.free_obj_vars(&mut free);
        }
        self.ty.free_obj_vars(&mut free);
        self.then_p.free_vars(&mut free);
        self.else_p.free_vars(&mut free);
        self.obj.free_vars(&mut free);

        let mut body = self;
        // Quantifiers are minted innermost binder first (matching the
        // fold) and reversed into source order at the end.
        let mut minted: Vec<(Symbol, Ty)> = Vec::with_capacity(binders.len());
        for (x, ty, o) in binders.iter().rev().map(Borrow::borrow) {
            if o.is_null() {
                let fresh = Symbol::fresh_from(*x);
                if free.contains(x) {
                    let rep = Obj::var(fresh);
                    body = body.subst_obj(*x, &rep);
                    for (_, t) in &mut minted {
                        if t.mentions_obj_var(*x) {
                            *t = t.subst_obj(*x, &rep);
                        }
                    }
                    free.remove(x);
                    free.insert(fresh);
                }
                ty.free_obj_vars(&mut free);
                minted.push((fresh, ty.clone()));
            } else if free.contains(x) {
                body = body.subst_obj(*x, o);
                for (_, t) in &mut minted {
                    if t.mentions_obj_var(*x) {
                        *t = t.subst_obj(*x, o);
                    }
                }
                free.remove(x);
                o.free_vars(&mut free);
            }
        }
        minted.reverse();
        body.with_existentials(minted)
    }

    /// Does `x` occur free anywhere substitution could reach? (A cheap
    /// over-approximation used to skip identity substitutions —
    /// early-exit and allocation-free, since `let` exits call this once
    /// per binder and nearly always get `false` under representative
    /// objects.)
    fn mentions_var(&self, x: Symbol) -> bool {
        self.existentials.iter().any(|(_, t)| t.mentions_obj_var(x))
            || self.ty.mentions_obj_var(x)
            || self.then_p.mentions_var(x)
            || self.else_p.mentions_var(x)
            || self.obj.find_var(&mut |v| v == x).is_some()
    }

    /// Capture-avoiding object substitution through the whole result.
    pub fn subst_obj(&self, x: Symbol, rep: &Obj) -> TyResult {
        for (b, _) in &self.existentials {
            if *b == x {
                // Shadowed: only the binder types to the left of the
                // shadowing binder could mention x, and binder types are
                // closed under our construction discipline; substitute
                // types defensively and stop.
                return TyResult {
                    existentials: self
                        .existentials
                        .iter()
                        .map(|(b, t)| (*b, t.subst_obj(x, rep)))
                        .collect(),
                    ty: self.ty.clone(),
                    then_p: self.then_p.clone(),
                    else_p: self.else_p.clone(),
                    obj: self.obj.clone(),
                };
            }
        }
        TyResult {
            existentials: self
                .existentials
                .iter()
                .map(|(b, t)| (*b, t.subst_obj(x, rep)))
                .collect(),
            ty: self.ty.subst_obj(x, rep),
            then_p: self.then_p.subst(x, rep),
            else_p: self.else_p.subst(x, rep),
            obj: self.obj.subst(x, rep),
        }
    }

    /// Substitutes type variables throughout.
    pub fn subst_tvars(&self, map: &std::collections::HashMap<Symbol, Ty>) -> TyResult {
        TyResult {
            existentials: self
                .existentials
                .iter()
                .map(|(b, t)| (*b, t.subst_tvars(map)))
                .collect(),
            ty: self.ty.subst_tvars(map),
            then_p: self.then_p.subst_tvars(map),
            else_p: self.else_p.subst_tvars(map),
            obj: self.obj.clone(),
        }
    }

    /// Collects free type variables.
    pub fn free_tvars(&self, out: &mut std::collections::HashSet<Symbol>) {
        for (_, t) in &self.existentials {
            t.free_tvars(out);
        }
        self.ty.free_tvars(out);
        self.then_p.free_tvars(out);
        self.else_p.free_tvars(out);
    }
}

impl fmt::Display for TyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (x, t) in &self.existentials {
            write!(f, "∃{x}:{t}. ")?;
        }
        write!(
            f,
            "({} ; {} | {} ; {})",
            self.ty, self.then_p, self.else_p, self.obj
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::prop::LinCmp;

    fn x() -> Symbol {
        Symbol::intern("x")
    }

    #[test]
    fn lift_subst_with_object_substitutes() {
        // (Int; tt|ff; x+1)[x ⟹Int y] = (Int; tt|ff; y+1)
        let y = Symbol::intern("y");
        let r = TyResult::truthy(Ty::Int, Obj::var(x()).add(&Obj::int(1)));
        let got = r.lift_subst(x(), &Ty::Int, &Obj::var(y));
        assert!(got.existentials.is_empty());
        assert_eq!(got.obj, Obj::var(y).add(&Obj::int(1)));
    }

    #[test]
    fn lift_subst_with_null_quantifies() {
        // (Int; tt|ff; x+1)[x ⟹Int ∅] = ∃x′:Int.(Int; tt|ff; x′+1)
        let r = TyResult::truthy(Ty::Int, Obj::var(x()).add(&Obj::int(1)));
        let got = r.lift_subst(x(), &Ty::Int, &Obj::Null);
        assert_eq!(got.existentials.len(), 1);
        let (fresh, t) = &got.existentials[0];
        assert_eq!(*t, Ty::Int);
        assert_ne!(*fresh, x());
        assert_eq!(got.obj, Obj::var(*fresh).add(&Obj::int(1)));
    }

    #[test]
    fn lift_subst_all_matches_the_sequential_fold() {
        // A dependent prefix: w aliased to an object, v quantified but
        // mentioned, u quantified and unused — all three lift paths.
        let (u, v, w) = (
            Symbol::intern("lsa_u"),
            Symbol::intern("lsa_v"),
            Symbol::intern("lsa_w"),
        );
        let value = TyResult::truthy(Ty::Int, Obj::var(v).add(&Obj::var(w)));
        let binders = vec![
            (
                u,
                Ty::fun(vec![(x(), Ty::Int)], TyResult::of_type(Ty::Int)),
                Obj::Null,
            ),
            (v, Ty::Int, Obj::Null),
            (w, Ty::Int, Obj::var(v).add(&Obj::int(2))),
        ];
        // Both run in one scope, so they mint the same names.
        let key = Symbol::scope_key("lift_subst_all test");
        let folded = Symbol::scoped(key, || {
            binders
                .iter()
                .rev()
                .fold(value.clone(), |r, (x, t, o)| r.lift_subst(*x, t, o))
        });
        let batched = Symbol::scoped(key, || value.lift_subst_all(&binders));
        assert_eq!(folded, batched);
        assert_eq!(folded.existentials.len(), batched.existentials.len());
    }

    #[test]
    fn subst_respects_existential_shadowing() {
        let r = TyResult {
            existentials: vec![(x(), Ty::Int)],
            ty: Ty::Int,
            then_p: Prop::lin(Obj::var(x()), LinCmp::Le, Obj::int(3)),
            else_p: Prop::TT,
            obj: Obj::var(x()),
        };
        let got = r.subst_obj(x(), &Obj::int(7));
        // x is bound by the existential: body untouched.
        assert_eq!(got.then_p, r.then_p);
        assert_eq!(got.obj, r.obj);
    }

    #[test]
    fn display() {
        let r = TyResult::truthy(Ty::Int, Obj::int(1));
        assert_eq!(r.to_string(), "(Int ; tt | ff ; 1)");
    }
}
