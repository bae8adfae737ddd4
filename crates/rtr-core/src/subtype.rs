//! Subtyping for objects, types and type-results (Fig. 5).
//!
//! The relation is algorithmic: syntax-directed with a fuel bound (the
//! declarative system's S-Refl/S-Top are bottom cases, unions expand, and
//! refinement subtyping defers to the proof system via S-Refine1/2, making
//! subtyping and logical proving mutually recursive exactly as in the
//! paper).

use crate::check::Checker;
use crate::env::Env;
use crate::intern::TyId;
use crate::syntax::{Obj, Prop, Symbol, Ty, TyResult};

impl Checker {
    /// `Γ ⊢ τ₁ <: τ₂` (Fig. 5), memoized.
    ///
    /// Pairs of environment-free types are memoized, keyed `(τ₁, τ₂)` on
    /// interned ids; entries are fuel-aware per the internal cache
    /// module's rules. Queries whose canonical forms coincide
    /// (e.g. permuted unions) short-circuit to `true` before any fresh
    /// names are generated — fresh-symbol allocation happens only on the
    /// cache-miss path, inside the structural rules.
    pub fn subtype(&self, env: &Env, t1: &Ty, t2: &Ty, fuel: u32) -> bool {
        if !self.config.memoize {
            return self.subtype_structural(env, t1, t2, fuel);
        }
        if fuel == 0 {
            return false;
        }
        if t1 == t2 {
            return true;
        }
        let a = TyId::of(t1);
        let b = TyId::of(t2);
        self.subtype_ids_memo_with(env, a, b, fuel, Some((t1, t2)))
    }

    /// `Γ ⊢ τ₁ <: τ₂` on interned ids — the judgment layer's native
    /// entry point: environment reads hand over ids directly, so the
    /// memo lookup pays no re-interning toll.
    pub fn subtype_ids(&self, env: &Env, a: TyId, b: TyId, fuel: u32) -> bool {
        if !self.config.memoize {
            return self.subtype_structural(env, &a.get(), &b.get(), fuel);
        }
        if fuel == 0 {
            return false;
        }
        self.subtype_ids_memo(env, a, b, fuel)
    }

    /// Mixed entry: interned subject against a goal tree (e.g. a stored
    /// environment type against a proposition's type).
    pub(crate) fn subtype_id_ty(&self, env: &Env, a: TyId, t2: &Ty, fuel: u32) -> bool {
        if !self.config.memoize {
            return self.subtype_structural(env, &a.get(), t2, fuel);
        }
        if fuel == 0 {
            return false;
        }
        self.subtype_ids_memo(env, a, TyId::of(t2), fuel)
    }

    /// Mixed entry: goal tree against an interned supertype (e.g. a
    /// goal against a stored negative fact).
    pub(crate) fn subtype_ty_id(&self, env: &Env, t1: &Ty, b: TyId, fuel: u32) -> bool {
        if !self.config.memoize {
            return self.subtype_structural(env, t1, &b.get(), fuel);
        }
        if fuel == 0 {
            return false;
        }
        self.subtype_ids_memo(env, TyId::of(t1), b, fuel)
    }

    fn subtype_ids_memo(&self, env: &Env, a: TyId, b: TyId, fuel: u32) -> bool {
        self.subtype_ids_memo_with(env, a, b, fuel, None)
    }

    /// The shared memo shell. `trees` carries the caller's raw trees when
    /// it has them, so the structural fallback can run on the originals
    /// instead of re-materializing canonical copies.
    fn subtype_ids_memo_with(
        &self,
        env: &Env,
        a: TyId,
        b: TyId,
        fuel: u32,
        trees: Option<(&Ty, &Ty)>,
    ) -> bool {
        if a == b {
            // Canonically equal (S-Refl modulo normalization).
            return true;
        }
        // Only pairs of env-free types (no refinements/functions anywhere)
        // are memoized: they are compared purely structurally, so one
        // verdict serves every environment. Other pairs consult Γ, which
        // changes at every binder, so a key naming it would rarely repeat.
        // The flag is packed into the id, so this costs two bit tests.
        let memo = a.env_free() && b.env_free();
        if memo {
            let hit = self
                .caches()
                .subtype
                .lookup_at(&(a, b), fuel, &self.trace().subtype);
            if let Some(verdict) = hit {
                return verdict;
            }
        }
        // No cycle guard: λ_RTR types are finite trees, so subtyping has
        // no true cycles — any re-entrant identical query (e.g. a
        // singleton union collapsing to its member's id) arrives with
        // strictly less fuel and terminates structurally. A coinductive
        // assume-true entry here would be unsound: it would "prove"
        // `(U {x:Int|ψ}) <: False` by answering the collapsed member
        // query with the in-flight outer one.
        let verdict = match trees {
            Some((t1, t2)) => self.subtype_structural(env, t1, t2, fuel),
            None => self.subtype_structural(env, &a.get(), &b.get(), fuel),
        };
        // Post-trip verdicts are conservative degradations; keep them
        // out of the budget-agnostic memo (see `crate::budget`).
        if memo && self.may_store() {
            self.caches().subtype.store_at((a, b), fuel, verdict);
        }
        verdict
    }

    /// The structural (uncached) subtype rules; the reference
    /// implementation the memoized entry point delegates to.
    fn subtype_structural(&self, env: &Env, t1: &Ty, t2: &Ty, fuel: u32) -> bool {
        let Some(fuel) = fuel.checked_sub(1) else {
            return false;
        };
        // Resource governance: one step per structural node; "not a
        // subtype" on any trip only rejects more programs.
        if self
            .budget()
            .burn(crate::budget::Judgment::Subtype)
            .is_some()
        {
            return false;
        }
        // S-Refl
        if t1 == t2 {
            return true;
        }
        // ⊥ <: τ (derivable: the empty union)
        if self.is_empty_ty(t1) {
            return true;
        }
        // S-Top
        if matches!(t2, Ty::Top) {
            return true;
        }
        // S-Union1 — every member must fit.
        if let Ty::Union(ts) = t1 {
            return ts.iter().all(|t| self.subtype(env, t, t2, fuel));
        }
        // Refinement on the left: S-Weaken then S-Refine1.
        if let Ty::Refine(r) = t1 {
            if self.subtype(env, &r.base, t2, fuel) {
                return true;
            }
            // Γ, x∈τ, ψ ⊢ x ∈ σ
            let w = Symbol::fresh_from(r.var);
            let mut env2 = env.clone();
            self.bind(&mut env2, w, &r.base, fuel);
            self.assume(&mut env2, &r.prop.subst(r.var, &Obj::var(w)), fuel);
            return self.check_is(&env2, &Obj::var(w), t2, fuel);
        }
        // S-Union2 — any member may fit.
        if let Ty::Union(ss) = t2 {
            return ss.iter().any(|s| self.subtype(env, t1, s, fuel));
        }
        // S-Refine2.
        if let Ty::Refine(r) = t2 {
            if !self.subtype(env, t1, &r.base, fuel) {
                return false;
            }
            let w = Symbol::fresh_from(r.var);
            let mut env2 = env.clone();
            self.bind(&mut env2, w, t1, fuel);
            return self.proves(&env2, &r.prop.subst(r.var, &Obj::var(w)), fuel);
        }
        match (t1, t2) {
            // S-Pair
            (Ty::Pair(a1, b1), Ty::Pair(a2, b2)) => {
                self.subtype(env, a1, a2, fuel) && self.subtype(env, b1, b2, fuel)
            }
            // Vectors are mutable, hence invariant.
            (Ty::Vec(e1), Ty::Vec(e2)) => {
                self.subtype(env, e1, e2, fuel) && self.subtype(env, e2, e1, fuel)
            }
            // S-Fun (n-ary): contravariant domains, covariant dependent
            // range checked under the supertype's domains.
            (Ty::Fun(f1), Ty::Fun(f2)) => {
                if f1.params.len() != f2.params.len() {
                    return false;
                }
                let mut env2 = env.clone();
                // Progressively rename f1's parameters to f2's names so the
                // dependencies line up.
                let mut params1 = f1.params.clone();
                let mut range1 = f1.range.clone();
                for i in 0..params1.len() {
                    let (x2, d2) = &f2.params[i];
                    let (x1, d1) = params1[i].clone();
                    if !self.subtype(&env2, d2, &d1, fuel) {
                        return false;
                    }
                    self.bind(&mut env2, *x2, d2, fuel);
                    if x1 != *x2 {
                        let rep = Obj::var(*x2);
                        for (_, d) in params1.iter_mut().skip(i + 1) {
                            *d = d.subst_obj(x1, &rep);
                        }
                        range1 = range1.subst_obj(x1, &rep);
                    }
                }
                self.subtype_result(&env2, &range1, &f2.range, fuel)
            }
            // Polymorphic types: alpha-compare by renaming binders.
            (Ty::Poly(p1), Ty::Poly(p2)) => {
                if p1.vars.len() != p2.vars.len() {
                    return false;
                }
                let map: std::collections::HashMap<Symbol, Ty> = p1
                    .vars
                    .iter()
                    .zip(&p2.vars)
                    .map(|(a, b)| (*a, Ty::TVar(*b)))
                    .collect();
                self.subtype(env, &p1.body.subst_tvars(&map), &p2.body, fuel)
            }
            _ => false,
        }
    }

    /// `Γ ⊢ R₁ <: R₂` (SR-Result / SR-Exists), with *selfification*: the
    /// subtype's type is strengthened with its symbolic object so results
    /// like `(Int; …; x)` can flow into refinement ranges such as
    /// `{z:Int | z ≥ x}` (this is how `max`'s conditional meets its
    /// declared range).
    pub fn subtype_result(&self, env: &Env, r1: &TyResult, r2: &TyResult, fuel: u32) -> bool {
        let Some(fuel) = fuel.checked_sub(1) else {
            return false;
        };
        if !r2.existentials.is_empty() {
            // Only trivially identical quantified results are comparable;
            // expected ranges written by users are quantifier-free.
            return r1 == r2;
        }
        // SR-Exists: open the left result's binders (snapshotting the
        // environment only when there are binders to open).
        let mut opened;
        let env2: &Env = if r1.existentials.is_empty() {
            env
        } else {
            opened = env.clone();
            for (x, t) in &r1.existentials {
                self.bind(&mut opened, *x, t, fuel);
            }
            &opened
        };
        let o1 = env2.resolve(&r1.obj);
        if o1.is_null() {
            if !self.subtype(env2, &r1.ty, &r2.ty, fuel) {
                return false;
            }
        } else if r1.ty != r2.ty {
            // With a symbolic object in hand, phrase the type check as the
            // membership goal `o₁ ∈ τ₂` under `o₁ ∈ τ₁` — this routes
            // through the full proof system (including disjunction case
            // splits) and subsumes selfification. Identical types skip the
            // whole derivation: `o ∈ τ ⊢ o ∈ τ` is an axiom.
            let mut env3 = env2.clone();
            self.assume(&mut env3, &Prop::is(o1.clone(), r1.ty.clone()), fuel);
            if !self.proves(&env3, &Prop::is(o1.clone(), r2.ty.clone()), fuel) {
                return false;
            }
        }
        if !self.obj_subtype(env2, &o1, &r2.obj) {
            return false;
        }
        // Γ, ψ₁₊ ⊢ ψ₂₊ and Γ, ψ₁₋ ⊢ ψ₂₋. Trivial (`tt`) expected
        // propositions — every plain `of_type` expectation — need no
        // derivation at all: `proves(_, tt)` is true under any
        // environment, so skipping the snapshot+assume preserves verdicts.
        if !matches!(r2.then_p, Prop::TT) {
            let mut env_then = env2.clone();
            self.assume(&mut env_then, &r1.then_p, fuel);
            if !self.proves(&env_then, &r2.then_p, fuel) {
                return false;
            }
        }
        if matches!(r2.else_p, Prop::TT) {
            return true;
        }
        let mut env_else = env2.clone();
        self.assume(&mut env_else, &r1.else_p, fuel);
        self.proves(&env_else, &r2.else_p, fuel)
    }

    /// Object subtyping (SO-rules): the null object is the top object;
    /// otherwise objects must resolve to the same representative
    /// (SO-Equiv via alias resolution) or match pointwise (SO-Pair).
    pub fn obj_subtype(&self, env: &Env, o1: &Obj, o2: &Obj) -> bool {
        if o2.is_null() {
            return true;
        }
        let o1 = env.resolve(o1);
        let o2 = env.resolve(o2);
        fn go(a: &Obj, b: &Obj) -> bool {
            if b.is_null() || a == b {
                return true;
            }
            match (a, b) {
                (Obj::Pair(a1, a2), Obj::Pair(b1, b2)) => go(a1, b1) && go(a2, b2),
                _ => false,
            }
        }
        go(&o1, &o2)
    }

    /// `{ν : τ | ν ≗ o}` — strengthens a type with the identity of its
    /// symbolic object (using the appropriate equality for the object's
    /// theory). Null objects add nothing.
    pub fn selfify(&self, t: &Ty, o: &Obj) -> Ty {
        if o.is_null() || !self.config.theories && !matches!(o, Obj::Path(_) | Obj::Pair(..)) {
            return t.clone();
        }
        let v = Symbol::fresh("self");
        let prop = match o {
            Obj::Lin(_) => Prop::lin(Obj::var(v), crate::syntax::LinCmp::Eq, o.clone()),
            Obj::Bv(_) => Prop::bv(Obj::var(v), crate::syntax::BvCmp::Eq, o.clone()),
            // Aliasing covers the structural theories, including string
            // and regex literals (M-Alias evaluates both sides).
            Obj::Path(_) | Obj::Pair(..) | Obj::Str(_) | Obj::Re(_) => {
                Prop::alias(Obj::var(v), o.clone())
            }
            Obj::Null => Prop::TT,
        };
        Ty::refine(v, t.clone(), prop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::LinCmp;

    fn checker() -> Checker {
        Checker::default()
    }
    fn fuel() -> u32 {
        64
    }

    #[test]
    fn reflexivity_and_top() {
        let c = checker();
        let env = Env::new();
        for t in [
            Ty::Int,
            Ty::bool_ty(),
            Ty::pair(Ty::Int, Ty::Top),
            Ty::vec(Ty::Int),
        ] {
            assert!(c.subtype(&env, &t, &t, fuel()), "{t} <: {t}");
            assert!(c.subtype(&env, &t, &Ty::Top, fuel()), "{t} <: ⊤");
        }
        assert!(c.subtype(&env, &Ty::bot(), &Ty::Int, fuel()));
    }

    #[test]
    fn union_rules() {
        let c = checker();
        let env = Env::new();
        // S-Union2: True <: Bool.
        assert!(c.subtype(&env, &Ty::True, &Ty::bool_ty(), fuel()));
        // S-Union1: (U Int True) <: (U Int Bool).
        let t1 = Ty::union_of(vec![Ty::Int, Ty::True]);
        let t2 = Ty::union_of(vec![Ty::Int, Ty::bool_ty()]);
        assert!(c.subtype(&env, &t1, &t2, fuel()));
        assert!(!c.subtype(&env, &t2, &t1, fuel()));
    }

    #[test]
    fn pair_covariance_vector_invariance() {
        let c = checker();
        let env = Env::new();
        assert!(c.subtype(
            &env,
            &Ty::pair(Ty::True, Ty::Int),
            &Ty::pair(Ty::bool_ty(), Ty::Top),
            fuel()
        ));
        assert!(!c.subtype(&env, &Ty::vec(Ty::True), &Ty::vec(Ty::bool_ty()), fuel()));
        assert!(c.subtype(&env, &Ty::vec(Ty::Int), &Ty::vec(Ty::Int), fuel()));
    }

    #[test]
    fn refinement_weakening() {
        // {x:Int | x ≤ 5} <: Int  (S-Weaken)
        let c = checker();
        let env = Env::new();
        let x = Symbol::intern("sx");
        let t = Ty::refine(x, Ty::Int, Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(5)));
        assert!(c.subtype(&env, &t, &Ty::Int, fuel()));
        // Int <: {x:Int | x ≤ 5} must fail.
        assert!(!c.subtype(&env, &Ty::Int, &t, fuel()));
    }

    #[test]
    fn refinement_implication() {
        // {x:Int | x ≤ 3} <: {y:Int | y ≤ 5}
        let c = checker();
        let env = Env::new();
        let x = Symbol::intern("rx");
        let y = Symbol::intern("ry");
        let t1 = Ty::refine(x, Ty::Int, Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(3)));
        let t2 = Ty::refine(y, Ty::Int, Prop::lin(Obj::var(y), LinCmp::Le, Obj::int(5)));
        assert!(c.subtype(&env, &t1, &t2, fuel()));
        assert!(!c.subtype(&env, &t2, &t1, fuel()));
    }

    #[test]
    fn a_warm_checker_answers_each_environment_for_itself() {
        // {z:Int | z ≤ x} <: {w:Int | w ≤ y} holds exactly when Γ knows
        // x ≤ y. Asked on one warm checker under Γ and Γ + (x ≤ y), in
        // both orders, each environment gets its own verdict.
        let c = checker();
        let x = Symbol::intern("wx");
        let y = Symbol::intern("wy");
        let z = Symbol::intern("wz");
        let w = Symbol::intern("ww");
        let below_x = Ty::refine(z, Ty::Int, Prop::lin(Obj::var(z), LinCmp::Le, Obj::var(x)));
        let below_y = Ty::refine(w, Ty::Int, Prop::lin(Obj::var(w), LinCmp::Le, Obj::var(y)));
        let mut plain = Env::new();
        c.bind(&mut plain, x, &Ty::Int, fuel());
        c.bind(&mut plain, y, &Ty::Int, fuel());
        let mut ordered = plain.clone();
        c.assume(
            &mut ordered,
            &Prop::lin(Obj::var(x), LinCmp::Le, Obj::var(y)),
            fuel(),
        );
        for _ in 0..2 {
            assert!(!c.subtype(&plain, &below_x, &below_y, fuel()));
            assert!(c.subtype(&ordered, &below_x, &below_y, fuel()));
        }
        assert!(!c.subtype(&plain, &below_x, &below_y, fuel()));
    }

    #[test]
    fn function_contra_co() {
        let c = checker();
        let env = Env::new();
        let x = Symbol::intern("fa");
        // (x:⊤ → Int) <: (x:Int → ⊤)
        let f1 = Ty::fun(vec![(x, Ty::Top)], TyResult::of_type(Ty::Int));
        let f2 = Ty::fun(vec![(x, Ty::Int)], TyResult::of_type(Ty::Top));
        assert!(c.subtype(&env, &f1, &f2, fuel()));
        assert!(!c.subtype(&env, &f2, &f1, fuel()));
    }

    #[test]
    fn dependent_range_subtyping() {
        // (x:Int → {z:Int | z = x}) <: (x:Int → {z:Int | z ≤ x})
        let c = checker();
        let env = Env::new();
        let x = Symbol::intern("dx");
        let z = Symbol::intern("dz");
        let exact = Ty::fun(
            vec![(x, Ty::Int)],
            TyResult::of_type(Ty::refine(
                z,
                Ty::Int,
                Prop::lin(Obj::var(z), LinCmp::Eq, Obj::var(x)),
            )),
        );
        let loose = Ty::fun(
            vec![(x, Ty::Int)],
            TyResult::of_type(Ty::refine(
                z,
                Ty::Int,
                Prop::lin(Obj::var(z), LinCmp::Le, Obj::var(x)),
            )),
        );
        assert!(c.subtype(&env, &exact, &loose, fuel()));
        assert!(!c.subtype(&env, &loose, &exact, fuel()));
    }

    #[test]
    fn selfified_results_flow_into_refinements() {
        // Under y < x:  (Int; tt|ff; x) <: ({z:Int | z ≥ y}; tt|tt; ∅)
        let c = checker();
        let mut env = Env::new();
        let x = Symbol::intern("mx");
        let y = Symbol::intern("my");
        let z = Symbol::intern("mz");
        c.bind(&mut env, x, &Ty::Int, fuel());
        c.bind(&mut env, y, &Ty::Int, fuel());
        c.assume(
            &mut env,
            &Prop::lin(Obj::var(y), LinCmp::Lt, Obj::var(x)),
            fuel(),
        );
        let r1 = TyResult::truthy(Ty::Int, Obj::var(x));
        let want = Ty::refine(z, Ty::Int, Prop::lin(Obj::var(z), LinCmp::Le, Obj::var(x)));
        let r2 = TyResult::of_type(want);
        assert!(c.subtype_result(&env, &r1, &r2, fuel()));
        // And the y-bound holds too via transitivity.
        let want_y = Ty::refine(z, Ty::Int, Prop::lin(Obj::var(y), LinCmp::Le, Obj::var(z)));
        assert!(c.subtype_result(&env, &r1, &TyResult::of_type(want_y), fuel()));
    }

    #[test]
    fn object_subtyping() {
        let c = checker();
        let env = Env::new();
        let x = Obj::var(Symbol::intern("ox"));
        assert!(c.obj_subtype(&env, &x, &Obj::Null));
        assert!(c.obj_subtype(&env, &x, &x));
        assert!(!c.obj_subtype(&env, &Obj::Null, &x));
        let p = Obj::pair(x.clone(), Obj::int(1));
        assert!(c.obj_subtype(&env, &p, &Obj::pair(x.clone(), Obj::Null)));
        assert!(!c.obj_subtype(&env, &Obj::pair(x.clone(), Obj::Null), &p));
    }

    #[test]
    fn result_prop_implication() {
        // (Bool; x∈Int | tt; ∅) <: (Bool; tt | tt; ∅) but not conversely
        // with a non-trivial goal.
        let c = checker();
        let mut env = Env::new();
        let x = Symbol::intern("px");
        c.bind(
            &mut env,
            x,
            &Ty::union_of(vec![Ty::Int, Ty::bool_ty()]),
            fuel(),
        );
        let strong = TyResult::new(
            Ty::bool_ty(),
            Prop::is(Obj::var(x), Ty::Int),
            Prop::TT,
            Obj::Null,
        );
        let weak = TyResult::of_type(Ty::bool_ty());
        assert!(c.subtype_result(&env, &strong, &weak, fuel()));
        assert!(!c.subtype_result(&env, &weak, &strong, fuel()));
    }

    #[test]
    fn exists_on_the_left() {
        // ∃g:{g:Int | 0 ≤ g}. (Int; tt|tt; g) <: ({z:Int | 0 ≤ z}; tt|tt; ∅)
        let c = checker();
        let env = Env::new();
        let g = Symbol::intern("exg");
        let z = Symbol::intern("exz");
        let bound = Ty::refine(g, Ty::Int, Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(g)));
        let r1 = TyResult {
            existentials: vec![(g, bound)],
            ty: Ty::Int,
            then_p: Prop::TT,
            else_p: Prop::TT,
            obj: Obj::var(g),
        };
        let goal = Ty::refine(z, Ty::Int, Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(z)));
        assert!(c.subtype_result(&env, &r1, &TyResult::of_type(goal), fuel()));
    }
}
