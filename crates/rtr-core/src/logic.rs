//! The proof system (Fig. 6) in algorithmic form.
//!
//! Environments absorb propositions through [`Checker::assume`] (eager
//! conjunction splitting, `update±` on type atoms, alias registration,
//! theory-literal storage, disjunction deferral) and answer goals through
//! [`Checker::proves`] (direct syntax-directed search, L-Bot via
//! inconsistency detection, bounded case-splitting over stored
//! disjunctions, and L-Theory via the solvers in `rtr-solver`).

use rtr_solver::lin::{LinResult, SolverVar};

use crate::check::Checker;
use crate::env::Env;
use crate::intern::{PropId, TyId};
use crate::solver_cache::lin_rows;
use crate::syntax::{
    BvAtomProp, BvCmp, BvObj, LinAtom, LinCmp, Obj, Path, Prop, StrAtomProp, StrObj, Symbol, Ty,
};

impl Checker {
    /// Binds a fresh variable at type `t`: records the (refinement-
    /// unfolded) type and exports any refinement propositions.
    pub fn bind(&self, env: &mut Env, x: Symbol, t: &Ty, fuel: u32) {
        if env.is_bound(x) {
            // Shadowing: the inner binder is a *new* variable; facts about
            // the outer one must not refine it.
            env.unbind(x);
        }
        if env.is_mutable(x) {
            // §4.2: record the initial type, learn nothing else.
            env.set_ty(x, t.clone());
            return;
        }
        if !self.config.hybrid_env {
            // The pure-proposition ablation still has Γ's `x : τ` part —
            // only atoms *learned from tests* are deferred. Unfold
            // refinements so their propositions reach the theory stores,
            // exactly as the hybrid path does.
            let mut base = t.clone();
            loop {
                match base {
                    Ty::Refine(r) => {
                        self.assume(env, &r.prop.subst(r.var, &Obj::var(x)), fuel);
                        base = r.base;
                    }
                    other => {
                        env.set_ty(x, other);
                        break;
                    }
                }
            }
            return;
        }
        self.assume_is(env, &Obj::var(x), t, fuel);
    }

    /// Extends the environment with proposition `p` (the Γ,ψ of the
    /// typing rules).
    pub fn assume(&self, env: &mut Env, p: &Prop, fuel: u32) {
        let Some(fuel) = fuel.checked_sub(1) else {
            return;
        };
        // A tripped budget stops absorbing facts: a weaker environment
        // only makes goals harder to prove (conservative), and the item
        // driver reports the trip as E0202 anyway.
        if self.budget().tripped().is_some() {
            return;
        }
        if env.is_absurd() {
            return;
        }
        match p {
            Prop::TT => {}
            Prop::FF => env.mark_absurd(),
            Prop::And(a, b) => {
                self.assume(env, a, fuel);
                self.assume(env, b, fuel);
            }
            // Disjunctions are deferred interned: `add_disj` takes ids by
            // value, so no proposition tree is cloned here.
            Prop::Or(a, b) => env.add_disj(PropId::of(a), PropId::of(b)),
            Prop::Is(o, t) => {
                let o = env.resolve(o);
                self.assume_is(env, &o, t, fuel);
            }
            Prop::IsNot(o, t) => {
                let o = env.resolve(o);
                self.assume_not(env, &o, t, fuel);
            }
            Prop::Alias(o1, o2) => {
                let o1 = env.resolve(o1);
                let o2 = env.resolve(o2);
                self.assume_alias(env, &o1, &o2, fuel);
            }
            Prop::Lin(a) => {
                if self.config.theories {
                    let a = self.resolve_lin(env, a);
                    env.add_lin_fact(a);
                }
            }
            Prop::Bv(a) => {
                if self.config.theories {
                    let a = self.resolve_bv(env, a);
                    env.add_bv_fact(a);
                }
            }
            Prop::Str(a) => {
                if self.config.theories {
                    let a = self.resolve_str(env, a);
                    env.add_str_fact(a);
                }
            }
        }
    }

    fn assume_is(&self, env: &mut Env, o: &Obj, t: &Ty, fuel: u32) {
        let Some(fuel) = fuel.checked_sub(1) else {
            return;
        };
        match o {
            Obj::Null => {}
            // L-RefI direction: o ∈ {x:τ|ψ} ⇔ o ∈ τ ∧ ψ[x↦o].
            _ if matches!(t, Ty::Refine(_)) => {
                let Ty::Refine(r) = t else { unreachable!() };
                self.assume(env, &r.prop.subst(r.var, o), fuel);
                self.assume_is(env, o, &r.base, fuel);
            }
            // L-TypeFork: ⟨o₁,o₂⟩ ∈ τ₁×τ₂ ⇒ o₁∈τ₁ ∧ o₂∈τ₂.
            Obj::Pair(a, b) => match t {
                Ty::Pair(t1, t2) => {
                    self.assume_is(env, a, t1, fuel);
                    self.assume_is(env, b, t2, fuel);
                }
                Ty::Top => {}
                Ty::Union(_) => {
                    // A pair object in a union: keep only the pair members.
                    if !self.overlap(t, &Ty::pair(Ty::Top, Ty::Top)) {
                        env.mark_absurd();
                    }
                }
                _ => {
                    if !self.overlap(t, &Ty::pair(Ty::Top, Ty::Top)) {
                        env.mark_absurd();
                    }
                }
            },
            // Integer-valued objects must remain integer-typed.
            Obj::Lin(_) => {
                if !self.overlap(t, &Ty::Int) {
                    env.mark_absurd();
                }
            }
            Obj::Bv(_) => {
                if !self.overlap(t, &Ty::BitVec) {
                    env.mark_absurd();
                }
            }
            Obj::Str(_) => {
                if !self.overlap(t, &Ty::Str) {
                    env.mark_absurd();
                }
            }
            Obj::Re(_) => {
                if !self.overlap(t, &Ty::Regex) {
                    env.mark_absurd();
                }
            }
            // L-Update⁺ on the stored positive type. Id-native: the
            // stored type is read, updated and written back as an
            // interned id; no tree is rebuilt on the memoized path.
            Obj::Path(p) => {
                let t_id = TyId::of(t);
                if !self.config.hybrid_env {
                    // §4.1 ablation (pure-proposition environment): record
                    // the atom; `ty_of_path` replays it at every query.
                    env.add_pending(*p, t_id, true);
                    return;
                }
                let current = env.raw_ty_id(p.base).unwrap_or_else(TyId::top);
                let updated = self.update_ty_id(env, current, p.fields(), t_id, true, fuel);
                if self.is_empty_id(updated) {
                    env.mark_absurd();
                }
                env.set_ty_id(p.base, updated);
            }
        }
    }

    /// `assume_is` for a type already in the interner. Path objects take
    /// the `update⁺` write directly in id space (no tree re-interning);
    /// everything else — refinement unfolding, pair forking, literal
    /// objects — falls back to the tree walk.
    fn assume_is_id(&self, env: &mut Env, o: &Obj, t: TyId, fuel: u32) {
        if let (Obj::Path(p), Some(inner_fuel)) = (o, fuel.checked_sub(1)) {
            if self.config.hybrid_env && !matches!(&*t.get(), Ty::Refine(_)) {
                let current = env.raw_ty_id(p.base).unwrap_or_else(TyId::top);
                let updated = self.update_ty_id(env, current, p.fields(), t, true, inner_fuel);
                if self.is_empty_id(updated) {
                    env.mark_absurd();
                }
                env.set_ty_id(p.base, updated);
                return;
            }
        }
        self.assume_is(env, o, &t.get(), fuel);
    }

    fn assume_not(&self, env: &mut Env, o: &Obj, t: &Ty, fuel: u32) {
        let Some(fuel) = fuel.checked_sub(1) else {
            return;
        };
        match o {
            Obj::Null => {}
            // o ∉ {x:τ|ψ} ⇔ o ∉ τ ∨ ¬ψ[x↦o]  (M-RefineNot1/2).
            _ if matches!(t, Ty::Refine(_)) => {
                let Ty::Refine(r) = t else { unreachable!() };
                let inner = r.prop.subst(r.var, o);
                // Unnegatable refinements are dropped (conservative).
                if let Some(neg) = inner.negate() {
                    self.assume(
                        env,
                        &Prop::or(Prop::is_not(o.clone(), r.base.clone()), neg),
                        fuel,
                    );
                }
            }
            Obj::Pair(a, b) => {
                if let Ty::Pair(t1, t2) = t {
                    // ⟨a,b⟩ ∉ τ₁×τ₂ ⇒ a∉τ₁ ∨ b∉τ₂.
                    self.assume(
                        env,
                        &Prop::or(
                            Prop::is_not((**a).clone(), (**t1).clone()),
                            Prop::is_not((**b).clone(), (**t2).clone()),
                        ),
                        fuel,
                    );
                } else if self.subtype(env, &Ty::pair(Ty::Top, Ty::Top), t, fuel) {
                    // A pair is always in τ ⊇ ⊤×⊤; contradiction.
                    env.mark_absurd();
                }
            }
            Obj::Lin(_) => {
                if self.subtype(env, &Ty::Int, t, fuel) {
                    env.mark_absurd();
                }
            }
            Obj::Bv(_) => {
                if self.subtype(env, &Ty::BitVec, t, fuel) {
                    env.mark_absurd();
                }
            }
            Obj::Str(_) => {
                if self.subtype(env, &Ty::Str, t, fuel) {
                    env.mark_absurd();
                }
            }
            Obj::Re(_) => {
                if self.subtype(env, &Ty::Regex, t, fuel) {
                    env.mark_absurd();
                }
            }
            Obj::Path(p) => {
                let t_id = TyId::of(t);
                if !self.config.hybrid_env {
                    env.add_pending(*p, t_id, false);
                    env.add_neg(*p, t_id);
                    return;
                }
                let current = env.raw_ty_id(p.base).unwrap_or_else(TyId::top);
                let updated = self.update_ty_id(env, current, p.fields(), t_id, false, fuel);
                if self.is_empty_id(updated) {
                    env.mark_absurd();
                }
                env.set_ty_id(p.base, updated);
                env.add_neg(*p, t_id);
            }
        }
    }

    fn assume_alias(&self, env: &mut Env, o1: &Obj, o2: &Obj, fuel: u32) {
        let Some(fuel) = fuel.checked_sub(1) else {
            return;
        };
        match (o1, o2) {
            // L-ObjFork.
            (Obj::Pair(a, b), Obj::Pair(c, d)) => {
                self.assume_alias(env, a, c, fuel);
                self.assume_alias(env, b, d, fuel);
            }
            (Obj::Path(p), other) | (other, Obj::Path(p)) if p.fields().is_empty() => {
                let x = p.base;
                if other.find_var(&mut |v| v == x).is_some() || env.is_mutable(x) {
                    self.alias_as_theory_eq(env, o1, o2);
                    return;
                }
                if self.config.representative_objects {
                    // §4.1: eagerly substitute a single representative.
                    // Copy what we already know about x onto the
                    // representative before the alias shadows it.
                    if env.raw_ty_id(x).is_some() {
                        let t_id = self.ty_of_path_id(env, &Path::var(x));
                        self.assume_is_id(env, other, t_id, fuel);
                    }
                    env.add_alias(x, other.clone());
                } else {
                    // Ablation mode: keep the alias as theory-level
                    // equalities and a type copy.
                    let t = self.ty_of_obj(env, other);
                    self.assume_is(env, &Obj::var(x), &t, fuel);
                    self.alias_as_theory_eq(env, o1, o2);
                    if let Obj::Path(q) = other {
                        // Propagate length information for vectors.
                        let lx = Obj::var(x).len();
                        let lq = Obj::Path(*q).len();
                        self.assume(env, &Prop::lin(lx, LinCmp::Eq, lq), fuel);
                    }
                }
            }
            _ => self.alias_as_theory_eq(env, o1, o2),
        }
    }

    fn alias_as_theory_eq(&self, env: &mut Env, o1: &Obj, o2: &Obj) {
        if !self.config.theories {
            return;
        }
        if let (Some(l), Some(r)) = (o1.as_lin(), o2.as_lin()) {
            env.add_lin_fact(LinAtom {
                lhs: l,
                cmp: LinCmp::Eq,
                rhs: r,
            });
        }
        if let (Some(l), Some(r)) = (o1.as_bv(), o2.as_bv()) {
            env.add_bv_fact(BvAtomProp {
                lhs: l,
                cmp: BvCmp::Eq,
                rhs: r,
                positive: true,
            });
        }
        // A string path aliased to a literal is a membership in the
        // literal's exact (singleton) language, when it is expressible.
        if let (Some(l), Some(r)) = (o1.as_str_obj(), o2.as_str_obj()) {
            for (path, konst) in [(&l, &r), (&r, &l)] {
                if let (StrObj::Path(_), StrObj::Const(c)) = (path, konst) {
                    if c.is_ascii() {
                        env.add_str_fact(StrAtomProp {
                            lhs: path.clone(),
                            re: std::sync::Arc::new(rtr_solver::re::Regex::lit(c)),
                            positive: true,
                        });
                    }
                }
            }
        }
    }

    fn resolve_lin(&self, env: &Env, a: &LinAtom) -> LinAtom {
        let lhs = env.resolve(&Obj::Lin(a.lhs.clone()));
        let rhs = env.resolve(&Obj::Lin(a.rhs.clone()));
        match (lhs.as_lin(), rhs.as_lin()) {
            (Some(lhs), Some(rhs)) => LinAtom {
                lhs,
                cmp: a.cmp,
                rhs,
            },
            _ => a.clone(),
        }
    }

    fn resolve_bv(&self, env: &Env, a: &BvAtomProp) -> BvAtomProp {
        let lhs = env.resolve(&Obj::Bv(a.lhs.clone()));
        let rhs = env.resolve(&Obj::Bv(a.rhs.clone()));
        match (lhs.as_bv(), rhs.as_bv()) {
            (Some(lhs), Some(rhs)) => BvAtomProp {
                lhs,
                cmp: a.cmp,
                rhs,
                positive: a.positive,
            },
            _ => a.clone(),
        }
    }

    fn resolve_str(&self, env: &Env, a: &StrAtomProp) -> StrAtomProp {
        let lhs = match &a.lhs {
            StrObj::Const(_) => return a.clone(),
            StrObj::Path(p) => env.resolve(&Obj::Path(*p)),
        };
        match lhs.as_str_obj() {
            Some(lhs) => StrAtomProp {
                lhs,
                re: a.re.clone(),
                positive: a.positive,
            },
            None => a.clone(),
        }
    }

    /// `Γ ⊢ ψ` — the proof judgment. It has no memo table of its own: a
    /// key naming Γ almost never repeats (Γ changes at every binder), so
    /// such a table would only pay for interning each goal. The work
    /// below it is memoized where keys do repeat: theory atoms by
    /// canonical fingerprint (the `solver_cache` module), environment-free
    /// subtyping by interned ids.
    pub fn proves(&self, env: &Env, goal: &Prop, fuel: u32) -> bool {
        self.proves_with_splits_from(env, goal, fuel, self.config.case_split_budget, 0)
    }

    /// `proves` with a split *frontier*: stored disjunctions below `from`
    /// have already been taken or tried on this proof path and are not
    /// revisited (branch environments remove taken clauses by
    /// `swap_remove`, so after taking index `i` the still-unconsidered
    /// clauses occupy exactly the slots from `i` on). Threading the
    /// frontier replaces the old full re-scan per ∨-elimination level —
    /// quadratic in the clause count along one proof path — with one
    /// in-order pass over the clause set.
    fn proves_with_splits_from(
        &self,
        env: &Env,
        goal: &Prop,
        fuel: u32,
        splits: u32,
        from: usize,
    ) -> bool {
        // Resource governance: one step per proof-search node; on any
        // trip the judgment answers "not provable", which only rejects
        // more programs (see `crate::budget`).
        if self
            .budget()
            .burn(crate::budget::Judgment::Proves)
            .is_some()
        {
            return false;
        }
        let Some(fuel) = fuel.checked_sub(1) else {
            return false;
        };
        if env.is_absurd() || matches!(goal, Prop::TT) {
            return true; // L-Bot, L-True
        }
        if self.prove_direct(env, goal, fuel, splits, from) {
            return true;
        }
        if self.env_inconsistent(env, fuel) {
            return true; // L-Bot via detected contradiction
        }
        // ∨-elimination over the unconsidered stored disjunctions.
        let n = env.disjs().len();
        if splits == 0 || from >= n {
            return false;
        }
        if self.config.lazy_splits && n - from > 1 {
            // Lazy scheduling, two passes: split goal-relevant clauses
            // (sharing a free variable or a solver theory with the goal)
            // first, deferring the rest. Candidates are tried against the
            // *same* environment in both passes and branch agendas depend
            // only on the clause's position — never on the pass — so the
            // verdict is exactly the eager in-order loop's; only the
            // order in which successful splits are found changes.
            let (goal_vars, goal_mask) = crate::intern::prop_relevance(goal);
            // A clause is relevant if either literal is: one interner
            // lock reads every literal's free variables and theory bits.
            let lits = env.disjs()[from..].iter().flat_map(|&(p, q)| [p, q]);
            let relevant: Vec<bool> = crate::intern::props_relevance(lits)
                .chunks(2)
                .map(|clause| {
                    clause.iter().any(|(vars, mask)| {
                        mask & goal_mask != 0
                            || goal_vars.iter().any(|x| vars.binary_search(x).is_ok())
                    })
                })
                .collect();
            self.trace()
                .splits_deferred
                .add(relevant.iter().filter(|r| !**r).count() as u64);
            for pass in 0..2 {
                for i in from..n {
                    if relevant[i - from] == (pass == 0)
                        && self.try_split(env, goal, fuel, splits, i)
                    {
                        return true;
                    }
                }
            }
        } else {
            for i in from..n {
                if self.try_split(env, goal, fuel, splits, i) {
                    return true;
                }
            }
        }
        false
    }

    /// One ∨-elimination attempt on the stored clause at slot `i`: prove
    /// the goal under each literal in turn. A literal whose assumption
    /// is immediately absurd collapses the clause to a *unit* — the goal
    /// only needs proving under the other side (which the eager search
    /// discovers too, after recursing into the absurd branch).
    fn try_split(&self, env: &Env, goal: &Prop, fuel: u32, splits: u32, i: usize) -> bool {
        let mut left = env.clone();
        let (p, q) = left.take_disj(i);
        let (p, q) = (p.get(), q.get());
        let mut right = left.clone();
        self.trace().splits_taken.bump();
        self.assume(&mut left, &p, fuel);
        if left.is_absurd() {
            self.trace().splits_unit.bump();
        } else if !self.proves_with_splits_from(&left, goal, fuel, splits - 1, i) {
            return false;
        }
        self.assume(&mut right, &q, fuel);
        self.proves_with_splits_from(&right, goal, fuel, splits - 1, i)
    }

    fn prove_direct(&self, env: &Env, goal: &Prop, fuel: u32, splits: u32, from: usize) -> bool {
        match goal {
            Prop::TT => true,
            Prop::FF => false, // inconsistency is handled by the caller
            Prop::And(a, b) => {
                self.proves_with_splits_from(env, a, fuel, splits, from)
                    && self.proves_with_splits_from(env, b, fuel, splits, from)
            }
            Prop::Or(a, b) => {
                self.proves_with_splits_from(env, a, fuel, splits, from)
                    || self.proves_with_splits_from(env, b, fuel, splits, from)
            }
            Prop::Is(o, t) => {
                let o = env.resolve(o);
                self.check_is(env, &o, t, fuel)
            }
            Prop::IsNot(o, t) => {
                let o = env.resolve(o);
                self.check_not(env, &o, t, fuel)
            }
            Prop::Alias(o1, o2) => env.resolve(o1) == env.resolve(o2),
            Prop::Lin(a) => {
                self.config.theories && self.lin_entails(env, &self.resolve_lin(env, a))
            }
            Prop::Bv(a) => self.config.theories && self.bv_entails(env, &self.resolve_bv(env, a)),
            Prop::Str(a) => {
                self.config.theories && self.str_entails(env, &self.resolve_str(env, a))
            }
        }
    }

    /// `Γ ⊢ o ∈ τ` for a resolved object (L-Sub / L-RefI).
    pub(crate) fn check_is(&self, env: &Env, o: &Obj, t: &Ty, fuel: u32) -> bool {
        let Some(fuel) = fuel.checked_sub(1) else {
            return false;
        };
        if self.budget().tripped().is_some() {
            return false;
        }
        // L-RefI: o ∈ {x:τ|ψ} ⇐ o ∈ τ ∧ ψ[x↦o].
        if let Ty::Refine(r) = t {
            return self.check_is(env, o, &r.base, fuel)
                && self.proves(env, &r.prop.subst(r.var, o), fuel);
        }
        // L-Sub via S-Union2, object-aware: membership in any single
        // member suffices, and trying members keeps the object (so
        // refinement members can consult the environment's facts about
        // it). Falls through to structural subtyping when no single
        // member covers the object's whole type.
        if let Ty::Union(ss) = t {
            if ss.iter().any(|s| self.check_is(env, o, s, fuel)) {
                return true;
            }
        }
        match o {
            Obj::Null => matches!(t, Ty::Top),
            Obj::Pair(a, b) => match t {
                Ty::Top => true,
                Ty::Pair(t1, t2) => {
                    self.check_is(env, a, t1, fuel) && self.check_is(env, b, t2, fuel)
                }
                Ty::Union(ss) => ss.iter().any(|s| self.check_is(env, o, s, fuel)),
                _ => false,
            },
            Obj::Lin(_) => self.subtype(env, &Ty::Int, t, fuel),
            Obj::Bv(_) => self.subtype(env, &Ty::BitVec, t, fuel),
            Obj::Str(_) => self.subtype(env, &Ty::Str, t, fuel),
            Obj::Re(_) => self.subtype(env, &Ty::Regex, t, fuel),
            Obj::Path(p) => {
                let known = self.ty_of_path_id(env, p);
                self.subtype_id_ty(env, known, t, fuel)
            }
        }
    }

    /// `Γ ⊢ o ∉ τ` (L-Not via non-overlap, recorded negative facts, and
    /// refinement refutation).
    pub(crate) fn check_not(&self, env: &Env, o: &Obj, t: &Ty, fuel: u32) -> bool {
        let Some(fuel) = fuel.checked_sub(1) else {
            return false;
        };
        if self.budget().tripped().is_some() {
            return false;
        }
        if let Ty::Refine(r) = t {
            if self.check_not(env, o, &r.base, fuel) {
                return true;
            }
            if let Some(neg) = r.prop.subst(r.var, o).negate() {
                if self.proves(env, &neg, fuel) {
                    return true;
                }
            }
            return false;
        }
        if let Ty::Union(ss) = t {
            return ss.iter().all(|s| self.check_not(env, o, s, fuel));
        }
        let known = self.ty_of_obj_id(env, o);
        if !self.overlap(&known.get(), t) {
            return true;
        }
        if let Obj::Path(p) = o {
            if env
                .negs_of(p)
                .iter()
                .any(|nu| self.subtype_ty_id(env, t, *nu, fuel))
            {
                return true;
            }
        }
        false
    }

    /// The most specific type the environment records for an object, as
    /// a tree (AST-facing convenience over [`Checker::ty_of_obj_id`]).
    pub(crate) fn ty_of_obj(&self, env: &Env, o: &Obj) -> Ty {
        (*self.ty_of_obj_id(env, o).get()).clone()
    }

    /// The most specific type the environment records for an object —
    /// id-native: environment reads and pair assembly stay in id space.
    pub(crate) fn ty_of_obj_id(&self, env: &Env, o: &Obj) -> TyId {
        match o {
            Obj::Null => TyId::top(),
            Obj::Path(p) => self.ty_of_path_id(env, p),
            Obj::Pair(a, b) => TyId::pair(self.ty_of_obj_id(env, a), self.ty_of_obj_id(env, b)),
            Obj::Lin(_) => TyId::int(),
            Obj::Bv(_) => TyId::bitvec(),
            Obj::Str(_) => TyId::str_ty(),
            Obj::Re(_) => TyId::regex(),
        }
    }

    /// Looks up a path's type by projecting the base variable's recorded
    /// type through the fields — entirely in id space (the projections
    /// are memoized in the interner). In the pure-proposition-environment
    /// ablation the deferred atoms about the base variable are replayed
    /// through `update±` first — the per-query cost the §4.1 hybrid
    /// design pays once per assumption instead.
    pub(crate) fn ty_of_path_id(&self, env: &Env, p: &Path) -> TyId {
        let mut t = env.raw_ty_id(p.base).unwrap_or_else(TyId::top);
        if !self.config.hybrid_env {
            let fuel = self.config.logic_fuel;
            for (q, s, positive) in env.pending() {
                if q.base == p.base {
                    t = self.update_ty_id(env, t, q.fields(), *s, *positive, fuel);
                }
            }
        }
        for f in p.fields() {
            t = t.project(*f);
        }
        t
    }

    /// Is the environment contradictory (a model-free Γ)? Not memoized:
    /// Γ changes at every binder, so a verdict keyed by it would rarely
    /// be read again; the queries below it are memoized by content.
    pub(crate) fn env_inconsistent(&self, env: &Env, fuel: u32) -> bool {
        if env.is_absurd() {
            return true;
        }
        // Starved answer is "consistent": the caller then checks *more*
        // conditional branches, each under the usual judgments —
        // conservative, never accepting.
        if self.budget().tripped().is_some() {
            return false;
        }
        let Some(fuel) = fuel.checked_sub(1) else {
            return false;
        };
        if env.types().any(|(_, t)| self.is_empty_id(t)) {
            return true;
        }
        if !self.config.hybrid_env {
            // Pure-proposition mode defers updates, so emptiness must be
            // re-derived here by replay.
            let bases: std::collections::HashSet<Symbol> =
                env.pending().iter().map(|(p, _, _)| p.base).collect();
            for b in bases {
                if self.is_empty_id(self.ty_of_path_id(env, &Path::var(b))) {
                    return true;
                }
            }
        }
        // Positive/negative conflicts: x ∈ τ with τ <: ν and x ∉ ν.
        for (p, nus) in env.negs() {
            let known = self.ty_of_path_id(env, p);
            if nus.iter().any(|nu| self.subtype_ids(env, known, *nu, fuel)) {
                return true;
            }
        }
        if self.config.theories && !self.solver_gate() {
            if self.lin_check(env) == LinResult::Unsat {
                return true;
            }
            if !env.bv_facts().is_empty() && self.bv_check(env).is_unsat() {
                return true;
            }
            if !env.str_facts().is_empty() && self.str_unsat(env) {
                return true;
            }
        }
        false
    }

    // --- theory adapters ----------------------------------------------------
    //
    // Each adapter has two paths: the memoizing one in
    // `crate::solver_cache` (fingerprint verdict transfer, the persistent
    // bitvector and regex sessions) and the one-shot reference below it,
    // selected by `config.solver_cache`. The equivalence tests compare the
    // two end to end.

    /// Does the linear theory entail `goal` under the environment's facts?
    fn lin_entails(&self, env: &Env, goal: &LinAtom) -> bool {
        if self.solver_gate() {
            return false;
        }
        if self.config.solver_cache {
            return self.lin_entails_cached(env, goal);
        }
        let rows = lin_rows(env.lin_facts(), Some(&goal.negate()));
        self.fm_solver().check(&rows).is_unsat()
    }

    fn lin_check(&self, env: &Env) -> LinResult {
        if env.lin_facts().is_empty() {
            return LinResult::Sat;
        }
        if self.config.solver_cache {
            return self.lin_check_cached(env);
        }
        self.fm_solver().check(&lin_rows(env.lin_facts(), None))
    }

    /// Does the bitvector theory entail `goal`?
    fn bv_entails(&self, env: &Env, goal: &BvAtomProp) -> bool {
        if self.solver_gate() {
            return false;
        }
        if self.config.solver_cache {
            return self.bv_entails_cached(env, goal);
        }
        let mut tx = BvTranslator::new(self.config.bv_width);
        let mut facts = Vec::new();
        for a in env.bv_facts() {
            if let Some(l) = tx.lit(a) {
                facts.push(l);
            }
        }
        let Some(goal) = tx.lit(goal) else {
            return false;
        };
        let mut solver = rtr_solver::bv::BvSolver::new(self.config.sat);
        solver.set_deadline(self.budget().deadline());
        solver.entails(&facts, &goal)
    }

    fn bv_check(&self, env: &Env) -> rtr_solver::bv::BvResult {
        if self.config.solver_cache {
            return self.bv_check_cached(env);
        }
        let mut tx = BvTranslator::new(self.config.bv_width);
        let mut facts = Vec::new();
        for a in env.bv_facts() {
            if let Some(l) = tx.lit(a) {
                facts.push(l);
            }
        }
        let mut solver = rtr_solver::bv::BvSolver::new(self.config.sat);
        solver.set_deadline(self.budget().deadline());
        solver.check(&facts)
    }

    /// Does the regex theory entail `goal` under the environment's facts?
    ///
    /// Ground atoms (literal string on the left) are decided by running
    /// the matcher; open atoms are delegated to the automata-based solver.
    fn str_entails(&self, env: &Env, goal: &StrAtomProp) -> bool {
        if self.solver_gate() {
            return false;
        }
        if self.config.solver_cache {
            let fp = crate::solver_cache::str_fingerprint(env.str_facts(), Some(goal));
            if let Some(v) = self.caches().re.lookup(&fp, &self.trace().re) {
                return v;
            }
            let v = self.str_entails_session(env, goal);
            if self.may_store() {
                self.caches().re.store(fp, v);
            }
            return v;
        }
        self.str_entails_structural(env, goal)
    }

    fn str_entails_structural(&self, env: &Env, goal: &StrAtomProp) -> bool {
        let mut tx = StrTranslator::default();
        let mut facts = Vec::new();
        for a in env.str_facts() {
            match ground_str_atom(a) {
                // A false ground fact makes Γ inconsistent: entail anything.
                Some(false) => return true,
                Some(true) => {}
                None => facts.push(tx.constraint(a)),
            }
        }
        match ground_str_atom(goal) {
            Some(truth) => truth,
            None => {
                let goal = tx.constraint(goal);
                let mut solver = rtr_solver::re::ReSolver::new(self.config.re);
                solver.set_deadline(self.budget().deadline());
                solver.entails(&facts, &goal)
            }
        }
    }

    /// Is the conjunction of `env`'s regex facts unsatisfiable?
    fn str_unsat(&self, env: &Env) -> bool {
        if self.config.solver_cache {
            let fp = crate::solver_cache::str_fingerprint(env.str_facts(), None);
            if let Some(v) = self.caches().re.lookup(&fp, &self.trace().re) {
                return v;
            }
            let v = self.str_check_session(env).is_unsat();
            if self.may_store() {
                self.caches().re.store(fp, v);
            }
            return v;
        }
        self.str_check(env).is_unsat()
    }

    fn str_check(&self, env: &Env) -> rtr_solver::re::ReResult {
        let mut tx = StrTranslator::default();
        let mut facts = Vec::new();
        for a in env.str_facts() {
            match ground_str_atom(a) {
                Some(false) => return rtr_solver::re::ReResult::Unsat,
                Some(true) => {}
                None => facts.push(tx.constraint(a)),
            }
        }
        let mut solver = rtr_solver::re::ReSolver::new(self.config.re);
        solver.set_deadline(self.budget().deadline());
        solver.check(&facts)
    }
}

/// Evaluates a regex atom whose subject is a literal; `None` if open.
pub(crate) fn ground_str_atom(a: &StrAtomProp) -> Option<bool> {
    match &a.lhs {
        StrObj::Const(s) => Some(a.re.is_match(s) == a.positive),
        StrObj::Path(_) => None,
    }
}

/// Maps paths to solver variables for the regex theory.
#[derive(Default)]
struct StrTranslator {
    vars: std::collections::HashMap<Path, SolverVar>,
}

impl StrTranslator {
    fn var(&mut self, p: &Path) -> SolverVar {
        let next = SolverVar(self.vars.len() as u32);
        *self.vars.entry(*p).or_insert(next)
    }

    fn constraint(&mut self, a: &StrAtomProp) -> rtr_solver::re::ReConstraint {
        let StrObj::Path(p) = &a.lhs else {
            unreachable!("ground atoms are filtered before translation")
        };
        rtr_solver::re::ReConstraint {
            var: self.var(p),
            regex: a.re.clone(),
            positive: a.positive,
        }
    }
}

/// Maps paths to solver variables for the bitvector theory.
struct BvTranslator {
    width: u32,
    vars: std::collections::HashMap<Path, SolverVar>,
}

impl BvTranslator {
    fn new(width: u32) -> BvTranslator {
        BvTranslator {
            width,
            vars: std::collections::HashMap::new(),
        }
    }

    fn var(&mut self, p: &Path) -> SolverVar {
        let next = SolverVar(self.vars.len() as u32);
        *self.vars.entry(*p).or_insert(next)
    }

    fn term(&mut self, o: &BvObj) -> rtr_solver::bv::BvTerm {
        use rtr_solver::bv::BvTerm;
        let w = self.width;
        match o {
            BvObj::Const(v) => BvTerm::constant(*v, w),
            BvObj::Path(p) => BvTerm::var(self.var(p), w),
            BvObj::Not(a) => self.term(a).not(),
            BvObj::And(a, b) => self.term(a).and(self.term(b)),
            BvObj::Or(a, b) => self.term(a).or(self.term(b)),
            BvObj::Xor(a, b) => self.term(a).xor(self.term(b)),
            BvObj::Add(a, b) => self.term(a).add(self.term(b)),
            BvObj::Sub(a, b) => self.term(a).sub(self.term(b)),
            BvObj::Mul(a, b) => self.term(a).mul(self.term(b)),
        }
    }

    fn lit(&mut self, a: &BvAtomProp) -> Option<rtr_solver::bv::BvLit> {
        use rtr_solver::bv::{BvAtom, BvLit};
        let lhs = self.term(&a.lhs);
        let rhs = self.term(&a.rhs);
        let atom = match a.cmp {
            BvCmp::Eq => BvAtom::try_eq(lhs, rhs)?,
            BvCmp::Ule => BvAtom::ule(lhs, rhs),
            BvCmp::Ult => BvAtom::ult(lhs, rhs),
        };
        Some(if a.positive {
            BvLit::positive(atom)
        } else {
            BvLit::negative(atom)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> Checker {
        Checker::default()
    }
    const FUEL: u32 = 64;

    fn sym(s: &str) -> Symbol {
        Symbol::fresh(s)
    }

    #[test]
    fn occurrence_narrowing_then_branch() {
        // Γ = n ∈ (U Int Bool); assume n ∈ Int  ⊢ n ∈ Int, n ∉ Bool.
        let c = checker();
        let mut env = Env::new();
        let n = sym("n");
        c.bind(
            &mut env,
            n,
            &Ty::union_of(vec![Ty::Int, Ty::bool_ty()]),
            FUEL,
        );
        c.assume(&mut env, &Prop::is(Obj::var(n), Ty::Int), FUEL);
        assert!(c.proves(&env, &Prop::is(Obj::var(n), Ty::Int), FUEL));
        assert!(c.proves(&env, &Prop::is_not(Obj::var(n), Ty::bool_ty()), FUEL));
    }

    #[test]
    fn occurrence_narrowing_else_branch() {
        // Assume n ∉ Int: the union collapses to Bool (L-Update⁻).
        let c = checker();
        let mut env = Env::new();
        let n = sym("n");
        c.bind(
            &mut env,
            n,
            &Ty::union_of(vec![Ty::Int, Ty::bool_ty()]),
            FUEL,
        );
        c.assume(&mut env, &Prop::is_not(Obj::var(n), Ty::Int), FUEL);
        assert!(c.proves(&env, &Prop::is(Obj::var(n), Ty::bool_ty()), FUEL));
    }

    #[test]
    fn contradictory_type_facts_prove_anything() {
        // n ∈ Int then n ∉ Int ⇒ Γ ⊢ ff (L-Bot).
        let c = checker();
        let mut env = Env::new();
        let n = sym("n");
        c.bind(&mut env, n, &Ty::Int, FUEL);
        c.assume(&mut env, &Prop::is_not(Obj::var(n), Ty::Int), FUEL);
        assert!(c.proves(&env, &Prop::FF, FUEL));
        assert!(c.proves(&env, &Prop::is(Obj::var(n), Ty::True), FUEL));
    }

    #[test]
    fn pair_field_updates() {
        // p ∈ (U Int Bool)×Int; assume (fst p) ∈ Int ⊢ p ∈ Int×Int.
        let c = checker();
        let mut env = Env::new();
        let p = sym("p");
        c.bind(
            &mut env,
            p,
            &Ty::pair(Ty::union_of(vec![Ty::Int, Ty::bool_ty()]), Ty::Int),
            FUEL,
        );
        c.assume(&mut env, &Prop::is(Obj::var(p).fst(), Ty::Int), FUEL);
        assert!(c.proves(
            &env,
            &Prop::is(Obj::var(p), Ty::pair(Ty::Int, Ty::Int)),
            FUEL
        ));
    }

    #[test]
    fn linear_facts_entail_goals() {
        // 0 ≤ i, i < len v ⊢ i ≤ len v − 1 and i ≠ len v.
        let c = checker();
        let mut env = Env::new();
        let i = sym("i");
        let v = sym("v");
        c.bind(&mut env, i, &Ty::Int, FUEL);
        c.bind(&mut env, v, &Ty::vec(Ty::Int), FUEL);
        c.assume(
            &mut env,
            &Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(i)),
            FUEL,
        );
        c.assume(
            &mut env,
            &Prop::lin(Obj::var(i), LinCmp::Lt, Obj::var(v).len()),
            FUEL,
        );
        let minus1 = Obj::var(v).len().add(&Obj::int(-1));
        assert!(c.proves(&env, &Prop::lin(Obj::var(i), LinCmp::Le, minus1), FUEL));
        assert!(c.proves(
            &env,
            &Prop::lin(Obj::var(i), LinCmp::Ne, Obj::var(v).len()),
            FUEL
        ));
        // But not i ≥ 1.
        assert!(!c.proves(&env, &Prop::lin(Obj::int(1), LinCmp::Le, Obj::var(i)), FUEL));
    }

    #[test]
    fn len_is_nonnegative_by_construction() {
        // With no facts at all, len v ≥ 0 is provable.
        let c = checker();
        let mut env = Env::new();
        let v = sym("v");
        c.bind(&mut env, v, &Ty::vec(Ty::Int), FUEL);
        assert!(c.proves(
            &env,
            &Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(v).len()),
            FUEL
        ));
    }

    #[test]
    fn contradictory_lin_facts_are_absurd() {
        let c = checker();
        let mut env = Env::new();
        let i = sym("i");
        c.bind(&mut env, i, &Ty::Int, FUEL);
        c.assume(
            &mut env,
            &Prop::lin(Obj::var(i), LinCmp::Lt, Obj::int(0)),
            FUEL,
        );
        c.assume(
            &mut env,
            &Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(i)),
            FUEL,
        );
        assert!(c.proves(&env, &Prop::FF, FUEL));
    }

    #[test]
    fn refinement_assumption_unfolds() {
        // x ∈ {v:Int | 0 ≤ v} ⊢ 0 ≤ x  (L-RefE).
        let c = checker();
        let mut env = Env::new();
        let x = sym("x");
        let v = sym("v");
        let nat = Ty::refine(v, Ty::Int, Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(v)));
        c.bind(&mut env, x, &nat, FUEL);
        assert!(c.proves(&env, &Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(x)), FUEL));
        // And the refinement goal itself holds (L-RefI).
        let w = sym("w");
        let nat2 = Ty::refine(w, Ty::Int, Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(w)));
        assert!(c.proves(&env, &Prop::is(Obj::var(x), nat2), FUEL));
    }

    #[test]
    fn aliases_transport_facts() {
        // y ≡ x + 1, 0 ≤ x ⊢ 1 ≤ y (L-Transport through representatives).
        let c = checker();
        let mut env = Env::new();
        let x = sym("x");
        let y = sym("y");
        c.bind(&mut env, x, &Ty::Int, FUEL);
        c.assume(
            &mut env,
            &Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(x)),
            FUEL,
        );
        c.bind(&mut env, y, &Ty::Int, FUEL);
        c.assume(
            &mut env,
            &Prop::alias(Obj::var(y), Obj::var(x).add(&Obj::int(1))),
            FUEL,
        );
        assert!(c.proves(&env, &Prop::lin(Obj::int(1), LinCmp::Le, Obj::var(y)), FUEL));
        assert!(c.proves(
            &env,
            &Prop::alias(Obj::var(y), Obj::var(x).add(&Obj::int(1))),
            FUEL
        ));
    }

    #[test]
    fn disjunction_case_split() {
        // (x ∈ Int ∨ x ∈ Bool) with x ∈ (U Int Bool) ⊢ x ∈ (U Int Bool);
        // more interestingly: (x ≤ 3 ∨ x ≤ 5) ⊢ x ≤ 5.
        let c = checker();
        let mut env = Env::new();
        let x = sym("x");
        c.bind(&mut env, x, &Ty::Int, FUEL);
        c.assume(
            &mut env,
            &Prop::or(
                Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(3)),
                Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(5)),
            ),
            FUEL,
        );
        assert!(c.proves(&env, &Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(5)), FUEL));
        assert!(!c.proves(&env, &Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(3)), FUEL));
    }

    #[test]
    fn negative_refinement_assumption() {
        // x ∈ Int, x ∉ {v:Int | v < 10} ⊢ 10 ≤ x.
        let c = checker();
        let mut env = Env::new();
        let x = sym("x");
        let v = sym("v");
        c.bind(&mut env, x, &Ty::Int, FUEL);
        let t = Ty::refine(v, Ty::Int, Prop::lin(Obj::var(v), LinCmp::Lt, Obj::int(10)));
        c.assume(&mut env, &Prop::is_not(Obj::var(x), t), FUEL);
        assert!(c.proves(
            &env,
            &Prop::lin(Obj::int(10), LinCmp::Le, Obj::var(x)),
            FUEL
        ));
    }

    #[test]
    fn bitvector_entailment() {
        // b ≤bv 0xff ⊢ (b bvand 0x0f) ≤bv 0xff.
        let c = checker();
        let mut env = Env::new();
        let b = sym("b");
        c.bind(&mut env, b, &Ty::BitVec, FUEL);
        c.assume(
            &mut env,
            &Prop::bv(Obj::var(b), BvCmp::Ule, Obj::bv(0xff)),
            FUEL,
        );
        let masked = Obj::var(b).bv_and(&Obj::bv(0x0f));
        assert!(c.proves(&env, &Prop::bv(masked, BvCmp::Ule, Obj::bv(0xff)), FUEL));
    }

    #[test]
    fn lambda_tr_mode_ignores_theories() {
        let c = Checker::with_config(crate::config::CheckerConfig::lambda_tr());
        let mut env = Env::new();
        let i = sym("i");
        c.bind(&mut env, i, &Ty::Int, FUEL);
        c.assume(
            &mut env,
            &Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(i)),
            FUEL,
        );
        assert!(!c.proves(&env, &Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(i)), FUEL));
        // …but occurrence typing still works.
        c.assume(&mut env, &Prop::is(Obj::var(i), Ty::Int), FUEL);
        assert!(c.proves(&env, &Prop::is(Obj::var(i), Ty::Int), FUEL));
    }

    #[test]
    fn pure_proposition_env_answers_the_same_queries() {
        // The §4.1 ablation: with the hybrid environment off, narrowing
        // is replayed at query time — verdicts must not change.
        let cfg = crate::config::CheckerConfig {
            hybrid_env: false,
            ..Default::default()
        };
        let c = Checker::with_config(cfg);
        let mut env = Env::new();
        let n = sym("n");
        c.bind(
            &mut env,
            n,
            &Ty::union_of(vec![Ty::Int, Ty::bool_ty()]),
            FUEL,
        );
        c.assume(&mut env, &Prop::is(Obj::var(n), Ty::Int), FUEL);
        assert!(c.proves(&env, &Prop::is(Obj::var(n), Ty::Int), FUEL));
        assert!(c.proves(&env, &Prop::is_not(Obj::var(n), Ty::bool_ty()), FUEL));
        // Negative narrowing too.
        let mut env2 = Env::new();
        c.bind(
            &mut env2,
            n,
            &Ty::union_of(vec![Ty::Int, Ty::bool_ty()]),
            FUEL,
        );
        c.assume(&mut env2, &Prop::is_not(Obj::var(n), Ty::Int), FUEL);
        assert!(c.proves(&env2, &Prop::is(Obj::var(n), Ty::bool_ty()), FUEL));
        // And contradiction detection still works (via replay).
        c.assume(&mut env2, &Prop::is(Obj::var(n), Ty::Int), FUEL);
        assert!(c.proves(&env2, &Prop::FF, FUEL));
    }

    #[test]
    fn pure_proposition_env_handles_pair_fields() {
        let cfg = crate::config::CheckerConfig {
            hybrid_env: false,
            ..Default::default()
        };
        let c = Checker::with_config(cfg);
        let mut env = Env::new();
        let p = sym("p");
        c.bind(
            &mut env,
            p,
            &Ty::pair(Ty::union_of(vec![Ty::Int, Ty::bool_ty()]), Ty::Int),
            FUEL,
        );
        c.assume(&mut env, &Prop::is(Obj::var(p).fst(), Ty::Int), FUEL);
        assert!(c.proves(
            &env,
            &Prop::is(Obj::var(p), Ty::pair(Ty::Int, Ty::Int)),
            FUEL
        ));
    }

    #[test]
    fn regex_facts_entail_goals() {
        // s ∈ L([0-9]{4}) ⊢ s ∈ L([0-9]+) and s ∉ L([a-z]+).
        let c = checker();
        let mut env = Env::new();
        let s = sym("s");
        c.bind(&mut env, s, &Ty::Str, FUEL);
        let re = |p: &str| {
            Obj::re(std::sync::Arc::new(
                rtr_solver::re::Regex::parse(p).expect("parses"),
            ))
        };
        c.assume(
            &mut env,
            &Prop::re_match(&Obj::var(s), &re("[0-9]{4}")),
            FUEL,
        );
        assert!(c.proves(&env, &Prop::re_match(&Obj::var(s), &re("[0-9]+")), FUEL));
        let in_lower = Prop::re_match(&Obj::var(s), &re("[a-z]+"));
        assert!(c.proves(&env, &in_lower.negate().expect("negatable"), FUEL));
        // But not the too-strong goal s ∈ L([0-9]{2}).
        assert!(!c.proves(&env, &Prop::re_match(&Obj::var(s), &re("[0-9]{2}")), FUEL));
    }

    #[test]
    fn contradictory_regex_facts_are_absurd() {
        let c = checker();
        let mut env = Env::new();
        let s = sym("s");
        c.bind(&mut env, s, &Ty::Str, FUEL);
        let re = |p: &str| {
            Obj::re(std::sync::Arc::new(
                rtr_solver::re::Regex::parse(p).expect("parses"),
            ))
        };
        c.assume(&mut env, &Prop::re_match(&Obj::var(s), &re("a+")), FUEL);
        c.assume(&mut env, &Prop::re_match(&Obj::var(s), &re("b+")), FUEL);
        assert!(c.proves(&env, &Prop::FF, FUEL));
    }

    #[test]
    fn ground_regex_atoms_evaluate() {
        // "2016" ∈ L([0-9]+) is decided without touching the env.
        let c = checker();
        let env = Env::new();
        let re = |p: &str| {
            Obj::re(std::sync::Arc::new(
                rtr_solver::re::Regex::parse(p).expect("parses"),
            ))
        };
        let lit = Obj::str_const("2016");
        assert!(c.proves(&env, &Prop::re_match(&lit, &re("[0-9]+")), FUEL));
        assert!(!c.proves(&env, &Prop::re_match(&lit, &re("[a-z]+")), FUEL));
        // A false ground *fact* makes the environment absurd.
        let mut env = Env::new();
        c.assume(&mut env, &Prop::re_match(&lit, &re("[a-z]+")), FUEL);
        assert!(c.proves(&env, &Prop::FF, FUEL));
    }

    #[test]
    fn string_aliases_reach_the_regex_theory() {
        // (let (s "abc") …): s's object resolves to the literal, so
        // membership goals about s become ground.
        let c = checker();
        let mut env = Env::new();
        let s = sym("s");
        c.bind(&mut env, s, &Ty::Str, FUEL);
        c.assume(
            &mut env,
            &Prop::alias(Obj::var(s), Obj::str_const("abc")),
            FUEL,
        );
        let re = |p: &str| {
            Obj::re(std::sync::Arc::new(
                rtr_solver::re::Regex::parse(p).expect("parses"),
            ))
        };
        assert!(c.proves(&env, &Prop::re_match(&Obj::var(s), &re("[a-c]+")), FUEL));
        assert!(!c.proves(&env, &Prop::re_match(&Obj::var(s), &re("[0-9]+")), FUEL));
    }

    #[test]
    fn string_length_lives_in_the_linear_theory() {
        // (len s) ≥ 0 for a string path, with no facts at all.
        let c = checker();
        let mut env = Env::new();
        let s = sym("s");
        c.bind(&mut env, s, &Ty::Str, FUEL);
        assert!(c.proves(
            &env,
            &Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(s).len()),
            FUEL
        ));
        // And a string literal's length is a known constant.
        assert_eq!(Obj::str_const("abc").len(), Obj::int(3));
    }

    #[test]
    fn lambda_tr_mode_ignores_the_regex_theory() {
        let c = Checker::with_config(crate::config::CheckerConfig::lambda_tr());
        let mut env = Env::new();
        let s = sym("s");
        c.bind(&mut env, s, &Ty::Str, FUEL);
        let re = Obj::re(std::sync::Arc::new(
            rtr_solver::re::Regex::parse(".*").expect("parses"),
        ));
        let p = Prop::re_match(&Obj::var(s), &re);
        c.assume(&mut env, &p, FUEL);
        assert!(!c.proves(&env, &p, FUEL));
    }

    #[test]
    fn mutable_variables_learn_nothing() {
        let c = checker();
        let mut env = Env::new();
        let m = sym("cache-size");
        env.mark_mutable(m);
        c.bind(
            &mut env,
            m,
            &Ty::union_of(vec![Ty::Int, Ty::bool_ty()]),
            FUEL,
        );
        // bind recorded the declared type…
        assert_eq!(
            env.raw_ty(m).as_deref(),
            Some(&Ty::union_of(vec![Ty::Int, Ty::bool_ty()]))
        );
    }
}
