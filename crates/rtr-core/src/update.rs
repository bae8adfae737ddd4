//! The `update`, `restrict` and `remove` metafunctions (Fig. 7).
//!
//! `update⁺(τ, ϕ⃗, σ)` refines what we know about an object of type `τ`
//! once we learn its field `(ϕ⃗ o)` **is** of type `σ`; `update⁻` once we
//! learn it **is not**. At the empty path, positive knowledge computes a
//! conservative intersection (`restrict`) and negative knowledge a
//! conservative difference (`remove`). Structural fields (`fst`/`snd`)
//! walk into pair types; the vector-length field `len` carries no
//! type-structure information (lengths live in the linear theory).
//!
//! Two implementations coexist:
//!
//! * the original tree-to-tree versions ([`Checker::update_ty`],
//!   [`Checker::restrict`], [`Checker::remove`]) — the reference
//!   semantics, used when memoization is disabled and by the equivalence
//!   property tests;
//! * id-native versions ([`Checker::update_ty_id`] and friends) that walk
//!   interned [`TyId`]s via the interner's id-level constructors and
//!   destructors, memoized on `(generation, τ, path, σ, polarity, fuel)`
//!   — generation 0 when both types are environment-free, so one entry
//!   serves every environment. Repeated `update±` along alias/narrowing
//!   chains previously rebuilt identical trees at every binder; a memo
//!   hit now returns an id without touching a tree at all.

use crate::cache::path_fingerprint;
use crate::check::Checker;
use crate::env::Env;
use crate::intern::TyId;
use crate::syntax::{Field, Ty};

impl Checker {
    /// Id-native `update±(τ, ϕ⃗, σ)` — the judgment layer's entry point.
    /// Falls back to the tree-based reference when memoization is off.
    pub fn update_ty_id(
        &self,
        env: &Env,
        t: TyId,
        fields: &[Field],
        s: TyId,
        positive: bool,
        fuel: u32,
    ) -> TyId {
        if !self.config.memoize {
            return TyId::of(&self.update_ty(env, &t.get(), fields, &s.get(), positive, fuel));
        }
        let Some(next_fuel) = fuel.checked_sub(1) else {
            return t;
        };
        // Resource governance: a tripped budget stops narrowing (the
        // unrefined type is the sound identity degradation, exactly as
        // at fuel 0).
        if self
            .budget()
            .burn(crate::budget::Judgment::Update)
            .is_some()
        {
            return t;
        }
        // Memoize environment-free pairs only: their updates consult
        // nothing but the two types (subtype/overlap on env-free types
        // are generation-0 judgments), so entries transfer across every
        // environment — exactly the repeated narrowing along alias and
        // narrowing chains. Environment-dependent pairs skip the table:
        // a generation-stamped key would be dead weight, since every
        // binder advances the generation.
        let key = (t.env_free() && s.env_free())
            .then(|| path_fingerprint(fields).map(|fp| (t, fp, s, positive, fuel)))
            .flatten();
        if let Some(key) = &key {
            if let Some(hit) = self.caches().update.lookup(key, &self.trace().update) {
                return hit;
            }
        }
        let result = match fields.split_first() {
            None => {
                if positive {
                    self.restrict_id(env, t, s, next_fuel)
                } else {
                    self.remove_id(env, t, s, next_fuel)
                }
            }
            // Lengths are integers; the type structure of the vector is
            // unaffected. (The linear theory tracks the length facts.)
            Some((Field::Len, _)) => t,
            Some((f @ (Field::Fst | Field::Snd), rest)) => {
                if let Some((a, b)) = t.pair_parts() {
                    if *f == Field::Fst {
                        TyId::pair(self.update_ty_id(env, a, rest, s, positive, next_fuel), b)
                    } else {
                        TyId::pair(a, self.update_ty_id(env, b, rest, s, positive, next_fuel))
                    }
                } else if let Some(members) = t.union_members() {
                    let updated: Vec<TyId> = members
                        .into_iter()
                        .map(|m| self.update_ty_id(env, m, fields, s, positive, next_fuel))
                        .collect();
                    TyId::union_of(&updated)
                } else if let Some((var, base, prop)) = t.refine_parts() {
                    TyId::refine(
                        var,
                        self.update_ty_id(env, base, fields, s, positive, next_fuel),
                        prop,
                    )
                } else if t == TyId::top() {
                    // Learning about (fst o) implies o is a pair: refine ⊤
                    // through ⊤×⊤ first.
                    let pairish = TyId::pair(TyId::top(), TyId::top());
                    self.update_ty_id(env, pairish, fields, s, positive, next_fuel)
                } else {
                    // A non-pair cannot have the field at all.
                    TyId::bot()
                }
            }
        };
        if let Some(key) = key {
            // Post-trip results may be fuel-identity degradations; keep
            // them out of the budget-agnostic memo.
            if self.may_store() {
                self.caches().update.store(key, result);
            }
        }
        result
    }

    /// Id-native `restrictΓ(τ, σ)` (Fig. 7).
    pub(crate) fn restrict_id(&self, env: &Env, t: TyId, s: TyId, fuel: u32) -> TyId {
        let Some(next_fuel) = fuel.checked_sub(1) else {
            return t;
        };
        if !self.overlap_ids(t, s) {
            return TyId::bot();
        }
        if let Some(members) = t.union_members() {
            let restricted: Vec<TyId> = members
                .into_iter()
                .map(|m| self.restrict_id(env, m, s, next_fuel))
                .collect();
            return TyId::union_of(&restricted);
        }
        if let Some((var, base, prop)) = t.refine_parts() {
            return TyId::refine(var, self.restrict_id(env, base, s, next_fuel), prop);
        }
        if self.subtype_ids(env, t, s, next_fuel) {
            t
        } else {
            s
        }
    }

    /// Id-native `removeΓ(τ, σ)` (Fig. 7).
    pub(crate) fn remove_id(&self, env: &Env, t: TyId, s: TyId, fuel: u32) -> TyId {
        let Some(next_fuel) = fuel.checked_sub(1) else {
            return t;
        };
        if self.subtype_ids(env, t, s, next_fuel) {
            return TyId::bot();
        }
        if let Some(members) = t.union_members() {
            let removed: Vec<TyId> = members
                .into_iter()
                .map(|m| self.remove_id(env, m, s, next_fuel))
                .collect();
            return TyId::union_of(&removed);
        }
        if let Some((var, base, prop)) = t.refine_parts() {
            return TyId::refine(var, self.remove_id(env, base, s, next_fuel), prop);
        }
        t
    }

    /// May-overlap on ids, memoized (the verdict consults only the two
    /// types, so entries are environment- and fuel-free).
    pub(crate) fn overlap_ids(&self, t: TyId, s: TyId) -> bool {
        if !self.config.memoize {
            return self.overlap(&t.get(), &s.get());
        }
        let key = (t, s);
        if let Some(verdict) = self.caches().overlap.lookup(key, &self.trace().overlap) {
            return verdict;
        }
        let verdict = self.overlap(&t.get(), &s.get());
        if self.may_store() {
            self.caches().overlap.store(key, verdict);
        }
        verdict
    }

    /// Id-keyed emptiness: the single memoized implementation behind
    /// [`Checker::is_empty_ty`] (which delegates here on the memoized
    /// path, so the classification logic lives in one place).
    pub(crate) fn is_empty_id(&self, t: TyId) -> bool {
        if t == TyId::bot() {
            return true;
        }
        let tree = t.get();
        if !self.config.memoize {
            return self.is_empty_structural_shallow(&tree);
        }
        match &*tree {
            Ty::Union(ts) if ts.is_empty() => true,
            Ty::Union(_) | Ty::Pair(_, _) | Ty::Refine(_) => {
                if let Some(verdict) = self.caches().empty.lookup(t, &self.trace().empty) {
                    return verdict;
                }
                let verdict = self.is_empty_structural(&tree);
                if self.may_store() {
                    self.caches().empty.store(t, verdict);
                }
                verdict
            }
            _ => false,
        }
    }

    fn is_empty_structural_shallow(&self, t: &Ty) -> bool {
        match t {
            Ty::Union(ts) if ts.is_empty() => true,
            Ty::Union(_) | Ty::Pair(_, _) | Ty::Refine(_) => self.is_empty_structural(t),
            _ => false,
        }
    }

    /// `update±(τ, ϕ⃗, σ)` — Fig. 7. `fields` is innermost-first, matching
    /// [`crate::syntax::Path`].
    pub fn update_ty(
        &self,
        env: &Env,
        t: &Ty,
        fields: &[Field],
        s: &Ty,
        positive: bool,
        fuel: u32,
    ) -> Ty {
        let Some(next_fuel) = fuel.checked_sub(1) else {
            return t.clone();
        };
        match fields.split_first() {
            None => {
                if positive {
                    self.restrict(env, t, s, next_fuel)
                } else {
                    self.remove(env, t, s, next_fuel)
                }
            }
            Some((Field::Len, rest)) => {
                // Lengths are integers; the type structure of the vector is
                // unaffected. (The linear theory tracks the length facts.)
                let _ = rest;
                t.clone()
            }
            Some((f @ (Field::Fst | Field::Snd), rest)) => match t {
                Ty::Pair(a, b) => {
                    if *f == Field::Fst {
                        Ty::pair(
                            self.update_ty(env, a, rest, s, positive, next_fuel),
                            (**b).clone(),
                        )
                    } else {
                        Ty::pair(
                            (**a).clone(),
                            self.update_ty(env, b, rest, s, positive, next_fuel),
                        )
                    }
                }
                Ty::Union(ts) => Ty::union_of(
                    ts.iter()
                        .map(|t| self.update_ty(env, t, fields, s, positive, next_fuel))
                        .collect(),
                ),
                Ty::Refine(r) => Ty::refine(
                    r.var,
                    self.update_ty(env, &r.base, fields, s, positive, next_fuel),
                    r.prop.clone(),
                ),
                // Learning about (fst o) implies o is a pair: refine ⊤
                // through ⊤×⊤ first.
                Ty::Top => self.update_ty(
                    env,
                    &Ty::pair(Ty::Top, Ty::Top),
                    fields,
                    s,
                    positive,
                    next_fuel,
                ),
                // A non-pair cannot have the field at all.
                _ => Ty::bot(),
            },
        }
    }

    /// `restrictΓ(τ, σ)` — a conservative intersection (Fig. 7).
    pub fn restrict(&self, env: &Env, t: &Ty, s: &Ty, fuel: u32) -> Ty {
        let Some(next_fuel) = fuel.checked_sub(1) else {
            return t.clone();
        };
        if !self.overlap(t, s) {
            return Ty::bot();
        }
        match t {
            Ty::Union(ts) => Ty::union_of(
                ts.iter()
                    .map(|t| self.restrict(env, t, s, next_fuel))
                    .collect(),
            ),
            Ty::Refine(r) => Ty::refine(
                r.var,
                self.restrict(env, &r.base, s, next_fuel),
                r.prop.clone(),
            ),
            _ => {
                if self.subtype(env, t, s, next_fuel) {
                    t.clone()
                } else {
                    s.clone()
                }
            }
        }
    }

    /// `removeΓ(τ, σ)` — a conservative difference (Fig. 7).
    pub fn remove(&self, env: &Env, t: &Ty, s: &Ty, fuel: u32) -> Ty {
        let Some(next_fuel) = fuel.checked_sub(1) else {
            return t.clone();
        };
        if self.subtype(env, t, s, next_fuel) {
            return Ty::bot();
        }
        match t {
            Ty::Union(ts) => Ty::union_of(
                ts.iter()
                    .map(|t| self.remove(env, t, s, next_fuel))
                    .collect(),
            ),
            Ty::Refine(r) => Ty::refine(
                r.var,
                self.remove(env, &r.base, s, next_fuel),
                r.prop.clone(),
            ),
            _ => t.clone(),
        }
    }

    /// May values of `t` and `s` overlap? A conservative (may-)analysis:
    /// `false` is a proof of disjointness, `true` is inconclusive.
    pub fn overlap(&self, t: &Ty, s: &Ty) -> bool {
        use Ty::*;
        match (t, s) {
            (u, _) | (_, u) if u.is_bot() => false,
            (Top, _) | (_, Top) => true,
            (TVar(_), _) | (_, TVar(_)) => true,
            (Poly(_), _) | (_, Poly(_)) => true,
            (Union(ts), s) => ts.iter().any(|t| self.overlap(t, s)),
            (t, Union(ss)) => ss.iter().any(|s| self.overlap(t, s)),
            (Refine(r), s) => self.overlap(&r.base, s),
            (t, Refine(r)) => self.overlap(t, &r.base),
            (Int, Int)
            | (True, True)
            | (False, False)
            | (Unit, Unit)
            | (BitVec, BitVec)
            | (Str, Str)
            | (Regex, Regex) => true,
            (Pair(a1, b1), Pair(a2, b2)) => self.overlap(a1, a2) && self.overlap(b1, b2),
            // The empty vector inhabits every vector type, so vector types
            // always overlap.
            (Vec(_), Vec(_)) => true,
            (Fun(_), Fun(_)) => true,
            _ => false,
        }
    }

    /// Is `t` provably uninhabited (structurally)? Memoized on the
    /// interned type id for the recursive cases (the judgment consults
    /// nothing but the type itself).
    pub fn is_empty_ty(&self, t: &Ty) -> bool {
        match t {
            Ty::Union(ts) if ts.is_empty() => true,
            Ty::Union(_) | Ty::Pair(_, _) | Ty::Refine(_) => {
                if !self.config.memoize {
                    // Structural reference: stay on the raw tree, no
                    // interning.
                    return self.is_empty_structural(t);
                }
                self.is_empty_id(TyId::of(t))
            }
            _ => false,
        }
    }

    fn is_empty_structural(&self, t: &Ty) -> bool {
        match t {
            Ty::Union(ts) => ts.iter().all(|t| self.is_empty_ty(t)),
            Ty::Pair(a, b) => self.is_empty_ty(a) || self.is_empty_ty(b),
            Ty::Refine(r) => self.is_empty_ty(&r.base),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Checker;
    use crate::syntax::{LinCmp, Obj, Prop, Symbol};

    fn checker() -> Checker {
        Checker::default()
    }
    fn env() -> Env {
        Env::new()
    }

    #[test]
    fn restrict_computes_occurrence_narrowing() {
        // The §2 example: (U Int (Listof Bit)) restricted by Int — here
        // (U Int (Int × Int)) restricted by Int = Int.
        let c = checker();
        let t = Ty::union_of(vec![Ty::Int, Ty::pair(Ty::Int, Ty::Int)]);
        assert_eq!(c.restrict(&env(), &t, &Ty::Int, 32), Ty::Int);
    }

    #[test]
    fn remove_computes_else_branch_narrowing() {
        let c = checker();
        let t = Ty::union_of(vec![Ty::Int, Ty::pair(Ty::Int, Ty::Int)]);
        assert_eq!(
            c.remove(&env(), &t, &Ty::Int, 32),
            Ty::pair(Ty::Int, Ty::Int)
        );
        // Removing everything yields ⊥.
        assert!(c.remove(&env(), &Ty::Int, &Ty::Int, 32).is_bot());
    }

    #[test]
    fn restrict_disjoint_is_bottom() {
        let c = checker();
        assert!(c.restrict(&env(), &Ty::Int, &Ty::bool_ty(), 32).is_bot());
    }

    #[test]
    fn restrict_keeps_refinements() {
        // restrict({x:(U Int Bool) | ψ}, Int) = {x:Int | ψ}
        let c = checker();
        let x = Symbol::intern("x");
        let psi = Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(5));
        let t = Ty::refine(x, Ty::union_of(vec![Ty::Int, Ty::bool_ty()]), psi.clone());
        let got = c.restrict(&env(), &t, &Ty::Int, 32);
        assert_eq!(got, Ty::refine(x, Ty::Int, psi));
    }

    #[test]
    fn update_walks_pair_fields() {
        // update+((U Int Bool) × Int, [fst], Int) = Int × Int
        let c = checker();
        let t = Ty::pair(Ty::union_of(vec![Ty::Int, Ty::bool_ty()]), Ty::Int);
        let got = c.update_ty(&env(), &t, &[Field::Fst], &Ty::Int, true, 32);
        assert_eq!(got, Ty::pair(Ty::Int, Ty::Int));
        // update−(Bool × Int, [fst], False) = True × Int
        let t = Ty::pair(Ty::bool_ty(), Ty::Int);
        let got = c.update_ty(&env(), &t, &[Field::Fst], &Ty::False, false, 32);
        assert_eq!(got, Ty::pair(Ty::True, Ty::Int));
    }

    #[test]
    fn update_on_top_assumes_pair_structure() {
        let c = checker();
        let got = c.update_ty(&env(), &Ty::Top, &[Field::Fst], &Ty::Int, true, 32);
        assert_eq!(got, Ty::pair(Ty::Int, Ty::Top));
    }

    #[test]
    fn update_len_leaves_type_alone() {
        let c = checker();
        let t = Ty::vec(Ty::Int);
        assert_eq!(
            c.update_ty(&env(), &t, &[Field::Len], &Ty::Int, true, 32),
            t
        );
    }

    #[test]
    fn update_field_of_non_pair_is_absurd() {
        let c = checker();
        assert!(c
            .update_ty(&env(), &Ty::Int, &[Field::Fst], &Ty::Top, true, 32)
            .is_bot());
    }

    #[test]
    fn overlap_cases() {
        let c = checker();
        assert!(c.overlap(&Ty::Int, &Ty::Int));
        assert!(!c.overlap(&Ty::Int, &Ty::bool_ty()));
        assert!(c.overlap(&Ty::Top, &Ty::Int));
        assert!(!c.overlap(&Ty::bot(), &Ty::Top));
        assert!(c.overlap(&Ty::vec(Ty::Int), &Ty::vec(Ty::bool_ty())));
        assert!(!c.overlap(&Ty::pair(Ty::Int, Ty::Int), &Ty::pair(Ty::Int, Ty::True)));
    }

    #[test]
    fn emptiness() {
        let c = checker();
        assert!(c.is_empty_ty(&Ty::bot()));
        assert!(c.is_empty_ty(&Ty::pair(Ty::bot(), Ty::Int)));
        assert!(c.is_empty_ty(&Ty::Union(vec![Ty::bot(), Ty::pair(Ty::Int, Ty::bot())])));
        assert!(!c.is_empty_ty(&Ty::Int));
        assert!(!c.is_empty_ty(&Ty::vec(Ty::bot()))); // the empty vector
    }
}
