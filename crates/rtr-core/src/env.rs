//! The hybrid type-checking environment (§4.1), id-native.
//!
//! The formal model's environment is a bag of propositions; the paper
//! notes that a real implementation should split it into (a) a standard
//! mapping from objects to known positive/negative type information —
//! iteratively refined with the `update` metafunction — and (b) the set of
//! remaining compound propositions. This module implements that split,
//! together with the *representative objects* optimization: aliases
//! (`x ≡ o`) are applied eagerly, so every stored fact speaks about a
//! canonical representative.
//!
//! Three implementation techniques make environments cheap enough for the
//! judgments' pervasive snapshot-and-extend style:
//!
//! * the `types` and `aliases` maps are **persistent HAMTs**
//!   ([`crate::pmap::PMap`]): cloning an environment is a handful of
//!   reference-count bumps, and — unlike the previous `Arc<HashMap>`
//!   copy-on-write — the first write after a snapshot copies only the
//!   `O(log n)` trie path to the touched key, so deep binder chains no
//!   longer pay a quadratic map-copy toll;
//! * the maps store **interned ids** ([`TyId`]/[`ObjId`]), not trees.
//!   Reads and writes on the judgments' hot paths move ids around;
//!   the tree⇄id boundary sits at the AST-facing edges (synthesis
//!   entry and error rendering). Id storage also makes the no-op-write
//!   check and [`Env::unbind`]'s "does anything mention `x`?" scan a few
//!   integer comparisons against intern-time metadata;
//! * a monotonic, globally unique **generation** stamp: every mutation
//!   assigns a fresh generation, so two environments with equal
//!   generations have identical contents. The checker's memo tables key
//!   judgments on `(generation, ids…)`. Generations stay sound across
//!   HAMT snapshots for the same reason they were sound across map
//!   clones: a snapshot shares its parent's generation exactly until its
//!   first mutation, which stamps a fresh one.
//!
//! Deferred disjunctions are stored as interned [`PropId`]s, so cloning
//! and case-splitting never deep-copies proposition trees.
//!
//! `Env` is pure data; the judgments that manipulate it (assumption,
//! proving, subtyping, update) live on [`crate::check::Checker`].

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::intern::{ObjId, PropId, TyId};
use crate::pmap::PMap;
use crate::syntax::{BvAtomProp, LinAtom, Obj, Path, StrAtomProp, Symbol, Ty};

/// Hands out globally unique environment generations. Generation 0 is
/// reserved for empty environments (all of which are identical).
fn next_generation() -> u64 {
    static GEN: AtomicU64 = AtomicU64::new(1);
    GEN.fetch_add(1, Ordering::Relaxed)
}

/// Hands out globally unique linear-theory-store epochs. Epoch 0 is
/// reserved for the empty store. Separate from the generation counter so
/// solver-state caches keyed by epoch survive non-theory env mutations.
fn next_lin_epoch() -> u64 {
    static EPOCH: AtomicU64 = AtomicU64::new(1);
    EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// A type-checking environment Γ.
#[derive(Clone, Debug, Default)]
pub struct Env {
    /// Eager alias substitutions: `x ↦ o` (representative objects, §4.1),
    /// stored interned in a persistent map.
    aliases: PMap<ObjId>,
    /// Positive type information per variable, refined via `update`;
    /// interned ids in a persistent map.
    types: PMap<TyId>,
    /// Negative type information per path (`o ∉ τ` facts), interned.
    negs: Arc<HashMap<Path, Vec<TyId>>>,
    /// Remaining compound propositions (disjunctions), case-split on
    /// demand at proof time; stored interned.
    disjs: Arc<Vec<(PropId, PropId)>>,
    /// Linear-arithmetic theory literals.
    lin_facts: Arc<Vec<LinAtom>>,
    /// Bitvector theory literals.
    bv_facts: Arc<Vec<BvAtomProp>>,
    /// Regex theory literals.
    str_facts: Arc<Vec<StrAtomProp>>,
    /// Deferred type atoms `(path, τ, positive)` — only populated in the
    /// pure-proposition-environment ablation (`hybrid_env = false`),
    /// where they are replayed through `update±` at query time instead of
    /// refining the stored types eagerly.
    pending: Arc<Vec<(Path, TyId, bool)>>,
    /// Variables the mutation analysis flagged (§4.2); they never get
    /// symbolic objects and runtime tests on them teach the system
    /// nothing.
    mutables: Arc<HashSet<Symbol>>,
    /// Set when `ff` (or a contradiction) has been assumed.
    absurd: bool,
    /// Content stamp: 0 for the empty environment, else globally unique.
    generation: u64,
    /// Content stamp of `lin_facts` alone: 0 when empty, else globally
    /// unique. Unlike `generation` it survives non-theory mutations, so
    /// solver-state caches keyed on it stay warm while the environment
    /// learns type facts.
    lin_epoch: u64,
    /// The `lin_epoch` this store was extended from by appending facts
    /// (`lin_facts[..n]` is exactly the parent's store). `None` after
    /// non-append edits (`unbind`), which force a from-scratch solve.
    lin_parent: Option<u64>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// The environment's content stamp. Two environments with the same
    /// generation hold identical facts; every mutation produces a fresh,
    /// globally unique generation. Memo tables use this as a cache key.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn touch(&mut self) {
        self.generation = next_generation();
    }

    /// Do two environments hold exactly the same facts?
    ///
    /// Compares the *semantic* fields only — the stored types, aliases,
    /// negative facts, theory literals, disjunctions, pending atoms,
    /// mutability set and absurdity flag. The `generation`/`lin_epoch`
    /// identity stamps are deliberately ignored: they key memo tables,
    /// so two value-equal environments with different stamps behave
    /// identically in every judgment (at worst a cache miss recomputes
    /// the same verdict). The incremental module driver uses this as its
    /// splice guard: a cached item verdict may be replayed exactly when
    /// the environment it would be re-checked in holds the same facts as
    /// the one it was recorded under.
    ///
    /// Every `Arc`-shared field gets a pointer-equality fast path, so
    /// comparing an environment against the snapshot it was cloned from
    /// is `O(fields)`.
    pub fn same_contents(&self, other: &Env) -> bool {
        fn arc_eq<T: PartialEq + ?Sized>(a: &Arc<T>, b: &Arc<T>) -> bool {
            Arc::ptr_eq(a, b) || **a == **b
        }
        (self.generation == other.generation)
            || (self.absurd == other.absurd
                && self.types.same_entries(&other.types)
                && self.aliases.same_entries(&other.aliases)
                && arc_eq(&self.negs, &other.negs)
                && arc_eq(&self.disjs, &other.disjs)
                && arc_eq(&self.lin_facts, &other.lin_facts)
                && arc_eq(&self.bv_facts, &other.bv_facts)
                && arc_eq(&self.str_facts, &other.str_facts)
                && arc_eq(&self.pending, &other.pending)
                && arc_eq(&self.mutables, &other.mutables))
    }

    /// Marks `x` as mutable (no symbolic object, §4.2).
    pub fn mark_mutable(&mut self, x: Symbol) {
        self.touch();
        Arc::make_mut(&mut self.mutables).insert(x);
    }

    /// Is `x` mutable?
    pub fn is_mutable(&self, x: Symbol) -> bool {
        self.mutables.contains(&x)
    }

    /// Records that the environment is contradictory.
    pub fn mark_absurd(&mut self) {
        if self.absurd {
            return;
        }
        self.touch();
        self.absurd = true;
    }

    /// Has `ff` been assumed (directly or via a detected contradiction)?
    pub fn is_absurd(&self) -> bool {
        self.absurd
    }

    /// Adds an eager alias `x ↦ o`. The caller must ensure `o` does not
    /// (transitively) mention `x`; aliases are only created for freshly
    /// bound variables, which guarantees acyclicity.
    pub fn add_alias(&mut self, x: Symbol, o: Obj) {
        let id = ObjId::of(&o);
        debug_assert!(!id.mentions_var(x));
        self.touch();
        self.aliases.insert(x, id);
    }

    /// Forgets everything recorded about `x`: its type, aliases from or
    /// through it, negative facts, theory literals and disjunctions that
    /// mention it, and any embedded reference from other bindings' types.
    /// Used when a binder *shadows* an existing variable — the facts about
    /// the outer `x` must not leak onto the inner one. Dropping facts is
    /// always sound (it only weakens the environment).
    ///
    /// The interner's per-id variable-mention metadata makes this cheap:
    /// instead of walking and rewriting every binding's type tree, the
    /// scan is an id-set filter, and in the common case — nothing else
    /// mentions `x` — unbinding is a pure map remove.
    pub fn unbind(&mut self, x: Symbol) {
        use crate::intern::{objs_mentioning, props_mentioning, tys_mentioning};
        self.touch();
        self.types.remove(x);
        // Rewrite only bindings whose type actually mentions `x` (the
        // cached mention set over-approximates, so a miss is a proof of
        // absence and skipping the substitution is exact). Mention checks
        // are batched: one interner lock per store, not one per id —
        // parallel corpus workers would otherwise contend on the global
        // interner mutex for every shadowing binder.
        let entries: Vec<(Symbol, TyId)> = self.types.iter().map(|(y, t)| (y, *t)).collect();
        let flags = tys_mentioning(x, entries.iter().map(|(_, t)| *t));
        for (&(y, t), &dirty) in entries.iter().zip(&flags) {
            if !dirty {
                continue;
            }
            let rewritten = TyId::of(&t.get().subst_obj(x, &Obj::Null));
            self.types.insert(y, rewritten);
        }
        self.aliases.remove(x);
        let aliases: Vec<(Symbol, ObjId)> = self.aliases.iter().map(|(y, o)| (y, *o)).collect();
        let flags = objs_mentioning(x, aliases.iter().map(|(_, o)| *o));
        for (&(y, _), &dirty) in aliases.iter().zip(&flags) {
            if !dirty {
                continue;
            }
            self.aliases.remove(y);
        }
        let neg_ids: Vec<TyId> = self.negs.values().flatten().copied().collect();
        let neg_dirty: std::collections::HashSet<TyId> = tys_mentioning(x, neg_ids.iter().copied())
            .into_iter()
            .zip(neg_ids)
            .filter_map(|(dirty, id)| dirty.then_some(id))
            .collect();
        if !neg_dirty.is_empty() || self.negs.keys().any(|p| p.base == x) {
            let negs = Arc::make_mut(&mut self.negs);
            negs.retain(|p, _| p.base != x);
            for ts in negs.values_mut() {
                for t in ts.iter_mut() {
                    if neg_dirty.contains(t) {
                        *t = TyId::of(&t.get().subst_obj(x, &Obj::Null));
                    }
                }
            }
        }
        let disj_flags = props_mentioning(x, self.disjs.iter().flat_map(|&(p, q)| [p, q]));
        if disj_flags.iter().any(|&d| d) {
            let disjs = Arc::make_mut(&mut self.disjs);
            let mut keep = disj_flags.chunks(2).map(|c| !c[0] && !c[1]);
            disjs.retain(|_| keep.next().expect("one flag pair per disjunction"));
        }
        if self.lin_facts.iter().any(|a| a.mentions_var(x)) {
            Arc::make_mut(&mut self.lin_facts).retain(|a| !a.mentions_var(x));
            // Not an append: incremental solver states can't extend this.
            self.lin_epoch = if self.lin_facts.is_empty() {
                0
            } else {
                next_lin_epoch()
            };
            self.lin_parent = None;
        }
        if self.bv_facts.iter().any(|a| a.mentions_var(x)) {
            Arc::make_mut(&mut self.bv_facts).retain(|a| !a.mentions_var(x));
        }
        if self.str_facts.iter().any(|a| a.mentions_var(x)) {
            Arc::make_mut(&mut self.str_facts).retain(|a| !a.mentions_var(x));
        }
        if self.pending.iter().any(|(p, _, _)| p.base == x) {
            Arc::make_mut(&mut self.pending).retain(|(p, _, _)| p.base != x);
        }
    }

    /// Resolves an object to its representative by applying aliases to a
    /// fixpoint. Allocation-free until a substitution is actually needed:
    /// each round finds one aliased variable by direct walk
    /// ([`Obj::find_var`]) instead of materializing a free-variable set.
    pub fn resolve(&self, o: &Obj) -> Obj {
        if self.aliases.is_empty() {
            return o.clone();
        }
        let mut aliased = |x: Symbol| self.aliases.contains_key(x);
        if o.find_var(&mut aliased).is_none() {
            return o.clone();
        }
        let mut cur = o.clone();
        for _ in 0..64 {
            let Some(x) = cur.find_var(&mut |x| self.aliases.contains_key(x)) else {
                return cur;
            };
            let rep = self.aliases.get(x).expect("checked").get();
            cur = cur.subst(x, &rep);
        }
        cur
    }

    /// The interned id of the recorded type of variable `x`, if any.
    /// This is the judgment layer's native read — no tree is touched.
    pub fn raw_ty_id(&self, x: Symbol) -> Option<TyId> {
        self.types.get(x).copied()
    }

    /// The raw recorded type of variable `x`, if any (canonical tree).
    pub fn raw_ty(&self, x: Symbol) -> Option<Arc<Ty>> {
        self.raw_ty_id(x).map(TyId::get)
    }

    /// Overwrites the recorded type of `x` by id.
    ///
    /// Writing back an unchanged type is a no-op — `update±` frequently
    /// returns its input (e.g. `len`-field updates never refine the type
    /// structure), and with interned storage that check is one integer
    /// compare. Skipping the write keeps the generation (and with it
    /// every memoized verdict about this environment) alive.
    pub fn set_ty_id(&mut self, x: Symbol, t: TyId) {
        if self.types.get(x) == Some(&t) {
            return;
        }
        self.touch();
        self.types.insert(x, t);
    }

    /// Overwrites the recorded type of `x` (tree convenience wrapper; the
    /// judgments use [`Env::set_ty_id`]).
    pub fn set_ty(&mut self, x: Symbol, t: Ty) {
        self.set_ty_id(x, TyId::of(&t));
    }

    /// Is `x` bound (has a recorded type or an alias)?
    pub fn is_bound(&self, x: Symbol) -> bool {
        self.types.contains_key(x) || self.aliases.contains_key(x)
    }

    /// Records a negative type fact for `path` (duplicates dropped).
    pub fn add_neg(&mut self, path: Path, t: TyId) {
        if self.negs.get(&path).is_some_and(|ts| ts.contains(&t)) {
            return;
        }
        self.touch();
        Arc::make_mut(&mut self.negs)
            .entry(path)
            .or_default()
            .push(t);
    }

    /// The negative facts recorded for `path`.
    pub fn negs_of(&self, path: &Path) -> &[TyId] {
        self.negs.get(path).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All `(path, negated type ids)` entries.
    pub fn negs(&self) -> impl Iterator<Item = (&Path, &[TyId])> {
        self.negs.iter().map(|(p, ts)| (p, ts.as_slice()))
    }

    /// All `(variable, positive type id)` entries.
    pub fn types(&self) -> impl Iterator<Item = (Symbol, TyId)> + '_ {
        self.types.iter().map(|(x, t)| (x, *t))
    }

    /// Stores an (interned) disjunction for later case splitting.
    /// Duplicates are dropped: re-proving the same disjunction adds no
    /// information and every copy multiplies the case-split search.
    pub fn add_disj(&mut self, lhs: PropId, rhs: PropId) {
        if self.disjs.contains(&(lhs, rhs)) {
            return;
        }
        self.touch();
        Arc::make_mut(&mut self.disjs).push((lhs, rhs));
    }

    /// The stored disjunctions.
    pub fn disjs(&self) -> &[(PropId, PropId)] {
        &self.disjs
    }

    /// Removes and returns the `i`-th stored disjunction.
    pub fn take_disj(&mut self, i: usize) -> (PropId, PropId) {
        self.touch();
        Arc::make_mut(&mut self.disjs).swap_remove(i)
    }

    /// Appends a linear-arithmetic fact (duplicates are dropped — they
    /// only widen every later solver translation).
    pub fn add_lin_fact(&mut self, a: LinAtom) {
        if self.lin_facts.contains(&a) {
            return;
        }
        self.touch();
        self.lin_parent = Some(self.lin_epoch);
        self.lin_epoch = next_lin_epoch();
        Arc::make_mut(&mut self.lin_facts).push(a);
    }

    /// The accumulated linear facts.
    pub fn lin_facts(&self) -> &[LinAtom] {
        &self.lin_facts
    }

    /// The linear store's content stamp (0 = empty store); see the field
    /// docs. Solver caches key incremental elimination states on this.
    pub fn lin_epoch(&self) -> u64 {
        self.lin_epoch
    }

    /// The epoch this store extends by appended facts, if any.
    pub fn lin_parent(&self) -> Option<u64> {
        self.lin_parent
    }

    /// Appends a bitvector fact.
    pub fn add_bv_fact(&mut self, a: BvAtomProp) {
        self.touch();
        Arc::make_mut(&mut self.bv_facts).push(a);
    }

    /// The accumulated bitvector facts.
    pub fn bv_facts(&self) -> &[BvAtomProp] {
        &self.bv_facts
    }

    /// Appends a regex-membership fact.
    pub fn add_str_fact(&mut self, a: StrAtomProp) {
        self.touch();
        Arc::make_mut(&mut self.str_facts).push(a);
    }

    /// The accumulated regex-membership facts.
    pub fn str_facts(&self) -> &[StrAtomProp] {
        &self.str_facts
    }

    /// Defers a type atom for query-time replay (pure-proposition mode).
    pub fn add_pending(&mut self, p: Path, t: TyId, positive: bool) {
        self.touch();
        Arc::make_mut(&mut self.pending).push((p, t, positive));
    }

    /// The deferred type atoms, in assumption order.
    pub fn pending(&self) -> &[(Path, TyId, bool)] {
        &self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn alias_resolution_reaches_fixpoint() {
        let mut env = Env::new();
        // x ↦ y + 1, y ↦ z
        env.add_alias(s("res_x"), Obj::var(s("res_y")).add(&Obj::int(1)));
        env.add_alias(s("res_y"), Obj::var(s("res_z")));
        let got = env.resolve(&Obj::var(s("res_x")));
        assert_eq!(got, Obj::var(s("res_z")).add(&Obj::int(1)));
    }

    #[test]
    fn resolve_is_identity_without_aliases() {
        let env = Env::new();
        let o = Obj::var(s("plain")).len();
        assert_eq!(env.resolve(&o), o);
    }

    #[test]
    fn mutability_flag() {
        let mut env = Env::new();
        assert!(!env.is_mutable(s("m")));
        env.mark_mutable(s("m"));
        assert!(env.is_mutable(s("m")));
    }

    #[test]
    fn negs_round_trip() {
        let mut env = Env::new();
        let p = Path::var(s("n"));
        env.add_neg(p.clone(), TyId::of(&Ty::Int));
        assert_eq!(env.negs_of(&p), &[TyId::of(&Ty::Int)]);
        assert!(env.negs_of(&Path::var(s("other"))).is_empty());
    }

    #[test]
    fn clones_are_cheap_snapshots() {
        let mut env = Env::new();
        env.set_ty(s("snap"), Ty::Int);
        let snapshot = env.clone();
        assert_eq!(snapshot.generation(), env.generation());
        // Mutating the clone neither disturbs the original nor keeps the
        // old generation.
        let mut fork = snapshot.clone();
        fork.set_ty(s("snap"), Ty::bool_ty());
        assert_eq!(env.raw_ty(s("snap")).as_deref(), Some(&Ty::Int));
        assert_eq!(fork.raw_ty(s("snap")).as_deref(), Some(&Ty::bool_ty()));
        assert_ne!(fork.generation(), env.generation());
    }

    #[test]
    fn empty_environments_share_generation_zero() {
        assert_eq!(Env::new().generation(), 0);
        assert_eq!(Env::default().generation(), 0);
        let mut env = Env::new();
        env.mark_mutable(s("gen_bump"));
        assert_ne!(env.generation(), 0);
    }

    #[test]
    fn same_contents_ignores_identity_stamps() {
        let mut a = Env::new();
        a.set_ty(s("sc_x"), Ty::Int);
        a.mark_mutable(s("sc_m"));
        let mut b = Env::new();
        b.mark_mutable(s("sc_m"));
        b.set_ty(s("sc_x"), Ty::Int);
        // Different generations (each mutation stamps a fresh one), same
        // facts.
        assert_ne!(a.generation(), b.generation());
        assert!(a.same_contents(&b));
        assert!(a.same_contents(&a.clone()), "snapshot fast path");
        b.set_ty(s("sc_x"), Ty::bool_ty());
        assert!(!a.same_contents(&b));
        b.set_ty(s("sc_x"), Ty::Int);
        assert!(a.same_contents(&b));
        b.mark_absurd();
        assert!(!a.same_contents(&b));
    }

    #[test]
    fn unbind_is_a_pure_remove_when_nothing_mentions_x() {
        let mut env = Env::new();
        env.set_ty(s("ub_x"), Ty::Int);
        env.set_ty(s("ub_y"), Ty::bool_ty());
        env.unbind(s("ub_x"));
        assert!(env.raw_ty_id(s("ub_x")).is_none());
        assert_eq!(env.raw_ty(s("ub_y")).as_deref(), Some(&Ty::bool_ty()));
    }

    #[test]
    fn unbind_rewrites_types_that_mention_x() {
        use crate::syntax::{LinCmp, Prop};
        let mut env = Env::new();
        let x = s("ub2_x");
        let y = s("ub2_y");
        let v = s("ub2_v");
        env.set_ty(x, Ty::Int);
        // y : {v:Int | v ≤ x} — mentions x, must be rewritten on unbind.
        env.set_ty(
            y,
            Ty::refine(v, Ty::Int, Prop::lin(Obj::var(v), LinCmp::Le, Obj::var(x))),
        );
        env.unbind(x);
        let yt = env.raw_ty(y).expect("y still bound");
        let mut fv = HashSet::new();
        yt.free_obj_vars(&mut fv);
        assert!(!fv.contains(&x), "unbind left a reference to x in {yt}");
    }

    #[test]
    fn unbind_drops_aliases_and_facts_mentioning_x() {
        use crate::syntax::{LinCmp, Prop};
        let mut env = Env::new();
        let x = s("ub3_x");
        let y = s("ub3_y");
        env.set_ty(x, Ty::Int);
        env.add_alias(y, Obj::var(x).add(&Obj::int(1)));
        if let Prop::Lin(a) = Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(3)) {
            env.add_lin_fact(a);
        }
        env.add_disj(
            PropId::of(&Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(1))),
            PropId::of(&Prop::lin(Obj::int(1), LinCmp::Le, Obj::var(x))),
        );
        env.unbind(x);
        assert!(env.lin_facts().is_empty());
        assert!(env.disjs().is_empty());
        assert_eq!(env.resolve(&Obj::var(y)), Obj::var(y), "alias must be gone");
    }
}
