//! Hash-consing interner for types, propositions and symbolic objects.
//!
//! The checker's hot judgments (`subtype`, `update±`,
//! `env_inconsistent`) are re-derived many times over structurally
//! identical inputs; deep tree comparison and deep `HashMap` keys make
//! that expensive. This module canonicalizes [`Ty`]/[`Prop`]/[`Obj`]
//! values into arena-backed `u32` handles ([`TyId`]/[`PropId`]/[`ObjId`])
//! with O(1) equality and hashing. Since the id-native environment
//! refactor, ids are not just memo keys: [`crate::env::Env`] *stores*
//! `TyId`/`ObjId` in its persistent maps, and the `update±` metafunction
//! runs id-to-id, so this module also provides **id-level constructors
//! and destructors** (`TyId::union_of`, `TyId::pair`, `TyId::refine`,
//! `TyId::project`, `TyId::union_members`, …) that build or take apart
//! canonical types without ever materializing a tree on the hot path.
//!
//! Canonicalization normalizes on the way in:
//!
//! * unions are flattened, deduplicated and sorted (base-type members in
//!   a fixed structural rank order — so `Bool` always reads
//!   `(U True False)` — compound members by id), and singleton unions
//!   collapse to their member;
//! * refinements with a trivial (`tt`) proposition collapse to their base;
//! * conjunction/disjunction chains are flattened and deduplicated with
//!   `tt`/`ff` unit/absorption short-circuits;
//! * type-membership and alias atoms over the null object vacate to `tt`
//!   (§3.1), and pairs of null objects collapse to the null object.
//!
//! Two semantically-equal-modulo-normalization trees therefore intern to
//! the same id. Ids are `Copy + Send + Sync`, so they can cross thread
//! boundaries where deep trees cannot.
//!
//! **Per-id metadata** is computed once at intern time and cached in a
//! side table parallel to each arena: an environment-freedom flag (no
//! refinement/function/polymorphic component anywhere — subtype verdicts
//! need no environment), a conservative set of mentioned object-level
//! variables (`TyId::free_obj_vars` / `mentions_var` — this is what makes
//! `Env::unbind` a pure map remove in the common case), a
//! mentions-refinement flag, and a solver-relevant theory mask
//! ([`THEORY_LIN`]/[`THEORY_BV`]/[`THEORY_STR`]). The environment-freedom
//! flag is packed into the id itself, so the hottest checks need no arena
//! lookup at all.
//!
//! **One permanent arena.** The interner is global (like
//! [`crate::syntax::Symbol`]'s), and every canonical entry lives for the
//! program's lifetime. That includes trees over [`Symbol::fresh`] names
//! (ghost existentials, selfification binders, generated parameter
//! names): those names are numbered per item, per elaborated form and
//! per memoized judgment, so re-checking the same content mints the same
//! names and interns the same trees, and the arena is bounded by the
//! content checked, not by the number of checks. [`arena_stats`] reports
//! the arena and the symbol table's size.
//!
//! **Per-thread tables.** The store is one mutex, and sharded checks
//! (`fig9 --jobs`, `rtr check --jobs`) would otherwise take it for
//! nearly every [`TyId::get`] and [`TyId::of`]. So each thread keeps a
//! table of the entries it has read: its own deep copy of each type
//! `get` returned (cloning that `Arc` touches no refcount another thread
//! shares), and the raw trees `of` resolved, each capped at 4,096
//! entries and cleared when full. An id is never reused, so an entry
//! never needs invalidating.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

use crate::cache::LockRecover;

use rtr_solver::fxhash::FxHashMap;

use crate::syntax::{Field, FunTy, Obj, PolyTy, Prop, RefineTy, Symbol, Ty, TyResult};

/// Theory-mask bit: the type mentions linear-arithmetic atoms.
pub const THEORY_LIN: u8 = 1;
/// Theory-mask bit: the type mentions bitvector atoms.
pub const THEORY_BV: u8 = 2;
/// Theory-mask bit: the type mentions regex-membership atoms.
pub const THEORY_STR: u8 = 4;

/// Id bit (types only) marking environment-free types.
const ENV_FREE_BIT: u32 = 1 << 30;
/// Index mask for type ids (the flag bit stripped).
const TY_IDX: u32 = ENV_FREE_BIT - 1;

/// An interned, canonicalized type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TyId(u32);

/// An interned, canonicalized proposition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PropId(u32);

/// An interned, canonicalized symbolic object.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjId(u32);

impl TyId {
    /// Interns (and canonicalizes) a type.
    pub fn of(t: &Ty) -> TyId {
        if let Some(id) = LOCAL.with_borrow(|l| l.ty_ids.get(t).copied()) {
            return id;
        }
        let id = TyId(store().lock_recover().ty(t));
        LOCAL.with_borrow_mut(|l| {
            if l.ty_ids.len() >= LOCAL_MEMO_CAP {
                l.ty_ids.clear();
            }
            l.ty_ids.insert(t.clone(), id);
        });
        id
    }

    /// The canonical type this id stands for.
    pub fn get(self) -> Arc<Ty> {
        if let Some(t) = LOCAL.with_borrow(|l| l.tys.get(&self.0).cloned()) {
            return t;
        }
        let shared = store().lock_recover().ty_arc(self.0).clone();
        let own = Arc::new((*shared).clone());
        LOCAL.with_borrow_mut(|l| {
            if l.tys.len() >= LOCAL_MEMO_CAP {
                l.tys.clear();
            }
            l.tys.insert(self.0, own.clone());
        });
        own
    }

    /// The raw arena index (flag bits included).
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Is this type *environment-free*: no refinement, function or
    /// polymorphic component anywhere, so it is compared purely
    /// structurally and one cached verdict serves every environment?
    /// Read from a bit packed into the id — no arena lookup.
    pub fn env_free(self) -> bool {
        self.0 & ENV_FREE_BIT != 0
    }

    /// The canonical `⊤` id.
    pub fn top() -> TyId {
        static ID: OnceLock<TyId> = OnceLock::new();
        *ID.get_or_init(|| TyId::of(&Ty::Top))
    }

    /// The canonical `⊥` (empty union) id.
    pub fn bot() -> TyId {
        static ID: OnceLock<TyId> = OnceLock::new();
        *ID.get_or_init(|| TyId::of(&Ty::bot()))
    }

    /// The canonical `Int` id.
    pub fn int() -> TyId {
        static ID: OnceLock<TyId> = OnceLock::new();
        *ID.get_or_init(|| TyId::of(&Ty::Int))
    }

    /// The canonical `BitVec` id.
    pub fn bitvec() -> TyId {
        static ID: OnceLock<TyId> = OnceLock::new();
        *ID.get_or_init(|| TyId::of(&Ty::BitVec))
    }

    /// The canonical `Str` id.
    pub fn str_ty() -> TyId {
        static ID: OnceLock<TyId> = OnceLock::new();
        *ID.get_or_init(|| TyId::of(&Ty::Str))
    }

    /// The canonical `Regex` id.
    pub fn regex() -> TyId {
        static ID: OnceLock<TyId> = OnceLock::new();
        *ID.get_or_init(|| TyId::of(&Ty::Regex))
    }

    /// The canonical union of the given members (flattened, deduplicated,
    /// canonically sorted; singletons collapse). Never materializes a
    /// tree when the union already exists.
    pub fn union_of(members: &[TyId]) -> TyId {
        let mut s = store().lock_recover();
        let ids: Vec<u32> = members.iter().map(|m| m.0).collect();
        TyId(s.make_union(ids))
    }

    /// The canonical pair type `a × b`.
    pub fn pair(a: TyId, b: TyId) -> TyId {
        TyId(store().lock_recover().make_pair(a.0, b.0))
    }

    /// The canonical vector type `(Vecof elem)`.
    pub fn vec(elem: TyId) -> TyId {
        TyId(store().lock_recover().make_vec(elem.0))
    }

    /// The canonical refinement `{var:base | prop}`; collapses to `base`
    /// when the proposition is trivial.
    pub fn refine(var: Symbol, base: TyId, prop: PropId) -> TyId {
        TyId(store().lock_recover().make_refine(var, base.0, prop.0))
    }

    /// The member ids of a union type (`None` for non-unions).
    pub fn union_members(self) -> Option<Vec<TyId>> {
        store()
            .lock_recover()
            .ty_unions
            .get(&self.0)
            .map(|ms| ms.iter().map(|&m| TyId(m)).collect())
    }

    /// The component ids of a pair type (`None` for non-pairs).
    pub fn pair_parts(self) -> Option<(TyId, TyId)> {
        store()
            .lock_recover()
            .ty_pairs
            .get(&self.0)
            .map(|&(a, b)| (TyId(a), TyId(b)))
    }

    /// The element id of a vector type (`None` for non-vectors).
    pub fn vec_elem(self) -> Option<TyId> {
        store()
            .lock_recover()
            .ty_vecs
            .get(&self.0)
            .copied()
            .map(TyId)
    }

    /// The `(binder, base, proposition)` of a refinement type (`None`
    /// for non-refinements).
    pub fn refine_parts(self) -> Option<(Symbol, TyId, PropId)> {
        store()
            .lock_recover()
            .ty_refines
            .get(&self.0)
            .map(|&(v, b, p)| (v, TyId(b), PropId(p)))
    }

    /// Field projection at the id level (memoized in the interner):
    /// `len` projects to `Int`, pairs to their component, unions
    /// pointwise, refinements through their base, everything else to `⊤`.
    pub fn project(self, f: Field) -> TyId {
        TyId(store().lock_recover().project(self.0, f))
    }

    /// The object-level variables this type mentions — a conservative
    /// over-approximation (binder names are included), computed once at
    /// intern time. `mentions_var(x) == false` is therefore a proof that
    /// substituting for `x` leaves the type unchanged, which is what lets
    /// `Env::unbind` skip whole-map rewrites.
    pub fn free_obj_vars(self) -> Arc<[Symbol]> {
        store().lock_recover().ty_meta(self.0).vars.clone()
    }

    /// Does the type mention variable `x` (conservatively)? See
    /// [`TyId::free_obj_vars`].
    pub fn mentions_var(self, x: Symbol) -> bool {
        store()
            .lock_recover()
            .ty_meta(self.0)
            .vars
            .binary_search(&x)
            .is_ok()
    }

    /// Does the type mention no object-level variables at all?
    pub fn is_closed(self) -> bool {
        store().lock_recover().ty_meta(self.0).vars.is_empty()
    }

    /// Does the type contain a refinement anywhere?
    pub fn has_refinement(self) -> bool {
        store().lock_recover().ty_meta(self.0).has_refinement
    }

    /// Which solver theories do the type's propositions mention? A union
    /// of [`THEORY_LIN`]/[`THEORY_BV`]/[`THEORY_STR`] bits, precomputed
    /// at intern time so theory-gating is a bit test.
    pub fn theory_mask(self) -> u8 {
        store().lock_recover().ty_meta(self.0).theory_mask
    }
}

impl PropId {
    /// Interns (and canonicalizes) a proposition.
    pub fn of(p: &Prop) -> PropId {
        PropId(store().lock_recover().prop(p))
    }

    /// The canonical proposition this id stands for.
    pub fn get(self) -> Arc<Prop> {
        store().lock_recover().prop_arc(self.0).clone()
    }

    /// The raw arena index (flag bits included).
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Does the proposition mention variable `x` free? Exactly matches
    /// [`Prop::free_vars`] (object-level variables; types embedded in
    /// membership atoms are not consulted), cached per id.
    pub fn mentions_var(self, x: Symbol) -> bool {
        store()
            .lock_recover()
            .prop_meta(self.0)
            .free_vars
            .binary_search(&x)
            .is_ok()
    }

    /// Sorted free object-level variables, exactly [`Prop::free_vars`],
    /// cached per id.
    pub fn free_vars(self) -> Arc<[Symbol]> {
        store().lock_recover().prop_meta(self.0).free_vars.clone()
    }

    /// Which solver theories does the proposition mention? A union of
    /// [`THEORY_LIN`]/[`THEORY_BV`]/[`THEORY_STR`] bits, precomputed at
    /// intern time so relevance-gating is a bit test.
    pub fn theory_mask(self) -> u8 {
        store().lock_recover().prop_meta(self.0).theory_mask
    }
}

impl ObjId {
    /// Interns (and canonicalizes) a symbolic object.
    pub fn of(o: &Obj) -> ObjId {
        ObjId(store().lock_recover().obj(o))
    }

    /// The canonical object this id stands for.
    pub fn get(self) -> Arc<Obj> {
        store().lock_recover().obj_arc(self.0).clone()
    }

    /// The raw arena index (flag bits included).
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Does the object mention variable `x`? Exactly matches
    /// [`Obj::free_vars`], cached per id.
    pub fn mentions_var(self, x: Symbol) -> bool {
        store()
            .lock_recover()
            .obj_meta(self.0)
            .free_vars
            .binary_search(&x)
            .is_ok()
    }
}

/// Batched [`TyId::mentions_var`]: one interner lock for the whole id
/// set. `Env::unbind` uses these to scan an environment's stored ids
/// without a per-id lock round-trip (which would serialize parallel
/// corpus checking on the global interner mutex).
pub fn tys_mentioning(x: Symbol, ids: impl IntoIterator<Item = TyId>) -> Vec<bool> {
    let s = store().lock_recover();
    ids.into_iter()
        .map(|id| s.ty_meta(id.0).vars.binary_search(&x).is_ok())
        .collect()
}

/// Batched [`PropId::mentions_var`]; see [`tys_mentioning`].
pub fn props_mentioning(x: Symbol, ids: impl IntoIterator<Item = PropId>) -> Vec<bool> {
    let s = store().lock_recover();
    ids.into_iter()
        .map(|id| s.prop_meta(id.0).free_vars.binary_search(&x).is_ok())
        .collect()
}

/// Batched [`ObjId::mentions_var`]; see [`tys_mentioning`].
pub fn objs_mentioning(x: Symbol, ids: impl IntoIterator<Item = ObjId>) -> Vec<bool> {
    let s = store().lock_recover();
    ids.into_iter()
        .map(|id| s.obj_meta(id.0).free_vars.binary_search(&x).is_ok())
        .collect()
}

/// Batched [`PropId::free_vars`] + [`PropId::theory_mask`]: one interner
/// lock for the whole id set. The lazy split scheduler uses these to
/// build per-clause relevance metadata without a per-id lock round-trip.
pub fn props_relevance(ids: impl IntoIterator<Item = PropId>) -> Vec<(Arc<[Symbol]>, u8)> {
    let s = store().lock_recover();
    ids.into_iter()
        .map(|id| {
            let m = s.prop_meta(id.0);
            (m.free_vars.clone(), m.theory_mask)
        })
        .collect()
}

/// Relevance metadata — sorted free object-level variables and
/// `THEORY_*` bits — of a *goal* proposition, computed without
/// interning it (goals are transient; forcing them into the arena just
/// to read metadata would grow it for no reuse).
pub fn prop_relevance(p: &Prop) -> (Vec<Symbol>, u8) {
    let mut fv = HashSet::new();
    p.free_vars(&mut fv);
    let mut vars: Vec<Symbol> = fv.into_iter().collect();
    vars.sort_unstable();
    let mut scan = Scan::default();
    scan.prop(p);
    (vars, scan.mask)
}

/// Canonicalizes a type (flattened/deduped/sorted unions, collapsed
/// trivial refinements) without keeping the id.
pub fn canon_ty(t: &Ty) -> Arc<Ty> {
    TyId::of(t).get()
}

/// Canonicalizes a proposition.
pub fn canon_prop(p: &Prop) -> Arc<Prop> {
    PropId::of(p).get()
}

/// Arena sizes. Comparing snapshots around a `check_source` call
/// measures how much each module adds to the arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Type entries.
    pub tys: usize,
    /// Proposition entries.
    pub props: usize,
    /// Object entries.
    pub objs: usize,
    /// Always 0: there is no separate region for trees over fresh names
    /// (kept for readers of the former per-region counts).
    pub fresh_tys: usize,
    /// Always 0 (see [`ArenaStats::fresh_tys`]).
    pub fresh_props: usize,
    /// Always 0 (see [`ArenaStats::fresh_tys`]).
    pub fresh_objs: usize,
    /// Names in the global symbol table ([`Symbol::interned_count`]);
    /// fresh symbols take no slot there.
    pub symbols: usize,
}

/// Snapshot of the interner's sizes.
pub fn arena_stats() -> ArenaStats {
    let s = store().lock_recover();
    ArenaStats {
        tys: s.tys.len(),
        props: s.props.len(),
        objs: s.objs.len(),
        symbols: Symbol::interned_count(),
        ..ArenaStats::default()
    }
}

/// Intern-time metadata for a type, computed once per arena entry.
struct TyMeta {
    /// Conservative, sorted set of mentioned object-level variables
    /// (binders included — an over-approximation that is exact about
    /// *absence*).
    vars: Arc<[Symbol]>,
    /// Union of `THEORY_*` bits mentioned by embedded propositions.
    theory_mask: u8,
    /// Does the type contain a refinement anywhere?
    has_refinement: bool,
    /// Canonical sort rank for union members (base types in declaration
    /// order, compound types after).
    rank: u8,
}

/// Intern-time metadata for a proposition.
struct PropMeta {
    /// Sorted free object-level variables, exactly [`Prop::free_vars`].
    free_vars: Arc<[Symbol]>,
    /// Union of `THEORY_*` bits mentioned anywhere in the proposition
    /// (embedded refinement types included).
    theory_mask: u8,
}

/// Intern-time metadata for an object.
struct ObjMeta {
    /// Sorted free variables, exactly [`Obj::free_vars`].
    free_vars: Arc<[Symbol]>,
}

#[derive(Default)]
struct Store {
    // --- arenas -------------------------------------------------------------
    tys: Vec<Arc<Ty>>,
    ty_metas: Vec<TyMeta>,
    props: Vec<Arc<Prop>>,
    prop_metas: Vec<PropMeta>,
    objs: Vec<Arc<Obj>>,
    obj_metas: Vec<ObjMeta>,
    // --- canonical lookup ---------------------------------------------------
    ty_canon: FxHashMap<Arc<Ty>, u32>,
    prop_canon: FxHashMap<Arc<Prop>, u32>,
    obj_canon: FxHashMap<Arc<Obj>, u32>,
    // --- raw-tree memos -----------------------------------------------------
    ty_memo: FxHashMap<Ty, u32>,
    prop_memo: FxHashMap<Prop, u32>,
    obj_memo: FxHashMap<Obj, u32>,
    // --- id-level structure (constructors/destructors) --------------------
    /// Member ids of interned union types.
    ty_unions: FxHashMap<u32, Vec<u32>>,
    ty_union_canon: FxHashMap<Vec<u32>, u32>,
    ty_pairs: FxHashMap<u32, (u32, u32)>,
    ty_pair_canon: FxHashMap<(u32, u32), u32>,
    ty_vecs: FxHashMap<u32, u32>,
    ty_vec_canon: FxHashMap<u32, u32>,
    ty_refines: FxHashMap<u32, (Symbol, u32, u32)>,
    ty_refine_canon: FxHashMap<(Symbol, u32, u32), u32>,
    /// Memoized id-level field projections.
    ty_projections: FxHashMap<(u32, Field), u32>,
    /// Conjunct ids of interned `And` chains (flattening support).
    prop_ands: FxHashMap<u32, Vec<u32>>,
    /// Disjunct ids of interned `Or` chains (flattening support).
    prop_ors: FxHashMap<u32, Vec<u32>>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

/// Cap on each of a thread's tables ([`Local`]).
const LOCAL_MEMO_CAP: usize = 1 << 12;

/// One thread's lock-free view of the type arena (see the module doc).
#[derive(Default)]
struct Local {
    /// This thread's own copy of types it has read, by raw id.
    tys: FxHashMap<u32, Arc<Ty>>,
    /// Raw trees this thread interned.
    ty_ids: FxHashMap<Ty, TyId>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::default();
}

/// The number of fresh-region evictions so far: always 0. Every entry is
/// permanent (see the module doc); kept for callers that read it.
pub fn evict_epoch() -> u64 {
    0
}

/// Would evict a fresh arena region past `threshold` entries, but every
/// entry is permanent (see the module doc), so it returns `false`; kept
/// for callers that invoke it.
pub fn maybe_evict_fresh(_threshold: usize) -> bool {
    false
}

/// Cap on the raw-tree memo maps (`*_memo`). These maps clone
/// every raw input tree as a key purely to skip re-canonicalization;
/// clearing them is always sound (the canonical arenas — which ids index
/// into — are untouched, so existing ids stay valid).
const MEMO_CAP: usize = 1 << 20;

/// One tree-walk collecting everything the per-id metadata needs.
#[derive(Default)]
struct Scan {
    /// Object-level variable mentions, binders included.
    vars: HashSet<Symbol>,
    mask: u8,
    has_refinement: bool,
}

impl Scan {
    fn ty(&mut self, t: &Ty) {
        match t {
            Ty::Top
            | Ty::Int
            | Ty::True
            | Ty::False
            | Ty::Unit
            | Ty::BitVec
            | Ty::Str
            | Ty::Regex
            | Ty::TVar(_) => {}
            Ty::Pair(a, b) => {
                self.ty(a);
                self.ty(b);
            }
            Ty::Vec(e) => self.ty(e),
            Ty::Union(ts) => ts.iter().for_each(|t| self.ty(t)),
            Ty::Fun(f) => {
                for (x, d) in &f.params {
                    self.vars.insert(*x);
                    self.ty(d);
                }
                self.result(&f.range);
            }
            Ty::Refine(r) => {
                self.has_refinement = true;
                self.vars.insert(r.var);
                self.ty(&r.base);
                self.prop(&r.prop);
            }
            Ty::Poly(p) => self.ty(&p.body),
        }
    }

    fn result(&mut self, r: &TyResult) {
        for (g, t) in &r.existentials {
            self.vars.insert(*g);
            self.ty(t);
        }
        self.ty(&r.ty);
        self.prop(&r.then_p);
        self.prop(&r.else_p);
        self.obj(&r.obj);
    }

    fn prop(&mut self, p: &Prop) {
        match p {
            Prop::TT | Prop::FF => {}
            Prop::Is(o, t) | Prop::IsNot(o, t) => {
                self.obj(o);
                self.ty(t);
            }
            Prop::And(a, b) | Prop::Or(a, b) => {
                self.prop(a);
                self.prop(b);
            }
            Prop::Alias(a, b) => {
                self.obj(a);
                self.obj(b);
            }
            Prop::Lin(a) => {
                self.mask |= THEORY_LIN;
                for (_, p) in a.lhs.terms.iter().chain(a.rhs.terms.iter()) {
                    self.vars.insert(p.base);
                }
            }
            Prop::Bv(a) => {
                self.mask |= THEORY_BV;
                self.bv(&a.lhs);
                self.bv(&a.rhs);
            }
            Prop::Str(a) => {
                self.mask |= THEORY_STR;
                if let crate::syntax::StrObj::Path(p) = &a.lhs {
                    self.vars.insert(p.base);
                }
            }
        }
    }

    fn obj(&mut self, o: &Obj) {
        o.free_vars(&mut self.vars);
    }

    fn bv(&mut self, b: &crate::syntax::BvObj) {
        use crate::syntax::BvObj;
        match b {
            BvObj::Const(_) => {}
            BvObj::Path(p) => {
                self.vars.insert(p.base);
            }
            BvObj::Not(a) => self.bv(a),
            BvObj::And(a, b)
            | BvObj::Or(a, b)
            | BvObj::Xor(a, b)
            | BvObj::Add(a, b)
            | BvObj::Sub(a, b)
            | BvObj::Mul(a, b) => {
                self.bv(a);
                self.bv(b);
            }
        }
    }

    fn sorted_vars(&self) -> Arc<[Symbol]> {
        let mut v: Vec<Symbol> = self.vars.iter().copied().collect();
        v.sort_unstable();
        v.into()
    }
}

/// Canonical sort rank for union members: base types in a fixed order
/// (so canonical member order is stable across processes for base-type
/// unions — `Bool` is always `(U True False)`), compound types after,
/// ordered among themselves by id.
fn ty_rank(t: &Ty) -> u8 {
    match t {
        Ty::Top => 0,
        Ty::Int => 1,
        Ty::True => 2,
        Ty::False => 3,
        Ty::Unit => 4,
        Ty::BitVec => 5,
        Ty::Str => 6,
        Ty::Regex => 7,
        Ty::TVar(_) => 8,
        Ty::Pair(_, _) => 9,
        Ty::Vec(_) => 10,
        Ty::Union(_) => 11,
        Ty::Fun(_) => 12,
        Ty::Refine(_) => 13,
        Ty::Poly(_) => 14,
    }
}

impl Store {
    // --- arena access -------------------------------------------------------

    fn ty_arc(&self, id: u32) -> &Arc<Ty> {
        &self.tys[(id & TY_IDX) as usize]
    }

    fn ty_meta(&self, id: u32) -> &TyMeta {
        &self.ty_metas[(id & TY_IDX) as usize]
    }

    fn prop_arc(&self, id: u32) -> &Arc<Prop> {
        &self.props[id as usize]
    }

    fn prop_meta(&self, id: u32) -> &PropMeta {
        &self.prop_metas[id as usize]
    }

    fn obj_arc(&self, id: u32) -> &Arc<Obj> {
        &self.objs[id as usize]
    }

    fn obj_meta(&self, id: u32) -> &ObjMeta {
        &self.obj_metas[id as usize]
    }

    // --- types ------------------------------------------------------------

    fn insert_ty(&mut self, t: Ty) -> u32 {
        if let Some(&id) = self.ty_canon.get(&t) {
            return id;
        }
        fn env_free(t: &Ty) -> bool {
            match t {
                Ty::Top
                | Ty::Int
                | Ty::True
                | Ty::False
                | Ty::Unit
                | Ty::BitVec
                | Ty::Str
                | Ty::Regex
                | Ty::TVar(_) => true,
                Ty::Pair(a, b) => env_free(a) && env_free(b),
                Ty::Vec(e) => env_free(e),
                Ty::Union(ts) => ts.iter().all(env_free),
                Ty::Fun(_) | Ty::Refine(_) | Ty::Poly(_) => false,
            }
        }
        let mut scan = Scan::default();
        scan.ty(&t);
        let meta = TyMeta {
            vars: scan.sorted_vars(),
            theory_mask: scan.mask,
            has_refinement: scan.has_refinement,
            rank: ty_rank(&t),
        };
        let flag = if env_free(&t) { ENV_FREE_BIT } else { 0 };
        let arc = Arc::new(t);
        let idx = self.tys.len();
        assert!(idx < TY_IDX as usize, "type arena overflow");
        self.tys.push(arc.clone());
        self.ty_metas.push(meta);
        let id = idx as u32 | flag;
        self.ty_canon.insert(arc, id);
        id
    }

    fn ty_tree(&self, id: u32) -> Ty {
        (**self.ty_arc(id)).clone()
    }

    /// The canonical union of (already canonical) member ids: members
    /// that are unions splice in, duplicates drop, base members sort by
    /// structural rank and compound members by id. The single code path
    /// for both the tree-interning route and the id-level constructor.
    fn make_union(&mut self, members: Vec<u32>) -> u32 {
        let mut flat: Vec<u32> = Vec::with_capacity(members.len());
        for mid in members {
            match self.ty_unions.get(&mid) {
                Some(ms) => flat.extend(ms.iter().copied()),
                None => flat.push(mid),
            }
        }
        flat.sort_unstable_by_key(|&id| (self.ty_meta(id).rank, id));
        flat.dedup();
        if flat.len() == 1 {
            return flat[0];
        }
        if let Some(&id) = self.ty_union_canon.get(&flat) {
            return id;
        }
        let tree = Ty::Union(flat.iter().map(|&i| self.ty_tree(i)).collect());
        let id = self.insert_ty(tree);
        // Recording ⊥ (the empty union) with zero members makes it splice
        // away as a member of any later union, matching `Ty::union_of`.
        self.ty_unions.entry(id).or_insert_with(|| flat.clone());
        self.ty_union_canon.insert(flat, id);
        id
    }

    fn make_pair(&mut self, a: u32, b: u32) -> u32 {
        if let Some(&id) = self.ty_pair_canon.get(&(a, b)) {
            return id;
        }
        let tree = Ty::Pair(Box::new(self.ty_tree(a)), Box::new(self.ty_tree(b)));
        let id = self.insert_ty(tree);
        self.ty_pair_canon.insert((a, b), id);
        self.ty_pairs.entry(id).or_insert((a, b));
        id
    }

    fn make_vec(&mut self, e: u32) -> u32 {
        if let Some(&id) = self.ty_vec_canon.get(&e) {
            return id;
        }
        let tree = Ty::Vec(Box::new(self.ty_tree(e)));
        let id = self.insert_ty(tree);
        self.ty_vec_canon.insert(e, id);
        self.ty_vecs.entry(id).or_insert(e);
        id
    }

    fn make_refine(&mut self, var: Symbol, base: u32, prop: u32) -> u32 {
        if matches!(&**self.prop_arc(prop), Prop::TT) {
            return base;
        }
        if let Some(&id) = self.ty_refine_canon.get(&(var, base, prop)) {
            return id;
        }
        let tree = Ty::Refine(Box::new(RefineTy {
            var,
            base: self.ty_tree(base),
            prop: self.prop_tree(prop),
        }));
        let id = self.insert_ty(tree);
        self.ty_refine_canon.insert((var, base, prop), id);
        self.ty_refines.entry(id).or_insert((var, base, prop));
        id
    }

    fn project(&mut self, id: u32, f: Field) -> u32 {
        if let Some(&p) = self.ty_projections.get(&(id, f)) {
            return p;
        }
        let out = if f == Field::Len {
            self.ty(&Ty::Int)
        } else if let Some(&(a, b)) = self.ty_pairs.get(&id) {
            if f == Field::Fst {
                a
            } else {
                b
            }
        } else if let Some(ms) = self.ty_unions.get(&id).cloned() {
            let projected: Vec<u32> = ms.into_iter().map(|m| self.project(m, f)).collect();
            self.make_union(projected)
        } else if let Some(&(_, base, _)) = self.ty_refines.get(&id) {
            self.project(base, f)
        } else {
            self.ty(&Ty::Top)
        };
        self.ty_projections.insert((id, f), out);
        out
    }

    fn ty(&mut self, t: &Ty) -> u32 {
        if let Some(&id) = self.ty_memo.get(t) {
            return id;
        }
        let id = match t {
            Ty::Top
            | Ty::Int
            | Ty::True
            | Ty::False
            | Ty::Unit
            | Ty::BitVec
            | Ty::Str
            | Ty::Regex
            | Ty::TVar(_) => self.insert_ty(t.clone()),
            Ty::Pair(a, b) => {
                let (a, b) = (self.ty(a), self.ty(b));
                self.make_pair(a, b)
            }
            Ty::Vec(e) => {
                let e = self.ty(e);
                self.make_vec(e)
            }
            Ty::Union(ts) => {
                let ids: Vec<u32> = ts.iter().map(|m| self.ty(m)).collect();
                self.make_union(ids)
            }
            Ty::Fun(f) => {
                let params = f
                    .params
                    .iter()
                    .map(|(x, t)| {
                        let t = self.ty(t);
                        (*x, self.ty_tree(t))
                    })
                    .collect();
                let range = self.ty_result(&f.range);
                self.insert_ty(Ty::Fun(Box::new(FunTy { params, range })))
            }
            Ty::Refine(r) => {
                let base = self.ty(&r.base);
                let prop = self.prop(&r.prop);
                self.make_refine(r.var, base, prop)
            }
            Ty::Poly(p) => {
                let body = self.ty(&p.body);
                if p.vars.is_empty() {
                    body
                } else {
                    let tree = Ty::Poly(Box::new(PolyTy {
                        vars: p.vars.clone(),
                        body: self.ty_tree(body),
                    }));
                    self.insert_ty(tree)
                }
            }
        };
        if self.ty_memo.len() >= MEMO_CAP {
            self.ty_memo.clear();
        }
        self.ty_memo.insert(t.clone(), id);
        id
    }

    fn ty_result(&mut self, r: &TyResult) -> TyResult {
        let existentials = r
            .existentials
            .iter()
            .map(|(x, t)| {
                let t = self.ty(t);
                (*x, self.ty_tree(t))
            })
            .collect();
        let ty = self.ty(&r.ty);
        let then_p = self.prop(&r.then_p);
        let else_p = self.prop(&r.else_p);
        let obj = self.obj(&r.obj);
        TyResult {
            existentials,
            ty: self.ty_tree(ty),
            then_p: self.prop_tree(then_p),
            else_p: self.prop_tree(else_p),
            obj: self.obj_tree(obj),
        }
    }

    // --- propositions ------------------------------------------------------

    /// Inserts a canonical proposition.
    fn insert_prop(&mut self, p: Prop) -> u32 {
        if let Some(&id) = self.prop_canon.get(&p) {
            return id;
        }
        let mut fv = HashSet::new();
        p.free_vars(&mut fv);
        let mut sorted: Vec<Symbol> = fv.into_iter().collect();
        sorted.sort_unstable();
        let mut scan = Scan::default();
        scan.prop(&p);
        let meta = PropMeta {
            free_vars: sorted.into(),
            theory_mask: scan.mask,
        };
        let arc = Arc::new(p);
        let id = u32::try_from(self.props.len()).expect("proposition arena overflow");
        self.props.push(arc.clone());
        self.prop_metas.push(meta);
        self.prop_canon.insert(arc, id);
        id
    }

    fn prop_tree(&self, id: u32) -> Prop {
        (**self.prop_arc(id)).clone()
    }

    /// Flattens a connective chain into canonical member ids: `tt`/`ff`
    /// units are dropped, the absorbing element short-circuits (signalled
    /// by `None`), nested chains of the same connective splice in, and
    /// duplicates are dropped (keeping first-occurrence order — unlike
    /// union members, conjunct order is preserved because assumption
    /// replays them in sequence).
    fn flatten_chain(&mut self, p: &Prop, and: bool) -> Option<Vec<u32>> {
        let mut out: Vec<u32> = Vec::new();
        let mut stack: Vec<&Prop> = vec![p];
        let mut flat: Vec<u32> = Vec::new();
        while let Some(q) = stack.pop() {
            match (and, q) {
                (true, Prop::And(a, b)) | (false, Prop::Or(a, b)) => {
                    // Preserve left-to-right order on the stack.
                    stack.push(b);
                    stack.push(a);
                }
                _ => {
                    let id = self.prop(q);
                    let nested = if and {
                        self.prop_ands.get(&id)
                    } else {
                        self.prop_ors.get(&id)
                    };
                    match nested {
                        Some(members) => flat.extend(members.iter().copied()),
                        None => flat.push(id),
                    }
                }
            }
        }
        let (unit, absorb) = if and {
            (Prop::TT, Prop::FF)
        } else {
            (Prop::FF, Prop::TT)
        };
        let mut seen = HashSet::new();
        for id in flat {
            let tree = &**self.prop_arc(id);
            if *tree == unit {
                continue;
            }
            if *tree == absorb {
                return None;
            }
            if seen.insert(id) {
                out.push(id);
            }
        }
        Some(out)
    }

    fn prop(&mut self, p: &Prop) -> u32 {
        if let Some(&id) = self.prop_memo.get(p) {
            return id;
        }
        let id = match p {
            Prop::TT | Prop::FF | Prop::Lin(_) | Prop::Bv(_) | Prop::Str(_) => {
                self.insert_prop(p.clone())
            }
            Prop::Is(o, t) => {
                let (o, t) = (self.obj(o), self.ty(t));
                let candidate = Prop::is(self.obj_tree(o), self.ty_tree(t));
                self.insert_prop(candidate)
            }
            Prop::IsNot(o, t) => {
                let (o, t) = (self.obj(o), self.ty(t));
                let candidate = Prop::is_not(self.obj_tree(o), self.ty_tree(t));
                self.insert_prop(candidate)
            }
            Prop::Alias(o1, o2) => {
                let (o1, o2) = (self.obj(o1), self.obj(o2));
                let candidate = Prop::alias(self.obj_tree(o1), self.obj_tree(o2));
                self.insert_prop(candidate)
            }
            Prop::And(_, _) | Prop::Or(_, _) => {
                let and = matches!(p, Prop::And(_, _));
                match self.flatten_chain(p, and) {
                    None => self.insert_prop(if and { Prop::FF } else { Prop::TT }),
                    Some(ids) if ids.is_empty() => {
                        self.insert_prop(if and { Prop::TT } else { Prop::FF })
                    }
                    Some(ids) if ids.len() == 1 => ids[0],
                    Some(ids) => {
                        // Rebuild right-nested from canonical members.
                        let mut tree = self.prop_tree(ids[ids.len() - 1]);
                        for &id in ids[..ids.len() - 1].iter().rev() {
                            let member = self.prop_tree(id);
                            tree = if and {
                                Prop::And(Box::new(member), Box::new(tree))
                            } else {
                                Prop::Or(Box::new(member), Box::new(tree))
                            };
                        }
                        let id = self.insert_prop(tree);
                        if and {
                            self.prop_ands.entry(id).or_insert(ids);
                        } else {
                            self.prop_ors.entry(id).or_insert(ids);
                        }
                        id
                    }
                }
            }
        };
        if self.prop_memo.len() >= MEMO_CAP {
            self.prop_memo.clear();
        }
        self.prop_memo.insert(p.clone(), id);
        id
    }

    // --- objects -----------------------------------------------------------

    fn insert_obj(&mut self, o: Obj) -> u32 {
        if let Some(&id) = self.obj_canon.get(&o) {
            return id;
        }
        let mut fv = HashSet::new();
        o.free_vars(&mut fv);
        let mut sorted: Vec<Symbol> = fv.into_iter().collect();
        sorted.sort_unstable();
        let meta = ObjMeta {
            free_vars: sorted.into(),
        };
        let arc = Arc::new(o);
        let id = u32::try_from(self.objs.len()).expect("object arena overflow");
        self.objs.push(arc.clone());
        self.obj_metas.push(meta);
        self.obj_canon.insert(arc, id);
        id
    }

    fn obj_tree(&self, id: u32) -> Obj {
        (**self.obj_arc(id)).clone()
    }

    fn obj(&mut self, o: &Obj) -> u32 {
        if let Some(&id) = self.obj_memo.get(o) {
            return id;
        }
        let id = match o {
            Obj::Null | Obj::Path(_) | Obj::Lin(_) | Obj::Bv(_) | Obj::Str(_) | Obj::Re(_) => {
                self.insert_obj(o.clone())
            }
            Obj::Pair(a, b) => {
                let (a, b) = (self.obj(a), self.obj(b));
                // `Obj::pair` collapses ⟨∅,∅⟩ to ∅.
                let candidate = Obj::pair(self.obj_tree(a), self.obj_tree(b));
                self.insert_obj(candidate)
            }
        };
        if self.obj_memo.len() >= MEMO_CAP {
            self.obj_memo.clear();
        }
        self.obj_memo.insert(o.clone(), id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{LinCmp, Symbol};

    fn x() -> Symbol {
        Symbol::intern("ix")
    }

    #[test]
    fn interning_is_stable_and_o1_equal() {
        let t = Ty::pair(Ty::Int, Ty::bool_ty());
        assert_eq!(TyId::of(&t), TyId::of(&t.clone()));
        assert_ne!(TyId::of(&t), TyId::of(&Ty::Int));
        assert_eq!(*TyId::of(&Ty::Int).get(), Ty::Int);
    }

    #[test]
    fn unions_flatten_dedup_and_sort() {
        let a = Ty::Union(vec![Ty::Int, Ty::Union(vec![Ty::True, Ty::Int]), Ty::False]);
        let b = Ty::Union(vec![Ty::False, Ty::True, Ty::Int]);
        assert_eq!(TyId::of(&a), TyId::of(&b));
        // Canonical form is flat with unique members.
        match &*TyId::of(&a).get() {
            Ty::Union(ts) => {
                assert_eq!(ts.len(), 3);
                assert!(!ts.iter().any(|t| matches!(t, Ty::Union(_))));
            }
            other => panic!("expected union, got {other}"),
        }
        // Base-type members sort in structural rank order, so the
        // canonical boolean really is `Bool`.
        assert_eq!(
            canon_ty(&Ty::Union(vec![Ty::False, Ty::True])).to_string(),
            "Bool"
        );
    }

    #[test]
    fn singleton_and_empty_unions_normalize() {
        assert_eq!(TyId::of(&Ty::Union(vec![Ty::Int])), TyId::of(&Ty::Int));
        assert_eq!(
            TyId::of(&Ty::Union(vec![Ty::Int, Ty::Int])),
            TyId::of(&Ty::Int)
        );
        assert_eq!(
            TyId::of(&Ty::bot()),
            TyId::of(&Ty::Union(vec![Ty::bot(), Ty::bot()]))
        );
    }

    #[test]
    fn trivial_refinements_collapse() {
        let r = Ty::Refine(Box::new(RefineTy {
            var: x(),
            base: Ty::Int,
            prop: Prop::TT,
        }));
        assert_eq!(TyId::of(&r), TyId::of(&Ty::Int));
    }

    #[test]
    fn and_chains_flatten_with_units() {
        let p = Prop::lin(Obj::var(x()), LinCmp::Le, Obj::int(3));
        let q = Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(x()));
        let nested = Prop::And(
            Box::new(Prop::And(Box::new(p.clone()), Box::new(Prop::TT))),
            Box::new(Prop::And(Box::new(q.clone()), Box::new(p.clone()))),
        );
        let flat = Prop::And(Box::new(p.clone()), Box::new(q.clone()));
        assert_eq!(PropId::of(&nested), PropId::of(&flat));
        // ff absorbs.
        let absurd = Prop::And(Box::new(p.clone()), Box::new(Prop::FF));
        assert_eq!(PropId::of(&absurd), PropId::of(&Prop::FF));
        // Dually for or: tt absorbs, ff is the unit.
        let or = Prop::Or(Box::new(Prop::FF), Box::new(p.clone()));
        assert_eq!(PropId::of(&or), PropId::of(&p));
        let taut = Prop::Or(Box::new(p), Box::new(Prop::TT));
        assert_eq!(PropId::of(&taut), PropId::of(&Prop::TT));
    }

    #[test]
    fn null_objects_vacate_interned_atoms() {
        let p = Prop::Is(Obj::Null, Box::new(Ty::Int));
        assert_eq!(PropId::of(&p), PropId::of(&Prop::TT));
        assert_eq!(
            ObjId::of(&Obj::Pair(Box::new(Obj::Null), Box::new(Obj::Null))),
            ObjId::of(&Obj::Null)
        );
    }

    #[test]
    fn ids_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + Copy>() {}
        assert_send_sync::<TyId>();
        assert_send_sync::<PropId>();
        assert_send_sync::<ObjId>();
    }

    #[test]
    fn id_constructors_agree_with_tree_interning() {
        let int = TyId::of(&Ty::Int);
        let b = TyId::of(&Ty::bool_ty());
        assert_eq!(
            TyId::union_of(&[int, b]),
            TyId::of(&Ty::union_of(vec![Ty::Int, Ty::bool_ty()]))
        );
        assert_eq!(TyId::union_of(&[int]), int);
        assert_eq!(TyId::union_of(&[]), TyId::bot());
        assert_eq!(
            TyId::pair(int, b),
            TyId::of(&Ty::pair(Ty::Int, Ty::bool_ty()))
        );
        assert_eq!(TyId::vec(int), TyId::of(&Ty::vec(Ty::Int)));
        let psi = Prop::lin(Obj::var(x()), LinCmp::Le, Obj::int(5));
        assert_eq!(
            TyId::refine(x(), int, PropId::of(&psi)),
            TyId::of(&Ty::refine(x(), Ty::Int, psi))
        );
        // tt-refinements collapse at the id level too.
        assert_eq!(TyId::refine(x(), int, PropId::of(&Prop::TT)), int);
    }

    #[test]
    fn id_destructors_recover_structure() {
        let int = TyId::of(&Ty::Int);
        let b = TyId::of(&Ty::bool_ty());
        let p = TyId::pair(int, b);
        assert_eq!(p.pair_parts(), Some((int, b)));
        assert_eq!(int.pair_parts(), None);
        let u = TyId::union_of(&[int, p]);
        let ms = u.union_members().expect("union");
        assert_eq!(ms.len(), 2);
        assert!(ms.contains(&int) && ms.contains(&p));
        assert_eq!(TyId::vec(int).vec_elem(), Some(int));
        let psi = Prop::lin(Obj::var(x()), LinCmp::Le, Obj::int(5));
        let r = TyId::refine(x(), int, PropId::of(&psi));
        assert_eq!(r.refine_parts(), Some((x(), int, PropId::of(&psi))));
    }

    #[test]
    fn id_projection_matches_tree_projection() {
        let int = TyId::of(&Ty::Int);
        let b = TyId::of(&Ty::bool_ty());
        let p = TyId::pair(int, b);
        assert_eq!(p.project(Field::Fst), int);
        assert_eq!(p.project(Field::Snd), b);
        assert_eq!(p.project(Field::Len), int);
        // Unions project pointwise; refinements project through the base.
        let p2 = TyId::pair(b, int);
        let u = TyId::union_of(&[p, p2]);
        assert_eq!(u.project(Field::Fst), TyId::union_of(&[int, b]));
        let psi = Prop::lin(Obj::var(x()).len(), LinCmp::Le, Obj::int(5));
        let r = TyId::refine(x(), p, PropId::of(&psi));
        assert_eq!(r.project(Field::Fst), int);
        // Non-pairs project to ⊤.
        assert_eq!(int.project(Field::Fst), TyId::top());
    }

    #[test]
    fn per_id_metadata_is_cached() {
        let y = Symbol::intern("meta_y");
        let psi = Prop::lin(Obj::var(x()), LinCmp::Le, Obj::var(y));
        let t = Ty::refine(x(), Ty::Int, psi);
        let id = TyId::of(&t);
        assert!(!id.env_free());
        assert!(id.has_refinement());
        assert!(id.theory_mask() & THEORY_LIN != 0);
        assert!(id.mentions_var(y));
        assert!(!id.mentions_var(Symbol::intern("meta_absent")));
        assert!(!id.is_closed());
        let base = TyId::of(&Ty::pair(Ty::Int, Ty::bool_ty()));
        assert!(base.env_free());
        assert!(base.is_closed());
        assert_eq!(base.theory_mask(), 0);
        assert!(!base.has_refinement());
    }

    #[test]
    fn fresh_named_trees_of_one_scope_intern_once() {
        let key = Symbol::scope_key("intern test");
        let tree = || {
            let g = Symbol::fresh("ghost");
            let psi = Prop::lin(Obj::var(g), LinCmp::Le, Obj::int(1));
            Ty::refine(g, Ty::Int, psi)
        };
        let tid = TyId::of(&Symbol::scoped(key, tree));
        // The same scope mints the same ghost, so the tree is not new.
        let again = TyId::of(&Symbol::scoped(key, tree));
        assert_eq!(again, tid);
        assert_eq!(*tid.get(), *canon_ty(&Symbol::scoped(key, tree)));
        // Another scope's ghost is another tree.
        let other = Symbol::scoped(Symbol::scope_key("intern test 2"), tree);
        assert_ne!(TyId::of(&other), tid);
    }

    #[test]
    fn prop_and_obj_mention_sets_match_free_vars() {
        let y = Symbol::intern("pm_y");
        let p = Prop::and(
            Prop::lin(Obj::var(x()), LinCmp::Le, Obj::int(3)),
            Prop::is(Obj::var(y), Ty::Int),
        );
        let pid = PropId::of(&p);
        assert!(pid.mentions_var(x()));
        assert!(pid.mentions_var(y));
        assert!(!pid.mentions_var(Symbol::intern("pm_absent")));
        let o = Obj::pair(Obj::var(x()), Obj::var(y).len());
        let oid = ObjId::of(&o);
        assert!(oid.mentions_var(x()) && oid.mentions_var(y));
        assert!(!oid.mentions_var(Symbol::intern("pm_absent")));
    }
}
