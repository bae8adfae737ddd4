//! α-stable fingerprints for module items.
//!
//! The incremental module driver ([`crate::incremental`]) needs to ask
//! "is this the same definition I checked last time?" for *elaborated*
//! core terms. Structural equality is the wrong tool: the elaborator
//! mints fresh binder names (`ignored%N` for `begin` chains, loop
//! indices, …) and span [`crate::diag::NodeId`]s on every run, so two
//! elaborations of byte-identical source are only *α*-equivalent, never
//! equal. The fingerprint hashes the term modulo exactly those two
//! sources of noise:
//!
//! * **binders** are hashed by De Bruijn depth (two independent stacks:
//!   object variables and type variables), so fresh binder names vanish;
//! * **free names** are hashed by their *string* — module references
//!   must stay part of the key (Castagna et al.'s point: a verdict
//!   depends on the types of free references), and string hashing keeps
//!   the fingerprint stable across processes and intern orders;
//! * **spans** ([`Expr::Spanned`] wrappers and the items' node fields)
//!   are skipped entirely.
//!
//! The same traversal provides [`item_salt`] — the name-keyed salt for
//! per-item budget/chaos forks, stable under inserting or reordering
//! neighbouring definitions — and [`free_refs`], the item-level
//! dependency edges the driver's cutoff accounting uses.

use std::collections::HashSet;

use crate::module::ModuleItem;
use crate::syntax::{
    BvAtomProp, BvCmp, BvObj, Expr, Field, Lambda, LinAtom, LinCmp, LinObj, Obj, Path, Prop,
    StrAtomProp, StrObj, Symbol, Ty, TyResult,
};

const K1: u64 = 0x9E37_79B9_7F4A_7C15;
const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Stable 64-bit string hash (FNV-1a). Used for free names and for the
/// name-keyed item salt; must not depend on interner state.
pub(crate) fn str_hash(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The streaming 128-bit hasher: two 64-bit lanes mixed with distinct
/// odd multipliers, plus the two De Bruijn binder stacks.
struct Fp {
    lo: u64,
    hi: u64,
    /// Object-variable binders, innermost last.
    objs: Vec<Symbol>,
    /// Type-variable binders, innermost last.
    tvars: Vec<Symbol>,
}

impl Fp {
    fn new() -> Fp {
        Fp {
            lo: 0x0123_4567_89AB_CDEF,
            hi: 0xFEDC_BA98_7654_3210,
            objs: Vec::new(),
            tvars: Vec::new(),
        }
    }

    fn word(&mut self, w: u64) {
        self.lo = (self.lo.rotate_left(5) ^ w).wrapping_mul(K1);
        self.hi = (self.hi.rotate_left(9) ^ w).wrapping_mul(K2);
    }

    fn tag(&mut self, t: u8) {
        self.word(u64::from(t));
    }

    fn bytes(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = 0u64;
            for (i, b) in chunk.iter().enumerate() {
                w |= u64::from(*b) << (8 * i);
            }
            self.word(w);
        }
    }

    fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// An object-variable occurrence: De Bruijn depth when bound here,
    /// name string when free (a module-level reference).
    fn obj_var(&mut self, x: Symbol) {
        // Innermost binding wins, mirroring shadowing.
        match self.objs.iter().rposition(|&y| y == x) {
            Some(i) => {
                self.tag(0xB0);
                self.word((self.objs.len() - 1 - i) as u64);
            }
            None => self.free_name(x, 0xB1, 0xB4),
        }
    }

    /// A free user name hashes by spelling, stable across processes; a
    /// fresh one by its base's spelling, scope key and counter under its
    /// own tag, so it never meets a user identifier spelled like it
    /// (`x%7`) and never depends on the order scopes took their slots.
    fn free_name(&mut self, x: Symbol, tag: u8, fresh_tag: u8) {
        match x.scope_and_counter() {
            Some((key, n)) => {
                self.tag(fresh_tag);
                self.word(str_hash(x.base().as_str()));
                self.word(key);
                self.word(n);
            }
            None => {
                self.tag(tag);
                self.word(str_hash(x.as_str()));
            }
        }
    }

    fn ty_var(&mut self, a: Symbol) {
        match self.tvars.iter().rposition(|&b| b == a) {
            Some(i) => {
                self.tag(0xB2);
                self.word((self.tvars.len() - 1 - i) as u64);
            }
            None => self.free_name(a, 0xB3, 0xB5),
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            // Span wrappers are exactly the noise this hash exists to
            // ignore.
            Expr::Spanned(_, inner) => self.expr(inner),
            Expr::Var(x) => {
                self.tag(0x01);
                self.obj_var(*x);
            }
            Expr::Int(n) => {
                self.tag(0x02);
                self.word(*n as u64);
            }
            Expr::Bool(b) => {
                self.tag(0x03);
                self.word(u64::from(*b));
            }
            Expr::BvLit(v) => {
                self.tag(0x04);
                self.word(*v);
            }
            Expr::Str(s) => {
                self.tag(0x05);
                self.bytes(s);
            }
            Expr::ReLit(r) => {
                self.tag(0x06);
                self.bytes(&r.to_string());
            }
            Expr::Prim(p) => {
                self.tag(0x07);
                self.bytes(p.name());
            }
            Expr::Lam(l) => {
                self.tag(0x08);
                self.lambda(l);
            }
            Expr::App(f, args) => {
                self.tag(0x09);
                self.expr(f);
                self.word(args.len() as u64);
                for a in args {
                    self.expr(a);
                }
            }
            Expr::If(c, t, e) => {
                self.tag(0x0A);
                self.expr(c);
                self.expr(t);
                self.expr(e);
            }
            Expr::Let(x, rhs, body) => {
                self.tag(0x0B);
                self.expr(rhs);
                self.objs.push(*x);
                self.expr(body);
                self.objs.pop();
            }
            Expr::LetRec(f, ty, lam, body) => {
                self.tag(0x0C);
                self.objs.push(*f);
                self.ty(ty);
                self.lambda(lam);
                self.expr(body);
                self.objs.pop();
            }
            Expr::Cons(a, b) => {
                self.tag(0x0D);
                self.expr(a);
                self.expr(b);
            }
            Expr::Fst(a) => {
                self.tag(0x0E);
                self.expr(a);
            }
            Expr::Snd(a) => {
                self.tag(0x0F);
                self.expr(a);
            }
            Expr::VecLit(es) => {
                self.tag(0x10);
                self.word(es.len() as u64);
                for e in es {
                    self.expr(e);
                }
            }
            Expr::Ann(e, t) => {
                self.tag(0x11);
                self.expr(e);
                self.ty(t);
            }
            Expr::Error(msg) => {
                self.tag(0x12);
                self.bytes(msg);
            }
            Expr::Set(x, e) => {
                self.tag(0x13);
                self.obj_var(*x);
                self.expr(e);
            }
            Expr::Begin(es) => {
                self.tag(0x14);
                self.word(es.len() as u64);
                for e in es {
                    self.expr(e);
                }
            }
        }
    }

    fn lambda(&mut self, l: &Lambda) {
        let base = self.objs.len();
        self.word(l.params.len() as u64);
        // Each parameter type is hashed with the *earlier* parameters in
        // scope, the discipline `FunTy` documents for dependent domains.
        for (x, t) in &l.params {
            self.ty(t);
            self.objs.push(*x);
        }
        self.expr(&l.body);
        self.objs.truncate(base);
    }

    fn ty(&mut self, t: &Ty) {
        match t {
            Ty::Top => self.tag(0x20),
            Ty::Int => self.tag(0x21),
            Ty::True => self.tag(0x22),
            Ty::False => self.tag(0x23),
            Ty::Unit => self.tag(0x24),
            Ty::BitVec => self.tag(0x25),
            Ty::Str => self.tag(0x26),
            Ty::Regex => self.tag(0x27),
            Ty::Pair(a, b) => {
                self.tag(0x28);
                self.ty(a);
                self.ty(b);
            }
            Ty::Vec(e) => {
                self.tag(0x29);
                self.ty(e);
            }
            Ty::Union(ts) => {
                self.tag(0x2A);
                self.word(ts.len() as u64);
                for t in ts {
                    self.ty(t);
                }
            }
            Ty::Fun(f) => {
                self.tag(0x2B);
                let base = self.objs.len();
                self.word(f.params.len() as u64);
                for (x, t) in &f.params {
                    self.ty(t);
                    self.objs.push(*x);
                }
                self.ty_result(&f.range);
                self.objs.truncate(base);
            }
            Ty::Refine(r) => {
                self.tag(0x2C);
                // The refinement variable binds in `prop` only, not in
                // `base` (see `RefineTy`'s free-variable discipline).
                self.ty(&r.base);
                self.objs.push(r.var);
                self.prop(&r.prop);
                self.objs.pop();
            }
            Ty::TVar(a) => {
                self.tag(0x2D);
                self.ty_var(*a);
            }
            Ty::Poly(p) => {
                self.tag(0x2E);
                let base = self.tvars.len();
                self.word(p.vars.len() as u64);
                self.tvars.extend(p.vars.iter().copied());
                self.ty(&p.body);
                self.tvars.truncate(base);
            }
        }
    }

    fn ty_result(&mut self, r: &TyResult) {
        let base = self.objs.len();
        self.word(r.existentials.len() as u64);
        // Existentials scope over everything to their right.
        for (x, t) in &r.existentials {
            self.ty(t);
            self.objs.push(*x);
        }
        self.ty(&r.ty);
        self.prop(&r.then_p);
        self.prop(&r.else_p);
        self.obj(&r.obj);
        self.objs.truncate(base);
    }

    fn prop(&mut self, p: &Prop) {
        match p {
            Prop::TT => self.tag(0x40),
            Prop::FF => self.tag(0x41),
            Prop::Is(o, t) => {
                self.tag(0x42);
                self.obj(o);
                self.ty(t);
            }
            Prop::IsNot(o, t) => {
                self.tag(0x43);
                self.obj(o);
                self.ty(t);
            }
            Prop::And(a, b) => {
                self.tag(0x44);
                self.prop(a);
                self.prop(b);
            }
            Prop::Or(a, b) => {
                self.tag(0x45);
                self.prop(a);
                self.prop(b);
            }
            Prop::Alias(a, b) => {
                self.tag(0x46);
                self.obj(a);
                self.obj(b);
            }
            Prop::Lin(a) => {
                self.tag(0x47);
                self.lin_atom(a);
            }
            Prop::Bv(a) => {
                self.tag(0x48);
                self.bv_atom(a);
            }
            Prop::Str(a) => {
                self.tag(0x49);
                self.str_atom(a);
            }
        }
    }

    fn obj(&mut self, o: &Obj) {
        match o {
            Obj::Null => self.tag(0x50),
            Obj::Path(p) => {
                self.tag(0x51);
                self.path(p);
            }
            Obj::Pair(a, b) => {
                self.tag(0x52);
                self.obj(a);
                self.obj(b);
            }
            Obj::Lin(l) => {
                self.tag(0x53);
                self.lin_obj(l);
            }
            Obj::Bv(b) => {
                self.tag(0x54);
                self.bv_obj(b);
            }
            Obj::Str(s) => {
                self.tag(0x55);
                self.bytes(s);
            }
            Obj::Re(r) => {
                self.tag(0x56);
                self.bytes(&r.to_string());
            }
        }
    }

    fn path(&mut self, p: &Path) {
        self.obj_var(p.base);
        let fields = p.fields();
        self.word(fields.len() as u64);
        for f in fields {
            self.tag(match f {
                Field::Fst => 0x60,
                Field::Snd => 0x61,
                Field::Len => 0x62,
            });
        }
    }

    fn lin_obj(&mut self, l: &LinObj) {
        self.word(l.constant as u64);
        self.word(l.terms().len() as u64);
        for (c, p) in l.terms() {
            self.word(c as u64);
            self.path(&p);
        }
    }

    fn lin_atom(&mut self, a: &LinAtom) {
        self.lin_obj(&a.lhs);
        self.tag(match a.cmp {
            LinCmp::Lt => 0x70,
            LinCmp::Le => 0x71,
            LinCmp::Eq => 0x72,
            LinCmp::Ne => 0x73,
        });
        self.lin_obj(&a.rhs);
    }

    fn bv_obj(&mut self, b: &BvObj) {
        match b {
            BvObj::Const(v) => {
                self.tag(0x80);
                self.word(*v);
            }
            BvObj::Path(p) => {
                self.tag(0x81);
                self.path(p);
            }
            BvObj::Not(a) => {
                self.tag(0x82);
                self.bv_obj(a);
            }
            BvObj::And(a, b) => {
                self.tag(0x83);
                self.bv_obj(a);
                self.bv_obj(b);
            }
            BvObj::Or(a, b) => {
                self.tag(0x84);
                self.bv_obj(a);
                self.bv_obj(b);
            }
            BvObj::Xor(a, b) => {
                self.tag(0x85);
                self.bv_obj(a);
                self.bv_obj(b);
            }
            BvObj::Add(a, b) => {
                self.tag(0x86);
                self.bv_obj(a);
                self.bv_obj(b);
            }
            BvObj::Sub(a, b) => {
                self.tag(0x87);
                self.bv_obj(a);
                self.bv_obj(b);
            }
            BvObj::Mul(a, b) => {
                self.tag(0x88);
                self.bv_obj(a);
                self.bv_obj(b);
            }
        }
    }

    fn bv_atom(&mut self, a: &BvAtomProp) {
        self.bv_obj(&a.lhs);
        self.tag(match a.cmp {
            BvCmp::Eq => 0x90,
            BvCmp::Ule => 0x91,
            BvCmp::Ult => 0x92,
        });
        self.bv_obj(&a.rhs);
        self.word(u64::from(a.positive));
    }

    fn str_atom(&mut self, a: &StrAtomProp) {
        match &a.lhs {
            StrObj::Const(s) => {
                self.tag(0xA0);
                self.bytes(s);
            }
            StrObj::Path(p) => {
                self.tag(0xA1);
                self.path(p);
            }
        }
        self.bytes(&a.re.to_string());
        self.word(u64::from(a.positive));
    }
}

/// The α-stable fingerprint of one elaborated module item: a 128-bit
/// stable hash of the item kind, its (exported) name, its declared
/// signature and its core term, independent of spans, `NodeId`s and
/// elaborator-minted fresh binder names. Free references hash by name —
/// the part of the key that ties a verdict to the definitions it reads.
pub fn item_fingerprint(item: &ModuleItem) -> u128 {
    let mut fp = Fp::new();
    match item {
        ModuleItem::DefineRec { name, sig, lam, .. } => {
            fp.tag(0xD1);
            fp.bytes(name.as_str());
            fp.ty(sig);
            fp.lambda(lam);
        }
        ModuleItem::Define { name, sig, rhs, .. } => {
            fp.tag(0xD2);
            fp.bytes(name.as_str());
            match sig {
                Some(t) => {
                    fp.word(1);
                    fp.ty(t);
                }
                None => fp.word(0),
            }
            fp.expr(rhs);
        }
        ModuleItem::Expr { expr, .. } => {
            fp.tag(0xD3);
            fp.expr(expr);
        }
        ModuleItem::Opaque { name, ty } => {
            fp.tag(0xD4);
            fp.bytes(name.as_str());
            fp.ty(ty);
        }
    }
    fp.finish()
}

/// A structural hash of a type, by the same traversal as
/// [`item_fingerprint`]: names hash by spelling (fresh ones by base,
/// scope key and counter), so the key depends only on the type, never
/// on what else the process interned. The interner orders union members
/// by it.
pub(crate) fn ty_key(t: &Ty) -> u64 {
    let mut fp = Fp::new();
    fp.ty(t);
    fp.finish() as u64
}

/// The budget/chaos salt for an item's per-item checker fork. Keyed by
/// the item's *name* (or, for anonymous trailing expressions, the low
/// bits of its term fingerprint) rather than its position, so chaos
/// schedules and budget replay stay stable when an edit inserts,
/// removes or reorders neighbouring definitions.
pub fn item_salt(item: &ModuleItem) -> u64 {
    match item.name() {
        Some(name) => str_hash(name.as_str()),
        None => item_fingerprint(item) as u64,
    }
}

/// The free references of an item: every module-level name its check can
/// read (term free variables, including names read by the types written
/// in the term, plus names mentioned by the declared signature's
/// dependent positions), minus the item's own recursive binding. Sorted
/// by symbol, so membership is a binary search. These are the edges of the item-level dependency
/// graph: the incremental driver splices an item past a changed binding
/// only when the changed name is not among them, so a name missing here
/// is a stale verdict.
pub fn free_refs(item: &ModuleItem) -> Vec<Symbol> {
    let mut set: HashSet<Symbol> = HashSet::new();
    match item {
        ModuleItem::DefineRec { name, sig, lam, .. } => {
            Expr::Lam(lam.clone()).free_vars(&mut set);
            sig.free_obj_vars(&mut set);
            set.remove(name);
        }
        ModuleItem::Define { sig, rhs, .. } => {
            rhs.free_vars(&mut set);
            if let Some(t) = sig {
                t.free_obj_vars(&mut set);
            }
        }
        ModuleItem::Expr { expr, .. } => expr.free_vars(&mut set),
        ModuleItem::Opaque { ty, .. } => ty.free_obj_vars(&mut set),
    }
    let mut out: Vec<Symbol> = set.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Span, SpanTable};
    use crate::syntax::Ty;
    use std::sync::Arc;

    fn s(n: &str) -> Symbol {
        Symbol::intern(n)
    }

    fn rec_item(name: &str, param: &str, body: Expr) -> ModuleItem {
        ModuleItem::DefineRec {
            name: s(name),
            sig: Ty::fun(vec![(s(param), Ty::Int)], TyResult::of_type(Ty::Int)),
            lam: Arc::new(Lambda {
                params: vec![(s(param), Ty::Top)],
                body,
            }),
            node: None,
            sig_node: None,
        }
    }

    #[test]
    fn spans_and_nodes_are_ignored() {
        let mut spans = SpanTable::new();
        let n1 = spans.insert(Span::default());
        let n2 = spans.insert(Span::default());
        let n3 = spans.insert(Span::default());
        let plain = rec_item("f", "x", Expr::Var(s("x")));
        let spanned = ModuleItem::DefineRec {
            name: s("f"),
            sig: Ty::fun(vec![(s("x"), Ty::Int)], TyResult::of_type(Ty::Int)),
            lam: Arc::new(Lambda {
                params: vec![(s("x"), Ty::Top)],
                body: Expr::spanned(n3, Expr::Var(s("x"))),
            }),
            node: Some(n1),
            sig_node: Some(n2),
        };
        assert_eq!(item_fingerprint(&plain), item_fingerprint(&spanned));
    }

    #[test]
    fn bound_names_are_alpha_stable_but_free_names_are_not() {
        // (λ x. let a = x in a) ≡α (λ x. let b = x in b)
        let via_a = rec_item(
            "g",
            "x",
            Expr::let_(s("tmp_a"), Expr::Var(s("x")), Expr::Var(s("tmp_a"))),
        );
        let via_b = rec_item(
            "g",
            "x",
            Expr::let_(s("tmp_b"), Expr::Var(s("x")), Expr::Var(s("tmp_b"))),
        );
        assert_eq!(item_fingerprint(&via_a), item_fingerprint(&via_b));

        // A *free* reference renamed is a different item.
        let calls_h = rec_item(
            "g",
            "x",
            Expr::app(Expr::Var(s("h")), vec![Expr::Var(s("x"))]),
        );
        let calls_k = rec_item(
            "g",
            "x",
            Expr::app(Expr::Var(s("k")), vec![Expr::Var(s("x"))]),
        );
        assert_ne!(item_fingerprint(&calls_h), item_fingerprint(&calls_k));

        // Shadowing: an inner binder must not capture the free hash.
        let shadowed = rec_item(
            "g",
            "x",
            Expr::let_(s("h"), Expr::Int(1), Expr::Var(s("h"))),
        );
        let not_shadowed = rec_item(
            "g",
            "x",
            Expr::let_(s("q"), Expr::Int(1), Expr::Var(s("h"))),
        );
        assert_ne!(item_fingerprint(&shadowed), item_fingerprint(&not_shadowed));
    }

    #[test]
    fn renaming_the_item_changes_the_fingerprint_and_salt() {
        let f = rec_item("ren_f", "x", Expr::Var(s("x")));
        let g = rec_item("ren_g", "x", Expr::Var(s("x")));
        assert_ne!(item_fingerprint(&f), item_fingerprint(&g));
        assert_ne!(item_salt(&f), item_salt(&g));
        // The salt is purely name-keyed for definitions.
        let f2 = rec_item("ren_f", "y", Expr::Int(0));
        assert_eq!(item_salt(&f), item_salt(&f2));
    }

    #[test]
    fn free_refs_cover_body_and_signature_minus_self() {
        let item = ModuleItem::DefineRec {
            name: s("fr_f"),
            sig: Ty::fun(vec![(s("x"), Ty::Int)], TyResult::of_type(Ty::Int)),
            lam: Arc::new(Lambda {
                params: vec![(s("x"), Ty::Top)],
                body: Expr::app(
                    Expr::Var(s("fr_f")),
                    vec![Expr::app(Expr::Var(s("fr_g")), vec![Expr::Var(s("x"))])],
                ),
            }),
            node: None,
            sig_node: None,
        };
        let refs = free_refs(&item);
        assert!(refs.contains(&s("fr_g")));
        assert!(!refs.contains(&s("fr_f")), "self-reference excluded");
        assert!(!refs.contains(&s("x")), "parameters are bound");
    }

    #[test]
    fn free_refs_cover_names_read_by_types_written_in_the_body() {
        // A refinement `{n : Int | (! <name> False)}`.
        let naming = |name: &str| {
            Ty::refine(
                s("n"),
                Ty::Int,
                crate::syntax::Prop::is_not(crate::syntax::Obj::var(s(name)), Ty::False),
            )
        };
        let body = Expr::Begin(vec![
            Expr::ann(Expr::Var(s("x")), naming("frt_ann")),
            Expr::lam(vec![(s("y"), naming("frt_param"))], Expr::Var(s("y"))),
            Expr::ann(Expr::Var(s("x")), naming("x")),
        ]);
        let refs = free_refs(&rec_item("frt_f", "x", body));
        assert!(refs.contains(&s("frt_ann")), "{refs:?}");
        assert!(refs.contains(&s("frt_param")), "{refs:?}");
        assert!(
            !refs.contains(&s("x")),
            "a bound name stays bound: {refs:?}"
        );
    }
}
