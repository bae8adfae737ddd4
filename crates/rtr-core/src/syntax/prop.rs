//! Propositions (Fig. 2): the logic at the core of occurrence typing,
//! extended with aliasing and theory atoms.

use std::fmt;
use std::sync::Arc;

use rtr_solver::re::Regex;

use super::obj::{BvObj, LinObj, Obj, StrObj};
use super::symbol::Symbol;
use super::ty::Ty;

/// Comparison operator of a linear-arithmetic proposition (χ_LI, §3.4:
/// `o < o | o ≤ o`, closed under negation with `=`/`≠` for convenience).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinCmp {
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `=`
    Eq,
    /// `≠`
    Ne,
}

/// A linear-arithmetic atom `lhs ⋈ rhs`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LinAtom {
    /// Left operand.
    pub lhs: LinObj,
    /// Comparison.
    pub cmp: LinCmp,
    /// Right operand.
    pub rhs: LinObj,
}

impl LinAtom {
    /// The negated atom (`¬(a < b)` is `b ≤ a`, etc.).
    pub fn negate(&self) -> LinAtom {
        match self.cmp {
            LinCmp::Lt => LinAtom {
                lhs: self.rhs.clone(),
                cmp: LinCmp::Le,
                rhs: self.lhs.clone(),
            },
            LinCmp::Le => LinAtom {
                lhs: self.rhs.clone(),
                cmp: LinCmp::Lt,
                rhs: self.lhs.clone(),
            },
            LinCmp::Eq => LinAtom {
                lhs: self.lhs.clone(),
                cmp: LinCmp::Ne,
                rhs: self.rhs.clone(),
            },
            LinCmp::Ne => LinAtom {
                lhs: self.lhs.clone(),
                cmp: LinCmp::Eq,
                rhs: self.rhs.clone(),
            },
        }
    }
}

impl LinAtom {
    /// Does either side mention variable `x`? Matches the variable set
    /// [`Prop::free_vars`] reports for the wrapped atom, without building
    /// a proposition or allocating.
    pub fn mentions_var(&self, x: Symbol) -> bool {
        self.lhs.mentions_var(x) || self.rhs.mentions_var(x)
    }
}

impl fmt::Display for LinAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.cmp {
            LinCmp::Lt => "<",
            LinCmp::Le => "≤",
            LinCmp::Eq => "=",
            LinCmp::Ne => "≠",
        };
        write!(f, "({} {op} {})", self.lhs, self.rhs)
    }
}

/// Comparison operator of a bitvector proposition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BvCmp {
    /// `=`
    Eq,
    /// unsigned `≤`
    Ule,
    /// unsigned `<`
    Ult,
}

/// A bitvector atom `lhs ⋈ rhs`, with a polarity so that the grammar is
/// closed under negation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BvAtomProp {
    /// Left operand.
    pub lhs: BvObj,
    /// Comparison.
    pub cmp: BvCmp,
    /// Right operand.
    pub rhs: BvObj,
    /// `false` for the negated atom.
    pub positive: bool,
}

impl BvAtomProp {
    /// The negated atom.
    pub fn negate(&self) -> BvAtomProp {
        BvAtomProp {
            positive: !self.positive,
            ..self.clone()
        }
    }
}

impl BvAtomProp {
    /// Does either side mention variable `x`? See [`LinAtom::mentions_var`].
    pub fn mentions_var(&self, x: Symbol) -> bool {
        self.lhs.mentions_var(x) || self.rhs.mentions_var(x)
    }
}

impl fmt::Display for BvAtomProp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.cmp {
            BvCmp::Eq => "=bv",
            BvCmp::Ule => "≤bv",
            BvCmp::Ult => "<bv",
        };
        if self.positive {
            write!(f, "({} {op} {})", self.lhs, self.rhs)
        } else {
            write!(f, "¬({} {op} {})", self.lhs, self.rhs)
        }
    }
}

/// A regex-membership atom `lhs ∈ L(re)` (theory RE, the §7 extension),
/// with a polarity so the grammar is closed under negation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StrAtomProp {
    /// The string-valued term being tested.
    pub lhs: StrObj,
    /// The regular expression (always a literal — regexes are not
    /// first-class in the theory).
    pub re: Arc<Regex>,
    /// `false` for the negated atom (`∉`).
    pub positive: bool,
}

impl StrAtomProp {
    /// The negated atom.
    pub fn negate(&self) -> StrAtomProp {
        StrAtomProp {
            positive: !self.positive,
            ..self.clone()
        }
    }
}

impl StrAtomProp {
    /// Does the subject mention variable `x`? See [`LinAtom::mentions_var`].
    pub fn mentions_var(&self, x: Symbol) -> bool {
        self.lhs.mentions_var(x)
    }
}

impl fmt::Display for StrAtomProp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = if self.positive { "=~" } else { "!~" };
        write!(f, "({} {op} #rx\"{}\")", self.lhs, self.re)
    }
}

/// A proposition ψ (Fig. 2).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Prop {
    /// The trivial proposition `tt`.
    TT,
    /// The absurd proposition `ff`.
    FF,
    /// `o ∈ τ` — object `o` has type `τ`.
    Is(Obj, Box<Ty>),
    /// `o ∉ τ` — object `o` does not have type `τ`.
    IsNot(Obj, Box<Ty>),
    /// Conjunction.
    And(Box<Prop>, Box<Prop>),
    /// Disjunction.
    Or(Box<Prop>, Box<Prop>),
    /// Object aliasing `o₁ ≡ o₂`.
    Alias(Obj, Obj),
    /// A linear-arithmetic theory atom.
    Lin(LinAtom),
    /// A bitvector theory atom.
    Bv(BvAtomProp),
    /// A regex-membership theory atom.
    Str(StrAtomProp),
}

impl Prop {
    /// `o ∈ τ`; vacuous (`tt`) when `o` is the null object (§3.1).
    pub fn is(o: Obj, ty: Ty) -> Prop {
        if o.is_null() {
            Prop::TT
        } else {
            Prop::Is(o, Box::new(ty))
        }
    }

    /// `o ∉ τ`; vacuous when `o` is the null object.
    pub fn is_not(o: Obj, ty: Ty) -> Prop {
        if o.is_null() {
            Prop::TT
        } else {
            Prop::IsNot(o, Box::new(ty))
        }
    }

    /// Conjunction with unit/absorption simplification.
    pub fn and(p: Prop, q: Prop) -> Prop {
        match (p, q) {
            (Prop::TT, q) => q,
            (p, Prop::TT) => p,
            (Prop::FF, _) | (_, Prop::FF) => Prop::FF,
            (p, q) => Prop::And(Box::new(p), Box::new(q)),
        }
    }

    /// Disjunction with unit/absorption simplification.
    pub fn or(p: Prop, q: Prop) -> Prop {
        match (p, q) {
            (Prop::FF, q) => q,
            (p, Prop::FF) => p,
            (Prop::TT, _) | (_, Prop::TT) => Prop::TT,
            (p, q) => Prop::Or(Box::new(p), Box::new(q)),
        }
    }

    /// Aliasing `o₁ ≡ o₂`; vacuous when either side is null.
    pub fn alias(o1: Obj, o2: Obj) -> Prop {
        if o1.is_null() || o2.is_null() {
            Prop::TT
        } else {
            Prop::Alias(o1, o2)
        }
    }

    /// A linear atom `lhs ⋈ rhs` over liftable objects; vacuous otherwise.
    pub fn lin(lhs: Obj, cmp: LinCmp, rhs: Obj) -> Prop {
        match (lhs.as_lin(), rhs.as_lin()) {
            (Some(lhs), Some(rhs)) => Prop::Lin(LinAtom { lhs, cmp, rhs }),
            _ => Prop::TT,
        }
    }

    /// A bitvector atom over liftable objects; vacuous otherwise.
    pub fn bv(lhs: Obj, cmp: BvCmp, rhs: Obj) -> Prop {
        match (lhs.as_bv(), rhs.as_bv()) {
            (Some(lhs), Some(rhs)) => Prop::Bv(BvAtomProp {
                lhs,
                cmp,
                rhs,
                positive: true,
            }),
            _ => Prop::TT,
        }
    }

    /// A regex-membership atom `lhs ∈ L(re)` when `lhs` is string-like and
    /// `re` is a regex literal; vacuous otherwise.
    pub fn re_match(lhs: &Obj, re: &Obj) -> Prop {
        match (lhs.as_str_obj(), re.as_re()) {
            (Some(lhs), Some(re)) => Prop::Str(StrAtomProp {
                lhs,
                re,
                positive: true,
            }),
            _ => Prop::TT,
        }
    }

    /// Logical negation, when representable in the grammar.
    ///
    /// Aliasing has no negative form, so propositions containing it return
    /// `None`; callers treat unnegatable propositions conservatively.
    pub fn negate(&self) -> Option<Prop> {
        Some(match self {
            Prop::TT => Prop::FF,
            Prop::FF => Prop::TT,
            Prop::Is(o, t) => Prop::IsNot(o.clone(), t.clone()),
            Prop::IsNot(o, t) => Prop::Is(o.clone(), t.clone()),
            Prop::And(p, q) => Prop::or(p.negate()?, q.negate()?),
            Prop::Or(p, q) => Prop::and(p.negate()?, q.negate()?),
            Prop::Alias(_, _) => return None,
            Prop::Lin(a) => Prop::Lin(a.negate()),
            Prop::Bv(a) => Prop::Bv(a.negate()),
            Prop::Str(a) => Prop::Str(a.negate()),
        })
    }

    /// Capture-avoiding substitution `self[x ↦ rep]`. Atoms whose objects
    /// collapse to null become `tt` and are thereby discarded (§3.1).
    pub fn subst(&self, x: Symbol, rep: &Obj) -> Prop {
        match self {
            Prop::TT => Prop::TT,
            Prop::FF => Prop::FF,
            Prop::Is(o, t) => Prop::is(o.subst(x, rep), t.subst_obj(x, rep)),
            Prop::IsNot(o, t) => Prop::is_not(o.subst(x, rep), t.subst_obj(x, rep)),
            Prop::And(p, q) => Prop::and(p.subst(x, rep), q.subst(x, rep)),
            Prop::Or(p, q) => Prop::or(p.subst(x, rep), q.subst(x, rep)),
            Prop::Alias(o1, o2) => Prop::alias(o1.subst(x, rep), o2.subst(x, rep)),
            Prop::Lin(a) => {
                let lhs = Obj::Lin(a.lhs.clone()).subst(x, rep);
                let rhs = Obj::Lin(a.rhs.clone()).subst(x, rep);
                Prop::lin(lhs, a.cmp, rhs)
            }
            Prop::Bv(a) => {
                let lhs = Obj::Bv(a.lhs.clone()).subst(x, rep);
                let rhs = Obj::Bv(a.rhs.clone()).subst(x, rep);
                let p = Prop::bv(lhs, a.cmp, rhs);
                if a.positive {
                    p
                } else {
                    match p {
                        Prop::Bv(atom) => Prop::Bv(atom.negate()),
                        other => other, // collapsed to TT
                    }
                }
            }
            Prop::Str(a) => {
                let lhs = match &a.lhs {
                    StrObj::Const(_) => return self.clone(),
                    StrObj::Path(p) => Obj::Path(*p).subst(x, rep),
                };
                let p = Prop::re_match(&lhs, &Obj::Re(a.re.clone()));
                if a.positive {
                    p
                } else {
                    match p {
                        Prop::Str(atom) => Prop::Str(atom.negate()),
                        other => other, // collapsed to TT
                    }
                }
            }
        }
    }

    /// Substitutes type variables inside embedded types.
    pub fn subst_tvars(&self, map: &std::collections::HashMap<Symbol, Ty>) -> Prop {
        match self {
            Prop::Is(o, t) => Prop::Is(o.clone(), Box::new(t.subst_tvars(map))),
            Prop::IsNot(o, t) => Prop::IsNot(o.clone(), Box::new(t.subst_tvars(map))),
            Prop::And(p, q) => Prop::and(p.subst_tvars(map), q.subst_tvars(map)),
            Prop::Or(p, q) => Prop::or(p.subst_tvars(map), q.subst_tvars(map)),
            _ => self.clone(),
        }
    }

    /// Collects free type variables from embedded types.
    pub fn free_tvars(&self, out: &mut std::collections::HashSet<Symbol>) {
        match self {
            Prop::Is(_, t) | Prop::IsNot(_, t) => t.free_tvars(out),
            Prop::And(p, q) | Prop::Or(p, q) => {
                p.free_tvars(out);
                q.free_tvars(out);
            }
            _ => {}
        }
    }

    /// Does `x` occur free (object level)? Early-exit, allocation-free
    /// counterpart of [`Prop::free_vars`] — like it, looks only at
    /// proposition-level objects, not at types embedded in atoms.
    pub fn mentions_var(&self, x: Symbol) -> bool {
        let mut is_x = |v: Symbol| v == x;
        match self {
            Prop::TT | Prop::FF => false,
            Prop::Is(o, _) | Prop::IsNot(o, _) => o.find_var(&mut is_x).is_some(),
            Prop::And(p, q) | Prop::Or(p, q) => p.mentions_var(x) || q.mentions_var(x),
            Prop::Alias(o1, o2) => {
                o1.find_var(&mut is_x).is_some() || o2.find_var(&mut is_x).is_some()
            }
            Prop::Lin(a) => a.mentions_var(x),
            Prop::Bv(a) => a.mentions_var(x),
            Prop::Str(a) => a.mentions_var(x),
        }
    }

    /// Collects free (object-level) variables.
    pub fn free_vars(&self, out: &mut std::collections::HashSet<Symbol>) {
        match self {
            Prop::TT | Prop::FF => {}
            Prop::Is(o, _) | Prop::IsNot(o, _) => o.free_vars(out),
            Prop::And(p, q) | Prop::Or(p, q) => {
                p.free_vars(out);
                q.free_vars(out);
            }
            Prop::Alias(o1, o2) => {
                o1.free_vars(out);
                o2.free_vars(out);
            }
            Prop::Lin(a) => {
                Obj::Lin(a.lhs.clone()).free_vars(out);
                Obj::Lin(a.rhs.clone()).free_vars(out);
            }
            Prop::Bv(a) => {
                Obj::Bv(a.lhs.clone()).free_vars(out);
                Obj::Bv(a.rhs.clone()).free_vars(out);
            }
            Prop::Str(a) => {
                if let StrObj::Path(p) = &a.lhs {
                    out.insert(p.base);
                }
            }
        }
    }
}

impl fmt::Display for Prop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prop::TT => write!(f, "tt"),
            Prop::FF => write!(f, "ff"),
            Prop::Is(o, t) => write!(f, "{o} ∈ {t}"),
            Prop::IsNot(o, t) => write!(f, "{o} ∉ {t}"),
            Prop::And(p, q) => write!(f, "({p} ∧ {q})"),
            Prop::Or(p, q) => write!(f, "({p} ∨ {q})"),
            Prop::Alias(o1, o2) => write!(f, "{o1} ≡ {o2}"),
            Prop::Lin(a) => write!(f, "{a}"),
            Prop::Bv(a) => write!(f, "{a}"),
            Prop::Str(a) => write!(f, "{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Symbol {
        Symbol::intern("x")
    }
    fn y() -> Symbol {
        Symbol::intern("y")
    }

    #[test]
    fn null_objects_vacate_propositions() {
        assert_eq!(Prop::is(Obj::Null, Ty::Int), Prop::TT);
        assert_eq!(Prop::is_not(Obj::Null, Ty::Int), Prop::TT);
        assert_eq!(Prop::alias(Obj::Null, Obj::var(x())), Prop::TT);
        assert_eq!(Prop::lin(Obj::Null, LinCmp::Le, Obj::int(3)), Prop::TT);
    }

    #[test]
    fn connective_simplification() {
        let p = Prop::is(Obj::var(x()), Ty::Int);
        assert_eq!(Prop::and(Prop::TT, p.clone()), p);
        assert_eq!(Prop::and(Prop::FF, p.clone()), Prop::FF);
        assert_eq!(Prop::or(Prop::FF, p.clone()), p);
        assert_eq!(Prop::or(Prop::TT, p.clone()), Prop::TT);
    }

    #[test]
    fn negation_round_trips() {
        let p = Prop::and(
            Prop::is(Obj::var(x()), Ty::Int),
            Prop::lin(Obj::var(x()), LinCmp::Lt, Obj::var(y())),
        );
        let n = p.negate().unwrap();
        // ¬(x∈Int ∧ x<y) = x∉Int ∨ y≤x
        assert_eq!(
            n,
            Prop::or(
                Prop::is_not(Obj::var(x()), Ty::Int),
                Prop::lin(Obj::var(y()), LinCmp::Le, Obj::var(x())),
            )
        );
        assert_eq!(n.negate().unwrap().negate().unwrap(), n);
        // Aliases are not negatable.
        let a = Prop::alias(Obj::var(x()), Obj::var(y()));
        assert_eq!(a.negate(), None);
    }

    #[test]
    fn substitution_discards_collapsed_atoms() {
        // (x < 3)[x ↦ ∅] = tt
        let p = Prop::lin(Obj::var(x()), LinCmp::Lt, Obj::int(3));
        assert_eq!(p.subst(x(), &Obj::Null), Prop::TT);
        // (x < 3)[x ↦ y+1] = (y+1 < 3)
        let q = p.subst(x(), &Obj::var(y()).add(&Obj::int(1)));
        assert_eq!(
            q,
            Prop::lin(Obj::var(y()).add(&Obj::int(1)), LinCmp::Lt, Obj::int(3))
        );
    }

    #[test]
    fn substitution_reaches_embedded_types() {
        // (y ∈ {z:Int | z < x})[x ↦ 5]
        let z = Symbol::intern("z");
        let t = Ty::refine(
            z,
            Ty::Int,
            Prop::lin(Obj::var(z), LinCmp::Lt, Obj::var(x())),
        );
        let p = Prop::is(Obj::var(y()), t);
        let got = p.subst(x(), &Obj::int(5));
        let want = Prop::is(
            Obj::var(y()),
            Ty::refine(z, Ty::Int, Prop::lin(Obj::var(z), LinCmp::Lt, Obj::int(5))),
        );
        assert_eq!(got, want);
    }

    #[test]
    fn negated_bv_atom_substitution_keeps_polarity() {
        let p = Prop::Bv(BvAtomProp {
            lhs: BvObj::Path(crate::syntax::obj::Path::var(x())),
            cmp: BvCmp::Eq,
            rhs: BvObj::Const(0),
            positive: false,
        });
        let q = p.subst(x(), &Obj::bv(3));
        match q {
            Prop::Bv(a) => {
                assert!(!a.positive);
                assert_eq!(a.lhs, BvObj::Const(3));
            }
            other => panic!("expected bv atom, got {other}"),
        }
    }

    #[test]
    fn free_vars() {
        let p = Prop::or(
            Prop::is(Obj::var(x()), Ty::Int),
            Prop::lin(Obj::var(y()), LinCmp::Le, Obj::int(0)),
        );
        let mut fv = std::collections::HashSet::new();
        p.free_vars(&mut fv);
        assert!(fv.contains(&x()) && fv.contains(&y()));
    }
}
