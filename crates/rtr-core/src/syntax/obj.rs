//! Symbolic objects — the canonical program terms types may depend on.
//!
//! λ_RTR does not let types depend on arbitrary expressions; instead a
//! "whitelist" grammar of *symbolic objects* (Fig. 2) names the obviously
//! safe terms: variables, field accesses and pairs. Theories extend the
//! grammar (§3.4): linear arithmetic adds integer literals, scalings and
//! sums (`o ::= … | n | n·o | o + o`) plus the `len` field, and the
//! bitvector theory adds bitvector literals and bitwise operators.
//!
//! Objects are kept in normal form by the smart constructors:
//! `(fst ⟨o₁,o₂⟩)` reduces to `o₁`, linear combinations are flattened and
//! sorted, and anything not liftable collapses to the null object [`Obj::Null`]
//! (propositions about which are vacuous, per §3.1).

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use rtr_solver::re::Regex;

use super::symbol::Symbol;
use crate::cache::LockRecover;

/// A field selector, applied to a path one step at a time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Field {
    /// First component of a pair.
    Fst,
    /// Second component of a pair.
    Snd,
    /// Length of a vector (theory extension, §3.4).
    Len,
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Fst => write!(f, "fst"),
            Field::Snd => write!(f, "snd"),
            Field::Len => write!(f, "len"),
        }
    }
}

/// A variable with a (possibly empty) chain of field accesses:
/// `x`, `(fst x)`, `(len (snd x))`, …
///
/// A fixed-size `Copy` value: up to [`Path::INLINE_FIELDS`] fields are
/// packed inline, innermost first; a longer chain is interned once in a
/// process-wide table and held by its index, so every path is exact at
/// any depth. Equality, order, hashing and display are those of the base
/// followed by the field sequence.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Path {
    /// The root variable.
    pub base: Symbol,
    fields: Fields,
}

/// The field chain of a [`Path`], in one canonical representation per
/// sequence (so the derived equality is the sequence's).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fields {
    /// At most [`Path::INLINE_FIELDS`] fields; unused slots hold `Fst`.
    Inline {
        len: u8,
        slots: [Field; Path::INLINE_FIELDS],
    },
    /// A longer chain: its index in the spill table.
    Spilled(u32),
}

/// The field chains longer than [`Path::INLINE_FIELDS`], each stored
/// once and never freed (like the symbol interner's spellings). Such
/// chains are rare, so one lock serves them.
#[derive(Default)]
struct Spills {
    chains: Vec<&'static [Field]>,
    index: HashMap<&'static [Field], u32>,
}

fn spills() -> &'static Mutex<Spills> {
    static SPILLS: OnceLock<Mutex<Spills>> = OnceLock::new();
    SPILLS.get_or_init(Mutex::default)
}

impl Fields {
    fn spill(chain: Vec<Field>) -> Fields {
        let mut table = spills().lock_recover();
        if let Some(&i) = table.index.get(&chain[..]) {
            return Fields::Spilled(i);
        }
        let chain: &'static [Field] = Box::leak(chain.into_boxed_slice());
        let i = u32::try_from(table.chains.len()).expect("spilled path chains exceed u32");
        table.chains.push(chain);
        table.index.insert(chain, i);
        Fields::Spilled(i)
    }
}

impl Path {
    /// The longest field chain a path holds inline.
    pub const INLINE_FIELDS: usize = 7;

    /// A bare variable path.
    pub fn var(base: Symbol) -> Path {
        Path {
            base,
            fields: Fields::Inline {
                len: 0,
                slots: [Field::Fst; Path::INLINE_FIELDS],
            },
        }
    }

    /// Extends the path with one more field access (outermost).
    pub fn field(self, f: Field) -> Path {
        let fields = match self.fields {
            Fields::Inline { len, mut slots } if usize::from(len) < Path::INLINE_FIELDS => {
                slots[usize::from(len)] = f;
                Fields::Inline {
                    len: len + 1,
                    slots,
                }
            }
            _ => {
                let mut chain = self.fields().to_vec();
                chain.push(f);
                Fields::spill(chain)
            }
        };
        Path { fields, ..self }
    }

    /// The field accesses, innermost first.
    pub fn fields(&self) -> &[Field] {
        match &self.fields {
            Fields::Inline { len, slots } => &slots[..usize::from(*len)],
            Fields::Spilled(i) => spills().lock_recover().chains[*i as usize],
        }
    }
}

impl Ord for Path {
    fn cmp(&self, other: &Path) -> std::cmp::Ordering {
        (self.base, self.fields()).cmp(&(other.base, other.fields()))
    }
}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Path) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Path {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.base.hash(state);
        self.fields().hash(state);
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Path")
            .field("base", &self.base)
            .field("fields", &self.fields())
            .finish()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print outermost-first: (len (fst x))
        for field in self.fields().iter().rev() {
            write!(f, "({field} ")?;
        }
        write!(f, "{}", self.base)?;
        for _ in self.fields() {
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A linear combination `constant + Σ coeffᵢ·pathᵢ` over the integers.
///
/// Terms are sorted by path and contain no zero coefficients, so structural
/// equality is semantic equality. Cloning never allocates: a lone `1·p`
/// term is stored inline, any other term list in a shared immutable
/// slice.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct LinObj {
    /// The constant part.
    pub constant: i64,
    terms: Terms,
}

/// The terms of a [`LinObj`], in one canonical representation each.
#[derive(Clone, PartialEq, Eq, Default)]
enum Terms {
    /// No variable terms.
    #[default]
    None,
    /// Exactly `1·p`.
    Unit(Path),
    /// Any other non-empty list. A thin pointer, so `Terms` fits in a
    /// [`Path`] and its spare bit patterns.
    Shared(Arc<Vec<(i64, Path)>>),
}

impl LinObj {
    /// The constant linear object `n`.
    pub fn constant(n: i64) -> LinObj {
        LinObj {
            constant: n,
            terms: Terms::None,
        }
    }

    /// The linear object `1·p`.
    pub fn path(p: Path) -> LinObj {
        LinObj {
            constant: 0,
            terms: Terms::Unit(p),
        }
    }

    /// `constant + Σ terms`, the terms sorted by path, distinct and
    /// non-zero.
    fn from_sorted(constant: i64, terms: Vec<(i64, Path)>) -> LinObj {
        let terms = match terms[..] {
            [] => Terms::None,
            [(1, p)] => Terms::Unit(p),
            _ => Terms::Shared(Arc::new(terms)),
        };
        LinObj { constant, terms }
    }

    /// The terms, sorted by path.
    pub fn terms(&self) -> LinTerms<'_> {
        let (unit, list) = match &self.terms {
            Terms::None => (None, &[][..]),
            Terms::Unit(p) => (Some(*p), &[][..]),
            Terms::Shared(ts) => (None, &ts[..]),
        };
        LinTerms {
            unit,
            list: list.iter(),
        }
    }

    /// Returns the constant if the object has no variable terms.
    pub fn as_constant(&self) -> Option<i64> {
        matches!(self.terms, Terms::None).then_some(self.constant)
    }

    /// Does the combination mention variable `x`? Allocation-free (used
    /// by `Env::unbind`'s theory-fact filters).
    pub fn mentions_var(&self, x: Symbol) -> bool {
        self.terms().any(|(_, p)| p.base == x)
    }

    /// Pointwise sum.
    pub fn add(&self, other: &LinObj) -> LinObj {
        let constant = self.constant.saturating_add(other.constant);
        if matches!(other.terms, Terms::None) {
            return LinObj {
                constant,
                terms: self.terms.clone(),
            };
        }
        if matches!(self.terms, Terms::None) {
            return LinObj {
                constant,
                terms: other.terms.clone(),
            };
        }
        // Merge the two sorted lists, summing the coefficients of a
        // shared path and dropping those that cancel.
        let (mut a, mut b) = (self.terms().peekable(), other.terms().peekable());
        let mut out = Vec::with_capacity(a.len() + b.len());
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(&(c, p)), Some(&(d, q))) => match p.cmp(&q) {
                    std::cmp::Ordering::Less => a.next(),
                    std::cmp::Ordering::Greater => b.next(),
                    std::cmp::Ordering::Equal => {
                        a.next();
                        b.next();
                        Some((c.saturating_add(d), p))
                    }
                },
                (Some(_), None) => a.next(),
                (None, Some(_)) => b.next(),
                (None, None) => break,
            };
            out.extend(next.filter(|&(c, _)| c != 0));
        }
        LinObj::from_sorted(constant, out)
    }

    /// Scales every coefficient by `k`.
    pub fn scale(&self, k: i64) -> LinObj {
        match k {
            0 => LinObj::constant(0),
            1 => self.clone(),
            _ => LinObj::from_sorted(
                self.constant.saturating_mul(k),
                self.terms()
                    .map(|(c, p)| (c.saturating_mul(k), p))
                    .collect(),
            ),
        }
    }
}

impl Hash for LinObj {
    /// Hashes as a `constant` and a term slice, whatever the storage.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.constant.hash(state);
        match &self.terms {
            Terms::None => <[(i64, Path)]>::hash(&[], state),
            Terms::Unit(p) => [(1_i64, *p)].hash(state),
            Terms::Shared(ts) => ts[..].hash(state),
        }
    }
}

impl fmt::Debug for LinObj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinObj")
            .field("constant", &self.constant)
            .field("terms", &self.terms().collect::<Vec<_>>())
            .finish()
    }
}

/// The terms of a [`LinObj`] by value, sorted by path.
#[derive(Clone, Debug)]
pub struct LinTerms<'a> {
    /// The lone `1·p` term, until taken.
    unit: Option<Path>,
    /// A term list.
    list: std::slice::Iter<'a, (i64, Path)>,
}

impl Iterator for LinTerms<'_> {
    type Item = (i64, Path);

    fn next(&mut self) -> Option<(i64, Path)> {
        match self.unit.take() {
            Some(p) => Some((1, p)),
            None => self.list.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.unit.is_some()) + self.list.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for LinTerms<'_> {}

impl fmt::Display for LinObj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if matches!(self.terms, Terms::None) {
            return write!(f, "{}", self.constant);
        }
        let mut first = true;
        for (c, p) in self.terms() {
            if first {
                if c == 1 {
                    write!(f, "{p}")?;
                } else {
                    write!(f, "{c}·{p}")?;
                }
                first = false;
            } else if c < 0 {
                write!(f, " - {}·{p}", -c)?;
            } else {
                write!(f, " + {c}·{p}")?;
            }
        }
        if self.constant != 0 {
            if self.constant < 0 {
                write!(f, " - {}", -self.constant)?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

/// A bitvector-valued symbolic term over paths (theory extension, §2.2).
///
/// The bitvector theory is fixed-width; the checker's theory adapter
/// chooses the width (16 bits in the surface language, wide enough for the
/// paper's `Byte` refinement to be non-trivial).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BvObj {
    /// A bitvector literal.
    Const(u64),
    /// A program variable/path.
    Path(Path),
    /// Bitwise complement.
    Not(Box<BvObj>),
    /// Bitwise and.
    And(Box<BvObj>, Box<BvObj>),
    /// Bitwise or.
    Or(Box<BvObj>, Box<BvObj>),
    /// Bitwise exclusive or.
    Xor(Box<BvObj>, Box<BvObj>),
    /// Wrapping sum.
    Add(Box<BvObj>, Box<BvObj>),
    /// Wrapping difference.
    Sub(Box<BvObj>, Box<BvObj>),
    /// Wrapping product.
    Mul(Box<BvObj>, Box<BvObj>),
}

impl BvObj {
    /// Does the term mention variable `x`? Allocation-free (used by
    /// `Env::unbind`'s theory-fact filters).
    pub fn mentions_var(&self, x: Symbol) -> bool {
        match self {
            BvObj::Const(_) => false,
            BvObj::Path(p) => p.base == x,
            BvObj::Not(a) => a.mentions_var(x),
            BvObj::And(a, b)
            | BvObj::Or(a, b)
            | BvObj::Xor(a, b)
            | BvObj::Add(a, b)
            | BvObj::Sub(a, b)
            | BvObj::Mul(a, b) => a.mentions_var(x) || b.mentions_var(x),
        }
    }
}

impl fmt::Display for BvObj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BvObj::Const(v) => write!(f, "#x{v:x}"),
            BvObj::Path(p) => write!(f, "{p}"),
            BvObj::Not(a) => write!(f, "(bvnot {a})"),
            BvObj::And(a, b) => write!(f, "(bvand {a} {b})"),
            BvObj::Or(a, b) => write!(f, "(bvor {a} {b})"),
            BvObj::Xor(a, b) => write!(f, "(bvxor {a} {b})"),
            BvObj::Add(a, b) => write!(f, "(bvadd {a} {b})"),
            BvObj::Sub(a, b) => write!(f, "(bvsub {a} {b})"),
            BvObj::Mul(a, b) => write!(f, "(bvmul {a} {b})"),
        }
    }
}

/// A string-valued symbolic term: either a literal or a program path.
/// This is the term grammar of the regex theory (§3.4 recipe; the §7
/// "theories of regular expressions" extension).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum StrObj {
    /// A string literal.
    Const(Arc<str>),
    /// A program variable/path.
    Path(Path),
}

impl StrObj {
    /// Does the term mention variable `x`?
    pub fn mentions_var(&self, x: Symbol) -> bool {
        matches!(self, StrObj::Path(p) if p.base == x)
    }
}

impl fmt::Display for StrObj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrObj::Const(s) => write!(f, "{s:?}"),
            StrObj::Path(p) => write!(f, "{p}"),
        }
    }
}

/// A symbolic object (Fig. 2, extended per §3.4).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Obj {
    /// The null object `∅`: a term the type system does not lift.
    Null,
    /// A variable/field path.
    Path(Path),
    /// A pair of objects `⟨o₁, o₂⟩`.
    Pair(Box<Obj>, Box<Obj>),
    /// A linear-arithmetic object (theory LI).
    Lin(LinObj),
    /// A bitvector object (theory BV).
    Bv(BvObj),
    /// A string literal (theory RE). Paths standing for strings stay
    /// [`Obj::Path`]; only constants need their own constructor.
    Str(Arc<str>),
    /// A regex literal (theory RE); lifted so tests like
    /// `(regexp-match? #rx"…" s)` can see which language they test even
    /// when the literal reaches the call through a `let` alias.
    Re(Arc<Regex>),
}

impl Obj {
    /// A bare variable object.
    pub fn var(x: Symbol) -> Obj {
        Obj::Path(Path::var(x))
    }

    /// An integer-literal object (theory LI's enriched `T-Int`).
    pub fn int(n: i64) -> Obj {
        Obj::Lin(LinObj::constant(n))
    }

    /// A bitvector-literal object.
    pub fn bv(v: u64) -> Obj {
        Obj::Bv(BvObj::Const(v))
    }

    /// A string-literal object (theory RE's enriched `T-Str`).
    pub fn str_const(s: impl Into<Arc<str>>) -> Obj {
        Obj::Str(s.into())
    }

    /// A regex-literal object.
    pub fn re(r: Arc<Regex>) -> Obj {
        Obj::Re(r)
    }

    /// A pair object.
    pub fn pair(o1: Obj, o2: Obj) -> Obj {
        if o1 == Obj::Null && o2 == Obj::Null {
            Obj::Null
        } else {
            Obj::Pair(Box::new(o1), Box::new(o2))
        }
    }

    /// Is this the null object?
    pub fn is_null(&self) -> bool {
        matches!(self, Obj::Null)
    }

    /// `(fst o)`, normalizing: `(fst ⟨a,b⟩) = a`.
    pub fn fst(self) -> Obj {
        match self {
            Obj::Pair(a, _) => *a,
            Obj::Path(p) => Obj::Path(p.field(Field::Fst)),
            _ => Obj::Null,
        }
    }

    /// `(snd o)`, normalizing.
    pub fn snd(self) -> Obj {
        match self {
            Obj::Pair(_, b) => *b,
            Obj::Path(p) => Obj::Path(p.field(Field::Snd)),
            _ => Obj::Null,
        }
    }

    /// `(len o)` — field paths for variables, computed for string
    /// literals (their length is a known integer).
    pub fn len(self) -> Obj {
        match self {
            Obj::Path(p) => Obj::Path(p.field(Field::Len)),
            Obj::Str(s) => Obj::int(s.chars().count() as i64),
            _ => Obj::Null,
        }
    }

    /// Coerces to a linear object if the term is integer-like.
    pub fn as_lin(&self) -> Option<LinObj> {
        match self {
            Obj::Lin(l) => Some(l.clone()),
            Obj::Path(p) => Some(LinObj::path(*p)),
            _ => None,
        }
    }

    /// Coerces to a bitvector object if the term is bitvector-like.
    pub fn as_bv(&self) -> Option<BvObj> {
        match self {
            Obj::Bv(b) => Some(b.clone()),
            Obj::Path(p) => Some(BvObj::Path(*p)),
            _ => None,
        }
    }

    /// Coerces to a string object if the term is string-like.
    pub fn as_str_obj(&self) -> Option<StrObj> {
        match self {
            Obj::Str(s) => Some(StrObj::Const(s.clone())),
            Obj::Path(p) => Some(StrObj::Path(*p)),
            _ => None,
        }
    }

    /// The regex literal, if the object is one.
    pub fn as_re(&self) -> Option<Arc<Regex>> {
        match self {
            Obj::Re(r) => Some(r.clone()),
            _ => None,
        }
    }

    /// `o₁ + o₂` when both sides are liftable integers, else `∅`.
    pub fn add(&self, other: &Obj) -> Obj {
        match (self.as_lin(), other.as_lin()) {
            (Some(a), Some(b)) => Obj::Lin(a.add(&b)),
            _ => Obj::Null,
        }
    }

    /// `o₁ - o₂` when both sides are liftable integers, else `∅`.
    pub fn sub(&self, other: &Obj) -> Obj {
        match (self.as_lin(), other.as_lin()) {
            (Some(a), Some(b)) => Obj::Lin(a.add(&b.scale(-1))),
            _ => Obj::Null,
        }
    }

    /// `k · o` when liftable, else `∅`.
    pub fn scale(&self, k: i64) -> Obj {
        match self.as_lin() {
            Some(l) => Obj::Lin(l.scale(k)),
            None => Obj::Null,
        }
    }

    /// `o₁ · o₂`: linear only when one side is a constant (§3.4's `n·o`).
    pub fn mul(&self, other: &Obj) -> Obj {
        match (self.as_lin(), other.as_lin()) {
            (Some(a), Some(b)) => match (a.as_constant(), b.as_constant()) {
                (Some(k), _) => Obj::Lin(b.scale(k)),
                (_, Some(k)) => Obj::Lin(a.scale(k)),
                _ => Obj::Null,
            },
            _ => Obj::Null,
        }
    }

    fn bv_binop(&self, other: &Obj, f: impl FnOnce(Box<BvObj>, Box<BvObj>) -> BvObj) -> Obj {
        match (self.as_bv(), other.as_bv()) {
            (Some(a), Some(b)) => Obj::Bv(f(Box::new(a), Box::new(b))),
            _ => Obj::Null,
        }
    }

    /// Bitwise and of two bitvector objects, else `∅`.
    pub fn bv_and(&self, other: &Obj) -> Obj {
        self.bv_binop(other, BvObj::And)
    }

    /// Bitwise or of two bitvector objects, else `∅`.
    pub fn bv_or(&self, other: &Obj) -> Obj {
        self.bv_binop(other, BvObj::Or)
    }

    /// Bitwise xor of two bitvector objects, else `∅`.
    pub fn bv_xor(&self, other: &Obj) -> Obj {
        self.bv_binop(other, BvObj::Xor)
    }

    /// Wrapping sum of two bitvector objects, else `∅`.
    pub fn bv_add(&self, other: &Obj) -> Obj {
        self.bv_binop(other, BvObj::Add)
    }

    /// Wrapping difference of two bitvector objects, else `∅`.
    pub fn bv_sub(&self, other: &Obj) -> Obj {
        self.bv_binop(other, BvObj::Sub)
    }

    /// Wrapping product of two bitvector objects, else `∅`.
    pub fn bv_mul(&self, other: &Obj) -> Obj {
        self.bv_binop(other, BvObj::Mul)
    }

    /// Bitwise complement of a bitvector object, else `∅`.
    pub fn bv_not(&self) -> Obj {
        match self.as_bv() {
            Some(a) => Obj::Bv(BvObj::Not(Box::new(a))),
            None => Obj::Null,
        }
    }

    /// Applies a field chain with normalization.
    pub fn apply_fields(self, fields: &[Field]) -> Obj {
        fields.iter().fold(self, |o, f| match f {
            Field::Fst => o.fst(),
            Field::Snd => o.snd(),
            Field::Len => o.len(),
        })
    }

    /// Capture-avoiding substitution `self[x ↦ rep]`, normalizing.
    ///
    /// Substituting the null object for a used variable collapses the
    /// affected (sub)object to `∅`, which in turn vacates any proposition
    /// built over it (§3.1).
    pub fn subst(&self, x: Symbol, rep: &Obj) -> Obj {
        match self {
            Obj::Null => Obj::Null,
            Obj::Path(p) => {
                if p.base == x {
                    rep.clone().apply_fields(p.fields())
                } else {
                    self.clone()
                }
            }
            Obj::Pair(a, b) => Obj::pair(a.subst(x, rep), b.subst(x, rep)),
            Obj::Lin(l) => {
                if !l.mentions_var(x) {
                    return self.clone();
                }
                let mut acc = LinObj::constant(l.constant);
                for (c, p) in l.terms() {
                    let term = if p.base == x {
                        match rep.clone().apply_fields(p.fields()).as_lin() {
                            Some(rl) => rl.scale(c),
                            None => return Obj::Null,
                        }
                    } else {
                        LinObj::path(p).scale(c)
                    };
                    acc = acc.add(&term);
                }
                Obj::Lin(acc)
            }
            Obj::Bv(b) => match subst_bv(b, x, rep) {
                Some(b) => Obj::Bv(b),
                None => Obj::Null,
            },
            Obj::Str(_) | Obj::Re(_) => self.clone(),
        }
    }

    /// Collects the free (base) variables.
    pub fn free_vars(&self, out: &mut std::collections::HashSet<Symbol>) {
        match self {
            Obj::Null | Obj::Str(_) | Obj::Re(_) => {}
            Obj::Path(p) => {
                out.insert(p.base);
            }
            Obj::Pair(a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            Obj::Lin(l) => {
                for (_, p) in l.terms() {
                    out.insert(p.base);
                }
            }
            Obj::Bv(b) => bv_free_vars(b, out),
        }
    }

    /// The first free variable satisfying `pred` (pre-order), if any —
    /// the allocation-free counterpart of [`Obj::free_vars`] for callers
    /// that only need one witness (e.g. alias resolution).
    pub fn find_var(&self, pred: &mut dyn FnMut(Symbol) -> bool) -> Option<Symbol> {
        match self {
            Obj::Null | Obj::Str(_) | Obj::Re(_) => None,
            Obj::Path(p) => pred(p.base).then_some(p.base),
            Obj::Pair(a, b) => a.find_var(pred).or_else(|| b.find_var(pred)),
            Obj::Lin(l) => l.terms().map(|(_, p)| p.base).find(|x| pred(*x)),
            Obj::Bv(b) => bv_find_var(b, pred),
        }
    }

    /// Iterates over every path mentioned in the object.
    pub fn paths(&self, out: &mut Vec<Path>) {
        match self {
            Obj::Null | Obj::Str(_) | Obj::Re(_) => {}
            Obj::Path(p) => out.push(*p),
            Obj::Pair(a, b) => {
                a.paths(out);
                b.paths(out);
            }
            Obj::Lin(l) => out.extend(l.terms().map(|(_, p)| p)),
            Obj::Bv(b) => bv_paths(b, out),
        }
    }
}

fn subst_bv(b: &BvObj, x: Symbol, rep: &Obj) -> Option<BvObj> {
    Some(match b {
        BvObj::Const(v) => BvObj::Const(*v),
        BvObj::Path(p) => {
            if p.base == x {
                rep.clone().apply_fields(p.fields()).as_bv()?
            } else {
                BvObj::Path(*p)
            }
        }
        BvObj::Not(a) => BvObj::Not(Box::new(subst_bv(a, x, rep)?)),
        BvObj::And(a, c) => BvObj::And(
            Box::new(subst_bv(a, x, rep)?),
            Box::new(subst_bv(c, x, rep)?),
        ),
        BvObj::Or(a, c) => BvObj::Or(
            Box::new(subst_bv(a, x, rep)?),
            Box::new(subst_bv(c, x, rep)?),
        ),
        BvObj::Xor(a, c) => BvObj::Xor(
            Box::new(subst_bv(a, x, rep)?),
            Box::new(subst_bv(c, x, rep)?),
        ),
        BvObj::Add(a, c) => BvObj::Add(
            Box::new(subst_bv(a, x, rep)?),
            Box::new(subst_bv(c, x, rep)?),
        ),
        BvObj::Sub(a, c) => BvObj::Sub(
            Box::new(subst_bv(a, x, rep)?),
            Box::new(subst_bv(c, x, rep)?),
        ),
        BvObj::Mul(a, c) => BvObj::Mul(
            Box::new(subst_bv(a, x, rep)?),
            Box::new(subst_bv(c, x, rep)?),
        ),
    })
}

fn bv_find_var(b: &BvObj, pred: &mut dyn FnMut(Symbol) -> bool) -> Option<Symbol> {
    match b {
        BvObj::Const(_) => None,
        BvObj::Path(p) => pred(p.base).then_some(p.base),
        BvObj::Not(a) => bv_find_var(a, pred),
        BvObj::And(a, b)
        | BvObj::Or(a, b)
        | BvObj::Xor(a, b)
        | BvObj::Add(a, b)
        | BvObj::Sub(a, b)
        | BvObj::Mul(a, b) => bv_find_var(a, pred).or_else(|| bv_find_var(b, pred)),
    }
}

fn bv_free_vars(b: &BvObj, out: &mut std::collections::HashSet<Symbol>) {
    match b {
        BvObj::Const(_) => {}
        BvObj::Path(p) => {
            out.insert(p.base);
        }
        BvObj::Not(a) => bv_free_vars(a, out),
        BvObj::And(a, b)
        | BvObj::Or(a, b)
        | BvObj::Xor(a, b)
        | BvObj::Add(a, b)
        | BvObj::Sub(a, b)
        | BvObj::Mul(a, b) => {
            bv_free_vars(a, out);
            bv_free_vars(b, out);
        }
    }
}

fn bv_paths(b: &BvObj, out: &mut Vec<Path>) {
    match b {
        BvObj::Const(_) => {}
        BvObj::Path(p) => out.push(*p),
        BvObj::Not(a) => bv_paths(a, out),
        BvObj::And(a, b)
        | BvObj::Or(a, b)
        | BvObj::Xor(a, b)
        | BvObj::Add(a, b)
        | BvObj::Sub(a, b)
        | BvObj::Mul(a, b) => {
            bv_paths(a, out);
            bv_paths(b, out);
        }
    }
}

impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Obj::Null => write!(f, "∅"),
            Obj::Path(p) => write!(f, "{p}"),
            Obj::Pair(a, b) => write!(f, "⟨{a}, {b}⟩"),
            Obj::Lin(l) => write!(f, "{l}"),
            Obj::Bv(b) => write!(f, "{b}"),
            Obj::Str(s) => write!(f, "{s:?}"),
            Obj::Re(r) => write!(f, "#rx\"{r}\""),
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
    fn fst_of_pair_normalizes() {
        // (fst ⟨x, y⟩) = x  — the paper's normal-form example.
        let p = Obj::pair(Obj::var(x()), Obj::var(y()));
        assert_eq!(p.clone().fst(), Obj::var(x()));
        assert_eq!(p.snd(), Obj::var(y()));
    }

    #[test]
    fn fields_on_paths_extend() {
        let o = Obj::var(x()).fst().len();
        match &o {
            Obj::Path(p) => {
                assert_eq!(p.base, x());
                assert_eq!(p.fields(), [Field::Fst, Field::Len]);
            }
            other => panic!("expected path, got {other}"),
        }
        assert_eq!(o.to_string(), "(len (fst x))");
    }

    /// The vector-backed values the packed ones replaced, to compare
    /// their derived order, hashes and debug text against.
    mod unpacked {
        use super::{Field, Symbol};

        #[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub struct Path {
            pub base: Symbol,
            pub fields: Vec<Field>,
        }

        #[derive(Hash, Debug)]
        pub struct LinObj {
            pub constant: i64,
            pub terms: Vec<(i64, Path)>,
        }
    }

    fn unpack(p: &Path) -> unpacked::Path {
        unpacked::Path {
            base: p.base,
            fields: p.fields().to_vec(),
        }
    }

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn packed_values_order_hash_and_print_as_vectors() {
        let fields = [Field::Fst, Field::Snd, Field::Len];
        let mut paths = vec![Path::var(x()), Path::var(y())];
        for depth in 0..3 {
            let longer: Vec<Path> = paths
                .iter()
                .filter(|p| p.fields().len() == depth)
                .flat_map(|p| fields.iter().map(|&f| p.field(f)))
                .collect();
            paths.extend(longer);
        }
        for p in &paths {
            assert_eq!(hash_of(p), hash_of(&unpack(p)), "{p}");
            assert_eq!(format!("{p:?}"), format!("{:?}", unpack(p)));
            for q in &paths {
                assert_eq!(p.cmp(q), unpack(p).cmp(&unpack(q)), "{p} vs {q}");
                assert_eq!(p == q, unpack(p) == unpack(q), "{p} vs {q}");
            }
        }
        // Constants, lone unit terms, scaled terms and sums.
        let objs: Vec<LinObj> = paths
            .iter()
            .take(6)
            .flat_map(|&p| {
                let unit = LinObj::path(p);
                [
                    LinObj::constant(3),
                    unit.clone(),
                    unit.scale(-2),
                    unit.add(&LinObj::path(Path::var(y())))
                        .add(&LinObj::constant(1)),
                ]
            })
            .collect();
        for l in &objs {
            let old = unpacked::LinObj {
                constant: l.constant,
                terms: l.terms().map(|(c, p)| (c, unpack(&p))).collect(),
            };
            assert_eq!(hash_of(l), hash_of(&old), "{l}");
            assert_eq!(format!("{l:?}"), format!("{old:?}"));
        }
    }

    #[test]
    fn sums_that_cancel_keep_one_representation() {
        // Terms sort by symbol, and symbols by interning order, so these
        // names are this test's own: interned here, `a` sorts first.
        let (a, b) = (Symbol::intern("cancel_a"), Symbol::intern("cancel_b"));
        let (px, py) = (LinObj::path(Path::var(a)), LinObj::path(Path::var(b)));
        let sum = px.add(&py).add(&LinObj::constant(2));
        assert_eq!(sum.to_string(), "cancel_a + 1·cancel_b + 2");
        // (a + b + 2) - a = b + 2, stored as the lone unit term again.
        let rest = sum.add(&px.scale(-1));
        assert_eq!(rest, py.add(&LinObj::constant(2)));
        assert_eq!(rest.add(&py.scale(-1)).as_constant(), Some(2));
        assert_eq!(px.scale(2).scale(1), px.add(&px));
    }

    #[test]
    fn a_path_past_its_inline_depth_stays_exact() {
        let deepest = (0..Path::INLINE_FIELDS).fold(Obj::var(x()), |o, _| o.snd());
        let longer = deepest.clone().len();
        let Obj::Path(p) = &longer else {
            panic!("expected a path, got {longer}");
        };
        assert_eq!(p.fields().len(), Path::INLINE_FIELDS + 1);
        assert_eq!(p.fields().last(), Some(&Field::Len));
        assert_eq!(
            longer.to_string(),
            "(len (snd (snd (snd (snd (snd (snd (snd x))))))))"
        );
        // A spilled chain is stored once: equal chains are equal paths.
        assert_eq!(longer, deepest.clone().len());
        assert_ne!(longer, deepest.clone().fst());
        assert_eq!(hash_of(p), hash_of(&unpack(p)));
        let q = Path::var(x()).field(Field::Fst);
        assert_eq!(p.cmp(&q), unpack(p).cmp(&unpack(&q)));
        // Substituting a path into another's field chain extends it.
        let v = Symbol::intern("v");
        assert_eq!(Obj::var(v).len().subst(v, &deepest), longer);
        assert_eq!(
            Obj::Path(p.field(Field::Fst)).to_string(),
            format!("(fst {longer})")
        );
    }

    #[test]
    fn unliftable_collapses_to_null() {
        assert!(Obj::int(3).fst().is_null());
        assert!(Obj::Null.len().is_null());
        assert!(Obj::int(1).add(&Obj::Null).is_null());
        assert!(Obj::pair(Obj::Null, Obj::Null).is_null());
    }

    #[test]
    fn linear_combination_flattens() {
        // 2x + 3 + x = 3x + 3
        let o = Obj::var(x()).scale(2).add(&Obj::int(3)).add(&Obj::var(x()));
        match o {
            Obj::Lin(l) => {
                assert_eq!(l.constant, 3);
                assert!(l.terms().eq([(3, Path::var(x()))]));
            }
            other => panic!("expected lin, got {other}"),
        }
    }

    #[test]
    fn mul_requires_a_constant_side() {
        let two_x = Obj::int(2).mul(&Obj::var(x()));
        assert_eq!(two_x, Obj::var(x()).scale(2));
        assert!(Obj::var(x()).mul(&Obj::var(y())).is_null());
    }

    #[test]
    fn substitution_normalizes() {
        // ((fst p))[p ↦ ⟨x, y⟩] = x
        let p = Symbol::intern("p");
        let o = Obj::var(p).fst();
        let rep = Obj::pair(Obj::var(x()), Obj::var(y()));
        assert_eq!(o.subst(p, &rep), Obj::var(x()));
        // (x + 1)[x ↦ ∅] = ∅
        let o = Obj::var(x()).add(&Obj::int(1));
        assert!(o.subst(x(), &Obj::Null).is_null());
        // (x + 1)[x ↦ y + 2] = y + 3
        let o = Obj::var(x()).add(&Obj::int(1));
        let rep = Obj::var(y()).add(&Obj::int(2));
        assert_eq!(o.subst(x(), &rep), Obj::var(y()).add(&Obj::int(3)));
    }

    #[test]
    fn bv_substitution() {
        let o = Obj::var(x()).bv_and(&Obj::bv(0xff));
        let got = o.subst(x(), &Obj::bv(0x0f));
        assert_eq!(got, Obj::bv(0x0f).bv_and(&Obj::bv(0xff)));
        // substituting a pair into a bitvector position kills the object
        let bad = o.subst(x(), &Obj::pair(Obj::var(y()), Obj::var(y())));
        assert!(bad.is_null());
    }

    #[test]
    fn free_vars_and_paths() {
        let o = Obj::var(x()).add(&Obj::var(y()).len());
        let mut vars = std::collections::HashSet::new();
        o.free_vars(&mut vars);
        assert!(vars.contains(&x()) && vars.contains(&y()));
        let mut paths = Vec::new();
        o.paths(&mut paths);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Obj::Null.to_string(), "∅");
        assert_eq!(Obj::int(5).to_string(), "5");
        let o = Obj::var(x()).scale(2).add(&Obj::int(-1));
        assert_eq!(o.to_string(), "2·x - 1");
        assert_eq!(Obj::pair(Obj::var(x()), Obj::int(0)).to_string(), "⟨x, 0⟩");
    }
}
