//! Expressions and primitive operations (Fig. 2, extended with the
//! vector, bitvector, mutation and sequencing forms the implementation
//! needs for §4–§5).

use std::fmt;
use std::sync::Arc;

use super::symbol::Symbol;
use super::ty::Ty;
use crate::diag::NodeId;

/// Primitive operations `p` (Fig. 2/3, extended per §3.4 and §5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Prim {
    // -- type predicates ----------------------------------------------------
    /// `int?`
    IsInt,
    /// `bool?`
    IsBool,
    /// `pair?`
    IsPair,
    /// `vec?`
    IsVec,
    /// `proc?`
    IsProc,
    /// `bv?`
    IsBv,
    /// `not` (also the boolean test `false?`)
    Not,
    /// `zero?`
    IsZero,
    /// `even?`
    IsEven,
    /// `odd?`
    IsOdd,
    // -- integer arithmetic (theory LI enriched, §3.4) -----------------------
    /// `add1`
    Add1,
    /// `sub1`
    Sub1,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Times,
    /// `quotient` (truncating division) — deliberately *not* enriched
    /// with theory propositions: the §5.1 "unimplemented features"
    /// exemplar (division by a constant is linearizable, but the base
    /// environment does not teach the solver about it)
    Quotient,
    /// `remainder` — likewise un-enriched
    Remainder,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
    /// `=` on integers
    NumEq,
    /// `equal?` (enriched to emit integer equations on integer arguments,
    /// one of the paper's 36 enriched base functions)
    Equal,
    // -- vectors (§5) ---------------------------------------------------------
    /// `len`
    Len,
    /// `vec-ref` — dynamically bounds-checked
    VecRef,
    /// `unsafe-vec-ref` — raw access; out of bounds is undefined behaviour
    UnsafeVecRef,
    /// `safe-vec-ref` — statically verified access (refined index type)
    SafeVecRef,
    /// `vec-set!` — dynamically bounds-checked store
    VecSet,
    /// `unsafe-vec-set!` — raw store
    UnsafeVecSet,
    /// `safe-vec-set!` — statically verified store
    SafeVecSet,
    /// `make-vec`
    MakeVec,
    // -- strings and regexes (theory RE, the §7 extension) ---------------------
    /// `string?`
    IsStr,
    /// `string-length` (in characters; emits the `len` field object, so
    /// length facts flow into the linear theory)
    StrLen,
    /// `string=?`
    StrEq,
    /// `regexp-match?` — anchored match of a string against a regex
    /// literal; its then/else propositions are regex-membership atoms
    StrMatch,
    // -- bitvectors (§2.2) ----------------------------------------------------
    /// `bvand`
    BvAnd,
    /// `bvor`
    BvOr,
    /// `bvxor`
    BvXor,
    /// `bvnot`
    BvNot,
    /// `bvadd`
    BvAdd,
    /// `bvsub`
    BvSub,
    /// `bvmul`
    BvMul,
    /// `bv=`
    BvEq,
    /// `bv≤` (unsigned)
    BvUle,
    /// `bv<` (unsigned)
    BvUlt,
}

impl Prim {
    /// The surface-syntax name of the primitive.
    pub fn name(self) -> &'static str {
        match self {
            Prim::IsInt => "int?",
            Prim::IsBool => "bool?",
            Prim::IsPair => "pair?",
            Prim::IsVec => "vec?",
            Prim::IsProc => "proc?",
            Prim::IsBv => "bv?",
            Prim::Not => "not",
            Prim::IsZero => "zero?",
            Prim::IsEven => "even?",
            Prim::IsOdd => "odd?",
            Prim::Add1 => "add1",
            Prim::Sub1 => "sub1",
            Prim::Plus => "+",
            Prim::Minus => "-",
            Prim::Times => "*",
            Prim::Quotient => "quotient",
            Prim::Remainder => "remainder",
            Prim::Lt => "<",
            Prim::Le => "<=",
            Prim::Gt => ">",
            Prim::Ge => ">=",
            Prim::NumEq => "=",
            Prim::Equal => "equal?",
            Prim::Len => "len",
            Prim::VecRef => "vec-ref",
            Prim::UnsafeVecRef => "unsafe-vec-ref",
            Prim::SafeVecRef => "safe-vec-ref",
            Prim::VecSet => "vec-set!",
            Prim::UnsafeVecSet => "unsafe-vec-set!",
            Prim::SafeVecSet => "safe-vec-set!",
            Prim::MakeVec => "make-vec",
            Prim::IsStr => "string?",
            Prim::StrLen => "string-length",
            Prim::StrEq => "string=?",
            Prim::StrMatch => "regexp-match?",
            Prim::BvAnd => "bvand",
            Prim::BvOr => "bvor",
            Prim::BvXor => "bvxor",
            Prim::BvNot => "bvnot",
            Prim::BvAdd => "bvadd",
            Prim::BvSub => "bvsub",
            Prim::BvMul => "bvmul",
            Prim::BvEq => "bv=",
            Prim::BvUle => "bv<=",
            Prim::BvUlt => "bv<",
        }
    }

    /// All primitives, for table-driven tests.
    pub fn all() -> &'static [Prim] {
        &[
            Prim::IsInt,
            Prim::IsBool,
            Prim::IsPair,
            Prim::IsVec,
            Prim::IsProc,
            Prim::IsBv,
            Prim::Not,
            Prim::IsZero,
            Prim::IsEven,
            Prim::IsOdd,
            Prim::Add1,
            Prim::Sub1,
            Prim::Plus,
            Prim::Minus,
            Prim::Times,
            Prim::Quotient,
            Prim::Remainder,
            Prim::Lt,
            Prim::Le,
            Prim::Gt,
            Prim::Ge,
            Prim::NumEq,
            Prim::Equal,
            Prim::Len,
            Prim::VecRef,
            Prim::UnsafeVecRef,
            Prim::SafeVecRef,
            Prim::VecSet,
            Prim::UnsafeVecSet,
            Prim::SafeVecSet,
            Prim::MakeVec,
            Prim::IsStr,
            Prim::StrLen,
            Prim::StrEq,
            Prim::StrMatch,
            Prim::BvAnd,
            Prim::BvOr,
            Prim::BvXor,
            Prim::BvNot,
            Prim::BvAdd,
            Prim::BvSub,
            Prim::BvMul,
            Prim::BvEq,
            Prim::BvUle,
            Prim::BvUlt,
        ]
    }
}

impl fmt::Display for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A lambda abstraction with annotated parameters.
#[derive(Clone, PartialEq, Debug)]
pub struct Lambda {
    /// Annotated parameters.
    pub params: Vec<(Symbol, Ty)>,
    /// The body.
    pub body: Expr,
}

/// A λ_RTR expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Variable reference.
    Var(Symbol),
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Bitvector literal (width fixed by the theory adapter).
    BvLit(u64),
    /// String literal.
    Str(std::sync::Arc<str>),
    /// Regex literal `#rx"…"` (pre-parsed; patterns are validated by the
    /// reader).
    ReLit(std::sync::Arc<rtr_solver::re::Regex>),
    /// A primitive operation as a value.
    Prim(Prim),
    /// Lambda abstraction `λ(x:τ …). e`.
    Lam(Arc<Lambda>),
    /// Application `(e e …)`.
    App(Box<Expr>, Vec<Expr>),
    /// Conditional `(if e e e)`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Local binding `(let (x e) e)`.
    Let(Symbol, Box<Expr>, Box<Expr>),
    /// Annotated recursive function `(letrec (f : τ (λ…)) e)` — needed for
    /// the loops `for`-macros expand into (§4.4).
    LetRec(Symbol, Ty, Arc<Lambda>, Box<Expr>),
    /// Pair construction `(cons e e)`.
    Cons(Box<Expr>, Box<Expr>),
    /// First projection `(fst e)`.
    Fst(Box<Expr>),
    /// Second projection `(snd e)`.
    Snd(Box<Expr>),
    /// Vector literal `(vec e …)`.
    VecLit(Vec<Expr>),
    /// Type ascription `(ann e τ)`.
    Ann(Box<Expr>, Ty),
    /// Runtime error `(error "msg")` — diverges with type ⊥.
    Error(String),
    /// Variable mutation `(set! x e)` (§4.2).
    Set(Symbol, Box<Expr>),
    /// Sequencing `(begin e …)`; value of the last expression.
    Begin(Vec<Expr>),
    /// A source-location wrapper: the elaborator tags every expression it
    /// produces with a [`NodeId`] into its span table, so diagnostics can
    /// point back into the surface source. Semantically transparent — the
    /// checker, evaluator and all structural traversals see through it.
    Spanned(NodeId, Box<Expr>),
}

impl Expr {
    /// Builds an application.
    pub fn app(f: Expr, args: Vec<Expr>) -> Expr {
        Expr::App(Box::new(f), args)
    }

    /// Applies a primitive.
    pub fn prim_app(p: Prim, args: Vec<Expr>) -> Expr {
        Expr::app(Expr::Prim(p), args)
    }

    /// Builds a conditional.
    pub fn if_(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::If(Box::new(c), Box::new(t), Box::new(e))
    }

    /// Builds a let binding.
    pub fn let_(x: Symbol, rhs: Expr, body: Expr) -> Expr {
        Expr::Let(x, Box::new(rhs), Box::new(body))
    }

    /// Builds a lambda.
    pub fn lam(params: Vec<(Symbol, Ty)>, body: Expr) -> Expr {
        Expr::Lam(Arc::new(Lambda { params, body }))
    }

    /// Builds an annotation.
    pub fn ann(e: Expr, ty: Ty) -> Expr {
        Expr::Ann(Box::new(e), ty)
    }

    /// Wraps `e` with a span node.
    pub fn spanned(node: NodeId, e: Expr) -> Expr {
        Expr::Spanned(node, Box::new(e))
    }

    /// Sees through any [`Expr::Spanned`] wrappers to the underlying
    /// expression.
    pub fn peel_spans(&self) -> &Expr {
        let mut e = self;
        while let Expr::Spanned(_, inner) = e {
            e = inner;
        }
        e
    }

    /// The underlying expression plus the *innermost* span node wrapping
    /// it (the most precise source location), if any.
    pub fn peel_spans_with_node(&self) -> (&Expr, Option<NodeId>) {
        let mut e = self;
        let mut node = None;
        while let Expr::Spanned(n, inner) = e {
            node = Some(*n);
            e = inner;
        }
        (e, node)
    }

    /// The span node directly wrapping this expression, if any.
    pub fn span_node(&self) -> Option<NodeId> {
        self.peel_spans_with_node().1
    }

    /// A copy with every [`Expr::Spanned`] wrapper removed — used by
    /// tests and tools that compare elaborated trees structurally.
    pub fn strip_spans(&self) -> Expr {
        match self {
            Expr::Spanned(_, inner) => inner.strip_spans(),
            Expr::Var(_)
            | Expr::Int(_)
            | Expr::Bool(_)
            | Expr::BvLit(_)
            | Expr::Str(_)
            | Expr::ReLit(_)
            | Expr::Prim(_)
            | Expr::Error(_) => self.clone(),
            Expr::Lam(l) => Expr::lam(l.params.clone(), l.body.strip_spans()),
            Expr::App(f, args) => Expr::app(
                f.strip_spans(),
                args.iter().map(Expr::strip_spans).collect(),
            ),
            Expr::If(a, b, c) => Expr::if_(a.strip_spans(), b.strip_spans(), c.strip_spans()),
            Expr::Let(x, a, b) => Expr::let_(*x, a.strip_spans(), b.strip_spans()),
            Expr::LetRec(f, t, l, b) => Expr::LetRec(
                *f,
                t.clone(),
                Arc::new(Lambda {
                    params: l.params.clone(),
                    body: l.body.strip_spans(),
                }),
                Box::new(b.strip_spans()),
            ),
            Expr::Cons(a, b) => Expr::Cons(Box::new(a.strip_spans()), Box::new(b.strip_spans())),
            Expr::Fst(a) => Expr::Fst(Box::new(a.strip_spans())),
            Expr::Snd(a) => Expr::Snd(Box::new(a.strip_spans())),
            Expr::VecLit(es) => Expr::VecLit(es.iter().map(Expr::strip_spans).collect()),
            Expr::Ann(a, t) => Expr::ann(a.strip_spans(), t.clone()),
            Expr::Set(x, a) => Expr::Set(*x, Box::new(a.strip_spans())),
            Expr::Begin(es) => Expr::Begin(es.iter().map(Expr::strip_spans).collect()),
        }
    }

    /// Nesting depth, capped at `limit`: returns a value `> limit` as soon
    /// as the tree is deeper than `limit`, without recursing further (so
    /// the probe itself never risks a stack overflow). Used by the checker
    /// to decide whether a program needs the big-stack checking thread.
    pub fn depth_capped(&self, limit: usize) -> usize {
        // Span wrappers are transparent to the checker (peeled without a
        // judgment frame), so they do not count as a level.
        if let Expr::Spanned(_, inner) = self {
            return inner.depth_capped(limit);
        }
        if limit == 0 {
            return 1;
        }
        let child = |e: &Expr| e.depth_capped(limit - 1);
        1 + match self {
            Expr::Var(_)
            | Expr::Int(_)
            | Expr::Bool(_)
            | Expr::BvLit(_)
            | Expr::Str(_)
            | Expr::ReLit(_)
            | Expr::Prim(_)
            | Expr::Error(_) => 0,
            Expr::Lam(l) => child(&l.body),
            Expr::App(f, args) => child(f).max(args.iter().map(child).max().unwrap_or(0)),
            Expr::If(a, b, c) => child(a).max(child(b)).max(child(c)),
            Expr::Let(_, a, b) | Expr::Cons(a, b) => child(a).max(child(b)),
            Expr::LetRec(_, _, l, b) => child(&l.body).max(child(b)),
            Expr::Fst(a) | Expr::Snd(a) | Expr::Ann(a, _) | Expr::Set(_, a) => child(a),
            Expr::VecLit(es) | Expr::Begin(es) => es.iter().map(child).max().unwrap_or(0),
            Expr::Spanned(..) => unreachable!("handled above"),
        }
    }

    /// AST node count (used for corpus statistics and fuzz bounds).
    pub fn size(&self) -> usize {
        match self {
            Expr::Var(_)
            | Expr::Int(_)
            | Expr::Bool(_)
            | Expr::BvLit(_)
            | Expr::Str(_)
            | Expr::ReLit(_)
            | Expr::Prim(_)
            | Expr::Error(_) => 1,
            Expr::Lam(l) => 1 + l.body.size(),
            Expr::App(f, args) => 1 + f.size() + args.iter().map(Expr::size).sum::<usize>(),
            Expr::If(a, b, c) => 1 + a.size() + b.size() + c.size(),
            Expr::Let(_, a, b) => 1 + a.size() + b.size(),
            Expr::LetRec(_, _, l, b) => 1 + l.body.size() + b.size(),
            Expr::Cons(a, b) => 1 + a.size() + b.size(),
            Expr::Fst(a) | Expr::Snd(a) | Expr::Ann(a, _) | Expr::Set(_, a) => 1 + a.size(),
            Expr::VecLit(es) | Expr::Begin(es) => 1 + es.iter().map(Expr::size).sum::<usize>(),
            // Transparent: a span wrapper is not an AST node of its own.
            Expr::Spanned(_, inner) => inner.size(),
        }
    }

    /// Collects free program variables: those the term names, and those
    /// named by the types written inside it (ascriptions, lambda
    /// parameter types, `letrec` signatures), whose refinements read
    /// program variables too. A type written at a binder is read in the
    /// scope *outside* that binder — an over-approximation when it names
    /// a sibling parameter, never a miss.
    pub fn free_vars(&self, out: &mut std::collections::HashSet<Symbol>) {
        type Set = std::collections::HashSet<Symbol>;
        fn ty_refs(t: &Ty, bound: &[Symbol], out: &mut Set) {
            let mut fv = Set::new();
            t.free_obj_vars(&mut fv);
            out.extend(fv.into_iter().filter(|x| !bound.contains(x)));
        }
        fn go(e: &Expr, bound: &mut Vec<Symbol>, out: &mut Set) {
            match e {
                Expr::Var(x) => {
                    if !bound.contains(x) {
                        out.insert(*x);
                    }
                }
                Expr::Int(_)
                | Expr::Bool(_)
                | Expr::BvLit(_)
                | Expr::Str(_)
                | Expr::ReLit(_)
                | Expr::Prim(_)
                | Expr::Error(_) => {}
                Expr::Lam(l) => {
                    for (_, t) in &l.params {
                        ty_refs(t, bound, out);
                    }
                    let n = bound.len();
                    bound.extend(l.params.iter().map(|(x, _)| *x));
                    go(&l.body, bound, out);
                    bound.truncate(n);
                }
                Expr::App(f, args) => {
                    go(f, bound, out);
                    for a in args {
                        go(a, bound, out);
                    }
                }
                Expr::If(a, b, c) => {
                    go(a, bound, out);
                    go(b, bound, out);
                    go(c, bound, out);
                }
                Expr::Let(x, rhs, body) => {
                    go(rhs, bound, out);
                    bound.push(*x);
                    go(body, bound, out);
                    bound.pop();
                }
                Expr::LetRec(f, fty, l, body) => {
                    ty_refs(fty, bound, out);
                    for (_, t) in &l.params {
                        ty_refs(t, bound, out);
                    }
                    bound.push(*f);
                    let n = bound.len();
                    bound.extend(l.params.iter().map(|(x, _)| *x));
                    go(&l.body, bound, out);
                    bound.truncate(n);
                    go(body, bound, out);
                    bound.pop();
                }
                Expr::Cons(a, b) => {
                    go(a, bound, out);
                    go(b, bound, out);
                }
                Expr::Fst(a) | Expr::Snd(a) => go(a, bound, out),
                Expr::Ann(a, t) => {
                    go(a, bound, out);
                    ty_refs(t, bound, out);
                }
                Expr::Set(x, a) => {
                    if !bound.contains(x) {
                        out.insert(*x);
                    }
                    go(a, bound, out);
                }
                Expr::VecLit(es) | Expr::Begin(es) => {
                    for e in es {
                        go(e, bound, out);
                    }
                }
                Expr::Spanned(_, inner) => go(inner, bound, out),
            }
        }
        go(self, &mut Vec::new(), out);
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Int(n) => write!(f, "{n}"),
            Expr::Bool(true) => write!(f, "#t"),
            Expr::Bool(false) => write!(f, "#f"),
            Expr::BvLit(v) => write!(f, "#x{v:x}"),
            Expr::Str(s) => write!(f, "{s:?}"),
            Expr::ReLit(r) => write!(f, "#rx\"{r}\""),
            Expr::Prim(p) => write!(f, "{p}"),
            Expr::Lam(l) => {
                write!(f, "(λ (")?;
                for (i, (x, t)) in l.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "[{x} : {t}]")?;
                }
                write!(f, ") {})", l.body)
            }
            Expr::App(fun, args) => {
                write!(f, "({fun}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            Expr::If(a, b, c) => write!(f, "(if {a} {b} {c})"),
            Expr::Let(x, rhs, body) => write!(f, "(let ({x} {rhs}) {body})"),
            Expr::LetRec(name, ty, l, body) => {
                write!(
                    f,
                    "(letrec ({name} : {ty} {}) {body})",
                    Expr::Lam(l.clone())
                )
            }
            Expr::Cons(a, b) => write!(f, "(cons {a} {b})"),
            Expr::Fst(a) => write!(f, "(fst {a})"),
            Expr::Snd(a) => write!(f, "(snd {a})"),
            Expr::VecLit(es) => {
                write!(f, "(vec")?;
                for e in es {
                    write!(f, " {e}")?;
                }
                write!(f, ")")
            }
            Expr::Ann(e, t) => write!(f, "(ann {e} {t})"),
            Expr::Error(msg) => write!(f, "(error {msg:?})"),
            Expr::Set(x, e) => write!(f, "(set! {x} {e})"),
            Expr::Begin(es) => {
                write!(f, "(begin")?;
                for e in es {
                    write!(f, " {e}")?;
                }
                write!(f, ")")
            }
            Expr::Spanned(_, inner) => write!(f, "{inner}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Symbol {
        Symbol::intern("x")
    }

    #[test]
    fn prim_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for p in Prim::all() {
            assert!(seen.insert(p.name()), "duplicate prim name {}", p.name());
        }
    }

    #[test]
    fn free_vars_respect_binders() {
        let y = Symbol::intern("y");
        // (let (x y) (λ(y:Int) (+ x y)))
        let e = Expr::let_(
            x(),
            Expr::Var(y),
            Expr::lam(
                vec![(y, Ty::Int)],
                Expr::prim_app(Prim::Plus, vec![Expr::Var(x()), Expr::Var(y)]),
            ),
        );
        let mut fv = std::collections::HashSet::new();
        e.free_vars(&mut fv);
        assert!(fv.contains(&y)); // the outer y
        assert!(!fv.contains(&x()));
    }

    #[test]
    fn set_target_is_free() {
        let e = Expr::Set(x(), Box::new(Expr::Int(1)));
        let mut fv = std::collections::HashSet::new();
        e.free_vars(&mut fv);
        assert!(fv.contains(&x()));
    }

    #[test]
    fn display_round_trip_shapes() {
        let e = Expr::if_(
            Expr::prim_app(Prim::IsInt, vec![Expr::Var(x())]),
            Expr::Int(1),
            Expr::Int(0),
        );
        assert_eq!(e.to_string(), "(if (int? x) 1 0)");
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::prim_app(Prim::Plus, vec![Expr::Int(1), Expr::Int(2)]);
        assert_eq!(e.size(), 4);
    }
}
