//! Elaboration: surface s-expressions → λ_RTR core syntax.
//!
//! Covers the paper's annotation syntax — named dependent domains
//! `[x : Int]`, refined ranges `[z : Int #:where ψ]`, `Refine`, `All` — and
//! the derived expression forms (`cond`, `and`/`or`, `when`/`unless`,
//! named `let`, `begin`) that Typed Racket programs use. `begin` and
//! friends elaborate to `let`-chains so occurrence information flows
//! through statement sequences (this is how `(unless (= (len A) (len B))
//! (error …))` guards the accesses that follow it, §2.1).

use std::collections::HashSet;

use rtr_core::diag::{Diagnostic, NodeId, SpanTable};
use rtr_core::syntax::{BvCmp, Expr, LinCmp, Obj, Prop, Symbol, Ty, TyResult};

use crate::base_env::{is_reserved, lookup_prim};
use crate::expand;
use crate::sexp::{ListDisplay, Sexp, Span};

/// An elaboration error with its source region.
#[derive(Clone, PartialEq, Debug)]
pub struct ElabError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl ElabError {
    /// The error as a located `E0102` diagnostic.
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::syntax_error(format!("syntax error: {}", self.message), self.span)
    }
}

impl std::fmt::Display for ElabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "syntax error at {}: {}", self.span.start, self.message)
    }
}

impl std::error::Error for ElabError {}

pub(crate) fn err<T>(span: impl Into<Span>, message: impl Into<String>) -> Result<T, ElabError> {
    Err(ElabError {
        message: message.into(),
        span: span.into(),
    })
}

/// The elaborator. Tracks bound type variables (from `All`) so they
/// elaborate to [`Ty::TVar`]s, and records the span of every expression
/// it produces in a [`SpanTable`] (wrapping the core expression in
/// [`Expr::Spanned`]), including synthesized-from provenance for the
/// code macro expansion fabricates.
#[derive(Clone, Debug, Default)]
pub struct Elaborator {
    tvars: HashSet<Symbol>,
    spans: SpanTable,
    /// The surface node currently being elaborated — the provenance
    /// target for synthesized glue.
    current: Option<NodeId>,
}

impl Elaborator {
    /// A fresh elaborator with no bound type variables.
    pub fn new() -> Elaborator {
        Elaborator::default()
    }

    /// The span table accumulated so far, consuming the elaborator.
    pub fn into_spans(self) -> SpanTable {
        self.spans
    }

    /// Records the span of a top-level form (a `define` or signature)
    /// without wrapping an expression — module elaboration anchors
    /// item-level diagnostics to these nodes.
    pub(crate) fn form_node(&mut self, span: Span) -> NodeId {
        self.spans.insert(span)
    }

    /// Wraps macro-synthesized glue with a node whose provenance is the
    /// surface form currently being expanded. No-op outside a form.
    pub(crate) fn tag_synthesized(&mut self, e: Expr) -> Expr {
        match self.current {
            Some(from) => Expr::spanned(self.spans.insert_synthesized(from), e),
            None => e,
        }
    }

    // --- types ---------------------------------------------------------------

    /// Elaborates a type. (Types are not expressions: they carry no span
    /// nodes of their own; diagnostics about them point at the
    /// expression or definition that used them.)
    pub fn ty(&mut self, s: &Sexp) -> Result<Ty, ElabError> {
        match s {
            Sexp::Symbol(name, pos) => self.base_ty(name.as_str(), *pos),
            Sexp::List(items, pos) => self.list_ty(items, *pos),
            _ => err(s.pos(), format!("expected a type, got {s}")),
        }
    }

    /// Elaborates the type written as a list of `items` spanning `pos`;
    /// the items may be a slice of a larger form (a signature's arrow).
    pub(crate) fn list_ty(&mut self, items: &[Sexp], pos: Span) -> Result<Ty, ElabError> {
        // Infix arrow: ([x : Int] [y : Int] -> R).
        if let Some(k) = items
            .iter()
            .position(|i| i.as_symbol() == Some("->"))
            .filter(|&k| k > 0)
        {
            return self.arrow_ty(&items[..k], &items[k + 1..], pos);
        }
        let head = items.first().and_then(Sexp::as_symbol).unwrap_or("");
        match head {
            "->" => self.arrow_ty(&items[1..items.len() - 1], &items[items.len() - 1..], pos),
            "Vecof" | "Vectorof" => {
                if items.len() != 2 {
                    return err(pos, "Vecof takes one type");
                }
                Ok(Ty::vec(self.ty(&items[1])?))
            }
            "Pairof" | "Pair" => {
                if items.len() != 3 {
                    return err(pos, "Pairof takes two types");
                }
                Ok(Ty::pair(self.ty(&items[1])?, self.ty(&items[2])?))
            }
            "U" | "Union" => {
                let mut members = Vec::new();
                for t in &items[1..] {
                    members.push(self.ty(t)?);
                }
                Ok(Ty::union_of(members))
            }
            "All" | "∀" => {
                let [_, vars, body] = items else {
                    return err(pos, "(All (A …) T)");
                };
                let Some(var_list) = vars.as_list() else {
                    return err(vars.pos(), "All expects a variable list");
                };
                let mut names = Vec::new();
                for v in var_list {
                    let Some(name) = v.as_symbol() else {
                        return err(v.pos(), "type variable must be a symbol");
                    };
                    names.push(Symbol::intern(name));
                }
                let added: Vec<Symbol> = names
                    .iter()
                    .copied()
                    .filter(|n| self.tvars.insert(*n))
                    .collect();
                let body = self.ty(body);
                for n in added {
                    self.tvars.remove(&n);
                }
                Ok(Ty::poly(names, body?))
            }
            "Refine" => {
                let [_, binder, prop] = items else {
                    return err(pos, "(Refine [x : T] ψ)");
                };
                let (x, base) = self.binder(binder)?;
                Ok(Ty::refine(x, base, self.prop(prop)?))
            }
            _ => err(pos, format!("unknown type form {}", ListDisplay(items))),
        }
    }

    fn base_ty(&self, name: &str, pos: Span) -> Result<Ty, ElabError> {
        Ok(match name {
            "Int" | "Integer" => Ty::Int,
            "Bool" | "Boolean" => Ty::bool_ty(),
            "True" => Ty::True,
            "False" => Ty::False,
            "Unit" | "Void" => Ty::Unit,
            "BitVec" | "BitVector" => Ty::BitVec,
            "Str" | "String" => Ty::Str,
            "Regex" | "Regexp" => Ty::Regex,
            "Any" | "Top" => Ty::Top,
            "Nothing" | "Bot" => Ty::bot(),
            // Nat = {i:Int | 0 ≤ i} — the §4.4/§5.1 annotation.
            "Nat" | "Natural" => {
                let i = Symbol::fresh("nat");
                Ty::refine(i, Ty::Int, Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(i)))
            }
            // Byte = {b:BitVec | b ≤ #xff} (§2.2).
            "Byte" => {
                let b = Symbol::fresh("byte");
                Ty::refine(
                    b,
                    Ty::BitVec,
                    Prop::bv(Obj::var(b), BvCmp::Ule, Obj::bv(0xff)),
                )
            }
            other => {
                let sym = Symbol::intern(other);
                if self.tvars.contains(&sym) {
                    Ty::TVar(sym)
                } else {
                    return err(pos, format!("unknown type {other}"));
                }
            }
        })
    }

    /// `[x : T]`, the paper's refined-domain sugar `[x : T #:where ψ]`
    /// (e.g. §2.1's `[i : Int #:where (∧ (≤ 0 i) (< i (len v)))]`), or a
    /// bare type, given a fresh name.
    fn binder(&mut self, s: &Sexp) -> Result<(Symbol, Ty), ElabError> {
        if let Some(items) = s.as_list() {
            if items.len() >= 3
                && items[0].as_symbol().is_some()
                && items[1].as_symbol() == Some(":")
            {
                let name = items[0].as_symbol().expect("checked");
                let x = Symbol::intern(name);
                match &items[2..] {
                    [t] => return Ok((x, self.ty(t)?)),
                    [t, Sexp::Keyword(k, _), prop] if k.as_str() == "where" => {
                        let base = self.ty(t)?;
                        // The refinement binds the parameter's own name, so
                        // the proposition may mention it directly.
                        return Ok((x, Ty::refine(x, base, self.prop(prop)?)));
                    }
                    _ => return err(s.pos(), "binder must be [x : T] or [x : T #:where ψ]"),
                }
            }
        }
        Ok((Symbol::fresh("arg"), self.ty(s)?))
    }

    fn arrow_ty(&mut self, doms: &[Sexp], rng: &[Sexp], pos: Span) -> Result<Ty, ElabError> {
        let mut params = Vec::new();
        for d in doms {
            params.push(self.binder(d)?);
        }
        let range = match rng {
            [r] => self.range_ty(r)?,
            _ => return err(pos, "arrow type needs exactly one range"),
        };
        Ok(Ty::fun(params, range))
    }

    /// A range: a type, or `[z : T #:where ψ]` (the paper's sugar for a
    /// refined range).
    fn range_ty(&mut self, s: &Sexp) -> Result<TyResult, ElabError> {
        if let Some(items) = s.as_list() {
            if items.len() == 5
                && items[1].as_symbol() == Some(":")
                && matches!(&items[3], Sexp::Keyword(k, _) if k.as_str() == "where")
            {
                let Some(name) = items[0].as_symbol() else {
                    return err(items[0].pos(), "range binder must be a symbol");
                };
                let z = Symbol::intern(name);
                let base = self.ty(&items[2])?;
                let prop = self.prop(&items[4])?;
                return Ok(TyResult::of_type(Ty::refine(z, base, prop)));
            }
        }
        Ok(TyResult::of_type(self.ty(s)?))
    }

    // --- propositions ---------------------------------------------------------

    /// Elaborates a proposition (the ψ of `#:where`/`Refine`).
    pub fn prop(&mut self, s: &Sexp) -> Result<Prop, ElabError> {
        match s {
            Sexp::Symbol(name, pos) => match name.as_str() {
                "tt" | "true" => Ok(Prop::TT),
                "ff" | "false" => Ok(Prop::FF),
                _ => err(*pos, format!("unknown proposition {name}")),
            },
            Sexp::List(items, pos) => {
                let head = items.first().and_then(Sexp::as_symbol).unwrap_or("");
                match head {
                    "and" | "∧" => {
                        let mut p = Prop::TT;
                        for q in &items[1..] {
                            p = Prop::and(p, self.prop(q)?);
                        }
                        Ok(p)
                    }
                    "or" | "∨" => {
                        let mut p = Prop::FF;
                        for q in &items[1..] {
                            p = Prop::or(p, self.prop(q)?);
                        }
                        Ok(p)
                    }
                    "<" | "<=" | ">" | ">=" | "=" | "!=" | "≤" | "≥" => {
                        self.chain_cmp(head, &items[1..], *pos)
                    }
                    "bv=" | "bv<=" | "bv<" => {
                        let [_, a, b] = items.as_slice() else {
                            return err(*pos, format!("({head} o o)"));
                        };
                        let cmp = match head {
                            "bv=" => BvCmp::Eq,
                            "bv<=" => BvCmp::Ule,
                            _ => BvCmp::Ult,
                        };
                        Ok(Prop::bv(self.obj(a)?, cmp, self.obj(b)?))
                    }
                    "=~" | "!~" => {
                        let [_, o, r] = items.as_slice() else {
                            return err(*pos, format!("({head} s #rx\"…\")"));
                        };
                        let p = Prop::re_match(&self.obj(o)?, &self.obj(r)?);
                        if head == "=~" {
                            Ok(p)
                        } else {
                            match p.negate() {
                                Some(n) => Ok(n),
                                None => Ok(Prop::TT),
                            }
                        }
                    }
                    "is" => {
                        let [_, o, t] = items.as_slice() else {
                            return err(*pos, "(is o T)");
                        };
                        Ok(Prop::is(self.obj(o)?, self.ty(t)?))
                    }
                    "isnot" | "is-not" => {
                        let [_, o, t] = items.as_slice() else {
                            return err(*pos, "(isnot o T)");
                        };
                        Ok(Prop::is_not(self.obj(o)?, self.ty(t)?))
                    }
                    _ => err(*pos, format!("unknown proposition form {s}")),
                }
            }
            _ => err(s.pos(), format!("expected a proposition, got {s}")),
        }
    }

    /// N-ary comparison chains, as in the paper's `(≤ 0 i (sub1 (len v)))`.
    fn chain_cmp(&mut self, op: &str, args: &[Sexp], pos: Span) -> Result<Prop, ElabError> {
        if args.len() < 2 {
            return err(pos, format!("({op} …) needs at least two operands"));
        }
        let mut objs = Vec::new();
        for a in args {
            objs.push(self.obj(a)?);
        }
        let mut p = Prop::TT;
        for w in objs.windows(2) {
            let (a, b) = (w[0].clone(), w[1].clone());
            let atom = match op {
                "<" => Prop::lin(a, LinCmp::Lt, b),
                "<=" | "≤" => Prop::lin(a, LinCmp::Le, b),
                ">" => Prop::lin(b, LinCmp::Lt, a),
                ">=" | "≥" => Prop::lin(b, LinCmp::Le, a),
                "=" => Prop::lin(a, LinCmp::Eq, b),
                _ => Prop::lin(a, LinCmp::Ne, b),
            };
            p = Prop::and(p, atom);
        }
        Ok(p)
    }

    /// Parses a regex literal's pattern, positioning errors at the literal.
    fn regex(
        &mut self,
        pat: &str,
        pos: Span,
    ) -> Result<std::sync::Arc<rtr_solver::re::Regex>, ElabError> {
        match rtr_solver::re::Regex::parse(pat) {
            Ok(r) => Ok(std::sync::Arc::new(r)),
            Err(e) => err(pos, format!("bad regex literal: {e}")),
        }
    }

    // --- symbolic objects -------------------------------------------------------

    /// Elaborates a symbolic object (the linear/bitvector terms allowed in
    /// propositions, §3.4).
    pub fn obj(&mut self, s: &Sexp) -> Result<Obj, ElabError> {
        match s {
            Sexp::Int(n, _) => Ok(Obj::int(*n)),
            Sexp::BvHex(v, _) => Ok(Obj::bv(*v)),
            Sexp::Str(s, _) => Ok(Obj::str_const(s.as_str())),
            Sexp::Regex(pat, pos) => Ok(Obj::re(self.regex(pat, *pos)?)),
            Sexp::Symbol(name, _) => Ok(Obj::var(*name)),
            Sexp::List(items, pos) => {
                let head = items.first().and_then(Sexp::as_symbol).unwrap_or("");
                let rest = &items[1..];
                match head {
                    "len" | "vector-length" | "string-length" => {
                        let [o] = rest else {
                            return err(*pos, "(len o)");
                        };
                        Ok(self.obj(o)?.len())
                    }
                    "fst" | "car" => {
                        let [o] = rest else {
                            return err(*pos, "(fst o)");
                        };
                        Ok(self.obj(o)?.fst())
                    }
                    "snd" | "cdr" => {
                        let [o] = rest else {
                            return err(*pos, "(snd o)");
                        };
                        Ok(self.obj(o)?.snd())
                    }
                    "+" => {
                        let mut acc = Obj::int(0);
                        for o in rest {
                            acc = acc.add(&self.obj(o)?);
                        }
                        Ok(acc)
                    }
                    "-" => match rest {
                        [a] => Ok(self.obj(a)?.scale(-1)),
                        [a, b] => Ok(self.obj(a)?.sub(&self.obj(b)?)),
                        _ => err(*pos, "(- o o)"),
                    },
                    "*" => {
                        let [a, b] = rest else {
                            return err(*pos, "(* n o)");
                        };
                        Ok(self.obj(a)?.mul(&self.obj(b)?))
                    }
                    "add1" => {
                        let [a] = rest else {
                            return err(*pos, "(add1 o)");
                        };
                        Ok(self.obj(a)?.add(&Obj::int(1)))
                    }
                    "sub1" => {
                        let [a] = rest else {
                            return err(*pos, "(sub1 o)");
                        };
                        Ok(self.obj(a)?.sub(&Obj::int(1)))
                    }
                    "bvand" | "AND" => self.bv_obj2(rest, *pos, Obj::bv_and),
                    "bvor" | "OR" => self.bv_obj2(rest, *pos, Obj::bv_or),
                    "bvxor" | "XOR" => self.bv_obj2(rest, *pos, Obj::bv_xor),
                    "bvadd" => self.bv_obj2(rest, *pos, Obj::bv_add),
                    "bvsub" => self.bv_obj2(rest, *pos, Obj::bv_sub),
                    "bvmul" => self.bv_obj2(rest, *pos, Obj::bv_mul),
                    "bvnot" | "NOT" => {
                        let [a] = rest else {
                            return err(*pos, "(bvnot o)");
                        };
                        Ok(self.obj(a)?.bv_not())
                    }
                    _ => err(*pos, format!("unknown object form {s}")),
                }
            }
            _ => err(s.pos(), format!("expected a symbolic object, got {s}")),
        }
    }

    fn bv_obj2(
        &mut self,
        rest: &[Sexp],
        pos: Span,
        f: impl Fn(&Obj, &Obj) -> Obj,
    ) -> Result<Obj, ElabError> {
        let [a, b] = rest else {
            return err(pos, "bitvector op takes two objects");
        };
        Ok(f(&self.obj(a)?, &self.obj(b)?))
    }

    // --- expressions --------------------------------------------------------------

    /// Elaborates an expression, recording its span: the produced core
    /// expression is wrapped in [`Expr::Spanned`] with a node in this
    /// elaborator's span table.
    pub fn expr(&mut self, s: &Sexp) -> Result<Expr, ElabError> {
        let span = s.span();
        let node = self.spans.insert(span);
        let prev = self.current.replace(node);
        let result = self.expr_inner(s);
        self.current = prev;
        Ok(Expr::spanned(node, result?))
    }

    fn expr_inner(&mut self, s: &Sexp) -> Result<Expr, ElabError> {
        match s {
            Sexp::Int(n, _) => Ok(Expr::Int(*n)),
            Sexp::Bool(b, _) => Ok(Expr::Bool(*b)),
            Sexp::BvHex(v, _) => Ok(Expr::BvLit(*v)),
            Sexp::Str(s, _) => Ok(Expr::Str(std::sync::Arc::from(s.as_str()))),
            Sexp::Regex(pat, pos) => Ok(Expr::ReLit(self.regex(pat, *pos)?)),
            Sexp::Keyword(k, pos) => err(*pos, format!("unexpected keyword #:{k}")),
            Sexp::Symbol(name, pos) => {
                if let Some(p) = lookup_prim(name.as_str()) {
                    return Ok(Expr::Prim(p));
                }
                if is_reserved(name.as_str()) {
                    return err(*pos, format!("{name} is syntax, not an expression"));
                }
                Ok(Expr::Var(*name))
            }
            Sexp::List(items, pos) => {
                let head = items.first().and_then(Sexp::as_symbol).unwrap_or("");
                match head {
                    "lambda" | "λ" => self.lambda(&items[1..], *pos),
                    "let" => self.let_form(&items[1..], *pos),
                    "let*" => self.let_like(&items[1..], *pos, false),
                    "letrec" => self.letrec_form(&items[1..], *pos),
                    "if" => match &items[1..] {
                        [c, t, e] => Ok(Expr::if_(self.expr(c)?, self.expr(t)?, self.expr(e)?)),
                        [c, t] => Ok(Expr::if_(self.expr(c)?, self.expr(t)?, Expr::Begin(vec![]))),
                        _ => err(*pos, "(if c t e)"),
                    },
                    "cond" => self.cond_form(&items[1..], *pos),
                    "and" => Ok(expand::and_form(self.exprs(&items[1..])?)),
                    "or" => Ok(expand::or_form(self.exprs(&items[1..])?)),
                    "when" => {
                        let [c, body @ ..] = &items[1..] else {
                            return err(*pos, "(when c e …)");
                        };
                        let body = expand::begin_form(self.exprs(body)?);
                        Ok(Expr::if_(self.expr(c)?, body, Expr::Begin(vec![])))
                    }
                    "unless" => {
                        let [c, body @ ..] = &items[1..] else {
                            return err(*pos, "(unless c e …)");
                        };
                        let body = expand::begin_form(self.exprs(body)?);
                        Ok(Expr::if_(self.expr(c)?, Expr::Begin(vec![]), body))
                    }
                    "begin" => Ok(expand::begin_form(self.exprs(&items[1..])?)),
                    "cons" => {
                        let [a, b] = &items[1..] else {
                            return err(*pos, "(cons a b)");
                        };
                        Ok(Expr::Cons(Box::new(self.expr(a)?), Box::new(self.expr(b)?)))
                    }
                    "fst" | "car" => {
                        let [a] = &items[1..] else {
                            return err(*pos, "(fst e)");
                        };
                        Ok(Expr::Fst(Box::new(self.expr(a)?)))
                    }
                    "snd" | "cdr" => {
                        let [a] = &items[1..] else {
                            return err(*pos, "(snd e)");
                        };
                        Ok(Expr::Snd(Box::new(self.expr(a)?)))
                    }
                    "vec" | "vector" => Ok(Expr::VecLit(self.exprs(&items[1..])?)),
                    "error" => match &items[1..] {
                        [Sexp::Str(msg, _)] => Ok(Expr::Error(msg.clone())),
                        _ => err(*pos, "(error \"message\")"),
                    },
                    "set!" => {
                        let [x, e] = &items[1..] else {
                            return err(*pos, "(set! x e)");
                        };
                        let Some(name) = x.as_symbol() else {
                            return err(x.pos(), "set! target must be a variable");
                        };
                        Ok(Expr::Set(Symbol::intern(name), Box::new(self.expr(e)?)))
                    }
                    "ann" => {
                        let [e, t] = &items[1..] else {
                            return err(*pos, "(ann e T)");
                        };
                        Ok(Expr::ann(self.expr(e)?, self.ty(t)?))
                    }
                    "for/sum" => expand::for_sum(self, &items[1..], *pos),
                    // A non-symbol head (e.g. an immediate lambda
                    // application) falls through to the application case;
                    // only a genuinely empty list is an error.
                    "" if items.is_empty() => err(*pos, "empty application"),
                    // Racket's comparison operators are variadic:
                    // (< a b c) tests a<b<c, evaluating each operand once.
                    "<" | "<=" | ">" | ">=" | "=" if items.len() > 3 => {
                        let args = self.exprs(&items[1..])?;
                        Ok(expand::cmp_chain(head, args))
                    }
                    _ => {
                        // Application. Primitive operator heads are left
                        // unwrapped: diagnostics anchor to arguments or
                        // the application itself, and the checker's
                        // prim fast path stays a direct match.
                        let f = match items[0].as_symbol().and_then(lookup_prim) {
                            Some(p) => Expr::Prim(p),
                            None => self.expr(&items[0])?,
                        };
                        Ok(Expr::app(f, self.exprs(&items[1..])?))
                    }
                }
            }
        }
    }

    pub(crate) fn exprs(&mut self, items: &[Sexp]) -> Result<Vec<Expr>, ElabError> {
        items.iter().map(|s| self.expr(s)).collect()
    }

    fn lambda(&mut self, rest: &[Sexp], pos: Span) -> Result<Expr, ElabError> {
        let [params, body @ ..] = rest else {
            return err(pos, "(lambda (params) body …)");
        };
        let Some(param_list) = params.as_list() else {
            return err(params.pos(), "lambda expects a parameter list");
        };
        let mut ps = Vec::new();
        for p in param_list {
            if let Some(name) = p.as_symbol() {
                ps.push((Symbol::intern(name), Ty::Top));
            } else {
                ps.push(self.binder(p)?);
            }
        }
        if body.is_empty() {
            return err(pos, "lambda needs a body");
        }
        let body = expand::begin_form(self.exprs(body)?);
        Ok(Expr::lam(ps, body))
    }

    fn let_form(&mut self, rest: &[Sexp], pos: Span) -> Result<Expr, ElabError> {
        self.let_like(rest, pos, /* parallel: */ true)
    }

    /// `let` (parallel: right-hand sides cannot see the new bindings, as
    /// in Racket — implemented with fresh temporaries) and `let*`
    /// (sequential).
    fn let_like(&mut self, rest: &[Sexp], pos: Span, parallel: bool) -> Result<Expr, ElabError> {
        // Named let: (let loop : R ([x : T e] …) body …).
        if let Some(name) = rest.first().and_then(Sexp::as_symbol) {
            return expand::named_let(self, name, &rest[1..], pos);
        }
        let [bindings, body @ ..] = rest else {
            return err(pos, "(let (bindings) body …)");
        };
        let Some(binds) = bindings.as_list() else {
            return err(bindings.pos(), "let expects a binding list");
        };
        if body.is_empty() {
            return err(pos, "let needs a body");
        }
        let mut parsed: Vec<(Symbol, Option<Ty>, Expr)> = Vec::with_capacity(binds.len());
        for b in binds {
            let Some(items) = b.as_list() else {
                return err(b.pos(), "binding must be [x e] or [x : T e]");
            };
            match items {
                [x, e] => {
                    let Some(name) = x.as_symbol() else {
                        return err(x.pos(), "binding name must be a symbol");
                    };
                    parsed.push((Symbol::intern(name), None, self.expr(e)?));
                }
                [x, colon, t, e] if colon.as_symbol() == Some(":") => {
                    let Some(name) = x.as_symbol() else {
                        return err(x.pos(), "binding name must be a symbol");
                    };
                    parsed.push((Symbol::intern(name), Some(self.ty(t)?), self.expr(e)?));
                }
                _ => return err(b.pos(), "binding must be [x e] or [x : T e]"),
            }
        }
        let mut out = expand::begin_form(self.exprs(body)?);
        if parallel && parsed.len() > 1 {
            // Evaluate all right-hand sides into temporaries first, then
            // bind the visible names — Racket's parallel `let`.
            let temps: Vec<Symbol> = parsed
                .iter()
                .map(|(x, _, _)| Symbol::fresh_from(*x))
                .collect();
            for ((x, ann, _), tmp) in parsed.iter().zip(&temps).rev() {
                let rhs = match ann {
                    Some(t) => Expr::ann(Expr::Var(*tmp), t.clone()),
                    None => Expr::Var(*tmp),
                };
                out = Expr::let_(*x, rhs, out);
            }
            for ((_, _, rhs), tmp) in parsed.into_iter().zip(temps).rev() {
                out = Expr::let_(tmp, rhs, out);
            }
        } else {
            for (x, ann, rhs) in parsed.into_iter().rev() {
                let rhs = match ann {
                    Some(t) => Expr::ann(rhs, t),
                    None => rhs,
                };
                out = Expr::let_(x, rhs, out);
            }
        }
        Ok(out)
    }

    fn letrec_form(&mut self, rest: &[Sexp], pos: Span) -> Result<Expr, ElabError> {
        let [bindings, body @ ..] = rest else {
            return err(pos, "(letrec (bindings) body …)");
        };
        let Some(binds) = bindings.as_list() else {
            return err(bindings.pos(), "letrec expects a binding list");
        };
        if body.is_empty() {
            return err(pos, "letrec needs a body");
        }
        let mut out = expand::begin_form(self.exprs(body)?);
        for b in binds.iter().rev() {
            let Some([x, colon, t, e]) = b
                .as_list()
                .filter(|l| l.len() == 4)
                .map(|l| [&l[0], &l[1], &l[2], &l[3]])
            else {
                return err(b.pos(), "letrec binding must be [f : T (lambda …)]");
            };
            if colon.as_symbol() != Some(":") {
                return err(b.pos(), "letrec binding must be [f : T (lambda …)]");
            }
            let Some(name) = x.as_symbol() else {
                return err(x.pos(), "letrec name must be a symbol");
            };
            let fty = self.ty(t)?;
            let Expr::Lam(lam) = self.expr(e)? else {
                return err(e.pos(), "letrec right-hand side must be a lambda");
            };
            out = Expr::LetRec(Symbol::intern(name), fty, lam, Box::new(out));
        }
        Ok(out)
    }

    fn cond_form(&mut self, clauses: &[Sexp], pos: Span) -> Result<Expr, ElabError> {
        let mut out = Expr::Begin(vec![]);
        for (i, clause) in clauses.iter().enumerate().rev() {
            let Some(items) = clause.as_list() else {
                return err(clause.pos(), "cond clause must be [test body …]");
            };
            let [test, body @ ..] = items else {
                return err(clause.pos(), "cond clause must be [test body …]");
            };
            if test.as_symbol() == Some("else") {
                if i + 1 != clauses.len() {
                    return err(clause.pos(), "else must be the last cond clause");
                }
                out = expand::begin_form(self.exprs(body)?);
            } else {
                let body = expand::begin_form(self.exprs(body)?);
                out = Expr::if_(self.expr(test)?, body, out);
            }
        }
        if clauses.is_empty() {
            return err(pos, "cond needs at least one clause");
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sexp::read_one;

    fn elab_ty(src: &str) -> Ty {
        Elaborator::new().ty(&read_one(src).unwrap()).unwrap()
    }

    fn elab_expr(src: &str) -> Expr {
        // Structural comparisons below look through the span wrappers.
        Elaborator::new()
            .expr(&read_one(src).unwrap())
            .unwrap()
            .strip_spans()
    }

    #[test]
    fn base_types() {
        assert_eq!(elab_ty("Int"), Ty::Int);
        assert_eq!(elab_ty("Bool"), Ty::bool_ty());
        assert_eq!(elab_ty("(Vecof Int)"), Ty::vec(Ty::Int));
        assert_eq!(
            elab_ty("(U Int Bool)"),
            Ty::union_of(vec![Ty::Int, Ty::bool_ty()])
        );
        assert!(matches!(elab_ty("Nat"), Ty::Refine(_)));
        assert!(matches!(elab_ty("Byte"), Ty::Refine(_)));
    }

    #[test]
    fn arrow_types_infix_and_prefix() {
        let t1 = elab_ty("([x : Int] [y : Int] -> Int)");
        let Ty::Fun(f) = &t1 else { panic!("not a fun") };
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].0, Symbol::intern("x"));
        let t2 = elab_ty("(-> Int Int Int)");
        let Ty::Fun(f) = &t2 else { panic!("not a fun") };
        assert_eq!(f.params.len(), 2);
    }

    #[test]
    fn refined_range_sugar() {
        // Fig. 1's max type.
        let t = elab_ty("([x : Int] [y : Int] -> [z : Int #:where (and (>= z x) (>= z y))])");
        let Ty::Fun(f) = &t else { panic!("not a fun") };
        assert!(matches!(f.range.ty, Ty::Refine(_)));
    }

    #[test]
    fn polymorphic_types() {
        let t = elab_ty("(All (A) ([v : (Vecof A)] -> A))");
        let Ty::Poly(p) = &t else { panic!("not poly") };
        assert_eq!(p.vars.len(), 1);
        // The tvar does not leak.
        assert!(Elaborator::new().ty(&read_one("A").unwrap()).is_err());
    }

    #[test]
    fn comparison_chains() {
        // (≤ 0 i (len v)) = 0 ≤ i ∧ i ≤ len v.
        let p = Elaborator::new()
            .prop(&read_one("(<= 0 i (len v))").unwrap())
            .unwrap();
        let i = || Obj::var(Symbol::intern("i"));
        let v = || Obj::var(Symbol::intern("v")).len();
        assert_eq!(
            p,
            Prop::and(
                Prop::lin(Obj::int(0), LinCmp::Le, i()),
                Prop::lin(i(), LinCmp::Le, v()),
            )
        );
    }

    #[test]
    fn expressions() {
        assert_eq!(elab_expr("42"), Expr::Int(42));
        assert_eq!(
            elab_expr("(+ 1 2)"),
            Expr::prim_app(
                rtr_core::syntax::Prim::Plus,
                vec![Expr::Int(1), Expr::Int(2)]
            )
        );
        assert!(matches!(elab_expr("(lambda ([x : Int]) x)"), Expr::Lam(_)));
        assert!(matches!(elab_expr("(if #t 1 2)"), Expr::If(..)));
        assert!(matches!(elab_expr("(error \"boom\")"), Expr::Error(_)));
        assert!(matches!(elab_expr("(vec 1 2 3)"), Expr::VecLit(_)));
    }

    #[test]
    fn immediate_lambda_application() {
        // ((lambda (x) …) 1) — a list-headed application, not an "empty
        // application" (regression: the head-symbol dispatch used to
        // reject any non-symbol operator).
        let e = elab_expr("((lambda ([x : Int]) (add1 x)) 1)");
        let Expr::App(f, args) = e else {
            panic!("expected application")
        };
        assert!(matches!(*f, Expr::Lam(_)));
        assert_eq!(args, vec![Expr::Int(1)]);
        // The empty list is still an error.
        assert!(Elaborator::new().expr(&read_one("()").unwrap()).is_err());
    }

    #[test]
    fn cond_expands_to_ifs() {
        let e = elab_expr("(cond [(zero? x) 1] [(int? x) 2] [else 3])");
        let Expr::If(_, _, else1) = e else {
            panic!("expected if")
        };
        assert!(matches!(*else1, Expr::If(..)));
    }

    #[test]
    fn and_or_expand() {
        // (and a b) = (if a b #f); (or a b) = (let (t a) (if t t b)).
        let e = elab_expr("(and #t #f)");
        assert!(matches!(e, Expr::If(..)));
        let e = elab_expr("(or #t #f)");
        assert!(matches!(e, Expr::Let(..)));
        assert_eq!(elab_expr("(and)"), Expr::Bool(true));
        assert_eq!(elab_expr("(or)"), Expr::Bool(false));
    }

    #[test]
    fn begin_threads_through_lets() {
        let e = elab_expr("(begin (set! x 1) 2)");
        assert!(
            matches!(e, Expr::Let(..)),
            "begin must elaborate to let-chains, got {e}"
        );
    }

    #[test]
    fn syntax_errors_are_positioned() {
        let e = Elaborator::new()
            .expr(&read_one("(if #t)").unwrap())
            .unwrap_err();
        assert!(e.message.contains("if"));
        assert!(Elaborator::new().ty(&read_one("(Vecof)").unwrap()).is_err());
        assert!(Elaborator::new()
            .expr(&read_one("(error 42)").unwrap())
            .is_err());
    }
}
