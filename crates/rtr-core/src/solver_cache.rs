//! The incremental theory-solving layer: solver-query memoization,
//! incremental Fourier–Motzkin, and the persistent bitvector session.
//!
//! Three reuse mechanisms sit between the `L-Theory` adapters in
//! [`crate::logic`] and the one-shot solvers in `rtr-solver`, all gated
//! by [`crate::config::CheckerConfig::solver_cache`]:
//!
//! 1. **Fingerprint memoization.** Every satisfiability query (an
//!    entailment is `facts ∧ ¬goal`) is canonicalized into a
//!    [`TheoryFp`]: the atom list is sorted, deduplicated, and its paths
//!    renamed to de-Bruijn-style indices in first-occurrence order
//!    (keeping the `len`-path flag, which the linear translator turns
//!    into non-negativity side constraints). Canonicalization preserves
//!    the constraint system up to variable renaming, and solver verdicts
//!    are invariant under renaming, so a cached verdict transfers to
//!    every environment posing the same system — these tables are
//!    environment-independent, the solver-level analogue of the
//!    generation-0 subtype entries.
//! 2. **Incremental Fourier–Motzkin.** Each environment's linear store
//!    carries an epoch stamp ([`crate::env::Env::lin_epoch`]) with a
//!    parent pointer recording append-only extension. A [`LinStore`]
//!    (translated rows + elimination trace) is cached per epoch; adding
//!    facts after a snapshot replays only the delta through the parent's
//!    recorded eliminations (`FmTrace`), and entailment goals are a
//!    one-row delta against the warm trace.
//! 3. **Bitvector session.** One [`rtr_solver::bv::BvSession`] per
//!    checker keeps a growing CNF with hash-consed term encodings and the
//!    CDCL solver's learnt clauses; facts and goals are activation-guarded
//!    assumptions, so repeated goals over the same terms skip re-encoding
//!    and re-derivation.
//!
//! All tables live in [`crate::cache::Caches`], capped and flushed like
//! the judgment memo tables (a long-lived server process must not grow
//! them unboundedly).

use std::sync::Arc;

use rtr_solver::fxhash::FxHashMap;

use rtr_solver::bv::{BvLit, BvResult, BvSession, BvTerm};
use rtr_solver::lin::{Constraint, FmTrace, FourierMotzkin, LinExpr, LinResult, SolverVar};
use rtr_solver::rational::Rat;
use rtr_solver::re::{ReConstraint, ReResult, ReSession, Regex};

use crate::cache::{LockRecover, SOLVER_TABLE_CAP};
use crate::check::Checker;
use crate::env::Env;
use crate::syntax::{BvAtomProp, BvCmp, BvObj, Field, LinAtom, LinCmp, LinObj, Path, StrAtomProp};

/// Rebuild the elimination trace once this many rows accumulate past the
/// traced prefix — bounding the per-extension replay cost.
const TRACE_MAX_PENDING: usize = 8;

/// Retire the bitvector session once its CNF grows past this many
/// variables (a fresh session re-encodes lazily; verdict memos survive).
/// Must sit well below the blaster's aux-variable budget (1,000,000):
/// past that the blaster refuses new encodings, so a session allowed to
/// reach it would answer `Unknown` forever instead of being retired.
const SESSION_MAX_VARS: u32 = 1 << 19;

/// Retire the regex session once its DFA caches hold this many states
/// (a fresh session recompiles lazily; the fingerprint memos survive).
const SESSION_MAX_STATES: usize = 1 << 16;

// --- canonical fingerprints ---------------------------------------------

/// One token of a canonical constraint-system serialization.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum FpTok {
    /// Structural marker (atom separators, comparison and node opcodes).
    Op(u8),
    /// A renamed path.
    Var(u32),
    /// A renamed path whose last field is `len` (the linear translator
    /// adds `0 ≤ v` for these, so the flag is semantically relevant).
    LenVar(u32),
    /// An integer constant / coefficient.
    Int(i64),
    /// A bitvector constant.
    Word(u64),
    /// A string literal.
    Str(Arc<str>),
    /// A regex (compared and hashed structurally).
    Re(Arc<Regex>),
}

/// A canonicalized constraint-system fingerprint: sorted, deduplicated
/// atoms with paths renamed to first-occurrence indices. Two queries with
/// equal fingerprints pose variable-renamings of the same system, so
/// solver verdicts transfer between them.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct TheoryFp(Vec<FpTok>);

/// Opcode space for [`FpTok::Op`].
mod op {
    pub(super) const SEP: u8 = 0;
    pub(super) const LT: u8 = 1;
    pub(super) const LE: u8 = 2;
    pub(super) const EQ: u8 = 3;
    pub(super) const NE: u8 = 4;
    pub(super) const ULE: u8 = 5;
    pub(super) const ULT: u8 = 6;
    pub(super) const POS: u8 = 7;
    pub(super) const NEG: u8 = 8;
    pub(super) const CONST: u8 = 9;
    pub(super) const PATH: u8 = 10;
    pub(super) const NOT: u8 = 11;
    pub(super) const AND: u8 = 12;
    pub(super) const OR: u8 = 13;
    pub(super) const XOR: u8 = 14;
    pub(super) const ADD: u8 = 15;
    pub(super) const SUB: u8 = 16;
    pub(super) const MUL: u8 = 17;
    pub(super) const GOAL: u8 = 18;
}

/// First-occurrence path renamer shared by the atoms of one query.
/// Borrows the paths (a query touches a handful, so a linear scan beats
/// hashing plus cloning each `Path` into a map).
#[derive(Default)]
struct Renamer<'a> {
    seen: Vec<&'a Path>,
}

impl<'a> Renamer<'a> {
    fn tok(&mut self, p: &'a Path) -> FpTok {
        let idx = match self.seen.iter().position(|q| *q == p) {
            Some(i) => i as u32,
            None => {
                self.seen.push(p);
                (self.seen.len() - 1) as u32
            }
        };
        if p.fields.last() == Some(&Field::Len) {
            FpTok::LenVar(idx)
        } else {
            FpTok::Var(idx)
        }
    }
}

/// Sorts and dedups atoms by a deterministic structural order, then
/// serializes them through `emit` with a shared renamer. The sort order
/// (which still sees original paths) only fixes a canonical sequence —
/// the emitted tokens carry the full renamed structure, so distinct
/// systems can never collide.
fn fingerprint<'a, A: PartialEq>(
    atoms: Vec<&'a A>,
    cmp: impl Fn(&A, &A) -> std::cmp::Ordering,
    emit: impl Fn(&'a A, &mut Renamer<'a>, &mut Vec<FpTok>),
) -> TheoryFp {
    let mut sorted = atoms;
    sorted.sort_unstable_by(|a, b| cmp(a, b));
    sorted.dedup_by(|a, b| a == b);
    let mut renamer = Renamer::default();
    let mut toks = Vec::with_capacity(sorted.len() * 8);
    for a in sorted {
        emit(a, &mut renamer, &mut toks);
        toks.push(FpTok::Op(op::SEP));
    }
    TheoryFp(toks)
}

// --- structural atom orderings (allocation-free sort keys) --------------

fn cmp_lin_obj(a: &LinObj, b: &LinObj) -> std::cmp::Ordering {
    a.constant
        .cmp(&b.constant)
        .then_with(|| a.terms.cmp(&b.terms))
}

fn cmp_lin_atom(a: &LinAtom, b: &LinAtom) -> std::cmp::Ordering {
    (a.cmp as u8)
        .cmp(&(b.cmp as u8))
        .then_with(|| cmp_lin_obj(&a.lhs, &b.lhs))
        .then_with(|| cmp_lin_obj(&a.rhs, &b.rhs))
}

fn bv_node_rank(o: &BvObj) -> u8 {
    match o {
        BvObj::Const(_) => 0,
        BvObj::Path(_) => 1,
        BvObj::Not(_) => 2,
        BvObj::And(..) => 3,
        BvObj::Or(..) => 4,
        BvObj::Xor(..) => 5,
        BvObj::Add(..) => 6,
        BvObj::Sub(..) => 7,
        BvObj::Mul(..) => 8,
    }
}

fn cmp_bv_obj(a: &BvObj, b: &BvObj) -> std::cmp::Ordering {
    match (a, b) {
        (BvObj::Const(x), BvObj::Const(y)) => x.cmp(y),
        (BvObj::Path(x), BvObj::Path(y)) => x.cmp(y),
        (BvObj::Not(x), BvObj::Not(y)) => cmp_bv_obj(x, y),
        (BvObj::And(x1, x2), BvObj::And(y1, y2))
        | (BvObj::Or(x1, x2), BvObj::Or(y1, y2))
        | (BvObj::Xor(x1, x2), BvObj::Xor(y1, y2))
        | (BvObj::Add(x1, x2), BvObj::Add(y1, y2))
        | (BvObj::Sub(x1, x2), BvObj::Sub(y1, y2))
        | (BvObj::Mul(x1, x2), BvObj::Mul(y1, y2)) => {
            cmp_bv_obj(x1, y1).then_with(|| cmp_bv_obj(x2, y2))
        }
        _ => bv_node_rank(a).cmp(&bv_node_rank(b)),
    }
}

fn cmp_bv_atom(a: &BvAtomProp, b: &BvAtomProp) -> std::cmp::Ordering {
    a.positive
        .cmp(&b.positive)
        .then_with(|| (a.cmp as u8).cmp(&(b.cmp as u8)))
        .then_with(|| cmp_bv_obj(&a.lhs, &b.lhs))
        .then_with(|| cmp_bv_obj(&a.rhs, &b.rhs))
}

fn cmp_str_atom(a: &StrAtomProp, b: &StrAtomProp) -> std::cmp::Ordering {
    use crate::syntax::StrObj;
    use std::cmp::Ordering;
    let lhs = match (&a.lhs, &b.lhs) {
        (StrObj::Const(x), StrObj::Const(y)) => x.cmp(y),
        (StrObj::Path(x), StrObj::Path(y)) => x.cmp(y),
        (StrObj::Const(_), StrObj::Path(_)) => Ordering::Less,
        (StrObj::Path(_), StrObj::Const(_)) => Ordering::Greater,
    };
    a.positive
        .cmp(&b.positive)
        .then(lhs)
        // Regexes have no cheap total order; break the (rare) tie between
        // equal-polarity, equal-subject atoms structurally via the debug
        // rendering, so the canonical order — and with it the fingerprint
        // — never depends on heap addresses.
        .then_with(|| {
            if Arc::ptr_eq(&a.re, &b.re) {
                std::cmp::Ordering::Equal
            } else {
                format!("{:?}", a.re).cmp(&format!("{:?}", b.re))
            }
        })
}

fn lin_cmp_op(c: LinCmp) -> u8 {
    match c {
        LinCmp::Lt => op::LT,
        LinCmp::Le => op::LE,
        LinCmp::Eq => op::EQ,
        LinCmp::Ne => op::NE,
    }
}

fn emit_lin_obj<'a>(l: &'a LinObj, r: &mut Renamer<'a>, out: &mut Vec<FpTok>) {
    out.push(FpTok::Int(l.constant));
    for (c, p) in &l.terms {
        out.push(FpTok::Int(*c));
        out.push(r.tok(p));
    }
}

fn emit_lin_atom<'a>(a: &'a LinAtom, r: &mut Renamer<'a>, out: &mut Vec<FpTok>) {
    out.push(FpTok::Op(lin_cmp_op(a.cmp)));
    emit_lin_obj(&a.lhs, r, out);
    out.push(FpTok::Op(op::SEP));
    emit_lin_obj(&a.rhs, r, out);
}

fn emit_bv_obj<'a>(o: &'a BvObj, r: &mut Renamer<'a>, out: &mut Vec<FpTok>) {
    match o {
        BvObj::Const(v) => {
            out.push(FpTok::Op(op::CONST));
            out.push(FpTok::Word(*v));
        }
        BvObj::Path(p) => {
            out.push(FpTok::Op(op::PATH));
            out.push(r.tok(p));
        }
        BvObj::Not(a) => {
            out.push(FpTok::Op(op::NOT));
            emit_bv_obj(a, r, out);
        }
        BvObj::And(a, b) => emit_bv_binary(op::AND, a, b, r, out),
        BvObj::Or(a, b) => emit_bv_binary(op::OR, a, b, r, out),
        BvObj::Xor(a, b) => emit_bv_binary(op::XOR, a, b, r, out),
        BvObj::Add(a, b) => emit_bv_binary(op::ADD, a, b, r, out),
        BvObj::Sub(a, b) => emit_bv_binary(op::SUB, a, b, r, out),
        BvObj::Mul(a, b) => emit_bv_binary(op::MUL, a, b, r, out),
    }
}

fn emit_bv_binary<'a>(
    code: u8,
    a: &'a BvObj,
    b: &'a BvObj,
    r: &mut Renamer<'a>,
    out: &mut Vec<FpTok>,
) {
    out.push(FpTok::Op(code));
    emit_bv_obj(a, r, out);
    emit_bv_obj(b, r, out);
}

fn emit_bv_atom<'a>(a: &'a BvAtomProp, r: &mut Renamer<'a>, out: &mut Vec<FpTok>) {
    out.push(FpTok::Op(if a.positive { op::POS } else { op::NEG }));
    out.push(FpTok::Op(match a.cmp {
        BvCmp::Eq => op::EQ,
        BvCmp::Ule => op::ULE,
        BvCmp::Ult => op::ULT,
    }));
    emit_bv_obj(&a.lhs, r, out);
    emit_bv_obj(&a.rhs, r, out);
}

fn emit_str_atom<'a>(a: &'a StrAtomProp, r: &mut Renamer<'a>, out: &mut Vec<FpTok>) {
    out.push(FpTok::Op(if a.positive { op::POS } else { op::NEG }));
    match &a.lhs {
        crate::syntax::StrObj::Const(s) => {
            out.push(FpTok::Op(op::CONST));
            out.push(FpTok::Str(s.clone()));
        }
        crate::syntax::StrObj::Path(p) => {
            out.push(FpTok::Op(op::PATH));
            out.push(r.tok(p));
        }
    }
    out.push(FpTok::Re(a.re.clone()));
}

/// Canonical fingerprint of a linear constraint system (facts, optionally
/// extended with the negated entailment goal — the combined system is
/// what the solver actually decides).
pub(crate) fn lin_fingerprint(facts: &[LinAtom], neg_goal: Option<&LinAtom>) -> TheoryFp {
    let atoms: Vec<&LinAtom> = facts.iter().chain(neg_goal).collect();
    fingerprint(atoms, cmp_lin_atom, emit_lin_atom)
}

/// Canonical fingerprint of a bitvector literal conjunction.
pub(crate) fn bv_fingerprint(facts: &[BvAtomProp], neg_goal: Option<&BvAtomProp>) -> TheoryFp {
    let atoms: Vec<&BvAtomProp> = facts.iter().chain(neg_goal).collect();
    fingerprint(atoms, cmp_bv_atom, emit_bv_atom)
}

/// Canonical fingerprint of a regex-membership query. The goal (when
/// present) is marked rather than negated — the regex adapter's
/// ground-atom preprocessing is polarity-sensitive.
pub(crate) fn str_fingerprint(facts: &[StrAtomProp], goal: Option<&StrAtomProp>) -> TheoryFp {
    let mut sorted: Vec<&StrAtomProp> = facts.iter().collect();
    sorted.sort_unstable_by(|a, b| cmp_str_atom(a, b));
    sorted.dedup_by(|a, b| a == b);
    let mut renamer = Renamer::default();
    let mut toks = Vec::with_capacity((sorted.len() + 1) * 4);
    for a in sorted {
        emit_str_atom(a, &mut renamer, &mut toks);
        toks.push(FpTok::Op(op::SEP));
    }
    if let Some(g) = goal {
        toks.push(FpTok::Op(op::GOAL));
        emit_str_atom(g, &mut renamer, &mut toks);
    }
    TheoryFp(toks)
}

// --- incremental linear stores ------------------------------------------

/// The cached linear-solver state of one environment's fact store: the
/// path→variable mapping (stable across extensions, so delta rows
/// compose), the satisfiability verdict, and — when available — the
/// recorded elimination trace plus the few `pending` rows added since it
/// was recorded. A child store or an entailment goal replays only
/// `pending` (plus its own delta) through the trace instead of
/// re-eliminating the whole system; once `pending` outgrows
/// [`TRACE_MAX_PENDING`], the system is re-solved and re-traced.
#[derive(Debug)]
pub(crate) struct LinStore {
    vars: Arc<FxHashMap<Path, SolverVar>>,
    /// Translated rows not covered by `trace` (small by construction).
    pending: Vec<Constraint>,
    num_atoms: usize,
    pub(crate) result: LinResult,
    trace: Option<Arc<FmTrace>>,
}

/// Allocates (or finds) the solver variable for `p`, appending the
/// `0 ≤ v` side constraint the first time a `len` path is seen — the
/// persistent-translation equivalent of the one-shot translator's
/// `add_len_nonneg` pass.
fn lin_var(
    p: &Path,
    vars: &mut FxHashMap<Path, SolverVar>,
    rows: &mut Vec<Constraint>,
) -> SolverVar {
    if let Some(&v) = vars.get(p) {
        return v;
    }
    let v = SolverVar(vars.len() as u32);
    vars.insert(p.clone(), v);
    if p.fields.last() == Some(&Field::Len) {
        rows.push(Constraint::ge(LinExpr::var(v), LinExpr::constant(0)));
    }
    v
}

fn lin_expr(
    l: &LinObj,
    vars: &mut FxHashMap<Path, SolverVar>,
    rows: &mut Vec<Constraint>,
) -> LinExpr {
    let terms: Vec<(Rat, SolverVar)> = l
        .terms
        .iter()
        .map(|(c, p)| (Rat::from(*c), lin_var(p, vars, rows)))
        .collect();
    LinExpr::from_terms(terms, Rat::from(l.constant))
}

/// Translates `a` and appends its row (plus any new `len` side rows).
fn push_lin_atom(a: &LinAtom, vars: &mut FxHashMap<Path, SolverVar>, rows: &mut Vec<Constraint>) {
    let lhs = lin_expr(&a.lhs, vars, rows);
    let rhs = lin_expr(&a.rhs, vars, rows);
    rows.push(match a.cmp {
        LinCmp::Lt => Constraint::lt(lhs, rhs),
        LinCmp::Le => Constraint::le(lhs, rhs),
        LinCmp::Eq => Constraint::eq(lhs, rhs),
        LinCmp::Ne => Constraint::ne(lhs, rhs),
    });
}

/// Translates every atom from scratch (the slow path, used when no trace
/// can be extended) and returns the full row set with its var map.
fn translate_all(facts: &[LinAtom]) -> (FxHashMap<Path, SolverVar>, Vec<Constraint>) {
    let mut vars = FxHashMap::default();
    let mut rows = Vec::with_capacity(facts.len() + 2);
    for a in facts {
        push_lin_atom(a, &mut vars, &mut rows);
    }
    (vars, rows)
}

impl Checker {
    /// The cached [`LinStore`] for `env`'s linear facts, built by
    /// extending the parent epoch's store when the facts are an
    /// append-only extension, else from scratch.
    fn lin_store_for(&self, env: &Env) -> Arc<LinStore> {
        let epoch = env.lin_epoch();
        {
            let stores = self.caches().lin_stores.lock_recover();
            if let Some(s) = stores.get(&epoch) {
                return s.clone();
            }
        }
        let parent = env
            .lin_parent()
            .and_then(|p| self.caches().lin_stores.lock_recover().get(&p).cloned());
        let facts = env.lin_facts();
        let store = match parent {
            Some(p) if p.num_atoms <= facts.len() => self.lin_store_extended(&p, facts),
            _ => self.lin_store_full(facts),
        };
        let store = Arc::new(store);
        // A deadline-degraded verdict is transient: caching it would leave
        // later, unhurried checks reading a starved `Unknown` forever.
        self.budget().poll_deadline();
        if self.may_store() {
            let mut stores = self.caches().lin_stores.lock_recover();
            if stores.len() >= SOLVER_TABLE_CAP {
                stores.clear();
            }
            stores.insert(epoch, store.clone());
        }
        store
    }

    /// A Fourier–Motzkin instance carrying the budget's wall-clock
    /// deadline, so long eliminations degrade to `Unknown` in time.
    pub(crate) fn fm_solver(&self) -> FourierMotzkin {
        let mut fm = FourierMotzkin::new(self.config.fm);
        fm.set_deadline(self.budget().deadline());
        fm
    }

    fn lin_store_full(&self, facts: &[LinAtom]) -> LinStore {
        let (vars, rows) = translate_all(facts);
        let fm = self.fm_solver();
        let (result, trace) = fm.check_traced(&rows);
        match trace {
            Some(t) => LinStore {
                vars: Arc::new(vars),
                pending: Vec::new(),
                num_atoms: facts.len(),
                result,
                trace: Some(Arc::new(t)),
            },
            None => LinStore {
                vars: Arc::new(vars),
                pending: rows,
                num_atoms: facts.len(),
                result,
                trace: None,
            },
        }
    }

    /// Extends `parent` with `facts[parent.num_atoms..]`: the delta rows
    /// join the parent's pending set and are replayed through its trace;
    /// once the pending set outgrows the budget (or the trace can't
    /// replay the delta) the whole system is re-solved and re-traced.
    fn lin_store_extended(&self, parent: &LinStore, facts: &[LinAtom]) -> LinStore {
        if parent.result == LinResult::Unsat {
            // Supersets of an unsat system are unsat; nothing to solve.
            return LinStore {
                vars: parent.vars.clone(),
                pending: Vec::new(),
                num_atoms: facts.len(),
                result: LinResult::Unsat,
                trace: None,
            };
        }
        let mut vars = parent.vars.clone();
        let mut pending = parent.pending.clone();
        for a in &facts[parent.num_atoms..] {
            push_lin_atom(a, Arc::make_mut(&mut vars), &mut pending);
        }
        if let Some(t) = &parent.trace {
            if pending.len() <= TRACE_MAX_PENDING {
                let fm = self.fm_solver();
                // The trace covers everything but `pending`; replay it all.
                if let Some(result) = fm.check_with_trace(t, &pending) {
                    return LinStore {
                        vars,
                        pending,
                        num_atoms: facts.len(),
                        result,
                        trace: Some(t.clone()),
                    };
                }
            }
        }
        self.lin_store_full(facts)
    }

    /// Satisfiability of `env`'s linear facts via the incremental store.
    pub(crate) fn lin_check_cached(&self, env: &Env) -> LinResult {
        self.lin_store_for(env).result
    }

    /// Entailment `facts ⊨ goal` via the fingerprint memo and a
    /// pending+¬goal delta replay of the store's elimination trace.
    pub(crate) fn lin_entails_cached(&self, env: &Env, goal: &LinAtom) -> bool {
        // Ground goals (both sides constant — literal loop bounds and
        // indices produce these constantly) are decided by evaluation:
        // a true ground goal is entailed by anything, a false one only
        // by an inconsistent fact set.
        if let (Some(l), Some(r)) = (goal.lhs.as_constant(), goal.rhs.as_constant()) {
            let truth = match goal.cmp {
                LinCmp::Lt => l < r,
                LinCmp::Le => l <= r,
                LinCmp::Eq => l == r,
                LinCmp::Ne => l != r,
            };
            return truth || self.lin_check_cached(env).is_unsat();
        }
        let neg = goal.negate();
        let fp = lin_fingerprint(env.lin_facts(), Some(&neg));
        if let Some(r) = self.caches().lin.lookup(&fp, &self.trace().lin) {
            return r.is_unsat();
        }
        let store = self.lin_store_for(env);
        let result = if store.result == LinResult::Unsat {
            LinResult::Unsat
        } else {
            let mut delta = store.pending.clone();
            let mut vars = store.vars.clone();
            push_lin_atom(&neg, Arc::make_mut(&mut vars), &mut delta);
            let fm = self.fm_solver();
            let traced = store
                .trace
                .as_ref()
                .and_then(|t| fm.check_with_trace(t, &delta));
            traced.unwrap_or_else(|| {
                // Full fallback: re-translate everything plus the goal.
                let (mut all_vars, mut all) = translate_all(env.lin_facts());
                push_lin_atom(&neg, &mut all_vars, &mut all);
                fm.check(&all)
            })
        };
        self.budget().poll_deadline();
        if self.may_store() {
            self.caches().lin.store(fp, result);
        }
        result.is_unsat()
    }
}

// --- the persistent bitvector oracle ------------------------------------

/// The checker's long-lived bitvector solving state: a stable
/// path→variable mapping (so identical atoms re-encode to identical
/// terms across queries) and the incremental [`BvSession`].
#[derive(Debug)]
pub(crate) struct BvOracle {
    vars: FxHashMap<Path, SolverVar>,
    session: BvSession,
}

impl BvOracle {
    fn new(config: &crate::config::CheckerConfig) -> BvOracle {
        BvOracle {
            vars: FxHashMap::default(),
            session: BvSession::new(config.sat),
        }
    }

    fn var(&mut self, p: &Path) -> SolverVar {
        if let Some(&v) = self.vars.get(p) {
            return v;
        }
        let v = SolverVar(self.vars.len() as u32);
        self.vars.insert(p.clone(), v);
        v
    }

    fn term(&mut self, o: &BvObj, width: u32) -> BvTerm {
        match o {
            BvObj::Const(v) => BvTerm::constant(*v, width),
            BvObj::Path(p) => BvTerm::var(self.var(p), width),
            BvObj::Not(a) => self.term(a, width).not(),
            BvObj::And(a, b) => self.term(a, width).and(self.term(b, width)),
            BvObj::Or(a, b) => self.term(a, width).or(self.term(b, width)),
            BvObj::Xor(a, b) => self.term(a, width).xor(self.term(b, width)),
            BvObj::Add(a, b) => self.term(a, width).add(self.term(b, width)),
            BvObj::Sub(a, b) => self.term(a, width).sub(self.term(b, width)),
            BvObj::Mul(a, b) => self.term(a, width).mul(self.term(b, width)),
        }
    }

    fn lit(&mut self, a: &BvAtomProp, width: u32) -> Option<BvLit> {
        use rtr_solver::bv::BvAtom;
        let lhs = self.term(&a.lhs, width);
        let rhs = self.term(&a.rhs, width);
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

impl Checker {
    /// Runs `query` against the persistent session, retiring and
    /// recreating the session when it has grown past its budget.
    fn with_bv_oracle<R>(&self, query: impl FnOnce(&mut BvOracle, u32) -> R) -> R {
        let mut guard = self.caches().bv_oracle.lock_recover();
        let oracle = guard.get_or_insert_with(|| BvOracle::new(&self.config));
        if oracle.session.num_vars() > SESSION_MAX_VARS {
            *oracle = BvOracle::new(&self.config);
        }
        oracle.session.set_deadline(self.budget().deadline());
        query(oracle, self.config.bv_width)
    }

    /// Satisfiability of `env`'s bitvector facts via fingerprint memo +
    /// persistent session.
    pub(crate) fn bv_check_cached(&self, env: &Env) -> BvResult {
        let fp = bv_fingerprint(env.bv_facts(), None);
        if let Some(r) = self.caches().bv.lookup(&fp, &self.trace().bv) {
            return r;
        }
        let result = self.with_bv_oracle(|oracle, width| {
            let lits: Vec<BvLit> = env
                .bv_facts()
                .iter()
                .filter_map(|a| oracle.lit(a, width))
                .collect();
            oracle.session.check(&lits)
        });
        self.budget().poll_deadline();
        if self.may_store() {
            self.caches().bv.store(fp, result);
        }
        result
    }

    /// Entailment `facts ⊨ goal` via fingerprint memo + persistent
    /// session (`facts ∧ ¬goal` unsatisfiable).
    pub(crate) fn bv_entails_cached(&self, env: &Env, goal: &BvAtomProp) -> bool {
        let neg = goal.negate();
        let fp = bv_fingerprint(env.bv_facts(), Some(&neg));
        if let Some(r) = self.caches().bv.lookup(&fp, &self.trace().bv) {
            return r.is_unsat();
        }
        let result = self.with_bv_oracle(|oracle, width| {
            let mut lits: Vec<BvLit> = env
                .bv_facts()
                .iter()
                .filter_map(|a| oracle.lit(a, width))
                .collect();
            let Some(goal_lit) = oracle.lit(&neg, width) else {
                // Untranslatable goal: not entailed, and not cacheable as
                // a satisfiability verdict — mirror the one-shot adapter.
                return None;
            };
            lits.push(goal_lit);
            Some(oracle.session.check(&lits))
        });
        match result {
            Some(r) => {
                self.budget().poll_deadline();
                if self.may_store() {
                    self.caches().bv.store(fp, r);
                }
                r.is_unsat()
            }
            None => false,
        }
    }
}

// --- the persistent regex oracle ----------------------------------------

/// The checker's long-lived regex solving state: a stable path→variable
/// mapping (so identical atoms re-translate to identical constraints
/// across queries) and the persistent [`ReSession`] whose literal-DFA,
/// intersection-product, and emptiness-witness caches warm up across the
/// checking run. Session verdicts are per-variable and invariant under
/// variable renaming, so the stable mapping cannot change any verdict
/// relative to the one-shot translator's per-query numbering.
#[derive(Debug)]
pub(crate) struct ReOracle {
    vars: FxHashMap<Path, SolverVar>,
    pub(crate) session: ReSession,
}

impl ReOracle {
    fn new(config: &crate::config::CheckerConfig) -> ReOracle {
        ReOracle {
            vars: FxHashMap::default(),
            session: ReSession::new(config.re),
        }
    }

    fn var(&mut self, p: &Path) -> SolverVar {
        if let Some(&v) = self.vars.get(p) {
            return v;
        }
        let v = SolverVar(self.vars.len() as u32);
        self.vars.insert(p.clone(), v);
        v
    }

    fn constraint(&mut self, a: &StrAtomProp) -> ReConstraint {
        let crate::syntax::StrObj::Path(p) = &a.lhs else {
            unreachable!("ground atoms are filtered before translation")
        };
        ReConstraint {
            var: self.var(p),
            regex: a.re.clone(),
            positive: a.positive,
        }
    }
}

impl Checker {
    /// Runs `query` against the persistent regex session, retiring and
    /// recreating the session when its DFA caches outgrow the budget.
    fn with_re_oracle<R>(&self, query: impl FnOnce(&mut ReOracle) -> R) -> R {
        let mut guard = self.caches().re_oracle.lock_recover();
        let oracle = guard.get_or_insert_with(|| ReOracle::new(&self.config));
        if oracle.session.num_states() > SESSION_MAX_STATES {
            *oracle = ReOracle::new(&self.config);
        }
        oracle.session.set_deadline(self.budget().deadline());
        query(oracle)
    }

    /// Cache-effectiveness counters of the checker's regex session over
    /// its lifetime, shared by every check on the checker (zeroes when
    /// no string-theory query has run yet, or right after the session
    /// was retired for outgrowing its state budget).
    pub fn re_session_stats(&self) -> rtr_solver::re::ReSessionStats {
        self.caches()
            .re_oracle
            .lock_recover()
            .as_ref()
            .map(|o| o.session.stats())
            .unwrap_or_default()
    }

    /// Entailment `facts ⊨ goal` in the regex theory via the persistent
    /// session. Ground atoms are decided by the matcher first, exactly as
    /// in the one-shot adapter, so verdicts agree with it everywhere.
    pub(crate) fn str_entails_session(&self, env: &Env, goal: &StrAtomProp) -> bool {
        let mut facts = Vec::new();
        for a in env.str_facts() {
            match crate::logic::ground_str_atom(a) {
                // A false ground fact makes Γ inconsistent: entail anything.
                Some(false) => return true,
                Some(true) => {}
                None => facts.push(a),
            }
        }
        match crate::logic::ground_str_atom(goal) {
            Some(truth) => truth,
            None => self.with_re_oracle(|oracle| {
                let facts: Vec<ReConstraint> =
                    facts.into_iter().map(|a| oracle.constraint(a)).collect();
                let goal = oracle.constraint(goal);
                oracle.session.entails(&facts, &goal)
            }),
        }
    }

    /// Satisfiability of `env`'s regex facts via the persistent session.
    pub(crate) fn str_check_session(&self, env: &Env) -> ReResult {
        let mut facts = Vec::new();
        for a in env.str_facts() {
            match crate::logic::ground_str_atom(a) {
                Some(false) => return ReResult::Unsat,
                Some(true) => {}
                None => facts.push(a),
            }
        }
        self.with_re_oracle(|oracle| {
            let facts: Vec<ReConstraint> =
                facts.into_iter().map(|a| oracle.constraint(a)).collect();
            oracle.session.check(&facts)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{Obj, Symbol};

    fn lin_atom(cmp: LinCmp, lhs: Obj, rhs: Obj) -> LinAtom {
        LinAtom {
            lhs: lhs.as_lin().expect("lin obj"),
            cmp,
            rhs: rhs.as_lin().expect("lin obj"),
        }
    }

    #[test]
    fn fingerprints_are_name_independent() {
        // 0 ≤ x ∧ x < len v  vs  0 ≤ a ∧ a < len b: same fingerprint.
        let (x, v) = (Symbol::fresh("fx"), Symbol::fresh("fv"));
        let (a, b) = (Symbol::fresh("fa"), Symbol::fresh("fb"));
        let sys = |i: Symbol, n: Symbol| {
            vec![
                lin_atom(LinCmp::Le, Obj::int(0), Obj::var(i)),
                lin_atom(LinCmp::Lt, Obj::var(i), Obj::var(n).len()),
            ]
        };
        assert_eq!(
            lin_fingerprint(&sys(x, v), None),
            lin_fingerprint(&sys(a, b), None)
        );
        // …and order-independent.
        let mut rev = sys(x, v);
        rev.reverse();
        assert_eq!(
            lin_fingerprint(&rev, None),
            lin_fingerprint(&sys(x, v), None)
        );
    }

    #[test]
    fn fingerprints_distinguish_len_paths() {
        // `x < y` and `x < len y` must not collide: only the latter gets
        // the implicit non-negativity side constraint.
        let (x, y) = (Symbol::fresh("dx"), Symbol::fresh("dy"));
        let plain = vec![lin_atom(LinCmp::Lt, Obj::var(x), Obj::var(y))];
        let len = vec![lin_atom(LinCmp::Lt, Obj::var(x), Obj::var(y).len())];
        assert_ne!(lin_fingerprint(&plain, None), lin_fingerprint(&len, None));
    }

    #[test]
    fn goal_extends_the_fingerprint() {
        let x = Symbol::fresh("gx");
        let facts = vec![lin_atom(LinCmp::Le, Obj::int(0), Obj::var(x))];
        let goal = lin_atom(LinCmp::Le, Obj::int(-1), Obj::var(x));
        assert_ne!(
            lin_fingerprint(&facts, None),
            lin_fingerprint(&facts, Some(&goal.negate()))
        );
    }
}
