//! The typing judgment `Γ ⊢ e : (τ; ψ₊|ψ₋; o)` (Fig. 4), in algorithmic
//! (synthesis) form.
//!
//! Differences from the declarative rules are exactly the implementation
//! techniques of §4.1: subsumption is inlined as result subtyping at the
//! leaves that need it, existential bindings on subterm results are
//! propagated upward instead of eagerly simplified, and let-bound aliases
//! are applied eagerly (representative objects).

use crate::budget::{BudgetState, CancelToken, Judgment, LimitKind};
use crate::config::CheckerConfig;
use crate::diag::{Code, Diagnostic, NodeId};
use crate::env::Env;
use crate::module::ModuleItem;
use crate::prims::delta;
use crate::syntax::{Expr, FunTy, Lambda, LinCmp, Obj, Prim, Prop, Symbol, Ty, TyResult};

/// A process-wide, lazily spawned worker thread with a 256 MiB stack for
/// checking deep modules: the module driver moves a run whose items nest
/// past [`Checker::fits_inline_stack`] onto it (every check, including
/// [`Checker::check_program`], goes through that driver).
///
/// Spawning a fresh big-stack thread per deep check is cheap to create
/// but expensive to *use*: the recursion touches megabytes of brand-new
/// stack, and every page is a minor fault. A single long-lived worker
/// pays that cost once; subsequent deep checks run on warm pages.
pub(crate) mod big_stack {
    use std::sync::mpsc::{channel, Sender};
    use std::sync::{Mutex, OnceLock};

    type Job = Box<dyn FnOnce() + Send>;

    fn spawn_worker() -> Sender<Job> {
        let (tx, rx) = channel::<Job>();
        std::thread::Builder::new()
            .name("rtr-checker".into())
            .stack_size(256 * 1024 * 1024)
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .expect("spawning the checker worker thread");
        tx
    }

    fn worker() -> &'static Mutex<Sender<Job>> {
        static WORKER: OnceLock<Mutex<Sender<Job>>> = OnceLock::new();
        WORKER.get_or_init(|| Mutex::new(spawn_worker()))
    }

    /// Runs `f` on the persistent big-stack worker, or hands the closure
    /// back when the worker is busy (a concurrent deep check holds it) so
    /// the caller can fall back to a one-shot scoped thread without
    /// cloning the captured state. A worker killed by an earlier panic is
    /// respawned transparently.
    pub(crate) fn try_run<R, F>(f: F) -> Result<R, F>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let Ok(mut guard) = worker().try_lock() else {
            return Err(f);
        };
        let (rtx, rrx) = channel();
        let job: Job = Box::new(move || {
            let _ = rtx.send(f());
        });
        if let Err(returned) = guard.send(job) {
            // The worker died (a previous job panicked). Respawn and
            // resubmit this job on the fresh worker.
            *guard = spawn_worker();
            guard
                .send(returned.0)
                .expect("fresh checker worker must accept jobs");
        }
        // A dropped sender without a result means the job panicked:
        // mirror the scoped path's join().expect(..).
        Ok(rrx.recv().expect("checker thread must not panic"))
    }
}

/// Attaches `node` to a bubbling diagnostic unless an inner (more
/// precise) node is already recorded. Diagnostics travel boxed through
/// the judgments so the hot `Ok` path moves a thin pointer, not the
/// full structure.
pub(crate) fn attach_node(mut d: Box<Diagnostic>, node: Option<NodeId>) -> Box<Diagnostic> {
    if d.node.is_none() {
        d.node = node;
    }
    d
}

/// Extracts the human-readable payload of a caught panic for an `E0203`
/// internal-error diagnostic. `panic!("...")` payloads are `&str` or
/// `String`; anything else gets a fixed placeholder.
pub fn panic_detail(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_owned()
    }
}

/// The λ_RTR type checker.
///
/// # Examples
///
/// ```
/// use rtr_core::check::Checker;
/// use rtr_core::syntax::{Expr, Prim, Ty};
///
/// // (if (int? #t) 1 2) : Int
/// let e = Expr::if_(
///     Expr::prim_app(Prim::IsInt, vec![Expr::Bool(true)]),
///     Expr::Int(1),
///     Expr::Int(2),
/// );
/// let r = Checker::default().check_program(&e).unwrap();
/// assert_eq!(r.ty, Ty::Int);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Checker {
    /// Configuration (theories, ablations, budgets). Crate-private on
    /// purpose: memo verdicts depend on it and the tables are shared with
    /// clones, so it must not change after construction — build a new
    /// checker via [`Checker::with_config`] instead.
    pub(crate) config: CheckerConfig,
    /// Memo tables for the mutually recursive judgments; shared by clones
    /// (sound: every key is content — interned ids or canonical
    /// fingerprints — never an environment's identity).
    caches: std::sync::Arc<crate::cache::Caches>,
    /// Resource-governance state (see [`crate::budget`]). The resident
    /// state is shared by clones; the module driver forks a fresh one per
    /// check (and per module item) so one pathological item cannot
    /// starve its neighbours.
    budget: std::sync::Arc<BudgetState>,
}

impl Checker {
    /// A checker with the default (full λ_RTR) configuration.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// A checker with an explicit configuration.
    pub fn with_config(config: CheckerConfig) -> Checker {
        let budget = std::sync::Arc::new(BudgetState::from_config(&config, None));
        Checker {
            config,
            caches: Default::default(),
            budget,
        }
    }

    /// The configuration this checker was built with (read-only: memoized
    /// verdicts depend on it, so it cannot change after construction).
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// A clone of this checker whose checks can be revoked externally:
    /// every check forked from the returned checker polls `token` at
    /// the deadline cadence (and at solver-adapter boundaries) and
    /// degrades to `E0202` (`limit: "cancelled"`) once
    /// [`CancelToken::cancel`] is called. Cancellation-degraded
    /// verdicts follow the usual exhaustion contract — conservative,
    /// never cached — so a long-lived service (`rtr lsp`) can abandon
    /// the check of a superseded document version and immediately
    /// re-check the new one against the same warm caches.
    pub fn with_cancel_token(&self, token: CancelToken) -> Checker {
        Checker {
            config: self.config.clone(),
            caches: std::sync::Arc::clone(&self.caches),
            budget: std::sync::Arc::new(self.budget.fork_check_cancellable(None, token)),
        }
    }

    pub(crate) fn caches(&self) -> &crate::cache::Caches {
        &self.caches
    }

    /// The resource-governance state governing the current check.
    pub(crate) fn budget(&self) -> &BudgetState {
        &self.budget
    }

    /// The work counters of the current check.
    pub(crate) fn trace(&self) -> &crate::trace::Trace {
        self.budget.trace()
    }

    /// A snapshot of this checker's resident work counters: the
    /// judgments called on it directly (`proves`, `subtype`, …). Each
    /// check call counts into a trace of its own instead; the module
    /// drivers return theirs.
    pub fn trace_counts(&self) -> crate::trace::TraceCounts {
        self.trace().counts()
    }

    /// A clone of this checker with a fresh per-check budget (deadline
    /// computed now from `timeout_ms`, zeroed counters and trip flag, a
    /// fresh trace).
    pub(crate) fn fork_check(&self) -> Checker {
        Checker {
            config: self.config.clone(),
            caches: std::sync::Arc::clone(&self.caches),
            budget: std::sync::Arc::new(self.budget.fork_check(self.config.timeout_ms)),
        }
    }

    /// A clone of this checker with a fresh per-item budget: same
    /// limits and deadline as the current check, zeroed counters and
    /// trip flag, chaos stream salted by `salt` (the item's name-keyed
    /// salt, [`crate::fingerprint::item_salt`], so the stream is stable
    /// when an edit inserts or reorders neighbouring items).
    pub(crate) fn fork_item(&self, salt: u64) -> Checker {
        Checker {
            config: self.config.clone(),
            caches: std::sync::Arc::clone(&self.caches),
            budget: std::sync::Arc::new(self.budget.fork_item(salt)),
        }
    }

    /// Should the current judgment verdict be written to the shared
    /// memo tables? Not once the budget tripped: post-trip verdicts are
    /// conservative degradations, and the trip condition (steps,
    /// deadline, injected faults) is not part of any cache key.
    pub(crate) fn may_store(&self) -> bool {
        self.budget.tripped().is_none()
    }

    /// Theory-solver entry gate: `true` means "skip the query and answer
    /// conservatively". Fires when the wall-clock deadline has passed
    /// (a single solver query can run long between step polls, so the
    /// boundary is re-checked here) or when the chaos harness injects a
    /// forced-unknown at this query.
    pub(crate) fn solver_gate(&self) -> bool {
        if self.budget.tripped().is_some() || self.budget.poll_deadline() {
            return true;
        }
        #[cfg(feature = "chaos")]
        if self
            .budget
            .chaos_roll(crate::budget::ChaosPoint::SolverEntry)
        {
            self.budget.trip(LimitKind::Chaos);
            return true;
        }
        false
    }

    /// Replaces a conservative rejection obtained under the tripped
    /// `limit` with the structured `E0202` diagnostic (keeping the
    /// original location and recording the masked failure in a note).
    /// Diagnostics that already carry a resource/ICE code pass through.
    /// The module driver passes "this item's trip, or any earlier
    /// item's", so downstream failures caused by a starved (and thus
    /// coarsely-poisoned) earlier definition also surface as `E0202`.
    pub(crate) fn degrade_with(
        &self,
        d: Diagnostic,
        limit: Option<LimitKind>,
        context: impl FnOnce() -> String,
    ) -> Diagnostic {
        if matches!(d.code, Code::ResourceExhausted | Code::InternalError) {
            return d;
        }
        let Some(limit) = limit else {
            return d;
        };
        let mut out = Diagnostic::exhausted(context(), limit)
            .with_note(format!("the conservative failure was: {}", d.message));
        out.node = d.node;
        out.primary = d.primary;
        out
    }

    /// Module-item entry hook for the chaos harness: may flush the
    /// judgment memo tables (verdict-neutral — every entry is a pure
    /// function of its key). No-op without the `chaos` feature.
    pub(crate) fn chaos_item_entry(&self) {
        #[cfg(feature = "chaos")]
        if self
            .budget
            .chaos_roll(crate::budget::ChaosPoint::CacheFlush)
        {
            self.caches.flush_judgment_tables();
        }
    }

    /// Module-item panic injection (exercises the `catch_unwind` → ICE
    /// isolation path). No-op without the `chaos` feature.
    pub(crate) fn chaos_item_panic(&self) {
        #[cfg(feature = "chaos")]
        if self.budget.chaos_roll(crate::budget::ChaosPoint::ItemPanic) {
            panic!("{}", crate::budget::CHAOS_PANIC_MSG);
        }
    }

    /// Total entries currently held across the memo tables.
    pub fn cache_entry_count(&self) -> usize {
        self.caches.entry_count()
    }

    /// Type checks a whole program: the module driver
    /// ([`Checker::check_module`]) run over one trailing-expression item,
    /// so the program gets the driver's mutation pre-pass (§4.2), stack
    /// choice, budget fork, panic isolation and `E0202` degradation.
    /// Returns the program's type-result in the empty environment, or
    /// its first error.
    // One call per whole-program check: the unboxed Diagnostic is the
    // ergonomic public shape, and the hot recursive judgments box it.
    #[allow(clippy::result_large_err)]
    pub fn check_program(&self, e: &Expr) -> Result<TyResult, Diagnostic> {
        let item = ModuleItem::Expr {
            expr: e.clone(),
            node: None,
        };
        let mc = self.check_module(std::slice::from_ref(&item));
        match mc.diagnostics.into_iter().find(|d| d.is_error()) {
            Some(d) => Err(std::sync::Arc::unwrap_or_clone(d)),
            None => Ok(mc.value.expect("a clean check has a value").lift()),
        }
    }

    /// Whether `e` (at this checker's fuel and depth budgets) can be
    /// checked on the caller's stack, or needs the dedicated big-stack
    /// thread. The inline depth cap is clamped by the budget's
    /// `max_depth`, so a lowered depth limit keeps shallow programs
    /// inline and the runtime depth guard (see [`Checker::synth`])
    /// turns overruns into `E0202` diagnostics on either path — a
    /// raised limit can never silently overflow the inline stack.
    pub(crate) fn fits_inline_stack(&self, e: &Expr) -> bool {
        const INLINE_DEPTH: usize = 160;
        const INLINE_MAX_FUEL: u32 = 256;
        let inline_depth = INLINE_DEPTH.min(self.config.max_depth as usize);
        self.config.logic_fuel <= INLINE_MAX_FUEL && e.depth_capped(inline_depth) <= inline_depth
    }

    /// Runs `f` on a dedicated thread with a 256 MiB stack — the
    /// judgments are deeply recursive and real modules nest `let`/`begin`
    /// chains hundreds of levels deep once macros expand.
    ///
    /// This is the borrowing one-shot path, the fallback when
    /// [`big_stack::try_run`]'s persistent worker (whose stack pages stay
    /// warm) is busy.
    pub(crate) fn on_big_stack<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("rtr-checker".into())
                .stack_size(256 * 1024 * 1024)
                .spawn_scoped(scope, f)
                .expect("spawning the checker thread")
                .join()
                .expect("checker thread must not panic")
        })
    }

    /// Synthesizes the type-result of `e` under `env`.
    ///
    /// Errors are boxed: the `Ok` path (every well-typed subterm) moves a
    /// pointer-sized error slot instead of the full [`Diagnostic`].
    #[inline]
    pub fn synth(&self, env: &Env, e: &Expr) -> Result<TyResult, Box<Diagnostic>> {
        // Peel span wrappers without a judgment frame; the innermost
        // wrapper is the most precise location for errors arising here.
        let (e, node) = e.peel_spans_with_node();
        let _frame = self.enter_judgment(Judgment::Synth, node)?;
        match node {
            None => self.synth_peeled(env, e),
            Some(n) => self
                .synth_peeled(env, e)
                .map_err(|d| attach_node(d, Some(n))),
        }
    }

    /// The per-frame budget charge shared by [`Checker::synth`] and
    /// [`Checker::check_result`]: burn one step, then take the recursion
    /// depth guard. Either limit tripping turns into a located `E0202`
    /// diagnostic; the trip is sticky, so every enclosing frame unwinds
    /// with the same verdict.
    #[inline]
    fn enter_judgment(
        &self,
        j: Judgment,
        node: Option<NodeId>,
    ) -> Result<crate::budget::DepthGuard<'_>, Box<Diagnostic>> {
        if let Some(k) = self.budget.burn(j) {
            return Err(Box::new(
                Diagnostic::exhausted("this expression".to_owned(), k).at(node),
            ));
        }
        self.budget
            .descend()
            .map_err(|k| Box::new(Diagnostic::exhausted("this expression".to_owned(), k).at(node)))
    }

    fn synth_peeled(&self, env: &Env, e: &Expr) -> Result<TyResult, Box<Diagnostic>> {
        let fuel = self.config.logic_fuel;
        match e {
            // T-Int (enriched per §3.4: the literal is its own object).
            Expr::Int(n) => {
                let obj = if self.config.theories {
                    Obj::int(*n)
                } else {
                    Obj::Null
                };
                Ok(TyResult::truthy(Ty::Int, obj))
            }
            // T-True / T-False.
            Expr::Bool(true) => Ok(TyResult::new(Ty::True, Prop::TT, Prop::FF, Obj::Null)),
            Expr::Bool(false) => Ok(TyResult::new(Ty::False, Prop::FF, Prop::TT, Obj::Null)),
            Expr::BvLit(v) => {
                let obj = if self.config.theories {
                    Obj::bv(*v)
                } else {
                    Obj::Null
                };
                Ok(TyResult::truthy(Ty::BitVec, obj))
            }
            // T-Str / T-Regex (theory RE enrichments: literals are their
            // own objects, like integers under theory LI).
            Expr::Str(s) => {
                let obj = if self.config.theories {
                    Obj::str_const(s.clone())
                } else {
                    Obj::Null
                };
                Ok(TyResult::truthy(Ty::Str, obj))
            }
            Expr::ReLit(r) => {
                let obj = if self.config.theories {
                    Obj::re(r.clone())
                } else {
                    Obj::Null
                };
                Ok(TyResult::truthy(Ty::Regex, obj))
            }
            // T-Prim.
            Expr::Prim(p) => Ok(TyResult::truthy(delta(*p), Obj::Null)),
            // T-Var.
            Expr::Var(x) => {
                if !env.is_bound(*x) {
                    return Err(Box::new(Diagnostic::unbound(*x)));
                }
                if env.is_mutable(*x) {
                    // §4.2: mutable variables have no symbolic object and
                    // their tests teach the system nothing.
                    let t = env.raw_ty(*x).map(|t| (*t).clone()).unwrap_or(Ty::Top);
                    return Ok(TyResult::of_type(t));
                }
                let o = env.resolve(&Obj::var(*x));
                let t = self.ty_of_obj(env, &o);
                Ok(TyResult::new(
                    t,
                    Prop::is_not(o.clone(), Ty::False),
                    Prop::is(o.clone(), Ty::False),
                    o,
                ))
            }
            // T-Abs.
            Expr::Lam(l) => {
                let mut env2 = env.clone();
                for (x, t) in &l.params {
                    self.bind(&mut env2, *x, t, fuel);
                }
                let r = self.synth(&env2, &l.body)?;
                Ok(TyResult::truthy(Ty::fun(l.params.clone(), r), Obj::Null))
            }
            // T-App.
            // The error context renders the whole application expression;
            // build it lazily so the happy path never pays the (recursive,
            // quadratic-in-depth) `Display` cost.
            Expr::App(f, args) => self.synth_app(env, f, args, &|| e.to_string()),
            // T-If.
            Expr::If(c, t, f) => {
                let rc = self.synth(env, c)?;
                let mut env2 = env.clone();
                let exes = rc.existentials.clone();
                for (x, t) in &exes {
                    self.bind(&mut env2, *x, t, fuel);
                }
                let mut env_then = env2.clone();
                self.assume(&mut env_then, &rc.then_p, fuel);
                let rt = self.synth_branch(&env_then, t)?;
                let mut env_else = env2;
                self.assume(&mut env_else, &rc.else_p, fuel);
                let rf = self.synth_branch(&env_else, f)?;
                Ok(self.join_if(&rc, rt, rf).with_existentials(exes))
            }
            // T-Let.
            Expr::Let(x, rhs, body) => {
                let r1 = self.synth(env, rhs)?;
                let mut env2 = env.clone();
                let (o1, mutable) = self.open_let_binding(&mut env2, *x, &r1);
                let r2 = self.synth(&env2, body)?;
                // Lifting substitution on exit (T-Let's R₂[x ⟹τ₁ o₁]).
                let lifted = if mutable {
                    r2.lift_subst(*x, &r1.ty, &Obj::Null)
                } else {
                    r2.lift_subst(*x, &r1.ty, &o1)
                };
                Ok(lifted.with_existentials(r1.existentials))
            }
            Expr::LetRec(fname, fty, lam, body) => {
                let mut env2 = env.clone();
                self.bind(&mut env2, *fname, fty, fuel);
                self.check_lambda(&env2, lam, fty, &|| format!("(letrec {fname} …)"))?;
                let r = self.synth(&env2, body)?;
                Ok(r.lift_subst(*fname, fty, &Obj::Null))
            }
            // T-Cons.
            Expr::Cons(a, b) => {
                let (ra, rb) = (self.synth(env, a)?, self.synth(env, b)?);
                let mut exes = ra.existentials.clone();
                exes.extend(rb.existentials.clone());
                let obj = Obj::pair(env.resolve(&ra.obj), env.resolve(&rb.obj));
                Ok(TyResult::truthy(Ty::pair(ra.ty, rb.ty), obj).with_existentials(exes))
            }
            // T-Fst / T-Snd.
            Expr::Fst(a) | Expr::Snd(a) => {
                let is_fst = matches!(e, Expr::Fst(_));
                let r = self.synth(env, a)?;
                let mut env2 = env.clone();
                let exes = r.existentials.clone();
                for (g, t) in &exes {
                    self.bind(&mut env2, *g, t, fuel);
                }
                let pairish = Ty::pair(Ty::Top, Ty::Top);
                if !self.subtype(&env2, &r.ty, &pairish, fuel) {
                    return Err(Box::new(
                        Diagnostic::not_a_pair(a.to_string(), &r.ty).at(a.span_node()),
                    ));
                }
                let field = if is_fst {
                    crate::syntax::Field::Fst
                } else {
                    crate::syntax::Field::Snd
                };
                let comp = self.project_field(&r.ty, field);
                let obj = env2.resolve(&r.obj);
                let obj = if is_fst { obj.fst() } else { obj.snd() };
                Ok(TyResult::new(comp, Prop::TT, Prop::TT, obj).with_existentials(exes))
            }
            Expr::VecLit(es) => {
                let mut exes = Vec::new();
                let mut elem_tys = Vec::new();
                for el in es {
                    let r = self.synth(env, el)?;
                    exes.extend(r.existentials.clone());
                    elem_tys.push(r.ty);
                }
                let elem = if elem_tys.is_empty() {
                    Ty::bot()
                } else {
                    // Generalize singleton boolean types: vectors are
                    // mutable (invariant element), so `(vec #t)` must be a
                    // (Vecof Bool), not a (Vecof True) — the same
                    // generalization Typed Racket applies at mutable
                    // container construction.
                    generalize_literal(&Ty::union_of(elem_tys))
                };
                let ty = if self.config.theories {
                    let v = Symbol::fresh("vlit");
                    Ty::refine(
                        v,
                        Ty::vec(elem),
                        Prop::lin(Obj::var(v).len(), LinCmp::Eq, Obj::int(es.len() as i64)),
                    )
                } else {
                    Ty::vec(elem)
                };
                Ok(TyResult::truthy(ty, Obj::Null).with_existentials(exes))
            }
            Expr::Ann(inner, ty) => {
                // Lambdas are checked against function annotations
                // (bidirectional); everything else synthesizes and
                // subsumes.
                if let (Expr::Lam(l), Ty::Fun(_) | Ty::Poly(_)) = (inner.peel_spans(), ty) {
                    self.check_lambda(env, l, ty, &|| inner.to_string())
                        .map_err(|d| attach_node(d, inner.span_node()))?;
                    return Ok(TyResult::truthy(ty.clone(), Obj::Null));
                }
                let r = self.synth(env, inner)?;
                let mut env2 = env.clone();
                for (g, t) in &r.existentials {
                    self.bind(&mut env2, *g, t, fuel);
                }
                let inner_r = r.without_existentials();
                if !self.subtype_result(&env2, &inner_r, &TyResult::of_type(ty.clone()), fuel) {
                    return Err(Box::new(
                        Diagnostic::mismatch(inner.to_string(), ty, &r.ty).at(inner.span_node()),
                    ));
                }
                Ok(TyResult {
                    existentials: r.existentials,
                    ty: ty.clone(),
                    then_p: r.then_p,
                    else_p: r.else_p,
                    obj: r.obj,
                })
            }
            Expr::Error(_) => Ok(TyResult::new(Ty::bot(), Prop::FF, Prop::FF, Obj::Null)),
            Expr::Set(x, rhs) => {
                let declared = env
                    .raw_ty(*x)
                    .map(|t| (*t).clone())
                    .ok_or_else(|| Box::new(Diagnostic::unbound(*x)))?;
                let r = self.synth(env, rhs)?;
                let mut env2 = env.clone();
                for (g, t) in &r.existentials {
                    self.bind(&mut env2, *g, t, fuel);
                }
                let inner = r.without_existentials();
                if !self.subtype_result(&env2, &inner, &TyResult::of_type(declared.clone()), fuel) {
                    return Err(Box::new(
                        Diagnostic::bad_assignment(*x, &declared, &r.ty).at(rhs.span_node()),
                    ));
                }
                Ok(TyResult::truthy(Ty::Unit, Obj::Null))
            }
            Expr::Begin(es) => {
                let mut last = TyResult::truthy(Ty::Unit, Obj::Null);
                for e in es {
                    last = self.synth(env, e)?;
                }
                Ok(last)
            }
            Expr::Spanned(..) => unreachable!("peeled by synth"),
        }
    }

    /// Opens a `let`-binding `x = r1` into `env2` exactly as T-Let does:
    /// binds `r1`'s existentials and `x`, records the alias to `r1`'s
    /// object (immutable bindings only), and assumes
    /// ψx = (x ∉ F ∧ ψ₁₊) ∨ (x ∈ F ∧ ψ₁₋). Returns the resolved object
    /// and whether `x` is mutable — the bits the exit substitution needs.
    /// Shared by `synth`, `check_result` and module-level checking so all
    /// three produce identical environments.
    pub(crate) fn open_let_binding(&self, env2: &mut Env, x: Symbol, r1: &TyResult) -> (Obj, bool) {
        let fuel = self.config.logic_fuel;
        for (g, t) in &r1.existentials {
            self.bind(env2, *g, t, fuel);
        }
        // `let x = y` fast path: when the right-hand side's object already
        // resolves to a tracked representative whose recorded type equals
        // the synthesized one, the binder adds *no* information — the
        // type write-back is a guaranteed no-op, the alias copy copies
        // facts the representative already carries, and ψ_x is the
        // excluded middle over `o ∈ False`. Recording the alias alone is
        // observationally equivalent and skips two environment writes and
        // a proposition walk per binder — the dominant cost on deep
        // binder chains.
        if self.config.representative_objects
            && self.config.hybrid_env
            && !env2.is_bound(x)
            && !env2.is_mutable(x)
            && !matches!(r1.ty, Ty::Refine(_))
            && !matches!(r1.obj, Obj::Pair(..) | Obj::Null)
        {
            let o1 = env2.resolve(&r1.obj);
            let psi_trivial = matches!(
                (&r1.then_p, &r1.else_p),
                (Prop::IsNot(ot, tt_), Prop::Is(oe, te_))
                    if ot == &o1 && oe == &o1 && **tt_ == Ty::False && **te_ == Ty::False
            );
            if psi_trivial
                && !matches!(o1, Obj::Pair(..) | Obj::Null)
                && o1.find_var(&mut |v| v == x).is_none()
                && crate::intern::TyId::of(&r1.ty) == self.ty_of_obj_id(env2, &o1)
            {
                env2.add_alias(x, o1.clone());
                return (o1, false);
            }
        }
        self.bind(env2, x, &r1.ty, fuel);
        let o1 = env2.resolve(&r1.obj);
        let mutable = env2.is_mutable(x);
        if !o1.is_null() && !mutable {
            self.assume(env2, &Prop::alias(Obj::var(x), o1.clone()), fuel);
        }
        let ox = if o1.is_null() || mutable {
            Obj::var(x)
        } else {
            o1.clone()
        };
        let ox = if mutable { Obj::Null } else { ox };
        // ψ_x = (ox ∉ False ∧ ψ₁⁺) ∨ (ox ∈ False ∧ ψ₁⁻), with statically
        // decided disjuncts pruned at construction: an `ff` branch
        // proposition makes its whole disjunct absurd, so the other side
        // is a *unit* — assumed directly, no disjunction stored, no
        // proposition interned. Truthy results (literals, applications)
        // hit this on every `let`, which keeps deep binder chains off the
        // case-split machinery entirely.
        let disjunct = |guard: Prop, branch: &Prop| match branch {
            Prop::TT => Some(guard),
            Prop::FF => None,
            p if *p == guard => Some(guard),
            p => Some(Prop::and(guard, p.clone())),
        };
        let psi_then = disjunct(Prop::is_not(ox.clone(), Ty::False), &r1.then_p);
        let psi_else = disjunct(Prop::is(ox, Ty::False), &r1.else_p);
        let psi_x = match (psi_then, psi_else) {
            // Both disjuncts collapsed to their guards: ψ_x is exactly
            // the excluded middle over `ox ∈ False` — a tautology (the
            // `let`-of-a-variable shape), nothing to learn.
            (Some(Prop::IsNot(o1_, t1_)), Some(Prop::Is(o2_, t2_))) if o1_ == o2_ && t1_ == t2_ => {
                Prop::TT
            }
            (Some(a), Some(b)) => Prop::or(a, b),
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => Prop::FF,
        };
        self.assume(env2, &psi_x, fuel);
        (o1, mutable)
    }

    /// Checks `e` against an expected type-result (T-Subsume, applied
    /// inside each conditional branch rather than at the join — the
    /// algorithmic counterpart of the declarative system typing both
    /// branches of an `if` at the same result `R`). This is what lets
    /// `max`'s two branches each prove the refined range with their own
    /// branch facts.
    #[inline]
    pub fn check_result(
        &self,
        env: &Env,
        e: &Expr,
        expected: &TyResult,
    ) -> Result<(), Box<Diagnostic>> {
        // As in `synth`: peel span wrappers (so the structural dispatch
        // below still sees `if`/`let`/`begin`) and attach the location to
        // bubbling errors.
        let (e, node) = e.peel_spans_with_node();
        let _frame = self.enter_judgment(Judgment::Synth, node)?;
        match node {
            None => self.check_result_peeled(env, e, expected),
            Some(n) => self
                .check_result_peeled(env, e, expected)
                .map_err(|d| attach_node(d, Some(n))),
        }
    }

    fn check_result_peeled(
        &self,
        env: &Env,
        e: &Expr,
        expected: &TyResult,
    ) -> Result<(), Box<Diagnostic>> {
        let fuel = self.config.logic_fuel;
        match e {
            Expr::If(c, t, f) => {
                let rc = self.synth(env, c)?;
                let mut env2 = env.clone();
                for (x, ty) in &rc.existentials {
                    self.bind(&mut env2, *x, ty, fuel);
                }
                let mut env_then = env2.clone();
                self.assume(&mut env_then, &rc.then_p, fuel);
                if !self.env_inconsistent(&env_then, fuel) {
                    self.check_result(&env_then, t, expected)?;
                }
                let mut env_else = env2;
                self.assume(&mut env_else, &rc.else_p, fuel);
                if !self.env_inconsistent(&env_else, fuel) {
                    self.check_result(&env_else, f, expected)?;
                }
                Ok(())
            }
            Expr::Let(x, rhs, body) => {
                // Push through the binding unless the bound name shadows a
                // variable the expected result mentions.
                let mut fv = std::collections::HashSet::new();
                expected
                    .ty
                    .free_tvars(&mut std::collections::HashSet::new());
                expected.then_p.free_vars(&mut fv);
                expected.else_p.free_vars(&mut fv);
                let mut ty_fv = std::collections::HashSet::new();
                expected.ty.free_obj_vars(&mut ty_fv);
                if fv.contains(x) || ty_fv.contains(x) {
                    return self.check_via_synth(env, e, expected);
                }
                let r1 = self.synth(env, rhs)?;
                let mut env2 = env.clone();
                self.open_let_binding(&mut env2, *x, &r1);
                self.check_result(&env2, body, expected)
            }
            Expr::Begin(es) => match es.split_last() {
                None => self.check_via_synth(env, e, expected),
                Some((last, init)) => {
                    for e in init {
                        self.synth(env, e)?;
                    }
                    self.check_result(env, last, expected)
                }
            },
            _ => self.check_via_synth(env, e, expected),
        }
    }

    fn check_via_synth(
        &self,
        env: &Env,
        e: &Expr,
        expected: &TyResult,
    ) -> Result<(), Box<Diagnostic>> {
        let fuel = self.config.logic_fuel;
        let r = self.synth(env, e)?;
        let mut env2 = env.clone();
        for (g, t) in &r.existentials {
            self.bind(&mut env2, *g, t, fuel);
        }
        let inner = r.without_existentials();
        if !self.subtype_result(&env2, &inner, expected, fuel) {
            return Err(Box::new(
                Diagnostic::mismatch(e.to_string(), &expected.ty, &r.ty).at(e.span_node()),
            ));
        }
        Ok(())
    }

    /// Synthesizes a conditional branch, short-circuiting unreachable
    /// branches to ⊥ (their environment proves `ff`, so any result is
    /// derivable — and errors inside them are not reported, matching the
    /// implementation).
    fn synth_branch(&self, env: &Env, e: &Expr) -> Result<TyResult, Box<Diagnostic>> {
        if self.env_inconsistent(env, self.config.logic_fuel) {
            return Ok(TyResult::new(Ty::bot(), Prop::FF, Prop::FF, Obj::Null));
        }
        self.synth(env, e)
    }

    /// T-If's result join: `R` must subsume both branch results; the
    /// algorithmic join unions the types and tags each branch's
    /// propositions with the test's.
    fn join_if(&self, rc: &TyResult, rt: TyResult, rf: TyResult) -> TyResult {
        let ty = Ty::union_of(vec![rt.ty.clone(), rf.ty.clone()]);
        let then_p = Prop::or(
            Prop::and(rc.then_p.clone(), rt.then_p.clone()),
            Prop::and(rc.else_p.clone(), rf.then_p.clone()),
        );
        let else_p = Prop::or(
            Prop::and(rc.then_p.clone(), rt.else_p.clone()),
            Prop::and(rc.else_p.clone(), rf.else_p.clone()),
        );
        let obj = if !rt.obj.is_null() && rt.obj == rf.obj {
            rt.obj.clone()
        } else if rt.ty.is_bot() {
            rf.obj.clone()
        } else if rf.ty.is_bot() {
            rt.obj.clone()
        } else {
            Obj::Null
        };
        let mut exes = rt.existentials.clone();
        exes.extend(rf.existentials);
        TyResult {
            existentials: exes,
            ty,
            then_p,
            else_p,
            obj,
        }
    }

    fn synth_app(
        &self,
        env: &Env,
        f: &Expr,
        args: &[Expr],
        context: &dyn Fn() -> String,
    ) -> Result<TyResult, Box<Diagnostic>> {
        let fuel = self.config.logic_fuel;
        // The operator is matched structurally below (primitive fast
        // path, enrichments), so look through its span wrapper once.
        let fp = f.peel_spans();
        // Synthesize the operator and arguments. Primitive operators skip
        // synthesis entirely: their Δ-table type is borrowed statically
        // (truthy, object-free, no existentials), so the large
        // refinement-bearing trees are never cloned per application.
        let rf = match fp {
            Expr::Prim(_) => None,
            _ => Some(self.synth(env, f)?),
        };
        let mut arg_results = Vec::with_capacity(args.len());
        for a in args {
            arg_results.push(self.synth(env, a)?);
        }

        let mut env2 = env.clone();
        let mut ghosts: Vec<(Symbol, Ty)> = Vec::new();
        if let Some(rf) = &rf {
            for (g, t) in &rf.existentials {
                self.bind(&mut env2, *g, t, fuel);
                ghosts.push((*g, t.clone()));
            }
        }

        // Peel refinements off the operator type by reference (S-Weaken);
        // only the function node itself is cloned, and polymorphic
        // operators go straight to instantiation without any clone.
        let mut fun_ty: &Ty = match (&rf, fp) {
            (Some(r), _) => &r.ty,
            (None, Expr::Prim(p)) => crate::prims::delta_ref(*p),
            (None, _) => unreachable!("rf is None only for prim operators"),
        };
        while let Ty::Refine(r) = fun_ty {
            fun_ty = &r.base;
        }
        let fun: FunTy = match fun_ty {
            Ty::Fun(f) => (**f).clone(),
            Ty::Poly(p) => {
                // Primitive operators: memoize the instantiation on the
                // canonical argument-type ids — local type inference is a
                // pure function of the poly type and the argument types,
                // and modules re-apply the same primitives at the same
                // types constantly.
                if let Expr::Prim(prim) = fp {
                    let key = (
                        *prim,
                        arg_results
                            .iter()
                            .map(|r| crate::intern::TyId::of(&r.ty))
                            .collect::<Vec<_>>(),
                    );
                    let hit = self
                        .caches()
                        .instantiations
                        .lookup(&key, &self.trace().instantiations);
                    match hit {
                        Some(fun) => fun,
                        None => {
                            let arg_tys: Vec<Ty> =
                                arg_results.iter().map(|r| r.ty.clone()).collect();
                            // Names minted here come from the key's own
                            // scope, so a hit and a miss leave the item's
                            // numbering alike.
                            let fun = Symbol::scoped(Symbol::scope_key(("inst", &key)), || {
                                self.instantiate_poly(p, &arg_tys, context)
                            })?;
                            // A starved instantiation may be coarser than the
                            // fault-free one; don't let it poison warm caches.
                            if self.may_store() {
                                self.caches().instantiations.store(key, fun.clone());
                            }
                            fun
                        }
                    }
                } else {
                    let arg_tys: Vec<Ty> = arg_results.iter().map(|r| r.ty.clone()).collect();
                    self.instantiate_poly(p, &arg_tys, context)?
                }
            }
            other => {
                return Err(Box::new(
                    Diagnostic::not_a_function(context(), other).at(f.span_node()),
                ))
            }
        };
        if fun.params.len() != args.len() {
            return Err(Box::new(Diagnostic::arity(
                context(),
                fun.params.len(),
                args.len(),
            )));
        }

        // Check each argument against its (progressively substituted)
        // domain, then substitute its object into the remaining domains
        // and the range (the lifting substitution, with ghost variables
        // standing in for object-less arguments). `fun` is owned here, so
        // its parts move instead of cloning.
        let FunTy {
            mut params,
            mut range,
        } = fun;
        let mut arg_objs: Vec<Obj> = Vec::with_capacity(args.len());
        for (idx, r_arg) in arg_results.iter().enumerate() {
            for (g, t) in &r_arg.existentials {
                self.bind(&mut env2, *g, t, fuel);
                ghosts.push((*g, t.clone()));
            }
            let x = params[idx].0;
            let o = {
                let o = env2.resolve(&r_arg.obj);
                if o.is_null() {
                    let g = Symbol::fresh_from(x);
                    self.bind(&mut env2, g, &r_arg.ty, fuel);
                    ghosts.push((g, r_arg.ty.clone()));
                    Obj::var(g)
                } else {
                    o
                }
            };
            let fitted = TyResult {
                existentials: Vec::new(),
                ty: r_arg.ty.clone(),
                then_p: Prop::TT,
                else_p: Prop::TT,
                obj: o.clone(),
            };
            // One domain clone feeds the expected result; the error path
            // (cold) re-reads it from `expected`.
            let expected = TyResult::of_type(params[idx].1.clone());
            if !self.subtype_result(&env2, &fitted, &expected, fuel) {
                return Err(Box::new(
                    Diagnostic::mismatch(
                        format!("{}, argument {}", context(), idx + 1),
                        &expected.ty,
                        &r_arg.ty,
                    )
                    .at(args[idx].span_node()),
                ));
            }
            for (_, d) in params.iter_mut().skip(idx + 1) {
                *d = d.subst_obj(x, &o);
            }
            range = range.subst_obj(x, &o);
            arg_objs.push(o);
        }

        let mut result = range.with_existentials(ghosts);

        // Special enrichments the Δ-table templates cannot express.
        if let Expr::Prim(p) = fp {
            result = self.enrich_prim_app(env, *p, &arg_results, &arg_objs, result);
        }
        Ok(result)
    }

    /// `*` objects (linear only with a literal factor) and `equal?` on
    /// integers (one of the paper's 36 enriched base functions).
    fn enrich_prim_app(
        &self,
        env: &Env,
        p: Prim,
        arg_results: &[TyResult],
        arg_objs: &[Obj],
        mut result: TyResult,
    ) -> TyResult {
        if !self.config.theories {
            return result;
        }
        match p {
            Prim::Times => {
                if let [o1, o2] = arg_objs {
                    result.obj = o1.mul(o2);
                }
            }
            Prim::Equal => {
                if let ([r1, r2], [o1, o2]) = (arg_results, arg_objs) {
                    let fuel = self.config.logic_fuel;
                    let both_int = self.subtype(env, &r1.ty, &Ty::Int, fuel)
                        && self.subtype(env, &r2.ty, &Ty::Int, fuel);
                    if both_int {
                        result.then_p = Prop::lin(o1.clone(), LinCmp::Eq, o2.clone());
                        result.else_p = Prop::lin(o1.clone(), LinCmp::Ne, o2.clone());
                    }
                }
            }
            // (regexp-match? r s): when the regex argument resolves to a
            // literal, the test's outcome is exactly the membership atom
            // `s ∈ L(r)` — the theory-RE analogue of `(≤ x y)` emitting a
            // linear atom (§3.4).
            Prim::StrMatch => {
                if let [o_re, o_s] = arg_objs {
                    let atom = Prop::re_match(o_s, o_re);
                    if let Some(neg) = atom.negate() {
                        result.then_p = atom;
                        result.else_p = neg;
                    }
                }
            }
            _ => {}
        }
        result
    }

    /// Checks a lambda against an expected (possibly polymorphic)
    /// function type.
    pub fn check_lambda(
        &self,
        env: &Env,
        lam: &Lambda,
        expected: &Ty,
        context: &dyn Fn() -> String,
    ) -> Result<(), Box<Diagnostic>> {
        let fuel = self.config.logic_fuel;
        let fun: &FunTy = match expected {
            Ty::Fun(f) => f,
            // Type variables of a ∀ are checked opaquely (they only match
            // themselves in subtyping).
            Ty::Poly(p) => {
                return match &p.body {
                    Ty::Fun(_) => self.check_lambda(env, lam, &p.body, context),
                    other => Err(Box::new(Diagnostic::mismatch(context(), other, &Ty::Top))),
                };
            }
            other => return Err(Box::new(Diagnostic::not_a_function(context(), other))),
        };
        if fun.params.len() != lam.params.len() {
            return Err(Box::new(Diagnostic::arity(
                context(),
                fun.params.len(),
                lam.params.len(),
            )));
        }
        let mut env2 = env.clone();
        // Rename the signature's parameters to the lambda's names.
        let mut doms: Vec<Ty> = fun.params.iter().map(|(_, d)| d.clone()).collect();
        let mut range = fun.range.clone();
        for i in 0..doms.len() {
            let sig_name = fun.params[i].0;
            let lam_name = lam.params[i].0;
            if sig_name != lam_name {
                let rep = Obj::var(lam_name);
                for d in doms.iter_mut().skip(i + 1) {
                    *d = d.subst_obj(sig_name, &rep);
                }
                range = range.subst_obj(sig_name, &rep);
            }
        }
        for (i, (x, ann)) in lam.params.iter().enumerate() {
            // The signature's domain must satisfy any explicit annotation.
            if *ann != Ty::Top && !self.subtype(&env2, &doms[i], ann, fuel) {
                return Err(Box::new(Diagnostic::mismatch(
                    format!("{}, parameter {x}", context()),
                    ann,
                    &doms[i],
                )));
            }
            self.bind(&mut env2, *x, &doms[i], fuel);
        }
        self.check_result(&env2, &lam.body, &range)
    }

    /// Projects the component type of a pair-typed expression.
    pub(crate) fn project_field(&self, t: &Ty, f: crate::syntax::Field) -> Ty {
        match t {
            Ty::Pair(a, b) => {
                if f == crate::syntax::Field::Fst {
                    (**a).clone()
                } else {
                    (**b).clone()
                }
            }
            Ty::Union(ts) => Ty::union_of(ts.iter().map(|t| self.project_field(t, f)).collect()),
            Ty::Refine(r) => self.project_field(&r.base, f),
            _ => Ty::Top,
        }
    }
}

/// Widens singleton boolean types to `Bool` (recursively through pairs
/// and unions) for mutable-container element positions.
fn generalize_literal(t: &Ty) -> Ty {
    match t {
        Ty::True | Ty::False => Ty::bool_ty(),
        Ty::Pair(a, b) => Ty::pair(generalize_literal(a), generalize_literal(b)),
        Ty::Union(ts) => Ty::union_of(ts.iter().map(generalize_literal).collect()),
        _ => t.clone(),
    }
}
