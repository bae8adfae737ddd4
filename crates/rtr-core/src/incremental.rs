//! The module driver: one per-item loop for every module check.
//!
//! [`Checker::check_module_incremental`] checks a module's items in
//! check order and replays a previous run's per-item results wherever
//! doing so is *provably* equivalent to re-checking — editor traffic is
//! thousands of re-checks where one definition changed and forty-nine
//! did not. [`Checker::check_module`] is the same driver run with no
//! cache: nothing can splice, every item is checked, and the cache the
//! run builds is dropped.
//!
//! # Soundness argument
//!
//! A module item's verdict (its diagnostics, its recorded
//! [`ItemSummary`], the environment it leaves behind, and its
//! contribution to the module value) is a deterministic function of two
//! inputs: the item's elaborated core term and the **value** of the
//! environment it is checked under. The checker judgements consult
//! nothing else — `generation`/`lin_epoch` stamps key memo tables and
//! never change a verdict (see [`Env::same_contents`]). So the splice
//! rule is:
//!
//! > a cached record may replace re-checking item *i* iff the item's
//! > term is unchanged (same fingerprint / same source text) **and**
//! > the environment reaching slot *i* this run is value-equal to the
//! > environment that reached it when the record was made.
//!
//! Early cutoff falls out of the same rule, stronger than the usual
//! "exported type id unchanged" check: after re-checking a dirty item,
//! if the environment it leaves behind is value-equal to the cached
//! one, *every* downstream comparison succeeds (each splice restores
//! the cached `env_after`, so consecutive splices compare
//! generation-equal environments in O(1)) and the item's dependents are
//! never re-checked. If the re-check changed the exported binding, the
//! environment comparison fails exactly for the suffix that can
//! observe it.
//!
//! # What is never cached
//!
//! An [`ItemRecord`] carries reusable results (`reuse`) only for items
//! that checked *cleanly on an untripped budget fork*: any diagnostic
//! (type errors, `E0202` resource exhaustion, `E0203` ICEs) or a
//! tripped per-item budget leaves `reuse = None`, so degraded or
//! failing verdicts are always re-derived and can never go stale. A
//! moved interner eviction epoch or a changed `set!`-mutated variable
//! set discards the old cache (its environment snapshots are not
//! comparable) and the run re-checks every slot, building a fresh one.
//!
//! # Deep modules
//!
//! An item nested past the inline-stack limit moves the whole run onto
//! the persistent big-stack worker. The `fetch` callback borrows the
//! caller's elaborator, so every [`IncrSlot::Reused`] item is elaborated
//! before the move; records remember whether their item needed the big
//! stack, so a later run that would splice a deep item still moves.

use std::borrow::Cow;
use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use crate::budget::LimitKind;
use crate::check::{attach_node, big_stack, panic_detail, Checker};
use crate::diag::Diagnostic;
use crate::env::Env;
use crate::fingerprint::{free_refs, item_fingerprint, item_salt};
use crate::module::{ItemSummary, ModuleCheck, ModuleItem};
use crate::mutation::mutated_vars;
use crate::syntax::{Obj, Prop, Symbol, Ty, TyResult};

/// The reusable outcome of one *cleanly* checked item.
#[derive(Clone, Debug)]
struct ReuseData {
    /// The summary pushed onto [`ModuleCheck::results`].
    summary: ItemSummary,
    /// The binder this item opened (replayed for the final lifting
    /// substitution), if any.
    binder: Option<(Symbol, Ty, Obj)>,
    /// `Some` iff this item was recorded as the module's *last trailing
    /// expression*: its pre-lift value result. A record made in the
    /// "last" role cannot splice into a non-last slot (and vice versa) —
    /// the two roles leave different environments behind.
    value: Option<TyResult>,
}

/// What one run of the module driver learned about one item slot.
#[derive(Clone, Debug)]
pub struct ItemRecord {
    /// α-stable fingerprint of the elaborated item
    /// ([`crate::fingerprint::item_fingerprint`]).
    fp: u128,
    /// Module-level names the item can read
    /// ([`crate::fingerprint::free_refs`]) — the dependency edges used
    /// by the cutoff accounting.
    free_refs: Vec<Symbol>,
    /// The `set!`-mutated variables of this item's body (the module
    /// mutation pre-pass is the union of these).
    mutated: Vec<Symbol>,
    /// Did the item need the big-stack worker?
    deep: bool,
    /// Value snapshot of the environment *after* this item, whether it
    /// checked cleanly or was poisoned.
    env_after: Env,
    /// Reusable results; `None` for items that produced diagnostics or
    /// tripped their budget fork (never cached).
    reuse: Option<ReuseData>,
}

/// Everything a previous driver run left behind for one module:
/// per-slot records in check order, plus the run-wide preconditions
/// (eviction epoch, mutated-variable set, initial environment) that
/// gate their reuse.
#[derive(Clone, Debug)]
pub struct ItemCache {
    /// [`crate::intern::evict_epoch`] when the cache was built; a moved
    /// epoch means interned ids in the snapshots may dangle.
    epoch: u64,
    /// The union of `set!`-mutated variables the pre-pass marked.
    mutated: HashSet<Symbol>,
    /// The environment every run starts from (mutability marks
    /// applied, nothing bound yet).
    init_env: Env,
    /// One record per item, in check order (definitions first, then
    /// trailing expressions).
    records: Vec<Arc<ItemRecord>>,
}

impl ItemCache {
    /// Number of item records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The environment that reached record `j` when it was made.
    fn env_before(&self, j: usize) -> &Env {
        match j {
            0 => &self.init_env,
            _ => &self.records[j - 1].env_after,
        }
    }
}

/// One slot of an incremental run, in check order.
#[derive(Clone, Debug)]
pub enum IncrSlot {
    /// This slot's source text is unchanged from the previous run:
    /// reuse the record at this index of the old [`ItemCache`]. The
    /// item itself is only elaborated (via the `fetch` callback) if the
    /// splice is rejected.
    Reused(usize),
    /// This slot's source changed (or had no cached counterpart): the
    /// freshly elaborated item.
    Fresh(ModuleItem),
}

/// One slot as the driver sees it: a claim on an old record, the
/// elaborated item, or both (a claimed item elaborated ahead of a
/// big-stack run).
pub(crate) struct Slot<'a> {
    /// The old record this slot's unchanged source text claims.
    reuse: Option<usize>,
    /// The item, borrowed from the caller or elaborated through
    /// `fetch`; `None` until a rejected splice needs it.
    item: Option<Cow<'a, ModuleItem>>,
    /// The body's `set!`-mutated variables (filled by the pre-pass).
    mutated: Vec<Symbol>,
    /// Does the item need the big-stack worker (filled by the pre-pass)?
    deep: bool,
}

impl<'a> Slot<'a> {
    /// A slot with no cached counterpart.
    pub(crate) fn fresh(item: &'a ModuleItem) -> Slot<'a> {
        Slot {
            reuse: None,
            item: Some(Cow::Borrowed(item)),
            mutated: Vec::new(),
            deep: false,
        }
    }

    fn into_owned(self) -> Slot<'static> {
        Slot {
            item: self.item.map(|item| Cow::Owned(item.into_owned())),
            reuse: self.reuse,
            mutated: self.mutated,
            deep: self.deep,
        }
    }
}

/// Counters describing how much work one driver run avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecheckStats {
    /// Slots that were actually re-checked.
    pub rechecked: u32,
    /// Slots spliced from the cache without re-checking.
    pub skipped: u32,
    /// Spliced slots that *depend on* (mention) an item re-checked
    /// earlier in this run — dependents the early cutoff stopped from
    /// dirtying.
    pub cutoff_stopped: u32,
    /// Slots for which a usable cached record existed (fingerprint or
    /// source text matched, with reusable results).
    pub fp_hits: u32,
    /// Slots with no usable cached record.
    pub fp_misses: u32,
}

/// Process-wide accumulation of [`RecheckStats`], for `--stats`.
#[cfg(feature = "stats")]
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static RECHECKED: AtomicU64 = AtomicU64::new(0);
    pub(super) static SKIPPED: AtomicU64 = AtomicU64::new(0);
    pub(super) static CUTOFF_STOPPED: AtomicU64 = AtomicU64::new(0);
    pub(super) static FP_HITS: AtomicU64 = AtomicU64::new(0);
    pub(super) static FP_MISSES: AtomicU64 = AtomicU64::new(0);

    /// Snapshot of the process-wide incremental counters.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct IncrStats {
        /// Total items re-checked across all driver runs.
        pub rechecked: u64,
        /// Total items spliced without re-checking.
        pub skipped: u64,
        /// Total dependents the early cutoff stopped from dirtying.
        pub cutoff_stopped: u64,
        /// Total fingerprint-table hits.
        pub fp_hits: u64,
        /// Total fingerprint-table misses.
        pub fp_misses: u64,
    }

    /// Reads the process-wide incremental counters.
    pub fn incr_stats() -> IncrStats {
        IncrStats {
            rechecked: RECHECKED.load(Ordering::Relaxed),
            skipped: SKIPPED.load(Ordering::Relaxed),
            cutoff_stopped: CUTOFF_STOPPED.load(Ordering::Relaxed),
            fp_hits: FP_HITS.load(Ordering::Relaxed),
            fp_misses: FP_MISSES.load(Ordering::Relaxed),
        }
    }

    pub(super) fn accumulate(s: &super::RecheckStats) {
        RECHECKED.fetch_add(u64::from(s.rechecked), Ordering::Relaxed);
        SKIPPED.fetch_add(u64::from(s.skipped), Ordering::Relaxed);
        CUTOFF_STOPPED.fetch_add(u64::from(s.cutoff_stopped), Ordering::Relaxed);
        FP_HITS.fetch_add(u64::from(s.fp_hits), Ordering::Relaxed);
        FP_MISSES.fetch_add(u64::from(s.fp_misses), Ordering::Relaxed);
    }
}

/// What a driver run returns: the module verdict, the cache for the
/// next run, and the work counters.
type RunOutput = (ModuleCheck, ItemCache, RecheckStats);

/// The state one run threads through its slots.
#[derive(Default)]
struct RunState {
    /// The environment reaching the next slot.
    env: Env,
    /// Diagnostics, summaries and the module value so far.
    out: ModuleCheck,
    /// The binders opened along the way, innermost last. The nested
    /// encoding existentializes every module-local binding out of the
    /// final result at binder exit (T-Let's lifting substitution); the
    /// driver replays the same lifts on the value before reporting it,
    /// so the module's value never mentions out-of-scope names.
    binders: Vec<(Symbol, Ty, Obj)>,
    /// The first governance limit that tripped in *any* earlier item.
    /// Once set, later items ran against possibly-coarser bindings (a
    /// starved definition poisons at its declared type, weakening
    /// everything downstream), so their conservative failures are
    /// reported as `E0202` too — a starved run's errors are exactly
    /// "identical to fault-free, or exhausted", never a different
    /// verdict. Item panics do *not* set it: the post-ICE environment
    /// equals the ordinary poison-path environment.
    degraded: Option<LimitKind>,
}

impl Checker {
    /// Incrementally checks a module against the results of a previous
    /// run.
    ///
    /// `slots` lists the module's items **in check order** (definitions
    /// first, then trailing expressions — the order
    /// [`Checker::check_module`] processes them in). A
    /// [`IncrSlot::Reused`] slot asserts its source text is unchanged
    /// from the old run; `fetch(i)` must elaborate slot `i`'s item on
    /// demand (with spans for the *current* file positions), returning
    /// `None` on failure.
    ///
    /// Returns `None` only when a `fetch` failed. A stale eviction
    /// epoch or a changed mutated-variable set does not fail the run; it
    /// discards the old cache and re-checks everything, producing a
    /// fresh one. Modules with deep items run on the big-stack worker.
    ///
    /// The returned [`ModuleCheck`] is equivalent to a from-scratch
    /// [`Checker::check_module`] over the same items (the equivalence
    /// property tests pin this, modulo fresh-symbol numbering),
    /// alongside the new [`ItemCache`] and the run's [`RecheckStats`].
    pub fn check_module_incremental(
        &self,
        slots: &[IncrSlot],
        old: Option<&ItemCache>,
        fetch: &mut dyn FnMut(usize) -> Option<ModuleItem>,
    ) -> Option<(ModuleCheck, ItemCache, RecheckStats)> {
        let slots = slots
            .iter()
            .map(|slot| match slot {
                IncrSlot::Fresh(item) => Slot::fresh(item),
                IncrSlot::Reused(j) => Slot {
                    reuse: Some(*j),
                    item: None,
                    mutated: Vec::new(),
                    deep: false,
                },
            })
            .collect();
        self.drive(slots, old, true, fetch)
    }

    /// The driver's entry: validates the old cache, runs the mutation
    /// pre-pass, and picks the stack the item loop runs on. Without
    /// `keep` the run records nothing for a next run and returns an
    /// empty cache.
    pub(crate) fn drive(
        &self,
        mut slots: Vec<Slot<'_>>,
        old: Option<&ItemCache>,
        keep: bool,
        fetch: &mut dyn FnMut(usize) -> Option<ModuleItem>,
    ) -> Option<RunOutput> {
        let this = self.fork_check();
        let _live = crate::intern::check_guard();
        this.caches().reconcile_evictions();
        let epoch = crate::intern::evict_epoch();

        // The old cache is only trusted if nothing was evicted since it
        // was built: interned ids inside its snapshots would dangle
        // otherwise. A stale cache is discarded, not an error — the run
        // proceeds all-fresh and rebuilds it.
        let mut old = old.filter(|c| c.epoch == epoch);

        // Mutation pre-pass over the whole module: the union of every
        // item's `set!`-mutated variables. Claimed slots contribute
        // their recorded set without being elaborated; a claim with no
        // record behind it is elaborated now.
        let mut mutated: HashSet<Symbol> = HashSet::new();
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.item.is_none() {
                if let Some(rec) = slot.reuse.and_then(|j| old?.records.get(j)) {
                    slot.mutated.clone_from(&rec.mutated);
                    slot.deep = rec.deep;
                    mutated.extend(rec.mutated.iter().copied());
                    continue;
                }
                slot.item = Some(Cow::Owned(fetch(i)?));
            }
            if let Some(e) = slot.item.as_deref().and_then(ModuleItem::body) {
                let vars = mutated_vars(e);
                mutated.extend(vars.iter().copied());
                slot.mutated = vars.into_iter().collect();
                slot.deep = !this.fits_inline_stack(e);
            }
        }
        // Cached environments were snapshotted under the old mutability
        // marking; if the set changed they are incomparable. Discard
        // and rebuild.
        if old.is_some_and(|c| c.mutated != mutated) {
            old = None;
        }
        // Without a cache every claimed item is re-checked, and a deep
        // run moves to a thread `fetch` cannot follow: elaborate now.
        let deep = slots.iter().any(|s| s.deep);
        if old.is_none() || deep {
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.item.is_none() {
                    slot.item = Some(Cow::Owned(fetch(i)?));
                }
            }
        }
        if !deep {
            return this.run_items(&slots, old, mutated, epoch, keep, fetch);
        }
        // Deep modules ride the persistent big-stack worker (warm stack
        // pages) when it is free, else a one-shot big-stack thread; see
        // `check_program`. The worker needs owned inputs.
        let slots: Vec<Slot<'static>> = slots.into_iter().map(Slot::into_owned).collect();
        let old = old.cloned();
        let that = this.clone();
        let job = move || that.run_items(&slots, old.as_ref(), mutated, epoch, keep, &mut |_| None);
        match big_stack::try_run(job) {
            Ok(r) => r,
            Err(job) => this.on_big_stack(job),
        }
    }

    /// The item loop: splices or re-checks each slot in order.
    fn run_items(
        &self,
        slots: &[Slot<'_>],
        old: Option<&ItemCache>,
        mutated: HashSet<Symbol>,
        epoch: u64,
        keep: bool,
        fetch: &mut dyn FnMut(usize) -> Option<ModuleItem>,
    ) -> Option<RunOutput> {
        let mut st = RunState::default();
        for x in &mutated {
            st.env.mark_mutable(*x);
        }
        let init_env = st.env.clone();
        let mut records: Vec<Arc<ItemRecord>> = Vec::with_capacity(slots.len());
        let mut stats = RecheckStats::default();
        // Names of items re-checked so far this run, for the
        // cutoff-stopped accounting.
        let mut rechecked_names: HashSet<Symbol> = HashSet::new();
        // Positional cursor into the old records, so a fresh slot whose
        // *term* is unchanged (whitespace-only edit) can still find its
        // old record by position + fingerprint.
        let mut cursor: usize = 0;
        let n = slots.len();
        let mut saw_trailing = false;

        for (i, slot) in slots.iter().enumerate() {
            let last = i + 1 == n;

            // Resolve this slot's splice candidate: its claimed record,
            // or the positional one when the fingerprints agree.
            let claimed = slot
                .reuse
                .and_then(|j| old.and_then(|c| Some((c, j, c.records.get(j)?))));
            let candidate = match (claimed, old, slot.item.as_deref()) {
                (Some((c, j, rec)), _, _) => {
                    cursor = j + 1;
                    Some((c, j, rec))
                }
                (None, Some(c), Some(item)) if cursor < c.records.len() => {
                    let j = cursor;
                    cursor += 1;
                    let rec = &c.records[j];
                    (rec.fp == item_fingerprint(item)).then_some((c, j, rec))
                }
                _ => None,
            };
            let reusable = candidate.and_then(|(c, j, rec)| Some((c, j, rec, rec.reuse.as_ref()?)));
            if reusable.is_some() {
                stats.fp_hits += 1;
            } else {
                stats.fp_misses += 1;
            }

            // The splice rule: reusable record, same trailing role, and
            // a value-equal incoming environment.
            let splice = reusable.filter(|(c, j, _, ru)| {
                let role_ok = ru.summary.name.is_some() || ru.value.is_some() == last;
                role_ok && st.env.same_contents(c.env_before(*j))
            });
            if let Some((_, _, rec, ru)) = splice {
                stats.skipped += 1;
                if rec.free_refs.iter().any(|s| rechecked_names.contains(s)) {
                    stats.cutoff_stopped += 1;
                }
                st.env = rec.env_after.clone();
                st.out.results.push(ru.summary.clone());
                if let Some(b) = &ru.binder {
                    st.binders.push(b.clone());
                }
                if ru.summary.name.is_none() {
                    saw_trailing = true;
                    if let Some(v) = &ru.value {
                        st.out.value = Some(v.clone());
                    }
                }
                records.push(Arc::clone(rec));
                continue;
            }

            // Re-check. Claimed slots are elaborated on demand now; their
            // records proved them inline-sized.
            let item: Cow<'_, ModuleItem> = match slot.item.as_deref() {
                Some(item) => Cow::Borrowed(item),
                None => Cow::Owned(fetch(i)?),
            };
            let item = &*item;
            stats.rechecked += 1;
            if let Some(name) = item.name() {
                rechecked_names.insert(name);
            }
            if matches!(item, ModuleItem::Expr { .. }) {
                saw_trailing = true;
            }

            let results_before = st.out.results.len();
            let diags_before = st.out.diagnostics.len();
            let binders_before = st.binders.len();
            let c = self.fork_item(item_salt(item));
            let value = self.check_item(&c, item, last, &mut st);
            let tripped = c.budget().tripped();
            st.degraded = st.degraded.or(tripped);
            if !keep {
                continue;
            }

            // Build this slot's record. Results are reusable only for
            // items that checked cleanly on an untripped fork: a
            // diagnostic or a tripped budget means the verdict may be
            // degraded, and degraded verdicts are never cached.
            let clean = st.out.diagnostics.len() == diags_before && tripped.is_none();
            let reuse = clean.then(|| ReuseData {
                summary: st.out.results[results_before].clone(),
                binder: st.binders.get(binders_before).cloned(),
                value,
            });
            records.push(Arc::new(ItemRecord {
                fp: item_fingerprint(item),
                free_refs: free_refs(item),
                mutated: slot.mutated.clone(),
                deep: slot.deep,
                env_after: st.env.clone(),
                reuse,
            }));
        }

        let mut out = st.out;
        if !saw_trailing {
            // The module without trailing expressions has value `#t`, as
            // in the nested encoding.
            out.value = Some(TyResult::new(Ty::True, Prop::TT, Prop::FF, Obj::Null));
        }
        if let Some(v) = out.value.take() {
            out.value = Some(v.lift_subst_all(&st.binders));
        }

        #[cfg(feature = "stats")]
        stats::accumulate(&stats);

        let cache = ItemCache {
            epoch,
            mutated,
            init_env,
            records,
        };
        Some((out, cache, stats))
    }

    /// Checks one item on its budget fork `c` (salted by the item's
    /// *name*, so chaos schedules survive edits that insert or reorder
    /// definitions). A failing definition is reported and *poisoned*
    /// (bound at its declared type); an internal checker panic becomes
    /// one `E0203` ICE for the item, poisoned the same way. Returns the
    /// pre-lift module value when `item` is the checked last trailing
    /// expression.
    fn check_item(
        &self,
        c: &Checker,
        item: &ModuleItem,
        last: bool,
        st: &mut RunState,
    ) -> Option<TyResult> {
        let fuel = self.config().logic_fuel;
        let RunState {
            env,
            out,
            binders,
            degraded,
        } = st;
        match item {
            ModuleItem::DefineRec {
                name,
                sig,
                lam,
                node,
                sig_node,
            } => {
                c.chaos_item_entry();
                let ctx = || format!("(define ({name} …) …)");
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    c.chaos_item_panic();
                    c.bind(env, *name, sig, fuel);
                    c.check_lambda(env, lam, sig, &ctx)
                }));
                c.budget().note_margin();
                match caught {
                    Ok(Ok(())) => out.results.push(ItemSummary {
                        span: None,
                        name: Some(*name),
                        ty: Some(sig.clone()),
                        poisoned: false,
                    }),
                    Ok(Err(d)) => {
                        let d = c.degrade_with(
                            *attach_node(d, *node),
                            c.budget().tripped().or(*degraded),
                            ctx,
                        );
                        self.poison(out, d, *name, sig, *sig_node);
                    }
                    Err(p) => {
                        // Re-bind: the panic may have interrupted the
                        // original bind half-way.
                        c.bind(env, *name, sig, fuel);
                        let d = Diagnostic::ice(ctx(), panic_detail(&*p)).at(*node);
                        self.poison(out, d, *name, sig, *sig_node);
                    }
                }
                binders.push((*name, sig.clone(), Obj::Null));
                None
            }
            ModuleItem::Define {
                name,
                sig,
                rhs,
                node,
                sig_node,
            } => {
                c.chaos_item_entry();
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    c.chaos_item_panic();
                    let r1 = c.synth(env, rhs)?;
                    let (o1, mutable) = c.open_let_binding(env, *name, &r1);
                    Ok((r1, o1, mutable))
                }));
                c.budget().note_margin();
                let d = match caught {
                    Ok(Ok((r1, o1, mutable))) => {
                        let lift_obj = if mutable { Obj::Null } else { o1 };
                        binders.push((*name, r1.ty.clone(), lift_obj));
                        out.results.push(ItemSummary {
                            span: None,
                            name: Some(*name),
                            ty: Some(r1.ty),
                            poisoned: false,
                        });
                        return None;
                    }
                    Ok(Err(d)) => c.degrade_with(
                        *attach_node(d, *node),
                        c.budget().tripped().or(*degraded),
                        || format!("(define {name} …)"),
                    ),
                    Err(p) => {
                        Diagnostic::ice(format!("(define {name} …)"), panic_detail(&*p)).at(*node)
                    }
                };
                let assumed = sig.clone().unwrap_or(Ty::Top);
                self.bind(env, *name, &assumed, fuel);
                binders.push((*name, assumed.clone(), Obj::Null));
                self.poison(out, d, *name, &assumed, *sig_node);
                None
            }
            ModuleItem::Opaque { name, ty } => {
                self.bind(env, *name, ty, fuel);
                binders.push((*name, ty.clone(), Obj::Null));
                out.results.push(ItemSummary {
                    span: None,
                    name: Some(*name),
                    ty: Some(ty.clone()),
                    poisoned: true,
                });
                None
            }
            // Trailing expressions: all but the last are opened as
            // fresh-named `let` bindings (mirroring `begin_form`'s let
            // chain), the last one is the module's value.
            ModuleItem::Expr { expr, node } => {
                c.chaos_item_entry();
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    c.chaos_item_panic();
                    c.synth(env, expr)
                }));
                c.budget().note_margin();
                let d = match caught {
                    Ok(Ok(r)) => {
                        let value = if last {
                            out.value = Some(r.clone());
                            Some(r)
                        } else {
                            let tmp = Symbol::fresh("ignored");
                            let (o1, mutable) = self.open_let_binding(env, tmp, &r);
                            let lift_obj = if mutable { Obj::Null } else { o1 };
                            binders.push((tmp, r.ty.clone(), lift_obj));
                            None
                        };
                        out.results.push(ItemSummary {
                            span: None,
                            name: None,
                            ty: value.as_ref().map(|r| r.ty.clone()),
                            poisoned: false,
                        });
                        return value;
                    }
                    Ok(Err(d)) => c.degrade_with(
                        *attach_node(d, *node),
                        c.budget().tripped().or(*degraded),
                        || "this expression".to_owned(),
                    ),
                    Err(p) => {
                        Diagnostic::ice("this expression".to_owned(), panic_detail(&*p)).at(*node)
                    }
                };
                out.diagnostics.push(d);
                out.results.push(ItemSummary {
                    span: None,
                    name: None,
                    ty: None,
                    poisoned: false,
                });
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{Expr, Lambda, Prim};

    fn int_to_int(name: &str) -> (Symbol, Ty) {
        let x = Symbol::intern("x");
        (
            Symbol::intern(name),
            Ty::fun(vec![(x, Ty::Int)], TyResult::of_type(Ty::Int)),
        )
    }

    fn define(name: &str, body: Expr) -> ModuleItem {
        let (sym, sig) = int_to_int(name);
        ModuleItem::DefineRec {
            name: sym,
            sig,
            lam: Arc::new(Lambda {
                params: vec![(Symbol::intern("x"), Ty::Top)],
                body,
            }),
            node: None,
            sig_node: None,
        }
    }

    fn good(name: &str) -> ModuleItem {
        define(
            name,
            Expr::prim_app(Prim::Add1, vec![Expr::Var(Symbol::intern("x"))]),
        )
    }

    fn bad(name: &str) -> ModuleItem {
        define(name, Expr::Bool(true))
    }

    fn all_fresh(items: &[ModuleItem]) -> Vec<IncrSlot> {
        items.iter().cloned().map(IncrSlot::Fresh).collect()
    }

    fn no_fetch(_: usize) -> Option<ModuleItem> {
        panic!("driver should not fetch for all-Fresh slots")
    }

    #[test]
    fn cold_run_matches_full_check_and_builds_a_cache() {
        let items = vec![good("ia"), bad("ib"), good("ic")];
        let checker = Checker::default();
        let full = checker.check_module(&items);
        let (incr, cache, stats) = checker
            .check_module_incremental(&all_fresh(&items), None, &mut no_fetch)
            .expect("nothing to fetch");
        assert_eq!(incr.error_count(), full.error_count());
        assert_eq!(incr.results.len(), full.results.len());
        for (a, b) in incr.results.iter().zip(&full.results) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.poisoned, b.poisoned);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(stats.rechecked, 3);
        assert_eq!(stats.skipped, 0);
        // The failing item is never cached.
        assert!(cache.records[0].reuse.is_some());
        assert!(cache.records[1].reuse.is_none());
    }

    #[test]
    fn unchanged_suffix_splices_and_one_edit_recheck_is_equivalent() {
        let v1 = vec![good("ja"), good("jb"), good("jc")];
        let checker = Checker::default();
        let (_, cache, _) = checker
            .check_module_incremental(&all_fresh(&v1), None, &mut no_fetch)
            .expect("cold run");

        // Identical second run: everything splices.
        let slots: Vec<IncrSlot> = (0..3).map(IncrSlot::Reused).collect();
        let mut fetch = |i: usize| Some(v1[i].clone());
        let (r2, cache2, s2) = checker
            .check_module_incremental(&slots, Some(&cache), &mut fetch)
            .expect("incremental run");
        assert!(r2.is_clean());
        assert_eq!(s2.skipped, 3);
        assert_eq!(s2.rechecked, 0);
        assert_eq!(cache2.len(), 3);

        // Edit the middle item to be ill-typed; items 0 and 2 splice
        // (jc does not mention jb, so the early cutoff covers it via
        // the value-equal environment… it re-checks only if the env
        // changed — poisoning binds jb at its declared type, which is
        // exactly the type the clean run exported, so jc still splices).
        let v3 = vec![good("ja"), bad("jb"), good("jc")];
        let slots = vec![
            IncrSlot::Reused(0),
            IncrSlot::Fresh(v3[1].clone()),
            IncrSlot::Reused(2),
        ];
        let mut fetch = |i: usize| Some(v3[i].clone());
        let (r3, cache3, s3) = checker
            .check_module_incremental(&slots, Some(&cache2), &mut fetch)
            .expect("incremental run");
        let full3 = checker.check_module(&v3);
        assert_eq!(r3.error_count(), full3.error_count());
        assert_eq!(r3.results.len(), full3.results.len());
        for (a, b) in r3.results.iter().zip(&full3.results) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.poisoned, b.poisoned);
        }
        assert!(s3.rechecked >= 1, "{s3:?}");
        assert!(s3.skipped >= 1, "{s3:?}");
        assert!(cache3.records[1].reuse.is_none());
    }

    #[test]
    fn stale_epoch_discards_the_cache_but_still_succeeds() {
        let items = vec![good("ka"), good("kb")];
        let checker = Checker::default();
        let (_, cache, _) = checker
            .check_module_incremental(&all_fresh(&items), None, &mut no_fetch)
            .expect("cold run");
        let stale = ItemCache {
            epoch: cache.epoch.wrapping_add(1),
            ..cache
        };
        let slots: Vec<IncrSlot> = (0..2).map(IncrSlot::Reused).collect();
        let mut fetch = |i: usize| Some(items[i].clone());
        let (r, _, s) = checker
            .check_module_incremental(&slots, Some(&stale), &mut fetch)
            .expect("stale cache is discarded, not fatal");
        assert!(r.is_clean());
        assert_eq!(s.rechecked, 2);
        assert_eq!(s.skipped, 0);
    }
}
