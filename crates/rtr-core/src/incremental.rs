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
//! nothing else: every memo table is keyed by content, so a hit returns
//! the verdict a fresh computation would. A cached record may therefore
//! replace re-checking item *i* when the item's term is unchanged (same
//! fingerprint / same source text), its trailing role is unchanged, and
//! the environment reaching slot *i* looks the same *to that item* as
//! the one the record was made under.
//!
//! The environment is the paper's hybrid Γ (§4.1): a type map plus
//! facts, most of them keyed by a name (its alias, and the negative
//! facts about paths rooted at it). [`Env::diff`] compares two
//! environments entry by entry: `Some(D)` names the entries that
//! differ, `None` means a fact keyed by no name differs (a disjunction,
//! a theory literal, a pending atom, the mutability marks or
//! absurdity). The driver aligns each slot with the old record it claims
//! (or, for a changed slot, the next old record if the fingerprints
//! agree), and its *ledger* for a slot claiming record *j* is
//! `D = diff(this run's environment, the environment before j)`. Each
//! record stores its own effect the same way: `writes`, the diff of the
//! environments after and before its item.
//!
//! **The splice rule.** A reusable record in the same role splices into
//! an uncancelled check iff `D` is `Some` and:
//!
//! * no judgment can reach a `D` entry without naming it: on either
//!   side, no `D` name has an empty type (the consistency check scans
//!   every binding for emptiness), and no fact other than the name's
//!   own entries mentions it (another name's alias or negative fact, a
//!   disjunction, a theory literal or a pending atom). The consistency
//!   check also compares each negative fact with its path's type, but a
//!   negative fact is assumed together with the update of that type, and
//!   a conflict there empties the type and marks the environment absurd;
//! * `D` is empty, or the item can neither read nor write a `D` entry:
//!   * `writes` is `Some` and disjoint from `D`;
//!   * its free references ([`crate::fingerprint::free_refs`]: term
//!     free variables, names in dependent signature positions, and
//!     names read by the types written in the term) are disjoint from
//!     `D`;
//!   * their current types mention no `D` name (a signature refinement
//!     may name another module-level define, and reading the signature
//!     reads that name);
//!   * no `D` entry, on either side, mentions a written name: a
//!     redefinition unbinds the name it shadows and rewrites every
//!     entry that mentions it.
//!
//! Every entry the item's judgments look up is then the same on both
//! sides, so its verdict and its effect are the recorded ones. A binder
//! inside the item that shadows a `D` name unbinds it and rewrites the
//! entries that mention it; by the conditions above the item reads none
//! of those. The environment the item leaves is the record's snapshot
//! with `D`'s entries copied in ([`Env::copy_bindings`]), and no
//! comparison. It diffs to `D` against the next record's environment by
//! construction, so contiguous splices carry `D` unchanged. A re-check,
//! a claim of any other record (a delete or a reorder) and a ledger that
//! failed the first condition recompute `D` at the next claim. Early
//! cutoff falls out: a re-checked item whose entries came out equal
//! leaves `D` as it was, and its dependents splice.
//!
//! # What a splice costs
//!
//! A spliced slot copies pointers: its summary, binder, value result,
//! diagnostics and record are shared (`Arc`) with the cache, and so is
//! the environment it leaves.
//!
//! * **Runs.** Under an empty `D` the environments are the old ones, so
//!   the driver takes a maximal run of slots that claim consecutive old
//!   records and pass the per-record conditions (role, a failing record's
//!   claim, an undegraded and uncancelled run) in one step: it extends
//!   the new cache from the old `records` and `envs` slices and replays
//!   each record's results. The cutoff accounting binary-searches the
//!   sorted free references against the sorted names re-checked so far.
//! * **Overlays.** Under a non-empty `D`, the environment a splice leaves
//!   is an *overlay*: the record's snapshot plus `D`'s entries, built
//!   into an [`Env`] only when something reads it whole — the next
//!   ledger, a re-check, or a later run. The next item's ledger test
//!   reads the few types it needs through the overlay. A splice over a
//!   snapshot that is itself an unbuilt overlay merges the two layers
//!   (the newer entries win), so layers do not stack; past
//!   `MAX_OVERLAY` names the old snapshot is built instead.
//! * **The pre-pass.** The mutation pre-pass analyses only elaborated
//!   slots. A claimed slot is described by its record, and the old cache
//!   lists the few records that mutate a variable or need the big stack,
//!   so only those are read: when no fresh slot mutates anything and no
//!   record the claims skip did, the union is the old one.
//!
//! # What is cached, and what never is
//!
//! An [`ItemRecord`] carries reusable results (`reuse`) for items that
//! checked cleanly *or failed with ordinary diagnostics* on an untripped
//! budget fork. A failing record keeps its diagnostics and its poisoned
//! summary; it splices under the rule above plus two conditions:
//!
//! * the slot claims it ([`IncrSlot::Reused`]), so its source text is
//!   unchanged: a recorded diagnostic locates itself in that text, which
//!   a fingerprint match alone does not pin;
//! * the run is not already degraded: once an earlier item tripped its
//!   budget, every later failure is reported as `E0202` instead.
//!
//! A spliced failing record pushes its diagnostics onto
//! [`ModuleCheck::diagnostics`] in order, so the report stays complete.
//! Their nodes belong to the elaboration of the run that recorded them;
//! [`ItemCache::slot_diagnostics`] tells a caller which diagnostics were
//! spliced, so a surface layer that resolved them once can re-stamp its
//! own copies at the item's current position.
//!
//! Degraded verdicts are never cached: a tripped per-item fork, an
//! `E0202` (resource exhaustion) or `E0203` (ICE) diagnostic, and every
//! failure in a run an earlier item degraded leave `reuse = None`, so
//! they are always re-derived. A changed `set!`-mutated variable set
//! discards the old cache (its environment snapshots are not comparable)
//! and the run re-checks every slot, building a fresh one.
//!
//! # Fresh names
//!
//! A re-checked item mints its fresh names in its own [`Symbol::scoped`]
//! scope: the defined name and how many earlier items define it, or a
//! trailing expression's index. These are unique within a check, and a
//! record splices only into a slot with its own scope (the names it left
//! would otherwise be minted again by the item re-checked in that scope).
//!
//! # Cancellation
//!
//! Once the check's [`crate::budget::CancelToken`] is revoked, the
//! driver re-checks one more slot — its budget fork trips at entry, so
//! the report carries that item's `E0202` (`limit: "cancelled"`) — and
//! stops: the remaining slots are neither fetched nor checked, and the
//! report holds fewer results than there are slots. The cache such a
//! run returns covers only the slots it reached; callers keep their
//! previous cache instead.
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
use std::sync::{Arc, OnceLock};

use rtr_solver::fxhash::FxHashMap;

use crate::budget::LimitKind;
use crate::check::{attach_node, big_stack, panic_detail, Checker};
use crate::diag::{Code, Diagnostic};
use crate::env::{Entries, Env};
use crate::fingerprint::{free_refs, item_fingerprint, item_salt};
use crate::intern::TyId;
use crate::module::{Binder, ItemSummary, ModuleCheck, ModuleItem, ModuleValue};
use crate::mutation::mutated_vars;
use crate::syntax::{Obj, Symbol, Ty, TyResult};
use crate::trace::TraceCounts;

/// The reusable outcome of one item that checked cleanly or failed with
/// ordinary diagnostics. Every tree in it is shared (`Arc`) with the run
/// that recorded it and with every run that splices it: a splice copies
/// pointers, never types.
#[derive(Clone, Debug)]
struct ReuseData {
    /// The summary pushed onto [`ModuleCheck::results`].
    summary: ItemSummary,
    /// The diagnostics the item reported, as it reported them (their
    /// nodes are from the elaboration of the run that recorded them),
    /// shared with every report that splices them; empty for a clean
    /// item.
    diagnostics: Vec<Arc<Diagnostic>>,
    /// The binder this item opened (part of the prefix the module value
    /// is lifted over), if any.
    binder: Option<Arc<Binder>>,
    /// `Some` iff this item was recorded as the module's *last trailing
    /// expression*: its pre-lift value result. A record made in the
    /// "last" role cannot splice into a non-last slot (and vice versa) —
    /// the two roles leave different environments behind.
    value: Option<Arc<TyResult>>,
}

impl ReuseData {
    /// Do these results fit a slot in the `last` role, which claims the
    /// record (`claimed`) or matched it by fingerprint, in a run that an
    /// earlier item has `degraded`? The rest of the splice rule is about
    /// the environment (see the module docs).
    fn fits(&self, last: bool, claimed: bool, degraded: bool) -> bool {
        // A failing trailing expression opens nothing and has no value,
        // so it leaves the same run in either role.
        let failing = !self.diagnostics.is_empty();
        let role_ok = self.summary.name.is_some() || failing || self.value.is_some() == last;
        // Recorded diagnostics locate themselves in the claimed text, and
        // a degraded run reports every failure as E0202.
        role_ok && (!failing || (claimed && !degraded))
    }
}

/// What one run of the module driver learned about one item. Records
/// are shared (`Arc`) by every later run that splices them; the
/// environment snapshot each slot leaves behind lives beside the record
/// in [`ItemCache`], since a splice under a non-empty ledger leaves a
/// different environment than the run that made the record.
#[derive(Debug)]
pub struct ItemRecord {
    /// α-stable fingerprint of the elaborated item
    /// ([`crate::fingerprint::item_fingerprint`]).
    fp: u128,
    /// Module-level names the item can read
    /// ([`crate::fingerprint::free_refs`]) — the dependency edges of the
    /// splice rule and the cutoff accounting.
    free_refs: Vec<Symbol>,
    /// The `set!`-mutated variables of this item's body (the module
    /// mutation pre-pass is the union of these).
    mutated: Vec<Symbol>,
    /// Did the item need the big-stack worker?
    deep: bool,
    /// The names whose entries the item changed ([`Env::diff`] of the
    /// environments after and before it), whether it checked cleanly or
    /// was poisoned; `None` when it changed a fact keyed by no name.
    writes: Option<Vec<Symbol>>,
    /// Reusable results; `None` for degraded verdicts (never cached).
    reuse: Option<ReuseData>,
}

/// Everything a previous driver run left behind for one module:
/// per-slot records in check order with the environments between them,
/// plus the run-wide precondition (the mutated-variable set) that gates
/// their reuse.
#[derive(Clone, Debug)]
pub struct ItemCache {
    /// The union of `set!`-mutated variables the pre-pass marked.
    mutated: HashSet<Symbol>,
    /// One record per item, in check order (definitions first, then
    /// trailing expressions).
    records: Vec<Arc<ItemRecord>>,
    /// The scope each record's fresh names were minted in.
    scopes: Vec<ItemScope>,
    /// The indices of the records that mutate a variable or need the big
    /// stack, ascending: the only claimed records the pre-pass reads.
    special: Vec<usize>,
    /// Value snapshots of the environment: `envs[j]` reached record `j`
    /// and `envs[j + 1]` is what its slot left, whether the item checked
    /// cleanly or was poisoned. `envs[0]` is the environment every run
    /// starts from (mutability marks applied, nothing bound yet). Shared
    /// with the runs that splice the records.
    envs: Vec<Snap>,
    /// Per slot the run reached: how many diagnostics it reported, and
    /// whether they are a spliced record's.
    reported: Vec<(usize, bool)>,
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

    /// For each slot the run that built this cache reached, in check
    /// order: how many diagnostics it added to [`ModuleCheck::diagnostics`]
    /// and whether they were spliced — a cached record's diagnostics,
    /// whose nodes belong to the elaboration of the run that recorded
    /// them — rather than derived by this run. A caller that resolved the
    /// recorded diagnostics' spans itself re-stamps those instead.
    pub fn slot_diagnostics(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.reported.iter().copied()
    }
}

/// The most names an overlay carries before a splice builds the
/// snapshot under it instead of merging into it. Over successive
/// signature edits layers grow to the cap; on perfbench `edit_loop` a cap
/// of 4 (more builds) and one of 64 (longer merges) were both slower.
const MAX_OVERLAY: usize = 16;

/// The merges a ledger remembers ([`Snap::with_layer`]). On perfbench
/// `edit_loop` about half the merges find a remembered one, half of
/// those the newest and the rest thinning out over the older seven.
const MERGES_KEPT: usize = 8;

/// One environment snapshot of an [`ItemCache`].
#[derive(Clone, Debug)]
enum Snap {
    /// A built environment.
    Env(Arc<Env>),
    /// What a dependency splice leaves, built only when read whole.
    Overlay(Arc<Overlay>),
}

/// `base` with the entries in `layer` ([`Env::set_entries`]).
#[derive(Debug)]
struct Overlay {
    base: Arc<Env>,
    layer: Arc<Layer>,
    /// The built environment, once read whole.
    built: OnceLock<Arc<Env>>,
}

/// Names with the entries an overlay gives them, sorted by name.
type Layer = [(Symbol, Entries)];

impl Snap {
    /// The environment, built on first use.
    fn env(&self) -> &Arc<Env> {
        match self {
            Snap::Env(env) => env,
            Snap::Overlay(o) => o.built.get_or_init(|| {
                let mut env = Env::clone(&o.base);
                env.set_entries(&o.layer);
                Arc::new(env)
            }),
        }
    }

    /// `x`'s recorded type ([`Env::raw_ty_id`]), without building.
    fn ty_id(&self, x: Symbol) -> Option<TyId> {
        match self {
            Snap::Env(env) => env.raw_ty_id(x),
            Snap::Overlay(o) => match o.layer.binary_search_by_key(&x, |(y, _)| *y) {
                Ok(at) => o.layer[at].1.ty(),
                Err(_) => o.base.raw_ty_id(x),
            },
        }
    }

    /// This snapshot with the ledger `l`'s entries on top. Over an
    /// unbuilt overlay that is an overlay of the same base whose layer
    /// merges the two, `l`'s entries winning; runs of snapshots share
    /// their layer, so `l` remembers the last few merges. Over a
    /// built environment, or past [`MAX_OVERLAY`] names, it is an overlay
    /// of the built snapshot with `l`'s entries alone.
    fn with_layer(&self, l: &mut Ledger) -> Snap {
        let overlay = |base: &Arc<Env>, layer: &Arc<Layer>| {
            Snap::Overlay(Arc::new(Overlay {
                base: Arc::clone(base),
                layer: Arc::clone(layer),
                built: OnceLock::new(),
            }))
        };
        let o = match self {
            Snap::Overlay(o) if o.built.get().is_none() => o,
            built => return overlay(built.env(), &l.layer),
        };
        let known = l
            .merged
            .iter()
            .find(|(below, _)| Arc::ptr_eq(below, &o.layer));
        let merged = match known {
            Some((_, merged)) => Arc::clone(merged),
            None => {
                let new = &l.layer;
                let kept = o
                    .layer
                    .iter()
                    .filter(|(x, _)| new.binary_search_by_key(x, |(y, _)| *y).is_err());
                let mut merged: Vec<(Symbol, Entries)> = kept.chain(new.iter()).cloned().collect();
                merged.sort_unstable_by_key(|(x, _)| *x);
                let merged: Arc<Layer> = merged.into();
                if l.merged.len() == MERGES_KEPT {
                    l.merged.remove(0);
                }
                l.merged.push((Arc::clone(&o.layer), Arc::clone(&merged)));
                merged
            }
        };
        if merged.len() > MAX_OVERLAY {
            return overlay(self.env(), &l.layer);
        }
        overlay(&o.base, &merged)
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

/// Where an item's fresh names are minted (see the module docs): the
/// defined name and how many earlier items define it, or, for a
/// trailing expression (`name: None`), its index among them. The
/// elaborator mints the names of the item's forms in scopes of the same
/// item under phases of its own, so a record spliced under its own scope
/// carries the elaborator names a fresh elaboration would mint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ItemScope {
    name: Option<Symbol>,
    nth: u32,
}

impl ItemScope {
    /// The key of the [`Symbol::scoped`] scope in which `phase` mints
    /// the item's names; the driver's phase is `"item"`.
    pub fn key(self, phase: &str) -> u64 {
        Symbol::scope_key((phase, self))
    }
}

/// Counts a module's items into their [`ItemScope`]s. Definitions and
/// trailing expressions are counted apart, so source order and check
/// order (definitions first) give the same scopes.
#[derive(Default)]
pub struct ItemScopes(FxHashMap<Option<Symbol>, u32>);

impl ItemScopes {
    /// The scope of the next item defining `name` (`None`: the next
    /// trailing expression), counted.
    pub fn next(&mut self, name: Option<Symbol>) -> ItemScope {
        let nth = self.0.entry(name).or_default();
        *nth += 1;
        ItemScope {
            name,
            nth: *nth - 1,
        }
    }

    /// The scope the next item defining `name` will take, not counted.
    pub fn peek(&self, name: Option<Symbol>) -> ItemScope {
        let nth = self.0.get(&name).copied().unwrap_or(0);
        ItemScope { name, nth }
    }
}

/// The ledger (see the module docs) for the slot that claims old record
/// `at`.
struct Ledger {
    at: usize,
    /// `D`: the names whose entries differ.
    names: Vec<Symbol>,
    /// The names `D`'s entries mention on either side, sorted.
    mentioned: Vec<Symbol>,
    /// `D`'s entries in the environment that reached the slot claiming
    /// `at`: the overlay layer of the snapshots the splices under it
    /// leave.
    layer: Arc<Layer>,
    /// The last few [`Snap::with_layer`] merges, newest last: the layer
    /// merged with `layer`, and the result.
    merged: Vec<(Arc<Layer>, Arc<Layer>)>,
}

/// What a driver run returns: the module verdict, the cache for the
/// next run, and the run's work counters.
type RunOutput = (ModuleCheck, ItemCache, TraceCounts);

/// The state one run threads through its slots.
#[derive(Default)]
struct RunState {
    /// The environment reaching the next slot (shared with the
    /// snapshot of the slot that left it; a re-check copies it), unless
    /// `ahead` is set.
    env: Arc<Env>,
    /// After splices, the snapshot that reaches the next slot; `env` is
    /// built from it when read whole ([`RunState::settle`]).
    ahead: Option<Snap>,
    /// Diagnostics and summaries so far.
    out: ModuleCheck,
    /// The last trailing expression's pre-lift result, once checked.
    value: Option<Arc<TyResult>>,
    /// Has a trailing expression been reached?
    saw_trailing: bool,
    /// The names of the items re-checked so far, sorted, for the
    /// cutoff-stopped accounting.
    rechecked: Vec<Symbol>,
    /// The cache being built: [`ItemCache`]'s fields of the same names.
    records: Vec<Arc<ItemRecord>>,
    envs: Vec<Snap>,
    special: Vec<usize>,
    reported: Vec<(usize, bool)>,
    /// The binders opened along the way, innermost last. The nested
    /// encoding existentializes every module-local binding out of the
    /// final result at binder exit (T-Let's lifting substitution); the
    /// reported [`ModuleValue`] carries this prefix and replays the same
    /// lifts when it is read, so the module's value never mentions
    /// out-of-scope names.
    binders: Vec<Arc<Binder>>,
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

impl RunState {
    /// Builds `env` from the snapshot splices left ahead of it.
    fn settle(&mut self) {
        if let Some(snap) = self.ahead.take() {
            self.env = Arc::clone(snap.env());
        }
    }

    /// `x`'s recorded type in the environment reaching the next slot.
    fn ty_id(&self, x: Symbol) -> Option<TyId> {
        match &self.ahead {
            Some(snap) => snap.ty_id(x),
            None => self.env.raw_ty_id(x),
        }
    }

    /// Appends the slot's record and the environment it left to the
    /// cache being built.
    fn record(&mut self, rec: Arc<ItemRecord>) {
        if rec.deep || !rec.mutated.is_empty() {
            self.special.push(self.records.len());
        }
        self.records.push(rec);
        self.envs.push(Snap::Env(Arc::clone(&self.env)));
    }

    /// Replays a spliced record's results: pointer copies only. The
    /// environment it left is pushed by the caller. Returns whether the
    /// item reads a name re-checked earlier in this run (its verdict
    /// survived a re-check it depends on: early cutoff).
    fn splice(&mut self, rec: &Arc<ItemRecord>) -> bool {
        let ru = rec.reuse.as_ref().expect("only reusable records splice");
        self.out.results.push(ru.summary.clone());
        self.out.diagnostics.extend(ru.diagnostics.iter().cloned());
        self.reported.push((ru.diagnostics.len(), true));
        if let Some(b) = &ru.binder {
            self.binders.push(Arc::clone(b));
        }
        if ru.summary.name.is_none() {
            self.saw_trailing = true;
            if let Some(v) = &ru.value {
                self.value = Some(Arc::clone(v));
            }
        }
        if rec.deep || !rec.mutated.is_empty() {
            self.special.push(self.records.len());
        }
        self.records.push(Arc::clone(rec));
        intersects(&rec.free_refs, &self.rechecked)
    }
}

/// Do the sorted lists `a` and `b` share an element? Walks the shorter
/// one and binary-searches the longer.
fn intersects(a: &[Symbol], b: &[Symbol]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    !long.is_empty() && short.iter().any(|x| long.binary_search(x).is_ok())
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
    /// Returns `None` only when a `fetch` failed. A changed
    /// mutated-variable set does not fail the run; it discards the old
    /// cache and re-checks everything, producing a fresh one. Modules
    /// with deep items run on the big-stack worker.
    ///
    /// The returned [`ModuleCheck`] is equivalent to a from-scratch
    /// [`Checker::check_module`] over the same items (the equivalence
    /// property tests pin this),
    /// alongside the new [`ItemCache`] and the run's work counters
    /// (`rechecked`, `skipped`, `cutoff_stopped`, `dep_spliced`, and
    /// everything the judgments counted). A check revoked through its
    /// cancel token stops early (see the module docs): its results are
    /// shorter than `slots` and its cache is partial.
    pub fn check_module_incremental(
        &self,
        slots: &[IncrSlot],
        old: Option<&ItemCache>,
        fetch: &mut dyn FnMut(usize) -> Option<ModuleItem>,
    ) -> Option<RunOutput> {
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
        mut old: Option<&ItemCache>,
        keep: bool,
        fetch: &mut dyn FnMut(usize) -> Option<ModuleItem>,
    ) -> Option<RunOutput> {
        let this = self.fork_check();

        // Mutation pre-pass: the union of every item's `set!`-mutated
        // variables, and whether any item needs the big stack. A slot
        // elaborated for this run is analysed; a claimed one is described
        // by its record, and only the few records that mutate something
        // or run deep (`special`) are read at all. A claim with no record
        // behind it is elaborated now.
        let special = old.map_or(&[][..], |c| &c.special[..]);
        let mut mutated: HashSet<Symbol> = HashSet::new();
        let mut deep = false;
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.item.is_none() {
                let j = slot
                    .reuse
                    .filter(|&j| old.is_some_and(|c| j < c.records.len()));
                if let (Some(j), Some(c)) = (j, old) {
                    if special.binary_search(&j).is_ok() {
                        let rec = &c.records[j];
                        mutated.extend(rec.mutated.iter().copied());
                        deep |= rec.deep;
                    }
                    continue;
                }
                slot.item = Some(Cow::Owned(fetch(i)?));
            }
            this.analyse(slot, &mut mutated);
            deep |= slot.deep;
        }
        // Cached environments were snapshotted under the old mutability
        // marking; if the set changed they are incomparable. Discard
        // and rebuild.
        if old.is_some_and(|c| c.mutated != mutated) {
            old = None;
        }
        // Without a cache every claimed item is re-checked, and a deep
        // run moves to a thread `fetch` cannot follow: elaborate now.
        if old.is_none() || deep {
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.item.is_none() {
                    slot.item = Some(Cow::Owned(fetch(i)?));
                    this.analyse(slot, &mut mutated);
                }
            }
        }
        if !deep {
            return this.run_items(&slots, old, mutated, keep, fetch);
        }
        // Deep modules ride the persistent big-stack worker (warm stack
        // pages) when it is free, else a one-shot big-stack thread. The
        // worker needs owned inputs.
        let slots: Vec<Slot<'static>> = slots.into_iter().map(Slot::into_owned).collect();
        let old = old.cloned();
        let that = this.clone();
        let job = move || that.run_items(&slots, old.as_ref(), mutated, keep, &mut |_| None);
        match big_stack::try_run(job) {
            Ok(r) => r,
            Err(job) => this.on_big_stack(job),
        }
    }

    /// Fills an elaborated slot's mutated variables and stack need, and
    /// adds the former to the module's union.
    fn analyse(&self, slot: &mut Slot<'_>, mutated: &mut HashSet<Symbol>) {
        if let Some(e) = slot.item.as_deref().and_then(ModuleItem::body) {
            let vars = mutated_vars(e);
            mutated.extend(vars.iter().copied());
            slot.mutated = vars.into_iter().collect();
            slot.deep = !self.fits_inline_stack(e);
        }
    }

    /// The item loop: splices or re-checks each slot in order.
    fn run_items(
        &self,
        slots: &[Slot<'_>],
        old: Option<&ItemCache>,
        mutated: HashSet<Symbol>,
        keep: bool,
        fetch: &mut dyn FnMut(usize) -> Option<ModuleItem>,
    ) -> Option<RunOutput> {
        let mut init_env = Env::new();
        for x in &mutated {
            init_env.mark_mutable(*x);
        }
        let env = Arc::new(init_env);
        let mut st = RunState {
            envs: vec![Snap::Env(Arc::clone(&env))],
            env,
            ..RunState::default()
        };
        let trace = self.trace();
        // The next old record not yet aligned with a slot of this run.
        let mut old_next: usize = 0;
        // `None` until the next claim computes the ledger.
        let mut ledger: Option<Ledger> = None;
        let n = slots.len();
        // Every slot's scope. A slot the pre-pass left unelaborated
        // claims an old record, whose scope knows its name.
        let mut counts = ItemScopes::default();
        let mut scopes: Vec<ItemScope> = slots
            .iter()
            .map(|slot| match (slot.item.as_deref(), slot.reuse, old) {
                (Some(item), _, _) => counts.next(item.name()),
                (None, Some(j), Some(c)) => counts.next(c.scopes[j].name),
                _ => unreachable!("the pre-pass elaborates every unclaimed slot"),
            })
            .collect();
        debug_assert_eq!(
            scopes
                .iter()
                .map(|s| s.key("item"))
                .collect::<HashSet<_>>()
                .len(),
            n,
            "two items share a fresh-name scope key"
        );

        let mut i = 0;
        while i < n {
            let slot = &slots[i];
            let last = i + 1 == n;
            // A revoked check re-checks this one slot, whose budget
            // fork trips at entry, and stops after it.
            let cancelled = self.budget().cancelled();

            // Resolve this slot's splice candidate: its claimed record,
            // or the next old one when the fingerprints agree.
            let claimed = slot
                .reuse
                .and_then(|j| old.and_then(|c| Some((c, j, c.records.get(j)?))));
            let candidate = match (claimed, old, slot.item.as_deref()) {
                (Some(found), _, _) => Some(found),
                (None, Some(c), Some(item)) => c
                    .records
                    .get(old_next)
                    .filter(|rec| rec.fp == item_fingerprint(item))
                    .map(|rec| (c, old_next, rec)),
                _ => None,
            };
            let reusable = candidate.and_then(|(c, j, rec)| Some((c, j, rec, rec.reuse.as_ref()?)));
            if reusable.is_some() {
                trace.fp_hits.bump();
            } else {
                trace.fp_misses.bump();
            }

            // The splice rule (see the module docs).
            let splice = reusable.filter(|&(c, j, rec, ru)| {
                if cancelled
                    || c.scopes[j] != scopes[i]
                    || !ru.fits(last, slot.reuse == Some(j), st.degraded.is_some())
                {
                    return false;
                }
                if ledger.as_ref().is_none_or(|l| l.at != j) {
                    st.settle();
                    ledger = self.ledger(&st.env, c.envs[j].env(), j);
                }
                let l = ledger.as_ref();
                l.is_some_and(|l| l.names.is_empty() || !reads_ledger(|x| st.ty_id(x), rec, l))
            });
            if let Some((c, j, _, _)) = splice {
                let l = ledger.as_mut().expect("a splice has a ledger");
                let k = if l.names.is_empty() {
                    // An empty ledger stays empty across a splice, so the
                    // run extends over every following slot that claims
                    // the next old record and passes the per-record
                    // conditions: its environments are the old ones.
                    let k = 1
                        + (i + 1..n)
                            .zip(j + 1..c.records.len())
                            .take_while(|&(s, r)| {
                                slots[s].reuse == Some(r)
                                    && c.scopes[r] == scopes[s]
                                    && !self.budget().cancelled()
                                    && c.records[r].reuse.as_ref().is_some_and(|ru| {
                                        ru.fits(s + 1 == n, true, st.degraded.is_some())
                                    })
                            })
                            .count();
                    trace.fp_hits.add(k as u64 - 1);
                    st.ahead = Some(c.envs[j + k].clone());
                    st.envs.extend_from_slice(&c.envs[j + 1..=j + k]);
                    k
                } else {
                    // The environment the item leaves is the record's
                    // snapshot with `D`'s entries copied in, as an
                    // overlay built only if read whole.
                    trace.dep_spliced.bump();
                    let snap = c.envs[j + 1].with_layer(l);
                    st.ahead = Some(snap.clone());
                    st.envs.push(snap);
                    1
                };
                trace.skipped.add(k as u64);
                for rec in &c.records[j..j + k] {
                    if st.splice(rec) {
                        trace.cutoff_stopped.bump();
                    }
                }
                l.at = j + k;
                old_next = j + k;
                i += k;
                continue;
            }

            // Re-check. Claimed slots are elaborated on demand now; their
            // records proved them inline-sized.
            st.settle();
            let item: Cow<'_, ModuleItem> = match slot.item.as_deref() {
                Some(item) => Cow::Borrowed(item),
                None => Cow::Owned(fetch(i)?),
            };
            let item = &*item;
            trace.rechecked.bump();
            if let Some(name) = item.name() {
                if let Err(at) = st.rechecked.binary_search(&name) {
                    st.rechecked.insert(at, name);
                }
            }
            if matches!(item, ModuleItem::Expr { .. }) {
                st.saw_trailing = true;
            }

            let env_before = st.env.clone();
            let results_before = st.out.results.len();
            let diags_before = st.out.diagnostics.len();
            let binders_before = st.binders.len();
            let c = self.fork_item(item_salt(item));
            // The item's fresh names come from its scope; debug builds
            // assert that none is already bound where they will be bound.
            let taken = if cfg!(debug_assertions) {
                st.env
                    .types()
                    .map(|(x, _)| x)
                    .filter(|x| x.is_fresh())
                    .collect()
            } else {
                HashSet::new()
            };
            let result = Symbol::scoped_avoiding(scopes[i].key("item"), taken, || {
                Symbol::renumbered(|| self.check_item(&c, item, last, &mut st))
            });
            if let Some(v) = &result {
                st.value = Some(Arc::clone(v));
            }
            let tripped = c.budget().tripped();
            st.degraded = st.degraded.or(tripped);
            st.reported
                .push((st.out.diagnostics.len() - diags_before, false));
            if tripped == Some(LimitKind::Cancelled) {
                break;
            }
            // This slot consumed its candidate, if any.
            if let Some((_, j, _)) = candidate {
                old_next = j + 1;
            }
            ledger = None;
            i += 1;
            if !keep {
                continue;
            }

            // Build this slot's record. Degraded verdicts are never
            // cached: a tripped fork, an `E0202`/`E0203`, or any failure
            // in a run an earlier item already degraded.
            let diagnostics = &st.out.diagnostics[diags_before..];
            let ordinary = diagnostics.is_empty()
                || (st.degraded.is_none()
                    && diagnostics
                        .iter()
                        .all(|d| !matches!(d.code, Code::ResourceExhausted | Code::InternalError)));
            let reuse = (tripped.is_none() && ordinary).then(|| ReuseData {
                diagnostics: diagnostics.to_vec(),
                summary: st.out.results[results_before].clone(),
                binder: st.binders.get(binders_before).cloned(),
                value: result,
            });
            // A slot elaborated for this run was analysed by the
            // pre-pass; a claimed one elaborated on demand is described
            // by its record.
            let (mutated, deep) = match (&slot.item, claimed) {
                (None, Some((_, _, rec))) => (rec.mutated.clone(), rec.deep),
                _ => (slot.mutated.clone(), slot.deep),
            };
            let rec = Arc::new(ItemRecord {
                fp: item_fingerprint(item),
                free_refs: free_refs(item),
                mutated,
                deep,
                writes: st.env.diff(&env_before),
                reuse,
            });
            st.record(rec);
        }

        if !st.saw_trailing {
            // The module without trailing expressions has value `#t`, as
            // in the nested encoding.
            st.value = Some(Arc::new(TyResult::truthy(Ty::True, Obj::Null)));
        }
        let mut out = st.out;
        out.value = st.value.map(|result| ModuleValue {
            result,
            binders: st.binders.into(),
        });

        scopes.truncate(st.records.len());
        let cache = ItemCache {
            mutated,
            records: st.records,
            scopes,
            special: st.special,
            envs: st.envs,
            reported: st.reported,
        };
        Some((out, cache, trace.counts()))
    }

    /// The ledger for a slot whose environment is `new` and that claims
    /// the old record `at`, made under `old`: the names whose entries
    /// differ ([`Env::diff`]). `None` when a fact keyed by no name
    /// differs or a judgment could reach a differing entry without
    /// naming it.
    fn ledger(&self, new: &Env, old: &Env, at: usize) -> Option<Ledger> {
        let names = new.diff(old)?;
        let hidden = |env: &Env, x: Symbol| {
            !env.raw_ty_id(x).is_some_and(|t| self.is_empty_id(t)) && !env.facts_mention(x)
        };
        if !names.iter().all(|&x| hidden(new, x) && hidden(old, x)) {
            return None;
        }
        let mut mentioned: Vec<Symbol> = names
            .iter()
            .flat_map(|&x| [new.entry_vars(x), old.entry_vars(x)])
            .flatten()
            .collect();
        mentioned.sort_unstable();
        mentioned.dedup();
        Some(Ledger {
            at,
            layer: names.iter().map(|&x| (x, new.entries(x))).collect(),
            names,
            mentioned,
            merged: Vec::new(),
        })
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
    ) -> Option<Arc<TyResult>> {
        let fuel = self.config().logic_fuel;
        let RunState {
            env,
            out,
            binders,
            degraded,
            ..
        } = st;
        let env = Arc::make_mut(env);
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
                        ty: Some(Arc::new(sig.clone())),
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
                binders.push(Arc::new((*name, sig.clone(), Obj::Null)));
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
                        binders.push(Arc::new((*name, r1.ty.clone(), lift_obj)));
                        out.results.push(ItemSummary {
                            span: None,
                            name: Some(*name),
                            ty: Some(Arc::new(r1.ty)),
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
                binders.push(Arc::new((*name, assumed.clone(), Obj::Null)));
                self.poison(out, d, *name, &assumed, *sig_node);
                None
            }
            ModuleItem::Opaque { name, ty } => {
                self.bind(env, *name, ty, fuel);
                binders.push(Arc::new((*name, ty.clone(), Obj::Null)));
                out.results.push(ItemSummary {
                    span: None,
                    name: Some(*name),
                    ty: Some(Arc::new(ty.clone())),
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
                            Some(Arc::new(r))
                        } else {
                            let tmp = Symbol::fresh("ignored");
                            let (o1, mutable) = self.open_let_binding(env, tmp, &r);
                            let lift_obj = if mutable { Obj::Null } else { o1 };
                            binders.push(Arc::new((tmp, r.ty, lift_obj)));
                            None
                        };
                        out.results.push(ItemSummary {
                            span: None,
                            name: None,
                            ty: value.as_ref().map(|r| Arc::new(r.ty.clone())),
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
                out.diagnostics.push(Arc::new(d));
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

/// Could `rec`'s item read or write an entry of the non-empty ledger
/// `l`, `ty_of` giving each name's type in this run's environment? No iff its writes are keyed
/// by names outside the ledger, its free references are outside it too
/// and their current types mention no ledger name, and no ledger entry
/// on either side mentions a written name.
fn reads_ledger(ty_of: impl Fn(Symbol) -> Option<TyId>, rec: &ItemRecord, l: &Ledger) -> bool {
    let Some(writes) = &rec.writes else {
        return true;
    };
    writes
        .iter()
        .any(|w| l.names.contains(w) || l.mentioned.binary_search(w).is_ok())
        || rec.free_refs.iter().any(|r| {
            l.names.contains(r)
                || ty_of(*r).is_some_and(|t| l.names.iter().any(|n| t.mentions_var(*n)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{Expr, Lambda, Prim, Prop};

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
        // The failing item is cached with its one diagnostic.
        assert!(cache.records[0].reuse.is_some());
        let failing = cache.records[1]
            .reuse
            .as_ref()
            .expect("an ordinary failure");
        assert_eq!(failing.diagnostics.len(), 1);
        assert!(failing.summary.poisoned);
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

        // Edit the middle item to be ill-typed; items 0 and 2 splice.
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
        assert_eq!((s3.rechecked, s3.skipped), (1, 2), "{s3:?}");
        assert!(cache3.records[1].reuse.is_some());
        assert_eq!(
            cache3.slot_diagnostics().collect::<Vec<_>>(),
            [(0, true), (1, false), (0, true)]
        );
    }

    #[test]
    fn a_claimed_failing_record_splices_with_its_diagnostics() {
        let v1 = vec![good("cf_a"), bad("cf_b"), caller("cf_c", "cf_b")];
        let checker = Checker::default();
        let (r1, cache, _) = checker
            .check_module_incremental(&all_fresh(&v1), None, &mut no_fetch)
            .expect("cold run");
        let slots: Vec<IncrSlot> = (0..3).map(IncrSlot::Reused).collect();
        let (r2, cache2, s2) = checker
            .check_module_incremental(&slots, Some(&cache), &mut no_fetch)
            .expect("all-splice run");
        assert_eq!((s2.rechecked, s2.skipped), (0, 3), "{s2:?}");
        same_verdicts(&r2, &r1);
        assert_eq!(r2.diagnostics.len(), 1);
        assert_eq!(r2.diagnostics[0].message, r1.diagnostics[0].message);
        assert_eq!(
            cache2.slot_diagnostics().collect::<Vec<_>>(),
            [(0, true), (1, true), (0, true)]
        );
    }

    #[test]
    fn a_failing_record_matched_only_by_fingerprint_rechecks() {
        // A fresh slot aligned with a failing record by fingerprint alone
        // may have moved inside its text: its diagnostics are re-derived.
        let v1 = vec![good("ff_a"), bad("ff_b"), good("ff_c")];
        let checker = Checker::default();
        let (_, cache, _) = checker
            .check_module_incremental(&all_fresh(&v1), None, &mut no_fetch)
            .expect("cold run");
        let slots = vec![
            IncrSlot::Reused(0),
            IncrSlot::Fresh(v1[1].clone()),
            IncrSlot::Reused(2),
        ];
        let (r2, cache2, s2) = checker
            .check_module_incremental(&slots, Some(&cache), &mut no_fetch)
            .expect("incremental run");
        same_verdicts(&r2, &checker.check_module(&v1));
        assert_eq!((s2.rechecked, s2.skipped), (1, 2), "{s2:?}");
        assert_eq!(
            cache2.slot_diagnostics().collect::<Vec<_>>(),
            [(0, true), (1, false), (0, true)]
        );
    }

    #[test]
    fn a_splice_shares_the_recorded_summary_types_and_binders() {
        let v1 = vec![good("pe_a"), good("pe_b"), good("pe_c")];
        let checker = Checker::default();
        let (_, cache, _) = checker
            .check_module_incremental(&all_fresh(&v1), None, &mut no_fetch)
            .expect("cold run");
        let slots: Vec<IncrSlot> = (0..3).map(IncrSlot::Reused).collect();
        let (r2, _, s2) = checker
            .check_module_incremental(&slots, Some(&cache), &mut no_fetch)
            .expect("all-splice run");
        assert_eq!(s2.skipped, 3, "{s2:?}");
        let value = r2
            .value
            .expect("a module without trailing expressions has #t");
        assert_eq!(value.binders.len(), 3);
        for (k, rec) in cache.records.iter().enumerate() {
            let ru = rec.reuse.as_ref().expect("clean items are cached");
            let (got, recorded) = (r2.results[k].ty.as_ref(), ru.summary.ty.as_ref());
            assert!(
                Arc::ptr_eq(got.expect("spliced type"), recorded.expect("recorded type")),
                "result {k}'s type was copied, not shared"
            );
            let binder = ru.binder.as_ref().expect("a define opens a binder");
            assert!(
                Arc::ptr_eq(&value.binders[k], binder),
                "binder {k} was copied, not shared"
            );
        }
    }

    /// `name : [x : dom] -> Int`, defined as `(add1 x)`.
    fn helper(name: &str, refined: bool) -> ModuleItem {
        use crate::syntax::LinCmp;
        let (x, v) = (Symbol::intern("x"), Symbol::intern("v"));
        let dom = if refined {
            Ty::refine(v, Ty::Int, Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(v)))
        } else {
            Ty::Int
        };
        ModuleItem::DefineRec {
            name: Symbol::intern(name),
            sig: Ty::fun(vec![(x, dom)], TyResult::of_type(Ty::Int)),
            lam: Arc::new(Lambda {
                params: vec![(x, Ty::Top)],
                body: Expr::prim_app(Prim::Add1, vec![Expr::Var(x)]),
            }),
            node: None,
            sig_node: None,
        }
    }

    /// `name : [x : Int] -> Int`, defined as `(callee 3)`.
    fn caller(name: &str, callee: &str) -> ModuleItem {
        define(
            name,
            Expr::app(Expr::Var(Symbol::intern(callee)), vec![Expr::Int(3)]),
        )
    }

    fn same_verdicts(a: &ModuleCheck, b: &ModuleCheck) {
        assert_eq!(a.error_count(), b.error_count());
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!((x.name, &x.ty, x.poisoned), (y.name, &y.ty, y.poisoned));
        }
    }

    #[test]
    fn a_signature_edit_rechecks_exactly_the_helper_and_its_callers() {
        let v1 = vec![
            helper("sg_h", false),
            caller("sg_c1", "sg_h"),
            good("sg_a"),
            caller("sg_c2", "sg_h"),
            good("sg_b"),
        ];
        let checker = Checker::default();
        let (_, cache, _) = checker
            .check_module_incremental(&all_fresh(&v1), None, &mut no_fetch)
            .expect("cold run");

        // Flip the helper's domain to a refinement its callers satisfy.
        let mut v2 = v1.clone();
        v2[0] = helper("sg_h", true);
        let mut slots: Vec<IncrSlot> = (0..5).map(IncrSlot::Reused).collect();
        slots[0] = IncrSlot::Fresh(v2[0].clone());
        let mut fetch = |i: usize| Some(v2[i].clone());
        let (r2, _, s2) = checker
            .check_module_incremental(&slots, Some(&cache), &mut fetch)
            .expect("incremental run");
        same_verdicts(&r2, &checker.check_module(&v2));
        assert!(r2.is_clean(), "{:?}", r2.diagnostics);
        assert_eq!(s2.rechecked, 3, "the helper and its two callers: {s2:?}");
        assert_eq!(s2.skipped, 2, "{s2:?}");
        assert_eq!(
            s2.dep_spliced, 2,
            "spliced past the changed binding: {s2:?}"
        );
    }

    #[test]
    fn successive_signature_edits_merge_overlays_and_stay_equivalent() {
        // Helpers h0..h5 up front, each with one caller, then filler. Each
        // step flips one more helper's domain: its caller re-checks, and
        // everything else splices past a ledger naming the helper, over
        // snapshots the earlier steps left as overlays.
        let n = 6;
        let module = |refined: usize| -> Vec<ModuleItem> {
            let helpers = (0..n).map(|k| helper(&format!("so_h{k}"), k < refined));
            let callers = (0..n).map(|k| caller(&format!("so_c{k}"), &format!("so_h{k}")));
            let filler = (0..8).map(|k| good(&format!("so_f{k}")));
            helpers.chain(callers).chain(filler).collect()
        };
        let checker = Checker::default();
        let v0 = module(0);
        let (_, mut cache, _) = checker
            .check_module_incremental(&all_fresh(&v0), None, &mut no_fetch)
            .expect("cold run");
        let mut widest = 0;
        for step in 1..=n {
            let v = module(step);
            let mut slots: Vec<IncrSlot> = (0..v.len()).map(IncrSlot::Reused).collect();
            slots[step - 1] = IncrSlot::Fresh(v[step - 1].clone());
            let mut fetch = |i: usize| Some(v[i].clone());
            let (r, next, s) = checker
                .check_module_incremental(&slots, Some(&cache), &mut fetch)
                .expect("incremental run");
            same_verdicts(&r, &checker.check_module(&v));
            assert!(r.is_clean(), "{:?}", r.diagnostics);
            assert_eq!(s.rechecked, 2, "the helper and its caller: {s:?}");
            assert_eq!(s.skipped as usize, v.len() - 2, "{s:?}");
            // The lazy type lookup agrees with the built environment on
            // every name, the layer's own included. (The driver asks only
            // for names outside the layer: the record spliced after an
            // unbuilt overlay was spliced under the ledger that layered
            // it, so it reads none of the layer's names.)
            let names: Vec<Symbol> = v.iter().filter_map(ModuleItem::name).collect();
            for snap in &next.envs {
                if let Snap::Overlay(o) = snap {
                    widest = widest.max(o.layer.len());
                    let mut built = Env::clone(&o.base);
                    built.set_entries(&o.layer);
                    for x in names.iter().chain(o.layer.iter().map(|(x, _)| x)) {
                        assert_eq!(snap.ty_id(*x), built.raw_ty_id(*x), "{x}");
                    }
                }
            }
            cache = next;
        }
        assert!(widest >= 2, "later edits merge their layers: {widest}");
        // Every snapshot, built, equals the one a cold run leaves.
        let (_, cold, _) = checker
            .check_module_incremental(&all_fresh(&module(n)), None, &mut no_fetch)
            .expect("cold run");
        for (warm, cold) in cache.envs.iter().zip(&cold.envs) {
            assert_eq!(warm.env().diff(cold.env()), Some(Vec::new()));
        }
    }

    #[test]
    fn inserting_an_unreferenced_helper_rechecks_it_alone_and_deleting_it_nothing() {
        let v1 = vec![good("ins_a"), caller("ins_b", "ins_a"), good("ins_c")];
        let checker = Checker::default();
        let (_, cache, _) = checker
            .check_module_incremental(&all_fresh(&v1), None, &mut no_fetch)
            .expect("cold run");

        let v2 = vec![v1[0].clone(), good("ins_z"), v1[1].clone(), v1[2].clone()];
        let slots = vec![
            IncrSlot::Reused(0),
            IncrSlot::Fresh(v2[1].clone()),
            IncrSlot::Reused(1),
            IncrSlot::Reused(2),
        ];
        let mut fetch = |i: usize| Some(v2[i].clone());
        let (r2, cache2, s2) = checker
            .check_module_incremental(&slots, Some(&cache), &mut fetch)
            .expect("insert run");
        same_verdicts(&r2, &checker.check_module(&v2));
        assert_eq!((s2.rechecked, s2.skipped), (1, 3), "{s2:?}");

        // Delete it again: the claims jump over its record.
        let slots: Vec<IncrSlot> = [0, 2, 3].into_iter().map(IncrSlot::Reused).collect();
        let mut fetch = |i: usize| Some(v1[i].clone());
        let (r3, _, s3) = checker
            .check_module_incremental(&slots, Some(&cache2), &mut fetch)
            .expect("delete run");
        same_verdicts(&r3, &checker.check_module(&v1));
        assert_eq!((s3.rechecked, s3.skipped), (0, 3), "{s3:?}");
        assert_eq!(s3.dep_spliced, 2, "{s3:?}");
    }

    #[test]
    fn deleting_a_define_named_by_an_ascription_rechecks_the_ascribing_item() {
        // `an_d` reads `an_w` only through the refinement in its body's
        // ascription `(ann x (Refine [n : Int] (! an_w False)))`.
        let (x, n, w) = (
            Symbol::intern("x"),
            Symbol::intern("n"),
            Symbol::intern("an_w"),
        );
        let refined = Ty::refine(n, Ty::Int, Prop::is_not(Obj::var(w), Ty::False));
        let d = define("an_d", Expr::ann(Expr::Var(x), refined));
        let v1 = vec![good("an_w"), d, good("an_m")];
        let checker = Checker::default();
        let (_, cache, _) = checker
            .check_module_incremental(&all_fresh(&v1), None, &mut no_fetch)
            .expect("cold run");

        let v2 = vec![v1[1].clone(), v1[2].clone()];
        let slots: Vec<IncrSlot> = [1, 2].into_iter().map(IncrSlot::Reused).collect();
        let mut fetch = |i: usize| Some(v2[i].clone());
        let (r2, _, s2) = checker
            .check_module_incremental(&slots, Some(&cache), &mut fetch)
            .expect("delete run");
        same_verdicts(&r2, &checker.check_module(&v2));
        assert_eq!(
            r2.error_count(),
            1,
            "an_w ∉ False is unprovable once an_w is gone"
        );
        assert_eq!((s2.rechecked, s2.skipped), (1, 1), "{s2:?}");
        assert_eq!(s2.dep_spliced, 1, "{s2:?}");
    }

    #[test]
    fn a_pre_cancelled_run_checks_one_item_and_stops() {
        let items: Vec<ModuleItem> = (0..6).map(|k| good(&format!("pc_{k}"))).collect();
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let checker = Checker::default().with_cancel_token(token);
        let (r, _, s) = checker
            .check_module_incremental(&all_fresh(&items), None, &mut no_fetch)
            .expect("nothing to fetch");
        assert_eq!(s.rechecked, 1, "{s:?}");
        assert_eq!(r.results.len(), 1);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(
            r.diagnostics[0].code,
            crate::diag::Code::ResourceExhausted,
            "{:?}",
            r.diagnostics
        );
    }

    /// `(define name (let ([t (not #t)]) k))`: its result quantifies
    /// ghosts its type does not mention, and they stay bound in the
    /// module environment, with no fact keyed by no name.
    fn ghostly(name: &str, k: i64) -> ModuleItem {
        let t = Symbol::intern("gh_t");
        let not = Expr::prim_app(Prim::Not, vec![Expr::Bool(true)]);
        ModuleItem::Define {
            name: Symbol::intern(name),
            sig: None,
            rhs: Expr::let_(t, not, Expr::Int(k)),
            node: None,
            sig_node: None,
        }
    }

    #[test]
    fn a_record_splices_only_under_its_own_fresh_name_scope() {
        let checker = Checker::default();
        let (b, c) = (ghostly("gh", 2), ghostly("gh", 3));
        let v1 = [ghostly("gh", 1), b.clone(), c.clone()];
        let (_, c1, _) = checker
            .check_module_incremental(&all_fresh(&v1), None, &mut no_fetch)
            .expect("cold run");
        // Deleting the first definition moves the others to the scopes
        // of the first and the second: both re-check, neither splices
        // names of its old scope.
        let v2 = [b.clone(), c.clone()];
        let mut fetch = |i: usize| Some(v2[i].clone());
        let slots: Vec<IncrSlot> = (1..3).map(IncrSlot::Reused).collect();
        let (r2, c2, s2) = checker
            .check_module_incremental(&slots, Some(&c1), &mut fetch)
            .expect("warm run");
        assert!(r2.is_clean());
        assert_eq!((s2.rechecked, s2.skipped), (2, 0));
        // A third definition takes the scope the last one had before;
        // it must mint no name bound by the items before it (debug
        // builds assert this, and a clash would surface as an E0203).
        let d = ghostly("gh", 4);
        let v3 = [b, c, d.clone()];
        let mut fetch = |i: usize| Some(v3[i].clone());
        let slots = [IncrSlot::Reused(0), IncrSlot::Reused(1), IncrSlot::Fresh(d)];
        let (r3, _, s3) = checker
            .check_module_incremental(&slots, Some(&c2), &mut fetch)
            .expect("warm run");
        assert!(r3.is_clean(), "{:?}", r3.diagnostics);
        assert_eq!((s3.rechecked, s3.skipped), (1, 2));
    }
}
