//! Memo tables for the checker's mutually recursive judgments.
//!
//! Keys combine the environment's generation stamp (see
//! [`crate::env::Env::generation`]) with interned ids from
//! [`crate::intern`], so a lookup is a couple of integer hashes. Entries
//! are **fuel-aware**: the judgments take a recursion budget, and a
//! negative verdict obtained with little fuel must not answer a query
//! asked with more (the extra fuel might have found a derivation). A
//! `true` verdict is monotone — more fuel only explores a superset — so it
//! is valid at any budget. Concretely:
//!
//! * `True` entries answer every query;
//! * `FalseAt(f)` entries answer queries with `fuel <= f` and are
//!   recomputed (and widened) otherwise.
//!
//! The tables live behind `Mutex`es so the checker stays `Sync` (it runs
//! on a dedicated big-stack thread); checking itself is single-threaded,
//! so the locks are uncontended. Each table is capped — on overflow it is
//! simply cleared, which is always sound for a memo table.
//!
//! The tables are shared by every check on a checker, so they count
//! nothing themselves: each lookup records its hit or miss in the
//! calling check's [`crate::trace::Trace`].

use std::hash::Hash;

use rtr_solver::fxhash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::intern::{PropId, TyId};
use crate::trace::LookupCounter;

/// Poison-recovering lock: a memo table only ever holds *valid-if-present*
/// entries (every store is sound to replay or to lose), so a panic while a
/// lock was held cannot leave a table in a state worse than "some entries
/// missing". Recovering from the poison flag keeps warm caches alive after
/// an isolated item panic instead of cascading the abort to every later
/// check.
pub(crate) trait LockRecover<T> {
    /// Locks, clearing a poison flag left by a panicked holder.
    fn lock_recover(&self) -> MutexGuard<'_, T>;
}

impl<T> LockRecover<T> for Mutex<T> {
    fn lock_recover(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Entries above this count trigger a table flush (memory backstop).
const TABLE_CAP: usize = 1 << 20;

/// A cached verdict for a fuel-bounded boolean judgment.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// The judgment holds (valid at any fuel).
    True,
    /// The judgment failed when asked with this much fuel; valid for
    /// queries with at most that much.
    FalseAt(u32),
}

/// A fuel-aware memo table.
#[derive(Debug)]
pub(crate) struct Table<K> {
    map: Mutex<FxHashMap<K, Entry>>,
}

// Manual impl: `derive(Default)` would needlessly bound `K: Default`.
impl<K> Default for Table<K> {
    fn default() -> Self {
        Table {
            map: Mutex::new(FxHashMap::default()),
        }
    }
}

impl<K: Eq + Hash + Copy> Table<K> {
    pub(crate) fn lookup(&self, key: K, fuel: u32, count: &LookupCounter) -> Option<bool> {
        let verdict = match self.map.lock_recover().get(&key) {
            Some(Entry::True) => Some(true),
            Some(Entry::FalseAt(f)) if fuel <= *f => Some(false),
            _ => None,
        };
        count.record(verdict)
    }

    pub(crate) fn store(&self, key: K, fuel: u32, verdict: bool) {
        let mut map = self.map.lock_recover();
        if map.len() >= TABLE_CAP {
            map.clear();
        }
        match (verdict, map.get(&key)) {
            // True dominates (and never regresses to false).
            (true, _) => {
                map.insert(key, Entry::True);
            }
            (false, Some(Entry::True)) => {}
            (false, Some(Entry::FalseAt(f))) if *f >= fuel => {}
            (false, _) => {
                map.insert(key, Entry::FalseAt(fuel));
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.lock_recover().len()
    }

    pub(crate) fn clear(&self) {
        self.map.lock_recover().clear();
    }
}

/// A fuel-free memo table (for purely structural judgments).
#[derive(Debug)]
pub(crate) struct SimpleTable<K> {
    map: Mutex<FxHashMap<K, bool>>,
}

impl<K> Default for SimpleTable<K> {
    fn default() -> Self {
        SimpleTable {
            map: Mutex::new(FxHashMap::default()),
        }
    }
}

impl<K: Eq + Hash + Copy> SimpleTable<K> {
    pub(crate) fn lookup(&self, key: K, count: &LookupCounter) -> Option<bool> {
        count.record(self.map.lock_recover().get(&key).copied())
    }

    pub(crate) fn store(&self, key: K, verdict: bool) {
        let mut map = self.map.lock_recover();
        if map.len() >= TABLE_CAP {
            map.clear();
        }
        map.insert(key, verdict);
    }

    pub(crate) fn len(&self) -> usize {
        self.map.lock_recover().len()
    }

    pub(crate) fn clear(&self) {
        self.map.lock_recover().clear();
    }
}

/// A verdict memo for solver-level queries: non-`Copy` structural keys
/// (canonicalized constraint-system fingerprints), `Copy` verdict values.
/// Capped and flushed like the judgment tables — clearing a memo is
/// always sound.
#[derive(Debug)]
pub(crate) struct VerdictMap<K, V> {
    map: Mutex<FxHashMap<K, V>>,
}

impl<K, V> Default for VerdictMap<K, V> {
    fn default() -> Self {
        VerdictMap {
            map: Mutex::new(FxHashMap::default()),
        }
    }
}

impl<K: Eq + Hash, V: Clone> VerdictMap<K, V> {
    pub(crate) fn lookup(&self, key: &K, count: &LookupCounter) -> Option<V> {
        count.record(self.map.lock_recover().get(key).cloned())
    }

    pub(crate) fn store(&self, key: K, verdict: V) {
        let mut map = self.map.lock_recover();
        if map.len() >= SOLVER_TABLE_CAP {
            map.clear();
        }
        map.insert(key, verdict);
    }

    pub(crate) fn len(&self) -> usize {
        self.map.lock_recover().len()
    }

    pub(crate) fn clear(&self) {
        self.map.lock_recover().clear();
    }
}

/// Cap for the solver verdict/state maps. Smaller than [`TABLE_CAP`]:
/// these keys are token vectors (and the state map holds whole
/// constraint systems), not a couple of integers.
pub(crate) const SOLVER_TABLE_CAP: usize = 1 << 18;

/// Memo key for the id-native `update±` metafunction: the subject type,
/// a fingerprint of the field path, the learned type, the polarity, and
/// the fuel the query was asked with (update results are fuel-truncated,
/// so entries are only replayed at the exact budget that produced them).
/// Only environment-free pairs are memoized — their results consult
/// nothing but the two types, so one entry serves every environment;
/// environment-dependent pairs would be keyed by generation, which
/// advances at every binder and never hits.
pub(crate) type UpdateKey = (TyId, u64, TyId, bool, u32);

/// Packs a field path into a `u64` fingerprint (2 bits per field,
/// innermost first). Paths deeper than 31 fields are not memoized —
/// `None` keeps the key honest instead of colliding.
pub(crate) fn path_fingerprint(fields: &[crate::syntax::Field]) -> Option<u64> {
    if fields.len() > 31 {
        return None;
    }
    let mut fp: u64 = 1; // leading 1 delimits length
    for f in fields {
        fp = (fp << 2)
            | match f {
                crate::syntax::Field::Fst => 1,
                crate::syntax::Field::Snd => 2,
                crate::syntax::Field::Len => 3,
            };
    }
    Some(fp)
}

/// Relevance metadata for a stored disjunction: the union of both
/// literals' free variables (sorted) and their `THEORY_*` bits.
pub(crate) type ClauseMeta = (std::sync::Arc<[crate::syntax::Symbol]>, u8);

/// The full cache set shared by a [`crate::check::Checker`] (and its
/// clones — verdicts depend only on the immutable config, globally unique
/// environment generations and interned ids, so sharing is sound).
#[derive(Debug, Default)]
pub(crate) struct Caches {
    /// `Γ ⊢ τ₁ <: τ₂`, keyed `(generation, t1, t2)`. No in-progress set:
    /// types are finite trees, so re-entrant identical queries are
    /// fuel-bounded recursion, not cycles (see `Checker::subtype`).
    pub(crate) subtype: Table<(u64, TyId, TyId)>,
    /// Environment inconsistency, keyed by generation.
    pub(crate) inconsistent: Table<u64>,
    /// Structural type emptiness, keyed by interned type.
    pub(crate) empty: SimpleTable<TyId>,
    /// `update±(τ, ϕ⃗, σ)` results, keyed per [`UpdateKey`]. Values are
    /// interned ids, so a hit replays an alias-chain binder's whole
    /// narrowing without rebuilding (or even touching) a type tree.
    pub(crate) update: VerdictMap<UpdateKey, TyId>,
    /// May-overlap verdicts keyed `(τ₁, τ₂)` — `overlap` consults only
    /// the two types, so entries are environment- and fuel-free.
    pub(crate) overlap: SimpleTable<(TyId, TyId)>,
    /// Linear-theory satisfiability keyed on the canonical constraint
    /// system (facts, or facts ∧ ¬goal for entailment queries).
    pub(crate) lin: VerdictMap<crate::solver_cache::TheoryFp, rtr_solver::lin::LinResult>,
    /// Bitvector-theory satisfiability, same keying discipline.
    pub(crate) bv: VerdictMap<crate::solver_cache::TheoryFp, rtr_solver::bv::BvResult>,
    /// Regex-theory verdicts (`true` = the queried conjunction is
    /// unsatisfiable / the entailment holds; see `solver_cache`).
    pub(crate) re: VerdictMap<crate::solver_cache::TheoryFp, bool>,
    /// Incremental Fourier–Motzkin states keyed by the environment's
    /// linear-store epoch (see [`crate::env::Env::lin_epoch`]).
    pub(crate) lin_stores: Mutex<FxHashMap<u64, std::sync::Arc<crate::solver_cache::LinStore>>>,
    /// The checker's persistent bitvector session (shared bit-blast
    /// encodings and learnt clauses), created lazily.
    pub(crate) bv_oracle: Mutex<Option<crate::solver_cache::BvOracle>>,
    /// The checker's persistent regex session (shared compiled DFAs,
    /// product automata and emptiness verdicts), created lazily.
    pub(crate) re_oracle: Mutex<Option<crate::solver_cache::ReOracle>>,
    /// Relevance metadata per stored disjunction, keyed by the literal
    /// id pair — computed once per distinct clause, consulted by the
    /// lazy split scheduler on every `proves` that reaches ∨-elimination.
    pub(crate) clause_meta: VerdictMap<(PropId, PropId), ClauseMeta>,
    /// Instantiated polymorphic Δ-table types, keyed
    /// `(primitive, canonical argument type ids)` — local type inference
    /// is deterministic in its inputs, so the monomorphic function type
    /// can be replayed instead of re-derived at every application.
    pub(crate) instantiations:
        Mutex<FxHashMap<(crate::syntax::Prim, Vec<TyId>), crate::syntax::FunTy>>,
    /// The interner evict-epoch this cache set has reconciled against
    /// (see [`Caches::reconcile_evictions`]).
    evict_seen: AtomicU64,
}

impl Caches {
    /// Total entries across all tables (diagnostics / tests).
    pub(crate) fn entry_count(&self) -> usize {
        self.subtype.len()
            + self.inconsistent.len()
            + self.empty.len()
            + self.update.len()
            + self.overlap.len()
            + self.lin.len()
            + self.bv.len()
            + self.re.len()
            + self.clause_meta.len()
            + self.lin_stores.lock_recover().len()
    }

    /// Brings this cache set up to date with the interner's fresh-region
    /// evictions (see [`crate::intern`]): if another session evicted the
    /// fresh arena since our last check, drop the one table whose
    /// *values* are type ids — a stale fresh id stored there would panic
    /// on materialization. Keys are harmless: fresh indices are monotone
    /// across evictions (never reused), so a stale key can only miss,
    /// never alias a live entry.
    pub(crate) fn reconcile_evictions(&self) {
        let epoch = crate::intern::evict_epoch();
        if self.evict_seen.swap(epoch, Ordering::Relaxed) != epoch {
            self.update.clear();
        }
    }

    /// Flushes the judgment-level memo tables (chaos `CacheFlush`
    /// injection point; also usable as a memory release valve). Sound by
    /// construction — every entry is a pure function of its key.
    #[cfg_attr(not(feature = "chaos"), allow(dead_code))]
    pub(crate) fn flush_judgment_tables(&self) {
        self.subtype.clear();
        self.inconsistent.clear();
        self.empty.clear();
        self.update.clear();
        self.overlap.clear();
    }
}
