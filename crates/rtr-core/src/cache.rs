//! Memo tables for the checker's mutually recursive judgments.
//!
//! Every table is a [`Memo`] keyed by content alone: interned ids from
//! [`crate::intern`] (a lookup is a couple of integer hashes) or a
//! canonical constraint-system fingerprint. No key names an
//! environment: Γ changes at every binder, so an entry keyed by it
//! would rarely be read again.
//!
//! The `subtype` table is **fuel-aware** ([`FuelVerdict`]): the
//! judgment takes a recursion budget, and a negative verdict obtained
//! with little fuel must not answer a query asked with more (the extra
//! fuel might have found a derivation). A `true` verdict is monotone —
//! more fuel only explores a superset — so it is valid at any budget.
//! Concretely:
//!
//! * `True` entries answer every query;
//! * `FalseAt(f)` entries answer queries with `fuel <= f` and are
//!   recomputed (and widened) otherwise.
//!
//! The tables live behind `Mutex`es so the checker stays `Sync`: sharded
//! checks (`fig9 --jobs`, `rtr check --jobs`) run on several threads that
//! share one checker, and so these tables, by reference. The locks are
//! then contended, though rarely: of the roughly 26,000 lock
//! acquisitions of a two-job corpus pass (these tables and the
//! interner's, see [`crate::intern`]), only a couple of hundred wait,
//! for well under a millisecond in all. Each table is capped —
//! on overflow it is simply cleared, which is always sound for a memo
//! table.
//!
//! The tables are shared by every check on a checker, so they count
//! nothing themselves: each lookup records its hit or miss in the
//! calling check's [`crate::trace::Trace`].

use std::hash::Hash;

use rtr_solver::fxhash::FxHashMap;
use std::sync::{Mutex, MutexGuard};

use crate::intern::TyId;
use crate::solver_cache::TheoryFp;
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

/// Cap for the solver, `update±` and instantiation memos. Smaller than
/// [`TABLE_CAP`]: these keys are token vectors (and the linear stores
/// are whole constraint systems), not a couple of integers.
pub(crate) const SOLVER_TABLE_CAP: usize = 1 << 18;

/// A capped memo table: a mutex-guarded map from a content key to a
/// value, cleared whole when it reaches `CAP` entries.
#[derive(Debug)]
pub(crate) struct Memo<K, V, const CAP: usize = TABLE_CAP> {
    map: Mutex<FxHashMap<K, V>>,
}

// Manual impl: `derive(Default)` would needlessly bound `K, V: Default`.
impl<K, V, const CAP: usize> Default for Memo<K, V, CAP> {
    fn default() -> Self {
        Memo {
            map: Mutex::new(FxHashMap::default()),
        }
    }
}

impl<K: Eq + Hash, V: Clone, const CAP: usize> Memo<K, V, CAP> {
    /// The stored value, without counting the lookup.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.map.lock_recover().get(key).cloned()
    }

    /// The stored value; counts a hit or a miss in `count`.
    pub(crate) fn lookup(&self, key: &K, count: &LookupCounter) -> Option<V> {
        count.record(self.get(key))
    }

    pub(crate) fn store(&self, key: K, value: V) {
        self.locked_for_insert().insert(key, value);
    }

    /// The map, cleared first if it is full.
    fn locked_for_insert(&self) -> MutexGuard<'_, FxHashMap<K, V>> {
        let mut map = self.map.lock_recover();
        if map.len() >= CAP {
            map.clear();
        }
        map
    }

    pub(crate) fn len(&self) -> usize {
        self.map.lock_recover().len()
    }

    pub(crate) fn clear(&self) {
        self.map.lock_recover().clear();
    }
}

/// A cached verdict for a fuel-bounded boolean judgment.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FuelVerdict {
    /// The judgment holds (valid at any fuel).
    True,
    /// The judgment failed when asked with this much fuel; valid for
    /// queries with at most that much.
    FalseAt(u32),
}

impl<K: Eq + Hash, const CAP: usize> Memo<K, FuelVerdict, CAP> {
    /// The verdict for a query asked with `fuel`, if an entry answers
    /// it; a `FalseAt` entry for less fuel counts as a miss.
    pub(crate) fn lookup_at(&self, key: &K, fuel: u32, count: &LookupCounter) -> Option<bool> {
        let verdict = match self.get(key) {
            Some(FuelVerdict::True) => Some(true),
            Some(FuelVerdict::FalseAt(f)) if fuel <= f => Some(false),
            _ => None,
        };
        count.record(verdict)
    }

    /// Stores a verdict found with `fuel`: `True` dominates and never
    /// regresses, a `FalseAt` only widens.
    pub(crate) fn store_at(&self, key: K, fuel: u32, verdict: bool) {
        let mut map = self.locked_for_insert();
        let merged = match (verdict, map.get(&key)) {
            (true, _) | (false, Some(FuelVerdict::True)) => FuelVerdict::True,
            (false, Some(FuelVerdict::FalseAt(f))) => FuelVerdict::FalseAt(fuel.max(*f)),
            (false, None) => FuelVerdict::FalseAt(fuel),
        };
        map.insert(key, merged);
    }
}

/// Memo key for the id-native `update±` metafunction: the subject type,
/// a fingerprint of the field path, the learned type, the polarity, and
/// the fuel the query was asked with (update results are fuel-truncated,
/// so entries are only replayed at the exact budget that produced them).
/// Only environment-free pairs are memoized — their results consult
/// nothing but the two types, so one entry serves every environment.
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

/// The full cache set shared by a [`crate::check::Checker`] (and its
/// clones — verdicts depend only on the immutable config and their
/// content keys, so sharing is sound).
#[derive(Debug, Default)]
pub(crate) struct Caches {
    /// `Γ ⊢ τ₁ <: τ₂` for pairs of environment-free types, keyed
    /// `(τ₁, τ₂)`: such pairs are compared purely structurally, so one
    /// verdict serves every environment. No in-progress set: types are
    /// finite trees, so re-entrant identical queries are fuel-bounded
    /// recursion, not cycles (see `Checker::subtype`).
    pub(crate) subtype: Memo<(TyId, TyId), FuelVerdict>,
    /// Structural type emptiness, keyed by interned type.
    pub(crate) empty: Memo<TyId, bool>,
    /// `update±(τ, ϕ⃗, σ)` results, keyed per [`UpdateKey`]. Values are
    /// interned ids, so a hit replays an alias-chain binder's whole
    /// narrowing without rebuilding (or even touching) a type tree.
    pub(crate) update: Memo<UpdateKey, TyId, SOLVER_TABLE_CAP>,
    /// May-overlap verdicts keyed `(τ₁, τ₂)` — `overlap` consults only
    /// the two types, so entries are environment- and fuel-free.
    pub(crate) overlap: Memo<(TyId, TyId), bool>,
    /// Instantiated polymorphic Δ-table types, keyed
    /// `(primitive, canonical argument type ids)` — local type inference
    /// is deterministic in its inputs, so the monomorphic function type
    /// can be replayed instead of re-derived at every application.
    pub(crate) instantiations:
        Memo<(crate::syntax::Prim, Vec<TyId>), crate::syntax::FunTy, SOLVER_TABLE_CAP>,
    /// Linear-theory satisfiability keyed on the canonical constraint
    /// system (facts, or facts ∧ ¬goal for entailment queries).
    pub(crate) lin: Memo<TheoryFp, rtr_solver::lin::LinResult, SOLVER_TABLE_CAP>,
    /// Bitvector-theory satisfiability, same keying discipline.
    pub(crate) bv: Memo<TheoryFp, rtr_solver::bv::BvResult, SOLVER_TABLE_CAP>,
    /// Regex-theory verdicts (`true` = the queried conjunction is
    /// unsatisfiable / the entailment holds; see `solver_cache`).
    pub(crate) re: Memo<TheoryFp, bool, SOLVER_TABLE_CAP>,
    /// The checker's persistent bitvector session (shared bit-blast
    /// encodings and learnt clauses), created lazily.
    pub(crate) bv_oracle: Mutex<Option<crate::solver_cache::BvOracle>>,
    /// The checker's persistent regex session (shared compiled DFAs,
    /// product automata and emptiness verdicts), created lazily.
    pub(crate) re_oracle: Mutex<Option<crate::solver_cache::ReOracle>>,
}

impl Caches {
    /// Total entries across all tables (diagnostics / tests).
    pub(crate) fn entry_count(&self) -> usize {
        self.subtype.len()
            + self.empty.len()
            + self.update.len()
            + self.overlap.len()
            + self.instantiations.len()
            + self.lin.len()
            + self.bv.len()
            + self.re.len()
    }

    /// Flushes the judgment-level memo tables (chaos `CacheFlush`
    /// injection point; also usable as a memory release valve). Sound by
    /// construction — every entry is a pure function of its key.
    #[cfg_attr(not(feature = "chaos"), allow(dead_code))]
    pub(crate) fn flush_judgment_tables(&self) {
        self.subtype.clear();
        self.empty.clear();
        self.update.clear();
        self.overlap.clear();
        self.instantiations.clear();
    }
}
