//! Interned identifiers.
//!
//! Symbols are cheap to copy, hash and compare. A [`Symbol`] is a `u64`:
//! an **interned** symbol indexes the global name table, which
//! [`Symbol::intern`] caps at 2^24 names; a **fresh** one (bit 63 set)
//! packs its base's index (bits 39–62), a scope slot (bits 15–38) and a
//! counter (bits 0–14), and takes no slot in the name table.
//!
//! The checker mints many fresh names (§4.1's existentials), counted
//! within a scope that depends only on where they are minted
//! ([`Symbol::scoped`]): an item, an elaborated form, a memoized
//! judgment. So the same content mints the same names in every check,
//! thread and process. A slot stands for a scope key and a block of 2^15
//! counter values in a process-wide table, one entry per key that ever
//! minted (per block). Names minted outside every scope come from one
//! process-wide counter.
//!
//! A fresh symbol displays as `base%n`, `n` counting within its scope;
//! rendered output goes through [`Symbol::renumbered`], which numbers
//! fresh names by first occurrence instead. A fresh name never equals an
//! interned one, even a user name spelled alike (`%` is legal in
//! source), and has no interned spelling: [`Symbol::as_str`] panics on it.
//!
//! Each thread mirrors the names it has used: the name → symbol pairs
//! it interned and a prefix of the index → name table. Sharded checks
//! intern and print names constantly, and the mirror serves those calls
//! without the global lock. It may hold interned names only, which are
//! never removed or renumbered, so a mirrored entry never goes stale.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::cache::LockRecover;

/// An interned identifier.
///
/// # Examples
///
/// ```
/// use rtr_core::syntax::Symbol;
///
/// let x = Symbol::intern("x");
/// assert_eq!(x, Symbol::intern("x"));
/// assert_eq!(x.as_str(), "x");
/// assert_ne!(x, Symbol::intern("y"));
/// let g = Symbol::fresh_from(x);
/// assert!(g.is_fresh() && g.to_string().starts_with("x%"));
/// // The same scope mints the same names.
/// let key = Symbol::scope_key("doc");
/// let a = Symbol::scoped(key, || Symbol::fresh_from(x));
/// assert_eq!(a, Symbol::scoped(key, || Symbol::fresh_from(x)));
/// assert_eq!(Symbol::renumbered(|| a.to_string()), "x%1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u64);

const FRESH_BIT: u64 = 1 << 63;
const BASE_SHIFT: u32 = 39;
const COUNTER_BITS: u32 = 15;
const COUNTER_MASK: u64 = (1 << COUNTER_BITS) - 1;
const SLOT_MASK: u64 = (1 << (BASE_SHIFT - COUNTER_BITS)) - 1;
const MAX_INTERNED: usize = 1 << 24;

#[derive(Default)]
struct Interner {
    names: Vec<&'static str>,
    lookup: HashMap<&'static str, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(Default::default)
}

/// One thread's mirror of the global table (see the module doc).
#[derive(Default)]
struct Local {
    /// A prefix of the global `names`, extended on a miss.
    names: Vec<&'static str>,
    /// The names this thread has interned (default hasher: names come
    /// from source text).
    lookup: HashMap<&'static str, u32>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::default();
}

/// The process-wide scope-slot table: `(scope key, counter block)` ↔
/// slot.
#[derive(Default)]
struct Slots {
    of: HashMap<(u64, u64), u32>,
    keys: Vec<(u64, u64)>,
}

fn slots() -> &'static Mutex<Slots> {
    static SLOTS: OnceLock<Mutex<Slots>> = OnceLock::new();
    SLOTS.get_or_init(Default::default)
}

/// The slot of counter block `block` of scope `key`.
fn slot_of(key: u64, block: u64) -> u64 {
    let mut t = slots().lock_recover();
    if let Some(&s) = t.of.get(&(key, block)) {
        return s.into();
    }
    let s = t.keys.len();
    assert!(
        (s as u64) <= SLOT_MASK,
        "fresh-name scope table full: 2^24 slots"
    );
    t.keys.push((key, block));
    t.of.insert((key, block), s as u32);
    s as u64
}

/// The key of names minted outside every scope.
const ROOT_KEY: u64 = 0;

/// An open scope on this thread.
struct Scope {
    key: u64,
    next: u64,
    /// The slot of the current counter block, once resolved.
    slot: Option<(u64, u64)>,
    /// Debug builds: names the scope must never mint (see
    /// [`Symbol::scoped_avoiding`]).
    taken: Option<Rc<HashSet<Symbol>>>,
}

#[derive(Default)]
struct Fresh {
    scopes: Vec<Scope>,
    /// The root scope's current block and slot on this thread.
    root: Option<(u64, u64)>,
    /// Under [`Symbol::renumbered`]: the fresh names displayed so far.
    shown: Option<Shown>,
}

thread_local! {
    static FRESH: RefCell<Fresh> = RefCell::default();
}

/// The numbers [`Symbol::renumbered`] gave: per fresh name, and the
/// last one per base.
#[derive(Default)]
struct Shown {
    names: HashMap<Symbol, u64>,
    last: HashMap<Symbol, u64>,
}

/// Pops the scope [`Symbol::scoped`] pushed, on unwind too.
struct PopScope;

impl Drop for PopScope {
    fn drop(&mut self) {
        FRESH.with_borrow_mut(|f| f.scopes.pop());
    }
}

/// Restores the renumbering context [`Symbol::renumbered`] replaced.
struct RestoreShown(Option<Shown>);

impl Drop for RestoreShown {
    fn drop(&mut self) {
        let prev = self.0.take();
        FRESH.with_borrow_mut(|f| f.shown = prev);
    }
}

impl Symbol {
    /// Interns `name`, returning its unique symbol.
    pub fn intern(name: &str) -> Symbol {
        if let Some(id) = LOCAL.with_borrow(|l| l.lookup.get(name).copied()) {
            return Symbol(id.into());
        }
        let (leaked, id) = {
            let mut i = interner().lock_recover();
            match i.lookup.get_key_value(name) {
                Some((&leaked, &id)) => (leaked, id),
                None => {
                    let id = i.names.len();
                    assert!(id < MAX_INTERNED, "symbol table full: 2^24 names");
                    // Interned strings live for the program's duration by design.
                    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
                    i.names.push(leaked);
                    i.lookup.insert(leaked, id as u32);
                    (leaked, id as u32)
                }
            }
        };
        LOCAL.with_borrow_mut(|l| l.lookup.insert(leaked, id));
        Symbol(id.into())
    }

    /// The interned string. Panics on a fresh symbol, which has none.
    pub fn as_str(self) -> &'static str {
        assert!(!self.is_fresh(), "fresh symbol {self} is not interned");
        let idx = self.0 as usize;
        LOCAL.with_borrow_mut(|l| {
            if idx >= l.names.len() {
                let known = l.names.len();
                l.names
                    .extend_from_slice(&interner().lock_recover().names[known..]);
            }
            l.names[idx]
        })
    }

    /// The raw id, unique for the process lifetime: the table index or the
    /// packed fresh bits. `crate::pmap` hashes it.
    pub fn index(self) -> u64 {
        self.0
    }

    /// How many names the global table holds (fresh symbols are not there).
    pub fn interned_count() -> usize {
        interner().lock_recover().names.len()
    }

    /// A fresh symbol displayed as `base%n`.
    pub fn fresh(base: &str) -> Symbol {
        Symbol::fresh_from(Symbol::intern(base))
    }

    /// The next fresh symbol of the innermost open scope, derived from
    /// `x`: distinct from every other name that scope mints, and from
    /// every name of other scopes. Freshening a fresh name reuses its
    /// root base: `root%n`, not `root%m%n`.
    pub fn fresh_from(x: Symbol) -> Symbol {
        static ROOT_NEXT: AtomicU64 = AtomicU64::new(0);
        let (sym, clash) = FRESH.with_borrow_mut(|f| {
            let Fresh { scopes, root, .. } = f;
            let (key, n, cached, taken) = match scopes.last_mut() {
                Some(s) => {
                    s.next += 1;
                    (s.key, s.next - 1, &mut s.slot, s.taken.as_deref())
                }
                None => (
                    ROOT_KEY,
                    ROOT_NEXT.fetch_add(1, Ordering::Relaxed),
                    root,
                    None,
                ),
            };
            let block = n >> COUNTER_BITS;
            let slot = match *cached {
                Some((b, s)) if b == block => s,
                _ => cached.insert((block, slot_of(key, block))).1,
            };
            let sym = Symbol(
                FRESH_BIT
                    | (x.base().0 << BASE_SHIFT)
                    | (slot << COUNTER_BITS)
                    | (n & COUNTER_MASK),
            );
            (
                sym,
                cfg!(debug_assertions) && taken.is_some_and(|t| t.contains(&sym)),
            )
        });
        debug_assert!(
            !clash,
            "minted {sym}, which the scope's environment already binds"
        );
        sym
    }

    /// A scope key for [`Symbol::scoped`]: a stable hash of `what`.
    pub fn scope_key(what: impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        what.hash(&mut h);
        h.finish()
    }

    /// Runs `f` with fresh names counted from 0 in the scope `key`
    /// (nested scopes shadow it). Every run of the same computation in
    /// the same scope mints the same names, so `key` must identify where
    /// the names can meet: two scopes whose names may share an
    /// environment need distinct keys.
    pub fn scoped<R>(key: u64, f: impl FnOnce() -> R) -> R {
        Symbol::scoped_avoiding(key, HashSet::new(), f)
    }

    /// [`Symbol::scoped`], asserting in debug builds that no name the
    /// scope (or a scope nested in it) mints is in `taken` — the fresh
    /// names already bound where its names will be bound.
    pub fn scoped_avoiding<R>(key: u64, taken: HashSet<Symbol>, f: impl FnOnce() -> R) -> R {
        FRESH.with_borrow_mut(|fr| {
            let taken = (!taken.is_empty()).then(|| Rc::new(taken));
            let taken = taken.or_else(|| fr.scopes.last().and_then(|s| s.taken.clone()));
            fr.scopes.push(Scope {
                key,
                next: 0,
                slot: None,
                taken,
            });
        });
        let _pop = PopScope;
        f()
    }

    /// Runs `f` with fresh names displayed by first occurrence: the
    /// first fresh name of each base shown under `f` prints as `base%1`,
    /// the next distinct one as `base%2`, and so on. Rendered output
    /// (diagnostics, hover, printed types) goes through this, so it
    /// depends only on the names' structure, never on their scopes.
    pub fn renumbered<R>(f: impl FnOnce() -> R) -> R {
        let prev = FRESH.with_borrow_mut(|fr| fr.shown.replace(Shown::default()));
        let _restore = RestoreShown(prev);
        f()
    }

    /// The interned symbol a fresh one derives from; an interned one's is itself.
    pub fn base(self) -> Symbol {
        if self.is_fresh() {
            Symbol((self.0 & !FRESH_BIT) >> BASE_SHIFT)
        } else {
            self
        }
    }

    /// Was this symbol minted fresh?
    pub fn is_fresh(self) -> bool {
        self.0 & FRESH_BIT != 0
    }

    /// A fresh symbol's number within its scope.
    fn counter(self) -> u64 {
        self.scope_and_counter().map_or(0, |(_, n)| n)
    }

    /// A fresh symbol's scope key and number within that scope; `None`
    /// for an interned one. With [`Symbol::base`], these identify a fresh
    /// name by where it was minted, not by the order in which scopes
    /// first took a slot, so they can key what must not depend on what
    /// else the process checked.
    pub(crate) fn scope_and_counter(self) -> Option<(u64, u64)> {
        if !self.is_fresh() {
            return None;
        }
        let slot = ((self.0 >> COUNTER_BITS) & SLOT_MASK) as usize;
        let (key, block) = slots().lock_recover().keys[slot];
        Some((key, (block << COUNTER_BITS) | (self.0 & COUNTER_MASK)))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_fresh() {
            return f.write_str(self.as_str());
        }
        let base = self.base();
        let shown = FRESH.with_borrow_mut(|fr| {
            let Shown { names, last } = fr.shown.as_mut()?;
            Some(*names.entry(*self).or_insert_with(|| {
                let n = last.entry(base).or_default();
                *n += 1;
                *n
            }))
        });
        let n = shown.unwrap_or_else(|| self.counter());
        write!(f, "{}%{n}", base.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("a"), Symbol::intern("b"));
    }

    #[test]
    fn fresh_packing_round_trips() {
        let base = Symbol::intern("pack");
        let g = Symbol::fresh_from(base);
        assert!(g.is_fresh() && !base.is_fresh());
        assert_eq!(g.base(), base);
        assert_eq!(base.base(), base);
        let n = g.counter();
        assert_eq!(g.to_string(), format!("pack%{n}"));
        assert_eq!(format!("{g:?}"), format!("pack%{n}"));
        // Freshening a fresh name reuses the root base.
        let h = Symbol::fresh_from(g);
        assert_ne!(h, g);
        assert_eq!(h.base(), base);
        assert!(h.to_string().starts_with("pack%"));
    }

    #[test]
    fn a_scope_mints_the_same_names_every_time() {
        let x = Symbol::intern("sx");
        let key = Symbol::scope_key(("test", 1));
        let mint = || (0..3).map(|_| Symbol::fresh_from(x)).collect::<Vec<_>>();
        let first = Symbol::scoped(key, mint);
        // On another thread, after unrelated mints, and with a nested
        // scope in between: the same names.
        Symbol::fresh("noise");
        let again = std::thread::spawn(move || {
            Symbol::scoped(key, || {
                let a = Symbol::fresh_from(x);
                Symbol::scoped(Symbol::scope_key("inner"), || Symbol::fresh_from(x));
                let rest = (0..2).map(|_| Symbol::fresh_from(x));
                std::iter::once(a).chain(rest).collect::<Vec<_>>()
            })
        })
        .join()
        .unwrap();
        assert_eq!(first, again);
        assert_eq!(first[2].to_string(), "sx%2");
        // Another scope's names differ, though they print alike.
        let other = Symbol::scoped(Symbol::scope_key(("test", 2)), || Symbol::fresh_from(x));
        assert_ne!(other, first[0]);
        assert_eq!(other.to_string(), first[0].to_string());
    }

    #[test]
    fn a_scope_past_one_counter_block_stays_distinct() {
        let x = Symbol::intern("blk");
        let names: HashSet<Symbol> = Symbol::scoped(Symbol::scope_key("blocks"), || {
            (0..(1u64 << COUNTER_BITS) + 3)
                .map(|_| Symbol::fresh_from(x))
                .collect()
        });
        assert_eq!(names.len(), (1 << COUNTER_BITS) + 3);
        let last = names.iter().map(|s| s.counter()).max().unwrap();
        assert_eq!(last, (1 << COUNTER_BITS) + 2);
    }

    #[test]
    fn renumbering_counts_first_occurrences_per_base() {
        let (a, b) = (Symbol::fresh("rn_a"), Symbol::fresh("rn_b"));
        let a2 = Symbol::fresh("rn_a");
        let shown = Symbol::renumbered(|| format!("{a2} {b} {a} {a2}"));
        assert_eq!(shown, "rn_a%1 rn_b%1 rn_a%2 rn_a%1");
        // Outside the context the scope numbering is back.
        assert_eq!(a.to_string(), format!("rn_a%{}", a.counter()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already binds")]
    fn minting_a_taken_name_is_caught() {
        let x = Symbol::intern("tk");
        let key = Symbol::scope_key("taken");
        let g = Symbol::scoped(key, || Symbol::fresh_from(x));
        Symbol::scoped_avoiding(key, HashSet::from([g]), || Symbol::fresh_from(x));
    }

    #[test]
    fn fresh_names_never_equal_user_names() {
        use crate::fingerprint::item_fingerprint;
        use crate::module::ModuleItem;
        use crate::syntax::Expr;
        // '%' is legal in source identifiers, so a user name can be
        // spelled exactly like a fresh one.
        let g = Symbol::fresh("cl");
        let user = Symbol::intern(&g.to_string());
        assert_ne!(g, user, "a fresh symbol equals an interned one");
        assert!(!user.is_fresh(), "user `{user}` reads as fresh");
        assert_eq!(user.as_str(), g.to_string());
        let item = |x| ModuleItem::Expr {
            expr: Expr::Var(x),
            node: None,
        };
        assert_ne!(item_fingerprint(&item(g)), item_fingerprint(&item(user)));
    }

    #[test]
    #[should_panic(expected = "is not interned")]
    fn as_str_of_a_fresh_symbol_panics() {
        Symbol::fresh("nostr").as_str();
    }

    #[test]
    fn fresh_is_fresh() {
        let x = Symbol::intern("tmp");
        let f1 = Symbol::fresh("tmp");
        let f2 = Symbol::fresh("tmp");
        assert_ne!(f1, x);
        assert_ne!(f1, f2);
        assert!(f1.to_string().starts_with("tmp%"));
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::intern("disp");
        assert_eq!(format!("{s}"), "disp");
        assert_eq!(format!("{s:?}"), "disp");
    }
}
