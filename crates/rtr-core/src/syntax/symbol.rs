//! Interned identifiers.
//!
//! Symbols are cheap to copy, hash and compare. A [`Symbol`] is a `u64`:
//! an **interned** symbol indexes the global name table, which
//! [`Symbol::intern`] caps at 2^24 names; a **fresh** one (bit 63 set)
//! packs its base's index (bits 39–62) and a process-wide counter (bits
//! 0–38, capped at 2^39 mints), so minting it takes no lock and leaves
//! nothing in the table. The checker mints many (existential binders,
//! §4.1's propagated existentials) and a long-lived process must not keep
//! them. A fresh symbol displays as `base%n` but never equals an interned
//! one, even a user name spelled alike (`%` is legal in source), and has
//! no interned spelling: [`Symbol::as_str`] panics on it.
//!
//! Each thread mirrors the names it has used: the name → symbol pairs
//! it interned and a prefix of the index → name table. Sharded checks
//! intern and print names constantly, and the mirror serves those calls
//! without the global lock. It may hold interned names only, which are
//! never removed or renumbered, so a mirrored entry never goes stale.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
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
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u64);

const FRESH_BIT: u64 = 1 << 63;
const COUNTER_BITS: u32 = 39;
const COUNTER_MASK: u64 = (1 << COUNTER_BITS) - 1;
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

    /// A symbol distinct from every other, displayed as `base%n`.
    pub fn fresh(base: &str) -> Symbol {
        Symbol::fresh_from(Symbol::intern(base))
    }

    /// A fresh symbol derived from `x`. Freshening a fresh name reuses its
    /// root base: `root%n`, not `root%m%n`.
    pub fn fresh_from(x: Symbol) -> Symbol {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        assert!(n <= COUNTER_MASK, "Symbol::fresh counter overflowed");
        Symbol(FRESH_BIT | (x.base().0 << COUNTER_BITS) | n)
    }

    /// The interned symbol a fresh one derives from; an interned one's is itself.
    pub fn base(self) -> Symbol {
        if self.is_fresh() {
            Symbol((self.0 & !FRESH_BIT) >> COUNTER_BITS)
        } else {
            self
        }
    }

    /// Was this symbol minted fresh? Such names never recur across checked
    /// modules, so `crate::intern` routes trees that mention one to its
    /// evictable region.
    pub fn is_fresh(self) -> bool {
        self.0 & FRESH_BIT != 0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fresh() {
            write!(f, "{}%{}", self.base().as_str(), self.0 & COUNTER_MASK)
        } else {
            f.write_str(self.as_str())
        }
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
        let n = g.index() & COUNTER_MASK;
        assert!(g.is_fresh() && !base.is_fresh());
        assert_eq!(g.base(), base);
        assert_eq!(base.base(), base);
        assert_eq!(g.to_string(), format!("pack%{n}"));
        assert_eq!(format!("{g:?}"), format!("pack%{n}"));
        // Freshening a fresh name reuses the root base.
        let h = Symbol::fresh_from(g);
        let m = h.index() & COUNTER_MASK;
        assert!(m > n);
        assert_eq!(h.base(), base);
        assert_eq!(h.to_string(), format!("pack%{m}"));
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
