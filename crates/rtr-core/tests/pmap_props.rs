//! Property tests pinning the persistent HAMT ([`rtr_core::pmap::PMap`])
//! to `HashMap` semantics: any sequence of inserts/removes must leave the
//! two maps observationally identical (get, contains, len, iteration as a
//! set), writing to a map must never disturb a snapshot taken before
//! the write, and `PMap::diff` must name exactly the keys whose entries
//! differ.

use std::collections::HashMap;

use proptest::prelude::*;

use rtr_core::pmap::PMap;
use rtr_core::syntax::Symbol;

/// A small key universe so random sequences actually collide, overwrite
/// and remove existing keys.
fn key(i: u8) -> Symbol {
    Symbol::intern(&format!("pmk{}", i % 24))
}

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u32),
    Remove(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            any::<u8>().prop_map(Op::Remove),
        ],
        0..64,
    )
}

fn assert_same(pmap: &PMap<u32>, reference: &HashMap<Symbol, u32>) {
    assert_eq!(pmap.len(), reference.len());
    assert_eq!(pmap.is_empty(), reference.is_empty());
    for (k, v) in reference {
        assert_eq!(pmap.get(*k), Some(v), "missing {k}");
    }
    let mut entries: Vec<(Symbol, u32)> = pmap.iter().map(|(k, v)| (k, *v)).collect();
    entries.sort_unstable();
    let mut expected: Vec<(Symbol, u32)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
    expected.sort_unstable();
    assert_eq!(entries, expected, "iteration disagrees with HashMap");
}

fn apply(pmap: &mut PMap<u32>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(k, v) => pmap.insert(key(*k), *v),
            Op::Remove(k) => pmap.remove(key(*k)),
        };
    }
}

fn sorted(mut keys: Vec<Symbol>) -> Vec<Symbol> {
    keys.sort_unstable();
    keys
}

/// The keys whose entries differ, found the slow way over `iter()`.
fn naive_diff(a: &PMap<u32>, b: &PMap<u32>) -> Vec<Symbol> {
    let a: HashMap<Symbol, u32> = a.iter().map(|(k, v)| (k, *v)).collect();
    let b: HashMap<Symbol, u32> = b.iter().map(|(k, v)| (k, *v)).collect();
    let mut keys: Vec<Symbol> = a
        .keys()
        .chain(b.keys())
        .filter(|k| a.get(k) != b.get(k))
        .copied()
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `PMap::diff` names each differing key once, exactly as a naive
    /// comparison over `iter()` does: for a snapshot and its source
    /// after writes on both sides (shared subtrees), and for maps built
    /// independently in different insertion orders (no shared nodes,
    /// possibly different trie shapes).
    #[test]
    fn diff_matches_a_naive_diff(
        before in arb_ops(),
        after in arb_ops(),
        on_snapshot in arb_ops(),
    ) {
        let mut pmap: PMap<u32> = PMap::new();
        apply(&mut pmap, &before);
        let mut snapshot = pmap.clone();
        apply(&mut pmap, &after);
        apply(&mut snapshot, &on_snapshot);
        prop_assert_eq!(sorted(pmap.diff(&snapshot)), naive_diff(&pmap, &snapshot));

        let mut entries: Vec<(Symbol, u32)> = snapshot.iter().map(|(k, v)| (k, *v)).collect();
        entries.reverse();
        let mut rebuilt: PMap<u32> = PMap::new();
        for (k, v) in entries {
            rebuilt.insert(k, v);
        }
        prop_assert!(rebuilt.diff(&snapshot).is_empty());
        prop_assert_eq!(sorted(pmap.diff(&rebuilt)), naive_diff(&pmap, &rebuilt));
        prop_assert_eq!(sorted(rebuilt.diff(&pmap)), naive_diff(&rebuilt, &pmap));
    }

    /// Every op sequence leaves the HAMT and a HashMap observationally
    /// identical, and each op reports the same previous value.
    #[test]
    fn pmap_matches_hashmap_semantics(ops in arb_ops()) {
        let mut pmap: PMap<u32> = PMap::new();
        let mut reference: HashMap<Symbol, u32> = HashMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(pmap.insert(key(*k), *v), reference.insert(key(*k), *v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(pmap.remove(key(*k)), reference.remove(&key(*k)));
                }
            }
        }
        assert_same(&pmap, &reference);
    }

    /// Snapshot/write independence: a clone taken mid-sequence is frozen —
    /// later writes to the original (and writes to the clone) never leak
    /// across, in either direction.
    #[test]
    fn snapshots_are_write_independent(
        before in arb_ops(),
        after in arb_ops(),
        on_snapshot in arb_ops(),
    ) {
        let mut pmap: PMap<u32> = PMap::new();
        let mut reference: HashMap<Symbol, u32> = HashMap::new();
        for op in &before {
            match op {
                Op::Insert(k, v) => {
                    pmap.insert(key(*k), *v);
                    reference.insert(key(*k), *v);
                }
                Op::Remove(k) => {
                    pmap.remove(key(*k));
                    reference.remove(&key(*k));
                }
            }
        }
        let mut snapshot = pmap.clone();
        let witness = pmap.clone();
        let frozen = reference.clone();
        let mut snapshot_ref = reference.clone();
        // Diverge both copies with independent op sequences.
        for op in &after {
            match op {
                Op::Insert(k, v) => {
                    pmap.insert(key(*k), *v);
                    reference.insert(key(*k), *v);
                }
                Op::Remove(k) => {
                    pmap.remove(key(*k));
                    reference.remove(&key(*k));
                }
            }
        }
        for op in &on_snapshot {
            match op {
                Op::Insert(k, v) => {
                    snapshot.insert(key(*k), *v);
                    snapshot_ref.insert(key(*k), *v);
                }
                Op::Remove(k) => {
                    snapshot.remove(key(*k));
                    snapshot_ref.remove(&key(*k));
                }
            }
        }
        assert_same(&pmap, &reference);
        assert_same(&snapshot, &snapshot_ref);
        // An untouched snapshot taken at the same point still shows the
        // frozen state, no matter what the other two copies did.
        assert_same(&witness, &frozen);
    }
}

/// One write to a snapshot of a 1,000-entry map copies at most the trie
/// path to the written key; every other node stays shared (`Arc::ptr_eq`)
/// with the snapshot. This is the structural sharing that keeps the
/// environment's snapshot-and-extend style cheap.
#[test]
fn one_write_to_a_snapshot_copies_at_most_one_trie_path() {
    fn sym(i: u32) -> Symbol {
        Symbol::intern(&format!("pms{i}"))
    }
    let mut map: PMap<u32> = PMap::new();
    for i in 0..1000 {
        map.insert(sym(i), i);
    }
    let nodes = map.nodes_not_shared_with(&PMap::new());
    assert!(nodes > 1000, "1,000 leaves plus branches, got {nodes}");
    assert_eq!(map.nodes_not_shared_with(&map.clone()), 0);

    // A new key, an overwrite, a removal.
    for (key, value) in [(1000, Some(1000)), (500, Some(0)), (7, None)] {
        let mut copy = map.clone();
        match value {
            Some(v) => copy.insert(sym(key), v),
            None => copy.remove(sym(key)),
        };
        let copied = copy.nodes_not_shared_with(&map);
        assert!(
            (1..=copy.depth()).contains(&copied),
            "{copied} nodes copied, trie depth {}",
            copy.depth()
        );
        assert_eq!(map.len(), 1000, "the snapshot is untouched");
    }
}
