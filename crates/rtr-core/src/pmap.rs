//! A persistent hash-array-mapped trie (HAMT) keyed by [`Symbol`].
//!
//! [`crate::env::Env`] snapshots itself at every binder, branch and case
//! split, then usually writes a handful of bindings into the copy. With
//! `Arc<HashMap<…>>` copy-on-write, the *first* write after a snapshot
//! clones the entire map, so a chain of `n` binders costs `O(n²)` map
//! entries copied. This module provides the persistent replacement: an
//! HAMT whose insert/remove clone only the `O(log n)` nodes on the path
//! to the key, structurally sharing everything else with the snapshot it
//! came from. Cloning a [`PMap`] is one `Arc` bump; writes to a clone
//! never disturb the original.
//!
//! Design notes:
//!
//! * Keys are [`Symbol`]s (interned `u32`s). The trie hashes them through
//!   a fixed odd-multiplier mix, which is a **bijection** on `u64` — two
//!   distinct symbols can never share a full hash, so the trie needs no
//!   collision nodes and its depth is bounded by ⌈64/5⌉ = 13 levels.
//! * Interior nodes are 32-way bitmap-compressed branches (the classic
//!   Bagwell layout): a `u32` bitmap plus a dense child array, indexed by
//!   `popcount(bitmap & (bit - 1))`.
//! * Writes use [`Arc::make_mut`]: when a node is uniquely owned (no live
//!   snapshot shares it) it is edited in place, so an unshared map is
//!   updated with zero allocation beyond leaf creation — snapshots only
//!   pay for the nodes they actually touch afterwards.
//! * Values are `Copy` (the environment stores interned [`crate::intern`]
//!   ids, not trees), which keeps leaves two words and iteration
//!   allocation-free.
//!
//! Iteration order is the (deterministic) hash order of the keys —
//! arbitrary but stable, like `HashMap`'s within one process. The
//! `pmap_props` property suite pins the map to `HashMap` semantics under
//! random operation sequences, including snapshot/write independence,
//! and [`PMap::nodes_not_shared_with`] lets it pin the structural
//! sharing itself.

use std::collections::HashSet;
use std::sync::Arc;

use crate::syntax::Symbol;

/// Bits consumed per trie level.
const BITS: u32 = 5;
const LEVEL_MASK: u64 = (1 << BITS) - 1;

/// Mixes a symbol into a 64-bit hash. An odd multiplier makes this a
/// bijection on `u64`, so distinct symbols always differ somewhere in the
/// 64 bits and the trie never needs collision buckets.
fn hash(key: Symbol) -> u64 {
    key.index().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[derive(Debug)]
enum Node<V> {
    /// A single key/value pair.
    Leaf(Symbol, V),
    /// A bitmap-compressed 32-way branch; `children[i]` corresponds to
    /// the `i`-th set bit of `bitmap`.
    Branch {
        bitmap: u32,
        children: Vec<Arc<Node<V>>>,
    },
}

// Manual impl: children are shared by `Arc` clone, values by `Copy`.
impl<V: Copy> Clone for Node<V> {
    fn clone(&self) -> Self {
        match self {
            Node::Leaf(k, v) => Node::Leaf(*k, *v),
            Node::Branch { bitmap, children } => Node::Branch {
                bitmap: *bitmap,
                children: children.clone(),
            },
        }
    }
}

/// A persistent map from [`Symbol`] to a `Copy` value. See the module
/// docs for the design.
#[derive(Debug)]
pub struct PMap<V> {
    root: Option<Arc<Node<V>>>,
    len: usize,
}

impl<V> Clone for PMap<V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<V> Default for PMap<V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

impl<V: Copy> PMap<V> {
    /// An empty map.
    pub fn new() -> PMap<V> {
        PMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up `key`.
    pub fn get(&self, key: Symbol) -> Option<&V> {
        let mut node = self.root.as_deref()?;
        let h = hash(key);
        let mut shift = 0;
        loop {
            match node {
                Node::Leaf(k, v) => return (*k == key).then_some(v),
                Node::Branch { bitmap, children } => {
                    let bit = 1u32 << ((h >> shift) & LEVEL_MASK);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    node = &children[(bitmap & (bit - 1)).count_ones() as usize];
                    shift += BITS;
                }
            }
        }
    }

    /// Is `key` present?
    pub fn contains_key(&self, key: Symbol) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key ↦ value`, returning the previous value if any. Only
    /// the path to the key is copied; all other nodes stay shared with
    /// snapshots.
    pub fn insert(&mut self, key: Symbol, value: V) -> Option<V> {
        let prev = match &mut self.root {
            None => {
                self.root = Some(Arc::new(Node::Leaf(key, value)));
                None
            }
            Some(root) => insert_rec(root, 0, hash(key), key, value),
        };
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: Symbol) -> Option<V> {
        // Full read-only probe first: `remove_rec` copies shared nodes on
        // its way down (`Arc::make_mut`), so a miss must be detected
        // before any write — `Env::unbind` removes unconditionally and
        // usually misses on freshly snapshot-shared maps.
        if !self.contains_key(key) {
            return None;
        }
        let root = self.root.as_mut()?;
        let (removed, empty) = remove_rec(root, 0, hash(key), key);
        if empty {
            self.root = None;
        }
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Iterates over all entries in deterministic (hash) order.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            stack: self.root.as_deref().map(|n| vec![n]).unwrap_or_default(),
        }
    }

    /// Nodes on the longest root-to-leaf path (`0` when empty).
    pub fn depth(&self) -> usize {
        fn go<V>(n: &Node<V>) -> usize {
            match n {
                Node::Leaf(..) => 1,
                Node::Branch { children, .. } => {
                    1 + children.iter().map(|c| go(c)).max().unwrap_or(0)
                }
            }
        }
        self.root.as_deref().map_or(0, go)
    }

    /// How many of this map's trie nodes `other` does not share (the
    /// same `Arc`, wherever it sits). Against an empty map it is the
    /// node count; against the snapshot a map was cloned from it is
    /// exactly the nodes the writes since then allocated.
    pub fn nodes_not_shared_with(&self, other: &PMap<V>) -> usize {
        fn nodes<V>(n: &Arc<Node<V>>, out: &mut Vec<*const Node<V>>) {
            out.push(Arc::as_ptr(n));
            if let Node::Branch { children, .. } = &**n {
                children.iter().for_each(|c| nodes(c, out));
            }
        }
        fn unshared<V>(n: &Arc<Node<V>>, theirs: &HashSet<*const Node<V>>) -> usize {
            match &**n {
                _ if theirs.contains(&Arc::as_ptr(n)) => 0,
                Node::Leaf(..) => 1,
                Node::Branch { children, .. } => {
                    1 + children.iter().map(|c| unshared(c, theirs)).sum::<usize>()
                }
            }
        }
        let mut theirs = Vec::new();
        if let Some(r) = &other.root {
            nodes(r, &mut theirs);
        }
        let theirs: HashSet<_> = theirs.into_iter().collect();
        self.root.as_ref().map_or(0, |r| unshared(r, &theirs))
    }
}

impl<V: Copy + PartialEq> PMap<V> {
    /// The keys whose entries differ between the two maps: present in
    /// one only, or mapped to different values. Each key appears once,
    /// in no particular order.
    ///
    /// Because the key hash is a bijection, a key's trie position is a
    /// function of the key alone, so two maps can be compared subtree
    /// by subtree: a shared node holds no difference, and only the
    /// paths where the tries differ are walked. A map against the
    /// snapshot it was cloned from after `k` writes costs
    /// `O(k · depth)` — the incremental module driver's common case.
    pub fn diff(&self, other: &PMap<V>) -> Vec<Symbol> {
        let mut out = Vec::new();
        diff_nodes(self.root.as_ref(), other.root.as_ref(), &mut out);
        out
    }
}

/// Pushes onto `out` the keys whose entries differ between two subtrees
/// at the same trie level. Shared nodes are skipped by pointer; two
/// branches compare child by child, since an entry's child slot depends
/// on its key alone. Any other shape pair has a leaf or nothing on one
/// side, which is compared with every entry of the other.
fn diff_nodes<V: Copy + PartialEq>(
    a: Option<&Arc<Node<V>>>,
    b: Option<&Arc<Node<V>>>,
    out: &mut Vec<Symbol>,
) {
    if let (Some(x), Some(y)) = (a, b) {
        if Arc::ptr_eq(x, y) {
            return;
        }
        if let (
            Node::Branch {
                bitmap: bx,
                children: cx,
            },
            Node::Branch {
                bitmap: by,
                children: cy,
            },
        ) = (&**x, &**y)
        {
            let (mut cx, mut cy) = (cx.iter(), cy.iter());
            for bit in (0..32)
                .map(|i| 1u32 << i)
                .filter(|bit| (bx | by) & bit != 0)
            {
                let x = (bx & bit != 0).then(|| cx.next()).flatten();
                let y = (by & bit != 0).then(|| cy.next()).flatten();
                diff_nodes(x, y, out);
            }
            return;
        }
    }
    let (one, all) = match a.map(|n| &**n) {
        Some(Node::Branch { .. }) => (b, a),
        _ => (a, b),
    };
    let one = match one.map(|n| &**n) {
        Some(Node::Leaf(k, v)) => Some((*k, v)),
        _ => None,
    };
    let mut matched = false;
    for (k, v) in (Iter {
        stack: all.map(|n| vec![&**n]).unwrap_or_default(),
    }) {
        let same_key = one.is_some_and(|(k1, _)| k1 == k);
        matched |= same_key;
        if !same_key || one.is_some_and(|(_, v1)| v1 != v) {
            out.push(k);
        }
    }
    out.extend(one.filter(|_| !matched).map(|(k, _)| k));
}

fn insert_rec<V: Copy>(
    node: &mut Arc<Node<V>>,
    shift: u32,
    h: u64,
    key: Symbol,
    value: V,
) -> Option<V> {
    // A different key's leaf moves, still shared, under a new branch
    // spine; copying it would only duplicate a snapshot's node.
    if let Node::Leaf(k0, _) = **node {
        if k0 != key {
            let leaf0 = Arc::clone(node);
            *node = Arc::new(join(shift, hash(k0), leaf0, h, key, value));
            return None;
        }
    }
    match Arc::make_mut(node) {
        Node::Leaf(_, v) => Some(std::mem::replace(v, value)),
        Node::Branch { bitmap, children } => {
            let bit = 1u32 << ((h >> shift) & LEVEL_MASK);
            let i = (*bitmap & (bit - 1)).count_ones() as usize;
            if *bitmap & bit != 0 {
                insert_rec(&mut children[i], shift + BITS, h, key, value)
            } else {
                children.insert(i, Arc::new(Node::Leaf(key, value)));
                *bitmap |= bit;
                None
            }
        }
    }
}

/// Builds the minimal branch spine separating an existing leaf from a new
/// entry. Terminates because the two full hashes differ (bijective mix).
fn join<V: Copy>(
    shift: u32,
    h0: u64,
    leaf0: Arc<Node<V>>,
    h1: u64,
    key: Symbol,
    value: V,
) -> Node<V> {
    let c0 = (h0 >> shift) & LEVEL_MASK;
    let c1 = (h1 >> shift) & LEVEL_MASK;
    if c0 == c1 {
        Node::Branch {
            bitmap: 1 << c0,
            children: vec![Arc::new(join(shift + BITS, h0, leaf0, h1, key, value))],
        }
    } else {
        let leaf1 = Arc::new(Node::Leaf(key, value));
        let (bitmap, children) = if c0 < c1 {
            ((1 << c0) | (1 << c1), vec![leaf0, leaf1])
        } else {
            ((1 << c0) | (1 << c1), vec![leaf1, leaf0])
        };
        Node::Branch { bitmap, children }
    }
}

/// Removes `key` below `node`; returns the removed value and whether the
/// node is now empty (and should be dropped by the parent).
fn remove_rec<V: Copy>(
    node: &mut Arc<Node<V>>,
    shift: u32,
    h: u64,
    key: Symbol,
) -> (Option<V>, bool) {
    // Read-only probe first so misses never clone shared nodes.
    match &**node {
        Node::Leaf(k, _) if *k != key => return (None, false),
        Node::Branch { bitmap, .. } => {
            let bit = 1u32 << ((h >> shift) & LEVEL_MASK);
            if bitmap & bit == 0 {
                return (None, false);
            }
        }
        Node::Leaf(..) => {}
    }
    let (removed, collapse) = match Arc::make_mut(node) {
        Node::Leaf(_, v) => return (Some(*v), true),
        Node::Branch { bitmap, children } => {
            let bit = 1u32 << ((h >> shift) & LEVEL_MASK);
            let i = (*bitmap & (bit - 1)).count_ones() as usize;
            let (removed, child_empty) = remove_rec(&mut children[i], shift + BITS, h, key);
            if child_empty {
                children.remove(i);
                *bitmap &= !bit;
            }
            if children.is_empty() {
                return (removed, true);
            }
            // Collapse a single remaining leaf upward to keep paths short.
            if children.len() == 1 && matches!(&*children[0], Node::Leaf(..)) {
                (
                    removed,
                    Some((*children.pop().expect("len checked")).clone()),
                )
            } else {
                (removed, None)
            }
        }
    };
    if let Some(leaf) = collapse {
        // The node is already uniquely owned (make_mut above).
        *Arc::make_mut(node) = leaf;
    }
    (removed, false)
}

/// Borrowing iterator over a [`PMap`] in deterministic hash order.
pub struct Iter<'a, V> {
    stack: Vec<&'a Node<V>>,
}

impl<'a, V: Copy> Iterator for Iter<'a, V> {
    type Item = (Symbol, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.stack.pop()? {
                Node::Leaf(k, v) => return Some((*k, v)),
                Node::Branch { children, .. } => {
                    // Push in reverse so children come out low-bit first.
                    self.stack.extend(children.iter().rev().map(|c| &**c));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> Symbol {
        Symbol::intern(&format!("pm{n}"))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: PMap<u32> = PMap::new();
        assert!(m.is_empty());
        for i in 0..100 {
            assert_eq!(m.insert(s(i), i), None);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100 {
            assert_eq!(m.get(s(i)), Some(&i));
        }
        assert_eq!(m.get(Symbol::intern("absent")), None);
        assert_eq!(m.insert(s(7), 700), Some(7));
        assert_eq!(m.len(), 100);
        for i in 0..100 {
            let expect = if i == 7 { 700 } else { i };
            assert_eq!(m.remove(s(i)), Some(expect));
            assert_eq!(m.get(s(i)), None);
        }
        assert!(m.is_empty());
        assert_eq!(m.remove(s(0)), None);
    }

    #[test]
    fn snapshots_are_independent() {
        let mut m: PMap<u32> = PMap::new();
        for i in 0..32 {
            m.insert(s(i), i);
        }
        let snapshot = m.clone();
        m.insert(s(0), 999);
        m.remove(s(1));
        m.insert(s(100), 100);
        assert_eq!(snapshot.get(s(0)), Some(&0));
        assert_eq!(snapshot.get(s(1)), Some(&1));
        assert_eq!(snapshot.get(s(100)), None);
        assert_eq!(snapshot.len(), 32);
        assert_eq!(m.get(s(0)), Some(&999));
        assert_eq!(m.get(s(1)), None);
        assert_eq!(m.len(), 32);
    }

    #[test]
    fn iteration_visits_every_entry_once() {
        let mut m: PMap<u32> = PMap::new();
        for i in 0..257 {
            m.insert(s(i), i);
        }
        let mut seen: Vec<u32> = m.iter().map(|(_, v)| *v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..257).collect::<Vec<_>>());
        // Iteration order is deterministic.
        let a: Vec<Symbol> = m.iter().map(|(k, _)| k).collect();
        let b: Vec<Symbol> = m.clone().iter().map(|(k, _)| k).collect();
        assert_eq!(a, b);
    }

    fn sorted(mut keys: Vec<Symbol>) -> Vec<Symbol> {
        keys.sort_unstable();
        keys
    }

    #[test]
    fn diff_is_history_independent() {
        let mut a: PMap<u32> = PMap::new();
        for i in 0..64 {
            a.insert(s(i), i);
        }
        // Same final contents by a different history (extra inserts and
        // removes leave a structurally different, equal trie).
        let mut b: PMap<u32> = PMap::new();
        for i in (0..64).rev() {
            b.insert(s(i), 0);
        }
        for i in 64..90 {
            b.insert(s(i), i);
        }
        for i in 64..90 {
            b.remove(s(i));
        }
        for i in 0..64 {
            b.insert(s(i), i);
        }
        assert!(a.diff(&b).is_empty());
        assert!(a.diff(&a.clone()).is_empty(), "shared-root fast path");
        b.insert(s(3), 999);
        assert_eq!(a.diff(&b), vec![s(3)]);
        b.insert(s(3), 3);
        b.remove(s(63));
        assert_eq!(a.diff(&b), vec![s(63)], "missing key must be detected");
    }

    #[test]
    fn diff_against_a_snapshot_names_exactly_the_written_keys() {
        let mut base: PMap<u32> = PMap::new();
        for i in 0..200 {
            base.insert(s(i), i);
        }
        let mut m = base.clone();
        m.insert(s(500), 5);
        assert_eq!(m.diff(&base), vec![s(500)]);
        assert_eq!(base.diff(&m), vec![s(500)], "diff is symmetric");
        assert!(base.diff(&base).is_empty(), "no entry added");
        let mut changed = m.clone();
        changed.insert(s(7), 70);
        assert_eq!(sorted(changed.diff(&base)), sorted(vec![s(7), s(500)]));
        let mut two = m.clone();
        two.insert(s(501), 1);
        assert_eq!(sorted(two.diff(&base)), sorted(vec![s(500), s(501)]));
        // An equal map built by another history diffs the same.
        let mut rebuilt: PMap<u32> = PMap::new();
        for i in (0..200).rev() {
            rebuilt.insert(s(i), i);
        }
        rebuilt.insert(s(500), 5);
        assert_eq!(rebuilt.diff(&base), vec![s(500)]);
        // Nothing but the new entry: an empty base.
        let mut one: PMap<u32> = PMap::new();
        one.insert(s(1), 1);
        assert_eq!(one.diff(&PMap::new()), vec![s(1)]);
    }

    #[test]
    fn remove_collapses_single_leaf_branches() {
        let mut m: PMap<u32> = PMap::new();
        for i in 0..64 {
            m.insert(s(i), i);
        }
        for i in 1..64 {
            m.remove(s(i));
        }
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(s(0)), Some(&0));
        // The root should have collapsed back toward a leaf (depth ≤ 13
        // either way, but a collapsed map answers in one hop).
        match m.root.as_deref() {
            Some(Node::Leaf(k, 0)) => assert_eq!(*k, s(0)),
            other => {
                // Collapse is best-effort (only single-leaf branches);
                // correctness never depends on it.
                assert!(other.is_some());
            }
        }
    }
}
