//! The interner's per-thread tables serve permanent entries only: two
//! threads that intern the same trees and names in opposite orders agree
//! on every id, and a fresh-region id read on a worker thread is still
//! caught as stale there after the region is evicted. (Own test binary:
//! eviction is skipped while any check is in flight, so a concurrent
//! checking test would make the stale read flaky.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Barrier, Mutex};

use rtr_core::intern::{canon_ty, maybe_evict_fresh, TyId};
use rtr_core::syntax::{LinCmp, Obj, Prop, Symbol, Ty};

/// Serializes the tests: the eviction in one must not retire fresh ids
/// the other still holds.
static SERIAL: Mutex<()> = Mutex::new(());

fn bounded(x: Symbol, n: i64) -> Ty {
    Ty::refine(x, Ty::Int, Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(n)))
}

#[test]
fn opposite_orders_on_two_threads_agree_on_every_id() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let names: Vec<String> = (0..64).map(|k| format!("intern_threads_{k}")).collect();
    let trees: Vec<Ty> = (0..64)
        .map(|k| {
            let x = Symbol::intern(&format!("it_bound_{}", k % 7));
            let t = bounded(x, k);
            if k % 3 == 0 {
                Ty::pair(t, Ty::vec(Ty::Int))
            } else {
                Ty::union_of(vec![t, Ty::bool_ty()])
            }
        })
        .collect();
    let start = Barrier::new(2);
    let run = |reversed: bool| {
        start.wait();
        let order: Vec<usize> = if reversed {
            (0..64).rev().collect()
        } else {
            (0..64).collect()
        };
        let mut syms = vec![None; 64];
        let mut ids = vec![None; 64];
        // Twice: the second round is served by this thread's tables.
        for _ in 0..2 {
            for &k in &order {
                let s = Symbol::intern(&names[k]);
                assert_eq!(s.as_str(), names[k]);
                assert_eq!(*syms[k].get_or_insert(s), s);
                let id = TyId::of(&trees[k]);
                assert!(!id.in_fresh_region());
                assert_eq!(*ids[k].get_or_insert(id), id);
            }
        }
        let got: Vec<Ty> = ids.iter().map(|id| (*id.unwrap().get()).clone()).collect();
        (syms, ids, got)
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run(false));
        let b = s.spawn(|| run(true));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a.0, b.0, "symbols differ between threads");
    assert_eq!(a.1, b.1, "type ids differ between threads");
    assert_eq!(a.2, b.2, "`get` trees differ between threads");
    // The main thread, with its own tables, agrees too.
    for (k, tree) in trees.iter().enumerate() {
        assert_eq!(Some(TyId::of(tree)), a.1[k]);
        assert_eq!(*TyId::of(tree).get(), a.2[k]);
    }
}

#[test]
fn a_fresh_id_read_on_a_worker_is_stale_there_after_eviction() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let g = Symbol::fresh("it_ghost");
    let tree = bounded(g, 3);
    let id = TyId::of(&tree);
    assert!(id.in_fresh_region());
    let stale = |what: &str| {
        let err = catch_unwind(AssertUnwindSafe(|| id.get()))
            .expect_err("a stale fresh id must not read an entry");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("stale fresh TyId"), "{what}: {msg}");
    };
    let (read_tx, read_rx) = mpsc::channel();
    let (evicted_tx, evicted_rx) = mpsc::channel();
    let (tree_ref, stale_ref) = (&tree, &stale);
    std::thread::scope(|s| {
        let worker = s.spawn(move || {
            assert_eq!(*id.get(), *TyId::of(tree_ref).get());
            assert_eq!(TyId::of(tree_ref), id);
            read_tx.send(()).unwrap();
            evicted_rx.recv().unwrap();
            stale_ref("the worker that read it");
        });
        read_rx.recv().unwrap();
        assert!(maybe_evict_fresh(0), "no check is in flight in this binary");
        evicted_tx.send(()).unwrap();
        worker.join().unwrap();
    });
    stale("the main thread");
    // Interning the same tree again mints a new, live fresh id.
    let again = TyId::of(&tree);
    assert!(again.in_fresh_region());
    assert_ne!(again, id);
    assert_eq!(*again.get(), *canon_ty(&tree));
}
