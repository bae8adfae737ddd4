//! The interner's per-thread tables: two threads that intern the same
//! trees and names in opposite orders agree on every id, including the
//! ids of trees over fresh names each thread mints in the same scopes.

use std::sync::Barrier;

use rtr_core::intern::TyId;
use rtr_core::syntax::{LinCmp, Obj, Prop, Symbol, Ty};

fn bounded(x: Symbol, n: i64) -> Ty {
    Ty::refine(x, Ty::Int, Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(n)))
}

#[test]
fn opposite_orders_on_two_threads_agree_on_every_id() {
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
        let mut ghosts = vec![None; 64];
        // Twice: the second round is served by this thread's tables.
        for _ in 0..2 {
            for &k in &order {
                let s = Symbol::intern(&names[k]);
                assert_eq!(s.as_str(), names[k]);
                assert_eq!(*syms[k].get_or_insert(s), s);
                let id = TyId::of(&trees[k]);
                assert_eq!(*ids[k].get_or_insert(id), id);
                let key = Symbol::scope_key(("intern_threads", k));
                let g = Symbol::scoped(key, || Symbol::fresh("it_ghost"));
                let gid = TyId::of(&bounded(g, k as i64));
                assert_eq!(*ghosts[k].get_or_insert(gid), gid);
            }
        }
        let got: Vec<Ty> = ids.iter().map(|id| (*id.unwrap().get()).clone()).collect();
        (syms, ids, got, ghosts)
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run(false));
        let b = s.spawn(|| run(true));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a.0, b.0, "symbols differ between threads");
    assert_eq!(a.1, b.1, "type ids differ between threads");
    assert_eq!(a.2, b.2, "`get` trees differ between threads");
    assert_eq!(a.3, b.3, "scoped fresh-name trees differ between threads");
    // The main thread, with its own tables, agrees too.
    for (k, tree) in trees.iter().enumerate() {
        assert_eq!(Some(TyId::of(tree)), a.1[k]);
        assert_eq!(*TyId::of(tree).get(), a.2[k]);
    }
}
