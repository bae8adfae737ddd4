//! Property tests for the lazy case-split scheduler: on arbitrary fact
//! sets with stored disjunctions, the default checker (unit propagation,
//! goal-relevance-ordered two-pass splitting) must prove exactly what the
//! eager in-order reference (`lazy_splits: false`) proves, at every fuel
//! level. The scheduler only *reorders* which clause is split first —
//! every clause is still tried against the same unmutated environment and
//! branch agendas depend on clause index, never pass — so a verdict
//! divergence here means the scheduler changed semantics, not just order.

use proptest::prelude::*;

use rtr_core::check::Checker;
use rtr_core::config::CheckerConfig;
use rtr_core::env::Env;
use rtr_core::syntax::{LinCmp, Obj, Prop, Symbol, Ty};

const FUEL: u32 = 64;

fn lazy() -> Checker {
    Checker::default()
}

fn eager() -> Checker {
    Checker::with_config(CheckerConfig {
        lazy_splits: false,
        ..CheckerConfig::default()
    })
}

/// A small pool of shared symbols so disjunctions, facts and goals
/// actually interact — and so some clauses are goal-irrelevant (deferred
/// by the lazy scheduler) while others share the goal's variables.
fn sym(i: usize) -> Symbol {
    let names = ["lsa", "lsb", "lsc", "lsd"];
    Symbol::intern(names[i % names.len()])
}

fn arb_lin_obj() -> impl Strategy<Value = Obj> {
    prop_oneof![
        (-6i64..=6).prop_map(Obj::int),
        (0usize..4).prop_map(|i| Obj::var(sym(i))),
        (0usize..4, -3i64..=3).prop_map(|(i, k)| Obj::var(sym(i)).add(&Obj::int(k))),
    ]
}

fn arb_lin_prop() -> impl Strategy<Value = Prop> {
    (
        arb_lin_obj(),
        prop_oneof![
            Just(LinCmp::Lt),
            Just(LinCmp::Le),
            Just(LinCmp::Eq),
            Just(LinCmp::Ne)
        ],
        arb_lin_obj(),
    )
        .prop_map(|(a, cmp, b)| Prop::lin(a, cmp, b))
}

/// A disjunction of two linear atoms — the clause shape `assume` stores
/// for later case-splitting when neither disjunct is refuted on arrival.
fn arb_disj() -> impl Strategy<Value = Prop> {
    (arb_lin_prop(), arb_lin_prop()).prop_map(|(p, q)| Prop::or(p, q))
}

/// Goals mix atoms (some goal-relevant, some not) with disjunctions, so
/// `prove_direct`'s Or-threading and both scheduler passes are exercised.
fn arb_goal() -> impl Strategy<Value = Prop> {
    prop_oneof![
        arb_lin_prop(),
        arb_lin_prop(),
        arb_disj(),
        (arb_lin_prop(), arb_lin_prop()).prop_map(|(p, q)| Prop::and(p, q)),
    ]
}

/// Binds the symbol pool and assumes `facts` (atoms and disjunctions).
fn env_with(checker: &Checker, facts: &[Prop]) -> Env {
    let mut env = Env::new();
    for i in 0..4 {
        checker.bind(&mut env, sym(i), &Ty::Int, FUEL);
    }
    for f in facts {
        checker.assume(&mut env, f, FUEL);
    }
    env
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lazy and eager split scheduling agree on every verdict, including
    /// environment inconsistency, at full and at starved fuel.
    #[test]
    fn lazy_splits_agree_with_eager_reference(
        atoms in proptest::collection::vec(arb_lin_prop(), 0..3),
        disjs in proptest::collection::vec(arb_disj(), 0..4),
        goals in proptest::collection::vec(arb_goal(), 1..4),
    ) {
        let facts: Vec<Prop> = atoms.iter().chain(&disjs).cloned().collect();
        let fast = lazy();
        let slow = eager();
        let env_fast = env_with(&fast, &facts);
        let env_slow = env_with(&slow, &facts);
        for fuel in [FUEL, 8] {
            prop_assert_eq!(
                fast.proves(&env_fast, &Prop::FF, fuel),
                slow.proves(&env_slow, &Prop::FF, fuel),
                "inconsistency verdicts diverged on {:?} at fuel {}", facts, fuel
            );
            for g in &goals {
                prop_assert_eq!(
                    fast.proves(&env_fast, g, fuel),
                    slow.proves(&env_slow, g, fuel),
                    "facts {:?} goal {} fuel {}", facts, g, fuel
                );
            }
        }
    }

    /// Re-asking through the warm lazy checker (its content-keyed memo
    /// tables now warm) cannot change any verdict.
    #[test]
    fn warm_split_memo_is_stable(
        disjs in proptest::collection::vec(arb_disj(), 1..4),
        goals in proptest::collection::vec(arb_goal(), 1..3),
    ) {
        let fast = lazy();
        let env = env_with(&fast, &disjs);
        let first: Vec<bool> = goals.iter().map(|g| fast.proves(&env, g, FUEL)).collect();
        let second: Vec<bool> = goals.iter().map(|g| fast.proves(&env, g, FUEL)).collect();
        prop_assert_eq!(first, second);
    }
}
