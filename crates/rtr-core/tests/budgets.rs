//! Failure injection: resource budgets, conservative degradation, and
//! pathological inputs.
//!
//! λ_RTR is designed so that every resource-limited component degrades
//! *conservatively*: a solver that gives up means "not proved", never
//! "proved". These tests starve each budget and assert that the checker
//! (a) never panics and (b) only ever errs toward rejection.

use proptest::prelude::*;
use rtr_core::check::Checker;
use rtr_core::config::CheckerConfig;
use rtr_core::diag::Code;
use rtr_core::syntax::{BvCmp, Expr, LinCmp, Obj, Prim, Prop, Symbol, Ty};
use rtr_solver::lin::FmConfig;
use rtr_solver::sat::SolverConfig;

fn s(n: &str) -> Symbol {
    Symbol::intern(n)
}

/// The guarded access that normally verifies.
fn guarded_access() -> Expr {
    let (v, i) = (s("v"), s("i"));
    Expr::lam(
        vec![(v, Ty::vec(Ty::Int)), (i, Ty::Int)],
        Expr::if_(
            Expr::prim_app(Prim::Le, vec![Expr::Int(0), Expr::Var(i)]),
            Expr::if_(
                Expr::prim_app(
                    Prim::Lt,
                    vec![Expr::Var(i), Expr::prim_app(Prim::Len, vec![Expr::Var(v)])],
                ),
                Expr::prim_app(Prim::SafeVecRef, vec![Expr::Var(v), Expr::Var(i)]),
                Expr::Int(0),
            ),
            Expr::Int(0),
        ),
    )
}

#[test]
fn starved_fm_budget_rejects_conservatively() {
    let cfg = CheckerConfig {
        fm: FmConfig {
            max_rows: 1,
            max_splits: 0,
        },
        ..CheckerConfig::default()
    };
    let checker = Checker::with_config(cfg);
    // Must not panic; must not crash. (A 1-row FM can still prove the
    // trivial, so we only require: no panic, and no unsoundness on a
    // program whose proof genuinely needs rows.)
    let _ = checker.check_program(&guarded_access());
}

#[test]
fn starved_logic_fuel_rejects() {
    let checker = Checker::with_config(CheckerConfig {
        logic_fuel: 3,
        ..CheckerConfig::default()
    });
    let result = checker.check_program(&guarded_access());
    assert!(
        result.is_err(),
        "with no fuel the proof must fail, not succeed"
    );
}

#[test]
fn zero_case_split_budget_weakens_but_stays_sound() {
    let checker = Checker::with_config(CheckerConfig {
        case_split_budget: 0,
        ..CheckerConfig::default()
    });
    // Disjunction elimination is off: the or-based proof fails…
    let mut env = rtr_core::env::Env::new();
    let x = Symbol::fresh("csx");
    checker.bind(&mut env, x, &Ty::Int, 64);
    checker.assume(
        &mut env,
        &Prop::or(
            Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(3)),
            Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(5)),
        ),
        64,
    );
    assert!(!checker.proves(&env, &Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(5)), 64));
    // …but direct proofs still work.
    checker.assume(
        &mut env,
        &Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(4)),
        64,
    );
    assert!(checker.proves(&env, &Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(5)), 64));
}

#[test]
fn starved_sat_budget_rejects_bv_obligations() {
    // Multiplication commutativity needs real CDCL search (it is not
    // decided by unit propagation alone), so it separates the budgets.
    let goal = |c: &Checker| {
        let mut env = rtr_core::env::Env::new();
        let (x, y) = (Symbol::fresh("bx"), Symbol::fresh("by"));
        c.bind(&mut env, x, &Ty::BitVec, 64);
        c.bind(&mut env, y, &Ty::BitVec, 64);
        let p = Prop::bv(
            Obj::var(x).bv_mul(&Obj::var(y)),
            rtr_core::syntax::BvCmp::Eq,
            Obj::var(y).bv_mul(&Obj::var(x)),
        );
        c.proves(&env, &p, 64)
    };
    let ok_cfg = CheckerConfig {
        bv_width: 6,
        ..CheckerConfig::default()
    };
    assert!(
        goal(&Checker::with_config(ok_cfg.clone())),
        "normal budget proves x·y = y·x"
    );
    let starved_cfg = CheckerConfig {
        sat: SolverConfig {
            max_conflicts: 0,
            ..SolverConfig::default()
        },
        ..ok_cfg
    };
    assert!(
        !goal(&Checker::with_config(starved_cfg)),
        "zero conflict budget must degrade to 'not proved'"
    );
}

#[test]
fn deep_nesting_does_not_blow_the_stack() {
    // 200 nested lets: exercises the recursive checker on a deep AST.
    let mut e = Expr::Var(s("d0"));
    for k in (0..200).rev() {
        let x = s(&format!("d{k}"));
        let next = s(&format!("d{}", k + 1));
        let _ = next;
        e = Expr::let_(x, Expr::Int(k), e);
    }
    let r = Checker::default().check_program(&e);
    assert!(r.is_ok(), "deep let nesting should check: {r:?}");
}

#[test]
fn huge_union_types_are_handled() {
    let members: Vec<Ty> = (0..64)
        .map(|k| {
            if k % 2 == 0 {
                Ty::pair(Ty::Int, Ty::Int)
            } else {
                Ty::Int
            }
        })
        .collect();
    let u = Ty::union_of(members);
    // Deduplication collapses to two members.
    if let Ty::Union(ts) = &u {
        assert_eq!(ts.len(), 2);
    } else {
        panic!("expected a union");
    }
    let n = s("un");
    let e = Expr::lam(
        vec![(n, u)],
        Expr::if_(
            Expr::prim_app(Prim::IsInt, vec![Expr::Var(n)]),
            Expr::prim_app(Prim::Add1, vec![Expr::Var(n)]),
            Expr::Fst(Box::new(Expr::Var(n))),
        ),
    );
    assert!(Checker::default().check_program(&e).is_ok());
}

#[test]
fn ill_typed_programs_error_not_panic() {
    let cases: Vec<Expr> = vec![
        // unbound variable
        Expr::Var(s("nope")),
        // applying a non-function
        Expr::app(Expr::Int(3), vec![Expr::Int(4)]),
        // arity error
        Expr::prim_app(Prim::Add1, vec![Expr::Int(1), Expr::Int(2)]),
        // fst of an int
        Expr::Fst(Box::new(Expr::Int(1))),
        // adding a bool
        Expr::prim_app(Prim::Plus, vec![Expr::Int(1), Expr::Bool(true)]),
        // set! of unbound var
        Expr::Set(s("ghost"), Box::new(Expr::Int(1))),
        // bitvector op on ints
        Expr::prim_app(Prim::BvAnd, vec![Expr::Int(1), Expr::Int(2)]),
        // annotation mismatch
        Expr::ann(Expr::Bool(true), Ty::Int),
    ];
    let checker = Checker::default();
    for e in cases {
        let r = checker.check_program(&e);
        assert!(r.is_err(), "must reject {e}, got {r:?}");
    }
}

// --- starved vs generous: the three-valued degradation contract --------------
//
// The hard-limit contract (`max_steps`): a checker whose step budget is
// starved must either agree with the generous checker's verdict or
// report `E0202` (resource exhausted). It must never flip a verdict —
// accept what the generous checker rejects, or reject for a *reason
// other than exhaustion* what the generous checker accepts.

/// `λ(x : {v : Int | facts}). (ann x {z : Int | goal})` — the
/// annotation forces a `proves` obligation through the lin theory.
fn lin_fact_program(facts: &[(LinCmp, i64, bool)], goal: (LinCmp, i64, bool)) -> Expr {
    let x = Symbol::fresh("svx");
    let v = Symbol::fresh("svv");
    let z = Symbol::fresh("svz");
    let fact_prop = facts.iter().fold(Prop::TT, |acc, &(cmp, k, flip)| {
        let atom = if flip {
            Prop::lin(Obj::int(k), cmp, Obj::var(v))
        } else {
            Prop::lin(Obj::var(v), cmp, Obj::int(k))
        };
        Prop::and(acc, atom)
    });
    let (cmp, k, against_x) = goal;
    let rhs = if against_x {
        Obj::var(x).add(&Obj::int(k))
    } else {
        Obj::int(k)
    };
    Expr::lam(
        vec![(x, Ty::refine(v, Ty::Int, fact_prop))],
        Expr::ann(
            Expr::Var(x),
            Ty::refine(z, Ty::Int, Prop::lin(Obj::var(z), cmp, rhs)),
        ),
    )
}

/// Same shape over the bitvector theory.
fn bv_fact_program(facts: &[(BvCmp, u64, bool)], goal: (BvCmp, u64, bool)) -> Expr {
    let x = Symbol::fresh("svbx");
    let v = Symbol::fresh("svbv");
    let z = Symbol::fresh("svbz");
    let fact_prop = facts.iter().fold(Prop::TT, |acc, &(cmp, k, masked)| {
        let lhs = if masked {
            Obj::var(v).bv_and(&Obj::bv(k))
        } else {
            Obj::var(v)
        };
        Prop::and(acc, Prop::bv(lhs, cmp, Obj::bv(k)))
    });
    let (cmp, k, against_x) = goal;
    let lhs = if against_x {
        Obj::var(z).bv_and(&Obj::var(x))
    } else {
        Obj::var(z)
    };
    Expr::lam(
        vec![(x, Ty::refine(v, Ty::BitVec, fact_prop))],
        Expr::ann(
            Expr::Var(x),
            Ty::refine(z, Ty::BitVec, Prop::bv(lhs, cmp, Obj::bv(k))),
        ),
    )
}

/// Same shape over the regex theory: facts and goal draw from a pool of
/// partially-overlapping patterns so some inclusions genuinely hold.
fn re_fact_program(facts: &[(usize, bool)], goal: usize) -> Expr {
    let pool: Vec<std::sync::Arc<rtr_solver::re::Regex>> = ["a*", "[ab]+", "a{2}", "b?a", "c.*"]
        .iter()
        .map(|p| std::sync::Arc::new(rtr_solver::re::Regex::parse(p).expect("pool parses")))
        .collect();
    let x = Symbol::fresh("svrx");
    let v = Symbol::fresh("svrv");
    let z = Symbol::fresh("svrz");
    let fact_prop = facts.iter().fold(Prop::TT, |acc, &(i, pos)| {
        let atom = Prop::re_match(&Obj::var(v), &Obj::re(pool[i % pool.len()].clone()));
        let atom = if pos {
            atom
        } else {
            atom.negate().expect("re atoms negate")
        };
        Prop::and(acc, atom)
    });
    let goal_prop = Prop::re_match(&Obj::var(z), &Obj::re(pool[goal % pool.len()].clone()));
    Expr::lam(
        vec![(x, Ty::refine(v, Ty::Str, fact_prop))],
        Expr::ann(Expr::Var(x), Ty::refine(z, Ty::Str, goal_prop)),
    )
}

fn arb_lin_cmp() -> impl Strategy<Value = LinCmp> {
    prop_oneof![
        Just(LinCmp::Lt),
        Just(LinCmp::Le),
        Just(LinCmp::Eq),
        Just(LinCmp::Ne)
    ]
}

fn arb_bv_cmp() -> impl Strategy<Value = BvCmp> {
    prop_oneof![Just(BvCmp::Eq), Just(BvCmp::Ule), Just(BvCmp::Ult)]
}

/// Programs whose typing obligations route through one of the three
/// theories, with random fact sets.
fn arb_governed_program() -> impl Strategy<Value = Expr> {
    let lin = (
        proptest::collection::vec((arb_lin_cmp(), -6i64..=6, any::<bool>()), 0..4),
        (arb_lin_cmp(), -6i64..=6, any::<bool>()),
    )
        .prop_map(|(facts, goal)| lin_fact_program(&facts, goal));
    let bv = (
        proptest::collection::vec((arb_bv_cmp(), 0u64..=0xff, any::<bool>()), 0..3),
        (arb_bv_cmp(), 0u64..=0xff, any::<bool>()),
    )
        .prop_map(|(facts, goal)| bv_fact_program(&facts, goal));
    let re = (
        proptest::collection::vec((0usize..5, any::<bool>()), 0..3),
        0usize..5,
    )
        .prop_map(|(facts, goal)| re_fact_program(&facts, goal));
    prop_oneof![lin, bv, re]
}

/// The hard step limit trips on a program the default budget accepts,
/// and the trip surfaces as `E0202`, not as a plain type error.
#[test]
fn one_step_budget_reports_exhausted() {
    let starved = Checker::with_config(CheckerConfig {
        max_steps: Some(1),
        ..CheckerConfig::default()
    });
    let d = starved
        .check_program(&guarded_access())
        .expect_err("one judgment step cannot check a lambda");
    assert_eq!(d.code, Code::ResourceExhausted, "{d:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Under any step starvation, the verdict is the generous verdict or
    /// `E0202` — never a flip in either direction.
    #[test]
    fn starved_budget_never_flips_a_verdict(
        e in arb_governed_program(),
        steps in 1u64..3_000,
    ) {
        let generous = Checker::default();
        let starved = Checker::with_config(CheckerConfig {
            max_steps: Some(steps),
            ..CheckerConfig::default()
        });
        let g = generous.check_program(&e);
        let s = starved.check_program(&e);
        match (&s, &g) {
            (Ok(_), Ok(_)) => {}
            (Err(d), _) if d.code == Code::ResourceExhausted => {}
            (Err(d), Err(gd)) => prop_assert_eq!(
                d.code, gd.code,
                "starved rejection changed its reason on {}", e
            ),
            (Ok(_), Err(gd)) => prop_assert!(
                false,
                "starved checker accepted what the generous one rejects ({}) on {}",
                gd.code, e
            ),
            (Err(d), Ok(_)) => prop_assert!(
                false,
                "starved checker rejected with {} (not E0202) what the generous one accepts on {}",
                d.code, e
            ),
        }
    }
}

#[test]
fn conservative_rejection_is_never_unsound() {
    // Crank every budget to the floor and fuzz a handful of accepted
    // programs: anything still accepted must evaluate without getting
    // stuck.
    let weak = Checker::with_config(CheckerConfig {
        logic_fuel: 8,
        case_split_budget: 1,
        fm: FmConfig {
            max_rows: 16,
            max_splits: 1,
        },
        ..CheckerConfig::default()
    });
    let programs = vec![
        Expr::prim_app(Prim::Plus, vec![Expr::Int(1), Expr::Int(2)]),
        guarded_access(),
        Expr::if_(
            Expr::prim_app(Prim::IsInt, vec![Expr::Int(3)]),
            Expr::Int(1),
            Expr::Int(0),
        ),
    ];
    for e in programs {
        if weak.check_program(&e).is_ok() {
            let v = rtr_core::interp::eval_program(&e, 100_000);
            assert!(
                !matches!(v, Err(rtr_core::interp::EvalError::Stuck(_))),
                "weak-budget acceptance must still be sound for {e}"
            );
        }
    }
}
