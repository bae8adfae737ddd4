//! Property-based differential tests for the solver substrate.
//!
//! Each solver is checked against an independent, obviously-correct oracle:
//!
//! * Fourier–Motzkin vs. brute-force integer enumeration on a box wide
//!   enough for the generated coefficients;
//! * the CDCL SAT solver vs. truth-table enumeration;
//! * the bitvector bit-blaster vs. exhaustive machine-arithmetic
//!   evaluation.

use proptest::prelude::*;

use rtr_solver::bv::{BvAtom, BvLit, BvSolver, BvTerm};
use rtr_solver::lin::{BruteForce, Cmp, Constraint, FourierMotzkin, LinExpr, LinResult, SolverVar};
use rtr_solver::rational::Rat;
use rtr_solver::sat::{Cnf, Lit, SatResult, Solver, Var};

// --- linear arithmetic ------------------------------------------------------

fn arb_linexpr(num_vars: u32) -> impl Strategy<Value = LinExpr> {
    (
        proptest::collection::vec((-4i64..=4, 0..num_vars), 0..3),
        -6i64..=6,
    )
        .prop_map(|(terms, c)| {
            LinExpr::from_terms(
                terms.into_iter().map(|(a, x)| (Rat::from(a), SolverVar(x))),
                Rat::from(c),
            )
        })
}

fn arb_constraint(num_vars: u32) -> impl Strategy<Value = Constraint> {
    (
        arb_linexpr(num_vars),
        prop_oneof![Just(Cmp::Le), Just(Cmp::Lt), Just(Cmp::Eq), Just(Cmp::Ne)],
    )
        .prop_map(|(expr, cmp)| Constraint { expr, cmp })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Soundness: if brute force finds an integer model in the box, FM must
    /// not claim Unsat. (The converse can fail because the box is finite,
    /// so it is not asserted.)
    #[test]
    fn fm_never_refutes_a_real_model(cs in proptest::collection::vec(arb_constraint(3), 0..5)) {
        let brute = BruteForce { bound: 8, max_assignments: 10_000_000 };
        let fm = FourierMotzkin::default();
        if brute.check(&cs) == LinResult::Sat {
            prop_assert_ne!(fm.check(&cs), LinResult::Unsat);
        }
    }

    /// Entailment is consistent: if FM proves `facts ⊢ goal`, then no boxed
    /// integer model of the facts may falsify the goal.
    #[test]
    fn fm_entailment_respects_models(
        facts in proptest::collection::vec(arb_constraint(3), 0..4),
        goal in arb_constraint(3),
    ) {
        let fm = FourierMotzkin::default();
        if fm.entails(&facts, &goal) {
            let mut refute = facts.clone();
            refute.push(goal.negate());
            let brute = BruteForce { bound: 8, max_assignments: 10_000_000 };
            prop_assert_ne!(brute.check(&refute), LinResult::Sat);
        }
    }

    /// Negation is semantically exact on every assignment.
    #[test]
    fn constraint_negation_flips_truth(
        c in arb_constraint(3),
        vals in proptest::collection::vec(-8i64..=8, 3),
    ) {
        let lookup = |x: SolverVar| Rat::from(vals[x.0 as usize]);
        let t = c.holds(lookup).unwrap();
        let n = c.negate().holds(lookup).unwrap();
        prop_assert_eq!(t, !n);
    }
}

// --- SAT --------------------------------------------------------------------

fn arb_cnf(max_vars: u32) -> impl Strategy<Value = Cnf> {
    proptest::collection::vec(
        proptest::collection::vec((0..max_vars, any::<bool>()), 1..4),
        0..8,
    )
    .prop_map(move |clauses| {
        let mut cnf = Cnf::new();
        for _ in 0..max_vars {
            cnf.fresh_var();
        }
        for clause in clauses {
            cnf.add_clause(
                clause
                    .into_iter()
                    .map(|(v, sign)| Lit::with_sign(Var(v), sign)),
            );
        }
        cnf
    })
}

fn truth_table_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars();
    (0u32..(1 << n)).any(|bits| {
        let assignment: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
        cnf.eval(&assignment)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// CDCL agrees with the truth table on every formula with ≤ 5 variables,
    /// and returned models actually satisfy the formula.
    #[test]
    fn cdcl_matches_truth_table(cnf in arb_cnf(5)) {
        let expected = truth_table_sat(&cnf);
        match Solver::new().solve(&cnf) {
            SatResult::Sat(model) => {
                prop_assert!(expected, "solver said Sat but no model exists");
                prop_assert!(cnf.eval(model.values()), "claimed model does not satisfy formula");
            }
            SatResult::Unsat => prop_assert!(!expected, "solver said Unsat but a model exists"),
            SatResult::Unknown => prop_assert!(false, "budget cannot be hit on 5 vars"),
        }
    }
}

// --- bitvectors --------------------------------------------------------------

#[derive(Clone, Debug)]
enum TermShape {
    X,
    Const(u64),
    Not(Box<TermShape>),
    And(Box<TermShape>, Box<TermShape>),
    Or(Box<TermShape>, Box<TermShape>),
    Xor(Box<TermShape>, Box<TermShape>),
    Add(Box<TermShape>, Box<TermShape>),
    Sub(Box<TermShape>, Box<TermShape>),
    Mul(Box<TermShape>, Box<TermShape>),
    Shl(Box<TermShape>, u32),
    Lshr(Box<TermShape>, u32),
}

fn arb_shape() -> impl Strategy<Value = TermShape> {
    let leaf = prop_oneof![Just(TermShape::X), (0u64..16).prop_map(TermShape::Const)];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| TermShape::Not(Box::new(a))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TermShape::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TermShape::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TermShape::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TermShape::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TermShape::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TermShape::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), 0u32..6).prop_map(|(a, k)| TermShape::Shl(Box::new(a), k)),
            (inner, 0u32..6).prop_map(|(a, k)| TermShape::Lshr(Box::new(a), k)),
        ]
    })
}

fn build(shape: &TermShape, width: u32) -> BvTerm {
    match shape {
        TermShape::X => BvTerm::var(SolverVar(0), width),
        TermShape::Const(v) => BvTerm::constant(*v, width),
        TermShape::Not(a) => build(a, width).not(),
        TermShape::And(a, b) => build(a, width).and(build(b, width)),
        TermShape::Or(a, b) => build(a, width).or(build(b, width)),
        TermShape::Xor(a, b) => build(a, width).xor(build(b, width)),
        TermShape::Add(a, b) => build(a, width).add(build(b, width)),
        TermShape::Sub(a, b) => build(a, width).sub(build(b, width)),
        TermShape::Mul(a, b) => build(a, width).mul(build(b, width)),
        TermShape::Shl(a, k) => build(a, width).shl(*k),
        TermShape::Lshr(a, k) => build(a, width).lshr(*k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bit-blasted solver agrees with exhaustive evaluation over all
    /// 4-bit values of the single variable: `t = c` is Sat iff some value
    /// makes it true.
    #[test]
    fn bitblasting_matches_enumeration(shape in arb_shape(), c in 0u64..16) {
        let width = 4;
        let t = build(&shape, width);
        let atom = BvAtom::eq(t, BvTerm::constant(c, width));
        let expected = (0..16u64).any(|v| atom.eval(&mut |_| Some(v)) == Some(true));
        let got = BvSolver::default().check(&[BvLit::positive(atom)]);
        prop_assert_eq!(got.is_sat(), expected);
        prop_assert_eq!(got.is_unsat(), !expected);
    }

    /// Entailment with a ≤-fact agrees with enumeration.
    #[test]
    fn bv_entailment_matches_enumeration(shape in arb_shape(), bound in 0u64..16, c in 0u64..16) {
        let width = 4;
        let t = build(&shape, width);
        let fact = BvLit::positive(BvAtom::ule(BvTerm::var(SolverVar(0), width),
                                               BvTerm::constant(bound, width)));
        let goal = BvLit::positive(BvAtom::ule(t, BvTerm::constant(c, width)));
        let expected = (0..=bound).all(|v| goal.eval(&mut |_| Some(v)) == Some(true));
        prop_assert_eq!(BvSolver::default().entails(&[fact], &goal), expected);
    }
}

// --- incremental bitvector sessions -----------------------------------------

fn arb_bvterm(width: u32) -> impl Strategy<Value = BvTerm> {
    let leaf = prop_oneof![
        (0u64..16).prop_map(move |v| BvTerm::constant(v, width)),
        (0u32..2).prop_map(move |x| BvTerm::var(SolverVar(x), width)),
    ];
    leaf.prop_recursive(2, 8, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.xor(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            inner.clone().prop_map(|a| a.not()),
        ]
    })
}

fn arb_bvlit(width: u32) -> impl Strategy<Value = BvLit> {
    (arb_bvterm(width), arb_bvterm(width), 0u8..3, any::<bool>()).prop_map(
        |(a, b, cmp, positive)| {
            let atom = match cmp {
                0 => BvAtom::eq(a, b),
                1 => BvAtom::ule(a, b),
                _ => BvAtom::ult(a, b),
            };
            if positive {
                BvLit::positive(atom)
            } else {
                BvLit::negative(atom)
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A persistent session answers a *sequence* of queries exactly like
    /// fresh one-shot solvers, despite sharing encodings, activation
    /// literals and learnt clauses across the whole sequence.
    #[test]
    fn bv_session_sequence_agrees_with_one_shot(
        queries in proptest::collection::vec(
            proptest::collection::vec(arb_bvlit(4), 0..3), 1..5),
    ) {
        use rtr_solver::bv::BvSession;
        use rtr_solver::sat::SolverConfig;
        let mut session = BvSession::new(SolverConfig::default());
        let one_shot = BvSolver::default();
        for lits in &queries {
            prop_assert_eq!(
                session.check(lits),
                one_shot.check(lits),
                "session diverged on {:?}", lits
            );
        }
    }
}
