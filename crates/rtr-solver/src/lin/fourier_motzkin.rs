//! Fourier–Motzkin elimination with integer tightening.
//!
//! The classic algorithm (Dantzig & Eaves 1973, cited by the paper) decides
//! satisfiability of a conjunction of linear inequalities by repeatedly
//! eliminating a variable: every pair of a lower and an upper bound on `x`
//! yields a resolvent without `x`. We extend the textbook procedure with the
//! standard integer strengthenings, which is what makes it useful as the
//! theory solver for *integer* vector indices:
//!
//! * strict `e < 0` over integer coefficients becomes `e + 1 ≤ 0`;
//! * each row is divided by the gcd of its variable coefficients and the
//!   constant is rounded (floor), cutting off rational-only solutions;
//! * equalities are eliminated by exact Gaussian substitution, after a gcd
//!   divisibility test;
//! * disequalities `e ≠ 0` are case-split into `e ≤ -1 ∨ e ≥ 1`.
//!
//! The procedure is sound for `Unsat` over the integers and may answer `Sat`
//! for integer-infeasible systems whose rational relaxation (after
//! tightening) is feasible — the conservative direction for a type checker
//! that only consumes `Unsat` as proof.

use std::collections::HashSet;

use super::constraint::{Cmp, Constraint};
use super::linexpr::LinExpr;
use super::{LinResult, SolverVar};
use crate::rational::Rat;

/// Resource budget for [`FourierMotzkin`]. Integer tightening is always
/// on: without it the procedure is the rational one, which answers `Sat`
/// on integer-infeasible rows such as `2x = 1`.
#[derive(Clone, Copy, Debug)]
pub struct FmConfig {
    /// Maximum number of rows the eliminator may materialize before giving
    /// up with [`LinResult::Unknown`].
    pub max_rows: usize,
    /// Maximum number of disequality case-splits (the search explores at
    /// most `2^max_splits` branches).
    pub max_splits: usize,
}

impl Default for FmConfig {
    fn default() -> FmConfig {
        FmConfig {
            max_rows: 50_000,
            max_splits: 8,
        }
    }
}

/// The Fourier–Motzkin decision procedure.
///
/// # Examples
///
/// ```
/// use rtr_solver::lin::{Constraint, FourierMotzkin, LinExpr, SolverVar};
///
/// let i = LinExpr::var(SolverVar(0));
/// let len = LinExpr::var(SolverVar(1));
/// // 0 ≤ i ∧ i < len ∧ len ≤ i   is unsatisfiable.
/// let cs = [
///     Constraint::ge(i.clone(), LinExpr::constant(0)),
///     Constraint::lt(i.clone(), len.clone()),
///     Constraint::le(len, i),
/// ];
/// assert!(FourierMotzkin::default().check(&cs).is_unsat());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FourierMotzkin {
    config: FmConfig,
    /// Optional wall-clock cutoff: once reached, in-flight eliminations
    /// return [`LinResult::Unknown`] (the conservative verdict) instead of
    /// running to their row budget.
    deadline: Option<std::time::Instant>,
}

impl FourierMotzkin {
    /// Creates a solver with the given configuration.
    pub fn new(config: FmConfig) -> FourierMotzkin {
        FourierMotzkin {
            config,
            deadline: None,
        }
    }

    /// Installs (or clears) a wall-clock deadline. Past it, queries degrade
    /// to [`LinResult::Unknown`] rather than being cut off mid-verdict.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    fn past_deadline(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// Decides satisfiability of the conjunction of `constraints` over the
    /// integers (conservatively; see module docs).
    pub fn check(&self, constraints: &[Constraint]) -> LinResult {
        self.check_split(constraints.to_vec(), self.config.max_splits)
    }

    /// Returns `true` when `facts` entail `goal`, i.e. `facts ∧ ¬goal` is
    /// unsatisfiable. This is the only judgment the type checker trusts.
    pub fn entails(&self, facts: &[Constraint], goal: &Constraint) -> bool {
        let mut cs = facts.to_vec();
        cs.push(goal.negate());
        self.check(&cs).is_unsat()
    }

    fn check_split(&self, constraints: Vec<Constraint>, splits_left: usize) -> LinResult {
        // Pull out the first disequality and case-split on it.
        if let Some(pos) = constraints.iter().position(|c| c.cmp == Cmp::Ne) {
            if splits_left == 0 {
                return LinResult::Unknown;
            }
            let mut rest = constraints;
            let ne = rest.swap_remove(pos);
            // e ≠ 0  ⇒  e ≤ -1 ∨ e ≥ 1  (integer-valued e).
            let lo = Constraint {
                expr: ne.expr.add(&LinExpr::constant(1)),
                cmp: Cmp::Le,
            };
            let hi = Constraint {
                expr: ne.expr.scale(Rat::from_int(-1)).add(&LinExpr::constant(1)),
                cmp: Cmp::Le,
            };
            let mut lhs = rest.clone();
            lhs.push(lo);
            match self.check_split(lhs, splits_left - 1) {
                LinResult::Sat => return LinResult::Sat,
                LinResult::Unsat => {}
                LinResult::Unknown => return LinResult::Unknown,
            }
            let mut rhs = rest;
            rhs.push(hi);
            return self.check_split(rhs, splits_left - 1);
        }
        self.eliminate(constraints)
    }

    /// Core loop over a disequality-free system.
    fn eliminate(&self, constraints: Vec<Constraint>) -> LinResult {
        let mut rows: Vec<Constraint> = Vec::with_capacity(constraints.len());
        for c in constraints {
            match self.tighten(c) {
                Tightened::True => {}
                Tightened::False => return LinResult::Unsat,
                Tightened::Row(c) => rows.push(c),
                Tightened::Overflow => return LinResult::Unknown,
            }
        }

        loop {
            if self.past_deadline() {
                return LinResult::Unknown;
            }
            // Gaussian elimination of equalities first: cheap and exact.
            if let Some(pos) = rows
                .iter()
                .position(|c| c.cmp == Cmp::Eq && !c.expr.is_constant())
            {
                let eq = rows.swap_remove(pos);
                // Integer gcd test: Σ aᵢxᵢ + c = 0 with integer aᵢ is
                // infeasible when gcd(aᵢ) ∤ c.
                if gcd_test_infeasible(&eq.expr) {
                    return LinResult::Unsat;
                }
                // Solve for the variable with the smallest absolute
                // coefficient to keep numbers small.
                let (x, a) = eq
                    .expr
                    .iter()
                    .min_by_key(|&(_, c)| c.abs())
                    .expect("non-constant equality has a variable");
                // x = -(rest)/a
                let mut rest = eq.expr.clone();
                rest.add_term(a.checked_neg().expect("coefficient overflow"), x);
                let Some(solution) = a
                    .checked_recip()
                    .and_then(|ra| rest.checked_scale(ra.checked_neg()?))
                else {
                    return LinResult::Unknown;
                };
                let mut next = Vec::with_capacity(rows.len());
                for c in rows.drain(..) {
                    let Some(expr) = c.expr.substitute(x, &solution) else {
                        return LinResult::Unknown;
                    };
                    match self.tighten(Constraint { expr, cmp: c.cmp }) {
                        Tightened::True => {}
                        Tightened::False => return LinResult::Unsat,
                        Tightened::Row(c) => next.push(c),
                        Tightened::Overflow => return LinResult::Unknown,
                    }
                }
                rows = next;
                continue;
            }

            // Pick the variable whose elimination produces the fewest
            // resolvents (classic heuristic: minimize |lower|·|upper|).
            let Some(x) = self.cheapest_variable(&rows) else {
                // No variables left; all rows are constant and tighten()
                // already removed the true ones and caught the false ones —
                // but rows produced by resolution are checked here.
                for c in &rows {
                    if c.constant_truth() == Some(false) {
                        return LinResult::Unsat;
                    }
                }
                return LinResult::Sat;
            };

            let mut lower = Vec::new(); // coeff(x) < 0  ⇒  x ≥ …
            let mut upper = Vec::new(); // coeff(x) > 0  ⇒  x ≤ …
            let mut rest = Vec::new();
            for c in rows.drain(..) {
                let a = c.expr.coeff(x);
                if a.is_zero() {
                    rest.push(c);
                } else if a.is_positive() {
                    upper.push(c);
                } else {
                    lower.push(c);
                }
            }

            let mut seen: HashSet<Constraint> = rest.iter().cloned().collect();
            for lo in &lower {
                for up in &upper {
                    let a = up.expr.coeff(x); // > 0
                    let b = lo.expr.coeff(x).abs(); // > 0 after abs
                                                    // resolvent: b·up + a·lo  (x cancels)
                    let Some(expr) = up
                        .expr
                        .checked_scale(b)
                        .and_then(|l| lo.expr.checked_scale(a).and_then(|r| l.checked_add(&r)))
                    else {
                        return LinResult::Unknown;
                    };
                    let cmp = match (up.cmp, lo.cmp) {
                        (Cmp::Le, Cmp::Le) => Cmp::Le,
                        _ => Cmp::Lt,
                    };
                    match self.tighten(Constraint { expr, cmp }) {
                        Tightened::True => {}
                        Tightened::False => return LinResult::Unsat,
                        Tightened::Row(c) => {
                            if seen.insert(c.clone()) {
                                rest.push(c);
                            }
                        }
                        Tightened::Overflow => return LinResult::Unknown,
                    }
                    if rest.len() > self.config.max_rows {
                        return LinResult::Unknown;
                    }
                }
            }
            rows = rest;
        }
    }

    fn cheapest_variable(&self, rows: &[Constraint]) -> Option<SolverVar> {
        let mut counts: std::collections::BTreeMap<SolverVar, (usize, usize)> =
            std::collections::BTreeMap::new();
        for c in rows {
            for (x, a) in c.expr.iter() {
                let e = counts.entry(x).or_insert((0, 0));
                if a.is_positive() {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
        }
        counts
            .into_iter()
            .min_by_key(|&(_, (up, lo))| up * lo)
            .map(|(x, _)| x)
    }

    /// Normalizes a row: clears denominators, converts strict to non-strict
    /// over ℤ, divides by the coefficient gcd and rounds the constant.
    fn tighten(&self, c: Constraint) -> Tightened {
        if let Some(truth) = c.constant_truth() {
            return if truth {
                Tightened::True
            } else {
                Tightened::False
            };
        }
        if c.cmp == Cmp::Ne {
            return Tightened::Row(c); // split later, keep exact
        }
        // Clear denominators: multiply by lcm of all denominators.
        let mut lcm: i128 = 1;
        for (_, a) in c.expr.iter() {
            lcm = match lcm.checked_mul(a.denom() / gcd_i128(lcm, a.denom())) {
                Some(v) => v,
                None => return Tightened::Overflow,
            };
        }
        lcm = match lcm.checked_mul(
            c.expr.constant_part().denom() / gcd_i128(lcm, c.expr.constant_part().denom()),
        ) {
            Some(v) => v,
            None => return Tightened::Overflow,
        };
        let Some(mut expr) = c.expr.checked_scale(Rat::from_int(lcm)) else {
            return Tightened::Overflow;
        };
        let mut cmp = c.cmp;
        // Strict over integers: e < 0 ⇔ e + 1 ≤ 0.
        if cmp == Cmp::Lt {
            expr = match expr.checked_add(&LinExpr::constant(1)) {
                Some(e) => e,
                None => return Tightened::Overflow,
            };
            cmp = Cmp::Le;
        }
        // Divide by gcd of variable coefficients, rounding the constant.
        let mut g: i128 = 0;
        for (_, a) in expr.iter() {
            debug_assert!(a.is_integer());
            g = gcd_i128(g, a.numer().abs());
        }
        if g > 1 {
            match cmp {
                Cmp::Le => {
                    // Σaᵢxᵢ + c ≤ 0  ⇔  Σ(aᵢ/g)xᵢ ≤ floor(-c/g)  ⇔  … + ceil(c/g) ≤ 0
                    let c0 = expr.constant_part();
                    let scaled_c = Rat::new(c0.numer(), 1)
                        .checked_div(Rat::from_int(g))
                        .map(|r| Rat::from_int(r.ceil_int()));
                    let Some(new_c) = scaled_c else {
                        return Tightened::Overflow;
                    };
                    let terms: Vec<_> = expr
                        .iter()
                        .map(|(x, a)| (Rat::from_int(a.numer() / g), x))
                        .collect();
                    expr = LinExpr::from_terms(terms, new_c);
                }
                Cmp::Eq => {
                    if gcd_test_infeasible(&expr) {
                        return Tightened::False;
                    }
                    let c0 = expr.constant_part();
                    let terms: Vec<_> = expr
                        .iter()
                        .map(|(x, a)| (Rat::from_int(a.numer() / g), x))
                        .collect();
                    expr = LinExpr::from_terms(terms, Rat::from_int(c0.numer() / g));
                }
                Cmp::Lt | Cmp::Ne => unreachable!("Lt rewritten above; Ne returned early"),
            }
        } else if cmp == Cmp::Eq && gcd_test_infeasible(&expr) {
            return Tightened::False;
        }
        if let Some(truth) = (Constraint {
            expr: expr.clone(),
            cmp,
        })
        .constant_truth()
        {
            return if truth {
                Tightened::True
            } else {
                Tightened::False
            };
        }
        Tightened::Row(Constraint { expr, cmp })
    }
}

enum Tightened {
    True,
    False,
    Row(Constraint),
    Overflow,
}

fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// For `Σ aᵢxᵢ + c = 0` with integer coefficients: infeasible over ℤ when
/// `gcd(aᵢ) ∤ c`.
fn gcd_test_infeasible(expr: &LinExpr) -> bool {
    let mut g: i128 = 0;
    for (_, a) in expr.iter() {
        if !a.is_integer() {
            return false;
        }
        g = gcd_i128(g, a.numer());
    }
    let c = expr.constant_part();
    if !c.is_integer() {
        return false;
    }
    g != 0 && c.numer() % g != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lin::SolverVar;

    fn v(i: u32) -> LinExpr {
        LinExpr::var(SolverVar(i))
    }
    fn k(n: i64) -> LinExpr {
        LinExpr::constant(n)
    }
    fn fm() -> FourierMotzkin {
        FourierMotzkin::default()
    }

    #[test]
    fn trivial_sat_unsat() {
        assert!(fm().check(&[]).is_sat());
        assert!(fm().check(&[Constraint::le(k(0), k(1))]).is_sat());
        assert!(fm().check(&[Constraint::lt(k(1), k(0))]).is_unsat());
    }

    #[test]
    fn single_variable_bounds() {
        // 0 ≤ x ∧ x < 0 : unsat
        let cs = [Constraint::ge(v(0), k(0)), Constraint::lt(v(0), k(0))];
        assert!(fm().check(&cs).is_unsat());
        // 0 ≤ x ∧ x ≤ 0 : sat (x = 0)
        let cs = [Constraint::ge(v(0), k(0)), Constraint::le(v(0), k(0))];
        assert!(fm().check(&cs).is_sat());
    }

    #[test]
    fn integer_tightening_cuts_rational_gap() {
        // 1 ≤ 2x ∧ 2x ≤ 1 has the rational solution x = 1/2 but no integer
        // solution; the gcd rounding must detect it.
        let two_x = v(0).scale(Rat::from_int(2));
        let cs = [
            Constraint::ge(two_x.clone(), k(1)),
            Constraint::le(two_x, k(1)),
        ];
        assert!(fm().check(&cs).is_unsat());
    }

    #[test]
    fn strict_bounds_over_integers() {
        // 0 < x ∧ x < 2 : sat only at x = 1.
        let cs = [Constraint::gt(v(0), k(0)), Constraint::lt(v(0), k(2))];
        assert!(fm().check(&cs).is_sat());
        // 0 < x ∧ x < 1 : unsat over the integers (sat over rationals!).
        let cs = [Constraint::gt(v(0), k(0)), Constraint::lt(v(0), k(1))];
        assert!(fm().check(&cs).is_unsat());
    }

    #[test]
    fn equalities_gauss() {
        // x = y ∧ y = 3 ∧ x ≤ 2 : unsat
        let cs = [
            Constraint::eq(v(0), v(1)),
            Constraint::eq(v(1), k(3)),
            Constraint::le(v(0), k(2)),
        ];
        assert!(fm().check(&cs).is_unsat());
    }

    #[test]
    fn gcd_test() {
        // 2x + 4y = 1 : infeasible over ℤ.
        let e = v(0)
            .scale(Rat::from_int(2))
            .add(&v(1).scale(Rat::from_int(4)));
        let cs = [Constraint::eq(e, k(1))];
        assert!(fm().check(&cs).is_unsat());
    }

    #[test]
    fn disequality_split() {
        // 0 ≤ x ≤ 1 ∧ x ≠ 0 ∧ x ≠ 1 : unsat.
        let cs = [
            Constraint::ge(v(0), k(0)),
            Constraint::le(v(0), k(1)),
            Constraint::ne(v(0), k(0)),
            Constraint::ne(v(0), k(1)),
        ];
        assert!(fm().check(&cs).is_unsat());
        // 0 ≤ x ≤ 2 ∧ x ≠ 0 ∧ x ≠ 2 : sat (x = 1).
        let cs = [
            Constraint::ge(v(0), k(0)),
            Constraint::le(v(0), k(2)),
            Constraint::ne(v(0), k(0)),
            Constraint::ne(v(0), k(2)),
        ];
        assert!(fm().check(&cs).is_sat());
    }

    #[test]
    fn vector_bounds_entailment() {
        // Facts: 0 ≤ i, i < len(A), len(A) = len(B)  ⊢  i < len(B).
        let i = || v(0);
        let len_a = || v(1);
        let len_b = || v(2);
        let facts = [
            Constraint::ge(i(), k(0)),
            Constraint::lt(i(), len_a()),
            Constraint::eq(len_a(), len_b()),
        ];
        let goal = Constraint::lt(i(), len_b());
        assert!(fm().entails(&facts, &goal));
        // Without the equality the entailment must fail.
        let weak = [Constraint::ge(i(), k(0)), Constraint::lt(i(), len_a())];
        assert!(!fm().entails(&weak, &goal));
    }

    #[test]
    fn multi_variable_chain() {
        // x ≤ y ∧ y ≤ z ∧ z ≤ x ∧ x ≤ 5 ∧ 5 ≤ x ⊢ y = 5.
        let facts = [
            Constraint::le(v(0), v(1)),
            Constraint::le(v(1), v(2)),
            Constraint::le(v(2), v(0)),
            Constraint::le(v(0), k(5)),
            Constraint::ge(v(0), k(5)),
        ];
        assert!(fm().entails(&facts, &Constraint::eq(v(1), k(5))));
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        let tiny = FourierMotzkin::new(FmConfig {
            max_splits: 0,
            ..FmConfig::default()
        });
        let cs = [Constraint::ne(v(0), k(0))];
        assert_eq!(tiny.check(&cs), LinResult::Unknown);
    }

    #[test]
    fn unconstrained_variables_are_sat() {
        let cs = [Constraint::le(v(0), v(1)), Constraint::le(v(2), v(3))];
        assert!(fm().check(&cs).is_sat());
    }
}
