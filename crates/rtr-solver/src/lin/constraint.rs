//! Linear constraints in the normal form `e ⋈ 0`.

use std::fmt;

use super::linexpr::LinExpr;
use crate::rational::Rat;

/// Comparison operator of a normalized constraint `e ⋈ 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cmp {
    /// `e ≤ 0`
    Le,
    /// `e < 0`
    Lt,
    /// `e = 0`
    Eq,
    /// `e ≠ 0` (arises from negated equalities; the solver case-splits it)
    Ne,
}

/// A linear constraint `expr ⋈ 0` over integer-valued variables.
///
/// Constructors take the intuitive two-sided form and normalize, e.g.
/// [`Constraint::le(a, b)`](Constraint::le) represents `a - b ≤ 0`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Constraint {
    /// Left-hand side; the relation is `expr ⋈ 0`.
    pub expr: LinExpr,
    /// The relation against zero.
    pub cmp: Cmp,
}

impl Constraint {
    /// `a ≤ b`.
    pub fn le(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint {
            expr: a.sub(&b),
            cmp: Cmp::Le,
        }
    }

    /// `a < b`.
    pub fn lt(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint {
            expr: a.sub(&b),
            cmp: Cmp::Lt,
        }
    }

    /// `a ≥ b`.
    pub fn ge(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::le(b, a)
    }

    /// `a > b`.
    pub fn gt(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint::lt(b, a)
    }

    /// `a = b`.
    pub fn eq(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint {
            expr: a.sub(&b),
            cmp: Cmp::Eq,
        }
    }

    /// `a ≠ b`.
    pub fn ne(a: LinExpr, b: LinExpr) -> Constraint {
        Constraint {
            expr: a.sub(&b),
            cmp: Cmp::Ne,
        }
    }

    /// The logical negation of this constraint (`¬(e ≤ 0)` is `e > 0`, etc.).
    pub fn negate(&self) -> Constraint {
        match self.cmp {
            Cmp::Le => Constraint {
                expr: self.expr.scale(Rat::from_int(-1)),
                cmp: Cmp::Lt,
            },
            Cmp::Lt => Constraint {
                expr: self.expr.scale(Rat::from_int(-1)),
                cmp: Cmp::Le,
            },
            Cmp::Eq => Constraint {
                expr: self.expr.clone(),
                cmp: Cmp::Ne,
            },
            Cmp::Ne => Constraint {
                expr: self.expr.clone(),
                cmp: Cmp::Eq,
            },
        }
    }

    /// Evaluates the constraint under an integer assignment.
    pub fn holds<F>(&self, lookup: F) -> Option<bool>
    where
        F: FnMut(super::SolverVar) -> Rat,
    {
        let v = self.expr.eval(lookup)?;
        Some(match self.cmp {
            Cmp::Le => v <= Rat::ZERO,
            Cmp::Lt => v < Rat::ZERO,
            Cmp::Eq => v.is_zero(),
            Cmp::Ne => !v.is_zero(),
        })
    }

    /// If the constraint has no variables, returns its truth value.
    pub fn constant_truth(&self) -> Option<bool> {
        if !self.expr.is_constant() {
            return None;
        }
        let c = self.expr.constant_part();
        Some(match self.cmp {
            Cmp::Le => c <= Rat::ZERO,
            Cmp::Lt => c < Rat::ZERO,
            Cmp::Eq => c.is_zero(),
            Cmp::Ne => !c.is_zero(),
        })
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.cmp {
            Cmp::Le => "≤",
            Cmp::Lt => "<",
            Cmp::Eq => "=",
            Cmp::Ne => "≠",
        };
        write!(f, "{} {op} 0", self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lin::SolverVar;

    fn x() -> LinExpr {
        LinExpr::var(SolverVar(0))
    }

    #[test]
    fn normal_forms() {
        // x <= 5  ==>  x - 5 <= 0
        let c = Constraint::le(x(), LinExpr::constant(5));
        assert_eq!(c.cmp, Cmp::Le);
        assert_eq!(c.expr.constant_part(), Rat::from_int(-5));
        // x > 2  ==>  2 - x < 0
        let c = Constraint::gt(x(), LinExpr::constant(2));
        assert_eq!(c.cmp, Cmp::Lt);
        assert_eq!(c.expr.coeff(SolverVar(0)), Rat::from_int(-1));
    }

    #[test]
    fn negation_is_involutive_on_truth() {
        let c = Constraint::le(x(), LinExpr::constant(5));
        let n = c.negate();
        // x = 5 satisfies c, falsifies ¬c.
        let at5 = |_| Rat::from_int(5);
        assert_eq!(c.holds(at5), Some(true));
        assert_eq!(n.holds(at5), Some(false));
        // x = 6 falsifies c, satisfies ¬c.
        let at6 = |_| Rat::from_int(6);
        assert_eq!(c.holds(at6), Some(false));
        assert_eq!(n.holds(at6), Some(true));
    }

    #[test]
    fn constant_truth() {
        let t = Constraint::le(LinExpr::constant(1), LinExpr::constant(2));
        assert_eq!(t.constant_truth(), Some(true));
        let f = Constraint::eq(LinExpr::constant(1), LinExpr::constant(2));
        assert_eq!(f.constant_truth(), Some(false));
        let open = Constraint::le(x(), LinExpr::constant(2));
        assert_eq!(open.constant_truth(), None);
    }

    #[test]
    fn display() {
        let c = Constraint::lt(x(), LinExpr::constant(3));
        assert_eq!(c.to_string(), "1·v0 - 3 < 0");
    }
}
