//! Linear expressions `c + Σ aᵢ·xᵢ` with exact rational coefficients.

use std::fmt;

use super::SolverVar;
use crate::rational::Rat;

/// A linear expression `constant + Σ coeffᵢ · varᵢ`.
///
/// Terms are kept in a `Vec` sorted by variable with no zero
/// coefficients, so structural equality is semantic equality. The flat
/// representation costs one allocation per expression instead of one per
/// term (the systems the checker poses have a handful of variables, and
/// Fourier–Motzkin clones rows constantly — this is the solver's hottest
/// data structure).
///
/// # Examples
///
/// ```
/// use rtr_solver::lin::{LinExpr, SolverVar};
/// use rtr_solver::rational::Rat;
///
/// // 2x + 3
/// let e = LinExpr::var(SolverVar(0)).scale(Rat::from_int(2)).add(&LinExpr::constant(3));
/// assert_eq!(e.coeff(SolverVar(0)), Rat::from_int(2));
/// assert_eq!(e.constant_part(), Rat::from_int(3));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct LinExpr {
    /// Sorted by variable; no zero coefficients.
    terms: Vec<(SolverVar, Rat)>,
    constant: Rat,
}

impl LinExpr {
    /// The constant expression `n`.
    pub fn constant(n: i64) -> LinExpr {
        LinExpr {
            terms: Vec::new(),
            constant: Rat::from(n),
        }
    }

    /// The expression `1·x`.
    pub fn var(x: SolverVar) -> LinExpr {
        LinExpr {
            terms: vec![(x, Rat::ONE)],
            constant: Rat::ZERO,
        }
    }

    /// Builds an expression from `(coeff, var)` pairs plus a constant.
    pub fn from_terms<I>(terms: I, constant: Rat) -> LinExpr
    where
        I: IntoIterator<Item = (Rat, SolverVar)>,
    {
        let mut e = LinExpr {
            terms: Vec::new(),
            constant,
        };
        for (c, x) in terms {
            e.add_term(c, x);
        }
        e
    }

    /// Adds `coeff·x` in place, dropping the term if it cancels to zero.
    pub fn add_term(&mut self, coeff: Rat, x: SolverVar) {
        if coeff.is_zero() {
            return;
        }
        match self.terms.binary_search_by(|(v, _)| v.cmp(&x)) {
            Ok(i) => {
                let c = self.terms[i]
                    .1
                    .checked_add(coeff)
                    .expect("linear-expression coefficient overflow");
                if c.is_zero() {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = c;
                }
            }
            Err(i) => self.terms.insert(i, (x, coeff)),
        }
    }

    /// The coefficient of `x` (zero if absent).
    pub fn coeff(&self, x: SolverVar) -> Rat {
        match self.terms.binary_search_by(|(v, _)| v.cmp(&x)) {
            Ok(i) => self.terms[i].1,
            Err(_) => Rat::ZERO,
        }
    }

    /// The constant part.
    pub fn constant_part(&self) -> Rat {
        self.constant
    }

    /// Iterates over the non-zero `(var, coeff)` terms in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (SolverVar, Rat)> + '_ {
        self.terms.iter().copied()
    }

    /// Returns `true` if the expression has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The set of variables mentioned.
    pub fn vars(&self) -> impl Iterator<Item = SolverVar> + '_ {
        self.terms.iter().map(|&(x, _)| x)
    }

    /// Pointwise sum.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        self.checked_add(other).expect("linear-expression overflow")
    }

    /// Pointwise sum, `None` on coefficient overflow (a sorted merge).
    pub fn checked_add(&self, other: &LinExpr) -> Option<LinExpr> {
        let constant = self.constant.checked_add(other.constant)?;
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            let (xa, ca) = self.terms[i];
            let (xb, cb) = other.terms[j];
            match xa.cmp(&xb) {
                std::cmp::Ordering::Less => {
                    terms.push((xa, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    terms.push((xb, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = ca.checked_add(cb)?;
                    if !c.is_zero() {
                        terms.push((xa, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend_from_slice(&self.terms[i..]);
        terms.extend_from_slice(&other.terms[j..]);
        Some(LinExpr { terms, constant })
    }

    /// Pointwise difference.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(Rat::from_int(-1)))
    }

    /// Scales every coefficient and the constant by `k`.
    pub fn scale(&self, k: Rat) -> LinExpr {
        self.checked_scale(k).expect("linear-expression overflow")
    }

    /// Scales by `k`, `None` on overflow.
    pub fn checked_scale(&self, k: Rat) -> Option<LinExpr> {
        if k.is_zero() {
            return Some(LinExpr::default());
        }
        let mut terms = Vec::with_capacity(self.terms.len());
        for (x, c) in self.iter() {
            terms.push((x, c.checked_mul(k)?));
        }
        Some(LinExpr {
            terms,
            constant: self.constant.checked_mul(k)?,
        })
    }

    /// Substitutes `x := e` (used for Gaussian elimination of equalities).
    pub fn substitute(&self, x: SolverVar, e: &LinExpr) -> Option<LinExpr> {
        let c = self.coeff(x);
        if c.is_zero() {
            return Some(self.clone());
        }
        let mut rest = self.clone();
        rest.terms.retain(|&(v, _)| v != x);
        rest.checked_add(&e.checked_scale(c)?)
    }

    /// Evaluates under an assignment; variables absent from the assignment
    /// default to zero.
    pub fn eval<F>(&self, mut lookup: F) -> Option<Rat>
    where
        F: FnMut(SolverVar) -> Rat,
    {
        let mut acc = self.constant;
        for (x, c) in self.iter() {
            acc = acc.checked_add(c.checked_mul(lookup(x))?)?;
        }
        Some(acc)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (x, c) in self.iter() {
            if first {
                write!(f, "{c}·{x}")?;
                first = false;
            } else if c.is_negative() {
                write!(f, " - {}·{x}", c.abs())?;
            } else {
                write!(f, " + {c}·{x}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)
        } else if self.constant.is_zero() {
            Ok(())
        } else if self.constant.is_negative() {
            write!(f, " - {}", self.constant.abs())
        } else {
            write!(f, " + {}", self.constant)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> SolverVar {
        SolverVar(0)
    }
    fn y() -> SolverVar {
        SolverVar(1)
    }

    #[test]
    fn construction_cancels_zeros() {
        let mut e = LinExpr::var(x());
        e.add_term(Rat::from_int(-1), x());
        assert!(e.is_constant());
        assert_eq!(e, LinExpr::constant(0));
    }

    #[test]
    fn add_sub_scale() {
        let e = LinExpr::var(x())
            .scale(Rat::from_int(2))
            .add(&LinExpr::constant(3));
        let f = LinExpr::var(x()).add(&LinExpr::var(y()));
        let sum = e.add(&f);
        assert_eq!(sum.coeff(x()), Rat::from_int(3));
        assert_eq!(sum.coeff(y()), Rat::ONE);
        assert_eq!(sum.constant_part(), Rat::from_int(3));
        let diff = sum.sub(&f);
        assert_eq!(diff, e);
        assert_eq!(e.scale(Rat::ZERO), LinExpr::constant(0));
    }

    #[test]
    fn substitution() {
        // (2x + y + 1)[x := y - 1] = 3y - 1
        let e = LinExpr::from_terms([(Rat::from_int(2), x()), (Rat::ONE, y())], Rat::ONE);
        let repl = LinExpr::var(y()).add(&LinExpr::constant(-1));
        let got = e.substitute(x(), &repl).unwrap();
        assert_eq!(got.coeff(x()), Rat::ZERO);
        assert_eq!(got.coeff(y()), Rat::from_int(3));
        assert_eq!(got.constant_part(), Rat::from_int(-1));
    }

    #[test]
    fn eval() {
        let e = LinExpr::from_terms(
            [(Rat::from_int(2), x()), (Rat::from_int(-1), y())],
            Rat::from_int(5),
        );
        let v = e
            .eval(|v| {
                if v == x() {
                    Rat::from_int(3)
                } else {
                    Rat::from_int(4)
                }
            })
            .unwrap();
        assert_eq!(v, Rat::from_int(7));
    }

    #[test]
    fn display() {
        let e = LinExpr::from_terms(
            [(Rat::from_int(2), x()), (Rat::from_int(-1), y())],
            Rat::from_int(-5),
        );
        assert_eq!(e.to_string(), "2·v0 - 1·v1 - 5");
        assert_eq!(LinExpr::constant(0).to_string(), "0");
    }
}
