//! Linear integer arithmetic: expressions, constraints, and a
//! Fourier–Motzkin decision procedure.
//!
//! This is the "lightweight solver" the paper attaches to λ_RTR for the
//! theory of linear integer inequalities (§2.1): *"we can extend our new
//! system to consider propositions from the theory of linear integer
//! arithmetic (with a simple implementation of Fourier-Motzkin elimination
//! as a lightweight solver)"*.
//!
//! The pipeline is:
//!
//! 1. Callers build [`LinExpr`]s over opaque [`SolverVar`]s and combine them
//!    into [`Constraint`]s (`e ≤ 0`, `e < 0`, `e = 0`, `e ≠ 0`).
//! 2. [`FourierMotzkin::check`] decides satisfiability of a conjunction over
//!    the **integers**, conservatively: `Unsat` is a proof, `Sat` means a
//!    rational model exists after integer tightening (sound for the prover
//!    direction, see below), `Unknown` means a resource bound was hit.
//!
//! The prover use-site in `rtr-core` asks "do the facts entail the goal?" by
//! checking `facts ∧ ¬goal` for unsatisfiability, so only `Unsat` answers
//! are ever used as proofs; incompleteness merely makes the type checker
//! conservative, exactly as in the paper.
//!
//! # Examples
//!
//! ```
//! use rtr_solver::lin::{Constraint, FourierMotzkin, LinExpr, SolverVar};
//!
//! let x = SolverVar(0);
//! let i = LinExpr::var(x);
//! // i >= 0 and i < 0 is unsatisfiable.
//! let cs = [Constraint::ge(i.clone(), LinExpr::constant(0)),
//!           Constraint::lt(i, LinExpr::constant(0))];
//! assert!(FourierMotzkin::default().check(&cs).is_unsat());
//! ```

mod brute;
mod constraint;
mod fourier_motzkin;
mod linexpr;

pub use brute::BruteForce;
pub use constraint::{Cmp, Constraint};
pub use fourier_motzkin::{FmConfig, FourierMotzkin};
pub use linexpr::LinExpr;

/// An opaque solver variable.
///
/// The type checker maps each symbolic object path (e.g. `x`, `(len v)`) to
/// a distinct `SolverVar` before handing constraints to the solver; the
/// solver itself knows nothing about programs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SolverVar(pub u32);

impl std::fmt::Display for SolverVar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Verdict of a satisfiability check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinResult {
    /// A model exists (over the rationals after integer tightening; see
    /// module docs for the soundness discussion).
    Sat,
    /// No integer model exists. This verdict is a proof.
    Unsat,
    /// The solver gave up (resource budget exhausted or arithmetic
    /// overflow). Callers must treat this as "not proved".
    Unknown,
}

impl LinResult {
    /// Returns `true` for [`LinResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        self == LinResult::Unsat
    }

    /// Returns `true` for [`LinResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == LinResult::Sat
    }
}
