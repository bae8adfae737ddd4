//! Lowering bitvector terms to CNF (Tseitin encoding).
//!
//! Every term is translated to a vector of SAT literals, least significant
//! bit first, with auxiliary gate variables and defining clauses appended
//! to the shared [`Cnf`]. Identical subterms are translated once
//! (hash-consing on the term structure), which matters for the shift-add
//! multiplier's repeated partial sums.

use super::term::{BvAtom, BvLit, BvTerm, Node};
use crate::fxhash::FxHashMap;
use crate::lin::SolverVar;
use crate::sat::{Cnf, Lit};

/// Error raised when a query exceeds the blaster's structural budget.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlastBudgetExceeded;

impl std::fmt::Display for BlastBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bit-blasting budget exceeded")
    }
}

impl std::error::Error for BlastBudgetExceeded {}

/// The reusable half of the blaster: variable bit assignments, the
/// term→bits hash-consing cache, and the reified constant-true literal.
/// Splitting this from the CNF borrow lets a session keep the state (and
/// with it every already-encoded term's clause block) alive across
/// queries — repeated goals over the same terms skip re-encoding
/// entirely (see [`crate::bv::BvSession`]).
#[derive(Clone, Debug, Default)]
pub struct BlastState {
    vars: FxHashMap<(SolverVar, u32), Vec<Lit>>,
    cache: FxHashMap<BvTerm, Vec<Lit>>,
    true_lit: Option<Lit>,
}

/// Incremental bit-blaster over a shared CNF.
pub struct BitBlaster<'a> {
    cnf: &'a mut Cnf,
    state: &'a mut BlastState,
    max_aux_vars: u32,
}

impl<'a> BitBlaster<'a> {
    /// Creates a blaster appending to `cnf`, reusing (and extending) the
    /// encodings cached in `state`. `state` must only ever be paired with
    /// this same `cnf` — its literals index that CNF's variables.
    pub fn new(cnf: &'a mut Cnf, state: &'a mut BlastState) -> BitBlaster<'a> {
        BitBlaster {
            cnf,
            state,
            max_aux_vars: 1_000_000,
        }
    }

    /// A literal constrained to be true.
    fn constant_true(&mut self) -> Lit {
        if let Some(t) = self.state.true_lit {
            return t;
        }
        let v = self.cnf.fresh_var();
        let t = Lit::pos(v);
        self.cnf.add_clause([t]);
        self.state.true_lit = Some(t);
        t
    }

    fn constant_false(&mut self) -> Lit {
        !self.constant_true()
    }

    /// Is `l` the reified constant-true (`Some(true)`) or constant-false
    /// (`Some(false)`) literal? Enables gate-level constant propagation:
    /// circuits over constant operands (multiplying by a literal, masking
    /// with `#xff`, comparing against a bound) fold into wiring instead
    /// of Tseitin gates, which shrinks both the encoding and the CDCL
    /// search space by orders of magnitude on constant-heavy queries.
    fn as_const(&self, l: Lit) -> Option<bool> {
        let t = self.state.true_lit?;
        if l == t {
            Some(true)
        } else if l == !t {
            Some(false)
        } else {
            None
        }
    }

    fn fresh(&mut self) -> Result<Lit, BlastBudgetExceeded> {
        if self.cnf.num_vars() > self.max_aux_vars {
            return Err(BlastBudgetExceeded);
        }
        Ok(Lit::pos(self.cnf.fresh_var()))
    }

    // --- gate library (with constant/structural simplification) ----------

    fn gate_not(&mut self, a: Lit) -> Lit {
        !a
    }

    fn gate_and(&mut self, a: Lit, b: Lit) -> Result<Lit, BlastBudgetExceeded> {
        match (self.as_const(a), self.as_const(b)) {
            (Some(false), _) | (_, Some(false)) => return Ok(self.constant_false()),
            (Some(true), _) => return Ok(b),
            (_, Some(true)) => return Ok(a),
            _ => {}
        }
        if a == b {
            return Ok(a);
        }
        if a == !b {
            return Ok(self.constant_false());
        }
        let o = self.fresh()?;
        self.cnf.add_clause([!o, a]);
        self.cnf.add_clause([!o, b]);
        self.cnf.add_clause([o, !a, !b]);
        Ok(o)
    }

    fn gate_or(&mut self, a: Lit, b: Lit) -> Result<Lit, BlastBudgetExceeded> {
        match (self.as_const(a), self.as_const(b)) {
            (Some(true), _) | (_, Some(true)) => return Ok(self.constant_true()),
            (Some(false), _) => return Ok(b),
            (_, Some(false)) => return Ok(a),
            _ => {}
        }
        if a == b {
            return Ok(a);
        }
        if a == !b {
            return Ok(self.constant_true());
        }
        let o = self.fresh()?;
        self.cnf.add_clause([o, !a]);
        self.cnf.add_clause([o, !b]);
        self.cnf.add_clause([!o, a, b]);
        Ok(o)
    }

    fn gate_xor(&mut self, a: Lit, b: Lit) -> Result<Lit, BlastBudgetExceeded> {
        match (self.as_const(a), self.as_const(b)) {
            (Some(false), _) => return Ok(b),
            (_, Some(false)) => return Ok(a),
            (Some(true), _) => return Ok(!b),
            (_, Some(true)) => return Ok(!a),
            _ => {}
        }
        if a == b {
            return Ok(self.constant_false());
        }
        if a == !b {
            return Ok(self.constant_true());
        }
        let o = self.fresh()?;
        self.cnf.add_clause([!o, a, b]);
        self.cnf.add_clause([!o, !a, !b]);
        self.cnf.add_clause([o, !a, b]);
        self.cnf.add_clause([o, a, !b]);
        Ok(o)
    }

    /// `o ↔ (a ↔ b)`.
    fn gate_xnor(&mut self, a: Lit, b: Lit) -> Result<Lit, BlastBudgetExceeded> {
        Ok(!self.gate_xor(a, b)?)
    }

    /// Majority of three (the carry bit of a full adder).
    fn gate_maj(&mut self, a: Lit, b: Lit, c: Lit) -> Result<Lit, BlastBudgetExceeded> {
        // Constant inputs reduce the majority to a binary gate.
        match (self.as_const(a), self.as_const(b), self.as_const(c)) {
            (Some(true), ..) => return self.gate_or(b, c),
            (Some(false), ..) => return self.gate_and(b, c),
            (_, Some(true), _) => return self.gate_or(a, c),
            (_, Some(false), _) => return self.gate_and(a, c),
            (.., Some(true)) => return self.gate_or(a, b),
            (.., Some(false)) => return self.gate_and(a, b),
            _ => {}
        }
        let ab = self.gate_and(a, b)?;
        let ac = self.gate_and(a, c)?;
        let bc = self.gate_and(b, c)?;
        let t = self.gate_or(ab, ac)?;
        self.gate_or(t, bc)
    }

    // --- word-level circuits ----------------------------------------------

    /// The bits of `t`, LSB first.
    pub(crate) fn blast_term(&mut self, t: &BvTerm) -> Result<Vec<Lit>, BlastBudgetExceeded> {
        if let Some(bits) = self.state.cache.get(t) {
            return Ok(bits.clone());
        }
        let width = t.width() as usize;
        let bits: Vec<Lit> = match t.node() {
            Node::Const(v) => {
                let tt = self.constant_true();
                let ff = self.constant_false();
                (0..width)
                    .map(|i| if (v >> i) & 1 == 1 { tt } else { ff })
                    .collect()
            }
            Node::Var(x) => {
                if let Some(bits) = self.state.vars.get(&(*x, t.width())) {
                    bits.clone()
                } else {
                    let bits: Vec<Lit> =
                        (0..width).map(|_| Lit::pos(self.cnf.fresh_var())).collect();
                    self.state.vars.insert((*x, t.width()), bits.clone());
                    bits
                }
            }
            Node::Not(a) => {
                let a = self.blast_term(a)?;
                a.into_iter().map(|l| self.gate_not(l)).collect()
            }
            Node::And(a, b) => self.zip_gate(a, b, Self::gate_and)?,
            Node::Or(a, b) => self.zip_gate(a, b, Self::gate_or)?,
            Node::Xor(a, b) => self.zip_gate(a, b, Self::gate_xor)?,
            Node::Add(a, b) => {
                let a = self.blast_term(a)?;
                let b = self.blast_term(b)?;
                self.ripple_add(&a, &b, None)?
            }
            Node::Sub(a, b) => {
                // a - b = a + ¬b + 1
                let a = self.blast_term(a)?;
                let b = self.blast_term(b)?;
                let nb: Vec<Lit> = b.into_iter().map(|l| !l).collect();
                let one = self.constant_true();
                self.ripple_add(&a, &nb, Some(one))?
            }
            Node::Mul(a, b) => {
                let av = self.blast_term(a)?;
                let bv = self.blast_term(b)?;
                let ff = self.constant_false();
                let mut acc = vec![ff; width];
                for (i, &ai) in av.iter().enumerate() {
                    // partial product: (b << i) gated by aᵢ
                    let mut partial = vec![ff; width];
                    for j in 0..(width - i) {
                        partial[i + j] = self.gate_and(ai, bv[j])?;
                    }
                    acc = self.ripple_add(&acc, &partial, None)?;
                }
                acc
            }
            Node::Shl(a, k) => {
                let a = self.blast_term(a)?;
                let ff = self.constant_false();
                let k = *k as usize;
                (0..width)
                    .map(|i| if i >= k { a[i - k] } else { ff })
                    .collect()
            }
            Node::Lshr(a, k) => {
                let a = self.blast_term(a)?;
                let ff = self.constant_false();
                let k = *k as usize;
                (0..width)
                    .map(|i| if i + k < width { a[i + k] } else { ff })
                    .collect()
            }
        };
        self.state.cache.insert(t.clone(), bits.clone());
        Ok(bits)
    }

    fn zip_gate(
        &mut self,
        a: &BvTerm,
        b: &BvTerm,
        gate: fn(&mut Self, Lit, Lit) -> Result<Lit, BlastBudgetExceeded>,
    ) -> Result<Vec<Lit>, BlastBudgetExceeded> {
        let a = self.blast_term(a)?;
        let b = self.blast_term(b)?;
        a.into_iter()
            .zip(b)
            .map(|(x, y)| gate(self, x, y))
            .collect()
    }

    fn ripple_add(
        &mut self,
        a: &[Lit],
        b: &[Lit],
        carry_in: Option<Lit>,
    ) -> Result<Vec<Lit>, BlastBudgetExceeded> {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = match carry_in {
            Some(c) => c,
            None => self.constant_false(),
        };
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let axb = self.gate_xor(a[i], b[i])?;
            out.push(self.gate_xor(axb, carry)?);
            if i + 1 < a.len() {
                carry = self.gate_maj(a[i], b[i], carry)?;
            }
        }
        Ok(out)
    }

    /// Reifies an atom to a single literal.
    fn blast_atom(&mut self, atom: &BvAtom) -> Result<Lit, BlastBudgetExceeded> {
        match atom {
            BvAtom::Eq(a, b) => {
                let av = self.blast_term(a)?;
                let bv = self.blast_term(b)?;
                let mut acc = self.constant_true();
                for (x, y) in av.into_iter().zip(bv) {
                    let e = self.gate_xnor(x, y)?;
                    acc = self.gate_and(acc, e)?;
                }
                Ok(acc)
            }
            BvAtom::Ule(a, b) => self.blast_cmp(a, b, true),
            BvAtom::Ult(a, b) => self.blast_cmp(a, b, false),
        }
    }

    /// Unsigned `a ≤ b` (or `a < b`): lexicographic comparator from the MSB.
    fn blast_cmp(
        &mut self,
        a: &BvTerm,
        b: &BvTerm,
        or_equal: bool,
    ) -> Result<Lit, BlastBudgetExceeded> {
        let av = self.blast_term(a)?;
        let bv = self.blast_term(b)?;
        // result = a < b, built LSB→MSB:  lt_i = (¬aᵢ ∧ bᵢ) ∨ (aᵢ↔bᵢ) ∧ lt_{i-1}
        let mut lt = if or_equal {
            self.constant_true()
        } else {
            self.constant_false()
        };
        for (x, y) in av.into_iter().zip(bv) {
            let strictly = {
                let nx = !x;
                self.gate_and(nx, y)?
            };
            let eq = self.gate_xnor(x, y)?;
            let keep = self.gate_and(eq, lt)?;
            lt = self.gate_or(strictly, keep)?;
        }
        Ok(lt)
    }

    /// Asserts a literal (adds it as a unit over its reified atom).
    pub fn assert_lit(&mut self, lit: &BvLit) -> Result<(), BlastBudgetExceeded> {
        let l = self.reify_lit(lit)?;
        self.cnf.add_clause([l]);
        Ok(())
    }

    /// Reifies a literal to a single SAT literal (true ⇔ the bitvector
    /// literal holds) without asserting it — the hook a session uses to
    /// guard facts and goals behind activation literals.
    pub fn reify_lit(&mut self, lit: &BvLit) -> Result<Lit, BlastBudgetExceeded> {
        let l = self.blast_atom(&lit.atom)?;
        Ok(if lit.positive { l } else { !l })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatResult, Solver};

    /// Oracle: a query over one 4-bit variable is checked against
    /// exhaustive evaluation.
    fn check_against_enumeration(mk: impl Fn(BvTerm) -> BvAtom) {
        let width = 4;
        let x = BvTerm::var(SolverVar(0), width);
        let atom = mk(x);
        let truth_any = (0..16u64).any(|v| atom.eval(&mut |_| Some(v)) == Some(true));
        let mut cnf = Cnf::new();
        let mut state = BlastState::default();
        let mut blaster = BitBlaster::new(&mut cnf, &mut state);
        blaster.assert_lit(&BvLit::positive(atom.clone())).unwrap();
        let sat = Solver::new().solve(&cnf).is_sat();
        assert_eq!(
            sat, truth_any,
            "solver disagrees with enumeration on {atom:?}"
        );
    }

    #[test]
    fn add_circuit_matches_semantics() {
        check_against_enumeration(|x| {
            BvAtom::eq(
                x.clone().add(BvTerm::constant(3, 4)),
                BvTerm::constant(2, 4),
            )
        });
    }

    #[test]
    fn sub_circuit_matches_semantics() {
        check_against_enumeration(|x| {
            BvAtom::eq(
                x.clone().sub(BvTerm::constant(5, 4)),
                BvTerm::constant(15, 4),
            )
        });
    }

    #[test]
    fn mul_circuit_matches_semantics() {
        check_against_enumeration(|x| {
            BvAtom::eq(
                x.clone().mul(BvTerm::constant(3, 4)),
                BvTerm::constant(6, 4),
            )
        });
    }

    #[test]
    fn shifts_match_semantics() {
        check_against_enumeration(|x| BvAtom::eq(x.clone().shl(2), BvTerm::constant(0b1100, 4)));
        check_against_enumeration(|x| BvAtom::eq(x.clone().lshr(1), BvTerm::constant(0b0101, 4)));
        check_against_enumeration(|x| BvAtom::eq(x.clone().shl(7), BvTerm::constant(0, 4)));
    }

    #[test]
    fn comparisons_match_semantics() {
        check_against_enumeration(|x| BvAtom::ule(x, BvTerm::constant(0, 4)));
        check_against_enumeration(|x| BvAtom::ult(x, BvTerm::constant(0, 4)));
        check_against_enumeration(|x| BvAtom::ule(BvTerm::constant(15, 4), x));
    }

    #[test]
    fn bitwise_ops_match_semantics() {
        check_against_enumeration(|x| {
            BvAtom::eq(
                x.clone()
                    .and(BvTerm::constant(0b1010, 4))
                    .or(BvTerm::constant(1, 4)),
                BvTerm::constant(0b1011, 4),
            )
        });
        check_against_enumeration(|x| {
            BvAtom::eq(x.clone().xor(x.clone().not()), BvTerm::constant(0b1111, 4))
        });
    }

    #[test]
    fn shared_subterms_are_cached() {
        let x = BvTerm::var(SolverVar(0), 8);
        let big = x.clone().mul(BvTerm::constant(3, 8));
        let atom = BvAtom::eq(big.clone().add(big.clone()), big.clone().shl(1));
        let mut cnf = Cnf::new();
        let mut state = BlastState::default();
        let mut blaster = BitBlaster::new(&mut cnf, &mut state);
        blaster.assert_lit(&BvLit::positive(atom)).unwrap();
        let vars_shared = cnf.num_vars();

        // Valid statement: t + t = t << 1, so UNSAT when negated.
        let x = BvTerm::var(SolverVar(0), 8);
        let big = x.clone().mul(BvTerm::constant(3, 8));
        let atom = BvAtom::eq(big.clone().add(big.clone()), big.shl(1));
        let mut cnf2 = Cnf::new();
        let mut state2 = BlastState::default();
        let mut blaster2 = BitBlaster::new(&mut cnf2, &mut state2);
        blaster2.assert_lit(&BvLit::negative(atom)).unwrap();
        assert!(matches!(Solver::new().solve(&cnf2), SatResult::Unsat));
        assert!(vars_shared > 0);
    }
}
