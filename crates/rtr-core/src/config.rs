//! Checker configuration: theory switches, solver budgets, ablation
//! toggles.

use rtr_solver::lin::FmConfig;
use rtr_solver::re::ReConfig;
use rtr_solver::sat::SolverConfig;

/// Configuration for [`crate::check::Checker`].
///
/// The default is full λ_RTR: occurrence typing with the linear-arithmetic
/// and bitvector theories enabled and the §4.1 representative-objects
/// optimization on. [`CheckerConfig::lambda_tr`] reproduces the paper's
/// implicit baseline — plain occurrence typing (λ_TR / stock Typed
/// Racket) with no theory reasoning.
#[derive(Clone, Debug)]
pub struct CheckerConfig {
    /// Enable solver-backed theories (linear arithmetic, bitvectors).
    /// Off = the λ_TR baseline: comparison primitives return plain
    /// booleans, integer literals have no symbolic object.
    pub theories: bool,
    /// Apply aliases eagerly, storing facts about a single representative
    /// member of each alias class (§4.1). When disabled, aliases are
    /// recorded as theory-level equalities instead and every proof goes
    /// through the solver — the ablation benchmark measures the cost.
    pub representative_objects: bool,
    /// Maintain the hybrid environment of §4.1: type atoms learned from
    /// tests refine the stored per-variable types eagerly via `update±`.
    /// When disabled (the formal model's pure-proposition environment),
    /// learned atoms are merely *recorded* and replayed through `update±`
    /// at every query — same verdicts, paid per lookup instead of once
    /// per assumption; the ablation benchmark measures the gap.
    pub hybrid_env: bool,
    /// Memoize the environment-free `subtype`, `is_empty_ty`, overlap
    /// and `update±` judgments on interned ids (see [`crate::intern`]).
    /// Disable to get the reference structural implementation — the
    /// ablation the property tests compare against. Note: deferred
    /// disjunctions are *stored* interned (canonicalized) in both modes —
    /// that is the environment's representation, not a memoization — so
    /// the ablation isolates the memo tables and id shortcuts, not
    /// ∨-canonicalization (whose semantics the `intern` unit tests cover
    /// directly).
    pub memoize: bool,
    /// Cache theory queries: memoize linear/bitvector/string entailment
    /// and consistency verdicts in the `lin`/`bv`/`re` tables, keyed by
    /// content alone (canonicalized — sorted, deduplicated,
    /// de-Bruijn-renamed — constraint fingerprints), and keep one
    /// persistent bitvector session (shared bit-blast encodings + learnt
    /// clauses) and one regex session (compiled DFAs, products and
    /// emptiness verdicts) per checker. Disable to run every solver query
    /// one-shot from scratch — the reference behaviour the equivalence
    /// tests compare against.
    /// Canonicalization preserves the solved constraint system up to
    /// variable renaming, so cached verdicts transfer soundly.
    pub solver_cache: bool,
    /// Schedule disjunction case splits lazily: propagate unit-collapsed
    /// clauses first, then split clauses whose literals share variables
    /// (or a solver theory) with the goal, and only fall back to the
    /// remaining clauses when the relevant ones fail to decide the
    /// query. Same verdicts as eager in-order splitting — every clause
    /// is still considered, only the order changes — but goal-irrelevant
    /// disjunctions stop multiplying the proof search. Disable to get
    /// the reference in-order behaviour the property tests compare
    /// against.
    pub lazy_splits: bool,
    /// Maximum depth of disjunction case splits during proving.
    pub case_split_budget: u32,
    /// Recursion fuel for the mutually recursive subtype/proof judgments.
    pub logic_fuel: u32,
    /// Fourier–Motzkin budget.
    pub fm: FmConfig,
    /// SAT budget for bitvector queries.
    pub sat: SolverConfig,
    /// DFA state budget for regex-theory queries.
    pub re: ReConfig,
    /// Bit width used by the bitvector theory adapter. 16 bits makes the
    /// paper's `Byte = {b:BV | 0 ≤ b ≤ #xff}` refinement non-trivial.
    pub bv_width: u32,
    /// Resource governance: cap on judgment steps per checked item
    /// (`None` = unlimited, the default). On exhaustion the item
    /// degrades to an `E0202` diagnostic (see [`crate::budget`]).
    pub max_steps: Option<u64>,
    /// Resource governance: wall-clock budget per check call in
    /// milliseconds (`None` = no deadline, the default). The deadline
    /// spans all items of one `check_module` call and is threaded into
    /// the theory-solver loops.
    pub timeout_ms: Option<u64>,
    /// Resource governance: maximum typing-judgment recursion depth.
    /// Programs nesting deeper degrade to an `E0202` diagnostic instead
    /// of overflowing the checker's (big) stack. The default comfortably
    /// covers the 256 MiB big-stack worker.
    pub max_depth: u32,
    /// Seeded fault injection (`chaos` Cargo feature): `None` disables
    /// injection even when compiled in.
    #[cfg(feature = "chaos")]
    pub chaos: Option<crate::budget::ChaosConfig>,
}

/// Default `max_depth`: ~2 KiB of stack per judgment frame × 50k frames
/// stays far below the 256 MiB big-stack worker while exceeding any
/// program a human (or macro expander) plausibly writes.
pub const DEFAULT_MAX_DEPTH: u32 = 50_000;

impl Default for CheckerConfig {
    fn default() -> CheckerConfig {
        CheckerConfig {
            theories: true,
            representative_objects: true,
            hybrid_env: true,
            memoize: true,
            solver_cache: true,
            lazy_splits: true,
            case_split_budget: 6,
            logic_fuel: 128,
            fm: FmConfig::default(),
            sat: SolverConfig::default(),
            re: ReConfig::default(),
            bv_width: 16,
            max_steps: None,
            timeout_ms: None,
            max_depth: DEFAULT_MAX_DEPTH,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

impl CheckerConfig {
    /// Full λ_RTR (the paper's system).
    pub fn rtr() -> CheckerConfig {
        CheckerConfig::default()
    }

    /// The λ_TR baseline: occurrence typing without theories, i.e. what
    /// stock Typed Racket proves.
    pub fn lambda_tr() -> CheckerConfig {
        CheckerConfig {
            theories: false,
            ..CheckerConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(CheckerConfig::rtr().theories);
        assert!(!CheckerConfig::lambda_tr().theories);
        assert!(CheckerConfig::default().representative_objects);
    }
}
