//! # RTR — *Occurrence Typing Modulo Theories* (PLDI 2016) in Rust
//!
//! A from-scratch reproduction of Kent, Kempe & Tobin-Hochstadt's
//! Refinement Typed Racket: occurrence typing (the type discipline behind
//! Typed Racket) extended with dependent refinement types whose
//! propositions are discharged by pluggable, solver-backed theories —
//! linear integer arithmetic (Fourier–Motzkin), fixed-width bitvectors
//! (bit-blasting onto an in-tree CDCL SAT solver), and — the extension
//! the paper's conclusion anticipates — regular expressions (an in-tree
//! regex engine with an automata-based membership decision procedure).
//!
//! The workspace is layered; this facade crate re-exports each layer:
//!
//! * [`solver`] (`rtr-solver`) — exact rationals, linear constraints,
//!   Fourier–Motzkin elimination, CDCL SAT, bitvector bit-blasting.
//! * [`core`] (`rtr-core`) — the λ_RTR calculus: syntax, typing judgment,
//!   subtyping, proof system, `update` metafunctions, big-step semantics
//!   and the executable model relation used to property-test soundness.
//! * [`lang`] (`rtr-lang`) — the Racket-style surface language: reader,
//!   macro expansion (`for/sum` → `letrec`, §4.4), elaboration, and the
//!   enriched base environment.
//! * [`corpus`] (`rtr-corpus`) — the §5 case study: synthetic corpora
//!   shaped like the paper's `math`/`plot`/`pict3d` libraries and the
//!   staged classification harness that regenerates Figure 9.
//!
//! On top of the layers sits the diagnostics-first service surface:
//!
//! * [`session`] — `Session::check`/`check_all`: every file yields *all*
//!   of its located diagnostics (failing definitions are poisoned and
//!   checking continues), per-item outcomes and stats.
//! * [`json`] — the documented `rtr-check-v1` machine-readable schema
//!   (emitter plus a validating parser).
//!
//! # Quick start
//!
//! ```
//! use rtr::prelude::*;
//!
//! // Fig. 1: max, with a range refined by the linear-arithmetic theory.
//! let src = r#"
//!     (: max : [x : Int] [y : Int] -> [z : Int #:where (and (>= z x) (>= z y))])
//!     (define (max x y) (if (> x y) x y))
//!     (max 3 7)
//! "#;
//! let checker = Checker::default();
//! let result = check_source(src, &checker).expect("max verifies");
//! assert_eq!(result.ty.to_string(), "{z : Int | ((3 ≤ z) ∧ (7 ≤ z))}");
//!
//! // And it runs.
//! let value = run_source(src, &checker, 10_000).unwrap();
//! assert_eq!(value.to_string(), "7");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rtr_core as core;
pub use rtr_corpus as corpus;
pub use rtr_lang as lang;
pub use rtr_solver as solver;

pub mod json;
pub mod lsp;
pub mod session;

/// The most common imports for working with RTR.
pub mod prelude {
    pub use rtr_core::budget::LimitKind;
    pub use rtr_core::check::Checker;
    pub use rtr_core::config::CheckerConfig;
    pub use rtr_core::diag::{Code, Diagnostic, Severity, Span};
    pub use rtr_core::interp::{eval_program, EvalError, Value};
    pub use rtr_core::syntax::{Expr, Obj, Prim, Prop, Symbol, Ty, TyResult};
    pub use rtr_lang::{
        check_module_source, check_source, elaborate_module, run_source, LangError, ModuleReport,
    };

    pub use crate::session::{CheckReport, Session, SessionConfig, SourceFile};
}
