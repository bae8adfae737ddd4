//! # rtr-lang — the RTR surface language
//!
//! A Racket-style surface syntax for the λ_RTR calculus in `rtr-core`,
//! reproducing the pipeline of the paper's Typed Racket implementation:
//! an s-expression [`sexp`] reader, derived-form [`expand`]sion (`cond`,
//! `and`/`or`, `when`/`unless`, named `let`, and §4.4's `for/sum` →
//! `letrec` with the `Nat` index heuristic), [`elab`]oration of the
//! annotation syntax (`[x : Int]` dependent domains, `#:where` refined
//! ranges, `Refine`, `All`), the enriched [`base_env`], and a [`module`]
//! driver.
//!
//! # Examples
//!
//! ```
//! use rtr_core::check::Checker;
//! use rtr_lang::check_source;
//!
//! let src = r#"
//!     (: max : [x : Int] [y : Int] -> [z : Int #:where (and (>= z x) (>= z y))])
//!     (define (max x y) (if (> x y) x y))
//!     (max 1 2)
//! "#;
//! assert!(check_source(src, &Checker::default()).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod base_env;
pub mod elab;
pub mod expand;
pub mod incremental;
pub mod module;
pub mod sexp;

pub use incremental::{check_module_source_incremental, ModuleCache};
pub use module::{
    check_and_run_source, check_module_source, check_module_source_traced, check_source,
    elaborate_module, elaborate_module_items, run_source, run_source_unchecked, ElaboratedModule,
    LangError, ModuleReport,
};
