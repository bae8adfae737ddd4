//! # rtr-core — the λ_RTR calculus
//!
//! A from-scratch implementation of the type system of *Occurrence Typing
//! Modulo Theories* (Kent, Kempe, Tobin-Hochstadt; PLDI 2016): occurrence
//! typing à la Typed Racket extended with dependent refinement types whose
//! propositions are discharged by pluggable solver-backed theories.
//!
//! The crate mirrors the paper's structure:
//!
//! * [`syntax`] — Fig. 2: expressions, types, propositions, symbolic
//!   objects, type-results.
//! * [`prims`] — Fig. 3's Δ table, enriched per §3.4/§5.
//! * [`check`] — Fig. 4's typing judgment (algorithmic).
//! * [`subtype`] (impls on [`check::Checker`]) — Fig. 5.
//! * [`logic`] (impls on `Checker`) — Fig. 6's proof system and the
//!   L-Theory solver adapters.
//! * [`update`] (impls on `Checker`) — Fig. 7's `update`/`restrict`/
//!   `remove` metafunctions.
//! * [`interp`] — Fig. 8's big-step semantics.
//! * [`model`] — Fig. 8's satisfaction relation, used to test the
//!   soundness theorem (Lemma 2 / Theorem 1) executably.
//! * [`mod@env`], [`config`], [`mutation`], [`infer`] — the §4
//!   scaling machinery.
//! * [`diag`] — structured, located diagnostics (spans, `E0xxx` codes,
//!   payloads) and the human renderer; [`module`] — module-level checking
//!   with multi-error recovery ([`errors`] keeps the old `TypeError` name
//!   as an alias).
//! * [`intern`] — hash-consed `TyId`/`PropId`/`ObjId` handles backing the
//!   checker's memo tables and the environment's id-native storage.
//! * [`pmap`] — the persistent HAMT the environment stores those ids in.
//! * [`trace`] — the per-check work counters every check returns.
//!
//! # Examples
//!
//! ```
//! use rtr_core::check::Checker;
//! use rtr_core::syntax::{Expr, Prim, Symbol, Ty};
//!
//! // (λ (n : (U Int Bool)) (if (int? n) n 0)) — occurrence typing narrows
//! // n to Int in the then-branch.
//! let n = Symbol::intern("n");
//! let f = Expr::lam(
//!     vec![(n, Ty::union_of(vec![Ty::Int, Ty::bool_ty()]))],
//!     Expr::if_(
//!         Expr::prim_app(Prim::IsInt, vec![Expr::Var(n)]),
//!         Expr::Var(n),
//!         Expr::Int(0),
//!     ),
//! );
//! assert!(Checker::default().check_program(&f).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
mod cache;
pub mod check;
pub mod config;
pub mod diag;
pub mod env;
pub mod errors;
pub mod fingerprint;
pub mod incremental;
pub mod infer;
pub mod intern;
pub mod interp;
pub mod logic;
pub mod model;
pub mod module;
pub mod mutation;
pub mod pmap;
pub mod prims;
mod solver_cache;
pub mod subtype;
pub mod syntax;
pub mod trace;
pub mod update;
