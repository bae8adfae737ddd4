//! A warm re-check must not grow the interner's arena: the fresh names
//! it mints (ghost existentials) are numbered per item, so the re-check
//! mints the names the first check minted and interns no new tree.
//!
//! The arena is process-global, so this test has its binary to itself:
//! no sibling test can intern anything while it measures.

use rtr_core::check::Checker;
use rtr_core::intern::arena_stats;
use rtr_lang::check_source;

#[test]
fn a_warm_recheck_keeps_fresh_names_out_of_the_permanent_arena() {
    let checker = Checker::default();
    // dot-prod mints ghost existentials at every application whose
    // argument has no symbolic object — the workload whose goals used
    // to leak arena entries per check.
    let src = rtr_bench::dot_prod_module_src(2);
    // Warm-up: first-seen trees (annotations, Δ-table instantiations,
    // trees over the module's fresh names) populate the arena.
    check_source(&src, &checker).expect("dot-prod module checks");

    let before = arena_stats();
    check_source(&src, &checker).expect("dot-prod module re-checks");
    assert_eq!(arena_stats(), before, "a warm re-check grew the arena");
}
