//! A warm re-check must not grow the interner's permanent arena: the
//! fresh names it mints (ghost existentials) belong in the fresh region,
//! which sessions evict between checks.
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
    // to leak permanent arena entries per check.
    let src = rtr_bench::dot_prod_module_src(2);
    // Warm-up: first-seen trees (annotations, Δ-table instantiations)
    // populate the permanent arena.
    check_source(&src, &checker).expect("dot-prod module checks");

    let before = arena_stats();
    check_source(&src, &checker).expect("dot-prod module re-checks");
    let after = arena_stats();
    assert_eq!(
        after.tys, before.tys,
        "a warm re-check grew the permanent type arena"
    );
    assert_eq!(
        after.props, before.props,
        "a warm re-check grew the permanent proposition arena"
    );
    assert!(
        after.fresh_props > before.fresh_props
            || after.fresh_tys > before.fresh_tys
            || after.fresh_objs > before.fresh_objs,
        "fresh-name-bearing goals produced no fresh-region growth: {after:?}"
    );
}
