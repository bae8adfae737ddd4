//! Generational eviction smoke test: a long-lived [`Session`] checking
//! module after module must keep the interner's *fresh* arena region
//! bounded — ghost existentials minted for one module are garbage by the
//! next, and the session retires the region between checks once it
//! crosses its budget. (This file holds exactly one test on purpose:
//! eviction is skipped while any check is in flight, so a concurrent
//! test in the same binary would make the growth bound flaky.)

use rtr::core::intern;
use rtr::prelude::*;

/// The session layer's eviction threshold (`FRESH_ARENA_BUDGET`).
const BUDGET: usize = 1 << 14;

fn fresh_total() -> usize {
    let s = intern::arena_stats();
    s.fresh_tys + s.fresh_props + s.fresh_objs
}

/// A module of `dot-prod`-shaped items: checking their `for/sum` loops
/// builds trees over fresh names, so every cold check grows the fresh
/// region.
fn fresh_hungry_module() -> SourceFile {
    let mut src = String::new();
    for k in 0..40 {
        src.push_str(&format!(
            "(: dp{k} : [A : (Vecof Int)] [B : (Vecof Int)] -> Int)
             (define (dp{k} A B)
               (begin
                 (unless (= (len A) (len B))
                   (error \"invalid vector lengths!\"))
                 (for/sum ([i (in-range (len A))])
                   (* (safe-vec-ref A i) (safe-vec-ref B i)))))\n"
        ));
    }
    SourceFile::new("fresh_hungry.rtr", src)
}

#[test]
fn repeated_session_checks_keep_the_fresh_arena_bounded() {
    // Cold checks re-mint every ghost existential per check — the
    // workload this bound is about — so every check first forgets the
    // file's cache. (A warm check splices unchanged items instead, so
    // the fresh region barely grows and the eviction epoch never needs
    // to advance; cache invalidation across evictions is covered by the
    // epoch-guard tests in rtr-core.)
    let session = Session::new(SessionConfig::default());
    let file = fresh_hungry_module();
    let check_cold = || {
        session.forget(&file.name);
        session.check(&file)
    };
    let epoch_before = intern::evict_epoch();

    // Calibrate: one check's worth of fresh minting must be far below
    // the budget, or "bounded" would be vacuous.
    let base = fresh_total();
    assert!(check_cold().is_clean());
    let per_check = fresh_total().saturating_sub(base);
    assert!(per_check > 0, "workload mints no fresh entries");
    assert!(
        per_check < BUDGET / 4,
        "one check minted {per_check} fresh entries — too close to the {BUDGET} budget"
    );

    // Grind: without eviction the region would grow linearly without
    // bound; with it, the high-water mark stays within one budget plus
    // one check's overshoot.
    let mut high_water = fresh_total();
    for _ in 0..(2 * BUDGET / per_check + 4) {
        assert!(check_cold().is_clean());
        high_water = high_water.max(fresh_total());
    }
    assert!(
        intern::evict_epoch() > epoch_before,
        "the fresh region was never evicted (high water {high_water})"
    );
    assert!(
        high_water <= BUDGET + 2 * per_check,
        "fresh arena grew past its budget: {high_water} entries (budget {BUDGET}, \
         per-check {per_check})"
    );
    // And the verdict after all that recycling is still the same one.
    assert!(check_cold().is_clean());
}
