//! Work-counter smoke tests: checking the §4.1 alias-chain workload and
//! the theory-heavy modules must actually *hit* the memo tables and
//! solver caches — if these assertions fail, the caches compile but
//! never fire, and the perf numbers in `BENCH_checker.json` are a lie.
//!
//! Every assertion reads one check's own counters (or, for a judgment
//! called directly, the checker's resident trace), so the tests are
//! independent of each other and of the parallel test runner.

use rtr::session::{Session, SessionConfig, SourceFile};
use rtr_bench::alias_chain_src;
use rtr_core::check::Checker;
use rtr_core::trace::TraceCounts;
use rtr_lang::check_module_source_incremental;

/// One cold module check on `checker`: its work counters.
fn counts(src: &str, checker: &Checker) -> TraceCounts {
    let (report, _, trace) = check_module_source_incremental(src, checker, None);
    assert!(report.is_clean(), "{:#?}", report.diagnostics);
    trace.expect("the driver ran")
}

#[test]
fn alias_chain_hits_the_memo_tables() {
    let checker = Checker::default();
    let src = alias_chain_src(16);
    let cold = counts(&src, &checker);
    assert!(cold.steps_synth > 0, "no synth steps counted: {cold:?}");
    assert!(
        cold.subtype.hits > 0,
        "subtype memo table never hit: {cold:?}"
    );
    assert!(
        cold.inconsistent.total() > 0,
        "inconsistency memo table never consulted: {cold:?}"
    );
    assert!(
        cold.update.hits > 0,
        "id-native update± memo table never hit: {cold:?}"
    );
    assert!(checker.cache_entry_count() > 0, "memo tables are empty");

    // A second check of the same module on the warm checker hits more
    // (environment generations differ, but env-free pairs carry over).
    let warm = counts(&src, &checker);
    assert!(
        warm.subtype.hits > cold.subtype.hits,
        "re-check produced no further hits: {warm:?}"
    );
}

#[test]
fn lazy_split_scheduler_defers_irrelevant_clauses() {
    use rtr_core::env::Env;
    use rtr_core::syntax::{BvCmp, LinCmp, Obj, Prop, Symbol, Ty};
    const FUEL: u32 = 64;
    let checker = Checker::default();
    let mut env = Env::new();
    let i = Symbol::intern("smoke_i");
    let num = Symbol::intern("smoke_n");
    checker.bind(&mut env, i, &Ty::Int, FUEL);
    checker.bind(&mut env, num, &Ty::BitVec, FUEL);
    // A bitvector clause (no variables or theory shared with the goal —
    // the lazy scheduler must defer it) and a linear clause whose split
    // decides the goal.
    checker.assume(
        &mut env,
        &Prop::or(
            Prop::bv(Obj::var(num), BvCmp::Eq, Obj::bv(0)),
            Prop::bv(Obj::var(num), BvCmp::Eq, Obj::bv(1)),
        ),
        FUEL,
    );
    checker.assume(
        &mut env,
        &Prop::or(
            Prop::lin(Obj::var(i), LinCmp::Eq, Obj::int(0)),
            Prop::lin(Obj::var(i), LinCmp::Eq, Obj::int(1)),
        ),
        FUEL,
    );
    // 0 ≤ i ∧ i ≤ 1: not entailed directly, provable in both branches of
    // the linear clause.
    let goal = Prop::and(
        Prop::lin(Obj::int(0), LinCmp::Le, Obj::var(i)),
        Prop::lin(Obj::var(i), LinCmp::Le, Obj::int(1)),
    );
    assert!(
        checker.proves(&env, &goal, FUEL),
        "case split must decide the goal"
    );
    // The judgments ran on the checker directly: its resident trace.
    let t = checker.trace_counts();
    assert!(t.splits_taken > 0, "no case splits taken: {t:?}");
    assert!(
        t.splits_deferred > 0,
        "goal-irrelevant clause was never deferred: {t:?}"
    );
    assert!(
        t.clause_meta.total() > 0,
        "clause-relevance metadata never consulted: {t:?}"
    );
}

#[test]
fn string_module_hits_the_regex_session() {
    let checker = Checker::default();
    let t = counts(&rtr_bench::string_module_src(8), &checker);
    assert!(
        t.re.total() > 0,
        "regex verdict table never consulted: {t:?}"
    );
    // The regex session outlives checks: its counters are the checker's.
    let re = checker.re_session_stats();
    assert!(
        re.dfa_misses > 0,
        "regex session never compiled a DFA: {re:?}"
    );
    assert!(re.dfa_hits > 0, "regex session DFA cache never hit: {re:?}");
}

#[test]
fn theory_heavy_programs_hit_the_solver_caches() {
    // A scaled dot-prod module: every function re-poses alpha-renamed
    // copies of the same linear systems, so the canonical-fingerprint
    // verdict table must both be consulted and actually hit.
    let t = counts(&rtr_bench::dot_prod_module_src(4), &Checker::default());
    assert!(t.lin.hits > 0, "linear solver cache never hit: {t:?}");

    // Same for the bitvector table on an xtime module.
    let t = counts(&rtr_bench::xtime_module_src(2), &Checker::default());
    assert!(t.bv.hits > 0, "bitvector solver cache never hit: {t:?}");
}

#[test]
fn concurrent_sessions_keep_their_counters_apart() {
    let modules = [
        ("dot.rtr", rtr_bench::dot_prod_module_src(4)),
        ("xtime.rtr", rtr_bench::xtime_module_src(2)),
    ];
    let solo = |(name, src): &(&str, String)| {
        Session::new(SessionConfig::default())
            .check(&SourceFile::new(*name, src.as_str()))
            .stats
            .trace
            .expect("the driver ran")
    };
    let alone: Vec<TraceCounts> = modules.iter().map(solo).collect();
    for _ in 0..4 {
        let start = std::sync::Barrier::new(modules.len());
        let together: Vec<TraceCounts> = std::thread::scope(|scope| {
            let handles: Vec<_> = modules
                .iter()
                .map(|m| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        solo(m)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("check"))
                .collect()
        });
        assert_eq!(
            together, alone,
            "a concurrent check changed another's counters"
        );
    }
}
