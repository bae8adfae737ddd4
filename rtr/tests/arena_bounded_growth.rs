//! The interner's arena is bounded by the content checked, not by the
//! number of checks: fresh names are numbered per item, so re-checking a
//! module mints the names its last check minted and interns no new tree.
//! A long-lived [`Session`] that checks the same module again and again,
//! or cycles one definition through the same few edits, stops growing
//! the arena after the first round. An edit that brings new text mints
//! the same names too (the elaborator and the checker key them by the
//! item, not by its text), so only trees that mention the new content
//! are new: edits of a constant no type mentions grow nothing. (This file
//! holds exactly one test on purpose: the arena is process-wide, so a
//! concurrent test in the same binary would grow it.)

use rtr::core::intern;
use rtr::prelude::*;

fn total() -> usize {
    let s = intern::arena_stats();
    s.tys + s.props + s.objs
}

/// `dot-prod`-shaped items, whose `for/sum` loops and applications mint
/// ghost existentials and selfification binders, plus one such
/// definition whose body constant, typed `Int`, is `edit`.
fn module(edit: usize) -> SourceFile {
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
    src.push_str(&format!(
        "(: edited : [A : (Vecof Int)] -> Int)
         (define (edited A)
           (+ {edit} (for/sum ([i (in-range (len A))]) (* (safe-vec-ref A i) {edit}))))\n"
    ));
    SourceFile::new("bounded.rtr", src)
}

#[test]
fn repeated_checks_and_cycled_edits_keep_the_arena_flat() {
    let session = Session::new(SessionConfig::default());
    let file = module(0);
    // Cold checks: every item is re-checked and re-mints its names.
    let mut after_first = None;
    for k in 1..=40 {
        session.forget(&file.name);
        assert!(session.check(&file).is_clean(), "check {k}");
        let now = total();
        let first = *after_first.get_or_insert(now);
        assert_eq!(now, first, "cold check {k} grew the arena");
    }
    // Warm edits of one body: the first cycle through the constants
    // interns their trees, later cycles find them all.
    let mut after_cycle = None;
    for cycle in 1..=3 {
        for edit in 0..9 {
            let report = session.check(&module(edit));
            assert!(report.is_clean(), "cycle {cycle}, edit {edit}");
        }
        let now = total();
        let first = *after_cycle.get_or_insert(now);
        assert_eq!(now, first, "edit cycle {cycle} grew the arena");
    }
    // Edits that bring new text each time: the edited item mints the
    // names its earlier texts minted, and no tree mentions the constant.
    for edit in 9..300 {
        let report = session.check(&module(edit));
        assert!(report.is_clean(), "distinct edit {edit}");
        assert_eq!(
            total(),
            after_cycle.unwrap(),
            "distinct edit {edit} grew the arena"
        );
    }
}
