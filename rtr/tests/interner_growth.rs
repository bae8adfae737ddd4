//! Symbol-interner growth under warm edits: interned names are never
//! freed, so a warm keystroke may intern names for the items it
//! re-checks, not for the whole module. (This file holds exactly one
//! test on purpose: the high-water mark is process-wide, so a
//! concurrent test in the same binary would inflate the measured
//! growth.)

use rtr::prelude::*;

/// Items in the filler module.
const ITEMS: usize = 200;

/// A module of `ITEMS` signed two-parameter definitions; the body
/// constant of the middle one is `edit`.
fn filler(edit: usize) -> SourceFile {
    let mut src = String::new();
    for k in 0..ITEMS {
        let c = if k == ITEMS / 2 { edit } else { k % 7 };
        src.push_str(&format!(
            "(: u{k} : [x : Int] [y : Int] -> Int)\n\
             (define (u{k} x y) (+ (* 2 x) (- y {c})))\n"
        ));
    }
    SourceFile::new("filler.rtr", src)
}

/// The interner's high-water mark: how many names it holds.
fn high_water() -> usize {
    Symbol::interned_count()
}

#[test]
fn a_warm_body_edit_grows_the_interner_by_the_edited_items_only() {
    let session = Session::new(SessionConfig::default());
    assert!(session.check(&filler(0)).is_clean(), "cold check");
    for edit in 1..=20 {
        let before = high_water();
        let report = session.check(&filler(edit));
        let grown = high_water() - before;
        assert!(report.is_clean(), "edit {edit}: {:?}", report.diagnostics);
        let rechecked = report.stats.trace.map(|t| t.rechecked);
        assert_eq!(rechecked, Some(1), "edit {edit} re-checks the edited body");
        assert!(
            grown < 32,
            "edit {edit} interned {grown} names re-checking one of {ITEMS} items"
        );
    }
}
