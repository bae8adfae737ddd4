//! Fresh names leave nothing in the symbol table: a long-lived process
//! (`rtr lsp`, `rtr watch`) that checks the §5 corpus again and again
//! must not grow it by the existentials, selfification binders and
//! ghosts each check mints. (This file holds exactly one test on
//! purpose: the table is process-wide, so a concurrent test in the same
//! binary would inflate the measured growth.)

use rtr::corpus::classify::classify_site;
use rtr::corpus::gen::generate;
use rtr::corpus::patterns::Site;
use rtr::corpus::profiles::libraries;
use rtr::prelude::*;

/// One pass with a fresh checker, like one `fig9` run.
fn pass(sites: &[Site]) {
    let checker = Checker::default();
    for site in sites {
        classify_site(site, &checker);
    }
}

#[test]
fn corpus_passes_do_not_grow_the_symbol_table() {
    let sites: Vec<Site> = libraries()
        .iter()
        .flat_map(|p| generate(p, 1).sites)
        .collect();
    // The warm-up pass interns the corpus's own identifiers.
    pass(&sites);
    let before = Symbol::interned_count();
    for k in 1..=5 {
        pass(&sites);
        let grown = Symbol::interned_count() - before;
        assert_eq!(grown, 0, "pass {k} interned {grown} names");
    }
}
