//! The memoized/normalizing checker must classify corpus sites exactly
//! like the structural reference (`memoize: false`): interning-level union
//! flatten/dedup/sort and the content-keyed memo tables are perf
//! machinery, not a semantics change. One flipped verdict here would skew
//! the regenerated Figure 9.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rtr_core::check::Checker;
use rtr_core::config::CheckerConfig;
use rtr_corpus::classify::{classify_library, classify_site};
use rtr_corpus::gen::generate;
use rtr_corpus::patterns::{build_site, Class};
use rtr_corpus::profiles::libraries;
use rtr_corpus::report::{fig9_table, CaseStudy};

#[test]
fn memoized_checker_classifies_sites_like_the_structural_reference() {
    let memoized = Checker::default();
    let structural = Checker::with_config(CheckerConfig {
        memoize: false,
        ..CheckerConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    let classes = [
        Class::Auto,
        Class::Annotation,
        Class::Modification,
        Class::BeyondScope,
        Class::Unsafe,
    ];
    let mut id = 0usize;
    for &class in &classes {
        for _ in 0..3 {
            let site = build_site(&mut rng, class, id);
            id += 1;
            let fast = classify_site(&site, &memoized);
            let slow = classify_site(&site, &structural);
            assert_eq!(
                fast, slow,
                "site {} (pattern {}, class {:?}) classified differently",
                site.id, site.pattern, site.expected
            );
        }
    }
}

/// The rendered Figure 9 table — the §5 artifact itself — must be
/// byte-identical whether the checker runs id-native and memoized (the
/// default) or as the tree-walking structural reference. This is the
/// in-repo half of the refactor's acceptance gate (the other half is an
/// old-binary/new-binary diff of the `fig9` output).
#[test]
fn fig9_table_is_byte_identical_between_memoized_and_structural() {
    let seed = 0x0F19_2016;
    let libs: Vec<_> = libraries().iter().map(|p| generate(p, seed)).collect();
    let render = |checker: &Checker| {
        let tallies = libs.iter().map(|l| classify_library(l, checker)).collect();
        fig9_table(&CaseStudy {
            libs: libs.clone(),
            tallies,
            baseline: None,
        })
    };
    let fast = render(&Checker::default());
    let slow = render(&Checker::with_config(CheckerConfig {
        memoize: false,
        ..CheckerConfig::default()
    }));
    assert_eq!(fast, slow, "fig. 9 table diverged:\n{fast}\n---\n{slow}");
}
