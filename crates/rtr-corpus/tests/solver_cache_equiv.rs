//! The theory-solving reuse layer (fingerprint memoization, the
//! persistent bitvector and regex sessions) must classify corpus sites
//! exactly like the one-shot reference
//! (`solver_cache: false`): canonicalization preserves the solved
//! constraint system up to variable renaming, so cached verdicts are the
//! verdicts the one-shot solvers would have produced. One flipped
//! verdict here would skew the regenerated Figure 9.
//!
//! This mirrors `memoization_equiv.rs`, which pins down the same
//! property one layer up (judgment memo tables).

use rand::rngs::StdRng;
use rand::SeedableRng;

use rtr_core::check::Checker;
use rtr_core::config::CheckerConfig;
use rtr_corpus::classify::{classify_library_jobs, classify_site};
use rtr_corpus::gen::generate;
use rtr_corpus::patterns::{build_site, Class};
use rtr_corpus::profiles::libraries;

#[test]
fn solver_cached_checker_classifies_sites_like_the_one_shot_reference() {
    let cached = Checker::default();
    let one_shot = Checker::with_config(CheckerConfig {
        solver_cache: false,
        ..CheckerConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0x50_1D_CA_FE);
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
            let fast = classify_site(&site, &cached);
            let slow = classify_site(&site, &one_shot);
            assert_eq!(
                fast, slow,
                "site {} (pattern {}, class {:?}) classified differently with solver caching",
                site.id, site.pattern, site.expected
            );
        }
    }
}

/// String-theory sites: regex-guarded modules — well-typed, ill-typed,
/// ground-literal, subtyping-by-language-inclusion and mixed-theory —
/// must produce identical verdicts and diagnostic codes with the
/// persistent regex session (`solver_cache: true` routes entailments
/// through warm DFA/product caches) and with the one-shot reference.
#[test]
fn string_theory_sites_agree_with_and_without_solver_cache() {
    let digits_fn = r#"
(: digits-only : [s : Str #:where (=~ s #rx"[0-9]+")] -> Int)
(define (digits-only s) (string-length s))
"#;
    let sites: Vec<String> = vec![
        // Guarded call: verifies through the membership atom.
        format!(
            r#"{digits_fn}
(: parse-port : Str -> Int)
(define (parse-port s)
  (if (regexp-match? #rx"[0-9]+" s) (digits-only s) 0))"#
        ),
        // Unguarded call: must fail identically.
        format!(
            r#"{digits_fn}
(: broken : Str -> Int)
(define (broken s) (digits-only s))"#
        ),
        // Ground literals, one passing and one failing.
        format!("{digits_fn}(digits-only \"2016\")"),
        format!("{digits_fn}(digits-only \"pldi\")"),
        // Subtyping as language inclusion, both directions.
        r#"
(: any-digits : [s : Str #:where (=~ s #rx"[0-9]+")] -> Int)
(define (any-digits s) 1)
(: use : [s : Str #:where (=~ s #rx"[0-9]{4}")] -> Int)
(define (use s) (any-digits s))"#
            .to_owned(),
        r#"
(: year-only : [s : Str #:where (=~ s #rx"[0-9]{4}")] -> Int)
(define (year-only s) 1)
(: use : [s : Str #:where (=~ s #rx"[0-9]+")] -> Int)
(define (use s) (year-only s))"#
            .to_owned(),
        // Negated membership learned in the else branch.
        r#"
(: no-digits : [s : Str #:where (!~ s #rx"[0-9]+")] -> Int)
(define (no-digits s) 0)
(: classify : Str -> Int)
(define (classify s)
  (if (regexp-match? #rx"[0-9]+" s) 1 (no-digits s)))"#
            .to_owned(),
        // Union narrowing composed with the regex theory.
        format!(
            r#"{digits_fn}
(: handle : (U Str Int) -> Int)
(define (handle x)
  (if (string? x)
      (if (regexp-match? #rx"[0-9]+" x) (digits-only x) 0)
      x))"#
        ),
    ];
    let cached = Checker::default();
    let one_shot = Checker::with_config(CheckerConfig {
        solver_cache: false,
        ..CheckerConfig::default()
    });
    for (i, src) in sites.iter().enumerate() {
        let fast = rtr_lang::check_module_source(src, &cached);
        let slow = rtr_lang::check_module_source(src, &one_shot);
        let codes = |r: &rtr_lang::module::ModuleReport| {
            r.diagnostics
                .iter()
                .map(|d| format!("{:?}", d.code))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            codes(&fast),
            codes(&slow),
            "string-theory site {i} diverged with solver caching:\n{src}"
        );
    }
}

/// The full §5 study, both configurations, all 1085 operations.
#[test]
fn full_corpus_classification_identical_with_and_without_solver_cache() {
    let cached = Checker::default();
    let one_shot = Checker::with_config(CheckerConfig {
        solver_cache: false,
        ..CheckerConfig::default()
    });
    for profile in libraries() {
        let lib = generate(&profile, 2016);
        let fast = classify_library_jobs(&lib, &cached, 1);
        let slow = classify_library_jobs(&lib, &one_shot, 1);
        assert_eq!(
            format!("{fast:?}"),
            format!("{slow:?}"),
            "{}: tallies diverged",
            profile.name
        );
    }
}
