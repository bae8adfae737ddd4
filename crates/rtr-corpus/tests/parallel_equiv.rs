//! Sharding the corpus classification across worker threads must not
//! change a single byte of the report: outcomes are folded in site
//! order and every solver/judgment cache the workers share is keyed on
//! thread-independent content (interned ids, epochs, canonical
//! fingerprints).

use rtr_core::check::Checker;
use rtr_corpus::classify::{classify_library, classify_library_jobs};
use rtr_corpus::gen::generate;
use rtr_corpus::profiles::libraries;
use rtr_corpus::report::{fig9_table, run_case_study_jobs, stats_table};

#[test]
fn parallel_classification_matches_serial() {
    // A slice of each library keeps the test quick while still crossing
    // shard boundaries (jobs > 1 even on single-core CI).
    let checker = Checker::default();
    for profile in libraries() {
        let lib = generate(&profile, 2016);
        let sample = rtr_corpus::gen::Library {
            profile: lib.profile.clone(),
            sites: lib.sites.iter().take(24).cloned().collect(),
            filler: Vec::new(),
        };
        let serial = classify_library(&sample, &checker);
        for jobs in [2, 3, 8] {
            let parallel = classify_library_jobs(&sample, &checker, jobs);
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "{}: tally diverged at jobs={jobs}",
                profile.name
            );
        }
    }
}

#[test]
fn parallel_report_is_byte_identical() {
    // Full-study comparison on the committed seed: the rendered tables
    // (the artifact a user would diff) must match byte for byte.
    let serial = run_case_study_jobs(2016, false, 1);
    let parallel = run_case_study_jobs(2016, false, 4);
    assert_eq!(fig9_table(&serial), fig9_table(&parallel));
    assert_eq!(stats_table(&serial), stats_table(&parallel));
}
