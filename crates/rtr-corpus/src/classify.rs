//! The staged classification methodology of §5.
//!
//! For every access site we ask, in order: does it verify as written?
//! With stronger annotations? After the local code modification? Each
//! stage mirrors the paper's workflow, and the result is *measured* (by
//! actually running the type checker), never assumed from the template.

use rtr_core::check::Checker;
use rtr_core::diag::Code;
use rtr_core::parallel::map_pulled;
use rtr_core::trace::TraceCounts;
use rtr_lang::{check_module_source, check_module_source_traced};

use crate::gen::Library;
use crate::patterns::{Class, Site};

/// The measured outcome for one site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Verified with no changes.
    Auto,
    /// Verified once annotations were strengthened.
    WithAnnotations,
    /// Verified once the code was locally modified.
    WithModifications,
    /// Not verified by any stage.
    Unverified,
}

/// Does a module verify? Decided on the structured diagnostics of the
/// recovering checker: clean means no error-severity [`Code`]s, not a
/// string match against rendered messages. (For well-typed modules the
/// recovering path builds the same environments as the paper's nested
/// encoding, so this agrees with checking that encoding — the
/// `diagnostics_equivalence` tests pin it.)
fn verifies(src: &str, checker: &Checker, work: &mut TraceCounts) -> bool {
    let (report, counts) = check_module_source_traced(src, checker);
    work.merge(&counts);
    report.is_clean()
}

/// The stable diagnostic codes a site's *plain* (as-written) module
/// produces — every failure in the module, not just the first, thanks
/// to the recovering checker.
pub fn site_error_codes(site: &Site, checker: &Checker) -> Vec<Code> {
    check_module_source(&site.plain, checker)
        .diagnostics
        .iter()
        .filter(|d| d.is_error())
        .map(|d| d.code)
        .collect()
}

/// Classifies one site with the staged methodology.
pub fn classify_site(site: &Site, checker: &Checker) -> Outcome {
    classify_site_traced(site, checker).0
}

/// [`classify_site`], also returning the summed work counters of the
/// module checks it ran.
fn classify_site_traced(site: &Site, checker: &Checker) -> (Outcome, TraceCounts) {
    let mut work = TraceCounts::default();
    let stages = [
        (Some(&site.plain), Outcome::Auto),
        (site.annotated.as_ref(), Outcome::WithAnnotations),
        (site.modified.as_ref(), Outcome::WithModifications),
    ];
    for (src, outcome) in stages {
        if src.is_some_and(|src| verifies(src, checker, &mut work)) {
            return (outcome, work);
        }
    }
    (Outcome::Unverified, work)
}

/// Aggregated, op-weighted results for one library.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Ops verified automatically.
    pub auto_ops: usize,
    /// Ops verified with added annotations.
    pub annotated_ops: usize,
    /// Ops verified after code modifications.
    pub modified_ops: usize,
    /// Ops not verified (any reason).
    pub unverified_ops: usize,
    /// Of the unverified: ops whose template is beyond the theory.
    pub beyond_scope_ops: usize,
    /// Of the unverified: ops needing unimplemented features.
    pub unimplemented_ops: usize,
    /// Of the unverified: genuinely unsafe ops (correct rejections).
    pub unsafe_ops: usize,
    /// Sites whose measured outcome disagreed with the template design
    /// (should always be zero; a canary for harness bugs).
    pub misclassified: usize,
}

impl Tally {
    /// Total ops.
    pub fn total(&self) -> usize {
        self.auto_ops + self.annotated_ops + self.modified_ops + self.unverified_ops
    }

    /// Percentage helper.
    pub fn pct(&self, n: usize) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.total() as f64
        }
    }
}

/// Classifies every site in a library.
pub fn classify_library(lib: &Library, checker: &Checker) -> Tally {
    classify_library_jobs(lib, checker, 1)
}

/// Classifies every site in a library on `jobs` workers.
///
/// Workers pull the next site from a shared cursor
/// ([`rtr_core::parallel::map_pulled`]; the calling thread is one of
/// them), so a worker that drew cheap sites takes more and neither
/// idles behind a fixed half. The checker is shared by reference: its
/// memo tables are `Sync` (mutex-guarded, keyed on interned ids and
/// canonical fingerprints), so workers transparently share solver-cache
/// verdicts. Outcomes come back and are folded **in site order**, so the
/// tally — and any report rendered from it — is identical to the
/// single-threaded run whichever worker checked which site. Caveat: that
/// guarantee is as strong as the solvers' verdicts are
/// schedule-independent — definite (`Sat`/`Unsat`) verdicts always are,
/// while a query sitting exactly at a conflict/blast budget could in
/// principle flip to `Unknown` under a different interleaving of the
/// shared session; corpus queries run orders of magnitude below those
/// budgets (the equivalence tests pin the end-to-end property).
pub fn classify_library_jobs(lib: &Library, checker: &Checker, jobs: usize) -> Tally {
    classify_library_traced(lib, checker, jobs).0
}

/// [`classify_library_jobs`], also returning the summed work counters of
/// every module check it ran.
pub(crate) fn classify_library_traced(
    lib: &Library,
    checker: &Checker,
    jobs: usize,
) -> (Tally, TraceCounts) {
    let (outcomes, shards) = map_pulled(&lib.sites, jobs, |work: &mut TraceCounts, site| {
        let (outcome, counts) = classify_site_traced(site, checker);
        work.merge(&counts);
        outcome
    });
    let mut work = TraceCounts::default();
    for shard in &shards {
        work.merge(shard);
    }
    (tally_outcomes(lib, &outcomes), work)
}

/// Deterministic fold of per-site outcomes (site order) into a tally.
fn tally_outcomes(lib: &Library, outcomes: &[Outcome]) -> Tally {
    let mut t = Tally::default();
    for (site, &outcome) in lib.sites.iter().zip(outcomes) {
        match outcome {
            Outcome::Auto => t.auto_ops += site.num_ops,
            Outcome::WithAnnotations => t.annotated_ops += site.num_ops,
            Outcome::WithModifications => t.modified_ops += site.num_ops,
            Outcome::Unverified => {
                t.unverified_ops += site.num_ops;
                match site.expected {
                    Class::BeyondScope => t.beyond_scope_ops += site.num_ops,
                    Class::Unimplemented => t.unimplemented_ops += site.num_ops,
                    Class::Unsafe => t.unsafe_ops += site.num_ops,
                    _ => {}
                }
            }
        }
        let expected = match site.expected {
            Class::Auto => Outcome::Auto,
            Class::Annotation => Outcome::WithAnnotations,
            Class::Modification => Outcome::WithModifications,
            _ => Outcome::Unverified,
        };
        if outcome != expected {
            t.misclassified += 1;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::profiles::libraries;
    use rtr_core::config::CheckerConfig;

    #[test]
    fn staged_methodology_on_a_small_sample() {
        // A fast smoke test over a small slice of each library (the full
        // run is the fig9 binary / benchmark).
        let checker = Checker::default();
        for profile in libraries() {
            let lib = generate(&profile, 2016);
            let sample = Library {
                profile: lib.profile.clone(),
                sites: lib.sites.iter().take(12).cloned().collect(),
                filler: Vec::new(),
            };
            let tally = classify_library(&sample, &checker);
            assert_eq!(
                tally.misclassified, 0,
                "{}: measured classes diverged from design",
                profile.name
            );
        }
    }

    #[test]
    fn diagnostics_equivalence_with_the_fail_fast_shim() {
        // The classifier's verdict is the recovering module driver's;
        // the paper's nested `letrec`/`let` encoding, checked fail-fast
        // as one expression, must agree on every staged variant.
        let checker = Checker::default();
        for profile in libraries() {
            let lib = generate(&profile, 7);
            for site in lib.sites.iter().take(8) {
                for src in [
                    Some(&site.plain),
                    site.annotated.as_ref(),
                    site.modified.as_ref(),
                ]
                .into_iter()
                .flatten()
                {
                    let m = rtr_lang::elaborate_module_items(src).expect("reads");
                    let strict =
                        m.syntax_errors.is_empty() && checker.check_program(&m.program()).is_ok();
                    let report = rtr_lang::check_module_source(src, &checker);
                    assert_eq!(
                        strict,
                        report.is_clean(),
                        "{}: recovery disagrees with fail-fast on\n{src}",
                        site.pattern
                    );
                }
            }
        }
    }

    #[test]
    fn unsafe_sites_produce_stable_mismatch_codes() {
        // The §4.2 mutable cache-size bug and friends are rejected with
        // machine-readable codes, not matched-on message strings.
        let checker = Checker::default();
        let mut saw_unsafe = false;
        for profile in libraries() {
            let lib = generate(&profile, 2016);
            for site in lib
                .sites
                .iter()
                .filter(|s| s.expected == Class::Unsafe)
                .take(3)
            {
                let codes = site_error_codes(site, &checker);
                assert!(
                    !codes.is_empty(),
                    "{}: unsafe site must produce diagnostics",
                    site.pattern
                );
                assert!(
                    codes.iter().all(|c| c.as_str().starts_with('E')),
                    "{}: unexpected codes {codes:?}",
                    site.pattern
                );
                saw_unsafe = true;
            }
        }
        assert!(saw_unsafe, "the corpus contains unsafe sites");
    }

    #[test]
    fn lambda_tr_baseline_verifies_nothing() {
        // The λTR baseline (stock occurrence typing) cannot prove any
        // refinement-typed access: its auto column is 0%.
        let baseline = Checker::with_config(CheckerConfig::lambda_tr());
        let profile = &libraries()[0];
        let lib = generate(profile, 2016);
        for site in lib.sites.iter().take(10) {
            assert_eq!(
                classify_site(site, &baseline),
                Outcome::Unverified,
                "λTR unexpectedly verified {}",
                site.pattern
            );
        }
    }
}
