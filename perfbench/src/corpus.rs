//! `corpus`: the paper's §5 case study. Each pass classifies the 1,085
//! vector operations of the generated math/plot/pict3d libraries with a
//! fresh checker and two worker threads, exactly like `fig9`.

use std::time::{Duration, Instant};

use rtr_core::check::Checker;
use rtr_corpus::classify::{classify_library_jobs, classify_site, Outcome as Verdict, Tally};
use rtr_corpus::gen::{generate, Library};
use rtr_corpus::patterns::{Class, Site};
use rtr_corpus::profiles::libraries;
use rtr_lang::elaborate_module_items;
use rtr_lang::sexp::read_all;

use crate::gen::Family;
use crate::layers::{sample_fresh, Counts, Layers};
use crate::util::{self, median, timed, Digest, EndToEnd, Outcome, SetupTimes, RSS_PASSES};

const JOBS: usize = 2;

/// The tally the checker must produce, from each site's template class.
fn expected_tally(lib: &Library) -> Tally {
    let mut t = Tally::default();
    for s in &lib.sites {
        let n = s.num_ops;
        match s.expected {
            Class::Auto => t.auto_ops += n,
            Class::Annotation => t.annotated_ops += n,
            Class::Modification => t.modified_ops += n,
            other => {
                t.unverified_ops += n;
                match other {
                    Class::BeyondScope => t.beyond_scope_ops += n,
                    Class::Unimplemented => t.unimplemented_ops += n,
                    Class::Unsafe => t.unsafe_ops += n,
                    _ => {}
                }
            }
        }
    }
    t
}

fn fields(t: &Tally) -> [usize; 7] {
    [
        t.auto_ops,
        t.annotated_ops,
        t.modified_ops,
        t.unverified_ops,
        t.beyond_scope_ops,
        t.unimplemented_ops,
        t.unsafe_ops,
    ]
}

/// Sites whose measured class differs from the template's. A tally
/// that disagrees with the expected one while reporting no
/// misclassified site still counts one wrong verdict.
fn wrong_sites(got: &Tally, want: &Tally) -> u64 {
    let mis = got.misclassified as u64;
    if mis == 0 && fields(got) != fields(want) {
        1
    } else {
        mis
    }
}

fn expected_verdict(site: &Site) -> Verdict {
    match site.expected {
        Class::Auto => Verdict::Auto,
        Class::Annotation => Verdict::WithAnnotations,
        Class::Modification => Verdict::WithModifications,
        _ => Verdict::Unverified,
    }
}

struct Inputs {
    libs: Vec<Library>,
    want: Vec<Tally>,
    sites: u64,
}

fn generate_inputs(seed: u64) -> Inputs {
    let libs: Vec<Library> = libraries().iter().map(|p| generate(p, seed)).collect();
    let want: Vec<Tally> = libs.iter().map(expected_tally).collect();
    // The paper's headline: about half of all ops verify unchanged
    // (53.2% in this reproduction's Figure 9), whatever the seed.
    let auto: usize = want.iter().map(|t| t.auto_ops).sum();
    let total: usize = want.iter().map(Tally::total).sum();
    assert_eq!(total, 1085, "the corpus has the paper's 1,085 ops");
    assert_eq!(
        format!("{:.1}", 100.0 * auto as f64 / total as f64),
        "53.2",
        "the template mix must reproduce Figure 9's overall auto rate"
    );
    let sites = libs.iter().map(|l| l.sites.len() as u64).sum();
    Inputs { libs, want, sites }
}

fn digest(inputs: &Inputs) -> String {
    let mut d = Digest::new();
    for lib in &inputs.libs {
        for s in &lib.sites {
            d.add(&s.plain);
            d.add(s.annotated.as_deref().unwrap_or(""));
            d.add(s.modified.as_deref().unwrap_or(""));
            d.add(&format!("{} {:?}", s.num_ops, s.expected));
        }
    }
    d.hex()
}

/// One fig9 pass: library times and wrong sites. Like a fresh `fig9`
/// process, each pass starts with a fresh checker and with the
/// interner's fresh-name region retired (no check is in flight here).
fn pass(inputs: &Inputs, jobs: usize) -> (Vec<Duration>, u64) {
    rtr_core::intern::maybe_evict_fresh(0);
    let checker = Checker::default();
    let mut times = Vec::with_capacity(inputs.libs.len());
    let mut wrong = 0;
    for (lib, want) in inputs.libs.iter().zip(&inputs.want) {
        let (got, d) = timed(|| classify_library_jobs(lib, &checker, jobs));
        times.push(d);
        wrong += wrong_sites(&got, want);
    }
    (times, wrong)
}

/// Set-up: generation plus the first fig9 pass.
fn setup(seed: u64, attempted: &mut u64, failed: &mut u64) -> (Inputs, SetupTimes) {
    let (inputs, times) = util::repeat_setup(
        || {
            let inputs = generate_inputs(seed);
            let (_, wrong) = pass(&inputs, JOBS);
            *attempted += inputs.sites;
            *failed += wrong;
            inputs
        },
        drop,
    );
    println!("corpus seed inputs digest: {}", digest(&inputs));
    (inputs, times)
}

pub fn measure(seed: u64, budget: Duration) -> Outcome {
    let (mut attempted, mut failed) = (0, 0);
    let (inputs, setup) = setup(seed, &mut attempted, &mut failed);
    let mut passes: Vec<Vec<Duration>> = Vec::new();
    let mut rss = 0.0;
    let start = Instant::now();
    while start.elapsed() < budget || passes.len() < 2 * RSS_PASSES {
        let (times, wrong) = pass(&inputs, JOBS);
        attempted += inputs.sites;
        failed += wrong;
        passes.push(times);
        if passes.len() == RSS_PASSES {
            rss = util::peak_rss_mb();
        }
    }
    let ops_per_s: Vec<f64> = passes
        .iter()
        .map(|t| 1085.0 / t.iter().map(Duration::as_secs_f64).sum::<f64>())
        .collect();
    let per_lib: Vec<Vec<f64>> = (0..inputs.libs.len())
        .map(|i| passes.iter().map(|t| util::us(t[i])).collect())
        .collect();
    let all: Vec<f64> = per_lib.iter().flatten().copied().collect();
    let medians: Vec<f64> = per_lib.iter().map(|v| median(v)).collect();
    eprintln!(
        "corpus: {} passes, {} library classifications",
        passes.len(),
        all.len()
    );
    EndToEnd {
        setup: &setup,
        rss_mb: rss,
        attempted,
        failed,
        throughput_per_s: median(&ops_per_s),
        request_us: &all,
        family_medians_us: &medians,
    }
    .outcome()
}

/// Replays every staged variant through reader → elaborator → module
/// driver, the pieces `classify_site` runs as one call. Like
/// `classify_site`, it renders nothing.
fn replay(inputs: &Inputs, layers: &mut Layers) -> u64 {
    rtr_core::intern::maybe_evict_fresh(0);
    let checker = Checker::default();
    let mut c = Counts::default();
    let mut wrong = 0;
    for lib in &inputs.libs {
        for site in &lib.sites {
            let stages = [
                Some(&site.plain),
                site.annotated.as_ref(),
                site.modified.as_ref(),
            ];
            let mut verdict = Verdict::Unverified;
            let outcomes = [
                Verdict::Auto,
                Verdict::WithAnnotations,
                Verdict::WithModifications,
            ];
            for (src, outcome) in stages.iter().zip(outcomes) {
                let Some(src) = src else { continue };
                let (forms, read) = timed(|| read_all(src).expect("corpus modules read"));
                let (m, elab) = timed(|| elaborate_module_items(src).expect("corpus modules read"));
                let (mc, check) = timed(|| checker.check_module(&m.items));
                let clean = !mc.diagnostics.iter().any(|d| d.is_error());
                let family = if clean { Family::Lin } else { Family::Errors };
                layers.reader.add(read);
                layers.elab.add_self(elab, read);
                layers.add_check(family, check);
                c.forms += forms.len() as u64;
                c.bytes += src.len() as u64;
                c.nodes += m.spans.len() as u64;
                c.items += mc.results.len() as u64;
                c.diags += mc.diagnostics.len() as u64;
                c.module_checks += 1;
                c.requests += 1;
                sample_fresh();
                if clean {
                    verdict = outcome;
                    break;
                }
            }
            if verdict != expected_verdict(site) {
                wrong += 1;
            }
        }
    }
    layers.end_pass(c);
    wrong
}

pub fn trace(seed: u64, budget: Duration) -> Outcome {
    let (mut attempted, mut failed) = (0, 0);
    let (inputs, setup) = setup(seed, &mut attempted, &mut failed);
    let mut layers = Layers {
        inputs_items: inputs.sites,
        setup_first_s: setup.first(),
        ..Layers::default()
    };
    let (mut serial, mut parallel, mut site_us, mut replay_s) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while start.elapsed() < budget || layers.passes < 2 {
        // The serial and parallel fig9 passes, untraced.
        for (jobs, out) in [(1, &mut serial), (JOBS, &mut parallel)] {
            let (times, wrong) = pass(&inputs, jobs);
            out.push(times.iter().map(Duration::as_secs_f64).sum::<f64>());
            attempted += inputs.sites;
            failed += wrong;
        }
        // Per-site classification, serial.
        rtr_core::intern::maybe_evict_fresh(0);
        let checker = Checker::default();
        for lib in &inputs.libs {
            for site in &lib.sites {
                let (v, d) = timed(|| classify_site(site, &checker));
                site_us.push(util::us(d));
                attempted += 1;
                failed += u64::from(v != expected_verdict(site));
            }
        }
        let (wrong, d) = timed(|| replay(&inputs, &mut layers));
        replay_s.push(d.as_secs_f64());
        attempted += inputs.sites;
        failed += wrong;
    }
    let serial_s = median(&serial);
    layers.corpus_serial_ms = serial_s * 1e3;
    layers.corpus_speedup = serial_s / median(&parallel);
    layers.corpus_site_p50_us = median(&site_us);
    // A request here is one module check; the untraced cost of one is
    // the serial pass spread over the module checks it runs.
    let checks = layers.first.module_checks as f64;
    layers.untraced_request_s = serial_s / checks;
    layers.replay_request_s = median(&replay_s) / checks;
    Outcome {
        attempted,
        failed,
        metrics: layers.emit(),
    }
}
