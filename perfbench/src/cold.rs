//! `cold_modules`: serial `rtr check`-style checks of the module mix.
//! Every module gets a fresh `Session`, one check, and both renderings
//! (human and `rtr-check-v1` JSON); nothing is reused between modules.

use std::time::{Duration, Instant};

use rtr::json::reports_to_json;
use rtr::session::{CheckReport, Session, SessionConfig, SourceFile};
use rtr_core::check::Checker;
use rtr_core::diag::render;
use rtr_lang::sexp::read_all;
use rtr_lang::{check_module_source_incremental, elaborate_module_items};

use crate::gen::{cold_mix, ColdModule};
use crate::layers::{sample_fresh, Counts, Layers};
use crate::util::{self, median, timed, Digest, EndToEnd, Outcome, SetupTimes, RSS_PASSES};

/// What a user of `rtr check` waits for: check plus both renderings.
fn check_and_render(module: &ColdModule) -> (CheckReport, String, String) {
    let session = Session::new(SessionConfig::default());
    let report = session.check(&SourceFile::new(module.name, module.text.as_str()));
    let human = report.render_human(&module.text);
    let json = reports_to_json(std::slice::from_ref(&report));
    (report, human, json)
}

/// Is the report the module's known answer? `errors` diagnostics, all
/// `E0002`, a human rendering iff there are errors, and a JSON summary
/// that counts them.
fn verdict_ok(module: &ColdModule, report: &CheckReport, human: &str, json: &str) -> bool {
    let codes_ok = report
        .diagnostics
        .iter()
        .all(|d| d.code.as_str() == "E0002");
    let summary_errors = rtr::json::parse(json)
        .ok()
        .and_then(|j| j.get("summary")?.get("errors")?.as_f64());
    report.stats.errors == module.errors
        && report.diagnostics.len() == module.errors
        && codes_ok
        && human.is_empty() == (module.errors == 0)
        && summary_errors == Some(module.errors as f64)
}

/// One pass over the mix: per-module times and wrong verdicts.
fn pass(mix: &[ColdModule]) -> (Vec<Duration>, u64) {
    let mut times = Vec::with_capacity(mix.len());
    let mut wrong = 0;
    for module in mix {
        let ((report, human, json), d) = timed(|| check_and_render(module));
        times.push(d);
        wrong += u64::from(!verdict_ok(module, &report, &human, &json));
    }
    (times, wrong)
}

/// Set-up: generation plus the first pass over the mix.
fn setup(seed: u64, attempted: &mut u64, failed: &mut u64) -> (Vec<ColdModule>, SetupTimes) {
    let (mix, times) = util::repeat_setup(
        || {
            let mix = cold_mix(seed);
            let (_, wrong) = pass(&mix);
            *attempted += mix.len() as u64;
            *failed += wrong;
            mix
        },
        drop,
    );
    let mut d = Digest::new();
    for module in &mix {
        d.add(module.name);
        d.add(&module.text);
    }
    println!("cold_modules seed inputs digest: {}", d.hex());
    (mix, times)
}

fn items(mix: &[ColdModule]) -> usize {
    mix.iter().map(|m| m.items).sum()
}

pub fn measure(seed: u64, budget: Duration) -> Outcome {
    let (mut attempted, mut failed) = (0, 0);
    let (mix, setup) = setup(seed, &mut attempted, &mut failed);
    let n_items = items(&mix) as f64;
    let mut passes: Vec<Vec<Duration>> = Vec::new();
    let mut rss = 0.0;
    let start = Instant::now();
    while start.elapsed() < budget || passes.len() < 2 * RSS_PASSES {
        let (times, wrong) = pass(&mix);
        attempted += mix.len() as u64;
        failed += wrong;
        passes.push(times);
        if passes.len() == RSS_PASSES {
            rss = util::peak_rss_mb();
        }
    }
    let per_module: Vec<Vec<f64>> = (0..mix.len())
        .map(|i| passes.iter().map(|t| util::us(t[i])).collect())
        .collect();
    let items_per_s: Vec<f64> = passes
        .iter()
        .map(|t| n_items / t.iter().map(Duration::as_secs_f64).sum::<f64>())
        .collect();
    let all: Vec<f64> = per_module.iter().flatten().copied().collect();
    let medians: Vec<f64> = per_module.iter().map(|v| median(v)).collect();
    eprintln!(
        "cold_modules: {} passes, {} module checks",
        passes.len(),
        all.len()
    );
    EndToEnd {
        setup: &setup,
        rss_mb: rss,
        attempted,
        failed,
        throughput_per_s: median(&items_per_s),
        request_us: &all,
        family_medians_us: &medians,
    }
    .outcome()
}

/// Replays each module through the session, the rtr-lang call it wraps,
/// and the reader → elaborator → module driver → renderer pieces.
fn replay(mix: &[ColdModule], layers: &mut Layers) -> u64 {
    let mut c = Counts::default();
    let mut wrong = 0;
    let passes = layers.passes;
    for module in mix {
        let text = module.text.as_str();
        let check_session = || {
            let session = Session::new(SessionConfig::default());
            timed(|| session.check(&SourceFile::new(module.name, text)))
        };
        let check_lang = || {
            let checker = Checker::default();
            let (lang, lang_t) = timed(|| check_module_source_incremental(text, &checker, None));
            std::hint::black_box(lang);
            lang_t
        };
        // Alternating which call goes first keeps call order out of
        // their difference.
        let ((report, session_t), lang_t) = if passes.is_multiple_of(2) {
            (check_session(), check_lang())
        } else {
            let lang_t = check_lang();
            (check_session(), lang_t)
        };
        let (forms, read) = timed(|| read_all(text).expect("mix modules read"));
        let (m, elab) = timed(|| elaborate_module_items(text).expect("mix modules read"));
        let checker = Checker::default();
        let (mc, check) = timed(|| checker.check_module(&m.items));
        let ((human, json), render_t) = timed(|| {
            let mut human = String::new();
            for d in &report.diagnostics {
                human.push_str(&render(d, module.name, text));
            }
            (human, reports_to_json(std::slice::from_ref(&report)))
        });
        wrong += u64::from(!verdict_ok(module, &report, &human, &json));
        wrong += u64::from(mc.diagnostics.len() != module.errors);
        layers.session.add_self(session_t, lang_t);
        layers.reader.add(read);
        layers.elab.add_self(elab, read);
        layers.add_check(module.family, check);
        layers.render.add(render_t);
        layers.record_module(module.name, session_t);
        c.forms += forms.len() as u64;
        c.bytes += text.len() as u64;
        c.nodes += m.spans.len() as u64;
        c.items += mc.results.len() as u64;
        c.diags += mc.diagnostics.len() as u64;
        c.render_diags += report.diagnostics.len() as u64;
        c.requests += 1;
        sample_fresh();
    }
    layers.end_pass(c);
    wrong
}

pub fn trace(seed: u64, budget: Duration) -> Outcome {
    let (mut attempted, mut failed) = (0, 0);
    let (mix, setup) = setup(seed, &mut attempted, &mut failed);
    let mut layers = Layers {
        inputs_items: items(&mix) as u64,
        setup_first_s: setup.first(),
        ..Layers::default()
    };
    let (mut untraced, mut replay_s) = (vec![], vec![]);
    let start = Instant::now();
    while start.elapsed() < budget || layers.passes < 2 {
        let (times, wrong) = pass(&mix);
        untraced.push(times.iter().map(Duration::as_secs_f64).sum::<f64>());
        attempted += mix.len() as u64;
        failed += wrong;
        let (wrong, d) = timed(|| replay(&mix, &mut layers));
        replay_s.push(d.as_secs_f64());
        attempted += mix.len() as u64;
        failed += wrong;
    }
    let n = mix.len() as f64;
    layers.untraced_request_s = median(&untraced) / n;
    layers.replay_request_s = median(&replay_s) / n;
    Outcome {
        attempted,
        failed,
        metrics: layers.emit(),
    }
}
