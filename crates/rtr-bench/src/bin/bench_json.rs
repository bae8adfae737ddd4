//! `bench_json` — machine-readable checker benchmarks.
//!
//! Runs the cheap end-to-end checking workloads (the paper programs plus
//! the synthetic alias/narrowing chains) and writes per-bench mean/min
//! nanoseconds to a JSON report, so the perf trajectory of the checker is
//! recorded in-repo instead of scrolling away in criterion's stdout.
//!
//! ```sh
//! cargo run --release -p rtr-bench --bin bench_json -- \
//!     [--out BENCH_checker.json] [--samples N] [--quick]
//! ```
//!
//! `--quick` caps calibration so a CI smoke run finishes in seconds.
//!
//! Each iteration uses a **fresh `Checker`** so its per-checker memo
//! tables start cold — the reported times are one-shot module checks,
//! not warm steady state. (The global `Ty`/`Prop`/`Obj` interner is
//! process-wide and stays warm, as it would in any long-lived tool.)
//!
//! The `warm_edit/*` workloads are the deliberate exception: they model
//! an editor session, alternating a one-definition body edit against a
//! **warm** incremental cache (one long-lived checker, one
//! `ModuleCache`), so each iteration is a one-item re-check plus cache
//! splicing rather than a from-scratch pass. Compare them against the
//! same-module cold workloads (`module/filler_50`, `module/string_8`)
//! for the incremental speedup.

use std::time::{Duration, Instant};

use rtr_bench::{
    alias_chain_src, bv_chain_src, dot_prod_module_src, filler_module_src, many_errors_module_src,
    narrowing_chain_src, string_module_src, xtime_module_src, DOT_PROD_SRC, MAX_SRC, XTIME_SRC,
};
use rtr_core::check::Checker;
use rtr_lang::{check_module_source, check_module_source_incremental, check_source, ModuleCache};

struct Opts {
    out: String,
    samples: usize,
    quick: bool,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        out: "BENCH_checker.json".to_owned(),
        samples: 10,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => opts.out = args.next().expect("--out needs a path"),
            "--samples" => {
                opts.samples = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--samples needs a number")
            }
            "--quick" => opts.quick = true,
            other => {
                eprintln!("bench_json: unknown argument {other}");
                eprintln!("usage: bench_json [--out PATH] [--samples N] [--quick]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// A named, boxed workload closure (borrowing the checker and sources).
type Workload<'a> = (&'static str, Box<dyn FnMut() + 'a>);

struct Record {
    name: &'static str,
    mean_ns: f64,
    min_ns: f64,
    samples: usize,
    iters: u64,
}

/// Times `f` like the criterion shim: calibrate an iteration count toward
/// `target` per sample, then take `samples` timed samples.
fn measure(name: &'static str, samples: usize, quick: bool, mut f: impl FnMut()) -> Record {
    let target = if quick {
        Duration::from_millis(2)
    } else {
        Duration::from_millis(20)
    };
    // Untimed warm-up: absorbs one-time effects (lazy allocations, cache
    // population, a pending interner eviction left by earlier workloads)
    // so both calibration and the timed samples observe steady state.
    for _ in 0..3 {
        f();
    }
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= target || iters >= 1 << 16 {
            break;
        }
        let per_iter = elapsed.as_nanos().max(1) / iters as u128;
        let goal = (target.as_nanos() / per_iter).clamp(iters as u128 + 1, iters as u128 * 16);
        iters = goal as u64;
    }
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    let mean_ns = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
    let min_ns = per_iter_ns.iter().cloned().fold(f64::INFINITY, f64::min);
    eprintln!(
        "{name:<32} mean {:>12.0} ns  min {:>12.0} ns",
        mean_ns, min_ns
    );
    Record {
        name,
        mean_ns,
        min_ns,
        samples,
        iters,
    }
}

fn main() {
    let opts = parse_args();
    let alias16 = alias_chain_src(16);
    let alias64 = alias_chain_src(64);
    let alias256 = alias_chain_src(256);
    let alias512 = alias_chain_src(512);
    let string8 = string_module_src(8);
    let narrow8 = narrowing_chain_src(8);
    let narrow32 = narrowing_chain_src(32);
    let filler50 = filler_module_src(50);
    let many_errors50 = many_errors_module_src(50);
    let dot_prod8 = dot_prod_module_src(8);
    let xtime4 = xtime_module_src(4);
    let bv_chain6 = bv_chain_src(6);

    // Warm-edit pairs: the same module with one definition's body
    // constant flipped (signatures untouched, so dependents splice via
    // the early cutoff).
    let filler50_a = filler_module_src(50);
    let filler50_b = filler50_a.replace(
        "(define (u25 x y) (+ (* 2 x) (- y 4)))",
        "(define (u25 x y) (+ (* 3 x) (- y 4)))",
    );
    assert_ne!(filler50_a, filler50_b, "the warm filler edit must land");
    let string8_a = string_module_src(8);
    let string8_b = string8_a.replace(
        "(define (digits3 s) (string-length s))",
        "(define (digits3 s) (+ (string-length s) 0))",
    );
    assert_ne!(string8_a, string8_b, "the warm string edit must land");
    let warm_checker = Checker::default();
    let (mut filler_cache, mut string_cache): (Option<ModuleCache>, Option<ModuleCache>) =
        (None, None);
    let (mut filler_flip, mut string_flip) = (false, false);
    // The LSP didChange round trip (PR 10): everything `rtr lsp` does
    // per keystroke except the pipe itself — frame + parse the
    // notification, incremental overlay check through the session, and
    // render the publishDiagnostics payload.
    let lsp_session = rtr::session::Session::new(rtr::session::SessionConfig {
        jobs: 1,
        ..rtr::session::SessionConfig::default()
    });
    const LSP_URI: &str = "file:///bench/filler_50.rtr";
    let (mut lsp_flip, mut lsp_warm) = (false, false);
    let mut lsp_epoch = rtr_core::intern::evict_epoch();

    let workloads: Vec<Workload> = vec![
        (
            "paper/fig1_max",
            Box::new(|| {
                check_source(MAX_SRC, &Checker::default()).expect("max checks");
            }),
        ),
        (
            "paper/dot_prod",
            Box::new(|| {
                check_source(DOT_PROD_SRC, &Checker::default()).expect("dot-prod checks");
            }),
        ),
        (
            "paper/xtime",
            Box::new(|| {
                check_source(XTIME_SRC, &Checker::default()).expect("xtime checks");
            }),
        ),
        (
            "alias_chain/16",
            Box::new(|| {
                check_source(&alias16, &Checker::default()).expect("alias chain checks");
            }),
        ),
        (
            "alias_chain/64",
            Box::new(|| {
                check_source(&alias64, &Checker::default()).expect("alias chain checks");
            }),
        ),
        // Deep-environment workloads (PR 4): a 256-binder alias chain and
        // an update-heavy 32-way narrowing chain — the shapes whose
        // per-binder map copies and `update±` tree rebuilds the id-native
        // persistent environment is built to collapse.
        (
            "alias_chain/256",
            Box::new(|| {
                check_source(&alias256, &Checker::default()).expect("alias chain checks");
            }),
        ),
        // PR 7: double the alias-chain depth again — the per-binder cost
        // the zero-information let fast path removes grows linearly here,
        // so regressions show up amplified.
        (
            "alias_chain/512",
            Box::new(|| {
                check_source(&alias512, &Checker::default()).expect("alias chain checks");
            }),
        ),
        (
            "narrowing_chain/8",
            Box::new(|| {
                check_source(&narrow8, &Checker::default()).expect("narrowing chain checks");
            }),
        ),
        (
            "narrowing_chain/32",
            Box::new(|| {
                check_source(&narrow32, &Checker::default()).expect("narrowing chain checks");
            }),
        ),
        (
            "module/filler_50",
            Box::new(|| {
                check_source(&filler50, &Checker::default()).expect("filler module checks");
            }),
        ),
        // Multi-error recovery (PR 5): every third definition fails, and
        // the recovering module checker reports all of them — this keeps
        // the diagnostics path honest without regressing the well-typed
        // hot loop (the workloads above).
        (
            "module/many_errors_50",
            Box::new(|| {
                let report = check_module_source(&many_errors50, &Checker::default());
                assert_eq!(report.error_count(), 17, "recovery must find every error");
            }),
        ),
        // Solver-heavy workloads (PR 3): scaled theory modules and a
        // growing-fact-set narrowing chain.
        (
            "module/dot_prod_8",
            Box::new(|| {
                check_source(&dot_prod8, &Checker::default()).expect("dot-prod module checks");
            }),
        ),
        (
            "module/xtime_4",
            Box::new(|| {
                check_source(&xtime4, &Checker::default()).expect("xtime module checks");
            }),
        ),
        (
            "bv_chain/6",
            Box::new(|| {
                check_source(&bv_chain6, &Checker::default()).expect("bv chain checks");
            }),
        ),
        // String-theory module (PR 7): overlapping regex entailments that
        // the persistent regex session answers from warm DFA caches.
        (
            "module/string_8",
            Box::new(|| {
                check_source(&string8, &Checker::default()).expect("string module checks");
            }),
        ),
        // Incremental warm edits (PR 9): each iteration flips one body
        // constant and re-checks against the previous iteration's
        // cache — the editor-loop latency the incremental driver is
        // built for. Compare against the cold module workloads above.
        (
            "warm_edit/filler_50",
            Box::new(|| {
                filler_flip = !filler_flip;
                let src = if filler_flip {
                    &filler50_b
                } else {
                    &filler50_a
                };
                let was_warm = filler_cache.is_some();
                let (report, cache, stats) =
                    check_module_source_incremental(src, &warm_checker, filler_cache.as_ref());
                assert!(report.is_clean(), "warm filler checks");
                if was_warm {
                    let s = stats.expect("the incremental path must engage");
                    assert_eq!(s.rechecked, 1, "exactly the edited definition re-checks");
                }
                filler_cache = cache;
            }),
        ),
        (
            "lsp_edit/filler_50",
            Box::new(|| {
                lsp_flip = !lsp_flip;
                let src = if lsp_flip { &filler50_b } else { &filler50_a };
                let body = format!(
                    "{{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didChange\",\"params\":{{\"textDocument\":{{\"uri\":\"{LSP_URI}\",\"version\":1}},\"contentChanges\":[{{\"text\":\"{}\"}}]}}}}",
                    rtr::json::escape(src)
                );
                let mut wire = Vec::new();
                rtr::lsp::framing::write_message(&mut wire, &body).expect("frame");
                let framed = rtr::lsp::framing::read_message(&mut &wire[..])
                    .expect("read frame")
                    .expect("one frame");
                let msg = rtr::lsp::protocol::parse_message(&framed).expect("parse");
                let text =
                    rtr::lsp::protocol::last_content_change(&msg.params).expect("full sync text");
                let file = rtr::session::SourceFile::new("/bench/filler_50.rtr", text);
                let token = rtr_core::budget::CancelToken::new();
                // The session retires the fresh interner arena every so
                // many checks, which invalidates item caches by design
                // (the retirement runs after the previous iteration
                // stored its cache). Only iterations whose cache
                // survived that epoch must splice.
                let epoch = rtr_core::intern::evict_epoch();
                let report = lsp_session.check_cancellable(&file, &token);
                if lsp_warm && epoch == lsp_epoch {
                    assert_eq!(
                        report.stats.trace.map(|t| t.rechecked),
                        Some(1),
                        "exactly the edited definition re-checks through the overlay"
                    );
                }
                (lsp_warm, lsp_epoch) = (true, epoch);
                let ix = rtr_core::diag::LineIndex::new(text);
                let publish = rtr::lsp::protocol::publish_diagnostics_params(
                    LSP_URI,
                    1,
                    &ix,
                    text,
                    &report.diagnostics,
                );
                assert!(
                    publish.contains("\"diagnostics\":[]"),
                    "warm filler is clean"
                );
            }),
        ),
        (
            "warm_edit/string_8",
            Box::new(|| {
                string_flip = !string_flip;
                let src = if string_flip { &string8_b } else { &string8_a };
                let was_warm = string_cache.is_some();
                let (report, cache, stats) =
                    check_module_source_incremental(src, &warm_checker, string_cache.as_ref());
                assert!(report.is_clean(), "warm string module checks");
                if was_warm {
                    let s = stats.expect("the incremental path must engage");
                    assert_eq!(s.rechecked, 1, "exactly the edited definition re-checks");
                }
                string_cache = cache;
            }),
        ),
    ];

    let mut records = Vec::new();
    for (name, mut f) in workloads {
        records.push(measure(name, opts.samples.max(1), opts.quick, &mut *f));
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"rtr-bench-checker-v1\",\n  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.0}, \"min_ns\": {:.0}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            r.name,
            r.mean_ns,
            r.min_ns,
            r.samples,
            r.iters,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&opts.out, &json).expect("writing the report");
    eprintln!("wrote {}", opts.out);
}
