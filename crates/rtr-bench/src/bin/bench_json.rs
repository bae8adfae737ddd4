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
//! for the incremental speedup. `warm_edit/many_errors_500` makes the
//! same edit next to 167 ill-typed definitions, whose cached failing
//! verdicts splice too. The `lsp_edit/*` workloads send the same edits
//! through the real `rtr lsp --stats` server in a child process (this
//! binary run with `--lsp-server`) and wait for each version's published
//! diagnostics (framing, JSON parsing, the check and the publish), and
//! its stats line must show the one-item re-check.
//!
//! The `fig9/pass_jobs{1,2}` workloads classify the whole §5 corpus once
//! per iteration with a fresh checker, on one worker and on two.

use std::time::{Duration, Instant};

use rtr_bench::{
    alias_chain_src, bv_chain_src, dot_prod_module_src, filler_module_src, many_errors_module_src,
    narrowing_chain_src, string_module_src, values_module_src, xtime_module_src, DOT_PROD_SRC,
    MAX_SRC, XTIME_SRC,
};
use rtr_core::check::Checker;
use rtr_corpus::classify::classify_library_jobs;
use rtr_corpus::gen::{generate, Library};
use rtr_corpus::profiles::libraries;
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

/// A warm-edit workload: each iteration re-checks the next of `a` and
/// `b` (alternating) against the previous iteration's cache and, once
/// the cache is warm, asserts that exactly the edited definition
/// re-checked and that the module reports `errors` errors.
fn warm_edit<'a>(
    a: &'a str,
    b: &'a str,
    errors: usize,
    checker: &'a Checker,
) -> Box<dyn FnMut() + 'a> {
    let (mut cache, mut flip): (Option<ModuleCache>, bool) = (None, false);
    Box::new(move || {
        flip = !flip;
        let src = if flip { b } else { a };
        let (report, next, stats) = check_module_source_incremental(src, checker, cache.as_ref());
        assert_eq!(report.error_count(), errors, "the warm module's verdict");
        if cache.is_some() {
            let s = stats.expect("the incremental path must engage");
            assert_eq!(s.rechecked, 1, "exactly the edited definition re-checks");
        }
        cache = next;
    })
}

/// The argument that makes `bench_json` the `lsp_edit/*` rows' server:
/// `rtr lsp --stats` on its stdin and stdout ([`rtr::lsp::server::run`]).
const LSP_SERVER: &str = "--lsp-server";

/// Serves the language server protocol on stdio with per-check stats on
/// stderr, as `rtr lsp --stats` does.
fn lsp_server() -> ! {
    let session = rtr::session::Session::new(rtr::session::SessionConfig {
        jobs: 1,
        ..rtr::session::SessionConfig::default()
    });
    let stdin = std::io::BufReader::new(std::io::stdin());
    let code = rtr::lsp::server::run(stdin, std::io::stdout().lock(), session, true);
    std::process::exit(code)
}

/// A `bench_json --lsp-server` child process: its stdio, and a thread
/// forwarding its stderr lines. Dropping it closes the server's input,
/// and the server exits.
struct LspChild {
    child: std::process::Child,
    input: Option<std::process::ChildStdin>,
    output: std::io::BufReader<std::process::ChildStdout>,
    log: std::sync::mpsc::Receiver<String>,
}

impl LspChild {
    fn spawn() -> LspChild {
        use std::io::BufRead;
        use std::process::{Command, Stdio};
        let exe = std::env::current_exe().expect("the bench's own executable");
        let mut child = Command::new(exe)
            .arg(LSP_SERVER)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("starting the server");
        let stderr = child.stderr.take().expect("a piped stderr");
        let (tx, log) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for line in std::io::BufReader::new(stderr).lines() {
                let Ok(line) = line else { return };
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        LspChild {
            input: child.stdin.take(),
            output: std::io::BufReader::new(child.stdout.take().expect("a piped stdout")),
            child,
            log,
        }
    }

    /// The `lsp check:` line's `rechecked` and `unchanged` counts for
    /// `version`, which the server logs before it publishes.
    fn check_stats(&self, version: i64) -> (usize, usize) {
        let tag = format!(" version={version} ");
        loop {
            let line = self.log.recv().expect("the server logs each check");
            if !(line.starts_with("lsp check:") && line.contains(&tag)) {
                continue;
            }
            assert!(line.contains(" stale=false "), "{line}");
            let count = |key: &str| {
                line.split(' ')
                    .find_map(|field| field.strip_prefix(key))
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("no {key} in {line}"))
            };
            return (count("rechecked="), count("unchanged="));
        }
    }
}

impl Drop for LspChild {
    fn drop(&mut self) {
        drop(self.input.take());
        let _ = self.child.wait();
    }
}

/// The LSP didChange round trip through the real server, in a child
/// process on pipes as an editor runs it: each iteration sends the next
/// of `a` and `b` (alternating) as a full-text `didChange` and waits for
/// that version's `publishDiagnostics`, which must carry `errors`
/// diagnostics. The server's stats line must show that exactly the
/// edited definition re-checked, or (when the session retired its
/// interner arena, which discards item caches by design) that every
/// item did; the latter may be at most one warm check in sixteen.
fn lsp_edit<'a>(a: &'a str, b: &'a str, errors: usize, uri: &'static str) -> Box<dyn FnMut() + 'a> {
    use rtr::lsp::framing::{read_message, write_message};

    let mut server = LspChild::spawn();
    // The texts are escaped once: the client's own JSON work is not the
    // server's round trip.
    let (a, b) = (rtr::json::escape(a), rtr::json::escape(b));
    let mut version = 0;
    let (mut warm, mut full) = (0, 0);
    let mut step = move |text: &str, method: &str| {
        version += 1;
        let document = match method {
            "textDocument/didOpen" => {
                format!("{{\"uri\":\"{uri}\",\"version\":{version},\"text\":\"{text}\"}}")
            }
            _ => format!(
                "{{\"uri\":\"{uri}\",\"version\":{version}}},\"contentChanges\":[{{\"text\":\"{text}\"}}]"
            ),
        };
        let body = format!(
            "{{\"jsonrpc\":\"2.0\",\"method\":\"{method}\",\"params\":{{\"textDocument\":{document}}}}}"
        );
        let input = server.input.as_mut().expect("the server's input is open");
        write_message(input, &body).expect("the server reads its input");
        let tag = format!("\"version\":{version},");
        let publish = loop {
            let msg = read_message(&mut server.output)
                .expect("a framed message")
                .expect("the server is running");
            if msg.contains("textDocument/publishDiagnostics") && msg.contains(&tag) {
                break msg;
            }
        };
        assert_eq!(
            publish.matches("\"source\":\"rtr\"").count(),
            errors,
            "the published diagnostics"
        );
        let (rechecked, unchanged) = server.check_stats(version);
        if method == "textDocument/didChange" {
            warm += 1;
            if rechecked != 1 {
                assert_eq!(unchanged, 0, "exactly the edited definition re-checks");
                full += 1;
                assert!(
                    full * 16 <= warm + 15,
                    "{full} of {warm} warm checks re-checked every item"
                );
            }
        }
    };
    step(&a, "textDocument/didOpen");
    let mut flip = false;
    Box::new(move || {
        flip = !flip;
        step(if flip { &b } else { &a }, "textDocument/didChange");
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(LSP_SERVER) {
        lsp_server();
    }
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
    let filler500_a = filler_module_src(500);
    let filler500_b = filler500_a.replace(
        "(define (u250 x y) (+ (* 2 x) (- y 5)))",
        "(define (u250 x y) (+ (* 3 x) (- y 5)))",
    );
    assert_ne!(
        filler500_a, filler500_b,
        "the warm filler_500 edit must land"
    );
    // Flip one unannotated value define's constant: its alias changes,
    // nothing reads it, and every other item splices past it.
    let values500_a = values_module_src(500);
    let values500_b = values500_a.replace("(define k250 5)\n", "(define k250 6)\n");
    assert_ne!(
        values500_a, values500_b,
        "the warm values_500 edit must land"
    );
    let string8_a = string_module_src(8);
    let string8_b = string8_a.replace(
        "(define (digits3 s) (string-length s))",
        "(define (digits3 s) (+ (string-length s) 0))",
    );
    assert_ne!(string8_a, string8_b, "the warm string edit must land");
    // One body edit in the recovery workload: a third of the items are
    // ill typed, and their cached failing verdicts splice too.
    let many_errors500_a = many_errors_module_src(500);
    let many_errors500_b = many_errors500_a.replace(
        "(define (w250 x y) (+ (* 2 x) (- y 5)))",
        "(define (w250 x y) (+ (* 3 x) (- y 5)))",
    );
    assert_ne!(
        many_errors500_a, many_errors500_b,
        "the warm many_errors_500 edit must land"
    );
    let warm_checker = Checker::default();
    // The §5 corpus at `fig9`'s default seed: 1,085 vector ops over the
    // math/plot/pict3d libraries.
    let corpus: Vec<Library> = libraries().iter().map(|p| generate(p, 2016)).collect();
    let corpus_pass = |jobs: usize| {
        let corpus = &corpus;
        move || {
            let checker = Checker::default();
            for lib in corpus {
                classify_library_jobs(lib, &checker, jobs);
            }
        }
    };

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
            warm_edit(&filler50_a, &filler50_b, 0, &warm_checker),
        ),
        // The same one-body edit in a module ten times larger: a warm
        // keystroke should cost O(edit), so this stays close to
        // `warm_edit/filler_50`.
        (
            "warm_edit/filler_500",
            warm_edit(&filler500_a, &filler500_b, 0, &warm_checker),
        ),
        (
            "warm_edit/many_errors_500",
            warm_edit(&many_errors500_a, &many_errors500_b, 167, &warm_checker),
        ),
        (
            "warm_edit/values_500",
            warm_edit(&values500_a, &values500_b, 0, &warm_checker),
        ),
        (
            "lsp_edit/filler_50",
            lsp_edit(&filler50_a, &filler50_b, 0, "file:///bench/filler_50.rtr"),
        ),
        // The same round trip on a document ten times larger: framing
        // and parsing still walk the whole text, the check and the
        // publish should not.
        (
            "lsp_edit/filler_500",
            lsp_edit(
                &filler500_a,
                &filler500_b,
                0,
                "file:///bench/filler_500.rtr",
            ),
        ),
        // One body edit next to 167 ill-typed items: their diagnostics
        // splice and are republished from the memo.
        (
            "lsp_edit/many_errors_500",
            lsp_edit(
                &many_errors500_a,
                &many_errors500_b,
                167,
                "file:///bench/many_errors_500.rtr",
            ),
        ),
        (
            "warm_edit/string_8",
            warm_edit(&string8_a, &string8_b, 0, &warm_checker),
        ),
        // One whole corpus pass with a fresh checker, as `fig9` runs it:
        // serial, then sharded over two workers sharing the caches.
        ("fig9/pass_jobs1", Box::new(corpus_pass(1))),
        ("fig9/pass_jobs2", Box::new(corpus_pass(2))),
    ];

    let mut records = Vec::new();
    for (name, mut f) in workloads {
        records.push(measure(name, opts.samples.max(1), opts.quick, &mut *f));
    }

    // A warm keystroke should cost O(edit): the same edit in a module ten
    // times larger should cost about the same.
    let mean = |name: &str| records.iter().find(|r| r.name == name).map(|r| r.mean_ns);
    if let (Some(big), Some(small)) = (mean("warm_edit/filler_500"), mean("warm_edit/filler_50")) {
        eprintln!(
            "{:<32} ratio {:>11.2}x",
            "warm_edit/filler_500 / _50",
            big / small
        );
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
