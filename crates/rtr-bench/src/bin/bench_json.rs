//! `bench_json` — the workspace's benchmark harness.
//!
//! Runs every benchmark row and writes each row's median, p90 and
//! minimum nanoseconds per iteration to a JSON report, so the checker's
//! perf trajectory is recorded in-repo.
//!
//! ```sh
//! cargo run --release -p rtr-bench --bin bench_json -- \
//!     [--out BENCH_checker.json] [--samples N] [--quick]
//! ```
//!
//! `--quick` caps calibration so a CI smoke run finishes in seconds. The
//! report's schema is `rtr-bench-checker-v2`: one object per row with
//! `name`, `median_ns`, `p90_ns`, `min_ns`, `samples` and
//! `iters_per_sample`. The quantiles are nearest-rank over the samples.
//!
//! The row groups:
//!
//! - `paper/*`, `alias_chain/*`, `narrowing_chain/*`, `bv_chain/*` and
//!   `module/*`: cold checks of the paper programs and synthetic modules.
//!   Each iteration uses a **fresh `Checker`**, so its memo tables start
//!   cold. (The process-wide interner stays warm, as it would in any
//!   long-lived tool.) `module/filler_{50,500}` shows the asymptotics,
//!   and `module/router_{guarded,plain}` prices the regex theory on one
//!   program.
//! - `warm_edit/*`: an editor session. Each iteration flips one
//!   definition's body against a **warm** incremental cache (one
//!   long-lived checker, one `ModuleCache`), so it is a one-item re-check
//!   plus cache splicing. Compare against the cold `module/*` rows.
//!   `warm_edit/many_errors_500` makes the edit next to 167 ill-typed
//!   definitions, whose cached failing verdicts splice too.
//! - `lsp_edit/*`: the same edits through the real `rtr lsp --stats`
//!   server in a child process (this binary run with `--lsp-server`),
//!   waiting for each version's published diagnostics. Its stats line
//!   must show the one-item re-check.
//! - `fig9/pass_jobs{1,2}`: the whole §5 corpus, classified once per
//!   iteration with a fresh checker, on one worker and on two.
//! - `ablation/{hybrid_env,repr_objects,theories}/{on,off}/*`: the §4.1
//!   hybrid environment and representative objects, and the §5 theories
//!   against the λ_TR baseline, each switched off in a fresh checker per
//!   iteration.
//! - `solver/{fm,bv,sat,re}/*`: the theory solvers on their own, each
//!   built once outside the timed closure.
//!
//! Every row asserts its verdict on every iteration.

use std::time::{Duration, Instant};

use rtr_bench::{
    alias_chain_src, bounds_chain, bv_chain_src, dot_prod_module_src, filler_module_src,
    many_errors_module_src, narrowing_chain_src, pigeonhole, string_module_src, values_module_src,
    xtime_module_src, xtime_query, DOT_PROD_SRC, MAX_SRC, ROUTER_GUARDED_SRC, ROUTER_PLAIN_SRC,
    XTIME_SRC,
};
use rtr_core::check::Checker;
use rtr_core::config::CheckerConfig;
use rtr_corpus::classify::{classify_library, classify_library_jobs};
use rtr_corpus::gen::{generate, Library};
use rtr_corpus::profiles::libraries;
use rtr_lang::{check_module_source, check_module_source_incremental, check_source, ModuleCache};
use rtr_solver::bv::BvSolver;
use rtr_solver::lin::{BruteForce, Constraint, FourierMotzkin, LinExpr, LinResult, SolverVar};
use rtr_solver::re::{Dfa, ReConstraint, ReSolver, Regex};
use rtr_solver::sat::{SatResult, Solver};

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

/// A named row: one iteration of its workload per call.
type Row<'a> = (String, Box<dyn FnMut() + 'a>);

fn row<'a>(name: impl Into<String>, f: impl FnMut() + 'a) -> Row<'a> {
    (name.into(), Box::new(f))
}

/// A cold check per iteration: `src` must verify under a fresh checker
/// with `config`.
fn cold<'a>(src: impl AsRef<str> + 'a, config: CheckerConfig) -> impl FnMut() + 'a {
    move || {
        let checker = Checker::with_config(config.clone());
        check_source(src.as_ref(), &checker).expect("the fixture verifies");
    }
}

struct Record {
    name: String,
    median_ns: f64,
    p90_ns: f64,
    min_ns: f64,
    samples: usize,
    iters: u64,
}

/// Times `f`: calibrate an iteration count toward `target` per sample,
/// then take `samples` timed samples of the mean time per iteration.
fn measure(name: String, samples: usize, quick: bool, mut f: impl FnMut()) -> Record {
    let target = if quick {
        Duration::from_millis(2)
    } else {
        Duration::from_millis(20)
    };
    // Untimed warm-up: absorbs one-time effects (lazy allocations, cache
    // population)
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
    let mut per_iter_ns: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter_ns.sort_by(f64::total_cmp);
    let rank = |q: f64| per_iter_ns[((q * samples as f64).ceil() as usize).max(1) - 1];
    let (median_ns, p90_ns, min_ns) = (rank(0.5), rank(0.9), per_iter_ns[0]);
    eprintln!(
        "{name:<40} median {median_ns:>12.0} ns  p90 {p90_ns:>12.0} ns  min {min_ns:>12.0} ns"
    );
    Record {
        name,
        median_ns,
        p90_ns,
        min_ns,
        samples,
        iters,
    }
}

/// A warm-edit workload: each iteration re-checks the next of `a` and
/// `b` (alternating) against the previous iteration's cache and, once
/// the cache is warm, asserts that exactly the edited definition
/// re-checked and that the module reports `errors` errors.
fn warm_edit<'a>(a: &'a str, b: &'a str, errors: usize, checker: &'a Checker) -> impl FnMut() + 'a {
    let (mut cache, mut flip): (Option<ModuleCache>, bool) = (None, false);
    move || {
        flip = !flip;
        let src = if flip { b } else { a };
        let (report, next, stats) = check_module_source_incremental(src, checker, cache.as_ref());
        assert_eq!(report.error_count(), errors, "the warm module's verdict");
        if cache.is_some() {
            let s = stats.expect("the incremental path must engage");
            assert_eq!(s.rechecked, 1, "exactly the edited definition re-checks");
        }
        cache = next;
    }
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

    /// The `lsp check:` line's `rechecked` count for `version`, which the
    /// server logs before it publishes.
    fn rechecked(&self, version: i64) -> usize {
        let tag = format!(" version={version} ");
        loop {
            let line = self.log.recv().expect("the server logs each check");
            if !(line.starts_with("lsp check:") && line.contains(&tag)) {
                continue;
            }
            assert!(line.contains(" stale=false "), "{line}");
            return line
                .split(' ')
                .find_map(|field| field.strip_prefix("rechecked="))
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no rechecked= in {line}"));
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
/// edited definition re-checked.
fn lsp_edit<'a>(a: &'a str, b: &'a str, errors: usize, uri: &'static str) -> impl FnMut() + 'a {
    use rtr::lsp::framing::{read_message, write_message};

    let mut server = LspChild::spawn();
    // The texts are escaped once: the client's own JSON work is not the
    // server's round trip.
    let (a, b) = (rtr::json::escape(a), rtr::json::escape(b));
    let mut version = 0;
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
        let rechecked = server.rechecked(version);
        if method == "textDocument/didChange" {
            assert_eq!(rechecked, 1, "exactly the edited definition re-checks");
        }
    };
    step(&a, "textDocument/didOpen");
    let mut flip = false;
    move || {
        flip = !flip;
        step(if flip { &b } else { &a }, "textDocument/didChange");
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(LSP_SERVER) {
        lsp_server();
    }
    let opts = parse_args();
    let default = CheckerConfig::default;
    let filler50 = filler_module_src(50);
    let many_errors50 = many_errors_module_src(50);

    // Warm-edit pairs: the same module with one definition's body
    // constant flipped (signatures untouched, so dependents splice via
    // the early cutoff).
    let filler50_b = filler50.replace(
        "(define (u25 x y) (+ (* 2 x) (- y 4)))",
        "(define (u25 x y) (+ (* 3 x) (- y 4)))",
    );
    assert_ne!(filler50, filler50_b, "the warm filler edit must land");
    let filler500 = filler_module_src(500);
    let filler500_b = filler500.replace(
        "(define (u250 x y) (+ (* 2 x) (- y 5)))",
        "(define (u250 x y) (+ (* 3 x) (- y 5)))",
    );
    assert_ne!(filler500, filler500_b, "the warm filler_500 edit must land");
    // Flip one unannotated value define's constant: its alias changes,
    // nothing reads it, and every other item splices past it.
    let values500_a = values_module_src(500);
    let values500_b = values500_a.replace("(define k250 5)\n", "(define k250 6)\n");
    assert_ne!(
        values500_a, values500_b,
        "the warm values_500 edit must land"
    );
    let string8 = string_module_src(8);
    let string8_b = string8.replace(
        "(define (digits3 s) (string-length s))",
        "(define (digits3 s) (+ (string-length s) 0))",
    );
    assert_ne!(string8, string8_b, "the warm string edit must land");
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

    let mut rows: Vec<Row> = vec![
        row("paper/fig1_max", cold(MAX_SRC, default())),
        row("paper/dot_prod", cold(DOT_PROD_SRC, default())),
        row("paper/xtime", cold(XTIME_SRC, default())),
    ];
    // The alias chains grow the environment by one binder per level, and
    // the narrowing chains rebuild it with `update±` at every test.
    for n in [16, 64, 256, 512] {
        rows.push(row(
            format!("alias_chain/{n}"),
            cold(alias_chain_src(n), default()),
        ));
    }
    for n in [8, 32] {
        let src = narrowing_chain_src(n);
        rows.push(row(format!("narrowing_chain/{n}"), cold(src, default())));
    }
    rows.extend([
        // Ten times the items should cost about ten times the time.
        row("module/filler_50", cold(&filler50, default())),
        row("module/filler_500", cold(&filler500, default())),
        // Every third definition fails, and the recovering module checker
        // reports all of them.
        row("module/many_errors_50", || {
            let report = check_module_source(&many_errors50, &Checker::default());
            assert_eq!(report.error_count(), 17, "recovery must find every error");
        }),
        // Solver-heavy modules: scaled theory programs and a bitvector
        // chain whose fact set grows with every test.
        row("module/dot_prod_8", cold(dot_prod_module_src(8), default())),
        row("module/xtime_4", cold(xtime_module_src(4), default())),
        row("bv_chain/6", cold(bv_chain_src(6), default())),
        // Overlapping regex entailments that the persistent regex session
        // answers from warm DFA caches.
        row("module/string_8", cold(&string8, default())),
        row("module/router_guarded", cold(ROUTER_GUARDED_SRC, default())),
        row("module/router_plain", cold(ROUTER_PLAIN_SRC, default())),
        row(
            "warm_edit/filler_50",
            warm_edit(&filler50, &filler50_b, 0, &warm_checker),
        ),
        // The same one-body edit in a module ten times larger: a warm
        // keystroke should cost O(edit), so this stays close to
        // `warm_edit/filler_50`.
        row(
            "warm_edit/filler_500",
            warm_edit(&filler500, &filler500_b, 0, &warm_checker),
        ),
        row(
            "warm_edit/many_errors_500",
            warm_edit(&many_errors500_a, &many_errors500_b, 167, &warm_checker),
        ),
        row(
            "warm_edit/values_500",
            warm_edit(&values500_a, &values500_b, 0, &warm_checker),
        ),
        row(
            "lsp_edit/filler_50",
            lsp_edit(&filler50, &filler50_b, 0, "file:///bench/filler_50.rtr"),
        ),
        // The same round trip on a document ten times larger: framing
        // and parsing still walk the whole text, the check and the
        // publish should not.
        row(
            "lsp_edit/filler_500",
            lsp_edit(&filler500, &filler500_b, 0, "file:///bench/filler_500.rtr"),
        ),
        // One body edit next to 167 ill-typed items: their diagnostics
        // splice and are republished from the memo.
        row(
            "lsp_edit/many_errors_500",
            lsp_edit(
                &many_errors500_a,
                &many_errors500_b,
                167,
                "file:///bench/many_errors_500.rtr",
            ),
        ),
        row(
            "warm_edit/string_8",
            warm_edit(&string8, &string8_b, 0, &warm_checker),
        ),
        // One whole corpus pass with a fresh checker, as `fig9` runs it:
        // serial, then sharded over two workers sharing the caches.
        row("fig9/pass_jobs1", corpus_pass(1)),
        row("fig9/pass_jobs2", corpus_pass(2)),
    ]);

    // The paper's ablations: each optimization off against on, with a
    // fresh checker per iteration so no memo table hides what the switch
    // turns off.
    let hybrid_off = CheckerConfig {
        hybrid_env: false,
        ..default()
    };
    let repr_off = CheckerConfig {
        representative_objects: false,
        ..default()
    };
    let ablations = [2, 4, 8, 12]
        .map(|n| ("hybrid_env", n, narrowing_chain_src(n), &hybrid_off))
        .into_iter()
        .chain([2, 4, 8, 16].map(|n| ("repr_objects", n, alias_chain_src(n), &repr_off)));
    for (ablation, n, src, off) in ablations {
        for (arm, config) in [("on", default()), ("off", off.clone())] {
            let name = format!("ablation/{ablation}/{arm}/{n}");
            rows.push(row(name, cold(src.clone(), config)));
        }
    }
    // The first 25 sites of each library, classified by RTR and by the
    // λ_TR baseline, which does strictly less work per access.
    for lib in &corpus {
        let sample = Library {
            profile: lib.profile.clone(),
            sites: lib.sites[..25].to_vec(),
            filler: Vec::new(),
        };
        for (arm, config) in [("on", default()), ("off", CheckerConfig::lambda_tr())] {
            let name = format!("ablation/theories/{arm}/{}", lib.profile.name);
            let sample = sample.clone();
            rows.push(row(name, move || {
                let tally = classify_library(&sample, &Checker::with_config(config.clone()));
                if config.theories {
                    assert_eq!(tally.misclassified, 0, "every site classifies as designed");
                } else {
                    assert_eq!(
                        tally.unverified_ops,
                        tally.total(),
                        "λ_TR verifies no access"
                    );
                }
            }));
        }
    }
    // The theory solvers alone, on the query shapes the checker issues.
    let goal = Constraint::le(LinExpr::var(SolverVar(0)), LinExpr::constant(100));
    for n in [2, 4, 8, 12, 16] {
        let (cs, goal, fm) = (bounds_chain(n), goal.clone(), FourierMotzkin::default());
        rows.push(row(format!("solver/fm/entails/{n}"), move || {
            assert!(fm.entails(&cs, &goal), "x₀ ≤ 100 follows");
        }));
    }
    for n in [2, 3, 4] {
        let (cs, fm) = (bounds_chain(n), FourierMotzkin::default());
        rows.push(row(format!("solver/fm/check/{n}"), move || {
            assert_eq!(fm.check(&cs), LinResult::Sat, "the chain is satisfiable");
        }));
    }
    // Enumeration over a ±12 box: the baseline FM is measured against.
    for n in [2, 3, 4] {
        let cs = bounds_chain(n);
        let brute = BruteForce {
            bound: 12,
            max_assignments: 100_000_000,
        };
        rows.push(row(format!("solver/fm/brute_force/{n}"), move || {
            assert_eq!(brute.check(&cs), LinResult::Sat, "the chain is satisfiable");
        }));
    }
    for width in [10, 12, 16] {
        let ((facts, goal), bv) = (xtime_query(width), BvSolver::default());
        rows.push(row(format!("solver/bv/xtime/{width}"), move || {
            assert!(bv.entails(&facts, &goal), "the xtime obligation holds");
        }));
    }
    for n in [4, 5, 6] {
        let cnf = pigeonhole(n);
        rows.push(row(format!("solver/sat/pigeonhole/{n}"), move || {
            let verdict = Solver::new().solve(&cnf);
            assert!(
                matches!(verdict, SatResult::Unsat),
                "{} pigeons in {n} holes",
                n + 1
            );
        }));
    }
    // `s ∈ L(specific) ⊢ s ∈ L(general)`: subtyping as language inclusion.
    for (name, specific, general) in [
        ("digits4_in_digits", "[0-9]{4}", "[0-9]+"),
        ("ident_in_word", "[A-Za-z_][A-Za-z_0-9]{0,15}", r"\w+"),
        ("ip_in_dotted", r"\d{1,3}(\.\d{1,3}){3}", r"[0-9.]+"),
    ] {
        let member =
            |re| ReConstraint::member(SolverVar(0), Regex::parse(re).expect("parses").into());
        let (fact, goal, re) = (member(specific), member(general), ReSolver::default());
        rows.push(row(format!("solver/re/entails/{name}"), move || {
            assert!(
                re.entails(std::slice::from_ref(&fact), &goal),
                "the inclusion holds"
            );
        }));
    }
    // Subset construction for `[0-9]{n}`, whose DFA grows linearly in n.
    for n in [8, 32, 128] {
        let re = Regex::parse(&format!("[0-9]{{{n}}}")).expect("parses");
        rows.push(row(format!("solver/re/dfa/{n}"), move || {
            let dfa = Dfa::compile(&re, 1 << 13).expect("in budget");
            assert!(!dfa.is_empty(), "the language is inhabited");
        }));
    }

    let records: Vec<Record> = rows
        .into_iter()
        .map(|(name, f)| measure(name, opts.samples.max(1), opts.quick, f))
        .collect();

    // A warm keystroke should cost O(edit): the same edit in a module ten
    // times larger should cost about the same.
    let median = |name: &str| records.iter().find(|r| r.name == name).map(|r| r.median_ns);
    if let (Some(big), Some(small)) = (
        median("warm_edit/filler_500"),
        median("warm_edit/filler_50"),
    ) {
        eprintln!(
            "{:<40} ratio {:>11.2}x",
            "warm_edit/filler_500 / _50",
            big / small
        );
    }

    let mut json = String::from("{\n  \"schema\": \"rtr-bench-checker-v2\",\n  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.0}, \"p90_ns\": {:.0}, \"min_ns\": {:.0}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            r.name,
            r.median_ns,
            r.p90_ns,
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
