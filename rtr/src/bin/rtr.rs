//! `rtr` — the command-line driver: type check and run RTR programs.
//!
//! ```sh
//! rtr check program.rtr more.rtr  # check files, print every diagnostic
//! rtr check --json program.rtr   # machine-readable rtr-check-v1 report
//! rtr watch program.rtr          # re-check on change, incrementally
//! rtr lsp                        # language server over stdio
//! rtr run program.rtr            # type check, then evaluate
//! rtr expand program.rtr         # show the elaborated core expression
//! rtr repl                       # interactive read-check-eval loop
//! rtr --version                  # print the version
//! ```
//!
//! `check` is a thin client over the [`rtr::session::Session`] API: each
//! file yields *all* of its diagnostics (source snippets with caret
//! underlines on stderr, or the documented JSON schema on stdout with
//! `--json`). Exit codes: `0` clean, `1` at least one error-severity
//! diagnostic (or a runtime error under `run`), `2` usage or I/O
//! failure.
//!
//! Flags (each is rejected on subcommands that would ignore it):
//!
//! * `--lambda-tr` — use the λTR baseline (occurrence typing only, no
//!   solver-backed theories); `check`, `run` and `repl`.
//! * `--json` — with `check`, emit the `rtr-check-v1` report on stdout.
//! * `--jobs N` — with `check`, shard multiple files over N worker
//!   threads (default: serial).
//! * `--stats` — with `check` and `watch`, print each file's work
//!   counters after checking (judgment steps, budget gauges, memo-table
//!   hits/misses, case splits, re-checked and spliced items), then the
//!   process-wide interner arena sizes and the regex session's
//!   checker-lifetime cache counters. Works in every build.
//! * `--timeout-ms N` — with `check`, a wall-clock budget per file;
//!   items past the deadline degrade to `E0202` diagnostics instead of
//!   running forever (see the README's Robustness section).
//! * `--max-depth N` — with `check`, cap the typing-judgment recursion
//!   depth (default 50,000); deeper programs degrade to `E0202`.
//! * `--unchecked` — with `run`, skip type checking (dynamically-typed
//!   Racket semantics; unsafe primitives can get stuck).
//! * `--fuel N` — with `run` and `repl`, the evaluation step budget
//!   (default 1,000,000).
//! * `--once` — with `watch`, run a single (cold) pass and exit with
//!   `check`'s exit-code contract; for scripting and CI smoke tests.
//! * `--poll-ms N` — with `watch`, the change-detection polling
//!   interval (default 200 ms); rejected together with `--once`, which
//!   never polls.
//!
//! `lsp` serves the Language Server Protocol over stdio (see
//! [`rtr::lsp`] and the README's Editor integration section): live
//! diagnostics on every keystroke through the same incremental session
//! `watch` uses, hover types, and version-aware cancellation. It takes
//! no files — documents arrive over the protocol. `--stats` additionally
//! accounts requests served, checks cancelled and overlay hits on
//! stderr.
//!
//! `watch` holds one incremental [`rtr::session::Session`] and polls
//! the files (mtime, then a content hash — no OS watcher dependency);
//! each time a file changes it is re-checked *incrementally* (only
//! edited definitions and their dependents are re-judged) and a fresh
//! report delta is streamed: human renderings on stderr, or one
//! `rtr-check-v1` JSON document per batch on stdout with `--json`, each
//! carrying the additive `rechecked_items`/`unchanged_items` stats.
//!
//! `check` exits `3` when an internal checker error was isolated to an
//! item (`E0203`): the other items' verdicts are still reported, but
//! the run is suspect. Builds with the `chaos` feature read the
//! `RTR_CHAOS` environment variable (`seed[,trip,panic,flush,solver]`
//! per-mille rates) to inject deterministic faults for harness testing.

use std::io::{BufRead, Write as _};
use std::process::ExitCode;

use rtr::json::reports_to_json;
use rtr::prelude::*;

const USAGE: &str = "\
usage: rtr check [--lambda-tr] [--json] [--jobs N] [--stats]
                 [--timeout-ms N] [--max-depth N] <file.rtr>...
       rtr watch [--lambda-tr] [--json] [--once] [--poll-ms N] [--stats]
                 [--timeout-ms N] [--max-depth N] <file.rtr>...
       rtr lsp   [--lambda-tr] [--stats] [--timeout-ms N] [--max-depth N]
       rtr run   [--lambda-tr] [--unchecked] [--fuel N] <file.rtr>
       rtr expand <file.rtr>
       rtr repl  [--lambda-tr] [--fuel N]
       rtr --version
exit codes: 0 clean, 1 diagnostics, 2 usage or I/O error,
            3 isolated internal checker error (E0203)";

#[derive(Default)]
struct Options {
    lambda_tr: bool,
    unchecked: bool,
    json: bool,
    stats: bool,
    once: bool,
    jobs: usize,
    fuel: u64,
    poll_ms: u64,
    timeout_ms: Option<u64>,
    max_depth: Option<u32>,
    files: Vec<String>,
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("rtr: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        "--version" | "-V" | "version" => {
            println!("rtr {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        "check" | "watch" | "lsp" | "run" | "expand" | "repl" => {}
        other => return usage_error(&format!("unknown command `{other}`")),
    }

    let mut opts = Options {
        fuel: 1_000_000,
        poll_ms: 200,
        ..Options::default()
    };
    let mut seen: Vec<&'static str> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--lambda-tr" => {
                opts.lambda_tr = true;
                seen.push("--lambda-tr");
            }
            "--unchecked" => {
                opts.unchecked = true;
                seen.push("--unchecked");
            }
            "--json" => {
                opts.json = true;
                seen.push("--json");
            }
            "--stats" => {
                opts.stats = true;
                seen.push("--stats");
            }
            "--once" => {
                opts.once = true;
                seen.push("--once");
            }
            "--poll-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => {
                    opts.poll_ms = n;
                    seen.push("--poll-ms");
                }
                _ => return usage_error("--poll-ms needs a positive number"),
            },
            "--jobs" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => {
                    opts.jobs = n;
                    seen.push("--jobs");
                }
                _ => return usage_error("--jobs needs a positive number"),
            },
            "--fuel" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => {
                    opts.fuel = n;
                    seen.push("--fuel");
                }
                None => return usage_error("--fuel needs a number"),
            },
            "--timeout-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => {
                    opts.timeout_ms = Some(n);
                    seen.push("--timeout-ms");
                }
                _ => return usage_error("--timeout-ms needs a positive number"),
            },
            "--max-depth" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => {
                    opts.max_depth = Some(n);
                    seen.push("--max-depth");
                }
                _ => return usage_error("--max-depth needs a positive number"),
            },
            _ if !a.starts_with('-') => opts.files.push(a),
            other => return usage_error(&format!("unknown flag `{other}`")),
        }
    }

    // Flags are rejected, not silently ignored, on subcommands that
    // would do nothing with them.
    let allowed: &[&str] = match command.as_str() {
        "check" => &[
            "--lambda-tr",
            "--json",
            "--jobs",
            "--stats",
            "--timeout-ms",
            "--max-depth",
        ],
        "watch" => &[
            "--lambda-tr",
            "--json",
            "--once",
            "--poll-ms",
            "--stats",
            "--timeout-ms",
            "--max-depth",
        ],
        "lsp" => &["--lambda-tr", "--stats", "--timeout-ms", "--max-depth"],
        "run" => &["--lambda-tr", "--unchecked", "--fuel"],
        "repl" => &["--lambda-tr", "--fuel"],
        _ => &[], // expand takes no flags
    };
    if let Some(flag) = seen.iter().find(|f| !allowed.contains(f)) {
        return usage_error(&format!("{flag} does not apply to `{command}`"));
    }
    if opts.once && seen.contains(&"--poll-ms") {
        return usage_error("--poll-ms does nothing with --once (a single cold pass never polls)");
    }

    match command.as_str() {
        "repl" => {
            if !opts.files.is_empty() {
                return usage_error("repl takes no files");
            }
            repl(&opts)
        }
        "check" => check_command(&opts),
        "watch" => watch_command(&opts),
        "lsp" => {
            if !opts.files.is_empty() {
                return usage_error("lsp takes no files (documents arrive over the protocol)");
            }
            lsp_command(&opts)
        }
        "run" | "expand" => {
            let [path] = opts.files.as_slice() else {
                return usage_error(&format!("{command} takes exactly one file"));
            };
            let src = match std::fs::read_to_string(path) {
                Ok(src) => src,
                Err(e) => {
                    eprintln!("rtr: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            if command == "expand" {
                expand_command(&src)
            } else {
                run_command(&src, &opts)
            }
        }
        _ => unreachable!("validated above"),
    }
}

fn checker_config(opts: &Options) -> CheckerConfig {
    let mut config = if opts.lambda_tr {
        CheckerConfig::lambda_tr()
    } else {
        CheckerConfig::default()
    };
    config.timeout_ms = opts.timeout_ms;
    if let Some(d) = opts.max_depth {
        config.max_depth = d;
    }
    #[cfg(feature = "chaos")]
    {
        config.chaos = chaos_from_env();
    }
    config
}

/// Parses the `RTR_CHAOS` environment variable into a fault-injection
/// schedule: `seed[,trip,panic,flush,solver]` (per-mille rates, each
/// defaulting to 10 when omitted). Unset or malformed = no injection.
#[cfg(feature = "chaos")]
fn chaos_from_env() -> Option<rtr::core::budget::ChaosConfig> {
    let spec = std::env::var("RTR_CHAOS").ok()?;
    let mut parts = spec.split(',').map(str::trim);
    let seed = parts.next()?.parse().ok()?;
    let mut rate = |default: u16| -> Option<u16> {
        match parts.next() {
            None => Some(default),
            Some(p) => p.parse().ok(),
        }
    };
    Some(rtr::core::budget::ChaosConfig {
        seed,
        trip_per_mille: rate(10)?,
        panic_per_mille: rate(10)?,
        flush_per_mille: rate(10)?,
        solver_per_mille: rate(10)?,
    })
}

/// `rtr check`: a thin client over the session API. Every file is
/// checked (recovering per definition); diagnostics render to stderr
/// with source snippets, or the whole batch becomes one `rtr-check-v1`
/// JSON document on stdout.
fn check_command(opts: &Options) -> ExitCode {
    if opts.files.is_empty() {
        return usage_error("check needs at least one file");
    }
    let mut sources = Vec::with_capacity(opts.files.len());
    for path in &opts.files {
        match SourceFile::read(path) {
            Ok(f) => sources.push(f),
            Err(e) => {
                eprintln!("rtr: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let session = Session::new(SessionConfig {
        checker: checker_config(opts),
        jobs: if opts.jobs == 0 { 1 } else { opts.jobs },
        ..SessionConfig::default()
    });
    let reports = session.check_all(&sources);

    if opts.json {
        print!("{}", reports_to_json(&reports));
    } else {
        let single = reports.len() == 1;
        for (report, source) in reports.iter().zip(&sources) {
            eprint!("{}", report.render_human(&source.text));
            if report.is_clean() {
                match (&report.value, single) {
                    (Some(v), true) => println!("{}", v.lift()),
                    _ => println!(
                        "{}: ok ({} definition{})",
                        report.file,
                        report.stats.definitions,
                        if report.stats.definitions == 1 {
                            ""
                        } else {
                            "s"
                        }
                    ),
                }
            } else {
                eprintln!(
                    "{}: {} error{}",
                    report.file,
                    report.stats.errors,
                    if report.stats.errors == 1 { "" } else { "s" }
                );
            }
        }
    }
    if opts.stats {
        print_stats(&reports, session.checker());
    }
    batch_exit_code(&reports)
}

/// The `check`/`watch --once` exit-code contract for a batch of
/// reports: `3` when an internal error was isolated (the run is
/// suspect), `0` clean, `1` otherwise.
fn batch_exit_code(reports: &[CheckReport]) -> ExitCode {
    let any_ice = reports
        .iter()
        .flat_map(|r| &r.diagnostics)
        .any(|d| d.code == rtr::core::diag::Code::InternalError);
    if any_ice {
        // An isolated internal error: every other item's verdict was
        // still reported, but the run is suspect.
        ExitCode::from(3)
    } else if reports.iter().all(CheckReport::is_clean) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// FNV-1a over the file contents: confirms that an mtime change
/// actually changed the text, so touch-without-edit saves (common
/// editor behaviour) do not re-emit a report.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The one-line verdict for a `watch` delta, with the incremental
/// counters.
fn watch_summary(report: &CheckReport) -> String {
    let delta = report.stats.trace.map_or_else(String::new, |t| {
        format!("; {} rechecked, {} unchanged", t.rechecked, t.skipped)
    });
    if report.is_clean() {
        format!(
            "{}: ok ({} definition{}{delta})",
            report.file,
            report.stats.definitions,
            if report.stats.definitions == 1 {
                ""
            } else {
                "s"
            },
        )
    } else {
        format!(
            "{}: {} error{}{delta}",
            report.file,
            report.stats.errors,
            if report.stats.errors == 1 { "" } else { "s" },
        )
    }
}

/// `rtr watch`: one incremental [`Session`] plus a dependency-free
/// polling watcher. Each poll probes mtimes and confirms real changes
/// with a content hash; changed files are re-checked incrementally
/// (only edited definitions and their dependents are re-judged) and
/// the batch streams as a delta — human renderings on stderr, or one
/// `rtr-check-v1` document on stdout with `--json`, whose `stats`
/// carry the additive `rechecked_items`/`unchanged_items` fields.
/// `rtr lsp`: a Language Server over stdio. Holds one incremental
/// [`Session`] and serves editor buffers from an in-memory overlay, so
/// every keystroke is an incremental re-check of just the edited item.
/// `--stats` logs one line per check and a summary of served requests /
/// cancelled checks / overlay hits on stderr at exit.
fn lsp_command(opts: &Options) -> ExitCode {
    let session = Session::new(SessionConfig {
        checker: checker_config(opts),
        jobs: 1,
        ..SessionConfig::default()
    });
    let stdin = std::io::BufReader::new(std::io::stdin());
    let code = rtr::lsp::run(stdin, std::io::stdout().lock(), session, opts.stats);
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}

/// `--once` stops after the initial (cold) pass and exits with
/// `check`'s code, for scripting and CI smoke tests.
fn watch_command(opts: &Options) -> ExitCode {
    if opts.files.is_empty() {
        return usage_error("watch needs at least one file");
    }
    struct Watched {
        path: String,
        mtime: Option<std::time::SystemTime>,
        hash: u64,
        /// Whether an unchanged mtime proves the content unchanged.
        /// File timestamps tick on the kernel's coarse clock, so an
        /// edit landing in the same tick as the version we hashed
        /// keeps the old mtime — the racy-timestamp hazard git's
        /// index also handles. A hash recorded while the mtime was
        /// still inside that window never trusts the mtime gate;
        /// every poll re-reads until the mtime ages out.
        trusted: bool,
    }
    /// Comfortably past any coarse-clock tick (jiffies: 1–10 ms).
    const RACY_WINDOW: std::time::Duration = std::time::Duration::from_secs(1);
    let session = Session::new(SessionConfig {
        checker: checker_config(opts),
        jobs: 1,
        ..SessionConfig::default()
    });
    let mut watched: Vec<Watched> = opts
        .files
        .iter()
        .map(|p| Watched {
            path: p.clone(),
            mtime: None,
            hash: 0,
            trusted: false,
        })
        .collect();
    let mut first = true;
    loop {
        let mut batch: Vec<SourceFile> = Vec::new();
        for w in &mut watched {
            let mtime = std::fs::metadata(&w.path).and_then(|m| m.modified()).ok();
            if !first && w.trusted && mtime == w.mtime {
                continue;
            }
            match SourceFile::read(&w.path) {
                Ok(f) => {
                    let hash = fnv1a(f.text.as_bytes());
                    // The age is measured after the read: a same-tick
                    // edit racing the read keeps `trusted` false, so
                    // the next poll re-reads and catches it.
                    w.trusted = mtime
                        .and_then(|m| std::time::SystemTime::now().duration_since(m).ok())
                        .is_some_and(|age| age >= RACY_WINDOW);
                    if first || hash != w.hash {
                        w.hash = hash;
                        batch.push(f);
                    }
                    w.mtime = mtime;
                }
                Err(e) => {
                    if first {
                        eprintln!("rtr: cannot read {}: {e}", w.path);
                        return ExitCode::from(2);
                    }
                    // Mid-watch read failures are usually an editor's
                    // save dance (rename-over); retry on the next poll.
                }
            }
        }
        if !batch.is_empty() {
            let reports: Vec<CheckReport> = batch.iter().map(|f| session.check(f)).collect();
            if opts.json {
                print!("{}", reports_to_json(&reports));
                let _ = std::io::stdout().flush();
            } else {
                for (report, source) in reports.iter().zip(&batch) {
                    eprint!("{}", report.render_human(&source.text));
                    eprintln!("{}", watch_summary(report));
                }
            }
            if opts.stats {
                print_stats(&reports, session.checker());
            }
            if opts.once {
                return batch_exit_code(&reports);
            }
        }
        first = false;
        std::thread::sleep(std::time::Duration::from_millis(opts.poll_ms));
    }
}

fn expand_command(src: &str) -> ExitCode {
    match elaborate_module(src) {
        Ok(core) => {
            println!("{core}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rtr: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_command(src: &str, opts: &Options) -> ExitCode {
    let checker = Checker::with_config(checker_config(opts));
    let outcome = if opts.unchecked {
        rtr::lang::run_source_unchecked(src, opts.fuel)
    } else {
        run_source(src, &checker, opts.fuel)
    };
    match outcome {
        Ok(v) => {
            println!("{v}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rtr: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--stats`: each report's own work counters, then the process-wide
/// interner arenas and the checker-lifetime regex session, on stderr.
fn print_stats(reports: &[CheckReport], checker: &Checker) {
    for report in reports {
        eprintln!("work counters for {} (this check):", report.file);
        let Some(t) = report.stats.trace else {
            eprintln!("  none: the check failed outside per-item isolation");
            continue;
        };
        eprintln!(
            "  judgment steps   synth {}   proves {}   subtype {}   update {}",
            t.steps_synth, t.steps_proves, t.steps_subtype, t.steps_update
        );
        let margin = match t.deadline_margin_us {
            None => "no deadline".to_owned(),
            Some(us) => format!("{us} µs min margin"),
        };
        eprintln!(
            "  budget           depth high-water {}   deadline {margin}   limit trips {}",
            t.depth_high_water, t.trips
        );
        eprintln!("  memo lookups     (hits / misses)");
        for (name, l) in t.tables() {
            let rate = l.hit_percent();
            eprintln!(
                "    {name:<14} {:>10} / {:<10} ({rate:.1}% hit)",
                l.hits, l.misses
            );
        }
        eprintln!(
            "  case splits      taken {}   unit-propagated {}   deferred to 2nd pass {}",
            t.splits_taken, t.splits_unit, t.splits_deferred
        );
        eprintln!(
            "  module items     rechecked {}   spliced {} (past changed bindings {})   early-cutoff stops {}   cached records usable {} / missing {}",
            t.rechecked, t.skipped, t.dep_spliced, t.cutoff_stopped, t.fp_hits, t.fp_misses
        );
    }
    let a = rtr::core::intern::arena_stats();
    eprintln!("interner arenas (process-wide; permanent / fresh-region):");
    eprintln!(
        "  types {} / {}   props {} / {}   objects {} / {}",
        a.tys, a.fresh_tys, a.props, a.fresh_props, a.objs, a.fresh_objs
    );
    eprintln!("  symbols {}", a.symbols);
    let re = checker.re_session_stats();
    eprintln!("regex session (checker lifetime; hits / misses):");
    eprintln!(
        "  dfa {} / {}   product {} / {}   witness {} / {}",
        re.dfa_hits,
        re.dfa_misses,
        re.product_hits,
        re.product_misses,
        re.witness_hits,
        re.witness_misses
    );
}

/// How the delimiters of a pending REPL form stand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ParenBalance {
    /// More opens than closes: keep reading lines.
    Open,
    /// Balanced: the form is complete.
    Complete,
    /// More closes than opens: no continuation can fix it — reject
    /// instead of sending garbage to the reader.
    OverClosed,
}

/// A line-oriented REPL: each form is checked in isolation and, when
/// well typed, evaluated. Multi-line forms need no continuation marks —
/// unbalanced parentheses simply continue the form on the next line.
/// `:type <expr>` checks without evaluating; `:quit` exits.
fn repl(opts: &Options) -> ExitCode {
    let checker = Checker::with_config(checker_config(opts));
    println!(
        "rtr repl — occurrence typing modulo theories{}",
        if opts.lambda_tr {
            " (λTR baseline)"
        } else {
            ""
        }
    );
    println!("enter a module form or expression; :type <expr> checks only; :quit exits\n");
    let stdin = std::io::stdin();
    let mut pending = String::new();
    prompt(&pending);
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if pending.is_empty() && trimmed.starts_with(':') {
            let (command, rest) = match trimmed.split_once(char::is_whitespace) {
                Some((c, r)) => (c, r.trim()),
                None => (trimmed, ""),
            };
            match command {
                ":quit" | ":q" => break,
                ":type" if rest.is_empty() => eprintln!("error: usage `:type <expr>`"),
                ":type" => match check_source(rest, &checker) {
                    Ok(r) => println!("{}", r.ty),
                    Err(e) => eprintln!("error: {e}"),
                },
                other => eprintln!("error: unknown repl command {other}"),
            }
            prompt(&pending);
            continue;
        }
        pending.push_str(&line);
        pending.push('\n');
        match balance(&pending) {
            ParenBalance::Open => {
                prompt(&pending);
                continue;
            }
            ParenBalance::OverClosed => {
                eprintln!("error: unexpected closing delimiter");
                pending.clear();
                prompt(&pending);
                continue;
            }
            ParenBalance::Complete => {}
        }
        let src = std::mem::take(&mut pending);
        if src.trim().is_empty() {
            prompt(&pending);
            continue;
        }
        match rtr::lang::check_and_run_source(&src, &checker, opts.fuel) {
            Ok((r, v)) => println!("{v} : {}", r.ty),
            Err(e @ LangError::Eval(_)) => eprintln!("runtime error: {e}"),
            Err(e) => eprintln!("error: {e}"),
        }
        prompt(&pending);
    }
    ExitCode::SUCCESS
}

fn prompt(pending: &str) {
    let p = if pending.is_empty() { "rtr> " } else { "...> " };
    print!("{p}");
    let _ = std::io::stdout().flush();
}

/// Classifies the delimiter balance of `src` (ignoring strings and
/// comments). Negative depth anywhere is reported as
/// [`ParenBalance::OverClosed`]: `"))"` is *not* a completable form and
/// must not reach the reader as one.
fn balance(src: &str) -> ParenBalance {
    let mut depth: i64 = 0;
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return ParenBalance::OverClosed;
                }
            }
            ';' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            '"' => {
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => {
                            chars.next();
                        }
                        '"' => break,
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    if depth == 0 {
        ParenBalance::Complete
    } else {
        ParenBalance::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICKSTART: &str = r#"
        (: max : [x : Int] [y : Int] -> [z : Int #:where (and (>= z x) (>= z y))])
        (define (max x y) (if (> x y) x y))
        (max 3 7)
    "#;

    fn opts() -> Options {
        Options {
            fuel: 100_000,
            ..Options::default()
        }
    }

    #[test]
    fn run_evaluates_the_quickstart_program() {
        assert_eq!(run_command(QUICKSTART, &opts()), ExitCode::SUCCESS);
    }

    #[test]
    fn expand_elaborates_the_quickstart_program() {
        assert_eq!(expand_command(QUICKSTART), ExitCode::SUCCESS);
    }

    #[test]
    fn run_rejects_an_ill_typed_program() {
        assert_eq!(run_command("(+ 1 #t)", &opts()), ExitCode::FAILURE);
    }

    #[test]
    fn watch_summary_carries_the_incremental_delta_counters() {
        let session = Session::new(SessionConfig::default());
        let file = SourceFile::new("m.rtr", QUICKSTART);
        // A cold check re-checks every item and reuses none…
        let cold = watch_summary(&session.check(&file));
        assert_eq!(cold, "m.rtr: ok (1 definition; 2 rechecked, 0 unchanged)");
        // …and an identical warm re-check splices them all.
        let warm = watch_summary(&session.check(&file));
        assert_eq!(warm, "m.rtr: ok (1 definition; 0 rechecked, 2 unchanged)");
    }

    #[test]
    fn content_hash_distinguishes_text_not_touches() {
        assert_eq!(fnv1a(b"(+ 1 2)"), fnv1a(b"(+ 1 2)"));
        assert_ne!(fnv1a(b"(+ 1 2)"), fnv1a(b"(+ 1 3)"));
    }

    #[test]
    fn balance_tracks_parens_strings_comments_and_overclosing() {
        assert_eq!(balance("(+ 1 2)"), ParenBalance::Complete);
        assert_eq!(balance("(let ([x 1])"), ParenBalance::Open);
        assert_eq!(balance("\"(\" ; (((\n"), ParenBalance::Complete);
        assert_eq!(balance(""), ParenBalance::Complete);
        // Over-closed input is rejected, not treated as complete.
        assert_eq!(balance("))"), ParenBalance::OverClosed);
        assert_eq!(balance("(a))"), ParenBalance::OverClosed);
        // A negative prefix is over-closed even if later opens rebalance.
        assert_eq!(balance(") ("), ParenBalance::OverClosed);
    }
}
