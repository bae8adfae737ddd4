//! Integration tests for the `rtr` command-line driver: each subcommand
//! is exercised against real files, checking both output and exit codes.

use std::io::Write;
use std::process::{Command, Stdio};

fn rtr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtr"))
}

/// Writes `src` to a fresh temp file and returns its path.
fn fixture(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rtr-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, src).expect("write fixture");
    path
}

const MAX_SRC: &str = r#"
(: max : [x : Int] [y : Int] -> [z : Int #:where (and (>= z x) (>= z y))])
(define (max x y) (if (> x y) x y))
(max 3 7)
"#;

#[test]
fn check_prints_the_type_result() {
    let path = fixture("max.rtr", MAX_SRC);
    let out = rtr().args(["check"]).arg(&path).output().expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The module value, closed over `max` by the exit lift; the
    // existential's fresh suffix depends on the process, so it is
    // dropped before comparing.
    assert_eq!(
        without_fresh_suffixes(&String::from_utf8_lossy(&out.stdout)),
        "∃max%:([x : Int], [y : Int] → ({z : Int | ((x ≤ z) ∧ (y ≤ z))} ; tt | tt ; ∅)). \
         ({z : Int | ((3 ≤ z) ∧ (7 ≤ z))} ; tt | tt ; ∅)\n"
    );

    let out = rtr()
        .args(["check", "--json"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let doc = rtr::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let value_type = doc
        .get("files")
        .and_then(|f| f.as_array()?.first()?.get("value_type")?.as_str())
        .map(without_fresh_suffixes);
    assert_eq!(
        value_type.as_deref(),
        Some("{z : Int | ((3 ≤ z) ∧ (7 ≤ z))}")
    );
}

/// `text` with the digits after every `%` (fresh-name suffixes) removed.
fn without_fresh_suffixes(text: &str) -> String {
    let mut out = String::new();
    let mut fresh = false;
    for c in text.chars() {
        fresh = match c {
            '%' => true,
            _ if fresh && c.is_ascii_digit() => continue,
            _ => false,
        };
        out.push(c);
    }
    out
}

#[test]
fn run_evaluates() {
    let path = fixture("max_run.rtr", MAX_SRC);
    let out = rtr().args(["run"]).arg(&path).output().expect("spawn");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "7");
}

#[test]
fn expand_shows_the_core_term() {
    let path = fixture("max_expand.rtr", MAX_SRC);
    let out = rtr().args(["expand"]).arg(&path).output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("letrec"),
        "defines elaborate to letrec: {stdout}"
    );
}

#[test]
fn lambda_tr_flag_changes_the_verdict() {
    let path = fixture("max_tr.rtr", MAX_SRC);
    let out = rtr()
        .args(["check", "--lambda-tr"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "λTR must reject the refined range");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("expected"), "diagnostic expected: {stderr}");
}

#[test]
fn type_errors_exit_nonzero_with_diagnostics() {
    let path = fixture(
        "bad.rtr",
        r#"(: f : [s : Str #:where (=~ s #rx"[0-9]+")] -> Int)
(define (f s) 0)
(: g : Str -> Int)
(define (g s) (f s))"#,
    );
    let out = rtr().args(["check"]).arg(&path).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("argument"), "diagnostic expected: {stderr}");
}

#[test]
fn unchecked_run_skips_the_checker() {
    // Ill-typed (an Any-typed parameter reaches add1) but runs fine
    // dynamically, since the actual argument is an integer.
    let path = fixture("dyn.rtr", r#"((lambda ([x : Any]) (add1 x)) 1)"#);
    let checked = rtr().args(["run"]).arg(&path).output().expect("spawn");
    assert!(
        !checked.status.success(),
        "the checker must reject (add1 #f)"
    );
    let unchecked = rtr()
        .args(["run", "--unchecked"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert!(unchecked.status.success());
    assert_eq!(String::from_utf8_lossy(&unchecked.stdout).trim(), "2");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h", "help"] {
        let out = rtr().arg(flag).output().expect("spawn");
        assert!(out.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("usage: rtr"),
            "usage text expected: {stdout}"
        );
        assert!(stdout.contains("check"), "subcommands listed: {stdout}");
    }
}

#[test]
fn missing_file_and_bad_usage_fail_cleanly() {
    let out = rtr()
        .args(["check", "/nonexistent/x.rtr"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    let out = rtr().args(["frobnicate"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let out = rtr().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn version_flag_prints_the_version() {
    for flag in ["--version", "-V", "version"] {
        let out = rtr().arg(flag).output().expect("spawn");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("rtr ") && stdout.trim().len() > 4,
            "version expected: {stdout}"
        );
    }
}

#[test]
fn check_accepts_multiple_files_and_reports_each() {
    let ok = fixture("multi_ok.rtr", "(define (id [x : Int]) x) (id 1)");
    let bad = fixture("multi_bad.rtr", "(define (b [x : Int]) (add1 x)) (b #t)");
    let out = rtr()
        .args(["check"])
        .arg(&ok)
        .arg(&bad)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "one bad file fails the batch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "clean file reported: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("E0002") && stderr.contains("-->"),
        "located diagnostic expected: {stderr}"
    );
    // All clean → exit 0.
    let out = rtr()
        .args(["check"])
        .arg(&ok)
        .arg(&ok)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn check_stats_prints_the_checks_own_counters_in_a_default_build() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/refinement.rtr");
    let plain = rtr().args(["check", golden]).output().expect("spawn");
    let out = rtr()
        .args(["check", "--stats", golden])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        plain.status.code(),
        "--stats keeps the verdict"
    );
    assert_eq!(out.stdout, plain.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("work counters for {golden} (this check):")),
        "{stderr}"
    );
    // The numbers on the counter line that starts with `label`.
    let numbers = |label: &str| -> Vec<u64> {
        let line = stderr
            .lines()
            .find(|l| l.trim_start().starts_with(label))
            .unwrap_or_else(|| panic!("no `{label}` line in:\n{stderr}"));
        line.split(|c: char| !c.is_ascii_digit())
            .filter_map(|w| w.parse().ok())
            .collect()
    };
    let steps = numbers("judgment steps");
    assert!(steps[0] > 0, "no synth steps:\n{stderr}");
    let subtype = numbers("subtype ");
    assert!(subtype[0] + subtype[1] > 0, "no subtype lookups:\n{stderr}");
    assert!(!stderr.contains("requires a build"), "{stderr}");
}

#[test]
fn inapplicable_flags_are_rejected_with_usage_errors() {
    let path = fixture("flags.rtr", "(+ 1 2)");
    for (args, rejected) in [
        (vec!["check", "--fuel", "9"], "--fuel"),
        (vec!["check", "--unchecked"], "--unchecked"),
        (vec!["run", "--json"], "--json"),
        (vec!["run", "--jobs", "2"], "--jobs"),
        (vec!["expand", "--lambda-tr"], "--lambda-tr"),
        (vec!["repl", "--unchecked"], "--unchecked"),
        (vec!["lsp", "--json"], "--json"),
        (vec!["lsp", "--jobs", "2"], "--jobs"),
        (vec!["lsp", "--once"], "--once"),
    ] {
        let out = rtr().args(&args).arg(&path).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(rejected) && stderr.contains("does not apply"),
            "{args:?}: {stderr}"
        );
    }
}

/// Combinations where each flag is individually valid but together one
/// of them would be silently ignored are rejected too, as are file
/// operands on `lsp` (its documents arrive over the protocol).
#[test]
fn contradictory_and_misplaced_operands_are_usage_errors() {
    let path = fixture("flags2.rtr", "(+ 1 2)");
    let once = rtr()
        .args(["watch", "--once", "--poll-ms", "50"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert_eq!(once.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&once.stderr).contains("--poll-ms does nothing with --once"),
        "stderr: {}",
        String::from_utf8_lossy(&once.stderr)
    );
    let lsp = rtr().arg("lsp").arg(&path).output().expect("spawn");
    assert_eq!(lsp.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&lsp.stderr).contains("lsp takes no files"),
        "stderr: {}",
        String::from_utf8_lossy(&lsp.stderr)
    );
}

const WATCH_SRC: &str = "\
(: f : [x : Int] -> Int)
(define (f x) (+ x 1))
(: g : [x : Int] -> Int)
(define (g x) (f x))
(g 1)
";

#[test]
fn watch_once_emits_one_extended_json_report() {
    let path = fixture("watch_once.rtr", WATCH_SRC);
    let out = rtr()
        .args(["watch", "--once", "--json"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "clean file exits 0");
    let doc = rtr::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("rtr-check-v1"));
    let stats = doc.get("files").unwrap().as_array().unwrap()[0]
        .get("stats")
        .expect("stats object");
    // A cold incremental pass re-checks everything and reuses nothing.
    assert!(
        stats
            .get("rechecked_items")
            .and_then(|v| v.as_f64())
            .unwrap()
            >= 3.0,
        "cold pass re-checks every item"
    );
    assert_eq!(
        stats.get("unchanged_items").and_then(|v| v.as_f64()),
        Some(0.0)
    );

    // Exit-code contract matches `check`.
    let bad = fixture("watch_once_bad.rtr", "(add1 #t)");
    let out = rtr()
        .args(["watch", "--once"])
        .arg(&bad)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let out = rtr()
        .args(["watch", "--once", "/nonexistent/x.rtr"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn watch_streams_a_delta_after_an_edit() {
    let path = fixture("watch_live.rtr", WATCH_SRC);
    let mut child = rtr()
        .args(["watch", "--json", "--poll-ms", "25"])
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn watch");
    let stdout = child.stdout.take().expect("stdout");
    // Each rtr-check-v1 document ends with an unindented `}` line; a
    // reader thread splits the stream there and forwards whole docs.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        use std::io::BufRead;
        let mut doc = String::new();
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            doc.push_str(&line);
            doc.push('\n');
            if line == "}" && tx.send(std::mem::take(&mut doc)).is_err() {
                break;
            }
        }
    });
    let timeout = std::time::Duration::from_secs(60);
    let first = rx.recv_timeout(timeout).expect("initial report");
    let doc = rtr::json::parse(&first).expect("valid JSON");
    assert_eq!(
        doc.get("summary").unwrap().get("clean").unwrap().as_bool(),
        Some(true)
    );

    // Edit one body via atomic rename (no partially-written polls) and
    // wait for the delta: only `f` re-checks, the rest splices.
    let tmp = path.with_extension("rtr.tmp");
    std::fs::write(&tmp, WATCH_SRC.replace("(+ x 1)", "(+ x 2)")).expect("write tmp");
    std::fs::rename(&tmp, &path).expect("rename over");
    let second = rx.recv_timeout(timeout).expect("delta after edit");
    let doc = rtr::json::parse(&second).expect("valid JSON");
    let stats = doc.get("files").unwrap().as_array().unwrap()[0]
        .get("stats")
        .expect("stats object");
    assert_eq!(
        stats.get("rechecked_items").and_then(|v| v.as_f64()),
        Some(1.0),
        "only the edited definition re-checks: {second}"
    );
    assert!(
        stats
            .get("unchanged_items")
            .and_then(|v| v.as_f64())
            .unwrap()
            >= 2.0,
        "the dependent and the call splice: {second}"
    );
    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn repl_type_command_checks_without_evaluating() {
    let mut child = rtr()
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        // `:type` on a diverging-if-evaluated expression must not hang:
        // it only checks. (error : Bot, so the if types as Int.)
        .write_all(b":type (if #t 1 (error \"boom\"))\n:type (add1 #f)\n:q\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Int"), "type expected: {stdout}");
    assert!(
        !stdout.contains("1 : "),
        "no evaluation result expected: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error"),
        "ill-typed :type reports: {stderr}"
    );
}

#[test]
fn repl_rejects_unknown_colon_commands() {
    let mut child = rtr()
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b":types (add1 1)\n:q\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown repl command :types"),
        "a :type typo must not be parsed as an expression: {stderr}"
    );
}

#[test]
fn repl_rejects_over_closed_forms() {
    let mut child = rtr()
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"))\n(+ 1 2)\n:q\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unexpected closing delimiter"),
        "over-closed input must be rejected: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("3 : Int"),
        "the repl recovers afterwards: {stdout}"
    );
}

#[test]
fn repl_checks_and_evaluates_lines() {
    let mut child = rtr()
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"(+ 1 2)\n(regexp-match? #rx\"[0-9]+\" \"42\")\n(add1 #f)\n:q\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("3 : Int"),
        "arith result expected: {stdout}"
    );
    assert!(
        stdout.contains("#t : Bool"),
        "regex result expected: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error"),
        "ill-typed line must report: {stderr}"
    );
}

#[test]
fn multi_line_forms_continue_in_the_repl() {
    let mut child = rtr()
        .arg("repl")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"(if #t\n    1\n    2)\n:quit\n")
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 : Int"),
        "multi-line form must evaluate: {stdout}"
    );
}
