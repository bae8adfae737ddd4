//! A file's rendered fresh names depend only on the file: they are
//! numbered per item and rendered by first occurrence, so checking a file
//! beside other files — serially, sharded over `--jobs` threads, in any
//! order — or in an LSP session that checked other text first prints
//! exactly what checking it alone prints.
//!
//! Every golden fixture whose blessed rendering shows a fresh name
//! (`base%n`) is copied four times and checked alone, among the copies
//! serially, with `--jobs 2` and `--jobs 4` (20 runs each) and in
//! reversed order; the human rendering and the `--json` document (minus
//! `elapsed_us`) of each copy must match its alone run byte for byte.
//! It is also checked after and beside a different file that mints
//! names of the same bases in an item of the same name and interns the
//! fixture's compound types first.
//!
//! What this does not cover: members of a union that share a compound
//! kind (two vector types, say) print in the order the process interned
//! them, so a union can read the other way round after another file
//! interned its second member first.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use rtr::json::{escape, parse, Json};
use rtr::lsp::framing::{read_message, write_message};

const COPIES: usize = 4;
const RUNS: usize = 20;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The golden fixtures whose blessed stderr shows a fresh name.
fn fixtures() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rtr") {
            let stderr = std::fs::read_to_string(path.with_extension("stderr")).unwrap_or_default();
            let shows_fresh = stderr
                .split('%')
                .skip(1)
                .any(|rest| rest.starts_with(|c: char| c.is_ascii_digit()));
            if shows_fresh {
                let stem = path
                    .file_stem()
                    .expect("stem")
                    .to_string_lossy()
                    .into_owned();
                let src = std::fs::read_to_string(&path).expect("fixture");
                out.push((stem, src));
            }
        }
    }
    out.sort();
    assert!(!out.is_empty(), "no golden fixture shows a fresh name");
    out
}

/// `COPIES` copies of `src` in a scratch directory, by file name.
fn copies(stem: &str, src: &str) -> (PathBuf, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("rtr-determinism-{}-{stem}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let names: Vec<String> = (0..COPIES).map(|k| format!("{stem}_{k}.rtr")).collect();
    for name in &names {
        std::fs::write(dir.join(name), src).expect("write copy");
    }
    (dir, names)
}

/// `rtr check` in `dir` over `files`; returns (stdout, stderr).
fn check(dir: &Path, flags: &[&str], files: &[&String]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rtr"))
        .current_dir(dir)
        .arg("check")
        .args(flags)
        .args(files)
        .output()
        .expect("spawn rtr");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// The per-file objects of an `rtr check --json` document, without the
/// one timing field.
fn json_files(doc: &str) -> Vec<Json> {
    let doc = parse(doc).expect("valid JSON");
    let files = doc.get("files").and_then(Json::as_array).expect("files");
    files
        .iter()
        .map(|f| {
            let Json::Obj(mut members) = f.clone() else {
                panic!("a file is an object")
            };
            for (key, value) in &mut members {
                if let (true, Json::Obj(stats)) = (key == "stats", value) {
                    stats.retain(|(k, _)| k != "elapsed_us");
                }
            }
            Json::Obj(members)
        })
        .collect()
}

#[test]
fn each_file_renders_as_it_does_alone() {
    for (stem, src) in fixtures() {
        let (dir, names) = copies(&stem, &src);
        let alone: Vec<(String, String)> = names.iter().map(|n| check(&dir, &[], &[n])).collect();
        let alone_json: Vec<Json> = names
            .iter()
            .flat_map(|n| json_files(&check(&dir, &["--json"], &[n]).0))
            .collect();
        assert!(alone[0].1.contains('%'), "{stem}: no fresh name shown");

        let forward: Vec<&String> = names.iter().collect();
        let reversed: Vec<&String> = names.iter().rev().collect();
        let mut ways: Vec<(String, Vec<&str>, &Vec<&String>)> = vec![
            ("serially".into(), vec![], &forward),
            ("reversed".into(), vec![], &reversed),
        ];
        for run in 0..RUNS {
            for jobs in ["2", "4"] {
                ways.push((
                    format!("--jobs {jobs}, run {run}"),
                    vec!["--jobs", jobs],
                    &forward,
                ));
            }
        }
        for (way, flags, order) in ways {
            // Multi-file stderr is each file's rendering in turn, and a
            // failing file prints nothing on stdout.
            let index = |n: &String| names.iter().position(|m| m == n).expect("a copy");
            let (stdout, stderr) = check(&dir, &flags, order);
            let expected: String = order.iter().map(|n| alone[index(n)].1.as_str()).collect();
            assert_eq!(
                stderr, expected,
                "{stem}, {way}: rendering differs from alone"
            );
            if alone.iter().all(|(out, _)| out.is_empty()) {
                assert_eq!(stdout, "", "{stem}, {way}");
            }
            let mut json_flags = flags.clone();
            json_flags.push("--json");
            let got = json_files(&check(&dir, &json_flags, order).0);
            let expected: Vec<&Json> = order.iter().map(|n| &alone_json[index(n)]).collect();
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected,
                "{stem}, {way}: --json differs from alone"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Mints `vlit` and `acc` names in an item named `s`, and interns
/// `(Vecof (Vecof Int))` and unions over vector types.
const OTHER: &str = "(: w : [A : (Vecof Int)] -> (Vecof (Vecof Int)))
(define (w A) (vec A A))
(: s2 : [A : (Vecof Int)] -> Int)
(define (s2 A)
  (for/sum ([i (in-range (len A))])
    (vec A (vec i))))
(: s : [A : (Vecof Int)] -> Int)
(define (s A)
  (for/sum ([k (in-range (len A))])
    (vec A A)))
";

#[test]
fn each_file_renders_as_alone_beside_a_different_file() {
    for (stem, src) in fixtures() {
        let (dir, names) = copies(&format!("{stem}-beside"), &src);
        let other = "other.rtr".to_string();
        std::fs::write(dir.join(&other), OTHER).expect("write other");
        let fixture = &names[0];
        for flags in [&[][..], &["--json"]] {
            let alone = |f: &String| check(&dir, flags, &[f]);
            let (other_alone, fixture_alone) = (alone(&other), alone(fixture));
            assert!(
                other_alone.1.contains('%') || flags == ["--json"],
                "the other file shows no fresh name"
            );
            for run in 0..RUNS {
                for jobs in ["1", "2"] {
                    let flags = [flags, &["--jobs", jobs]].concat();
                    let (stdout, stderr) = check(&dir, &flags, &[&other, fixture]);
                    let way = format!("{stem}, {flags:?}, run {run}");
                    if flags.contains(&"--json") {
                        let expected = [other_alone.0.as_str(), fixture_alone.0.as_str()]
                            .iter()
                            .flat_map(|d| json_files(d))
                            .collect::<Vec<_>>();
                        assert_eq!(json_files(&stdout), expected, "{way}: --json differs");
                    } else {
                        assert_eq!(
                            stderr,
                            other_alone.1.clone() + &fixture_alone.1,
                            "{way}: rendering differs from alone"
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An `rtr lsp` process fed `messages` one at a time, each answered by
/// one publish; returns the publishes for `uri`.
fn lsp_publishes(messages: &[String], uri: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rtr"))
        .arg("lsp")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rtr lsp");
    let mut stdin = child.stdin.take().expect("stdin");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
    let mut out = Vec::new();
    for m in messages {
        write_message(&mut stdin, m).expect("send");
        let publish = loop {
            let msg = read_message(&mut reader)
                .expect("a framed message")
                .expect("the server is running");
            if msg.contains("publishDiagnostics") {
                break msg;
            }
        };
        if publish.contains(&format!("\"uri\":\"{uri}\"")) {
            out.push(publish);
        }
    }
    drop(stdin);
    child.wait().expect("rtr lsp exits");
    out
}

fn did_open(uri: &str, version: i64, text: &str) -> String {
    format!(
        "{{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didOpen\",\"params\":{{\"textDocument\":\
         {{\"uri\":\"{uri}\",\"version\":{version},\"text\":\"{}\"}}}}}}",
        escape(text)
    )
}

fn did_change(uri: &str, version: i64, text: &str) -> String {
    format!(
        "{{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didChange\",\"params\":{{\"textDocument\":\
         {{\"uri\":\"{uri}\",\"version\":{version}}},\"contentChanges\":[{{\"text\":\"{}\"}}]}}}}",
        escape(text)
    )
}

#[test]
fn an_lsp_session_that_checked_other_items_first_publishes_as_alone() {
    const OTHER: &str = "file:///determinism/other.rtr";
    const FIXTURE: &str = "file:///determinism/fixture.rtr";
    // Items that mint fresh names of their own when checked.
    let other = |k: usize| {
        format!(
            "(define v (vec {k} {k}))\n(: f : [A : (Vecof Int)] -> Int)\n(define (f A) (+ {k} (len (vec A))))\n"
        )
    };
    for (stem, src) in fixtures() {
        let alone = lsp_publishes(&[did_open(FIXTURE, 1, &src)], FIXTURE);
        assert_eq!(alone.len(), 1, "{stem}: one publish");
        let after_others = lsp_publishes(
            &[
                did_open(OTHER, 1, &other(1)),
                did_change(OTHER, 2, &other(2)),
                did_open(FIXTURE, 1, &src),
            ],
            FIXTURE,
        );
        assert_eq!(after_others, alone, "{stem}: the session's publish differs");
        // The same document with a different item edited first.
        let doc = |k: usize| format!("{src}\n{}", other(k));
        let alone = lsp_publishes(&[did_open(FIXTURE, 2, &doc(2))], FIXTURE);
        let edited = lsp_publishes(
            &[
                did_open(FIXTURE, 1, &doc(1)),
                did_change(FIXTURE, 2, &doc(2)),
            ],
            FIXTURE,
        );
        assert_eq!(edited.len(), 2, "{stem}: one publish per version");
        assert_eq!(
            edited.last(),
            alone.last(),
            "{stem}: the warm publish differs"
        );
    }
}
