//! Warm publishes ≡ fresh renders: random edit scripts through the real
//! `rtr lsp` server.
//!
//! The server derives each version's line index from the previous one
//! and reuses the rendered diagnostics of the previous publish. After
//! every edit, its `publishDiagnostics` notification must be
//! byte-identical to the one a fresh session renders for the same text
//! with [`publish_diagnostics_params`] over [`LineIndex::new`].
//!
//! The scripts insert and delete lines above ill-typed items, edit inside
//! a diagnostic's line, switch lines between `\n` and `\r\n`, put astral
//! characters before a diagnostic's column, break and fix items, and move
//! ill-typed items around.

use std::io::BufReader;
use std::os::unix::net::UnixStream;

use rtr::core::diag::LineIndex;
use rtr::json::escape;
use rtr::lsp::framing::{read_message, write_message};
use rtr::lsp::protocol::{notification, publish_diagnostics_params};
use rtr::session::{Session, SessionConfig, SourceFile};

const URI: &str = "file:///props/publish.rtr";

/// A deterministic LCG; high bits are the usable ones.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

/// One item of the document, rendered on its own lines.
#[derive(Clone, Copy)]
enum Item {
    /// A well-typed signed definition.
    Good(usize),
    /// The same definition with a Bool body: one `E0002`.
    Bad(usize),
    /// An ill-typed body whose error column follows an astral (`true`)
    /// or a two-byte character: the same character column, a different
    /// UTF-16 one.
    Wide(usize, bool),
    /// A comment line with multibyte text.
    Comment(usize),
}

/// One rendered item and the line end each of its lines uses.
#[derive(Clone, Copy)]
struct Line {
    item: Item,
    crlf: bool,
}

fn render(lines: &[Line]) -> String {
    let mut out = String::new();
    for l in lines {
        let end = if l.crlf { "\r\n" } else { "\n" };
        match l.item {
            Item::Good(k) => out.push_str(&format!(
                "(: g{k} : [x : Int] -> Int){end}(define (g{k} x) (+ x {k})){end}"
            )),
            Item::Bad(k) => out.push_str(&format!(
                "(: g{k} : [x : Int] -> Int){end}(define (g{k} x) (int? x)){end}"
            )),
            Item::Wide(k, astral) => {
                let c = if astral { '𝒳' } else { 'é' };
                out.push_str(&format!(
                    "(: g{k} : [x : Int] -> Int){end}(define (g{k} x) (let ([y \"{c}\"]) (+ y x))){end}"
                ))
            }
            Item::Comment(k) => out.push_str(&format!("; note {k} é𝒳 ü{end}")),
        }
    }
    out
}

/// One random edit of the document model.
fn mutate(lines: &mut Vec<Line>, rng: &mut Rng, fresh: &mut usize) {
    let at = rng.next(lines.len());
    match rng.next(7) {
        // Insert a line or an item above whatever is at `at`.
        0 => {
            *fresh += 1;
            let item = if rng.next(2) == 0 {
                Item::Comment(*fresh)
            } else {
                Item::Good(*fresh)
            };
            let crlf = rng.next(2) == 0;
            lines.insert(at, Line { item, crlf });
        }
        // Delete one (keeping at least one).
        1 if lines.len() > 1 => {
            lines.remove(at);
        }
        // Break or fix one.
        2 => {
            lines[at].item = match lines[at].item {
                Item::Good(k) => Item::Bad(k),
                Item::Bad(k) | Item::Wide(k, _) => Item::Good(k),
                other => other,
            };
        }
        // Edit inside a diagnostic's line: the error moves along it, or
        // only its UTF-16 column does.
        3 => {
            lines[at].item = match lines[at].item {
                Item::Bad(k) => Item::Wide(k, true),
                Item::Wide(k, astral) if rng.next(2) == 0 => Item::Wide(k, !astral),
                Item::Wide(k, _) => Item::Bad(k),
                other => other,
            };
        }
        // Switch an item's line ends.
        4 => lines[at].crlf = !lines[at].crlf,
        // Move an item elsewhere.
        5 => {
            let l = lines.remove(at);
            let to = rng.next(lines.len() + 1);
            lines.insert(to, l);
        }
        // Touch nothing but trailing trivia: every item splices.
        _ => {
            *fresh += 1;
            let crlf = lines[lines.len() - 1].crlf;
            lines.push(Line {
                item: Item::Comment(*fresh),
                crlf,
            });
        }
    }
}

fn document(version: i64, text: &str, method: &str) -> String {
    let doc = if method == "textDocument/didOpen" {
        format!(
            "{{\"uri\":\"{URI}\",\"version\":{version},\"text\":\"{}\"}}",
            escape(text)
        )
    } else {
        format!(
            "{{\"uri\":\"{URI}\",\"version\":{version}}},\"contentChanges\":[{{\"text\":\"{}\"}}]",
            escape(text)
        )
    };
    format!("{{\"jsonrpc\":\"2.0\",\"method\":\"{method}\",\"params\":{{\"textDocument\":{doc}}}}}")
}

/// The publish a fresh session renders for `text`.
fn fresh_publish(version: i64, text: &str) -> String {
    let session = Session::new(SessionConfig::default());
    let path = URI.strip_prefix("file://").expect("a file uri");
    let report = session.check(&SourceFile::new(path, text));
    let params = publish_diagnostics_params(
        URI,
        version,
        &LineIndex::new(text),
        text,
        &report.diagnostics,
    );
    notification("textDocument/publishDiagnostics", &params)
}

fn play(seed: u64, steps: usize) {
    let (ours, theirs) = UnixStream::pair().expect("a socket pair");
    let their_reader = theirs.try_clone().expect("a socket clone");
    let server = std::thread::spawn(move || {
        let session = Session::new(SessionConfig::default());
        rtr::lsp::server::run(BufReader::new(their_reader), theirs, session, false)
    });
    let mut reader = BufReader::new(ours.try_clone().expect("a socket clone"));
    let mut writer = ours;

    let mut rng = Rng(seed);
    let mut fresh = 100;
    let mut lines: Vec<Line> = (0..12)
        .map(|k| Line {
            item: match k % 4 {
                0 => Item::Bad(k),
                1 => Item::Wide(k, true),
                2 => Item::Comment(k),
                _ => Item::Good(k),
            },
            crlf: rng.next(2) == 0,
        })
        .collect();
    let mut errors_seen = 0;
    for version in 1..=steps as i64 {
        if version > 1 {
            mutate(&mut lines, &mut rng, &mut fresh);
        }
        let text = render(&lines);
        let method = if version == 1 {
            "textDocument/didOpen"
        } else {
            "textDocument/didChange"
        };
        write_message(&mut writer, &document(version, &text, method)).expect("send");
        let publish = read_message(&mut reader)
            .expect("a framed message")
            .expect("the server is running");
        assert_eq!(
            publish,
            fresh_publish(version, &text),
            "seed {seed} version {version} diverged on:\n{text:?}"
        );
        errors_seen += publish.matches("\"code\":").count();
    }
    assert!(
        errors_seen > 0,
        "seed {seed}: no diagnostics were published"
    );
    drop((reader, writer));
    assert_eq!(
        server.join().expect("the server thread"),
        1,
        "EOF without shutdown"
    );
}

#[test]
fn warm_publishes_of_random_edit_scripts_match_fresh_renders() {
    for seed in 1..=8 {
        play(seed, 30);
    }
    // Explore new scripts on every run; the seed is in the message.
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    play(clock, 30);
}
