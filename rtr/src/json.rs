//! Machine-readable check reports: the `rtr-check-v1` JSON schema.
//!
//! [`reports_to_json`] renders [`CheckReport`]s against a stable,
//! documented schema (no external serialization crates — the emitter
//! and the validating [`parse`]r are self-contained):
//!
//! ```json
//! {
//!   "schema": "rtr-check-v1",
//!   "files": [
//!     {
//!       "name": "demo.rtr",
//!       "clean": false,
//!       "items": [ {"name": "f", "type": "([x : Int] -> Int)", "poisoned": true} ],
//!       "value_type": null,
//!       "diagnostics": [
//!         {
//!           "code": "E0002",
//!           "severity": "error",
//!           "message": "type checker error in …: expected Int but given True",
//!           "span": {"line": 2, "col": 15, "end_line": 2, "end_col": 17},
//!           "labels": [ {"span": {"line": 1, "col": 1, "end_line": 1, "end_col": 25},
//!                        "message": "f is declared here"} ],
//!           "payload": {"kind": "mismatch", "expected": "Int", "got": "True",
//!                        "failed_prop": null, "theories": []},
//!           "notes": ["the definition of f is poisoned: …"]
//!         }
//!       ],
//!       "stats": {"definitions": 1, "errors": 1, "warnings": 0, "elapsed_us": 180}
//!     }
//!   ],
//!   "summary": {"files": 1, "errors": 1, "warnings": 0, "clean": false}
//! }
//! ```
//!
//! Schema contract:
//!
//! * `schema` is always `"rtr-check-v1"`; additive changes bump the
//!   suffix.
//! * `code` is a stable [`rtr_core::diag::Code`] string (`E0xxx` errors,
//!   `W0xxx` warnings); `severity` is `"error" | "warning" | "note"`.
//! * `span` is `null` or 1-based `line`/`col` (inclusive start) +
//!   `end_line`/`end_col` (exclusive end) into the file's text.
//! * `payload.kind` is one of `none`, `unbound`, `mismatch`,
//!   `not-a-function`, `arity`, `not-a-pair`, `cannot-infer`,
//!   `bad-assignment`, `exhausted`, `ice`; types and propositions are
//!   rendered in the surface syntax, `theories` lists the solver
//!   theories a failed refinement mentions.
//! * An `exhausted` payload (code `E0202`) carries `limit`: which
//!   resource-governance limit tripped (`steps`, `deadline`, `depth`,
//!   or `injected-fault` under the chaos harness). An `ice` payload
//!   (code `E0203`) carries `detail`: the isolated internal error. Both
//!   are additive — consumers unaware of them still parse every report.
//! * `stats` additionally carries `rechecked_items` and
//!   `unchanged_items`: how many items were actually re-judged versus
//!   spliced from the session's per-item fingerprint cache. A cold
//!   check (every `rtr check`, the first `rtr watch` pass) reports
//!   every item re-checked and `0` unchanged. Both fields are additive,
//!   absent only when the check failed outside per-item isolation.
//! * Exit-code contract of `rtr check --json`: `0` clean, `1` at least
//!   one error-severity diagnostic, `2` usage or I/O failure, `3` at
//!   least one internal checker error (`E0203`) was isolated — results
//!   for other items are still reported but the run is suspect.

use rtr_core::diag::{theory_names, Diagnostic, Payload, Span};
use rtr_core::syntax::Symbol;

use crate::session::CheckReport;

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Escapes `s` as the body of a JSON string literal. Runs of characters
/// that need no escape are copied with one `push_str` each; every
/// escaped character is ASCII, so the runs end on character boundaries.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..0x20 => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            out.push_str(&format!("\\u{b:04x}"));
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out
}

fn str_lit(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

fn opt_str(s: Option<String>) -> String {
    match s {
        Some(s) => str_lit(&s),
        None => "null".to_owned(),
    }
}

fn span_json(span: Option<Span>) -> String {
    match span {
        None => "null".to_owned(),
        Some(s) => format!(
            "{{\"line\": {}, \"col\": {}, \"end_line\": {}, \"end_col\": {}}}",
            s.start.line, s.start.col, s.end.line, s.end.col
        ),
    }
}

/// `x` as users read it: fresh names numbered by first occurrence
/// ([`Symbol::renumbered`]), so the text depends only on `x`.
pub fn shown(x: impl std::fmt::Display) -> String {
    Symbol::renumbered(|| x.to_string())
}

fn payload_json(p: &Payload) -> String {
    let kind = format!("\"kind\": {}", str_lit(p.kind()));
    match p {
        Payload::None => format!("{{{kind}}}"),
        Payload::Unbound { var } => format!("{{{kind}, \"var\": {}}}", str_lit(&var.to_string())),
        Payload::Mismatch {
            expected,
            got,
            failed_prop,
            theories,
        } => {
            let theory_list = theory_names(*theories)
                .iter()
                .map(|n| str_lit(n))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{{{kind}, \"expected\": {}, \"got\": {}, \"failed_prop\": {}, \"theories\": [{theory_list}]}}",
                str_lit(&expected.to_string()),
                str_lit(&got.to_string()),
                opt_str(failed_prop.as_ref().map(|p| p.to_string())),
            )
        }
        Payload::NotAFunction { got } => {
            format!("{{{kind}, \"got\": {}}}", str_lit(&got.to_string()))
        }
        Payload::Arity { expected, got } => {
            format!("{{{kind}, \"expected\": {expected}, \"got\": {got}}}")
        }
        Payload::NotAPair { got } => {
            format!("{{{kind}, \"got\": {}}}", str_lit(&got.to_string()))
        }
        Payload::CannotInfer { reason } => {
            format!("{{{kind}, \"reason\": {}}}", str_lit(reason))
        }
        Payload::BadAssignment { var, expected, got } => format!(
            "{{{kind}, \"var\": {}, \"expected\": {}, \"got\": {}}}",
            str_lit(&var.to_string()),
            str_lit(&expected.to_string()),
            str_lit(&got.to_string()),
        ),
        Payload::Exhausted { limit } => {
            format!("{{{kind}, \"limit\": {}}}", str_lit(limit.as_str()))
        }
        Payload::Ice { detail } => {
            format!("{{{kind}, \"detail\": {}}}", str_lit(detail))
        }
    }
}

/// One diagnostic as a schema object.
pub fn diagnostic_json(d: &Diagnostic) -> String {
    let labels = d
        .labels
        .iter()
        .map(|l| {
            format!(
                "{{\"span\": {}, \"message\": {}}}",
                span_json(l.span),
                str_lit(&l.message)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let notes = d
        .notes
        .iter()
        .map(|n| str_lit(n))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"code\": {}, \"severity\": {}, \"message\": {}, \"span\": {}, \"labels\": [{labels}], \"payload\": {}, \"notes\": [{notes}]}}",
        str_lit(d.code.as_str()),
        str_lit(d.severity.as_str()),
        str_lit(&d.message),
        span_json(d.primary),
        Symbol::renumbered(|| payload_json(&d.payload)),
    )
}

fn report_json(r: &CheckReport) -> String {
    let items = r
        .results
        .iter()
        .map(|i| {
            format!(
                "{{\"name\": {}, \"type\": {}, \"poisoned\": {}}}",
                opt_str(i.name.map(|n| n.to_string())),
                opt_str(i.ty.as_ref().map(shown)),
                i.poisoned
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let diagnostics = r
        .diagnostics
        .iter()
        .map(diagnostic_json)
        .collect::<Vec<_>>()
        .join(",\n        ");
    // The incremental counters are additive fields, so `rtr-check-v1`
    // consumers unaware of them keep parsing.
    let incr = r.stats.trace.map_or_else(String::new, |t| {
        format!(
            ", \"rechecked_items\": {}, \"unchanged_items\": {}",
            t.rechecked, t.skipped
        )
    });
    format!(
        "{{\n      \"name\": {},\n      \"clean\": {},\n      \"items\": [{items}],\n      \"value_type\": {},\n      \"diagnostics\": [\n        {diagnostics}\n      ],\n      \"stats\": {{\"definitions\": {}, \"errors\": {}, \"warnings\": {}, \"elapsed_us\": {}{incr}}}\n    }}",
        str_lit(&r.file),
        r.is_clean(),
        opt_str(r.value.as_ref().map(|v| shown(v.lift().ty))),
        r.stats.definitions,
        r.stats.errors,
        r.stats.warnings,
        r.stats.elapsed.as_micros(),
    )
}

/// The whole `rtr-check-v1` document for a batch of reports.
pub fn reports_to_json(reports: &[CheckReport]) -> String {
    let files = reports
        .iter()
        .map(report_json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let errors: usize = reports.iter().map(|r| r.stats.errors).sum();
    let warnings: usize = reports.iter().map(|r| r.stats.warnings).sum();
    format!(
        "{{\n  \"schema\": \"rtr-check-v1\",\n  \"files\": [\n    {files}\n  ],\n  \"summary\": {{\"files\": {}, \"errors\": {errors}, \"warnings\": {warnings}, \"clean\": {}}}\n}}\n",
        reports.len(),
        errors == 0,
    )
}

// ---------------------------------------------------------------------------
// Parsing (for schema validation and machine consumers)
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses a JSON document (strict: exactly one value plus whitespace).
///
/// # Errors
///
/// A human-readable message with a byte offset on malformed input.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut at = 0usize;
    let value = parse_value(src, bytes, &mut at)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(format!("trailing data at byte {at}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(bytes: &[u8], at: &mut usize, c: u8) -> Result<(), String> {
    if *at < bytes.len() && bytes[*at] == c {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {at}", c as char))
    }
}

fn parse_value(src: &str, bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => {
            *at += 1;
            let mut members = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, at);
                let key = parse_string(src, bytes, at)?;
                skip_ws(bytes, at);
                expect(bytes, at, b':')?;
                let value = parse_value(src, bytes, at)?;
                members.push((key, value));
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {at}")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(src, bytes, at)?);
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {at}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(src, bytes, at)?)),
        Some(b't') if src[*at..].starts_with("true") => {
            *at += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if src[*at..].starts_with("false") => {
            *at += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if src[*at..].starts_with("null") => {
            *at += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *at;
            while *at < bytes.len()
                && matches!(bytes[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *at += 1;
            }
            src[start..*at]
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

fn parse_string(src: &str, bytes: &[u8], at: &mut usize) -> Result<String, String> {
    expect(bytes, at, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or escape in one go: both are
        // ASCII, so the run ends on a character boundary.
        let run = bytes[*at..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&src[*at..*at + run]);
        *at += run + 1;
        if bytes[*at - 1] == b'"' {
            return Ok(out);
        }
        let escape = bytes.get(*at).copied();
        *at += 1;
        match escape {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let code = hex4(src, *at)?;
                *at += 4;
                // A high surrogate followed by an escaped low one is a
                // pair; any other surrogate is replaced.
                let low = src[*at..]
                    .strip_prefix("\\u")
                    .and_then(|_| hex4(src, *at + 2).ok())
                    .filter(|lo| (0xD800..0xDC00).contains(&code) && (0xDC00..0xE000).contains(lo));
                let c = match low {
                    Some(lo) => {
                        *at += 6;
                        char::from_u32(0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00))
                    }
                    None => char::from_u32(code),
                };
                out.push(c.unwrap_or('\u{fffd}'));
            }
            _ => return Err("bad string escape".to_owned()),
        }
    }
}

/// The four hex digits of a `\u` escape starting at byte `at`.
fn hex4(src: &str, at: usize) -> Result<u32, String> {
    let hex = src.get(at..at + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionConfig, SourceFile};

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line\n\"quote\" \\ tab\t √ nul\u{1}";
        let json = format!("{{\"s\": {}}}", str_lit(nasty));
        let parsed = parse(&json).expect("parses");
        assert_eq!(parsed.get("s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn strings_copy_runs_and_decode_escapes_at_their_boundaries() {
        let parsed = |json: &str| parse(json).map(|v| v.as_str().map(str::to_owned));
        assert_eq!(
            parsed(r#""\u00e9é\n\u0041𝒳\"\\""#),
            Ok(Some("éé\nA𝒳\"\\".to_owned()))
        );
        // A surrogate pair is one character; a lone surrogate is replaced.
        assert_eq!(parsed(r#""x\ud835\udcb3y""#), Ok(Some("x𝒳y".to_owned())));
        assert_eq!(parsed(r#""\ud835z""#), Ok(Some("\u{fffd}z".to_owned())));
        // Escapes first, last and back to back, around multibyte runs.
        let nasty = "\n√\t\"ü\u{1}\u{1f}ß\\";
        let json = format!("[{}, {}]", str_lit(nasty), str_lit(""));
        let doc = parse(&json).expect("parses");
        let items = doc.as_array().expect("an array");
        assert_eq!(items[0].as_str(), Some(nasty));
        assert_eq!(items[1].as_str(), Some(""));
        assert!(parse(r#""abc"#).is_err());
        assert!(parse(r#""a\"#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\q""#).is_err());
    }

    #[test]
    fn escape_copies_runs_and_escapes_at_their_boundaries() {
        // The per-character reference the run copier must match.
        let reference = |s: &str| {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        };
        let cases = [
            "",
            "plain",
            "\"",
            "\\",
            "a\"b\\c",
            "\"\"\\\\",
            "é\"𝒳\\ü",
            "\u{1}é\u{1f}𝒳\u{7f}\u{0}",
            "\n√\t\"ü\u{1}\u{1f}ß\\",
            "𝒳\r\n",
            "tail é",
        ];
        for s in cases {
            assert_eq!(escape(s), reference(s), "{s:?}");
            // And it round-trips through the parser.
            let parsed = parse(&format!("\"{}\"", escape(s))).expect("parses");
            assert_eq!(parsed.as_str(), Some(s));
        }
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(escape("\u{1f}"), "\\u001f");
    }

    #[test]
    fn parser_handles_the_basics() {
        let v = parse("[1, -2.5, true, false, null, {\"k\": [\"v\"]}]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_bool(), Some(true));
        assert_eq!(items[4], Json::Null);
        assert_eq!(
            items[5].get("k").unwrap().as_array().unwrap()[0].as_str(),
            Some("v")
        );
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} extra").is_err());
    }

    #[test]
    fn incremental_counters_are_additive_stats_fields() {
        let session = Session::new(SessionConfig::default());
        let file = SourceFile::new(
            "ok.rtr",
            "(: f : [x : Int] -> Int)\n(define (f x) x)\n(f 2)",
        );
        let counters = |report: CheckReport| {
            let doc = parse(&reports_to_json(&[report])).expect("emitted JSON must parse");
            let stats = doc.get("files").unwrap().as_array().unwrap()[0]
                .get("stats")
                .expect("stats object");
            let field = |key| stats.get(key).and_then(Json::as_f64);
            (field("rechecked_items"), field("unchanged_items"))
        };
        // A cold check re-checks both items and reuses none…
        assert_eq!(counters(session.check(&file)), (Some(2.0), Some(0.0)));
        // …and an identical warm re-check splices them both.
        assert_eq!(counters(session.check(&file)), (Some(0.0), Some(2.0)));
    }

    #[test]
    fn emitted_reports_parse_and_carry_the_schema_header() {
        let session = Session::new(SessionConfig::default());
        let report = session.check(&SourceFile::new("ok.rtr", "(+ 1 2)"));
        let json = reports_to_json(&[report]);
        let doc = parse(&json).expect("emitted JSON must parse");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("rtr-check-v1"));
        assert_eq!(
            doc.get("summary").unwrap().get("clean").unwrap().as_bool(),
            Some(true)
        );
    }
}
