//! JSON-RPC 2.0 message shapes and the `Diagnostic` → LSP mapping.
//!
//! Parsing reuses the in-tree [`crate::json`] parser; emission is
//! hand-rendered like the `rtr-check-v1` emitter, so field order (and
//! therefore the golden transcripts) is deterministic.
//!
//! Positions: the checker's [`Span`]s are 1-based line/*character*
//! columns, LSP wants 0-based line/UTF-16 code-unit columns. Every
//! conversion goes through [`rtr_core::diag::LineIndex`] against the
//! exact document text the diagnostics were produced from.

use std::collections::HashMap;

use rtr_core::diag::{Diagnostic, LineIndex, Loc, Severity, Span, Utf16Pos};

use crate::json::{escape, parse, Json};

/// JSON-RPC error code: method not found.
pub const METHOD_NOT_FOUND: i64 = -32601;
/// JSON-RPC error code: invalid params.
pub const INVALID_PARAMS: i64 = -32602;
/// JSON-RPC error code: parse error.
pub const PARSE_ERROR: i64 = -32700;
/// LSP error code: the server received a request before `initialize`.
pub const SERVER_NOT_INITIALIZED: i64 = -32002;

/// One incoming JSON-RPC message: a request (`id` present) or a
/// notification (`id` absent).
#[derive(Clone, Debug)]
pub struct Incoming {
    /// The request id (`Json::Num` or `Json::Str`); `None` for
    /// notifications.
    pub id: Option<Json>,
    /// The method name.
    pub method: String,
    /// The `params` member (`Json::Null` when absent).
    pub params: Json,
}

/// Parses one message body.
///
/// # Errors
///
/// A human-readable message on malformed JSON or a missing `method`.
pub fn parse_message(body: &str) -> Result<Incoming, String> {
    // The members move out of the document: a `didChange` carries the
    // whole buffer, which must not be copied a second time.
    let members = match parse(body)? {
        Json::Obj(members) => members,
        _ => Vec::new(),
    };
    let (mut id, mut method, mut params) = (None, None, None);
    for (key, value) in members {
        // The first occurrence of a key wins, as in [`Json::get`].
        let slot = match key.as_str() {
            "id" => &mut id,
            "method" => &mut method,
            "params" => &mut params,
            _ => continue,
        };
        slot.get_or_insert(value);
    }
    let Some(Json::Str(method)) = method else {
        return Err("message has no method".to_owned());
    };
    Ok(Incoming {
        id: id.filter(|v| !matches!(v, Json::Null)),
        method,
        params: params.unwrap_or(Json::Null),
    })
}

/// Renders a request id back out (numbers stay integral, strings are
/// re-escaped; anything else — which [`parse_message`] filters — maps
/// to `null`).
pub fn id_json(id: &Json) -> String {
    match id {
        Json::Num(n) if n.fract() == 0.0 => format!("{}", *n as i64),
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => format!("\"{}\"", escape(s)),
        _ => "null".to_owned(),
    }
}

/// A successful response envelope. `result` must already be rendered
/// JSON.
pub fn response(id: &Json, result: &str) -> String {
    format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":{},\"result\":{result}}}",
        id_json(id)
    )
}

/// An error response envelope.
pub fn error_response(id: Option<&Json>, code: i64, message: &str) -> String {
    format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":{},\"error\":{{\"code\":{code},\"message\":\"{}\"}}}}",
        id.map_or_else(|| "null".to_owned(), id_json),
        escape(message)
    )
}

/// A server-to-client notification envelope. `params` must already be
/// rendered JSON.
pub fn notification(method: &str, params: &str) -> String {
    format!("{{\"jsonrpc\":\"2.0\",\"method\":\"{method}\",\"params\":{params}}}")
}

/// Renders an LSP `Position` from a checker [`Loc`].
fn position_json(pos: Utf16Pos) -> String {
    format!("{{\"line\":{},\"character\":{}}}", pos.line, pos.character)
}

/// Renders an LSP `Range` from a checker [`Span`].
pub fn range_json(ix: &LineIndex, text: &str, span: Span) -> String {
    let (start, end) = ix.span_to_utf16(text, span);
    format!(
        "{{\"start\":{},\"end\":{}}}",
        position_json(start),
        position_json(end)
    )
}

/// The LSP `DiagnosticSeverity` for a checker [`Severity`]
/// (1 = Error, 2 = Warning, 3 = Information).
pub fn lsp_severity(s: Severity) -> u8 {
    match s {
        Severity::Error => 1,
        Severity::Warning => 2,
        Severity::Note => 3,
    }
}

/// Renders one checker [`Diagnostic`] as an LSP `Diagnostic` object.
///
/// * `range` — the primary span through the UTF-16 index (diagnostics
///   without a located primary anchor at the top of the file),
/// * `severity`/`code`/`source` — [`lsp_severity`], the stable `E0xxx`
///   string, `"rtr"`,
/// * `message` — the rendered message, with the diagnostic's notes
///   appended on their own lines,
/// * labels become `relatedInformation` entries pointing back into the
///   same document.
pub fn diagnostic_json(uri: &str, ix: &LineIndex, text: &str, d: &Diagnostic) -> String {
    let range = d
        .primary
        .unwrap_or_else(|| Span::point(Loc { line: 1, col: 1 }));
    let mut message = d.message.clone();
    for note in &d.notes {
        message.push('\n');
        message.push_str("note: ");
        message.push_str(note);
    }
    let related: Vec<String> = d
        .labels
        .iter()
        .filter_map(|l| {
            let span = l.span?;
            Some(format!(
                "{{\"location\":{{\"uri\":\"{}\",\"range\":{}}},\"message\":\"{}\"}}",
                escape(uri),
                range_json(ix, text, span),
                escape(&l.message)
            ))
        })
        .collect();
    let related = if related.is_empty() {
        String::new()
    } else {
        format!(",\"relatedInformation\":[{}]", related.join(","))
    };
    format!(
        "{{\"range\":{},\"severity\":{},\"code\":\"{}\",\"source\":\"rtr\",\"message\":\"{}\"{related}}}",
        range_json(ix, text, range),
        lsp_severity(d.severity),
        d.code.as_str(),
        escape(&message)
    )
}

/// Renders the `textDocument/publishDiagnostics` params for one
/// document version.
pub fn publish_diagnostics_params(
    uri: &str,
    version: i64,
    ix: &LineIndex,
    text: &str,
    diagnostics: &[Diagnostic],
) -> String {
    let rendered: Vec<String> = diagnostics
        .iter()
        .map(|d| diagnostic_json(uri, ix, text, d))
        .collect();
    publish_params(uri, version, rendered.iter().map(String::as_str))
}

/// The `publishDiagnostics` params around already rendered
/// [`diagnostic_json`] objects: the one composition every publish uses.
fn publish_params<'a>(uri: &str, version: i64, rendered: impl Iterator<Item = &'a str>) -> String {
    let mut out = format!(
        "{{\"uri\":\"{}\",\"version\":{version},\"diagnostics\":[",
        escape(uri)
    );
    for (k, json) in rendered.enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(json);
    }
    out.push_str("]}");
    out
}

/// [`publish_diagnostics_params`] for one document, memoized.
///
/// [`diagnostic_json`] reads the uri, the diagnostic's severity, code,
/// message, notes, primary span and labels, and, through the line index,
/// the number and text of each line a span starts or ends on (after the
/// conversion's clamping). A memo serves one document (the server keeps
/// one per uri beside its published text), so the uri is the same on
/// every call, and the memo keys each rendered object on the rest, so a
/// publish renders only the diagnostics that are new or moved and joins
/// the cached objects for the rest; the result is byte-identical to the
/// unmemoized params. It keeps only the entries of the last publish.
#[derive(Debug, Default)]
pub(crate) struct DiagnosticMemo {
    entries: Vec<MemoEntry>,
}

/// One rendered diagnostic and what its rendering read.
#[derive(Debug)]
struct MemoEntry {
    diagnostic: Diagnostic,
    /// Each span endpoint's clamped 0-based line and that line's text,
    /// in [`endpoint_lines`] order.
    lines: Vec<(u32, Box<str>)>,
    json: String,
}

/// The span endpoints [`diagnostic_json`] converts, in order: the
/// primary range (the top of the file when there is none), then each
/// located label's.
fn endpoints(d: &Diagnostic) -> impl Iterator<Item = Loc> + '_ {
    let primary = d
        .primary
        .unwrap_or_else(|| Span::point(Loc { line: 1, col: 1 }));
    std::iter::once(primary)
        .chain(d.labels.iter().filter_map(|l| l.span))
        .flat_map(|s| [s.start, s.end])
}

/// The clamped 0-based line each endpoint of `d` lies on, as
/// [`LineIndex::loc_to_utf16`] clamps it.
fn endpoint_lines<'a>(ix: &'a LineIndex, d: &'a Diagnostic) -> impl Iterator<Item = u32> + 'a {
    endpoints(d).map(|loc| loc.line.saturating_sub(1).min(ix.line_count() - 1))
}

/// Do `a` and `b` agree on every field [`diagnostic_json`] reads?
fn renders_alike(a: &Diagnostic, b: &Diagnostic) -> bool {
    a.primary == b.primary
        && a.code == b.code
        && a.severity == b.severity
        && a.message == b.message
        && a.notes == b.notes
        && a.labels.len() == b.labels.len()
        && a.labels
            .iter()
            .zip(&b.labels)
            .all(|(x, y)| x.span == y.span && x.message == y.message)
}

impl DiagnosticMemo {
    /// The params [`publish_diagnostics_params`] renders for these
    /// arguments, reusing every object the last publish of the same
    /// document rendered from the same inputs.
    pub(crate) fn publish(
        &mut self,
        uri: &str,
        version: i64,
        ix: &LineIndex,
        text: &str,
        diagnostics: &[Diagnostic],
    ) -> String {
        let mut old: Vec<Option<MemoEntry>> = std::mem::take(&mut self.entries)
            .into_iter()
            .map(Some)
            .collect();
        let hit = |e: &MemoEntry, d: &Diagnostic| {
            renders_alike(&e.diagnostic, d)
                && e.lines.len() == endpoints(d).count()
                && e.lines
                    .iter()
                    .zip(endpoint_lines(ix, d))
                    .all(|((n, t), line)| *n == line && **t == *ix.line(text, line))
        };
        // The old entries by primary span, built at the first miss.
        let mut by_primary: Option<HashMap<Option<Span>, Vec<usize>>> = None;
        let mut entries = Vec::with_capacity(diagnostics.len());
        for (k, d) in diagnostics.iter().enumerate() {
            // Usually the entry at the same index; else an unused one
            // with the same primary span that matches.
            let same = old
                .get(k)
                .and_then(Option::as_ref)
                .is_some_and(|e| hit(e, d));
            let j = if same {
                Some(k)
            } else {
                let index = by_primary.get_or_insert_with(|| {
                    let mut index: HashMap<Option<Span>, Vec<usize>> = HashMap::new();
                    for (j, e) in old.iter().enumerate() {
                        let primary = e.as_ref().and_then(|e| e.diagnostic.primary);
                        index.entry(primary).or_default().push(j);
                    }
                    index
                });
                index.get(&d.primary).and_then(|js| {
                    let matches = |j: &usize| old[*j].as_ref().is_some_and(|e| hit(e, d));
                    js.iter().copied().find(matches)
                })
            };
            let found = j.and_then(|j| old[j].take());
            entries.push(found.unwrap_or_else(|| {
                MemoEntry {
                    diagnostic: d.clone(),
                    lines: endpoint_lines(ix, d)
                        .map(|line| (line, ix.line(text, line).into()))
                        .collect(),
                    json: diagnostic_json(uri, ix, text, d),
                }
            }));
        }
        self.entries = entries;
        publish_params(uri, version, self.entries.iter().map(|e| e.json.as_str()))
    }
}

// ---------------------------------------------------------------------------
// Param extraction helpers
// ---------------------------------------------------------------------------

/// `params.textDocument.uri`.
pub fn text_document_uri(params: &Json) -> Option<&str> {
    params.get("textDocument")?.get("uri")?.as_str()
}

/// `params.textDocument.version` (an integer in the protocol).
pub fn text_document_version(params: &Json) -> Option<i64> {
    let v = params.get("textDocument")?.get("version")?.as_f64()?;
    Some(v as i64)
}

/// `params.position` as a [`Utf16Pos`].
pub fn position(params: &Json) -> Option<Utf16Pos> {
    let p = params.get("position")?;
    Some(Utf16Pos {
        line: p.get("line")?.as_f64()? as u32,
        character: p.get("character")?.as_f64()? as u32,
    })
}

/// The full text carried by `didOpen` (`textDocument.text`).
pub fn text_document_text(params: &Json) -> Option<&str> {
    params.get("textDocument")?.get("text")?.as_str()
}

/// The last full-sync text of a `didChange` (`contentChanges[-1].text`
/// — with full-document sync every change carries the whole buffer, so
/// the final element wins).
pub fn last_content_change(params: &Json) -> Option<&str> {
    params
        .get("contentChanges")?
        .as_array()?
        .last()?
        .get("text")?
        .as_str()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_and_notifications_parse() {
        let req =
            parse_message(r#"{"jsonrpc":"2.0","id":3,"method":"initialize","params":{"a":1}}"#)
                .unwrap();
        assert_eq!(req.method, "initialize");
        assert_eq!(req.id.as_ref().map(id_json).as_deref(), Some("3"));
        let note = parse_message(r#"{"jsonrpc":"2.0","method":"exit"}"#).unwrap();
        assert!(note.id.is_none());
        assert!(parse_message(r#"{"jsonrpc":"2.0"}"#).is_err());
    }

    #[test]
    fn ranges_are_utf16_zero_based() {
        let text = "(define x 1)\n(𝒳 #t)\n";
        let ix = LineIndex::new(text);
        // The second line's form spans the whole line: chars 1..=7.
        let span = Span::new(Loc { line: 2, col: 1 }, Loc { line: 2, col: 7 });
        let range = range_json(&ix, text, span);
        // 𝒳 is two UTF-16 units, so the end lands at character 7.
        assert_eq!(
            range,
            "{\"start\":{\"line\":1,\"character\":0},\"end\":{\"line\":1,\"character\":7}}"
        );
    }

    #[test]
    fn string_ids_round_trip() {
        assert_eq!(id_json(&Json::Str("a\"b".into())), "\"a\\\"b\"");
        assert_eq!(id_json(&Json::Num(7.0)), "7");
    }
}
