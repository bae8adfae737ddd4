//! The server state machine: document overlays, version-aware
//! cancellation, diagnostics publishing and hover.
//!
//! # Threading
//!
//! Two threads. The **reader** thread owns the input transport: it
//! decodes frames, parses each message, and forwards it over a channel
//! — but *before* forwarding a `didOpen`/`didChange` it records the
//! document's newest version in shared state and revokes the
//! [`CancelToken`] of any in-flight check of an older version of the
//! same document. The **main** thread pops messages in order and
//! dispatches them synchronously (checking included), so document
//! state only ever changes in protocol order.
//!
//! # The stale-version contract
//!
//! A check is published only if its document version is still the
//! newest *after* the check completes (and its token was never
//! tripped). A `didChange` that arrives mid-check therefore either
//! cancels the running check (which degrades within one budget poll
//! and is discarded) or, if the check was not yet started, causes it
//! to be skipped outright — in both cases the superseded version's
//! diagnostics are **never** published, and the newer version's check
//! follows immediately from its own queued notification.
//!
//! # A warm publish costs what changed
//!
//! Each published version's [`LineIndex`] is derived from the previous
//! published one ([`LineIndex::updated`]: the line starts before the
//! edited range are kept, the range is rescanned, the rest are offset),
//! and its diagnostics are rendered through the previous publish's
//! memo (`protocol::DiagnosticMemo`), so only new or moved diagnostics
//! are rendered again. The published params are byte-identical to
//! [`protocol::publish_diagnostics_params`] over a fresh index.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use rtr_core::budget::CancelToken;
use rtr_core::diag::LineIndex;
use rtr_core::module::ItemSummary;

use crate::json::{escape, shown, Json};
use crate::session::{Session, SourceFile};

use super::framing;
use super::protocol::{self, Incoming};

/// Counters the server reports on exit (and per check) under
/// `rtr lsp --stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct LspStats {
    /// Requests answered (initialize, hover, shutdown, …).
    pub requests: u64,
    /// Notifications processed.
    pub notifications: u64,
    /// Checks started.
    pub checks: u64,
    /// Checks abandoned because a newer document version arrived —
    /// cancelled mid-flight or skipped before starting. None of their
    /// diagnostics were published.
    pub cancelled: u64,
    /// Checks that engaged the incremental overlay path (a warm
    /// per-document item cache was spliced against the buffer).
    pub overlay_hits: u64,
    /// Total items re-judged across incremental checks.
    pub rechecked_items: u64,
    /// Total items spliced from warm caches across incremental checks.
    pub unchanged_items: u64,
    /// Of those, items spliced past changed bindings they cannot read
    /// (the dependency splice).
    pub dep_spliced_items: u64,
    /// `publishDiagnostics` notifications sent.
    pub published: u64,
}

/// One open document's overlay: the newest buffer contents the client
/// sent, which shadow whatever is on disk.
struct Doc {
    version: i64,
    text: String,
}

/// What the last *published* check of a document learned, kept for
/// hover and for the next publish. The text snapshot pins the coordinate
/// system: positions are resolved against the text that was checked,
/// not a newer buffer, through the line index built to publish it. The
/// next version's index is derived from this one
/// ([`LineIndex::updated`]), and its publish reuses the rendered
/// diagnostics of this one ([`protocol::DiagnosticMemo`]).
struct Checked {
    text: String,
    ix: LineIndex,
    results: Vec<ItemSummary>,
    memo: protocol::DiagnosticMemo,
}

/// State the reader thread shares with the dispatcher.
#[derive(Default)]
struct Shared {
    /// Newest version the reader has *seen* per uri (which may be ahead
    /// of what the dispatcher has processed).
    latest: Mutex<HashMap<String, i64>>,
    /// The in-flight check, if any: uri, version, revocation handle.
    current: Mutex<Option<(String, i64, CancelToken)>>,
}

impl Shared {
    fn latest_version(&self, uri: &str) -> Option<i64> {
        self.lock_latest().get(uri).copied()
    }

    fn lock_latest(&self) -> std::sync::MutexGuard<'_, HashMap<String, i64>> {
        self.latest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_current(&self) -> std::sync::MutexGuard<'_, Option<(String, i64, CancelToken)>> {
        self.current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Runs a language server over the given transport until the client
/// disconnects or sends `exit`. Returns the process exit code per the
/// protocol: `0` when `exit` follows a `shutdown` request, `1`
/// otherwise.
///
/// The input end moves to a reader thread (hence `Send + 'static`);
/// the output end stays on the calling thread, which dispatches every
/// message in arrival order.
pub fn run(
    input: impl BufRead + Send + 'static,
    output: impl Write,
    session: Session,
    stats: bool,
) -> i32 {
    let shared = Arc::new(Shared::default());
    let (tx, rx) = mpsc::channel::<Result<Incoming, String>>();
    let reader_shared = Arc::clone(&shared);
    let reader = std::thread::spawn(move || read_loop(input, &tx, &reader_shared));

    let mut server = Server {
        out: output,
        session,
        docs: HashMap::new(),
        checked: HashMap::new(),
        shared,
        stats: LspStats::default(),
        stats_enabled: stats,
        shutdown_requested: false,
        exited: false,
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            Ok(m) => server.dispatch(&m),
            Err(e) => server.send(&protocol::error_response(None, protocol::PARSE_ERROR, &e)),
        }
        if server.exited {
            break;
        }
    }
    drop(rx); // makes any in-flight reader send fail fast
    if !server.exited {
        // The loop ended because the reader hit EOF or a transport
        // error and closed the channel, so it has already returned.
        let _ = reader.join();
    }
    // On `exit` the reader is likely still parked in a blocking read on
    // the transport; the protocol requires exiting promptly even if the
    // client keeps the pipe open, so the thread is detached — the
    // process teardown reclaims it.
    if server.stats_enabled {
        server.report_stats();
    }
    i32::from(!server.shutdown_requested)
}

/// The reader thread: frame → parse → (version bookkeeping) → forward.
fn read_loop(
    mut input: impl BufRead,
    tx: &mpsc::Sender<Result<Incoming, String>>,
    shared: &Shared,
) {
    loop {
        match framing::read_message(&mut input) {
            Ok(Some(body)) => {
                let msg = protocol::parse_message(&body);
                if let Ok(m) = &msg {
                    note_version(m, shared);
                }
                if tx.send(msg).is_err() {
                    return; // dispatcher exited
                }
            }
            Ok(None) => return, // clean EOF: channel closes, run() returns
            Err(e) => {
                let _ = tx.send(Err(format!("transport error: {e}")));
                return;
            }
        }
    }
}

/// Records the newest version per document as messages *arrive* and
/// revokes the in-flight check the moment it is superseded — this is
/// what makes a keystroke cancel a stale check that the dispatcher is
/// still inside.
fn note_version(m: &Incoming, shared: &Shared) {
    if m.method != "textDocument/didChange" && m.method != "textDocument/didOpen" {
        return;
    }
    let Some(uri) = protocol::text_document_uri(&m.params) else {
        return;
    };
    let Some(version) = protocol::text_document_version(&m.params) else {
        return;
    };
    let mut latest = shared.lock_latest();
    let entry = latest.entry(uri.to_owned()).or_insert(version);
    if version > *entry {
        *entry = version;
    }
    drop(latest);
    if let Some((cur_uri, cur_version, token)) = shared.lock_current().as_ref() {
        if cur_uri == uri && version > *cur_version {
            token.cancel();
        }
    }
}

struct Server<W: Write> {
    out: W,
    session: Session,
    docs: HashMap<String, Doc>,
    checked: HashMap<String, Checked>,
    shared: Arc<Shared>,
    stats: LspStats,
    stats_enabled: bool,
    shutdown_requested: bool,
    exited: bool,
}

impl<W: Write> Server<W> {
    fn send(&mut self, body: &str) {
        // A dead transport surfaces as EOF on the reader side; nothing
        // useful to do with the error here.
        let _ = framing::write_message(&mut self.out, body);
    }

    fn dispatch(&mut self, m: &Incoming) {
        match (&m.id, m.method.as_str()) {
            (Some(id), "initialize") => {
                self.stats.requests += 1;
                let id = id.clone();
                self.send(&protocol::response(
                    &id,
                    "{\"capabilities\":{\"textDocumentSync\":1,\"hoverProvider\":true},\
                     \"serverInfo\":{\"name\":\"rtr\"}}",
                ));
            }
            (Some(id), "shutdown") => {
                self.stats.requests += 1;
                self.shutdown_requested = true;
                let id = id.clone();
                self.send(&protocol::response(&id, "null"));
            }
            (Some(id), "textDocument/hover") => {
                self.stats.requests += 1;
                let id = id.clone();
                let result = self.hover(&m.params);
                self.send(&protocol::response(&id, &result));
            }
            (Some(id), _) => {
                self.stats.requests += 1;
                let id = id.clone();
                self.send(&protocol::error_response(
                    Some(&id),
                    protocol::METHOD_NOT_FOUND,
                    &format!("unsupported method `{}`", m.method),
                ));
            }
            (None, "exit") => {
                self.exited = true;
            }
            (None, "textDocument/didOpen") => {
                self.stats.notifications += 1;
                let (Some(uri), Some(version), Some(text)) = (
                    protocol::text_document_uri(&m.params),
                    protocol::text_document_version(&m.params),
                    protocol::text_document_text(&m.params),
                ) else {
                    return;
                };
                let uri = uri.to_owned();
                self.docs.insert(
                    uri.clone(),
                    Doc {
                        version,
                        text: text.to_owned(),
                    },
                );
                self.check_and_publish(&uri);
            }
            (None, "textDocument/didChange") => {
                self.stats.notifications += 1;
                let (Some(uri), Some(version), Some(text)) = (
                    protocol::text_document_uri(&m.params),
                    protocol::text_document_version(&m.params),
                    protocol::last_content_change(&m.params),
                ) else {
                    return;
                };
                let uri = uri.to_owned();
                let text = text.to_owned();
                match self.docs.get_mut(&uri) {
                    Some(doc) => {
                        doc.version = version;
                        doc.text = text;
                    }
                    None => {
                        self.docs.insert(uri.clone(), Doc { version, text });
                    }
                }
                self.check_and_publish(&uri);
            }
            (None, "textDocument/didSave") => {
                self.stats.notifications += 1;
                if let Some(uri) = protocol::text_document_uri(&m.params) {
                    // Full sync keeps the overlay authoritative; a save
                    // just re-validates the current buffer.
                    self.check_and_publish(uri);
                }
            }
            (None, "textDocument/didClose") => {
                self.stats.notifications += 1;
                if let Some(uri) = protocol::text_document_uri(&m.params) {
                    let uri = uri.to_owned();
                    self.docs.remove(&uri);
                    self.checked.remove(&uri);
                    self.session.forget(&uri_to_path(&uri));
                    self.shared.lock_latest().remove(&uri);
                    // Clear the document's diagnostics client-side.
                    let params = format!("{{\"uri\":\"{}\",\"diagnostics\":[]}}", escape(&uri));
                    self.send(&protocol::notification(
                        "textDocument/publishDiagnostics",
                        &params,
                    ));
                }
            }
            (None, _) => {
                // `initialized`, `$/cancelRequest`, `setTrace`, … —
                // nothing to do, but they count as handled.
                self.stats.notifications += 1;
            }
        }
    }

    /// Checks `uri`'s overlay and publishes diagnostics — unless the
    /// version is (or becomes) superseded, in which case nothing is
    /// published and the newer version's own notification re-checks.
    fn check_and_publish(&mut self, uri: &str) {
        let Some(doc) = self.docs.get(uri) else {
            return;
        };
        let version = doc.version;
        if self.shared.latest_version(uri).is_some_and(|v| v > version) {
            // Already superseded before we even started.
            self.stats.cancelled += 1;
            return;
        }
        let token = CancelToken::new();
        *self.shared.lock_current() = Some((uri.to_owned(), version, token.clone()));
        let file = SourceFile::new(uri_to_path(uri), doc.text.clone());
        let report = self.session.check_cancellable(&file, &token);
        *self.shared.lock_current() = None;
        self.stats.checks += 1;
        let trace = report.stats.trace;
        if let Some(t) = trace {
            self.stats.rechecked_items += t.rechecked;
            self.stats.unchanged_items += t.skipped;
            self.stats.dep_spliced_items += t.dep_spliced;
            if t.skipped > 0 {
                self.stats.overlay_hits += 1;
            }
        }
        let stale =
            token.is_cancelled() || self.shared.latest_version(uri).is_some_and(|v| v > version);
        if self.stats_enabled {
            eprintln!(
                "lsp check: uri={} version={} errors={} rechecked={} unchanged={} dep_spliced={} stale={} elapsed_us={}",
                uri,
                version,
                report.stats.errors,
                trace.map_or_else(|| "-".into(), |t| t.rechecked.to_string()),
                trace.map_or_else(|| "-".into(), |t| t.skipped.to_string()),
                trace.map_or_else(|| "-".into(), |t| t.dep_spliced.to_string()),
                stale,
                report.stats.elapsed.as_micros(),
            );
        }
        if stale {
            // Never publish a superseded version's diagnostics: the
            // newer version's notification is already queued (or being
            // processed next) and will publish its own.
            self.stats.cancelled += 1;
            return;
        }
        let text = file.text;
        let (ix, mut memo) = match self.checked.remove(uri) {
            Some(prev) => (prev.ix.updated(&prev.text, &text), prev.memo),
            None => (LineIndex::new(&text), protocol::DiagnosticMemo::default()),
        };
        let params = memo.publish(uri, version, &ix, &text, &report.diagnostics);
        self.send(&protocol::notification(
            "textDocument/publishDiagnostics",
            &params,
        ));
        self.stats.published += 1;
        self.checked.insert(
            uri.to_owned(),
            Checked {
                text,
                ix,
                results: report.results,
                memo,
            },
        );
    }

    /// `textDocument/hover`: the checked type of the item enclosing the
    /// cursor, from the last published check of that document.
    fn hover(&self, params: &Json) -> String {
        let looked_up = protocol::text_document_uri(params)
            .and_then(|uri| self.checked.get(uri))
            .and_then(|checked| {
                let pos = protocol::position(params)?;
                let ix = &checked.ix;
                let loc = ix.utf16_to_loc(&checked.text, pos);
                let item = checked.results.iter().find(|item| {
                    item.span.is_some_and(|s| {
                        let at = (loc.line, loc.col);
                        (s.start.line, s.start.col) <= at && at < (s.end.line, s.end.col)
                    })
                })?;
                let ty = item.ty.as_ref()?;
                let rendered = match item.name {
                    Some(name) => format!("{name} : {}", shown(ty)),
                    None => shown(ty),
                };
                let value = format!(
                    "```rtr\n{}\n```{}",
                    rendered,
                    if item.poisoned {
                        "\n*(assumed: this definition failed to check)*"
                    } else {
                        ""
                    }
                );
                Some(format!(
                    "{{\"contents\":{{\"kind\":\"markdown\",\"value\":\"{}\"}},\"range\":{}}}",
                    escape(&value),
                    protocol::range_json(ix, &checked.text, item.span.unwrap_or_default()),
                ))
            });
        looked_up.unwrap_or_else(|| "null".to_owned())
    }

    fn report_stats(&self) {
        let s = &self.stats;
        eprintln!(
            "lsp stats: requests={} notifications={} checks={} cancelled={} overlay_hits={} rechecked_items={} unchanged_items={} dep_spliced_items={} published={}",
            s.requests,
            s.notifications,
            s.checks,
            s.cancelled,
            s.overlay_hits,
            s.rechecked_items,
            s.unchanged_items,
            s.dep_spliced_items,
            s.published,
        );
    }
}

/// The session cache key (and display path) for a document uri:
/// `file://` uris lose their scheme so they match what `rtr check`
/// would be invoked with; other uris are used verbatim. (Percent
/// escapes are left as-is — the string only needs to be *stable* per
/// document for the overlay cache to work.)
fn uri_to_path(uri: &str) -> String {
    uri.strip_prefix("file://").unwrap_or(uri).to_owned()
}
