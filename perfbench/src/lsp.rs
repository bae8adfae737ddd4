//! An in-process LSP client: the real `rtr::lsp::server::run` on one end
//! of a Unix socket pair, this client on the other.

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::Instant;

use rtr::json::{escape, parse, Json};
use rtr::lsp::framing::{read_message, write_message};
use rtr::session::{Session, SessionConfig};

pub const URI: &str = "file:///bench/composite.rtr";

/// A publish: the document version and its `(0-based line, code)` list.
pub type Publish = (i64, Vec<(u32, String)>);

pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    server: Option<JoinHandle<i32>>,
    next_id: u64,
}

/// A `didChange` notification carrying the whole buffer.
pub fn did_change(version: i64, text: &str) -> String {
    format!(
        "{{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didChange\",\"params\":{{\"textDocument\":{{\"uri\":\"{URI}\",\"version\":{version}}},\"contentChanges\":[{{\"text\":\"{}\"}}]}}}}",
        escape(text)
    )
}

/// The diagnostics of a `publishDiagnostics` notification, as
/// `(version, [(0-based line, code)])`; `None` for any other message.
pub fn published(msg: &Json) -> Option<Publish> {
    if msg.get("method")?.as_str()? != "textDocument/publishDiagnostics" {
        return None;
    }
    let params = msg.get("params")?;
    let version = params.get("version")?.as_f64()? as i64;
    let diags = params
        .get("diagnostics")?
        .as_array()?
        .iter()
        .map(|d| {
            let line = d.get("range")?.get("start")?.get("line")?.as_f64()? as u32;
            Some((line, d.get("code")?.as_str()?.to_owned()))
        })
        .collect::<Option<Vec<_>>>()?;
    Some((version, diags))
}

impl Client {
    /// Starts a server with the configuration `rtr lsp` uses by default
    /// and completes the `initialize` handshake.
    pub fn start() -> Client {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        let their_reader = theirs.try_clone().expect("socket clone");
        let session = Session::new(SessionConfig {
            jobs: 1,
            ..SessionConfig::default()
        });
        let server = std::thread::spawn(move || {
            rtr::lsp::server::run(BufReader::new(their_reader), theirs, session, false)
        });
        let mut client = Client {
            reader: BufReader::new(ours.try_clone().expect("socket clone")),
            writer: ours,
            server: Some(server),
            next_id: 0,
        };
        let reply = client.request("initialize", "{}");
        assert!(reply.contains("hoverProvider"), "initialize reply: {reply}");
        client.send("{\"jsonrpc\":\"2.0\",\"method\":\"initialized\",\"params\":{}}");
        client
    }

    pub fn send(&mut self, body: &str) {
        write_message(&mut self.writer, body).expect("the server reads its socket");
    }

    /// The next message from the server.
    pub fn recv(&mut self) -> String {
        read_message(&mut self.reader)
            .expect("a well-framed message")
            .expect("the server is still running")
    }

    /// Sends a request and returns its response, skipping notifications.
    pub fn request(&mut self, method: &str, params: &str) -> String {
        self.next_id += 1;
        let id = self.next_id;
        self.send(&format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"{method}\",\"params\":{params}}}"
        ));
        self.response(id)
    }

    pub fn hover_request(&mut self, line: u32, character: u32) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.send(&format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"textDocument/hover\",\"params\":{{\"textDocument\":{{\"uri\":\"{URI}\"}},\"position\":{{\"line\":{line},\"character\":{character}}}}}}}"
        ));
        id
    }

    /// Reads until the response to request `id`.
    pub fn response(&mut self, id: u64) -> String {
        let tag = format!("\"id\":{id},");
        loop {
            let msg = self.recv();
            if msg.contains(&tag) {
                return msg;
            }
        }
    }

    pub fn open(&mut self, text: &str) {
        self.send(&format!(
            "{{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didOpen\",\"params\":{{\"textDocument\":{{\"uri\":\"{URI}\",\"languageId\":\"rtr\",\"version\":1,\"text\":\"{}\"}}}}}}",
            escape(text)
        ));
    }

    /// Reads messages until a publish of `version` (or newer) arrives.
    /// Returns every publish seen on the way, parsed, and the instant
    /// the last one was read.
    pub fn publishes_until(&mut self, version: i64) -> (Vec<Publish>, Instant) {
        let mut seen = Vec::new();
        loop {
            let msg = self.recv();
            let at = Instant::now();
            let Some(p) = parse(&msg).ok().as_ref().and_then(published) else {
                continue;
            };
            let done = p.0 >= version;
            seen.push(p);
            if done {
                return (seen, at);
            }
        }
    }

    /// `shutdown`, then end of input: the server's reader thread sees
    /// EOF, `run` joins it and returns, and the server thread is joined.
    pub fn finish(mut self) {
        self.request("shutdown", "null");
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
        let server = self.server.take().expect("started");
        let code = server.join().expect("the server thread does not panic");
        assert_eq!(code, 0, "shutdown was requested before EOF");
    }
}
