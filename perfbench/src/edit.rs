//! `edit_loop`: one client drives the real `rtr lsp` server through a
//! seeded edit script on a ~500-item document, in a closed loop. Each
//! edit is a full-text `didChange`; the client waits for its
//! `publishDiagnostics`, then hovers a random definition.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rtr::lsp::framing::{read_message, write_message};
use rtr::lsp::protocol::{
    last_content_change, notification, parse_message, publish_diagnostics_params,
};
use rtr::session::{CheckReport, Session, SessionConfig, SourceFile};
use rtr_core::budget::CancelToken;
use rtr_core::check::Checker;
use rtr_core::diag::LineIndex;
use rtr_core::incremental::{IncrSlot, ItemCache};
use rtr_core::intern::evict_epoch;
use rtr_lang::{check_module_source_incremental, elaborate_module_items, ModuleCache};

use crate::gen::{Edit, EditKind, EditScript, Version};
use crate::layers::{sample_fresh, Counts, Layers};
use crate::lsp::{did_change, Client, Publish, URI};
use crate::util::{self, median, quantile, timed, Digest, EndToEnd, Outcome, SetupTimes};

/// Edits played before the peak resident set is read, so it reflects a
/// fixed amount of work whatever the machine's speed.
const RSS_EDITS: usize = 200;

/// Edits each replay pass of the traced run plays from the start.
const REPLAY_EDITS: usize = 120;

/// Does a publish carry exactly the version's known errors?
fn publish_ok(p: &Publish, v: &Version) -> bool {
    let mut lines: Vec<u32> = p.1.iter().map(|(l, _)| *l).collect();
    lines.sort_unstable();
    lines == v.broken_lines && p.1.iter().all(|(_, code)| code == "E0002")
}

/// Does the hover name the definition under the cursor, flagged as
/// assumed when that definition is broken?
fn hover_ok(reply: &str, edit: &Edit) -> bool {
    reply.contains(&format!("```rtr\\n{} : ", edit.hover_name))
        && reply.contains("assumed") == edit.hover_poisoned
}

/// What the live loop saw.
#[derive(Default)]
struct Live {
    /// Publish latency per edit, with the edit's kind.
    publish_us: Vec<(EditKind, f64)>,
    hover_us: Vec<f64>,
    /// Time spent playing edits (with their hovers).
    secs: f64,
    /// Document versions sent (a burst sends two).
    versions: u64,
    cancelled: u64,
    attempted: u64,
    failed: u64,
}

impl Live {
    fn publish(&self) -> Vec<f64> {
        self.publish_us.iter().map(|(_, t)| *t).collect()
    }
}

/// A running server with its document open at `version`.
struct Server {
    client: Client,
    script: EditScript,
    version: i64,
    last_published: i64,
}

/// Starts a server on the seed's document; the first publish is checked
/// into `b`.
fn open(seed: u64, b: &mut Live) -> Server {
    let script = EditScript::new(seed);
    let v0 = script.version();
    let mut client = Client::start();
    client.open(&v0.text);
    let (seen, _) = client.publishes_until(1);
    b.attempted += 1;
    b.failed += u64::from(!(seen.len() == 1 && publish_ok(&seen[0], &v0)));
    Server {
        client,
        script,
        version: 1,
        last_published: 1,
    }
}

/// Plays one scripted edit and its hover.
fn play_edit(s: &mut Server, b: &mut Live) {
    let edit = s.script.next_edit();
    let mut expected: HashMap<i64, &Version> = HashMap::new();
    if let Some(first) = &edit.first {
        s.version += 1;
        s.client.send(&did_change(s.version, &first.text));
        expected.insert(s.version, first);
        b.versions += 1;
    }
    b.versions += 1;
    s.version += 1;
    expected.insert(s.version, &edit.last);
    let body = did_change(s.version, &edit.last.text);
    let sent = Instant::now();
    s.client.send(&body);
    let (seen, at) = s.client.publishes_until(s.version);
    b.publish_us.push((edit.kind, util::us(at - sent)));
    if edit.first.is_some() && seen.len() == 1 {
        b.cancelled += 1;
    }
    for p in &seen {
        // Versions only move forward, and each publish must match the
        // known answer for the version it names.
        let ok = p.0 > s.last_published && expected.get(&p.0).is_some_and(|v| publish_ok(p, v));
        b.failed += u64::from(!ok);
        b.attempted += 1;
        s.last_published = p.0;
    }
    if seen.last().map(|p| p.0) != Some(s.version) {
        b.failed += 1;
    }
    let t = Instant::now();
    let id = s.client.hover_request(edit.hover_line, 2);
    let reply = s.client.response(id);
    b.hover_us.push(util::us(t.elapsed()));
    b.attempted += 1;
    b.failed += u64::from(!hover_ok(&reply, &edit));
}

/// Plays edits until `budget` has passed (and at least `min_edits`).
fn play(s: &mut Server, b: &mut Live, budget: Duration, min_edits: usize) {
    let start = Instant::now();
    let mut played = 0;
    while start.elapsed() < budget || played < min_edits {
        play_edit(s, b);
        played += 1;
    }
    b.secs += start.elapsed().as_secs_f64();
}

/// Set-up: generate the document, start the server, open the document
/// and wait for its first publish. The last server stays up for the
/// measurement.
fn setup(seed: u64, live: &mut Live) -> (Server, SetupTimes) {
    let (server, times) = util::repeat_setup(|| open(seed, live), |s: Server| s.client.finish());
    // The digest covers the document and the first edits of the script.
    let mut script = EditScript::new(seed);
    let mut d = Digest::new();
    d.add(&script.version().text);
    for _ in 0..REPLAY_EDITS {
        d.add(&script.next_edit().last.text);
    }
    println!("edit_loop seed inputs digest: {}", d.hex());
    (server, times)
}

pub fn measure(seed: u64, budget: Duration) -> Outcome {
    let mut live = Live::default();
    let (mut server, setup) = setup(seed, &mut live);
    let start = Instant::now();
    play(&mut server, &mut live, Duration::ZERO, RSS_EDITS);
    let rss = util::peak_rss_mb();
    play(
        &mut server,
        &mut live,
        budget.saturating_sub(start.elapsed()),
        0,
    );
    server.client.finish();
    let publish = live.publish();
    let medians: Vec<f64> = EditKind::ALL
        .iter()
        .filter_map(|k| {
            let v: Vec<f64> = live
                .publish_us
                .iter()
                .filter(|(kind, _)| kind == k)
                .map(|(_, t)| *t)
                .collect();
            (!v.is_empty()).then(|| median(&v))
        })
        .collect();
    eprintln!(
        "edit_loop: {} edits, {} bursts cancelled, publish p99 {:.0}us, hover p50 {:.0}us",
        publish.len(),
        live.cancelled,
        quantile(&publish, 0.99),
        quantile(&live.hover_us, 0.5)
    );
    EndToEnd {
        setup: &setup,
        rss_mb: rss,
        attempted: live.attempted,
        failed: live.failed,
        throughput_per_s: publish.len() as f64 / live.secs,
        request_us: &publish,
        family_medians_us: &medians,
    }
    .outcome()
}

/// The traced replay's state: its own session, its own rtr-lang cache
/// and its own core item cache, each fed the same versions.
struct Replay {
    session: Session,
    lang_checker: Checker,
    lang_cache: Option<ModuleCache>,
    core_checker: Checker,
    core_cache: Option<ItemCache>,
    core_epoch: u64,
    /// Item key → slot index in the core cache.
    core_keys: HashMap<(usize, u64), usize>,
}

fn path() -> &'static str {
    URI.strip_prefix("file://").expect("a file uri")
}

impl Replay {
    fn new(v0: &Version) -> Replay {
        let mut r = Replay {
            session: Session::new(SessionConfig {
                jobs: 1,
                ..SessionConfig::default()
            }),
            lang_checker: Checker::default(),
            lang_cache: None,
            core_checker: Checker::default(),
            core_cache: None,
            core_epoch: 0,
            core_keys: HashMap::new(),
        };
        r.session.check(&SourceFile::new(path(), v0.text.as_str()));
        r.lang_cache = check_module_source_incremental(&v0.text, &r.lang_checker, None).1;
        r.splice(v0, &mut Counts::default());
        r
    }

    /// Runs the core driver on slots built from the edit model: `Reused`
    /// for every item whose text is unchanged, `Fresh` for the rest.
    fn splice(&mut self, v: &Version, c: &mut Counts) -> Duration {
        let m = elaborate_module_items(&v.text).expect("the document reads");
        assert_eq!(m.items.len(), v.keys.len(), "one item per definition");
        let slots: Vec<IncrSlot> = v
            .keys
            .iter()
            .zip(&m.items)
            .map(|(key, item)| match self.core_keys.get(key) {
                Some(&j) => IncrSlot::Reused(j),
                None => IncrSlot::Fresh(item.clone()),
            })
            .collect();
        let epoch = evict_epoch();
        if self.core_cache.is_some() && epoch != self.core_epoch {
            c.cache_discards += 1;
        }
        let mut fetch = |i: usize| Some(m.items[i].clone());
        let (out, d) = timed(|| {
            self.core_checker
                .check_module_incremental(&slots, self.core_cache.as_ref(), &mut fetch)
        });
        let (mc, cache, stats) = out.expect("document items fit the inline stack");
        c.rechecked += u64::from(stats.rechecked);
        c.skipped += u64::from(stats.skipped);
        c.cutoff_stopped += u64::from(stats.cutoff_stopped);
        c.diags += mc.diagnostics.len() as u64;
        c.items += mc.results.len() as u64;
        self.core_cache = Some(cache);
        self.core_epoch = epoch;
        self.core_keys = v.keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
        d
    }

    /// One version through framing → protocol → session (→ rtr-lang →
    /// core splice) → publish rendering. Returns whether the session's
    /// verdict was the known answer.
    fn version(&mut self, version: i64, v: &Version, layers: &mut Layers, c: &mut Counts) -> bool {
        let body = did_change(version, &v.text);
        let (wire, frame) = timed(|| {
            let mut wire = Vec::new();
            write_message(&mut wire, &body).expect("writing to memory");
            wire
        });
        let (text, parse) = timed(|| {
            let framed = read_message(&mut &wire[..])
                .expect("a framed message")
                .expect("one frame");
            let msg = parse_message(&framed).expect("a well-formed notification");
            last_content_change(&msg.params)
                .expect("full-sync text")
                .to_owned()
        });
        let file = SourceFile::new(path(), text.as_str());
        let check_session =
            |r: &mut Replay| timed(|| r.session.check_cancellable(&file, &CancelToken::new()));
        let check_lang = |r: &mut Replay| {
            let ((_, cache, _), lang) = timed(|| {
                check_module_source_incremental(&text, &r.lang_checker, r.lang_cache.as_ref())
            });
            if cache.is_some() {
                r.lang_cache = cache;
            }
            lang
        };
        // The two calls do the same work on separate caches; alternating
        // which goes first keeps call order out of their difference.
        let ((report, session), lang) = if version % 2 == 0 {
            (check_session(self), check_lang(self))
        } else {
            let lang = check_lang(self);
            (check_session(self), lang)
        };
        let splice = self.splice(v, c);
        let (wire, publish) = timed(|| {
            let ix = LineIndex::new(&text);
            let params = publish_diagnostics_params(URI, version, &ix, &text, &report.diagnostics);
            let mut wire = Vec::new();
            write_message(
                &mut wire,
                &notification("textDocument/publishDiagnostics", &params),
            )
            .expect("writing to memory");
            wire
        });
        std::hint::black_box(wire);
        layers.frame.add(frame);
        layers.parse.add(parse);
        layers.session.add_self(session, lang);
        layers.scan.add_self(lang, splice);
        layers.splice.add(splice);
        layers.publish.add(publish);
        c.requests += 1;
        c.bytes += text.len() as u64;
        sample_fresh();
        report_ok(&report, v)
    }
}

fn report_ok(report: &CheckReport, v: &Version) -> bool {
    let mut lines: Vec<u32> = report
        .diagnostics
        .iter()
        .filter_map(|d| d.primary.map(|s| s.start.line - 1))
        .collect();
    lines.sort_unstable();
    lines == v.broken_lines
        && report
            .diagnostics
            .iter()
            .all(|d| d.code.as_str() == "E0002")
}

/// One replay pass: the first [`REPLAY_EDITS`] edits of the script from
/// a fresh document, every version in order (bursts are not cancelled).
fn replay(seed: u64, layers: &mut Layers) -> (u64, u64) {
    let mut script = EditScript::new(seed);
    let mut r = Replay::new(&script.version());
    let mut c = Counts::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut version = 1;
    for _ in 0..REPLAY_EDITS {
        let edit = script.next_edit();
        for v in edit.first.iter().chain([&edit.last]) {
            version += 1;
            attempted += 1;
            failed += u64::from(!r.version(version, v, layers, &mut c));
        }
    }
    layers.end_pass(c);
    (attempted, failed)
}

pub fn trace(seed: u64, budget: Duration) -> Outcome {
    let start = Instant::now();
    let mut live = Live::default();
    let (mut server, setup) = setup(seed, &mut live);
    let mut layers = Layers {
        inputs_items: server.script.len() as u64,
        setup_first_s: setup.first(),
        ..Layers::default()
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut replay_s = Vec::new();
    let mut run_replay = |layers: &mut Layers| {
        let ((a, f), d) = timed(|| replay(seed, layers));
        replay_s.push(d.as_secs_f64());
        attempted += a;
        failed += f;
    };
    // The first pass comes straight after set-up, so its counts depend
    // on the seed alone; then the live loop, then more passes.
    run_replay(&mut layers);
    play(&mut server, &mut live, budget / 3, RSS_EDITS);
    server.client.finish();
    while start.elapsed() < budget {
        run_replay(&mut layers);
    }
    let publish = live.publish();
    // Per version, like the replay, which checks both versions of a burst.
    let rtt_s = publish.iter().sum::<f64>() / live.versions as f64 / 1e6;
    let per_request = layers.path_secs() / layers.requests as f64;
    layers.untraced_request_s = rtt_s;
    layers.replay_request_s = median(&replay_s) / layers.first.requests as f64;
    layers.queue_us = (rtt_s - per_request) * 1e6;
    layers.cancelled = live.cancelled as f64;
    layers.rtt_p99_us = quantile(&publish, 0.99);
    layers.hover_us = live.hover_us;
    Outcome {
        attempted: attempted + live.attempted,
        failed: failed + live.failed,
        metrics: layers.emit(),
    }
}
