//! The traced run's accumulator: spans recorded around each call into a
//! layer's public entry point, plus counts taken at the same calls.
//!
//! A layer's self time is its call's duration minus the duration of the
//! call it wraps, measured separately on the same input. Times are summed
//! over every replayed request and reported per request; counts come
//! from the first replay pass only, so they depend on the seed alone.

use std::time::Duration;

use crate::gen::Family;
use crate::util::{median, quantile, ratio, Metrics};

/// Seconds spent in one layer, summed over the replay.
#[derive(Default, Clone, Copy)]
pub struct Span(f64);

impl Span {
    pub fn add(&mut self, d: Duration) {
        self.0 += d.as_secs_f64();
    }

    /// Adds `outer − inner`: the self time of a call that wraps another.
    pub fn add_self(&mut self, outer: Duration, inner: Duration) {
        self.0 += outer.as_secs_f64() - inner.as_secs_f64();
    }

    pub fn secs(self) -> f64 {
        self.0
    }
}

/// Counts from one replay pass.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
pub struct Counts {
    pub forms: u64,
    pub bytes: u64,
    pub nodes: u64,
    pub items: u64,
    pub diags: u64,
    pub render_diags: u64,
    pub rechecked: u64,
    pub skipped: u64,
    pub cutoff_stopped: u64,
    pub cache_discards: u64,
    pub module_checks: u64,
    pub requests: u64,
}

#[derive(Default)]
pub struct Layers {
    pub reader: Span,
    pub elab: Span,
    pub check: Span,
    /// Check time per [`Family`], with the number of checks behind it.
    pub family: [(Span, u64); 5],
    pub render: Span,
    pub session: Span,
    pub scan: Span,
    pub splice: Span,
    pub frame: Span,
    pub parse: Span,
    pub publish: Span,
    /// Requests replayed over all passes (the per-request denominator).
    pub requests: u64,
    /// Bytes read over all passes (for the reader's throughput).
    pub bytes: u64,
    /// Items spliced over all passes (for the per-item splice cost).
    pub skipped: u64,
    pub passes: u64,
    /// Counts of the first pass.
    pub first: Counts,
    /// Per-module request times of the replay, keyed by module name.
    pub per_module: Vec<(&'static str, Vec<f64>)>,
    /// Set by the workload: live (untraced) measurements taken in the
    /// traced process, and workload-specific rows.
    pub untraced_request_s: f64,
    pub replay_request_s: f64,
    pub queue_us: f64,
    pub cancelled: f64,
    pub rtt_p99_us: f64,
    pub hover_us: Vec<f64>,
    pub corpus_serial_ms: f64,
    pub corpus_speedup: f64,
    pub corpus_site_p50_us: f64,
    pub inputs_items: u64,
    pub setup_first_s: f64,
}

fn family_index(f: Family) -> usize {
    match f {
        Family::Plain => 0,
        Family::Lin => 1,
        Family::Bv => 2,
        Family::Re => 3,
        Family::Errors => 4,
    }
}

impl Layers {
    pub fn add_check(&mut self, family: Family, d: Duration) {
        self.check.add(d);
        let slot = &mut self.family[family_index(family)];
        slot.0.add(d);
        slot.1 += 1;
    }

    /// Ends one replay pass: keeps the first pass's counts.
    pub fn end_pass(&mut self, counts: Counts) {
        if self.passes == 0 {
            self.first = counts;
        }
        self.passes += 1;
        self.requests += counts.requests;
        self.bytes += counts.bytes;
        self.skipped += counts.skipped;
    }

    pub fn record_module(&mut self, name: &'static str, d: Duration) {
        match self.per_module.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(d.as_secs_f64()),
            None => self.per_module.push((name, vec![d.as_secs_f64()])),
        }
    }

    fn module_median(&self, name: &str) -> f64 {
        self.per_module
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| median(v))
    }

    /// Seconds per request of a span.
    fn per_req_us(&self, s: Span) -> f64 {
        ratio(s.secs(), self.requests as f64) * 1e6
    }

    /// The sum of the self times on a request's path, in seconds.
    pub fn path_secs(&self) -> f64 {
        [
            self.reader,
            self.elab,
            self.check,
            self.render,
            self.session,
            self.scan,
            self.splice,
            self.frame,
            self.parse,
            self.publish,
        ]
        .iter()
        .map(|s| s.secs())
        .sum::<f64>()
    }

    pub fn emit(&self) -> Metrics {
        let mut m = Metrics::default();
        let c = &self.first;
        let f = |i: usize| {
            let (s, n) = self.family[i];
            ratio(s.secs(), n as f64) * 1e6
        };
        m.put("reader.us", self.per_req_us(self.reader), "us");
        m.put("reader.forms", c.forms as f64, "count");
        m.put(
            "reader.mb_per_s",
            ratio(self.bytes as f64 / 1e6, self.reader.secs()),
            "MB/s",
        );
        m.put("elab.us", self.per_req_us(self.elab), "us");
        m.put("elab.nodes", c.nodes as f64, "count");
        m.put("check.us", self.per_req_us(self.check), "us");
        m.put("check.plain.us", f(0), "us");
        m.put("check.lin.us", f(1), "us");
        m.put("check.bv.us", f(2), "us");
        m.put("check.re.us", f(3), "us");
        m.put("check.errors.us", f(4), "us");
        m.put("check.items", c.items as f64, "count");
        m.put("check.diags", c.diags as f64, "count");
        let scale =
            |big: &str, small: &str| ratio(self.module_median(big), self.module_median(small));
        m.put(
            "scale.filler_500_over_50",
            scale("filler_500", "filler_50"),
            "ratio",
        );
        m.put(
            "scale.many_errors_500_over_50",
            scale("many_errors_500", "many_errors_50"),
            "ratio",
        );
        m.put(
            "scale.string_32_over_8",
            scale("string_32", "string_8"),
            "ratio",
        );
        m.put("render.us", self.per_req_us(self.render), "us");
        m.put("render.diags", c.render_diags as f64, "count");
        m.put("session.us", self.per_req_us(self.session), "us");
        m.put("scan.us", self.per_req_us(self.scan), "us");
        m.put("splice.us", self.per_req_us(self.splice), "us");
        m.put(
            "splice.ns_per_skipped_item",
            ratio(self.splice.secs(), self.skipped as f64) * 1e9,
            "ns",
        );
        m.put("splice.rechecked", c.rechecked as f64, "count");
        m.put("splice.skipped", c.skipped as f64, "count");
        m.put("splice.cutoff_stopped", c.cutoff_stopped as f64, "count");
        m.put(
            "splice.reuse_ratio",
            ratio(c.skipped as f64, (c.skipped + c.rechecked) as f64),
            "ratio",
        );
        m.put("splice.cache_discards", c.cache_discards as f64, "count");
        m.put("lsp.frame_us", self.per_req_us(self.frame), "us");
        m.put("lsp.parse_us", self.per_req_us(self.parse), "us");
        m.put("lsp.publish_us", self.per_req_us(self.publish), "us");
        m.put("lsp.queue_us", self.queue_us, "us");
        m.put("lsp.cancelled", self.cancelled, "count");
        m.put("lsp.publish_rtt_us.p99", self.rtt_p99_us, "us");
        let hover = |q| {
            if self.hover_us.is_empty() {
                0.0
            } else {
                quantile(&self.hover_us, q)
            }
        };
        m.put("lsp.hover_us.p50", hover(0.5), "us");
        m.put("lsp.hover_us.p99", hover(0.99), "us");
        m.put("corpus.serial_pass_ms", self.corpus_serial_ms, "ms");
        m.put("corpus.parallel_speedup", self.corpus_speedup, "ratio");
        m.put("corpus.site_us.p50", self.corpus_site_p50_us, "us");
        m.put("corpus.module_checks", c.module_checks as f64, "count");
        let arena = rtr_core::intern::arena_stats();
        m.put(
            "intern.perm_entries",
            (arena.tys + arena.props + arena.objs) as f64,
            "count",
        );
        m.put(
            "intern.fresh_high_water",
            fresh_high_water() as f64,
            "count",
        );
        m.put(
            "intern.evictions",
            rtr_core::intern::evict_epoch() as f64,
            "count",
        );
        let per_request = ratio(self.path_secs(), self.requests as f64);
        m.put(
            "trace.coverage",
            ratio(per_request, self.untraced_request_s),
            "ratio",
        );
        m.put(
            "trace.replay_over_untraced",
            ratio(self.replay_request_s, self.untraced_request_s),
            "ratio",
        );
        m.put("trace.requests", self.requests as f64, "count");
        m.put("trace.passes", self.passes as f64, "count");
        m.put("inputs.items", self.inputs_items as f64, "count");
        m.put("setup.first_s", self.setup_first_s, "s");
        m
    }
}

static FRESH_HIGH_WATER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Samples the interner's fresh region; call after each request.
pub fn sample_fresh() {
    let a = rtr_core::intern::arena_stats();
    let fresh = a.fresh_tys + a.fresh_props + a.fresh_objs;
    FRESH_HIGH_WATER.fetch_max(fresh, std::sync::atomic::Ordering::Relaxed);
}

fn fresh_high_water() -> usize {
    FRESH_HIGH_WATER.load(std::sync::atomic::Ordering::Relaxed)
}
