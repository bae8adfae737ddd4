//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, an input digest, peak memory, and the result line.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so the inputs depend on the seed
/// and on nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0FB3_7C5E_ED00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over everything a workload generates, printed per run so two
/// runs can be shown to have measured the same traffic.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, s: &str) {
        for b in s.as_bytes().iter().chain([0xFFu8].iter()) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics. `xs` must be non-empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics of one run, in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_owned(), value, unit));
    }
}

/// What one run produced: the oracle's tally plus the metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set-up is repeated this many times per run. `setup_s` is the median:
/// only the first repeat starts from an empty interner and cold caches,
/// so the median is a warm re-set-up, steadier than the first alone,
/// which the traced run reports as `setup.first_s`.
pub const SETUP_REPEATS: usize = 9;

/// Passes (or edits) after set-up before the peak resident set is read,
/// so it reflects a fixed amount of work whatever the machine's speed.
pub const RSS_PASSES: usize = 20;

/// The set-up times of one run, in seconds, in the order taken.
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// The first, cold set-up.
    pub fn first(&self) -> f64 {
        self.0[0]
    }
}

/// Runs `once` [`SETUP_REPEATS`] times, timing each. Keeps the last
/// result and hands the earlier ones to `discard`.
pub fn repeat_setup<T>(mut once: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, SetupTimes) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let (out, d) = timed(&mut once);
        times.push(d.as_secs_f64());
        if let Some(earlier) = kept.replace(out) {
            discard(earlier);
        }
    }
    (kept.expect("at least one set-up"), SetupTimes(times))
}

/// What every workload measures with `--trace 0`.
pub struct EndToEnd<'a> {
    pub setup: &'a SetupTimes,
    pub rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub throughput_per_s: f64,
    /// Every request's time.
    pub request_us: &'a [f64],
    /// The median request time of each family (library, module or edit
    /// kind), so each family counts equally.
    pub family_medians_us: &'a [f64],
}

impl EndToEnd<'_> {
    pub fn outcome(self) -> Outcome {
        let mut m = Metrics::default();
        m.put("setup_s", self.setup.median(), "s");
        m.put("peak_rss_mb", self.rss_mb, "MB");
        m.put(
            "correct_verdict_rate",
            1.0 - self.failed as f64 / self.attempted as f64,
            "ratio",
        );
        m.put("throughput_per_s", self.throughput_per_s, "1/s");
        m.put("request_us.p50", quantile(self.request_us, 0.5), "us");
        m.put("request_us.p90", quantile(self.request_us, 0.9), "us");
        m.put("family_geomean_us", geomean(self.family_medians_us), "us");
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics: m,
        }
    }
}
