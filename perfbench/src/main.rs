//! `perfbench` — the rtr benchmark.
//!
//! ```text
//! perfbench --workload corpus|cold_modules|edit_loop --seed N --seconds S --trace 0|1
//! perfbench --smoke [--seed N]
//! ```
//!
//! One process, one workload. With `--trace 0` it measures the
//! end-to-end metrics with no timers inside the layers; with `--trace 1`
//! it replays the same inputs through each layer's public entry point in
//! sequence and reports per-layer self times and counts. Either way the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Every verdict is compared against a known answer that does not come
//! from the checker; `failed` counts the verdicts that differ or never
//! arrived.
//!
//! `--smoke` runs every workload for one second in child processes,
//! untraced once and traced twice, and checks that every metric is
//! emitted with its unit, that no verdict is wrong, and that the
//! timing-independent counts repeat exactly for the seed. It exits 1 on
//! any problem.

mod cold;
mod corpus;
mod edit;
mod gen;
mod layers;
mod lsp;
mod util;

use std::time::Duration;

use util::Outcome;

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_verdict_rate", "ratio"),
    ("throughput_per_s", "1/s"),
    ("request_us.p50", "us"),
    ("request_us.p90", "us"),
    ("family_geomean_us", "us"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1` (zero
/// where the workload does not run the layer).
pub const PER_LAYER: [(&str, &str); 48] = [
    ("reader.us", "us"),
    ("reader.forms", "count"),
    ("reader.mb_per_s", "MB/s"),
    ("elab.us", "us"),
    ("elab.nodes", "count"),
    ("check.us", "us"),
    ("check.plain.us", "us"),
    ("check.lin.us", "us"),
    ("check.bv.us", "us"),
    ("check.re.us", "us"),
    ("check.errors.us", "us"),
    ("check.items", "count"),
    ("check.diags", "count"),
    ("scale.filler_500_over_50", "ratio"),
    ("scale.many_errors_500_over_50", "ratio"),
    ("scale.string_32_over_8", "ratio"),
    ("render.us", "us"),
    ("render.diags", "count"),
    ("session.us", "us"),
    ("scan.us", "us"),
    ("splice.us", "us"),
    ("splice.ns_per_skipped_item", "ns"),
    ("splice.rechecked", "count"),
    ("splice.skipped", "count"),
    ("splice.cutoff_stopped", "count"),
    ("splice.reuse_ratio", "ratio"),
    ("splice.cache_discards", "count"),
    ("lsp.frame_us", "us"),
    ("lsp.parse_us", "us"),
    ("lsp.publish_us", "us"),
    ("lsp.queue_us", "us"),
    ("lsp.cancelled", "count"),
    ("lsp.publish_rtt_us.p99", "us"),
    ("lsp.hover_us.p50", "us"),
    ("lsp.hover_us.p99", "us"),
    ("corpus.serial_pass_ms", "ms"),
    ("corpus.parallel_speedup", "ratio"),
    ("corpus.site_us.p50", "us"),
    ("corpus.module_checks", "count"),
    ("intern.perm_entries", "count"),
    ("intern.fresh_high_water", "count"),
    ("intern.evictions", "count"),
    ("trace.coverage", "ratio"),
    ("trace.replay_over_untraced", "ratio"),
    ("trace.requests", "count"),
    ("trace.passes", "count"),
    ("inputs.items", "count"),
    ("setup.first_s", "s"),
];

/// Counts that depend only on the seed, never on timing.
const TIMING_INDEPENDENT: [&str; 7] = [
    "reader.forms",
    "elab.nodes",
    "check.items",
    "check.diags",
    "splice.rechecked",
    "corpus.module_checks",
    "inputs.items",
];

const WORKLOADS: [&str; 3] = ["corpus", "cold_modules", "edit_loop"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload corpus|cold_modules|edit_loop --seed N --seconds S --trace 0|1\n       perfbench --smoke [--seed N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 2016,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => a.smoke = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    a
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let budget = Duration::from_secs_f64(seconds);
    match (workload, trace) {
        ("corpus", false) => corpus::measure(seed, budget),
        ("corpus", true) => corpus::trace(seed, budget),
        ("cold_modules", false) => cold::measure(seed, budget),
        ("cold_modules", true) => cold::trace(seed, budget),
        ("edit_loop", false) => edit::measure(seed, budget),
        ("edit_loop", true) => edit::trace(seed, budget),
        (other, _) => usage(&format!("unknown workload {other}")),
    }
}

/// Runs one workload in a child process (so each run starts from a
/// fresh process, as it does when measured) and returns its result line.
fn child(workload: &str, seed: u64, trace: bool) -> rtr::json::Json {
    let exe = std::env::current_exe().expect("the running executable's path");
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("the child run starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    rtr::json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: unparseable result line ({e}): {last}"))
}

/// The problems with one result line: names or units that differ from
/// `names`, and any wrong verdict.
fn check_shape(label: &str, result: &rtr::json::Json, names: &[(&str, &str)]) -> Vec<String> {
    let mut problems = Vec::new();
    let metrics = result.get("metrics");
    for (name, unit) in names {
        let got = metrics.and_then(|m| m.get(name)?.get("unit")?.as_str());
        if got != Some(*unit) {
            problems.push(format!(
                "{label}: {name} missing or not in {unit} (got {got:?})"
            ));
        }
    }
    let num = |k: &str| result.get(k).and_then(rtr::json::Json::as_f64);
    if num("failed") != Some(0.0) || num("attempted").unwrap_or(0.0) < 1.0 {
        problems.push(format!(
            "{label}: {:?} of {:?} verdicts wrong",
            num("failed"),
            num("attempted")
        ));
    }
    problems
}

fn smoke(seed: u64) -> Outcome {
    let mut problems = Vec::new();
    let mut attempted = 0;
    let value = |r: &rtr::json::Json, name: &str| {
        r.get("metrics")
            .and_then(|m| m.get(name)?.get("value")?.as_f64())
    };
    // The benchmark's manifest, when run from the repository root, must
    // list the same metrics with the same units as this binary emits.
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let manifest = rtr::json::parse(&text).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
        for (key, names) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = manifest
                .get(key)
                .and_then(rtr::json::Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_owned(),
                        m.get("unit")?.as_str()?.to_owned(),
                    ))
                })
                .collect();
            let emitted: Vec<(String, String)> = names
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            if listed != emitted {
                problems.push(format!(
                    "BENCHMARK.json {key} differs from the emitted metrics"
                ));
            }
        }
    }
    for w in WORKLOADS {
        let plain = child(w, seed, false);
        problems.extend(check_shape(&format!("{w} --trace 0"), &plain, &END_TO_END));
        if value(&plain, "correct_verdict_rate") != Some(1.0) {
            problems.push(format!("{w}: wrong_verdict_rate is not 0"));
        }
        let a = child(w, seed, true);
        let b = child(w, seed, true);
        problems.extend(check_shape(&format!("{w} --trace 1"), &a, &PER_LAYER));
        for name in TIMING_INDEPENDENT {
            if value(&a, name) != value(&b, name) {
                problems.push(format!(
                    "{w}: {name} differs between runs of seed {seed}: {:?} vs {:?}",
                    value(&a, name),
                    value(&b, name)
                ));
            }
        }
        attempted += 3;
        eprintln!("smoke: {w} checked");
    }
    for p in &problems {
        eprintln!("smoke: {p}");
    }
    let mut metrics = util::Metrics::default();
    metrics.put("smoke.problems", problems.len() as f64, "count");
    Outcome {
        attempted,
        failed: problems.len() as u64,
        metrics,
    }
}

fn main() {
    let args = parse_args();
    let out = if args.smoke {
        smoke(args.seed)
    } else {
        let Some(w) = args.workload.as_deref() else {
            usage("--workload is required")
        };
        run(w, args.seed, args.seconds, args.trace)
    };
    println!("{}", out.json());
    if args.smoke && out.failed != 0 {
        std::process::exit(1);
    }
}
