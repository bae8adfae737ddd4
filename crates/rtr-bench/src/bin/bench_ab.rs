//! `bench_ab` — an interleaved A/B comparison of two `bench_json` builds.
//!
//! ```sh
//! bench_ab OLD NEW ROUNDS [-- BENCH_JSON_ARGS…]
//! # e.g. two builds of the parent and the change:
//! bench_ab old/bench_json new/bench_json 12 -- --quick --samples 5
//! ```
//!
//! Runs the two binaries `ROUNDS` times each, in rounds that alternate
//! which one goes first, so drift on a shared host (a neighbour's load, a
//! warming cache) falls on both sides alike; a fixed order once read
//! 1.23× on a row where the alternated order read 1.01×. The arguments
//! after `--` go to every `bench_json` run (`--out` is set here).
//!
//! For every row both reports share, it prints the median over rounds of
//! the round's new ÷ old `median_ns` ratio, the interquartile range of
//! those ratios, and how many rounds the new binary was faster in. A
//! ratio below 1 means the new binary is faster. The quantiles are
//! nearest-rank, as in `bench_json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use rtr::json::{parse, Json};

fn usage() -> ! {
    eprintln!("usage: bench_ab OLD NEW ROUNDS [-- BENCH_JSON_ARGS...]");
    std::process::exit(2);
}

/// One `bench_json` run: row name → `median_ns`.
fn run(bin: &Path, args: &[String], out: &Path) -> BTreeMap<String, f64> {
    let status = Command::new(bin)
        .args(args)
        .arg("--out")
        .arg(out)
        .status()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", bin.display()));
    assert!(status.success(), "{} failed: {status}", bin.display());
    let text = std::fs::read_to_string(out).expect("bench_json writes its report");
    std::fs::remove_file(out).ok();
    let doc = parse(&text).expect("the report is JSON");
    let rows = doc.get("benches").and_then(Json::as_array);
    rows.expect("the report lists its rows")
        .iter()
        .map(|r| {
            let name = r.get("name").and_then(Json::as_str).expect("a row name");
            let median = r
                .get("median_ns")
                .and_then(Json::as_f64)
                .expect("median_ns");
            (name.to_owned(), median)
        })
        .collect()
}

/// The nearest-rank `q`-quantile of sorted `xs`.
fn rank(xs: &[f64], q: f64) -> f64 {
    xs[((q * xs.len() as f64).ceil() as usize).max(1) - 1]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ours, passed) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None => (&args[..], &[][..]),
    };
    let [old, new, rounds] = ours else { usage() };
    let Ok(rounds) = rounds.parse::<usize>() else {
        usage()
    };
    if rounds == 0 {
        usage();
    }
    let bins = [PathBuf::from(old), PathBuf::from(new)];
    let out = std::env::temp_dir().join(format!("bench_ab-{}.json", std::process::id()));
    // ratios[row] = one new ÷ old ratio per round.
    let mut ratios: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for round in 0..rounds {
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut reports = [BTreeMap::new(), BTreeMap::new()];
        for side in order {
            eprintln!(
                "bench_ab: round {}/{rounds}, {}",
                round + 1,
                ["old", "new"][side]
            );
            reports[side] = run(&bins[side], passed, &out);
        }
        for (name, old_ns) in &reports[0] {
            if let Some(new_ns) = reports[1].get(name) {
                ratios
                    .entry(name.clone())
                    .or_default()
                    .push(new_ns / old_ns);
            }
        }
    }
    println!(
        "{:<40} {:>8} {:>8} {:>8} {:>8}  wins",
        "row (new / old median_ns)", "median", "q1", "q3", "iqr"
    );
    for (name, mut rs) in ratios {
        let wins = rs.iter().filter(|&&r| r < 1.0).count();
        rs.sort_by(f64::total_cmp);
        let (q1, med, q3) = (rank(&rs, 0.25), rank(&rs, 0.5), rank(&rs, 0.75));
        println!(
            "{name:<40} {med:>8.3} {q1:>8.3} {q3:>8.3} {:>8.3}  {wins}/{}",
            q3 - q1,
            rs.len()
        );
    }
}
