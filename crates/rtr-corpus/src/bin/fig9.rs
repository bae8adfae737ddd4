//! `fig9` — regenerates the paper's §5 evaluation artifacts.
//!
//! ```text
//! fig9                        # Figure 9 (the main case-study table)
//! fig9 --table stats          # corpus statistics (§5 library table)
//! fig9 --table math-breakdown # §5.1 math-library categories
//! fig9 --table memo           # memo-table hits/misses of one pass
//! fig9 --baseline             # adds the λTR baseline row
//! fig9 --seed N               # corpus seed (default 2016)
//! fig9 --jobs N               # classification worker threads
//!                             # (default: available parallelism)
//! ```

use rtr_corpus::report::{
    corpus_work, fig9_table, math_breakdown, memo_table, run_case_study_jobs, stats_table,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut table = "fig9".to_owned();
    let mut seed = 2016u64;
    let mut baseline = false;
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--table" => {
                i += 1;
                table = args.get(i).cloned().unwrap_or_else(|| "fig9".into());
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(2016);
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or(jobs);
            }
            "--baseline" => baseline = true,
            "--help" | "-h" => {
                println!(
                    "usage: fig9 [--table fig9|stats|math-breakdown|memo] [--seed N] [--baseline] [--jobs N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!("generating corpora and classifying 1085 vector operations ({jobs} worker(s))…");
    if table == "memo" {
        print!("{}", memo_table(&corpus_work(seed, jobs)));
        return;
    }
    let study = run_case_study_jobs(seed, baseline, jobs);
    match table.as_str() {
        "stats" => print!("{}", stats_table(&study)),
        "math-breakdown" => print!("{}", math_breakdown(&study)),
        _ => print!("{}", fig9_table(&study)),
    }
}
