//! The seeded fault-injection property suite (`--features chaos`).
//!
//! Three-valued soundness under injected faults: for any fault
//! schedule, a verdict is either identical to the fault-free run or
//! degrades to the structured `E0202` "resource limit exceeded"
//! diagnostic — it never flips between well-typed and ill-typed. An
//! injected panic is isolated to its module item as one `E0203` ICE
//! while the surrounding items keep their fault-free verdicts,
//! byte-identically serial vs parallel.

#![cfg(feature = "chaos")]

use rtr::core::budget::{ChaosConfig, CHAOS_PANIC_MSG};
use rtr::core::diag::Code;
use rtr::json::diagnostic_json;
use rtr::prelude::*;

/// A mix of well-typed and ill-typed modules exercising all three
/// theories, so injected faults have interesting verdicts to threaten.
fn module_pool() -> Vec<SourceFile> {
    let sources: &[(&str, &str)] = &[
        (
            "lin_ok.rtr",
            "(: max : [x : Int] [y : Int] -> [z : Int #:where (and (>= z x) (>= z y))])
             (define (max x y) (if (> x y) x y))
             (max 3 7)",
        ),
        (
            "lin_bad.rtr",
            "(: f : [x : Int] -> [z : Int #:where (> z x)])
             (define (f x) x)",
        ),
        (
            "guard_ok.rtr",
            "(define (at [v : (Vecof Int)] [i : Int])
               (if (and (<= 0 i) (< i (len v))) (safe-vec-ref v i) 0))",
        ),
        (
            "mixed.rtr",
            "(: g : [x : Int] -> Int)
             (define (g x) #t)
             (define (ok [y : Int]) (add1 y))
             (+ 1 nope)",
        ),
    ];
    sources
        .iter()
        .map(|(n, s)| SourceFile::new(*n, *s))
        .collect()
}

fn session_with(chaos: Option<ChaosConfig>, jobs: usize) -> Session {
    let checker = CheckerConfig {
        chaos,
        ..CheckerConfig::default()
    };
    // Cold checking: this suite compares verdicts across seeds and job
    // counts, so every check must run the full module, not a cache
    // splice from an earlier check of the same path. Each session
    // checks each file once, so no check finds a cache.
    Session::new(SessionConfig {
        checker,
        jobs,
        ..SessionConfig::default()
    })
}

/// A deterministic fingerprint of everything verdict-relevant in a
/// report (diagnostics, per-item outcomes, the module value) — stats
/// and timing excluded.
fn fingerprint(r: &CheckReport) -> String {
    let mut out = format!("file={}\n", r.file);
    for d in &r.diagnostics {
        out.push_str(&diagnostic_json(d));
        out.push('\n');
    }
    for item in &r.results {
        out.push_str(&format!(
            "item name={:?} ty={:?} poisoned={}\n",
            item.name.map(|s| s.to_string()),
            item.ty.as_ref().map(|t| t.to_string()),
            item.poisoned
        ));
    }
    out.push_str(&format!(
        "value={:?}\n",
        r.value.as_ref().map(|v| v.lift().ty.to_string())
    ));
    out
}

/// Under any seed of trip/solver/flush faults (no panics), every
/// module's verdict is the fault-free one or a pure `E0202`
/// degradation — never a flip in either direction, and never a novel
/// non-exhaustion error.
#[test]
fn injected_faults_never_flip_a_verdict() {
    let files = module_pool();
    let fault_free: Vec<CheckReport> = {
        let s = session_with(None, 1);
        files.iter().map(|f| s.check(f)).collect()
    };
    for seed in 0..48u64 {
        let chaos = ChaosConfig {
            seed,
            trip_per_mille: 20,
            panic_per_mille: 0,
            flush_per_mille: 20,
            solver_per_mille: 30,
        };
        let s = session_with(Some(chaos), 1);
        for (file, base) in files.iter().zip(&fault_free) {
            let r = s.check(file);
            let base_codes: std::collections::BTreeSet<&str> =
                base.diagnostics.iter().map(|d| d.code.as_str()).collect();
            if r.is_clean() {
                assert!(
                    base.is_clean(),
                    "seed {seed}: chaos accepted {} which is ill-typed fault-free",
                    file.name
                );
            }
            if base.is_clean() {
                for d in &r.diagnostics {
                    assert_eq!(
                        d.code,
                        Code::ResourceExhausted,
                        "seed {seed}: chaos turned well-typed {} into {} (not E0202)",
                        file.name,
                        d.code
                    );
                }
            }
            // No novel failure reasons: every chaos-run error is a
            // fault-free error or the exhaustion degradation.
            for d in &r.diagnostics {
                assert!(
                    d.code == Code::ResourceExhausted || base_codes.contains(d.code.as_str()),
                    "seed {seed}: chaos invented {} on {}",
                    d.code,
                    file.name
                );
            }
        }
    }
}

/// A module of independent definitions, so a fault in one item cannot
/// legitimately change a neighbour's verdict.
fn independent_items() -> SourceFile {
    let mut text = String::new();
    for k in 0..8 {
        text.push_str(&format!("(define (ok{k} [x : Int]) (add1 x))\n"));
    }
    SourceFile::new("independent.rtr", text)
}

/// An injected panic yields one `E0203` ICE for its item; every other
/// item keeps its fault-free verdict, byte-identically serial vs
/// `--jobs N`.
#[test]
fn injected_panics_are_isolated_per_item() {
    let file = independent_items();
    let fault_free = session_with(None, 1).check(&file);
    assert!(fault_free.is_clean());
    let n_items = fault_free.results.len();

    // Find a seed that panics some but not all items: the schedule is
    // deterministic, so the first hit is stable across runs.
    let mut exercised = false;
    for seed in 0..64u64 {
        let chaos = ChaosConfig {
            seed,
            trip_per_mille: 0,
            panic_per_mille: 250,
            flush_per_mille: 0,
            solver_per_mille: 0,
        };
        let serial = session_with(Some(chaos), 1).check(&file);
        let ices: Vec<&Diagnostic> = serial
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::InternalError)
            .collect();
        if ices.is_empty() || ices.len() == n_items {
            continue;
        }
        exercised = true;
        // Every diagnostic is an ICE carrying the injected message…
        assert_eq!(serial.diagnostics.len(), ices.len());
        for d in ices {
            assert!(
                d.message.contains(CHAOS_PANIC_MSG),
                "unexpected ICE detail: {}",
                d.message
            );
        }
        // …the panicked items are poisoned at their declared types, and
        // the untouched items report their fault-free verdicts.
        assert_eq!(serial.results.len(), n_items);
        let poisoned = serial.results.iter().filter(|r| r.poisoned).count();
        assert_eq!(poisoned, serial.diagnostics.len());
        for (chaos_item, base_item) in serial.results.iter().zip(&fault_free.results) {
            assert_eq!(chaos_item.name, base_item.name);
            if !chaos_item.poisoned {
                assert_eq!(
                    chaos_item.ty.as_ref().map(|t| t.to_string()),
                    base_item.ty.as_ref().map(|t| t.to_string()),
                    "a fault in one item changed a fault-free neighbour's type"
                );
            }
        }
        // Parallel checking replays the same schedule bit-for-bit.
        let parallel = session_with(Some(chaos), 4).check(&file);
        assert_eq!(fingerprint(&serial), fingerprint(&parallel));
    }
    assert!(
        exercised,
        "no seed in 0..64 produced a partial panic schedule; rates need retuning"
    );
}

/// Whole-batch determinism: a chaos run over many files is
/// byte-identical (in everything verdict-relevant) serial vs parallel.
#[test]
fn chaos_runs_are_deterministic_serial_vs_parallel() {
    let files = module_pool();
    let chaos = ChaosConfig {
        seed: 0xC0FFEE,
        trip_per_mille: 15,
        panic_per_mille: 15,
        flush_per_mille: 15,
        solver_per_mille: 15,
    };
    let serial: Vec<String> = session_with(Some(chaos), 1)
        .check_all(&files)
        .iter()
        .map(fingerprint)
        .collect();
    let parallel: Vec<String> = session_with(Some(chaos), 4)
        .check_all(&files)
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(serial, parallel);
}
