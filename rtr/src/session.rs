//! The diagnostics-first session API — the embeddable check service.
//!
//! A [`Session`] owns one configured checker (with its warm memo and
//! solver caches) and checks any number of source files against it,
//! producing structured [`CheckReport`]s instead of a fail-fast
//! `Result`: every file yields *all* of its located diagnostics (the
//! recovering module checker poisons failing definitions and keeps
//! going), per-definition outcomes, and timing stats. This is the layer
//! editors, CI gates and batch library checks build on; the `rtr check`
//! CLI is a thin client over it, and [`crate::json`] renders reports
//! against the documented machine-readable schema.
//!
//! ```
//! use rtr::session::{Session, SessionConfig, SourceFile};
//!
//! let session = Session::new(SessionConfig::default());
//! let report = session.check(&SourceFile::new(
//!     "demo.rtr",
//!     "(: f : [x : Int] -> Int)\n(define (f x) #t)\n(define (g [y : Int]) #t)\n",
//! ));
//! assert_eq!(report.stats.errors, 1); // f's body; g is fine
//! let d = &report.diagnostics[0];
//! assert_eq!(d.code.as_str(), "E0002");
//! assert_eq!(d.primary.expect("located").start.line, 2);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rtr_core::budget::CancelToken;
use rtr_core::check::Checker;
use rtr_core::config::CheckerConfig;
use rtr_core::diag::{render_indexed, Diagnostic, LineIndex, Severity};
use rtr_core::module::{ItemSummary, ModuleValue};
use rtr_core::parallel::map_pulled;
use rtr_core::trace::TraceCounts;
use rtr_lang::{check_module_source_incremental, ModuleCache};

/// Retire the interner's fresh-id region once it holds this many entries
/// and no check is in flight. Fresh names never recur across modules, so
/// the region is garbage between checks; evicting it bounds arena growth
/// in a long-lived session (memo tables reconcile via the eviction epoch).
const FRESH_ARENA_BUDGET: usize = 1 << 14;

/// Configuration for a [`Session`].
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// The checker configuration (theories, budgets, ablations).
    pub checker: CheckerConfig,
    /// Worker threads for [`Session::check_all`]; `0` means one per
    /// available core. Reports are returned in input order regardless.
    pub jobs: usize,
    /// Most distinct files the session keeps incremental caches for;
    /// past the cap the least-recently-checked file's cache is dropped
    /// (it simply re-checks from scratch next time). Keeps a long-lived
    /// server's memory flat when clients wander across a large tree.
    /// `0` means unbounded.
    pub max_cached_files: usize,
}

impl SessionConfig {
    /// The default [`SessionConfig::max_cached_files`].
    pub const DEFAULT_MAX_CACHED_FILES: usize = 64;
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            checker: CheckerConfig::default(),
            jobs: 0,
            max_cached_files: SessionConfig::DEFAULT_MAX_CACHED_FILES,
        }
    }
}

/// A named source file to check.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Display name (path) used in reports and rendered diagnostics.
    pub name: String,
    /// The full source text.
    pub text: String,
}

impl SourceFile {
    /// A source file from a name and its text.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> SourceFile {
        SourceFile {
            name: name.into(),
            text: text.into(),
        }
    }

    /// Reads a source file from disk.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn read(path: impl AsRef<std::path::Path>) -> std::io::Result<SourceFile> {
        let path = path.as_ref();
        Ok(SourceFile {
            name: path.display().to_string(),
            text: std::fs::read_to_string(path)?,
        })
    }
}

/// Timing and tallies for one checked file.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckStats {
    /// Definitions processed (including poisoned ones).
    pub definitions: usize,
    /// Error-severity diagnostics.
    pub errors: usize,
    /// Warning-severity diagnostics.
    pub warnings: usize,
    /// Wall-clock time for the whole check (parse → diagnostics).
    pub elapsed: Duration,
    /// This check's own work counters: items re-checked (`rechecked`,
    /// every item on a cold check) and spliced from the file's cache
    /// (`skipped`), judgment steps, memo lookups and case splits.
    /// `None` only when the check failed outside per-item isolation.
    pub trace: Option<TraceCounts>,
}

/// Everything learned from checking one [`SourceFile`].
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The file's display name.
    pub file: String,
    /// Per-item outcomes (definitions first, then trailing
    /// expressions), including which bindings were poisoned.
    pub results: Vec<ItemSummary>,
    /// Every diagnostic, spans resolved into the surface source.
    pub diagnostics: Vec<Diagnostic>,
    /// The module's value before its exit lift, when the final trailing
    /// expression checked; [`ModuleValue::lift`] closes it.
    pub value: Option<ModuleValue>,
    /// Tallies and timing.
    pub stats: CheckStats,
}

impl CheckReport {
    /// No error-severity diagnostics (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.stats.errors == 0
    }

    /// Renders every diagnostic in the human format (snippets with
    /// caret underlines), given the file's source text.
    pub fn render_human(&self, source: &str) -> String {
        let ix = LineIndex::new(source);
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&render_indexed(d, &self.file, source, &ix));
        }
        out
    }
}

/// A checking session: one configured checker, shared caches, any
/// number of files.
///
/// Cloning a `Session` is cheap and shares the caches (the underlying
/// memo tables are keyed on content — interned ids and canonical
/// fingerprints — so sharing is sound; see `rtr_core::cache`).
#[derive(Clone, Debug)]
pub struct Session {
    checker: Checker,
    jobs: usize,
    /// Per-file incremental caches, keyed by file name. Shared across
    /// clones (like the checker's memo tables); a file's cache is taken
    /// out while it is being checked, so concurrent checks of the same
    /// name simply miss rather than conflict.
    caches: Arc<Mutex<CacheMap>>,
}

/// The per-file cache store with least-recently-checked eviction: each
/// entry remembers the logical tick of its last use, and inserts past
/// the cap evict the stalest entry.
#[derive(Debug, Default)]
struct CacheMap {
    /// `0` means unbounded.
    cap: usize,
    tick: u64,
    entries: HashMap<String, (u64, ModuleCache)>,
}

impl CacheMap {
    fn take(&mut self, name: &str) -> Option<ModuleCache> {
        self.entries.remove(name).map(|(_, c)| c)
    }

    fn insert(&mut self, name: String, cache: ModuleCache) {
        self.tick += 1;
        self.entries.insert(name, (self.tick, cache));
        if self.cap != 0 && self.entries.len() > self.cap {
            if let Some(stalest) = self
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&stalest);
            }
        }
    }
}

impl Default for Session {
    fn default() -> Session {
        Session::new(SessionConfig::default())
    }
}

impl Session {
    /// A session with the given configuration.
    pub fn new(config: SessionConfig) -> Session {
        Session {
            checker: Checker::with_config(config.checker),
            jobs: config.jobs,
            caches: Arc::new(Mutex::new(CacheMap {
                cap: config.max_cached_files,
                ..CacheMap::default()
            })),
        }
    }

    /// The session's checker.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    fn lock_caches(&self) -> std::sync::MutexGuard<'_, CacheMap> {
        // A poisoned lock only means another check panicked mid-insert;
        // the map itself is always in a consistent state.
        self.caches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of files the session currently holds incremental caches
    /// for (bounded by [`SessionConfig::max_cached_files`]).
    pub fn cached_file_count(&self) -> usize {
        self.lock_caches().entries.len()
    }

    /// Drops the incremental cache for `name` (e.g. when an editor
    /// closes the document). The next check of that file runs from
    /// scratch; harmless if no cache exists.
    pub fn forget(&self, name: &str) {
        self.lock_caches().take(name);
    }

    /// Checks one file, reporting every diagnostic. Never fails: reader
    /// and syntax errors become located diagnostics too, and an internal
    /// checker panic that escapes the per-item isolation in
    /// `check_module` is caught here as a file-level `E0203`.
    pub fn check(&self, file: &SourceFile) -> CheckReport {
        self.check_inner(file, &self.checker)
    }

    /// Like [`Session::check`], but revocable: once `token` is
    /// cancelled (from any thread), the in-flight check trips
    /// [`rtr_core::budget::LimitKind::Cancelled`] at the next budget
    /// poll and stops after the item it was checking — that item comes
    /// back as an `E0202` (`limit: "cancelled"`) verdict, and the items
    /// after it are neither elaborated nor checked, so the report covers
    /// a prefix of the file. A check cut short this way never replaces
    /// the file's cache (its account of the file is incomplete): the
    /// next check of the file splices against the cache the last
    /// complete check left. A token revoked only after the last item has
    /// been checked cancels nothing, and that check's cache is kept.
    ///
    /// This is the overlay entry point for editor servers: pass the
    /// unsaved buffer contents as [`SourceFile::text`] under the
    /// document's path and the session's per-path item cache carries
    /// between keystrokes, making each `didChange` an incremental
    /// re-check; cancel the token when a newer document version arrives
    /// and discard the stale report.
    pub fn check_cancellable(&self, file: &SourceFile, token: &CancelToken) -> CheckReport {
        let checker = self.checker.with_cancel_token(token.clone());
        self.check_inner(file, &checker)
    }

    fn check_inner(&self, file: &SourceFile, checker: &Checker) -> CheckReport {
        let start = Instant::now();
        // Take the file's cache out for the duration of the check: a
        // panic leaves it dropped (next check runs cold), concurrent
        // checks of the same name just miss.
        let old_cache = self.lock_caches().take(&file.name);
        let (report, new_cache, trace) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                check_module_source_incremental(&file.text, checker, old_cache.as_ref())
            }))
            .unwrap_or_else(|p| {
                (
                    rtr_lang::ModuleReport {
                        diagnostics: vec![Diagnostic::ice(
                            format!("the module {}", file.name),
                            rtr_core::check::panic_detail(&*p),
                        )],
                        ..rtr_lang::ModuleReport::default()
                    },
                    None,
                    None,
                )
            });
        // A run without a complete account (`new_cache` = None: the
        // cold path, or a cancelled check cut short) keeps the previous
        // cache: textual matching re-validates it against whatever the
        // file looks like next time.
        if let Some(cache) = new_cache.or(old_cache) {
            self.lock_caches().insert(file.name.clone(), cache);
        }
        // Reports hold owned trees, never interned ids, so retiring the
        // fresh interner region between checks cannot invalidate them.
        // The eviction is skipped while any other check is in flight —
        // and the item caches stored above carry the eviction epoch, so
        // a retirement here just makes the next run rebuild them.
        rtr_core::intern::maybe_evict_fresh(FRESH_ARENA_BUDGET);
        let elapsed = start.elapsed();
        let stats = CheckStats {
            definitions: report.results.iter().filter(|r| r.name.is_some()).count(),
            errors: report.error_count(),
            warnings: report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count(),
            elapsed,
            trace,
        };
        CheckReport {
            file: file.name.clone(),
            results: report.results,
            diagnostics: report.diagnostics,
            value: report.value,
            stats,
        }
    }

    /// Checks many files on [`SessionConfig::jobs`] workers that pull
    /// the next file from a shared cursor (the calling thread is one of
    /// them), so a worker that drew small files takes more. The checker
    /// is shared by reference, so workers transparently share memo and
    /// solver-cache verdicts. Reports come back in input order.
    pub fn check_all(&self, files: &[SourceFile]) -> Vec<CheckReport> {
        let jobs = match self.jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        map_pulled(files, jobs, |(), f| self.check(f)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::diag::Code;

    #[test]
    fn a_module_with_three_bad_defines_yields_three_located_diagnostics() {
        let text = "\
(: f : [x : Int] -> Int)
(define (f x) #t)
(: g : [x : Int] -> [z : Int #:where (>= z 0)])
(define (g x) x)
(define (h [v : (Vecof Int)] [i : Int]) (safe-vec-ref v i))
(define (ok [x : Int]) (add1 x))
";
        let session = Session::new(SessionConfig::default());
        let report = session.check(&SourceFile::new("three.rtr", text));
        assert_eq!(report.stats.errors, 3, "{:#?}", report.diagnostics);
        for d in &report.diagnostics {
            assert_eq!(d.code, Code::TypeMismatch);
            let span = d.primary.expect("located");
            assert!((1..=5).contains(&span.start.line));
        }
        // The lines are distinct: one per failing definition.
        let mut lines: Vec<u32> = report
            .diagnostics
            .iter()
            .map(|d| d.primary.unwrap().start.line)
            .collect();
        lines.dedup();
        assert_eq!(lines.len(), 3);
        assert_eq!(report.stats.definitions, 4);
        assert_eq!(report.results.iter().filter(|r| r.poisoned).count(), 3);
    }

    #[test]
    fn check_all_is_order_preserving_and_parallel_equals_serial() {
        let files: Vec<SourceFile> = (0..12)
            .map(|k| {
                let text = if k % 3 == 0 {
                    format!("(define (f{k} [x : Int]) (add1 x)) (f{k} #t)")
                } else {
                    format!("(define (f{k} [x : Int]) (add1 x)) (f{k} {k})")
                };
                SourceFile::new(format!("m{k}.rtr"), text)
            })
            .collect();
        let serial = Session::new(SessionConfig {
            jobs: 1,
            ..SessionConfig::default()
        });
        let parallel = Session::new(SessionConfig {
            jobs: 4,
            ..SessionConfig::default()
        });
        let a = serial.check_all(&files);
        let b = parallel.check_all(&files);
        assert_eq!(a.len(), files.len());
        for ((ra, rb), f) in a.iter().zip(&b).zip(&files) {
            assert_eq!(ra.file, f.name);
            assert_eq!(ra.is_clean(), rb.is_clean());
            assert_eq!(ra.stats.errors, rb.stats.errors);
            assert_eq!(
                ra.diagnostics.iter().map(|d| d.code).collect::<Vec<_>>(),
                rb.diagnostics.iter().map(|d| d.code).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn reader_errors_become_diagnostics() {
        let session = Session::new(SessionConfig::default());
        let report = session.check(&SourceFile::new("bad.rtr", "(define (f x"));
        assert_eq!(report.stats.errors, 1);
        assert_eq!(report.diagnostics[0].code, Code::ReadError);
        assert!(report.diagnostics[0].primary.is_some());
    }

    #[test]
    fn item_summaries_carry_surface_spans_on_both_paths() {
        let text = "(define (f [x : Int]) (add1 x))\n(f 3)\n";
        let session = Session::new(SessionConfig::default());
        // The first check runs cold, the second splices every item.
        for _ in 0..2 {
            let report = session.check(&SourceFile::new("s.rtr", text));
            let f = &report.results[0];
            let span = f.span.expect("definition span");
            assert_eq!(span.start.line, 1);
            assert_eq!(span.start.col, 1);
            assert_eq!(span.end.col, 32, "just past the closing paren");
            let trailing = &report.results[1];
            assert_eq!(trailing.span.expect("expr span").start.line, 2);
        }
    }

    #[test]
    fn the_cache_map_caps_at_max_cached_files() {
        let session = Session::new(SessionConfig {
            max_cached_files: 3,
            ..SessionConfig::default()
        });
        for k in 0..10 {
            let file = SourceFile::new(format!("m{k}.rtr"), "(define x 1)".to_string());
            session.check(&file);
        }
        assert_eq!(session.cached_file_count(), 3);
        // The surviving caches are the most recently checked ones.
        let warm = session.check(&SourceFile::new("m9.rtr", "(define x 1)".to_string()));
        let rechecked = |r: CheckReport| r.stats.trace.map(|t| t.rechecked);
        assert_eq!(rechecked(warm), Some(0), "m9 stayed cached");
        let cold = session.check(&SourceFile::new("m0.rtr", "(define x 1)".to_string()));
        assert_eq!(rechecked(cold), Some(1), "m0 was evicted and re-checks");
        session.forget("m9.rtr");
        assert!(session.cached_file_count() <= 3);
    }

    #[test]
    fn a_pre_cancelled_check_degrades_to_e0202_and_is_not_cached() {
        let session = Session::new(SessionConfig::default());
        let file = SourceFile::new(
            "c.rtr",
            "(define (f [x : Int]) (add1 x))\n(define (g [y : Int]) (f y))\n",
        );
        let token = CancelToken::new();
        token.cancel();
        let report = session.check_cancellable(&file, &token);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::ResourceExhausted),
            "{:#?}",
            report.diagnostics
        );
        // The degraded verdicts must not persist: a fresh (un-cancelled)
        // check of the same file comes back clean.
        let clean = session.check(&file);
        assert!(clean.is_clean(), "{:#?}", clean.diagnostics);
    }

    /// `n` definitions `d0…`; every third one is ill typed.
    fn mixed_module(n: usize, edited: Option<usize>) -> String {
        (0..n)
            .map(|k| {
                let body = if k % 3 == 0 {
                    "#t".to_owned()
                } else {
                    format!("(+ x {})", k + usize::from(edited == Some(k)))
                };
                format!("(: d{k} : [x : Int] -> Int)\n(define (d{k} x) {body})\n")
            })
            .collect()
    }

    fn rechecked(r: &CheckReport) -> u64 {
        r.stats.trace.expect("incremental path").rechecked
    }

    #[test]
    fn a_signature_edit_rechecks_exactly_the_helper_and_its_callers() {
        let text = |dom: &str| {
            format!(
                "(: h : [x : {dom}] -> Int)\n(define (h x) (add1 x))\n\
                 (: c1 : [y : Int] -> Int)\n(define (c1 y) (h 3))\n\
                 (: a : [y : Int] -> Int)\n(define (a y) (add1 y))\n\
                 (: c2 : [y : Int] -> Int)\n(define (c2 y) (+ (h 4) y))\n\
                 (: b : [y : Int] -> Int)\n(define (b y) (+ y 2))\n"
            )
        };
        let session = Session::new(SessionConfig::default());
        let cold = session.check(&SourceFile::new("sig.rtr", text("Int")));
        assert!(cold.is_clean(), "{:#?}", cold.diagnostics);
        let warm = session.check(&SourceFile::new(
            "sig.rtr",
            text("(Refine [n : Int] (>= n 0))"),
        ));
        assert!(warm.is_clean(), "{:#?}", warm.diagnostics);
        let t = warm.stats.trace.expect("incremental path");
        assert_eq!((t.rechecked, t.skipped, t.dep_spliced), (3, 2, 2), "{t:?}");
    }

    #[test]
    fn inserting_an_unreferenced_helper_rechecks_one_item_and_deleting_it_none() {
        let session = Session::new(SessionConfig::default());
        let base = mixed_module(6, None);
        session.check(&SourceFile::new("ins.rtr", base.as_str()));
        // The two ill-typed items splice with their diagnostics, moved
        // down by the insertion and back up by the deletion.
        let ill = 2;
        let (head, tail) = base.split_at(base.find("(: d3").expect("d3"));
        let inserted = format!("{head}(: zz : [q : Int] -> Int)\n(define (zz q) q)\n{tail}");
        let r = session.check(&SourceFile::new("ins.rtr", inserted.as_str()));
        assert_eq!(rechecked(&r), 1);
        let lines = |r: &CheckReport| -> Vec<u32> {
            r.diagnostics
                .iter()
                .map(|d| d.primary.expect("located").start.line)
                .collect()
        };
        assert_eq!(lines(&r), [2, 10]);
        let r = session.check(&SourceFile::new("ins.rtr", base.as_str()));
        assert_eq!(rechecked(&r), 0);
        assert_eq!(r.stats.errors, ill);
        assert_eq!(lines(&r), [2, 8]);
    }

    /// `head`, then forty annotated functions that do not read it.
    fn behind(head: &str) -> String {
        (0..40).fold(format!("{head}\n"), |src, k| {
            src + &format!("(: f{k} : [x : Int] -> Int)\n(define (f{k} x) (+ x {k}))\n")
        })
    }

    /// Checks `before` cold, then `after` warm; returns the warm
    /// `(rechecked, skipped, dep_spliced)`.
    fn warm_counts(before: &str, after: &str) -> (u64, u64, u64) {
        let session = Session::new(SessionConfig::default());
        assert!(session.check(&SourceFile::new("w.rtr", before)).is_clean());
        let r = session.check(&SourceFile::new("w.rtr", after));
        assert!(r.is_clean(), "{:#?}", r.diagnostics);
        let t = r.stats.trace.expect("incremental path");
        (t.rechecked, t.skipped, t.dep_spliced)
    }

    #[test]
    fn editing_an_unread_value_define_rechecks_it_alone() {
        let counts = warm_counts(&behind("(define k 5)"), &behind("(define k 6)"));
        assert_eq!(counts, (1, 40, 40));
    }

    #[test]
    fn editing_an_unannotated_function_body_rechecks_it_alone() {
        let counts = warm_counts(
            &behind("(define (g [x : Int]) (+ x 1))"),
            &behind("(define (g [x : Int]) (+ x 2))"),
        );
        assert_eq!(counts, (1, 40, 40));
    }

    #[test]
    fn editing_a_refined_value_define_rechecks_everything_after_it() {
        // The refinement is stored as a linear fact about `k`, a fact
        // keyed by no name: the ledger cannot describe the change.
        let refined = |c: i64| behind(&format!("(define k : (Refine [n : Int] (<= 0 n)) {c})"));
        assert_eq!(warm_counts(&refined(5), &refined(6)), (41, 0, 0));
    }

    #[test]
    fn a_redefinition_rewrites_the_entries_that_mention_the_name_it_shadows() {
        // The second `k` unbinds the first and rewrites `w`'s signature
        // where it names `k`: once `k` is redefined, `(w 8)` checks. Edits
        // that change the first `k`'s entry, or make `w`'s signature start
        // naming `k`, must reach the redefinition and its readers exactly
        // as a cold check does.
        let text = |k: i64, bound: &str, arg: i64| {
            format!(
                "(define k {k})\n\
                 (: w : [y : (Refine [n : Int] (< n {bound}))] -> Int)\n(define (w y) y)\n\
                 (define k 7)\n(w {arg})\n(ann k (Refine [n : Int] (= n 7)))\n"
            )
        };
        let session = Session::new(SessionConfig::default());
        let steps = [
            text(5, "k", 6),
            text(8, "k", 6),
            text(8, "9", 8),
            text(8, "k", 8),
        ];
        for src in steps {
            let file = SourceFile::new("redef.rtr", src.as_str());
            let warm = session.check(&file);
            let cold = Session::new(SessionConfig::default()).check(&file);
            assert!(cold.is_clean(), "{src}\n{:#?}", cold.diagnostics);
            assert_eq!(
                warm.render_human(&src),
                cold.render_human(&src),
                "warm and cold disagree on:\n{src}"
            );
        }
    }

    #[test]
    fn after_a_cancelled_check_an_edit_rechecks_only_itself() {
        let session = Session::new(SessionConfig::default());
        let n = 12;
        session.check(&SourceFile::new("burst.rtr", mixed_module(n, None)));
        let edited = SourceFile::new("burst.rtr", mixed_module(n, Some(7)));
        let token = CancelToken::new();
        token.cancel();
        session.check_cancellable(&edited, &token);
        let r = session.check(&edited);
        assert_eq!(rechecked(&r), 1, "{:?}", r.stats.trace);
        assert_eq!(r.stats.errors, n.div_ceil(3));
    }

    #[test]
    fn a_pre_cancelled_check_checks_at_most_one_item() {
        let session = Session::new(SessionConfig::default());
        let file = SourceFile::new("pre.rtr", mixed_module(9, None));
        let token = CancelToken::new();
        token.cancel();
        let r = session.check_cancellable(&file, &token);
        assert_eq!(rechecked(&r), 1, "{:?}", r.stats.trace);
        assert_eq!(r.results.len(), 1);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == Code::ResourceExhausted));
    }
}
