//! Unified resource governance for the checker.
//!
//! The judgments and theory solvers were always *bounded* — recursion
//! fuel, case-split budgets, Fourier–Motzkin row limits, SAT conflict
//! caps, DFA state caps — but the bounds were scattered constants with
//! inconsistent failure behaviour. This module centralizes them behind
//! one per-check [`BudgetState`]:
//!
//! * a **step counter** ([`CheckerConfig::max_steps`]) over the four
//!   recursive judgment families (`synth`, `proves`, `subtype`,
//!   `update±`),
//! * an optional **wall-clock deadline**
//!   ([`CheckerConfig::timeout_ms`]), polled from the step counter and
//!   threaded into the long-running solver loops,
//! * a **recursion-depth guard** ([`CheckerConfig::max_depth`]) on the
//!   typing judgment, so deep programs degrade to a diagnostic instead
//!   of overflowing the big-stack thread, and
//! * (with the `chaos` Cargo feature) a deterministic, seeded
//!   **fault-injection stream** used by the robustness property suite.
//!
//! # The degradation contract
//!
//! Exhaustion is *three-valued and sound*: when a limit trips, every
//! judgment degrades **conservatively** — `proves`/`subtype` answer
//! "not provable", `update±` stops narrowing, theory solvers answer
//! "unknown". A conservative answer can only ever *reject more*
//! programs, never accept more, so a verdict obtained under exhaustion
//! is either identical to the unbounded verdict or an error. The
//! checker's drivers inspect [`BudgetState::tripped`] after each item
//! and replace conservative rejections with a structured
//! "resource limit exceeded" diagnostic
//! ([`crate::diag::Code::ResourceExhausted`], `E0202`) carrying the
//! [`LimitKind`] that tripped — never a silently-weakened verdict.
//!
//! The pre-existing per-judgment bounds (logic fuel, case splits,
//! per-theory solver budgets) are part of the *decidable judgment
//! itself* — the paper's proof search is bounded by design — so at
//! default settings they keep producing ordinary conservative verdicts,
//! bit-compatible with previous releases. The governance limits above
//! all default to "off"/unreachable and only change behaviour when a
//! client opts in (`--timeout-ms`, `--max-depth`, `max_steps`).
//!
//! [`CheckerConfig::max_steps`]: crate::config::CheckerConfig::max_steps
//! [`CheckerConfig::timeout_ms`]: crate::config::CheckerConfig::timeout_ms
//! [`CheckerConfig::max_depth`]: crate::config::CheckerConfig::max_depth

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::config::CheckerConfig;
use crate::trace::Trace;

/// Which resource limit tripped (carried by `E0202` diagnostics and the
/// JSON payload's `"limit"` field).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LimitKind {
    /// The judgment step budget (`max_steps`) ran out.
    Steps,
    /// The wall-clock deadline (`timeout_ms`) passed.
    Deadline,
    /// The typing-judgment recursion depth guard (`max_depth`) tripped.
    Depth,
    /// A fault injected by the seeded chaos harness (`chaos` feature).
    #[cfg(feature = "chaos")]
    Chaos,
    /// An external client revoked the check mid-flight through a
    /// [`CancelToken`] (an editor superseded the document version).
    Cancelled,
}

impl LimitKind {
    /// The stable lowercase tag used in the JSON schema.
    pub fn as_str(self) -> &'static str {
        match self {
            LimitKind::Steps => "steps",
            LimitKind::Deadline => "deadline",
            LimitKind::Depth => "depth",
            #[cfg(feature = "chaos")]
            LimitKind::Chaos => "injected-fault",
            LimitKind::Cancelled => "cancelled",
        }
    }

    /// A human-readable description for diagnostic messages.
    pub fn describe(self) -> &'static str {
        match self {
            LimitKind::Steps => "the judgment step budget (max_steps) was exhausted",
            LimitKind::Deadline => "the wall-clock deadline (timeout_ms) passed",
            LimitKind::Depth => "the recursion depth limit (max_depth) was reached",
            #[cfg(feature = "chaos")]
            LimitKind::Chaos => "a fault was injected by the chaos harness",
            LimitKind::Cancelled => "the check was cancelled by the client",
        }
    }

    fn from_u8(v: u8) -> Option<LimitKind> {
        match v {
            1 => Some(LimitKind::Steps),
            2 => Some(LimitKind::Deadline),
            3 => Some(LimitKind::Depth),
            #[cfg(feature = "chaos")]
            4 => Some(LimitKind::Chaos),
            5 => Some(LimitKind::Cancelled),
            _ => None,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            LimitKind::Steps => 1,
            LimitKind::Deadline => 2,
            LimitKind::Depth => 3,
            #[cfg(feature = "chaos")]
            LimitKind::Chaos => 4,
            LimitKind::Cancelled => 5,
        }
    }
}

impl std::fmt::Display for LimitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// A handle for revoking an in-flight check from another thread.
///
/// Cancellation rides the same governance machinery as the wall-clock
/// deadline: the token is polled at the deadline-poll step cadence
/// (every 256 steps) and at solver-adapter boundaries, and a cancelled
/// check trips
/// [`LimitKind::Cancelled`], degrading every remaining judgment
/// conservatively — the check returns quickly with `E0202` verdicts
/// that (like all exhaustion verdicts) are never written to caches.
///
/// Tokens are one-shot: once cancelled they stay cancelled, so a fresh
/// token is minted per check (`rtr lsp` mints one per document version).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Revokes every check holding this token. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The judgment family a step is attributed to in the check's
/// `Trace` (`rtr check --stats`).
#[derive(Clone, Copy, Debug)]
pub enum Judgment {
    /// The typing judgment (`synth` / `check_result`).
    Synth,
    /// The proof system (`proves` and its case-split machinery).
    Proves,
    /// Subtyping.
    Subtype,
    /// The `update±` metafunctions.
    Update,
}

/// How many steps pass between wall-clock polls when a deadline is set.
/// `Instant::now` is tens of nanoseconds; one poll per 256 judgment
/// steps keeps the overhead invisible while bounding overshoot.
const DEADLINE_POLL_MASK: u64 = 0xff;

/// The mutable resource state of one check (or one module item).
///
/// Shared by a checker and its clones through an `Arc`; a fresh state is
/// forked per checked item so one pathological item cannot starve — or
/// mis-attribute a trip to — its neighbours. All fields are atomics:
/// checking itself is single-threaded, but the checker must stay `Sync`
/// for the big-stack worker hop. Each check fork starts a fresh
/// `Trace`, which its item forks share.
#[derive(Debug)]
pub struct BudgetState {
    max_steps: Option<u64>,
    steps: AtomicU64,
    deadline: Option<Instant>,
    max_depth: u32,
    depth: AtomicU32,
    /// First governance limit that tripped (0 = none); sticky for the
    /// rest of the item so every later judgment short-circuits
    /// conservatively.
    tripped: AtomicU8,
    /// External revocation handle, polled alongside the deadline.
    cancel: Option<CancelToken>,
    trace: Arc<Trace>,
    #[cfg(feature = "chaos")]
    chaos: Option<ChaosState>,
}

impl Default for BudgetState {
    fn default() -> BudgetState {
        BudgetState::from_config(&CheckerConfig::default(), None)
    }
}

impl BudgetState {
    /// A budget with `config`'s limits and an optional absolute
    /// deadline (already computed from `timeout_ms` by the caller, so
    /// one deadline can span a whole multi-item check).
    pub(crate) fn from_config(config: &CheckerConfig, deadline: Option<Instant>) -> BudgetState {
        BudgetState {
            max_steps: config.max_steps,
            steps: AtomicU64::new(0),
            deadline,
            max_depth: config.max_depth,
            depth: AtomicU32::new(0),
            tripped: AtomicU8::new(0),
            cancel: None,
            trace: Arc::default(),
            #[cfg(feature = "chaos")]
            chaos: config.chaos.map(|c| ChaosState::new(c, 0)),
        }
    }

    /// Forks a fresh budget for one module item: same limits and
    /// deadline, zeroed counters and trip flag, the check's `Trace`.
    /// `salt` makes the chaos stream deterministic per item (independent
    /// of thread scheduling); callers key it by the item's *name*,
    /// keeping the stream stable across edits that insert or reorder
    /// neighbouring items.
    pub(crate) fn fork_item(&self, salt: u64) -> BudgetState {
        #[cfg(not(feature = "chaos"))]
        let _ = salt;
        let b = BudgetState {
            max_steps: self.max_steps,
            steps: AtomicU64::new(0),
            deadline: self.deadline,
            max_depth: self.max_depth,
            depth: AtomicU32::new(0),
            tripped: AtomicU8::new(0),
            cancel: self.cancel.clone(),
            trace: Arc::clone(&self.trace),
            #[cfg(feature = "chaos")]
            chaos: self.chaos.as_ref().map(|c| ChaosState::new(c.config, salt)),
        };
        // An already-revoked token trips the fork at entry, so even an
        // item too small to reach the step-poll cadence degrades rather
        // than checking a superseded document version.
        if b.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            b.trip(LimitKind::Cancelled);
        }
        b
    }

    /// Forks a fresh budget for one whole check call: zeroed counters,
    /// a deadline freshly computed from `timeout_ms`, a fresh `Trace`.
    pub(crate) fn fork_check(&self, timeout_ms: Option<u64>) -> BudgetState {
        let mut b = self.fork_item(0);
        b.deadline = timeout_ms.map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        b.trace = Arc::default();
        b
    }

    /// Like [`BudgetState::fork_check`], but additionally armed with an
    /// external [`CancelToken`] (replacing any token the parent held).
    pub(crate) fn fork_check_cancellable(
        &self,
        timeout_ms: Option<u64>,
        token: CancelToken,
    ) -> BudgetState {
        let mut b = self.fork_check(timeout_ms);
        b.cancel = Some(token);
        b
    }

    /// The deadline this budget runs against, for threading into solver
    /// sessions.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The work counters of the check this budget belongs to.
    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Records a governance-limit trip. The first trip wins and is
    /// sticky; every later [`BudgetState::burn`] short-circuits.
    pub(crate) fn trip(&self, kind: LimitKind) {
        let _ =
            self.tripped
                .compare_exchange(0, kind.to_u8(), Ordering::Relaxed, Ordering::Relaxed);
        self.trace.trips.bump();
    }

    /// The first governance limit that tripped during this item, if any.
    pub fn tripped(&self) -> Option<LimitKind> {
        LimitKind::from_u8(self.tripped.load(Ordering::Relaxed))
    }

    /// Burns one judgment step. Returns the limit that is (now or
    /// already) tripped, or `None` while resources remain. Callers
    /// degrade conservatively on `Some`: boolean judgments answer
    /// "not provable", `update±` stops narrowing.
    #[inline]
    pub(crate) fn burn(&self, j: Judgment) -> Option<LimitKind> {
        if let Some(k) = self.tripped() {
            return Some(k);
        }
        let n = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        match j {
            Judgment::Synth => &self.trace.steps_synth,
            Judgment::Proves => &self.trace.steps_proves,
            Judgment::Subtype => &self.trace.steps_subtype,
            Judgment::Update => &self.trace.steps_update,
        }
        .bump();
        if let Some(max) = self.max_steps {
            if n > max {
                self.trip(LimitKind::Steps);
                return Some(LimitKind::Steps);
            }
        }
        if (self.deadline.is_some() || self.cancel.is_some())
            && n & DEADLINE_POLL_MASK == 0
            && self.poll_deadline()
        {
            return Some(self.tripped().unwrap_or(LimitKind::Deadline));
        }
        #[cfg(feature = "chaos")]
        if let Some(chaos) = &self.chaos {
            if chaos.roll(ChaosPoint::BudgetCheck) {
                self.trip(LimitKind::Chaos);
                return Some(LimitKind::Chaos);
            }
        }
        None
    }

    /// Checks the external stop conditions — the cancel token, then the
    /// wall clock against the deadline — right now (used at
    /// solver-adapter boundaries, where a single query can run long
    /// between step polls). Records and returns `true` on expiry or
    /// revocation.
    pub(crate) fn poll_deadline(&self) -> bool {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.trip(LimitKind::Cancelled);
                return true;
            }
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.trip(LimitKind::Deadline);
                true
            }
            _ => false,
        }
    }

    /// Enters one typing-judgment recursion level. Returns a guard that
    /// leaves the level on drop, or the tripped limit when the depth
    /// guard (or an earlier trip) fires.
    #[inline]
    pub(crate) fn descend(&self) -> Result<DepthGuard<'_>, LimitKind> {
        if let Some(k) = self.tripped() {
            return Err(k);
        }
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        if d > self.max_depth {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            self.trip(LimitKind::Depth);
            return Err(LimitKind::Depth);
        }
        self.trace.depth_high_water.raise_to(u64::from(d));
        Ok(DepthGuard { budget: self })
    }

    /// Records the remaining wall-clock margin at an item boundary
    /// ("how close did this check get to its deadline").
    pub(crate) fn note_margin(&self) {
        if let Some(d) = self.deadline {
            let left = d
                .checked_duration_since(Instant::now())
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0);
            self.trace.min_margin_us.lower_to(left);
        }
    }

    /// Rolls the chaos stream at an injection point; `true` = inject.
    #[cfg(feature = "chaos")]
    pub(crate) fn chaos_roll(&self, point: ChaosPoint) -> bool {
        self.chaos.as_ref().is_some_and(|c| c.roll(point))
    }
}

/// Leaves one typing-judgment recursion level on drop.
#[derive(Debug)]
pub(crate) struct DepthGuard<'a> {
    budget: &'a BudgetState,
}

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.budget.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The seeded fault-injection harness (`chaos` feature)
// ---------------------------------------------------------------------------

/// Configuration for the seeded fault-injection harness. Only present
/// with the `chaos` Cargo feature; `None` in
/// [`CheckerConfig::chaos`] means no injection even when compiled in.
///
/// Rates are per-mille probabilities evaluated against a deterministic
/// splitmix64 stream keyed by `(seed, item salt, injection point,
/// per-item counter)` — the schedule depends only on the seed and the
/// item, never on thread interleaving, so a chaos run is byte-identical
/// serial vs `--jobs N`.
///
/// [`CheckerConfig::chaos`]: crate::config::CheckerConfig::chaos
#[cfg(feature = "chaos")]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Per-mille chance, per budget check, of forcing a budget trip.
    pub trip_per_mille: u16,
    /// Per-mille chance, per module item, of an injected panic (tests
    /// the ICE isolation path).
    pub panic_per_mille: u16,
    /// Per-mille chance, per module item, of flushing the judgment memo
    /// tables (verdict-neutral by the memo soundness argument).
    pub flush_per_mille: u16,
    /// Per-mille chance, per theory-solver query, of forcing the
    /// conservative "unknown" answer.
    pub solver_per_mille: u16,
}

/// Where in the checker a chaos decision is being made.
#[cfg(feature = "chaos")]
#[derive(Clone, Copy, Debug)]
pub(crate) enum ChaosPoint {
    /// Inside [`BudgetState::burn`]: force a budget trip.
    BudgetCheck,
    /// At a module-item entry: inject a panic.
    ItemPanic,
    /// At a module-item entry: flush the judgment memo tables.
    CacheFlush,
    /// At a theory-solver adapter entry: force "unknown".
    SolverEntry,
}

#[cfg(feature = "chaos")]
impl ChaosPoint {
    fn tag(self) -> u64 {
        match self {
            ChaosPoint::BudgetCheck => 0x11,
            ChaosPoint::ItemPanic => 0x22,
            ChaosPoint::CacheFlush => 0x33,
            ChaosPoint::SolverEntry => 0x44,
        }
    }

    fn rate(self, c: &ChaosConfig) -> u16 {
        match self {
            ChaosPoint::BudgetCheck => c.trip_per_mille,
            ChaosPoint::ItemPanic => c.panic_per_mille,
            ChaosPoint::CacheFlush => c.flush_per_mille,
            ChaosPoint::SolverEntry => c.solver_per_mille,
        }
    }
}

/// The message injected panics carry, so the isolation tests (and the
/// chaos goldens) see a deterministic ICE payload.
#[cfg(feature = "chaos")]
pub const CHAOS_PANIC_MSG: &str = "chaos: injected panic";

#[cfg(feature = "chaos")]
#[derive(Debug)]
struct ChaosState {
    config: ChaosConfig,
    salt: u64,
    counter: AtomicU64,
}

#[cfg(feature = "chaos")]
impl ChaosState {
    fn new(config: ChaosConfig, salt: u64) -> ChaosState {
        ChaosState {
            config,
            salt,
            counter: AtomicU64::new(0),
        }
    }

    fn roll(&self, point: ChaosPoint) -> bool {
        let rate = point.rate(&self.config);
        if rate == 0 {
            return false;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let x = splitmix64(
            self.config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(self.salt)
                .wrapping_add(point.tag() << 56)
                .wrapping_add(n),
        );
        (x % 1000) < rate as u64
    }
}

#[cfg(feature = "chaos")]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burning_past_max_steps_trips_once_and_stays_tripped() {
        let cfg = CheckerConfig {
            max_steps: Some(10),
            ..CheckerConfig::default()
        };
        let b = BudgetState::from_config(&cfg, None);
        for _ in 0..10 {
            assert_eq!(b.burn(Judgment::Proves), None);
        }
        assert_eq!(b.burn(Judgment::Proves), Some(LimitKind::Steps));
        assert_eq!(b.tripped(), Some(LimitKind::Steps));
        // Sticky: later burns report the same limit.
        assert_eq!(b.burn(Judgment::Synth), Some(LimitKind::Steps));
    }

    #[test]
    fn depth_guard_trips_at_the_limit_and_releases_on_drop() {
        let cfg = CheckerConfig {
            max_depth: 2,
            ..CheckerConfig::default()
        };
        let b = BudgetState::from_config(&cfg, None);
        let g1 = b.descend().expect("level 1");
        let g2 = b.descend().expect("level 2");
        assert_eq!(b.descend().unwrap_err(), LimitKind::Depth);
        drop(g2);
        drop(g1);
        assert_eq!(b.tripped(), Some(LimitKind::Depth));
    }

    #[test]
    fn an_expired_deadline_trips_on_poll() {
        let b = BudgetState::from_config(&CheckerConfig::default(), Some(Instant::now()));
        assert!(b.poll_deadline());
        assert_eq!(b.tripped(), Some(LimitKind::Deadline));
    }

    #[test]
    fn item_forks_reset_the_trip_flag() {
        let cfg = CheckerConfig {
            max_steps: Some(0),
            ..CheckerConfig::default()
        };
        let b = BudgetState::from_config(&cfg, None);
        assert!(b.burn(Judgment::Proves).is_some());
        let fork = b.fork_item(1);
        assert_eq!(fork.tripped(), None);
        assert_eq!(fork.burn(Judgment::Proves), Some(LimitKind::Steps));
    }

    #[test]
    fn a_cancelled_token_trips_at_the_step_poll_cadence() {
        let token = CancelToken::new();
        let b = BudgetState::default().fork_check_cancellable(None, token.clone());
        for _ in 0..=DEADLINE_POLL_MASK {
            assert_eq!(b.burn(Judgment::Synth), None, "un-cancelled polls pass");
        }
        token.cancel();
        let mut tripped = None;
        for _ in 0..=DEADLINE_POLL_MASK {
            if let Some(k) = b.burn(Judgment::Proves) {
                tripped = Some(k);
                break;
            }
        }
        assert_eq!(tripped, Some(LimitKind::Cancelled));
        // Sticky, like every other governance trip.
        assert_eq!(b.burn(Judgment::Synth), Some(LimitKind::Cancelled));
    }

    #[test]
    fn a_cancelled_token_trips_immediately_at_solver_gates() {
        let token = CancelToken::new();
        let b = BudgetState::default().fork_check_cancellable(None, token.clone());
        assert!(!b.poll_deadline());
        token.cancel();
        assert!(b.poll_deadline());
        assert_eq!(b.tripped(), Some(LimitKind::Cancelled));
    }

    #[test]
    fn item_forks_inherit_the_cancel_token() {
        let token = CancelToken::new();
        let b = BudgetState::default().fork_check_cancellable(None, token.clone());
        let item = b.fork_item(1);
        token.cancel();
        assert!(item.poll_deadline());
        assert_eq!(item.tripped(), Some(LimitKind::Cancelled));
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_streams_are_deterministic_per_seed_and_salt() {
        let cfg = ChaosConfig {
            seed: 42,
            trip_per_mille: 500,
            ..ChaosConfig::default()
        };
        let roll = |salt: u64| {
            let s = ChaosState::new(cfg, salt);
            (0..64)
                .map(|_| s.roll(ChaosPoint::BudgetCheck))
                .collect::<Vec<_>>()
        };
        assert_eq!(roll(7), roll(7), "same seed+salt must replay");
        assert_ne!(roll(7), roll(8), "different salts must diverge");
    }
}
