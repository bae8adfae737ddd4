//! Per-check work counters.
//!
//! A `Trace` belongs to one check call: the module driver forks a fresh
//! one for every `check_program`, `check_module` and
//! `check_module_incremental` call, and that call's per-item budget
//! forks share it. Judgment steps, memo-table lookups, case splits and
//! the module driver's splice decisions all count into it, in every
//! build, so a release binary can say where a check's work went and
//! concurrent checks (`--jobs`, editor requests) never mix their
//! numbers. The module driver returns a [`TraceCounts`] snapshot with
//! every run; [`crate::check::Checker::trace_counts`] reads the
//! checker's resident trace, which counts the judgments called on the
//! checker directly.
//!
//! A check runs on one thread at a time (the big-stack hop hands it
//! over through a channel), so every counter has a single writer and a
//! bump is a relaxed load plus a relaxed store — never a locked
//! read-modify-write on the judgments' hot paths. (A resident trace
//! whose checker is called from several threads at once may drop
//! counts; it never corrupts a verdict.)

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One single-writer counter.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    fn new(v: u64) -> Counter {
        Counter(AtomicU64::new(v))
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    pub(crate) fn add(&self, n: u64) {
        self.0.store(self.get() + n, Relaxed);
    }

    pub(crate) fn bump(&self) {
        self.add(1);
    }

    /// Raises the counter to `v` if it is below (a high-water mark).
    pub(crate) fn raise_to(&self, v: u64) {
        if v > self.get() {
            self.0.store(v, Relaxed);
        }
    }

    /// Lowers the counter to `v` if it is above (a low-water mark).
    pub(crate) fn lower_to(&self, v: u64) {
        if v < self.get() {
            self.0.store(v, Relaxed);
        }
    }
}

/// Hits and misses of one memo table during one check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lookups {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that had to compute the verdict.
    pub misses: u64,
}

impl Lookups {
    /// All lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits as a percentage of all lookups (0 when there were none).
    pub fn hit_percent(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64 * 100.0
        }
    }
}

/// The live [`Lookups`] of one memo table.
#[derive(Debug, Default)]
pub(crate) struct LookupCounter {
    hits: Counter,
    misses: Counter,
}

impl LookupCounter {
    /// Counts one lookup; passes the lookup's answer through.
    pub(crate) fn record<V>(&self, answer: Option<V>) -> Option<V> {
        match answer {
            Some(_) => self.hits.bump(),
            None => self.misses.bump(),
        }
        answer
    }

    fn get(&self) -> Lookups {
        Lookups {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }
}

/// Declares the live [`Trace`] and its [`TraceCounts`] snapshot from one
/// field list, so the two cannot drift apart.
macro_rules! trace_fields {
    (
        counts { $($(#[doc = $cdoc:literal])* $count:ident,)* }
        lookups { $($(#[doc = $ldoc:literal])* $table:ident,)* }
    ) => {
        /// The live counters of one check (see the module docs).
        #[derive(Debug)]
        pub(crate) struct Trace {
            $(pub(crate) $count: Counter,)*
            $(pub(crate) $table: LookupCounter,)*
            /// Smallest wall-clock margin left at an item boundary, in
            /// microseconds; `u64::MAX` while no deadline was seen.
            pub(crate) min_margin_us: Counter,
        }

        impl Default for Trace {
            fn default() -> Trace {
                Trace {
                    $($count: Counter::default(),)*
                    $($table: LookupCounter::default(),)*
                    min_margin_us: Counter::new(u64::MAX),
                }
            }
        }

        /// A snapshot of one check's work counters: judgment steps,
        /// budget gauges, memo-table lookups, case splits and the module
        /// driver's splice decisions.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct TraceCounts {
            $($(#[doc = $cdoc])* pub $count: u64,)*
            $($(#[doc = $ldoc])* pub $table: Lookups,)*
            /// Smallest wall-clock margin left at an item boundary, in
            /// microseconds; `None` when no deadline was configured.
            pub deadline_margin_us: Option<u64>,
        }

        impl Trace {
            /// A snapshot of the counters so far.
            pub(crate) fn counts(&self) -> TraceCounts {
                let margin = self.min_margin_us.get();
                TraceCounts {
                    $($count: self.$count.get(),)*
                    $($table: self.$table.get(),)*
                    deadline_margin_us: (margin != u64::MAX).then_some(margin),
                }
            }
        }

        impl TraceCounts {
            /// Every memo table's lookups, named.
            pub fn tables(&self) -> Vec<(&'static str, Lookups)> {
                vec![$((stringify!($table), self.$table),)*]
            }

            /// Adds another check's counters to these, as if both
            /// checks had been one: counts and lookups add up, the
            /// depth high-water mark and the deadline margin keep the
            /// extreme.
            pub fn merge(&mut self, other: &TraceCounts) {
                let depth = self.depth_high_water.max(other.depth_high_water);
                $(self.$count += other.$count;)*
                $(
                    self.$table.hits += other.$table.hits;
                    self.$table.misses += other.$table.misses;
                )*
                self.depth_high_water = depth;
                self.deadline_margin_us = match (self.deadline_margin_us, other.deadline_margin_us) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
        }
    };
}

trace_fields! {
    counts {
        /// Steps burned by the typing judgment (`synth`).
        steps_synth,
        /// Steps burned by the proof system (`proves`).
        steps_proves,
        /// Steps burned by subtyping.
        steps_subtype,
        /// Steps burned by the `update±` metafunctions.
        steps_update,
        /// Deepest typing-judgment recursion reached.
        depth_high_water,
        /// Governance-limit trips (steps, deadline, depth, cancel, chaos).
        trips,
        /// Case splits performed (both branches of a stored disjunction).
        splits_taken,
        /// Splits whose first branch was absurd, so only the other side
        /// needed proving.
        splits_unit,
        /// Clauses the lazy scheduler deferred behind goal-relevant ones.
        splits_deferred,
        /// Module items actually re-checked.
        rechecked,
        /// Module items spliced from the cache without re-checking.
        skipped,
        /// Spliced items that mention an item re-checked earlier in the
        /// same run: dependents the early cutoff stopped from dirtying.
        cutoff_stopped,
        /// Spliced items whose incoming environment differed from the
        /// recorded one, but only in bindings the item cannot read (the
        /// dependency splice).
        dep_spliced,
        /// Module items with a usable cached record.
        fp_hits,
        /// Module items without a usable cached record.
        fp_misses,
    }
    lookups {
        /// The `Γ ⊢ τ₁ <: τ₂` memo table.
        subtype,
        /// The type-emptiness memo table.
        empty,
        /// The id-native `update±` memo table.
        update,
        /// The type-overlap memo table.
        overlap,
        /// The polymorphic-primitive instantiation memo table.
        instantiations,
        /// The linear-theory verdict table.
        lin,
        /// The bitvector-theory verdict table.
        bv,
        /// The regex-theory verdict table.
        re,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_snapshot_reads_every_kind_of_counter() {
        let t = Trace::default();
        assert_eq!(t.counts(), TraceCounts::default());
        t.steps_synth.add(3);
        t.depth_high_water.raise_to(7);
        t.depth_high_water.raise_to(2);
        t.min_margin_us.lower_to(40);
        t.min_margin_us.lower_to(90);
        assert_eq!(t.subtype.record(Some(true)), Some(true));
        assert_eq!(t.subtype.record(None::<bool>), None);
        let c = t.counts();
        assert_eq!(c.steps_synth, 3);
        assert_eq!(c.depth_high_water, 7);
        assert_eq!(c.deadline_margin_us, Some(40));
        assert_eq!(c.subtype, Lookups { hits: 1, misses: 1 });
        assert_eq!(c.tables()[0], ("subtype", c.subtype));
    }

    #[test]
    fn merging_adds_counts_and_keeps_extremes() {
        let one = Trace::default();
        one.steps_synth.add(3);
        one.depth_high_water.raise_to(7);
        one.subtype.record(Some(true));
        let two = Trace::default();
        two.steps_synth.add(4);
        two.depth_high_water.raise_to(5);
        two.min_margin_us.lower_to(40);
        two.subtype.record(None::<bool>);
        let mut c = one.counts();
        c.merge(&two.counts());
        assert_eq!(c.steps_synth, 7);
        assert_eq!(c.depth_high_water, 7);
        assert_eq!(c.deadline_margin_us, Some(40));
        assert_eq!(c.subtype, Lookups { hits: 1, misses: 1 });
    }
}
