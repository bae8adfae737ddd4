//! The heap-allocation budget of a corpus pass.
//!
//! A sharded corpus pass is bound by the allocator, not by locks (see
//! ROADMAP item 9), so the number of allocations a module check makes
//! is a performance contract. This binary installs a counting global
//! allocator, runs three serial passes over the seed-1 corpus (a fresh
//! checker each, like a `fig9` process or a perfbench `corpus` pass)
//! and asserts that the third, warm-interner pass stays under a
//! committed budget: the count measured when the budget was set, plus
//! 10%. Debug builds allocate more than release ones (debug-only
//! assertions keep extra sets), so each profile has its own budget; CI
//! runs this test in both.
//!
//! It is the only test in its binary, so nothing else allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtr_core::check::Checker;
use rtr_corpus::classify::classify_library_jobs;
use rtr_corpus::gen::{generate, Library};
use rtr_corpus::profiles::libraries;

/// Counts every allocation (`alloc`, `alloc_zeroed`, `realloc`) and the
/// bytes it asks for, then defers to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of the third pass when the budget was set, per profile.
const LANDED_RELEASE: u64 = 251_790;
const LANDED_DEBUG: u64 = 252_828;

/// One serial corpus pass on a fresh checker: (allocations, bytes).
fn pass(libs: &[Library]) -> (u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let checker = Checker::default();
    for lib in libs {
        std::hint::black_box(classify_library_jobs(lib, &checker, 1));
    }
    drop(checker);
    (
        ALLOCS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}

#[test]
fn a_warm_corpus_pass_stays_within_its_allocation_budget() {
    let libs: Vec<Library> = libraries().iter().map(|p| generate(p, 1)).collect();
    let passes: Vec<(u64, u64)> = (0..3).map(|_| pass(&libs)).collect();
    let (allocs, bytes) = passes[2];
    let (profile, landed) = if cfg!(debug_assertions) {
        ("debug", LANDED_DEBUG)
    } else {
        ("release", LANDED_RELEASE)
    };
    eprintln!("corpus passes ({profile}), allocations / bytes: {passes:?}");
    let budget = landed + landed / 10;
    assert!(
        allocs <= budget,
        "a warm corpus pass made {allocs} allocations ({bytes} bytes); \
         the {profile} budget is {budget} ({landed} when it was set, plus 10%)"
    );
}
