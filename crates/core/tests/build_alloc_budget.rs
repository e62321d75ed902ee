//! The build path's allocation budget. Allocation counts repeat exactly
//! from run to run (they depend on the input, not on the clock), so this
//! is a regression guard CI can hold: a change that brings back a copy
//! per token, a clone per template or an owned key per Skolem lookup
//! trips it at once.
//!
//! Only the test's own thread counts: the test harness's main thread
//! can still be allocating when the test starts, and the build and render
//! run on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use strudel::sites::news_site;
use strudel_workload::news;

/// The system allocator, counting calls that hand out memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// and guards nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Relaxed) - before)
}

/// Allocations per data edge of `news_site(200).build()`. At 8128d7e this
/// was 22.9 (71 644 for 3 123 edges); the copy-free path measured 4.7,
/// later 4.21 (13 146). Planner statistics from one pass over presized
/// sets, Skolem terms memoized per block and column labels interned once
/// measure 4.18 (13 069).
const BUILD_PER_DATA_EDGE: f64 = 4.6;

/// Allocations per page of `Site::render`. At 8128d7e this was 122.5
/// (25 610 for 209 pages, half of them the template's AST cloned for
/// every rendered and embedded object); sharing the nodes measured 71.3,
/// rendering with borrowed values, labels resolved once and escapes
/// written in place measured 9.4 (1 957), and dropping the per-page
/// dependency list and the worklist's seen-set measures 8.29 (1 733): the
/// page's name and HTML, and the name tables.
const RENDER_PER_PAGE: f64 = 9.1;

#[test]
fn build_and_render_stay_inside_their_allocation_budget() {
    let corpus = news::generate(&news::NewsConfig {
        articles: 200,
        ..Default::default()
    });

    let (site, build) = counted(|| news_site(&corpus.pages).build().expect("site builds"));
    let edges = site.database.graph().edge_count();
    let per_edge = build as f64 / edges as f64;
    assert!(
        per_edge <= BUILD_PER_DATA_EDGE,
        "build made {build} allocations for {edges} data edges: {per_edge:.2} per edge, \
         budget {BUILD_PER_DATA_EDGE}"
    );

    let (out, render) = counted(|| site.render().expect("site renders"));
    let pages = out.pages.len();
    let per_page = render as f64 / pages as f64;
    assert!(
        per_page <= RENDER_PER_PAGE,
        "render made {render} allocations for {pages} pages: {per_page:.2} per page, \
         budget {RENDER_PER_PAGE}"
    );

    // The counts repeat exactly: a second build of the same input is the
    // same number, which is what makes the budget a CI-grade guard.
    let (_, again) = counted(|| news_site(&corpus.pages).build().expect("site builds"));
    assert_eq!(again, build, "allocation counts must repeat exactly");
}
