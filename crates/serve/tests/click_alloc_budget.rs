//! The cold click path's allocation budget. Allocation counts repeat
//! exactly from run to run (they depend on the input, not on the
//! clock), so this is a regression guard CI can hold: a change that
//! brings back a string per row, a name lookup per guard run or a copy
//! of the page's views per click trips it at once.
//!
//! One test, so nothing else in this process allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use strudel::sites::news_site;
use strudel::Site;
use strudel_schema::dynamic::{DynamicSite, Mode, PageKey};
use strudel_serve::SiteService;
use strudel_workload::news;

/// The system allocator, counting calls that hand out memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// and guards nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Relaxed) - before)
}

/// Allocations per page of a children-first crawl of `news_site(200)`
/// through `SiteService::handle` on a fresh service: guard evaluation,
/// the render, the HTML cache insert and the response. At b4a86ed this
/// was 421.5. Guards run on resolved ids and rows projected in place,
/// with a renderer that reads the page views themselves (no render graph,
/// no copy of a child's attributes), measure 152.4.
const CRAWL_PER_PAGE: f64 = 152.4;

/// Allocations per cold `DynamicSite::visit` of an article page. At
/// b4a86ed this was 212.1; the same changes, and a seeded guard's row
/// extended in place when a step has one candidate, measure 87.8: mostly
/// the bindings rows themselves and one label string per link of the
/// served view.
const VISIT_PER_ARTICLE: f64 = 96.6;

/// Every page reachable from the roots, breadth first (parents first).
fn crawl_order(site: &Site) -> Vec<PageKey> {
    let scout = SiteService::new(site, Mode::Context);
    let mut order = scout
        .engine()
        .roots(scout.root_collection())
        .expect("roots evaluate");
    let mut seen: HashSet<PageKey> = order.iter().cloned().collect();
    let mut at = 0;
    while at < order.len() {
        let page = scout.render_into_cache(&order[at]).expect("page renders");
        for dep in page.deps.iter() {
            if seen.insert(dep.clone()) {
                order.push(dep.clone());
            }
        }
        at += 1;
    }
    order
}

#[test]
fn a_cold_click_stays_inside_its_allocation_budget() {
    let corpus = news::generate(&news::NewsConfig {
        articles: 200,
        ..Default::default()
    });
    let site = news_site(&corpus.pages).build().expect("site builds");
    let keys = crawl_order(&site);
    assert_eq!(keys.len(), 209, "front, 8 sections, 200 articles");

    let service = SiteService::new(&site, Mode::Context);
    let urls: Vec<String> = keys.iter().rev().map(|k| service.url_of(k)).collect();
    let (statuses, crawl) = counted(|| {
        urls.iter()
            .map(|url| service.handle(url).status)
            .collect::<Vec<u16>>()
    });
    assert!(statuses.iter().all(|&s| s == 200), "every page answers 200");
    let per_page = crawl as f64 / urls.len() as f64;
    assert!(
        per_page <= CRAWL_PER_PAGE,
        "a cold crawl made {crawl} allocations for {} pages: {per_page:.1} per page, \
         budget {CRAWL_PER_PAGE}",
        urls.len()
    );

    let articles: Vec<&PageKey> = keys.iter().filter(|k| k.symbol == "ArticlePage").collect();
    let engine = DynamicSite::new(site.database.clone(), &site.program, Mode::Context);
    let visit = |engine: &DynamicSite| {
        counted(|| {
            for key in &articles {
                engine.visit(key).expect("article visits");
            }
        })
        .1
    };
    let visits = visit(&engine);
    let per_article = visits as f64 / articles.len() as f64;
    assert!(
        per_article <= VISIT_PER_ARTICLE,
        "cold article visits made {visits} allocations for {} articles: {per_article:.1} \
         per visit, budget {VISIT_PER_ARTICLE}",
        articles.len()
    );

    // The counts repeat exactly on a fresh engine, which is what makes
    // the budget a CI-grade guard.
    let fresh = DynamicSite::new(site.database.clone(), &site.program, Mode::Context);
    assert_eq!(
        visit(&fresh),
        visits,
        "allocation counts must repeat exactly"
    );
}
