//! The rendered-page cache is one sharded map per service: a page is
//! answerable inline as soon as it is rendered, and a dropped service
//! takes its renditions with it, whatever thread read its counters.

use std::sync::Arc;
use strudel::sites::news_site;
use strudel_schema::dynamic::Mode;
use strudel_serve::{InlineDecline, SiteService};
use strudel_struql::Parallelism;
use strudel_workload::news::{generate, NewsConfig};

fn service() -> SiteService {
    let corpus = generate(&NewsConfig {
        articles: 8,
        ..Default::default()
    });
    let site = news_site(&corpus.pages).build().unwrap();
    SiteService::new(&site, Mode::Context)
}

#[test]
fn a_rendered_page_is_answered_inline_at_once() {
    let svc = service();
    let root = svc.engine().roots(svc.root_collection()).unwrap()[0].clone();
    let url = svc.url_of(&root);
    let rendered = svc.handle(&url);
    assert_eq!(rendered.status, 200, "{url}");
    let hit = svc
        .try_warm(&url)
        .expect("the page just rendered is answered inline");
    assert_eq!(&*hit.body, rendered.body.as_str());
    let inline = svc.inline_stats();
    assert_eq!(inline.hits, 1);
    assert_eq!(inline.declined[InlineDecline::Miss as usize], 0);
}

#[test]
fn a_dropped_service_frees_its_renditions_after_a_stats_read() {
    let svc = service();
    svc.warm(Parallelism::Sequential).unwrap();
    let root = svc.engine().roots(svc.root_collection()).unwrap()[0].clone();
    let html = svc.cache().get(&root).expect("warmed").html;
    assert!(svc.cache().stats().entries > 0);
    drop(svc);
    assert_eq!(
        Arc::strong_count(&html),
        1,
        "nothing but this clone still holds the dropped cache's rendition"
    );
}
