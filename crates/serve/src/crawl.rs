//! The served site as a crawl: every URL reachable from `/` by following
//! intra-site links, breadth first, on the calling thread.
//!
//! This is the one product definition of "the served site". Both fronts
//! warm up through it — [`crate::SiteService::warm`] renders each
//! `/page/` URL into its HTML cache, the router primes its last-known-good
//! copies through the workers — and tests and experiments enumerate a
//! site with it. Only what a link names is visited: an object a page
//! `EMBED`s but nothing links (paper §2.4) is not a page of the site,
//! just as the static build writes no file for it.

use std::collections::HashSet;

/// What [`crawl`] walked.
#[derive(Clone, Debug, Default)]
pub struct Crawl {
    /// Every URL the fetch answered with a body, in breadth-first
    /// discovery order, `/` first.
    pub urls: Vec<String>,
    /// Breadth-first levels from `/` (level 1) that answered a body.
    pub levels: usize,
}

/// Walks the site breadth first from `/`. `fetch` answers one URL with
/// the body whose links to follow, or `None` for a URL that is not a
/// page (a 404, a failed fetch); its first error ends the walk. Each URL
/// is fetched once; a link is followed if it is intra-site (`href="/…"`)
/// and not a reserved endpoint (`/metrics`, health, debug), with its
/// fragment cut. Nothing runs on another thread.
pub fn crawl<B, E>(mut fetch: impl FnMut(&str) -> Result<Option<B>, E>) -> Result<Crawl, E>
where
    B: AsRef<str>,
{
    let mut seen: HashSet<String> = HashSet::from(["/".to_owned()]);
    let mut frontier = vec!["/".to_owned()];
    let mut site = Crawl::default();
    while !frontier.is_empty() {
        let answered = site.urls.len();
        let mut next = Vec::new();
        for url in frontier {
            let Some(body) = fetch(&url)? else { continue };
            for href in extract_hrefs(body.as_ref()) {
                if !seen.contains(href) {
                    seen.insert(href.to_owned());
                    next.push(href.to_owned());
                }
            }
            site.urls.push(url);
        }
        if site.urls.len() > answered {
            site.levels += 1;
        }
        frontier = next;
    }
    Ok(site)
}

/// Every URL of the site `handle` serves: [`crawl`] following the answers
/// that are `200`.
pub fn site_urls(mut handle: impl FnMut(&str) -> crate::Response) -> Vec<String> {
    let site = crawl(|url| {
        let response = handle(url);
        Ok::<_, std::convert::Infallible>((response.status == 200).then_some(response.body))
    });
    site.unwrap_or_else(|never| match never {}).urls
}

/// Whether `path` is a reserved endpoint (`/metrics`, health, debug)
/// rather than a page: never crawled, never worth a last-known-good copy.
pub(crate) fn is_reserved(path: &str) -> bool {
    const RESERVED: [&str; 4] = ["/metrics", "/healthz", "/readyz", "/debug"];
    RESERVED.iter().any(|r| path.starts_with(r))
}

/// Intra-site links (`href="/..."`) in a rendered page body, fragments
/// cut and reserved endpoints left out.
fn extract_hrefs(body: &str) -> impl Iterator<Item = &str> {
    body.split("href=\"").skip(1).filter_map(|part| {
        let href = &part[..part.find('"')?];
        let href = href.split('#').next().unwrap_or(href);
        (href.starts_with('/') && !is_reserved(href)).then_some(href)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hrefs_are_extracted_intra_site_only() {
        let body = r##"<a href="/page/A">a</a> <a href="http://x/">x</a>
                       <a href="/data/n1#frag">n</a> <a href="/metrics">m</a>"##;
        let hrefs: Vec<&str> = extract_hrefs(body).collect();
        assert_eq!(hrefs, ["/page/A", "/data/n1"]);
    }

    #[test]
    fn the_crawl_is_breadth_first_and_fetches_each_url_once() {
        let site = |url: &str| -> Option<&'static str> {
            match url {
                "/" => Some(r#"<a href="/page/A">A</a><a href="/page/B">B</a>"#),
                "/page/A" => Some(r#"<a href="/page/C">C</a><a href="/page/B">B</a>"#),
                "/page/B" => Some(r#"<a href="/missing">?</a><a href="/">home</a>"#),
                "/page/C" => Some(""),
                _ => None,
            }
        };
        let mut fetched = Vec::new();
        let walked = crawl(|url| {
            fetched.push(url.to_owned());
            Ok::<_, ()>(site(url))
        })
        .unwrap();
        assert_eq!(walked.urls, ["/", "/page/A", "/page/B", "/page/C"]);
        assert_eq!(walked.levels, 3);
        assert_eq!(fetched, ["/", "/page/A", "/page/B", "/page/C", "/missing"]);
    }
}
