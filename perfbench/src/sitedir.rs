//! The news site as a site directory, for `strudel shard-worker`.
//!
//! A cluster worker reads its query, templates and configuration from a
//! site directory and its *data* from the shared paged store, so the
//! directory written here has no `sources/`. The query is the product's
//! public `NEWS_QUERY`. The product keeps its news templates private, so
//! the three that render pages are restated here; `cluster-clicks`
//! checks every worker-served page against an in-process service built
//! by `sites::news_site`, so a drift between the two sets fails the run.

use std::path::Path;
use strudel::sites::NEWS_QUERY;

/// `(name, source)` of the templates the news site assigns to pages.
pub const NEWS_PAGE_TEMPLATES: [(&str, &str); 3] = [
    (
        "front",
        r#"<html><head><title>News</title></head><body>
<h1>Today's news</h1>
<h2>Sections</h2>
<SFMT Section UL ORDER=ascend KEY=Name>
<h2>Top stories</h2>
<SFMT Headline UL ORDER=ascend KEY=title>
</body></html>"#,
    ),
    (
        "section",
        r#"<html><head><title><SFMT Name></title></head><body>
<h1><SFMT Name></h1>
<SFMT Story UL ORDER=descend KEY=date>
</body></html>"#,
    ),
    (
        "article",
        r#"<html><head><title><SFMT title></title></head><body>
<h1><SFMT headline></h1>
<SIF byline><p>By <SFMT byline></p></SIF>
<SIF date><p><SFMT date></p></SIF>
<SIF image><SFMT image></SIF>
<SFMT paragraph ENUM DELIM="\n">
<SIF Related><h3>Related stories</h3><SFMT Related UL></SIF>
<SIF External><p><SFMT External ENUM DELIM=" | "></p></SIF>
<p><SFMT Section></p>
</body></html>"#,
    ),
];

/// The assignments `sites::news_site` makes, in `site.conf` syntax.
const NEWS_CONF: &str = "root FrontRoot\n\
    object FrontPage front\n\
    collection CategoryPages section\n\
    collection ArticlePages article\n";

/// Writes `site.struql`, `site.conf` and `templates/*.tmpl` under `dir`.
pub fn write_news_site_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir.join("templates"))?;
    std::fs::write(dir.join("site.struql"), NEWS_QUERY)?;
    std::fs::write(dir.join("site.conf"), NEWS_CONF)?;
    for (name, src) in NEWS_PAGE_TEMPLATES {
        std::fs::write(dir.join("templates").join(format!("{name}.tmpl")), src)?;
    }
    Ok(())
}
