//! The rendered-page cache: sharded, epoch-fenced, delta-invalidated.
//!
//! Keys are [`PageKey`]s; values are finished HTML plus the page's
//! *dependency set* — the other pages whose content was read while
//! rendering (link text and sort keys come from child pages). Delta
//! invalidation therefore evicts a page when the delta dirtied **it or
//! any of its dependencies**: editing an article's title must evict the
//! section page whose story list shows that title, even though the
//! section's own incremental queries are untouched.
//!
//! Inserts carry the engine epoch they were rendered under and are
//! dropped if a delta landed in between (same fencing protocol as the
//! engine's page-view cache).
//!
//! ## One tier
//!
//! The cache is 16 `RwLock`-sharded maps and nothing else: renders
//! insert under a shard's write lock, clicks read under its read lock.
//! The one reader that must never wait — the reactor thread's
//! [`crate::SiteService::try_warm`] — asks [`HtmlCache::try_get`], which
//! declines at once when a writer holds the key's shard.
//!
//! ## Invalidation costs the delta, not the cache
//!
//! [`HtmlCache::invalidate`] walks neither the renditions nor their
//! dependency sets. A reverse index *dependency → dependents* is filled
//! by every insert and drained by invalidation: a dirty page's entry
//! names the renditions to evict. Pairs are never cleaned up when a
//! dependent leaves the cache some other way, so the index may name a
//! page that no longer reads the dependency — that evicts one rendition
//! too many, once, and never one too few. The cache never serves a
//! dirtied page once `invalidate` returns. A [`DirtySet`] that dirties a
//! whole symbol keeps the full scan.

use crate::metrics::{CacheSnapshot, InlineDecline};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use strudel_schema::dynamic::PageKey;
use strudel_schema::invalidate::DirtySet;

/// One cached rendition.
#[derive(Clone, Debug)]
pub struct CachedPage {
    /// The finished HTML.
    pub html: Arc<str>,
    /// Pages whose content this rendition read (children shown by link
    /// text or sort key).
    pub deps: Arc<[PageKey]>,
}

const SHARDS: usize = 16;

/// A concurrent rendered-HTML cache.
#[derive(Debug)]
pub struct HtmlCache {
    shards: Vec<RwLock<HashMap<PageKey, CachedPage>>>,
    /// Dependency → the pages whose renditions read it. A pair is entered
    /// before its insert's fence check and leaves only when the
    /// dependency is dirtied (see the module docs).
    dependents: Mutex<HashMap<PageKey, HashSet<Arc<PageKey>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Hits answered by [`HtmlCache::try_get`].
    try_hits: AtomicU64,
}

impl Default for HtmlCache {
    fn default() -> Self {
        HtmlCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            dependents: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            try_hits: AtomicU64::new(0),
        }
    }
}

impl HtmlCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard_of(&self, key: &PageKey) -> &RwLock<HashMap<PageKey, CachedPage>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks `key` up without ever waiting — the lookup the reactor
    /// makes ([`crate::SiteService::try_warm`]): a shard that a writer
    /// holds (or queues for) answers [`InlineDecline::Contended`] at
    /// once. A hit is counted; a decline is not, because the caller
    /// falls back to [`HtmlCache::get`], which stays the one place
    /// misses are counted.
    pub fn try_get(&self, key: &PageKey) -> Result<CachedPage, InlineDecline> {
        let shard = self
            .shard_of(key)
            .try_read()
            .map_err(|_| InlineDecline::Contended)?;
        let page = shard.get(key).cloned().ok_or(InlineDecline::Miss)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.try_hits.fetch_add(1, Ordering::Relaxed);
        Ok(page)
    }

    /// Looks `key` up, counting the hit or miss.
    pub fn get(&self, key: &PageKey) -> Option<CachedPage> {
        match self.shard_of(key).read().unwrap().get(key) {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(p.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a rendition unless `still_current` reports that a delta
    /// landed since it was computed (checked under the shard lock).
    pub fn insert_if(
        &self,
        key: PageKey,
        page: CachedPage,
        still_current: impl FnOnce() -> bool,
    ) {
        // Indexed before the fence check: an invalidation that drained a
        // dependency too early to find this page ran after its delta, so
        // the check below fails and the rendition is dropped.
        if !page.deps.is_empty() {
            let dependent = Arc::new(key.clone());
            let mut index = self.dependents.lock().unwrap();
            for dep in page.deps.iter() {
                match index.get_mut(dep) {
                    Some(pages) => {
                        pages.insert(Arc::clone(&dependent));
                    }
                    None => {
                        index.insert(dep.clone(), HashSet::from([Arc::clone(&dependent)]));
                    }
                }
            }
        }
        let mut shard = self.shard_of(&key).write().unwrap();
        if still_current() {
            shard.insert(key, page);
        }
    }

    /// Always `false`: there is no second tier to promote into. Kept only
    /// because the perfbench harness (`perfbench/src/ladder/engine.rs`)
    /// still calls it; nothing under `crates/` does.
    #[doc(hidden)]
    pub fn needs_promotion(&self) -> bool {
        false
    }

    /// Does nothing and returns `still_current()`. Kept only because the
    /// perfbench harness (`perfbench/src/ladder/engine.rs`) still calls
    /// it; nothing under `crates/` does.
    #[doc(hidden)]
    pub fn promote_if(&self, still_current: impl FnOnce() -> bool) -> bool {
        still_current()
    }

    /// Evicts every page the delta dirtied, directly or through its
    /// dependency set, so the cache never serves a dirtied page once this
    /// returns. Returns the eviction count. The work is proportional to
    /// the dirty pages and the renditions evicted, unless the delta
    /// dirtied a whole symbol.
    pub fn invalidate(&self, dirty: &DirtySet) -> usize {
        if dirty.is_empty() {
            return 0;
        }
        let evicted = if dirty.symbols.is_empty() {
            self.evict_indexed(dirty)
        } else {
            self.evict_by_scan(dirty)
        };
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Evicts the dirty pages and what the dependents index names for
    /// them.
    fn evict_indexed(&self, dirty: &DirtySet) -> usize {
        let mut evicted = 0;
        let mut evict = |key: &PageKey| {
            let held = self.shard_of(key).write().unwrap().remove(key);
            evicted += usize::from(held.is_some());
        };
        for page in &dirty.pages {
            evict(page);
            let dependents = self.dependents.lock().unwrap().remove(page);
            for dependent in dependents.iter().flatten() {
                evict(dependent);
            }
        }
        evicted
    }

    /// Evicts by reading every rendition's dependency set: the path for a
    /// wholesale-dirty symbol, whose pages the index cannot enumerate.
    fn evict_by_scan(&self, dirty: &DirtySet) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut map = shard.write().unwrap();
            let before = map.len();
            map.retain(|key, page| {
                !dirty.contains(key) && !page.deps.iter().any(|d| dirty.contains(d))
            });
            evicted += before - map.len();
        }
        evicted
    }

    /// Drops everything.
    pub fn clear(&self) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut map = shard.write().unwrap();
            evicted += map.len();
            map.clear();
        }
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot for `/metrics`.
    pub fn stats(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
            published_hits: self.try_hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sym: &str) -> PageKey {
        PageKey {
            symbol: sym.into(),
            args: vec![],
        }
    }

    fn page(deps: Vec<PageKey>) -> CachedPage {
        CachedPage {
            html: "<html/>".into(),
            deps: deps.into(),
        }
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let c = HtmlCache::new();
        assert!(c.get(&key("A")).is_none());
        c.insert_if(key("A"), page(vec![]), || true);
        assert!(c.get(&key("A")).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn stale_insert_is_dropped() {
        let c = HtmlCache::new();
        c.insert_if(key("A"), page(vec![]), || false);
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_follows_dependencies() {
        let c = HtmlCache::new();
        // Section depends on article; front depends on section.
        c.insert_if(key("Article"), page(vec![]), || true);
        c.insert_if(key("Section"), page(vec![key("Article")]), || true);
        c.insert_if(key("Other"), page(vec![]), || true);
        let mut dirty = DirtySet::default();
        dirty.pages.insert(key("Article"));
        let evicted = c.invalidate(&dirty);
        assert_eq!(evicted, 2, "article + dependent section");
        assert!(c.get(&key("Other")).is_some(), "untouched page survives");
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn wholesale_symbol_dirt_evicts_dependents_too() {
        let c = HtmlCache::new();
        c.insert_if(
            key("Front"),
            page(vec![PageKey {
                symbol: "Article".into(),
                args: vec![],
            }]),
            || true,
        );
        let mut dirty = DirtySet::default();
        dirty.symbols.insert("Article".into());
        assert_eq!(c.invalidate(&dirty), 1);
    }

    #[test]
    fn try_get_declines_a_write_locked_shard_without_counting() {
        let c = HtmlCache::new();
        c.insert_if(key("A"), page(vec![]), || true);
        // Held by a writer: a lookup that waited for it would deadlock
        // right here, on the thread that holds it.
        let writer = c.shard_of(&key("A")).write().unwrap();
        assert!(matches!(c.try_get(&key("A")), Err(InlineDecline::Contended)));
        drop(writer);
        let s = c.stats();
        assert_eq!((s.hits, s.published_hits, s.misses), (0, 0, 0));
        assert!(c.try_get(&key("A")).is_ok());
        assert!(matches!(c.try_get(&key("B")), Err(InlineDecline::Miss)));
        let s = c.stats();
        assert_eq!((s.hits, s.published_hits, s.misses), (1, 1, 0));
    }

    #[test]
    fn a_stale_index_pair_over_evicts_once() {
        let c = HtmlCache::new();
        c.insert_if(key("Front"), page(vec![key("A"), key("B")]), || true);
        // Re-rendered without B (say B left the collection).
        c.insert_if(key("Front"), page(vec![key("A")]), || true);
        let mut dirty = DirtySet::default();
        dirty.pages.insert(key("B"));
        assert_eq!(c.invalidate(&dirty), 1, "the old pair still names Front");
        c.insert_if(key("Front"), page(vec![key("A")]), || true);
        assert_eq!(c.invalidate(&dirty), 0, "the pair was drained");
        assert!(c.get(&key("Front")).is_some());
    }

    /// Seeded insert / invalidate sequences: the indexed eviction must
    /// leave exactly the pages the full scan leaves — the scan itself is
    /// the oracle, forced on a twin cache by a symbol that dirties
    /// nothing — and `try_get` must never answer with anything but the
    /// rendition the shard holds.
    #[test]
    fn indexed_eviction_matches_the_scan() {
        use strudel_prng::{Rng, SeedableRng, SmallRng};
        const PAGES: u32 = 24;
        let name = |i: u32| key(&format!("P{i}"));
        // A page's dependencies are fixed, so no pair ever goes stale.
        let deps_of = |i: u32| -> Vec<PageKey> {
            (1..=3)
                .map(|k| (i * 7 + k * k) % PAGES)
                .filter(|d| *d != i && i % 3 != 0)
                .map(name)
                .collect()
        };
        let held = |c: &HtmlCache, k: &PageKey| c.shard_of(k).read().unwrap().get(k).cloned();
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0xcac4e + seed);
            let (indexed, scanned) = (HtmlCache::new(), HtmlCache::new());
            for step in 0..300 {
                match rng.gen_range(0..8u32) {
                    0..=5 => {
                        // A render happens on a miss; every rendition is unique.
                        let i = rng.gen_range(0..PAGES);
                        if held(&indexed, &name(i)).is_none() {
                            let rendition = CachedPage {
                                html: format!("{step}").into(),
                                deps: deps_of(i).into(),
                            };
                            for c in [&indexed, &scanned] {
                                c.insert_if(name(i), rendition.clone(), || true);
                            }
                        }
                    }
                    _ => {
                        let mut dirty = DirtySet::default();
                        for _ in 0..rng.gen_range(1..4u32) {
                            dirty.pages.insert(name(rng.gen_range(0..PAGES)));
                        }
                        let by_index = indexed.invalidate(&dirty);
                        dirty.symbols.insert("~nothing".into());
                        let by_scan = scanned.invalidate(&dirty);
                        assert_eq!(by_index, by_scan, "seed {seed} step {step}: {dirty:?}");
                    }
                }
                for i in 0..PAGES {
                    let k = name(i);
                    let locked = held(&indexed, &k).map(|p| p.html);
                    assert_eq!(
                        locked,
                        held(&scanned, &k).map(|p| p.html),
                        "seed {seed} step {step}: {k:?}"
                    );
                    assert_eq!(
                        indexed.try_get(&k).ok().map(|p| p.html),
                        locked,
                        "seed {seed} step {step}: {k:?} answered but evicted or re-rendered"
                    );
                }
            }
        }
    }

}
