//! The rendered-page cache: sharded, epoch-fenced, delta-invalidated,
//! with an RCU-published warm-click fast path.
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
//! ## Two tiers
//!
//! The authoritative tier is 16 `RwLock`-sharded maps. Above it sits an
//! epoch-published snapshot ([`crate::rcu::Published`]) of the whole
//! map: a *warm click* that hits the published tier takes **no lock at
//! all** — one atomic load and a thread-local pointer. Renders insert
//! into the locked tier; once enough inserts accumulate the owner
//! *promotes* a fresh immutable snapshot ([`HtmlCache::promote_if`],
//! epoch-fenced like inserts). Delta invalidation evicts from the locked
//! tier and republishes immediately, so the published tier never serves
//! a dirtied page once [`HtmlCache::invalidate`] returns.

use crate::metrics::CacheSnapshot;
use crate::rcu::Published;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
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

/// Locked-tier inserts since the last promotion that trigger one.
pub const PROMOTE_EVERY: u64 = 16;

/// A concurrent rendered-HTML cache.
#[derive(Debug)]
pub struct HtmlCache {
    shards: Vec<RwLock<HashMap<PageKey, CachedPage>>>,
    /// The lock-free read tier: an immutable snapshot of the shard maps.
    published: Published<HashMap<PageKey, CachedPage>>,
    /// Serializes snapshot-building (promotions and invalidations), so a
    /// promotion can never capture a half-invalidated map and publish it
    /// after the invalidation's own republish.
    promote_lock: Mutex<()>,
    /// Locked-tier inserts since the last promotion.
    pending: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    published_hits: AtomicU64,
    promotions: AtomicU64,
}

impl Default for HtmlCache {
    fn default() -> Self {
        HtmlCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            published: Published::new(Arc::new(HashMap::new())),
            promote_lock: Mutex::new(()),
            pending: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            published_hits: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
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

    /// Looks `key` up in the published tier only: one version load and
    /// a thread-local snapshot, never a shard lock — the lookup the
    /// reactor may make ([`crate::SiteService::try_warm`]). A hit is
    /// counted; a miss is not, because the caller falls back to
    /// [`HtmlCache::get`], which stays the one place misses are counted.
    pub fn get_published(&self, key: &PageKey) -> Option<CachedPage> {
        let page = self.published.read().get(key)?.clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.published_hits.fetch_add(1, Ordering::Relaxed);
        Some(page)
    }

    /// Looks `key` up, counting the hit or miss. The published snapshot
    /// is consulted first — that path takes no lock.
    pub fn get(&self, key: &PageKey) -> Option<CachedPage> {
        if let Some(p) = self.get_published(key) {
            return Some(p);
        }
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
        let mut shard = self.shard_of(&key).write().unwrap();
        if still_current() {
            shard.insert(key, page);
            self.pending.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether enough inserts accumulated that the owner should
    /// [`HtmlCache::promote_if`] a fresh snapshot.
    pub fn needs_promotion(&self) -> bool {
        self.pending.load(Ordering::Relaxed) >= PROMOTE_EVERY
    }

    /// Publishes an immutable snapshot of the locked tier, making every
    /// currently cached page servable lock-free. `still_current` is the
    /// same epoch fence as [`HtmlCache::insert_if`]: when it reports a
    /// delta landed since the caller read its epoch, the stale snapshot
    /// is discarded instead of published. Returns whether it published.
    pub fn promote_if(&self, still_current: impl FnOnce() -> bool) -> bool {
        let _serialize = self.promote_lock.lock().unwrap();
        let snapshot = self.collect_snapshot();
        self.pending.store(0, Ordering::Relaxed);
        let published = self.published.publish_if(Arc::new(snapshot), still_current);
        if published {
            self.promotions.fetch_add(1, Ordering::Relaxed);
        }
        published
    }

    fn collect_snapshot(&self) -> HashMap<PageKey, CachedPage> {
        let mut map = HashMap::with_capacity(self.len());
        for shard in &self.shards {
            for (k, v) in shard.read().unwrap().iter() {
                map.insert(k.clone(), v.clone());
            }
        }
        map
    }

    /// Evicts every page the delta dirtied, directly or through its
    /// dependency set, then republishes the lock-free snapshot so the
    /// published tier stops serving the dirtied pages before this
    /// returns. Returns the eviction count.
    pub fn invalidate(&self, dirty: &DirtySet) -> usize {
        if dirty.is_empty() {
            return 0;
        }
        let _serialize = self.promote_lock.lock().unwrap();
        let mut evicted = 0;
        for shard in &self.shards {
            let mut map = shard.write().unwrap();
            let before = map.len();
            map.retain(|key, page| {
                !dirty.contains(key) && !page.deps.iter().any(|d| dirty.contains(d))
            });
            evicted += before - map.len();
        }
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        self.published.publish(Arc::new(self.collect_snapshot()));
        evicted
    }

    /// Drops everything, including the published snapshot.
    pub fn clear(&self) -> usize {
        let _serialize = self.promote_lock.lock().unwrap();
        let mut evicted = 0;
        for shard in &self.shards {
            let mut map = shard.write().unwrap();
            evicted += map.len();
            map.clear();
        }
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        self.published.publish(Arc::new(HashMap::new()));
        evicted
    }

    /// Number of cached pages (locked tier; the published snapshot is a
    /// subset of it).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pages currently servable from the lock-free published snapshot.
    pub fn published_len(&self) -> usize {
        self.published.read().len()
    }

    /// Counter snapshot for `/metrics`.
    pub fn stats(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
            published_hits: self.published_hits.load(Ordering::Relaxed),
            published_entries: self.published_len() as u64,
            promotions: self.promotions.load(Ordering::Relaxed),
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
    fn promotion_publishes_the_lock_free_tier() {
        let c = HtmlCache::new();
        c.insert_if(key("A"), page(vec![]), || true);
        assert_eq!(c.published_len(), 0, "nothing published before promotion");
        assert!(c.promote_if(|| true));
        assert_eq!(c.published_len(), 1);
        assert!(c.get(&key("A")).is_some());
        let s = c.stats();
        assert_eq!(s.published_hits, 1, "served from the published tier");
        assert_eq!(s.promotions, 1);
    }

    #[test]
    fn get_published_never_touches_the_locked_tier_and_counts_no_miss() {
        let c = HtmlCache::new();
        c.insert_if(key("A"), page(vec![]), || true);
        assert!(
            c.get_published(&key("A")).is_none(),
            "in the locked tier only: not servable from the published one"
        );
        assert!(c.promote_if(|| true));
        // With every shard write-locked, a lookup that touched the
        // locked tier would deadlock right here.
        let locked: Vec<_> = c.shards.iter().map(|s| s.write().unwrap()).collect();
        assert!(c.get_published(&key("A")).is_some());
        assert!(c.get_published(&key("B")).is_none());
        drop(locked);
        let s = c.stats();
        assert_eq!((s.hits, s.published_hits, s.misses), (1, 1, 0));
    }

    #[test]
    fn stale_promotion_is_discarded() {
        let c = HtmlCache::new();
        c.insert_if(key("A"), page(vec![]), || true);
        assert!(!c.promote_if(|| false), "a delta landed: snapshot dropped");
        assert_eq!(c.published_len(), 0);
    }

    #[test]
    fn invalidate_republishes_without_the_dirty_page() {
        let c = HtmlCache::new();
        c.insert_if(key("A"), page(vec![]), || true);
        c.insert_if(key("B"), page(vec![]), || true);
        assert!(c.promote_if(|| true));
        assert_eq!(c.published_len(), 2);
        let mut dirty = DirtySet::default();
        dirty.pages.insert(key("A"));
        c.invalidate(&dirty);
        assert_eq!(c.published_len(), 1, "published tier re-cut immediately");
        assert!(c.get(&key("A")).is_none());
        assert!(c.get(&key("B")).is_some());
    }

    #[test]
    fn needs_promotion_after_enough_inserts() {
        let c = HtmlCache::new();
        for i in 0..PROMOTE_EVERY {
            assert!(!c.needs_promotion());
            c.insert_if(key(&format!("P{i}")), page(vec![]), || true);
        }
        assert!(c.needs_promotion());
        assert!(c.promote_if(|| true));
        assert!(!c.needs_promotion(), "promotion resets the insert counter");
        assert_eq!(c.published_len(), PROMOTE_EVERY as usize);
    }

    #[test]
    fn clear_empties_the_published_tier_too() {
        let c = HtmlCache::new();
        c.insert_if(key("A"), page(vec![]), || true);
        c.promote_if(|| true);
        assert_eq!(c.clear(), 1);
        assert_eq!(c.published_len(), 0);
        assert!(c.get(&key("A")).is_none());
    }
}
