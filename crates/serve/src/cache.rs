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
//! all** — one atomic load and a thread-local pointer, then the entry's
//! liveness flag. Renders insert into the locked tier; once enough
//! inserts accumulate the owner *promotes* a fresh immutable snapshot
//! ([`HtmlCache::promote_if`], epoch-fenced like inserts).
//!
//! ## Invalidation costs the delta, not the cache
//!
//! [`HtmlCache::invalidate`] walks neither the renditions nor their
//! dependency sets. A reverse index *dependency → dependents* is filled
//! by every insert and drained by invalidation: a dirty page's entry
//! names the renditions to evict. Pairs are never cleaned up when a
//! dependent leaves the cache some other way, so the index may name a
//! page that no longer reads the dependency — that evicts one rendition
//! too many, once, and never one too few. In the published tier a dirty
//! entry is *killed in place* (its liveness flag cleared) rather than the
//! whole snapshot re-cut; the next promotion drops it. Either way the
//! cache never serves a dirtied page once `invalidate` returns. A
//! [`DirtySet`] that dirties a whole symbol keeps the full scan.

use crate::metrics::CacheSnapshot;
use crate::rcu::Published;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// One snapshot of the published tier.
#[derive(Debug, Default)]
struct Tier {
    map: HashMap<PageKey, Slot>,
    /// Entries of `map` killed so far.
    killed: AtomicUsize,
}

/// A published rendition. `live` is cleared (`Release`) by the
/// invalidation that dirties the page and read (`Acquire`) by every
/// lookup, so a lookup that starts after `invalidate` returned misses.
#[derive(Debug)]
struct Slot {
    page: CachedPage,
    live: AtomicBool,
}

/// A concurrent rendered-HTML cache.
#[derive(Debug)]
pub struct HtmlCache {
    shards: Vec<RwLock<HashMap<PageKey, CachedPage>>>,
    /// The lock-free read tier: an immutable snapshot of the shard maps.
    published: Published<Tier>,
    /// Dependency → the pages whose renditions read it. A pair is entered
    /// before its insert's fence check and leaves only when the
    /// dependency is dirtied (see the module docs).
    dependents: Mutex<HashMap<PageKey, HashSet<Arc<PageKey>>>>,
    /// Serializes snapshot-building (promotions and invalidations), so a
    /// promotion can never capture a half-invalidated map, nor publish a
    /// snapshot an invalidation's kills missed.
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
            published: Published::new(Arc::new(Tier::default())),
            dependents: Mutex::new(HashMap::new()),
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
        let tier = self.published.read();
        let slot = tier.map.get(key)?;
        if !slot.live.load(Ordering::Acquire) {
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.published_hits.fetch_add(1, Ordering::Relaxed);
        Some(slot.page.clone())
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

    fn collect_snapshot(&self) -> Tier {
        let mut map = HashMap::with_capacity(self.len());
        for shard in &self.shards {
            for (k, v) in shard.read().unwrap().iter() {
                let slot = Slot {
                    page: v.clone(),
                    live: AtomicBool::new(true),
                };
                map.insert(k.clone(), slot);
            }
        }
        Tier {
            map,
            killed: AtomicUsize::new(0),
        }
    }

    /// Evicts every page the delta dirtied, directly or through its
    /// dependency set, from both tiers, so neither serves a dirtied page
    /// once this returns. Returns the eviction count. The work is
    /// proportional to the dirty pages and the renditions evicted, unless
    /// the delta dirtied a whole symbol.
    pub fn invalidate(&self, dirty: &DirtySet) -> usize {
        if dirty.is_empty() {
            return 0;
        }
        let _serialize = self.promote_lock.lock().unwrap();
        let evicted = if dirty.symbols.is_empty() {
            self.evict_indexed(dirty)
        } else {
            self.evict_by_scan(dirty)
        };
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Evicts the dirty pages and what the dependents index names for
    /// them; published entries are killed in place.
    fn evict_indexed(&self, dirty: &DirtySet) -> usize {
        // The current snapshot: promotions wait on the lock the caller holds.
        let tier = self.published.read();
        let mut evicted = 0;
        let mut evict = |key: &PageKey| {
            if let Some(slot) = tier.map.get(key) {
                if slot.live.swap(false, Ordering::Release) {
                    tier.killed.fetch_add(1, Ordering::Relaxed);
                }
            }
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

    /// Evicts by reading every rendition's dependency set, then re-cuts
    /// the published snapshot: the path for a wholesale-dirty symbol,
    /// whose pages the index cannot enumerate.
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
        self.published.publish(Arc::new(Tier::default()));
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
        let tier = self.published.read();
        tier.map.len() - tier.killed.load(Ordering::Relaxed)
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
        assert_eq!(c.published_len(), 1, "the dirty entry is dead at once");
        assert!(c.get(&key("A")).is_none());
        assert!(c.get(&key("B")).is_some());
    }

    #[test]
    fn a_killed_published_entry_misses_until_it_is_rendered_again() {
        let c = HtmlCache::new();
        c.insert_if(key("Section"), page(vec![key("Article")]), || true);
        assert!(c.promote_if(|| true));
        let mut dirty = DirtySet::default();
        dirty.pages.insert(key("Article"));
        assert_eq!(c.invalidate(&dirty), 1, "evicted through the dependents index");
        assert!(c.get_published(&key("Section")).is_none(), "killed in place");
        assert!(c.get(&key("Section")).is_none(), "and gone from the locked tier");
        assert_eq!(c.stats().promotions, 1, "without re-cutting the snapshot");
        // Re-rendered: served from the locked tier, then published again.
        c.insert_if(key("Section"), page(vec![key("Article")]), || true);
        assert!(c.get_published(&key("Section")).is_none());
        assert!(c.get(&key("Section")).is_some());
        assert!(c.promote_if(|| true));
        assert!(c.get_published(&key("Section")).is_some());
        assert_eq!(c.invalidate(&dirty), 1, "the index was refilled by the insert");
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

    /// Seeded insert / invalidate / promote sequences: the indexed
    /// eviction must leave exactly the pages the full scan leaves — the
    /// scan itself is the oracle, forced on a twin cache by a symbol that
    /// dirties nothing — and the published tier must never answer with
    /// anything but the rendition the locked tier holds.
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
                match rng.gen_range(0..10u32) {
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
                    6 | 7 => {
                        for c in [&indexed, &scanned] {
                            c.promote_if(|| true);
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
                    if let Some(published) = indexed.get_published(&k) {
                        assert_eq!(
                            Some(published.html),
                            locked,
                            "seed {seed} step {step}: {k:?} published but evicted or re-rendered"
                        );
                    }
                }
            }
        }
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
