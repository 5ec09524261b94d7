//! LRU cache for chain retrieval results, keyed by the query.
//!
//! Retrieval (random walks + filtering) dominates per-request cost on hot
//! queries; the engine consults this cache before gathering. Entries are
//! `Arc`-shared so a cached chain set can sit in several in-flight batches
//! at once without copying.

use cf_chains::{ChainInstance, Query};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A cached retrieval result: the filtered chains plus the pre-filter
/// retrieval count (reported in prediction details).
#[derive(Debug)]
pub struct CachedChains {
    /// Chains after setting restriction + top-k filtering (possibly empty).
    pub chains: Vec<ChainInstance>,
    /// ToC size before filtering.
    pub retrieved: usize,
}

/// A fixed-capacity LRU map `Query → Arc<CachedChains>`.
///
/// Recency is tracked with a monotonic stamp per entry; eviction scans for
/// the minimum stamp. That is O(n) per eviction, which is fine at serving
/// capacities (≤ a few thousand entries) and keeps the structure a single
/// `HashMap` — no unsafe, no intrusive lists.
pub struct ChainCache {
    cap: usize,
    tick: u64,
    map: HashMap<Query, (u64, Arc<CachedChains>)>,
}

impl ChainCache {
    /// A cache holding at most `cap` entries; `cap == 0` disables caching
    /// (every `get` misses, every `put` is dropped).
    pub fn new(cap: usize) -> Self {
        ChainCache {
            cap,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up `q`, refreshing its recency on a hit.
    pub fn get(&mut self, q: Query) -> Option<Arc<CachedChains>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&q).map(|(stamp, v)| {
            *stamp = tick;
            Arc::clone(v)
        })
    }

    /// Inserts (or refreshes) `q`, evicting the least recently used entry
    /// when full.
    pub fn put(&mut self, q: Query, v: Arc<CachedChains>) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&q) && self.map.len() >= self.cap {
            if let Some(&lru) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k)
            {
                self.map.remove(&lru);
            }
        }
        self.map.insert(q, (self.tick, v));
    }

    /// Drops every entry whose query source entity is in `dirty`,
    /// returning how many were removed.
    ///
    /// Cached chains are keyed by the query, but a chain *traverses* up to
    /// `max_hops` entities beyond its source; the engine therefore passes
    /// the mutation's touched set expanded by a `max_hops` BFS over the
    /// live adjacency (both CSR directions), so any cached chain that
    /// could reach a mutated entity is discarded.
    pub fn invalidate_entities(&mut self, dirty: &HashSet<u32>) -> usize {
        let before = self.map.len();
        self.map.retain(|q, _| !dirty.contains(&q.entity.0));
        before - self.map.len()
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_kg::{AttributeId, EntityId};

    fn q(e: u32, a: u32) -> Query {
        Query {
            entity: EntityId(e),
            attr: AttributeId(a),
        }
    }

    fn entry(retrieved: usize) -> Arc<CachedChains> {
        Arc::new(CachedChains {
            chains: Vec::new(),
            retrieved,
        })
    }

    #[test]
    fn hit_returns_inserted_value() {
        let mut c = ChainCache::new(4);
        c.put(q(1, 0), entry(7));
        assert_eq!(c.get(q(1, 0)).unwrap().retrieved, 7);
        assert!(c.get(q(2, 0)).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ChainCache::new(2);
        c.put(q(1, 0), entry(1));
        c.put(q(2, 0), entry(2));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(c.get(q(1, 0)).is_some());
        c.put(q(3, 0), entry(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(q(2, 0)).is_none(), "LRU entry survived eviction");
        assert!(c.get(q(1, 0)).is_some());
        assert!(c.get(q(3, 0)).is_some());
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = ChainCache::new(2);
        c.put(q(1, 0), entry(1));
        c.put(q(2, 0), entry(2));
        c.put(q(1, 0), entry(10));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(q(1, 0)).unwrap().retrieved, 10);
        assert!(c.get(q(2, 0)).is_some());
    }

    #[test]
    fn invalidate_drops_only_dirty_entities() {
        let mut c = ChainCache::new(8);
        c.put(q(1, 0), entry(1));
        c.put(q(1, 1), entry(2));
        c.put(q(2, 0), entry(3));
        c.put(q(3, 0), entry(4));
        let dirty: HashSet<u32> = [1, 3].into_iter().collect();
        assert_eq!(c.invalidate_entities(&dirty), 3);
        assert!(c.get(q(1, 0)).is_none());
        assert!(c.get(q(1, 1)).is_none());
        assert!(c.get(q(3, 0)).is_none());
        assert_eq!(c.get(q(2, 0)).unwrap().retrieved, 3);
        assert_eq!(c.invalidate_entities(&dirty), 0, "second pass is a no-op");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ChainCache::new(0);
        c.put(q(1, 0), entry(1));
        assert!(c.get(q(1, 0)).is_none());
        assert!(c.is_empty());
    }
}
