//! The bounded, LRU solution store.
//!
//! Keyed by [`JobKey`] — the family name and registration epoch folded
//! with quantised job parameters ([`crate::spec::JobSpec::key`]) — and
//! holding [`Arc`]s of completed [`JobResult`]s, so a hit is one hash
//! probe and one refcount bump: the stored samples are handed back
//! byte-for-byte, which is what makes replay *bit-identical by
//! construction*. This is the stack's one solution memo: the sweep engine
//! below it keeps none. A hit refreshes recency, an insert at capacity
//! evicts the least-recently-used entry, replacing an existing key never
//! evicts, and entries are tagged by family name for targeted eviction.

use std::collections::HashMap;
use std::sync::Arc;

use rfsim_rf::key::JobKey;

use crate::spec::JobResult;

/// Counters describing the store's service history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the store.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Solutions inserted.
    pub insertions: usize,
    /// Entries evicted to make room (LRU).
    pub evictions: usize,
    /// Entries removed by explicit [`SolutionStore::evict`] calls.
    pub explicit_evictions: usize,
}

/// One stored solution with its family tag and recency tick.
#[derive(Debug)]
struct Entry {
    family: String,
    result: Arc<JobResult>,
    last_used: u64,
}

/// A bounded LRU map from job identity to completed solution.
#[derive(Debug)]
pub struct SolutionStore {
    entries: HashMap<JobKey, Entry>,
    capacity: usize,
    tick: u64,
    stats: StoreStats,
}

impl SolutionStore {
    /// A store retaining at most `capacity` solutions (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        SolutionStore {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            stats: StoreStats::default(),
        }
    }

    /// Maximum retained solutions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently retained solutions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Service counters so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Looks up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: JobKey) -> Option<Arc<JobResult>> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.result))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a completed solution, evicting the least-recently-used
    /// entry if the store is at capacity (replacing an existing key never
    /// evicts). `family` tags the entry for targeted eviction.
    pub fn insert(&mut self, key: JobKey, family: impl Into<String>, result: Arc<JobResult>) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.stats.insertions += 1;
        self.entries.insert(
            key,
            Entry {
                family: family.into(),
                result,
                last_used: self.tick,
            },
        );
    }

    /// Removes entries — all of them, or only one family's — returning
    /// how many were dropped (counted in
    /// [`StoreStats::explicit_evictions`], not `evictions`).
    pub fn evict(&mut self, family: Option<&str>) -> usize {
        let before = self.entries.len();
        match family {
            None => self.entries.clear(),
            Some(f) => self.entries.retain(|_, e| e.family != f),
        }
        let dropped = before - self.entries.len();
        self.stats.explicit_evictions += dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PointSolution;
    use rfsim_rf::key::{JobKeyBuilder, Quantizer};

    fn key(tag: f64) -> JobKey {
        JobKeyBuilder::new(Quantizer::default())
            .push_f64(tag)
            .finish()
    }

    fn result(v: f64) -> Arc<JobResult> {
        Arc::new(JobResult {
            points: vec![PointSolution {
                amplitude: v,
                spacing: 0.0,
                samples: vec![v, 2.0 * v],
            }],
        })
    }

    #[test]
    fn lru_evicts_least_recently_used_at_capacity() {
        let mut store = SolutionStore::new(2);
        store.insert(key(1.0), "a", result(1.0));
        store.insert(key(2.0), "a", result(2.0));
        // Touch key 1 so key 2 is the LRU entry.
        assert!(store.get(key(1.0)).is_some());
        store.insert(key(3.0), "a", result(3.0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 1);
        assert!(store.get(key(2.0)).is_none(), "LRU entry must be gone");
        assert!(store.get(key(1.0)).is_some());
        assert!(store.get(key(3.0)).is_some());
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let mut store = SolutionStore::new(2);
        store.insert(key(1.0), "a", result(1.0));
        store.insert(key(2.0), "a", result(2.0));
        store.insert(key(1.0), "a", result(10.0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 0);
        assert_eq!(
            store.get(key(1.0)).expect("replaced").points[0].amplitude,
            10.0
        );
    }

    #[test]
    fn hits_return_the_same_allocation() {
        let mut store = SolutionStore::new(4);
        let r = result(5.0);
        store.insert(key(5.0), "a", Arc::clone(&r));
        let hit = store.get(key(5.0)).expect("hit");
        assert!(Arc::ptr_eq(&hit, &r), "a hit hands back the stored bytes");
        assert_eq!(store.stats().hits, 1);
        assert!(store.get(key(6.0)).is_none());
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn explicit_eviction_by_family_and_wholesale() {
        let mut store = SolutionStore::new(8);
        store.insert(key(1.0), "rc", result(1.0));
        store.insert(key(2.0), "rc", result(2.0));
        store.insert(key(3.0), "diode", result(3.0));
        assert_eq!(store.evict(Some("rc")), 2);
        assert_eq!(store.len(), 1);
        assert!(store.get(key(3.0)).is_some());
        assert_eq!(store.evict(None), 1);
        assert!(store.is_empty());
        assert_eq!(store.stats().explicit_evictions, 3);
        // Targeted eviction is not an LRU capacity eviction.
        assert_eq!(store.stats().evictions, 0);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut store = SolutionStore::new(0);
        assert_eq!(store.capacity(), 1);
        store.insert(key(1.0), "a", result(1.0));
        store.insert(key(2.0), "a", result(2.0));
        assert_eq!(store.len(), 1);
    }
}
