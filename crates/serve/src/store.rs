//! The bounded, LRU solution store.
//!
//! Keyed by [`JobKey`] — a Jacobian-structure fingerprint folded with
//! quantised job parameters (see [`rfsim_rf::key`]) — and holding
//! [`Arc`]s of completed [`JobResult`]s, so a hit is one hash probe and
//! one refcount bump: the stored samples are handed back byte-for-byte,
//! which is what makes replay *bit-identical by construction*. This is
//! the stack's one solution memo: the sweep engine below it keeps none.
//! The recency and eviction rules are [`TaggedLru`]'s, with entries
//! tagged by family name for targeted eviction.

use std::sync::Arc;

use rfsim_rf::key::JobKey;
use rfsim_rf::lru::TaggedLru;

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

/// A bounded LRU map from job identity to completed solution.
#[derive(Debug)]
pub struct SolutionStore {
    entries: TaggedLru<Arc<JobResult>>,
    explicit_evictions: usize,
}

impl SolutionStore {
    /// A store retaining at most `capacity` solutions (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        SolutionStore {
            entries: TaggedLru::new(capacity.max(1)),
            explicit_evictions: 0,
        }
    }

    /// Maximum retained solutions.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
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
        let lru = self.entries.stats();
        StoreStats {
            hits: lru.hits,
            misses: lru.misses,
            insertions: lru.insertions,
            evictions: lru.evictions,
            explicit_evictions: self.explicit_evictions,
        }
    }

    /// Looks up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: JobKey) -> Option<Arc<JobResult>> {
        self.entries.get(key)
    }

    /// A stat-neutral, recency-neutral lookup. The service's submit fast
    /// path probes with this and re-issues a counting [`Self::get`] only
    /// when it will actually serve the hit, so each submit counts exactly
    /// one store event however many code paths inspect the store.
    pub fn peek(&self, key: JobKey) -> Option<Arc<JobResult>> {
        self.entries.peek(key)
    }

    /// Inserts a completed solution, evicting the least-recently-used
    /// entry if the store is at capacity (replacing an existing key never
    /// evicts). `family` tags the entry for targeted eviction.
    pub fn insert(&mut self, key: JobKey, family: impl Into<String>, result: Arc<JobResult>) {
        self.entries.insert(key, family, result);
    }

    /// Removes entries — all of them, or only one family's — returning
    /// how many were dropped.
    pub fn evict(&mut self, family: Option<&str>) -> usize {
        let dropped = self.entries.evict(family);
        self.explicit_evictions += dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PointSolution;
    use rfsim_numerics::sparse::Triplets;
    use rfsim_rf::key::{JobKeyBuilder, Quantizer};

    fn key(tag: f64) -> JobKey {
        JobKeyBuilder::new(
            Triplets::new(2, 2).pattern_fingerprint(),
            Quantizer::default(),
        )
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
