//! Cross-run content-keyed result cache.
//!
//! CI-driven traffic re-submits identical test sets constantly; re-evolving
//! a result the service already computed is pure waste. The cache maps a
//! [`crate::JobSpec::content_key`] — a hash of exactly the
//! result-determining spec fields, built on
//! [`evotc_core::test_set_content_hash`] — to the finished
//! [`JobResultData`] plus the [`JobId`] that computed it (the provenance
//! reported to cache-hit submitters).
//!
//! Only *completed* results are inserted: failures are circumstances, not
//! content, and caching them would make one tenant's hostile budget
//! another's wrong answer. Eviction is FIFO by insertion — the workload
//! this serves (duplicate bursts around a CI wave) has no use-recency
//! signal worth tracking, and FIFO keeps eviction deterministic.
//!
//! Determinism note: *whether* a duplicate hits the cache depends on
//! scheduling (did the first copy finish before the second was admitted?),
//! but the bytes served never do — a hit returns exactly what a fresh run
//! of the same spec would compute, because completed results are pure
//! functions of their specs. The byte-identity property tests exploit
//! this: digests must match across worker counts even though hit counts
//! differ.

use std::collections::{HashMap, VecDeque};

use crate::job::{JobId, JobResultData};

/// A cached completed result with its provenance.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The job whose completion populated the entry.
    pub source: JobId,
    /// The completed payload.
    pub data: JobResultData,
}

/// Bounded FIFO store of completed results keyed by spec content (see the
/// `cache` module docs).
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    entries: HashMap<u64, CachedResult>,
    order: VecDeque<u64>,
}

impl ResultCache {
    /// An empty cache retaining at most `capacity` results; `0` disables
    /// caching entirely (every probe misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Looks up a completed result for `key`.
    pub fn get(&self, key: u64) -> Option<&CachedResult> {
        self.entries.get(&key)
    }

    /// Records `data` as the completed result of `key`, evicting the
    /// oldest entry at capacity. First writer wins on duplicate keys: two
    /// racing copies of the same spec computed the same bytes, so
    /// overwriting would only churn the provenance id.
    pub fn insert(&mut self, key: u64, source: JobId, data: JobResultData) {
        if self.capacity == 0 || self.entries.contains_key(&key) {
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, CachedResult { source, data });
        self.order.push_back(key);
    }

    /// Number of retained results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_evo::StopReason;

    fn data(tag: u64) -> JobResultData {
        JobResultData {
            best_genome: Vec::new(),
            best_fitness: tag as f64,
            generations: tag,
            evaluations: tag,
            stop_reason: StopReason::Converged,
        }
    }

    #[test]
    fn fifo_eviction_drops_the_oldest_key() {
        let mut cache = ResultCache::new(2);
        cache.insert(1, JobId(1), data(1));
        cache.insert(2, JobId(2), data(2));
        cache.insert(3, JobId(3), data(3));
        assert!(cache.get(1).is_none(), "oldest evicted");
        assert_eq!(cache.get(2).unwrap().source, JobId(2));
        assert_eq!(cache.get(3).unwrap().source, JobId(3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn first_writer_wins_on_duplicate_keys() {
        let mut cache = ResultCache::new(4);
        cache.insert(7, JobId(1), data(1));
        cache.insert(7, JobId(2), data(2));
        assert_eq!(cache.get(7).unwrap().source, JobId(1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert(1, JobId(1), data(1));
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
    }
}
