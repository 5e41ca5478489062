//! Caching of instance-matching results across query revisions.
//!
//! The paper lists "accelerating the execution speed of updated queries
//! (e.g., by reusing intermediate results)" as future work (§9). Because
//! query building is incremental — every action produces a pattern close to
//! the previous one, and `Revert` re-executes an earlier pattern verbatim —
//! a cache keyed on the canonical pattern text captures most re-executions.
//! The `bench/reuse` benchmark quantifies the effect.

use crate::matching::{match_primary, MatchResult};
use crate::pattern::QueryPattern;
use crate::Result;
use etable_tgm::Tgdb;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// A FIFO cache of matching results, bounded to
/// [`QueryCache::DEFAULT_CAPACITY`] entries.
#[derive(Debug, Default)]
pub struct QueryCache {
    map: HashMap<String, Arc<MatchResult>>,
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
}

impl QueryCache {
    /// Number of cached results (a session's history rarely exceeds a few
    /// dozen steps).
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the matching result for `pattern`, computing and caching it
    /// on a miss.
    pub fn get_or_compute(
        &mut self,
        tgdb: &Tgdb,
        pattern: &QueryPattern,
    ) -> Result<Arc<MatchResult>> {
        let key = pattern.canonical_key(tgdb);
        if let Some(hit) = self.map.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(hit));
        }
        self.misses += 1;
        let result = Arc::new(match_primary(tgdb, pattern)?);
        if self.map.len() >= Self::DEFAULT_CAPACITY {
            if let Some(evict) = self.order.pop_front() {
                self.map.remove(&evict);
            }
        }
        self.map.insert(key.clone(), Arc::clone(&result));
        self.order.push_back(key);
        Ok(result)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops all cached entries (e.g. after the underlying data changes).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::pattern::NodeFilter;
    use crate::testutil::academic_tgdb;
    use etable_relational::expr::CmpOp;

    #[test]
    fn repeated_patterns_hit() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let mut cache = QueryCache::new();
        let a = cache.get_or_compute(&tgdb, &q).unwrap();
        let b = cache.get_or_compute(&tgdb, &q).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn different_filters_do_not_collide() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let q1 = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2010)).unwrap();
        let q2 = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2012)).unwrap();
        let mut cache = QueryCache::new();
        let a = cache.get_or_compute(&tgdb, &q1).unwrap();
        let b = cache.get_or_compute(&tgdb, &q2).unwrap();
        assert_ne!(a.rows().len(), b.rows().len());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let base = ops::initiate(&tgdb, papers).unwrap();
        let year = |y: usize| {
            let filter = NodeFilter::cmp("year", CmpOp::Gt, y as i64);
            ops::select(&tgdb, &base, filter).unwrap()
        };
        let mut cache = QueryCache::new();
        let n = QueryCache::DEFAULT_CAPACITY + 1;
        for y in 0..n {
            cache.get_or_compute(&tgdb, &year(y)).unwrap();
        }
        // The second pattern is still cached; the first was evicted, so
        // re-requesting it is a miss.
        cache.get_or_compute(&tgdb, &year(1)).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, n as u64));
        cache.get_or_compute(&tgdb, &year(0)).unwrap();
        assert_eq!(cache.misses(), n as u64 + 1);
    }
}
