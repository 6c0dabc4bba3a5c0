//! Distinct counting — the paper's `|π_X(r)|` primitive — plus memoisation.
//!
//! Every measure in the CB method (confidence, goodness, ε_CB) reduces to
//! counting distinct projections, which the paper computes with
//! `SELECT COUNT(DISTINCT …)`. We provide:
//!
//! * [`count_distinct`] — the one counting kernel: a hash set of
//!   dictionary-code tuples on the [`crate::fastkey`] machinery the
//!   incremental trackers and the repair index also use (packed `u64`
//!   keys when every column qualifies, inline/boxed
//!   [`Key`](crate::fastkey::Key)s otherwise);
//! * [`count_distinct_naive`] — row-hashing over materialised values (the
//!   oracle used by tests and the ablation benchmark);
//! * [`DistinctCache`] — a thread-safe memo keyed by [`AttrSet`], because
//!   the repair search re-uses counts such as `|π_X|`, `|π_XA|`, `|π_XAY|`
//!   across queue expansions, and the `mintpool` fan-outs (validation,
//!   discovery levels, candidate scoring) share one memo across tasks.
//!
//! The kernel itself is sequential; parallelism lives one level up, in
//! those fan-outs over independent counts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::attrset::{AttrId, AttrSet};
use crate::fastkey::{key, packable_column, packed_key, FastSet, PACK_MAX_ATTRS};
use crate::relation::Relation;
use crate::value::Value;

/// `|π_attrs(r)|`: the number of distinct projections of `rel` onto
/// `attrs`. NULLs group as a single value per column (SQL `GROUP BY`
/// semantics). The empty attribute set projects every tuple onto the empty
/// tuple, so the count is 1 for a non-empty relation and 0 otherwise.
pub fn count_distinct(rel: &Relation, attrs: &AttrSet) -> usize {
    // Empty relations project to nothing whatever the attribute set —
    // checked before any column is fetched.
    if rel.row_count() == 0 {
        return 0;
    }
    let ids: Vec<AttrId> = attrs.iter().collect();
    match ids.as_slice() {
        [] => 1,
        // Single-attribute fast path: the dictionary already knows the answer.
        &[a] => rel.column(a).distinct_with_null(),
        _ if ids.len() <= PACK_MAX_ATTRS && ids.iter().all(|&a| packable_column(rel.column(a))) => {
            count_keys(rel, &ids, packed_key)
        }
        // The NULL sentinel is an ordinary code here: one group per column.
        _ => count_keys(rel, &ids, key),
    }
}

/// Collect every row's code key into one set and return its size. The set
/// is sized up front to the smaller of the row count and the product of
/// the columns' distinct counts (both bound the answer), so it never
/// rehashes.
fn count_keys<K: std::hash::Hash + Eq>(
    rel: &Relation,
    ids: &[AttrId],
    key_of: impl Fn(&Relation, &[AttrId], usize) -> K,
) -> usize {
    let n = rel.row_count();
    let bound = ids
        .iter()
        .try_fold(1usize, |acc, &a| acc.checked_mul(rel.column(a).distinct_with_null()))
        .map_or(n, |product| product.min(n));
    let mut seen: FastSet<K> = FastSet::with_capacity_and_hasher(bound, Default::default());
    for row in 0..n {
        seen.insert(key_of(rel, ids, row));
    }
    seen.len()
}

/// Reference implementation: hash the materialised value tuples.
/// Far slower than [`count_distinct`]; kept as a correctness oracle and
/// ablation subject.
pub fn count_distinct_naive(rel: &Relation, attrs: &AttrSet) -> usize {
    if rel.row_count() == 0 {
        return 0;
    }
    let cols: Vec<_> = attrs.iter().map(|a| rel.column(a)).collect();
    let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
    for row in 0..rel.row_count() {
        seen.insert(cols.iter().map(|c| c.value_at(row)).collect());
    }
    seen.len()
}

/// Statistics kept by [`DistinctCache`] for the ablation study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to run the counting kernel.
    pub misses: u64,
}

impl CacheStats {
    /// Hit ratio in `[0,1]`; 0 when never queried.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memo table for distinct counts over one relation instance, shared by
/// reference across `mintpool` tasks.
///
/// [`DistinctCache::count`] takes `&self`: the memo sits behind one mutex
/// and counts are computed *outside* the lock. Two racing tasks may both
/// compute the same count (both arriving at the identical value, since
/// counting is deterministic), which is cheaper than serialising every
/// count behind the lock. Hit/miss counters are atomics, so totals are
/// exact, though at widths above 1 the split between hits and misses can
/// vary with the interleaving.
///
/// The cache is tied to a **snapshot** of the relation. It is
/// *epoch-aware*: it records the epoch of the contents it memoised, and
/// [`DistinctCache::sync_epoch`] (or an explicit
/// [`DistinctCache::invalidate`]) clears the memo whenever the underlying
/// data has moved on. Mutable sources such as `evofd-incremental`'s
/// `LiveRelation` expose a monotonically increasing epoch for exactly this
/// handshake. When disabled it still counts misses so ablation runs report
/// comparable work.
#[derive(Debug)]
pub struct DistinctCache {
    memo: Mutex<HashMap<AttrSet, usize>>,
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Source epoch the memoised contents correspond to; `None` means
    /// "not synced to any epoch" (fresh or explicitly invalidated), so the
    /// next [`DistinctCache::sync_epoch`] always clears.
    epoch: Option<u64>,
}

impl DistinctCache {
    /// An enabled cache (not yet synced to any source epoch).
    pub fn new() -> DistinctCache {
        DistinctCache {
            memo: Mutex::new(HashMap::new()),
            enabled: true,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            epoch: None,
        }
    }

    /// A pass-through cache that never memoises (ablation mode).
    pub fn disabled() -> DistinctCache {
        DistinctCache { enabled: false, ..DistinctCache::new() }
    }

    /// The memo, whatever a panicking holder left behind: entries are
    /// inserted whole, so a poisoned map is still consistent.
    fn memo(&self) -> MutexGuard<'_, HashMap<AttrSet, usize>> {
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The source epoch of the contents currently memoised, if the cache
    /// has been synced to one.
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// Drop every memoised entry and forget the synced epoch: call when
    /// the relation this cache was computed over has mutated out-of-band.
    /// (Deliberately does *not* invent a new epoch — only the data source
    /// hands out epochs, so `invalidate` can never collide with a future
    /// [`DistinctCache::sync_epoch`].)
    pub fn invalidate(&mut self) {
        self.clear();
        self.epoch = None;
    }

    /// Align the cache with a data source's epoch. If the source has moved
    /// past the memoised epoch (or the cache was never synced) the memo is
    /// cleared — stale counts can never be served; otherwise this is a
    /// no-op. Returns true if the cache was invalidated.
    pub fn sync_epoch(&mut self, source_epoch: u64) -> bool {
        if self.epoch != Some(source_epoch) {
            self.clear();
            self.epoch = Some(source_epoch);
            true
        } else {
            false
        }
    }

    /// `|π_attrs(rel)|`, memoised. Safe to call from any number of tasks
    /// at once.
    pub fn count(&self, rel: &Relation, attrs: &AttrSet) -> usize {
        if self.enabled {
            if let Some(&n) = self.memo().get(attrs) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return n;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let n = count_distinct(rel, attrs);
        if self.enabled {
            self.memo().insert(attrs.clone(), n);
        }
        n
    }

    /// Number of memoised entries.
    pub fn len(&self) -> usize {
        self.memo().len()
    }

    /// True iff nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drop all memoised entries (keep counters).
    pub fn clear(&mut self) {
        self.memo.get_mut().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

impl Default for DistinctCache {
    fn default() -> Self {
        DistinctCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::relation_of_strs;

    fn rel() -> Relation {
        relation_of_strs("t", &["x", "y"], &[&["a", "1"], &["a", "1"], &["a", "2"], &["b", "1"]])
            .unwrap()
    }

    #[test]
    fn counts_match_naive() {
        let r = rel();
        for names in [vec!["x"], vec!["y"], vec!["x", "y"]] {
            let attrs = r.schema().attr_set(&names).unwrap();
            assert_eq!(
                count_distinct(&r, &attrs),
                count_distinct_naive(&r, &attrs),
                "attrs {names:?}"
            );
        }
    }

    #[test]
    fn expected_counts() {
        let r = rel();
        let s = r.schema();
        assert_eq!(count_distinct(&r, &s.attr_set(&["x"]).unwrap()), 2);
        assert_eq!(count_distinct(&r, &s.attr_set(&["y"]).unwrap()), 2);
        assert_eq!(count_distinct(&r, &s.attr_set(&["x", "y"]).unwrap()), 3);
    }

    #[test]
    fn empty_attrs_and_empty_relation() {
        let r = rel();
        assert_eq!(count_distinct(&r, &AttrSet::empty()), 1);
        let e = relation_of_strs("e", &["x"], &[]).unwrap();
        assert_eq!(count_distinct(&e, &AttrSet::empty()), 0);
        assert_eq!(count_distinct(&e, &e.schema().attr_set(&["x"]).unwrap()), 0);
    }

    #[test]
    fn cache_hits_and_misses() {
        let r = rel();
        let attrs = r.schema().attr_set(&["x", "y"]).unwrap();
        let cache = DistinctCache::new();
        assert_eq!(cache.count(&r, &attrs), 3);
        assert_eq!(cache.count(&r, &attrs), 3);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let r = rel();
        let attrs = r.schema().attr_set(&["x"]).unwrap();
        let cache = DistinctCache::disabled();
        cache.count(&r, &attrs);
        cache.count(&r, &attrs);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert!(cache.is_empty());
    }

    #[test]
    fn invalidate_clears_and_desyncs() {
        let r = rel();
        let attrs = r.schema().attr_set(&["x", "y"]).unwrap();
        let mut cache = DistinctCache::new();
        assert_eq!(cache.epoch(), None);
        cache.sync_epoch(3);
        cache.count(&r, &attrs);
        assert_eq!(cache.len(), 1);
        cache.invalidate();
        assert_eq!(cache.epoch(), None, "invalidate never invents an epoch");
        assert!(cache.is_empty(), "stale entries dropped");
        // Counters survive invalidation (they describe work, not contents).
        assert_eq!(cache.stats().misses, 1);
        // Re-syncing to the same source epoch after an invalidate must
        // still clear (the memo filled in between could be stale).
        cache.count(&r, &attrs);
        assert!(cache.sync_epoch(3), "unsynced cache always clears on sync");
        assert!(cache.is_empty());
    }

    #[test]
    fn sync_epoch_invalidates_only_on_change() {
        let r = rel();
        let attrs = r.schema().attr_set(&["x"]).unwrap();
        let mut cache = DistinctCache::new();
        assert!(cache.sync_epoch(0), "first sync clears the unsynced memo");
        cache.count(&r, &attrs);
        assert!(!cache.sync_epoch(0), "same epoch: memo kept");
        assert_eq!(cache.len(), 1);
        assert!(cache.sync_epoch(7), "source moved on: memo dropped");
        assert!(cache.is_empty());
        assert_eq!(cache.epoch(), Some(7));
        // A mutated relation now yields the fresh count, not the stale one.
        let mut r2 = r.clone();
        r2.append_rows(vec![vec![crate::value::Value::str("new"), crate::value::Value::str("9")]])
            .unwrap();
        assert_eq!(cache.count(&r2, &attrs), 3);
    }

    #[test]
    fn cache_concurrent_access() {
        let r = rel();
        let cache = DistinctCache::new();
        let sets: Vec<_> = [vec!["x"], vec!["y"], vec!["x", "y"]]
            .iter()
            .map(|names| r.schema().attr_set(names).unwrap())
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for attrs in &sets {
                        assert_eq!(cache.count(&r, attrs), count_distinct_naive(&r, attrs));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 3);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 12, "every lookup is counted once");
        assert!(stats.misses >= 3, "each set is counted at least once");
    }

    #[test]
    fn hit_ratio() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn single_attr_fast_path_counts_null_group() {
        use crate::schema::{Field, Schema};
        use crate::value::{DataType, Value};
        let schema = Schema::new("t", vec![Field::new("a", DataType::Int)]).unwrap().into_shared();
        let r = Relation::from_rows(
            schema,
            vec![vec![Value::Null], vec![Value::Int(1)], vec![Value::Null]],
        )
        .unwrap();
        let attrs = r.schema().attr_set(&["a"]).unwrap();
        assert_eq!(count_distinct(&r, &attrs), 2);
        assert_eq!(count_distinct_naive(&r, &attrs), 2);
    }
}
