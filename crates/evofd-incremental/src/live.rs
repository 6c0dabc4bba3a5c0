//! [`LiveRelation`]: a mutable relation built from an immutable
//! [`Relation`] plus an append/tombstone delta log.
//!
//! Physical layout: appended rows go at the tail of the underlying
//! relation (re-using dictionary codes via
//! [`Relation::append_rows`]); deleted rows are tombstoned in place.
//! Between compactions every surviving row keeps its physical id **and**
//! its dictionary codes, which is what lets the incremental trackers in
//! [`crate::validator`] update only the touched rows. Compaction (when the
//! tombstone fraction passes a threshold) rewrites the relation
//! canonically and bumps the epoch, signalling every dependent cache and
//! tracker to rebuild.

use evofd_storage::{Relation, Schema, Value};

use crate::delta::{AppliedDelta, Delta};
use crate::error::{IncrementalError, Result};

/// Default tombstone fraction above which [`LiveRelation::maybe_compact`]
/// rewrites the relation.
pub const DEFAULT_COMPACT_THRESHOLD: f64 = 0.3;

/// A relation that accepts batched [`Delta`]s while staying queryable.
#[derive(Debug, Clone)]
pub struct LiveRelation {
    rel: Relation,
    live: Vec<bool>,
    dead: usize,
    epoch: u64,
    compact_threshold: f64,
}

impl LiveRelation {
    /// Wrap an existing relation (all rows live, epoch 0).
    pub fn new(rel: Relation) -> LiveRelation {
        let live = vec![true; rel.row_count()];
        LiveRelation { rel, live, dead: 0, epoch: 0, compact_threshold: DEFAULT_COMPACT_THRESHOLD }
    }

    /// Override the compaction threshold (tombstone fraction in `(0, 1]`).
    pub fn with_compact_threshold(mut self, threshold: f64) -> LiveRelation {
        self.set_compact_threshold(threshold);
        self
    }

    /// Set the compaction threshold in place (tombstone fraction in
    /// `(0, 1]`) — the non-consuming sibling of
    /// [`LiveRelation::with_compact_threshold`], for CLI/session wiring.
    pub fn set_compact_threshold(&mut self, threshold: f64) {
        self.compact_threshold = threshold.clamp(f64::EPSILON, 1.0);
    }

    /// The configured compaction threshold.
    pub fn compact_threshold(&self) -> f64 {
        self.compact_threshold
    }

    /// Reassemble a live relation from its physical parts — the relation
    /// image (tombstoned rows still present, dictionaries intact), the
    /// liveness mask and the epoch. This is the crash-recovery entry point
    /// (`evofd-persist` snapshots): because the physical layout is restored
    /// exactly, dictionary codes recorded elsewhere (WAL tails, tracker
    /// keys) remain valid. The mask must cover every physical row.
    pub fn from_parts(rel: Relation, live: Vec<bool>, epoch: u64) -> Result<LiveRelation> {
        if live.len() != rel.row_count() {
            return Err(IncrementalError::StateMismatch {
                message: format!(
                    "liveness mask covers {} rows but the relation has {}",
                    live.len(),
                    rel.row_count()
                ),
            });
        }
        let dead = live.iter().filter(|&&l| !l).count();
        Ok(LiveRelation { rel, live, dead, epoch, compact_threshold: DEFAULT_COMPACT_THRESHOLD })
    }

    /// The liveness mask over physical rows (true = live).
    pub fn live_mask(&self) -> &[bool] {
        &self.live
    }

    /// The underlying **physical** relation: appended rows at the tail,
    /// tombstoned rows still present. Use [`LiveRelation::is_live`] to
    /// interpret row ids, or [`LiveRelation::snapshot`] for a canonical
    /// tombstone-free relation.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.rel.schema()
    }

    /// Number of **live** tuples.
    pub fn row_count(&self) -> usize {
        self.rel.row_count() - self.dead
    }

    /// Number of physical rows (live + tombstoned).
    pub fn physical_rows(&self) -> usize {
        self.rel.row_count()
    }

    /// True iff no live tuples remain.
    pub fn is_empty(&self) -> bool {
        self.row_count() == 0
    }

    /// True iff physical row `row` exists and is not tombstoned.
    pub fn is_live(&self, row: usize) -> bool {
        self.live.get(row).copied().unwrap_or(false)
    }

    /// Iterate the physical ids of live rows, ascending.
    pub fn live_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter().enumerate().filter_map(|(i, &l)| l.then_some(i))
    }

    /// Fraction of physical rows that are tombstones (0 for empty).
    pub fn dead_fraction(&self) -> f64 {
        if self.rel.row_count() == 0 {
            0.0
        } else {
            self.dead as f64 / self.rel.row_count() as f64
        }
    }

    /// The mutation epoch: bumped by every non-empty delta and every
    /// compaction. [`evofd_storage::DistinctCache::sync_epoch`] consumes
    /// this to avoid serving stale counts.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// First live row whose tuple equals `values`, if any (linear scan —
    /// the convenience lookup behind value-addressed deletes).
    pub fn find_live_row(&self, values: &[Value]) -> Option<usize> {
        self.live_rows().find(|&r| self.rel.row(r) == values)
    }

    /// Apply a delta atomically: either every insert and delete lands, or
    /// the relation is unchanged and an error describes why. Deletes are
    /// validated first (they must name distinct, live, existing physical
    /// rows — rows inserted by this same delta cannot be deleted by it),
    /// then inserts are validated and appended, then tombstones are set.
    ///
    /// Returns the applied record the incremental validator consumes.
    /// The epoch advances iff the delta was non-empty.
    pub fn apply(&mut self, delta: &Delta) -> Result<AppliedDelta> {
        let physical = self.rel.row_count();
        // 1. Validate deletes.
        let mut seen = std::collections::HashSet::with_capacity(delta.deletes.len());
        for &row in &delta.deletes {
            if row >= physical {
                return Err(IncrementalError::RowOutOfRange { row, rows: physical });
            }
            if !self.live[row] {
                return Err(IncrementalError::DeadRow { row });
            }
            if !seen.insert(row) {
                return Err(IncrementalError::DuplicateDelete { row });
            }
        }
        // 2. Validate + append inserts (atomic inside storage).
        let appended = self.rel.append_rows(delta.inserts.iter().cloned())?;
        self.live.resize(physical + appended, true);
        // 3. Tombstone deletes (infallible after validation).
        for &row in &delta.deletes {
            self.live[row] = false;
        }
        self.dead += delta.deletes.len();
        if !delta.is_empty() {
            self.epoch += 1;
        }
        Ok(AppliedDelta {
            inserted: physical..physical + appended,
            deleted: delta.deletes.clone(),
            epoch: self.epoch,
        })
    }

    /// A canonical, tombstone-free [`Relation`] of the current contents
    /// (dictionaries rebuilt). O(live rows).
    pub fn snapshot(&self) -> Relation {
        if self.dead == 0 {
            return self.rel.clone();
        }
        let keep: Vec<usize> = self.live_rows().collect();
        self.rel.gather(&keep)
    }

    /// Rewrite the physical relation without tombstones, invalidating all
    /// physical row ids and dictionary codes. Bumps the epoch. Returns the
    /// number of tombstones reclaimed.
    pub fn compact(&mut self) -> usize {
        let reclaimed = self.dead;
        if reclaimed == 0 {
            return 0;
        }
        self.rel = self.snapshot();
        self.live = vec![true; self.rel.row_count()];
        self.dead = 0;
        self.epoch += 1;
        reclaimed
    }

    /// True iff the tombstone fraction exceeds the configured threshold —
    /// the condition under which [`LiveRelation::maybe_compact`] compacts.
    pub fn needs_compaction(&self) -> bool {
        self.dead_fraction() > self.compact_threshold
    }

    /// Compact iff the tombstone fraction exceeds the configured
    /// threshold. Returns the number of tombstones reclaimed (0 if no
    /// compaction ran).
    pub fn maybe_compact(&mut self) -> usize {
        if self.needs_compaction() {
            self.compact()
        } else {
            0
        }
    }

    /// Consume the wrapper and return a canonical relation of the live
    /// contents. Cheap when nothing is tombstoned.
    pub fn into_relation(mut self) -> Relation {
        if self.dead == 0 {
            self.rel
        } else {
            self.compact();
            self.rel
        }
    }
}

impl From<Relation> for LiveRelation {
    fn from(rel: Relation) -> LiveRelation {
        LiveRelation::new(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::relation_of_strs;

    fn base() -> LiveRelation {
        LiveRelation::new(
            relation_of_strs("t", &["x", "y"], &[&["a", "1"], &["b", "2"], &["c", "3"]]).unwrap(),
        )
    }

    fn srow(a: &str, b: &str) -> Vec<Value> {
        vec![Value::str(a), Value::str(b)]
    }

    #[test]
    fn insert_appends_and_bumps_epoch() {
        let mut lr = base();
        let applied = lr.apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        assert_eq!(applied.inserted, 3..4);
        assert_eq!(applied.epoch, 1);
        assert_eq!(lr.row_count(), 4);
        assert_eq!(lr.physical_rows(), 4);
        assert!(lr.is_live(3));
        assert_eq!(lr.relation().row(3), srow("d", "4"));
    }

    #[test]
    fn delete_tombstones_without_moving_rows() {
        let mut lr = base();
        let applied = lr.apply(&Delta::deleting([1])).unwrap();
        assert_eq!(applied.deleted, vec![1]);
        assert_eq!(lr.row_count(), 2);
        assert_eq!(lr.physical_rows(), 3, "tombstoned, not removed");
        assert!(!lr.is_live(1));
        assert!(lr.is_live(0) && lr.is_live(2));
        assert_eq!(lr.live_rows().collect::<Vec<_>>(), vec![0, 2]);
        let snap = lr.snapshot();
        assert_eq!(snap.row_count(), 2);
        assert_eq!(snap.row(1), srow("c", "3"));
    }

    #[test]
    fn mixed_delta_is_atomic_on_bad_insert() {
        let mut lr = base();
        let bad = Delta {
            inserts: vec![vec![Value::str("only-one-value")]], // arity 1 != 2
            deletes: vec![0],
        };
        let err = lr.apply(&bad).unwrap_err();
        assert!(matches!(err, IncrementalError::Storage(_)));
        assert_eq!(lr.row_count(), 3, "nothing applied");
        assert!(lr.is_live(0), "delete was not applied either");
        assert_eq!(lr.epoch(), 0);
    }

    #[test]
    fn delete_validation() {
        let mut lr = base();
        assert!(matches!(
            lr.apply(&Delta::deleting([9])),
            Err(IncrementalError::RowOutOfRange { row: 9, rows: 3 })
        ));
        lr.apply(&Delta::deleting([1])).unwrap();
        assert!(matches!(
            lr.apply(&Delta::deleting([1])),
            Err(IncrementalError::DeadRow { row: 1 })
        ));
        assert!(matches!(
            lr.apply(&Delta::deleting([0, 0])),
            Err(IncrementalError::DuplicateDelete { row: 0 })
        ));
        // Deleting a row being inserted by the same delta is out of range.
        let d = Delta { inserts: vec![srow("d", "4")], deletes: vec![3] };
        assert!(matches!(lr.apply(&d), Err(IncrementalError::RowOutOfRange { .. })));
    }

    #[test]
    fn codes_stable_until_compaction() {
        let mut lr = base();
        let code_c = lr.relation().column(evofd_storage::AttrId(0)).code_at(2);
        lr.apply(&Delta::deleting([0])).unwrap();
        lr.apply(&Delta::inserting(vec![srow("c", "9")])).unwrap();
        // "c" re-used its dictionary code, and row 2 never moved.
        assert_eq!(lr.relation().column(evofd_storage::AttrId(0)).code_at(2), code_c);
        assert_eq!(lr.relation().column(evofd_storage::AttrId(0)).code_at(3), code_c);
    }

    #[test]
    fn compaction_reclaims_and_bumps_epoch() {
        let mut lr = base().with_compact_threshold(0.5);
        lr.apply(&Delta::deleting([0])).unwrap();
        assert_eq!(lr.maybe_compact(), 0, "1/3 dead is under the 0.5 threshold");
        lr.apply(&Delta::deleting([1])).unwrap();
        let epoch_before = lr.epoch();
        assert_eq!(lr.maybe_compact(), 2);
        assert_eq!(lr.physical_rows(), 1);
        assert_eq!(lr.row_count(), 1);
        assert_eq!(lr.epoch(), epoch_before + 1);
        assert!((lr.dead_fraction() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let mut lr = base();
        let applied = lr.apply(&Delta::new()).unwrap();
        assert!(applied.is_empty());
        assert_eq!(lr.epoch(), 0, "no-op deltas do not invalidate caches");
    }

    #[test]
    fn find_live_row_skips_tombstones() {
        let mut lr = base();
        assert_eq!(lr.find_live_row(&srow("b", "2")), Some(1));
        lr.apply(&Delta::deleting([1])).unwrap();
        assert_eq!(lr.find_live_row(&srow("b", "2")), None);
        assert_eq!(lr.find_live_row(&srow("c", "3")), Some(2));
    }

    #[test]
    fn from_parts_restores_physical_state() {
        let mut lr = base();
        lr.apply(&Delta::deleting([1])).unwrap();
        lr.apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        let rebuilt =
            LiveRelation::from_parts(lr.relation().clone(), lr.live_mask().to_vec(), lr.epoch())
                .unwrap();
        assert_eq!(rebuilt.row_count(), lr.row_count());
        assert_eq!(rebuilt.physical_rows(), lr.physical_rows());
        assert_eq!(rebuilt.epoch(), lr.epoch());
        assert_eq!(rebuilt.live_mask(), lr.live_mask());
        assert_eq!(rebuilt.live_rows().collect::<Vec<_>>(), lr.live_rows().collect::<Vec<_>>());
        // Mask length mismatch is rejected.
        let err = LiveRelation::from_parts(lr.relation().clone(), vec![true], 0).unwrap_err();
        assert!(matches!(err, IncrementalError::StateMismatch { .. }));
    }

    #[test]
    fn set_compact_threshold_in_place() {
        let mut lr = base();
        lr.set_compact_threshold(0.9);
        assert!((lr.compact_threshold() - 0.9).abs() < 1e-12);
        lr.set_compact_threshold(0.0);
        assert!(lr.compact_threshold() > 0.0, "clamped away from zero");
    }

    #[test]
    fn into_relation_compacts_when_needed() {
        let mut lr = base();
        lr.apply(&Delta::deleting([2])).unwrap();
        let rel = lr.into_relation();
        assert_eq!(rel.row_count(), 2);
        let lr2 = base();
        assert_eq!(lr2.into_relation().row_count(), 3);
    }
}
