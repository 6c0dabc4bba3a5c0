//! [`IncrementalValidator`]: keeps every FD's [`Measures`] and violation
//! aggregate current under [`crate::Delta`] traffic, falling back to a full
//! rebuild only when a delta is too large a fraction of the relation (or an
//! epoch gap shows rows have been rewritten underneath it).
//!
//! ## Parallel maintenance ownership model
//!
//! Tracker updates fan out across FDs on the `mintpool` width with **no
//! locking on the hot path**: each [`FdTracker`] is owned by exactly one
//! task per delta (disjoint `&mut` splits of the tracker vector), the
//! relation is only read, and the delta's row lists are shared immutably.
//! Trackers never reference each other, so per-FD maintenance — and the
//! full rebuild fallback — is a pure fork-join over independent state;
//! drift detection then runs sequentially over the before/after measures,
//! keeping event order deterministic. At width 1 the fan-out degenerates
//! to the original in-order loop.

use evofd_core::{validate, Fd, FdStatus, Measures, ValidationReport};
use evofd_storage::Relation;

use crate::delta::AppliedDelta;
use crate::error::{IncrementalError, Result};
use crate::feed::{ChangeFeed, DriftKind, FdDrift, SubscriptionId};
use crate::live::LiveRelation;
use crate::tracker::{FdTracker, TrackerSnapshot};

/// Tuning knobs for [`IncrementalValidator`].
#[derive(Debug, Clone)]
pub struct ValidatorConfig {
    /// When a delta's row changes exceed this fraction of the live row
    /// count, rebuild from scratch instead of updating per row. Updating a
    /// tracker row costs a few hash operations versus one scan step of a
    /// rebuild, so for very large deltas the rebuild is cheaper.
    pub full_recompute_fraction: f64,
    /// Confidence thresholds whose crossings (in either direction) emit
    /// [`DriftKind::ConfidenceCrossed`] events.
    pub confidence_thresholds: Vec<f64>,
    /// Per-tracker byte budget: a tracker whose exact group-count state
    /// outgrows this degrades to memory-bounded approximate mode
    /// (sketched distinct counts, exact fallback on demand via
    /// [`IncrementalValidator::exact_summary`]). `None` (the default)
    /// never degrades. This is **session configuration**, not persisted
    /// state: durable snapshots do not carry it, a reopening session
    /// re-applies it through [`IncrementalValidator::set_config`].
    pub tracker_memory_limit: Option<usize>,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        ValidatorConfig {
            full_recompute_fraction: 0.5,
            confidence_thresholds: Vec::new(),
            tracker_memory_limit: None,
        }
    }
}

/// Work counters, for the `incremental_vs_full` bench and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidatorStats {
    /// Deltas observed via [`IncrementalValidator::apply`].
    pub deltas: u64,
    /// Deltas handled by per-row tracker updates.
    pub incremental: u64,
    /// Full rebuilds (oversized deltas, epoch gaps, explicit resyncs).
    pub full_recomputes: u64,
    /// Drift events emitted.
    pub events: u64,
}

/// Violation aggregate for one FD, maintained per delta. The numbers match
/// `evofd_core::violations` on a canonical snapshot exactly; call
/// [`ViolationSummary::materialize`] for the full tuple-level evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationSummary {
    /// The FD.
    pub fd: Fd,
    /// Number of X-groups associated with ≥ 2 Y-projections.
    pub violating_groups: usize,
    /// Live tuples belonging to violating groups.
    pub violating_rows: usize,
    /// Total live tuples.
    pub total_rows: usize,
}

impl ViolationSummary {
    /// True iff the FD is satisfied (no violating groups).
    pub fn is_clean(&self) -> bool {
        self.violating_groups == 0
    }

    /// Fraction of tuples involved in violations, in `[0, 1]`.
    pub fn violation_ratio(&self) -> f64 {
        if self.total_rows == 0 {
            0.0
        } else {
            self.violating_rows as f64 / self.total_rows as f64
        }
    }

    /// Materialise the full tuple-level evidence (O(live rows)) against a
    /// canonical snapshot of the live relation.
    pub fn materialize(&self, live: &LiveRelation) -> evofd_core::ViolationReport {
        evofd_core::violations(&live.snapshot(), &self.fd)
    }
}

/// Delta-maintained FD validation over one [`LiveRelation`].
///
/// ```
/// use evofd_core::Fd;
/// use evofd_incremental::{Delta, IncrementalValidator, LiveRelation};
/// use evofd_storage::{relation_of_strs, Value};
///
/// let rel = relation_of_strs("t", &["X", "Y"], &[&["a", "1"], &["b", "2"]]).unwrap();
/// let fd = Fd::parse(rel.schema(), "X -> Y").unwrap();
/// let mut live = LiveRelation::new(rel);
/// let mut validator = IncrementalValidator::new(&live, vec![fd]);
/// assert!(validator.is_exact(0));
///
/// // One conflicting insert flips the FD to violated — no rescan.
/// let delta = Delta::inserting(vec![vec![Value::str("a"), Value::str("9")]]);
/// let applied = live.apply(&delta).unwrap();
/// let drift = validator.apply(&live, &applied);
/// assert_eq!(drift.len(), 1);
/// assert!(!validator.is_exact(0));
/// ```
#[derive(Debug)]
pub struct IncrementalValidator {
    fds: Vec<Fd>,
    trackers: Vec<FdTracker>,
    config: ValidatorConfig,
    last_epoch: u64,
    /// Live row count as of the last observed delta (kept independently of
    /// the trackers so a zero-FD validator still reports it correctly).
    rows: usize,
    stats: ValidatorStats,
    feed: ChangeFeed,
    /// Cached per-FD histogram handles (label = FD display string), built
    /// lazily on the first apply with observability enabled so the labeled
    /// registry lookup never sits on the per-delta hot path.
    fd_hists: Vec<std::sync::Arc<evofd_obs::Histogram>>,
}

impl IncrementalValidator {
    /// Build validator state for `fds` with one scan of the live rows.
    pub fn new(live: &LiveRelation, fds: Vec<Fd>) -> IncrementalValidator {
        IncrementalValidator::with_config(live, fds, ValidatorConfig::default())
    }

    /// Build with explicit configuration.
    pub fn with_config(
        live: &LiveRelation,
        fds: Vec<Fd>,
        config: ValidatorConfig,
    ) -> IncrementalValidator {
        let limit = config.tracker_memory_limit;
        let trackers = mintpool::par_map(&fds, |fd| {
            FdTracker::build(fd, live.relation(), live.live_rows(), limit)
        });
        IncrementalValidator {
            fds,
            trackers,
            config,
            last_epoch: live.epoch(),
            rows: live.row_count(),
            stats: ValidatorStats::default(),
            feed: ChangeFeed::new(),
            fd_hists: Vec::new(),
        }
    }

    /// Reassemble a validator from exported tracker state (crash
    /// recovery). The snapshots must have been exported against the same
    /// physical relation layout `live` now has — dictionary codes are the
    /// tracker keys — and must agree with the live row count; both are
    /// checked cheaply (count consistency), the rest is the caller's
    /// contract (`evofd-persist` guards it with checksums).
    pub fn from_tracker_snapshots(
        live: &LiveRelation,
        fds: Vec<Fd>,
        config: ValidatorConfig,
        snapshots: &[TrackerSnapshot],
    ) -> Result<IncrementalValidator> {
        if snapshots.len() != fds.len() {
            return Err(IncrementalError::StateMismatch {
                message: format!("{} tracker snapshots for {} FDs", snapshots.len(), fds.len()),
            });
        }
        let limit = config.tracker_memory_limit;
        let mut trackers = Vec::with_capacity(fds.len());
        for (fd, snap) in fds.iter().zip(snapshots) {
            if snap.approx {
                // Approximate trackers persist no group state — rebuild
                // from the live rows, then re-degrade (when a limit is
                // configured) so resumed state matches the original
                // instead of silently turning exact.
                let mut tracker = FdTracker::build(fd, live.relation(), live.live_rows(), limit);
                if limit.is_some() {
                    tracker.degrade_now();
                }
                trackers.push(tracker);
                continue;
            }
            let tracker = FdTracker::import(fd, snap, limit).ok_or_else(|| {
                IncrementalError::StateMismatch {
                    message: "malformed tracker snapshot (zero or duplicate counts)".into(),
                }
            })?;
            if tracker.total_rows() != live.row_count() {
                return Err(IncrementalError::StateMismatch {
                    message: format!(
                        "tracker covers {} rows but the relation has {} live",
                        tracker.total_rows(),
                        live.row_count()
                    ),
                });
            }
            trackers.push(tracker);
        }
        Ok(IncrementalValidator {
            fds,
            trackers,
            config,
            last_epoch: live.epoch(),
            rows: live.row_count(),
            stats: ValidatorStats::default(),
            feed: ChangeFeed::new(),
            fd_hists: Vec::new(),
        })
    }

    /// Export every tracker's group-count state in FD order — the
    /// serializable core a columnar snapshot persists so recovery can skip
    /// the O(rows) tracker rebuild.
    pub fn export_trackers(&self) -> Vec<TrackerSnapshot> {
        mintpool::par_map(&self.trackers, FdTracker::export)
    }

    /// The validator's configuration.
    pub fn config(&self) -> &ValidatorConfig {
        &self.config
    }

    /// Replace the configuration going forward (thresholds, recompute
    /// fraction, memory limit) — e.g. a recovered validator adopting this
    /// session's `--threshold`s. Thresholds and the recompute fraction
    /// only steer future [`IncrementalValidator::apply`] calls; the
    /// memory limit is pushed into every tracker and may degrade one to
    /// approximate mode immediately (it never un-degrades until the next
    /// rebuild).
    pub fn set_config(&mut self, config: ValidatorConfig) {
        let limit = config.tracker_memory_limit;
        self.config = config;
        for tracker in &mut self.trackers {
            tracker.set_memory_limit(limit);
        }
    }

    /// The FDs under validation, in index order.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// Current measures of FD `i` — always in sync with the last applied
    /// delta, identical to a from-scratch [`Measures::compute`] on a
    /// canonical snapshot.
    pub fn measures(&self, i: usize) -> Measures {
        self.trackers[i].measures()
    }

    /// True iff FD `i` is exact on the current contents.
    pub fn is_exact(&self, i: usize) -> bool {
        self.trackers[i].measures().is_exact()
    }

    /// The `g3` measure of FD `i`: the minimal fraction of live tuples
    /// whose deletion would satisfy the FD (0 when satisfied or empty) —
    /// computed from the maintained group counts, no relation scan.
    pub fn g3(&self, i: usize) -> f64 {
        let total = self.trackers[i].total_rows();
        if total == 0 {
            0.0
        } else {
            self.trackers[i].g3_removals() as f64 / total as f64
        }
    }

    /// True when FD `i`'s tracker runs in memory-bounded approximate
    /// mode: [`IncrementalValidator::measures`] and the violation
    /// aggregate are sketch estimates; exact answers come from
    /// [`IncrementalValidator::exact_summary`].
    pub fn is_approx(&self, i: usize) -> bool {
        self.trackers[i].is_approx()
    }

    /// FD `i`'s tracker representation name (`packed` | `general` |
    /// `approx`), for stats surfaces and tests.
    pub fn tracker_repr(&self, i: usize) -> &'static str {
        self.trackers[i].repr_name()
    }

    /// The **exact** violation aggregate of FD `i`: when the tracker is
    /// approximate, a transient exact tracker is built from the live rows
    /// (O(live rows), bounded peak memory only by the relation itself);
    /// otherwise this is just [`IncrementalValidator::summary`].
    pub fn exact_summary(&self, live: &LiveRelation, i: usize) -> ViolationSummary {
        if !self.trackers[i].is_approx() {
            return self.summary(i);
        }
        let t = FdTracker::build(&self.fds[i], live.relation(), live.live_rows(), None);
        ViolationSummary {
            fd: self.fds[i].clone(),
            violating_groups: t.violating_groups(),
            violating_rows: t.violating_rows(),
            total_rows: t.total_rows(),
        }
    }

    /// The **exact** measures of FD `i` (see
    /// [`IncrementalValidator::exact_summary`]).
    pub fn exact_measures(&self, live: &LiveRelation, i: usize) -> Measures {
        if !self.trackers[i].is_approx() {
            return self.measures(i);
        }
        FdTracker::build(&self.fds[i], live.relation(), live.live_rows(), None).measures()
    }

    /// Current violation aggregate of FD `i`.
    pub fn summary(&self, i: usize) -> ViolationSummary {
        ViolationSummary {
            fd: self.fds[i].clone(),
            violating_groups: self.trackers[i].violating_groups(),
            violating_rows: self.trackers[i].violating_rows(),
            total_rows: self.trackers[i].total_rows(),
        }
    }

    /// Violation aggregates for every FD.
    pub fn summaries(&self) -> Vec<ViolationSummary> {
        (0..self.fds.len()).map(|i| self.summary(i)).collect()
    }

    /// A batch-shaped [`ValidationReport`] assembled from the maintained
    /// state (no relation scan).
    pub fn report(&self) -> ValidationReport {
        let statuses = self
            .fds
            .iter()
            .zip(&self.trackers)
            .map(|(fd, t)| FdStatus { fd: fd.clone(), measures: t.measures() })
            .collect();
        ValidationReport { statuses, row_count: self.rows }
    }

    /// Work counters.
    pub fn stats(&self) -> ValidatorStats {
        self.stats
    }

    /// The epoch of the live relation this validator last observed.
    pub fn epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Subscribe to the validator's drift feed.
    pub fn subscribe(&mut self) -> SubscriptionId {
        self.feed.subscribe()
    }

    /// Drain unseen drift events for a subscription.
    pub fn poll(&mut self, id: SubscriptionId) -> Vec<FdDrift> {
        self.feed.poll(id)
    }

    /// Cancel a subscription so the feed stops retaining events for it.
    pub fn unsubscribe(&mut self, id: SubscriptionId) {
        self.feed.unsubscribe(id);
    }

    /// Publish an externally produced event to the drift feed (e.g. an
    /// alert-rule transition evaluated by a durable store on top of this
    /// validator's samples).
    pub fn publish_drift(&mut self, event: FdDrift) {
        self.feed.publish(event);
    }

    /// Advance the validator past a delta that was applied to `live`.
    /// Chooses per-row maintenance or a full rebuild (oversized delta /
    /// epoch gap, e.g. after a compaction), emits drift events to the feed
    /// and returns them. Events carry seq 0; durable callers that know the
    /// delta's WAL sequence should use [`IncrementalValidator::apply_at`].
    pub fn apply(&mut self, live: &LiveRelation, applied: &AppliedDelta) -> Vec<FdDrift> {
        self.apply_at(live, applied, 0)
    }

    /// [`IncrementalValidator::apply`] with drift provenance: `seq` is the
    /// durable WAL sequence number of the applied delta and is stamped on
    /// every drift event, alongside the antecedent keys of groups this
    /// delta newly flipped into violation.
    pub fn apply_at(
        &mut self,
        live: &LiveRelation,
        applied: &AppliedDelta,
        seq: u64,
    ) -> Vec<FdDrift> {
        let timer = evofd_obs::Timer::start();
        evofd_obs::metrics::TRACKER_DELTAS_TOTAL.inc();
        evofd_obs::metrics::TRACKER_ROWS_TOUCHED_TOTAL.add(applied.len() as u64);
        self.stats.deltas += 1;
        let before: Vec<Measures> = self.trackers.iter().map(FdTracker::measures).collect();

        let contiguous = !applied.is_empty() && applied.epoch == self.last_epoch + 1;
        let oversized = applied.len() as f64
            > self.config.full_recompute_fraction * live.row_count().max(1) as f64;
        if applied.is_empty() && live.epoch() == self.last_epoch {
            return Vec::new();
        }
        if contiguous && !oversized && live.epoch() == applied.epoch {
            if evofd_obs::enabled() && self.fd_hists.len() != self.fds.len() {
                let schema = live.relation().schema();
                self.fd_hists = self
                    .fds
                    .iter()
                    .map(|fd| {
                        evofd_obs::metrics::TRACKER_FD_APPLY_SECONDS.with_label(&fd.display(schema))
                    })
                    .collect();
            }
            // Per-tracker ownership: each task gets exclusive `&mut` over
            // its trackers and shared reads of the relation and delta, so
            // the fan-out needs no locks (see the module doc).
            let rel = live.relation();
            let deleted = &applied.deleted;
            let inserted = applied.inserted.clone();
            let fd_hists = &self.fd_hists;
            mintpool::par_for_each_mut(&mut self.trackers, |i, tracker| {
                let fd_timer = evofd_obs::Timer::start();
                for &row in deleted {
                    tracker.remove_row(rel, row);
                }
                for row in inserted.clone() {
                    tracker.insert_row(rel, row);
                }
                if let Some(h) = fd_hists.get(i) {
                    fd_timer.observe(h);
                }
            });
            self.stats.incremental += 1;
            evofd_obs::metrics::TRACKER_INCREMENTAL_TOTAL.inc();
        } else {
            self.rebuild(live);
        }
        self.last_epoch = live.epoch();
        self.rows = live.row_count();

        let mut events = Vec::new();
        for (i, before_m) in before.iter().enumerate() {
            let after_m = self.trackers[i].measures();
            let groups = self.render_new_violating(live, i);
            self.drift_events(i, before_m, &after_m, live.epoch(), seq, &groups, &mut events);
        }
        self.stats.events += events.len() as u64;
        evofd_obs::metrics::TRACKER_DRIFT_EVENTS_TOTAL.add(events.len() as u64);
        for e in &events {
            self.feed.publish(e.clone());
        }
        timer.observe(&evofd_obs::metrics::TRACKER_APPLY_SECONDS);
        events
    }

    /// Rebuild every tracker from the live rows (used for oversized deltas
    /// and after compactions; also callable directly after out-of-band
    /// mutations).
    pub fn resync(&mut self, live: &LiveRelation) {
        self.rebuild(live);
        self.last_epoch = live.epoch();
        self.rows = live.row_count();
    }

    fn rebuild(&mut self, live: &LiveRelation) {
        let fds = &self.fds;
        let limit = self.config.tracker_memory_limit;
        mintpool::par_for_each_mut(&mut self.trackers, |i, tracker| {
            *tracker = FdTracker::build(&fds[i], live.relation(), live.live_rows(), limit);
        });
        self.stats.full_recomputes += 1;
        evofd_obs::metrics::TRACKER_REBUILDS_TOTAL.inc();
    }

    /// Cap on rendered group keys per drift event: enough to pinpoint the
    /// offending antecedents without bloating the durable history.
    const MAX_PROVENANCE_GROUPS: usize = 8;

    /// Drain FD `i`'s newly-violating antecedent keys and render them
    /// against the relation's dictionaries ("a|b" per key, sorted by code
    /// tuple, capped at [`Self::MAX_PROVENANCE_GROUPS`]).
    fn render_new_violating(&mut self, live: &LiveRelation, i: usize) -> Vec<String> {
        let keys = self.trackers[i].take_new_violating();
        if keys.is_empty() {
            return Vec::new();
        }
        let rel = live.relation();
        let attrs: Vec<evofd_storage::AttrId> = self.trackers[i].lhs_attrs().to_vec();
        keys.iter()
            .take(Self::MAX_PROVENANCE_GROUPS)
            .map(|key| {
                let cells: Vec<String> = attrs
                    .iter()
                    .zip(key.iter())
                    .map(|(&a, &code)| {
                        if code == evofd_storage::NULL_CODE {
                            "NULL".to_string()
                        } else {
                            rel.column(a).dict().decode(code).to_string()
                        }
                    })
                    .collect();
                cells.join("|")
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn drift_events(
        &self,
        i: usize,
        before: &Measures,
        after: &Measures,
        epoch: u64,
        seq: u64,
        groups: &[String],
        out: &mut Vec<FdDrift>,
    ) {
        let base = |kind: DriftKind| FdDrift {
            fd_index: i,
            fd: self.fds[i].clone(),
            kind,
            confidence_before: before.confidence,
            confidence_after: after.confidence,
            epoch,
            seq,
            groups: groups.to_vec(),
        };
        match (before.is_exact(), after.is_exact()) {
            (true, false) => out.push(base(DriftKind::BecameViolated)),
            (false, true) => out.push(base(DriftKind::BecameExact)),
            _ => {}
        }
        for &t in &self.config.confidence_thresholds {
            let (b, a) = (before.confidence, after.confidence);
            if b < t && a >= t {
                out.push(base(DriftKind::ConfidenceCrossed { threshold: t, upward: true }));
            } else if b >= t && a < t {
                out.push(base(DriftKind::ConfidenceCrossed { threshold: t, upward: false }));
            }
        }
    }

    /// Convenience check used by tests and callers that want certainty:
    /// recompute everything from a canonical snapshot and compare with the
    /// maintained state. Returns the batch-computed report.
    pub fn verify_against(&self, snapshot: &Relation) -> ValidationReport {
        validate(snapshot, &self.fds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use evofd_storage::{relation_of_strs, DistinctCache, Value};

    fn srow(a: &str, b: &str, c: &str) -> Vec<Value> {
        vec![Value::str(a), Value::str(b), Value::str(c)]
    }

    fn setup() -> (LiveRelation, IncrementalValidator) {
        let rel = relation_of_strs(
            "t",
            &["X", "Y", "Z"],
            &[&["a", "1", "p"], &["b", "2", "p"], &["c", "3", "q"]],
        )
        .unwrap();
        let fds = vec![
            Fd::parse(rel.schema(), "X -> Y").unwrap(),
            Fd::parse(rel.schema(), "Z -> Y").unwrap(), // violated from the start
        ];
        let live = LiveRelation::new(rel);
        let validator = IncrementalValidator::new(&live, fds);
        (live, validator)
    }

    fn assert_matches_full(live: &LiveRelation, v: &IncrementalValidator) {
        let snap = live.snapshot();
        let full = v.verify_against(&snap);
        for (i, status) in full.statuses.iter().enumerate() {
            assert_eq!(v.measures(i), status.measures, "FD #{i} measures diverged");
            let report = evofd_core::violations(&snap, &v.fds()[i]);
            let summary = v.summary(i);
            assert_eq!(summary.violating_groups, report.groups.len(), "FD #{i} groups");
            assert_eq!(summary.violating_rows, report.violating_rows(), "FD #{i} rows");
            assert_eq!(summary.total_rows, snap.row_count());
        }
    }

    #[test]
    fn initial_state_matches_batch() {
        let (live, v) = setup();
        assert!(v.is_exact(0));
        assert!(!v.is_exact(1));
        assert_matches_full(&live, &v);
        assert_eq!(v.report().violation_count(), 1);
    }

    #[test]
    fn insert_delete_cycle_stays_in_sync_and_emits_drift() {
        let (mut live, mut v) = setup();
        let sub = v.subscribe();

        // Insert a row conflicting with X -> Y.
        let applied = live.apply(&Delta::inserting(vec![srow("a", "9", "p")])).unwrap();
        let drift = v.apply(&live, &applied);
        assert_eq!(drift.len(), 1);
        assert!(matches!(drift[0].kind, DriftKind::BecameViolated));
        assert_eq!(drift[0].fd_index, 0);
        assert_matches_full(&live, &v);

        // Delete it again: the FD is repaired by the data.
        let row = live.find_live_row(&srow("a", "9", "p")).unwrap();
        let applied = live.apply(&Delta::deleting([row])).unwrap();
        let drift = v.apply(&live, &applied);
        assert!(matches!(drift[0].kind, DriftKind::BecameExact));
        assert_matches_full(&live, &v);

        let polled = v.poll(sub);
        assert_eq!(polled.len(), 2, "feed carried both events");
        assert_eq!(v.stats().incremental, 2);
        assert_eq!(v.stats().full_recomputes, 0);
    }

    #[test]
    fn oversized_delta_triggers_full_recompute() {
        let (mut live, mut v) = setup();
        let rows: Vec<Vec<Value>> =
            (0..50).map(|i| srow(&format!("x{i}"), &format!("{i}"), "p")).collect();
        let applied = live.apply(&Delta::inserting(rows)).unwrap();
        v.apply(&live, &applied);
        assert_eq!(v.stats().full_recomputes, 1, "50 rows into 3 is oversized");
        assert_eq!(v.stats().incremental, 0);
        assert_matches_full(&live, &v);
    }

    #[test]
    fn compaction_epoch_gap_forces_rebuild() {
        let (mut live, mut v) = setup();
        let applied = live.apply(&Delta::deleting([0])).unwrap();
        v.apply(&live, &applied);
        assert_eq!(v.stats().incremental, 1);
        // Compact out of band: codes and row ids all change.
        assert!(live.compact() > 0);
        let applied = live.apply(&Delta::inserting(vec![srow("d", "4", "q")])).unwrap();
        let _ = v.apply(&live, &applied);
        assert_eq!(v.stats().full_recomputes, 1, "epoch gap detected");
        assert_matches_full(&live, &v);
    }

    #[test]
    fn threshold_crossings_fire_both_directions() {
        let rel = relation_of_strs("t", &["X", "Y"], &[&["a", "1"]]).unwrap();
        let fd = Fd::parse(rel.schema(), "X -> Y").unwrap();
        let mut live = LiveRelation::new(rel);
        let config = ValidatorConfig {
            confidence_thresholds: vec![0.75],
            full_recompute_fraction: 10.0, // keep the incremental path
            ..ValidatorConfig::default()
        };
        let mut v = IncrementalValidator::with_config(&live, vec![fd], config);

        // Push confidence to 0.5: crosses 0.75 downward (and BecameViolated).
        let applied =
            live.apply(&Delta::inserting(vec![vec![Value::str("a"), Value::str("2")]])).unwrap();
        let drift = v.apply(&live, &applied);
        assert!(drift
            .iter()
            .any(|d| matches!(d.kind, DriftKind::ConfidenceCrossed { upward: false, .. })));
        // Adding distinct clean groups raises confidence back over 0.75:
        // 4 clean groups + the dirty pair = 5/6 ≈ 0.83.
        let rows: Vec<Vec<Value>> = (0..4)
            .map(|i| vec![Value::str(format!("c{i}")), Value::str(format!("y{i}"))])
            .collect();
        let applied = live.apply(&Delta::inserting(rows)).unwrap();
        let drift = v.apply(&live, &applied);
        assert!(drift
            .iter()
            .any(|d| matches!(d.kind, DriftKind::ConfidenceCrossed { upward: true, .. })));
    }

    #[test]
    fn report_matches_validate_shape() {
        let (live, v) = setup();
        let report = v.report();
        let full = validate(&live.snapshot(), v.fds());
        assert_eq!(report.row_count, full.row_count);
        assert_eq!(report.violation_count(), full.violation_count());
        for (a, b) in report.statuses.iter().zip(&full.statuses) {
            assert_eq!(a.measures, b.measures);
        }
    }

    #[test]
    fn zero_fd_validator_still_reports_row_count() {
        let rel = relation_of_strs("t", &["X"], &[&["a"], &["b"], &["c"]]).unwrap();
        let mut live = LiveRelation::new(rel);
        let mut v = IncrementalValidator::new(&live, Vec::new());
        assert_eq!(v.report().row_count, 3);
        let applied = live.apply(&Delta::deleting([0])).unwrap();
        v.apply(&live, &applied);
        assert_eq!(v.report().row_count, 2);
        assert!(v.report().all_satisfied(), "vacuously");
    }

    #[test]
    fn summary_materializes_real_report() {
        let (mut live, mut v) = setup();
        let applied = live.apply(&Delta::inserting(vec![srow("a", "9", "p")])).unwrap();
        v.apply(&live, &applied);
        let summary = v.summary(0);
        assert!(!summary.is_clean());
        let report = summary.materialize(&live);
        assert_eq!(report.groups.len(), summary.violating_groups);
        assert_eq!(report.violating_rows(), summary.violating_rows);
        assert!((summary.violation_ratio() - report.violation_ratio()).abs() < 1e-12);
    }

    #[test]
    fn tracker_snapshots_round_trip_through_validator() {
        let (mut live, mut v) = setup();
        let applied = live.apply(&Delta::inserting(vec![srow("a", "9", "p")])).unwrap();
        v.apply(&live, &applied);
        let applied = live.apply(&Delta::deleting([1])).unwrap();
        v.apply(&live, &applied);

        let snaps = v.export_trackers();
        let rebuilt = IncrementalValidator::from_tracker_snapshots(
            &live,
            v.fds().to_vec(),
            v.config().clone(),
            &snaps,
        )
        .unwrap();
        for i in 0..v.fds().len() {
            assert_eq!(rebuilt.measures(i), v.measures(i), "FD #{i}");
            assert_eq!(rebuilt.summary(i), v.summary(i), "FD #{i}");
        }
        assert_eq!(rebuilt.epoch(), live.epoch());
        assert_matches_full(&live, &rebuilt);

        // The rebuilt validator keeps tracking incrementally.
        let mut rebuilt = rebuilt;
        let applied = live.apply(&Delta::inserting(vec![srow("e", "5", "r")])).unwrap();
        rebuilt.apply(&live, &applied);
        assert_eq!(rebuilt.stats().incremental, 1);
        assert_matches_full(&live, &rebuilt);
    }

    #[test]
    fn from_tracker_snapshots_validates_shape() {
        let (live, v) = setup();
        let snaps = v.export_trackers();
        // Wrong snapshot count.
        let err = IncrementalValidator::from_tracker_snapshots(
            &live,
            v.fds().to_vec(),
            ValidatorConfig::default(),
            &snaps[..1],
        )
        .unwrap_err();
        assert!(matches!(err, IncrementalError::StateMismatch { .. }));
        // Row-count disagreement.
        let mut short = live.clone();
        let applied = short.apply(&Delta::deleting([0])).unwrap();
        assert_eq!(applied.deleted, vec![0]);
        let err = IncrementalValidator::from_tracker_snapshots(
            &short,
            v.fds().to_vec(),
            ValidatorConfig::default(),
            &snaps,
        )
        .unwrap_err();
        assert!(matches!(err, IncrementalError::StateMismatch { .. }));
    }

    #[test]
    fn measures_agree_with_epoch_synced_cache() {
        let (mut live, mut v) = setup();
        let mut cache = DistinctCache::new();
        cache.sync_epoch(live.epoch());
        let snap = live.snapshot();
        let m0 = Measures::compute(&snap, &v.fds()[0].clone(), &cache);
        assert_eq!(m0, v.measures(0));
        let applied = live.apply(&Delta::inserting(vec![srow("a", "9", "p")])).unwrap();
        v.apply(&live, &applied);
        assert!(cache.sync_epoch(live.epoch()), "cache invalidated by mutation");
        let snap = live.snapshot();
        let m1 = Measures::compute(&snap, &v.fds()[0].clone(), &cache);
        assert_eq!(m1, v.measures(0));
    }
}
