//! [`TableState`]: the in-memory state of one durable table, and
//! [`TableState::apply_record`], the one state machine that applies a
//! [`WalRecord`] to it.
//!
//! The leader's write path, crash recovery and replica ingest all drive
//! this machine; they differ only in the policies an [`Origin`] carries.
//! Because every copy of a table reaches its state through the same
//! function of the record stream, leader, recovered and replica state
//! (and their history files) agree byte for byte by construction.

use std::collections::HashSet;
use std::path::Path;

use evofd_core::Fd;
use evofd_incremental::{
    AppliedDelta, DecisionRecord, Delta, DriftKind, FdDrift, IncrementalError,
    IncrementalValidator, LiveAdvisor, LiveRelation,
};

use crate::alert::{AlertRule, AlertState, AlertTransition};
use crate::error::{PersistError, Result};
use crate::history::{AlertEntry, DriftEntry, FdSample, HistoryFrame, HistoryWriter, HISTORY_FILE};
use crate::snapshot::{encode_snapshot, SnapshotState};
use crate::store::PersistOptions;
use crate::wal::WalRecord;

/// Who is applying a record. Carries only the policies that differ
/// between the three drivers — alert publishing, `Decision` validation
/// and the error variant; the policy table in [`crate::store`] lists
/// them all, including the journal-side ones the drivers settle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// The leader's own write path.
    Leader,
    /// WAL replay on open.
    Recovery,
    /// A follower applying a shipped leader record.
    Replica,
}

impl Origin {
    fn error(self, table: &str, message: String) -> PersistError {
        match self {
            Origin::Leader => PersistError::Table { name: table.to_string(), message },
            Origin::Recovery => PersistError::Recovery { message },
            Origin::Replica => PersistError::Replication { message },
        }
    }

    /// Count a replica-side rejection under `label`.
    fn count_reject(self, label: &str) {
        if self == Origin::Replica && evofd_obs::enabled() {
            evofd_obs::metrics::REPL_REJECTS_TOTAL.with_label(label).inc();
        }
    }
}

/// What [`TableState::apply_record`] did with a record.
#[derive(Debug)]
pub(crate) enum Applied {
    /// A delta applied, causing these drift events.
    Delta(Vec<FdDrift>),
    /// A rollback: journaled, with no effect on table state.
    Rollback,
    /// Any other record kind applied.
    Other,
    /// The engine rejected a journaled delta; table state is unchanged.
    Rejected(IncrementalError),
}

/// One durable table's in-memory state: everything a snapshot restores
/// plus the derived advisor and the history writer. The journal side
/// (WAL, sequence numbers, lock) lives in [`crate::DurableRelation`].
#[derive(Debug)]
pub(crate) struct TableState {
    pub(crate) live: LiveRelation,
    pub(crate) validator: IncrementalValidator,
    /// The live advisor, materialized on first use and maintained per
    /// record from then on. Derived state: rebuildable from `live`,
    /// `validator` and `decisions` at any time.
    pub(crate) advisor: Option<LiveAdvisor>,
    /// Journaled advisor decisions, in decision order.
    pub(crate) decisions: Vec<DecisionRecord>,
    /// Canonical names of the columns under secondary indexing. Only the
    /// set is durable; index contents are rebuilt by the SQL engine.
    pub(crate) indexed_columns: Vec<String>,
    /// Journaled alert rules plus their runtime streaks.
    pub(crate) alerts: AlertState,
    /// The durable FD-health time series writer — `None` when
    /// [`PersistOptions::history_stride`] is 0.
    pub(crate) history: Option<HistoryWriter>,
    history_stride: u64,
    /// The application stream cursor.
    pub(crate) cursor: u64,
}

impl TableState {
    /// The one constructor: a fresh state over `live` + `validator` with
    /// no decisions, indexes or alerts, its history writer opened in
    /// `dir`. [`TableState::from_snapshot`] fills in the rest.
    pub(crate) fn new(
        dir: &Path,
        opts: &PersistOptions,
        mut live: LiveRelation,
        validator: IncrementalValidator,
    ) -> Result<TableState> {
        live.set_compact_threshold(opts.compact_threshold);
        let history = if opts.history_stride > 0 {
            Some(HistoryWriter::open(&dir.join(HISTORY_FILE))?)
        } else {
            None
        };
        Ok(TableState {
            live,
            validator,
            advisor: None,
            decisions: Vec::new(),
            indexed_columns: Vec::new(),
            alerts: AlertState::new(),
            history,
            history_stride: opts.history_stride,
            cursor: 0,
        })
    }

    /// State restored from a decoded snapshot image (imported tracker
    /// counts — no relation scan) — what open, bootstrap and
    /// re-bootstrap build.
    pub(crate) fn from_snapshot(
        dir: &Path,
        opts: &PersistOptions,
        image: SnapshotState,
    ) -> Result<TableState> {
        let validator = IncrementalValidator::from_tracker_snapshots(
            &image.live,
            image.fds,
            image.config,
            &image.trackers,
        )
        .map_err(|e| PersistError::Recovery { message: e.to_string() })?;
        Ok(TableState {
            decisions: image.decisions,
            indexed_columns: image.indexed_columns,
            alerts: image.alerts,
            cursor: image.cursor,
            ..TableState::new(dir, opts, image.live, validator)?
        })
    }

    /// The canonical snapshot image of this state at `last_seq`.
    pub(crate) fn encode(&self, last_seq: u64) -> Vec<u8> {
        encode_snapshot(
            &self.live,
            &self.validator,
            &self.decisions,
            &self.indexed_columns,
            &self.alerts,
            last_seq,
            self.cursor,
        )
    }

    /// Apply one record. `journal` runs after the record is validated and
    /// before anything mutates, so a record that cannot apply never
    /// reaches the WAL.
    pub(crate) fn apply_record(
        &mut self,
        record: &WalRecord,
        origin: Origin,
        journal: impl FnOnce() -> Result<()>,
    ) -> Result<Applied> {
        let fail = |message: String| origin.error(self.live.schema().name(), message);
        match record {
            WalRecord::Delta { seq, epoch_after, cursor, inserts, deletes } => {
                let delta = Delta {
                    inserts: inserts.clone(),
                    deletes: deletes.iter().map(|&d| d as usize).collect(),
                };
                return Ok(
                    match self.apply_delta(&delta, *seq, *epoch_after, *cursor, origin, journal)? {
                        Ok((_, drift)) => Applied::Delta(drift),
                        Err(e) => Applied::Rejected(e),
                    },
                );
            }
            WalRecord::Rollback { .. } => {
                journal()?;
                return Ok(Applied::Rollback);
            }
            WalRecord::Compact { seq, epoch_after } => {
                self.check_epoch(*seq, *epoch_after, origin)?;
                journal()?;
                self.live.compact();
                self.check_epoch_reached(*seq, *epoch_after, origin)?;
                self.validator.resync(&self.live);
                // Compaction remaps row ids and dictionary codes: a
                // materialized advisor's indexes must rebuild too.
                if let Some(advisor) = &mut self.advisor {
                    advisor.resync(&self.live, &self.validator);
                }
            }
            WalRecord::Cursor { value, .. } => {
                journal()?;
                self.cursor = *value;
            }
            WalRecord::FdSet { seq, fds: texts } => {
                let schema = self.live.schema();
                let fds = texts
                    .iter()
                    .map(|t| {
                        Fd::parse(schema, t)
                            .map_err(|e| fail(format!("record {seq}: FD `{t}`: {e}")))
                    })
                    .collect::<Result<Vec<Fd>>>()?;
                journal()?;
                let config = self.validator.config().clone();
                self.validator = IncrementalValidator::with_config(&self.live, fds, config);
                // Retire decisions whose FD is no longer tracked.
                let kept: HashSet<String> =
                    self.validator.fds().iter().map(|f| f.display(self.live.schema())).collect();
                self.decisions.retain(|d| kept.contains(&d.fd));
                self.advisor = None; // derived: rebuilt lazily over the new set
            }
            WalRecord::Decision { seq, record: decision } => {
                if origin == Origin::Replica {
                    self.check_decision(*seq, decision, origin)?;
                }
                journal()?;
                if let Some(advisor) = &mut self.advisor {
                    advisor.restore(decision).map_err(|e| fail(format!("record {seq}: {e}")))?;
                }
                self.decisions.push(decision.clone());
            }
            WalRecord::IndexSet { seq, columns } => {
                for col in columns {
                    self.live.schema().resolve(col).map_err(|_| {
                        fail(format!("record {seq}: indexed column `{col}` is not in the schema"))
                    })?;
                }
                journal()?;
                self.indexed_columns = columns.clone();
            }
            WalRecord::AlertSet { seq, rules: texts } => {
                let rules = texts
                    .iter()
                    .map(|t| {
                        AlertRule::parse(t)
                            .map_err(|e| fail(format!("record {seq}: alert rule `{t}`: {e}")))
                    })
                    .collect::<Result<Vec<AlertRule>>>()?;
                journal()?;
                self.alerts.install(rules);
            }
        }
        Ok(Applied::Other)
    }

    /// The delta arm of [`TableState::apply_record`], taking the rows by
    /// reference so the leader applies its caller's delta without a copy.
    /// `Ok(Err(_))` is a deterministic engine rejection: the delta was
    /// journaled, nothing changed.
    pub(crate) fn apply_delta(
        &mut self,
        delta: &Delta,
        seq: u64,
        epoch_after: u64,
        cursor: Option<u64>,
        origin: Origin,
        journal: impl FnOnce() -> Result<()>,
    ) -> Result<std::result::Result<(AppliedDelta, Vec<FdDrift>), IncrementalError>> {
        self.check_epoch(seq, epoch_after, origin)?;
        journal()?;
        let applied = match self.live.apply(delta) {
            Ok(applied) => applied,
            Err(e) => return Ok(Err(e)),
        };
        self.check_epoch_reached(seq, epoch_after, origin)?;
        if let Some(v) = cursor {
            self.cursor = v;
        }
        let drift = self.validator.apply_at(&self.live, &applied, seq);
        if let Some(advisor) = &mut self.advisor {
            advisor.apply(&self.live, &self.validator, &applied);
        }
        // Sample history + evaluate alerts BEFORE any compaction bumps
        // the epoch past the one this delta journaled. Replay re-derives
        // the alert runtime without re-announcing transitions.
        let transitions = self.record_history_frame(seq, &drift)?;
        if origin != Origin::Recovery {
            self.publish_alert_transitions(transitions, seq);
        }
        Ok(Ok((applied, drift)))
    }

    /// Epoch continuity gate, checked BEFORE anything mutates: every delta
    /// and every compaction advances the epoch by exactly one, so a
    /// mismatch means records were skipped or the states diverged.
    fn check_epoch(&self, seq: u64, epoch_after: u64, origin: Origin) -> Result<()> {
        if epoch_after == self.live.epoch() + 1 {
            return Ok(());
        }
        origin.count_reject("epoch");
        Err(origin.error(
            self.live.schema().name(),
            format!(
                "record {seq}: journaled epoch_after {epoch_after} does not follow epoch {} — \
                 records were skipped or states diverged (re-bootstrap a replica)",
                self.live.epoch()
            ),
        ))
    }

    /// The same gate after the mutation: the record must land on exactly
    /// the epoch it journaled.
    fn check_epoch_reached(&self, seq: u64, epoch_after: u64, origin: Origin) -> Result<()> {
        if self.live.epoch() == epoch_after {
            return Ok(());
        }
        Err(origin.error(
            self.live.schema().name(),
            format!(
                "record {seq}: journaled epoch {epoch_after} but apply reached {} — states \
                 diverged",
                self.live.epoch()
            ),
        ))
    }

    /// A shipped decision must name a tracked FD that carries no decision
    /// yet, or recovery would re-install it unconditionally and every later
    /// advisor materialization would fail.
    fn check_decision(&self, seq: u64, decision: &DecisionRecord, origin: Origin) -> Result<()> {
        let known = Fd::parse(self.live.schema(), &decision.fd)
            .ok()
            .is_some_and(|fd| self.validator.fds().contains(&fd));
        let message = if !known {
            format!("record {seq}: decision names unknown FD `{}`", decision.fd)
        } else if self.decisions.iter().any(|d| d.fd == decision.fd) {
            format!("record {seq}: FD `{}` already carries a decision", decision.fd)
        } else {
            return Ok(());
        };
        origin.count_reject("decision");
        Err(origin.error(self.live.schema().name(), message))
    }

    /// Sample one durable history frame and evaluate the alert rules.
    ///
    /// Alert runtime is **always** advanced on a sampled epoch — the
    /// streaks forward-derive deterministically from the snapshot — but
    /// the frame is only appended when this epoch is beyond the file's
    /// last frame, which de-duplicates replayed and re-shipped epochs.
    fn record_history_frame(
        &mut self,
        seq: u64,
        drift: &[FdDrift],
    ) -> Result<Vec<AlertTransition>> {
        let Some(history) = self.history.as_mut() else { return Ok(Vec::new()) };
        let epoch = self.live.epoch();
        if self.history_stride == 0 || !epoch.is_multiple_of(self.history_stride) {
            return Ok(Vec::new());
        }
        let schema = self.live.schema();
        let validator = &self.validator;
        let samples: Vec<FdSample> = validator
            .fds()
            .iter()
            .enumerate()
            .map(|(i, fd)| FdSample {
                fd: fd.display(schema),
                confidence: validator.measures(i).confidence,
                g3: validator.g3(i),
                violating_groups: validator.summary(i).violating_groups as u64,
                violated: !validator.is_exact(i),
            })
            .collect();
        let transitions = self.alerts.evaluate(|fd_text| {
            samples
                .iter()
                .find(|s| s.fd == fd_text)
                .map(|s| (s.confidence, s.g3, s.violating_groups))
        });
        let frame = HistoryFrame {
            epoch,
            seq,
            rows: self.live.row_count() as u64,
            samples,
            drifts: drift
                .iter()
                .map(|d| DriftEntry {
                    fd: d.fd.display(schema),
                    kind: drift_kind_token(&d.kind),
                    confidence_before: d.confidence_before,
                    confidence_after: d.confidence_after,
                    groups: d.groups.clone(),
                })
                .collect(),
            alerts: transitions
                .iter()
                .map(|t| AlertEntry { rule: t.rule.to_string(), fd: t.fd.clone(), fired: t.fired })
                .collect(),
        };
        if !frame.is_empty() && epoch > history.last_epoch() {
            history.append(&frame)?;
        }
        Ok(transitions)
    }

    /// Fan freshly evaluated alert transitions out to the observability
    /// surfaces: the per-table counter families, the trace ring, and the
    /// validator's drift feed (as [`DriftKind::AlertFired`] /
    /// [`DriftKind::AlertResolved`] events).
    fn publish_alert_transitions(&mut self, transitions: Vec<AlertTransition>, seq: u64) {
        for t in transitions {
            if evofd_obs::enabled() {
                let family = if t.fired {
                    &evofd_obs::metrics::ALERTS_FIRED_TOTAL
                } else {
                    &evofd_obs::metrics::ALERTS_RESOLVED_TOTAL
                };
                family.with_label(self.live.schema().name()).inc();
                let _span = evofd_obs::span(if t.fired { "alert.fired" } else { "alert.resolved" });
            }
            let index =
                self.validator.fds().iter().position(|f| f.display(self.live.schema()) == t.fd);
            if let Some(i) = index {
                let confidence = self.validator.measures(i).confidence;
                let kind = if t.fired {
                    DriftKind::AlertFired { rule: t.rule.to_string() }
                } else {
                    DriftKind::AlertResolved { rule: t.rule.to_string() }
                };
                let event = FdDrift {
                    fd_index: i,
                    fd: self.validator.fds()[i].clone(),
                    kind,
                    confidence_before: confidence,
                    confidence_after: confidence,
                    epoch: self.live.epoch(),
                    seq,
                    groups: Vec::new(),
                };
                self.validator.publish_drift(event);
            }
        }
    }
}

/// Stable one-token rendering of a [`DriftKind`] for durable
/// [`DriftEntry`] records (byte-for-byte deterministic; parsed back by
/// nothing — the history file stores, SQL filters on substrings).
fn drift_kind_token(kind: &DriftKind) -> String {
    match kind {
        DriftKind::BecameViolated => "violated".into(),
        DriftKind::BecameExact => "exact".into(),
        DriftKind::ConfidenceCrossed { threshold, upward } => {
            format!("crossed-{}@{threshold}", if *upward { "up" } else { "down" })
        }
        DriftKind::AlertFired { rule } => format!("alert-fired:{rule}"),
        DriftKind::AlertResolved { rule } => format!("alert-resolved:{rule}"),
    }
}
