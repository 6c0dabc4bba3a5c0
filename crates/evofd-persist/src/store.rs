//! [`DurableRelation`]: one table's in-memory state plus its journal — a
//! WAL every change is written to **before** it is applied, and periodic
//! columnar snapshots, so recovery is snapshot-load + WAL-tail replay —
//! and [`Database`], a directory of durable relations.
//!
//! ## Directory layout
//!
//! ```text
//! <data-dir>/<table>/snapshot.bin   columnar snapshot (atomic rename)
//! <data-dir>/<table>/wal.log        record WAL since that snapshot
//! <data-dir>/<table>/history.bin    FD-health time series
//! ```
//!
//! ## One state machine, three drivers
//!
//! Every change to a table is a [`WalRecord`], and exactly one function
//! applies records to table state: `TableState::apply_record` in the
//! `table` module. It runs the epoch-continuity gates before and after
//! every delta and compaction, maintains trackers, advisor, history and
//! alerts, and calls back into the journal between validating a record
//! and mutating anything. Three thin drivers feed it:
//!
//! * **Write path (leader)** — [`DurableRelation::apply`], `set_fds`,
//!   `set_cursor`, decisions, …: build the record, journal it, apply it.
//!   Tombstone compaction is decided here (the live relation's
//!   threshold) and applied as a journaled `Compact` record through the
//!   same arm recovery and replicas replay. When the WAL outgrows
//!   [`PersistOptions::wal_compact_bytes`], write a fresh snapshot and
//!   reset the WAL.
//! * **Recovery** — [`DurableRelation::open`]: load the snapshot (exact
//!   physical layout, imported tracker counts — no relation scan),
//!   truncate any torn WAL tail to the last checksum-valid record, skip
//!   records the snapshot folded in and deltas a rollback cancelled, then
//!   feed each surviving record.
//! * **Replica** — `ReplicaState::apply_frame`: skip duplicate
//!   deliveries, hold the doom gate, then validate, journal under the
//!   leader's sequence number, apply.
//!
//! The policies that differ:
//!
//! | policy | Leader | Recovery | Replica |
//! |---|---|---|---|
//! | journal | before apply | never | after validation, before apply |
//! | engine rejects a delta | journal `Rollback`, `sync`, return `Err` | at the tail: amputate the record; mid-log: hard `Recovery` error | hold as pending doom until the leader's rollback |
//! | publish alert transitions | yes | no | yes |
//! | decide tombstone compaction | yes, via the threshold | no, replays `Compact` | no, replays `Compact` |
//! | WAL-threshold checkpoint | yes | no | yes |
//! | reject a `Decision` naming an unknown FD or repeating one | by construction | no | yes |
//! | error variant for a bad record | `Table` | `Recovery` | `Replication` |
//!
//! Because leader, recovered and replica state are the same function of
//! the same record stream, their snapshot images and history files agree
//! byte for byte by construction.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use evofd_core::{Fd, Repair};
use evofd_incremental::{
    AppliedDelta, DecisionAction, DecisionRecord, Delta, FdDrift, IncrementalValidator,
    LiveAdvisor, LiveRelation, ValidatorConfig, DEFAULT_COMPACT_THRESHOLD,
};
use evofd_storage::Relation;

use crate::alert::{AlertRule, AlertState};
use crate::error::{io_err, PersistError, Result};
use crate::history::{scan_history, scan_history_bytes, HistoryFrame, HistoryWriter, HISTORY_FILE};
use crate::lock::DirLock;
use crate::replication::Shipment;
use crate::snapshot::{decode_snapshot, read_snapshot, write_file_atomic, SnapshotState};
use crate::table::{Applied, Origin, TableState};
use crate::wal::{recover_wal, scan_wal, SyncPolicy, WalRecord, WalWriter};

/// Snapshot file name inside a table directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// WAL file name inside a table directory.
pub const WAL_FILE: &str = "wal.log";

/// Tuning knobs for the durable engine.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// When the WAL writer `fsync`s (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// WAL length (bytes) above which a snapshot is written and the WAL
    /// reset — the snapshot-compaction threshold.
    pub wal_compact_bytes: u64,
    /// Tombstone fraction above which the live relation compacts (the
    /// same knob as [`LiveRelation::with_compact_threshold`]).
    pub compact_threshold: f64,
    /// Epoch stride of the durable FD-health history: a frame is sampled
    /// into the table's `history.bin` whenever `epoch % stride == 0`.
    /// `1` samples every applied delta; `0` disables history entirely
    /// (no file is opened and nothing is ever written).
    pub history_stride: u64,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            sync: SyncPolicy::PerCommit,
            wal_compact_bytes: 4 << 20,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            history_stride: 1,
        }
    }
}

/// What [`DurableRelation::open`] did to get back to a consistent state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch restored from the snapshot.
    pub snapshot_epoch: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// Journaled deltas skipped because a rollback record cancelled them.
    pub rolled_back: usize,
    /// Bytes of torn tail truncated from the WAL.
    pub torn_bytes: u64,
}

/// What [`DurableRelation::ingest_replicated`] did with one shipped
/// record (the follower-side apply outcome).
#[derive(Debug)]
pub enum ReplicaIngest {
    /// The record applied (or was a rollback/cursor bookkeeping record);
    /// any FD drift it caused is attached.
    Applied(Vec<FdDrift>),
    /// The record's `seq` was already acked — a duplicate delivery,
    /// ignored without journaling.
    Skipped,
    /// A journaled delta was rejected by the engine (deterministically —
    /// the leader rejected it too); the follower now expects the leader's
    /// rollback record for it.
    Doomed,
}

/// Append `record` to the WAL and advance the next sequence number past
/// it — the journal step every leader and replica record goes through.
fn journal(wal: &mut WalWriter, next_seq: &mut u64, record: &WalRecord) -> Result<()> {
    wal.append(record)?;
    *next_seq = record.seq() + 1;
    Ok(())
}

/// A live relation + incremental validator with WAL + snapshot durability.
#[derive(Debug)]
pub struct DurableRelation {
    dir: PathBuf,
    /// Everything the records apply to (see [`crate::table`]).
    state: TableState,
    wal: WalWriter,
    opts: PersistOptions,
    next_seq: u64,
    recovery: RecoveryReport,
    /// `last_seq` of the snapshot currently on disk — the shipping
    /// horizon: records at or below it are only available via bootstrap.
    snapshot_seq: u64,
    /// Follower-side only: a journaled delta the engine rejected, awaiting
    /// the leader's rollback record.
    doomed: Option<u64>,
    /// Cached per-table metric handles for the apply hot path (applies
    /// counter + latency histogram) — avoids a registry lookup per delta.
    apply_stats: Option<(Arc<evofd_obs::Counter>, Arc<evofd_obs::Histogram>)>,
    /// Held for the lifetime of this handle; released on drop.
    #[allow(dead_code)] // held for its Drop side effect
    lock: DirLock,
}

impl DurableRelation {
    /// Create a table directory from an initial relation and FD set:
    /// writes the initial snapshot (epoch 0) and an empty WAL. Fails if a
    /// snapshot already exists there.
    pub fn create(
        dir: &Path,
        rel: Relation,
        fds: Vec<Fd>,
        config: ValidatorConfig,
        opts: PersistOptions,
    ) -> Result<DurableRelation> {
        let snap_path = dir.join(SNAPSHOT_FILE);
        if snap_path.exists() {
            return Err(PersistError::Table {
                name: rel.name().to_string(),
                message: format!("{} already exists", snap_path.display()),
            });
        }
        let lock = DirLock::acquire(dir)?;
        let live = LiveRelation::new(rel);
        let validator = IncrementalValidator::with_config(&live, fds, config);
        let state = TableState::new(dir, &opts, live, validator)?;
        write_file_atomic(&snap_path, &state.encode(0))?;
        let wal = WalWriter::create(&dir.join(WAL_FILE), opts.sync)?;
        Ok(DurableRelation {
            dir: dir.to_path_buf(),
            state,
            wal,
            opts,
            next_seq: 1,
            recovery: RecoveryReport::default(),
            snapshot_seq: 0,
            doomed: None,
            apply_stats: None,
            lock,
        })
    }

    /// Open an existing table directory: acquire its lock, load the
    /// snapshot, truncate any torn WAL tail, replay the surviving records.
    pub fn open(dir: &Path, opts: PersistOptions) -> Result<DurableRelation> {
        let lock = DirLock::acquire(dir)?;
        DurableRelation::open_with_lock(dir, opts, lock, None)
    }

    /// [`DurableRelation::open`] with a pre-acquired lock, starting from
    /// `image` when the caller already decoded the on-disk snapshot
    /// (bootstrap, which must hold the lock while writing the files).
    pub(crate) fn open_with_lock(
        dir: &Path,
        opts: PersistOptions,
        lock: DirLock,
        image: Option<SnapshotState>,
    ) -> Result<DurableRelation> {
        let recovery_timer = evofd_obs::Timer::start();
        let image = match image {
            Some(image) => image,
            None => {
                let load_timer = evofd_obs::Timer::start();
                let image = read_snapshot(&dir.join(SNAPSHOT_FILE))?;
                load_timer.observe(&evofd_obs::metrics::SNAPSHOT_LOAD_SECONDS);
                image
            }
        };
        let snapshot_seq = image.last_seq;
        let mut state = TableState::from_snapshot(dir, &opts, image)?;

        let wal_path = dir.join(WAL_FILE);
        let mut scan = recover_wal(&wal_path)?;
        let rollback_targets: HashSet<u64> =
            scan.records.iter().filter_map(WalRecord::rollback_target).collect();
        let mut report = RecoveryReport {
            snapshot_epoch: state.live.epoch(),
            torn_bytes: scan.torn_bytes,
            ..RecoveryReport::default()
        };
        let mut max_seq = snapshot_seq;
        for (i, record) in scan.records.iter().enumerate() {
            let seq = record.seq();
            max_seq = max_seq.max(seq);
            if seq <= snapshot_seq {
                continue; // already folded into the snapshot
            }
            if rollback_targets.contains(&seq) {
                report.rolled_back += 1;
                continue;
            }
            match state.apply_record(record, Origin::Recovery, || Ok(()))? {
                Applied::Delta(_) | Applied::Other => report.replayed += 1,
                Applied::Rollback => {}
                // A doomed FINAL delta with no rollback record is the
                // crash window between journaling a delta, having the
                // engine reject it atomically, and persisting the
                // rollback. The rejection is deterministic and the state
                // never advanced, so the record is an implicit rollback —
                // amputate it from the log. Anywhere *before* the tail the
                // same failure means real corruption (later records were
                // journaled against a state this delta never produced).
                Applied::Rejected(_) if i + 1 == scan.records.len() => {
                    let cut = scan.offsets[i];
                    let file = std::fs::OpenOptions::new()
                        .write(true)
                        .open(&wal_path)
                        .map_err(|e| io_err(&wal_path, e))?;
                    file.set_len(cut).map_err(|e| io_err(&wal_path, e))?;
                    file.sync_all().map_err(|e| io_err(&wal_path, e))?;
                    scan.valid_bytes = cut;
                    report.rolled_back += 1;
                }
                Applied::Rejected(e) => {
                    return Err(PersistError::Recovery {
                        message: format!("replaying record {seq}: {e}"),
                    })
                }
            }
        }

        let wal = WalWriter::open_at(&wal_path, opts.sync, scan.valid_bytes)?;
        evofd_obs::metrics::RECOVERY_REPLAYED_TOTAL.add(report.replayed as u64);
        recovery_timer.observe(&evofd_obs::metrics::RECOVERY_SECONDS);
        Ok(DurableRelation {
            dir: dir.to_path_buf(),
            state,
            wal,
            opts,
            next_seq: max_seq + 1,
            recovery: report,
            snapshot_seq,
            doomed: None,
            apply_stats: None,
            lock,
        })
    }

    /// The live relation (read-only; mutate through [`Self::apply`]).
    pub fn live(&self) -> &LiveRelation {
        &self.state.live
    }

    /// The incremental validator (read-only).
    pub fn validator(&self) -> &IncrementalValidator {
        &self.state.validator
    }

    /// Mutable validator access — for drift-feed subscriptions; do not
    /// mutate tracker state out of band.
    pub fn validator_mut(&mut self) -> &mut IncrementalValidator {
        &mut self.state.validator
    }

    /// The table name (from the schema).
    pub fn name(&self) -> &str {
        self.state.live.schema().name()
    }

    /// The table's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current WAL length in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// What the last [`DurableRelation::open`] replayed (all zeros for a
    /// freshly created table).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The application stream cursor (see [`Self::set_cursor`]).
    pub fn cursor(&self) -> u64 {
        self.state.cursor
    }

    /// Journal and apply `record` through the shared state machine.
    fn commit(&mut self, record: &WalRecord, origin: Origin) -> Result<Applied> {
        let (wal, next_seq) = (&mut self.wal, &mut self.next_seq);
        self.state.apply_record(record, origin, || journal(wal, next_seq, record))
    }

    /// Journal and set the stream cursor — an application-defined resume
    /// position (e.g. delta-stream records consumed by `evofd watch`).
    pub fn set_cursor(&mut self, value: u64) -> Result<()> {
        if value == self.state.cursor {
            return Ok(()); // no movement: don't grow the WAL or pay a sync
        }
        self.commit(&WalRecord::Cursor { seq: self.next_seq, value }, Origin::Leader)?;
        Ok(())
    }

    /// Adjust the tombstone compaction threshold (also journaled state in
    /// the sense that compactions themselves are journaled; the threshold
    /// is session configuration).
    pub fn set_compact_threshold(&mut self, threshold: f64) {
        self.state.live.set_compact_threshold(threshold);
        self.opts.compact_threshold = threshold;
    }

    /// Apply a delta durably: journal, apply, maintain trackers, maybe
    /// compact, maybe snapshot. Returns the application record and the
    /// drift events. On failure the WAL carries a rollback record and the
    /// in-memory state is unchanged.
    pub fn apply(&mut self, delta: &Delta) -> Result<(AppliedDelta, Vec<FdDrift>)> {
        self.apply_with_cursor(delta, None)
    }

    /// Like [`Self::apply`], additionally committing a stream-cursor
    /// update in the **same** WAL record, so a crash can never separate a
    /// consumed stream position from its applied delta.
    pub fn apply_with_cursor(
        &mut self,
        delta: &Delta,
        cursor: Option<u64>,
    ) -> Result<(AppliedDelta, Vec<FdDrift>)> {
        if delta.is_empty() {
            if let Some(v) = cursor {
                self.set_cursor(v)?;
            }
            let applied = self.state.live.apply(delta)?; // no-op, keeps semantics
            return Ok((applied, Vec::new()));
        }
        let _span = evofd_obs::span("store.apply");
        let timer = evofd_obs::Timer::start();
        let seq = self.next_seq;
        let epoch_after = self.state.live.epoch() + 1;
        let record = WalRecord::Delta {
            seq,
            epoch_after,
            cursor,
            inserts: delta.inserts.clone(),
            deletes: delta.deletes.iter().map(|&d| d as u64).collect(),
        };
        let (wal, next_seq) = (&mut self.wal, &mut self.next_seq);
        let outcome =
            self.state.apply_delta(delta, seq, epoch_after, cursor, Origin::Leader, || {
                journal(wal, next_seq, &record)
            })?;
        let (applied, drift) = match outcome {
            Ok(done) => done,
            Err(e) => {
                let rollback = WalRecord::Rollback { seq: self.next_seq, target_seq: seq };
                journal(&mut self.wal, &mut self.next_seq, &rollback)?;
                // A rollback must be durable before the error is surfaced,
                // whatever the group-commit policy, or replay would re-apply
                // the cancelled delta.
                self.wal.sync()?;
                return Err(e.into());
            }
        };
        if self.state.live.needs_compaction() {
            if evofd_obs::enabled() {
                evofd_obs::metrics::STORE_COMPACTIONS_TOTAL.with_label("tombstone").inc();
                evofd_obs::metrics::ADVISOR_RESYNCS_TOTAL.with_label("compaction").inc();
            }
            let epoch_after = self.state.live.epoch() + 1;
            self.commit(&WalRecord::Compact { seq: self.next_seq, epoch_after }, Origin::Leader)?;
        }
        self.checkpoint_if_wal_full()?;
        if let Some(ns) = timer.elapsed_ns() {
            let table = self.state.live.schema().name();
            let (applies, hist) = self.apply_stats.get_or_insert_with(|| {
                (
                    evofd_obs::metrics::STORE_APPLIES_TOTAL.with_label(table),
                    evofd_obs::metrics::STORE_APPLY_SECONDS.with_label(table),
                )
            });
            applies.add(1);
            hist.record(ns);
        }
        Ok((applied, drift))
    }

    /// Snapshot-compact once the WAL outgrows
    /// [`PersistOptions::wal_compact_bytes`] (leader and replica, after a
    /// delta).
    fn checkpoint_if_wal_full(&mut self) -> Result<()> {
        if self.wal.bytes() <= self.opts.wal_compact_bytes {
            return Ok(());
        }
        if evofd_obs::enabled() {
            evofd_obs::metrics::STORE_COMPACTIONS_TOTAL.with_label("wal-threshold").inc();
        }
        self.checkpoint()
    }

    /// Write a snapshot of the current state and reset the WAL. Called
    /// automatically when the WAL outgrows the threshold; callable
    /// explicitly for a clean shutdown. Moves the shipping horizon: a
    /// follower positioned before the new snapshot must re-bootstrap.
    pub fn checkpoint(&mut self) -> Result<()> {
        let timer = evofd_obs::Timer::start();
        // History frames for epochs the WAL is about to forget must be
        // durable BEFORE the reset — replay can no longer regenerate them.
        if let Some(history) = &mut self.state.history {
            history.sync()?;
        }
        write_file_atomic(&self.dir.join(SNAPSHOT_FILE), &self.state.encode(self.last_seq()))?;
        timer.observe(&evofd_obs::metrics::SNAPSHOT_ENCODE_SECONDS);
        self.snapshot_seq = self.last_seq();
        self.wal.reset()
    }

    /// Flush any group-commit buffer to disk without snapshotting.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    // ------------------------------------------------------------------
    // WAL shipping (leader side).
    // ------------------------------------------------------------------

    /// The highest sequence number this table has journaled (0 for a
    /// fresh table) — the position a caught-up follower has acked.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// `last_seq` of the snapshot currently on disk: the **shipping
    /// horizon**. Records at or below it have been folded into the
    /// snapshot and can only be obtained by bootstrapping.
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// Encode a point-in-time snapshot of the *current* state (not the
    /// on-disk one) — what the in-process transport ships to bootstrap a
    /// follower directly at [`DurableRelation::last_seq`].
    pub fn encode_current_snapshot(&self) -> Vec<u8> {
        self.state.encode(self.last_seq())
    }

    /// Serve the replication stream from position `seq` (the follower's
    /// last acked sequence number): whole CRC-framed WAL records with
    /// sequence numbers beyond `seq`, or a bootstrap snapshot when `seq`
    /// predates the shipping horizon (the WAL no longer holds the records
    /// the follower needs).
    pub fn ship_from(&self, seq: u64) -> Result<Shipment> {
        if seq < self.snapshot_seq {
            return Ok(Shipment::Bootstrap {
                snapshot: self.encode_current_snapshot(),
                history: self.history_bytes(),
            });
        }
        let scan = scan_wal(&self.dir.join(WAL_FILE))?;
        let frames: Vec<Vec<u8>> =
            scan.records.iter().filter(|r| r.seq() > seq).map(WalRecord::encode_frame).collect();
        evofd_obs::metrics::REPL_FRAMES_SHIPPED_TOTAL.add(frames.len() as u64);
        Ok(Shipment::Frames(frames))
    }

    // ------------------------------------------------------------------
    // Replica ingest (follower side).
    // ------------------------------------------------------------------

    /// Apply one shipped leader record to this (follower) table: skip a
    /// duplicate delivery (`seq` already acked), hold the doom gate, then
    /// validate, journal under the **leader's** sequence number and apply
    /// through the shared state machine. A deterministically rejected
    /// delta is held as a pending doom until the leader's rollback
    /// arrives.
    pub(crate) fn ingest_replicated(&mut self, record: &WalRecord) -> Result<ReplicaIngest> {
        let seq = record.seq();
        if seq < self.next_seq {
            return Ok(ReplicaIngest::Skipped);
        }
        if let Some(doom) = self.doomed {
            // The only legal next record is the leader's rollback of the
            // doomed delta; anything else means the streams diverged.
            if record.rollback_target() != Some(doom) {
                return Err(PersistError::Replication {
                    message: format!(
                        "expected a rollback of doomed delta {doom}, got record {seq}"
                    ),
                });
            }
        }
        Ok(match self.commit(record, Origin::Replica)? {
            Applied::Delta(drift) => {
                self.checkpoint_if_wal_full()?;
                ReplicaIngest::Applied(drift)
            }
            // The leader rejected this delta too and will ship its rollback
            // next. The journaled copy mirrors the leader's WAL; if we die
            // first, recovery amputates it (doomed tail).
            Applied::Rejected(_) => {
                self.doomed = Some(seq);
                ReplicaIngest::Doomed
            }
            // With a doom pending this cancels it; without one the target
            // delta was never applied here (our own recovery amputated it
            // as a doomed tail) — either way the rollback is journaled so
            // local replay also skips the target.
            Applied::Rollback => {
                self.wal.sync()?;
                self.doomed = None;
                ReplicaIngest::Applied(Vec::new())
            }
            Applied::Other => ReplicaIngest::Applied(Vec::new()),
        })
    }

    /// Replace this table's entire state from a shipped bootstrap
    /// snapshot: validate + decode the image, install it as the on-disk
    /// snapshot (atomic temp + rename), reset the WAL and adopt the
    /// snapshot's position. The directory lock is held throughout.
    pub(crate) fn install_snapshot(&mut self, bytes: &[u8]) -> Result<()> {
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        let image = decode_snapshot(&snap_path, bytes)?;
        let last_seq = image.last_seq;
        let state = TableState::from_snapshot(&self.dir, &self.opts, image)?;
        write_file_atomic(&snap_path, bytes)?; // the image exactly as shipped
        self.wal.reset()?;
        self.state = state;
        self.next_seq = last_seq + 1;
        self.snapshot_seq = last_seq;
        self.doomed = None;
        evofd_obs::metrics::REPL_BOOTSTRAPS_TOTAL.inc();
        Ok(())
    }

    /// Replace this table's durable history file from shipped bytes
    /// (bootstrap path): validate the image, install it atomically (temp +
    /// rename) and reopen the writer positioned at its tail. Empty bytes
    /// mean the leader ships no history — the local file is left alone.
    pub(crate) fn install_history(&mut self, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() || self.opts.history_stride == 0 {
            return Ok(());
        }
        let path = self.dir.join(HISTORY_FILE);
        scan_history_bytes(&path, bytes)?; // validate before touching disk
        self.state.history = None; // close the writer before replacing its file
        write_file_atomic(&path, bytes)?;
        self.state.history = Some(HistoryWriter::open(&path)?);
        Ok(())
    }

    // ------------------------------------------------------------------
    // The live advisor session (durable designer loop).
    // ------------------------------------------------------------------

    /// The journaled advisor decisions, in decision order.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.state.decisions
    }

    /// The advisor session if already materialized (read-only peek).
    pub fn advisor(&self) -> Option<&LiveAdvisor> {
        self.state.advisor.as_ref()
    }

    /// Build an advisor session over the current state (one
    /// batch-equivalent analysis) with the journaled decisions
    /// re-installed — **without** attaching it to this handle. Read-only
    /// observability (`SHOW FDS`) uses this so a status query never turns
    /// into a standing per-delta maintenance tax.
    pub fn build_advisor(&self) -> Result<LiveAdvisor> {
        let mut advisor = LiveAdvisor::new(&self.state.live, &self.state.validator);
        for record in &self.state.decisions {
            advisor.restore(record).map_err(|e| PersistError::Recovery {
                message: format!("restoring advisor decision for `{}`: {e}", record.fd),
            })?;
        }
        Ok(advisor)
    }

    /// The live advisor session, materialized on first use: built from
    /// the current state with the journaled decisions re-installed, then
    /// maintained in O(changed rows) per delta for the lifetime of this
    /// handle.
    pub fn ensure_advisor(&mut self) -> Result<&mut LiveAdvisor> {
        if self.state.advisor.is_none() {
            self.state.advisor = Some(self.build_advisor()?);
        }
        Ok(self.state.advisor.as_mut().expect("just ensured"))
    }

    fn table_error(&self, message: String) -> PersistError {
        PersistError::Table { name: self.name().to_string(), message }
    }

    /// The canonical text of FD `fd_index` if it awaits a designer
    /// decision — checked before journaling, so the `Decision` record
    /// always applies (the rule replicas enforce on shipped decisions).
    fn pending_decision(&mut self, fd_index: usize) -> Result<String> {
        self.ensure_advisor()?;
        let advisor = self.state.advisor.as_ref().expect("ensured");
        let pending = advisor.state(fd_index).map(|s| s.needs_decision()).unwrap_or(false);
        let fd = advisor.fds()[fd_index].display(self.state.live.schema());
        if !pending || self.state.decisions.iter().any(|d| d.fd == fd) {
            return Err(self.table_error(format!("FD #{fd_index} is not awaiting a decision")));
        }
        Ok(fd)
    }

    /// Accept ranked proposal `proposal` (0-based) for FD `fd_index`:
    /// journal the decision, evolve the advisor session, then **replace**
    /// the original FD with the evolved one in the tracked set (a
    /// journaled `FdSet` carrying the full new set — recovery and
    /// replicas converge on the same swap). The successor advisor session
    /// records the replacement in its audit log. Returns the adopted
    /// repair.
    pub fn accept_repair(&mut self, fd_index: usize, proposal: usize) -> Result<Repair> {
        self.ensure_advisor()?;
        let advisor = self.state.advisor.as_ref().expect("ensured");
        let proposals = advisor.proposals(fd_index).map_err(|e| self.table_error(e.to_string()))?;
        let chosen = proposals.get(proposal).cloned().ok_or_else(|| {
            self.table_error(format!("no proposal #{} for FD #{fd_index}", proposal + 1))
        })?;
        let original = self.pending_decision(fd_index)?;
        let evolved = chosen.fd.display(self.state.live.schema());
        let action = DecisionAction::Accept { proposal: proposal as u32, evolved: evolved.clone() };
        let record = DecisionRecord { fd: original.clone(), action };
        self.commit(&WalRecord::Decision { seq: self.next_seq, record }, Origin::Leader)?;

        // Swap the evolved FD into the tracked set. The journaled FdSet
        // record retires the Accept decision (its FD is no longer
        // tracked); the replacement itself is what recovery and replica
        // replay reconstruct, in the same Decision-then-FdSet order.
        let mut fds = self.state.validator.fds().to_vec();
        fds[fd_index] = chosen.fd.clone();
        self.set_fds(fds)?;
        evofd_obs::metrics::ADVISOR_ACCEPTED_REPLACEMENTS_TOTAL.inc();
        self.ensure_advisor()?.note_replacement(&original, &evolved);
        Ok(chosen)
    }

    /// Keep violated FD `fd_index` unchanged (journaled decision).
    pub fn decide_keep(&mut self, fd_index: usize) -> Result<()> {
        self.decide_simple(fd_index, DecisionAction::Keep)
    }

    /// Drop violated FD `fd_index` from the designer's schema (journaled
    /// decision; the validator keeps tracking it — use
    /// [`DurableRelation::set_fds`] to stop tracking entirely).
    pub fn decide_drop(&mut self, fd_index: usize) -> Result<()> {
        self.decide_simple(fd_index, DecisionAction::Drop)
    }

    fn decide_simple(&mut self, fd_index: usize, action: DecisionAction) -> Result<()> {
        let fd = self.pending_decision(fd_index)?;
        let record = DecisionRecord { fd, action };
        self.commit(&WalRecord::Decision { seq: self.next_seq, record }, Origin::Leader)?;
        Ok(())
    }

    /// Replace the tracked-FD set (`ALTER TABLE … CONSTRAINT FD`):
    /// journal an `FdSet` record carrying the **full** new set, rebuild
    /// the incremental validator (one O(rows) scan) and retire decisions
    /// for FDs no longer tracked. Returns the new tracked count. Note the
    /// rebuild resets the validator's drift-feed subscriptions and stats.
    pub fn set_fds(&mut self, fds: Vec<Fd>) -> Result<usize> {
        let schema = self.state.live.schema();
        let fds = fds.iter().map(|f| f.display(schema)).collect();
        self.commit(&WalRecord::FdSet { seq: self.next_seq, fds }, Origin::Leader)?;
        Ok(self.state.validator.fds().len())
    }

    /// Canonical names of the columns under secondary indexing.
    pub fn indexed_columns(&self) -> &[String] {
        &self.state.indexed_columns
    }

    /// Replace the indexed-column set (`CREATE INDEX` / `DROP INDEX`):
    /// journal an `IndexSet` record carrying the **full** new set — like
    /// [`DurableRelation::set_fds`], only the set is durable; the index
    /// contents are derived state the SQL engine rebuilds from the rows,
    /// both on the live path and after recovery.
    pub fn set_indexes(&mut self, columns: Vec<String>) -> Result<()> {
        self.commit(&WalRecord::IndexSet { seq: self.next_seq, columns }, Origin::Leader)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Alert rules + durable FD-health history.
    // ------------------------------------------------------------------

    /// The journaled alert rules and their runtime streaks.
    pub fn alerts(&self) -> &AlertState {
        &self.state.alerts
    }

    /// Replace the alert-rule set (`ALERT ON …` / `DROP ALERT`): journal
    /// an `AlertSet` record carrying the **full** canonical rule-text set
    /// — like [`DurableRelation::set_fds`], only the set is journaled; the
    /// runtime streaks live in the snapshot and forward-derive across
    /// replay. Rules whose canonical text survives keep their streaks.
    ///
    /// Each rule's FD text is canonicalised against the table schema
    /// first (`zip -> city` becomes `[zip] -> [city]`) so it matches the
    /// display strings the sampling path compares against; an FD that
    /// does not parse is an error before anything is journaled.
    pub fn set_alerts(&mut self, mut rules: Vec<AlertRule>) -> Result<usize> {
        let schema = self.state.live.schema();
        for rule in &mut rules {
            let parsed = Fd::parse(schema, &rule.fd)
                .map_err(|e| self.table_error(format!("bad FD in alert rule `{rule}`: {e}")))?;
            rule.fd = parsed.display(schema);
        }
        let rules = rules.iter().map(|r| r.to_string()).collect();
        self.commit(&WalRecord::AlertSet { seq: self.next_seq, rules }, Origin::Leader)?;
        Ok(self.state.alerts.rules.len())
    }

    /// Every durable history frame currently on disk (a fresh scan; the
    /// file is append-only so this is the full time series).
    pub fn history_frames(&self) -> Result<Vec<HistoryFrame>> {
        if self.state.history.is_none() {
            return Ok(Vec::new());
        }
        Ok(scan_history(&self.dir.join(HISTORY_FILE))?.frames)
    }

    /// The raw history file bytes — what bootstrap ships to a follower.
    /// Reads through the page cache, so unsynced appends are included.
    /// Empty when history is disabled or nothing was ever sampled.
    pub fn history_bytes(&self) -> Vec<u8> {
        if self.state.history.is_none() {
            return Vec::new();
        }
        std::fs::read(self.dir.join(HISTORY_FILE)).unwrap_or_default()
    }
}

/// A directory of [`DurableRelation`]s — the durable database `evofd`
/// CLI commands and the SQL engine's durable backend operate on.
#[derive(Debug)]
pub struct Database {
    dir: PathBuf,
    opts: PersistOptions,
    tables: BTreeMap<String, DurableRelation>,
}

impl Database {
    /// Open a data directory, recovering every table found in it.
    /// Creates the directory if missing (an empty database).
    pub fn open(dir: &Path, opts: PersistOptions) -> Result<Database> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let mut tables = BTreeMap::new();
        let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            let path = entry.path();
            if !path.is_dir() || !path.join(SNAPSHOT_FILE).exists() {
                continue;
            }
            let table = DurableRelation::open(&path, opts.clone())?;
            let dir_name = entry.file_name().to_string_lossy().into_owned();
            if table.name() != dir_name {
                return Err(PersistError::Table {
                    name: dir_name,
                    message: format!("directory holds a snapshot of `{}`", table.name()),
                });
            }
            tables.insert(table.name().to_string(), table);
        }
        Ok(Database { dir: dir.to_path_buf(), opts, tables })
    }

    /// Create a new table from an initial relation and FD set.
    pub fn create_table(
        &mut self,
        rel: Relation,
        fds: Vec<Fd>,
        config: ValidatorConfig,
    ) -> Result<&mut DurableRelation> {
        let name = rel.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(PersistError::Table { name, message: "already exists".into() });
        }
        let table =
            DurableRelation::create(&self.dir.join(&name), rel, fds, config, self.opts.clone())?;
        Ok(self.tables.entry(name).or_insert(table))
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sorted table names.
    pub fn names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// True iff the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Borrow a table.
    pub fn get(&self, name: &str) -> Result<&DurableRelation> {
        self.tables.get(name).ok_or_else(|| PersistError::Table {
            name: name.to_string(),
            message: "unknown table".into(),
        })
    }

    /// Mutably borrow a table.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut DurableRelation> {
        self.tables.get_mut(name).ok_or_else(|| PersistError::Table {
            name: name.to_string(),
            message: "unknown table".into(),
        })
    }

    /// A canonical (tombstone-free) relation of a table's current
    /// contents — what SELECTs serve.
    pub fn canonical(&self, name: &str) -> Result<Relation> {
        Ok(self.get(name)?.live().snapshot())
    }

    /// Iterate `(name, table)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DurableRelation)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Adjust every table's tombstone compaction threshold.
    pub fn set_compact_threshold(&mut self, threshold: f64) {
        self.opts.compact_threshold = threshold;
        for table in self.tables.values_mut() {
            table.set_compact_threshold(threshold);
        }
    }

    /// Checkpoint every table (snapshot + WAL reset) — a clean shutdown.
    pub fn checkpoint_all(&mut self) -> Result<()> {
        for table in self.tables.values_mut() {
            table.checkpoint()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::{relation_of_strs, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("evofd_persist_store_tests_{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn srow(a: &str, b: &str) -> Vec<Value> {
        vec![Value::str(a), Value::str(b)]
    }

    fn base_rel(name: &str) -> Relation {
        relation_of_strs(name, &["X", "Y"], &[&["a", "1"], &["b", "2"], &["c", "3"]]).unwrap()
    }

    fn create(dir: &Path, opts: PersistOptions) -> DurableRelation {
        let rel = base_rel("t");
        let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
        DurableRelation::create(dir, rel, fds, ValidatorConfig::default(), opts).unwrap()
    }

    /// One table's full observable state, capturable so two sequential
    /// opens of the SAME directory can be compared (the directory lock
    /// forbids holding both opens at once).
    #[derive(Debug, PartialEq)]
    struct StateImage {
        snapshot_bytes: Vec<u8>,
        cursor: u64,
        last_seq: u64,
    }

    fn image_of(t: &DurableRelation) -> StateImage {
        StateImage {
            // The canonical snapshot encoding covers the exact physical
            // relation (codes, dictionaries, mask), the epoch and every
            // tracker's counts, byte-deterministically.
            snapshot_bytes: crate::snapshot::encode_snapshot(
                t.live(),
                t.validator(),
                t.decisions(),
                t.indexed_columns(),
                t.alerts(),
                0,
                0,
            ),
            cursor: t.cursor(),
            last_seq: t.last_seq(),
        }
    }

    #[test]
    fn kill_and_reopen_replays_the_wal_tail() {
        let dir = tmpdir("reopen");
        let mut t = create(&dir, PersistOptions::default());
        let (_, drift) = t.apply(&Delta::inserting(vec![srow("a", "9")])).unwrap();
        assert_eq!(drift.len(), 1, "X -> Y drifted");
        t.apply(&Delta::deleting([1])).unwrap();
        t.set_cursor(17).unwrap();
        // "Kill": drop without checkpoint. Reopen and compare.
        let live_epoch = t.live().epoch();
        drop(t);
        let r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.recovery().replayed, 3, "two deltas + one cursor");
        assert_eq!(r.live().epoch(), live_epoch);
        assert_eq!(r.cursor(), 17);
        assert!(!r.validator().is_exact(0), "violation survived recovery");
        // Further traffic keeps working.
        let mut r = r;
        r.apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        assert_eq!(r.live().row_count(), 4);
    }

    #[test]
    fn reopen_equals_uninterrupted_run() {
        let dir = tmpdir("equiv");
        let mut t = create(&dir, PersistOptions::default());
        // Mirror the same traffic on a purely in-memory twin.
        let rel = base_rel("t");
        let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
        let mut live = LiveRelation::new(rel);
        live.set_compact_threshold(PersistOptions::default().compact_threshold);
        let mut v = IncrementalValidator::new(&live, fds);

        let deltas = [
            Delta::inserting(vec![srow("a", "9"), srow("e", "5")]),
            Delta::deleting([0, 3]),
            Delta::inserting(vec![srow("f", "6")]),
            Delta { inserts: vec![srow("g", "7")], deletes: vec![1] },
        ];
        for d in &deltas {
            t.apply(d).unwrap();
            let applied = live.apply(d).unwrap();
            v.apply(&live, &applied);
            if live.maybe_compact() > 0 {
                v.resync(&live);
            }
        }
        drop(t);
        let r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.live().epoch(), live.epoch());
        assert_eq!(r.live().live_mask(), live.live_mask());
        for i in 0..v.fds().len() {
            assert_eq!(r.validator().measures(i), v.measures(i));
        }
    }

    #[test]
    fn failed_delta_writes_rollback_and_recovery_skips_it() {
        let dir = tmpdir("rollback");
        let mut t = create(&dir, PersistOptions::default());
        t.apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        // Arity-violating insert: journaled, fails to apply, rolled back.
        let bad = Delta::inserting(vec![vec![Value::str("only-one")]]);
        assert!(t.apply(&bad).is_err());
        assert_eq!(t.live().row_count(), 4, "in-memory state unchanged");
        // A later good delta must replay cleanly over the rollback.
        t.apply(&Delta::deleting([0])).unwrap();
        let epoch = t.live().epoch();
        drop(t);
        let r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.recovery().rolled_back, 1);
        assert_eq!(r.live().epoch(), epoch);
        assert_eq!(r.live().row_count(), 3);
    }

    #[test]
    fn doomed_final_delta_without_rollback_record_recovers() {
        // The crash window: a delta is journaled (and fsynced), the
        // in-memory engine rejects it atomically, and the process dies
        // BEFORE the rollback record reaches disk. The WAL then ends with
        // a checksum-valid but unappliable delta.
        let dir = tmpdir("doomed_tail");
        let mut t = create(&dir, PersistOptions::default());
        t.apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        let valid = t.wal_bytes();
        drop(t);
        {
            let mut w =
                crate::wal::WalWriter::open_at(&dir.join(WAL_FILE), SyncPolicy::PerCommit, valid)
                    .unwrap();
            w.append(&WalRecord::Delta {
                seq: 2,
                epoch_after: 2,
                cursor: None,
                inserts: vec![vec![Value::str("arity-1-only")]], // schema is arity 2
                deletes: vec![],
            })
            .unwrap();
        }
        // First reopen: the doomed tail is treated as an implicit
        // rollback and amputated, not a permanent open failure.
        let r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.recovery().rolled_back, 1);
        assert_eq!(r.live().row_count(), 4, "doomed delta never applied");
        assert_eq!(r.live().epoch(), 1);
        drop(r);
        // Second reopen: the log is clean now (no doomed record left).
        let mut r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.recovery().rolled_back, 0);
        // And new traffic still lands and survives.
        r.apply(&Delta::inserting(vec![srow("e", "5")])).unwrap();
        drop(r);
        let r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.live().row_count(), 5);
    }

    #[test]
    fn doomed_delta_mid_wal_is_still_a_hard_error() {
        // An unappliable delta FOLLOWED by valid records is genuine
        // corruption (later records were journaled against a state the
        // doomed delta never produced) and must not be skipped silently.
        let dir = tmpdir("doomed_mid");
        let t = create(&dir, PersistOptions::default());
        let valid = t.wal_bytes();
        drop(t);
        {
            let mut w =
                crate::wal::WalWriter::open_at(&dir.join(WAL_FILE), SyncPolicy::PerCommit, valid)
                    .unwrap();
            w.append(&WalRecord::Delta {
                seq: 1,
                epoch_after: 1,
                cursor: None,
                inserts: vec![vec![Value::str("arity-1-only")]],
                deletes: vec![],
            })
            .unwrap();
            w.append(&WalRecord::Cursor { seq: 2, value: 9 }).unwrap();
        }
        let err = DurableRelation::open(&dir, PersistOptions::default()).unwrap_err();
        assert!(matches!(err, PersistError::Recovery { .. }), "{err:?}");
    }

    #[test]
    fn wal_threshold_triggers_snapshot_compaction() {
        let dir = tmpdir("snapcompact");
        let opts = PersistOptions { wal_compact_bytes: 256, ..PersistOptions::default() };
        let mut t = create(&dir, opts.clone());
        let mut snapshotted = false;
        for i in 0..32 {
            t.apply(&Delta::inserting(vec![srow(&format!("k{i}"), &format!("{i}"))])).unwrap();
            if t.wal_bytes() == crate::wal::WAL_HEADER_LEN {
                snapshotted = true;
            }
        }
        assert!(snapshotted, "the WAL was reset by a snapshot at least once");
        drop(t);
        let r = DurableRelation::open(&dir, opts).unwrap();
        assert_eq!(r.live().row_count(), 35);
        // Most records live in the snapshot now, only a short tail replays.
        assert!(r.recovery().replayed < 32);
    }

    #[test]
    fn tombstone_compaction_is_journaled_and_replayed() {
        let dir = tmpdir("compact");
        let opts = PersistOptions { compact_threshold: 0.4, ..PersistOptions::default() };
        let mut t = create(&dir, opts.clone());
        t.apply(&Delta::deleting([0, 1])).unwrap(); // 2/3 dead > 0.4 → compacts
        assert_eq!(t.live().physical_rows(), 1, "compacted");
        let epoch = t.live().epoch();
        t.apply(&Delta::inserting(vec![srow("z", "26")])).unwrap();
        drop(t);
        let r = DurableRelation::open(&dir, opts).unwrap();
        assert_eq!(r.live().physical_rows(), 2);
        assert!(r.live().epoch() > epoch);
        assert_eq!(r.validator().measures(0).distinct_lhs, 2);
    }

    #[test]
    fn apply_with_cursor_commits_both_atomically() {
        let dir = tmpdir("cursor_atomic");
        let mut t = create(&dir, PersistOptions::default());
        t.apply_with_cursor(&Delta::inserting(vec![srow("d", "4")]), Some(3)).unwrap();
        assert_eq!(t.cursor(), 3);
        // An unchanged cursor is a no-op: the WAL does not grow.
        let bytes = t.wal_bytes();
        t.apply_with_cursor(&Delta::new(), Some(3)).unwrap();
        assert_eq!(t.wal_bytes(), bytes, "no redundant cursor record");
        // Empty delta + a MOVED cursor still journals the position.
        t.apply_with_cursor(&Delta::new(), Some(5)).unwrap();
        drop(t);
        let r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.cursor(), 5);
        assert_eq!(r.live().row_count(), 4);
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = tmpdir("clobber");
        let _t = create(&dir, PersistOptions::default());
        let rel = base_rel("t");
        let err = DurableRelation::create(
            &dir,
            rel,
            Vec::new(),
            ValidatorConfig::default(),
            PersistOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PersistError::Table { .. }));
    }

    #[test]
    fn checkpoint_then_reopen_replays_nothing() {
        let dir = tmpdir("checkpoint");
        let mut t = create(&dir, PersistOptions::default());
        t.apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        t.checkpoint().unwrap();
        let epoch = t.live().epoch();
        drop(t);
        let r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.recovery().replayed, 0);
        assert_eq!(r.live().epoch(), epoch);
        assert_eq!(r.live().row_count(), 4);
    }

    #[test]
    fn group_commit_still_recovers_cleanly_after_drop() {
        let dir = tmpdir("group");
        let opts = PersistOptions { sync: SyncPolicy::GroupCommit(16), ..Default::default() };
        let mut t = create(&dir, opts.clone());
        for i in 0..5 {
            t.apply(&Delta::inserting(vec![srow(&format!("g{i}"), "1")])).unwrap();
        }
        // A clean drop leaves the frames written (only fsync was deferred).
        drop(t);
        let r = DurableRelation::open(&dir, opts.clone()).unwrap();
        assert_eq!(r.live().row_count(), 8);
        let first = image_of(&r);
        drop(r);
        // Recovery is idempotent: opening twice yields identical state.
        // (Sequentially — the directory lock forbids concurrent opens.)
        let b = DurableRelation::open(&dir, opts).unwrap();
        assert_eq!(image_of(&b), first);
    }

    #[test]
    fn directory_lock_blocks_second_open_and_releases_on_drop() {
        let dir = tmpdir("locked");
        let t = create(&dir, PersistOptions::default());
        let err = DurableRelation::open(&dir, PersistOptions::default()).unwrap_err();
        assert!(matches!(err, PersistError::Locked { .. }), "{err:?}");
        drop(t);
        DurableRelation::open(&dir, PersistOptions::default()).unwrap();
    }

    #[test]
    fn ship_from_serves_frames_and_bootstrap() {
        let dir = tmpdir("ship");
        let mut t = create(&dir, PersistOptions::default());
        t.apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        t.apply(&Delta::inserting(vec![srow("e", "5")])).unwrap();
        assert_eq!(t.last_seq(), 2);
        assert_eq!(t.snapshot_seq(), 0);
        // From 0: both frames; from 1: one; from 2 (caught up): none.
        let Shipment::Frames(f) = t.ship_from(0).unwrap() else { panic!("expected frames") };
        assert_eq!(f.len(), 2);
        assert_eq!(WalRecord::decode_frame(&f[0]).unwrap().seq(), 1);
        let Shipment::Frames(f) = t.ship_from(1).unwrap() else { panic!() };
        assert_eq!(f.len(), 1);
        let Shipment::Frames(f) = t.ship_from(2).unwrap() else { panic!() };
        assert!(f.is_empty());
        // After a checkpoint the horizon moves: position 1 now bootstraps.
        t.checkpoint().unwrap();
        assert_eq!(t.snapshot_seq(), 2);
        let Shipment::Bootstrap { snapshot, .. } = t.ship_from(1).unwrap() else {
            panic!("expected bootstrap")
        };
        let state = crate::snapshot::decode_snapshot(Path::new("mem"), &snapshot).unwrap();
        assert_eq!(state.last_seq, 2);
        assert_eq!(state.live.row_count(), 5);
        // At the horizon itself, frames (currently none) still work.
        let Shipment::Frames(f) = t.ship_from(2).unwrap() else { panic!() };
        assert!(f.is_empty());
    }

    #[test]
    fn ingest_replicated_mirrors_leader_state() {
        let ldir = tmpdir("ingest_leader");
        let fdir = tmpdir("ingest_follower");
        let mut leader = create(&ldir, PersistOptions::default());
        // Follower bootstraps from the leader's create-time image.
        let mut follower = create(&fdir, PersistOptions::default());
        follower.install_snapshot(&leader.encode_current_snapshot()).unwrap();

        leader.apply(&Delta::inserting(vec![srow("a", "9")])).unwrap();
        leader.apply(&Delta::deleting([1])).unwrap();
        leader.set_cursor(7).unwrap();
        let Shipment::Frames(frames) = leader.ship_from(follower.last_seq()).unwrap() else {
            panic!()
        };
        assert_eq!(frames.len(), 3);
        for f in &frames {
            let rec = WalRecord::decode_frame(f).unwrap();
            assert!(matches!(follower.ingest_replicated(&rec).unwrap(), ReplicaIngest::Applied(_)));
        }
        assert_eq!(image_of(&follower), image_of(&leader));
        // Duplicate delivery is skipped, not reapplied.
        let rec = WalRecord::decode_frame(&frames[0]).unwrap();
        assert!(matches!(follower.ingest_replicated(&rec).unwrap(), ReplicaIngest::Skipped));
        assert_eq!(image_of(&follower), image_of(&leader));
    }

    #[test]
    fn ingest_replicated_rejects_epoch_gaps_without_corrupting_the_wal() {
        let ldir = tmpdir("gap_leader");
        let fdir = tmpdir("gap_follower");
        let mut leader = create(&ldir, PersistOptions::default());
        let mut follower = create(&fdir, PersistOptions::default());
        follower.install_snapshot(&leader.encode_current_snapshot()).unwrap();

        leader.apply(&Delta::inserting(vec![srow("a", "9")])).unwrap();
        leader.apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        let Shipment::Frames(frames) = leader.ship_from(0).unwrap() else { panic!() };
        let second = WalRecord::decode_frame(&frames[1]).unwrap();
        // Shipping record 2 while the follower never saw record 1 must be
        // rejected BEFORE anything is journaled or applied.
        let wal_before = follower.wal_bytes();
        let err = follower.ingest_replicated(&second).unwrap_err();
        assert!(matches!(err, PersistError::Replication { .. }), "{err:?}");
        assert!(err.to_string().contains("skipped"), "{err}");
        assert_eq!(follower.wal_bytes(), wal_before, "nothing journaled");
        assert_eq!(follower.live().epoch(), 0, "nothing applied");
        // The follower is NOT bricked: the in-order stream still applies,
        // and a reopen recovers cleanly.
        for f in &frames {
            follower.ingest_replicated(&WalRecord::decode_frame(f).unwrap()).unwrap();
        }
        assert_eq!(image_of(&follower), image_of(&leader));
        drop(follower);
        let follower = DurableRelation::open(&fdir, PersistOptions::default()).unwrap();
        assert_eq!(image_of(&follower), image_of(&leader));
    }

    #[test]
    fn ingest_replicated_doomed_delta_waits_for_rollback() {
        let ldir = tmpdir("doom_leader");
        let fdir = tmpdir("doom_follower");
        let mut leader = create(&ldir, PersistOptions::default());
        let mut follower = create(&fdir, PersistOptions::default());
        follower.install_snapshot(&leader.encode_current_snapshot()).unwrap();

        // Leader rejects an arity-violating delta → delta + rollback pair.
        assert!(leader.apply(&Delta::inserting(vec![vec![Value::str("one")]])).is_err());
        leader.apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        let Shipment::Frames(frames) = leader.ship_from(0).unwrap() else { panic!() };
        assert_eq!(frames.len(), 3, "doomed delta + rollback + good delta");
        let recs: Vec<WalRecord> =
            frames.iter().map(|f| WalRecord::decode_frame(f).unwrap()).collect();
        assert!(matches!(follower.ingest_replicated(&recs[0]).unwrap(), ReplicaIngest::Doomed));
        // While the doom is pending, any record but its rollback errors.
        let err = follower.ingest_replicated(&recs[2]).unwrap_err();
        assert!(matches!(err, PersistError::Replication { .. }), "{err:?}");
        assert!(matches!(follower.ingest_replicated(&recs[1]).unwrap(), ReplicaIngest::Applied(_)));
        assert!(matches!(follower.ingest_replicated(&recs[2]).unwrap(), ReplicaIngest::Applied(_)));
        assert_eq!(image_of(&follower), image_of(&leader));
    }

    /// A 3-attribute relation where `X -> Y` is violated and `Z` repairs
    /// it (the advisor has a non-empty candidate pool).
    fn advisor_rel(name: &str) -> Relation {
        relation_of_strs(
            name,
            &["X", "Y", "Z"],
            &[&["a", "1", "p"], &["a", "2", "q"], &["b", "3", "r"]],
        )
        .unwrap()
    }

    fn create_advisor_table(dir: &Path) -> DurableRelation {
        let rel = advisor_rel("t");
        let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
        DurableRelation::create(dir, rel, fds, ValidatorConfig::default(), Default::default())
            .unwrap()
    }

    #[test]
    fn advisor_decisions_survive_kill_and_reopen() {
        let dir = tmpdir("advisor_reopen");
        let mut t = create_advisor_table(&dir);
        let advisor = t.ensure_advisor().unwrap();
        assert_eq!(advisor.pending(), vec![0]);
        let n_proposals = advisor.proposals(0).unwrap().len();
        assert!(n_proposals >= 1, "Z repairs X -> Y");
        let original = t.validator().fds()[0].clone();
        let chosen = t.accept_repair(0, 0).unwrap();
        assert!(chosen.measures.is_exact());
        // The evolved FD replaced the original in the tracked set; the
        // journaled FdSet retired the Accept decision (its FD is no
        // longer tracked), so the replacement IS the durable outcome.
        assert_eq!(t.validator().fds(), std::slice::from_ref(&chosen.fd));
        assert_ne!(t.validator().fds()[0], original);
        assert!(t.decisions().is_empty(), "decision retired by the replacement");
        let log = t.advisor().unwrap().log();
        assert!(
            log.iter().any(|e| e.to_string().contains("replaced")),
            "audit log records the swap: {log:?}"
        );
        // More traffic after the replacement, then kill without checkpoint.
        t.apply(&Delta::inserting(vec![vec![Value::str("c"), Value::str("4"), Value::str("s")]]))
            .unwrap();
        drop(t);

        let mut r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.validator().fds(), std::slice::from_ref(&chosen.fd), "FdSet replayed");
        assert!(r.decisions().is_empty());
        let advisor = r.ensure_advisor().unwrap();
        assert!(advisor.is_complete(), "the evolved FD holds");
        assert_eq!(advisor.evolved_fds(), vec![chosen.fd.clone()]);
        // A checkpoint folds the replaced set into the snapshot; a
        // further reopen restores it from there (empty WAL).
        r.checkpoint().unwrap();
        drop(r);
        let mut r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.recovery().replayed, 0);
        assert_eq!(r.validator().fds(), std::slice::from_ref(&chosen.fd));
        assert!(r.ensure_advisor().unwrap().is_complete());
    }

    #[test]
    fn keep_and_drop_decisions_are_durable() {
        let dir = tmpdir("advisor_keep");
        let mut t = create_advisor_table(&dir);
        t.decide_keep(0).unwrap();
        assert!(t.decide_keep(0).is_err(), "already decided");
        drop(t);
        let mut r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert!(matches!(
            r.ensure_advisor().unwrap().state(0).unwrap(),
            evofd_incremental::LiveFdState::Kept
        ));
    }

    #[test]
    fn set_fds_journals_the_new_set_and_replays() {
        let dir = tmpdir("fdset_replay");
        let mut t = create_advisor_table(&dir);
        let extra = Fd::parse(t.live().schema(), "Z -> Y").unwrap();
        let mut fds = t.validator().fds().to_vec();
        fds.push(extra.clone());
        assert_eq!(t.set_fds(fds).unwrap(), 2);
        assert_eq!(t.validator().fds().len(), 2);
        // Traffic against the new set, then kill.
        t.apply(&Delta::inserting(vec![vec![Value::str("d"), Value::str("5"), Value::str("p")]]))
            .unwrap();
        assert!(!t.validator().is_exact(1), "Z -> Y broken by the p/1 vs p/5 pair");
        drop(t);

        let r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.validator().fds().len(), 2, "FdSet record replayed");
        assert_eq!(r.validator().fds()[1], extra);
        assert!(!r.validator().is_exact(1));
        // Dropping a decided FD retires its decision deterministically.
        let mut r = r;
        r.decide_keep(0).unwrap();
        assert_eq!(r.decisions().len(), 1);
        let remaining = vec![r.validator().fds()[1].clone()];
        r.set_fds(remaining).unwrap();
        assert!(r.decisions().is_empty(), "decision for the dropped FD retired");
        drop(r);
        let r = DurableRelation::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.validator().fds().len(), 1);
        assert!(r.decisions().is_empty());
    }

    #[test]
    fn replica_ingests_fdset_and_decisions() {
        let ldir = tmpdir("advisor_repl_leader");
        let fdir = tmpdir("advisor_repl_follower");
        let mut leader = create_advisor_table(&ldir);
        let mut follower = DurableRelation::create(
            &fdir,
            advisor_rel("t"),
            vec![Fd::parse(advisor_rel("t").schema(), "X -> Y").unwrap()],
            ValidatorConfig::default(),
            PersistOptions::default(),
        )
        .unwrap();
        follower.install_snapshot(&leader.encode_current_snapshot()).unwrap();

        // Leader: a delta, an ALTER, a decision.
        leader
            .apply(&Delta::inserting(vec![vec![Value::str("c"), Value::str("4"), Value::str("s")]]))
            .unwrap();
        let mut fds = leader.validator().fds().to_vec();
        fds.push(Fd::parse(leader.live().schema(), "Z -> Y").unwrap());
        leader.set_fds(fds).unwrap();
        leader.accept_repair(0, 0).unwrap();

        let Shipment::Frames(frames) = leader.ship_from(follower.last_seq()).unwrap() else {
            panic!("expected frames")
        };
        // ACCEPT REPAIR ships as its Decision frame followed by the
        // FdSet frame that swaps the evolved FD into the tracked set.
        assert_eq!(frames.len(), 4, "delta + fdset + decision + replacement fdset");
        for f in &frames {
            let rec = WalRecord::decode_frame(f).unwrap();
            assert!(matches!(follower.ingest_replicated(&rec).unwrap(), ReplicaIngest::Applied(_)));
        }
        assert_eq!(follower.validator().fds().len(), 2);
        assert_eq!(follower.validator().fds(), leader.validator().fds());
        assert_eq!(follower.decisions(), leader.decisions());
        assert_eq!(image_of(&follower), image_of(&leader));
        // The replica's tracked set now leads with the evolved FD, which
        // the replayed repair made exact.
        let advisor = follower.ensure_advisor().unwrap();
        assert!(matches!(advisor.state(0).unwrap(), evofd_incremental::LiveFdState::Satisfied));
        // And a follower kill/reopen keeps everything.
        drop(follower);
        let mut follower = DurableRelation::open(&fdir, PersistOptions::default()).unwrap();
        assert_eq!(image_of(&follower), image_of(&leader));
        assert!(matches!(
            follower.ensure_advisor().unwrap().state(0).unwrap(),
            evofd_incremental::LiveFdState::Satisfied
        ));
    }

    #[test]
    fn replica_rejects_bad_decision_frames_before_journaling() {
        let ldir = tmpdir("bad_decision_leader");
        let fdir = tmpdir("bad_decision_follower");
        let mut leader = create_advisor_table(&ldir);
        let mut follower = create_advisor_table(&fdir);
        follower.install_snapshot(&leader.encode_current_snapshot()).unwrap();
        follower.ensure_advisor().unwrap();

        // A decision for an FD the table does not track: rejected BEFORE
        // anything reaches the local WAL.
        let bogus = WalRecord::Decision {
            seq: 1,
            record: evofd_incremental::DecisionRecord {
                fd: "[Y] -> [X]".into(),
                action: evofd_incremental::DecisionAction::Keep,
            },
        };
        let wal_before = follower.wal_bytes();
        let err = follower.ingest_replicated(&bogus).unwrap_err();
        assert!(matches!(err, PersistError::Replication { .. }), "{err:?}");
        assert_eq!(follower.wal_bytes(), wal_before, "nothing journaled");

        // A duplicate of an already-applied decision: same story.
        leader.accept_repair(0, 0).unwrap();
        let Shipment::Frames(frames) = leader.ship_from(0).unwrap() else { panic!() };
        let decision = WalRecord::decode_frame(&frames[0]).unwrap();
        follower.ingest_replicated(&decision).unwrap();
        let dup = match &decision {
            WalRecord::Decision { record, .. } => {
                WalRecord::Decision { seq: 2, record: record.clone() }
            }
            other => panic!("expected a decision frame, got {other:?}"),
        };
        let wal_before = follower.wal_bytes();
        let err = follower.ingest_replicated(&dup).unwrap_err();
        assert!(matches!(err, PersistError::Replication { .. }), "{err:?}");
        assert_eq!(follower.wal_bytes(), wal_before, "nothing journaled");

        // The follower is not poisoned: reopen + advisor stay healthy.
        drop(follower);
        let mut follower = DurableRelation::open(&fdir, PersistOptions::default()).unwrap();
        assert!(follower.ensure_advisor().unwrap().is_complete());
    }

    #[test]
    fn replica_advisor_stays_current_under_ingest() {
        // A materialized replica advisor must track ingested deltas and
        // compactions like the leader's does.
        let ldir = tmpdir("replica_advisor_leader");
        let fdir = tmpdir("replica_advisor_follower");
        let opts = PersistOptions { compact_threshold: 0.4, ..PersistOptions::default() };
        let rel = advisor_rel("t");
        let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
        let mut leader =
            DurableRelation::create(&ldir, rel, fds, ValidatorConfig::default(), opts.clone())
                .unwrap();
        let mut follower = DurableRelation::create(
            &fdir,
            advisor_rel("t"),
            vec![Fd::parse(advisor_rel("t").schema(), "X -> Y").unwrap()],
            ValidatorConfig::default(),
            opts,
        )
        .unwrap();
        follower.install_snapshot(&leader.encode_current_snapshot()).unwrap();
        follower.ensure_advisor().unwrap();

        // Delete both conflicting rows: forces a journaled compaction AND
        // repairs X -> Y by the data.
        leader.apply(&Delta::deleting([0, 1])).unwrap();
        let Shipment::Frames(frames) = leader.ship_from(0).unwrap() else { panic!() };
        for f in &frames {
            follower.ingest_replicated(&WalRecord::decode_frame(f).unwrap()).unwrap();
        }
        let leader_pending = leader.ensure_advisor().unwrap().pending();
        let advisor = follower.advisor().expect("still materialized");
        assert_eq!(advisor.pending(), leader_pending, "advisor tracked the ingested frames");
        assert!(advisor.pending().is_empty(), "X -> Y was repaired by the data");

        // Drift back into violation: proposals reappear on the replica.
        leader
            .apply(&Delta::inserting(vec![
                vec![Value::str("c"), Value::str("9"), Value::str("z")],
                vec![Value::str("c"), Value::str("8"), Value::str("w")],
            ]))
            .unwrap();
        let Shipment::Frames(frames) = leader.ship_from(follower.last_seq()).unwrap() else {
            panic!()
        };
        for f in &frames {
            follower.ingest_replicated(&WalRecord::decode_frame(f).unwrap()).unwrap();
        }
        let advisor = follower.advisor().expect("still materialized");
        assert_eq!(advisor.pending(), vec![0]);
        assert!(!advisor.proposals(0).unwrap().is_empty(), "Z repairs it");
    }

    #[test]
    fn database_create_open_and_canonical() {
        let dir = tmpdir("db");
        let mut db = Database::open(&dir, PersistOptions::default()).unwrap();
        assert!(db.names().is_empty());
        let rel = base_rel("alpha");
        let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
        db.create_table(rel, fds, ValidatorConfig::default()).unwrap();
        db.create_table(base_rel("beta"), Vec::new(), ValidatorConfig::default()).unwrap();
        assert_eq!(db.names(), vec!["alpha", "beta"]);
        db.get_mut("alpha").unwrap().apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        assert!(db.create_table(base_rel("alpha"), Vec::new(), Default::default()).is_err());
        drop(db);

        let db = Database::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(db.names(), vec!["alpha", "beta"]);
        assert_eq!(db.canonical("alpha").unwrap().row_count(), 4);
        assert_eq!(db.canonical("beta").unwrap().row_count(), 3);
        assert!(db.get("gamma").is_err());
    }

    #[test]
    fn database_checkpoint_all_and_threshold() {
        let dir = tmpdir("db_ckpt");
        let mut db = Database::open(&dir, PersistOptions::default()).unwrap();
        db.create_table(base_rel("t"), Vec::new(), ValidatorConfig::default()).unwrap();
        db.get_mut("t").unwrap().apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        db.set_compact_threshold(0.9);
        db.checkpoint_all().unwrap();
        assert_eq!(db.get("t").unwrap().wal_bytes(), crate::wal::WAL_HEADER_LEN);
        drop(db); // release the table locks before reopening
        let db2 = Database::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(db2.get("t").unwrap().recovery().replayed, 0);
        assert_eq!(db2.canonical("t").unwrap().row_count(), 4);
    }
}
