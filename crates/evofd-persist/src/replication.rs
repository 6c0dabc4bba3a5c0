//! WAL-shipping replication: a leader serves its delta WAL as a
//! length-prefixed, CRC-checksummed frame stream and a follower applies
//! it continuously — literally the crash-recovery loop that never
//! terminates.
//!
//! ## Protocol
//!
//! A follower's position is its **last acked sequence number** (plus the
//! `snapshot_seq` of the image it bootstrapped from). Each poll it asks
//! the transport for everything after that position and gets back a
//! [`Shipment`]:
//!
//! * `Frames(..)` — whole WAL frames (`[len][crc][payload]`, the exact
//!   on-disk encoding) with `seq` beyond the position, in order. The
//!   follower journals each frame to its *own* WAL under the leader's
//!   sequence number and applies it with the same semantics recovery
//!   uses: epoch cross-checks on every delta and compaction, rollbacks
//!   cancelling deterministically rejected deltas, torn local tails
//!   truncated on restart. Compaction happens exactly where the leader
//!   journaled a `Compact` record — never independently — which is what
//!   keeps dictionary codes and physical row ids byte-identical.
//! * `Bootstrap { snapshot }` — the requested position predates the
//!   leader's shipping horizon (records folded into its snapshot), so the
//!   follower must install the shipped image and continue from its
//!   `last_seq`.
//!
//! ## Transports
//!
//! [`FrameTransport`] abstracts the wire. Two offline implementations:
//!
//! * [`ChannelTransport`] — in-process, over a shared
//!   [`Database`]; deterministic, used by the equivalence and chaos test
//!   harnesses.
//! * [`DirTransport`] — tails a leader *table directory* (its
//!   `snapshot.bin` + `wal.log`) through the filesystem; what
//!   `evofd follow` uses, so a leader and follower can be separate
//!   processes sharing only a directory.
//!
//! ## Consistency
//!
//! Replication is asynchronous and prefix-consistent: at every acked
//! seq the follower's `LiveRelation` (codes, row ids, tombstones,
//! epoch) and per-FD tracker counts are byte-identical to the leader's
//! state at that same seq. Under `group:N`/`no-sync` a *machine* crash
//! (not a process kill) can lose leader tail frames a follower already
//! applied; the follower then reports itself ahead and must be
//! re-bootstrapped.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use evofd_incremental::FdDrift;

use crate::error::{io_err, PersistError, Result};
use crate::lock::DirLock;
use crate::snapshot::{decode_snapshot, read_snapshot_position, write_file_atomic};
use crate::store::{Database, DurableRelation, PersistOptions, ReplicaIngest};
use crate::wal::{scan_wal, WalRecord, WalWriter};
use crate::{SNAPSHOT_FILE, WAL_FILE};

/// A leader's shipping position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipPosition {
    /// `last_seq` of the on-disk (or current, for in-process transports)
    /// snapshot — the shipping horizon.
    pub snapshot_seq: u64,
    /// Highest journaled sequence number.
    pub last_seq: u64,
}

/// What the leader serves for one fetch.
#[derive(Debug)]
pub enum Shipment {
    /// Whole WAL frames beyond the requested position, oldest first
    /// (empty = caught up).
    Frames(Vec<Vec<u8>>),
    /// The requested position predates the shipping horizon: install this
    /// snapshot image and continue from its `last_seq`.
    Bootstrap {
        /// An encoded snapshot (see [`crate::snapshot`]).
        snapshot: Vec<u8>,
        /// The leader's durable FD-health history file (see
        /// [`crate::history`]) — the frames for epochs folded into the
        /// snapshot, which the follower could never regenerate from the
        /// shipped WAL. Empty when the leader keeps no history.
        history: Vec<u8>,
    },
}

/// The wire between a leader table and its followers.
pub trait FrameTransport {
    /// The leader's current position.
    fn position(&mut self) -> Result<ShipPosition>;

    /// A snapshot image to (re)bootstrap from.
    fn bootstrap(&mut self) -> Result<Vec<u8>>;

    /// The leader's durable history file to bootstrap alongside the
    /// snapshot (empty = the leader keeps none).
    fn bootstrap_history(&mut self) -> Result<Vec<u8>> {
        Ok(Vec::new())
    }

    /// Everything after `seq`: frames, or a bootstrap demand.
    fn fetch(&mut self, seq: u64) -> Result<Shipment>;
}

// ---------------------------------------------------------------------
// In-process channel transport.
// ---------------------------------------------------------------------

/// An in-process [`FrameTransport`] over a shared [`Database`] — the
/// deterministic "channel" used by tests and embedded leader/follower
/// pairs living in one process.
#[derive(Debug, Clone)]
pub struct ChannelTransport {
    db: Arc<Mutex<Database>>,
    table: String,
    /// Cap on frames per [`FrameTransport::fetch`] (chaos harness knob).
    frame_limit: Option<usize>,
}

impl ChannelTransport {
    /// A transport shipping `table` out of a shared database.
    pub fn new(db: Arc<Mutex<Database>>, table: impl Into<String>) -> ChannelTransport {
        ChannelTransport { db, table: table.into(), frame_limit: None }
    }

    /// Deliver at most `limit` frames per fetch (for harnesses that need
    /// to stop a follower at an exact frame boundary).
    pub fn with_frame_limit(mut self, limit: usize) -> ChannelTransport {
        self.frame_limit = Some(limit);
        self
    }

    fn lock(&self) -> MutexGuard<'_, Database> {
        self.db.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl FrameTransport for ChannelTransport {
    fn position(&mut self) -> Result<ShipPosition> {
        let db = self.lock();
        let t = db.get(&self.table)?;
        Ok(ShipPosition { snapshot_seq: t.snapshot_seq(), last_seq: t.last_seq() })
    }

    fn bootstrap(&mut self) -> Result<Vec<u8>> {
        Ok(self.lock().get(&self.table)?.encode_current_snapshot())
    }

    fn bootstrap_history(&mut self) -> Result<Vec<u8>> {
        Ok(self.lock().get(&self.table)?.history_bytes())
    }

    fn fetch(&mut self, seq: u64) -> Result<Shipment> {
        let shipment = self.lock().get(&self.table)?.ship_from(seq)?;
        Ok(match (shipment, self.frame_limit) {
            (Shipment::Frames(mut frames), Some(limit)) => {
                frames.truncate(limit);
                Shipment::Frames(frames)
            }
            (other, _) => other,
        })
    }
}

// ---------------------------------------------------------------------
// Tailed-directory transport.
// ---------------------------------------------------------------------

/// How often a directory probe retries when a leader checkpoint races
/// its snapshot read against its WAL scan.
const PROBE_RETRIES: usize = 16;

/// Read a table directory's shipping position without opening (or
/// locking) it: the snapshot's `last_seq` plus the highest whole-record
/// seq in the WAL. Safe to run against a live leader — snapshots are
/// atomic, the WAL scan stops at the first incomplete frame, and a
/// checkpoint racing between the two reads (fresh snapshot + not-yet-
/// rescanned WAL would under-report `last_seq`) is detected by
/// re-reading the snapshot header after the scan and retrying while it
/// moves.
pub fn read_position(table_dir: &Path) -> Result<ShipPosition> {
    let snap_path = table_dir.join(SNAPSHOT_FILE);
    let wal_path = table_dir.join(WAL_FILE);
    let (mut snapshot_seq, _) = read_snapshot_position(&snap_path)?;
    let mut scan = scan_wal(&wal_path)?;
    for _ in 0..PROBE_RETRIES {
        let (snap_after, _) = read_snapshot_position(&snap_path)?;
        if snap_after == snapshot_seq {
            break;
        }
        snapshot_seq = snap_after;
        scan = scan_wal(&wal_path)?;
    }
    let last_seq = scan.records.iter().map(WalRecord::seq).fold(snapshot_seq, u64::max);
    Ok(ShipPosition { snapshot_seq, last_seq })
}

/// A [`FrameTransport`] that tails a leader **table directory** through
/// the filesystem — file shipping with no network stack: the follower
/// reads `snapshot.bin` to bootstrap and re-scans `wal.log` for new
/// whole frames. The leader is never locked or mutated.
#[derive(Debug, Clone)]
pub struct DirTransport {
    table_dir: PathBuf,
    frame_limit: Option<usize>,
    /// `(wal length, snapshot_seq, last_seq)` from the last full probe.
    /// The WAL only changes by appending (length grows) or by a
    /// checkpoint/truncation (snapshot horizon or length moves), so an
    /// unchanged pair means an unchanged position — a caught-up poll
    /// costs one 40-byte header read plus one `stat` instead of an
    /// O(WAL) rescan.
    cache: Option<(u64, u64, u64)>,
}

impl DirTransport {
    /// Tail the given leader table directory.
    pub fn new(table_dir: impl Into<PathBuf>) -> DirTransport {
        DirTransport { table_dir: table_dir.into(), frame_limit: None, cache: None }
    }

    /// Deliver at most `limit` frames per fetch.
    pub fn with_frame_limit(mut self, limit: usize) -> DirTransport {
        self.frame_limit = Some(limit);
        self
    }

    /// Cheap probe: `(wal length, snapshot_seq)`.
    fn cheap_probe(&self) -> Result<(u64, u64)> {
        let (snapshot_seq, _) = read_snapshot_position(&self.table_dir.join(SNAPSHOT_FILE))?;
        let wal_len =
            std::fs::metadata(self.table_dir.join(WAL_FILE)).map(|m| m.len()).unwrap_or(0);
        Ok((wal_len, snapshot_seq))
    }

    /// The cached position, if the cheap probe proves it is still
    /// current.
    fn cached_position(&self, wal_len: u64, snapshot_seq: u64) -> Option<ShipPosition> {
        match self.cache {
            Some((clen, csnap, clast)) if clen == wal_len && csnap == snapshot_seq => {
                Some(ShipPosition { snapshot_seq, last_seq: clast })
            }
            _ => None,
        }
    }
}

impl FrameTransport for DirTransport {
    fn position(&mut self) -> Result<ShipPosition> {
        let (wal_len, snapshot_seq) = self.cheap_probe()?;
        if let Some(pos) = self.cached_position(wal_len, snapshot_seq) {
            return Ok(pos);
        }
        let pos = read_position(&self.table_dir)?;
        // Cache against the length probed BEFORE the scan: lengths only
        // grow between checkpoints, so a later equal length means no
        // appends happened since this probe.
        self.cache = Some((wal_len, pos.snapshot_seq, pos.last_seq));
        Ok(pos)
    }

    fn bootstrap(&mut self) -> Result<Vec<u8>> {
        let path = self.table_dir.join(SNAPSHOT_FILE);
        std::fs::read(&path).map_err(|e| io_err(&path, e))
    }

    fn bootstrap_history(&mut self) -> Result<Vec<u8>> {
        // Absent file = the leader keeps no history: ship nothing.
        Ok(std::fs::read(self.table_dir.join(crate::HISTORY_FILE)).unwrap_or_default())
    }

    fn fetch(&mut self, seq: u64) -> Result<Shipment> {
        let (wal_len, snap) = self.cheap_probe()?;
        if let Some(pos) = self.cached_position(wal_len, snap) {
            if seq >= pos.last_seq {
                return Ok(Shipment::Frames(Vec::new())); // caught up, no rescan
            }
        }
        for _ in 0..PROBE_RETRIES {
            let (pre_len, snapshot_seq) = self.cheap_probe()?;
            if seq < snapshot_seq {
                return Ok(Shipment::Bootstrap {
                    snapshot: self.bootstrap()?,
                    history: self.bootstrap_history()?,
                });
            }
            let scan = scan_wal(&self.table_dir.join(WAL_FILE))?;
            let (snap_after, _) = read_snapshot_position(&self.table_dir.join(SNAPSHOT_FILE))?;
            if snap_after != snapshot_seq {
                continue; // a checkpoint raced the scan: re-probe
            }
            // The scanned WAL belongs to the probed snapshot generation,
            // so it holds every record in (snapshot_seq, last] contiguously
            // — `seq >= snapshot_seq` guarantees a gap-free shipment.
            let last_seq = scan.records.iter().map(WalRecord::seq).fold(snapshot_seq, u64::max);
            self.cache = Some((pre_len, snapshot_seq, last_seq));
            let mut frames: Vec<Vec<u8>> = scan
                .records
                .iter()
                .filter(|r| r.seq() > seq)
                .map(WalRecord::encode_frame)
                .collect();
            if let Some(limit) = self.frame_limit {
                frames.truncate(limit);
            }
            return Ok(Shipment::Frames(frames));
        }
        Err(PersistError::Replication {
            message: format!(
                "no consistent probe of {} after {PROBE_RETRIES} tries (leader checkpointing \
                 continuously?)",
                self.table_dir.display()
            ),
        })
    }
}

// ---------------------------------------------------------------------
// Follower state.
// ---------------------------------------------------------------------

/// One sync round's outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SyncReport {
    /// A bootstrap snapshot was installed this round.
    pub bootstrapped: bool,
    /// Frames applied (deltas, compactions, cursors, rollbacks).
    pub applied: usize,
    /// Duplicate frames skipped.
    pub skipped: usize,
    /// Deltas that arrived doomed (rejected deterministically, cancelled
    /// by the leader's following rollback).
    pub rolled_back: usize,
    /// Drift events the applied deltas caused, in order.
    pub drift: Vec<FdDrift>,
    /// The follower's last acked seq after the round.
    pub last_seq: u64,
}

/// A follower table: a [`DurableRelation`] kept converged with a leader
/// by applying its shipped WAL — recovery that never stops. Restart-safe:
/// reopening the replica directory resumes from its own snapshot + WAL
/// (with the usual torn-tail truncation) at the exact acked position.
#[derive(Debug)]
pub struct ReplicaState {
    table: DurableRelation,
}

impl ReplicaState {
    /// Resume an existing replica directory (ordinary crash recovery).
    pub fn open(dir: &Path, opts: PersistOptions) -> Result<ReplicaState> {
        Ok(ReplicaState { table: DurableRelation::open(dir, opts)? })
    }

    /// Create a replica directory from a shipped bootstrap image (plus
    /// the leader's durable history file — empty when it keeps none).
    pub fn bootstrap_from(
        dir: &Path,
        snapshot: &[u8],
        history: &[u8],
        opts: PersistOptions,
    ) -> Result<ReplicaState> {
        let lock = DirLock::acquire(dir)?;
        // Validate before writing anything; the decoded image becomes the
        // table's state directly.
        let snap_path = dir.join(SNAPSHOT_FILE);
        let image = decode_snapshot(&snap_path, snapshot)?;
        let history_path = dir.join(crate::HISTORY_FILE);
        if !history.is_empty() {
            crate::history::scan_history_bytes(&history_path, history)?;
        }
        write_file_atomic(&snap_path, snapshot)?;
        if !history.is_empty() {
            // Written before the table opens so its history writer starts
            // positioned at the shipped tail.
            write_file_atomic(&history_path, history)?;
        }
        WalWriter::create(&dir.join(WAL_FILE), opts.sync)?;
        let table = DurableRelation::open_with_lock(dir, opts, lock, Some(image))?;
        Ok(ReplicaState { table })
    }

    /// Open the replica directory if it exists, otherwise bootstrap it
    /// from the transport.
    pub fn open_or_bootstrap(
        dir: &Path,
        transport: &mut dyn FrameTransport,
        opts: PersistOptions,
    ) -> Result<ReplicaState> {
        if dir.join(SNAPSHOT_FILE).exists() {
            ReplicaState::open(dir, opts)
        } else {
            let snapshot = transport.bootstrap()?;
            let history = transport.bootstrap_history()?;
            ReplicaState::bootstrap_from(dir, &snapshot, &history, opts)
        }
    }

    /// The follower's last acked leader sequence number.
    pub fn last_seq(&self) -> u64 {
        self.table.last_seq()
    }

    /// The underlying durable table (read side: SELECT serving, FD
    /// state, recovery report).
    pub fn table(&self) -> &DurableRelation {
        &self.table
    }

    /// Mutable table access — for drift-feed subscriptions and explicit
    /// checkpoints; replication traffic must go through
    /// [`ReplicaState::apply_frame`]/[`ReplicaState::sync`].
    pub fn table_mut(&mut self) -> &mut DurableRelation {
        &mut self.table
    }

    /// Give the table back (e.g. to promote a caught-up follower).
    pub fn into_table(self) -> DurableRelation {
        self.table
    }

    /// Apply one shipped frame (CRC-verified, then ingested with
    /// recovery semantics).
    pub fn apply_frame(&mut self, frame: &[u8]) -> Result<ReplicaIngest> {
        let record = WalRecord::decode_frame(frame).ok_or_else(|| {
            if evofd_obs::enabled() {
                evofd_obs::metrics::REPL_REJECTS_TOTAL.with_label("frame").inc();
            }
            PersistError::Replication {
                message: "corrupt shipped frame (bad length or checksum)".into(),
            }
        })?;
        let outcome = self.table.ingest_replicated(&record)?;
        match outcome {
            ReplicaIngest::Applied(_) | ReplicaIngest::Doomed => {
                evofd_obs::metrics::REPL_FRAMES_APPLIED_TOTAL.inc()
            }
            ReplicaIngest::Skipped => evofd_obs::metrics::REPL_FRAMES_SKIPPED_TOTAL.inc(),
        }
        Ok(outcome)
    }

    /// Install a (re)bootstrap snapshot over the current state.
    pub fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<()> {
        self.table.install_snapshot(snapshot)
    }

    /// How far behind the leader this follower is, in sequence numbers.
    pub fn lag(&self, transport: &mut dyn FrameTransport) -> Result<u64> {
        Ok(transport.position()?.last_seq.saturating_sub(self.last_seq()))
    }

    /// One sync pass: fetch and apply until caught up (or until `limit`
    /// frames were consumed). Detects a follower that is *ahead* of its
    /// leader (divergence under lossy fsync policies) and refuses.
    pub fn sync_with_limit(
        &mut self,
        transport: &mut dyn FrameTransport,
        limit: Option<usize>,
    ) -> Result<SyncReport> {
        let pos = transport.position()?;
        if pos.last_seq < self.last_seq() {
            return Err(PersistError::Replication {
                message: format!(
                    "replica is ahead of its leader (acked {} > leader {}) — the leader lost \
                     journaled frames; re-bootstrap the replica",
                    self.last_seq(),
                    pos.last_seq
                ),
            });
        }
        let mut report = SyncReport { last_seq: self.last_seq(), ..SyncReport::default() };
        if pos.last_seq == self.last_seq() && pos.snapshot_seq <= self.last_seq() {
            // Caught up and inside the shipping horizon: skip the fetch
            // entirely — ship_from re-scans and re-frames the leader's
            // whole WAL, which an idle polling follower should not pay.
            return Ok(report);
        }
        let mut budget = limit;
        'rounds: loop {
            if budget == Some(0) {
                break;
            }
            match transport.fetch(self.last_seq())? {
                Shipment::Bootstrap { snapshot, history } => {
                    self.install_snapshot(&snapshot)?;
                    self.table.install_history(&history)?;
                    report.bootstrapped = true;
                }
                Shipment::Frames(frames) => {
                    if frames.is_empty() {
                        break;
                    }
                    for frame in &frames {
                        if budget == Some(0) {
                            break 'rounds;
                        }
                        match self.apply_frame(frame)? {
                            ReplicaIngest::Applied(drift) => {
                                report.applied += 1;
                                report.drift.extend(drift);
                            }
                            ReplicaIngest::Skipped => report.skipped += 1,
                            ReplicaIngest::Doomed => {
                                report.applied += 1;
                                report.rolled_back += 1;
                            }
                        }
                        budget = budget.map(|b| b - 1);
                    }
                }
            }
        }
        report.last_seq = self.last_seq();
        Ok(report)
    }

    /// [`ReplicaState::sync_with_limit`] without a frame cap: apply
    /// everything currently available.
    pub fn sync(&mut self, transport: &mut dyn FrameTransport) -> Result<SyncReport> {
        self.sync_with_limit(transport, None)
    }

    /// Snapshot the replica and reset its local WAL (bounds restart
    /// replay; does not contact the leader).
    pub fn checkpoint(&mut self) -> Result<()> {
        self.table.checkpoint()
    }
}

// ---------------------------------------------------------------------
// Leader-side follower ack tracking.
// ---------------------------------------------------------------------

/// Per-follower acknowledgement state kept on a serving leader (the
/// `evofd server` replication surface). Each follower's fetch for
/// everything after `seq` doubles as an ack that it has durably applied
/// every frame ≤ `seq`, so the leader can report fleet lag and the
/// minimum acked horizon without any extra protocol traffic.
///
/// Acks only move forward: a fetch below a recorded ack (a follower
/// restarting from an older local state) does not regress the record.
#[derive(Debug, Default)]
pub struct AckTracker {
    acks: std::collections::BTreeMap<(String, String), u64>,
}

impl AckTracker {
    /// An empty tracker.
    pub fn new() -> AckTracker {
        AckTracker::default()
    }

    /// Record that `follower` has acked every frame of `table` up to and
    /// including `seq`. Monotonic: lower seqs are ignored.
    pub fn record(&mut self, table: &str, follower: &str, seq: u64) {
        let entry = self.acks.entry((table.to_string(), follower.to_string())).or_insert(0);
        *entry = (*entry).max(seq);
    }

    /// The lowest acked seq across `table`'s known followers — the
    /// horizon every follower has reached. `None` when no follower has
    /// ever fetched the table.
    pub fn min_acked(&self, table: &str) -> Option<u64> {
        self.for_table(table).map(|(_, seq)| seq).min()
    }

    /// `(follower, acked seq)` pairs for one table, in follower order.
    pub fn for_table<'a>(&'a self, table: &'a str) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.acks
            .iter()
            .filter(move |((t, _), _)| t == table)
            .map(|((_, f), seq)| (f.as_str(), *seq))
    }

    /// Every `(table, follower, acked seq)` triple, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, u64)> + '_ {
        self.acks.iter().map(|((t, f), seq)| (t.as_str(), f.as_str(), *seq))
    }

    /// Forget one follower (its connection closed); its acks no longer
    /// hold back [`AckTracker::min_acked`].
    pub fn forget(&mut self, follower: &str) {
        self.acks.retain(|(_, f), _| f != follower);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_core::Fd;
    use evofd_incremental::{Delta, ValidatorConfig};
    use evofd_storage::{relation_of_strs, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("evofd_persist_replication_tests_{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn srow(a: &str, b: &str) -> Vec<Value> {
        vec![Value::str(a), Value::str(b)]
    }

    fn leader_db(dir: &Path) -> Arc<Mutex<Database>> {
        let rel =
            relation_of_strs("t", &["X", "Y"], &[&["a", "1"], &["b", "2"], &["c", "3"]]).unwrap();
        let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
        let mut db = Database::open(dir, PersistOptions::default()).unwrap();
        db.create_table(rel, fds, ValidatorConfig::default()).unwrap();
        Arc::new(Mutex::new(db))
    }

    fn apply_leader(db: &Arc<Mutex<Database>>, delta: &Delta) {
        db.lock().unwrap().get_mut("t").unwrap().apply(delta).unwrap();
    }

    fn states_equal(db: &Arc<Mutex<Database>>, replica: &ReplicaState) {
        let db = db.lock().unwrap();
        let leader = db.get("t").unwrap();
        assert_eq!(
            crate::snapshot::encode_snapshot(
                leader.live(),
                leader.validator(),
                leader.decisions(),
                leader.indexed_columns(),
                leader.alerts(),
                0,
                0
            ),
            crate::snapshot::encode_snapshot(
                replica.table().live(),
                replica.table().validator(),
                replica.table().decisions(),
                replica.table().indexed_columns(),
                replica.table().alerts(),
                0,
                0
            ),
            "leader and replica state bytes diverged"
        );
        assert_eq!(leader.last_seq(), replica.last_seq());
        assert_eq!(
            leader.history_bytes(),
            replica.table().history_bytes(),
            "leader and replica history files diverged"
        );
    }

    #[test]
    fn channel_transport_converges_and_streams_drift() {
        let ldir = tmpdir("chan_leader");
        let rdir = tmpdir("chan_replica");
        let db = leader_db(&ldir);
        let mut transport = ChannelTransport::new(Arc::clone(&db), "t");

        let mut replica =
            ReplicaState::open_or_bootstrap(&rdir, &mut transport, PersistOptions::default())
                .unwrap();
        assert_eq!(replica.last_seq(), 0);
        states_equal(&db, &replica);

        // A conflicting insert drifts X -> Y violated; deleting the old
        // conflicting row repairs it — the follower sees both events.
        apply_leader(&db, &Delta::inserting(vec![srow("a", "9")]));
        apply_leader(&db, &Delta::deleting([0]));
        let report = replica.sync(&mut transport).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.drift.len(), 2, "BecameViolated then BecameExact");
        assert_eq!(replica.lag(&mut transport).unwrap(), 0);
        states_equal(&db, &replica);

        // Caught-up sync is a no-op.
        let report = replica.sync(&mut transport).unwrap();
        assert_eq!((report.applied, report.skipped), (0, 0));
    }

    #[test]
    fn index_set_changes_replicate() {
        let ldir = tmpdir("index_leader");
        let rdir = tmpdir("index_replica");
        let db = leader_db(&ldir);
        let mut transport = ChannelTransport::new(Arc::clone(&db), "t");
        let mut replica =
            ReplicaState::open_or_bootstrap(&rdir, &mut transport, PersistOptions::default())
                .unwrap();
        // CREATE INDEX on the leader journals an IndexSet record; the
        // follower installs the set through the same shipped frames as
        // ordinary deltas.
        db.lock().unwrap().get_mut("t").unwrap().set_indexes(vec!["X".into()]).unwrap();
        apply_leader(&db, &Delta::inserting(vec![srow("d", "4")]));
        let report = replica.sync(&mut transport).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(replica.table().indexed_columns(), ["X".to_string()]);
        states_equal(&db, &replica);
        // DROP INDEX (empty set) converges too.
        db.lock().unwrap().get_mut("t").unwrap().set_indexes(Vec::new()).unwrap();
        replica.sync(&mut transport).unwrap();
        assert!(replica.table().indexed_columns().is_empty());
        states_equal(&db, &replica);
    }

    #[test]
    fn follower_restart_resumes_at_acked_position() {
        let ldir = tmpdir("resume_leader");
        let rdir = tmpdir("resume_replica");
        let db = leader_db(&ldir);
        let mut transport = ChannelTransport::new(Arc::clone(&db), "t").with_frame_limit(1);

        // Bootstrap at seq 0, BEFORE the leader traffic (the in-process
        // transport's bootstrap ships the leader's current state).
        let mut replica =
            ReplicaState::open_or_bootstrap(&rdir, &mut transport, PersistOptions::default())
                .unwrap();
        for i in 0..4 {
            apply_leader(&db, &Delta::inserting(vec![srow(&format!("k{i}"), "1")]));
        }
        replica.sync_with_limit(&mut transport, Some(2)).unwrap();
        assert_eq!(replica.last_seq(), 2);
        drop(replica); // kill mid-catch-up

        let mut replica = ReplicaState::open(&rdir, PersistOptions::default()).unwrap();
        assert_eq!(replica.last_seq(), 2, "acked position survived the restart");
        let report = replica.sync(&mut transport).unwrap();
        assert_eq!(report.applied, 2, "no duplicates, no skips");
        states_equal(&db, &replica);
    }

    #[test]
    fn leader_checkpoint_forces_rebootstrap() {
        let ldir = tmpdir("reboot_leader");
        let rdir = tmpdir("reboot_replica");
        let db = leader_db(&ldir);
        let mut transport = ChannelTransport::new(Arc::clone(&db), "t");
        let mut replica =
            ReplicaState::open_or_bootstrap(&rdir, &mut transport, PersistOptions::default())
                .unwrap();

        apply_leader(&db, &Delta::inserting(vec![srow("d", "4")]));
        // The leader checkpoints past the follower's position…
        db.lock().unwrap().get_mut("t").unwrap().checkpoint().unwrap();
        apply_leader(&db, &Delta::inserting(vec![srow("e", "5")]));
        // …so the next sync must install a fresh image, then tail on.
        let report = replica.sync(&mut transport).unwrap();
        assert!(report.bootstrapped);
        states_equal(&db, &replica);
    }

    #[test]
    fn ahead_follower_is_detected() {
        let ldir = tmpdir("ahead_leader");
        let rdir = tmpdir("ahead_replica");
        let db = leader_db(&ldir);
        let mut transport = ChannelTransport::new(Arc::clone(&db), "t");
        let mut replica =
            ReplicaState::open_or_bootstrap(&rdir, &mut transport, PersistOptions::default())
                .unwrap();
        apply_leader(&db, &Delta::inserting(vec![srow("d", "4")]));
        replica.sync(&mut transport).unwrap();

        // Simulate the leader losing its journaled tail (machine crash
        // under no-sync): rebuild the leader directory from scratch.
        drop(db);
        let ldir2 = tmpdir("ahead_leader2");
        let db = leader_db(&ldir2);
        let mut transport = ChannelTransport::new(Arc::clone(&db), "t");
        let err = replica.sync(&mut transport).unwrap_err();
        assert!(matches!(err, PersistError::Replication { .. }), "{err:?}");
        assert!(err.to_string().contains("ahead"), "{err}");
    }

    #[test]
    fn leader_restored_from_backup_is_reported_as_behind_its_replica() {
        // The disaster-recovery shape of the ahead check: an operator
        // restores a leader directory from an older backup. Followers
        // that acked seqs past the backup MUST get a hard error naming
        // the re-bootstrap path — not silently re-ship divergent frames
        // under duplicate seqs.
        let ldir = tmpdir("backup_leader");
        let rdir = tmpdir("backup_replica");
        let backup = tmpdir("backup_copy");
        let db = leader_db(&ldir);
        apply_leader(&db, &Delta::inserting(vec![srow("d", "4")]));

        // Take the backup at seq 1 (files are durable: default options
        // fsync the WAL per append).
        let table_dir = ldir.join("t");
        copy_dir_files(&table_dir, &backup);

        // More traffic after the backup; the follower tails all of it.
        apply_leader(&db, &Delta::inserting(vec![srow("e", "5")]));
        apply_leader(&db, &Delta::inserting(vec![srow("f", "6")]));
        let mut transport = DirTransport::new(&table_dir);
        let mut replica =
            ReplicaState::open_or_bootstrap(&rdir, &mut transport, PersistOptions::default())
                .unwrap();
        replica.sync(&mut transport).unwrap();
        assert_eq!(replica.last_seq(), 3);

        // Disaster: the leader directory is restored from the backup.
        drop(db);
        std::fs::remove_dir_all(&table_dir).unwrap();
        std::fs::create_dir_all(&table_dir).unwrap();
        copy_dir_files(&backup, &table_dir);
        assert_eq!(read_position(&table_dir).unwrap().last_seq, 1);

        // A fresh transport (no stale position cache — a reconnecting
        // follower) must refuse and point at re-bootstrap.
        let mut transport = DirTransport::new(&table_dir);
        let err = replica.sync(&mut transport).unwrap_err();
        assert!(matches!(err, PersistError::Replication { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("ahead"), "{msg}");
        assert!(msg.contains("re-bootstrap"), "error must name the recovery path: {msg}");
        assert!(msg.contains("acked 3"), "{msg}");
    }

    fn copy_dir_files(from: &Path, to: &Path) {
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_file() {
                std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
            }
        }
    }

    #[test]
    fn ack_tracker_is_monotonic_and_scoped_per_table() {
        let mut acks = AckTracker::new();
        assert_eq!(acks.min_acked("t"), None);
        acks.record("t", "f1", 5);
        acks.record("t", "f2", 9);
        acks.record("u", "f1", 2);
        assert_eq!(acks.min_acked("t"), Some(5));
        // A restarted follower fetching from an older seq never regresses.
        acks.record("t", "f1", 3);
        assert_eq!(acks.min_acked("t"), Some(5));
        acks.record("t", "f1", 11);
        assert_eq!(acks.min_acked("t"), Some(9));
        assert_eq!(acks.for_table("t").collect::<Vec<_>>(), vec![("f1", 11), ("f2", 9)]);
        assert_eq!(acks.iter().count(), 3);
        acks.forget("f2");
        assert_eq!(acks.min_acked("t"), Some(11));
        assert_eq!(acks.min_acked("u"), Some(2));
    }

    #[test]
    fn dir_transport_tails_wal_and_positions() {
        let ldir = tmpdir("dir_leader");
        let rdir = tmpdir("dir_replica");
        let db = leader_db(&ldir);
        apply_leader(&db, &Delta::inserting(vec![srow("d", "4")]));

        let table_dir = ldir.join("t");
        let mut transport = DirTransport::new(&table_dir);
        assert_eq!(transport.position().unwrap(), ShipPosition { snapshot_seq: 0, last_seq: 1 });
        let mut replica =
            ReplicaState::open_or_bootstrap(&rdir, &mut transport, PersistOptions::default())
                .unwrap();
        // Cold bootstrap from the CREATE-time image, then the WAL tail.
        let report = replica.sync(&mut transport).unwrap();
        assert_eq!(report.applied, 1);
        states_equal(&db, &replica);

        // New traffic shows up on the next poll — no leader cooperation.
        apply_leader(&db, &Delta::inserting(vec![srow("e", "5")]));
        let report = replica.sync(&mut transport).unwrap();
        assert_eq!(report.applied, 1);
        states_equal(&db, &replica);
        assert_eq!(read_position(&rdir).unwrap().last_seq, 2);
    }

    #[test]
    fn sync_report_counts_rolled_back_deltas() {
        let ldir = tmpdir("roll_leader");
        let rdir = tmpdir("roll_replica");
        let db = leader_db(&ldir);
        let mut transport = ChannelTransport::new(Arc::clone(&db), "t");
        let mut replica =
            ReplicaState::open_or_bootstrap(&rdir, &mut transport, PersistOptions::default())
                .unwrap();
        {
            let mut db = db.lock().unwrap();
            let t = db.get_mut("t").unwrap();
            assert!(t.apply(&Delta::inserting(vec![vec![Value::str("arity-1")]])).is_err());
            t.apply(&Delta::inserting(vec![srow("d", "4")])).unwrap();
        }
        let report = replica.sync(&mut transport).unwrap();
        assert_eq!(report.rolled_back, 1);
        assert_eq!(report.applied, 3, "doomed delta + rollback + good delta");
        states_equal(&db, &replica);
    }

    #[test]
    fn corrupt_frame_is_rejected() {
        let rdir = tmpdir("corrupt_replica");
        let ldir = tmpdir("corrupt_leader");
        let db = leader_db(&ldir);
        let mut transport = ChannelTransport::new(Arc::clone(&db), "t");
        let mut replica =
            ReplicaState::open_or_bootstrap(&rdir, &mut transport, PersistOptions::default())
                .unwrap();
        let err = replica.apply_frame(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, PersistError::Replication { .. }));
    }
}
