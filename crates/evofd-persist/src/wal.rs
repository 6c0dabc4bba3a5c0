//! The delta write-ahead log.
//!
//! ## On-disk layout
//!
//! ```text
//! header:  [ magic "EVFDWAL1" (8) ][ version u32 LE (4) ]
//! record:  [ len u32 LE (4) ][ crc32(payload) u32 LE (4) ][ payload (len) ]
//! ```
//!
//! Records repeat until EOF. The **payload** starts with a one-byte record
//! kind followed by kind-specific fields (see [`WalRecord`]); every record
//! carries a monotone sequence number `seq`, and delta records additionally
//! carry `epoch_after` — the [`evofd_incremental::LiveRelation`] epoch the
//! relation holds once the delta is applied, aligning WAL positions 1:1
//! with live-relation epochs.
//!
//! ## Torn tails
//!
//! A crash mid-write leaves a partial frame at the end: a short header, a
//! payload shorter than `len`, or a checksum mismatch. Recovery
//! ([`recover_wal`]) treats all three as the end of the log, truncates the
//! file back to the last whole valid record and replays only the surviving
//! prefix — prefix consistency, never partial application. A bad frame
//! *followed by valid data* is indistinguishable from a torn tail at scan
//! time; truncation is still safe because every commit is sequenced and
//! the snapshot seq gates replay.
//!
//! ## Group commit
//!
//! [`WalWriter`] buffers encoded frames and lets [`SyncPolicy`] decide
//! when to `fsync`: every commit (full durability), every N commits
//! (bounded loss, much higher throughput), or never (OS-buffered, for
//! bulk loads and benchmarks). Buffered frames are always *written* to the
//! file on append — only the `fsync` is deferred — so a clean process exit
//! loses nothing under any policy.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use evofd_incremental::{DecisionAction, DecisionRecord};
use evofd_storage::Value;

use crate::codec::{Decoder, Encoder};
use crate::crc32::crc32;
use crate::error::{io_err, PersistError, Result};

/// WAL file magic.
pub const WAL_MAGIC: [u8; 8] = *b"EVFDWAL1";
/// WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Header bytes: magic + version.
pub const WAL_HEADER_LEN: u64 = 12;
/// Frame overhead: length + checksum.
const FRAME_HEADER_LEN: usize = 8;
/// Sanity bound on a single record payload (64 MiB).
const MAX_RECORD_LEN: u32 = 64 << 20;

const KIND_DELTA: u8 = 1;
const KIND_ROLLBACK: u8 = 2;
const KIND_COMPACT: u8 = 3;
const KIND_CURSOR: u8 = 4;
const KIND_FDSET: u8 = 5;
const KIND_DECISION: u8 = 6;
const KIND_INDEXSET: u8 = 7;
const KIND_ALERTSET: u8 = 8;

const ACTION_ACCEPT: u8 = 0;
const ACTION_KEEP: u8 = 1;
const ACTION_DROP: u8 = 2;

/// Encode one advisor decision (shared with the snapshot format).
pub(crate) fn encode_decision(e: &mut Encoder, record: &DecisionRecord) {
    e.str(&record.fd);
    match &record.action {
        DecisionAction::Accept { proposal, evolved } => {
            e.u8(ACTION_ACCEPT);
            e.u32(*proposal);
            e.str(evolved);
        }
        DecisionAction::Keep => e.u8(ACTION_KEEP),
        DecisionAction::Drop => e.u8(ACTION_DROP),
    }
}

/// Decode one advisor decision. `None` on a malformed action tag or a
/// truncated buffer.
pub(crate) fn decode_decision(d: &mut Decoder) -> Option<DecisionRecord> {
    let fd = d.str("decision fd").ok()?;
    let action = match d.u8("decision action").ok()? {
        ACTION_ACCEPT => DecisionAction::Accept {
            proposal: d.u32("proposal").ok()?,
            evolved: d.str("evolved fd").ok()?,
        },
        ACTION_KEEP => DecisionAction::Keep,
        ACTION_DROP => DecisionAction::Drop,
        _ => return None,
    };
    Some(DecisionRecord { fd, action })
}

/// One durable log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed [`evofd_incremental::Delta`] batch.
    Delta {
        /// Monotone record sequence number.
        seq: u64,
        /// The live relation's epoch after applying this delta.
        epoch_after: u64,
        /// A stream-cursor update committed **atomically** with the delta
        /// (see [`WalRecord::Cursor`]); `None` leaves the cursor alone.
        cursor: Option<u64>,
        /// Appended tuples.
        inserts: Vec<Vec<Value>>,
        /// Tombstoned physical row ids (valid for the layout at this
        /// epoch).
        deletes: Vec<u64>,
    },
    /// A previously journaled delta failed to apply (the in-memory engine
    /// rejected it atomically); replay must skip `target_seq`.
    Rollback {
        /// Monotone record sequence number.
        seq: u64,
        /// The sequence number of the delta being cancelled.
        target_seq: u64,
    },
    /// The live relation compacted (tombstones rewritten away, physical
    /// ids and dictionary codes reassigned deterministically); replay must
    /// compact at exactly this point.
    Compact {
        /// Monotone record sequence number.
        seq: u64,
        /// The live relation's epoch after compaction.
        epoch_after: u64,
    },
    /// An application-defined stream position (e.g. how many records of a
    /// `watch` delta stream have been consumed), so a restarted consumer
    /// can resume mid-stream.
    Cursor {
        /// Monotone record sequence number.
        seq: u64,
        /// The cursor value.
        value: u64,
    },
    /// The tracked-FD set changed (`ALTER TABLE … CONSTRAINT FD`): the
    /// **full** new set, rendered against the table schema. Replay
    /// rebuilds the incremental validator (and advisor) with it; advisor
    /// decisions for FDs no longer in the set are retired.
    FdSet {
        /// Monotone record sequence number.
        seq: u64,
        /// The complete tracked-FD set after the change, rendered.
        fds: Vec<String>,
    },
    /// A designer decision of the live advisor session (accept / keep /
    /// drop), journaled so recovery and replicas restore the session.
    Decision {
        /// Monotone record sequence number.
        seq: u64,
        /// The decision.
        record: DecisionRecord,
    },
    /// The secondary-index column set changed (`CREATE INDEX` /
    /// `DROP INDEX`): the **full** new set of indexed column names.
    /// Replay rebuilds the indexes from the table's own rows — like
    /// [`WalRecord::FdSet`], only the set is journaled, never the index
    /// contents.
    IndexSet {
        /// Monotone record sequence number.
        seq: u64,
        /// The complete indexed-column set after the change.
        columns: Vec<String>,
    },
    /// The alert-rule set changed (`ALERT ON …`): the **full** new set in
    /// canonical rule text. Like [`WalRecord::FdSet`], only the rule set
    /// is journaled; runtime state (consecutive-epoch counters, firing
    /// flags) lives in the snapshot and is re-derived on replay.
    AlertSet {
        /// Monotone record sequence number.
        seq: u64,
        /// The complete alert-rule set after the change, in canonical text.
        rules: Vec<String>,
    },
}

impl WalRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Delta { seq, .. }
            | WalRecord::Rollback { seq, .. }
            | WalRecord::Compact { seq, .. }
            | WalRecord::Cursor { seq, .. }
            | WalRecord::FdSet { seq, .. }
            | WalRecord::Decision { seq, .. }
            | WalRecord::IndexSet { seq, .. }
            | WalRecord::AlertSet { seq, .. } => *seq,
        }
    }

    /// The delta a rollback record cancels (`None` for other kinds).
    pub(crate) fn rollback_target(&self) -> Option<u64> {
        match self {
            WalRecord::Rollback { target_seq, .. } => Some(*target_seq),
            _ => None,
        }
    }

    /// Encode the payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            WalRecord::Delta { seq, epoch_after, cursor, inserts, deletes } => {
                e.u8(KIND_DELTA);
                e.u64(*seq);
                e.u64(*epoch_after);
                match cursor {
                    Some(v) => {
                        e.u8(1);
                        e.u64(*v);
                    }
                    None => e.u8(0),
                }
                e.u32(inserts.len() as u32);
                for row in inserts {
                    e.u32(row.len() as u32);
                    for v in row {
                        e.value(v);
                    }
                }
                e.u32(deletes.len() as u32);
                for &d in deletes {
                    e.u64(d);
                }
            }
            WalRecord::Rollback { seq, target_seq } => {
                e.u8(KIND_ROLLBACK);
                e.u64(*seq);
                e.u64(*target_seq);
            }
            WalRecord::Compact { seq, epoch_after } => {
                e.u8(KIND_COMPACT);
                e.u64(*seq);
                e.u64(*epoch_after);
            }
            WalRecord::Cursor { seq, value } => {
                e.u8(KIND_CURSOR);
                e.u64(*seq);
                e.u64(*value);
            }
            WalRecord::FdSet { seq, fds } => {
                e.u8(KIND_FDSET);
                e.u64(*seq);
                e.u32(fds.len() as u32);
                for fd in fds {
                    e.str(fd);
                }
            }
            WalRecord::Decision { seq, record } => {
                e.u8(KIND_DECISION);
                e.u64(*seq);
                encode_decision(&mut e, record);
            }
            WalRecord::IndexSet { seq, columns } => {
                e.u8(KIND_INDEXSET);
                e.u64(*seq);
                e.u32(columns.len() as u32);
                for c in columns {
                    e.str(c);
                }
            }
            WalRecord::AlertSet { seq, rules } => {
                e.u8(KIND_ALERTSET);
                e.u64(*seq);
                e.u32(rules.len() as u32);
                for r in rules {
                    e.str(r);
                }
            }
        }
        e.into_bytes()
    }

    /// Decode a payload. `None` on any structural problem (the caller
    /// treats it as a torn/invalid frame).
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut d = Decoder::new(payload);
        let kind = d.u8("record kind").ok()?;
        let rec = match kind {
            KIND_DELTA => {
                let seq = d.u64("seq").ok()?;
                let epoch_after = d.u64("epoch").ok()?;
                let cursor = match d.u8("cursor flag").ok()? {
                    0 => None,
                    1 => Some(d.u64("cursor").ok()?),
                    _ => return None,
                };
                let n_ins = d.u32("insert count").ok()? as usize;
                let mut inserts = Vec::with_capacity(n_ins.min(1 << 16));
                for _ in 0..n_ins {
                    let arity = d.u32("row arity").ok()? as usize;
                    let mut row = Vec::with_capacity(arity.min(1 << 12));
                    for _ in 0..arity {
                        row.push(d.value("cell").ok()?);
                    }
                    inserts.push(row);
                }
                let n_del = d.u32("delete count").ok()? as usize;
                let mut deletes = Vec::with_capacity(n_del.min(1 << 16));
                for _ in 0..n_del {
                    deletes.push(d.u64("delete row").ok()?);
                }
                WalRecord::Delta { seq, epoch_after, cursor, inserts, deletes }
            }
            KIND_ROLLBACK => {
                WalRecord::Rollback { seq: d.u64("seq").ok()?, target_seq: d.u64("target").ok()? }
            }
            KIND_COMPACT => {
                WalRecord::Compact { seq: d.u64("seq").ok()?, epoch_after: d.u64("epoch").ok()? }
            }
            KIND_CURSOR => {
                WalRecord::Cursor { seq: d.u64("seq").ok()?, value: d.u64("value").ok()? }
            }
            KIND_FDSET => {
                let seq = d.u64("seq").ok()?;
                let n = d.u32("fd count").ok()? as usize;
                let mut fds = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    fds.push(d.str("fd text").ok()?);
                }
                WalRecord::FdSet { seq, fds }
            }
            KIND_DECISION => {
                let seq = d.u64("seq").ok()?;
                WalRecord::Decision { seq, record: decode_decision(&mut d)? }
            }
            KIND_INDEXSET => {
                let seq = d.u64("seq").ok()?;
                let n = d.u32("column count").ok()? as usize;
                let mut columns = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    columns.push(d.str("column name").ok()?);
                }
                WalRecord::IndexSet { seq, columns }
            }
            KIND_ALERTSET => {
                let seq = d.u64("seq").ok()?;
                let n = d.u32("rule count").ok()? as usize;
                let mut rules = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    rules.push(d.str("rule text").ok()?);
                }
                WalRecord::AlertSet { seq, rules }
            }
            _ => return None,
        };
        d.is_exhausted().then_some(rec)
    }

    /// Decode exactly one full frame (`[len][crc][payload]`, no trailing
    /// bytes), verifying the length and checksum — the shipped-frame
    /// counterpart of [`WalRecord::encode_frame`]. `None` on any mismatch.
    pub fn decode_frame(frame: &[u8]) -> Option<WalRecord> {
        if frame.len() < FRAME_HEADER_LEN {
            return None;
        }
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN || frame.len() != FRAME_HEADER_LEN + len as usize {
            return None;
        }
        let payload = &frame[FRAME_HEADER_LEN..];
        if crc32(payload) != crc {
            return None;
        }
        WalRecord::decode(payload)
    }

    /// Encode a full frame: `[len][crc][payload]`.
    pub fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }
}

/// When the WAL writer `fsync`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every commit: no committed delta is ever lost.
    PerCommit,
    /// `fsync` once every N commits (group commit): at most N−1 committed
    /// deltas are lost on a crash, prefix-consistently.
    GroupCommit(usize),
    /// Never `fsync` (the OS flushes eventually): fastest, no crash
    /// guarantee — for bulk loads and benchmarks.
    NoSync,
}

impl SyncPolicy {
    /// Parse `per-commit` / `group:N` / `no-sync` (CLI flag format).
    pub fn parse(text: &str) -> Option<SyncPolicy> {
        match text {
            "per-commit" | "percommit" | "fsync" => Some(SyncPolicy::PerCommit),
            "no-sync" | "nosync" | "none" => Some(SyncPolicy::NoSync),
            other => {
                let n: usize = other.strip_prefix("group:")?.parse().ok()?;
                Some(SyncPolicy::GroupCommit(n.max(1)))
            }
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::PerCommit => write!(f, "per-commit"),
            SyncPolicy::GroupCommit(n) => write!(f, "group:{n}"),
            SyncPolicy::NoSync => write!(f, "no-sync"),
        }
    }
}

/// Append handle over a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    /// Commits appended since the last `fsync`.
    unsynced: usize,
    /// Current file length (header + whole frames).
    bytes: u64,
    /// Cached policy-labeled latency handles (see [`WalWriter::append_hist`]).
    append_hist: Option<std::sync::Arc<evofd_obs::Histogram>>,
    fsync_hist: Option<std::sync::Arc<evofd_obs::Histogram>>,
}

impl WalWriter {
    /// Create a fresh WAL (truncating any existing file), write and sync
    /// the header.
    pub fn create(path: &Path, policy: SyncPolicy) -> Result<WalWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.write_all(&WAL_MAGIC).map_err(|e| io_err(path, e))?;
        file.write_all(&WAL_VERSION.to_le_bytes()).map_err(|e| io_err(path, e))?;
        file.sync_all().map_err(|e| io_err(path, e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            bytes: WAL_HEADER_LEN,
            append_hist: None,
            fsync_hist: None,
        })
    }

    /// Open an existing WAL for appending at `valid_bytes` (the length a
    /// prior [`recover_wal`] validated and truncated to).
    pub fn open_at(path: &Path, policy: SyncPolicy, valid_bytes: u64) -> Result<WalWriter> {
        let mut file =
            OpenOptions::new().read(true).write(true).open(path).map_err(|e| io_err(path, e))?;
        file.seek(SeekFrom::Start(valid_bytes)).map_err(|e| io_err(path, e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            bytes: valid_bytes,
            append_hist: None,
            fsync_hist: None,
        })
    }

    /// Append one record and apply the sync policy. The frame always
    /// reaches the file (buffered by the OS); only the `fsync` is
    /// policy-dependent.
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        let timer = evofd_obs::Timer::start();
        let frame = record.encode_frame();
        self.file.write_all(&frame).map_err(|e| io_err(&self.path, e))?;
        self.bytes += frame.len() as u64;
        self.unsynced += 1;
        evofd_obs::metrics::WAL_APPENDS_TOTAL.inc();
        evofd_obs::metrics::WAL_BYTES_WRITTEN_TOTAL.add(frame.len() as u64);
        if let Some(ns) = timer.elapsed_ns() {
            self.append_hist().record(ns);
        }
        match self.policy {
            SyncPolicy::PerCommit => self.sync()?,
            SyncPolicy::GroupCommit(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::NoSync => {}
        }
        Ok(())
    }

    /// Force an `fsync` now (e.g. before acknowledging a rollback or
    /// closing cleanly).
    pub fn sync(&mut self) -> Result<()> {
        let timer = evofd_obs::Timer::start();
        self.file.sync_all().map_err(|e| io_err(&self.path, e))?;
        self.unsynced = 0;
        if let Some(ns) = timer.elapsed_ns() {
            self.fsync_hist().record(ns);
        }
        Ok(())
    }

    /// Cached handle into the policy-labeled append histogram (the lookup
    /// takes the family mutex, so it must not sit on the per-append path).
    fn append_hist(&mut self) -> &evofd_obs::Histogram {
        self.append_hist.get_or_insert_with(|| {
            evofd_obs::metrics::WAL_APPEND_SECONDS.with_label(&self.policy.to_string())
        })
    }

    /// Cached handle into the policy-labeled fsync histogram.
    fn fsync_hist(&mut self) -> &evofd_obs::Histogram {
        self.fsync_hist.get_or_insert_with(|| {
            evofd_obs::metrics::WAL_FSYNC_SECONDS.with_label(&self.policy.to_string())
        })
    }

    /// Current WAL length in bytes — the snapshot-compaction trigger.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Truncate back to the bare header (after a snapshot makes the log
    /// redundant) and sync.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(WAL_HEADER_LEN).map_err(|e| io_err(&self.path, e))?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN)).map_err(|e| io_err(&self.path, e))?;
        self.bytes = WAL_HEADER_LEN;
        self.sync()
    }
}

/// What a WAL scan found.
#[derive(Debug)]
pub struct WalScan {
    /// Whole, checksum-valid records in file order.
    pub records: Vec<WalRecord>,
    /// Byte offset of each record's frame, parallel to `records` — what
    /// recovery needs to amputate a final record that proves unappliable.
    pub offsets: Vec<u64>,
    /// File length covered by the header plus whole valid records.
    pub valid_bytes: u64,
    /// Bytes beyond `valid_bytes` (torn tail; 0 for a clean log).
    pub torn_bytes: u64,
}

/// Scan a WAL file without modifying it. A missing file yields an empty
/// scan; a file too short to hold the header is all torn tail; wrong
/// magic or version on a complete header is a hard error (the file is not
/// ours, or from a future format — truncating it would destroy data).
pub fn scan_wal(path: &Path) -> Result<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                offsets: Vec::new(),
                valid_bytes: 0,
                torn_bytes: 0,
            })
        }
        Err(e) => return Err(io_err(path, e)),
    };
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        // A crash during initial creation: nothing recoverable.
        return Ok(WalScan {
            records: Vec::new(),
            offsets: Vec::new(),
            valid_bytes: 0,
            torn_bytes: bytes.len() as u64,
        });
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(PersistError::CorruptWal {
            path: path.to_path_buf(),
            message: "bad magic (not an evofd WAL)".into(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(PersistError::CorruptWal {
            path: path.to_path_buf(),
            message: format!("unsupported version {version}"),
        });
    }

    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    while let Some(frame_header) = bytes.get(pos..pos + FRAME_HEADER_LEN) {
        let len = u32::from_le_bytes(frame_header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(frame_header[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            break; // garbage length: treat as torn
        }
        let start = pos + FRAME_HEADER_LEN;
        let Some(payload) = bytes.get(start..start + len as usize) else { break };
        if crc32(payload) != crc {
            break;
        }
        let Some(record) = WalRecord::decode(payload) else { break };
        records.push(record);
        offsets.push(pos as u64);
        pos = start + len as usize;
    }
    Ok(WalScan {
        records,
        offsets,
        valid_bytes: pos as u64,
        torn_bytes: bytes.len() as u64 - pos as u64,
    })
}

/// Scan a WAL and truncate any torn tail in place, so subsequent appends
/// extend a log whose every byte is valid. Creates a fresh header if the
/// file was missing or shorter than a header.
pub fn recover_wal(path: &Path) -> Result<WalScan> {
    let mut scan = scan_wal(path)?;
    if scan.valid_bytes < WAL_HEADER_LEN {
        // Missing or headerless: (re)initialise.
        WalWriter::create(path, SyncPolicy::PerCommit)?;
        scan.valid_bytes = WAL_HEADER_LEN;
        return Ok(scan);
    }
    if scan.torn_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path).map_err(|e| io_err(path, e))?;
        file.set_len(scan.valid_bytes).map_err(|e| io_err(path, e))?;
        file.sync_all().map_err(|e| io_err(path, e))?;
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("evofd_persist_wal_tests_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Delta {
                seq: 1,
                epoch_after: 1,
                cursor: Some(5),
                inserts: vec![
                    vec![Value::str("a"), Value::Int(1)],
                    vec![Value::Null, Value::Int(2)],
                ],
                deletes: vec![0],
            },
            WalRecord::Rollback { seq: 2, target_seq: 1 },
            WalRecord::Compact { seq: 3, epoch_after: 2 },
            WalRecord::Cursor { seq: 4, value: 99 },
            WalRecord::FdSet { seq: 5, fds: vec!["[X] -> [Y]".into(), "[Y] -> [X]".into()] },
            WalRecord::Decision {
                seq: 6,
                record: DecisionRecord {
                    fd: "[X] -> [Y]".into(),
                    action: DecisionAction::Accept { proposal: 0, evolved: "[X, Z] -> [Y]".into() },
                },
            },
            WalRecord::Decision {
                seq: 7,
                record: DecisionRecord { fd: "[Y] -> [X]".into(), action: DecisionAction::Keep },
            },
            WalRecord::IndexSet { seq: 8, columns: vec!["City".into(), "Zip".into()] },
            WalRecord::IndexSet { seq: 9, columns: Vec::new() },
            WalRecord::AlertSet {
                seq: 10,
                rules: vec!["ALERT ON t FD '[X] -> [Y]' WHEN confidence < 0.98 FOR 5 EPOCHS".into()],
            },
            WalRecord::AlertSet { seq: 11, rules: Vec::new() },
        ]
    }

    #[test]
    fn record_payload_round_trips() {
        for rec in sample_records() {
            let payload = rec.encode();
            assert_eq!(WalRecord::decode(&payload), Some(rec));
        }
        // Trailing garbage is rejected (payload must be exhausted).
        let mut payload = sample_records()[1].encode();
        payload.push(0);
        assert_eq!(WalRecord::decode(&payload), None);
        assert_eq!(WalRecord::decode(&[42]), None, "unknown kind");
    }

    #[test]
    fn frame_round_trips_and_rejects_damage() {
        for rec in sample_records() {
            let frame = rec.encode_frame();
            assert_eq!(WalRecord::decode_frame(&frame), Some(rec.clone()));
            // Any truncation is rejected.
            for cut in 0..frame.len() {
                assert_eq!(WalRecord::decode_frame(&frame[..cut]), None, "cut {cut}");
            }
            // Trailing garbage is rejected (a frame is exactly one record).
            let mut long = frame.clone();
            long.push(0);
            assert_eq!(WalRecord::decode_frame(&long), None);
            // A flipped payload byte fails the checksum.
            let mut flipped = frame.clone();
            let last = flipped.len() - 1;
            flipped[last] ^= 0xFF;
            assert_eq!(WalRecord::decode_frame(&flipped), None);
        }
    }

    #[test]
    fn write_scan_round_trips() {
        let path = tmp("round.wal");
        let mut w = WalWriter::create(&path, SyncPolicy::PerCommit).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, sample_records());
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.valid_bytes, w.bytes());
    }

    #[test]
    fn torn_tail_truncated_at_every_cut() {
        let path = tmp("torn.wal");
        let mut w = WalWriter::create(&path, SyncPolicy::NoSync).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        w.sync().unwrap();
        let full = std::fs::read(&path).unwrap();

        // Record boundaries: header + cumulative frame lengths.
        let mut boundaries = vec![WAL_HEADER_LEN as usize];
        for rec in sample_records() {
            boundaries.push(boundaries.last().unwrap() + rec.encode_frame().len());
        }

        let cut_path = tmp("torn_cut.wal");
        for cut in 0..=full.len() {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let scan = recover_wal(&cut_path).unwrap();
            // Expected surviving records: whole frames before the cut
            // (a cut inside the header itself leaves zero).
            let expect = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            assert_eq!(scan.records.len(), expect, "cut at byte {cut}");
            assert_eq!(
                scan.records,
                sample_records()[..expect].to_vec(),
                "prefix consistency at byte {cut}"
            );
            // After recovery the file itself is valid end to end.
            let rescan = scan_wal(&cut_path).unwrap();
            assert_eq!(rescan.torn_bytes, 0, "cut at byte {cut} left a tail");
            assert_eq!(rescan.records.len(), expect);
        }
    }

    #[test]
    fn corrupted_middle_byte_stops_the_scan() {
        let path = tmp("flip.wal");
        let mut w = WalWriter::create(&path, SyncPolicy::PerCommit).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let off = WAL_HEADER_LEN as usize + sample_records()[0].encode_frame().len() + 9;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1, "only the intact prefix survives");
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn wrong_magic_is_a_hard_error() {
        let path = tmp("magic.wal");
        std::fs::write(&path, b"NOTAWAL!\x01\x00\x00\x00records").unwrap();
        assert!(matches!(scan_wal(&path), Err(PersistError::CorruptWal { .. })));
        assert!(matches!(recover_wal(&path), Err(PersistError::CorruptWal { .. })));
    }

    #[test]
    fn missing_file_scans_empty_and_recovery_creates() {
        let path = tmp("fresh_missing.wal");
        let _ = std::fs::remove_file(&path);
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        let scan = recover_wal(&path).unwrap();
        assert_eq!(scan.valid_bytes, WAL_HEADER_LEN);
        assert!(path.exists());
    }

    #[test]
    fn group_commit_and_reset() {
        let path = tmp("group.wal");
        let mut w = WalWriter::create(&path, SyncPolicy::GroupCommit(8)).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        assert!(w.bytes() > WAL_HEADER_LEN);
        w.reset().unwrap();
        assert_eq!(w.bytes(), WAL_HEADER_LEN);
        assert!(scan_wal(&path).unwrap().records.is_empty());
        // Appends after a reset extend the fresh log.
        w.append(&sample_records()[3]).unwrap();
        w.sync().unwrap();
        assert_eq!(scan_wal(&path).unwrap().records.len(), 1);
    }

    #[test]
    fn open_at_appends_after_recovery() {
        let path = tmp("openat.wal");
        let mut w = WalWriter::create(&path, SyncPolicy::PerCommit).unwrap();
        w.append(&sample_records()[0]).unwrap();
        let valid = w.bytes();
        drop(w);
        let mut w = WalWriter::open_at(&path, SyncPolicy::PerCommit, valid).unwrap();
        w.append(&sample_records()[3]).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn sync_policy_parse_and_display() {
        assert_eq!(SyncPolicy::parse("per-commit"), Some(SyncPolicy::PerCommit));
        assert_eq!(SyncPolicy::parse("no-sync"), Some(SyncPolicy::NoSync));
        assert_eq!(SyncPolicy::parse("group:32"), Some(SyncPolicy::GroupCommit(32)));
        assert_eq!(SyncPolicy::parse("group:0"), Some(SyncPolicy::GroupCommit(1)));
        assert_eq!(SyncPolicy::parse("sometimes"), None);
        assert_eq!(SyncPolicy::GroupCommit(8).to_string(), "group:8");
    }
}
