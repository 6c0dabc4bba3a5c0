//! # evofd-persist
//!
//! Durable storage for the `evofd` engine: a **delta write-ahead log**
//! plus **columnar snapshots** with crash recovery, turning the in-memory
//! [`evofd_incremental`] machinery into a storage engine whose state —
//! live relations, epochs, per-FD tracker counts, even the drift history
//! implicit in the delta stream — survives process death.
//!
//! The design follows the classic journal/page-store split (cf. SQLite's
//! WAL, the related `oxibase`/`sqlite` repos this reproduction tracks),
//! specialised to the paper's workload:
//!
//! * [`wal`] — length-prefixed, CRC-32-checksummed records of
//!   [`Delta`](evofd_incremental::Delta) batches, stamped with sequence
//!   numbers and the live-relation **epoch** each delta produces (LSN ↔
//!   epoch alignment), written journal-before-apply with per-commit,
//!   group-commit or no-sync `fsync` policies. Torn tails truncate to the
//!   last valid checksum.
//! * [`snapshot`] — a binary columnar image of the live relation's exact
//!   physical state (dictionaries, codes, tombstone mask) plus the
//!   incremental validator's group-tracker counts, encoded per-column in
//!   parallel on `mintpool` and written atomically (temp + rename).
//!   Recovery = snapshot load + WAL-tail replay, **O(tail)** — no FD
//!   recount.
//! * [`store`] — [`DurableRelation`] (journal-then-apply, rollback records
//!   on failed deltas, journaled tombstone compaction, WAL-size-triggered
//!   snapshot compaction) and [`Database`] (a directory of tables).
//! * [`engine`] — [`DurableEngine`], an [`evofd_sql::Engine`] whose
//!   INSERT/DELETE/UPDATE are durable transactions through the WAL, plus
//!   a read-only **replica mode** serving SELECT / `SHOW FDS` /
//!   `CHECK FD` on a follower.
//! * [`replication`] — WAL-shipping replication: a leader serves its log
//!   as a CRC-framed stream from any `(snapshot_seq, seq)` position
//!   ([`DurableRelation::ship_from`]) and a [`ReplicaState`] follower
//!   bootstraps from a shipped snapshot then applies the tail
//!   continuously — recovery that never stops. Transports:
//!   [`ChannelTransport`] (in-process) and [`DirTransport`] (tailed
//!   directory, no network stack).
//! * [`lock`] — a PID-stamped [`DirLock`] per table directory, so two
//!   processes cannot open the same table.
//!
//! ## Quickstart
//!
//! ```
//! use evofd_core::Fd;
//! use evofd_incremental::{Delta, ValidatorConfig};
//! use evofd_persist::{Database, PersistOptions};
//! use evofd_storage::{relation_of_strs, Value};
//!
//! let dir = std::env::temp_dir().join(format!("evofd_persist_doc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // Create a durable table with one FD under incremental validation.
//! let rel = relation_of_strs("places", &["Zip", "City"], &[
//!     &["10211", "NY"],
//! ]).unwrap();
//! let fd = Fd::parse(rel.schema(), "Zip -> City").unwrap();
//! let mut db = Database::open(&dir, PersistOptions::default()).unwrap();
//! db.create_table(rel, vec![fd], ValidatorConfig::default()).unwrap();
//!
//! // Journaled-then-applied: survives a kill right after this call.
//! let delta = Delta::inserting(vec![vec![Value::str("10211"), Value::str("Boston")]]);
//! let (_, drift) = db.get_mut("places").unwrap().apply(&delta).unwrap();
//! assert_eq!(drift.len(), 1, "Zip -> City drifted — durably");
//! drop(db);
//!
//! // Crash recovery: snapshot + WAL tail replay.
//! let db = Database::open(&dir, PersistOptions::default()).unwrap();
//! assert!(!db.get("places").unwrap().validator().is_exact(0));
//! ```

#![warn(missing_docs)]

pub mod alert;
pub mod codec;
pub mod crc32;
pub mod engine;
pub mod error;
pub mod history;
pub mod lock;
pub mod monitor;
pub mod replication;
pub mod snapshot;
pub mod store;
mod table;
pub mod wal;

pub use alert::{AlertMetric, AlertOp, AlertRule, AlertRuntime, AlertState, AlertTransition};
pub use crc32::{crc32, Crc32};
pub use engine::DurableEngine;
pub use error::{PersistError, Result};
pub use history::{
    scan_history, AlertEntry, DriftEntry, FdSample, HistoryFrame, HistoryScan, HistoryWriter,
    HISTORY_FILE,
};
pub use lock::{DirLock, LOCK_FILE};
pub use monitor::DbMonitorSource;
pub use replication::{
    read_position, AckTracker, ChannelTransport, DirTransport, FrameTransport, ReplicaState,
    ShipPosition, Shipment, SyncReport,
};
pub use snapshot::{read_snapshot, write_snapshot, SnapshotState};
pub use store::{
    Database, DurableRelation, PersistOptions, RecoveryReport, ReplicaIngest, SNAPSHOT_FILE,
    WAL_FILE,
};
pub use wal::{recover_wal, scan_wal, SyncPolicy, WalRecord, WalScan, WalWriter};
