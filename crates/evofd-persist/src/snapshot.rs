//! Columnar snapshots: a point-in-time binary image of a
//! [`LiveRelation`]'s **physical** state (dictionaries + coded columns +
//! liveness mask) plus the [`IncrementalValidator`]'s per-FD group-tracker
//! counts.
//!
//! Because the physical layout is preserved exactly — codes, row ids,
//! tombstones — a recovered relation can replay the WAL tail on top and
//! the tracker keys (dictionary-code tuples) stay valid, making recovery
//! O(tail) instead of a full O(rows) recompute of every FD's counts.
//!
//! ## On-disk layout
//!
//! ```text
//! [ magic "EVFDSNP1" (8) ][ version u32 ][ body_len u64 ][ crc32(body) u32 ][ body ]
//! ```
//!
//! The body carries, in order: `last_seq`/`cursor`/`epoch`, the schema,
//! the columns (each dictionary in code order + the code array), the
//! packed liveness bitmap, the validator config, the FDs and the tracker
//! group counts, (since version 2) the advisor session's decision
//! records — so recovery and replica bootstrap restore the designer loop,
//! not just the data — (since version 3) the names of the columns
//! under secondary indexing, so the planner's indexes come back without
//! a WAL replay of the `CREATE INDEX` history, and (since version 4) the
//! alert rules with their runtime state (consecutive-epoch streaks,
//! firing flags), so a kill/reopen neither re-fires a firing alert nor
//! forgets progress toward one. Column bodies are encoded
//! **in parallel** on `mintpool` (one task per column) and concatenated
//! in schema order, so snapshot writing scales with width on wide
//! relations.
//!
//! Snapshots are written to a temp file, synced, then atomically renamed
//! over the previous snapshot (`write_file_atomic`) — a crash mid-write
//! never destroys the old one.

use std::path::Path;
use std::sync::Arc;

use evofd_core::Fd;
use evofd_incremental::{
    DecisionRecord, GroupCounts, IncrementalValidator, LiveRelation, TrackerSnapshot,
    ValidatorConfig,
};
use evofd_storage::{AttrSet, Column, Field, Relation, Schema};

use crate::alert::AlertState;
use crate::codec::{dtype_from_tag, dtype_tag, Decoder, Encoder};
use crate::crc32::crc32;
use crate::error::{io_err, PersistError, Result};

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"EVFDSNP1";
/// Snapshot format version (2 added the advisor decision section, 3 the
/// indexed-column section, 4 the alert-rule section).
pub const SNAPSHOT_VERSION: u32 = 4;

/// Everything a snapshot restores.
#[derive(Debug)]
pub struct SnapshotState {
    /// The live relation, physical layout identical to what was saved.
    pub live: LiveRelation,
    /// The FDs under incremental validation.
    pub fds: Vec<Fd>,
    /// The validator configuration.
    pub config: ValidatorConfig,
    /// Per-FD tracker group counts, importable without a relation scan.
    pub trackers: Vec<TrackerSnapshot>,
    /// The advisor session's decisions at snapshot time, in decision
    /// order — enough to restore the designer loop without re-running any
    /// proposal search.
    pub decisions: Vec<DecisionRecord>,
    /// Canonical names of the columns under secondary indexing at
    /// snapshot time. Only the **set** is saved — index contents are
    /// derived state the SQL engine rebuilds from the rows on open.
    pub indexed_columns: Vec<String>,
    /// The alert rules and their runtime state at snapshot time.
    pub alerts: AlertState,
    /// The last WAL sequence number folded into this snapshot; replay
    /// skips records at or below it.
    pub last_seq: u64,
    /// The application stream cursor at snapshot time.
    pub cursor: u64,
}

fn corrupt(path: &Path, message: impl Into<String>) -> PersistError {
    PersistError::CorruptSnapshot { path: path.to_path_buf(), message: message.into() }
}

/// Encode one column's body: dictionary values in code order, then codes.
fn encode_column(col: &Column) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(col.dict().len() as u32);
    for v in col.dict().values() {
        e.value(v);
    }
    for row in 0..col.len() {
        e.u32(col.code_at(row));
    }
    e.into_bytes()
}

/// Serialize the full state into bytes (header + body). Exposed for
/// tests; [`write_snapshot`] adds the atomic temp-file/rename dance.
pub fn encode_snapshot(
    live: &LiveRelation,
    validator: &IncrementalValidator,
    decisions: &[DecisionRecord],
    indexed_columns: &[String],
    alerts: &AlertState,
    last_seq: u64,
    cursor: u64,
) -> Vec<u8> {
    let rel = live.relation();
    let mut body = Encoder::new();
    body.u64(last_seq);
    body.u64(cursor);
    body.u64(live.epoch());

    // Schema.
    let schema = rel.schema();
    body.str(schema.name());
    body.u32(schema.arity() as u32);
    for f in schema.fields() {
        body.str(&f.name);
        body.u8(dtype_tag(f.dtype));
        body.u8(u8::from(f.nullable));
    }

    // Columns: per-column parallel encode, sequential concatenation in
    // schema order (each prefixed with its byte length).
    body.u64(rel.row_count() as u64);
    let encoded: Vec<Vec<u8>> = mintpool::par_map(rel.columns(), encode_column);
    for col_bytes in &encoded {
        body.u64(col_bytes.len() as u64);
        body.raw(col_bytes);
    }

    // Liveness bitmap, packed LSB-first.
    let mask = live.live_mask();
    let mut packed = vec![0u8; mask.len().div_ceil(8)];
    for (i, &alive) in mask.iter().enumerate() {
        if alive {
            packed[i / 8] |= 1 << (i % 8);
        }
    }
    body.raw(&packed);

    // Validator config.
    let config = validator.config();
    body.f64(config.full_recompute_fraction);
    body.u32(config.confidence_thresholds.len() as u32);
    for &t in &config.confidence_thresholds {
        body.f64(t);
    }

    // FDs and tracker counts.
    let fds = validator.fds();
    let trackers = validator.export_trackers();
    body.u32(fds.len() as u32);
    for (fd, tracker) in fds.iter().zip(&trackers) {
        for set in [fd.lhs(), fd.rhs()] {
            body.u32(set.len() as u32);
            for a in set.iter() {
                body.u32(a.index() as u32);
            }
        }
        // An approx (memory-bounded) tracker has no exact groups to save;
        // the u32::MAX group-count marker records that fact so recovery
        // rebuilds it from live rows instead of trusting empty counts.
        // Exact trackers encode exactly as before the marker existed.
        if tracker.approx {
            body.u32(u32::MAX);
            continue;
        }
        body.u32(tracker.groups.len() as u32);
        for g in &tracker.groups {
            body.u32(g.lhs_key.len() as u32);
            for &c in &g.lhs_key {
                body.u32(c);
            }
            body.u32(g.rhs.len() as u32);
            for (rkey, n) in &g.rhs {
                body.u32(rkey.len() as u32);
                for &c in rkey {
                    body.u32(c);
                }
                body.u32(*n);
            }
        }
    }

    // Advisor decision records (version 2).
    body.u32(decisions.len() as u32);
    for record in decisions {
        crate::wal::encode_decision(&mut body, record);
    }

    // Indexed columns (version 3): the set only, never the contents.
    body.u32(indexed_columns.len() as u32);
    for col in indexed_columns {
        body.str(col);
    }

    // Alert rules + runtime (version 4).
    alerts.encode(&mut body);

    let body = body.into_bytes();
    let mut out = Vec::with_capacity(24 + body.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode snapshot bytes. `path` is only used for error messages.
pub fn decode_snapshot(path: &Path, bytes: &[u8]) -> Result<SnapshotState> {
    if bytes.len() < 24 {
        return Err(corrupt(path, "shorter than the header"));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt(path, "bad magic (not an evofd snapshot)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if !(1..=SNAPSHOT_VERSION).contains(&version) {
        return Err(corrupt(path, format!("unsupported version {version}")));
    }
    let body_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let body = usize::try_from(body_len)
        .ok()
        .and_then(|len| bytes.get(24..24usize.checked_add(len)?))
        .ok_or_else(|| corrupt(path, "truncated body"))?;
    if crc32(body) != crc {
        return Err(corrupt(path, "checksum mismatch"));
    }

    let mut d = Decoder::new(body);
    let fail = |e: crate::codec::DecodeError| corrupt(path, e.to_string());

    let last_seq = d.u64("last_seq").map_err(fail)?;
    let cursor = d.u64("cursor").map_err(fail)?;
    let epoch = d.u64("epoch").map_err(fail)?;

    // Schema.
    let name = d.str("schema name").map_err(fail)?;
    let arity = d.u32("arity").map_err(fail)? as usize;
    let mut fields = Vec::with_capacity(arity.min(1 << 12));
    for _ in 0..arity {
        let fname = d.str("field name").map_err(fail)?;
        let dtype = dtype_from_tag(d.u8("field type").map_err(fail)?)
            .ok_or_else(|| corrupt(path, "unknown field type tag"))?;
        let nullable = d.u8("nullable flag").map_err(fail)? != 0;
        fields.push(Field { name: fname, dtype, nullable });
    }
    let schema: Arc<Schema> = Schema::new(name, fields)
        .map_err(|e| corrupt(path, format!("invalid schema: {e}")))?
        .into_shared();

    // Columns.
    // Every row costs at least one liveness bit, so a count the rest of
    // the body cannot hold is corrupt — checked before anything is sized
    // from it (a zero-column schema reads no codes to bound it).
    let row_count = d.u64("row count").map_err(fail)?;
    let remaining = (body.len() - d.position()) as u64;
    if row_count.div_ceil(8) > remaining {
        return Err(corrupt(path, format!("row count {row_count} exceeds the body")));
    }
    let row_count = row_count as usize;
    let mut columns = Vec::with_capacity(schema.arity());
    for field in schema.fields() {
        let _col_len = d.u64("column length").map_err(fail)?;
        let dict_len = d.u32("dict length").map_err(fail)? as usize;
        let mut dict = Vec::with_capacity(dict_len.min(1 << 20));
        for _ in 0..dict_len {
            dict.push(d.value("dict value").map_err(fail)?);
        }
        let mut codes = Vec::with_capacity(row_count.min(1 << 24));
        for _ in 0..row_count {
            codes.push(d.u32("code").map_err(fail)?);
        }
        let col = Column::from_parts(field.name.clone(), field.dtype, dict, codes)
            .map_err(|e| corrupt(path, format!("invalid column: {e}")))?;
        columns.push(col);
    }
    let rel = Relation::from_parts(schema, columns)
        .map_err(|e| corrupt(path, format!("invalid relation: {e}")))?;

    // Liveness bitmap.
    let mut mask = Vec::with_capacity(row_count);
    let mut packed_byte = 0u8;
    for i in 0..row_count {
        if i % 8 == 0 {
            packed_byte = d.u8("liveness bitmap").map_err(fail)?;
        }
        mask.push(packed_byte & (1 << (i % 8)) != 0);
    }
    let live = LiveRelation::from_parts(rel, mask, epoch)
        .map_err(|e| corrupt(path, format!("invalid live state: {e}")))?;

    // Validator config.
    let full_recompute_fraction = d.f64("recompute fraction").map_err(fail)?;
    let n_thresholds = d.u32("threshold count").map_err(fail)? as usize;
    let mut confidence_thresholds = Vec::with_capacity(n_thresholds.min(1 << 10));
    for _ in 0..n_thresholds {
        confidence_thresholds.push(d.f64("threshold").map_err(fail)?);
    }
    // `tracker_memory_limit` is session configuration, not persisted:
    // snapshots always decode with no bound and the caller re-applies one.
    let config = ValidatorConfig {
        full_recompute_fraction,
        confidence_thresholds,
        tracker_memory_limit: None,
    };

    // FDs and tracker counts.
    let n_fds = d.u32("fd count").map_err(fail)? as usize;
    let mut fds = Vec::with_capacity(n_fds.min(1 << 12));
    let mut trackers = Vec::with_capacity(n_fds.min(1 << 12));
    for _ in 0..n_fds {
        let mut sets = Vec::with_capacity(2);
        for what in ["lhs", "rhs"] {
            let n = d.u32("attr count").map_err(fail)? as usize;
            let mut ids = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                let id = d.u32("attr id").map_err(fail)? as usize;
                if id >= live.schema().arity() {
                    return Err(corrupt(path, format!("FD {what} attribute out of range")));
                }
                ids.push(id);
            }
            sets.push(AttrSet::from_indices(ids));
        }
        let rhs = sets.pop().expect("two sets");
        let lhs = sets.pop().expect("two sets");
        let fd = Fd::new(lhs, rhs).map_err(|e| corrupt(path, format!("invalid FD: {e}")))?;
        fds.push(fd);

        let n_groups_raw = d.u32("group count").map_err(fail)?;
        if n_groups_raw == u32::MAX {
            trackers.push(TrackerSnapshot { groups: Vec::new(), approx: true });
            continue;
        }
        let n_groups = n_groups_raw as usize;
        let mut groups = Vec::with_capacity(n_groups.min(1 << 24));
        for _ in 0..n_groups {
            let klen = d.u32("lhs key length").map_err(fail)? as usize;
            let mut lhs_key = Vec::with_capacity(klen.min(1 << 12));
            for _ in 0..klen {
                lhs_key.push(d.u32("lhs key code").map_err(fail)?);
            }
            let n_rhs = d.u32("rhs count").map_err(fail)? as usize;
            let mut rhs = Vec::with_capacity(n_rhs.min(1 << 20));
            for _ in 0..n_rhs {
                let rlen = d.u32("rhs key length").map_err(fail)? as usize;
                let mut rkey = Vec::with_capacity(rlen.min(1 << 12));
                for _ in 0..rlen {
                    rkey.push(d.u32("rhs key code").map_err(fail)?);
                }
                let n = d.u32("group row count").map_err(fail)?;
                rhs.push((rkey, n));
            }
            groups.push(GroupCounts { lhs_key, rhs });
        }
        trackers.push(TrackerSnapshot { groups, approx: false });
    }

    // Advisor decision records (version 2; a v1 body simply ends here —
    // it decodes as a session with no decisions).
    let mut decisions = Vec::new();
    if version >= 2 {
        let n_decisions = d.u32("decision count").map_err(fail)? as usize;
        decisions.reserve(n_decisions.min(1 << 16));
        for _ in 0..n_decisions {
            let record = crate::wal::decode_decision(&mut d)
                .ok_or_else(|| corrupt(path, "malformed decision record"))?;
            decisions.push(record);
        }
    }
    // Indexed columns (version 3; older bodies decode as no indexes).
    let mut indexed_columns = Vec::new();
    if version >= 3 {
        let n_indexes = d.u32("index count").map_err(fail)? as usize;
        indexed_columns.reserve(n_indexes.min(1 << 12));
        for _ in 0..n_indexes {
            let col = d.str("indexed column").map_err(fail)?;
            if live.schema().resolve(&col).is_err() {
                return Err(corrupt(path, format!("indexed column `{col}` is not in the schema")));
            }
            indexed_columns.push(col);
        }
    }
    // Alert rules + runtime (version 4; older bodies decode as no rules).
    let mut alerts = AlertState::new();
    if version >= 4 {
        alerts = AlertState::decode(&mut d).map_err(|e| corrupt(path, e))?;
    }
    if !d.is_exhausted() {
        return Err(corrupt(path, "trailing bytes after the alert section"));
    }

    Ok(SnapshotState {
        live,
        fds,
        config,
        trackers,
        decisions,
        indexed_columns,
        alerts,
        last_seq,
        cursor,
    })
}

/// Write a snapshot atomically: temp file, `fsync`, rename over `path`,
/// `fsync` the directory.
#[allow(clippy::too_many_arguments)]
pub fn write_snapshot(
    path: &Path,
    live: &LiveRelation,
    validator: &IncrementalValidator,
    decisions: &[DecisionRecord],
    indexed_columns: &[String],
    alerts: &AlertState,
    last_seq: u64,
    cursor: u64,
) -> Result<()> {
    let bytes =
        encode_snapshot(live, validator, decisions, indexed_columns, alerts, last_seq, cursor);
    write_file_atomic(path, &bytes)
}

/// Replace `path` with `bytes` atomically: temp file, `fsync`, rename
/// over `path`, `fsync` the parent directory so the rename itself is
/// durable. A crash at any point leaves either the old file or the new
/// one, never a mix.
pub(crate) fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        file.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        file.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io_err(dir, e))
}

/// Read and decode a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<SnapshotState> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    decode_snapshot(path, &bytes)
}

/// Read only a snapshot's `(last_seq, cursor)` header fields — a cheap
/// position probe (40 bytes) that does not decode or checksum the body.
/// Safe against partial files because snapshots are written atomically
/// (temp + rename): an existing snapshot file is always complete.
pub fn read_snapshot_position(path: &Path) -> Result<(u64, u64)> {
    use std::io::Read;
    let mut file = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
    let mut head = [0u8; 40];
    file.read_exact(&mut head).map_err(|e| io_err(path, e))?;
    if head[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt(path, "bad magic (not an evofd snapshot)"));
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if !(1..=SNAPSHOT_VERSION).contains(&version) {
        return Err(corrupt(path, format!("unsupported version {version}")));
    }
    let last_seq = u64::from_le_bytes(head[24..32].try_into().expect("8 bytes"));
    let cursor = u64::from_le_bytes(head[32..40].try_into().expect("8 bytes"));
    Ok((last_seq, cursor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_incremental::Delta;
    use evofd_storage::{relation_of_strs, Value};

    fn srow(a: &str, b: &str) -> Vec<Value> {
        vec![Value::str(a), Value::str(b)]
    }

    /// A checksum-valid image of `body` under snapshot `version`.
    fn stamp(version: u32, body: &[u8]) -> Vec<u8> {
        let mut img = Vec::new();
        img.extend_from_slice(&SNAPSHOT_MAGIC);
        img.extend_from_slice(&version.to_le_bytes());
        img.extend_from_slice(&(body.len() as u64).to_le_bytes());
        img.extend_from_slice(&crc32(body).to_le_bytes());
        img.extend_from_slice(body);
        img
    }

    fn setup() -> (LiveRelation, IncrementalValidator) {
        let rel = relation_of_strs(
            "t",
            &["X", "Y"],
            &[&["a", "1"], &["b", "2"], &["a", "1"], &["c", "3"]],
        )
        .unwrap();
        let fds = vec![
            Fd::parse(rel.schema(), "X -> Y").unwrap(),
            Fd::parse(rel.schema(), "Y -> X").unwrap(),
        ];
        let mut live = LiveRelation::new(rel);
        let mut v = IncrementalValidator::new(&live, fds);
        // Mutate so tombstones, appended rows and violations all exist.
        let applied = live.apply(&Delta::inserting(vec![srow("a", "9")])).unwrap();
        v.apply(&live, &applied);
        let applied = live.apply(&Delta::deleting([1])).unwrap();
        v.apply(&live, &applied);
        (live, v)
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let (live, v) = setup();
        let decisions = vec![
            DecisionRecord {
                fd: "[X] -> [Y]".into(),
                action: evofd_incremental::DecisionAction::Accept {
                    proposal: 0,
                    evolved: "[X, Z] -> [Y]".into(),
                },
            },
            DecisionRecord {
                fd: "[Y] -> [X]".into(),
                action: evofd_incremental::DecisionAction::Keep,
            },
        ];
        let indexed = vec!["Y".to_string()];
        let mut alerts = AlertState::new();
        alerts.install(vec![crate::alert::AlertRule::parse(
            "FD '[X] -> [Y]' WHEN confidence < 0.9 FOR 2 EPOCHS",
        )
        .unwrap()]);
        alerts.evaluate(|_| Some((0.5, 0.5, 1u64)));
        let bytes = encode_snapshot(&live, &v, &decisions, &indexed, &alerts, 7, 42);
        let state = decode_snapshot(Path::new("mem"), &bytes).unwrap();
        assert_eq!(state.last_seq, 7);
        assert_eq!(state.cursor, 42);
        assert_eq!(state.indexed_columns, indexed, "index set survives the round trip");
        assert_eq!(state.alerts, alerts, "alert rules + runtime survive the round trip");
        assert_eq!(state.live.epoch(), live.epoch());
        assert_eq!(state.live.live_mask(), live.live_mask());
        assert_eq!(state.live.row_count(), live.row_count());
        assert_eq!(state.fds, v.fds());
        assert_eq!(state.decisions, decisions, "advisor session survives the round trip");
        // Physical layout: identical codes and dictionaries per column.
        for (a, b) in live.relation().columns().iter().zip(state.live.relation().columns()) {
            assert_eq!(a.codes(), b.codes());
            assert_eq!(a.dict().values(), b.dict().values());
        }
        // The validator rebuilt from the snapshot matches the original.
        let rebuilt = IncrementalValidator::from_tracker_snapshots(
            &state.live,
            state.fds.clone(),
            state.config.clone(),
            &state.trackers,
        )
        .unwrap();
        for i in 0..v.fds().len() {
            assert_eq!(rebuilt.measures(i), v.measures(i));
            assert_eq!(rebuilt.summary(i).violating_rows, v.summary(i).violating_rows);
        }
    }

    #[test]
    fn approx_trackers_round_trip_via_marker() {
        let (live, mut v) = setup();
        // Degrade every tracker via the session memory bound.
        let config = ValidatorConfig { tracker_memory_limit: Some(1), ..v.config().clone() };
        v.set_config(config.clone());
        assert!(v.is_approx(0) && v.is_approx(1), "a 1-byte bound degrades both");

        let bytes = encode_snapshot(&live, &v, &[], &[], &AlertState::new(), 1, 0);
        let state = decode_snapshot(Path::new("mem"), &bytes).unwrap();
        assert!(
            state.trackers.iter().all(|t| t.approx && t.groups.is_empty()),
            "approx trackers persist only the marker"
        );
        // The limit is session config: the decoded config never carries it.
        assert_eq!(state.config.tracker_memory_limit, None);

        // Re-applying the limit reproduces the original sketch state —
        // it is a pure function of the live multiset and the bound.
        let rebuilt = IncrementalValidator::from_tracker_snapshots(
            &state.live,
            state.fds.clone(),
            config,
            &state.trackers,
        )
        .unwrap();
        for i in 0..v.fds().len() {
            assert!(rebuilt.is_approx(i));
            assert_eq!(rebuilt.measures(i), v.measures(i));
        }

        // Without a limit, recovery rebuilds exact state from live rows.
        let exact = IncrementalValidator::from_tracker_snapshots(
            &state.live,
            state.fds.clone(),
            state.config.clone(),
            &state.trackers,
        )
        .unwrap();
        let fresh = IncrementalValidator::new(&state.live, state.fds.clone());
        assert_eq!(exact.export_trackers(), fresh.export_trackers());
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let (live, v) = setup();
        assert_eq!(
            encode_snapshot(&live, &v, &[], &[], &AlertState::new(), 1, 0),
            encode_snapshot(&live, &v, &[], &[], &AlertState::new(), 1, 0),
            "canonical tracker order makes equal states byte-identical"
        );
    }

    #[test]
    fn file_round_trip_and_atomic_overwrite() {
        let dir =
            std::env::temp_dir().join(format!("evofd_persist_snap_tests_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.bin");
        let (live, v) = setup();
        write_snapshot(&path, &live, &v, &[], &[], &AlertState::new(), 3, 0).unwrap();
        let first = read_snapshot(&path).unwrap();
        assert_eq!(first.last_seq, 3);
        // Overwrite with newer state; the temp file must be gone.
        write_snapshot(&path, &live, &v, &[], &[], &AlertState::new(), 4, 9).unwrap();
        assert!(!path.with_extension("tmp").exists());
        let second = read_snapshot(&path).unwrap();
        assert_eq!(second.last_seq, 4);
        assert_eq!(second.cursor, 9);
        // The cheap position probe agrees with the full decode.
        assert_eq!(read_snapshot_position(&path).unwrap(), (4, 9));
    }

    #[test]
    fn older_snapshot_versions_still_decode() {
        let (live, v) = setup();
        let v4 = encode_snapshot(&live, &v, &[], &[], &AlertState::new(), 3, 4);
        let body_len = u64::from_le_bytes(v4[12..20].try_into().unwrap()) as usize;
        let body = &v4[24..24 + body_len];
        // A v3 image lacks the trailing (empty) alert section; a v2 image
        // additionally lacks the (empty) index section; a v1 image also
        // lacks the (empty) decision section. All are 4-byte u32 counts
        // here, so truncate-and-restamp builds the old formats —
        // pre-upgrade table dirs must keep opening.
        for (version, cut) in [(3u32, 4usize), (2, 8), (1, 12)] {
            let img = stamp(version, &body[..body.len() - cut]);
            let state = decode_snapshot(Path::new("mem"), &img).unwrap();
            assert!(state.decisions.is_empty(), "v{version}");
            assert!(state.indexed_columns.is_empty(), "v{version}");
            assert!(state.alerts.rules.is_empty(), "v{version}");
            assert_eq!(state.last_seq, 3);
            assert_eq!(state.cursor, 4);
            assert_eq!(state.fds, v.fds());
            assert_eq!(state.live.row_count(), live.row_count());
        }
        // Future versions stay rejected.
        let mut v9 = v4.clone();
        v9[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(decode_snapshot(Path::new("mem"), &v9).is_err());
    }

    #[test]
    fn corruption_detected() {
        let (live, v) = setup();
        let good = encode_snapshot(&live, &v, &[], &[], &AlertState::new(), 1, 0);
        // Flip every byte of the body one at a time — all must be caught
        // (header flips change magic/version/len/crc, body flips fail crc).
        let mut bytes = good.clone();
        for off in [0usize, 9, 14, 21, 30, good.len() - 1] {
            bytes[off] ^= 0xFF;
            assert!(
                decode_snapshot(Path::new("mem"), &bytes).is_err(),
                "flip at byte {off} accepted"
            );
            bytes[off] ^= 0xFF;
        }
        // Truncations at every length are rejected.
        for cut in 0..good.len() {
            assert!(
                decode_snapshot(Path::new("mem"), &good[..cut]).is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn hostile_row_count_is_a_clean_error() {
        // A zero-column schema reads no codes, so nothing but the body
        // length bounds the row count the liveness mask is sized from.
        for row_count in [1u64 << 40, u64::MAX] {
            let mut body = Encoder::new();
            body.u64(0); // last_seq
            body.u64(0); // cursor
            body.u64(0); // epoch
            body.str("t");
            body.u32(0); // arity
            body.u64(row_count);
            let img = stamp(SNAPSHOT_VERSION, &body.into_bytes());
            let err = decode_snapshot(Path::new("mem"), &img).unwrap_err();
            assert!(matches!(err, PersistError::CorruptSnapshot { .. }), "{err:?}");
        }
        // A body length past the address space is truncation, not overflow.
        let mut img = stamp(SNAPSHOT_VERSION, &[]);
        img[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_snapshot(Path::new("mem"), &img).is_err());
    }

    #[test]
    fn empty_relation_snapshot() {
        let rel = relation_of_strs("t", &["X", "Y"], &[]).unwrap();
        let live = LiveRelation::new(rel);
        let v = IncrementalValidator::new(&live, vec![Fd::parse(live.schema(), "X -> Y").unwrap()]);
        let bytes = encode_snapshot(&live, &v, &[], &[], &AlertState::new(), 0, 0);
        let state = decode_snapshot(Path::new("mem"), &bytes).unwrap();
        assert_eq!(state.live.row_count(), 0);
        assert_eq!(state.trackers[0].groups.len(), 0);
    }
}
