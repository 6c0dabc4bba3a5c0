//! [`DurableEngine`]: the SQL engine over a durable [`Database`] — every
//! INSERT/DELETE/UPDATE becomes a write-ahead transaction.
//!
//! The wiring uses `evofd-sql`'s [`StorageBackend`] hook: the engine
//! lowers each DML statement to a value-level change batch (appended
//! tuples + deleted canonical row indices) and this module's backend
//! translates canonical indices to the durable live relation's physical
//! ids and journals the delta **before** applying it; the engine then
//! mirrors the same batch onto its catalog copy through the ordinary
//! in-memory paths, so SELECT serving needs no re-materialisation and
//! durable mutation stays O(changed rows). A failed delta leaves a
//! rollback record in the WAL and the engine's catalog untouched —
//! exactly the in-memory engine's restore-on-error behaviour, made
//! durable.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use evofd_incremental::{Delta, ValidatorConfig};
use evofd_sql::{
    AcceptedRepair, AlertInfoRow, DriftInfoRow, Engine, FdInfoProvider, FdInfoRow, ProposalRow,
    QueryResult, StorageBackend,
};
use evofd_storage::{Catalog, Relation, Schema, Value};

use crate::error::Result;
use crate::store::{Database, PersistOptions};

/// The [`StorageBackend`] implementation over a shared [`Database`].
#[derive(Debug, Clone)]
struct DbBackend {
    db: Arc<Mutex<Database>>,
}

impl DbBackend {
    fn lock(&self) -> MutexGuard<'_, Database> {
        self.db.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl StorageBackend for DbBackend {
    fn create_table(&mut self, schema: Arc<Schema>) -> std::result::Result<(), String> {
        self.lock()
            .create_table(Relation::empty(schema), Vec::new(), ValidatorConfig::default())
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn apply_mutation(
        &mut self,
        table: &str,
        inserts: Vec<Vec<Value>>,
        deletes: Vec<usize>,
    ) -> std::result::Result<(), String> {
        let mut db = self.lock();
        let durable = db.get_mut(table).map_err(|e| e.to_string())?;
        // Canonical row k (the engine's view: live rows in physical order)
        // → the k-th live physical id.
        let physical: Vec<usize> = durable.live().live_rows().collect();
        let mut translated = Vec::with_capacity(deletes.len());
        for k in deletes {
            let id = physical
                .get(k)
                .copied()
                .ok_or_else(|| format!("canonical row {k} out of range"))?;
            translated.push(id);
        }
        let delta = Delta { inserts, deletes: translated };
        durable.apply(&delta).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn set_compact_threshold(&mut self, threshold: f64) {
        self.lock().set_compact_threshold(threshold);
    }

    fn set_indexes(&mut self, table: &str, columns: &[String]) -> std::result::Result<(), String> {
        let mut db = self.lock();
        let durable = db.get_mut(table).map_err(|e| e.to_string())?;
        durable.set_indexes(columns.to_vec()).map_err(|e| e.to_string())
    }
}

/// The [`FdInfoProvider`] behind `SHOW FDS`, `SUGGEST REPAIRS`,
/// `ACCEPT REPAIR` and `ALTER TABLE … CONSTRAINT FD`: reads the tracked
/// FDs and their delta-maintained measures straight off the database's
/// incremental validators, and the proposal/status columns off each
/// table's live advisor session. `SUGGEST`/`ACCEPT` materialize the
/// session (maintained per delta from then on); `SHOW FDS` only borrows
/// it — or analyzes transiently — so status reads stay side-effect free.
#[derive(Debug, Clone)]
struct DbFdProvider {
    db: Arc<Mutex<Database>>,
}

impl DbFdProvider {
    fn lock(&self) -> MutexGuard<'_, Database> {
        self.db.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolve an FD text to its index in the table's tracked set.
    fn fd_index(table: &crate::DurableRelation, fd: &str) -> std::result::Result<usize, String> {
        let parsed = evofd_core::Fd::parse(table.live().schema(), fd)
            .map_err(|e| format!("bad FD `{fd}`: {e}"))?;
        table
            .validator()
            .fds()
            .iter()
            .position(|f| *f == parsed)
            .ok_or_else(|| format!("`{fd}` is not a tracked FD of `{}`", table.name()))
    }
}

impl FdInfoProvider for DbFdProvider {
    fn exact_fds(&self, table: &str) -> Vec<String> {
        let db = self.lock();
        let Ok(t) = db.get(table) else { return Vec::new() };
        let v = t.validator();
        let schema = t.live().schema();
        v.fds()
            .iter()
            .enumerate()
            .filter(|&(i, _)| v.is_exact(i))
            .map(|(_, fd)| fd.display(schema))
            .collect()
    }

    fn fd_rows(&self, table: Option<&str>) -> std::result::Result<Vec<FdInfoRow>, String> {
        let db = self.lock();
        let mut rows = Vec::new();
        for (name, t) in db.iter() {
            if table.is_some_and(|want| want != name) {
                continue;
            }
            if t.validator().fds().is_empty() {
                continue;
            }
            // Reuse a maintained session when one exists (SUGGEST/ACCEPT
            // materialized it); otherwise analyze transiently — SHOW FDS
            // is a read and must not attach a standing per-delta tax.
            let transient;
            let advisor = match t.advisor() {
                Some(a) => a,
                None => {
                    transient = t.build_advisor().map_err(|e| e.to_string())?;
                    &transient
                }
            };
            let v = t.validator();
            for (i, fd) in v.fds().iter().enumerate() {
                let m = v.measures(i);
                rows.push(FdInfoRow {
                    table: name.to_string(),
                    fd: fd.display(t.live().schema()),
                    confidence: m.confidence,
                    goodness: m.goodness,
                    violating_rows: v.summary(i).violating_rows,
                    status: advisor
                        .state(i)
                        .map(|s| s.label().to_string())
                        .unwrap_or_else(|_| "unknown".into()),
                    g3: v.g3(i),
                    proposals: advisor.pending_proposals(i),
                    approx: v.is_approx(i),
                });
            }
        }
        Ok(rows)
    }

    fn proposal_rows(
        &self,
        table: &str,
        limit: usize,
    ) -> std::result::Result<Vec<ProposalRow>, String> {
        let mut db = self.lock();
        let t = db.get_mut(table).map_err(|e| e.to_string())?;
        let advisor = t.ensure_advisor().map_err(|e| e.to_string())?;
        let mut rows = Vec::new();
        'fds: for i in advisor.pending() {
            let fd = advisor.fds()[i].clone();
            for (rank, p) in advisor.proposals(i).map_err(|e| e.to_string())?.iter().enumerate() {
                if rows.len() >= limit {
                    break 'fds;
                }
                rows.push((fd.clone(), rank, p.clone()));
            }
        }
        let schema = t.live().schema();
        Ok(rows
            .into_iter()
            .map(|(fd, rank, p)| ProposalRow {
                table: table.to_string(),
                fd: fd.display(schema),
                rank: rank + 1,
                evolved: p.fd.display(schema),
                added: schema.render_attrs(&p.added),
                goodness: p.measures.goodness,
            })
            .collect())
    }

    fn accept_repair(
        &self,
        table: &str,
        fd: &str,
        proposal: usize,
    ) -> std::result::Result<AcceptedRepair, String> {
        let mut db = self.lock();
        let t = db.get_mut(table).map_err(|e| e.to_string())?;
        let idx = Self::fd_index(t, fd)?;
        let original = t.validator().fds()[idx].display(t.live().schema());
        let chosen = t.accept_repair(idx, proposal).map_err(|e| e.to_string())?;
        let evolved = chosen.fd.display(t.live().schema());
        Ok(AcceptedRepair { original, evolved })
    }

    fn create_alert(&self, table: &str, rule: &str) -> std::result::Result<usize, String> {
        let mut db = self.lock();
        let t = db.get_mut(table).map_err(|e| e.to_string())?;
        let parsed = crate::AlertRule::parse(rule)?;
        let mut rules = t.alerts().rules.clone();
        rules.push(parsed);
        t.set_alerts(rules).map_err(|e| e.to_string())
    }

    fn drop_alert(&self, table: &str, fd: &str) -> std::result::Result<(usize, usize), String> {
        let mut db = self.lock();
        let t = db.get_mut(table).map_err(|e| e.to_string())?;
        // Accept the FD in any spelling that parses to the watched FD.
        let canonical = evofd_core::Fd::parse(t.live().schema(), fd)
            .map_err(|e| format!("bad FD `{fd}`: {e}"))?
            .display(t.live().schema());
        let before = t.alerts().rules.len();
        let kept: Vec<_> = t.alerts().rules.iter().filter(|r| r.fd != canonical).cloned().collect();
        let removed = before - kept.len();
        if removed == 0 {
            return Err(format!("no alert rule on `{table}` watches `{canonical}`"));
        }
        let remaining = t.set_alerts(kept).map_err(|e| e.to_string())?;
        Ok((removed, remaining))
    }

    fn alert_rows(&self, table: Option<&str>) -> std::result::Result<Vec<AlertInfoRow>, String> {
        let db = self.lock();
        let mut rows = Vec::new();
        for (name, t) in db.iter() {
            if table.is_some_and(|want| want != name) {
                continue;
            }
            let alerts = t.alerts();
            for (i, rule) in alerts.rules.iter().enumerate() {
                let rt = &alerts.runtime[i];
                rows.push(AlertInfoRow {
                    table: name.to_string(),
                    rule: rule.to_string(),
                    fd: rule.fd.clone(),
                    firing: rt.firing,
                    consecutive: rt.consecutive,
                    fired_count: rt.fired_count,
                });
            }
        }
        Ok(rows)
    }

    fn drift_rows(
        &self,
        table: &str,
        fd: Option<&str>,
        since_epoch: Option<u64>,
    ) -> std::result::Result<Vec<DriftInfoRow>, String> {
        let db = self.lock();
        let t = db.get(table).map_err(|e| e.to_string())?;
        // Accept the FD filter in any spelling that parses.
        let canonical = match fd {
            Some(text) => Some(
                evofd_core::Fd::parse(t.live().schema(), text)
                    .map_err(|e| format!("bad FD `{text}`: {e}"))?
                    .display(t.live().schema()),
            ),
            None => None,
        };
        let since = since_epoch.unwrap_or(0);
        let mut rows = Vec::new();
        for frame in t.history_frames().map_err(|e| e.to_string())? {
            if frame.epoch < since {
                continue;
            }
            for d in &frame.drifts {
                if canonical.as_deref().is_some_and(|want| want != d.fd) {
                    continue;
                }
                rows.push(DriftInfoRow {
                    epoch: frame.epoch,
                    seq: frame.seq,
                    fd: d.fd.clone(),
                    kind: d.kind.clone(),
                    confidence_before: d.confidence_before,
                    confidence_after: d.confidence_after,
                    groups: d.groups.join(", "),
                });
            }
        }
        Ok(rows)
    }

    fn alter_fd(&self, table: &str, fd: &str, add: bool) -> std::result::Result<usize, String> {
        let mut db = self.lock();
        let t = db.get_mut(table).map_err(|e| e.to_string())?;
        let parsed = evofd_core::Fd::parse(t.live().schema(), fd)
            .map_err(|e| format!("bad FD `{fd}`: {e}"))?;
        let mut fds = t.validator().fds().to_vec();
        if add {
            if fds.contains(&parsed) {
                return Err(format!("`{fd}` is already tracked on `{table}`"));
            }
            fds.push(parsed);
        } else {
            let pos = fds
                .iter()
                .position(|f| *f == parsed)
                .ok_or_else(|| format!("`{fd}` is not a tracked FD of `{table}`"))?;
            fds.remove(pos);
        }
        t.set_fds(fds).map_err(|e| e.to_string())
    }
}

/// Rebuild each recovered table's secondary indexes inside the SQL
/// engine: durability covers the indexed-column *set* (WAL `IndexSet`
/// records + the snapshot's index section); the contents are derived and
/// rebuilt from the recovered rows here, without journaling anything.
fn install_recovered_indexes(
    engine: &mut Engine,
    index_sets: Vec<(String, Vec<String>)>,
) -> Result<()> {
    for (name, columns) in index_sets {
        engine.install_index_set(&name, &columns).map_err(|e| crate::PersistError::Recovery {
            message: format!("rebuilding indexes of `{name}`: {e}"),
        })?;
    }
    Ok(())
}

/// A SQL engine whose DML is journaled to a [`Database`] directory.
///
/// SELECTs run against in-memory canonical copies refreshed after each
/// mutation; mutations go journal-first through the WAL. Dropping the
/// engine without [`DurableEngine::checkpoint`] is safe — that is the
/// crash case recovery is built for.
#[derive(Debug)]
pub struct DurableEngine {
    engine: Engine,
    db: Arc<Mutex<Database>>,
}

impl DurableEngine {
    /// Open (or create) a database directory and build an engine over it,
    /// seeding the SQL catalog with every recovered table's canonical
    /// contents.
    pub fn open(dir: &Path, opts: PersistOptions) -> Result<DurableEngine> {
        DurableEngine::from_database(Database::open(dir, opts)?)
    }

    /// Build an engine over an already-recovered [`Database`] (avoids a
    /// second recovery pass when the caller opened it for inspection
    /// first).
    pub fn from_database(db: Database) -> Result<DurableEngine> {
        let mut catalog = Catalog::new();
        let mut index_sets = Vec::new();
        for (name, table) in db.iter() {
            catalog.insert(table.live().snapshot())?;
            if !table.indexed_columns().is_empty() {
                index_sets.push((name.to_string(), table.indexed_columns().to_vec()));
            }
        }
        let db = Arc::new(Mutex::new(db));
        let mut engine = Engine::with_catalog(catalog);
        engine.set_backend(Box::new(DbBackend { db: Arc::clone(&db) }));
        engine.set_fd_provider(Box::new(DbFdProvider { db: Arc::clone(&db) }));
        install_recovered_indexes(&mut engine, index_sets)?;
        Ok(DurableEngine { engine, db })
    }

    /// Open a **follower's** data directory in read-only replica mode:
    /// SELECT / `SHOW FDS` / `CHECK FD` are served from the recovered
    /// state (mid-catch-up positions included), while every
    /// CREATE/INSERT/UPDATE/DELETE is rejected with a clear
    /// [`evofd_sql::SqlError::ReadOnly`] — writes belong on the leader.
    pub fn open_replica(dir: &Path, opts: PersistOptions) -> Result<DurableEngine> {
        let db = Database::open(dir, opts)?;
        let mut catalog = Catalog::new();
        let mut index_sets = Vec::new();
        for (name, table) in db.iter() {
            catalog.insert(table.live().snapshot())?;
            if !table.indexed_columns().is_empty() {
                index_sets.push((name.to_string(), table.indexed_columns().to_vec()));
            }
        }
        let db = Arc::new(Mutex::new(db));
        let mut engine = Engine::with_catalog(catalog);
        engine.set_fd_provider(Box::new(DbFdProvider { db: Arc::clone(&db) }));
        engine.set_read_only(true);
        install_recovered_indexes(&mut engine, index_sets)?;
        Ok(DurableEngine { engine, db })
    }

    /// The shared database handle — what an in-process
    /// [`crate::replication::ChannelTransport`] ships from.
    pub fn database_handle(&self) -> Arc<Mutex<Database>> {
        Arc::clone(&self.db)
    }

    /// Import a relation as a new durable table with no tracked FDs; the
    /// SQL catalog sees it immediately. Returns `false` (and changes
    /// nothing) if a table of that name already exists.
    pub fn import_table(&mut self, rel: Relation) -> Result<bool> {
        let name = rel.name().to_string();
        {
            let mut db = self.db.lock().unwrap_or_else(|e| e.into_inner());
            if db.contains(&name) {
                return Ok(false);
            }
            db.create_table(rel.clone(), Vec::new(), ValidatorConfig::default())?;
        }
        self.engine.catalog_mut().insert_or_replace(rel);
        Ok(true)
    }

    /// Parse and execute one statement (durable for DML).
    pub fn execute(&mut self, sql: &str) -> evofd_sql::Result<QueryResult> {
        self.engine.execute(sql)
    }

    /// Execute a `;`-separated script.
    pub fn run_script(&mut self, sql: &str) -> evofd_sql::Result<Vec<QueryResult>> {
        self.engine.run_script(sql)
    }

    /// Run a SELECT and return its relation.
    pub fn query(&mut self, sql: &str) -> evofd_sql::Result<Relation> {
        self.engine.query(sql)
    }

    /// Run a single-value SELECT.
    pub fn query_scalar(&mut self, sql: &str) -> evofd_sql::Result<Value> {
        self.engine.query_scalar(sql)
    }

    /// The wrapped SQL engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the wrapped SQL engine — the multi-session
    /// server swaps per-connection [`evofd_sql::SessionSettings`] and the
    /// read-only flag in around each statement.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Run `f` with the underlying database (recovery reports, WAL sizes,
    /// direct [`crate::DurableRelation`] access).
    pub fn with_database<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Run `f` with mutable database access (e.g. drift subscriptions).
    pub fn with_database_mut<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Snapshot every table and reset its WAL — a clean shutdown.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.with_database_mut(Database::checkpoint_all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("evofd_persist_engine_tests_{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sql_mutations_survive_reopen() {
        let dir = tmpdir("sql_reopen");
        let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        e.run_script(
            "CREATE TABLE t (a INT, b TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, 'x'), (3, 'y');
             UPDATE t SET b = 'z' WHERE a = 2;
             DELETE FROM t WHERE a = 1;",
        )
        .unwrap();
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(2));
        drop(e); // kill without checkpoint

        let mut r = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(2));
        let rel = r.query("SELECT a, b FROM t ORDER BY a").unwrap();
        assert_eq!(rel.row(0), vec![Value::Int(2), Value::str("z")]);
        assert_eq!(rel.row(1), vec![Value::Int(3), Value::str("y")]);
        // And the database keeps accepting durable traffic.
        r.execute("INSERT INTO t VALUES (9, 'w')").unwrap();
        assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(3));
    }

    #[test]
    fn failed_statement_rolls_back_durably() {
        let dir = tmpdir("sql_rollback");
        let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        e.run_script("CREATE TABLE t (a INT NOT NULL); INSERT INTO t VALUES (1);").unwrap();
        // NOT NULL violation: journaled, fails, rolled back.
        assert!(e.execute("INSERT INTO t VALUES (NULL)").is_err());
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(1));
        drop(e);
        let mut r = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(1));
        r.with_database(|db| {
            assert_eq!(db.get("t").unwrap().recovery().rolled_back, 1);
        });
    }

    #[test]
    fn checkpoint_resets_wals() {
        let dir = tmpdir("sql_ckpt");
        let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        e.run_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2);").unwrap();
        e.checkpoint().unwrap();
        e.with_database(|db| {
            assert_eq!(db.get("t").unwrap().wal_bytes(), crate::wal::WAL_HEADER_LEN);
        });
        drop(e);
        let r = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        r.with_database(|db| assert_eq!(db.get("t").unwrap().recovery().replayed, 0));
    }

    #[test]
    fn replica_mode_serves_reads_and_rejects_dml() {
        use evofd_core::Fd;
        use evofd_storage::relation_of_strs;

        let dir = tmpdir("replica_mode");
        // Build leader state: a table with one tracked (and violated) FD.
        {
            let rel = relation_of_strs("t", &["X", "Y"], &[&["a", "1"], &["a", "2"], &["b", "3"]])
                .unwrap();
            let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
            let mut db = crate::Database::open(&dir, PersistOptions::default()).unwrap();
            db.create_table(rel, fds, evofd_incremental::ValidatorConfig::default()).unwrap();
        }

        let mut r = DurableEngine::open_replica(&dir, PersistOptions::default()).unwrap();
        assert!(r.engine().is_read_only());
        // Reads work (this is a mid-catch-up position as far as SQL cares).
        assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(3));
        // SHOW FDS reports the tracked FD with maintained measures.
        let fds = r.query("SHOW FDS").unwrap();
        assert_eq!(fds.row_count(), 1);
        assert_eq!(fds.row(0)[0], Value::str("t"));
        assert_eq!(fds.row(0)[4], Value::Int(2), "two rows in the violating X group");
        // CHECK FD computes on demand.
        let check = r.query("CHECK FD 'Y -> X' ON t").unwrap();
        assert_eq!(check.row(0)[3], Value::Bool(true));
        // Every write is rejected with the replica error.
        for sql in [
            "INSERT INTO t VALUES ('z', '9')",
            "DELETE FROM t",
            "UPDATE t SET Y = '0'",
            "CREATE TABLE u (a INT)",
        ] {
            let err = r.execute(sql).unwrap_err();
            assert!(matches!(err, evofd_sql::SqlError::ReadOnly { .. }), "{sql}: {err:?}");
        }
        assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(3));
    }

    #[test]
    fn leader_engine_show_fds_tracks_drift() {
        use evofd_core::Fd;
        use evofd_storage::relation_of_strs;

        let dir = tmpdir("leader_show_fds");
        let rel = relation_of_strs("t", &["X", "Y"], &[&["a", "1"]]).unwrap();
        let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
        let mut db = crate::Database::open(&dir, PersistOptions::default()).unwrap();
        db.create_table(rel, fds, evofd_incremental::ValidatorConfig::default()).unwrap();
        let mut e = DurableEngine::from_database(db).unwrap();
        let before = e.query("SHOW FDS FOR t").unwrap();
        assert_eq!(before.row(0)[4], Value::Int(0));
        // A conflicting durable insert drifts the FD; SHOW FDS sees it.
        e.execute("INSERT INTO t VALUES ('a', '2')").unwrap();
        let after = e.query("SHOW FDS FOR t").unwrap();
        assert_eq!(after.row(0)[4], Value::Int(2));
    }

    #[test]
    fn fd_ddl_suggest_and_accept_flow() {
        use evofd_storage::relation_of_strs;

        let dir = tmpdir("fd_ddl_flow");
        let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        let rel = relation_of_strs(
            "t",
            &["X", "Y", "Z"],
            &[&["a", "1", "p"], &["a", "2", "q"], &["b", "3", "r"]],
        )
        .unwrap();
        e.import_table(rel).unwrap();

        // Declare a tracked FD over the durable table via DDL.
        let QueryResult::AlteredFds { tracked, added, .. } =
            e.execute("ALTER TABLE t ADD CONSTRAINT FD 'X -> Y'").unwrap()
        else {
            panic!("expected AlteredFds")
        };
        assert!(added);
        assert_eq!(tracked, 1);
        // Duplicate ADD and bogus DROP are clean errors.
        assert!(e.execute("ALTER TABLE t ADD CONSTRAINT FD 'X -> Y'").is_err());
        assert!(e.execute("ALTER TABLE t DROP CONSTRAINT FD 'Z -> X'").is_err());

        // SHOW FDS carries the advisor status columns — computed
        // transiently: no standing advisor session is attached by a read.
        let fds = e.query("SHOW FDS FOR t").unwrap();
        e.with_database(|db| {
            assert!(db.get("t").unwrap().advisor().is_none(), "SHOW FDS is side-effect free");
        });
        assert_eq!(fds.row_count(), 1);
        assert_eq!(fds.row(0)[5], Value::str("violated"));
        let g3 = fds.row(0)[6].as_f64().unwrap();
        assert!((g3 - 1.0 / 3.0).abs() < 1e-12, "delete one of three rows: {g3}");
        let pending = fds.row(0)[7].clone();
        assert!(matches!(pending, Value::Int(n) if n >= 1), "proposals pending: {pending:?}");

        // SUGGEST REPAIRS lists the ranked proposals (and materializes
        // the maintained session).
        let proposals = e.query("SUGGEST REPAIRS FOR t").unwrap();
        e.with_database(|db| {
            assert!(db.get("t").unwrap().advisor().is_some(), "SUGGEST materializes");
        });
        assert!(proposals.row_count() >= 1);
        assert_eq!(proposals.row(0)[2], Value::Int(1), "rank 1 first");
        assert_eq!(proposals.row(0)[3], Value::str("[X, Z] -> [Y]"));

        // ACCEPT REPAIR journals the decision and REPLACES the original
        // FD with the evolved one in the tracked set.
        let QueryResult::RepairAccepted { original, evolved, .. } =
            e.execute("ACCEPT REPAIR 1 FOR 'X -> Y' ON t").unwrap()
        else {
            panic!("expected RepairAccepted")
        };
        assert_eq!(original, "[X] -> [Y]");
        assert_eq!(evolved, "[X, Z] -> [Y]");
        let fds = e.query("SHOW FDS FOR t").unwrap();
        assert_eq!(fds.row_count(), 1, "the evolved FD took the original's slot");
        assert_eq!(fds.row(0)[1], Value::str("[X, Z] -> [Y]"));
        assert_eq!(fds.row(0)[5], Value::str("satisfied"), "the evolved FD holds");
        assert_eq!(fds.row(0)[7], Value::Int(0), "no proposals pending after the decision");
        // Accepting again (the original is gone) or an untracked FD
        // errors cleanly.
        assert!(e.execute("ACCEPT REPAIR 1 FOR 'X -> Y' ON t").is_err());
        assert!(e.execute("ACCEPT REPAIR 1 FOR 'Y -> Z' ON t").is_err());

        // The replacement survives a kill/reopen.
        drop(e);
        let mut r = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        let fds = r.query("SHOW FDS FOR t").unwrap();
        assert_eq!(fds.row_count(), 1);
        assert_eq!(fds.row(0)[1], Value::str("[X, Z] -> [Y]"));
        assert_eq!(fds.row(0)[5], Value::str("satisfied"));
        // DROP CONSTRAINT retires the evolved FD.
        assert!(r.execute("ALTER TABLE t DROP CONSTRAINT FD 'X -> Y'").is_err(), "replaced");
        let QueryResult::AlteredFds { tracked, .. } =
            r.execute("ALTER TABLE t DROP CONSTRAINT FD 'X, Z -> Y'").unwrap()
        else {
            panic!()
        };
        assert_eq!(tracked, 0);
        assert_eq!(r.query("SHOW FDS FOR t").unwrap().row_count(), 0);
    }

    #[test]
    fn replica_serves_suggest_but_rejects_fd_ddl() {
        use evofd_core::Fd;
        use evofd_storage::relation_of_strs;

        let dir = tmpdir("replica_suggest");
        {
            let rel =
                relation_of_strs("t", &["X", "Y", "Z"], &[&["a", "1", "p"], &["a", "2", "q"]])
                    .unwrap();
            let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
            let mut db = crate::Database::open(&dir, PersistOptions::default()).unwrap();
            db.create_table(rel, fds, evofd_incremental::ValidatorConfig::default()).unwrap();
        }
        let mut r = DurableEngine::open_replica(&dir, PersistOptions::default()).unwrap();
        // SUGGEST is a read: it works on the replica.
        let proposals = r.query("SUGGEST REPAIRS FOR t").unwrap();
        assert_eq!(proposals.row_count(), 1, "Z repairs X -> Y");
        // The write-shaped advisor statements are rejected read-only.
        for sql in ["ALTER TABLE t ADD CONSTRAINT FD 'Z -> Y'", "ACCEPT REPAIR 1 FOR 'X -> Y' ON t"]
        {
            let err = r.execute(sql).unwrap_err();
            assert!(matches!(err, evofd_sql::SqlError::ReadOnly { .. }), "{sql}: {err:?}");
        }
    }

    #[test]
    fn indexes_survive_reopen_and_checkpoint() {
        let dir = tmpdir("sql_indexes");
        let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        e.run_script(
            "CREATE TABLE t (a INT, b TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, 'x'), (3, 'y');
             CREATE INDEX ON t (b);",
        )
        .unwrap();
        e.with_database(|db| {
            assert_eq!(db.get("t").unwrap().indexed_columns(), ["b".to_string()]);
        });
        // Kill without checkpoint: the IndexSet WAL record restores the
        // set and the engine rebuilds the index contents from the rows.
        drop(e);
        let mut r = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.engine().indexed_columns("t"), vec!["b".to_string()]);
        let plan = r.query("EXPLAIN SELECT a FROM t WHERE b = 'x'").unwrap();
        let rendered: Vec<String> = (0..plan.row_count())
            .map(|i| format!("{} {}", plan.row(i)[0], plan.row(i)[1]))
            .collect();
        assert!(
            rendered.iter().any(|l| l.contains("IndexProbe")),
            "recovered index should plan a probe: {rendered:?}"
        );
        assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t WHERE b = 'x'").unwrap(), Value::Int(2));
        // The index keeps following durable DML after recovery.
        r.execute("INSERT INTO t VALUES (4, 'x')").unwrap();
        assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t WHERE b = 'x'").unwrap(), Value::Int(3));
        // Checkpoint folds the set into the snapshot (index section);
        // reopen replays nothing and still probes.
        r.checkpoint().unwrap();
        drop(r);
        let mut c = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        c.with_database(|db| assert_eq!(db.get("t").unwrap().recovery().replayed, 0));
        assert_eq!(c.engine().indexed_columns("t"), vec!["b".to_string()]);
        // DROP INDEX journals the (now empty) set durably too.
        c.execute("DROP INDEX ON t (b)").unwrap();
        drop(c);
        let d = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        assert!(d.engine().indexed_columns("t").is_empty());
    }

    #[test]
    fn exact_tracked_fds_drive_planner_rewrites_until_drift() {
        let dir = tmpdir("fd_rewrites");
        let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        e.run_script(
            "CREATE TABLE t (zip TEXT, city TEXT);
             INSERT INTO t VALUES ('10', 'a'), ('10', 'a'), ('20', 'b');",
        )
        .unwrap();
        e.execute("ALTER TABLE t ADD CONSTRAINT FD 'zip -> city'").unwrap();
        let explain = |e: &mut DurableEngine| {
            let plan =
                e.query("EXPLAIN SELECT zip, city, COUNT(*) FROM t GROUP BY zip, city").unwrap();
            (0..plan.row_count())
                .map(|i| format!("{} {}", plan.row(i)[0], plan.row(i)[1]))
                .collect::<Vec<_>>()
        };
        // The validator reports zip -> city exact: the planner collapses
        // the GROUP BY onto zip alone.
        let before = explain(&mut e);
        assert!(
            before.iter().any(|l| l.contains("Rewrite[group-collapse]")),
            "exact FD should collapse the grouping: {before:?}"
        );
        // One conflicting durable insert drifts the FD; the rewrite
        // deactivates on the very next statement.
        e.execute("INSERT INTO t VALUES ('10', 'z')").unwrap();
        let after = explain(&mut e);
        assert!(
            !after.iter().any(|l| l.contains("Rewrite")),
            "drifted FD must not rewrite: {after:?}"
        );
    }

    #[test]
    fn replica_recovers_indexes_read_only() {
        let dir = tmpdir("replica_indexes");
        {
            let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
            e.run_script(
                "CREATE TABLE t (a INT, b TEXT);
                 INSERT INTO t VALUES (1, 'x'), (2, 'y');
                 CREATE INDEX ON t (b);",
            )
            .unwrap();
        }
        let mut r = DurableEngine::open_replica(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.engine().indexed_columns("t"), vec!["b".to_string()]);
        assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t WHERE b = 'x'").unwrap(), Value::Int(1));
        // Index DDL is a write: rejected on the replica.
        let err = r.execute("CREATE INDEX ON t (a)").unwrap_err();
        assert!(matches!(err, evofd_sql::SqlError::ReadOnly { .. }), "{err:?}");
    }

    #[test]
    fn alert_ddl_show_alerts_and_drift_history_flow() {
        let dir = tmpdir("alert_flow");
        let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        e.run_script(
            "CREATE TABLE t (zip TEXT, city TEXT);
             INSERT INTO t VALUES ('10', 'a'), ('20', 'b');",
        )
        .unwrap();
        e.execute("ALTER TABLE t ADD CONSTRAINT FD 'zip -> city'").unwrap();
        // Install an alert rule via DDL; the FD text is canonicalised.
        let QueryResult::AlertsChanged { installed, rules, .. } =
            e.execute("ALERT ON t FD 'zip -> city' WHEN confidence < 0.99 FOR 1 EPOCHS").unwrap()
        else {
            panic!("expected AlertsChanged")
        };
        assert!(installed);
        assert_eq!(rules, 1);
        // A rule on an FD that does not parse is rejected before journaling.
        assert!(e.execute("ALERT ON t FD 'nope -> city' WHEN g3 > 0.5").is_err());

        let alerts = e.query("SHOW ALERTS FOR t").unwrap();
        assert_eq!(alerts.row_count(), 1);
        assert_eq!(alerts.row(0)[2], Value::str("[zip] -> [city]"));
        assert_eq!(alerts.row(0)[3], Value::Bool(false), "not firing yet");

        // Drift the FD: the conflicting insert fires the alert and lands
        // in the durable drift history with its WAL seq.
        e.execute("INSERT INTO t VALUES ('10', 'z')").unwrap();
        let alerts = e.query("SHOW ALERTS").unwrap();
        assert_eq!(alerts.row(0)[3], Value::Bool(true), "firing after drift");
        assert_eq!(alerts.row(0)[5], Value::Int(1), "fired once");

        let drift = e.query("SHOW DRIFT HISTORY FOR t FD 'zip -> city'").unwrap();
        assert!(drift.row_count() >= 1, "drift event retained");
        assert_eq!(drift.row(0)[3], Value::str("violated"));
        let seq = drift.row(0)[1].clone();
        assert!(matches!(seq, Value::Int(n) if n > 0), "WAL seq recorded: {seq:?}");
        // SINCE EPOCH past the event filters it out.
        let later = e.query("SHOW DRIFT HISTORY FOR t SINCE EPOCH 100").unwrap();
        assert_eq!(later.row_count(), 0);

        // The rule set and runtime survive a kill/reopen.
        drop(e);
        let mut r = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        let alerts = r.query("SHOW ALERTS FOR t").unwrap();
        assert_eq!(alerts.row_count(), 1);
        assert_eq!(alerts.row(0)[3], Value::Bool(true), "still firing after recovery");
        let drift = r.query("SHOW DRIFT HISTORY FOR t").unwrap();
        assert!(drift.row_count() >= 1, "history survives reopen");

        // DROP ALERT retires the rule durably; dropping again errors.
        let QueryResult::AlertsChanged { installed, rules, .. } =
            r.execute("DROP ALERT ON t FD 'zip -> city'").unwrap()
        else {
            panic!("expected AlertsChanged")
        };
        assert!(!installed);
        assert_eq!(rules, 0);
        assert!(r.execute("DROP ALERT ON t FD 'zip -> city'").is_err());
        drop(r);
        let mut f = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(f.query("SHOW ALERTS").unwrap().row_count(), 0);
    }

    #[test]
    fn replica_serves_alert_reads_and_rejects_alert_ddl() {
        let dir = tmpdir("replica_alerts");
        {
            let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
            e.run_script(
                "CREATE TABLE t (zip TEXT, city TEXT);
                 INSERT INTO t VALUES ('10', 'a');",
            )
            .unwrap();
            e.execute("ALTER TABLE t ADD CONSTRAINT FD 'zip -> city'").unwrap();
            e.execute("ALERT ON t FD 'zip -> city' WHEN confidence < 0.5").unwrap();
        }
        let mut r = DurableEngine::open_replica(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r.query("SHOW ALERTS FOR t").unwrap().row_count(), 1);
        assert_eq!(r.query("SHOW DRIFT HISTORY FOR t").unwrap().row_count(), 0);
        for sql in ["ALERT ON t FD 'zip -> city' WHEN g3 > 0.5", "DROP ALERT ON t FD 'zip -> city'"]
        {
            let err = r.execute(sql).unwrap_err();
            assert!(matches!(err, evofd_sql::SqlError::ReadOnly { .. }), "{sql}: {err:?}");
        }
    }

    #[test]
    fn set_statement_reaches_the_database() {
        let dir = tmpdir("sql_set");
        let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
        e.execute("CREATE TABLE t (a INT)").unwrap();
        e.execute("SET compact_threshold = 0.75").unwrap();
        e.with_database(|db| {
            assert!((db.get("t").unwrap().live().compact_threshold() - 0.75).abs() < 1e-12);
        });
    }
}
