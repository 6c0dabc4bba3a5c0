//! Query execution over `evofd-storage` relations.
//!
//! Single-table SELECT with WHERE / GROUP BY / aggregates / DISTINCT /
//! ORDER BY / LIMIT, plus CREATE TABLE, INSERT, UPDATE and DELETE —
//! enough to run every query the paper's prototype issues
//! (`SELECT COUNT(DISTINCT …) FROM t`) and the exploratory queries of the
//! examples. NULL comparisons follow SQL three-valued logic;
//! `COUNT(DISTINCT a, b)` skips rows with a NULL in any counted column
//! (also SQL semantics — note this differs from the engine's native
//! `count_distinct`, which groups NULLs; FD attributes are NULL-free so
//! the paper's measures agree under both).
//!
//! `UPDATE` is lowered onto the `evofd-incremental` delta path: the
//! matched rows become one atomic [`Delta`] (tombstone the old tuples,
//! append the rewritten ones) applied through a [`LiveRelation`], so a
//! delta-maintained tracker observing the table sees a multi-row UPDATE
//! as a single batch instead of a DELETE statement followed by an INSERT.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use evofd_core::Fd;
use evofd_incremental::{ColumnIndex, Delta, LiveRelation, DEFAULT_COMPACT_THRESHOLD};
use evofd_storage::{Catalog, DataType, Field, Relation, Schema, Value};

use crate::ast::{AggFunc, BinOp, Expr, Select, SelectItem, Statement};
use crate::error::{Result, SqlError};
use crate::ops;
use crate::parser::{parse, parse_script};
use crate::plan::{self, Access, MatchPlan, UniqueVia};

/// Default row cap applied to `SUGGEST REPAIRS FOR t` when the statement
/// carries no explicit `LIMIT n` clause.
pub const DEFAULT_SUGGEST_LIMIT: usize = 20;

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// Rows returned by a SELECT.
    Rows(Relation),
    /// A table was created.
    Created {
        /// The new table's name.
        table: String,
    },
    /// Rows were inserted.
    Inserted {
        /// Target table.
        table: String,
        /// Number of rows inserted.
        rows: usize,
    },
    /// Rows were deleted.
    Deleted {
        /// Target table.
        table: String,
        /// Number of rows deleted.
        rows: usize,
    },
    /// Rows were updated.
    Updated {
        /// Target table.
        table: String,
        /// Number of rows rewritten.
        rows: usize,
    },
    /// A session setting changed.
    SetVar {
        /// Setting name.
        name: String,
        /// The new value, rendered.
        value: String,
    },
    /// A tracked FD was added to or dropped from a table via
    /// `ALTER TABLE … CONSTRAINT FD`.
    AlteredFds {
        /// Target table.
        table: String,
        /// The FD text as given.
        fd: String,
        /// True for ADD, false for DROP.
        added: bool,
        /// Number of FDs tracked after the change.
        tracked: usize,
    },
    /// A repair proposal was accepted via `ACCEPT REPAIR`; the FD evolved.
    RepairAccepted {
        /// Target table.
        table: String,
        /// The original FD, rendered.
        original: String,
        /// The evolved FD, rendered.
        evolved: String,
    },
    /// A secondary index was built via `CREATE INDEX`.
    IndexCreated {
        /// Target table.
        table: String,
        /// The indexed column (canonical schema name).
        column: String,
    },
    /// A secondary index was dropped via `DROP INDEX`.
    IndexDropped {
        /// Target table.
        table: String,
        /// The formerly indexed column (canonical schema name).
        column: String,
    },
    /// The table's alert-rule set changed via `ALERT ON` / `DROP ALERT`.
    AlertsChanged {
        /// Target table.
        table: String,
        /// The rule installed, or the FD whose rules were dropped.
        subject: String,
        /// True for `ALERT ON`, false for `DROP ALERT`.
        installed: bool,
        /// Number of alert rules on the table after the change.
        rules: usize,
    },
}

impl QueryResult {
    /// The relation of a SELECT result; errors for DDL/DML results.
    pub fn into_rows(self) -> Result<Relation> {
        match self {
            QueryResult::Rows(rel) => Ok(rel),
            other => Err(SqlError::Eval { message: format!("expected rows, got {other:?}") }),
        }
    }
}

/// Per-session tunables, adjusted with `SET name = value`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSettings {
    /// Tombstone fraction above which mutable tables compact — forwarded
    /// to the incremental delta path (UPDATE/DELETE lowering) and to a
    /// durable backend when one is attached.
    pub compact_threshold: f64,
}

impl Default for SessionSettings {
    fn default() -> Self {
        SessionSettings { compact_threshold: DEFAULT_COMPACT_THRESHOLD }
    }
}

/// A pluggable durable store behind the engine's DML.
///
/// When a backend is attached, every INSERT/DELETE/UPDATE becomes a
/// durable transaction: the engine lowers the statement to a value-level
/// change batch — appended tuples plus deleted row indices **into the
/// current canonical table** (the relation SELECTs serve, in its current
/// row order) — and hands it to the backend, which must journal it
/// *before* applying (write-ahead). On success the engine mirrors the
/// same batch onto its catalog copy through the ordinary in-memory paths
/// (append / filter / delta lowering), so mutation cost stays O(changed)
/// instead of re-materialising the table; both sides apply the identical
/// canonical batch, so they stay in lock-step (proven by the reopen
/// equivalence tests). On error the backend must leave its durable state
/// cancelled (e.g. a WAL rollback record), mirroring the in-memory
/// engine's restore-on-error contract; the engine then leaves the catalog
/// untouched.
pub trait StorageBackend: std::fmt::Debug {
    /// Register a new empty table.
    fn create_table(&mut self, schema: Arc<Schema>) -> std::result::Result<(), String>;

    /// Journal and apply one mutation batch to the durable store.
    fn apply_mutation(
        &mut self,
        table: &str,
        inserts: Vec<Vec<Value>>,
        deletes: Vec<usize>,
    ) -> std::result::Result<(), String>;

    /// Forward a changed `compact_threshold` session setting.
    fn set_compact_threshold(&mut self, threshold: f64);

    /// Journal the table's **full** secondary-index column set (the new
    /// set after a `CREATE INDEX` / `DROP INDEX`), so recovery and
    /// replicas rebuild the same indexes. Journal-only backends may keep
    /// the default no-op.
    fn set_indexes(&mut self, table: &str, columns: &[String]) -> std::result::Result<(), String> {
        let _ = (table, columns);
        Ok(())
    }
}

/// One row of `SHOW FDS` output: an FD under incremental validation, its
/// maintained measures and its live-advisor status.
#[derive(Debug, Clone, PartialEq)]
pub struct FdInfoRow {
    /// Owning table.
    pub table: String,
    /// Rendered FD (e.g. `[Zip] -> [City]`).
    pub fd: String,
    /// Maintained confidence.
    pub confidence: f64,
    /// Maintained goodness.
    pub goodness: i64,
    /// Live tuples currently in violating groups.
    pub violating_rows: usize,
    /// Advisor status: `satisfied`, `violated`, `evolved`, `kept` or
    /// `dropped`.
    pub status: String,
    /// The `g3` measure: minimal fraction of tuples to delete to satisfy
    /// the FD (0 when satisfied).
    pub g3: f64,
    /// Ranked repair proposals currently pending for this FD.
    pub proposals: usize,
    /// Whether the measures are sketch estimates — the tracker degraded
    /// to approximate mode under a memory bound.
    pub approx: bool,
}

/// One row of `SUGGEST REPAIRS FOR t` output: a ranked proposal the live
/// advisor currently holds for a violated FD.
#[derive(Debug, Clone, PartialEq)]
pub struct ProposalRow {
    /// Owning table.
    pub table: String,
    /// The violated FD, rendered.
    pub fd: String,
    /// 1-based rank of this proposal (the paper's §4.1 order).
    pub rank: usize,
    /// The evolved FD, rendered.
    pub evolved: String,
    /// Attributes added to the antecedent, rendered.
    pub added: String,
    /// Goodness of the evolved FD.
    pub goodness: i64,
}

/// One row of `SHOW ALERTS` output: an installed alert rule with its
/// live evaluation state.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertInfoRow {
    /// Owning table.
    pub table: String,
    /// Canonical rule text (`FD '…' WHEN metric op threshold FOR n
    /// EPOCHS`).
    pub rule: String,
    /// The watched FD, rendered.
    pub fd: String,
    /// True while the rule is in the fired state.
    pub firing: bool,
    /// Consecutive sampled epochs the condition has held.
    pub consecutive: u64,
    /// Lifetime number of times the rule fired.
    pub fired_count: u64,
}

/// One row of `SHOW DRIFT HISTORY` output: a retained drift event with
/// the WAL provenance that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftInfoRow {
    /// Epoch at which the event was recorded.
    pub epoch: u64,
    /// WAL sequence number of the delta that caused it (0 if unknown).
    pub seq: u64,
    /// The drifted FD, rendered.
    pub fd: String,
    /// Event kind token (`violated`, `exact`, `crossed-up@t`,
    /// `crossed-down@t`, `alert-fired:…`, `alert-resolved:…`).
    pub kind: String,
    /// Confidence before the delta.
    pub confidence_before: f64,
    /// Confidence after the delta.
    pub confidence_after: f64,
    /// Violating group keys, rendered comma-separated (may be empty).
    pub groups: String,
}

/// Outcome of an accepted repair (`ACCEPT REPAIR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptedRepair {
    /// The original FD, rendered.
    pub original: String,
    /// The evolved FD, rendered.
    pub evolved: String,
}

/// A source of tracked-FD state for `SHOW FDS` and the live-advisor
/// statements — implemented by the durable/replica engines over their
/// incremental validators and advisor sessions (a plain in-memory engine
/// tracks no FDs and has none to show). The advisor methods have
/// unsupported defaults so read-only catalogs can implement just
/// [`FdInfoProvider::fd_rows`].
pub trait FdInfoProvider: std::fmt::Debug {
    /// The tracked FDs of `table` (or of every table when `None`), in
    /// table-name then FD-index order.
    fn fd_rows(&self, table: Option<&str>) -> std::result::Result<Vec<FdInfoRow>, String>;

    /// The live advisor's ranked repair proposals for every violated FD
    /// of `table` (`SUGGEST REPAIRS FOR t [LIMIT n]`), capped at `limit`
    /// rows after ranking.
    fn proposal_rows(
        &self,
        table: &str,
        limit: usize,
    ) -> std::result::Result<Vec<ProposalRow>, String> {
        let _ = (table, limit);
        Err("this engine has no live advisor attached".into())
    }

    /// Accept ranked proposal `proposal` (0-based) for `fd` on `table`,
    /// journaling the decision (`ACCEPT REPAIR n FOR '…' ON t`).
    fn accept_repair(
        &self,
        table: &str,
        fd: &str,
        proposal: usize,
    ) -> std::result::Result<AcceptedRepair, String> {
        let _ = (table, fd, proposal);
        Err("this engine has no live advisor attached".into())
    }

    /// Add or drop a tracked FD (`ALTER TABLE … CONSTRAINT FD`),
    /// journaling the new FD set. Returns the tracked-FD count after the
    /// change.
    fn alter_fd(&self, table: &str, fd: &str, add: bool) -> std::result::Result<usize, String> {
        let _ = (table, fd, add);
        Err("this engine does not support FD DDL".into())
    }

    /// The tracked FDs of `table` the validator **currently** reports as
    /// holding exactly (confidence 1), rendered in [`Fd::parse`] form.
    /// The planner re-reads this on every statement — the drift guard
    /// for its FD-aware rewrites. Default: none (no rewrites).
    fn exact_fds(&self, table: &str) -> Vec<String> {
        let _ = table;
        Vec::new()
    }

    /// Install one alert rule on `table` (`ALERT ON t FD '…' WHEN …`),
    /// journaling the table's new full rule set. Returns the rule count
    /// after the change.
    fn create_alert(&self, table: &str, rule: &str) -> std::result::Result<usize, String> {
        let _ = (table, rule);
        Err("this engine has no durable alert catalog".into())
    }

    /// Drop every alert rule watching `fd` on `table` (`DROP ALERT ON t
    /// FD '…'`), journaling the shrunk set. Returns `(removed,
    /// remaining)`; removing zero rules is an error.
    fn drop_alert(&self, table: &str, fd: &str) -> std::result::Result<(usize, usize), String> {
        let _ = (table, fd);
        Err("this engine has no durable alert catalog".into())
    }

    /// The installed alert rules of `table` (or of every table when
    /// `None`) with their live runtime, for `SHOW ALERTS`.
    fn alert_rows(&self, table: Option<&str>) -> std::result::Result<Vec<AlertInfoRow>, String> {
        let _ = table;
        Err("this engine has no durable alert catalog".into())
    }

    /// The retained drift events of `table` for `SHOW DRIFT HISTORY`,
    /// optionally narrowed to one FD and to epochs `>= since_epoch`.
    fn drift_rows(
        &self,
        table: &str,
        fd: Option<&str>,
        since_epoch: Option<u64>,
    ) -> std::result::Result<Vec<DriftInfoRow>, String> {
        let _ = (table, fd, since_epoch);
        Err("this engine has no durable history".into())
    }
}

/// A SQL engine owning a catalog of relations.
#[derive(Debug, Default)]
pub struct Engine {
    catalog: Catalog,
    settings: SessionSettings,
    backend: Option<Box<dyn StorageBackend + Send>>,
    fd_provider: Option<Box<dyn FdInfoProvider + Send>>,
    read_only: bool,
    /// Secondary indexes, table → canonical column name → index.
    /// Maintained synchronously with every DML statement, so their
    /// cardinalities double as the planner's statistics.
    indexes: HashMap<String, BTreeMap<String, ColumnIndex>>,
}

impl Engine {
    /// An engine with an empty catalog.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine over an existing catalog.
    pub fn with_catalog(catalog: Catalog) -> Engine {
        Engine { catalog, ..Engine::default() }
    }

    /// Attach a durable backend. The catalog must already mirror the
    /// backend's tables (the caller seeds it from the backend's canonical
    /// contents); from here on every DML statement goes through the
    /// backend's write-ahead path.
    pub fn set_backend(&mut self, backend: Box<dyn StorageBackend + Send>) {
        self.backend = Some(backend);
    }

    /// True iff a durable backend is attached.
    pub fn is_durable(&self) -> bool {
        self.backend.is_some()
    }

    /// Attach a tracked-FD catalog for `SHOW FDS`.
    pub fn set_fd_provider(&mut self, provider: Box<dyn FdInfoProvider + Send>) {
        self.fd_provider = Some(provider);
    }

    /// Switch the engine into (or out of) read-only replica mode: every
    /// CREATE/INSERT/UPDATE/DELETE is rejected with
    /// [`SqlError::ReadOnly`]; SELECT, `SHOW FDS` and `CHECK FD` keep
    /// working.
    pub fn set_read_only(&mut self, read_only: bool) {
        self.read_only = read_only;
    }

    /// True iff the engine rejects writes (replica mode).
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Give back the attached backend, detaching it.
    pub fn take_backend(&mut self) -> Option<Box<dyn StorageBackend + Send>> {
        self.backend.take()
    }

    /// The session settings.
    pub fn settings(&self) -> &SessionSettings {
        &self.settings
    }

    /// Replace the session settings wholesale — the multi-session server
    /// swaps each connection's [`SessionSettings`] in around its
    /// statements so concurrent sessions keep independent `SET` state
    /// over one shared engine. Forwards the (possibly changed)
    /// `compact_threshold` to an attached backend, exactly as the `SET`
    /// statement path does.
    pub fn set_settings(&mut self, settings: SessionSettings) {
        let threshold_changed = settings.compact_threshold != self.settings.compact_threshold;
        self.settings = settings;
        if threshold_changed {
            if let Some(backend) = &mut self.backend {
                backend.set_compact_threshold(self.settings.compact_threshold);
            }
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (e.g. to register generated tables).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The canonical names of `table`'s indexed columns, sorted.
    pub fn indexed_columns(&self, table: &str) -> Vec<String> {
        self.indexes.get(table).map(|t| t.keys().cloned().collect()).unwrap_or_default()
    }

    /// Install (replace) the full secondary-index set of `table`
    /// **without journaling** — the recovery/replica path replaying a
    /// journaled index set.
    pub fn install_index_set(&mut self, table: &str, columns: &[String]) -> Result<()> {
        let rel = self.catalog.get(table)?;
        let mut set = BTreeMap::new();
        for c in columns {
            let attr = rel.schema().resolve(c)?;
            let canonical = rel.schema().fields()[attr.index()].name.clone();
            set.insert(canonical, ColumnIndex::build(rel, attr));
        }
        self.indexes.insert(table.to_string(), set);
        Ok(())
    }

    /// Rebuild `table`'s indexes after its relation was replaced out of
    /// band (replica ingest, recovery replay) — a no-op when none exist.
    pub fn refresh_indexes(&mut self, table: &str) -> Result<()> {
        self.rebuild_indexes(table)
    }

    /// `table`'s index map (empty map when none exist).
    fn table_indexes(&self, table: &str) -> &BTreeMap<String, ColumnIndex> {
        static EMPTY: std::sync::OnceLock<BTreeMap<String, ColumnIndex>> =
            std::sync::OnceLock::new();
        self.indexes.get(table).unwrap_or_else(|| EMPTY.get_or_init(BTreeMap::new))
    }

    /// The exact FDs the provider currently reports for `table`, parsed
    /// against the relation's schema (unparseable entries are skipped —
    /// a rewrite silently not firing is always safe).
    fn planner_fds(&self, table: &str, rel: &Relation) -> Vec<Fd> {
        self.fd_provider.as_deref().map_or_else(Vec::new, |p| {
            p.exact_fds(table).iter().filter_map(|s| Fd::parse(rel.schema(), s).ok()).collect()
        })
    }

    /// Plan and run row matching for an UPDATE/DELETE WHERE clause,
    /// returning the matched physical row ids in ascending order.
    fn match_rows(&self, table: &str, filter: Option<&Expr>) -> Result<Vec<usize>> {
        let rel = self.catalog.get(table)?;
        let fds = self.planner_fds(table, rel);
        let match_plan = plan::plan_match(rel, self.table_indexes(table), &fds, filter)?;
        record_access(&match_plan.access);
        let timed = evofd_obs::stages_active();
        let op = ops::build_row_ops(rel, self.table_indexes(table), &match_plan, timed);
        let (rows, stats) = ops::collect_matches(op)?;
        if timed {
            for s in &stats {
                evofd_obs::record_stage(
                    format!("op.{}", s.name),
                    s.nanos,
                    format!("{} rows; {}", s.rows, s.detail),
                );
            }
        }
        Ok(rows)
    }

    /// Rebuild every index of `table` (DELETE/UPDATE renumbered the
    /// physical rows).
    fn rebuild_indexes(&mut self, table: &str) -> Result<()> {
        let Some(set) = self.indexes.get_mut(table) else { return Ok(()) };
        if set.is_empty() {
            return Ok(());
        }
        let rel = self.catalog.get(table)?;
        for idx in set.values_mut() {
            idx.rebuild(rel);
        }
        Ok(())
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse(sql)?;
        self.execute_stmt(&stmt)
    }

    /// Execute a `;`-separated script, returning each statement's result.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        parse_script(sql)?.iter().map(|s| self.execute_stmt(s)).collect()
    }

    /// Run a SELECT and return its relation.
    pub fn query(&mut self, sql: &str) -> Result<Relation> {
        self.execute(sql)?.into_rows()
    }

    /// Run a single-value SELECT (one row, one column) and return the value
    /// — the shape of the paper's confidence queries.
    pub fn query_scalar(&mut self, sql: &str) -> Result<Value> {
        let rel = self.query(sql)?;
        if rel.row_count() != 1 || rel.arity() != 1 {
            return Err(SqlError::Eval {
                message: format!(
                    "expected a scalar, got {} rows × {} columns",
                    rel.row_count(),
                    rel.arity()
                ),
            });
        }
        Ok(rel.row(0).remove(0))
    }

    /// Execute a parsed statement.
    pub fn execute_stmt(&mut self, stmt: &Statement) -> Result<QueryResult> {
        if evofd_obs::enabled() {
            evofd_obs::metrics::SQL_STATEMENTS_TOTAL.with_label(statement_verb(stmt)).inc();
        }
        let _span = evofd_obs::span("sql.execute");
        if self.read_only {
            let verb = match stmt {
                Statement::CreateTable { .. } => Some("CREATE TABLE"),
                Statement::Insert { .. } => Some("INSERT"),
                Statement::Delete { .. } => Some("DELETE"),
                Statement::Update { .. } => Some("UPDATE"),
                Statement::AlterFd { .. } => Some("ALTER TABLE"),
                Statement::AcceptRepair { .. } => Some("ACCEPT REPAIR"),
                Statement::CreateIndex { .. } => Some("CREATE INDEX"),
                Statement::DropIndex { .. } => Some("DROP INDEX"),
                Statement::CreateAlert { .. } => Some("ALERT ON"),
                Statement::DropAlert { .. } => Some("DROP ALERT"),
                _ => None,
            };
            if let Some(verb) = verb {
                return Err(SqlError::ReadOnly { statement: verb.into() });
            }
        }
        match stmt {
            Statement::CreateTable { name, columns } => {
                let fields: Vec<Field> = columns
                    .iter()
                    .map(|c| Field { name: c.name.clone(), dtype: c.dtype, nullable: c.nullable })
                    .collect();
                let schema = Schema::new(name.clone(), fields)?.into_shared();
                if self.catalog.contains(name) {
                    return Err(SqlError::Storage(evofd_storage::StorageError::DuplicateTable {
                        name: name.clone(),
                    }));
                }
                if let Some(backend) = &mut self.backend {
                    backend
                        .create_table(Arc::clone(&schema))
                        .map_err(|message| SqlError::Backend { message })?;
                }
                self.catalog.insert(Relation::empty(schema))?;
                Ok(QueryResult::Created { table: name.clone() })
            }
            Statement::Insert { table, rows } => {
                // Evaluate the literal rows before touching the catalog so
                // a bad expression leaves the table untouched.
                let values = {
                    let mut stage = evofd_obs::stage("insert.eval");
                    let mut values = Vec::with_capacity(rows.len());
                    for row_exprs in rows {
                        let mut row = Vec::with_capacity(row_exprs.len());
                        for e in row_exprs {
                            row.push(eval_const(e)?);
                        }
                        values.push(row);
                    }
                    stage.detail(format!("{} rows", values.len()));
                    values
                };
                // Journal first when durable; the backend's LiveRelation
                // applies the same validation, so a success here means the
                // catalog mirror below cannot fail.
                {
                    let mut stage = evofd_obs::stage("insert.journal");
                    if self.backend.is_none() {
                        stage.detail("no durable backend");
                    }
                    self.journal_mutation(table, &values, &[])?;
                }
                // Mutate in place through the dictionary-re-using append
                // path (the same primitive `evofd-incremental`'s
                // `LiveRelation` builds on): O(inserted) instead of the old
                // O(table) rebuild, and atomic — a bad row anywhere in the
                // batch leaves the table untouched.
                let appended = {
                    let _stage = evofd_obs::stage("insert.apply");
                    let rel = self.catalog.get_mut(table)?;
                    rel.append_rows(values)?
                };
                // O(inserted) index maintenance: the new rows sit at the
                // tail, so each index just extends its row lists.
                if appended > 0 {
                    if let Some(set) = self.indexes.get_mut(table) {
                        let rel = self.catalog.get(table)?;
                        let total = rel.row_count();
                        for idx in set.values_mut() {
                            idx.extend_appended(rel, total - appended..total);
                        }
                    }
                }
                Ok(QueryResult::Inserted { table: table.clone(), rows: appended })
            }
            Statement::Delete { table, filter } => {
                // Matching goes through the planner: an indexed equality
                // WHERE deletes in O(matched) instead of scanning.
                let matched = self.match_rows(table, filter.as_ref())?;
                let deleted = matched.len();
                if deleted > 0 {
                    self.journal_mutation(table, &[], &matched)?;
                    let rel = self.catalog.get_mut(table)?;
                    let mut keep = vec![true; rel.row_count()];
                    for &r in &matched {
                        keep[r] = false;
                    }
                    let filtered = rel.filter(&keep);
                    *rel = filtered;
                    self.rebuild_indexes(table)?;
                }
                Ok(QueryResult::Deleted { table: table.clone(), rows: deleted })
            }
            Statement::Update { table, sets, filter } => {
                // Phase 1 (read-only): resolve targets, match rows and
                // evaluate the rewritten tuples against the OLD values —
                // any error here leaves the table untouched.
                let rel = self.catalog.get(table)?;
                let mut targets: Vec<usize> = Vec::with_capacity(sets.len());
                for (name, _) in sets {
                    let idx = rel.schema().resolve(name)?.index();
                    if targets.contains(&idx) {
                        return Err(SqlError::Eval {
                            message: format!("column `{name}` assigned twice in SET"),
                        });
                    }
                    targets.push(idx);
                }
                // Matching goes through the planner (index probe when an
                // equality conjunct has one); the rewritten tuples are
                // still evaluated against the OLD values.
                let matched = self.match_rows(table, filter.as_ref())?;
                let rel = self.catalog.get(table)?;
                let mut delta = Delta::new();
                for row in matched {
                    let mut tuple = rel.row(row);
                    for ((_, expr), &idx) in sets.iter().zip(&targets) {
                        tuple[idx] = eval_row(expr, rel, row)?;
                    }
                    delta.deletes.push(row);
                    delta.inserts.push(tuple);
                }
                let changed = delta.deletes.len();
                // Phase 2: apply the whole UPDATE as ONE delta batch on
                // the incremental engine's LiveRelation path — tombstone
                // the old tuples, append the rewritten ones (dictionary
                // codes re-used), atomically. A tracker following the
                // table sees a single batch, not DELETE-then-INSERT. With
                // a durable backend the same batch goes through the WAL.
                if changed > 0 {
                    let schema = rel.schema_arc();
                    let threshold = self.settings.compact_threshold;
                    self.journal_mutation(table, &delta.inserts, &delta.deletes)?;
                    let slot = self.catalog.get_mut(table)?;
                    let mut live =
                        LiveRelation::new(std::mem::replace(slot, Relation::empty(schema)))
                            .with_compact_threshold(threshold);
                    let applied = live.apply(&delta);
                    // `apply` is atomic: on error the contents are the
                    // originals, so the table is restored either way.
                    *slot = live.into_relation();
                    applied
                        .map_err(|e| SqlError::Eval { message: format!("UPDATE failed: {e}") })?;
                    // Tombstones + appends (and a possible compaction)
                    // renumbered physical rows: resync the indexes.
                    self.rebuild_indexes(table)?;
                }
                Ok(QueryResult::Updated { table: table.clone(), rows: changed })
            }
            Statement::Set { name, value } => self.set_variable(name, value),
            Statement::ShowFds { table } => {
                let provider = self.require_fd_provider("SHOW FDS")?;
                if let Some(t) = table {
                    self.catalog.get(t)?; // unknown tables error like SELECT
                }
                let rows = provider
                    .fd_rows(table.as_deref())
                    .map_err(|message| SqlError::Backend { message })?;
                let headers = [
                    "table",
                    "fd",
                    "confidence",
                    "goodness",
                    "violating_rows",
                    "status",
                    "g3",
                    "proposals",
                    "approx",
                ]
                .map(String::from)
                .to_vec();
                let tuples = rows
                    .into_iter()
                    .map(|r| {
                        vec![
                            Value::str(r.table),
                            Value::str(r.fd),
                            Value::Float(r.confidence),
                            Value::Int(r.goodness),
                            Value::Int(r.violating_rows as i64),
                            Value::str(r.status),
                            Value::Float(r.g3),
                            Value::Int(r.proposals as i64),
                            Value::str(if r.approx { "yes" } else { "no" }),
                        ]
                    })
                    .collect();
                Ok(QueryResult::Rows(build_result(headers, tuples)?))
            }
            Statement::AlterFd { table, fd, add } => {
                let provider = self.require_fd_provider("ALTER TABLE … CONSTRAINT FD")?;
                self.catalog.get(table)?;
                let tracked = provider
                    .alter_fd(table, fd, *add)
                    .map_err(|message| SqlError::Backend { message })?;
                Ok(QueryResult::AlteredFds {
                    table: table.clone(),
                    fd: fd.clone(),
                    added: *add,
                    tracked,
                })
            }
            Statement::SuggestRepairs { table, limit } => {
                let provider = self.require_fd_provider("SUGGEST REPAIRS")?;
                self.catalog.get(table)?;
                let limit = limit.unwrap_or(DEFAULT_SUGGEST_LIMIT);
                let rows = {
                    let mut stage = evofd_obs::stage("suggest.proposals");
                    let rows = provider
                        .proposal_rows(table, limit)
                        .map_err(|message| SqlError::Backend { message })?;
                    stage.detail(format!("{} proposals, limit {limit}", rows.len()));
                    rows
                };
                let _stage = evofd_obs::stage("suggest.render");
                let headers = ["table", "fd", "rank", "evolved_fd", "added", "goodness"]
                    .map(String::from)
                    .to_vec();
                let tuples = rows
                    .into_iter()
                    .map(|r| {
                        vec![
                            Value::str(r.table),
                            Value::str(r.fd),
                            Value::Int(r.rank as i64),
                            Value::str(r.evolved),
                            Value::str(r.added),
                            Value::Int(r.goodness),
                        ]
                    })
                    .collect();
                Ok(QueryResult::Rows(build_result(headers, tuples)?))
            }
            Statement::AcceptRepair { proposal, fd, table } => {
                let provider = self.require_fd_provider("ACCEPT REPAIR")?;
                self.catalog.get(table)?;
                let accepted = provider
                    .accept_repair(table, fd, proposal - 1)
                    .map_err(|message| SqlError::Backend { message })?;
                Ok(QueryResult::RepairAccepted {
                    table: table.clone(),
                    original: accepted.original,
                    evolved: accepted.evolved,
                })
            }
            Statement::CheckFd { fd, table } => {
                let rel = self.catalog.get(table)?;
                let parsed = evofd_core::Fd::parse(rel.schema(), fd)
                    .map_err(|e| SqlError::Eval { message: format!("CHECK FD: {e}") })?;
                let cache = evofd_storage::DistinctCache::new();
                let m = evofd_core::Measures::compute(rel, &parsed, &cache);
                let headers =
                    ["fd", "confidence", "goodness", "satisfied"].map(String::from).to_vec();
                let row = vec![
                    Value::str(parsed.display(rel.schema())),
                    Value::Float(m.confidence),
                    Value::Int(m.goodness),
                    Value::Bool(m.is_exact()),
                ];
                Ok(QueryResult::Rows(build_result(headers, vec![row])?))
            }
            Statement::ShowStats { table } => {
                if let Some(t) = table {
                    self.catalog.get(t)?; // unknown tables error like SELECT
                }
                let samples = evofd_obs::flatten(table.as_deref());
                let headers = ["metric", "labels", "value"].map(String::from).to_vec();
                let tuples = samples
                    .into_iter()
                    .map(|s| {
                        vec![Value::str(s.metric), Value::str(s.labels), Value::Float(s.value)]
                    })
                    .collect();
                Ok(QueryResult::Rows(build_result(headers, tuples)?))
            }
            Statement::CreateAlert { table, rule } => {
                let provider = self.require_fd_provider("ALERT ON")?;
                self.catalog.get(table)?;
                let rules = provider
                    .create_alert(table, rule)
                    .map_err(|message| SqlError::Backend { message })?;
                Ok(QueryResult::AlertsChanged {
                    table: table.clone(),
                    subject: rule.clone(),
                    installed: true,
                    rules,
                })
            }
            Statement::DropAlert { table, fd } => {
                let provider = self.require_fd_provider("DROP ALERT")?;
                self.catalog.get(table)?;
                let (_, remaining) = provider
                    .drop_alert(table, fd)
                    .map_err(|message| SqlError::Backend { message })?;
                Ok(QueryResult::AlertsChanged {
                    table: table.clone(),
                    subject: fd.clone(),
                    installed: false,
                    rules: remaining,
                })
            }
            Statement::ShowAlerts { table } => {
                let provider = self.require_fd_provider("SHOW ALERTS")?;
                if let Some(t) = table {
                    self.catalog.get(t)?; // unknown tables error like SELECT
                }
                let rows = provider
                    .alert_rows(table.as_deref())
                    .map_err(|message| SqlError::Backend { message })?;
                let headers = ["table", "rule", "fd", "firing", "consecutive", "fired_count"]
                    .map(String::from)
                    .to_vec();
                let tuples = rows
                    .into_iter()
                    .map(|r| {
                        vec![
                            Value::str(r.table),
                            Value::str(r.rule),
                            Value::str(r.fd),
                            Value::Bool(r.firing),
                            Value::Int(r.consecutive as i64),
                            Value::Int(r.fired_count as i64),
                        ]
                    })
                    .collect();
                Ok(QueryResult::Rows(build_result(headers, tuples)?))
            }
            Statement::ShowDriftHistory { table, fd, since_epoch } => {
                let provider = self.require_fd_provider("SHOW DRIFT HISTORY")?;
                self.catalog.get(table)?;
                let rows = provider
                    .drift_rows(table, fd.as_deref(), *since_epoch)
                    .map_err(|message| SqlError::Backend { message })?;
                let headers = [
                    "epoch",
                    "seq",
                    "fd",
                    "kind",
                    "confidence_before",
                    "confidence_after",
                    "groups",
                ]
                .map(String::from)
                .to_vec();
                let tuples = rows
                    .into_iter()
                    .map(|r| {
                        vec![
                            Value::Int(r.epoch as i64),
                            Value::Int(r.seq as i64),
                            Value::str(r.fd),
                            Value::str(r.kind),
                            Value::Float(r.confidence_before),
                            Value::Float(r.confidence_after),
                            Value::str(r.groups),
                        ]
                    })
                    .collect();
                Ok(QueryResult::Rows(build_result(headers, tuples)?))
            }
            Statement::CreateIndex { table, column } => {
                let rel = self.catalog.get(table)?;
                let attr = rel.schema().resolve(column)?;
                let canonical = rel.schema().fields()[attr.index()].name.clone();
                if self.indexes.get(table).is_some_and(|t| t.contains_key(&canonical)) {
                    return Err(SqlError::Eval {
                        message: format!("index on {table}({canonical}) already exists"),
                    });
                }
                // Journal the table's NEW full index set before building,
                // like the FD-set DDL path: recovery and replicas replay
                // the set and rebuild from their own rows.
                if let Some(backend) = &mut self.backend {
                    let mut cols: Vec<String> = self
                        .indexes
                        .get(table)
                        .map(|t| t.keys().cloned().collect())
                        .unwrap_or_default();
                    cols.push(canonical.clone());
                    cols.sort();
                    backend
                        .set_indexes(table, &cols)
                        .map_err(|message| SqlError::Backend { message })?;
                }
                let built = ColumnIndex::build(rel, attr);
                self.indexes.entry(table.clone()).or_default().insert(canonical.clone(), built);
                Ok(QueryResult::IndexCreated { table: table.clone(), column: canonical })
            }
            Statement::DropIndex { table, column } => {
                let rel = self.catalog.get(table)?;
                let attr = rel.schema().resolve(column)?;
                let canonical = rel.schema().fields()[attr.index()].name.clone();
                if !self.indexes.get(table).is_some_and(|t| t.contains_key(&canonical)) {
                    return Err(SqlError::Eval {
                        message: format!("no index on {table}({canonical})"),
                    });
                }
                if let Some(backend) = &mut self.backend {
                    let cols: Vec<String> =
                        self.indexes[table].keys().filter(|c| **c != canonical).cloned().collect();
                    backend
                        .set_indexes(table, &cols)
                        .map_err(|message| SqlError::Backend { message })?;
                }
                self.indexes.get_mut(table).expect("checked above").remove(&canonical);
                Ok(QueryResult::IndexDropped { table: table.clone(), column: canonical })
            }
            Statement::Explain(inner) => {
                let headers = ["operator", "detail"].map(String::from).to_vec();
                let rows = self.explain_rows(inner)?;
                Ok(QueryResult::Rows(build_result(headers, rows)?))
            }
            Statement::ExplainAnalyze(inner) => {
                // Collect stage timings around the inner statement; the
                // recursion re-applies the read-only gate and per-verb
                // counters to the inner statement itself.
                evofd_obs::stages_begin();
                let started = std::time::Instant::now();
                let result = self.execute_stmt(inner);
                let total_ns = started.elapsed().as_nanos() as u64;
                let stages = evofd_obs::stages_take().unwrap_or_default();
                let result = result?;
                let headers = ["stage", "ms", "detail"].map(String::from).to_vec();
                let mut tuples: Vec<Vec<Value>> = stages
                    .into_iter()
                    .map(|s| {
                        vec![
                            Value::str(s.name),
                            Value::Float(s.nanos as f64 / 1e6),
                            Value::str(s.detail),
                        ]
                    })
                    .collect();
                tuples.push(vec![
                    Value::str("total"),
                    Value::Float(total_ns as f64 / 1e6),
                    Value::str(describe_result(&result)),
                ]);
                Ok(QueryResult::Rows(build_result(headers, tuples)?))
            }
            Statement::Select(sel) => {
                let rel = self.catalog.get(&sel.from)?;
                let fds = self.planner_fds(&sel.from, rel);
                Ok(QueryResult::Rows(run_select(rel, self.table_indexes(&sel.from), &fds, sel)?))
            }
        }
    }

    /// Rows of `EXPLAIN <stmt>`: the plan the statement would run with,
    /// leaf-first, without executing it.
    fn explain_rows(&self, stmt: &Statement) -> Result<Vec<Vec<Value>>> {
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut push =
            |op: &str, detail: String| rows.push(vec![Value::str(op), Value::str(detail)]);
        match stmt {
            Statement::Select(sel) => {
                let rel = self.catalog.get(&sel.from)?;
                let fds = self.planner_fds(&sel.from, rel);
                let (exprs, _headers) = expand_select_list(rel, sel);
                let sel_plan =
                    plan::plan_select(rel, self.table_indexes(&sel.from), &fds, sel, &exprs)?;
                explain_match(&mut push, &sel.from, rel, &sel_plan.scan);
                let is_aggregate =
                    !sel.group_by.is_empty() || exprs.iter().any(Expr::has_aggregate);
                if is_aggregate {
                    let detail = if sel_plan.hash_group_by.is_empty() {
                        "global".to_string()
                    } else {
                        format!(
                            "GROUP BY {}",
                            sel_plan
                                .hash_group_by
                                .iter()
                                .map(plan::render_expr)
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    };
                    push("Aggregate", detail);
                    if let Some(h) = &sel.having {
                        push("Having", plan::render_expr(h));
                    }
                }
                push("Project", format!("{} exprs", exprs.len()));
                if sel.distinct {
                    let detail = match &sel_plan.distinct_key {
                        None => "all output columns".to_string(),
                        Some(pos) => format!(
                            "key columns {}",
                            pos.iter().map(usize::to_string).collect::<Vec<_>>().join(", ")
                        ),
                    };
                    push("Distinct", detail);
                }
                if !sel.order_by.is_empty() {
                    push(
                        "Sort",
                        sel.order_by
                            .iter()
                            .map(|k| {
                                format!(
                                    "{}{}",
                                    plan::render_expr(&k.expr),
                                    if k.desc { " DESC" } else { "" }
                                )
                            })
                            .collect::<Vec<_>>()
                            .join(", "),
                    );
                }
                if let Some(limit) = sel.limit {
                    push("Limit", limit.to_string());
                }
                for rw in &sel_plan.rewrites {
                    push(&format!("Rewrite[{}]", rw.kind), rw.detail.clone());
                }
            }
            Statement::Delete { table, filter } => {
                let rel = self.catalog.get(table)?;
                let fds = self.planner_fds(table, rel);
                let (match_plan, rewrites) = plan::plan_match_with_rewrites(
                    rel,
                    self.table_indexes(table),
                    &fds,
                    filter.as_ref(),
                )?;
                explain_match(&mut push, table, rel, &match_plan);
                push("Delete", table.clone());
                for rw in &rewrites {
                    push(&format!("Rewrite[{}]", rw.kind), rw.detail.clone());
                }
            }
            Statement::Update { table, sets, filter } => {
                let rel = self.catalog.get(table)?;
                let fds = self.planner_fds(table, rel);
                let (match_plan, rewrites) = plan::plan_match_with_rewrites(
                    rel,
                    self.table_indexes(table),
                    &fds,
                    filter.as_ref(),
                )?;
                explain_match(&mut push, table, rel, &match_plan);
                push(
                    "Update",
                    format!(
                        "{table} SET {}",
                        sets.iter().map(|(c, _)| c.as_str()).collect::<Vec<_>>().join(", ")
                    ),
                );
                for rw in &rewrites {
                    push(&format!("Rewrite[{}]", rw.kind), rw.detail.clone());
                }
            }
            other => push("Statement", statement_verb(other).to_string()),
        }
        Ok(rows)
    }

    /// The attached FD catalog, or the canonical "needs tracked FDs"
    /// error for plain in-memory engines.
    fn require_fd_provider(&self, what: &str) -> Result<&dyn FdInfoProvider> {
        match &self.fd_provider {
            Some(p) => Ok(p.as_ref()),
            None => Err(SqlError::Eval {
                message: format!(
                    "{what} needs an engine with tracked FDs (durable or replica mode)"
                ),
            }),
        }
    }

    /// Journal one value-level mutation batch through the durable backend
    /// (no-op without one). The caller then applies the SAME batch to the
    /// catalog through the ordinary in-memory path, keeping durable
    /// mutation O(changed) — the backend never re-materialises the table.
    fn journal_mutation(
        &mut self,
        table: &str,
        inserts: &[Vec<Value>],
        deletes: &[usize],
    ) -> Result<()> {
        let Some(backend) = &mut self.backend else { return Ok(()) };
        // The table must be known to the engine before we touch the
        // backend, so unknown-table errors match the in-memory path.
        self.catalog.get(table)?;
        backend
            .apply_mutation(table, inserts.to_vec(), deletes.to_vec())
            .map_err(|message| SqlError::Backend { message })
    }

    /// `SET name = value`.
    fn set_variable(&mut self, name: &str, value: &Expr) -> Result<QueryResult> {
        match name {
            "compact_threshold" => {
                let v = eval_const(value)?;
                let t = v.as_f64().ok_or_else(|| SqlError::Eval {
                    message: format!("compact_threshold needs a number, got {v}"),
                })?;
                if !(t > 0.0 && t <= 1.0) {
                    return Err(SqlError::Eval {
                        message: format!("compact_threshold must be in (0, 1], got {t}"),
                    });
                }
                self.settings.compact_threshold = t;
                if let Some(backend) = &mut self.backend {
                    backend.set_compact_threshold(t);
                }
                Ok(QueryResult::SetVar { name: name.to_string(), value: t.to_string() })
            }
            other => Err(SqlError::Eval { message: format!("unknown setting `{other}`") }),
        }
    }
}

/// Evaluate a literal-only expression (INSERT values).
fn eval_const(expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Neg(inner) => match eval_const(inner)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(SqlError::Eval { message: format!("cannot negate {other}") }),
        },
        _ => Err(SqlError::Eval { message: "INSERT values must be literals".into() }),
    }
}

/// SQL comparison: numeric types compare numerically; same-type values
/// compare naturally; NULL involvement yields `None` (unknown).
fn sql_compare(a: &Value, b: &Value) -> Result<Option<Ordering>> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => Ok(None),
        (Value::Int(_), Value::Float(_))
        | (Value::Float(_), Value::Int(_))
        | (Value::Int(_), Value::Int(_))
        | (Value::Float(_), Value::Float(_)) => {
            let (x, y) = (a.as_f64().expect("numeric"), b.as_f64().expect("numeric"));
            Ok(Some(x.total_cmp(&y)))
        }
        (Value::Str(x), Value::Str(y)) => Ok(Some(x.cmp(y))),
        (Value::Bool(x), Value::Bool(y)) => Ok(Some(x.cmp(y))),
        _ => Err(SqlError::Eval { message: format!("cannot compare {a} with {b}") }),
    }
}

fn arith(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            BinOp::Add => Ok(Value::Int(x.wrapping_add(*y))),
            BinOp::Sub => Ok(Value::Int(x.wrapping_sub(*y))),
            BinOp::Mul => Ok(Value::Int(x.wrapping_mul(*y))),
            BinOp::Div => {
                if *y == 0 {
                    Err(SqlError::Eval { message: "division by zero".into() })
                } else {
                    Ok(Value::Float(*x as f64 / *y as f64))
                }
            }
            BinOp::Mod => {
                if *y == 0 {
                    Err(SqlError::Eval { message: "modulo by zero".into() })
                } else {
                    Ok(Value::Int(x % y))
                }
            }
            _ => unreachable!("arith called with non-arithmetic op"),
        },
        _ => {
            let (x, y) = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(SqlError::Eval {
                        message: format!("arithmetic on non-numeric values {a}, {b}"),
                    })
                }
            };
            match op {
                BinOp::Add => Ok(Value::Float(x + y)),
                BinOp::Sub => Ok(Value::Float(x - y)),
                BinOp::Mul => Ok(Value::Float(x * y)),
                BinOp::Div => {
                    if y == 0.0 {
                        Err(SqlError::Eval { message: "division by zero".into() })
                    } else {
                        Ok(Value::Float(x / y))
                    }
                }
                BinOp::Mod => Err(SqlError::Eval { message: "modulo needs integers".into() }),
                _ => unreachable!("arith called with non-arithmetic op"),
            }
        }
    }
}

/// Three-valued logic helpers: Bool / Null / error.
pub(crate) fn truthy(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(SqlError::Eval { message: format!("expected boolean, got {other}") }),
    }
}

/// Row-context evaluation (no aggregates).
pub(crate) fn eval_row(expr: &Expr, rel: &Relation, row: usize) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => {
            let attr = rel.schema().resolve(name)?;
            Ok(rel.column(attr).value_at(row))
        }
        Expr::Neg(inner) => match eval_row(inner, rel, row)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(SqlError::Eval { message: format!("cannot negate {other}") }),
        },
        Expr::Not(inner) => {
            let v = eval_row(inner, rel, row)?;
            Ok(match truthy(&v)? {
                None => Value::Null,
                Some(b) => Value::Bool(!b),
            })
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_row(expr, rel, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval_row(expr, rel, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_row(item, rel, row)?;
                match sql_compare(&v, &w)? {
                    Some(Ordering::Equal) => return Ok(Value::Bool(!negated)),
                    None => saw_null = true,
                    _ => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::And | BinOp::Or => {
                let l = truthy(&eval_row(lhs, rel, row)?)?;
                let r = truthy(&eval_row(rhs, rel, row)?)?;
                let out = match op {
                    BinOp::And => match (l, r) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    },
                    _ => match (l, r) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    },
                };
                Ok(out.map_or(Value::Null, Value::Bool))
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let a = eval_row(lhs, rel, row)?;
                let b = eval_row(rhs, rel, row)?;
                Ok(match sql_compare(&a, &b)? {
                    None => Value::Null,
                    Some(ord) => Value::Bool(match op {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::Ne => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::Le => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        BinOp::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    }),
                })
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let a = eval_row(lhs, rel, row)?;
                let b = eval_row(rhs, rel, row)?;
                arith(*op, &a, &b)
            }
        },
        Expr::Aggregate { .. } => {
            Err(SqlError::Eval { message: "aggregate in row context (missing GROUP BY?)".into() })
        }
    }
}

/// Compute one aggregate over a set of rows.
fn eval_aggregate(
    func: AggFunc,
    distinct: bool,
    args: &[Expr],
    rel: &Relation,
    rows: &[usize],
) -> Result<Value> {
    // COUNT(*)
    if args.is_empty() {
        if func != AggFunc::Count {
            return Err(SqlError::Eval { message: format!("{}(*) is not valid", func.name()) });
        }
        return Ok(Value::Int(rows.len() as i64));
    }
    // Materialise argument tuples, skipping rows with any NULL (SQL).
    let mut tuples: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
    'rows: for &r in rows {
        let mut tuple = Vec::with_capacity(args.len());
        for a in args {
            let v = eval_row(a, rel, r)?;
            if v.is_null() {
                continue 'rows;
            }
            tuple.push(v);
        }
        tuples.push(tuple);
    }
    if distinct {
        let mut seen = std::collections::HashSet::new();
        tuples.retain(|t| seen.insert(t.clone()));
    }
    match func {
        AggFunc::Count => Ok(Value::Int(tuples.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            if args.len() != 1 {
                return Err(SqlError::Eval {
                    message: format!("{} takes one argument", func.name()),
                });
            }
            if tuples.is_empty() {
                return Ok(Value::Null);
            }
            let mut all_int = true;
            let mut sum = 0.0;
            let mut isum: i64 = 0;
            for t in &tuples {
                match &t[0] {
                    Value::Int(i) => {
                        isum = isum.wrapping_add(*i);
                        sum += *i as f64;
                    }
                    Value::Float(f) => {
                        all_int = false;
                        sum += f;
                    }
                    other => {
                        return Err(SqlError::Eval {
                            message: format!("{} of non-numeric {other}", func.name()),
                        })
                    }
                }
            }
            if func == AggFunc::Avg {
                Ok(Value::Float(sum / tuples.len() as f64))
            } else if all_int {
                Ok(Value::Int(isum))
            } else {
                Ok(Value::Float(sum))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            if args.len() != 1 {
                return Err(SqlError::Eval {
                    message: format!("{} takes one argument", func.name()),
                });
            }
            let mut best: Option<Value> = None;
            for t in tuples {
                let v = t.into_iter().next().expect("one arg");
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match sql_compare(&v, &b)? {
                            Some(Ordering::Less) => func == AggFunc::Min,
                            Some(Ordering::Greater) => func == AggFunc::Max,
                            _ => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

/// Group-context evaluation: aggregates computed over the group's rows,
/// plain columns taken from the group's representative row (must be
/// functionally constant — guaranteed when they appear in GROUP BY).
pub(crate) fn eval_group(
    expr: &Expr,
    rel: &Relation,
    rows: &[usize],
    group_by: &[Expr],
) -> Result<Value> {
    if group_by.iter().any(|g| g == expr) {
        let rep = rows
            .first()
            .copied()
            .ok_or_else(|| SqlError::Eval { message: "empty group".into() })?;
        return eval_row(expr, rel, rep);
    }
    match expr {
        Expr::Aggregate { func, distinct, args } => {
            eval_aggregate(*func, *distinct, args, rel, rows)
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(name) => Err(SqlError::Eval {
            message: format!("column `{name}` must appear in GROUP BY or an aggregate"),
        }),
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let l = eval_group(lhs, rel, rows, group_by)?;
                let r = eval_group(rhs, rel, rows, group_by)?;
                arith(*op, &l, &r)
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let l = eval_group(lhs, rel, rows, group_by)?;
                let r = eval_group(rhs, rel, rows, group_by)?;
                Ok(match sql_compare(&l, &r)? {
                    None => Value::Null,
                    Some(ord) => Value::Bool(match op {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::Ne => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::Le => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        BinOp::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    }),
                })
            }
            BinOp::And | BinOp::Or => {
                let l = truthy(&eval_group(lhs, rel, rows, group_by)?)?;
                let r = truthy(&eval_group(rhs, rel, rows, group_by)?)?;
                let out = match op {
                    BinOp::And => match (l, r) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    },
                    _ => match (l, r) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    },
                };
                Ok(out.map_or(Value::Null, Value::Bool))
            }
        },
        Expr::Not(inner) => {
            let v = eval_group(inner, rel, rows, group_by)?;
            Ok(match truthy(&v)? {
                None => Value::Null,
                Some(b) => Value::Bool(!b),
            })
        }
        Expr::Neg(inner) => match eval_group(inner, rel, rows, group_by)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(SqlError::Eval { message: format!("cannot negate {other}") }),
        },
        _ => Err(SqlError::Eval { message: "unsupported expression in aggregate query".into() }),
    }
}

fn infer_dtype(values: &[Vec<Value>], col: usize) -> DataType {
    let mut dtype: Option<DataType> = None;
    for row in values {
        match (&row[col], dtype) {
            (Value::Null, _) => {}
            (v, None) => dtype = v.dtype(),
            (Value::Int(_), Some(DataType::Float)) => {}
            (Value::Float(_), Some(DataType::Int)) => dtype = Some(DataType::Float),
            (v, Some(t)) if v.dtype() == Some(t) => {}
            // Mixed incompatible types: degrade to TEXT.
            _ => return DataType::Str,
        }
    }
    dtype.unwrap_or(DataType::Str)
}

fn build_result(headers: Vec<String>, mut rows: Vec<Vec<Value>>) -> Result<Relation> {
    let n_cols = headers.len();
    // Unique-ify duplicate headers (e.g. two `expr` columns).
    let mut seen: HashMap<String, usize> = HashMap::new();
    let names: Vec<String> = headers
        .into_iter()
        .map(|h| {
            let n = seen.entry(h.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                h
            } else {
                format!("{h}_{n}")
            }
        })
        .collect();
    // Degrade incompatible cells to strings when the column became TEXT.
    let dtypes: Vec<DataType> = (0..n_cols).map(|c| infer_dtype(&rows, c)).collect();
    for row in &mut rows {
        for (c, v) in row.iter_mut().enumerate() {
            if dtypes[c] == DataType::Str && !v.is_null() && v.dtype() != Some(DataType::Str) {
                *v = Value::str(v.to_string());
            }
        }
    }
    let fields: Vec<Field> =
        names.iter().zip(&dtypes).map(|(n, t)| Field::new(n.clone(), *t)).collect();
    let schema = Schema::new("result", fields)?.into_shared();
    Ok(Relation::from_rows(schema, rows)?)
}

/// The statement's verb, as the `sql_statements_total` label.
fn statement_verb(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::CreateTable { .. } => "create-table",
        Statement::Insert { .. } => "insert",
        Statement::Delete { .. } => "delete",
        Statement::Update { .. } => "update",
        Statement::Set { .. } => "set",
        Statement::ShowFds { .. } => "show-fds",
        Statement::CheckFd { .. } => "check-fd",
        Statement::AlterFd { .. } => "alter-fd",
        Statement::SuggestRepairs { .. } => "suggest-repairs",
        Statement::AcceptRepair { .. } => "accept-repair",
        Statement::ShowStats { .. } => "show-stats",
        Statement::CreateAlert { .. } => "create-alert",
        Statement::DropAlert { .. } => "drop-alert",
        Statement::ShowAlerts { .. } => "show-alerts",
        Statement::ShowDriftHistory { .. } => "show-drift-history",
        Statement::CreateIndex { .. } => "create-index",
        Statement::DropIndex { .. } => "drop-index",
        Statement::Explain(_) => "explain",
        Statement::ExplainAnalyze(_) => "explain-analyze",
        Statement::Select(_) => "select",
    }
}

/// A one-line summary of an inner result for the EXPLAIN ANALYZE
/// `total` row.
fn describe_result(result: &QueryResult) -> String {
    match result {
        QueryResult::Rows(rel) => format!("{} rows", rel.row_count()),
        QueryResult::Created { table } => format!("created {table}"),
        QueryResult::Inserted { rows, .. } => format!("inserted {rows}"),
        QueryResult::Deleted { rows, .. } => format!("deleted {rows}"),
        QueryResult::Updated { rows, .. } => format!("updated {rows}"),
        QueryResult::SetVar { name, value } => format!("{name} = {value}"),
        QueryResult::AlteredFds { tracked, .. } => format!("{tracked} FDs tracked"),
        QueryResult::RepairAccepted { evolved, .. } => format!("evolved to {evolved}"),
        QueryResult::IndexCreated { table, column } => format!("indexed {table}({column})"),
        QueryResult::IndexDropped { table, column } => {
            format!("dropped index {table}({column})")
        }
        QueryResult::AlertsChanged { installed, rules, .. } => {
            format!("{} alert, {rules} rules", if *installed { "installed" } else { "dropped" })
        }
    }
}

/// Count the chosen access path in the planner metrics.
fn record_access(access: &Access) {
    match access {
        Access::SeqScan => evofd_obs::metrics::PLANNER_SEQ_SCANS_TOTAL.inc(),
        Access::IndexProbe { .. } => evofd_obs::metrics::PLANNER_INDEX_PROBES_TOTAL.inc(),
    }
}

/// Render a match plan's access + filter rows for EXPLAIN.
fn explain_match(
    push: &mut impl FnMut(&str, String),
    table: &str,
    rel: &Relation,
    match_plan: &MatchPlan,
) {
    match &match_plan.access {
        Access::SeqScan => push("SeqScan", format!("{table} ({} rows)", rel.row_count())),
        Access::IndexProbe { column, value, est_rows, unique, .. } => {
            let unique = match unique {
                None => String::new(),
                Some(UniqueVia::Stats) => ", unique (stats)".to_string(),
                Some(UniqueVia::Fd(via)) => format!(", unique (FD {via})"),
            };
            push("IndexProbe", format!("{table}.{column} = {value} (est {est_rows} rows{unique})"));
        }
    }
    if !match_plan.steps.is_empty() {
        push(
            "Filter",
            match_plan.steps.iter().map(plan::render_step).collect::<Vec<_>>().join("; "),
        );
    }
}

/// Expand the select list's wildcard into `(exprs, output headers)`.
fn expand_select_list(rel: &Relation, sel: &Select) -> (Vec<Expr>, Vec<String>) {
    let mut exprs: Vec<Expr> = Vec::new();
    let mut headers: Vec<String> = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for f in rel.schema().fields() {
                    exprs.push(Expr::Column(f.name.clone()));
                    headers.push(f.name.clone());
                }
            }
            SelectItem::Expr { expr, alias } => {
                headers.push(alias.clone().unwrap_or_else(|| expr.header()));
                exprs.push(expr.clone());
            }
        }
    }
    (exprs, headers)
}

/// Stable ORDER BY (NULLs first, like the storage `Value` order) + LIMIT.
fn sort_and_limit(out: &mut Vec<(Vec<Value>, Vec<Value>)>, sel: &Select) {
    if !sel.order_by.is_empty() {
        let _stage = evofd_obs::stage("select.sort");
        let desc: Vec<bool> = sel.order_by.iter().map(|k| k.desc).collect();
        out.sort_by(|(_, ka), (_, kb)| {
            for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
                let ord = a.cmp(b);
                let ord = if desc[i] { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let Some(limit) = sel.limit {
        out.truncate(limit);
    }
}

/// Run a SELECT through the planner and the Volcano operator pipeline.
fn run_select(
    rel: &Relation,
    indexes: &BTreeMap<String, ColumnIndex>,
    fds: &[Fd],
    sel: &Select,
) -> Result<Relation> {
    let (exprs, headers) = expand_select_list(rel, sel);
    let sel_plan = plan::plan_select(rel, indexes, fds, sel, &exprs)?;
    record_access(&sel_plan.scan.access);
    let timed = evofd_obs::stages_active();
    let is_aggregate = !sel.group_by.is_empty() || exprs.iter().any(Expr::has_aggregate);

    let source = ops::build_row_ops(rel, indexes, &sel_plan.scan, timed);
    let mut out: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    let (input_rows, row_nanos, chain) = if is_aggregate {
        let mut agg = ops::Aggregate::new(
            rel,
            source,
            &exprs,
            &sel.order_by,
            &sel_plan.hash_group_by,
            &sel.group_by,
            sel.having.as_ref(),
            timed,
        );
        while let Some(t) = agg.next_tuple()? {
            out.push(t);
        }
        (agg.input_rows(), agg.child_nanos(), agg.stats())
    } else {
        let mut proj = ops::Project::new(rel, source, &exprs, &sel.order_by, timed);
        while let Some(t) = proj.next_tuple()? {
            out.push(t);
        }
        (proj.input_rows(), proj.child_nanos(), proj.stats())
    };
    if timed {
        // The umbrella stages keep their historical names and details;
        // the per-operator breakdown rides along as `op.*` rows.
        evofd_obs::record_stage(
            "select.filter",
            row_nanos,
            format!("{input_rows} of {} rows", rel.row_count()),
        );
        for s in &chain {
            evofd_obs::record_stage(
                format!("op.{}", s.name),
                s.nanos,
                format!("{} rows; {}", s.rows, s.detail),
            );
        }
        let top_nanos = chain.last().map_or(0, |s| s.nanos);
        evofd_obs::record_stage(
            "select.project",
            top_nanos.saturating_sub(row_nanos),
            format!("{} tuples{}", out.len(), if is_aggregate { ", aggregated" } else { "" }),
        );
        for rw in &sel_plan.rewrites {
            evofd_obs::record_stage(format!("rewrite.{}", rw.kind), 0, rw.detail.clone());
        }
    }

    // DISTINCT — on the FD-reduced key positions when the planner derived
    // them (rows agreeing there agree everywhere, so the surviving first
    // occurrences are byte-identical to full-tuple dedup).
    if sel.distinct {
        let _stage = evofd_obs::stage("select.distinct");
        let mut seen = std::collections::HashSet::new();
        match &sel_plan.distinct_key {
            None => out.retain(|(tuple, _)| seen.insert(tuple.clone())),
            Some(pos) => out.retain(|(tuple, _)| {
                seen.insert(pos.iter().map(|&i| tuple[i].clone()).collect::<Vec<_>>())
            }),
        }
    }

    sort_and_limit(&mut out, sel);
    build_result(headers, out.into_iter().map(|(t, _)| t).collect())
}

/// The pre-planner reference evaluator: straight row loop, no indexes,
/// no FD rewrites, no code comparisons. Kept as the oracle the planner
/// pipeline is property-tested against (byte-identical results).
pub fn naive_select(rel: &Relation, sel: &Select) -> Result<Relation> {
    // 1. WHERE
    let rows = {
        let mut stage = evofd_obs::stage("select.filter");
        let mut rows: Vec<usize> = Vec::with_capacity(rel.row_count());
        for r in 0..rel.row_count() {
            let keep = match &sel.filter {
                None => true,
                Some(f) => truthy(&eval_row(f, rel, r)?)? == Some(true),
            };
            if keep {
                rows.push(r);
            }
        }
        stage.detail(format!("{} of {} rows", rows.len(), rel.row_count()));
        rows
    };

    // 2. Expand wildcard.
    let (exprs, headers) = expand_select_list(rel, sel);

    let is_aggregate = !sel.group_by.is_empty() || exprs.iter().any(Expr::has_aggregate);

    // 3. Produce output tuples (plus ORDER BY keys evaluated in the same
    //    context).
    let mut project_stage = evofd_obs::stage("select.project");
    let mut out: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    if is_aggregate {
        // Group rows by the GROUP BY key tuple.
        let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for &r in &rows {
            let key: Vec<Value> =
                sel.group_by.iter().map(|g| eval_row(g, rel, r)).collect::<Result<_>>()?;
            let slot = *index.entry(key.clone()).or_insert_with(|| {
                groups.push((key, Vec::new()));
                groups.len() - 1
            });
            groups[slot].1.push(r);
        }
        if sel.group_by.is_empty() && groups.is_empty() {
            // Global aggregate over zero rows still yields one output row.
            groups.push((Vec::new(), Vec::new()));
        }
        if let Some(having) = &sel.having {
            let mut kept = Vec::with_capacity(groups.len());
            for (key, group_rows) in groups {
                if truthy(&eval_group(having, rel, &group_rows, &sel.group_by)?)? == Some(true) {
                    kept.push((key, group_rows));
                }
            }
            groups = kept;
        }
        for (_, group_rows) in &groups {
            let tuple: Vec<Value> = exprs
                .iter()
                .map(|e| eval_group(e, rel, group_rows, &sel.group_by))
                .collect::<Result<_>>()?;
            let keys: Vec<Value> = sel
                .order_by
                .iter()
                .map(|k| eval_group(&k.expr, rel, group_rows, &sel.group_by))
                .collect::<Result<_>>()?;
            out.push((tuple, keys));
        }
    } else {
        for &r in &rows {
            let tuple: Vec<Value> =
                exprs.iter().map(|e| eval_row(e, rel, r)).collect::<Result<_>>()?;
            let keys: Vec<Value> =
                sel.order_by.iter().map(|k| eval_row(&k.expr, rel, r)).collect::<Result<_>>()?;
            out.push((tuple, keys));
        }
    }
    project_stage.detail(format!(
        "{} tuples{}",
        out.len(),
        if is_aggregate { ", aggregated" } else { "" }
    ));
    drop(project_stage);

    // 4. DISTINCT
    if sel.distinct {
        let _stage = evofd_obs::stage("select.distinct");
        let mut seen = std::collections::HashSet::new();
        out.retain(|(tuple, _)| seen.insert(tuple.clone()));
    }

    // 5+6. ORDER BY and LIMIT.
    sort_and_limit(&mut out, sel);

    build_result(headers, out.into_iter().map(|(t, _)| t).collect())
}

/// Register a relation in an engine under its schema name and return the
/// engine (convenience for tests and examples).
pub fn engine_with(rels: impl IntoIterator<Item = Relation>) -> Result<Engine> {
    let mut cat = Catalog::new();
    for r in rels {
        cat.insert(r)?;
    }
    Ok(Engine::with_catalog(cat))
}

/// Shared-schema helper used by the doc examples.
pub fn schema_of(rel: &Relation) -> Arc<Schema> {
    rel.schema_arc()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::relation_of_strs;

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.run_script(
            "CREATE TABLE t (a INT, b TEXT, c FLOAT);
             INSERT INTO t VALUES (1, 'x', 1.5), (2, 'x', 2.5), (2, 'y', NULL), (NULL, 'z', 4.0);",
        )
        .unwrap();
        e
    }

    #[test]
    fn create_insert_select_star() {
        let mut e = engine();
        let rel = e.query("SELECT * FROM t").unwrap();
        assert_eq!(rel.row_count(), 4);
        assert_eq!(rel.arity(), 3);
        assert_eq!(rel.row(0), vec![Value::Int(1), Value::str("x"), Value::Float(1.5)]);
    }

    #[test]
    fn count_distinct_matches_paper_query_shape() {
        let mut e = engine();
        let v = e.query_scalar("SELECT COUNT(DISTINCT a, b) FROM t").unwrap();
        // (1,x), (2,x), (2,y); the (NULL, z) row is skipped per SQL.
        assert_eq!(v, Value::Int(3));
        let v = e.query_scalar("SELECT COUNT(DISTINCT b) FROM t").unwrap();
        assert_eq!(v, Value::Int(3));
    }

    #[test]
    fn count_star_and_count_column() {
        let mut e = engine();
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(4));
        assert_eq!(e.query_scalar("SELECT COUNT(a) FROM t").unwrap(), Value::Int(3));
        assert_eq!(e.query_scalar("SELECT COUNT(c) FROM t").unwrap(), Value::Int(3));
    }

    #[test]
    fn where_three_valued_logic() {
        let mut e = engine();
        // a > 1 is NULL for the NULL row → filtered out.
        let rel = e.query("SELECT b FROM t WHERE a > 1").unwrap();
        assert_eq!(rel.row_count(), 2);
        // IS NULL picks it up.
        let rel = e.query("SELECT b FROM t WHERE a IS NULL").unwrap();
        assert_eq!(rel.row_count(), 1);
        assert_eq!(rel.row(0)[0], Value::str("z"));
        // NOT (NULL) is NULL → filtered.
        let rel = e.query("SELECT b FROM t WHERE NOT (a > 1)").unwrap();
        assert_eq!(rel.row_count(), 1);
    }

    #[test]
    fn group_by_aggregates() {
        let mut e = engine();
        let rel =
            e.query("SELECT b, COUNT(*) AS n, SUM(a) AS s FROM t GROUP BY b ORDER BY b").unwrap();
        assert_eq!(rel.row_count(), 3);
        // x: 2 rows, sum 3; y: 1 row sum 2; z: 1 row sum NULL.
        assert_eq!(rel.row(0), vec![Value::str("x"), Value::Int(2), Value::Int(3)]);
        assert_eq!(rel.row(1), vec![Value::str("y"), Value::Int(1), Value::Int(2)]);
        assert_eq!(rel.row(2), vec![Value::str("z"), Value::Int(1), Value::Null]);
    }

    #[test]
    fn min_max_avg() {
        let mut e = engine();
        assert_eq!(e.query_scalar("SELECT MIN(a) FROM t").unwrap(), Value::Int(1));
        assert_eq!(e.query_scalar("SELECT MAX(c) FROM t").unwrap(), Value::Float(4.0));
        let avg = e.query_scalar("SELECT AVG(a) FROM t").unwrap();
        assert!((avg.as_f64().unwrap() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_select() {
        let mut e = engine();
        let rel = e.query("SELECT DISTINCT b FROM t ORDER BY b").unwrap();
        assert_eq!(rel.row_count(), 3);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let mut e = engine();
        let rel = e.query("SELECT a FROM t WHERE a IS NOT NULL ORDER BY a DESC LIMIT 2").unwrap();
        assert_eq!(rel.row(0)[0], Value::Int(2));
        assert_eq!(rel.row_count(), 2);
    }

    #[test]
    fn arithmetic_and_aliases() {
        let mut e = engine();
        let rel = e.query("SELECT a + 10 AS shifted, a / 2 FROM t WHERE a = 2").unwrap();
        assert_eq!(rel.schema().attr_name(evofd_storage::AttrId(0)), "shifted");
        assert_eq!(rel.row(0)[0], Value::Int(12));
        assert_eq!(rel.row(0)[1], Value::Float(1.0));
    }

    #[test]
    fn in_list() {
        let mut e = engine();
        let rel = e.query("SELECT b FROM t WHERE b IN ('x', 'z') ORDER BY b").unwrap();
        assert_eq!(rel.row_count(), 3);
        let rel = e.query("SELECT b FROM t WHERE b NOT IN ('x', 'z')").unwrap();
        assert_eq!(rel.row_count(), 1);
    }

    #[test]
    fn errors() {
        let mut e = engine();
        assert!(matches!(e.query("SELECT nope FROM t"), Err(SqlError::Storage(_))));
        assert!(matches!(e.query("SELECT * FROM missing"), Err(SqlError::Storage(_))));
        assert!(matches!(e.query("SELECT a FROM t WHERE b"), Err(SqlError::Eval { .. })));
        // b not in GROUP BY:
        assert!(matches!(
            e.query("SELECT b, COUNT(*) FROM t GROUP BY a"),
            Err(SqlError::Eval { .. })
        ));
        // not a scalar:
        assert!(matches!(e.query_scalar("SELECT a FROM t"), Err(SqlError::Eval { .. })));
        assert!(matches!(e.query("SELECT 1 / 0 FROM t"), Err(SqlError::Eval { .. })));
    }

    #[test]
    fn insert_type_checked() {
        let mut e = engine();
        let err = e.execute("INSERT INTO t VALUES ('not an int', 'b', 1.0)").unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)));
        // Table unchanged after failed insert.
        assert_eq!(e.query("SELECT * FROM t").unwrap().row_count(), 4);
    }

    #[test]
    fn delete_with_where() {
        let mut e = engine();
        let QueryResult::Deleted { table, rows } =
            e.execute("DELETE FROM t WHERE b = 'x'").unwrap()
        else {
            panic!("expected Deleted")
        };
        assert_eq!(table, "t");
        assert_eq!(rows, 2);
        let rel = e.query("SELECT * FROM t").unwrap();
        assert_eq!(rel.row_count(), 2);
        // Three-valued logic: NULL predicates do not match.
        let QueryResult::Deleted { rows, .. } = e.execute("DELETE FROM t WHERE a > 0").unwrap()
        else {
            panic!()
        };
        assert_eq!(rows, 1, "the NULL-a row survives a > 0");
        assert_eq!(e.query("SELECT * FROM t").unwrap().row_count(), 1);
    }

    #[test]
    fn update_with_where_rewrites_matching_rows() {
        let mut e = engine();
        let QueryResult::Updated { table, rows } =
            e.execute("UPDATE t SET b = 'w' WHERE b = 'x'").unwrap()
        else {
            panic!("expected Updated")
        };
        assert_eq!(table, "t");
        assert_eq!(rows, 2);
        assert_eq!(e.query("SELECT * FROM t WHERE b = 'x'").unwrap().row_count(), 0);
        assert_eq!(e.query("SELECT * FROM t WHERE b = 'w'").unwrap().row_count(), 2);
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(4));
    }

    #[test]
    fn update_reads_old_values() {
        let mut e = engine();
        // Swap-flavoured assignment: every new value comes from the old row.
        e.execute("UPDATE t SET a = a + 10 WHERE a IS NOT NULL").unwrap();
        let rel = e.query("SELECT a FROM t WHERE a IS NOT NULL ORDER BY a").unwrap();
        assert_eq!(rel.row(0)[0], Value::Int(11));
        assert_eq!(rel.row(1)[0], Value::Int(12));
        assert_eq!(rel.row(2)[0], Value::Int(12));
    }

    #[test]
    fn update_without_where_touches_every_row() {
        let mut e = engine();
        let QueryResult::Updated { rows, .. } = e.execute("UPDATE t SET b = 'all'").unwrap() else {
            panic!()
        };
        assert_eq!(rows, 4);
        assert_eq!(e.query_scalar("SELECT COUNT(DISTINCT b) FROM t").unwrap(), Value::Int(1));
    }

    #[test]
    fn update_multi_column_and_null() {
        let mut e = engine();
        e.execute("UPDATE t SET b = 'gone', c = NULL WHERE a = 1").unwrap();
        let rel = e.query("SELECT b, c FROM t WHERE a = 1").unwrap();
        assert_eq!(rel.row(0), vec![Value::str("gone"), Value::Null]);
    }

    #[test]
    fn update_is_one_atomic_batch() {
        let mut e = engine();
        // The type error only occurs on the second matching row (a = 2,
        // b = 'y' would set int column a to a string via c NULL? no —
        // force it: set a to a non-int literal for rows b='x').
        let err = e.execute("UPDATE t SET a = 'oops' WHERE b = 'x'").unwrap_err();
        assert!(matches!(err, SqlError::Eval { .. }), "{err:?}");
        // Nothing changed: the whole batch was rejected.
        assert_eq!(e.query("SELECT * FROM t WHERE b = 'x'").unwrap().row_count(), 2);
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(4));
    }

    #[test]
    fn update_errors_leave_table_intact() {
        let mut e = engine();
        assert!(matches!(e.execute("UPDATE missing SET a = 1"), Err(SqlError::Storage(_))));
        assert!(e.execute("UPDATE t SET nope = 1").is_err());
        assert!(e.execute("UPDATE t SET a = 1 WHERE nope = 2").is_err());
        assert_eq!(e.query("SELECT * FROM t").unwrap().row_count(), 4);
    }

    #[test]
    fn update_rejects_duplicate_set_columns() {
        let mut e = engine();
        let err = e.execute("UPDATE t SET a = 1, a = 2").unwrap_err();
        assert!(matches!(err, SqlError::Eval { .. }), "{err:?}");
        assert!(err.to_string().contains("assigned twice"), "{err}");
        assert_eq!(e.query("SELECT * FROM t WHERE a = 1").unwrap().row_count(), 1, "unchanged");
    }

    #[test]
    fn update_zero_matches_is_a_noop() {
        let mut e = engine();
        let QueryResult::Updated { rows, .. } =
            e.execute("UPDATE t SET b = 'z' WHERE a > 99").unwrap()
        else {
            panic!()
        };
        assert_eq!(rows, 0);
        assert_eq!(e.query("SELECT * FROM t").unwrap().row_count(), 4);
    }

    #[test]
    fn delete_without_where_empties_table() {
        let mut e = engine();
        let QueryResult::Deleted { rows, .. } = e.execute("DELETE FROM t").unwrap() else {
            panic!()
        };
        assert_eq!(rows, 4);
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(0));
        // The schema survives: inserting again works.
        e.execute("INSERT INTO t VALUES (5, 'w', 0.5)").unwrap();
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(1));
    }

    #[test]
    fn delete_errors_leave_table_intact() {
        let mut e = engine();
        assert!(matches!(e.execute("DELETE FROM missing"), Err(SqlError::Storage(_))));
        // Bad predicate: unknown column.
        assert!(e.execute("DELETE FROM t WHERE nope = 1").is_err());
        assert_eq!(e.query("SELECT * FROM t").unwrap().row_count(), 4);
    }

    #[test]
    fn insert_mutable_path_appends_and_round_trips() {
        let mut e = engine();
        let QueryResult::Inserted { rows, .. } =
            e.execute("INSERT INTO t VALUES (7, 'q', 7.5), (8, 'q', 8.5)").unwrap()
        else {
            panic!()
        };
        assert_eq!(rows, 2);
        let rel = e.query("SELECT * FROM t WHERE b = 'q' ORDER BY a").unwrap();
        assert_eq!(rel.row_count(), 2);
        assert_eq!(rel.row(0)[0], Value::Int(7));
        // Interleaved insert/delete traffic keeps counts consistent.
        e.execute("DELETE FROM t WHERE a = 7").unwrap();
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(5));
    }

    #[test]
    fn engine_with_existing_relations() {
        let r = relation_of_strs("people", &["name"], &[&["ada"], &["alan"]]).unwrap();
        let mut e = engine_with([r]).unwrap();
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM people").unwrap(), Value::Int(2));
    }

    #[test]
    fn global_aggregate_over_empty_table() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE v (x INT)").unwrap();
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM v").unwrap(), Value::Int(0));
        assert_eq!(e.query_scalar("SELECT SUM(x) FROM v").unwrap(), Value::Null);
    }

    #[test]
    fn having_filters_groups() {
        let mut e = engine();
        // Violation-finding query: groups of b with >1 distinct a.
        let rel = e
            .query(
                "SELECT b, COUNT(DISTINCT a) AS n FROM t GROUP BY b \
                 HAVING COUNT(DISTINCT a) > 1 ORDER BY b",
            )
            .unwrap();
        assert_eq!(rel.row_count(), 1, "only b = 'x' has two distinct a");
        assert_eq!(rel.row(0)[0], Value::str("x"));
        assert_eq!(rel.row(0)[1], Value::Int(2));
    }

    #[test]
    fn having_with_boolean_logic() {
        let mut e = engine();
        let rel = e
            .query(
                "SELECT b FROM t GROUP BY b \
                 HAVING COUNT(*) >= 1 AND NOT (COUNT(*) > 1) ORDER BY b",
            )
            .unwrap();
        assert_eq!(rel.row_count(), 2, "y and z are singleton groups");
    }

    #[test]
    fn having_requires_group_by() {
        let mut e = engine();
        assert!(matches!(
            e.query("SELECT a FROM t HAVING COUNT(*) > 1"),
            Err(SqlError::Parse { .. })
        ));
    }

    #[test]
    fn set_compact_threshold_session_setting() {
        let mut e = engine();
        let QueryResult::SetVar { name, value } =
            e.execute("SET compact_threshold = 0.25").unwrap()
        else {
            panic!("expected SetVar")
        };
        assert_eq!(name, "compact_threshold");
        assert_eq!(value, "0.25");
        assert!((e.settings().compact_threshold - 0.25).abs() < 1e-12);
        // Out-of-range and unknown settings are rejected.
        assert!(e.execute("SET compact_threshold = 0").is_err());
        assert!(e.execute("SET compact_threshold = 1.5").is_err());
        assert!(e.execute("SET compact_threshold = 'lots'").is_err());
        assert!(e.execute("SET mystery_knob = 1").is_err());
        // UPDATE still works under the adjusted threshold.
        e.execute("UPDATE t SET b = 'w' WHERE b = 'x'").unwrap();
        assert_eq!(e.query("SELECT * FROM t WHERE b = 'w'").unwrap().row_count(), 2);
    }

    /// Observable state of [`MockBackend`], shared with the test through
    /// an `Arc<Mutex<…>>` so the backend can stay behind the trait object.
    #[derive(Debug, Default)]
    struct MockState {
        tables: HashMap<String, LiveRelation>,
        calls: Vec<(String, usize, Vec<usize>)>,
        threshold: Option<f64>,
        fail_next: bool,
    }

    /// An in-memory mock backend recording the engine's mutation batches
    /// and applying them through the same LiveRelation lowering the real
    /// durable store uses.
    #[derive(Debug, Default, Clone)]
    struct MockBackend {
        state: std::sync::Arc<std::sync::Mutex<MockState>>,
    }

    impl StorageBackend for MockBackend {
        fn create_table(&mut self, schema: Arc<Schema>) -> std::result::Result<(), String> {
            let mut s = self.state.lock().unwrap();
            let name = schema.name().to_string();
            s.tables.insert(name, LiveRelation::new(Relation::empty(schema)));
            Ok(())
        }

        fn apply_mutation(
            &mut self,
            table: &str,
            inserts: Vec<Vec<Value>>,
            deletes: Vec<usize>,
        ) -> std::result::Result<(), String> {
            let mut s = self.state.lock().unwrap();
            if s.fail_next {
                s.fail_next = false;
                return Err("injected backend failure".into());
            }
            s.calls.push((table.to_string(), inserts.len(), deletes.clone()));
            let live = s.tables.get_mut(table).ok_or("unknown table")?;
            // Canonical row index k = k-th live physical row.
            let physical: Vec<usize> = live.live_rows().collect();
            let deletes = deletes.iter().map(|&k| physical[k]).collect();
            let delta = Delta { inserts, deletes };
            live.apply(&delta).map_err(|e| e.to_string())?;
            Ok(())
        }

        fn set_compact_threshold(&mut self, threshold: f64) {
            self.state.lock().unwrap().threshold = Some(threshold);
        }
    }

    #[test]
    fn backend_receives_all_dml_and_serves_selects() {
        let mock = MockBackend::default();
        let state = std::sync::Arc::clone(&mock.state);
        let mut e = Engine::new();
        e.set_backend(Box::new(mock));
        assert!(e.is_durable());
        e.run_script(
            "CREATE TABLE t (a INT, b TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, 'x'), (3, 'y');
             SET compact_threshold = 0.5;
             UPDATE t SET b = 'z' WHERE a = 2;
             DELETE FROM t WHERE b = 'x';",
        )
        .unwrap();
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(2));
        let rel = e.query("SELECT a, b FROM t ORDER BY a").unwrap();
        assert_eq!(rel.row(0), vec![Value::Int(2), Value::str("z")]);
        assert_eq!(rel.row(1), vec![Value::Int(3), Value::str("y")]);

        let s = state.lock().unwrap();
        assert_eq!(s.calls.len(), 3, "insert + update + delete batches");
        assert_eq!(s.calls[0], ("t".into(), 3, vec![]));
        assert_eq!(s.calls[1], ("t".into(), 1, vec![1]), "update = delete+insert batch");
        assert_eq!(s.calls[2].2, vec![0], "delete names canonical row 0 (a=1)");
        assert_eq!(s.threshold, Some(0.5), "SET forwarded to the backend");
        // The backend's durable state and the engine's catalog mirror stay
        // in lock-step: same canonical contents in the same row order.
        let durable = s.tables["t"].snapshot();
        drop(s);
        let mirror = e.query("SELECT * FROM t").unwrap();
        assert_eq!(durable.row_count(), mirror.row_count());
        for i in 0..durable.row_count() {
            assert_eq!(durable.row(i), mirror.row(i), "row {i}");
        }
    }

    #[test]
    fn backend_failure_keeps_catalog_intact() {
        let mock = MockBackend::default();
        let state = std::sync::Arc::clone(&mock.state);
        let mut e = Engine::new();
        e.set_backend(Box::new(mock));
        e.run_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);").unwrap();
        state.lock().unwrap().fail_next = true;
        let err = e.execute("INSERT INTO t VALUES (2)").unwrap_err();
        assert!(matches!(err, SqlError::Backend { .. }), "{err:?}");
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(1));
        // DML on a table the engine does not know stays a storage error.
        let err = e.execute("INSERT INTO missing VALUES (1)").unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)));
    }

    #[test]
    fn read_only_mode_rejects_writes_and_serves_reads() {
        let mut e = engine();
        e.set_read_only(true);
        assert!(e.is_read_only());
        for sql in [
            "INSERT INTO t VALUES (9, 'w', 0.5)",
            "DELETE FROM t WHERE a = 1",
            "UPDATE t SET b = 'w'",
            "CREATE TABLE u (x INT)",
        ] {
            let err = e.execute(sql).unwrap_err();
            assert!(matches!(err, SqlError::ReadOnly { .. }), "{sql}: {err:?}");
            assert!(err.to_string().contains("read-only replica"), "{err}");
        }
        // Reads (and CHECK FD) still work; the table is untouched.
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(4));
        let rel = e.query("CHECK FD 'b -> a' ON t").unwrap();
        assert_eq!(rel.row_count(), 1);
        assert_eq!(rel.row(0)[3], Value::Bool(false), "b -> a is violated (b=x has a=1,2)");
        // Back to writable.
        e.set_read_only(false);
        e.execute("DELETE FROM t WHERE a = 1").unwrap();
    }

    #[test]
    fn check_fd_reports_measures() {
        let mut e = engine();
        let rel = e.query("CHECK FD 'a, b -> c' ON t").unwrap();
        assert_eq!(rel.row_count(), 1);
        assert_eq!(rel.arity(), 4);
        // An unparsable FD or unknown table is a clean error.
        assert!(matches!(e.query("CHECK FD 'nope -> b' ON t"), Err(SqlError::Eval { .. })));
        assert!(matches!(e.query("CHECK FD 'a -> b' ON missing"), Err(SqlError::Storage(_))));
    }

    /// A canned FD catalog for SHOW FDS tests.
    #[derive(Debug)]
    struct FixedFds(Vec<FdInfoRow>);

    impl FdInfoProvider for FixedFds {
        fn fd_rows(&self, table: Option<&str>) -> std::result::Result<Vec<FdInfoRow>, String> {
            Ok(self.0.iter().filter(|r| table.is_none_or(|t| r.table == t)).cloned().collect())
        }
    }

    #[test]
    fn show_fds_uses_the_attached_provider() {
        let mut e = engine();
        assert!(matches!(e.query("SHOW FDS"), Err(SqlError::Eval { .. })), "no provider attached");
        e.set_fd_provider(Box::new(FixedFds(vec![FdInfoRow {
            table: "t".into(),
            fd: "[a] -> [b]".into(),
            confidence: 0.75,
            goodness: -1,
            violating_rows: 2,
            status: "violated".into(),
            g3: 0.25,
            proposals: 1,
            approx: false,
        }])));
        let rel = e.query("SHOW FDS").unwrap();
        assert_eq!(rel.row_count(), 1);
        assert_eq!(rel.arity(), 9);
        assert_eq!(rel.row(0)[1], Value::str("[a] -> [b]"));
        assert_eq!(rel.row(0)[4], Value::Int(2));
        assert_eq!(rel.row(0)[5], Value::str("violated"));
        assert_eq!(rel.row(0)[6], Value::Float(0.25));
        assert_eq!(rel.row(0)[7], Value::Int(1));
        assert_eq!(rel.row(0)[8], Value::str("no"));
        let rel = e.query("SHOW FDS FOR t").unwrap();
        assert_eq!(rel.row_count(), 1);
        // Unknown tables error the same way SELECT does.
        assert!(matches!(e.query("SHOW FDS FOR missing"), Err(SqlError::Storage(_))));
    }

    #[test]
    fn advisor_statements_need_a_capable_provider() {
        let mut e = engine();
        // No provider at all: the canonical "tracked FDs" error.
        for sql in [
            "SUGGEST REPAIRS FOR t",
            "ACCEPT REPAIR 1 FOR 'a -> b' ON t",
            "ALTER TABLE t ADD CONSTRAINT FD 'a -> b'",
        ] {
            let err = e.execute(sql).unwrap_err();
            assert!(matches!(err, SqlError::Eval { .. }), "{sql}: {err:?}");
            assert!(err.to_string().contains("tracked FDs"), "{err}");
        }
        // A provider without advisor support: the default stubs error.
        e.set_fd_provider(Box::new(FixedFds(Vec::new())));
        let err = e.execute("SUGGEST REPAIRS FOR t").unwrap_err();
        assert!(matches!(err, SqlError::Backend { .. }), "{err:?}");
        let err = e.execute("ALTER TABLE t ADD CONSTRAINT FD 'a -> b'").unwrap_err();
        assert!(matches!(err, SqlError::Backend { .. }), "{err:?}");
        // Unknown tables still error like SELECT, before the provider.
        let err = e.execute("SUGGEST REPAIRS FOR missing").unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)), "{err:?}");
    }

    #[test]
    fn read_only_rejects_advisor_writes_but_serves_suggest() {
        let mut e = engine();
        e.set_fd_provider(Box::new(FixedFds(Vec::new())));
        e.set_read_only(true);
        for sql in ["ALTER TABLE t ADD CONSTRAINT FD 'a -> b'", "ACCEPT REPAIR 1 FOR 'a -> b' ON t"]
        {
            let err = e.execute(sql).unwrap_err();
            assert!(matches!(err, SqlError::ReadOnly { .. }), "{sql}: {err:?}");
        }
        // SUGGEST is a read: it reaches the provider (whose stub errors).
        let err = e.execute("SUGGEST REPAIRS FOR t").unwrap_err();
        assert!(matches!(err, SqlError::Backend { .. }), "{err:?}");
    }

    #[test]
    fn duplicate_headers_uniquified() {
        let mut e = engine();
        let rel = e.query("SELECT a + 1, a + 2 FROM t WHERE a = 1").unwrap();
        assert_eq!(rel.schema().attr_name(evofd_storage::AttrId(0)), "expr");
        assert_eq!(rel.schema().attr_name(evofd_storage::AttrId(1)), "expr_2");
    }

    /// A provider with a fixed pool of ranked proposals, honouring the
    /// `limit` contract (LIMIT tests and EXPLAIN ANALYZE SUGGEST).
    #[derive(Debug)]
    struct CannedProposals(usize);

    impl FdInfoProvider for CannedProposals {
        fn fd_rows(&self, _table: Option<&str>) -> std::result::Result<Vec<FdInfoRow>, String> {
            Ok(Vec::new())
        }

        fn proposal_rows(
            &self,
            table: &str,
            limit: usize,
        ) -> std::result::Result<Vec<ProposalRow>, String> {
            Ok((0..self.0.min(limit))
                .map(|i| ProposalRow {
                    table: table.to_string(),
                    fd: "[a] -> [b]".into(),
                    rank: i + 1,
                    evolved: format!("[a, c{i}] -> [b]"),
                    added: format!("[c{i}]"),
                    goodness: -(i as i64),
                })
                .collect())
        }
    }

    fn stage_names(rel: &Relation) -> Vec<String> {
        (0..rel.row_count())
            .map(|r| match &rel.row(r)[0] {
                Value::Str(s) => s.to_string(),
                v => panic!("stage name should be text, got {v:?}"),
            })
            .collect()
    }

    #[test]
    fn suggest_repairs_limit_caps_rows() {
        let mut e = engine();
        e.set_fd_provider(Box::new(CannedProposals(50)));
        // Default cap.
        let rel = e.query("SUGGEST REPAIRS FOR t").unwrap();
        assert_eq!(rel.row_count(), DEFAULT_SUGGEST_LIMIT);
        // Explicit LIMIT below and above the pool size.
        let rel = e.query("SUGGEST REPAIRS FOR t LIMIT 3").unwrap();
        assert_eq!(rel.row_count(), 3);
        assert_eq!(rel.row(2)[2], Value::Int(3), "ranks stay 1-based after the cap");
        let rel = e.query("SUGGEST REPAIRS FOR t LIMIT 100").unwrap();
        assert_eq!(rel.row_count(), 50);
    }

    #[test]
    fn show_stats_snapshots_the_registry() {
        let mut e = engine();
        let rel = e.query("SHOW STATS").unwrap();
        assert_eq!(rel.arity(), 3);
        assert!(rel.row_count() > 0, "the catalog is visible even with no traffic");
        let metrics: Vec<String> = stage_names(&rel);
        for family in ["tracker_deltas_total", "wal_appends_total", "advisor_deltas_total"] {
            assert!(metrics.iter().any(|m| m == family), "{family} missing");
        }
        // Histograms expand to quantile components.
        assert!(metrics.iter().any(|m| m.ends_with(".p99_ms")), "histogram quantiles present");
        // FOR t keeps only samples labeled with that table (none here —
        // the in-memory engine has no per-table instrumentation).
        let rel = e.query("SHOW STATS FOR t").unwrap();
        assert_eq!(rel.arity(), 3);
        // Unknown tables error like SELECT.
        assert!(matches!(e.query("SHOW STATS FOR missing"), Err(SqlError::Storage(_))));
    }

    #[test]
    fn explain_analyze_select_reports_stage_timings() {
        let mut e = engine();
        let rel = e.query("EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1 ORDER BY a").unwrap();
        assert_eq!(rel.arity(), 3, "stage / ms / detail");
        let stages = stage_names(&rel);
        for want in ["select.filter", "select.project", "select.sort"] {
            assert!(stages.iter().any(|s| s == want), "{want} missing from {stages:?}");
        }
        assert_eq!(stages.last().map(String::as_str), Some("total"));
        for r in 0..rel.row_count() {
            match rel.row(r)[1] {
                Value::Float(ms) => assert!(ms >= 0.0, "negative stage time"),
                ref v => panic!("ms should be a float, got {v:?}"),
            }
        }
        // The filter stage reports its selectivity.
        let filter_row = stages.iter().position(|s| s == "select.filter").unwrap();
        assert_eq!(rel.row(filter_row)[2], Value::str("2 of 4 rows"));
    }

    #[test]
    fn explain_analyze_insert_reports_stage_timings_and_applies() {
        let mut e = engine();
        let rel = e.query("EXPLAIN ANALYZE INSERT INTO t VALUES (9, 'q', 0.5)").unwrap();
        let stages = stage_names(&rel);
        for want in ["insert.eval", "insert.journal", "insert.apply", "total"] {
            assert!(stages.iter().any(|s| s == want), "{want} missing from {stages:?}");
        }
        // The total row carries the inner statement's outcome.
        assert_eq!(rel.row(rel.row_count() - 1)[2], Value::str("inserted 1"));
        // The analyzed insert really ran.
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(5));
        // The read-only gate still applies through EXPLAIN ANALYZE.
        e.set_read_only(true);
        assert!(matches!(
            e.query("EXPLAIN ANALYZE INSERT INTO t VALUES (1, 'x', 1.0)"),
            Err(SqlError::ReadOnly { .. })
        ));
    }

    #[test]
    fn explain_analyze_suggest_reports_stage_timings() {
        let mut e = engine();
        e.set_fd_provider(Box::new(CannedProposals(5)));
        let rel = e.query("EXPLAIN ANALYZE SUGGEST REPAIRS FOR t LIMIT 2").unwrap();
        let stages = stage_names(&rel);
        for want in ["suggest.proposals", "suggest.render", "total"] {
            assert!(stages.iter().any(|s| s == want), "{want} missing from {stages:?}");
        }
        let fetch = stages.iter().position(|s| s == "suggest.proposals").unwrap();
        assert_eq!(rel.row(fetch)[2], Value::str("2 proposals, limit 2"));
    }

    /// Every row of a result, materialised for equality asserts.
    fn all_rows(rel: &Relation) -> Vec<Vec<Value>> {
        (0..rel.row_count()).map(|r| rel.row(r)).collect()
    }

    /// All `(operator, detail)` rows of an EXPLAIN result, flattened.
    fn explain_ops(rel: &Relation) -> Vec<(String, String)> {
        (0..rel.row_count())
            .map(|r| {
                let row = rel.row(r);
                (row[0].to_string(), row[1].to_string())
            })
            .collect()
    }

    #[test]
    fn create_index_probe_matches_scan_results() {
        let mut e = engine();
        let before = e.query("SELECT * FROM t WHERE b = 'x'").unwrap();
        e.execute("CREATE INDEX ON t (b)").unwrap();
        assert_eq!(e.indexed_columns("t"), vec!["b".to_string()]);
        let after = e.query("SELECT * FROM t WHERE b = 'x'").unwrap();
        assert_eq!(all_rows(&before), all_rows(&after), "probe must be byte-identical");
        // The chosen plan is visible through EXPLAIN…
        let plan = e.query("EXPLAIN SELECT * FROM t WHERE b = 'x'").unwrap();
        let ops = explain_ops(&plan);
        assert!(
            ops.iter().any(|(op, d)| op == "IndexProbe" && d.contains("t.b = x (est 2 rows")),
            "{ops:?}"
        );
        // …and through EXPLAIN ANALYZE's per-operator rows.
        let rel = e.query("EXPLAIN ANALYZE SELECT * FROM t WHERE b = 'x'").unwrap();
        let stages = stage_names(&rel);
        assert!(stages.iter().any(|s| s == "op.index_probe"), "{stages:?}");
        let filter = stages.iter().position(|s| s == "select.filter").unwrap();
        assert_eq!(rel.row(filter)[2], Value::str("2 of 4 rows"));
    }

    #[test]
    fn index_ddl_validates_and_round_trips() {
        let mut e = engine();
        e.execute("CREATE INDEX ON t (a)").unwrap();
        assert!(
            matches!(e.execute("CREATE INDEX ON t (a)"), Err(SqlError::Eval { .. })),
            "duplicate index rejected"
        );
        assert!(e.execute("CREATE INDEX ON t (nope)").is_err(), "unknown column rejected");
        assert!(e.execute("CREATE INDEX ON missing (a)").is_err(), "unknown table rejected");
        let QueryResult::IndexDropped { column, .. } = e.execute("DROP INDEX ON t (a)").unwrap()
        else {
            panic!("expected IndexDropped")
        };
        assert_eq!(column, "a");
        assert!(e.indexed_columns("t").is_empty());
        assert!(
            matches!(e.execute("DROP INDEX ON t (a)"), Err(SqlError::Eval { .. })),
            "dropping a missing index errors"
        );
        // Replica mode rejects index DDL like any other DDL.
        e.set_read_only(true);
        assert!(matches!(e.execute("CREATE INDEX ON t (a)"), Err(SqlError::ReadOnly { .. })));
        assert!(matches!(e.execute("DROP INDEX ON t (a)"), Err(SqlError::ReadOnly { .. })));
    }

    #[test]
    fn indexes_follow_insert_delete_update() {
        let mut e = engine();
        e.execute("CREATE INDEX ON t (b)").unwrap();
        e.execute("INSERT INTO t VALUES (7, 'x', 7.0), (8, 'w', 8.0)").unwrap();
        let probed = e.query("SELECT a FROM t WHERE b = 'x' ORDER BY a").unwrap();
        assert_eq!(
            (0..probed.row_count()).map(|r| probed.row(r)[0].clone()).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(7)],
            "O(inserted) maintenance sees appended rows"
        );
        e.execute("DELETE FROM t WHERE b = 'x' AND a = 2").unwrap();
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t WHERE b = 'x'").unwrap(), Value::Int(2));
        e.execute("UPDATE t SET b = 'x' WHERE b = 'w'").unwrap();
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t WHERE b = 'x'").unwrap(), Value::Int(3));
        // After all that churn a probe still matches a fresh naive scan.
        let stmt = parse("SELECT * FROM t WHERE b = 'x' ORDER BY c").unwrap();
        let Statement::Select(sel) = stmt else { panic!() };
        let naive = naive_select(e.catalog().get("t").unwrap(), &sel).unwrap();
        let planned = e.query("SELECT * FROM t WHERE b = 'x' ORDER BY c").unwrap();
        assert_eq!(all_rows(&naive), all_rows(&planned));
    }

    #[test]
    fn explain_plans_without_executing() {
        let mut e = engine();
        let plan = e.query("EXPLAIN INSERT INTO t VALUES (9, 'q', 0.5)").unwrap();
        let ops = explain_ops(&plan);
        assert_eq!(ops, vec![("Statement".to_string(), "insert".to_string())]);
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(4), "not run");
        // DELETE / UPDATE expose their match plan.
        e.execute("CREATE INDEX ON t (a)").unwrap();
        let plan = e.query("EXPLAIN DELETE FROM t WHERE a = 2").unwrap();
        let ops = explain_ops(&plan);
        assert!(ops.iter().any(|(op, _)| op == "IndexProbe"), "{ops:?}");
        assert!(ops.iter().any(|(op, d)| op == "Delete" && d == "t"), "{ops:?}");
        let plan = e.query("EXPLAIN UPDATE t SET c = 0.0 WHERE a = 2 AND b = 'y'").unwrap();
        let ops = explain_ops(&plan);
        assert!(ops.iter().any(|(op, _)| op == "IndexProbe"), "{ops:?}");
        assert!(ops.iter().any(|(op, d)| op == "Filter" && d.contains("b = code#")), "{ops:?}");
        assert_eq!(e.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(4), "not run");
        // EXPLAIN works in replica mode even for write statements — it
        // only plans.
        e.set_read_only(true);
        assert!(e.query("EXPLAIN DELETE FROM t WHERE a = 2").is_ok());
    }

    /// An FD provider whose exact-FD set tests can flip mid-stream —
    /// the drift scenario the planner must re-read every statement.
    #[derive(Debug, Clone, Default)]
    struct ExactFds(std::sync::Arc<std::sync::Mutex<Vec<String>>>);

    impl FdInfoProvider for ExactFds {
        fn fd_rows(&self, _table: Option<&str>) -> std::result::Result<Vec<FdInfoRow>, String> {
            Ok(Vec::new())
        }

        fn exact_fds(&self, _table: &str) -> Vec<String> {
            self.0.lock().unwrap().clone()
        }
    }

    #[test]
    fn fd_rewrites_activate_and_deactivate_with_drift() {
        let mut e = Engine::new();
        e.run_script(
            "CREATE TABLE z (zip TEXT, city TEXT, pop INT);
             INSERT INTO z VALUES ('1', 'rome', 10), ('1', 'rome', 20), ('2', 'oslo', 30);",
        )
        .unwrap();
        let fds = ExactFds::default();
        e.set_fd_provider(Box::new(fds.clone()));

        let q = "SELECT zip, city, SUM(pop) FROM z GROUP BY zip, city ORDER BY zip";
        let without = e.query(q).unwrap();

        // zip -> city holds exactly: the planner collapses the GROUP BY.
        fds.0.lock().unwrap().push("zip -> city".into());
        let plan = e.query(&format!("EXPLAIN {q}")).unwrap();
        let ops = explain_ops(&plan);
        assert!(ops.iter().any(|(op, d)| op == "Aggregate" && d == "GROUP BY zip"), "{ops:?}");
        assert!(ops.iter().any(|(op, _)| op == "Rewrite[group-collapse]"), "{ops:?}");
        let with = e.query(q).unwrap();
        assert_eq!(all_rows(&without), all_rows(&with), "collapse must not change results");

        // DISTINCT over determined columns dedups on the reduced key.
        let d = "SELECT DISTINCT zip, city FROM z ORDER BY zip";
        let plan = e.query(&format!("EXPLAIN {d}")).unwrap();
        let ops = explain_ops(&plan);
        assert!(ops.iter().any(|(op, _)| op == "Rewrite[distinct-reduce]"), "{ops:?}");
        assert_eq!(e.query(d).unwrap().row_count(), 2);

        // Drift: the validator stops reporting the FD — the very next
        // statement plans without the rewrite.
        fds.0.lock().unwrap().clear();
        let plan = e.query(&format!("EXPLAIN {q}")).unwrap();
        let ops = explain_ops(&plan);
        assert!(
            ops.iter().any(|(op, d)| op == "Aggregate" && d == "GROUP BY zip, city"),
            "{ops:?}"
        );
        assert!(!ops.iter().any(|(op, _)| op.starts_with("Rewrite")), "{ops:?}");
    }
}
