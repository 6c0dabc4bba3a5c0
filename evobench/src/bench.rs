//! The run context shared by the workloads: statement timing with
//! failure accounting, the set-up / end / probe phases, the designer
//! pass, the correctness gates and the result report.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use evofd_core::{AdvisorSession, Fd};
use evofd_persist::{DirTransport, DurableEngine, PersistOptions, ReplicaState, SyncPolicy};
use evofd_sql::QueryResult;
use evofd_storage::{count_distinct_naive, Relation, Value};

use crate::data::{check_point_rows, Kind, Model, Rng, Stmt};
use crate::layers::Layers;
use crate::stats::{median, tail};
use crate::sys::{self, RunDir};

/// Error of a run: a failed correctness gate or a broken environment.
pub type Res<T> = Result<T, String>;

/// Turn any displayable error into a [`Res`] error with context.
pub fn ctx<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Fail a correctness gate unless `ok`.
pub fn gate(ok: bool, what: impl FnOnce() -> String) -> Res<()> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness gate failed: {}", what()))
    }
}

/// The flush policy of every durable table in the benchmark. Sandbox
/// fsync times measure the host's disk and would bury every other layer.
pub const SYNC: SyncPolicy = SyncPolicy::NoSync;

/// Durable options: the engine defaults with the benchmark's flush policy.
pub fn persist_opts() -> PersistOptions {
    PersistOptions { sync: SYNC, ..PersistOptions::default() }
}

/// Rounds per run, at least. A round is a fixed amount of work (set-up,
/// timed phase, end phase, probe); repeating it spreads every metric's
/// samples over the run, so a slow or fast spell of the host does not
/// decide a median. `setup_s` is the median over rounds.
pub const MIN_ROUNDS: usize = 3;
/// Cold reopens per round; `recover_s` is their median.
pub const REOPENS: usize = 2;
/// Followers bootstrapped per round; `catchup_s` is their median.
pub const FOLLOWERS: usize = 2;

/// The end-to-end metrics of the result line, as in `BENCHMARK.json`.
/// The rest of [`Bench::end_to_end`] is printed on every run but not
/// gated: on a 2-vCPU host whose speed shifts in spells, their spread
/// across seeds exceeds any bound a regression gate can use (tails,
/// socket round trips, brief `CHECK FD` bursts, and the memory-bound
/// median modify, which `modify_p95_us` gates more steadily), or they
/// never leave 0 (`failed_ops_frac`, which `attempted`/`failed` carry).
pub const GATED: &[&str] = &[
    "setup_s",
    "ops_per_s",
    "peak_rss_mb",
    "insert_p50_us",
    "modify_p95_us",
    "designer_pass_p50_ms",
    "recover_s",
    "catchup_s",
    "disk_bytes_per_row",
];

/// Latency samples and attempt/failure counts per statement class.
#[derive(Debug, Default)]
pub struct Recorder {
    lat: BTreeMap<&'static str, Vec<f64>>,
    attempted: BTreeMap<&'static str, u64>,
    failed: BTreeMap<&'static str, u64>,
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Cold reopen times, seconds.
    pub recover_s: Vec<f64>,
    /// Follower catch-up times, seconds.
    pub catchup_s: Vec<f64>,
    /// Data-dir bytes per live row, one sample per round.
    pub disk_bytes_per_row: Vec<f64>,
    /// Statements per second of each round's timed phase.
    pub ops_per_s: Vec<f64>,
    /// Wall time of the timed phases, seconds.
    pub timed_secs: f64,
    /// CPU time of the process during the timed phases, seconds.
    pub timed_cpu_s: f64,
}

impl Recorder {
    /// Record one attempted statement of `class`: its latency, or a
    /// failure, which counts as missing every latency limit.
    pub fn record(&mut self, class: &'static str, latency: Option<f64>) {
        *self.attempted.entry(class).or_default() += 1;
        if latency.is_none() {
            *self.failed.entry(class).or_default() += 1;
        }
        self.lat.entry(class).or_default().push(latency.unwrap_or(f64::INFINITY));
    }

    /// Statements attempted and failed, over every class.
    pub fn totals(&self) -> (u64, u64) {
        (self.attempted.values().sum(), self.failed.values().sum())
    }

    fn samples(&self, class: &str) -> Res<&[f64]> {
        self.lat
            .get(class)
            .map(Vec::as_slice)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("no `{class}` statement was timed"))
    }
}

/// One metric of the result line, with how it was derived.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and percentile note for the human-readable report.
    pub note: String,
}

/// The run context.
pub struct Bench {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Per-process data directory, removed when the run ends.
    pub dir: RunDir,
    /// End-to-end samples.
    pub rec: Recorder,
    /// Per-layer tracing; `Some` only in the traced run.
    pub layers: Option<Layers>,
    /// Row counts for the header: `(table, base rows)`.
    pub rows: Vec<(String, usize)>,
    /// Index of the current round.
    pub round: usize,
    /// Statement time accumulated by the current designer pass, µs.
    pass_us: f64,
}

impl Bench {
    /// A run context for `workload`.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Res<Bench> {
        Ok(Bench {
            workload,
            seed,
            dir: ctx(RunDir::create(workload), "creating the run directory")?,
            rec: Recorder::default(),
            layers: traced.then(Layers::new),
            rows: Vec::new(),
            round: 0,
            pass_us: 0.0,
        })
    }

    /// Build the starting state in a fresh directory, timed as one
    /// `setup_s` sample. `build` gets the database directory.
    pub fn setup<T>(&mut self, build: impl FnOnce(&mut Bench, &Path) -> Res<T>) -> Res<T> {
        let dir = self.dir.fresh("db");
        let _ = std::fs::remove_dir_all(self.dir.fresh("followers"));
        let start = Instant::now();
        let state = build(self, &dir)?;
        self.rec.setup_s.push(start.elapsed().as_secs_f64());
        Ok(state)
    }

    /// Run the timed phase; `f` returns its result and the number of
    /// statements it completed.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Bench) -> Res<(T, u64)>) -> Res<T> {
        let cpu = sys::cpu_seconds();
        let start = Instant::now();
        let (out, stmts) = f(self)?;
        let secs = start.elapsed().as_secs_f64();
        self.rec.timed_secs += secs;
        self.rec.timed_cpu_s += sys::cpu_seconds() - cpu;
        self.rec.ops_per_s.push(stmts as f64 / secs);
        Ok(out)
    }

    /// Bootstrap the [`FOLLOWERS`] replicas of `table` over the directory
    /// transport (part of set-up).
    pub fn bootstrap_followers(&self, db_dir: &Path, table: &str) -> Res<Vec<Follower>> {
        (0..FOLLOWERS)
            .map(|i| {
                let dir = self.dir.fresh("followers").join(format!("f{i}"));
                let mut transport = DirTransport::new(db_dir.join(table));
                let replica = ctx(
                    ReplicaState::open_or_bootstrap(&dir, &mut transport, persist_opts()),
                    "bootstrapping a follower",
                )?;
                Ok(Follower { replica, transport })
            })
            .collect()
    }

    /// Execute one statement, timed under its latency class. In the
    /// traced run the statement also runs through the per-layer calls.
    pub fn exec(
        &mut self,
        engine: &mut DurableEngine,
        class: &'static str,
        sql: &str,
    ) -> Option<QueryResult> {
        let start = Instant::now();
        let result = match &mut self.layers {
            Some(layers) => layers.exec(engine, sql),
            None => engine.execute(sql),
        };
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.pass_us += us;
        match result {
            Ok(r) => {
                self.rec.record(class, Some(us));
                Some(r)
            }
            Err(e) => {
                eprintln!("statement failed: {sql}: {e}");
                self.rec.record(class, None);
                None
            }
        }
    }

    /// Execute a generated statement and check a point read's row.
    pub fn exec_stmt(&mut self, engine: &mut DurableEngine, stmt: &Stmt) -> Res<()> {
        let result = self.exec(engine, stmt.kind.class(), &stmt.sql);
        if let (Some(expect), Some(QueryResult::Rows(rel))) = (&stmt.expect, &result) {
            check_point_rows(rel, expect).map_err(|e| format!("correctness gate failed: {e}"))?;
        }
        Ok(())
    }

    /// The end of a round: data-dir size, then a cold reopen without a
    /// checkpoint ([`REOPENS`] times), then every follower's catch-up.
    /// Gates: the recovered engine's and each follower's state image
    /// equal the leader's. Returns the recovered engine.
    pub fn end_phase(
        &mut self,
        engine: DurableEngine,
        db_dir: &Path,
        table: &str,
        followers: &mut [Follower],
    ) -> Res<DurableEngine> {
        let (image, live_rows) = engine.with_database(|db| {
            let rows: usize = db.iter().map(|(_, t)| t.live().row_count()).sum();
            (db.get(table).map(|t| t.encode_current_snapshot()), rows)
        });
        let image = ctx(image, "leader image")?;
        self.rec.disk_bytes_per_row.push(sys::dir_bytes(db_dir) as f64 / live_rows as f64);
        drop(engine);

        let mut recovered = None;
        for _ in 0..REOPENS {
            drop(recovered.take());
            let start = Instant::now();
            let e = ctx(DurableEngine::open(db_dir, persist_opts()), "cold reopen")?;
            self.rec.recover_s.push(start.elapsed().as_secs_f64());
            recovered = Some(e);
        }
        let recovered = recovered.expect("REOPENS > 0");
        let got = recovered.with_database(|db| db.get(table).map(|t| t.encode_current_snapshot()));
        gate(ctx(got, "recovered image")? == image, || {
            format!("recovered `{table}` state differs from the leader's")
        })?;
        if let Some(layers) = &mut self.layers {
            layers.recovery(&recovered, table)?;
        }

        for f in followers.iter_mut() {
            let start = Instant::now();
            match &mut self.layers {
                None => {
                    ctx(f.replica.sync(&mut f.transport), "follower catch-up")?;
                }
                Some(layers) => recovered.with_database(|db| {
                    layers.catch_up(ctx(db.get(table), "leader table")?, &mut f.replica)
                })?,
            }
            self.rec.catchup_s.push(start.elapsed().as_secs_f64());
            gate(f.replica.table().encode_current_snapshot() == image, || {
                format!("follower of `{table}` did not converge to the leader's state")
            })?;
        }
        Ok(recovered)
    }

    /// The probe every workload ends with, so each end-to-end metric is
    /// measured on each workload: point reads and `SHOW FDS`, single-row
    /// INSERT/UPDATE/DELETE, then designer passes over `candidates`.
    /// Gates: every point read returns its model row; the live row count
    /// equals the model's; tracker measures equal a batch validation.
    pub fn probe(
        &mut self,
        engine: &mut DurableEngine,
        model: &mut Model,
        candidates: &[String],
        probe: Probe,
    ) -> Res<()> {
        let table = model.name();
        let mut rng = Rng::new(self.seed, 0x9b0be);
        // The probe runs against a live advisor, as every set-up does; a
        // reopened engine materialises it on first use.
        let sql = format!("SUGGEST REPAIRS FOR {table} LIMIT 1");
        ctx(engine.execute(&sql), &sql)?;
        // Reads, inserts and modifies interleave evenly, so the short
        // statements are spread over the long ones instead of landing in
        // one brief spell of the host's shifting speed.
        let counts = [
            if probe.reads { PROBE_READS } else { 0 },
            if probe.inserts { PROBE_INSERTS } else { 0 },
            if probe.modifies { PROBE_MODIFIES } else { 0 },
        ];
        let mut done = [0usize; 3];
        let mut stmts = Vec::new();
        for _ in 0..counts.iter().sum() {
            let k = (0..3)
                .filter(|&k| done[k] < counts[k])
                .min_by_key(|&k| (done[k] + 1) * 1_000_000 / counts[k])
                .expect("statements left");
            stmts.push(match k {
                0 if done[0] % 10 == 9 => {
                    Stmt { kind: Kind::ShowFds, sql: format!("SHOW FDS FOR {table}"), expect: None }
                }
                0 => model.point(model.random_key(&mut rng)),
                1 => model.insert(&mut rng, 0.02),
                _ if done[2] % 2 == 0 => model.update(&mut rng),
                _ => model.delete(&mut rng),
            });
            done[k] += 1;
        }
        if let Some(layers) = &mut self.layers {
            layers.fork(engine, table, &self.dir)?;
        }
        for stmt in &stmts {
            self.exec_stmt(engine, stmt)?;
        }
        if probe.inserts || probe.modifies {
            self.check_table(engine, model)?;
        }
        if let Some(layers) = &mut self.layers {
            layers.verify_and_unfork(engine, table)?;
        }
        for _ in 0..probe.designer_passes {
            self.designer_pass(engine, &[(table.to_string(), candidates.to_vec())], false)?;
        }
        Ok(())
    }

    /// In the traced run, the server layers: serve the engine and read
    /// through one client session. The engine is dropped afterwards.
    pub fn served_probe(&mut self, engine: DurableEngine, model: &Model) -> Res<()> {
        if let Some(layers) = &mut self.layers {
            let mut rng = Rng::new(self.seed, 0x5e77e);
            layers.served_probe(engine, model, &mut rng)?;
        }
        Ok(())
    }

    /// Gates on a table after DML: the live row count equals the model's
    /// and every tracked FD's maintained measures equal
    /// `evofd_core::validate` over the canonical relation.
    pub fn check_table(&self, engine: &DurableEngine, model: &Model) -> Res<()> {
        let table = model.name();
        engine.with_database(|db| {
            let t = ctx(db.get(table), "table")?;
            gate(t.live().row_count() == model.len(), || {
                format!("`{table}` holds {} rows, expected {}", t.live().row_count(), model.len())
            })?;
            let canonical = ctx(db.canonical(table), "canonical")?;
            let report = evofd_core::validate(&canonical, t.validator().fds());
            for (i, status) in report.statuses.iter().enumerate() {
                gate(status.measures == t.validator().measures(i), || {
                    format!(
                        "tracker of `{}` on `{table}` drifted from batch validation",
                        status.fd.display(canonical.schema())
                    )
                })?;
            }
            Ok(())
        })
    }

    /// One pass of the paper's designer loop over each `(table,
    /// candidates)`; its time, the sum of its statement latencies (the
    /// gates run outside it), is one `designer_pass` sample.
    pub fn designer_pass(
        &mut self,
        engine: &mut DurableEngine,
        tables: &[(String, Vec<String>)],
        oracle: bool,
    ) -> Res<()> {
        self.pass_us = 0.0;
        for (table, candidates) in tables {
            self.designer_table(engine, table, candidates, oracle)?;
        }
        self.rec.lat.entry("designer_pass").or_default().push(self.pass_us / 1000.0);
        Ok(())
    }

    /// The designer loop over one table:
    /// `CHECK FD` over `candidates`; `ADD CONSTRAINT FD` for the violated
    /// ones not yet tracked; `SUGGEST REPAIRS`; `ACCEPT REPAIR 1` per
    /// violated FD; `DROP CONSTRAINT` of the evolved FDs, so the next pass
    /// rebuilds from scratch.
    ///
    /// Gates: `CHECK FD` confidence and goodness equal values recomputed
    /// with `count_distinct_naive`; with `oracle`, the `SUGGEST REPAIRS`
    /// rows equal a fresh `AdvisorSession::analyze`.
    fn designer_table(
        &mut self,
        engine: &mut DurableEngine,
        table: &str,
        candidates: &[String],
        oracle: bool,
    ) -> Res<()> {
        let canonical = engine.with_database(|db| db.canonical(table));
        let canonical = ctx(canonical, "canonical")?;
        let tracked = |engine: &DurableEngine| -> Vec<String> {
            engine.with_database(|db| {
                db.get(table)
                    .map(|t| {
                        t.validator().fds().iter().map(|f| f.display(t.live().schema())).collect()
                    })
                    .unwrap_or_default()
            })
        };

        let mut violated = Vec::new();
        for fd in candidates {
            let sql = format!("CHECK FD '{fd}' ON {table}");
            let Some(result) = self.exec(engine, "check_fd", &sql) else { continue };
            let (confidence, goodness) = check_fd_row(result)?;
            if let Some(layers) = &mut self.layers {
                layers.measures(&canonical, fd)?;
            }
            let parsed = ctx(Fd::parse(canonical.schema(), fd), "candidate FD")?;
            let (x, xy, y) = (
                count_distinct_naive(&canonical, parsed.lhs()),
                count_distinct_naive(&canonical, &parsed.attrs()),
                count_distinct_naive(&canonical, parsed.rhs()),
            );
            let want_conf = if xy == 0 { 1.0 } else { x as f64 / xy as f64 };
            gate(confidence == want_conf && goodness == x as i64 - y as i64, || {
                format!(
                    "CHECK FD '{fd}' ON {table} gave ({confidence}, {goodness}), \
                     the naive count gives ({want_conf}, {})",
                    x as i64 - y as i64
                )
            })?;
            if x != xy {
                violated.push(parsed.display(canonical.schema()));
            }
        }
        let already = tracked(engine);
        for fd in violated.iter().filter(|fd| !already.contains(fd)) {
            self.exec(engine, "designer", &format!("ALTER TABLE {table} ADD CONSTRAINT FD '{fd}'"));
        }

        if let Some(layers) = &mut self.layers {
            layers.advisor_layers(engine, table)?;
        }
        let expected = if oracle || self.layers.is_some() {
            let fds: Vec<Fd> = tracked(engine)
                .iter()
                .map(|f| ctx(Fd::parse(canonical.schema(), f), "tracked FD"))
                .collect::<Res<_>>()?;
            Some(analyze_rows(&canonical, fds, self.layers.as_mut())?)
        } else {
            None
        };
        let sql = format!("SUGGEST REPAIRS FOR {table} LIMIT 1000000");
        let Some(result) = self.exec(engine, "designer", &sql) else {
            return Err(format!("`{sql}` failed"));
        };
        let rows = ctx(result.into_rows(), "SUGGEST REPAIRS result")?;
        let mut first: Vec<(String, String)> = Vec::new();
        let mut got = Vec::new();
        for r in 0..rows.row_count() {
            let row = rows.row(r);
            let cell = |i: usize| row[i].to_string();
            got.push((cell(1), cell(2), cell(3)));
            if cell(2) == "1" {
                first.push((cell(1), cell(3)));
            }
        }
        if let Some(expected) = expected {
            gate(got == expected, || {
                format!(
                    "SUGGEST REPAIRS FOR {table} returned {} proposals that differ from a \
                     fresh AdvisorSession::analyze ({} proposals)",
                    got.len(),
                    expected.len()
                )
            })?;
        }
        for (fd, evolved) in &first {
            let accept = format!("ACCEPT REPAIR 1 FOR '{fd}' ON {table}");
            if self.exec(engine, "designer", &accept).is_some() {
                let drop = format!("ALTER TABLE {table} DROP CONSTRAINT FD '{evolved}'");
                self.exec(engine, "designer", &drop);
            }
        }
        Ok(())
    }

    /// The end-to-end metrics of an untraced run, in `BENCHMARK.json`
    /// order.
    pub fn end_to_end(&self) -> Res<Vec<Metric>> {
        let r = &self.rec;
        let plain = |name: &str, values: &[f64], unit: &'static str| -> Res<Metric> {
            if values.is_empty() {
                return Err(format!("no sample for {name}"));
            }
            Ok(Metric {
                name: name.into(),
                value: median(values),
                unit,
                note: format!("median of n={}", values.len()),
            })
        };
        let mut out = vec![
            plain("setup_s", &r.setup_s, "s")?,
            plain("ops_per_s", &r.ops_per_s, "1/s")?,
            plain("peak_rss_mb", &[sys::peak_rss_mb()], "MiB")?,
        ];
        for (class, nominal) in [("insert", 99.0), ("modify", 95.0), ("read", 99.0)] {
            let s = r.samples(class)?;
            let t = tail(s, nominal);
            out.push(plain(&format!("{class}_p50_us"), s, "us")?);
            out.push(Metric {
                name: format!("{class}_p{nominal}_us"),
                value: t.value,
                unit: "us",
                note: format!("p{:.2} of n={} with {} beyond", t.pct, t.n, t.beyond),
            });
        }
        out.push(plain("check_fd_p50_us", r.samples("check_fd")?, "us")?);
        out.push(plain("designer_pass_p50_ms", r.samples("designer_pass")?, "ms")?);
        out.push(plain("recover_s", &r.recover_s, "s")?);
        out.push(plain("catchup_s", &r.catchup_s, "s")?);
        out.push(plain("disk_bytes_per_row", &r.disk_bytes_per_row, "B")?);
        let (attempted, failed) = r.totals();
        out.push(Metric {
            name: "failed_ops_frac".into(),
            value: failed as f64 / attempted.max(1) as f64,
            unit: "ratio",
            note: format!("{failed} of {attempted} statements"),
        });
        Ok(out)
    }

    /// Print the common header line.
    pub fn header(&self, traced: bool) {
        let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // Every round records the same tables; report each once.
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<String> = self
            .rows
            .iter()
            .filter(|(t, _)| seen.insert(t))
            .map(|(t, n)| format!("\"{t}\": {n}"))
            .collect();
        println!(
            "# header {{\"bench\": \"evobench/{}\", \"available_parallelism\": {parallelism}, \
             \"git_revision\": \"{}\", \"seed\": {}, \"rows\": {{{}}}, \"sync\": \"{SYNC}\", \
             \"traced\": {traced}}}",
            self.workload,
            git_revision(),
            self.seed,
            rows.join(", "),
        );
    }

    /// Print the attempted/failed accounting per statement class.
    pub fn print_accounting(&self) {
        for (class, attempted) in &self.rec.attempted {
            let failed = self.rec.failed.get(class).copied().unwrap_or(0);
            println!("# {class}: attempted {attempted}, failed {failed}");
        }
    }
}

/// Reads per probe (every tenth is `SHOW FDS`, the rest point reads).
pub const PROBE_READS: usize = 110;
/// Single-row INSERTs per probe: 25 between consecutive modifies, so most
/// run warm while together they span the modifies' seconds.
pub const PROBE_INSERTS: usize = 1000;
/// Single-row UPDATE/DELETEs per probe (half each).
pub const PROBE_MODIFIES: usize = 40;

/// Which statement classes a workload's probe measures: those its timed
/// phase does not, so that each metric of a workload comes from one
/// phase and every metric is measured on every workload.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Point reads and `SHOW FDS`.
    pub reads: bool,
    /// Single-row INSERTs.
    pub inserts: bool,
    /// Single-row UPDATE and DELETE by key.
    pub modifies: bool,
    /// Designer passes (`CHECK FD` included).
    pub designer_passes: usize,
}

/// A follower replica and the transport it tails its leader through.
pub struct Follower {
    /// The replica.
    pub replica: ReplicaState,
    /// Directory transport over the leader's table directory.
    pub transport: DirTransport,
}

/// `(confidence, goodness)` of a `CHECK FD` result row.
fn check_fd_row(result: QueryResult) -> Res<(f64, i64)> {
    let rel = ctx(result.into_rows(), "CHECK FD result")?;
    let row = rel.row(0);
    match (&row[1], &row[2]) {
        (Value::Float(c), Value::Int(g)) => Ok((*c, *g)),
        other => Err(format!("unexpected CHECK FD row {other:?}")),
    }
}

/// `(fd, rank, evolved)` rows of a fresh batch analysis: what
/// `SUGGEST REPAIRS` must return.
fn analyze_rows(
    rel: &Relation,
    fds: Vec<Fd>,
    layers: Option<&mut Layers>,
) -> Res<Vec<(String, String, String)>> {
    let session = match layers {
        Some(l) => l.analyze(rel, fds)?,
        None => {
            let mut session = AdvisorSession::new(rel, fds);
            ctx(session.analyze(), "AdvisorSession::analyze")?;
            session
        }
    };
    let schema = rel.schema();
    let mut rows = Vec::new();
    for i in session.pending() {
        let fd = session.fds()[i].display(schema);
        for (rank, p) in ctx(session.proposals(i), "proposals")?.iter().enumerate() {
            rows.push((fd.clone(), (rank + 1).to_string(), p.fd.display(schema)));
        }
    }
    Ok(rows)
}

/// The repository's git revision, read from `.git` when the benchmark
/// runs inside a clone; `unknown` otherwise.
fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}
