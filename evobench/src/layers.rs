//! The traced run: spans around each layer's public calls, made from the
//! benchmark's own code, plus shadow copies of a table's layers that
//! replay the engine's own journaled deltas.
//!
//! A *fork* takes the leader table's current state image and builds:
//!
//! * a shadow [`DurableRelation`] (bootstrapped from the image) whose
//!   `apply` is timed whole (`store.apply`);
//! * a decomposed pipeline — [`WalWriter`], [`LiveRelation`],
//!   [`IncrementalValidator`], [`LiveAdvisor`], [`AlertState`],
//!   [`HistoryWriter`] — that repeats what `DurableRelation::apply` does,
//!   one timed call per layer;
//! * an in-memory SQL engine over the canonical rows (`sql.exec_mem`).
//!
//! Every DML statement's WAL records are read back from the leader's log
//! and fed to both shadows, so at the end their state image must equal
//! the engine's byte for byte — the shadow-state gate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use evofd_core::{AdvisorSession, Fd, Measures};
use evofd_incremental::{Delta, IncrementalValidator, LiveAdvisor, LiveFdState, LiveRelation};
use evofd_persist::snapshot::{decode_snapshot, encode_snapshot};
use evofd_persist::{
    read_snapshot, scan_wal, write_snapshot, AlertState, DriftEntry, DurableEngine,
    DurableRelation, FdSample, HistoryFrame, HistoryWriter, ReplicaState, Shipment, WalRecord,
    WalWriter, HISTORY_FILE, WAL_FILE,
};
use evofd_server::proto::{Request, Response};
use evofd_server::{Client, EvofdServer, ServerOptions};
use evofd_sql::{Engine, QueryResult, Statement};
use evofd_storage::{count_distinct, DistinctCache, Relation};

use crate::bench::{ctx, gate, persist_opts, Res, SYNC};
use crate::data::{check_point_render, Model, Rng};
use crate::stats::median;
use crate::sys::{self, RunDir};
use crate::trace::Tracer;

/// `(span name, metric name, unit)` of every timed layer call. A span's
/// metric is its p50 per call; `<span>.self_ms` is its total self time.
pub const TIMED: &[(&str, &str, &str)] = &[
    ("sql.parse", "sql.parse_us", "us"),
    ("sql.exec_mem", "sql.exec_mem_us", "us"),
    ("engine.execute", "engine.execute_us", "us"),
    ("engine.translate", "engine.translate_us", "us"),
    ("store.apply", "store.apply_us", "us"),
    ("store.checkpoint", "store.checkpoint_ms", "ms"),
    ("wal.append", "wal.append_us", "us"),
    ("live.apply", "live.apply_us", "us"),
    ("trackers.apply", "trackers.apply_us", "us"),
    ("trackers.g3", "trackers.g3_us", "us"),
    ("trackers.build", "trackers.build_ms", "ms"),
    ("advisor.apply", "advisor.apply_us", "us"),
    ("advisor.build", "advisor.build_ms", "ms"),
    ("measures.compute", "measures.compute_us", "us"),
    ("distinct.count", "distinct.count_us", "us"),
    ("core.analyze", "core.analyze_ms", "ms"),
    ("history.append", "history.append_us", "us"),
    ("alert.evaluate", "alert.evaluate_us", "us"),
    ("snapshot.write", "snapshot.write_ms", "ms"),
    ("snapshot.read", "snapshot.read_ms", "ms"),
    ("recovery.wal_scan", "recovery.wal_scan_ms", "ms"),
    ("replication.ship", "replication.ship_ms", "ms"),
    ("replication.apply_frame", "replication.apply_frame_us", "us"),
    ("server.roundtrip", "server.roundtrip_us", "us"),
    ("server.proto", "server.proto_us", "us"),
];

/// `(metric name, unit)` of every per-layer count or ratio.
pub const COUNTS: &[(&str, &str)] = &[
    ("sql.index_probe_frac", "ratio"),
    ("store.checkpoints", "count"),
    ("wal.bytes_per_stmt", "B"),
    ("live.compactions", "count"),
    ("advisor.resync_frac", "ratio"),
    ("advisor.rss_mb", "MiB"),
    ("repair.nodes_built", "count"),
    ("repair.useful_frac", "ratio"),
    ("distinct.calls", "count"),
    ("history.bytes_per_stmt", "B"),
    ("snapshot.bytes", "B"),
    ("recovery.replayed", "count"),
    ("replication.frames", "count"),
    ("replication.bytes", "B"),
    ("server.bytes_per_op", "B"),
    ("proc.cpu_busy_frac", "ratio"),
];

/// Per-layer state of a traced run.
pub struct Layers {
    /// Recorded spans.
    pub tracer: Tracer,
    counts: BTreeMap<&'static str, f64>,
    shadow: Option<Shadow>,
    stmt: u64,
    dml_stmts: u64,
    wal_bytes: u64,
    history_bytes: u64,
    explained: u64,
    probed: u64,
    proto_bytes: u64,
    proto_ops: u64,
}

impl Default for Layers {
    fn default() -> Self {
        Layers::new()
    }
}

impl Layers {
    /// Empty per-layer state.
    pub fn new() -> Layers {
        Layers {
            tracer: Tracer::new(),
            counts: COUNTS.iter().map(|&(name, _)| (name, 0.0)).collect(),
            shadow: None,
            stmt: 0,
            dml_stmts: 0,
            wal_bytes: 0,
            history_bytes: 0,
            explained: 0,
            probed: 0,
            proto_bytes: 0,
            proto_ops: 0,
        }
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.get_mut(name).expect("declared count") += v;
    }

    /// Set a count or ratio outright.
    fn set(&mut self, name: &'static str, v: f64) {
        *self.counts.get_mut(name).expect("declared count") = v;
    }

    /// Execute one statement through the per-layer calls: parse, the
    /// in-memory copy (while forked), the durable engine, then — for DML
    /// — the shadow layers on the records the engine journaled.
    pub fn exec(
        &mut self,
        engine: &mut DurableEngine,
        sql: &str,
    ) -> evofd_sql::Result<QueryResult> {
        self.stmt += 1;
        self.tracer.set_stmt(self.stmt);
        if sql.starts_with("SELECT") {
            if let Err(e) = self.explain(engine, sql) {
                return Err(evofd_sql::SqlError::Backend { message: e });
            }
        }
        self.tracer.open("stmt");
        let parsed = self.tracer.span("sql.parse", || evofd_sql::parse(sql));
        let dml = matches!(
            parsed,
            Ok(Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. })
        );
        if let Some(shadow) = &mut self.shadow {
            let mem = &mut shadow.mem;
            // The copy's outcome is compared through the shadow gate.
            let _ = self.tracer.span("sql.exec_mem", || mem.execute(sql));
        }
        let before = match &self.shadow {
            Some(s) if dml => {
                engine.with_database(|db| db.get(&s.table).map(|t| t.last_seq()).ok())
            }
            _ => None,
        };
        let result = self.tracer.span("engine.execute", || engine.execute(sql));
        if let (Some(before), Ok(_)) = (before, &result) {
            if let Err(e) = self.mirror(engine, before) {
                self.tracer.close();
                return Err(evofd_sql::SqlError::Backend { message: e });
            }
        }
        self.tracer.close();
        result
    }

    /// Feed the records the leader journaled after `before` to the
    /// shadows. If a checkpoint took them out of the log, re-fork.
    fn mirror(&mut self, engine: &DurableEngine, before: u64) -> Res<()> {
        let shadow = self.shadow.as_mut().expect("forked");
        let wal = engine.with_database(|db| db.get(&shadow.table).map(|t| t.dir().join(WAL_FILE)));
        let scan = ctx(scan_wal(&ctx(wal, "leader table")?), "reading the leader WAL")?;
        let records: Vec<WalRecord> =
            scan.records.into_iter().filter(|r| r.seq() > before).collect();
        if records.first().map(WalRecord::seq) != Some(before + 1) {
            let table = shadow.table.clone();
            let dir = shadow.dir.clone();
            self.shadow = None;
            return self.fork_into(engine, &table, dir);
        }
        self.dml_stmts += 1;
        for record in records {
            match record {
                WalRecord::Delta { seq, inserts, deletes, .. } => {
                    let delta = Delta {
                        inserts,
                        deletes: deletes.into_iter().map(|d| d as usize).collect(),
                    };
                    self.apply_delta(seq, &delta)?;
                }
                // Compaction follows from the delta; both shadows compact
                // on their own, exactly as the leader's apply does.
                WalRecord::Compact { .. } => {}
                other => return Err(format!("unexpected WAL record after DML: {other:?}")),
            }
        }
        Ok(())
    }

    /// One journaled delta through both shadows.
    fn apply_delta(&mut self, seq: u64, delta: &Delta) -> Res<()> {
        let t = &mut self.tracer;
        let s = self.shadow.as_mut().expect("forked");
        let p = &mut s.pipeline;
        let ids: Vec<usize> = t.span("engine.translate", || p.live.live_rows().collect());
        std::hint::black_box(ids);
        let snapshot_seq = s.store.snapshot_seq();
        ctx(t.span("store.apply", || s.store.apply(delta)), "shadow store apply")?;
        if s.store.snapshot_seq() != snapshot_seq {
            *self.counts.get_mut("store.checkpoints").expect("declared") += 1.0;
        }

        let wal_before = p.wal.bytes();
        let record = WalRecord::Delta {
            seq,
            epoch_after: p.live.epoch() + 1,
            cursor: None,
            inserts: delta.inserts.clone(),
            deletes: delta.deletes.iter().map(|&d| d as u64).collect(),
        };
        ctx(t.span("wal.append", || p.wal.append(&record)), "shadow WAL append")?;
        self.wal_bytes += p.wal.bytes() - wal_before;
        let applied = ctx(t.span("live.apply", || p.live.apply(delta)), "shadow live apply")?;
        let drift = t.span("trackers.apply", || p.validator.apply_at(&p.live, &applied, seq));
        if let Some(advisor) = &mut p.advisor {
            t.span("advisor.apply", || advisor.apply(&p.live, &p.validator, &applied));
        }
        // History sampling at the default stride 1: every delta.
        let schema = p.live.schema();
        let samples: Vec<FdSample> = t.span("trackers.g3", || {
            p.validator
                .fds()
                .iter()
                .enumerate()
                .map(|(i, fd)| FdSample {
                    fd: fd.display(schema),
                    confidence: p.validator.measures(i).confidence,
                    g3: p.validator.g3(i),
                    violating_groups: p.validator.summary(i).violating_groups as u64,
                    violated: !p.validator.is_exact(i),
                })
                .collect()
        });
        let transitions = t.span("alert.evaluate", || {
            p.alerts.evaluate(|fd| {
                samples
                    .iter()
                    .find(|s| s.fd == fd)
                    .map(|s| (s.confidence, s.g3, s.violating_groups))
            })
        });
        let frame = HistoryFrame {
            epoch: p.live.epoch(),
            seq,
            rows: p.live.row_count() as u64,
            samples,
            drifts: drift
                .iter()
                .map(|d| DriftEntry {
                    fd: d.fd.display(schema),
                    kind: format!("{:?}", d.kind),
                    confidence_before: d.confidence_before,
                    confidence_after: d.confidence_after,
                    groups: d.groups.clone(),
                })
                .collect(),
            alerts: transitions
                .iter()
                .map(|x| evofd_persist::AlertEntry {
                    rule: x.rule.clone(),
                    fd: x.fd.clone(),
                    fired: x.fired,
                })
                .collect(),
        };
        if !frame.is_empty() && frame.epoch > p.history.last_epoch() {
            let history_before = file_len(&p.history_path);
            ctx(t.span("history.append", || p.history.append(&frame)), "shadow history")?;
            self.history_bytes += file_len(&p.history_path) - history_before;
        }
        p.seq = seq;
        if p.live.maybe_compact() > 0 {
            p.validator.resync(&p.live);
            if let Some(advisor) = &mut p.advisor {
                advisor.resync(&p.live, &p.validator);
            }
            p.seq += 1;
            let record = WalRecord::Compact { seq: p.seq, epoch_after: p.live.epoch() };
            ctx(p.wal.append(&record), "shadow WAL compact record")?;
            *self.counts.get_mut("live.compactions").expect("declared") += 1.0;
        }
        Ok(())
    }

    /// Fork shadows of `table` from the engine's current state (no-op if
    /// already forked).
    pub fn fork(&mut self, engine: &DurableEngine, table: &str, dir: &RunDir) -> Res<()> {
        if self.shadow.is_some() {
            return Ok(());
        }
        self.fork_into(engine, table, dir.fresh("shadow"))
    }

    fn fork_into(&mut self, engine: &DurableEngine, table: &str, dir: PathBuf) -> Res<()> {
        let _ = std::fs::remove_dir_all(&dir);
        let got = engine.with_database(|db| {
            db.get(table)
                .map(|t| (t.encode_current_snapshot(), t.history_bytes(), t.advisor().is_some()))
        });
        let (image, history, has_advisor) = ctx(got, "fork source")?;
        let store_dir = dir.join("store");
        let mut store = ctx(
            ReplicaState::bootstrap_from(&store_dir, &image, &history, persist_opts()),
            "bootstrapping the shadow store",
        )?
        .into_table();
        if has_advisor {
            ctx(store.ensure_advisor(), "shadow store advisor")?;
        }

        let pipe_dir = dir.join("pipeline");
        ctx(std::fs::create_dir_all(&pipe_dir), "shadow pipeline dir")?;
        let state = ctx(decode_snapshot(&pipe_dir.join("image"), &image), "decoding the image")?;
        let live = state.live;
        let validator = ctx(
            IncrementalValidator::from_tracker_snapshots(
                &live,
                state.fds,
                state.config,
                &state.trackers,
            ),
            "shadow validator",
        )?;
        let advisor = if has_advisor {
            let mut advisor = LiveAdvisor::new(&live, &validator);
            for d in &state.decisions {
                ctx(advisor.restore(d), "restoring a decision")?;
            }
            Some(advisor)
        } else {
            None
        };
        let history_path = pipe_dir.join(HISTORY_FILE);
        ctx(std::fs::write(&history_path, &history), "shadow history")?;
        let mut mem = ctx(evofd_sql::engine_with([live.snapshot()]), "in-memory copy")?;
        for column in &state.indexed_columns {
            ctx(mem.execute(&format!("CREATE INDEX ON {table} ({column})")), "copy index")?;
        }
        let pipeline = Pipeline {
            wal: ctx(WalWriter::create(&pipe_dir.join(WAL_FILE), SYNC), "shadow WAL")?,
            history: ctx(HistoryWriter::open(&history_path), "shadow history writer")?,
            history_path,
            live,
            validator,
            advisor,
            alerts: state.alerts,
            decisions: state.decisions,
            indexed_columns: state.indexed_columns,
            cursor: state.cursor,
            seq: state.last_seq,
        };
        self.shadow = Some(Shadow { table: table.to_string(), dir, store, pipeline, mem });
        Ok(())
    }

    /// The shadow-state gate: the shadow store's and the decomposed
    /// pipeline's state images equal the engine's, and the pipeline's
    /// tracker measures equal the engine's. Then time a checkpoint and a
    /// snapshot write/read of the shadow state, and drop the shadows.
    pub fn verify_and_unfork(&mut self, engine: &DurableEngine, table: &str) -> Res<()> {
        let Some(mut s) = self.shadow.take() else { return Ok(()) };
        let got = engine.with_database(|db| {
            db.get(table).map(|t| {
                let v = t.validator();
                (t.encode_current_snapshot(), (0..v.fds().len()).map(|i| v.measures(i)).collect())
            })
        });
        let (image, measures): (Vec<u8>, Vec<Measures>) = ctx(got, "engine state")?;
        gate(s.store.encode_current_snapshot() == image, || {
            format!("shadow store of `{table}` diverged from the engine")
        })?;
        let p = &s.pipeline;
        let pipe_image = encode_snapshot(
            &p.live,
            &p.validator,
            &p.decisions,
            &p.indexed_columns,
            &p.alerts,
            p.seq,
            p.cursor,
        );
        gate(pipe_image == image, || format!("shadow pipeline of `{table}` diverged"))?;
        let pipe_measures: Vec<Measures> =
            (0..p.validator.fds().len()).map(|i| p.validator.measures(i)).collect();
        gate(pipe_measures == measures, || format!("shadow tracker measures of `{table}` differ"))?;
        let mem_rows = ctx(s.mem.query(&format!("SELECT COUNT(*) FROM {table}")), "copy count")?;
        gate(mem_rows.row(0)[0].to_string() == p.live.row_count().to_string(), || {
            format!("in-memory copy of `{table}` diverged")
        })?;

        let t = &mut self.tracer;
        ctx(t.span("store.checkpoint", || s.store.checkpoint()), "shadow checkpoint")?;
        let path = s.dir.join("image.bin");
        ctx(
            t.span("snapshot.write", || {
                write_snapshot(
                    &path,
                    &p.live,
                    &p.validator,
                    &p.decisions,
                    &p.indexed_columns,
                    &p.alerts,
                    p.seq,
                    p.cursor,
                )
            }),
            "snapshot write",
        )?;
        let read = ctx(t.span("snapshot.read", || read_snapshot(&path)), "snapshot read")?;
        gate(read.last_seq == p.seq, || "snapshot read back a different position".into())?;
        self.set("snapshot.bytes", file_len(&path) as f64);
        let stats = p.advisor.as_ref().map(LiveAdvisor::stats).unwrap_or_default();
        self.set("advisor.resync_frac", stats.full_resyncs as f64 / stats.deltas.max(1) as f64);
        let _ = std::fs::remove_dir_all(&s.dir);
        Ok(())
    }

    /// Recovery layers on the reopened engine: WAL scan time and records
    /// replayed.
    pub fn recovery(&mut self, engine: &DurableEngine, table: &str) -> Res<()> {
        let got = engine.with_database(|db| {
            let replayed: usize = db.iter().map(|(_, t)| t.recovery().replayed).sum();
            db.get(table).map(|t| (t.dir().join(WAL_FILE), replayed))
        });
        let (wal, replayed) = ctx(got, "recovered table")?;
        let scan = ctx(self.tracer.span("recovery.wal_scan", || scan_wal(&wal)), "WAL scan")?;
        std::hint::black_box(scan);
        self.set("recovery.replayed", replayed as f64);
        Ok(())
    }

    /// Follower catch-up through the replication calls: one shipment
    /// from the leader, then every frame applied. A follower behind the
    /// shipping horizon installs the shipped image instead.
    pub fn catch_up(&mut self, leader: &DurableRelation, replica: &mut ReplicaState) -> Res<()> {
        let t = &mut self.tracer;
        let shipment =
            ctx(t.span("replication.ship", || leader.ship_from(replica.last_seq())), "ship")?;
        match shipment {
            Shipment::Frames(frames) => {
                self.counts.insert("replication.frames", frames.len() as f64);
                let bytes: usize = frames.iter().map(Vec::len).sum();
                self.counts.insert("replication.bytes", bytes as f64);
                for frame in &frames {
                    ctx(t.span("replication.apply_frame", || replica.apply_frame(frame)), "frame")?;
                }
            }
            Shipment::Bootstrap { snapshot, .. } => {
                ctx(replica.install_snapshot(&snapshot), "install snapshot")?;
            }
        }
        Ok(())
    }

    /// `CHECK FD` layers over the canonical relation: `Measures::compute`
    /// and the three `count_distinct` calls behind it.
    pub fn measures(&mut self, rel: &Relation, fd: &str) -> Res<()> {
        let fd = ctx(Fd::parse(rel.schema(), fd), "candidate FD")?;
        let t = &mut self.tracer;
        let m =
            t.span("measures.compute", || Measures::compute(rel, &fd, &mut DistinctCache::new()));
        let counts: Vec<usize> = [fd.lhs().clone(), fd.attrs(), fd.rhs().clone()]
            .iter()
            .map(|attrs| t.span("distinct.count", || count_distinct(rel, attrs)))
            .collect();
        self.add("distinct.calls", 3.0);
        gate(counts == [m.distinct_lhs, m.distinct_lhs_rhs, m.distinct_rhs], || {
            "count_distinct disagrees with Measures::compute".into()
        })
    }

    /// Advisor layers on a table: a from-scratch tracker build, an
    /// advisor build (with its resident-memory growth) and the repair
    /// lattice's work counters.
    pub fn advisor_layers(&mut self, engine: &DurableEngine, table: &str) -> Res<()> {
        let t = &mut self.tracer;
        let (nodes, proposals, rss) = engine.with_database(|db| -> Res<(u64, usize, f64)> {
            let dt = ctx(db.get(table), "table")?;
            let fds: Vec<Fd> = dt.validator().fds().to_vec();
            let v = t.span("trackers.build", || IncrementalValidator::new(dt.live(), fds));
            drop(v);
            let heap = sys::HeapCounter::start();
            let advisor = ctx(t.span("advisor.build", || dt.build_advisor()), "advisor build")?;
            let rss = heap.stop_mb();
            let (mut nodes, mut proposals) = (0, 0);
            for i in 0..advisor.fds().len() {
                if let Ok(LiveFdState::Violated { index }) = advisor.state(i) {
                    nodes += index.node_count() as u64;
                    proposals += advisor.proposals(i).map(<[_]>::len).unwrap_or(0);
                }
            }
            Ok((nodes, proposals, rss))
        })?;
        self.add("repair.nodes_built", nodes as f64);
        self.set("repair.useful_frac", proposals as f64 / nodes.max(1) as f64);
        self.set("advisor.rss_mb", self.counts["advisor.rss_mb"].max(rss));
        Ok(())
    }

    /// A fresh batch analysis of `fds` over `rel`, timed.
    pub fn analyze<'r>(&mut self, rel: &'r Relation, fds: Vec<Fd>) -> Res<AdvisorSession<'r>> {
        let mut session = AdvisorSession::new(rel, fds);
        ctx(self.tracer.span("core.analyze", || session.analyze()), "AdvisorSession::analyze")?;
        Ok(session)
    }

    /// The server layers for workloads that do not serve: the engine is
    /// served on loopback and point reads run over one client session,
    /// timing the round trip and the protocol encode/decode. Returns the
    /// engine.
    pub fn served_probe(
        &mut self,
        engine: DurableEngine,
        model: &Model,
        rng: &mut Rng,
    ) -> Res<DurableEngine> {
        let mut server = ctx(
            EvofdServer::start(engine, "127.0.0.1:0", ServerOptions::default()),
            "starting the server",
        )?;
        let result = (|| -> Res<()> {
            let mut client = ctx(Client::connect(&server.addr().to_string(), "probe"), "connect")?;
            for _ in 0..SERVED_PROBE_READS {
                let stmt = model.point(model.random_key(rng));
                let text = ctx(self.roundtrip(&mut client, &stmt.sql), "served read")?;
                check_point_render(&text, stmt.expect.as_deref().unwrap_or_default())
                    .map_err(|e| format!("correctness gate failed: {e}"))?;
            }
            Ok(())
        })();
        server.shutdown();
        let engine = server.try_into_engine().ok_or("the server kept the engine")?;
        result.map(|()| engine)
    }

    /// One `Client::sql` round trip, plus the protocol encode/decode of
    /// the same request and response.
    fn roundtrip(&mut self, client: &mut Client, sql: &str) -> Result<String, String> {
        let text =
            self.tracer.span("server.roundtrip", || client.sql(sql)).map_err(|e| e.to_string())?;
        let bytes = self.tracer.span("server.proto", || {
            let req = Request::Sql { sql: sql.to_string() }.encode();
            let resp = Response::Sql { text: text.clone() }.encode();
            let ok = Request::decode(&req).is_ok() && Response::decode(&resp).is_ok();
            ok.then_some(req.len() + resp.len() + 16)
        });
        self.proto_bytes += bytes.ok_or("protocol round trip failed")? as u64;
        self.proto_ops += 1;
        Ok(text)
    }

    /// Record a span timed elsewhere (a load thread's round trip).
    pub fn record_roundtrip(
        &mut self,
        start: std::time::Instant,
        end: std::time::Instant,
        bytes: u64,
    ) {
        let origin = self.tracer.origin();
        self.tracer.push(crate::trace::Span {
            name: "server.roundtrip",
            start: start.duration_since(origin).as_nanos() as u64,
            end: end.duration_since(origin).as_nanos() as u64,
            parent: None,
            stmt: 0,
        });
        self.proto_bytes += bytes;
        self.proto_ops += 1;
    }

    /// `EXPLAIN` a read and count whether its plan probes an index.
    fn explain(&mut self, engine: &mut DurableEngine, sql: &str) -> Res<()> {
        let rel = ctx(engine.query(&format!("EXPLAIN {sql}")), "EXPLAIN")?;
        self.explained += 1;
        if rel.render(usize::MAX).contains("IndexProbe") {
            self.probed += 1;
        }
        Ok(())
    }

    /// Reads that ran over the network, replayed through the SQL layers:
    /// `EXPLAIN` on the engine, then parse and execute on an in-memory
    /// copy of `table`.
    pub fn replay_reads(
        &mut self,
        engine: &mut DurableEngine,
        table: &str,
        reads: &[String],
    ) -> Res<()> {
        for sql in reads {
            self.explain(engine, sql)?;
        }
        let canonical = ctx(engine.with_database(|db| db.canonical(table)), "canonical")?;
        let mut mem = ctx(evofd_sql::engine_with([canonical]), "in-memory copy")?;
        for column in engine.engine().indexed_columns(table) {
            ctx(mem.execute(&format!("CREATE INDEX ON {table} ({column})")), "copy index")?;
        }
        for sql in reads {
            let t = &mut self.tracer;
            ctx(t.span("sql.parse", || evofd_sql::parse(sql)), "parse")?;
            ctx(t.span("sql.exec_mem", || mem.execute(sql)), "in-memory replay")?;
        }
        Ok(())
    }

    /// The per-layer metrics, in `BENCHMARK.json` order: each timed
    /// call's p50 and total self time, then the counts.
    pub fn metrics(
        &mut self,
        cpu_busy_frac: f64,
        overhead_pct: f64,
    ) -> Vec<(String, f64, &'static str)> {
        let spans = self.tracer.summarise();
        self.set("wal.bytes_per_stmt", self.wal_bytes as f64 / self.dml_stmts.max(1) as f64);
        self.set(
            "history.bytes_per_stmt",
            self.history_bytes as f64 / self.dml_stmts.max(1) as f64,
        );
        self.set("sql.index_probe_frac", self.probed as f64 / self.explained.max(1) as f64);
        self.set("server.bytes_per_op", self.proto_bytes as f64 / self.proto_ops.max(1) as f64);
        self.set("proc.cpu_busy_frac", cpu_busy_frac);
        let mut out = Vec::new();
        for &(span, metric, unit) in TIMED {
            let scale = if unit == "ms" { 1e-6 } else { 1e-3 };
            let (p50, self_ms) = match spans.get(span) {
                Some(s) => {
                    let d: Vec<f64> = s.durations.iter().map(|&n| n as f64).collect();
                    (median(&d) * scale, s.self_ns as f64 * 1e-6)
                }
                None => (0.0, 0.0),
            };
            out.push((metric.to_string(), p50, unit));
            out.push((format!("{span}.self_ms"), self_ms, "ms"));
        }
        for &(name, unit) in COUNTS {
            out.push((name.to_string(), self.counts[name], unit));
        }
        out.push(("trace_overhead_pct".into(), overhead_pct, "%"));
        out
    }
}

/// Point reads in the served probe of the traced run.
pub const SERVED_PROBE_READS: usize = 100;

/// Shadow copies of one table's layers.
struct Shadow {
    table: String,
    dir: PathBuf,
    store: DurableRelation,
    pipeline: Pipeline,
    mem: Engine,
}

/// The layers `DurableRelation::apply` drives, held apart so each call
/// can be timed on its own.
struct Pipeline {
    wal: WalWriter,
    history: HistoryWriter,
    history_path: PathBuf,
    live: LiveRelation,
    validator: IncrementalValidator,
    advisor: Option<LiveAdvisor>,
    alerts: AlertState,
    decisions: Vec<evofd_incremental::DecisionRecord>,
    indexed_columns: Vec<String>,
    cursor: u64,
    seq: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Tracing overhead: how much lower the traced run's throughput is than
/// the untraced run's, in percent of the untraced throughput.
pub fn trace_overhead_pct(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_overhead_is_the_relative_throughput_loss() {
        assert_eq!(trace_overhead_pct(200.0, 150.0), 25.0);
        assert_eq!(trace_overhead_pct(100.0, 100.0), 0.0);
        assert!(trace_overhead_pct(100.0, 110.0) < 0.0, "a faster traced run reads negative");
    }

    #[test]
    fn every_layer_metric_name_is_unique() {
        let mut names: Vec<String> = TIMED
            .iter()
            .flat_map(|&(span, metric, _)| [metric.to_string(), format!("{span}.self_ms")])
            .chain(COUNTS.iter().map(|&(n, _)| n.to_string()))
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
