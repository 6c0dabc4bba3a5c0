//! Acceptance tests for the durable FD-health monitor
//! (`evofd-persist::history` + alert rules + `evofd-obs::serve`):
//!
//! * a seeded workload's HISTORY file is **byte-identical** whether the
//!   engine runs uninterrupted, is killed and reopened mid-stream, or is
//!   tailed by a WAL-shipping replica;
//! * `SHOW DRIFT HISTORY` names the **exact WAL seq** of the delta that
//!   first violated a drifted FD — including from a cold reopen;
//! * `/metrics` and `/health` are served over a real TCP socket backed by
//!   a live durable database;
//! * with `history_stride = 0` the monitor is pure observation: no
//!   HISTORY file is written and query results are identical.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use evofd::core::Fd;
use evofd::incremental::ValidatorConfig;
use evofd::persist::snapshot::encode_snapshot;
use evofd::persist::{
    ChannelTransport, Database, DbMonitorSource, DurableEngine, PersistOptions, ReplicaState,
    HISTORY_FILE,
};
use evofd::storage::{DataType, Field, Relation, Schema, Value};
use proptest::prelude::*;
use proptest::TestRng;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("evofd_monitor_equivalence_{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `t(a INT, b TEXT)` with two tracked FDs, a confidence threshold and
/// an alert rule — the workload drives samples, drifts and alert
/// transitions into the HISTORY file.
fn seeded_engine(dir: &std::path::Path, opts: PersistOptions) -> DurableEngine {
    let mut engine = seeded_engine_bare(dir, opts);
    engine.execute("ALERT ON t FD 'a -> b' WHEN confidence < 0.9 FOR 2 EPOCHS").unwrap();
    engine
}

/// Like [`seeded_engine`] but with no alert rule installed: alert
/// evaluation rides the sampling path, so the stride-0 equivalence
/// below compares engines without it.
fn seeded_engine_bare(dir: &std::path::Path, opts: PersistOptions) -> DurableEngine {
    let schema =
        Schema::new("t", vec![Field::new("a", DataType::Int), Field::new("b", DataType::Str)])
            .unwrap()
            .into_shared();
    let rows =
        (0..8).map(|i| vec![Value::Int(i), Value::str(format!("v{}", i % 4))]).collect::<Vec<_>>();
    let rel = Relation::from_rows(schema, rows).unwrap();
    let fds = vec![
        Fd::parse(rel.schema(), "a -> b").unwrap(),
        Fd::parse(rel.schema(), "b -> a").unwrap(),
    ];
    let config =
        ValidatorConfig { confidence_thresholds: vec![0.75], ..ValidatorConfig::default() };
    let mut db = Database::open(dir, opts).unwrap();
    db.create_table(rel, fds, config).unwrap();
    DurableEngine::from_database(db).unwrap()
}

/// Same INSERT-heavy mix as the replication equivalence suite, so the
/// history picks up violations, repairs and alert flaps.
fn gen_statement(rng: &mut TestRng, step: usize) -> String {
    match rng.below(10) {
        0..=4 => {
            let n = 1 + rng.below(3);
            let rows: Vec<String> =
                (0..n).map(|_| format!("({}, 'v{}')", rng.below(30), rng.below(6))).collect();
            format!("INSERT INTO t VALUES {}", rows.join(", "))
        }
        5..=6 => {
            format!("UPDATE t SET b = 'u{step}' WHERE a % {} = {}", 2 + rng.below(4), rng.below(3))
        }
        7..=8 => format!("DELETE FROM t WHERE a = {}", rng.below(30)),
        _ => format!("SET compact_threshold = 0.{}", 1 + rng.below(9)),
    }
}

fn history_of(db: &Arc<Mutex<Database>>) -> Vec<u8> {
    db.lock().unwrap().get("t").unwrap().history_bytes()
}

fn state_of(db: &Arc<Mutex<Database>>) -> Vec<u8> {
    let db = db.lock().unwrap();
    let t = db.get("t").unwrap();
    encode_snapshot(t.live(), t.validator(), t.decisions(), t.indexed_columns(), t.alerts(), 0, 0)
}

/// Criterion 1: the HISTORY file is byte-identical across (a) an
/// uninterrupted run, (b) a run killed and reopened mid-stream, and
/// (c) a WAL-shipped replica tailing the uninterrupted leader.
#[test]
fn history_survives_kill_reopen_and_ships_to_replicas_byte_identical() {
    let seed = 2016u64;
    let steps = 120usize;
    let opts = PersistOptions::default();

    let adir = tmpdir("hist_uninterrupted");
    let bdir = tmpdir("hist_killed");
    let rdir = tmpdir("hist_replica");

    let mut a = seeded_engine(&adir, opts.clone());
    let mut b = seeded_engine(&bdir, opts.clone());
    let adb = a.database_handle();

    let mut transport = ChannelTransport::new(Arc::clone(&adb), "t");
    let mut replica = ReplicaState::open_or_bootstrap(&rdir, &mut transport, opts.clone()).unwrap();

    let kill_at = steps / 2 + (seed as usize % 10);
    let mut rng_a = TestRng::new(seed);
    let mut rng_b = TestRng::new(seed);
    for step in 0..steps {
        let sql = gen_statement(&mut rng_a, step);
        assert_eq!(sql, gen_statement(&mut rng_b, step), "rng streams must agree");
        let _ = a.execute(&sql);
        let _ = b.execute(&sql);
        replica.sync(&mut transport).unwrap();

        if step == kill_at {
            // Kill engine B mid-stream; recovery must land on the exact
            // same history file, frame for frame and byte for byte.
            let bdb = b.database_handle();
            let at_kill = history_of(&bdb);
            drop(b);
            drop(bdb);
            b = DurableEngine::open(&bdir, opts.clone()).unwrap();
            assert_eq!(
                history_of(&b.database_handle()),
                at_kill,
                "reopen rewrote or lost history frames at step {step}"
            );
        }
    }

    let bdb = b.database_handle();
    let uninterrupted = history_of(&adb);
    assert!(!uninterrupted.is_empty(), "the workload should have produced history frames");
    assert_eq!(state_of(&adb), state_of(&bdb), "engine state diverged");
    assert_eq!(uninterrupted, history_of(&bdb), "kill/reopen history diverged");
    assert_eq!(
        uninterrupted,
        replica.table().history_bytes(),
        "replica history diverged from the leader's"
    );

    // One more cold reopen of the killed lineage: still byte-identical.
    drop(b);
    drop(bdb);
    let b = DurableEngine::open(&bdir, opts).unwrap();
    assert_eq!(uninterrupted, history_of(&b.database_handle()));
}

/// Criterion 2: `SHOW DRIFT HISTORY` pinpoints the exact WAL seq of the
/// delta that first violated the FD — from the live engine and again
/// after a cold restart.
#[test]
fn drift_history_names_the_breaking_wal_seq() {
    let dir = tmpdir("drift_pinpoint");
    let mut e = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
    e.run_script(
        "CREATE TABLE t (zip TEXT, city TEXT);
         INSERT INTO t VALUES ('10', 'a'), ('20', 'b');",
    )
    .unwrap();
    e.execute("ALTER TABLE t ADD CONSTRAINT FD 'zip -> city'").unwrap();
    // A run of conforming deltas first, so the breaking seq is not
    // trivially the first write.
    for i in 0..5 {
        e.execute(&format!("INSERT INTO t VALUES ('3{i}', 'c{i}')")).unwrap();
    }
    let before = {
        let db = e.database_handle();
        let seq = db.lock().unwrap().get("t").unwrap().last_seq();
        seq
    };
    // This is the delta that breaks zip -> city.
    e.execute("INSERT INTO t VALUES ('10', 'z')").unwrap();
    let breaking_seq = before + 1;

    let drift = e.query("SHOW DRIFT HISTORY FOR t FD 'zip -> city'").unwrap();
    assert!(drift.row_count() >= 1, "violation recorded");
    assert_eq!(drift.row(0)[3], Value::str("violated"));
    assert_eq!(drift.row(0)[1], Value::Int(breaking_seq as i64), "wrong originating seq");
    let groups = format!("{:?}", drift.row(0)[6]);
    assert!(groups.contains("10"), "violating group key named: {groups}");

    // Cold start answers the same question from the durable file alone.
    drop(e);
    let mut r = DurableEngine::open(&dir, PersistOptions::default()).unwrap();
    let drift = r.query("SHOW DRIFT HISTORY FOR t FD 'zip -> city'").unwrap();
    assert!(drift.row_count() >= 1, "drift history survives reopen");
    assert_eq!(drift.row(0)[1], Value::Int(breaking_seq as i64), "seq lost across restart");
}

fn http_get(addr: SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
    (head.to_string(), body.to_string())
}

/// Criterion 3: `/metrics` and `/health` are served over a real TCP
/// socket, backed by a live durable database.
#[test]
fn metrics_and_health_are_served_over_tcp_from_a_live_database() {
    let dir = tmpdir("served");
    let mut e = seeded_engine(&dir, PersistOptions::default());
    e.execute("INSERT INTO t VALUES (100, 'x')").unwrap();

    evofd_obs::enable();
    let source = Arc::new(DbMonitorSource::new(e.database_handle()));
    let mut server = evofd_obs::serve("127.0.0.1:0", source).unwrap();
    let addr = server.addr();

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert!(body.contains("# TYPE evofd_wal_appends_total counter"), "{body}");

    let (head, body) = http_get(addr, "/health");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("\"status\":"), "{body}");
    assert!(body.contains("\"table\":\"t\""), "{body}");
    assert!(body.contains("\"tracked_fds\":2"), "{body}");
    assert!(body.contains("\"alerts\":"), "{body}");

    let (head, body) = http_get(addr, "/history?table=t");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("\"epoch\":"), "{body}");
    assert!(body.contains("[a] -> [b]"), "{body}");

    let (head, _) = http_get(addr, "/history?table=missing");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");

    server.shutdown();
}

/// Criterion 4: with `history_stride = 0` the monitor is switched off
/// completely — no HISTORY file appears on disk, and the engine's state
/// and query results are identical to a monitored twin's.
fn run_stride_zero_equivalence(seed: u64, steps: usize) {
    let on_dir = tmpdir(&format!("stride_on_{seed}"));
    let off_dir = tmpdir(&format!("stride_off_{seed}"));
    let on_opts = PersistOptions { history_stride: 1, ..PersistOptions::default() };
    let off_opts = PersistOptions { history_stride: 0, ..PersistOptions::default() };

    let mut on = seeded_engine_bare(&on_dir, on_opts);
    let mut off = seeded_engine_bare(&off_dir, off_opts);

    let mut rng_on = TestRng::new(seed);
    let mut rng_off = TestRng::new(seed);
    for step in 0..steps {
        let sql = gen_statement(&mut rng_on, step);
        assert_eq!(sql, gen_statement(&mut rng_off, step));
        let on_result = on.execute(&sql).map(|r| format!("{r:?}"));
        let off_result = off.execute(&sql).map(|r| format!("{r:?}"));
        assert_eq!(on_result.is_ok(), off_result.is_ok(), "step {step} ({sql})");
    }

    let on_db = on.database_handle();
    let off_db = off.database_handle();
    assert!(!history_of(&on_db).is_empty(), "monitored run keeps frames (seed {seed})");
    assert!(history_of(&off_db).is_empty(), "stride 0 kept frames (seed {seed})");
    {
        let db = off_db.lock().unwrap();
        let path = db.get("t").unwrap().dir().join(HISTORY_FILE);
        assert!(!path.exists(), "stride 0 wrote {path:?}");
    }
    assert_eq!(state_of(&on_db), state_of(&off_db), "instrumentation changed engine state");

    for q in [
        "SELECT a, b FROM t ORDER BY a, b",
        "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b",
        "SELECT COUNT(DISTINCT a, b) FROM t",
    ] {
        let lhs = on.query(q).unwrap();
        let rhs = off.query(q).unwrap();
        let rows =
            |r: &evofd::storage::Relation| (0..r.row_count()).map(|i| r.row(i)).collect::<Vec<_>>();
        assert_eq!(rows(&lhs), rows(&rhs), "query diverged: {q}");
    }
}

#[test]
fn history_stride_zero_is_pure_observation_seeded() {
    run_stride_zero_equivalence(4242, 80);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random seeds: turning the monitor off never changes behaviour.
    #[test]
    fn history_stride_zero_is_pure_observation(seed in 0u64..1_000_000) {
        run_stride_zero_equivalence(seed, 40);
    }
}
