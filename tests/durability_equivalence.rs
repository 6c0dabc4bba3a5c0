//! Kill-and-reopen equivalence for the durable storage engine
//! (`evofd-persist`): for any sequence of mutations, reopening from disk
//! (snapshot + WAL tail, including a torn final record) must produce a
//! `LiveRelation` and `IncrementalValidator` state identical to the
//! uninterrupted in-memory run.
//!
//! * `sql_seeded_replay_*` — a seeded stream of SQL INSERT/UPDATE/DELETE
//!   statements runs through a `DurableEngine` (killed and reopened midway
//!   and at the end) and an in-memory `Engine` twin; contents must match
//!   statement-for-statement.
//! * `torn_wal_recovery_is_prefix_consistent` — a proptest that truncates
//!   a generated WAL at **every byte offset** and asserts recovery yields
//!   exactly the state of replaying the surviving whole records.

use std::path::PathBuf;

use evofd::core::Fd;
use evofd::incremental::{Delta, IncrementalValidator, LiveRelation, ValidatorConfig};
use evofd::persist::{
    DurableEngine, DurableRelation, PersistOptions, SyncPolicy, WalRecord, SNAPSHOT_FILE, WAL_FILE,
};
use evofd::sql::Engine;
use evofd::storage::{relation_of_strs, Relation, Value};
use proptest::prelude::*;
use proptest::TestRng;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("evofd_durability_equivalence_{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------
// Seeded SQL replay: durable engine (with kills) ≡ in-memory engine.
// ---------------------------------------------------------------------

/// One statement drawn from the seeded stream.
fn gen_statement(rng: &mut TestRng, step: usize) -> String {
    match rng.below(10) {
        0..=4 => {
            let n = 1 + rng.below(3);
            let rows: Vec<String> =
                (0..n).map(|_| format!("({}, 'v{}')", rng.below(50), rng.below(8))).collect();
            format!("INSERT INTO t VALUES {}", rows.join(", "))
        }
        5..=6 => {
            format!("UPDATE t SET b = 'u{step}' WHERE a % {} = {}", 2 + rng.below(4), rng.below(3))
        }
        7..=8 => format!("DELETE FROM t WHERE a = {}", rng.below(50)),
        _ => format!("SET compact_threshold = 0.{}", 1 + rng.below(9)),
    }
}

fn assert_tables_equal(durable: &mut DurableEngine, memory: &mut Engine, when: &str) {
    let d = durable.query("SELECT * FROM t").unwrap();
    let m = memory.query("SELECT * FROM t").unwrap();
    assert_eq!(d.row_count(), m.row_count(), "{when}: row counts diverged");
    for i in 0..d.row_count() {
        assert_eq!(d.row(i), m.row(i), "{when}: row {i} diverged");
    }
}

fn run_sql_replay(seed: u64, sync: SyncPolicy, wal_compact_bytes: u64) {
    let dir = tmpdir(&format!("sql_{seed}_{sync}"));
    let opts = PersistOptions { sync, wal_compact_bytes, ..PersistOptions::default() };
    let mut durable = DurableEngine::open(&dir, opts.clone()).unwrap();
    let mut memory = Engine::new();
    let ddl = "CREATE TABLE t (a INT, b TEXT)";
    durable.execute(ddl).unwrap();
    memory.execute(ddl).unwrap();

    let mut rng = TestRng::new(seed);
    let steps = 60;
    let kill_at = 20 + (seed as usize % 20);
    for step in 0..steps {
        let sql = gen_statement(&mut rng, step);
        let d = durable.execute(&sql);
        let m = memory.execute(&sql);
        assert_eq!(d.is_ok(), m.is_ok(), "step {step} `{sql}` disagreed: {d:?} vs {m:?}");
        if step == kill_at {
            // Kill the durable engine mid-stream and recover.
            drop(durable);
            durable = DurableEngine::open(&dir, opts.clone()).unwrap();
            assert_tables_equal(&mut durable, &mut memory, &format!("after kill at {step}"));
        }
    }
    assert_tables_equal(&mut durable, &mut memory, "before final kill");
    drop(durable);
    let mut recovered = DurableEngine::open(&dir, opts).unwrap();
    assert_tables_equal(&mut recovered, &mut memory, "after final reopen");
    // The recovered engine keeps working durably.
    recovered.execute("INSERT INTO t VALUES (999, 'post')").unwrap();
    memory.execute("INSERT INTO t VALUES (999, 'post')").unwrap();
    assert_tables_equal(&mut recovered, &mut memory, "post-recovery traffic");
}

#[test]
fn sql_seeded_replay_per_commit() {
    run_sql_replay(2016, SyncPolicy::PerCommit, 4 << 20);
}

#[test]
fn sql_seeded_replay_group_commit_with_tiny_wal_threshold() {
    // A 2 KiB threshold forces several snapshot-compactions mid-stream.
    run_sql_replay(77, SyncPolicy::GroupCommit(8), 2 << 10);
}

#[test]
fn sql_seeded_replay_no_sync() {
    run_sql_replay(40499, SyncPolicy::NoSync, 4 << 20);
}

// ---------------------------------------------------------------------
// Torn-write proptest: truncate the WAL at every byte offset.
// ---------------------------------------------------------------------

fn small_rel() -> Relation {
    relation_of_strs("t", &["X", "Y"], &[&["a", "1"], &["b", "2"], &["c", "3"]]).unwrap()
}

fn small_fds(rel: &Relation) -> Vec<Fd> {
    vec![Fd::parse(rel.schema(), "X -> Y").unwrap()]
}

/// A delta described independently of row ids: inserts carry values,
/// deletes pick "the k-th live row" and are resolved at apply time.
#[derive(Debug, Clone)]
struct DeltaSpec {
    inserts: Vec<(u8, u8)>,
    delete_nth: Option<u8>,
}

fn resolve(spec: &DeltaSpec, live: &LiveRelation) -> Delta {
    let mut delta = Delta::inserting(
        spec.inserts
            .iter()
            .map(|&(x, y)| vec![Value::str(format!("x{x}")), Value::str(format!("y{y}"))])
            .collect::<Vec<_>>(),
    );
    if let Some(k) = spec.delete_nth {
        let count = live.row_count();
        if count > 0 {
            let nth = (k as usize) % count;
            delta.deletes.push(live.live_rows().nth(nth).expect("counted"));
        }
    }
    delta
}

fn arb_delta_spec() -> impl Strategy<Value = DeltaSpec> {
    // The vendored proptest shim has no `option::of`; fold the None case
    // into the upper half of the range instead.
    (proptest::collection::vec((0u8..4, 0u8..4), 0..3), 0u8..16)
        .prop_map(|(inserts, d)| DeltaSpec { inserts, delete_nth: (d < 8).then_some(d) })
}

/// Replay `n` of the resolved deltas in memory, mirroring recovery.
fn twin_after(deltas: &[Delta], n: usize) -> (LiveRelation, IncrementalValidator) {
    let rel = small_rel();
    let fds = small_fds(&rel);
    let mut live = LiveRelation::new(rel).with_compact_threshold(1.0);
    let mut v = IncrementalValidator::new(&live, fds);
    for delta in &deltas[..n] {
        if delta.is_empty() {
            continue;
        }
        let applied = live.apply(delta).expect("twin replay");
        v.apply(&live, &applied);
    }
    (live, v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn torn_wal_recovery_is_prefix_consistent(specs in proptest::collection::vec(arb_delta_spec(), 1..6)) {
        let dir = tmpdir("torn_gen");
        let rel = small_rel();
        let opts = PersistOptions {
            sync: SyncPolicy::NoSync,
            wal_compact_bytes: u64::MAX,
            compact_threshold: 1.0, // never tombstone-compact: WAL is pure deltas
            history_stride: 1,
        };
        let mut table = DurableRelation::create(
            &dir, rel.clone(), small_fds(&rel), ValidatorConfig::default(), opts.clone(),
        ).unwrap();

        // Resolve and apply each spec, recording the concrete deltas.
        let mut deltas: Vec<Delta> = Vec::new();
        for spec in &specs {
            let delta = resolve(spec, table.live());
            table.apply(&delta).unwrap();
            deltas.push(delta);
        }
        table.sync().unwrap();
        drop(table);

        // Reconstruct the exact frame boundaries: the WAL holds one Delta
        // record per non-empty delta, seq/epoch counting from 1.
        let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let mut boundaries = vec![evofd::persist::wal::WAL_HEADER_LEN as usize];
        let mut epoch = 0u64;
        let mut seq = 0u64;
        let mut deltas_at: Vec<usize> = Vec::new(); // resolved-delta count per boundary
        for (i, delta) in deltas.iter().enumerate() {
            if delta.is_empty() {
                continue;
            }
            seq += 1;
            epoch += 1;
            let frame = WalRecord::Delta {
                seq,
                epoch_after: epoch,
                cursor: None,
                inserts: delta.inserts.clone(),
                deletes: delta.deletes.iter().map(|&d| d as u64).collect(),
            }
            .encode_frame();
            boundaries.push(boundaries.last().unwrap() + frame.len());
            deltas_at.push(i + 1);
        }
        prop_assert_eq!(*boundaries.last().unwrap(), wal_bytes.len(), "frame reconstruction");

        // Truncate at EVERY byte offset; recovery must equal replaying the
        // surviving whole records.
        let torn = tmpdir("torn_cut");
        std::fs::copy(dir.join(SNAPSHOT_FILE), torn.join(SNAPSHOT_FILE)).unwrap();
        for cut in 0..=wal_bytes.len() {
            std::fs::write(torn.join(WAL_FILE), &wal_bytes[..cut]).unwrap();
            let recovered = DurableRelation::open(&torn, opts.clone()).unwrap();
            // How many whole records fit below the cut?
            let frames = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            let n = if frames == 0 { 0 } else { deltas_at[frames - 1] };
            let (live, v) = twin_after(&deltas, n);
            prop_assert_eq!(recovered.live().epoch(), live.epoch(), "epoch at cut {}", cut);
            prop_assert_eq!(
                recovered.live().live_mask(), live.live_mask(), "mask at cut {}", cut
            );
            for (ca, cb) in recovered
                .live()
                .relation()
                .columns()
                .iter()
                .zip(live.relation().columns())
            {
                prop_assert_eq!(ca.codes(), cb.codes(), "codes at cut {}", cut);
                prop_assert_eq!(ca.dict().values(), cb.dict().values(), "dict at cut {}", cut);
            }
            prop_assert_eq!(
                recovered.validator().measures(0),
                v.measures(0),
                "measures at cut {}", cut
            );
            prop_assert_eq!(
                recovered.validator().summary(0).violating_rows,
                v.summary(0).violating_rows,
                "violating rows at cut {}", cut
            );
        }
    }
}

// ---------------------------------------------------------------------
// Torn final record on the SQL path (the acceptance wording verbatim).
// ---------------------------------------------------------------------

#[test]
fn torn_final_record_on_sql_path() {
    let dir = tmpdir("sql_torn");
    let opts = PersistOptions::default();
    let mut e = DurableEngine::open(&dir, opts.clone()).unwrap();
    e.run_script(
        "CREATE TABLE t (a INT);
         INSERT INTO t VALUES (1), (2);
         INSERT INTO t VALUES (3);",
    )
    .unwrap();
    drop(e);

    // Tear the last WAL record in half.
    let wal_path = dir.join("t").join(WAL_FILE);
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

    let mut r = DurableEngine::open(&dir, opts).unwrap();
    // The torn third insert is gone; the first two survive whole.
    assert_eq!(r.query_scalar("SELECT COUNT(*) FROM t").unwrap(), Value::Int(2));
    r.with_database(|db| {
        let report = db.get("t").unwrap().recovery();
        assert!(report.torn_bytes > 0, "the tail was truncated: {report:?}");
        assert_eq!(report.replayed, 1, "only the whole record replayed");
    });
}
