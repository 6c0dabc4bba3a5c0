//! Leader ≡ follower convergence for WAL-shipping replication
//! (`evofd-persist::replication`): a seeded SQL workload runs on a
//! durable leader while a follower tails it over the in-process channel
//! transport, and at **every synced seq** the follower's relation bytes,
//! epoch and per-FD tracker counts must be byte-identical to the
//! leader's — and the two `FdDrift` event streams must match event for
//! event. The follower is killed and reopened mid-stream to prove the
//! acked position is durable.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use evofd::core::Fd;
use evofd::incremental::{FdDrift, ValidatorConfig};
use evofd::persist::snapshot::encode_snapshot;
use evofd::persist::{
    ChannelTransport, Database, DurableEngine, PersistOptions, ReplicaState, SyncPolicy,
};
use evofd::storage::{DataType, Field, Relation, Schema, Value};
use proptest::prelude::*;
use proptest::TestRng;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("evofd_replication_equivalence_{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The leader's table: `t(a INT, b TEXT)` with two tracked FDs and a
/// confidence threshold, so the workload produces BecameViolated /
/// BecameExact / ConfidenceCrossed events.
fn base_relation() -> Relation {
    let schema =
        Schema::new("t", vec![Field::new("a", DataType::Int), Field::new("b", DataType::Str)])
            .unwrap()
            .into_shared();
    let rows =
        (0..8).map(|i| vec![Value::Int(i), Value::str(format!("v{}", i % 4))]).collect::<Vec<_>>();
    Relation::from_rows(schema, rows).unwrap()
}

fn leader_engine(dir: &std::path::Path, opts: PersistOptions) -> DurableEngine {
    let rel = base_relation();
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

/// One statement of the seeded workload — INSERT-heavy with UPDATE,
/// DELETE and compaction-threshold churn mixed in.
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

/// Pure state bytes of a durable table (relation layout + epoch +
/// tracker counts), position-independent.
fn state_bytes(db: &Arc<Mutex<Database>>) -> Vec<u8> {
    let db = db.lock().unwrap();
    let t = db.get("t").unwrap();
    encode_snapshot(t.live(), t.validator(), t.decisions(), t.indexed_columns(), t.alerts(), 0, 0)
}

fn leader_seq(db: &Arc<Mutex<Database>>) -> u64 {
    db.lock().unwrap().get("t").unwrap().last_seq()
}

fn poll_leader_drift(
    db: &Arc<Mutex<Database>>,
    sub: evofd::incremental::SubscriptionId,
) -> Vec<FdDrift> {
    db.lock().unwrap().get_mut("t").unwrap().validator_mut().poll(sub)
}

/// True iff `needle` is an in-order subsequence of `haystack`.
fn is_subsequence(needle: &[FdDrift], haystack: &[FdDrift]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|e| it.any(|h| h == e))
}

fn run_workload(seed: u64, steps: usize, sync: SyncPolicy, wal_compact_bytes: u64) {
    let ldir = tmpdir(&format!("leader_{seed}_{sync}"));
    let rdir = tmpdir(&format!("replica_{seed}_{sync}"));
    let opts = PersistOptions { sync, wal_compact_bytes, ..PersistOptions::default() };

    let mut leader = leader_engine(&ldir, opts.clone());
    let db = leader.database_handle();
    let leader_sub = db.lock().unwrap().get_mut("t").unwrap().validator_mut().subscribe();
    let mut transport = ChannelTransport::new(Arc::clone(&db), "t");

    let mut replica = ReplicaState::open_or_bootstrap(&rdir, &mut transport, opts.clone()).unwrap();
    assert_eq!(state_bytes(&db), {
        let t = replica.table();
        encode_snapshot(
            t.live(),
            t.validator(),
            t.decisions(),
            t.indexed_columns(),
            t.alerts(),
            0,
            0,
        )
    });

    let mut rng = TestRng::new(seed);
    let kill_at = steps / 2 + (seed as usize % 10);
    let mut leader_events: Vec<FdDrift> = Vec::new();
    let mut replica_events: Vec<FdDrift> = Vec::new();
    let mut bootstrapped = 0usize;

    for step in 0..steps {
        let sql = gen_statement(&mut rng, step);
        let _ = leader.execute(&sql); // failures roll back identically
        leader_events.extend(poll_leader_drift(&db, leader_sub));

        if step == kill_at {
            // Kill the follower mid-stream; reopening must resume at the
            // exact acked position with no duplicate or skipped deltas.
            let acked = replica.last_seq();
            drop(replica);
            replica = ReplicaState::open(&rdir, opts.clone()).unwrap();
            assert_eq!(replica.last_seq(), acked, "acked position survived the kill");
        }

        let report = replica.sync(&mut transport).unwrap();
        bootstrapped += usize::from(report.bootstrapped);
        replica_events.extend(report.drift);

        // At every synced seq: identical positions, identical state bytes.
        assert_eq!(replica.last_seq(), leader_seq(&db), "step {step} ({sql})");
        let leader_bytes = state_bytes(&db);
        let replica_bytes = {
            let t = replica.table();
            encode_snapshot(
                t.live(),
                t.validator(),
                t.decisions(),
                t.indexed_columns(),
                t.alerts(),
                0,
                0,
            )
        };
        assert_eq!(leader_bytes, replica_bytes, "state diverged at step {step} ({sql})");
        // Epochs ride inside the snapshot encoding, but assert explicitly
        // for a readable failure.
        assert_eq!(
            db.lock().unwrap().get("t").unwrap().live().epoch(),
            replica.table().live().epoch(),
            "epoch diverged at step {step}"
        );
    }

    if bootstrapped == 0 {
        // Continuously tailed: the streams must match event for event.
        assert_eq!(leader_events, replica_events, "FdDrift streams diverged");
    } else {
        // A leader checkpoint forced a re-bootstrap: the jumped-over
        // deltas' events are not replayable (that is what bootstrap IS),
        // but everything the follower did emit must be the leader's
        // stream minus those gaps — an in-order subsequence, with the
        // converged tail identical.
        assert!(
            is_subsequence(&replica_events, &leader_events),
            "replica events are not an in-order subsequence of the leader's"
        );
    }
    assert!(
        !leader_events.is_empty(),
        "the workload should have produced drift events (seed {seed})"
    );

    // A final kill/reopen of the follower lands on the same state.
    drop(replica);
    let replica = ReplicaState::open(&rdir, opts).unwrap();
    assert_eq!(state_bytes(&db), {
        let t = replica.table();
        encode_snapshot(
            t.live(),
            t.validator(),
            t.decisions(),
            t.indexed_columns(),
            t.alerts(),
            0,
            0,
        )
    });
}

#[test]
fn replication_equivalence_seeded_200_steps() {
    run_workload(2016, 200, SyncPolicy::PerCommit, 4 << 20);
}

#[test]
fn replication_equivalence_group_commit_with_checkpoints() {
    // A tiny WAL threshold forces leader snapshot-compactions mid-stream,
    // exercising the follower re-bootstrap path under group commit.
    run_workload(77, 120, SyncPolicy::GroupCommit(8), 2 << 10);
}

#[test]
fn replication_equivalence_no_sync() {
    run_workload(40499, 120, SyncPolicy::NoSync, 4 << 20);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random seeds, shorter streams: the equivalence holds for any
    /// workload, not just the pinned seeds above.
    #[test]
    fn replication_equivalence_random_seeds(seed in 0u64..1_000_000) {
        run_workload(seed, 60, SyncPolicy::PerCommit, 4 << 20);
    }
}
