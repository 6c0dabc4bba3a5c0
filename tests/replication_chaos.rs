//! Chaos driver for WAL-shipping replication: seeded kill/restart and
//! torn-write injection on the follower, proving leader ≡ follower
//! convergence with **no duplicate or skipped deltas** from every
//! possible failure point.
//!
//! For a generated leader stream (inserts, value deletes, deterministic
//! rejections with rollbacks, journaled tombstone compactions, cursor
//! moves, FD-set, index-set and alert-set changes, advisor decisions)
//! the driver:
//!
//! * kills the follower at **every frame boundary** of the stream and
//!   restarts it (recovery + resync must converge to the leader bytes);
//! * additionally truncates the follower's local WAL **mid-frame**
//!   before each restart (the torn tail must be amputated, the lost
//!   frame re-shipped exactly once);
//! * runs the whole sweep under all three fsync policies.
//!
//! Convergence is asserted on the full encoded state image — physical
//! relation (codes, dictionaries, tombstone mask), epoch, per-FD tracker
//! counts, decisions, index and alert sets, cursor and acked seq — and on
//! the durable history file, so a duplicated or skipped delta cannot
//! hide: it would shift row ids, epochs, group counts or history frames.
//! A cold reopen of the leader directory (the recovery path) must
//! reproduce the same image and history too.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use evofd::core::Fd;
use evofd::incremental::{Delta, ValidatorConfig};
use evofd::persist::wal::WAL_HEADER_LEN;
use evofd::persist::{
    AlertRule, Database, DirTransport, DurableRelation, FrameTransport, PersistOptions,
    ReplicaState, Shipment, SyncPolicy, WalRecord, WAL_FILE,
};
use evofd::storage::{relation_of_strs, Relation, Value};
use proptest::prelude::*;
use proptest::TestRng;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("evofd_replication_chaos_{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn srow(x: u64, y: u64) -> Vec<Value> {
    vec![Value::str(format!("x{x}")), Value::str(format!("y{y}"))]
}

fn base_rel() -> Relation {
    relation_of_strs("t", &["X", "Y"], &[&["x0", "y0"], &["x1", "y1"], &["x2", "y2"]]).unwrap()
}

/// Build a leader with a seeded delta stream that exercises every WAL
/// record kind: plain deltas, a deterministic rejection (rollback pair),
/// tombstone compactions (low threshold), cursor moves, FD-set,
/// index-set and alert-set replacements, and advisor decisions.
fn build_leader(dir: &Path, sync: SyncPolicy, seed: u64, steps: u64) -> Database {
    let opts = PersistOptions {
        sync,
        wal_compact_bytes: u64::MAX, // never checkpoint: keep every frame
        compact_threshold: 0.25,     // deletes trigger journaled compactions
        history_stride: 1,
    };
    let rel = base_rel();
    let fds = vec![Fd::parse(rel.schema(), "X -> Y").unwrap()];
    let mut db = Database::open(dir, opts).unwrap();
    db.create_table(rel, fds, ValidatorConfig::default()).unwrap();

    let mut rng = TestRng::new(seed);
    for step in 0..steps {
        let t = db.get_mut("t").unwrap();
        match rng.below(12) {
            0..=3 => {
                let n = 1 + rng.below(2);
                let rows: Vec<Vec<Value>> =
                    (0..n).map(|_| srow(rng.below(6), rng.below(4))).collect();
                t.apply(&Delta::inserting(rows)).unwrap();
            }
            4..=5 => {
                let count = t.live().row_count();
                if count > 0 {
                    let nth = rng.below(count as u64) as usize;
                    let row = t.live().live_rows().nth(nth).expect("counted");
                    t.apply(&Delta::deleting([row])).unwrap();
                }
            }
            6 => {
                // Arity violation: journaled, rejected deterministically,
                // cancelled by a rollback record.
                assert!(t.apply(&Delta::inserting(vec![vec![Value::str("one")]])).is_err());
            }
            7 => t.set_cursor(step * 10 + 7).unwrap(),
            8 => {
                // Toggle a second tracked FD (retires its decision, if any).
                let schema = t.live().schema().clone();
                let mut fds = vec![Fd::parse(&schema, "X -> Y").unwrap()];
                if t.validator().fds().len() == 1 {
                    fds.push(Fd::parse(&schema, "Y -> X").unwrap());
                }
                t.set_fds(fds).unwrap();
            }
            9 => {
                let columns =
                    if t.indexed_columns().is_empty() { vec!["X".into()] } else { vec![] };
                t.set_indexes(columns).unwrap();
            }
            10 => {
                let rule = format!("FD 'X -> Y' WHEN confidence < 0.{} FOR 2 EPOCHS", 5 + step % 5);
                t.set_alerts(vec![AlertRule::parse(&rule).unwrap()]).unwrap();
            }
            _ => {
                // Decide the first FD awaiting a decision, if any.
                let pending = t.ensure_advisor().unwrap().pending();
                if let Some(&i) = pending.first() {
                    if rng.below(2) == 0 {
                        t.decide_keep(i).unwrap();
                    } else {
                        t.decide_drop(i).unwrap();
                    }
                }
            }
        }
    }
    db.get_mut("t").unwrap().sync().unwrap();
    db
}

/// The record kind's name; exhaustive, so a new kind must join the sweep.
fn kind_name(record: &WalRecord) -> &'static str {
    match record {
        WalRecord::Delta { .. } => "delta",
        WalRecord::Rollback { .. } => "rollback",
        WalRecord::Compact { .. } => "compact",
        WalRecord::Cursor { .. } => "cursor",
        WalRecord::FdSet { .. } => "fd-set",
        WalRecord::Decision { .. } => "decision",
        WalRecord::IndexSet { .. } => "index-set",
        WalRecord::AlertSet { .. } => "alert-set",
    }
}

fn state_image(t: &DurableRelation) -> Vec<u8> {
    // Includes physical relation, epoch, tracker counts, last_seq, cursor.
    t.encode_current_snapshot()
}

/// Fetch every currently shipped frame of a leader table directory.
fn all_frames(leader_table_dir: &Path) -> Vec<Vec<u8>> {
    let mut transport = DirTransport::new(leader_table_dir);
    match transport.fetch(0).unwrap() {
        Shipment::Frames(frames) => frames,
        Shipment::Bootstrap { .. } => panic!("leader never checkpointed"),
    }
}

/// Everything the chaos driver needs to know about a built leader.
struct LeaderRef<'a> {
    table_dir: &'a Path,
    frames: &'a [Vec<u8>],
    image: &'a [u8],
    history: &'a [u8],
    seq: u64,
}

/// Kill the follower after `kill_at` frames (optionally tearing its local
/// WAL mid-frame), reopen and fully resync; assert convergence.
fn kill_restart_converge(
    leader: &LeaderRef<'_>,
    opts: &PersistOptions,
    kill_at: usize,
    tear: bool,
    scratch: &Path,
) {
    let rdir = scratch.join(format!("k{kill_at}_{}", if tear { "torn" } else { "clean" }));
    let _ = std::fs::remove_dir_all(&rdir);
    let mut transport = DirTransport::new(leader.table_dir);
    let mut replica = ReplicaState::open_or_bootstrap(&rdir, &mut transport, opts.clone()).unwrap();
    for frame in &leader.frames[..kill_at] {
        replica.apply_frame(frame).unwrap();
    }
    drop(replica); // kill at the frame boundary

    if tear {
        // Rip bytes off the follower's local WAL mid-frame: recovery must
        // amputate the torn tail and the lost frames must be re-shipped.
        let wal_path = rdir.join(WAL_FILE);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let cut = len.saturating_sub(3).max(WAL_HEADER_LEN.min(len));
        let file = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        file.set_len(cut).unwrap();
        file.sync_all().unwrap();
    }

    let mut replica = ReplicaState::open(&rdir, opts.clone()).unwrap();
    let report = replica.sync(&mut transport).unwrap();
    assert!(!report.bootstrapped, "the WAL still holds the whole tail");
    assert_eq!(
        replica.last_seq(),
        leader.seq,
        "kill at {kill_at} (tear={tear}): follower did not reach the leader seq"
    );
    assert_eq!(
        state_image(replica.table()),
        leader.image,
        "kill at {kill_at} (tear={tear}): state diverged"
    );
    assert_eq!(
        replica.table().history_bytes(),
        leader.history,
        "kill at {kill_at} (tear={tear}): history diverged"
    );
}

fn chaos_sweep(sync: SyncPolicy, seed: u64) {
    let label = format!("sweep_{sync}_{seed}");
    let ldir = tmpdir(&format!("{label}_leader"));
    let scratch = tmpdir(&format!("{label}_replicas"));
    let opts = PersistOptions {
        sync,
        wal_compact_bytes: u64::MAX,
        compact_threshold: 0.25,
        history_stride: 1,
    };
    let db = build_leader(&ldir, sync, seed, 30);
    let leader = db.get("t").unwrap();
    let leader_image = state_image(leader);
    let leader_history = leader.history_bytes();
    let leader_seq = leader.last_seq();
    drop(db);

    // Recovery path: a cold reopen of the leader directory reproduces the
    // leader's image and history.
    let reopened = Database::open(&ldir, opts.clone()).unwrap();
    let recovered = reopened.get("t").unwrap();
    assert_eq!(state_image(recovered), leader_image, "cold reopen diverged");
    assert_eq!(recovered.history_bytes(), leader_history, "cold reopen history diverged");
    drop(reopened);

    let table_dir = ldir.join("t");
    let frames = all_frames(&table_dir);
    assert!(!frames.is_empty());
    // The pinned seeds must exercise every record kind in one stream.
    let seen: HashSet<&str> = frames
        .iter()
        .map(|f| kind_name(&WalRecord::decode_frame(f).expect("valid frame")))
        .collect();
    for kind in
        ["delta", "rollback", "compact", "cursor", "fd-set", "decision", "index-set", "alert-set"]
    {
        assert!(seen.contains(kind), "seed {seed} produced no {kind} record — adjust the seed");
    }

    // Kill at EVERY frame boundary, clean and torn.
    let leader_ref = LeaderRef {
        table_dir: &table_dir,
        frames: &frames,
        image: &leader_image,
        history: &leader_history,
        seq: leader_seq,
    };
    for kill_at in 0..=frames.len() {
        for tear in [false, true] {
            kill_restart_converge(&leader_ref, &opts, kill_at, tear, &scratch);
        }
    }
}

#[test]
fn chaos_kill_every_frame_boundary_per_commit() {
    chaos_sweep(SyncPolicy::PerCommit, 2016);
}

#[test]
fn chaos_kill_every_frame_boundary_group_commit() {
    chaos_sweep(SyncPolicy::GroupCommit(4), 2016);
}

#[test]
fn chaos_kill_every_frame_boundary_no_sync() {
    chaos_sweep(SyncPolicy::NoSync, 2016);
}

/// A follower killed mid-stream while the LEADER checkpoints away the
/// WAL it still needs: on restart it must re-bootstrap from the shipped
/// snapshot and still converge.
#[test]
fn chaos_leader_checkpoint_while_follower_down() {
    let ldir = tmpdir("ckpt_leader");
    let rdir = tmpdir("ckpt_replica");
    let mut db = build_leader(&ldir, SyncPolicy::PerCommit, 7, 10);
    let table_dir = ldir.join("t");
    let opts = PersistOptions {
        sync: SyncPolicy::PerCommit,
        wal_compact_bytes: u64::MAX,
        compact_threshold: 0.25,
        history_stride: 1,
    };

    // Follower applies a strict prefix, then dies.
    let mut transport = DirTransport::new(&table_dir);
    let frames = all_frames(&table_dir);
    let mut replica = ReplicaState::open_or_bootstrap(&rdir, &mut transport, opts.clone()).unwrap();
    replica.apply_frame(&frames[0]).unwrap();
    drop(replica);

    // While it is down the leader checkpoints (WAL reset, horizon moves)
    // and takes more traffic.
    {
        let t = db.get_mut("t").unwrap();
        t.checkpoint().unwrap();
        t.apply(&Delta::inserting(vec![srow(9, 9)])).unwrap();
        t.sync().unwrap();
    }

    let mut replica = ReplicaState::open(&rdir, opts).unwrap();
    let report = replica.sync(&mut transport).unwrap();
    assert!(report.bootstrapped, "the needed WAL records are gone: must re-bootstrap");
    let leader = db.get("t").unwrap();
    assert_eq!(replica.last_seq(), leader.last_seq());
    assert_eq!(state_image(replica.table()), state_image(leader));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeds and kill points (clean and torn) under random fsync
    /// policies: convergence is not an artifact of the pinned streams.
    #[test]
    fn chaos_random_seed_and_kill_point(
        seed in 0u64..1_000_000,
        kill_frac in 0u64..100,
        policy_pick in 0u64..3,
        tear in 0u64..2,
    ) {
        let sync = match policy_pick {
            0 => SyncPolicy::PerCommit,
            1 => SyncPolicy::GroupCommit(4),
            _ => SyncPolicy::NoSync,
        };
        let label = format!("prop_{seed}_{kill_frac}_{policy_pick}_{tear}");
        let ldir = tmpdir(&format!("{label}_leader"));
        let scratch = tmpdir(&format!("{label}_replicas"));
        let db = build_leader(&ldir, sync, seed, 14);
        let leader = db.get("t").unwrap();
        let opts = PersistOptions {
            sync,
            wal_compact_bytes: u64::MAX,
            compact_threshold: 0.25,
            history_stride: 1,
        };
        let table_dir = ldir.join("t");
        let frames = all_frames(&table_dir);
        let image = state_image(leader);
        let history = leader.history_bytes();
        let kill_at = (kill_frac as usize * (frames.len() + 1)) / 100;
        let leader_ref = LeaderRef {
            table_dir: &table_dir,
            frames: &frames,
            image: &image,
            history: &history,
            seq: leader.last_seq(),
        };
        kill_restart_converge(&leader_ref, &opts, kill_at.min(frames.len()), tear == 1, &scratch);
    }
}
