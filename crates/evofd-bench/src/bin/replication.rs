//! `replication` — WAL-shipping replication study of `evofd-persist`.
//!
//! One experiment, written to `BENCH_replication.json`, doubling as the
//! CI replication smoke gate (`--smoke`):
//!
//! 1. a **leader** ingests N journaled deltas against FDs under
//!    incremental validation;
//! 2. a **follower** bootstraps cold from the shipped snapshot and tails
//!    the WAL through the directory transport, timing bootstrap and
//!    catch-up (frames/sec);
//! 3. the follower is **killed and reopened once** mid-tail (recovery of
//!    the acked position), finishes catching up, and the full validator
//!    state — every FD's measures and violation aggregates — is diffed
//!    against the leader's. Any mismatch aborts the run.
//!
//! Flags: `--rows N` (base relation, default 5000), `--deltas N`
//! (default 5000; `--smoke` forces 1000), `--seed S`, `--out PATH`.

use std::path::PathBuf;

use evofd_bench::{banner, timed, Args};
use evofd_core::{Fd, TextTable};
use evofd_datagen::SyntheticSpec;
use evofd_incremental::{Delta, ValidatorConfig};
use evofd_persist::{Database, DirTransport, PersistOptions, ReplicaState, SyncPolicy};
use evofd_storage::Relation;

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("evofd_bench_replication_{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Base relation with a planted, lightly violated FD set (same family as
/// the `durability` bench).
fn base_relation(rows: usize, seed: u64) -> Relation {
    SyntheticSpec::planted_fd("repl", 2, 2, rows, 64, 0.001, seed).generate()
}

fn fds(rel: &Relation) -> Vec<Fd> {
    ["a0, a1 -> a4", "a0 -> a2", "a2, a3 -> a0"]
        .iter()
        .map(|t| Fd::parse(rel.schema(), t).expect("static FD"))
        .collect()
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let rows = args.get_or("rows", if smoke { 2000 } else { 5000usize });
    let n_deltas = args.get_or("deltas", if smoke { 1000 } else { 5000usize });
    let seed = args.get_or("seed", 2016u64);
    let out_path = args.get("out").unwrap_or("BENCH_replication.json").to_string();

    banner(
        "replication — WAL shipping: cold bootstrap, tail, kill/reopen, verify",
        "follower state must equal the leader's, FD by FD, after catch-up",
    );

    // 1. Leader ingest.
    let base = base_relation(rows, seed);
    let donor = base_relation(4096.min(rows.max(1)), seed + 1);
    let leader_dir = bench_dir("leader");
    let opts = PersistOptions {
        sync: SyncPolicy::GroupCommit(64),
        wal_compact_bytes: u64::MAX, // keep the whole WAL: pure shipping
        ..PersistOptions::default()
    };
    let mut db = Database::open(&leader_dir, opts.clone()).unwrap();
    db.create_table(base.clone(), fds(&base), ValidatorConfig::default()).unwrap();
    let (_, ingest) = timed(|| {
        let t = db.get_mut("repl").unwrap();
        for i in 0..n_deltas {
            t.apply(&Delta::inserting(vec![donor.row(i % donor.row_count())])).unwrap();
        }
        t.sync().unwrap();
    });
    let leader_seq = db.get("repl").unwrap().last_seq();
    println!(
        "leader: {} rows base, {} delta commit(s) in {:.3}s ({:.0}/s), seq {}",
        base.row_count(),
        n_deltas,
        ingest.as_secs_f64(),
        n_deltas as f64 / ingest.as_secs_f64().max(1e-12),
        leader_seq
    );

    // 2. Cold follower: bootstrap + first half of the tail.
    let replica_dir = bench_dir("replica");
    let table_dir = leader_dir.join("repl");
    let mut transport = DirTransport::new(&table_dir);
    let (mut replica, bootstrap_t) = timed(|| {
        ReplicaState::open_or_bootstrap(&replica_dir, &mut transport, opts.clone()).unwrap()
    });
    let half = n_deltas / 2;
    let (_, catch_first_t) = timed(|| replica.sync_with_limit(&mut transport, Some(half)).unwrap());
    let mid_seq = replica.last_seq();

    // 3. Kill and reopen once mid-tail, then finish.
    drop(replica);
    let (mut replica, reopen_t) = timed(|| ReplicaState::open(&replica_dir, opts.clone()).unwrap());
    let (_, catch_rest_t) = timed(|| replica.sync(&mut transport).unwrap());
    assert_eq!(replica.last_seq(), leader_seq, "follower did not catch up");
    let catchup = catch_first_t + catch_rest_t;

    // 4. Diff the full validator state against the leader, FD by FD.
    let leader = db.get("repl").unwrap();
    let follower = replica.table();
    for i in 0..leader.validator().fds().len() {
        assert_eq!(
            leader.validator().measures(i),
            follower.validator().measures(i),
            "FD #{i} measures diverged"
        );
        assert_eq!(
            leader.validator().summary(i).violating_rows,
            follower.validator().summary(i).violating_rows,
            "FD #{i} violation aggregate diverged"
        );
    }
    assert_eq!(
        leader.encode_current_snapshot(),
        follower.encode_current_snapshot(),
        "full state images diverged"
    );
    println!(
        "verified: follower state equals leader state ({} FDs, seq {leader_seq}; \
         kill/reopen at seq {mid_seq})",
        leader.validator().fds().len()
    );

    let mut table = TextTable::new(["phase", "seconds", "rate"]);
    let frames_per_sec = n_deltas as f64 / catchup.as_secs_f64().max(1e-12);
    table.row([
        "leader ingest".into(),
        format!("{:.4}", ingest.as_secs_f64()),
        format!("{:.0} deltas/s", n_deltas as f64 / ingest.as_secs_f64().max(1e-12)),
    ]);
    table.row(["cold bootstrap".into(), format!("{:.4}", bootstrap_t.as_secs_f64()), "-".into()]);
    table.row([
        "tail catch-up".into(),
        format!("{:.4}", catchup.as_secs_f64()),
        format!("{frames_per_sec:.0} frames/s"),
    ]);
    table.row(["kill + reopen".into(), format!("{:.4}", reopen_t.as_secs_f64()), "-".into()]);
    print!("{}", table.render());

    let json = format!(
        "{{\n  \"bench\": \"replication\",\n  \"rows\": {},\n  \"deltas\": {},\n  \
         \"leader_seq\": {},\n  \"ingest_seconds\": {:.6},\n  \"bootstrap_seconds\": {:.6},\n  \
         \"catchup_seconds\": {:.6},\n  \"reopen_seconds\": {:.6},\n  \
         \"ship_frames_per_sec\": {:.1},\n  \"verified\": true\n}}\n",
        base.row_count(),
        n_deltas,
        leader_seq,
        ingest.as_secs_f64(),
        bootstrap_t.as_secs_f64(),
        catchup.as_secs_f64(),
        reopen_t.as_secs_f64(),
        frames_per_sec,
    );
    std::fs::write(&out_path, json).expect("write bench json");
    println!("\nwrote {out_path}");
}
