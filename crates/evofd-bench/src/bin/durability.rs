//! `durability` — throughput and recovery study of `evofd-persist`.
//!
//! Three experiments, written to `BENCH_persist.json`:
//!
//! 1. **Write throughput** — deltas/sec through the WAL at each fsync
//!    policy (`per-commit`, `group:64`, `no-sync`), the classic
//!    group-commit trade-off.
//! 2. **Recovery time vs WAL length** — kill a table after T journaled
//!    deltas (no checkpoint) and time `DurableRelation::open`, showing
//!    recovery is O(tail).
//! 3. **Kill-and-reopen verification** — apply a mixed insert/delete
//!    stream against FDs under incremental validation, drop without
//!    checkpoint, reopen, and assert the recovered tracker measures are
//!    identical to both the uninterrupted in-memory run and a from-scratch
//!    batch recompute. This doubles as the CI durability smoke gate
//!    (`--smoke` shrinks the sizes).
//!
//! Flags: `--rows N` (base relation, default 5000), `--deltas N`
//! (default 2000), `--wal-sweep 256,1024,4096`, `--seed S`,
//! `--out PATH`, `--smoke`.

use std::path::PathBuf;

use evofd_bench::{banner, timed, Args};
use evofd_core::{Fd, TextTable};
use evofd_datagen::SyntheticSpec;
use evofd_incremental::{Delta, IncrementalValidator, LiveRelation, ValidatorConfig};
use evofd_persist::{DurableRelation, PersistOptions, SyncPolicy};
use evofd_storage::Relation;

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("evofd_bench_durability_{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Base relation with a planted, lightly violated FD `a0,a1 -> a4`.
fn base_relation(rows: usize, seed: u64) -> Relation {
    SyntheticSpec::planted_fd("wal", 2, 2, rows, 64, 0.001, seed).generate()
}

fn fds(rel: &Relation) -> Vec<Fd> {
    ["a0, a1 -> a4", "a0 -> a2", "a2, a3 -> a0"]
        .iter()
        .map(|t| Fd::parse(rel.schema(), t).expect("static FD"))
        .collect()
}

/// A stream of single-row insert deltas drawn from a donor relation.
fn insert_stream(donor: &Relation, n: usize) -> Vec<Delta> {
    (0..n).map(|i| Delta::inserting(vec![donor.row(i % donor.row_count())])).collect()
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let rows = args.get_or("rows", if smoke { 2000 } else { 5000usize });
    let n_deltas = args.get_or("deltas", if smoke { 1000 } else { 2000usize });
    let sweep = args.list_or("wal-sweep", if smoke { &[256, 1024] } else { &[256, 1024, 4096] });
    let seed = args.get_or("seed", 2016u64);
    let out_path = args.get("out").unwrap_or("BENCH_persist.json").to_string();

    banner(
        "durability — delta WAL throughput, recovery time, kill-and-reopen",
        "fsync-per-commit vs group-commit vs no-sync; recovery is O(WAL tail)",
    );
    let base = base_relation(rows, seed);
    let donor = base_relation(4096.min(rows), seed + 1);
    println!(
        "base: {} rows × {} attrs; {} delta commit(s) per policy; WAL sweep {:?}\n",
        base.row_count(),
        base.arity(),
        n_deltas,
        sweep
    );

    // 1. Write throughput per sync policy. Huge snapshot threshold so the
    //    measurement is pure WAL appends, never a snapshot write.
    let policies = [SyncPolicy::PerCommit, SyncPolicy::GroupCommit(64), SyncPolicy::NoSync];
    let mut table = TextTable::new(["sync policy", "seconds", "deltas/sec"]);
    let mut json_policies = Vec::new();
    for policy in policies {
        let dir = bench_dir(&format!("writes_{policy}"));
        let opts = PersistOptions {
            sync: policy,
            wal_compact_bytes: u64::MAX,
            ..PersistOptions::default()
        };
        let mut t = DurableRelation::create(
            &dir,
            base.clone(),
            Vec::new(),
            ValidatorConfig::default(),
            opts,
        )
        .expect("create");
        let stream = insert_stream(&donor, n_deltas);
        let (_, elapsed) = timed(|| {
            for delta in &stream {
                t.apply(delta).expect("apply");
            }
            t.sync().expect("final sync");
        });
        let secs = elapsed.as_secs_f64();
        let rate = n_deltas as f64 / secs.max(1e-12);
        table.row([policy.to_string(), format!("{secs:.4}"), format!("{rate:.0}")]);
        json_policies.push(format!(
            "    {{\"policy\": \"{policy}\", \"seconds\": {secs:.6}, \"deltas_per_sec\": {rate:.1}}}"
        ));
    }
    print!("{}", table.render());

    // 2. Recovery time vs WAL length: kill after T deltas, time open().
    let mut table = TextTable::new(["WAL records", "WAL bytes", "recovery s", "replayed"]);
    let mut json_recovery = Vec::new();
    for &t_records in &sweep {
        let dir = bench_dir(&format!("recovery_{t_records}"));
        let opts = PersistOptions {
            sync: SyncPolicy::NoSync,
            wal_compact_bytes: u64::MAX,
            ..PersistOptions::default()
        };
        let mut t = DurableRelation::create(
            &dir,
            base.clone(),
            fds(&base),
            ValidatorConfig::default(),
            opts.clone(),
        )
        .expect("create");
        for delta in insert_stream(&donor, t_records) {
            t.apply(&delta).expect("apply");
        }
        t.sync().expect("sync");
        let wal_bytes = t.wal_bytes();
        drop(t); // kill without checkpoint
        let (reopened, elapsed) =
            timed(|| DurableRelation::open(&dir, opts.clone()).expect("open"));
        let secs = elapsed.as_secs_f64();
        assert_eq!(reopened.recovery().replayed, t_records, "whole tail replayed");
        table.row([
            t_records.to_string(),
            wal_bytes.to_string(),
            format!("{secs:.4}"),
            reopened.recovery().replayed.to_string(),
        ]);
        json_recovery.push(format!(
            "    {{\"records\": {t_records}, \"wal_bytes\": {wal_bytes}, \
             \"seconds\": {secs:.6}, \"replayed\": {}}}",
            reopened.recovery().replayed
        ));
    }
    print!("{}", table.render());

    // 3. Kill-and-reopen equivalence: mixed traffic, FDs under watch.
    let dir = bench_dir("verify");
    let opts = PersistOptions::default();
    let mut durable = DurableRelation::create(
        &dir,
        base.clone(),
        fds(&base),
        ValidatorConfig::default(),
        opts.clone(),
    )
    .expect("create");
    let mut live = LiveRelation::new(base.clone());
    live.set_compact_threshold(opts.compact_threshold);
    let mut validator = IncrementalValidator::new(&live, fds(&base));

    let mut deleted = 0usize;
    for (i, mut delta) in insert_stream(&donor, n_deltas).into_iter().enumerate() {
        if i % 3 == 0 {
            // Mix in a delete of the oldest surviving physical row.
            if let Some(row) = live.live_rows().nth(deleted % 7) {
                delta.deletes.push(row);
                deleted += 1;
            }
        }
        durable.apply(&delta).expect("durable apply");
        let applied = live.apply(&delta).expect("twin apply");
        validator.apply(&live, &applied);
        if live.maybe_compact() > 0 {
            validator.resync(&live);
        }
    }
    drop(durable); // kill
    let recovered = DurableRelation::open(&dir, opts).expect("reopen");
    assert_eq!(recovered.live().epoch(), live.epoch(), "epochs agree");
    assert_eq!(recovered.live().live_mask(), live.live_mask(), "tombstones agree");
    let snapshot = recovered.live().snapshot();
    let batch = recovered.validator().verify_against(&snapshot);
    for (i, status) in batch.statuses.iter().enumerate() {
        assert_eq!(
            recovered.validator().measures(i),
            validator.measures(i),
            "FD #{i}: recovered vs uninterrupted"
        );
        assert_eq!(
            recovered.validator().measures(i),
            status.measures,
            "FD #{i}: recovered vs batch recompute"
        );
    }
    println!(
        "\nkill-and-reopen verification PASSED: {} delta(s), {} live row(s), {} FD(s) — \
         recovered measures identical to the uninterrupted run and a batch recompute",
        n_deltas,
        recovered.live().row_count(),
        recovered.validator().fds().len()
    );

    let json = format!(
        "{{\n  \"rows\": {rows},\n  \"deltas\": {n_deltas},\n  \"seed\": {seed},\n  \
         \"policies\": [\n{}\n  ],\n  \"recovery\": [\n{}\n  ],\n  \"verified\": true\n}}\n",
        json_policies.join(",\n"),
        json_recovery.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_persist.json");
    println!("wrote {out_path}");
}
