//! Observability guarantees of `evofd-obs`:
//!
//! * `registry_counts_are_exact_across_crash_recovery` — the global
//!   counters meter the durable engine exactly: one WAL append and one
//!   tracker delta per applied delta, and a crash replay re-meters the
//!   whole tail (recovery counter == replayed records, per-instance
//!   validator stats identical to the uninterrupted run).
//! * `enabling_instrumentation_never_changes_results` — a proptest:
//!   running any seeded delta stream with metrics enabled produces
//!   byte-for-byte the same relation snapshot, FD measures, summaries,
//!   drift events and work counters as the same stream with metrics
//!   disabled. Instrumentation observes, it never steers.

use std::path::PathBuf;
use std::sync::Mutex;

use evofd::core::Fd;
use evofd::datagen::SyntheticSpec;
use evofd::incremental::{Delta, IncrementalValidator, LiveRelation, ValidatorConfig};
use evofd::obs;
use evofd::persist::{DurableRelation, PersistOptions, SyncPolicy};
use evofd::storage::Relation;
use proptest::prelude::*;

/// The metrics registry is process-global; tests that enable it (or
/// assert exact counter deltas) must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("evofd_obs_equivalence_{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn planted(rows: usize, seed: u64) -> Relation {
    SyntheticSpec::planted_fd("obs", 2, 2, rows, 16, 0.01, seed).generate()
}

fn fds(rel: &Relation) -> Vec<Fd> {
    ["a0, a1 -> a4", "a0 -> a2"]
        .iter()
        .map(|t| Fd::parse(rel.schema(), t).expect("static FD"))
        .collect()
}

#[test]
fn registry_counts_are_exact_across_crash_recovery() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::enable();
    let dir = tmpdir("crash_exact");
    let base = planted(500, 7);
    let donor = planted(100, 8);
    // No fsync and no WAL-threshold checkpoint: every delta is exactly
    // one WAL frame, and the whole tail survives the kill.
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
    .unwrap();

    const N: usize = 40;
    let wal0 = obs::metrics::WAL_APPENDS_TOTAL.get();
    let trk0 = obs::metrics::TRACKER_DELTAS_TOTAL.get();
    for i in 0..N {
        t.apply(&Delta::inserting(vec![donor.row(i % donor.row_count())])).unwrap();
    }
    assert_eq!(obs::metrics::WAL_APPENDS_TOTAL.get() - wal0, N as u64, "one frame per delta");
    assert_eq!(obs::metrics::TRACKER_DELTAS_TOTAL.get() - trk0, N as u64, "one tracker apply each");
    let uninterrupted = t.validator().stats();
    drop(t); // kill without checkpoint

    let rec0 = obs::metrics::RECOVERY_REPLAYED_TOTAL.get();
    let trk1 = obs::metrics::TRACKER_DELTAS_TOTAL.get();
    let reopened = DurableRelation::open(&dir, opts).unwrap();
    assert_eq!(reopened.recovery().replayed, N, "whole tail replayed");
    assert_eq!(
        obs::metrics::RECOVERY_REPLAYED_TOTAL.get() - rec0,
        N as u64,
        "recovery counter matches the replayed tail exactly"
    );
    assert_eq!(
        obs::metrics::TRACKER_DELTAS_TOTAL.get() - trk1,
        N as u64,
        "replay re-meters the validator delta-for-delta"
    );
    assert_eq!(
        reopened.validator().stats(),
        uninterrupted,
        "per-instance work counters identical to the uninterrupted run"
    );
    obs::disable();
}

/// Run a seeded delta stream through a live relation + validator and
/// digest everything observable into one string: final snapshot rows,
/// per-FD measures + violation summaries, drift events in order, and
/// the validator's work counters.
fn stream_digest(seed: u64, n: usize) -> String {
    let base = planted(300, seed);
    let donor = planted(64, seed.wrapping_add(1));
    let mut live = LiveRelation::new(base.clone());
    let mut validator = IncrementalValidator::new(&live, fds(&base));
    let mut out = String::new();
    for i in 0..n {
        let mut delta = Delta::inserting(vec![donor.row(i % donor.row_count())]);
        if i % 3 == 0 {
            if let Some(row) = live.live_rows().nth(i % 5) {
                delta.deletes.push(row);
            }
        }
        let applied = live.apply(&delta).unwrap();
        let events = validator.apply(&live, &applied);
        out.push_str(&format!("step {i}: {events:?}\n"));
        if live.maybe_compact() > 0 {
            validator.resync(&live);
        }
    }
    // Digest row values directly — Relation's Debug form includes
    // HashMap-backed dictionaries whose order is not deterministic.
    let snap = live.snapshot();
    for r in 0..snap.row_count() {
        out.push_str(&format!("row {r}: {:?}\n", snap.row(r)));
    }
    for i in 0..validator.fds().len() {
        out.push_str(&format!("fd {i}: {:?} {:?}\n", validator.measures(i), validator.summary(i)));
    }
    out.push_str(&format!("stats: {:?}\n", validator.stats()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn enabling_instrumentation_never_changes_results(seed in 0u64..1000, n in 1usize..80) {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        obs::disable();
        let plain = stream_digest(seed, n);
        obs::enable();
        let instrumented = stream_digest(seed, n);
        obs::disable();
        prop_assert_eq!(plain, instrumented);
    }
}
