//! `obs_overhead` — cost of the metrics/tracing layer on the hot paths.
//!
//! Two experiments, written to `BENCH_obs.json`:
//!
//! 1. **Incremental delta-apply** — single-row insert deltas through
//!    `IncrementalValidator` with instrumentation disabled vs enabled.
//! 2. **WAL append throughput** — the same stream journaled through a
//!    zero-FD `DurableRelation` at `no-sync` (pure append path).
//!
//! Each experiment alternates disabled/enabled runs within every rep
//! and gates on the **minimum paired ratio** — adjacent runs share
//! whatever frequency/IO drift the machine is under, so their ratio
//! isolates the instrumentation cost far better than comparing global
//! minima across drifting reps. The run **fails** (non-zero exit) if
//! either enabled-vs-disabled overhead exceeds the gate — this is the
//! CI observability smoke gate (`--smoke` shrinks the sizes).
//!
//! The disabled and enabled validator runs must also produce identical
//! FD measures: instrumentation observes, it never steers.
//!
//! Flags: `--rows N` (default 5000), `--deltas N` (default 2000),
//! `--reps N` (default 5), `--gate PCT` (default 5), `--seed S`,
//! `--out PATH`, `--smoke`.

use evofd_bench::{banner, timed, Args};
use evofd_core::{Fd, Measures, TextTable};
use evofd_datagen::SyntheticSpec;
use evofd_incremental::{Delta, IncrementalValidator, LiveRelation};
use evofd_persist::{DurableRelation, PersistOptions, SyncPolicy};
use evofd_storage::Relation;

fn fds(rel: &Relation) -> Vec<Fd> {
    ["a0, a1 -> a4", "a0 -> a2", "a2, a3 -> a0"]
        .iter()
        .map(|t| Fd::parse(rel.schema(), t).expect("static FD"))
        .collect()
}

/// Apply the stream through an incremental validator; return the elapsed
/// time and the final per-FD measures (for the equivalence assertion).
fn run_delta_apply(base: &Relation, stream: &[Delta]) -> (f64, Vec<Measures>) {
    let mut live = LiveRelation::new(base.clone());
    let mut validator = IncrementalValidator::new(&live, fds(base));
    let (_, elapsed) = timed(|| {
        for delta in stream {
            let applied = live.apply(delta).expect("apply");
            validator.apply(&live, &applied);
        }
    });
    let measures = (0..validator.fds().len()).map(|i| validator.measures(i)).collect();
    (elapsed.as_secs_f64(), measures)
}

/// Journal the stream through a zero-FD durable table at no-sync; return
/// the elapsed seconds (pure WAL append, never a snapshot or fsync).
fn run_wal_stream(base: &Relation, stream: &[Delta]) -> f64 {
    let dir =
        std::env::temp_dir().join(format!("evofd_bench_obs_{}", std::process::id())).join("wal");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = PersistOptions {
        sync: SyncPolicy::NoSync,
        wal_compact_bytes: u64::MAX,
        ..PersistOptions::default()
    };
    let mut t = DurableRelation::create(
        &dir,
        base.clone(),
        Vec::new(),
        evofd_incremental::ValidatorConfig::default(),
        opts,
    )
    .expect("create");
    let (_, elapsed) = timed(|| {
        for delta in stream {
            t.apply(delta).expect("apply");
        }
        t.sync().expect("final sync");
    });
    elapsed.as_secs_f64()
}

/// One experiment's paired measurement.
struct Paired {
    /// Fastest disabled run (seconds).
    disabled_min: f64,
    /// Fastest enabled run (seconds).
    enabled_min: f64,
    /// Overhead as a percentage: the minimum over reps of the
    /// within-rep `enabled / disabled` ratio.
    overhead_pct: f64,
}

/// Alternate disabled/enabled runs within every rep and keep the best
/// within-rep ratio. Pairing neighbours cancels machine drift that
/// spans a rep (CPU frequency, page cache, background IO); the minimum
/// over reps then strips the residual one-sided noise spikes.
fn alternate(reps: usize, mut run: impl FnMut() -> f64) -> Paired {
    let mut out =
        Paired { disabled_min: f64::INFINITY, enabled_min: f64::INFINITY, overhead_pct: f64::MAX };
    for _ in 0..reps {
        evofd_obs::disable();
        let off = run();
        evofd_obs::enable();
        let on = run();
        out.disabled_min = out.disabled_min.min(off);
        out.enabled_min = out.enabled_min.min(on);
        out.overhead_pct = out.overhead_pct.min((on / off.max(1e-12) - 1.0) * 100.0);
    }
    evofd_obs::disable();
    out
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let rows = args.get_or("rows", if smoke { 2000 } else { 5000usize });
    let n_deltas = args.get_or("deltas", if smoke { 1000 } else { 2000usize });
    let reps = args.get_or("reps", if smoke { 9 } else { 5usize });
    let gate = args.get_or("gate", 5.0f64);
    let seed = args.get_or("seed", 2016u64);
    let out_path = args.get("out").unwrap_or("BENCH_obs.json").to_string();

    banner(
        "obs_overhead — metrics/tracing cost on delta-apply and WAL appends",
        "alternating disabled/enabled reps, min per configuration; gate on overhead",
    );
    let base = SyntheticSpec::planted_fd("obs", 2, 2, rows, 64, 0.001, seed).generate();
    let donor =
        SyntheticSpec::planted_fd("obs", 2, 2, 4096.min(rows), 64, 0.001, seed + 1).generate();
    let stream: Vec<Delta> =
        (0..n_deltas).map(|i| Delta::inserting(vec![donor.row(i % donor.row_count())])).collect();
    println!(
        "base: {} rows × {} attrs; {} delta(s); {} rep(s) per configuration; gate {gate}%\n",
        base.row_count(),
        base.arity(),
        n_deltas,
        reps
    );

    // Instrumentation must not steer: measures agree across configurations.
    evofd_obs::disable();
    let (_, measures_off) = run_delta_apply(&base, &stream);
    evofd_obs::enable();
    let (_, measures_on) = run_delta_apply(&base, &stream);
    evofd_obs::disable();
    assert_eq!(measures_off, measures_on, "enabled run changed FD measures");

    let da = alternate(reps, || run_delta_apply(&base, &stream).0);
    let wal = alternate(reps, || run_wal_stream(&base, &stream));
    let (da_off, da_on, da_pct) = (da.disabled_min, da.enabled_min, da.overhead_pct);
    let (wal_off, wal_on, wal_pct) = (wal.disabled_min, wal.enabled_min, wal.overhead_pct);

    let mut table = TextTable::new(["experiment", "disabled s", "enabled s", "overhead"]);
    table.row([
        "delta-apply".into(),
        format!("{da_off:.4}"),
        format!("{da_on:.4}"),
        format!("{da_pct:+.2}%"),
    ]);
    table.row([
        "wal no-sync".into(),
        format!("{wal_off:.4}"),
        format!("{wal_on:.4}"),
        format!("{wal_pct:+.2}%"),
    ]);
    print!("{}", table.render());

    let passed = da_pct <= gate && wal_pct <= gate;
    let json = format!(
        "{{\n  \"rows\": {rows},\n  \"deltas\": {n_deltas},\n  \"reps\": {reps},\n  \
         \"seed\": {seed},\n  \"gate_pct\": {gate},\n  \
         \"delta_apply\": {{\"disabled_s\": {da_off:.6}, \"enabled_s\": {da_on:.6}, \
         \"overhead_pct\": {da_pct:.3}}},\n  \
         \"wal_nosync\": {{\"disabled_s\": {wal_off:.6}, \"enabled_s\": {wal_on:.6}, \
         \"overhead_pct\": {wal_pct:.3}}},\n  \
         \"measures_identical\": true,\n  \"passed\": {passed}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_obs.json");
    println!("\nwrote {out_path}");
    assert!(
        passed,
        "instrumentation overhead above {gate}% gate: delta-apply {da_pct:+.2}%, \
         WAL {wal_pct:+.2}%"
    );
    println!("overhead gate PASSED ({gate}% ceiling)");
}
