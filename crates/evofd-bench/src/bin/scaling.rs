//! `scaling` — thread-count sweep over the parallel execution layer.
//!
//! Measures every `mintpool` fan-out the engine keeps — full-relation FD
//! validation on synthetic and TPC-H-style data (one task per FD),
//! levelwise discovery on lineitem (one task per lattice node), the
//! find-all repair search (one task per FD, and per candidate inside
//! each search) and incremental tracker maintenance (one task per FD) —
//! at widths 1/2/4/8 (or `--threads …`), asserting at every width that
//! the results are identical to the 1-thread baseline, and writes the
//! timings to `BENCH_parallel.json`. Distinct counting itself is one
//! sequential kernel, so it has no width to sweep.
//!
//! Flags: `--rows N` (default 100_000), `--threads 1,2,4,8`, `--seed S`,
//! `--reps R` (best-of-R timing, default 3), `--out PATH`.
//!
//! Speedups only materialise when the host exposes enough cores — the
//! emitted JSON records `available_parallelism` so readers can tell a
//! flat sweep on a 1-core CI container from a real regression.

use evofd_bench::{banner, git_revision, timed, Args};
use evofd_core::{
    discover_fds, find_fd_repairs, validate, DiscoveryConfig, Fd, RepairConfig, TextTable,
};
use evofd_datagen::{generate_table, SyntheticSpec, TpchSpec, TpchTable};
use evofd_incremental::{Delta, IncrementalValidator, LiveRelation, ValidatorConfig};
use evofd_storage::Value;

/// One timed (threads, seconds) sample plus its identity check digest.
struct Sample {
    threads: usize,
    seconds: f64,
}

/// A workload: a name and a closure returning (digest, seconds). The
/// digest must be identical at every width.
struct Workload<'a> {
    name: &'static str,
    #[allow(clippy::type_complexity)]
    run: Box<dyn Fn() -> u64 + 'a>,
}

/// Cheap structural digest so cross-width identity checks are one number.
fn digest(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        h ^= p;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One FD plus a count from its measures, folded into a digest part.
fn fd_digest(fd: &Fd, count: usize) -> u64 {
    let bits = |set: &evofd_storage::AttrSet| set.iter().fold(0u64, |acc, a| acc | 1 << a.0);
    digest([bits(fd.lhs()), bits(fd.rhs()), count as u64])
}

fn main() {
    let args = Args::from_env();
    let rows = args.get_or("rows", 100_000usize);
    let sweep = args.list_or("threads", &[1, 2, 4, 8]);
    let seed = args.get_or("seed", 2016u64);
    let reps = args.get_or("reps", 3usize).max(1);
    let out_path = args.get("out").unwrap_or("BENCH_parallel.json").to_string();

    banner(
        "scaling — parallel execution layer thread sweep",
        "validation / discovery / repair search / tracker maintenance at widths 1..8",
    );
    let cores = mintpool::available_parallelism();
    println!("host parallelism: {cores} core(s); sweeping widths {sweep:?}\n");
    if cores < sweep.iter().copied().max().unwrap_or(1) {
        println!(
            "NOTE: fewer cores than the widest setting — expect flat speedups; \
             the sweep still verifies parallel == sequential results.\n"
        );
    }

    // Synthetic relation with a planted, lightly violated FD a0,a1 -> a4.
    let synth = SyntheticSpec::planted_fd("scale", 2, 2, rows, 64, 0.001, seed).generate();
    let synth_fds: Vec<Fd> = ["a0, a1 -> a4", "a0 -> a2", "a2, a3 -> a0", "a1, a2 -> a3"]
        .iter()
        .map(|t| Fd::parse(synth.schema(), t).expect("static FD"))
        .collect();

    // TPC-H-style lineitem sized to roughly --rows tuples.
    let tpch_scale = (rows as f64 / 6_000_000.0).max(0.0005);
    let lineitem = generate_table(&TpchSpec { scale: tpch_scale, seed }, TpchTable::Lineitem);
    let tpch_fds: Vec<Fd> = [
        "l_orderkey, l_linenumber -> l_partkey",
        "l_partkey -> l_suppkey",
        "l_orderkey, l_partkey, l_suppkey -> l_quantity",
    ]
    .iter()
    .map(|t| Fd::parse(lineitem.schema(), t).expect("static FD"))
    .collect();

    // Incremental traffic: a 1% mixed delta from a donor generation.
    let donor = SyntheticSpec::planted_fd("scale", 2, 2, 4096, 64, 0.01, seed + 1).generate();
    let changes = (rows / 100).max(8);
    let inserts: Vec<Vec<Value>> =
        (0..changes / 2).map(|i| donor.row(i % donor.row_count())).collect();
    let delta = Delta { inserts, deletes: (0..changes / 2).collect() };
    let tracker_fds: Vec<Fd> = synth_fds.iter().chain(&synth_fds).cloned().collect();

    let discovery = DiscoveryConfig { max_lhs: 2, ..DiscoveryConfig::default() };

    let workloads: Vec<Workload> = vec![
        Workload {
            name: "validate_synthetic",
            run: Box::new(|| {
                let report = validate(&synth, &synth_fds);
                digest(report.statuses.iter().map(|s| {
                    (s.measures.distinct_lhs as u64) << 32 | s.measures.distinct_lhs_rhs as u64
                }))
            }),
        },
        Workload {
            name: "validate_tpch_lineitem",
            run: Box::new(|| {
                let report = validate(&lineitem, &tpch_fds);
                digest(report.statuses.iter().map(|s| {
                    (s.measures.distinct_lhs as u64) << 32 | s.measures.distinct_lhs_rhs as u64
                }))
            }),
        },
        Workload {
            name: "discover_fds_tpch_lineitem",
            run: Box::new(|| {
                let mined = discover_fds(&lineitem, &discovery);
                digest(
                    mined
                        .fds
                        .iter()
                        .map(|d| fd_digest(&d.fd, d.measures.distinct_lhs_rhs))
                        .chain([mined.checks as u64, mined.nodes_visited as u64]),
                )
            }),
        },
        Workload {
            name: "repair_fd_find_all_synthetic",
            run: Box::new(|| {
                let outcomes = find_fd_repairs(&synth, &synth_fds, &RepairConfig::find_all());
                digest(outcomes.iter().flat_map(|o| o.search.iter()).flat_map(|search| {
                    search.repairs.iter().map(|r| fd_digest(&r.fd, r.measures.distinct_lhs))
                }))
            }),
        },
        Workload {
            name: "tracker_maintenance",
            run: Box::new(|| {
                let mut live = LiveRelation::new(synth.clone());
                let config = ValidatorConfig {
                    full_recompute_fraction: f64::INFINITY,
                    ..ValidatorConfig::default()
                };
                let mut validator =
                    IncrementalValidator::with_config(&live, tracker_fds.clone(), config);
                let applied = live.apply(&delta).expect("valid delta");
                validator.apply(&live, &applied);
                digest((0..validator.fds().len()).map(|i| {
                    let m = validator.measures(i);
                    (m.distinct_lhs as u64) << 32 | m.distinct_lhs_rhs as u64
                }))
            }),
        },
    ];

    println!(
        "synthetic: {} rows × {} attrs; lineitem: {} rows × {} attrs; delta: {} changes\n",
        synth.row_count(),
        synth.arity(),
        lineitem.row_count(),
        lineitem.arity(),
        delta.len(),
    );

    let mut table = TextTable::new(["workload", "threads", "seconds", "speedup vs 1"]);
    let mut json_workloads: Vec<String> = Vec::new();

    for w in &workloads {
        // The identity gate and the speedup denominator are ALWAYS the
        // sequential width-1 run, whatever `--threads` sweeps — trimming
        // 1 out of the sweep must not weaken parallel == sequential.
        mintpool::set_threads(1);
        let baseline_digest = (w.run)();
        let mut base = f64::INFINITY;
        for _ in 0..reps {
            let (_, elapsed) = timed(|| std::hint::black_box((w.run)()));
            base = base.min(elapsed.as_secs_f64());
        }

        let mut samples: Vec<Sample> = Vec::new();
        for &t in &sweep {
            if t <= 1 {
                samples.push(Sample { threads: 1, seconds: base });
                continue;
            }
            mintpool::set_threads(t);
            // Warm-up run doubles as the identity check at this width.
            let d = (w.run)();
            assert_eq!(
                d, baseline_digest,
                "{}: parallel result diverged from sequential (threads {t})",
                w.name
            );
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let (_, elapsed) = timed(|| std::hint::black_box((w.run)()));
                best = best.min(elapsed.as_secs_f64());
            }
            samples.push(Sample { threads: t, seconds: best });
        }
        mintpool::set_threads(1);
        let entries: Vec<String> = samples
            .iter()
            .map(|s| {
                let speedup = base / s.seconds.max(1e-12);
                table.row([
                    w.name.to_string(),
                    s.threads.to_string(),
                    format!("{:.4}", s.seconds),
                    format!("{speedup:.2}x"),
                ]);
                format!(
                    "{{\"threads\": {}, \"seconds\": {:.6}, \"speedup_vs_1\": {:.3}}}",
                    s.threads, s.seconds, speedup
                )
            })
            .collect();
        json_workloads.push(format!(
            "    {{\"name\": \"{}\", \"width1_seconds\": {base:.6}, \"results\": [{}]}}",
            w.name,
            entries.join(", ")
        ));
    }

    print!("{}", table.render());

    let json = format!(
        "{{\n  \"bench\": \"scaling\",\n  \"available_parallelism\": {cores},\n  \
         \"rows\": {rows},\n  \"seed\": {seed},\n  \"git_revision\": \"{}\",\n  \
         \"threads_swept\": {sweep:?},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        git_revision(),
        json_workloads.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_parallel.json");
    println!("\nwrote {out_path} (every width asserted identical to the sequential baseline)");
}
