//! Parallel ≡ sequential property tests for the `mintpool` execution
//! layer: distinct counting, FD validation, levelwise discovery, repair
//! search and incremental tracker maintenance must produce **exactly**
//! the width-1 results at every thread width 1..=4 — counts, measures,
//! mined FD lists, discovery work counters and drift-event streams alike.
//!
//! The width is process-global, so every test holds one lock while it
//! sweeps (the other integration-test binaries run in their own
//! processes and are unaffected).

use std::sync::{Mutex, MutexGuard};

use evofd::core::{
    discover_fds, repair_fd, validate, DiscoveryConfig, DiscoveryResult, Fd, RepairConfig,
};
use evofd::incremental::{Delta, FdDrift, IncrementalValidator, LiveRelation};
use evofd::storage::{
    count_distinct, count_distinct_naive, AttrId, AttrSet, DataType, Field, Partition, Relation,
    Schema, Value,
};
use proptest::prelude::*;

/// Serialise width sweeps: `set_threads` is process-wide.
fn width_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` once per width in 1..=4, restoring the default afterwards.
fn sweep_widths(mut f: impl FnMut(usize)) {
    for width in 1..=4 {
        evofd::pool::set_threads(width);
        f(width);
    }
    evofd::pool::set_threads(0);
}

fn int_row(vals: &[u8]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v as i64)).collect()
}

fn schema(arity: usize) -> std::sync::Arc<Schema> {
    let fields: Vec<Field> =
        (0..arity).map(|i| Field::not_null(format!("a{i}"), DataType::Int)).collect();
    Schema::new("par", fields).expect("unique names").into_shared()
}

fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=5, 0usize..=40).prop_flat_map(|(arity, rows)| {
        proptest::collection::vec(proptest::collection::vec(0u8..4, arity), rows).prop_map(
            move |data| {
                Relation::from_rows(schema(arity), data.iter().map(|r| int_row(r))).expect("typed")
            },
        )
    })
}

/// Mined FDs, measures, truncation and work counters must all match the
/// width-1 run.
fn assert_same_discovery(mined: &DiscoveryResult, baseline: &DiscoveryResult, width: usize) {
    assert_eq!(mined.fds.len(), baseline.fds.len(), "width {width}");
    for (a, b) in mined.fds.iter().zip(&baseline.fds) {
        assert_eq!(a.fd, b.fd, "width {width}");
        assert_eq!(a.measures, b.measures, "width {width}");
    }
    assert_eq!(mined.truncated, baseline.truncated, "width {width}");
    assert_eq!(mined.checks, baseline.checks, "checks at width {width}");
    assert_eq!(mined.nodes_visited, baseline.nodes_visited, "nodes visited at width {width}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partition_by_attrs_parallel_is_identical(rel in arb_relation(), mask in 1u8..31) {
        let _g = width_lock();
        let attrs = AttrSet::from_indices(
            (0..rel.arity()).filter(|i| mask & (1 << i) != 0),
        );
        evofd::pool::set_threads(1);
        let seq = Partition::by_attrs(&rel, &attrs);
        sweep_widths(|width| {
            // The partition and the counting kernel that replaced it on
            // the hot paths agree with the width-1 partition.
            assert_eq!(Partition::by_attrs(&rel, &attrs), seq, "by_attrs at width {width}");
            assert_eq!(count_distinct(&rel, &attrs), seq.n_classes(), "kernel at width {width}");
        });
        if !attrs.is_empty() {
            prop_assert_eq!(seq.n_classes(), count_distinct_naive(&rel, &attrs));
        }
    }

    #[test]
    fn count_distinct_and_validate_identical_across_widths(rel in arb_relation()) {
        let _g = width_lock();
        let sets: Vec<AttrSet> = (0..rel.arity())
            .map(|i| AttrSet::from_indices(0..=i))
            .collect();
        let fds: Vec<Fd> = (1..rel.arity())
            .map(|i| {
                Fd::new(AttrSet::single(AttrId::from(i - 1)), AttrSet::single(AttrId::from(i)))
                    .expect("non-empty rhs")
            })
            .collect();
        evofd::pool::set_threads(1);
        let counts: Vec<usize> = sets.iter().map(|s| count_distinct(&rel, s)).collect();
        let baseline = validate(&rel, &fds);
        sweep_widths(|width| {
            for (s, &expect) in sets.iter().zip(&counts) {
                assert_eq!(count_distinct(&rel, s), expect, "width {width}");
            }
            let report = validate(&rel, &fds);
            assert_eq!(report.row_count, baseline.row_count);
            for (a, b) in report.statuses.iter().zip(&baseline.statuses) {
                assert_eq!(a.fd, b.fd, "width {width}");
                assert_eq!(a.measures, b.measures, "width {width}");
            }
        });
    }

    #[test]
    fn discovery_identical_across_widths(
        rel in arb_relation(),
        approximate in 0u8..2,
        cap in 0usize..6,
    ) {
        let _g = width_lock();
        let min_confidence = if approximate == 0 { 1.0 } else { 0.7 };
        // A small `max_results` usually cuts the walk partway through a
        // lattice node; 0 keeps the default (no cut).
        let max_results = if cap == 0 { DiscoveryConfig::default().max_results } else { cap };
        let config = DiscoveryConfig { min_confidence, max_results, ..DiscoveryConfig::default() };
        evofd::pool::set_threads(1);
        let baseline = discover_fds(&rel, &config);
        sweep_widths(|width| assert_same_discovery(&discover_fds(&rel, &config), &baseline, width));
    }

    #[test]
    fn incremental_drift_identical_across_widths(
        rel in arb_relation(),
        ops in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(0u8..4, 5), 0u8..255),
            1..10,
        ),
    ) {
        let _g = width_lock();
        let arity = rel.arity();
        let fds: Vec<Fd> = (0..arity)
            .map(|i| {
                Fd::new(
                    AttrSet::single(AttrId::from(i)).without(AttrId::from((i + 1) % arity)),
                    AttrSet::single(AttrId::from((i + 1) % arity)),
                )
                .expect("non-empty rhs")
            })
            .collect();

        // Replay the identical delta script at each width; collect the
        // maintained measures and the full drift-event stream.
        let replay = |width: usize| -> (Vec<_>, Vec<FdDrift>) {
            evofd::pool::set_threads(width);
            let mut live = LiveRelation::new(rel.clone());
            let mut v = IncrementalValidator::new(&live, fds.clone());
            let mut events = Vec::new();
            for (kind, values, sel) in &ops {
                let mut delta = Delta::new();
                if matches!(kind % 3, 0 | 2) {
                    delta.inserts.push(int_row(&values[..arity]));
                }
                if matches!(kind % 3, 1 | 2) && live.row_count() > 0 {
                    let victim = live
                        .live_rows()
                        .nth(*sel as usize % live.row_count())
                        .expect("within live count");
                    delta.deletes.push(victim);
                }
                let applied = live.apply(&delta).expect("script builds valid deltas");
                events.extend(v.apply(&live, &applied));
            }
            let measures: Vec<_> = (0..fds.len()).map(|i| (v.measures(i), v.summary(i))).collect();
            (measures, events)
        };

        let (base_state, base_events) = replay(1);
        for width in 2..=4 {
            let (state, events) = replay(width);
            prop_assert_eq!(&state, &base_state, "state diverged at width {}", width);
            prop_assert_eq!(&events, &base_events, "drift diverged at width {}", width);
        }
        evofd::pool::set_threads(0);
    }
}

/// Deterministic end-to-end sweep on seeded datagen: repair searches and
/// the full validate/discover pipeline agree between the sequential
/// engine and every parallel width (the fixed-regression complement to
/// the random cases above).
#[test]
fn seeded_pipeline_identical_across_widths() {
    use evofd::datagen::SyntheticSpec;

    let _g = width_lock();
    let rel = SyntheticSpec::planted_fd("seeded", 2, 2, 600, 8, 0.05, 2016).generate();
    let fds: Vec<Fd> = ["a0, a1 -> a4", "a0 -> a2", "a2, a3 -> a0"]
        .iter()
        .map(|t| Fd::parse(rel.schema(), t).unwrap())
        .collect();

    evofd::pool::set_threads(1);
    let base_report = validate(&rel, &fds);
    let base_search = repair_fd(&rel, &fds[0], &RepairConfig::find_all()).unwrap();
    let base_mined = discover_fds(&rel, &DiscoveryConfig::default());

    sweep_widths(|width| {
        let report = validate(&rel, &fds);
        for (a, b) in report.statuses.iter().zip(&base_report.statuses) {
            assert_eq!(a.measures, b.measures, "width {width}");
        }
        let search = repair_fd(&rel, &fds[0], &RepairConfig::find_all()).unwrap();
        assert_eq!(search.repairs.len(), base_search.repairs.len(), "width {width}");
        for (a, b) in search.repairs.iter().zip(&base_search.repairs) {
            assert_eq!(a.fd, b.fd, "width {width}");
            assert_eq!(a.added, b.added, "width {width}");
            assert_eq!(a.measures, b.measures, "width {width}");
        }
        let mined = discover_fds(&rel, &DiscoveryConfig::default());
        assert_eq!(mined.fds.len(), base_mined.fds.len(), "width {width}");
        for (a, b) in mined.fds.iter().zip(&base_mined.fds) {
            assert_eq!(a.fd, b.fd, "width {width}");
        }
    });
}

/// Discovery work counters on TPC-H lineitem (sf 0.001, antecedents up to
/// 2 attributes) match width 1 when `max_results` cuts the walk partway
/// through a lattice node, as well as when it does not.
#[test]
fn discovery_counters_identical_across_widths_on_lineitem() {
    use evofd::datagen::{generate_table, TpchSpec, TpchTable};

    let _g = width_lock();
    let lineitem = generate_table(&TpchSpec::new(0.001), TpchTable::Lineitem);
    for max_results in [1, 10, usize::MAX] {
        let config = DiscoveryConfig { max_lhs: 2, max_results, ..DiscoveryConfig::default() };
        evofd::pool::set_threads(1);
        let baseline = discover_fds(&lineitem, &config);
        sweep_widths(|width| {
            assert_same_discovery(&discover_fds(&lineitem, &config), &baseline, width);
        });
    }
}

/// Parallel CSV ingest (chunked `RelationBuilder` coding + deterministic
/// dictionary merge) produces a relation physically identical to the
/// sequential reader — same dictionaries, same codes — at every width and
/// at several forced chunk sizes, above and below the auto-dispatch
/// threshold.
#[test]
fn csv_ingest_identical_across_widths() {
    use evofd::storage::{read_csv_str, read_csv_str_chunked, CsvOptions};

    let _g = width_lock();
    // 10_000 records (over the 8192-row parallel threshold) with heavy
    // value repetition across chunk boundaries, NULLs, quoting and mixed
    // inferred types.
    let mut text = String::from("name,qty,price,note\n");
    for i in 0..10_000 {
        text.push_str(&format!("u{},{},{}.5,\"n,{}\"\n", i % 97, i % 13, i % 7, i % 5));
    }
    text.push_str("straggler,,,\n");

    evofd::pool::set_threads(1);
    let seq = read_csv_str("t", &text, &CsvOptions::default()).unwrap();

    let assert_identical = |par: &Relation, what: &str| {
        assert_eq!(par.schema(), seq.schema(), "{what}");
        assert_eq!(par.row_count(), seq.row_count(), "{what}");
        for (a, b) in seq.columns().iter().zip(par.columns()) {
            assert_eq!(a.dict().values(), b.dict().values(), "{what}: dict of {}", a.name());
            assert_eq!(a.codes(), b.codes(), "{what}: codes of {}", a.name());
        }
    };

    sweep_widths(|width| {
        // The public reader auto-dispatches to the chunked path here.
        let par = read_csv_str("t", &text, &CsvOptions::default()).unwrap();
        assert_identical(&par, &format!("auto dispatch at width {width}"));
        // And odd forced chunkings stay identical too.
        for chunk_rows in [1, 97, 1000, 4096, 20_000] {
            let par = read_csv_str_chunked("t", &text, &CsvOptions::default(), chunk_rows).unwrap();
            assert_identical(&par, &format!("chunk {chunk_rows} at width {width}"));
        }
    });
}
