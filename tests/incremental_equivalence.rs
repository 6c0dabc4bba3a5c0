//! Delta-equivalence property tests for `evofd-incremental`:
//!
//! for random insert/delete sequences over random relations, the
//! incrementally maintained [`Measures`] and violation aggregates must
//! **exactly** match a from-scratch recompute on a canonical snapshot
//! after every single delta — including across compactions (which force
//! the epoch-gap rebuild path) and oversized deltas (which force the
//! fraction-based full-recompute path). Drift events must fire exactly
//! when exactness flips.
//!
//! 128 proptest cases × multi-step sequences, plus a deterministic
//! 150-step replay seeded via `evofd-datagen`.

use evofd::core::{violations, Fd, Measures};
use evofd::incremental::{Delta, DriftKind, IncrementalValidator, LiveRelation, ValidatorConfig};
use evofd::storage::{AttrId, AttrSet, DataType, DistinctCache, Field, Relation, Schema, Value};
use proptest::prelude::*;

/// One scripted change: `kind` selects insert / delete / mixed, `values`
/// feeds inserts, `sel` picks the victim among live rows for deletes.
type Op = (u8, Vec<u8>, u8);

fn int_row(vals: &[u8]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v as i64)).collect()
}

fn schema(arity: usize) -> std::sync::Arc<Schema> {
    let fields: Vec<Field> =
        (0..arity).map(|i| Field::not_null(format!("a{i}"), DataType::Int)).collect();
    Schema::new("live", fields).expect("unique names").into_shared()
}

/// Relation + two FDs + an op script.
fn arb_case() -> impl Strategy<Value = (Relation, Vec<Fd>, Vec<Op>)> {
    (2usize..=5, 0usize..=12).prop_flat_map(|(arity, base_rows)| {
        let row = proptest::collection::vec(0u8..4, arity);
        let ops = proptest::collection::vec(
            (0u8..6, proptest::collection::vec(0u8..4, arity), 0u8..255),
            1..14,
        );
        (proptest::collection::vec(row, base_rows), ops, 0usize..arity, 0usize..arity).prop_map(
            move |(data, ops, lhs, rhs)| {
                let rel = Relation::from_rows(schema(arity), data.iter().map(|r| int_row(r)))
                    .expect("typed");
                let rhs_attr = AttrId::from(rhs);
                let lhs_set = AttrSet::single(AttrId::from(lhs)).without(rhs_attr);
                let fd1 = Fd::new(lhs_set, AttrSet::single(rhs_attr)).expect("rhs non-empty");
                // A second FD over the first two attributes keeps the
                // multi-FD bookkeeping honest.
                let fd2 = Fd::new(
                    AttrSet::single(AttrId(0)).without(AttrId(1)),
                    AttrSet::single(AttrId(1)),
                )
                .expect("rhs non-empty");
                (rel, vec![fd1, fd2], ops)
            },
        )
    })
}

/// Assert the maintained state equals a from-scratch recompute.
fn assert_equivalent(live: &LiveRelation, v: &IncrementalValidator) -> Result<(), TestCaseError> {
    let snap = live.snapshot();
    let cache = DistinctCache::new();
    for (i, fd) in v.fds().iter().enumerate() {
        let full = Measures::compute(&snap, fd, &cache);
        prop_assert_eq!(v.measures(i), full, "measures diverged for FD #{}", i);
        let report = violations(&snap, fd);
        let summary = v.summary(i);
        prop_assert_eq!(summary.violating_groups, report.groups.len());
        prop_assert_eq!(summary.violating_rows, report.violating_rows());
        prop_assert_eq!(summary.total_rows, snap.row_count());
        prop_assert_eq!(summary.is_clean(), report.is_clean());
    }
    Ok(())
}

/// Interpret one op against the live relation. Returns the delta (may be
/// empty when a delete finds no victim).
fn op_to_delta(live: &LiveRelation, op: &Op) -> Delta {
    let (kind, values, sel) = op;
    let mut delta = Delta::new();
    let wants_insert = matches!(kind % 3, 0 | 2);
    let wants_delete = matches!(kind % 3, 1 | 2);
    if wants_delete && live.row_count() > 0 {
        let victim = live
            .live_rows()
            .nth(*sel as usize % live.row_count())
            .expect("index within live count");
        delta.deletes.push(victim);
    }
    if wants_insert {
        delta.inserts.push(int_row(values));
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_matches_full_recompute_after_every_delta(
        (rel, fds, ops) in arb_case()
    ) {
        let mut live = LiveRelation::new(rel).with_compact_threshold(0.4);
        let mut v = IncrementalValidator::new(&live, fds);
        assert_equivalent(&live, &v)?;

        for (step, op) in ops.iter().enumerate() {
            let delta = op_to_delta(&live, op);
            let before: Vec<bool> = (0..v.fds().len()).map(|i| v.is_exact(i)).collect();
            let applied = live.apply(&delta).expect("script only builds valid deltas");
            let drift = v.apply(&live, &applied);

            // Exactness flips must be announced, and only real flips.
            for (i, was_exact) in before.iter().enumerate() {
                let now_exact = v.is_exact(i);
                let flipped_down = drift.iter().any(|d| {
                    d.fd_index == i && matches!(d.kind, DriftKind::BecameViolated)
                });
                let flipped_up = drift.iter().any(|d| {
                    d.fd_index == i && matches!(d.kind, DriftKind::BecameExact)
                });
                prop_assert_eq!(flipped_down, *was_exact && !now_exact, "step {}", step);
                prop_assert_eq!(flipped_up, !*was_exact && now_exact, "step {}", step);
            }

            assert_equivalent(&live, &v)?;

            // Every third step, give compaction a chance: if it fires, the
            // next delta exercises the epoch-gap rebuild; an immediate
            // resync must also agree.
            if step % 3 == 2 && live.maybe_compact() > 0 {
                v.resync(&live);
                assert_equivalent(&live, &v)?;
            }
        }
    }

    #[test]
    fn oversized_deltas_rebuild_to_the_same_state(
        (rel, fds, _) in arb_case(),
        bulk in proptest::collection::vec(proptest::collection::vec(0u8..4, 5), 30..50)
    ) {
        // Force both paths over the same traffic and compare their states.
        let arity = rel.arity();
        let mut live_a = LiveRelation::new(rel.clone());
        let mut live_b = LiveRelation::new(rel);
        // `a` may choose full recomputes (tiny fraction); `b` never does.
        let mut v_a = IncrementalValidator::with_config(
            &live_a,
            fds.clone(),
            ValidatorConfig { full_recompute_fraction: 0.0, ..ValidatorConfig::default() },
        );
        let mut v_b = IncrementalValidator::with_config(
            &live_b,
            fds,
            ValidatorConfig {
                full_recompute_fraction: f64::INFINITY,
                ..ValidatorConfig::default()
            },
        );
        let rows: Vec<Vec<Value>> = bulk.iter().map(|r| int_row(&r[..arity])).collect();
        let delta = Delta::inserting(rows);
        let applied = live_a.apply(&delta).expect("valid");
        v_a.apply(&live_a, &applied);
        let applied = live_b.apply(&delta).expect("valid");
        v_b.apply(&live_b, &applied);

        prop_assert!(v_a.stats().full_recomputes >= 1);
        prop_assert_eq!(v_b.stats().full_recomputes, 0);
        for i in 0..v_a.fds().len() {
            prop_assert_eq!(v_a.measures(i), v_b.measures(i));
            prop_assert_eq!(v_a.summary(i), v_b.summary(i));
        }
        assert_equivalent(&live_a, &v_a)?;
    }
}

/// Deterministic replay seeded via `evofd-datagen`: a planted-FD relation
/// under 150 scripted deltas, equivalence checked at every step. This is
/// the fixed regression complement to the random cases above.
#[test]
fn datagen_seeded_replay_stays_equivalent() {
    use evofd::datagen::SyntheticSpec;

    let rel = SyntheticSpec::planted_fd("seeded", 2, 1, 400, 8, 0.05, 2016).generate();
    let donor = SyntheticSpec::planted_fd("seeded", 2, 1, 400, 8, 0.5, 7).generate();
    let fds = vec![
        Fd::parse(rel.schema(), "a0, a1 -> a3").unwrap(),
        Fd::parse(rel.schema(), "a0 -> a2").unwrap(),
    ];
    let mut live = LiveRelation::new(rel).with_compact_threshold(0.35);
    let mut v = IncrementalValidator::new(&live, fds);
    let feed = v.subscribe();

    let check = |live: &LiveRelation, v: &IncrementalValidator| {
        let snap = live.snapshot();
        let cache = DistinctCache::new();
        for (i, fd) in v.fds().iter().enumerate() {
            assert_eq!(v.measures(i), Measures::compute(&snap, fd, &cache), "FD #{i}");
            let report = violations(&snap, fd);
            assert_eq!(v.summary(i).violating_groups, report.groups.len());
            assert_eq!(v.summary(i).violating_rows, report.violating_rows());
        }
    };

    // A little deterministic LCG drives the op mix.
    let mut state = 0x2016_edb7u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for step in 0..150 {
        let mut delta = Delta::new();
        match next() % 3 {
            0 => {
                // Batch insert of 1..8 donor rows.
                for _ in 0..(next() % 8 + 1) {
                    delta.inserts.push(donor.row(next() % donor.row_count()));
                }
            }
            1 => {
                // Delete up to 5 distinct live rows.
                let live_ids: Vec<usize> = live.live_rows().collect();
                let mut victims = std::collections::BTreeSet::new();
                for _ in 0..(next() % 5 + 1).min(live_ids.len()) {
                    victims.insert(live_ids[next() % live_ids.len()]);
                }
                delta.deletes.extend(victims);
            }
            _ => {
                // Mixed batch.
                delta.inserts.push(donor.row(next() % donor.row_count()));
                if let Some(victim) = live.live_rows().next() {
                    delta.deletes.push(victim);
                }
            }
        }
        let applied = live.apply(&delta).expect("scripted deltas are valid");
        v.apply(&live, &applied);
        check(&live, &v);
        if step % 10 == 9 && live.maybe_compact() > 0 {
            v.resync(&live);
            check(&live, &v);
        }
    }
    let stats = v.stats();
    assert_eq!(stats.deltas, 150);
    assert!(stats.incremental > 100, "most deltas took the fast path: {stats:?}");
    assert!(v.poll(feed).len() as u64 == stats.events, "feed carried every event");
}
