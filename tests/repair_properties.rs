//! Property-based tests (proptest) for the core invariants:
//!
//! * confidence characterises satisfaction: `c = 1 ⇔` Definition 2 holds;
//! * confidence bounds and the goodness identity;
//! * the distinct-count kernel ≡ naive grouping ≡ partition refinement,
//!   across NULLs, packed and unpacked keys, wide dictionaries and the
//!   empty cases;
//! * the first repair found is minimal (no proper subset of its added
//!   attributes yields an exact FD);
//! * every reported repair is exact; adding a UNIQUE column always
//!   repairs; find-first agrees with find-all's best.

use evofd::core::{confidence, is_satisfied, repair_fd, Fd, Measures, RepairConfig};
use evofd::storage::{
    count_distinct, count_distinct_naive, AttrSet, DataType, DistinctCache, Field, Partition,
    Relation, Schema, Value,
};
use proptest::prelude::*;

/// A random small relation: up to 6 attributes × up to 40 rows over tiny
/// domains (tiny domains make FD violations and repairs likely).
fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=6, 1usize..=40).prop_flat_map(|(arity, rows)| {
        let row = proptest::collection::vec(0u8..4, arity);
        proptest::collection::vec(row, rows).prop_map(move |data| {
            let fields: Vec<Field> =
                (0..arity).map(|i| Field::not_null(format!("a{i}"), DataType::Int)).collect();
            let schema = Schema::new("prop", fields).expect("unique names").into_shared();
            Relation::from_rows(
                schema,
                data.into_iter().map(|r| r.into_iter().map(|v| Value::Int(v as i64)).collect()),
            )
            .expect("types match")
        })
    })
}

/// A relation plus a random single-attribute-consequent FD over it.
fn arb_relation_fd() -> impl Strategy<Value = (Relation, Fd)> {
    arb_relation().prop_flat_map(|rel| {
        let arity = rel.arity();
        (Just(rel), 0usize..arity, 0usize..arity, proptest::bits::u8::masked(0b11)).prop_map(
            |(rel, lhs0, rhs, extra_mask)| {
                let mut lhs = AttrSet::single(evofd::storage::AttrId::from(lhs0));
                // Possibly widen the antecedent with up to 2 more attrs.
                for bit in 0..2usize {
                    if extra_mask & (1 << bit) != 0 {
                        lhs.insert(evofd::storage::AttrId::from((lhs0 + bit + 1) % rel.arity()));
                    }
                }
                let rhs_attr = evofd::storage::AttrId::from(rhs);
                let lhs = lhs.without(rhs_attr);
                let fd = Fd::new(lhs, AttrSet::single(rhs_attr)).expect("non-empty rhs");
                (rel, fd)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn confidence_characterises_satisfaction((rel, fd) in arb_relation_fd()) {
        let sat_counts = is_satisfied(&rel, &fd);
        let sat_naive = fd.satisfied_naive(&rel);
        prop_assert_eq!(sat_counts, sat_naive, "Definition 2 vs count equality");
        let c = confidence(&rel, &fd);
        prop_assert!(c > 0.0 && c <= 1.0, "confidence in (0,1]: {}", c);
        prop_assert_eq!(c == 1.0, sat_naive, "c = 1 iff satisfied");
    }

    #[test]
    fn goodness_identity((rel, fd) in arb_relation_fd()) {
        let m = Measures::compute(&rel, &fd, &DistinctCache::new());
        let lhs = count_distinct(&rel, fd.lhs()) as i64;
        let rhs = count_distinct(&rel, fd.rhs()) as i64;
        prop_assert_eq!(m.goodness, lhs - rhs);
        // Exact FDs always have non-negative goodness.
        if m.is_exact() {
            prop_assert!(m.goodness >= 0);
        }
    }

    #[test]
    fn monotone_counts((rel, fd) in arb_relation_fd()) {
        // |π_XY| >= |π_X| and |π_XY| >= |π_Y| — projections only merge.
        let x = count_distinct(&rel, fd.lhs());
        let y = count_distinct(&rel, fd.rhs());
        let xy = count_distinct(&rel, &fd.attrs());
        prop_assert!(xy >= x && xy >= y);
        prop_assert!(xy <= rel.row_count().max(1));
    }

    #[test]
    fn repairs_are_exact_and_first_is_minimal((rel, fd) in arb_relation_fd()) {
        prop_assume!(!is_satisfied(&rel, &fd));
        let search = repair_fd(&rel, &fd, &RepairConfig::find_all()).unwrap();
        for repair in &search.repairs {
            prop_assert!(repair.measures.is_exact(), "every reported repair is exact");
            prop_assert!(is_satisfied(&rel, &repair.fd));
            prop_assert!(repair.added.is_disjoint(&fd.attrs()));
        }
        if let Some(best) = search.best() {
            // Minimality: no strict subset of the added attributes works.
            let added: Vec<_> = best.added.iter().collect();
            for skip in 0..added.len() {
                let subset = AttrSet::from_attrs(
                    added.iter().enumerate().filter(|&(i, _)| i != skip).map(|(_, &a)| a),
                );
                let weaker = fd.with_lhs_attrs(&subset);
                prop_assert!(
                    !is_satisfied(&rel, &weaker),
                    "strict subset {} already repairs — not minimal",
                    subset
                );
            }
        }
    }

    #[test]
    fn find_first_matches_find_all_best((rel, fd) in arb_relation_fd()) {
        prop_assume!(!is_satisfied(&rel, &fd));
        let first = repair_fd(&rel, &fd, &RepairConfig::find_first()).unwrap();
        let all = repair_fd(&rel, &fd, &RepairConfig::find_all()).unwrap();
        match (first.best(), all.best()) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(&a.fd, &b.fd, "same best repair in both modes");
            }
            (a, b) => prop_assert!(false, "modes disagree: {:?} vs {:?}", a.is_some(), b.is_some()),
        }
        // find-first never finds more than one repair.
        prop_assert!(first.repairs.len() <= 1);
        prop_assert!(all.repairs.len() >= first.repairs.len());
    }

    #[test]
    fn unique_column_always_repairs(rel in arb_relation()) {
        // Append a unique column; any violated FD must then be repairable.
        let mut fields: Vec<Field> = rel.schema().fields().to_vec();
        fields.push(Field::not_null("uid", DataType::Int));
        let schema = Schema::new("prop_u", fields).expect("unique").into_shared();
        let rows = (0..rel.row_count()).map(|i| {
            let mut row = rel.row(i);
            row.push(Value::Int(i as i64));
            row
        });
        let rel2 = Relation::from_rows(schema, rows).expect("consistent");
        let fd = Fd::parse(rel2.schema(), "a0 -> a1").expect("exists");
        prop_assume!(!is_satisfied(&rel2, &fd));
        let search = repair_fd(&rel2, &fd, &RepairConfig::find_all()).unwrap();
        prop_assert!(search.best().is_some(), "the unique column guarantees a repair");
        // And a goodness threshold of 0 rejects pure-key repairs unless
        // they are genuinely bijective.
        let strict = RepairConfig { goodness_threshold: Some(0), ..RepairConfig::find_all() };
        let strict_search = repair_fd(&rel2, &fd, &strict).unwrap();
        for r in &strict_search.repairs {
            prop_assert_eq!(r.measures.abs_goodness(), 0);
        }
    }

    #[test]
    fn epsilon_cb_zero_iff_exact_and_bijective((rel, fd) in arb_relation_fd()) {
        let m = Measures::compute(&rel, &fd, &DistinctCache::new());
        let zero = m.epsilon_cb() == 0.0;
        prop_assert_eq!(zero, m.is_exact() && m.goodness == 0);
    }
}

/// A relation of nullable INT columns built from a row-major code grid:
/// `null_at` maps a cell value to NULL (pass `None` for a NULL-free table).
fn nullable_relation(arity: usize, data: &[Vec<u32>], null_at: Option<u32>) -> Relation {
    let fields: Vec<Field> =
        (0..arity).map(|i| Field::new(format!("a{i}"), DataType::Int)).collect();
    let schema = Schema::new("kernel", fields).expect("unique names").into_shared();
    let rows = data.iter().map(|r| {
        r.iter()
            .map(|&v| if Some(v) == null_at { Value::Null } else { Value::Int(v as i64) })
            .collect::<Vec<_>>()
    });
    Relation::from_rows(schema, rows).expect("types match")
}

/// The attribute sets a kernel case checks: the random mask, the full
/// set (more than 8 attributes at the top arities: a heap key) and the
/// empty set.
fn kernel_sets(arity: usize, mask: u16) -> Vec<AttrSet> {
    vec![
        AttrSet::from_indices((0..arity).filter(|i| mask & (1 << i) != 0)),
        AttrSet::full(arity),
        AttrSet::empty(),
    ]
}

/// The three counting strategies — the kernel, the value-hashing oracle
/// and the partition's class count — must agree exactly.
fn assert_kernels_agree(rel: &Relation, attrs: &AttrSet) -> Result<(), TestCaseError> {
    let kernel = count_distinct(rel, attrs);
    prop_assert_eq!(kernel, count_distinct_naive(rel, attrs), "naive, attrs {}", attrs);
    prop_assert_eq!(
        kernel,
        Partition::by_attrs(rel, attrs).n_classes(),
        "partition, attrs {}",
        attrs
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn distinct_counting_strategies_agree(
        (arity, data) in (1usize..=10, 0usize..=40).prop_flat_map(|(arity, rows)| {
            (Just(arity), proptest::collection::vec(proptest::collection::vec(0u32..6, arity), rows))
        }),
        with_nulls in 0u8..2,
        mask in 0u16..1024,
    ) {
        // Half the cases are NULL-free (packed keys for up to 4
        // attributes); the rest turn value 5 into NULL cells.
        let rel = nullable_relation(arity, &data, (with_nulls == 1).then_some(5));
        for attrs in kernel_sets(arity, mask) {
            assert_kernels_agree(&rel, &attrs)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn distinct_counting_strategies_agree_on_wide_dictionary(
        (arity, data) in (2usize..=5).prop_flat_map(|arity| {
            (Just(arity), proptest::collection::vec(proptest::collection::vec(0u32..4, arity - 1), 70_000))
        }),
        mask in 0u16..32,
    ) {
        // Column a0 holds more than 2^16 distinct values (row i carries
        // min(i, 66000), so the tail repeats one value): no attribute set
        // containing it can pack.
        let grid: Vec<Vec<u32>> = data
            .iter()
            .enumerate()
            .map(|(i, rest)| std::iter::once((i as u32).min(66_000)).chain(rest.iter().copied()).collect())
            .collect();
        let rel = nullable_relation(arity, &grid, None);
        prop_assert!(rel.column(evofd::storage::AttrId::from(0usize)).dict().len() > 1 << 16);
        for attrs in kernel_sets(arity, mask | 1) {
            assert_kernels_agree(&rel, &attrs)?;
        }
    }
}
