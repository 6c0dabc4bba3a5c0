//! Every number the paper states about the running example, verified
//! exactly: F1–F4 measures (§3–§4), the violating tuple sets (§1), the
//! §4.1 repair order and ranks, Tables 1 and 2 cell-for-cell, Table 3's
//! confidence column, and the §4.3 minimal two-attribute repairs.

use evofd::core::{
    candidate_pool, extend_by_one, order_fds, repair_fd, ConflictMode, Fd, Measures, RepairConfig,
};
use evofd::datagen::{places, places_f4, places_fds};
use evofd::storage::{AttrSet, DistinctCache, Relation};

fn measures(rel: &Relation, fd: &Fd) -> Measures {
    Measures::compute(rel, fd, &DistinctCache::new())
}

fn candidates_for(rel: &Relation, fd: &Fd) -> Vec<(String, f64, i64)> {
    let pool = candidate_pool(rel, fd);
    extend_by_one(rel, fd, &pool, &DistinctCache::new())
        .into_iter()
        .map(|c| {
            (rel.schema().attr_name(c.attr).to_string(), c.measures.confidence, c.measures.goodness)
        })
        .collect()
}

fn assert_close(actual: f64, expected: f64, what: &str) {
    assert!((actual - expected).abs() < 5e-4, "{what}: {actual} vs paper {expected}");
}

#[test]
fn figure1_shape() {
    let rel = places();
    assert_eq!(rel.row_count(), 11, "11 tuples t1..t11");
    assert_eq!(rel.arity(), 9, "9 attributes");
    assert!(rel.non_null_attrs().len() == 9, "no NULLs in Places");
}

#[test]
fn section1_fd_measures() {
    let rel = places();
    let fds = places_fds(&rel);
    // cF1 = 0.5, gF1 = -2
    let m1 = measures(&rel, &fds[0]);
    assert_close(m1.confidence, 0.5, "cF1");
    assert_eq!(m1.goodness, -2, "gF1");
    assert_eq!((m1.distinct_lhs, m1.distinct_lhs_rhs, m1.distinct_rhs), (2, 4, 4));
    // cF2 = 0.667, gF2 = -1
    let m2 = measures(&rel, &fds[1]);
    assert_close(m2.confidence, 0.667, "cF2");
    assert_eq!(m2.goodness, -1, "gF2");
    // cF3 = 0.889, gF3 = 1
    let m3 = measures(&rel, &fds[2]);
    assert_close(m3.confidence, 0.889, "cF3");
    assert_eq!(m3.goodness, 1, "gF3");
}

#[test]
fn section1_violating_tuples() {
    let rel = places();
    let fds = places_fds(&rel);
    // "All the tuples in Places violate F1": every tuple's (D,R) group
    // maps to more than one AreaCode.
    let f1 = &fds[0];
    for drop_row in 0..rel.row_count() {
        let keep: Vec<usize> = (0..rel.row_count()).filter(|&r| r != drop_row).collect();
        let sub = rel.gather(&keep);
        assert!(
            !f1.satisfied_naive(&sub),
            "removing t{} must not repair F1 — all tuples violate",
            drop_row + 1
        );
    }
    // "tuples t1, t2 and t3 violate F2": the Zip = 10211 group {t1,t2,t3}
    // is heterogeneous (NY,NY vs NY,MA). Note the paper's own measures
    // (cF2 = 4/6) force a *second* heterogeneous Zip group — |π_ZCS| = 6
    // over 4 zips cannot come from one split group — so §1's sentence
    // understates the violation set; see EXPERIMENTS.md. We verify the
    // named group violates and that removing it removes exactly one of
    // the two split groups.
    let f2 = &fds[1];
    assert!(!f2.satisfied_naive(&rel));
    let t123 = rel.gather(&[0, 1, 2]);
    assert!(!f2.satisfied_naive(&t123), "t1..t3 alone already violate F2");
    let without123 = rel.gather(&(3..11).collect::<Vec<_>>());
    let splits = |r: &Relation| {
        evofd::storage::count_distinct(r, &f2.attrs()) - evofd::storage::count_distinct(r, f2.lhs())
    };
    assert_eq!(splits(&rel), 2, "two heterogeneous zip groups overall");
    assert_eq!(splits(&without123), 1, "removing t1..t3 heals the 10211 group");
    // "tuples t10 and t11 violate F3".
    let f3 = &fds[2];
    let without_10_11 = rel.gather(&(0..9).collect::<Vec<_>>());
    assert!(f3.satisfied_naive(&without_10_11));
    assert!(!f3.satisfied_naive(&rel));
}

#[test]
fn section41_ordering_and_ranks() {
    let rel = places();
    let fds = places_fds(&rel);
    // Under the consequent-overlap conflict mode the paper's exact rank
    // values come out: F1 0.25, F2 0.167, F3 0.056.
    let ranked = order_fds(&rel, &fds, ConflictMode::SharedConsequents, &DistinctCache::new());
    assert_eq!(ranked[0].fd, fds[0]);
    assert_eq!(ranked[1].fd, fds[1]);
    assert_eq!(ranked[2].fd, fds[2]);
    assert_close(ranked[0].rank, 0.25, "O_F1");
    assert_close(ranked[1].rank, 0.167, "O_F2");
    assert_close(ranked[2].rank, 0.056, "O_F3");
    // The printed formula (shared XY attributes) yields the same order.
    let ranked2 = order_fds(&rel, &fds, ConflictMode::SharedAttrs, &DistinctCache::new());
    let order: Vec<&Fd> = ranked2.iter().map(|r| &r.fd).collect();
    assert_eq!(order, vec![&fds[0], &fds[1], &fds[2]]);
}

#[test]
fn table1_exact_cells() {
    let rel = places();
    let f1 = &places_fds(&rel)[0];
    let got = candidates_for(&rel, f1);
    let expected: [(&str, f64, i64); 6] = [
        ("Municipal", 1.0, 0),
        ("PhNo", 1.0, 3),
        ("Street", 0.875, 3),
        ("Zip", 0.8, 0),
        ("City", 0.8, 0),
        ("State", 0.6, -1),
    ];
    assert_eq!(got.len(), expected.len());
    for ((name, c, g), (ename, ec, eg)) in got.iter().zip(expected.iter()) {
        assert_eq!(name, ename, "ranking order");
        assert_close(*c, *ec, &format!("Table 1 confidence of {name}"));
        assert_eq!(g, eg, "Table 1 goodness of {name}");
    }
}

#[test]
fn f4_measures_and_table2() {
    let rel = places();
    let f4 = places_f4(&rel);
    let m = measures(&rel, &f4);
    assert_close(m.confidence, 2.0 / 7.0, "cF4 = 0.29");
    assert_eq!(m.goodness, -4, "gF4 = -4");

    let got = candidates_for(&rel, &f4);
    let expected: [(&str, f64, i64); 7] = [
        ("Street", 0.875, 1),
        ("Municipal", 0.571, -2),
        ("AreaCode", 0.571, -2),
        ("City", 0.571, -2),
        ("Zip", 0.5, -2),
        ("State", 0.429, -3),
        ("Region", 0.286, -4),
    ];
    assert_eq!(got.len(), expected.len());
    for ((name, c, g), (ename, ec, eg)) in got.iter().zip(expected.iter()) {
        assert_eq!(name, ename, "Table 2 ranking order");
        assert_close(*c, *ec, &format!("Table 2 confidence of {name}"));
        assert_eq!(g, eg, "Table 2 goodness of {name}");
    }
}

#[test]
fn table3_confidences_and_winner_set() {
    // Extending F4 with Street (the Table 2 winner): Table 3's confidence
    // column reproduces exactly; its goodness column is affected by a
    // printing slip in the paper (see EXPERIMENTS.md), so we check the
    // decision-relevant facts: the two exact candidates are Municipal and
    // AreaCode, with equal goodness.
    let rel = places();
    let f4 = places_f4(&rel);
    let f4s = f4.with_lhs_attr(rel.schema().resolve("Street").unwrap());
    let got = candidates_for(&rel, &f4s);
    let expected_conf: [(&str, f64); 5] =
        [("Municipal", 1.0), ("AreaCode", 1.0), ("Zip", 0.889), ("City", 0.875), ("State", 0.875)];
    // The candidate pool is R \ X'Y = 6 attributes; the paper's Table 3
    // prints five of them, omitting Region (which, refining nothing,
    // scores the same 0.875 as City/State).
    assert_eq!(got.len(), 6);
    let (_, region_c, _) = got.iter().find(|(n, _, _)| n == "Region").expect("in pool");
    assert_close(*region_c, 0.875, "Region confidence");
    for (name, ec) in expected_conf {
        let (_, c, _) = got.iter().find(|(n, _, _)| n == name).expect("candidate present");
        assert_close(*c, ec, &format!("Table 3 confidence of {name}"));
    }
    let exact: Vec<&str> =
        got.iter().filter(|(_, c, _)| *c == 1.0).map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(exact, vec!["Municipal", "AreaCode"]);
    let g_mun = got.iter().find(|(n, _, _)| n == "Municipal").unwrap().2;
    let g_area = got.iter().find(|(n, _, _)| n == "AreaCode").unwrap().2;
    assert_eq!(g_mun, g_area, "paper: 'they score the same value also for the goodness'");
}

#[test]
fn section43_minimal_repairs_of_f4() {
    let rel = places();
    let f4 = places_f4(&rel);
    let search = repair_fd(&rel, &f4, &RepairConfig::find_all()).unwrap();
    let min_len = search.repairs.iter().map(|r| r.added.len()).min().unwrap();
    assert_eq!(min_len, 2, "no single attribute repairs F4");
    let minimal: Vec<AttrSet> =
        search.repairs.iter().filter(|r| r.added.len() == 2).map(|r| r.added.clone()).collect();
    let street_municipal = rel.schema().attr_set(&["Street", "Municipal"]).unwrap();
    let street_areacode = rel.schema().attr_set(&["Street", "AreaCode"]).unwrap();
    assert!(
        minimal.contains(&street_municipal),
        "the paper's Street+Municipal repair is found: {minimal:?}"
    );
    assert!(
        minimal.contains(&street_areacode),
        "the paper's Street+AreaCode repair is found: {minimal:?}"
    );
    // Find-first returns one of the greedy pair immediately.
    let first = repair_fd(&rel, &f4, &RepairConfig::find_first()).unwrap();
    let best = first.best().unwrap();
    assert_eq!(best.added.len(), 2);
    assert!(best.added == street_municipal || best.added == street_areacode);
}

#[test]
fn figure2_cluster_views() {
    use evofd::core::FdClusterView;
    let rel = places();
    let schema = rel.schema();
    // Figure 2a: F1 is not a function.
    let f1 = Fd::parse(schema, "District, Region -> AreaCode").unwrap();
    assert!(!FdClusterView::of(&rel, &f1).induces_function());
    // Figure 2b: adding Municipal gives a *well-defined* (bijective) map.
    let f1m = Fd::parse(schema, "District, Region, Municipal -> AreaCode").unwrap();
    let view = FdClusterView::of(&rel, &f1m);
    assert!(view.induces_function());
    assert!(view.induces_bijection());
    // Figure 2c: adding PhNo gives a function but not a bijection.
    let f1p = Fd::parse(schema, "District, Region, PhNo -> AreaCode").unwrap();
    let view = FdClusterView::of(&rel, &f1p);
    assert!(view.induces_function());
    assert!(!view.induces_bijection());
}
