//! Property test: the tracker's fast representations are **observationally
//! identical** to each other and to the batch oracle on random delta
//! streams.
//!
//! Three validators replay the same stream of random inserts (including
//! NULLs) and deletes over a two-column relation with FDs `c0 -> c1` and
//! `c1 -> c0`:
//!
//! * **A** — built over the NULL-free-or-not base as-is; packed whenever
//!   the data qualifies, falling back mid-stream on the first NULL;
//! * **B** — built over the same base plus one trailing all-NULL row
//!   (immediately deleted again), which pins the tracker to the *general*
//!   representation for the whole stream while tracking the identical
//!   live multiset;
//! * **C** — built over A's relation under a tiny memory limit, so it
//!   degrades to the sketched *approximate* representation.
//!
//! After every delta: A's measures and violation aggregates must equal a
//! from-scratch batch computation (`Measures::compute` / `violations`) on
//! a canonical snapshot; A and B must agree on measures, drift events and
//! the byte-level canonical [`TrackerSnapshot`] export; C's exact
//! fallback (`exact_measures` / `exact_summary`) must equal the same
//! batch oracle, and its row count stays exact.
//!
//! A deterministic companion test drives the *other* pack-invalidation
//! edge — the key dictionary outgrowing 2^16 codes mid-stream — which is
//! too expensive to hit with random values.

use std::collections::HashSet;

use evofd_core::{violations, Fd, Measures};
use evofd_incremental::{Delta, IncrementalValidator, LiveRelation, ValidatorConfig};
use evofd_storage::{relation_of_strs, DistinctCache, Relation, Value};
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct DeltaSpec {
    inserts: Vec<Vec<Option<i64>>>,
    /// Random picks resolved against the currently-alive row list at
    /// replay time (`pick % alive.len()`), deduplicated.
    delete_picks: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Scenario {
    base: Vec<Vec<Option<i64>>>,
    deltas: Vec<DeltaSpec>,
}

/// A cell: small domain so groups collide and violations actually occur;
/// occasionally NULL so packed trackers fall back mid-stream.
fn lit() -> impl Strategy<Value = Option<i64>> {
    (0u8..16).prop_map(|x| if x < 14 { Some(i64::from(x % 5)) } else { None })
}

fn row() -> impl Strategy<Value = Vec<Option<i64>>> {
    vec(lit(), 2)
}

fn delta_spec() -> impl Strategy<Value = DeltaSpec> {
    (vec(row(), 0..4), vec(0usize..1024, 0..4))
        .prop_map(|(inserts, delete_picks)| DeltaSpec { inserts, delete_picks })
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (vec(row(), 0..20), vec(delta_spec(), 1..12))
        .prop_map(|(base, deltas)| Scenario { base, deltas })
}

fn cell(v: &Option<i64>) -> Value {
    match v {
        Some(n) => Value::str(format!("v{n}")),
        None => Value::Null,
    }
}

fn build_rel(rows: &[Vec<Option<i64>>]) -> Relation {
    let mut rel = relation_of_strs("t", &["c0", "c1"], &[]).unwrap();
    rel.append_rows(rows.iter().map(|r| r.iter().map(cell).collect::<Vec<_>>())).unwrap();
    rel
}

/// Drift comparison key: everything except `epoch`/`seq`, which lag one
/// delta between A and B (B spent an epoch deleting its pin row).
fn drift_key(d: &evofd_incremental::FdDrift) -> String {
    format!(
        "{} {:?} {} {} {:?}",
        d.fd_index, d.kind, d.confidence_before, d.confidence_after, d.groups
    )
}

fn run_scenario(sc: &Scenario) -> Result<(), TestCaseError> {
    let rel_a = build_rel(&sc.base);
    let mut base_b = sc.base.clone();
    base_b.push(vec![None, None]);
    let rel_b = build_rel(&base_b);
    let pin_row = sc.base.len();

    let fds: Vec<Fd> =
        ["c0 -> c1", "c1 -> c0"].iter().map(|t| Fd::parse(rel_a.schema(), t).unwrap()).collect();
    let config =
        ValidatorConfig { full_recompute_fraction: f64::INFINITY, ..ValidatorConfig::default() };
    let approx_config = ValidatorConfig { tracker_memory_limit: Some(1), ..config.clone() };

    let mut live_a = LiveRelation::new(rel_a);
    let mut live_b = LiveRelation::new(rel_b);
    let mut va = IncrementalValidator::with_config(&live_a, fds.clone(), config.clone());
    let mut vc = IncrementalValidator::with_config(&live_a, fds.clone(), approx_config);
    let mut vb = IncrementalValidator::with_config(&live_b, fds.clone(), config);

    // Delete B's pin row: from here on B tracks the same live multiset as
    // A, but its trackers saw a NULL at build time and stay general.
    let applied = live_b.apply(&Delta { inserts: vec![], deletes: vec![pin_row] }).unwrap();
    vb.apply(&live_b, &applied);
    for i in 0..fds.len() {
        prop_assert_eq!(vb.tracker_repr(i), "general");
    }

    let mut alive: Vec<usize> = (0..sc.base.len()).collect();
    for spec in &sc.deltas {
        let mut deleted = HashSet::new();
        let mut deletes = Vec::new();
        for &pick in &spec.delete_picks {
            if alive.is_empty() {
                break;
            }
            let r = alive[pick % alive.len()];
            if deleted.insert(r) {
                deletes.push(r);
            }
        }
        let inserts: Vec<Vec<Value>> =
            spec.inserts.iter().map(|r| r.iter().map(cell).collect()).collect();
        let delta_a = Delta { inserts: inserts.clone(), deletes: deletes.clone() };
        // A-row r maps to B-row r + 1 past the pin row's physical slot.
        let delta_b = Delta {
            inserts,
            deletes: deletes.iter().map(|&r| if r < pin_row { r } else { r + 1 }).collect(),
        };

        let applied_a = live_a.apply(&delta_a).unwrap();
        let drift_a = va.apply(&live_a, &applied_a);
        vc.apply(&live_a, &applied_a);
        let applied_b = live_b.apply(&delta_b).unwrap();
        let drift_b = vb.apply(&live_b, &applied_b);

        alive.retain(|r| !deleted.contains(r));
        alive.extend(applied_a.inserted.clone());

        // Representation-independence: identical drift, measures, bytes.
        let keys_a: Vec<String> = drift_a.iter().map(drift_key).collect();
        let keys_b: Vec<String> = drift_b.iter().map(drift_key).collect();
        prop_assert_eq!(keys_a, keys_b, "drift diverged between packed and general");
        prop_assert_eq!(va.export_trackers(), vb.export_trackers());

        // Batch oracle on a canonical snapshot.
        let snap = live_a.snapshot();
        let cache = DistinctCache::new();
        for (i, fd) in fds.iter().enumerate() {
            let m = Measures::compute(&snap, fd, &cache);
            prop_assert_eq!(va.measures(i), m);
            prop_assert_eq!(vb.measures(i), m);
            let report = violations(&snap, fd);
            let s = va.summary(i);
            prop_assert_eq!(s.violating_groups, report.groups.len());
            prop_assert_eq!(s.violating_rows, report.violating_rows());
            prop_assert_eq!(s.total_rows, alive.len());

            // The bounded tracker's exact fallback answers from live rows.
            prop_assert_eq!(vc.exact_measures(&live_a, i), m);
            let es = vc.exact_summary(&live_a, i);
            prop_assert_eq!(es.violating_groups, report.groups.len());
            prop_assert_eq!(es.violating_rows, report.violating_rows());
            prop_assert_eq!(vc.summary(i).total_rows, alive.len());
            if vc.is_approx(i) {
                let snap_c = &vc.export_trackers()[i];
                prop_assert!(snap_c.approx && snap_c.groups.is_empty());
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn representations_agree_on_random_delta_streams(sc in scenario()) {
        run_scenario(&sc)?;
    }
}

/// The dictionary-growth invalidation edge: a tracker that packed at
/// build time must fall back losslessly when delta traffic pushes a key
/// column's dictionary past 2^16 codes mid-stream.
#[test]
fn dictionary_growth_invalidates_packing_mid_stream() {
    let n0 = 60_000usize;
    let rows: Vec<Vec<String>> =
        (0..n0).map(|i| vec![format!("k{i}"), format!("v{}", i % 50)]).collect();
    let row_refs: Vec<Vec<&str>> =
        rows.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    let row_slices: Vec<&[&str]> = row_refs.iter().map(Vec::as_slice).collect();
    let rel = relation_of_strs("t", &["c0", "c1"], &row_slices).unwrap();
    let fds = vec![Fd::parse(rel.schema(), "c0 -> c1").unwrap()];
    let config =
        ValidatorConfig { full_recompute_fraction: f64::INFINITY, ..ValidatorConfig::default() };

    let mut live = LiveRelation::new(rel);
    let mut v = IncrementalValidator::with_config(&live, fds.clone(), config);
    assert_eq!(v.tracker_repr(0), "packed", "60k codes still fit 16 bits");

    // 6k fresh keys push c0's dictionary past 65 536 codes mid-delta.
    let inserts: Vec<Vec<Value>> =
        (0..6_000).map(|i| vec![Value::str(format!("fresh{i}")), Value::str("v0")]).collect();
    let applied = live.apply(&Delta { inserts, deletes: vec![] }).unwrap();
    v.apply(&live, &applied);
    assert_eq!(v.tracker_repr(0), "general", "wide code forced the fallback");

    // Lossless: byte-identical to a validator built from scratch on the
    // post-growth relation (which starts general), and exact vs batch.
    let fresh = IncrementalValidator::new(&live, fds.clone());
    assert_eq!(fresh.tracker_repr(0), "general");
    assert_eq!(v.export_trackers(), fresh.export_trackers());
    let snap = live.snapshot();
    let m = Measures::compute(&snap, &fds[0], &DistinctCache::new());
    assert_eq!(v.measures(0), m);
}
