//! Conditional functional dependencies (CFDs) — the §7 "extend the method
//! to other kinds of constraints" direction, built on the same measures.
//!
//! A CFD `(X → Y, tp)` holds an FD only on the tuples matching a pattern
//! `tp` (constants or wildcards over a set of condition attributes). This
//! gives the designer a *second* way to evolve a violated FD, dual to the
//! paper's antecedent extension:
//!
//! * **extend** (the paper): `X → Y` becomes `XU → Y` on all tuples;
//! * **condition** (this module): `X → Y` becomes `(X → Y, B = b)` — the
//!   constraint retreats to the scope where it still describes reality.
//!
//! [`condition_repairs`] ranks single-attribute conditionings by the
//! fraction of tuples they keep governed, reusing confidence per scope.

use evofd_storage::{AttrId, DistinctCache, Partition, Relation, Value};

use crate::fd::Fd;
use crate::measures::Measures;

/// A single-tuple pattern: `attr = value` constraints (constants only;
/// unlisted attributes are wildcards).
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    conditions: Vec<(AttrId, Value)>,
}

impl Pattern {
    /// The empty (all-wildcard) pattern — matches every tuple.
    pub fn wildcard() -> Pattern {
        Pattern { conditions: Vec::new() }
    }

    /// A single-condition pattern.
    pub fn eq(attr: AttrId, value: Value) -> Pattern {
        Pattern { conditions: vec![(attr, value)] }
    }

    /// Add a condition (builder-style).
    pub fn and(mut self, attr: AttrId, value: Value) -> Pattern {
        self.conditions.push((attr, value));
        self
    }

    /// The conditions, in insertion order.
    pub fn conditions(&self) -> &[(AttrId, Value)] {
        &self.conditions
    }

    /// Does row `row` of `rel` match?
    pub fn matches(&self, rel: &Relation, row: usize) -> bool {
        self.conditions.iter().all(|(a, v)| rel.column(*a).value_at(row) == *v)
    }

    /// Row-selection mask over a relation.
    pub fn mask(&self, rel: &Relation) -> Vec<bool> {
        (0..rel.row_count()).map(|r| self.matches(rel, r)).collect()
    }

    /// Render with attribute names.
    pub fn display(&self, schema: &evofd_storage::Schema) -> String {
        if self.conditions.is_empty() {
            return "(true)".to_string();
        }
        let parts: Vec<String> = self
            .conditions
            .iter()
            .map(|(a, v)| format!("{} = {}", schema.attr_name(*a), v))
            .collect();
        parts.join(" AND ")
    }
}

/// A conditional FD: an embedded FD plus a pattern restricting its scope.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfd {
    /// The embedded FD `X → Y`.
    pub fd: Fd,
    /// The scope pattern `tp`.
    pub pattern: Pattern,
}

impl Cfd {
    /// Build a CFD.
    pub fn new(fd: Fd, pattern: Pattern) -> Cfd {
        Cfd { fd, pattern }
    }

    /// The tuples in scope.
    pub fn scope(&self, rel: &Relation) -> Relation {
        rel.filter(&self.pattern.mask(rel))
    }

    /// Measures of the embedded FD *within the scope*.
    pub fn measures(&self, rel: &Relation) -> Measures {
        let scoped = self.scope(rel);
        Measures::compute(&scoped, &self.fd, &DistinctCache::disabled())
    }

    /// Satisfaction: the FD holds on every matching tuple pair.
    pub fn is_satisfied(&self, rel: &Relation) -> bool {
        self.measures(rel).is_exact()
    }

    /// Fraction of the relation's tuples inside the scope (the CFD's
    /// *support*).
    pub fn support(&self, rel: &Relation) -> f64 {
        if rel.row_count() == 0 {
            return 0.0;
        }
        let kept = self.pattern.mask(rel).iter().filter(|&&m| m).count();
        kept as f64 / rel.row_count() as f64
    }

    /// Render as `(X -> Y, pattern)`.
    pub fn display(&self, schema: &evofd_storage::Schema) -> String {
        format!("({}, {})", self.fd.display(schema), self.pattern.display(schema))
    }
}

/// A candidate conditioning repair: restrict the violated FD to the
/// values of one attribute where it still holds.
#[derive(Debug, Clone)]
pub struct ConditionRepair {
    /// The condition attribute `B`.
    pub attr: AttrId,
    /// CFDs `(X → Y, B = b)` for every clean value `b`.
    pub clean_cfds: Vec<Cfd>,
    /// Fraction of tuples covered by the clean values (kept governed).
    pub coverage: f64,
    /// Number of values of `B` whose scope still violates the FD.
    pub dirty_values: usize,
}

/// For each candidate condition attribute (NULL-free, outside `XY`),
/// compute which of its values give a clean scope for `fd`, ranked by
/// coverage (descending) — "how much of the data can this constraint
/// still govern if we condition on B?".
pub fn condition_repairs(rel: &Relation, fd: &Fd) -> Vec<ConditionRepair> {
    let pool = crate::candidates::candidate_pool(rel, fd);
    let lhs_partition = Partition::by_attrs(rel, fd.lhs());
    let lhs_rhs_partition = lhs_partition.refine_by_attrs(rel, fd.rhs());
    let n = rel.row_count();

    let mut out: Vec<ConditionRepair> = Vec::new();
    for attr in pool.iter() {
        let column = rel.column(attr);
        // For each value v of B: the scope σ_{B=v} is clean iff within it,
        // every lhs class maps to one rhs class. Detect per value: count
        // distinct (v, lhs) pairs vs distinct (v, lhs, rhs) triples.
        let by_value = Partition::by_attrs(rel, &evofd_storage::AttrSet::single(attr));
        let v_lhs = by_value.refine_by_codes(lhs_partition.labels());
        let v_lhs_rhs = by_value.refine_by_codes(lhs_rhs_partition.labels());
        // A value is dirty iff one of its (v, lhs) groups splits in
        // (v, lhs, rhs). Mark dirty values via the rows where the finer
        // partition has more classes — detect by per-value counting.
        let mut pair_count = vec![0u32; by_value.n_classes()];
        let mut triple_count = vec![0u32; by_value.n_classes()];
        let mut seen_pair = vec![false; v_lhs.n_classes()];
        let mut seen_triple = vec![false; v_lhs_rhs.n_classes()];
        for row in 0..n {
            let v = by_value.labels()[row] as usize;
            let p = v_lhs.labels()[row] as usize;
            let t = v_lhs_rhs.labels()[row] as usize;
            if !seen_pair[p] {
                seen_pair[p] = true;
                pair_count[v] += 1;
            }
            if !seen_triple[t] {
                seen_triple[t] = true;
                triple_count[v] += 1;
            }
        }
        let mut clean_rows = 0usize;
        let mut dirty_values = 0usize;
        let mut clean_value_labels: Vec<bool> = vec![false; by_value.n_classes()];
        for v in 0..by_value.n_classes() {
            if pair_count[v] == triple_count[v] {
                clean_value_labels[v] = true;
            } else {
                dirty_values += 1;
            }
        }
        let mut representative: Vec<Option<usize>> = vec![None; by_value.n_classes()];
        for row in 0..n {
            let v = by_value.labels()[row] as usize;
            if clean_value_labels[v] {
                clean_rows += 1;
                if representative[v].is_none() {
                    representative[v] = Some(row);
                }
            }
        }
        let clean_cfds: Vec<Cfd> = representative
            .iter()
            .flatten()
            .map(|&row| Cfd::new(fd.clone(), Pattern::eq(attr, column.value_at(row))))
            .collect();
        let coverage = if n == 0 { 0.0 } else { clean_rows as f64 / n as f64 };
        out.push(ConditionRepair { attr, clean_cfds, coverage, dirty_values });
    }
    out.sort_by(|a, b| {
        b.coverage
            .total_cmp(&a.coverage)
            .then_with(|| a.dirty_values.cmp(&b.dirty_values))
            .then_with(|| a.attr.cmp(&b.attr))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::relation_of_strs;

    /// X -> Y holds for era = old, breaks for era = new.
    fn rel() -> Relation {
        relation_of_strs(
            "t",
            &["X", "Y", "Era"],
            &[
                &["a", "1", "old"],
                &["a", "1", "old"],
                &["b", "2", "old"],
                &["a", "9", "new"],
                &["a", "8", "new"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn pattern_matching() {
        let r = rel();
        let era = r.schema().resolve("Era").unwrap();
        let p = Pattern::eq(era, Value::str("old"));
        assert_eq!(p.mask(&r), vec![true, true, true, false, false]);
        assert!(Pattern::wildcard().matches(&r, 4));
        let both = Pattern::eq(era, Value::str("old"))
            .and(r.schema().resolve("X").unwrap(), Value::str("a"));
        assert_eq!(both.mask(&r), vec![true, true, false, false, false]);
        assert_eq!(both.display(r.schema()), "Era = old AND X = a");
        assert_eq!(Pattern::wildcard().display(r.schema()), "(true)");
    }

    #[test]
    fn cfd_satisfaction_within_scope() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        assert!(!fd.satisfied_naive(&r), "globally violated");
        let era = r.schema().resolve("Era").unwrap();
        let old = Cfd::new(fd.clone(), Pattern::eq(era, Value::str("old")));
        assert!(old.is_satisfied(&r), "holds on the old era");
        let new = Cfd::new(fd, Pattern::eq(era, Value::str("new")));
        assert!(!new.is_satisfied(&r), "broken on the new era");
        assert!((old.support(&r) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn wildcard_cfd_equals_plain_fd() {
        let r = rel();
        for text in ["X -> Y", "Y -> X", "X, Era -> Y"] {
            let fd = Fd::parse(r.schema(), text).unwrap();
            let cfd = Cfd::new(fd.clone(), Pattern::wildcard());
            assert_eq!(cfd.is_satisfied(&r), fd.satisfied_naive(&r), "{text}");
            assert_eq!(cfd.support(&r), 1.0);
        }
    }

    #[test]
    fn condition_repairs_rank_by_coverage() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let repairs = condition_repairs(&r, &fd);
        assert_eq!(repairs.len(), 1, "Era is the only candidate attribute");
        let era_repair = &repairs[0];
        assert_eq!(era_repair.attr, r.schema().resolve("Era").unwrap());
        assert_eq!(era_repair.dirty_values, 1, "new is dirty");
        assert_eq!(era_repair.clean_cfds.len(), 1, "old is clean");
        assert!((era_repair.coverage - 0.6).abs() < 1e-12);
        // The proposed CFD is indeed satisfied.
        for cfd in &era_repair.clean_cfds {
            assert!(cfd.is_satisfied(&r), "{}", cfd.display(r.schema()));
        }
    }

    #[test]
    fn condition_repairs_on_places() {
        // F2: Zip -> City, State is violated in the 10211 and 60415
        // scopes; conditioning on State keeps some coverage.
        let r = relation_of_strs(
            "t",
            &["Zip", "City", "State"],
            &[
                &["10211", "NY", "NY"],
                &["10211", "NY", "MA"],
                &["02215", "Boston", "MA"],
                &["60601", "Chicago", "IL"],
                &["60601", "Chicago", "IL"],
            ],
        )
        .unwrap();
        let fd = Fd::parse(r.schema(), "Zip -> City").unwrap();
        // City is in the FD; State is the only condition candidate.
        let repairs = condition_repairs(&r, &fd);
        assert_eq!(repairs.len(), 1);
        assert!(repairs[0].coverage > 0.0);
        for cfd in &repairs[0].clean_cfds {
            assert!(cfd.is_satisfied(&r));
        }
    }

    #[test]
    fn fully_clean_attribute_has_full_coverage() {
        let r = relation_of_strs(
            "t",
            &["X", "Y", "B"],
            &[&["a", "1", "p"], &["a", "2", "q"], &["b", "3", "p"]],
        )
        .unwrap();
        // Conditioning on B: scope p = {(a,1),(b,3)} clean; scope q clean.
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let repairs = condition_repairs(&r, &fd);
        let b = &repairs[0];
        assert_eq!(b.dirty_values, 0);
        assert!((b.coverage - 1.0).abs() < 1e-12);
        assert_eq!(b.clean_cfds.len(), 2);
    }

    #[test]
    fn empty_relation_support() {
        let r = relation_of_strs("t", &["X", "Y"], &[]).unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let cfd = Cfd::new(fd, Pattern::wildcard());
        assert_eq!(cfd.support(&r), 0.0);
        assert!(cfd.is_satisfied(&r), "vacuously");
    }
}
