//! Partitions of a relation's rows — the paper's *clusterings*.
//!
//! Definition 5 of the paper: given attributes `X`, the X-clustering `C_X`
//! partitions the tuples so that each class holds all tuples agreeing on
//! `X`. We compute partitions by *refinement*: start from the trivial
//! one-class partition and successively split classes by each column's
//! dictionary codes. Labels are dense (`0..n_classes`), which keeps
//! contingency tables and further refinements cheap.
//!
//! NULL semantics: all NULL cells of a column carry the same sentinel code,
//! so NULL rows group together — matching SQL `GROUP BY` (one NULL class).
//!
//! Partitions are for callers whose output *is* a clustering: the
//! clustering view, violation evidence, conditional FDs and the entropy
//! baseline. Counting classes alone is [`crate::count_distinct`]'s job;
//! its hash kernel never materialises per-row labels.

use std::collections::HashMap;

use crate::attrset::AttrSet;
use crate::relation::Relation;

/// A partition of rows `0..n` into `n_classes` classes with dense labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    labels: Vec<u32>,
    n_classes: usize,
}

impl Partition {
    /// The trivial partition: every row in a single class. For an empty
    /// relation this has zero classes.
    pub fn unit(n_rows: usize) -> Partition {
        Partition { labels: vec![0; n_rows], n_classes: usize::from(n_rows > 0) }
    }

    /// The discrete partition: every row its own class.
    pub fn discrete(n_rows: usize) -> Partition {
        Partition { labels: (0..n_rows as u32).collect(), n_classes: n_rows }
    }

    /// Construct from raw labels (normalises them to dense `0..k`).
    pub fn from_labels(raw: &[u32]) -> Partition {
        let mut map: HashMap<u32, u32> = HashMap::new();
        let mut labels = Vec::with_capacity(raw.len());
        for &l in raw {
            let next = map.len() as u32;
            let dense = *map.entry(l).or_insert(next);
            labels.push(dense);
        }
        Partition { n_classes: map.len(), labels }
    }

    /// Number of classes (`K` in Definition 5) — equals `|π_X(r)|` when the
    /// partition was built over attribute set `X`.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of rows covered.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// The dense class label of each row.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Refine this partition by a column's codes: rows stay together only
    /// if they were together *and* share the new code.
    pub fn refine_by_codes(&self, codes: &[u32]) -> Partition {
        debug_assert_eq!(codes.len(), self.labels.len());
        let mut map: HashMap<u64, u32> = HashMap::with_capacity(self.n_classes * 2);
        let mut labels = Vec::with_capacity(self.labels.len());
        for (i, &old) in self.labels.iter().enumerate() {
            let key = (u64::from(old) << 32) | u64::from(codes[i]);
            let next = map.len() as u32;
            let dense = *map.entry(key).or_insert(next);
            labels.push(dense);
        }
        Partition { n_classes: map.len(), labels }
    }

    /// Build the X-clustering of a relation for attribute set `attrs`.
    ///
    /// Refines column-by-column in ascending attribute order; the resulting
    /// class count equals the number of distinct `attrs`-projections.
    pub fn by_attrs(rel: &Relation, attrs: &AttrSet) -> Partition {
        let mut p = Partition::unit(rel.row_count());
        for a in attrs.iter() {
            p = p.refine_by_codes(rel.column(a).codes());
        }
        p
    }

    /// Continue refining an existing partition by extra attributes of `rel`.
    /// `Partition::by_attrs(rel, &x.union(&y))` ≡
    /// `Partition::by_attrs(rel, &x).refine_by_attrs(rel, &y)`.
    pub fn refine_by_attrs(&self, rel: &Relation, attrs: &AttrSet) -> Partition {
        let mut p = self.clone();
        for a in attrs.iter() {
            p = p.refine_by_codes(rel.column(a).codes());
        }
        p
    }

    /// Class sizes indexed by label.
    pub fn class_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_classes];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Materialise classes as row-id lists (used by the entropy baseline,
    /// which genuinely needs the tuple groups — the CB method never does).
    pub fn classes(&self) -> Vec<Vec<u32>> {
        let mut classes: Vec<Vec<u32>> = vec![Vec::new(); self.n_classes];
        for (row, &l) in self.labels.iter().enumerate() {
            classes[l as usize].push(row as u32);
        }
        classes
    }

    /// True iff every class of `self` is contained in a single class of
    /// `other` — the paper's *homogeneity* (every `self`-class properly
    /// associated with an `other`-class).
    pub fn is_refinement_of(&self, other: &Partition) -> bool {
        debug_assert_eq!(self.n_rows(), other.n_rows());
        // self refines other ⇔ refining `other` by `self` labels adds no class
        // beyond self's count ⇔ the map (self label → other label) is a function.
        let mut seen: Vec<Option<u32>> = vec![None; self.n_classes];
        for (row, &l) in self.labels.iter().enumerate() {
            let o = other.labels[row];
            match seen[l as usize] {
                None => seen[l as usize] = Some(o),
                Some(prev) if prev != o => return false,
                _ => {}
            }
        }
        true
    }

    /// Number of classes the *common refinement* of two partitions has
    /// (`|C_{X∪Y}|` when the inputs are `C_X`, `C_Y` over the same rows).
    pub fn joint_classes(&self, other: &Partition) -> usize {
        debug_assert_eq!(self.n_rows(), other.n_rows());
        let mut map: HashMap<u64, u32> = HashMap::new();
        for (a, b) in self.labels.iter().zip(other.labels.iter()) {
            let key = (u64::from(*a) << 32) | u64::from(*b);
            let next = map.len() as u32;
            map.entry(key).or_insert(next);
        }
        map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::relation_of_strs;

    fn rel() -> Relation {
        relation_of_strs(
            "t",
            &["x", "y", "z"],
            &[
                &["a", "1", "p"],
                &["a", "1", "q"],
                &["a", "2", "p"],
                &["b", "1", "p"],
                &["b", "1", "p"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn unit_and_discrete() {
        assert_eq!(Partition::unit(4).n_classes(), 1);
        assert_eq!(Partition::unit(0).n_classes(), 0);
        assert_eq!(Partition::discrete(4).n_classes(), 4);
    }

    #[test]
    fn by_attrs_counts_distinct_projections() {
        let r = rel();
        let x = r.schema().attr_set(&["x"]).unwrap();
        let xy = r.schema().attr_set(&["x", "y"]).unwrap();
        let xyz = r.schema().attr_set(&["x", "y", "z"]).unwrap();
        assert_eq!(Partition::by_attrs(&r, &x).n_classes(), 2);
        assert_eq!(Partition::by_attrs(&r, &xy).n_classes(), 3);
        assert_eq!(Partition::by_attrs(&r, &xyz).n_classes(), 4);
    }

    #[test]
    fn refinement_composes() {
        let r = rel();
        let x = r.schema().attr_set(&["x"]).unwrap();
        let y = r.schema().attr_set(&["y"]).unwrap();
        let xy = r.schema().attr_set(&["x", "y"]).unwrap();
        let composed = Partition::by_attrs(&r, &x).refine_by_attrs(&r, &y);
        let direct = Partition::by_attrs(&r, &xy);
        assert_eq!(composed.n_classes(), direct.n_classes());
        // Same partition up to label renaming: joint refinement adds nothing.
        assert_eq!(composed.joint_classes(&direct), direct.n_classes());
    }

    #[test]
    fn class_sizes_sum_to_rows() {
        let r = rel();
        let p = Partition::by_attrs(&r, &r.schema().attr_set(&["x", "y"]).unwrap());
        let sizes = p.class_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), r.row_count());
        assert_eq!(sizes.len(), p.n_classes());
    }

    #[test]
    fn classes_materialisation() {
        let r = rel();
        let p = Partition::by_attrs(&r, &r.schema().attr_set(&["x"]).unwrap());
        let classes = p.classes();
        assert_eq!(classes.len(), 2);
        let mut all: Vec<u32> = classes.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn refinement_check() {
        let r = rel();
        let x = Partition::by_attrs(&r, &r.schema().attr_set(&["x"]).unwrap());
        let xy = Partition::by_attrs(&r, &r.schema().attr_set(&["x", "y"]).unwrap());
        assert!(xy.is_refinement_of(&x));
        assert!(!x.is_refinement_of(&xy));
        assert!(x.is_refinement_of(&x));
    }

    #[test]
    fn from_labels_normalises() {
        let p = Partition::from_labels(&[7, 7, 3, 9, 3]);
        assert_eq!(p.n_classes(), 3);
        assert_eq!(p.labels(), &[0, 0, 1, 2, 1]);
    }

    #[test]
    fn joint_classes_symmetric() {
        let a = Partition::from_labels(&[0, 0, 1, 1]);
        let b = Partition::from_labels(&[0, 1, 0, 1]);
        assert_eq!(a.joint_classes(&b), 4);
        assert_eq!(b.joint_classes(&a), 4);
    }

    #[test]
    fn nulls_group_together() {
        use crate::schema::{Field, Schema};
        use crate::value::{DataType, Value};
        let schema = Schema::new("t", vec![Field::new("a", DataType::Int)]).unwrap().into_shared();
        let r = Relation::from_rows(
            schema,
            vec![vec![Value::Null], vec![Value::Null], vec![Value::Int(1)]],
        )
        .unwrap();
        let p = Partition::by_attrs(&r, &r.schema().attr_set(&["a"]).unwrap());
        assert_eq!(p.n_classes(), 2, "both NULLs in one class");
    }

    #[test]
    fn empty_relation_partitions() {
        let r = relation_of_strs("t", &["x"], &[]).unwrap();
        let p = Partition::by_attrs(&r, &r.schema().attr_set(&["x"]).unwrap());
        assert_eq!(p.n_classes(), 0);
        assert_eq!(p.n_rows(), 0);
    }

    #[test]
    fn empty_attrset_gives_unit() {
        let r = rel();
        let p = Partition::by_attrs(&r, &AttrSet::empty());
        assert_eq!(p.n_classes(), 1);
    }
}
