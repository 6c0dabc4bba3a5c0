//! CB-vs-EB comparison utilities (Section 5 / Theorem 1).
//!
//! The paper proves ε_CB and ε_VI "equivalent" (same null sets) but could
//! not compare the methods experimentally — the Chiang–Miller tool was
//! unavailable. Because we implement both, we can. This module provides
//! the per-FD measure pair, the Theorem-1 predicate, and side-by-side
//! candidate rankings with cost counters.
//!
//! ## A note on Theorem 1
//!
//! The direction ε_CB = 0 ⟹ ε_VI = 0 holds unconditionally (and is
//! property-tested). The converse as printed has a gap: if `ε_VI(F_U) =
//! VI(C_XY, C_XU) = 0` the clusterings coincide, giving confidence 1, but
//! the goodness `|π_XU| − |π_Y|` need not be 0 when `|π_XY| > |π_Y|`
//! (the proof's step "∀y ∃!(x,z)" silently assumes `|C_XY| = |C_Y|`).
//! [`theorem1_counterexample`] constructs a concrete witness; see
//! EXPERIMENTS.md. The converse *does* hold whenever `|π_XY| = |π_Y|`,
//! which [`theorem1_holds`] verifies.

use evofd_core::{candidate_pool, extend_by_one, Fd, Measures};
use evofd_storage::{count_distinct, relation_of_strs, AttrSet, DistinctCache, Relation};

use crate::eb_repair::{eb_rank_candidates, EbCandidate, EbCost};
use crate::vi::epsilon_vi_candidate;

/// The two §5 measures evaluated on the same candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurePair {
    /// `ε_CB = (1 − c) + |g|`.
    pub epsilon_cb: f64,
    /// `ε_VI = VI(C_XY, C_XU)`.
    pub epsilon_vi: f64,
}

impl MeasurePair {
    /// Evaluate both measures for extending `fd` by `added` on `rel`.
    pub fn of_candidate(rel: &Relation, fd: &Fd, added: &AttrSet) -> MeasurePair {
        let extended = fd.with_lhs_attrs(added);
        let cache = DistinctCache::disabled();
        let m = Measures::compute(rel, &extended, &cache);
        MeasurePair { epsilon_cb: m.epsilon_cb(), epsilon_vi: epsilon_vi_candidate(rel, fd, added) }
    }

    /// Theorem 1's claim for this pair, in the direction that always
    /// holds: ε_CB = 0 ⟹ ε_VI = 0.
    pub fn cb_null_implies_vi_null(&self) -> bool {
        self.epsilon_cb != 0.0 || self.epsilon_vi == 0.0
    }
}

/// Check Theorem 1 in full on one candidate, including the converse under
/// its (implicit) precondition `|π_XY| = |π_Y|`.
pub fn theorem1_holds(rel: &Relation, fd: &Fd, added: &AttrSet) -> bool {
    let pair = MeasurePair::of_candidate(rel, fd, added);
    if !pair.cb_null_implies_vi_null() {
        return false;
    }
    let precondition = count_distinct(rel, &fd.attrs()) == count_distinct(rel, fd.rhs());
    if precondition && pair.epsilon_vi == 0.0 && pair.epsilon_cb != 0.0 {
        return false;
    }
    true
}

/// A concrete witness that the converse of Theorem 1 needs the
/// `|π_XY| = |π_Y|` precondition: returns `(relation, fd, added)` with
/// `ε_VI = 0` but `ε_CB = 1`.
pub fn theorem1_counterexample() -> (Relation, Fd, AttrSet) {
    // X = {x1, x2}, Y constant, A a copy of X. C_XA = C_XY (ε_VI = 0) but
    // g(F_A) = |π_XA| − |π_Y| = 2 − 1 = 1.
    let rel =
        relation_of_strs("witness", &["X", "A", "Y"], &[&["x1", "x1", "y"], &["x2", "x2", "y"]])
            .expect("static data");
    let fd = Fd::parse(rel.schema(), "X -> Y").expect("static FD");
    let added = AttrSet::single(rel.schema().resolve("A").expect("static attr"));
    (rel, fd, added)
}

/// Work counters for the CB side, mirroring [`EbCost`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CbCost {
    /// Distinct counts computed (cache misses).
    pub counts_computed: u64,
    /// Distinct counts answered from the memo.
    pub counts_cached: u64,
}

/// Side-by-side rankings of the same candidate pool by both methods.
#[derive(Debug, Clone)]
pub struct RankingComparison {
    /// CB ranking (confidence desc, |goodness| asc).
    pub cb: Vec<evofd_core::Candidate>,
    /// EB ranking (`H(C_XY|C_XA)` asc, `H(C_A|C_XY)` asc).
    pub eb: Vec<EbCandidate>,
    /// CB work counters.
    pub cb_cost: CbCost,
    /// EB work counters.
    pub eb_cost: EbCost,
}

impl RankingComparison {
    /// Rank the full candidate pool of `fd` on `rel` with both methods.
    pub fn run(rel: &Relation, fd: &Fd) -> RankingComparison {
        let pool = candidate_pool(rel, fd);
        let cache = DistinctCache::new();
        let cb = extend_by_one(rel, fd, &pool, &cache);
        let stats = cache.stats();
        let cb_cost = CbCost { counts_computed: stats.misses, counts_cached: stats.hits };
        let (eb, eb_cost) = eb_rank_candidates(rel, fd, &pool);
        RankingComparison { cb, eb, cb_cost, eb_cost }
    }

    /// True iff both methods accept the same set of attributes as exact
    /// repairs (they must — EB homogeneity ⇔ CB confidence 1).
    pub fn agree_on_exactness(&self) -> bool {
        let cb_exact: std::collections::BTreeSet<u16> =
            self.cb.iter().filter(|c| c.measures.is_exact()).map(|c| c.attr.0).collect();
        let eb_exact: std::collections::BTreeSet<u16> =
            self.eb.iter().filter(|c| c.is_exact()).map(|c| c.attr.0).collect();
        cb_exact == eb_exact
    }

    /// True iff the top-ranked attribute coincides.
    pub fn agree_on_winner(&self) -> bool {
        match (self.cb.first(), self.eb.first()) {
            (Some(a), Some(b)) => a.attr == b.attr,
            (None, None) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn places_like() -> Relation {
        relation_of_strs(
            "t",
            &["D", "M", "P", "A"],
            &[
                &["d1", "m1", "p1", "a1"],
                &["d1", "m1", "p2", "a1"],
                &["d1", "m2", "p3", "a2"],
                &["d2", "m3", "p4", "a3"],
                &["d2", "m3", "p5", "a3"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn theorem1_forward_direction() {
        let r = places_like();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        for attr in candidate_pool(&r, &fd).iter() {
            let pair = MeasurePair::of_candidate(&r, &fd, &AttrSet::single(attr));
            assert!(pair.cb_null_implies_vi_null(), "attr {attr:?}: {pair:?}");
            assert!(theorem1_holds(&r, &fd, &AttrSet::single(attr)));
        }
    }

    #[test]
    fn counterexample_is_genuine() {
        let (rel, fd, added) = theorem1_counterexample();
        let pair = MeasurePair::of_candidate(&rel, &fd, &added);
        assert_eq!(pair.epsilon_vi, 0.0, "clusterings coincide");
        assert_eq!(pair.epsilon_cb, 1.0, "but goodness is 1");
        // The precondition |π_XY| = |π_Y| indeed fails here.
        assert_ne!(count_distinct(&rel, &fd.attrs()), count_distinct(&rel, fd.rhs()));
    }

    #[test]
    fn methods_agree_on_exactness_and_winner() {
        let r = places_like();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let cmp = RankingComparison::run(&r, &fd);
        assert!(cmp.agree_on_exactness());
        assert!(cmp.agree_on_winner(), "both prefer the Municipal-like attribute");
        assert!(cmp.cb_cost.counts_computed > 0);
        assert!(cmp.eb_cost.cells_visited > 0);
    }

    #[test]
    fn empty_pool_comparison() {
        let r = relation_of_strs("t", &["X", "Y"], &[&["x", "y"]]).unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let cmp = RankingComparison::run(&r, &fd);
        assert!(cmp.cb.is_empty() && cmp.eb.is_empty());
        assert!(cmp.agree_on_winner());
        assert!(cmp.agree_on_exactness());
    }
}
