//! The entropy-based (EB) repair method of Chiang & Miller (ICDE 2011),
//! as restated in §5 of the EDBT 2016 paper.
//!
//! For a violated `F : X → Y` the EB method:
//!
//! 1. computes the *ground truth* clustering `C_XY`;
//! 2. for every candidate attribute `A ∉ XY`, computes `C_XA` and ranks
//!    candidates by `H(C_XY | C_XA)` ascending (homogeneity first),
//!    breaking ties by `H(C_A | C_XY)` ascending (completeness of the
//!    lone attribute);
//! 3. accepts `A` when `H(C_XY | C_XA) = 0` — which holds exactly when
//!    `XA → Y` has confidence 1, so EB and CB accept the same repairs and
//!    differ only in ranking and cost.
//!
//! The published method adds a single attribute. For an apples-to-apples
//! multi-attribute comparison we also provide [`eb_repair_iterative`],
//! clearly an *extension*: it greedily re-applies the one-step method, the
//! natural analogue of the CB paper's §4.3 iteration.

use std::cmp::Ordering;

use evofd_core::{Fd, Measures};
use evofd_storage::{AttrId, AttrSet, DistinctCache, Partition, Relation};

use crate::contingency::Contingency;

/// Work counters for the EB method — the quantities §5 argues are the
/// expensive part (cluster materialisation and pairwise intersections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EbCost {
    /// Partitions (clusterings) materialised.
    pub clusterings_built: u64,
    /// Non-empty contingency cells visited across all comparisons.
    pub cells_visited: u64,
    /// Rows scanned while building partitions and tables.
    pub rows_scanned: u64,
}

/// One EB-ranked candidate.
#[derive(Debug, Clone)]
pub struct EbCandidate {
    /// The candidate attribute `A`.
    pub attr: AttrId,
    /// Primary key: `H(C_XY | C_XA)` — 0 ⟺ `XA → Y` is exact.
    pub h_truth_given_extended: f64,
    /// Tie-break: `H(C_A | C_XY)`.
    pub h_attr_given_truth: f64,
    /// CB measures of `XA → Y`, recorded for cross-method comparison.
    pub measures: Measures,
}

impl EbCandidate {
    /// EB ranking: primary ascending, tie-break ascending, then attribute
    /// position for determinism.
    pub fn rank_cmp(&self, other: &EbCandidate) -> Ordering {
        self.h_truth_given_extended
            .total_cmp(&other.h_truth_given_extended)
            .then_with(|| self.h_attr_given_truth.total_cmp(&other.h_attr_given_truth))
            .then_with(|| self.attr.cmp(&other.attr))
    }

    /// EB's acceptance test: the extended clustering is homogeneous w.r.t.
    /// the ground truth.
    pub fn is_exact(&self) -> bool {
        self.h_truth_given_extended == 0.0
    }
}

/// Rank every candidate in `pool` for repairing `fd`, EB-style.
/// Returns the ranked list plus the work counters.
pub fn eb_rank_candidates(rel: &Relation, fd: &Fd, pool: &AttrSet) -> (Vec<EbCandidate>, EbCost) {
    let mut cost = EbCost::default();
    let n = rel.row_count() as u64;

    let ground_truth = Partition::by_attrs(rel, &fd.attrs());
    cost.clusterings_built += 1;
    cost.rows_scanned += n * fd.attrs().len() as u64;

    let lhs_partition = Partition::by_attrs(rel, fd.lhs());
    cost.clusterings_built += 1;
    cost.rows_scanned += n * fd.lhs().len() as u64;

    let cache = DistinctCache::new();
    let mut out: Vec<EbCandidate> = pool
        .iter()
        .map(|attr| {
            // C_XA: refine the X-partition by A.
            let extended = lhs_partition.refine_by_codes(rel.column(attr).codes());
            cost.clusterings_built += 1;
            cost.rows_scanned += n;

            let t1 = Contingency::build(&ground_truth, &extended);
            cost.cells_visited += t1.nonzero_cells() as u64;
            cost.rows_scanned += n;
            let h_truth_given_extended = t1.conditional_entropy_a_given_b();

            let attr_partition = Partition::by_attrs(rel, &AttrSet::single(attr));
            cost.clusterings_built += 1;
            cost.rows_scanned += n;
            let t2 = Contingency::build(&attr_partition, &ground_truth);
            cost.cells_visited += t2.nonzero_cells() as u64;
            cost.rows_scanned += n;
            let h_attr_given_truth = t2.conditional_entropy_a_given_b();

            let measures = Measures::compute(rel, &fd.with_lhs_attr(attr), &cache);
            EbCandidate { attr, h_truth_given_extended, h_attr_given_truth, measures }
        })
        .collect();
    out.sort_by(EbCandidate::rank_cmp);
    (out, cost)
}

/// Result of the iterative EB repair extension.
#[derive(Debug, Clone)]
pub struct EbRepair {
    /// The evolved FD, exact on the instance.
    pub fd: Fd,
    /// Attributes added, in pick order.
    pub added: Vec<AttrId>,
    /// Accumulated work counters.
    pub cost: EbCost,
}

/// Greedy multi-attribute EB repair: repeatedly add the top-EB-ranked
/// attribute until the FD is exact, the pool empties, or `max_added`
/// attributes were added. Returns `None` when no repair was reached.
pub fn eb_repair_iterative(
    rel: &Relation,
    fd: &Fd,
    max_added: usize,
) -> (Option<EbRepair>, EbCost) {
    let mut total_cost = EbCost::default();
    let mut current = fd.clone();
    let mut added: Vec<AttrId> = Vec::new();
    let mut pool = rel.non_null_attrs().difference(&fd.attrs());

    while added.len() < max_added && !pool.is_empty() {
        let (ranked, cost) = eb_rank_candidates(rel, &current, &pool);
        total_cost.clusterings_built += cost.clusterings_built;
        total_cost.cells_visited += cost.cells_visited;
        total_cost.rows_scanned += cost.rows_scanned;
        let Some(best) = ranked.first() else { break };
        current = current.with_lhs_attr(best.attr);
        added.push(best.attr);
        pool.remove(best.attr);
        if best.is_exact() {
            return (Some(EbRepair { fd: current, added, cost: total_cost }), total_cost);
        }
    }
    (None, total_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::relation_of_strs;

    fn rel() -> Relation {
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
    fn eb_accepts_exactly_the_exact_candidates() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let pool = r.schema().attr_set(&["M", "P"]).unwrap();
        let (ranked, _) = eb_rank_candidates(&r, &fd, &pool);
        for c in &ranked {
            assert_eq!(
                c.is_exact(),
                c.measures.is_exact(),
                "EB homogeneity ⇔ CB confidence 1 for attr {:?}",
                c.attr
            );
        }
    }

    #[test]
    fn eb_ranks_municipal_first() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let pool = r.schema().attr_set(&["M", "P"]).unwrap();
        let (ranked, cost) = eb_rank_candidates(&r, &fd, &pool);
        // Both repair (H(C_XY|C_XA) = 0); M's completeness term is lower
        // because C_M matches C_XY while C_P fragments it.
        assert_eq!(ranked[0].attr, r.schema().resolve("M").unwrap());
        assert!(ranked[0].h_attr_given_truth < ranked[1].h_attr_given_truth);
        assert!(cost.clusterings_built >= 4);
        assert!(cost.cells_visited > 0);
    }

    #[test]
    fn eb_iterative_repairs_two_attr_case() {
        // Needs two attributes: neither A nor B alone works.
        let r = relation_of_strs(
            "t",
            &["X", "A", "B", "Y"],
            &[
                &["x", "a1", "b1", "y1"],
                &["x", "a1", "b2", "y2"],
                &["x", "a2", "b1", "y3"],
                &["x", "a2", "b2", "y4"],
            ],
        )
        .unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let (repair, _) = eb_repair_iterative(&r, &fd, 5);
        let repair = repair.expect("repairable");
        assert_eq!(repair.added.len(), 2);
        assert!(repair.fd.satisfied_naive(&r));
    }

    #[test]
    fn eb_iterative_gives_up_when_unrepairable() {
        let r = relation_of_strs("t", &["X", "A", "Y"], &[&["x", "a", "y1"], &["x", "a", "y2"]])
            .unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let (repair, cost) = eb_repair_iterative(&r, &fd, 5);
        assert!(repair.is_none());
        assert!(cost.clusterings_built > 0);
    }

    #[test]
    fn max_added_respected() {
        let r = relation_of_strs(
            "t",
            &["X", "A", "B", "Y"],
            &[
                &["x", "a1", "b1", "y1"],
                &["x", "a1", "b2", "y2"],
                &["x", "a2", "b1", "y3"],
                &["x", "a2", "b2", "y4"],
            ],
        )
        .unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let (repair, _) = eb_repair_iterative(&r, &fd, 1);
        assert!(repair.is_none(), "needs 2 attrs but capped at 1");
    }
}
