//! Candidate-repair generation and ordering (Section 4.2, Algorithm 2).
//!
//! Given a violated FD `F : X → Y`, every attribute `A ∈ R \ XY` (that is
//! NULL-free, §6.2.1) yields a candidate `F_A : XA → Y`. Candidates are
//! ranked by
//!
//! 1. confidence `c(F_A)` — descending (closer to exact wins);
//! 2. |goodness| — ascending (the paper prefers goodness *close to zero*:
//!    in Table 1, `Municipal` (g = 0) outranks `PhNo` (g = 3), penalising
//!    over-specific, UNIQUE-like attributes);
//! 3. attribute position — ascending, for determinism (matches the
//!    paper's table layouts, which list schema order within ties).
//!
//! Scoring is one code path at every thread width: a `mintpool` fan-out
//! over the pool against one shared [`DistinctCache`].

use std::cmp::Ordering;

use evofd_storage::{AttrId, AttrSet, DistinctCache, Relation};

use crate::fd::Fd;
use crate::measures::Measures;

/// One candidate single-attribute extension of an FD.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The attribute added to the antecedent.
    pub attr: AttrId,
    /// The extended FD `XA → Y`.
    pub fd: Fd,
    /// Measures of the extended FD.
    pub measures: Measures,
}

impl Candidate {
    /// Paper ranking: confidence desc, |goodness| asc, attribute asc.
    pub fn rank_cmp(&self, other: &Candidate) -> Ordering {
        other
            .measures
            .confidence
            .total_cmp(&self.measures.confidence)
            .then_with(|| self.measures.abs_goodness().cmp(&other.measures.abs_goodness()))
            .then_with(|| self.attr.cmp(&other.attr))
    }
}

/// The candidate pool for extending `fd` on `rel`: NULL-free attributes
/// not already mentioned by the FD.
pub fn candidate_pool(rel: &Relation, fd: &Fd) -> AttrSet {
    rel.non_null_attrs().difference(&fd.attrs())
}

/// Algorithm 2 (`ExtendByOne`): compute confidence and goodness for every
/// candidate extension of `fd`, returning them ranked.
///
/// `pool` restricts which attributes may be added (callers pass
/// [`candidate_pool`] minus anything already tried); counts are memoised
/// in `cache`. Each candidate is an independent pair of distinct counts,
/// so the pool fans out over the `mintpool` width (inline at width 1).
/// The ranking is identical at every width: counts are deterministic and
/// the rank comparator is a total order.
pub fn extend_by_one(
    rel: &Relation,
    fd: &Fd,
    pool: &AttrSet,
    cache: &DistinctCache,
) -> Vec<Candidate> {
    let attrs: Vec<AttrId> = pool.iter().collect();
    let mut out = mintpool::par_map(&attrs, |&attr| {
        let extended = fd.with_lhs_attr(attr);
        let measures = Measures::compute(rel, &extended, cache);
        Candidate { attr, fd: extended, measures }
    });
    out.sort_by(Candidate::rank_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::relation_of_strs;

    /// Mini-Places: District determines AreaCode only with Municipal.
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
    fn pool_excludes_fd_attrs() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let pool = candidate_pool(&r, &fd);
        assert_eq!(pool, r.schema().attr_set(&["M", "P"]).unwrap());
    }

    #[test]
    fn pool_excludes_null_attrs() {
        use evofd_storage::{DataType, Field, Relation, Schema, Value};
        let schema = Schema::new(
            "t",
            vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
                Field::new("c", DataType::Int),
            ],
        )
        .unwrap()
        .into_shared();
        let r = Relation::from_rows(schema, vec![vec![Value::Int(1), Value::Int(2), Value::Null]])
            .unwrap();
        let fd = Fd::parse(r.schema(), "a -> b").unwrap();
        assert!(candidate_pool(&r, &fd).is_empty(), "c has NULLs");
    }

    #[test]
    fn ranking_prefers_confidence_then_goodness() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let cands = extend_by_one(&r, &fd, &candidate_pool(&r, &fd), &DistinctCache::new());
        assert_eq!(cands.len(), 2);
        // Both M and P repair the FD (confidence 1); M has |π_DM| = 3 vs
        // |π_A| = 3 → g = 0, P has |π_DP| = 5 → g = 2. M must win.
        assert_eq!(cands[0].attr, r.schema().resolve("M").unwrap());
        assert_eq!(cands[0].measures.goodness, 0);
        assert_eq!(cands[1].attr, r.schema().resolve("P").unwrap());
        assert_eq!(cands[1].measures.goodness, 2);
        assert!(cands[0].measures.is_exact() && cands[1].measures.is_exact());
    }

    #[test]
    fn rank_cmp_total_order() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let cands = extend_by_one(&r, &fd, &candidate_pool(&r, &fd), &DistinctCache::new());
        for w in cands.windows(2) {
            assert_ne!(w[0].rank_cmp(&w[1]), Ordering::Greater);
        }
    }

    #[test]
    fn empty_pool_yields_no_candidates() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let cands = extend_by_one(&r, &fd, &AttrSet::empty(), &DistinctCache::new());
        assert!(cands.is_empty());
    }
}
