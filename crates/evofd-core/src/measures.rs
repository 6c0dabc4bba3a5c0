//! Confidence, goodness and the ε_CB measure (Definition 3, §4.1, §5).
//!
//! All measures reduce to distinct-projection counts:
//!
//! * confidence  `c(F) = |π_X(r)| / |π_XY(r)|` — 1 iff the FD is exact
//!   (Definition 4);
//! * goodness    `g(F) = |π_X(r)| − |π_Y(r)|` — 0 iff the induced function
//!   between clusterings is bijective-ready;
//! * degree of inconsistency `ic(F) = 1 − c(F)` (§4.1);
//! * `ε_CB(F) = ic(F) + |g(F)|` (§5) — the measure proved equivalent to the
//!   entropy-based ε_VI.
//!
//! Counts are compared as integers wherever semantics matter (`c = 1` is
//! checked via `|π_X| == |π_XY|`, never via floating point).
//!
//! Every count goes through one [`DistinctCache`] (and so one counting
//! kernel, `evofd_storage::count_distinct`). The cache is shared by
//! reference, so the same [`Measures::compute`] serves sequential callers
//! and the `mintpool` fan-outs alike.

use evofd_storage::{DistinctCache, Relation};

use crate::fd::Fd;

/// The full set of CB measures for one FD over one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measures {
    /// `|π_X(r)|`.
    pub distinct_lhs: usize,
    /// `|π_XY(r)|`.
    pub distinct_lhs_rhs: usize,
    /// `|π_Y(r)|`.
    pub distinct_rhs: usize,
    /// Confidence `c ∈ (0, 1]` (1 for the empty relation).
    pub confidence: f64,
    /// Goodness `g = |π_X| − |π_Y|` (may be negative).
    pub goodness: i64,
}

impl Measures {
    /// Compute all measures for `fd` over `rel`, memoising counts in
    /// `cache` (safe to share across concurrent tasks).
    pub fn compute(rel: &Relation, fd: &Fd, cache: &DistinctCache) -> Measures {
        let distinct_lhs = cache.count(rel, fd.lhs());
        let distinct_lhs_rhs = cache.count(rel, &fd.attrs());
        let distinct_rhs = cache.count(rel, fd.rhs());
        let confidence = if distinct_lhs_rhs == 0 {
            1.0 // empty relation: vacuously exact
        } else {
            distinct_lhs as f64 / distinct_lhs_rhs as f64
        };
        Measures {
            distinct_lhs,
            distinct_lhs_rhs,
            distinct_rhs,
            confidence,
            goodness: distinct_lhs as i64 - distinct_rhs as i64,
        }
    }

    /// Exactness (Definition 4) via integer counts: `|π_X| = |π_XY|`.
    pub fn is_exact(&self) -> bool {
        self.distinct_lhs == self.distinct_lhs_rhs
    }

    /// Degree of inconsistency `ic = 1 − c` (§4.1).
    pub fn inconsistency(&self) -> f64 {
        1.0 - self.confidence
    }

    /// Absolute goodness `ĝ = |g|` (§5).
    pub fn abs_goodness(&self) -> u64 {
        self.goodness.unsigned_abs()
    }

    /// `ε_CB = ic + ĝ` (§5). Zero iff the FD induces a bijection between
    /// `C_X` and `C_Y`.
    pub fn epsilon_cb(&self) -> f64 {
        self.inconsistency() + self.abs_goodness() as f64
    }
}

/// Confidence of `fd` over `rel` (no caching). See [`Measures`].
pub fn confidence(rel: &Relation, fd: &Fd) -> f64 {
    Measures::compute(rel, fd, &DistinctCache::disabled()).confidence
}

/// Goodness of `fd` over `rel` (no caching). See [`Measures`].
pub fn goodness(rel: &Relation, fd: &Fd) -> i64 {
    Measures::compute(rel, fd, &DistinctCache::disabled()).goodness
}

/// True iff `fd` is exact on `rel` (Definition 4), computed via counts.
pub fn is_satisfied(rel: &Relation, fd: &Fd) -> bool {
    Measures::compute(rel, fd, &DistinctCache::disabled()).is_exact()
}

/// `ε_CB(fd)` over `rel` (no caching). See [`Measures::epsilon_cb`].
pub fn epsilon_cb(rel: &Relation, fd: &Fd) -> f64 {
    Measures::compute(rel, fd, &DistinctCache::disabled()).epsilon_cb()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::relation_of_strs;

    // A 6-row relation where X -> Y has two violating X-groups.
    fn rel() -> Relation {
        relation_of_strs(
            "t",
            &["X", "Y", "Z"],
            &[
                &["a", "1", "p"],
                &["a", "2", "q"], // violates with row 0
                &["b", "1", "p"],
                &["b", "1", "q"],
                &["c", "3", "r"],
                &["c", "3", "r"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn confidence_and_exactness() {
        let r = rel();
        let f = Fd::parse(r.schema(), "X -> Y").unwrap();
        let m = Measures::compute(&r, &f, &DistinctCache::new());
        // |π_X| = 3 (a,b,c); |π_XY| = 4 (a1,a2,b1,c3).
        assert_eq!(m.distinct_lhs, 3);
        assert_eq!(m.distinct_lhs_rhs, 4);
        assert!((m.confidence - 0.75).abs() < 1e-12);
        assert!(!m.is_exact());
        assert_eq!(is_satisfied(&r, &f), f.satisfied_naive(&r));
    }

    #[test]
    fn satisfied_fd_has_confidence_one() {
        let r = rel();
        let f = Fd::parse(r.schema(), "X, Y -> Z").unwrap();
        // (a,1)->p, (a,2)->q, (b,1)->{p,q} — actually violated. Use Y,Z->Y.
        let g = Fd::parse(r.schema(), "Y, Z -> Y").unwrap();
        assert!(is_satisfied(&r, &g));
        assert_eq!(confidence(&r, &g), 1.0);
        assert_eq!(is_satisfied(&r, &f), f.satisfied_naive(&r));
    }

    #[test]
    fn goodness_sign() {
        let r = rel();
        // X -> Y: |π_X| = 3, |π_Y| = 3 → g = 0.
        assert_eq!(goodness(&r, &Fd::parse(r.schema(), "X -> Y").unwrap()), 0);
        // X,Y -> Z: |π_XY| = 4, |π_Z| = 3 → g = 1.
        assert_eq!(goodness(&r, &Fd::parse(r.schema(), "X, Y -> Z").unwrap()), 1);
        // Y -> X,Z? g = |π_Y| - |π_XZ| = 3 - 5 = -2.
        assert_eq!(goodness(&r, &Fd::parse(r.schema(), "Y -> X, Z").unwrap()), -2);
    }

    #[test]
    fn epsilon_cb_zero_iff_bijective() {
        let r = relation_of_strs(
            "t",
            &["X", "Y"],
            &[&["a", "1"], &["b", "2"], &["c", "3"], &["a", "1"]],
        )
        .unwrap();
        let f = Fd::parse(r.schema(), "X -> Y").unwrap();
        let m = Measures::compute(&r, &f, &DistinctCache::new());
        assert!(m.is_exact());
        assert_eq!(m.goodness, 0);
        assert_eq!(m.epsilon_cb(), 0.0);
    }

    #[test]
    fn epsilon_cb_positive_when_violated_or_skewed() {
        let r = rel();
        let f = Fd::parse(r.schema(), "X -> Y").unwrap();
        assert!(epsilon_cb(&r, &f) > 0.0);
        // Exact but not bijective: X,Y,Z determines Y, |π_XYZ| = 5 ≠ |π_Y| = 3.
        let g = Fd::parse(r.schema(), "X, Y, Z -> Y").unwrap();
        assert!(is_satisfied(&r, &g));
        assert!(epsilon_cb(&r, &g) > 0.0);
    }

    #[test]
    fn empty_relation_vacuously_exact() {
        let r = relation_of_strs("t", &["X", "Y"], &[]).unwrap();
        let f = Fd::parse(r.schema(), "X -> Y").unwrap();
        let m = Measures::compute(&r, &f, &DistinctCache::new());
        assert_eq!(m.confidence, 1.0);
        assert!(m.is_exact());
        assert_eq!(m.goodness, 0);
    }

    #[test]
    fn inconsistency_complements_confidence() {
        let r = rel();
        let f = Fd::parse(r.schema(), "X -> Y").unwrap();
        let m = Measures::compute(&r, &f, &DistinctCache::new());
        assert!((m.inconsistency() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cache_is_reused_across_fds() {
        let r = rel();
        let cache = DistinctCache::new();
        let f1 = Fd::parse(r.schema(), "X -> Y").unwrap();
        let f2 = Fd::parse(r.schema(), "X -> Z").unwrap();
        Measures::compute(&r, &f1, &cache);
        let before = cache.stats().hits;
        Measures::compute(&r, &f2, &cache); // |π_X| shared
        assert!(cache.stats().hits > before);
    }
}
