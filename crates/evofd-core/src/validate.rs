//! FD validation: the "periodic or continuous checks of FD validity" the
//! paper's introduction assumes the DBMS performs.
//!
//! Validation is embarrassingly parallel across FDs: every status is an
//! independent triple of distinct counts. [`validate`] fans the FD set out
//! over the `mintpool` width (inline at width 1) with one shared
//! [`DistinctCache`], so overlapping attribute sets are counted once
//! whichever task gets there first.

use evofd_storage::{DistinctCache, Relation};

use crate::fd::Fd;
use crate::measures::Measures;

/// Validation verdict for one FD.
#[derive(Debug, Clone)]
pub struct FdStatus {
    /// The FD checked.
    pub fd: Fd,
    /// Its measures on the instance.
    pub measures: Measures,
}

impl FdStatus {
    /// True iff the FD is exact (Definition 4).
    pub fn satisfied(&self) -> bool {
        self.measures.is_exact()
    }
}

/// Result of validating a set of FDs against an instance.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Status of every FD, in input order.
    pub statuses: Vec<FdStatus>,
    /// Number of tuples inspected.
    pub row_count: usize,
}

impl ValidationReport {
    /// FDs that hold.
    pub fn satisfied(&self) -> impl Iterator<Item = &FdStatus> {
        self.statuses.iter().filter(|s| s.satisfied())
    }

    /// FDs that are violated (approximate, Definition 4).
    pub fn violated(&self) -> impl Iterator<Item = &FdStatus> {
        self.statuses.iter().filter(|s| !s.satisfied())
    }

    /// True iff every FD holds.
    pub fn all_satisfied(&self) -> bool {
        self.statuses.iter().all(|s| s.satisfied())
    }

    /// Count of violated FDs.
    pub fn violation_count(&self) -> usize {
        self.violated().count()
    }
}

/// Validate `fds` against `rel`, sharing one distinct-count cache. FDs
/// are checked in parallel when the `mintpool` width allows; statuses
/// come back in input order regardless.
pub fn validate(rel: &Relation, fds: &[Fd]) -> ValidationReport {
    let cache = DistinctCache::new();
    let statuses = mintpool::par_map(fds, |fd| FdStatus {
        fd: fd.clone(),
        measures: Measures::compute(rel, fd, &cache),
    });
    ValidationReport { statuses, row_count: rel.row_count() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::relation_of_strs;

    fn rel() -> Relation {
        relation_of_strs(
            "t",
            &["A", "B", "C"],
            &[&["1", "x", "p"], &["1", "y", "p"], &["2", "x", "q"]],
        )
        .unwrap()
    }

    #[test]
    fn validates_mixed_set() {
        let r = rel();
        let fds = vec![
            Fd::parse(r.schema(), "A -> B").unwrap(), // violated
            Fd::parse(r.schema(), "A -> C").unwrap(), // satisfied
        ];
        let report = validate(&r, &fds);
        assert_eq!(report.row_count, 3);
        assert!(!report.all_satisfied());
        assert_eq!(report.violation_count(), 1);
        assert_eq!(report.satisfied().count(), 1);
        let violated: Vec<_> = report.violated().collect();
        assert_eq!(violated[0].fd, fds[0]);
        assert!(violated[0].measures.confidence < 1.0);
    }

    #[test]
    fn verdicts_match_naive_semantics() {
        let r = rel();
        for text in ["A -> B", "A -> C", "B -> C", "A, B -> C", "C -> A"] {
            let fd = Fd::parse(r.schema(), text).unwrap();
            let report = validate(&r, std::slice::from_ref(&fd));
            assert_eq!(report.statuses[0].satisfied(), fd.satisfied_naive(&r), "FD {text}");
        }
    }

    #[test]
    fn empty_fd_set() {
        let report = validate(&rel(), &[]);
        assert!(report.all_satisfied());
        assert_eq!(report.violation_count(), 0);
    }
}
