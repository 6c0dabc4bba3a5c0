//! FD repair ordering (Section 4.1).
//!
//! When several FDs are violated the paper repairs them in decreasing
//! order of the rank
//!
//! ```text
//! O_F = (ic_F + cf_F) / 2
//! ```
//!
//! where `ic_F = 1 − c_F` is the degree of inconsistency and `cf_F` the
//! instance-independent *conflict score*: the average, over the other FDs
//! `F'` in the set, of `|F ∩ F'| / max(|F|, |F'|)`.
//!
//! ## Conflict-score modes
//!
//! The formula in the paper counts attributes shared between the `XY` sets
//! of the two FDs. However, the running example's reported ranks
//! (`F1 = 0.25, F2 = 0.167, F3 = 0.056`) only follow if every conflict
//! score is zero — even though `F2` and `F3` share the attribute `Zip` —
//! which matches counting *consequent* overlap only. We implement the
//! formula as printed ([`ConflictMode::SharedAttrs`], the default) and the
//! variant that reproduces the paper's example numbers
//! ([`ConflictMode::SharedConsequents`]). The repair *order* of the
//! running example is identical under both.

use evofd_storage::{DistinctCache, Relation};

use crate::fd::Fd;
use crate::measures::Measures;

/// How `|F ∩ F'|` is counted in the conflict score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictMode {
    /// Count attributes shared between the full `XY` sets (the formula as
    /// printed in §4.1).
    #[default]
    SharedAttrs,
    /// Count attributes shared between the consequents only (reproduces
    /// the paper's running-example rank values exactly).
    SharedConsequents,
}

/// Conflict score `cf_F` of `fd` against the other FDs in `all`
/// (instance-independent). `fd` itself is skipped; a singleton set scores 0.
pub fn conflict_score(fd: &Fd, all: &[Fd], mode: ConflictMode) -> f64 {
    if all.len() <= 1 {
        return 0.0;
    }
    let mut sum = 0.0;
    for other in all {
        if other == fd {
            continue;
        }
        let shared = match mode {
            ConflictMode::SharedAttrs => fd.shared_attrs(other),
            ConflictMode::SharedConsequents => fd.rhs().intersection_len(other.rhs()),
        };
        let denom = fd.num_attrs().max(other.num_attrs());
        sum += shared as f64 / denom as f64;
    }
    sum / all.len() as f64
}

/// A ranked FD: measures plus the §4.1 rank.
#[derive(Debug, Clone)]
pub struct RankedFd {
    /// The FD.
    pub fd: Fd,
    /// Its measures on the instance.
    pub measures: Measures,
    /// Conflict score `cf_F`.
    pub conflict: f64,
    /// Rank `O_F = (ic + cf) / 2`.
    pub rank: f64,
}

/// Rank a set of FDs on an instance and sort by decreasing rank — the
/// paper's `OrderFDs` (Algorithm 1, line 2). Ties break on the FD's
/// attribute sets for determinism.
pub fn order_fds(
    rel: &Relation,
    fds: &[Fd],
    mode: ConflictMode,
    cache: &DistinctCache,
) -> Vec<RankedFd> {
    let mut ranked: Vec<RankedFd> = fds
        .iter()
        .map(|fd| {
            let measures = Measures::compute(rel, fd, cache);
            let conflict = conflict_score(fd, fds, mode);
            let rank = (measures.inconsistency() + conflict) / 2.0;
            RankedFd { fd: fd.clone(), measures, conflict, rank }
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.rank.partial_cmp(&a.rank).expect("ranks are finite").then_with(|| a.fd.cmp(&b.fd))
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::Schema;

    fn schema() -> Schema {
        Schema::uniform(
            "Places",
            &[
                "District",
                "Region",
                "Municipal",
                "AreaCode",
                "PhNo",
                "Street",
                "Zip",
                "City",
                "State",
            ],
            evofd_storage::DataType::Str,
        )
        .unwrap()
    }

    fn running_example_fds(s: &Schema) -> Vec<Fd> {
        vec![
            Fd::parse(s, "District, Region -> AreaCode").unwrap(),
            Fd::parse(s, "Zip -> City, State").unwrap(),
            Fd::parse(s, "PhNo, Zip -> Street").unwrap(),
        ]
    }

    #[test]
    fn conflict_score_shared_attrs() {
        let s = schema();
        let fds = running_example_fds(&s);
        // F1 shares nothing with F2/F3.
        assert_eq!(conflict_score(&fds[0], &fds, ConflictMode::SharedAttrs), 0.0);
        // F2 = {Zip, City, State}, F3 = {PhNo, Zip, Street}: share {Zip}.
        let cf2 = conflict_score(&fds[1], &fds, ConflictMode::SharedAttrs);
        assert!((cf2 - (1.0 / 3.0) / 3.0).abs() < 1e-12, "cf2 = {cf2}");
    }

    #[test]
    fn conflict_score_consequent_mode_matches_paper_example() {
        let s = schema();
        let fds = running_example_fds(&s);
        for fd in &fds {
            assert_eq!(conflict_score(fd, &fds, ConflictMode::SharedConsequents), 0.0);
        }
    }

    #[test]
    fn conflict_score_singleton_is_zero() {
        let s = schema();
        let fds = vec![Fd::parse(&s, "Zip -> City").unwrap()];
        assert_eq!(conflict_score(&fds[0], &fds, ConflictMode::SharedAttrs), 0.0);
    }

    #[test]
    fn conflict_score_overlapping_consequents() {
        let s = schema();
        let fds =
            vec![Fd::parse(&s, "Zip -> City").unwrap(), Fd::parse(&s, "District -> City").unwrap()];
        let cf = conflict_score(&fds[0], &fds, ConflictMode::SharedConsequents);
        // shared consequent {City} = 1, denom max(2,2) = 2, / |F|=2.
        assert!((cf - 0.25).abs() < 1e-12);
    }

    // Full running-example rank values are exercised in the integration
    // tests against the real Places relation (needs evofd-datagen).
}
