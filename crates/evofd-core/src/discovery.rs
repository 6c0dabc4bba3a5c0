//! Levelwise FD discovery (a TANE-style miner on distinct counts).
//!
//! Section 2 of the paper discusses the alternative to repairing declared
//! FDs: *discover* every dependency that holds on the instance and then
//! relax the obsolete ones — and argues it is "rather impractical" when
//! the FDs were designer-specified, both for efficiency and because the
//! discovered set "not always include\[s\] extensions of the ones specified
//! by the designer". This module makes that claim testable: a levelwise
//! miner over the same storage substrate, used by the
//! `discovery_vs_repair` benchmark.
//!
//! The miner walks the attribute-set lattice level by level. `X → A`
//! holds iff `|π_X| = |π_XA|` (the same count identity the CB method
//! uses); minimality pruning discards any candidate whose antecedent
//! contains an already-found determinant of the same consequent, and key
//! pruning stops extending superkeys.
//!
//! There is one walk. The nodes of a level fan out over the `mintpool`
//! width (inline at width 1) against one shared [`DistinctCache`]: within
//! a level no discovery can prune another (equal-size antecedents are
//! never strict subsets of each other), so per-node work only depends on
//! previous levels. Results merge back in levelwise order, so the mined
//! FD list *and* the work counters are the same at every width — a node
//! records the ordinal of each passing check, and a `max_results` cut
//! counts checks only up to the one that hit the cap.

use std::time::{Duration, Instant};

use evofd_storage::{AttrId, AttrSet, DistinctCache, Relation};

use crate::fd::Fd;
use crate::measures::Measures;

/// Configuration for the miner.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Maximum antecedent size explored.
    pub max_lhs: usize,
    /// Minimum confidence for a dependency to be reported. `1.0` mines
    /// exact FDs; lower values mine approximate FDs (Definition 4).
    pub min_confidence: f64,
    /// Hard cap on reported FDs (the lattice is exponential).
    pub max_results: usize,
    /// Restrict mining to these attributes (`None` = all NULL-free ones).
    pub attributes: Option<AttrSet>,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig { max_lhs: 3, min_confidence: 1.0, max_results: 10_000, attributes: None }
    }
}

/// One mined dependency.
#[derive(Debug, Clone)]
pub struct DiscoveredFd {
    /// The dependency (single-attribute consequent).
    pub fd: Fd,
    /// Its measures on the instance.
    pub measures: Measures,
}

/// Outcome of a mining run.
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// Minimal dependencies found, in discovery (levelwise) order.
    pub fds: Vec<DiscoveredFd>,
    /// Lattice nodes (antecedent sets) visited.
    pub nodes_visited: usize,
    /// Candidate FD checks performed.
    pub checks: usize,
    /// True if `max_results` stopped the run early.
    pub truncated: bool,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl DiscoveryResult {
    /// Does the mined set contain `fd` or a *generalisation* of it (same
    /// consequent, antecedent ⊆ `fd`'s)? This is the §2 question: would
    /// discover-then-relax even surface the designer's constraint?
    pub fn covers(&self, fd: &Fd) -> bool {
        self.fds
            .iter()
            .any(|d| d.fd.rhs().is_subset_of(fd.rhs()) && d.fd.lhs().is_subset_of(fd.lhs()))
    }

    /// Mined extensions of `fd`: same consequent, antecedent ⊇ `fd`'s —
    /// exactly the repairs the CB method would propose.
    pub fn extensions_of(&self, fd: &Fd) -> Vec<&DiscoveredFd> {
        self.fds
            .iter()
            .filter(|d| d.fd.rhs() == fd.rhs() && fd.lhs().is_subset_of(d.fd.lhs()))
            .collect()
    }
}

/// Mine minimal (approximate) FDs from an instance. Candidate validation
/// within each lattice level fans out across the `mintpool` width; results
/// and work counters are identical at every width.
pub fn discover_fds(rel: &Relation, config: &DiscoveryConfig) -> DiscoveryResult {
    let start = Instant::now();
    let cache = DistinctCache::new();
    let attrs: Vec<AttrId> = match &config.attributes {
        Some(set) => set.iter().collect(),
        None => rel.non_null_attrs().iter().collect(),
    };
    let n_rows = rel.row_count();

    let mut result = DiscoveryResult {
        fds: Vec::new(),
        nodes_visited: 0,
        checks: 0,
        truncated: false,
        elapsed: Duration::ZERO,
    };

    // Minimal determinant sets already reported, with their consequent.
    let mut found: Vec<(AttrSet, AttrId)> = Vec::new();

    /// What one lattice node contributes, computed off-thread.
    struct NodeEval {
        lhs_is_key: bool,
        checks: usize,
        /// Passing FDs with their consequent and the 1-based ordinal of
        /// their check within the node.
        passing: Vec<(usize, AttrId, DiscoveredFd)>,
    }

    // Level 1 antecedents: single attributes. Levels grow by extension
    // with a strictly larger attribute id (each set generated once).
    let mut level: Vec<AttrSet> = attrs.iter().map(|&a| AttrSet::single(a)).collect();

    'levels: for _size in 1..=config.max_lhs {
        // Score every node of this level against the pre-level `found`
        // set; in-level discoveries cannot prune in-level candidates.
        let found_before = &found;
        let evals: Vec<NodeEval> = mintpool::par_map(&level, |lhs| {
            let lhs_count = cache.count(rel, lhs);
            let lhs_is_key = lhs_count == n_rows && n_rows > 0;
            let mut checks = 0;
            let mut passing = Vec::new();
            for &rhs in &attrs {
                if lhs.contains(rhs)
                    || found_before.iter().any(|(l, r)| *r == rhs && l.is_subset_of(lhs))
                {
                    continue;
                }
                checks += 1;
                let fd = Fd::new(lhs.clone(), AttrSet::single(rhs)).expect("non-empty rhs");
                let measures = Measures::compute(rel, &fd, &cache);
                if measures.confidence >= config.min_confidence {
                    passing.push((checks, rhs, DiscoveredFd { fd, measures }));
                }
            }
            NodeEval { lhs_is_key, checks, passing }
        });

        // Merge in levelwise order.
        let mut next_level: Vec<AttrSet> = Vec::new();
        for (lhs, eval) in level.iter().zip(evals) {
            result.nodes_visited += 1;
            for (ordinal, rhs, discovered) in eval.passing {
                found.push((lhs.clone(), rhs));
                result.fds.push(discovered);
                if result.fds.len() >= config.max_results {
                    // Checks past the one that hit the cap do not count:
                    // the walk stops there.
                    result.checks += ordinal;
                    result.truncated = true;
                    break 'levels;
                }
            }
            result.checks += eval.checks;
            // Key pruning: a superkey determines everything already.
            if !eval.lhs_is_key {
                let max_attr = lhs.iter().last().map(|a| a.0).unwrap_or(0);
                for &a in &attrs {
                    if a.0 > max_attr {
                        next_level.push(lhs.with(a));
                    }
                }
            }
        }
        level = next_level;
        if level.is_empty() {
            break;
        }
    }

    result.elapsed = start.elapsed();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::relation_of_strs;

    fn rel() -> Relation {
        // B -> C holds; A -> C holds only with B; D is a key.
        relation_of_strs(
            "t",
            &["A", "B", "C", "D"],
            &[
                &["a1", "b1", "c1", "d1"],
                &["a1", "b2", "c2", "d2"],
                &["a2", "b1", "c1", "d3"],
                &["a2", "b2", "c2", "d4"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn mines_exact_fds() {
        let r = rel();
        let result = discover_fds(&r, &DiscoveryConfig::default());
        let texts: Vec<String> = result.fds.iter().map(|d| d.fd.display(r.schema())).collect();
        assert!(texts.contains(&"[B] -> [C]".to_string()), "{texts:?}");
        assert!(texts.contains(&"[C] -> [B]".to_string()), "{texts:?}");
        // D is unique: it determines everything at level 1.
        assert!(texts.contains(&"[D] -> [A]".to_string()), "{texts:?}");
        assert!(!result.truncated);
        assert!(result.checks > 0 && result.nodes_visited > 0);
    }

    #[test]
    fn minimality_pruning() {
        let r = rel();
        let result = discover_fds(&r, &DiscoveryConfig::default());
        // [A, B] -> [C] must NOT be reported: [B] -> [C] is minimal.
        let ab_c = Fd::parse(r.schema(), "A, B -> C").unwrap();
        assert!(!result.fds.iter().any(|d| d.fd == ab_c), "non-minimal FD reported");
        // But the result still *covers* the designer FD A,B -> C.
        assert!(result.covers(&ab_c));
    }

    #[test]
    fn every_mined_fd_is_exact_and_minimal() {
        let r = rel();
        let result = discover_fds(&r, &DiscoveryConfig::default());
        for d in &result.fds {
            assert!(d.measures.is_exact(), "{}", d.fd.display(r.schema()));
            assert!(d.fd.satisfied_naive(&r));
            // Minimal: no reported generalisation.
            let generalisations = result
                .fds
                .iter()
                .filter(|other| {
                    other.fd.rhs() == d.fd.rhs()
                        && other.fd.lhs().is_subset_of(d.fd.lhs())
                        && other.fd != d.fd
                })
                .count();
            assert_eq!(generalisations, 0);
        }
    }

    #[test]
    fn approximate_mining_lowers_the_bar() {
        let r = relation_of_strs(
            "t",
            &["X", "Y"],
            &[&["x", "1"], &["x", "1"], &["x", "2"], &["z", "3"]],
        )
        .unwrap();
        let exact = discover_fds(&r, &DiscoveryConfig::default());
        assert!(!exact.fds.iter().any(|d| d.fd == Fd::parse(r.schema(), "X -> Y").unwrap()));
        let approx = discover_fds(
            &r,
            &DiscoveryConfig { min_confidence: 0.6, ..DiscoveryConfig::default() },
        );
        let xy = Fd::parse(r.schema(), "X -> Y").unwrap();
        assert!(approx.fds.iter().any(|d| d.fd == xy), "c = 2/3 ≥ 0.6");
    }

    #[test]
    fn max_lhs_bounds_levels() {
        let r = rel();
        let shallow =
            discover_fds(&r, &DiscoveryConfig { max_lhs: 1, ..DiscoveryConfig::default() });
        for d in &shallow.fds {
            assert_eq!(d.fd.lhs().len(), 1);
        }
    }

    #[test]
    fn max_results_truncates() {
        let r = rel();
        let tiny =
            discover_fds(&r, &DiscoveryConfig { max_results: 1, ..DiscoveryConfig::default() });
        assert_eq!(tiny.fds.len(), 1);
        assert!(tiny.truncated);
    }

    #[test]
    fn attribute_restriction() {
        let r = rel();
        let only_bc = r.schema().attr_set(&["B", "C"]).unwrap();
        let result = discover_fds(
            &r,
            &DiscoveryConfig { attributes: Some(only_bc.clone()), ..DiscoveryConfig::default() },
        );
        for d in &result.fds {
            assert!(d.fd.attrs().is_subset_of(&only_bc));
        }
        assert_eq!(result.fds.len(), 2, "B <-> C");
    }

    #[test]
    fn extensions_of_declared_fd() {
        // X -> Y is violated; mining must surface extensions XZ -> Y that
        // the repair engine would also find.
        let r = relation_of_strs(
            "t",
            &["X", "Z", "Y"],
            &[&["x", "z1", "y1"], &["x", "z2", "y2"], &["w", "z1", "y3"], &["w", "z2", "y4"]],
        )
        .unwrap();
        let declared = Fd::parse(r.schema(), "X -> Y").unwrap();
        let result = discover_fds(&r, &DiscoveryConfig::default());
        let exts = result.extensions_of(&declared);
        assert!(
            exts.iter().any(|d| d.fd == Fd::parse(r.schema(), "X, Z -> Y").unwrap()),
            "mined: {:?}",
            result.fds.iter().map(|d| d.fd.display(r.schema())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_relation_mines_nothing_interesting() {
        let r = relation_of_strs("t", &["A", "B"], &[]).unwrap();
        let result = discover_fds(&r, &DiscoveryConfig::default());
        // All counts are 0; confidence is vacuously 1 — every FD "holds".
        // The miner reports the minimal level-1 dependencies only.
        for d in &result.fds {
            assert_eq!(d.fd.lhs().len(), 1);
        }
    }
}
