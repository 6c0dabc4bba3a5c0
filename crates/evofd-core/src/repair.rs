//! The repair search (Section 4.3–4.4, Algorithms 1 and 3).
//!
//! `Extend` explores multi-attribute repairs with a best-first queue
//! ordered by **increasing antecedent cardinality** and then **decreasing
//! candidate rank** (confidence desc, |goodness| asc). Because shorter
//! antecedents always pop first, the first exact FD popped is a *minimal*
//! repair — property-tested against brute-force subset enumeration.
//!
//! Two additions over the paper's pseudocode, both documented in DESIGN.md:
//!
//! * **visited-set deduplication** — `X ∪ {A, B}` is reachable as
//!   `(X+A)+B` and `(X+B)+A`; without a visited set the queue blows up
//!   factorially instead of exponentially. Dedup does not change results.
//! * **goodness threshold** (the §4.4 "currently investigating" extension)
//!   — an exact candidate whose |goodness| exceeds the threshold is *not*
//!   accepted (and not extended further: extending an exact FD can only
//!   keep it exact with equal-or-larger goodness). This is what stops a
//!   UNIQUE attribute from short-circuiting the search.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::time::{Duration, Instant};

use evofd_storage::{AttrSet, DistinctCache, Relation};

use crate::candidates::{candidate_pool, extend_by_one, Candidate};
use crate::error::{FdError, Result};
use crate::fd::Fd;
use crate::measures::Measures;
use crate::ordering::{order_fds, ConflictMode, RankedFd};

/// Whether the search stops at the first repair or explores exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Stop at the first (minimal, best-ranked) repair — the mode behind
    /// the paper's Table 6 and Table 8.
    #[default]
    FindFirst,
    /// Enumerate every repair in the search space — Tables 5 and 7.
    FindAll,
}

/// Configuration for the repair search.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Stop condition.
    pub mode: SearchMode,
    /// Maximum number of attributes that may be *added* to the antecedent.
    /// Defaults to unlimited (bounded by the candidate pool).
    pub max_added: usize,
    /// §4.4 extension: maximum |goodness| an accepted repair may have.
    /// `None` disables the filter (paper default).
    pub goodness_threshold: Option<u64>,
    /// Safety cap on queue expansions; the search reports truncation.
    pub max_expansions: usize,
    /// Wall-clock budget; `None` = unlimited.
    pub time_limit: Option<Duration>,
    /// Conflict-score mode used when ordering multiple FDs.
    pub conflict_mode: ConflictMode,
    /// Memoise distinct counts (ablation switch; on by default).
    pub use_cache: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            mode: SearchMode::FindFirst,
            max_added: usize::MAX,
            goodness_threshold: None,
            max_expansions: 1_000_000,
            time_limit: None,
            conflict_mode: ConflictMode::default(),
            use_cache: true,
        }
    }
}

impl RepairConfig {
    /// Exhaustive-search configuration (Tables 5/7).
    pub fn find_all() -> RepairConfig {
        RepairConfig { mode: SearchMode::FindAll, ..RepairConfig::default() }
    }

    /// First-repair configuration (Tables 6/8).
    pub fn find_first() -> RepairConfig {
        RepairConfig::default()
    }

    fn new_cache(&self) -> DistinctCache {
        if self.use_cache {
            DistinctCache::new()
        } else {
            DistinctCache::disabled()
        }
    }
}

/// One accepted repair: the evolved FD and what was added.
#[derive(Debug, Clone)]
pub struct Repair {
    /// The evolved, exact FD `XU → Y`.
    pub fd: Fd,
    /// The added attribute set `U`.
    pub added: AttrSet,
    /// Measures of the evolved FD (confidence 1 by construction).
    pub measures: Measures,
}

/// Counters describing how much work a search did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Queue entries expanded (calls to `ExtendByOne`).
    pub expansions: usize,
    /// Candidates generated across all expansions.
    pub generated: usize,
    /// Candidates skipped because their antecedent was already enqueued.
    pub deduped: usize,
    /// Exact candidates rejected by the goodness threshold.
    pub rejected_by_goodness: usize,
    /// Distinct-count cache hits/misses.
    pub cache: evofd_storage::CacheStats,
}

/// Result of repairing a single FD.
#[derive(Debug, Clone)]
pub struct RepairSearch {
    /// The FD that was repaired.
    pub original: Fd,
    /// Measures of the original FD (confidence < 1).
    pub original_measures: Measures,
    /// Accepted repairs, in discovery order (minimal → larger; best rank
    /// first within a size).
    pub repairs: Vec<Repair>,
    /// Work counters.
    pub stats: SearchStats,
    /// True if the search hit `max_expansions` or the time limit.
    pub truncated: bool,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl RepairSearch {
    /// The minimal repair, if any was found (first discovered).
    pub fn best(&self) -> Option<&Repair> {
        self.repairs.first()
    }
}

/// Queue entry: ordered so that the `BinaryHeap` (a max-heap) pops the
/// entry with the smallest antecedent first, then the best rank.
struct QueueEntry {
    candidate: Candidate,
    added: AttrSet,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: `Greater` pops first. Prefer fewer added attributes,
        // then the paper's candidate rank, then a stable set order.
        other
            .added
            .len()
            .cmp(&self.added.len())
            .then_with(|| {
                self.candidate.measures.confidence.total_cmp(&other.candidate.measures.confidence)
            })
            .then_with(|| {
                other.candidate.measures.abs_goodness().cmp(&self.candidate.measures.abs_goodness())
            })
            .then_with(|| other.added.cmp(&self.added))
    }
}

/// Algorithm 3 (`Extend`) with Algorithm 1's exactness bookkeeping: find
/// repairs for a single violated FD.
///
/// Returns [`FdError::AlreadySatisfied`] if the FD is exact on `rel`.
pub fn repair_fd(rel: &Relation, fd: &Fd, config: &RepairConfig) -> Result<RepairSearch> {
    let cache = config.new_cache();
    let original_measures = Measures::compute(rel, fd, &cache);
    if original_measures.is_exact() {
        return Err(FdError::AlreadySatisfied { fd: fd.display(rel.schema()) });
    }
    Ok(run_search(rel, fd, original_measures, config, cache))
}

fn run_search(
    rel: &Relation,
    fd: &Fd,
    original_measures: Measures,
    config: &RepairConfig,
    cache: DistinctCache,
) -> RepairSearch {
    let start = Instant::now();
    let mut stats = SearchStats::default();
    let mut repairs: Vec<Repair> = Vec::new();
    let mut truncated = false;

    let pool = candidate_pool(rel, fd);
    let mut visited: HashSet<AttrSet> = HashSet::new();
    let mut queue: BinaryHeap<QueueEntry> = BinaryHeap::new();

    // Seed: all one-attribute extensions (Algorithm 3, lines 1–2).
    stats.expansions += 1;
    for candidate in extend_by_one(rel, fd, &pool, &cache) {
        let added = AttrSet::single(candidate.attr);
        visited.insert(added.clone());
        stats.generated += 1;
        queue.push(QueueEntry { candidate, added });
    }

    'search: while let Some(entry) = queue.pop() {
        if let Some(limit) = config.time_limit {
            if start.elapsed() > limit {
                truncated = true;
                break 'search;
            }
        }
        let QueueEntry { candidate, added } = entry;

        if candidate.measures.is_exact() {
            let within_goodness = config
                .goodness_threshold
                .is_none_or(|thr| candidate.measures.abs_goodness() <= thr);
            if within_goodness {
                repairs.push(Repair {
                    fd: candidate.fd.clone(),
                    added: added.clone(),
                    measures: candidate.measures,
                });
                if config.mode == SearchMode::FindFirst {
                    break 'search;
                }
            } else {
                // Extending an exact FD keeps |π_XA| = |π_XAY| while the
                // goodness can only grow — dead end under the threshold.
                stats.rejected_by_goodness += 1;
            }
            continue;
        }

        // Not exact: extend further (Algorithm 3, lines 8–9).
        if added.len() >= config.max_added {
            continue;
        }
        if stats.expansions >= config.max_expansions {
            truncated = true;
            break 'search;
        }
        stats.expansions += 1;
        let remaining = pool.difference(candidate.fd.lhs());
        for next in extend_by_one(rel, &candidate.fd, &remaining, &cache) {
            let next_added = added.with(next.attr);
            if !visited.insert(next_added.clone()) {
                stats.deduped += 1;
                continue;
            }
            stats.generated += 1;
            queue.push(QueueEntry { candidate: next, added: next_added });
        }
    }

    stats.cache = cache.stats();
    RepairSearch {
        original: fd.clone(),
        original_measures,
        repairs,
        stats,
        truncated,
        elapsed: start.elapsed(),
    }
}

/// Outcome of `FindFDRepairs` for one FD of the input set.
#[derive(Debug, Clone)]
pub struct FdOutcome {
    /// The FD with its rank (§4.1) and measures.
    pub ranked: RankedFd,
    /// `None` if the FD was already satisfied; otherwise the search result.
    pub search: Option<RepairSearch>,
}

impl FdOutcome {
    /// True iff the FD held on the instance.
    pub fn satisfied(&self) -> bool {
        self.search.is_none()
    }
}

/// Algorithm 1 (`FindFDRepairs`): order all FDs by rank, then repair each
/// violated one. Satisfied FDs are reported with `search = None`. The
/// per-FD searches are independent and fan out across the `mintpool`
/// width; outcomes come back in rank order either way.
pub fn find_fd_repairs(rel: &Relation, fds: &[Fd], config: &RepairConfig) -> Vec<FdOutcome> {
    let ranked = order_fds(rel, fds, config.conflict_mode, &config.new_cache());
    mintpool::par_map(&ranked, |ranked| {
        let search = if ranked.measures.is_exact() {
            None
        } else {
            Some(run_search(rel, &ranked.fd, ranked.measures, config, config.new_cache()))
        };
        FdOutcome { ranked: ranked.clone(), search }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_storage::relation_of_strs;

    /// D -> A is violated; M repairs it with goodness 0, P with goodness 2;
    /// U is UNIQUE (would repair anything, worst goodness).
    fn rel() -> Relation {
        relation_of_strs(
            "t",
            &["D", "M", "P", "A", "U"],
            &[
                &["d1", "m1", "p1", "a1", "u1"],
                &["d1", "m1", "p1", "a1", "u2"],
                &["d1", "m2", "p2", "a2", "u3"],
                &["d2", "m3", "p3", "a3", "u4"],
                &["d2", "m3", "p4", "a3", "u5"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn find_first_returns_minimal_best_repair() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let search = repair_fd(&r, &fd, &RepairConfig::find_first()).unwrap();
        let best = search.best().expect("repair exists");
        assert_eq!(best.added.indices(), vec![1], "Municipal-like attribute wins");
        assert_eq!(best.measures.goodness, 0);
        assert!(best.measures.is_exact());
        assert_eq!(search.repairs.len(), 1);
    }

    #[test]
    fn find_all_enumerates_single_attr_repairs_first() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let search = repair_fd(&r, &fd, &RepairConfig::find_all()).unwrap();
        // M, P and U all repair with one attribute.
        let one_attr: Vec<_> = search.repairs.iter().filter(|rep| rep.added.len() == 1).collect();
        assert_eq!(one_attr.len(), 3);
        // Best-ranked first: M (g=0), then P (g=2), then U (g=4? |π_DU|=5-|π_A|=3 → 2).
        assert_eq!(search.repairs[0].added.indices(), vec![1]);
        // Every reported repair must be exact.
        assert!(search.repairs.iter().all(|rep| rep.measures.is_exact()));
    }

    #[test]
    fn already_satisfied_errors() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "M -> A").unwrap();
        assert!(fd.satisfied_naive(&r));
        assert!(matches!(
            repair_fd(&r, &fd, &RepairConfig::default()),
            Err(FdError::AlreadySatisfied { .. })
        ));
    }

    #[test]
    fn goodness_threshold_rejects_unique_attribute() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let mut cfg = RepairConfig::find_all();
        cfg.goodness_threshold = Some(0);
        let search = repair_fd(&r, &fd, &cfg).unwrap();
        assert!(
            search.repairs.iter().all(|rep| rep.measures.abs_goodness() == 0),
            "only bijective repairs accepted"
        );
        assert!(search.stats.rejected_by_goodness > 0);
    }

    #[test]
    fn max_added_limits_depth() {
        // FD needing two attributes: X -> Y where only {A, B} together work.
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
        let mut cfg = RepairConfig::find_first();
        cfg.max_added = 1;
        let search = repair_fd(&r, &fd, &cfg).unwrap();
        assert!(search.repairs.is_empty(), "no single attribute repairs this FD");
        cfg.max_added = 2;
        let search = repair_fd(&r, &fd, &cfg).unwrap();
        let best = search.best().expect("two attributes repair it");
        assert_eq!(best.added.len(), 2);
    }

    #[test]
    fn dedup_counts_duplicates() {
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
        let search = repair_fd(&r, &fd, &RepairConfig::find_all()).unwrap();
        assert!(search.stats.deduped > 0, "A+B and B+A collapse");
        assert_eq!(search.repairs.len(), 1, "exactly one repair: {{A,B}}");
        assert_eq!(search.repairs[0].added.len(), 2);
    }

    #[test]
    fn no_repair_possible_reports_empty() {
        // Y differs on rows identical everywhere else: nothing can repair.
        let r = relation_of_strs("t", &["X", "A", "Y"], &[&["x", "a", "y1"], &["x", "a", "y2"]])
            .unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let search = repair_fd(&r, &fd, &RepairConfig::find_all()).unwrap();
        assert!(search.repairs.is_empty());
        assert!(!search.truncated);
    }

    #[test]
    fn expansion_cap_truncates() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> P").unwrap(); // hard: P near-unique
        let mut cfg = RepairConfig::find_all();
        cfg.max_expansions = 1;
        let search = repair_fd(&r, &fd, &cfg).unwrap();
        // With only the seed expansion allowed, any non-exact candidate
        // requiring further extension marks the search truncated.
        assert!(search.truncated || !search.repairs.is_empty());
    }

    #[test]
    fn find_fd_repairs_orders_and_skips_satisfied() {
        let r = rel();
        let fds = vec![
            Fd::parse(r.schema(), "M -> A").unwrap(), // satisfied
            Fd::parse(r.schema(), "D -> A").unwrap(), // violated
        ];
        let outcomes = find_fd_repairs(&r, &fds, &RepairConfig::find_first());
        assert_eq!(outcomes.len(), 2);
        // Violated FD has higher rank (ic > 0), so it comes first.
        assert!(!outcomes[0].satisfied());
        assert!(outcomes[1].satisfied());
        assert!(outcomes[0].search.as_ref().unwrap().best().is_some());
    }

    #[test]
    fn cache_ablation_changes_stats_not_results() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let with_cache = repair_fd(&r, &fd, &RepairConfig::find_all()).unwrap();
        let mut cfg = RepairConfig::find_all();
        cfg.use_cache = false;
        let without = repair_fd(&r, &fd, &cfg).unwrap();
        assert_eq!(with_cache.repairs.len(), without.repairs.len());
        assert_eq!(
            with_cache.repairs.iter().map(|x| x.fd.clone()).collect::<Vec<_>>(),
            without.repairs.iter().map(|x| x.fd.clone()).collect::<Vec<_>>()
        );
        assert_eq!(without.stats.cache.hits, 0);
    }

    #[test]
    fn first_repair_is_minimal() {
        // Brute-force check on a relation where the minimal repair needs 2
        // attributes but a 3-attribute superset also works.
        let r = relation_of_strs(
            "t",
            &["X", "A", "B", "C", "Y"],
            &[
                &["x", "a1", "b1", "c1", "y1"],
                &["x", "a1", "b2", "c2", "y2"],
                &["x", "a2", "b1", "c3", "y3"],
                &["x", "a2", "b2", "c4", "y4"],
            ],
        )
        .unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let search = repair_fd(&r, &fd, &RepairConfig::find_first()).unwrap();
        let best = search.best().unwrap();
        // C alone is unique → single-attribute repair exists; minimal = 1.
        assert_eq!(best.added.len(), 1);
    }
}
