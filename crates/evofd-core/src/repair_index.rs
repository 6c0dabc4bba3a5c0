//! [`RepairIndex`]: the repair search of [`crate::repair`] split into a
//! **resumable index** whose per-candidate scores are maintained from
//! delta row lists instead of recomputed by a from-scratch lattice walk.
//!
//! The batch `Extend` search (Algorithm 3) explores a lattice of added
//! attribute sets `S ⊆ pool`: the single-attribute seeds always, and a
//! node `S` with `|S| ≥ 2` exactly when some parent `S \ {a}` was visited,
//! was **not** exact, and had room left under `max_added`. Accepted
//! repairs are the visited exact nodes (within the goodness threshold),
//! reported in queue-pop order — `(|S|, |goodness|, S)` ascending, since
//! every accepted repair has confidence exactly 1. Both the visited set
//! and the ranking are therefore pure functions of the distinct counts
//! `|π_XS|` / `|π_XSY|` / `|π_Y|` on the current rows.
//!
//! [`RepairIndex`] maintains those counts per candidate node with the
//! same group-count maps the incremental validator keeps for whole FDs
//! (dictionary-code keys, stable between compactions): a delta touching
//! `k` rows costs O(k) per maintained node, after which **dirty-candidate
//! invalidation** re-derives the visited lattice from the updated
//! exactness bits — pruning orphaned branches, growing newly reachable
//! ones (the only part that rescans live rows, and only for the new
//! nodes) — and a **bounded re-rank** rebuilds the proposal list by
//! sorting the surviving exact nodes. The result is proven equal to a
//! fresh [`crate::repair_fd`] run at every step (see the in-module tests
//! and `tests/live_advisor_equivalence.rs`).
//!
//! Node re-scoring fans out across the `mintpool` width: each node's
//! counter is owned by exactly one task per update, the relation and the
//! delta row lists are shared read-only.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::Range;

use evofd_storage::fastkey::{key, packed_key, FastMap, GroupRhs, Key, KeyMap, PACK_MAX_ATTRS};
use evofd_storage::{AttrId, AttrSet, Relation, NULL_CODE};

use crate::fd::Fd;
use crate::measures::Measures;
use crate::repair::{Repair, RepairConfig, SearchMode};

/// `EVOFD_INDEX_TRACE=1` prints per-update phase timings to stderr.
fn trace_enabled() -> bool {
    static TRACE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *TRACE.get_or_init(|| std::env::var_os("EVOFD_INDEX_TRACE").is_some())
}

/// One candidate node's count state: `X∪S`-projection → its Y-projection
/// distribution ([`GroupRhs`]). `|π_XS|` = map length, `|π_XSY|` = the
/// maintained pair total.
#[derive(Debug, Clone)]
struct PairCounter<K> {
    groups: FastMap<K, GroupRhs<K>>,
    /// `|π_XSY|` — total distinct (X∪S, Y) pairs across groups.
    pairs: usize,
}

impl<K> Default for PairCounter<K> {
    fn default() -> Self {
        PairCounter { groups: FastMap::default(), pairs: 0 }
    }
}

impl<K: Hash + Eq + Clone> PairCounter<K> {
    fn insert_row(&mut self, lkey: K, rkey: &K) {
        match self.groups.entry(lkey) {
            Entry::Vacant(v) => {
                v.insert(GroupRhs::new(rkey.clone()));
                self.pairs += 1;
            }
            Entry::Occupied(mut e) => {
                if e.get_mut().insert(rkey) {
                    self.pairs += 1;
                }
            }
        }
    }

    fn remove_row(&mut self, lkey: K, rkey: &K) {
        let Entry::Occupied(mut e) = self.groups.entry(lkey) else {
            unreachable!("group exists for a tracked row")
        };
        if e.get_mut().remove(rkey) {
            self.pairs -= 1;
        }
        if e.get().is_empty() {
            e.remove();
        }
    }

    /// `(|π_XS|, |π_XSY|)`.
    fn counts(&self) -> (usize, usize) {
        (self.groups.len(), self.pairs)
    }
}

/// A node's counter in its chosen key representation. **Packed** nodes —
/// every key column NULL-free with a sub-2^16 dictionary, antecedent and
/// consequent each at most four attributes — fold their keys into single
/// `u64` words, shrinking map entries to cache-line size (the dominant
/// cost of maintenance is map-probe cache misses). The representation is
/// fixed per (re)build; a dictionary outgrowing the bound rebuilds the
/// index (see [`RepairIndex::update`]).
#[derive(Debug, Clone)]
enum Counter {
    Packed(PairCounter<u64>),
    General(PairCounter<Key>),
}

/// One changed row's Y-projection key, in both representations (packed is
/// meaningful only when the consequent qualifies for packing).
struct RowRhs {
    generic: Key,
    packed: u64,
}

/// One maintained lattice node: the added set `S` and its counter.
#[derive(Debug, Clone)]
struct Node {
    /// Attribute ids of `X ∪ S` in index order (the counter's group key).
    lhs: Vec<AttrId>,
    counter: Counter,
}

impl Node {
    fn insert(&mut self, rel: &Relation, rkey: &RowRhs, row: usize) {
        match &mut self.counter {
            Counter::Packed(c) => c.insert_row(packed_key(rel, &self.lhs, row), &rkey.packed),
            Counter::General(c) => c.insert_row(key(rel, &self.lhs, row), &rkey.generic),
        }
    }

    fn remove(&mut self, rel: &Relation, rkey: &RowRhs, row: usize) {
        match &mut self.counter {
            Counter::Packed(c) => c.remove_row(packed_key(rel, &self.lhs, row), &rkey.packed),
            Counter::General(c) => c.remove_row(key(rel, &self.lhs, row), &rkey.generic),
        }
    }

    fn exact(&self) -> bool {
        let (dl, dlr) = self.counts();
        dl == dlr
    }

    fn counts(&self) -> (usize, usize) {
        match &self.counter {
            Counter::Packed(c) => c.counts(),
            Counter::General(c) => c.counts(),
        }
    }
}

/// Distinct Y-projection counter shared by every node (`|π_Y|` feeds the
/// goodness of every candidate). Keys are computed once per row by the
/// index and shared with every node's counter.
#[derive(Debug, Clone, Default)]
struct RhsCounter {
    counts: KeyMap<u32>,
}

impl RhsCounter {
    fn insert(&mut self, rkey: &Key) {
        *self.counts.entry(rkey.clone()).or_insert(0) += 1;
    }

    fn remove(&mut self, rkey: &Key) {
        match self.counts.entry(rkey.clone()) {
            Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(_) => unreachable!("rhs key exists for a tracked row"),
        }
    }
}

/// What one [`RepairIndex::update`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexOutcome {
    /// Counters were maintained in O(changed rows); the lattice structure
    /// was re-derived (possibly growing/pruning a few nodes).
    Incremental,
    /// The candidate pool changed (an attribute gained or lost its last
    /// NULL) — the whole index was rebuilt from the live rows.
    Rebuilt,
}

/// Work counters for the `advisor` bench and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Deltas absorbed incrementally.
    pub incremental: u64,
    /// Full rebuilds (pool changes, explicit resyncs).
    pub rebuilds: u64,
    /// Lattice nodes built by scanning live rows (structure growth).
    pub nodes_built: u64,
    /// Lattice nodes pruned as unreachable.
    pub nodes_pruned: u64,
}

/// A resumable repair search for one violated FD: the candidate lattice
/// of [`crate::repair_fd`] kept live under row-level deltas.
///
/// ```
/// use evofd_core::{repair_fd, Fd, RepairConfig, RepairIndex};
/// use evofd_storage::relation_of_strs;
///
/// let rel = relation_of_strs(
///     "t",
///     &["D", "M", "A"],
///     &[&["d1", "m1", "a1"], &["d1", "m2", "a2"], &["d2", "m3", "a3"]],
/// )
/// .unwrap();
/// let fd = Fd::parse(rel.schema(), "D -> A").unwrap();
/// let config = RepairConfig::find_all();
/// let rows: Vec<usize> = (0..rel.row_count()).collect();
/// let index = RepairIndex::build(&rel, &rows, fd.clone(), config.clone());
/// let batch = repair_fd(&rel, &fd, &config).unwrap();
/// assert_eq!(index.proposals().len(), batch.repairs.len());
/// ```
#[derive(Debug, Clone)]
pub struct RepairIndex {
    fd: Fd,
    config: RepairConfig,
    /// Y attribute ids in index order.
    rhs_attrs: Vec<AttrId>,
    /// Candidate pool at the last (re)build: NULL-free attributes outside
    /// the FD.
    pool: AttrSet,
    nodes: HashMap<AttrSet, Node>,
    rhs: RhsCounter,
    /// Live-row NULL count per attribute — the pool-change detector.
    null_counts: Vec<usize>,
    /// Per-attribute pack eligibility (NULL-free, dictionary < 2^16) at
    /// the last (re)build — the packed-node invalidation detector.
    pack_ok: Vec<bool>,
    /// Ranked proposals, rebuilt after every update (bounded re-rank).
    proposals: Vec<Repair>,
    /// True when the lattice hit [`RepairConfig::max_expansions`] — the
    /// combinatorial-blowup guard the batch search enforces by capping
    /// queue expansions. A truncated index stops growing (it never hangs
    /// or OOMs a wide schema) but is no longer promised equal to the
    /// (equally truncated) batch search.
    truncated: bool,
    stats: IndexStats,
}

impl RepairIndex {
    /// Build the index from scratch over the given live rows.
    pub fn build(rel: &Relation, rows: &[usize], fd: Fd, config: RepairConfig) -> RepairIndex {
        let rhs_attrs: Vec<AttrId> = fd.rhs().iter().collect();
        let mut index = RepairIndex {
            fd,
            config,
            rhs_attrs,
            pool: AttrSet::empty(),
            nodes: HashMap::new(),
            rhs: RhsCounter::default(),
            null_counts: vec![0; rel.arity()],
            pack_ok: Vec::new(),
            proposals: Vec::new(),
            truncated: false,
            stats: IndexStats::default(),
        };
        index.rebuild(rel, rows);
        index.stats = IndexStats { rebuilds: 0, ..IndexStats::default() };
        index
    }

    /// The FD this index repairs.
    pub fn fd(&self) -> &Fd {
        &self.fd
    }

    /// The search configuration.
    pub fn config(&self) -> &RepairConfig {
        &self.config
    }

    /// The current candidate pool (NULL-free attributes outside the FD).
    pub fn pool(&self) -> &AttrSet {
        &self.pool
    }

    /// Number of lattice nodes currently maintained.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Work counters.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// The ranked repair proposals — element for element what
    /// [`crate::repair_fd`] returns on the current rows (the first element
    /// alone under [`SearchMode::FindFirst`]), as long as neither side is
    /// [truncated](RepairIndex::truncated).
    pub fn proposals(&self) -> &[Repair] {
        &self.proposals
    }

    /// True when the lattice hit the [`RepairConfig::max_expansions`]
    /// node cap: deeper candidates exist but were not explored.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Throw the maintained state away and rebuild from the live rows
    /// (pool changes, compactions, epoch gaps).
    pub fn rebuild(&mut self, rel: &Relation, rows: &[usize]) {
        let timer = evofd_obs::Timer::start();
        evofd_obs::metrics::REPAIR_INDEX_BUILDS_TOTAL.inc();
        self.stats.rebuilds += 1;
        self.null_counts = vec![0; rel.arity()];
        for a in 0..rel.arity() {
            let col = rel.column(AttrId::from(a));
            self.null_counts[a] = rows.iter().filter(|&&r| col.code_at(r) == NULL_CODE).count();
        }
        self.pool = self.current_pool();
        self.pack_ok = self.compute_pack_ok(rel);
        self.rhs = RhsCounter::default();
        for &row in rows {
            let rkey = key(rel, &self.rhs_attrs, row);
            self.rhs.insert(&rkey);
        }
        self.nodes = HashMap::new();
        self.restructure(rel, rows);
        self.rerank();
        timer.observe(&evofd_obs::metrics::REPAIR_INDEX_BUILD_SECONDS);
    }

    /// Absorb one applied delta: `deleted` rows are tombstoned but still
    /// readable, `inserted` is the appended physical id range. `live_rows`
    /// is only invoked when the lattice grows or the pool changed (it must
    /// reflect the rows *after* this delta).
    pub fn update(
        &mut self,
        rel: &Relation,
        deleted: &[usize],
        inserted: Range<usize>,
        live_rows: impl FnOnce() -> Vec<usize>,
    ) -> IndexOutcome {
        let timer = evofd_obs::Timer::start();
        // 1. NULL bookkeeping → pool-change detection.
        for a in 0..rel.arity() {
            let col = rel.column(AttrId::from(a));
            let gained = inserted.clone().filter(|&r| col.code_at(r) == NULL_CODE).count();
            let lost = deleted.iter().filter(|&&r| col.code_at(r) == NULL_CODE).count();
            self.null_counts[a] = self.null_counts[a] + gained - lost;
        }
        if self.current_pool() != self.pool || self.compute_pack_ok(rel) != self.pack_ok {
            self.rebuild(rel, &live_rows());
            return IndexOutcome::Rebuilt;
        }

        // 2. O(changed) counter maintenance, fanned out across nodes. The
        //    Y-projection keys are computed once per changed row and
        //    shared read-only by every node's counter.
        let del_rhs: Vec<RowRhs> = deleted.iter().map(|&r| self.row_rhs(rel, r)).collect();
        let ins_rhs: Vec<RowRhs> = inserted.clone().map(|r| self.row_rhs(rel, r)).collect();
        for rkey in &del_rhs {
            self.rhs.remove(&rkey.generic);
        }
        for rkey in &ins_rhs {
            self.rhs.insert(&rkey.generic);
        }
        let t0 = std::time::Instant::now();
        let mut nodes: Vec<&mut Node> = self.nodes.values_mut().collect();
        mintpool::par_for_each_mut(&mut nodes, |_, node| {
            for (&row, rkey) in deleted.iter().zip(&del_rhs) {
                node.remove(rel, rkey, row);
            }
            for (row, rkey) in inserted.clone().zip(&ins_rhs) {
                node.insert(rel, rkey, row);
            }
        });
        self.stats.incremental += 1;
        let t_maint = t0.elapsed();

        // 3. Dirty invalidation: re-derive the visited lattice from the
        //    updated exactness bits; 4. bounded re-rank.
        let t1 = std::time::Instant::now();
        let mut cached: Option<Vec<usize>> = None;
        let mut live_rows = Some(live_rows);
        self.restructure_with(rel, &mut || {
            cached.get_or_insert_with(|| (live_rows.take().expect("called once"))()).clone()
        });
        let t_struct = t1.elapsed();
        if trace_enabled() {
            eprintln!(
                "    index[{} nodes]: maint {t_maint:?} struct {t_struct:?}",
                self.nodes.len()
            );
        }
        self.rerank();
        evofd_obs::metrics::REPAIR_INDEX_UPDATES_TOTAL.inc();
        timer.observe(&evofd_obs::metrics::REPAIR_INDEX_UPDATE_SECONDS);
        IndexOutcome::Incremental
    }

    /// Which attributes currently qualify for packed group keys: NULL-free
    /// (packed codes cannot carry the NULL sentinel) with a dictionary
    /// small enough for 16-bit codes. Dictionaries only grow, so a flip
    /// here is rare — the whole index rebuilds once when it happens.
    fn compute_pack_ok(&self, rel: &Relation) -> Vec<bool> {
        (0..self.null_counts.len())
            .map(|a| {
                self.null_counts[a] == 0 && rel.column(AttrId::from(a)).dict().len() < (1 << 16)
            })
            .collect()
    }

    /// True when the consequent's key qualifies for packing.
    fn rhs_packable(&self) -> bool {
        self.rhs_attrs.len() <= PACK_MAX_ATTRS
            && self.rhs_attrs.iter().all(|a| self.pack_ok[a.index()])
    }

    /// Both representations of one row's Y-projection key.
    fn row_rhs(&self, rel: &Relation, row: usize) -> RowRhs {
        RowRhs {
            generic: key(rel, &self.rhs_attrs, row),
            packed: if self.rhs_packable() { packed_key(rel, &self.rhs_attrs, row) } else { 0 },
        }
    }

    fn current_pool(&self) -> AttrSet {
        let non_null = AttrSet::from_indices(
            (0..self.null_counts.len()).filter(|&a| self.null_counts[a] == 0),
        );
        non_null.difference(&self.fd.attrs())
    }

    fn restructure(&mut self, rel: &Relation, rows: &[usize]) {
        self.restructure_with(rel, &mut || rows.to_vec());
    }

    /// Re-derive the visited set level by level — exactly the batch
    /// search's reachability rule — building counters only for nodes that
    /// do not exist yet and pruning nodes that are no longer reachable.
    fn restructure_with(&mut self, rel: &Relation, rows: &mut dyn FnMut() -> Vec<usize>) {
        let mut desired: HashSet<AttrSet> = HashSet::new();
        self.truncated = false;
        // Seeds: every single-attribute extension, unconditionally.
        let mut level: Vec<AttrSet> = self.pool.iter().map(AttrSet::single).collect();
        while !level.is_empty() {
            // Build any missing node of this level before reading its
            // exactness (one scan of the live rows per new node, fanned
            // out across the pool width) — bounded by the batch search's
            // expansion cap so a wide schema can never blow the lattice
            // up unboundedly.
            let mut missing: Vec<AttrSet> =
                level.iter().filter(|s| !self.nodes.contains_key(*s)).cloned().collect();
            // Budget against the nodes this walk has COMMITTED to keeping
            // (prior levels' `desired` plus this level's already-built
            // entries) — not `self.nodes.len()`, which still counts stale
            // entries the retain() below is about to prune; those must
            // not eat the cap and spuriously truncate a shrinking lattice.
            let committed = desired.len() + (level.len() - missing.len());
            let budget = self.config.max_expansions.saturating_sub(committed);
            if missing.len() > budget {
                missing.truncate(budget);
                if !self.truncated {
                    evofd_obs::metrics::REPAIR_INDEX_TRUNCATIONS_TOTAL.inc();
                }
                self.truncated = true;
            }
            if !missing.is_empty() {
                let live = rows();
                let fd = &self.fd;
                let pack_ok = &self.pack_ok;
                let rhs_packable = self.rhs_packable();
                let rhs_keys: Vec<RowRhs> = live.iter().map(|&r| self.row_rhs(rel, r)).collect();
                let built: Vec<Node> = mintpool::par_map(&missing, |added| {
                    let lhs: Vec<AttrId> = fd.lhs().union(added).iter().collect();
                    let packed = rhs_packable
                        && lhs.len() <= PACK_MAX_ATTRS
                        && lhs.iter().all(|a| pack_ok[a.index()]);
                    let counter = if packed {
                        Counter::Packed(PairCounter::default())
                    } else {
                        Counter::General(PairCounter::default())
                    };
                    let mut node = Node { lhs, counter };
                    for (&row, rkey) in live.iter().zip(&rhs_keys) {
                        node.insert(rel, rkey, row);
                    }
                    node
                });
                self.stats.nodes_built += built.len() as u64;
                evofd_obs::metrics::REPAIR_INDEX_INVALIDATIONS_TOTAL.add(built.len() as u64);
                for (added, node) in missing.into_iter().zip(built) {
                    self.nodes.insert(added, node);
                }
            }
            // Expand the non-exact nodes with room left under max_added
            // (the batch search's lines 8–9 plus its max_added gate).
            let mut next: HashSet<AttrSet> = HashSet::new();
            for added in &level {
                // A node past the cap was never built: it is the
                // truncated frontier — not expanded, not proposed.
                let Some(node) = self.nodes.get(added) else { continue };
                desired.insert(added.clone());
                if node.exact() || added.len() >= self.config.max_added {
                    continue;
                }
                for a in self.pool.difference(added).iter() {
                    next.insert(added.with(a));
                }
            }
            if self.truncated {
                break; // the cap is spent: no deeper level can build
            }
            level = next.into_iter().collect();
            // Keys of the next level are strictly larger sets, so a node
            // can never re-enter `desired`; no dedup against it needed.
        }
        let before = self.nodes.len();
        self.nodes.retain(|added, _| desired.contains(added));
        self.stats.nodes_pruned += (before - self.nodes.len()) as u64;
        evofd_obs::metrics::REPAIR_INDEX_INVALIDATIONS_TOTAL
            .add((before - self.nodes.len()) as u64);
    }

    /// Rebuild the ranked proposal list from the surviving exact nodes:
    /// `(|S|, |goodness|, S)` ascending — the batch queue's pop order
    /// restricted to accepted repairs (confidence is exactly 1 for all of
    /// them, so it never discriminates).
    fn rerank(&mut self) {
        let distinct_rhs = self.rhs.counts.len();
        let mut ranked: Vec<(usize, u64, AttrSet, Repair)> = self
            .nodes
            .iter()
            .filter(|(_, node)| node.exact())
            .filter_map(|(added, node)| {
                let (distinct_lhs, distinct_lhs_rhs) = node.counts();
                let confidence = if distinct_lhs_rhs == 0 {
                    1.0
                } else {
                    distinct_lhs as f64 / distinct_lhs_rhs as f64
                };
                let measures = Measures {
                    distinct_lhs,
                    distinct_lhs_rhs,
                    distinct_rhs,
                    confidence,
                    goodness: distinct_lhs as i64 - distinct_rhs as i64,
                };
                if self.config.goodness_threshold.is_some_and(|thr| measures.abs_goodness() > thr) {
                    return None;
                }
                let repair =
                    Repair { fd: self.fd.with_lhs_attrs(added), added: added.clone(), measures };
                Some((added.len(), measures.abs_goodness(), added.clone(), repair))
            })
            .collect();
        ranked
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)).then_with(|| a.2.cmp(&b.2)));
        self.proposals = ranked.into_iter().map(|(_, _, _, r)| r).collect();
        if self.config.mode == SearchMode::FindFirst {
            self.proposals.truncate(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::repair_fd;
    use evofd_storage::{relation_of_strs, Value};

    /// Batch-vs-index oracle: proposals must match `repair_fd` exactly
    /// (count, order, added sets, measures).
    fn assert_matches_batch(rel: &Relation, index: &RepairIndex) {
        let batch = repair_fd(rel, index.fd(), index.config());
        match batch {
            Err(_) => {
                // FD satisfied: the advisor layer drops the index before
                // this comparison; nothing to check here.
            }
            Ok(search) => {
                assert!(!search.truncated, "oracle must not truncate");
                assert_eq!(index.proposals().len(), search.repairs.len(), "proposal count");
                for (ours, theirs) in index.proposals().iter().zip(&search.repairs) {
                    assert_eq!(ours.added, theirs.added);
                    assert_eq!(ours.fd, theirs.fd);
                    assert_eq!(ours.measures, theirs.measures);
                }
            }
        }
    }

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

    fn srow(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|v| Value::str(*v)).collect()
    }

    #[test]
    fn build_matches_batch_search() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let rows: Vec<usize> = (0..r.row_count()).collect();
        for config in [RepairConfig::find_all(), RepairConfig::find_first()] {
            let index = RepairIndex::build(&r, &rows, fd.clone(), config);
            assert_matches_batch(&r, &index);
        }
        let all = RepairIndex::build(&r, &rows, fd, RepairConfig::find_all());
        assert_eq!(all.proposals().len(), 3, "M, P and U each repair D -> A");
        assert_eq!(all.proposals()[0].added.indices(), vec![1], "M (g = 0) ranks first");
    }

    #[test]
    fn goodness_threshold_and_max_added_respected() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let rows: Vec<usize> = (0..r.row_count()).collect();
        let mut cfg = RepairConfig::find_all();
        cfg.goodness_threshold = Some(0);
        let index = RepairIndex::build(&r, &rows, fd.clone(), cfg);
        assert_matches_batch(&r, &index);
        assert!(index.proposals().iter().all(|p| p.measures.abs_goodness() == 0));

        let mut cfg = RepairConfig::find_all();
        cfg.max_added = 1;
        let index = RepairIndex::build(&r, &rows, fd, cfg);
        assert_matches_batch(&r, &index);
    }

    #[test]
    fn update_tracks_appends_and_tombstones() {
        // Simulate the live-relation protocol: appended rows at the tail,
        // deletes only tombstone (the index never reads dead rows again).
        let r = rel();
        let fd = Fd::parse(r.schema(), "D -> A").unwrap();
        let mut live: Vec<usize> = (0..r.row_count()).collect();
        let mut index = RepairIndex::build(&r, &live, fd, RepairConfig::find_all());

        // Append a row that breaks the M repair: (d1, m1) now maps to a2.
        let mut grown = r.clone();
        grown.append_rows([srow(&["d1", "m1", "p9", "a2", "u6"])]).unwrap();
        live.push(5);
        let out = index.update(&grown, &[], 5..6, || live.clone());
        assert_eq!(out, IndexOutcome::Incremental);
        assert_matches_batch(&grown, &index);
        assert!(
            index.proposals().iter().all(|p| p.added.indices() != vec![1]),
            "M alone no longer repairs"
        );

        // Tombstone that row again: M comes back.
        live.pop();
        let out = index.update(&grown, &[5], 6..6, || live.clone());
        assert_eq!(out, IndexOutcome::Incremental);
        let canon = grown.gather(&live);
        assert_matches_batch(&canon, &index);
        assert_eq!(index.proposals()[0].added.indices(), vec![1]);
    }

    #[test]
    fn exactness_flip_grows_and_prunes_the_lattice() {
        // X -> Y needs {A, B} while both A and B alone stay inexact; then
        // deleting rows makes A alone exact, pruning the deeper node.
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
        let mut live: Vec<usize> = (0..r.row_count()).collect();
        let mut index = RepairIndex::build(&r, &live, fd, RepairConfig::find_all());
        assert_matches_batch(&r, &index);
        assert_eq!(index.proposals().len(), 1, "only {{A, B}} repairs");
        let deep_nodes = index.node_count();
        assert!(deep_nodes > 2, "lattice went past the seeds");

        // Remove the rows that made A and B ambiguous: both seeds become
        // exact repairs on their own, so the {A, B} branch is no longer
        // reachable and gets pruned.
        live.retain(|&row| row != 1 && row != 2);
        index.update(&r, &[1, 2], 4..4, || live.clone());
        let canon = r.gather(&live);
        assert_matches_batch(&canon, &index);
        assert_eq!(index.proposals().len(), 2, "A and B each repair now");
        assert_eq!(index.proposals()[0].added.indices(), vec![1]);
        assert!(index.stats().nodes_pruned > 0, "orphaned branch pruned");
    }

    #[test]
    fn pool_change_forces_rebuild() {
        use evofd_storage::{DataType, Field, Schema};
        let schema = Schema::new(
            "t",
            vec![
                Field::new("X", DataType::Str),
                Field::new("A", DataType::Str),
                Field::new("Y", DataType::Str),
            ],
        )
        .unwrap()
        .into_shared();
        let mut r =
            Relation::from_rows(schema, vec![srow(&["x", "a1", "y1"]), srow(&["x", "a2", "y2"])])
                .unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let mut live: Vec<usize> = vec![0, 1];
        let mut index = RepairIndex::build(&r, &live, fd, RepairConfig::find_all());
        assert_eq!(index.pool().indices(), vec![1]);

        // A NULL lands in A: the pool empties, the index rebuilds.
        r.append_rows([vec![Value::str("x"), Value::Null, Value::str("y3")]]).unwrap();
        live.push(2);
        let out = index.update(&r, &[], 2..3, || live.clone());
        assert_eq!(out, IndexOutcome::Rebuilt);
        assert!(index.pool().is_empty());
        assert!(index.proposals().is_empty());
        assert_matches_batch(&r, &index);

        // The NULL row leaves again: A re-enters the pool.
        live.pop();
        let out = index.update(&r, &[2], 3..3, || live.clone());
        assert_eq!(out, IndexOutcome::Rebuilt);
        assert_eq!(index.pool().indices(), vec![1]);
        let canon = r.gather(&live);
        assert_matches_batch(&canon, &index);
    }

    #[test]
    fn max_expansions_caps_the_lattice() {
        // X -> Y over a wide pool where nothing single-attribute repairs:
        // an uncapped walk would enumerate the whole subset lattice.
        let names: Vec<String> =
            std::iter::once("X".to_string()).chain((0..8).map(|i| format!("A{i}"))).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        // A0 (the consequent) splits rows 0-2 vs 3-5 while every pool
        // column only separates even from odd rows — no subset of the
        // pool ever determines A0, so the walk would visit all 2^7 - 1
        // candidate sets without the cap.
        let rows: Vec<Vec<String>> = (0..6)
            .map(|r| {
                std::iter::once("x".to_string())
                    .chain(std::iter::once(format!("{}", r / 3)))
                    .chain((1..8).map(move |_| format!("{}", r % 2)))
                    .collect()
            })
            .collect();
        let row_refs: Vec<Vec<&str>> =
            rows.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
        let row_slices: Vec<&[&str]> = row_refs.iter().map(Vec::as_slice).collect();
        let r = relation_of_strs("t", &name_refs, &row_slices).unwrap();
        let fd = Fd::parse(r.schema(), "X -> A0").unwrap();
        let live: Vec<usize> = (0..r.row_count()).collect();

        let mut cfg = RepairConfig::find_all();
        cfg.max_expansions = 10;
        let index = RepairIndex::build(&r, &live, fd.clone(), cfg);
        assert!(index.truncated(), "the cap must have been hit");
        assert!(index.node_count() <= 10, "lattice bounded: {}", index.node_count());

        // The uncapped walk on the same input explores more (and is the
        // equal-to-batch configuration the equivalence tests exercise).
        let full = RepairIndex::build(&r, &live, fd, RepairConfig::find_all());
        assert!(!full.truncated());
        assert!(full.node_count() > 10);
        assert_matches_batch(&r, &full);
    }

    #[test]
    fn empty_relation_and_empty_pool_are_harmless() {
        let r = relation_of_strs("t", &["X", "Y"], &[&["x", "y1"], &["x", "y2"]]).unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let index = RepairIndex::build(&r, &[0, 1], fd.clone(), RepairConfig::find_all());
        assert!(index.pool().is_empty(), "no attributes outside the FD");
        assert!(index.proposals().is_empty());
        let empty = RepairIndex::build(&r, &[], fd, RepairConfig::find_all());
        assert!(empty.proposals().is_empty());
    }
}
