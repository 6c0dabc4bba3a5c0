//! Per-FD incremental state: group-count maps that answer the paper's
//! three distinct-projection counts — `|π_X|`, `|π_XY|`, `|π_Y|` — and the
//! violating-group aggregate in O(1) per touched row.
//!
//! Keys are tuples of dictionary codes, which [`crate::LiveRelation`]
//! keeps stable between compactions (appends re-use codes, deletes only
//! tombstone). NULL cells carry the storage sentinel code, so NULL rows
//! group together exactly as `evofd_storage::count_distinct` groups them.
//!
//! ## Representations
//!
//! The tracker reuses the [`evofd_storage::fastkey`] machinery — the same
//! keys and hasher behind the batch counting kernel
//! (`evofd_storage::count_distinct`) and the repair index — and picks the
//! cheapest faithful state per FD, falling back losslessly when the data
//! stops qualifying:
//!
//! * **Packed** — antecedent and consequent each at most four attributes,
//!   every key column NULL-free with a sub-2^16 dictionary: keys fold
//!   into single `u64` words, map entries shrink to cache-line size. The
//!   eligibility check is one OR + shift per row; the first wide code or
//!   NULL converts the whole state to General by unpacking every key —
//!   O(state), no relation rescan, byte-identical observables.
//! * **General** — inline/boxed [`Key`] tuples, still on the fast hasher
//!   and tiered groups.
//! * **Approx** — under a configured memory limit a tracker degrades to
//!   three fixed-size occupancy sketches (linear counting with per-bucket
//!   row counters, so deletes are exact). Measures become estimates, the
//!   violating aggregate a noise-gated lower bound, and drift provenance
//!   is unavailable; exact answers come from an on-demand transient
//!   rebuild (see `IncrementalValidator::exact_summary`). Sketch state is
//!   an order-independent function of the live row multiset, so replicas
//!   and recovery converge to identical state under the same limit.
//!
//! In every exact state the canonical [`TrackerSnapshot`] export is
//! byte-for-byte what the pre-packing tracker produced.

use std::hash::Hasher as _;

use evofd_core::{Fd, Measures};
use evofd_storage::fastkey::{
    key, packable_column, try_packed_key, unpack_key, CodeHasher, FastMap, FastSet, GroupRhs, Key,
    PACK_MAX_ATTRS,
};
use evofd_storage::{AttrId, Relation};

/// Inserts between memory-limit checks (power of two; the check costs a
/// few arithmetic ops over map capacities, this just keeps it off the
/// per-row path entirely).
const DEGRADE_CHECK_MASK: usize = 0x3FF;

/// Sketch hash domain separators.
const SALT_LHS: u8 = 1;
const SALT_PAIR: u8 = 2;
const SALT_RHS: u8 = 3;

/// One antecedent group: how many live tuples carry this X-projection and
/// how they distribute over Y-projections (tiered: see [`GroupRhs`]).
#[derive(Debug, Clone)]
struct LhsGroup<K> {
    total: u32,
    rhs: GroupRhs<K>,
}

/// Exact count state in one key representation (`u64` packed words or
/// generic [`Key`] tuples). All aggregate maintenance is representation-
/// agnostic; only key construction differs.
#[derive(Debug, Clone)]
struct CountState<K> {
    groups: FastMap<K, LhsGroup<K>>,
    rhs_counts: FastMap<K, u32>,
    /// `|π_XY|` = total distinct (X,Y) pairs across groups.
    pair_count: usize,
    violating_groups: usize,
    violating_rows: usize,
    /// Antecedent keys that flipped clean → violating since the last
    /// [`FdTracker::take_new_violating`] call. Only touched on the rare
    /// transition edges, so maintenance stays off the per-row hot path.
    new_violating: FastSet<K>,
}

impl<K> Default for CountState<K> {
    fn default() -> Self {
        CountState {
            groups: FastMap::default(),
            rhs_counts: FastMap::default(),
            pair_count: 0,
            violating_groups: 0,
            violating_rows: 0,
            new_violating: FastSet::default(),
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone> CountState<K> {
    fn insert(&mut self, lkey: K, rkey: &K) {
        // Clone the RHS key only when a vacant slot actually needs to own
        // it — the occupied path (almost every row) stays allocation-free.
        if let Some(n) = self.rhs_counts.get_mut(rkey) {
            *n += 1;
        } else {
            self.rhs_counts.insert(rkey.clone(), 1);
        }
        match self.groups.entry(lkey) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(LhsGroup { total: 1, rhs: GroupRhs::new(rkey.clone()) });
                self.pair_count += 1;
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let was_violating = e.get().rhs.distinct() >= 2;
                if e.get_mut().rhs.insert(rkey) {
                    self.pair_count += 1;
                }
                e.get_mut().total += 1;
                if e.get().rhs.distinct() >= 2 {
                    if was_violating {
                        self.violating_rows += 1;
                    } else {
                        self.violating_groups += 1;
                        self.violating_rows += e.get().total as usize;
                        // Transition edge only: the entry already owns the
                        // key, so reuse it instead of re-deriving it from
                        // the row (and keep the clean fast path clone-free).
                        let lkey = e.key().clone();
                        self.new_violating.insert(lkey);
                    }
                }
            }
        }
    }

    fn remove(&mut self, lkey: &K, rkey: &K) {
        match self.rhs_counts.get_mut(rkey) {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    self.rhs_counts.remove(rkey);
                }
            }
            None => unreachable!("removing a row the tracker never saw"),
        }
        let g = self.groups.get_mut(lkey).expect("group exists for a tracked row");
        let was_violating = g.rhs.distinct() >= 2;
        if was_violating {
            self.violating_groups -= 1;
            self.violating_rows -= g.total as usize;
        }
        if g.rhs.remove(rkey) {
            self.pair_count -= 1;
        }
        g.total -= 1;
        if g.total == 0 {
            self.groups.remove(lkey);
            self.new_violating.remove(lkey);
        } else if g.rhs.distinct() >= 2 {
            self.violating_groups += 1;
            self.violating_rows += g.total as usize;
        } else if was_violating {
            self.new_violating.remove(lkey);
        }
    }

    fn measures(&self) -> Measures {
        let distinct_lhs = self.groups.len();
        let distinct_lhs_rhs = self.pair_count;
        let distinct_rhs = self.rhs_counts.len();
        let confidence =
            if distinct_lhs_rhs == 0 { 1.0 } else { distinct_lhs as f64 / distinct_lhs_rhs as f64 };
        Measures {
            distinct_lhs,
            distinct_lhs_rhs,
            distinct_rhs,
            confidence,
            goodness: distinct_lhs as i64 - distinct_rhs as i64,
        }
    }

    fn g3_removals(&self) -> usize {
        self.groups.values().map(|g| g.total as usize - g.rhs.max_count() as usize).sum()
    }

    /// Estimated resident bytes: map capacities times entry sizes plus the
    /// spilled Few/Many storage approximated from the pair surplus (an
    /// O(1) read — the limit check runs every [`DEGRADE_CHECK_MASK`]+1
    /// inserts and must not scan the groups it is trying to bound).
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let group_entry = size_of::<K>() + size_of::<LhsGroup<K>>() + 8;
        let rhs_entry = size_of::<K>() + 4 + 8;
        let spilled = self.pair_count.saturating_sub(self.groups.len()) * (rhs_entry + 16);
        self.groups.capacity() * group_entry + self.rhs_counts.capacity() * rhs_entry + spilled
    }
}

/// A fixed-size linear-counting sketch with per-bucket **row counters**:
/// inserts increment and deletes decrement the key's bucket, so occupancy
/// (buckets with ≥1 live row) is an exact, order-independent function of
/// the live multiset — deletions never corrupt it. The distinct-count
/// estimate is classic linear counting, `-m·ln(empty/m)`.
#[derive(Debug, Clone)]
struct Sketch {
    buckets: Box<[u32]>,
    occupied: usize,
}

impl Sketch {
    fn new(m: usize) -> Sketch {
        debug_assert!(m.is_power_of_two());
        Sketch { buckets: vec![0u32; m].into_boxed_slice(), occupied: 0 }
    }

    #[inline]
    fn add(&mut self, h: u64, n: u32) {
        let b = &mut self.buckets[(h as usize) & (self.buckets.len() - 1)];
        if *b == 0 {
            self.occupied += 1;
        }
        *b += n;
    }

    #[inline]
    fn remove(&mut self, h: u64) {
        let b = &mut self.buckets[(h as usize) & (self.buckets.len() - 1)];
        *b -= 1;
        if *b == 0 {
            self.occupied -= 1;
        }
    }

    fn distinct_estimate(&self) -> usize {
        let m = self.buckets.len();
        if self.occupied == 0 {
            return 0;
        }
        if self.occupied == m {
            // Saturated: linear counting is blind past full occupancy;
            // report its asymptotic ceiling.
            return ((m as f64) * (m as f64).ln()).round() as usize;
        }
        let mf = m as f64;
        (-mf * (((m - self.occupied) as f64) / mf).ln()).round() as usize
    }
}

/// Hash a code tuple into a sketch bucket address, domain-separated by
/// `salt` so the three sketches disagree on collisions.
fn hash_codes<I: IntoIterator<Item = u32>>(salt: u8, codes: I) -> u64 {
    let mut h = CodeHasher::default();
    h.write_u8(salt);
    for c in codes {
        h.write_u32(c);
    }
    h.finish()
}

/// Bucket count per sketch for a byte budget split across the tracker's
/// three sketches, rounded down to a power of two.
fn sketch_buckets(limit: usize) -> usize {
    let per_sketch = (limit / 3).max(1024) / 4;
    let up = per_sketch.next_power_of_two();
    let m = if up > per_sketch { up / 2 } else { up };
    m.clamp(256, 1 << 22)
}

/// Memory-bounded state: three occupancy sketches estimating `|π_X|`,
/// `|π_XY|` and `|π_Y|`.
#[derive(Debug, Clone)]
struct ApproxState {
    lhs: Sketch,
    pair: Sketch,
    rhs: Sketch,
}

/// The three distinct-count estimates, with the pair count clamped to the
/// group count plus the noise-gated violation surplus.
struct ApproxEstimates {
    lhs: usize,
    pairs: usize,
    rhs: usize,
    /// `max(0, est |π_XY| - est |π_X|)` after the noise gate: the
    /// estimated number of violating pairs (0 means "no violation the
    /// sketches can distinguish from their own error").
    extra: usize,
}

impl ApproxState {
    fn new(m: usize) -> ApproxState {
        ApproxState { lhs: Sketch::new(m), pair: Sketch::new(m), rhs: Sketch::new(m) }
    }

    fn add_row(&mut self, rel: &Relation, lhs: &[AttrId], rhs: &[AttrId], row: usize) {
        let code = |&a: &AttrId| rel.column(a).code_at(row);
        self.lhs.add(hash_codes(SALT_LHS, lhs.iter().map(code)), 1);
        self.pair.add(hash_codes(SALT_PAIR, lhs.iter().chain(rhs).map(code)), 1);
        self.rhs.add(hash_codes(SALT_RHS, rhs.iter().map(code)), 1);
    }

    fn remove_row(&mut self, rel: &Relation, lhs: &[AttrId], rhs: &[AttrId], row: usize) {
        let code = |&a: &AttrId| rel.column(a).code_at(row);
        self.lhs.remove(hash_codes(SALT_LHS, lhs.iter().map(code)));
        self.pair.remove(hash_codes(SALT_PAIR, lhs.iter().chain(rhs).map(code)));
        self.rhs.remove(hash_codes(SALT_RHS, rhs.iter().map(code)));
    }

    fn estimates(&self) -> ApproxEstimates {
        let lhs = self.lhs.distinct_estimate();
        let rhs = self.rhs.distinct_estimate();
        let raw_pairs = self.pair.distinct_estimate();
        // For an exact FD the two sketches estimate the SAME true count
        // with independent errors, so their difference is pure noise.
        // Gate it at ~4σ of the difference — linear counting at load
        // t = n/m has var(n̂) ≈ m(e^t − t − 1) — so clean FDs read as
        // exactly clean instead of flickering, at the cost of missing
        // violations smaller than the sketch's own resolution (the
        // documented trade; exact answers via the on-demand fallback).
        let surplus = raw_pairs.saturating_sub(lhs);
        let m = self.lhs.buckets.len() as f64;
        let load = lhs as f64 / m;
        let var = m * (load.exp() - load - 1.0).max(0.0);
        let gate = 4.0 * (2.0 * var).sqrt() + 8.0;
        let extra = if (surplus as f64) <= gate { 0 } else { surplus };
        ApproxEstimates { lhs, pairs: lhs + extra, rhs, extra }
    }
}

/// One tracker's state representation.
#[derive(Debug, Clone)]
enum State {
    Packed(CountState<u64>),
    General(CountState<Key>),
    Approx(ApproxState),
}

/// Incrementally maintained measure state for one FD.
#[derive(Debug, Clone)]
pub(crate) struct FdTracker {
    lhs: Vec<AttrId>,
    rhs: Vec<AttrId>,
    total_rows: usize,
    /// Byte budget above which the exact state degrades to sketches.
    memory_limit: Option<usize>,
    state: State,
}

impl FdTracker {
    /// Empty state for an FD (no rows seen), optimistically packed when
    /// both sides are narrow enough; the first non-packable row falls
    /// back.
    pub(crate) fn with_limit(fd: &Fd, memory_limit: Option<usize>) -> FdTracker {
        let lhs: Vec<AttrId> = fd.lhs().iter().collect();
        let rhs: Vec<AttrId> = fd.rhs().iter().collect();
        let state = if lhs.len() <= PACK_MAX_ATTRS && rhs.len() <= PACK_MAX_ATTRS {
            State::Packed(CountState::default())
        } else {
            State::General(CountState::default())
        };
        FdTracker { lhs, rhs, total_rows: 0, memory_limit, state }
    }

    /// Build from scratch over an explicit row set.
    pub(crate) fn build<I: IntoIterator<Item = usize>>(
        fd: &Fd,
        rel: &Relation,
        rows: I,
        memory_limit: Option<usize>,
    ) -> FdTracker {
        let mut t = FdTracker::with_limit(fd, memory_limit);
        // If a key column already holds NULLs or a wide dictionary, start
        // General instead of inserting packed and converting mid-build.
        if matches!(t.state, State::Packed(_)) {
            let packable = t.lhs.iter().chain(&t.rhs).all(|&a| packable_column(rel.column(a)));
            if !packable {
                t.state = State::General(CountState::default());
            }
        }
        for row in rows {
            t.insert_row(rel, row);
        }
        t.maybe_degrade();
        // A from-scratch build has no "before" state to diff against:
        // every violating group would read as newly violating.
        t.clear_new_violating();
        evofd_obs::metrics::TRACKER_BUILDS_TOTAL.inc();
        t
    }

    /// Account one live row.
    pub(crate) fn insert_row(&mut self, rel: &Relation, row: usize) {
        match &mut self.state {
            State::Packed(s) => {
                match (try_packed_key(rel, &self.lhs, row), try_packed_key(rel, &self.rhs, row)) {
                    (Some(lkey), Some(rkey)) => s.insert(lkey, &rkey),
                    _ => {
                        // A wide code or NULL arrived mid-stream: unpack
                        // the whole state once, then insert generically.
                        self.unpack_state();
                        let State::General(s) = &mut self.state else { unreachable!() };
                        s.insert(key(rel, &self.lhs, row), &key(rel, &self.rhs, row));
                    }
                }
            }
            State::General(s) => s.insert(key(rel, &self.lhs, row), &key(rel, &self.rhs, row)),
            State::Approx(a) => a.add_row(rel, &self.lhs, &self.rhs, row),
        }
        self.total_rows += 1;
        if self.memory_limit.is_some() && self.total_rows & DEGRADE_CHECK_MASK == 0 {
            self.maybe_degrade();
        }
    }

    /// Un-account one row (its codes must still be readable, i.e. the row
    /// is tombstoned, not compacted away).
    pub(crate) fn remove_row(&mut self, rel: &Relation, row: usize) {
        match &mut self.state {
            State::Packed(s) => {
                // Every row a packed tracker holds was packable when it
                // was inserted, and codes are stable until compaction.
                let lkey = try_packed_key(rel, &self.lhs, row)
                    .expect("packed tracker only holds packable rows");
                let rkey = try_packed_key(rel, &self.rhs, row)
                    .expect("packed tracker only holds packable rows");
                s.remove(&lkey, &rkey);
            }
            State::General(s) => s.remove(&key(rel, &self.lhs, row), &key(rel, &self.rhs, row)),
            State::Approx(a) => a.remove_row(rel, &self.lhs, &self.rhs, row),
        }
        self.total_rows -= 1;
    }

    /// The FD's measures over the tracked rows — exactly what
    /// [`Measures::compute`] returns on a canonical snapshot, except in
    /// approximate mode where the distinct counts are sketch estimates.
    pub(crate) fn measures(&self) -> Measures {
        match &self.state {
            State::Packed(s) => s.measures(),
            State::General(s) => s.measures(),
            State::Approx(a) => {
                let e = a.estimates();
                let confidence = if e.pairs == 0 { 1.0 } else { e.lhs as f64 / e.pairs as f64 };
                Measures {
                    distinct_lhs: e.lhs,
                    distinct_lhs_rhs: e.pairs,
                    distinct_rhs: e.rhs,
                    confidence,
                    goodness: e.lhs as i64 - e.rhs as i64,
                }
            }
        }
    }

    /// Number of X-groups currently associated with ≥ 2 Y-projections (in
    /// approximate mode: the noise-gated estimate of violating pairs).
    pub(crate) fn violating_groups(&self) -> usize {
        match &self.state {
            State::Packed(s) => s.violating_groups,
            State::General(s) => s.violating_groups,
            State::Approx(a) => a.estimates().extra,
        }
    }

    /// Number of live tuples inside violating groups (estimated from the
    /// average group size in approximate mode).
    pub(crate) fn violating_rows(&self) -> usize {
        match &self.state {
            State::Packed(s) => s.violating_rows,
            State::General(s) => s.violating_rows,
            State::Approx(a) => {
                let e = a.estimates();
                if e.extra == 0 || e.lhs == 0 {
                    return 0;
                }
                // A violating group holds at least two rows; scale the
                // surplus by the mean group size and clamp to the total.
                let mean = self.total_rows / e.lhs.max(1);
                (e.extra * mean.max(2)).min(self.total_rows)
            }
        }
    }

    /// Number of live tuples tracked (exact in every mode).
    pub(crate) fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Minimal number of tuples whose deletion satisfies the FD (the `g3`
    /// numerator): per X-group, everything but the plurality Y-projection
    /// must go. O(groups) over the maintained counts — no relation scan.
    /// In approximate mode: a lower bound (each violating pair costs at
    /// least one removal).
    pub(crate) fn g3_removals(&self) -> usize {
        match &self.state {
            State::Packed(s) => s.g3_removals(),
            State::General(s) => s.g3_removals(),
            State::Approx(a) => a.estimates().extra,
        }
    }

    /// True when this tracker runs in memory-bounded approximate mode.
    pub(crate) fn is_approx(&self) -> bool {
        matches!(self.state, State::Approx(_))
    }

    /// The representation's display name (obs/tests).
    pub(crate) fn repr_name(&self) -> &'static str {
        match self.state {
            State::Packed(_) => "packed",
            State::General(_) => "general",
            State::Approx(_) => "approx",
        }
    }

    /// Install a (new) memory bound. Lowering it may degrade immediately;
    /// raising or clearing it never un-degrades — exact state went away —
    /// until the next rebuild.
    pub(crate) fn set_memory_limit(&mut self, limit: Option<usize>) {
        self.memory_limit = limit;
        self.maybe_degrade();
    }

    /// Drain the antecedent keys that flipped clean → violating since the
    /// last call, in canonical sorted order (drift provenance). Rendered
    /// against the relation's dictionaries by the caller. Empty in
    /// approximate mode (sketches keep no keys).
    pub(crate) fn take_new_violating(&mut self) -> Vec<Box<[u32]>> {
        let mut keys: Vec<Box<[u32]>> = match &mut self.state {
            State::Packed(s) => {
                let n = self.lhs.len();
                s.new_violating.drain().map(|v| unpack_key(v, n).into_boxed_slice()).collect()
            }
            State::General(s) => s.new_violating.drain().map(|k| k.codes().into()).collect(),
            State::Approx(_) => Vec::new(),
        };
        keys.sort_unstable();
        keys
    }

    fn clear_new_violating(&mut self) {
        match &mut self.state {
            State::Packed(s) => s.new_violating.clear(),
            State::General(s) => s.new_violating.clear(),
            State::Approx(_) => {}
        }
    }

    /// The attribute ids of the FD's antecedent, in tracker key order.
    pub(crate) fn lhs_attrs(&self) -> &[AttrId] {
        &self.lhs
    }

    /// Lossless packed → general conversion: unpack every key back into
    /// its codes (the attribute counts are known, packed codes are always
    /// sub-2^16). O(state size), never rescans the relation, preserves
    /// every aggregate and the group tiers.
    fn unpack_state(&mut self) {
        let State::Packed(s) =
            std::mem::replace(&mut self.state, State::General(CountState::default()))
        else {
            unreachable!("unpack_state called on a non-packed tracker")
        };
        let (nl, nr) = (self.lhs.len(), self.rhs.len());
        let conv = |v: u64, n: usize| Key::from_codes(&unpack_key(v, n));
        let convert_rhs = |rhs: GroupRhs<u64>| match rhs {
            GroupRhs::One { rkey, count } => GroupRhs::One { rkey: conv(rkey, nr), count },
            GroupRhs::Few(few) => {
                GroupRhs::Few(few.into_iter().map(|(k, n)| (conv(k, nr), n)).collect())
            }
            GroupRhs::Many(m) => {
                GroupRhs::Many(Box::new(m.into_iter().map(|(k, n)| (conv(k, nr), n)).collect()))
            }
        };
        let out = CountState::<Key> {
            pair_count: s.pair_count,
            violating_groups: s.violating_groups,
            violating_rows: s.violating_rows,
            groups: s
                .groups
                .into_iter()
                .map(|(l, g)| (conv(l, nl), LhsGroup { total: g.total, rhs: convert_rhs(g.rhs) }))
                .collect(),
            rhs_counts: s.rhs_counts.into_iter().map(|(r, n)| (conv(r, nr), n)).collect(),
            new_violating: s.new_violating.into_iter().map(|l| conv(l, nl)).collect(),
        };
        self.state = State::General(out);
        evofd_obs::metrics::TRACKER_PACK_FALLBACKS_TOTAL.inc();
    }

    /// Degrade to sketches when the exact state exceeds the memory limit.
    /// The sketches are populated from the maintained counts — every live
    /// row contributes exactly one increment per sketch, so the result is
    /// identical to having run in approximate mode from the start.
    fn maybe_degrade(&mut self) {
        let Some(limit) = self.memory_limit else { return };
        let over = match &self.state {
            State::Packed(s) => s.approx_bytes() > limit,
            State::General(s) => s.approx_bytes() > limit,
            State::Approx(_) => false,
        };
        if !over {
            return;
        }
        self.degrade_now();
    }

    /// Unconditionally convert the exact state to sketches (also used to
    /// reconstruct a tracker persisted in approximate mode, so resumed
    /// state matches the original instead of silently turning exact).
    pub(crate) fn degrade_now(&mut self) {
        let m = sketch_buckets(self.memory_limit.unwrap_or(usize::MAX));
        let (nl, nr) = (self.lhs.len(), self.rhs.len());
        let a = match &self.state {
            State::Packed(s) => degrade_state(s, m, |l| unpack_key(*l, nl), |r| unpack_key(*r, nr)),
            State::General(s) => {
                degrade_state(s, m, |l| l.codes().to_vec(), |r| r.codes().to_vec())
            }
            State::Approx(_) => return,
        };
        self.state = State::Approx(a);
        evofd_obs::metrics::TRACKER_APPROX_DEGRADES_TOTAL.inc();
    }

    /// Export the group-count state in a canonical (key-sorted) order —
    /// the serializable core of the tracker. Everything else (`rhs_counts`,
    /// `pair_count`, the violation aggregate, `total_rows`) is derivable
    /// from the groups and is rebuilt on import. Packed state unpacks to
    /// the identical bytes the generic path exports. Approximate trackers
    /// have no group state; they export empty groups with the `approx`
    /// marker and are rebuilt from live rows on import.
    pub(crate) fn export(&self) -> TrackerSnapshot {
        let mut groups: Vec<GroupCounts> = match &self.state {
            State::Packed(s) => {
                let (nl, nr) = (self.lhs.len(), self.rhs.len());
                s.groups
                    .iter()
                    .map(|(lkey, g)| {
                        let mut rhs: Vec<(Vec<u32>, u32)> =
                            g.rhs.iter().map(|(rkey, n)| (unpack_key(*rkey, nr), n)).collect();
                        rhs.sort_unstable();
                        GroupCounts { lhs_key: unpack_key(*lkey, nl), rhs }
                    })
                    .collect()
            }
            State::General(s) => s
                .groups
                .iter()
                .map(|(lkey, g)| {
                    let mut rhs: Vec<(Vec<u32>, u32)> =
                        g.rhs.iter().map(|(rkey, n)| (rkey.codes().to_vec(), n)).collect();
                    rhs.sort_unstable();
                    GroupCounts { lhs_key: lkey.codes().to_vec(), rhs }
                })
                .collect(),
            State::Approx(_) => return TrackerSnapshot { groups: Vec::new(), approx: true },
        };
        groups.sort_unstable_by(|a, b| a.lhs_key.cmp(&b.lhs_key));
        TrackerSnapshot { groups, approx: false }
    }

    /// Rebuild a tracker from exported group counts. The derived
    /// aggregates are recomputed, so a snapshot only carries the minimal
    /// state. Zero counts are rejected (they can never be exported), as
    /// are approx-marked snapshots — those carry no state and must be
    /// rebuilt from live rows by the caller.
    pub(crate) fn import(
        fd: &Fd,
        snapshot: &TrackerSnapshot,
        memory_limit: Option<usize>,
    ) -> Option<FdTracker> {
        if snapshot.approx {
            return None;
        }
        let mut t = FdTracker::with_limit(fd, memory_limit);
        let packable = matches!(t.state, State::Packed(_))
            && snapshot.groups.iter().all(|g| {
                g.lhs_key.iter().all(|&c| c < 1 << 16)
                    && g.rhs.iter().all(|(k, _)| k.iter().all(|&c| c < 1 << 16))
            });
        let total = if packable {
            let pack = |codes: &[u32]| codes.iter().fold(0u64, |v, &c| (v << 16) | c as u64);
            let (state, total) = import_state(snapshot, pack, pack)?;
            t.state = State::Packed(state);
            total
        } else {
            let (state, total) = import_state(snapshot, Key::from_codes, Key::from_codes)?;
            t.state = State::General(state);
            total
        };
        t.total_rows = total;
        t.maybe_degrade();
        Some(t)
    }
}

/// Populate sketches from an exact state: per group `g.total` rows into
/// the X sketch, per (group, projection) its count into the pair sketch,
/// per Y-projection its count into the Y sketch — exactly the increments
/// the live rows would have produced one by one.
fn degrade_state<K>(
    s: &CountState<K>,
    m: usize,
    lcodes: impl Fn(&K) -> Vec<u32>,
    rcodes: impl Fn(&K) -> Vec<u32>,
) -> ApproxState {
    let mut a = ApproxState::new(m);
    for (lkey, g) in &s.groups {
        let lc = lcodes(lkey);
        a.lhs.add(hash_codes(SALT_LHS, lc.iter().copied()), g.total);
        for (rkey, n) in g.rhs.iter() {
            let rc = rcodes(rkey);
            a.pair.add(hash_codes(SALT_PAIR, lc.iter().copied().chain(rc.iter().copied())), n);
        }
    }
    for (rkey, n) in &s.rhs_counts {
        a.rhs.add(hash_codes(SALT_RHS, rcodes(rkey).iter().copied()), *n);
    }
    a
}

/// Shared import loop: validate the snapshot (no zero counts, no
/// duplicate or empty groups) while assembling a [`CountState`] in the
/// chosen key representation. Returns the state and its total row count.
fn import_state<K: std::hash::Hash + Eq + Clone>(
    snapshot: &TrackerSnapshot,
    mk_lkey: impl Fn(&[u32]) -> K,
    mk_rkey: impl Fn(&[u32]) -> K,
) -> Option<(CountState<K>, usize)> {
    let mut s = CountState::<K>::default();
    let mut total_rows = 0usize;
    for g in &snapshot.groups {
        if g.rhs.is_empty() {
            return None;
        }
        let lkey = mk_lkey(&g.lhs_key);
        let mut total: u32 = 0;
        let mut rhs: Option<GroupRhs<K>> = None;
        for (rk, n) in &g.rhs {
            if *n == 0 {
                return None;
            }
            let rkey = mk_rkey(rk);
            if let Some(c) = s.rhs_counts.get_mut(&rkey) {
                *c += n;
            } else {
                s.rhs_counts.insert(rkey.clone(), *n);
            }
            let new_pair = match &mut rhs {
                None => {
                    rhs = Some(GroupRhs::with_count(rkey, *n));
                    true
                }
                Some(r) => r.insert_n(&rkey, *n),
            };
            if !new_pair {
                return None; // duplicate RHS key within one group
            }
            s.pair_count += 1;
            total += n;
        }
        let rhs = rhs.expect("non-empty group");
        if rhs.distinct() >= 2 {
            s.violating_groups += 1;
            s.violating_rows += total as usize;
        }
        total_rows += total as usize;
        if s.groups.insert(lkey, LhsGroup { total, rhs }).is_some() {
            return None; // duplicate LHS key
        }
    }
    Some((s, total_rows))
}

/// Serializable per-FD tracker state: the `X-group → (Y-projection →
/// count)` map keyed by dictionary-code tuples, exported in a canonical
/// sorted order so snapshots of equal states are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerSnapshot {
    /// One entry per distinct X-projection with live rows. Empty when
    /// `approx` is set.
    pub groups: Vec<GroupCounts>,
    /// True when the tracker ran in memory-bounded approximate mode:
    /// sketches are not persisted; the tracker is rebuilt from live rows
    /// (and re-degraded) on import.
    pub approx: bool,
}

/// One antecedent group of a [`TrackerSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCounts {
    /// The X-projection's dictionary codes.
    pub lhs_key: Vec<u32>,
    /// Distinct Y-projections in this group with their live-row counts,
    /// sorted by key.
    pub rhs: Vec<(Vec<u32>, u32)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use evofd_core::violations;
    use evofd_storage::relation_of_strs;

    fn rel() -> Relation {
        relation_of_strs(
            "t",
            &["X", "Y"],
            &[&["a", "1"], &["a", "2"], &["a", "1"], &["b", "3"], &["b", "3"], &["c", "4"]],
        )
        .unwrap()
    }

    fn check_against_full(tracker: &FdTracker, rel: &Relation, fd: &Fd) {
        let full = Measures::compute(rel, fd, &evofd_storage::DistinctCache::new());
        assert_eq!(tracker.measures(), full);
        let report = violations(rel, fd);
        assert_eq!(tracker.violating_groups(), report.groups.len());
        assert_eq!(tracker.violating_rows(), report.violating_rows());
        assert_eq!(tracker.total_rows(), rel.row_count());
    }

    #[test]
    fn build_matches_batch_computation() {
        let r = rel();
        for text in ["X -> Y", "Y -> X", "X, Y -> X"] {
            let fd = Fd::parse(r.schema(), text).unwrap();
            let t = FdTracker::build(&fd, &r, 0..r.row_count(), None);
            assert_eq!(t.repr_name(), "packed", "small dictionaries pack");
            check_against_full(&t, &r, &fd);
        }
    }

    #[test]
    fn insert_then_remove_round_trips() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let mut t = FdTracker::build(&fd, &r, 0..r.row_count(), None);
        // Remove the violating row (X=a, Y=2): group becomes clean.
        t.remove_row(&r, 1);
        let reduced = r.gather(&[0, 2, 3, 4, 5]);
        check_against_full(&t, &reduced, &fd);
        // Put it back: identical to a fresh build.
        t.insert_row(&r, 1);
        check_against_full(&t, &r, &fd);
    }

    #[test]
    fn empty_tracker_is_vacuously_exact() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let t = FdTracker::with_limit(&fd, None);
        let m = t.measures();
        assert_eq!(m.confidence, 1.0);
        assert!(m.is_exact());
        assert_eq!(m.goodness, 0);
        assert_eq!(t.violating_rows(), 0);
    }

    #[test]
    fn export_import_round_trips() {
        let r = rel();
        for text in ["X -> Y", "Y -> X", "X, Y -> X"] {
            let fd = Fd::parse(r.schema(), text).unwrap();
            let t = FdTracker::build(&fd, &r, 0..r.row_count(), None);
            let snap = t.export();
            let rebuilt = FdTracker::import(&fd, &snap, None).expect("well-formed snapshot");
            check_against_full(&rebuilt, &r, &fd);
            assert_eq!(rebuilt.export(), snap, "canonical order is stable");
        }
    }

    #[test]
    fn import_rejects_malformed_snapshots() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let good = FdTracker::build(&fd, &r, 0..r.row_count(), None).export();
        // Zero count.
        let mut bad = good.clone();
        bad.groups[0].rhs[0].1 = 0;
        assert!(FdTracker::import(&fd, &bad, None).is_none());
        // Duplicate LHS key.
        let mut bad = good.clone();
        let dup = bad.groups[0].clone();
        bad.groups.push(dup);
        assert!(FdTracker::import(&fd, &bad, None).is_none());
        // Duplicate RHS key within a group.
        let mut bad = good.clone();
        let dup = bad.groups[0].rhs[0].clone();
        bad.groups[0].rhs.push(dup);
        assert!(FdTracker::import(&fd, &bad, None).is_none());
        // Empty group (no RHS entries).
        let mut bad = good;
        bad.groups[0].rhs.clear();
        assert!(FdTracker::import(&fd, &bad, None).is_none());
    }

    #[test]
    fn removing_every_row_empties_state() {
        let r = rel();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let mut t = FdTracker::build(&fd, &r, 0..r.row_count(), None);
        for row in 0..r.row_count() {
            t.remove_row(&r, row);
        }
        assert_eq!(t.total_rows(), 0);
        assert_eq!(t.measures().distinct_lhs, 0);
        assert_eq!(t.violating_groups(), 0);
    }

    #[test]
    fn null_mid_stream_unpacks_losslessly() {
        use evofd_storage::{DataType, Field, Schema, Value};
        let schema =
            Schema::new("t", vec![Field::new("X", DataType::Str), Field::new("Y", DataType::Str)])
                .unwrap()
                .into_shared();
        let mut r = Relation::from_rows(
            schema,
            vec![vec![Value::str("a"), Value::str("1")], vec![Value::str("b"), Value::str("2")]],
        )
        .unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let mut t = FdTracker::build(&fd, &r, 0..2, None);
        assert_eq!(t.repr_name(), "packed");
        let before = t.export();

        // A NULL row arrives: the tracker must fall back, not corrupt.
        r.append_rows([vec![Value::Null, Value::str("3")]]).unwrap();
        t.insert_row(&r, 2);
        assert_eq!(t.repr_name(), "general", "first NULL forces the fallback");
        check_against_full(&t, &r, &fd);

        // Removing it again restores the exact pre-NULL observables (the
        // representation stays general until a rebuild).
        t.remove_row(&r, 2);
        assert_eq!(t.export(), before, "fallback was lossless");
    }

    #[test]
    fn wide_fds_use_the_general_representation() {
        let r = relation_of_strs(
            "t",
            &["A", "B", "C", "D", "E", "Y"],
            &[&["a", "b", "c", "d", "e", "1"], &["a", "b", "c", "d", "f", "2"]],
        )
        .unwrap();
        let fd = Fd::parse(r.schema(), "A, B, C, D, E -> Y").unwrap();
        let t = FdTracker::build(&fd, &r, 0..2, None);
        assert_eq!(t.repr_name(), "general", "five LHS attributes cannot pack");
        check_against_full(&t, &r, &fd);
    }

    #[test]
    fn memory_limit_degrades_to_exact_free_sketches() {
        let rows: Vec<Vec<String>> =
            (0..5000).map(|i| vec![format!("x{i}"), format!("y{i}")]).collect();
        let row_refs: Vec<Vec<&str>> =
            rows.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
        let row_slices: Vec<&[&str]> = row_refs.iter().map(Vec::as_slice).collect();
        let r = relation_of_strs("t", &["X", "Y"], &row_slices).unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let t = FdTracker::build(&fd, &r, 0..r.row_count(), Some(64 * 1024));
        assert!(t.is_approx(), "5000 groups cannot fit a 64 KiB bound");
        assert_eq!(t.total_rows(), 5000, "row count stays exact");
        // The FD is exact; the noise gate must keep it reading clean.
        assert_eq!(t.violating_groups(), 0);
        assert!(t.measures().is_exact());
        // The estimate is in the right ballpark at moderate sketch load.
        let est = t.measures().distinct_lhs as f64;
        assert!((est - 5000.0).abs() / 5000.0 < 0.1, "estimate {est} vs 5000");
        // Approx snapshots carry only the marker.
        let snap = t.export();
        assert!(snap.approx && snap.groups.is_empty());
        assert!(FdTracker::import(&fd, &snap, Some(64 * 1024)).is_none());
    }

    #[test]
    fn degraded_state_equals_approx_from_the_start() {
        // Degrading a built tracker and building under a tiny limit must
        // land in identical sketch state: both are pure functions of the
        // live multiset.
        let rows: Vec<Vec<String>> =
            (0..3000).map(|i| vec![format!("x{}", i % 2900), format!("y{i}")]).collect();
        let row_refs: Vec<Vec<&str>> =
            rows.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
        let row_slices: Vec<&[&str]> = row_refs.iter().map(Vec::as_slice).collect();
        let r = relation_of_strs("t", &["X", "Y"], &row_slices).unwrap();
        let fd = Fd::parse(r.schema(), "X -> Y").unwrap();
        let limit = Some(8 * 1024);
        let built = FdTracker::build(&fd, &r, 0..r.row_count(), limit);
        let mut exact = FdTracker::build(&fd, &r, 0..r.row_count(), None);
        exact.set_memory_limit(limit);
        exact.degrade_now();
        assert!(built.is_approx() && exact.is_approx());
        assert_eq!(built.measures(), exact.measures());
        assert_eq!(built.violating_groups(), exact.violating_groups());
        assert_eq!(built.violating_rows(), exact.violating_rows());
        assert_eq!(built.g3_removals(), exact.g3_removals());
    }
}
