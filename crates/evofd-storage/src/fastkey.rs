//! Group-key machinery for every code-keyed hash count in the engine.
//!
//! [`crate::count_distinct`] (the batch counting kernel behind every CB
//! measure), `evofd-core`'s repair index and `evofd-incremental`'s per-FD
//! trackers all key hash maps or sets by tuples of dictionary codes. The
//! representation choices that dominate their cost live here so all three
//! share them:
//!
//! * [`CodeHasher`] — an FxHash-style multiplicative hasher replacing
//!   SipHash on every map ([`FastMap`], [`FastSet`]). Dictionary codes are
//!   already well distributed, so SipHash's DoS hardening only buys
//!   latency. The xorshift-multiply finalizer is load-bearing: without it
//!   the low bits — exactly the ones hashbrown picks buckets with — depend
//!   only on the last written word (one column's dictionary), which once
//!   piled 19k keys into 86 buckets.
//! * [`Key`] — a code tuple stored inline up to [`INLINE_KEY`] codes
//!   (no heap traffic per row) and boxed beyond.
//! * [`packed_key`] — up to [`PACK_MAX_ATTRS`] sub-2^16 codes folded into
//!   one `u64`, shrinking map entries to cache-line size. Eligibility
//!   ([`packable_column`] on every column) is the *caller's* contract; the
//!   checked [`try_packed_key`] variant detects ineligible rows for callers
//!   that discover it mid-stream.
//! * [`GroupRhs`] — the One/Few/Many tiered consequent distribution of
//!   one antecedent group. Almost every group maps to a **single**
//!   Y-projection (that is what exactness means), so that case lives
//!   inline in the parent map entry: one probe, no nested allocation.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::attrset::AttrId;
use crate::column::Column;
use crate::relation::Relation;

/// Codes a [`Key`] can hold inline — covers every `X∪S∪Y` tuple up to
/// eight attributes without touching the heap (the overwhelmingly common
/// case; wider keys spill to a boxed slice).
pub const INLINE_KEY: usize = 8;

/// A dictionary-code tuple used as a group key. NULL cells carry the
/// storage sentinel code, grouping exactly like `count_distinct`. Keys up
/// to [`INLINE_KEY`] codes are stored inline — the hot maintenance path
/// allocates nothing per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Key {
    /// Up to [`INLINE_KEY`] codes, zero-padded past `len` (Eq/Hash
    /// include `len`, so padding never aliases a shorter key).
    Inline {
        /// Number of meaningful codes.
        len: u8,
        /// The codes, zero-padded.
        codes: [u32; INLINE_KEY],
    },
    /// More than [`INLINE_KEY`] codes.
    Heap(Box<[u32]>),
}

impl Key {
    /// Build a key from an explicit code slice (snapshot import).
    pub fn from_codes(codes: &[u32]) -> Key {
        if codes.len() <= INLINE_KEY {
            let mut inline = [0u32; INLINE_KEY];
            inline[..codes.len()].copy_from_slice(codes);
            Key::Inline { len: codes.len() as u8, codes: inline }
        } else {
            Key::Heap(codes.into())
        }
    }

    /// The meaningful codes of this key, in attribute order.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        match self {
            Key::Inline { len, codes } => &codes[..*len as usize],
            Key::Heap(codes) => codes,
        }
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            // Padding past `len` is always zero, so hashing the whole
            // inline array plus the length is collision-equivalent to
            // hashing the meaningful prefix — and branch-free.
            Key::Inline { len, codes } => {
                state.write_u8(*len);
                for &c in codes {
                    state.write_u32(c);
                }
            }
            Key::Heap(codes) => {
                state.write_u8(INLINE_KEY as u8 + 1); // cannot alias Inline
                for &c in codes.iter() {
                    state.write_u32(c);
                }
                state.write_u32(codes.len() as u32);
            }
        }
    }
}

/// A fast multiplicative hasher (FxHash-style) for code-keyed group
/// maps: dictionary codes are already well distributed, so the default
/// SipHash's DoS hardening only costs latency on this hot path.
#[derive(Debug, Default, Clone)]
pub struct CodeHasher {
    hash: u64,
}

impl CodeHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for CodeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // xorshift-multiply finalizer: in a plain multiplicative
        // accumulator the low bits — exactly the ones hashbrown uses for
        // bucket selection — depend only on the low bits of the last
        // write, which for packed code words can carry almost no entropy
        // (one column's dictionary). Fold the high half down twice so
        // every input bit reaches every bucket bit.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Hash map with the fast code hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<CodeHasher>>;
/// Hash set with the fast code hasher.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<CodeHasher>>;
/// Hash map keyed by [`Key`] with the fast code hasher.
pub type KeyMap<V> = FastMap<Key, V>;

/// Most codes one [`packed_key`] word holds, at 16 bits per code.
pub const PACK_MAX_ATTRS: usize = 4;

/// True iff `col`'s codes can go into a [`packed_key`]: the column is
/// NULL-free (the NULL sentinel has all high bits set) and its dictionary
/// stays under 2^16 entries.
#[inline]
pub fn packable_column(col: &Column) -> bool {
    col.null_count() == 0 && col.dict().len() < (1 << 16)
}

/// Fold up to [`PACK_MAX_ATTRS`] sub-2^16 codes into one word. The caller
/// guarantees eligibility ([`packable_column`] on every column); use
/// [`try_packed_key`] when a row may violate it.
#[inline]
pub fn packed_key(rel: &Relation, attrs: &[AttrId], row: usize) -> u64 {
    let mut v = 0u64;
    for &a in attrs {
        let code = rel.column(a).code_at(row);
        debug_assert!(code < 1 << 16, "packed key saw a wide code");
        v = (v << 16) | code as u64;
    }
    v
}

/// [`packed_key`], detecting ineligible rows: `None` when any code does
/// not fit 16 bits — a dictionary that outgrew the bound, or a NULL cell
/// (the sentinel code has all high bits set). One branch per row.
#[inline]
pub fn try_packed_key(rel: &Relation, attrs: &[AttrId], row: usize) -> Option<u64> {
    let mut v = 0u64;
    let mut or = 0u32;
    for &a in attrs {
        let code = rel.column(a).code_at(row);
        or |= code;
        v = (v << 16) | (code & 0xFFFF) as u64;
    }
    if or >> 16 != 0 {
        return None;
    }
    Some(v)
}

/// Unfold a [`packed_key`] word back into its `len` codes — exact, since
/// packed codes are always sub-2^16.
pub fn unpack_key(v: u64, len: usize) -> Vec<u32> {
    (0..len).map(|i| ((v >> (16 * (len - 1 - i))) & 0xFFFF) as u32).collect()
}

/// The generic group key of a row: its dictionary codes over `attrs`.
#[inline]
pub fn key(rel: &Relation, attrs: &[AttrId], row: usize) -> Key {
    if attrs.len() <= INLINE_KEY {
        let mut codes = [0u32; INLINE_KEY];
        for (slot, &a) in codes.iter_mut().zip(attrs) {
            *slot = rel.column(a).code_at(row);
        }
        Key::Inline { len: attrs.len() as u8, codes }
    } else {
        Key::Heap(attrs.iter().map(|&a| rel.column(a).code_at(row)).collect())
    }
}

/// Distinct Y-projections above which a group's counts spill from the
/// linear-scanned [`GroupRhs::Few`] vector into a hash map.
pub const FEW_LIMIT: usize = 16;

/// How one antecedent group distributes over Y-projections. Almost every
/// group maps to a **single** Y-projection (that is what exactness
/// means), so that case is stored inline in the group map entry — one
/// probe, no inner allocation; groups with more spill to a linear vector
/// and, past [`FEW_LIMIT`], to a boxed count map. Generic over the key
/// representation: `u64` for packed keys (cache-line-sized entries),
/// [`Key`] otherwise.
#[derive(Debug, Clone)]
pub enum GroupRhs<K> {
    /// Exactly one distinct Y-projection in this group.
    One {
        /// The projection.
        rkey: K,
        /// Live rows carrying it.
        count: u32,
    },
    /// A handful of distinct Y-projections: contiguous, linear-scanned —
    /// one predictable memory access instead of a nested hash probe.
    Few(Vec<(K, u32)>),
    /// Beyond [`FEW_LIMIT`] distinct Y-projections.
    Many(Box<FastMap<K, u32>>),
}

impl<K: Hash + Eq + Clone> GroupRhs<K> {
    /// A fresh group holding one row of one projection.
    pub fn new(rkey: K) -> GroupRhs<K> {
        GroupRhs::One { rkey, count: 1 }
    }

    /// A fresh group holding `count` rows of one projection (bulk import).
    pub fn with_count(rkey: K, count: u32) -> GroupRhs<K> {
        GroupRhs::One { rkey, count }
    }

    /// Account one row; true iff `rkey` is a projection this group had
    /// not seen (a new distinct (X, Y) pair).
    pub fn insert(&mut self, rkey: &K) -> bool {
        self.insert_n(rkey, 1)
    }

    /// Account `n` rows of one projection at once (bulk import); true iff
    /// `rkey` is a projection this group had not seen.
    pub fn insert_n(&mut self, rkey: &K, n: u32) -> bool {
        match self {
            GroupRhs::One { rkey: existing, count } if existing == rkey => {
                *count += n;
                false
            }
            GroupRhs::One { rkey: existing, count } => {
                let few = vec![(existing.clone(), *count), (rkey.clone(), n)];
                *self = GroupRhs::Few(few);
                true
            }
            GroupRhs::Few(few) => {
                if let Some(slot) = few.iter_mut().find(|(k, _)| k == rkey) {
                    slot.1 += n;
                    false
                } else {
                    few.push((rkey.clone(), n));
                    if few.len() > FEW_LIMIT {
                        let m: FastMap<K, u32> = few.drain(..).collect();
                        *self = GroupRhs::Many(Box::new(m));
                    }
                    true
                }
            }
            GroupRhs::Many(m) => match m.entry(rkey.clone()) {
                Entry::Occupied(mut inner) => {
                    *inner.get_mut() += n;
                    false
                }
                Entry::Vacant(inner) => {
                    inner.insert(n);
                    true
                }
            },
        }
    }

    /// Un-account one row of `rkey` (which must be present); true iff its
    /// last row left (a distinct (X, Y) pair died). A group whose only
    /// projection dies stays representable ([`GroupRhs::is_empty`]) so
    /// the caller can drop the whole entry.
    pub fn remove(&mut self, rkey: &K) -> bool {
        match self {
            GroupRhs::One { count, .. } => {
                *count -= 1;
                *count == 0
            }
            GroupRhs::Few(few) => {
                let idx =
                    few.iter().position(|(k, _)| k == rkey).expect("pair exists for a tracked row");
                few[idx].1 -= 1;
                let gone = few[idx].1 == 0;
                if gone {
                    few.swap_remove(idx);
                }
                if few.len() == 1 {
                    let (k, n) = few.pop().expect("one entry");
                    *self = GroupRhs::One { rkey: k, count: n };
                }
                gone
            }
            GroupRhs::Many(m) => {
                let gone = match m.entry(rkey.clone()) {
                    Entry::Occupied(mut inner) => {
                        *inner.get_mut() -= 1;
                        if *inner.get() == 0 {
                            inner.remove();
                            true
                        } else {
                            false
                        }
                    }
                    Entry::Vacant(_) => unreachable!("pair exists for a tracked row"),
                };
                if m.len() == 1 {
                    let (k, n) = m.iter().next().expect("one entry");
                    *self = GroupRhs::One { rkey: k.clone(), count: *n };
                }
                gone
            }
        }
    }
}

impl<K> GroupRhs<K> {
    /// Number of distinct Y-projections currently in the group.
    pub fn distinct(&self) -> usize {
        match self {
            GroupRhs::One { count, .. } => usize::from(*count > 0),
            GroupRhs::Few(few) => few.len(),
            GroupRhs::Many(m) => m.len(),
        }
    }

    /// True when no live rows remain (only reachable through
    /// [`GroupRhs::remove`] draining a [`GroupRhs::One`]).
    pub fn is_empty(&self) -> bool {
        matches!(self, GroupRhs::One { count: 0, .. })
    }

    /// The largest per-projection row count (the `g3` plurality).
    pub fn max_count(&self) -> u32 {
        match self {
            GroupRhs::One { count, .. } => *count,
            GroupRhs::Few(few) => few.iter().map(|(_, n)| *n).max().unwrap_or(0),
            GroupRhs::Many(m) => m.values().copied().max().unwrap_or(0),
        }
    }

    /// Iterate `(projection, count)` pairs in arbitrary order.
    pub fn iter(&self) -> GroupRhsIter<'_, K> {
        match self {
            GroupRhs::One { rkey, count } => GroupRhsIter::One(Some((rkey, *count))),
            GroupRhs::Few(few) => GroupRhsIter::Few(few.iter()),
            GroupRhs::Many(m) => GroupRhsIter::Many(m.iter()),
        }
    }

    /// Rough heap bytes held beyond the parent map entry (the spilled
    /// [`GroupRhs::Few`] / [`GroupRhs::Many`] storage).
    pub fn spilled_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(K, u32)>();
        match self {
            GroupRhs::One { .. } => 0,
            GroupRhs::Few(few) => few.capacity() * entry,
            GroupRhs::Many(m) => m.capacity() * (entry + 8),
        }
    }
}

/// Iterator over a [`GroupRhs`]'s `(projection, count)` pairs.
pub enum GroupRhsIter<'a, K> {
    /// The single-projection tier.
    One(Option<(&'a K, u32)>),
    /// The linear tier.
    Few(std::slice::Iter<'a, (K, u32)>),
    /// The map tier.
    Many(std::collections::hash_map::Iter<'a, K, u32>),
}

impl<'a, K> Iterator for GroupRhsIter<'a, K> {
    type Item = (&'a K, u32);

    fn next(&mut self) -> Option<(&'a K, u32)> {
        match self {
            GroupRhsIter::One(slot) => slot.take(),
            GroupRhsIter::Few(it) => it.next().map(|(k, n)| (k, *n)),
            GroupRhsIter::Many(it) => it.next().map(|(k, n)| (k, *n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_key_round_trips_codes() {
        let k = Key::from_codes(&[3, 0, 7]);
        assert_eq!(k.codes(), &[3, 0, 7]);
        assert!(matches!(k, Key::Inline { len: 3, .. }));
        let wide: Vec<u32> = (0..12).collect();
        let k = Key::from_codes(&wide);
        assert_eq!(k.codes(), wide.as_slice());
        assert!(matches!(k, Key::Heap(_)));
    }

    #[test]
    fn packed_key_round_trips_and_detects_wide_codes() {
        // Packing is pure arithmetic over the codes; rebuild the word by
        // hand and compare against unpack.
        let v = (5u64 << 32) | 65535;
        assert_eq!(unpack_key(v, 3), vec![5, 0, 65535]);
        assert_eq!(unpack_key(0, 0), Vec::<u32>::new());
    }

    #[test]
    fn group_rhs_tiers_upgrade_and_downgrade() {
        let mut g: GroupRhs<u64> = GroupRhs::new(1);
        assert_eq!(g.distinct(), 1);
        assert!(!g.insert(&1), "same projection is not a new pair");
        assert!(g.insert(&2), "second projection upgrades One -> Few");
        assert!(matches!(g, GroupRhs::Few(_)));
        for k in 3..=(FEW_LIMIT as u64 + 1) {
            assert!(g.insert(&k));
        }
        assert!(matches!(g, GroupRhs::Many(_)), "past FEW_LIMIT spills to a map");
        assert_eq!(g.distinct(), FEW_LIMIT + 1);
        assert_eq!(g.max_count(), 2);
        for k in 2..=(FEW_LIMIT as u64 + 1) {
            assert!(g.remove(&k));
        }
        assert!(matches!(g, GroupRhs::One { .. }), "a single survivor downgrades to One");
        assert!(!g.remove(&1), "two rows of projection 1 remain");
        assert!(g.remove(&1));
        assert!(g.is_empty());
    }

    #[test]
    fn group_rhs_iterates_every_tier() {
        let mut g: GroupRhs<u64> = GroupRhs::new(7);
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(&7, 1)]);
        g.insert(&9);
        let mut pairs: Vec<(u64, u32)> = g.iter().map(|(k, n)| (*k, n)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(7, 1), (9, 1)]);
        for k in 10..40 {
            g.insert(&k);
        }
        assert_eq!(g.iter().count(), 32);
    }
}
