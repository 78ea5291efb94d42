//! Columnar CSR trie storage — one sorted key array per trie level plus
//! `u32` child-range offsets.
//!
//! A sorted array of `[u32; 3]` rows pays 12 bytes per comparison on every
//! seek and extracts full rows even when a caller only needs the suffix
//! attribute. The CSR layout stores each level's keys contiguously:
//!
//! ```text
//!           l0_rank:    [{bits, rank} ...]  one block per 64 ids: id → node
//! level 0   l0_keys:    [a0 a1 a2 ...]                 (distinct, sorted)
//!           l0_offsets: [0 .. .. ..]  ── l1 node ids ──┐
//! level 1   l1_keys:    [b00 b01 | b10 ...]  ◄─────────┘ (sorted per parent)
//!           l1_offsets: [0 .. .. ..]  ── leaf positions ─┐
//! level 2   l2_keys:    [c000 c001 | c010 ...]  ◄────────┘ (sorted per parent)
//! ```
//!
//! Node `i`'s children occupy `offsets[i]..offsets[i + 1]` in the next
//! level's arrays, so a seek scans a contiguous `&[u32]` (4-byte stride, 16
//! keys per cache line) and `next` is `pos + 1` — no run recomputation.
//! Leaf positions coincide with positions in the sorted row array, so a
//! bound prefix is a contiguous [`RowRange`] of leaves. `ColumnarTrie::find0`
//! reaches a level-0 node in O(1) through the rank directory `l0_rank`
//! (term ids are dense dictionary ids, so the level-0 key space is
//! addressed, not searched), `ColumnarTrie::find1` by binary search of
//! the node's child window (O(log fan-out)); there is no hash table, and
//! sampling inside the range stays O(1). The reverse maps `l1_of` (leaf →
//! level-1 node) and `l0_of` (level-1 node → level-0 node) make full-row
//! reconstruction O(1).
//!
//! **Rank directory.** Block `k` covers ids `64k..64k + 64`: a `u64` with
//! bit `i` set iff `64k + i` is a level-0 key, and the number of level-0
//! keys below `64k`. A present key's node is that count plus the popcount
//! of the bits below it — one block load. The directory is bounded by the
//! data, not the key space: it has at most one block per level-0 key, and
//! keys past the blocks it has (a sparse tail, e.g. one key at
//! `u32::MAX`) resolve by binary search over the uncovered tail of
//! `l0_keys`.

use crate::store::RowRange;

/// Maximum number of keys the seek fast path scans linearly before
/// switching to the exponential gallop. LFTJ seeks usually land within a
/// few keys of the cursor (the leapfrog advances all iterators in near
/// lockstep), so a short linear scan beats a binary search on average.
pub const GALLOP_LINEAR_SPAN: usize = 8;

/// How a cursor seek was resolved — reported to callers so the profiler
/// can attribute where seeks land (see `LftjVarStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekOutcome {
    /// Resolved within the first [`GALLOP_LINEAR_SPAN`] keys (including
    /// no-op seeks where the cursor was already at or past the target).
    Linear,
    /// Fell through to the exponential-then-binary gallop.
    Gallop,
}

/// First index in `lo..hi` where `keys[i] >= v`, assuming `keys` is
/// non-decreasing over the range: linear fast path, then exponential
/// probing, then binary search inside the probed window.
#[inline]
pub(crate) fn gallop_lower_bound(
    keys: &[u32],
    lo: usize,
    hi: usize,
    v: u32,
) -> (usize, SeekOutcome) {
    let lin_hi = hi.min(lo + GALLOP_LINEAR_SPAN);
    let mut i = lo;
    while i < lin_hi {
        if keys[i] >= v {
            return (i, SeekOutcome::Linear);
        }
        i += 1;
    }
    if i >= hi {
        return (hi, SeekOutcome::Linear);
    }
    // Exponential probe: everything below `l` is known `< v`; `r` is the
    // first probe found `>= v` (or `hi`).
    let mut step = 1usize;
    let mut l = i;
    let mut probe = i;
    let r = loop {
        if probe >= hi {
            break hi;
        }
        if keys[probe] >= v {
            break probe;
        }
        l = probe + 1;
        probe += step;
        step <<= 1;
    };
    // Binary search within the window.
    let (mut l, mut r) = (l, r);
    while l < r {
        let m = l + (r - l) / 2;
        if keys[m] < v {
            l = m + 1;
        } else {
            r = m;
        }
    }
    (l, SeekOutcome::Gallop)
}

/// One 64-id block of the level-0 rank directory (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
struct RankBlock {
    /// Bit `i` set iff `64k + i` is a level-0 key, for block `k`.
    bits: u64,
    /// Number of level-0 keys below `64k`.
    rank: u32,
}

/// The rank directory of sorted, distinct level-0 keys: `min((max key >>
/// 6) + 1, keys.len())` blocks, so a sparse key space (one key at
/// `u32::MAX`) costs one block. Keys past the last block are not in it.
fn rank_directory(keys: &[u32]) -> Vec<RankBlock> {
    let Some(&max) = keys.last() else { return Vec::new() };
    let n = ((max >> 6) as usize + 1).min(keys.len());
    let mut dir = vec![RankBlock::default(); n];
    for &k in keys.iter().take_while(|&&k| ((k >> 6) as usize) < n) {
        dir[(k >> 6) as usize].bits |= 1u64 << (k & 63);
    }
    let mut rank = 0u32;
    for b in &mut dir {
        b.rank = rank;
        rank += b.bits.count_ones();
    }
    // `find0` derives the covered prefix of `l0_keys` from the last block.
    debug_assert_eq!(rank as usize, keys.partition_point(|&k| ((k >> 6) as usize) < n));
    dir
}

/// One order's triples in columnar CSR trie form. See the module docs for
/// the layout diagram.
#[derive(Debug, Clone, Default)]
pub struct ColumnarTrie {
    /// Rank directory over the level-0 key space. The count of level-0 keys
    /// it covers is derived from its last block, not stored.
    l0_rank: Vec<RankBlock>,
    /// Distinct level-0 keys, sorted.
    l0_keys: Vec<u32>,
    /// `l0_offsets[i]..l0_offsets[i+1]` — level-1 node ids under level-0
    /// node `i`. Length `l0_keys.len() + 1`.
    l0_offsets: Vec<u32>,
    /// Level-1 keys, grouped by parent; sorted and distinct within each
    /// parent's window.
    l1_keys: Vec<u32>,
    /// `l1_offsets[j]..l1_offsets[j+1]` — leaf positions under level-1
    /// node `j`. Length `l1_keys.len() + 1`.
    l1_offsets: Vec<u32>,
    /// Leaf keys; leaf position == position in the sorted row array.
    l2_keys: Vec<u32>,
    /// Reverse map: leaf position → its level-1 node id.
    l1_of: Vec<u32>,
    /// Reverse map: level-1 node id → its level-0 node id.
    l0_of: Vec<u32>,
}

impl ColumnarTrie {
    /// Build from rows already sorted (and distinct) in the order's
    /// permuted layout. One linear pass; the arrays whose length it
    /// discovers are then shrunk to fit, so every array's capacity equals
    /// its length.
    pub(crate) fn from_sorted_rows(rows: &[[u32; 3]]) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be sorted+distinct");
        let n = rows.len();
        let mut t = ColumnarTrie {
            l2_keys: Vec::with_capacity(n),
            l1_of: Vec::with_capacity(n),
            ..ColumnarTrie::default()
        };
        t.l0_offsets.push(0);
        t.l1_offsets.push(0);
        let mut i = 0usize;
        while i < n {
            let a = rows[i][0];
            let l0_node = t.l0_keys.len() as u32;
            t.l0_keys.push(a);
            let mut j = i;
            while j < n && rows[j][0] == a {
                let b = rows[j][1];
                let l1_node = t.l1_keys.len() as u32;
                t.l1_keys.push(b);
                t.l0_of.push(l0_node);
                let mut k = j;
                while k < n && rows[k][0] == a && rows[k][1] == b {
                    t.l2_keys.push(rows[k][2]);
                    t.l1_of.push(l1_node);
                    k += 1;
                }
                t.l1_offsets.push(k as u32);
                j = k;
            }
            t.l0_offsets.push(t.l1_keys.len() as u32);
            i = j;
        }
        t.l0_keys.shrink_to_fit();
        t.l0_offsets.shrink_to_fit();
        t.l1_keys.shrink_to_fit();
        t.l1_offsets.shrink_to_fit();
        t.l0_of.shrink_to_fit();
        t.l0_rank = rank_directory(&t.l0_keys);
        t
    }

    /// Number of leaves (== triples).
    #[inline]
    pub fn len(&self) -> usize {
        self.l2_keys.len()
    }

    /// True if the trie holds no triples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.l2_keys.is_empty()
    }

    /// Number of level-0 nodes (distinct first attributes).
    #[inline]
    pub(crate) fn l0_len(&self) -> usize {
        self.l0_keys.len()
    }

    /// Key of level-0 node `i`.
    #[inline]
    pub(crate) fn key0(&self, i: u32) -> u32 {
        self.l0_keys[i as usize]
    }

    /// Level-1 node window (child ids) of level-0 node `i`.
    #[inline]
    pub(crate) fn l0_children(&self, i: u32) -> (u32, u32) {
        (self.l0_offsets[i as usize], self.l0_offsets[i as usize + 1])
    }

    /// Leaf window of level-1 node `j`.
    #[inline]
    pub(crate) fn l1_children(&self, j: u32) -> (u32, u32) {
        (self.l1_offsets[j as usize], self.l1_offsets[j as usize + 1])
    }

    /// The level-1 node containing leaf `pos`.
    #[inline]
    pub(crate) fn l1_node_of(&self, pos: u32) -> u32 {
        self.l1_of[pos as usize]
    }

    /// The level-0 node containing level-1 node `j`.
    #[inline]
    pub(crate) fn l0_node_of(&self, j: u32) -> u32 {
        self.l0_of[j as usize]
    }

    /// Leaf range under level-0 node `i`.
    #[inline]
    pub(crate) fn l0_leaf_range(&self, i: u32) -> RowRange {
        let (c0, c1) = self.l0_children(i);
        RowRange { start: self.l1_offsets[c0 as usize], end: self.l1_offsets[c1 as usize] }
    }

    /// Leaf range under level-1 node `j`.
    #[inline]
    pub(crate) fn l1_leaf_range(&self, j: u32) -> RowRange {
        let (lo, hi) = self.l1_children(j);
        RowRange { start: lo, end: hi }
    }

    /// The level-0 node whose key is `a`, if present: one rank-directory
    /// block and a popcount when `a` falls inside the directory, else a
    /// binary search over the level-0 keys past it.
    #[inline]
    pub(crate) fn find0(&self, a: u32) -> Option<u32> {
        if let Some(b) = self.l0_rank.get((a >> 6) as usize) {
            let bit = 1u64 << (a & 63);
            return (b.bits & bit != 0).then(|| b.rank + (b.bits & (bit - 1)).count_ones());
        }
        let covered = self.l0_rank.last().map_or(0, |b| (b.rank + b.bits.count_ones()) as usize);
        let tail = &self.l0_keys[covered..];
        tail.binary_search(&a).ok().map(|i| (covered + i) as u32)
    }

    /// The level-1 node with key `b` under level-0 node `l0`, if present:
    /// a binary search confined to that node's child window.
    #[inline]
    pub(crate) fn find1(&self, l0: u32, b: u32) -> Option<u32> {
        let (lo, hi) = self.l0_children(l0);
        let window = &self.l1_keys[lo as usize..hi as usize];
        window.binary_search(&b).ok().map(|i| lo + i as u32)
    }

    /// The leaf keys of a contiguous leaf range — the hot suffix slice CTJ
    /// enumeration and `contains` scan.
    #[inline]
    pub(crate) fn l2_slice(&self, r: RowRange) -> &[u32] {
        &self.l2_keys[r.as_usize()]
    }

    /// Level-0 key slice (for cursors).
    #[inline]
    pub(crate) fn l0_key_slice(&self) -> &[u32] {
        &self.l0_keys
    }

    /// Level-1 key slice (for cursors).
    #[inline]
    pub(crate) fn l1_key_slice(&self) -> &[u32] {
        &self.l1_keys
    }

    /// Level-2 key slice (for cursors).
    #[inline]
    pub(crate) fn l2_key_slice(&self) -> &[u32] {
        &self.l2_keys
    }

    /// Reconstruct the full row at `pos` — three dependent loads through
    /// the reverse maps.
    #[inline]
    pub fn row(&self, pos: u32) -> [u32; 3] {
        let l1 = self.l1_of[pos as usize];
        let l0 = self.l0_of[l1 as usize];
        [self.l0_keys[l0 as usize], self.l1_keys[l1 as usize], self.l2_keys[pos as usize]]
    }

    /// Reconstruct only the attributes at levels `>= from` of the row at
    /// `pos` (earlier slots are zeroed). Callers that fixed a 2-prefix pay
    /// a single `u32` load instead of a full-row reconstruction. Always
    /// inlined, for the reason given at `WalkPlan::extract_at`.
    #[inline(always)]
    pub fn row_from(&self, pos: u32, from: usize) -> [u32; 3] {
        match from {
            0 => self.row(pos),
            1 => {
                let l1 = self.l1_of[pos as usize];
                [0, self.l1_keys[l1 as usize], self.l2_keys[pos as usize]]
            }
            _ => [0, 0, self.l2_keys[pos as usize]],
        }
    }

    /// Heap memory held by the level arrays and the rank directory, in
    /// bytes — their capacities, which `ColumnarTrie::from_sorted_rows`
    /// keeps equal to their lengths.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<RankBlock>() * self.l0_rank.capacity()
            + 4 * (self.l0_keys.capacity()
            + self.l0_offsets.capacity()
            + self.l1_keys.capacity()
            + self.l1_offsets.capacity()
            + self.l2_keys.capacity()
            + self.l1_of.capacity()
            + self.l0_of.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<[u32; 3]> {
        vec![
            [1, 10, 100],
            [1, 10, 101],
            [1, 11, 100],
            [2, 10, 100],
            [2, 12, 105],
            [3, 12, 103],
        ]
    }

    #[test]
    fn csr_structure_matches_rows() {
        let t = ColumnarTrie::from_sorted_rows(&rows());
        assert_eq!(t.len(), 6);
        assert_eq!(t.l0_len(), 3);
        assert_eq!(t.l1_keys.len(), 5); // (1,10) (1,11) (2,10) (2,12) (3,12)
        for (pos, r) in rows().iter().enumerate() {
            assert_eq!(t.row(pos as u32), *r, "row {pos}");
            assert_eq!(t.row_from(pos as u32, 1)[1..], r[1..], "row {pos} from 1");
            assert_eq!(t.row_from(pos as u32, 2)[2], r[2], "row {pos} from 2");
        }
    }

    #[test]
    fn child_windows_partition_each_level() {
        let t = ColumnarTrie::from_sorted_rows(&rows());
        // Level-0 windows tile the level-1 nodes.
        let mut expect = 0u32;
        for i in 0..t.l0_len() as u32 {
            let (lo, hi) = t.l0_children(i);
            assert_eq!(lo, expect);
            assert!(hi > lo);
            expect = hi;
        }
        assert_eq!(expect as usize, t.l1_keys.len());
        // Level-1 windows tile the leaves.
        let mut expect = 0u32;
        for j in 0..t.l1_keys.len() as u32 {
            let (lo, hi) = t.l1_children(j);
            assert_eq!(lo, expect);
            assert!(hi > lo);
            expect = hi;
        }
        assert_eq!(expect as usize, t.len());
    }

    #[test]
    fn reverse_maps_agree_with_windows() {
        let t = ColumnarTrie::from_sorted_rows(&rows());
        for j in 0..t.l1_keys.len() as u32 {
            let (lo, hi) = t.l1_children(j);
            for pos in lo..hi {
                assert_eq!(t.l1_node_of(pos), j);
            }
            let l0 = t.l0_node_of(j);
            let (c0, c1) = t.l0_children(l0);
            assert!((c0..c1).contains(&j));
        }
    }

    #[test]
    fn memory_bytes_counts_exactly_sized_arrays() {
        let t = ColumnarTrie::from_sorted_rows(&rows());
        let arrays =
            [&t.l0_keys, &t.l0_offsets, &t.l1_keys, &t.l1_offsets, &t.l2_keys, &t.l1_of, &t.l0_of];
        for a in arrays {
            assert_eq!(a.capacity(), a.len(), "array sized exactly");
        }
        assert_eq!(t.l0_rank.capacity(), t.l0_rank.len(), "directory sized exactly");
        assert_eq!(t.l0_rank.len(), 1, "keys 1..=3 share block 0");
        assert_eq!(std::mem::size_of::<RankBlock>(), 16);
        let capacity: usize = arrays.iter().map(|a| a.capacity()).sum();
        assert_eq!(t.memory_bytes(), 4 * capacity + 16 * t.l0_rank.capacity());
    }

    #[test]
    fn empty_trie() {
        let t = ColumnarTrie::from_sorted_rows(&[]);
        assert!(t.is_empty());
        assert_eq!(t.l0_len(), 0);
        assert!(t.l0_rank.is_empty());
        assert_eq!(t.find0(0), None);
        assert_eq!(t.find0(u32::MAX), None);
        assert_eq!(t.memory_bytes(), 8); // two sentinel offsets
    }

    #[test]
    fn rank_directory_agrees_with_binary_search() {
        let keyed = |keys: &[u32]| keys.iter().map(|&k| [k, 0, 0]).collect::<Vec<_>>();
        let table: Vec<(&str, Vec<u32>)> = vec![
            ("empty", vec![]),
            ("single key 0", vec![0]),
            ("block edges", vec![63, 64, 65, 127, 128]),
            ("dense run", (0..1000).collect()),
            ("spaced past a block", (0..40).map(|i| i * 97 + 5).collect()),
            ("outruns the cap", vec![0, 1_000_000, u32::MAX]),
        ];
        for (name, keys) in &table {
            let t = ColumnarTrie::from_sorted_rows(&keyed(keys));
            assert!(t.l0_rank.len() <= keys.len(), "{name}: at most one block per key");
            // Every key's neighbours, plus absent ids between and beyond.
            let mut probes = vec![0, 1, 62, 999, 1000, 1_000_001, u32::MAX - 1, u32::MAX];
            probes.extend(keys.iter().flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)]));
            for a in probes {
                let expect = t.l0_keys.binary_search(&a).ok().map(|i| i as u32);
                assert_eq!(t.find0(a), expect, "{name}: find0({a})");
            }
        }
        // The capped case: three keys, three blocks (ids 0..192) holding
        // key 0; 1 000 000 and u32::MAX live in the binary-searched tail.
        let t = ColumnarTrie::from_sorted_rows(&keyed(&[0, 1_000_000, u32::MAX]));
        assert_eq!(t.l0_rank.len(), 3);
        assert_eq!((t.find0(1_000_000), t.find0(u32::MAX)), (Some(1), Some(2)));
    }

    #[test]
    fn gallop_agrees_with_partition_point() {
        // Exercise linear hits, gallops past the fast path, and
        // out-of-range targets on runs of duplicate keys.
        let keys: Vec<u32> = (0..200u32).map(|i| (i / 3) * 2).collect();
        for v in 0..140u32 {
            let expect = keys.partition_point(|k| *k < v);
            let (got, _) = gallop_lower_bound(&keys, 0, keys.len(), v);
            assert_eq!(got, expect, "target {v}");
            // From a mid-range start position.
            let expect_mid = 50 + keys[50..].partition_point(|k| *k < v);
            let (got_mid, _) = gallop_lower_bound(&keys, 50, keys.len(), v);
            assert_eq!(got_mid, expect_mid, "target {v} from 50");
        }
        // Nearby targets resolve on the linear path; distant ones gallop.
        let (_, near) = gallop_lower_bound(&keys, 0, keys.len(), keys[2]);
        assert_eq!(near, SeekOutcome::Linear);
        let (_, far) = gallop_lower_bound(&keys, 0, keys.len(), keys[150]);
        assert_eq!(far, SeekOutcome::Gallop);
        // Empty range.
        let (got, out) = gallop_lower_bound(&[], 7, 7, 3);
        assert_eq!((got, out), (7, SeekOutcome::Linear));
    }
}
