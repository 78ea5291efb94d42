//! A single-order trie index over columnar CSR storage.
//!
//! The paper's §V-A keeps hash tables beside the sorted array so that a
//! bound prefix reaches its contiguous range in O(1). Here the trie is its
//! own index: the level arrays already encode the range of every 1- and
//! 2-value prefix, so [`TrieIndex::range1`] / [`TrieIndex::range2`] enter
//! by one point lookup per bound level — `find0`, O(1) through the
//! level-0 rank directory, then `find1` inside the child window,
//! O(log fan-out) — and no hash table is built, stored or rebuilt on
//! merge. Sampling *inside* the range stays O(1)
//! ([`RowRange::pick`]); galloping search handles the third level. Leaf
//! positions are positions in the sorted row array, so ranges, sampling
//! and cache keys are plain row numbers.

use std::sync::Arc;

use kgoa_rdf::Triple;

use crate::columnar::ColumnarTrie;
use crate::delta::DeltaPart;
use crate::order::IndexOrder;

/// A half-open range of row positions within a [`TrieIndex`].
///
/// Row positions are `u32` (the dictionary already caps graphs at 2^32
/// terms; 2^32 triples per index is ample for in-memory graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRange {
    /// First row position.
    pub start: u32,
    /// One past the last row position.
    pub end: u32,
}

impl RowRange {
    /// The empty range.
    pub const EMPTY: RowRange = RowRange { start: 0, end: 0 };

    /// Number of rows.
    #[inline]
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if no rows.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start >= self.end
    }

    /// Convert to a `usize` range for slicing.
    #[inline]
    pub fn as_usize(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Uniformly sample a row position from this range in O(1) — the
    /// operation at the heart of every Wander Join / Audit Join step.
    /// Returns `None` on an empty range.
    #[inline]
    pub fn pick<R: rand::Rng + ?Sized>(self, rng: &mut R) -> Option<u32> {
        if self.is_empty() {
            None
        } else {
            Some(rng.gen_range(self.start..self.end))
        }
    }

    /// Map one pre-drawn uniform `u64` onto a row of this (non-empty)
    /// range via the same multiply-shift `gen_range` uses, so a batched
    /// sampler that pre-fills raw words reproduces [`RowRange::pick`]
    /// bit-for-bit. Callers handle empty ranges (and the draw metric)
    /// themselves.
    #[inline]
    pub fn pick_keyed(self, raw: u64) -> u32 {
        debug_assert!(!self.is_empty(), "pick_keyed on empty range");
        let span = (self.end - self.start) as u64;
        self.start + ((raw as u128 * span as u128) >> 64) as u32
    }
}

/// Name of the physical storage layout of a [`TrieIndex`]. Columnar CSR
/// ([`ColumnarTrie`]) is the only layout; the enum stays because the
/// benchmark harness pins `IndexedGraph::layout().name()`, and its run
/// fingerprint must keep printing `"csr"`.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// Columnar CSR: per-level key arrays + child offsets.
    Csr,
}

impl Layout {
    /// The report name (`"csr"`).
    pub fn name(self) -> &'static str {
        match self {
            Layout::Csr => "csr",
        }
    }
}

/// The immutable part of a [`TrieIndex`], shared across epoch snapshots
/// via `Arc` (cloning an index is O(1) regardless of graph size).
#[derive(Debug)]
pub(crate) struct IndexCore {
    order: IndexOrder,
    len: u32,
    trie: ColumnarTrie,
}

/// A sorted trie over all triples of a graph in one attribute order.
///
/// Internally an `Arc`-shared immutable **main** part plus an optional
/// **delta** overlay (see [`crate::delta`]): inserted rows as a small trie
/// and tombstoned main positions. Plain accessors (`len`, ranges,
/// `locate`, `to_rows`, `iter_l0`) address the main part only; the
/// `*_live` family (`live_len`, `range1_live`, `locate_live`,
/// [`crate::LiveRange`], …) sees the merged logical trie. `row`,
/// `row_from` and `triple` dispatch on the *logical* position space —
/// positions `>= len()` address delta rows.
#[derive(Debug, Clone)]
pub struct TrieIndex {
    core: Arc<IndexCore>,
    delta: Option<Arc<DeltaPart>>,
}

impl TrieIndex {
    /// Build the index for `order` over a set of triples.
    pub fn build(order: IndexOrder, triples: &[Triple]) -> Self {
        let mut rows: Vec<[u32; 3]> = triples.iter().map(|t| order.permute(*t)).collect();
        rows.sort_unstable();
        // Input triples are deduplicated, and permutation is injective, so
        // rows are distinct; no dedup needed.
        Self::from_sorted_rows(order, rows)
    }

    /// Build from rows already sorted in this order's layout (used by the
    /// incremental merge path) — one linear pass into the level arrays
    /// (which debug-assert sortedness).
    pub fn from_sorted_rows(order: IndexOrder, rows: Vec<[u32; 3]>) -> Self {
        let trie = ColumnarTrie::from_sorted_rows(&rows);
        TrieIndex {
            core: Arc::new(IndexCore { order, len: rows.len() as u32, trie }),
            delta: None,
        }
    }

    /// The delta overlay, if any (crate-internal; the public live API
    /// lives in [`crate::delta`]).
    #[inline]
    pub(crate) fn delta_part(&self) -> Option<&DeltaPart> {
        self.delta.as_deref()
    }

    /// Attach a delta overlay, sharing this index's main part. Callers go
    /// through [`TrieIndex::with_delta`], which normalizes the overlay.
    pub(crate) fn attach_delta(&self, part: DeltaPart) -> TrieIndex {
        TrieIndex { core: Arc::clone(&self.core), delta: Some(Arc::new(part)) }
    }

    /// Drop the delta overlay, exposing the shared main part only.
    pub fn main_only(&self) -> TrieIndex {
        TrieIndex { core: Arc::clone(&self.core), delta: None }
    }

    /// The attribute order of this index.
    #[inline]
    pub fn order(&self) -> IndexOrder {
        self.core.order
    }

    /// Crate-internal access to the main part's level arrays, for cursors
    /// and tests.
    #[inline]
    pub(crate) fn trie(&self) -> &ColumnarTrie {
        &self.core.trie
    }

    /// Materialize all rows in the sorted, permuted layout (used by the
    /// incremental merge path and tests; O(n)).
    pub fn to_rows(&self) -> Vec<[u32; 3]> {
        (0..self.core.len).map(|pos| self.core.trie.row(pos)).collect()
    }

    /// Total number of triples.
    #[inline]
    pub fn len(&self) -> usize {
        self.core.len as usize
    }

    /// True if the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.core.len == 0
    }

    /// The range of all rows.
    #[inline]
    pub fn full_range(&self) -> RowRange {
        RowRange { start: 0, end: self.core.len }
    }

    /// The range of rows whose first attribute equals `a`: one level-0
    /// point lookup, O(1) through the rank directory (a binary search only
    /// for keys past its last block).
    #[inline]
    pub fn range1(&self, a: u32) -> RowRange {
        let t = &self.core.trie;
        t.find0(a).map_or(RowRange::EMPTY, |n| t.l0_leaf_range(n))
    }

    /// The range of rows whose first two attributes equal `(a, b)`: a
    /// level-0 lookup, then a level-1 lookup inside that node's child
    /// window (never consulted when `a` is absent).
    #[inline]
    pub fn range2(&self, a: u32, b: u32) -> RowRange {
        let t = &self.core.trie;
        let node = t.find0(a).and_then(|n| t.find1(n, b));
        node.map_or(RowRange::EMPTY, |j| t.l1_leaf_range(j))
    }

    /// Position of the row `(a, b, c)` (in this order's layout), if
    /// present: the `(a, b)` prefix range, then a binary search over its
    /// contiguous level-2 keys.
    pub fn locate(&self, a: u32, b: u32, c: u32) -> Option<u32> {
        let r = self.range2(a, b);
        Some(r.start + self.core.trie.l2_slice(r).binary_search(&c).ok()? as u32)
    }

    /// True if the *live* row `(a, b, c)` (in this order's layout)
    /// exists: a tombstoned main row does not count, a delta insert does.
    /// Identical to a plain main lookup when there is no overlay.
    #[inline]
    pub fn contains_row(&self, a: u32, b: u32, c: u32) -> bool {
        self.locate_live(a, b, c).is_some()
    }

    /// The row at a given *logical* position: positions below `len()`
    /// address main rows, positions at or above it address delta inserts.
    #[inline]
    pub fn row(&self, pos: u32) -> [u32; 3] {
        if pos < self.core.len {
            self.core.trie.row(pos)
        } else {
            let d = self.delta.as_deref().expect("position beyond main without a delta");
            d.adds.row(pos - self.core.len)
        }
    }

    /// The row at `pos`, with only the attributes at levels `>= from`
    /// guaranteed valid (earlier slots may be zero). The hot extraction
    /// path: a caller that resolved a 2-value prefix needs one `u32` load
    /// instead of a 12-byte row.
    #[inline]
    pub fn row_from(&self, pos: u32, from: usize) -> [u32; 3] {
        if pos < self.core.len {
            self.core.trie.row_from(pos, from)
        } else {
            let d = self.delta.as_deref().expect("position beyond main without a delta");
            d.adds.row_from(pos - self.core.len, from)
        }
    }

    /// The row at a given position, decoded back into a [`Triple`].
    #[inline]
    pub fn triple(&self, pos: u32) -> Triple {
        self.core.order.unpermute(self.row(pos))
    }

    /// Number of distinct level-0 values.
    #[inline]
    pub fn distinct_l0(&self) -> usize {
        self.core.trie.l0_len()
    }

    /// Number of distinct level-1 values under level-0 value `a` (e.g.
    /// for PSO: distinct subjects per predicate) — the width of the node's
    /// child window. Feeds the PostgreSQL-style join-size estimates that
    /// drive the tipping point.
    #[inline]
    pub fn children_of(&self, a: u32) -> u32 {
        let t = &self.core.trie;
        t.find0(a).map_or(0, |n| {
            let (lo, hi) = t.l0_children(n);
            hi - lo
        })
    }

    /// Iterate over all distinct level-0 values with their ranges, in
    /// sorted order of the value.
    pub fn iter_l0(&self) -> impl Iterator<Item = (u32, RowRange)> + '_ {
        let t = &self.core.trie;
        (0..self.distinct_l0() as u32).map(move |n| (t.key0(n), t.l0_leaf_range(n)))
    }

    /// Heap memory held by this index, in bytes: the level arrays plus any
    /// delta overlay (its adds trie and tombstone array), each counted by
    /// capacity. The basis of `kgbench`'s `index.bytes_per_triple`.
    pub fn memory_bytes(&self) -> usize {
        let delta = self.delta.as_deref().map_or(0, |d| {
            d.adds.memory_bytes() + d.tomb.capacity() * std::mem::size_of::<u32>()
        });
        self.core.trie.memory_bytes() + delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::from([s, p, o])
    }

    fn sample_triples() -> Vec<Triple> {
        vec![t(1, 10, 100), t(1, 10, 101), t(1, 11, 100), t(2, 10, 100), t(3, 12, 103)]
    }

    #[test]
    fn build_sorts_rows() {
        let idx = TrieIndex::build(IndexOrder::Pos, &sample_triples());
        assert!(idx.to_rows().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn rows_materialize_the_sorted_permuted_triples() {
        for order in IndexOrder::ALL {
            let idx = TrieIndex::build(order, &sample_triples());
            let mut expect: Vec<[u32; 3]> =
                sample_triples().iter().map(|t| order.permute(*t)).collect();
            expect.sort_unstable();
            assert_eq!(idx.to_rows(), expect, "order {order}");
            for (pos, row) in expect.iter().enumerate() {
                assert_eq!(idx.row(pos as u32), *row, "order {order} pos {pos}");
            }
        }
    }

    #[test]
    fn range1_and_range2() {
        let idx = TrieIndex::build(IndexOrder::Spo, &sample_triples());
        assert_eq!(idx.range1(1).len(), 3);
        assert_eq!(idx.range1(2).len(), 1);
        assert_eq!(idx.range1(99).len(), 0);
        assert_eq!(idx.range2(1, 10).len(), 2);
        assert_eq!(idx.range2(1, 11).len(), 1);
        assert_eq!(idx.range2(1, 99).len(), 0);
    }

    #[test]
    fn contains_row_checks_third_level() {
        let idx = TrieIndex::build(IndexOrder::Spo, &sample_triples());
        assert!(idx.contains_row(1, 10, 101));
        assert!(!idx.contains_row(1, 10, 102));
        assert!(!idx.contains_row(9, 9, 9));
    }

    #[test]
    fn contains_row_agrees_with_naive_scan() {
        // `contains` must agree with a naive scan over every probe in a
        // dense id cube.
        let triples = sample_triples();
        let idx = TrieIndex::build(IndexOrder::Spo, &triples);
        let rows = idx.to_rows();
        for a in 0..5u32 {
            for b in 9..13u32 {
                for c in 99..106u32 {
                    let naive = rows.contains(&[a, b, c]);
                    assert_eq!(idx.contains_row(a, b, c), naive, "probe ({a},{b},{c})");
                    let located = idx.locate(a, b, c);
                    assert_eq!(located.is_some(), naive);
                    if let Some(pos) = located {
                        assert_eq!(idx.row(pos), [a, b, c]);
                    }
                }
            }
        }
    }

    /// `k - 1`, `k`, `k + 1` around every key, plus the domain extremes.
    fn probes_around(keys: impl Iterator<Item = u32>) -> Vec<u32> {
        let mut out = vec![0, 1, u32::MAX - 1, u32::MAX];
        for k in keys {
            out.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn point_lookups_agree_with_naive_scan_at_the_edges() {
        // Gapped keys (2i + 1), so every key has an absent neighbour on
        // both sides and "between two keys" is always probed.
        let l0_of = |n: u32| (0..n).map(|i| [2 * i + 1, 7, 7]).collect::<Vec<_>>();
        // Level-0 keys exactly `keys`, for the rank directory's cases.
        let keyed = |keys: &[u32]| keys.iter().map(|&k| [k, 7, 7]).collect::<Vec<_>>();
        let table: Vec<(&str, Vec<[u32; 3]>)> = vec![
            ("empty", vec![]),
            ("one triple", vec![[5, 6, 7]]),
            ("one triple at u32::MAX", vec![[u32::MAX; 3]]),
            ("single key 0", keyed(&[0])),
            ("keys at the 64-id block edges", keyed(&[63, 64, 65, 127, 128])),
            ("dense run 0..1000", keyed(&(0..1000).collect::<Vec<_>>())),
            ("keys more than 64 apart", keyed(&(0..40).map(|i| i * 97 + 5).collect::<Vec<_>>())),
            ("keys past the directory cap", keyed(&[0, 1_000_000, u32::MAX])),
            ("gaps", vec![[10, 1, 1], [10, 3, 1], [10, 3, 2], [20, 5, 1], [30, 1, 9]]),
            ("128 level-0 keys", l0_of(128)),
            ("129 level-0 keys", l0_of(129)),
            (
                "level-1 windows of 128 and 129 keys",
                (0..128)
                    .map(|j| [1, 2 * j + 1, 9])
                    .chain((0..=128).map(|j| [3, 2 * j + 1, 9]))
                    .collect(),
            ),
        ];
        // A scanned `lo..hi` as the range the index must return.
        let range_of = |lo: usize, hi: usize| {
            if lo < hi {
                RowRange { start: lo as u32, end: hi as u32 }
            } else {
                RowRange::EMPTY
            }
        };
        for (name, rows) in &table {
            let triples: Vec<Triple> = rows.iter().copied().map(Triple::from).collect();
            // Overlay: tombstone every third main row (the first included),
            // add a row under an existing 2-prefix, a new level-1 key under
            // an existing level-0 key, and new level-0 keys at both ends.
            let deletes: Vec<Triple> = triples.iter().step_by(3).copied().collect();
            let mut inserts = vec![t(0, 0, 0), t(u32::MAX, 1, 1)];
            if let Some(&[a, b, c]) = rows.last() {
                inserts.extend([t(a, b, c.wrapping_add(1)), t(a, b.wrapping_add(1), c)]);
            }
            let main = TrieIndex::build(IndexOrder::Spo, &triples);
            for idx in [main.clone(), main.with_delta(&inserts, &deletes)] {
                let ctx = format!("{name} / delta={}", idx.has_delta());
                // The main part against a naive scan of its own rows:
                // exact ranges, node ids and child counts.
                let base = idx.to_rows();
                let mut l0: Vec<u32> = base.iter().map(|r| r[0]).collect();
                l0.dedup();
                assert_eq!(idx.distinct_l0(), l0.len(), "{ctx}");
                for a in probes_around(l0.iter().copied()) {
                    let lo = base.partition_point(|r| r[0] < a);
                    let hi = base.partition_point(|r| r[0] <= a);
                    assert_eq!(idx.range1(a), range_of(lo, hi), "{ctx}: range1({a})");
                    let node = l0.binary_search(&a).ok().map(|i| i as u32);
                    assert_eq!(idx.trie().find0(a), node, "{ctx}: find0({a})");
                    let mut l1: Vec<u32> = base[lo..hi].iter().map(|r| r[1]).collect();
                    l1.dedup();
                    assert_eq!(idx.children_of(a) as usize, l1.len(), "{ctx}: children_of({a})");
                    for b in probes_around(l1.iter().copied()) {
                        let lo2 = base.partition_point(|r| (r[0], r[1]) < (a, b));
                        let hi2 = base.partition_point(|r| (r[0], r[1]) <= (a, b));
                        assert_eq!(idx.range2(a, b), range_of(lo2, hi2), "{ctx}: range2({a},{b})");
                        if let Some(n) = node {
                            let found = idx.trie().find1(n, b);
                            assert_eq!(found.is_some(), lo2 < hi2, "{ctx}: find1({n},{b})");
                        }
                        for c in [0, 1, 7, 9, 10, u32::MAX] {
                            let pos = base.binary_search(&[a, b, c]).ok().map(|p| p as u32);
                            assert_eq!(idx.locate(a, b, c), pos, "{ctx}: locate({a},{b},{c})");
                        }
                    }
                }
                // The logical trie against a naive scan of its live rows.
                let live = idx.to_rows_live();
                let rows_of = |r: crate::LiveRange| {
                    let mut got: Vec<[u32; 3]> = idx.positions(r).map(|p| idx.row(p)).collect();
                    got.sort_unstable();
                    got
                };
                for a in probes_around(live.iter().map(|r| r[0])) {
                    let naive: Vec<[u32; 3]> =
                        live.iter().filter(|r| r[0] == a).copied().collect();
                    assert_eq!(rows_of(idx.range1_live(a)), naive, "{ctx}: range1_live({a})");
                    for b in probes_around(naive.iter().map(|r| r[1])) {
                        let naive2: Vec<[u32; 3]> =
                            naive.iter().filter(|r| r[1] == b).copied().collect();
                        let got = idx.range2_live(a, b);
                        assert_eq!(rows_of(got), naive2, "{ctx}: range2_live({a},{b})");
                        for c in [0, 1, 7, 9, 10, u32::MAX] {
                            assert_eq!(
                                idx.contains_row(a, b, c),
                                naive2.contains(&[a, b, c]),
                                "{ctx}: contains_row({a},{b},{c})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rank_directory_is_bounded_by_the_data() {
        // An uncapped directory over ids 0..=u32::MAX would be 1 GiB.
        let idx = TrieIndex::build(IndexOrder::Spo, &[t(u32::MAX, u32::MAX, u32::MAX)]);
        assert!(idx.memory_bytes() <= 1024, "{} bytes", idx.memory_bytes());
        assert_eq!(idx.range1(u32::MAX).len(), 1);
    }

    #[test]
    fn triple_decoding_roundtrips() {
        for order in IndexOrder::ALL {
            let idx = TrieIndex::build(order, &sample_triples());
            let mut decoded: Vec<Triple> = (0..idx.len() as u32).map(|i| idx.triple(i)).collect();
            decoded.sort_unstable();
            let mut expected = sample_triples();
            expected.sort_unstable();
            assert_eq!(decoded, expected, "order {order}");
        }
    }

    #[test]
    fn children_counts() {
        let idx = TrieIndex::build(IndexOrder::Pso, &sample_triples());
        assert_eq!(idx.children_of(10), 2); // p=10 has subjects {1, 2}
        assert_eq!(idx.children_of(11), 1);
        assert_eq!(idx.children_of(99), 0);
        assert_eq!(idx.distinct_l0(), 3); // predicates {10, 11, 12}
    }

    #[test]
    fn l0_iteration_in_sorted_order() {
        let idx = TrieIndex::build(IndexOrder::Pso, &sample_triples());
        let keys: Vec<u32> = idx.iter_l0().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![10, 11, 12]);
        let total: usize = idx.iter_l0().map(|(_, r)| r.len()).sum();
        assert_eq!(total, idx.len());
    }

    #[test]
    fn empty_index() {
        let idx = TrieIndex::build(IndexOrder::Spo, &[]);
        assert!(idx.is_empty());
        assert_eq!(idx.full_range().len(), 0);
        assert_eq!(idx.distinct_l0(), 0);
        assert!(idx.iter_l0().next().is_none());
    }

    #[test]
    fn layout_name_is_csr() {
        assert_eq!(Layout::Csr.name(), "csr");
    }

    #[test]
    fn row_range_helpers() {
        let r = RowRange { start: 3, end: 7 };
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.as_usize(), 3..7);
        assert!(RowRange::EMPTY.is_empty());
    }
}
