//! Delta overlay over an immutable main index — the MVCC building block.
//!
//! A [`TrieIndex`] is internally an `Arc`-shared immutable *main* part plus
//! an optional small `DeltaPart`: a trie of inserted rows (`adds`) and a
//! sorted array of tombstoned main row positions (`tomb`). Epoch snapshots
//! clone the index in O(1) (two `Arc` bumps); writers publish a new epoch
//! by attaching a fresh overlay to the same main, and a background merge
//! periodically folds the overlay into a new main.
//!
//! **Logical position space.** Positions `0..main_len` address main rows
//! (including tombstoned ones — they are simply never *yielded*);
//! positions `main_len..` address rows of the `adds` trie, offset by
//! `main_len`. [`TrieIndex::row`], [`TrieIndex::row_from`] and
//! [`TrieIndex::triple`] dispatch on this space, so a walk plan's
//! extraction path works unchanged on sampled live positions.
//!
//! **Live ranges.** Prefix lookups return a [`LiveRange`]: the main
//! range, the matching adds range (each resolved by the trie's own point
//! lookups), and the number of tombstones inside the main range. `len` is
//! exact in O(1) once resolved (given the two `partition_point` calls
//! that computed `dead`), which is what Wander/Audit Join weights and the
//! CTJ suffix collapse rely on. Uniform sampling over a live range costs
//! O(log |tomb|)
//! (rank-select over the tombstone array) instead of O(1) — the price of
//! reading one consistent snapshot while writers append.

use kgoa_rdf::Triple;

use crate::store::{RowRange, TrieIndex};

/// The mutable overlay of a [`TrieIndex`]: inserted rows as a small CSR
/// trie in the same attribute order, plus tombstoned main positions.
#[derive(Debug)]
pub(crate) struct DeltaPart {
    /// Inserted rows not present in main, indexed like the main trie.
    pub(crate) adds: TrieIndex,
    /// Sorted, distinct main row positions that are deleted.
    pub(crate) tomb: Vec<u32>,
}

/// Number of tombstones strictly below `p`.
#[inline]
pub(crate) fn tomb_rank(tomb: &[u32], p: u32) -> u32 {
    tomb.partition_point(|&t| t < p) as u32
}

/// Number of tombstones falling inside `r`.
#[inline]
pub(crate) fn tombs_within(tomb: &[u32], r: RowRange) -> u32 {
    tomb_rank(tomb, r.end) - tomb_rank(tomb, r.start)
}

/// A prefix range of the *logical* (main ∪ adds ∖ tombstones) trie.
///
/// `main` and `delta` are the matching contiguous ranges of the main index
/// and the adds trie respectively (`delta` is in adds-local positions —
/// add `main_len` to obtain logical positions); `dead` counts tombstones
/// inside `main`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRange {
    /// Matching range of main rows (may contain tombstoned positions).
    pub main: RowRange,
    /// Matching range of the adds trie, in adds-local positions.
    pub delta: RowRange,
    /// Number of tombstoned positions inside `main`.
    pub dead: u32,
}

impl LiveRange {
    /// The empty live range.
    pub const EMPTY: LiveRange =
        LiveRange { main: RowRange::EMPTY, delta: RowRange::EMPTY, dead: 0 };

    /// A live range over a plain main range (no overlay).
    #[inline]
    pub fn solid(main: RowRange) -> LiveRange {
        LiveRange { main, delta: RowRange::EMPTY, dead: 0 }
    }

    /// Number of live rows.
    #[inline]
    pub fn len(self) -> usize {
        self.main.len() - self.dead as usize + self.delta.len()
    }

    /// True if no live rows.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Number of live rows contributed by the main part.
    #[inline]
    pub(crate) fn live_main(self) -> u32 {
        (self.main.len() - self.dead as usize) as u32
    }
}

/// Iterator over the logical positions of a [`LiveRange`]: live main
/// positions in order, then adds positions offset by `main_len`.
pub struct LivePositions<'a> {
    tomb: &'a [u32],
    /// Index of the next tombstone candidate in `tomb`.
    ti: usize,
    cur: u32,
    main_end: u32,
    delta_cur: u32,
    delta_end: u32,
    main_len: u32,
}

impl Iterator for LivePositions<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.cur < self.main_end {
            let p = self.cur;
            self.cur += 1;
            // Tombstones are sorted: advance the pointer past stale ones.
            while self.ti < self.tomb.len() && self.tomb[self.ti] < p {
                self.ti += 1;
            }
            if self.ti < self.tomb.len() && self.tomb[self.ti] == p {
                self.ti += 1;
                continue; // dead row
            }
            return Some(p);
        }
        if self.delta_cur < self.delta_end {
            let p = self.delta_cur;
            self.delta_cur += 1;
            return Some(self.main_len + p);
        }
        None
    }
}

impl TrieIndex {
    /// True if this index carries a delta overlay.
    #[inline]
    pub fn has_delta(&self) -> bool {
        self.delta_part().is_some()
    }

    /// Overlay size: inserted rows + tombstones (the ingest-pressure
    /// signal driving merge scheduling and supervisor shedding).
    pub fn delta_rows(&self) -> usize {
        self.delta_part().map_or(0, |d| d.adds.len() + d.tomb.len())
    }

    /// Number of *live* rows: main minus tombstones plus adds.
    pub fn live_len(&self) -> usize {
        match self.delta_part() {
            None => self.len(),
            Some(d) => self.len() - d.tomb.len() + d.adds.len(),
        }
    }

    /// True if the main position `pos` is tombstoned.
    #[inline]
    pub(crate) fn is_tombstoned(&self, pos: u32) -> bool {
        self.delta_part().is_some_and(|d| d.tomb.binary_search(&pos).is_ok())
    }

    /// Attach a delta overlay to a delta-free index, sharing the main part.
    ///
    /// `inserts` already present in main are dropped; `deletes` absent from
    /// main are ignored (a delete of a pending insert must be cancelled by
    /// the caller *before* building the overlay — the epoch manager's
    /// cumulative bookkeeping does exactly that).
    pub(crate) fn with_delta(&self, inserts: &[Triple], deletes: &[Triple]) -> TrieIndex {
        assert!(!self.has_delta(), "with_delta() on an index that already has one");
        let order = self.order();
        let mut add_rows: Vec<[u32; 3]> =
            inserts.iter().map(|t| order.permute(*t)).collect();
        add_rows.sort_unstable();
        add_rows.dedup();
        add_rows.retain(|r| self.locate(r[0], r[1], r[2]).is_none());
        let adds = TrieIndex::from_sorted_rows(order, add_rows);
        let mut tomb: Vec<u32> = deletes
            .iter()
            .filter_map(|t| {
                let r = order.permute(*t);
                self.locate(r[0], r[1], r[2])
            })
            .collect();
        tomb.sort_unstable();
        tomb.dedup();
        self.attach_delta(DeltaPart { adds, tomb })
    }

    /// The live range of all rows.
    pub fn full_live(&self) -> LiveRange {
        match self.delta_part() {
            None => LiveRange::solid(self.full_range()),
            Some(d) => LiveRange {
                main: self.full_range(),
                delta: d.adds.full_range(),
                dead: d.tomb.len() as u32,
            },
        }
    }

    /// Live range of rows whose first attribute equals `a`.
    pub fn range1_live(&self, a: u32) -> LiveRange {
        let main = self.range1(a);
        match self.delta_part() {
            None => LiveRange::solid(main),
            Some(d) => LiveRange {
                main,
                delta: d.adds.range1(a),
                dead: tombs_within(&d.tomb, main),
            },
        }
    }

    /// Live range of rows whose first two attributes equal `(a, b)`.
    pub fn range2_live(&self, a: u32, b: u32) -> LiveRange {
        let main = self.range2(a, b);
        match self.delta_part() {
            None => LiveRange::solid(main),
            Some(d) => LiveRange {
                main,
                delta: d.adds.range2(a, b),
                dead: tombs_within(&d.tomb, main),
            },
        }
    }

    /// Logical position of the live row `(a, b, c)`, if present: a main
    /// position when the row lives in main, `main_len + p` when it lives
    /// in the adds trie.
    pub fn locate_live(&self, a: u32, b: u32, c: u32) -> Option<u32> {
        if let Some(p) = self.locate(a, b, c) {
            return (!self.is_tombstoned(p)).then_some(p);
        }
        let d = self.delta_part()?;
        d.adds.locate(a, b, c).map(|p| self.len() as u32 + p)
    }

    /// Iterate the logical positions of a live range: live main positions
    /// in order, then adds positions offset by `main_len`. Yields exactly
    /// `r.len()` positions.
    pub fn positions(&self, r: LiveRange) -> LivePositions<'_> {
        let (tomb, delta_ok): (&[u32], bool) = match self.delta_part() {
            None => (&[], false),
            Some(d) => (&d.tomb, true),
        };
        debug_assert!(delta_ok || r.delta.is_empty(), "delta range without overlay");
        LivePositions {
            tomb,
            ti: tomb.partition_point(|&t| t < r.main.start),
            cur: r.main.start,
            main_end: r.main.end,
            delta_cur: r.delta.start,
            delta_end: r.delta.end,
            main_len: self.len() as u32,
        }
    }

    /// The `k`-th (0-based) non-tombstoned position of a main range, found
    /// by binary rank-select over the tombstone array.
    fn nth_live_main(&self, main: RowRange, k: u32) -> u32 {
        let Some(d) = self.delta_part() else { return main.start + k };
        let rank_start = tomb_rank(&d.tomb, main.start);
        // live_before(p) = (p - start) - (rank(p) - rank_start); find the
        // smallest p with live_before(p + 1) > k — that p is live and has
        // exactly k live positions before it.
        let live_before = |p: u32| (p - main.start) - (tomb_rank(&d.tomb, p) - rank_start);
        let (mut lo, mut hi) = (main.start, main.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if live_before(mid + 1) > k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        debug_assert!(lo < main.end, "k out of range");
        lo
    }

    /// Map one pre-drawn uniform `u64` onto a logical position of a
    /// (non-empty) live range — the keyed twin of the test oracle
    /// `TrieIndex::pick_live`, consuming exactly the raw word that
    /// `pick_live` would have drawn so a batched sampler reproduces the
    /// per-walk RNG stream bit-for-bit. Callers handle empty ranges (and
    /// the draw metric) themselves.
    #[inline]
    pub fn pick_live_keyed(&self, r: LiveRange, raw: u64) -> u32 {
        if !self.has_delta() {
            return r.main.pick_keyed(raw);
        }
        let n = r.len() as u32;
        debug_assert!(n > 0, "pick_live_keyed on empty range");
        let k = ((raw as u128 * n as u128) >> 64) as u32;
        let live_main = r.live_main();
        if k < live_main {
            self.nth_live_main(r.main, k)
        } else {
            self.len() as u32 + r.delta.start + (k - live_main)
        }
    }

    /// Uniformly sample a logical position from a live range. Identical to
    /// [`RowRange::pick`] (same RNG draw sequence) when the index carries
    /// no overlay; O(log |tomb|) rank-select otherwise. The test oracle
    /// for [`TrieIndex::pick_live_keyed`].
    #[cfg(test)]
    fn pick_live<R: rand::Rng + ?Sized>(&self, r: LiveRange, rng: &mut R) -> Option<u32> {
        if r.is_empty() {
            return None;
        }
        Some(self.pick_live_keyed(r, rng.next_u64()))
    }

    /// Materialize all *live* rows, sorted (main ∖ tombstones merged with
    /// adds). Equals [`TrieIndex::to_rows`] when there is no overlay.
    pub fn to_rows_live(&self) -> Vec<[u32; 3]> {
        let Some(d) = self.delta_part() else { return self.to_rows() };
        let add_rows = d.adds.to_rows();
        let mut out = Vec::with_capacity(self.live_len());
        let mut a = 0usize;
        let mut ti = 0usize;
        for pos in 0..self.len() as u32 {
            if ti < d.tomb.len() && d.tomb[ti] == pos {
                ti += 1;
                continue;
            }
            let row = self.row(pos);
            while a < add_rows.len() && add_rows[a] < row {
                out.push(add_rows[a]);
                a += 1;
            }
            out.push(row);
        }
        out.extend_from_slice(&add_rows[a..]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::IndexOrder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::from([s, p, o])
    }

    fn base() -> Vec<Triple> {
        vec![t(1, 10, 100), t(1, 10, 101), t(1, 11, 100), t(2, 10, 100), t(3, 12, 103)]
    }

    /// Overlay: delete (1,10,101) and (3,12,103); insert (1,10,99) and
    /// (4,13,104).
    fn overlaid() -> TrieIndex {
        let idx = TrieIndex::build(IndexOrder::Spo, &base());
        idx.with_delta(&[t(1, 10, 99), t(4, 13, 104)], &[t(1, 10, 101), t(3, 12, 103)])
    }

    fn live_rows(idx: &TrieIndex, r: LiveRange) -> Vec<[u32; 3]> {
        idx.positions(r).map(|p| idx.row(p)).collect()
    }

    #[test]
    fn live_lengths_and_ranges() {
        let idx = overlaid();
        assert_eq!(idx.len(), 5, "main untouched");
        assert_eq!(idx.live_len(), 5, "-2 +2");
        assert_eq!(idx.delta_rows(), 4);
        assert_eq!(idx.full_live().len(), 5);
        assert_eq!(idx.range1_live(1).len(), 3); // lost 101, gained 99
        assert_eq!(idx.range2_live(1, 10).len(), 2);
        assert_eq!(idx.range1_live(3).len(), 0); // fully tombstoned
        assert_eq!(idx.range1_live(4).len(), 1); // pure delta
        assert_eq!(idx.range2_live(4, 13).len(), 1);
    }

    #[test]
    fn positions_yield_live_rows() {
        let idx = overlaid();
        let mut rows = live_rows(&idx, idx.full_live());
        rows.sort_unstable();
        assert_eq!(
            rows,
            vec![[1, 10, 99], [1, 10, 100], [1, 11, 100], [2, 10, 100], [4, 13, 104]]
        );
        assert_eq!(live_rows(&idx, idx.range1_live(3)), Vec::<[u32; 3]>::new());
        assert_eq!(idx.to_rows_live(), rows, "to_rows_live sorted");
    }

    #[test]
    fn locate_live_and_contains() {
        let idx = overlaid();
        // Main survivor.
        let p = idx.locate_live(1, 10, 100).unwrap();
        assert_eq!(idx.row(p), [1, 10, 100]);
        // Tombstoned.
        assert_eq!(idx.locate_live(1, 10, 101), None);
        assert!(!idx.contains_row(1, 10, 101));
        // Delta insert: logical position beyond main, row() dispatches.
        let p = idx.locate_live(4, 13, 104).unwrap();
        assert!(p >= idx.len() as u32);
        assert_eq!(idx.row(p), [4, 13, 104]);
        assert_eq!(idx.row_from(p, 2)[2], 104);
        assert!(idx.contains_row(4, 13, 104));
        assert_eq!(idx.triple(p), t(4, 13, 104));
        // Never existed.
        assert_eq!(idx.locate_live(9, 9, 9), None);
    }

    #[test]
    fn pick_live_covers_all_live_rows_and_only_those() {
        let idx = overlaid();
        let r = idx.full_live();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let p = idx.pick_live(r, &mut rng).unwrap();
            seen.insert(idx.row(p));
        }
        let expect: std::collections::BTreeSet<[u32; 3]> =
            idx.to_rows_live().into_iter().collect();
        assert_eq!(seen, expect);
        // Empty range.
        assert_eq!(idx.pick_live(idx.range1_live(3), &mut rng), None);
    }

    #[test]
    fn pick_live_without_overlay_matches_row_range_pick() {
        let idx = TrieIndex::build(IndexOrder::Spo, &base());
        let r = idx.full_live();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(idx.pick_live(r, &mut a), idx.full_range().pick(&mut b));
        }
    }

    #[test]
    fn pick_live_keyed_matches_pick_live_stream() {
        use rand::RngCore;
        // Pre-drawing the raw word and feeding it to the keyed picker must
        // reproduce pick_live exactly — on both the solid fast path and
        // the overlay rank-select path.
        for idx in [TrieIndex::build(IndexOrder::Spo, &base()), overlaid()] {
            for r in [idx.full_live(), idx.range1_live(1), idx.range2_live(1, 10)] {
                if r.is_empty() {
                    continue;
                }
                let mut a = SmallRng::seed_from_u64(31);
                let mut b = SmallRng::seed_from_u64(31);
                for _ in 0..200 {
                    let keyed = idx.pick_live_keyed(r, a.next_u64());
                    assert_eq!(Some(keyed), idx.pick_live(r, &mut b), "delta={}", idx.has_delta());
                }
            }
        }
    }

    #[test]
    fn with_delta_drops_duplicate_inserts_and_missing_deletes() {
        let idx = TrieIndex::build(IndexOrder::Spo, &base());
        let d = idx.with_delta(
            &[t(1, 10, 100), t(1, 10, 100), t(5, 5, 5), t(5, 5, 5)],
            &[t(9, 9, 9)],
        );
        assert_eq!(d.delta_rows(), 1, "one real insert survives");
        assert_eq!(d.live_len(), 6);
    }

    #[test]
    fn overlay_on_all_orders_agrees_with_rebuild() {
        let inserts = [t(1, 10, 99), t(4, 13, 104)];
        let deletes = [t(1, 10, 101), t(3, 12, 103)];
        let mut expect: Vec<Triple> = base()
            .into_iter()
            .filter(|x| !deletes.contains(x))
            .chain(inserts.iter().copied())
            .collect();
        expect.sort_unstable();
        for order in IndexOrder::ALL {
            let idx = TrieIndex::build(order, &base()).with_delta(&inserts, &deletes);
            let rebuilt = TrieIndex::build(order, &expect);
            assert_eq!(idx.to_rows_live(), rebuilt.to_rows(), "order {order}");
        }
    }
}
