//! Trie iterators over [`TrieIndex`] ranges — the access interface required
//! by LeapFrog Trie Join (Veldhuizen 2014).
//!
//! Levels are node windows over the CSR trie's contiguous per-level key
//! arrays, so `next_key` is `node + 1` and a run is an
//! `offsets[i]..offsets[i+1]` lookup. Seeks gallop: a short linear scan
//! (LFTJ seeks usually land nearby), then exponential probing, then
//! binary search — see `gallop_lower_bound`. An index with a delta
//! overlay gets a merged cursor over main and adds.

use crate::columnar::{gallop_lower_bound, ColumnarTrie};
pub use crate::columnar::SeekOutcome;
use crate::delta::tombs_within;
use crate::store::{RowRange, TrieIndex};

/// One opened trie level of a CSR cursor: a cached window of node ids in
/// the level's key array. Distinct keys per node, so no run tracking.
#[derive(Debug, Clone, Copy)]
struct CsrLevel {
    /// Current node id (== `hi` when exhausted).
    cur: u32,
    /// One past the last node id of the parent's window.
    hi: u32,
}

/// A cursor implementing the LFTJ `TrieIterator` interface (`open`, `up`,
/// `key`, `next`, `seek`, `at_end`) over a contiguous row range of a
/// [`TrieIndex`].
///
/// The cursor may start below the trie root: a pattern with leading
/// constants resolves the constants to a [`RowRange`] via
/// [`TrieIndex::range1`] / [`TrieIndex::range2`] and then exposes only the
/// remaining levels. `prefix_len` is
/// the number of attributes already fixed by that prefix.
#[derive(Debug, Clone)]
pub struct TrieCursor<'a> {
    repr: Repr<'a>,
    prefix_len: usize,
}

#[derive(Debug, Clone)]
enum Repr<'a> {
    Csr(CsrCursor<'a>),
    /// Overlay view: a main-side cursor merged with a cursor over the
    /// delta's adds trie, with tombstoned main subtrees skipped.
    Merged(Box<MergedCursor<'a>>),
}

impl<'a> TrieCursor<'a> {
    /// Create a cursor over `base` within `index`, with `prefix_len`
    /// attributes already fixed (0 ⇒ the full trie, 2 ⇒ only the last
    /// attribute remains).
    ///
    /// `base` is **main-positional**: this constructor exposes the main
    /// part only, even when the index carries a delta overlay. Use
    /// [`TrieCursor::over_index`] for the merged logical view.
    pub fn new(index: &'a TrieIndex, base: RowRange, prefix_len: usize) -> Self {
        assert!(prefix_len <= 2, "prefix_len {prefix_len} out of range");
        let repr = Repr::Csr(CsrCursor {
            csr: index.trie(),
            base,
            prefix_len,
            levels: Vec::with_capacity(3),
        });
        TrieCursor { repr, prefix_len }
    }

    /// Cursor over the full *logical* index: when the index carries a
    /// delta overlay, main and adds are merged at the key level and
    /// tombstoned subtrees are skipped, so LFTJ sees one trie.
    pub fn over_index(index: &'a TrieIndex) -> Self {
        match index.delta_part() {
            None => Self::new(index, index.full_range(), 0),
            Some(d) => TrieCursor {
                repr: Repr::Merged(Box::new(MergedCursor {
                    main: TrieCursor::new(index, index.full_range(), 0),
                    adds: TrieCursor::over_index(&d.adds),
                    tomb: &d.tomb,
                    levels: Vec::with_capacity(3),
                })),
                prefix_len: 0,
            },
        }
    }

    /// Number of levels this cursor can expose.
    #[inline]
    pub(crate) fn max_depth(&self) -> usize {
        3 - self.prefix_len
    }

    /// Current depth (number of opened levels).
    #[inline]
    pub fn depth(&self) -> usize {
        match &self.repr {
            Repr::Csr(c) => c.levels.len(),
            Repr::Merged(c) => c.levels.len(),
        }
    }

    /// Descend one level, positioning at the first key of the child range.
    ///
    /// Panics if already at maximum depth or if the current level is at its
    /// end (there is no child range to descend into).
    pub fn open(&mut self) {
        assert!(self.depth() < self.max_depth(), "open() past leaf level");
        match &mut self.repr {
            Repr::Csr(c) => c.open(),
            Repr::Merged(c) => c.open(),
        }
    }

    /// Ascend one level.
    pub fn up(&mut self) {
        match &mut self.repr {
            Repr::Csr(c) => c.up(),
            Repr::Merged(c) => c.up(),
        }
    }

    /// True if the current level has no further keys.
    #[inline]
    pub fn at_end(&self) -> bool {
        match &self.repr {
            Repr::Csr(c) => c.at_end(),
            Repr::Merged(c) => c.at_end(),
        }
    }

    /// The current key. Only valid when `!at_end()`.
    #[inline]
    pub fn key(&self) -> u32 {
        match &self.repr {
            Repr::Csr(c) => c.key(),
            Repr::Merged(c) => c.key(),
        }
    }

    /// The run of rows carrying the current key (used for fan-out counts).
    ///
    /// Runs are main-positional and contiguous; a merged overlay cursor's
    /// logical run is not, so this panics there — use [`TrieCursor::fanout`]
    /// for an overlay-agnostic count.
    #[inline]
    pub fn run(&self) -> RowRange {
        match &self.repr {
            Repr::Csr(c) => c.run(),
            Repr::Merged(_) => {
                panic!("run() is main-positional; use fanout() on a merged overlay cursor")
            }
        }
    }

    /// Number of live rows under the current key (the run length, minus
    /// tombstones and plus delta inserts on an overlay cursor).
    #[inline]
    pub fn fanout(&self) -> usize {
        match &self.repr {
            Repr::Csr(c) => c.run().len(),
            Repr::Merged(c) => c.fanout(),
        }
    }

    /// Advance to the next distinct key at this level.
    pub fn next_key(&mut self) {
        match &mut self.repr {
            Repr::Csr(c) => c.next_key(),
            Repr::Merged(c) => c.next_key(),
        }
    }

    /// Position at the first key `>= v` (a no-op if already there).
    /// Returns how the seek was resolved, for operator attribution.
    pub fn seek(&mut self, v: u32) -> SeekOutcome {
        match &mut self.repr {
            Repr::Csr(c) => c.seek(v),
            Repr::Merged(c) => c.seek(v),
        }
    }
}

/// Per-level state of a [`MergedCursor`]: which children were opened at
/// this level and which still carry a key.
#[derive(Debug, Clone, Copy)]
struct MergedLevel {
    /// The main child descended at this level.
    main_open: bool,
    /// The adds child descended at this level.
    adds_open: bool,
    /// The main child is positioned on a (live) key at this level.
    main_live: bool,
    /// The adds child is positioned on a key at this level.
    adds_live: bool,
}

/// Key-level merge of a main-side cursor and a delta-adds cursor.
///
/// The current key is the minimum of the two children's keys (over the
/// children that are both *open* at this level and not exhausted); `open`
/// descends only the children carrying the current key. Main keys whose
/// entire subtree is tombstoned are skipped, so a fully-deleted key
/// vanishes from the logical trie at every level.
#[derive(Debug, Clone)]
struct MergedCursor<'a> {
    main: TrieCursor<'a>,
    adds: TrieCursor<'a>,
    tomb: &'a [u32],
    levels: Vec<MergedLevel>,
}

impl MergedCursor<'_> {
    /// True if the main child's current key has no live rows (its whole
    /// run is tombstoned).
    fn main_key_dead(&self) -> bool {
        let run = self.main.run();
        tombs_within(self.tomb, run) as usize == run.len()
    }

    /// Advance the main child past fully-tombstoned keys.
    fn skip_dead_main(&mut self) {
        while !self.main.at_end() && self.main_key_dead() {
            self.main.next_key();
        }
    }

    fn open(&mut self) {
        let (main_open, adds_open) = match self.levels.last() {
            None => (true, true),
            Some(&top) => {
                let k = self.key_of(top).expect("open() on exhausted level");
                (
                    top.main_live && self.main.key() == k,
                    top.adds_live && self.adds.key() == k,
                )
            }
        };
        let mut lvl = MergedLevel { main_open, adds_open, main_live: false, adds_live: false };
        if main_open {
            self.main.open();
            self.skip_dead_main();
            lvl.main_live = !self.main.at_end();
        }
        if adds_open {
            self.adds.open();
            lvl.adds_live = !self.adds.at_end();
        }
        self.levels.push(lvl);
    }

    fn up(&mut self) {
        let top = self.levels.pop().expect("up() at root");
        if top.main_open {
            self.main.up();
        }
        if top.adds_open {
            self.adds.up();
        }
    }

    #[inline]
    fn top(&self) -> MergedLevel {
        *self.levels.last().expect("operation requires an open level")
    }

    #[inline]
    fn key_of(&self, top: MergedLevel) -> Option<u32> {
        match (top.main_live, top.adds_live) {
            (true, true) => Some(self.main.key().min(self.adds.key())),
            (true, false) => Some(self.main.key()),
            (false, true) => Some(self.adds.key()),
            (false, false) => None,
        }
    }

    #[inline]
    fn at_end(&self) -> bool {
        let top = self.top();
        !top.main_live && !top.adds_live
    }

    #[inline]
    fn key(&self) -> u32 {
        self.key_of(self.top()).expect("key() at end")
    }

    /// Live fan-out of the current key: main run minus its tombstones,
    /// plus the adds run when the adds child shares the key.
    fn fanout(&self) -> usize {
        let top = self.top();
        let k = self.key_of(top).expect("fanout() at end");
        let mut n = 0usize;
        if top.main_live && self.main.key() == k {
            let run = self.main.run();
            n += run.len() - tombs_within(self.tomb, run) as usize;
        }
        if top.adds_live && self.adds.key() == k {
            n += self.adds.run().len();
        }
        n
    }

    fn next_key(&mut self) {
        let top_idx = self.levels.len() - 1;
        let mut top = self.levels[top_idx];
        let k = self.key_of(top).expect("next_key() at end");
        if top.main_live && self.main.key() == k {
            self.main.next_key();
            self.skip_dead_main();
            top.main_live = !self.main.at_end();
        }
        if top.adds_live && self.adds.key() == k {
            self.adds.next_key();
            top.adds_live = !self.adds.at_end();
        }
        self.levels[top_idx] = top;
    }

    fn seek(&mut self, v: u32) -> SeekOutcome {
        let top_idx = self.levels.len() - 1;
        let mut top = self.levels[top_idx];
        let mut outcome = SeekOutcome::Linear;
        if top.main_open {
            outcome = self.main.seek(v);
            self.skip_dead_main();
            top.main_live = !self.main.at_end();
        }
        if top.adds_open {
            let o = self.adds.seek(v);
            if !top.main_live {
                outcome = o;
            }
            top.adds_live = !self.adds.at_end();
        }
        self.levels[top_idx] = top;
        outcome
    }
}

/// CSR cursor: node windows over the contiguous per-level key arrays.
#[derive(Debug, Clone)]
struct CsrCursor<'a> {
    csr: &'a ColumnarTrie,
    base: RowRange,
    prefix_len: usize,
    levels: Vec<CsrLevel>,
}

impl CsrCursor<'_> {
    /// The absolute trie level (0=first attr … 2=leaf) of the top level.
    #[inline]
    fn abs_level(&self) -> usize {
        self.prefix_len + self.levels.len() - 1
    }

    /// Node window at absolute level `prefix_len` covering `base`. Prefix
    /// ranges are node-aligned, so window ends can be derived from the
    /// last leaf of the base range.
    fn root_window(&self) -> (u32, u32) {
        if self.base.is_empty() {
            return (0, 0);
        }
        let last = self.base.end - 1;
        match self.prefix_len {
            2 => (self.base.start, self.base.end),
            1 => (self.csr.l1_node_of(self.base.start), self.csr.l1_node_of(last) + 1),
            _ => (
                self.csr.l0_node_of(self.csr.l1_node_of(self.base.start)),
                self.csr.l0_node_of(self.csr.l1_node_of(last)) + 1,
            ),
        }
    }

    fn open(&mut self) {
        let opening = self.prefix_len + self.levels.len();
        let (lo, hi) = match self.levels.last() {
            None => self.root_window(),
            Some(top) => {
                assert!(top.cur < top.hi, "open() on exhausted level");
                match opening {
                    1 => self.csr.l0_children(top.cur),
                    _ => self.csr.l1_children(top.cur),
                }
            }
        };
        self.levels.push(CsrLevel { cur: lo, hi });
    }

    fn up(&mut self) {
        self.levels.pop().expect("up() at root");
    }

    #[inline]
    fn at_end(&self) -> bool {
        let top = self.levels.last().expect("at_end() requires an open level");
        top.cur >= top.hi
    }

    #[inline]
    fn keys(&self) -> &[u32] {
        match self.abs_level() {
            0 => self.csr.l0_key_slice(),
            1 => self.csr.l1_key_slice(),
            _ => self.csr.l2_key_slice(),
        }
    }

    #[inline]
    fn key(&self) -> u32 {
        let top = self.levels.last().expect("key() requires an open level");
        debug_assert!(top.cur < top.hi, "key() at end");
        self.keys()[top.cur as usize]
    }

    #[inline]
    fn run(&self) -> RowRange {
        let top = self.levels.last().expect("run() requires an open level");
        debug_assert!(top.cur < top.hi, "run() at end");
        match self.abs_level() {
            0 => self.csr.l0_leaf_range(top.cur),
            1 => self.csr.l1_leaf_range(top.cur),
            _ => RowRange { start: top.cur, end: top.cur + 1 },
        }
    }

    fn next_key(&mut self) {
        let top = self.levels.last_mut().expect("next_key() requires an open level");
        debug_assert!(top.cur < top.hi, "next_key() at end");
        // Keys are distinct within a node window: the next key is simply
        // the next node — no run recomputation.
        top.cur += 1;
    }

    fn seek(&mut self, v: u32) -> SeekOutcome {
        let keys = match self.abs_level() {
            0 => self.csr.l0_key_slice(),
            1 => self.csr.l1_key_slice(),
            _ => self.csr.l2_key_slice(),
        };
        let top = self.levels.last_mut().expect("seek() requires an open level");
        if top.cur >= top.hi || keys[top.cur as usize] >= v {
            return SeekOutcome::Linear;
        }
        let before = top.cur;
        let (pos, outcome) =
            gallop_lower_bound(keys, top.cur as usize, top.hi as usize, v);
        top.cur = pos as u32;
        debug_assert!(top.cur >= before, "seek must be monotone");
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::IndexOrder;
    use kgoa_rdf::Triple;

    fn sample_index() -> TrieIndex {
        let triples: Vec<Triple> = vec![
            [1, 10, 100],
            [1, 10, 101],
            [1, 11, 100],
            [2, 10, 100],
            [2, 12, 105],
            [3, 12, 103],
        ]
        .into_iter()
        .map(Triple::from)
        .collect();
        TrieIndex::build(IndexOrder::Spo, &triples)
    }

    /// Collect all keys at the current level.
    fn keys_at_level(c: &mut TrieCursor<'_>) -> Vec<u32> {
        let mut out = Vec::new();
        while !c.at_end() {
            out.push(c.key());
            c.next_key();
        }
        out
    }

    #[test]
    fn level0_keys() {
        let idx = sample_index();
        let mut c = TrieCursor::over_index(&idx);
        c.open();
        assert_eq!(keys_at_level(&mut c), vec![1, 2, 3]);
    }

    #[test]
    fn descend_and_ascend() {
        let idx = sample_index();
        let mut c = TrieCursor::over_index(&idx);
        c.open(); // subjects
        assert_eq!(c.key(), 1);
        c.open(); // predicates of subject 1
        assert_eq!(keys_at_level(&mut c), vec![10, 11]);
        c.up();
        c.next_key(); // subject 2
        assert_eq!(c.key(), 2);
        c.open();
        assert_eq!(keys_at_level(&mut c), vec![10, 12]);
    }

    #[test]
    fn seek_moves_forward_only() {
        let idx = sample_index();
        let mut c = TrieCursor::over_index(&idx);
        c.open();
        c.seek(2);
        assert_eq!(c.key(), 2);
        c.seek(1); // no-op: already past
        assert_eq!(c.key(), 2);
        c.seek(4);
        assert!(c.at_end());
        c.seek(9); // seek at end is a no-op
        assert!(c.at_end());
    }

    #[test]
    fn seek_to_missing_key_lands_on_next() {
        let idx = sample_index();
        let mut c = TrieCursor::over_index(&idx);
        c.open();
        c.open(); // predicates of subject 1: {10, 11}
        c.seek(11);
        assert_eq!(c.key(), 11);
        c.up();
        c.next_key();
        c.open(); // predicates of subject 2: {10, 12}
        c.seek(11);
        assert_eq!(c.key(), 12);
    }

    #[test]
    fn seek_to_exact_max_and_past_last() {
        let idx = sample_index();
        // Leaf level of (2, 12): single key 105.
        let mut c = TrieCursor::new(&idx, idx.range2(2, 12), 2);
        c.open();
        c.seek(105); // exact max key
        assert!(!c.at_end());
        assert_eq!(c.key(), 105);
        c.seek(106); // past the last key
        assert!(c.at_end());
        // Level 0: exact max subject is 3.
        let mut c = TrieCursor::over_index(&idx);
        c.open();
        c.seek(3);
        assert_eq!(c.key(), 3);
        c.seek(u32::MAX);
        assert!(c.at_end());
    }

    #[test]
    fn duplicate_keys_at_level_boundary() {
        // Key 10 ends subject 1's predicate window and starts subject 2's:
        // the cursor must not leak across the parent boundary.
        let idx = sample_index();
        let mut c = TrieCursor::over_index(&idx);
        c.open();
        c.open(); // predicates of subject 1: {10, 11}
        c.seek(10);
        assert_eq!(c.key(), 10);
        assert_eq!(c.run().len(), 2, "(1,10) has 2 objects");
        c.next_key();
        assert_eq!(c.key(), 11);
        c.next_key();
        assert!(c.at_end(), "must stop at subject 1's boundary");
        c.up();
        c.next_key(); // subject 2
        c.open();
        assert_eq!(c.key(), 10, "subject 2 restarts at key 10");
        assert_eq!(c.run().len(), 1, "(2,10) has 1 object");
    }

    #[test]
    fn seek_reports_linear_and_gallop_outcomes() {
        // A long leaf run: nearby seeks stay linear, distant seeks gallop.
        let triples: Vec<Triple> =
            (0..64u32).map(|i| Triple::from([1, 10, 1000 + 2 * i])).collect();
        let idx = TrieIndex::build(IndexOrder::Spo, &triples);
        let mut c = TrieCursor::new(&idx, idx.range2(1, 10), 2);
        c.open();
        assert_eq!(c.seek(1002), SeekOutcome::Linear);
        assert_eq!(c.key(), 1002);
        assert_eq!(c.seek(1111), SeekOutcome::Gallop);
        assert_eq!(c.key(), 1112, "lands on next key");
        assert_eq!(c.seek(1000), SeekOutcome::Linear, "no-op seek");
    }

    #[test]
    fn run_counts_fanout() {
        let idx = sample_index();
        let mut c = TrieCursor::over_index(&idx);
        c.open();
        assert_eq!(c.run().len(), 3); // subject 1 has 3 triples
        c.open();
        assert_eq!(c.run().len(), 2); // (1, 10) has 2 objects
    }

    #[test]
    fn prefixed_cursor_exposes_remaining_levels() {
        let idx = sample_index();
        let base = idx.range2(1, 10); // objects of (1, 10)
        let mut c = TrieCursor::new(&idx, base, 2);
        assert_eq!(c.max_depth(), 1);
        c.open();
        assert_eq!(keys_at_level(&mut c), vec![100, 101]);
    }

    #[test]
    fn prefixed_cursor_with_one_fixed_attribute() {
        let idx = sample_index();
        let base = idx.range1(2); // subject 2
        let mut c = TrieCursor::new(&idx, base, 1);
        assert_eq!(c.max_depth(), 2);
        c.open();
        assert_eq!(c.key(), 10);
        c.open();
        assert_eq!(keys_at_level(&mut c), vec![100]);
        c.up();
        c.next_key();
        assert_eq!(c.key(), 12);
    }

    #[test]
    fn leaf_level_iteration() {
        let idx = sample_index();
        let mut c = TrieCursor::over_index(&idx);
        c.open();
        c.open();
        c.open(); // objects of (1, 10)
        assert_eq!(keys_at_level(&mut c), vec![100, 101]);
    }

    #[test]
    fn empty_base_is_immediately_at_end() {
        let idx = sample_index();
        let mut c = TrieCursor::new(&idx, RowRange::EMPTY, 2);
        c.open();
        assert!(c.at_end());
        c.seek(5); // seek on an empty level is a no-op
        assert!(c.at_end());
    }

    #[test]
    fn full_walk_agrees_with_prefix_ranges() {
        // Walk an open/seek/next script and require every key and run to
        // be the one the point lookups give for the same prefix.
        let triples: Vec<Triple> = (0..40u32)
            .map(|i| Triple::from([i % 5, 10 + (i % 3), 100 + i]))
            .collect();
        let idx = TrieIndex::build(IndexOrder::Spo, &triples);
        let mut c = TrieCursor::over_index(&idx);
        c.open();
        let mut subjects = Vec::new();
        while !c.at_end() {
            let a = c.key();
            subjects.push(a);
            assert_eq!(c.run(), idx.range1(a), "subject {a}");
            c.open();
            c.seek(11);
            let mut predicates = Vec::new();
            while !c.at_end() {
                let b = c.key();
                predicates.push(b);
                assert_eq!(c.run(), idx.range2(a, b), "prefix ({a},{b})");
                c.next_key();
            }
            assert_eq!(predicates, vec![11, 12], "subject {a}");
            c.up();
            c.next_key();
        }
        assert_eq!(subjects, vec![0, 1, 2, 3, 4]);
    }

    /// Exhaustively walk a cursor, returning (depth, key, fanout) tuples
    /// of every node in depth-first order.
    fn walk_all(c: &mut TrieCursor<'_>) -> Vec<(usize, u32, usize)> {
        let mut out = Vec::new();
        c.open();
        loop {
            if c.at_end() {
                if c.depth() == 1 {
                    break;
                }
                c.up();
                c.next_key();
                continue;
            }
            out.push((c.depth(), c.key(), c.fanout()));
            if c.depth() < c.max_depth() {
                c.open();
            } else {
                c.next_key();
            }
        }
        out
    }

    #[test]
    fn merged_cursor_agrees_with_rebuilt_index() {
        // Overlay: delete two rows (one of them subject 3's only row, so
        // key 3 must vanish at level 0) and insert rows for an existing
        // and a brand-new subject.
        let base: Vec<Triple> = vec![
            [1, 10, 100],
            [1, 10, 101],
            [1, 11, 100],
            [2, 10, 100],
            [2, 12, 105],
            [3, 12, 103],
        ]
        .into_iter()
        .map(Triple::from)
        .collect();
        let inserts =
            [Triple::from([1, 10, 99]), Triple::from([4, 13, 104]), Triple::from([2, 12, 1])];
        let deletes = [Triple::from([3, 12, 103]), Triple::from([1, 11, 100])];
        let live: Vec<Triple> = base
            .iter()
            .filter(|t| !deletes.contains(t))
            .chain(inserts.iter())
            .copied()
            .collect();
        let idx = TrieIndex::build(IndexOrder::Spo, &base).with_delta(&inserts, &deletes);
        let rebuilt = TrieIndex::build(IndexOrder::Spo, &live);
        let got = walk_all(&mut TrieCursor::over_index(&idx));
        let expect = walk_all(&mut TrieCursor::over_index(&rebuilt));
        assert_eq!(got, expect);
    }

    #[test]
    fn merged_cursor_seeks_match_rebuilt() {
        let base: Vec<Triple> = (0..30u32)
            .map(|i| Triple::from([i % 6, 10 + (i % 3), 100 + i]))
            .collect();
        let inserts = [Triple::from([2, 11, 7]), Triple::from([9, 10, 1])];
        let deletes: Vec<Triple> = base.iter().filter(|t| t.s.raw() == 4).copied().collect();
        let live: Vec<Triple> = base
            .iter()
            .filter(|t| !deletes.contains(t))
            .chain(inserts.iter())
            .copied()
            .collect();
        let idx = TrieIndex::build(IndexOrder::Spo, &base).with_delta(&inserts, &deletes);
        let rebuilt = TrieIndex::build(IndexOrder::Spo, &live);
        let mut a = TrieCursor::over_index(&idx);
        let mut b = TrieCursor::over_index(&rebuilt);
        a.open();
        b.open();
        for target in [0u32, 2, 3, 4, 5, 9, 10] {
            a.seek(target);
            b.seek(target);
            assert_eq!(a.at_end(), b.at_end(), "seek {target}");
            if !a.at_end() {
                assert_eq!(a.key(), b.key(), "seek {target}");
                assert_eq!(a.fanout(), b.fanout(), "seek {target}");
            }
        }
    }

    #[test]
    fn merged_cursor_on_empty_main() {
        let adds = [Triple::from([5, 6, 7])];
        let idx = TrieIndex::build(IndexOrder::Spo, &[]).with_delta(&adds, &[]);
        let mut c = TrieCursor::over_index(&idx);
        c.open();
        assert_eq!(keys_at_level(&mut c), vec![5]);
    }

    #[test]
    #[should_panic(expected = "open() past leaf level")]
    fn open_past_leaf_panics() {
        let idx = sample_index();
        let mut c = TrieCursor::over_index(&idx);
        c.open();
        c.open();
        c.open();
        c.open();
    }
}
