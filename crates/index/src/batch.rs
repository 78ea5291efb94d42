//! Sorted batch seeks over the trie levels — the index half of the SoA
//! batched walk runner.
//!
//! A batched walk step resolves one prefix range per live walk. Issuing
//! the probes in sorted key order turns per-walk binary searches into a
//! near-sequential scan of the level arrays: a cursor carried from the
//! previous hit makes each gallop start where the last one ended, so a
//! batch of B probes touches each cache line of `l0_keys`/`l1_keys` at
//! most once instead of B independent root-to-leaf search paths. An
//! optional software prefetch pulls the window ahead of the cursor while
//! the current probe resolves.
//!
//! Probes are `(key, slot)` pairs **sorted by key**; results land in
//! `out[slot]`, so the caller keeps walk order while the index sees key
//! order. A delta-free index takes the galloping sweep; an overlaid index
//! resolves each probe with the scalar
//! [`TrieIndex::range1_live`] / [`TrieIndex::range2_live`] (still counted
//! in `index.trie.seek_batch`). Both derive from the same level arrays,
//! so the ranges they return are identical —
//! `batch_seeks_agree_with_scalar_lookups` checks exactly that.

use crate::columnar::{gallop_lower_bound, GALLOP_LINEAR_SPAN};
use crate::delta::LiveRange;
use crate::store::TrieIndex;

/// Prefetch the cache line holding `keys[i]` (no-op when out of range or
/// off x86-64). Hides the latency of the next sorted probe's window while
/// the current gallop resolves.
#[inline]
fn prefetch_key(keys: &[u32], i: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if let Some(p) = keys.get(i) {
            // SAFETY: `p` points into a live slice; prefetch reads nothing
            // architecturally and has no memory effects.
            unsafe {
                std::arch::x86_64::_mm_prefetch(
                    (p as *const u32).cast::<i8>(),
                    std::arch::x86_64::_MM_HINT_T0,
                );
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (keys, i);
    }
}

impl TrieIndex {
    /// Resolve a batch of 1-value prefix probes, sorted by key ascending
    /// (duplicate keys allowed). `out[slot]` receives the live range of
    /// `key` — identical to [`TrieIndex::range1_live`] per probe.
    pub fn seek1_batch(&self, probes: &[(u32, u32)], out: &mut [LiveRange]) {
        debug_assert!(
            probes.windows(2).all(|w| w[0].0 <= w[1].0),
            "seek1_batch probes must be key-sorted"
        );
        kgoa_obs::metrics::TRIE_SEEK_BATCH.add(probes.len() as u64);
        if self.has_delta() {
            for &(key, slot) in probes {
                out[slot as usize] = self.range1_live(key);
            }
            return;
        }
        let t = self.trie();
        let keys = t.l0_key_slice();
        let mut cur = 0usize;
        for &(key, slot) in probes {
            let (pos, _) = gallop_lower_bound(keys, cur, keys.len(), key);
            cur = pos;
            prefetch_key(keys, pos + GALLOP_LINEAR_SPAN);
            out[slot as usize] = if pos < keys.len() && keys[pos] == key {
                LiveRange::solid(t.l0_leaf_range(pos as u32))
            } else {
                LiveRange::EMPTY
            };
        }
    }

    /// Resolve a batch of 2-value prefix probes, sorted by
    /// [`crate::pack2`]-packed key ascending (lexicographic `(a, b)`;
    /// duplicates allowed). `out[slot]` receives the live range of
    /// `(a, b)` — identical to [`TrieIndex::range2_live`] per probe.
    pub fn seek2_batch(&self, probes: &[(u64, u32)], out: &mut [LiveRange]) {
        debug_assert!(
            probes.windows(2).all(|w| w[0].0 <= w[1].0),
            "seek2_batch probes must be key-sorted"
        );
        kgoa_obs::metrics::TRIE_SEEK_BATCH.add(probes.len() as u64);
        if self.has_delta() {
            for &(packed, slot) in probes {
                out[slot as usize] = self.range2_live((packed >> 32) as u32, packed as u32);
            }
            return;
        }
        // Level-1 cursor and parent window, valid while the probe stream
        // stays on the same level-0 key.
        let mut cur0 = 0usize;
        let mut last_a = None;
        let mut a_found = false;
        let mut win = (0usize, 0usize);
        let mut cur1 = 0usize;
        let t = self.trie();
        let k0 = t.l0_key_slice();
        let k1 = t.l1_key_slice();
        for &(packed, slot) in probes {
            let a = (packed >> 32) as u32;
            let b = packed as u32;
            if last_a != Some(a) {
                let (pos, _) = gallop_lower_bound(k0, cur0, k0.len(), a);
                cur0 = pos;
                a_found = pos < k0.len() && k0[pos] == a;
                if a_found {
                    let (lo, hi) = t.l0_children(pos as u32);
                    win = (lo as usize, hi as usize);
                    cur1 = win.0;
                    prefetch_key(k1, cur1);
                }
                last_a = Some(a);
            }
            out[slot as usize] = if a_found {
                let (pos1, _) = gallop_lower_bound(k1, cur1, win.1, b);
                cur1 = pos1;
                prefetch_key(k1, pos1 + GALLOP_LINEAR_SPAN);
                if pos1 < win.1 && k1[pos1] == b {
                    LiveRange::solid(t.l1_leaf_range(pos1 as u32))
                } else {
                    LiveRange::EMPTY
                }
            } else {
                LiveRange::EMPTY
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::pack2;
    use crate::order::IndexOrder;
    use kgoa_rdf::Triple;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::from([s, p, o])
    }

    fn base() -> Vec<Triple> {
        vec![
            t(1, 10, 100),
            t(1, 10, 101),
            t(1, 11, 100),
            t(2, 10, 100),
            t(2, 12, 105),
            t(3, 12, 103),
            t(7, 10, 100),
            t(7, 15, 101),
        ]
    }

    fn variants() -> Vec<TrieIndex> {
        let idx = TrieIndex::build(IndexOrder::Spo, &base());
        let overlaid =
            idx.with_delta(&[t(1, 10, 99), t(4, 13, 104)], &[t(1, 10, 101), t(3, 12, 103)]);
        vec![idx, overlaid]
    }

    #[test]
    fn batch_seeks_agree_with_scalar_lookups() {
        for idx in variants() {
            let ctx = format!("delta={}", idx.has_delta());
            // 1-prefix probes: present, absent, duplicated, unsorted
            // walk order (slots permuted).
            let keys = [0u32, 1, 1, 2, 3, 4, 5, 7, 9];
            let mut probes: Vec<(u32, u32)> =
                keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
            probes.sort_unstable_by_key(|&(k, _)| k);
            let mut out = vec![LiveRange::EMPTY; keys.len()];
            idx.seek1_batch(&probes, &mut out);
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(out[i], idx.range1_live(k), "{ctx} key {k}");
            }

            // 2-prefix probes.
            let pairs =
                [(1u32, 9u32), (1, 10), (1, 11), (2, 12), (3, 12), (4, 13), (7, 15), (8, 1)];
            let mut probes: Vec<(u64, u32)> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| (pack2(a, b), i as u32))
                .collect();
            probes.sort_unstable_by_key(|&(k, _)| k);
            let mut out = vec![LiveRange::EMPTY; pairs.len()];
            idx.seek2_batch(&probes, &mut out);
            for (i, &(a, b)) in pairs.iter().enumerate() {
                assert_eq!(out[i], idx.range2_live(a, b), "{ctx} pair ({a},{b})");
            }
        }
    }

    #[test]
    fn batch_seek_counts_probes() {
        let _guard = kgoa_obs::metrics::test_lock();
        kgoa_obs::set_enabled(true);
        let idx = TrieIndex::build(IndexOrder::Spo, &base());
        let before = kgoa_obs::metrics::TRIE_SEEK_BATCH.get();
        let mut out = vec![LiveRange::EMPTY; 3];
        idx.seek1_batch(&[(1, 0), (2, 1), (3, 2)], &mut out);
        let after = kgoa_obs::metrics::TRIE_SEEK_BATCH.get();
        kgoa_obs::set_enabled(false);
        assert_eq!(after - before, 3);
    }

    #[test]
    fn batch_seeks_agree_on_wide_levels() {
        // 512 distinct level-0 keys and a 384-key level-1 window, probed
        // on both sides of the 128/129 key edges: the carried gallop
        // cursor must agree with the scalar lookups far from where it
        // started.
        let triples: Vec<Triple> = (0..512u32)
            .flat_map(|a| (0..3u32).map(move |b| t(a * 3, 10 + b, a + b)))
            .chain((0..384u32).map(|b| t(9999, b * 2, 1)))
            .collect();
        let keys: Vec<u32> = [
            0,
            127 * 3,
            128 * 3,
            129 * 3,
            256 * 3,
            511 * 3,
            512 * 3, // absent
            9999,
            10_000, // absent
        ]
        .into_iter()
        .collect();
        let idx = TrieIndex::build(IndexOrder::Spo, &triples);
        let mut probes: Vec<(u32, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        probes.sort_unstable_by_key(|&(k, _)| k);
        let mut out = vec![LiveRange::EMPTY; keys.len()];
        idx.seek1_batch(&probes, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], idx.range1_live(k), "key {k}");
        }
        // 2-prefix probes across the wide (9999, *) window, present and
        // absent keys at each edge.
        let pairs: Vec<(u32, u32)> = [0u32, 127, 128, 129, 256, 383]
            .into_iter()
            .flat_map(|b| [(9999u32, b * 2), (9999, b * 2 + 1)])
            .chain([(0u32, 10), (128 * 3, 11), (512 * 3, 10)])
            .collect();
        let mut probes: Vec<(u64, u32)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (pack2(a, b), i as u32))
            .collect();
        probes.sort_unstable_by_key(|&(k, _)| k);
        let mut out = vec![LiveRange::EMPTY; pairs.len()];
        idx.seek2_batch(&probes, &mut out);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(out[i], idx.range2_live(a, b), "pair ({a},{b})");
        }
    }

    #[test]
    fn empty_index_batch_seeks() {
        let idx = TrieIndex::build(IndexOrder::Spo, &[]);
        let mut out = vec![LiveRange::solid(idx.full_range()); 2];
        idx.seek1_batch(&[(5, 0), (6, 1)], &mut out);
        assert!(out.iter().all(|r| r.is_empty()));
        idx.seek2_batch(&[(pack2(5, 5), 0), (pack2(6, 6), 1)], &mut out);
        assert!(out.iter().all(|r| r.is_empty()));
    }
}
