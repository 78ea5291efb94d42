//! A batch of 2-value prefix probes resolved in one call.
//!
//! The walk runners resolve each walk's range on its own
//! ([`TrieIndex::range1_live`] / [`TrieIndex::range2_live`]): with O(1)
//! level-0 entry through the rank directory, that is faster than sorting a
//! batch's probes and sweeping the level arrays with a carried cursor.
//! [`TrieIndex::seek2_batch`] stays because the benchmark harness's
//! `index.seek2_batch_ns_per_probe` probe calls it; it is a loop over the
//! scalar lookup and accepts probes in any order.

use crate::delta::LiveRange;
use crate::store::TrieIndex;

impl TrieIndex {
    /// Resolve a batch of 2-value prefix probes `(pack2(a, b), slot)`, in
    /// any order (duplicates allowed): `out[slot]` receives
    /// [`TrieIndex::range2_live`]`(a, b)`.
    pub fn seek2_batch(&self, probes: &[(u64, u32)], out: &mut [LiveRange]) {
        for &(packed, slot) in probes {
            out[slot as usize] = self.range2_live((packed >> 32) as u32, packed as u32);
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

    #[test]
    fn batch_seeks_agree_with_scalar_lookups() {
        let base = [t(1, 10, 100), t(1, 10, 101), t(1, 11, 100), t(2, 12, 105), t(7, 15, 101)];
        let idx = TrieIndex::build(IndexOrder::Spo, &base);
        let overlaid = idx.with_delta(&[t(1, 10, 99), t(4, 13, 104)], &[t(1, 10, 101)]);
        // Present, absent and duplicated pairs, unsorted.
        let pairs = [(7u32, 15u32), (1, 10), (8, 1), (1, 9), (4, 13), (1, 10), (2, 12)];
        for idx in [idx, overlaid] {
            let probes: Vec<(u64, u32)> =
                pairs.iter().enumerate().map(|(i, &(a, b))| (pack2(a, b), i as u32)).collect();
            let mut out = vec![LiveRange::EMPTY; pairs.len()];
            idx.seek2_batch(&probes, &mut out);
            for (i, &(a, b)) in pairs.iter().enumerate() {
                assert_eq!(out[i], idx.range2_live(a, b), "delta={} ({a},{b})", idx.has_delta());
            }
        }
    }
}
