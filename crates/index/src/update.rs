//! Incremental index maintenance — the paper's §VI lists "support for
//! incremental indexing on updates" as an envisaged extension.
//!
//! Rebuilding a trie index from scratch costs a full O(n log n) sort per
//! order. When a batch of new triples arrives, the existing rows are
//! already sorted, so each order can instead sort only the (small) batch
//! and merge — O(n + m log m) — and lay the merged rows back out as
//! level arrays in one more linear pass. Deletions are handled in the
//! same merge (set difference), so a batch can mix inserts and removes.

use std::sync::Arc;

use kgoa_rdf::{Dictionary, Triple};

use crate::store::TrieIndex;

/// A batch of graph updates.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    /// Triples to add (duplicates of existing triples are ignored).
    pub insert: Vec<Triple>,
    /// Triples to remove (absent triples are ignored).
    pub delete: Vec<Triple>,
}

impl UpdateBatch {
    /// A batch that only inserts.
    pub fn inserting(triples: Vec<Triple>) -> Self {
        UpdateBatch { insert: triples, delete: Vec::new() }
    }

    /// A batch that only deletes.
    pub fn deleting(triples: Vec<Triple>) -> Self {
        UpdateBatch { insert: Vec::new(), delete: triples }
    }

    /// True if the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    /// Total number of triples named by the batch (ingest-budget unit).
    pub fn size(&self) -> usize {
        self.insert.len() + self.delete.len()
    }

    /// Canonicalize the batch: sort and dedupe both sides, and *cancel*
    /// an insert and delete of the same triple within the batch (the net
    /// effect on that triple is nothing, whether or not it exists).
    /// Deletes of absent triples are left in place — they are ignored
    /// when the batch is applied against an index.
    pub fn normalized(&self) -> UpdateBatch {
        let mut insert = self.insert.clone();
        insert.sort_unstable();
        insert.dedup();
        let mut delete = self.delete.clone();
        delete.sort_unstable();
        delete.dedup();
        let cancelled: Vec<Triple> =
            insert.iter().copied().filter(|t| delete.binary_search(t).is_ok()).collect();
        if !cancelled.is_empty() {
            insert.retain(|t| cancelled.binary_search(t).is_err());
            delete.retain(|t| cancelled.binary_search(t).is_err());
        }
        UpdateBatch { insert, delete }
    }
}

/// Merge a sorted row array with a batch, producing the updated sorted
/// array. `adds` and `dels` must each be sorted and deduplicated.
fn merge_rows(rows: &[[u32; 3]], adds: &[[u32; 3]], dels: &[[u32; 3]]) -> Vec<[u32; 3]> {
    let mut out = Vec::with_capacity(rows.len() + adds.len());
    let (mut i, mut a, mut d) = (0usize, 0usize, 0usize);
    while i < rows.len() || a < adds.len() {
        // Pick the smaller head; existing rows win ties with adds (the add
        // is a duplicate and gets skipped).
        let take_existing = a >= adds.len() || (i < rows.len() && rows[i] <= adds[a]);
        let row = if take_existing { rows[i] } else { adds[a] };
        if take_existing {
            i += 1;
            if a < adds.len() && adds[a] == row {
                a += 1; // duplicate insert
            }
        } else {
            a += 1;
        }
        // Apply deletions.
        while d < dels.len() && dels[d] < row {
            d += 1;
        }
        if d < dels.len() && dels[d] == row {
            continue;
        }
        out.push(row);
    }
    out
}

impl TrieIndex {
    /// Apply an update batch by merging, avoiding the full re-sort.
    /// Returns the updated index.
    pub fn merged(&self, batch: &UpdateBatch) -> TrieIndex {
        let batch = batch.normalized();
        let order = self.order();
        let permute_sorted = |triples: &[Triple]| -> Vec<[u32; 3]> {
            let mut rows: Vec<[u32; 3]> = triples.iter().map(|t| order.permute(*t)).collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        let adds = permute_sorted(&batch.insert);
        let dels = permute_sorted(&batch.delete);
        let rows = merge_rows(&self.to_rows(), &adds, &dels);
        TrieIndex::from_sorted_rows(order, rows)
    }
}

/// Apply a batch to all indexes of an [`crate::IndexedGraph`], returning a
/// new one with every built order merged rather than rebuilt. The new
/// graph holds `dict`: the epoch manager passes the old main's shared
/// dictionary, since appended triples use only ids it already has. A
/// caller that interned new terms passes its extended clone.
pub fn apply_batch(
    ig: &crate::IndexedGraph,
    dict: impl Into<Arc<Dictionary>>,
    batch: &UpdateBatch,
) -> crate::IndexedGraph {
    let merged: Vec<TrieIndex> =
        ig.built_orders().into_iter().map(|o| ig.require(o).merged(batch)).collect();
    crate::IndexedGraph::from_parts(dict.into(), ig.vocab(), merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::IndexOrder;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::from([s, p, o])
    }

    fn base() -> Vec<Triple> {
        vec![t(1, 10, 100), t(1, 10, 101), t(2, 11, 100), t(3, 12, 103)]
    }

    #[test]
    fn merged_insert_equals_rebuild() {
        for order in IndexOrder::ALL {
            let idx = TrieIndex::build(order, &base());
            let batch = UpdateBatch::inserting(vec![t(0, 10, 99), t(2, 11, 101), t(9, 9, 9)]);
            let merged = idx.merged(&batch);
            let mut full = base();
            full.extend_from_slice(&batch.insert);
            full.sort_unstable();
            let rebuilt = TrieIndex::build(order, &full);
            assert_eq!(merged.to_rows(), rebuilt.to_rows(), "order {order}");
            assert_eq!(merged.range1(2).len(), rebuilt.range1(2).len());
        }
    }

    #[test]
    fn merged_delete_equals_rebuild() {
        for order in IndexOrder::ALL {
            let idx = TrieIndex::build(order, &base());
            let batch = UpdateBatch::deleting(vec![t(1, 10, 101), t(3, 12, 103)]);
            let merged = idx.merged(&batch);
            let remaining = vec![t(1, 10, 100), t(2, 11, 100)];
            let rebuilt = TrieIndex::build(order, &remaining);
            assert_eq!(merged.to_rows(), rebuilt.to_rows(), "order {order}");
        }
    }

    #[test]
    fn duplicate_inserts_and_missing_deletes_are_ignored() {
        let idx = TrieIndex::build(IndexOrder::Spo, &base());
        let batch = UpdateBatch {
            insert: vec![t(1, 10, 100), t(1, 10, 100)], // already present + dup
            delete: vec![t(7, 7, 7)],                   // absent
        };
        let merged = idx.merged(&batch);
        assert_eq!(merged.to_rows(), idx.to_rows());
    }

    #[test]
    fn insert_then_delete_same_triple_in_one_batch() {
        let idx = TrieIndex::build(IndexOrder::Spo, &base());
        let batch = UpdateBatch {
            insert: vec![t(5, 5, 5)],
            delete: vec![t(5, 5, 5)],
        };
        // The pair cancels: an absent triple stays absent.
        let merged = idx.merged(&batch);
        assert_eq!(merged.len(), idx.len());
    }

    #[test]
    fn normalized_dedupes_duplicate_inserts() {
        let batch = UpdateBatch {
            insert: vec![t(1, 1, 1), t(2, 2, 2), t(1, 1, 1), t(1, 1, 1)],
            delete: vec![t(9, 9, 9), t(9, 9, 9)],
        };
        let n = batch.normalized();
        assert_eq!(n.insert, vec![t(1, 1, 1), t(2, 2, 2)]);
        assert_eq!(n.delete, vec![t(9, 9, 9)]);
        assert_eq!(n.size(), 3);
    }

    #[test]
    fn normalized_cancels_insert_delete_pairs() {
        let batch = UpdateBatch {
            insert: vec![t(1, 1, 1), t(2, 2, 2)],
            delete: vec![t(2, 2, 2), t(3, 3, 3)],
        };
        let n = batch.normalized();
        assert_eq!(n.insert, vec![t(1, 1, 1)]);
        assert_eq!(n.delete, vec![t(3, 3, 3)]);
    }

    #[test]
    fn cancelled_pair_keeps_a_present_triple() {
        // (1,10,100) exists; inserting and deleting it in one batch must
        // leave it untouched (cancellation, not delete-wins).
        let idx = TrieIndex::build(IndexOrder::Spo, &base());
        let batch = UpdateBatch {
            insert: vec![t(1, 10, 100)],
            delete: vec![t(1, 10, 100)],
        };
        let merged = idx.merged(&batch);
        assert_eq!(merged.to_rows(), idx.to_rows());
        assert!(merged.contains_row(1, 10, 100));
    }

    #[test]
    fn deletes_of_absent_triples_are_ignored_by_merge() {
        let idx = TrieIndex::build(IndexOrder::Spo, &base());
        let batch = UpdateBatch::deleting(vec![t(8, 8, 8), t(0, 0, 0)]);
        let merged = idx.merged(&batch);
        assert_eq!(merged.to_rows(), idx.to_rows());
    }

    #[test]
    fn apply_batch_matches_full_rebuild() {
        use kgoa_rdf::GraphBuilder;
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let nodes: Vec<_> =
            (0..8).map(|i| b.dict_mut().intern_iri(format!("u:n{i}"))).collect();
        for i in 0..6 {
            b.add(Triple::new(nodes[i], p, nodes[(i + 1) % 8]));
        }
        let dict = b.dict().clone();
        let ig = crate::IndexedGraph::build(b.build());

        let batch = UpdateBatch {
            insert: vec![Triple::new(nodes[6], p, nodes[7]), Triple::new(nodes[7], p, nodes[0])],
            delete: vec![Triple::new(nodes[0], p, nodes[1])],
        };
        let updated = apply_batch(&ig, dict.clone(), &batch);

        // Rebuild from scratch for comparison.
        let mut b2 = GraphBuilder::new();
        for i in 1..6 {
            b2.add(Triple::new(nodes[i], p, nodes[(i + 1) % 8]));
        }
        b2.add(Triple::new(nodes[6], p, nodes[7]));
        b2.add(Triple::new(nodes[7], p, nodes[0]));
        let rebuilt = crate::IndexedGraph::build(b2.build());

        assert_eq!(updated.len(), rebuilt.len());
        for order in updated.built_orders() {
            assert_eq!(
                updated.require(order).to_rows(),
                rebuilt.require(order).to_rows(),
                "order {order}"
            );
        }
        assert_eq!(updated.stats().triples, rebuilt.stats().triples);
        assert_eq!(
            updated.stats().predicate(p.raw()),
            rebuilt.stats().predicate(p.raw())
        );
        assert!(updated.contains(Triple::new(nodes[7], p, nodes[0])));
        assert!(!updated.contains(Triple::new(nodes[0], p, nodes[1])));
    }

    #[test]
    fn empty_batch_is_identity() {
        let idx = TrieIndex::build(IndexOrder::Pos, &base());
        let merged = idx.merged(&UpdateBatch::default());
        assert_eq!(merged.to_rows(), idx.to_rows());
        assert!(UpdateBatch::default().is_empty());
    }
}
