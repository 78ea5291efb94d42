//! The fully-indexed graph: the paper's engines all operate over this.

use std::sync::Arc;

use kgoa_rdf::{Dictionary, Graph, Triple, VocabIds};

use crate::order::IndexOrder;
use crate::stats::GraphStats;
use crate::store::{Layout, TrieIndex};

/// A graph together with its trie indexes and cardinality statistics.
///
/// [`IndexedGraph::build`] builds the four paper orders (SPO, OPS, PSO,
/// POS); §V-A notes these "are sufficient to support our exploration
/// queries". [`IndexedGraph::from_parts`] accepts any superset of them.
/// The graph is `Arc`-shared and each [`TrieIndex`] is internally
/// `Arc`-cored, so cloning an `IndexedGraph` — and building a delta
/// overlay snapshot via [`IndexedGraph::with_overlay`] — is cheap and
/// independent of graph size. Under an overlay, [`IndexedGraph::graph`],
/// [`IndexedGraph::len`] and [`IndexedGraph::stats`] describe the *main*
/// snapshot (statistics refresh when a background merge publishes);
/// [`IndexedGraph::contains`] and the engines' live accessors see the
/// overlay.
#[derive(Debug, Clone)]
pub struct IndexedGraph {
    graph: Arc<Graph>,
    indexes: [Option<TrieIndex>; 6],
    stats: GraphStats,
}

#[inline]
const fn slot(order: IndexOrder) -> usize {
    match order {
        IndexOrder::Spo => 0,
        IndexOrder::Ops => 1,
        IndexOrder::Pso => 2,
        IndexOrder::Pos => 3,
        IndexOrder::Sop => 4,
        IndexOrder::Osp => 5,
    }
}

impl IndexedGraph {
    /// Index a graph with the four paper orders (SPO, OPS, PSO, POS). Each
    /// order sorts an independent copy of the triples, so the builds run
    /// on their own scoped threads — index construction parallelizes
    /// across orders.
    pub fn build(graph: Graph) -> Self {
        let graph = Arc::new(graph);
        let triples = graph.triples();
        let built = std::thread::scope(|s| {
            IndexOrder::PAPER_DEFAULT
                .map(|order| s.spawn(move || TrieIndex::build(order, triples)))
                .map(|h| h.join().expect("index build thread panicked"))
        });
        Self::from_shared_parts(graph, built.into())
    }

    /// Reassemble from a graph plus prebuilt indexes (incremental update
    /// path). The four paper-default orders must be present; statistics are
    /// recomputed from the indexes.
    pub fn from_parts(graph: Graph, prebuilt: Vec<TrieIndex>) -> Self {
        Self::from_shared_parts(Arc::new(graph), prebuilt)
    }

    /// [`IndexedGraph::from_parts`] over an already-shared graph (epoch
    /// managers hand the same `Arc` to successive snapshots).
    pub fn from_shared_parts(graph: Arc<Graph>, prebuilt: Vec<TrieIndex>) -> Self {
        let mut indexes: [Option<TrieIndex>; 6] = Default::default();
        for idx in prebuilt {
            let s = slot(idx.order());
            indexes[s] = Some(idx);
        }
        for order in IndexOrder::PAPER_DEFAULT {
            assert!(indexes[slot(order)].is_some(), "missing required index order {order}");
        }
        let stats = GraphStats::from_indexes(
            indexes[slot(IndexOrder::Spo)].as_ref().expect("spo"),
            indexes[slot(IndexOrder::Ops)].as_ref().expect("ops"),
            indexes[slot(IndexOrder::Pso)].as_ref().expect("pso"),
            indexes[slot(IndexOrder::Pos)].as_ref().expect("pos"),
        );
        IndexedGraph { graph, indexes, stats }
    }

    /// The orders with a built index.
    pub fn built_orders(&self) -> Vec<IndexOrder> {
        IndexOrder::ALL.into_iter().filter(|o| self.indexes[slot(*o)].is_some()).collect()
    }

    /// The underlying graph (the main snapshot when an overlay is
    /// attached — delta inserts are not in its triple list).
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared handle to the underlying graph.
    #[inline]
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Attach a delta overlay (inserted/deleted triples) to every built
    /// index, sharing the main parts: an O(delta) epoch snapshot. The
    /// dictionary must already contain the triples' term ids. Inserts
    /// already present and deletes of absent triples are dropped;
    /// statistics are carried over unchanged (they refresh when the
    /// overlay is merged into a new main).
    pub fn with_overlay(&self, inserts: &[Triple], deletes: &[Triple]) -> IndexedGraph {
        let mut indexes: [Option<TrieIndex>; 6] = Default::default();
        for (slot, idx) in self.indexes.iter().enumerate() {
            indexes[slot] =
                idx.as_ref().map(|i| i.main_only().with_delta(inserts, deletes));
        }
        IndexedGraph {
            graph: Arc::clone(&self.graph),
            indexes,
            stats: self.stats.clone(),
        }
    }

    /// True if any built index carries a delta overlay.
    pub fn has_delta(&self) -> bool {
        self.indexes.iter().flatten().any(TrieIndex::has_delta)
    }

    /// Overlay size of the SPO index (inserted rows + tombstones) — the
    /// ingest-pressure signal.
    pub fn delta_rows(&self) -> usize {
        self.require(IndexOrder::Spo).delta_rows()
    }

    /// Number of *live* triples (main minus deletes plus inserts).
    pub fn live_len(&self) -> usize {
        self.require(IndexOrder::Spo).live_len()
    }

    /// The term dictionary.
    #[inline]
    pub fn dict(&self) -> &Dictionary {
        self.graph.dict()
    }

    /// Cached vocabulary ids.
    #[inline]
    pub fn vocab(&self) -> VocabIds {
        self.graph.vocab()
    }

    /// Cardinality statistics.
    #[inline]
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// The storage layout of the built indexes: always [`Layout::Csr`].
    /// The benchmark harness pins this call, and its run fingerprint must
    /// keep printing `"csr"`.
    pub fn layout(&self) -> Layout {
        Layout::Csr
    }

    /// The index for an order, if built.
    #[inline]
    pub fn index(&self, order: IndexOrder) -> Option<&TrieIndex> {
        self.indexes[slot(order)].as_ref()
    }

    /// The index for an order; panics with a clear message if not built.
    #[inline]
    pub fn require(&self, order: IndexOrder) -> &TrieIndex {
        self.indexes[slot(order)]
            .as_ref()
            .unwrap_or_else(|| panic!("index order {order} was not built for this graph"))
    }

    /// Number of triples.
    #[inline]
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True if the graph is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// True if the graph contains the triple: a rank-directory lookup at
    /// level 0 of the SPO trie, then a binary search per level below it.
    pub fn contains(&self, t: Triple) -> bool {
        self.require(IndexOrder::Spo).contains_row(t.s.raw(), t.p.raw(), t.o.raw())
    }

    /// Approximate heap memory used by all built indexes, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.indexes.iter().flatten().map(TrieIndex::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_rdf::GraphBuilder;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_iris("u:a", "u:p", "u:b");
        b.add_iris("u:a", "u:p", "u:c");
        b.add_iris("u:b", "u:q", "u:c");
        b.build()
    }

    #[test]
    fn default_build_has_paper_orders() {
        let ig = IndexedGraph::build(graph());
        for order in IndexOrder::PAPER_DEFAULT {
            assert!(ig.index(order).is_some(), "missing {order}");
        }
        assert!(ig.index(IndexOrder::Sop).is_none());
        assert!(ig.index(IndexOrder::Osp).is_none());
        assert_eq!(ig.layout().name(), "csr");
    }

    #[test]
    fn contains_and_len() {
        let g = graph();
        let t = *g.triples().first().unwrap();
        let ig = IndexedGraph::build(g);
        assert_eq!(ig.len(), 3);
        assert!(ig.contains(t));
        assert!(!ig.contains(Triple::from([77, 77, 77])));
    }

    #[test]
    #[should_panic(expected = "was not built")]
    fn require_missing_order_panics() {
        let ig = IndexedGraph::build(graph());
        ig.require(IndexOrder::Osp);
    }

    #[test]
    fn stats_are_consistent_with_graph() {
        let ig = IndexedGraph::build(graph());
        assert_eq!(ig.stats().triples, 3);
        assert_eq!(ig.stats().distinct_predicates, 2);
        assert!(ig.memory_bytes() > 0);
    }
}
