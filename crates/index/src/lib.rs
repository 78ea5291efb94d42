//! # kgoa-index
//!
//! Sorted trie indexes for the `kgoa` workspace.
//!
//! The paper's engines (§V-A) share one physical design: each of four
//! attribute orders (SPO, OPS, PSO, POS) stores the graph's triples in
//! sorted order, so every 1- and 2-attribute prefix is a contiguous range.
//! Where the paper reaches that range through hash tables beside the
//! array, this crate enters through the trie's own level arrays — O(1) at
//! level 0 through a rank directory over the dense term ids, a binary
//! search of the child window at level 1, no hash table — and keeps what the
//! engines need from the range: **O(1) uniform sampling** inside it for
//! Wander Join / Audit Join random walks, and **O(log n) seeks** for the
//! worst-case-optimal trie joins (LFTJ / CTJ).
//!
//! Provided here:
//! - [`TrieIndex`] — one order's sorted trie, stored as a [`ColumnarTrie`],
//! - [`ColumnarTrie`] — the CSR per-level key/offset arrays (the one
//!   physical layout; [`Layout`] only names it),
//! - [`TrieCursor`] — the LFTJ `TrieIterator` interface over any prefix
//!   range, with galloping seeks,
//! - [`IndexedGraph`] — a graph with all its indexes and statistics,
//! - [`GraphStats`] — PostgreSQL-style cardinalities for the tipping point,
//! - [`FxHashMap`]/[`FxHasher`] — the fast integer hasher the engines'
//!   memo tables and the statistics use (the index itself holds no map).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod columnar;
pub mod delta;
pub mod hash;
pub mod indexed;
pub mod order;
pub mod stats;
pub mod store;
pub mod trie_iter;
pub mod update;

pub use columnar::{ColumnarTrie, SeekOutcome};
pub use delta::{LivePositions, LiveRange};
pub use hash::{pack2, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use indexed::IndexedGraph;
pub use order::IndexOrder;
pub use stats::{GraphStats, PredicateStats};
pub use store::{Layout, RowRange, TrieIndex};
pub use trie_iter::TrieCursor;
pub use update::{apply_batch, UpdateBatch};
