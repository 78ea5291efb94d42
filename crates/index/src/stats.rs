//! PostgreSQL-style cardinality statistics.
//!
//! The tipping point of Audit Join (§IV-D) uses "the same simple technique
//! for join-size estimation as used by PostgreSQL": the size of a two-way
//! join is estimated as the product of the input sizes divided by the
//! maximum number of distinct join-attribute values on either side. That
//! requires, per predicate, the triple count and the number of distinct
//! subjects/objects — all of which fall out of the PSO/POS trie indexes at
//! build time.

use crate::hash::FxHashMap;
use crate::store::TrieIndex;

/// Cardinality statistics for one predicate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateStats {
    /// Number of triples with this predicate.
    pub triples: u64,
    /// Number of distinct subjects among those triples.
    pub distinct_subjects: u64,
    /// Number of distinct objects among those triples.
    pub distinct_objects: u64,
}

/// Whole-graph and per-predicate cardinality statistics.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    /// Total number of triples.
    pub triples: u64,
    /// Distinct subjects across the whole graph.
    pub distinct_subjects: u64,
    /// Distinct predicates across the whole graph.
    pub distinct_predicates: u64,
    /// Distinct objects across the whole graph.
    pub distinct_objects: u64,
    per_predicate: FxHashMap<u32, PredicateStats>,
}

impl GraphStats {
    /// Derive statistics from the four paper-default indexes. `spo`/`ops`
    /// provide global distinct counts; `pso`/`pos` provide per-predicate
    /// distinct subject/object counts.
    pub(crate) fn from_indexes(
        spo: &TrieIndex,
        ops: &TrieIndex,
        pso: &TrieIndex,
        pos: &TrieIndex,
    ) -> Self {
        let mut per_predicate: FxHashMap<u32, PredicateStats> = FxHashMap::default();
        for (p, range) in pso.iter_l0() {
            let entry = per_predicate.entry(p).or_default();
            entry.triples = range.len() as u64;
            entry.distinct_subjects = u64::from(pso.children_of(p));
        }
        for (p, _) in pos.iter_l0() {
            let entry = per_predicate.entry(p).or_default();
            entry.distinct_objects = u64::from(pos.children_of(p));
        }
        GraphStats {
            triples: spo.len() as u64,
            distinct_subjects: spo.distinct_l0() as u64,
            distinct_predicates: pso.distinct_l0() as u64,
            distinct_objects: ops.distinct_l0() as u64,
            per_predicate,
        }
    }

    /// Statistics for one predicate (zeroes if the predicate is absent).
    pub fn predicate(&self, p: u32) -> PredicateStats {
        self.per_predicate.get(&p).copied().unwrap_or_default()
    }

    /// Number of predicates with statistics.
    pub fn predicate_count(&self) -> usize {
        self.per_predicate.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::IndexOrder;
    use kgoa_rdf::Triple;

    fn stats() -> GraphStats {
        let triples: Vec<Triple> = vec![
            [1, 10, 100],
            [1, 10, 101],
            [2, 10, 100],
            [2, 11, 100],
            [3, 11, 103],
        ]
        .into_iter()
        .map(Triple::from)
        .collect();
        let spo = TrieIndex::build(IndexOrder::Spo, &triples);
        let ops = TrieIndex::build(IndexOrder::Ops, &triples);
        let pso = TrieIndex::build(IndexOrder::Pso, &triples);
        let pos = TrieIndex::build(IndexOrder::Pos, &triples);
        GraphStats::from_indexes(&spo, &ops, &pso, &pos)
    }

    #[test]
    fn global_counts() {
        let s = stats();
        assert_eq!(s.triples, 5);
        assert_eq!(s.distinct_subjects, 3);
        assert_eq!(s.distinct_predicates, 2);
        assert_eq!(s.distinct_objects, 3);
    }

    #[test]
    fn per_predicate_counts() {
        let s = stats();
        let p10 = s.predicate(10);
        assert_eq!(p10.triples, 3);
        assert_eq!(p10.distinct_subjects, 2);
        assert_eq!(p10.distinct_objects, 2);
        let p11 = s.predicate(11);
        assert_eq!(p11.triples, 2);
        assert_eq!(p11.distinct_subjects, 2);
        assert_eq!(p11.distinct_objects, 2);
        assert_eq!(s.predicate_count(), 2);
    }

    #[test]
    fn missing_predicate_is_zeroes() {
        let s = stats();
        assert_eq!(s.predicate(999), PredicateStats::default());
    }
}
