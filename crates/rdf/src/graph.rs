//! The in-memory RDF graph: a deduplicated set of dictionary-encoded
//! triples plus the dictionary itself and cached vocabulary ids.

use std::collections::HashSet;
use std::sync::Arc;

use crate::dictionary::Dictionary;
use crate::term::{vocab, Term, TermId};
use crate::triple::Triple;

/// Cached ids of the vocabulary terms the exploration model needs on every
/// query. These are interned into every graph at construction time so that
/// query translation never has to fall back to string lookups.
#[derive(Debug, Clone, Copy)]
pub struct VocabIds {
    /// `rdf:type`.
    pub rdf_type: TermId,
    /// `rdfs:subClassOf` (direct subclass edges).
    pub subclass_of: TermId,
    /// Materialized reflexive-transitive subclass closure predicate.
    pub subclass_of_trans: TermId,
    /// `owl:Thing`, the root class.
    pub owl_thing: TermId,
}

/// An immutable, deduplicated RDF graph.
///
/// Built through [`GraphBuilder`]; once built, the triple set is fixed
/// (incremental indexing on updates is future work in the paper as well,
/// §VI). Triples are stored in sorted SPO order, which downstream index
/// construction reuses. The dictionary is `Arc`-shared, so cloning a graph
/// copies only its triples.
#[derive(Debug, Clone)]
pub struct Graph {
    dict: Arc<Dictionary>,
    triples: Vec<Triple>,
    vocab: VocabIds,
}

impl Graph {
    /// The graph's term dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// All triples, sorted in (s, p, o) order, deduplicated.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Cached vocabulary ids.
    pub fn vocab(&self) -> VocabIds {
        self.vocab
    }

    /// True if the graph contains the given triple (binary search).
    pub fn contains(&self, t: Triple) -> bool {
        self.triples.binary_search(&t).is_ok()
    }

    /// Reassemble a graph from a dictionary (owned or already shared) and
    /// a triple set. `triples` must be sorted and deduplicated and refer
    /// only to ids of `dict` (debug-asserted).
    pub fn from_sorted_parts(
        dict: impl Into<Arc<Dictionary>>,
        triples: Vec<Triple>,
        vocab: VocabIds,
    ) -> Graph {
        let dict = dict.into();
        debug_assert!(triples.windows(2).all(|w| w[0] < w[1]), "triples must be sorted+distinct");
        debug_assert!(triples
            .iter()
            .all(|t| t.s.index() < dict.len() && t.p.index() < dict.len() && t.o.index() < dict.len()));
        Graph { dict, triples, vocab }
    }

    /// Take the graph apart: the shared dictionary, the sorted triples and
    /// the vocabulary ids. Index construction keeps the dictionary and
    /// drops the triples once the orders are built.
    pub fn into_parts(self) -> (Arc<Dictionary>, Vec<Triple>, VocabIds) {
        (self.dict, self.triples, self.vocab)
    }
}

/// Builder for [`Graph`]: intern terms, add triples, then [`GraphBuilder::build`].
#[derive(Debug)]
pub struct GraphBuilder {
    dict: Dictionary,
    triples: Vec<Triple>,
    vocab: VocabIds,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// Create a builder with the vocabulary terms pre-interned.
    pub fn new() -> Self {
        let mut dict = Dictionary::new();
        let vocab = VocabIds {
            rdf_type: dict.intern_iri(vocab::RDF_TYPE),
            subclass_of: dict.intern_iri(vocab::RDFS_SUBCLASS_OF),
            subclass_of_trans: dict.intern_iri(vocab::KGOA_SUBCLASS_OF_TRANS),
            owl_thing: dict.intern_iri(vocab::OWL_THING),
        };
        GraphBuilder { dict, triples: Vec::new(), vocab }
    }

    /// Mutable access to the dictionary for interning terms.
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Read access to the dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Cached vocabulary ids.
    pub fn vocab(&self) -> VocabIds {
        self.vocab
    }

    /// Number of triples added so far (before deduplication).
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if no triple has been added yet.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Add an already-encoded triple.
    pub fn add(&mut self, t: Triple) {
        self.triples.push(t);
    }

    /// Intern three terms and add the resulting triple.
    pub(crate) fn add_terms(&mut self, s: Term, p: Term, o: Term) -> Triple {
        let mut id = |t: Term| self.dict.intern(t.kind, &t.lexical);
        let t = Triple::new(id(s), id(p), id(o));
        self.add(t);
        t
    }

    /// Convenience: add a triple of three IRIs given lexically.
    pub fn add_iris(&mut self, s: &str, p: &str, o: &str) -> Triple {
        let t = Triple::new(
            self.dict.intern_iri(s),
            self.dict.intern_iri(p),
            self.dict.intern_iri(o),
        );
        self.add(t);
        t
    }

    /// Materialize the reflexive-transitive subclass closure as triples with
    /// the [`vocab::KGOA_SUBCLASS_OF_TRANS`] predicate, per §IV-A of the
    /// paper. Every class (any term appearing in a `rdfs:subClassOf` edge or
    /// as the object of `rdf:type`) receives a reflexive closure triple, so
    /// explicitly-typed instances match their own class through the closure.
    ///
    /// Cycles in the subclass hierarchy are tolerated: closure computation
    /// uses a visited set per source class.
    pub fn materialize_subclass_closure(&mut self) {
        let closure = crate::hierarchy::subclass_closure(
            &self.triples,
            self.vocab.rdf_type,
            self.vocab.subclass_of,
        );
        let pred = self.vocab.subclass_of_trans;
        for (sub, sup) in closure {
            self.triples.push(Triple::new(sub, pred, sup));
        }
    }

    /// Finish building: sort, deduplicate, freeze. The dictionary releases
    /// its spare capacity, since nothing appends to it afterwards.
    pub fn build(mut self) -> Graph {
        self.triples.sort_unstable();
        self.triples.dedup();
        self.dict.shrink_to_fit();
        Graph { dict: Arc::new(self.dict), triples: self.triples, vocab: self.vocab }
    }
}

/// Ensure every class without a parent (other than the root itself) becomes
/// a direct subclass of the root class, mirroring the paper's treatment of
/// LinkedGeoData ("we explicitly add a class that is the parent of all
/// classes previously without a parent", §V-B).
///
/// Classes are terms that appear as subject or object of `rdfs:subClassOf`
/// or as object of `rdf:type`. Returns the number of edges added.
pub fn root_orphan_classes(builder: &mut GraphBuilder) -> usize {
    let vocab = builder.vocab();
    let mut classes: HashSet<TermId> = HashSet::new();
    let mut has_parent: HashSet<TermId> = HashSet::new();
    for t in &builder.triples {
        if t.p == vocab.subclass_of {
            classes.insert(t.s);
            classes.insert(t.o);
            has_parent.insert(t.s);
        } else if t.p == vocab.rdf_type {
            classes.insert(t.o);
        }
    }
    let mut orphans: Vec<TermId> = classes
        .into_iter()
        .filter(|c| *c != vocab.owl_thing && !has_parent.contains(c))
        .collect();
    orphans.sort_unstable();
    let added = orphans.len();
    for c in orphans {
        builder.add(Triple::new(c, vocab.subclass_of, vocab.owl_thing));
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dedups_and_sorts() {
        let mut b = GraphBuilder::new();
        b.add_iris("http://x/b", "http://x/p", "http://x/c");
        b.add_iris("http://x/a", "http://x/p", "http://x/c");
        b.add_iris("http://x/b", "http://x/p", "http://x/c");
        let g = b.build();
        assert_eq!(g.len(), 2);
        assert!(g.triples().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn vocab_is_pre_interned() {
        let b = GraphBuilder::new();
        let v = b.vocab();
        assert_eq!(b.dict().lookup_iri(vocab::RDF_TYPE), Some(v.rdf_type));
        assert_eq!(b.dict().lookup_iri(vocab::OWL_THING), Some(v.owl_thing));
    }

    #[test]
    fn contains_uses_binary_search() {
        let mut b = GraphBuilder::new();
        let t = b.add_iris("http://x/a", "http://x/p", "http://x/b");
        let g = b.build();
        assert!(g.contains(t));
        assert!(!g.contains(Triple::from([999, 999, 999])));
    }

    #[test]
    fn orphan_classes_get_rooted() {
        let mut b = GraphBuilder::new();
        // c1 <: c0, c0 is orphan; c2 is used as a type but never a subclass.
        let c0 = b.dict_mut().intern_iri("http://x/c0");
        let c1 = b.dict_mut().intern_iri("http://x/c1");
        let c2 = b.dict_mut().intern_iri("http://x/c2");
        let i = b.dict_mut().intern_iri("http://x/i");
        let v = b.vocab();
        b.add(Triple::new(c1, v.subclass_of, c0));
        b.add(Triple::new(i, v.rdf_type, c2));
        let added = root_orphan_classes(&mut b);
        assert_eq!(added, 2); // c0 and c2
        let g = b.build();
        assert!(g.contains(Triple::new(c0, v.subclass_of, v.owl_thing)));
        assert!(g.contains(Triple::new(c2, v.subclass_of, v.owl_thing)));
        assert!(!g.contains(Triple::new(c1, v.subclass_of, v.owl_thing)));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
    }
}
