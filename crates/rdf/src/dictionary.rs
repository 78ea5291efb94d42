//! Interning dictionary mapping RDF terms to dense [`TermId`]s and back.

use std::collections::HashMap;

use crate::term::{Term, TermId, TermKind};

/// A bidirectional, append-only dictionary of RDF terms.
///
/// Terms are interned once; the `n`-th distinct term receives [`TermId`]
/// `n`. Lookups by id are O(1) array accesses; lookups by lexical form are
/// hash lookups. Interning the same term twice returns the same id, and ids
/// are never reused or invalidated.
///
/// IRIs and literals with the same lexical form are distinct terms (e.g.
/// the IRI `urn:x:5` vs the literal `"urn:x:5"`).
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Term>,
    by_lexical: HashMap<(String, TermKind), TermId>,
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no term has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Intern a term, returning its id. Idempotent.
    pub fn intern(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.by_lexical.get(&(term.lexical.clone(), term.kind)) {
            return id;
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("dictionary overflow: >4G terms"));
        self.by_lexical.insert((term.lexical.clone(), term.kind), id);
        self.terms.push(term);
        id
    }

    /// Intern an IRI given by its lexical form.
    pub fn intern_iri(&mut self, iri: impl Into<String>) -> TermId {
        self.intern(Term::iri(iri))
    }

    /// Intern a literal given by its lexical form.
    pub fn intern_literal(&mut self, value: impl Into<String>) -> TermId {
        self.intern(Term::literal(value))
    }

    /// Resolve an id back to its term. Returns `None` for ids not issued by
    /// this dictionary.
    pub fn term(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id.index())
    }

    /// Resolve an id to its lexical form, or `"<unknown>"` if the id was not
    /// issued by this dictionary. Convenient for display code.
    pub fn lexical(&self, id: TermId) -> &str {
        self.terms.get(id.index()).map_or("<unknown>", |t| t.lexical.as_str())
    }

    /// Look up an already-interned IRI.
    pub fn lookup_iri(&self, iri: &str) -> Option<TermId> {
        self.by_lexical.get(&(iri.to_owned(), TermKind::Iri)).copied()
    }

    /// Look up an already-interned literal.
    pub fn lookup_literal(&self, value: &str) -> Option<TermId> {
        self.by_lexical.get(&(value.to_owned(), TermKind::Literal)).copied()
    }

    /// Iterate over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms.iter().enumerate().map(|(i, t)| (TermId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern_iri("http://x/a");
        let b = d.intern_iri("http://x/b");
        let a2 = d.intern_iri("http://x/a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        for i in 0..100 {
            let id = d.intern_iri(format!("http://x/{i}"));
            assert_eq!(id.raw(), i);
        }
    }

    #[test]
    fn iri_and_literal_are_distinct() {
        let mut d = Dictionary::new();
        let i = d.intern_iri("42");
        let l = d.intern_literal("42");
        assert_ne!(i, l);
        assert_eq!(d.lookup_iri("42"), Some(i));
        assert_eq!(d.lookup_literal("42"), Some(l));
    }

    #[test]
    fn term_roundtrip() {
        let mut d = Dictionary::new();
        let id = d.intern_literal("hello");
        assert_eq!(d.term(id).unwrap().lexical, "hello");
        assert_eq!(d.lexical(id), "hello");
        assert_eq!(d.lexical(TermId(999)), "<unknown>");
        assert!(d.term(TermId(999)).is_none());
    }

    #[test]
    fn lookup_missing_is_none() {
        let d = Dictionary::new();
        assert!(d.lookup_iri("nope").is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut d = Dictionary::new();
        d.intern_iri("a");
        d.intern_literal("b");
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, TermId(0));
        assert_eq!(pairs[1].0, TermId(1));
        assert_eq!(pairs[1].1.lexical, "b");
    }
}
