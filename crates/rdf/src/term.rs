//! RDF terms and dictionary-encoded term identifiers.
//!
//! The knowledge graphs handled by this crate routinely contain millions of
//! triples, so all engines operate on dictionary-encoded [`TermId`]s (a
//! `u32` newtype) rather than on strings. The string form of a term is kept
//! in a [`crate::Dictionary`] and only consulted at the edges of the system
//! (parsing, display, user-facing charts).

use std::fmt;


/// A dictionary-encoded RDF term identifier.
///
/// Identifiers are dense: the `n`-th distinct term interned into a
/// [`crate::Dictionary`] receives id `n`. This keeps them usable as direct
/// indexes into side arrays (statistics, caches) and keeps triple storage at
/// 12 bytes per triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct TermId(pub u32);

impl TermId {
    /// The underlying raw `u32`.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Use as an index into a slice.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u32> for TermId {
    #[inline]
    fn from(raw: u32) -> Self {
        TermId(raw)
    }
}

impl From<TermId> for u32 {
    #[inline]
    fn from(id: TermId) -> Self {
        id.0
    }
}

/// The lexical kind of an RDF term.
///
/// Following the paper's data model (§III): subjects and predicates are IRIs
/// while objects are IRIs or literals. Blank nodes are treated as IRIs in a
/// reserved namespace, which is sufficient for counting queries (no blank
/// node semantics are needed for the exploration use-case).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// An IRI (or a blank node mapped into a reserved IRI namespace).
    Iri,
    /// A literal value (string, number, date, ...), stored lexically.
    Literal,
}

/// A decoded RDF term: its lexical value plus its kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Term {
    /// Lexical form. For IRIs this is the IRI itself without angle brackets;
    /// for literals it is the lexical value without quotes (datatype and
    /// language tags, when present, are folded into the lexical form since
    /// the exploration model never inspects them).
    pub lexical: String,
    /// Whether the term is an IRI or a literal.
    pub kind: TermKind,
}

impl Term {
    /// Create an IRI term.
    pub fn iri(value: impl Into<String>) -> Self {
        Term { lexical: value.into(), kind: TermKind::Iri }
    }

    /// Create a literal term.
    pub fn literal(value: impl Into<String>) -> Self {
        Term { lexical: value.into(), kind: TermKind::Literal }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TermKind::Iri => write!(f, "<{}>", self.lexical),
            TermKind::Literal => write!(f, "\"{}\"", self.lexical),
        }
    }
}

/// A term borrowed from a [`crate::Dictionary`]: its kind and a slice of
/// the dictionary's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermRef<'a> {
    /// Lexical form, as in [`Term::lexical`].
    pub lexical: &'a str,
    /// Whether the term is an IRI or a literal.
    pub kind: TermKind,
}

/// Well-known vocabulary IRIs used by the exploration model.
pub mod vocab {
    /// `rdf:type` — links an instance to its class.
    pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// `rdfs:subClassOf` — the direct subclass relation.
    pub const RDFS_SUBCLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    /// `owl:Thing` — the conventional root class.
    pub const OWL_THING: &str = "http://www.w3.org/2002/07/owl#Thing";
    /// Reflexive-transitive closure of `rdfs:subClassOf`, materialized
    /// offline exactly as described in §IV-A of the paper ("we materialize
    /// this subclass closure and view it as a raw relation").
    pub const KGOA_SUBCLASS_OF_TRANS: &str = "urn:kgoa:subClassOfTransitive";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_id_roundtrip() {
        let id = TermId(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(TermId::from(42u32), id);
    }

    #[test]
    fn term_id_ordering_matches_raw() {
        assert!(TermId(1) < TermId(2));
        assert_eq!(TermId(7), TermId(7));
    }

    #[test]
    fn term_constructors() {
        let i = Term::iri("http://example.org/a");
        assert_eq!(i.kind, TermKind::Iri);
        let l = Term::literal("42");
        assert_eq!(l.kind, TermKind::Literal);
    }

    #[test]
    fn term_display() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn term_id_display() {
        assert_eq!(TermId(9).to_string(), "#9");
    }
}
