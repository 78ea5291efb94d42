//! A printer for the SPARQL fragment of Fig. 4, so an exploration query can
//! be shown the way the paper writes it:
//!
//! ```sparql
//! SELECT ?v0 COUNT(DISTINCT ?v1) WHERE {
//!   ?v2 <http://dbpedia.org/ontology/birthPlace> ?v1 .
//!   ?v2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Person> .
//!   ?v1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?v0 .
//! } GROUP BY ?v0
//! ```
//!
//! Variables print as `?v<id>`; constants are resolved through a
//! [`Dictionary`] to `<IRI>`s and `"literal"`s.

use kgoa_rdf::{Dictionary, TermKind};

use crate::pattern::PatternTerm;
use crate::query::ExplorationQuery;

/// Render a query as SPARQL text, resolving term ids through the
/// dictionary.
pub fn to_sparql(query: &ExplorationQuery, dict: &Dictionary) -> String {
    use std::fmt::Write as _;
    let term = |t: PatternTerm| match t {
        PatternTerm::Var(v) => format!("?v{}", v.0),
        PatternTerm::Const(c) => match dict.term(c) {
            Some(t) if t.kind == TermKind::Literal => format!("\"{}\"", t.lexical),
            Some(t) => format!("<{}>", t.lexical),
            None => format!("<urn:kgoa:unknown:{}>", c.raw()),
        },
    };
    let mut out = String::new();
    let agg = if query.distinct() { "COUNT(DISTINCT" } else { "COUNT(" };
    writeln!(out, "SELECT ?v{} {} ?v{}) WHERE {{", query.alpha().0, agg, query.beta().0).unwrap();
    for p in query.patterns() {
        writeln!(out, "  {} {} {} .", term(p.s), term(p.p), term(p.o)).unwrap();
    }
    write!(out, "}} GROUP BY ?v{}", query.alpha().0).unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{TriplePattern, Var};
    use kgoa_rdf::vocab;

    #[test]
    fn prints_figure5_query() {
        // Fig. 5: birth places of persons, counted per class.
        let mut d = Dictionary::new();
        let birth_place = d.intern_iri("http://ex.org/birthPlace");
        let person = d.intern_iri("http://ex.org/Person");
        let rdf_type = d.intern_iri(vocab::RDF_TYPE);
        let (c, o, s) = (Var(0), Var(1), Var(2));
        let q = ExplorationQuery::new(
            vec![
                TriplePattern::new(s, birth_place, o),
                TriplePattern::new(s, rdf_type, person),
                TriplePattern::new(o, rdf_type, c),
            ],
            c,
            o,
            true,
        )
        .unwrap();
        assert_eq!(
            to_sparql(&q, &d),
            "SELECT ?v0 COUNT(DISTINCT ?v1) WHERE {\n\
             \x20 ?v2 <http://ex.org/birthPlace> ?v1 .\n\
             \x20 ?v2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Person> .\n\
             \x20 ?v1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?v0 .\n\
             } GROUP BY ?v0"
        );
    }
}
