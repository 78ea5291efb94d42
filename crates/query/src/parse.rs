//! A parser for the SPARQL fragment of Fig. 4 — so exploration queries can
//! be written the way the paper writes them:
//!
//! ```sparql
//! PREFIX dbo: <http://dbpedia.org/ontology/>
//! SELECT ?c COUNT(DISTINCT ?o) WHERE {
//!   ?s dbo:birthPlace ?o .
//!   ?s a dbo:Person .
//!   ?o a ?c .
//! } GROUP BY ?c
//! ```
//!
//! Supported: `PREFIX` declarations, `<IRI>` and `prefix:local` terms,
//! `"literal"` objects, `?var` variables, the `a` keyword for `rdf:type`,
//! `COUNT(?x)` / `COUNT(DISTINCT ?x)`, and `GROUP BY`. The `GROUP BY`
//! variable must match the projected variable. Constants are resolved
//! against a [`Dictionary`]; unknown terms are reported (a constant the
//! graph has never seen cannot match anything, which is almost always a
//! typo worth surfacing).

use std::collections::HashMap;
use std::fmt;

use kgoa_rdf::{vocab, Dictionary, TermId, TermKind};

use crate::error::QueryError;
use crate::pattern::{PatternTerm, TriplePattern, Var};
use crate::query::ExplorationQuery;

/// Errors raised while parsing query text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Unexpected token or end of input.
    Syntax {
        /// Byte offset of the problem.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// A `prefix:` without a matching `PREFIX` declaration.
    UnknownPrefix(String),
    /// A constant that the graph's dictionary has never seen.
    UnknownTerm(String),
    /// The parsed query failed structural validation.
    Invalid(QueryError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { at, message } => write!(f, "syntax error at byte {at}: {message}"),
            ParseError::UnknownPrefix(p) => write!(f, "undeclared prefix {p:?}"),
            ParseError::UnknownTerm(t) => {
                write!(f, "term {t:?} does not occur in the graph's dictionary")
            }
            ParseError::Invalid(e) => write!(f, "invalid query: {e}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    dict: &'a Dictionary,
    prefixes: HashMap<String, String>,
    vars: HashMap<String, Var>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, dict: &'a Dictionary) -> Self {
        Parser { text, pos: 0, dict, prefixes: HashMap::new(), vars: HashMap::new() }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::Syntax { at: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        loop {
            let rest = &self.text[self.pos..];
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            if trimmed.starts_with('#') {
                // Comment to end of line.
                match trimmed.find('\n') {
                    Some(nl) => self.pos += nl + 1,
                    None => self.pos = self.text.len(),
                }
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.text[self.pos..].chars().next()
    }

    /// Consume an exact keyword (case-insensitive).
    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        if rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {kw:?}")))
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        if rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn char(&mut self, c: char) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(self.err(format!("expected {c:?}")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        let end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected an identifier"));
        }
        self.pos += end;
        Ok(rest[..end].to_owned())
    }

    fn variable(&mut self) -> Result<Var, ParseError> {
        self.char('?')?;
        let name = self.ident()?;
        let next_id = self.vars.len() as u16;
        Ok(*self.vars.entry(name).or_insert(Var(next_id)))
    }

    fn iri_ref(&mut self) -> Result<String, ParseError> {
        self.char('<')?;
        let rest = &self.text[self.pos..];
        let end = rest.find('>').ok_or_else(|| self.err("unterminated IRI"))?;
        let iri = rest[..end].to_owned();
        self.pos += end + 1;
        Ok(iri)
    }

    fn resolve_iri(&self, iri: &str) -> Result<TermId, ParseError> {
        self.dict
            .lookup_iri(iri)
            .ok_or_else(|| ParseError::UnknownTerm(iri.to_owned()))
    }

    /// A term in subject/predicate/object position.
    fn term(&mut self) -> Result<PatternTerm, ParseError> {
        match self.peek() {
            Some('?') => Ok(PatternTerm::Var(self.variable()?)),
            Some('<') => {
                let iri = self.iri_ref()?;
                Ok(PatternTerm::Const(self.resolve_iri(&iri)?))
            }
            Some('"') => {
                self.char('"')?;
                let rest = &self.text[self.pos..];
                let end = rest.find('"').ok_or_else(|| self.err("unterminated literal"))?;
                let value = rest[..end].to_owned();
                self.pos += end + 1;
                self.dict
                    .lookup_literal(&value)
                    .map(PatternTerm::Const)
                    .ok_or(ParseError::UnknownTerm(value))
            }
            Some('a') if self.is_type_keyword() => {
                self.pos += 1;
                Ok(PatternTerm::Const(self.resolve_iri(vocab::RDF_TYPE)?))
            }
            Some(c) if c.is_alphabetic() => {
                // prefixed name
                let prefix = self.ident()?;
                self.char(':')?;
                let local = self.ident()?;
                let base = self
                    .prefixes
                    .get(&prefix)
                    .ok_or(ParseError::UnknownPrefix(prefix))?;
                let iri = format!("{base}{local}");
                Ok(PatternTerm::Const(self.resolve_iri(&iri)?))
            }
            _ => Err(self.err("expected a variable, IRI, literal or prefixed name")),
        }
    }

    /// True if the upcoming `a` stands alone (the rdf:type keyword).
    fn is_type_keyword(&mut self) -> bool {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        rest.starts_with('a')
            && rest[1..]
                .chars()
                .next()
                .is_none_or(|c| c.is_whitespace() || c == '<' || c == '?')
    }

    fn parse(&mut self) -> Result<ExplorationQuery, ParseError> {
        while self.try_keyword("PREFIX") {
            let prefix = self.ident()?;
            self.char(':')?;
            let iri = self.iri_ref()?;
            self.prefixes.insert(prefix, iri);
        }
        self.keyword("SELECT")?;
        let alpha = self.variable()?;
        self.keyword("COUNT")?;
        self.char('(')?;
        let distinct = self.try_keyword("DISTINCT");
        let beta = self.variable()?;
        self.char(')')?;
        self.keyword("WHERE")?;
        self.char('{')?;
        let mut patterns = Vec::new();
        loop {
            if self.peek() == Some('}') {
                self.pos += 1;
                break;
            }
            let s = self.term()?;
            let p = self.term()?;
            let o = self.term()?;
            patterns.push(TriplePattern { s, p, o });
            // The trailing dot is optional before '}'.
            if self.peek() == Some('.') {
                self.pos += 1;
            }
        }
        self.keyword("GROUP")?;
        self.keyword("BY")?;
        let group = self.variable()?;
        if group != alpha {
            return Err(self.err("GROUP BY variable must match the projected variable"));
        }
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing input after GROUP BY"));
        }
        ExplorationQuery::new(patterns, alpha, beta, distinct).map_err(ParseError::Invalid)
    }
}

/// Parse the SPARQL fragment of Fig. 4 against a graph's dictionary.
pub fn parse_query(text: &str, dict: &Dictionary) -> Result<ExplorationQuery, ParseError> {
    Parser::new(text, dict).parse()
}

/// Render a query back to parseable SPARQL text, resolving term ids
/// through the dictionary. Inverse of [`parse_query`] up to whitespace.
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
    use kgoa_rdf::GraphBuilder;

    fn dict() -> Dictionary {
        let mut b = GraphBuilder::new();
        for iri in ["http://ex.org/birthPlace", "http://ex.org/Person", "http://ex.org/x"] {
            b.dict_mut().intern_iri(iri);
        }
        b.dict_mut().intern_literal("42");
        b.dict().clone()
    }

    #[test]
    fn parses_figure5_query() {
        let d = dict();
        let q = parse_query(
            r#"
            SELECT ?c COUNT(DISTINCT ?o) WHERE {
              ?s <http://ex.org/birthPlace> ?o .
              ?s a <http://ex.org/Person> .
              ?o a ?c .
            } GROUP BY ?c
            "#,
            &d,
        )
        .unwrap();
        assert_eq!(q.patterns().len(), 3);
        assert!(q.distinct());
        // ?c first mentioned in SELECT → Var(0); ?o → Var(1); ?s → Var(2).
        assert_eq!(q.alpha(), Var(0));
        assert_eq!(q.beta(), Var(1));
        let bp = d.lookup_iri("http://ex.org/birthPlace").unwrap();
        assert_eq!(q.patterns()[0].p, PatternTerm::Const(bp));
        let rdf_type = d.lookup_iri(vocab::RDF_TYPE).unwrap();
        assert_eq!(q.patterns()[1].p, PatternTerm::Const(rdf_type));
    }

    #[test]
    fn parses_prefixes_and_non_distinct() {
        let d = dict();
        let q = parse_query(
            r#"
            PREFIX ex: <http://ex.org/>
            SELECT ?c COUNT(?s) WHERE {
              ?s ex:birthPlace ?c
            } GROUP BY ?c
            "#,
            &d,
        )
        .unwrap();
        assert!(!q.distinct());
        assert_eq!(q.patterns().len(), 1);
    }

    #[test]
    fn parses_literal_object_and_comments() {
        let d = dict();
        let q = parse_query(
            r#"
            # find subjects whose birthPlace chain hits the literal
            SELECT ?c COUNT(?s) WHERE {
              ?s <http://ex.org/birthPlace> "42" . # inline comment
              ?s a ?c .
            } GROUP BY ?c
            "#,
            &d,
        )
        .unwrap();
        let lit = d.lookup_literal("42").unwrap();
        assert_eq!(q.patterns()[0].o, PatternTerm::Const(lit));
    }

    #[test]
    fn unknown_term_is_reported() {
        let d = dict();
        let e = parse_query(
            "SELECT ?c COUNT(?s) WHERE { ?s <http://nope/zzz> ?c } GROUP BY ?c",
            &d,
        )
        .unwrap_err();
        assert!(matches!(e, ParseError::UnknownTerm(_)));
    }

    #[test]
    fn undeclared_prefix_is_reported() {
        let d = dict();
        let e = parse_query(
            "SELECT ?c COUNT(?s) WHERE { ?s nope:p ?c } GROUP BY ?c",
            &d,
        )
        .unwrap_err();
        assert!(matches!(e, ParseError::UnknownPrefix(_)));
    }

    #[test]
    fn group_by_must_match_projection() {
        let d = dict();
        let e = parse_query(
            "SELECT ?c COUNT(?s) WHERE { ?s a ?c } GROUP BY ?s",
            &d,
        )
        .unwrap_err();
        assert!(matches!(e, ParseError::Syntax { .. }));
    }

    #[test]
    fn structural_errors_surface() {
        let d = dict();
        // Cyclic: two patterns sharing two variables.
        let e = parse_query(
            r#"SELECT ?c COUNT(?s) WHERE {
                 ?s <http://ex.org/birthPlace> ?c .
                 ?s <http://ex.org/Person> ?c .
               } GROUP BY ?c"#,
            &d,
        )
        .unwrap_err();
        assert_eq!(e, ParseError::Invalid(QueryError::Cyclic));
    }

    #[test]
    fn syntax_errors_carry_position() {
        let d = dict();
        let e = parse_query("SELECT ?c BOGUS", &d).unwrap_err();
        match e {
            ParseError::Syntax { at, .. } => assert!(at >= 10),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_to_sparql() {
        let d = dict();
        let text = r#"
            SELECT ?c COUNT(DISTINCT ?o) WHERE {
              ?s <http://ex.org/birthPlace> ?o .
              ?o a ?c .
            } GROUP BY ?c
        "#;
        let q1 = parse_query(text, &d).unwrap();
        let rendered = to_sparql(&q1, &d);
        let q2 = parse_query(&rendered, &d).unwrap();
        // Variable ids may be renumbered; compare structure via re-render.
        assert_eq!(rendered, to_sparql(&q2, &d));
    }
}
