//! A pragmatic N-Triples reader and writer.
//!
//! Supports the subset of N-Triples needed to load real knowledge-graph
//! dumps (DBpedia, LinkedGeoData): IRIs in angle brackets, blank nodes
//! (`_:label`, mapped into a reserved IRI namespace), and literals with
//! optional language tags or datatype IRIs (folded into the lexical form,
//! since the exploration model treats literals opaquely). Comment lines
//! (`#`) and blank lines are skipped.

use std::io::{BufRead, Write};

use crate::error::RdfError;
use crate::graph::GraphBuilder;
use crate::term::{Term, TermKind, TermRef};

/// Namespace used to fold blank node labels into IRI space.
const BLANK_NS: &str = "urn:kgoa:blank:";

/// Parse a single N-Triples term starting at `input`. Returns the term and
/// the remaining input after the term.
fn parse_term(input: &str, line: usize) -> Result<(Term, &str), RdfError> {
    let input = input.trim_start();
    let err = |reason: &str| RdfError::Parse { line, reason: reason.to_owned() };
    if let Some(rest) = input.strip_prefix('<') {
        let end = rest.find('>').ok_or_else(|| err("unterminated IRI"))?;
        let iri = &rest[..end];
        Ok((Term::iri(iri), &rest[end + 1..]))
    } else if let Some(rest) = input.strip_prefix("_:") {
        let end = rest
            .find(|c: char| c.is_whitespace() || c == '.')
            .unwrap_or(rest.len());
        let label = &rest[..end];
        if label.is_empty() {
            return Err(err("empty blank node label"));
        }
        Ok((Term::iri(format!("{BLANK_NS}{label}")), &rest[end..]))
    } else if let Some(rest) = input.strip_prefix('"') {
        // Scan for the closing quote, honoring backslash escapes.
        let bytes = rest.as_bytes();
        let mut i = 0;
        let mut value = String::new();
        loop {
            if i >= bytes.len() {
                return Err(err("unterminated literal"));
            }
            match bytes[i] {
                b'"' => break,
                b'\\' => {
                    if i + 1 >= bytes.len() {
                        return Err(err("dangling escape in literal"));
                    }
                    let c = bytes[i + 1];
                    match c {
                        b'n' => value.push('\n'),
                        b't' => value.push('\t'),
                        b'r' => value.push('\r'),
                        b'"' => value.push('"'),
                        b'\\' => value.push('\\'),
                        b'u' | b'U' => {
                            let width = if c == b'u' { 4 } else { 8 };
                            let hex = rest
                                .get(i + 2..i + 2 + width)
                                .ok_or_else(|| err("truncated \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| err("invalid \\u escape"))?;
                            value.push(
                                char::from_u32(cp).ok_or_else(|| err("invalid code point"))?,
                            );
                            i += width;
                        }
                        _ => return Err(err("unknown escape in literal")),
                    }
                    i += 2;
                    continue;
                }
                _ => {
                    // Advance one UTF-8 character.
                    let ch_len = utf8_len(bytes[i]);
                    value.push_str(&rest[i..i + ch_len]);
                    i += ch_len;
                }
            }
        }
        let mut after = &rest[i + 1..];
        // Optional language tag or datatype — folded into the lexical form.
        if let Some(tagged) = after.strip_prefix('@') {
            let end = tagged
                .find(|c: char| c.is_whitespace() || c == '.')
                .unwrap_or(tagged.len());
            value.push('@');
            value.push_str(&tagged[..end]);
            after = &tagged[end..];
        } else if let Some(typed) = after.strip_prefix("^^<") {
            let end = typed.find('>').ok_or_else(|| err("unterminated datatype IRI"))?;
            value.push_str("^^");
            value.push_str(&typed[..end]);
            after = &typed[end + 1..];
        }
        Ok((Term::literal(value), after))
    } else {
        Err(err("expected '<', '_:' or '\"'"))
    }
}

#[inline]
fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Parse one N-Triples line into three terms, or `None` for blank/comment
/// lines.
pub(crate) fn parse_line(line_text: &str, line: usize) -> Result<Option<(Term, Term, Term)>, RdfError> {
    let trimmed = line_text.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let (s, rest) = parse_term(trimmed, line)?;
    let (p, rest) = parse_term(rest, line)?;
    let (o, rest) = parse_term(rest, line)?;
    let tail = rest.trim();
    if !tail.starts_with('.') {
        return Err(RdfError::Parse { line, reason: "expected terminating '.'".to_owned() });
    }
    if s.kind != TermKind::Iri {
        return Err(RdfError::Parse { line, reason: "subject must be an IRI".to_owned() });
    }
    if p.kind != TermKind::Iri {
        return Err(RdfError::Parse { line, reason: "predicate must be an IRI".to_owned() });
    }
    Ok(Some((s, p, o)))
}

/// Read N-Triples from a buffered reader into a [`GraphBuilder`].
/// Returns the number of triples read.
pub fn read_ntriples<R: BufRead>(reader: R, builder: &mut GraphBuilder) -> Result<usize, RdfError> {
    let mut count = 0;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if let Some((s, p, o)) = parse_line(&line, i + 1)? {
            builder.add_terms(s, p, o);
            count += 1;
        }
    }
    Ok(count)
}

/// Parse an N-Triples document held in a string.
pub fn read_ntriples_str(text: &str, builder: &mut GraphBuilder) -> Result<usize, RdfError> {
    read_ntriples(text.as_bytes(), builder)
}

/// Serialize a term in N-Triples syntax (literals are written with their
/// folded lexical form; escaping covers quotes, backslashes and newlines).
pub(crate) fn write_term<W: Write>(w: &mut W, term: TermRef<'_>) -> std::io::Result<()> {
    match term.kind {
        TermKind::Iri => write!(w, "<{}>", term.lexical),
        TermKind::Literal => {
            w.write_all(b"\"")?;
            for c in term.lexical.chars() {
                match c {
                    '"' => w.write_all(b"\\\"")?,
                    '\\' => w.write_all(b"\\\\")?,
                    '\n' => w.write_all(b"\\n")?,
                    '\r' => w.write_all(b"\\r")?,
                    '\t' => w.write_all(b"\\t")?,
                    _ => write!(w, "{c}")?,
                }
            }
            w.write_all(b"\"")
        }
    }
}

/// Serialize an entire graph as N-Triples.
pub fn write_ntriples<W: Write>(w: &mut W, graph: &crate::graph::Graph) -> std::io::Result<()> {
    for t in graph.triples() {
        let dict = graph.dict();
        let (s, p, o) = (
            dict.term(t.s).expect("triple id in dictionary"),
            dict.term(t.p).expect("triple id in dictionary"),
            dict.term(t.o).expect("triple id in dictionary"),
        );
        write_term(w, s)?;
        w.write_all(b" ")?;
        write_term(w, p)?;
        w.write_all(b" ")?;
        write_term(w, o)?;
        w.write_all(b" .\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn parses_simple_triple() {
        let (s, p, o) = parse_line("<http://x/a> <http://x/p> <http://x/b> .", 1)
            .unwrap()
            .unwrap();
        assert_eq!(s.lexical, "http://x/a");
        assert_eq!(p.lexical, "http://x/p");
        assert_eq!(o.lexical, "http://x/b");
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        assert!(parse_line("# a comment", 1).unwrap().is_none());
        assert!(parse_line("   ", 2).unwrap().is_none());
    }

    #[test]
    fn parses_literals_with_escapes() {
        let (_, _, o) =
            parse_line(r#"<u:a> <u:p> "he said \"hi\"\n" ."#, 1).unwrap().unwrap();
        assert_eq!(o.lexical, "he said \"hi\"\n");
        assert_eq!(o.kind, TermKind::Literal);
    }

    #[test]
    fn parses_language_tag_and_datatype() {
        let (_, _, o) = parse_line(r#"<u:a> <u:p> "bonjour"@fr ."#, 1).unwrap().unwrap();
        assert_eq!(o.lexical, "bonjour@fr");
        let (_, _, o) = parse_line(
            r#"<u:a> <u:p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
            1,
        )
        .unwrap()
        .unwrap();
        assert_eq!(o.lexical, "5^^http://www.w3.org/2001/XMLSchema#integer");
    }

    #[test]
    fn parses_unicode_escape() {
        let (_, _, o) = parse_line(r#"<u:a> <u:p> "é" ."#, 1).unwrap().unwrap();
        assert_eq!(o.lexical, "é");
    }

    #[test]
    fn parses_blank_nodes() {
        let (s, _, o) = parse_line("_:b1 <u:p> _:b2 .", 1).unwrap().unwrap();
        assert!(s.lexical.ends_with("b1"));
        assert!(o.lexical.ends_with("b2"));
        assert_eq!(s.kind, TermKind::Iri);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("<u:a> <u:p> <u:b>", 1).is_err()); // missing dot
        assert!(parse_line("<u:a <u:p> <u:b> .", 1).is_err()); // unterminated IRI
        assert!(parse_line(r#"<u:a> "p" <u:b> ."#, 1).is_err()); // literal predicate
        assert!(parse_line("bare words .", 1).is_err());
    }

    #[test]
    fn document_roundtrip() {
        let doc = "<u:a> <u:p> <u:b> .\n<u:a> <u:q> \"lit \\\"x\\\"\" .\n# comment\n";
        let mut b = GraphBuilder::new();
        let n = read_ntriples_str(doc, &mut b).unwrap();
        assert_eq!(n, 2);
        let g = b.build();
        let mut out = Vec::new();
        write_ntriples(&mut out, &g).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut b2 = GraphBuilder::new();
        read_ntriples_str(&text, &mut b2).unwrap();
        assert_eq!(b2.build().len(), g.len());
    }
}
