//! Term ids are part of every estimate: walks, tie-breaks and golden
//! digests all see `u32` ids, so the dictionary must hand out the same id
//! to the same term, in the same order, whatever its storage layout.

use kgoa_datagen::{generate, KgConfig, Scale};
use kgoa_rdf::{TermId, TermKind};

/// FNV-1a over `id kind lexical\n` for every term, in id order.
fn dictionary_digest(config: &KgConfig) -> (usize, u64) {
    let graph = generate(config);
    let dict = graph.dict();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for raw in 0..dict.len() as u32 {
        let term = dict.term(TermId(raw)).expect("ids are dense");
        let kind = match term.kind {
            TermKind::Iri => 'I',
            TermKind::Literal => 'L',
        };
        for byte in format!("{raw} {kind} {}\n", term.lexical).bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (dict.len(), h)
}

/// Recorded on the `HashMap`-backed dictionary this layout replaced.
#[test]
fn tiny_dbpedia_like_ids_are_unchanged() {
    let (terms, digest) = dictionary_digest(&KgConfig::dbpedia_like(Scale::Tiny));
    assert_eq!((terms, digest), (3_151, 0xc34a_7db4_0e62_1fdf));
}
