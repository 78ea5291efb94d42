//! Interning dictionary mapping RDF terms to dense [`TermId`]s and back.

use crate::term::{TermId, TermKind, TermRef};

/// Marks a free slot of the lookup table.
const EMPTY: u32 = u32::MAX;
/// The bit of an `ends` entry that marks a literal; the rest is the offset.
const LITERAL: u32 = 1 << 31;

/// A bidirectional, append-only dictionary of RDF terms.
///
/// Terms are interned once; the `n`-th distinct term receives [`TermId`]
/// `n`. Lookups by id are O(1) array accesses; lookups by lexical form are
/// hash lookups. Interning the same term twice returns the same id, and ids
/// are never reused or invalidated.
///
/// IRIs and literals with the same lexical form are distinct terms (e.g.
/// the IRI `urn:x:5` vs the literal `"urn:x:5"`).
///
/// Each lexical form is stored once, in one `String` arena (at most 2 GiB),
/// in id order. Entry `i` of `ends` is the arena offset where term `i`
/// ends, with its top bit set for a literal. The lexical lookup is an
/// open-addressing table of ids (linear probing, at most 3/4 full) whose
/// probes compare against arena slices, so it owns no key, and neither a
/// lookup nor a repeated intern allocates.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    arena: String,
    ends: Vec<u32>,
    slots: Vec<u32>,
}

/// Fx-style multiply-rotate over 8-byte words, with the kind and length
/// folded in, then a murmur3 finaliser: Fx's last multiply leaves the low
/// bits weakest, and the slot index is taken from them.
fn hash(kind: TermKind, lexical: &str) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let add = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let bytes = lexical.as_bytes();
    let mut h = add(u64::from(kind == TermKind::Literal), bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = add(h, u64::from_le_bytes(word));
    }
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no term has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn get(&self, i: usize) -> TermRef<'_> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] & !LITERAL };
        let end = self.ends[i];
        let kind = if end & LITERAL == 0 { TermKind::Iri } else { TermKind::Literal };
        TermRef { lexical: &self.arena[start as usize..(end & !LITERAL) as usize], kind }
    }

    /// The table slot holding `(kind, lexical)`, or the empty slot where it
    /// would go. The table must not be empty.
    fn probe(&self, kind: TermKind, lexical: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = hash(kind, lexical) as usize & mask;
        let key = TermRef { lexical, kind };
        while self.slots[slot] != EMPTY && self.get(self.slots[slot] as usize) != key {
            slot = (slot + 1) & mask;
        }
        slot
    }

    fn lookup(&self, kind: TermKind, lexical: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        let id = self.slots[self.probe(kind, lexical)];
        (id != EMPTY).then_some(TermId(id))
    }

    /// Intern a term given by its kind and lexical form, returning its id.
    /// Idempotent.
    pub fn intern(&mut self, kind: TermKind, lexical: &str) -> TermId {
        if (self.len() + 1) * 4 > self.slots.len() * 3 {
            // Double the table (16 slots at first) and re-place every id.
            self.slots = vec![EMPTY; (self.slots.len() * 2).max(16)];
            for i in 0..self.len() {
                let t = self.get(i);
                let slot = self.probe(t.kind, t.lexical);
                self.slots[slot] = i as u32;
            }
        }
        let slot = self.probe(kind, lexical);
        if self.slots[slot] == EMPTY {
            let end = u32::try_from(self.arena.len() + lexical.len()).ok();
            let end = end.filter(|&end| end & LITERAL == 0);
            let end = end.expect("dictionary overflow: >2 GiB of lexical forms");
            // Every term but the two empty ones takes an arena byte, so ids stay below EMPTY.
            self.slots[slot] = self.len() as u32;
            self.arena.push_str(lexical);
            self.ends.push(if kind == TermKind::Literal { end | LITERAL } else { end });
        }
        TermId(self.slots[slot])
    }

    /// Intern an IRI given by its lexical form.
    pub fn intern_iri(&mut self, iri: impl AsRef<str>) -> TermId {
        self.intern(TermKind::Iri, iri.as_ref())
    }

    /// Intern a literal given by its lexical form.
    pub fn intern_literal(&mut self, value: impl AsRef<str>) -> TermId {
        self.intern(TermKind::Literal, value.as_ref())
    }

    /// Resolve an id back to its term. Returns `None` for ids not issued by
    /// this dictionary.
    pub fn term(&self, id: TermId) -> Option<TermRef<'_>> {
        (id.index() < self.len()).then(|| self.get(id.index()))
    }

    /// Resolve an id to its lexical form, or `"<unknown>"` if the id was not
    /// issued by this dictionary. Convenient for display code.
    pub fn lexical(&self, id: TermId) -> &str {
        self.term(id).map_or("<unknown>", |t| t.lexical)
    }

    /// Look up an already-interned IRI.
    pub fn lookup_iri(&self, iri: &str) -> Option<TermId> {
        self.lookup(TermKind::Iri, iri)
    }

    /// Look up an already-interned literal.
    pub fn lookup_literal(&self, value: &str) -> Option<TermId> {
        self.lookup(TermKind::Literal, value)
    }

    /// Iterate over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, TermRef<'_>)> {
        (0..self.len()).map(|i| (TermId(i as u32), self.get(i)))
    }

    /// Heap bytes held by the arena, the offsets and the lookup table, at
    /// their allocated capacity.
    pub fn heap_bytes(&self) -> usize {
        self.arena.capacity() + 4 * (self.ends.capacity() + self.slots.capacity())
    }

    /// Release the spare capacity of the arena and the offsets (the table
    /// keeps its power-of-two size). Called once a builder hands its
    /// dictionary over to a graph.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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

    /// SplitMix64: a seeded stream for the differential test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The arena dictionary against a `HashMap` model: ids, lexical forms,
    /// kinds, both lookups, iteration order and length agree after every
    /// step of a seeded mix of fresh and repeated interns, past every table
    /// growth up to 10⁵ terms. The vocabulary mixes `""`, multi-byte UTF-8
    /// and forms interned as both an IRI and a literal.
    #[test]
    fn matches_a_hash_map_model() {
        const N: usize = 100_000;
        const WORDS: [&str; 6] = ["", "é", "日本語", "x", "urn:a", "🦀 crab"];
        let mut state = 0x0D1C_7000u64;
        let mut d = Dictionary::new();
        let mut model: HashMap<(String, TermKind), TermId> = HashMap::new();
        let mut order: Vec<(String, TermKind)> = Vec::new();
        let mut next_check = 1;
        while order.len() < N {
            let r = splitmix(&mut state);
            let kind = if r & 1 == 0 { TermKind::Iri } else { TermKind::Literal };
            let lexical = match (r >> 1) % 8 {
                // Repeat an earlier term, under either kind.
                0 | 1 if !order.is_empty() => order[(r >> 8) as usize % order.len()].0.clone(),
                2 => WORDS[(r >> 8) as usize % WORDS.len()].to_owned(),
                _ => format!("{}{}", WORDS[(r >> 8) as usize % WORDS.len()], r >> 40),
            };
            let want = *model.entry((lexical.clone(), kind)).or_insert_with(|| {
                order.push((lexical.clone(), kind));
                TermId(order.len() as u32 - 1)
            });
            assert_eq!(d.intern(kind, &lexical), want, "{lexical:?} {kind:?}");
            assert_eq!(d.len(), order.len());
            if order.len() >= next_check || order.len() == N {
                next_check *= 2;
                for (i, (term, (lexical, kind))) in d.iter().zip(&order).enumerate() {
                    assert_eq!(term.0, TermId(i as u32));
                    assert_eq!((term.1.lexical, term.1.kind), (lexical.as_str(), *kind));
                    assert_eq!(d.term(term.0), Some(term.1));
                    assert_eq!(d.lexical(term.0), lexical);
                }
                for ((lexical, kind), &id) in &model {
                    let other = match kind {
                        TermKind::Iri => TermKind::Literal,
                        TermKind::Literal => TermKind::Iri,
                    };
                    let (same, flipped) = match kind {
                        TermKind::Iri => (d.lookup_iri(lexical), d.lookup_literal(lexical)),
                        TermKind::Literal => (d.lookup_literal(lexical), d.lookup_iri(lexical)),
                    };
                    assert_eq!(same, Some(id));
                    assert_eq!(flipped, model.get(&(lexical.clone(), other)).copied());
                }
                assert_eq!(d.iter().count(), model.len());
            }
        }
        assert!(d.term(TermId(d.len() as u32)).is_none());
    }

    #[test]
    fn interning_into_a_clone_leaves_the_original() {
        let mut d = Dictionary::new();
        for i in 0..1_000 {
            d.intern_iri(format!("u:n{i}"));
        }
        let mut c = d.clone();
        // Enough new terms to grow the clone's table past the original's.
        for i in 0..2_000 {
            c.intern_literal(format!("u:m{i}"));
        }
        assert_eq!(c.lookup_iri("u:n7"), d.lookup_iri("u:n7"));
        assert_eq!(d.len(), 1_000);
        assert!(d.lookup_literal("u:m0").is_none());
        assert!(d.term(TermId(1_000)).is_none());
        assert_eq!(d.lexical(TermId(999)), "u:n999");
    }

    /// 10⁵ generator-style IRIs cost at most their lexical bytes plus
    /// 16 B per term, once the builder has released spare capacity.
    #[test]
    fn heap_bytes_stay_near_the_lexical_bytes() {
        let mut d = Dictionary::new();
        let mut lexical_bytes = 0;
        for i in 0..100_000 {
            let iri = format!("http://kgoa.dev/entity/e{i}");
            lexical_bytes += iri.len();
            d.intern_iri(iri);
        }
        d.shrink_to_fit();
        let bound = lexical_bytes + 16 * d.len();
        assert!(d.heap_bytes() <= bound, "{} B > {bound} B", d.heap_bytes());
    }
}
