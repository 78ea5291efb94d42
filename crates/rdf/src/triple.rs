//! Dictionary-encoded triples and triple components.


use crate::term::TermId;

/// The three attribute positions of a triple.
///
/// Index orders (SPO, POS, ...) and triple patterns are expressed in terms
/// of these positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Position {
    /// Subject.
    S,
    /// Predicate.
    P,
    /// Object.
    O,
}

impl Position {
    /// All three positions in S, P, O order.
    pub const ALL: [Position; 3] = [Position::S, Position::P, Position::O];

    /// Array index of this position within an `[s, p, o]` triple.
    #[inline]
    pub const fn idx(self) -> usize {
        match self {
            Position::S => 0,
            Position::P => 1,
            Position::O => 2,
        }
    }
}

/// A dictionary-encoded RDF triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject id.
    pub s: TermId,
    /// Predicate id.
    pub p: TermId,
    /// Object id.
    pub o: TermId,
}

impl Triple {
    /// Construct a triple.
    #[inline]
    pub const fn new(s: TermId, p: TermId, o: TermId) -> Self {
        Triple { s, p, o }
    }

    /// The component at a given position.
    #[inline]
    pub fn get(&self, pos: Position) -> TermId {
        match pos {
            Position::S => self.s,
            Position::P => self.p,
            Position::O => self.o,
        }
    }
}

impl From<[u32; 3]> for Triple {
    #[inline]
    fn from(a: [u32; 3]) -> Self {
        Triple::new(TermId(a[0]), TermId(a[1]), TermId(a[2]))
    }
}

impl From<Triple> for [u32; 3] {
    #[inline]
    fn from(t: Triple) -> Self {
        [t.s.0, t.p.0, t.o.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_indices() {
        assert_eq!(Position::S.idx(), 0);
        assert_eq!(Position::P.idx(), 1);
        assert_eq!(Position::O.idx(), 2);
    }

    #[test]
    fn triple_get_by_position() {
        let t = Triple::new(TermId(1), TermId(2), TermId(3));
        assert_eq!(t.get(Position::S), TermId(1));
        assert_eq!(t.get(Position::P), TermId(2));
        assert_eq!(t.get(Position::O), TermId(3));
    }

    #[test]
    fn triple_array_roundtrip() {
        let t = Triple::from([4, 5, 6]);
        let a: [u32; 3] = t.into();
        assert_eq!(a, [4, 5, 6]);
    }

    #[test]
    fn triple_ordering_is_spo_lexicographic() {
        let a = Triple::from([1, 1, 2]);
        let b = Triple::from([1, 2, 0]);
        assert!(a < b);
    }
}
