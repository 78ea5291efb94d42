//! Triple patterns: the building blocks of exploration queries.

use kgoa_rdf::{Position, TermId, Triple};

/// A query variable. Variables are numbered densely within a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Var(pub u16);

impl Var {
    /// Use as an index into per-variable arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "?v{}", self.0)
    }
}

/// One slot of a triple pattern: a variable or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternTerm {
    /// A query variable.
    Var(Var),
    /// A constant term id.
    Const(TermId),
}

impl PatternTerm {
    /// The variable, if this slot is one.
    #[inline]
    pub fn as_var(self) -> Option<Var> {
        match self {
            PatternTerm::Var(v) => Some(v),
            PatternTerm::Const(_) => None,
        }
    }

    /// The constant, if this slot is one.
    #[inline]
    pub(crate) fn as_const(self) -> Option<TermId> {
        match self {
            PatternTerm::Const(c) => Some(c),
            PatternTerm::Var(_) => None,
        }
    }

    /// True if this slot is a variable.
    #[inline]
    pub(crate) fn is_var(self) -> bool {
        matches!(self, PatternTerm::Var(_))
    }
}

impl From<Var> for PatternTerm {
    fn from(v: Var) -> Self {
        PatternTerm::Var(v)
    }
}

impl From<TermId> for PatternTerm {
    fn from(c: TermId) -> Self {
        PatternTerm::Const(c)
    }
}

/// A triple pattern `(s, p, o)` whose slots are variables or constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject slot.
    pub s: PatternTerm,
    /// Predicate slot.
    pub p: PatternTerm,
    /// Object slot.
    pub o: PatternTerm,
}

impl TriplePattern {
    /// Construct a pattern from three slots.
    pub fn new(
        s: impl Into<PatternTerm>,
        p: impl Into<PatternTerm>,
        o: impl Into<PatternTerm>,
    ) -> Self {
        TriplePattern { s: s.into(), p: p.into(), o: o.into() }
    }

    /// The slot at a position.
    #[inline]
    pub fn get(&self, pos: Position) -> PatternTerm {
        match pos {
            Position::S => self.s,
            Position::P => self.p,
            Position::O => self.o,
        }
    }

    /// The position of a variable within this pattern, if present.
    pub fn position_of(&self, v: Var) -> Option<Position> {
        Position::ALL.into_iter().find(|pos| self.get(*pos) == PatternTerm::Var(v))
    }

    /// Iterate the variables of this pattern with their positions.
    pub fn vars(&self) -> impl Iterator<Item = (Var, Position)> + '_ {
        Position::ALL
            .into_iter()
            .filter_map(|pos| self.get(pos).as_var().map(|v| (v, pos)))
    }

    /// Iterate the constants of this pattern with their positions.
    pub(crate) fn consts(&self) -> impl Iterator<Item = (TermId, Position)> + '_ {
        Position::ALL
            .into_iter()
            .filter_map(|pos| self.get(pos).as_const().map(|c| (c, pos)))
    }

    /// Number of variable slots (0..=3).
    pub fn var_count(&self) -> usize {
        self.vars().count()
    }

    /// True if a concrete triple matches this pattern's constants
    /// (variables match anything; repeated variables are not checked here —
    /// query validation forbids them).
    pub fn matches(&self, t: Triple) -> bool {
        Position::ALL.into_iter().all(|pos| match self.get(pos) {
            PatternTerm::Var(_) => true,
            PatternTerm::Const(c) => t.get(pos) == c,
        })
    }
}

impl std::fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slot = |t: PatternTerm| match t {
            PatternTerm::Var(v) => v.to_string(),
            PatternTerm::Const(c) => c.to_string(),
        };
        write!(f, "{} {} {} .", slot(self.s), slot(self.p), slot(self.o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vars_and_consts_enumeration() {
        let p = TriplePattern::new(Var(0), TermId(5), Var(1));
        let vars: Vec<_> = p.vars().collect();
        assert_eq!(vars, vec![(Var(0), Position::S), (Var(1), Position::O)]);
        let consts: Vec<_> = p.consts().collect();
        assert_eq!(consts, vec![(TermId(5), Position::P)]);
        assert_eq!(p.var_count(), 2);
    }

    #[test]
    fn position_of_variable() {
        let p = TriplePattern::new(Var(0), Var(1), TermId(9));
        assert_eq!(p.position_of(Var(1)), Some(Position::P));
        assert_eq!(p.position_of(Var(7)), None);
    }

    #[test]
    fn matches_checks_constants_only() {
        let p = TriplePattern::new(Var(0), TermId(5), TermId(6));
        assert!(p.matches(Triple::from([1, 5, 6])));
        assert!(!p.matches(Triple::from([1, 5, 7])));
        assert!(!p.matches(Triple::from([1, 4, 6])));
    }

    #[test]
    fn pattern_term_accessors() {
        assert_eq!(PatternTerm::Var(Var(3)).as_var(), Some(Var(3)));
        assert_eq!(PatternTerm::Var(Var(3)).as_const(), None);
        assert_eq!(PatternTerm::Const(TermId(2)).as_const(), Some(TermId(2)));
        assert!(PatternTerm::Var(Var(0)).is_var());
        assert!(!PatternTerm::Const(TermId(0)).is_var());
    }

    #[test]
    fn display_is_readable() {
        let p = TriplePattern::new(Var(0), TermId(5), Var(1));
        assert_eq!(p.to_string(), "?v0 #5 ?v1 .");
    }
}
