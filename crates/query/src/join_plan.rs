//! Join plans for the exact trie-join engines (LFTJ / CTJ).
//!
//! LeapFrog Trie Join fixes a global variable order and, for each pattern,
//! needs a trie whose level sequence is compatible: the pattern's variables
//! must appear at consecutive-or-later levels in increasing global order.
//! Constants may occupy any level — leading constants are resolved to a
//! prefix range by the index's point lookups, embedded constants by a
//! `seek` at their level.

use kgoa_index::IndexOrder;
use kgoa_rdf::TermId;

use crate::error::QueryError;
use crate::pattern::{PatternTerm, Var};
use crate::query::ExplorationQuery;
use crate::walk::WalkPlan;

/// One trie level of a pattern's join access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinLevel {
    /// A constant: the engine seeks to it and verifies presence.
    Const(TermId),
    /// A variable: the engine leapfrogs it with the other patterns
    /// containing the same variable.
    Var(Var),
}

/// How one pattern is accessed by the trie-join engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinAccess {
    /// The physical index order used.
    pub order: IndexOrder,
    /// The three trie levels in order.
    pub levels: [JoinLevel; 3],
}

/// A complete plan for evaluating a query with LFTJ/CTJ.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    var_order: Vec<Var>,
    /// Rank of each variable id within `var_order`.
    rank: Vec<usize>,
    accesses: Vec<JoinAccess>,
    /// For each rank: the `(pattern, level)` occurrences of that variable.
    occurrences: Vec<Vec<(usize, usize)>>,
}

impl JoinPlan {
    /// Build a plan for an explicit variable order.
    pub fn build(
        query: &ExplorationQuery,
        var_order: &[Var],
        available: &[IndexOrder],
    ) -> Result<Self, QueryError> {
        // The order must cover every variable that occurs in a pattern;
        // queries may carry unused (gap) variable ids, which need no rank.
        let mut rank = vec![usize::MAX; query.var_count()];
        for (r, v) in var_order.iter().enumerate() {
            rank[v.index()] = r;
        }
        for pattern in query.patterns() {
            for (v, _) in pattern.vars() {
                assert!(
                    rank[v.index()] != usize::MAX,
                    "variable order must cover every occurring variable ({v} missing)"
                );
            }
        }
        let mut accesses = Vec::with_capacity(query.patterns().len());
        for (pi, pattern) in query.patterns().iter().enumerate() {
            let access = plan_pattern(pattern, &rank, available)
                .ok_or(QueryError::NoUsableIndexOrder(pi))?;
            accesses.push(access);
        }
        let mut occurrences = vec![Vec::new(); var_order.len()];
        for (pi, access) in accesses.iter().enumerate() {
            for (li, level) in access.levels.iter().enumerate() {
                if let JoinLevel::Var(v) = level {
                    occurrences[rank[v.index()]].push((pi, li));
                }
            }
        }
        Ok(JoinPlan { var_order: var_order.to_vec(), rank, accesses, occurrences })
    }

    /// Build the canonical plan: variable order taken from the canonical
    /// walk plan (variables in binding order).
    pub fn canonical(
        query: &ExplorationQuery,
        available: &[IndexOrder],
    ) -> Result<Self, QueryError> {
        let walk = WalkPlan::canonical(query, available)?;
        Self::build(query, &walk.var_order(), available)
    }

    /// The global variable order.
    #[inline]
    pub fn var_order(&self) -> &[Var] {
        &self.var_order
    }

    /// The rank of a variable in the global order.
    #[inline]
    pub fn rank(&self, v: Var) -> usize {
        self.rank[v.index()]
    }

    /// Per-pattern accesses, parallel to the query's pattern list.
    #[inline]
    pub fn accesses(&self) -> &[JoinAccess] {
        &self.accesses
    }

    /// The `(pattern, level)` occurrences of the variable at a given rank.
    #[inline]
    pub fn occurrences(&self, rank: usize) -> &[(usize, usize)] {
        &self.occurrences[rank]
    }
}

/// Find a physical order for one pattern compatible with the variable
/// ranks. Among compatible orders, prefer the one with the most leading
/// constants (cheapest navigation).
fn plan_pattern(
    pattern: &crate::pattern::TriplePattern,
    rank: &[usize],
    available: &[IndexOrder],
) -> Option<JoinAccess> {
    let mut best: Option<(usize, JoinAccess)> = None;
    for order in available {
        let positions = order.positions();
        let levels: Vec<JoinLevel> = positions
            .iter()
            .map(|pos| match pattern.get(*pos) {
                PatternTerm::Const(c) => JoinLevel::Const(c),
                PatternTerm::Var(v) => JoinLevel::Var(v),
            })
            .collect();
        // Variable ranks must be strictly increasing across levels.
        let ranks: Vec<usize> = levels
            .iter()
            .filter_map(|l| match l {
                JoinLevel::Var(v) => Some(rank[v.index()]),
                JoinLevel::Const(_) => None,
            })
            .collect();
        if !ranks.windows(2).all(|w| w[0] < w[1]) {
            continue;
        }
        let leading_consts =
            levels.iter().take_while(|l| matches!(l, JoinLevel::Const(_))).count();
        let access = JoinAccess {
            order: *order,
            levels: [levels[0], levels[1], levels[2]],
        };
        match &best {
            Some((score, _)) if *score >= leading_consts => {}
            _ => best = Some((leading_consts, access)),
        }
    }
    best.map(|(_, a)| a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::TriplePattern;

    fn v(i: u16) -> Var {
        Var(i)
    }

    fn c(i: u32) -> TermId {
        TermId(i)
    }

    fn path_query() -> ExplorationQuery {
        ExplorationQuery::new(
            vec![
                TriplePattern::new(v(0), c(10), v(1)),
                TriplePattern::new(v(1), c(11), v(2)),
            ],
            v(2),
            v(1),
            true,
        )
        .unwrap()
    }

    #[test]
    fn canonical_plan_for_path() {
        let q = path_query();
        let plan = JoinPlan::canonical(&q, &IndexOrder::PAPER_DEFAULT).unwrap();
        assert_eq!(plan.var_order(), &[v(0), v(1), v(2)]);
        let a0 = &plan.accesses()[0];
        assert_eq!(a0.order, IndexOrder::Pso);
        assert_eq!(
            a0.levels,
            [JoinLevel::Const(c(10)), JoinLevel::Var(v(0)), JoinLevel::Var(v(1))]
        );
        // v1 occurs in both patterns.
        assert_eq!(plan.occurrences(plan.rank(v(1))).len(), 2);
        assert_eq!(plan.occurrences(plan.rank(v(0))).len(), 1);
    }

    #[test]
    fn reversed_var_order_uses_pos() {
        let q = path_query();
        let plan = JoinPlan::build(&q, &[v(2), v(1), v(0)], &IndexOrder::PAPER_DEFAULT).unwrap();
        let a1 = &plan.accesses()[1];
        // Pattern 1 is (v1, 11, v2) with v2 before v1 → POS: (p, o, s).
        assert_eq!(a1.order, IndexOrder::Pos);
        assert_eq!(
            a1.levels,
            [JoinLevel::Const(c(11)), JoinLevel::Var(v(2)), JoinLevel::Var(v(1))]
        );
    }

    #[test]
    fn fully_constant_level_pattern() {
        // Pattern 1 has constants at P and O — POS puts both first.
        let q = ExplorationQuery::new(
            vec![
                TriplePattern::new(v(1), c(5), v(0)),
                TriplePattern::new(v(0), c(6), c(99)),
            ],
            v(1),
            v(0),
            true,
        )
        .unwrap();
        let plan = JoinPlan::canonical(&q, &IndexOrder::PAPER_DEFAULT).unwrap();
        let a1 = &plan.accesses()[1];
        // Both OPS and POS put the two constants first; the planner takes
        // the first order reaching the maximal leading-constant count.
        assert!(matches!(a1.order, IndexOrder::Ops | IndexOrder::Pos));
        assert!(matches!(a1.levels[0], JoinLevel::Const(_)));
        assert!(matches!(a1.levels[1], JoinLevel::Const(_)));
        assert_eq!(a1.levels[2], JoinLevel::Var(v(0)));
    }

    #[test]
    fn variable_predicate_pattern_plans() {
        // ?v0 ?v1 ?v2 with var order (0, 1, 2) → SPO.
        let q = ExplorationQuery::new(
            vec![TriplePattern::new(v(0), v(1), v(2))],
            v(1),
            v(0),
            true,
        )
        .unwrap();
        let plan = JoinPlan::build(&q, &[v(0), v(1), v(2)], &IndexOrder::PAPER_DEFAULT).unwrap();
        assert_eq!(plan.accesses()[0].order, IndexOrder::Spo);
    }
}
