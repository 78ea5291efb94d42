//! Exploration queries: the query class of Fig. 4 in the paper.
//!
//! An exploration query is a connected, acyclic conjunction of triple
//! patterns in which every variable occurs in at most two patterns,
//! together with a *group variable* α (the categories of the next bar
//! chart) and a *count variable* β (the focus set whose distinct values
//! give the bar heights):
//!
//! ```sparql
//! SELECT ?α COUNT(DISTINCT ?β) WHERE { ...patterns... } GROUP BY ?α
//! ```

use crate::error::QueryError;
use crate::pattern::{PatternTerm, TriplePattern, Var};

/// A validated exploration query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplorationQuery {
    patterns: Vec<TriplePattern>,
    alpha: Var,
    beta: Var,
    distinct: bool,
    var_count: usize,
}

impl ExplorationQuery {
    /// Build and validate a query. See [`QueryError`] for the structural
    /// rules enforced.
    pub fn new(
        patterns: Vec<TriplePattern>,
        alpha: Var,
        beta: Var,
        distinct: bool,
    ) -> Result<Self, QueryError> {
        if patterns.is_empty() {
            return Err(QueryError::Empty);
        }
        if alpha == beta {
            return Err(QueryError::AlphaEqualsBeta);
        }

        // Count occurrences; detect repeats within a pattern.
        let mut max_var = 0usize;
        let mut total_occurrences = 0usize;
        for p in &patterns {
            let vars: Vec<Var> = p.vars().map(|(v, _)| v).collect();
            for (i, v) in vars.iter().enumerate() {
                if vars[..i].contains(v) {
                    return Err(QueryError::RepeatedVarInPattern(*v));
                }
                max_var = max_var.max(v.index() + 1);
            }
            total_occurrences += vars.len();
        }
        let mut occurrences = vec![0u8; max_var];
        for p in &patterns {
            for (v, _) in p.vars() {
                occurrences[v.index()] = occurrences[v.index()].saturating_add(1);
            }
        }
        for head in [alpha, beta] {
            if head.index() >= max_var || occurrences[head.index()] == 0 {
                return Err(QueryError::MissingHeadVar(head));
            }
        }

        // Berge-acyclicity: the bipartite incidence graph (patterns on one
        // side, variables on the other, one edge per occurrence) must be a
        // tree. This is exactly the condition under which every connected
        // pattern order gives each step a single inbound join variable —
        // the structure the random walks and the tree-decomposition caches
        // rely on. Note a variable may occur in *more* than two patterns
        // (the paper's own Fig. 2 query needs three once type constraints
        // accumulate); what is forbidden is any cycle, e.g. two patterns
        // sharing two variables.
        let n = patterns.len();
        let used_vars = occurrences.iter().filter(|c| **c > 0).count();
        let nodes = n + used_vars;
        // Connectivity over the incidence graph via the patterns: BFS on
        // patterns linked through shared variables.
        let mut var_patterns: Vec<Vec<usize>> = vec![Vec::new(); max_var];
        for (i, p) in patterns.iter().enumerate() {
            for (v, _) in p.vars() {
                var_patterns[v.index()].push(i);
            }
        }
        let mut visited = vec![false; n];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut reach = 1usize;
        while let Some(x) = stack.pop() {
            for (v, _) in patterns[x].vars() {
                for &y in &var_patterns[v.index()] {
                    if !visited[y] {
                        visited[y] = true;
                        reach += 1;
                        stack.push(y);
                    }
                }
            }
        }
        if reach < n {
            return Err(QueryError::Disconnected);
        }
        // A connected graph is a tree iff |E| = |V| - 1.
        if total_occurrences != nodes - 1 {
            return Err(QueryError::Cyclic);
        }

        Ok(ExplorationQuery { patterns, alpha, beta, distinct, var_count: max_var })
    }

    /// The triple patterns.
    #[inline]
    pub fn patterns(&self) -> &[TriplePattern] {
        &self.patterns
    }

    /// The group variable α.
    #[inline]
    pub fn alpha(&self) -> Var {
        self.alpha
    }

    /// The count variable β.
    #[inline]
    pub fn beta(&self) -> Var {
        self.beta
    }

    /// Whether the count is over distinct β values.
    #[inline]
    pub fn distinct(&self) -> bool {
        self.distinct
    }

    /// Number of variables (ids are dense in `0..var_count`).
    #[inline]
    pub fn var_count(&self) -> usize {
        self.var_count
    }

    /// A copy of this query with the distinct flag changed.
    pub fn with_distinct(&self, distinct: bool) -> Self {
        let mut q = self.clone();
        q.distinct = distinct;
        q
    }

    /// The "no filters" variant used by the paper's selectivity metric
    /// (§V-B): every constant is replaced with a fresh variable. The result
    /// keeps the same join structure and is always valid.
    pub fn strip_filters(&self) -> Self {
        let mut next = self.var_count as u16;
        let mut fresh = || {
            let v = Var(next);
            next += 1;
            PatternTerm::Var(v)
        };
        let patterns = self
            .patterns
            .iter()
            .map(|p| {
                let mut q = *p;
                if !q.s.is_var() {
                    q.s = fresh();
                }
                if !q.p.is_var() {
                    q.p = fresh();
                }
                if !q.o.is_var() {
                    q.o = fresh();
                }
                q
            })
            .collect();
        ExplorationQuery {
            patterns,
            alpha: self.alpha,
            beta: self.beta,
            distinct: self.distinct,
            var_count: next as usize,
        }
    }

    /// A copy of this query with a variable replaced by a constant
    /// (used to pin α or β when computing `Pr(b)` / selectivities).
    pub fn bind_var(&self, v: Var, value: kgoa_rdf::TermId) -> Self {
        let patterns = self
            .patterns
            .iter()
            .map(|p| {
                let mut q = *p;
                for slot in [&mut q.s, &mut q.p, &mut q.o] {
                    if *slot == PatternTerm::Var(v) {
                        *slot = PatternTerm::Const(value);
                    }
                }
                q
            })
            .collect();
        ExplorationQuery {
            patterns,
            alpha: self.alpha,
            beta: self.beta,
            distinct: self.distinct,
            var_count: self.var_count,
        }
    }
}

impl std::fmt::Display for ExplorationQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let agg = if self.distinct { "COUNT(DISTINCT" } else { "COUNT(" };
        writeln!(f, "SELECT {} {} {}) WHERE {{", self.alpha, agg, self.beta)?;
        for p in &self.patterns {
            writeln!(f, "  {p}")?;
        }
        write!(f, "}} GROUP BY {}", self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_rdf::TermId;

    fn v(i: u16) -> Var {
        Var(i)
    }

    fn c(i: u32) -> TermId {
        TermId(i)
    }

    /// ?s <p10> ?o . ?o <p11> ?c  — a 2-step path.
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
    fn valid_path_query() {
        let q = path_query();
        assert_eq!(q.patterns().len(), 2);
        assert_eq!(q.var_count(), 3);
        assert!(q.distinct());
    }

    #[test]
    fn empty_query_rejected() {
        assert_eq!(
            ExplorationQuery::new(vec![], v(0), v(1), true).unwrap_err(),
            QueryError::Empty
        );
    }

    #[test]
    fn alpha_equals_beta_rejected() {
        let p = TriplePattern::new(v(0), c(1), v(1));
        assert_eq!(
            ExplorationQuery::new(vec![p], v(0), v(0), true).unwrap_err(),
            QueryError::AlphaEqualsBeta
        );
    }

    #[test]
    fn repeated_var_rejected() {
        let p = TriplePattern::new(v(0), c(1), v(0));
        assert_eq!(
            ExplorationQuery::new(vec![p], v(0), v(1), true).unwrap_err(),
            QueryError::RepeatedVarInPattern(v(0))
        );
    }

    #[test]
    fn var_in_three_patterns_accepted() {
        // A star around v0 is Berge-acyclic — the paper's own Fig. 2 query
        // needs this shape once type constraints accumulate.
        let ps = vec![
            TriplePattern::new(v(0), c(1), v(1)),
            TriplePattern::new(v(0), c(2), v(2)),
            TriplePattern::new(v(0), c(3), v(3)),
        ];
        assert!(ExplorationQuery::new(ps, v(1), v(2), true).is_ok());
    }

    #[test]
    fn two_shared_vars_between_patterns_rejected() {
        // Two patterns sharing two variables form a Berge cycle.
        let ps = vec![
            TriplePattern::new(v(0), c(1), v(1)),
            TriplePattern::new(v(0), c(2), v(1)),
        ];
        assert_eq!(
            ExplorationQuery::new(ps, v(0), v(1), true).unwrap_err(),
            QueryError::Cyclic
        );
    }

    #[test]
    fn disconnected_rejected() {
        let ps = vec![
            TriplePattern::new(v(0), c(1), v(1)),
            TriplePattern::new(v(2), c(2), v(3)),
        ];
        assert_eq!(
            ExplorationQuery::new(ps, v(0), v(2), true).unwrap_err(),
            QueryError::Disconnected
        );
    }

    #[test]
    fn cycle_rejected() {
        // Triangle: 0-1, 1-2, 2-0.
        let ps = vec![
            TriplePattern::new(v(0), c(1), v(1)),
            TriplePattern::new(v(1), c(2), v(2)),
            TriplePattern::new(v(2), c(3), v(0)),
        ];
        assert_eq!(
            ExplorationQuery::new(ps, v(0), v(1), true).unwrap_err(),
            QueryError::Cyclic
        );
    }

    #[test]
    fn missing_head_var_rejected() {
        let p = TriplePattern::new(v(0), c(1), v(1));
        assert_eq!(
            ExplorationQuery::new(vec![p], v(0), v(7), true).unwrap_err(),
            QueryError::MissingHeadVar(v(7))
        );
    }

    #[test]
    fn tree_query_accepted() {
        // v1 is shared by patterns 0 and 1; v0 by patterns 0 and 2 — a star.
        let ps = vec![
            TriplePattern::new(v(0), c(1), v(1)),
            TriplePattern::new(v(1), c(2), v(2)),
            TriplePattern::new(v(0), c(3), v(3)),
        ];
        assert!(ExplorationQuery::new(ps, v(2), v(0), true).is_ok());
    }

    #[test]
    fn strip_filters_replaces_constants() {
        let q = path_query();
        let s = q.strip_filters();
        assert_eq!(s.var_count(), 5); // 3 original + 2 predicates
        assert!(s.patterns().iter().all(|p| p.var_count() == 3));
        // Join structure preserved.
        assert_eq!(s.patterns()[0].o, s.patterns()[1].s);
    }

    #[test]
    fn bind_var_pins_a_constant() {
        let q = path_query();
        let b = q.bind_var(v(2), c(99));
        assert_eq!(b.patterns()[1].o, PatternTerm::Const(c(99)));
        assert_eq!(b.patterns()[0], q.patterns()[0]);
    }

    #[test]
    fn display_looks_like_sparql() {
        let text = path_query().to_string();
        assert!(text.contains("COUNT(DISTINCT"));
        assert!(text.contains("GROUP BY ?v2"));
    }
}
