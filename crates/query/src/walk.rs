//! Walk plans: how a random walk (Wander Join / Audit Join) steps through
//! the patterns of an exploration query.
//!
//! A *walk order* is a permutation of the query's patterns in which every
//! pattern after the first shares exactly one already-bound variable with
//! the patterns before it (always possible for the tree-shaped queries of
//! Fig. 4). Each step resolves a [`WalkAccess`]: the index order and prefix
//! that turn the bound join value into a contiguous row range, from which
//! the walk samples uniformly in O(1) (§IV-C).

use kgoa_index::{IndexOrder, LiveRange, RowRange, TrieIndex};
use kgoa_rdf::{Position, TermId};

use crate::error::QueryError;
use crate::pattern::{TriplePattern, Var};
use crate::query::ExplorationQuery;

/// One component of an access prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixComp {
    /// A constant from the pattern.
    Const(TermId),
    /// The value of the step's inbound join variable, supplied at runtime.
    InVar,
}

/// How one pattern is accessed during a walk, given its inbound binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkAccess {
    /// The trie order used.
    pub order: IndexOrder,
    /// Prefix components, one per leading trie level (length 0..=3).
    /// Length 3 means the access degenerates to an existence check.
    pub prefix: Vec<PrefixComp>,
    /// Positions of the remaining (free) levels, in level order. Sampled
    /// rows yield bindings for the step's out variables at these levels.
    pub free: Vec<Position>,
}

impl WalkAccess {
    /// Plan the access for `pattern` given the position of its inbound join
    /// variable (if any), choosing from the available index orders.
    pub fn plan(
        pattern: &TriplePattern,
        in_pos: Option<Position>,
        available: &[IndexOrder],
        pattern_idx: usize,
    ) -> Result<Self, QueryError> {
        let mut bound: Vec<Position> = pattern.consts().map(|(_, pos)| pos).collect();
        if let Some(p) = in_pos {
            bound.push(p);
        }
        let k = bound.len();
        debug_assert!(k <= 3);
        let order = available
            .iter()
            .copied()
            .find(|o| {
                let levels = o.positions();
                // The bound positions must occupy the first k levels
                // (in any arrangement).
                levels[..k].iter().all(|l| bound.contains(l))
            })
            .ok_or(QueryError::NoUsableIndexOrder(pattern_idx))?;
        let levels = order.positions();
        let prefix = levels[..k]
            .iter()
            .map(|pos| {
                if in_pos == Some(*pos) {
                    PrefixComp::InVar
                } else {
                    PrefixComp::Const(
                        pattern.get(*pos).as_const().expect("bound level is const or in-var"),
                    )
                }
            })
            .collect();
        let free = levels[k..].to_vec();
        Ok(WalkAccess { order, prefix, free })
    }

    /// Number of prefix levels.
    #[inline]
    pub fn prefix_len(&self) -> usize {
        self.prefix.len()
    }

    /// Resolve the prefix values given the runtime inbound binding.
    #[inline]
    fn prefix_values(&self, in_value: Option<u32>) -> [u32; 3] {
        let mut vals = [0u32; 3];
        for (i, comp) in self.prefix.iter().enumerate() {
            vals[i] = match comp {
                PrefixComp::Const(c) => c.raw(),
                PrefixComp::InVar => in_value.expect("in-var access resolved without binding"),
            };
        }
        vals
    }

    /// Resolve the candidate row range for this access within `index`
    /// (which must be the index for [`WalkAccess::order`]).
    ///
    /// One point lookup per bound level: O(1) at level 0 (the index's rank
    /// directory), a binary search of the child window at level 1, one
    /// more over the leaf keys for the fully-bound existence check.
    /// Sampling inside the returned range is O(1).
    pub fn resolve(&self, index: &TrieIndex, in_value: Option<u32>) -> RowRange {
        let vals = self.prefix_values(in_value);
        match self.prefix.len() {
            0 => index.full_range(),
            1 => index.range1(vals[0]),
            2 => index.range2(vals[0], vals[1]),
            _ => {
                // Existence check: locate the single matching row.
                match index.locate(vals[0], vals[1], vals[2]) {
                    Some(pos) => RowRange { start: pos, end: pos + 1 },
                    None => RowRange::EMPTY,
                }
            }
        }
    }

    /// Like [`WalkAccess::resolve`], but over the *live* view: the
    /// returned [`LiveRange`] excludes tombstoned rows and includes delta
    /// inserts when `index` carries an overlay. Identical to `resolve`
    /// (wrapped in [`LiveRange::solid`]) on a delta-free index.
    pub fn resolve_live(&self, index: &TrieIndex, in_value: Option<u32>) -> LiveRange {
        let vals = self.prefix_values(in_value);
        match self.prefix.len() {
            0 => index.full_live(),
            1 => index.range1_live(vals[0]),
            2 => index.range2_live(vals[0], vals[1]),
            _ => match index.locate_live(vals[0], vals[1], vals[2]) {
                Some(pos) if pos < index.len() as u32 => LiveRange {
                    main: RowRange { start: pos, end: pos + 1 },
                    delta: RowRange::EMPTY,
                    dead: 0,
                },
                Some(pos) => {
                    let local = pos - index.len() as u32;
                    LiveRange {
                        main: RowRange::EMPTY,
                        delta: RowRange { start: local, end: local + 1 },
                        dead: 0,
                    }
                }
                None => LiveRange::EMPTY,
            },
        }
    }
}

/// One step of a walk plan.
#[derive(Debug, Clone)]
pub struct WalkStep {
    /// Index of the pattern in the query's pattern list.
    pub pattern_idx: usize,
    /// The inbound join variable (bound at an earlier step), if any,
    /// with its position in this step's pattern.
    pub in_var: Option<(Var, Position)>,
    /// Variables newly bound by this step, aligned with
    /// [`WalkAccess::free`].
    pub out_vars: Vec<Var>,
    /// The access used to resolve candidate rows.
    pub access: WalkAccess,
}

/// A full walk plan over an exploration query.
#[derive(Debug, Clone)]
pub struct WalkPlan {
    steps: Vec<WalkStep>,
    var_count: usize,
    /// For each variable: the step at which it becomes bound.
    binder_step: Vec<usize>,
}

impl WalkPlan {
    /// Build a plan for the given pattern order.
    pub fn build(
        query: &ExplorationQuery,
        pattern_order: &[usize],
        available: &[IndexOrder],
    ) -> Result<Self, QueryError> {
        assert_eq!(
            pattern_order.len(),
            query.patterns().len(),
            "walk order must cover every pattern exactly once"
        );
        let var_count = query.var_count();
        let mut bound = vec![false; var_count];
        let mut binder_step = vec![usize::MAX; var_count];
        let mut steps = Vec::with_capacity(pattern_order.len());
        for (step_i, &pi) in pattern_order.iter().enumerate() {
            let pattern = &query.patterns()[pi];
            let in_vars: Vec<(Var, Position)> =
                pattern.vars().filter(|(v, _)| bound[v.index()]).collect();
            let in_var = if step_i == 0 {
                if !in_vars.is_empty() {
                    return Err(QueryError::InvalidWalkOrder);
                }
                None
            } else {
                match in_vars.len() {
                    1 => Some(in_vars[0]),
                    // A pattern with no variables at all (possible after
                    // pinning α/β to constants) is a pure existence check
                    // and needs no inbound binding.
                    0 if pattern.var_count() == 0 => None,
                    0 => return Err(QueryError::InvalidWalkOrder),
                    // Two bound variables in one pattern of a tree query
                    // would close a cycle; validation already rejects this.
                    _ => return Err(QueryError::Cyclic),
                }
            };
            let access = WalkAccess::plan(pattern, in_var.map(|(_, p)| p), available, pi)?;
            let out_vars: Vec<Var> = access
                .free
                .iter()
                .filter_map(|pos| pattern.get(*pos).as_var())
                .collect();
            // Free levels of a planned access are exactly the unbound
            // variable positions (constants and the in-var sit in the
            // prefix), so the counts must agree.
            debug_assert_eq!(out_vars.len(), access.free.len());
            for v in &out_vars {
                bound[v.index()] = true;
                binder_step[v.index()] = step_i;
            }
            steps.push(WalkStep { pattern_idx: pi, in_var, out_vars, access });
        }
        Ok(WalkPlan { steps, var_count, binder_step })
    }

    /// Build the canonical plan: walk order starting at pattern 0,
    /// extending by the lowest-index connected pattern.
    pub fn canonical(
        query: &ExplorationQuery,
        available: &[IndexOrder],
    ) -> Result<Self, QueryError> {
        let order = walk_order_from(query, 0).ok_or(QueryError::Disconnected)?;
        Self::build(query, &order, available)
    }

    /// The steps of the plan, in walk order.
    #[inline]
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps
    }

    /// Number of steps (= number of patterns).
    #[inline]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the plan has no steps (cannot happen for valid queries).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of query variables.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.var_count
    }

    /// The step at which a variable becomes bound.
    #[inline]
    pub fn binder_step(&self, v: Var) -> usize {
        self.binder_step[v.index()]
    }

    /// Extract a step's out-variable bindings from a sampled row into an
    /// assignment array (indexed by variable id).
    #[inline]
    pub fn extract(&self, step: usize, row: [u32; 3], assignment: &mut [u32]) {
        let s = &self.steps[step];
        let k = s.access.prefix_len();
        for (j, v) in s.out_vars.iter().enumerate() {
            assignment[v.index()] = row[k + j];
        }
    }

    /// Extract a step's out-variable bindings directly from a row position
    /// in `index` (which must be the step's access order). The hot-path
    /// variant of [`WalkPlan::extract`]: only the suffix levels the step
    /// actually binds are reconstructed — a step with a 2-value prefix
    /// loads a single `u32` instead of a full row.
    ///
    /// Always inlined, like the `row_from` it calls: these few loads run
    /// once per walk step and per CTJ row, and whether the optimiser
    /// inlines a plain `#[inline]` into those loops depends on what else
    /// shares their codegen unit (the walk loop lost about 10 % when a
    /// CTJ driver was instantiated beside it).
    #[inline(always)]
    pub fn extract_at(&self, index: &TrieIndex, step: usize, pos: u32, assignment: &mut [u32]) {
        let s = &self.steps[step];
        if s.out_vars.is_empty() {
            return;
        }
        let k = s.access.prefix_len();
        let row = index.row_from(pos, k);
        for (j, v) in s.out_vars.iter().enumerate() {
            assignment[v.index()] = row[k + j];
        }
    }

    /// The global variable binding order induced by this plan: variables in
    /// the order they become bound (used as the LFTJ variable order).
    pub fn var_order(&self) -> Vec<Var> {
        let mut out = Vec::with_capacity(self.var_count);
        for s in &self.steps {
            out.extend(s.out_vars.iter().copied());
        }
        out
    }
}

/// The greedy connected walk order starting from `start`: repeatedly append
/// the lowest-index unused pattern sharing a variable with the bound set.
/// Returns `None` if the query is disconnected (validation prevents this).
pub fn walk_order_from(query: &ExplorationQuery, start: usize) -> Option<Vec<usize>> {
    let n = query.patterns().len();
    let mut order = vec![start];
    let mut used = vec![false; n];
    used[start] = true;
    let mut bound = vec![false; query.var_count()];
    for (v, _) in query.patterns()[start].vars() {
        bound[v.index()] = true;
    }
    while order.len() < n {
        let next = (0..n).find(|&i| {
            !used[i] && query.patterns()[i].vars().any(|(v, _)| bound[v.index()])
        })?;
        used[next] = true;
        for (v, _) in query.patterns()[next].vars() {
            bound[v.index()] = true;
        }
        order.push(next);
    }
    Some(order)
}

/// Enumerate candidate walk orders: one greedy order per starting pattern,
/// deduplicated. Wander Join picks among these by observed estimator
/// variance (the paper selects "the join order with the best MAE" per
/// query, §V-B).
pub fn walk_orders(query: &ExplorationQuery) -> Vec<Vec<usize>> {
    let n = query.patterns().len();
    let mut orders: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if let Some(o) = walk_order_from(query, start) {
            if !orders.contains(&o) {
                orders.push(o);
            }
        }
    }
    orders
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::TriplePattern;
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    fn v(i: u16) -> Var {
        Var(i)
    }

    fn c(i: u32) -> TermId {
        TermId(i)
    }

    /// ?v0 <10> ?v1 . ?v1 <11> ?v2
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

    fn available() -> Vec<IndexOrder> {
        IndexOrder::PAPER_DEFAULT.to_vec()
    }

    #[test]
    fn plan_path_forward() {
        let q = path_query();
        let plan = WalkPlan::build(&q, &[0, 1], &available()).unwrap();
        assert_eq!(plan.len(), 2);
        let s0 = &plan.steps()[0];
        assert!(s0.in_var.is_none());
        assert_eq!(s0.access.order, IndexOrder::Pso);
        assert_eq!(s0.access.prefix, vec![PrefixComp::Const(c(10))]);
        assert_eq!(s0.out_vars, vec![v(0), v(1)]);
        let s1 = &plan.steps()[1];
        assert_eq!(s1.in_var, Some((v(1), Position::S)));
        // SPO is first in the priority list with {S, P} bound.
        assert_eq!(s1.access.order, IndexOrder::Spo);
        assert_eq!(
            s1.access.prefix,
            vec![PrefixComp::InVar, PrefixComp::Const(c(11))]
        );
        assert_eq!(s1.out_vars, vec![v(2)]);
    }

    #[test]
    fn plan_path_backward() {
        let q = path_query();
        let plan = WalkPlan::build(&q, &[1, 0], &available()).unwrap();
        let s1 = &plan.steps()[1];
        // Joining pattern 0 on its object variable v1 with a constant
        // predicate → OPS (first match with {O, P} bound).
        assert_eq!(s1.access.order, IndexOrder::Ops);
        assert_eq!(s1.in_var, Some((v(1), Position::O)));
        assert_eq!(
            s1.access.prefix,
            vec![PrefixComp::InVar, PrefixComp::Const(c(10))]
        );
        assert_eq!(s1.out_vars, vec![v(0)]);
    }

    #[test]
    fn existence_check_access() {
        // Pattern fully bound once the in-var arrives: ?v0 <closT> <99>.
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
        let plan = WalkPlan::build(&q, &[0, 1], &available()).unwrap();
        let s1 = &plan.steps()[1];
        assert_eq!(s1.access.prefix_len(), 3);
        assert!(s1.out_vars.is_empty());
    }

    #[test]
    fn invalid_order_detected() {
        let q = path_query();
        // Starting at pattern 1 then pattern 0 is fine, but an order where
        // the first step is preceded by nothing bound and the second shares
        // no var is impossible here; instead test a disconnected-order via
        // a 3-pattern path walked out of order.
        let q3 = ExplorationQuery::new(
            vec![
                TriplePattern::new(v(0), c(10), v(1)),
                TriplePattern::new(v(1), c(11), v(2)),
                TriplePattern::new(v(2), c(12), v(3)),
            ],
            v(3),
            v(2),
            true,
        )
        .unwrap();
        assert_eq!(
            WalkPlan::build(&q3, &[0, 2, 1], &available()).unwrap_err(),
            QueryError::InvalidWalkOrder
        );
        assert!(WalkPlan::build(&q, &[0, 1], &available()).is_ok());
    }

    #[test]
    fn walk_orders_enumeration() {
        let q = path_query();
        let orders = walk_orders(&q);
        assert!(orders.contains(&vec![0, 1]));
        assert!(orders.contains(&vec![1, 0]));
    }

    #[test]
    fn var_order_follows_binding() {
        let q = path_query();
        let plan = WalkPlan::build(&q, &[1, 0], &available()).unwrap();
        assert_eq!(plan.var_order(), vec![v(1), v(2), v(0)]);
        assert_eq!(plan.binder_step(v(0)), 1);
        assert_eq!(plan.binder_step(v(1)), 0);
    }

    #[test]
    fn resolve_and_extract_against_real_index() {
        // Graph: 1-10->2, 1-10->3, 2-11->4.
        let mut b = GraphBuilder::new();
        for (s, p, o) in [(1, 10, 2), (1, 10, 3), (2, 11, 4)] {
            // Use raw ids by interning fixed names (ids differ from raw
            // numbers; build triples via dict).
            let s = b.dict_mut().intern_iri(format!("u:{s}"));
            let p = b.dict_mut().intern_iri(format!("u:p{p}"));
            let o = b.dict_mut().intern_iri(format!("u:{o}"));
            b.add(Triple::new(s, p, o));
        }
        let g = b.build();
        let p10 = g.dict().lookup_iri("u:p10").unwrap();
        let p11 = g.dict().lookup_iri("u:p11").unwrap();
        let n2 = g.dict().lookup_iri("u:2").unwrap();
        let ig = kgoa_index::IndexedGraph::build(g);

        let q = ExplorationQuery::new(
            vec![
                TriplePattern::new(v(0), p10, v(1)),
                TriplePattern::new(v(1), p11, v(2)),
            ],
            v(2),
            v(1),
            true,
        )
        .unwrap();
        let plan = WalkPlan::canonical(&q, &IndexOrder::PAPER_DEFAULT).unwrap();
        let idx0 = ig.require(plan.steps()[0].access.order);
        let r0 = plan.steps()[0].access.resolve(idx0, None);
        assert_eq!(r0.len(), 2); // two p10 triples

        // Bind v1 = node 2 and resolve step 1.
        let idx1 = ig.require(plan.steps()[1].access.order);
        let r1 = plan.steps()[1].access.resolve(idx1, Some(n2.raw()));
        assert_eq!(r1.len(), 1);
        let mut assignment = vec![0u32; q.var_count()];
        plan.extract(1, idx1.row(r1.start), &mut assignment);
        let n4 = ig.dict().lookup_iri("u:4").unwrap();
        assert_eq!(assignment[v(2).index()], n4.raw());

        // The position-based hot path must produce the same bindings.
        let mut at_assignment = vec![0u32; q.var_count()];
        plan.extract_at(idx1, 1, r1.start, &mut at_assignment);
        assert_eq!(at_assignment, assignment);
    }

    #[test]
    fn extract_at_agrees_with_extract() {
        let mut b = GraphBuilder::new();
        for (s, p, o) in [(1, 10, 2), (1, 10, 3), (2, 10, 4), (2, 11, 4), (3, 11, 1)] {
            let s = b.dict_mut().intern_iri(format!("u:{s}"));
            let p = b.dict_mut().intern_iri(format!("u:p{p}"));
            let o = b.dict_mut().intern_iri(format!("u:{o}"));
            b.add(Triple::new(s, p, o));
        }
        let g = b.build();
        let p10 = g.dict().lookup_iri("u:p10").unwrap();
        let p11 = g.dict().lookup_iri("u:p11").unwrap();
        let q = ExplorationQuery::new(
            vec![
                TriplePattern::new(v(0), p10, v(1)),
                TriplePattern::new(v(1), p11, v(2)),
            ],
            v(2),
            v(1),
            true,
        )
        .unwrap();
        let ig = kgoa_index::IndexedGraph::build(g);
        let plan = WalkPlan::canonical(&q, &IndexOrder::PAPER_DEFAULT).unwrap();
        for step in 0..plan.len() {
            let idx = ig.require(plan.steps()[step].access.order);
            for pos in 0..idx.len() as u32 {
                let mut a = vec![0u32; q.var_count()];
                let mut b = vec![0u32; q.var_count()];
                plan.extract(step, idx.row(pos), &mut a);
                plan.extract_at(idx, step, pos, &mut b);
                assert_eq!(a, b, "step {step} pos {pos}");
            }
        }
    }
}
