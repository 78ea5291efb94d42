//! The common exact-engine interface and its four implementations.

use kgoa_index::{FxHashSet, IndexOrder, IndexedGraph};
use kgoa_query::{ExplorationQuery, JoinPlan, WalkPlan};

use crate::baseline::{baseline_grouped_governed, DEFAULT_TUPLE_LIMIT};
use crate::budget::{BudgetExceeded, BudgetMeter, ExecBudget};
use crate::ctj::CtjCounter;
use crate::error::EngineError;
use crate::lftj::LftjExec;
use crate::result::GroupedCounts;
use crate::yannakakis::yannakakis_grouped_distinct_governed;

/// An engine that evaluates exploration queries exactly.
pub trait CountEngine {
    /// A short name for reports ("ctj", "lftj", ...).
    fn name(&self) -> &'static str;

    /// Evaluate the query: per group α, the (distinct) count of β.
    fn evaluate(
        &self,
        ig: &IndexedGraph,
        query: &ExplorationQuery,
    ) -> Result<GroupedCounts, EngineError> {
        self.evaluate_governed(ig, query, &ExecBudget::unlimited())
    }

    /// Evaluate under a cooperative [`ExecBudget`]: the engine checkpoints
    /// its hot loops and returns [`EngineError::BudgetExceeded`] when the
    /// deadline passes, the budget is cancelled, or a resource cap trips.
    /// Never returns a partial `GroupedCounts`.
    fn evaluate_governed(
        &self,
        ig: &IndexedGraph,
        query: &ExplorationQuery,
        budget: &ExecBudget,
    ) -> Result<GroupedCounts, EngineError>;
}

/// Pure LeapFrog Trie Join: worst-case-optimal, no caching.
#[derive(Debug, Clone, Copy, Default)]
pub struct LftjEngine;

impl CountEngine for LftjEngine {
    fn name(&self) -> &'static str {
        "lftj"
    }

    fn evaluate_governed(
        &self,
        ig: &IndexedGraph,
        query: &ExplorationQuery,
        budget: &ExecBudget,
    ) -> Result<GroupedCounts, EngineError> {
        let plan = JoinPlan::canonical(query, &IndexOrder::PAPER_DEFAULT)?;
        let mut exec = LftjExec::new(ig, query, plan)?;
        let alpha = query.alpha().index();
        let beta = query.beta().index();
        let mut out = GroupedCounts::new();
        if query.distinct() {
            let mut seen: FxHashSet<u64> = FxHashSet::default();
            exec.run_governed(budget, |asg| {
                if seen.insert(kgoa_index::pack2(asg[alpha], asg[beta])) {
                    out.add(asg[alpha], 1);
                }
            })?;
        } else {
            exec.run_governed(budget, |asg| out.add(asg[alpha], 1))?;
        }
        Ok(out)
    }
}

/// Cached Trie Join: the paper's exact engine of choice (§IV-B).
#[derive(Debug, Clone, Copy, Default)]
pub struct CtjEngine;

impl CountEngine for CtjEngine {
    fn name(&self) -> &'static str {
        "ctj"
    }

    fn evaluate_governed(
        &self,
        ig: &IndexedGraph,
        query: &ExplorationQuery,
        budget: &ExecBudget,
    ) -> Result<GroupedCounts, EngineError> {
        let _span = kgoa_obs::profile::span("engine.ctj.evaluate");
        let plan = WalkPlan::canonical(query, &IndexOrder::PAPER_DEFAULT)?;
        let mut counter = CtjCounter::new(ig, plan);
        let mut assignment = vec![0u32; query.var_count()];
        let mut out = GroupedCounts::new();
        let mut meter = budget.meter();
        if query.distinct() {
            let mut seen: FxHashSet<u64> = FxHashSet::default();
            let mut dedup = DedupState::new(query, &counter);
            ctj_distinct_rec(
                query,
                &mut counter,
                0,
                &mut assignment,
                &mut seen,
                &mut out,
                &mut meter,
                &mut dedup,
            )?;
        } else {
            let alpha = query.alpha().index();
            counter.group_counts_from(
                &[query.alpha()],
                0,
                None,
                &mut assignment,
                &mut meter,
                |asg, n| out.add(asg[alpha], n),
            )?;
        }
        counter.profile_emit();
        Ok(out)
    }
}

/// For each step of the distinct driver, the variables (as assignment
/// indices) that the remaining computation after the step reads: the
/// suffix dependency set plus α/β when already bound. Two subtrees rooted
/// at the same step with equal values for these variables insert the same
/// (α, β) pairs, so the second one can be skipped ([`ctj_distinct_rec`]).
/// `None` disables the dedup at a step (key too wide for a `u128`).
pub(crate) fn distinct_skip_vars(
    query: &ExplorationQuery,
    counter: &CtjCounter,
) -> Vec<Option<Vec<usize>>> {
    let plan = counter.plan();
    (0..plan.len())
        .map(|step| {
            let mut vars: Vec<usize> =
                counter.suffix_dep_vars(step + 1).iter().map(|v| v.index()).collect();
            for g in [query.alpha(), query.beta()] {
                if plan.binder_step(g) <= step && !vars.contains(&g.index()) {
                    vars.push(g.index());
                }
            }
            // At the final step the key degenerates to (α, β), which the
            // driver's `seen` set already dedups — disable the extra map.
            (vars.len() <= 4 && step + 1 < plan.len()).then_some(vars)
        })
        .collect()
}

/// Fold up to four bound values into one dedup key.
#[inline]
fn skip_key(vars: &[usize], assignment: &[u32]) -> u128 {
    let mut key = 0u128;
    for (i, v) in vars.iter().enumerate() {
        key |= u128::from(assignment[*v]) << (32 * i);
    }
    key
}

/// Per-step subtree dedup for the distinct driver. A key is inserted
/// *before* recursing — safe because a budget abort discards the whole
/// evaluation, never resumes it — so each fresh subtree costs one hash.
/// Steps where the key never repeats (e.g. a unique-per-row join column)
/// turn their dedup off after a probation window: the map would only burn
/// memory and a lookup per row.
pub(crate) struct DedupState {
    vars: Vec<Option<Vec<usize>>>,
    done: Vec<FxHashSet<u128>>,
    hits: Vec<u64>,
}

/// Re-examine a step's dedup hit rate every this many fresh keys.
const DEDUP_PROBATION: usize = 8192;

impl DedupState {
    pub(crate) fn new(query: &ExplorationQuery, counter: &CtjCounter) -> Self {
        let vars = distinct_skip_vars(query, counter);
        let n = vars.len();
        DedupState { vars, done: vec![FxHashSet::default(); n], hits: vec![0; n] }
    }

    /// True ⇒ an identical subtree already ran at this step; skip it.
    #[inline]
    pub(crate) fn is_duplicate(&mut self, step: usize, assignment: &[u32]) -> bool {
        let Some(vars) = &self.vars[step] else { return false };
        let key = skip_key(vars, assignment);
        if self.done[step].insert(key) {
            let n = self.done[step].len();
            if n.is_multiple_of(DEDUP_PROBATION) && self.hits[step] < (n as u64) / 32 {
                // Under ~3% of subtrees repeated: not worth the hashing.
                self.vars[step] = None;
                self.done[step] = FxHashSet::default();
            }
            false
        } else {
            self.hits[step] += 1;
            true
        }
    }
}

/// Enumerate until both α and β are bound, then a cached existence check
/// decides whether the pair contributes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ctj_distinct_rec(
    query: &ExplorationQuery,
    counter: &mut CtjCounter<'_>,
    step: usize,
    assignment: &mut [u32],
    seen: &mut FxHashSet<u64>,
    out: &mut GroupedCounts,
    meter: &mut BudgetMeter,
    dedup: &mut DedupState,
) -> Result<(), BudgetExceeded> {
    let alpha = query.alpha();
    let beta = query.beta();
    let both_bound = counter.plan().binder_step(alpha) < step
        && counter.plan().binder_step(beta) < step;
    if both_bound {
        let a = assignment[alpha.index()];
        let b = assignment[beta.index()];
        if counter.exists_from(step, assignment, meter)? && seen.insert(kgoa_index::pack2(a, b)) {
            out.add(a, 1);
        }
        return Ok(());
    }
    debug_assert!(step < counter.plan().len(), "all vars bound at plan end");
    let (index, range) = counter.resolve(step, None, assignment);
    let out_vars = &counter.plan().steps()[step].out_vars;
    if counter.suffix_collapses(step) && !out_vars.contains(&alpha) && !out_vars.contains(&beta) {
        // Neither α/β nor any later step reads this step's bindings, so
        // every row reaches the same set of (α, β) pairs: recurse once.
        if !range.is_empty() {
            meter.tick()?;
            counter.note_row(step);
            ctj_distinct_rec(query, counter, step + 1, assignment, seen, out, meter, dedup)?;
        }
        return Ok(());
    }
    if step + 1 == counter.plan().len() {
        // Last step: all variables are bound after it and the suffix
        // existence check is trivially true — inline the base case.
        let (a_idx, b_idx) = (alpha.index(), beta.index());
        for pos in index.positions(range) {
            meter.tick()?;
            counter.note_row(step);
            counter.plan().extract_at(index, step, pos, assignment);
            let (a, b) = (assignment[a_idx], assignment[b_idx]);
            if seen.insert(kgoa_index::pack2(a, b)) {
                out.add(a, 1);
            }
        }
        return Ok(());
    }
    for pos in index.positions(range) {
        meter.tick()?;
        counter.note_row(step);
        counter.plan().extract_at(index, step, pos, assignment);
        // Two subtrees that agree on the suffix deps plus any bound α/β
        // insert the same (α, β) pairs — skip the repeat.
        if dedup.is_duplicate(step, assignment) {
            continue;
        }
        ctj_distinct_rec(query, counter, step + 1, assignment, seen, out, meter, dedup)?;
    }
    Ok(())
}

/// The conventional materializing engine (Virtuoso stand-in, see DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct BaselineEngine {
    /// Intermediate-tuple budget.
    pub tuple_limit: usize,
}

impl Default for BaselineEngine {
    fn default() -> Self {
        BaselineEngine { tuple_limit: DEFAULT_TUPLE_LIMIT }
    }
}

impl CountEngine for BaselineEngine {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn evaluate_governed(
        &self,
        ig: &IndexedGraph,
        query: &ExplorationQuery,
        budget: &ExecBudget,
    ) -> Result<GroupedCounts, EngineError> {
        baseline_grouped_governed(ig, query, self.tuple_limit, budget)
    }
}

/// Semi-join (Yannakakis) engine — the harness's ground truth. Falls back
/// to CTJ when α and β do not co-occur in one pattern.
#[derive(Debug, Clone, Copy, Default)]
pub struct YannakakisEngine;

impl CountEngine for YannakakisEngine {
    fn name(&self) -> &'static str {
        "yannakakis"
    }

    fn evaluate_governed(
        &self,
        ig: &IndexedGraph,
        query: &ExplorationQuery,
        budget: &ExecBudget,
    ) -> Result<GroupedCounts, EngineError> {
        match yannakakis_grouped_distinct_governed(ig, query, budget) {
            Err(EngineError::Unsupported(_)) => CtjEngine.evaluate_governed(ig, query, budget),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_query::{TriplePattern, Var};
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    /// a -p-> {x,y,z}; x,y -q-> c1; z -q-> c2; also b -p-> x
    /// (so x is reachable twice → distinct matters).
    fn graph() -> (IndexedGraph, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let n = |b: &mut GraphBuilder, s: &str| b.dict_mut().intern_iri(format!("u:{s}"));
        let a = n(&mut b, "a");
        let bb = n(&mut b, "b");
        let x = n(&mut b, "x");
        let y = n(&mut b, "y");
        let z = n(&mut b, "z");
        let c1 = n(&mut b, "c1");
        let c2 = n(&mut b, "c2");
        for t in [
            Triple::new(a, p, x),
            Triple::new(a, p, y),
            Triple::new(a, p, z),
            Triple::new(bb, p, x),
            Triple::new(x, q, c1),
            Triple::new(y, q, c1),
            Triple::new(z, q, c2),
        ] {
            b.add(t);
        }
        (IndexedGraph::build(b.build()), p, q)
    }

    fn query(p: TermId, q: TermId, distinct: bool) -> ExplorationQuery {
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(2),
            Var(1),
            distinct,
        )
        .unwrap()
    }

    fn all_engines() -> Vec<Box<dyn CountEngine>> {
        vec![
            Box::new(LftjEngine),
            Box::new(CtjEngine),
            Box::new(BaselineEngine::default()),
            Box::new(YannakakisEngine),
        ]
    }

    #[test]
    fn engines_agree_on_distinct() {
        let (ig, p, q) = graph();
        let c1 = ig.dict().lookup_iri("u:c1").unwrap();
        let c2 = ig.dict().lookup_iri("u:c2").unwrap();
        for e in all_engines() {
            let out = e.evaluate(&ig, &query(p, q, true)).unwrap();
            assert_eq!(out.get(c1), 2, "engine {}", e.name());
            assert_eq!(out.get(c2), 1, "engine {}", e.name());
            assert_eq!(out.len(), 2, "engine {}", e.name());
        }
    }

    #[test]
    fn engines_agree_on_non_distinct() {
        let (ig, p, q) = graph();
        let c1 = ig.dict().lookup_iri("u:c1").unwrap();
        for e in all_engines() {
            let out = e.evaluate(&ig, &query(p, q, false)).unwrap();
            // Paths into c1: a->x, a->y, b->x = 3.
            assert_eq!(out.get(c1), 3, "engine {}", e.name());
        }
    }

    #[test]
    fn engines_agree_on_empty() {
        let (ig, p, _) = graph();
        for e in all_engines() {
            let out = e.evaluate(&ig, &query(p, TermId(9999), true)).unwrap();
            assert!(out.is_empty(), "engine {}", e.name());
        }
    }

    #[test]
    fn engines_agree_with_heads_in_different_patterns() {
        let (ig, p, q) = graph();
        // α = source subject (?0), β = final object (?2): not co-occurring.
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(0),
            Var(2),
            true,
        )
        .unwrap();
        let a = ig.dict().lookup_iri("u:a").unwrap();
        let bb = ig.dict().lookup_iri("u:b").unwrap();
        for e in all_engines() {
            let out = e.evaluate(&ig, &query).unwrap();
            assert_eq!(out.get(a), 2, "engine {}: a reaches c1, c2", e.name());
            assert_eq!(out.get(bb), 1, "engine {}: b reaches c1", e.name());
        }
    }
}
