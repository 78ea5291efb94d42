//! The "off-the-shelf engine" baseline.
//!
//! The paper compares against Virtuoso, a conventional relational engine
//! whose multiway joins materialize intermediate results. Virtuoso itself
//! is closed infrastructure; this module substitutes a textbook pipeline of
//! **index nested-loop joins with full intermediate materialization**
//! followed by a grouped (distinct) count. It exhibits the same asymptotic
//! failure mode that motivates worst-case-optimal joins: the intermediate
//! result after k patterns can be much larger than both the input and the
//! final output (see DESIGN.md §3 for the substitution rationale).

use kgoa_index::{FxHashSet, IndexOrder, IndexedGraph};
use kgoa_query::{ExplorationQuery, WalkPlan};

use crate::budget::ExecBudget;
use crate::error::EngineError;
use crate::result::GroupedCounts;

/// Default budget for materialized intermediate tuples.
pub const DEFAULT_TUPLE_LIMIT: usize = 50_000_000;

/// Evaluate a grouped (distinct) count query by materializing every
/// intermediate join result.
///
/// `tuple_limit` bounds the number of simultaneously materialized tuples;
/// exceeding it returns [`EngineError::IntermediateResultLimit`] (the
/// benchmark harness reports such runs as timeouts, mirroring the paper's
/// multi-hour Virtuoso outliers). Each materialized tuple is also charged
/// against the budget's tuple counter and the inner loops are metered, so
/// deadlines and cancellation interrupt even the pathological blow-up
/// cases this engine exists to exhibit.
pub(crate) fn baseline_grouped_governed(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    tuple_limit: usize,
    budget: &ExecBudget,
) -> Result<GroupedCounts, EngineError> {
    let plan = WalkPlan::canonical(query, &IndexOrder::PAPER_DEFAULT)?;
    let width = query.var_count();
    let mut meter = budget.meter();

    // Materialize pattern by pattern. Each tuple is a full-width
    // assignment; slots not yet bound hold arbitrary values.
    let mut tuples: Vec<Vec<u32>> = Vec::new();
    for (si, step) in plan.steps().iter().enumerate() {
        let index = ig.require(step.access.order);
        if si == 0 {
            let range = step.access.resolve_live(index, None);
            if range.len() > tuple_limit {
                return Err(EngineError::IntermediateResultLimit { limit: tuple_limit });
            }
            budget.charge_tuples(range.len() as u64)?;
            tuples.reserve(range.len());
            for pos in index.positions(range) {
                meter.tick()?;
                let mut t = vec![0u32; width];
                plan.extract_at(index, si, pos, &mut t);
                tuples.push(t);
            }
        } else {
            let mut next: Vec<Vec<u32>> = Vec::new();
            for t in &tuples {
                let in_value = step.in_var.map(|(v, _)| t[v.index()]);
                let range = step.access.resolve_live(index, in_value);
                if next.len() + range.len() > tuple_limit {
                    return Err(EngineError::IntermediateResultLimit { limit: tuple_limit });
                }
                budget.charge_tuples(range.len() as u64)?;
                for pos in index.positions(range) {
                    meter.tick()?;
                    let mut ext = t.clone();
                    plan.extract_at(index, si, pos, &mut ext);
                    next.push(ext);
                }
            }
            tuples = next;
        }
        if tuples.is_empty() {
            return Ok(GroupedCounts::new());
        }
    }

    // Final aggregation.
    let alpha = query.alpha().index();
    let beta = query.beta().index();
    let mut out = GroupedCounts::new();
    if query.distinct() {
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for t in &tuples {
            meter.tick()?;
            if seen.insert(kgoa_index::pack2(t[alpha], t[beta])) {
                out.add(t[alpha], 1);
            }
        }
    } else {
        for t in &tuples {
            meter.tick()?;
            out.add(t[alpha], 1);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_query::{TriplePattern, Var};
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    fn star() -> (IndexedGraph, TermId, TermId) {
        // a -p-> {x, y, z}; {x, y} -q-> c1; z -q-> c2.
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let n = |b: &mut GraphBuilder, s: &str| b.dict_mut().intern_iri(format!("u:{s}"));
        let a = n(&mut b, "a");
        let x = n(&mut b, "x");
        let y = n(&mut b, "y");
        let z = n(&mut b, "z");
        let c1 = n(&mut b, "c1");
        let c2 = n(&mut b, "c2");
        for t in [
            Triple::new(a, p, x),
            Triple::new(a, p, y),
            Triple::new(a, p, z),
            Triple::new(x, q, c1),
            Triple::new(y, q, c1),
            Triple::new(z, q, c2),
        ] {
            b.add(t);
        }
        (IndexedGraph::build(b.build()), p, q)
    }

    fn query(p: TermId, q: TermId, distinct: bool) -> ExplorationQuery {
        // ?0 -p-> ?1 -q-> ?2, group by ?2, count ?1.
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

    #[test]
    fn grouped_count() {
        let (ig, p, q) = star();
        let out = baseline_grouped_governed(
            &ig,
            &query(p, q, false),
            usize::MAX,
            &ExecBudget::unlimited(),
        )
        .unwrap();
        let c1 = ig.dict().lookup_iri("u:c1").unwrap();
        let c2 = ig.dict().lookup_iri("u:c2").unwrap();
        assert_eq!(out.get(c1), 2);
        assert_eq!(out.get(c2), 1);
    }

    #[test]
    fn grouped_distinct_dedups() {
        // Add a duplicate-ish edge: x -q-> c1 twice is impossible (set
        // semantics), so make two p-paths to x instead via another subject.
        let (ig, p, q) = star();
        let out = baseline_grouped_governed(
            &ig,
            &query(p, q, true),
            usize::MAX,
            &ExecBudget::unlimited(),
        )
        .unwrap();
        let c1 = ig.dict().lookup_iri("u:c1").unwrap();
        assert_eq!(out.get(c1), 2); // x and y are distinct
    }

    #[test]
    fn empty_result() {
        let (ig, p, _) = star();
        let out = baseline_grouped_governed(
            &ig,
            &query(p,
            TermId(9999), false),
            usize::MAX,
            &ExecBudget::unlimited(),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn tuple_limit_enforced() {
        let (ig, p, q) = star();
        let err = baseline_grouped_governed(
            &ig,
            &query(p, q, false),
            2,
            &ExecBudget::unlimited(),
        )
        .unwrap_err();
        assert_eq!(err, EngineError::IntermediateResultLimit { limit: 2 });
    }
}
