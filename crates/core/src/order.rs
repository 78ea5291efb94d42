//! Walk-order selection.
//!
//! §V-B: "For each query, we tested different join orders of WJ and
//! selected the one with the best MAE." Without ground truth at run time,
//! the practical proxy (as in the Wander Join paper) is to trial every
//! candidate order briefly and keep the one with the lowest observed
//! rejection rate, tie-broken by the relative width of the confidence
//! intervals.

use kgoa_index::{IndexOrder, IndexedGraph};
use kgoa_query::{walk_orders, ExplorationQuery, QueryError, WalkPlan};

use crate::online::{run_walks, OnlineAggregator};
use crate::wander::WanderJoin;

/// How an aggregator chooses its walk order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderSelection {
    /// The canonical order (patterns from index 0 outward).
    Canonical,
    /// Trial every candidate order for `trial_walks` walks and keep the
    /// best-scoring one.
    BestOf {
        /// Walks per trial order.
        trial_walks: u64,
    },
}

/// The outcome of scoring one candidate order.
#[derive(Debug, Clone)]
pub struct OrderScore {
    /// The pattern order.
    pub order: Vec<usize>,
    /// Observed rejection rate during the trial.
    pub rejection_rate: f64,
    /// Mean relative CI half-width over the groups seen (lower = tighter).
    pub mean_rel_ci: f64,
}

/// Score every candidate walk order with short Wander Join trials.
pub fn score_orders(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    trial_walks: u64,
    seed: u64,
) -> Result<Vec<OrderScore>, QueryError> {
    let mut scores = Vec::new();
    for order in walk_orders(query) {
        let plan = WalkPlan::build(query, &order, &IndexOrder::PAPER_DEFAULT)?;
        let mut wj = WanderJoin::with_plan(ig, query, plan, seed)?;
        run_walks(&mut wj, trial_walks);
        let est = wj.estimates();
        let mut rel = 0.0;
        let mut k = 0usize;
        for (g, x) in est.estimates.iter() {
            if *x > 0.0 {
                rel += est.half_widths.get(g).copied().unwrap_or(f64::INFINITY) / x;
                k += 1;
            }
        }
        let mean_rel_ci = if k == 0 { f64::INFINITY } else { rel / k as f64 };
        scores.push(OrderScore {
            order,
            rejection_rate: wj.stats().rejection_rate(),
            mean_rel_ci,
        });
    }
    Ok(scores)
}

/// Select a walk plan per the given policy.
pub fn select_plan(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    selection: OrderSelection,
    seed: u64,
) -> Result<WalkPlan, QueryError> {
    match selection {
        OrderSelection::Canonical => WalkPlan::canonical(query, &IndexOrder::PAPER_DEFAULT),
        OrderSelection::BestOf { trial_walks } => {
            let scores = score_orders(ig, query, trial_walks, seed)?;
            let best = scores
                .into_iter()
                .min_by(|a, b| {
                    (a.rejection_rate, a.mean_rel_ci)
                        .partial_cmp(&(b.rejection_rate, b.mean_rel_ci))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .ok_or(QueryError::Empty)?;
            WalkPlan::build(query, &best.order, &IndexOrder::PAPER_DEFAULT)
        }
    }
}

/// Select a walk plan for Audit Join by trialling every candidate order
/// for a short wall-clock budget of actual Audit Join walks.
///
/// Wander Join's best order is not Audit Join's: an order can minimize
/// plain-walk rejections yet make the tipped exact suffix computations
/// enormous (e.g. walking backward from a selective pattern so the count
/// variable binds last). Running real AJ walks under a time budget folds
/// both effects into the score — orders with expensive walks produce fewer
/// trial samples and thus wider confidence intervals. A plan-time walk-cost
/// model ([`kgoa_query::SuffixEstimator::walk_cost`] at the configured
/// tipping threshold) breaks remaining ties toward orders whose expected
/// sampled-prefix plus exact-suffix work is cheapest.
pub fn select_plan_audit(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    config: crate::audit::AuditJoinConfig,
    trial: std::time::Duration,
) -> Result<WalkPlan, QueryError> {
    use crate::online::run_timed;
    let threshold = config.tipping.threshold();
    let mut best: Option<(f64, f64, f64, Vec<usize>)> = None;
    for order in walk_orders(query) {
        let plan = WalkPlan::build(query, &order, &IndexOrder::PAPER_DEFAULT)?;
        let plan_cost =
            kgoa_query::SuffixEstimator::new(ig, query, &plan).walk_cost(threshold);
        let mut aj = crate::audit::AuditJoin::with_plan(ig, query, plan, config)?;
        run_timed(&mut aj, 1, trial);
        let est = aj.estimates();
        let mut rel = 0.0;
        let mut k = 0usize;
        for (g, x) in est.estimates.iter() {
            if *x > 0.0 {
                rel += est.half_widths.get(g).copied().unwrap_or(f64::INFINITY) / x;
                k += 1;
            }
        }
        let mean_rel_ci = if k == 0 { f64::INFINITY } else { rel / k as f64 };
        let rejection = aj.stats().rejection_rate();
        let better = match &best {
            None => true,
            Some((r, c, p, _)) => (rejection, mean_rel_ci, plan_cost) < (*r, *c, *p),
        };
        if better {
            best = Some((rejection, mean_rel_ci, plan_cost, order));
        }
    }
    let (_, _, _, order) = best.ok_or(QueryError::Empty)?;
    WalkPlan::build(query, &order, &IndexOrder::PAPER_DEFAULT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_query::{TriplePattern, Var};
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    /// Forward walks die often (many p-objects have no q-edge); backward
    /// walks never die (every q-subject has a p-in-edge).
    fn asymmetric() -> (IndexedGraph, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let s = b.dict_mut().intern_iri("u:s");
        let c = b.dict_mut().intern_iri("u:c");
        for i in 0..20 {
            let o = b.dict_mut().intern_iri(format!("u:o{i}"));
            b.add(Triple::new(s, p, o));
            if i == 0 {
                b.add(Triple::new(o, q, c));
            }
        }
        (IndexedGraph::build(b.build()), p, q)
    }

    fn query(p: TermId, q: TermId) -> ExplorationQuery {
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(2),
            Var(1),
            false,
        )
        .unwrap()
    }

    #[test]
    fn scoring_covers_all_orders() {
        let (ig, p, q) = asymmetric();
        let scores = score_orders(&ig, &query(p, q), 500, 1).unwrap();
        assert_eq!(scores.len(), 2);
    }

    #[test]
    fn best_of_picks_low_rejection_order() {
        let (ig, p, q) = asymmetric();
        let plan =
            select_plan(&ig, &query(p, q), OrderSelection::BestOf { trial_walks: 500 }, 1)
                .unwrap();
        // The backward order starts at the q-pattern (index 1).
        assert_eq!(plan.steps()[0].pattern_idx, 1);
    }

    #[test]
    fn canonical_selection_is_forward() {
        let (ig, p, q) = asymmetric();
        let plan = select_plan(&ig, &query(p, q), OrderSelection::Canonical, 1).unwrap();
        assert_eq!(plan.steps()[0].pattern_idx, 0);
    }
}
