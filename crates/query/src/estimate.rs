//! Join-size estimation for the Audit Join tipping point.
//!
//! §IV-D: "we use the same simple technique for join-size estimation as
//! used by PostgreSQL. In the case of two triple patterns joining on
//! c₁ = c₂, the size is estimated as the product between the number of
//! triples matched by each pattern, divided by the maximum number of
//! distinct terms of c₁ or c₂. For more than two patterns, we compose the
//! estimates in the straightforward manner."
//!
//! The per-step composition factors depend only on the plan and the graph
//! statistics, so they are precomputed once per query; the runtime tipping
//! check is a single multiplication against the *exact* fan-out of the next
//! step.

use kgoa_index::{IndexOrder, IndexedGraph};
use kgoa_rdf::Position;

use crate::pattern::TriplePattern;
use crate::walk::WalkPlan;

/// Exact number of triples matching a pattern's constants (variables free).
///
/// O(1) for the pattern shapes exploration queries produce (constants on P,
/// P+O, P+S, S, O or none); the rare S+O shape gets a cheap upper bound,
/// `min(|SPO range of s|, |OPS range of o|)`, since the four paper orders
/// hold no S+O prefix.
pub fn pattern_cardinality(ig: &IndexedGraph, pattern: &TriplePattern) -> u64 {
    let s = pattern.s.as_const();
    let p = pattern.p.as_const();
    let o = pattern.o.as_const();
    match (s, p, o) {
        (None, None, None) => ig.stats().triples,
        (None, Some(p), None) => ig.stats().predicate(p.raw()).triples,
        (Some(s), None, None) => ig.require(IndexOrder::Spo).range1(s.raw()).len() as u64,
        (None, None, Some(o)) => ig.require(IndexOrder::Ops).range1(o.raw()).len() as u64,
        (Some(s), Some(p), None) => {
            ig.require(IndexOrder::Pso).range2(p.raw(), s.raw()).len() as u64
        }
        (None, Some(p), Some(o)) => {
            ig.require(IndexOrder::Pos).range2(p.raw(), o.raw()).len() as u64
        }
        (Some(s), None, Some(o)) => {
            // Upper bound: the smaller of the two one-constant ranges.
            let a = ig.require(IndexOrder::Spo).range1(s.raw()).len() as u64;
            let b = ig.require(IndexOrder::Ops).range1(o.raw()).len() as u64;
            a.min(b)
        }
        (Some(s), Some(p), Some(o)) => {
            u64::from(ig.require(IndexOrder::Spo).contains_row(s.raw(), p.raw(), o.raw()))
        }
    }
}

/// Estimated number of distinct values of `attr` among the triples matching
/// a pattern's constants.
pub fn attr_ndv(ig: &IndexedGraph, pattern: &TriplePattern, attr: Position) -> u64 {
    if let Some(c) = pattern.get(attr).as_const() {
        let _ = c;
        return 1;
    }
    let card = pattern_cardinality(ig, pattern);
    let global = match attr {
        Position::S => ig.stats().distinct_subjects,
        Position::P => ig.stats().distinct_predicates,
        Position::O => ig.stats().distinct_objects,
    };
    if let Some(p) = pattern.p.as_const() {
        let ps = ig.stats().predicate(p.raw());
        let per_pred = match attr {
            Position::S => ps.distinct_subjects,
            Position::O => ps.distinct_objects,
            Position::P => 1,
        };
        // With extra constants the distinct count can only shrink further;
        // the matched-triple count is always an upper bound.
        return per_pred.min(card.max(1)).max(1);
    }
    global.min(card.max(1)).max(1)
}

/// Constant pinned to a [`TermId`]: factor estimating the growth of the
/// join when pattern `step` is appended, joining on `join_attr` against a
/// producer whose distinct-value estimate is `producer_ndv`.
fn step_factor(ig: &IndexedGraph, pattern: &TriplePattern, join_attr: Position, producer_ndv: u64) -> f64 {
    let card = pattern_cardinality(ig, pattern) as f64;
    let ndv_here = attr_ndv(ig, pattern, join_attr) as f64;
    let denom = (producer_ndv as f64).max(ndv_here).max(1.0);
    card / denom
}

/// Precomputed per-plan suffix estimates powering the O(1) tipping check.
#[derive(Debug, Clone)]
pub struct SuffixEstimator {
    /// `suffix_from[i]` = product of the composition factors of steps
    /// `i..n`; `suffix_from[n] = 1`.
    suffix_from: Vec<f64>,
}

impl SuffixEstimator {
    /// Precompute the composition factors for a walk plan.
    pub fn new(ig: &IndexedGraph, query: &crate::query::ExplorationQuery, plan: &WalkPlan) -> Self {
        let n = plan.len();
        let mut factors = vec![1.0f64; n];
        // producer_ndv per variable: ndv of the variable's position within
        // the pattern that first binds it.
        let mut producer_ndv = vec![1u64; plan.var_count()];
        for (i, step) in plan.steps().iter().enumerate() {
            let pattern = &query.patterns()[step.pattern_idx];
            if let Some((v, pos)) = step.in_var {
                factors[i] = step_factor(ig, pattern, pos, producer_ndv[v.index()]);
            } else {
                factors[i] = pattern_cardinality(ig, pattern) as f64;
            }
            for out in &step.out_vars {
                let pos = pattern
                    .position_of(*out)
                    .expect("out var occurs in its binding pattern");
                producer_ndv[out.index()] = attr_ndv(ig, pattern, pos);
            }
        }
        let mut suffix_from = vec![1.0f64; n + 1];
        for i in (0..n).rev() {
            suffix_from[i] = suffix_from[i + 1] * factors[i];
        }
        SuffixEstimator { suffix_from }
    }

    /// Estimated number of completions of a walk that has just resolved a
    /// candidate range of size `next_fanout` for step `next_step` (0-based):
    /// the exact fan-out of that step times the estimated growth of all
    /// later steps.
    #[inline]
    pub fn remaining(&self, next_step: usize, next_fanout: u64) -> f64 {
        next_fanout as f64 * self.suffix_from[next_step + 1]
    }

    /// Plan-time prediction of the step at which an Audit Join walk tips
    /// into its exact suffix computation: the first step `i ≥ 1` whose
    /// estimated remaining completions (`suffix_from[i]`, taking an average
    /// fan-out of 1 at the tipping check) fall below `threshold`. Returns
    /// `plan.len()` when no step is expected to tip (walks run full).
    pub(crate) fn expected_tip_step(&self, threshold: f64) -> usize {
        let n = self.suffix_from.len() - 1;
        (1..=n).find(|&i| self.suffix_from[i] < threshold).unwrap_or(n)
    }

    /// Plan-time cost model for one Audit Join walk under a tipping
    /// `threshold`: the sampled steps until the expected tipping point plus
    /// the expected exact-suffix work at the tip. The suffix term is capped
    /// by the threshold (the tipping rule never commits to a suffix
    /// estimated larger than it), making costs comparable across walk
    /// orders with very different suffix estimates.
    pub fn walk_cost(&self, threshold: f64) -> f64 {
        let tip = self.expected_tip_step(threshold);
        tip as f64 + self.suffix_from[tip].min(threshold.max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{TriplePattern, Var};
    use crate::query::ExplorationQuery;
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    fn build_ig() -> (IndexedGraph, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p10 = b.dict_mut().intern_iri("u:p10");
        let p11 = b.dict_mut().intern_iri("u:p11");
        // p10: 4 triples, subjects {a,b}, objects {x,y,z}
        // p11: 2 triples, subjects {x}, objects {m,n}
        for (s, p, o) in [
            ("a", p10, "x"),
            ("a", p10, "y"),
            ("b", p10, "y"),
            ("b", p10, "z"),
            ("x", p11, "m"),
            ("x", p11, "n"),
        ] {
            let s = b.dict_mut().intern_iri(format!("u:{s}"));
            let o = b.dict_mut().intern_iri(format!("u:{o}"));
            b.add(Triple::new(s, p, o));
        }
        (IndexedGraph::build(b.build()), p10, p11)
    }

    #[test]
    fn pattern_cardinality_by_shape() {
        let (ig, p10, p11) = build_ig();
        let a = ig.dict().lookup_iri("u:a").unwrap();
        let x = ig.dict().lookup_iri("u:x").unwrap();
        let v0 = Var(0);
        let v1 = Var(1);
        assert_eq!(pattern_cardinality(&ig, &TriplePattern::new(v0, p10, v1)), 4);
        assert_eq!(pattern_cardinality(&ig, &TriplePattern::new(v0, p11, v1)), 2);
        assert_eq!(pattern_cardinality(&ig, &TriplePattern::new(v0, Var(2), v1)), 6);
        assert_eq!(pattern_cardinality(&ig, &TriplePattern::new(a, p10, v1)), 2);
        assert_eq!(pattern_cardinality(&ig, &TriplePattern::new(v0, p10, x)), 1);
        assert_eq!(pattern_cardinality(&ig, &TriplePattern::new(a, p10, x)), 1);
        assert_eq!(pattern_cardinality(&ig, &TriplePattern::new(x, p10, a)), 0);
    }

    #[test]
    fn ndv_estimates() {
        let (ig, p10, _) = build_ig();
        let v0 = Var(0);
        let v1 = Var(1);
        let pat = TriplePattern::new(v0, p10, v1);
        assert_eq!(attr_ndv(&ig, &pat, Position::S), 2);
        assert_eq!(attr_ndv(&ig, &pat, Position::O), 3);
        assert_eq!(attr_ndv(&ig, &pat, Position::P), 1);
    }

    #[test]
    fn suffix_estimator_composes() {
        let (ig, p10, p11) = build_ig();
        let q = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p10, Var(1)),
                TriplePattern::new(Var(1), p11, Var(2)),
            ],
            Var(2),
            Var(1),
            true,
        )
        .unwrap();
        let plan = WalkPlan::canonical(&q, &IndexOrder::PAPER_DEFAULT).unwrap();
        let est = SuffixEstimator::new(&ig, &q, &plan);
        // Factor for step 1: card(p11)=2 / max(ndv_out(o of p10)=3, ndv_in(s of p11)=1) = 2/3.
        // remaining(step 1, fanout 2) = 2 * suffix_from[2] = 2.
        assert!((est.remaining(1, 2) - 2.0).abs() < 1e-9);
        // remaining(step 0, fanout 4) = 4 * factor(step1).
        assert!((est.remaining(0, 4) - 4.0 * (2.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn walk_cost_tracks_tipping_point() {
        let (ig, p10, p11) = build_ig();
        let q = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p10, Var(1)),
                TriplePattern::new(Var(1), p11, Var(2)),
            ],
            Var(2),
            Var(1),
            true,
        )
        .unwrap();
        let plan = WalkPlan::canonical(&q, &IndexOrder::PAPER_DEFAULT).unwrap();
        let est = SuffixEstimator::new(&ig, &q, &plan);
        // suffix_from = [8/3, 2/3, 1]. A generous threshold tips at the
        // first checkable step; a tiny one never tips.
        assert_eq!(est.expected_tip_step(1024.0), 1);
        assert_eq!(est.expected_tip_step(0.5), 2);
        assert!((est.walk_cost(1024.0) - (1.0 + 2.0 / 3.0)).abs() < 1e-9);
        assert!((est.walk_cost(0.5) - 3.0).abs() < 1e-9);
        // Cheaper threshold caps the suffix term: cost is monotone sane.
        assert!(est.walk_cost(1024.0) <= est.walk_cost(0.5));
    }
}
