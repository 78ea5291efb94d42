//! SUM and AVG aggregates — one of the paper's explicit future-work items
//! (§IV-D *Limitations*: "other forms of aggregation, such as sum,
//! average").
//!
//! Semantics: over the (non-distinct) join results, per group α, aggregate
//! the *numeric value* of the counted variable β — e.g. "total population
//! by country" over a `?city :population ?pop` chain. Results whose β
//! value is not numeric contribute 0 to SUM and are excluded from AVG.
//!
//! Estimation follows the same Horvitz–Thompson scheme as the counts, as a
//! finisher on [`AuditJoin`]'s one walk loop: a full walk γ contributes
//! `value(β(γ)) · Π dᵢ` to its group's SUM estimator (unbiased by the same
//! argument as Prop. IV.1, since the value is a constant per path), and a
//! tipped walk contributes `Σ_paths value(β) / Pr(δ)` computed exactly by
//! the suffix recursion that yields its group counts. AVG is the ratio of
//! the SUM and COUNT estimators — the standard (consistent, asymptotically
//! unbiased) ratio estimator of online aggregation.

use kgoa_engine::{BudgetExceeded, ExecBudget, GroupedEstimates};
use kgoa_index::{FxHashMap, IndexedGraph};
use kgoa_query::{ExplorationQuery, QueryError};

use crate::accum::{GroupAccumulator, WalkStats};
use crate::audit::{AuditJoin, AuditJoinConfig, ValueSum};
use crate::online::{run_governed, run_walks, OnlineAggregator};

/// Numeric values of dictionary terms: literals whose lexical form parses
/// as a number (an optional `^^datatype` suffix is ignored).
#[derive(Debug, Clone, Default)]
pub struct NumericValues {
    values: FxHashMap<u32, f64>,
}

impl NumericValues {
    /// Scan a dictionary once, collecting every numeric literal.
    pub fn build(dict: &kgoa_rdf::Dictionary) -> Self {
        let mut values = FxHashMap::default();
        for (id, term) in dict.iter() {
            if term.kind == kgoa_rdf::TermKind::Literal {
                let lexical = term.lexical.split("^^").next().unwrap_or(term.lexical);
                if let Ok(v) = lexical.parse::<f64>() {
                    values.insert(id.raw(), v);
                }
            }
        }
        NumericValues { values }
    }

    /// The numeric value of a term (0.0 for non-numeric terms).
    #[inline]
    pub fn get(&self, id: u32) -> f64 {
        self.values.get(&id).copied().unwrap_or(0.0)
    }

    /// Number of numeric terms found.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no numeric literal exists.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Per-group SUM/COUNT/AVG estimates.
#[derive(Debug, Clone, Default)]
pub struct AggregateEstimates {
    /// Per-group SUM estimates (with CIs).
    pub sum: GroupedEstimates,
    /// Per-group COUNT estimates (with CIs).
    pub count: GroupedEstimates,
}

impl AggregateEstimates {
    /// The AVG ratio estimate for a group (`None` when the count estimate
    /// is zero).
    pub fn avg(&self, group: kgoa_rdf::TermId) -> Option<f64> {
        let c = self.count.get(group);
        (c > 0.0).then(|| self.sum.get(group) / c)
    }
}

/// Audit Join extended with a SUM estimator (COUNT is tracked alongside,
/// so AVG comes for free). Non-distinct semantics. This is an [`AuditJoin`]
/// carrying the SUM finisher, so the config's tipping policy, budgets and
/// walk counters are Audit Join's own.
pub struct SumAuditJoin<'g> {
    aj: AuditJoin<'g>,
}

impl<'g> SumAuditJoin<'g> {
    /// Create a run; the query's distinct flag is ignored (SUM/AVG are
    /// defined over the plain join results).
    pub fn new(
        ig: &'g IndexedGraph,
        query: &ExplorationQuery,
        config: AuditJoinConfig,
    ) -> Result<Self, QueryError> {
        let mut aj = AuditJoin::new(ig, &query.clone().with_distinct(false), config)?;
        aj.value_sum = Some(ValueSum {
            values: NumericValues::build(ig.dict()),
            accum: GroupAccumulator::new(),
        });
        Ok(SumAuditJoin { aj })
    }

    /// Walk counters.
    pub fn stats(&self) -> WalkStats {
        self.aj.stats()
    }

    /// Snapshot the SUM/COUNT/AVG estimates.
    pub fn estimates(&self) -> AggregateEstimates {
        let walks = self.aj.stats().walks;
        AggregateEstimates {
            sum: self.aj.value_sum.as_ref().map_or_else(GroupedEstimates::default, |sum| {
                sum.accum.estimates(walks)
            }),
            count: self.aj.estimates(),
        }
    }

    /// Run a fixed number of walks (one per batch, like [`run_walks`]).
    pub fn run(&mut self, walks: u64) {
        run_walks(&mut self.aj, walks);
    }

    /// Run in governed batches until `budget` trips (see [`run_governed`]).
    pub fn run_governed(&mut self, budget: &ExecBudget) -> BudgetExceeded {
        run_governed(&mut self.aj, budget)
    }
}

/// Exact per-group SUM over all join results (LFTJ enumeration) — the
/// ground truth for the estimator tests and the harness.
pub fn exact_group_sums(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
) -> Result<FxHashMap<u32, f64>, QueryError> {
    let values = NumericValues::build(ig.dict());
    let plan = kgoa_query::JoinPlan::canonical(query, &kgoa_index::IndexOrder::PAPER_DEFAULT)?;
    let mut exec = kgoa_engine::LftjExec::new(ig, query, plan)
        .expect("LFTJ construction cannot fail for planned queries");
    let alpha = query.alpha().index();
    let beta = query.beta().index();
    let mut out: FxHashMap<u32, f64> = FxHashMap::default();
    exec.run(|asg| {
        *out.entry(asg[alpha]).or_insert(0.0) += values.get(asg[beta]);
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Tipping;
    use kgoa_query::{TriplePattern, Var};
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    /// Cities with populations, linked to countries.
    fn graph() -> (IndexedGraph, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let in_country = b.dict_mut().intern_iri("u:inCountry");
        let population = b.dict_mut().intern_iri("u:population");
        for (city, country, pop) in [
            ("paris", "fr", 2_100_000.0),
            ("lyon", "fr", 520_000.0),
            ("berlin", "de", 3_600_000.0),
            ("hamburg", "de", 1_800_000.0),
            ("munich", "de", 1_500_000.0),
        ] {
            let c = b.dict_mut().intern_iri(format!("u:{city}"));
            let k = b.dict_mut().intern_iri(format!("u:{country}"));
            let p = b.dict_mut().intern_literal(format!("{pop}"));
            b.add(Triple::new(c, in_country, k));
            b.add(Triple::new(c, population, p));
        }
        (IndexedGraph::build(b.build()), in_country, population)
    }

    /// SUM(?pop) grouped by country: ?city inCountry ?k . ?city population ?pop.
    fn query(in_country: TermId, population: TermId) -> ExplorationQuery {
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), in_country, Var(1)),
                TriplePattern::new(Var(0), population, Var(2)),
            ],
            Var(1),
            Var(2),
            false,
        )
        .unwrap()
    }

    #[test]
    fn exact_sums_by_group() {
        let (ig, c, p) = graph();
        let sums = exact_group_sums(&ig, &query(c, p)).unwrap();
        let fr = ig.dict().lookup_iri("u:fr").unwrap().raw();
        let de = ig.dict().lookup_iri("u:de").unwrap().raw();
        assert!((sums[&fr] - 2_620_000.0).abs() < 1e-6);
        assert!((sums[&de] - 6_900_000.0).abs() < 1e-6);
    }

    #[test]
    fn online_sum_converges_to_exact() {
        let (ig, c, p) = graph();
        let q = query(c, p);
        let exact = exact_group_sums(&ig, &q).unwrap();
        let mut saj =
            SumAuditJoin::new(&ig, &q, AuditJoinConfig { tipping: Tipping::Static(4.0), seed: 3 })
                .unwrap();
        saj.run(30_000);
        let est = saj.estimates();
        for (&g, &s) in &exact {
            let rel = (est.sum.get(TermId(g)) - s).abs() / s;
            assert!(rel < 0.05, "group {g}: {} vs {s}", est.sum.get(TermId(g)));
        }
    }

    #[test]
    fn avg_is_sum_over_count() {
        let (ig, c, p) = graph();
        let q = query(c, p);
        let mut saj = SumAuditJoin::new(&ig, &q, AuditJoinConfig::default()).unwrap();
        saj.run(20_000);
        let est = saj.estimates();
        let fr = ig.dict().lookup_iri("u:fr").unwrap();
        let avg = est.avg(fr).expect("fr seen");
        // True AVG for France: (2.1M + 0.52M) / 2 = 1.31M.
        assert!((avg - 1_310_000.0).abs() / 1_310_000.0 < 0.05, "avg {avg}");
        assert!(est.avg(TermId(999_999)).is_none());
    }

    #[test]
    fn numeric_values_parse_datatypes() {
        let mut b = GraphBuilder::new();
        let a = b.dict_mut().intern_literal("5^^http://www.w3.org/2001/XMLSchema#integer");
        let f = b.dict_mut().intern_literal("2.5");
        let s = b.dict_mut().intern_literal("not a number");
        let iri = b.dict_mut().intern_iri("42");
        let values = NumericValues::build(b.dict());
        assert_eq!(values.get(a.raw()), 5.0);
        assert_eq!(values.get(f.raw()), 2.5);
        assert_eq!(values.get(s.raw()), 0.0);
        assert_eq!(values.get(iri.raw()), 0.0, "IRIs are never numeric");
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn tipping_with_values_matches_no_tipping() {
        let (ig, c, p) = graph();
        let q = query(c, p);
        let run = |thr: f64| {
            let mut saj = SumAuditJoin::new(
                &ig,
                &q,
                AuditJoinConfig { tipping: Tipping::from_threshold(thr), seed: 7 },
            )
            .unwrap();
            saj.run(40_000);
            saj.estimates()
        };
        let never = run(0.0);
        let always = run(f64::INFINITY);
        let fr = ig.dict().lookup_iri("u:fr").unwrap();
        let rel = (never.sum.get(fr) - always.sum.get(fr)).abs() / always.sum.get(fr);
        assert!(rel < 0.1, "estimators should agree: {rel}");
    }
}
