//! Exact-expectation tests for the online-aggregation estimators —
//! machine-checked versions of Propositions IV.1 and IV.2 of the paper.
//!
//! For small graphs we enumerate the *entire stopping set* Δ of the random
//! walk (every prefix at which the algorithm terminates: dead ends, full
//! paths, tipping points) together with each prefix's probability, and
//! verify that the expected estimator value equals the true count exactly
//! (up to floating-point tolerance):
//!
//! - `E[C_wj] = |Γ|` per group (Wander Join, non-distinct),
//! - `E[C_aj] = |Γ|` per group, for every tipping threshold,
//! - `E[C^d_aj] = |V|` per group, for every tipping threshold,
//! - and, as a contrast, that Wander Join's Ripple-style distinct handling
//!   is *biased* (the paper's motivation for the new estimator).

use kgoa_core::PrAb;
use kgoa_engine::{CountEngine, CtjCounter, ExecBudget, GroupedCounts, YannakakisEngine};
use kgoa_index::{FxHashMap, IndexOrder, IndexedGraph, RowRange};
use kgoa_query::{ExplorationQuery, SuffixEstimator, TriplePattern, Var, WalkPlan};
use kgoa_rdf::{GraphBuilder, TermId, Triple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Enumerate the stopping set of an Audit Join run (threshold < 0 ⇒ pure
/// Wander Join behaviour, never tipping) and accumulate the per-group
/// expected estimator value.
fn expected_estimates(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    threshold: f64,
    distinct: bool,
) -> FxHashMap<u32, f64> {
    let plan = WalkPlan::canonical(query, &IndexOrder::PAPER_DEFAULT).expect("plan");
    let est = SuffixEstimator::new(ig, query, &plan);
    let mut counter = CtjCounter::new(ig, plan.clone());
    let mut prab = PrAb::new(ig, query.clone(), plan.clone());
    let mut acc: FxHashMap<u32, f64> = FxHashMap::default();
    let mut assignment = vec![0u32; query.var_count()];

    // Stack-free recursion via an explicit helper.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        ig: &IndexedGraph,
        query: &ExplorationQuery,
        plan: &WalkPlan,
        est: &SuffixEstimator,
        counter: &mut CtjCounter<'_>,
        prab: &mut PrAb<'_>,
        threshold: f64,
        distinct: bool,
        step: usize,
        range: RowRange,
        prob: f64,
        prob_inv: f64,
        assignment: &mut Vec<u32>,
        acc: &mut FxHashMap<u32, f64>,
    ) {
        let d = range.len();
        if d == 0 {
            return; // rejection: estimator 0
        }
        let n = plan.len();
        let index = ig.require(plan.steps()[step].access.order);
        let alpha = query.alpha();
        let beta = query.beta();
        for pos in range.start..range.end {
            let p = prob / d as f64;
            let pinv = prob_inv * d as f64;
            plan.extract(step, index.row(pos), assignment);
            if step + 1 == n {
                // Full path.
                let a = assignment[alpha.index()];
                if distinct {
                    let b = assignment[beta.index()];
                    let pr = prab.pr(a, b);
                    *acc.entry(a).or_insert(0.0) += p / pr;
                } else {
                    *acc.entry(a).or_insert(0.0) += p * pinv;
                }
                continue;
            }
            let next_step = &plan.steps()[step + 1];
            let next_index = ig.require(next_step.access.order);
            let in_value = next_step.in_var.map(|(v, _)| assignment[v.index()]);
            let next = next_step.access.resolve(next_index, in_value);
            let est_rem = est.remaining(step + 1, next.len() as u64);
            if est_rem < threshold {
                // Tipping point: exact suffix computation, as in Fig. 7.
                if distinct {
                    let mut masses: FxHashMap<u64, f64> = FxHashMap::default();
                    counter
                        .pair_masses_from(
                            alpha,
                            beta,
                            step + 1,
                            None,
                            1.0,
                            assignment,
                            &mut ExecBudget::unlimited().meter(),
                            &mut masses,
                        )
                        .unwrap();
                    for (key, m) in masses {
                        let a = (key >> 32) as u32;
                        let b = key as u32;
                        let pr = prab.pr(a, b);
                        *acc.entry(a).or_insert(0.0) += p * m / pr;
                    }
                } else {
                    let mut counts: FxHashMap<u32, u64> = FxHashMap::default();
                    counter
                        .group_counts_from(
                            &[alpha],
                            step + 1,
                            None,
                            assignment,
                            &mut ExecBudget::unlimited().meter(),
                            |asg, c| *counts.entry(asg[alpha.index()]).or_insert(0) += c,
                        )
                        .unwrap();
                    for (a, c) in counts {
                        *acc.entry(a).or_insert(0.0) += p * c as f64 * pinv;
                    }
                }
            } else {
                rec(
                    ig, query, plan, est, counter, prab, threshold, distinct, step + 1, next,
                    p, pinv, assignment, acc,
                );
            }
        }
    }

    let step0 = &plan.steps()[0];
    let range0 = step0.access.resolve(ig.require(step0.access.order), None);
    rec(
        ig,
        query,
        &plan,
        &est,
        &mut counter,
        &mut prab,
        threshold,
        distinct,
        0,
        range0,
        1.0,
        1.0,
        &mut assignment,
        &mut acc,
    );
    acc
}

fn assert_matches_exact(expected: &FxHashMap<u32, f64>, exact: &GroupedCounts, what: &str) {
    assert_eq!(expected.len(), exact.len(), "{what}: group sets differ");
    for (g, c) in exact.iter() {
        let e = expected.get(&g.raw()).copied().unwrap_or(0.0);
        let rel = (e - c as f64).abs() / c as f64;
        assert!(rel < 1e-9, "{what}: group {g} expectation {e} vs exact {c}");
    }
}

/// A randomized small graph: `n` entities over three predicates + types.
fn random_graph(seed: u64, n: u32) -> (IndexedGraph, Vec<TermId>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let preds: Vec<TermId> =
        (0..3).map(|i| b.dict_mut().intern_iri(format!("u:p{i}"))).collect();
    let nodes: Vec<TermId> =
        (0..n).map(|i| b.dict_mut().intern_iri(format!("u:n{i}"))).collect();
    let classes: Vec<TermId> =
        (0..3).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
    let vocab = b.vocab();
    for &node in &nodes {
        if rng.gen_bool(0.8) {
            let c = classes[rng.gen_range(0..classes.len())];
            b.add(Triple::new(node, vocab.rdf_type, c));
        }
        for _ in 0..rng.gen_range(0..4) {
            let p = preds[rng.gen_range(0..preds.len())];
            let o = nodes[rng.gen_range(0..nodes.len())];
            b.add(Triple::new(node, p, o));
        }
    }
    (IndexedGraph::build(b.build()), preds)
}

/// Query shapes exercised by the expectation tests.
#[allow(clippy::vec_init_then_push)]
fn queries(ig: &IndexedGraph, preds: &[TermId], distinct: bool) -> Vec<ExplorationQuery> {
    let rdf_type = ig.vocab().rdf_type;
    let mut out = Vec::new();
    // Two-hop path, chart pattern last.
    out.push(
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), preds[0], Var(1)),
                TriplePattern::new(Var(1), preds[1], Var(2)),
            ],
            Var(2),
            Var(1),
            distinct,
        )
        .unwrap(),
    );
    // Three-hop path with a type chart.
    out.push(
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), preds[0], Var(1)),
                TriplePattern::new(Var(1), preds[2], Var(2)),
                TriplePattern::new(Var(2), rdf_type, Var(3)),
            ],
            Var(3),
            Var(2),
            distinct,
        )
        .unwrap(),
    );
    // α and β in different patterns (heads split).
    out.push(
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), preds[1], Var(1)),
                TriplePattern::new(Var(1), preds[0], Var(2)),
            ],
            Var(0),
            Var(2),
            distinct,
        )
        .unwrap(),
    );
    // Star: focus with a type branch plus a property hop (Berge-acyclic,
    // variable in three patterns).
    out.push(
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), rdf_type, Var(1)),
                TriplePattern::new(Var(0), preds[0], Var(2)),
                TriplePattern::new(Var(2), rdf_type, Var(3)),
            ],
            Var(3),
            Var(2),
            distinct,
        )
        .unwrap(),
    );
    out
}

#[test]
fn wander_join_count_estimator_is_unbiased() {
    for seed in 0..6 {
        let (ig, preds) = random_graph(seed, 14);
        for query in queries(&ig, &preds, false) {
            let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
            if exact.is_empty() {
                continue;
            }
            // Threshold below zero: tipping never fires ⇒ pure Wander Join.
            let expected = expected_estimates(&ig, &query, -1.0, false);
            assert_matches_exact(&expected, &exact, &format!("WJ seed {seed}"));
        }
    }
}

#[test]
fn audit_join_count_estimator_is_unbiased_for_all_thresholds() {
    for seed in 0..4 {
        let (ig, preds) = random_graph(seed, 12);
        for query in queries(&ig, &preds, false) {
            let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
            if exact.is_empty() {
                continue;
            }
            for threshold in [1.0, 8.0, 128.0, f64::INFINITY] {
                let expected = expected_estimates(&ig, &query, threshold, false);
                assert_matches_exact(
                    &expected,
                    &exact,
                    &format!("AJ seed {seed} thr {threshold}"),
                );
            }
        }
    }
}

#[test]
fn audit_join_distinct_estimator_is_unbiased_for_all_thresholds() {
    for seed in 0..4 {
        let (ig, preds) = random_graph(seed + 100, 12);
        for query in queries(&ig, &preds, true) {
            let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
            if exact.is_empty() {
                continue;
            }
            for threshold in [-1.0, 1.0, 8.0, 128.0, f64::INFINITY] {
                let expected = expected_estimates(&ig, &query, threshold, true);
                assert_matches_exact(
                    &expected,
                    &exact,
                    &format!("AJ-distinct seed {seed} thr {threshold}"),
                );
            }
        }
    }
}

/// The paper's motivation for the new estimator: Wander Join's
/// Ripple-Join-style distinct handling is biased. We verify statistically
/// that on a duplicate-heavy graph its long-run estimate drifts away from
/// the truth while Audit Join's stays on it.
#[test]
fn wander_join_distinct_handling_is_biased() {
    use kgoa_core::{run_walks, AuditJoin, AuditJoinConfig, OnlineAggregator, WanderJoin};
    // Heavy duplication: 30 subjects all point at the same 2 objects.
    let mut b = GraphBuilder::new();
    let p = b.dict_mut().intern_iri("u:p");
    let q = b.dict_mut().intern_iri("u:q");
    let c = b.dict_mut().intern_iri("u:c");
    let o1 = b.dict_mut().intern_iri("u:o1");
    let o2 = b.dict_mut().intern_iri("u:o2");
    for i in 0..30 {
        let s = b.dict_mut().intern_iri(format!("u:s{i}"));
        b.add(Triple::new(s, p, o1));
        b.add(Triple::new(s, p, o2));
    }
    b.add(Triple::new(o1, q, c));
    b.add(Triple::new(o2, q, c));
    let ig = IndexedGraph::build(b.build());
    let query = ExplorationQuery::new(
        vec![
            TriplePattern::new(Var(0), p, Var(1)),
            TriplePattern::new(Var(1), q, Var(2)),
        ],
        Var(2),
        Var(1),
        true,
    )
    .unwrap();
    let truth = 2.0; // distinct objects

    let mut wj = WanderJoin::new(&ig, &query, 9).unwrap();
    run_walks(&mut wj, 50_000);
    let wj_est = wj.estimates().get(c);

    let mut aj = AuditJoin::new(&ig, &query, AuditJoinConfig::default()).unwrap();
    run_walks(&mut aj, 50_000);
    let aj_est = aj.estimates().get(c);

    assert!(
        (aj_est - truth).abs() / truth < 0.05,
        "AJ should be on the truth: {aj_est} vs {truth}"
    );
    assert!(
        (wj_est - truth).abs() / truth > 0.5,
        "WJ's Ripple-style distinct estimate should be far off: {wj_est} vs {truth}"
    );
}
