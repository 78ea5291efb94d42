//! Differential testing over seeded random cases: on randomized graphs and
//! queries, every exact engine must produce identical grouped counts, in
//! both the distinct and non-distinct cases, and the two
//! worst-case-optimal counting paths (LFTJ enumeration vs CTJ cached
//! recursion) must agree on the join size.
//!
//! Each test is a deterministic fuzz loop: case `i` derives its graph from
//! `SmallRng::seed_from_u64(BASE + i)`, so a failure report's case number
//! reproduces exactly.

use kgoa_engine::{
    ctj_count, lftj_count, BaselineEngine, CountEngine, CtjCounter, CtjEngine, ExecBudget,
    GroupedCounts, LftjEngine, YannakakisEngine,
};
use kgoa_index::{FxHashMap, IndexOrder, IndexedGraph};
use kgoa_query::{ExplorationQuery, PatternTerm, TriplePattern, Var, WalkPlan};
use kgoa_rdf::{GraphBuilder, TermId, Triple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// A compact description of a random graph: edges as (subject, predicate,
/// object) index triples over small id spaces.
#[derive(Debug, Clone)]
struct RawGraph {
    edges: Vec<(u8, u8, u8)>,
    types: Vec<(u8, u8)>,
}

fn raw_graph(rng: &mut SmallRng) -> RawGraph {
    let n_edges = rng.gen_range(1usize..40);
    let n_types = rng.gen_range(0usize..12);
    RawGraph {
        edges: (0..n_edges)
            .map(|_| (rng.gen_range(0u8..12), rng.gen_range(0u8..3), rng.gen_range(0u8..12)))
            .collect(),
        types: (0..n_types)
            .map(|_| (rng.gen_range(0u8..12), rng.gen_range(0u8..3)))
            .collect(),
    }
}

struct Built {
    ig: IndexedGraph,
    preds: Vec<TermId>,
}

fn build(raw: &RawGraph) -> Built {
    let mut b = GraphBuilder::new();
    let preds: Vec<TermId> = (0..3).map(|i| b.dict_mut().intern_iri(format!("u:p{i}"))).collect();
    let nodes: Vec<TermId> =
        (0..12).map(|i| b.dict_mut().intern_iri(format!("u:n{i}"))).collect();
    let classes: Vec<TermId> =
        (0..3).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
    let vocab = b.vocab();
    for (s, p, o) in &raw.edges {
        b.add(Triple::new(nodes[*s as usize], preds[*p as usize], nodes[*o as usize]));
    }
    for (s, c) in &raw.types {
        b.add(Triple::new(nodes[*s as usize], vocab.rdf_type, classes[*c as usize]));
    }
    Built { ig: IndexedGraph::build(b.build()), preds }
}

/// The query shapes the differential test sweeps.
fn query_shapes(built: &Built, distinct: bool) -> Vec<ExplorationQuery> {
    let p = &built.preds;
    let rdf_type = built.ig.vocab().rdf_type;
    let mk = |patterns: Vec<TriplePattern>, a: u16, b: u16| {
        ExplorationQuery::new(patterns, Var(a), Var(b), distinct).expect("valid test query")
    };
    vec![
        // Single pattern with variable predicate.
        mk(vec![TriplePattern::new(Var(0), Var(1), Var(2))], 1, 0),
        // Two-hop path.
        mk(
            vec![
                TriplePattern::new(Var(0), p[0], Var(1)),
                TriplePattern::new(Var(1), p[1], Var(2)),
            ],
            2,
            1,
        ),
        // Three-hop path with heads split.
        mk(
            vec![
                TriplePattern::new(Var(0), p[0], Var(1)),
                TriplePattern::new(Var(1), p[2], Var(2)),
                TriplePattern::new(Var(2), p[1], Var(3)),
            ],
            0,
            3,
        ),
        // Star around the focus with a type chart.
        mk(
            vec![
                TriplePattern::new(Var(0), rdf_type, Var(1)),
                TriplePattern::new(Var(0), p[0], Var(2)),
                TriplePattern::new(Var(2), rdf_type, Var(3)),
            ],
            3,
            2,
        ),
        // Property chart: variable predicate off a typed focus.
        mk(
            vec![
                TriplePattern::new(Var(0), rdf_type, Var(1)),
                TriplePattern::new(Var(0), Var(2), Var(3)),
            ],
            2,
            0,
        ),
    ]
}

/// A deliberately naive evaluator: recursive nested scans over the full
/// triple list, no indexes, no planning. Slow but independent of every
/// data structure under test — the court of last appeal.
fn naive_grouped(
    triples: &[Triple],
    query: &ExplorationQuery,
) -> kgoa_engine::GroupedCounts {
    fn rec(
        triples: &[Triple],
        patterns: &[kgoa_query::TriplePattern],
        bound: &mut Vec<Option<u32>>,
        results: &mut Vec<(u32, u32)>,
        alpha: Var,
        beta: Var,
    ) {
        let Some((pattern, rest)) = patterns.split_first() else {
            results.push((
                bound[alpha.index()].expect("alpha bound"),
                bound[beta.index()].expect("beta bound"),
            ));
            return;
        };
        for t in triples {
            let mut newly = Vec::new();
            let mut matched = true;
            for (slot, val) in [
                (pattern.s, t.s.raw()),
                (pattern.p, t.p.raw()),
                (pattern.o, t.o.raw()),
            ] {
                match slot {
                    PatternTerm::Const(c) => {
                        if c.raw() != val {
                            matched = false;
                            break;
                        }
                    }
                    PatternTerm::Var(v) => match bound[v.index()] {
                        Some(b) if b != val => {
                            matched = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            bound[v.index()] = Some(val);
                            newly.push(v);
                        }
                    },
                }
            }
            if matched {
                rec(triples, rest, bound, results, alpha, beta);
            }
            // Unbind even on a failed match: earlier slots of this triple
            // may already have bound variables.
            for v in newly {
                bound[v.index()] = None;
            }
        }
    }
    let mut bound = vec![None; query.var_count()];
    let mut results = Vec::new();
    rec(triples, query.patterns(), &mut bound, &mut results, query.alpha(), query.beta());
    let mut out = kgoa_engine::GroupedCounts::new();
    if query.distinct() {
        results.sort_unstable();
        results.dedup();
    }
    for (a, _) in results {
        out.add(a, 1);
    }
    out
}

#[test]
fn engines_agree_with_naive_reference() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD1FF_0000 + case);
        let built = build(&raw_graph(&mut rng));
        let distinct = rng.gen_bool(0.5);
        let spo = built.ig.require(IndexOrder::Spo);
        let triples: Vec<Triple> = (0..spo.len() as u32).map(|i| spo.triple(i)).collect();
        for query in query_shapes(&built, distinct) {
            let naive = naive_grouped(&triples, &query);
            let ctj = CtjEngine.evaluate(&built.ig, &query).expect("ctj");
            assert_eq!(naive, ctj, "case {case}: CTJ deviates from naive scans on {query}");
        }
    }
}

#[test]
fn all_engines_agree() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD1FF_1000 + case);
        let built = build(&raw_graph(&mut rng));
        let distinct = rng.gen_bool(0.5);
        let engines: Vec<Box<dyn CountEngine>> = vec![
            Box::new(LftjEngine),
            Box::new(CtjEngine),
            Box::new(YannakakisEngine),
            Box::new(BaselineEngine::default()),
        ];
        for query in query_shapes(&built, distinct) {
            let reference = engines[0].evaluate(&built.ig, &query).expect("lftj");
            for e in &engines[1..] {
                let r = e.evaluate(&built.ig, &query).unwrap_or_else(|_| panic!("{}", e.name()));
                assert_eq!(
                    reference,
                    r,
                    "case {case}: {} disagrees with lftj on {query} (distinct={distinct})",
                    e.name()
                );
            }
        }
    }
}

#[test]
fn count_paths_agree() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD1FF_2000 + case);
        let built = build(&raw_graph(&mut rng));
        for query in query_shapes(&built, false) {
            let a = lftj_count(&built.ig, &query).expect("lftj count");
            let b = ctj_count(&built.ig, &query).expect("ctj count");
            assert_eq!(a, b, "case {case}: join size mismatch on {query}");
            // Grouped counts must sum to the join size, and match LFTJ's,
            // which share no code with CTJ's drivers.
            let grouped = CtjEngine.evaluate(&built.ig, &query).expect("grouped");
            assert_eq!(grouped.total(), a, "case {case}");
            let lftj = LftjEngine.evaluate(&built.ig, &query).expect("lftj grouped");
            assert_eq!(grouped, lftj, "case {case}: grouped counts on {query}");
            // Grouping by both heads and folding per α gives the same
            // counts: the driver must not collapse a step that binds a head.
            let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).expect("plan");
            let (alpha, beta) = (query.alpha(), query.beta());
            let mut counter = CtjCounter::new(&built.ig, plan.clone());
            let mut asg = vec![0u32; query.var_count()];
            let mut meter = ExecBudget::unlimited().meter();
            let mut by_pair = GroupedCounts::new();
            counter
                .group_counts_from(&[alpha, beta], 0, None, &mut asg, &mut meter, |asg, n| {
                    by_pair.add(asg[alpha.index()], n)
                })
                .expect("unlimited budget");
            assert_eq!(by_pair, grouped, "case {case}: grouping by (α, β) on {query}");
            // The per-(α, β) walk masses sum to the walk-success mass.
            let mut masses = FxHashMap::default();
            counter
                .pair_masses_from(alpha, beta, 0, None, 1.0, &mut asg, &mut meter, &mut masses)
                .expect("unlimited budget");
            let total: f64 = masses.values().sum();
            let mass = CtjCounter::new(&built.ig, plan)
                .mass_from(0, &mut asg, &mut meter)
                .expect("unlimited budget");
            assert!(
                (total - mass).abs() <= 1e-12 * mass,
                "case {case}: Σ pair masses {total} vs walk mass {mass} on {query}"
            );
        }
    }
}

#[test]
fn distinct_never_exceeds_plain() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD1FF_3000 + case);
        let built = build(&raw_graph(&mut rng));
        for query in query_shapes(&built, true) {
            let distinct = CtjEngine.evaluate(&built.ig, &query).expect("distinct");
            let plain = CtjEngine
                .evaluate(&built.ig, &query.with_distinct(false))
                .expect("plain");
            assert_eq!(distinct.len(), plain.len(), "case {case}: same group sets");
            for (g, c) in distinct.iter() {
                assert!(
                    c <= plain.get(g),
                    "case {case}: distinct {c} > plain {} in group {g}",
                    plain.get(g)
                );
                assert!(c >= 1, "case {case}");
            }
        }
    }
}

#[test]
fn constants_restrict_results() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD1FF_4000 + case);
        let built = build(&raw_graph(&mut rng));
        let pin = rng.gen_range(0u8..12);
        // Pin the final object of a two-hop path to a constant; the pinned
        // result must be the matching slice of the unpinned one.
        let p = &built.preds;
        let unpinned = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p[0], Var(1)),
                TriplePattern::new(Var(1), p[1], Var(2)),
            ],
            Var(0),
            Var(1),
            true,
        )
        .expect("query");
        let node = built.ig.dict().lookup_iri(&format!("u:n{pin}")).expect("node interned");
        let pinned = unpinned.bind_var(Var(2), node);
        assert_eq!(pinned.patterns()[1].o, PatternTerm::Const(node), "case {case}");
        let full = CtjEngine.evaluate(&built.ig, &unpinned).expect("full");
        let restricted = CtjEngine.evaluate(&built.ig, &pinned).expect("restricted");
        for (g, c) in restricted.iter() {
            assert!(c <= full.get(g), "case {case}: pinning must not grow counts");
        }
    }
}
