//! Differential oracle and abort-safety tests for [`PrAb`].
//!
//! The oracle knows nothing about indexes or pinning: it scans the live
//! triple list with nested loops, one level per step of the *original*
//! walk plan, dividing the path probability by the number of matches at
//! each level (the fan-out `dᵢ` a walk would have sampled from), and
//! groups the full assignments by `(α, β)`.

use std::collections::{BTreeMap, BTreeSet};

use kgoa_core::PrAb;
use kgoa_engine::{BudgetMeter, CtjCounter, ExecBudget};
use kgoa_index::{IndexOrder, IndexedGraph};
use kgoa_query::{walk_orders, ExplorationQuery, PatternTerm, TriplePattern, Var, WalkPlan};
use kgoa_rdf::{Graph, GraphBuilder, Position, TermId, Triple, VocabIds};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded small knowledge graph plus triples to add and to tombstone.
struct World {
    base: Graph,
    adds: Vec<Triple>,
    tombstones: Vec<Triple>,
    class: TermId,
    property: TermId,
}

fn world(seed: u64) -> World {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let v = b.vocab();
    let classes: Vec<TermId> = (0..4).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
    let props: Vec<TermId> = (0..3).map(|i| b.dict_mut().intern_iri(format!("u:p{i}"))).collect();
    let ents: Vec<TermId> = (0..10).map(|i| b.dict_mut().intern_iri(format!("u:e{i}"))).collect();
    for (i, &c) in classes.iter().enumerate() {
        let parent = if i == 0 { v.owl_thing } else { classes[rng.gen_range(0..i)] };
        b.add(Triple::new(c, v.subclass_of, parent));
    }
    let random_fact = |rng: &mut SmallRng| {
        let e = ents[rng.gen_range(0..ents.len())];
        if rng.gen_range(0..3) == 0 {
            Triple::new(e, v.rdf_type, classes[rng.gen_range(0..classes.len())])
        } else {
            Triple::new(e, props[rng.gen_range(0..props.len())], ents[rng.gen_range(0..ents.len())])
        }
    };
    for &e in &ents {
        b.add(Triple::new(e, v.rdf_type, classes[rng.gen_range(0..classes.len())]));
    }
    for _ in 0..36 {
        let t = random_fact(&mut rng);
        b.add(t);
    }
    b.materialize_subclass_closure();
    let base = b.build();
    let mut adds: Vec<Triple> = (0..10).map(|_| random_fact(&mut rng)).collect();
    adds.retain(|t| !base.contains(*t));
    adds.sort_unstable();
    adds.dedup();
    let tombstones: Vec<Triple> =
        (0..8).map(|_| base.triples()[rng.gen_range(0..base.len())]).collect();
    World { base, adds, tombstones, class: classes[0], property: props[0] }
}

/// The five expansions of Fig. 3 as Fig. 4 queries, at every depth up to
/// three clicks: from the root class bar, from a selected property bar,
/// and from the class bar an Object / Subject chart leads to.
fn shapes(v: VocabIds, class: TermId, p: TermId) -> Vec<(&'static str, ExplorationQuery)> {
    let var = |i: u16| PatternTerm::Var(Var(i));
    let pat = |s: PatternTerm, p: PatternTerm, o: PatternTerm| TriplePattern { s, p, o };
    let c = PatternTerm::Const;
    let root = vec![
        pat(var(0), c(v.rdf_type), var(1)),
        pat(var(1), c(v.subclass_of_trans), c(v.owl_thing)),
    ];
    let with = |base: &[TriplePattern], more: &[TriplePattern]| [base, more].concat();
    let out_bar = with(&root, &[pat(var(0), c(p), var(2))]);
    let in_bar = with(&root, &[pat(var(2), c(p), var(0))]);
    let typed = [pat(var(2), c(v.rdf_type), var(3)), pat(var(3), c(v.subclass_of_trans), c(class))];
    let object_bar = with(&out_bar, &typed);
    let subject_bar = with(&in_bar, &typed);
    let mut object_sub = with(&out_bar, &[typed[0]]);
    object_sub.push(pat(var(3), c(v.subclass_of_trans), var(4)));
    object_sub.push(pat(var(4), c(v.subclass_of), c(class)));
    let q = |patterns: Vec<TriplePattern>, alpha: u16, beta: u16| {
        ExplorationQuery::new(patterns, Var(alpha), Var(beta), true).expect("tree-shaped query")
    };
    vec![
        (
            "1:subclass",
            q(
                vec![
                    root[0],
                    pat(var(1), c(v.subclass_of_trans), var(2)),
                    pat(var(2), c(v.subclass_of), c(v.owl_thing)),
                ],
                2,
                0,
            ),
        ),
        ("1:out-property", q(with(&root, &[pat(var(0), var(2), var(3))]), 2, 0)),
        ("1:in-property", q(with(&root, &[pat(var(3), var(2), var(0))]), 2, 0)),
        ("2:object", q(with(&out_bar, &[pat(var(2), c(v.rdf_type), var(3))]), 3, 2)),
        ("2:subject", q(with(&in_bar, &[pat(var(2), c(v.rdf_type), var(3))]), 3, 2)),
        ("3:subclass", q(object_sub, 4, 2)),
        ("3:out-property", q(with(&object_bar, &[pat(var(2), var(4), var(5))]), 4, 2)),
        ("3:in-property", q(with(&object_bar, &[pat(var(5), var(4), var(2))]), 4, 2)),
        ("3:out-property/subject", q(with(&subject_bar, &[pat(var(2), var(4), var(5))]), 4, 2)),
    ]
}

/// `Pr(a, b)` of every pair that occurs, by nested loops over `live`.
fn oracle(live: &[Triple], query: &ExplorationQuery, plan: &WalkPlan) -> BTreeMap<(u32, u32), f64> {
    fn rec(
        live: &[Triple],
        query: &ExplorationQuery,
        plan: &WalkPlan,
        step: usize,
        prob: f64,
        asg: &mut Vec<Option<u32>>,
        out: &mut BTreeMap<(u32, u32), f64>,
    ) {
        if step == plan.len() {
            let a = asg[query.alpha().index()].expect("α bound by a full assignment");
            let b = asg[query.beta().index()].expect("β bound by a full assignment");
            *out.entry((a, b)).or_insert(0.0) += prob;
            return;
        }
        let pattern = query.patterns()[plan.steps()[step].pattern_idx];
        let fits = |t: &Triple, asg: &[Option<u32>]| {
            Position::ALL.into_iter().all(|pos| match pattern.get(pos) {
                PatternTerm::Const(c) => t.get(pos) == c,
                PatternTerm::Var(v) => match asg[v.index()] {
                    Some(x) => x == t.get(pos).raw(),
                    None => true,
                },
            })
        };
        let matches: Vec<Triple> = live.iter().copied().filter(|t| fits(t, asg)).collect();
        for t in &matches {
            let saved = asg.clone();
            for (v, pos) in pattern.vars() {
                asg[v.index()] = Some(t.get(pos).raw());
            }
            rec(live, query, plan, step + 1, prob / matches.len() as f64, asg, out);
            *asg = saved;
        }
    }
    let mut out = BTreeMap::new();
    rec(live, query, plan, 0, 1.0, &mut vec![None; query.var_count()], &mut out);
    out
}

fn close(x: f64, y: f64) -> bool {
    x.is_finite() && (x - y).abs() <= 1e-12 * x.abs().max(y.abs())
}

/// Every plan a walk could follow: one greedy order per starting pattern.
fn plans(query: &ExplorationQuery) -> Vec<WalkPlan> {
    walk_orders(query)
        .iter()
        .filter_map(|order| WalkPlan::build(query, order, &IndexOrder::PAPER_DEFAULT).ok())
        .collect()
}

#[test]
fn pr_ab_agrees_with_the_nested_loop_oracle() {
    let mut pairs_checked = 0usize;
    let mut absent_checked = 0usize;
    for seed in 0..6u64 {
        let w = world(seed);
        let base_ig = IndexedGraph::build(w.base.clone());
        let overlays: [(&str, &[Triple], &[Triple]); 3] = [
            ("none", &[], &[]),
            ("adds", &w.adds, &[]),
            ("adds+tombstones", &w.adds, &w.tombstones),
        ];
        for (overlay, adds, tombstones) in overlays {
            let mut live: Vec<Triple> = w.base.triples().to_vec();
            live.retain(|t| !tombstones.contains(t));
            live.extend_from_slice(adds);
            live.sort_unstable();
            let overlaid = base_ig.with_overlay(adds, tombstones);
            let rebuilt = IndexedGraph::build(Graph::from_sorted_parts(
                w.base.dict().clone(),
                live.clone(),
                w.base.vocab(),
            ));
            for (shape, query) in shapes(w.base.vocab(), w.class, w.property) {
                for plan in plans(&query) {
                    let truth = oracle(&live, &query, &plan);
                    let what = format!("seed {seed} overlay {overlay} shape {shape}");
                    for (side, ig) in [("overlay", &overlaid), ("rebuilt", &rebuilt)] {
                        let mut prab = PrAb::new(ig, query.clone(), plan.clone());
                        assert_eq!(prab.stats().plans, 0, "{what}: planned before any pair");
                        let mut sum = 0.0;
                        for (&(a, b), &p) in &truth {
                            let got = prab.pr(a, b);
                            assert!(close(got, p), "{what} {side} Pr({a},{b}) = {got}, oracle {p}");
                            sum += got;
                        }
                        let mut assignment = vec![0u32; query.var_count()];
                        let mass = CtjCounter::new(ig, plan.clone())
                            .mass_from(0, &mut assignment, &mut ExecBudget::unlimited().meter())
                            .unwrap();
                        assert!(close(sum, mass), "{what} {side}: Σ Pr = {sum}, walk mass {mass}");
                        // A known b with an a it never reaches, and an id no
                        // triple mentions.
                        let groups: BTreeSet<u32> = truth.keys().map(|&(a, _)| a).collect();
                        let counted: BTreeSet<u32> = truth.keys().map(|&(_, b)| b).collect();
                        let mut absent = 0usize;
                        for &a in &groups {
                            for &b in counted.iter().filter(|&&b| !truth.contains_key(&(a, b))) {
                                assert_eq!(prab.pr(a, b), 0.0, "{what} {side} absent ({a},{b})");
                                absent += 1;
                            }
                        }
                        let nowhere = ig.dict().len() as u32 + 7;
                        assert_eq!(prab.pr(nowhere, nowhere), 0.0);
                        let stats = prab.stats();
                        assert_eq!(stats.plans, 1, "{what} {side}: one plan for every pair");
                        assert_eq!(stats.pairs, (truth.len() + absent + 1) as u64);
                        let rows = stats.rows;
                        for &(a, b) in truth.keys() {
                            prab.pr(a, b);
                        }
                        assert_eq!(
                            prab.stats().rows,
                            rows,
                            "{what} {side}: cached pairs enumerate nothing"
                        );
                        assert_eq!(prab.stats().plans, 1);
                        pairs_checked += truth.len();
                        absent_checked += absent;
                    }
                }
            }
        }
    }
    assert!(pairs_checked > 2_000, "the generated cases must exercise real pairs: {pairs_checked}");
    assert!(absent_checked > 2_000, "… and absent ones: {absent_checked}");
}

/// A meter whose `k`-th tick from now (1 ≤ k ≤ STRIDE) trips: the budget
/// is cancelled, and the meter is wound so that its next full check — the
/// only place a cancellation is seen — falls on that tick.
fn meter_tripping_at(k: u64) -> BudgetMeter {
    let stride = u64::from(BudgetMeter::STRIDE);
    assert!((1..=stride).contains(&k));
    let budget = ExecBudget::builder().build();
    let mut meter = budget.meter();
    for _ in 0..=stride - k {
        meter.tick().expect("nothing trips before the cancellation");
    }
    budget.cancel();
    meter
}

#[test]
fn an_aborted_pair_leaves_nothing_behind() {
    let w = world(3);
    let ig = IndexedGraph::build(w.base.clone()).with_overlay(&w.adds, &w.tombstones);
    let mut live: Vec<Triple> = w.base.triples().to_vec();
    live.retain(|t| !w.tombstones.contains(t));
    live.extend_from_slice(&w.adds);
    let mut aborts = 0u64;
    for (shape, query) in shapes(w.base.vocab(), w.class, w.property) {
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let pairs: Vec<(u32, u32)> = oracle(&live, &query, &plan).into_keys().collect();
        // Exact values and tick counts from a computer that never aborts.
        let mut reference = PrAb::new(&ig, query.clone(), plan.clone());
        let exact: Vec<(f64, u64)> = pairs
            .iter()
            .map(|&(a, b)| {
                let before = reference.stats().rows;
                (reference.pr(a, b), reference.stats().rows - before)
            })
            .collect();
        for (x, &(a, b)) in pairs.iter().enumerate().take(6) {
            let y = (x + 1) % pairs.len();
            let (ya, yb) = pairs[y];
            let (want, ticks) = exact[x];
            assert!(
                ticks >= 1 && ticks <= u64::from(BudgetMeter::STRIDE),
                "{shape}: {ticks} ticks"
            );
            for k in 1..=ticks {
                let mut prab = PrAb::new(&ig, query.clone(), plan.clone());
                let mut meter = meter_tripping_at(k);
                assert!(
                    prab.try_pr(a, b, &mut meter).is_err(),
                    "{shape} ({a},{b}) tick {k}/{ticks}"
                );
                assert_eq!(prab.stats().pairs, 0, "an aborted pair is not cached");
                // Alternate which pair is asked right after the abort.
                let order = if k % 2 == 0 {
                    [(a, b, want), (ya, yb, exact[y].0)]
                } else {
                    [(ya, yb, exact[y].0), (a, b, want)]
                };
                for (a, b, want) in order {
                    let got = prab.pr(a, b);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{shape} ({a},{b}) after abort at tick {k}"
                    );
                }
                assert_eq!(prab.stats().plans, 1);
                aborts += 1;
            }
        }
    }
    assert!(aborts > 200, "the cases must abort mid-enumeration: {aborts}");
}
