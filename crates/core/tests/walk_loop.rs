//! Contract tests for the one walk loop behind [`OnlineAggregator`]: the
//! provided stepping methods refuse cleanly, the walk counters obey their
//! conservation laws at every batch size, and the SUM finisher rides the
//! same governed loop without disturbing the counts.

use kgoa_core::{
    exact_group_sums, run_governed, run_walks_batched, AuditJoin, AuditJoinConfig,
    OnlineAggregator, SumAuditJoin, Tipping, WanderJoin,
};
use kgoa_engine::{BudgetMeter, BudgetReason, ExecBudget, GroupedEstimates};
use kgoa_index::IndexedGraph;
use kgoa_query::{ExplorationQuery, TriplePattern, Var};
use kgoa_rdf::{GraphBuilder, TermId, Triple};

/// A three-hop chain `s -p-> m -q-> o -r-> "number"` with uneven fan-outs,
/// shared mids and objects, and dead ends at both inner hops. Grouped by
/// the mid, counting (or summing) the literal: α is bound one step before
/// β, so a walk can tip between the two.
fn chain(distinct: bool) -> (IndexedGraph, ExplorationQuery) {
    let mut b = GraphBuilder::new();
    let [p, q, r] = ["u:p", "u:q", "u:r"].map(|n| b.dict_mut().intern_iri(n));
    let mids: Vec<TermId> = (0..12).map(|i| b.dict_mut().intern_iri(format!("u:m{i}"))).collect();
    let objs: Vec<TermId> = (0..9).map(|i| b.dict_mut().intern_iri(format!("u:o{i}"))).collect();
    let nums: Vec<TermId> =
        (0..5).map(|i| b.dict_mut().intern_literal(format!("{}", 10 * i + 3))).collect();
    for si in 0..20usize {
        let s = b.dict_mut().intern_iri(format!("u:s{si}"));
        for k in 0..1 + si % 4 {
            b.add(Triple::new(s, p, mids[(3 * si + 5 * k) % mids.len()]));
        }
    }
    for (mi, &m) in mids.iter().enumerate() {
        if mi % 4 == 3 {
            continue; // dead end: no q-edge
        }
        for k in 0..1 + mi % 3 {
            b.add(Triple::new(m, q, objs[(2 * mi + k) % objs.len()]));
        }
    }
    for (oi, &o) in objs.iter().enumerate() {
        if oi % 3 == 2 {
            continue; // dead end: no value
        }
        for k in 0..1 + oi % 2 {
            b.add(Triple::new(o, r, nums[(oi + 2 * k) % nums.len()]));
        }
    }
    let query = ExplorationQuery::new(
        vec![
            TriplePattern::new(Var(0), p, Var(1)),
            TriplePattern::new(Var(1), q, Var(2)),
            TriplePattern::new(Var(2), r, Var(3)),
        ],
        Var(1),
        Var(3),
        distinct,
    )
    .unwrap();
    (IndexedGraph::build(b.build()), query)
}

/// A two-hop star `s -p-> o -q-> t`: 30 subjects each reach one or two of
/// `objects` objects, and object `i` has `fanout(i)` targets. Grouped by
/// the target, counting subjects: under an infinite threshold every walk
/// tips before its second step, and the tipped suffix enumerates exactly
/// that object's targets.
fn star(
    objects: usize,
    fanout: impl Fn(usize) -> usize,
    distinct: bool,
) -> (IndexedGraph, ExplorationQuery) {
    let mut b = GraphBuilder::new();
    let [p, q] = ["u:p", "u:q"].map(|n| b.dict_mut().intern_iri(n));
    let objs: Vec<TermId> =
        (0..objects).map(|i| b.dict_mut().intern_iri(format!("u:o{i}"))).collect();
    for si in 0..30 {
        let s = b.dict_mut().intern_iri(format!("u:s{si}"));
        for k in 0..1 + si % 2 {
            b.add(Triple::new(s, p, objs[(si + 3 * k) % objects]));
        }
    }
    for (oi, &o) in objs.iter().enumerate() {
        for ti in 0..fanout(oi) {
            let t = b.dict_mut().intern_iri(format!("u:t{ti}"));
            b.add(Triple::new(o, q, t));
        }
    }
    let query = ExplorationQuery::new(
        vec![TriplePattern::new(Var(0), p, Var(1)), TriplePattern::new(Var(1), q, Var(2))],
        Var(2),
        Var(0),
        distinct,
    )
    .unwrap();
    (IndexedGraph::build(b.build()), query)
}

const TIP_ALL: AuditJoinConfig =
    AuditJoinConfig { tipping: Tipping::Static(f64::INFINITY), seed: 3 };

const TIPPING: AuditJoinConfig = AuditJoinConfig { tipping: Tipping::Static(4.0), seed: 29 };

fn bits(est: &GroupedEstimates) -> Vec<(u32, u64, u64)> {
    let mut rows: Vec<(u32, u64, u64)> = est
        .estimates
        .iter()
        .map(|(g, x)| (*g, x.to_bits(), est.half_widths[g].to_bits()))
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn provided_methods_refuse_without_touching_the_run() {
    let (ig, query) = chain(true);
    let runs: [Box<dyn OnlineAggregator + '_>; 2] = [
        Box::new(WanderJoin::new(&ig, &query, 5).unwrap()),
        Box::new(AuditJoin::new(&ig, &query, TIPPING).unwrap()),
    ];
    for mut agg in runs {
        let name = agg.name();
        for _ in 0..40 {
            agg.step();
        }
        let capped = ExecBudget::builder().walk_limit(3).build();
        for _ in 0..3 {
            agg.step_governed(&capped).unwrap();
        }
        assert_eq!(agg.stats().walks, 43, "{name}");
        let before = (agg.stats(), bits(&agg.estimates()));

        let stop = agg.step_governed(&capped).unwrap_err();
        assert_eq!(stop.reason, BudgetReason::WalkLimit { limit: 3 }, "{name}");
        assert_eq!((agg.stats(), bits(&agg.estimates())), before, "{name}: exhausted cap");
        assert_eq!(agg.step_batch_governed(&capped, 0).unwrap(), 0, "{name}");

        let cancelled = ExecBudget::builder().build();
        cancelled.cancel();
        let stop = agg.step_governed(&cancelled).unwrap_err();
        assert_eq!(stop.reason, BudgetReason::Cancelled, "{name}");
        assert_eq!((agg.stats(), bits(&agg.estimates())), before, "{name}: cancelled");
        assert_eq!(agg.step_batch_governed(&cancelled, 0).unwrap(), 0, "{name}");
    }
}

#[test]
fn walk_counters_are_conserved_at_every_batch_size() {
    const WALKS: u64 = 2_000;
    for distinct in [false, true] {
        let (ig, query) = chain(distinct);
        for batch in [1u64, 7, 256] {
            let ctx = format!("batch {batch} distinct={distinct}");
            // Per step `(visits, dead_ends, tips)`; Wander Join never tips.
            let mut wj = WanderJoin::new(&ig, &query, 3).unwrap();
            run_walks_batched(&mut wj, WALKS, batch);
            let wj_steps: Vec<(u64, u64, u64)> =
                wj.step_stats().map(|(v, d)| (v, d, 0)).collect();
            let mut aj = AuditJoin::new(&ig, &query, TIPPING).unwrap();
            run_walks_batched(&mut aj, WALKS, batch);
            assert!(aj.stats().tipped > 0 && aj.stats().rejected > 0, "aj {ctx}");
            for (name, stats, steps) in
                [("wj", wj.stats(), wj_steps), ("aj", aj.stats(), aj.step_stats().collect())]
            {
                assert_eq!(stats.walks, WALKS, "{name} {ctx}");
                assert_eq!(stats.full + stats.tipped + stats.rejected, WALKS, "{name} {ctx}");
                assert_eq!(steps[0].0, WALKS, "{name} {ctx}: every walk samples step 0");
                assert!(steps.windows(2).all(|w| w[0].0 >= w[1].0), "{name} {ctx}: {steps:?}");
                let dead_ends: u64 = steps.iter().map(|s| s.1).sum();
                let tips: u64 = steps.iter().map(|s| s.2).sum();
                assert_eq!(dead_ends, stats.rejected, "{name} {ctx}: {steps:?}");
                assert_eq!(tips, stats.tipped, "{name} {ctx}: {steps:?}");
            }
        }
    }
}

#[test]
fn sum_finisher_is_governed_and_leaves_the_counts_alone() {
    const WALKS: u64 = 20_000;
    let (ig, query) = chain(false);
    let exact_total: f64 = exact_group_sums(&ig, &query).unwrap().values().sum();
    // Walk cap: SUM stops on it, and its COUNT side is the plain
    // non-distinct Audit Join's, bit for bit — whether every walk tips (the
    // SUM finisher then enumerates the suffix one step deeper, to β, but
    // counts the same integers) or none does.
    for config in [TIPPING, AuditJoinConfig { tipping: Tipping::Off, ..TIPPING }] {
        let mut saj = SumAuditJoin::new(&ig, &query, config).unwrap();
        let stop = saj.run_governed(&ExecBudget::builder().walk_limit(WALKS).build());
        assert_eq!(stop.reason, BudgetReason::WalkLimit { limit: WALKS });
        let mut aj = AuditJoin::new(&ig, &query, config).unwrap();
        run_governed(&mut aj, &ExecBudget::builder().walk_limit(WALKS).build());
        let stats = saj.stats();
        assert_eq!(stats, aj.stats());
        assert_eq!(stats.walks, WALKS);
        let finished = if config.tipping == Tipping::Off { stats.full } else { stats.tipped };
        assert!(finished > WALKS / 2, "{config:?}: {stats:?}");
        let est = saj.estimates();
        assert_eq!(bits(&est.count), bits(&aj.estimates()), "{config:?}");
        assert_eq!(est.sum.len(), est.count.len());
        for (&g, &count) in &est.count.estimates {
            // Every value lies in [3, 43], so (up to rounding) does a mean.
            let avg = est.avg(TermId(g)).expect("counted group");
            assert!(count > 0.0 && (2.999..=43.001).contains(&avg), "group {g}: avg {avg}");
        }
        let total: f64 = est.sum.estimates.values().sum();
        let rel = (total - exact_total).abs() / exact_total;
        assert!(rel < 0.1, "{config:?}: SUM total {total} vs exact {exact_total}");
    }

    // Deadline: the run stops on it with every finished walk accounted for.
    let mut saj = SumAuditJoin::new(&ig, &query, TIPPING).unwrap();
    let stop = saj.run_governed(&ExecBudget::with_deadline(std::time::Duration::from_millis(20)));
    assert_eq!(stop.reason, BudgetReason::DeadlineExpired);
    let stats = saj.stats();
    assert!(stats.walks > 0);
    assert_eq!(stats.full + stats.tipped + stats.rejected, stats.walks);
    let est = saj.estimates();
    assert_eq!(est.sum.len(), est.count.len());
}

#[test]
fn one_meter_per_batch_charges_the_rows_not_a_stride_per_walk() {
    // Every walk tips onto a suffix of one or two rows. A batch's exact
    // work shares one meter, whose first tick charges a whole stride, so
    // the tuple counter may exceed the rows ticked by at most one stride
    // per batch — not by one per walk.
    const BATCHES: u64 = 10;
    const BATCH: u64 = 256;
    for distinct in [false, true] {
        let (ig, query) = star(10, |i| 1 + i % 2, distinct);
        let mut aj = AuditJoin::new(&ig, &query, TIP_ALL).unwrap();
        let budget = ExecBudget::builder().build();
        for _ in 0..BATCHES {
            assert_eq!(aj.step_batch_governed(&budget, BATCH).unwrap(), BATCH);
        }
        let stats = aj.stats();
        assert_eq!(stats.tipped, BATCHES * BATCH, "distinct={distinct}: {stats:?}");
        // Suffix rows (at most two per walk) plus the rows `Pr(a, b)`
        // enumerated for uncached pairs (zero when counting).
        let rows = 2 * stats.walks + aj.prab_stats().rows;
        let stride = u64::from(BudgetMeter::STRIDE);
        assert!(
            budget.tuples() <= BATCHES * stride + rows,
            "distinct={distinct}: {} tuples charged for {rows} rows in {BATCHES} batches",
            budget.tuples()
        );
    }
}

#[test]
fn deadline_trips_inside_a_tipped_suffix_and_keeps_finished_walks_whole() {
    // Every walk tips onto a suffix of 5 000 rows, so one batch is far more
    // work than the deadline allows and the batch meter must trip inside
    // a suffix enumeration.
    let (ig, query) = star(2, |_| 5_000, false);
    let mut aj = AuditJoin::new(&ig, &query, TIP_ALL).unwrap();
    let start = std::time::Instant::now();
    let budget = ExecBudget::with_deadline(std::time::Duration::from_millis(2));
    let stop = aj.step_batch_governed(&budget, 256).unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(stop.reason, BudgetReason::DeadlineExpired);
    assert!(elapsed.as_millis() < 12, "batch returned {elapsed:?} after a 2 ms deadline");
    // The walks that finished are the first `k` of the batch, whole: a run
    // of just those `k` walks (the same step-0 draws, in the same order)
    // ends in the same counters and bit-identical estimates, so the walk
    // the deadline cut short added nothing.
    let k = aj.stats().walks;
    assert!(k < 256, "{:?}", aj.stats());
    assert_eq!(aj.stats().tipped, k);
    let mut replay = AuditJoin::new(&ig, &query, TIP_ALL).unwrap();
    if k > 0 {
        assert_eq!(replay.step_batch_governed(&ExecBudget::unlimited(), k).unwrap(), k);
    }
    assert_eq!(aj.stats(), replay.stats());
    assert_eq!(bits(&aj.estimates()), bits(&replay.estimates()));
}
