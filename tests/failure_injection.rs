//! Failure injection and degenerate-input tests: empty graphs, single
//! triples, dead-end-only walks, groups with zero support, hostile
//! N-Triples input — and resource-governed execution under deadlines,
//! cancellation, and injected faults (`--features fault-inject`). The
//! system must degrade gracefully — typed errors, estimates with valid
//! confidence intervals (never NaN), or empty results; never panics, never
//! partial exact answers.

use std::time::Duration;

use kgoa::online::{run_parallel, run_walks, Budget, OnlineAggregator, ParallelAlgo,
    ParallelError, WanderJoin};
use kgoa::prelude::*;
use kgoa::query::WalkPlan;
use kgoa::rdf::ntriples::read_ntriples_str;

fn empty_ig() -> IndexedGraph {
    IndexedGraph::build(GraphBuilder::new().build())
}

fn query_over(p: TermId, q: TermId, distinct: bool) -> ExplorationQuery {
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
fn empty_graph_everything_is_empty() {
    let ig = empty_ig();
    let q = query_over(TermId(100), TermId(101), true);
    for engine in [
        &CtjEngine as &dyn CountEngine,
        &LftjEngine,
        &YannakakisEngine,
    ] {
        let r = engine.evaluate(&ig, &q).unwrap();
        assert!(r.is_empty(), "{} on empty graph", engine.name());
    }
    let mut wj = WanderJoin::new(&ig, &q, 1).unwrap();
    run_walks(&mut wj, 100);
    assert!(wj.estimates().is_empty());
    assert_eq!(wj.stats().rejected, 100);

    let mut aj = AuditJoin::new(&ig, &q, AuditJoinConfig::default()).unwrap();
    run_walks(&mut aj, 100);
    assert!(aj.estimates().is_empty());
}

#[test]
fn single_triple_graph() {
    let mut b = GraphBuilder::new();
    let t = b.add_iris("u:a", "u:p", "u:b");
    let g = b.build();
    let p = g.dict().lookup_iri("u:p").unwrap();
    let ig = IndexedGraph::build(g);
    let q = ExplorationQuery::new(
        vec![TriplePattern::new(Var(0), p, Var(1))],
        Var(0),
        Var(1),
        true,
    )
    .unwrap();
    let exact = CtjEngine.evaluate(&ig, &q).unwrap();
    assert_eq!(exact.get(t.s), 1);

    let mut aj = AuditJoin::new(&ig, &q, AuditJoinConfig::default()).unwrap();
    run_walks(&mut aj, 50);
    let est = aj.estimates().get(t.s);
    assert!((est - 1.0).abs() < 1e-9, "est {est}");
}

#[test]
fn all_walks_dead_end() {
    // p-edges exist but no q-edges at all: every walk must die, every
    // engine must return empty, no estimator division blows up.
    let mut b = GraphBuilder::new();
    let p = b.dict_mut().intern_iri("u:p");
    let q = b.dict_mut().intern_iri("u:q");
    for i in 0..10 {
        let s = b.dict_mut().intern_iri(format!("u:s{i}"));
        let o = b.dict_mut().intern_iri(format!("u:o{i}"));
        b.add(Triple::new(s, p, o));
    }
    let ig = IndexedGraph::build(b.build());
    for distinct in [true, false] {
        let query = query_over(p, q, distinct);
        assert!(CtjEngine.evaluate(&ig, &query).unwrap().is_empty());
        let mut aj = AuditJoin::new(&ig, &query, AuditJoinConfig::default()).unwrap();
        run_walks(&mut aj, 500);
        assert!(aj.estimates().is_empty());
        assert_eq!(aj.stats().walks, 500);
        assert_eq!(aj.stats().rejected, 500);
    }
}

#[test]
fn session_on_graph_without_classes() {
    // No rdf:type triples at all: the root focus is empty; expansions
    // return empty charts rather than failing.
    let mut b = GraphBuilder::new();
    b.add_iris("u:a", "u:p", "u:b");
    b.materialize_subclass_closure();
    let ig = IndexedGraph::build(b.build());
    let mut s = Session::root(&ig);
    let chart = s.expand(Expansion::Subclass, &CtjEngine).unwrap();
    assert!(chart.is_empty());
    assert_eq!(s.focus_size().unwrap(), 0);
}

#[test]
fn hostile_ntriples_inputs_error_cleanly() {
    let cases = [
        "<u:a> <u:p>",                       // truncated
        "<u:a> <u:p> <u:b>",                 // missing dot
        "<u:a <u:p> <u:b> .",                // unterminated IRI
        "\"lit\" <u:p> \"x\" .",             // literal subject
        "<u:a> \"p\" <u:b> .",               // literal predicate
        "<u:a> <u:p> \"unterminated .",      // unterminated literal
        "<u:a> <u:p> \"bad\\q\" .",          // unknown escape
        "_: <u:p> <u:b> .",                  // empty blank label
    ];
    for case in cases {
        let mut b = GraphBuilder::new();
        let r = read_ntriples_str(case, &mut b);
        assert!(r.is_err(), "input {case:?} should fail to parse");
    }
}

#[test]
fn zipf_degenerate_scales() {
    // Generator configs at minimum sizes still produce valid graphs.
    let cfg = KgConfig {
        name: "minimal".into(),
        seed: 1,
        num_classes: 1,
        hierarchy_depth: 1,
        num_properties: 1,
        num_entities: 2,
        avg_edges_per_entity: 1.0,
        types_per_entity: (1, 1),
        zipf_exponent: 1.0,
        literal_ratio: 0.0,
        domain_conformance: 1.0,
    };
    let g = kgoa::datagen::generate(&cfg);
    assert!(!g.is_empty());
    let ig = IndexedGraph::build(g);
    let mut s = Session::root(&ig);
    // Must not panic even if charts are tiny or empty.
    let _ = s.expand(Expansion::Subclass, &CtjEngine).unwrap();
}

#[test]
fn estimator_handles_groups_with_zero_support_in_estimates() {
    // MAE against an exact result with groups the estimator never saw.
    let exact: GroupedCounts = [(1u32, 10u64), (2, 20)].into_iter().collect();
    let est = GroupedEstimates::default();
    let mae = kgoa::engine::mean_absolute_error(&exact, &est);
    assert!((mae - 1.0).abs() < 1e-12);
}

/// A two-hop graph big enough that exact evaluation does real work and
/// walks land in multiple groups.
fn two_hop_graph() -> (IndexedGraph, TermId, TermId) {
    let mut b = GraphBuilder::new();
    let p = b.dict_mut().intern_iri("u:p");
    let q = b.dict_mut().intern_iri("u:q");
    let classes: Vec<TermId> =
        (0..3).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
    for si in 0..40u32 {
        let s = b.dict_mut().intern_iri(format!("u:s{si}"));
        for oi in 0..5u32 {
            let o = b.dict_mut().intern_iri(format!("u:o{}", (si + oi) % 15));
            b.add(Triple::new(s, p, o));
        }
    }
    for oi in 0..15u32 {
        let o = b.dict_mut().intern_iri(format!("u:o{oi}"));
        b.add(Triple::new(o, q, classes[(oi % 3) as usize]));
    }
    (IndexedGraph::build(b.build()), p, q)
}

/// Estimates from a degraded or aborted run must be absent or carry valid
/// (finite-or-infinite, never NaN) confidence intervals.
fn assert_estimates_clean(est: &GroupedEstimates) {
    for (_, x) in est.estimates.iter() {
        assert!(x.is_finite(), "estimate must be finite, got {x}");
    }
    for (_, hw) in est.half_widths.iter() {
        assert!(!hw.is_nan(), "CI half-width must never be NaN");
    }
}

#[test]
fn expired_deadline_is_a_typed_engine_error_not_a_partial_result() {
    let (ig, p, q) = two_hop_graph();
    let query = query_over(p, q, false);
    let budget = ExecBudget::builder().deadline(Duration::ZERO).build();
    let err = CtjEngine.evaluate_governed(&ig, &query, &budget).unwrap_err();
    let kgoa::engine::EngineError::BudgetExceeded(b) = err else {
        panic!("expected BudgetExceeded, got {err}");
    };
    assert_eq!(b.reason, BudgetReason::DeadlineExpired);
}

#[test]
fn acceptance_50ms_deadline_degrades_to_audit_join_with_cis() {
    // Acceptance criterion: a query under a 50ms deadline returns
    // `Degraded` with Audit Join estimates and non-empty CIs. A zero exact
    // slice makes the degradation deterministic rather than racing the
    // exact engine on a small test graph.
    let (ig, p, q) = two_hop_graph();
    let query = query_over(p, q, false);
    let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
    let config = SupervisorConfig {
        deadline: Duration::from_millis(50),
        exact_fraction: 0.0,
        ..SupervisorConfig::default()
    };
    let result = supervise(&ig, &query, &config).unwrap();
    let SupervisedResult::Degraded { estimates, provenance } = result else {
        panic!("expected a degraded result under a starved exact slice");
    };
    assert_eq!(provenance.estimator, "aj");
    assert!(provenance.walks > 0, "degraded answer must be backed by walks");
    assert!(!estimates.is_empty(), "estimates must be present");
    assert!(!estimates.half_widths.is_empty(), "CIs must be present");
    assert_estimates_clean(&estimates);
    for (g, c) in exact.iter() {
        let rel = (estimates.get(g) - c as f64).abs() / c as f64;
        assert!(rel < 0.5, "group {g}: est {} vs exact {c}", estimates.get(g));
    }
}

#[test]
fn mid_walk_cancellation_stops_the_run_cleanly() {
    let (ig, p, q) = two_hop_graph();
    let query = query_over(p, q, false);
    let budget = ExecBudget::builder().build();
    let flag = budget.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        flag.cancel();
    });
    let mut wj = WanderJoin::new(&ig, &query, 7).unwrap();
    let err = kgoa::online::run_governed(&mut wj, &budget);
    canceller.join().unwrap();
    assert_eq!(err.reason, BudgetReason::Cancelled);
    // Aborted walks contribute nothing: the estimator over the completed
    // walks is intact and its CIs are valid.
    assert_estimates_clean(&wj.estimates());
}

#[test]
fn pre_cancelled_budget_does_no_work() {
    let (ig, p, q) = two_hop_graph();
    let query = query_over(p, q, false);
    let budget = ExecBudget::builder().build();
    budget.cancel();
    let mut wj = WanderJoin::new(&ig, &query, 7).unwrap();
    let err = kgoa::online::run_governed(&mut wj, &budget);
    assert_eq!(err.reason, BudgetReason::Cancelled);
    assert_eq!(wj.stats().walks, 0, "no walk may complete under a cancelled budget");
    assert!(wj.estimates().is_empty());
}

#[test]
fn zero_threads_is_a_typed_error_not_a_panic() {
    let (ig, p, q) = two_hop_graph();
    let query = query_over(p, q, false);
    let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
    let err = run_parallel(
        &ig,
        &query,
        &plan,
        ParallelAlgo::WanderJoin,
        0,
        Budget::WalksPerWorker(10),
        1,
    )
    .unwrap_err();
    assert_eq!(err, ParallelError::NoThreads);
}

#[test]
fn parallel_run_under_shared_exec_budget_respects_walk_limit() {
    let (ig, p, q) = two_hop_graph();
    let query = query_over(p, q, false);
    let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
    let budget = ExecBudget::builder().walk_limit(1_000).build();
    let out = run_parallel(
        &ig,
        &query,
        &plan,
        ParallelAlgo::WanderJoin,
        4,
        Budget::Exec(budget.clone()),
        3,
    )
    .unwrap();
    assert_eq!(out.workers_panicked, 0);
    // The walk counter is shared: the whole fleet stops at the limit.
    assert!(budget.walks() >= 1_000, "charged walks {}", budget.walks());
    assert!(out.stats.walks <= 1_000, "completed walks {}", out.stats.walks);
    assert!(!out.estimates.is_empty());
    assert_estimates_clean(&out.estimates);
}

#[cfg(feature = "fault-inject")]
mod fault_injection {
    use super::*;
    use kgoa::engine::FaultPlan;
    use kgoa::online::{AuditJoin, AuditJoinConfig};

    #[test]
    fn acceptance_worker_panic_merges_survivors() {
        // Acceptance criterion: an injected worker panic in `run_parallel`
        // yields a merged result from the surviving workers.
        let (ig, p, q) = two_hop_graph();
        let query = query_over(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let budget = ExecBudget::builder()
            .walk_limit(2_000)
            .faults(FaultPlan { panic_walk_at: Some(50), ..Default::default() })
            .build();
        let out = run_parallel(
            &ig,
            &query,
            &plan,
            ParallelAlgo::WanderJoin,
            4,
            Budget::Exec(budget),
            9,
        )
        .unwrap();
        assert_eq!(out.threads, 4);
        // The walk-fault counter is shared, so exactly one worker draws the
        // 50th walk and dies; the others keep sampling.
        assert_eq!(out.workers_panicked, 1);
        assert!(out.stats.walks > 0, "survivors must contribute walks");
        assert!(!out.estimates.is_empty(), "merged estimates from survivors");
        assert_estimates_clean(&out.estimates);
    }

    #[test]
    fn all_workers_panicking_is_a_typed_error() {
        let (ig, p, q) = two_hop_graph();
        let query = query_over(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        // One worker, which is killed on its first walk.
        let budget = ExecBudget::builder()
            .walk_limit(100)
            .faults(FaultPlan { panic_walk_at: Some(1), ..Default::default() })
            .build();
        let err = run_parallel(
            &ig,
            &query,
            &plan,
            ParallelAlgo::WanderJoin,
            1,
            Budget::Exec(budget),
            9,
        )
        .unwrap_err();
        assert_eq!(err, ParallelError::AllWorkersFailed { workers: 1 });
    }

    #[test]
    fn profile_spans_stay_balanced_across_worker_panics() {
        // A worker panic unwinds through its profile span and attach
        // guard before `catch_unwind` stops it: the shared span tree must
        // come out complete (every opened span closed and flushed) and
        // the main thread's stack balanced.
        let (ig, p, q) = two_hop_graph();
        let query = query_over(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let profile = kgoa::obs::QueryProfile::begin("panic-balance");
        let out = {
            let _attach = profile.attach("main");
            let budget = ExecBudget::builder()
                .walk_limit(2_000)
                .faults(FaultPlan { panic_walk_at: Some(50), ..Default::default() })
                .build();
            run_parallel(
                &ig,
                &query,
                &plan,
                ParallelAlgo::WanderJoin,
                4,
                Budget::Exec(budget),
                9,
            )
            .unwrap()
        };
        assert_eq!(out.workers_panicked, 1);
        assert_eq!(
            kgoa::obs::profile::open_depth(),
            0,
            "main-thread span stack must balance after an isolated worker panic"
        );
        let report = profile.finish();
        assert!(report.spans.iter().any(|n| n.name == "parallel.worker"));
        // The tree validates and renders: the panicked worker's unwound
        // spans keep the id order and parent links intact.
        report.check_tree().unwrap();
        kgoa::obs::profile::check_folded(&report.to_folded()).unwrap();
    }

    #[test]
    fn injected_seek_fault_aborts_exact_engine_cleanly() {
        let (ig, p, q) = two_hop_graph();
        let query = query_over(p, q, false);
        let budget = ExecBudget::builder()
            .faults(FaultPlan { fail_seek_at: Some(3), ..Default::default() })
            .build();
        let err = CtjEngine.evaluate_governed(&ig, &query, &budget).unwrap_err();
        let kgoa::engine::EngineError::BudgetExceeded(b) = err else {
            panic!("expected BudgetExceeded, got {err}");
        };
        assert!(matches!(b.reason, BudgetReason::FaultInjected(_)));
        // The same engine with a clean budget still answers exactly: no
        // poisoned caches survive the abort.
        let clean = CtjEngine.evaluate(&ig, &query).unwrap();
        let reference = YannakakisEngine.evaluate(&ig, &query).unwrap();
        assert_eq!(clean, reference);
    }

    #[test]
    fn injected_walk_panic_in_audit_join_falls_back_to_wander_join() {
        let (ig, p, q) = two_hop_graph();
        let query = query_over(p, q, false);
        let config = SupervisorConfig {
            deadline: Duration::from_millis(50),
            exact_fraction: 0.0,
            faults: Some(FaultPlan { panic_walk_at: Some(1), ..Default::default() }),
            ..SupervisorConfig::default()
        };
        let result = supervise(&ig, &query, &config).unwrap();
        let SupervisedResult::Degraded { estimates, provenance } = result else {
            panic!("expected degradation");
        };
        assert_eq!(provenance.estimator, "wj", "AJ panicked, WJ must take over");
        assert!(provenance.walks > 0);
        assert_estimates_clean(&estimates);
    }

    #[test]
    fn delayed_worker_still_merges() {
        let (ig, p, q) = two_hop_graph();
        let query = query_over(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let budget = ExecBudget::builder()
            .walk_limit(500)
            .faults(FaultPlan {
                delay_worker: Some((0, Duration::from_millis(20))),
                ..Default::default()
            })
            .build();
        let out = run_parallel(
            &ig,
            &query,
            &plan,
            ParallelAlgo::AuditJoin(AuditJoinConfig::default()),
            2,
            Budget::Exec(budget),
            5,
        )
        .unwrap();
        assert_eq!(out.workers_panicked, 0);
        assert!(out.stats.walks > 0);
        assert_estimates_clean(&out.estimates);
        // Keep AuditJoin in the used-imports set even when the type
        // inference above changes.
        let _ = AuditJoin::new(&ig, &query, AuditJoinConfig::default()).unwrap();
    }
}

#[test]
fn baseline_engine_blowup_is_reported_not_fatal() {
    // A two-hop query over a dense bipartite graph: the baseline's
    // intermediate result exceeds a small budget and must report it.
    let mut b = GraphBuilder::new();
    let p = b.dict_mut().intern_iri("u:p");
    let q = b.dict_mut().intern_iri("u:q");
    let mid = b.dict_mut().intern_iri("u:m");
    for i in 0..50 {
        let s = b.dict_mut().intern_iri(format!("u:s{i}"));
        let o = b.dict_mut().intern_iri(format!("u:o{i}"));
        b.add(Triple::new(s, p, mid));
        b.add(Triple::new(mid, q, o));
    }
    let ig = IndexedGraph::build(b.build());
    let query = query_over(p, q, false);
    let small = kgoa::engine::BaselineEngine { tuple_limit: 100 };
    let err = small.evaluate(&ig, &query).unwrap_err();
    assert!(matches!(err, kgoa::engine::EngineError::IntermediateResultLimit { .. }));
    // CTJ handles the same query without materialization: 50×50 results.
    let exact = CtjEngine.evaluate(&ig, &query).unwrap();
    assert_eq!(exact.total(), 2500);
}
