//! Integration test for the per-query profile (`kgoa-obs`) as wired
//! through the whole stack: a parallel run's workers join the caller's
//! span tree from their own threads, and the tree passes its own
//! invariant check and renders well-formed folded stacks.

use kgoa::obs;
use kgoa::online::{run_parallel, Budget, ParallelAlgo};
use kgoa::prelude::*;
use kgoa::query::WalkPlan;

#[test]
fn profile_collects_multi_thread_spans_into_a_well_formed_tree() {
    let graph = kgoa::datagen::generate(&KgConfig::dbpedia_like(Scale::Tiny));
    let ig = IndexedGraph::build(graph);
    let query = {
        let mut s = Session::root(&ig);
        s.expansion_query(Expansion::Subclass).unwrap()
    };
    let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();

    let profile = obs::QueryProfile::begin("parallel-wj");
    {
        let _attach = profile.attach("main");
        let _span = obs::profile::span("test.parallel");
        run_parallel(
            &ig,
            &query,
            &plan,
            ParallelAlgo::WanderJoin,
            3,
            Budget::WalksPerWorker(200),
            7,
        )
        .unwrap();
    }
    let report = profile.finish();
    assert_eq!(obs::profile::open_depth(), 0, "span stack must balance after the scope");

    // Workers attached from their own threads: the tree holds all four
    // thread labels, each worker with its own `parallel.worker` subtree.
    let threads: std::collections::HashSet<&str> =
        report.spans.iter().map(|n| n.thread.as_str()).collect();
    assert!(threads.contains("main"), "main-thread spans missing: {threads:?}");
    for t in 0..3 {
        assert!(threads.contains(format!("worker-{t}").as_str()), "worker {t} missing");
    }
    assert!(report.spans.iter().any(|n| n.name == "parallel.worker"));
    assert!(
        report.spans.iter().any(|n| n.name.starts_with("wj.step")),
        "worker walk attribution missing"
    );

    // Spans from four threads interleave in one id sequence: the tree
    // still holds its invariant, and the folded rendering is well-formed.
    report.check_tree().expect("multi-thread span tree well-formed");
    obs::profile::check_folded(&report.to_folded()).expect("folded stacks well-formed");
}
