//! End-to-end tests for incremental index maintenance: a graph updated
//! through `apply_batch` must answer exploration queries exactly like a
//! graph rebuilt from scratch, and online aggregation over the updated
//! graph must converge to the new truth.

use kgoa::index::{apply_batch, UpdateBatch};
use kgoa::online::{run_walks, EpochConfig, EpochManager};
use kgoa::prelude::*;

#[test]
fn updated_graph_answers_like_rebuilt_graph() {
    let graph = kgoa::datagen::generate(&KgConfig::dbpedia_like(Scale::Tiny));
    let mut dict = graph.dict().clone();
    let vocab = graph.vocab();
    let old_triples = graph.triples().to_vec();
    let ig = IndexedGraph::build(graph);

    // Batch: type 50 fresh entities into the most popular class and delete
    // a handful of existing type edges.
    let popular_class = dict.lookup_iri("http://kgoa.dev/class/C0").unwrap();
    let mut insert = Vec::new();
    for i in 0..50 {
        let e = dict.intern_iri(format!("http://kgoa.dev/new/e{i}"));
        insert.push(Triple::new(e, vocab.rdf_type, popular_class));
    }
    let delete: Vec<Triple> = old_triples
        .iter()
        .filter(|t| t.p == vocab.rdf_type)
        .take(5)
        .copied()
        .collect();
    let batch = UpdateBatch { insert: insert.clone(), delete: delete.clone() };
    let updated = apply_batch(&ig, dict.clone(), &batch);

    // Rebuild from scratch.
    let mut expect: Vec<Triple> = old_triples
        .iter()
        .filter(|t| !delete.contains(t))
        .copied()
        .collect();
    expect.extend(insert);
    expect.sort_unstable();
    expect.dedup();
    let rebuilt = IndexedGraph::build(kgoa::rdf::Graph::from_sorted_parts(
        dict,
        expect,
        vocab,
    ));

    assert_eq!(updated.len(), rebuilt.len());
    // Same exploration answers.
    let mut s1 = Session::root(&updated);
    let mut s2 = Session::root(&rebuilt);
    let c1 = s1.expand(Expansion::Subclass, &CtjEngine).unwrap();
    let c2 = s2.expand(Expansion::Subclass, &CtjEngine).unwrap();
    assert_eq!(c1, c2);

    // Online aggregation over the updated graph converges to its truth.
    let query = s1.expansion_query(Expansion::OutProperty).unwrap();
    let exact = YannakakisEngine.evaluate(&updated, &query).unwrap();
    let mut aj = AuditJoin::new(&updated, &query, AuditJoinConfig::default()).unwrap();
    run_walks(&mut aj, 20_000);
    let mae = kgoa::engine::mean_absolute_error(&exact, &aj.estimates());
    assert!(mae < 0.1, "MAE over updated graph: {mae}");
}

/// Rebuild a delta-free graph from a snapshot's live triple set (ground
/// truth for everything the snapshot should answer).
fn rebuild_from_live(ig: &IndexedGraph) -> IndexedGraph {
    let rows = ig.require(IndexOrder::Spo).to_rows_live();
    let triples: Vec<Triple> = rows.into_iter().map(Triple::from).collect();
    IndexedGraph::build(kgoa::rdf::Graph::from_sorted_parts(
        ig.dict().clone(),
        triples,
        ig.vocab(),
    ))
}

/// The MVCC stress test: a writer thread appends insert/delete batches
/// (triggering background merges) while readers pin epochs and run walks
/// and exact joins. Every pinned computation must be (a) correct — the
/// exact join over the overlay equals the ground truth from a rebuilt
/// graph — and (b) *bit-identical* to a quiet-system re-run on the same
/// pinned snapshot after the writer has stopped.
#[test]
fn concurrent_readers_pin_epochs_while_writer_churns() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let graph = kgoa::datagen::generate(&KgConfig::dbpedia_like(Scale::Tiny));
    let mut dict = graph.dict().clone();
    let vocab = graph.vocab();
    let original = graph.triples().to_vec();

    // Pre-intern the churn vocabulary: epoch appends never grow the
    // dictionary (see the epoch module docs).
    let class = dict.lookup_iri("http://kgoa.dev/class/C0").unwrap();
    let churn: Vec<Triple> = (0..48)
        .map(|i| {
            let e = dict.intern_iri(format!("http://kgoa.dev/churn/e{i}"));
            Triple::new(e, vocab.rdf_type, class)
        })
        .collect();
    let victims: Vec<Triple> =
        original.iter().filter(|t| t.p == vocab.rdf_type).take(4).copied().collect();
    let graph = kgoa::rdf::Graph::from_sorted_parts(dict, original, vocab);
    let ig = IndexedGraph::build(graph);

    let mgr = EpochManager::new(
        ig,
        EpochConfig { merge_threshold: 16, ..EpochConfig::default() },
    );
    let query = {
        let mut s = Session::root_pinned(&mgr);
        s.expansion_query(Expansion::OutProperty).unwrap()
    };

    // Writer: churn inserts/deletes until told to stop. Even rounds add
    // the churn triples and delete some originals; odd rounds reverse
    // both, so the live set oscillates and merges fire repeatedly.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let mgr = Arc::clone(&mgr);
        let stop = Arc::clone(&stop);
        let churn = churn.clone();
        let victims = victims.clone();
        std::thread::spawn(move || {
            let budget = ExecBudget::unlimited();
            let mut round = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let batch = if round.is_multiple_of(2) {
                    UpdateBatch {
                        insert: churn.clone(),
                        delete: victims.clone(),
                    }
                } else {
                    UpdateBatch {
                        insert: victims.clone(),
                        delete: churn.clone(),
                    }
                };
                mgr.append(&batch, &budget).unwrap();
                round += 1;
                std::thread::yield_now();
            }
        })
    };

    // Readers: pin an epoch mid-churn, estimate and exactly count on it.
    let config = AuditJoinConfig { seed: 0xC0FFEE, ..AuditJoinConfig::default() };
    let mut pinned_runs = Vec::new();
    for _ in 0..4 {
        let guard = mgr.pin();
        let mut aj = AuditJoin::new(&guard, &query, config).unwrap();
        run_walks(&mut aj, 2_000);
        let exact = CtjEngine.evaluate(&guard, &query).unwrap();
        let estimates = aj.estimates();
        let walks = aj.stats().walks;
        drop(aj);
        pinned_runs.push((guard, estimates, walks, exact));
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    mgr.wait_merged();

    for (guard, estimates, walks, exact) in &pinned_runs {
        // Quiet-system re-run on the pinned snapshot: the writer is gone,
        // yet the guard still addresses the same epoch, so the estimate
        // must be bit-identical (same RNG stream, same ranges).
        let mut aj = AuditJoin::new(guard, &query, config).unwrap();
        run_walks(&mut aj, 2_000);
        assert_eq!(aj.stats().walks, *walks);
        let quiet = aj.estimates();
        assert_eq!(quiet.estimates, estimates.estimates, "estimates drifted");
        assert_eq!(quiet.half_widths, estimates.half_widths, "CIs drifted");
        // And the exact answer matches a from-scratch rebuild of the
        // pinned live set.
        let rebuilt = rebuild_from_live(guard);
        let truth = CtjEngine.evaluate(&rebuilt, &query).unwrap();
        assert_eq!(*exact, truth, "overlay exact join must equal rebuilt truth");
    }

    // After the final merge the published snapshot is delta-free and its
    // live set equals the ground-truth rebuild.
    let final_guard = mgr.pin();
    assert!(!final_guard.has_delta());
    let rebuilt = rebuild_from_live(&final_guard);
    assert_eq!(
        CtjEngine.evaluate(&final_guard, &query).unwrap(),
        CtjEngine.evaluate(&rebuilt, &query).unwrap()
    );
}

/// End-to-end merge crash recovery: each injected crash point must leave
/// the system on a valid epoch, the retried merge must land, and chart
/// answers must equal a from-scratch rebuild — no lost or duplicated
/// triples anywhere in the ladder.
#[cfg(feature = "fault-inject")]
#[test]
fn merge_crash_points_recover_end_to_end() {
    use kgoa::online::MergeCrashPoint;

    let graph = kgoa::datagen::generate(&KgConfig::dbpedia_like(Scale::Tiny));
    let mut dict = graph.dict().clone();
    let vocab = graph.vocab();
    let original = graph.triples().to_vec();
    let class = dict.lookup_iri("http://kgoa.dev/class/C0").unwrap();
    let fresh: Vec<Triple> = (0..8)
        .map(|i| {
            let e = dict.intern_iri(format!("http://kgoa.dev/crash/e{i}"));
            Triple::new(e, vocab.rdf_type, class)
        })
        .collect();
    let victims: Vec<Triple> =
        original.iter().filter(|t| t.p == vocab.rdf_type).take(3).copied().collect();
    let graph = kgoa::rdf::Graph::from_sorted_parts(dict, original, vocab);
    let base = IndexedGraph::build(graph);

    for point in
        [MergeCrashPoint::PrePublish, MergeCrashPoint::MidSwap, MergeCrashPoint::PostPublish]
    {
        let mgr = EpochManager::new(base.clone(), EpochConfig::default());
        let budget = ExecBudget::unlimited();
        let batch =
            UpdateBatch { insert: fresh.clone(), delete: victims.clone() };
        mgr.append(&batch, &budget).unwrap();
        let expected = mgr.pin().require(IndexOrder::Spo).to_rows_live();

        mgr.arm_crash_point(point);
        mgr.merge_now(); // panics once at `point`, then retries and lands

        let guard = mgr.pin();
        assert!(!guard.has_delta(), "{point:?}: merge must complete after retry");
        assert_eq!(
            guard.require(IndexOrder::Spo).to_rows_live(),
            expected,
            "{point:?}: live set changed across the crash"
        );
        // The recovered epoch answers chart queries like a rebuild.
        let rebuilt = rebuild_from_live(&guard);
        let query = {
            let mut s = Session::root_pinned(&mgr);
            s.expansion_query(Expansion::Subclass).unwrap()
        };
        assert_eq!(
            CtjEngine.evaluate(&guard, &query).unwrap(),
            CtjEngine.evaluate(&rebuilt, &query).unwrap(),
            "{point:?}"
        );
        // Writers continue normally after recovery.
        mgr.append(&UpdateBatch::deleting(vec![fresh[0]]), &budget).unwrap();
        assert!(!mgr.pin().contains(fresh[0]));
    }
}

#[test]
fn repeated_small_batches_accumulate() {
    let graph = kgoa::datagen::generate(&KgConfig::lgd_like(Scale::Tiny));
    let mut dict = graph.dict().clone();
    let vocab = graph.vocab();
    let mut ig = IndexedGraph::build(graph);
    let class = dict.lookup_iri("http://kgoa.dev/class/C0").unwrap();
    let base = ig.len();
    for round in 0..5 {
        let e = dict.intern_iri(format!("http://kgoa.dev/inc/e{round}"));
        let batch = UpdateBatch::inserting(vec![Triple::new(e, vocab.rdf_type, class)]);
        ig = apply_batch(&ig, dict.clone(), &batch);
        assert_eq!(ig.len(), base + round + 1);
        assert!(ig.contains(Triple::new(e, vocab.rdf_type, class)));
    }
    // Stats track the updates.
    assert_eq!(ig.stats().triples as usize, base + 5);
}
