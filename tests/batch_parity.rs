//! Integration suite for the batched SoA walk runners (DESIGN.md §4j).
//!
//! Three properties, end to end over real graphs:
//!
//! 1. **Batch-1 compatibility is bit-identical** to the legacy sequential
//!    runner — same estimates, same half-widths, same walk and per-step
//!    counters, and the same RNG stream position afterwards — on both
//!    index layouts and with and without distinct semantics.
//! 2. **Larger batches stay unbiased**: on seeded fuzz graphs the batched
//!    estimators converge to the exact answer.
//! 3. **Adaptive tipping converges** within the static threshold's error
//!    envelope while actually moving the threshold machinery end to end.

use kgoa::engine::mean_absolute_error;
use kgoa::index::Layout;
use kgoa::online::{run_walks, run_walks_batched, Tipping};
use kgoa::prelude::*;
use kgoa::query::TriplePattern;

/// Deterministic xorshift so fuzz graphs are reproducible without an RNG
/// dependency in the test crate.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A seeded three-hop fuzz graph: `s -p-> m -q-> o -r-> c` with random
/// fan-outs, plus dead ends so rejection paths are exercised. Fully
/// deterministic in `seed`, so calling it twice yields identical graphs
/// (the layout tests rely on this to build each physical layout).
fn fuzz_graph(seed: u64) -> (Graph, ExplorationQuery) {
    let mut b = GraphBuilder::new();
    let p = b.dict_mut().intern_iri("u:p");
    let q = b.dict_mut().intern_iri("u:q");
    let r = b.dict_mut().intern_iri("u:r");
    let mut st = seed | 1;
    let mids: Vec<TermId> =
        (0..24).map(|i| b.dict_mut().intern_iri(format!("u:m{i}"))).collect();
    let objs: Vec<TermId> =
        (0..16).map(|i| b.dict_mut().intern_iri(format!("u:o{i}"))).collect();
    let cls: Vec<TermId> =
        (0..4).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
    for i in 0..32 {
        let s = b.dict_mut().intern_iri(format!("u:s{i}"));
        for _ in 0..(1 + xorshift(&mut st) % 4) {
            let m = mids[(xorshift(&mut st) % mids.len() as u64) as usize];
            b.add(Triple::new(s, p, m));
        }
    }
    for (mi, &m) in mids.iter().enumerate() {
        // A quarter of the mids are dead ends: no q-edge.
        if mi % 4 == 3 {
            continue;
        }
        for _ in 0..(1 + xorshift(&mut st) % 3) {
            let o = objs[(xorshift(&mut st) % objs.len() as u64) as usize];
            b.add(Triple::new(m, q, o));
        }
    }
    for (oi, &o) in objs.iter().enumerate() {
        if oi % 3 == 2 {
            continue;
        }
        let c = cls[(xorshift(&mut st) % cls.len() as u64) as usize];
        b.add(Triple::new(o, r, c));
    }
    let query = ExplorationQuery::new(
        vec![
            TriplePattern::new(Var(0), p, Var(1)),
            TriplePattern::new(Var(1), q, Var(2)),
            TriplePattern::new(Var(2), r, Var(3)),
        ],
        Var(3),
        Var(2),
        false,
    )
    .unwrap();
    (b.build(), query)
}

/// Bit-exact fingerprint of an estimate snapshot: sorted rows of
/// `(group, estimate bits, half-width bits)`.
fn bits(est: &GroupedEstimates) -> Vec<(u32, u64, u64)> {
    let mut rows: Vec<(u32, u64, u64)> = est
        .estimates
        .iter()
        .map(|(g, x)| {
            let hw = est.half_widths.get(g).copied().unwrap_or(f64::NAN);
            (*g, x.to_bits(), hw.to_bits())
        })
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn wander_join_batch_one_is_bit_identical_across_layouts() {
    // Regenerate the (deterministic) graph per layout so the runs walk
    // physically different indexes (row-oriented, CSR, compressed) over
    // identical data.
    for layout in Layout::ALL {
        let (graph, query) = fuzz_graph(0xB00B_5EED);
        let ig = IndexedGraph::build_with_layout(graph, layout);
        for distinct in [false, true] {
            let q = query.clone().with_distinct(distinct);
            let mut seq = WanderJoin::new(&ig, &q, 17).expect("wj");
            let mut bat = WanderJoin::new(&ig, &q, 17).expect("wj");
            run_walks(&mut seq, 900);
            run_walks_batched(&mut bat, 900, 1);
            assert_eq!(seq.stats(), bat.stats(), "{layout:?} distinct={distinct}");
            assert_eq!(
                seq.step_stats().collect::<Vec<_>>(),
                bat.step_stats().collect::<Vec<_>>(),
                "{layout:?} distinct={distinct}: per-step visit/reject counters"
            );
            assert_eq!(
                bits(&seq.estimates()),
                bits(&bat.estimates()),
                "{layout:?} distinct={distinct}: estimates + half-widths"
            );
            // Same RNG stream position afterwards: continuing both runs
            // sequentially must keep them bit-identical.
            run_walks(&mut seq, 100);
            run_walks(&mut bat, 100);
            assert_eq!(
                bits(&seq.estimates()),
                bits(&bat.estimates()),
                "{layout:?} distinct={distinct}: RNG stream diverged"
            );
        }
    }
}

#[test]
fn audit_join_batch_one_is_bit_identical_across_layouts() {
    for layout in Layout::ALL {
        let (graph, query) = fuzz_graph(0xC0FF_EE00);
        let ig = IndexedGraph::build_with_layout(graph, layout);
        for distinct in [false, true] {
            let q = query.clone().with_distinct(distinct);
            let cfg = AuditJoinConfig { tipping: Tipping::Static(8.0), seed: 23 };
            let mut seq = AuditJoin::new(&ig, &q, cfg).expect("aj");
            let mut bat = AuditJoin::new(&ig, &q, cfg).expect("aj");
            run_walks(&mut seq, 700);
            run_walks_batched(&mut bat, 700, 1);
            assert_eq!(seq.stats(), bat.stats(), "{layout:?} distinct={distinct}");
            assert!(seq.stats().tipped > 0, "threshold 8.0 must actually tip");
            assert_eq!(
                seq.step_stats().collect::<Vec<_>>(),
                bat.step_stats().collect::<Vec<_>>(),
                "{layout:?} distinct={distinct}: per-step visit/reject/tip counters"
            );
            assert_eq!(
                bits(&seq.estimates()),
                bits(&bat.estimates()),
                "{layout:?} distinct={distinct}: estimates + half-widths"
            );
            run_walks(&mut seq, 100);
            run_walks(&mut bat, 100);
            assert_eq!(
                bits(&seq.estimates()),
                bits(&bat.estimates()),
                "{layout:?} distinct={distinct}: RNG stream diverged"
            );
        }
    }
}

#[test]
fn batched_estimates_stay_unbiased_on_fuzz_graphs() {
    for seed in [1u64, 2, 3] {
        let (graph, query) = fuzz_graph(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let ig = IndexedGraph::build(graph);
        let exact = CtjEngine.evaluate(&ig, &query).expect("ctj");
        let total: u64 = exact.iter().map(|(_, c)| c).sum();
        assert!(total > 0, "fuzz graph {seed} has no results");
        for batch in [16u64, 64, 256] {
            // WJ: slow convergence, check the grand total.
            let mut wj = WanderJoin::new(&ig, &query, seed ^ 0x5A5A).expect("wj");
            run_walks_batched(&mut wj, 120_000, batch);
            let est_total: f64 = wj.estimates().estimates.values().sum();
            let rel = (est_total - total as f64).abs() / total as f64;
            assert!(
                rel < 0.10,
                "fuzz {seed} batch {batch}: WJ total {est_total} vs {total} (rel {rel:.3})"
            );
            assert_eq!(wj.stats().walks, 120_000);
            // AJ: tipping makes per-group convergence fast.
            let cfg = AuditJoinConfig { tipping: Tipping::Static(64.0), seed: seed ^ 0xA5A5 };
            let mut aj = AuditJoin::new(&ig, &query, cfg).expect("aj");
            run_walks_batched(&mut aj, 6_000, batch);
            let mae = mean_absolute_error(&exact, &aj.estimates());
            assert!(mae < 0.10, "fuzz {seed} batch {batch}: AJ MAE {mae:.3}");
        }
    }
}

#[test]
fn adaptive_tipping_converges_within_static_envelope() {
    let (graph, query) = fuzz_graph(0xDEAD_BEEF);
    let ig = IndexedGraph::build(graph);
    let exact = CtjEngine.evaluate(&ig, &query).expect("ctj");
    let walks = 8_000;
    let static_mae = {
        let cfg = AuditJoinConfig { tipping: Tipping::Static(1024.0), seed: 42 };
        let mut aj = AuditJoin::new(&ig, &query, cfg).expect("aj");
        run_walks_batched(&mut aj, walks, 64);
        mean_absolute_error(&exact, &aj.estimates())
    };
    let cfg = AuditJoinConfig { tipping: Tipping::Adaptive, seed: 42 };
    let mut aj = AuditJoin::new(&ig, &query, cfg).expect("aj");
    run_walks_batched(&mut aj, walks, 64);
    let adaptive_mae = mean_absolute_error(&exact, &aj.estimates());
    let threshold = aj.tip_threshold();
    assert!(threshold.is_finite() && threshold > 0.0);
    assert!(
        adaptive_mae <= (static_mae * 2.0).max(0.05),
        "adaptive MAE {adaptive_mae:.4} outside static envelope ({static_mae:.4})"
    );
}
