//! Integration suite for the walk loop (DESIGN.md §4j).
//!
//! Two properties, end to end over real graphs:
//!
//! 1. **The sequential stream is locked**: at batch 1 the estimates
//!    reproduce golden digests recorded from the sequential per-walk loop
//!    this repository carried until ISSUE 22. At batch 1, 7 and 256 every
//!    requested walk is counted, and a replayed run ends at the same RNG
//!    stream position with identical estimates, half-widths and per-step
//!    counters.
//! 2. **Larger batches stay unbiased**: on seeded fuzz graphs the batched
//!    estimators converge to the exact answer.

use kgoa::engine::mean_absolute_error;
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
/// deterministic in `seed`.
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

/// FNV-1a fold of [`bits`]: one word per estimate snapshot.
fn digest(est: &GroupedEstimates) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (g, x, hw) in bits(est) {
        for word in [u64::from(g), x, hw] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digests of the estimates the deleted sequential loops (`WanderJoin::walk`,
/// `AuditJoin::walk`) produced at commit 2915f46, the parent of ISSUE 22,
/// recorded there with `run_walks` (identical on the CSR and the
/// since-deleted compressed layout): `[distinct off, on]`, each `(after the
/// first run, after 100 more walks)`.
const WJ_GOLDEN: [(u64, u64); 2] = [
    (0x8acf_6c67_c38b_b60d, 0xe7ac_7ee9_5297_400e),
    (0xe40a_60c9_4221_acc5, 0x0da3_a810_120d_8039),
];
const AJ_GOLDEN: [(u64, u64); 2] = [
    (0x2c30_227d_e864_eabe, 0xf1e3_2600_f530_0c2e),
    (0x3fc2_bec5_7841_3a8f, 0x4b9d_23a3_d3cf_cce8),
];

/// Batch sizes the stream checks visit: one walk per batch (the stream the
/// golden digests were recorded on), a size that divides neither walk
/// count, and the production default.
const BATCHES: [u64; 3] = [1, 7, 256];

/// Run `walks` walks at every size in [`BATCHES`] on two aggregators built
/// alike and check that every walk is counted and that the two agree on
/// everything observable, RNG stream position included; at batch 1 the
/// estimates must also be the golden ones.
fn check_stream<'g, A: OnlineAggregator>(
    ig: &'g IndexedGraph,
    make: impl Fn(&'g IndexedGraph) -> A,
    step_stats: impl Fn(&A) -> Vec<[u64; 3]>,
    walks: u64,
    golden: (u64, u64),
    ctx: &str,
) {
    for batch in BATCHES {
        let (mut a, mut b) = (make(ig), make(ig));
        run_walks_batched(&mut a, walks, batch);
        run_walks_batched(&mut b, walks, batch);
        assert_eq!(a.stats(), b.stats(), "{ctx} batch {batch}");
        assert_eq!(a.stats().walks, walks, "{ctx} batch {batch}");
        assert_eq!(step_stats(&a), step_stats(&b), "{ctx} batch {batch}: per-step counters");
        assert_eq!(
            bits(&a.estimates()),
            bits(&b.estimates()),
            "{ctx} batch {batch}: estimates + half-widths"
        );
        let first = digest(&a.estimates());
        // Same RNG stream position afterwards: continuing both runs one
        // walk at a time must keep them bit-identical.
        run_walks(&mut a, 100);
        run_walks(&mut b, 100);
        assert_eq!(a.stats().walks, walks + 100, "{ctx} batch {batch}");
        assert_eq!(
            bits(&a.estimates()),
            bits(&b.estimates()),
            "{ctx} batch {batch}: RNG stream diverged"
        );
        if batch == 1 {
            let got = (first, digest(&a.estimates()));
            assert_eq!(got, golden, "{ctx}: not the sequential loop's stream");
        }
    }
}

#[test]
fn wander_join_reproduces_golden_stream() {
    let (graph, query) = fuzz_graph(0xB00B_5EED);
    let ig = IndexedGraph::build(graph);
    for (distinct, golden) in [false, true].into_iter().zip(WJ_GOLDEN) {
        let q = query.clone().with_distinct(distinct);
        check_stream(
            &ig,
            |ig| WanderJoin::new(ig, &q, 17).expect("wj"),
            |wj| wj.step_stats().map(|(visits, dead)| [visits, dead, 0]).collect(),
            900,
            golden,
            &format!("wj distinct={distinct}"),
        );
    }
}

#[test]
fn audit_join_reproduces_golden_stream() {
    let (graph, query) = fuzz_graph(0xC0FF_EE00);
    let ig = IndexedGraph::build(graph);
    for (distinct, golden) in [false, true].into_iter().zip(AJ_GOLDEN) {
        let q = query.clone().with_distinct(distinct);
        let cfg = AuditJoinConfig { tipping: Tipping::Static(8.0), seed: 23 };
        check_stream(
            &ig,
            |ig| AuditJoin::new(ig, &q, cfg).expect("aj"),
            |aj| {
                assert!(aj.stats().tipped > 0, "threshold 8.0 must actually tip");
                aj.step_stats().map(|(visits, dead, tips)| [visits, dead, tips]).collect()
            },
            700,
            golden,
            &format!("aj distinct={distinct}"),
        );
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
