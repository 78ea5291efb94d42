//! Statistical convergence tests over the paper's random-exploration
//! workload: seeded online-aggregation runs must reach small errors, Audit
//! Join must dominate Wander Join on the distinct workload, and confidence
//! intervals must cover the truth at a rate a binomial rule can tell from
//! a broken interval.

use kgoa::engine::mean_absolute_error;
use kgoa::online::{run_walks, OnlineAggregator, WanderJoin};
use kgoa::prelude::*;
use kgoa_bench::{load_datasets, prepare_workload, run_fixed_walks, Algo, BenchConfig};

fn bench_cfg() -> BenchConfig {
    BenchConfig {
        scale: Scale::Tiny,
        runs: 6,
        max_steps: 3,
        wj_order_trials: 256,
        ..BenchConfig::default()
    }
}

#[test]
fn audit_join_beats_wander_join_on_distinct_workload() {
    let cfg = bench_cfg();
    let datasets = load_datasets(cfg.scale);
    let workload = prepare_workload(&datasets, &cfg);
    assert!(workload.len() >= 6, "workload too small: {}", workload.len());
    let mut wj_total = 0.0;
    let mut aj_total = 0.0;
    for q in &workload {
        let ig = &datasets[q.dataset].ig;
        let (wj_mae, _) =
            run_fixed_walks(ig, &q.generated.query, &q.exact_distinct, Algo::Wj, 12_000, &cfg);
        let (aj_mae, _) =
            run_fixed_walks(ig, &q.generated.query, &q.exact_distinct, Algo::Aj, 12_000, &cfg);
        wj_total += wj_mae;
        aj_total += aj_mae;
    }
    let (wj_avg, aj_avg) = (wj_total / workload.len() as f64, aj_total / workload.len() as f64);
    assert!(
        aj_avg < wj_avg,
        "AJ mean MAE {aj_avg:.3} must beat WJ {wj_avg:.3} on the distinct workload"
    );
    assert!(aj_avg < 0.25, "AJ mean MAE should be small, got {aj_avg:.3}");
}

#[test]
fn audit_join_converges_on_every_workload_query_without_distinct() {
    let cfg = bench_cfg();
    let datasets = load_datasets(cfg.scale);
    let workload = prepare_workload(&datasets, &cfg);
    for q in workload.iter().step_by(2) {
        let ig = &datasets[q.dataset].ig;
        let query = q.generated.query.with_distinct(false);
        let (mae, stats) = run_fixed_walks(ig, &query, &q.exact_plain, Algo::Aj, 25_000, &cfg);
        assert!(
            mae < 0.2,
            "AJ failed to converge on {} (mae {mae:.3}, rejections {:.1}%)",
            q.id,
            stats.rejection_rate() * 100.0
        );
    }
}

/// Independently seeded runs per arm of the coverage test.
const COVERAGE_RUNS: u64 = 300;
/// The fewest of [`COVERAGE_RUNS`] whose interval must cover the truth.
const COVERAGE_PASS: u64 = 243;

/// How many of [`COVERAGE_RUNS`] seeded estimates put the exact count of
/// `query`'s top group inside its 95 % interval. The runs are independent,
/// so even and odd seeds go to two threads.
fn covering_runs(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    estimate: impl Fn(u64) -> GroupedEstimates + Sync,
) -> u64 {
    let exact = YannakakisEngine.evaluate(ig, query).expect("exact");
    let (top, truth) = exact.sorted_desc()[0];
    let covered = |first: u64| {
        (first..COVERAGE_RUNS)
            .step_by(2)
            .filter(|&run| {
                let est = estimate(1000 + run);
                (est.get(top) - truth as f64).abs() <= est.half_width(top)
            })
            .count() as u64
    };
    std::thread::scope(|s| {
        let odd = s.spawn(|| covered(1));
        covered(0) + odd.join().expect("coverage thread")
    })
}

/// Each run is one Bernoulli trial — does the top group's 95 % interval
/// cover its exact count? — and each arm must cover in at least 243 of
/// 300 runs. Under the exact binomial tail an interval whose true
/// coverage is 0.90 fails an arm with probability 8.4e-7, and one whose
/// coverage is 0.75 passes it with probability 0.8 %.
///
/// The Wander Join arm estimates the dbpedia-like out-property chart with
/// distinct off; the Audit Join arm estimates the same chart with
/// distinct on, at the default tipping threshold and in 256-walk batches:
/// the estimator, configuration and batch size the supervisor's degraded
/// rung serves.
#[test]
fn confidence_intervals_have_reasonable_coverage() {
    let ig = IndexedGraph::build(kgoa::datagen::generate(&KgConfig::dbpedia_like(Scale::Tiny)));
    let mut s = Session::root(&ig);
    let query = s.expansion_query(Expansion::OutProperty).expect("query");

    let plain = query.with_distinct(false);
    let wj = covering_runs(&ig, &plain, |seed| {
        let mut wj = WanderJoin::new(&ig, &plain, seed).expect("wj");
        run_walks(&mut wj, 2500);
        wj.estimates()
    });
    let distinct = query.with_distinct(true);
    let aj = covering_runs(&ig, &distinct, |seed| {
        let config = AuditJoinConfig { seed, ..AuditJoinConfig::default() };
        let mut aj = AuditJoin::new(&ig, &distinct, config).expect("aj");
        while aj.stats().walks < 2048 {
            aj.step_batch(256);
        }
        aj.estimates()
    });
    assert!(
        wj >= COVERAGE_PASS && aj >= COVERAGE_PASS,
        "95 % intervals covered the truth in WJ {wj}/{COVERAGE_RUNS}, AJ {aj}/{COVERAGE_RUNS} \
         runs (pass mark {COVERAGE_PASS})"
    );
}

#[test]
fn estimates_tighten_with_more_walks() {
    let ig = IndexedGraph::build(kgoa::datagen::generate(&KgConfig::lgd_like(Scale::Tiny)));
    let mut s = Session::root(&ig);
    let query = s.expansion_query(Expansion::Subclass).expect("query");
    let exact = YannakakisEngine.evaluate(&ig, &query).expect("exact");

    let mut aj = AuditJoin::new(&ig, &query, AuditJoinConfig::default()).expect("aj");
    run_walks(&mut aj, 500);
    let early_ci = kgoa::engine::mean_ci_width(&exact, &aj.estimates());
    run_walks(&mut aj, 20_000);
    let late_ci = kgoa::engine::mean_ci_width(&exact, &aj.estimates());
    let late_mae = mean_absolute_error(&exact, &aj.estimates());
    assert!(late_ci < early_ci, "CI must shrink: {early_ci} → {late_ci}");
    assert!(late_mae < 0.1, "late MAE {late_mae}");
}
