//! Workload preparation: datasets, generated queries, ground truths, and
//! the shared online-aggregation measurement loop.

use std::time::Duration;

use kgoa_core::{
    run_timed, AuditJoin, AuditJoinConfig, OnlineAggregator, OrderSelection, WalkStats,
    WanderJoin,
};
use kgoa_datagen::{generate_with_info, DatasetInfo, KgConfig, Scale};
use kgoa_engine::{
    mean_absolute_error, mean_ci_width, CountEngine, GroupedCounts, YannakakisEngine,
};
use kgoa_explore::{generate_explorations, GeneratedQuery, GeneratorConfig};
use kgoa_index::IndexedGraph;
use kgoa_query::ExplorationQuery;

/// Shared benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Dataset scale.
    pub scale: Scale,
    /// Number of reporting ticks per online run (paper: 9).
    pub ticks: usize,
    /// Wall-clock duration of one tick (paper: 1 s).
    pub tick: Duration,
    /// Exploration runs per graph for the generator (paper: 25).
    pub runs: usize,
    /// Maximum exploration depth (paper: 4).
    pub max_steps: usize,
    /// Generator seed.
    pub seed: u64,
    /// Audit Join tipping threshold.
    pub tipping_threshold: f64,
    /// Wander Join walk-order trial budget (0 = canonical order). The
    /// paper selects the best WJ order per query (§V-B).
    pub wj_order_trials: u64,
    /// Walks per SoA batch of the walk loop (`--batch`; DESIGN.md §4j).
    pub batch: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            scale: Scale::Small,
            ticks: 5,
            tick: Duration::from_millis(200),
            runs: 25,
            max_steps: 4,
            seed: 0x000A_0D17,
            tipping_threshold: 1024.0,
            wj_order_trials: 1024,
            batch: 256,
        }
    }
}

/// A benchmark dataset: the indexed graph plus its generation summary.
pub struct Dataset {
    /// Short name ("dbpedia-like", "lgd-like").
    pub name: &'static str,
    /// The indexed graph.
    pub ig: IndexedGraph,
    /// Generation summary for Table I.
    pub info: DatasetInfo,
}

/// Build the two paper-shaped datasets at a scale.
pub fn load_datasets(scale: Scale) -> Vec<Dataset> {
    let (db_graph, db_info) = generate_with_info(&KgConfig::dbpedia_like(scale));
    let (lgd_graph, lgd_info) = generate_with_info(&KgConfig::lgd_like(scale));
    vec![
        Dataset { name: "dbpedia-like", ig: IndexedGraph::build(db_graph), info: db_info },
        Dataset { name: "lgd-like", ig: IndexedGraph::build(lgd_graph), info: lgd_info },
    ]
}

/// One generated query with its ground truths.
pub struct PreparedQuery {
    /// Human-readable id, e.g. `dbpedia-like/q03/step2`.
    pub id: String,
    /// Index into the dataset list.
    pub dataset: usize,
    /// The generated query and its metadata.
    pub generated: GeneratedQuery,
    /// Exact distinct counts (ground truth for Figs. 8, 9, 11).
    pub exact_distinct: GroupedCounts,
    /// Exact plain counts (ground truth for Fig. 10).
    pub exact_plain: GroupedCounts,
}

/// Generate the random-exploration workload over every dataset and
/// precompute ground truths.
pub fn prepare_workload(datasets: &[Dataset], cfg: &BenchConfig) -> Vec<PreparedQuery> {
    let mut out = Vec::new();
    for (di, ds) in datasets.iter().enumerate() {
        let gen_cfg =
            GeneratorConfig { runs: cfg.runs, max_steps: cfg.max_steps, seed: cfg.seed };
        let queries = generate_explorations(&ds.ig, &YannakakisEngine, gen_cfg)
            .expect("generator over valid graph");
        for (qi, g) in queries.into_iter().enumerate() {
            let exact_distinct = YannakakisEngine
                .evaluate(&ds.ig, &g.query)
                .expect("ground truth (distinct)");
            let exact_plain = YannakakisEngine
                .evaluate(&ds.ig, &g.query.with_distinct(false))
                .expect("ground truth (plain)");
            out.push(PreparedQuery {
                id: format!("{}/q{:02}/step{}", ds.name, qi, g.step),
                dataset: di,
                generated: g,
                exact_distinct,
                exact_plain,
            });
        }
    }
    out
}

/// Which online algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Wander Join.
    Wj,
    /// Audit Join.
    Aj,
}

impl Algo {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Wj => "WJ",
            Algo::Aj => "AJ",
        }
    }
}

/// One measurement point of an online run.
#[derive(Debug, Clone, Copy)]
pub struct SeriesPoint {
    /// Elapsed wall-clock time.
    pub elapsed: Duration,
    /// Mean absolute error against the exact result (paper metric).
    pub mae: f64,
    /// Mean relative 0.95 CI half-width.
    pub ci: f64,
    /// Walk counters at this point.
    pub stats: WalkStats,
}

/// Run one algorithm on one query for the configured ticks, reporting MAE
/// and CI at each tick boundary — the measurement behind Figs. 8–10.
pub(crate) fn run_series(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    exact: &GroupedCounts,
    algo: Algo,
    cfg: &BenchConfig,
) -> Vec<SeriesPoint> {
    let snapshots = match algo {
        Algo::Wj => {
            // §V-B: Wander Join gets the best order per query.
            let plan = select_walk_plan(ig, query, cfg);
            let mut wj = WanderJoin::with_plan(ig, query, plan, cfg.seed).expect("wj");
            run_timed(&mut wj, cfg.ticks, cfg.tick)
        }
        Algo::Aj => {
            // Audit Join trials every order with real AJ walks (its best
            // order differs from WJ's: tipped exact computations must stay
            // small), mirroring the per-query tuning WJ receives.
            let aj_cfg =
                AuditJoinConfig {
                    tipping: kgoa_core::Tipping::from_threshold(cfg.tipping_threshold),
                    seed: cfg.seed,
                };
            let plan = select_aj_plan(ig, query, cfg, aj_cfg);
            let mut aj = AuditJoin::with_plan(ig, query, plan, aj_cfg).expect("aj");
            run_timed(&mut aj, cfg.ticks, cfg.tick)
        }
    };
    snapshots
        .into_iter()
        .map(|s| SeriesPoint {
            elapsed: s.elapsed,
            mae: mean_absolute_error(exact, &s.estimates),
            ci: mean_ci_width(exact, &s.estimates),
            stats: s.stats,
        })
        .collect()
}

/// Pick the walk plan per the configured order-selection policy — used for
/// Wander Join, which the paper grants the best order per query (§V-B).
pub(crate) fn select_walk_plan(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    cfg: &BenchConfig,
) -> kgoa_query::WalkPlan {
    let selection = if cfg.wj_order_trials > 0 {
        OrderSelection::BestOf { trial_walks: cfg.wj_order_trials }
    } else {
        OrderSelection::Canonical
    };
    kgoa_core::select_plan(ig, query, selection, cfg.seed).expect("plan for valid query")
}

/// Run for a fixed number of walks instead of wall-clock time (used by the
/// deterministic tests and the order ablation).
pub fn run_fixed_walks(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    exact: &GroupedCounts,
    algo: Algo,
    walks: u64,
    cfg: &BenchConfig,
) -> (f64, WalkStats) {
    match algo {
        Algo::Wj => {
            let plan = select_walk_plan(ig, query, cfg);
            let mut wj = WanderJoin::with_plan(ig, query, plan, cfg.seed).expect("wj");
            kgoa_core::run_walks(&mut wj, walks);
            (mean_absolute_error(exact, &wj.estimates()), wj.stats())
        }
        Algo::Aj => {
            let aj_cfg =
                AuditJoinConfig {
                    tipping: kgoa_core::Tipping::from_threshold(cfg.tipping_threshold),
                    seed: cfg.seed,
                };
            let plan = select_aj_plan(ig, query, cfg, aj_cfg);
            let mut aj = AuditJoin::with_plan(ig, query, plan, aj_cfg).expect("aj");
            kgoa_core::run_walks(&mut aj, walks);
            (mean_absolute_error(exact, &aj.estimates()), aj.stats())
        }
    }
}

/// Audit Join's order choice: canonical when order selection is disabled,
/// otherwise short timed trials of real AJ walks per candidate order.
pub(crate) fn select_aj_plan(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    cfg: &BenchConfig,
    aj_cfg: AuditJoinConfig,
) -> kgoa_query::WalkPlan {
    if cfg.wj_order_trials == 0 {
        return kgoa_query::WalkPlan::canonical(query, &kgoa_index::IndexOrder::PAPER_DEFAULT)
            .expect("plan for valid query");
    }
    kgoa_core::select_plan_audit(ig, query, aj_cfg, Duration::from_millis(25))
        .expect("plan for valid query")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> BenchConfig {
        BenchConfig {
            scale: Scale::Tiny,
            ticks: 2,
            tick: Duration::from_millis(20),
            runs: 3,
            max_steps: 2,
            wj_order_trials: 100,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn workload_prepares_with_ground_truth() {
        let cfg = tiny_cfg();
        let datasets = load_datasets(cfg.scale);
        assert_eq!(datasets.len(), 2);
        let workload = prepare_workload(&datasets, &cfg);
        assert!(!workload.is_empty());
        for q in &workload {
            assert!(!q.exact_distinct.is_empty());
            assert!(q.exact_plain.total() >= q.exact_distinct.total());
        }
    }

    #[test]
    fn series_runs_for_both_algorithms() {
        let cfg = tiny_cfg();
        let datasets = load_datasets(cfg.scale);
        let workload = prepare_workload(&datasets, &cfg);
        let q = &workload[0];
        let ig = &datasets[q.dataset].ig;
        for algo in [Algo::Wj, Algo::Aj] {
            let series = run_series(ig, &q.generated.query, &q.exact_distinct, algo, &cfg);
            assert_eq!(series.len(), cfg.ticks);
            assert!(series[0].stats.walks > 0, "{} did not walk", algo.name());
            // Error is finite and non-negative.
            for p in &series {
                assert!(p.mae.is_finite() && p.mae >= 0.0);
            }
        }
    }

    #[test]
    fn fixed_walk_runs_are_deterministic() {
        let cfg = tiny_cfg();
        let datasets = load_datasets(cfg.scale);
        let workload = prepare_workload(&datasets, &cfg);
        let q = &workload[0];
        let ig = &datasets[q.dataset].ig;
        let (m1, s1) = run_fixed_walks(ig, &q.generated.query, &q.exact_distinct, Algo::Aj, 200, &cfg);
        let (m2, s2) = run_fixed_walks(ig, &q.generated.query, &q.exact_distinct, Algo::Aj, 200, &cfg);
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
    }
}
