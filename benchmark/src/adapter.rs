//! Every call the harness makes into the program, and nothing else.
//!
//! The rest of `kgbench` names the program only through this file, so it
//! is the list of `kgoa` signatures the benchmark pins (README, "Program
//! surface"). Calls that do work run inside a harness span
//! ([`crate::trace::span`]); untraced, that is one flag read. The values
//! handed back (counts, estimates, charts, walk statistics, triples) are
//! plain data, read where they are used.

use std::sync::Arc;
use std::time::Duration;

use kgoa::exec::{run_parallel, Budget, ParallelAlgo};
use kgoa::index::{pack2, TrieCursor};
use kgoa::online::AuditJoinConfig;
use kgoa::query::WalkPlan;

pub use kgoa::engine::EngineError;
pub use kgoa::explore::{Chart, ChartKind, Expansion, GovernedChart, Session};
pub use kgoa::index::{IndexOrder, IndexedGraph, LiveRange, TrieIndex, UpdateBatch};
pub use kgoa::obs::ProfileReport;
pub use kgoa::online::{
    AuditJoin, EpochConfig, EpochGuard, EpochManager, OnlineAggregator, SupervisorConfig,
    WalkStats, WanderJoin,
};
pub use kgoa::prelude::{
    ExecBudget, ExplorationQuery, Graph, GroupedCounts, GroupedEstimates, KgConfig, Scale, TermId,
    Triple,
};

use crate::trace::span;

// ---- datagen, index build ------------------------------------------------

pub fn generate(config: &KgConfig) -> Graph {
    span("datagen.generate", || kgoa::datagen::generate(config))
}

/// Default layout, the four paper orders.
pub fn build_index(graph: Graph) -> IndexedGraph {
    span("index.build", || IndexedGraph::build(graph))
}

/// The same dictionary and vocabulary over another (sorted) triple set.
pub fn graph_with_triples(of: &Graph, triples: Vec<Triple>) -> Graph {
    Graph::from_sorted_parts(of.dict().clone(), triples, of.vocab())
}

pub fn layout_name(ig: &IndexedGraph) -> &'static str {
    ig.layout().name()
}

pub fn memory_bytes(ig: &IndexedGraph) -> usize {
    ig.memory_bytes()
}

pub fn contains(ig: &IndexedGraph, triple: Triple) -> bool {
    ig.contains(triple)
}

pub fn live_len(ig: &IndexedGraph) -> usize {
    ig.live_len()
}

pub fn with_overlay(ig: &IndexedGraph, inserts: &[Triple], deletes: &[Triple]) -> IndexedGraph {
    span("index.with_overlay", || ig.with_overlay(inserts, deletes))
}

// ---- index reads (layer probes) -------------------------------------------

pub fn index(ig: &IndexedGraph, order: IndexOrder) -> &TrieIndex {
    ig.require(order)
}

pub fn row(index: &TrieIndex, pos: u32) -> [u32; 3] {
    index.row(pos)
}

pub fn range1(index: &TrieIndex, a: u32) -> LiveRange {
    index.range1_live(a)
}

pub fn range2(index: &TrieIndex, a: u32, b: u32) -> LiveRange {
    index.range2_live(a, b)
}

pub fn pick_row(index: &TrieIndex, range: LiveRange, raw: u64) -> u32 {
    index.pick_live_keyed(range, raw)
}

pub fn probe_key2(a: u32, b: u32) -> u64 {
    pack2(a, b)
}

/// `probes` sorted by packed key, as the walk loop hands them over.
pub fn seek2_batch(index: &TrieIndex, probes: &[(u64, u32)], out: &mut [LiveRange]) {
    index.seek2_batch(probes, out);
}

/// Ascending level-0 seeks through one cursor, as LFTJ/CTJ issue them.
/// Returns how many keys were found, so the work cannot be optimised out.
pub fn cursor_seeks(index: &TrieIndex, keys: &[u32]) -> usize {
    let mut cursor = TrieCursor::over_index(index);
    cursor.open();
    let mut found = 0;
    for &k in keys {
        if cursor.at_end() {
            break;
        }
        cursor.seek(k);
        found += usize::from(!cursor.at_end() && cursor.key() == k);
    }
    found
}

// ---- query, exact engines ---------------------------------------------------

pub fn plan(query: &ExplorationQuery) -> Arc<WalkPlan> {
    span("query.plan", || {
        Arc::new(
            WalkPlan::canonical(query, &IndexOrder::PAPER_DEFAULT)
                .expect("recorded charts are connected"),
        )
    })
}

pub fn yannakakis(ig: &IndexedGraph, query: &ExplorationQuery) -> GroupedCounts {
    use kgoa::prelude::{CountEngine, YannakakisEngine};
    span("engine.yannakakis", || {
        YannakakisEngine
            .evaluate(ig, query)
            .expect("exploration queries suit Yannakakis")
    })
}

pub fn ctj(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    budget: &ExecBudget,
) -> Result<GroupedCounts, EngineError> {
    use kgoa::prelude::{CountEngine, CtjEngine};
    span("engine.ctj", || {
        CtjEngine.evaluate_governed(ig, query, budget)
    })
}

pub fn budget_unlimited() -> ExecBudget {
    ExecBudget::unlimited()
}

pub fn budget_deadline(limit: Duration) -> ExecBudget {
    ExecBudget::with_deadline(limit)
}

/// Exact-engine work ticks charged to `budget` so far.
pub fn budget_tuples(budget: &ExecBudget) -> u64 {
    budget.tuples()
}

// ---- exploration sessions ---------------------------------------------------

pub fn session_root(ig: &IndexedGraph) -> Session<'_> {
    span("explore.session_root", || Session::root(ig))
}

pub fn valid_expansions(session: &Session<'_>) -> &'static [Expansion] {
    session.valid_expansions()
}

pub fn expansion_query(session: &mut Session<'_>, exp: Expansion) -> ExplorationQuery {
    span("explore.expansion_query", || {
        session
            .expansion_query(exp)
            .expect("the recorder only takes valid expansions")
    })
}

pub fn supervisor_config(deadline: Duration, seed: u64) -> SupervisorConfig {
    let mut config = SupervisorConfig::with_deadline(deadline);
    config.audit.seed = seed;
    config
}

pub fn expand_governed(
    session: &mut Session<'_>,
    exp: Expansion,
    config: &SupervisorConfig,
) -> GovernedChart {
    span("explore.expand_governed", || {
        session
            .expand_governed(exp, config)
            .expect("recorded expansions are valid")
    })
}

pub fn expand_profiled(
    session: &mut Session<'_>,
    exp: Expansion,
    config: &SupervisorConfig,
) -> (GovernedChart, ProfileReport) {
    span("explore.expand_profiled", || {
        session
            .expand_profiled(exp, config)
            .expect("recorded expansions are valid")
    })
}

pub fn select(session: &mut Session<'_>, category: TermId) {
    span("explore.select", || {
        session.select(category).expect("an expansion is pending");
    });
}

pub fn chart_kind(exp: Expansion) -> ChartKind {
    exp.produces()
}

pub fn chart_from_counts(kind: ChartKind, counts: &GroupedCounts) -> Chart {
    span("explore.chart_build", || Chart::from_counts(kind, counts))
}

pub fn chart_from_estimates(kind: ChartKind, estimates: &GroupedEstimates) -> Chart {
    span("explore.chart_build", || {
        Chart::from_estimates(kind, estimates)
    })
}

// ---- online aggregation -----------------------------------------------------

pub fn audit_join<'g>(ig: &'g IndexedGraph, query: &ExplorationQuery, seed: u64) -> AuditJoin<'g> {
    span("core.audit.new", || {
        AuditJoin::new(
            ig,
            query,
            AuditJoinConfig {
                seed,
                ..AuditJoinConfig::default()
            },
        )
        .expect("recorded charts are connected")
    })
}

pub fn wander_join<'g>(
    ig: &'g IndexedGraph,
    query: &ExplorationQuery,
    seed: u64,
) -> WanderJoin<'g> {
    span("core.wander.new", || {
        WanderJoin::new(ig, query, seed).expect("recorded charts are connected")
    })
}

/// One SoA batch of up to `n` walks; the number admitted, or `None` once
/// the budget has tripped.
pub fn step_batch<A: OnlineAggregator>(agg: &mut A, budget: &ExecBudget, n: u64) -> Option<u64> {
    span("core.step_batch", || {
        agg.step_batch_governed(budget, n).ok()
    })
}

/// One walk through the legacy loop the supervisor's degraded rungs use.
pub fn step_one<A: OnlineAggregator>(agg: &mut A, budget: &ExecBudget) -> bool {
    agg.step_governed(budget).is_ok()
}

pub fn estimates<A: OnlineAggregator>(agg: &A) -> GroupedEstimates {
    span("core.estimates", || agg.estimates())
}

pub fn walk_stats<A: OnlineAggregator>(agg: &A) -> WalkStats {
    agg.stats()
}

/// `(hits, misses)` of the CTJ suffix memo behind an Audit Join run.
pub fn suffix_cache(aj: &AuditJoin<'_>) -> (u64, u64) {
    let s = aj.cache_stats();
    (s.hits, s.misses)
}

/// A Wander Join quota of `walks_per_worker` on `threads` pool workers.
pub fn parallel_wander(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    threads: usize,
    walks_per_worker: u64,
    seed: u64,
) -> WalkStats {
    let plan = plan(query);
    span("core.parallel", || {
        run_parallel(
            ig,
            query,
            &plan,
            ParallelAlgo::WanderJoin,
            threads,
            Budget::WalksPerWorker(walks_per_worker),
            seed,
        )
        .expect("a walk quota cannot fail on a valid plan")
        .stats
    })
}

pub fn set_obs_enabled(on: bool) {
    kgoa::obs::set_enabled(on);
}

pub fn obs_enabled() -> bool {
    kgoa::obs::enabled()
}

// ---- live updates -----------------------------------------------------------

/// Default `EpochConfig`: merge at 4 096 delta rows, on the program's pool.
pub fn epoch_manager(main: IndexedGraph) -> Arc<EpochManager> {
    span("core.epoch.new", || {
        EpochManager::new(main, EpochConfig::default())
    })
}

pub fn merge_threshold() -> usize {
    EpochConfig::default().merge_threshold
}

pub fn append(mgr: &Arc<EpochManager>, insert: Vec<Triple>, delete: Vec<Triple>) -> u64 {
    let batch = UpdateBatch { insert, delete };
    span("core.epoch.append", || {
        mgr.append(&batch, &ExecBudget::unlimited())
            .expect("an unlimited budget cannot trip")
    })
}

pub fn pin(mgr: &EpochManager) -> EpochGuard {
    span("core.epoch.pin", || mgr.pin())
}

pub fn is_merging(mgr: &EpochManager) -> bool {
    mgr.is_merging()
}

pub fn delta_rows(mgr: &EpochManager) -> usize {
    mgr.delta_rows()
}

/// Block until no merge is running and the delta is under the threshold.
pub fn wait_merged(mgr: &Arc<EpochManager>) {
    span("core.epoch.wait_merged", || mgr.wait_merged());
}

/// Drain the delta completely: wait for the background merge, then fold
/// what is left below the merge threshold.
pub fn merge_all(mgr: &Arc<EpochManager>) {
    span("core.epoch.merge_all", || {
        mgr.wait_merged();
        mgr.merge_now();
        mgr.wait_merged();
    });
}
