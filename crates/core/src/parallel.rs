//! Parallel online aggregation on the persistent worker pool.
//!
//! The paper's related work (§II) surveys parallel online aggregation
//! (PF-OLA and friends) and its conclusion lists scaling the approach as a
//! natural direction. Because every random walk is an independent sample,
//! parallelization is embarrassingly simple *statistically*: run one
//! aggregator per logical worker with independent RNG streams and merge
//! the per-group `Σx`/`Σx²` sums and walk counts. The merged estimator is
//! the same unbiased estimator with the union of the samples; confidence
//! intervals tighten accordingly.
//!
//! **Execution model.** Workers are jobs on the process-wide
//! [`WorkerPool`] (spawned once, reused across runs) rather than per-call
//! scoped threads. Each logical worker owns its aggregator for the whole
//! run — RNG setup, walk buffers and per-step index references are paid
//! once — and advances it in SoA batches of [`BATCH`] walks via
//! [`OnlineAggregator::step_batch`]. After every batch it publishes its
//! accumulator prefix into its per-worker slot. Once the scope has
//! drained, the caller folds the slots once, in worker order, so the
//! merge is deterministic.
//!
//! **Fault isolation.** Every worker runs inside `catch_unwind`. A panic
//! loses only the walks of the batch that was in flight: the worker's
//! previously *published* batches are complete, independently-seeded
//! sample sets whose retention does not depend on their sampled values, so
//! the merged estimator over the union of all published batches remains
//! unbiased. Only when every worker panics does the run return
//! [`ParallelError::AllWorkersFailed`].
//!
//! **Bounded overshoot.** A shared [`ExecBudget`] walk cap is charged once
//! per batch ([`kgoa_engine::ExecBudget::charge_walks`]), so *completed*
//! walks never exceed the cap; each worker discovers the trip at its next
//! batch (a partial admission is terminal), so walks *started* past the
//! cap are bounded by `workers × BATCH` (see the
//! `shared_walk_cap_overshoot_is_bounded` test).

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use kgoa_engine::{ExecBudget, GroupedEstimates};
use kgoa_index::IndexedGraph;
use kgoa_query::{ExplorationQuery, QueryError, WalkPlan};

use crate::accum::{GroupAccumulator, WalkStats};
use crate::audit::{AuditJoin, AuditJoinConfig};
use crate::online::OnlineAggregator;
use crate::pool::WorkerPool;
use crate::wander::WanderJoin;

/// Walks per SoA batch: how many walks each worker advances through
/// [`OnlineAggregator::step_batch`] at a time, and therefore the unit of
/// publication, budget accounting and panic loss. Larger batches amortize
/// RNG refills, index probes and slot locking; smaller batches lose less
/// to a panic (DESIGN.md §4f and §4j).
pub const BATCH: u64 = 256;

/// Which algorithm a parallel run executes.
#[derive(Debug, Clone, Copy)]
pub enum ParallelAlgo {
    /// Wander Join workers.
    WanderJoin,
    /// Audit Join workers with this configuration (per-worker seeds are
    /// derived from the configured seed).
    AuditJoin(AuditJoinConfig),
}

/// Result of a parallel run: merged estimates and counters.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Merged per-group estimates with confidence intervals over the union
    /// of all published batches.
    pub estimates: GroupedEstimates,
    /// Merged walk counters (published batches only).
    pub stats: WalkStats,
    /// Number of logical workers that ran.
    pub threads: usize,
    /// Workers whose panic was isolated; each lost only its in-flight
    /// batch (published batches were merged). `0` on a healthy run.
    pub workers_panicked: usize,
    /// Total walk batches folded into the final estimate.
    pub batches: u64,
}

/// How long the workers run.
#[derive(Debug, Clone)]
pub enum Budget {
    /// A fixed number of walks per worker (deterministic).
    WalksPerWorker(u64),
    /// A shared [`ExecBudget`]: all workers step under the same deadline /
    /// cancellation flag / walk counters and stop when it trips.
    Exec(ExecBudget),
}

/// Errors from [`run_parallel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelError {
    /// `threads == 0` was requested.
    NoThreads,
    /// The query failed validation or planning (all workers see the same
    /// query, so this is reported once).
    Query(QueryError),
    /// Every worker panicked; there is no surviving estimator to merge.
    AllWorkersFailed {
        /// How many workers were started (and lost).
        workers: usize,
    },
}

impl fmt::Display for ParallelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelError::NoThreads => write!(f, "at least one worker thread is required"),
            ParallelError::Query(e) => write!(f, "query error: {e}"),
            ParallelError::AllWorkersFailed { workers } => {
                write!(f, "all {workers} worker threads panicked")
            }
        }
    }
}

impl std::error::Error for ParallelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParallelError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for ParallelError {
    fn from(e: QueryError) -> Self {
        ParallelError::Query(e)
    }
}

/// A worker's latest published prefix: accumulator, counters, batches.
type Published = (GroupAccumulator, WalkStats, u64);

/// Per-worker publication slots. Each publication supersedes the
/// worker's previous prefix, so a slot always holds every batch the worker
/// completed.
struct Board {
    slots: Vec<Mutex<Option<Published>>>,
}

impl Board {
    fn new(workers: usize) -> Self {
        Board { slots: (0..workers).map(|_| Mutex::new(None)).collect() }
    }

    fn publish(&self, worker: usize, published: Published) {
        *self.slots[worker].lock().unwrap() = Some(published);
    }

    /// Merge the latest published prefix of every worker, in worker order.
    fn fold(&self) -> (GroupAccumulator, WalkStats, u64) {
        let mut accum = GroupAccumulator::new();
        let mut stats = WalkStats::default();
        let mut batches = 0u64;
        for slot in &self.slots {
            if let Some((a, s, b)) = &*slot.lock().unwrap() {
                accum.merge_from(a);
                stats.merge_from(s);
                batches += *b;
            }
        }
        (accum, stats, batches)
    }

    /// Walk counters of one worker's latest publication (0 if none).
    fn worker_walks(&self, worker: usize) -> u64 {
        self.slots[worker].lock().unwrap().as_ref().map_or(0, |(_, s, _)| s.walks)
    }
}

/// How one worker's job ended.
enum WorkerEnd {
    Done,
    Failed(QueryError),
    Panicked,
}

/// Run `threads` independent aggregators over the same query on the
/// persistent pool and merge their estimators (module docs).
pub fn run_parallel(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    plan: &WalkPlan,
    algo: ParallelAlgo,
    threads: usize,
    budget: Budget,
    seed: u64,
) -> Result<ParallelOutcome, ParallelError> {
    if threads == 0 {
        return Err(ParallelError::NoThreads);
    }
    // One Arc'd plan shared by all workers; query and budget are borrowed
    // straight from the caller's frame — nothing is deep-cloned per worker.
    let plan = Arc::new(plan.clone());
    let budget = &budget;
    let board = Board::new(threads);
    let outcomes: Vec<Mutex<Option<WorkerEnd>>> =
        (0..threads).map(|_| Mutex::new(None)).collect();
    // If the calling thread is attached to a query profile, hand each
    // worker a handle *captured before spawning* so their spans land in
    // the caller's tree (labelled per worker) instead of vanishing.
    let profile = kgoa_obs::profile::current_handle();

    WorkerPool::global().scope(|scope| {
        for t in 0..threads {
            let plan = Arc::clone(&plan);
            let profile = profile.clone();
            let board = &board;
            let outcomes = &outcomes;
            let worker_seed =
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64 + 1));
            scope.spawn(move || {
                let end = match catch_unwind(AssertUnwindSafe(|| -> Result<(), QueryError> {
                    let _attach = profile.as_ref().map(|h| h.attach(format!("worker-{t}")));
                    let _span = kgoa_obs::profile::span("parallel.worker");
                    if let Budget::Exec(b) = budget {
                        b.fault_worker_delay(t);
                    }
                    match algo {
                        ParallelAlgo::WanderJoin => {
                            let mut wj =
                                WanderJoin::with_plan(ig, query, Arc::clone(&plan), worker_seed)?;
                            drive_batched(&mut wj, budget, board, t, |a| {
                                (a.accumulator().clone(), a.stats())
                            });
                            wj.profile_emit();
                        }
                        ParallelAlgo::AuditJoin(cfg) => {
                            let cfg = AuditJoinConfig { seed: worker_seed, ..cfg };
                            let mut aj =
                                AuditJoin::with_plan(ig, query, Arc::clone(&plan), cfg)?;
                            drive_batched(&mut aj, budget, board, t, |a| {
                                (a.accumulator().clone(), a.stats())
                            });
                            aj.profile_emit();
                        }
                    }
                    Ok(())
                })) {
                    Ok(Ok(())) => WorkerEnd::Done,
                    Ok(Err(e)) => WorkerEnd::Failed(e),
                    Err(_) => WorkerEnd::Panicked,
                };
                *outcomes[t].lock().unwrap() = Some(end);
            });
        }
    });

    let mut workers_panicked = 0usize;
    let mut first_error: Option<QueryError> = None;
    for (t, cell) in outcomes.into_iter().enumerate() {
        match cell.into_inner().unwrap().expect("every worker records an outcome") {
            WorkerEnd::Done => {
                let walks = board.worker_walks(t);
                kgoa_obs::events::emit_with(
                    kgoa_obs::Level::Debug,
                    "parallel",
                    "worker finished",
                    vec![("worker", t.to_string()), ("walks", walks.to_string())],
                );
            }
            WorkerEnd::Failed(e) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
            WorkerEnd::Panicked => {
                // Only the in-flight batch died with the worker; its
                // published batches stay merged (module docs).
                kgoa_obs::events::emit_with(
                    kgoa_obs::Level::Warn,
                    "parallel",
                    "worker panicked; discarding its in-flight batch",
                    vec![("worker", t.to_string())],
                );
                workers_panicked += 1;
            }
        }
    }
    if let Some(e) = first_error {
        return Err(ParallelError::Query(e));
    }
    if workers_panicked == threads {
        return Err(ParallelError::AllWorkersFailed { workers: threads });
    }

    let (accum, stats, batches) = board.fold();
    Ok(ParallelOutcome {
        estimates: accum.estimates(stats.walks),
        stats,
        threads,
        workers_panicked,
        batches,
    })
}

/// Step `agg` under `budget` in batches, publishing the accumulator
/// prefix after every batch. `snap` clones the concrete aggregator's
/// accumulator (the [`OnlineAggregator`] trait deliberately does not
/// expose raw sums).
fn drive_batched<A: OnlineAggregator>(
    agg: &mut A,
    budget: &Budget,
    board: &Board,
    worker: usize,
    snap: impl Fn(&A) -> (GroupAccumulator, WalkStats),
) {
    let mut batches = 0u64;
    let publish = |agg: &A, batches: u64, walks_in_batch: u64| {
        kgoa_obs::profile::leaf(
            "pool.batch",
            &[("batch", batches), ("walks", walks_in_batch)],
        );
        let (accum, stats) = snap(agg);
        board.publish(worker, (accum, stats, batches));
    };
    match budget {
        Budget::WalksPerWorker(n) => {
            let mut done = 0u64;
            while done < *n {
                let step = BATCH.min(*n - done);
                agg.step_batch(step);
                done += step;
                batches += 1;
                publish(agg, batches, step);
            }
        }
        Budget::Exec(b) => {
            if b.is_unlimited() {
                // Mirrors `run_governed`: an unbounded budget would spin
                // forever, so it does no work at all.
                return;
            }
            let mut published = 0u64;
            loop {
                // A partial admission (`done < batch`) means the shared
                // walk cap is exhausted — terminal, like an error.
                let end = match agg.step_batch_governed(b, BATCH) {
                    Ok(done) => done < BATCH,
                    Err(_) => true,
                };
                // Walks recorded before a mid-batch trip are real samples:
                // publish whatever the batch actually added, then stop.
                let walks = agg.stats().walks;
                if walks > published {
                    batches += 1;
                    publish(agg, batches, walks - published);
                    published = walks;
                }
                if end {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_engine::{mean_absolute_error, CountEngine, YannakakisEngine};
    use kgoa_index::IndexOrder;
    use kgoa_query::{TriplePattern, Var};
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    fn graph() -> (IndexedGraph, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let classes: Vec<TermId> =
            (0..3).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
        for si in 0..30u32 {
            let s = b.dict_mut().intern_iri(format!("u:s{si}"));
            for oi in 0..4u32 {
                let o = b.dict_mut().intern_iri(format!("u:o{}", (si + oi) % 12));
                b.add(Triple::new(s, p, o));
            }
        }
        for oi in 0..12u32 {
            let o = b.dict_mut().intern_iri(format!("u:o{oi}"));
            b.add(Triple::new(o, q, classes[(oi % 3) as usize]));
        }
        (IndexedGraph::build(b.build()), p, q)
    }

    fn query(p: TermId, q: TermId, distinct: bool) -> ExplorationQuery {
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
    fn parallel_audit_join_converges() {
        let (ig, p, q) = graph();
        let query = query(p, q, true);
        let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let out = run_parallel(
            &ig,
            &query,
            &plan,
            ParallelAlgo::AuditJoin(AuditJoinConfig::default()),
            4,
            Budget::WalksPerWorker(5_000),
            7,
        )
        .unwrap();
        assert_eq!(out.threads, 4);
        assert_eq!(out.stats.walks, 20_000);
        let mae = mean_absolute_error(&exact, &out.estimates);
        assert!(mae < 0.05, "parallel AJ MAE {mae}");
    }

    #[test]
    fn parallel_wander_join_counts_walks_from_all_workers() {
        let (ig, p, q) = graph();
        let query = query(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let out = run_parallel(
            &ig,
            &query,
            &plan,
            ParallelAlgo::WanderJoin,
            3,
            Budget::WalksPerWorker(1_000),
            1,
        )
        .unwrap();
        assert_eq!(out.stats.walks, 3_000);
        assert!(!out.estimates.is_empty());
        // 1000 walks in 256-walk batches = 4 batches per worker.
        assert_eq!(out.batches, 12);
    }

    #[test]
    fn parallel_is_deterministic_for_fixed_budget() {
        let (ig, p, q) = graph();
        let query = query(p, q, true);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let run = || {
            run_parallel(
                &ig,
                &query,
                &plan,
                ParallelAlgo::AuditJoin(AuditJoinConfig::default()),
                2,
                Budget::WalksPerWorker(500),
                99,
            )
            .unwrap()
        };
        let (a, b) = (run(), run());
        for (g, x) in a.estimates.estimates.iter() {
            assert_eq!(b.estimates.estimates.get(g), Some(x));
        }
    }

    #[test]
    fn merged_ci_tightens_with_more_workers() {
        let (ig, p, q) = graph();
        let query = query(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let hw = |threads: usize| {
            let out = run_parallel(
                &ig,
                &query,
                &plan,
                ParallelAlgo::WanderJoin,
                threads,
                Budget::WalksPerWorker(2_000),
                5,
            )
            .unwrap();
            let (g, _) = out
                .estimates
                .estimates
                .iter()
                .next()
                .map(|(g, x)| (*g, *x))
                .expect("a group");
            out.estimates.half_widths[&g]
        };
        // 4x the samples ⇒ roughly half the CI width.
        let (one, four) = (hw(1), hw(4));
        assert!(four < one * 0.75, "CI should tighten: 1 thread {one}, 4 threads {four}");
    }

    /// The bounded-overshoot contract. Completed walks never exceed the
    /// shared cap (per-batch charging); walks *started* past the cap are at
    /// most `workers × BATCH`.
    #[test]
    fn shared_walk_cap_overshoot_is_bounded() {
        let (ig, p, q) = graph();
        let query = query(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let threads = 4usize;
        let cap = 1_000u64;
        let budget = ExecBudget::builder().walk_limit(cap).build();
        let out = run_parallel(
            &ig,
            &query,
            &plan,
            ParallelAlgo::WanderJoin,
            threads,
            Budget::Exec(budget.clone()),
            11,
        )
        .unwrap();
        assert!(out.stats.walks <= cap, "completed walks {} > cap {cap}", out.stats.walks);
        assert!(budget.walks() >= cap, "the fleet must reach the cap");
        let bound = cap + threads as u64 * BATCH;
        assert!(
            budget.walks() <= bound,
            "started walks {} exceed cap {cap} + workers×BATCH {bound}",
            budget.walks()
        );
    }

    /// The merged result is bit-identical to a replay of each worker: one
    /// aggregator per worker seed stepped in the same SoA batches the
    /// workers used, merged in worker order.
    #[test]
    fn merged_result_matches_per_worker_replay() {
        let (ig, p, q) = graph();
        let query = query(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let (threads, walks, seed) = (2usize, 1_000u64, 42u64);
        let out = run_parallel(
            &ig,
            &query,
            &plan,
            ParallelAlgo::WanderJoin,
            threads,
            Budget::WalksPerWorker(walks),
            seed,
        )
        .unwrap();

        let mut accum = GroupAccumulator::new();
        let mut stats = WalkStats::default();
        for t in 0..threads {
            let worker_seed =
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64 + 1));
            let mut wj =
                WanderJoin::with_plan(&ig, &query, plan.clone(), worker_seed).unwrap();
            crate::online::run_walks_batched(&mut wj, walks, BATCH);
            accum.merge_from(wj.accumulator());
            stats.merge_from(&wj.stats());
        }
        let expected = accum.estimates(stats.walks);
        assert_eq!(out.stats.walks, stats.walks);
        assert_eq!(out.estimates.estimates.len(), expected.estimates.len());
        for (g, x) in expected.estimates.iter() {
            // Bit-identical, not approximately equal.
            assert_eq!(out.estimates.estimates.get(g), Some(x), "group {g}");
            assert_eq!(
                out.estimates.half_widths.get(g),
                expected.half_widths.get(g),
                "group {g} half-width"
            );
        }
    }
}
