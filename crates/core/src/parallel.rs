//! Parallel online aggregation on the persistent worker pool — with
//! *streaming* merged estimates.
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
//! once — and advances it in SoA *batches* of [`StreamConfig::batch`]
//! walks via [`OnlineAggregator::step_batch`].
//! After every batch it publishes a snapshot of its accumulator prefix
//! into its per-worker slot; the caller's thread folds the latest slots
//! (in worker order, so merges are deterministic) into a live
//! [`ParallelSnapshot`] on the [`StreamConfig::refresh`] cadence and hands
//! it to the observer. Parallel runs are therefore *online*: estimates
//! with valid CIs are observable mid-run, not only after the budget
//! expires.
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
//! cap are bounded by `workers × batch` (see `pool.rs` module docs and the
//! `shared_walk_cap_overshoot_is_bounded` test).

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use kgoa_engine::{ExecBudget, GroupedEstimates};
use kgoa_index::IndexedGraph;
use kgoa_query::{ExplorationQuery, QueryError, WalkPlan};

use crate::accum::{GroupAccumulator, WalkStats};
use crate::audit::{AuditJoin, AuditJoinConfig};
use crate::online::{mean_ci_half_width, OnlineAggregator};
use crate::pool::WorkerPool;
use crate::wander::WanderJoin;

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
    /// A wall-clock budget (each worker runs until the deadline).
    Time(Duration),
    /// A shared [`ExecBudget`]: all workers step under the same deadline /
    /// cancellation flag / walk counters and stop when it trips.
    Exec(ExecBudget),
}

/// Batching and refresh cadence for a streaming parallel run.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Walks per SoA batch: how many walks each worker advances through
    /// [`OnlineAggregator::step_batch`] at a time, and therefore the unit
    /// of publication, budget accounting and panic loss. Larger batches
    /// amortize RNG refills, index probes and slot locking; smaller
    /// batches refresh the live estimate more often (256 balances the two
    /// — see DESIGN.md §4f and §4j).
    pub batch: u64,
    /// How often the caller folds worker slots into a merged snapshot for
    /// the observer. Sub-millisecond values are clamped to 1ms.
    pub refresh: Duration,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { batch: 256, refresh: Duration::from_millis(25) }
    }
}

/// One live merged view of an in-progress parallel run.
#[derive(Debug, Clone)]
pub struct ParallelSnapshot {
    /// Merged per-group estimates with CIs over all published batches.
    pub estimates: GroupedEstimates,
    /// Merged walk counters over all published batches.
    pub stats: WalkStats,
    /// Mean absolute 95% CI half-width over groups (0 before any group
    /// has an interval) — the same summary [`crate::run_traced`] records
    /// per batch, so streaming consumers see the CI trajectory without
    /// the traced single-thread path.
    pub mean_ci_half_width: f64,
    /// Workers that have published at least one batch.
    pub workers_reporting: usize,
    /// Total batches folded into this snapshot.
    pub batches_merged: u64,
    /// Wall-clock time since the run started.
    pub elapsed: Duration,
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

/// Per-worker publication slots plus a progress counter the merger waits
/// on. Slots only ever move forward (each publication supersedes the
/// previous prefix), so folds taken later dominate folds taken earlier —
/// that is what makes streamed snapshots monotone in walk count.
struct Board {
    slots: Vec<Mutex<Option<Published>>>,
    progress: Mutex<Progress>,
    bump: Condvar,
}

#[derive(Default)]
struct Progress {
    publications: u64,
    finished: usize,
}

impl Board {
    fn new(workers: usize) -> Self {
        Board {
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            progress: Mutex::new(Progress::default()),
            bump: Condvar::new(),
        }
    }

    fn publish(&self, worker: usize, published: Published) {
        *self.slots[worker].lock().unwrap() = Some(published);
        self.progress.lock().unwrap().publications += 1;
        self.bump.notify_all();
    }

    fn finish_worker(&self) {
        self.progress.lock().unwrap().finished += 1;
        self.bump.notify_all();
    }

    /// Merge the latest published prefix of every worker, in worker order.
    fn fold(&self) -> (GroupAccumulator, WalkStats, u64, usize) {
        let mut accum = GroupAccumulator::new();
        let mut stats = WalkStats::default();
        let mut batches = 0u64;
        let mut reporting = 0usize;
        for slot in &self.slots {
            if let Some((a, s, b)) = &*slot.lock().unwrap() {
                accum.merge_from(a);
                stats.merge_from(s);
                batches += *b;
                reporting += 1;
            }
        }
        (accum, stats, batches, reporting)
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
/// persistent pool and merge their estimators (module docs). Equivalent to
/// [`run_parallel_streaming`] with the default [`StreamConfig`] and no
/// observer.
pub fn run_parallel(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    plan: &WalkPlan,
    algo: ParallelAlgo,
    threads: usize,
    budget: Budget,
    seed: u64,
) -> Result<ParallelOutcome, ParallelError> {
    run_parallel_streaming(
        ig,
        query,
        plan,
        algo,
        threads,
        budget,
        seed,
        StreamConfig::default(),
        |_| {},
    )
}

/// [`run_parallel`] with live merged snapshots: `observer` is called on
/// the caller's thread with a fresh [`ParallelSnapshot`] whenever new
/// batches have been published since the last refresh, and once more with
/// the final merged state. Workers never wait on the observer.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_streaming(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    plan: &WalkPlan,
    algo: ParallelAlgo,
    threads: usize,
    budget: Budget,
    seed: u64,
    config: StreamConfig,
    mut observer: impl FnMut(&ParallelSnapshot),
) -> Result<ParallelOutcome, ParallelError> {
    if threads == 0 {
        return Err(ParallelError::NoThreads);
    }
    kgoa_obs::metrics::PARALLEL_WORKERS.add(threads as u64);
    let start = Instant::now();
    let batch = config.batch.max(1);
    let refresh = config.refresh.max(Duration::from_millis(1));
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

    let merged_batches = WorkerPool::global().scope(|scope| {
        for t in 0..threads {
            let plan = Arc::clone(&plan);
            let profile = profile.clone();
            let board = &board;
            let outcomes = &outcomes;
            let worker_seed =
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64 + 1));
            scope.spawn(move || {
                kgoa_obs::metrics::PARALLEL_ACTIVE_WORKERS.add(1);
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
                            drive_batched(&mut wj, budget, batch, board, t, |a| {
                                (a.accumulator().clone(), a.stats())
                            });
                            wj.profile_emit();
                        }
                        ParallelAlgo::AuditJoin(cfg) => {
                            let cfg = AuditJoinConfig { seed: worker_seed, ..cfg };
                            let mut aj =
                                AuditJoin::with_plan(ig, query, Arc::clone(&plan), cfg)?;
                            drive_batched(&mut aj, budget, batch, board, t, |a| {
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
                kgoa_obs::metrics::PARALLEL_ACTIVE_WORKERS.add(-1);
                *outcomes[t].lock().unwrap() = Some(end);
                board.finish_worker();
            });
        }

        // Merge loop: fold the latest worker slots whenever new batches
        // arrived, on the refresh cadence, until every worker finished.
        let mut last_pubs = 0u64;
        let mut last_batches = 0u64;
        loop {
            let (pubs, finished) = {
                let mut p = board.progress.lock().unwrap();
                if p.publications == last_pubs && p.finished < threads {
                    p = board.bump.wait_timeout(p, refresh).unwrap().0;
                }
                (p.publications, p.finished)
            };
            if pubs > last_pubs {
                last_pubs = pubs;
                let (accum, stats, batches, reporting) = board.fold();
                kgoa_obs::metrics::POOL_BATCHES_MERGED
                    .add(batches.saturating_sub(last_batches));
                last_batches = batches;
                let estimates = accum.estimates(stats.walks);
                let snapshot = ParallelSnapshot {
                    mean_ci_half_width: mean_ci_half_width(&estimates),
                    estimates,
                    stats,
                    workers_reporting: reporting,
                    batches_merged: batches,
                    elapsed: start.elapsed(),
                };
                observer(&snapshot);
            }
            if finished == threads {
                break;
            }
        }
        last_batches
    });

    let mut workers_panicked = 0usize;
    let mut first_error: Option<QueryError> = None;
    for (t, cell) in outcomes.into_iter().enumerate() {
        match cell.into_inner().unwrap().expect("every worker records an outcome") {
            WorkerEnd::Done => {
                let walks = board.worker_walks(t);
                kgoa_obs::metrics::PARALLEL_WORKER_WALKS.record(walks);
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
                kgoa_obs::metrics::PARALLEL_WORKER_PANICS.inc();
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

    // Final fold: the merge loop may have exited before the last batches
    // were folded; this is also the snapshot the observer saw last.
    let (accum, stats, batches, reporting) = board.fold();
    kgoa_obs::metrics::POOL_BATCHES_MERGED.add(batches.saturating_sub(merged_batches));
    let estimates = accum.estimates(stats.walks);
    let final_snapshot = ParallelSnapshot {
        mean_ci_half_width: mean_ci_half_width(&estimates),
        estimates,
        stats,
        workers_reporting: reporting,
        batches_merged: batches,
        elapsed: start.elapsed(),
    };
    observer(&final_snapshot);
    Ok(ParallelOutcome {
        estimates: final_snapshot.estimates,
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
    batch: u64,
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
                let step = batch.min(*n - done);
                agg.step_batch(step);
                done += step;
                batches += 1;
                publish(agg, batches, step);
            }
        }
        Budget::Time(d) => {
            let start = Instant::now();
            while start.elapsed() < *d {
                let mut in_batch = 0u64;
                // Check the clock every 64 walks (like `run_timed`) so the
                // deadline is never overshot by more than a mini-batch.
                while in_batch < batch && start.elapsed() < *d {
                    let step = 64.min(batch - in_batch);
                    agg.step_batch(step);
                    in_batch += step;
                }
                batches += 1;
                publish(agg, batches, in_batch);
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
                let end = match agg.step_batch_governed(b, batch) {
                    Ok(done) => done < batch,
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

    /// Satellite: the bounded-overshoot contract. Completed walks never
    /// exceed the shared cap (per-walk charging); walks *started* past the
    /// cap are at most `workers × batch`.
    #[test]
    fn shared_walk_cap_overshoot_is_bounded() {
        let (ig, p, q) = graph();
        let query = query(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let threads = 4usize;
        let cap = 1_000u64;
        let config = StreamConfig { batch: 128, ..StreamConfig::default() };
        let budget = ExecBudget::builder().walk_limit(cap).build();
        let out = run_parallel_streaming(
            &ig,
            &query,
            &plan,
            ParallelAlgo::WanderJoin,
            threads,
            Budget::Exec(budget.clone()),
            11,
            config,
            |_| {},
        )
        .unwrap();
        assert!(out.stats.walks <= cap, "completed walks {} > cap {cap}", out.stats.walks);
        assert!(budget.walks() >= cap, "the fleet must reach the cap");
        let bound = cap + threads as u64 * config.batch;
        assert!(
            budget.walks() <= bound,
            "started walks {} exceed cap {cap} + workers×batch {bound}",
            budget.walks()
        );
    }

    /// Satellite: mid-run merged snapshots are monotone in walk count and
    /// the final streamed state is bit-identical to the old end-of-run
    /// merge (per-worker aggregators merged in worker order).
    #[test]
    fn streaming_snapshots_monotone_and_final_matches_end_of_run_merge() {
        let (ig, p, q) = graph();
        let query = query(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let (threads, walks, seed) = (2usize, 1_000u64, 42u64);
        let mut snapshots: Vec<ParallelSnapshot> = Vec::new();
        let out = run_parallel_streaming(
            &ig,
            &query,
            &plan,
            ParallelAlgo::WanderJoin,
            threads,
            Budget::WalksPerWorker(walks),
            seed,
            StreamConfig { batch: 128, refresh: Duration::from_millis(1) },
            |s| snapshots.push(s.clone()),
        )
        .unwrap();
        assert!(!snapshots.is_empty());
        for w in snapshots.windows(2) {
            assert!(w[1].stats.walks >= w[0].stats.walks, "walks must be monotone");
            assert!(w[1].batches_merged >= w[0].batches_merged);
        }
        for s in &snapshots {
            // The streamed half-width summary matches the traced path's
            // definition, recomputed from the snapshot's own estimates.
            assert_eq!(
                s.mean_ci_half_width,
                crate::online::mean_ci_half_width(&s.estimates),
                "snapshot mean CI half-width must match the shared helper"
            );
        }
        let last = snapshots.last().unwrap();
        assert_eq!(last.stats.walks, out.stats.walks);
        assert!(
            last.mean_ci_half_width > 0.0,
            "a finished multi-group run has a nonzero mean CI half-width"
        );

        // The old end-of-run merge, replayed by hand: one aggregator per
        // worker seed stepped in the same SoA batches the workers used,
        // merged in worker order.
        let mut accum = GroupAccumulator::new();
        let mut stats = WalkStats::default();
        for t in 0..threads {
            let worker_seed =
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64 + 1));
            let mut wj =
                WanderJoin::with_plan(&ig, &query, plan.clone(), worker_seed).unwrap();
            crate::online::run_walks_batched(&mut wj, walks, 128);
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

    /// Acceptance: at least one merged snapshot is observable *before*
    /// the run completes. The observer itself cancels the shared budget
    /// after the first non-empty snapshot — the walk cap is far beyond
    /// reach, so the run could only have ended through that mid-run
    /// observation.
    #[test]
    fn streaming_exposes_mid_run_snapshot_before_completion() {
        let (ig, p, q) = graph();
        let query = query(p, q, false);
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).unwrap();
        let budget = ExecBudget::builder().walk_limit(u64::MAX / 2).build();
        let cancel = budget.clone();
        let mut mid_run_walks = 0u64;
        let out = run_parallel_streaming(
            &ig,
            &query,
            &plan,
            ParallelAlgo::WanderJoin,
            2,
            Budget::Exec(budget),
            13,
            StreamConfig { batch: 64, refresh: Duration::from_millis(1) },
            |snap| {
                if snap.stats.walks > 0 && mid_run_walks == 0 {
                    mid_run_walks = snap.stats.walks;
                    cancel.cancel();
                }
            },
        )
        .unwrap();
        assert!(mid_run_walks > 0, "a mid-run snapshot must have been observed");
        assert!(out.stats.walks >= mid_run_walks);
        assert!(!out.estimates.is_empty());
    }
}
