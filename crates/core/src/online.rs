//! The online-aggregation interface and time-based runners.
//!
//! The paper's protocol (§V-B): "we run each online aggregation algorithm
//! for nine seconds and report the estimate after each second". The
//! [`run_timed`] helper reproduces that — it steps an aggregator until each
//! tick boundary and snapshots the estimates — while [`run_walks`] gives
//! deterministic, walk-count-based runs for tests.

use std::time::{Duration, Instant};

use kgoa_engine::{BudgetExceeded, ExecBudget, GroupedEstimates};

use crate::accum::WalkStats;

/// An online-aggregation algorithm over one query: repeatedly stepped,
/// queryable for its current estimates at any time.
///
/// There is one walk loop per algorithm and it advances a batch of walks
/// step-major; [`OnlineAggregator::step_batch_governed`] is the only
/// stepping method an implementation writes. The other three are the same
/// call with an unlimited budget and/or a batch of one.
pub trait OnlineAggregator {
    /// Short name for reports ("wj", "aj").
    fn name(&self) -> &'static str;

    /// Perform up to `n` walks as one batch under a cooperative budget,
    /// returning the number of walks admitted. `Ok(done)` with `done < n`
    /// means the shared walk cap admitted only part of the batch — callers
    /// must treat that as terminal, like `Err`, and stop issuing batches.
    /// A walk the budget aborts mid-flight is not counted and contributes
    /// nothing; walks of the batch that had already finished stay counted.
    fn step_batch_governed(
        &mut self,
        budget: &ExecBudget,
        n: u64,
    ) -> Result<u64, BudgetExceeded>;

    /// Perform `n` walks as one batch, ungoverned.
    fn step_batch(&mut self, n: u64) {
        self.step_batch_governed(&ExecBudget::unlimited(), n)
            .expect("unlimited budget cannot trip");
    }

    /// Perform one walk (one estimator sample): a batch of one.
    fn step(&mut self) {
        self.step_batch(1);
    }

    /// Perform one walk under a cooperative budget: a governed batch of one.
    fn step_governed(&mut self, budget: &ExecBudget) -> Result<(), BudgetExceeded> {
        self.step_batch_governed(budget, 1).map(|_| ())
    }

    /// Snapshot the current per-group estimates and confidence intervals.
    fn estimates(&self) -> GroupedEstimates;

    /// Walk counters so far.
    fn stats(&self) -> WalkStats;
}

/// One snapshot of an aggregator's state at a tick boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Wall-clock time since the run started.
    pub elapsed: Duration,
    /// The per-group estimates at this point.
    pub estimates: GroupedEstimates,
    /// Walk counters at this point.
    pub stats: WalkStats,
}

/// Step the aggregator for a fixed number of walks, one walk per batch: the
/// deterministic per-walk driver. Each walk draws its RNG words before the
/// next one starts, so the stream is the one every fixed-seed number in the
/// test suite was recorded against ([`run_walks_batched`] draws step-major
/// across a batch and so walks a different, equally valid, stream).
pub fn run_walks<A: OnlineAggregator + ?Sized>(agg: &mut A, walks: u64) {
    for _ in 0..walks {
        agg.step();
    }
}

/// Step the aggregator for a fixed number of walks in SoA batches of
/// `batch` walks each (deterministic for a fixed seed and batch size).
pub fn run_walks_batched<A: OnlineAggregator + ?Sized>(agg: &mut A, walks: u64, batch: u64) {
    let batch = batch.max(1);
    let mut done = 0u64;
    while done < walks {
        let n = batch.min(walks - done);
        agg.step_batch(n);
        done += n;
    }
}

/// Step the aggregator in governed batches of [`crate::BATCH`] walks (the
/// parallel workers' batch) until its budget trips, and report why it
/// stopped. A batch the walk cap admits only in part is followed by one
/// that admits nothing, which is the trip.
///
/// The budget **must** be bounded (a deadline, walk limit, or eventual
/// cancellation) — with a truly unlimited budget this would spin forever,
/// so that case returns immediately with a zero-walk
/// [`kgoa_engine::BudgetReason::WalkLimit`] violation instead.
pub fn run_governed<A: OnlineAggregator + ?Sized>(
    agg: &mut A,
    budget: &ExecBudget,
) -> BudgetExceeded {
    if budget.is_unlimited() {
        return BudgetExceeded {
            reason: kgoa_engine::BudgetReason::WalkLimit { limit: 0 },
            elapsed: Duration::ZERO,
        };
    }
    loop {
        if let Err(stop) = agg.step_batch_governed(budget, crate::BATCH) {
            return stop;
        }
    }
}

/// Run for `ticks` intervals of `tick` wall-clock time each, snapshotting
/// the estimates at every boundary — the measurement loop behind the
/// paper's MAE-over-time plots (Figs. 8–10).
///
/// The clock is checked once per small batch of walks, so a tick boundary
/// is never overshot by more than a batch.
pub fn run_timed<A: OnlineAggregator + ?Sized>(
    agg: &mut A,
    ticks: usize,
    tick: Duration,
) -> Vec<Snapshot> {
    const BATCH: u64 = 64;
    let start = Instant::now();
    let mut snapshots = Vec::with_capacity(ticks);
    for t in 1..=ticks {
        let deadline = tick * t as u32;
        while start.elapsed() < deadline {
            agg.step_batch(BATCH);
        }
        snapshots.push(Snapshot {
            elapsed: start.elapsed(),
            estimates: agg.estimates(),
            stats: agg.stats(),
        });
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_index::FxHashMap;

    /// A fake aggregator whose estimate is the number of steps taken.
    struct Counting {
        n: u64,
    }

    impl OnlineAggregator for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn step_batch_governed(
            &mut self,
            budget: &ExecBudget,
            n: u64,
        ) -> Result<u64, BudgetExceeded> {
            let admitted = budget.charge_walks(n)?;
            self.n += admitted;
            Ok(admitted)
        }

        fn estimates(&self) -> GroupedEstimates {
            let mut estimates = FxHashMap::default();
            estimates.insert(0u32, self.n as f64);
            GroupedEstimates { estimates, half_widths: FxHashMap::default() }
        }

        fn stats(&self) -> WalkStats {
            WalkStats { walks: self.n, ..WalkStats::default() }
        }
    }

    #[test]
    fn run_walks_steps_exactly() {
        let mut c = Counting { n: 0 };
        run_walks(&mut c, 123);
        assert_eq!(c.n, 123);
    }

    #[test]
    fn provided_methods_step_through_step_batch_governed() {
        let mut c = Counting { n: 0 };
        c.step();
        c.step_batch(6);
        assert_eq!(c.n, 7);
        run_walks_batched(&mut c, 100, 16);
        assert_eq!(c.n, 107);
        let budget = ExecBudget::builder().walk_limit(2).build();
        c.step_governed(&budget).unwrap();
        c.step_governed(&budget).unwrap();
        assert!(c.step_governed(&budget).is_err());
        assert_eq!(c.n, 109);
    }

    #[test]
    fn run_timed_produces_monotone_snapshots() {
        let mut c = Counting { n: 0 };
        let snaps = run_timed(&mut c, 3, Duration::from_millis(5));
        assert_eq!(snaps.len(), 3);
        assert!(snaps[0].stats.walks <= snaps[1].stats.walks);
        assert!(snaps[1].stats.walks <= snaps[2].stats.walks);
        assert!(snaps[2].elapsed >= Duration::from_millis(15));
    }
}
