//! Resource-governed execution: shared budgets, cooperative checkpoints,
//! and deterministic fault injection.
//!
//! Interactive exploration must answer within a human latency budget
//! (the premise of the paper), and a service in front of a public graph
//! survives only by bounding every query (cf. the service-robustness
//! survey in PAPERS.md). [`ExecBudget`] is the one shared control block:
//! a deadline, a cancellation flag, and tuple/walk counters, threaded
//! as *cooperative checkpoints* through every engine hot loop. Exhaustion
//! surfaces as a typed [`BudgetExceeded`] — never a hang, never a panic —
//! which the supervisor in `kgoa-core` turns into graceful degradation
//! (exact → Audit Join → Wander Join → error).
//!
//! Checkpoints are amortized: hot loops tick a thread-local
//! [`BudgetMeter`] that consults the clock and the shared atomics only
//! every [`BudgetMeter::STRIDE`] iterations, so governance costs well
//! under a nanosecond per tuple on the paths that matter.
//!
//! With the `fault-inject` feature a deterministic `FaultPlan` can be
//! attached: fail the Nth trie seek, panic the Kth walk, delay a worker
//! thread. The plan's counters are global across threads sharing the
//! budget, which makes multi-worker failure tests reproducible.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budget was exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetReason {
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The budget was cooperatively cancelled (user navigated away,
    /// session torn down, supervisor moved on).
    Cancelled,
    /// More intermediate tuples were produced than allowed.
    TupleLimit {
        /// The configured tuple cap.
        limit: u64,
    },
    /// More random walks were taken than allowed.
    WalkLimit {
        /// The configured walk cap.
        limit: u64,
    },
    /// A deterministic fault-injection plan fired (tests only).
    FaultInjected(&'static str),
}

impl fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetReason::DeadlineExpired => write!(f, "deadline expired"),
            BudgetReason::Cancelled => write!(f, "cancelled"),
            BudgetReason::TupleLimit { limit } => write!(f, "tuple budget of {limit} exceeded"),
            BudgetReason::WalkLimit { limit } => write!(f, "walk budget of {limit} exceeded"),
            BudgetReason::FaultInjected(what) => write!(f, "injected fault: {what}"),
        }
    }
}

/// A budget violation: the reason plus how long the execution had run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Why the execution must stop.
    pub reason: BudgetReason,
    /// Elapsed wall-clock time since the budget was created.
    pub elapsed: Duration,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} after {:?}", self.reason, self.elapsed)
    }
}

impl std::error::Error for BudgetExceeded {}

/// A deterministic fault-injection plan (compiled in only with the
/// `fault-inject` feature; see DESIGN.md "Robustness & degradation").
///
/// Counters live in the shared budget, so e.g. "panic the 100th walk"
/// means the 100th walk *across all workers* sharing the budget.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Fail (with [`BudgetReason::FaultInjected`]) the Nth governed trie
    /// seek / recursion checkpoint, 1-based.
    pub fail_seek_at: Option<u64>,
    /// Panic on the Kth walk, 1-based — exercises `catch_unwind`
    /// isolation in workers and the supervisor.
    pub panic_walk_at: Option<u64>,
    /// Delay the given worker index by the given duration at startup —
    /// exercises straggler behavior under deadlines.
    pub delay_worker: Option<(usize, Duration)>,
}

#[cfg(feature = "fault-inject")]
#[derive(Debug, Default)]
struct FaultState {
    plan: FaultPlan,
    seeks: AtomicU64,
    walks: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    tuples: AtomicU64,
    tuple_limit: u64,
    walks: AtomicU64,
    walk_limit: u64,
    #[cfg(feature = "fault-inject")]
    faults: Option<FaultState>,
}

/// A shared execution budget: deadline, cancellation, resource counters.
///
/// Cloning is cheap (an `Arc`); all clones observe the same state, so one
/// budget can govern an exact engine, an online aggregator and a pool of
/// worker threads at once. The default ([`ExecBudget::unlimited`]) is a
/// no-allocation sentinel whose checks compile to almost nothing.
#[derive(Debug, Clone, Default)]
pub struct ExecBudget {
    inner: Option<Arc<Inner>>,
}

impl ExecBudget {
    /// A budget that never trips (and allocates nothing).
    pub fn unlimited() -> Self {
        ExecBudget { inner: None }
    }

    /// Start building a governed budget.
    pub fn builder() -> ExecBudgetBuilder {
        ExecBudgetBuilder::default()
    }

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(limit: Duration) -> Self {
        Self::builder().deadline(limit).build()
    }

    /// True if this is the unlimited sentinel.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// Elapsed time since the budget was created (zero for unlimited).
    pub fn elapsed(&self) -> Duration {
        self.inner.as_ref().map_or(Duration::ZERO, |i| i.start.elapsed())
    }

    /// Wall-clock remaining until the deadline (`None` when undeadlined).
    pub fn remaining(&self) -> Option<Duration> {
        let inner = self.inner.as_ref()?;
        let deadline = inner.deadline?;
        Some(deadline.saturating_duration_since(Instant::now()))
    }

    /// Cooperatively cancel every execution sharing this budget.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// Total tuples charged so far.
    pub fn tuples(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.tuples.load(Ordering::Relaxed))
    }

    /// Total walks charged so far.
    pub fn walks(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.walks.load(Ordering::Relaxed))
    }

    fn exceeded(&self, reason: BudgetReason) -> BudgetExceeded {
        BudgetExceeded { reason, elapsed: self.elapsed() }
    }

    /// Full checkpoint: cancellation, deadline, and counter limits.
    ///
    /// This consults the clock; hot loops should amortize it through a
    /// [`BudgetMeter`] rather than calling it per iteration.
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        let Some(inner) = &self.inner else { return Ok(()) };
        if inner.cancelled.load(Ordering::Acquire) {
            return Err(self.exceeded(BudgetReason::Cancelled));
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(self.exceeded(BudgetReason::DeadlineExpired));
            }
        }
        if inner.tuples.load(Ordering::Relaxed) > inner.tuple_limit {
            return Err(self.exceeded(BudgetReason::TupleLimit { limit: inner.tuple_limit }));
        }
        if inner.walks.load(Ordering::Relaxed) > inner.walk_limit {
            return Err(self.exceeded(BudgetReason::WalkLimit { limit: inner.walk_limit }));
        }
        Ok(())
    }

    /// Charge `n` intermediate tuples and fail if over the cap.
    pub fn charge_tuples(&self, n: u64) -> Result<(), BudgetExceeded> {
        let Some(inner) = &self.inner else { return Ok(()) };
        let total = inner.tuples.fetch_add(n, Ordering::Relaxed) + n;
        if total > inner.tuple_limit {
            return Err(self.exceeded(BudgetReason::TupleLimit { limit: inner.tuple_limit }));
        }
        Ok(())
    }

    /// Charge `n` random walks at once (one atomic add for a whole SoA
    /// batch) and return how many were admitted under the cap.
    ///
    /// `Ok(k)` with `k <= n` means the caller may start `k` walks;
    /// `Err(WalkLimit)` means the cap was already reached and none are
    /// admitted. The unadmitted remainder is refunded, so the counter only
    /// tracks admitted walks and a partial batch cannot trip
    /// [`ExecBudget::check`] for walks the cap allowed.
    pub fn charge_walks(&self, n: u64) -> Result<u64, BudgetExceeded> {
        let Some(inner) = &self.inner else { return Ok(n) };
        let prev = inner.walks.fetch_add(n, Ordering::Relaxed);
        let admitted = inner.walk_limit.saturating_sub(prev).min(n);
        if admitted < n {
            // Concurrent reservations are disjoint `[prev, prev + n)`
            // windows, so refunding this caller's own unadmitted tail
            // never gives back another caller's admitted slots.
            inner.walks.fetch_sub(n - admitted, Ordering::Relaxed);
        }
        if admitted == 0 {
            return Err(self.exceeded(BudgetReason::WalkLimit { limit: inner.walk_limit }));
        }
        Ok(admitted)
    }


    /// An amortizing checkpoint handle for one hot loop. The first tick
    /// performs a full check (so an already-exhausted budget is caught
    /// before any real work) and charges a full stride, then one check per
    /// [`BudgetMeter::STRIDE`]. A fresh meter therefore costs a clock read
    /// and a stride of tuples on its first tick: a hot loop reuses one
    /// meter across its items and must not build one per item.
    pub fn meter(&self) -> BudgetMeter {
        BudgetMeter { budget: self.clone(), ticks: BudgetMeter::STRIDE - 1 }
    }

    /// Fault hook — governed trie seek (no-op unless `fault-inject` is on
    /// and a plan with `fail_seek_at` is installed).
    #[inline]
    pub fn fault_seek(&self) -> Result<(), BudgetExceeded> {
        #[cfg(feature = "fault-inject")]
        {
            if let Some(faults) = self.inner.as_ref().and_then(|i| i.faults.as_ref()) {
                if let Some(n) = faults.plan.fail_seek_at {
                    let seen = faults.seeks.fetch_add(1, Ordering::Relaxed) + 1;
                    if seen == n {
                        return Err(
                            self.exceeded(BudgetReason::FaultInjected("trie seek failure"))
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Fault hook — start of a batch of `n` walks. Panics when the planned
    /// Kth walk falls inside the batch (no-op unless `fault-inject` is on).
    #[inline]
    pub fn fault_walks(&self, n: u64) {
        #[cfg(feature = "fault-inject")]
        {
            if let Some(faults) = self.inner.as_ref().and_then(|i| i.faults.as_ref()) {
                if let Some(k) = faults.plan.panic_walk_at {
                    let before = faults.walks.fetch_add(n, Ordering::Relaxed);
                    if before < k && k <= before + n {
                        panic!("fault-inject: panic on walk {k}");
                    }
                }
            }
        }
        #[cfg(not(feature = "fault-inject"))]
        let _ = n;
    }

    /// Fault hook — worker startup delay (no-op unless `fault-inject` is
    /// on and this worker index is planned for a delay).
    #[inline]
    pub fn fault_worker_delay(&self, worker: usize) {
        #[cfg(feature = "fault-inject")]
        {
            if let Some(faults) = self.inner.as_ref().and_then(|i| i.faults.as_ref()) {
                if let Some((w, d)) = faults.plan.delay_worker {
                    if w == worker {
                        std::thread::sleep(d);
                    }
                }
            }
        }
        #[cfg(not(feature = "fault-inject"))]
        let _ = worker;
    }
}

/// Builder for [`ExecBudget`].
#[derive(Debug, Default)]
pub struct ExecBudgetBuilder {
    deadline: Option<Duration>,
    tuple_limit: Option<u64>,
    walk_limit: Option<u64>,
    #[cfg(feature = "fault-inject")]
    faults: Option<FaultPlan>,
}

impl ExecBudgetBuilder {
    /// Set a wall-clock deadline relative to `build()`.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Cap intermediate tuples.
    pub fn tuple_limit(mut self, limit: u64) -> Self {
        self.tuple_limit = Some(limit);
        self
    }

    /// Cap random walks.
    pub fn walk_limit(mut self, limit: u64) -> Self {
        self.walk_limit = Some(limit);
        self
    }


    /// Attach a deterministic fault plan (`fault-inject` feature).
    #[cfg(feature = "fault-inject")]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Build the budget; the deadline clock starts now. A deadline too far
    /// away for `Instant` (e.g. `Duration::MAX`) means no deadline.
    pub fn build(self) -> ExecBudget {
        let start = Instant::now();
        ExecBudget {
            inner: Some(Arc::new(Inner {
                start,
                deadline: self.deadline.and_then(|d| start.checked_add(d)),
                cancelled: AtomicBool::new(false),
                tuples: AtomicU64::new(0),
                tuple_limit: self.tuple_limit.unwrap_or(u64::MAX),
                walks: AtomicU64::new(0),
                walk_limit: self.walk_limit.unwrap_or(u64::MAX),
                #[cfg(feature = "fault-inject")]
                faults: self.faults.map(|plan| FaultState {
                    plan,
                    seeks: AtomicU64::new(0),
                    walks: AtomicU64::new(0),
                }),
            })),
        }
    }
}

/// An amortizing checkpoint counter owned by one loop (not shared): calls
/// [`ExecBudget::check`] only every [`BudgetMeter::STRIDE`] ticks, keeping
/// the per-iteration cost to an increment and a branch.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    budget: ExecBudget,
    ticks: u32,
}

impl BudgetMeter {
    /// How many ticks between full checks. 512 iterations of even the
    /// tightest trie loop stay well under a tenth of a millisecond, so
    /// deadlines are honored with sub-millisecond slack.
    pub const STRIDE: u32 = 512;

    /// Cooperative checkpoint: cheap nearly always, a full
    /// [`ExecBudget::check`] every [`Self::STRIDE`] calls. Each stride also
    /// charges [`Self::STRIDE`] units to the budget's tuple counter, so a
    /// `tuple_limit` bounds total engine work to within one stride. The
    /// first tick of a fresh meter already completes a stride (see
    /// [`ExecBudget::meter`]), so a meter built per item charges at least
    /// [`Self::STRIDE`] tuples per item whatever work the item does. Also
    /// drives the `fail_seek_at` fault hook, which counts *ticks*, not
    /// strides.
    #[inline]
    pub fn tick(&mut self) -> Result<(), BudgetExceeded> {
        if self.budget.inner.is_none() {
            return Ok(());
        }
        self.budget.fault_seek()?;
        self.ticks += 1;
        if self.ticks >= Self::STRIDE {
            self.ticks = 0;
            self.budget.charge_tuples(u64::from(Self::STRIDE))?;
            self.budget.check()
        } else {
            Ok(())
        }
    }

    /// The underlying budget.
    pub fn budget(&self) -> &ExecBudget {
        &self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = ExecBudget::unlimited();
        assert!(b.is_unlimited());
        b.check().unwrap();
        b.charge_tuples(u64::MAX / 2).unwrap();
        b.charge_walks(1).unwrap();
        let mut m = b.meter();
        for _ in 0..10_000 {
            m.tick().unwrap();
        }
        // Cancel on unlimited is a no-op.
        b.cancel();
        b.check().unwrap();
    }

    #[test]
    fn deadline_trips() {
        let b = ExecBudget::with_deadline(Duration::from_millis(5));
        b.check().unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let err = b.check().unwrap_err();
        assert_eq!(err.reason, BudgetReason::DeadlineExpired);
        assert!(err.elapsed >= Duration::from_millis(5));
    }

    #[test]
    fn unrepresentable_deadline_means_none() {
        let b = ExecBudget::with_deadline(Duration::MAX);
        b.check().unwrap();
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let b = ExecBudget::builder().build();
        let c = b.clone();
        c.check().unwrap();
        b.cancel();
        assert_eq!(c.check().unwrap_err().reason, BudgetReason::Cancelled);
    }

    #[test]
    fn tuple_limit_trips_exactly() {
        let b = ExecBudget::builder().tuple_limit(100).build();
        b.charge_tuples(60).unwrap();
        b.charge_tuples(40).unwrap(); // exactly at the cap: fine
        let err = b.charge_tuples(1).unwrap_err();
        assert_eq!(err.reason, BudgetReason::TupleLimit { limit: 100 });
    }

    #[test]
    fn walk_limit_trips() {
        let b = ExecBudget::builder().walk_limit(2).build();
        b.charge_walks(1).unwrap();
        b.charge_walks(1).unwrap();
        assert_eq!(
            b.charge_walks(1).unwrap_err().reason,
            BudgetReason::WalkLimit { limit: 2 }
        );
    }

    #[test]
    fn charge_walks_admits_partial_batches() {
        let b = ExecBudget::builder().walk_limit(10).build();
        assert_eq!(b.charge_walks(4).unwrap(), 4);
        assert_eq!(b.charge_walks(4).unwrap(), 4);
        // Only two slots left under the cap.
        assert_eq!(b.charge_walks(4).unwrap(), 2);
        assert_eq!(
            b.charge_walks(4).unwrap_err().reason,
            BudgetReason::WalkLimit { limit: 10 }
        );
        // Unlimited admits everything.
        assert_eq!(ExecBudget::unlimited().charge_walks(7).unwrap(), 7);
        // One walk at a time: admitted up to the cap, then refused.
        let a = ExecBudget::builder().walk_limit(1).build();
        assert_eq!(a.charge_walks(1).unwrap(), 1);
        assert!(a.charge_walks(1).is_err());
    }

    #[test]
    fn meter_amortizes_but_still_trips() {
        let b = ExecBudget::builder().build();
        let mut m = b.meter();
        for _ in 0..BudgetMeter::STRIDE {
            m.tick().unwrap();
        }
        b.cancel();
        let mut tripped = false;
        for _ in 0..=BudgetMeter::STRIDE {
            if m.tick().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "meter must observe cancellation within one stride");
    }

    #[test]
    fn display_formats() {
        let b = ExecBudget::builder().tuple_limit(5).build();
        b.charge_tuples(9).unwrap_err();
        let e = BudgetExceeded {
            reason: BudgetReason::TupleLimit { limit: 5 },
            elapsed: Duration::from_millis(3),
        };
        assert!(e.to_string().contains("tuple budget of 5"));
        assert!(BudgetReason::DeadlineExpired.to_string().contains("deadline"));
        assert!(BudgetReason::Cancelled.to_string().contains("cancelled"));
        assert!(BudgetReason::FaultInjected("x").to_string().contains("x"));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_seek_fires_once_at_nth() {
        let b = ExecBudget::builder()
            .faults(FaultPlan { fail_seek_at: Some(3), ..FaultPlan::default() })
            .build();
        b.fault_seek().unwrap();
        b.fault_seek().unwrap();
        let err = b.fault_seek().unwrap_err();
        assert!(matches!(err.reason, BudgetReason::FaultInjected(_)));
        // Only the Nth fires; later seeks pass.
        b.fault_seek().unwrap();
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_walks_panics_on_the_batch_holding_the_kth() {
        let b = ExecBudget::builder()
            .faults(FaultPlan { panic_walk_at: Some(2), ..FaultPlan::default() })
            .build();
        b.fault_walks(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.fault_walks(1)));
        assert!(r.is_err(), "second walk must panic");
        b.fault_walks(1); // and later walks are fine
        let b = ExecBudget::builder()
            .faults(FaultPlan { panic_walk_at: Some(300), ..FaultPlan::default() })
            .build();
        b.fault_walks(256);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.fault_walks(256)));
        assert!(r.is_err(), "walk 300 starts in the second batch of 256");
        b.fault_walks(256);
    }
}
