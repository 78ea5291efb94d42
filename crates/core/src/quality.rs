//! Online CI-honesty audit: background coverage checks of estimated charts.
//!
//! The estimator reports 95% confidence intervals, but nothing in the
//! serving path ever checks them against reality. The [`CoverageAuditor`]
//! closes that loop: a sample of completed estimated charts is re-run
//! **exactly** (partitioned Cached Trie Join under a small deadline) on the
//! same pinned epoch the estimate saw, and each audited group's interval
//! either contains the exact count or it does not. The hit fraction feeds
//! the `obs.quality.coverage_bp` gauge, which `repro quality` compares
//! against the nominal level.
//!
//! Background work on the shared [`WorkerPool`] follows four rules:
//!
//! - audits are *detached* pool jobs, never run on the serving thread;
//! - at most one audit is in flight — an offer that arrives while one is
//!   running is dropped and counted (`obs.quality.audit_skipped`), so a
//!   backed-up pool never accumulates a queue of expensive exact jobs;
//! - the job wraps its own [`catch_unwind`]: the pool already isolates
//!   panics, but the auditor must additionally *count* its failures
//!   (`obs.quality.audit_failures`) — a panicking auditor that silently
//!   stops auditing would freeze the coverage gauge at a stale healthy
//!   value;
//! - the exact recomputation runs under a bounded [`ExecBudget`]; a chart
//!   too expensive to verify within the deadline is skipped, not fought.
//!
//! The audit pins the epoch **by id**: if the manager has moved past the
//! epoch the estimate was computed on (snapshots are not retained per
//! epoch), the audit is skipped rather than comparing an estimate against
//! a graph it never saw. A merge landing mid-audit is harmless — the job
//! holds an [`crate::EpochGuard`] whose snapshot is immutable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use kgoa_engine::{ExecBudget, GroupedEstimates};
use kgoa_query::ExplorationQuery;

use crate::audit::coverage_hits;
use crate::epoch::EpochManager;
use crate::partitioned::{partitioned_count, ExactAlgo};
use crate::pool::WorkerPool;

/// Sizing and sampling for the [`CoverageAuditor`].
#[derive(Debug, Clone, Copy)]
pub struct AuditorConfig {
    /// Audit one in `sample_every` offered charts (1 = every chart).
    pub sample_every: u64,
    /// Deadline for one exact recomputation; a chart that cannot be
    /// verified within it is skipped.
    pub budget: Duration,
    /// Partitions for the exact path (1 = sequential CTJ).
    pub exact_parts: usize,
}

impl Default for AuditorConfig {
    fn default() -> Self {
        AuditorConfig { sample_every: 4, budget: Duration::from_millis(50), exact_parts: 1 }
    }
}

/// Background coverage auditor bound to one [`EpochManager`].
pub struct CoverageAuditor {
    mgr: Arc<EpochManager>,
    config: AuditorConfig,
    offered: AtomicU64,
    in_flight: AtomicBool,
    #[cfg(feature = "fault-inject")]
    panic_next: AtomicBool,
}

/// Clears the in-flight flag when the audit job ends for any reason —
/// including a panic — so one bad audit cannot silence auditing forever.
struct InFlightGuard(Arc<CoverageAuditor>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.in_flight.store(false, Ordering::Release);
    }
}

static AUDITOR: Mutex<Option<Arc<CoverageAuditor>>> = Mutex::new(None);

/// Install the process-wide auditor (replacing any previous one) and
/// return it. Charts offered via [`offer_chart`] are audited against
/// `mgr`'s epochs while the quality plane is armed.
pub fn install_auditor(mgr: Arc<EpochManager>, config: AuditorConfig) -> Arc<CoverageAuditor> {
    let auditor = Arc::new(CoverageAuditor {
        mgr,
        config: AuditorConfig { sample_every: config.sample_every.max(1), ..config },
        offered: AtomicU64::new(0),
        in_flight: AtomicBool::new(false),
        #[cfg(feature = "fault-inject")]
        panic_next: AtomicBool::new(false),
    });
    *AUDITOR.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&auditor));
    auditor
}

/// Remove the installed auditor. An audit already on the pool finishes
/// (it holds its own [`Arc`]); subsequent offers are ignored.
pub fn uninstall_auditor() {
    *AUDITOR.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Offer a completed estimated chart for auditing. Near-free when the
/// quality plane is disarmed or no auditor is installed; otherwise the
/// auditor samples, guards, and schedules — never computing on the
/// caller's thread.
pub fn offer_chart(query: &ExplorationQuery, estimates: &GroupedEstimates, epoch: u64) {
    if !kgoa_obs::quality::armed() {
        return;
    }
    let auditor = {
        let guard = AUDITOR.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(a) => Arc::clone(a),
            None => return,
        }
    };
    auditor.offer(query, estimates, epoch);
}

impl CoverageAuditor {
    /// Arm the next scheduled audit job to panic (deterministic pool
    /// panic-isolation tests).
    #[cfg(feature = "fault-inject")]
    pub fn arm_audit_panic(&self) {
        self.panic_next.store(true, Ordering::Release);
    }

    /// Total charts offered so far (sampled or not).
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// True when no audit job is in flight — every offered chart so far
    /// has been audited, skipped, or dropped. Test/gate helper for
    /// waiting out the background job without sleeping blind.
    pub fn idle(&self) -> bool {
        !self.in_flight.load(Ordering::Acquire)
    }

    fn offer(self: Arc<Self>, query: &ExplorationQuery, estimates: &GroupedEstimates, epoch: u64) {
        let n = self.offered.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.config.sample_every) {
            return;
        }
        if self.in_flight.swap(true, Ordering::AcqRel) {
            kgoa_obs::metrics::QUALITY_AUDIT_SKIPPED.inc();
            return;
        }
        let clear = InFlightGuard(Arc::clone(&self));
        let query = query.clone();
        let estimates = estimates.clone();
        WorkerPool::global().spawn_detached(move || {
            let _clear = clear;
            self.run_audit(&query, &estimates, epoch);
        });
    }

    fn run_audit(&self, query: &ExplorationQuery, estimates: &GroupedEstimates, epoch: u64) {
        let pinned = self.mgr.pin();
        if pinned.epoch() != epoch {
            // The graph moved on; per-epoch snapshots are not retained, so
            // the estimate can no longer be checked against what it saw.
            kgoa_obs::metrics::QUALITY_AUDIT_SKIPPED.inc();
            return;
        }
        #[cfg(feature = "fault-inject")]
        let injected = self.panic_next.swap(false, Ordering::AcqRel);
        #[cfg(not(feature = "fault-inject"))]
        let injected = false;
        let budget = ExecBudget::with_deadline(self.config.budget);
        let parts = self.config.exact_parts;
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if injected {
                panic!("injected audit panic");
            }
            partitioned_count(&pinned, query, ExactAlgo::Ctj, parts, &budget)
        }));
        kgoa_obs::metrics::QUALITY_AUDIT_NS.record(start.elapsed().as_nanos() as u64);
        match outcome {
            Ok(Ok(truth)) => {
                let (hits, audited) = coverage_hits(&truth, estimates);
                kgoa_obs::quality::record_audit(
                    hits,
                    audited,
                    &format!("epoch={epoch} patterns={}", query.patterns().len()),
                );
            }
            Ok(Err(_)) => {
                // Budget tripped: too expensive to verify within the
                // deadline. Not a failure of the estimator.
                kgoa_obs::metrics::QUALITY_AUDIT_SKIPPED.inc();
            }
            Err(_) => {
                kgoa_obs::metrics::QUALITY_AUDIT_FAILURES.inc();
                kgoa_obs::events::emit_with(
                    kgoa_obs::Level::Error,
                    "quality",
                    "coverage audit panicked",
                    vec![("epoch", epoch.to_string())],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditJoin, AuditJoinConfig};
    use crate::epoch::EpochConfig;
    use crate::online::{run_walks, OnlineAggregator};
    use kgoa_query::{TriplePattern, Var};
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    fn graph() -> (kgoa_index::IndexedGraph, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let classes: Vec<TermId> =
            (0..3).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
        for si in 0..12u32 {
            let s = b.dict_mut().intern_iri(format!("u:s{si}"));
            let o = b.dict_mut().intern_iri(format!("u:o{}", si % 4));
            b.add(Triple::new(s, p, o));
            b.add(Triple::new(o, q, classes[(si % 3) as usize]));
        }
        (kgoa_index::IndexedGraph::build(b.build()), p, q)
    }

    fn query(p: TermId, q: TermId) -> ExplorationQuery {
        ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(2),
            Var(1),
            false,
        )
        .unwrap()
    }

    fn estimates_for(ig: &kgoa_index::IndexedGraph, q: &ExplorationQuery) -> GroupedEstimates {
        let mut aj = AuditJoin::new(ig, q, AuditJoinConfig::default()).unwrap();
        run_walks(&mut aj, 2_000);
        aj.estimates()
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn armed_setup() -> (Arc<EpochManager>, ExplorationQuery, GroupedEstimates) {
        kgoa_obs::reset();
        kgoa_obs::set_enabled(true);
        kgoa_obs::quality::arm(kgoa_obs::QualityPolicy::default());
        let (ig, p, q) = graph();
        let query = query(p, q);
        let estimates = estimates_for(&ig, &query);
        let mgr = EpochManager::new(ig, EpochConfig::default());
        (mgr, query, estimates)
    }

    fn teardown() {
        uninstall_auditor();
        kgoa_obs::quality::disarm();
        kgoa_obs::set_enabled(false);
        kgoa_obs::reset();
    }

    #[test]
    fn audits_feed_the_coverage_gauge() {
        let _guard = kgoa_obs::metrics::test_lock();
        let (mgr, query, estimates) = armed_setup();
        install_auditor(
            Arc::clone(&mgr),
            AuditorConfig { sample_every: 1, ..AuditorConfig::default() },
        );
        offer_chart(&query, &estimates, mgr.epoch());
        wait_until("first audit", || kgoa_obs::quality::coverage().is_some());
        let (covered, audited) = kgoa_obs::quality::coverage().unwrap();
        assert!(audited > 0);
        assert!(covered <= audited);
        assert!(kgoa_obs::metrics::QUALITY_COVERAGE_BP.get() > 0);
        teardown();
    }

    #[test]
    fn sampling_and_disarmed_offers_do_nothing() {
        let _guard = kgoa_obs::metrics::test_lock();
        let (mgr, query, estimates) = armed_setup();
        let auditor = install_auditor(
            Arc::clone(&mgr),
            AuditorConfig { sample_every: 2, ..AuditorConfig::default() },
        );
        kgoa_obs::quality::disarm();
        offer_chart(&query, &estimates, mgr.epoch());
        assert_eq!(auditor.offered(), 0, "disarmed offers must not reach the auditor");
        kgoa_obs::quality::arm(kgoa_obs::QualityPolicy::default());
        for _ in 0..4 {
            offer_chart(&query, &estimates, mgr.epoch());
            wait_until("audit drained", || !auditor.in_flight.load(Ordering::Acquire));
        }
        assert_eq!(auditor.offered(), 4);
        wait_until("sampled audits", || kgoa_obs::metrics::QUALITY_AUDITS.get() == 2);
        teardown();
    }

    #[test]
    fn stale_epoch_offers_are_skipped() {
        let _guard = kgoa_obs::metrics::test_lock();
        let (mgr, query, estimates) = armed_setup();
        install_auditor(
            Arc::clone(&mgr),
            AuditorConfig { sample_every: 1, ..AuditorConfig::default() },
        );
        let stale = mgr.epoch();
        // Term ids 0..2 are already interned by the seed graph.
        mgr.append(
            &kgoa_index::UpdateBatch::inserting(vec![Triple::new(
                TermId(0),
                TermId(1),
                TermId(2),
            )]),
            &ExecBudget::unlimited(),
        )
        .unwrap();
        assert_ne!(mgr.epoch(), stale);
        offer_chart(&query, &estimates, stale);
        wait_until("stale skip", || kgoa_obs::metrics::QUALITY_AUDIT_SKIPPED.get() >= 1);
        assert!(kgoa_obs::quality::coverage().is_none(), "stale offer must not audit");
        teardown();
    }

    /// Satellite: an auditor job that panics is isolated — the pool
    /// survives, the failure is counted, and the *next* audit completes.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn auditor_panic_is_isolated_and_counted() {
        let _guard = kgoa_obs::metrics::test_lock();
        let (mgr, query, estimates) = armed_setup();
        let auditor = install_auditor(
            Arc::clone(&mgr),
            AuditorConfig { sample_every: 1, ..AuditorConfig::default() },
        );
        auditor.arm_audit_panic();
        offer_chart(&query, &estimates, mgr.epoch());
        wait_until("injected panic", || kgoa_obs::metrics::QUALITY_AUDIT_FAILURES.get() == 1);
        // The pool survived and the in-flight latch was released by the
        // guard: the next offer must run to completion.
        offer_chart(&query, &estimates, mgr.epoch());
        wait_until("post-panic audit", || kgoa_obs::quality::coverage().is_some());
        assert_eq!(kgoa_obs::metrics::QUALITY_AUDIT_FAILURES.get(), 1);
        teardown();
    }

    /// Satellite: an epoch merge landing mid-audit never blocks the
    /// writer or poisons the auditor — the audit holds an immutable
    /// pinned snapshot, and later audits on the merged epoch succeed.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn merge_during_audits_never_blocks_or_poisons() {
        let _guard = kgoa_obs::metrics::test_lock();
        let (mgr, query, estimates) = armed_setup();
        install_auditor(
            Arc::clone(&mgr),
            AuditorConfig { sample_every: 1, ..AuditorConfig::default() },
        );
        offer_chart(&query, &estimates, mgr.epoch());
        // Race a write + merge against the in-flight audit.
        mgr.append(
            &kgoa_index::UpdateBatch::inserting(vec![Triple::new(
                TermId(0),
                TermId(1),
                TermId(2),
            )]),
            &ExecBudget::unlimited(),
        )
        .unwrap();
        mgr.merge_now();
        mgr.wait_merged();
        // Whatever the race decided (audit completed on its pinned epoch,
        // or was skipped as stale), the auditor must still work on the
        // merged epoch.
        let fresh = estimates_for(&mgr.pin(), &query);
        let epoch = mgr.epoch();
        wait_until("auditor drained", || {
            offer_chart(&query, &fresh, epoch);
            kgoa_obs::quality::coverage().is_some()
        });
        teardown();
    }
}
