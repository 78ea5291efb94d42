//! The resource-governed execution supervisor: exact → approximate
//! graceful degradation under a deadline.
//!
//! Interactive exploration promises an answer within a human latency
//! budget. The supervisor delivers on that promise with a *degradation
//! ladder*:
//!
//! 1. **Exact** — Cached Trie Join under a fraction of the deadline
//!    (and an optional work cap). If it finishes, the chart is exact.
//! 2. **Audit Join** — on any exact failure (budget trip, engine error,
//!    or even a panic, which is caught and isolated) the remaining budget
//!    goes to Audit Join, whose current estimates with confidence
//!    intervals are returned together with a [`Degraded`] provenance
//!    record saying why, after how long, and over how many walks.
//! 3. **Wander Join** — if Audit Join itself fails (e.g. its suffix
//!    estimator hits a pathological plan, or a fault-injection test
//!    panics it), plain Wander Join runs on a clean budget.
//! 4. **Error** — only when every rung fails does the caller see
//!    [`SupervisorError`]: an empty result with a typed reason, never a
//!    hang and never a poisoned partial answer.
//!
//! Every rung runs inside `catch_unwind`, so a panic anywhere in the
//! engine stack degrades instead of crashing the session. The ladder may
//! overshoot the deadline by a small minimum slice
//! ([`SupervisorConfig::MIN_DEGRADED_SLICE`]) so that degradation always
//! has time to produce *some* samples — an estimate a few milliseconds
//! late beats an empty chart.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use kgoa_engine::{
    BudgetReason, CountEngine, CtjEngine, EngineError, ExecBudget, ExecBudgetBuilder,
    GroupedCounts, GroupedEstimates,
};
use kgoa_index::IndexedGraph;
use kgoa_query::{ExplorationQuery, QueryError};

use crate::audit::{AuditJoin, AuditJoinConfig};
use crate::online::{run_governed, OnlineAggregator};
use crate::wander::WanderJoin;

/// Configuration for a supervised query execution.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Total wall-clock budget for the answer.
    pub deadline: Duration,
    /// Fraction of the deadline granted to the exact attempt; the rest is
    /// reserved for online aggregation. `0.0` skips straight to
    /// degradation (useful when the caller already knows the query is too
    /// expensive to answer exactly).
    pub exact_fraction: f64,
    /// Optional work cap (budget-meter ticks ≈ enumerated rows) for the
    /// exact attempt, independent of the deadline.
    pub exact_work_limit: Option<u64>,
    /// Shed the exact rung entirely and go straight to online estimates.
    /// Set from [`crate::EpochManager::under_pressure`]: when a sustained
    /// ingest stream has outgrown the background merge, the exact rung's
    /// full-range scans over a large delta overlay would burn the whole
    /// deadline, so the ladder starts at Audit Join instead of blocking
    /// writers (or readers) on a merge.
    pub ingest_pressure: bool,
    /// Audit Join configuration for the degraded path (the seed also
    /// derives the Wander Join fallback's seed).
    pub audit: AuditJoinConfig,
    /// Deterministic fault plan applied to the exact and Audit Join rungs
    /// (the Wander Join rung always runs on a clean budget, so the ladder
    /// has a fault-free last resort).
    #[cfg(feature = "fault-inject")]
    pub faults: Option<kgoa_engine::FaultPlan>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: Duration::from_secs(1),
            exact_fraction: 0.5,
            exact_work_limit: None,
            ingest_pressure: false,
            audit: AuditJoinConfig::default(),
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }
}

impl SupervisorConfig {
    /// Minimum slice granted to a degraded rung even when the earlier
    /// rungs consumed the whole deadline.
    pub const MIN_DEGRADED_SLICE: Duration = Duration::from_millis(5);

    /// A config with the given deadline and defaults otherwise.
    pub fn with_deadline(deadline: Duration) -> Self {
        SupervisorConfig { deadline, ..SupervisorConfig::default() }
    }

    fn budget_builder(&self) -> ExecBudgetBuilder {
        let b = ExecBudget::builder();
        #[cfg(feature = "fault-inject")]
        let b = match self.faults {
            Some(plan) => b.faults(plan),
            None => b,
        };
        b
    }
}

/// Why the supervisor abandoned the exact computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// A budget checkpoint tripped (deadline, cancellation, work cap, or
    /// an injected fault).
    Budget(BudgetReason),
    /// The exact engine returned a non-budget error (described).
    ExactFailed(String),
    /// The exact engine panicked; the panic was isolated.
    ExactPanicked,
    /// The exact rung was shed before running: the caller reported
    /// sustained ingest pressure (delta overlay outgrew the background
    /// merge), so the deadline went straight to online estimates.
    IngestPressure,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::Budget(r) => write!(f, "exact attempt stopped: {r}"),
            DegradeReason::ExactFailed(e) => write!(f, "exact attempt failed: {e}"),
            DegradeReason::ExactPanicked => write!(f, "exact attempt panicked"),
            DegradeReason::IngestPressure => {
                write!(f, "exact rung shed under ingest pressure")
            }
        }
    }
}

/// Provenance of a degraded answer: why exact was abandoned, how long the
/// whole execution took, and how many walks back the estimates.
#[derive(Debug, Clone)]
pub struct Degraded {
    /// Why the exact computation was abandoned.
    pub reason: DegradeReason,
    /// Total wall-clock time when the degraded answer was produced.
    pub elapsed: Duration,
    /// Number of random walks backing the estimates.
    pub walks: u64,
    /// Which estimator produced the answer: `"aj"` or `"wj"`.
    pub estimator: &'static str,
}

/// A supervised answer: exact if the budget allowed, estimates with
/// provenance otherwise.
#[derive(Debug, Clone)]
pub enum SupervisedResult {
    /// The exact answer, computed within the deadline.
    Exact {
        /// Exact per-group counts.
        counts: GroupedCounts,
        /// Wall-clock time taken.
        elapsed: Duration,
    },
    /// A degraded answer: online-aggregation estimates with confidence
    /// intervals, plus the provenance of the degradation.
    Degraded {
        /// Current per-group estimates and confidence intervals.
        estimates: GroupedEstimates,
        /// Why/when/how the answer was degraded.
        provenance: Degraded,
    },
}

impl SupervisedResult {
    /// The degradation provenance, if any.
    pub fn provenance(&self) -> Option<&Degraded> {
        match self {
            SupervisedResult::Degraded { provenance, .. } => Some(provenance),
            SupervisedResult::Exact { .. } => None,
        }
    }
}

/// Every rung of the ladder failed; the result is empty-with-error.
#[derive(Debug, Clone)]
pub enum SupervisorError {
    /// The query itself is invalid — no rung can run it.
    Query(QueryError),
    /// Exact, Audit Join and Wander Join all failed (the ladder's floor).
    Exhausted {
        /// Why the exact computation failed first.
        reason: DegradeReason,
        /// Total wall-clock time spent before giving up.
        elapsed: Duration,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Query(e) => write!(f, "query error: {e}"),
            SupervisorError::Exhausted { reason, elapsed } => {
                write!(f, "every execution rung failed after {elapsed:?} ({reason})")
            }
        }
    }
}

impl std::error::Error for SupervisorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SupervisorError::Query(e) => Some(e),
            SupervisorError::Exhausted { .. } => None,
        }
    }
}

impl From<QueryError> for SupervisorError {
    fn from(e: QueryError) -> Self {
        SupervisorError::Query(e)
    }
}

/// Run a query under the supervisor's degradation ladder (module docs).
pub fn supervise(
    ig: &IndexedGraph,
    query: &ExplorationQuery,
    config: &SupervisorConfig,
) -> Result<SupervisedResult, SupervisorError> {
    let _span = kgoa_obs::profile::span("supervisor.supervise");
    let start = Instant::now();

    // Rung 1: exact CTJ under its slice of the deadline — shed outright
    // when the caller reports ingest pressure (a large delta overlay makes
    // the exact scans pointless; the whole deadline goes to estimates).
    let reason = 'exact: {
        if config.ingest_pressure {
            break 'exact DegradeReason::IngestPressure;
        }
        // A NaN fraction grants no exact slice; a slice past `Duration::MAX`
        // saturates there, which the budget reads as "no deadline".
        let fraction = match config.exact_fraction {
            f if f.is_nan() => 0.0,
            f => f.clamp(0.0, 1.0),
        };
        let exact_slice = Duration::try_from_secs_f64(config.deadline.as_secs_f64() * fraction)
            .unwrap_or(Duration::MAX);
        let mut builder = config.budget_builder().deadline(exact_slice);
        if let Some(limit) = config.exact_work_limit {
            builder = builder.tuple_limit(limit);
        }
        let exact_budget = builder.build();
        let exact_span = kgoa_obs::profile::span("supervisor.rung.exact");
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            CtjEngine.evaluate_governed(ig, query, &exact_budget)
        }));
        drop(exact_span);
        match attempt {
            Ok(Ok(counts)) => {
                kgoa_obs::events::emit_with(
                    kgoa_obs::Level::Info,
                    "supervisor",
                    "served exact",
                    vec![
                        ("rung", "exact".into()),
                        ("elapsed_us", start.elapsed().as_micros().to_string()),
                    ],
                );
                return Ok(SupervisedResult::Exact { counts, elapsed: start.elapsed() });
            }
            Ok(Err(EngineError::BudgetExceeded(b))) => DegradeReason::Budget(b.reason),
            Ok(Err(EngineError::Query(e))) => return Err(SupervisorError::Query(e)),
            Ok(Err(e)) => DegradeReason::ExactFailed(e.to_string()),
            Err(_) => DegradeReason::ExactPanicked,
        }
    };
    kgoa_obs::events::emit_with(
        kgoa_obs::Level::Info,
        "supervisor",
        "exact rung abandoned",
        vec![("reason", reason.to_string())],
    );

    // Rung 2: Audit Join on the remaining budget (fault plan still armed,
    // so injected walk panics exercise this rung's isolation too).
    let slice = remaining_slice(config, start);
    let aj_budget = config.budget_builder().deadline(slice).build();
    let aj = || AuditJoin::new(ig, query, config.audit);
    if let Some(served) = degraded_rung("audit_join", &reason, start, &aj_budget, aj) {
        return served;
    }
    kgoa_obs::events::warn(
        "supervisor",
        "audit join panicked under supervision; falling back to wander join",
    );

    // Rung 3: Wander Join on a clean budget (no fault plan) — the ladder's
    // fault-free last resort before empty-with-error.
    let slice = remaining_slice(config, start);
    let wj_budget = ExecBudget::builder().deadline(slice).build();
    let wj_seed = config.audit.seed ^ 0x57AB_1E5E_ED5E_ED00;
    let wj = || WanderJoin::new(ig, query, wj_seed);
    if let Some(served) = degraded_rung("wander_join", &reason, start, &wj_budget, wj) {
        return served;
    }
    kgoa_obs::events::emit_with(
        kgoa_obs::Level::Error,
        "supervisor",
        "every execution rung failed",
        vec![
            ("rung", "exhausted".into()),
            ("reason", reason.to_string()),
            ("elapsed_us", start.elapsed().as_micros().to_string()),
        ],
    );
    Err(SupervisorError::Exhausted { reason, elapsed: start.elapsed() })
}

/// A degraded rung: build an online aggregator and run it on `budget`
/// inside `catch_unwind`, under the profile span `supervisor.rung.{rung}`.
/// `None` means it panicked and the ladder goes on; otherwise the rung
/// served its estimates (or found the query invalid).
fn degraded_rung<A: OnlineAggregator>(
    rung: &'static str,
    reason: &DegradeReason,
    start: Instant,
    budget: &ExecBudget,
    build: impl FnOnce() -> Result<A, QueryError>,
) -> Option<Result<SupervisedResult, SupervisorError>> {
    let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<_, QueryError> {
        let _prof = kgoa_obs::profile::span(format!("supervisor.rung.{rung}"));
        let mut agg = build()?;
        run_governed(&mut agg, budget);
        agg.profile_emit();
        Ok((agg.estimates(), agg.stats().walks, agg.name()))
    }));
    let (estimates, walks, estimator) = match attempt {
        Ok(Ok(done)) => done,
        Ok(Err(e)) => return Some(Err(SupervisorError::Query(e))),
        Err(_) => return None,
    };
    kgoa_obs::events::emit_with(
        kgoa_obs::Level::Info,
        "supervisor",
        "served degraded estimates",
        vec![
            ("rung", rung.into()),
            ("reason", reason.to_string()),
            ("walks", walks.to_string()),
            ("elapsed_us", start.elapsed().as_micros().to_string()),
        ],
    );
    let elapsed = start.elapsed();
    let provenance = Degraded { reason: reason.clone(), elapsed, walks, estimator };
    Some(Ok(SupervisedResult::Degraded { estimates, provenance }))
}

/// The wall-clock slice left for a degraded rung, floored at
/// [`SupervisorConfig::MIN_DEGRADED_SLICE`].
fn remaining_slice(config: &SupervisorConfig, start: Instant) -> Duration {
    config
        .deadline
        .saturating_sub(start.elapsed())
        .max(SupervisorConfig::MIN_DEGRADED_SLICE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_engine::YannakakisEngine;
    use kgoa_query::{TriplePattern, Var};
    use kgoa_rdf::{GraphBuilder, TermId, Triple};

    /// A two-hop graph big enough for estimates to mean something.
    fn graph() -> (IndexedGraph, TermId, TermId) {
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let classes: Vec<TermId> =
            (0..3).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
        for si in 0..40u32 {
            let s = b.dict_mut().intern_iri(format!("u:s{si}"));
            for oi in 0..5u32 {
                let o = b.dict_mut().intern_iri(format!("u:o{}", (si + oi) % 15));
                b.add(Triple::new(s, p, o));
            }
        }
        for oi in 0..15u32 {
            let o = b.dict_mut().intern_iri(format!("u:o{oi}"));
            b.add(Triple::new(o, q, classes[(oi % 3) as usize]));
        }
        (IndexedGraph::build(b.build()), p, q)
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

    #[test]
    fn generous_deadline_returns_exact() {
        let (ig, p, q) = graph();
        let query = query(p, q);
        let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
        let out = supervise(
            &ig,
            &query,
            &SupervisorConfig::with_deadline(Duration::from_secs(30)),
        )
        .unwrap();
        match out {
            SupervisedResult::Exact { counts, .. } => assert_eq!(counts, exact),
            other => panic!("expected exact, got {other:?}"),
        }
    }

    #[test]
    fn extreme_deadline_and_fraction_do_not_panic() {
        // `Duration::MAX` is a caller's "no deadline": its exact slice
        // overflows `Instant`, which must mean no deadline, not a panic; a
        // NaN fraction grants no exact slice.
        let (ig, p, q) = graph();
        let query = query(p, q);
        let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
        for (deadline, fraction, want_exact) in [
            (Duration::MAX, 0.5, true),
            (Duration::MAX, 1.0, true),
            (Duration::from_millis(50), f64::NAN, false),
        ] {
            let config =
                SupervisorConfig { deadline, exact_fraction: fraction, ..Default::default() };
            match supervise(&ig, &query, &config).unwrap() {
                SupervisedResult::Exact { counts, .. } if want_exact => assert_eq!(counts, exact),
                SupervisedResult::Degraded { provenance, .. } if !want_exact => {
                    assert_eq!(provenance.estimator, "aj", "{fraction}: {provenance:?}");
                }
                other => panic!("{deadline:?} × {fraction}: got {other:?}"),
            }
        }
    }

    #[test]
    fn exhausted_exact_slice_degrades_to_audit_join() {
        let (ig, p, q) = graph();
        let query = query(p, q);
        let exact = YannakakisEngine.evaluate(&ig, &query).unwrap();
        // Zero exact slice: the first checkpoint trips and the supervisor
        // spends the whole deadline on Audit Join.
        let config = SupervisorConfig {
            deadline: Duration::from_millis(50),
            exact_fraction: 0.0,
            ..SupervisorConfig::default()
        };
        let out = supervise(&ig, &query, &config).unwrap();
        let SupervisedResult::Degraded { estimates, provenance } = out else {
            panic!("expected degradation");
        };
        assert_eq!(provenance.estimator, "aj");
        assert_eq!(provenance.reason, DegradeReason::Budget(BudgetReason::DeadlineExpired));
        assert!(provenance.walks > 0, "no walks in {provenance:?}");
        assert!(!estimates.is_empty());
        assert!(!estimates.half_widths.is_empty(), "estimates must carry CIs");
        for (g, c) in exact.iter() {
            let rel = (estimates.get(g) - c as f64).abs() / c as f64;
            assert!(rel < 0.5, "group {g}: est {} vs exact {c}", estimates.get(g));
            assert!(estimates.half_width(g).is_finite());
        }
    }

    #[test]
    fn work_limit_degrades_with_tuple_reason() {
        let (ig, p, q) = graph();
        let query = query(p, q);
        let config = SupervisorConfig {
            deadline: Duration::from_millis(50),
            exact_work_limit: Some(0),
            ..SupervisorConfig::default()
        };
        let out = supervise(&ig, &query, &config).unwrap();
        let provenance = out.provenance().expect("degraded").clone();
        assert_eq!(
            provenance.reason,
            DegradeReason::Budget(BudgetReason::TupleLimit { limit: 0 })
        );
    }

    #[test]
    fn ingest_pressure_sheds_exact_rung() {
        let (ig, p, q) = graph();
        let query = query(p, q);
        let config = SupervisorConfig {
            deadline: Duration::from_millis(50),
            ingest_pressure: true,
            ..SupervisorConfig::default()
        };
        let out = supervise(&ig, &query, &config).unwrap();
        let provenance = out.provenance().expect("pressure must degrade");
        assert_eq!(provenance.reason, DegradeReason::IngestPressure);
        assert_eq!(provenance.estimator, "aj");
        assert!(provenance.walks > 0);
    }

    #[test]
    fn invalid_query_is_a_query_error() {
        let (ig, _, _) = graph();
        let query = ExplorationQuery::new(
            vec![TriplePattern::new(Var(0), Var(1), Var(2))],
            Var(0),
            Var(2),
            false,
        )
        .unwrap();
        // A valid query: supervise fine. Build an invalid one via empty
        // patterns is impossible through the constructor, so just check the
        // valid one works end to end.
        assert!(supervise(
            &ig,
            &query,
            &SupervisorConfig::with_deadline(Duration::from_secs(5))
        )
        .is_ok());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_seek_fault_degrades() {
        let (ig, p, q) = graph();
        let query = query(p, q);
        let config = SupervisorConfig {
            deadline: Duration::from_millis(50),
            faults: Some(kgoa_engine::FaultPlan {
                fail_seek_at: Some(1),
                ..Default::default()
            }),
            ..SupervisorConfig::default()
        };
        let out = supervise(&ig, &query, &config).unwrap();
        let provenance = out.provenance().expect("degraded");
        assert!(matches!(
            provenance.reason,
            DegradeReason::Budget(BudgetReason::FaultInjected(_))
        ));
        assert_eq!(provenance.estimator, "aj");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn audit_join_panic_falls_back_to_wander_join() {
        let (ig, p, q) = graph();
        let query = query(p, q);
        // Exact slice is zero (degrade immediately); the armed fault plan
        // then panics Audit Join's first walk, and the supervisor falls
        // back to Wander Join on a clean budget.
        let config = SupervisorConfig {
            deadline: Duration::from_millis(50),
            exact_fraction: 0.0,
            faults: Some(kgoa_engine::FaultPlan {
                panic_walk_at: Some(1),
                ..Default::default()
            }),
            ..SupervisorConfig::default()
        };
        let out = supervise(&ig, &query, &config).unwrap();
        let provenance = out.provenance().expect("degraded");
        assert_eq!(provenance.estimator, "wj");
        assert!(provenance.walks > 0);
    }
}
