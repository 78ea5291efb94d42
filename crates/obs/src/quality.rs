//! Estimator-quality plane: convergence telemetry, empirical CI
//! coverage, and stats-drift detection.
//!
//! Latency histograms tell us whether answers arrive on time; nothing
//! there tells us whether the answers are any *good*. The paper's
//! contract is honest anytime estimates — confidence intervals that
//! cover the truth at their nominal rate and shrink as walks
//! accumulate — so this module tracks three statistical signals:
//!
//! 1. **Convergence** — per `(engine, rung)` rolling rings of
//!    time-to-±`ci_target_rel`-relative-CI and half-width-trajectory
//!    slope, fed from `run_parallel_streaming` snapshots and
//!    [`ConvergenceTrace`]s ([`record_convergence`], [`record_trace`]).
//! 2. **Coverage** — the empirical fraction of audited per-group CIs
//!    that contained the exact truth ([`record_audit`]), maintained by
//!    the background coverage auditor in `kgoa-core`.
//! 3. **Stats drift** — per-predicate walk rejection/tip-rate deltas
//!    across epochs ([`record_predicate_rates`]): after a delta→main
//!    merge the index statistics that picked walk orders and tipping
//!    thresholds may be stale, and that staleness shows up as a step
//!    change in observed rejection rates on the new epoch.
//!
//! All three surface as well-known gauges/counters (`obs.quality.*`)
//! and as the in-process JSON document [`summary_json`] (schema
//! [`QUALITY_SCHEMA`]), which `repro quality` reads and checks.
//!
//! The plane is **disarmed by default** and the disarmed fast path is
//! one relaxed atomic load, preserving the `repro obs-overhead` ≤ 1.05×
//! budget.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::events::{self, Level};
use crate::json::Json;
use crate::metrics;
use crate::trace::{ConvergenceTrace, TracePoint};

/// Rolling samples kept per `(engine, rung)` convergence key.
const RING: usize = 64;

/// Quality targets and drift thresholds.
#[derive(Debug, Clone)]
pub struct QualityPolicy {
    /// Relative CI target: a run "converged" at the first sample whose
    /// mean half-width is ≤ this fraction of the point estimate.
    pub ci_target_rel: f64,
    /// Nominal coverage of the estimators' CIs (0.95 for the paper's
    /// 95% intervals); exported for dashboards and the `repro quality`
    /// gate, not enforced here.
    pub nominal_coverage: f64,
    /// Minimum walks a predicate needs on *both* epochs before its
    /// rate delta participates in drift detection.
    pub drift_min_walks: u64,
    /// Rate delta (basis points of rejection/tip probability) at and
    /// above which a predicate counts as drifted.
    pub drift_limit_bp: i64,
}

impl Default for QualityPolicy {
    fn default() -> Self {
        QualityPolicy {
            ci_target_rel: 0.05,
            nominal_coverage: 0.95,
            drift_min_walks: 64,
            drift_limit_bp: 1_500,
        }
    }
}

#[derive(Debug)]
struct ConvKey {
    engine: &'static str,
    rung: &'static str,
    runs: u64,
    converged: u64,
    time_to_ci_us: VecDeque<u64>,
    slopes: VecDeque<f64>,
}

fn ring_quantile_u64(ring: &VecDeque<u64>, q: f64) -> u64 {
    if ring.is_empty() {
        return 0;
    }
    let mut sorted: Vec<u64> = ring.iter().copied().collect();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn ring_median_f64(ring: &VecDeque<f64>) -> f64 {
    if ring.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = ring.iter().copied().collect();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

#[derive(Debug, Default, Clone)]
struct RateAcc {
    walks: u64,
    rejected: u64,
    tipped: u64,
}

#[derive(Debug)]
struct DriftEpoch {
    epoch: u64,
    rates: Vec<(u32, RateAcc)>,
}

#[derive(Debug, Default)]
struct QualityState {
    policy: QualityPolicy,
    keys: Vec<ConvKey>,
    audited: u64,
    covered: u64,
    /// Rates for the last *completed* epoch (drift baseline).
    last: Option<DriftEpoch>,
    /// Rates accumulating for the epoch currently being observed.
    cur: Option<DriftEpoch>,
    max_drift_bp: i64,
    drifted: Vec<u32>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<QualityState>> = Mutex::new(None);

fn state() -> std::sync::MutexGuard<'static, Option<QualityState>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arm the quality plane with a policy; recording starts immediately.
pub fn arm(policy: QualityPolicy) {
    *state() = Some(QualityState { policy, ..QualityState::default() });
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm and discard all state (rings, coverage, drift baselines).
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    *state() = None;
}

/// Is the plane recording? One relaxed load — the disarmed fast path
/// taken by `run_parallel_streaming`, the session hooks, and the
/// coverage auditor's offer path.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Canonical rung name for an estimator algo tag ("wj", "aj", ...).
fn rung_for_algo(algo: &str) -> &'static str {
    match algo {
        "wj" | "wander_join" => "wander_join",
        "aj" | "audit_join" => "audit_join",
        _ => "other",
    }
}

/// Record one estimator run's convergence trajectory under an
/// `(engine, rung)` key. `points` are in walk order; the run counts as
/// converged at the first point whose mean CI half-width is within the
/// policy's relative target of the point estimate.
pub fn record_convergence(engine: &'static str, rung: &'static str, points: &[TracePoint]) {
    if !armed() || points.is_empty() {
        return;
    }
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    let target = st.policy.ci_target_rel;
    let converged_at = points
        .iter()
        .find(|p| p.estimate > 0.0 && p.ci_half_width.is_finite() && p.ci_half_width <= target * p.estimate)
        .map(|p| p.elapsed.as_micros() as u64);
    let slope = match (points.first(), points.last()) {
        (Some(a), Some(b)) if points.len() >= 2 => {
            let dt = (b.elapsed.saturating_sub(a.elapsed)).as_secs_f64();
            let dw = a.ci_half_width - b.ci_half_width;
            (dt > 0.0 && dw.is_finite()).then(|| dw / dt)
        }
        _ => None,
    };
    let key = match st.keys.iter_mut().find(|k| k.engine == engine && k.rung == rung) {
        Some(k) => k,
        None => {
            st.keys.push(ConvKey {
                engine,
                rung,
                runs: 0,
                converged: 0,
                time_to_ci_us: VecDeque::new(),
                slopes: VecDeque::new(),
            });
            st.keys.last_mut().unwrap()
        }
    };
    key.runs += 1;
    if let Some(us) = converged_at {
        key.converged += 1;
        if key.time_to_ci_us.len() == RING {
            key.time_to_ci_us.pop_front();
        }
        key.time_to_ci_us.push_back(us);
    }
    if let Some(s) = slope {
        if key.slopes.len() == RING {
            key.slopes.pop_front();
        }
        key.slopes.push_back(s);
    }
    drop(guard);
    metrics::QUALITY_RUNS.inc();
    if let Some(us) = converged_at {
        metrics::QUALITY_CONVERGED.inc();
        metrics::QUALITY_TIME_TO_CI_US.record(us);
    }
}

/// Record a [`ConvergenceTrace`] (the traced single-thread path),
/// mapping its algo tag to a canonical rung name.
pub fn record_trace(engine: &'static str, trace: &ConvergenceTrace) {
    if !armed() {
        return;
    }
    record_convergence(engine, rung_for_algo(&trace.algo), &trace.points);
}

/// Record one completed coverage audit: `audited` per-group CIs were
/// checked against exact truth and `covered` of them contained it.
/// `detail` names the audited chart in the miss event. Updates the
/// running `obs.quality.coverage_bp` gauge.
pub fn record_audit(covered: u64, audited: u64, detail: &str) {
    if !armed() || audited == 0 {
        return;
    }
    let covered = covered.min(audited);
    let (total_audited, total_covered, nominal) = {
        let mut guard = state();
        let Some(st) = guard.as_mut() else { return };
        st.audited += audited;
        st.covered += covered;
        (st.audited, st.covered, st.policy.nominal_coverage)
    };
    metrics::QUALITY_AUDITS.inc();
    let misses = audited - covered;
    if misses > 0 {
        metrics::QUALITY_AUDIT_MISSES.add(misses);
        events::emit_with(
            Level::Warn,
            "quality",
            "audited confidence interval missed exact truth",
            vec![
                ("chart", detail.to_string()),
                ("missed_groups", misses.to_string()),
                ("audited_groups", audited.to_string()),
                ("nominal", format!("{nominal:.2}")),
            ],
        );
    }
    metrics::QUALITY_AUDITED_GROUPS.set(total_audited as i64);
    let bp = (total_covered as f64 / total_audited as f64 * 10_000.0).round() as i64;
    metrics::QUALITY_COVERAGE_BP.set(bp);
}

/// Running coverage as `(covered, audited)` per-group CI totals; `None`
/// when disarmed or before the first audit completes.
pub fn coverage() -> Option<(u64, u64)> {
    let guard = state();
    let st = guard.as_ref()?;
    (st.audited > 0).then_some((st.covered, st.audited))
}

/// Observed walk rates for one predicate on one epoch.
#[derive(Debug, Clone, Copy)]
pub struct PredicateRates {
    /// Raw term id of the (constant) predicate.
    pub predicate: u32,
    /// Walks attributed to queries binding this predicate.
    pub walks: u64,
    /// Of those, walks rejected at a dead end.
    pub rejected: u64,
    /// Of those, walks that tipped to an exact suffix (AJ only).
    pub tipped: u64,
}

/// Record observed per-predicate walk rates for `epoch`. When `epoch`
/// advances, the previous epoch's accumulated rates become the drift
/// baseline; thereafter every call recomputes the largest
/// rejection/tip-rate delta (basis points) between the current epoch
/// and the baseline over predicates with enough walks on both sides,
/// exporting it as the `obs.quality.stats_drift_bp` gauge.
pub fn record_predicate_rates(epoch: u64, rates: &[PredicateRates]) {
    if !armed() || rates.is_empty() {
        return;
    }
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    if st.cur.as_ref().is_some_and(|c| c.epoch != epoch) {
        st.last = st.cur.take();
    }
    let cur = st.cur.get_or_insert_with(|| DriftEpoch { epoch, rates: Vec::new() });
    for r in rates {
        let acc = match cur.rates.iter_mut().find(|(p, _)| *p == r.predicate) {
            Some((_, acc)) => acc,
            None => {
                cur.rates.push((r.predicate, RateAcc::default()));
                &mut cur.rates.last_mut().unwrap().1
            }
        };
        acc.walks += r.walks;
        acc.rejected += r.rejected;
        acc.tipped += r.tipped;
    }
    // Recompute drift of the current epoch against the baseline.
    let min_walks = st.policy.drift_min_walks.max(1);
    let limit = st.policy.drift_limit_bp;
    let mut max_bp = 0i64;
    let mut drifted = Vec::new();
    if let (Some(last), Some(cur)) = (st.last.as_ref(), st.cur.as_ref()) {
        for (p, now) in &cur.rates {
            if now.walks < min_walks {
                continue;
            }
            let Some((_, base)) = last.rates.iter().find(|(bp, _)| bp == p) else { continue };
            if base.walks < min_walks {
                continue;
            }
            let rate = |acc: &RateAcc, v: u64| v as f64 / acc.walks as f64;
            let d_rej = (rate(now, now.rejected) - rate(base, base.rejected)).abs();
            let d_tip = (rate(now, now.tipped) - rate(base, base.tipped)).abs();
            let bp = (d_rej.max(d_tip) * 10_000.0).round() as i64;
            max_bp = max_bp.max(bp);
            if bp >= limit {
                drifted.push(*p);
            }
        }
    }
    drifted.sort_unstable();
    let newly: Vec<u32> = drifted.iter().copied().filter(|p| !st.drifted.contains(p)).collect();
    st.max_drift_bp = max_bp;
    st.drifted = drifted;
    let (cur_epoch, last_epoch) =
        (st.cur.as_ref().map(|c| c.epoch), st.last.as_ref().map(|l| l.epoch));
    let n_drifted = st.drifted.len();
    drop(guard);
    metrics::QUALITY_STATS_DRIFT_BP.set(max_bp);
    metrics::QUALITY_DRIFTED_PREDICATES.set(n_drifted as i64);
    if !newly.is_empty() {
        events::emit_with(
            Level::Warn,
            "quality",
            "predicate walk-rate drift exceeds limit (stale stats after merge?)",
            vec![
                ("predicates", format!("{newly:?}")),
                ("max_delta_bp", max_bp.to_string()),
                ("limit_bp", limit.to_string()),
                ("epoch", cur_epoch.map_or_else(String::new, |e| e.to_string())),
                ("baseline_epoch", last_epoch.map_or_else(String::new, |e| e.to_string())),
            ],
        );
    }
}

/// Rolled-up convergence state of one `(engine, rung)` key.
#[derive(Debug, Clone)]
pub struct ConvergenceSummary {
    /// Recording engine ("parallel", "traced", "session").
    pub engine: &'static str,
    /// Estimator rung ("wander_join", "audit_join", ...).
    pub rung: &'static str,
    /// Runs recorded.
    pub runs: u64,
    /// Runs that reached the relative-CI target.
    pub converged: u64,
    /// Rolling median time-to-target, µs (0 when none converged).
    pub p50_time_to_ci_us: u64,
    /// Rolling 95th-percentile time-to-target, µs.
    pub p95_time_to_ci_us: u64,
    /// Rolling median half-width shrink rate (absolute width/sec;
    /// positive = shrinking).
    pub p50_slope_per_sec: f64,
}

/// Roll up every convergence key, sorted by `(engine, rung)`. Empty
/// when disarmed.
pub fn convergence_summary() -> Vec<ConvergenceSummary> {
    let guard = state();
    let Some(st) = guard.as_ref() else { return Vec::new() };
    let mut out: Vec<ConvergenceSummary> = st
        .keys
        .iter()
        .map(|k| ConvergenceSummary {
            engine: k.engine,
            rung: k.rung,
            runs: k.runs,
            converged: k.converged,
            p50_time_to_ci_us: ring_quantile_u64(&k.time_to_ci_us, 0.50),
            p95_time_to_ci_us: ring_quantile_u64(&k.time_to_ci_us, 0.95),
            p50_slope_per_sec: ring_median_f64(&k.slopes),
        })
        .collect();
    out.sort_by_key(|k| (k.engine, k.rung));
    out
}

/// Schema identifier of the [`summary_json`] document.
pub const QUALITY_SCHEMA: &str = "kgoa-obs/quality-v1";

/// Render the full quality-plane state as one JSON document.
pub fn summary_json() -> Json {
    let guard = state();
    let (policy, audited, covered, max_drift_bp, drifted, cur_epoch, last_epoch) = match guard
        .as_ref()
    {
        Some(st) => (
            st.policy.clone(),
            st.audited,
            st.covered,
            st.max_drift_bp,
            st.drifted.clone(),
            st.cur.as_ref().map(|c| c.epoch),
            st.last.as_ref().map(|l| l.epoch),
        ),
        None => (QualityPolicy::default(), 0, 0, 0, Vec::new(), None, None),
    };
    drop(guard);
    let coverage = if audited > 0 { covered as f64 / audited as f64 } else { 0.0 };
    let opt_epoch = |e: Option<u64>| e.map_or(Json::Null, |v| Json::Num(v as f64));
    Json::Obj(vec![
        ("schema".into(), Json::str(QUALITY_SCHEMA)),
        ("armed".into(), Json::Bool(armed())),
        (
            "policy".into(),
            Json::Obj(vec![
                ("ci_target_rel".into(), Json::Num(policy.ci_target_rel)),
                ("nominal_coverage".into(), Json::Num(policy.nominal_coverage)),
                ("drift_min_walks".into(), Json::Num(policy.drift_min_walks as f64)),
                ("drift_limit_bp".into(), Json::Num(policy.drift_limit_bp as f64)),
            ]),
        ),
        (
            "convergence".into(),
            Json::Arr(
                convergence_summary()
                    .iter()
                    .map(|k| {
                        Json::Obj(vec![
                            ("engine".into(), Json::str(k.engine)),
                            ("rung".into(), Json::str(k.rung)),
                            ("runs".into(), Json::Num(k.runs as f64)),
                            ("converged".into(), Json::Num(k.converged as f64)),
                            ("p50_time_to_ci_us".into(), Json::Num(k.p50_time_to_ci_us as f64)),
                            ("p95_time_to_ci_us".into(), Json::Num(k.p95_time_to_ci_us as f64)),
                            ("p50_slope_per_sec".into(), Json::Num(k.p50_slope_per_sec)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "coverage".into(),
            Json::Obj(vec![
                ("audited_groups".into(), Json::Num(audited as f64)),
                ("covered_groups".into(), Json::Num(covered as f64)),
                ("coverage".into(), Json::Num(coverage)),
                ("nominal".into(), Json::Num(policy.nominal_coverage)),
            ]),
        ),
        (
            "drift".into(),
            Json::Obj(vec![
                ("epoch".into(), opt_epoch(cur_epoch)),
                ("baseline_epoch".into(), opt_epoch(last_epoch)),
                ("max_delta_bp".into(), Json::Num(max_drift_bp as f64)),
                ("limit_bp".into(), Json::Num(policy.drift_limit_bp as f64)),
                (
                    "drifted_predicates".into(),
                    Json::Arr(drifted.iter().map(|p| Json::Num(*p as f64)).collect()),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quiet() -> std::sync::MutexGuard<'static, ()> {
        let guard = crate::metrics::test_lock();
        events::set_stderr_level(None);
        disarm();
        guard
    }

    fn pt(walks: u64, estimate: f64, hw: f64, us: u64) -> TracePoint {
        TracePoint { walks, estimate, ci_half_width: hw, elapsed: Duration::from_micros(us) }
    }

    #[test]
    fn disarmed_everything_is_a_no_op() {
        let _guard = quiet();
        record_convergence("parallel", "wander_join", &[pt(10, 100.0, 1.0, 5)]);
        record_audit(1, 1, "q");
        record_predicate_rates(0, &[PredicateRates { predicate: 1, walks: 100, rejected: 5, tipped: 0 }]);
        assert!(convergence_summary().is_empty());
        assert!(coverage().is_none());
        events::set_stderr_level(Some(Level::Warn));
    }

    #[test]
    fn convergence_time_and_slope_recorded() {
        let _guard = quiet();
        crate::set_enabled(true);
        arm(QualityPolicy::default());
        // Converges at the third point: 4.0 <= 0.05 * 100.
        record_convergence(
            "parallel",
            "audit_join",
            &[pt(64, 90.0, 30.0, 100), pt(128, 95.0, 10.0, 200), pt(256, 100.0, 4.0, 300)],
        );
        // Never converges (half-width stays wide).
        record_convergence("parallel", "audit_join", &[pt(64, 90.0, 30.0, 100), pt(128, 95.0, 20.0, 400)]);
        let s = convergence_summary();
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].engine, s[0].rung), ("parallel", "audit_join"));
        assert_eq!((s[0].runs, s[0].converged), (2, 1));
        assert_eq!(s[0].p50_time_to_ci_us, 300);
        assert!(s[0].p50_slope_per_sec > 0.0, "shrinking trajectories have positive slope");
        crate::set_enabled(false);
        disarm();
        events::set_stderr_level(Some(Level::Warn));
    }

    #[test]
    fn trace_algo_maps_to_rung() {
        let _guard = quiet();
        arm(QualityPolicy::default());
        let mut t = ConvergenceTrace::new("wj", "q01");
        t.record(100, 50.0, 1.0, Duration::from_micros(10));
        record_trace("traced", &t);
        let s = convergence_summary();
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].engine, s[0].rung), ("traced", "wander_join"));
        disarm();
        events::set_stderr_level(Some(Level::Warn));
    }

    #[test]
    fn coverage_accumulates_and_exports_gauge() {
        let _guard = quiet();
        crate::set_enabled(true);
        arm(QualityPolicy::default());
        record_audit(3, 3, "q1");
        record_audit(1, 2, "q2"); // one miss -> warn event + miss counter
        assert_eq!(coverage(), Some((4, 5)));
        assert_eq!(metrics::QUALITY_COVERAGE_BP.get(), 8_000);
        assert_eq!(metrics::QUALITY_AUDITED_GROUPS.get(), 5);
        assert!(metrics::QUALITY_AUDIT_MISSES.get() >= 1);
        crate::set_enabled(false);
        disarm();
        crate::reset();
        events::set_stderr_level(Some(Level::Warn));
    }

    #[test]
    fn drift_compares_epochs_and_flags_predicates() {
        let _guard = quiet();
        crate::set_enabled(true);
        arm(QualityPolicy { drift_min_walks: 10, drift_limit_bp: 1_000, ..QualityPolicy::default() });
        let r = |p: u32, w: u64, rej: u64| PredicateRates { predicate: p, walks: w, rejected: rej, tipped: 0 };
        // Epoch 3: predicate 7 rejects 10%, predicate 9 rejects 50%.
        record_predicate_rates(3, &[r(7, 100, 10), r(9, 100, 50)]);
        assert_eq!(metrics::QUALITY_STATS_DRIFT_BP.get(), 0, "no baseline yet");
        // Epoch 5: predicate 7 jumps to 60% (+5000bp), 9 stays put.
        record_predicate_rates(5, &[r(7, 100, 60), r(9, 100, 50)]);
        assert_eq!(metrics::QUALITY_STATS_DRIFT_BP.get(), 5_000);
        assert_eq!(metrics::QUALITY_DRIFTED_PREDICATES.get(), 1);
        let j = summary_json();
        let drift = j.get("drift").unwrap();
        assert_eq!(drift.get("max_delta_bp").and_then(Json::as_f64), Some(5_000.0));
        assert_eq!(drift.get("epoch").and_then(Json::as_f64), Some(5.0));
        assert_eq!(drift.get("baseline_epoch").and_then(Json::as_f64), Some(3.0));
        let flagged = drift.get("drifted_predicates").and_then(Json::as_arr).unwrap();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].as_f64(), Some(7.0));
        crate::set_enabled(false);
        disarm();
        crate::reset();
        events::set_stderr_level(Some(Level::Warn));
    }

    #[test]
    fn drift_ignores_thin_predicates() {
        let _guard = quiet();
        crate::set_enabled(true);
        arm(QualityPolicy { drift_min_walks: 50, drift_limit_bp: 1_000, ..QualityPolicy::default() });
        let r = |p: u32, w: u64, rej: u64| PredicateRates { predicate: p, walks: w, rejected: rej, tipped: 0 };
        record_predicate_rates(1, &[r(7, 10, 0)]);
        record_predicate_rates(2, &[r(7, 10, 10)]); // 0% -> 100%, but only 10 walks
        assert_eq!(metrics::QUALITY_STATS_DRIFT_BP.get(), 0);
        crate::set_enabled(false);
        disarm();
        crate::reset();
        events::set_stderr_level(Some(Level::Warn));
    }

    #[test]
    fn summary_json_round_trips() {
        let _guard = quiet();
        arm(QualityPolicy::default());
        record_convergence("parallel", "wander_join", &[pt(64, 100.0, 1.0, 50)]);
        record_audit(2, 2, "q");
        let j = summary_json();
        assert_eq!(j.get("schema").and_then(Json::as_str), Some(QUALITY_SCHEMA));
        assert_eq!(Json::parse(&j.pretty(2)).unwrap(), j);
        disarm();
        events::set_stderr_level(Some(Level::Warn));
    }
}
