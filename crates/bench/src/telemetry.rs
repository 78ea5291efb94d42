//! Telemetry-driven experiments: convergence traces and the
//! disabled-telemetry overhead gate.
//!
//! These are the observability counterparts of [`crate::experiments`]:
//! instead of reproducing a figure they exercise the `kgoa-obs` subsystem
//! end-to-end — enable it, drive real estimator and supervisor runs, and
//! export the resulting metrics/events as validated JSON.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use kgoa_core::{
    run_parallel, run_traced, supervise, AuditJoin, AuditJoinConfig, Budget, ParallelAlgo,
    SupervisedResult, SupervisorConfig, WanderJoin,
};
use kgoa_engine::{CountEngine, CtjEngine};
use kgoa_obs::Json;

use crate::metrics::fmt_duration;
use crate::workload::{select_walk_plan, BenchConfig, Dataset, PreparedQuery};

/// Schema identifier for the `repro trace` JSON document.
pub const TRACE_SCHEMA: &str = "kgoa-bench-trace/v1";

/// Walks per traced run and the batch size between trace samples.
const TRACE_WALKS: u64 = 4096;
const TRACE_BATCH: u64 = 512;

/// `repro trace`: run both online estimators on the deepest workload
/// query with telemetry enabled, recording a convergence trace per
/// estimator, then run the supervisor on a tight and on a generous
/// deadline so the chosen rung and degradation reason land in the event
/// log. Emits (and self-validates) a [`TRACE_SCHEMA`] JSON document;
/// `out` additionally writes it to a file.
pub fn trace_report(
    datasets: &[Dataset],
    workload: &[PreparedQuery],
    cfg: &BenchConfig,
    out: Option<&str>,
) -> String {
    let mut report = String::new();
    writeln!(report, "## Telemetry — convergence trace + instrumented snapshot\n").unwrap();
    let Some(q) = workload.iter().max_by_key(|q| q.generated.step) else {
        return report;
    };
    let ig = &datasets[q.dataset].ig;
    writeln!(report, "query: {}", q.id).unwrap();

    kgoa_obs::reset();
    kgoa_obs::set_enabled(true);

    // Convergence traces: one per estimator, same walk budget.
    let plan = select_walk_plan(ig, &q.generated.query, cfg);
    let aj_cfg = AuditJoinConfig {
        tipping: kgoa_core::Tipping::from_threshold(cfg.tipping_threshold),
        seed: cfg.seed,
    };
    let mut wj =
        WanderJoin::with_plan(ig, &q.generated.query, plan.clone(), cfg.seed).expect("wj");
    let wj_trace = run_traced(&mut wj, &q.id, TRACE_WALKS, TRACE_BATCH);
    let mut aj = AuditJoin::with_plan(ig, &q.generated.query, plan, aj_cfg).expect("aj");
    let aj_trace = run_traced(&mut aj, &q.id, TRACE_WALKS, TRACE_BATCH);

    for trace in [&wj_trace, &aj_trace] {
        writeln!(report, "\n{} ({} walks, batches of {}):", trace.algo, TRACE_WALKS, TRACE_BATCH)
            .unwrap();
        writeln!(report, "{:>8} {:>14} {:>14} {:>10}", "walks", "estimate", "ci±", "elapsed")
            .unwrap();
        for p in &trace.points {
            writeln!(
                report,
                "{:>8} {:>14.1} {:>14.2} {:>10}",
                p.walks,
                p.estimate,
                p.ci_half_width,
                fmt_duration(p.elapsed)
            )
            .unwrap();
        }
        writeln!(
            report,
            "ci half-width {} from {:.2} to {:.2}",
            if trace.ci_shrank() { "shrank" } else { "did not shrink" },
            trace.points.first().map_or(f64::NAN, |p| p.ci_half_width),
            trace.points.last().map_or(f64::NAN, |p| p.ci_half_width),
        )
        .unwrap();
    }

    // Supervisor runs: a work-capped exact rung forces degradation
    // deterministically (rung + reason become events); a generous
    // deadline lets the exact rung finish.
    let starved = SupervisorConfig {
        exact_work_limit: Some(1),
        audit: aj_cfg,
        ..SupervisorConfig::default()
    };
    let generous = SupervisorConfig {
        deadline: Duration::from_secs(30),
        audit: aj_cfg,
        ..SupervisorConfig::default()
    };
    for (label, config) in [("work-capped", starved), ("generous", generous)] {
        let outcome = match supervise(ig, &q.generated.query, &config) {
            Ok(SupervisedResult::Exact { elapsed, .. }) => {
                format!("exact in {}", fmt_duration(elapsed))
            }
            Ok(SupervisedResult::Degraded { provenance, .. }) => format!(
                "degraded to {} ({} walks; reason: {})",
                provenance.estimator, provenance.walks, provenance.reason
            ),
            Err(e) => format!("error: {e}"),
        };
        writeln!(report, "\nsupervise ({label}): {outcome}").unwrap();
    }

    let snap = kgoa_obs::snapshot();
    kgoa_obs::set_enabled(false);

    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(TRACE_SCHEMA)),
        ("query".into(), Json::str(&q.id)),
        ("traces".into(), Json::Arr(vec![wj_trace.to_json(), aj_trace.to_json()])),
        ("telemetry".into(), snap.to_json()),
    ]);
    let text = doc.pretty(2);

    // Self-validate: the document must parse back identically, and the
    // supervisor's rung decisions must be present as structured events.
    let reparsed = Json::parse(&text).expect("trace JSON must be well-formed");
    assert_eq!(reparsed, doc, "trace JSON must round-trip");
    let events = reparsed
        .get("telemetry")
        .and_then(|t| t.get("events"))
        .and_then(Json::as_arr)
        .expect("telemetry.events array");
    let rungs: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("fields").and_then(|f| f.get("rung")).and_then(Json::as_str))
        .collect();
    assert!(
        !rungs.is_empty(),
        "supervisor rung decisions must appear as structured events"
    );
    let has_reason = events
        .iter()
        .any(|e| e.get("fields").and_then(|f| f.get("reason")).and_then(Json::as_str).is_some());
    assert!(has_reason, "a degradation reason must appear as a structured event field");
    writeln!(report, "\nrung events: {}", rungs.join(", ")).unwrap();

    if let Some(path) = out {
        std::fs::write(path, &text).expect("write trace JSON");
        writeln!(report, "wrote {path} ({} bytes)", text.len()).unwrap();
    } else {
        writeln!(report, "\n{text}").unwrap();
    }
    report
}

/// `repro obs-overhead`: the CI gate behind the "near-zero cost when
/// disabled" promise. Measures the median CTJ evaluation time on the
/// deepest workload query with telemetry disabled and enabled
/// (interleaved samples so clock drift hits both arms equally) and
/// fails — second tuple element `false` — when the disabled path is
/// more than 5% slower than the enabled one. The enabled path does
/// strictly more work, so it is the conservative baseline.
///
/// A two-worker [`run_parallel`] Audit Join run is then held to the same
/// bar.
pub fn obs_overhead(
    datasets: &[Dataset],
    workload: &[PreparedQuery],
    samples: usize,
) -> (String, bool) {
    const TOLERANCE: f64 = 1.05;

    let mut report = String::new();
    writeln!(report, "## Telemetry — disabled-path overhead gate\n").unwrap();
    let Some(q) = workload.iter().max_by_key(|q| q.generated.step) else {
        return (report, true);
    };
    let ig = &datasets[q.dataset].ig;
    writeln!(report, "query: {} (CTJ evaluation, {samples} samples per arm)", q.id).unwrap();

    let was_enabled = kgoa_obs::enabled();
    let measure = |enable: bool| -> f64 {
        kgoa_obs::set_enabled(enable);
        let t = Instant::now();
        let counts = CtjEngine.evaluate(ig, &q.generated.query).expect("ctj");
        assert_eq!(counts, q.exact_distinct, "CTJ must match ground truth");
        t.elapsed().as_nanos() as f64
    };
    let mut all_ok = true;
    let medians = |report: &mut String, label: &str, measure: &dyn Fn(bool) -> f64| -> bool {
        // Warm both arms (page cache, branch predictors) before sampling.
        measure(false);
        measure(true);
        let mut disabled = Vec::with_capacity(samples);
        let mut enabled = Vec::with_capacity(samples);
        for _ in 0..samples.max(3) {
            disabled.push(measure(false));
            enabled.push(measure(true));
        }
        disabled.sort_by(f64::total_cmp);
        enabled.sort_by(f64::total_cmp);
        let d = disabled[disabled.len() / 2];
        let e = enabled[enabled.len() / 2];
        writeln!(
            report,
            "{label}: disabled median {:.3}ms, enabled median {:.3}ms, ratio {:.3} \
             (gate ≤ {TOLERANCE})",
            d / 1e6,
            e / 1e6,
            d / e
        )
        .unwrap();
        d <= e * TOLERANCE
    };
    all_ok &= medians(&mut report, "ctj", &measure);

    // Arm 2: a parallel run on the pool, so the worker and pool dispatch
    // counters are held to the same bar.
    let plan =
        kgoa_query::WalkPlan::canonical(&q.generated.query, &kgoa_index::IndexOrder::PAPER_DEFAULT)
            .expect("canonical plan");
    let measure_parallel = |enable: bool| -> f64 {
        kgoa_obs::set_enabled(enable);
        let t = Instant::now();
        run_parallel(
            ig,
            &q.generated.query,
            &plan,
            ParallelAlgo::AuditJoin(AuditJoinConfig::default()),
            2,
            Budget::WalksPerWorker(512),
            17,
        )
        .expect("parallel run");
        t.elapsed().as_nanos() as f64
    };
    all_ok &= medians(&mut report, "parallel-aj×2", &measure_parallel);

    kgoa_obs::set_enabled(was_enabled);
    writeln!(report, "{}", if all_ok { "PASS" } else { "FAIL: disabled path regressed" })
        .unwrap();
    (report, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{load_datasets, prepare_workload};
    use kgoa_datagen::Scale;

    fn tiny() -> (Vec<Dataset>, Vec<PreparedQuery>, BenchConfig) {
        let cfg = BenchConfig {
            scale: Scale::Tiny,
            runs: 3,
            max_steps: 2,
            wj_order_trials: 0,
            ..BenchConfig::default()
        };
        let datasets = load_datasets(cfg.scale);
        let workload = prepare_workload(&datasets, &cfg);
        (datasets, workload, cfg)
    }

    #[test]
    fn trace_emits_valid_json_with_rung_events() {
        let (datasets, workload, cfg) = tiny();
        // trace_report self-validates (panics on malformed JSON or
        // missing rung/reason events); the report carries the evidence.
        let r = trace_report(&datasets, &workload, &cfg, None);
        assert!(r.contains(TRACE_SCHEMA));
        assert!(r.contains("rung events:"));
        assert!(r.contains("WJ") || r.contains("wj"));
    }

    #[test]
    fn overhead_gate_reports_both_arms() {
        let (datasets, workload, _cfg) = tiny();
        let (r, _ok) = obs_overhead(&datasets, &workload, 3);
        // The gate's verdict is asserted in CI where the machine is
        // quiet; here only the measurement plumbing is checked.
        assert!(r.contains("disabled median"));
        assert!(r.contains("ratio"));
        assert!(r.contains("parallel-aj×2"));
    }
}
