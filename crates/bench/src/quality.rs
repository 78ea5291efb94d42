//! `repro quality` — the estimator-quality plane, gated end to end.
//!
//! Brings up the quality plane against a live epoch-managed workload and
//! gates on the acceptance criteria:
//!
//! 1. **CI honesty** — every degraded chart is offered to the background
//!    [`CoverageAuditor`] (sampling 1:1 here), which recomputes exact
//!    truth on the pinned epoch; the resulting empirical coverage must be
//!    at least the nominal level minus a small slack `ε`.
//! 2. **Convergence telemetry** — a streaming parallel run under the
//!    armed quality plane must produce per-`(engine, rung)` convergence
//!    summaries, and [`kgoa_obs::quality::summary_json`] must carry them
//!    under its documented schema.
//! 3. **Stats-drift trip** (`--features fault-inject`) — an injected
//!    staleness scenario (a merge delivering a burst of dead-end
//!    entities) must move per-predicate rejection rates across epochs
//!    until `obs.quality.stats_drift_bp` reaches the policy's drift
//!    limit and at least one predicate is flagged as drifted.
//!
//! Every gate reads the quality plane in-process.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgoa_core::{
    install_auditor, run_parallel_streaming, uninstall_auditor, AuditJoinConfig, AuditorConfig,
    Budget, EpochConfig, EpochManager, ParallelAlgo, StreamConfig, SupervisorConfig,
};
use kgoa_datagen::{generate, KgConfig};
#[cfg(feature = "fault-inject")]
use kgoa_engine::ExecBudget;
use kgoa_explore::{Expansion, Session};
use kgoa_index::IndexOrder;
#[cfg(feature = "fault-inject")]
use kgoa_index::UpdateBatch;
use kgoa_obs::{Json, QualityPolicy};
use kgoa_query::WalkPlan;
use kgoa_rdf::Triple;

use crate::workload::BenchConfig;

/// Slack below the nominal coverage the empirical gate tolerates. The
/// audit runs on a small seeded workload, so the binomial noise floor is
/// a few percent; a plane whose honesty drifts past this is broken, not
/// unlucky.
const COVERAGE_EPSILON: f64 = 0.10;

/// Run a round of forced-degradation governed expansions on the pinned
/// session, waiting out each offered audit so the round's coverage is
/// fully accounted before returning.
fn degraded_round(
    session: &mut Session<'_>,
    sup: &SupervisorConfig,
    auditor: &kgoa_core::CoverageAuditor,
    rounds: usize,
) -> usize {
    let mut degraded = 0;
    for _ in 0..rounds {
        for exp in [Expansion::OutProperty, Expansion::InProperty] {
            let chart = session.expand_governed(exp, sup).expect("governed expansion");
            degraded += usize::from(chart.provenance.is_some());
            let deadline = Instant::now() + Duration::from_secs(20);
            while !auditor.idle() {
                assert!(Instant::now() < deadline, "audit never drained");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    degraded
}

/// `repro quality`: returns the report and whether every gate passed.
pub fn quality_bench(cfg: &BenchConfig) -> (String, bool) {
    let mut report = String::new();
    writeln!(report, "## Quality — estimator-quality plane gated end to end\n").unwrap();
    let mut all_ok = true;
    let mut gate = |report: &mut String, name: &str, ok: bool, detail: String| {
        all_ok &= ok;
        writeln!(report, "{:<28} {:<4} {}", name, if ok { "ok" } else { "FAIL" }, detail)
            .unwrap();
        ok
    };

    kgoa_obs::reset();
    kgoa_obs::set_enabled(true);
    let policy = QualityPolicy::default();
    kgoa_obs::quality::arm(policy.clone());

    // Live workload: epoch-managed graph with a pre-interned staleness
    // burst (entities typed into C0 with no other edges — pure dead ends
    // for property walks).
    let graph = generate(&KgConfig::dbpedia_like(cfg.scale));
    let mut dict = graph.dict().clone();
    let vocab = graph.vocab();
    let original = graph.triples().to_vec();
    let class = dict
        .lookup_iri("http://kgoa.dev/class/C0")
        .expect("generated graphs always have class C0");
    let burst: Vec<Triple> = (0..2048)
        .map(|i| {
            let e = dict.intern_iri(format!("http://kgoa.dev/quality/dead{i}"));
            Triple::new(e, vocab.rdf_type, class)
        })
        .collect();
    let graph = kgoa_rdf::Graph::from_sorted_parts(dict, original, vocab);
    let ig = kgoa_index::IndexedGraph::build(graph);
    // High thresholds keep `merge_now` the only merger (deterministic).
    let mgr = EpochManager::new(
        ig,
        EpochConfig { merge_threshold: 1 << 20, shed_threshold: 1 << 20, ..EpochConfig::default() },
    );
    let auditor = install_auditor(
        Arc::clone(&mgr),
        AuditorConfig {
            sample_every: 1,
            budget: Duration::from_secs(2),
            exact_parts: 1,
        },
    );

    // Forced degradation: a zero exact slice sends every expansion down
    // the Audit Join rung, so each chart carries CIs to audit.
    let sup = SupervisorConfig {
        deadline: Duration::from_millis(80),
        exact_fraction: 0.0,
        audit: AuditJoinConfig {
            tipping: kgoa_core::Tipping::from_threshold(cfg.tipping_threshold),
            seed: cfg.seed,
        },
        ..SupervisorConfig::default()
    };
    let mut session = Session::root_pinned(&mgr);
    let degraded = degraded_round(&mut session, &sup, &auditor, 3);

    // Gate 1: the auditor saw the charts and empirical coverage holds.
    gate(
        &mut report,
        "audits ran",
        auditor.offered() as usize >= degraded && kgoa_obs::metrics::QUALITY_AUDITS.get() > 0,
        format!(
            "{} charts degraded, {} offered, {} audited, {} skipped",
            degraded,
            auditor.offered(),
            kgoa_obs::metrics::QUALITY_AUDITS.get(),
            kgoa_obs::metrics::QUALITY_AUDIT_SKIPPED.get()
        ),
    );
    match kgoa_obs::quality::coverage() {
        Some((covered, audited)) => {
            let coverage = covered as f64 / audited as f64;
            gate(
                &mut report,
                "empirical coverage",
                coverage >= policy.nominal_coverage - COVERAGE_EPSILON,
                format!(
                    "{covered}/{audited} = {:.1}% (nominal {:.0}%, ε {:.0}pp)",
                    coverage * 100.0,
                    policy.nominal_coverage * 100.0,
                    COVERAGE_EPSILON * 100.0
                ),
            );
        }
        None => {
            gate(&mut report, "empirical coverage", false, "no audits completed".into());
        }
    }

    // Gate 2: a streaming parallel run feeds the convergence rings.
    {
        let pinned = mgr.pin();
        let mut probe = Session::root(&pinned);
        let query = probe.expansion_query(Expansion::OutProperty).expect("probe query");
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).expect("probe plan");
        let out = run_parallel_streaming(
            &pinned,
            &query,
            &plan,
            ParallelAlgo::AuditJoin(AuditJoinConfig {
                tipping: kgoa_core::Tipping::from_threshold(cfg.tipping_threshold),
                seed: cfg.seed,
            }),
            2,
            Budget::WalksPerWorker(2048),
            cfg.seed,
            StreamConfig { batch: cfg.batch.max(1), refresh: Duration::from_millis(5) },
            |_| {},
        );
        let summaries = kgoa_obs::quality::convergence_summary();
        gate(
            &mut report,
            "convergence telemetry",
            out.is_ok() && summaries.iter().any(|s| s.engine == "parallel"),
            format!(
                "{} (engine, rung) keys: {:?}",
                summaries.len(),
                summaries.iter().map(|s| format!("{}/{}", s.engine, s.rung)).collect::<Vec<_>>()
            ),
        );
    }

    // Gate 3: the in-process summary document carries its schema and
    // every section.
    let summary = kgoa_obs::quality::summary_json();
    let schema = summary.get("schema").and_then(Json::as_str).unwrap_or("");
    let sections = ["policy", "convergence", "coverage", "drift"];
    gate(
        &mut report,
        "quality summary schema",
        schema == kgoa_obs::QUALITY_SCHEMA && sections.iter().all(|k| summary.get(k).is_some()),
        format!("{schema}, sections {sections:?}"),
    );

    // Gate 4 (fault-inject): the injected stats-staleness scenario
    // drives the drift gauge to the policy limit and flags a predicate.
    #[cfg(feature = "fault-inject")]
    {
        // The burst merges in a flood of dead-end C0 members: property
        // walks over the new epoch reject far more often, while the drift
        // baseline still holds the old epoch's rates.
        mgr.append(&UpdateBatch::inserting(burst.clone()), &ExecBudget::unlimited())
            .expect("burst append");
        mgr.merge_now();
        mgr.wait_merged();
        session.repin(&mgr);
        degraded_round(&mut session, &sup, &auditor, 3);
        let drift_bp = kgoa_obs::metrics::QUALITY_STATS_DRIFT_BP.get();
        let drifted = kgoa_obs::metrics::QUALITY_DRIFTED_PREDICATES.get();
        gate(
            &mut report,
            "stats-drift trip",
            drift_bp >= policy.drift_limit_bp && drifted > 0,
            format!(
                "max drift {drift_bp}bp (limit {}bp), {drifted} predicates drifted",
                policy.drift_limit_bp
            ),
        );
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = &burst;
        writeln!(
            report,
            "{:<28} {:<4} needs --features fault-inject",
            "stats-drift trip", "skip"
        )
        .unwrap();
    }

    uninstall_auditor();
    kgoa_obs::quality::disarm();
    kgoa_obs::set_enabled(false);
    writeln!(
        report,
        "\n{}",
        if all_ok { "quality gate PASSED" } else { "quality gate FAILED" }
    )
    .unwrap();
    (report, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_datagen::Scale;

    #[test]
    fn quality_bench_passes_on_tiny_scale() {
        let _guard = kgoa_obs::metrics::test_lock();
        kgoa_obs::events::set_stderr_level(None);
        let cfg = BenchConfig { scale: Scale::Tiny, ..BenchConfig::default() };
        let (report, ok) = quality_bench(&cfg);
        kgoa_obs::events::set_stderr_level(Some(kgoa_obs::Level::Warn));
        assert!(ok, "quality gates must pass:\n{report}");
        assert!(report.contains("empirical coverage"));
    }
}
