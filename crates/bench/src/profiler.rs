//! Per-query profiling experiment.
//!
//! `repro profile` drives every execution rung — CTJ under the
//! supervisor, the LFTJ baseline, both online estimators, and a parallel
//! Audit Join — inside one [`kgoa_obs::QueryProfile`] scope, then renders
//! the collected span tree three ways: an EXPLAIN ANALYZE-style annotated
//! plan tree, collapsed stacks in the `folded` flamegraph format, and a
//! `kgoa-obs/v2` JSON document.

use std::fmt::Write as _;
use std::time::Duration;

use kgoa_core::{
    run_parallel, run_walks, supervise, AuditJoin, AuditJoinConfig, Budget, OnlineAggregator,
    ParallelAlgo, SupervisorConfig, WanderJoin,
};
use kgoa_engine::lftj_count;
use kgoa_obs::QueryProfile;

use crate::workload::{select_walk_plan, BenchConfig, Dataset, PreparedQuery};

/// Walks per estimator in the profiled demonstration run.
const PROFILE_WALKS: u64 = 2048;

/// Operator families that must attribute nonzero work in the profile —
/// one per engine subsystem the tentpole instruments.
const OPERATOR_FAMILIES: &[&str] =
    &["engine.lftj.run", "lftj.v", "ctj.step", "wj.step", "aj.step", "parallel.worker"];

/// Derive the collapsed-stack output path from the JSON output path:
/// `profile.json` → `profile.folded` (or append `.folded` when the path
/// has no `.json` suffix).
pub(crate) fn folded_path_for(json_path: &str) -> String {
    match json_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.folded"),
        None => format!("{json_path}.folded"),
    }
}

/// `repro profile`: run the deepest workload query through every
/// execution rung under a single profile scope and render the span tree.
/// Self-validates the span tree ([`kgoa_obs::ProfileReport::check_tree`])
/// and the folded rendering (one `frame;frame value` per line), and
/// asserts that every operator family attributed nonzero work. `out`
/// writes the JSON there and the folded stacks next to it
/// (`folded_path_for`).
pub fn profile_report(
    datasets: &[Dataset],
    workload: &[PreparedQuery],
    cfg: &BenchConfig,
    out: Option<&str>,
) -> String {
    let mut report = String::new();
    writeln!(report, "## Profiler — EXPLAIN ANALYZE span tree\n").unwrap();
    let Some(q) = workload.iter().max_by_key(|q| q.generated.step) else {
        return report;
    };
    let ig = &datasets[q.dataset].ig;
    let query = &q.generated.query;
    writeln!(report, "query: {}", q.id).unwrap();

    let aj_cfg = AuditJoinConfig {
        tipping: kgoa_core::Tipping::from_threshold(cfg.tipping_threshold),
        seed: cfg.seed,
    };
    let profile = QueryProfile::begin(q.id.clone());
    {
        let _attach = profile.attach("main");
        {
            // Exact rung: the supervisor's CTJ evaluation attributes
            // per-step cache traffic through the engine's profile hooks.
            let _s = kgoa_obs::profile::span("bench.supervise");
            let config = SupervisorConfig {
                deadline: Duration::from_secs(30),
                audit: aj_cfg,
                ..SupervisorConfig::default()
            };
            supervise(ig, query, &config).expect("supervise");
        }
        {
            // Worst-case-optimal baseline: per-variable seek/probe counts.
            let _s = kgoa_obs::profile::span("bench.lftj_count");
            lftj_count(ig, query).expect("lftj");
        }
        let plan = select_walk_plan(ig, query, cfg);
        {
            let _s = kgoa_obs::profile::span("bench.wander_join");
            let mut wj = WanderJoin::with_plan(ig, query, plan.clone(), cfg.seed).expect("wj");
            run_walks(&mut wj, PROFILE_WALKS);
            wj.profile_emit();
        }
        {
            let _s = kgoa_obs::profile::span("bench.audit_join");
            let mut aj = AuditJoin::with_plan(ig, query, plan.clone(), aj_cfg).expect("aj");
            run_walks(&mut aj, PROFILE_WALKS);
            aj.profile_emit();
        }
        {
            // Parallel workers attach to this profile from their own
            // threads, so the tree shows per-worker subtrees.
            let _s = kgoa_obs::profile::span("bench.parallel_audit_join");
            run_parallel(
                ig,
                query,
                &plan,
                ParallelAlgo::AuditJoin(aj_cfg),
                2,
                Budget::WalksPerWorker(PROFILE_WALKS / 2),
                cfg.seed,
            )
            .expect("parallel");
        }
    }
    let prof = profile.finish();
    // `finish` only debug-asserts the tree; check it in release too.
    prof.check_tree().expect("profile span tree must be well-formed");

    writeln!(report, "\n{}", prof.to_text()).unwrap();

    // Attribution gate: every operator family must report self time or a
    // nonzero counter somewhere in the tree.
    for family in OPERATOR_FAMILIES {
        let attributed = prof.spans.iter().enumerate().any(|(i, n)| {
            n.name.starts_with(family)
                && (prof.self_ns(i) > 0 || n.counters.iter().any(|(_, v)| *v > 0))
        });
        assert!(attributed, "operator family {family} attributed no work");
    }

    // Folded rendering: must be well-formed collapsed stacks.
    let folded = prof.to_folded();
    let stack_lines =
        kgoa_obs::profile::check_folded(&folded).expect("folded output must be well-formed");

    let json = prof.to_json().pretty(2);

    writeln!(report, "{} spans, {stack_lines} folded stack lines", prof.spans.len()).unwrap();

    if let Some(path) = out {
        std::fs::write(path, &json).expect("write profile JSON");
        let folded_path = folded_path_for(path);
        std::fs::write(&folded_path, &folded).expect("write folded stacks");
        writeln!(
            report,
            "wrote {path} ({} bytes) and {folded_path} ({} bytes)",
            json.len(),
            folded.len()
        )
        .unwrap();
    }
    report
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
    fn folded_path_derivation() {
        assert_eq!(folded_path_for("profile.json"), "profile.folded");
        assert_eq!(folded_path_for("out/p.json"), "out/p.folded");
        assert_eq!(folded_path_for("profile"), "profile.folded");
    }

    #[test]
    fn profile_report_attributes_every_operator_family() {
        let (datasets, workload, cfg) = tiny();
        let dir = std::env::temp_dir().join("kgoa-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        // profile_report self-validates (panics on malformed renderings
        // or missing operator attribution).
        let r = profile_report(&datasets, &workload, &cfg, Some(path.to_str().unwrap()));
        assert!(r.contains("profile trace="));
        assert!(r.contains("folded stack lines"));
        let folded = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
        assert!(kgoa_obs::profile::check_folded(&folded).unwrap() > 0);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\n  \"schema\": \"kgoa-obs/v2\""), "{json}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(dir.join("profile.folded")).ok();
    }
}
