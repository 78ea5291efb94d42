//! The metric catalogue: every name `BENCHMARK.json` declares, with its
//! unit. A unit test holds the two in step.

use std::collections::BTreeMap;

use crate::report::Json;
use crate::stats::{mean, quantile, tail_percentile};
use crate::Run;

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports all of them; the README tabulates what each means where.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("rss_mb", "MB", "lower", 0.15),
    e2e("op_ms_mean", "ms", "lower", 0.25),
    e2e("op_ms_tail", "ms", "lower", 0.25),
    e2e("work_per_s", "1/s", "higher", 0.25),
    e2e("rel_ci", "ratio", "lower", 0.2),
    e2e("goal_share", "ratio", "higher", 0.2),
];

/// Layer metrics: one layer each, measured by the traced run from outside
/// the program (public calls timed, public counters read).
pub const LAYER: [(&str, &str); 59] = [
    ("datagen.generate_s", "s"),
    ("index.build_s", "s"),
    ("index.build_us_per_triple", "us"),
    ("engine.yannakakis.eval_ms_p50", "ms"),
    ("index.bytes_per_triple", "B"),
    ("index.rss_vs_accounted_ratio", "ratio"),
    ("index.range1_ns", "ns"),
    ("index.range2_ns", "ns"),
    ("index.pick_row_ns", "ns"),
    ("index.seek2_batch_ns_per_probe", "ns"),
    ("index.cursor_seek_ns", "ns"),
    ("index.overlay.range2_ns", "ns"),
    ("index.overlay.build_ms", "ms"),
    ("query.plan_us", "us"),
    ("explore.expansion_query_us", "us"),
    ("explore.chart_build_us", "us"),
    ("explore.select_us", "us"),
    ("explore.session_overhead_us", "us"),
    ("engine.ctj.eval_ms_p50", "ms"),
    ("engine.ctj.eval_ms_p90", "ms"),
    ("engine.ctj.capped_share", "ratio"),
    ("core.audit.new_us", "us"),
    ("core.audit.heavy.us_per_walk", "us"),
    ("core.audit.light.ns_per_walk", "ns"),
    ("core.audit.first_batch_ms_p90", "ms"),
    ("core.audit.useful_walk_share", "ratio"),
    ("core.audit.tipped_share", "ratio"),
    ("core.audit.suffix_cache_hit_ratio", "ratio"),
    ("core.audit.exact_ticks_per_walk", "count"),
    ("core.audit.walks_to_target_p50", "count"),
    ("core.accum.estimates_us_per_group", "us"),
    ("core.wander.ns_per_walk_b256", "ns"),
    ("core.wander.ns_per_walk_b1", "ns"),
    ("core.wander.rejected_share", "ratio"),
    ("core.supervisor.degraded_walks_per_s", "1/s"),
    ("core.supervisor.overshoot_ms_p95", "ms"),
    ("core.supervisor.rung.exact", "count"),
    ("core.supervisor.rung.audit_join", "count"),
    ("core.supervisor.rung.wander_join", "count"),
    ("core.supervisor.rung.exhausted", "count"),
    ("core.supervisor.exact_ms_p50", "ms"),
    ("core.epoch.append_ms_p50", "ms"),
    ("core.epoch.append_ms_p95", "ms"),
    ("core.epoch.merge_ms", "ms"),
    ("core.epoch.read_during_merge_ratio", "ratio"),
    ("core.epoch.pin_ns", "ns"),
    ("core.parallel.speedup_2t", "ratio"),
    ("obs.enabled_tax_ratio", "ratio"),
    ("obs.profile_coverage", "ratio"),
    ("trace.layer_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.stage.plan_us", "us"),
    ("trace.stage.exact_rung_ms", "ms"),
    ("trace.stage.audit_new_us", "us"),
    ("trace.stage.walks_ms", "ms"),
    ("trace.stage.estimates_us", "us"),
    ("trace.stage.chart_build_us", "us"),
    ("trace.stage.query_us", "us"),
];

/// Layer readings by name; the catalogue decides what is printed.
pub type Layer = BTreeMap<&'static str, f64>;

pub fn end_to_end(run: &Run) -> Vec<(&'static str, f64)> {
    let ops = &run.outcome.op_ms;
    let tail = f64::from(tail_percentile(ops.len())) / 100.0;
    vec![
        ("setup_s", run.setup_s),
        ("rss_mb", run.rss_mb),
        ("op_ms_mean", mean(ops)),
        ("op_ms_tail", quantile(ops, tail)),
        ("work_per_s", run.outcome.work_per_s),
        ("rel_ci", run.outcome.rel_ci),
        ("goal_share", run.outcome.goal_share),
    ]
}

pub fn e2e_json(values: &[(&'static str, f64)]) -> Vec<(String, Json)> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, &(name, v))| {
            debug_assert_eq!(m.name, name, "values come in catalogue order");
            (name.to_string(), Json::metric(v, m.unit))
        })
        .collect()
}

/// Every catalogued layer metric, in catalogue order. A probe that did
/// not report reads as `null`, never as a number.
pub fn layer_json(layer: &Layer) -> Vec<(String, Json)> {
    LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                Json::metric(layer.get(name).copied().unwrap_or(f64::NAN), unit),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits at the repository root, one level above the
    /// benchmark's manifest.
    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn every_metric_is_declared_with_its_unit() {
        let manifest = manifest();
        for m in &END_TO_END {
            let declared = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(
                manifest.contains(&declared),
                "BENCHMARK.json lacks {declared}"
            );
        }
        for (name, unit) in &LAYER {
            let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                manifest.contains(&declared),
                "BENCHMARK.json lacks {declared}"
            );
        }
        let declared = manifest.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + LAYER.len(),
            "BENCHMARK.json declares extras"
        );
    }

    /// `LAYERS.json` carries what the manifest's fixed keys cannot: which
    /// end-to-end metric each layer metric should move, on which workload.
    #[test]
    fn the_interaction_table_covers_every_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/LAYERS.json");
        let table = std::fs::read_to_string(path).expect("LAYERS.json beside the manifest");
        for (name, unit) in &LAYER {
            let row = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(table.contains(&row), "LAYERS.json lacks {row}");
        }
        assert_eq!(table.matches("\"moves\":").count(), LAYER.len());
        for moved in table.split("\"metric\": \"").skip(1) {
            let metric = &moved[..moved.find('"').expect("closing quote")];
            assert!(
                END_TO_END.iter().any(|m| m.name == metric),
                "{metric} is not end-to-end"
            );
        }
    }

    #[test]
    fn every_workload_is_declared() {
        let manifest = manifest();
        for name in crate::workloads::NAMES {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\"")),
                "{name} undeclared"
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYER.iter().map(|(n, _)| *n))
            .collect();
        names.extend(crate::workloads::NAMES);
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
