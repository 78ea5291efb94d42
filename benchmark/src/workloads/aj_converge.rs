//! `aj_converge` — the paper's own axis: wall time from a click to a chart
//! whose error bars are small enough to read. Each unique chart gets a
//! fresh Audit Join run in SoA batches until the ten largest bars reach
//! the CI target, or the cap. CTJ suffix counting, `Pr(a,b)` and the memo
//! do most of the work here and none of it in `wj_walks`.

use std::time::{Duration, Instant};

use super::{coverage_check, top10_of_estimates, Outcome, Plan, Top10, BATCH};
use crate::adapter::{self, AuditJoin, IndexedGraph};
use crate::report::Json;
use crate::setup::{ChartCase, World};
use crate::stats::{capped_tta_ms, median, quantile, Checkpoints, SplitMix};
use crate::trace;

/// A chart has converged when Σ half-width ÷ Σ estimate over its ten
/// largest bars is at or below this — the same figure `session_replay`
/// reports for degraded charts, so the two workloads read on one scale.
pub const CI_TARGET: f64 = 0.10;

/// Per-chart cap. About a quarter of the charts converge inside it on the
/// reference box, so neither the mean time-to-accuracy nor `goal_share`
/// is saturated, and one pass over the 47 charts fits the run length.
pub const CAP: Duration = Duration::from_millis(400);

/// One chart's run.
pub struct Converged {
    /// Wall time at which the target was met, if it was.
    pub reached_ms: Option<f64>,
    /// Walks at the checkpoint that met the target (an exact count).
    pub walks_to_target: Option<u64>,
    pub elapsed_ms: f64,
    pub first_batch_ms: f64,
    pub new_us: f64,
    pub at_stop: Top10,
    pub stats: adapter::WalkStats,
    pub cache: (u64, u64),
    /// Exact-engine ticks the run charged to its budget.
    pub ticks: u64,
    /// Cost of one `estimates()` call, per group it returned, µs.
    pub estimates_us_per_group: f64,
}

/// Run Audit Join on `chart` until the CI target or `cap`.
pub fn converge(ig: &IndexedGraph, chart: &ChartCase, seed: u64, cap: Duration) -> Converged {
    let t = Instant::now();
    let mut aj: AuditJoin<'_> = adapter::audit_join(ig, &chart.query, seed);
    let new_us = t.elapsed().as_secs_f64() * 1e6;
    let budget = adapter::budget_deadline(cap);
    let mut schedule = Checkpoints::new(BATCH);
    let (mut reached_ms, mut walks_to_target) = (None, None);
    let mut first_batch_ms = 0.0;
    let start = Instant::now();
    loop {
        let admitted = adapter::step_batch(&mut aj, &budget, BATCH);
        let walks = adapter::walk_stats(&aj).walks;
        if first_batch_ms == 0.0 {
            first_batch_ms = start.elapsed().as_secs_f64() * 1e3;
        }
        if admitted.is_some() && schedule.due(walks) {
            let est = adapter::estimates(&aj);
            if top10_of_estimates(&chart.top10, &est).rel_ci <= CI_TARGET {
                reached_ms = Some(start.elapsed().as_secs_f64() * 1e3);
                walks_to_target = Some(walks);
                break;
            }
        }
        if admitted != Some(BATCH) {
            break; // the cap tripped
        }
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let est = adapter::estimates(&aj);
    let estimates_us_per_group = t.elapsed().as_secs_f64() * 1e6 / est.len().max(1) as f64;
    Converged {
        reached_ms,
        walks_to_target,
        elapsed_ms,
        first_batch_ms,
        new_us,
        at_stop: top10_of_estimates(&chart.top10, &est),
        stats: adapter::walk_stats(&aj),
        cache: adapter::suffix_cache(&aj),
        ticks: adapter::budget_tuples(&budget),
        estimates_us_per_group,
    }
}

pub fn run(world: &World, plan: &Plan) -> Outcome {
    let passes = plan.scaled(1.0);
    let cap_ms = CAP.as_secs_f64() * 1e3;
    let mut out = Outcome::default();
    let mut ci_at_stop = Vec::new();
    let mut charts = Vec::new();
    let (mut covered, mut bars, mut reached) = (0, 0, 0u64);
    let (mut walks, mut busy_ms) = (0u64, 0.0);

    for pass in 0..passes {
        let mut seeds = SplitMix::new(plan.seed, 0xA1 + pass);
        for (ci, chart) in world.charts.iter().enumerate().step_by(plan.stride) {
            trace::set_op(out.attempted);
            let run = converge(world.ig(chart), chart, seeds.next_u64(), CAP);
            out.attempted += 1;
            out.op_ms
                .push(capped_tta_ms(run.reached_ms, run.elapsed_ms, cap_ms));
            reached += u64::from(run.reached_ms.is_some());
            ci_at_stop.push(run.at_stop.rel_ci);
            covered += run.at_stop.covered;
            bars += run.at_stop.bars;
            walks += run.stats.walks;
            busy_ms += run.elapsed_ms;
            charts.push(Json::obj([
                ("chart", Json::Int(ci as u64)),
                ("depth", Json::Int(chart.depth as u64)),
                (
                    "walks_to_target",
                    run.walks_to_target.map_or(Json::Null, Json::Int),
                ),
                ("tta_ms", run.reached_ms.map_or(Json::Null, Json::Num)),
                ("walks", Json::Int(run.stats.walks)),
                ("ci_at_stop", Json::Num(run.at_stop.rel_ci)),
            ]));
        }
    }

    out.work_per_s = walks as f64 / (busy_ms / 1e3);
    out.rel_ci = quantile(&ci_at_stop, 0.75);
    out.goal_share = reached as f64 / out.attempted.max(1) as f64;
    out.checks.push(coverage_check(covered, bars));
    out.note("passes", Json::Int(passes));
    out.note("ci_target", Json::Num(CI_TARGET));
    out.note("cap_ms", Json::Num(cap_ms));
    out.note("tta_ms_mean", Json::Num(crate::stats::mean(&out.op_ms)));
    out.note("tta_ms_p25", Json::Num(quantile(&out.op_ms, 0.25)));
    out.note("reached_share", Json::Num(out.goal_share));
    out.note("ci_at_stop_p50", Json::Num(median(&ci_at_stop)));
    out.note("ci_at_stop_p75", Json::Num(out.rel_ci));
    out.note("charts", Json::Arr(charts));
    out
}
