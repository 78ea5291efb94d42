//! `wj_walks` — a fixed walk quota of Wander Join per chart, with
//! `distinct` off (the paper's Fig. 10 protocol: the estimator is then
//! unbiased, so the output can be checked). It bypasses tipping, CTJ and
//! `Pr(a,b)` entirely: index range/pick, the SoA walk step and the
//! accumulator do all the work. Index-layout and walk-loop changes show
//! here; a change to Audit Join's suffix path predicts **no change**.

use std::time::Instant;

use super::{coverage_check, top10_of_estimates, Check, Outcome, Plan, BATCH};
use crate::adapter::{self, ExplorationQuery, TermId};
use crate::report::Json;
use crate::setup::World;
use crate::stats::{median, quantile, SplitMix};
use crate::trace;

/// Walks per chart at the nominal run length, walked in `PASSES` slices.
/// The operation timed is one slice; a chart's time is the median of its
/// slices.
const NOMINAL_WALKS: f64 = 1_572_864.0;
const PASSES: u64 = 3;

/// The median chart's top-10 error after the quota must stay below this.
/// The gate is defined on the full chart set; a strided run looks at
/// another population and only notes the figure.
const MAE_GATE: f64 = 0.25;

/// A chart with `distinct` off, and the ten largest bars of its truth.
pub struct PlainChart {
    pub chart: usize,
    pub query: ExplorationQuery,
    pub top10: Vec<(TermId, u64)>,
}

/// Plain (non-distinct) ground truth for every chart the plan visits.
/// Part of this workload's set-up.
pub fn prepare(world: &World, plan: &Plan) -> Vec<PlainChart> {
    world
        .charts
        .iter()
        .enumerate()
        .step_by(plan.stride)
        .map(|(chart, c)| {
            let query = c.query.with_distinct(false);
            let truth = adapter::yannakakis(world.ig(c), &query);
            let top10 = truth.sorted_desc().into_iter().take(10).collect();
            PlainChart {
                chart,
                query,
                top10,
            }
        })
        .collect()
}

pub fn run(world: &World, charts: &[PlainChart], plan: &Plan) -> Outcome {
    let slice = (plan.scaled(NOMINAL_WALKS) / PASSES).div_ceil(BATCH) * BATCH;
    let quota = slice * PASSES;
    let mut out = Outcome::default();
    let mut seeds = SplitMix::new(plan.seed, 0x3A);
    let budget = adapter::budget_unlimited();
    let mut runs: Vec<_> = charts
        .iter()
        .map(|plain| {
            let ig = world.ig(&world.charts[plain.chart]);
            adapter::wander_join(ig, &plain.query, seeds.next_u64())
        })
        .collect();

    // Pass-major: a slow spell of the machine lands on one slice of every
    // chart and the per-chart median drops it, where chart-major would
    // charge it whole to the charts it happened to hit.
    let mut slice_s = vec![Vec::new(); runs.len()];
    for _ in 0..PASSES {
        for (i, wj) in runs.iter_mut().enumerate() {
            trace::set_op(i as u64);
            let t = Instant::now();
            let mut done = 0;
            while done < slice {
                done += adapter::step_batch(wj, &budget, BATCH)
                    .expect("an unlimited budget cannot trip");
            }
            slice_s[i].push(t.elapsed().as_secs_f64());
        }
    }

    let (mut ns_per_walk, mut rel_ci, mut mae) = (Vec::new(), Vec::new(), Vec::new());
    let (mut covered, mut bars) = (0, 0);
    let (mut rejected, mut walks, mut busy_s) = (0u64, 0u64, 0.0);
    for ((plain, wj), times) in charts.iter().zip(&runs).zip(&slice_s) {
        let s = median(times);
        let stats = adapter::walk_stats(wj);
        let top = top10_of_estimates(&plain.top10, &adapter::estimates(wj));
        out.attempted += 1;
        out.failed += u64::from(stats.walks != quota);
        out.op_ms.push(s * 1e3);
        ns_per_walk.push(s * 1e9 / slice as f64);
        rel_ci.push(top.rel_ci);
        mae.push(top.mae);
        covered += top.covered;
        bars += top.bars;
        rejected += stats.rejected;
        walks += stats.walks;
        busy_s += s;
    }

    out.work_per_s = (slice * out.attempted) as f64 / busy_s;
    out.rel_ci = median(&rel_ci);
    // The goal of a walk is a full path; the rest died at a dead end.
    out.goal_share = 1.0 - rejected as f64 / walks.max(1) as f64;
    out.checks.push(coverage_check(covered, bars));
    let mae_p50 = median(&mae);
    if plan.stride == 1 {
        out.checks.push(Check {
            name: "top10_mae",
            passed: mae_p50 <= MAE_GATE,
            detail: format!("median top-10 MAE {mae_p50:.4} after {quota} walks (gate {MAE_GATE})"),
        });
    }
    out.note("walks_per_chart", Json::Int(quota));
    out.note("walks_per_slice", Json::Int(slice));
    out.note("walks_per_s", Json::Num(out.work_per_s));
    out.note("walk_ns_p50", Json::Num(median(&ns_per_walk)));
    out.note("walk_ns_p90", Json::Num(quantile(&ns_per_walk, 0.9)));
    out.note("accepted_share", Json::Num(out.goal_share));
    out.note("top10_mae_p50", Json::Num(mae_p50));
    out
}
